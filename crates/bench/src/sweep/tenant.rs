//! The tenant fabric sweep: fairness under production skew, and the
//! noisy-neighbor isolation gate.
//!
//! Two sections, both gated:
//!
//! 1. **Skew sweep** — tenant population ∈ {4, 64, 512} × arrival skew
//!    ∈ {uniform round-robin, scrambled-Zipfian} × every IPC
//!    personality, identical Poisson arrival streams at ρ ≈ 0.8, every
//!    tenant on the default contract (weight 1, 64-deep lane, shed).
//!    Each cell reports its busiest tenants' ledgers and Jain's fairness
//!    index J = (Σx)²/(n·Σx²) over per-tenant completion ratios — J = 1
//!    is perfect fairness; the **fairness gate** requires J ≥ 0.95 on
//!    the uniform cells (equal offered load and equal weights must get
//!    equal service), and every cell must balance its per-tenant
//!    ledgers exactly ([`RunStats::tenants_conserved`]).
//! 2. **Noisy-neighbor gate** — the
//!    [`skybridge_repro::scenarios::tenant`] storm matrix across every
//!    personality × {direct, ring}: three victims run
//!    byte-identical streams solo and then against an aggressor
//!    offering 10× its contracted rate. The fabric must classify and
//!    quarantine the aggressor, and every victim's contended p99 must
//!    land within 10% (plus the service-quantization slack) of its solo
//!    p99 with zero SLO breach episodes. Any violated cell breaches a
//!    gate.

use std::path::Path;

use crate::gate::{Bound, Gate};
use crate::Artefact;
use sb_observe::Json;
use sb_runtime::{
    run_stats_json, PoissonArrivals, RequestFactory, RunStats, RuntimeConfig, ServerRuntime,
    TenantId, TenantRegistry, TenantSpec,
};
use skybridge_repro::scenarios::runtime::{build_backend, calibrate, workload, Backend, PAYLOAD};
use skybridge_repro::scenarios::tenant::run_noisy_neighbor;

/// The fairness gate: Jain's index on uniform cells must clear this.
const FAIRNESS_FLOOR: f64 = 0.95;
/// The isolation gate: victim contended p99 within 10% of solo.
const ISOLATION_HEADROOM: f64 = 1.10;
/// Arrivals per skew-sweep cell.
const REQUESTS: u64 = 4_000;
/// Offered load relative to the calibrated service rate.
const RHO: f64 = 0.8;
/// Tenant populations the sweep covers.
const TENANT_COUNTS: [u16; 3] = [4, 64, 512];
/// Seed of every cell's arrival and request streams.
const SEED: u64 = 0x7e47;

/// Jain's fairness index over per-tenant completion ratios
/// (completed/offered). 1.0 means every tenant got the same fraction of
/// its offered load served; 1/n means one tenant got everything.
fn jain_index(stats: &RunStats) -> f64 {
    let ratios: Vec<f64> = stats
        .tenants
        .values()
        .filter(|t| t.offered > 0)
        .map(|t| t.completed as f64 / t.offered as f64)
        .collect();
    let sum: f64 = ratios.iter().sum();
    let sum_sq: f64 = ratios.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (ratios.len() as f64 * sum_sq)
}

/// One skew-sweep cell: [`REQUESTS`] Poisson arrivals at ρ = [`RHO`]
/// against two lanes, tenants drawn uniform round-robin or Zipfian.
fn run_sweep_cell(backend: &Backend, tenants: u16, zipf: bool, gap: f64) -> RunStats {
    let mut factory = if zipf {
        RequestFactory::with_zipf_tenants(workload(), PAYLOAD, tenants, SEED)
    } else {
        let schedule: Vec<TenantId> = (0..REQUESTS).map(|i| (i % tenants as u64) as u16).collect();
        RequestFactory::with_tenant_schedule(workload(), PAYLOAD, schedule)
    };
    // Every tenant on the default contract (weight 1, a 64-deep lane
    // that sheds).
    let cfg = RuntimeConfig {
        tenants: Some(TenantRegistry::new(TenantSpec::default())),
        ..RuntimeConfig::default()
    };
    let mut transport = build_backend(backend, 2);
    let arrivals = PoissonArrivals::new(gap, SEED).take(REQUESTS as usize);
    ServerRuntime::new(transport.as_mut(), cfg).run_open_loop(arrivals, &mut factory)
}

/// The gate every cell's per-tenant ledgers are held to.
const UNBALANCED: &str = "cells with unbalanced tenant ledgers";

pub fn run(_: &Path, a: &mut Artefact) {
    let mut least_fair = f64::INFINITY;

    // Section 1: the skew sweep.
    let mut sweep_json = Vec::new();
    for backend in Backend::all() {
        // Steady-state direct-mode cycles per call scale the arrival
        // rate to ρ.
        let gap = calibrate(&backend, 512, 512).mean() / RHO;
        for &tenants in &TENANT_COUNTS {
            for zipf in [false, true] {
                let skew = if zipf { "zipf" } else { "uniform" };
                let stats = run_sweep_cell(&backend, tenants, zipf, gap);
                let jain = jain_index(&stats);
                a.check(UNBALANCED, "cells", !stats.tenants_conserved(), || {
                    format!("{} {tenants} tenants {skew}", backend.label())
                });
                if !zipf {
                    least_fair = least_fair.min(jain);
                }
                sweep_json.push(
                    run_stats_json(&stats)
                        .field("tenant_population", tenants as u64)
                        .field("skew", skew)
                        .field("jain_index", jain)
                        .field("mean_gap_cycles", gap),
                );
            }
        }
    }
    a.rows(
        &format!("tenant skew sweep ({REQUESTS} arrivals/cell, 2 lanes, rho={RHO})"),
        &sweep_json,
        "label tenant_population skew completed shed_queue_full latency_p99 jain_index",
    );
    a.gates.push(Gate::new(
        "lowest Jain index, uniform cells",
        least_fair,
        Bound::AtLeast(FAIRNESS_FLOOR),
        "index",
    ));

    // Section 2: the noisy-neighbor isolation matrix.
    let mut nn_json = Vec::new();
    for backend in Backend::all() {
        for ring_mode in [false, true] {
            let out = run_noisy_neighbor(&backend, ring_mode, SEED);
            let isolated = out.isolated(ISOLATION_HEADROOM);
            let quarantined = out.aggressor_quarantined();
            let cell = format!("{} {}", out.backend, out.mode);
            let balanced = out.solo.tenants_conserved() && out.contended.tenants_conserved();
            a.check(UNBALANCED, "cells", !balanced, || {
                format!("{cell}: noisy neighbor")
            });
            a.check("storms never quarantined", "cells", !quarantined, || {
                cell.clone()
            });
            a.check("storms that reached a victim", "cells", !isolated, || {
                let worst = out.worst_ratio();
                format!("{cell}: worst p99 ratio {worst:.3}: {:?}", out.victims)
            });
            let victims = out
                .victims
                .iter()
                .map(|v| {
                    Json::obj()
                        .field("tenant", v.tenant as u64)
                        .field("solo_p99", v.solo_p99)
                        .field("contended_p99", v.contended_p99)
                        .field("breaches", v.breaches)
                })
                .collect();
            nn_json.push(
                Json::obj()
                    .field("backend", out.backend.as_str())
                    .field("mode", out.mode)
                    .field("worst_p99_ratio", out.worst_ratio())
                    .field("aggressor_quarantined", quarantined)
                    .field("isolated", isolated)
                    .field("shed_rate_limit", out.contended.shed_rate_limit)
                    .field("victims", Json::Arr(victims))
                    .field("contended", run_stats_json(&out.contended))
                    .field("solo", run_stats_json(&out.solo)),
            );
        }
    }
    a.rows(
        &format!("noisy neighbor: 3 victims vs one 10x storm (headroom {ISOLATION_HEADROOM})"),
        &nn_json,
        "backend mode worst_p99_ratio shed_rate_limit aggressor_quarantined isolated",
    );

    let doc = Json::obj()
        .field("bench", "tenant")
        .field("requests", REQUESTS)
        .field("rho", RHO)
        .field("fairness_floor", FAIRNESS_FLOOR)
        .field("isolation_headroom", ISOLATION_HEADROOM)
        .field("sweep", Json::Arr(sweep_json))
        .field("noisy_neighbor", Json::Arr(nn_json));
    a.json("tenant.json", &doc);
}
