//! The ring sweep: what batching the VMFUNC boundary buys, and what it
//! must not cost.
//!
//! ρ ∈ {0.2, 0.6, 0.95} × batch budget ∈ {1, 4, 8, 16} × every IPC
//! personality, identical Poisson arrival streams in ring mode and
//! direct mode, all in deterministic simulated cycles. The **latency
//! gate** reads off the low-ρ row: on SkyBridge at ρ = 0.2 the ring-mode
//! p50 with the working budget (8) must sit within 5% of direct mode —
//! the adaptive doorbell has to degrade to batch-of-one when the system
//! is idle, or async submission would tax exactly the workloads that
//! don't need it. A cell that does not conserve its requests breaches a
//! gate row of its own. (What a batch saves per call on the host clock
//! is `benchmark/`'s `transport.ring_b1` / `transport.ring_b8` rows; in
//! simulated cycles it is
//! `tests/ring.rs::a_full_batch_pays_the_crossing_once`.)

use std::path::Path;

use crate::gate::{Bound, Gate};
use crate::{calibrate, Artefact};
use sb_observe::Json;
use sb_runtime::{run_stats_json, RingConfig, RuntimeConfig};
use skybridge_repro::scenarios::runtime::{
    run_open_loop, run_ring_open_loop, Backend, ServingScenario,
};

/// The low-ρ latency gate: ring-mode p50 within 5% of direct.
const LATENCY_TOLERANCE: f64 = 0.05;
/// The ρ row the latency gate reads.
const LOW_RHO: f64 = 0.2;
/// The batch budget the latency gate certifies.
const GATE_BUDGET: usize = 8;

/// Arrivals per sweep cell.
const REQUESTS: u64 = 500;
const RHOS: [f64; 3] = [0.2, 0.6, 0.95];
const BUDGETS: [usize; 4] = [1, 4, 8, 16];

pub fn run(_: &Path, a: &mut Artefact) {
    let seed = 0x51de_0007u64;

    let mut sweep_json = Vec::new();
    let mut direct_json = Vec::new();
    // (direct p50, ring p50, their ratio) of the gate cell.
    let mut low_rho_gate: Option<(u64, u64, f64)> = None;
    for backend in Backend::all() {
        // The service rate the ρ grid is scaled against: 512 calls past
        // the KV store's growth phase, so the sweep sees steady state.
        let svc = calibrate(&backend, 512, 512);
        for &rho in &RHOS {
            let gap = svc / rho;
            let direct = run_open_loop(
                ServingScenario::Kv,
                &backend,
                1,
                RuntimeConfig::default(), // a 64-deep lane that sheds
                gap,
                REQUESTS,
                seed,
            );
            direct_json.push(
                run_stats_json(&direct)
                    .field("rho", rho)
                    .field("mean_gap_cycles", gap),
            );
            for &budget in &BUDGETS {
                let ring = run_ring_open_loop(
                    ServingScenario::Kv,
                    &backend,
                    1,
                    RuntimeConfig::default(),
                    RingConfig {
                        capacity: 64.max(2 * budget),
                        batch_budget: budget,
                        slot_bytes: 4096,
                    },
                    gap,
                    REQUESTS,
                    seed,
                );
                let p50_vs_direct = if direct.p50() == 0 {
                    1.0
                } else {
                    ring.p50() as f64 / direct.p50() as f64
                };
                if matches!(backend, Backend::SkyBridge) && rho == LOW_RHO && budget == GATE_BUDGET
                {
                    low_rho_gate = Some((direct.p50(), ring.p50(), p50_vs_direct));
                }
                sweep_json.push(
                    run_stats_json(&ring)
                        .field("rho", rho)
                        .field("batch_budget", budget)
                        .field("mean_gap_cycles", gap)
                        .field("p50_vs_direct", p50_vs_direct),
                );
                a.check(
                    "cells that do not conserve requests",
                    "cells",
                    ring.offered != ring.completed + ring.shed() + ring.timed_out + ring.failed,
                    || format!("{} rho {rho} budget {budget}", backend.label()),
                );
            }
        }
    }
    a.rows(
        &format!("ring sweep ({REQUESTS} arrivals/cell, 1 lane, simulated cycles)"),
        &sweep_json,
        "label rho batch_budget latency_p50 p50_vs_direct throughput_per_mcycle shed_queue_full",
    );

    // A sweep that misses the gate cell measures NaN, a breach.
    let (direct_p50, ring_p50, latency_ratio) = low_rho_gate.unwrap_or((0, 0, f64::NAN));
    let doc = Json::obj()
        .field("bench", "ring")
        .field("latency_tolerance", LATENCY_TOLERANCE)
        .field("gate_budget", GATE_BUDGET)
        .field("requests", REQUESTS)
        .field(
            "latency_gate",
            Json::obj()
                .field("rho", LOW_RHO)
                .field("direct_p50", direct_p50)
                .field("ring_p50", ring_p50)
                .field("ratio", latency_ratio),
        )
        .field("sweep", Json::Arr(sweep_json))
        .field("direct", Json::Arr(direct_json));
    a.gates.push(Gate::new(
        format!("skybridge ring p50 / direct p50 at rho {LOW_RHO}, budget {GATE_BUDGET}"),
        latency_ratio,
        Bound::AtMost(1.0 + LATENCY_TOLERANCE),
        "ratio",
    ));
    a.json("ring.json", &doc);
}
