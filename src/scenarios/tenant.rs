//! The noisy-neighbor scenario: proving tenant isolation end to end.
//!
//! A small population of well-behaved *victims* shares the server with
//! one *aggressor* that offers ten times its contracted rate. The
//! scenario runs the victims twice over identical arrival streams —
//! once alone (the solo baseline), once with the aggressor storming —
//! and the isolation verdict compares each victim's p99 across the two
//! runs: the tenant fabric (token-bucket gate, weighted DRR, SLO-burn
//! quarantine) must keep every victim's contended p99 within a small
//! headroom of its solo p99, with zero victim SLO breach episodes,
//! while the aggressor is classified and quarantined.
//!
//! Both lane-queue disciplines are covered: the central queue
//! ([`sb_runtime::ServerRuntime`]) and the per-lane rings
//! ([`sb_runtime::RingRuntime`]), across every IPC personality.

use std::collections::BTreeMap;

use sb_runtime::{
    AdmissionPolicy, PoissonArrivals, RateLimit, RequestFactory, RingConfig, RunStats,
    RuntimeConfig, TenantAction, TenantFabric, TenantId, TenantRegistry, TenantSpec,
};
use sb_sentinel::{SloHealth, SloSpec};
use sb_sim::Cycles;

use crate::scenarios::runtime::{
    build_backend, calibrate, serve_open_loop, workload, Backend, PAYLOAD,
};

/// The aggressor's tenant id (victims are `1..=VICTIMS`).
pub const AGGRESSOR: TenantId = 1000;

/// How many well-behaved tenants share the server.
pub const VICTIMS: u16 = 3;

/// Mean inter-arrival gap per victim, in cycles.
const VICTIM_GAP: f64 = 20_000.0;

/// The aggressor's contracted admission rate, per million cycles.
const AGGRESSOR_RATE: f64 = 20.0;

/// The aggressor offers this multiple of its contracted rate.
const STORM_FACTOR: f64 = 10.0;

/// Arrivals per victim per run.
const REQS_PER_VICTIM: usize = 400;

/// Server lanes in every cell.
const LANES: usize = 2;

/// Absolute slack on the p99 comparison, in cycles. Service times in
/// the machine model quantize to discrete steps (cache/TLB state flips
/// a call between a handful of exact costs), so a victim's p99 can move
/// one step between runs purely because interleaving perturbs the
/// shared cache state — ~160 cycles on the KV service. The slack
/// absorbs that quantization without masking real queueing interference,
/// which shows up at thousands of cycles.
pub const P99_QUANT_SLACK: Cycles = 500;

/// One victim's cross-run comparison.
#[derive(Debug, Clone)]
pub struct VictimVerdict {
    /// The victim tenant.
    pub tenant: TenantId,
    /// Its p99 with only victims running.
    pub solo_p99: Cycles,
    /// Its p99 with the aggressor storming.
    pub contended_p99: Cycles,
    /// SLO breach episodes in the contended run (must be zero).
    pub breaches: u64,
}

/// One noisy-neighbor cell: a backend × serving-mode pair, solo and
/// contended runs, and the per-victim verdicts.
#[derive(Debug)]
pub struct TenantOutcome {
    /// Backend label.
    pub backend: String,
    /// `"direct"` or `"ring"`.
    pub mode: &'static str,
    /// Victims-only baseline.
    pub solo: RunStats,
    /// The same victim streams plus the aggressor storm.
    pub contended: RunStats,
    /// Per-victim isolation verdicts.
    pub victims: Vec<VictimVerdict>,
    /// SLO-burn actions the fabric took in the contended run.
    pub actions: Vec<TenantAction>,
    /// The aggressor's health at end of contended run, if tracked.
    pub aggressor_health: Option<SloHealth>,
    /// The backend's calibrated cycles per call, rounded up — the
    /// non-preemptive service quantum the isolation bound allows for.
    pub quantum: Cycles,
}

impl TenantOutcome {
    /// Whether every victim stayed isolated: contended p99 within
    /// `headroom` (e.g. `1.10`) of solo p99 — plus the unavoidable
    /// scheduling allowance — and zero breach episodes.
    ///
    /// The allowance is one [`Self::quantum`] in direct mode
    /// and two in ring mode, plus the [`P99_QUANT_SLACK`] quantization
    /// slack. Service is non-preemptive, so even an ideal weighted-fair
    /// scheduler lets one in-contract aggressor call head-of-line-block
    /// a victim for a full service time (the classic DRR latency bound);
    /// in ring mode a batch can additionally serialize one admitted
    /// aggressor frame ahead of a victim frame inside the same cut.
    /// Anything past that bound is interference the fabric should have
    /// prevented.
    pub fn isolated(&self, headroom: f64) -> bool {
        let quanta = if self.mode == "ring" { 2 } else { 1 };
        let slack = (quanta * self.quantum + P99_QUANT_SLACK) as f64;
        self.victims.iter().all(|v| {
            v.breaches == 0 && (v.contended_p99 as f64) <= (v.solo_p99 as f64) * headroom + slack
        })
    }

    /// The worst contended/solo p99 ratio across victims.
    pub fn worst_ratio(&self) -> f64 {
        self.victims
            .iter()
            .map(|v| v.contended_p99 as f64 / (v.solo_p99 as f64).max(1.0))
            .fold(0.0, f64::max)
    }

    /// Whether the fabric classified the aggressor and quarantined it.
    pub fn aggressor_quarantined(&self) -> bool {
        self.actions
            .iter()
            .any(|a| matches!(a, TenantAction::Quarantine { tenant, .. } if *tenant == AGGRESSOR))
    }
}

/// The tenant contracts of the cell: victims get weight 4 and a latency
/// SLO; the aggressor gets weight 1, a token-bucket rate limit, and its
/// own (tight) SLO so the burn rule can classify it.
pub fn registry() -> TenantRegistry {
    let victim_slo = SloSpec {
        // Clear of every personality's solo tail (Zircon's occasionally
        // reaches ~100k at this load), so a breach means gross aggressor
        // harm, not baseline queueing noise; the p99 ratio bound is the
        // fine-grained isolation instrument.
        latency_objective: 150_000,
        error_budget: 0.05,
        fast_window: 200_000,
        slow_window: 2_000_000,
        fast_burn: 10.0,
        slow_burn: 2.0,
    };
    let aggressor_slo = SloSpec {
        latency_objective: 20_000,
        error_budget: 0.01,
        fast_window: 200_000,
        slow_window: 2_000_000,
        fast_burn: 10.0,
        slow_burn: 2.0,
    };
    let mut reg = TenantRegistry::new(TenantSpec::default());
    for v in 1..=VICTIMS {
        reg = reg.with(
            v,
            TenantSpec {
                weight: 4,
                queue_capacity: 64,
                policy: AdmissionPolicy::Shed,
                rate: None,
                slo: Some(victim_slo),
            },
        );
    }
    reg.with(
        AGGRESSOR,
        TenantSpec {
            weight: 1,
            queue_capacity: 16,
            policy: AdmissionPolicy::Shed,
            // Burst kept tight: every admitted aggressor call is
            // non-preemptive head-of-line blocking for some victim, so
            // the contract allows at most two back-to-back.
            rate: Some(RateLimit {
                per_mcycle: AGGRESSOR_RATE,
                burst: 2.0,
            }),
            slo: Some(aggressor_slo),
        },
    )
}

/// Merged arrival streams: per-tenant Poisson processes with per-tenant
/// seeds (victim streams are byte-identical between solo and contended
/// runs), sorted into one `(times, tenant schedule)` pair.
fn streams(seed: u64, with_aggressor: bool) -> (Vec<Cycles>, Vec<TenantId>) {
    let mut tagged: Vec<(Cycles, TenantId)> = Vec::new();
    for v in 1..=VICTIMS {
        let s = seed ^ (v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        tagged.extend(
            PoissonArrivals::new(VICTIM_GAP, s)
                .take(REQS_PER_VICTIM)
                .map(|t| (t, v)),
        );
    }
    if with_aggressor {
        let gap = 1e6 / (AGGRESSOR_RATE * STORM_FACTOR);
        let n = (REQS_PER_VICTIM as f64 * VICTIM_GAP / gap) as usize;
        tagged.extend(
            PoissonArrivals::new(gap, seed ^ 0x5bd1_e995)
                .take(n)
                .map(|t| (t, AGGRESSOR)),
        );
    }
    tagged.sort_unstable();
    tagged.into_iter().unzip()
}

/// One run of the cell; returns the stats plus the fabric's action log
/// and per-tenant SLO health readings.
fn run_cell(
    backend: &Backend,
    ring_mode: bool,
    arrivals: Vec<Cycles>,
    schedule: Vec<TenantId>,
) -> (RunStats, Vec<TenantAction>, BTreeMap<TenantId, SloHealth>) {
    let mut factory = RequestFactory::with_per_tenant_streams(workload(), PAYLOAD, schedule);
    let cfg = RuntimeConfig {
        tenants: Some(registry()),
        ..RuntimeConfig::default()
    };
    let engine = build_backend(backend, LANES);
    let ring = ring_mode.then(RingConfig::default);
    let read = |stats, fabric: &TenantFabric| {
        let healths = (1..=VICTIMS)
            .chain([AGGRESSOR])
            .filter_map(|v| Some((v, fabric.slo_health(v)?)))
            .collect();
        (stats, fabric.actions().to_vec(), healths)
    };
    serve_open_loop(engine, ring, cfg, arrivals, &mut factory, read).0
}

/// Runs one noisy-neighbor cell: solo baseline, then the contended run
/// over the identical victim streams plus the aggressor storm at
/// `STORM_FACTOR` times its contracted rate.
pub fn run_noisy_neighbor(backend: &Backend, ring_mode: bool, seed: u64) -> TenantOutcome {
    let (solo_times, solo_sched) = streams(seed, false);
    let (solo, _, _) = run_cell(backend, ring_mode, solo_times, solo_sched);

    let (times, sched) = streams(seed, true);
    let (contended, actions, healths) = run_cell(backend, ring_mode, times, sched);

    let victims = (1..=VICTIMS)
        .map(|v| VictimVerdict {
            tenant: v,
            solo_p99: solo.tenant(v).map_or(0, |t| t.p99()),
            contended_p99: contended.tenant(v).map_or(0, |t| t.p99()),
            breaches: healths.get(&v).map_or(0, |h| h.breaches),
        })
        .collect();
    TenantOutcome {
        backend: backend.label().to_string(),
        mode: if ring_mode { "ring" } else { "direct" },
        solo,
        contended,
        victims,
        actions,
        aggressor_health: healths.get(&AGGRESSOR).copied(),
        // Warmup runs past the KV store's growth phase first.
        quantum: calibrate(backend, 512, 512).quantum(),
    }
}

#[cfg(test)]
mod tests {
    use sb_microkernel::Personality;

    use super::*;

    fn check(out: &TenantOutcome) {
        assert!(
            out.solo.tenants_conserved(),
            "solo per-tenant ledgers must balance: {:?}",
            out.solo
        );
        assert!(
            out.contended.tenants_conserved(),
            "contended per-tenant ledgers must balance: {:?}",
            out.contended
        );
        assert!(
            out.contended.shed_rate_limit > 0,
            "a 10x storm must shed at the rate gate"
        );
        assert!(
            out.aggressor_quarantined(),
            "the storming tenant must be classified and quarantined: {:?}",
            out.actions
        );
        assert!(
            out.isolated(1.10),
            "victim p99 must stay within 10% of solo ({} {}): {:?}",
            out.backend,
            out.mode,
            out.victims
        );
    }

    #[test]
    fn direct_mode_isolates_victims_from_a_storm() {
        let out = run_noisy_neighbor(&Backend::Trap(Personality::sel4()), false, 11);
        check(&out);
    }

    #[test]
    fn ring_mode_isolates_victims_from_a_storm() {
        let out = run_noisy_neighbor(&Backend::SkyBridge, true, 11);
        check(&out);
    }

    #[test]
    fn victims_complete_their_full_streams() {
        let out = run_noisy_neighbor(&Backend::Trap(Personality::zircon()), false, 17);
        for v in 1..=VICTIMS {
            let t = out.contended.tenant(v).expect("victim ran");
            assert_eq!(
                t.offered as usize, REQS_PER_VICTIM,
                "victim {v} stream length"
            );
            assert_eq!(t.completed, t.offered, "victim {v} must not shed");
        }
        let a = out.contended.tenant(AGGRESSOR).expect("aggressor ran");
        assert!(
            a.shed_rate_limit > a.completed,
            "most of the storm dies at the gate: {a:?}"
        );
    }
}
