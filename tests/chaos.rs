//! The chaos matrix: seeds × fault mixes × IPC personalities.
//!
//! Every cell must (1) terminate cleanly, (2) conserve requests —
//! `offered = completed + shed + timed_out + failed`, (3) end with every
//! worker serving again, and (4) leak **zero** faults: every injected
//! instance is detected and recovered by the layer that owns it. The FS
//! cells additionally hold the committed-prefix property across a
//! power-loss remount.

use std::collections::BTreeSet;

use sb_faultplane::FaultPoint;
use sb_runtime::{RingConfig, RingTransport};
use skybridge_repro::scenarios::chaos::{fs_mixes, run_chaos_cell, run_fs_chaos, serving_mixes};
use skybridge_repro::scenarios::runtime::{build_backend, request_factory, Backend};

const SEEDS: [u64; 2] = [0x5eed_c401, 0x5eed_c402];
const REQUESTS: u64 = 120;

/// The full serving matrix: every transport under every mix and seed.
#[test]
fn chaos_matrix_conserves_and_leaks_nothing() {
    let mut total_injected = 0;
    for transport in Backend::all() {
        for mix in serving_mixes() {
            for seed in SEEDS {
                let out = run_chaos_cell(&transport, seed, &mix, REQUESTS, None, None);
                let label = format!("{}/{}/{seed:#x}", transport.label(), mix.name);
                assert!(
                    out.conserved(),
                    "{label}: conservation violated: {:?}",
                    out.stats
                );
                assert_eq!(out.report.leaked(), 0, "{label}: {}", out.report);
                assert_eq!(
                    out.report.detected(),
                    out.report.injected(),
                    "{label}: every injected fault must be observed: {}",
                    out.report
                );
                assert!(
                    out.stats.completed > 0,
                    "{label}: the run must still make progress"
                );
                total_injected += out.report.injected();
            }
        }
    }
    assert!(
        total_injected > 0,
        "the matrix must actually inject faults somewhere"
    );
}

/// Chaos cells are exactly reproducible from `(seed, mix)`: same cell,
/// same outcome counters, same fault ledger.
#[test]
fn chaos_cells_are_deterministic() {
    let mix = skybridge_repro::scenarios::chaos::serving_mixes()
        .into_iter()
        .next()
        .unwrap();
    let a = run_chaos_cell(&Backend::SkyBridge, 0xd07, &mix, 80, None, None);
    let b = run_chaos_cell(&Backend::SkyBridge, 0xd07, &mix, 80, None, None);
    assert_eq!(a.stats.completed, b.stats.completed);
    assert_eq!(a.stats.failed, b.stats.failed);
    assert_eq!(a.stats.retries, b.stats.retries);
    assert_eq!(a.report.injected(), b.report.injected());
    assert_eq!(a.report.recovered(), b.report.recovered());
}

/// The storms mix must actually exercise the deadline-collapse path on at
/// least one cell of the sweep (detection is the dispatcher's own
/// machinery; recovery is the end-of-run settle).
#[test]
fn storm_cells_exercise_deadline_collapse() {
    let storms = serving_mixes()
        .into_iter()
        .find(|m| m.name == "storms")
        .unwrap();
    let mut injected = 0;
    for seed in 0..6u64 {
        let out = run_chaos_cell(
            &Backend::SkyBridge,
            0x5709_0000 + seed,
            &storms,
            200,
            None,
            None,
        );
        assert_eq!(out.report.leaked(), 0, "{}", out.report);
        injected += out
            .report
            .rows
            .iter()
            .filter(|r| r.point == FaultPoint::DeadlineStorm)
            .map(|r| r.injected)
            .sum::<u64>();
    }
    assert!(injected > 0, "storms never started across the sweep");
}

/// The same matrix through the asynchronous rings: a fault that lands
/// mid-batch — after the doorbell cut the frames but while the server
/// is draining them — must still be detected, recovered, and charged to
/// the ledger, with no frame lost between the submission and completion
/// rings.
#[test]
fn ring_chaos_matrix_conserves_and_leaks_nothing() {
    let ring = RingConfig {
        capacity: 16,
        batch_budget: 4,
        slot_bytes: 4096,
    };
    let mut total_injected = 0;
    for transport in Backend::all() {
        for mix in serving_mixes() {
            for seed in SEEDS {
                let out = run_chaos_cell(&transport, seed, &mix, REQUESTS, Some(ring), None);
                let label = format!("ring/{}/{}/{seed:#x}", transport.label(), mix.name);
                assert!(
                    out.conserved(),
                    "{label}: conservation violated: {:?}",
                    out.stats
                );
                assert_eq!(out.report.leaked(), 0, "{label}: {}", out.report);
                assert_eq!(
                    out.report.detected(),
                    out.report.injected(),
                    "{label}: every injected fault must be observed: {}",
                    out.report
                );
                assert!(
                    out.stats.completed > 0,
                    "{label}: the run must still make progress"
                );
                total_injected += out.report.injected();
            }
        }
    }
    assert!(
        total_injected > 0,
        "the ring matrix must actually inject faults somewhere"
    );
}

/// One ring power-loss drill's result. The drill freezes a ring
/// mid-flight — frames queued, completions posted but unacknowledged,
/// acknowledgments taken — and proves the async boundary never loses or
/// duplicates work across the cut.
#[derive(Debug)]
struct PowerDrillOutcome {
    /// Frames submitted before the cut.
    submitted: usize,
    /// Completions posted but not yet acknowledged at the cut.
    in_cq_at_cut: usize,
    /// Frames still queued in the submission ring at the cut.
    in_sq_at_cut: usize,
}

/// The ring power-loss drill: submits up to `requests` frames with a
/// lazy, seed-jittered acknowledgment cadence, cuts power at a seeded
/// point, and checks the ledger partition — every submitted correlation
/// id is in **exactly one** of {acknowledged, completion ring,
/// submission ring} — then restarts, drains the remainder, and proves
/// the acknowledged set only grew: nothing acked before the cut is lost,
/// nothing completes twice, and every frame ends acknowledged.
fn run_ring_power_drill(
    backend: &Backend,
    seed: u64,
    requests: u64,
    ring: RingConfig,
) -> PowerDrillOutcome {
    assert!(requests >= 2);
    let mut rt = RingTransport::new(build_backend(backend, 1), ring);
    let mut factory = request_factory();
    let budget = rt.config().batch_budget.max(1);
    let cut = 1 + seed % (requests - 1);

    let mut submitted: BTreeSet<u64> = BTreeSet::new();
    let mut acked: BTreeSet<u64> = BTreeSet::new();
    for i in 0..cut {
        let req = factory.make(i * 2_000, None);
        if rt.submit(0, &req).is_err() {
            // Ring full: cut a batch, acknowledge just enough to free
            // completion slots, leave the rest unacked in the CQ.
            rt.doorbell(0);
            while rt.cq_len(0) > budget / 2 {
                let c = rt.pop_completion(0).expect("cq nonempty");
                assert!(acked.insert(c.corr), "corr {} acked twice", c.corr);
            }
            rt.submit(0, &req).expect("the doorbell freed a slot");
        }
        submitted.insert(req.id);
        if rt.sq_len(0) >= budget {
            rt.doorbell(0);
        }
        if (seed ^ i).is_multiple_of(3) {
            while let Some(c) = rt.pop_completion(0) {
                assert!(acked.insert(c.corr), "corr {} acked twice", c.corr);
            }
        }
    }

    // Power cut. The ledger partition at the frozen instant: every
    // submitted corr is in exactly one place.
    let in_sq: BTreeSet<u64> = rt.queued_corrs(0).into_iter().collect();
    let in_cq: BTreeSet<u64> = rt.unacked_corrs(0).into_iter().collect();
    for corr in &submitted {
        let places = u8::from(acked.contains(corr))
            + u8::from(in_sq.contains(corr))
            + u8::from(in_cq.contains(corr));
        assert_eq!(places, 1, "corr {corr} is in {places} places at the cut");
    }
    let outcome = PowerDrillOutcome {
        submitted: submitted.len(),
        in_cq_at_cut: in_cq.len(),
        in_sq_at_cut: in_sq.len(),
    };

    // Restart: drain everything that survived the cut. Acknowledged
    // completions must never reappear (no duplicates) or vanish.
    let frozen = acked.clone();
    let mut rounds = 0;
    while rt.sq_len(0) > 0 || rt.cq_len(0) > 0 {
        rt.doorbell(0);
        while let Some(c) = rt.pop_completion(0) {
            assert!(
                acked.insert(c.corr),
                "corr {} completed twice across the restart",
                c.corr
            );
        }
        rounds += 1;
        assert!(rounds < 10_000, "the restart drain must terminate");
    }
    assert!(
        frozen.is_subset(&acked),
        "acknowledged completions were lost across the cut"
    );
    assert_eq!(
        acked, submitted,
        "every submitted frame must complete exactly once"
    );
    outcome
}

/// Power loss with frames parked in the rings: at the cut, every
/// submitted frame is in exactly one of {acknowledged, completion ring,
/// submission ring} (asserted inside the drill), and the restart drains
/// the survivors to acknowledgment without inventing or dropping any.
/// The cut lands after `1 + seed % (requests − 1)` submissions.
#[test]
fn ring_power_loss_drill_partitions_and_recovers() {
    let ring = RingConfig {
        capacity: 8,
        batch_budget: 4,
        slot_bytes: 4096,
    };
    let mut parked_somewhere = false;
    for (i, backend) in Backend::all().into_iter().enumerate() {
        for seed in SEEDS {
            let seed = seed + i as u64;
            let out = run_ring_power_drill(&backend, seed, 80, ring);
            assert_eq!(
                out.submitted as u64,
                1 + seed % 79,
                "{}: the cut lands at its seeded point",
                backend.label()
            );
            parked_somewhere |= out.in_cq_at_cut + out.in_sq_at_cut > 0;
        }
    }
    assert!(
        parked_somewhere,
        "at least one cut must land with frames still parked in a ring"
    );
    // A cut 31 frames into a 60-frame SkyBridge run leaves frames parked.
    let out = run_ring_power_drill(&Backend::SkyBridge, 0x9d11, 60, ring);
    assert_eq!(out.submitted as u64, 1 + 0x9d11 % 59);
    assert!(out.in_sq_at_cut + out.in_cq_at_cut > 0, "{out:?}");
}

/// FS cells: a power cut at an arbitrary point during commit, a remount,
/// and the surviving state is exactly the committed prefix (asserted
/// inside `run_fs_chaos`), with the full fault ledger closed.
#[test]
fn fs_chaos_recovers_committed_prefix() {
    let mut torn_seen = false;
    let mut power_seen = false;
    for seed in 0..48u64 {
        for mix in fs_mixes() {
            let out = run_fs_chaos(0xf5ee_d000 + seed, &mix, 12);
            assert_eq!(
                out.report.leaked(),
                0,
                "seed {seed} mix {}: {}",
                mix.name,
                out.report
            );
            torn_seen |= out.torn_discarded;
            power_seen |= out.committed < out.attempted;
        }
    }
    assert!(torn_seen, "the sweep must hit at least one torn header");
    assert!(
        power_seen,
        "the sweep must lose at least one uncommitted transaction"
    );
}
