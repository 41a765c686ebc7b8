//! The chaos matrix: seeds × fault mixes × IPC personalities.
//!
//! Every cell must (1) terminate cleanly, (2) conserve requests —
//! `offered = completed + shed + timed_out + failed`, (3) end with every
//! worker serving again, and (4) leak **zero** faults: every injected
//! instance is detected and recovered by the layer that owns it. The FS
//! cells additionally hold the committed-prefix property across a
//! power-loss remount.

use sb_faultplane::FaultPoint;
use sb_runtime::RingConfig;
use skybridge_repro::scenarios::chaos::{
    fs_mixes, run_chaos_cell, run_fs_chaos, run_ring_power_drill, serving_mixes,
};
use skybridge_repro::scenarios::runtime::Backend;

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
                    out.trace_matches_ledger(),
                    "{label}: trace counters {:?} disagree with the ledger {}",
                    out.trace,
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
                    out.trace_matches_ledger(),
                    "{label}: trace counters {:?} disagree with the ledger {}",
                    out.trace,
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

/// Power loss with frames parked in the rings: at the cut, every
/// submitted frame is in exactly one of {acknowledged, completion ring,
/// submission ring} (asserted inside the drill), and the restart drains
/// the survivors to acknowledgment without inventing or dropping any.
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
            let out = run_ring_power_drill(&backend, seed + i as u64, 80, ring);
            assert!(
                out.submitted > 0,
                "{}: the drill must submit",
                backend.label()
            );
            parked_somewhere |= out.in_cq_at_cut + out.in_sq_at_cut > 0;
        }
    }
    assert!(
        parked_somewhere,
        "at least one cut must land with frames still parked in a ring"
    );
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
