//! The ring-mode test battery: submission/completion rings must never
//! lose, duplicate, reorder, or silently drop a frame — across
//! wrap-around, arbitrary batch budgets, capacity-1 rings, and deadline
//! expiry — and a ring-mode run's trace must still decompose exactly.
//!
//! The async doorbell buys its amortization by moving frames out of
//! call/return and into shared-memory rings; every invariant here is a
//! way that move could corrupt the call contract without anything
//! obviously crashing.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sb_observe::{attribute, Loss, Recorder, SpanKind};
use sb_runtime::{
    CallError, FixedServiceTransport, Request, RequestFactory, RingConfig, RingRuntime,
    RingTransport, RuntimeConfig, Transport,
};
use sb_sentinel::assemble;
use sb_ycsb::WorkloadSpec;
use skybridge_repro::scenarios::runtime::{build_ring_backend, Backend, ServingScenario};

fn req(id: u64, payload: usize) -> Request {
    Request {
        id,
        arrival: 0,
        key: id * 31 % 10_000,
        write: id.is_multiple_of(2),
        payload,
        client: None,
        tenant: 0,
    }
}

fn fixed_ring(
    capacity: usize,
    budget: usize,
    service: u64,
) -> RingTransport<FixedServiceTransport> {
    RingTransport::new(
        FixedServiceTransport::new(1, service),
        RingConfig {
            capacity,
            batch_budget: budget,
            slot_bytes: 4096,
        },
    )
}

/// Acknowledges every posted completion, counting per corr.
fn pop_all(rt: &mut RingTransport<FixedServiceTransport>, seen: &mut BTreeMap<u64, u32>) {
    while let Some(c) = rt.pop_completion(0) {
        *seen.entry(c.corr).or_insert(0) += 1;
    }
}

/// Capacity-1 is the degenerate ring: every submission wraps the ring,
/// and any off-by-one in slot reuse shows up within two frames.
#[test]
fn capacity_one_ring_wraps_without_loss() {
    let mut rt = fixed_ring(1, 1, 200);
    let mut seen = BTreeMap::new();
    for i in 0..200u64 {
        rt.submit(0, &req(i, 32)).expect("an empty ring has a slot");
        rt.doorbell(0);
        pop_all(&mut rt, &mut seen);
    }
    assert_eq!(seen.len(), 200);
    assert!(seen.values().all(|&c| c == 1));
    assert_eq!(rt.submitted(0), 200);
    assert_eq!(rt.acked(0), 200);
}

/// The capacity-1 wrap over the real MPK transport: every frame is its
/// own batch, so every crossing pays the full two-flip price and the
/// slot-reuse path runs against genuine in-place replies rather than
/// the synthetic backend.
#[test]
fn capacity_one_ring_wraps_on_mpk() {
    let mut rt = build_ring_backend(
        ServingScenario::Kv,
        &Backend::Mpk,
        1,
        RingConfig {
            capacity: 1,
            batch_budget: 1,
            slot_bytes: 4096,
        },
    );
    let mut seen = BTreeMap::new();
    for i in 0..64u64 {
        rt.submit(0, &req(i, 64)).expect("an empty ring has a slot");
        rt.doorbell(0);
        while let Some(c) = rt.pop_completion(0) {
            assert!(!c.expired);
            c.result.expect("mpk serve");
            assert_eq!(rt.completion_reply(0), req(c.corr, 64).encode());
            *seen.entry(c.corr).or_insert(0u32) += 1;
        }
    }
    assert_eq!(seen.len(), 64);
    assert!(seen.values().all(|&c| c == 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The core ring invariant under arbitrary capacities, budgets and
    /// doorbell/acknowledgment cadences: exactly one completion per
    /// submitted frame, carrying the submitter's corr — no loss on
    /// wrap-around, no duplication on partial drains.
    #[test]
    fn every_submission_completes_exactly_once(
        capacity in 1usize..6,
        budget in 1usize..6,
        n in 1u64..60,
        cadence in any::<u64>(),
    ) {
        let mut rt = fixed_ring(capacity, budget, 500);
        let mut seen = BTreeMap::new();
        for i in 0..n {
            let r = req(i, 64);
            while rt.submit(0, &r).is_err() {
                // Full: cut a batch and free completion slots.
                rt.doorbell(0);
                pop_all(&mut rt, &mut seen);
            }
            if cadence >> (i % 64) & 1 == 1 {
                rt.doorbell(0);
            }
            if cadence >> ((i + 7) % 64) & 1 == 1 {
                pop_all(&mut rt, &mut seen);
            }
        }
        let mut rounds = 0;
        while rt.sq_len(0) > 0 || rt.cq_len(0) > 0 {
            rt.doorbell(0);
            pop_all(&mut rt, &mut seen);
            rounds += 1;
            prop_assert!(rounds < 10_000, "the final drain must terminate");
        }
        prop_assert_eq!(seen.len() as u64, n, "one completion per frame");
        for i in 0..n {
            prop_assert_eq!(
                seen.get(&i).copied(),
                Some(1),
                "corr {} lost or duplicated",
                i
            );
        }
        prop_assert_eq!(rt.submitted(0), n);
        prop_assert_eq!(rt.acked(0), n);
    }

    /// Deadline-expired frames complete as `CallError::Timeout` in
    /// submission order — never served, never silently dropped — while
    /// undeadlined neighbors in the same ring are served normally.
    #[test]
    fn expired_frames_complete_as_timeout_in_order(
        deadlines in proptest::collection::vec(
            prop_oneof![Just(0u64), 1u64..80],
            1..20,
        ),
        budget in 1usize..24,
    ) {
        let mut rt = fixed_ring(32, budget, 1_000);
        for (i, &d) in deadlines.iter().enumerate() {
            rt.submit_with_deadline(0, &req(i as u64, 64), d).expect("ring slot");
        }
        // The clock passes every armed deadline before the first batch
        // is cut.
        rt.wait_until(0, 100);
        while rt.sq_len(0) > 0 {
            rt.doorbell(0);
        }
        let mut popped = Vec::new();
        while let Some(c) = rt.pop_completion(0) {
            popped.push(c);
        }
        prop_assert_eq!(popped.len(), deadlines.len(), "no frame may be dropped");
        for (i, (&d, c)) in deadlines.iter().zip(&popped).enumerate() {
            prop_assert_eq!(c.corr, i as u64, "completions must keep submission order");
            if d == 0 {
                prop_assert!(!c.expired, "frame {} has no deadline", i);
                prop_assert!(c.result.is_ok());
            } else {
                prop_assert!(c.expired, "frame {} (deadline {}) must expire", i, d);
                prop_assert!(
                    matches!(c.result, Err(CallError::Timeout { .. })),
                    "expired frames complete as Timeout, got {:?}",
                    c.result
                );
            }
        }
    }

    /// The ring pump conserves requests for arbitrary budgets and
    /// bursty arrival shapes, and every completion satisfies
    /// exactly-one through the dispatcher path too.
    #[test]
    fn ring_pump_conserves_under_arbitrary_budgets(
        budget in 1usize..10,
        burst in 1u64..6,
        gap in 300u64..3_000,
    ) {
        let mut rt = fixed_ring(16, budget, 700);
        let cfg = RuntimeConfig::default();
        let mut factory = RequestFactory::new(WorkloadSpec::ycsb_a(1_000, 64), 64);
        let arrivals: Vec<u64> = (0..48u64).map(|i| (i / burst) * gap).collect();
        let s = RingRuntime::new(&mut rt, cfg).run_open_loop(arrivals, &mut factory);
        prop_assert_eq!(
            s.offered,
            s.completed + s.shed_queue_full + s.shed_deadline + s.timed_out + s.failed,
            "conservation: {:?}",
            s
        );
        prop_assert_eq!(rt.submitted(0), rt.acked(0), "no frame left unacknowledged");
        prop_assert_eq!(rt.sq_len(0), 0);
        prop_assert_eq!(rt.cq_len(0), 0);
    }
}

/// A traced SkyBridge ring run: spans still nest, the sentinel can
/// still assemble one tree per request, and the phase identity closes —
/// in-call self-times decompose end-to-end exactly, with the shared
/// doorbell crossing and per-frame ring waits accounted *outside* the
/// calls they amortize.
#[test]
fn ring_runs_keep_spans_connected_and_phases_closed() {
    let recorder = Recorder::new(1 << 15);
    let cfg = RuntimeConfig {
        recorder: recorder.clone(),
        ..RuntimeConfig::default()
    };
    let mut rt = build_ring_backend(
        ServingScenario::Kv,
        &Backend::SkyBridge,
        1,
        RingConfig {
            capacity: 16,
            batch_budget: 4,
            slot_bytes: 4096,
        },
    );
    let mut factory = RequestFactory::new(WorkloadSpec::ycsb_a(10_000, 64), 64);
    // Bursts of four arrivals 100 cycles apart: the first drains alone
    // (idle lane), the rest land while the lane is busy and get cut as
    // a real batch with nonzero ring wait.
    let arrivals: Vec<u64> = (0..40u64)
        .map(|i| (i / 4) * 4_000 + (i % 4) * 100)
        .collect();
    let s = RingRuntime::new(&mut rt, cfg).run_open_loop(arrivals, &mut factory);
    assert_eq!(s.completed, 40, "{s:?}");

    let (_, pass) = recorder.capture(usize::MAX);
    assert_eq!(pass.loss, Loss::default(), "ring traces stay well-nested");
    let by_lane: Vec<_> = (0..recorder.lane_count())
        .map(|l| recorder.events(l))
        .collect();
    let prof = attribute(&by_lane);
    assert_eq!(prof.calls, 40, "one Call span per request, batched or not");
    assert_eq!((prof.loss.unmatched, prof.loss.unclosed), (0, 0));
    assert_eq!(
        prof.in_call_total(),
        prof.end_to_end,
        "ring-mode phase self-times must decompose end-to-end exactly"
    );
    assert!(
        prof.get(SpanKind::Doorbell) > 0,
        "the amortized crossing must be visible as doorbell self-time"
    );
    assert!(
        prof.get(SpanKind::RingWait) > 0,
        "queued frames must surface their ring wait"
    );
    assert!(prof.get(SpanKind::Handler) > 0);

    let forest = assemble(&recorder);
    assert!(forest.poisoned.is_empty(), "nothing may be poisoned");
    // Correlation id 0 is reserved: the sentinel treats it as ambient
    // (the doorbell's shared crossing is charged there on purpose), so
    // the first factory request is unattributable by convention — same
    // as direct mode. Every other request must assemble into a tree.
    for corr in 1..40u64 {
        let tree = forest
            .request(corr)
            .unwrap_or_else(|| panic!("request {corr} missing from the span forest"));
        assert!(tree.critical_path_cycles() > 0);
    }
    assert!(
        forest.unattributed > 0,
        "doorbell and corr-0 spans land in the ambient bucket"
    );
}

/// What batching buys, in the simulated quantities it is made of. (The
/// `ring` bench used to gate this on the host clock — a saturated
/// batch-of-eight under 294 host units per call against ~278 for a
/// direct call; `benchmark/`'s `transport.ring_b1` / `ring_b8` rows
/// carry the nanoseconds now.) A saturated SkyBridge ring pays the
/// crossing — trampoline, function-list fetch, key check, two VMFUNCs —
/// once per doorbell: eight frames behind one doorbell switch EPTP an
/// eighth as often as eight doorbells of one frame, and cost fewer
/// cycles per call than batch-of-one and than a direct call.
#[test]
fn a_full_batch_pays_the_crossing_once() {
    const BUDGET: usize = 8;
    const CALLS: u64 = 1024;
    let mut rt = build_ring_backend(
        ServingScenario::Kv,
        &Backend::SkyBridge,
        1,
        RingConfig {
            capacity: 2 * BUDGET,
            batch_budget: BUDGET,
            slot_bytes: 4096,
        },
    );
    let mut factory = RequestFactory::new(WorkloadSpec::ycsb_a(10_000, 64), 64);
    // Direct calls first: one pass to warm up, one for the baseline.
    let mut direct_pass = |t: &mut Box<dyn Transport>| {
        let t0 = t.now(0);
        for _ in 0..CALLS {
            let r = factory.make(t.now(0), None);
            t.call(0, &r).expect("direct call");
        }
        (t.now(0) - t0) as f64 / CALLS as f64
    };
    direct_pass(rt.inner_mut());
    let direct = direct_pass(rt.inner_mut());
    // `(cycles, VMFUNCs)` per call with `frames` behind each doorbell.
    let mut saturated = |frames: usize| {
        let vmfuncs = |rt: &RingTransport<Box<dyn Transport>>| {
            rt.inner().pmu().expect("simulated hardware").vmfuncs
        };
        let (t0, v0) = (rt.now(0), vmfuncs(&rt));
        for _ in 0..CALLS / frames as u64 {
            for _ in 0..frames {
                let r = factory.make(rt.now(0), None);
                rt.submit(0, &r).expect("ring slot");
            }
            rt.doorbell(0);
            while let Some(c) = rt.pop_completion(0) {
                c.result.expect("frame served");
            }
        }
        (
            (rt.now(0) - t0) as f64 / CALLS as f64,
            (vmfuncs(&rt) - v0) as f64 / CALLS as f64,
        )
    };
    let (one_cycles, one_vmfuncs) = saturated(1);
    let (batch_cycles, batch_vmfuncs) = saturated(BUDGET);
    println!("cycles/call: direct {direct}, batch of one {one_cycles}, of {BUDGET} {batch_cycles}");
    assert_eq!(one_vmfuncs, 2.0, "a doorbell of one is one round trip");
    assert_eq!(
        batch_vmfuncs,
        2.0 / BUDGET as f64,
        "one round trip per batch"
    );
    assert!(
        batch_cycles < one_cycles && batch_cycles < direct,
        "batch of {BUDGET}: {batch_cycles} cycles/call; batch of one {one_cycles}; direct {direct}"
    );
}
