//! Differential testing across the five IPC personalities.
//!
//! The transports implement one service contract — echo: the reply
//! equals the request's payload bytes — over five personalities (seL4,
//! Fiasco.OC, Zircon kernel IPC, SkyBridge direct server calls, MPK
//! protection-key crossings). Feeding the *same* request trace through
//! all five must yield byte-identical payloads and identical completion
//! counts; any divergence means a transport corrupted, dropped, or
//! reordered a message.

use proptest::prelude::*;
use sb_runtime::{Request, RingConfig, RingTransport, RuntimeConfig, ServerRuntime, Transport};
use skybridge_repro::scenarios::runtime::{build_backend, request_factory, Backend};

fn transports(workers: usize) -> Vec<Box<dyn Transport>> {
    Backend::all()
        .iter()
        .map(|t| build_backend(t, workers))
        .collect()
}

/// One call through `t`, returning the reply bytes (owned, for
/// cross-transport comparison — the transport itself served them in
/// place).
fn call_for_reply(t: &mut dyn Transport, w: usize, r: &Request) -> Vec<u8> {
    t.call(w, r)
        .unwrap_or_else(|err| panic!("{}: call failed: {err:?}", t.label()));
    t.reply(w).to_vec()
}

fn req(id: u64, key: u64, write: bool, payload: usize) -> Request {
    Request {
        id,
        arrival: 0,
        key,
        write,
        payload,
        client: None,
        tenant: 0,
    }
}

/// A fixed mixed trace through every personality: reply bytes must agree
/// across all five and equal the echo of the request.
#[test]
fn fixed_trace_replies_are_byte_identical() {
    let mut es = transports(2);
    let trace: Vec<Request> = (0..48)
        .map(|i| req(i, i * 7 + 3, i % 3 == 0, 16 + (i as usize % 4) * 48))
        .collect();
    for r in &trace {
        let w = (r.id % 2) as usize;
        let mut replies = Vec::new();
        for e in es.iter_mut() {
            let reply = call_for_reply(e.as_mut(), w, r);
            assert_eq!(
                reply,
                r.encode(),
                "{}: reply must echo the request bytes",
                e.label()
            );
            replies.push(reply);
        }
        assert!(
            replies.windows(2).all(|w| w[0] == w[1]),
            "request {}: personalities disagree on the reply bytes",
            r.id
        );
    }
}

/// The same YCSB-driven run through every personality's dispatcher
/// completes the same number of requests.
#[test]
fn same_trace_same_completion_counts() {
    let arrivals: Vec<u64> = (0..120u64).map(|i| i * 9_000).collect();
    let mut counts = Vec::new();
    for t in Backend::all() {
        let mut e = build_backend(&t, 2);
        let mut factory = request_factory();
        let s = ServerRuntime::new(e.as_mut(), RuntimeConfig::default())
            .run_open_loop(arrivals.clone(), &mut factory);
        assert!(s.conserved(), "{}: conservation", t.label());
        counts.push((t.label().to_string(), s.offered, s.completed));
    }
    assert!(
        counts
            .windows(2)
            .all(|w| (w[0].1, w[0].2) == (w[1].1, w[1].2)),
        "personalities diverge on the same trace: {counts:?}"
    );
    assert_eq!(counts[0].1, 120);
}

/// The DoS-timeout budget surfaces identically: with an impossible
/// budget, SkyBridge times every request out; the trap transports (which
/// have no per-call budget machinery) are unaffected. This asymmetry is
/// the paper's §7 design, so the differential check here is that the
/// *request bytes* still match wherever a reply exists.
#[test]
fn replies_agree_even_when_payloads_vary_per_worker() {
    let mut es = transports(2);
    for (i, payload) in [9usize, 64, 200, 256].iter().enumerate() {
        for w in 0..2 {
            let r = req(
                i as u64 * 2 + w as u64,
                0xfeed + i as u64,
                i % 2 == 1,
                *payload,
            );
            let mut replies = Vec::new();
            for e in es.iter_mut() {
                replies.push(call_for_reply(e.as_mut(), w, &r));
            }
            assert!(
                replies.windows(2).all(|p| p[0] == p[1]),
                "payload {payload} worker {w}: divergent replies"
            );
            assert_eq!(replies[0].len(), (*payload).max(9));
        }
    }
}

/// Drives `trace` through a ring in budget-sized batches on one lane
/// and checks, completion by completion, that the reply bytes are
/// byte-identical to serving the same trace through the bare transport
/// — batching the crossing must be invisible to payloads, ordering,
/// and correlation.
fn assert_ring_matches_direct(
    backend: &Backend,
    direct: &mut dyn Transport,
    ring: &mut RingTransport<Box<dyn Transport>>,
    trace: &[Request],
) {
    let budget = ring.config().batch_budget;
    for chunk in trace.chunks(budget) {
        for r in chunk {
            ring.submit(0, r).expect("ring slot");
        }
        ring.doorbell(0);
        for r in chunk {
            let c = ring
                .pop_completion(0)
                .expect("exactly one completion per submitted frame");
            assert_eq!(
                c.corr,
                r.id,
                "{}: completions must arrive in submission order",
                backend.label()
            );
            assert!(!c.expired);
            c.result
                .unwrap_or_else(|e| panic!("{}: ring call failed: {e:?}", backend.label()));
            let ring_reply = ring.completion_reply(0).to_vec();
            let direct_reply = call_for_reply(direct, 0, r);
            assert_eq!(
                ring_reply,
                direct_reply,
                "{}: ring and direct replies diverge on request {}",
                backend.label(),
                r.id
            );
            assert_eq!(ring_reply, r.encode(), "echo contract broken");
        }
    }
    assert_eq!(ring.cq_len(0), 0, "no surplus completions");
    assert_eq!(ring.sq_len(0), 0, "no abandoned frames");
}

fn ring_for(
    backend: &Backend,
    capacity: usize,
    budget: usize,
) -> RingTransport<Box<dyn Transport>> {
    RingTransport::new(
        build_backend(backend, 1),
        RingConfig {
            capacity,
            batch_budget: budget,
            slot_bytes: 4096,
        },
    )
}

/// A fixed single-lane trace through every personality's ring: byte
/// identity with direct mode, frame for frame.
#[test]
fn ring_batches_match_direct_replies_on_fixed_trace() {
    for backend in Backend::all() {
        let mut direct = build_backend(&backend, 1);
        let mut ring = ring_for(&backend, 64, 6);
        let trace: Vec<Request> = (0..48)
            .map(|i| req(100 + i, i * 7 + 3, i % 3 == 0, 16 + (i as usize % 4) * 48))
            .collect();
        assert_ring_matches_direct(&backend, direct.as_mut(), &mut ring, &trace);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary traces (keys, op mix, payload sizes, worker pinning)
    /// produce byte-identical replies on every personality.
    #[test]
    fn arbitrary_traces_are_transport_invariant(
        ops in proptest::collection::vec(
            (0u64..1_000_000, any::<bool>(), 9usize..256, 0usize..2),
            1..24,
        ),
    ) {
        let mut es = transports(2);
        for (i, (key, write, payload, worker)) in ops.iter().enumerate() {
            let r = req(i as u64, *key, *write, *payload);
            let mut replies = Vec::new();
            for e in es.iter_mut() {
                let reply = call_for_reply(e.as_mut(), *worker, &r);
                prop_assert_eq!(&reply, &r.encode(), "echo contract broken");
                replies.push(reply);
            }
            prop_assert!(
                replies.windows(2).all(|w| w[0] == w[1]),
                "op {}: personalities disagree",
                i
            );
        }
    }

    /// Generated traces under generated batch budgets stay
    /// byte-identical between ring and direct mode on every
    /// personality — including budget 1 (degenerate batching) and
    /// budgets larger than the trace.
    #[test]
    fn arbitrary_ring_traces_match_direct(
        ops in proptest::collection::vec(
            (0u64..1_000_000, any::<bool>(), 9usize..256),
            1..24,
        ),
        budget in 1usize..12,
    ) {
        let trace: Vec<Request> = ops
            .iter()
            .enumerate()
            .map(|(i, (key, write, payload))| req(i as u64, *key, *write, *payload))
            .collect();
        for backend in Backend::all() {
            let mut direct = build_backend(&backend, 1);
            let mut ring = ring_for(&backend, 32, budget);
            assert_ring_matches_direct(&backend, direct.as_mut(), &mut ring, &trace);
        }
    }
}
