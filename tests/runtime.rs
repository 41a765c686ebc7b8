//! Serving-runtime integration tests: saturation ordering, shared-buffer
//! exhaustion, and backpressure invariants.

use proptest::prelude::*;
use sb_microkernel::Personality;
use sb_runtime::{
    AdmissionPolicy, CallError, FixedServiceTransport, MpkTransport, Request, RequestFactory,
    RingConfig, RingRuntime, RingTransport, RunStats, RuntimeConfig, ServerRuntime, ServiceSpec,
    SkyBridgeTransport, Transport, TrapIpcTransport,
};
use sb_ycsb::WorkloadSpec;
use skybridge::SbError;
use skybridge_repro::scenarios::runtime::{run_open_loop, Backend, ServingScenario};

fn shed_cfg(queue_capacity: usize) -> RuntimeConfig {
    RuntimeConfig {
        queue_capacity,
        policy: AdmissionPolicy::Shed,
        queue_deadline: None,
        ..RuntimeConfig::default()
    }
}

/// Walks an ascending geometric ladder of offered rates (20% steps,
/// shared across transports) and returns the first rate, in requests per
/// Mcycle, at which the runtime sheds.
fn first_shed_rate(transport: &Backend) -> f64 {
    let workers = 2;
    let requests = 600;
    let mut mean_ia = 16_384.0;
    for rung in 0..24u64 {
        let s = run_open_loop(
            ServingScenario::Kv,
            transport,
            workers,
            shed_cfg(8),
            mean_ia,
            requests,
            0x5eed_0000 + rung,
        );
        assert_eq!(
            s.offered,
            s.completed + s.shed() + s.timed_out + s.failed,
            "{}: request conservation",
            transport.label()
        );
        if s.shed() > 0 {
            return 1e6 / mean_ia;
        }
        mean_ia *= 0.8;
    }
    panic!(
        "{} never shed down to a {mean_ia:.0}-cycle inter-arrival gap",
        transport.label()
    );
}

/// The headline serving claim: SkyBridge saturates at a strictly higher
/// offered load than every trap-based personality, on the same ladder,
/// the same workload, and the same worker count.
#[test]
fn skybridge_saturates_after_every_trap_kernel() {
    let sky = first_shed_rate(&Backend::SkyBridge);
    for p in Personality::all() {
        let name = p.name;
        let trap = first_shed_rate(&Backend::Trap(p));
        assert!(
            sky > trap,
            "SkyBridge first shed at {sky:.1}/Mcycle must exceed {name}'s {trap:.1}/Mcycle"
        );
    }
}

/// §4.4: connections (shared buffers + server stacks) bound concurrency.
/// Asking for more in-flight clients than the server registered worker
/// slots for must fail cleanly — an `SbError::NoFreeConnection`, never a
/// panic — and must not corrupt the already-bound workers.
#[test]
fn shared_buffer_exhaustion_fails_cleanly() {
    let mut e = SkyBridgeTransport::new(3, &ServiceSpec::default());
    for attempt in 0..3 {
        match e.try_extra_client() {
            Err(SbError::NoFreeConnection) => {}
            other => panic!("attempt {attempt}: expected NoFreeConnection, got {other:?}"),
        }
    }
    // The bound workers still serve after the failed registrations.
    for w in 0..3 {
        let req = Request {
            id: w as u64,
            arrival: 0,
            key: w as u64,
            write: w % 2 == 0,
            payload: 64,
            client: None,
            tenant: 0,
        };
        e.call(w, &req).expect("existing connections unharmed");
    }
}

/// A burst deeper than the worker pool queues rather than failing: the
/// dispatcher never puts more calls in flight than there are connection
/// slots, so buffer exhaustion cannot be triggered from the arrival side.
#[test]
fn burst_deeper_than_worker_pool_queues_without_errors() {
    let transport = Backend::SkyBridge;
    let s = run_open_loop(
        ServingScenario::Kv,
        &transport,
        2,
        shed_cfg(64),
        1.0, // Everything arrives nearly at once: a 50-deep burst on 2 workers.
        50,
        7,
    );
    assert_eq!(s.completed, 50);
    assert_eq!(s.failed, 0);
    assert!(s.max_queue_depth > 2, "the burst must actually queue");
}

/// The per-call DoS budget (§7) surfaces through the runtime as a
/// timeout outcome, not a failure, and carries the handler's cycles.
#[test]
fn dos_timeout_budget_counts_as_timed_out() {
    let spec = ServiceSpec {
        timeout: Some(1),
        ..ServiceSpec::default()
    };
    let mut e = SkyBridgeTransport::new(1, &spec);
    let req = Request {
        id: 0,
        arrival: 0,
        key: 1,
        write: false,
        payload: 64,
        client: None,
        tenant: 0,
    };
    match e.call(0, &req) {
        Err(CallError::Timeout { elapsed }) => assert!(elapsed > 1),
        other => panic!("expected timeout, got {other:?}"),
    }
    let mut factory = RequestFactory::new(WorkloadSpec::ycsb_a(1000, 64), 64);
    let s = ServerRuntime::new(&mut e, shed_cfg(16)).run_open_loop(vec![0, 10, 20], &mut factory);
    assert_eq!(s.timed_out, 3);
    assert_eq!(s.completed, 0);
    assert_eq!(s.offered, 3);
}

/// The deadline-expiry race, parameterized over the dispatch mode:
/// the direct queue and the asynchronous rings — across batch-budget
/// shapes — must agree that expiry is free. An expired request burns
/// zero service cycles whether it is reaped at the queue head or swept
/// out of a batch cut, and conservation holds in every mode.
#[test]
fn deadline_expiry_burns_no_service_in_any_mode() {
    const SERVICE: u64 = 10_000;
    let arrivals: Vec<u64> = (0..30u64).map(|i| i * 50).collect();
    let cfg = || RuntimeConfig {
        queue_capacity: 1,
        policy: AdmissionPolicy::Shed,
        queue_deadline: Some(100),
        ..RuntimeConfig::default()
    };
    let factory = || RequestFactory::new(WorkloadSpec::ycsb_a(1_000, 64), 64);
    let check = |mode: &str, s: RunStats| {
        assert_eq!(
            s.offered,
            s.completed + s.shed_queue_full + s.shed_deadline + s.timed_out + s.failed,
            "{mode}: conservation: {s:?}"
        );
        assert!(s.shed_deadline > 0, "{mode}: queued requests must expire");
        assert!(s.completed >= 1, "{mode}: the first request starts in time");
        assert_eq!(
            s.busy[0],
            s.completed * SERVICE,
            "{mode}: expired requests must burn no service time"
        );
    };
    // Direct mode: expiry is reaped at the queue head.
    let mut e = FixedServiceTransport::new(1, SERVICE);
    check(
        "direct",
        ServerRuntime::new(&mut e, cfg()).run_open_loop(arrivals.clone(), &mut factory()),
    );
    // Ring mode: expiry is swept out of the batch cut — degenerate
    // (capacity 1), partial, and full-ring budget shapes.
    for (capacity, budget) in [(1usize, 1usize), (4, 2), (8, 8)] {
        let mut rt = RingTransport::new(
            FixedServiceTransport::new(1, SERVICE),
            RingConfig {
                capacity,
                batch_budget: budget,
                slot_bytes: 4096,
            },
        );
        let s = RingRuntime::new(&mut rt, cfg()).run_open_loop(arrivals.clone(), &mut factory());
        check(&format!("ring capacity={capacity} budget={budget}"), s);
    }
}

proptest! {
    /// Backpressure invariants over arbitrary arrival sequences, Shed
    /// policy: every request is accounted for exactly once, and the
    /// queue bound is never exceeded.
    #[test]
    fn shed_policy_conserves_and_bounds_queue(
        gaps in proptest::collection::vec(0u64..2_000, 1..160),
        service in 1u64..5_000,
        workers in 1usize..5,
        capacity in 1usize..24,
    ) {
        let arrivals: Vec<u64> = gaps
            .iter()
            .scan(0u64, |t, g| {
                *t += g;
                Some(*t)
            })
            .collect();
        let offered = arrivals.len() as u64;
        let mut engine = FixedServiceTransport::new(workers, service);
        let mut factory = RequestFactory::new(WorkloadSpec::ycsb_a(1_000, 64), 64);
        let mut rt = ServerRuntime::new(&mut engine, shed_cfg(capacity));
        let s = rt.run_open_loop(arrivals, &mut factory);
        prop_assert_eq!(s.offered, offered);
        prop_assert_eq!(s.offered, s.completed + s.shed_queue_full);
        prop_assert!(s.max_queue_depth <= capacity);
        prop_assert_eq!(s.timed_out, 0);
        prop_assert_eq!(s.failed, 0);
    }

    /// Under the Block policy nothing is ever shed: admission waits for a
    /// slot instead, so every offered request completes.
    #[test]
    fn block_policy_never_sheds(
        gaps in proptest::collection::vec(0u64..500, 1..120),
        service in 1u64..5_000,
        capacity in 1usize..8,
    ) {
        let arrivals: Vec<u64> = gaps
            .iter()
            .scan(0u64, |t, g| {
                *t += g;
                Some(*t)
            })
            .collect();
        let offered = arrivals.len() as u64;
        let mut engine = FixedServiceTransport::new(1, service);
        let mut factory = RequestFactory::new(WorkloadSpec::ycsb_a(1_000, 64), 64);
        let cfg = RuntimeConfig {
            queue_capacity: capacity,
            policy: AdmissionPolicy::Block,
            queue_deadline: None,
            ..RuntimeConfig::default()
        };
        let mut rt = ServerRuntime::new(&mut engine, cfg);
        let s = rt.run_open_loop(arrivals, &mut factory);
        prop_assert_eq!(s.shed_queue_full, 0);
        prop_assert_eq!(s.completed, offered);
        prop_assert!(s.max_queue_depth <= capacity);
    }
}

/// `calls` calls on lane 0 from `first`, striding over the default
/// spec's 10 000 records — more pages than a d-TLB holds.
fn call_loop(t: &mut impl Transport, first: u64, calls: u64) {
    for id in first..first + calls {
        let req = Request {
            id,
            arrival: 0,
            key: id * 7919 % 10_000,
            write: id % 4 == 0,
            payload: 64,
            client: None,
            tenant: 0,
        };
        t.call(0, &req).expect("served");
    }
}

/// The walk memo (DESIGN.md §19) must not be able to die silently —
/// see `tests/graph.rs` for the graph. On one SkyBridge and one trap
/// connection, once warm, over 10 000 further calls: no walk recorded,
/// none voided, and every walk the PMU counted answered by the memo.
#[test]
fn the_walk_memo_answers_every_steady_state_walk_of_a_connection() {
    fn check<T: Transport>(mut t: T, kernel: impl Fn(&T) -> &sb_microkernel::Kernel) {
        let label = t.label().to_string();
        call_loop(&mut t, 0, 2_000);
        let k = kernel(&t);
        let (warm, walks) = (k.mem.walk_memo_stats(), k.machine.pmu_total().page_walks);
        call_loop(&mut t, 2_000, 10_000);
        let k = kernel(&t);
        let now = k.mem.walk_memo_stats();
        let walked = k.machine.pmu_total().page_walks - walks;
        assert!(walked > 1_000, "{label}: {walked} walks");
        assert_eq!(
            (now.installed, now.invalidated),
            (warm.installed, warm.invalidated),
            "{label}: the memo recorded or voided a walk in steady state"
        );
        assert_eq!(now.answered - warm.answered, walked, "{label}");
    }
    let spec = ServiceSpec::default();
    check(SkyBridgeTransport::new(1, &spec), |t| &t.k);
    check(TrapIpcTransport::new(Personality::sel4(), 1, &spec), |t| {
        &t.k
    });
}

/// Host memory follows the bytes the simulation writes (DESIGN.md §19):
/// the record heap is allocated but only ever touched, so a table ten
/// times larger costs the host only the leaf page tables that map it —
/// one frame per 512 pages — and no record frame. The same 3 000 YCSB-A
/// calls, updates included, on a SkyBridge and a trap connection over
/// 10 000 and 100 000 records; were allocation or a record update to
/// materialise a frame, the larger table would hold one more per 64
/// records.
#[test]
fn residency_does_not_scale_with_the_record_heap() {
    fn resident<T: Transport>(mut t: T, kernel: impl Fn(&T) -> &sb_microkernel::Kernel) -> usize {
        let mut factory = RequestFactory::new(WorkloadSpec::ycsb_a(10_000, 64), 64);
        let mut updates = 0;
        for _ in 0..3_000 {
            let req = factory.make(0, None);
            updates += req.write as usize;
            t.call(0, &req).expect("served");
        }
        assert!(updates > 1_000, "{updates} updates");
        kernel(&t).mem.resident_frames()
    }
    let (small, large) = (
        ServiceSpec::default(),
        ServiceSpec::default().with_records(100_000),
    );
    let tables = large.data_pages().div_ceil(512) - small.data_pages().div_ceil(512);
    assert_eq!(
        resident(SkyBridgeTransport::new(1, &large), |t| &t.k),
        resident(SkyBridgeTransport::new(1, &small), |t| &t.k) + tables,
        "skybridge"
    );
    let trap = |spec| TrapIpcTransport::new(Personality::sel4(), 1, spec);
    assert_eq!(
        resident(trap(&large), |t| &t.k),
        resident(trap(&small), |t| &t.k) + tables,
        "sel4"
    );
}

/// The same on traffic that walks in earnest: the SkyBridge KV pipeline
/// at 64-byte keys and values, ≈ 16 nested walks per operation (three
/// processes' scratch pages thrash the 64-entry d-TLB — Table 1's
/// point). Over 2 000 warm operations nothing is voided and every walk
/// is answered, bar the first touch of each page the inserts grow the
/// store into (under 1 %: a memo losing hot pages to slot conflicts
/// would re-install on every one of them).
#[test]
fn the_walk_memo_answers_the_kv_pipelines_walks() {
    use skybridge_repro::scenarios::kv::{KvMode, KvPipeline};
    const OPS: usize = 2_000;
    let mut p = KvPipeline::new(KvMode::SkyBridge, 64, 512 + OPS);
    p.run_ops(512);
    let warm = p.k.mem.walk_memo_stats();
    let walked = p.run_ops(OPS).pmu.page_walks;
    let now = p.k.mem.walk_memo_stats();
    assert!(walked > 10 * OPS as u64, "{walked} walks");
    assert_eq!(now.invalidated, warm.invalidated, "a walk was voided");
    let (answered, installed) = (now.answered - warm.answered, now.installed - warm.installed);
    assert_eq!(answered + installed, walked);
    assert!(
        installed * 100 < walked,
        "{installed} of {walked} walks recorded anew"
    );
}

fn req(id: u64, key: u64, write: bool) -> Request {
    Request {
        id,
        arrival: 0,
        key,
        write,
        payload: 64,
        client: None,
        tenant: 0,
    }
}

#[test]
fn trap_ipc_costs_more_than_skybridge_per_call() {
    // The headline claim, at the transport level: one request
    // through sel4's kernel IPC costs more cycles than the same
    // request through a direct server call.
    let spec = ServiceSpec::default();
    let mut trap = TrapIpcTransport::new(Personality::sel4(), 1, &spec);
    let mut sky = SkyBridgeTransport::new(1, &spec);
    // Warm both, then measure.
    for t in [&mut trap as &mut dyn Transport, &mut sky] {
        for i in 0..32 {
            t.call(0, &req(0, i, i % 2 == 0)).unwrap();
        }
    }
    let measure = |t: &mut dyn Transport| {
        let t0 = t.now(0);
        for i in 0..64 {
            t.call(0, &req(0, i, i % 2 == 0)).unwrap();
        }
        (t.now(0) - t0) / 64
    };
    let trap_avg = measure(&mut trap);
    let sky_avg = measure(&mut sky);
    assert!(
        sky_avg < trap_avg,
        "skybridge {sky_avg} must beat trap IPC {trap_avg}"
    );
}

#[test]
fn mpk_crossing_beats_skybridge_and_trap_per_call() {
    // The fifth personality's headline, at the transport level: two
    // WRPKRU flips (2 × 28 cycles in the model) undercut SkyBridge's
    // VMFUNC round trip, which in turn undercuts kernel IPC — on
    // identical service work.
    let spec = ServiceSpec::default();
    let mut mpk = MpkTransport::new(1, &spec);
    let mut sky = SkyBridgeTransport::new(1, &spec);
    let mut trap = TrapIpcTransport::new(Personality::sel4(), 1, &spec);
    for t in [
        &mut mpk as &mut dyn Transport,
        &mut sky as &mut dyn Transport,
        &mut trap,
    ] {
        for i in 0..32 {
            t.call(0, &req(0, i, i % 2 == 0)).unwrap();
        }
    }
    let measure = |t: &mut dyn Transport| {
        let t0 = t.now(0);
        for i in 0..64 {
            t.call(0, &req(0, i, i % 2 == 0)).unwrap();
        }
        (t.now(0) - t0) / 64
    };
    let mpk_avg = measure(&mut mpk);
    let sky_avg = measure(&mut sky);
    let trap_avg = measure(&mut trap);
    assert!(
        mpk_avg < sky_avg && sky_avg < trap_avg,
        "per-call order must be mpk {mpk_avg} < skybridge {sky_avg} < trap {trap_avg}"
    );
}
