//! Fault-injection integration tests: every injected fault has a
//! detection point and a recovery path, and the ledger closes (no leaks).

use sb_faultplane::{FaultHandle, FaultMix, FaultPoint};
use sb_microkernel::{layout, Kernel, KernelConfig, Personality, ProcessId, ThreadId};
use sb_sim::Cycles;
use skybridge::{api::HandlerCtx, HandlerReply, SbError, SkyBridge, Violation};

fn clean_code() -> Vec<u8> {
    sb_rewriter::corpus::generate(21, 4096, 0)
}

struct Rig {
    k: Kernel,
    sb: SkyBridge,
    client: ThreadId,
    server: skybridge::ServerId,
}

/// The request the rig's server answers with one byte more than the
/// shared buffer holds.
const OVERSIZED: &[u8] = b"big";

/// One client bound to one echo server, with `faults` attached *after*
/// setup so registration itself runs clean. The server echoes every
/// request but [`OVERSIZED`].
fn rig(faults: FaultHandle) -> Rig {
    let mut k = Kernel::boot(KernelConfig::with_rootkernel(Personality::sel4()));
    let mut sb = SkyBridge::new();
    let cp = k.create_process(&clean_code());
    let sp = k.create_process(&clean_code());
    let client = k.create_thread(cp, 0);
    let server_tid = k.create_thread(sp, 0);
    let server = sb
        .register_server(
            &mut k,
            server_tid,
            8,
            128,
            Box::new(|_, _, _: HandlerCtx, req| {
                Ok(if req == OVERSIZED {
                    vec![0; layout::SB_SHARED_BUF_SIZE + 1].into()
                } else {
                    HandlerReply::Echo
                })
            }),
        )
        .unwrap();
    sb.register_client(&mut k, client, server).unwrap();
    k.run_thread(client);
    sb.attach_faults(faults);
    Rig {
        k,
        sb,
        client,
        server,
    }
}

#[test]
fn injected_panic_kills_server_and_rebind_recovers() {
    let h = FaultHandle::new(7, FaultMix::none().with(FaultPoint::HandlerPanic, 10_000));
    let mut r = rig(h.clone());
    match r.sb.direct_server_call(&mut r.k, r.client, r.server, b"x") {
        Err(SbError::ServerDead { server }) => assert_eq!(server, r.server),
        other => panic!("expected ServerDead, got {other:?}"),
    }
    assert!(r.sb.server_dead(r.server));
    assert!(r
        .sb
        .violations
        .iter()
        .any(|v| matches!(v, Violation::ServerCrash { .. })));
    // While dead, calls keep refusing without opening new fault instances.
    assert!(matches!(
        r.sb.direct_server_call(&mut r.k, r.client, r.server, b"x"),
        Err(SbError::ServerDead { .. })
    ));
    assert_eq!(h.injected_at(FaultPoint::HandlerPanic), 1);

    // Recovery: unbind, revive, rebind, retry (injection off so the retry
    // itself isn't re-killed).
    h.disarm();
    let client_pid = 0;
    assert!(r.sb.unbind_client(client_pid, r.server));
    r.sb.revive_server(&mut r.k, r.server);
    r.sb.register_client(&mut r.k, r.client, r.server).unwrap();
    r.k.run_thread(r.client);
    let (reply, _) =
        r.sb.direct_server_call(&mut r.k, r.client, r.server, b"back")
            .unwrap();
    assert_eq!(&reply, b"back");
    let report = h.report();
    assert_eq!(report.leaked(), 0, "{report}");
    assert_eq!(report.recovered(), 1);
}

#[test]
fn injected_key_corruption_is_refused_then_retried() {
    let h = FaultHandle::new(3, FaultMix::none().with(FaultPoint::KeyCorrupt, 10_000));
    let mut r = rig(h.clone());
    match r.sb.direct_server_call(&mut r.k, r.client, r.server, b"x") {
        Err(SbError::BadServerKey) => {}
        other => panic!("expected BadServerKey, got {other:?}"),
    }
    assert!(r
        .sb
        .violations
        .iter()
        .any(|v| matches!(v, Violation::BadServerKey { .. })));
    // The retry presents the granted key again; with injection off it
    // completes and closes the ledger.
    h.disarm();
    let (reply, _) =
        r.sb.direct_server_call(&mut r.k, r.client, r.server, b"ok")
            .unwrap();
    assert_eq!(&reply, b"ok");
    let report = h.report();
    assert_eq!((report.injected(), report.leaked()), (1, 0), "{report}");
}

#[test]
fn injected_eptp_eviction_faults_and_repairs_in_call() {
    let h = FaultHandle::new(13, FaultMix::none().with(FaultPoint::EptpEvict, 10_000));
    let mut r = rig(h.clone());
    let exits_before = r.k.rootkernel.as_ref().unwrap().exits.total();
    // The call succeeds despite every VMFUNC losing its slot: each one
    // takes the fault + reinstall + retry path.
    let (reply, _) =
        r.sb.direct_server_call(&mut r.k, r.client, r.server, b"evict")
            .unwrap();
    assert_eq!(&reply, b"evict");
    assert!(
        r.k.rootkernel.as_ref().unwrap().exits.total() > exits_before,
        "the stale slot must really exit to the Rootkernel"
    );
    let report = h.report();
    assert!(report.injected() >= 1);
    assert_eq!(report.leaked(), 0, "{report}");
    assert_eq!(report.recovered(), report.injected());
}

#[test]
fn injected_hang_trips_the_timeout_budget() {
    let h = FaultHandle::new(5, FaultMix::none().with(FaultPoint::HandlerHang, 10_000));
    let mut r = rig(h.clone());
    r.sb.timeout = Some(10_000);
    match r.sb.direct_server_call(&mut r.k, r.client, r.server, b"x") {
        Err(SbError::Timeout { server, elapsed }) => {
            assert_eq!(server, r.server);
            assert!(elapsed > 10_000);
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    let report = h.report();
    assert_eq!((report.injected(), report.leaked()), (1, 0), "{report}");

    // Without a timeout budget the hang is not injectable at all.
    let h2 = FaultHandle::new(5, FaultMix::none().with(FaultPoint::HandlerHang, 10_000));
    let mut r2 = rig(h2.clone());
    r2.sb.timeout = None;
    r2.sb
        .direct_server_call(&mut r2.k, r2.client, r2.server, b"x")
        .unwrap();
    assert_eq!(h2.report().injected(), 0);
}

#[test]
fn injected_slot_exhaustion_refuses_then_rebind_succeeds() {
    let h = FaultHandle::new(2, FaultMix::none().with(FaultPoint::BufferExhaust, 10_000));
    let mut r = rig(h.clone());
    let cp = r.k.create_process(&clean_code());
    let ct = r.k.create_thread(cp, 0);
    assert!(matches!(
        r.sb.register_client(&mut r.k, ct, r.server),
        Err(SbError::NoFreeConnection)
    ));
    h.disarm();
    r.sb.register_client(&mut r.k, ct, r.server).unwrap();
    let report = h.report();
    assert_eq!((report.injected(), report.leaked()), (1, 0), "{report}");
}

#[test]
fn unbind_returns_the_connection_slot() {
    let h = FaultHandle::new(1, FaultMix::none());
    let mut r = rig(h);
    // The rig's server allows 8 connections; cycle far more clients than
    // that through bind → unbind to prove slots are reclaimed.
    for i in 0..20 {
        let cp = r.k.create_process(&clean_code());
        let ct = r.k.create_thread(cp, 0);
        r.sb.register_client(&mut r.k, ct, r.server)
            .unwrap_or_else(|e| panic!("bind {i} refused: {e}"));
        let pid = r.k.threads[ct].process;
        assert!(r.sb.unbind_client(pid, r.server));
    }
}

impl Rig {
    /// The caller's EPT root and its identity-page entry.
    fn home(&mut self) -> (u64, Option<ProcessId>) {
        let core = self.k.threads[self.client].core;
        (
            self.k.machine.cpu(core).ept_root,
            self.k.identity_current(core),
        )
    }
}

/// What a refused crossing leaves behind. The direct call and the
/// batched crossing must leave the same.
#[derive(Debug, PartialEq)]
struct Aftermath {
    error: String,
    violations: Vec<Violation>,
    ledger: String,
    call_count: u64,
    home: (u64, Option<ProcessId>),
}

impl Aftermath {
    fn of(r: &mut Rig, error: SbError, h: &FaultHandle) -> Self {
        Aftermath {
            error: format!("{error:?}"),
            violations: r.sb.violations.clone(),
            ledger: format!("{:?}", h.report().rows),
            call_count: r.sb.call_count,
            home: r.home(),
        }
    }
}

/// `clean` direct calls, then `h` attached and the failing call `last`.
fn direct_exit(h: &FaultHandle, timeout: Option<Cycles>, clean: u64, last: &[u8]) -> Aftermath {
    let mut r = rig(FaultHandle::new(0, FaultMix::none()));
    r.sb.timeout = timeout;
    let home = r.home();
    for _ in 0..clean {
        r.sb.direct_server_call(&mut r.k, r.client, r.server, b"fine")
            .unwrap();
    }
    r.sb.attach_faults(h.clone());
    let e =
        r.sb.direct_server_call(&mut r.k, r.client, r.server, last)
            .expect_err("the last call is refused");
    let after = Aftermath::of(&mut r, e, h);
    assert_eq!(after.home, home, "the caller is back on its own EPT");
    assert_eq!(after.call_count, clean);
    after
}

/// One batched crossing: `h` attached after `clean` frames (before
/// `batch_begin` when `clean` is 0), then the failing frame `last`.
fn batch_exit(h: &FaultHandle, timeout: Option<Cycles>, clean: u64, last: &[u8]) -> Aftermath {
    let mut r = rig(FaultHandle::new(0, FaultMix::none()));
    r.sb.timeout = timeout;
    let home = r.home();
    if clean == 0 {
        r.sb.attach_faults(h.clone());
    }
    let e = match r.sb.batch_begin(&mut r.k, r.client, r.server) {
        Err(e) => e,
        Ok(mut s) => {
            for corr in 0..clean {
                r.sb.batch_serve(&mut r.k, &mut s, b"fine", corr).unwrap();
            }
            r.sb.attach_faults(h.clone());
            let e =
                r.sb.batch_serve(&mut r.k, &mut s, last, clean)
                    .expect_err("the last frame is refused");
            assert!(!s.is_open(), "a refused frame closes the crossing");
            r.sb.batch_end(&mut r.k, s).unwrap();
            e
        }
    };
    let after = Aftermath::of(&mut r, e, h);
    assert_eq!(after.home, home, "the caller is back on its own EPT");
    assert_eq!(after.call_count, clean, "only completed frames count");
    after
}

#[test]
fn a_key_refused_at_batch_begin_ends_like_the_direct_call() {
    let mix = FaultMix::none().with(FaultPoint::KeyCorrupt, 10_000);
    let direct = direct_exit(&FaultHandle::new(3, mix.clone()), None, 0, b"x");
    let batched = batch_exit(&FaultHandle::new(3, mix), None, 0, b"x");
    assert_eq!(batched, direct);
    assert_eq!(batched.error, "BadServerKey");
    assert!(matches!(
        batched.violations[..],
        [Violation::BadServerKey { .. }]
    ));
}

#[test]
fn a_handler_panic_mid_batch_ends_like_the_direct_call() {
    let mix = FaultMix::none().with(FaultPoint::HandlerPanic, 10_000);
    let direct = direct_exit(&FaultHandle::new(7, mix.clone()), None, 2, b"x");
    let batched = batch_exit(&FaultHandle::new(7, mix), None, 2, b"x");
    assert_eq!(batched, direct);
    assert!(batched.error.starts_with("ServerDead"), "{}", batched.error);
    assert!(matches!(
        batched.violations[..],
        [Violation::ServerCrash { .. }]
    ));
}

#[test]
fn a_hang_mid_batch_ends_like_the_direct_call() {
    let mix = FaultMix::none().with(FaultPoint::HandlerHang, 10_000);
    let direct = direct_exit(&FaultHandle::new(5, mix.clone()), Some(10_000), 2, b"x");
    let batched = batch_exit(&FaultHandle::new(5, mix), Some(10_000), 2, b"x");
    assert_eq!(batched, direct);
    assert!(batched.error.starts_with("Timeout"), "{}", batched.error);
    assert!(matches!(
        batched.violations[..],
        [Violation::Timeout { .. }]
    ));
}

#[test]
fn an_oversized_reply_mid_batch_ends_like_the_direct_call() {
    let none = FaultMix::none();
    let direct = direct_exit(&FaultHandle::new(1, none.clone()), None, 2, OVERSIZED);
    let batched = batch_exit(&FaultHandle::new(1, none), None, 2, OVERSIZED);
    assert_eq!(batched, direct);
    assert_eq!(batched.error, "MessageTooLarge");
    assert!(batched.violations.is_empty());
}
