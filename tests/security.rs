//! The §7 security analysis as an executable test suite, driving the
//! whole stack through its public API.

use sb_microkernel::{layout, Kernel, KernelConfig, Personality, ThreadId};
use sb_rewriter::scan::find_occurrences;
use skybridge::{
    attack::{self, AttackOutcome},
    SbError, ServerId, SkyBridge, Violation,
};

struct World {
    k: Kernel,
    sb: SkyBridge,
    victim: ServerId,
    victim_tid: ThreadId,
    client: ThreadId,
}

fn world() -> World {
    let mut k = Kernel::boot(KernelConfig::with_rootkernel(Personality::sel4()));
    let mut sb = SkyBridge::new();
    let vp = k.create_process(&sb_rewriter::corpus::generate(3, 4096, 0));
    let victim_tid = k.create_thread(vp, 0);
    k.run_thread(victim_tid);
    k.user_write(victim_tid, layout::HEAP_BASE, b"victim-secret")
        .unwrap();
    let victim = sb
        .register_server(
            &mut k,
            victim_tid,
            8,
            128,
            Box::new(|_, _, _, _req| Ok(skybridge::HandlerReply::Echo)),
        )
        .unwrap();
    let cp = k.create_process(&sb_rewriter::corpus::generate(4, 4096, 0));
    let client = k.create_thread(cp, 0);
    sb.register_client(&mut k, client, victim).unwrap();
    k.run_thread(client);
    World {
        k,
        sb,
        victim,
        victim_tid,
        client,
    }
}

/// §7 "Malicious EPT switching": registration-time rewriting removes
/// every self-prepared VMFUNC from a malicious image.
#[test]
fn malicious_ept_switching_is_scrubbed() {
    let mut w = world();
    let evil =
        w.k.create_process(&sb_rewriter::corpus::generate(66, 8192, 50));
    let evil_tid = w.k.create_thread(evil, 1);
    w.k.run_thread(evil_tid);
    assert!(
        !find_occurrences(&attack::dump_code(&w.k, evil)).is_empty(),
        "premise: the attacker ships VMFUNC bytes"
    );
    w.sb.register_process(&mut w.k, evil).unwrap();
    assert_eq!(
        attack::self_prepared_vmfunc(&mut w.sb, &mut w.k, evil_tid, 1),
        AttackOutcome::Neutralized {
            occurrences_left: 0
        }
    );
}

/// Without the rewriting defense, the raw primitive *does* reach another
/// address space — demonstrating why the defense is necessary, exactly
/// as SeCage's VMFUNC-faking attack describes.
#[test]
fn without_rewriting_the_attack_primitive_works() {
    let mut w = world();
    // The bound client executes a raw VMFUNC outside the trampoline
    // (simulating unscrubbed bytes). Its EPTP list legitimately holds the
    // victim's binding EPT at slot 1.
    let outcome = attack::raw_vmfunc(&mut w.sb, &mut w.k, w.client, 1);
    assert_eq!(outcome, AttackOutcome::Succeeded);
    // The attacker now reads the victim's heap through its own CR3.
    let mut buf = [0u8; 13];
    w.k.user_read(w.client, layout::HEAP_BASE, &mut buf)
        .unwrap();
    assert_eq!(&buf, b"victim-secret", "the primitive must really work");
    attack::restore_own_ept(&mut w.k, w.client);
}

/// §7 "Malicious server call": a forged calling key is rejected and the
/// Subkernel is notified.
#[test]
fn forged_key_is_rejected_and_reported() {
    let mut w = world();
    let victim = w.victim;
    assert_eq!(
        attack::forged_key_call(&mut w.sb, &mut w.k, w.client, victim),
        AttackOutcome::Neutralized {
            occurrences_left: 0
        }
    );
    assert!(w
        .sb
        .violations
        .iter()
        .any(|v| matches!(v, Violation::BadServerKey { .. })));
}

/// §4.4 return-key check: a server that echoes a wrong client key is
/// refused by the caller's return trampoline, which is back on its own
/// EPT and identity when it refuses. The batched crossing rechecks the
/// key once, when it returns.
#[test]
fn a_forged_echo_is_refused_on_return() {
    let mut w = world();
    let (victim, client) = (w.victim, w.client);
    let core = w.k.threads[client].core;
    let home = (w.k.machine.cpu(core).ept_root, w.k.identity_current(core));
    assert_eq!(
        attack::forged_echo_call(&mut w.sb, &mut w.k, client, victim),
        AttackOutcome::Neutralized {
            occurrences_left: 0
        }
    );
    let refused = Violation::BadClientKey {
        client: w.k.threads[client].process,
        server: victim,
    };
    assert_eq!(w.sb.violations, std::slice::from_ref(&refused));
    assert_eq!(
        (w.k.machine.cpu(core).ept_root, w.k.identity_current(core)),
        home
    );
    assert_eq!(
        w.sb.call_count, 0,
        "a refused reply is not a completed call"
    );

    w.sb.corrupt_echo_key(victim, 1);
    let mut s = w.sb.batch_begin(&mut w.k, client, victim).unwrap();
    w.sb.batch_serve(&mut w.k, &mut s, b"frame", 1).unwrap();
    assert!(matches!(
        w.sb.batch_end(&mut w.k, s),
        Err(SbError::BadClientKey)
    ));
    assert_eq!(w.sb.violations, [refused.clone(), refused]);
    assert_eq!(
        (w.k.machine.cpu(core).ept_root, w.k.identity_current(core)),
        home
    );

    // The honest echo is back: the call completes.
    w.sb.corrupt_echo_key(victim, 0);
    w.sb.direct_server_call(&mut w.k, client, victim, b"ok")
        .unwrap();
}

/// §7 "DoS attacks": the timeout forces control back to the client.
#[test]
fn dos_timeout_returns_control() {
    let mut w = world();
    w.sb.timeout = Some(20_000);
    let hang =
        w.sb.register_server(
            &mut w.k,
            w.victim_tid,
            2,
            64,
            Box::new(|_, k, ctx, _| {
                k.compute(ctx.caller, 5_000_000);
                Ok(vec![].into())
            }),
        )
        .unwrap();
    w.sb.register_client(&mut w.k, w.client, hang).unwrap();
    w.k.run_thread(w.client);
    assert!(matches!(
        w.sb.direct_server_call(&mut w.k, w.client, hang, b"x"),
        Err(SbError::Timeout { .. })
    ));
    // The client still works afterwards.
    let victim = w.victim;
    w.sb.direct_server_call(&mut w.k, w.client, victim, b"ok")
        .unwrap();
}

/// §7 "Meltdown": per-process page tables are retained, so the same GVA
/// resolves to different frames in different processes.
#[test]
fn per_process_page_tables_hold() {
    let mut w = world();
    let mut buf = [0u8; 13];
    w.k.user_read(w.client, layout::HEAP_BASE, &mut buf)
        .unwrap();
    assert_ne!(&buf, b"victim-secret");
}

/// §7 "Refusing to call SkyBridge interface": an unregistered process
/// that executes VMFUNC only faults itself; the rest of the system keeps
/// working.
#[test]
fn refusal_is_self_contained() {
    let mut w = world();
    let loner =
        w.k.create_process(&sb_rewriter::corpus::generate(5, 2048, 0));
    let loner_tid = w.k.create_thread(loner, 2);
    w.k.run_thread(loner_tid);
    assert!(matches!(
        attack::raw_vmfunc(&mut w.sb, &mut w.k, loner_tid, 3),
        AttackOutcome::Faulted(_)
    ));
    // The victim still serves the legitimate client.
    let victim = w.victim;
    w.k.run_thread(w.client);
    let (reply, _) =
        w.sb.direct_server_call(&mut w.k, w.client, victim, b"alive")
            .unwrap();
    assert_eq!(reply, b"alive");
}

/// §4.2 process misidentification: the identity page names the server
/// while a call is in flight, so a kernel entry mid-call serves the right
/// process.
#[test]
fn identity_page_resolves_misidentification() {
    let mut w = world();
    let seen = std::rc::Rc::new(std::cell::Cell::new(usize::MAX));
    let probe_seen = seen.clone();
    let probe =
        w.sb.register_server(
            &mut w.k,
            w.victim_tid,
            2,
            64,
            Box::new(move |_, k, ctx, _| {
                let core = k.core_of(ctx.caller);
                probe_seen.set(k.identity_current(core).unwrap());
                Ok(vec![].into())
            }),
        )
        .unwrap();
    w.sb.register_client(&mut w.k, w.client, probe).unwrap();
    w.k.run_thread(w.client);
    w.sb.direct_server_call(&mut w.k, w.client, probe, b"")
        .unwrap();
    let victim_pid = 0; // First created process.
    assert_eq!(seen.get(), victim_pid);
    let core = w.k.core_of(w.client);
    let client_pid = 1;
    assert_eq!(w.k.identity_current(core), Some(client_pid));
}

/// §7 under the MPK personality: a handler that strays outside its
/// pkey-permitted set faults **deterministically** — every attempt, on
/// the first touched line, with the permitted control path unaffected.
/// Contrast with VMFUNC isolation, where a stray touch faults only
/// because the other space's mappings are absent; here both domains
/// share one address space and the PKRU check alone stands between them.
#[test]
fn mpk_rogue_handler_touch_faults_deterministically() {
    use sb_runtime::{MpkTransport, Request, ServiceSpec, Transport};

    let mut t = MpkTransport::new(2, &ServiceSpec::default());
    for attempt in 0..3 {
        let err = t
            .rogue_handler_touch(0)
            .expect_err("the server domain must not reach client-private memory");
        assert!(err.contains("pkey"), "attempt {attempt}: got {err}");
    }
    // Control: the same region, touched from the domain that owns it.
    t.client_private_touch(0).unwrap();
    // The denied touches left both lanes fully serviceable.
    for lane in 0..2 {
        t.call(
            lane,
            &Request {
                id: 90 + lane as u64,
                arrival: 0,
                key: 7,
                write: false,
                payload: 64,
                client: None,
                tenant: 0,
            },
        )
        .unwrap();
    }
}

/// §7 under the MPK personality: the "forgot to restore PKRU" bug — a
/// server that leaves its rights register stale. The injected episode
/// must be *detected* (the very next call faults on the handler's own
/// records), *recovered* (re-arming the lane), and never leaked.
#[test]
fn mpk_forgotten_pkru_restore_is_caught_and_recovered() {
    use sb_faultplane::{FaultHandle, FaultMix, FaultPoint};
    use sb_runtime::{CallError, Faulty, MpkTransport, Request, ServiceSpec, Transport};

    let req = |id: u64| Request {
        id,
        arrival: 0,
        key: id,
        write: false,
        payload: 64,
        client: None,
        tenant: 0,
    };
    let h = FaultHandle::new(7, FaultMix::none().with(FaultPoint::PkruStale, 10_000));
    let mut t = Faulty::new(
        MpkTransport::new(1, &ServiceSpec::default()),
        h.clone(),
        1_000,
    );
    // The stale rights deny the handler its own records: detection.
    assert!(matches!(t.call(0, &req(0)), Err(CallError::Failed(_))));
    assert_eq!(h.injected_at(FaultPoint::PkruStale), 1);
    // Recovery re-arms the lane; a clean probe proves liveness.
    assert!(t.recover(0));
    h.disarm();
    t.call(0, &req(1)).unwrap();
    let r = h.report();
    assert_eq!(r.detected(), 1, "{r}");
    assert_eq!(r.recovered(), 1, "{r}");
    assert_eq!(r.leaked(), 0, "{r}");
}

/// The trampoline page is the *only* executable VMFUNC in a registered
/// process's address space.
#[test]
fn trampoline_is_the_single_entry_point() {
    let w = world();
    // The client's own image is clean after registration…
    let client_pid = 1;
    let code = attack::dump_code(&w.k, client_pid);
    assert!(find_occurrences(&code).is_empty());
    // …while the kernel-provided trampoline page carries exactly the two
    // legal VMFUNCs (call + return).
    let page = skybridge::trampoline::page_image();
    assert_eq!(find_occurrences(&page).len(), 2);
}

fn null_handler() -> skybridge::Handler {
    Box::new(|_, _, _, _| Ok(skybridge::HandlerReply::Echo))
}

/// A fresh client process with one thread on core 0.
fn new_client(k: &mut Kernel, seed: u64) -> ThreadId {
    let p = k.create_process(&sb_rewriter::corpus::generate(seed, 2048, 0));
    k.create_thread(p, 0)
}

/// Stacks, shared buffers and keys are addressed `(server) *
/// SB_CONNECTIONS + connection`: a server that fills its window — 64
/// connections, the most registration accepts — still ends below the
/// next server's, and a client bound to both sees two buffers.
#[test]
fn a_full_connection_window_stays_clear_of_the_next_servers() {
    let mut w = world();
    let wide =
        w.sb.register_server(
            &mut w.k,
            w.victim_tid,
            layout::SB_CONNECTIONS,
            64,
            null_handler(),
        )
        .expect("a full window is accepted");
    let next =
        w.sb.register_server(&mut w.k, w.victim_tid, 1, 64, null_handler())
            .unwrap();
    assert_eq!(next, wide + 1);
    let mut last = w.client;
    for seed in 0..layout::SB_CONNECTIONS as u64 {
        last = new_client(&mut w.k, 100 + seed);
        w.sb.register_client(&mut w.k, last, wide).unwrap();
    }
    w.sb.register_client(&mut w.k, last, next).unwrap();
    let pid = w.k.threads[last].process;
    let (a, b) = (
        w.sb.binding(pid, wide).unwrap(),
        w.sb.binding(pid, next).unwrap(),
    );
    assert_eq!(
        (a.connection, b.connection),
        (layout::SB_CONNECTIONS - 1, 0)
    );
    assert_eq!(
        a.shared_buf.0 + layout::SB_SHARED_BUF_SIZE as u64,
        b.shared_buf.0,
        "the window's last buffer ends where the next server's first begins"
    );
    assert!(a.server_stack.0 + layout::SB_STACK_SIZE as u64 <= b.server_stack.0);
    // One more client than the window holds is turned away.
    let extra = new_client(&mut w.k, 99);
    assert!(matches!(
        w.sb.register_client(&mut w.k, extra, wide),
        Err(SbError::NoFreeConnection)
    ));
}

/// A 65th connection would be connection 0 of the next server (one
/// shared-buffer GVA, 0x20_0040_0000, for two servers' buffers — the
/// later mapping silently replacing the earlier), a 513th server slot 0
/// of the one-page function list, a 25th server in one process a stack
/// over the identity page. Registration refuses each with a typed error
/// and leaves no trace: nothing mapped, no id consumed.
#[test]
fn registration_past_a_layout_window_is_refused_and_changes_nothing() {
    let mut w = world();
    // Server ids are dense, so the next id is the count registered so far.
    let mut servers = w.victim + 1;
    let fresh =
        w.k.create_process(&sb_rewriter::corpus::generate(7, 2048, 0));
    let fresh_tid = w.k.create_thread(fresh, 0);
    assert!(matches!(
        w.sb.register_server(
            &mut w.k,
            fresh_tid,
            layout::SB_CONNECTIONS + 1,
            64,
            null_handler()
        ),
        Err(SbError::TooManyConnections)
    ));
    let asp = w.k.processes[fresh].asp;
    for untouched in [
        layout::TRAMPOLINE_BASE,
        layout::SB_STACK_BASE,
        layout::KEY_TABLE_BASE,
        layout::SERVER_LIST_BASE,
    ] {
        assert!(
            asp.translate_setup(&w.k.mem, untouched).is_err(),
            "{untouched:?} mapped by a refused registration"
        );
    }
    assert!(w.k.processes[fresh].eptp_list.is_none());

    // One process may host SB_SERVERS_PER_PROCESS servers (the victim's
    // process already hosts one) …
    for _ in 1..layout::SB_SERVERS_PER_PROCESS {
        let id =
            w.sb.register_server(&mut w.k, w.victim_tid, 0, 64, null_handler())
                .unwrap();
        assert_eq!(id, servers, "a refused registration consumed an id");
        servers += 1;
    }
    assert!(matches!(
        w.sb.register_server(&mut w.k, w.victim_tid, 0, 64, null_handler()),
        Err(SbError::TooManyServers)
    ));
    // … and the machine SB_SERVERS.
    let mut host = fresh_tid;
    while servers < layout::SB_SERVERS {
        if servers.is_multiple_of(layout::SB_SERVERS_PER_PROCESS) {
            host = new_client(&mut w.k, servers as u64);
        }
        let id =
            w.sb.register_server(&mut w.k, host, 0, 64, null_handler())
                .unwrap();
        assert_eq!(id, servers);
        servers += 1;
    }
    let late = new_client(&mut w.k, 8);
    assert!(matches!(
        w.sb.register_server(&mut w.k, late, 1, 64, null_handler()),
        Err(SbError::TooManyServers)
    ));
    // The victim still serves.
    w.k.run_thread(w.client);
    let victim = w.victim;
    let (reply, _) =
        w.sb.direct_server_call(&mut w.k, w.client, victim, b"alive")
            .unwrap();
    assert_eq!(reply, b"alive");
}
