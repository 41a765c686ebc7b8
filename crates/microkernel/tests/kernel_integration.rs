//! Cross-module microkernel tests: syscall paths, context switches, and
//! the cross-core IPC state machine.

use sb_microkernel::{Kernel, KernelConfig, Personality, ThreadId, ThreadState};

fn boot(personality: Personality) -> Kernel {
    Kernel::boot(KernelConfig::native(personality))
}

fn spawn(k: &mut Kernel, core: usize) -> ThreadId {
    let pid = k.create_process(&sb_rewriter::corpus::generate(17, 2048, 0));
    k.create_thread(pid, core)
}

#[test]
fn noop_syscall_costs_match_table2() {
    for (kpti, expected) in [(false, 181u64), (true, 431 + 186)] {
        // With KPTI the live path pays the full exit CR3 write too; the
        // analytic Table 2 value (431) folds part of it into the
        // measurement — accept either bound.
        let mut k = Kernel::boot(KernelConfig {
            kpti,
            ..KernelConfig::native(Personality::sel4())
        });
        let tid = spawn(&mut k, 0);
        k.run_thread(tid);
        let measured = k.noop_syscall(0);
        assert!(
            (expected.saturating_sub(60)..=expected + 60).contains(&measured),
            "kpti={kpti}: measured {measured}, expected ~{expected}"
        );
    }
}

#[test]
fn cross_core_roundtrip_restores_thread_states() {
    let mut k = boot(Personality::fiasco_oc());
    let client = spawn(&mut k, 0);
    let server = spawn(&mut k, 3);
    let spid = k.threads[server].process;
    let cpid = k.threads[client].process;
    let (ep, _) = k.create_endpoint(spid);
    let slot = k.grant_send(cpid, ep);
    k.server_recv(server, ep);
    k.run_thread(client);
    for _ in 0..5 {
        k.ipc_call(client, slot, 0).unwrap();
        assert_eq!(k.current_thread(3), Some(server));
        assert_eq!(k.current_thread(0), None, "client core idles");
        assert_eq!(k.threads[client].state, ThreadState::ReplyBlocked(server));
        k.ipc_reply(server, client, 0).unwrap();
        assert_eq!(k.current_thread(0), Some(client));
        assert_eq!(k.threads[server].state, ThreadState::RecvBlocked);
        assert_eq!(k.threads[client].state, ThreadState::Ready);
    }
    // Clocks advanced on both cores and stayed ordered.
    assert!(k.machine.cpu(0).tsc > 0 && k.machine.cpu(3).tsc > 0);
}

#[test]
fn ipc_roundtrip_grows_monotonically_with_message_size() {
    let mut k = boot(Personality::sel4());
    let client = spawn(&mut k, 0);
    let server = spawn(&mut k, 0);
    let spid = k.threads[server].process;
    let cpid = k.threads[client].process;
    let (ep, _) = k.create_endpoint(spid);
    let slot = k.grant_send(cpid, ep);
    k.server_recv(server, ep);
    k.run_thread(client);
    let mut last = 0;
    for len in [0usize, 128, 1024, 4096] {
        for _ in 0..16 {
            k.ipc_call(client, slot, len).unwrap();
            k.ipc_reply(server, client, 0).unwrap();
        }
        let mut b = k.ipc_call(client, slot, len).unwrap();
        b.merge(&k.ipc_reply(server, client, 0).unwrap());
        assert!(
            b.total() >= last,
            "cost must not shrink as messages grow ({len} B)"
        );
        last = b.total();
    }
}

#[test]
fn zircon_copies_cost_more_than_sel4_at_every_size() {
    let mut totals = Vec::new();
    for p in [Personality::sel4(), Personality::zircon()] {
        let mut k = boot(p);
        let client = spawn(&mut k, 0);
        let server = spawn(&mut k, 0);
        let spid = k.threads[server].process;
        let cpid = k.threads[client].process;
        let (ep, _) = k.create_endpoint(spid);
        let slot = k.grant_send(cpid, ep);
        k.server_recv(server, ep);
        k.run_thread(client);
        let mut per_size = Vec::new();
        for len in [256usize, 2048] {
            for _ in 0..16 {
                k.ipc_call(client, slot, len).unwrap();
                k.ipc_reply(server, client, 0).unwrap();
            }
            let b = k.ipc_call(client, slot, len).unwrap();
            per_size.push(b.get(sb_microkernel::ipc::Component::MessageCopy));
            k.ipc_reply(server, client, 0).unwrap();
        }
        totals.push(per_size);
    }
    for i in 0..2 {
        assert!(
            totals[1][i] > totals[0][i],
            "Zircon's double copy must cost more (size idx {i}): {totals:?}"
        );
    }
}

#[test]
fn identity_starts_empty_and_tracks_switches() {
    let mut k = boot(Personality::sel4());
    assert_eq!(k.identity_current(5), None, "no process ran on core 5");
    let a = spawn(&mut k, 5);
    k.run_thread(a);
    assert_eq!(k.identity_current(5), Some(k.threads[a].process));
}

#[test]
fn context_switch_under_rootkernel_installs_eptp_list() {
    let mut k = Kernel::boot(KernelConfig::with_rootkernel(Personality::sel4()));
    let tid = spawn(&mut k, 0);
    let pid = k.threads[tid].process;
    // Simulate the SkyBridge registration side effect.
    let own = {
        let mut rk = k.rootkernel.take().unwrap();
        let root = rk.process_ept(&mut k.machine, 0, &mut k.mem, k.processes[pid].cr3());
        k.rootkernel = Some(rk);
        root
    };
    let mut list = sb_rootkernel::EptpList::new(1);
    list.pin(0, own);
    k.processes[pid].eptp_list = Some(list);
    let vmcalls_before = k.rootkernel.as_ref().unwrap().exits.vmcall;
    k.run_thread(tid);
    assert!(
        k.rootkernel.as_ref().unwrap().exits.vmcall > vmcalls_before,
        "the context-switch hook must hypercall to install the list"
    );
    assert_eq!(k.machine.cpu(0).ept_root, own.0, "own EPT active");
}
