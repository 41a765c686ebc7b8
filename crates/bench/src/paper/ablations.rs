//! Ablations of SkyBridge's design choices (DESIGN.md §6).
//!
//! * huge-page vs fine-grained EPT mappings (nested-walk accesses, §4.1);
//! * shallow-copy vs deep-copy binding EPTs (§4.3);
//! * KPTI on/off on the IPC direct cost (§2.1.1);
//! * register vs shared-buffer message crossover (§4.4);
//! * pass-through vs commercial exit controls (§4.1);
//! * the >512-server EPTP-list LRU extension (§10).

use sb_mem::{
    ept::{Ept, EptPerms, PageSize},
    paging::{AddressSpace, PteFlags},
    phys::RESERVED_BYTES,
    walk, Gpa, Gva, HostMem, Hpa,
};
use sb_microkernel::{ipc::Component, Kernel, KernelConfig, Personality};
use sb_rootkernel::{vmcs::ExitControls, Rootkernel, RootkernelConfig};
use sb_sim::Machine;
use skybridge::SkyBridge;

use super::ipc::{ipc_pair, sky_pair};
use super::{Artefact, PaperRow};

/// Maps `pages` 4 KiB pages above the reserved region one by one, as a
/// commodity hypervisor's EPT would hold them.
fn map_4k(ept: &Ept, mem: &mut HostMem, pages: u64) {
    for page in 0..pages {
        let at = RESERVED_BYTES + page * 4096;
        ept.map(mem, Gpa(at), Hpa(at), PageSize::Size4K, EptPerms::RWX);
    }
}

fn ept_walk(a: &mut Artefact) {
    for (name, granule) in [
        ("no EPT (native)", None),
        ("1 GiB (Rootkernel)", Some(PageSize::Size1G)),
        ("2 MiB", Some(PageSize::Size2M)),
        ("4 KiB (commodity hypervisor)", Some(PageSize::Size4K)),
    ] {
        let mut m = Machine::skylake();
        let mut mem = HostMem::new();
        let asp = AddressSpace::new(&mut mem, 1);
        asp.alloc_and_map(&mut mem, Gva(0x50_0000), 2, PteFlags::USER_DATA);
        if let Some(g) = granule {
            let ept = Ept::new(&mut mem);
            match g {
                PageSize::Size1G => {
                    ept.map_identity_range(&mut mem, 0, 4 << 30, PageSize::Size1G, EptPerms::RWX)
                }
                PageSize::Size2M => ept.map_identity_range(
                    &mut mem,
                    RESERVED_BYTES,
                    1 << 30,
                    PageSize::Size2M,
                    EptPerms::RWX,
                ),
                PageSize::Size4K => map_4k(&ept, &mut mem, 16384),
            }
            m.cpu_mut(0).load_eptp(ept.root.0);
        }
        m.cpu_mut(0).load_cr3(asp.root_gpa.0, 1);
        let before = m.cpu(0).pmu;
        let t0 = m.cpu(0).tsc;
        walk::read_u64(&mut m, 0, &mem, Gva(0x50_0000), true).expect("mapped above");
        let d = m.cpu(0).pmu.delta(&before);
        a.put(name, "walk memory accesses", d.walk_memory_accesses);
        a.put(name, "cold-walk cycles", m.cpu(0).tsc - t0);
    }
    a.table(
        "Ablation: TLB-miss nested-walk cost by EPT granularity",
        "configuration",
    );
}

fn ept_copy(a: &mut Artefact) {
    let mut mem = HostMem::new();
    let base = Ept::new(&mut mem);
    base.map_identity_range(
        &mut mem,
        RESERVED_BYTES,
        1 << 30,
        PageSize::Size2M,
        EptPerms::RWX,
    );
    base.map_identity_range(&mut mem, 1 << 30, 16 << 30, PageSize::Size1G, EptPerms::RWX);
    let client = mem.alloc_frame();
    let server = mem.alloc_frame();
    let (_, shallow) = Ept::shallow_copy_with_remap(&mut mem, &base, Gpa(client.0), server);
    let (_, deep) = Ept::deep_copy(&mut mem, &base);
    // A 4 KiB-managed EPT for contrast.
    let fine = Ept::new(&mut mem);
    map_4k(&fine, &mut mem, 32768);
    let (_, deep_fine) = Ept::deep_copy(&mut mem, &fine);
    for (strategy, pages) in [
        ("shallow copy + CR3 remap (SkyBridge)", shallow),
        ("deep copy of huge-page base EPT", deep),
        ("deep copy of 4 KiB-managed EPT (128 MiB)", deep_fine),
    ] {
        a.put(strategy, "pages written", pages);
    }
    a.table(
        "Ablation: EPT pages written per client/server binding",
        "strategy",
    );
}

fn kpti(a: &mut Artefact) {
    for kpti in [false, true] {
        let config = KernelConfig {
            kpti,
            ..KernelConfig::native(Personality::sel4())
        };
        let (mut k, client, slot, server) = ipc_pair(config, 41, 2048, false);
        for _ in 0..64 {
            k.ipc_roundtrip(client, slot, server)
                .expect("warm roundtrip");
        }
        let b = k.ipc_roundtrip(client, slot, server).expect("roundtrip");
        let name = if kpti { "KPTI on" } else { "KPTI off" };
        a.put(
            name,
            "context-switch cycles",
            b.get(Component::ContextSwitch),
        );
        a.put(name, "total cycles", b.total());
    }
    a.table(
        "Ablation: Meltdown mitigation (KPTI) on the seL4 fastpath roundtrip",
        "configuration",
    );
}

fn message_size(a: &mut Artefact) {
    let (mut k, mut sb, client, server) = sky_pair(Personality::sel4(), 42);
    for size in [0usize, 16, 64, 128, 512, 2048, 8192] {
        let msg = vec![7u8; size];
        for _ in 0..32 {
            sb.direct_server_call(&mut k, client, server, &msg)
                .expect("warm call");
        }
        let core = k.core_of(client);
        let t0 = k.machine.cpu(core).tsc;
        let iters = 64;
        for _ in 0..iters {
            sb.direct_server_call(&mut k, client, server, &msg)
                .expect("call");
        }
        let avg = (k.machine.cpu(core).tsc - t0) / iters;
        let message = format!("{size} B");
        let path = if size <= 64 {
            "registers"
        } else {
            "shared buffer"
        };
        a.put(&message, "path", path);
        a.put(&message, "cycles/roundtrip", avg);
    }
    a.table(
        "Ablation: direct_server_call latency vs message size",
        "message",
    );
}

fn exit_controls(a: &mut Artefact) {
    for (name, controls) in [
        ("SkyBridge pass-through", ExitControls::skybridge()),
        ("commercial hypervisor", ExitControls::commercial()),
    ] {
        let mut machine = Machine::skylake();
        let mut mem = HostMem::new();
        let mut rk = Rootkernel::boot(&mut machine, &mut mem, RootkernelConfig { controls });
        let t0 = machine.cpu(0).tsc;
        // A representative second of activity: 1000 timer interrupts,
        // 5000 context switches (CR3 writes).
        for _ in 0..1000 {
            rk.external_interrupt(&mut machine, 0);
        }
        for _ in 0..5000 {
            rk.cr3_write(&mut machine, 0);
        }
        a.put(name, "VM exits", rk.exits.total());
        a.put(name, "cycles of exit overhead", machine.cpu(0).tsc - t0);
    }
    a.table(
        "Ablation: exit controls under 1k interrupts + 5k CR3 writes",
        "configuration",
    );
}

/// The §10 extension: more servers than EPTP slots. Bind one client to
/// every server the function list holds (512, one more than the EPTP
/// list's free slots) and round-robin calls across them; stale slots
/// fault to the Rootkernel and get reinstalled.
fn eptp_lru(a: &mut Artefact) {
    let mut k = Kernel::boot(KernelConfig::with_rootkernel(Personality::sel4()));
    let mut sb = SkyBridge::new();
    let code = sb_rewriter::corpus::generate(43, 1024, 0);
    let cp = k.create_process(&code);
    let client = k.create_thread(cp, 0);
    let mut servers = Vec::new();
    for _ in 0..sb_microkernel::layout::SB_SERVERS {
        let sp = k.create_process(&code);
        let tid = k.create_thread(sp, 0);
        let sid = sb
            .register_server(&mut k, tid, 2, 64, Box::new(|_, _, _, _| Ok(vec![].into())))
            .expect("register a null server");
        sb.register_client(&mut k, client, sid)
            .expect("register the client");
        servers.push(sid);
    }
    k.run_thread(client);
    let exits = |k: &Kernel| {
        let rk = k.rootkernel.as_ref().expect("booted with a Rootkernel");
        rk.exits.total()
    };
    let exits0 = exits(&k);
    let core = k.core_of(client);
    let t0 = k.machine.cpu(core).tsc;
    let calls = 2 * servers.len();
    for i in 0..calls {
        let sid = servers[i % servers.len()];
        sb.direct_server_call(&mut k, client, sid, &[])
            .expect("call");
    }
    let avg = (k.machine.cpu(core).tsc - t0) / calls as u64;
    a.put("", "servers", servers.len());
    a.put("", "calls", calls);
    a.put("", "slot-fault exits", exits(&k) - exits0);
    a.put("", "avg cycles/call", avg);
    a.table(
        "Extension (§10): EPTP-list LRU with more servers than slots",
        "",
    );
    a.text += "  (each fault = one VM exit + EPTP-list reinstall; with ≤ 511\n\
               bound servers the fault count is zero)\n";
}

/// §8.1: L4's temporary mapping halves the copy cost of long IPC
/// messages; "orthogonal to SkyBridge".
fn temporary_mapping(a: &mut Artefact) {
    for (name, personality) in [
        ("seL4 (two copies)", Personality::sel4()),
        (
            "seL4 + temporary mapping",
            Personality::sel4().with_temporary_mapping(),
        ),
    ] {
        let (mut k, client, slot, server) =
            ipc_pair(KernelConfig::native(personality), 44, 1024, false);
        for (len, column) in [(256usize, "256 B"), (1024, "1 KiB"), (4096, "4 KiB")] {
            for _ in 0..32 {
                k.ipc_call(client, slot, len).expect("warm call");
                k.ipc_reply(server, client, 0).expect("warm reply");
            }
            let mut sum = 0u64;
            for _ in 0..64 {
                let mut b = k.ipc_call(client, slot, len).expect("call");
                b.merge(&k.ipc_reply(server, client, 0).expect("reply"));
                sum += b.get(Component::MessageCopy);
            }
            a.put(name, column, sum / 64);
        }
    }
    a.table(
        "§8.1: temporary mapping vs two-copy long messages (copy cycles)",
        "configuration",
    );
}

pub fn ablations(_: &[PaperRow], a: &mut Artefact) {
    temporary_mapping(a);
    ept_walk(a);
    ept_copy(a);
    kpti(a);
    message_size(a);
    exit_controls(a);
    eptp_lru(a);
}
