//! The primitive-cost experiments: Table 2 (+ §2.1.1's mode-switch
//! components) and Figure 7's roundtrip breakdowns, plus the two
//! client/server fixtures the ablations share with them.

use sb_microkernel::{
    ipc::{Breakdown, Component},
    Kernel, KernelConfig, Personality, ThreadId,
};
use sb_rootkernel::EptpList;
use skybridge::{ServerId, SkyBridge};

use super::{Artefact, PaperRow};

/// §2.1.1's mode-switch components, then Table 2 proper (`value ±
/// deviation`), in cycles.
pub const PRIMITIVES: &[PaperRow] = &[
    ("SYSCALL", &[82.0]),
    ("SWAPGS", &[26.0]),
    ("SYSRET", &[75.0]),
    ("address space switch", &[186.0]),
    ("seL4 fastpath IPC logic", &[98.0]),
    ("one-way fastpath total", &[493.0]),
    ("IPI", &[1913.0]),
    ("write to CR3", &[186.0, 10.0]),
    ("no-op system call w/ KPTI", &[431.0, 13.0]),
    ("no-op system call w/o KPTI", &[181.0, 5.0]),
    ("VMFUNC", &[134.0, 3.0]),
];

/// Figure 7's bar totals, in cycles.
pub const ROUNDTRIPS: &[PaperRow] = &[
    ("seL4-SkyBridge", &[396.0]),
    ("Fiasco.OC-SkyBridge", &[396.0]),
    ("Zircon-SkyBridge", &[396.0]),
    ("seL4 fastpath 1-core", &[986.0]),
    ("seL4 cross-core", &[6764.0]),
    ("Fiasco fastpath 1-core", &[2717.0]),
    ("Fiasco cross-core", &[8440.0]),
    ("Zircon 1-core", &[8157.0]),
    ("Zircon cross-core", &[20099.0]),
];

/// A booted kernel, a client thread, its send-capability slot and the
/// server thread behind it, parked in receive with the client running. Both processes
/// run `corpus::generate(seed, code_len, 0)`; `cross` puts the server
/// on core 1.
pub(super) fn ipc_pair(
    config: KernelConfig,
    seed: u64,
    code_len: usize,
    cross: bool,
) -> (Kernel, ThreadId, usize, ThreadId) {
    let mut k = Kernel::boot(config);
    let code = sb_rewriter::corpus::generate(seed, code_len, 0);
    let cp = k.create_process(&code);
    let sp = k.create_process(&code);
    let client = k.create_thread(cp, 0);
    let server = k.create_thread(sp, usize::from(cross));
    let (ep, _) = k.create_endpoint(sp);
    let slot = k.grant_send(cp, ep);
    k.server_recv(server, ep);
    k.run_thread(client);
    (k, client, slot, server)
}

/// A Rootkernel-backed kernel with one client registered to one
/// SkyBridge null server, the client running.
pub(super) fn sky_pair(
    personality: Personality,
    seed: u64,
) -> (Kernel, SkyBridge, ThreadId, ServerId) {
    let mut k = Kernel::boot(KernelConfig::with_rootkernel(personality));
    let mut sb = SkyBridge::new();
    let code = sb_rewriter::corpus::generate(seed, 2048, 0);
    let cp = k.create_process(&code);
    let sp = k.create_process(&code);
    let client = k.create_thread(cp, 0);
    let server_tid = k.create_thread(sp, 0);
    let server = sb
        .register_server(
            &mut k,
            server_tid,
            4,
            64,
            Box::new(|_, _, _, _| Ok(vec![].into())),
        )
        .expect("register the null server");
    sb.register_client(&mut k, client, server)
        .expect("register the client");
    k.run_thread(client);
    (k, sb, client, server)
}

pub fn table2(paper: &[PaperRow], a: &mut Artefact) {
    // §2.1.1 mode-switch components, measured as the model charges them.
    let cost = sb_sim::CostModel::skylake();
    let mut measured = vec![
        cost.syscall,
        cost.swapgs,
        cost.sysret,
        cost.cr3_write,
        cost.sel4_fastpath_logic,
        cost.sel4_fastpath_direct(),
        cost.ipi,
    ];
    let components = measured.len();

    // Table 2 proper: run each operation on the live machine and measure
    // the cycle delta. Write to CR3 first.
    {
        let mut k = Kernel::boot(KernelConfig::native(Personality::sel4()));
        let a = k.create_process(&[0x90; 64]);
        let b = k.create_process(&[0x90; 64]);
        let ta = k.create_thread(a, 0);
        let tb = k.create_thread(b, 0);
        k.run_thread(ta);
        let t0 = k.machine.cpu(0).tsc;
        k.run_thread(tb);
        measured.push(k.machine.cpu(0).tsc - t0);
    }
    // No-op system call with and without KPTI (mode switch + dispatch).
    for kpti in [true, false] {
        let k = Kernel::boot(KernelConfig {
            kpti,
            ..KernelConfig::native(Personality::sel4())
        });
        measured.push(k.machine.cost.noop_syscall(kpti));
    }
    // VMFUNC on the live Rootkernel.
    {
        let mut k = Kernel::boot(KernelConfig::with_rootkernel(Personality::sel4()));
        let rk = k.rootkernel.as_mut().expect("booted with a Rootkernel");
        let mut list = EptpList::new(1);
        list.pin(0, rk.base_ept.root);
        rk.install_eptp_list(&mut k.machine, 0, list);
        let t0 = k.machine.cpu(0).tsc;
        let iters = 1000;
        for _ in 0..iters {
            rk.vmfunc(&mut k.machine, 0, 0, 0).expect("VMFUNC");
        }
        measured.push((k.machine.cpu(0).tsc - t0) / iters);
    }

    for (i, ((operation, p), cycles)) in paper.iter().zip(measured).enumerate() {
        if i == components {
            a.table("§2.1.1 mode-switch components (cycles)", "operation");
        }
        let paper = match p {
            [value, deviation] => format!("{value}±{deviation}"),
            _ => p[0].to_string(),
        };
        a.record(operation, "measured", cycles as f64, p[0]);
        a.put(operation, "measured", format!("{cycles} (paper {paper})"));
    }
    a.table(
        "Table 2: instruction/operation latencies (cycles)",
        "operation",
    );
}

fn ipc_bar(personality: Personality, cross: bool, iters: usize) -> Breakdown {
    let (mut k, client, slot, server) =
        ipc_pair(KernelConfig::native(personality), 31, 2048, cross);
    for _ in 0..64 {
        k.ipc_roundtrip(client, slot, server)
            .expect("warm roundtrip");
    }
    let mut total = Breakdown::new();
    for _ in 0..iters {
        total.merge(&k.ipc_roundtrip(client, slot, server).expect("roundtrip"));
    }
    total.scaled_down(iters as u64)
}

fn skybridge_bar(personality: Personality, iters: usize) -> Breakdown {
    let (mut k, mut sb, client, server) = sky_pair(personality, 32);
    for _ in 0..64 {
        sb.direct_server_call(&mut k, client, server, &[])
            .expect("warm call");
    }
    let mut total = Breakdown::new();
    for _ in 0..iters {
        let (_, b) = sb
            .direct_server_call(&mut k, client, server, &[])
            .expect("call");
        total.merge(&b);
    }
    total.scaled_down(iters as u64)
}

/// Round trips averaged into each bar of Figure 7.
const FIGURE7_ITERS: usize = 2000;

pub fn figure7(paper: &[PaperRow], a: &mut Artefact) {
    let iters = FIGURE7_ITERS;
    let kernels = [
        Personality::sel4(),
        Personality::fiasco_oc(),
        Personality::zircon(),
    ];
    // The paper's bar order: the three SkyBridge bars, then each kernel
    // single-core and cross-core.
    let mut bars: Vec<Breakdown> = kernels
        .iter()
        .map(|p| skybridge_bar(p.clone(), iters))
        .collect();
    for p in &kernels {
        for cross in [false, true] {
            bars.push(ipc_bar(p.clone(), cross, iters));
        }
    }
    for ((name, total), b) in paper.iter().zip(&bars) {
        for c in Component::ALL {
            a.put(name, c.label(), b.get(c));
        }
        let (measured, paper) = (b.total(), total[0]);
        a.record(name, "total", measured as f64, paper);
        a.put(name, "total (paper)", format!("{measured} ({paper})"));
    }
    a.table(
        "Figure 7: IPC roundtrip breakdown, cycles — measured (paper total)",
        "configuration",
    );
    a.text += "\nShape to check: the three SkyBridge bars are identical (kernel\n\
               personality is irrelevant once the kernel is off the path) and\n\
               ~396 cycles; cross-core bars are dominated by the two IPIs; Zircon\n\
               pays scheduling + double message copies on every path.\n";
}
