//! The per-layer ledger: one isolated probe per rung of the stack.
//!
//! Each probe times a fixed number of calls into one layer's public
//! functions and reports both clocks — host ns per operation (median
//! over repetitions) and simulated cycles per operation (exact).
//! They run in every traced run, at the same sizes on every workload,
//! so a host figure that moved on a workload can be checked against
//! the rung that should have moved it.

use std::hint::black_box;

use sb_db::{Database, Value};
use sb_fs::{FileSystem, RamDisk, BSIZE};
use sb_graph::{CommitLog, CommitOp};
use sb_mem::{walk::Access, Gva, PAGE_SIZE};
use sb_microkernel::{Kernel, KernelConfig, Personality};
use sb_observe::{Recorder, SpanKind};
use sb_rewriter::corpus;
use sb_rootkernel::EptpList;
use sb_runtime::{
    FixedServiceTransport, MpkTransport, PoissonArrivals, Request, RingConfig, RingRuntime,
    RingTransport, RuntimeConfig, ServerRuntime, ServiceSpec, SkyBridgeTransport, TenantFabric,
    TrapIpcTransport,
};
use sb_sim::{AccessKind, Cache, CacheConfig, Machine, Tlb, TlbConfig, TlbTag};
use sb_transport::Transport;
use sb_ycsb::{Workload, WorkloadSpec};
use skybridge::SkyBridge;
use skybridge_repro::scenarios::graph::{build_graph, client_payload};
use skybridge_repro::scenarios::runtime::Backend;

use crate::host::ns_per_op;
use crate::metrics::Values;
use crate::workloads::{graph, serve_ring, xcall};

/// Repetitions per probe; the host figure is their median.
const REPS: usize = 7;

/// The paper's round-trip figures (Table 2 / Figure 7).
const PAPER_SKY: f64 = 396.0;
const PAPER_SEL4: f64 = 986.0;
const PAPER_FIASCO: f64 = 2717.0;
const PAPER_ZIRCON: f64 = 8157.0;

fn err_pct(measured: f64, paper: f64) -> f64 {
    (measured - paper).abs() / paper * 100.0
}

/// Divides every probe's iteration count: 1 for a real run, large for
/// the smoke test (which checks that every metric is emitted, not what
/// it reads).
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub u64);

impl Scale {
    fn iters(self, iters: u64) -> u64 {
        (iters / self.0.max(1)).max(8)
    }

    /// Median host ns per operation over `REPS` repetitions of `f`.
    fn ns(self, iters: u64, f: impl FnMut(u64)) -> f64 {
        ns_per_op(REPS, self.iters(iters), f)
    }

    /// Times `REPS × iters` operations against a simulated clock:
    /// returns (median host ns per op, exact cycles per op).
    fn both<S>(
        self,
        state: &mut S,
        iters: u64,
        clock: impl Fn(&mut S) -> u64,
        mut op: impl FnMut(&mut S, u64),
    ) -> (f64, f64) {
        let c0 = clock(state);
        let mut i = 0u64;
        let ns = self.ns(iters, |n| {
            for _ in 0..n {
                op(state, i);
                i += 1;
            }
        });
        let c1 = clock(state);
        (ns, (c1 - c0) as f64 / i as f64)
    }
}

fn set_both(v: &mut Values, stem: &str, (ns, cycles): (f64, f64)) {
    v.set(&format!("{stem}.host_ns"), ns);
    v.set(&format!("{stem}.cycles"), cycles);
}

/// sb-sim: the set-associative cache, the TLB and the L1→DRAM walk.
fn sim(v: &mut Values, sc: Scale) {
    let cfg = CacheConfig::skylake_l1d();
    let mut c = Cache::new(cfg);
    // Hit: eight resident lines in distinct sets. Miss: a stride over
    // four times the capacity, so LRU never holds the next line.
    let ns = sc.ns(200_000, |n| {
        for i in 0..n {
            black_box(c.access((i % 8) * 64));
        }
    });
    v.set("sim.cache_hit.host_ns", ns);
    let lines = (cfg.size_bytes / cfg.line_bytes * 4) as u64;
    let mut at = 0u64;
    let ns = sc.ns(200_000, |n| {
        for _ in 0..n {
            black_box(c.access(0x100_0000 + (at % lines) * 64));
            at += 1;
        }
    });
    v.set("sim.cache_miss.host_ns", ns);

    let mut t = Tlb::new(TlbConfig::skylake_dtlb());
    let tag = TlbTag::bare(1);
    for vpn in 0..8 {
        t.insert(tag, vpn, vpn + 100, 0);
    }
    let ns = sc.ns(200_000, |n| {
        for i in 0..n {
            black_box(t.lookup(tag, i % 8));
        }
    });
    v.set("sim.tlb_hit.host_ns", ns);
    let mut vpn = 1_000u64;
    let ns = sc.ns(200_000, |n| {
        for _ in 0..n {
            if t.lookup(tag, vpn).is_none() {
                t.insert(tag, vpn, vpn, 0);
            }
            vpn += 1;
        }
    });
    v.set("sim.tlb_miss.host_ns", ns);

    let mut m = Machine::skylake();
    let ns = sc.ns(200_000, |n| {
        for i in 0..n {
            black_box(m.mem_access(0, (i % 8) * 64, AccessKind::DataRead));
        }
    });
    v.set("sim.mem_access_l1.host_ns", ns);
    // A stream twice the L3's size: every access misses all three
    // levels and pays DRAM.
    let l3_lines = (CacheConfig::skylake_l3().size_bytes / 64 * 2) as u64;
    let mut at = 0u64;
    let ns = sc.ns(100_000, |n| {
        for _ in 0..n {
            black_box(m.mem_access(0, 0x4000_0000 + (at % l3_lines) * 64, AccessKind::DataRead));
            at += 1;
        }
    });
    v.set("sim.mem_access_dram.host_ns", ns);
}

/// sb-mem under the Rootkernel's EPT: translation hit and miss, and
/// line-granular touches of 64 B and 4 KiB.
fn mem(v: &mut Values, sc: Scale) {
    const HEAP: Gva = Gva(0x6000_0000);
    const PAGES: u64 = 512;
    let mut k = Kernel::boot(KernelConfig::with_rootkernel(Personality::sel4()));
    let pid = k.create_process(&corpus::generate(0xbe_01, 2048, 0));
    let tid = k.create_thread(pid, 0);
    k.map_heap(pid, HEAP, PAGES as usize);
    k.run_thread(tid);
    let clock = |k: &mut Kernel| k.machine.cpu(0).tsc;

    let hit = sc.both(&mut k, 200_000, clock, |k, _| {
        sb_mem::translate(&mut k.machine, 0, &k.mem, HEAP, Access::Read, true).expect("mapped");
    });
    set_both(v, "mem.translate_hit", hit);
    // 512 pages against a 64-entry d-TLB: every translation walks the
    // guest tables, each step resolved through the EPT.
    let miss = sc.both(&mut k, 50_000, clock, |k, i| {
        let gva = HEAP.add((i % PAGES) * PAGE_SIZE);
        sb_mem::translate(&mut k.machine, 0, &k.mem, gva, Access::Read, true).expect("mapped");
    });
    set_both(v, "mem.translate_miss", miss);
    let t64 = sc.both(&mut k, 100_000, clock, |k, i| {
        let gva = HEAP.add((i % 32) * 64);
        k.user_touch(tid, gva, 64, Access::Read).expect("mapped");
    });
    set_both(v, "mem.touch_64", t64);
    let t4k = sc.both(&mut k, 5_000, clock, |k, i| {
        let gva = HEAP.add((i % 8) * PAGE_SIZE);
        k.user_touch(tid, gva, PAGE_SIZE as usize, Access::Write)
            .expect("mapped");
    });
    set_both(v, "mem.touch_4k", t4k);
}

/// skybridge core (Figure 7's null `direct_server_call`) and the
/// Rootkernel's VMFUNC.
fn core_and_rootkernel(v: &mut Values, sc: Scale) {
    let mut k = Kernel::boot(KernelConfig::with_rootkernel(Personality::sel4()));
    let mut sb = SkyBridge::new();
    let code = corpus::generate(32, 2048, 0);
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
        .expect("server registration");
    sb.register_client(&mut k, client, server)
        .expect("client registration");
    k.run_thread(client);
    for _ in 0..64 {
        sb.direct_server_call(&mut k, client, server, &[])
            .expect("warm-up call");
    }
    let mut state = (k, sb);
    let null = sc.both(
        &mut state,
        20_000,
        |(k, _)| k.machine.cpu(0).tsc,
        |(k, sb), _| {
            sb.direct_server_call_raw(k, client, server, &[])
                .expect("null call");
        },
    );
    set_both(v, "core.null_call", null);
    v.set("fidelity.sky_roundtrip_err_pct", err_pct(null.1, PAPER_SKY));

    let mut k = Kernel::boot(KernelConfig::with_rootkernel(Personality::sel4()));
    let rk = k.rootkernel.as_mut().expect("rootkernel booted");
    let mut list = EptpList::new(1);
    list.pin(0, rk.base_ept.root);
    rk.install_eptp_list(&mut k.machine, 0, list);
    let vmfunc = sc.both(
        &mut k,
        200_000,
        |k| k.machine.cpu(0).tsc,
        |k, _| {
            k.rootkernel
                .as_mut()
                .expect("rootkernel booted")
                .vmfunc(&mut k.machine, 0, 0, 0)
                .expect("vmfunc");
        },
    );
    set_both(v, "rootkernel.vmfunc", vmfunc);
}

/// sb-microkernel: same-core empty-message IPC round trips.
fn microkernel(v: &mut Values, sc: Scale) {
    for (stem, fidelity, personality, paper) in [
        (
            "microkernel.sel4_roundtrip",
            "fidelity.sel4_roundtrip_err_pct",
            Personality::sel4(),
            PAPER_SEL4,
        ),
        (
            "microkernel.fiasco_roundtrip",
            "fidelity.fiasco_roundtrip_err_pct",
            Personality::fiasco_oc(),
            PAPER_FIASCO,
        ),
        (
            "microkernel.zircon_roundtrip",
            "fidelity.zircon_roundtrip_err_pct",
            Personality::zircon(),
            PAPER_ZIRCON,
        ),
    ] {
        let mut k = Kernel::boot(KernelConfig::native(personality));
        let code = corpus::generate(31, 2048, 0);
        let cp = k.create_process(&code);
        let sp = k.create_process(&code);
        let client = k.create_thread(cp, 0);
        let server = k.create_thread(sp, 0);
        let (ep, _) = k.create_endpoint(sp);
        let slot = k.grant_send(cp, ep);
        k.server_recv(server, ep);
        k.run_thread(client);
        for _ in 0..64 {
            k.ipc_roundtrip(client, slot, server).expect("warm-up ipc");
        }
        let rt = sc.both(
            &mut k,
            5_000,
            |k| k.machine.cpu(0).tsc,
            |k, _| {
                k.ipc_roundtrip(client, slot, server).expect("ipc");
            },
        );
        set_both(v, stem, rt);
        v.set(fidelity, err_pct(rt.1, paper));
    }
}

fn call_loop<T: Transport>(sc: Scale, t: &mut T, seed: u64, iters: u64) -> (f64, f64) {
    let mut f = xcall::factory(seed);
    for _ in 0..256 {
        let r = f.make(t.now(0), None);
        t.call(0, &r).expect("warm-up call");
    }
    sc.both(
        t,
        iters,
        |t| t.now(0),
        |t, _| {
            let r = f.make(t.now(0), None);
            t.call(0, &r).expect("probe call");
            black_box(t.reply(0));
        },
    )
}

/// One ring frame on SkyBridge at batch budget `budget`: submit,
/// doorbell, pop — per frame.
fn ring_frame(sc: Scale, seed: u64, budget: usize) -> (f64, f64) {
    let spec = ServiceSpec::default();
    let mut ring = RingTransport::new(
        SkyBridgeTransport::new(1, &spec),
        RingConfig {
            batch_budget: budget,
            ..RingConfig::default()
        },
    );
    let mut f = xcall::factory(seed);
    let mut batch = |ring: &mut RingTransport<SkyBridgeTransport>| {
        for _ in 0..budget {
            let r = f.make(ring.now(0), None);
            ring.submit(0, &r).expect("ring has room");
        }
        ring.doorbell(0);
        while let Some(c) = ring.pop_completion(0) {
            c.result.expect("frame served");
        }
    };
    for _ in 0..64 {
        batch(&mut ring);
    }
    let batches = 8_000 / budget as u64;
    let (ns, cycles) = sc.both(&mut ring, batches, |r| r.now(0), |r, _| batch(r));
    (ns / budget as f64, cycles / budget as f64)
}

/// sb-transport: `Transport::call` per personality, ring frames, bytes
/// copied.
fn transport(v: &mut Values, sc: Scale, seed: u64) {
    let spec = ServiceSpec::default();
    let mut sky = SkyBridgeTransport::new(1, &spec);
    let copied0 = sky.bytes_copied();
    let sky_call = call_loop(sc, &mut sky, seed, 10_000);
    set_both(v, "transport.skybridge.call", sky_call);
    v.set(
        "transport.bytes_copied_per_op",
        (sky.bytes_copied() - copied0) as f64 / (256 + REPS as u64 * sc.iters(10_000)) as f64,
    );
    for (stem, p) in [
        ("transport.sel4.call", Personality::sel4()),
        ("transport.fiasco.call", Personality::fiasco_oc()),
        ("transport.zircon.call", Personality::zircon()),
    ] {
        let r = call_loop(sc, &mut TrapIpcTransport::new(p, 1, &spec), seed, 3_000);
        set_both(v, stem, r);
    }
    let r = call_loop(sc, &mut MpkTransport::new(1, &spec), seed, 10_000);
    set_both(v, "transport.mpk.call", r);
    let r = call_loop(
        sc,
        &mut FixedServiceTransport::new(1, serve_ring::SERVICE),
        seed,
        100_000,
    );
    set_both(v, "transport.fixed.call", r);
    set_both(v, "transport.ring_b1", ring_frame(sc, seed, 1));
    set_both(v, "transport.ring_b8", ring_frame(sc, seed, 8));
}

/// sb-runtime: what each serving loop adds per request over the bare
/// call loop, and the load generators and fabric on their own.
fn runtime(v: &mut Values, sc: Scale, seed: u64) {
    const N: u64 = 100_000;
    let bare = v
        .get("transport.fixed.call.host_ns")
        .expect("transport probes run first");
    let gap = serve_ring::SERVICE; // one lane at ρ = 1: never idle, never queued deep.
    let direct = sc.ns(N, |n| {
        let mut t = FixedServiceTransport::new(1, serve_ring::SERVICE);
        let s = ServerRuntime::new(&mut t, RuntimeConfig::default())
            .run_open_loop((0..n).map(|i| i * gap), &mut xcall::factory(seed));
        assert_eq!(s.completed, n);
    });
    v.set("runtime.direct_overhead.host_ns", direct - bare);
    let ring = sc.ns(N, |n| {
        let mut t = RingTransport::new(
            FixedServiceTransport::new(1, serve_ring::SERVICE),
            RingConfig::default(),
        );
        let s = RingRuntime::new(&mut t, RuntimeConfig::default())
            .run_open_loop((0..n).map(|i| i * gap), &mut xcall::factory(seed));
        assert_eq!(s.completed, n);
    });
    v.set("runtime.ring_overhead.host_ns", ring - bare);

    let mut f = xcall::factory(seed);
    let ns = sc.ns(200_000, |n| {
        for i in 0..n {
            black_box(f.make(i, None));
        }
    });
    v.set("runtime.factory_make.host_ns", ns);
    let mut p = PoissonArrivals::new(serve_ring::MEAN_GAP, seed);
    let ns = sc.ns(200_000, |n| {
        for _ in 0..n {
            black_box(p.next());
        }
    });
    v.set("runtime.poisson_next.host_ns", ns);

    // Gate + push + pop through the benchmark's own tenant contracts.
    let mut fabric = TenantFabric::new(serve_ring::registry());
    let mut now = 0u64;
    let ns = sc.ns(200_000, |n| {
        for i in 0..n {
            now += 300;
            let tenant = (i % serve_ring::TENANTS as u64) as u16;
            black_box(fabric.gate(tenant, now));
            fabric.push(Request {
                id: i,
                arrival: now,
                key: i,
                write: false,
                payload: 64,
                client: None,
                tenant,
            });
            black_box(fabric.pop());
        }
    });
    v.set("runtime.fabric_push_pop.host_ns", ns);
}

/// sb-graph, sb-db, sb-fs, sb-ycsb on their own.
fn storage(v: &mut Values, sc: Scale, seed: u64) {
    let spec = graph::spec();
    let payload = client_payload(&spec);
    let mut g = build_graph(&Backend::SkyBridge, &spec, 1);
    let mut id = 0u64;
    let mut call = |g: &mut sb_graph::GraphTransport, key: u64, write: bool| {
        id += 1;
        let r = Request {
            id,
            arrival: g.now(0),
            key,
            write,
            payload,
            client: None,
            tenant: 0,
        };
        g.call(0, &r).expect("graph call");
    };
    let mut keys = Workload::new(WorkloadSpec {
        seed,
        ..WorkloadSpec::ycsb_c(graph::RECORDS, graph::VALUE_LEN)
    });
    for _ in 0..500 {
        call(&mut g, keys.next_op().key, false);
    }
    let ns = sc.ns(1_000, |n| {
        for _ in 0..n {
            call(&mut g, keys.next_op().key, false);
        }
    });
    v.set("graph.call_read.host_ns", ns);
    let ns = sc.ns(300, |n| {
        for _ in 0..n {
            call(&mut g, keys.next_op().key, true);
        }
    });
    v.set("graph.call_write.host_ns", ns);

    let mut log = CommitLog::new();
    let ns = sc.ns(100_000, |n| {
        for i in 0..n {
            black_box(log.append(i, CommitOp::Get { key: i }));
        }
    });
    v.set("graph.commit_append.host_ns", ns);

    // The db over a bare in-process file system: no IPC billing.
    let fs = FileSystem::mkfs(RamDisk::new(4096), 16);
    let mut db = Database::open(fs, "/probe", 32).expect("open probe db");
    db.create_table("t").expect("create table");
    let row = |i: u64| [Value::Blob(sb_graph::value_bytes(i, i, graph::VALUE_LEN))];
    for key in 0..graph::RECORDS {
        db.insert("t", key as i64, &row(key)).expect("preload");
    }
    let ns = sc.ns(2_000, |n| {
        for _ in 0..n {
            black_box(db.query("t", keys.next_op().key as i64).expect("query"));
        }
    });
    v.set("db.get.host_ns", ns);
    let ns = sc.ns(300, |n| {
        for i in 0..n {
            let key = keys.next_op().key;
            db.update("t", key as i64, &row(key ^ i)).expect("update");
        }
    });
    v.set("db.put.host_ns", ns);

    let mut fs = FileSystem::mkfs(RamDisk::new(4096), 16);
    let inum = fs.create("/blocks").expect("create file");
    let block = [0xa5u8; BSIZE];
    for b in 0..64 {
        fs.write_at(inum, b * BSIZE, &block).expect("extend file");
    }
    let mut buf = [0u8; BSIZE];
    let ns = sc.ns(20_000, |n| {
        for i in 0..n {
            black_box(fs.read_at(inum, (i as usize % 64) * BSIZE, &mut buf));
        }
    });
    v.set("fs.block_read.host_ns", ns);
    let ns = sc.ns(2_000, |n| {
        for i in 0..n {
            fs.write_at(inum, (i as usize % 64) * BSIZE, &block)
                .expect("overwrite block");
        }
    });
    v.set("fs.block_write.host_ns", ns);

    let ns = sc.ns(200_000, |n| {
        for _ in 0..n {
            black_box(keys.next_op());
        }
    });
    v.set("ycsb.next_op.host_ns", ns);
}

/// sb-observe: one span emit into an enabled recorder.
fn observe(v: &mut Values, sc: Scale) {
    let rec = Recorder::new(sb_observe::DEFAULT_RING_CAPACITY);
    let ns = sc.ns(200_000, |n| {
        for i in 0..n {
            rec.span(0, SpanKind::Call, i, i + 1, i);
        }
    });
    v.set("observe.emit.host_ns", ns);
}

/// Runs every probe, filling the ledger part of `v`.
pub fn run(v: &mut Values, sc: Scale, seed: u64) {
    sim(v, sc);
    mem(v, sc);
    core_and_rootkernel(v, sc);
    microkernel(v, sc);
    transport(v, sc, seed);
    runtime(v, sc, seed);
    storage(v, sc, seed);
    observe(v, sc);
}
