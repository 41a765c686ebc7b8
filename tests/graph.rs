//! Serving-graph acceptance: YCSB through client → gateway → cache →
//! db → fs on all five IPC personalities, with byte-identical replies,
//! connected cross-hop traces and dispatcher conservation. Snapshot/replay
//! reproduction and power-loss recovery are the `graph` registry entry's
//! gates, which `crates/bench/tests/paper.rs` holds in Tier-1.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;
use sb_fs::RamDisk;
use sb_graph::{CellDisk, GraphSpec, GraphTransport, CELL_DISK_BLOCKS};
use sb_mem::WalkMemoStats;
use sb_observe::Recorder;
use sb_runtime::{
    AdmissionPolicy, CallError, Request, RuntimeConfig, ServiceSpec, SkyBridgeTransport, Transport,
};
use sb_sentinel::assemble;
use sb_ycsb::{OpKind, Workload, WorkloadSpec};
use skybridge_repro::scenarios::graph::{
    build_graph, client_payload, drive_one, run_graph_open_loop, DRILL_CACHE, DRILL_RECORDS,
    DRILL_VALUE_LEN,
};
use skybridge_repro::scenarios::runtime::Backend;

fn drill_spec() -> GraphSpec {
    GraphSpec::standard(DRILL_RECORDS, DRILL_VALUE_LEN, DRILL_CACHE)
}

/// A fixed `(key, write)` trace from the seeded YCSB-A generator.
fn trace(spec: &GraphSpec, ops: u64, seed: u64) -> Vec<(u64, bool)> {
    let mut wl = Workload::new(WorkloadSpec {
        seed,
        ..WorkloadSpec::ycsb_a(spec.records, spec.value_len)
    });
    (0..ops)
        .map(|_| {
            let op = wl.next_op();
            (op.key, op.kind != OpKind::Read)
        })
        .collect()
}

/// Replies to a fixed trace driven through the graph under `backend`.
fn replies_for(backend: &Backend, ops: u64, seed: u64) -> Vec<Vec<u8>> {
    let spec = drill_spec();
    let mut t = build_graph(backend, &spec, 1);
    let payload = client_payload(&spec);
    trace(&spec, ops, seed)
        .iter()
        .enumerate()
        .map(|(i, &(key, write))| drive_one(&mut t, i as u64 + 1, key, write, payload))
        .collect()
}

/// The application state a request observes must not depend on which
/// IPC mechanism carried it: the same trace yields byte-identical
/// replies on all five personalities.
#[test]
fn replies_are_byte_identical_across_all_personalities() {
    let backends = Backend::all();
    let reference = replies_for(&backends[0], 48, 0x9a9a);
    assert!(
        reference.iter().any(|r| !r.is_empty()),
        "the trace must produce non-trivial replies"
    );
    for b in &backends[1..] {
        let got = replies_for(b, 48, 0x9a9a);
        assert_eq!(
            got,
            reference,
            "{} diverged from {}",
            b.label(),
            backends[0].label()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The byte-identity holds for arbitrary trace seeds, not just the
    /// hand-picked one.
    #[test]
    fn replies_are_byte_identical_for_any_seed(seed in 1u64..u64::MAX) {
        let backends = Backend::all();
        let reference = replies_for(&backends[0], 24, seed);
        for b in &backends[1..] {
            prop_assert_eq!(&replies_for(b, 24, seed), &reference, "{}", b.label());
        }
    }
}

/// Sentinel assembles each graph request into one connected span tree
/// with the per-hop crossings as children — no new instrumentation, the
/// inner transports' existing recorders light up.
#[test]
fn graph_requests_assemble_connected_span_trees() {
    for backend in Backend::all() {
        let spec = drill_spec();
        let mut t = build_graph(&backend, &spec, 1);
        let rec = Recorder::new(sb_observe::DEFAULT_RING_CAPACITY);
        t.attach_recorder(rec.clone());
        let payload = client_payload(&spec);

        // A cold read: misses the cache, crosses into the db, whose
        // pager I/O crosses into the fs node.
        drive_one(&mut t, 1, 7, false, payload);
        // A warm read of the same key: served at the cache tier.
        drive_one(&mut t, 2, 7, true, payload);

        let forest = assemble(&rec);
        let cold = forest.request(1).expect("cold request trace");
        assert_eq!(
            cold.roots.len(),
            1,
            "{}: one connected tree per request",
            backend.label()
        );
        assert!(
            cold.roots[0].children.len() >= 3,
            "{}: a cold read crosses gateway, cache, db (+fs), got {}",
            backend.label(),
            cold.roots[0].children.len()
        );
        assert!(
            cold.critical_path_cycles() > 0 && cold.critical_path_cycles() <= cold.roots[0].dur,
            "{}: critical path within the request envelope",
            backend.label()
        );

        let warm = forest.request(2).expect("warm request trace");
        assert_eq!(warm.roots.len(), 1, "{}", backend.label());
    }
}

/// The graph transport plugs into the dispatcher like any single-server
/// transport: open-loop runs conserve requests on all five backends.
#[test]
fn open_loop_over_the_graph_conserves_requests() {
    let cfg = RuntimeConfig {
        queue_capacity: 16,
        policy: AdmissionPolicy::Shed,
        queue_deadline: None,
        ..RuntimeConfig::default()
    };
    let spec = drill_spec();
    for backend in Backend::all() {
        let s = run_graph_open_loop(
            &backend,
            &spec,
            2,
            cfg.clone(),
            WorkloadSpec::ycsb_a(spec.records, spec.value_len),
            120_000.0,
            96,
            7,
        );
        assert!(s.conserved(), "{}: conservation", backend.label());
        assert!(s.completed > 0, "{}: requests completed", backend.label());
        assert!(
            s.bytes_copied > 0,
            "{}: the copy meter sees the hops",
            backend.label()
        );
    }
}

/// `GraphTransport::node_pmus` shows which node's TLB is thrashing, and
/// on the standard graph none is: a VMFUNC crossing leaves the TLB
/// alone, so in steady state every node — fs included — finds its
/// crossing's pages resident and walks only when the workload's own
/// record pages push one another out. Until PR 23 the fs node took
/// exactly 3.00 d-TLB misses, 3.00 nested walks and 67 walk accesses on
/// *every* crossing: five of its pages shared d-TLB set 0 of four ways
/// (DESIGN.md §9). `tests/layout.rs` now keeps the layout from putting
/// them back; this pins what the machine then measures — over these
/// 4 000 requests gateway / cache / db / fs take 81 / 178 / 148 / 0
/// d-TLB misses in 4 000 / 4 000 / 3 036 / 4 586 crossings (0.02 / 0.04 /
/// 0.05 / 0.00 per crossing), each a nested walk of 24 accesses. A
/// change that moves a node past one miss in four crossings has changed
/// the model.
#[test]
fn node_pmus_show_no_node_thrashing_its_dtlb() {
    const OPS: u64 = 4_000;
    let spec = GraphSpec::standard(4096, 48, 256);
    let mut t = build_graph(&Backend::SkyBridge, &spec, 1);
    let payload = client_payload(&spec);
    let mut reads = Workload::new(WorkloadSpec {
        seed: 42,
        ..WorkloadSpec::ycsb_c(spec.records, spec.value_len)
    });
    let mut drive = |t: &mut sb_graph::GraphTransport, ids: std::ops::Range<u64>| {
        for id in ids {
            drive_one(t, id, reads.next_op().key, false, payload);
        }
    };
    drive(&mut t, 1..2_001);
    assert!(!t.bind(0), "every node's lane is bound: none rebinds");
    let (warm, warm_sum) = (t.node_pmus(), t.pmu().expect("kernel-backed nodes"));
    drive(&mut t, 2_001..2_001 + OPS);

    let nodes: Vec<_> = t
        .node_pmus()
        .into_iter()
        .zip(&warm)
        .map(|((name, now), (_, then))| (name, now.delta(then)))
        .collect();
    let names: Vec<&str> = nodes.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["gateway", "cache", "db", "fs"]);
    let sum = nodes
        .iter()
        .fold(sb_sim::Pmu::new(), |sum, (_, d)| sum.merge(d));
    assert_eq!(t.pmu().expect("kernel-backed nodes").delta(&warm_sum), sum);

    for (name, d) in &nodes {
        // A crossing is a VMFUNC in and a VMFUNC out.
        let crossings = d.vmfuncs / 2;
        assert!(crossings > OPS / 2, "{name}: {crossings} crossings");
        assert_eq!(d.page_walks, d.dtlb_misses, "{name}");
        assert!(
            d.dtlb_misses * 4 < crossings,
            "{name}: {} d-TLB misses in {crossings} crossings",
            d.dtlb_misses
        );
    }
    assert_eq!(sum.l1i_misses, 0);
}

/// A node's SkyBridge transport that, after every call, leaves its
/// kernel's walk-memo counters where the test can read them (a graph
/// owns its nodes as `dyn Transport`).
struct MemoWatch {
    inner: SkyBridgeTransport,
    stats: Rc<Cell<WalkMemoStats>>,
}

impl Transport for MemoWatch {
    fn label(&self) -> &str {
        self.inner.label()
    }
    fn lanes(&self) -> usize {
        self.inner.lanes()
    }
    fn now(&mut self, lane: usize) -> u64 {
        self.inner.now(lane)
    }
    fn wait_until(&mut self, lane: usize, time: u64) {
        self.inner.wait_until(lane, time)
    }
    fn bind(&mut self, lane: usize) -> bool {
        self.inner.bind(lane)
    }
    fn call(&mut self, lane: usize, req: &Request) -> Result<usize, CallError> {
        let out = self.inner.call(lane, req);
        self.stats.set(self.inner.k.mem.walk_memo_stats());
        out
    }
    fn reply(&self, lane: usize) -> &[u8] {
        self.inner.reply(lane)
    }
    fn pmu(&self) -> Option<sb_sim::Pmu> {
        self.inner.pmu()
    }
}

/// The walk memo (DESIGN.md §19) must not be able to die silently: one
/// write per request to a frame some walk has read, or two hot pages
/// sharing a memo slot, would cost the whole gain and move no simulated
/// figure. Once the graph is warm, on reads and writes alike, nothing
/// is recorded, nothing is voided, and every walk of every node is
/// answered. Since PR 23 took the fs node's three walks per crossing
/// away the graph walks about once in nine requests (1 104 walks here,
/// more than 30 000 before); `tests/runtime.rs` holds the same equalities on the
/// KV pipeline, which walks sixteen times per operation.
#[test]
fn the_walk_memo_answers_every_steady_state_walk_of_every_node() {
    let spec = GraphSpec::standard(4096, 48, 256);
    let stats: Vec<Rc<Cell<WalkMemoStats>>> = spec.nodes.iter().map(|_| Rc::default()).collect();
    let transports = spec
        .nodes
        .iter()
        .zip(&stats)
        .map(|(n, stats)| {
            let svc = ServiceSpec::default()
                .with_records(spec.records)
                .with_cpu(n.cpu)
                .with_footprint(n.footprint);
            Box::new(MemoWatch {
                inner: SkyBridgeTransport::new(1, &svc),
                stats: stats.clone(),
            }) as Box<dyn Transport>
        })
        .collect();
    let disk = CellDisk::Ram(RamDisk::new(CELL_DISK_BLOCKS));
    let mut t =
        GraphTransport::assemble_on("graph:skybridge", &spec, transports, 1, disk).expect("valid");
    let payload = client_payload(&spec);
    let mut keys = Workload::new(WorkloadSpec {
        seed: 42,
        ..WorkloadSpec::ycsb_c(spec.records, spec.value_len)
    });
    // One request in eight a write: the journal and the fs log walk too.
    let mut drive = |t: &mut GraphTransport, ids: std::ops::Range<u64>| {
        for id in ids {
            drive_one(t, id, keys.next_op().key, id % 8 == 0, payload);
        }
    };
    drive(&mut t, 1..1_001);
    let warm: Vec<_> = stats.iter().map(|s| s.get()).collect();
    let warm_pmus = t.node_pmus();
    drive(&mut t, 1_001..11_001);

    let mut walks = 0;
    for (i, (name, pmu)) in t.node_pmus().into_iter().enumerate() {
        let (now, warm) = (stats[i].get(), warm[i]);
        assert_eq!(
            (now.installed, now.invalidated),
            (warm.installed, warm.invalidated),
            "{name}: the memo recorded or voided a walk in steady state"
        );
        let walked = pmu.delta(&warm_pmus[i].1).page_walks;
        assert_eq!(now.answered - warm.answered, walked, "{name}");
        walks += walked;
    }
    assert!(walks > 1_000, "{walks} walks in 10 000 requests");
}
