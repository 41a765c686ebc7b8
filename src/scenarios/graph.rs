//! The serving-graph scenario: YCSB through client → gateway → cache →
//! db → fs on every IPC personality, with replay and chaos drills.
//!
//! This is the glue between `sb-graph` (topology, commit log, cell) and
//! the unified [`Backend`] path: each graph node gets an inner
//! transport of the chosen personality carrying that node's service
//! work, and the assembled [`GraphTransport`] plugs into the dispatcher
//! like any single-server transport. Three entry points:
//!
//! * [`run_graph_open_loop`] — the macro-benchmark: Poisson arrivals of
//!   a YCSB mix against the full graph.
//! * [`replay_drill`] — runs a deterministic trace, snapshots the cell
//!   mid-run, keeps serving, then replays `log.since(snapshot)` on a
//!   restored replica and compares final disk images byte-for-byte.
//! * [`run_graph_chaos`] — the power-loss matrix: a fault plane cuts
//!   power mid-request under the cell's disk; recovery is WAL replay
//!   (remount) + db journal rollback + commit-log roll-forward from the
//!   last persisted sequence number, judged against a full-replay
//!   reference cell.

use sb_faultplane::{FaultHandle, FaultMix, FaultPoint};
use sb_fs::{FaultyDisk, RamDisk};
use sb_graph::{disk_digest, CellDisk, GraphCell, GraphSpec, GraphTransport, CELL_DISK_BLOCKS};
use sb_runtime::{
    PoissonArrivals, Request, RequestFactory, RunStats, RuntimeConfig, ServerRuntime, Transport,
};
use sb_ycsb::{OpKind, Workload, WorkloadSpec};

use crate::scenarios::runtime::{build_backend_with_spec, Backend};

/// Records pre-loaded into the drill cells (kept modest: every row
/// passes through the real pager/B-tree/WAL stack).
pub const DRILL_RECORDS: u64 = 96;

/// Value bytes per record in the drills.
pub const DRILL_VALUE_LEN: usize = 48;

/// Cache-tier capacity in the drills.
pub const DRILL_CACHE: usize = 24;

/// Builds the graph transport for `backend`: one inner transport per
/// node, all of the same personality, each carrying that node's
/// per-request service work.
pub fn build_graph(backend: &Backend, spec: &GraphSpec, lanes: usize) -> GraphTransport {
    let disk = CellDisk::Ram(RamDisk::new(CELL_DISK_BLOCKS));
    build_graph_on(backend, spec, lanes, disk)
}

/// [`build_graph`] over an explicit cell disk (chaos drills pass a
/// faulty one — keep its fault plane disarmed until this returns).
pub fn build_graph_on(
    backend: &Backend,
    spec: &GraphSpec,
    lanes: usize,
    disk: CellDisk,
) -> GraphTransport {
    let transports: Vec<Box<dyn Transport>> = spec
        .nodes
        .iter()
        .map(|n| {
            let svc = sb_runtime::ServiceSpec::default()
                .with_records(spec.records.max(1))
                .with_cpu(n.cpu)
                .with_footprint(n.footprint);
            build_backend_with_spec(&svc, backend, lanes)
        })
        .collect();
    GraphTransport::assemble_on(
        format!("graph:{}", backend.label()),
        spec,
        transports,
        lanes,
        disk,
    )
    .expect("serving graph spec must validate")
}

/// The wire payload of client → gateway requests.
pub fn client_payload(spec: &GraphSpec) -> usize {
    spec.nodes
        .first()
        .map(|n| n.payload)
        .unwrap_or(sb_transport::WIRE_MIN)
}

/// One open-loop macro-benchmark run: `requests` Poisson arrivals of
/// `workload` against the graph on `lanes` lanes.
#[allow(clippy::too_many_arguments)] // One knob per load-generation axis.
pub fn run_graph_open_loop(
    backend: &Backend,
    spec: &GraphSpec,
    lanes: usize,
    runtime: RuntimeConfig,
    workload: WorkloadSpec,
    mean_inter_arrival: f64,
    requests: u64,
    seed: u64,
) -> RunStats {
    let mut transport = build_graph(backend, spec, lanes);
    let mut factory = RequestFactory::new(workload, client_payload(spec));
    let arrivals = PoissonArrivals::new(mean_inter_arrival, seed).take(requests as usize);
    ServerRuntime::new(&mut transport, runtime).run_open_loop(arrivals, &mut factory)
}

/// A deterministic YCSB-A request trace for the drills: `(key, write)`
/// pairs drawn from the seeded workload generator.
fn drill_trace(spec: &GraphSpec, ops: u64, seed: u64) -> Vec<(u64, bool)> {
    let mut wl = Workload::new(WorkloadSpec {
        seed,
        ..WorkloadSpec::ycsb_a(spec.records, spec.value_len)
    });
    (0..ops)
        .map(|_| {
            let op = wl.next_op();
            let write = op.kind != OpKind::Read;
            (op.key, write)
        })
        .collect()
}

/// Drives one request through the graph transport on lane 0, returning
/// the application reply bytes.
pub fn drive_one(
    t: &mut GraphTransport,
    id: u64,
    key: u64,
    write: bool,
    payload: usize,
) -> Vec<u8> {
    let req = Request {
        id,
        arrival: t.now(0),
        key,
        write,
        payload,
        client: None,
        tenant: 0,
    };
    t.call(0, &req).expect("graph call");
    t.reply(0).to_vec()
}

/// Outcome of one snapshot/replay drill.
#[derive(Debug, Clone)]
pub struct ReplayDrill {
    /// The serving backend's label.
    pub label: String,
    /// Operations driven through the graph.
    pub ops: u64,
    /// The commit-log position the snapshot captured.
    pub snapshot_seq: u64,
    /// Entries replayed on the restored replica.
    pub replayed: u64,
    /// Content digest of the live cell's final disk.
    pub live_digest: u64,
    /// Content digest of the replayed replica's final disk.
    pub replay_digest: u64,
    /// Whether the cache tiers also matched.
    pub cache_match: bool,
    /// The commit log's audit fingerprint.
    pub log_digest: u64,
}

impl ReplayDrill {
    /// Replay reproduced the live cell byte-for-byte.
    pub fn ok(&self) -> bool {
        self.live_digest == self.replay_digest && self.cache_match
    }
}

/// Runs `ops` deterministic YCSB-A operations through the graph,
/// snapshotting the cell halfway, then replays the commit log from the
/// snapshot on a restored replica and compares final states.
pub fn replay_drill(backend: &Backend, ops: u64, seed: u64) -> ReplayDrill {
    let spec = GraphSpec::standard(DRILL_RECORDS, DRILL_VALUE_LEN, DRILL_CACHE);
    let mut t = build_graph(backend, &spec, 1);
    let label = t.label().to_string();
    let trace = drill_trace(&spec, ops, seed);
    let mid = trace.len() / 2;
    let payload = client_payload(&spec);
    for (i, &(key, write)) in trace[..mid].iter().enumerate() {
        drive_one(&mut t, i as u64 + 1, key, write, payload);
    }
    let snapshot = t.snapshot();
    for (i, &(key, write)) in trace[mid..].iter().enumerate() {
        drive_one(&mut t, (mid + i) as u64 + 1, key, write, payload);
    }
    let cell = t.into_cell();
    let log = cell.log.clone();
    let live_cache = cell.cache().clone();
    let live_digest = disk_digest(cell.into_disk());

    let tail = log.since(snapshot.seq);
    let replica = GraphCell::replay(&snapshot, &tail, DRILL_CACHE);
    let cache_match = replica.cache() == &live_cache;
    ReplayDrill {
        label,
        ops,
        snapshot_seq: snapshot.seq,
        replayed: tail.len() as u64,
        live_digest,
        replay_digest: disk_digest(replica.into_disk()),
        cache_match,
        log_digest: log.digest(),
    }
}

/// Outcome of one power-loss chaos run over the graph.
#[derive(Debug, Clone)]
pub struct GraphChaosOutcome {
    /// The serving backend's label.
    pub label: String,
    /// Operations driven before the power came back.
    pub ops: u64,
    /// Whether the power actually went out mid-run.
    pub died: bool,
    /// The last commit-log sequence number the surviving disk held.
    pub recovered_seq: u64,
    /// Log entries rolled forward after recovery.
    pub rolled_forward: u64,
    /// Whether the recovered cell's rows match the full-replay reference.
    pub rows_match: bool,
    /// Faults injected / detected / recovered / leaked.
    pub injected: u64,
    /// See [`sb_faultplane::FaultReport::leaked`].
    pub leaked: u64,
}

impl GraphChaosOutcome {
    /// The run recovered completely: no leaked faults, state converged.
    pub fn ok(&self) -> bool {
        self.leaked == 0 && self.rows_match
    }
}

/// One power-loss chaos run: YCSB-A through the graph over a
/// fault-injected disk; after the (eventual) power cut, remount the
/// surviving medium (WAL replay), reopen the database (journal
/// rollback), read the last persisted write's sequence number out of
/// the rows, and roll the commit log forward from there. The result
/// must match a reference cell that replays the whole log on pristine
/// hardware, and the fault ledger must balance.
pub fn run_graph_chaos(backend: &Backend, seed: u64, ops: u64) -> GraphChaosOutcome {
    let spec = GraphSpec::standard(DRILL_RECORDS, DRILL_VALUE_LEN, DRILL_CACHE);
    let faults = FaultHandle::new(seed, FaultMix::power());
    faults.disarm(); // the preload must land
    let disk = CellDisk::Faulty(FaultyDisk::new(
        RamDisk::new(CELL_DISK_BLOCKS),
        faults.clone(),
    ));
    let mut t = build_graph_on(backend, &spec, 1, disk);
    let label = t.label().to_string();
    faults.arm();
    let trace = drill_trace(&spec, ops, seed ^ 0x5eed);
    let payload = client_payload(&spec);
    let died = |f: &FaultHandle| {
        f.injected_at(FaultPoint::PowerLoss) > 0 || f.injected_at(FaultPoint::TornWrite) > 0
    };
    let mut driven = 0;
    for (i, &(key, write)) in trace.iter().enumerate() {
        if died(&faults) {
            break; // Power is gone; nothing more reaches the medium.
        }
        drive_one(&mut t, i as u64 + 1, key, write, payload);
        driven += 1;
    }
    faults.disarm();

    // Power comes back: recover the surviving medium.
    let cell = t.into_cell();
    let log = cell.log.clone();
    let survivor = cell.into_disk(); // the FaultyDisk's persisted medium
    let mut recovered = GraphCell::from_disk(survivor, spec.value_len, DRILL_CACHE, None);
    faults.recover_all(FaultPoint::TornWrite);
    faults.recover_all(FaultPoint::PowerLoss);
    let recovered_seq = recovered.recovered_seq();
    let tail = log.since(recovered_seq);
    recovered.roll_forward(recovered_seq, &tail);

    // The reference: the whole log replayed on pristine hardware.
    let mut reference = GraphCell::build(spec.records, spec.value_len, DRILL_CACHE, None);
    reference.roll_forward(0, &log.since(0));

    let report = faults.report();
    GraphChaosOutcome {
        label,
        ops: driven,
        died: died(&faults),
        recovered_seq,
        rolled_forward: tail.len() as u64,
        rows_match: recovered.rows() == reference.rows(),
        injected: report.injected(),
        leaked: report.leaked(),
    }
}
