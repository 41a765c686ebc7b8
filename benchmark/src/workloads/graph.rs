//! `graph_rw` / `graph_ro`: open-loop YCSB through the four-node
//! serving graph (gateway → cache → db → fs) on the SkyBridge
//! personality, dispatched by `ServerRuntime` — the *direct* loop.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use sb_fs::RamDisk;
use sb_graph::{disk_digest, CellDisk, GraphCell, GraphSpec, GraphTransport, CELL_DISK_BLOCKS};
use sb_runtime::{RequestFactory, RuntimeConfig, ServerRuntime, ServiceSpec};
use sb_transport::Transport;
use sb_ycsb::{OpKind, WorkloadSpec};
use skybridge_repro::scenarios::graph::{build_graph, client_payload};
use skybridge_repro::scenarios::runtime::{build_backend_with_spec, Backend};

use super::{digest_stats, sim_from_stats, Check, Prepared, Segment, Size};
use crate::host::{ChunkClock, Digest};
use crate::timed::{Tap, Timed, Trace};

/// Records pre-loaded into the cell.
pub const RECORDS: u64 = 4096;
/// Value bytes per record.
pub const VALUE_LEN: usize = 48;
/// Cache-tier capacity, in records: a sixteenth of the table, so the
/// Zipf head hits and the tail reaches the pager.
pub const CACHE: usize = 256;
/// Serving lanes.
pub const LANES: usize = 2;
/// Fixed inter-arrival gap, in cycles. Absolute, like `serve_ring`'s.
pub const GAP: u64 = 6_000;
/// Requests served before the measured run.
const WARMUP: u64 = 2_000;
/// Bound on admitted-but-unserved requests: deep enough that a burst
/// of writes queues instead of shedding.
const QUEUE: usize = 1_024;

/// The operation mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// YCSB-A's operations at 40% read / 60% update. Not 50/50: reads
    /// and writes form two latency modes a factor of two apart, and at
    /// an even split the median sits on the boundary between them —
    /// measured, `sim_p50_cycles` read 7423 or 9727 depending on which
    /// side of 50.0% the seed's draw fell. At 40/60 the median is
    /// inside the write mode on every seed.
    ReadWrite,
    /// YCSB-C: 100% read.
    ReadOnly,
}

/// The graph every run serves.
pub fn spec() -> GraphSpec {
    GraphSpec::standard(RECORDS, VALUE_LEN, CACHE)
}

fn workload(mix: Mix, seed: u64) -> WorkloadSpec {
    let base = match mix {
        Mix::ReadWrite => WorkloadSpec {
            mix: vec![(OpKind::Read, 40), (OpKind::Update, 60)],
            ..WorkloadSpec::ycsb_a(RECORDS, VALUE_LEN)
        },
        Mix::ReadOnly => WorkloadSpec::ycsb_c(RECORDS, VALUE_LEN),
    };
    WorkloadSpec { seed, ..base }
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        queue_capacity: QUEUE,
        ..RuntimeConfig::default()
    }
}

/// `build_graph(Backend::SkyBridge, ..)` with every node's inner
/// transport wrapped in [`Timed`] before it is handed to the public
/// `GraphTransport::assemble_on` — the same per-node service work, so
/// the traced graph is cycle-for-cycle the untraced one (a traced run
/// checks that it is).
fn build_traced(spec: &GraphSpec, trace: &Trace) -> GraphTransport {
    let transports: Vec<Box<dyn Transport>> = spec
        .nodes
        .iter()
        .map(|n| {
            let svc = ServiceSpec::default()
                .with_records(spec.records.max(1))
                .with_cpu(n.cpu)
                .with_footprint(n.footprint);
            let name = match n.name.as_str() {
                "gateway" => "graph.hop.gateway",
                "cache" => "graph.hop.cache",
                "db" => "graph.hop.db",
                _ => "graph.hop.fs",
            };
            let inner = build_backend_with_spec(&svc, &Backend::SkyBridge, LANES);
            Box::new(Timed::new(inner, trace, name, "sb-transport")) as Box<dyn Transport>
        })
        .collect();
    GraphTransport::assemble_on(
        format!("graph:{}", Backend::SkyBridge.label()),
        spec,
        transports,
        LANES,
        CellDisk::Ram(RamDisk::new(CELL_DISK_BLOCKS)),
    )
    .expect("the standard graph validates")
}

/// Reaches the graph behind an optional [`Timed`] wrapper.
trait AsGraph: Transport {
    fn graph(&mut self) -> &mut GraphTransport;
    fn into_graph(self) -> GraphTransport;
}

impl AsGraph for GraphTransport {
    fn graph(&mut self) -> &mut GraphTransport {
        self
    }
    fn into_graph(self) -> GraphTransport {
        self
    }
}

impl AsGraph for Timed<GraphTransport> {
    fn graph(&mut self) -> &mut GraphTransport {
        self.inner_mut()
    }
    fn into_graph(self) -> GraphTransport {
        self.into_inner()
    }
}

struct Graph<T> {
    t: T,
    f: RequestFactory,
    mix: Mix,
    seed: u64,
    trace: Option<Trace>,
}

/// Boots four SkyBridge servers, preloads the records through the real
/// db/fs stack, and serves a warm-up stream.
pub fn setup(mix: Mix, seed: u64, trace: Option<&Trace>) -> Box<dyn Prepared> {
    fn warmed<T: AsGraph + 'static>(
        mut t: T,
        mix: Mix,
        seed: u64,
        trace: Option<&Trace>,
    ) -> Box<dyn Prepared> {
        let payload = client_payload(&spec());
        let mut warm = RequestFactory::new(workload(mix, seed ^ 0x5741_524d), payload);
        let s = ServerRuntime::new(&mut t, config())
            .run_open_loop((0..WARMUP).map(|i| i * GAP), &mut warm);
        assert_eq!(s.completed, WARMUP, "warm-up must not shed");
        Box::new(Graph {
            t,
            f: RequestFactory::new(workload(mix, seed), payload),
            mix,
            seed,
            trace: trace.cloned(),
        })
    }
    match trace {
        None => warmed(
            build_graph(&Backend::SkyBridge, &spec(), LANES),
            mix,
            seed,
            None,
        ),
        Some(tr) => warmed(
            Timed::new(build_traced(&spec(), tr), tr, "graph.call", "sb-graph"),
            mix,
            seed,
            trace,
        ),
    }
}

impl<T: AsGraph> Prepared for Graph<T> {
    fn run(self: Box<Self>, size: Size) -> Segment {
        let Graph {
            mut t,
            mut f,
            mix,
            seed,
            trace,
        } = *self;
        let cell0 = t.graph().cell().stats;
        let db0 = t.graph().cell().db_stats();
        let log0 = t.graph().cell().log.len() as u64;

        let clock = Rc::new(RefCell::new(ChunkClock::new(trace.as_ref())));
        let arrivals = Tap::new(
            (0..size.ops).map(|i| i * GAP),
            size.chunk,
            clock.clone(),
            trace.as_ref(),
        );
        if let Some(tr) = &trace {
            tr.start();
            tr.open(tr.name("runtime.run", "sb-runtime"), 0);
        }
        let run = Instant::now();
        let stats = ServerRuntime::new(&mut t, config()).run_open_loop(arrivals, &mut f);
        let wall_ns = run.elapsed().as_nanos() as u64;
        if let Some(tr) = &trace {
            tr.close(stats.window());
            tr.stop();
        }
        let cell1 = t.graph().cell().stats;
        let db1 = t.graph().cell().db_stats();

        // Verification tail, outside the measurement: checkpoint the
        // cell, serve one more chunk, and require that replaying the
        // commit log from the snapshot on a restored replica reproduces
        // the live cell's final disk and cache byte for byte.
        let snapshot = t.graph().snapshot();
        let tail = ServerRuntime::new(&mut t, config())
            .run_open_loop((0..size.chunk).map(|i| i * GAP), &mut f);
        let cell = t.into_graph().into_cell();
        let log_len = cell.log.len() as u64;
        let log_digest = cell.log.digest();
        let writes = cell.log.writes();
        let tail_entries = cell.log.since(snapshot.seq).to_vec();
        let live_cache = cell.cache().clone();
        let live_disk = disk_digest(cell.into_disk());
        let replica = GraphCell::replay(&snapshot, &tail_entries, CACHE);
        let replica_cache_ok = replica.cache() == &live_cache;
        let replica_disk = disk_digest(replica.into_disk());

        let served = stats.completed + tail.completed;
        let mut checks = vec![
            Check::eq("offered == requested", stats.offered, size.ops),
            Check::eq(
                "offered == completed + shed + timed_out + failed",
                stats.offered,
                stats.completed + stats.shed() + stats.timed_out + stats.failed,
            ),
            Check::eq("every request completed", stats.completed, stats.offered),
            Check::eq(
                "commit-log length == admitted requests",
                log_len,
                log0 + served,
            ),
            Check::eq(
                "snapshot + log.since(seq) replays to the live disk",
                replica_disk,
                live_disk,
            ),
            Check::new(
                "replayed cache tier matches the live one",
                replica_cache_ok,
                format!("{} entries", live_cache.len()),
            ),
            Check::eq(
                "tail replayed is the last chunk",
                tail_entries.len() as u64,
                tail.completed,
            ),
        ];
        if mix == Mix::ReadOnly {
            checks.push(Check::eq("a read-only mix commits no write", writes, 0));
        }

        let mut digest = Digest::default();
        digest_stats(&mut digest, &stats);
        digest.word(log_digest);
        digest.word(live_disk);
        let mut input_digest = Digest::default();
        let mut g = RequestFactory::new(workload(mix, seed), 0);
        for _ in 0..size.ops.min(4096) {
            let r = g.make(0, None);
            input_digest.word(r.key ^ ((r.write as u64) << 63));
        }

        let ops = size.ops as f64;
        let reads = (cell1.reads - cell0.reads) as f64;
        let pager =
            ((db1.cache_hits - db0.cache_hits) + (db1.cache_misses - db0.cache_misses)) as f64;
        let mut layer = vec![
            (
                "graph.cache_hit_ratio",
                (cell1.hits - cell0.hits) as f64 / reads.max(1.0),
            ),
            (
                "db.pager_hit_ratio",
                (db1.cache_hits - db0.cache_hits) as f64 / pager.max(1.0),
            ),
            (
                "db.commits_per_op",
                (db1.commits - db0.commits) as f64 / ops,
            ),
        ];
        if let Some(tr) = &trace {
            layer.push((
                "runtime.self.host_ns",
                tr.get("runtime.run").self_ns as f64 / ops,
            ));
            layer.push((
                "graph.self.host_ns",
                tr.get("graph.call").self_ns as f64 / ops,
            ));
            let mut crossings = 0u64;
            let mut hop_self = 0u64;
            for (hop, host, cycles) in [
                (
                    "graph.hop.gateway",
                    "graph.hop.gateway.host_ns",
                    "graph.hop.gateway.cycles",
                ),
                (
                    "graph.hop.cache",
                    "graph.hop.cache.host_ns",
                    "graph.hop.cache.cycles",
                ),
                (
                    "graph.hop.db",
                    "graph.hop.db.host_ns",
                    "graph.hop.db.cycles",
                ),
                (
                    "graph.hop.fs",
                    "graph.hop.fs.host_ns",
                    "graph.hop.fs.cycles",
                ),
            ] {
                let n = tr.get(hop);
                crossings += n.count;
                hop_self += n.self_ns;
                layer.push((host, n.total_ns as f64 / n.count.max(1) as f64));
                layer.push((cycles, n.cycles as f64 / n.count.max(1) as f64));
            }
            layer.push(("graph.crossings_per_op", crossings as f64 / ops));
            layer.push(("transport.call_self.host_ns", hop_self as f64 / ops));
        }
        layer.extend(super::runtime_layer(&stats));
        let ChunkClock { ns, unit_ns, .. } = Rc::try_unwrap(clock)
            .ok()
            .expect("the run dropped its tap")
            .into_inner();

        Segment {
            attempted: stats.offered,
            failed: stats.offered - stats.completed,
            chunk_ns: ns,
            unit_ns,
            wall_ns,
            sim: sim_from_stats(&stats),
            digest,
            input_digest,
            checks,
            layer,
        }
    }
}
