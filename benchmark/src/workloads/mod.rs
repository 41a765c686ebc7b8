//! The five workloads.
//!
//! Each workload is set up from a seed ([`setup`]), then run once at a
//! fixed operation count ([`Prepared::run`]) — never for a time box, so
//! every simulated figure is exact for (seed, size). Host time is
//! sampled per chunk of equal operation count inside that one run.

use sb_runtime::RunStats;

use crate::host::{at_reference_speed, Digest};
use crate::timed::Trace;

pub mod graph;
pub mod serve_ring;
pub mod xcall;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop over `SkyBridgeTransport::call`.
    XcallSky,
    /// The same loop over `TrapIpcTransport` (seL4).
    XcallTrap,
    /// Open-loop Poisson load through `RingRuntime` + tenant fabric.
    ServeRing,
    /// Open-loop 40/60 read/update through the serving graph (direct
    /// dispatcher).
    GraphRw,
    /// Open-loop YCSB-C through the same graph.
    GraphRo,
}

impl Kind {
    /// All five, in suite order.
    pub const ALL: [Kind; 5] = [
        Kind::XcallSky,
        Kind::XcallTrap,
        Kind::ServeRing,
        Kind::GraphRw,
        Kind::GraphRo,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::XcallSky => "xcall_sky",
            Kind::XcallTrap => "xcall_trap",
            Kind::ServeRing => "serve_ring",
            Kind::GraphRw => "graph_rw",
            Kind::GraphRo => "graph_ro",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why this workload is in the suite (one line).
    pub fn why(self) -> &'static str {
        match self {
            Kind::XcallSky => {
                "the paper's own path: sb-sim, sb-mem, skybridge core and sb-rootkernel do all the work; sb-runtime, sb-graph and storage do none"
            }
            Kind::XcallTrap => {
                "the same sim/mem layers used differently (SYSCALL edges, KPTI CR3 reloads, TLB refills, message copies): a VMFUNC change must read no change here"
            }
            Kind::ServeRing => {
                "nothing simulated underneath, so dispatcher, rings, tenant fabric, load generation and stats are all of the host time"
            }
            Kind::GraphRw => {
                "the full stack: graph cell, commit log, db journal and fs log do most of the host work; writes cost about 4x reads"
            }
            Kind::GraphRo => {
                "the same graph, db and fs layers used differently: cache-tier hits and pager reads, no journal, IPC hops a larger share"
            }
        }
    }

    /// Operations per second of run budget and operations per chunk,
    /// sized on the reference host so `--seconds S` measures for about
    /// `S` seconds while the operation count stays a pure function of
    /// `S` (never of how fast the host happened to be).
    pub fn rate(self) -> (u64, u64) {
        match self {
            Kind::XcallSky => (500_000, 20_000),
            Kind::XcallTrap => (125_000, 5_000),
            Kind::ServeRing => (1_200_000, 40_000),
            Kind::GraphRw => (22_000, 1_000),
            Kind::GraphRo => (50_000, 2_000),
        }
    }

    /// The full-size run for a `seconds` budget.
    pub fn size(self, seconds: u64) -> Size {
        let (per_second, chunk) = self.rate();
        Size::new(per_second * seconds, chunk)
    }
}

/// How much one run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Operations measured (a whole number of chunks).
    pub ops: u64,
    /// Operations per host-time sample.
    pub chunk: u64,
}

impl Size {
    /// `ops` rounded down to a whole number of `chunk`s (at least one).
    pub fn new(ops: u64, chunk: u64) -> Self {
        let chunk = chunk.max(1);
        Size {
            ops: (ops / chunk).max(1) * chunk,
            chunk,
        }
    }

    /// The traced run: a quarter of the operations, same chunking.
    pub fn quarter(self) -> Self {
        Size::new(self.ops / 4, self.chunk)
    }

    /// A `1/div` run with chunks shrunk to keep at least eight samples.
    pub fn shrunk(self, div: u64) -> Self {
        let ops = (self.ops / div).max(8);
        Size::new(ops, (ops / 8).clamp(1, self.chunk))
    }

    /// Host samples one run yields.
    pub fn chunks(self) -> u64 {
        self.ops / self.chunk
    }
}

/// The simulated-clock figures of one run: exact for (seed, size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFigures {
    /// Lane busy cycles per completed operation.
    pub cycles_per_op: f64,
    /// Median client-observed latency.
    pub p50: u64,
    /// 99th-percentile client-observed latency.
    pub p99: u64,
    /// Completed ÷ offered.
    pub served_share: f64,
}

/// One named output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The values compared, for the failure message.
    pub detail: String,
}

impl Check {
    /// A check that `ok` holds.
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }

    /// A check that two values are equal.
    pub fn eq<T: PartialEq + std::fmt::Debug>(name: impl Into<String>, a: T, b: T) -> Self {
        let ok = a == b;
        Check::new(name, ok, format!("{a:?} vs {b:?}"))
    }
}

/// What one measured run produced.
pub struct Segment {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not complete (errors, sheds, timeouts).
    pub failed: u64,
    /// Host ns per operation, one sample per chunk.
    pub chunk_ns: Vec<f64>,
    /// The host unit sampled right after each chunk.
    pub unit_ns: Vec<f64>,
    /// Host ns of the whole measured run.
    pub wall_ns: u64,
    /// The simulated-clock figures.
    pub sim: SimFigures,
    /// Digest of everything the program returned (replies, commit log,
    /// final disk, counters) — equal across repeats of a seed.
    pub digest: Digest,
    /// Digest of the generated inputs — differs across seeds.
    pub input_digest: Digest,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Workload-specific per-layer values (traced runs only).
    pub layer: Vec<(&'static str, f64)>,
}

impl Segment {
    /// Host ns per operation at the reference host's quiet speed: each
    /// chunk's ns per operation is normalised by the unit sampled right
    /// after it, and the median of those is reported.
    pub fn host_ns_per_op(&self) -> f64 {
        let normalised: Vec<f64> = self
            .chunk_ns
            .iter()
            .zip(&self.unit_ns)
            .map(|(&ns, &unit)| at_reference_speed(ns, unit))
            .collect();
        crate::metrics::median(&normalised)
    }
}

/// A workload that has been set up (booted, registered, loaded, warmed)
/// and is ready for its first timed operation.
pub trait Prepared {
    /// Runs the measurement at `size`.
    fn run(self: Box<Self>, size: Size) -> Segment;
}

/// Sets `kind` up from `seed`. With a `trace`, transports are wrapped
/// in [`crate::timed::Timed`] and generators tapped.
pub fn setup(kind: Kind, seed: u64, trace: Option<&Trace>) -> Box<dyn Prepared> {
    match kind {
        Kind::XcallSky => xcall::setup(xcall::Personality::Sky, seed, trace),
        Kind::XcallTrap => xcall::setup(xcall::Personality::Trap, seed, trace),
        Kind::ServeRing => serve_ring::setup(seed, trace),
        Kind::GraphRw => graph::setup(graph::Mix::ReadWrite, seed, trace),
        Kind::GraphRo => graph::setup(graph::Mix::ReadOnly, seed, trace),
    }
}

/// The figures of an open-loop run, from its [`RunStats`].
pub fn sim_from_stats(s: &RunStats) -> SimFigures {
    let busy: u64 = s.busy.iter().sum();
    SimFigures {
        cycles_per_op: busy as f64 / s.completed.max(1) as f64,
        p50: s.p50(),
        p99: s.p99(),
        served_share: s.completed as f64 / s.offered.max(1) as f64,
    }
}

/// Folds every counter of `s` into `d`: two runs of a seed must agree
/// on all of them.
pub fn digest_stats(d: &mut Digest, s: &RunStats) {
    for v in [
        s.offered,
        s.completed,
        s.shed_queue_full,
        s.shed_deadline,
        s.shed_rate_limit,
        s.timed_out,
        s.failed,
        s.retries,
        s.bytes_copied,
        s.start,
        s.end,
        s.max_queue_depth as u64,
        s.p50(),
        s.p99(),
    ] {
        d.word(v);
    }
    for b in &s.busy {
        d.word(*b);
    }
    for (id, t) in &s.tenants {
        d.word(*id as u64);
        d.word(t.offered);
        d.word(t.completed);
        d.word(t.shed());
    }
}

/// The serving-loop figures every open-loop workload reports per layer.
pub fn runtime_layer(s: &RunStats) -> Vec<(&'static str, f64)> {
    let busy: u64 = s.busy.iter().sum();
    let service = busy as f64 / s.completed.max(1) as f64;
    vec![
        // Mean latency and mean service are both exact in `RunStats`,
        // so their difference is the exact mean wait.
        ("runtime.queue_wait_mean.cycles", s.mean() - service),
        ("runtime.max_queue_depth", s.max_queue_depth as f64),
        (
            "runtime.util",
            busy as f64 / (s.window().max(1) as f64 * s.workers as f64),
        ),
        ("runtime.shed_rate_limit", s.shed_rate_limit as f64),
        ("runtime.shed_queue_full", s.shed_queue_full as f64),
        ("runtime.retries", s.retries as f64),
    ]
}
