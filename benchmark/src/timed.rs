//! Host-clock spans recorded from outside the program.
//!
//! The repository's own recorder lights the *simulated* clock. Host
//! time is measured here, in the benchmark's files, around the calls
//! into each layer: [`Timed<T>`] decorates any [`Transport`] and records
//! one span per crossing into a shared [`Trace`]; [`Tap`] does the
//! same for an arrival iterator. A span's self time is its duration
//! minus the part its child spans cover, so the per-name self times of
//! one run add up to the run.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use crate::host::ChunkClock;

use sb_observe::Recorder;
use sb_sim::{Cycles, Pmu};
use sb_transport::{BatchComplete, CallError, Request, Transport};

/// Spans kept verbatim for `trace_<workload>.json`; later spans still
/// land in the per-name totals, so the aggregates cover the whole run
/// while the file stays a few MiB.
pub const SPANS_KEPT: usize = 40_000;

/// One span, as written to the trace file.
struct Span {
    /// Index into `SpanLog::names`.
    name: usize,
    /// Host ns since the log's epoch.
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing kept span, if it was kept.
    parent: Option<usize>,
    /// Request (or chunk / draw) identifier shared by one request's spans.
    req: u64,
}

/// Per-name aggregate over every span of a run.
#[derive(Debug, Clone, Default)]
pub struct NameTotals {
    /// Span name, e.g. `transport.call`.
    pub name: &'static str,
    /// The layer (crate) the span measures.
    pub layer: &'static str,
    /// Spans closed.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration − children).
    pub self_ns: u64,
    /// Simulated cycles the spans covered (0 for host-only spans).
    pub cycles: u64,
}

struct Open {
    name: usize,
    start_ns: u64,
    child_ns: u64,
    kept: Option<usize>,
}

/// The in-memory span store of one traced run.
struct SpanLog {
    epoch: Instant,
    recording: bool,
    names: Vec<NameTotals>,
    stack: Vec<Open>,
    spans: Vec<Span>,
}

/// A shared handle to one run's span log; clones record into the same
/// log.
#[derive(Clone)]
pub struct Trace(Rc<RefCell<SpanLog>>);

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty log, not yet recording: set-up and warm-up crossings
    /// stay out of it until [`Trace::start`].
    pub fn new() -> Self {
        Trace(Rc::new(RefCell::new(SpanLog {
            epoch: Instant::now(),
            recording: false,
            names: Vec::new(),
            stack: Vec::new(),
            spans: Vec::new(),
        })))
    }

    /// Registers a span name under its layer and returns its id.
    pub fn name(&self, name: &'static str, layer: &'static str) -> usize {
        let mut log = self.0.borrow_mut();
        if let Some(i) = log.names.iter().position(|n| n.name == name) {
            return i;
        }
        log.names.push(NameTotals {
            name,
            layer,
            ..NameTotals::default()
        });
        log.names.len() - 1
    }

    /// Starts recording (call outside any span); the epoch is now.
    pub fn start(&self) {
        let mut log = self.0.borrow_mut();
        log.epoch = Instant::now();
        log.recording = true;
    }

    /// Stops recording (call outside any span): verification work after
    /// the measured run stays out of the totals.
    pub fn stop(&self) {
        let mut log = self.0.borrow_mut();
        debug_assert!(log.stack.is_empty(), "stop inside an open span");
        log.recording = false;
    }

    /// Opens a span; it becomes the parent of spans opened before it
    /// closes.
    pub fn open(&self, name: usize, req: u64) {
        let mut log = self.0.borrow_mut();
        if !log.recording {
            return;
        }
        let start_ns = log.epoch.elapsed().as_nanos() as u64;
        let kept = (log.spans.len() < SPANS_KEPT).then(|| {
            let parent = log.stack.last().and_then(|o| o.kept);
            log.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                req,
            });
            log.spans.len() - 1
        });
        log.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
    }

    /// Closes the innermost open span, crediting `cycles` simulated
    /// cycles to its name.
    pub fn close(&self, cycles: Cycles) {
        let mut log = self.0.borrow_mut();
        if !log.recording {
            return;
        }
        let end_ns = log.epoch.elapsed().as_nanos() as u64;
        let open = log.stack.pop().expect("close without open");
        let dur = end_ns - open.start_ns;
        if let Some(i) = open.kept {
            log.spans[i].end_ns = end_ns;
        }
        let t = &mut log.names[open.name];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        t.cycles += cycles;
        if let Some(parent) = log.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Per-name totals, in registration order.
    pub fn totals(&self) -> Vec<NameTotals> {
        self.0.borrow().names.clone()
    }

    /// The totals of one name (zeroes when it never appeared).
    pub fn get(&self, name: &str) -> NameTotals {
        self.0
            .borrow()
            .names
            .iter()
            .find(|n| n.name == name)
            .cloned()
            .unwrap_or_default()
    }

    /// Sum of every name's self time: what the spans account for.
    pub fn attributed_ns(&self) -> u64 {
        self.0.borrow().names.iter().map(|n| n.self_ns).sum()
    }

    /// Spans closed over the whole run (kept or not).
    pub fn spans_total(&self) -> u64 {
        self.0.borrow().names.iter().map(|n| n.count).sum()
    }

    /// Renders the kept spans and the totals as one JSON document:
    /// `{"workload", "spans_total", "spans_written", "totals": [...],
    /// "spans": [{name, layer, start_ns, end_ns, parent, req}]}`.
    pub fn to_json(&self, workload: &str) -> String {
        use std::fmt::Write;
        let log = self.0.borrow();
        let mut s = String::with_capacity(log.spans.len() * 120 + 1024);
        let total: u64 = log.names.iter().map(|n| n.count).sum();
        write!(
            s,
            "{{\"workload\":\"{workload}\",\"spans_total\":{total},\"spans_written\":{},\"totals\":[",
            log.spans.len()
        )
        .unwrap();
        for (i, n) in log.names.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write!(
                s,
                "{{\"name\":\"{}\",\"layer\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"cycles\":{}}}",
                n.name, n.layer, n.count, n.total_ns, n.self_ns, n.cycles
            )
            .unwrap();
        }
        s.push_str("],\"spans\":[\n");
        for (i, sp) in log.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let n = &log.names[sp.name];
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                s,
                "{{\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                n.name, n.layer, sp.start_ns, sp.end_ns, parent, sp.req
            )
            .unwrap();
        }
        s.push_str("\n]}\n");
        s
    }
}

/// A [`Transport`] decorator recording one host-clock span per
/// crossing. Every trait method forwards to the inner transport —
/// including the overridden fast paths (`call_batch`, `recover`) — so
/// wrapping changes no simulated figure.
pub struct Timed<T> {
    inner: T,
    trace: Trace,
    name: usize,
}

impl<T: Transport> Timed<T> {
    /// Wraps `inner`; every `call` and every `call_batch` becomes one
    /// span named `name` (a batch span carries its first request's id).
    pub fn new(inner: T, trace: &Trace, name: &'static str, layer: &'static str) -> Self {
        Timed {
            name: trace.name(name, layer),
            trace: trace.clone(),
            inner,
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The wrapped transport, mutably.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwraps.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn now(&mut self, lane: usize) -> Cycles {
        self.inner.now(lane)
    }

    fn wait_until(&mut self, lane: usize, time: Cycles) {
        self.inner.wait_until(lane, time)
    }

    fn bind(&mut self, lane: usize) -> bool {
        self.inner.bind(lane)
    }

    fn call(&mut self, lane: usize, req: &Request) -> Result<usize, CallError> {
        let c0 = self.inner.now(lane);
        self.trace.open(self.name, req.id);
        let out = self.inner.call(lane, req);
        let c1 = self.inner.now(lane);
        self.trace.close(c1 - c0);
        out
    }

    fn reply(&self, lane: usize) -> &[u8] {
        self.inner.reply(lane)
    }

    fn call_batch(&mut self, lane: usize, reqs: &[Request], complete: &mut BatchComplete) -> usize {
        let c0 = self.inner.now(lane);
        self.trace.open(self.name, reqs.first().map_or(0, |r| r.id));
        let n = self.inner.call_batch(lane, reqs, complete);
        let c1 = self.inner.now(lane);
        self.trace.close(c1 - c0);
        n
    }

    fn recover(&mut self, lane: usize) -> bool {
        self.inner.recover(lane)
    }

    fn inject_pkru_stale(&mut self, lane: usize) -> bool {
        self.inner.inject_pkru_stale(lane)
    }

    fn bytes_copied(&self) -> u64 {
        self.inner.bytes_copied()
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.inner.attach_recorder(recorder)
    }

    fn pmu(&self) -> Option<Pmu> {
        self.inner.pmu()
    }
}

/// An arrival-iterator adapter. Every `every`-th draw is a chunk
/// boundary on `clock` (so one long `run_open_loop` yields one host
/// sample per chunk); when tracing, each draw of the wrapped generator
/// is additionally recorded as a span.
pub struct Tap<I> {
    inner: I,
    every: u64,
    drawn: u64,
    clock: Rc<RefCell<ChunkClock>>,
    trace: Option<(Trace, usize)>,
}

impl<I: Iterator<Item = Cycles>> Tap<I> {
    /// Wraps `inner`; draws `0, every, 2·every, …` are chunk
    /// boundaries. A stream of `k * every` arrivals is asked for one
    /// more, which closes the `k`-th chunk.
    pub fn new(
        inner: I,
        every: u64,
        clock: Rc<RefCell<ChunkClock>>,
        trace: Option<&Trace>,
    ) -> Self {
        Tap {
            inner,
            every: every.max(1),
            drawn: 0,
            clock,
            trace: trace.map(|t| (t.clone(), t.name("load.arrival_next", "sb-runtime"))),
        }
    }
}

impl<I: Iterator<Item = Cycles>> Iterator for Tap<I> {
    type Item = Cycles;

    fn next(&mut self) -> Option<Cycles> {
        if self.drawn.is_multiple_of(self.every) {
            self.clock.borrow_mut().boundary(self.every);
        }
        let out = match &self.trace {
            Some((trace, name)) => {
                trace.open(*name, self.drawn);
                let out = self.inner.next();
                trace.close(0);
                out
            }
            None => self.inner.next(),
        };
        self.drawn += 1;
        out
    }
}
