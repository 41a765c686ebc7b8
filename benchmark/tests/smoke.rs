//! Smoke test: every workload at 1/1000 size emits every declared
//! metric, repeats exactly on the simulated clock, and the decorators
//! forward what they must.
//!
//! `cargo test --manifest-path benchmark/Cargo.toml`

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use sb_benchmark::contract::{benchmark_json, RUN_SECONDS};
use sb_benchmark::host::ChunkClock;
use sb_benchmark::metrics::{END_TO_END, PER_LAYER};
use sb_benchmark::probes::Scale;
use sb_benchmark::runner::{traced, untraced, Report};
use sb_benchmark::timed::{Tap, Timed, Trace};
use sb_benchmark::workloads::{Kind, Size};
use sb_observe::Recorder;
use sb_sim::{Cycles, Pmu};
use sb_transport::{BatchComplete, CallError, Request, Transport};

fn small(kind: Kind) -> Size {
    kind.size(RUN_SECONDS).shrunk(1000)
}

fn assert_complete(r: &Report, catalogue: &[sb_benchmark::metrics::Metric]) {
    // `rows` panics on a missing or non-finite metric.
    let rows = r.values.rows();
    assert_eq!(rows.len(), catalogue.len());
    for (m, v) in rows {
        assert!(v.is_finite(), "{} on {}", m.name, r.kind.name());
        assert!(
            m.name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{}",
            m.name
        );
    }
    for c in &r.checks {
        assert!(c.ok, "{}: {} ({})", r.kind.name(), c.name, c.detail);
    }
    assert!(r.attempted >= 1);
    assert_eq!(r.failed, 0, "{}", r.kind.name());
}

#[test]
fn every_workload_emits_every_end_to_end_metric_and_repeats_exactly() {
    for kind in Kind::ALL {
        let a = untraced(kind, 7, small(kind), Instant::now());
        assert_complete(&a, END_TO_END);
        for m in END_TO_END {
            assert!(a.values.get(m.name).unwrap() > 0.0, "{} is never 0", m.name);
        }
        let b = untraced(kind, 7, small(kind), Instant::now());
        assert_eq!(a.sim, b.sim, "{}: same seed, same sim metrics", kind.name());
        assert_eq!(
            a.digest,
            b.digest,
            "{}: same seed, same outputs",
            kind.name()
        );
        assert_eq!(a.input_digest, b.input_digest);
        let c = untraced(kind, 8, small(kind), Instant::now());
        assert_ne!(
            a.input_digest,
            c.input_digest,
            "{}: another seed, another input stream",
            kind.name()
        );
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for kind in Kind::ALL {
        let r = traced(kind, 7, small(kind), Scale(500));
        assert_complete(&r, PER_LAYER);
        let trace = r.trace.as_ref().expect("a traced run keeps its spans");
        assert!(trace.spans_total() > 0);
        let json = trace.to_json(kind.name());
        assert!(json.contains("\"spans\":["));
        assert!(json.contains("\"start_ns\":"));
    }
}

#[test]
fn benchmark_json_is_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        benchmark_json(),
        "regenerate with `sb-benchmark --describe > BENCHMARK.json`"
    );
}

/// A transport whose overridable methods record that they ran: if
/// `Timed` fell back to a trait default, the flag would stay clear.
#[derive(Default)]
struct Spy {
    clock: Cycles,
    batched: bool,
    recovered: bool,
    attached: bool,
    reply: Vec<u8>,
}

impl Transport for Spy {
    fn label(&self) -> &str {
        "spy"
    }
    fn lanes(&self) -> usize {
        1
    }
    fn now(&mut self, _lane: usize) -> Cycles {
        self.clock
    }
    fn wait_until(&mut self, _lane: usize, time: Cycles) {
        self.clock = self.clock.max(time);
    }
    fn call(&mut self, _lane: usize, req: &Request) -> Result<usize, CallError> {
        self.clock += 100;
        self.reply = req.encode();
        Ok(self.reply.len())
    }
    fn reply(&self, _lane: usize) -> &[u8] {
        &self.reply
    }
    fn call_batch(&mut self, lane: usize, reqs: &[Request], done: &mut BatchComplete) -> usize {
        self.batched = true;
        // One crossing for the whole batch: cheaper than N calls.
        self.clock += 10;
        for (i, r) in reqs.iter().enumerate() {
            let out = self.call(lane, r);
            done(i, out, &self.reply);
        }
        reqs.len()
    }
    fn recover(&mut self, _lane: usize) -> bool {
        self.recovered = true;
        true
    }
    fn bytes_copied(&self) -> u64 {
        77
    }
    fn attach_recorder(&mut self, _recorder: Recorder) {
        self.attached = true;
    }
    fn pmu(&self) -> Option<Pmu> {
        Some(Pmu {
            vmfuncs: 2,
            ..Pmu::default()
        })
    }
}

fn req(id: u64) -> Request {
    Request {
        id,
        arrival: 0,
        key: id,
        write: false,
        payload: 16,
        client: None,
        tenant: 0,
    }
}

#[test]
fn timed_forwards_the_overridden_paths_and_records_spans() {
    let trace = Trace::new();
    let mut t = Timed::new(Spy::default(), &trace, "spy.call", "test");
    trace.start();
    t.call(0, &req(1)).unwrap();
    assert_eq!(t.reply(0), req(1).encode());
    let mut seen = 0;
    let n = t.call_batch(0, &[req(2), req(3), req(4)], &mut |_, out, _| {
        out.unwrap();
        seen += 1;
    });
    assert_eq!((n, seen), (3, 3));
    assert!(
        t.inner().batched,
        "call_batch must reach the inner fast path"
    );
    assert!(t.recover(0));
    assert!(
        t.inner().recovered,
        "recover must reach the inner transport"
    );
    assert_eq!(t.pmu().map(|p| p.vmfuncs), Some(2));
    t.attach_recorder(Recorder::off());
    assert!(t.inner().attached);
    assert_eq!(t.bytes_copied(), 77);
    trace.stop();
    // Spans recorded after `stop` would be verification work.
    t.call(0, &req(5)).unwrap();

    let spans = trace.get("spy.call");
    assert_eq!(spans.count, 2, "one span per call, one per batch");
    assert_eq!(
        spans.cycles,
        100 + 310,
        "simulated cycles ride on the spans"
    );
    assert_eq!(
        spans.self_ns, spans.total_ns,
        "leaf spans are all self time"
    );
}

#[test]
fn nested_spans_split_self_time() {
    let trace = Trace::new();
    let outer = trace.name("outer", "test");
    let inner = trace.name("inner", "test");
    trace.start();
    trace.open(outer, 1);
    trace.open(inner, 1);
    std::thread::sleep(std::time::Duration::from_millis(2));
    trace.close(0);
    trace.close(0);
    trace.stop();
    let (o, i) = (trace.get("outer"), trace.get("inner"));
    assert_eq!(o.total_ns, o.self_ns + i.total_ns);
    assert_eq!(trace.attributed_ns(), o.total_ns);
    assert!(trace.to_json("t").contains("\"parent\":0"));
}

#[test]
fn tap_closes_one_chunk_per_every_draws() {
    let clock = Rc::new(RefCell::new(ChunkClock::new(None)));
    let drawn: Vec<Cycles> = Tap::new((0..12u64).map(|i| i * 5), 4, clock.clone(), None).collect();
    assert_eq!(drawn.len(), 12, "the tap changes nothing it forwards");
    assert_eq!(drawn[11], 55);
    // Boundaries at draws 0, 4, 8 and the one-past-the-end draw 12:
    // three closed chunks, each with its unit sample.
    assert_eq!(clock.borrow().ns.len(), 3);
    assert_eq!(clock.borrow().unit_ns.len(), 3);
    assert!(clock.borrow().unit_ns.iter().all(|u| *u > 0.0));
}
