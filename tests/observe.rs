//! Observability integration: the trace stream every transport emits
//! must be *well-formed* (spans nest, exports parse) and *truthful*
//! (phase cycles live inside the calls they describe, queue events match
//! the dispatcher's accounting, ring overwrite is surfaced — never
//! silent).

use std::collections::BTreeMap;

use proptest::prelude::*;
use sb_observe::{
    attribute, attribute_by_corr, chrome_trace, Event, EventKind, InstantKind, Json, Log2Histogram,
    Loss, PhaseProfile, Recorder, SpanKind,
};
use sb_runtime::{Request, RuntimeConfig};
use skybridge_repro::scenarios::runtime::{build_backend, Backend};

fn req(id: u64, key: u64, write: bool) -> Request {
    Request {
        id,
        arrival: 0,
        key,
        write,
        payload: 64,
        client: None,
        tenant: 0,
    }
}

/// Drives `calls` requests straight at `backend`'s transport (no
/// dispatcher) with tracing on and returns the recorder.
fn trace_calls(backend: &Backend, lanes: usize, keys: &[u64]) -> Recorder {
    let recorder = Recorder::new(1 << 14);
    let mut t = build_backend(backend, lanes);
    t.attach_recorder(recorder.clone());
    for (i, &k) in keys.iter().enumerate() {
        let lane = i % lanes;
        t.call(lane, &req(i as u64, k, k % 2 == 0)).unwrap();
    }
    recorder
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The histogram keeps its count, minimum and maximum exact for
    /// arbitrary samples, whatever its buckets round.
    #[test]
    fn histogram_keeps_exact_count_min_and_max(
        samples in proptest::collection::vec(0u64..2_000_000, 0..400),
    ) {
        let mut h = Log2Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min(), samples.iter().copied().min().unwrap_or(0));
        prop_assert_eq!(h.max(), samples.iter().copied().max().unwrap_or(0));
    }

    /// Span nesting is well-formed on every personality for arbitrary
    /// key sequences: every End matches the innermost open Begin of its
    /// kind and no span is left open once the lane goes idle.
    #[test]
    fn spans_nest_on_every_personality(
        keys in proptest::collection::vec(0u64..10_000, 1..24),
    ) {
        for backend in Backend::all() {
            let rec = trace_calls(&backend, 2, &keys);
            let (_, pass) = rec.capture(usize::MAX);
            prop_assert_eq!(pass.loss, Loss::default(), "{}", backend.label());
            let spans = pass.lanes.iter().map(Vec::len).sum::<usize>() as u64;
            prop_assert!(
                spans >= keys.len() as u64,
                "{}: at least one span per call, got {spans} for {} calls",
                backend.label(),
                keys.len()
            );
        }
    }
}

/// Phase attribution tells the truth: every personality's attributed
/// phase cycles sit inside the Call spans that contain them, and the
/// phases the paper's Figure 7 decomposes (trampoline / switch / handler
/// for SkyBridge, kernel IPC for the traps) actually show up.
#[test]
fn phases_fit_inside_their_calls() {
    let keys: Vec<u64> = (0..32).collect();
    for backend in Backend::all() {
        let rec = trace_calls(&backend, 1, &keys);
        let by_lane: Vec<_> = (0..rec.lane_count()).map(|l| rec.events(l)).collect();
        let prof = attribute(&by_lane);
        let label = backend.label();
        assert_eq!(
            prof.calls,
            keys.len() as u64,
            "{label}: one Call span per call"
        );
        assert_eq!(prof.loss.unmatched, 0, "{label}: no dangling begin/end");
        assert_eq!(
            prof.in_call_total(),
            prof.end_to_end,
            "{label}: in-call phase self-times must decompose end-to-end exactly"
        );
        match backend {
            Backend::SkyBridge => {
                for k in [SpanKind::Trampoline, SpanKind::Switch, SpanKind::Handler] {
                    assert!(prof.get(k) > 0, "{label}: {} cycles missing", k.name());
                }
            }
            Backend::Trap(_) => {
                for k in [SpanKind::KernelIpc, SpanKind::Marshal, SpanKind::Handler] {
                    assert!(prof.get(k) > 0, "{label}: {} cycles missing", k.name());
                }
            }
            Backend::Mpk => {
                for k in [SpanKind::Wrpkru, SpanKind::Marshal, SpanKind::Handler] {
                    assert!(prof.get(k) > 0, "{label}: {} cycles missing", k.name());
                }
            }
        }
    }
}

const TENANT_CALLS: u64 = 2048;
const TENANTS: u64 = 3;

/// Drives 2 048 calls billed round-robin to three tenants straight at
/// `backend`'s transport and returns the whole capture, lane by lane.
fn trace_tenant_calls(backend: &Backend) -> Vec<Vec<Event>> {
    let recorder = Recorder::new(1 << 16);
    let mut t = build_backend(backend, 1);
    t.attach_recorder(recorder.clone());
    for i in 0..TENANT_CALLS {
        let r = Request {
            tenant: (i % TENANTS) as u16,
            ..req(i, i.wrapping_mul(0x9e37_79b9) % 10_000, i % 3 == 0)
        };
        t.call(0, &r).unwrap();
    }
    assert_eq!(
        recorder.dropped(),
        0,
        "{}: the ring holds the capture",
        backend.label()
    );
    recorder.take_lane_events()
}

/// The flamegraph is the exact profile, not an estimate of it: on every
/// personality, over 2 048 calls billed to three tenants, the stack
/// folds' leaf sums are the per-phase self-cycles and their total is the
/// end-to-end call cycles.
#[test]
fn stack_folds_are_the_exact_phase_profile_on_every_personality() {
    for backend in Backend::all() {
        let label = backend.label();
        let prof = attribute(&trace_tenant_calls(&backend));
        assert_eq!(prof.calls, TENANT_CALLS, "{label}");

        let mut leaves = BTreeMap::new();
        for (path, &cycles) in &prof.stacks {
            let leaf = path.rsplit(';').next().expect("a path has a frame");
            *leaves.entry(leaf).or_insert(0) += cycles;
        }
        assert_eq!(leaves, prof.phases, "{label}: leaf sums are the phases");
        assert_eq!(
            prof.stacks.values().sum::<u64>(),
            prof.end_to_end,
            "{label}: the folds decompose end-to-end exactly"
        );
    }
}

/// The per-tenant flamegraphs partition the overall one: splitting the
/// same capture by the request id every span carries gives one exact
/// fold per tenant, and those folds sum to the overall fold.
#[test]
fn tenant_stack_folds_partition_the_overall_fold() {
    for backend in Backend::all() {
        let label = backend.label();
        let by_lane = trace_tenant_calls(&backend);
        let prof = attribute(&by_lane);
        let parts = attribute_by_corr(&by_lane, |corr| corr % TENANTS);
        assert_eq!(parts.len() as u64, TENANTS, "{label}");
        let mut recombined = PhaseProfile::default();
        for part in parts.values() {
            recombined.merge(part);
        }
        assert_eq!(
            (recombined.loss.unmatched, recombined.loss.unclosed),
            (0, 0),
            "{label}"
        );
        assert_eq!(
            recombined.stacks, prof.stacks,
            "{label}: tenant folds sum to the whole"
        );
    }
}

/// A dispatcher run under tracing emits the queue-side events — one
/// admit instant per queued arrival on the queue's pseudo-lane — and the
/// whole stream still exports as valid, well-nested Chrome trace JSON in
/// the shape Perfetto's importer keys on: the `ns` time-unit header,
/// complete (`"X"`) events, and a lossless `otherData` (`truncated`
/// false, every key of its `loss` zero).
#[test]
fn dispatcher_runs_export_clean_traces() {
    let recorder = Recorder::new(1 << 15);
    let cfg = RuntimeConfig {
        queue_capacity: 32,
        recorder: recorder.clone(),
        ..RuntimeConfig::default()
    };
    let stats = skybridge_repro::scenarios::runtime::run_open_loop(
        &Backend::SkyBridge,
        2,
        cfg,
        None,
        9_000.0,
        160,
        0x000b_5e41,
    );
    assert!(stats.completed > 0);

    let (_, pass) = recorder.capture(usize::MAX);
    assert_eq!(pass.loss, Loss::default(), "dispatcher trace must nest");
    let pseudo = 2; // Queue events land on lane index `transport.lanes()`.
    let admits = recorder
        .events(pseudo)
        .iter()
        .filter(|e| e.kind == EventKind::Instant(InstantKind::QueueAdmit))
        .count() as u64;
    assert_eq!(
        admits,
        stats.offered - stats.shed_queue_full,
        "one admit instant per queued arrival"
    );

    let trace = chrome_trace(&recorder);
    assert_eq!(trace.loss.ring_dropped, 0, "this run fits the ring");
    assert!(trace.events > 0);
    assert_eq!(trace.loss.unmatched + trace.loss.unclosed, 0);
    let doc = Json::parse(&trace.json).expect("chrome trace must be valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ns")
    );
    let events = doc.get("traceEvents").and_then(Json::as_array);
    assert!(
        events.is_some_and(|evs| evs
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("X"))),
        "complete events present"
    );
    let other = doc.get("otherData").expect("otherData");
    assert!(matches!(other.get("truncated"), Some(Json::Bool(false))));
    for key in ["ring_dropped", "clipped", "unmatched", "unclosed"] {
        let lost = other.get("loss").and_then(|l| l.get(key));
        assert!(matches!(lost, Some(Json::U64(0))), "loss.{key}: {lost:?}");
    }
}

/// Ring overwrite is loud, not silent: a deliberately tiny ring drops
/// events, the recorder's drop counter sees them, and the export both
/// flags the truncation and still produces valid JSON.
#[test]
fn ring_overwrite_is_surfaced_by_the_export() {
    let recorder = Recorder::new(64);
    let mut t = build_backend(&Backend::SkyBridge, 1);
    t.attach_recorder(recorder.clone());
    for i in 0..200u64 {
        t.call(0, &req(i, i, i % 2 == 0)).unwrap();
    }
    assert!(
        recorder.dropped() > 0,
        "200 calls must overflow a 64-slot ring"
    );
    let trace = chrome_trace(&recorder);
    assert!(
        trace.loss.ring_dropped > 0,
        "the export must admit it lost events"
    );
    assert_eq!(trace.loss.ring_dropped, recorder.dropped());
    Json::parse(&trace.json).expect("a truncated trace is still valid JSON");
}

/// Every committed JSON artefact reads back through the one parser, and
/// none nests anywhere near its depth limit of 128: the deepest,
/// `runtime_scaling.json` and `tenant.json`, nest 6 deep (as does a
/// postmortem bundle's `rings.lanes[].events[]` entry).
#[test]
fn committed_json_artefacts_parse_well_inside_the_depth_limit() {
    fn depth(j: &Json) -> usize {
        match j {
            Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
            Json::Obj(fields) => 1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
            _ => 0,
        }
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let mut deepest = 0;
    for entry in std::fs::read_dir(dir).expect("results/") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|x| x == "json") {
            let text = std::fs::read_to_string(&path).expect("readable");
            let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            deepest = deepest.max(depth(&doc));
        }
    }
    assert!(
        (1..=16).contains(&deepest),
        "deepest artefact nests {deepest} deep"
    );
}

/// A disabled recorder attached to a transport records nothing — the
/// always-on hooks really are free to turn off.
#[test]
fn disabled_recorder_records_nothing() {
    let recorder = Recorder::off();
    let mut t = build_backend(&Backend::SkyBridge, 1);
    t.attach_recorder(recorder.clone());
    for i in 0..8u64 {
        t.call(0, &req(i, i, false)).unwrap();
    }
    assert_eq!(recorder.recorded(), 0);
    assert_eq!(recorder.dropped(), 0);
}
