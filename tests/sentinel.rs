//! Sentinel integration: causal trace assembly must be *connected*
//! (every multi-hop request is one tree under one trace id), *truthful*
//! (the critical path reproduces the client-observed end-to-end cycles),
//! *honest under loss* (a wrapped ring reports exactly what it dropped
//! and never fabricates a partial tree), and the flight recorder must
//! turn an incident into a schema-clean postmortem bundle.

use proptest::prelude::*;
use sb_observe::{attribute, attribute_by_corr, Json, Recorder};
use sb_sentinel::{assemble, PostmortemSpec};
use skybridge_repro::scenarios::chaos::run_postmortem_drill;
use skybridge_repro::scenarios::runtime::Backend;
use skybridge_repro::scenarios::sentinel::{chain_for, skybridge_chain};

/// The tolerance the acceptance gate allows between the assembled
/// critical path and the simulator's own end-to-end measurement.
const PATH_TOLERANCE: f64 = 0.05;

fn assert_path_covers(label: &str, corr: u64, path: u64, end_to_end: u64) {
    let cover = path as f64 / end_to_end.max(1) as f64;
    assert!(
        (cover - 1.0).abs() <= PATH_TOLERANCE,
        "{label}: request {corr}: critical path {path} covers {:.1}% of \
         the {end_to_end}-cycle end-to-end",
        cover * 100.0
    );
}

/// Every personality's multi-hop chain assembles into one connected
/// tree per request, and the tree's critical path matches the cycles
/// the client actually waited.
#[test]
fn chains_assemble_connected_trees_on_every_personality() {
    for backend in Backend::all() {
        let rec = Recorder::new(sb_observe::DEFAULT_RING_CAPACITY);
        let run = chain_for(&backend, 3, 6, &rec);
        let forest = assemble(&rec);
        let label = backend.label();
        assert_eq!(
            forest.loss.ring_dropped, 0,
            "{label}: a short run fits the ring"
        );
        assert!(forest.poisoned.is_empty(), "{label}: nothing poisoned");
        assert_eq!(forest.requests.len(), run.requests.len());
        for &(corr, end_to_end) in &run.requests {
            let tr = forest
                .request(corr)
                .unwrap_or_else(|| panic!("{label}: request {corr} missing"));
            assert_eq!(
                tr.roots.len(),
                1,
                "{label}: request {corr} must be one connected tree"
            );
            assert!(
                tr.span_count() > run.depth,
                "{label}: request {corr}: {} spans cannot cover {} hops",
                tr.span_count(),
                run.depth
            );
            assert_path_covers(label, corr, tr.critical_path_cycles(), end_to_end);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The critical-path identity holds at any nesting depth, on every
    /// personality: deeper chains mean deeper trees, never a divergence
    /// between the assembled path and the measured end-to-end.
    #[test]
    fn critical_path_matches_end_to_end_at_any_depth(depth in 1usize..6) {
        for backend in Backend::all() {
            let rec = Recorder::new(sb_observe::DEFAULT_RING_CAPACITY);
            let run = chain_for(&backend, depth, 3, &rec);
            let forest = assemble(&rec);
            let label = backend.label();
            for &(corr, end_to_end) in &run.requests {
                let tr = forest
                    .request(corr)
                    .unwrap_or_else(|| panic!("{label}: request {corr} missing"));
                prop_assert_eq!(tr.roots.len(), 1);
                assert_path_covers(label, corr, tr.critical_path_cycles(), end_to_end);
            }
        }
    }
}

/// The phase fold and the trace forest read one span pass, so they agree
/// on nested chains: on every personality the fold counts one end-to-end
/// call per request (a nested `Call` is a hop of it, not another call),
/// its in-call phases add up to exactly the cycles the client waited, and
/// each request's fold holds the cycles its tree's critical path does.
#[test]
fn the_fold_and_the_forest_agree_on_nested_chains() {
    for backend in Backend::all() {
        let label = backend.label();
        let rec = Recorder::new(sb_observe::DEFAULT_RING_CAPACITY);
        let run = chain_for(&backend, 3, 4, &rec);
        let lanes: Vec<_> = (0..rec.lane_count()).map(|l| rec.events(l)).collect();
        let prof = attribute(&lanes);
        let waited: u64 = run.requests.iter().map(|&(_, cycles)| cycles).sum();
        assert_eq!(prof.calls, 4, "{label}: one end-to-end call per request");
        assert_eq!(
            prof.end_to_end, waited,
            "{label}: end-to-end is the client's clock"
        );
        assert_eq!(
            prof.in_call_total(),
            prof.end_to_end,
            "{label}: the in-call phases decompose end-to-end exactly"
        );
        let parts = attribute_by_corr(&lanes, |corr| corr);
        let forest = assemble(&rec);
        for &(corr, _) in &run.requests {
            let tree = forest
                .request(corr)
                .unwrap_or_else(|| panic!("{label}: request {corr} missing"));
            assert_eq!(
                tree.critical_path_cycles(),
                parts[&corr].in_call_total(),
                "{label}: request {corr}: the forest and the fold disagree"
            );
        }
    }
}

/// Assembly over a wrapped ring is honest: the forest reports exactly
/// the events the recorder overwrote, the requests whose spans were
/// damaged are named in `poisoned`, and no poisoned request yields a
/// fabricated partial tree.
#[test]
fn wrapped_rings_report_loss_exactly_and_never_fabricate() {
    // 64 slots cannot hold 40 deep-chain requests; the ring must wrap.
    let rec = Recorder::new(64);
    let run = skybridge_chain(3, 40, &rec);
    assert!(rec.dropped() > 0, "the run must overflow a 64-slot ring");

    let forest = assemble(&rec);
    assert_eq!(
        forest.loss.ring_dropped,
        rec.dropped(),
        "the forest must report the recorder's drop count exactly"
    );
    assert!(
        !forest.poisoned.is_empty(),
        "overwrite mid-request must poison the damaged trace ids"
    );
    for &corr in &forest.poisoned {
        assert!(
            forest.request(corr).is_none(),
            "poisoned request {corr} must not surface as a partial tree"
        );
    }
    // Requests that did survive intact still carry the exact identity.
    for &(corr, end_to_end) in &run.requests {
        if let Some(tr) = forest.request(corr) {
            assert_eq!(tr.roots.len(), 1);
            assert_path_covers("skybridge", corr, tr.critical_path_cycles(), end_to_end);
        }
    }
}

/// The flight recorder end-to-end: a drill that leaks a fault on
/// purpose must produce a self-contained bundle that parses, carries
/// the schema tag, and accounts for its capture with the exact counts
/// the receipt reported.
#[test]
fn drill_incident_produces_a_schema_clean_bundle() {
    let dir = std::env::temp_dir().join("sb_sentinel_itest_bundles");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = PostmortemSpec::in_dir(&dir);
    let out = run_postmortem_drill(&Backend::SkyBridge, 0x5e17_11e1, 80, &spec);

    assert!(
        out.report.unrecovered() > 0,
        "the drill must leave a fault stuck"
    );
    let receipt = out.postmortem.expect("an incident must write a bundle");
    // `read_back` holds the schema and the capture block to the receipt.
    let bundle = receipt.read_back().expect("bundle reads back");
    assert_eq!(
        bundle.get("reason").and_then(Json::as_str),
        Some("fault_unrecovered")
    );
    assert!(receipt.included_events > 0, "the drill's rings held events");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bundle carries the flamegraph section — the exact fold of the
/// events it holds, in cycles by open-stack path.
#[test]
fn bundles_carry_flamegraphs() {
    use sb_observe::SpanKind;
    use sb_sentinel::postmortem::{render, PostmortemInput};

    let recorder = Recorder::new(1 << 10);
    recorder.begin(0, SpanKind::Call, 5, 1);
    recorder.span(0, SpanKind::Handler, 20, 60, 1);
    recorder.end(0, SpanKind::Call, 95, 1);

    let input = PostmortemInput {
        reason: "slo_breach",
        tag: "itest",
        recorder: Some(&recorder),
        ..Default::default()
    };
    let (body, ..) = render(&input, 512);
    Json::parse(&body).expect("bundle must be valid JSON");
    assert!(
        body.contains("\"flamegraph\":{\"folds\":{\"call\":50,\"call;handler\":40}}"),
        "the flamegraph charges each frame its self-cycles: {body}"
    );

    // Without a recorder the section renders null, not an empty object.
    let input = PostmortemInput {
        reason: "slo_breach",
        tag: "quiet",
        ..Default::default()
    };
    let (body, ..) = render(&input, 512);
    assert!(body.contains("\"flamegraph\":null"));
}
