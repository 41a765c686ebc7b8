//! Critical-path decomposition of multi-hop chains, per personality.
//!
//! A depth-3 nested IPC chain (client → server → server → leaf) runs on
//! every personality with causal tracing armed; each request's span
//! tree is assembled from the event rings and its critical path must
//! cover the client-observed end-to-end cycles within 5% on every
//! request (`results/sentinel.json`). A personality's cycles per direct
//! call are `runtime_scaling`'s `service_cycles`.
//!
//! Its host-clock cost is measured elsewhere: the tracer's tax is
//! `benchmark/`'s `trace.overhead_pct` and `observe.emit.host_ns`, and
//! the SLO tracker allocates nothing per completion (`tests/ring_alloc.rs`).

use std::path::Path;

use crate::gate::{Bound, Gate};
use crate::Artefact;
use sb_observe::{Json, Recorder};
use sb_sentinel::assemble;
use skybridge_repro::scenarios::runtime::Backend;
use skybridge_repro::scenarios::sentinel::chain_for;

/// Tolerance on critical-path coverage of end-to-end cycles.
const PATH_TOLERANCE: f64 = 0.05;

pub fn run(_: &Path, a: &mut Artefact) {
    let mut rows = Vec::new();
    for backend in Backend::all() {
        let label = backend.label();

        // Critical path on a multi-hop chain: the assembled tree must
        // cover the client-observed end-to-end cycles on every request.
        let recorder = Recorder::new(sb_observe::DEFAULT_RING_CAPACITY);
        let run = chain_for(&backend, 3, 8, &recorder);
        let forest = assemble(&recorder);
        let mut worst = 1.0f64;
        let mut dominant = String::from("-");
        for &(corr, end_to_end) in &run.requests {
            let tree = forest.request(corr);
            a.check(
                "requests without a span tree",
                "requests",
                tree.is_none(),
                || format!("{label}: request {corr} missing from the forest"),
            );
            let Some(tr) = tree else { continue };
            let cover = if end_to_end == 0 {
                1.0
            } else {
                tr.critical_path_cycles() as f64 / end_to_end as f64
            };
            if (cover - 1.0).abs() > (worst - 1.0).abs() {
                worst = cover;
            }
            if let Some(step) = tr.dominant() {
                dominant = format!("{} ({} cyc)", step.kind.name(), step.cycles);
            }
        }
        a.gates.push(Gate::new(
            format!("{label}: worst |critical path / end-to-end - 1|"),
            (worst - 1.0).abs(),
            Bound::AtMost(PATH_TOLERANCE),
            "ratio",
        ));

        rows.push(
            Json::obj()
                .field("transport", label)
                .field("critical_path_cover", worst)
                .field("dominant_step", dominant),
        );
    }
    a.rows(
        "critical paths of a depth-3 chain (simulated cycles)",
        &rows,
        "transport critical_path_cover dominant_step",
    );

    let doc = Json::obj()
        .field("bench", "sentinel")
        .field("path_tolerance", PATH_TOLERANCE)
        .field("rows", Json::Arr(rows));
    a.json("sentinel.json", &doc);
}
