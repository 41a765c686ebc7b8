//! `BENCHMARK.json`, rendered from the catalogue.
//!
//! The file at the repository root is this function's output
//! (`sb-benchmark --describe`); the smoke test fails if the two drift
//! apart, so names, units, directions and bounds are declared once.

use std::fmt::Write;

use crate::metrics::{json_number, Metric, END_TO_END, PER_LAYER};
use crate::workloads::Kind;

/// Seconds one run measures for; operation counts are this many times
/// [`Kind::rate`].
pub const RUN_SECONDS: u64 = 10;

fn better(m: &Metric) -> &'static str {
    if m.lower_is_better {
        "lower"
    } else {
        "higher"
    }
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").unwrap();
    s.push_str("  \"workloads\": [\n");
    for (i, k) in Kind::ALL.iter().enumerate() {
        let comma = if i + 1 < Kind::ALL.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            k.name(),
            k.why()
        )
        .unwrap();
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            better(m),
            json_number(m.bound)
        )
        .unwrap();
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            better(m)
        )
        .unwrap();
    }
    s.push_str("  ]\n}\n");
    s
}
