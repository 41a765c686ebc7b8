//! Machine-readable benchmark output: the JSON value type, the row
//! emitters for runtime/chaos results, and the `results/` file writer.
//!
//! This is the single JSON home of the workspace. The build environment
//! is offline (no serde), so result files are emitted through the
//! hand-rolled [`Json`] builder below: objects with ordered keys, arrays,
//! strings, and numbers — exactly what the benches need. Measurement
//! crates (`sb-runtime`, the scenario modules) stay serialization-free;
//! their result structs are rendered to rows here.

use std::{fmt, fs, io::Write, path::PathBuf};

use sb_runtime::RunStats;
use sb_sentinel::BundleReceipt;
use skybridge_repro::scenarios::chaos::{ChaosOutcome, FsChaosOutcome};

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number (integers print without a fraction).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds `key: value` to an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on a non-object"),
        }
        self
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

fn escape(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    f.write_str("null")
                } else if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => escape(s, f),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape(k, f)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// How many of a run's busiest tenants get their own row in the JSON
/// report.
const TOP_TENANTS: usize = 8;

/// One runtime run as a JSON object (`results/*.json` rows).
///
/// Multi-tenant runs additionally carry a `tenants` array — the
/// [`TOP_TENANTS`] busiest tenants by offered load, each with its own
/// conservation ledger and p99 — plus the per-tenant conservation
/// verdict for the whole run. Single-tenant runs stay compact (no
/// per-tenant section), keeping historical report shapes unchanged.
pub fn run_stats_json(s: &RunStats) -> Json {
    let mut row = Json::obj()
        .field("label", s.label.as_str())
        .field("workers", s.workers)
        .field("offered", s.offered)
        .field("completed", s.completed)
        .field("shed_queue_full", s.shed_queue_full)
        .field("shed_deadline", s.shed_deadline)
        .field("shed_rate_limit", s.shed_rate_limit)
        .field("timed_out", s.timed_out)
        .field("failed", s.failed)
        .field("retries", s.retries)
        .field("recoveries", s.recoveries)
        .field("bytes_copied", s.bytes_copied)
        .field("window_cycles", s.window())
        .field("throughput_per_mcycle", s.throughput_per_mcycle())
        .field("latency_mean", s.mean())
        .field("latency_p50", s.p50())
        .field("latency_p95", s.p95())
        .field("latency_p99", s.p99())
        .field("max_queue_depth", s.max_queue_depth)
        .field("utilization", s.utilization());
    if s.tenants.len() > 1 {
        let rows: Vec<Json> = s
            .top_tenants(TOP_TENANTS)
            .into_iter()
            .map(|(id, t)| {
                Json::obj()
                    .field("tenant", u64::from(id))
                    .field("offered", t.offered)
                    .field("completed", t.completed)
                    .field("shed_queue_full", t.shed_queue_full)
                    .field("shed_deadline", t.shed_deadline)
                    .field("shed_rate_limit", t.shed_rate_limit)
                    .field("timed_out", t.timed_out)
                    .field("failed", t.failed)
                    .field("latency_p50", t.percentile(50.0))
                    .field("latency_p99", t.p99())
            })
            .collect();
        row = row
            .field("tenant_count", s.tenants.len())
            .field("tenants_conserved", s.tenants_conserved())
            .field("tenants", Json::Arr(rows));
    }
    row
}

/// Where a postmortem bundle went and what it holds.
pub fn receipt_json(r: &BundleReceipt) -> Json {
    Json::obj()
        .field("path", r.path.display().to_string())
        .field("included_events", r.included_events)
        .field("truncated_events", r.truncated_events)
        .field("ring_dropped", r.ring_dropped)
}

/// One serving chaos cell as a JSON row (`results/chaos.json`).
pub fn chaos_outcome_json(out: &ChaosOutcome, mix: &str, seed: u64) -> Json {
    let mut rows = Vec::new();
    for r in &out.report.rows {
        rows.push(
            Json::obj()
                .field("point", r.point.name())
                .field("injected", r.injected)
                .field("detected", r.detected)
                .field("recovered", r.recovered)
                .field("leaked", r.leaked),
        );
    }
    let slo = Json::obj()
        .field("good", out.slo.good)
        .field("bad", out.slo.bad)
        .field("fast_burn", out.slo.fast_burn)
        .field("slow_burn", out.slo.slow_burn)
        .field("breaches", out.slo.breaches)
        .field("breached", out.slo.breached());
    let postmortem = out.postmortem.as_ref().map_or(Json::Null, receipt_json);
    Json::obj()
        .field("mix", mix)
        .field("seed", seed)
        .field("injected", out.report.injected())
        .field("detected", out.report.detected())
        .field("recovered", out.report.recovered())
        .field("leaked", out.report.leaked())
        .field("unrecovered", out.report.unrecovered())
        .field("conserved", out.conserved())
        .field("trace_injected", out.trace.injected())
        .field("trace_detected", out.trace.detected)
        .field("trace_recovered", out.trace.recovered)
        .field("trace_matches_ledger", out.trace_matches_ledger())
        .field("slo", slo)
        .field("postmortem", postmortem)
        .field("faults", Json::Arr(rows))
        .field("run", run_stats_json(&out.stats))
}

/// One FS chaos cell as a JSON row.
pub fn fs_chaos_json(out: &FsChaosOutcome, mix: &str, seed: u64) -> Json {
    Json::obj()
        .field("mix", mix)
        .field("seed", seed)
        .field("attempted", out.attempted as u64)
        .field("committed", out.committed as u64)
        .field("torn_discarded", out.torn_discarded)
        .field("replayed", out.replayed)
        .field("injected", out.report.injected())
        .field("leaked", out.report.leaked())
}

/// The output directory, overridable with `SB_RESULTS_DIR`.
pub fn results_dir() -> PathBuf {
    std::env::var("SB_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Writes `value` to `results/<name>.json` (pretty enough for diffing:
/// one trailing newline) and returns the path.
pub fn write_json(name: &str, value: &Json) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{value}")?;
    Ok(path)
}

/// Writes pre-serialized `contents` to `results/<name>` verbatim —
/// for exports that are already strings, like a Chrome trace. `name`
/// may carry subdirectories (`traces/foo.json`); they are created.
pub fn write_raw(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let path = results_dir().join(name);
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let j = Json::obj()
            .field("name", "p50")
            .field("cycles", 1234u64)
            .field("ratio", 0.5)
            .field("tags", vec!["a", "b"])
            .field("ok", true);
        assert_eq!(
            j.to_string(),
            r#"{"name":"p50","cycles":1234,"ratio":0.5,"tags":["a","b"],"ok":true}"#
        );
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(Json::Str("a\"b\\c\n".into()).to_string(), r#""a\"b\\c\n""#);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(3.25).to_string(), "3.25");
    }

    #[test]
    fn run_stats_row_has_the_key_fields() {
        let mut s = RunStats::new("sel4", 2);
        s.offered = 10;
        s.completed = 8;
        s.shed_queue_full = 2;
        s.bytes_copied = 704;
        s.start = 0;
        s.end = 1000;
        s.latencies = vec![10, 20, 30].into();
        s.seal();
        let row = run_stats_json(&s).to_string();
        assert!(row.contains("\"label\":\"sel4\""));
        assert!(row.contains("\"shed_queue_full\":2"));
        assert!(row.contains("\"bytes_copied\":704"));
        assert!(row.contains("\"latency_p50\":20"));
    }

    #[test]
    fn multi_tenant_runs_emit_a_tenant_breakdown() {
        let mut s = RunStats::new("sel4", 1);
        s.offered = 5;
        s.completed = 5;
        s.end = 1000;
        s.latencies = vec![10, 20, 30, 40, 50].into();
        for (tenant, lat) in [(3u16, 10), (3, 20), (3, 30), (9, 40), (9, 50)] {
            let t = s.tenant_mut(tenant);
            t.offered += 1;
            t.completed += 1;
            t.latencies.push(lat);
        }
        s.seal();
        let row = run_stats_json(&s).to_string();
        assert!(row.contains("\"tenant_count\":2"), "{row}");
        assert!(row.contains("\"tenants_conserved\":true"), "{row}");
        // Busiest tenant first.
        assert!(
            row.find("\"tenant\":3").unwrap() < row.find("\"tenant\":9").unwrap(),
            "{row}"
        );

        // Single-tenant runs keep the historical compact shape.
        let mut solo = RunStats::new("sel4", 1);
        solo.offered = 1;
        solo.completed = 1;
        solo.tenant_mut(0).offered += 1;
        solo.tenant_mut(0).completed += 1;
        solo.seal();
        assert!(!run_stats_json(&solo).to_string().contains("\"tenants\""));
    }

    #[test]
    fn writes_and_reads_back() {
        let dir = std::env::temp_dir().join("sb-bench-report-test");
        std::env::set_var("SB_RESULTS_DIR", &dir);
        let j = Json::obj().field("x", 1u64);
        let path = write_json("unit", &j).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"x\":1}\n");
        std::env::remove_var("SB_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }
}
