//! Machine-readable benchmark output: the row emitters for chaos
//! results and the results-file writer.
//!
//! Every file is rendered by [`sb_observe::Json`], the workspace's one
//! JSON value. A run's row is `sb_runtime::run_stats_json`, a fault
//! ledger row `sb_sentinel::fault_row_json`, SLO health
//! `sb_sentinel::slo_json` and a capture's loss `sb_observe::loss_json`,
//! each its one renderer, which a postmortem bundle below this crate
//! embeds too; the scenario modules' other result structs are rendered
//! to rows here.

use std::{
    fs, io,
    path::{Path, PathBuf},
};

use sb_observe::{loss_json, Json};
use sb_runtime::run_stats_json;
use sb_sentinel::{fault_row_json, slo_json, BundleReceipt};
use skybridge_repro::scenarios::chaos::{ChaosOutcome, FsChaosOutcome};

/// Where a postmortem bundle went and what it holds. The path is the
/// bundle's place in a results tree, `results/postmortem/<file>`,
/// wherever the run put that tree, so the row's bytes do not depend on it.
pub fn receipt_json(r: &BundleReceipt) -> Json {
    let file = r.path.file_name().unwrap_or_default().to_string_lossy();
    Json::obj()
        .field("path", format!("{RESULTS_DIR}/postmortem/{file}"))
        .field("included_events", r.included_events)
        .field("loss", loss_json(&r.loss))
}

/// One serving chaos cell as a JSON row (`results/chaos.json`).
pub fn chaos_outcome_json(out: &ChaosOutcome, mix: &str, seed: u64) -> Json {
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
        .field("slo", slo_json(&out.slo))
        .field("postmortem", postmortem)
        .field(
            "faults",
            Json::Arr(out.report.rows.iter().map(fault_row_json).collect()),
        )
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

/// The results directory `sb-bench` writes, relative to the working
/// directory: a run from another directory (`tools/regen_results.sh`
/// runs from its own) writes its own `results/`.
pub const RESULTS_DIR: &str = "results";

/// Writes `contents` to `dir/name`, creating the subdirectories `name`
/// carries (`flamegraphs/…`), and returns the path.
pub fn write(dir: &Path, name: &str, contents: &str) -> io::Result<PathBuf> {
    let path = dir.join(name);
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_runtime::RunStats;

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
        let s = RunStats::new("a\"b\\c\n", 1);
        let row = run_stats_json(&s).to_string();
        assert!(row.starts_with(r#"{"label":"a\"b\\c\n","#), "{row}");
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::F64(3.0).to_string(), "3");
        assert_eq!(Json::F64(3.25).to_string(), "3.25");
        assert_eq!(Json::F64(1e15).to_string(), "1000000000000000");
    }

    #[test]
    fn counts_above_two_to_the_53_are_written_exactly() {
        assert_eq!(Json::from(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(
            Json::obj().field("n", (1u64 << 53) + 1).to_string(),
            r#"{"n":9007199254740993}"#
        );
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
        assert!(!run_stats_json(&solo).to_string().contains("\"tenants\""));
    }

    /// An incident bundle keeps each fact once: on a trap kernel and on
    /// MPK it reads back as schema v3 with no `metrics` block, `run`,
    /// `slo` and capture-loss blocks whose bytes are the chaos row's `run`,
    /// `slo` and receipt `loss`, and every PMU counter, MPK's
    /// `wrpkru_writes` among them.
    #[test]
    fn a_bundle_holds_the_chaos_rows_run_and_every_pmu_counter() {
        use sb_microkernel::Personality;
        use sb_sentinel::{PostmortemSpec, SCHEMA};
        use skybridge_repro::scenarios::{chaos::run_postmortem_drill, runtime::Backend};

        let dir = std::env::temp_dir().join(format!("sb-bench-bundle-{}", std::process::id()));
        let spec = PostmortemSpec::in_dir(&dir);
        assert_eq!(SCHEMA, "sb-postmortem-v3");
        for backend in [Backend::Trap(Personality::sel4()), Backend::Mpk] {
            let out = run_postmortem_drill(&backend, 0xd811, 60, &spec);
            let receipt = out.postmortem.as_ref().expect("the drill writes a bundle");
            let bundle = receipt.read_back().expect("schema-clean");
            assert!(bundle.get("metrics").is_none(), "{}", backend.label());
            let row = chaos_outcome_json(&out, "drill", 0xd811);
            for (in_bundle, in_row) in [
                (bundle.get("run"), row.get("run")),
                (bundle.get("slo"), row.get("slo")),
                (
                    bundle.get("capture").and_then(|c| c.get("loss")),
                    row.get("postmortem").and_then(|p| p.get("loss")),
                ),
            ] {
                assert!(in_bundle.is_some(), "{}", backend.label());
                assert_eq!(
                    in_bundle.map(Json::to_string),
                    in_row.map(Json::to_string),
                    "{}",
                    backend.label()
                );
            }
            let Some(Json::Obj(pmu)) = bundle.get("pmu") else {
                panic!("{}: no pmu block", backend.label())
            };
            assert_eq!(pmu.len(), 14, "{}", backend.label());
            let wrpkru = bundle.get("pmu").and_then(|p| p.get("wrpkru_writes"));
            let mpk = matches!(backend, Backend::Mpk);
            assert_eq!(
                matches!(wrpkru, Some(Json::U64(n)) if *n > 0),
                mpk,
                "{}: wrpkru_writes {wrpkru:?}",
                backend.label()
            );
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn writes_and_reads_back() {
        let dir = std::env::temp_dir().join("sb-bench-report-test");
        let j = Json::obj().field("x", 1u64);
        let path = write(&dir, "nested/unit.json", &format!("{j}\n")).unwrap();
        assert_eq!(path, dir.join("nested/unit.json"));
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"x\":1}\n");
        let _ = fs::remove_dir_all(dir);
    }
}
