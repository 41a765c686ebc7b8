//! The simulated-clock harness: paper artefacts and gated sweeps.
//!
//! One registry ([`registry::ENTRIES`]) names every results file's
//! writer: the eleven tables and figures of the paper's evaluation
//! ([`paper`]) and the seven gated sweeps ([`sweep`]: `chaos`, `graph`,
//! `profile`, `ring`, `runtime_scaling`, `sentinel`, `tenant`). Each
//! entry fills one [`Artefact`] — its text, its ledger cells, its files
//! and its [`gate::Gate`]s — and one bin runs them: `cargo run --release
//! -p sb-bench [NAME…]` prints their text, writes their files under
//! `results/` and ends in [`gate::verdict`], the one verdict printer and
//! exit path. Nothing here reads the host clock: how fast the simulator
//! runs is `benchmark/`'s ledger (`results/BENCH_history.jsonl`), so
//! every number this crate prints is deterministic and every file it
//! writes is held to `results/` — by Tier-1 for the cheap entries, by
//! `tools/regen_results.sh` for all. Every run size is a constant of its
//! entry; the one environment read is [`traced_backend`].

use std::fmt::Display;

use sb_observe::Json;
use skybridge_repro::scenarios::runtime::Backend;

pub mod gate;
pub mod paper;
pub mod registry;
pub mod report;
pub mod sweep;

pub use paper::Artefact;

/// An aligned table as text: a blank line, the `=== title ===` banner,
/// `header`, a rule, then `rows`, every column right-aligned.
pub fn table<H: Display, C: Display>(title: &str, header: &[H], rows: &[Vec<C>]) -> String {
    let mut grid: Vec<Vec<String>> = vec![header.iter().map(|h| h.to_string()).collect()];
    grid.extend(
        rows.iter()
            .map(|r| r.iter().map(|c| c.to_string()).collect()),
    );
    let mut widths = vec![0; grid[0].len()];
    for row in &grid {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    grid.insert(1, widths.iter().map(|w| "-".repeat(*w)).collect());
    let mut out = format!("\n=== {title} ===\n");
    for row in &grid {
        let cells: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        out += &format!("  {}\n", cells.join("  "));
    }
    out
}

/// [`table`] of `rows`, one line per row and one column per key, headed
/// by the keys. A `.` in a key reaches into a nested object
/// (`stats.latency_p99`); numbers print as the gate rows print them, and
/// a key the row lacks prints `-`.
pub fn rows_table(title: &str, rows: &[Json], keys: &[&str]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            keys.iter()
                .map(|key| match key.split('.').try_fold(row, |v, k| v.get(k)) {
                    Some(Json::Str(s)) => s.clone(),
                    Some(Json::F64(v)) => gate::number(*v),
                    Some(v) => v.to_string(),
                    None => "-".to_string(),
                })
                .collect()
        })
        .collect();
    table(title, keys, &cells)
}

/// Relative speedup `a` over `b`, formatted the way the paper quotes it
/// ("81.9%" below 2x, "1.44x" above).
pub fn speedup(faster: f64, slower: f64) -> String {
    if slower <= 0.0 {
        return "n/a".into();
    }
    let s = faster / slower;
    if s < 2.0 {
        format!("{:.1}%", (s - 1.0) * 100.0)
    } else {
        format!("{:.2}x", s - 1.0)
    }
}

/// The crate's one environment read: `SB_TRACE=<label>` asks
/// `runtime_scaling` for one extra traced cell on that personality, for
/// Perfetto. It picks what to look at, not how much to run — every run
/// size is a constant of its entry. Unset means no trace; a label that
/// names no personality ends the run, naming the ones that exist.
pub fn traced_backend() -> Option<Backend> {
    let value = std::env::var_os("SB_TRACE");
    let value = value.as_ref().map(|v| v.to_string_lossy());
    parse_trace(value.as_deref()).unwrap_or_else(|e| gate::die(&[e]))
}

/// A personality's `SB_TRACE` label: its [`Backend::label`] up to the
/// first `.`, lower-cased (`sel4`, `fiasco`, `zircon`, `skybridge`,
/// `mpk`).
fn trace_label(backend: &Backend) -> String {
    let label = backend.label();
    label[..label.find('.').unwrap_or(label.len())].to_ascii_lowercase()
}

fn parse_trace(value: Option<&str>) -> Result<Option<Backend>, String> {
    let Some(v) = value else { return Ok(None) };
    let mut all = Backend::all();
    let labels: Vec<String> = all.iter().map(trace_label).collect();
    match labels.iter().position(|l| l.eq_ignore_ascii_case(v)) {
        Some(i) => Ok(Some(all.swap_remove(i))),
        None => Err(format!(
            "SB_TRACE={v:?} names no personality; the labels are {}",
            labels.join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_formats_like_the_paper() {
        assert_eq!(speedup(11251.08, 6001.82), "87.5%");
        assert_eq!(speedup(5000.0, 1685.39), "1.97x");
        assert_eq!(speedup(1.0, 0.0), "n/a");
    }

    /// The one knob left: unset means no trace, and each personality is
    /// picked by its label in any case.
    #[test]
    fn knob_defaults() {
        assert!(matches!(parse_trace(None), Ok(None)));
        for (value, label) in [
            ("skybridge", "skybridge"),
            ("sel4", "seL4"),
            ("Fiasco", "Fiasco.OC"),
            ("zircon", "Zircon"),
            ("MPK", "mpk"),
        ] {
            let picked = parse_trace(Some(value)).expect("a known label");
            assert_eq!(picked.as_ref().map(Backend::label), Some(label));
        }
    }

    /// A label that names no personality is an error naming the variable,
    /// the value and every label — never a silent SkyBridge trace.
    #[test]
    fn a_knob_that_does_not_parse_is_an_error_naming_it() {
        for bad in ["fiasko", "1", "", "sky", "fiasco.oc"] {
            let e = parse_trace(Some(bad)).unwrap_err();
            assert!(
                e.contains("SB_TRACE") && e.contains(&format!("{bad:?}")),
                "{e}"
            );
            for label in ["sel4", "fiasco", "zircon", "skybridge", "mpk"] {
                assert!(e.contains(label), "{e}");
            }
        }
    }

    #[test]
    fn tables_right_align_every_column() {
        let t = table("t", &["a", "long"], &[vec!["xyz", "1"]]);
        assert_eq!(t, "\n=== t ===\n    a  long\n  ---  ----\n  xyz     1\n");
    }

    /// A cell is the row's value under its key, a dotted key reaching
    /// into nested objects; integral floats print whole, fractional ones
    /// to four places, and a missing key prints `-`.
    #[test]
    fn row_tables_render_each_cell_from_its_key() {
        let row = Json::obj()
            .field("s", "sky")
            .field("b", true)
            .field("whole", 3.0)
            .field("frac", 0.123456)
            .field("a", Json::obj().field("b", 7u64));
        let t = rows_table("t", &[row], &["a.b", "none", "whole", "frac", "s", "b"]);
        assert_eq!(
            t.lines().last(),
            Some("    7     -      3  0.1235  sky  true")
        );
    }
}
