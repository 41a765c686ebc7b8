//! The registry, the committed `results/` and EXPERIMENTS.md name the
//! same things: every committed file has exactly one writer for
//! `tools/regen_results.sh` to diff it against, no entry writes a file
//! that is not committed, and each entry has a section of EXPERIMENTS.md.
//! The fidelity ledger (`results/fidelity.json`) is the paper entries'
//! `measured (paper)` cells, none of them further from the paper than
//! its band allows; and the cheap entries re-derive their files byte for
//! byte and hold every gate.

mod ledger;

use std::collections::BTreeSet;
use std::fs;

use sb_bench::paper::Cell;
use sb_bench::registry::{self, find, Entry, ENTRIES};

#[test]
fn experiments_artefacts_and_write_ups_are_in_bijection() {
    let root = ledger::root();
    let table: BTreeSet<&str> = ENTRIES.iter().map(Entry::name).collect();
    assert_eq!(table.len(), ENTRIES.len(), "a name is listed twice");

    // One writer per file: its entry, the bin for the ledger, or a
    // golden (`tests/<golden>.rs`) for its pins.
    let mut written = vec!["fidelity.json".to_string()];
    written.extend(ENTRIES.iter().flat_map(Entry::files));
    let tests = fs::read_dir(root.join("tests")).expect("tests/");
    written.extend(tests.filter_map(|e| {
        let name = e.expect("entry").file_name().to_string_lossy().into_owned();
        let golden = name.strip_suffix("_golden.rs")?;
        Some(format!("pins/{golden}_golden.json"))
    }));
    let files: BTreeSet<&String> = written.iter().collect();
    assert_eq!(files.len(), written.len(), "written twice: {written:?}");

    // Every committed file but the host clock's trajectory and the
    // untracked bundle and trace subtrees; a directory other than
    // `flamegraphs/` and `pins/` counts as a file.
    let results = root.join("results");
    let ls = |dir: &'static str| {
        let entries = fs::read_dir(results.join(dir)).expect("results/");
        entries.map(move |e| format!("{dir}{}", e.expect("entry").file_name().to_string_lossy()))
    };
    let skipped = "BENCH_history.jsonl postmortem traces flamegraphs pins";
    let committed: BTreeSet<String> = (ls("").chain(ls("flamegraphs/")).chain(ls("pins/")))
        .filter(|f| !skipped.split(' ').any(|s| s == f))
        .collect();
    assert_eq!(
        files,
        committed.iter().collect(),
        "the registry's files (left) and the committed results/ (right) must be the same"
    );

    let write_up = fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    for name in &table {
        assert!(
            write_up
                .lines()
                .any(|l| l.starts_with('#') && l.contains(&format!("`{name}`"))),
            "EXPERIMENTS.md has no heading naming `{name}`"
        );
    }
}

/// Every `measured (paper)` cell an artefact's text prints, in order:
/// `5524 (3512)`, `134 (paper 134±3)`. Both sides must be plain
/// numbers, so headings and Table 4's derived `89.9% (87.5%)` speedups
/// are not cells.
fn printed_cells(text: &str) -> Vec<(f64, f64)> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    let mut cells = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        let (Ok(measured), Some(next)) = (token.parse::<f64>(), tokens.get(i + 1)) else {
            continue;
        };
        let Some(mut paper) = next.strip_prefix('(') else {
            continue;
        };
        if paper == "paper" {
            paper = tokens.get(i + 2).copied().unwrap_or("");
        }
        let paper = paper.trim_end_matches(')');
        let paper = paper.split('±').next().unwrap_or(paper);
        if let Ok(paper) = paper.parse::<f64>() {
            cells.push((measured, paper));
        }
    }
    cells
}

#[test]
fn the_ledger_holds_exactly_the_cells_the_artefacts_print() {
    let root = ledger::root();
    let ledger = ledger::read();
    assert!(!ledger.is_empty());
    for e in ENTRIES.iter().filter(|e| matches!(e, Entry::Paper(..))) {
        let text = fs::read_to_string(root.join(format!("results/{}.txt", e.name()))).unwrap();
        let printed = printed_cells(&text);
        let rows: Vec<&Cell> = ledger::cells(&ledger, e.name()).collect();
        assert_eq!(
            rows.len(),
            printed.len(),
            "{}: ledger rows vs printed cells",
            e.name()
        );
        for (c, (measured, paper)) in rows.iter().zip(printed) {
            // The text rounds to whole numbers; the ledger does not.
            assert!(
                (c.measured - measured).abs() <= 0.5 && (c.paper - paper).abs() <= 0.5,
                "{} / {} / {}: ledger {} ({}) but the text prints {measured} ({paper})",
                e.name(),
                c.row,
                c.column,
                c.measured,
                c.paper
            );
        }
    }
    for (experiment, _) in &ledger {
        assert!(
            find(experiment).is_some_and(|e| matches!(e, Entry::Paper(..))),
            "ledger row of unknown experiment `{experiment}`"
        );
    }
}

/// `(experiment, row, band per column)`: how far from the paper's
/// number each cell may sit, as `|measured / paper − 1|`. Captured on
/// the commit before PR 23's layout move as that day's distance plus
/// the 3 % of the measured value a re-baseline may move a cell, rounded
/// up to a hundredth; `0.00` marks a count that must match exactly
/// (Table 5's VM exits, Table 6's occurrences). A cell may move toward
/// the paper freely. Widening a band is a decision: say in the PR which
/// modelled mechanism changed.
const BANDS: &[(&str, &str, &[f64])] = &[
    ("table1", "Baseline", &[1.00, 2.02, 0.95, 18.22, 1.00, 0.49]),
    ("table1", "Delay", &[1.00, 2.02, 0.95, 18.22, 1.00, 0.55]),
    ("table1", "IPC", &[71.74, 0.70, 0.34, 17.78, 1.00, 1.81]),
    ("figure2", "16-Bytes", &[0.07, 0.04, 0.26, 0.13]),
    ("figure2", "64-Bytes", &[0.11, 0.06, 0.12, 0.13]),
    ("figure2", "256-Bytes", &[0.21, 0.16, 0.08, 0.15]),
    ("figure2", "1024-Bytes", &[0.26, 0.24, 0.13, 0.20]),
    ("table2", "SYSCALL", &[0.03]),
    ("table2", "SWAPGS", &[0.03]),
    ("table2", "SYSRET", &[0.03]),
    ("table2", "address space switch", &[0.03]),
    ("table2", "seL4 fastpath IPC logic", &[0.03]),
    ("table2", "one-way fastpath total", &[0.03]),
    ("table2", "IPI", &[0.03]),
    ("table2", "write to CR3", &[0.03]),
    ("table2", "no-op system call w/ KPTI", &[0.03]),
    ("table2", "no-op system call w/o KPTI", &[0.03]),
    ("table2", "VMFUNC", &[0.03]),
    ("figure7", "seL4-SkyBridge", &[0.05]),
    ("figure7", "Fiasco.OC-SkyBridge", &[0.05]),
    ("figure7", "Zircon-SkyBridge", &[0.05]),
    ("figure7", "seL4 fastpath 1-core", &[0.14]),
    ("figure7", "seL4 cross-core", &[0.07]),
    ("figure7", "Fiasco fastpath 1-core", &[0.05]),
    ("figure7", "Fiasco cross-core", &[0.16]),
    ("figure7", "Zircon 1-core", &[0.04]),
    ("figure7", "Zircon cross-core", &[0.04]),
    ("figure8", "16-Bytes", &[0.07, 0.04, 0.26, 0.13, 0.63]),
    ("figure8", "64-Bytes", &[0.11, 0.06, 0.12, 0.13, 0.64]),
    ("figure8", "256-Bytes", &[0.21, 0.16, 0.08, 0.15, 0.32]),
    ("figure8", "1024-Bytes", &[0.26, 0.24, 0.13, 0.20, 0.08]),
    ("table4", "seL4 Insert", &[0.35, 1.85, 1.88]),
    ("table4", "seL4 Update", &[0.53, 2.39, 3.19]),
    ("table4", "seL4 Query", &[0.66, 1.91, 1.89]),
    ("table4", "seL4 Delete", &[0.80, 3.63, 8.13]),
    ("table4", "Fiasco Insert", &[2.90, 6.20, 5.48]),
    ("table4", "Fiasco Update", &[2.82, 6.25, 5.77]),
    ("table4", "Fiasco Query", &[1.23, 3.06, 2.41]),
    ("table4", "Fiasco Delete", &[3.69, 8.92, 13.66]),
    ("table4", "Zircon Insert", &[0.71, 1.03, 3.21]),
    ("table4", "Zircon Update", &[0.61, 0.96, 3.63]),
    ("table4", "Zircon Query", &[0.05, 0.88, 2.02]),
    ("table4", "Zircon Delete", &[0.93, 3.19, 8.54]),
    ("figure9_11", "seL4-st", &[0.21, 0.48, 0.13, 0.53]),
    ("figure9_11", "seL4-mt", &[1.78, 0.48, 2.01, 3.44]),
    ("figure9_11", "seL4-SkyBridge", &[1.46, 1.28, 1.88, 7.21]),
    ("figure9_11", "Fiasco.OC-st", &[1.52, 0.36, 0.17, 1.05]),
    ("figure9_11", "Fiasco.OC-mt", &[3.76, 0.46, 1.60, 3.58]),
    (
        "figure9_11",
        "Fiasco.OC-SkyBridge",
        &[4.35, 2.94, 4.87, 5.68],
    ),
    ("figure9_11", "Zircon-st", &[0.83, 0.40, 0.08, 8.77]),
    ("figure9_11", "Zircon-mt", &[1.18, 0.08, 0.33, 57.45]),
    ("figure9_11", "Zircon-SkyBridge", &[2.82, 2.08, 3.80, 7.46]),
    ("table5", "YCSB-A 1 thread", &[1.81, 1.83, 0.00]),
    ("table5", "YCSB-A 8 thread", &[3.66, 3.84, 0.00]),
    ("table6", "/usr/bin", &[0.00]),
    ("table6", "/usr/sbin", &[0.00]),
    ("table6", "/bin", &[0.00]),
    ("table6", "/usr/lib/x86_64-linux-gnu", &[0.00]),
];

#[test]
fn no_cell_is_further_from_the_paper_than_its_band() {
    let mut bent = Vec::new();
    let mut row_start = 0;
    let ledger = ledger::read();
    for (i, (experiment, c)) in ledger.iter().enumerate() {
        if i > 0 && (ledger[i - 1].0 != *experiment || ledger[i - 1].1.row != c.row) {
            row_start = i;
        }
        let band = BANDS
            .iter()
            .find(|(e, row, _)| e == experiment && *row == c.row)
            .and_then(|(_, _, bands)| bands.get(i - row_start))
            .unwrap_or_else(|| panic!("no band for {experiment} / {} / {}", c.row, c.column));
        let distance = if c.measured == c.paper {
            0.0
        } else {
            (c.measured / c.paper - 1.0).abs()
        };
        // A paper value of 0 missed is infinitely far: outside any band.
        if distance > *band {
            bent.push(format!(
                "{experiment} / {} / {}: measured {} vs paper {} is {distance:.4} away, band {band}",
                c.row, c.column, c.measured, c.paper
            ));
        }
    }
    assert!(
        bent.is_empty(),
        "rows left their band:\n{}",
        bent.join("\n")
    );
}

/// The entries Tier-1's optimised test build runs in seconds, longest
/// first: every gated sweep and nine paper artefacts. `table6` waits
/// for a digest of the host files it scans, and `figure9_11` for its
/// cells to run in parallel; both are left to
/// `tools/regen_results.sh`.
const REDERIVED: &str = "table4 profile tenant graph runtime_scaling ring chaos sentinel \
                         table5 ablations table1 figure2 table2 table3 figure7 figure8";

/// A moved figure or a broken property fails here by name: each cheap
/// entry, run in-process with a scratch results directory (where
/// `chaos` leaves its postmortem bundles and `profile` finds the
/// committed `profile.json` as its baseline), must produce exactly its
/// committed files byte for byte and hold every gate, and each paper
/// entry must record exactly its committed ledger cells, each named
/// `experiment / row / column` — a moved cell shows as its committed
/// line next to its re-derived one.
#[test]
fn the_cheap_artefacts_rederive_cell_for_cell() {
    let dir = std::env::temp_dir().join(format!("sb-bench-rederive-{}", std::process::id()));
    let results = ledger::root().join("results");
    fs::create_dir_all(&dir).expect("a scratch results directory");
    fs::copy(results.join("profile.json"), dir.join("profile.json")).expect("the baseline");
    let entries: Vec<&Entry> = (REDERIVED.split_whitespace())
        .map(|name| find(name).expect("listed"))
        .collect();
    let artefacts = registry::run(&entries, &dir);
    let _ = fs::remove_dir_all(&dir);
    let ledger = ledger::read();
    let mut moved = Vec::new();
    for (entry, artefact) in entries.iter().zip(artefacts) {
        let name = entry.name();
        let show = |c: &Cell| {
            format!(
                "{name} / {} / {}: measured {} (paper {})",
                c.row, c.column, c.measured, c.paper
            )
        };
        let fresh: BTreeSet<String> = artefact.cells.iter().map(show).collect();
        let committed: BTreeSet<String> = ledger::cells(&ledger, name).map(show).collect();
        moved.extend(
            fresh
                .difference(&committed)
                .map(|l| format!("{l}, re-derived")),
        );
        moved.extend(
            committed
                .difference(&fresh)
                .map(|l| format!("{l}, committed")),
        );
        let files: BTreeSet<&String> = artefact.files.iter().map(|(f, _)| f).collect();
        let declared = entry.files();
        if files != declared.iter().collect() {
            moved.push(format!("{name}: wrote {files:?}, not {declared:?}"));
        }
        for (file, contents) in &artefact.files {
            if fs::read_to_string(results.join(file)).ok().as_ref() != Some(contents) {
                moved.push(format!("{name}: {file} differs from results/{file}"));
            }
        }
        for g in artefact.gates.iter().filter(|g| !g.holds()) {
            moved.push(format!("{name}: gate breached: {g}"));
        }
    }
    moved.sort();
    assert!(
        moved.is_empty(),
        "re-derived entries left their files, gates or ledger:\n{}",
        moved.join("\n")
    );
}
