//! Per-crate code-size budget.
//!
//! A small kernel is a security property (the paper's Rootkernel is
//! ~1.5 KLoC for that reason), and lines that a simplification removed
//! should stay removed unless someone decides otherwise. Each crate's
//! non-test code lines — everything in `src/**/*.rs` before the first
//! top-level `#[cfg(test)]`, blank and `//` lines excluded — must stay
//! under the ceiling checked in here. The ceilings are the counts when
//! the table was last touched, rounded up to the next 50: growing past
//! one means raising the number in the same change, where a reviewer
//! sees it.

use std::fs;
use std::path::Path;

/// The paper's bound on the Rootkernel (§5: "about 1.5 KLoC").
const PAPER_ROOTKERNEL_LOC: usize = 1_500;

/// `(directory under crates/, ceiling in non-test code lines)`.
const BUDGET: &[(&str, usize)] = &[
    ("bench", 3_850),
    ("core", 1_450),
    ("db", 1_200),
    ("faultplane", 400),
    ("fs", 1_050),
    ("graph", 900),
    // 1067 with the walk memo (PR 20), rounded up to the next 10.
    ("mem", 1_070),
    ("microkernel", 1_050),
    ("observe", 1_800),
    ("rewriter", 1_950),
    ("rootkernel", 450),
    ("runtime", 1_850),
    ("sentinel", 850),
    // 882 with the L1i run memo (PR 19) and `mem_access_each` (PR 20),
    // rounded up to the next 10.
    ("sim", 890),
    ("transport", 1_100),
    ("ycsb", 250),
];

/// Non-test code lines of one source file.
fn code_lines(path: &Path) -> usize {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    text.lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .map(str::trim_start)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// Non-test code lines of every `.rs` file under `dir`.
fn tree_lines(dir: &Path) -> usize {
    let mut total = 0;
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            total += tree_lines(&path);
        } else if path.extension().is_some_and(|x| x == "rs") {
            total += code_lines(&path);
        }
    }
    total
}

#[test]
fn every_crate_stays_under_its_code_line_ceiling() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut on_disk: Vec<String> = fs::read_dir(&crates)
        .expect("crates/")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .into_string()
                .expect("utf-8 name")
        })
        .collect();
    on_disk.sort();
    let budgeted: Vec<&str> = BUDGET.iter().map(|&(name, _)| name).collect();
    assert_eq!(on_disk, budgeted, "every crate has exactly one budget row");

    let mut over = Vec::new();
    for &(name, ceiling) in BUDGET {
        let lines = tree_lines(&crates.join(name).join("src"));
        if lines > ceiling {
            over.push(format!("{name}: {lines} code lines > ceiling {ceiling}"));
        }
        if name == "rootkernel" {
            assert!(
                ceiling <= PAPER_ROOTKERNEL_LOC,
                "the Rootkernel's ceiling may not pass the paper's {PAPER_ROOTKERNEL_LOC} lines"
            );
        }
    }
    assert!(over.is_empty(), "over budget:\n{}", over.join("\n"));
}
