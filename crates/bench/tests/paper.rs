//! The `Experiment` table, the committed artefacts and EXPERIMENTS.md
//! name the same things: no experiment without a committed
//! `results/<name>.txt` for `tools/regen_results.sh` to diff it against,
//! no orphan `.txt` nothing regenerates, and a section of EXPERIMENTS.md
//! for each.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use sb_bench::paper::EXPERIMENTS;

#[test]
fn experiments_artefacts_and_write_ups_are_in_bijection() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let table: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.name.to_string()).collect();
    assert_eq!(table.len(), EXPERIMENTS.len(), "a name is listed twice");

    let committed: BTreeSet<String> = fs::read_dir(root.join("results"))
        .expect("results/")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|x| x == "txt"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        table, committed,
        "the Experiment table (left) and results/*.txt (right) must name the same artefacts"
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
