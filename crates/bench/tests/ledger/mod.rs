//! The committed fidelity ledger, read once for every test that judges
//! it: `paper.rs` holds it to the artefacts and the paper, and
//! `experiments.rs` states the paper's shapes as relations over it.

use std::fs;
use std::path::PathBuf;

use sb_bench::paper::Cell;
use sb_observe::Json;

/// The repository root, where `results/` lives.
pub fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every row of `results/fidelity.json`, in file order, as the
/// experiment it belongs to and the cell `paper` recorded.
pub fn read() -> Vec<(String, Cell)> {
    let text = fs::read_to_string(root().join("results/fidelity.json")).expect("fidelity.json");
    let doc = Json::parse(&text).expect("fidelity.json parses");
    let rows = doc.get("rows").and_then(Json::as_array).expect("`rows`");
    let read_row = |row: &Json| {
        let text = |key| row.get(key).and_then(Json::as_str).expect(key).to_string();
        let number = |key| row.get(key).and_then(Json::as_f64).expect(key);
        let cell = Cell {
            row: text("row"),
            column: text("column"),
            paper: number("paper"),
            measured: number("measured"),
        };
        (text("experiment"), cell)
    };
    rows.iter().map(read_row).collect()
}

/// `experiment`'s cells in `ledger`, in ledger order.
pub fn cells<'a>(
    ledger: &'a [(String, Cell)],
    experiment: &'a str,
) -> impl Iterator<Item = &'a Cell> {
    ledger
        .iter()
        .filter(move |(e, _)| e == experiment)
        .map(|(_, c)| c)
}
