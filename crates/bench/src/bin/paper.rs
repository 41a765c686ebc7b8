//! The paper's evaluation, regenerated on the simulated machine.
//!
//! `paper NAME…` prints the named artefacts (`table1`…`table6`,
//! `figure2`, `figure7`, `figure8`, `figure9_11`, `ablations`); `paper`
//! alone writes every one to `results/<name>.txt` plus
//! `fidelity.json`, one line per `measured (paper)` cell, ready to diff
//! against the committed `results/`.
//!
//! No knob: every run size is a constant of its experiment, so the
//! written cells are the ones the ledger's bands describe.

use sb_bench::gate::{self, Gate};
use sb_bench::paper::{find, EXPERIMENTS};
use sb_bench::report::write_raw;
use sb_observe::Json;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        let mut ledger = Vec::new();
        let mut gates: Vec<Gate> = EXPERIMENTS
            .iter()
            .map(|e| {
                let artefact = e.artefact();
                ledger.extend(artefact.cells.iter().map(|c| {
                    Json::obj()
                        .field("experiment", e.name)
                        .field("row", c.row.as_str())
                        .field("column", c.column.as_str())
                        .field("paper", c.paper)
                        .field("measured", c.measured)
                        .field("ratio", c.measured / c.paper)
                        .to_string()
                }));
                Gate::written(write_raw(&format!("{}.txt", e.name), &artefact.text))
            })
            .collect();
        let ledger = format!(
            "{{\"bench\":\"fidelity\",\"rows\":[\n{}\n]}}\n",
            ledger.join(",\n")
        );
        gates.push(Gate::written(write_raw("fidelity.json", &ledger)));
        gate::verdict("paper", &gates);
    }
    for name in &names {
        match find(name) {
            Some(e) => print!("{}", e.artefact().text),
            None => {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                gate::die(&[format!(
                    "no experiment `{name}`; the table holds {}",
                    known.join(", ")
                )]);
            }
        }
    }
}
