//! `sb-bench [NAME…]`: runs the named entries of
//! `sb_bench::registry::ENTRIES`, or all of them, prints their text in
//! registry order, writes their files under `results/` (and
//! `results/fidelity.json` when every paper entry ran), and ends in the
//! one verdict: a breached gate, a panicked entry or an unwritten file
//! exits non-zero.

use std::path::Path;

use sb_bench::gate::{self, Gate};
use sb_bench::registry::{fidelity, run, select};
use sb_bench::report::{write, RESULTS_DIR};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let entries = select(&names).unwrap_or_else(|e| gate::die(&[e]));
    let dir = Path::new(RESULTS_DIR);
    let artefacts = run(&entries, dir);
    let mut gates = Vec::new();
    for (entry, a) in entries.iter().zip(&artefacts) {
        print!("{}", a.text);
        for (name, contents) in &a.files {
            gates.push((entry.name(), Gate::written(write(dir, name, contents))));
        }
        gates.extend(a.gates.iter().map(|g| (entry.name(), g.clone())));
    }
    if let Some(ledger) = fidelity(&entries, &artefacts) {
        let written = Gate::written(write(dir, "fidelity.json", &ledger));
        gates.push(("fidelity", written));
    }
    gate::verdict(&gates);
}
