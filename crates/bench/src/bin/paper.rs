//! The paper's evaluation, regenerated on the simulated machine.
//!
//! `paper NAME…` prints the named artefacts (`table1`…`table6`,
//! `figure2`, `figure7`, `figure8`, `figure9_11`, `ablations`); `paper`
//! alone writes every one to `<results dir>/<name>.txt` (and
//! `figure9_11.json`), ready to diff against the committed `results/`.
//!
//! Run-size knobs: `SB_OPS`, `SB_KVLEN`, `SB_ITERS`, `SB_RECORDS`,
//! `SB_ELF_LIMIT`, `SB_LRU_SERVERS`; `SB_RESULTS_DIR` moves the output.

use sb_bench::gate::{self, Gate};
use sb_bench::paper::{find, EXPERIMENTS};
use sb_bench::report::write_raw;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        let gates: Vec<Gate> = EXPERIMENTS
            .iter()
            .map(|e| Gate::written(write_raw(&format!("{}.txt", e.name), &e.text())))
            .collect();
        gate::verdict("paper", &gates);
    }
    for name in &names {
        match find(name) {
            Some(e) => print!("{}", e.text()),
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
