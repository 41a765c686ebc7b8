//! Every table and figure of the paper's evaluation, as one table.
//!
//! An [`Experiment`] is a name, the function that regenerates the
//! artefact's text on the simulated machine, and the numbers the paper
//! printed for it, as data. `paper NAME…` prints the named artefacts;
//! `paper` alone writes every `<results dir>/<name>.txt` and the
//! fidelity ledger `fidelity.json` — one row per `measured (paper)` cell
//! — which `tools/regen_results.sh` diffs against the committed
//! `results/`.

mod ablations;
mod ipc;
mod kv;
mod rewriter;
mod sqlite;

/// One row of paper reference values: the row's label as the paper (and
/// the artefact) prints it, and its cells left to right. A two-cell row
/// of a latency table is `value ± deviation`.
pub type PaperRow = (&'static str, &'static [f64]);

/// One number this repo measured where the paper printed one.
pub struct Cell {
    /// The row's label, as the artefact prints it.
    pub row: String,
    /// The column's header.
    pub column: String,
    /// What the paper printed.
    pub paper: f64,
    /// What the run measured.
    pub measured: f64,
}

/// The [`Cell`]s of one artefact, in print order.
#[derive(Default)]
pub struct Ledger(pub Vec<Cell>);

impl Ledger {
    /// Records one cell and returns it as the artefacts print it:
    /// `measured (paper)`, both rounded to whole numbers.
    pub fn cell(&mut self, row: &str, column: &str, measured: f64, paper: f64) -> String {
        self.0.push(Cell {
            row: row.to_string(),
            column: column.to_string(),
            paper,
            measured,
        });
        format!("{measured:.0} ({paper:.0})")
    }
}

/// Regenerates an artefact: appends its text to `out` and its cells to
/// `ledger`, measured next to `paper`'s values.
pub type Run = fn(paper: &[PaperRow], out: &mut String, ledger: &mut Ledger);

/// One artefact of the paper's evaluation.
pub struct Experiment {
    /// The artefact's name: `results/<name>.txt`, `paper <name>`.
    pub name: &'static str,
    /// Regenerates the artefact.
    pub run: Run,
    /// What the paper printed, row by row (empty where the paper gives
    /// no number to sit beside ours).
    pub paper: &'static [PaperRow],
}

impl Experiment {
    /// Runs the experiment: the artefact's text and its cells.
    pub fn artefact(&self) -> (String, Ledger) {
        let (mut out, mut ledger) = (String::new(), Ledger::default());
        (self.run)(self.paper, &mut out, &mut ledger);
        (out, ledger)
    }
}

/// One row of [`EXPERIMENTS`].
const fn experiment(name: &'static str, run: Run, paper: &'static [PaperRow]) -> Experiment {
    Experiment { name, run, paper }
}

/// The evaluation, in the paper's order.
pub const EXPERIMENTS: &[Experiment] = &[
    experiment("table1", kv::table1, kv::POLLUTION),
    experiment("figure2", kv::figure2, kv::LATENCY),
    experiment("table2", ipc::table2, ipc::PRIMITIVES),
    experiment("table3", rewriter::table3, &[]),
    experiment("figure7", ipc::figure7, ipc::ROUNDTRIPS),
    experiment("figure8", kv::figure8, kv::LATENCY),
    experiment("table4", sqlite::table4, sqlite::OPERATIONS),
    experiment("figure9_11", sqlite::figure9_11, sqlite::SCALING),
    experiment("table5", sqlite::table5, sqlite::VIRTUALIZATION),
    experiment("table6", rewriter::table6, rewriter::OCCURRENCES),
    experiment("ablations", ablations::ablations, &[]),
];

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}
