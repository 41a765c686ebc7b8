//! Every table and figure of the paper's evaluation, as one table.
//!
//! An [`Experiment`] is a name, the function that regenerates the
//! artefact's text on the simulated machine, and the numbers the paper
//! printed for it, as data. `paper NAME…` prints the named artefacts;
//! `paper` alone writes every `<results dir>/<name>.txt`, which
//! `tools/regen_results.sh` diffs against the committed `results/`.

mod ablations;
mod ipc;
mod kv;
mod rewriter;
mod sqlite;

/// One row of paper reference values: the row's label as the paper (and
/// the artefact) prints it, and its cells left to right. A two-cell row
/// of a latency table is `value ± deviation`.
pub type PaperRow = (&'static str, &'static [f64]);

/// One artefact of the paper's evaluation.
pub struct Experiment {
    /// The artefact's name: `results/<name>.txt`, `paper <name>`.
    pub name: &'static str,
    /// Appends the artefact's text, measured next to `paper`'s values.
    pub run: fn(paper: &[PaperRow], out: &mut String),
    /// What the paper printed, row by row (empty where the paper gives
    /// no number to sit beside ours).
    pub paper: &'static [PaperRow],
}

impl Experiment {
    /// Runs the experiment and returns the artefact's text.
    pub fn text(&self) -> String {
        let mut out = String::new();
        (self.run)(self.paper, &mut out);
        out
    }
}

/// One row of [`EXPERIMENTS`].
const fn experiment(
    name: &'static str,
    run: fn(&[PaperRow], &mut String),
    paper: &'static [PaperRow],
) -> Experiment {
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
    experiment("table6", rewriter::table6, &[]),
    experiment("ablations", ablations::ablations, &[]),
];

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}
