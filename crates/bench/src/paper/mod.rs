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

use crate::table;

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

/// One artefact as it is drawn: the text so far, the [`Cell`]s it
/// recorded in print order, and the table in progress. An experiment
/// only places cells; [`Artefact::table`] decides the layout.
#[derive(Default)]
pub struct Artefact {
    /// The artefact's text: `results/<name>.txt`.
    pub text: String,
    /// Every `measured (paper)` number, in print order.
    pub cells: Vec<Cell>,
    /// The table in progress, as `(row, column, text)` in put order.
    placed: Vec<(String, String, String)>,
}

impl Artefact {
    /// Places `text` in `row` under `column` of the table in progress.
    pub fn put(&mut self, row: &str, column: &str, text: impl ToString) {
        let cell = (row.to_string(), column.to_string(), text.to_string());
        self.placed.push(cell);
    }

    /// Records one [`Cell`] without placing it, for a table that prints
    /// the number its own way.
    pub fn record(&mut self, row: &str, column: &str, measured: f64, paper: f64) {
        self.cells.push(Cell {
            row: row.to_string(),
            column: column.to_string(),
            paper,
            measured,
        });
    }

    /// Records one [`Cell`] and places it as `measured (paper)`, both
    /// rounded to whole numbers.
    pub fn cell(&mut self, row: &str, column: &str, measured: f64, paper: f64) {
        self.record(row, column, measured, paper);
        self.put(row, column, format!("{measured:.0} ({paper:.0})"));
    }

    /// Draws the table in progress under `title` and starts the next.
    /// Rows and columns come in the order they were first put, the row
    /// labels in a first column headed `corner` (no such column if
    /// `corner` is empty), and a cell a row never got prints `-`.
    pub fn table(&mut self, title: &str, corner: &str) {
        let placed = std::mem::take(&mut self.placed);
        let (mut rows, mut header) = (Vec::new(), vec![corner]);
        for (row, column, _) in &placed {
            if !rows.contains(&row.as_str()) {
                rows.push(row);
            }
            if !header[1..].contains(&column.as_str()) {
                header.push(column);
            }
        }
        let text = |row: &str, column: &str| {
            let at = placed.iter().find(|(r, c, _)| r == row && c == column);
            at.map_or("-", |(_, _, text)| text.as_str())
        };
        let first = usize::from(corner.is_empty());
        let grid: Vec<Vec<&str>> = rows
            .iter()
            .map(|row| {
                let cells = header[1..].iter().map(|column| text(row, column));
                std::iter::once(*row).chain(cells).skip(first).collect()
            })
            .collect();
        self.text += &table(title, &header[first..], &grid);
    }
}

/// Regenerates an artefact into `artefact`, measured next to `paper`'s
/// values.
pub type Run = fn(paper: &[PaperRow], artefact: &mut Artefact);

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
    pub fn artefact(&self) -> Artefact {
        let mut artefact = Artefact::default();
        (self.run)(self.paper, &mut artefact);
        artefact
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The table's lines below its banner, header and rule.
    fn body(a: &Artefact) -> Vec<&str> {
        a.text.lines().skip(4).collect()
    }

    #[test]
    fn columns_come_out_in_the_order_first_put_and_gaps_print_a_dash() {
        let mut a = Artefact::default();
        a.put("r1", "zeta", 1);
        a.put("r2", "alpha", 2);
        a.put("r1", "alpha", 3);
        a.table("t", "row");
        assert_eq!(a.text.lines().nth(2), Some("  row  zeta  alpha"));
        assert_eq!(body(&a), ["   r1     1      3", "   r2     -      2"]);
    }

    #[test]
    fn an_empty_corner_drops_the_label_column() {
        let mut a = Artefact::default();
        a.put("", "servers", 512);
        a.put("", "calls", 1024);
        a.table("t", "");
        assert_eq!(a.text.lines().nth(2), Some("  servers  calls"));
        assert_eq!(body(&a), ["      512   1024"]);
    }

    #[test]
    fn a_cell_is_one_ledger_row_printed_whole_and_a_record_prints_nothing() {
        let mut a = Artefact::default();
        a.cell("r", "c", 395.6, 396.4);
        a.record("r", "hidden", 7.0, 8.0);
        a.table("t", "row");
        assert_eq!(a.text.lines().nth(2), Some("  row          c"));
        assert_eq!(body(&a), ["    r  396 (396)"]);
        let cells: Vec<_> = a
            .cells
            .iter()
            .map(|c| (c.row.as_str(), c.column.as_str(), c.measured, c.paper))
            .collect();
        assert_eq!(cells, [("r", "c", 395.6, 396.4), ("r", "hidden", 7.0, 8.0)]);
    }

    /// A table starts empty: what the last one drew is not drawn again.
    #[test]
    fn each_table_draws_only_what_was_put_since_the_last() {
        let mut a = Artefact::default();
        a.put("a", "x", 1);
        a.table("one", "row");
        a.put("b", "y", 2);
        a.table("two", "row");
        let two = &a.text[a.text.find("=== two ===").expect("second banner")..];
        assert_eq!(two, "=== two ===\n  row  y\n  ---  -\n    b  2\n");
    }
}
