//! Every table and figure of the paper's evaluation, and the
//! [`Artefact`] every registry entry fills.
//!
//! Each experiment is a function that regenerates one artefact on the
//! simulated machine next to the numbers the paper printed for it, as
//! data ([`PaperRow`]s); [`crate::registry`] lists them beside the gated
//! sweeps. An experiment only places cells, and [`Artefact::table`]
//! decides the layout; a sweep shows the rows it writes with
//! [`Artefact::rows`].

pub(crate) mod ablations;
pub(crate) mod ipc;
pub(crate) mod kv;
pub(crate) mod rewriter;
pub(crate) mod sqlite;

use sb_observe::Json;

use crate::gate::Gate;
use crate::{rows_table, table};

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

/// What one registry entry produced: its text, the [`Cell`]s it
/// recorded in print order, its files, its gates, and the table in
/// progress.
#[derive(Default)]
pub struct Artefact {
    /// The text: a paper artefact's `<name>.txt`, what a sweep prints.
    pub text: String,
    /// Every `measured (paper)` number, in print order.
    pub cells: Vec<Cell>,
    /// The files it produces, as (name under the results directory,
    /// contents).
    pub files: Vec<(String, String)>,
    /// What the run is held to.
    pub gates: Vec<Gate>,
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

    /// Appends [`rows_table`] of `rows` under the space-separated `keys`
    /// to the text: how a sweep shows the rows it writes.
    pub fn rows(&mut self, title: &str, rows: &[Json], keys: &str) {
        let keys: Vec<&str> = keys.split_whitespace().collect();
        self.text += &rows_table(title, rows, &keys);
    }

    /// Adds `doc` as the results file `name`, one trailing newline.
    pub fn json(&mut self, name: impl Into<String>, doc: &Json) {
        self.files.push((name.into(), format!("{doc}\n")));
    }

    /// The one way a run reports a failure: adds `failed` (a count, or
    /// `true` for one) to the gate `name`, a count held to zero that the
    /// first check makes, and prints what failed when it is not zero.
    pub fn check(
        &mut self,
        name: &str,
        unit: &'static str,
        failed: impl Into<u64>,
        what: impl FnOnce() -> String,
    ) {
        let failed = failed.into();
        if failed > 0 {
            eprintln!("FAIL: {name}: {}", what());
        }
        match self.gates.iter_mut().find(|g| g.name == name) {
            Some(gate) => gate.measured += failed as f64,
            None => self.gates.push(Gate::none(name, failed, unit)),
        }
    }
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

    /// A check makes its gate at zero on first use and adds every failure.
    #[test]
    fn a_check_counts_failures_under_one_gate() {
        let mut a = Artefact::default();
        a.check("leaks", "faults", false, String::new);
        assert!(a.gates[0].holds());
        a.check("leaks", "faults", 2u64, || "two leaked".into());
        a.check("leaks", "faults", true, || "one more".into());
        assert_eq!((a.gates.len(), a.gates[0].measured), (1, 3.0));
        assert!(!a.gates[0].holds());
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
