//! The one verdict path of `sb-bench`.
//!
//! A registry entry collects its pass/fail conditions as [`Gate`] rows —
//! a measured number against a bound — in its `Artefact`; the bin adds
//! one row per file it writes and ends in [`verdict`]: every row is
//! printed with its entry and its verdict, and a breached row (or a
//! file that could not be written) exits non-zero. [`die`] is the only
//! call of `std::process::exit` in the crate.

use std::fmt;
use std::io;
use std::path::PathBuf;

use crate::table;

/// What a [`Gate`]'s measured value is held to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// `measured <= bound`.
    AtMost(f64),
    /// `measured < bound`.
    Below(f64),
    /// `measured >= bound`.
    AtLeast(f64),
    /// `measured > bound`.
    Above(f64),
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (op, bound) = match self {
            Bound::AtMost(b) => ("<=", b),
            Bound::Below(b) => ("<", b),
            Bound::AtLeast(b) => (">=", b),
            Bound::Above(b) => (">", b),
        };
        write!(f, "{op} {}", number(*bound))
    }
}

/// One pass/fail row of a registry entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// What is held, e.g. `skybridge ring p50 / direct p50 at rho 0.2`.
    pub name: String,
    /// The value this run measured.
    pub measured: f64,
    /// What it is held to.
    pub bound: Bound,
    /// The unit of both.
    pub unit: &'static str,
}

impl Gate {
    /// `measured` held to `bound`.
    pub fn new(name: impl Into<String>, measured: f64, bound: Bound, unit: &'static str) -> Gate {
        Gate {
            name: name.into(),
            measured,
            bound,
            unit,
        }
    }

    /// A count of violations, held to zero.
    pub fn none(name: impl Into<String>, count: u64, unit: &'static str) -> Gate {
        Gate::new(name, count as f64, Bound::AtMost(0.0), unit)
    }

    /// A results file: written, or the reason it was not.
    pub fn written(file: io::Result<PathBuf>) -> Gate {
        let (name, files) = match file {
            Ok(path) => (format!("wrote {}", path.display()), 1.0),
            Err(e) => (format!("results file not written: {e}"), 0.0),
        };
        Gate::new(name, files, Bound::AtLeast(1.0), "file")
    }

    /// Whether the measured value is inside the bound (NaN never is).
    pub fn holds(&self) -> bool {
        match self.bound {
            Bound::AtMost(b) => self.measured <= b,
            Bound::Below(b) => self.measured < b,
            Bound::AtLeast(b) => self.measured >= b,
            Bound::Above(b) => self.measured > b,
        }
    }
}

/// `<name>: measured <value> <unit>, bound <bound>`, as a breach is
/// reported.
impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, measured) = (&self.name, number(self.measured));
        let (unit, bound) = (self.unit, self.bound);
        write!(f, "{name}: measured {measured} {unit}, bound {bound}")
    }
}

/// Integers without a fraction, everything else to four places.
pub(crate) fn number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// Prints `failures` as `FAIL:` lines and exits non-zero.
pub fn die(failures: &[String]) -> ! {
    for f in failures {
        eprintln!("FAIL: {f}");
    }
    std::process::exit(1)
}

/// Prints every gate with the entry it belongs to and its verdict;
/// exits non-zero when one is breached.
pub fn verdict(gates: &[(&str, Gate)]) {
    let rows: Vec<Vec<String>> = gates
        .iter()
        .map(|(entry, g)| {
            vec![
                entry.to_string(),
                g.name.clone(),
                number(g.measured),
                g.bound.to_string(),
                g.unit.to_string(),
                if g.holds() { "ok" } else { "FAIL" }.to_string(),
            ]
        })
        .collect();
    let header = ["entry", "gate", "measured", "bound", "unit", "verdict"];
    print!("{}", table("sb-bench: gates", &header, &rows));
    let failures: Vec<String> = gates
        .iter()
        .filter(|(_, g)| !g.holds())
        .map(|(entry, g)| format!("{entry}: {g}"))
        .collect();
    if !failures.is_empty() {
        die(&failures);
    }
    println!("sb-bench: all {} gates hold", gates.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_hold_on_the_stated_side_only() {
        let g = |measured, bound| Gate::new("g", measured, bound, "x").holds();
        assert!(g(1.0, Bound::AtMost(1.0)) && !g(1.0, Bound::Below(1.0)));
        assert!(g(1.0, Bound::AtLeast(1.0)) && !g(1.0, Bound::Above(1.0)));
        assert!(g(0.9, Bound::Below(1.0)) && g(1.1, Bound::Above(1.0)));
        assert!(Gate::none("leaks", 0, "faults").holds());
        assert!(!Gate::none("leaks", 1, "faults").holds());
        for bound in [
            Bound::AtMost(1.0),
            Bound::Below(1.0),
            Bound::AtLeast(1.0),
            Bound::Above(1.0),
        ] {
            assert!(!g(f64::NAN, bound), "NaN must fail {bound}");
        }
    }

    #[test]
    fn an_unwritten_file_is_a_breached_gate() {
        assert!(Gate::written(Ok(PathBuf::from("results/x.json"))).holds());
        let lost = Gate::written(Err(io::Error::other("disk full")));
        assert!(!lost.holds());
        assert!(lost.name.contains("disk full"), "{}", lost.name);
    }
}
