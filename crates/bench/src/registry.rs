//! Every results file, from one registry: an [`Entry`] is a name and
//! the function that fills its [`Artefact`], one of the paper's eleven
//! tables and figures (text `<name>.txt`, cells in the fidelity ledger)
//! or one of the seven gated sweeps (`<name>.json`, gates). The bin and
//! Tier-1 (`crates/bench/tests/paper.rs`) both run entries through
//! [`run`].

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use sb_observe::Json;

use crate::gate::Gate;
use crate::paper::{ablations, ipc, kv, rewriter, sqlite, Artefact, PaperRow};
use crate::sweep;
use Entry::{Paper, Sweep};

/// A paper experiment: fills its artefact next to what the paper printed.
pub type PaperRun = fn(&[PaperRow], &mut Artefact);
/// A sweep: fills its artefact, given the results directory (where
/// `chaos` writes its postmortem bundles and `profile` finds its
/// baseline).
pub type SweepRun = fn(&Path, &mut Artefact);

/// One registry entry: its name (what `sb-bench NAME` and
/// EXPERIMENTS.md call it) and how it fills its artefact.
pub enum Entry {
    /// A paper artefact and the paper's rows; its text is its one file,
    /// `<name>.txt`.
    Paper(&'static str, PaperRun, &'static [PaperRow]),
    /// A gated sweep and the files it writes.
    Sweep(&'static str, SweepRun, &'static [&'static str]),
}

/// The paper's evaluation in the paper's order, then the gated sweeps.
pub const ENTRIES: &[Entry] = &[
    Paper("table1", kv::table1, kv::POLLUTION),
    Paper("figure2", kv::figure2, kv::LATENCY),
    Paper("table2", ipc::table2, ipc::PRIMITIVES),
    Paper("table3", rewriter::table3, &[]),
    Paper("figure7", ipc::figure7, ipc::ROUNDTRIPS),
    Paper("figure8", kv::figure8, kv::LATENCY),
    Paper("table4", sqlite::table4, sqlite::OPERATIONS),
    Paper("figure9_11", sqlite::figure9_11, sqlite::SCALING),
    Paper("table5", sqlite::table5, sqlite::VIRTUALIZATION),
    Paper("table6", rewriter::table6, rewriter::OCCURRENCES),
    Paper("ablations", ablations::ablations, &[]),
    Sweep("chaos", sweep::chaos::run, &["chaos.json"]),
    Sweep("graph", sweep::graph::run, &["graph.json"]),
    Sweep("profile", sweep::profile::run, sweep::profile::FILES),
    Sweep("ring", sweep::ring::run, &["ring.json"]),
    Sweep(
        "runtime_scaling",
        sweep::runtime_scaling::run,
        &["runtime_scaling.json"],
    ),
    Sweep("sentinel", sweep::sentinel::run, &["sentinel.json"]),
    Sweep("tenant", sweep::tenant::run, &["tenant.json"]),
];

impl Entry {
    /// What `sb-bench NAME` and EXPERIMENTS.md call it.
    pub fn name(&self) -> &'static str {
        match self {
            Paper(name, ..) | Sweep(name, ..) => name,
        }
    }

    /// The committed files it writes, relative to the results directory.
    pub fn files(&self) -> Vec<String> {
        match self {
            Paper(name, ..) => vec![format!("{name}.txt")],
            Sweep(_, _, files) => files.iter().map(|f| f.to_string()).collect(),
        }
    }

    /// Runs the entry with `dir` as its results directory. A panic is
    /// an artefact holding nothing but one breached gate naming the
    /// entry (the panic hook has printed what it said).
    pub fn artefact(&self, dir: &Path) -> Artefact {
        let mut a = Artefact::default();
        let ran = panic::catch_unwind(AssertUnwindSafe(|| match self {
            Paper(name, run, rows) => {
                run(rows, &mut a);
                a.files.push((format!("{name}.txt"), a.text.clone()));
            }
            Sweep(_, run, _) => run(dir, &mut a),
        }));
        if ran.is_err() {
            a = Artefact::default();
            a.gates
                .push(Gate::none(format!("{} panicked", self.name()), 1, "panics"));
        }
        a
    }
}

/// The entry called `name`.
pub fn find(name: &str) -> Option<&'static Entry> {
    ENTRIES.iter().find(|e| e.name() == name)
}

/// The entries `names` pick, in registry order, or every entry when
/// `names` is empty; a name no entry has is an error listing them all.
pub fn select(names: &[String]) -> Result<Vec<&'static Entry>, String> {
    if let Some(unknown) = names.iter().find(|n| find(n).is_none()) {
        let known: Vec<&str> = ENTRIES.iter().map(Entry::name).collect();
        return Err(format!(
            "no entry `{unknown}`; the registry holds {}",
            known.join(", ")
        ));
    }
    let picked = |e: &&Entry| names.is_empty() || names.iter().any(|n| n == e.name());
    Ok(ENTRIES.iter().filter(picked).collect())
}

/// Runs `entries` with `dir` as their results directory on one scoped
/// thread per core (not one per entry: every entry at once would hold
/// several times the ~1.3 GB two threads peak at): their artefacts, in
/// `entries`' order.
pub fn run(entries: &[&Entry], dir: &Path) -> Vec<Artefact> {
    let next = AtomicUsize::new(0);
    let done: Vec<Mutex<Artefact>> = entries.iter().map(|_| Mutex::default()).collect();
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    thread::scope(|s| {
        for _ in 0..cores.min(entries.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(entry) = entries.get(i) else { break };
                *done[i].lock().expect("no run panics holding it") = entry.artefact(dir);
            });
        }
    });
    let done = done.into_iter().map(Mutex::into_inner);
    done.map(|a| a.expect("no run panics holding it")).collect()
}

/// The fidelity ledger `fidelity.json`, one line per `measured (paper)`
/// cell, when every paper entry is among `entries` and held its gates
/// (ran to the end); `None` otherwise.
pub fn fidelity(entries: &[&Entry], artefacts: &[Artefact]) -> Option<String> {
    let ran = |e: &Entry| {
        let a = &artefacts[entries.iter().position(|r| r.name() == e.name())?];
        a.gates.iter().all(Gate::holds).then_some(a)
    };
    let mut rows = Vec::new();
    for e in ENTRIES.iter().filter(|e| matches!(e, Paper(..))) {
        for c in &ran(e)?.cells {
            let row = Json::obj()
                .field("experiment", e.name())
                .field("row", c.row.as_str())
                .field("column", c.column.as_str())
                .field("paper", c.paper)
                .field("measured", c.measured)
                .field("ratio", c.measured / c.paper);
            rows.push(row.to_string());
        }
    }
    let rows = rows.join(",\n");
    Some(format!(
        "{{\"bench\":\"fidelity\",\"rows\":[\n{rows}\n]}}\n"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unknown_name_is_an_error_listing_every_entry() {
        let e = select(&["table7".into()]).err().expect("no such entry");
        assert!(e.contains("`table7`"), "{e}");
        let names: Vec<&str> = ENTRIES.iter().map(Entry::name).collect();
        assert!(e.ends_with(&names.join(", ")), "{e}");
        let picked = select(&["tenant".into(), "table1".into()]).expect("known names");
        let names: Vec<&str> = picked.iter().map(|e| e.name()).collect();
        assert_eq!(names, ["table1", "tenant"], "registry order");
        assert_eq!(select(&[]).expect("all").len(), ENTRIES.len());
    }

    fn boom(_: &Path, _: &mut Artefact) {
        panic!("the fake entry blew up");
    }

    fn fine(dir: &Path, a: &mut Artefact) {
        a.text += "fine\n";
        a.json(
            "fine.json",
            &Json::obj().field("dir", dir.display().to_string()),
        );
    }

    /// A panicking entry is one breached gate naming it, and the entries
    /// beside it still produce their files.
    #[test]
    fn a_panicking_entry_is_a_breached_gate_and_the_others_still_run() {
        let boom = Sweep("boom", boom, &[]);
        let fine = Sweep("fine", fine, &["fine.json"]);
        let artefacts = run(&[&fine, &boom, &fine], Path::new("somewhere"));
        let [before, blown, after] = &artefacts[..] else {
            panic!("one artefact per entry");
        };
        let file = (
            "fine.json".to_string(),
            "{\"dir\":\"somewhere\"}\n".to_string(),
        );
        for a in [before, after] {
            assert_eq!(
                (a.text.as_str(), &a.files[..]),
                ("fine\n", &[file.clone()][..])
            );
            assert!(a.gates.iter().all(Gate::holds));
        }
        assert!(blown.files.is_empty() && blown.text.is_empty());
        let [gate] = &blown.gates[..] else {
            panic!("one gate: {:?}", blown.gates);
        };
        assert!(!gate.holds());
        assert!(gate.name.contains("boom"), "{}", gate.name);
        assert!(fidelity(&[&fine, &boom], &artefacts[..2]).is_none());
    }
}
