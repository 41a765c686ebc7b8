//! The paper's headline claims as relations over the committed fidelity
//! ledger (`results/fidelity.json`): each test pins the *shape* of one
//! table or figure — who wins, by how much, where the crossovers fall —
//! over the cells `paper` measured, named `experiment / row / column`.
//! Nothing is measured here. How far a cell may sit from the paper is
//! `BANDS`' business in `paper.rs`, which also re-derives the cheap
//! artefacts to the ledger cell for cell; `tools/regen_results.sh`
//! re-derives the rest.

mod ledger;

use std::ops::RangeInclusive;
use std::sync::OnceLock;

use sb_bench::paper::Cell;

const INF: f64 = f64::INFINITY;

/// The committed ledger, read once.
fn ledger() -> &'static [(String, Cell)] {
    static LEDGER: OnceLock<Vec<(String, Cell)>> = OnceLock::new();
    LEDGER.get_or_init(ledger::read)
}

/// `experiment`'s row labels, in ledger order.
fn rows(experiment: &str) -> Vec<&str> {
    let mut rows: Vec<&str> = ledger::cells(ledger(), experiment)
        .map(|c| c.row.as_str())
        .collect();
    rows.dedup();
    rows
}

/// The cell named `experiment / row / column`.
fn cell(name: &str) -> &'static Cell {
    let named = ledger()
        .iter()
        .find(|(e, c)| name == format!("{e} / {} / {}", c.row, c.column));
    &named
        .unwrap_or_else(|| panic!("{name}: no such ledger cell"))
        .1
}

fn get(name: &str) -> f64 {
    cell(name).measured
}

/// A strict ordering: each named cell measures below the next. Like the
/// other two relations, it fails the test at once, naming its cells.
fn ascending(names: &[impl AsRef<str>]) {
    for pair in names.windows(2) {
        let (a, b) = (pair[0].as_ref(), pair[1].as_ref());
        let (x, y) = (get(a), get(b));
        assert!(
            x < y,
            "{a}: measured {x} vs {y} at {b}, which must be larger"
        );
    }
}

/// A bounded difference (`op` '−') or ratio (`op` '÷') of two cells.
fn bounded(a: &str, op: char, b: &str, bounds: RangeInclusive<f64>) {
    let (x, y) = (get(a), get(b));
    let v = if op == '÷' { x / y } else { x - y };
    assert!(
        bounds.contains(&v),
        "{a}: measured {x} vs {y} at {b}: {op} {v} outside {bounds:?}"
    );
}

/// Exact equality: `a` measures `y`, as `b` does.
fn equal(a: &str, y: f64, b: &str) {
    let x = get(a);
    assert_eq!(x, y, "{a}: measured {x} vs {y} at {b}, which it must equal");
}

/// Table 1: Delay compensates only the direct cost, so it pollutes
/// exactly as Baseline does; IPC's three address spaces miss far more in
/// the i-cache and the d-TLB.
#[test]
fn table1_delay_pollutes_like_baseline_and_ipc_far_more() {
    for column in ["i-cache", "d-cache", "L2", "L3", "i-TLB", "d-TLB"] {
        let [base, delay, ipc] =
            ["Baseline", "Delay", "IPC"].map(|row| format!("table1 / {row} / {column}"));
        equal(&delay, get(&base), &base);
        if column == "i-cache" || column == "d-TLB" {
            bounded(&ipc, '÷', &delay, 4.0..=INF);
        }
    }
}

/// Figures 2 and 8 at every length: Baseline < Delay < IPC < IPC-CrossCore,
/// Delay pays exactly four one-way fastpaths (Table 2) over Baseline and
/// cross-core IPC at least two IPIs over IPC; at 16 B IPC costs more than
/// twice Baseline. Figure 8 puts SkyBridge between Baseline and IPC.
#[test]
fn figure2_and_8_ordering_at_16_bytes() {
    let one_way = get("table2 / one-way fastpath total / measured");
    let ipi = get("table2 / IPI / measured");
    for figure in ["figure2", "figure8"] {
        for row in rows(figure) {
            let [base, delay, ipc, cross, sky] =
                ["Baseline", "Delay", "IPC", "IPC-CrossCore", "SkyBridge"]
                    .map(|col| format!("{figure} / {row} / {col}"));
            ascending(&[&base, &delay, &ipc, &cross]);
            bounded(&delay, '−', &base, 4.0 * one_way..=4.0 * one_way);
            bounded(&cross, '−', &ipc, 2.0 * ipi..=INF);
            if figure == "figure8" {
                ascending(&[&base, &sky, &ipc]);
            }
            if row == "16-Bytes" {
                bounded(&ipc, '÷', &base, 2.0..=INF);
            }
        }
    }
}

/// Figure 8: "When the length of key and value is large, the overhead of
/// SkyBridge is negligible" — its overhead *relative to Baseline* is
/// smaller at 1024 B than at 16 B (paper: 30 % down to 5 %), and modest.
#[test]
fn figure8_overhead_vs_baseline_shrinks_with_payload() {
    let small = get("figure8 / 16-Bytes / SkyBridge") / get("figure8 / 16-Bytes / Baseline");
    let (sky, base) = (
        "figure8 / 1024-Bytes / SkyBridge",
        "figure8 / 1024-Bytes / Baseline",
    );
    bounded(sky, '÷', base, 1.0..=small);
    bounded(sky, '÷', base, 1.0..=1.5);
}

/// Figure 7's totals rank as the paper's do (bars the paper ties, the
/// three SkyBridge ones, stand as one), and each kernel's cross-core bar
/// pays at least its two IPIs (Table 2) over its 1-core bar.
#[test]
fn figure7_totals_track_the_paper() {
    let ipi = get("table2 / IPI / measured");
    let mut bars: Vec<&Cell> = ledger::cells(ledger(), "figure7").collect();
    bars.sort_by(|a, b| a.paper.total_cmp(&b.paper));
    bars.dedup_by(|a, b| a.paper == b.paper);
    let ranked: Vec<String> = bars
        .iter()
        .map(|k| format!("figure7 / {} / total", k.row))
        .collect();
    ascending(&ranked);
    let total = |row| format!("figure7 / {row} / total");
    for (one_core, cross_core) in [
        ("seL4 fastpath 1-core", "seL4 cross-core"),
        ("Fiasco fastpath 1-core", "Fiasco cross-core"),
        ("Zircon 1-core", "Zircon cross-core"),
    ] {
        bounded(&total(cross_core), '−', &total(one_core), 2.0 * ipi..=INF);
    }
}

/// Figure 7's SkyBridge bars: the kernel is off the path, so its
/// personality is irrelevant — three equal bars, each at least the two
/// VMFUNCs (Table 2) of a round trip. How near 396 they sit is `BANDS`'.
#[test]
fn figure7_skybridge_bar_is_396ish_for_all_kernels() {
    let sel4 = "figure7 / seL4-SkyBridge / total";
    equal("figure7 / Fiasco.OC-SkyBridge / total", get(sel4), sel4);
    equal("figure7 / Zircon-SkyBridge / total", get(sel4), sel4);
    bounded(sel4, '÷', "table2 / VMFUNC / measured", 2.0..=INF);
}

/// Table 4 on every kernel: ST < MT < SkyBridge for each op, and queries
/// get the smallest SkyBridge/MT speed-up (the page cache absorbs reads).
#[test]
fn table4_shape_on_sel4() {
    for row in rows("table4") {
        ascending(
            &["ST-Server", "MT-Server", "SkyBridge"].map(|col| format!("table4 / {row} / {col}")),
        );
    }
    for kernel in ["seL4", "Fiasco", "Zircon"] {
        let speedup =
            |op| ["SkyBridge", "MT-Server"].map(|col| format!("table4 / {kernel} {op} / {col}"));
        let [sky, mt] = speedup("Query");
        let query = get(&sky) / get(&mt);
        for [sky, mt] in ["Insert", "Update", "Delete"].map(speedup) {
            bounded(&sky, '÷', &mt, query..=INF);
        }
    }
}

/// Figures 9–11: throughput *declines* past one thread (the file system's
/// big lock) — every row's 1-thread cell tops its multi-thread cells —
/// and st < mt < SkyBridge at every thread count on every kernel.
#[test]
fn figure9_shape_declines_with_threads() {
    for row in rows("figure9_11") {
        let cell = |n: u32| format!("figure9_11 / {row} / {n}-thread");
        for n in [2, 4, 8] {
            ascending(&[cell(n), cell(1)]);
        }
    }
    for kernel in ["seL4", "Fiasco.OC", "Zircon"] {
        for n in [1, 2, 4, 8] {
            ascending(
                &["st", "mt", "SkyBridge"]
                    .map(|mode| format!("figure9_11 / {kernel}-{mode} / {n}-thread")),
            );
        }
    }
}

/// Table 5: the Rootkernel adds no exits and (statistically) no slowdown.
#[test]
fn table5_rootkernel_is_exitless() {
    for row in rows("table5") {
        let [native, root, exits] =
            ["Native", "Rootkernel", "#VM exits"].map(|col| format!("table5 / {row} / {col}"));
        bounded(&root, '÷', &native, 0.97..=1.03);
        equal(&exits, cell(&exits).paper, "the paper");
    }
}

/// Table 6: the scanner finds exactly the paper's count of VMFUNC
/// occurrences in every system directory. Its sensitivity on clean and
/// injected code is `sb-rewriter`'s corpus test.
#[test]
fn table6_scanner_sensitivity() {
    for row in rows("table6") {
        let count = format!("table6 / {row} / VMFUNC count");
        equal(&count, cell(&count).paper, "the paper");
    }
}
