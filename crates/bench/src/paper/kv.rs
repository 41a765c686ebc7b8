//! The KV-store pipeline experiments: Table 1 (pollution of processor
//! structures), Figure 2 (latency vs key/value length) and Figure 8
//! (the same sweep plus the SkyBridge configuration).

use sb_ycsb::kv::KV_LENGTHS;
use skybridge_repro::scenarios::kv::{KvMode, KvPipeline};

use super::{Artefact, PaperRow};

/// Operations Table 1 counts misses across, as the paper did.
const POLLUTION_OPS: usize = 512;
/// Key/value length of Table 1's operations.
const POLLUTION_KV_LEN: usize = 64;
/// Measured operations per cell of the Figure 2 and 8 sweeps.
const SWEEP_OPS: usize = 384;

/// Table 1, misses across 512 operations: i-cache, d-cache, L2, L3,
/// i-TLB, d-TLB.
pub const POLLUTION: &[PaperRow] = &[
    ("Baseline", &[15.0, 10624.0, 13237.0, 43.0, 8.0, 17.0]),
    ("Delay", &[15.0, 10639.0, 13258.0, 43.0, 9.0, 19.0]),
    ("IPC", &[696.0, 27054.0, 15974.0, 44.0, 11.0, 7832.0]),
];

/// Figures 2 and 8, cycles per operation: Baseline, Delay, IPC,
/// IPC-CrossCore, SkyBridge (Figure 2 stops before the last).
pub const LATENCY: &[PaperRow] = &[
    ("16-Bytes", &[2707.0, 4735.0, 7929.0, 18895.0, 3512.0]),
    ("64-Bytes", &[3485.0, 5345.0, 8548.0, 19609.0, 4112.0]),
    ("256-Bytes", &[5884.0, 7828.0, 11025.0, 22162.0, 6413.0]),
    ("1024-Bytes", &[14652.0, 16906.0, 20577.0, 32061.0, 15378.0]),
];

/// The pipeline layouts, in [`LATENCY`]'s column order.
const MODES: [(&str, KvMode); 5] = [
    ("Baseline", KvMode::Baseline),
    ("Delay", KvMode::Delay),
    ("IPC", KvMode::Ipc),
    ("IPC-CrossCore", KvMode::IpcCrossCore),
    ("SkyBridge", KvMode::SkyBridge),
];

pub fn table1(paper: &[PaperRow], a: &mut Artefact) {
    let (ops, len) = (POLLUTION_OPS, POLLUTION_KV_LEN);
    for ((name, paper), (_, mode)) in paper.iter().zip(MODES) {
        let mut p = KvPipeline::new(mode, len, ops + 128);
        p.run_ops(64); // Warm up, as the paper's measured region is hot.
        let pmu = p.run_ops(ops).pmu;
        let misses = [
            ("i-cache", pmu.l1i_misses),
            ("d-cache", pmu.l1d_misses),
            ("L2", pmu.l2_misses),
            ("L3", pmu.l3_misses),
            ("i-TLB", pmu.itlb_misses),
            ("d-TLB", pmu.dtlb_misses),
        ];
        for ((column, n), &paper) in misses.into_iter().zip(*paper) {
            a.cell(name, column, n as f64, paper);
        }
    }
    a.table(
        &format!(
            "Table 1: processor-structure misses across {ops} KV ops — measured (paper, 512 ops)"
        ),
        "layout",
    );
    a.text += "\nShape to check: IPC ≫ Delay ≈ Baseline on i-cache and d-TLB;\n\
               the Delay row compensates the *direct* cost, so its pollution\n\
               matches Baseline.\n";
}

/// One latency sweep over `modes`: every key/value length, measured
/// (paper) per cell.
fn sweep(title: &str, modes: &[(&str, KvMode)], paper: &[PaperRow], a: &mut Artefact) {
    let ops = SWEEP_OPS;
    for (&len, (label, cells)) in KV_LENGTHS.iter().zip(paper) {
        for ((name, mode), &paper) in modes.iter().zip(*cells) {
            let mut p = KvPipeline::new(*mode, len, ops + 128);
            p.run_ops(64);
            a.cell(label, name, p.run_ops(ops).avg_cycles as f64, paper);
        }
    }
    a.table(title, "key/value");
}

pub fn figure2(paper: &[PaperRow], a: &mut Artefact) {
    sweep(
        "Figure 2: KV op latency in cycles — measured (paper)",
        &MODES[..4],
        paper,
        a,
    );
    a.text += "\nShape to check: Baseline < Delay < IPC < IPC-CrossCore at every\n\
               length; gaps shrink relative to totals as the length grows.\n";
}

pub fn figure8(paper: &[PaperRow], a: &mut Artefact) {
    sweep(
        "Figure 8: KV op latency with SkyBridge — measured (paper)",
        &MODES,
        paper,
        a,
    );
    a.text += "\nShape to check: SkyBridge sits between Baseline and IPC at small\n\
               lengths (\"SkyBridge can reduce the latency from 7929 cycles to\n\
               3512\"), and its advantage shrinks as payloads grow (\"When the\n\
               length is large, the overhead of SkyBridge is negligible\").\n";
}
