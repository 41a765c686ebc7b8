//! The SQLite-stack experiments: Table 4 (per-operation throughput),
//! Figures 9–11 (YCSB-A scaling with client threads) and Table 5 (the
//! Rootkernel's virtualization overhead).

use sb_microkernel::Personality;
use sb_ycsb::OpKind;
use skybridge_repro::scenarios::sqlite::{SqliteStack, StackMode};

use super::{Artefact, PaperRow};
use crate::speedup;

/// Table 4, ops/s: ST-Server, MT-Server, SkyBridge.
pub const OPERATIONS: &[PaperRow] = &[
    ("seL4 Insert", &[4839.08, 6001.82, 11251.08]),
    ("seL4 Update", &[3943.71, 4714.52, 7335.57]),
    ("seL4 Query", &[13245.92, 14025.37, 18610.60]),
    ("seL4 Delete", &[4326.92, 5314.04, 7339.31]),
    ("Fiasco Insert", &[1296.83, 1685.39, 5000.00]),
    ("Fiasco Update", &[1222.83, 1557.09, 4545.45]),
    ("Fiasco Query", &[8108.11, 8256.88, 15789.47]),
    ("Fiasco Delete", &[1255.23, 1607.14, 4568.53]),
    ("Zircon Insert", &[1408.42, 2467.90, 7710.63]),
    ("Zircon Update", &[1376.77, 2360.00, 6643.24]),
    ("Zircon Query", &[9432.34, 9535.56, 17843.54]),
    ("Zircon Delete", &[1389.64, 1389.64, 7027.30]),
];

/// Figures 9–11, YCSB-A ops/s at 1, 2, 4 and 8 client threads.
pub const SCALING: &[PaperRow] = &[
    ("seL4-st", &[9627.0, 3748.0, 1863.0, 1387.0]),
    ("seL4-mt", &[9660.0, 4456.0, 2182.0, 1489.0]),
    ("seL4-SkyBridge", &[17575.0, 8321.0, 6059.0, 2122.0]),
    ("Fiasco.OC-st", &[3644.0, 2342.0, 1365.0, 786.0]),
    ("Fiasco.OC-mt", &[4245.0, 2933.0, 1640.0, 940.0]),
    ("Fiasco.OC-SkyBridge", &[8080.0, 4811.0, 2970.0, 2607.0]),
    ("Zircon-st", &[2466.0, 1137.0, 743.0, 75.0]),
    ("Zircon-mt", &[4181.0, 1602.0, 1187.0, 27.0]),
    ("Zircon-SkyBridge", &[11296.0, 6162.0, 3630.0, 2060.0]),
];

/// Table 5: native ops/s, Rootkernel ops/s, VM exits.
pub const VIRTUALIZATION: &[PaperRow] = &[
    ("YCSB-A 1 thread", &[9745.15, 9694.49, 0.0]),
    ("YCSB-A 8 thread", &[1465.95, 1411.64, 0.0]),
];

/// Records loaded and operations measured per configuration: Table 4.
const TABLE4_RECORDS: u64 = 2000;
const TABLE4_OPS: usize = 150;
/// The same for each cell of Figures 9–11.
const SCALING_RECORDS: u64 = 1000;
const SCALING_OPS: usize = 120;
/// The same for each run of Table 5.
const VIRTUALIZATION_RECORDS: u64 = 1000;
const VIRTUALIZATION_OPS: usize = 150;

/// The three server configurations, in the paper's column order.
const MODES: [StackMode; 3] = [StackMode::IpcSt, StackMode::IpcMt, StackMode::SkyBridge];

/// The three microkernels, named as Figures 9–11 title them.
fn kernels() -> [(&'static str, Personality); 3] {
    [
        ("seL4", Personality::sel4()),
        ("Fiasco.OC", Personality::fiasco_oc()),
        ("Zircon", Personality::zircon()),
    ]
}

/// Insert, update, query and delete throughput of one configuration.
fn measure(personality: Personality, mode: StackMode, records: u64, ops: usize) -> [f64; 4] {
    let mut s = SqliteStack::new(personality, mode, 1, false);
    s.load(records, 100);
    let insert = s.measure_op(OpKind::Insert, ops).ops_per_sec;
    let update = s.measure_op(OpKind::Update, ops).ops_per_sec;
    // Warm the cache before the query pass, as a running database would
    // be.
    s.measure_op(OpKind::Read, ops);
    let query = s.measure_op(OpKind::Read, ops).ops_per_sec;
    let delete = s.measure_delete(ops).ops_per_sec;
    [insert, update, query, delete]
}

pub fn table4(paper: &[PaperRow], a: &mut Artefact) {
    let (records, ops) = (TABLE4_RECORDS, TABLE4_OPS);
    for ((_, personality), per_op) in kernels().into_iter().zip(paper.chunks(4)) {
        let [st, mt, sb] = MODES.map(|mode| measure(personality.clone(), mode, records, ops));
        for (oi, (label, paper)) in per_op.iter().enumerate() {
            let (kernel, op) = label.split_once(' ').expect("`kernel op` row label");
            a.put(label, "kernel", kernel);
            a.put(label, "op", op);
            a.cell(label, "ST-Server", st[oi], paper[0]);
            a.cell(label, "MT-Server", mt[oi], paper[1]);
            a.cell(label, "SkyBridge", sb[oi], paper[2]);
            let (measured, paper) = (speedup(sb[oi], mt[oi]), speedup(paper[2], paper[1]));
            a.put(label, "speedup vs MT", format!("{measured} ({paper})"));
        }
    }
    a.table(
        "Table 4: SQLite op throughput, ops/s — measured (paper)",
        "",
    );
    a.text += "\nShape to check: ST < MT < SkyBridge for every kernel and op; the\n\
               query column shows the smallest speedup (the SQLite page cache\n\
               absorbs reads, so queries barely touch the IPC path).\n";
}

pub fn figure9_11(paper: &[PaperRow], a: &mut Artefact) {
    let (records, ops) = (SCALING_RECORDS, SCALING_OPS);
    let threads = [1usize, 2, 4, 8];
    for (ki, ((kernel, personality), per_mode)) in
        kernels().into_iter().zip(paper.chunks(3)).enumerate()
    {
        for ((label, paper), mode) in per_mode.iter().zip(MODES) {
            for (&n, &paper) in threads.iter().zip(*paper) {
                let mut s = SqliteStack::new(personality.clone(), mode, n, false);
                s.load(records, 100);
                let stats = s.run_ycsb(ops);
                a.cell(label, &format!("{n}-thread"), stats.ops_per_sec, paper);
            }
        }
        a.table(
            &format!(
                "Figure {}: YCSB-A throughput on {kernel}, ops/s — measured (paper)",
                9 + ki
            ),
            "configuration",
        );
    }
    a.text += "\nShape to check: SkyBridge on top at every thread count;\n\
               throughput *decreases* with threads (the file system's one big\n\
               lock); st trails mt (cross-core IPIs).\n";
}

pub fn table5(paper: &[PaperRow], a: &mut Artefact) {
    let (records, ops) = (VIRTUALIZATION_RECORDS, VIRTUALIZATION_OPS);
    for (threads, (label, paper)) in [1usize, 8].into_iter().zip(paper) {
        // The same stack natively, then with the Rootkernel booted
        // underneath (without SkyBridge).
        let [(native, _), (virt, exits)] = [false, true].map(|rootkernel| {
            let mut s =
                SqliteStack::new(Personality::sel4(), StackMode::IpcMt, threads, rootkernel);
            s.load(records, 100);
            let exits_before = s.vm_exits();
            let stats = s.run_ycsb(ops);
            (stats.ops_per_sec, s.vm_exits() - exits_before)
        });
        a.cell(label, "Native", native, paper[0]);
        a.cell(label, "Rootkernel", virt, paper[1]);
        a.cell(label, "#VM exits", exits as f64, paper[2]);
    }
    a.table(
        "Table 5: native vs Rootkernel throughput (ops/s) and VM exits — measured (paper)",
        "workload",
    );
    a.text += "\nShape to check: the Rootkernel column matches Native (pass-through\n\
               exit controls + huge-page base EPT) and the measured-region exit\n\
               count is zero.\n";
}
