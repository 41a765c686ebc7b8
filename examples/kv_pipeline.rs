//! The paper's motivating workload (Fig. 1): client → encryption server →
//! KV-store server, compared across all five process layouts at every
//! key/value length of Figures 2 and 8 — cycles per operation next to
//! what the d-TLB did to earn them.
//!
//! ```text
//! cargo run --release --example kv_pipeline
//! ```

use sb_ycsb::kv::KV_LENGTHS;
use skybridge_repro::scenarios::kv::{KvMode, KvPipeline};

fn main() {
    // Figure 8's run: 64 warm-up operations, then 384 measured.
    let ops = 384;
    println!("KV pipeline, {ops} ops per cell (50/50 insert+query), per operation:\n");
    println!(
        "{:<10} {:<14} {:>10} {:>12} {:>11} {:>14}",
        "key/value", "layout", "cycles", "dTLB misses", "page walks", "walk accesses"
    );
    for len in KV_LENGTHS {
        for (name, mode) in [
            ("Baseline", KvMode::Baseline),
            ("Delay", KvMode::Delay),
            ("IPC", KvMode::Ipc),
            ("IPC-CrossCore", KvMode::IpcCrossCore),
            ("SkyBridge", KvMode::SkyBridge),
        ] {
            let mut p = KvPipeline::new(mode, len, ops + 128);
            p.run_ops(64); // Warm up.
            let s = p.run_ops(ops);
            let per_op = |count: u64| count as f64 / ops as f64;
            println!(
                "{:<10} {:<14} {:>10} {:>12.2} {:>11.2} {:>14.1}",
                format!("{len} B"),
                name,
                s.avg_cycles,
                per_op(s.pmu.dtlb_misses),
                per_op(s.pmu.page_walks),
                per_op(s.pmu.walk_memory_accesses),
            );
        }
        println!();
    }
    println!(
        "Reading the table:\n\
         * Delay − Baseline ≈ 4 × 493 cycles: the *direct* IPC cost,\n\
           injected as pure delay.\n\
         * IPC − Delay: the *indirect* cost — kernel entries pollute the\n\
           caches and TLBs (watch the dTLB column explode).\n\
         * SkyBridge: two VMFUNCs per hop instead of kernel entries, and\n\
           no kernel footprint — but three processes' pages still share\n\
           one 64-entry d-TLB, and under the Rootkernel each miss is a\n\
           *nested* walk of up to 24 table reads. SkyBridge − Baseline is\n\
           those walks far more than it is the 134-cycle VMFUNC\n\
           (EXPERIMENTS.md, Figure 8)."
    );
}
