//! SkyBridge reproduction — umbrella crate.
//!
//! Re-exports every workspace crate and hosts the *scenario* layer: the
//! application topologies the paper evaluates, wired onto the simulated
//! machine. See `DESIGN.md` for the system inventory and the
//! per-experiment index, and `EXPERIMENTS.md` for paper-vs-measured
//! results.
//!
//! * [`scenarios::kv`] — the client → encryption → KV-store pipeline of
//!   Figure 1, in the Baseline / Delay / IPC / IPC-CrossCore / SkyBridge
//!   configurations (Table 1, Figures 2 and 8);
//! * [`scenarios::sqlite`] — the SQLite3-over-xv6fs-over-RAM-disk stack of
//!   §6.5 in the ST-Server / MT-Server / SkyBridge configurations
//!   (Table 4, Figures 9–11, Table 5);
//! * [`scenarios::runtime`] — the Figure 1 KV store as a *service* on the
//!   `sb-runtime` dispatcher: the one serving workload every sweep runs,
//!   multi-core worker pools, bounded queues with admission control, and
//!   open-loop load through the direct queue or the rings.

pub mod scenarios;

pub use sb_db as db;
pub use sb_fs as fs;
pub use sb_mem as mem;
pub use sb_microkernel as microkernel;
pub use sb_rewriter as rewriter;
pub use sb_rootkernel as rootkernel;
pub use sb_runtime as runtime;
pub use sb_sim as sim;
pub use sb_ycsb as ycsb;
pub use skybridge as bridge;
