//! sb-graph: multi-hop application graphs over a replayable commit log.
//!
//! The paper's end goal is real services talking over fast IPC. The
//! seed crates supply the services — `sb-db`'s pager/B-tree/journal
//! database, `sb-fs`'s journaling file system, `sb-ycsb`'s key mixes —
//! and `sb-transport` supplies four IPC personalities behind one
//! [`Transport`](sb_transport::Transport) trait. This crate composes
//! them into a *serving graph*:
//!
//! ```text
//!   client ──▶ gateway/auth ──▶ kv cache ──▶ db ──▶ fs
//!              (admission)      (cache-aside) (B-tree) (WAL)
//! ```
//!
//! * [`spec`] — [`GraphSpec`]: the chain's nodes and their service
//!   work, held to the one role order the cell serves.
//! * [`commit`] — the per-cell **commit log**: every operation the cell
//!   admits becomes an append-only, auditable [`CommitEntry`] *before*
//!   it is applied. The log is the mediation point: replaying it from a
//!   snapshot reproduces the cell byte-for-byte.
//! * [`cell`] — [`GraphCell`]: the stateful core (cache-aside map +
//!   `sb-db` database on `sb-fs`), with snapshot/restore/replay, plus
//!   the charged FS adapter that turns every file operation into a real
//!   IPC crossing on the fs node's transport.
//! * [`serve`] — [`GraphTransport`]: the whole graph *as* a
//!   `Transport`. One client call fans through every hop as a real
//!   inner-transport call sharing the request's correlation id, so the
//!   sentinel assembles one connected span tree per request with no new
//!   instrumentation.
//!
//! Determinism is the design invariant: the simulated clocks, the cache
//! (a `BTreeMap` with smallest-key eviction), the seeded workloads and
//! the commit log are all deterministic, so two cells that start from
//! the same snapshot and apply the same entries end in byte-identical
//! db/fs state — the property the replay drill and the power-loss chaos
//! matrix assert.

pub mod cell;
pub mod commit;
pub mod serve;
pub mod spec;

pub use crate::{
    cell::{CellDisk, CellStats, ChargedFs, GraphCell, HopCtx, HopLink, CELL_DISK_BLOCKS},
    commit::{disk_digest, value_bytes, CommitEntry, CommitLog, CommitOp, Snapshot},
    serve::GraphTransport,
    spec::{GraphError, GraphSpec, NodeSpec, Role},
};
