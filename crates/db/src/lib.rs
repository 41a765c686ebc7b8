//! minidb: an embedded relational database (the SQLite3 substitute).
//!
//! The paper's application benchmark (§6.5) is "a widely-used and
//! lightweight relational database" — SQLite3 — linked into the client
//! process, storing its database file on xv6fs, which in turn talks to a
//! RAM-disk block server. minidb reproduces the architectural
//! characteristics that matter to that experiment:
//!
//! * a **pager** ([`pager`]) with a page cache — the "internal cache to
//!   handle the recent read requests" that explains why the *query*
//!   operation sees the smallest SkyBridge speedup in Table 4 (it mostly
//!   doesn't reach the file system at all);
//! * a **rollback journal** ([`journal`]) giving multi-page transaction
//!   atomicity on top of the file system's block-atomic log;
//! * **B-tree tables** ([`btree`]) keyed by integer row keys, holding
//!   variable-length records ([`record`]);
//! * the four operations Table 4 measures — `INSERT`, `UPDATE`, `SELECT`
//!   (query), `DELETE` — as [`Database`] methods. There is no SQL front
//!   end: the simulated stack charges a statement's parse and execution
//!   as one fixed cost per operation (`DB_OP_CPU` in the root package's
//!   `scenarios::sqlite`).
//!
//! All I/O flows through [`sb_fs::FileSystem`], so every database
//! operation produces the same layered traffic as the paper's stack:
//! DB → FS (→ log) → block device.

pub mod btree;
pub mod db;
pub mod journal;
pub mod pager;
pub mod record;

pub use crate::{
    db::{Database, DbError, DbStats},
    record::Value,
};

/// Database page size in bytes (4 file-system blocks).
pub const PAGE_SIZE: usize = 4096;
