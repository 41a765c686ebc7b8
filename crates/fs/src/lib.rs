//! An xv6fs-like journaling file system over a RAM block device.
//!
//! The paper's SQLite3 evaluation (§6.5) runs the database over a port of
//! **xv6fs** — "a formally verified crash-safe file system" — which talks
//! to a RAM-disk block-device server over IPC. This crate reproduces that
//! substrate:
//!
//! * [`blockdev`] — the block-device abstraction and the RAM disk (plus a
//!   crash-injecting wrapper for recovery tests);
//! * [`log`] — xv6's write-ahead log: transactions are staged in a log
//!   region and committed atomically by a single header write, then
//!   installed to their home locations; mounting replays any committed
//!   log, so a crash at *any* block-write boundary preserves consistency;
//! * [`inode`], [`dir`] — on-disk inodes (12 direct + 1 indirect block)
//!   and directories;
//! * [`fs`] — the `FileSystem` facade: `mkfs`, `mount`, create/open/
//!   read/write with full path resolution (the namespace operations the
//!   database's traffic uses: files in the root directory).
//!
//! Like the paper's port, the file system is single-threaded and the
//! multi-thread experiments serialize on "one big lock" (§6.5) — modeled
//! in the scenarios with [`sb_sim::SimLock`], which is exactly what caps
//! scalability in Figures 9–11.

pub mod api;
pub mod blockdev;
pub mod dir;
pub mod fs;
pub mod inode;
pub mod log;

pub use crate::{
    api::FileApi,
    blockdev::{BlockDevice, CrashDisk, DevError, FaultyDisk, RamDisk, BSIZE},
    fs::{FileSystem, FsError, Inum},
    log::RecoverOutcome,
};
