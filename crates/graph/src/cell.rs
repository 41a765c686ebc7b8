//! The serving cell: cache tier + database + file system, mediated by
//! the commit log, with snapshot/restore/replay.
//!
//! A [`GraphCell`] owns the *state* behind the graph: a cache-aside
//! `BTreeMap` (the kv tier), an `sb-db` database, and the `sb-fs` file
//! system it stores pages on. Every operation enters through
//! [`GraphCell::serve`] — the **same** function on the live path and on
//! replay, which is what makes replay byte-identical: there is no
//! second implementation to drift.
//!
//! The file system is wrapped in [`ChargedFs`], a [`FileApi`] proxy
//! that bills each file operation as one real transport call on the fs
//! node — the same layering as the paper's SQLite stack, where the
//! database reaches its file server over IPC. Replay and restore run
//! uncharged: recovery work is host work, not serving traffic.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use sb_db::{Database, DbError, Value};
use sb_fs::{BlockDevice, FaultyDisk, FileApi, FileSystem, FsError, Inum, RamDisk, BSIZE};
use sb_sim::Cycles;
use sb_transport::{Request, Transport};

use crate::commit::{value_bytes, CommitEntry, CommitLog, CommitOp, Snapshot};

/// Blocks in a cell's disk (4 MiB at the xv6 block size).
pub const CELL_DISK_BLOCKS: u32 = 4096;

/// Inodes in a cell's file system (db file + journal + slack).
pub const CELL_NINODES: u32 = 16;

/// Pager cache pages per cell database.
pub const CELL_CACHE_PAGES: usize = 32;

/// The cell's single table.
pub const CELL_TABLE: &str = "records";

/// The cell's database file path (short: the derived `<path>.journal`
/// name must fit xv6's 14-byte directory-entry limit).
pub const CELL_DB_PATH: &str = "/cell";

/// The block device under a cell: pristine RAM, or the fault-injecting
/// wrapper for power-loss drills.
#[derive(Debug)]
pub enum CellDisk {
    /// A plain RAM disk.
    Ram(RamDisk),
    /// A [`FaultyDisk`] wired to a fault plane (chaos runs).
    Faulty(FaultyDisk),
}

impl CellDisk {
    /// The persisted medium, moved out — for a [`FaultyDisk`], exactly
    /// what a remount after the crash would see.
    pub fn into_image(self) -> RamDisk {
        match self {
            CellDisk::Ram(d) => d,
            CellDisk::Faulty(d) => d.into_survivor(),
        }
    }
}

impl BlockDevice for CellDisk {
    fn nblocks(&self) -> u32 {
        match self {
            CellDisk::Ram(d) => d.nblocks(),
            CellDisk::Faulty(d) => d.nblocks(),
        }
    }

    fn read_block(&mut self, bno: u32) -> &[u8; BSIZE] {
        match self {
            CellDisk::Ram(d) => d.read_block(bno),
            CellDisk::Faulty(d) => d.read_block(bno),
        }
    }

    fn write_block(&mut self, bno: u32, buf: &[u8; BSIZE]) {
        match self {
            CellDisk::Ram(d) => d.write_block(bno, buf),
            CellDisk::Faulty(d) => d.write_block(bno, buf),
        }
    }
}

/// Per-request routing state shared between the graph transport and the
/// charged FS adapter buried inside the database: which lane the
/// current request runs on, its correlation id, the current simulated
/// time, and whether crossings are billed at all.
#[derive(Debug)]
pub struct HopCtx {
    /// The lane of the in-flight request.
    pub lane: Cell<usize>,
    /// The correlation id of the in-flight request.
    pub corr: Cell<u64>,
    /// The running simulated clock of the in-flight request.
    pub now: Cell<Cycles>,
    /// Whether inner-transport crossings are billed (off during
    /// preload, restore and replay).
    pub charging: Cell<bool>,
}

impl HopCtx {
    /// A fresh context with charging enabled.
    pub fn new() -> Rc<Self> {
        Rc::new(HopCtx {
            lane: Cell::new(0),
            corr: Cell::new(0),
            now: Cell::new(0),
            charging: Cell::new(true),
        })
    }
}

/// A shared handle on one node's inner transport.
pub type SharedTransport = Rc<RefCell<Box<dyn Transport>>>;

/// The fs node's side of the graph: enough shared state to turn a file
/// operation into one billed transport call on the right lane at the
/// right simulated time.
#[derive(Clone)]
pub struct HopLink {
    /// The fs node's transport.
    pub transport: SharedTransport,
    /// The per-request routing state.
    pub ctx: Rc<HopCtx>,
    /// Wire payload bytes per fs crossing.
    pub payload: usize,
}

impl HopLink {
    /// Bills one crossing for a file operation on `key` (an inode
    /// number — the "record" the fs server touches), advancing the
    /// request's clock past the call.
    fn charge(&self, key: u64, write: bool) {
        if !self.ctx.charging.get() {
            return;
        }
        let lane = self.ctx.lane.get();
        let mut t = self.transport.borrow_mut();
        t.wait_until(lane, self.ctx.now.get());
        let req = Request {
            id: self.ctx.corr.get(),
            arrival: self.ctx.now.get(),
            key,
            write,
            payload: self.payload,
            client: None,
            tenant: 0,
        };
        t.call(lane, &req).expect("fs hop crossing failed");
        self.ctx.now.set(t.now(lane));
    }
}

/// A [`FileApi`] proxy that charges each file operation as one IPC
/// crossing into the fs node before performing it host-side — the
/// paper's DB → FS-server layering, behind the graph's fs opcodes.
pub struct ChargedFs {
    /// The real file system.
    pub fs: FileSystem<CellDisk>,
    /// The transport to bill, if any (`None` = in-process, free).
    pub link: Option<HopLink>,
}

impl ChargedFs {
    fn bill(&self, inum: Inum, write: bool) {
        if let Some(link) = &self.link {
            link.charge(inum as u64, write);
        }
    }
}

impl FileApi for ChargedFs {
    fn open(&mut self, path: &str) -> Result<Inum, FsError> {
        if let Some(link) = &self.link {
            link.charge(0, false);
        }
        self.fs.open(path)
    }

    fn create(&mut self, path: &str) -> Result<Inum, FsError> {
        if let Some(link) = &self.link {
            link.charge(0, true);
        }
        self.fs.create(path)
    }

    fn read_at(&mut self, inum: Inum, off: usize, buf: &mut [u8]) -> usize {
        self.bill(inum, false);
        self.fs.read_at(inum, off, buf)
    }

    fn write_at(&mut self, inum: Inum, off: usize, data: &[u8]) -> Result<(), FsError> {
        self.bill(inum, true);
        self.fs.write_at(inum, off, data)
    }

    fn size_of(&mut self, inum: Inum) -> usize {
        self.bill(inum, false);
        self.fs.size_of(inum)
    }
}

/// Cache and traffic counters of one cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellStats {
    /// Reads served.
    pub reads: u64,
    /// Writes applied.
    pub writes: u64,
    /// Cache-tier hits (reads that never reached the db).
    pub hits: u64,
    /// Cache-tier misses (reads that went to the db).
    pub misses: u64,
    /// Cache entries evicted by capacity.
    pub evictions: u64,
}

/// The stateful core of a serving graph.
pub struct GraphCell {
    db: Option<Database<ChargedFs>>,
    cache: BTreeMap<u64, Vec<u8>>,
    cache_capacity: usize,
    value_len: u32,
    /// The mediation log: every admitted operation, in order.
    pub log: CommitLog,
    /// Cache/traffic counters.
    pub stats: CellStats,
}

impl GraphCell {
    /// Builds a cell on a fresh RAM disk, pre-loading `records` rows.
    pub fn build(
        records: u64,
        value_len: usize,
        cache_capacity: usize,
        link: Option<HopLink>,
    ) -> Self {
        GraphCell::build_on(
            CellDisk::Ram(RamDisk::new(CELL_DISK_BLOCKS)),
            records,
            value_len,
            cache_capacity,
            link,
        )
    }

    /// Builds a cell on `disk`. The preload runs *uncharged* (the link
    /// is attached only after the rows are in), so chaos callers must
    /// keep their fault plane disarmed until this returns.
    pub fn build_on(
        disk: CellDisk,
        records: u64,
        value_len: usize,
        cache_capacity: usize,
        link: Option<HopLink>,
    ) -> Self {
        let fs = FileSystem::mkfs(disk, CELL_NINODES);
        let charged = ChargedFs { fs, link: None };
        let mut db = Database::open(charged, CELL_DB_PATH, CELL_CACHE_PAGES).expect("open cell db");
        db.create_table(CELL_TABLE).expect("create cell table");
        for key in 0..records {
            let value = value_bytes(key, 0, value_len);
            db.insert(CELL_TABLE, key as i64, &[Value::Blob(value)])
                .expect("preload row");
        }
        db.fs_mut().link = link;
        GraphCell {
            db: Some(db),
            cache: BTreeMap::new(),
            cache_capacity,
            value_len: value_len.try_into().expect("value length fits a u32"),
            log: CommitLog::new(),
            stats: CellStats::default(),
        }
    }

    /// Restores a cell from a snapshot: mount (replaying any committed
    /// WAL), reopen the database (rolling back any hot journal), adopt
    /// the cache image. The restored cell's log holds no entry and
    /// starts at `snapshot.seq`: the cell catches up by serving
    /// `log.since(snapshot.seq)`, and its first own write is
    /// `snapshot.seq + 1`, as the live cell's was.
    pub fn restore(snapshot: &Snapshot, cache_capacity: usize, link: Option<HopLink>) -> Self {
        let value_len = snapshot.value_len as usize;
        let mut cell = GraphCell::from_disk(snapshot.disk.clone(), value_len, cache_capacity, link);
        cell.cache = snapshot.cache.clone();
        cell.log = CommitLog::after(snapshot.seq);
        cell
    }

    /// Mounts a cell over an existing disk image (crash recovery: the
    /// WAL replay happens in `mount`, the db journal rollback in
    /// `open`). The cache tier starts empty — it was volatile. A write
    /// the cell admits from here on logs `value_len`, as the live cell's
    /// did.
    pub fn from_disk(disk: RamDisk, value_len: usize, cache: usize, link: Option<HopLink>) -> Self {
        let fs = FileSystem::mount(CellDisk::Ram(disk)).expect("mount surviving disk");
        let charged = ChargedFs { fs, link };
        let db = Database::open(charged, CELL_DB_PATH, CELL_CACHE_PAGES).expect("reopen cell db");
        GraphCell {
            db: Some(db),
            cache: BTreeMap::new(),
            cache_capacity: cache,
            value_len: value_len.try_into().expect("value length fits a u32"),
            log: CommitLog::new(),
            stats: CellStats::default(),
        }
    }

    /// Restores from `snapshot` and replays `entries` through the live
    /// serve path. With `entries = log.since(snapshot.seq)` from the
    /// original cell, the result is byte-identical to it.
    pub fn replay(snapshot: &Snapshot, entries: &[CommitEntry], cache_capacity: usize) -> Self {
        let mut cell = GraphCell::restore(snapshot, cache_capacity, None);
        cell.roll_forward(snapshot.seq, entries);
        cell
    }

    /// Serves `entries` as log positions `after + 1`, `after + 2`, …:
    /// the replay from a snapshot, or the roll-forward after a crash.
    /// The cell's log, which must hold no entry of its own, then starts
    /// past the last of them.
    pub fn roll_forward(&mut self, after: u64, entries: &[CommitEntry]) {
        assert!(self.log.is_empty(), "a cell rolls forward before it admits");
        for (seq, e) in (after + 1..).zip(entries) {
            self.serve(seq, e.op);
        }
        self.log = CommitLog::after(after + entries.len() as u64);
    }

    fn db_mut(&mut self) -> &mut Database<ChargedFs> {
        self.db.as_mut().expect("cell database is open")
    }

    /// Admits one request into the mediation log, returning the entry's
    /// sequence number and the operation it commits to. A write is
    /// logged by length: [`GraphCell::serve`] derives its value.
    pub fn admit(&mut self, corr: u64, key: u64, write: bool) -> (u64, CommitOp) {
        let op = if write {
            CommitOp::Put {
                key,
                len: self.value_len,
            }
        } else {
            CommitOp::Get { key }
        };
        (self.log.append(corr, op), op)
    }

    /// Whether the cache tier holds `key` (routing: a read that hits
    /// never crosses into the db node).
    pub fn cache_contains(&self, key: u64) -> bool {
        self.cache.contains_key(&key)
    }

    /// Applies the operation logged at `seq` — the single serve path
    /// shared by live traffic and replay. A write stores
    /// `value_bytes(key, seq, len)`. Returns the reply value.
    pub fn serve(&mut self, seq: u64, op: CommitOp) -> Vec<u8> {
        match op {
            CommitOp::Get { key } => {
                self.stats.reads += 1;
                if let Some(v) = self.cache.get(&key) {
                    self.stats.hits += 1;
                    return v.clone();
                }
                self.stats.misses += 1;
                let row = self
                    .db_mut()
                    .query(CELL_TABLE, key as i64)
                    .expect("cell query");
                let value = match row {
                    Some(values) => blob_of(&values),
                    None => Vec::new(),
                };
                if !value.is_empty() {
                    self.cache_insert(key, value.clone());
                }
                value
            }
            CommitOp::Put { key, len } => {
                self.stats.writes += 1;
                self.cache.remove(&key); // invalidate-on-write
                let value = value_bytes(key, seq, len as usize);
                let row = [Value::Blob(value.clone())];
                match self.db_mut().update(CELL_TABLE, key as i64, &row) {
                    Err(DbError::KeyNotFound) => self
                        .db_mut()
                        .insert(CELL_TABLE, key as i64, &row)
                        .expect("cell upsert insert"),
                    r => r.expect("cell upsert update"),
                }
                value
            }
        }
    }

    fn cache_insert(&mut self, key: u64, value: Vec<u8>) {
        self.cache.insert(key, value);
        while self.cache.len() > self.cache_capacity {
            // Deterministic eviction: smallest key first. Not LRU — the
            // point is that every replica evicts identically.
            self.cache.pop_first();
            self.stats.evictions += 1;
        }
    }

    /// Checkpoints the cell (pager flush + close), captures the disk
    /// image and cache, then **rebuilds itself through the restore
    /// path** — so the live cell after a snapshot and a replica
    /// restored from it proceed from byte-identical state.
    pub fn snapshot(&mut self) -> Snapshot {
        let (disk, link) = self.checkpoint();
        let snapshot = Snapshot {
            seq: self.log.last_seq(),
            disk: disk.clone(),
            cache: self.cache.clone(),
            value_len: self.value_len,
        };
        let fs = FileSystem::mount(CellDisk::Ram(disk)).expect("remount after snapshot");
        self.db = Some(
            Database::open(ChargedFs { fs, link }, CELL_DB_PATH, CELL_CACHE_PAGES)
                .expect("reopen after snapshot"),
        );
        snapshot
    }

    fn checkpoint(&mut self) -> (RamDisk, Option<HopLink>) {
        let db = self.db.take().expect("cell database is open");
        let mut charged = db.close().expect("close cell db");
        let link = charged.link.take();
        (charged.fs.into_device().into_image(), link)
    }

    /// Consumes the cell, checkpointing and returning the final disk
    /// image — the byte string replay correctness is judged on.
    pub fn into_disk(mut self) -> RamDisk {
        self.checkpoint().0
    }

    /// The cache tier's contents (replay comparisons).
    pub fn cache(&self) -> &BTreeMap<u64, Vec<u8>> {
        &self.cache
    }

    /// The database's pager/journal counters.
    pub fn db_stats(&self) -> sb_db::DbStats {
        self.db.as_ref().expect("cell database is open").stats()
    }

    /// The highest write sequence number the *persistent* state holds —
    /// read from the `seq` stamp in the surviving rows. After a crash,
    /// this is exactly the prefix of the commit log that reached the
    /// disk; rolling forward `log.since(recovered_seq())` catches the
    /// cell up to every acknowledged write.
    pub fn recovered_seq(&mut self) -> u64 {
        self.rows()
            .iter()
            .filter_map(|(_, v)| {
                v.get(..8)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            })
            .max()
            .unwrap_or(0)
    }

    /// All rows, as `(key, value-bytes)` pairs — logical-state
    /// comparisons for the chaos matrix.
    pub fn rows(&mut self) -> Vec<(i64, Vec<u8>)> {
        self.db_mut()
            .scan(CELL_TABLE)
            .expect("cell scan")
            .into_iter()
            .map(|(k, values)| (k, blob_of(&values)))
            .collect()
    }
}

fn blob_of(values: &[Value]) -> Vec<u8> {
    match values {
        [Value::Blob(b)] => b.clone(),
        other => panic!("cell rows are single blobs, got {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_reads_through_cache_and_invalidates_on_write() {
        let mut cell = GraphCell::build(16, 32, 8, None);
        let miss = cell.serve(1, CommitOp::Get { key: 3 });
        assert_eq!(miss, value_bytes(3, 0, 32));
        assert_eq!((cell.stats.hits, cell.stats.misses), (0, 1));

        let hit = cell.serve(2, CommitOp::Get { key: 3 });
        assert_eq!(hit, miss);
        assert_eq!(cell.stats.hits, 1);

        let newv = value_bytes(3, 9, 32);
        assert_eq!(cell.serve(9, CommitOp::Put { key: 3, len: 32 }), newv);
        assert!(!cell.cache_contains(3), "write must invalidate");
        assert_eq!(cell.serve(10, CommitOp::Get { key: 3 }), newv);
    }

    #[test]
    fn cache_eviction_is_bounded_and_deterministic() {
        let mut cell = GraphCell::build(32, 16, 4, None);
        for key in 0..12 {
            cell.serve(key + 1, CommitOp::Get { key });
        }
        assert_eq!(cell.cache().len(), 4);
        assert_eq!(cell.stats.evictions, 8);
        // Smallest-key eviction leaves the 4 largest keys.
        let keys: Vec<u64> = cell.cache().keys().copied().collect();
        assert_eq!(keys, vec![8, 9, 10, 11]);
    }

    #[test]
    fn upsert_extends_past_the_preloaded_range() {
        let mut cell = GraphCell::build(4, 16, 4, None);
        let v = value_bytes(100, 1, 16);
        assert_eq!(cell.serve(1, CommitOp::Put { key: 100, len: 16 }), v);
        assert_eq!(cell.serve(2, CommitOp::Get { key: 100 }), v);
    }

    #[test]
    fn snapshot_then_replay_is_byte_identical() {
        use crate::commit::disk_digest;

        // Below, within and above the values' 8-byte seq header.
        for value_len in [0, 5, 48] {
            let mut live = GraphCell::build(24, value_len, 6, None);
            // Warm phase before the snapshot.
            for i in 0..20u64 {
                let (seq, op) = live.admit(i + 1, i % 24, i % 3 == 0);
                live.serve(seq, op);
            }
            let snap = live.snapshot();
            assert_eq!(snap.seq, 20);
            // Diverging phase after it.
            for i in 20..48u64 {
                let (seq, op) = live.admit(i + 1, (i * 5) % 24, i % 2 == 0);
                live.serve(seq, op);
            }
            let log = live.log.clone();
            let mut replayed = GraphCell::replay(&snap, &log.since(snap.seq), 6);
            assert_eq!(replayed.cache(), live.cache(), "cache tiers must agree");
            let rows = live.rows();
            assert_eq!(replayed.rows(), rows, "value_len {value_len}");
            assert!(rows.iter().all(|(_, v)| v.len() == value_len.max(8)));
            assert_eq!(
                disk_digest(live.into_disk()),
                disk_digest(replayed.into_disk()),
                "replay must reproduce the disk byte-for-byte (value_len {value_len})"
            );
        }
    }

    #[test]
    fn a_restored_cell_admits_a_write_as_the_live_cell_does() {
        let mut live = GraphCell::build(8, 48, 4, None);
        for i in 0..4u64 {
            let (seq, op) = live.admit(i + 1, i, true);
            live.serve(seq, op);
        }
        let mut replica = GraphCell::restore(&live.snapshot(), 4, None);
        let (seq, op) = live.admit(5, 3, true);
        let (replica_seq, replica_op) = replica.admit(5, 3, true);
        assert_eq!(replica_seq, seq, "the replica continues the live numbering");
        assert_eq!(replica_op, op, "the replica logs the live value length");
        assert_eq!(replica.serve(seq, replica_op), live.serve(seq, op));

        // The crash path: remount the disk, roll the log forward from
        // the persisted point, then admit.
        let log = live.log.clone();
        let mut recovered = GraphCell::from_disk(live.into_disk(), 48, 4, None);
        let persisted = recovered.recovered_seq();
        recovered.roll_forward(persisted, &log.since(persisted));
        assert_eq!(recovered.admit(6, 2, true).0, log.last_seq() + 1);
    }

    #[test]
    fn recovered_seq_reads_the_last_persisted_write() {
        let mut cell = GraphCell::build(8, 32, 4, None);
        for i in 0..6u64 {
            let (seq, op) = cell.admit(i + 1, i % 8, true);
            cell.serve(seq, op);
        }
        assert_eq!(cell.recovered_seq(), 6);
    }
}
