//! Golden storage trace.
//!
//! The storage analogue of `tests/sim_golden.rs`. The simulated clock
//! bills one crossing for every `FileApi` call the database makes and one
//! for every `BlockDevice` call the file system makes (the scenario
//! layer's `RemoteFs`/`ChargedDisk` and the graph's `ChargedFs` wrap
//! exactly those two traits), so the *sequence* of those calls is part of
//! the paper's figures even though `sb-fs` and `sb-db` never touch a
//! simulated core themselves. This test drives one fixed, seeded
//! 2,048-op insert/update/query/delete mix through
//! `Database<Recording<FileSystem<Recording<RamDisk>>>>` and compares
//!
//! * a digest of every `FileApi` call (op, inum, offset, length, result),
//! * a digest of every `BlockDevice` call (op, block number, bytes
//!   written — with only the 8 checksum bytes of the log-header block
//!   masked, because the header checksum's *definition* is host-side and
//!   may change; where it is written and everything else in the block may
//!   not),
//! * a digest of the final disk image and of the table's logical content,
//! * `DbStats`, file-system commits, log absorptions and raw disk I/O
//!
//! against the rows of `results/pins/storage_golden.json`, 17 a pager
//! size, first captured before the host side of the storage path was
//! rebuilt (slot-array log, frame-slab pager, in-page B-tree search). A
//! moved row means the storage stack's externally billed behaviour moved:
//! either a modelled mechanism really changed (re-capture, and say why in
//! the change), or a host optimisation is wrong.

mod support;

use sb_db::{Database, DbError, Value};
use sb_fs::{BlockDevice, FileApi, FileSystem, FsError, Inum, RamDisk, BSIZE};
use support::{pins, Fnv, SplitMix64};

const OPS: u64 = 2048;
const DISK_BLOCKS: u32 = 8192;
/// `FileSystem::mkfs` puts the log header here; asserted below.
const LOG_HEADER: u32 = 2;

/// Forwards every trait call to `inner`, folding it into a running digest.
struct Recording<T> {
    inner: T,
    digest: Fnv,
    calls: u64,
}

impl<T> Recording<T> {
    fn new(inner: T) -> Self {
        Recording {
            inner,
            digest: Fnv::new(),
            calls: 0,
        }
    }

    fn call(&mut self, op: u8, a: u64, b: u64) {
        self.calls += 1;
        self.digest.bytes(&[op]);
        self.digest.word(a);
        self.digest.word(b);
    }
}

impl<D: BlockDevice> BlockDevice for Recording<D> {
    fn nblocks(&self) -> u32 {
        self.inner.nblocks()
    }

    fn read_block(&mut self, bno: u32) -> &[u8; BSIZE] {
        self.call(b'R', bno as u64, 0);
        self.inner.read_block(bno)
    }

    fn write_block(&mut self, bno: u32, buf: &[u8; BSIZE]) {
        self.call(b'W', bno as u64, 0);
        let covered = if bno == LOG_HEADER { BSIZE - 8 } else { BSIZE };
        self.digest.bytes(&buf[..covered]);
        self.inner.write_block(bno, buf);
    }
}

impl<F: FileApi> FileApi for Recording<F> {
    fn open(&mut self, path: &str) -> Result<Inum, FsError> {
        let r = self.inner.open(path);
        self.call(b'o', path.len() as u64, r.map_or(u64::MAX, u64::from));
        self.digest.bytes(path.as_bytes());
        r
    }

    fn create(&mut self, path: &str) -> Result<Inum, FsError> {
        let r = self.inner.create(path);
        self.call(b'c', path.len() as u64, r.map_or(u64::MAX, u64::from));
        self.digest.bytes(path.as_bytes());
        r
    }

    fn read_at(&mut self, inum: Inum, off: usize, buf: &mut [u8]) -> usize {
        let n = self.inner.read_at(inum, off, buf);
        self.call(b'r', inum as u64, off as u64);
        self.digest.word(buf.len() as u64);
        self.digest.word(n as u64);
        n
    }

    fn write_at(&mut self, inum: Inum, off: usize, data: &[u8]) -> Result<(), FsError> {
        let r = self.inner.write_at(inum, off, data);
        self.call(b'w', inum as u64, off as u64);
        self.digest.word(data.len() as u64);
        self.digest.word(r.is_ok() as u64);
        r
    }

    fn size_of(&mut self, inum: Inum) -> usize {
        let n = self.inner.size_of(inum);
        self.call(b's', inum as u64, n as u64);
        n
    }
}

fn row_digest(d: &mut Fnv, key: i64, row: &[Value]) {
    d.word(key as u64);
    for v in row {
        match v {
            Value::Null => d.bytes(&[0]),
            Value::Int(i) => d.word(*i as u64),
            Value::Text(s) => d.bytes(s.as_bytes()),
            Value::Blob(b) => d.bytes(b),
        }
    }
}

/// Runs the mix with a pager of `cache_pages` frames and returns every
/// pinned figure of the run, by name.
fn run_mix(cache_pages: usize) -> Vec<(&'static str, u64)> {
    let fs = FileSystem::mkfs(Recording::new(RamDisk::new(DISK_BLOCKS)), 16);
    assert_eq!(fs.superblock().logstart, LOG_HEADER);
    let mut db = Database::open(Recording::new(fs), "/g.db", cache_pages).expect("open");
    db.create_table("t").expect("create table");

    let mut rng = SplitMix64::seeded(0xd15);
    let mut next = move || rng.draw();

    let mut live: Vec<i64> = Vec::new();
    let mut outcomes = [0u64; 3];
    let mut rows = Fnv::new();
    for i in 0..OPS {
        let r = next();
        // Seven in eight rows are near the leaf limit, so leaves split
        // every other insert and the root's internal page splits too; the
        // rest are YCSB-sized.
        let len = if (r >> 12) % 8 != 0 {
            1400 + (r >> 40) as usize % 120
        } else {
            8 + (r >> 40) as usize % 200
        };
        let row = [
            Value::Int(i as i64),
            Value::Blob((0..len).map(|j| (r >> (j % 57)) as u8).collect()),
        ];
        // One op in eight aims at a key that is (almost surely) absent —
        // or, for an insert, present — to walk the rollback paths.
        let odd = (r >> 20) % 8 == 0;
        let fresh = (next() >> 24) as i64;
        let known = |live: &[i64], r: u64| match live.len() {
            0 => fresh,
            n => live[(r >> 28) as usize % n],
        };
        let res = match r % 8 {
            0..=4 => {
                let key = if odd { known(&live, r) } else { fresh };
                let res = db.insert("t", key, &row);
                if res.is_ok() {
                    live.push(key);
                }
                res
            }
            5 => {
                let key = if odd { fresh } else { known(&live, r) };
                db.update("t", key, &row)
            }
            6 => {
                let key = if odd { fresh } else { known(&live, r) };
                db.query("t", key).map(|found| {
                    rows.word(found.is_some() as u64);
                    if let Some(found) = found {
                        row_digest(&mut rows, key, &found);
                    }
                })
            }
            _ => {
                let key = if odd { fresh } else { known(&live, r) };
                let res = db.delete("t", key);
                if res.is_ok() {
                    live.retain(|k| *k != key);
                }
                res
            }
        };
        match res {
            Ok(()) => outcomes[0] += 1,
            Err(DbError::DuplicateKey) => outcomes[1] += 1,
            Err(DbError::KeyNotFound) => outcomes[2] += 1,
            Err(e) => panic!("op {i}: {e}"),
        }
    }
    for (key, row) in db.scan("t").expect("scan") {
        row_digest(&mut rows, key, &row);
    }

    let stats = db.stats();
    let file = db.close().expect("close");
    let fs = file.inner;
    let (fs_commits, log_absorbed) = (fs.commits(), fs.absorbed());
    let disk = fs.into_device();
    let mut image = Fnv::new();
    let mut ram = disk.inner;
    let (disk_reads, disk_writes) = (ram.reads, ram.writes);
    for bno in 0..DISK_BLOCKS {
        image.bytes(ram.read_block(bno));
    }
    let [ok, duplicate_key, key_not_found] = outcomes;
    vec![
        ("file_calls", file.calls),
        ("file_digest", file.digest.0),
        ("block_calls", disk.calls),
        ("block_digest", disk.digest.0),
        ("image_digest", image.0),
        ("rows_digest", rows.0),
        ("ok", ok),
        ("duplicate_key", duplicate_key),
        ("key_not_found", key_not_found),
        ("cache_hits", stats.cache_hits),
        ("cache_misses", stats.cache_misses),
        ("writebacks", stats.writebacks),
        ("db_commits", stats.commits),
        ("fs_commits", fs_commits),
        ("log_absorbed", log_absorbed),
        ("disk_reads", disk_reads),
        ("disk_writes", disk_writes),
    ]
}

/// Pins the run at `cache_pages` frames as `<cache_pages> frames <name>`
/// rows. A two-frame pager evicts dirty pages mid-transaction (the
/// writeback path); thirty-two frames is the graph cell's setting.
fn pin(cache_pages: usize) {
    let rows = run_mix(cache_pages).into_iter();
    pins::check(
        rows.map(|(name, v)| (format!("{cache_pages} frames {name}"), v))
            .collect(),
    );
}

#[test]
fn storage_trace_two_frames() {
    pin(2);
}

#[test]
fn storage_trace_thirty_two_frames() {
    pin(32);
}

/// The mix must actually reach the paths the golden is meant to pin (read
/// off the committed rows: the two tests above hold the runs to them).
#[test]
fn mix_reaches_splits_evictions_and_rollbacks() {
    let committed = pins::committed();
    let pin = |frames: usize, name: &str| {
        let case = format!("{frames} frames {name}");
        let row = committed.iter().find(|(c, _)| *c == case);
        row.unwrap_or_else(|| panic!("no row `{case}`")).1
    };
    for name in ["rows_digest", "ok", "duplicate_key", "key_not_found"] {
        assert_eq!(pin(2, name), pin(32, name), "{name}");
    }
    assert!(pin(2, "duplicate_key") > 20 && pin(2, "key_not_found") > 20);
    // Two near-limit rows fill a leaf: > 341 leaf splits overflow the
    // root's internal page as well.
    assert!(pin(2, "ok") > 1500);
    assert!(pin(2, "cache_misses") > 2 * pin(32, "cache_misses"));
    assert!(pin(2, "log_absorbed") > 0);
}
