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
//! against constants captured before the host side of the storage path
//! was rebuilt (slot-array log, frame-slab pager, in-page B-tree search).
//! A diff here means the storage stack's externally billed behaviour
//! moved: either a modelled mechanism really changed (re-capture, and say
//! why in the PR), or a host optimisation is wrong.

use sb_db::{Database, DbError, DbStats, Value};
use sb_fs::{BlockDevice, FileApi, FileSystem, FsError, Inum, RamDisk, BSIZE};

const OPS: u64 = 2048;
const DISK_BLOCKS: u32 = 8192;
/// `FileSystem::mkfs` puts the log header here; asserted below.
const LOG_HEADER: u32 = 2;

/// FNV-1a, kept local so the golden depends on no crate's hash.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x1_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Forwards every trait call to `inner`, folding it into a running digest.
struct Recording<T> {
    inner: T,
    digest: Digest,
    calls: u64,
}

impl<T> Recording<T> {
    fn new(inner: T) -> Self {
        Recording {
            inner,
            digest: Digest::new(),
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

/// Everything the run pins.
#[derive(Debug, PartialEq, Eq)]
struct Trace {
    file_calls: u64,
    file_digest: u64,
    block_calls: u64,
    block_digest: u64,
    image_digest: u64,
    rows_digest: u64,
    /// ok, duplicate-key, key-not-found outcomes over the mix.
    outcomes: [u64; 3],
    db: DbStats,
    fs_commits: u64,
    log_absorbed: u64,
    disk_reads: u64,
    disk_writes: u64,
}

fn row_digest(d: &mut Digest, key: i64, row: &[Value]) {
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

/// Runs the mix with a pager of `cache_pages` frames.
fn run_mix(cache_pages: usize) -> Trace {
    let fs = FileSystem::mkfs(Recording::new(RamDisk::new(DISK_BLOCKS)), 16);
    assert_eq!(fs.superblock().logstart, LOG_HEADER);
    let mut db = Database::open(Recording::new(fs), "/g.db", cache_pages).expect("open");
    db.create_table("t").expect("create table");

    // SplitMix64: the stream is part of the golden and must not depend on
    // any crate's generator.
    let mut state = 0x5eed_0000_0000_0d15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };

    let mut live: Vec<i64> = Vec::new();
    let mut outcomes = [0u64; 3];
    let mut rows = Digest::new();
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
    let mut image = Digest::new();
    let mut ram = disk.inner;
    let (disk_reads, disk_writes) = (ram.reads, ram.writes);
    for bno in 0..DISK_BLOCKS {
        image.bytes(ram.read_block(bno));
    }
    Trace {
        file_calls: file.calls,
        file_digest: file.digest.0,
        block_calls: disk.calls,
        block_digest: disk.digest.0,
        image_digest: image.0,
        rows_digest: rows.0,
        outcomes,
        db: stats,
        fs_commits,
        log_absorbed,
        disk_reads,
        disk_writes,
    }
}

/// Captured on the commit before the storage path's host structures were
/// rebuilt. A two-frame pager evicts dirty pages mid-transaction (the
/// writeback path); thirty-two frames is the graph cell's setting.
fn golden(cache_pages: usize) -> Trace {
    match cache_pages {
        2 => Trace {
            file_calls: 16625,
            file_digest: 16578057396756852978,
            block_calls: 257278,
            block_digest: 17704778781576472922,
            image_digest: 16701860779301787385,
            rows_digest: 1022205873492487726,
            outcomes: [1811, 172, 65],
            db: DbStats {
                cache_hits: 5002,
                cache_misses: 6388,
                writebacks: 2649,
                commits: 1553,
            },
            fs_commits: 9501,
            log_absorbed: 5631,
            disk_reads: 178810,
            disk_writes: 78468,
        },
        32 => Trace {
            file_calls: 13288,
            file_digest: 980780877604443757,
            block_calls: 205477,
            block_digest: 3754178235519386851,
            image_digest: 3792479667506379357,
            rows_digest: 1022205873492487726,
            outcomes: [1811, 172, 65],
            db: DbStats {
                cache_hits: 8339,
                cache_misses: 3051,
                writebacks: 2649,
                commits: 1553,
            },
            fs_commits: 9501,
            log_absorbed: 5631,
            disk_reads: 127009,
            disk_writes: 78468,
        },
        _ => unreachable!("no golden for {cache_pages} frames"),
    }
}

#[test]
fn storage_trace_two_frames() {
    assert_eq!(run_mix(2), golden(2));
}

#[test]
fn storage_trace_thirty_two_frames() {
    assert_eq!(run_mix(32), golden(32));
}

/// The mix must actually reach the paths the golden is meant to pin (read
/// off the pinned traces: the two tests above hold the runs to them).
#[test]
fn mix_reaches_splits_evictions_and_rollbacks() {
    let (small, large) = (golden(2), golden(32));
    assert_eq!(small.rows_digest, large.rows_digest);
    assert_eq!(small.outcomes, large.outcomes);
    let [ok, duplicate, missing] = small.outcomes;
    assert!(duplicate > 20 && missing > 20, "{:?}", small.outcomes);
    // Two near-limit rows fill a leaf: > 341 leaf splits overflow the
    // root's internal page as well.
    assert!(ok > 1500, "{:?}", small.outcomes);
    assert!(small.db.cache_misses > 2 * large.db.cache_misses);
    assert!(small.log_absorbed > 0);
}
