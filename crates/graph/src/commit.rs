//! The per-cell commit log: append-only mediation, deterministic replay.
//!
//! Every operation a serving cell admits is recorded here **before** it
//! is applied — the zero-os discipline: all authority flows through one
//! mediation point, and every mutation is an auditable log entry. The
//! log records *reads too*: a read warms the cache and the database's
//! page cache, and cache state decides whether later requests reach the
//! db at all, so byte-identical replay needs the exact operation
//! sequence, not just the writes. Only [`CommitOp::Put`] entries carry
//! state; replaying `Get`s merely reproduces the caching side effects.
//!
//! The log is one byte stream, a few bytes an entry instead of the 24
//! of a decoded [`CommitEntry`]. An entry's sequence number is its
//! 1-based position after the log's start (0 for a live cell; the
//! snapshot or recovery point for a restored one, see
//! [`CommitLog::after`]), and a `Put` records the value's length, not its
//! bytes — the value is [`value_bytes`] of the key, the seq and the
//! length, derived where the write is served. Each entry is:
//!
//! * a tag byte with three flags: is it a write; is its `corr` the
//!   previous entry's plus one; is its length the previous write's;
//! * the `corr` delta as a zigzag varint ([`sb_observe::put_varint`]'s
//!   LEB128, as every varint here), only when the tag does not
//!   predict it (a new request generator restarts its ids at 0, so a
//!   delta can go backwards or wrap);
//! * the key as a varint;
//! * a write's length as a varint, only when it changed.
//!
//! A YCSB entry takes about 3 bytes. `Prev::encode` (called by
//! [`CommitLog::append`]) is the stream's one writer and `Prev::decode`
//! its one reader. [`CommitLog::since`] and [`CommitLog::digest`] decode
//! from the start, so `since` returns a `Vec`: its callers are the
//! replay drills and audits, once per snapshot, not the serving path.
//!
//! [`Snapshot`] pairs a log position with the cell's persistent state
//! (the flushed disk image) and its volatile cache; restoring the
//! snapshot and serving `log.since(snapshot.seq)` reproduces the live
//! cell byte-for-byte — the replay drill in `serve`'s tests and the CI
//! graph job assert exactly that.

use std::collections::BTreeMap;
use std::slice::Iter;

use sb_fs::{BlockDevice, RamDisk};
use sb_observe::{get_varint, put_varint};

/// One mediated cell operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOp {
    /// Point read of `key` (cache-aside: may stop at the cache tier).
    Get {
        /// The record key.
        key: u64,
    },
    /// Upsert of `key` (invalidates the cache entry). The value written
    /// is `value_bytes(key, seq, len)` for the entry's seq.
    Put {
        /// The record key.
        key: u64,
        /// The requested value length (the value is at least 8 bytes).
        len: u32,
    },
}

impl CommitOp {
    /// The record key the operation targets.
    pub fn key(&self) -> u64 {
        match self {
            CommitOp::Get { key } | CommitOp::Put { key, .. } => *key,
        }
    }

    /// Whether the operation mutates the cell.
    pub fn is_write(&self) -> bool {
        matches!(self, CommitOp::Put { .. })
    }
}

/// One append-only log entry. Its sequence number is its 1-based
/// position in the log, so it is not stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitEntry {
    /// The wire correlation id of the request that admitted it.
    pub corr: u64,
    /// The mediated operation.
    pub op: CommitOp,
}

/// The append-only commit log of one serving cell: one byte stream in
/// the format the module doc gives, plus the counts `append` keeps.
#[derive(Debug, Clone, Default)]
pub struct CommitLog {
    bytes: Vec<u8>,
    /// The seq before the first entry held.
    first: u64,
    len: u64,
    writes: u64,
    /// What the next entry is predicted from.
    tail: Prev,
}

impl CommitLog {
    /// An empty log.
    pub fn new() -> Self {
        CommitLog::default()
    }

    /// An empty log whose first entry will be `seq + 1`: a cell
    /// restored at `seq` continues the history it was restored from.
    pub fn after(seq: u64) -> Self {
        CommitLog {
            first: seq,
            ..CommitLog::default()
        }
    }

    /// Appends `op`, returning its sequence number.
    pub fn append(&mut self, corr: u64, op: CommitOp) -> u64 {
        self.tail.encode(CommitEntry { corr, op }, &mut self.bytes);
        self.writes += u64::from(op.is_write());
        self.len += 1;
        self.last_seq()
    }

    /// The sequence number of the last entry (the start when empty).
    pub fn last_seq(&self) -> u64 {
        self.first + self.len
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries *after* position `seq`, decoded — what a cell restored
    /// from a snapshot at `seq` must replay to catch up (the first has
    /// seq `seq + 1`). `since(0)` is every entry held.
    pub fn since(&self, seq: u64) -> Vec<CommitEntry> {
        self.decode()
            .skip(seq.saturating_sub(self.first) as usize)
            .collect()
    }

    /// Number of mutating entries.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// An order-sensitive FNV-1a fingerprint over every entry and every
    /// written value — the audit check two replicas of the same history
    /// must agree on.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (seq, e) in (self.first + 1..).zip(self.decode()) {
            h.write_u64(seq);
            h.write_u64(e.corr);
            h.write_u64(e.op.key());
            match e.op {
                CommitOp::Get { .. } => h.write_u64(0),
                CommitOp::Put { key, len } => {
                    h.write_u64(1);
                    h.write(&value_bytes(key, seq, len as usize));
                }
            }
        }
        h.finish()
    }

    /// Every entry, in order, decoded from the start of the stream.
    fn decode(&self) -> impl Iterator<Item = CommitEntry> + '_ {
        let (mut prev, mut bytes) = (Prev::default(), self.bytes.iter());
        (0..self.len).map(move |_| prev.decode(&mut bytes))
    }
}

/// Tag flag: the entry is a `Put`.
const TAG_WRITE: u8 = 1;
/// Tag flag: `corr` is the previous entry's plus one (no delta follows).
const TAG_NEXT_CORR: u8 = 2;
/// Tag flag: the length is the previous write's (none follows; a read
/// sets it too).
const TAG_SAME_LEN: u8 = 4;

/// What the stream predicts an entry from: the previous entry's `corr`
/// and the previous write's length (both 0 before the first). The
/// writer and every reader carry one each.
#[derive(Debug, Clone, Copy, Default)]
struct Prev {
    corr: u64,
    len: u32,
}

impl Prev {
    /// Appends `e` to `out` and moves past it.
    fn encode(&mut self, e: CommitEntry, out: &mut Vec<u8>) {
        let delta = e.corr.wrapping_sub(self.corr) as i64;
        let zigzag = ((delta << 1) ^ (delta >> 63)) as u64; // +1 is 2
        let len = match e.op {
            CommitOp::Put { len, .. } => len,
            CommitOp::Get { .. } => self.len,
        };
        let flag = |set: bool, bit: u8| if set { bit } else { 0 };
        let tag = flag(e.op.is_write(), TAG_WRITE) | flag(zigzag == 2, TAG_NEXT_CORR);
        out.push(tag | flag(len == self.len, TAG_SAME_LEN));
        if zigzag != 2 {
            put_varint(out, zigzag);
        }
        put_varint(out, e.op.key());
        if len != self.len {
            put_varint(out, len.into());
        }
        (self.corr, self.len) = (e.corr, len);
    }

    /// Reads the entry `bytes` starts with and moves past it.
    fn decode(&mut self, bytes: &mut Iter<u8>) -> CommitEntry {
        let tag = *bytes.next().expect("an entry starts with its tag");
        let mut varint = || get_varint(bytes).expect("the log decodes only what `encode` wrote");
        let zigzag = (tag & TAG_NEXT_CORR == 0).then(&mut varint).unwrap_or(2);
        let delta = (zigzag >> 1) ^ (zigzag & 1).wrapping_neg();
        let corr = self.corr.wrapping_add(delta);
        let key = varint();
        if tag & (TAG_WRITE | TAG_SAME_LEN) == TAG_WRITE {
            self.len = varint() as u32;
        }
        let op = match tag & TAG_WRITE {
            0 => CommitOp::Get { key },
            _ => CommitOp::Put { key, len: self.len },
        };
        self.corr = corr;
        CommitEntry { corr, op }
    }
}

/// A restorable point-in-time image of a serving cell: the commit-log
/// position, the flushed persistent disk, the volatile cache tier, and
/// the value length the cell admits writes at.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The log position the image reflects (every entry `<= seq`
    /// applied, nothing after).
    pub seq: u64,
    /// The flushed disk image (db file, WAL, journal — everything).
    pub disk: RamDisk,
    /// The cache tier's contents at the snapshot point.
    pub cache: BTreeMap<u64, Vec<u8>>,
    /// The length a write admitted by the restored cell logs.
    pub value_len: u32,
}

/// The deterministic value a write with sequence number `seq` stores
/// under `key`: the sequence number in the first 8 bytes (little
/// endian) — so crash recovery can read the last *persisted* write's
/// position straight out of the surviving rows — followed by an
/// FNV-keyed byte stream. At least 8 bytes regardless of `len`.
pub fn value_bytes(key: u64, seq: u64, len: usize) -> Vec<u8> {
    let len = len.max(8);
    let mut v = vec![0u8; len];
    v[..8].copy_from_slice(&seq.to_le_bytes());
    let mut x = fnv1a_u64(key ^ seq.rotate_left(17));
    for chunk in v[8..].chunks_mut(8) {
        x = fnv1a_u64(x);
        let bytes = x.to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }
    v
}

/// Content fingerprint of a whole disk image (FNV-1a over every block).
/// Takes the disk by value: its I/O counters must not be disturbed on —
/// or folded into — the digest.
pub fn disk_digest(mut disk: RamDisk) -> u64 {
    let mut h = Fnv::new();
    for bno in 0..disk.nblocks() {
        h.write(disk.read_block(bno));
    }
    h.finish()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a_u64(x: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::GraphCell;
    use proptest::prelude::*;

    #[test]
    fn seq_numbers_are_dense_and_one_based() {
        let mut log = CommitLog::new();
        assert_eq!(log.append(9, CommitOp::Get { key: 1 }), 1);
        assert_eq!(log.append(10, CommitOp::Put { key: 2, len: 1 }), 2);
        assert_eq!(log.last_seq(), 2);
        assert_eq!(log.writes(), 1);
        assert_eq!(log.since(0).len(), 2);
        assert_eq!(log.since(1).len(), 1);
        assert_eq!(log.since(1)[0].corr, 10);
        assert!(log.since(5).is_empty());
        assert_eq!(std::mem::size_of::<CommitEntry>(), 24);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let mut a = CommitLog::new();
        let mut b = CommitLog::new();
        a.append(1, CommitOp::Get { key: 7 });
        a.append(2, CommitOp::Put { key: 7, len: 2 });
        b.append(1, CommitOp::Put { key: 7, len: 2 });
        b.append(2, CommitOp::Get { key: 7 });
        assert_ne!(a.digest(), b.digest());

        let mut c = CommitLog::new();
        c.append(1, CommitOp::Get { key: 7 });
        c.append(2, CommitOp::Put { key: 7, len: 2 });
        assert_eq!(a.digest(), c.digest());
        let mut d = CommitLog::new();
        d.append(1, CommitOp::Get { key: 7 });
        d.append(2, CommitOp::Put { key: 7, len: 9 });
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn value_bytes_embed_the_seq_and_are_deterministic() {
        let v = value_bytes(42, 0x0102_0304, 64);
        assert_eq!(v.len(), 64);
        assert_eq!(u64::from_le_bytes(v[..8].try_into().unwrap()), 0x0102_0304);
        assert_eq!(v, value_bytes(42, 0x0102_0304, 64));
        assert_ne!(v, value_bytes(43, 0x0102_0304, 64));
        assert_eq!(value_bytes(1, 2, 0).len(), 8, "seq header always fits");
    }

    #[test]
    fn disk_digest_sees_content_not_counters() {
        let mut a = RamDisk::new(8);
        let mut b = RamDisk::new(8);
        let block = [7u8; sb_fs::BSIZE];
        a.write_block(3, &block);
        b.write_block(3, &block);
        b.read_block(0); // skew the counters only
        assert_eq!(disk_digest(a.clone()), disk_digest(b));
        a.write_block(4, &block);
        assert_ne!(disk_digest(a.clone()), disk_digest(RamDisk::new(8)));
    }

    /// `n` entries of a YCSB mix over 4 096 records with `write_pct` %
    /// 48-byte writes: sequential `corr`, keys drawn from a Zipfian
    /// (θ = 0.99) rank table and scrambled as YCSB does (FNV-1a of the
    /// rank, modulo the record count).
    fn ycsb_log(n: u64, write_pct: u32) -> CommitLog {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        const RECORDS: u64 = 4096;
        let cdf: Vec<f64> = (1..=RECORDS)
            .scan(0.0, |sum, rank| {
                *sum += (rank as f64).powf(-0.99);
                Some(*sum)
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(42);
        let mut log = CommitLog::new();
        for corr in 0..n {
            let u = rng.gen::<f64>() * cdf[cdf.len() - 1];
            let key = fnv1a_u64(cdf.partition_point(|&c| c < u) as u64) % RECORDS;
            let op = if rng.gen_range(0..100) < write_pct {
                CommitOp::Put { key, len: 48 }
            } else {
                CommitOp::Get { key }
            };
            log.append(corr, op);
        }
        log
    }

    #[test]
    fn a_ycsb_entry_costs_at_most_four_bytes() {
        const N: u64 = 100_000;
        for (mix, write_pct) in [("YCSB-C", 0), ("YCSB-A", 50)] {
            let log = ycsb_log(N, write_pct);
            assert_eq!(log.len() as u64, N);
            let per_entry = log.bytes.len() as f64 / N as f64;
            assert!(per_entry <= 4.0, "{mix}: {per_entry:.2} B per entry");
        }
    }

    /// The log as it was before entries went compact: each entry keeps
    /// its seq, and a write keeps the value admission materialised.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum RefOp {
        Get { key: u64 },
        Put { key: u64, value: Vec<u8> },
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct RefEntry {
        seq: u64,
        corr: u64,
        op: RefOp,
    }

    #[derive(Default)]
    struct RefLog {
        entries: Vec<RefEntry>,
    }

    impl RefLog {
        fn admit(&mut self, corr: u64, key: u64, write: Option<usize>) {
            let seq = self.entries.len() as u64 + 1;
            let op = match write {
                Some(len) => RefOp::Put {
                    key,
                    value: value_bytes(key, seq, len),
                },
                None => RefOp::Get { key },
            };
            self.entries.push(RefEntry { seq, corr, op });
        }

        fn since(&self, seq: u64) -> &[RefEntry] {
            &self.entries[(seq as usize).min(self.entries.len())..]
        }

        fn writes(&self) -> u64 {
            let put = |e: &&RefEntry| matches!(e.op, RefOp::Put { .. });
            self.entries.iter().filter(put).count() as u64
        }

        fn digest(&self) -> u64 {
            let mut h = Fnv::new();
            for e in &self.entries {
                h.write_u64(e.seq);
                h.write_u64(e.corr);
                match &e.op {
                    RefOp::Get { key } => {
                        h.write_u64(*key);
                        h.write_u64(0);
                    }
                    RefOp::Put { key, value } => {
                        h.write_u64(*key);
                        h.write_u64(1);
                        h.write(value);
                    }
                }
            }
            h.finish()
        }
    }

    /// The compact entry at `seq` spelled out the way the reference
    /// keeps it.
    fn materialise(seq: u64, e: &CommitEntry) -> RefEntry {
        let op = match e.op {
            CommitOp::Get { key } => RefOp::Get { key },
            CommitOp::Put { key, len } => RefOp::Put {
                key,
                value: value_bytes(key, seq, len as usize),
            },
        };
        RefEntry {
            seq,
            corr: e.corr,
            op,
        }
    }

    /// `(corr, key, Some(len) for a write)`. A `corr` steps from the
    /// previous one by 0, +1, back, or anywhere (wrapping), or jumps to
    /// `u64::MAX`, so that a +1 after it wraps to 0. Keys are mostly a
    /// few small ones (repeats reach the cache), else `u64::MAX` or
    /// anywhere in `u64` (10-byte varints). Lengths sit around the
    /// 8-byte floor, a typical value and one longer than a db record.
    fn ops() -> impl Strategy<Value = Vec<(u64, u64, Option<u32>)>> {
        let corr = prop_oneof![
            Just((false, 0u64)),
            Just((false, 1u64)),
            (1u64..1000).prop_map(|back| (false, back.wrapping_neg())),
            any::<u64>().prop_map(|step| (false, step)),
            Just((true, u64::MAX)),
        ];
        let key = prop_oneof![0u64..12, 0u64..12, Just(u64::MAX), any::<u64>()];
        let len = prop_oneof![Just(0u32), 1u32..8, Just(8u32), Just(48u32), Just(4096u32)];
        let op = (corr, key, any::<bool>(), len);
        proptest::collection::vec(op, 0..40).prop_map(|ops| {
            let mut corr = 0u64;
            let step = |((at, by), key, write, len): ((bool, u64), u64, bool, u32)| {
                corr = if at { by } else { corr.wrapping_add(by) };
                (corr, key, write.then_some(len))
            };
            ops.into_iter().map(step).collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The compact log against the materialising one: same digest,
        /// writes, length and tail at every position, and a cell serving
        /// the compact entries replies with the reference's values. The
        /// same history with every length `l` made `u32::MAX - l` (too
        /// long to materialise) must still decode as appended.
        #[test]
        fn the_compact_log_matches_the_materialising_reference(ops in ops()) {
            const RECORDS: u64 = 8;
            const PRELOAD_LEN: usize = 48;
            let mut log = CommitLog::new();
            let mut reference = RefLog::default();
            let (mut wide, mut plain) = (CommitLog::new(), Vec::new());
            for &(corr, key, write) in &ops {
                let op = match write {
                    Some(len) => CommitOp::Put { key, len },
                    None => CommitOp::Get { key },
                };
                log.append(corr, op);
                reference.admit(corr, key, write.map(|len| len as usize));
                let op = match write {
                    Some(len) => CommitOp::Put { key, len: u32::MAX - len },
                    None => op,
                };
                wide.append(corr, op);
                plain.push(CommitEntry { corr, op });
            }
            prop_assert_eq!(wide.len(), plain.len());
            prop_assert_eq!(wide.writes(), log.writes());
            for s in 0..=plain.len() + 1 {
                prop_assert_eq!(wide.since(s as u64), &plain[s.min(plain.len())..], "since({})", s);
            }
            prop_assert_eq!(log.len(), reference.entries.len());
            prop_assert_eq!(log.writes(), reference.writes());
            prop_assert_eq!(log.digest(), reference.digest());
            for s in 0..=ops.len() as u64 + 1 {
                let tail: Vec<RefEntry> =
                    (s + 1..).zip(&log.since(s)).map(|(seq, e)| materialise(seq, e)).collect();
                prop_assert_eq!(&tail[..], reference.since(s));
            }

            // Writes a db record cannot hold are checked above only.
            let mut cell = GraphCell::build(RECORDS, PRELOAD_LEN, 4, None);
            let mut rows: BTreeMap<u64, Vec<u8>> =
                (0..RECORDS).map(|k| (k, value_bytes(k, 0, PRELOAD_LEN))).collect();
            for (seq, (e, r)) in (1..).zip(log.since(0).iter().zip(&reference.entries)) {
                let expected = match &r.op {
                    RefOp::Get { key } => rows.get(key).cloned().unwrap_or_default(),
                    RefOp::Put { value, .. } if value.len() >= sb_db::btree::MAX_VALUE => continue,
                    RefOp::Put { key, value } => {
                        rows.insert(*key, value.clone());
                        value.clone()
                    }
                };
                prop_assert_eq!(cell.serve(seq, e.op), expected, "seq {}", seq);
            }
        }
    }
}
