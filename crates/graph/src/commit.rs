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
//! An entry is 24 bytes: the correlation id and the operation. Its
//! sequence number is its 1-based position, and a `Put` records the
//! value's length, not its bytes — the value is [`value_bytes`] of the
//! key, the seq and the length, derived where the write is served.
//!
//! [`Snapshot`] pairs a log position with the cell's persistent state
//! (the flushed disk image) and its volatile cache; restoring the
//! snapshot and serving `log.since(snapshot.seq)` reproduces the live
//! cell byte-for-byte — the replay drill in `serve`'s tests and the CI
//! graph job assert exactly that.

use std::collections::BTreeMap;

use sb_fs::{BlockDevice, RamDisk, BSIZE};
use sb_transport::opcode;

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

    /// The client-facing wire opcode of this operation.
    pub fn opcode(&self) -> u8 {
        if self.is_write() {
            opcode::WRITE
        } else {
            opcode::READ
        }
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

/// The append-only commit log of one serving cell.
#[derive(Debug, Clone, Default)]
pub struct CommitLog {
    entries: Vec<CommitEntry>,
}

impl CommitLog {
    /// An empty log.
    pub fn new() -> Self {
        CommitLog::default()
    }

    /// Appends `op`, returning its sequence number.
    pub fn append(&mut self, corr: u64, op: CommitOp) -> u64 {
        self.entries.push(CommitEntry { corr, op });
        self.last_seq()
    }

    /// The sequence number of the last entry (0 when empty).
    pub fn last_seq(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, in order (entry `i` has seq `i + 1`).
    pub fn entries(&self) -> &[CommitEntry] {
        &self.entries
    }

    /// Entries *after* position `seq` — what a cell restored from a
    /// snapshot at `seq` must replay to catch up (the first has seq
    /// `seq + 1`).
    pub fn since(&self, seq: u64) -> &[CommitEntry] {
        let from = (seq as usize).min(self.entries.len());
        &self.entries[from..]
    }

    /// Number of mutating entries.
    pub fn writes(&self) -> u64 {
        self.entries.iter().filter(|e| e.op.is_write()).count() as u64
    }

    /// An order-sensitive FNV-1a fingerprint over every entry and every
    /// written value — the audit check two replicas of the same history
    /// must agree on.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (seq, e) in (1..).zip(&self.entries) {
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
}

/// A restorable point-in-time image of a serving cell: the commit-log
/// position, the flushed persistent disk, and the volatile cache tier.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The log position the image reflects (every entry `<= seq`
    /// applied, nothing after).
    pub seq: u64,
    /// The flushed disk image (db file, WAL, journal — everything).
    pub disk: RamDisk,
    /// The cache tier's contents at the snapshot point.
    pub cache: BTreeMap<u64, Vec<u8>>,
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
    let mut buf = [0u8; BSIZE];
    for bno in 0..disk.nblocks() {
        disk.read_block(bno, &mut buf);
        h.write(&buf);
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
        let block = [7u8; BSIZE];
        a.write_block(3, &block);
        b.write_block(3, &block);
        let mut probe = [0u8; BSIZE];
        b.read_block(0, &mut probe); // skew the counters only
        assert_eq!(disk_digest(a.clone()), disk_digest(b));
        a.write_block(4, &block);
        assert_ne!(disk_digest(a.clone()), disk_digest(RamDisk::new(8)));
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

    /// `(corr, key, Some(len) for a write)`, lengths around the 8-byte
    /// floor, a typical value and one longer than a db record.
    fn ops() -> impl Strategy<Value = Vec<(u64, u64, Option<u32>)>> {
        let len = prop_oneof![Just(0u32), 1u32..8, Just(8u32), Just(48u32), Just(4096u32)];
        let op = (any::<u64>(), 0u64..12, any::<bool>(), len);
        let op = op.prop_map(|(corr, key, write, len)| (corr, key, write.then_some(len)));
        proptest::collection::vec(op, 0..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The compact log against the materialising one: same digest,
        /// writes, length and tail at every position, and a cell serving
        /// the compact entries replies with the reference's values.
        #[test]
        fn the_compact_log_matches_the_materialising_reference(ops in ops()) {
            const RECORDS: u64 = 8;
            const PRELOAD_LEN: usize = 48;
            let mut log = CommitLog::new();
            let mut reference = RefLog::default();
            for &(corr, key, write) in &ops {
                let op = match write {
                    Some(len) => CommitOp::Put { key, len },
                    None => CommitOp::Get { key },
                };
                log.append(corr, op);
                reference.admit(corr, key, write.map(|len| len as usize));
            }
            prop_assert_eq!(log.len(), reference.entries.len());
            prop_assert_eq!(log.writes(), reference.writes());
            prop_assert_eq!(log.digest(), reference.digest());
            for s in 0..=ops.len() as u64 + 1 {
                let tail: Vec<RefEntry> =
                    (s + 1..).zip(log.since(s)).map(|(seq, e)| materialise(seq, e)).collect();
                prop_assert_eq!(&tail[..], reference.since(s));
            }

            // Writes a db record cannot hold are checked above only.
            let mut cell = GraphCell::build(RECORDS, PRELOAD_LEN, 4, None);
            let mut rows: BTreeMap<u64, Vec<u8>> =
                (0..RECORDS).map(|k| (k, value_bytes(k, 0, PRELOAD_LEN))).collect();
            for (seq, (e, r)) in (1..).zip(log.entries().iter().zip(&reference.entries)) {
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
