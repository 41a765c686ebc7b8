//! The write-ahead log (xv6-style), hardened against torn headers.
//!
//! Every mutating file-system operation is bracketed by
//! [`Log::begin_op`]/[`Log::end_op`]. Writes are staged (and absorbed) in
//! memory; at the outermost `end_op` the staged blocks are written to the
//! on-disk log region, the header block is written **last** (the atomic
//! commit point), the blocks are installed to their home locations, and
//! the header is cleared. [`Log::recover`] replays a committed-but-not-
//! installed log at mount time, which is what makes a crash at any block
//! boundary safe.
//!
//! Two fault-plane hardenings over plain xv6:
//!
//! * the header carries a checksum (see `header_checksum`) over the block
//!   list *and the logged contents*, so a **torn** header or log-slot write
//!   (power lost mid-block, not mid-sequence) is detected at recovery and
//!   discarded instead of replaying garbage block numbers — without the
//!   checksum a torn header whose count field landed would replay
//!   uninitialized log slots over live data;
//! * commit-path device writes go through [`BlockDevice::try_write_block`]
//!   with a bounded retry, so a transient device error is absorbed by the
//!   log instead of panicking the file system.

use crate::blockdev::{BlockDevice, BSIZE, ZERO_BLOCK};

/// Maximum blocks per transaction (xv6's LOGSIZE guard).
pub const LOG_CAPACITY: usize = 30;

/// Transient-error retry bound on commit-path writes.
const WRITE_RETRIES: usize = 8;

/// What mount-time recovery found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoverOutcome {
    /// Blocks of a committed log installed to their home locations.
    pub replayed: usize,
    /// A torn (checksum-mismatched) header was found and discarded: the
    /// crash interrupted the commit point itself, so the transaction is
    /// correctly treated as never-committed.
    pub torn_discarded: bool,
}

/// The in-memory log state.
///
/// Staged blocks live in a slot array in first-write order — the order the
/// commit writes them to the log region — and a slot's buffer is reused by
/// every later transaction, so staging allocates nothing once the largest
/// transaction has been seen. At most [`LOG_CAPACITY`] slots are live, so
/// finding a block is a scan of a few dozen block numbers.
#[derive(Debug)]
pub struct Log {
    /// First block of the on-disk log region (the header).
    start: u32,
    /// Blocks in the region (header + data slots).
    size: u32,
    /// Transaction nesting depth.
    depth: usize,
    /// Staged home-block numbers; the first `len` are live.
    bnos: [u32; LOG_CAPACITY],
    /// Live slots in the current transaction.
    len: usize,
    /// Slot contents: `data[i]` is staged for `bnos[i]`. Grows to the
    /// largest transaction seen and is never shrunk.
    data: Vec<[u8; BSIZE]>,
    /// Committed transactions.
    pub commits: u64,
    /// Writes absorbed into an already-staged block.
    pub absorbed: u64,
}

impl Log {
    /// Creates the log for the region `[start, start + size)`.
    pub fn new(start: u32, size: u32) -> Self {
        assert!(size as usize > LOG_CAPACITY, "log region too small");
        Log {
            start,
            size,
            depth: 0,
            bnos: [0; LOG_CAPACITY],
            len: 0,
            data: Vec::with_capacity(LOG_CAPACITY),
            commits: 0,
            absorbed: 0,
        }
    }

    /// Begins (or nests into) a transaction.
    pub fn begin_op(&mut self) {
        self.depth += 1;
    }

    fn slot_of(&self, bno: u32) -> Option<usize> {
        self.bnos[..self.len].iter().position(|&b| b == bno)
    }

    /// The slot for a write to `bno`, and whether this call opened it (the
    /// block's first write this transaction) or absorbed into a live one.
    fn slot_for_write(&mut self, bno: u32) -> (usize, bool) {
        assert!(self.depth > 0, "log write outside a transaction");
        if let Some(i) = self.slot_of(bno) {
            self.absorbed += 1;
            return (i, false);
        }
        assert!(self.len < LOG_CAPACITY, "transaction exceeds log capacity");
        if self.len == self.data.len() {
            self.data.push([0; BSIZE]);
        }
        self.bnos[self.len] = bno;
        self.len += 1;
        (self.len - 1, true)
    }

    /// Stages a write of `data` to home block `bno`.
    ///
    /// # Panics
    ///
    /// Panics outside a transaction or if the transaction exceeds
    /// [`LOG_CAPACITY`].
    pub fn write(&mut self, bno: u32, data: &[u8; BSIZE]) {
        let (i, _) = self.slot_for_write(bno);
        self.data[i] = *data;
    }

    /// Stages `bno` for a partial update and hands out its slot: the
    /// staged contents if the transaction already wrote the block (an
    /// absorbed write), the device's otherwise — one block read, exactly
    /// what a read followed by a [`Log::write`] of the patched copy costs.
    ///
    /// # Panics
    ///
    /// As [`Log::write`].
    pub fn modify(&mut self, dev: &mut dyn BlockDevice, bno: u32) -> &mut [u8; BSIZE] {
        let (i, opened) = self.slot_for_write(bno);
        if opened {
            self.data[i] = *dev.read_block(bno);
        }
        &mut self.data[i]
    }

    /// Stages `bytes` at offset `at` of block `bno`: [`Log::modify`]'s
    /// device calls, with the device's block copied into a newly opened
    /// slot only around the patch. A patch of the whole block still
    /// issues its read, and copies nothing of it.
    ///
    /// # Panics
    ///
    /// As [`Log::write`], and if the patch runs past the block.
    pub fn patch(&mut self, dev: &mut dyn BlockDevice, bno: u32, at: usize, bytes: &[u8]) {
        let end = at + bytes.len();
        let (i, opened) = self.slot_for_write(bno);
        let slot = &mut self.data[i];
        if opened {
            let old = dev.read_block(bno);
            slot[..at].copy_from_slice(&old[..at]);
            slot[end..].copy_from_slice(&old[end..]);
        }
        slot[at..end].copy_from_slice(bytes);
    }

    /// The contents staged for `bno` in the current transaction, if any
    /// (reads go through the log: staged content wins over the device).
    pub fn staged(&self, bno: u32) -> Option<&[u8; BSIZE]> {
        self.slot_of(bno).map(|i| &self.data[i])
    }

    /// Ends a transaction; the outermost end commits.
    pub fn end_op(&mut self, dev: &mut dyn BlockDevice) {
        assert!(self.depth > 0);
        self.depth -= 1;
        if self.depth == 0 {
            self.commit(dev);
        }
    }

    fn commit(&mut self, dev: &mut dyn BlockDevice) {
        if self.len == 0 {
            return;
        }
        let (bnos, slots) = (&self.bnos[..self.len], &self.data[..self.len]);
        // 1. Write staged blocks into the log region.
        for (i, data) in slots.iter().enumerate() {
            assert!((i as u32) < self.size - 1);
            write_retry(dev, self.start + 1 + i as u32, data);
        }
        // 2. Write the header — the single atomic commit point.
        write_retry(dev, self.start, &encode_header(bnos, slots));
        // 3. Install to home locations.
        for (&bno, data) in bnos.iter().zip(slots) {
            write_retry(dev, bno, data);
        }
        // 4. Clear the header.
        write_retry(dev, self.start, &ZERO_BLOCK);
        self.len = 0;
        self.commits += 1;
    }

    /// Replays a committed log found on `dev` (mount-time recovery).
    /// Returns the number of blocks installed; see [`Log::recover_scan`]
    /// for the torn-header outcome.
    pub fn recover(start: u32, dev: &mut dyn BlockDevice) -> usize {
        Self::recover_scan(start, dev).replayed
    }

    /// Mount-time recovery with a full outcome: a committed log is
    /// installed to its home locations; a **torn** header (or torn log
    /// slot) fails the checksum and is discarded — the interrupted
    /// transaction never committed, so the pre-transaction state is the
    /// correct surviving prefix.
    pub fn recover_scan(start: u32, dev: &mut dyn BlockDevice) -> RecoverOutcome {
        let head = *dev.read_block(start);
        let n = u32::from_le_bytes(head[..4].try_into().unwrap()) as usize;
        if n == 0 {
            return RecoverOutcome::default();
        }
        if n > LOG_CAPACITY {
            // Count field itself is garbage: a torn header.
            write_retry(dev, start, &ZERO_BLOCK);
            return RecoverOutcome {
                replayed: 0,
                torn_discarded: true,
            };
        }
        let slots: Vec<[u8; BSIZE]> = (0..n)
            .map(|i| *dev.read_block(start + 1 + i as u32))
            .collect();
        let stored = u64::from_le_bytes(head[BSIZE - 8..].try_into().unwrap());
        if header_checksum(&head, &slots) != stored {
            write_retry(dev, start, &ZERO_BLOCK);
            return RecoverOutcome {
                replayed: 0,
                torn_discarded: true,
            };
        }
        for (i, data) in slots.iter().enumerate() {
            let bno = u32::from_le_bytes(head[4 + i * 4..8 + i * 4].try_into().unwrap());
            write_retry(dev, bno, data);
        }
        write_retry(dev, start, &ZERO_BLOCK);
        RecoverOutcome {
            replayed: n,
            torn_discarded: false,
        }
    }
}

fn encode_header(bnos: &[u32], slots: &[[u8; BSIZE]]) -> [u8; BSIZE] {
    let mut h = [0u8; BSIZE];
    h[..4].copy_from_slice(&(bnos.len() as u32).to_le_bytes());
    for (i, &bno) in bnos.iter().enumerate() {
        h[4 + i * 4..8 + i * 4].copy_from_slice(&bno.to_le_bytes());
    }
    let sum = header_checksum(&h, slots);
    h[BSIZE - 8..].copy_from_slice(&sum.to_le_bytes());
    h
}

/// Checksum lanes: consecutive words go to consecutive lanes, so four
/// multiplies are in flight instead of one dependency chain per block.
const LANES: usize = 4;

/// FNV-1a's offset basis seeds every lane and the final fold.
const SUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Header bytes the checksum covers: the count and a block list of full
/// length (unused entries are written as zero), in whole stripes.
const HEAD_COVERED: usize = (4 + 4 * LOG_CAPACITY).next_multiple_of(8 * LANES);

/// FNV-1a's xor-then-multiply step taken over a whole little-endian word
/// instead of a byte. A multiply only carries differences upward, so the
/// rotation brings the top bits back to the bottom, where the next step's
/// multiply spreads them; the multiplier is odd, so for a fixed `h` the
/// step is a bijection of `w` (and for a fixed `w` of `h`): changing any
/// one word of the input always changes the sum.
fn sum_step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
}

/// The checksum over the header's count + block list and the logged
/// contents, in that order. The checksum field itself (last 8 bytes of
/// the header) is excluded.
fn header_checksum(head: &[u8; BSIZE], slots: &[[u8; BSIZE]]) -> u64 {
    let mut lanes = [SUM_SEED; LANES];
    // A loop per block, not a `flat_map` over the blocks' stripes: that
    // asks which block it is in at every stripe, and the lanes' chain of
    // multiplies is left waiting on it.
    for bytes in std::iter::once(&head[..HEAD_COVERED]).chain(slots.iter().map(|s| &s[..])) {
        for stripe in bytes.chunks_exact(8 * LANES) {
            for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
                *lane = sum_step(*lane, w);
            }
        }
    }
    lanes.iter().fold(SUM_SEED, |h, &lane| sum_step(h, lane))
}

/// Writes with a bounded retry over transient device errors. If the
/// device still refuses after [`WRITE_RETRIES`] attempts the write is
/// abandoned — indistinguishable from power loss, and exactly what the
/// recovery path is for.
fn write_retry(dev: &mut dyn BlockDevice, bno: u32, data: &[u8; BSIZE]) {
    for _ in 0..WRITE_RETRIES {
        if dev.try_write_block(bno, data).is_ok() {
            return;
        }
    }
}

/// The staging this module replaced, kept as the oracle the slot array is
/// tested against: contents in a `HashMap` by home block, first-write
/// order in a `Vec`. (It leaves the header's checksum field zero; the
/// comparison masks it.)
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use crate::blockdev::{BlockDevice, BSIZE};

    #[derive(Default)]
    pub struct Log {
        pub pending: Vec<u32>,
        staged: HashMap<u32, [u8; BSIZE]>,
        pub absorbed: u64,
    }

    impl Log {
        pub fn write(&mut self, bno: u32, data: &[u8; BSIZE]) {
            if self.staged.insert(bno, *data).is_none() {
                self.pending.push(bno);
            } else {
                self.absorbed += 1;
            }
        }

        pub fn read(&mut self, dev: &mut dyn BlockDevice, bno: u32) -> [u8; BSIZE] {
            match self.staged.get(&bno) {
                Some(data) => *data,
                None => *dev.read_block(bno),
            }
        }

        pub fn commit(&mut self, dev: &mut dyn BlockDevice, start: u32) {
            if self.pending.is_empty() {
                return;
            }
            for (i, &bno) in self.pending.iter().enumerate() {
                dev.write_block(start + 1 + i as u32, &self.staged[&bno]);
            }
            let mut h = [0u8; BSIZE];
            h[..4].copy_from_slice(&(self.pending.len() as u32).to_le_bytes());
            for (i, &bno) in self.pending.iter().enumerate() {
                h[4 + i * 4..8 + i * 4].copy_from_slice(&bno.to_le_bytes());
            }
            dev.write_block(start, &h);
            for &bno in &self.pending {
                dev.write_block(bno, &self.staged[&bno]);
            }
            dev.write_block(start, &[0u8; BSIZE]);
            self.pending.clear();
            self.staged.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use crate::blockdev::{CrashDisk, RamDisk};

    use super::*;

    const LOG_START: u32 = 2;
    const LOG_SIZE: u32 = 32;

    fn block(v: u8) -> [u8; BSIZE] {
        let mut b = [0u8; BSIZE];
        b[0] = v;
        b
    }

    #[test]
    fn commit_installs_to_home() {
        let mut dev = RamDisk::new(64);
        let mut log = Log::new(LOG_START, LOG_SIZE);
        log.begin_op();
        log.write(40, &block(7));
        log.write(41, &block(8));
        log.end_op(&mut dev);
        assert_eq!(dev.read_block(40)[0], 7);
        assert_eq!(dev.read_block(41)[0], 8);
        assert_eq!(log.commits, 1);
    }

    #[test]
    fn reads_see_staged_writes() {
        let mut dev = RamDisk::new(64);
        let mut log = Log::new(LOG_START, LOG_SIZE);
        log.begin_op();
        log.write(40, &block(9));
        assert_eq!(
            log.staged(40).map(|b| b[0]),
            Some(9),
            "read-your-writes inside a transaction"
        );
        assert!(log.staged(41).is_none());
        log.end_op(&mut dev);
        assert!(log.staged(40).is_none(), "a commit empties the staging");
    }

    #[test]
    fn absorption_coalesces_rewrites() {
        let mut dev = RamDisk::new(64);
        let mut log = Log::new(LOG_START, LOG_SIZE);
        log.begin_op();
        log.write(40, &block(1));
        log.write(40, &block(2));
        log.end_op(&mut dev);
        assert_eq!(log.absorbed, 1);
        assert_eq!(dev.read_block(40)[0], 2);
    }

    #[test]
    fn nested_ops_commit_once_at_outermost() {
        let mut dev = RamDisk::new(64);
        let mut log = Log::new(LOG_START, LOG_SIZE);
        log.begin_op();
        log.write(40, &block(1));
        log.begin_op();
        log.write(41, &block(2));
        log.end_op(&mut dev);
        assert_eq!(log.commits, 0, "inner end must not commit");
        log.end_op(&mut dev);
        assert_eq!(log.commits, 1);
    }

    /// The crash-safety sweep: crash after every possible number of device
    /// writes during a commit; after recovery, the home blocks hold either
    /// *all* old values or *all* new values.
    #[test]
    fn crash_anywhere_is_atomic() {
        // A committed transaction writes: 2 log blocks + header + 2 home +
        // header clear = 6 device writes.
        for fuse in 0..=6u64 {
            let mut base = RamDisk::new(64);
            // Old values.
            base.write_block(40, &block(0xa0));
            base.write_block(41, &block(0xa1));
            let mut dev = CrashDisk::new(base, fuse);
            let mut log = Log::new(LOG_START, LOG_SIZE);
            log.begin_op();
            log.write(40, &block(0xb0));
            log.write(41, &block(0xb1));
            log.end_op(&mut dev);
            // Power returns: recover on the surviving state.
            let mut disk = dev.into_survivor();
            Log::recover(LOG_START, &mut disk);
            let state = (disk.read_block(40)[0], disk.read_block(41)[0]);
            assert!(
                state == (0xa0, 0xa1) || state == (0xb0, 0xb1),
                "crash at write #{fuse} left a torn state {state:?}"
            );
        }
    }

    #[test]
    fn recover_is_idempotent() {
        let mut dev = RamDisk::new(64);
        let mut log = Log::new(LOG_START, LOG_SIZE);
        log.begin_op();
        log.write(40, &block(5));
        log.end_op(&mut dev);
        assert_eq!(Log::recover(LOG_START, &mut dev), 0);
        assert_eq!(Log::recover(LOG_START, &mut dev), 0);
    }

    #[test]
    #[should_panic(expected = "outside a transaction")]
    fn write_outside_op_panics() {
        let mut log = Log::new(LOG_START, LOG_SIZE);
        log.write(40, &block(1));
    }

    /// A disk that records every device call, header checksum masked.
    struct Tape {
        disk: RamDisk,
        calls: Vec<(char, u32, Vec<u8>)>,
    }

    impl BlockDevice for Tape {
        fn nblocks(&self) -> u32 {
            self.disk.nblocks()
        }

        fn read_block(&mut self, bno: u32) -> &[u8; BSIZE] {
            self.calls.push(('r', bno, vec![]));
            self.disk.read_block(bno)
        }

        fn write_block(&mut self, bno: u32, buf: &[u8; BSIZE]) {
            let covered = if bno == LOG_START { BSIZE - 8 } else { BSIZE };
            self.calls.push(('w', bno, buf[..covered].to_vec()));
            self.disk.write_block(bno, buf);
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Write(u32, u8),
        /// Read-modify-write of one byte, the file system's usual write.
        Patch(u32, usize, u8),
        /// `len` bytes from `v` up stored at `at` through [`Log::patch`],
        /// the whole block included.
        Splice(u32, usize, usize, u8),
        Read(u32),
        Commit,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Twelve home blocks: plenty of absorption, never past capacity.
        let bno = 40u32..52;
        prop_oneof![
            (bno.clone(), any::<u8>()).prop_map(|(b, v)| Op::Write(b, v)),
            (bno.clone(), 0usize..BSIZE, any::<u8>()).prop_map(|(b, at, v)| Op::Patch(b, at, v)),
            (bno.clone(), 0usize..BSIZE, 0usize..=BSIZE, any::<u8>())
                .prop_map(|(b, at, len, v)| Op::Splice(b, at, len.min(BSIZE - at), v)),
            (bno.clone(), any::<u8>()).prop_map(|(b, v)| Op::Splice(b, 0, BSIZE, v)),
            bno.prop_map(Op::Read),
            Just(Op::Commit),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Same first-write order, same absorption count, same reads seen,
        /// same device calls with the same bytes.
        #[test]
        fn slot_array_matches_hashmap_log(ops in proptest::collection::vec(op_strategy(), 1..120)) {
            let tape = || Tape { disk: RamDisk::new(64), calls: vec![] };
            let (mut dev, mut ref_dev) = (tape(), tape());
            let mut log = Log::new(LOG_START, LOG_SIZE);
            let mut oracle = reference::Log::default();
            log.begin_op();
            for op in ops {
                match op {
                    Op::Write(bno, v) => {
                        oracle.write(bno, &block(v));
                        log.write(bno, &block(v));
                    }
                    Op::Patch(bno, at, v) => {
                        let mut data = oracle.read(&mut ref_dev, bno);
                        data[at] = v;
                        oracle.write(bno, &data);
                        log.modify(&mut dev, bno)[at] = v;
                    }
                    Op::Splice(bno, at, len, v) => {
                        let bytes: Vec<u8> = (0..len).map(|k| v.wrapping_add(k as u8)).collect();
                        let mut data = oracle.read(&mut ref_dev, bno);
                        data[at..at + len].copy_from_slice(&bytes);
                        oracle.write(bno, &data);
                        log.patch(&mut dev, bno, at, &bytes);
                    }
                    Op::Read(bno) => {
                        let want = oracle.read(&mut ref_dev, bno);
                        let got = match log.staged(bno) {
                            Some(data) => *data,
                            None => *dev.read_block(bno),
                        };
                        prop_assert!(got == want, "block {}", bno);
                    }
                    Op::Commit => {
                        oracle.commit(&mut ref_dev, LOG_START);
                        log.end_op(&mut dev);
                        log.begin_op();
                    }
                }
                prop_assert_eq!(&log.bnos[..log.len], &oracle.pending[..]);
                prop_assert_eq!(log.absorbed, oracle.absorbed);
                prop_assert!(dev.calls == ref_dev.calls, "device calls diverged");
            }
        }
    }

    const HOME: [u32; 3] = [40, 41, 42];

    /// A disk on which generation `old` was committed through the log (so
    /// the log slots hold stale but plausible blocks), and the device
    /// writes — log slots, header, installs, clear — that committing
    /// generation `new` issues.
    fn two_generations(old: u8, new: u8) -> (RamDisk, Vec<(u32, [u8; BSIZE])>) {
        let generation = |dev: &mut dyn BlockDevice, g: u8| {
            let mut log = Log::new(LOG_START, LOG_SIZE);
            log.begin_op();
            for (i, &bno) in HOME.iter().enumerate() {
                let mut data = [g; BSIZE];
                data[i] ^= 0x5a;
                log.write(bno, &data);
            }
            log.end_op(dev);
        };
        let mut base = RamDisk::new(64);
        generation(&mut base, old);
        struct Capture(RamDisk, Vec<(u32, [u8; BSIZE])>);
        impl BlockDevice for Capture {
            fn nblocks(&self) -> u32 {
                self.0.nblocks()
            }
            fn read_block(&mut self, bno: u32) -> &[u8; BSIZE] {
                self.0.read_block(bno)
            }
            fn write_block(&mut self, bno: u32, buf: &[u8; BSIZE]) {
                self.1.push((bno, *buf));
            }
        }
        let mut capture = Capture(base, vec![]);
        generation(&mut capture, new);
        assert_eq!(capture.1.len(), 2 * HOME.len() + 2);
        (capture.0, capture.1)
    }

    /// The crash state: `writes[..landed]` whole, then `writes[landed]`
    /// torn at `cut` (a prefix of the new block over the old one).
    fn torn_at(
        base: &RamDisk,
        writes: &[(u32, [u8; BSIZE])],
        landed: usize,
        cut: usize,
    ) -> RamDisk {
        let mut disk = base.clone();
        for (bno, data) in &writes[..landed] {
            disk.write_block(*bno, data);
        }
        let (bno, data) = &writes[landed];
        let mut torn = *disk.read_block(*bno);
        torn[..cut].copy_from_slice(&data[..cut]);
        disk.write_block(*bno, &torn);
        disk
    }

    fn home_generation(disk: &mut RamDisk) -> [u8; 3] {
        HOME.map(|bno| disk.read_block(bno)[BSIZE - 1])
    }

    #[test]
    fn header_torn_at_any_cut_is_discarded() {
        let (base, writes) = two_generations(0xa0, 0xb0);
        let header = HOME.len();
        assert_eq!(writes[header].0, LOG_START);
        for cut in 4..BSIZE {
            let mut disk = torn_at(&base, &writes, header, cut);
            let whole = *disk.read_block(LOG_START);
            let outcome = Log::recover_scan(LOG_START, &mut disk);
            if whole == writes[header].1 {
                // The bytes cut off were zero anyway: the header landed.
                assert_eq!(outcome.replayed, HOME.len(), "cut {cut}");
                continue;
            }
            assert!(outcome.torn_discarded, "cut {cut} went unnoticed");
            assert_eq!(outcome.replayed, 0);
            assert_eq!(home_generation(&mut disk), [0xa0; 3], "cut {cut}");
        }
    }

    /// A header that claims a slot which only partly reached the medium
    /// (a device that reorders writes, or a slot torn without taking the
    /// power with it): every cut of every slot, word-aligned or not.
    #[test]
    fn log_slot_torn_at_any_cut_is_discarded() {
        let (base, writes) = two_generations(0xa0, 0xb0);
        for slot in 0..HOME.len() {
            for cut in 0..BSIZE {
                let mut disk = torn_at(&base, &writes, slot, cut);
                for (bno, data) in &writes[slot + 1..=HOME.len()] {
                    disk.write_block(*bno, data);
                }
                let outcome = Log::recover_scan(LOG_START, &mut disk);
                assert!(
                    outcome.torn_discarded,
                    "slot {slot} cut {cut} went unnoticed"
                );
                assert_eq!(home_generation(&mut disk), [0xa0; 3]);
            }
        }
    }

    #[test]
    fn every_single_bit_flip_in_a_logged_slot_is_detected() {
        let (_, writes) = two_generations(0xa0, 0xb0);
        let head = writes[HOME.len()].1;
        let stored = u64::from_le_bytes(head[BSIZE - 8..].try_into().unwrap());
        let mut slots: Vec<[u8; BSIZE]> = writes[..HOME.len()].iter().map(|w| w.1).collect();
        assert_eq!(header_checksum(&head, &slots), stored);
        for slot in 0..slots.len() {
            for bit in 0..BSIZE * 8 {
                slots[slot][bit / 8] ^= 1 << (bit % 8);
                assert_ne!(
                    header_checksum(&head, &slots),
                    stored,
                    "slot {slot} bit {bit}"
                );
                slots[slot][bit / 8] ^= 1 << (bit % 8);
            }
        }
        // And through recovery: a flipped bit in the middle slot.
        let (base, writes) = two_generations(0xa0, 0xb0);
        let mut disk = base;
        for (bno, data) in &writes[..=HOME.len()] {
            disk.write_block(*bno, data);
        }
        let mut bad = writes[1].1;
        bad[513] ^= 0x10;
        disk.write_block(writes[1].0, &bad);
        assert!(Log::recover_scan(LOG_START, &mut disk).torn_discarded);
    }

    /// The sum is part of the on-disk format, so a faster loop must not
    /// move it: its values on fixed blocks (no slot, one, three and a
    /// full log) are pinned to the ones the four-lane sum has had since
    /// it replaced byte-serial FNV-1a.
    #[test]
    fn checksum_values_are_pinned() {
        let head: [u8; BSIZE] = std::array::from_fn(|i| (i * 7) as u8);
        let pinned = [
            (0, 0x82cf_c836_ccdf_2e13),
            (1, 0xce45_639b_18c1_818e),
            (3, 0xa16d_b64a_e5cc_96ba),
            (LOG_CAPACITY, 0xf9b8_c43e_0d9b_3f61),
        ];
        for (n, sum) in pinned {
            let slots: Vec<[u8; BSIZE]> = (0..n)
                .map(|k| std::array::from_fn(|i| (i * 13 + k) as u8))
                .collect();
            assert_eq!(header_checksum(&head, &slots), sum, "{n} slots");
        }
    }

    /// Swapped slots, or a block list that names other homes, fail too:
    /// the sum covers the order and the list, not just the bytes.
    #[test]
    fn checksum_covers_slot_order_and_block_list() {
        let (_, writes) = two_generations(0xa0, 0xb0);
        let head = writes[HOME.len()].1;
        let stored = u64::from_le_bytes(head[BSIZE - 8..].try_into().unwrap());
        let slots: Vec<[u8; BSIZE]> = writes[..HOME.len()].iter().map(|w| w.1).collect();
        let swapped = [slots[1], slots[0], slots[2]];
        assert_ne!(header_checksum(&head, &swapped), stored);
        let mut renamed = head;
        renamed[4] ^= 1;
        assert_ne!(header_checksum(&renamed, &slots), stored);
    }
}
