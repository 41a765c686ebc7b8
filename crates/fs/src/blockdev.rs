//! Block devices: the trait, the RAM disk, and crash/fault injection.

use sb_faultplane::{FaultHandle, FaultPoint};

/// Bytes per block (xv6's BSIZE).
pub const BSIZE: usize = 1024;

/// A transient device-level I/O error. The device refused this attempt;
/// a bounded retry is the expected recovery path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DevError;

impl std::fmt::Display for DevError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transient block I/O error")
    }
}

impl std::error::Error for DevError {}

/// A block device.
///
/// In the simulated system the device is served by a separate process (the
/// second server of the SQLite stack); the scenario layer wraps an
/// implementor in an IPC or SkyBridge proxy and charges transfer costs.
pub trait BlockDevice {
    /// Number of blocks.
    fn nblocks(&self) -> u32;

    /// Reads block `bno`, lending the device's copy of it: the caller
    /// reads the bytes it needs, and copies the block only to keep it.
    ///
    /// # Panics
    ///
    /// Panics if `bno` is out of range.
    fn read_block(&mut self, bno: u32) -> &[u8; BSIZE];

    /// Writes `buf` to block `bno`.
    ///
    /// # Panics
    ///
    /// Panics if `bno` is out of range.
    fn write_block(&mut self, bno: u32, buf: &[u8; BSIZE]);

    /// Fallible write: devices that can fail transiently (see
    /// [`FaultyDisk`]) surface the error here; plain devices never do.
    fn try_write_block(&mut self, bno: u32, buf: &[u8; BSIZE]) -> Result<(), DevError> {
        self.write_block(bno, buf);
        Ok(())
    }
}

/// An all-zero block: what a block never written reads as, and what a
/// cleared log header and a freshly allocated block are written as.
pub(crate) static ZERO_BLOCK: [u8; BSIZE] = [0; BSIZE];

/// An in-memory disk, with I/O counters.
///
/// Sparse: a block costs the host memory from its first write on, and
/// reads as zeros until then (it lends `ZERO_BLOCK`), so a clone copies
/// only the written blocks.
#[derive(Debug, Clone)]
pub struct RamDisk {
    blocks: Vec<Option<Box<[u8; BSIZE]>>>,
    /// Total block reads served.
    pub reads: u64,
    /// Total block writes served.
    pub writes: u64,
}

impl RamDisk {
    /// A zeroed disk of `nblocks` blocks.
    pub fn new(nblocks: u32) -> Self {
        RamDisk {
            blocks: vec![None; nblocks as usize],
            reads: 0,
            writes: 0,
        }
    }
}

impl BlockDevice for RamDisk {
    fn nblocks(&self) -> u32 {
        self.blocks.len() as u32
    }

    fn read_block(&mut self, bno: u32) -> &[u8; BSIZE] {
        self.reads += 1;
        self.blocks[bno as usize].as_deref().unwrap_or(&ZERO_BLOCK)
    }

    fn write_block(&mut self, bno: u32, buf: &[u8; BSIZE]) {
        self.writes += 1;
        match &mut self.blocks[bno as usize] {
            Some(block) => **block = *buf,
            unwritten => *unwritten = Some(Box::new(*buf)),
        }
    }
}

/// A crash-injecting wrapper: after `fuse` successful writes, every
/// subsequent write is silently dropped — the moral equivalent of power
/// loss mid-sequence. Reads always see the persisted state.
#[derive(Debug, Clone)]
pub struct CrashDisk {
    inner: RamDisk,
    /// Writes remaining before the "power loss".
    pub fuse: u64,
    /// Writes dropped after the crash point.
    pub dropped: u64,
}

impl CrashDisk {
    /// Wraps `disk`, allowing `fuse` more writes.
    pub fn new(inner: RamDisk, fuse: u64) -> Self {
        CrashDisk {
            inner,
            fuse,
            dropped: 0,
        }
    }

    /// Consumes the wrapper, returning the surviving disk state.
    pub fn into_survivor(self) -> RamDisk {
        self.inner
    }
}

impl BlockDevice for CrashDisk {
    fn nblocks(&self) -> u32 {
        self.inner.nblocks()
    }

    fn read_block(&mut self, bno: u32) -> &[u8; BSIZE] {
        self.inner.read_block(bno)
    }

    fn write_block(&mut self, bno: u32, buf: &[u8; BSIZE]) {
        if self.fuse == 0 {
            self.dropped += 1;
            return;
        }
        self.fuse -= 1;
        self.inner.write_block(bno, buf);
    }
}

/// A fault-injecting block device driven by a shared
/// [`sb_faultplane::FaultPlane`].
///
/// Injected behaviours, all deterministic in `(seed, mix)`:
///
/// * [`FaultPoint::BlockReadError`] — the read fails once and is retried
///   inside [`BlockDevice::read_block`]; the retry is guaranteed to
///   succeed and is counted as the recovery.
/// * [`FaultPoint::BlockWriteError`] — the attempt returns [`DevError`]
///   once; the immediately following retry of the same block is
///   guaranteed to succeed and is counted as the recovery.
/// * [`FaultPoint::TornWrite`] — only a prefix of the block reaches the
///   medium and the device loses power: the torn block is the visible
///   edge of the crash, exactly the state the write-ahead log's
///   header checksum must reject at the next mount.
/// * [`FaultPoint::PowerLoss`] — this and every subsequent write is
///   silently dropped ([`CrashDisk`] semantics); reads keep serving the
///   persisted state so a remount can recover.
#[derive(Debug, Clone)]
pub struct FaultyDisk {
    inner: RamDisk,
    faults: FaultHandle,
    /// Block with an outstanding transient write error: the next write
    /// to it succeeds (and counts as the recovery).
    retry_write: Option<u32>,
    /// Power lost: all further writes are dropped.
    pub dead: bool,
    /// Writes dropped after the power loss.
    pub dropped: u64,
}

impl FaultyDisk {
    /// Wraps `inner`, injecting per `faults`.
    pub fn new(inner: RamDisk, faults: FaultHandle) -> Self {
        FaultyDisk {
            inner,
            faults,
            retry_write: None,
            dead: false,
            dropped: 0,
        }
    }

    /// Consumes the wrapper, returning the surviving disk state (what a
    /// remount after the crash would see).
    pub fn into_survivor(self) -> RamDisk {
        self.inner
    }

    /// The fault handle this disk injects from.
    pub fn faults(&self) -> &FaultHandle {
        &self.faults
    }
}

impl BlockDevice for FaultyDisk {
    fn nblocks(&self) -> u32 {
        self.inner.nblocks()
    }

    fn read_block(&mut self, bno: u32) -> &[u8; BSIZE] {
        // A read fails transiently at most once: the injected error lands
        // in the ledger, and the retry, guaranteed to succeed, recovers it.
        if self.faults.fire(FaultPoint::BlockReadError) {
            self.faults.detected(FaultPoint::BlockReadError);
            self.faults.recovered(FaultPoint::BlockReadError);
        }
        self.inner.read_block(bno)
    }

    fn write_block(&mut self, bno: u32, buf: &[u8; BSIZE]) {
        while self.try_write_block(bno, buf).is_err() {}
    }

    fn try_write_block(&mut self, bno: u32, buf: &[u8; BSIZE]) -> Result<(), DevError> {
        if self.dead {
            self.dropped += 1;
            return Ok(());
        }
        if self.retry_write.take() == Some(bno) {
            self.inner.write_block(bno, buf);
            self.faults.recovered(FaultPoint::BlockWriteError);
            return Ok(());
        }
        if self.faults.fire(FaultPoint::PowerLoss) {
            self.dead = true;
            self.dropped += 1;
            return Ok(());
        }
        if self.faults.fire(FaultPoint::TornWrite) {
            // A prefix (at least 4 bytes so a torn log header shows a
            // plausible count) lands; then the power goes.
            let cut = 4 + self.faults.draw((BSIZE - 4) as u64) as usize;
            let mut torn = *self.inner.read_block(bno);
            self.inner.reads -= 1; // Internal read, not device traffic.
            torn[..cut].copy_from_slice(&buf[..cut]);
            self.inner.write_block(bno, &torn);
            self.dead = true;
            return Ok(());
        }
        if self.faults.fire(FaultPoint::BlockWriteError) {
            self.retry_write = Some(bno);
            self.faults.detected(FaultPoint::BlockWriteError);
            return Err(DevError);
        }
        self.inner.write_block(bno, buf);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;
    use sb_faultplane::FaultMix;

    use super::*;

    /// The dense disk [`RamDisk`] was before it went sparse, as the
    /// reference: every block held, written or not.
    #[derive(Clone)]
    struct DenseDisk {
        blocks: Vec<[u8; BSIZE]>,
        reads: u64,
        writes: u64,
    }

    impl BlockDevice for DenseDisk {
        fn nblocks(&self) -> u32 {
            self.blocks.len() as u32
        }

        fn read_block(&mut self, bno: u32) -> &[u8; BSIZE] {
            self.reads += 1;
            &self.blocks[bno as usize]
        }

        fn write_block(&mut self, bno: u32, buf: &[u8; BSIZE]) {
            self.writes += 1;
            self.blocks[bno as usize] = *buf;
        }
    }

    /// Every block of `disk` in order, read the way the graph's
    /// `disk_digest` reads a disk (on a copy, so no counter moves): equal
    /// images hash to equal digests.
    fn image(mut disk: impl BlockDevice) -> Vec<u8> {
        (0..disk.nblocks())
            .flat_map(|bno| *disk.read_block(bno))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Arbitrary reads, writes (zero blocks included) and clones give
        /// the sparse disk the dense one's bytes, counters and image, and
        /// a clone holds exactly the blocks written so far.
        #[test]
        fn a_sparse_disk_matches_the_dense_one(
            ops in proptest::collection::vec((0u8..4, 0u32..24, any::<u8>()), 1..80),
        ) {
            let mut sparse = RamDisk::new(24);
            let mut dense = DenseDisk { blocks: vec![[0; BSIZE]; 24], reads: 0, writes: 0 };
            let mut written = BTreeSet::new();
            for (kind, bno, fill) in ops {
                match kind {
                    0 | 1 => {
                        let block = [if kind == 0 { 0 } else { fill }; BSIZE];
                        sparse.write_block(bno, &block);
                        dense.write_block(bno, &block);
                        written.insert(bno as usize);
                    }
                    2 => prop_assert_eq!(sparse.read_block(bno), dense.read_block(bno)),
                    _ => {
                        (sparse, dense) = (sparse.clone(), dense.clone());
                        let held = (0..24).filter(|&b| sparse.blocks[b].is_some());
                        prop_assert_eq!(held.collect::<BTreeSet<_>>(), written.clone());
                    }
                }
                prop_assert_eq!((sparse.reads, sparse.writes), (dense.reads, dense.writes));
            }
            prop_assert_eq!(image(sparse.clone()), image(dense.clone()));
        }
    }

    #[test]
    fn ramdisk_roundtrip_and_counters() {
        let mut d = RamDisk::new(8);
        let mut buf = [0u8; BSIZE];
        buf[0] = 0xaa;
        d.write_block(3, &buf);
        assert_eq!(d.read_block(3)[0], 0xaa);
        assert_eq!(d.read_block(4), &[0; BSIZE], "never written: zeros");
        assert_eq!((d.reads, d.writes), (2, 1));
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let mut d = RamDisk::new(2);
        let buf = [0u8; BSIZE];
        d.write_block(2, &buf);
    }

    #[test]
    fn crash_disk_drops_writes_after_fuse() {
        let mut d = CrashDisk::new(RamDisk::new(4), 1);
        let mut one = [0u8; BSIZE];
        one[0] = 1;
        let mut two = [0u8; BSIZE];
        two[0] = 2;
        d.write_block(0, &one); // Persisted.
        d.write_block(1, &two); // Dropped.
        assert_eq!(d.dropped, 1);
        assert_eq!(d.read_block(0)[0], 1);
        assert_eq!(d.read_block(1)[0], 0);
    }

    #[test]
    fn faulty_disk_transient_write_error_recovers_on_retry() {
        let h = FaultHandle::new(
            11,
            FaultMix::none().with(FaultPoint::BlockWriteError, 10_000),
        );
        let mut d = FaultyDisk::new(RamDisk::new(8), h.clone());
        let mut one = [0u8; BSIZE];
        one[0] = 1;
        assert!(d.try_write_block(3, &one).is_err(), "first attempt fails");
        assert!(d.try_write_block(3, &one).is_ok(), "retry succeeds");
        h.disarm();
        assert_eq!(d.read_block(3)[0], 1);
        let r = h.report();
        assert_eq!((r.detected(), r.recovered(), r.leaked()), (1, 1, 0));
    }

    #[test]
    fn faulty_disk_transient_read_error_is_retried_inside_the_read() {
        let h = FaultHandle::new(3, FaultMix::none().with(FaultPoint::BlockReadError, 10_000));
        let mut d = FaultyDisk::new(RamDisk::new(8), h.clone());
        d.write_block(5, &[7; BSIZE]);
        for _ in 0..3 {
            assert_eq!(d.read_block(5), &[7; BSIZE]);
        }
        let r = h.report();
        assert_eq!((r.detected(), r.recovered(), r.leaked()), (3, 3, 0));
        assert_eq!(
            d.into_survivor().reads,
            3,
            "a retried read reaches the medium once"
        );
    }

    #[test]
    fn faulty_disk_torn_write_cuts_and_kills_power() {
        let h = FaultHandle::new(5, FaultMix::none().with(FaultPoint::TornWrite, 10_000));
        let mut d = FaultyDisk::new(RamDisk::new(8), h.clone());
        let full = [0xff; BSIZE];
        d.write_block(2, &full);
        assert!(d.dead, "a torn write takes the power with it");
        let buf = *d.read_block(2);
        assert!(buf[..4] == [0xff; 4], "at least the prefix landed");
        assert!(buf.contains(&0), "the tail of the block must be torn off");
        // Writes after death are silently dropped.
        d.write_block(3, &full);
        assert!(d.dropped >= 1);
        assert_eq!(d.read_block(3)[0], 0);
    }

    #[test]
    fn faulty_disk_with_no_faults_is_transparent() {
        let h = FaultHandle::new(1, FaultMix::none());
        let mut d = FaultyDisk::new(RamDisk::new(4), h.clone());
        let mut b = [0u8; BSIZE];
        b[9] = 9;
        d.write_block(1, &b);
        assert_eq!(d.read_block(1)[9], 9);
        assert_eq!(h.report().injected(), 0);
    }
}
