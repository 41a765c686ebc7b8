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

    /// Reads block `bno` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `bno` is out of range.
    fn read_block(&mut self, bno: u32, buf: &mut [u8; BSIZE]);

    /// Writes `buf` to block `bno`.
    ///
    /// # Panics
    ///
    /// Panics if `bno` is out of range.
    fn write_block(&mut self, bno: u32, buf: &[u8; BSIZE]);

    /// Fallible read: devices that can fail transiently (see
    /// [`FaultyDisk`]) surface the error here; plain devices never do.
    fn try_read_block(&mut self, bno: u32, buf: &mut [u8; BSIZE]) -> Result<(), DevError> {
        self.read_block(bno, buf);
        Ok(())
    }

    /// Fallible write; see [`BlockDevice::try_read_block`].
    fn try_write_block(&mut self, bno: u32, buf: &[u8; BSIZE]) -> Result<(), DevError> {
        self.write_block(bno, buf);
        Ok(())
    }
}

/// An in-memory disk, with I/O counters.
///
/// Sparse: a block costs the host memory from its first write on, and
/// reads as zeros until then, so a clone copies only the written blocks.
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

    fn read_block(&mut self, bno: u32, buf: &mut [u8; BSIZE]) {
        self.reads += 1;
        match &self.blocks[bno as usize] {
            Some(block) => *buf = **block,
            None => buf.fill(0),
        }
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

    fn read_block(&mut self, bno: u32, buf: &mut [u8; BSIZE]) {
        self.inner.read_block(bno, buf);
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
/// * [`FaultPoint::BlockReadError`] / [`FaultPoint::BlockWriteError`] —
///   the attempt returns [`DevError`] once; the immediately following
///   retry of the same block is guaranteed to succeed and is counted as
///   the recovery.
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
    /// Block with an outstanding transient error: the next access to it
    /// succeeds (and counts as the recovery).
    retry_read: Option<u32>,
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
            retry_read: None,
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

    fn read_block(&mut self, bno: u32, buf: &mut [u8; BSIZE]) {
        // The infallible path retries internally; the injected error
        // still lands in the ledger and is recovered by the retry.
        while self.try_read_block(bno, buf).is_err() {}
    }

    fn write_block(&mut self, bno: u32, buf: &[u8; BSIZE]) {
        while self.try_write_block(bno, buf).is_err() {}
    }

    fn try_read_block(&mut self, bno: u32, buf: &mut [u8; BSIZE]) -> Result<(), DevError> {
        if self.retry_read.take() == Some(bno) {
            // The retry after a transient error: guaranteed to succeed.
            self.inner.read_block(bno, buf);
            self.faults.recovered(FaultPoint::BlockReadError);
            return Ok(());
        }
        if self.faults.fire(FaultPoint::BlockReadError) {
            self.retry_read = Some(bno);
            self.faults.detected(FaultPoint::BlockReadError);
            return Err(DevError);
        }
        self.inner.read_block(bno, buf);
        Ok(())
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
            let mut torn = [0u8; BSIZE];
            self.inner.read_block(bno, &mut torn);
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

        fn read_block(&mut self, bno: u32, buf: &mut [u8; BSIZE]) {
            self.reads += 1;
            *buf = self.blocks[bno as usize];
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
        let mut buf = [0u8; BSIZE];
        (0..disk.nblocks())
            .flat_map(|bno| {
                disk.read_block(bno, &mut buf);
                buf
            })
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
                    2 => {
                        let (mut a, mut b) = ([1; BSIZE], [2; BSIZE]);
                        sparse.read_block(bno, &mut a);
                        dense.read_block(bno, &mut b);
                        prop_assert_eq!(a, b);
                    }
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
        let mut out = [0u8; BSIZE];
        d.read_block(3, &mut out);
        assert_eq!(out[0], 0xaa);
        assert_eq!((d.reads, d.writes), (1, 1));
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
        let mut buf = [0u8; BSIZE];
        d.read_block(0, &mut buf);
        assert_eq!(buf[0], 1);
        d.read_block(1, &mut buf);
        assert_eq!(buf[0], 0);
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
        let mut buf = [0u8; BSIZE];
        h.disarm();
        d.read_block(3, &mut buf);
        assert_eq!(buf[0], 1);
        let r = h.report();
        assert_eq!((r.detected(), r.recovered(), r.leaked()), (1, 1, 0));
    }

    #[test]
    fn faulty_disk_torn_write_cuts_and_kills_power() {
        let h = FaultHandle::new(5, FaultMix::none().with(FaultPoint::TornWrite, 10_000));
        let mut d = FaultyDisk::new(RamDisk::new(8), h.clone());
        let full = [0xff; BSIZE];
        d.write_block(2, &full);
        assert!(d.dead, "a torn write takes the power with it");
        let mut buf = [0u8; BSIZE];
        d.read_block(2, &mut buf);
        assert!(buf[..4] == [0xff; 4], "at least the prefix landed");
        assert!(buf.contains(&0), "the tail of the block must be torn off");
        // Writes after death are silently dropped.
        d.write_block(3, &full);
        assert!(d.dropped >= 1);
        d.read_block(3, &mut buf);
        assert_eq!(buf[0], 0);
    }

    #[test]
    fn faulty_disk_with_no_faults_is_transparent() {
        let h = FaultHandle::new(1, FaultMix::none());
        let mut d = FaultyDisk::new(RamDisk::new(4), h.clone());
        let mut b = [0u8; BSIZE];
        b[9] = 9;
        d.write_block(1, &b);
        let mut out = [0u8; BSIZE];
        d.read_block(1, &mut out);
        assert_eq!(out[9], 9);
        assert_eq!(h.report().injected(), 0);
    }
}
