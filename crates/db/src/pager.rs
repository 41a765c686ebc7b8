//! The pager: a page cache over one file-system file.
//!
//! SQLite's pager is the layer the paper's Table 4 analysis leans on: the
//! "internal cache" that absorbs most query traffic. Ours is an LRU cache
//! of [`crate::PAGE_SIZE`]-byte pages with explicit dirty tracking;
//! everything below it is real [`sb_fs`] file I/O.

use sb_fs::{FileApi, FsError, Inum};

use crate::PAGE_SIZE;

/// One resident page.
struct Frame {
    pno: u32,
    dirty: bool,
    data: Box<[u8; PAGE_SIZE]>,
}

/// The pager.
pub struct Pager {
    /// Backing file.
    file: Inum,
    /// Resident pages in exact LRU order **by position**: least recently
    /// used first, most recently used last. At most `capacity` frames, a
    /// few dozen, so finding a page is a scan of their numbers and a touch
    /// is a rotation of the tail.
    frames: Vec<Frame>,
    /// Where a page is read before it is admitted. Admission to a full
    /// slab swaps this buffer with the victim's, so no page buffer is
    /// allocated once `capacity` frames exist.
    spare: Box<[u8; PAGE_SIZE]>,
    capacity: usize,
    /// Pages in the file (including not-yet-flushed extensions).
    pub npages: u32,
    /// Cache hits (reads served without file I/O).
    pub hits: u64,
    /// Cache misses (reads that reached the file system).
    pub misses: u64,
    /// Dirty pages written back.
    pub writebacks: u64,
}

impl Pager {
    /// Creates a pager over `file` with an LRU capacity of `capacity`
    /// pages.
    pub fn new<F: FileApi>(fs: &mut F, file: Inum, capacity: usize) -> Self {
        let npages = fs.size_of(file).div_ceil(PAGE_SIZE) as u32;
        let capacity = capacity.max(2);
        Pager {
            file,
            frames: Vec::with_capacity(capacity),
            spare: Box::new([0; PAGE_SIZE]),
            capacity,
            npages,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn find(&self, pno: u32) -> Option<usize> {
        self.frames.iter().rposition(|f| f.pno == pno)
    }

    /// Makes frame `i` the most recently used.
    fn touch(&mut self, i: usize) -> &mut Frame {
        self.frames[i..].rotate_left(1);
        self.frames.last_mut().expect("touched frame")
    }

    /// Admits the page in `spare` as `pno`, clean and most recently used,
    /// evicting (and writing back, if dirty) the least recently used frame
    /// of a full slab.
    fn admit<F: FileApi>(&mut self, fs: &mut F, pno: u32) -> &mut Frame {
        if self.frames.len() < self.capacity {
            let data = std::mem::replace(&mut self.spare, Box::new([0; PAGE_SIZE]));
            self.frames.push(Frame {
                pno,
                dirty: false,
                data,
            });
        } else {
            let victim = &mut self.frames[0];
            if victim.dirty {
                self.writebacks += 1;
                fs.write_at(self.file, victim.pno as usize * PAGE_SIZE, &victim.data[..])
                    .expect("pager writeback failed");
            }
            std::mem::swap(&mut victim.data, &mut self.spare);
            victim.pno = pno;
            victim.dirty = false;
            self.frames.rotate_left(1);
        }
        self.frames.last_mut().expect("admitted frame")
    }

    /// A miss: reads `pno` from the file and admits it.
    fn load<F: FileApi>(&mut self, fs: &mut F, pno: u32) -> &mut Frame {
        self.misses += 1;
        let n = fs.read_at(self.file, pno as usize * PAGE_SIZE, &mut self.spare[..]);
        self.spare[n..].fill(0);
        self.admit(fs, pno)
    }

    /// Reads page `pno` (allocating a zero page beyond EOF is the caller's
    /// job via [`Pager::allocate`]).
    pub fn read<F: FileApi>(&mut self, fs: &mut F, pno: u32) -> &[u8; PAGE_SIZE] {
        let frame = match self.find(pno) {
            Some(i) => {
                self.hits += 1;
                self.touch(i)
            }
            None => self.load(fs, pno),
        };
        &frame.data
    }

    /// The frame of `pno`, dirty and most recently used. A page that is
    /// not resident is admitted — with the file's contents if `keep`,
    /// with whatever the buffer held if the caller overwrites it anyway.
    fn dirty_frame<F: FileApi>(&mut self, fs: &mut F, pno: u32, keep: bool) -> &mut Frame {
        if pno >= self.npages {
            self.npages = pno + 1;
        }
        let frame = match self.find(pno) {
            Some(i) => self.touch(i),
            None if keep => self.load(fs, pno),
            None => self.admit(fs, pno),
        };
        frame.dirty = true;
        frame
    }

    /// Writes page `pno` (cache-resident until flush/eviction).
    pub fn write<F: FileApi>(&mut self, fs: &mut F, pno: u32, data: &[u8; PAGE_SIZE]) {
        *self.dirty_frame(fs, pno, false).data = *data;
    }

    /// Page `pno` for an in-place update: a [`Pager::write`] that keeps
    /// the page's contents (read from the file first if not resident).
    pub fn page_mut<F: FileApi>(&mut self, fs: &mut F, pno: u32) -> &mut [u8; PAGE_SIZE] {
        &mut self.dirty_frame(fs, pno, true).data
    }

    /// Appends a fresh zero page, returning its number.
    pub fn allocate<F: FileApi>(&mut self, fs: &mut F) -> u32 {
        let pno = self.npages;
        self.write(fs, pno, &[0u8; PAGE_SIZE]);
        pno
    }

    /// Flushes every dirty page to the file system, in page order.
    pub fn flush<F: FileApi>(&mut self, fs: &mut F) -> Result<(), FsError> {
        // Each pass cleans the lowest-numbered dirty frame.
        while let Some(f) = self
            .frames
            .iter_mut()
            .filter(|f| f.dirty)
            .min_by_key(|f| f.pno)
        {
            f.dirty = false;
            self.writebacks += 1;
            fs.write_at(self.file, f.pno as usize * PAGE_SIZE, &f.data[..])?;
        }
        Ok(())
    }

    /// Drops the whole cache (after a rollback restored the file).
    pub fn invalidate(&mut self) {
        self.frames.clear();
    }
}

/// The pager this module replaced, kept as the oracle the slab is tested
/// against: a `HashMap` of boxed pages plus a `Vec` of page numbers in LRU
/// order.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use sb_fs::{FileApi, Inum};

    use crate::PAGE_SIZE;

    struct Cached {
        data: Box<[u8; PAGE_SIZE]>,
        dirty: bool,
    }

    pub struct Pager {
        file: Inum,
        cache: HashMap<u32, Cached>,
        /// LRU order (front = oldest).
        order: Vec<u32>,
        capacity: usize,
        pub npages: u32,
        pub hits: u64,
        pub misses: u64,
        pub writebacks: u64,
    }

    impl Pager {
        pub fn new<F: FileApi>(fs: &mut F, file: Inum, capacity: usize) -> Self {
            Pager {
                file,
                cache: HashMap::new(),
                order: Vec::new(),
                capacity: capacity.max(2),
                npages: fs.size_of(file).div_ceil(PAGE_SIZE) as u32,
                hits: 0,
                misses: 0,
                writebacks: 0,
            }
        }

        fn touch(&mut self, pno: u32) {
            self.order.retain(|&p| p != pno);
            self.order.push(pno);
        }

        pub fn read<F: FileApi>(&mut self, fs: &mut F, pno: u32) -> [u8; PAGE_SIZE] {
            if let Some(c) = self.cache.get(&pno) {
                self.hits += 1;
                let data = *c.data;
                self.touch(pno);
                return data;
            }
            self.misses += 1;
            let mut data = Box::new([0u8; PAGE_SIZE]);
            fs.read_at(self.file, pno as usize * PAGE_SIZE, &mut data[..]);
            let page = *data;
            self.insert(fs, pno, Cached { data, dirty: false });
            page
        }

        pub fn write<F: FileApi>(&mut self, fs: &mut F, pno: u32, data: &[u8; PAGE_SIZE]) {
            let page = Cached {
                data: Box::new(*data),
                dirty: true,
            };
            self.insert(fs, pno, page);
            if pno >= self.npages {
                self.npages = pno + 1;
            }
        }

        fn insert<F: FileApi>(&mut self, fs: &mut F, pno: u32, page: Cached) {
            if self.cache.insert(pno, page).is_none() {
                self.order.push(pno);
            } else {
                self.touch(pno);
            }
            while self.cache.len() > self.capacity {
                let victim = self.order.remove(0);
                if let Some(c) = self.cache.remove(&victim) {
                    if c.dirty {
                        self.writebacks += 1;
                        fs.write_at(self.file, victim as usize * PAGE_SIZE, &c.data[..])
                            .expect("pager writeback failed");
                    }
                }
            }
        }

        pub fn allocate<F: FileApi>(&mut self, fs: &mut F) -> u32 {
            let pno = self.npages;
            self.npages += 1;
            self.write(fs, pno, &[0u8; PAGE_SIZE]);
            pno
        }

        pub fn flush<F: FileApi>(&mut self, fs: &mut F) {
            let mut dirty: Vec<u32> = self
                .cache
                .iter()
                .filter(|(_, c)| c.dirty)
                .map(|(&p, _)| p)
                .collect();
            dirty.sort_unstable();
            for pno in dirty {
                let c = self.cache.get_mut(&pno).unwrap();
                c.dirty = false;
                self.writebacks += 1;
                fs.write_at(self.file, pno as usize * PAGE_SIZE, &c.data[..])
                    .expect("flush");
            }
        }

        pub fn invalidate(&mut self) {
            self.cache.clear();
            self.order.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use sb_fs::{FileSystem, RamDisk};

    use super::*;

    /// A file system that records the `(op, offset, bytes)` of every file
    /// call — the sequence the simulated clock bills crossings for.
    struct TapeFs {
        fs: FileSystem<RamDisk>,
        tape: Vec<(char, usize, Vec<u8>)>,
    }

    impl FileApi for TapeFs {
        fn open(&mut self, path: &str) -> Result<Inum, FsError> {
            self.fs.open(path)
        }

        fn create(&mut self, path: &str) -> Result<Inum, FsError> {
            self.fs.create(path)
        }

        fn read_at(&mut self, inum: Inum, off: usize, buf: &mut [u8]) -> usize {
            let n = self.fs.read_at(inum, off, buf);
            self.tape.push(('r', off, buf[..n].to_vec()));
            n
        }

        fn write_at(&mut self, inum: Inum, off: usize, data: &[u8]) -> Result<(), FsError> {
            self.tape.push(('w', off, data.to_vec()));
            self.fs.write_at(inum, off, data)
        }

        fn size_of(&mut self, inum: Inum) -> usize {
            self.fs.size_of(inum)
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Read(u32),
        Write(u32, u8),
        /// The B-tree's in-place update: read the page, then patch it.
        Patch(u32, u8),
        Allocate,
        Flush,
        Invalidate,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // 40 pages against 2-, 3- and 32-frame slabs: all three evict.
        let pno = 0u32..40;
        prop_oneof![
            pno.clone().prop_map(Op::Read),
            pno.clone().prop_map(Op::Read),
            (pno.clone(), any::<u8>()).prop_map(|(p, v)| Op::Write(p, v)),
            (pno, any::<u8>()).prop_map(|(p, v)| Op::Patch(p, v)),
            Just(Op::Allocate),
            Just(Op::Flush),
            Just(Op::Flush),
            Just(Op::Invalidate),
        ]
    }

    fn tape_fs() -> (TapeFs, Inum) {
        let mut fs = FileSystem::mkfs(RamDisk::new(4096), 32);
        let file = fs.create("/db").unwrap();
        // A file of distinguishable pages, so a wrong victim shows.
        for pno in 0..24u8 {
            fs.write_at(file, pno as usize * PAGE_SIZE, &[pno; PAGE_SIZE])
                .unwrap();
        }
        (TapeFs { fs, tape: vec![] }, file)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Same hits, misses and writebacks, same pages returned, same
        /// victims in the same order, same file calls with the same bytes.
        #[test]
        fn slab_matches_hashmap_pager(
            capacity in prop_oneof![Just(2usize), Just(3usize), Just(32usize)],
            ops in proptest::collection::vec(op_strategy(), 1..200),
        ) {
            let (mut fs, file) = tape_fs();
            let (mut ref_fs, ref_file) = tape_fs();
            let mut slab = Pager::new(&mut fs, file, capacity);
            let mut oracle = reference::Pager::new(&mut ref_fs, ref_file, capacity);
            for op in ops {
                match op {
                    Op::Read(pno) => {
                        let want = oracle.read(&mut ref_fs, pno);
                        prop_assert!(*slab.read(&mut fs, pno) == want, "page {}", pno);
                    }
                    Op::Write(pno, v) => {
                        oracle.write(&mut ref_fs, pno, &[v; PAGE_SIZE]);
                        slab.write(&mut fs, pno, &[v; PAGE_SIZE]);
                    }
                    Op::Patch(pno, v) => {
                        let mut page = oracle.read(&mut ref_fs, pno);
                        page[7] = v;
                        oracle.write(&mut ref_fs, pno, &page);
                        slab.read(&mut fs, pno);
                        slab.page_mut(&mut fs, pno)[7] = v;
                    }
                    Op::Allocate => {
                        prop_assert_eq!(slab.allocate(&mut fs), oracle.allocate(&mut ref_fs));
                    }
                    Op::Flush => {
                        oracle.flush(&mut ref_fs);
                        slab.flush(&mut fs).unwrap();
                    }
                    Op::Invalidate => {
                        oracle.invalidate();
                        slab.invalidate();
                    }
                }
                prop_assert_eq!(
                    (slab.hits, slab.misses, slab.writebacks, slab.npages),
                    (oracle.hits, oracle.misses, oracle.writebacks, oracle.npages)
                );
                prop_assert!(fs.tape == ref_fs.tape, "file calls diverged");
            }
        }
    }

    /// `page_mut` of a page that is not resident keeps what the file
    /// holds (the B-tree never does this — it patches the page it just
    /// read — but the slab must not hand out a stale buffer).
    #[test]
    fn page_mut_of_a_cold_page_reads_it_first() {
        let (mut fs, mut p) = setup();
        p.write(&mut fs, 0, &[3u8; PAGE_SIZE]);
        p.flush(&mut fs).unwrap();
        p.invalidate();
        p.page_mut(&mut fs, 0)[0] = 9;
        assert_eq!(p.misses, 1);
        let page = p.read(&mut fs, 0);
        assert_eq!((page[0], page[1]), (9, 3));
    }

    fn setup() -> (FileSystem<RamDisk>, Pager) {
        let mut fs = FileSystem::mkfs(RamDisk::new(4096), 32);
        let file = fs.create("/db").unwrap();
        let pager = Pager::new(&mut fs, file, 4);
        (fs, pager)
    }

    #[test]
    fn write_read_through_cache() {
        let (mut fs, mut p) = setup();
        let mut page = [0u8; PAGE_SIZE];
        page[0] = 0x42;
        p.write(&mut fs, 0, &page);
        assert_eq!(p.read(&mut fs, 0)[0], 0x42);
        assert_eq!(p.hits, 1);
    }

    #[test]
    fn flush_persists_and_survives_invalidate() {
        let (mut fs, mut p) = setup();
        let mut page = [0u8; PAGE_SIZE];
        page[7] = 9;
        p.write(&mut fs, 2, &page);
        p.flush(&mut fs).unwrap();
        p.invalidate();
        assert_eq!(p.read(&mut fs, 2)[7], 9);
        assert_eq!(p.misses, 1);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let (mut fs, mut p) = setup(); // Capacity 4.
        for i in 0..6u32 {
            let mut page = [0u8; PAGE_SIZE];
            page[0] = i as u8;
            p.write(&mut fs, i, &page);
        }
        assert!(p.writebacks >= 2, "evictions must write back");
        // Everything is still readable.
        for i in 0..6u32 {
            assert_eq!(p.read(&mut fs, i)[0], i as u8);
        }
    }

    #[test]
    fn repeated_reads_hit_cache() {
        let (mut fs, mut p) = setup();
        p.write(&mut fs, 0, &[1u8; PAGE_SIZE]);
        p.flush(&mut fs).unwrap();
        p.invalidate();
        p.read(&mut fs, 0);
        let misses = p.misses;
        for _ in 0..10 {
            p.read(&mut fs, 0);
        }
        assert_eq!(p.misses, misses, "hot reads must not touch the FS");
        assert!(p.hits >= 10);
    }
}
