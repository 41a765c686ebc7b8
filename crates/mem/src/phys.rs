//! Sparse host physical memory and frame allocation.
//!
//! Models the 16 GiB of RAM in the paper's test machine as a sparse map of
//! 4 KiB frames. Two bump allocators partition the address space the way
//! the Rootkernel does (§4.1): a small reserved region (100 MiB) that holds
//! the Rootkernel's own structures — EPT pages above all — and the rest,
//! which the base EPT identity-maps to the Subkernel with 1 GiB pages.
//!
//! Host memory follows the bytes the simulation writes, not the frames it
//! allocates: an allocated frame reads as zeros from one shared zero frame
//! until its first write materialises it (DESIGN.md §19).

use std::cell::{Cell, Ref, RefCell};

use crate::{
    addr::{Gpa, Hpa, PAGE_SIZE},
    walk::{MemoWalk, WalkKey},
};

/// Size of the region reserved for the Rootkernel (the paper reserves
/// 100 MiB; we round to a 2 MiB boundary).
pub const RESERVED_BYTES: u64 = 100 * 1024 * 1024;

/// Total modeled RAM (16 GiB, matching the evaluation machine).
pub const TOTAL_BYTES: u64 = 16 * 1024 * 1024 * 1024;

// Every address this memory can hand out must be one the simulated caches
// accept.
const _: () = assert!(TOTAL_BYTES <= 1 << sb_sim::PADDR_BITS);

type Frame = [u8; PAGE_SIZE as usize];

/// What every allocated frame reads as until its first write.
static ZERO: Frame = [0; PAGE_SIZE as usize];

/// `[start, end)` of each region an allocator hands frames out of: the
/// reserved (Rootkernel) one, whose frame 0 is never handed out so that a
/// zero page-table root can be used as a "none" sentinel, and the general
/// one.
const REGIONS: [(u64, u64); 2] = [(PAGE_SIZE, RESERVED_BYTES), (RESERVED_BYTES, TOTAL_BYTES)];

/// Frames per second-level chunk (2 MiB of address space).
const CHUNK_FRAMES: usize = 512;

/// 2 MiB of address space.
#[derive(Debug)]
struct Chunk {
    frames: [Option<Box<Frame>>; CHUNK_FRAMES],
    /// One bit per frame, set for good once a memoised walk has read the
    /// frame: from then on a write to it moves [`HostMem::tables_epoch`].
    watched: [Cell<u64>; CHUNK_FRAMES / 64],
}

/// Slots of the walk memo's table: 64 KiB, allocated on the first
/// install and below the allocator's `mmap` threshold.
const WALK_SLOTS: usize = 512;
const _: () = assert!(WALK_SLOTS * size_of::<MemoWalk>() == 64 << 10);

/// What the walk memo has done so far ([`HostMem::walk_memo_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkMemoStats {
    /// Walks replayed from the memo.
    pub answered: u64,
    /// Walks made eagerly and recorded.
    pub installed: u64,
    /// Writes to a frame a recorded walk had read; each voids every
    /// record.
    pub invalidated: u64,
}

/// Sparse host physical memory.
///
/// A two-level page directory indexed by page number: `chunks[page / 512]`
/// is a table of 512 frame slots, `[page % 512]` the frame. Both levels
/// grow on demand, so reaching a frame is index arithmetic and dependent
/// loads — no hash — while memory stays proportional to the frames
/// actually touched.
///
/// It also keeps the walk memo of [`crate::walk`] (DESIGN.md §19), because
/// it is what can tell when a recorded walk stops being true: every write
/// goes through one private accessor, and a write to a frame some
/// recorded walk has read moves `tables_epoch`, which voids every record.
#[derive(Debug, Default)]
pub struct HostMem {
    chunks: Vec<Option<Box<Chunk>>>,
    /// Frames currently materialized.
    resident: usize,
    /// Next free frame of each of [`REGIONS`]: everything below it, down
    /// to the region's start, is allocated.
    next: [u64; 2],
    /// The successful page walks [`crate::walk`] vouches for, direct-mapped
    /// by key; empty until the first one.
    walks: RefCell<Vec<MemoWalk>>,
    /// Counts the writes to watched frames. A recorded walk stands while
    /// this is what it was when the walk was made: nothing the walk read
    /// has been written since, so walking again would read the same.
    tables_epoch: u64,
    /// Walks replayed from `walks`, and walks recorded there.
    pub(crate) walks_answered: Cell<u64>,
    walks_installed: Cell<u64>,
}

impl HostMem {
    /// Creates empty memory with both allocators at their region starts.
    pub fn new() -> Self {
        HostMem {
            next: REGIONS.map(|(start, _)| start),
            ..Default::default()
        }
    }

    /// Allocates a zeroed frame in the Rootkernel-reserved region.
    ///
    /// # Panics
    ///
    /// Panics if the reserved region (100 MiB) is exhausted.
    pub fn alloc_reserved_frame(&mut self) -> Hpa {
        self.alloc(0, "Rootkernel reserved region exhausted")
    }

    /// Allocates a zeroed frame in the general (Subkernel-visible) region.
    ///
    /// Under the base EPT this region is identity-mapped, so the returned
    /// HPA doubles as the frame's GPA.
    ///
    /// # Panics
    ///
    /// Panics if the 16 GiB of modeled RAM are exhausted.
    pub fn alloc_frame(&mut self) -> Hpa {
        self.alloc(1, "physical memory exhausted")
    }

    /// The next frame of region `r`. It costs the host nothing until its
    /// first write; one a stray write already materialised is zeroed in
    /// place, through the accessor that notices a write to a watched frame.
    fn alloc(&mut self, r: usize, exhausted: &str) -> Hpa {
        let hpa = Hpa(self.next[r]);
        assert!(hpa.0 + PAGE_SIZE <= REGIONS[r].1, "{exhausted}");
        self.next[r] += PAGE_SIZE;
        if self.resident_frame(hpa).is_some() {
            self.frame_mut(hpa).fill(0);
        }
        hpa
    }

    /// True if `hpa` lies in the Rootkernel-reserved region.
    pub fn is_reserved(hpa: Hpa) -> bool {
        hpa.0 < RESERVED_BYTES
    }

    /// `(chunk index, slot within the chunk)` of the frame holding `hpa`.
    ///
    /// # Panics
    ///
    /// Panics if `hpa` lies at or beyond [`TOTAL_BYTES`]: with direct
    /// indexing an absurd address must fail here, not size a table.
    fn index(hpa: Hpa) -> (usize, usize) {
        assert!(
            hpa.0 < TOTAL_BYTES,
            "physical access at {hpa:?} is beyond the {TOTAL_BYTES:#x} bytes of modeled RAM"
        );
        let page = hpa.page_number() as usize;
        (page / CHUNK_FRAMES, page % CHUNK_FRAMES)
    }

    fn resident_frame(&self, hpa: Hpa) -> Option<&Frame> {
        let (chunk, slot) = Self::index(hpa);
        self.chunks.get(chunk)?.as_ref()?.frames[slot].as_deref()
    }

    /// The bytes of the frame holding `hpa`: the shared zero frame for an
    /// allocated frame nothing has written yet.
    fn frame(&self, hpa: Hpa) -> &Frame {
        let r = !Self::is_reserved(hpa) as usize;
        match self.resident_frame(hpa) {
            Some(frame) => frame,
            None if (REGIONS[r].0..self.next[r]).contains(&hpa.0) => &ZERO,
            None => panic!("access to unallocated frame {hpa:?}"),
        }
    }

    /// The frame holding `hpa`, materialized zeroed on first write: the
    /// one way to a frame's bytes for everything that writes, so the one
    /// place that has to notice a write to a watched frame.
    fn frame_mut(&mut self, hpa: Hpa) -> &mut Frame {
        let (chunk, slot) = Self::index(hpa);
        if chunk >= self.chunks.len() {
            self.chunks.resize_with(chunk + 1, || None);
        }
        let chunk = self.chunks[chunk].get_or_insert_with(|| {
            Box::new(Chunk {
                frames: [const { None }; CHUNK_FRAMES],
                watched: Default::default(),
            })
        });
        self.tables_epoch += chunk.watched[slot / 64].get() >> (slot % 64) & 1;
        chunk.frames[slot].get_or_insert_with(|| {
            self.resident += 1;
            Box::new([0; PAGE_SIZE as usize])
        })
    }

    /// The recorded walk of `key`, if there is one and it still stands.
    pub(crate) fn memoised_walk(&self, key: WalkKey) -> Option<Ref<'_, MemoWalk>> {
        let known = |w: &&MemoWalk| w.is_of(key) && w.epoch == self.tables_epoch;
        let walks = self.walks.borrow();
        let slot = walk_slot(key, walks.len());
        Ref::filter_map(walks, |walks| walks.get(slot).filter(known)).ok()
    }

    /// Records `walk`, just made of `key`, over whatever shares its slot,
    /// and watches every frame it read.
    pub(crate) fn memoise_walk(&self, key: WalkKey, mut walk: MemoWalk) {
        walk.epoch = self.tables_epoch;
        for entry in walk.entries() {
            let (chunk, slot) = Self::index(Hpa(entry));
            let chunk = self.chunks[chunk].as_ref().expect("the walk read it");
            let word = &chunk.watched[slot / 64];
            word.set(word.get() | 1 << (slot % 64));
        }
        let mut walks = self.walks.borrow_mut();
        if walks.is_empty() {
            walks.resize(WALK_SLOTS, MemoWalk::new((Gpa(0), 0, u64::MAX)));
        }
        let slot = walk_slot(key, walks.len());
        walks[slot] = walk;
        self.walks_installed.set(self.walks_installed.get() + 1);
    }

    /// What the walk memo has answered, recorded and had voided so far.
    pub fn walk_memo_stats(&self) -> WalkMemoStats {
        WalkMemoStats {
            answered: self.walks_answered.get(),
            installed: self.walks_installed.get(),
            invalidated: self.tables_epoch,
        }
    }

    /// Reads a naturally aligned little-endian `u64`.
    ///
    /// # Panics
    ///
    /// Panics on a misaligned address or an unallocated frame.
    pub fn read_u64(&self, hpa: Hpa) -> u64 {
        assert_eq!(hpa.0 % 8, 0, "misaligned u64 read at {hpa:?}");
        let off = hpa.page_offset() as usize;
        let frame = self.frame(hpa);
        u64::from_le_bytes(frame[off..off + 8].try_into().unwrap())
    }

    /// Writes a naturally aligned little-endian `u64`.
    ///
    /// # Panics
    ///
    /// Panics on a misaligned address.
    pub fn write_u64(&mut self, hpa: Hpa, value: u64) {
        assert_eq!(hpa.0 % 8, 0, "misaligned u64 write at {hpa:?}");
        let off = hpa.page_offset() as usize;
        self.frame_mut(hpa)[off..off + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Copies bytes out of physical memory. The range may span frames.
    pub fn read_slice(&self, hpa: Hpa, buf: &mut [u8]) {
        let mut addr = hpa;
        let mut done = 0;
        while done < buf.len() {
            let off = addr.page_offset() as usize;
            let n = (PAGE_SIZE as usize - off).min(buf.len() - done);
            let (dst, src) = (&mut buf[done..done + n], &self.frame(addr)[off..off + n]);
            // A word (a key, a list entry) is what the call path reads: at
            // a length the compiler can see it moves by value, not through
            // libc.
            match n {
                8 => dst[..8].copy_from_slice(&src[..8]),
                _ => dst.copy_from_slice(src),
            }
            addr = addr.add(n as u64);
            done += n;
        }
    }

    /// Copies bytes into physical memory. The range may span frames.
    pub fn write_slice(&mut self, hpa: Hpa, data: &[u8]) {
        let mut addr = hpa;
        let mut done = 0;
        while done < data.len() {
            let off = addr.page_offset() as usize;
            let n = (PAGE_SIZE as usize - off).min(data.len() - done);
            self.frame_mut(addr)[off..off + n].copy_from_slice(&data[done..done + n]);
            addr = addr.add(n as u64);
            done += n;
        }
    }

    /// Number of frames currently materialized: written at least once.
    pub fn resident_frames(&self) -> usize {
        self.resident
    }
}

/// Where in a table of `slots` (a power of two, or none) the walk of
/// `key` is kept: the pages of an aligned 2 MiB each in a slot of their
/// own, where depending on which 2 MiB of which address space it is.
fn walk_slot((cr3, root, vpn): WalkKey, slots: usize) -> usize {
    let region = (cr3.0 ^ root.rotate_left(24) ^ vpn >> 9).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (vpn ^ region >> 32) as usize & slots.wrapping_sub(1)
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use proptest::prelude::*;

    use super::*;

    impl HostMem {
        /// [`HostMem::new`] with a walk memo of `slots` (a power of two)
        /// in place of the 512 allocated on the first install.
        pub(crate) fn with_walk_slots(slots: usize) -> Self {
            assert!(slots.is_power_of_two());
            let mem = HostMem::new();
            mem.walks
                .borrow_mut()
                .resize(slots, MemoWalk::new((Gpa(0), 0, u64::MAX)));
            mem
        }
    }

    /// The `HashMap` of frames the page directory replaced, as the
    /// reference: page number → contents of every frame written so far,
    /// and the allocated frames, which read as zeros until written.
    #[derive(Default)]
    struct RefMem {
        frames: HashMap<u64, Vec<u8>>,
        allocated: HashSet<u64>,
    }

    impl RefMem {
        fn alloc(&mut self, hpa: Hpa) {
            self.allocated.insert(hpa.page_number());
            if let Some(frame) = self.frames.get_mut(&hpa.page_number()) {
                frame.fill(0);
            }
        }

        fn byte(&mut self, at: u64) -> &mut u8 {
            let frame = self
                .frames
                .entry(at / PAGE_SIZE)
                .or_insert_with(|| vec![0; PAGE_SIZE as usize]);
            &mut frame[(at % PAGE_SIZE) as usize]
        }

        fn read(&self, at: u64) -> u8 {
            self.frames
                .get(&(at / PAGE_SIZE))
                .map_or(0, |frame| frame[(at % PAGE_SIZE) as usize])
        }

        fn all_present(&self, at: u64, len: u64) -> bool {
            (at / PAGE_SIZE..=(at + len - 1) / PAGE_SIZE)
                .all(|p| self.frames.contains_key(&p) || self.allocated.contains(&p))
        }
    }

    /// Where the interesting edges are: the bottom of the reserved
    /// region, the reserved/general border (also a chunk border), the
    /// next chunk border inside the general region, and the top of RAM.
    const EDGES: [u64; 4] = [
        PAGE_SIZE,
        RESERVED_BYTES,
        RESERVED_BYTES + CHUNK_FRAMES as u64 * PAGE_SIZE,
        TOTAL_BYTES - 3 * PAGE_SIZE,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Interleaved allocations, writes and reads across frame and
        /// chunk borders read back exactly what a `HashMap` of frames
        /// holds, and `resident_frames` counts exactly its entries: the
        /// frames written, not the frames allocated.
        #[test]
        fn page_directory_matches_a_hashmap_of_frames(
            ops in proptest::collection::vec(
                (0u8..8, 0usize..EDGES.len(), 0u64..3 * PAGE_SIZE, 1u64..2 * PAGE_SIZE + 100, any::<u8>()),
                1..60,
            ),
        ) {
            let mut mem = HostMem::new();
            let mut model = RefMem::default();
            for (kind, edge, back, len, fill) in ops {
                // A span starting up to three pages below an edge and
                // running up to two pages: straddles it or not.
                let at = (EDGES[edge] + PAGE_SIZE).saturating_sub(back).max(PAGE_SIZE);
                let len = len.min(TOTAL_BYTES - at);
                match kind {
                    0 => model.alloc(mem.alloc_frame()),
                    1 => model.alloc(mem.alloc_reserved_frame()),
                    2..=4 => {
                        let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                        mem.write_slice(Hpa(at), &data);
                        for (i, &b) in data.iter().enumerate() {
                            *model.byte(at + i as u64) = b;
                        }
                    }
                    // Reading an unallocated, unwritten frame panics, as
                    // it always has; only fully present spans are read
                    // back.
                    _ if model.all_present(at, len) => {
                        let mut got = vec![0u8; len as usize];
                        mem.read_slice(Hpa(at), &mut got);
                        let want: Vec<u8> = (0..len).map(|i| model.read(at + i)).collect();
                        prop_assert_eq!(got, want);
                    }
                    _ => {}
                }
                prop_assert_eq!(mem.resident_frames(), model.frames.len());
            }
        }
    }

    #[test]
    fn allocation_zeroes_a_frame_a_stray_write_materialised() {
        let mut m = HostMem::new();
        m.write_u64(Hpa(RESERVED_BYTES + 8), 0xdead);
        assert_eq!(m.resident_frames(), 1);
        let f = m.alloc_frame();
        assert_eq!(f.0, RESERVED_BYTES);
        assert_eq!(m.read_u64(f.add(8)), 0);
        assert_eq!(m.resident_frames(), 1);
    }

    #[test]
    fn an_allocated_unwritten_frame_reads_zeros_and_is_not_resident() {
        let mut m = HostMem::new();
        let (r, g) = (m.alloc_reserved_frame(), m.alloc_frame());
        let mut buf = [1u8; PAGE_SIZE as usize];
        m.read_slice(g, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!((m.read_u64(r), m.read_u64(g.add(PAGE_SIZE - 8))), (0, 0));
        assert_eq!(m.resident_frames(), 0);
    }

    #[test]
    fn a_first_write_materialises_exactly_one_frame() {
        let mut m = HostMem::new();
        let frames: Vec<Hpa> = (0..4).map(|_| m.alloc_frame()).collect();
        m.write_slice(frames[1].add(100), &[7; 64]);
        assert_eq!(m.resident_frames(), 1);
        m.write_u64(frames[1].add(8), 9);
        assert_eq!(m.resident_frames(), 1, "a second write reuses the frame");
        let mut line = [0u8; 64];
        m.read_slice(frames[1].add(100), &mut line);
        assert_eq!(line, [7; 64]);
        assert_eq!(m.read_u64(frames[2]), 0);
        assert_eq!(m.resident_frames(), 1, "a read materialises nothing");
    }

    #[test]
    #[should_panic(expected = "unallocated frame")]
    fn reading_past_the_last_allocated_frame_still_panics() {
        let mut m = HostMem::new();
        let f = m.alloc_frame();
        m.read_u64(f.add(PAGE_SIZE));
    }

    #[test]
    #[should_panic(expected = "Hpa(0x400000000) is beyond")]
    fn write_at_the_end_of_ram_panics_naming_the_address() {
        HostMem::new().write_u64(Hpa(TOTAL_BYTES), 1);
    }

    #[test]
    #[should_panic(expected = "is beyond")]
    fn absurd_address_panics_instead_of_sizing_a_table() {
        HostMem::new().write_slice(Hpa(u64::MAX - 4095), &[1]);
    }

    #[test]
    #[should_panic(expected = "is beyond")]
    fn read_running_off_the_end_of_ram_panics() {
        let mut m = HostMem::new();
        m.write_slice(Hpa(TOTAL_BYTES - 8), &[7; 8]);
        let mut buf = [0u8; 16];
        m.read_slice(Hpa(TOTAL_BYTES - 8), &mut buf);
    }

    #[test]
    #[should_panic(expected = "unallocated frame")]
    fn read_of_an_untouched_frame_still_panics() {
        HostMem::new().read_u64(Hpa(RESERVED_BYTES));
    }

    #[test]
    fn allocators_stay_in_their_regions() {
        let mut m = HostMem::new();
        let r = m.alloc_reserved_frame();
        let g = m.alloc_frame();
        assert!(HostMem::is_reserved(r));
        assert!(!HostMem::is_reserved(g));
        assert_eq!(g.0, RESERVED_BYTES);
    }

    #[test]
    fn u64_roundtrip() {
        let mut m = HostMem::new();
        let f = m.alloc_frame();
        m.write_u64(f.add(16), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(f.add(16)), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(f), 0);
    }

    #[test]
    fn slice_roundtrip_across_frames() {
        let mut m = HostMem::new();
        let a = m.alloc_frame();
        let _b = m.alloc_frame(); // Contiguous with `a`.
        let data: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        m.write_slice(a.add(100), &data);
        let mut out = vec![0u8; data.len()];
        m.read_slice(a.add(100), &mut out);
        assert_eq!(out, data);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_u64_panics() {
        let mut m = HostMem::new();
        let f = m.alloc_frame();
        m.write_u64(f.add(3), 1);
    }

    #[test]
    fn frames_start_zeroed() {
        let mut m = HostMem::new();
        let f = m.alloc_frame();
        let mut buf = [1u8; 64];
        m.read_slice(f, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }
}
