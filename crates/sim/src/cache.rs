//! Set-associative cache model.
//!
//! The indirect cost of IPC (§2.1.2 of the paper) is the eviction of
//! user-mode state from the L1 instruction/data caches, the unified L2/L3,
//! and the TLBs while the kernel runs. To let that effect emerge rather than
//! hard-coding it, every simulated memory access goes through a real cache
//! hierarchy: physically indexed, set-associative, LRU-replaced caches whose
//! geometries default to the Skylake i7-6700K the paper used.

use crate::Cycles;

/// What an access is, for routing and PMU accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch: goes through L1i.
    InstructionFetch,
    /// Data read: goes through L1d.
    DataRead,
    /// Data write: goes through L1d (write-allocate).
    DataWrite,
}

impl AccessKind {
    /// Whether this access goes through the instruction port.
    pub fn is_instruction(self) -> bool {
        matches!(self, AccessKind::InstructionFetch)
    }
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (lines per set).
    pub ways: usize,
    /// Line size in bytes (64 on every x86 part we model).
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Skylake 32 KiB 8-way L1 instruction cache.
    pub const fn skylake_l1i() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
        }
    }

    /// Skylake 32 KiB 8-way L1 data cache.
    pub const fn skylake_l1d() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
        }
    }

    /// Skylake 256 KiB 4-way private L2.
    pub const fn skylake_l2() -> Self {
        CacheConfig {
            size_bytes: 256 * 1024,
            ways: 4,
            line_bytes: 64,
        }
    }

    /// Skylake 8 MiB 16-way shared L3 (i7-6700K).
    pub const fn skylake_l3() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024 * 1024,
            ways: 16,
            line_bytes: 64,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Width of a simulated physical address. The modelled machine has
/// 16 GiB of RAM (34 bits); the two spare bits are the room real parts
/// leave above RAM. [`Cache::access`] refuses anything wider, which is
/// what lets a line address be stored in 32 bits without ever aliasing.
pub const PADDR_BITS: u32 = 36;

/// One set-associative, LRU-replaced cache level.
///
/// Tags are full line addresses, so the model never aliases distinct lines.
/// The cache is a pure hit/miss filter: latency charging is done by the
/// hierarchy walker in [`crate::machine::Machine`].
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `sets - 1`.
    set_mask: usize,
    /// One flat `sets × ways` array. Set `s` owns
    /// `slots[s * ways..][..ways]`; its first `fill[s]` slots hold line
    /// addresses, least recently used first, most recently used last.
    /// Untouched sets are never written, so an 8 MiB L3 costs host memory
    /// only where the simulated program has been.
    slots: Vec<u32>,
    /// Lines resident per set.
    fill: Vec<u8>,
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that missed.
    pub misses: u64,
}

impl Cache {
    /// Creates an empty (cold) cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate: zero ways, a line size or set
    /// count that is not a power of two, a capacity that is not a whole
    /// number of sets, more ways than the per-set fill counter holds, or
    /// lines so small that a [`PADDR_BITS`]-bit address has more line bits
    /// than a stored tag.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.ways > 0, "a cache needs at least one way");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line_bytes must be a power of two, got {}",
            config.line_bytes
        );
        assert!(
            config.ways <= u8::MAX as usize,
            "{} ways exceed the per-set fill counter (max {})",
            config.ways,
            u8::MAX
        );
        assert_eq!(config.size_bytes % (config.ways * config.line_bytes), 0);
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let line_shift = config.line_bytes.trailing_zeros();
        let line_bits = PADDR_BITS.saturating_sub(line_shift);
        assert!(
            line_bits <= u32::BITS,
            "{}-byte lines leave {line_bits} line-address bits, wider than the {}-bit tags",
            config.line_bytes,
            u32::BITS
        );
        Cache {
            config,
            line_shift,
            set_mask: sets - 1,
            slots: vec![0; sets * config.ways],
            fill: vec![0; sets],
            accesses: 0,
            misses: 0,
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// `(set index, line address)` of `paddr`.
    ///
    /// # Panics
    ///
    /// Panics if `paddr` does not fit [`PADDR_BITS`] — a wider address
    /// would lose its top bits in the 32-bit tag and alias another line.
    fn locate(&self, paddr: u64) -> (usize, u32) {
        assert!(
            paddr >> PADDR_BITS == 0,
            "physical address {paddr:#x} is wider than {PADDR_BITS} bits"
        );
        let line = (paddr >> self.line_shift) as u32;
        (line as usize & self.set_mask, line)
    }

    /// The resident lines of `set`, least recently used first.
    fn lines(&self, set: usize) -> &[u32] {
        let base = set * self.config.ways;
        &self.slots[base..base + self.fill[set] as usize]
    }

    /// Looks up the line holding `paddr`, filling it on a miss.
    ///
    /// Returns `true` on a hit. On a miss the LRU line of the set is
    /// evicted (the model is not inclusive and does not track dirtiness;
    /// write-back traffic is folded into miss latency).
    pub fn access(&mut self, paddr: u64) -> bool {
        self.accesses += 1;
        let (set, line) = self.locate(paddr);
        let ways = self.config.ways;
        let n = self.fill[set] as usize;
        let slots = &mut self.slots[set * ways..][..ways];
        // Most accesses re-touch the line touched last: already in the
        // MRU slot, nothing to reorder.
        if n > 0 && slots[n - 1] == line {
            return true;
        }
        if let Some(pos) = slots[..n].iter().position(|&l| l == line) {
            slots[pos..n].rotate_left(1);
            true
        } else {
            self.misses += 1;
            if n == ways {
                slots.rotate_left(1);
                slots[n - 1] = line;
            } else {
                slots[n] = line;
                self.fill[set] += 1;
            }
            false
        }
    }

    /// Looks up without filling (used to probe state in tests).
    pub fn probe(&self, paddr: u64) -> bool {
        let (set, line) = self.locate(paddr);
        self.lines(set).contains(&line)
    }

    /// Invalidates the whole cache (e.g. `WBINVD`); statistics survive.
    pub fn flush(&mut self) {
        self.fill.fill(0);
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.fill.iter().map(|&n| n as usize).sum()
    }

    /// Resets the hit/miss statistics without touching cache state.
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }
}

/// Latencies of the Skylake hierarchy, expressed as *additional* cycles per
/// level over the previous one. Kept alongside the geometry so benches can
/// describe the hierarchy in one place.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyLatency {
    /// L1 hit.
    pub l1: Cycles,
    /// Extra on L1 miss, L2 hit.
    pub l2: Cycles,
    /// Extra on L2 miss, L3 hit.
    pub l3: Cycles,
    /// Extra on L3 miss (DRAM).
    pub dram: Cycles,
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The `Vec<Vec<u64>>` cache the flat one replaced, kept verbatim as
    /// the reference it must match access for access.
    struct RefCache {
        config: CacheConfig,
        /// `sets[set]`: up to `ways` line addresses, most recently used
        /// last.
        sets: Vec<Vec<u64>>,
        accesses: u64,
        misses: u64,
    }

    impl RefCache {
        fn new(config: CacheConfig) -> Self {
            RefCache {
                config,
                sets: vec![Vec::new(); config.sets()],
                accesses: 0,
                misses: 0,
            }
        }

        fn access(&mut self, paddr: u64) -> bool {
            self.accesses += 1;
            let line = paddr / self.config.line_bytes as u64;
            let set = (line as usize) & (self.sets.len() - 1);
            let ways = self.config.ways;
            let set = &mut self.sets[set];
            if let Some(pos) = set.iter().position(|&l| l == line) {
                let l = set.remove(pos);
                set.push(l);
                true
            } else {
                self.misses += 1;
                if set.len() == ways {
                    set.remove(0);
                }
                set.push(line);
                false
            }
        }

        fn flush(&mut self) {
            for set in &mut self.sets {
                set.clear();
            }
        }
    }

    /// The everyday shape plus the edges: one set of one way, direct
    /// mapped, and an L3-like 16 ways.
    const GEOMETRIES: [CacheConfig; 4] = [
        CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        },
        CacheConfig {
            size_bytes: 64,
            ways: 1,
            line_bytes: 64,
        },
        CacheConfig {
            size_bytes: 1024,
            ways: 1,
            line_bytes: 64,
        },
        CacheConfig {
            size_bytes: 2048,
            ways: 16,
            line_bytes: 64,
        },
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any stream of accesses and flushes leaves the flat cache and
        /// the reference with the same hit/miss sequence, the same
        /// counters, and the same lines in the same LRU order in every
        /// set.
        #[test]
        fn flat_cache_matches_the_reference(
            geometry in 0usize..GEOMETRIES.len(),
            ops in proptest::collection::vec((0u8..32, any::<u32>()), 1..500),
        ) {
            let config = GEOMETRIES[geometry];
            let mut flat = Cache::new(config);
            let mut reference = RefCache::new(config);
            // Three times the capacity in distinct lines: hits, reorders
            // and evictions all happen.
            let span = (config.size_bytes * 3) as u64;
            for (kind, a) in ops {
                if kind == 0 {
                    flat.flush();
                    reference.flush();
                } else {
                    let paddr = a as u64 % span;
                    prop_assert_eq!(flat.access(paddr), reference.access(paddr));
                }
                prop_assert_eq!(flat.accesses, reference.accesses);
                prop_assert_eq!(flat.misses, reference.misses);
                for (set, want) in reference.sets.iter().enumerate() {
                    let got: Vec<u64> = flat.lines(set).iter().map(|&l| l as u64).collect();
                    prop_assert_eq!(&got, want, "set {}", set);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "line_bytes must be a power of two")]
    fn non_power_of_two_line_is_rejected() {
        Cache::new(CacheConfig {
            size_bytes: 96 * 4,
            ways: 1,
            line_bytes: 96,
        });
    }

    #[test]
    #[should_panic(expected = "exceed the per-set fill counter")]
    fn more_ways_than_the_fill_counter_holds_is_rejected() {
        Cache::new(CacheConfig {
            size_bytes: 256 * 64,
            ways: 256,
            line_bytes: 64,
        });
    }

    #[test]
    #[should_panic(expected = "wider than the 32-bit tags")]
    fn lines_too_small_for_the_tag_width_are_rejected() {
        // 8-byte lines: a 36-bit address has 33 line bits.
        Cache::new(CacheConfig {
            size_bytes: 8,
            ways: 1,
            line_bytes: 8,
        });
    }

    #[test]
    #[should_panic(expected = "wider than 36 bits")]
    fn out_of_range_address_is_refused_not_aliased() {
        let mut c = tiny();
        c.access(0x1000);
        // Same low 32 line bits as 0x1000: a truncating tag would hit.
        c.access(0x1000 | 1 << 38);
    }

    #[test]
    fn top_of_the_address_space_is_its_own_line() {
        let mut c = tiny();
        assert!(!c.access((1 << PADDR_BITS) - 1));
        assert!(c.access((1 << PADDR_BITS) - 64));
        assert!(!c.probe(0xfff_ffc0), "no alias 2^28 lines below");
    }

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn skylake_geometries() {
        assert_eq!(CacheConfig::skylake_l1i().sets(), 64);
        assert_eq!(CacheConfig::skylake_l2().sets(), 1024);
        assert_eq!(CacheConfig::skylake_l3().sets(), 8192);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1038)); // Same 64-byte line.
        assert_eq!(c.misses, 1);
        assert_eq!(c.accesses, 3);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Three lines mapping to set 0 in a 2-way set: stride = sets*line =
        // 256 bytes.
        c.access(0x0000);
        c.access(0x0100);
        c.access(0x0200); // Evicts 0x0000.
        assert!(!c.probe(0x0000));
        assert!(c.probe(0x0100));
        assert!(c.probe(0x0200));
    }

    #[test]
    fn touching_lru_line_saves_it() {
        let mut c = tiny();
        c.access(0x0000);
        c.access(0x0100);
        c.access(0x0000); // Refresh.
        c.access(0x0200); // Evicts 0x0100, not 0x0000.
        assert!(c.probe(0x0000));
        assert!(!c.probe(0x0100));
    }

    #[test]
    fn flush_empties_but_keeps_stats() {
        let mut c = tiny();
        c.access(0x0000);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.accesses, 1);
        assert!(!c.probe(0x0000));
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny();
        for i in 0..4u64 {
            c.access(i * 64);
        }
        assert_eq!(c.resident_lines(), 4);
        assert_eq!(c.misses, 4);
        for i in 0..4u64 {
            assert!(c.probe(i * 64));
        }
    }
}
