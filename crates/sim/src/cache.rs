//! Set-associative cache model.
//!
//! The indirect cost of IPC (§2.1.2 of the paper) is the eviction of
//! user-mode state from the L1 instruction/data caches, the unified L2/L3,
//! and the TLBs while the kernel runs. To let that effect emerge rather than
//! hard-coding it, every simulated memory access goes through a real cache
//! hierarchy: physically indexed, set-associative, LRU-replaced caches whose
//! geometries default to the Skylake i7-6700K the paper used.

use crate::{lru::SetLru, Cycles};

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
    /// The resident line addresses, by set.
    lru: SetLru<u32, ()>,
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
            lru: SetLru::new(sets, config.ways),
            accesses: 0,
            misses: 0,
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The line address of `first`, the first of a run of `lines`.
    ///
    /// # Panics
    ///
    /// Panics if the last line of the run does not fit [`PADDR_BITS`] — a
    /// wider address would lose its top bits in the 32-bit tag and alias
    /// another line.
    #[inline(always)]
    fn first_line(&self, first: u64, lines: u64) -> u64 {
        let start = first >> self.line_shift;
        let limit = 1u64 << (PADDR_BITS - self.line_shift);
        assert!(
            start < limit && lines <= limit - start,
            "physical address {:#x} is wider than {PADDR_BITS} bits",
            (start as u128 + lines as u128 - 1) << self.line_shift
        );
        start
    }

    /// Looks up `lines` consecutive lines, the first being the one that
    /// holds `first`, filling each that misses, and returns how many
    /// missed. `missed` is handed the address of each missing line at
    /// once and in line order, so a hierarchy can descend before the next
    /// line is looked at. On a miss the LRU line of the set is evicted
    /// (the model is not inclusive and does not track dirtiness;
    /// write-back traffic is folded into miss latency). Zero lines is a
    /// no-op.
    ///
    /// # Panics
    ///
    /// Panics, before anything is looked up or counted, if the last line
    /// lies beyond [`PADDR_BITS`].
    #[inline(always)]
    pub fn access_run(&mut self, first: u64, lines: u64, mut missed: impl FnMut(u64)) -> u64 {
        if lines == 0 {
            return 0;
        }
        let start = self.first_line(first, lines);
        self.accesses += lines;
        let mut misses = 0;
        for line in start..start + lines {
            if !self
                .lru
                .put(line as usize & self.set_mask, line as u32, (), false)
            {
                misses += 1;
                missed(line << self.line_shift);
            }
        }
        self.misses += misses;
        misses
    }

    /// Looks up the line holding `paddr`, filling it on a miss: the
    /// one-line case of [`Cache::access_run`]. Returns `true` on a hit.
    pub fn access(&mut self, paddr: u64) -> bool {
        self.access_run(paddr, 1, |_| {}) == 0
    }

    /// Looks up without filling (used to probe state in tests).
    pub fn probe(&self, paddr: u64) -> bool {
        let line = self.first_line(paddr, 1);
        self.lru
            .contains(line as usize & self.set_mask, line as u32)
    }

    /// Invalidates the whole cache (e.g. `WBINVD`); statistics survive.
    pub fn flush(&mut self) {
        self.lru.clear();
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.lru.resident()
    }

    /// Resets the hit/miss statistics without touching cache state.
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }

    /// The resident lines of `set`, least recently used first.
    #[cfg(test)]
    pub(crate) fn lru_order(&self, set: usize) -> Vec<u64> {
        let order = self.lru.lru_order(set);
        order.iter().map(|&(line, ())| line as u64).collect()
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
    /// mapped, an L3-like 16 ways, and two way counts (3, 12) no
    /// modelled level has, so nothing can lean on a power of two.
    const GEOMETRIES: [CacheConfig; 6] = [
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
        CacheConfig {
            size_bytes: 768,
            ways: 3,
            line_bytes: 64,
        },
        CacheConfig {
            size_bytes: 1536,
            ways: 12,
            line_bytes: 64,
        },
    ];

    /// Every set of `flat` holds what `reference` holds, in LRU order.
    fn assert_same_sets(flat: &Cache, reference: &RefCache) {
        for (set, want) in reference.sets.iter().enumerate() {
            assert_eq!(&flat.lru_order(set), want, "set {set}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any stream of accesses, runs of lines and flushes leaves the
        /// flat cache and the reference with the same hit/miss sequence,
        /// the same counters, and the same lines in the same LRU order in
        /// every set.
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
                let paddr = a as u64 % span;
                match kind {
                    0 => {
                        flat.flush();
                        reference.flush();
                    }
                    // A run of 0..=40 lines (every geometry here has at
                    // most 16 sets, so the set index wraps): the same
                    // misses, reported in line order.
                    1..=8 => {
                        let lines = (a as u64 >> 20) % 41;
                        let mut missed = Vec::new();
                        let misses = flat.access_run(paddr, lines, |line| missed.push(line));
                        let want: Vec<u64> = (0..lines)
                            .map(|l| (paddr & !63) + l * 64)
                            .filter(|&line| !reference.access(line))
                            .collect();
                        prop_assert_eq!(&missed, &want);
                        prop_assert_eq!(misses, want.len() as u64);
                    }
                    _ => prop_assert_eq!(flat.access(paddr), reference.access(paddr)),
                }
                prop_assert_eq!(flat.accesses, reference.accesses);
                prop_assert_eq!(flat.misses, reference.misses);
                assert_same_sets(&flat, &reference);
            }
        }
    }

    /// 200 000 accesses confined to one set, with flushes in between:
    /// whatever a representation counts per set (a 16-bit recency clock
    /// wraps after 65 535 touches) wraps here, three times, and the
    /// victims must stay the reference's. The 256 × 500-op proptest
    /// above never gets that far.
    #[test]
    fn one_set_hammered_past_any_wrap_matches_the_reference() {
        for config in [GEOMETRIES[0], GEOMETRIES[4], GEOMETRIES[5]] {
            let mut flat = Cache::new(config);
            let mut reference = RefCache::new(config);
            let stride = (config.sets() * config.line_bytes) as u64;
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..200_000u32 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if i % 30_011 == 30_010 {
                    flat.flush();
                    reference.flush();
                }
                // Twice the ways in distinct lines of set 0, skewed so
                // that hits, reorders and evictions all stay frequent.
                let pick = (x >> 33) % (config.ways as u64 * 2);
                let paddr = pick.min((x >> 50) % (config.ways as u64 * 2)) * stride;
                assert_eq!(flat.access(paddr), reference.access(paddr), "access {i}");
                if i % 251 == 0 || i > 199_000 {
                    assert_same_sets(&flat, &reference);
                }
            }
            assert_eq!(
                (flat.accesses, flat.misses),
                (reference.accesses, reference.misses)
            );
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

    /// A run whose last line lies beyond the address space, or whose end
    /// overflows `u64`, is refused before a slot or counter moves and
    /// before anything descends.
    #[test]
    fn a_bad_run_is_refused_whole() {
        let mut c = tiny();
        c.access_run(0xfc0, 3, |_| {});
        let top = 1u64 << PADDR_BITS;
        for (first, lines) in [(top - 64, 2), (top - 9, 2), (top, 1), (u64::MAX, u64::MAX)] {
            let mut bad = c.clone();
            let mut descended = false;
            let run = std::panic::AssertUnwindSafe(|| {
                bad.access_run(first, lines, |_| descended = true);
            });
            assert!(
                std::panic::catch_unwind(run).is_err(),
                "{first:#x} + {lines}"
            );
            assert!(!descended);
            assert_eq!((bad.accesses, bad.misses), (c.accesses, c.misses));
            for set in 0..c.config().sets() {
                assert_eq!(bad.lru_order(set), c.lru_order(set));
            }
        }
        assert_eq!(
            c.access_run(u64::MAX, 0, |_| {}),
            0,
            "an empty run is a no-op"
        );
        assert_eq!(c.accesses, 3);
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
