//! Set-associative cache model.
//!
//! The indirect cost of IPC (§2.1.2 of the paper) is the eviction of
//! user-mode state from the L1 instruction/data caches, the unified L2/L3,
//! and the TLBs while the kernel runs. To let that effect emerge rather than
//! hard-coding it, every simulated memory access goes through a real cache
//! hierarchy: physically indexed, set-associative, LRU-replaced caches whose
//! geometries default to the Skylake i7-6700K the paper used.

use crate::lru::SetLru;

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

/// Entries of the run memo an instruction cache carries.
pub(crate) const MEMO_ENTRIES: usize = 64;

/// A memo entry may sit in any of this many neighbouring slots (all of
/// them, in a smaller memo).
const MEMO_WAYS: usize = 4;

/// One run a [`Cache`] with a run memo vouches for.
///
/// While `epoch` is the cache's — the eager lookup the entry was made
/// for filled nothing, and nothing was filled or flushed since — every
/// line of the run is resident, so a repeat of the run is known to miss
/// nowhere without looking, and all it owes the sets is recency, which
/// nothing can observe before the next fill.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct MemoEntry {
    /// `first line << 32 | lines`; no run is zero.
    run: u64,
    /// The cache's epoch just before the run was last looked up eagerly.
    epoch: u64,
    /// The cache's tick at the last repeat of the run. Past the cache's
    /// `settled`, that repeat is not yet in the sets' LRU order.
    tick: u64,
}

/// One set-associative, LRU-replaced cache level.
///
/// Tags are full line addresses, so the model never aliases distinct lines.
/// The cache is a pure hit/miss filter: latency charging is done by the
/// hierarchy walker in [`crate::machine::Machine`].
///
/// Equality is of the representation — every slot, stamp and counter —
/// so two caches that were put through the same lookups are equal, and
/// two that hold the same lines in the same order after different
/// histories need not be: what a twin test wants, not a notion of "same
/// contents".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `sets - 1`.
    set_mask: usize,
    /// The resident line addresses, by set.
    lru: SetLru<u32, ()>,
    /// The run memo: a power of two of entries, none on a cache without
    /// one.
    memo: Vec<MemoEntry>,
    /// Bumped by everything that can remove a line: a fill, a flush.
    epoch: u64,
    /// Counts the runs the memo answered.
    tick: u64,
    /// `tick` when the sets' LRU order was last brought up to date.
    settled: u64,
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
            memo: Vec::new(),
            epoch: 0,
            tick: 0,
            settled: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// [`Cache::new`] with a run memo of `entries` in front of the sets:
    /// a run that repeats while nothing is filled or flushed costs one
    /// probe of the memo, and is brought into the sets' LRU order before
    /// anything can tell. The cache behaves like one without a memo, to
    /// the last victim.
    ///
    /// # Panics
    ///
    /// Panics as [`Cache::new`] does, and if `entries` is not a power of
    /// two or more than [`MEMO_ENTRIES`].
    pub(crate) fn with_run_memo(config: CacheConfig, entries: usize) -> Self {
        assert!(entries.is_power_of_two() && entries <= MEMO_ENTRIES);
        Cache {
            memo: vec![MemoEntry::default(); entries],
            ..Cache::new(config)
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
        // The memo stands in front of the one eager lookup; a cache
        // without one pays this test and nothing else.
        if !self.memo.is_empty() && self.repeats(start, lines) {
            return 0;
        }
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
        if misses != 0 {
            self.misses += misses;
            self.epoch += 1;
        }
        misses
    }

    /// Whether the memo knows every line of the run to be resident. If
    /// so, the repeat is noted and its recency owed. If not, what is owed
    /// is settled, for an eager lookup follows, and the run is vouched
    /// for ahead of that lookup — over a dead entry if there is one, else
    /// over the run that has not repeated for longest: if a line turns
    /// out absent, its fill kills the new entry along with all others.
    ///
    /// Out of line, and cold as seen from a cache without a memo: nothing
    /// of it may sit in, or spill registers around, that cache's lookup.
    #[cold]
    #[inline(never)]
    fn repeats(&mut self, start: u64, lines: u64) -> bool {
        // `first_line` keeps both halves within 32 bits (a run of 2^32
        // lines starts at line 0 and reads as line 1, no lines — a run
        // that does not exist).
        let (run, epoch, next) = (start << 32 | lines, self.epoch, self.tick + 1);
        let known = |e: &&mut MemoEntry| e.run == run && e.epoch == epoch;
        if let Some(entry) = self.memo_slots(run).iter_mut().find(known) {
            entry.tick = next;
            self.tick = next;
            return true;
        }
        self.settle();
        let tick = self.tick;
        let value = |e: &&mut MemoEntry| (e.epoch == epoch, e.tick);
        let entry = self.memo_slots(run).iter_mut().min_by_key(value);
        *entry.expect("a memo has a slot") = MemoEntry { run, epoch, tick };
        false
    }

    /// The memo slots `run` may sit in.
    fn memo_slots(&mut self, run: u64) -> &mut [MemoEntry] {
        let ways = MEMO_WAYS.min(self.memo.len());
        let hash = run.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (u64::BITS - MEMO_ENTRIES.ilog2());
        let base = hash as usize & (self.memo.len() - ways);
        &mut self.memo[base..base + ways]
    }

    /// Brings the sets' LRU order up to date with the runs the memo has
    /// answered since the last time.
    ///
    /// Between two settles no line is filled or evicted, so each set's
    /// order depends only on when each line was *last* touched; the last
    /// touch of a line is by the last-repeated run that holds it; so
    /// replaying each such run once, in the order of their last repeats,
    /// leaves every set as the eager lookups would have. (The 16-bit
    /// stamps differ; their order, which is all an eviction reads, does
    /// not.)
    #[cold]
    #[inline(never)]
    fn settle(&mut self) {
        if self.tick == self.settled {
            return;
        }
        let owed = |e: &&MemoEntry| e.epoch == self.epoch && e.tick > self.settled;
        let mut owed: Vec<MemoEntry> = self.memo.iter().filter(owed).copied().collect();
        owed.sort_unstable_by_key(|e| e.tick);
        for MemoEntry { run, .. } in owed {
            for line in run >> 32..(run >> 32) + (run & u32::MAX as u64) {
                let resident = self.lru.get(line as usize & self.set_mask, line as u32);
                assert!(resident.is_some(), "line {line:#x} left under the memo");
            }
        }
        self.settled = self.tick;
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
        // Recency owed to lines that are gone is owed to no one.
        self.epoch += 1;
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.lru.resident()
    }

    /// The resident lines of `set`, least recently used first.
    #[cfg(test)]
    pub(crate) fn lru_order(&self, set: usize) -> Vec<u64> {
        if self.tick != self.settled {
            let mut now = self.clone();
            now.settle();
            return now.lru_order(set);
        }
        let order = self.lru.lru_order(set);
        order.iter().map(|&(line, ())| line as u64).collect()
    }
}

#[cfg(test)]
mod tests {
    use std::ops::Range;

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

    /// Makes the same access to a cache with a run memo and to one
    /// without, and holds every observable of the first to the second's:
    /// the misses, the addresses handed down and their order, the
    /// counters, and whether each of `probes` is resident.
    fn same_access(
        memo: &mut Cache,
        plain: &mut Cache,
        (first, lines): (u64, u64),
        probes: &[u64],
    ) -> Result<(), TestCaseError> {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let misses = memo.access_run(first, lines, |line| got.push(line));
        prop_assert_eq!(
            misses,
            plain.access_run(first, lines, |line| want.push(line))
        );
        prop_assert_eq!(got, want);
        prop_assert_eq!((memo.accesses, memo.misses), (plain.accesses, plain.misses));
        prop_assert_eq!(memo.resident_lines(), plain.resident_lines());
        for &paddr in probes {
            prop_assert_eq!(memo.probe(paddr), plain.probe(paddr), "probe {:#x}", paddr);
        }
        Ok(())
    }

    /// Every set of the two caches holds the same lines in the same LRU
    /// order. Looking does not settle `memo`: what it owes stays owed.
    fn assert_same_order(memo: &Cache, plain: &Cache) {
        for set in 0..plain.config().sets() {
            assert_eq!(memo.lru_order(set), plain.lru_order(set), "set {set}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A stream drawn from a small alphabet of runs, so that runs
        /// repeat — overlapping ones, ones that share sets, single
        /// lines, ones longer than the cache has sets or lines — mixed
        /// with stray lines that evict what a memo entry vouches for and
        /// with flushes that find recency still owed, through a memo of
        /// one entry, of fewer entries than the alphabet has runs (so
        /// that an entry that is owed recency is overwritten), or of the
        /// size an L1i carries: nothing a caller can see tells the cache
        /// with the memo from the one without.
        #[test]
        fn a_run_memo_changes_nothing_a_caller_can_see(
            geometry in 0usize..GEOMETRIES.len(),
            entries in 0usize..4,
            reach in 1u64..=4,
            alphabet in proptest::collection::vec((any::<u32>(), 0u64..48), 1..13),
            steps in proptest::collection::vec((0u8..40, any::<u16>()), 1..300),
        ) {
            let config = GEOMETRIES[geometry];
            let entries = [1, 2, 8, MEMO_ENTRIES][entries];
            let (mut memo, mut plain) = (Cache::with_run_memo(config, entries), Cache::new(config));
            // Runs start within half the capacity (they can all be
            // resident at once) to twice it (they cannot); a quarter of
            // them are one line, the longest is 35.
            let span = config.size_bytes as u64 * reach / 2;
            let alphabet: Vec<(u64, u64)> = alphabet
                .into_iter()
                .map(|(a, lines)| (a as u64 % span, lines.saturating_sub(12).max(1)))
                .collect();
            let probes: Vec<u64> = alphabet
                .iter()
                .flat_map(|&(first, lines)| (0..lines).map(move |l| first + l * 64))
                .collect();
            for (step, (kind, pick)) in steps.into_iter().enumerate() {
                match kind {
                    0 => {
                        memo.flush();
                        plain.flush();
                    }
                    // A line from anywhere in three times the capacity.
                    1..=3 => {
                        let stray = pick as u64 * 64 % (config.size_bytes as u64 * 3);
                        same_access(&mut memo, &mut plain, (stray, 1), &probes)?;
                    }
                    _ => {
                        let run = alphabet[pick as usize % alphabet.len()];
                        same_access(&mut memo, &mut plain, run, &probes)?;
                    }
                }
                if step % 8 == 0 {
                    assert_same_order(&memo, &plain);
                }
            }
            assert_same_order(&memo, &plain);
        }
    }

    /// Touches set 0 of both caches once per index in `touches`, through
    /// a one-entry memo that two lines fight over, so it never answers.
    fn pumped((mut memo, mut plain): (Cache, Cache), touches: Range<u64>) -> (Cache, Cache) {
        for i in touches {
            same_access(&mut memo, &mut plain, (i % 2 * 256, 1), &[]).expect("same access");
        }
        (memo, plain)
    }

    /// A nine-line run — lines 0, 4 and 8 are set 0's of four ways —
    /// repeats `repeats` times, all answered by the memo, and three
    /// fills then take set 0's victims one by one.
    fn repeats_then_fills((mut memo, mut plain): (Cache, Cache), repeats: u64) {
        let mut access = |first_line: u64, lines: u64, order: bool| {
            same_access(&mut memo, &mut plain, (first_line * 64, lines), &[]).expect("same access");
            if order {
                assert_same_order(&memo, &plain);
            }
            (memo.tick, memo.settled, memo.probe(16 * 64))
        };
        access(16, 1, true);
        // The first pass fills line 8, the second finds all nine.
        access(0, 9, true);
        let (tick, ..) = access(0, 9, true);
        assert_eq!(tick, 0, "nothing has repeated yet");
        let answered = (0..repeats).map(|_| access(0, 9, false)).last();
        assert_eq!(
            answered,
            Some((repeats, 0, true)),
            "every repeat answered, none applied"
        );
        // Line 16 is the oldest of set 0, then the run's lines in order.
        let (.., line_16_stays) = access(20, 1, true);
        assert!(
            !line_16_stays,
            "the first victim is the line no repeat touched"
        );
        access(24, 1, true);
        access(28, 1, true);
    }

    /// Repeats the memo answered never reach a set's 16-bit clock, so
    /// 70 000 of them must neither wrap it nor lose their place in the
    /// order; and the one replay that applies them must re-stamp the set
    /// when it is that replay that crosses the wrap (seven touches follow
    /// the pumped ones before its three).
    #[test]
    fn repeats_the_memo_answered_survive_the_stamp_wrap() {
        let config = CacheConfig {
            size_bytes: 1024,
            ways: 4,
            line_bytes: 64,
        };
        let cold = (Cache::with_run_memo(config, 1), Cache::new(config));
        let mut pair = pumped(cold, 0..65_518);
        for pump in 65_518..65_532 {
            let repeats = if pump == 65_526 { 70_000 } else { 3 };
            repeats_then_fills(pair.clone(), repeats);
            pair = pumped(pair, pump..pump + 1);
        }
    }

    /// A flush drops the recency the memo still owes along with the
    /// lines it was owed to: the runs miss again, in full.
    #[test]
    fn a_flush_with_recency_owed_forgets_the_runs() {
        let mut c = Cache::with_run_memo(tiny().config, 2);
        for _ in 0..3 {
            c.access_run(0, 4, |_| {});
            c.access_run(0x100, 2, |_| {});
        }
        assert_eq!((c.misses, c.tick, c.settled), (6, 2, 0));
        c.flush();
        assert_eq!(c.access_run(0, 4, |_| {}), 4);
        assert_eq!(c.access_run(0x100, 2, |_| {}), 2);
        assert_eq!(c.lru_order(0), [0, 4]);
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
