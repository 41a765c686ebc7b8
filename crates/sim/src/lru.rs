//! The set-associative, true-LRU store under [`crate::Cache`] and
//! [`crate::Tlb`].
//!
//! Recency is a 16-bit stamp per slot drawn from a 16-bit clock per set:
//! a hit writes one stamp and moves nothing, the victim of a full set is
//! its smallest stamp. A set whose clock is about to wrap is re-stamped
//! `1..=n` in recency order first, so stamps within a set stay distinct
//! and ordered forever.

/// `sets × ways` slots of key `K` and payload `V`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SetLru<K, V> {
    ways: usize,
    /// Set `s` owns slots `s * ways..(s + 1) * ways`; its first
    /// `meta[s].fill` slots are live, in no particular order. Untouched
    /// sets are never written, so an 8 MiB L3 costs host memory only
    /// where the simulated program has been.
    keys: Vec<K>,
    vals: Vec<V>,
    /// When each live slot was last touched, on its set's clock.
    stamps: Vec<u16>,
    meta: Vec<SetMeta>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SetMeta {
    /// The last stamp the set handed out.
    clock: u16,
    /// Live slots in the set.
    fill: u8,
}

/// Rewinds `clock` to the number of `stamps`, re-stamping them `1..=n`
/// in the order they already have.
#[cold]
#[inline(never)]
fn restamp(stamps: &mut [u16], clock: &mut u16) {
    let mut old = [0; u8::MAX as usize];
    let old = &mut old[..stamps.len()];
    old.copy_from_slice(stamps);
    for s in stamps.iter_mut() {
        *s = old.iter().filter(|&&o| o <= *s).count() as u16;
    }
    *clock = old.len() as u16;
}

/// Runs `$scan` over `$slice`. A slice as long as one of the modelled
/// associativities is re-sliced to that constant first, so each gets a
/// copy of the scan that unrolls; any other length runs it as a loop.
macro_rules! unrolled {
    ($slice:expr, $scan:expr) => {
        match $slice.len() {
            4 => $scan(&$slice[..4]),
            8 => $scan(&$slice[..8]),
            16 => $scan(&$slice[..16]),
            _ => $scan($slice),
        }
    };
}

impl<K: Copy + PartialEq + Default, V: Copy + Default> SetLru<K, V> {
    /// An empty store.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or more than the per-set fill counter
    /// holds.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(ways > 0, "a set needs at least one way");
        assert!(
            ways <= u8::MAX as usize,
            "{ways} ways exceed the per-set fill counter (max {})",
            u8::MAX
        );
        SetLru {
            ways,
            keys: vec![K::default(); sets * ways],
            vals: vec![V::default(); sets * ways],
            stamps: vec![0; sets * ways],
            meta: vec![SetMeta::default(); sets],
        }
    }

    /// The slot of `set` holding `key`, if any.
    #[inline(always)]
    fn find(&self, set: usize, key: K) -> Option<usize> {
        let base = set * self.ways;
        let live = &self.keys[base..base + self.meta[set].fill as usize];
        let way = unrolled!(live, |keys: &[K]| keys.iter().position(|k| *k == key));
        Some(base + way?)
    }

    /// Makes `slot` the most recently used of `set`.
    #[inline(always)]
    fn touch(&mut self, set: usize, slot: usize) {
        let meta = &mut self.meta[set];
        if meta.clock == u16::MAX {
            let base = set * self.ways;
            restamp(
                &mut self.stamps[base..base + meta.fill as usize],
                &mut meta.clock,
            );
        }
        meta.clock += 1;
        self.stamps[slot] = meta.clock;
    }

    /// Whether `set` holds `key`; its recency is not touched.
    pub fn contains(&self, set: usize, key: K) -> bool {
        self.find(set, key).is_some()
    }

    /// Looks `key` up in `set`; a hit becomes the set's most recently
    /// used entry.
    #[inline(always)]
    pub fn get(&mut self, set: usize, key: K) -> Option<V> {
        let slot = self.find(set, key)?;
        self.touch(set, slot);
        Some(self.vals[slot])
    }

    /// Makes `key` the most recently used entry of `set` and returns
    /// whether it was there. If it was not, `key → val` is stored — in
    /// the set's first dead slot if there is one, else over its least
    /// recently used entry; if it was, `val` replaces its payload only
    /// when `replace` says so.
    #[inline(always)]
    pub fn put(&mut self, set: usize, key: K, val: V, replace: bool) -> bool {
        if let Some(slot) = self.find(set, key) {
            if replace {
                self.vals[slot] = val;
            }
            self.touch(set, slot);
            return true;
        }
        let base = set * self.ways;
        let meta = &mut self.meta[set];
        let slot = if (meta.fill as usize) < self.ways {
            meta.fill += 1;
            base + meta.fill as usize - 1
        } else {
            // The smallest stamp, kept in a register so that nothing
            // branches on which way holds it.
            let oldest = |stamps: &[u16]| {
                let (mut way, mut min) = (0, u16::MAX);
                for (w, &s) in stamps.iter().enumerate() {
                    if s < min {
                        (way, min) = (w, s);
                    }
                }
                way
            };
            let stamps = &self.stamps[base..base + self.ways];
            base + unrolled!(stamps, oldest)
        };
        self.keys[slot] = key;
        self.vals[slot] = val;
        self.touch(set, slot);
        false
    }

    /// Drops the entries of `set` whose key `keep` rejects; the order of
    /// the survivors is untouched.
    pub fn retain(&mut self, set: usize, keep: impl Fn(&K) -> bool) {
        let base = set * self.ways;
        let mut kept = base;
        for slot in base..base + self.meta[set].fill as usize {
            if keep(&self.keys[slot]) {
                self.keys[kept] = self.keys[slot];
                self.vals[kept] = self.vals[slot];
                self.stamps[kept] = self.stamps[slot];
                kept += 1;
            }
        }
        self.meta[set].fill = (kept - base) as u8;
    }

    /// Empties every set.
    pub fn clear(&mut self) {
        for meta in &mut self.meta {
            meta.fill = 0;
        }
    }

    /// Number of live entries.
    pub fn resident(&self) -> usize {
        self.meta.iter().map(|m| m.fill as usize).sum()
    }

    /// The entries of `set`, least recently used first.
    #[cfg(test)]
    pub fn lru_order(&self, set: usize) -> Vec<(K, V)> {
        let base = set * self.ways;
        let mut slots: Vec<usize> = (base..base + self.meta[set].fill as usize).collect();
        slots.sort_by_key(|&s| self.stamps[s]);
        slots
            .iter()
            .map(|&s| (self.keys[s], self.vals[s]))
            .collect()
    }
}
