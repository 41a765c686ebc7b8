//! Translation look-aside buffer model.
//!
//! TLB behaviour is central to both of the paper's key observations:
//!
//! * the indirect cost of kernel-mediated IPC includes heavy d-TLB pollution
//!   (Table 1 reports d-TLB misses growing from 17 to 7832 across 512 KV
//!   operations once IPC is involved), and
//! * `VMFUNC` with VPID enabled does **not** flush the TLB (Table 2), which
//!   is why SkyBridge's address-space switch costs only 134 cycles.
//!
//! We model both by tagging each entry with a [`TlbTag`] — the (PCID, EPT
//! root) pair — exactly like hardware tags entries with (VPID, PCID, EPTRTA).
//! Switching CR3 with PCID, or switching EPTP via `VMFUNC` with VPID, leaves
//! entries resident but unreachable under the new tag; capacity pressure
//! across address spaces then produces the observed thrashing.

/// The tag under which a translation was cached.
///
/// `pcid` distinguishes guest address spaces; `ept_root` distinguishes
/// extended page tables (the host-physical address of the active EPT PML4,
/// or 0 when virtualization is off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TlbTag {
    /// Process-context identifier of the guest page table.
    pub pcid: u16,
    /// Root of the active EPT (0 = bare metal).
    pub ept_root: u64,
}

impl TlbTag {
    /// Tag for non-virtualized execution under the given PCID.
    pub fn bare(pcid: u16) -> Self {
        TlbTag { pcid, ept_root: 0 }
    }
}

/// Geometry of a TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl TlbConfig {
    /// Skylake 128-entry 8-way instruction TLB (4 KiB pages).
    pub const fn skylake_itlb() -> Self {
        TlbConfig {
            entries: 128,
            ways: 8,
        }
    }

    /// Skylake 64-entry 4-way data TLB (4 KiB pages).
    pub const fn skylake_dtlb() -> Self {
        TlbConfig {
            entries: 64,
            ways: 4,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.entries / self.ways
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TlbEntry {
    tag: TlbTag,
    /// Virtual page number.
    vpn: u64,
    /// Host-physical page number the translation resolved to.
    ppn: u64,
    /// Opaque permission bits cached with the translation (the walker
    /// defines their meaning).
    meta: u8,
}

impl TlbEntry {
    fn matches(&self, tag: TlbTag, vpn: u64) -> bool {
        self.vpn == vpn && self.tag == tag
    }
}

/// A set-associative, LRU-replaced, tag-aware TLB.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// `sets - 1`.
    set_mask: usize,
    /// One flat `sets × ways` array. Set `s` owns
    /// `slots[s * ways..][..ways]`; its first `fill[s]` slots are live,
    /// least recently used first, most recently used last (the rest are
    /// filler, never compared).
    slots: Vec<TlbEntry>,
    /// Live entries per set.
    fill: Vec<u8>,
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that missed (required a page walk).
    pub misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate: zero ways, entries that are
    /// not a whole number of sets, a set count that is not a power of two,
    /// or more ways than the per-set fill counter holds.
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.ways > 0 && config.entries.is_multiple_of(config.ways));
        assert!(
            config.ways <= u8::MAX as usize,
            "{} ways exceed the per-set fill counter (max {})",
            config.ways,
            u8::MAX
        );
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Tlb {
            config,
            set_mask: sets - 1,
            slots: vec![TlbEntry::default(); config.entries],
            fill: vec![0; sets],
            accesses: 0,
            misses: 0,
        }
    }

    /// The geometry this TLB was built with.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    fn set_of(&self, vpn: u64) -> usize {
        (vpn as usize) & self.set_mask
    }

    /// The slots of `set` and its fill count.
    fn set_mut(&mut self, set: usize) -> (&mut [TlbEntry], &mut u8) {
        let ways = self.config.ways;
        (&mut self.slots[set * ways..][..ways], &mut self.fill[set])
    }

    /// Drops the entries of `set` that `keep` rejects; survivors keep
    /// their LRU order.
    fn retain(&mut self, set: usize, keep: impl Fn(&TlbEntry) -> bool) {
        let (slots, fill) = self.set_mut(set);
        let mut kept = 0;
        for i in 0..*fill as usize {
            if keep(&slots[i]) {
                slots[kept] = slots[i];
                kept += 1;
            }
        }
        *fill = kept as u8;
    }

    /// Looks up the translation of virtual page `vpn` under `tag`.
    ///
    /// Returns the cached `(host-physical page number, permission meta)`
    /// on a hit. Counts the access either way; on a miss the caller
    /// performs the page walk and then calls [`Tlb::insert`].
    pub fn lookup(&mut self, tag: TlbTag, vpn: u64) -> Option<(u64, u8)> {
        self.accesses += 1;
        let set = self.set_of(vpn);
        let (slots, fill) = self.set_mut(set);
        let n = *fill as usize;
        // Most lookups re-touch the page touched last: already in the MRU
        // slot, nothing to reorder.
        if n > 0 && slots[n - 1].matches(tag, vpn) {
            return Some((slots[n - 1].ppn, slots[n - 1].meta));
        }
        if let Some(pos) = slots[..n].iter().position(|e| e.matches(tag, vpn)) {
            slots[pos..n].rotate_left(1);
            Some((slots[n - 1].ppn, slots[n - 1].meta))
        } else {
            self.misses += 1;
            None
        }
    }

    /// Inserts a translation, evicting the set's LRU entry if full.
    pub fn insert(&mut self, tag: TlbTag, vpn: u64, ppn: u64, meta: u8) {
        let set = self.set_of(vpn);
        let (slots, fill) = self.set_mut(set);
        let mut n = *fill as usize;
        // One entry leaves — the page's previous translation if there is
        // one, else the LRU entry of a full set — and the rest close up.
        let leaving = slots[..n]
            .iter()
            .position(|e| e.matches(tag, vpn))
            .or((n == slots.len()).then_some(0));
        if let Some(pos) = leaving {
            slots.copy_within(pos + 1..n, pos);
            n -= 1;
        }
        slots[n] = TlbEntry {
            tag,
            vpn,
            ppn,
            meta,
        };
        *fill = n as u8 + 1;
    }

    /// Flushes every entry (a non-PCID CR3 write, or `INVEPT` global).
    pub fn flush_all(&mut self) {
        self.fill.fill(0);
    }

    /// Flushes entries belonging to one tag (`INVPCID` single-context).
    pub fn flush_tag(&mut self, tag: TlbTag) {
        for set in 0..self.fill.len() {
            self.retain(set, |e| e.tag != tag);
        }
    }

    /// Invalidates one page under one tag (`INVLPG`).
    pub fn flush_page(&mut self, tag: TlbTag, vpn: u64) {
        self.retain(self.set_of(vpn), |e| !e.matches(tag, vpn));
    }

    /// Number of live entries.
    pub fn resident(&self) -> usize {
        self.fill.iter().map(|&n| n as usize).sum()
    }

    /// Resets hit/miss statistics without touching entries.
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The `Vec<Vec<TlbEntry>>` TLB the flat one replaced, kept verbatim
    /// as the reference it must match operation for operation.
    struct RefTlb {
        config: TlbConfig,
        sets: Vec<Vec<TlbEntry>>,
        accesses: u64,
        misses: u64,
    }

    impl RefTlb {
        fn new(config: TlbConfig) -> Self {
            RefTlb {
                config,
                sets: vec![Vec::new(); config.sets()],
                accesses: 0,
                misses: 0,
            }
        }

        fn set_of(&self, vpn: u64) -> usize {
            (vpn as usize) & (self.sets.len() - 1)
        }

        fn lookup(&mut self, tag: TlbTag, vpn: u64) -> Option<(u64, u8)> {
            self.accesses += 1;
            let set_idx = self.set_of(vpn);
            let set = &mut self.sets[set_idx];
            if let Some(pos) = set.iter().position(|e| e.vpn == vpn && e.tag == tag) {
                let e = set.remove(pos);
                let hit = (e.ppn, e.meta);
                set.push(e);
                Some(hit)
            } else {
                self.misses += 1;
                None
            }
        }

        fn insert(&mut self, tag: TlbTag, vpn: u64, ppn: u64, meta: u8) {
            let set_idx = self.set_of(vpn);
            let ways = self.config.ways;
            let set = &mut self.sets[set_idx];
            set.retain(|e| !(e.vpn == vpn && e.tag == tag));
            if set.len() == ways {
                set.remove(0);
            }
            set.push(TlbEntry {
                tag,
                vpn,
                ppn,
                meta,
            });
        }

        fn flush_all(&mut self) {
            for set in &mut self.sets {
                set.clear();
            }
        }

        fn flush_tag(&mut self, tag: TlbTag) {
            for set in &mut self.sets {
                set.retain(|e| e.tag != tag);
            }
        }

        fn flush_page(&mut self, tag: TlbTag, vpn: u64) {
            let set_idx = self.set_of(vpn);
            self.sets[set_idx].retain(|e| !(e.vpn == vpn && e.tag == tag));
        }
    }

    /// The everyday shape plus the edges: one set of one way, direct
    /// mapped, and 16 ways.
    const GEOMETRIES: [TlbConfig; 4] = [
        TlbConfig {
            entries: 8,
            ways: 2,
        },
        TlbConfig {
            entries: 1,
            ways: 1,
        },
        TlbConfig {
            entries: 16,
            ways: 1,
        },
        TlbConfig {
            entries: 32,
            ways: 16,
        },
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any stream of lookups, inserts and the three flushes leaves
        /// the flat TLB and the reference with the same lookup results,
        /// the same counters, and the same entries in the same LRU order
        /// in every set.
        #[test]
        fn flat_tlb_matches_the_reference(
            geometry in 0usize..GEOMETRIES.len(),
            ops in proptest::collection::vec((0u8..40, 0u16..3, any::<bool>(), any::<u16>()), 1..500),
        ) {
            let config = GEOMETRIES[geometry];
            let mut flat = Tlb::new(config);
            let mut reference = RefTlb::new(config);
            for (kind, pcid, nested, v) in ops {
                let tag = TlbTag { pcid, ept_root: if nested { 0x7000 } else { 0 } };
                // Three times the capacity in distinct pages.
                let vpn = v as u64 % (config.entries as u64 * 3);
                match kind {
                    0 => {
                        flat.flush_all();
                        reference.flush_all();
                    }
                    1 => {
                        flat.flush_tag(tag);
                        reference.flush_tag(tag);
                    }
                    2..=4 => {
                        flat.flush_page(tag, vpn);
                        reference.flush_page(tag, vpn);
                    }
                    5..=19 => {
                        flat.insert(tag, vpn, v as u64 + 7, v as u8);
                        reference.insert(tag, vpn, v as u64 + 7, v as u8);
                    }
                    _ => prop_assert_eq!(flat.lookup(tag, vpn), reference.lookup(tag, vpn)),
                }
                prop_assert_eq!(flat.accesses, reference.accesses);
                prop_assert_eq!(flat.misses, reference.misses);
                for (set, want) in reference.sets.iter().enumerate() {
                    let got = &flat.slots[set * config.ways..][..flat.fill[set] as usize];
                    prop_assert_eq!(got, &want[..], "set {}", set);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceed the per-set fill counter")]
    fn more_ways_than_the_fill_counter_holds_is_rejected() {
        Tlb::new(TlbConfig {
            entries: 512,
            ways: 256,
        });
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn non_power_of_two_set_count_is_rejected() {
        Tlb::new(TlbConfig {
            entries: 12,
            ways: 4,
        });
    }

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 8,
            ways: 2,
        })
    }

    #[test]
    fn miss_then_hit_same_tag() {
        let mut t = tiny();
        let tag = TlbTag::bare(1);
        assert_eq!(t.lookup(tag, 0x40), None);
        t.insert(tag, 0x40, 0x99, 0);
        assert_eq!(t.lookup(tag, 0x40), Some((0x99, 0)));
        assert_eq!(t.misses, 1);
    }

    #[test]
    fn different_pcid_does_not_hit() {
        let mut t = tiny();
        t.insert(TlbTag::bare(1), 0x40, 0x99, 0);
        assert_eq!(t.lookup(TlbTag::bare(2), 0x40), None);
        // But the original entry survives — PCID switch is not a flush.
        assert_eq!(t.lookup(TlbTag::bare(1), 0x40), Some((0x99, 0)));
    }

    #[test]
    fn different_ept_root_does_not_hit() {
        let mut t = tiny();
        let client = TlbTag {
            pcid: 7,
            ept_root: 0x1000,
        };
        let server = TlbTag {
            pcid: 7,
            ept_root: 0x2000,
        };
        t.insert(client, 0x40, 0x99, 0);
        // After VMFUNC the same (vpn, pcid) resolves under a new EPT root.
        assert_eq!(t.lookup(server, 0x40), None);
        assert_eq!(t.lookup(client, 0x40), Some((0x99, 0)));
    }

    #[test]
    fn flush_tag_is_selective() {
        let mut t = tiny();
        t.insert(TlbTag::bare(1), 0x40, 0x1, 0);
        t.insert(TlbTag::bare(2), 0x41, 0x2, 0);
        t.flush_tag(TlbTag::bare(1));
        assert_eq!(t.lookup(TlbTag::bare(1), 0x40), None);
        assert_eq!(t.lookup(TlbTag::bare(2), 0x41), Some((0x2, 0)));
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let mut t = tiny(); // 4 sets, 2 ways.
        let tag = TlbTag::bare(1);
        // vpns 0, 4, 8 all map to set 0.
        t.insert(tag, 0, 0xa, 0);
        t.insert(tag, 4, 0xb, 0);
        t.insert(tag, 8, 0xc, 0); // Evicts vpn 0.
        assert_eq!(t.lookup(tag, 0), None);
        assert_eq!(t.lookup(tag, 4), Some((0xb, 0)));
        assert_eq!(t.lookup(tag, 8), Some((0xc, 0)));
    }

    #[test]
    fn flush_page_only_touches_that_page() {
        let mut t = tiny();
        let tag = TlbTag::bare(3);
        t.insert(tag, 1, 0xa, 0);
        t.insert(tag, 2, 0xb, 0);
        t.flush_page(tag, 1);
        assert_eq!(t.lookup(tag, 1), None);
        assert_eq!(t.lookup(tag, 2), Some((0xb, 0)));
    }

    #[test]
    fn reinsert_updates_translation() {
        let mut t = tiny();
        let tag = TlbTag::bare(1);
        t.insert(tag, 5, 0x1, 0);
        t.insert(tag, 5, 0x2, 0);
        assert_eq!(t.lookup(tag, 5), Some((0x2, 0)));
        assert_eq!(t.resident(), 1);
    }
}
