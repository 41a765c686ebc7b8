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

use crate::lru::SetLru;

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

/// A set-associative, LRU-replaced, tag-aware TLB. Equal to another as
/// a [`crate::Cache`] is: after the same history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tlb {
    config: TlbConfig,
    /// `sets - 1`.
    set_mask: usize,
    /// `(tag, virtual page number)` → `(host-physical page number,
    /// permission bits)`, by set. The walker defines what the permission
    /// bits mean.
    lru: SetLru<(TlbTag, u64), (u64, u8)>,
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
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Tlb {
            config,
            set_mask: sets - 1,
            lru: SetLru::new(sets, config.ways),
            accesses: 0,
            misses: 0,
        }
    }

    fn set_of(&self, vpn: u64) -> usize {
        (vpn as usize) & self.set_mask
    }

    /// Looks up the translation of virtual page `vpn` under `tag`.
    ///
    /// Returns the cached `(host-physical page number, permission meta)`
    /// on a hit. Counts the access either way; on a miss the caller
    /// performs the page walk and then calls [`Tlb::insert`].
    #[inline]
    pub fn lookup(&mut self, tag: TlbTag, vpn: u64) -> Option<(u64, u8)> {
        self.accesses += 1;
        let hit = self.lru.get(self.set_of(vpn), (tag, vpn));
        self.misses += hit.is_none() as u64;
        hit
    }

    /// Inserts a translation — over the page's previous one if there is
    /// one, else evicting the set's LRU entry if full.
    pub fn insert(&mut self, tag: TlbTag, vpn: u64, ppn: u64, meta: u8) {
        self.lru
            .put(self.set_of(vpn), (tag, vpn), (ppn, meta), true);
    }

    /// Flushes every entry (a non-PCID CR3 write, or `INVEPT` global).
    pub fn flush_all(&mut self) {
        self.lru.clear();
    }

    /// Flushes entries belonging to one tag (`INVPCID` single-context).
    pub fn flush_tag(&mut self, tag: TlbTag) {
        for set in 0..=self.set_mask {
            self.lru.retain(set, |&(t, _)| t != tag);
        }
    }

    /// Invalidates one page under one tag (`INVLPG`).
    pub fn flush_page(&mut self, tag: TlbTag, vpn: u64) {
        self.lru.retain(self.set_of(vpn), |&k| k != (tag, vpn));
    }

    /// Number of live entries.
    pub fn resident(&self) -> usize {
        self.lru.resident()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct TlbEntry {
        tag: TlbTag,
        vpn: u64,
        ppn: u64,
        meta: u8,
    }

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
    /// mapped, 16 ways, and two way counts (3, 12) no modelled TLB has.
    const GEOMETRIES: [TlbConfig; 6] = [
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
        TlbConfig {
            entries: 12,
            ways: 3,
        },
        TlbConfig {
            entries: 24,
            ways: 12,
        },
    ];

    /// The live entries of `set`, least recently used first.
    fn lru_order(t: &Tlb, set: usize) -> Vec<TlbEntry> {
        let entry = |&((tag, vpn), (ppn, meta))| TlbEntry {
            tag,
            vpn,
            ppn,
            meta,
        };
        t.lru.lru_order(set).iter().map(entry).collect()
    }

    /// Every set of `flat` holds what `reference` holds, in LRU order.
    fn assert_same_sets(flat: &Tlb, reference: &RefTlb) {
        for (set, want) in reference.sets.iter().enumerate() {
            assert_eq!(&lru_order(flat, set), want, "set {set}");
        }
    }

    /// One step of the operation mix both reference tests drive.
    fn step(flat: &mut Tlb, reference: &mut RefTlb, kind: u8, tag: TlbTag, vpn: u64, v: u16) {
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
            _ => assert_eq!(flat.lookup(tag, vpn), reference.lookup(tag, vpn)),
        }
        assert_eq!(flat.accesses, reference.accesses);
        assert_eq!(flat.misses, reference.misses);
    }

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
                step(&mut flat, &mut reference, kind, tag, vpn, v);
                assert_same_sets(&flat, &reference);
            }
        }
    }

    /// 200 000 lookups and inserts confined to one set, with the three
    /// flushes in between: whatever a representation counts per set (a
    /// 16-bit recency clock wraps after 65 535 touches) wraps here, and
    /// the victims must stay the reference's.
    #[test]
    fn one_set_hammered_past_any_wrap_matches_the_reference() {
        for config in [GEOMETRIES[0], GEOMETRIES[4], GEOMETRIES[5]] {
            let mut flat = Tlb::new(config);
            let mut reference = RefTlb::new(config);
            let sets = config.sets() as u64;
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..200_000u32 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let tag = TlbTag::bare((x >> 60) as u16 % 2);
                // Twice the ways in distinct pages of set 0.
                let vpn = (x >> 33) % (config.ways as u64 * 2) * sets;
                // Mostly lookups and inserts; a flush of some kind about
                // every thousand steps.
                let kind = match (x >> 40) % 1000 {
                    0 => (x >> 20) as u8 % 5,
                    r if r < 300 => 5,
                    _ => 20,
                };
                step(&mut flat, &mut reference, kind, tag, vpn, i as u16);
                if i % 251 == 0 || i > 199_000 {
                    assert_same_sets(&flat, &reference);
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
