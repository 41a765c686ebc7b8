//! Extended page tables (EPT).
//!
//! EPTs are real 4-level radix trees stored in Rootkernel-reserved physical
//! frames. Three operations matter to SkyBridge:
//!
//! * building the **base EPT** that identity-maps (almost) all physical
//!   memory to the Subkernel with huge pages, so that the guest never takes
//!   an EPT violation and a TLB miss stays cheap (§4.1);
//! * the **shallow copy with CR3 remap** (§4.3): a per-binding server EPT
//!   that shares every subtree of the base EPT except the four pages on the
//!   path to the client's CR3 frame, which is remapped to the HPA of the
//!   server's page-table root;
//! * plain translation, used by the charged walker in [`crate::walk`].

use crate::{
    addr::{ept_indices, Gpa, Hpa, PAGE_SIZE, PAGE_SIZE_1G, PAGE_SIZE_2M},
    fault::MemFault,
    phys::HostMem,
};

const EPT_READ: u64 = 1 << 0;
const EPT_WRITE: u64 = 1 << 1;
const EPT_EXEC: u64 = 1 << 2;
const EPT_LEAF: u64 = 1 << 7;
const ADDR_MASK: u64 = 0x000f_ffff_ffff_f000;
/// Domain-key nibble stashed in leaf entries, mirroring the guest PTE's
/// pkey position (bits 62:59). Hardware EPT entries have *no* protection
/// keys — PKRU guards guest-virtual mappings only — so these bits are
/// architecturally ignored here. The Rootkernel uses the stash purely as
/// an audit tag: which protection domain a frame was handed to. The MPK
/// enforcement teeth live in the guest-PTE walk ([`crate::walk`]).
const EPT_KEY_SHIFT: u64 = 59;
const EPT_KEY_MASK: u64 = 0xf << EPT_KEY_SHIFT;

/// Access permissions of an EPT mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EptPerms {
    /// Guest reads allowed.
    pub read: bool,
    /// Guest writes allowed.
    pub write: bool,
    /// Guest instruction fetches allowed.
    pub exec: bool,
}

impl EptPerms {
    /// Read + write + execute (the base EPT's mapping for guest RAM).
    pub const RWX: EptPerms = EptPerms {
        read: true,
        write: true,
        exec: true,
    };
    /// Read + write.
    pub const RW: EptPerms = EptPerms {
        read: true,
        write: true,
        exec: false,
    };
    /// Read-only.
    pub const R: EptPerms = EptPerms {
        read: true,
        write: false,
        exec: false,
    };

    pub(crate) fn bits(self) -> u64 {
        (self.read as u64) * EPT_READ
            + (self.write as u64) * EPT_WRITE
            + (self.exec as u64) * EPT_EXEC
    }

    pub(crate) fn from_bits(bits: u64) -> Self {
        EptPerms {
            read: bits & EPT_READ != 0,
            write: bits & EPT_WRITE != 0,
            exec: bits & EPT_EXEC != 0,
        }
    }

    /// True if these permissions allow the requested access.
    pub fn allows(self, write: bool, exec: bool) -> bool {
        self.read && (!write || self.write) && (!exec || self.exec)
    }
}

/// Mapping granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageSize {
    /// 4 KiB leaf at level 1.
    Size4K,
    /// 2 MiB leaf at level 2.
    Size2M,
    /// 1 GiB leaf at level 3 (the base EPT's granule).
    Size1G,
}

impl PageSize {
    /// Size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            PageSize::Size4K => PAGE_SIZE,
            PageSize::Size2M => PAGE_SIZE_2M,
            PageSize::Size1G => PAGE_SIZE_1G,
        }
    }

    /// Walk level at which this size's leaf entry lives (1, 2, or 3).
    fn leaf_level(self) -> u8 {
        match self {
            PageSize::Size4K => 1,
            PageSize::Size2M => 2,
            PageSize::Size1G => 3,
        }
    }
}

/// Result of one EPT translation, including how much walking it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EptTranslation {
    /// Resolved host-physical address.
    pub hpa: Hpa,
    /// Number of EPT entries read (1..=4): the memory accesses a hardware
    /// walker would perform.
    pub entries_read: u8,
    /// Physical addresses of the entries read, for charged walks.
    pub entry_addrs: [Hpa; 4],
    /// Permissions of the leaf mapping.
    pub perms: EptPerms,
    /// Domain-key tag of the leaf (0 unless mapped via
    /// [`Ept::map_keyed`]). Informational: EPT hardware ignores it.
    pub key: u8,
}

/// One extended page table, identified by its root frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ept {
    /// Host-physical address of the root (PML4-equivalent) frame.
    pub root: Hpa,
}

impl Ept {
    /// Allocates an empty EPT in the Rootkernel-reserved region.
    pub fn new(mem: &mut HostMem) -> Self {
        Ept {
            root: mem.alloc_reserved_frame(),
        }
    }

    /// Maps `gpa → hpa` at the given granularity.
    ///
    /// Intermediate tables are allocated as needed from the reserved
    /// region.
    ///
    /// # Panics
    ///
    /// Panics if `gpa`/`hpa` are not aligned to `size`, or if the walk path
    /// is blocked by an existing larger leaf (splitting happens only on
    /// the shallow-copy path, [`Ept::shallow_copy_with_remap`]).
    pub fn map(&self, mem: &mut HostMem, gpa: Gpa, hpa: Hpa, size: PageSize, perms: EptPerms) {
        self.map_keyed(mem, gpa, hpa, size, perms, 0);
    }

    /// [`Ept::map`] with a 4-bit domain-key tag stashed in the leaf's
    /// ignored bits 62:59 (the guest-PTE pkey position). The tag is
    /// surfaced by [`Ept::translate`] for audit; it grants or denies
    /// nothing at this level.
    ///
    /// # Panics
    ///
    /// Panics on misalignment (as [`Ept::map`]) or a key ≥ 16.
    pub fn map_keyed(
        &self,
        mem: &mut HostMem,
        gpa: Gpa,
        hpa: Hpa,
        size: PageSize,
        perms: EptPerms,
        key: u8,
    ) {
        assert!(key < 16, "domain keys are 4 bits");
        assert_eq!(gpa.0 % size.bytes(), 0, "gpa misaligned for {size:?}");
        assert_eq!(hpa.0 % size.bytes(), 0, "hpa misaligned for {size:?}");
        let idx = ept_indices(gpa);
        let leaf_level = size.leaf_level();
        let mut table = self.root;
        let mut level = 4u8;
        while level > leaf_level {
            let entry_addr = table.add(idx[(4 - level) as usize] as u64 * 8);
            let entry = mem.read_u64(entry_addr);
            let next = if entry & EPT_READ == 0 {
                let frame = mem.alloc_reserved_frame();
                mem.write_u64(entry_addr, frame.0 | EPT_READ | EPT_WRITE | EPT_EXEC);
                frame
            } else {
                assert_eq!(
                    entry & EPT_LEAF,
                    0,
                    "mapping path blocked by a larger leaf at level {level}"
                );
                Hpa(entry & ADDR_MASK)
            };
            table = next;
            level -= 1;
        }
        let entry_addr = table.add(idx[(4 - level) as usize] as u64 * 8);
        let leaf_bit = if level > 1 { EPT_LEAF } else { 0 };
        let key_bits = (key as u64) << EPT_KEY_SHIFT;
        mem.write_u64(entry_addr, hpa.0 | perms.bits() | leaf_bit | key_bits);
    }

    /// Identity-maps `[start, end)` (GPA = HPA) at the given granularity.
    ///
    /// # Panics
    ///
    /// Panics unless both bounds are `size`-aligned.
    pub fn map_identity_range(
        &self,
        mem: &mut HostMem,
        start: u64,
        end: u64,
        size: PageSize,
        perms: EptPerms,
    ) {
        assert_eq!(start % size.bytes(), 0);
        assert_eq!(end % size.bytes(), 0);
        let mut at = start;
        while at < end {
            self.map(mem, Gpa(at), Hpa(at), size, perms);
            at += size.bytes();
        }
    }

    /// Translates a GPA without charging simulated time (hypervisor setup
    /// and test use; the charged path lives in [`crate::walk`]).
    pub fn translate(&self, mem: &HostMem, gpa: Gpa) -> Result<EptTranslation, MemFault> {
        let idx = ept_indices(gpa);
        let mut table = self.root;
        let mut entry_addrs = [Hpa(0); 4];
        for level in (1..=4u8).rev() {
            let entry_addr = table.add(idx[(4 - level) as usize] as u64 * 8);
            entry_addrs[(4 - level) as usize] = entry_addr;
            let entry = mem.read_u64(entry_addr);
            if entry & (EPT_READ | EPT_WRITE | EPT_EXEC) == 0 {
                return Err(MemFault::EptViolation { gpa });
            }
            let is_leaf = level == 1 || entry & EPT_LEAF != 0;
            if is_leaf {
                let granule = match level {
                    1 => PAGE_SIZE,
                    2 => PAGE_SIZE_2M,
                    3 => PAGE_SIZE_1G,
                    _ => panic!("1 GiB is the largest supported EPT leaf"),
                };
                let base = entry & ADDR_MASK;
                // For large leaves the low address bits come from the GPA.
                let hpa = Hpa((base & !(granule - 1)) | (gpa.0 & (granule - 1)));
                return Ok(EptTranslation {
                    hpa,
                    entries_read: 5 - level,
                    entry_addrs,
                    perms: EptPerms::from_bits(entry),
                    key: ((entry & EPT_KEY_MASK) >> EPT_KEY_SHIFT) as u8,
                });
            }
            table = Hpa(entry & ADDR_MASK);
        }
        unreachable!("loop always returns at level 1");
    }

    /// Creates the server-side EPT of a client/server binding: a shallow
    /// copy of `base` in which the 4 KiB page holding the client's
    /// page-table root (`client_cr3_gpa`) translates to the frame holding
    /// the *server's* page-table root (`server_cr3_hpa`).
    ///
    /// Only the pages on the walk path are copied or created; every other
    /// subtree is shared with `base`. Returns the new EPT and the number of
    /// pages that were written (the paper: "Only four pages … are
    /// modified").
    ///
    /// # Panics
    ///
    /// Panics if `client_cr3_gpa` is not mapped in `base`.
    pub fn shallow_copy_with_remap(
        mem: &mut HostMem,
        base: &Ept,
        client_cr3_gpa: Gpa,
        server_cr3_hpa: Hpa,
    ) -> (Ept, u64) {
        let gpa = client_cr3_gpa.page_base();
        let idx = ept_indices(gpa);
        let root = Self::copy_frame(mem, base.root);
        let mut pages_written = 1u64;
        let mut table = root;
        for level in (2..=4u8).rev() {
            let entry_addr = table.add(idx[(4 - level) as usize] as u64 * 8);
            let entry = mem.read_u64(entry_addr);
            assert!(
                entry & (EPT_READ | EPT_WRITE | EPT_EXEC) != 0,
                "client CR3 GPA not mapped in base EPT"
            );
            let next = if entry & EPT_LEAF != 0 {
                // Split the large leaf into a table of the next granularity,
                // preserving the identity-derived mapping of the region.
                let child_granule = match level {
                    3 => PAGE_SIZE_2M,
                    2 => PAGE_SIZE,
                    _ => unreachable!(),
                };
                let frame = mem.alloc_reserved_frame();
                pages_written += 1;
                let perms = entry & (EPT_READ | EPT_WRITE | EPT_EXEC | EPT_KEY_MASK);
                let leaf_base = entry & ADDR_MASK;
                let child_leaf_bit = if child_granule > PAGE_SIZE {
                    EPT_LEAF
                } else {
                    0
                };
                for i in 0..512u64 {
                    mem.write_u64(
                        frame.add(i * 8),
                        (leaf_base + i * child_granule) | perms | child_leaf_bit,
                    );
                }
                mem.write_u64(entry_addr, frame.0 | EPT_READ | EPT_WRITE | EPT_EXEC);
                frame
            } else {
                let copy = Self::copy_frame(mem, Hpa(entry & ADDR_MASK));
                pages_written += 1;
                mem.write_u64(entry_addr, copy.0 | EPT_READ | EPT_WRITE | EPT_EXEC);
                copy
            };
            table = next;
        }
        // `table` is now a private 4 KiB-granularity page table; remap the
        // client CR3 frame to the server's page-table root. Read/write: the
        // hardware walker reads it, and the guest kernel may update the
        // server's page table through its own mapping.
        let entry_addr = table.add(idx[3] as u64 * 8);
        mem.write_u64(
            entry_addr,
            server_cr3_hpa.page_base().0 | EPT_READ | EPT_WRITE,
        );
        (Ept { root }, pages_written)
    }

    /// Deep-copies every table frame of `base` (leaves are physical memory
    /// and stay shared). Exists for the shallow-vs-deep ablation bench;
    /// SkyBridge itself always shallow-copies.
    pub fn deep_copy(mem: &mut HostMem, base: &Ept) -> (Ept, u64) {
        fn copy_rec(mem: &mut HostMem, frame: Hpa, level: u8, count: &mut u64) -> Hpa {
            let copy = Ept::copy_frame(mem, frame);
            *count += 1;
            if level > 1 {
                for i in 0..512u64 {
                    let entry = mem.read_u64(copy.add(i * 8));
                    if entry & (EPT_READ | EPT_WRITE | EPT_EXEC) != 0 && entry & EPT_LEAF == 0 {
                        let child = copy_rec(mem, Hpa(entry & ADDR_MASK), level - 1, count);
                        mem.write_u64(copy.add(i * 8), child.0 | (entry & !ADDR_MASK));
                    }
                }
            }
            copy
        }
        let mut count = 0;
        let root = copy_rec(mem, base.root, 4, &mut count);
        (Ept { root }, count)
    }

    fn copy_frame(mem: &mut HostMem, src: Hpa) -> Hpa {
        let dst = mem.alloc_reserved_frame();
        let mut buf = [0u8; PAGE_SIZE as usize];
        mem.read_slice(src.page_base(), &mut buf);
        mem.write_slice(dst, &buf);
        dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phys::RESERVED_BYTES;

    fn base_ept(mem: &mut HostMem) -> Ept {
        // Mirror the Rootkernel: [reserved_end, 1G) as 2 MiB pages,
        // [1G, 4G) as 1 GiB pages (tests don't need all 16 GiB).
        let ept = Ept::new(mem);
        ept.map_identity_range(
            mem,
            RESERVED_BYTES,
            PAGE_SIZE_1G,
            PageSize::Size2M,
            EptPerms::RWX,
        );
        ept.map_identity_range(
            mem,
            PAGE_SIZE_1G,
            4 * PAGE_SIZE_1G,
            PageSize::Size1G,
            EptPerms::RWX,
        );
        ept
    }

    #[test]
    fn identity_translation_through_1g_leaf() {
        let mut mem = HostMem::new();
        let ept = base_ept(&mut mem);
        let gpa = Gpa(PAGE_SIZE_1G + 0x1234_5678);
        let t = ept.translate(&mem, gpa).unwrap();
        assert_eq!(t.hpa.0, gpa.0);
        assert_eq!(t.entries_read, 2); // Root + 1 GiB leaf in the PDPT.
    }

    #[test]
    fn identity_translation_through_2m_leaf() {
        let mut mem = HostMem::new();
        let ept = base_ept(&mut mem);
        let gpa = Gpa(RESERVED_BYTES + 0x4_2042);
        let t = ept.translate(&mem, gpa).unwrap();
        assert_eq!(t.hpa.0, gpa.0);
        assert_eq!(t.entries_read, 3);
    }

    #[test]
    fn reserved_region_is_not_mapped() {
        let mut mem = HostMem::new();
        let ept = base_ept(&mut mem);
        let gpa = Gpa(0x10_0000); // Inside the Rootkernel's 100 MiB.
        assert_eq!(
            ept.translate(&mem, gpa),
            Err(MemFault::EptViolation { gpa })
        );
    }

    #[test]
    fn map_4k_translates_with_four_reads() {
        let mut mem = HostMem::new();
        let ept = Ept::new(&mut mem);
        ept.map(
            &mut mem,
            Gpa(0x8000),
            Hpa(0x4_0000),
            PageSize::Size4K,
            EptPerms::RW,
        );
        let t = ept.translate(&mem, Gpa(0x8042)).unwrap();
        assert_eq!(t.hpa, Hpa(0x4_0042));
        assert_eq!(t.entries_read, 4);
        assert!(!t.perms.exec);
    }

    #[test]
    fn domain_key_tag_survives_mapping_and_grants_nothing() {
        let mut mem = HostMem::new();
        let ept = Ept::new(&mut mem);
        ept.map_keyed(
            &mut mem,
            Gpa(0x8000),
            Hpa(0x4_0000),
            PageSize::Size4K,
            EptPerms::RW,
            0xd,
        );
        let t = ept.translate(&mem, Gpa(0x8042)).unwrap();
        assert_eq!(t.key, 0xd, "audit tag rides the ignored bits 62:59");
        assert_eq!(t.hpa, Hpa(0x4_0042), "tag does not perturb the address");
        assert_eq!(t.perms, EptPerms::RW, "tag does not perturb permissions");
        // Untagged mappings read back key 0.
        ept.map(
            &mut mem,
            Gpa(0x9000),
            Hpa(0x5_0000),
            PageSize::Size4K,
            EptPerms::RWX,
        );
        assert_eq!(ept.translate(&mem, Gpa(0x9000)).unwrap().key, 0);
    }

    #[test]
    fn shallow_copy_writes_exactly_four_pages() {
        let mut mem = HostMem::new();
        let base = base_ept(&mut mem);
        let client_cr3 = mem.alloc_frame(); // Identity GPA == HPA.
        let server_cr3 = mem.alloc_frame();
        let (server_ept, pages) =
            Ept::shallow_copy_with_remap(&mut mem, &base, Gpa(client_cr3.0), server_cr3);
        assert_eq!(pages, 4, "paper: only four EPT pages are modified");
        // Under the server EPT, the client CR3 GPA resolves to the server's
        // page-table root frame.
        let t = server_ept.translate(&mem, Gpa(client_cr3.0)).unwrap();
        assert_eq!(t.hpa, server_cr3);
        // Every other page still translates identically.
        let other = Gpa(client_cr3.0 + PAGE_SIZE);
        assert_eq!(server_ept.translate(&mem, other).unwrap().hpa, Hpa(other.0));
        // And the base EPT is untouched.
        assert_eq!(
            base.translate(&mem, Gpa(client_cr3.0)).unwrap().hpa,
            client_cr3
        );
    }

    #[test]
    fn shallow_copy_remapped_page_is_not_executable() {
        let mut mem = HostMem::new();
        let base = base_ept(&mut mem);
        let client_cr3 = mem.alloc_frame();
        let server_cr3 = mem.alloc_frame();
        let (server_ept, _) =
            Ept::shallow_copy_with_remap(&mut mem, &base, Gpa(client_cr3.0), server_cr3);
        let t = server_ept.translate(&mem, Gpa(client_cr3.0)).unwrap();
        assert!(t.perms.read && t.perms.write && !t.perms.exec);
    }

    #[test]
    fn huge_page_base_ept_is_tiny() {
        // §4.1's rationale: with 1 GiB + 2 MiB mappings the whole base EPT
        // is three table pages (root, PDPT, one PD for the sub-1 GiB
        // region), so even a *deep* copy is cheap — and a shallow copy with
        // remap still touches only 4 pages.
        let mut mem = HostMem::new();
        let base = base_ept(&mut mem);
        let (_, deep_pages) = Ept::deep_copy(&mut mem, &base);
        assert_eq!(deep_pages, 3);
    }

    #[test]
    fn deep_copy_of_4k_ept_copies_many_more_pages_than_shallow() {
        let mut mem = HostMem::new();
        let base = base_ept(&mut mem);
        // An EPT managed at 4 KiB granularity (what a commodity hypervisor
        // would hand us) has a much larger tree.
        for i in 0..1024u64 {
            let at = 4 * PAGE_SIZE_1G + i * crate::addr::PAGE_SIZE_2M;
            base.map(&mut mem, Gpa(at), Hpa(at), PageSize::Size2M, EptPerms::RWX);
        }
        let cr3_a = mem.alloc_frame();
        let cr3_b = mem.alloc_frame();
        let (_, shallow_pages) = Ept::shallow_copy_with_remap(&mut mem, &base, Gpa(cr3_a.0), cr3_b);
        let (deep, deep_pages) = Ept::deep_copy(&mut mem, &base);
        assert_eq!(shallow_pages, 4);
        assert!(deep_pages > shallow_pages);
        // The deep copy still translates correctly.
        assert_eq!(deep.translate(&mem, Gpa(cr3_a.0)).unwrap().hpa, cr3_a);
    }

    #[test]
    fn offsets_within_large_leaves_are_preserved() {
        let mut mem = HostMem::new();
        let ept = Ept::new(&mut mem);
        ept.map(
            &mut mem,
            Gpa(2 * PAGE_SIZE_1G),
            Hpa(3 * PAGE_SIZE_1G),
            PageSize::Size1G,
            EptPerms::RWX,
        );
        let t = ept
            .translate(&mem, Gpa(2 * PAGE_SIZE_1G + 0x3abc_d123))
            .unwrap();
        assert_eq!(t.hpa, Hpa(3 * PAGE_SIZE_1G + 0x3abc_d123));
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_large_map_panics() {
        let mut mem = HostMem::new();
        let ept = Ept::new(&mut mem);
        ept.map(
            &mut mem,
            Gpa(PAGE_SIZE),
            Hpa(0),
            PageSize::Size2M,
            EptPerms::RWX,
        );
    }
}
