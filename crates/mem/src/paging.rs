//! Guest (process) page tables.
//!
//! Every process keeps its own 4-level x86-64 page table — SkyBridge
//! explicitly *retains* per-process page tables instead of merging processes
//! into one address space (§4.3), which is what makes it easy to integrate
//! into existing microkernels. Page-table pages are allocated from the
//! general physical region, which the base EPT identity-maps, so the
//! Subkernel can edit them directly by physical address.

use crate::{
    addr::{pt_indices, Gpa, Gva, Hpa, PAGE_SIZE},
    fault::MemFault,
    phys::HostMem,
};

const PTE_PRESENT: u64 = 1 << 0;
const PTE_WRITE: u64 = 1 << 1;
const PTE_USER: u64 = 1 << 2;
const PTE_NX: u64 = 1 << 63;
const PTE_ADDR_MASK: u64 = 0x000f_ffff_ffff_f000;
/// The protection key occupies PTE bits 62:59, exactly as on x86-64
/// with PKU enabled.
const PTE_PKEY_SHIFT: u64 = 59;
const PTE_PKEY_MASK: u64 = 0xf << PTE_PKEY_SHIFT;

/// Leaf permissions of a guest mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PteFlags {
    /// Writes allowed.
    pub write: bool,
    /// User-mode (ring 3) access allowed.
    pub user: bool,
    /// Instruction fetch allowed (`false` sets the NX bit).
    pub exec: bool,
    /// 4-bit memory protection key (PTE bits 62:59). Key 0 is the
    /// conventional "shared" key every PKRU value leaves accessible in
    /// this codebase, so pkey-oblivious mappings behave exactly as
    /// before. Checked against the core's PKRU on user data accesses by
    /// [`crate::walk::translate`]; instruction fetches are exempt, as on
    /// hardware.
    pub pkey: u8,
}

impl PteFlags {
    /// User read/write data.
    pub const USER_DATA: PteFlags = PteFlags {
        write: true,
        user: true,
        exec: false,
        pkey: 0,
    };
    /// User read-only data.
    pub const USER_RO: PteFlags = PteFlags {
        write: false,
        user: true,
        exec: false,
        pkey: 0,
    };
    /// User executable code (W^X: not writable).
    pub const USER_CODE: PteFlags = PteFlags {
        write: false,
        user: true,
        exec: true,
        pkey: 0,
    };
    /// Kernel read/write data.
    pub const KERNEL_DATA: PteFlags = PteFlags {
        write: true,
        user: false,
        exec: false,
        pkey: 0,
    };

    /// The same permissions tagged with protection key `pkey` (low 4
    /// bits; higher bits would not fit the PTE field).
    ///
    /// # Panics
    ///
    /// Panics if `pkey` exceeds 15.
    pub const fn with_pkey(self, pkey: u8) -> PteFlags {
        assert!(pkey < 16, "protection keys are 4 bits");
        PteFlags {
            write: self.write,
            user: self.user,
            exec: self.exec,
            pkey,
        }
    }

    /// Packs the flags into the TLB's one-byte permission meta (3
    /// permission bits, then the 4-bit pkey).
    pub fn to_meta(self) -> u8 {
        (self.write as u8)
            | (self.user as u8) << 1
            | (self.exec as u8) << 2
            | (self.pkey & 0xf) << 3
    }

    /// Unpacks [`PteFlags::to_meta`].
    pub fn from_meta(meta: u8) -> Self {
        PteFlags {
            write: meta & 1 != 0,
            user: meta & 2 != 0,
            exec: meta & 4 != 0,
            pkey: meta >> 3 & 0xf,
        }
    }

    fn bits(self) -> u64 {
        PTE_PRESENT
            | ((self.write as u64) * PTE_WRITE)
            | ((self.user as u64) * PTE_USER)
            | ((self.pkey as u64 & 0xf) << PTE_PKEY_SHIFT)
            | if self.exec { 0 } else { PTE_NX }
    }

    fn from_bits(bits: u64) -> Self {
        PteFlags {
            write: bits & PTE_WRITE != 0,
            user: bits & PTE_USER != 0,
            exec: bits & PTE_NX == 0,
            pkey: ((bits & PTE_PKEY_MASK) >> PTE_PKEY_SHIFT) as u8,
        }
    }
}

/// A per-process virtual address space (one 4-level page table).
///
/// Page-table pages live in identity-mapped general memory, so `root_gpa`
/// is numerically also the HPA of the root frame — *except* when viewed
/// through a server EPT that remaps it, which is the whole point of
/// SkyBridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressSpace {
    /// Guest-physical address of the PML4 frame (the process's CR3 value).
    pub root_gpa: Gpa,
    /// The PCID the kernel assigned to this address space.
    pub pcid: u16,
}

impl AddressSpace {
    /// Allocates an empty address space.
    pub fn new(mem: &mut HostMem, pcid: u16) -> Self {
        let root = mem.alloc_frame();
        AddressSpace {
            root_gpa: Gpa(root.0),
            pcid,
        }
    }

    /// Maps the 4 KiB page at `gva` to the frame at `gpa`.
    ///
    /// Intermediate page-table pages are allocated on demand. Remapping an
    /// existing page simply overwrites the leaf (used by the W^X rewrite
    /// flow that flips a code page writable and back).
    ///
    /// # Panics
    ///
    /// Panics if `gva` or `gpa` is not page-aligned.
    pub fn map(&self, mem: &mut HostMem, gva: Gva, gpa: Gpa, flags: PteFlags) {
        assert!(gva.is_page_aligned(), "gva {gva:?} not page-aligned");
        assert!(gpa.is_page_aligned(), "gpa {gpa:?} not page-aligned");
        let idx = pt_indices(gva);
        // Page-table pages are in identity-mapped memory: GPA == HPA.
        let mut table = Hpa(self.root_gpa.0);
        for &i in &idx[..3] {
            let entry_addr = table.add(i as u64 * 8);
            let entry = mem.read_u64(entry_addr);
            let next = if entry & PTE_PRESENT == 0 {
                let frame = mem.alloc_frame();
                // Intermediate entries carry the most permissive bits; the
                // leaf decides (hardware ANDs, but leaf-only checking is
                // equivalent for the mappings we build).
                mem.write_u64(entry_addr, frame.0 | PTE_PRESENT | PTE_WRITE | PTE_USER);
                frame
            } else {
                Hpa(entry & PTE_ADDR_MASK)
            };
            table = next;
        }
        let leaf_addr = table.add(idx[3] as u64 * 8);
        mem.write_u64(leaf_addr, (gpa.0 & PTE_ADDR_MASK) | flags.bits());
    }

    /// Maps `pages` fresh frames at `gva`, returning the GPA of the first.
    ///
    /// The data frames are allocated *before* any page-table pages, so the
    /// region is physically contiguous: `first + i * PAGE_SIZE` is the
    /// frame of page `i`. Sharing code (SkyBridge shared buffers, shared
    /// libraries) relies on this.
    pub fn alloc_and_map(&self, mem: &mut HostMem, gva: Gva, pages: usize, flags: PteFlags) -> Gpa {
        let frames: Vec<Gpa> = (0..pages).map(|_| Gpa(mem.alloc_frame().0)).collect();
        for (i, frame) in frames.iter().enumerate() {
            self.map(mem, gva.add(i as u64 * PAGE_SIZE), *frame, flags);
        }
        frames.first().copied().unwrap_or(Gpa(0))
    }

    /// Changes the leaf permissions of an existing mapping.
    ///
    /// # Panics
    ///
    /// Panics if `gva` is unmapped (kernel bug, not a guest fault).
    pub fn protect(&self, mem: &mut HostMem, gva: Gva, flags: PteFlags) {
        let (gpa, _) = self
            .translate_setup(mem, gva)
            .expect("protect() of an unmapped page");
        self.map(mem, gva.page_base(), gpa.page_base(), flags);
    }

    /// Removes a mapping. The caller is responsible for TLB shootdown.
    pub fn unmap(&self, mem: &mut HostMem, gva: Gva) {
        let idx = pt_indices(gva);
        let mut table = Hpa(self.root_gpa.0);
        for &i in &idx[..3] {
            let entry = mem.read_u64(table.add(i as u64 * 8));
            if entry & PTE_PRESENT == 0 {
                return;
            }
            table = Hpa(entry & PTE_ADDR_MASK);
        }
        mem.write_u64(table.add(idx[3] as u64 * 8), 0);
    }

    /// Setup-time (uncharged, EPT-less) translation; the charged hardware
    /// path lives in [`crate::walk::translate`].
    pub fn translate_setup(&self, mem: &HostMem, gva: Gva) -> Result<(Gpa, PteFlags), MemFault> {
        let idx = pt_indices(gva);
        let mut table = Hpa(self.root_gpa.0);
        for (depth, &i) in idx.iter().enumerate() {
            let entry = mem.read_u64(table.add(i as u64 * 8));
            if entry & PTE_PRESENT == 0 {
                return Err(MemFault::NotPresent {
                    gva,
                    level: 4 - depth as u8,
                });
            }
            if depth == 3 {
                return Ok((
                    Gpa((entry & PTE_ADDR_MASK) | gva.page_offset()),
                    PteFlags::from_bits(entry),
                ));
            }
            table = Hpa(entry & PTE_ADDR_MASK);
        }
        unreachable!()
    }
}

/// Raw guest-PTE accessors used by the charged walker.
pub(crate) mod raw {
    use super::*;

    /// Decodes one PTE: `(present, table-or-frame address, flags)`.
    pub(crate) fn decode(entry: u64) -> (bool, Gpa, PteFlags) {
        (
            entry & PTE_PRESENT != 0,
            Gpa(entry & PTE_ADDR_MASK),
            PteFlags::from_bits(entry),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_then_translate() {
        let mut mem = HostMem::new();
        let asp = AddressSpace::new(&mut mem, 1);
        let frame = mem.alloc_frame();
        asp.map(&mut mem, Gva(0x40_0000), Gpa(frame.0), PteFlags::USER_CODE);
        let (gpa, flags) = asp.translate_setup(&mem, Gva(0x40_0123)).unwrap();
        assert_eq!(gpa, Gpa(frame.0 + 0x123));
        assert!(flags.exec && flags.user && !flags.write);
    }

    #[test]
    fn unmapped_is_not_present() {
        let mut mem = HostMem::new();
        let asp = AddressSpace::new(&mut mem, 1);
        assert!(matches!(
            asp.translate_setup(&mem, Gva(0xdead_b000)),
            Err(MemFault::NotPresent { .. })
        ));
    }

    #[test]
    fn two_spaces_are_disjoint() {
        let mut mem = HostMem::new();
        let a = AddressSpace::new(&mut mem, 1);
        let b = AddressSpace::new(&mut mem, 2);
        let fa = a.alloc_and_map(&mut mem, Gva(0x1000), 1, PteFlags::USER_DATA);
        let fb = b.alloc_and_map(&mut mem, Gva(0x1000), 1, PteFlags::USER_DATA);
        assert_ne!(fa, fb);
        assert_eq!(a.translate_setup(&mem, Gva(0x1000)).unwrap().0, fa);
        assert_eq!(b.translate_setup(&mem, Gva(0x1000)).unwrap().0, fb);
    }

    #[test]
    fn protect_flips_permissions_in_place() {
        let mut mem = HostMem::new();
        let asp = AddressSpace::new(&mut mem, 1);
        let gpa = asp.alloc_and_map(&mut mem, Gva(0x7000), 1, PteFlags::USER_DATA);
        asp.protect(&mut mem, Gva(0x7000), PteFlags::USER_CODE);
        let (gpa2, flags) = asp.translate_setup(&mem, Gva(0x7000)).unwrap();
        assert_eq!(gpa, gpa2);
        assert!(flags.exec && !flags.write);
    }

    #[test]
    fn unmap_removes_only_target() {
        let mut mem = HostMem::new();
        let asp = AddressSpace::new(&mut mem, 1);
        asp.alloc_and_map(&mut mem, Gva(0x1000), 2, PteFlags::USER_DATA);
        asp.unmap(&mut mem, Gva(0x1000));
        assert!(asp.translate_setup(&mem, Gva(0x1000)).is_err());
        assert!(asp.translate_setup(&mem, Gva(0x2000)).is_ok());
    }

    #[test]
    fn meta_roundtrip() {
        // 3 permission bits + 4 pkey bits = 7 meta bits.
        for meta in 0..128u8 {
            assert_eq!(PteFlags::from_meta(meta).to_meta(), meta);
        }
    }

    #[test]
    fn pkey_rides_pte_bits_59_to_62() {
        let mut mem = HostMem::new();
        let asp = AddressSpace::new(&mut mem, 1);
        let gpa = asp.alloc_and_map(&mut mem, Gva(0xa000), 1, PteFlags::USER_DATA.with_pkey(0xb));
        let (gpa2, flags) = asp.translate_setup(&mem, Gva(0xa123)).unwrap();
        assert_eq!(
            gpa2,
            Gpa(gpa.0 + 0x123),
            "the key must not disturb the address"
        );
        assert_eq!(flags.pkey, 0xb);
        assert!(flags.write && flags.user && !flags.exec);
        // protect() preserves an explicit retag and key 0 stays default.
        asp.protect(&mut mem, Gva(0xa000), PteFlags::USER_RO.with_pkey(3));
        assert_eq!(asp.translate_setup(&mem, Gva(0xa000)).unwrap().1.pkey, 3);
        assert_eq!(PteFlags::USER_DATA.pkey, 0);
    }

    #[test]
    fn alloc_and_map_region_is_physically_contiguous() {
        let mut mem = HostMem::new();
        let asp = AddressSpace::new(&mut mem, 1);
        let first = asp.alloc_and_map(&mut mem, Gva(0x4_0000), 8, PteFlags::USER_DATA);
        for i in 0..8u64 {
            let (gpa, _) = asp
                .translate_setup(&mem, Gva(0x4_0000 + i * PAGE_SIZE))
                .unwrap();
            assert_eq!(
                gpa,
                Gpa(first.0 + i * PAGE_SIZE),
                "page {i} must sit at first + i * PAGE_SIZE"
            );
        }
    }

    #[test]
    fn alloc_and_map_returns_first_frame() {
        let mut mem = HostMem::new();
        let asp = AddressSpace::new(&mut mem, 1);
        let first = asp.alloc_and_map(&mut mem, Gva(0x9000), 3, PteFlags::USER_DATA);
        let (gpa, _) = asp.translate_setup(&mem, Gva(0x9000)).unwrap();
        assert_eq!(gpa, first);
    }
}
