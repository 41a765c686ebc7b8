//! The charged hardware translation path.
//!
//! [`translate`] performs exactly the memory accesses a hardware page walk
//! performs, through the simulated TLBs and cache hierarchy:
//!
//! * TLB hit: no memory traffic, permissions checked from the cached entry;
//! * TLB miss, no EPT: 4 guest-PTE reads;
//! * TLB miss under an EPT with 4 KiB mappings: each guest-PTE read first
//!   translates the PTE's GPA through the EPT (4 reads), and the final data
//!   GPA is translated too — 4 × (4 + 1) + 4 = **24 accesses**, the §4.1
//!   worst case the Rootkernel's 1 GiB mappings exist to avoid;
//! * TLB miss under the 1 GiB base EPT: 4 × (2 + 1) + 2 = 14 accesses.
//!
//! The resolved translation is inserted into the i- or d-TLB tagged with
//! the core's current (PCID, EPT root), so a `VMFUNC` EPTP switch makes the
//! entries of the previous space unreachable *without flushing them* — the
//! behaviour Table 2 attributes to VPID.
//!
//! A walk that succeeded is recorded in [`HostMem`]. While no frame it
//! read has been written, walking the same page again would read the same
//! entries at the same addresses, so a later miss performs the recorded
//! accesses — every one, in order, through the same caches — without
//! working the path out again (DESIGN.md §19;
//! [`HostMem::walk_memo_stats`] counts them).

use sb_sim::{AccessKind, CpuId, Machine};

use crate::{
    addr::{pt_indices, Gpa, Gva, Hpa, PAGE_SIZE},
    ept::{Ept, EptPerms},
    fault::MemFault,
    paging::{raw, PteFlags},
    phys::HostMem,
};

/// The kind of access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Instruction fetch (i-TLB, L1i, needs execute permission).
    Fetch,
    /// Data read (d-TLB, L1d).
    Read,
    /// Data write (d-TLB, L1d, needs write permission).
    Write,
}

impl Access {
    fn cache_kind(self) -> AccessKind {
        match self {
            Access::Fetch => AccessKind::InstructionFetch,
            Access::Read => AccessKind::DataRead,
            Access::Write => AccessKind::DataWrite,
        }
    }

    fn allowed_by(self, flags: PteFlags, user: bool) -> bool {
        if user && !flags.user {
            return false;
        }
        match self {
            Access::Fetch => flags.exec,
            Access::Read => true,
            Access::Write => flags.write,
        }
    }

    fn protection_fault(self, gva: Gva, user: bool) -> MemFault {
        MemFault::Protection {
            gva,
            write: self == Access::Write,
            user,
            exec: self == Access::Fetch,
        }
    }
}

/// The protection-key check, applied after ordinary permissions pass:
/// data accesses to user-mode pages are checked against the core's live
/// PKRU; instruction fetches and supervisor-only mappings are exempt, as
/// on hardware. The reset PKRU (0) permits every key, so pkey-oblivious
/// paths never fault here.
fn pkey_check(
    m: &Machine,
    core: CpuId,
    flags: PteFlags,
    access: Access,
    gva: Gva,
) -> Result<(), MemFault> {
    if access == Access::Fetch || !flags.user {
        return Ok(());
    }
    let write = access == Access::Write;
    if m.cpu(core).pkey_denies(flags.pkey, write) {
        return Err(MemFault::PkeyDenied {
            gva,
            key: flags.pkey,
            write,
        });
    }
    Ok(())
}

/// One successful walk as [`HostMem`] keeps it: what the tables said,
/// and where the walker read it, in 128 bytes.
///
/// Everything here follows from the key — CR3's page, the EPT root, the
/// virtual page — and the contents of the frames read, so it stands for
/// as long as those frames are not written. What a walk also depends on
/// — the access, the privilege level, the live PKRU, `walk_step` — is
/// looked at afresh each time.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MemoWalk {
    vpn: u64,
    /// [`HostMem`]'s tables epoch when the walk was made.
    pub epoch: u64,
    /// CR3's page number, and the EPT root in 8-byte words (0: no EPT).
    cr3: u32,
    root: u32,
    /// The page number of the frame the page resolved to.
    frame: u32,
    /// The leaf PTE's flags, as the TLB keeps them.
    meta: u8,
    /// The EPT's permission bits on the frame (all, without an EPT).
    perms: u8,
    /// How many table entries were read (at most 4 × (4 + 1) + 4), and
    /// where each was, in the order read and in 8-byte words: exact, for
    /// [`HostMem::read_u64`] refuses an entry that is not word-aligned
    /// within [`crate::phys::TOTAL_BYTES`].
    len: u8,
    read: [u32; 24],
}

/// What a walk is the walk of: CR3's page, the EPT root, the virtual
/// page number.
pub(crate) type WalkKey = (Gpa, u64, u64);

impl MemoWalk {
    /// The walk of `key`, nothing read yet. `u64::MAX` is no page's
    /// number, so the walk of that one matches nothing.
    pub fn new((cr3, root, vpn): WalkKey) -> Self {
        MemoWalk {
            vpn,
            cr3: (cr3.0 >> 12) as u32,
            root: (root >> 3) as u32,
            perms: EptPerms::RWX.bits() as u8,
            ..Default::default()
        }
    }

    /// Whether this is the walk of `key`. Compared unpacked: a key too
    /// wide for the fields matches nothing, its own record included.
    pub fn is_of(&self, (cr3, root, vpn): WalkKey) -> bool {
        self.vpn == vpn && (self.cr3 as u64) << 12 == cr3.0 && (self.root as u64) << 3 == root
    }

    fn frame(&self) -> Hpa {
        Hpa((self.frame as u64) << 12)
    }

    fn push(&mut self, entry: Hpa) {
        self.read[self.len as usize] = (entry.0 >> 3) as u32;
        self.len += 1;
    }

    /// The addresses of the table entries read, in the order read.
    pub fn entries(&self) -> impl Iterator<Item = u64> + '_ {
        self.read[..self.len as usize]
            .iter()
            .map(|&word| (word as u64) << 3)
    }
}

/// Translates one GPA through the core's active EPT, charging the entry
/// reads and noting them in `walk`. Identity (free) when no EPT is active.
fn ept_resolve(
    m: &mut Machine,
    core: CpuId,
    mem: &HostMem,
    gpa: Gpa,
    write: bool,
    exec: bool,
    walk: &mut MemoWalk,
) -> Result<Hpa, MemFault> {
    let root = m.cpu(core).ept_root;
    if root == 0 {
        return Ok(Hpa(gpa.0));
    }
    let ept = Ept { root: Hpa(root) };
    let t = ept.translate(mem, gpa)?;
    for i in 0..t.entries_read as usize {
        m.mem_access(core, t.entry_addrs[i].0, AccessKind::DataRead);
        walk.push(t.entry_addrs[i]);
    }
    let cpu = m.cpu_mut(core);
    cpu.pmu.walk_memory_accesses += t.entries_read as u64;
    walk.perms = t.perms.bits() as u8;
    if !t.perms.allows(write, exec) {
        return Err(MemFault::EptViolation { gpa });
    }
    Ok(t.hpa)
}

/// Translates `gva` for `access`, charging TLB/caches/walk time, and
/// returns the host-physical address.
///
/// `user` is true for ring-3 accesses. On success the translation is
/// cached in the appropriate TLB under the core's current tag.
pub fn translate(
    m: &mut Machine,
    core: CpuId,
    mem: &HostMem,
    gva: Gva,
    access: Access,
    user: bool,
) -> Result<Hpa, MemFault> {
    let tag = m.cpu(core).tlb_tag();
    let vpn = gva.page_number();
    let is_fetch = access == Access::Fetch;

    // TLB lookup.
    let hit = {
        let cpu = m.cpu_mut(core);
        let tlb = if is_fetch {
            &mut cpu.itlb
        } else {
            &mut cpu.dtlb
        };
        tlb.lookup(tag, vpn)
    };
    match hit {
        Some((ppn, meta)) => {
            let flags = PteFlags::from_meta(meta);
            if access.allowed_by(flags, user) {
                // The cached meta carries the mapping's pkey, so a PKRU
                // flip changes what a *hit* permits — no re-walk needed,
                // which is exactly why WRPKRU domain switches are cheap.
                pkey_check(m, core, flags, access, gva)?;
                return Ok(Hpa(ppn << 12 | gva.page_offset()));
            }
            // Insufficient cached permissions: hardware re-walks; the walk
            // below will fault or refresh the entry.
        }
        None => {
            let cpu = m.cpu_mut(core);
            if is_fetch {
                cpu.pmu.itlb_misses += 1;
            } else {
                cpu.pmu.dtlb_misses += 1;
            }
        }
    }

    let (frame, flags) = walk(m, core, mem, gva, access, user)?;
    let cpu = m.cpu_mut(core);
    cpu.pmu.page_walks += 1;
    let tlb = if is_fetch {
        &mut cpu.itlb
    } else {
        &mut cpu.dtlb
    };
    tlb.insert(tag, vpn, frame.page_number(), flags.to_meta());
    Ok(frame.add(gva.page_offset()))
}

/// The page walk behind a TLB miss: the frame `gva`'s page resolves to and
/// its leaf flags, every entry read charged. Out of line, so that a TLB
/// hit carries none of it.
#[inline(never)]
fn walk(
    m: &mut Machine,
    core: CpuId,
    mem: &HostMem,
    gva: Gva,
    access: Access,
    user: bool,
) -> Result<(Hpa, PteFlags), MemFault> {
    let (write, is_fetch) = (access == Access::Write, access == Access::Fetch);
    let cpu = m.cpu(core);
    let key = (Gpa(cpu.cr3).page_base(), cpu.ept_root, gva.page_number());
    if let Some(known) = mem.memoised_walk(key) {
        // The tables would say what they said. If this access passes the
        // checks that are about the access, the walk would succeed again,
        // reading what it read; if not, the eager walk below finds the
        // fault and charges for as far as it got.
        let flags = PteFlags::from_meta(known.meta);
        if access.allowed_by(flags, user)
            && pkey_check(m, core, flags, access, gva).is_ok()
            && EptPerms::from_bits(known.perms as u64).allows(write, is_fetch)
        {
            m.mem_access_each(core, known.entries(), AccessKind::DataRead);
            let walk_steps = 4 * m.cost.walk_step;
            let cpu = m.cpu_mut(core);
            cpu.pmu.walk_memory_accesses += known.len as u64;
            cpu.tsc += walk_steps;
            mem.walks_answered.set(mem.walks_answered.get() + 1);
            return Ok((known.frame(), flags));
        }
    }

    // Guest page walk. CR3 holds a GPA; each PTE read goes through the EPT.
    let mut walk = MemoWalk::new(key);
    let mut table_gpa = key.0;
    for (depth, &i) in pt_indices(gva).iter().enumerate() {
        let pte_gpa = table_gpa.add(i as u64 * 8);
        let pte_hpa = ept_resolve(m, core, mem, pte_gpa, false, false, &mut walk)?;
        m.mem_access(core, pte_hpa.0, AccessKind::DataRead);
        walk.push(pte_hpa);
        let walk_step = m.cost.walk_step;
        let cpu = m.cpu_mut(core);
        cpu.pmu.walk_memory_accesses += 1;
        cpu.tsc += walk_step;
        let (present, addr, flags) = raw::decode(mem.read_u64(pte_hpa));
        if !present {
            return Err(MemFault::NotPresent {
                gva,
                level: 4 - depth as u8,
            });
        }
        if depth == 3 {
            if !access.allowed_by(flags, user) {
                return Err(access.protection_fault(gva, user));
            }
            pkey_check(m, core, flags, access, gva)?;
            let frame = ept_resolve(m, core, mem, addr, write, is_fetch, &mut walk)?;
            (walk.frame, walk.meta) = (frame.page_number() as u32, flags.to_meta());
            // Only a walk that got here is kept — a fault is never
            // recorded, so never replayed — and only if it fits.
            if walk.is_of(key) && walk.frame() == frame {
                mem.memoise_walk(key, walk);
            }
            return Ok((frame, flags));
        }
        table_gpa = addr;
    }
    unreachable!("leaf level always returns")
}

/// Translates `gva` and touches, through the cache hierarchy, every
/// 64-byte line of `[gva, gva + len)` that lies in `gva`'s page. Returns
/// where the span starts in host memory and how many bytes it covers;
/// callers loop until `len` is consumed.
fn charge_span(
    m: &mut Machine,
    core: CpuId,
    mem: &HostMem,
    gva: Gva,
    len: usize,
    access: Access,
    user: bool,
) -> Result<(Hpa, usize), MemFault> {
    let in_page = ((PAGE_SIZE - gva.page_offset()) as usize).min(len);
    let hpa = translate(m, core, mem, gva, access, user)?;
    let lines = (hpa.0 + in_page as u64).div_ceil(64) - hpa.0 / 64;
    m.mem_access_span(core, hpa.0, lines as usize, access.cache_kind());
    Ok((hpa, in_page))
}

/// Reads guest-virtual memory into `buf`, charging translation and cache
/// traffic.
pub fn read_bytes(
    m: &mut Machine,
    core: CpuId,
    mem: &HostMem,
    gva: Gva,
    buf: &mut [u8],
    user: bool,
) -> Result<(), MemFault> {
    let mut off = 0;
    while off < buf.len() {
        let at = gva.add(off as u64);
        let (hpa, n) = charge_span(m, core, mem, at, buf.len() - off, Access::Read, user)?;
        mem.read_slice(hpa, &mut buf[off..off + n]);
        off += n;
    }
    Ok(())
}

/// Writes `data` to guest-virtual memory, charging translation and cache
/// traffic.
///
/// All-or-nothing: every page is translated and charged before any byte
/// lands. The recursion holds each page's resolved span on the stack
/// while the pages after it are translated (any of which may fault) and
/// commits on the way back out — one frame per page written, no heap.
pub fn write_bytes(
    m: &mut Machine,
    core: CpuId,
    mem: &mut HostMem,
    gva: Gva,
    data: &[u8],
    user: bool,
) -> Result<(), MemFault> {
    if data.is_empty() {
        return Ok(());
    }
    let (hpa, n) = charge_span(m, core, mem, gva, data.len(), Access::Write, user)?;
    write_bytes(m, core, mem, gva.add(n as u64), &data[n..], user)?;
    mem.write_slice(hpa, &data[..n]);
    Ok(())
}

/// Charges `len` bytes of guest-virtual traffic at `gva` — identical
/// translation, TLB and cache accounting to [`read_bytes`] /
/// [`write_bytes`] — without moving any host bytes. The zero-copy call
/// path uses this when the payload is already staged host-side and only
/// the simulated cost of touching the shared buffer must be paid.
pub fn touch_bytes(
    m: &mut Machine,
    core: CpuId,
    mem: &HostMem,
    gva: Gva,
    len: usize,
    access: Access,
    user: bool,
) -> Result<(), MemFault> {
    let mut off = 0;
    while off < len {
        let at = gva.add(off as u64);
        off += charge_span(m, core, mem, at, len - off, access, user)?.1;
    }
    Ok(())
}

/// Models executing `len` bytes of code at `gva`: fetches every overlapped
/// line through the i-TLB and L1i.
pub fn fetch_code(
    m: &mut Machine,
    core: CpuId,
    mem: &HostMem,
    gva: Gva,
    len: usize,
    user: bool,
) -> Result<(), MemFault> {
    touch_bytes(m, core, mem, gva, len, Access::Fetch, user)
}

/// Convenience: reads a guest-virtual little-endian `u64`.
pub fn read_u64(
    m: &mut Machine,
    core: CpuId,
    mem: &HostMem,
    gva: Gva,
    user: bool,
) -> Result<u64, MemFault> {
    let mut b = [0u8; 8];
    read_bytes(m, core, mem, gva, &mut b, user)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use sb_sim::{Cache, CacheConfig, CostModel, Machine, MachineConfig};

    use super::*;
    use crate::{
        addr::PAGE_SIZE_1G,
        ept::{EptPerms, PageSize},
        paging::AddressSpace,
        phys::RESERVED_BYTES,
    };

    struct Env {
        m: Machine,
        mem: HostMem,
    }

    /// A guest store of a little-endian `u64`, the access most tests here make.
    fn write_u64(
        m: &mut Machine,
        core: CpuId,
        mem: &mut HostMem,
        gva: Gva,
        value: u64,
        user: bool,
    ) -> Result<(), MemFault> {
        write_bytes(m, core, mem, gva, &value.to_le_bytes(), user)
    }

    fn env() -> Env {
        Env {
            m: Machine::skylake(),
            mem: HostMem::new(),
        }
    }

    fn user_space(mem: &mut HostMem, pcid: u16) -> AddressSpace {
        let asp = AddressSpace::new(mem, pcid);
        asp.alloc_and_map(mem, Gva(0x40_0000), 4, PteFlags::USER_CODE);
        asp.alloc_and_map(mem, Gva(0x50_0000), 4, PteFlags::USER_DATA);
        asp
    }

    fn activate(m: &mut Machine, asp: &AddressSpace) {
        let cpu = m.cpu_mut(0);
        cpu.load_cr3(asp.root_gpa.0, asp.pcid);
    }

    #[test]
    fn bare_walk_costs_four_accesses_then_tlb_hits() {
        let mut e = env();
        let asp = user_space(&mut e.mem, 1);
        activate(&mut e.m, &asp);
        let before = e.m.cpu(0).pmu;
        write_u64(&mut e.m, 0, &mut e.mem, Gva(0x50_0000), 42, true).unwrap();
        let d = e.m.cpu(0).pmu.delta(&before);
        assert_eq!(d.walk_memory_accesses, 4);
        assert_eq!(d.dtlb_misses, 1);
        assert_eq!(d.page_walks, 1);
        // Second access: TLB hit, no walk.
        let before = e.m.cpu(0).pmu;
        assert_eq!(
            read_u64(&mut e.m, 0, &e.mem, Gva(0x50_0000), true).unwrap(),
            42
        );
        let d = e.m.cpu(0).pmu.delta(&before);
        assert_eq!(d.walk_memory_accesses, 0);
        assert_eq!(d.dtlb_misses, 0);
    }

    #[test]
    fn nested_walk_under_4k_ept_costs_24_accesses() {
        let mut e = env();
        let asp = user_space(&mut e.mem, 1);
        // Build a 4 KiB-granularity identity EPT over the used region.
        let ept = Ept::new(&mut e.mem);
        for page in 0..16384u64 {
            let at = RESERVED_BYTES + page * PAGE_SIZE;
            ept.map(
                &mut e.mem,
                Gpa(at),
                Hpa(at),
                PageSize::Size4K,
                EptPerms::RWX,
            );
        }
        activate(&mut e.m, &asp);
        e.m.cpu_mut(0).load_eptp(ept.root.0);
        let before = e.m.cpu(0).pmu;
        read_u64(&mut e.m, 0, &e.mem, Gva(0x50_0000), true).unwrap();
        let d = e.m.cpu(0).pmu.delta(&before);
        // 4 PTE reads, each preceded by a 4-entry EPT walk, plus the final
        // 4-entry EPT walk of the data GPA: 4*(4+1) + 4 = 24. This is the
        // §4.1 "at most 24 memory accesses" worst case.
        assert_eq!(d.walk_memory_accesses, 24);
    }

    #[test]
    fn nested_walk_under_1g_ept_costs_14_accesses() {
        let mut e = env();
        let asp = user_space(&mut e.mem, 1);
        let ept = Ept::new(&mut e.mem);
        ept.map_identity_range(
            &mut e.mem,
            0,
            2 * PAGE_SIZE_1G,
            PageSize::Size1G,
            EptPerms::RWX,
        );
        activate(&mut e.m, &asp);
        e.m.cpu_mut(0).load_eptp(ept.root.0);
        let before = e.m.cpu(0).pmu;
        read_u64(&mut e.m, 0, &e.mem, Gva(0x50_0000), true).unwrap();
        let d = e.m.cpu(0).pmu.delta(&before);
        // 4 * (2 + 1) + 2 = 14: the Rootkernel's huge pages cut the nested
        // walk nearly in half.
        assert_eq!(d.walk_memory_accesses, 14);
    }

    #[test]
    fn write_to_read_only_page_faults() {
        let mut e = env();
        let asp = AddressSpace::new(&mut e.mem, 1);
        asp.alloc_and_map(&mut e.mem, Gva(0x6000), 1, PteFlags::USER_RO);
        activate(&mut e.m, &asp);
        let err = write_u64(&mut e.m, 0, &mut e.mem, Gva(0x6000), 1, true).unwrap_err();
        assert!(matches!(err, MemFault::Protection { write: true, .. }));
    }

    #[test]
    fn user_access_to_kernel_page_faults() {
        let mut e = env();
        let asp = AddressSpace::new(&mut e.mem, 1);
        asp.alloc_and_map(&mut e.mem, Gva(0x6000), 1, PteFlags::KERNEL_DATA);
        activate(&mut e.m, &asp);
        let err = read_u64(&mut e.m, 0, &e.mem, Gva(0x6000), true).unwrap_err();
        assert!(matches!(err, MemFault::Protection { user: true, .. }));
        // The kernel itself may read it.
        assert!(read_u64(&mut e.m, 0, &e.mem, Gva(0x6000), false).is_ok());
    }

    #[test]
    fn fetch_from_nx_page_faults() {
        let mut e = env();
        let asp = AddressSpace::new(&mut e.mem, 1);
        asp.alloc_and_map(&mut e.mem, Gva(0x6000), 1, PteFlags::USER_DATA);
        activate(&mut e.m, &asp);
        let err = fetch_code(&mut e.m, 0, &e.mem, Gva(0x6000), 64, true).unwrap_err();
        assert!(matches!(err, MemFault::Protection { exec: true, .. }));
    }

    #[test]
    fn pkey_denied_access_faults() {
        let mut e = env();
        let asp = AddressSpace::new(&mut e.mem, 1);
        asp.alloc_and_map(&mut e.mem, Gva(0x6000), 1, PteFlags::USER_DATA.with_pkey(5));
        activate(&mut e.m, &asp);
        // Reset PKRU (0) permits every key.
        write_u64(&mut e.m, 0, &mut e.mem, Gva(0x6000), 9, true).unwrap();
        // Access-disable bit for key 5: both read and write fault.
        e.m.cpu_mut(0).write_pkru(1 << 10);
        let err = read_u64(&mut e.m, 0, &e.mem, Gva(0x6000), true).unwrap_err();
        assert_eq!(
            err,
            MemFault::PkeyDenied {
                gva: Gva(0x6000),
                key: 5,
                write: false
            }
        );
        // Write-disable only: reads pass, writes fault.
        e.m.cpu_mut(0).write_pkru(1 << 11);
        assert_eq!(read_u64(&mut e.m, 0, &e.mem, Gva(0x6000), true).unwrap(), 9);
        let err = write_u64(&mut e.m, 0, &mut e.mem, Gva(0x6000), 1, true).unwrap_err();
        assert!(matches!(
            err,
            MemFault::PkeyDenied {
                key: 5,
                write: true,
                ..
            }
        ));
        // A differently-keyed page is untouched by key 5's rights.
        asp.alloc_and_map(&mut e.mem, Gva(0x7000), 1, PteFlags::USER_DATA.with_pkey(3));
        write_u64(&mut e.m, 0, &mut e.mem, Gva(0x7000), 2, true).unwrap();
    }

    #[test]
    fn pkey_exempts_fetches_and_supervisor_mappings() {
        let mut e = env();
        let asp = AddressSpace::new(&mut e.mem, 1);
        asp.alloc_and_map(&mut e.mem, Gva(0x6000), 1, PteFlags::USER_CODE.with_pkey(5));
        asp.alloc_and_map(
            &mut e.mem,
            Gva(0x7000),
            1,
            PteFlags::KERNEL_DATA.with_pkey(5),
        );
        activate(&mut e.m, &asp);
        // Deny key 5 entirely: instruction fetches are still exempt
        // (PKRU guards data accesses only, as on hardware)...
        e.m.cpu_mut(0).write_pkru(0b11 << 10);
        fetch_code(&mut e.m, 0, &e.mem, Gva(0x6000), 64, true).unwrap();
        // ...and so are supervisor-only mappings.
        read_u64(&mut e.m, 0, &e.mem, Gva(0x7000), false).unwrap();
    }

    /// The property WRPPKRU domain switching leans on: flipping PKRU
    /// changes what a *cached* translation permits, because the pkey
    /// rides the TLB meta and is re-checked against the live register on
    /// every hit — no CR3 write, no shootdown, no re-walk.
    #[test]
    fn tlb_cached_pkey_still_enforced_after_pkru_flip() {
        let mut e = env();
        let asp = AddressSpace::new(&mut e.mem, 1);
        asp.alloc_and_map(&mut e.mem, Gva(0x6000), 1, PteFlags::USER_DATA.with_pkey(7));
        activate(&mut e.m, &asp);
        // Warm the TLB while the key is permitted.
        write_u64(&mut e.m, 0, &mut e.mem, Gva(0x6000), 1, true).unwrap();
        e.m.cpu_mut(0).write_pkru(1 << 14);
        let before = e.m.cpu(0).pmu;
        let err = read_u64(&mut e.m, 0, &e.mem, Gva(0x6000), true).unwrap_err();
        assert!(matches!(err, MemFault::PkeyDenied { key: 7, .. }));
        let d = e.m.cpu(0).pmu.delta(&before);
        assert_eq!(d.page_walks, 0, "denied on the TLB-hit path, not a re-walk");
    }

    #[test]
    fn ept_violation_on_unmapped_gpa() {
        let mut e = env();
        let asp = user_space(&mut e.mem, 1);
        // EPT that maps nothing the process uses.
        let ept = Ept::new(&mut e.mem);
        ept.map_identity_range(
            &mut e.mem,
            PAGE_SIZE_1G,
            2 * PAGE_SIZE_1G,
            PageSize::Size2M,
            EptPerms::RWX,
        );
        activate(&mut e.m, &asp);
        e.m.cpu_mut(0).load_eptp(ept.root.0);
        let err = read_u64(&mut e.m, 0, &e.mem, Gva(0x50_0000), true).unwrap_err();
        assert!(matches!(err, MemFault::EptViolation { .. }));
    }

    /// The heart of SkyBridge (§4.3): with the server EPT active, the
    /// *unchanged* CR3 value resolves through the server's page table.
    #[test]
    fn cr3_remap_switches_address_space_without_cr3_write() {
        let mut e = env();
        let client = user_space(&mut e.mem, 1);
        let server = user_space(&mut e.mem, 2);
        // Distinct contents at the same GVA in the two spaces.
        let mut m = Machine::skylake();
        activate(&mut m, &client);
        write_u64(&mut m, 0, &mut e.mem, Gva(0x50_0000), 0xc11e47, true).unwrap();
        activate(&mut m, &server);
        write_u64(&mut m, 0, &mut e.mem, Gva(0x50_0000), 0x5e47e4, true).unwrap();

        // Base EPT + server EPT with the CR3 remap.
        let base = Ept::new(&mut e.mem);
        base.map_identity_range(
            &mut e.mem,
            RESERVED_BYTES,
            PAGE_SIZE_1G,
            PageSize::Size2M,
            EptPerms::RWX,
        );
        base.map_identity_range(
            &mut e.mem,
            PAGE_SIZE_1G,
            4 * PAGE_SIZE_1G,
            PageSize::Size1G,
            EptPerms::RWX,
        );
        let (server_ept, _) = Ept::shallow_copy_with_remap(
            &mut e.mem,
            &base,
            client.root_gpa,
            Hpa(server.root_gpa.0),
        );

        // Client runs under the base EPT with its own CR3.
        activate(&mut e.m, &client);
        e.m.cpu_mut(0).load_eptp(base.root.0);
        assert_eq!(
            read_u64(&mut e.m, 0, &e.mem, Gva(0x50_0000), true).unwrap(),
            0xc11e47
        );
        let cr3_writes_before = e.m.cpu(0).pmu.cr3_writes;

        // VMFUNC: only the EPT root changes. CR3 is untouched.
        e.m.cpu_mut(0).load_eptp(server_ept.root.0);
        assert_eq!(
            read_u64(&mut e.m, 0, &e.mem, Gva(0x50_0000), true).unwrap(),
            0x5e47e4,
            "same GVA and same CR3 must now resolve in the server space"
        );
        assert_eq!(e.m.cpu(0).pmu.cr3_writes, cr3_writes_before);

        // Switch back: the client's view is restored.
        e.m.cpu_mut(0).load_eptp(base.root.0);
        assert_eq!(
            read_u64(&mut e.m, 0, &e.mem, Gva(0x50_0000), true).unwrap(),
            0xc11e47
        );
    }

    #[test]
    fn tlb_entries_survive_eptp_switch_but_do_not_leak() {
        let mut e = env();
        let client = user_space(&mut e.mem, 1);
        let server = user_space(&mut e.mem, 2);
        let base = Ept::new(&mut e.mem);
        base.map_identity_range(
            &mut e.mem,
            RESERVED_BYTES,
            PAGE_SIZE_1G,
            PageSize::Size2M,
            EptPerms::RWX,
        );
        let (server_ept, _) = Ept::shallow_copy_with_remap(
            &mut e.mem,
            &base,
            client.root_gpa,
            Hpa(server.root_gpa.0),
        );
        activate(&mut e.m, &client);
        e.m.cpu_mut(0).load_eptp(base.root.0);
        read_u64(&mut e.m, 0, &e.mem, Gva(0x50_0000), true).unwrap();
        let resident = e.m.cpu(0).dtlb.resident();

        // VMFUNC to the server EPT: the cached client translation must not
        // be reachable (it has a different EPT-root tag)…
        e.m.cpu_mut(0).load_eptp(server_ept.root.0);
        let before = e.m.cpu(0).pmu;
        read_u64(&mut e.m, 0, &e.mem, Gva(0x50_0000), true).unwrap();
        assert_eq!(e.m.cpu(0).pmu.delta(&before).dtlb_misses, 1);
        // …but it is still resident: VMFUNC does not flush (VPID).
        assert!(e.m.cpu(0).dtlb.resident() > resident);

        // Returning to the client EPT hits the surviving entry.
        e.m.cpu_mut(0).load_eptp(base.root.0);
        let before = e.m.cpu(0).pmu;
        read_u64(&mut e.m, 0, &e.mem, Gva(0x50_0000), true).unwrap();
        assert_eq!(e.m.cpu(0).pmu.delta(&before).dtlb_misses, 0);
    }

    #[test]
    fn read_write_roundtrip_across_pages() {
        let mut e = env();
        let asp = user_space(&mut e.mem, 1);
        activate(&mut e.m, &asp);
        let data: Vec<u8> = (0..6000).map(|i| (i % 255) as u8).collect();
        write_bytes(&mut e.m, 0, &mut e.mem, Gva(0x50_0100), &data, true).unwrap();
        let mut out = vec![0u8; data.len()];
        read_bytes(&mut e.m, 0, &e.mem, Gva(0x50_0100), &mut out, true).unwrap();
        assert_eq!(out, data);
    }

    /// One run per page, one access per 64-byte line the bytes overlap.
    #[test]
    fn a_span_touches_each_overlapped_line_once() {
        let mut e = env();
        let asp = user_space(&mut e.mem, 1);
        activate(&mut e.m, &asp);
        let mut lines_of = |at: u64, len: usize| {
            let (before, tlb) = (e.m.cpu(0).l1d.accesses, e.m.cpu(0).dtlb.accesses);
            touch_bytes(&mut e.m, 0, &e.mem, Gva(at), len, Access::Read, true).unwrap();
            let cpu = e.m.cpu(0);
            // The walk's own PTE reads go through the L1d too.
            let walked = cpu.pmu.walk_memory_accesses;
            (cpu.l1d.accesses - before, cpu.dtlb.accesses - tlb, walked)
        };
        let (_, _, walks) = lines_of(0x50_0000, 1);
        assert_eq!(lines_of(0x50_0000, 1), (1, 1, walks));
        assert_eq!(lines_of(0x50_003f, 2), (2, 1, walks), "straddles two lines");
        assert_eq!(
            lines_of(0x50_0fff, 1),
            (1, 1, walks),
            "last byte of the page"
        );
        assert_eq!(lines_of(0x50_0040, 64), (1, 1, walks), "exactly one line");
        assert_eq!(lines_of(0x50_0000, 4096), (64, 1, walks));
        let (lines, pages, _) = lines_of(0x50_0020, 4096);
        assert_eq!(
            (lines, pages),
            (65 + 4, 2),
            "a second page: one walk, 65 lines"
        );
    }

    /// A zero-length access is a no-op: nothing is translated, so it
    /// cannot even fault.
    #[test]
    fn zero_length_accesses_do_nothing() {
        let mut e = env();
        let asp = user_space(&mut e.mem, 1);
        activate(&mut e.m, &asp);
        let unmapped = Gva(0x7777_7020);
        let before = e.m.cpu(0).clone();
        touch_bytes(&mut e.m, 0, &e.mem, unmapped, 0, Access::Write, true).unwrap();
        fetch_code(&mut e.m, 0, &e.mem, unmapped, 0, true).unwrap();
        read_bytes(&mut e.m, 0, &e.mem, unmapped, &mut [], true).unwrap();
        write_bytes(&mut e.m, 0, &mut e.mem, unmapped, &[], true).unwrap();
        let cpu = e.m.cpu(0);
        assert_eq!((cpu.tsc, cpu.pmu), (before.tsc, before.pmu));
        for (tlb, was) in [(&cpu.itlb, &before.itlb), (&cpu.dtlb, &before.dtlb)] {
            assert_eq!(tlb.accesses, was.accesses);
        }
        for (cache, was) in [(&cpu.l1i, &before.l1i), (&cpu.l1d, &before.l1d)] {
            assert_eq!(cache.accesses, was.accesses);
        }
    }

    #[test]
    fn faulting_write_commits_nothing() {
        let mut e = env();
        let asp = AddressSpace::new(&mut e.mem, 1);
        asp.alloc_and_map(&mut e.mem, Gva(0x6000), 1, PteFlags::USER_DATA);
        // Page at 0x7000 is unmapped: a straddling write must fault whole.
        activate(&mut e.m, &asp);
        write_u64(&mut e.m, 0, &mut e.mem, Gva(0x6000), 0x1111, true).unwrap();
        let data = vec![0xaau8; 8192];
        assert!(write_bytes(&mut e.m, 0, &mut e.mem, Gva(0x6000), &data, true).is_err());
        assert_eq!(
            read_u64(&mut e.m, 0, &e.mem, Gva(0x6000), true).unwrap(),
            0x1111,
            "partial write must not be visible"
        );
    }

    // ---- The memo against the walker it stands in front of ----

    /// `ept_resolve` as it was before the memo, verbatim.
    fn eager_ept_resolve(
        m: &mut Machine,
        core: CpuId,
        mem: &HostMem,
        gpa: Gpa,
        write: bool,
        exec: bool,
    ) -> Result<Hpa, MemFault> {
        let root = m.cpu(core).ept_root;
        if root == 0 {
            return Ok(Hpa(gpa.0));
        }
        let ept = Ept { root: Hpa(root) };
        let t = ept.translate(mem, gpa)?;
        for i in 0..t.entries_read as usize {
            m.mem_access(core, t.entry_addrs[i].0, AccessKind::DataRead);
        }
        let cpu = m.cpu_mut(core);
        cpu.pmu.walk_memory_accesses += t.entries_read as u64;
        if !t.perms.allows(write, exec) {
            return Err(MemFault::EptViolation { gpa });
        }
        Ok(t.hpa)
    }

    /// `translate` as it was before the memo, verbatim: the oracle. It
    /// works every path out from the tables, records nothing and
    /// replays nothing.
    fn eager_translate(
        m: &mut Machine,
        core: CpuId,
        mem: &HostMem,
        gva: Gva,
        access: Access,
        user: bool,
    ) -> Result<Hpa, MemFault> {
        let tag = m.cpu(core).tlb_tag();
        let vpn = gva.page_number();
        let is_fetch = access == Access::Fetch;

        // TLB lookup.
        let hit = {
            let cpu = m.cpu_mut(core);
            let tlb = if is_fetch {
                &mut cpu.itlb
            } else {
                &mut cpu.dtlb
            };
            tlb.lookup(tag, vpn)
        };
        match hit {
            Some((ppn, meta)) => {
                let flags = PteFlags::from_meta(meta);
                if access.allowed_by(flags, user) {
                    pkey_check(m, core, flags, access, gva)?;
                    return Ok(Hpa(ppn << 12 | gva.page_offset()));
                }
            }
            None => {
                let cpu = m.cpu_mut(core);
                if is_fetch {
                    cpu.pmu.itlb_misses += 1;
                } else {
                    cpu.pmu.dtlb_misses += 1;
                }
            }
        }

        // Guest page walk. CR3 holds a GPA; each PTE read goes through the EPT.
        let idx = pt_indices(gva);
        let mut table_gpa = Gpa(m.cpu(core).cr3).page_base();
        for (depth, &i) in idx.iter().enumerate() {
            let pte_gpa = table_gpa.add(i as u64 * 8);
            let pte_hpa = eager_ept_resolve(m, core, mem, pte_gpa, false, false)?;
            m.mem_access(core, pte_hpa.0, AccessKind::DataRead);
            let walk_step = m.cost.walk_step;
            let cpu = m.cpu_mut(core);
            cpu.pmu.walk_memory_accesses += 1;
            cpu.tsc += walk_step;
            let (present, addr, flags) = raw::decode(mem.read_u64(pte_hpa));
            if !present {
                return Err(MemFault::NotPresent {
                    gva,
                    level: 4 - depth as u8,
                });
            }
            if depth == 3 {
                if !access.allowed_by(flags, user) {
                    return Err(access.protection_fault(gva, user));
                }
                pkey_check(m, core, flags, access, gva)?;
                let frame_hpa =
                    eager_ept_resolve(m, core, mem, addr, access == Access::Write, is_fetch)?;
                let cpu = m.cpu_mut(core);
                cpu.pmu.page_walks += 1;
                let tlb = if is_fetch {
                    &mut cpu.itlb
                } else {
                    &mut cpu.dtlb
                };
                tlb.insert(tag, vpn, frame_hpa.page_number(), flags.to_meta());
                return Ok(frame_hpa.add(gva.page_offset()));
            }
            table_gpa = addr;
        }
        unreachable!("leaf level always returns")
    }

    const CODE: Gva = Gva(0x40_0000);
    const DATA: Gva = Gva(0x50_0000);
    /// Unmapped to begin with, in the leaf table that maps `DATA`.
    const HOLE: Gva = Gva(0x50_4000);
    /// Mapped, user-writable, onto the leaf table that maps `DATA`: a
    /// guest store here edits the guest's own page table.
    const WINDOW: Gva = Gva(0x60_0000);

    /// The pages the streams below translate: code, data, read-only,
    /// supervisor-only, keyed, `HOLE` (not present at level 1 until it
    /// is mapped), `WINDOW`, and one not present at each of levels 2, 3
    /// and 4.
    const PAGES: [Gva; 11] = [
        CODE,
        Gva(0x40_1000),
        DATA,
        Gva(0x50_1000),
        Gva(0x50_2000),
        Gva(0x50_3000),
        HOLE,
        WINDOW,
        Gva(0x0100_0000),
        Gva(0x4000_0000),
        Gva(0x80_0000_0000),
    ];

    /// Two machines over one memory: `memo` is driven through
    /// [`translate`] and [`write_bytes`], `eager` through the oracle.
    struct Twin {
        memo: Machine,
        eager: Machine,
        mem: HostMem,
        spaces: [AddressSpace; 2],
        /// EPT roots a core can be pointed at: none, the 2 MiB identity
        /// base, a server EPT (space 0's CR3 resolves in space 1), and
        /// `tight`.
        roots: [u64; 4],
        /// 4 KiB identity over every frame in use, but: space 1's leaf
        /// table of `CODE` and `DATA` unmapped (a violation on a PTE
        /// read), space 0's `DATA` frame read-only and space 1's
        /// unmapped (violations on the final frame).
        tight: Ept,
        base: Ept,
        /// Two frames `HOLE` is mapped to in turn.
        spare: [Gpa; 2],
    }

    /// Two cores with 16 KiB L2s under a 64 KiB L3: small enough for a
    /// few dozen table lines to evict from every level, and to compare
    /// after every step.
    fn small_machine() -> Machine {
        let level = |size_bytes, ways| CacheConfig {
            size_bytes,
            ways,
            line_bytes: 64,
        };
        let mut m = Machine::new(MachineConfig {
            cores: 2,
            cost: CostModel::skylake(),
            l3: level(64 << 10, 16),
        });
        for cpu in &mut m.cores {
            cpu.l2 = Cache::new(level(16 << 10, 4));
        }
        m
    }

    /// Where `asp`'s leaf PTE for `gva` is (tables are identity-mapped).
    fn leaf_pte(mem: &HostMem, asp: &AddressSpace, gva: Gva) -> Hpa {
        let idx = pt_indices(gva);
        let mut table = Hpa(asp.root_gpa.0);
        for &i in &idx[..3] {
            table = Hpa(mem.read_u64(table.add(i as u64 * 8)) & 0x000f_ffff_ffff_f000);
        }
        table.add(idx[3] as u64 * 8)
    }

    impl Twin {
        fn new(mut mem: HostMem) -> Twin {
            let spaces = [1, 2].map(|pcid| {
                let asp = AddressSpace::new(&mut mem, pcid);
                asp.alloc_and_map(&mut mem, CODE, 2, PteFlags::USER_CODE);
                asp.alloc_and_map(&mut mem, DATA, 1, PteFlags::USER_DATA);
                asp.alloc_and_map(&mut mem, PAGES[3], 1, PteFlags::USER_RO);
                asp.alloc_and_map(&mut mem, PAGES[4], 1, PteFlags::KERNEL_DATA);
                asp.alloc_and_map(&mut mem, PAGES[5], 1, PteFlags::USER_DATA.with_pkey(5));
                let table = leaf_pte(&mem, &asp, DATA).page_base();
                asp.map(&mut mem, WINDOW, Gpa(table.0), PteFlags::USER_DATA);
                asp
            });
            let spare = [0, 1].map(|_| Gpa(mem.alloc_frame().0));
            let end = mem.alloc_frame().0;

            let base = Ept::new(&mut mem);
            base.map_identity_range(
                &mut mem,
                RESERVED_BYTES,
                PAGE_SIZE_1G,
                PageSize::Size2M,
                EptPerms::RWX,
            );
            let (server, _) = Ept::shallow_copy_with_remap(
                &mut mem,
                &base,
                spaces[0].root_gpa,
                Hpa(spaces[1].root_gpa.0),
            );
            let tight = Ept::new(&mut mem);
            let data = spaces.map(|asp| asp.translate_setup(&mem, DATA).unwrap().0);
            let hidden = [leaf_pte(&mem, &spaces[1], CODE).page_base().0, data[1].0];
            for at in (RESERVED_BYTES..end).step_by(PAGE_SIZE as usize) {
                let perms = match at {
                    _ if hidden.contains(&at) => continue,
                    _ if at == data[0].0 => EptPerms::R,
                    _ => EptPerms::RWX,
                };
                tight.map(&mut mem, Gpa(at), Hpa(at), PageSize::Size4K, perms);
            }
            Twin {
                memo: small_machine(),
                eager: small_machine(),
                mem,
                spaces,
                roots: [0, base.root.0, server.root.0, tight.root.0],
                tight,
                base,
                spare,
            }
        }

        /// Does the same to both machines.
        fn both(&mut self, f: impl Fn(&mut Machine)) {
            f(&mut self.memo);
            f(&mut self.eager);
        }

        /// One translation on each machine: the same answer, and (as
        /// after every step) the same machine.
        fn translate(
            &mut self,
            core: CpuId,
            gva: Gva,
            access: Access,
            user: bool,
        ) -> Result<Hpa, MemFault> {
            let got = translate(&mut self.memo, core, &self.mem, gva, access, user);
            let want = eager_translate(&mut self.eager, core, &self.mem, gva, access, user);
            assert_eq!(got, want, "{gva:?} {access:?} user={user}");
            self.assert_same();
            got
        }

        /// A guest store of `value` at `gva`: [`write_bytes`] on `memo`,
        /// and what it amounts to — translate, touch one line — by the
        /// oracle on `eager`, which goes first so that both walk the
        /// tables as they are before the bytes land.
        fn guest_store(&mut self, core: CpuId, gva: Gva, value: u64, user: bool) {
            let want = eager_translate(&mut self.eager, core, &self.mem, gva, Access::Write, user);
            if let Ok(hpa) = want {
                self.eager
                    .mem_access_span(core, hpa.0, 1, AccessKind::DataWrite);
            }
            let got = write_u64(&mut self.memo, core, &mut self.mem, gva, value, user);
            assert_eq!(got, want.map(|_| ()));
        }

        /// Tables edited, registers loaded, TLBs flushed: `kind` picks
        /// which, `a` and `b` what with.
        fn edit(&mut self, core: CpuId, kind: u8, a: usize, b: usize) {
            let asp = self.spaces[a % 2];
            let mem = &mut self.mem;
            let keyed = PAGES[5];
            match kind {
                0 => self.both(|m| m.cpu_mut(core).load_cr3(asp.root_gpa.0, asp.pcid)),
                1 => {
                    let root = self.roots[b % 4];
                    self.both(|m| m.cpu_mut(core).load_eptp(root));
                }
                2 => {
                    let pkru = [0, 1 << 10, 1 << 11, 1 << 6][b % 4];
                    self.both(|m| m.cpu_mut(core).write_pkru(pkru));
                }
                3 => asp.map(mem, HOLE, self.spare[b % 2], PteFlags::USER_DATA),
                4 => asp.unmap(mem, HOLE),
                5 => asp.protect(mem, DATA, [PteFlags::USER_DATA, PteFlags::USER_RO][b % 2]),
                6 => asp.protect(mem, keyed, PteFlags::USER_DATA.with_pkey([5, 3][b % 2])),
                // The tight EPT's view of one frame: a data frame's
                // permissions, or a leaf table's (space 1's starts
                // hidden).
                7 => {
                    let frame = asp.translate_setup(mem, DATA).unwrap().0;
                    let perms = [EptPerms::R, EptPerms::RWX, EptPerms::RW][b % 3];
                    let (gpa, hpa) = (Gpa(frame.0), Hpa(frame.0));
                    self.tight.map(mem, gpa, hpa, PageSize::Size4K, perms);
                }
                8 => {
                    let table = leaf_pte(mem, &asp, CODE).page_base();
                    let perms = [EptPerms::RWX, EptPerms::R][b % 2];
                    let (gpa, hpa) = (Gpa(table.0), Hpa(table.0));
                    self.tight
                        .map_keyed(mem, gpa, hpa, PageSize::Size4K, perms, 7);
                }
                // A fresh server EPT, remapping space 0's CR3 to either
                // space's tables.
                9 => {
                    let to = Hpa(asp.root_gpa.0);
                    let from = self.spaces[0].root_gpa;
                    self.roots[2] = Ept::shallow_copy_with_remap(mem, &self.base, from, to)
                        .0
                        .root
                        .0;
                }
                // The write bit of a leaf PTE flipped behind the
                // walker's back, three ways: a word, a slice, a guest
                // store through the window onto the table.
                10 | 11 => {
                    let pte = leaf_pte(mem, &asp, PAGES[3 + b % 3]);
                    let entry = mem.read_u64(pte) ^ 2;
                    if kind == 10 {
                        mem.write_u64(pte, entry);
                    } else {
                        mem.write_slice(pte, &entry.to_le_bytes());
                    }
                }
                12 => {
                    // Whichever table the core's CR3 and EPT make of it.
                    let slot = (DATA.page_number() & 0x1ff) + 1 + b as u64 % 3;
                    let entry = mem.read_u64(leaf_pte(mem, &asp, PAGES[3 + b % 3])) ^ 2;
                    self.guest_store(core, WINDOW.add(slot * 8), entry, a % 4 != 1);
                }
                13 => self.both(|m| m.cpu_mut(core).dtlb.flush_all()),
                14 => self.both(|m| m.cpu_mut(core).itlb.flush_all()),
                15 => self.both(|m| {
                    let tag = m.cpu(core).tlb_tag();
                    m.cpu_mut(core).dtlb.flush_tag(tag);
                }),
                _ => self.both(|m| {
                    let tag = m.cpu(core).tlb_tag();
                    let cpu = m.cpu_mut(core);
                    cpu.dtlb
                        .flush_page(tag, PAGES[a % PAGES.len()].page_number());
                }),
            }
        }

        /// Clocks, PMUs, both TLBs and every cache level, slot for slot
        /// and stamp for stamp — which is their contents in LRU order
        /// and more.
        fn assert_same(&self) {
            for (memo, eager) in self.memo.cores.iter().zip(&self.eager.cores) {
                assert_eq!((memo.tsc, memo.pmu), (eager.tsc, eager.pmu));
                assert!(memo == eager, "core {}'s TLBs or caches differ", memo.id);
            }
            assert!(self.memo.l3 == self.eager.l3, "the L3s differ");
        }

        /// Every walk was either answered or recorded — or faulted.
        fn walks(&self) -> u64 {
            self.memo.cores.iter().map(|c| c.pmu.page_walks).sum()
        }
    }

    /// `(kind, core, a, b)`: out of a hundred steps, sixty-five
    /// translations (three in four of a page that is mapped), some
    /// thirty TLB flushes (what sends a repeated translation back to the
    /// walker), four register loads and up to three edits of the tables
    /// (each of which voids the memo).
    type Step = (u8, usize, usize, usize);

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        proptest::collection::vec((0u8..100, 0usize..2, 0usize..64, 0usize..64), 1..320)
    }

    /// Drives the twins by `steps` over a memo of `slots` entries and
    /// compares them after each. `edits` in a hundred steps edit the
    /// tables.
    fn assert_memo_matches_eager(slots: usize, edits: u8, steps: Vec<Step>) {
        let mut t = Twin::new(HostMem::with_walk_slots(slots));
        for core in 0..2 {
            t.edit(core, 0, core, 0);
        }
        for (kind, core, a, b) in steps {
            match kind {
                0..=64 => {
                    let page = if a % 4 == 0 {
                        a / 4
                    } else {
                        [0, 2, 2, 3, 5, 7][a % 6]
                    };
                    let gva = PAGES[page % PAGES.len()].add(b as u64 * 8);
                    let access = [Access::Read, Access::Write, Access::Read, Access::Fetch][b % 4];
                    let _ = t.translate(core, gva, access, a % 8 != 1);
                    continue;
                }
                _ if kind >= 100 - edits => t.edit(core, 3 + (a / 2 % 10) as u8, a, b),
                65..=68 => t.edit(core, kind % 3, a, b),
                _ => t.edit(core, 13 + kind % 4, a, b),
            }
            t.assert_same();
        }
        let stats = t.mem.walk_memo_stats();
        assert_eq!(stats.answered + stats.installed, t.walks());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever is translated, mapped, unmapped, re-flagged, poked,
        /// stored, loaded and flushed in between, a machine walking
        /// through the memo and one walking eagerly cannot be told apart.
        #[test]
        fn the_walk_memo_changes_nothing_a_caller_can_see(edits in 0u8..4, steps in steps()) {
            assert_memo_matches_eager(512, edits, steps);
        }

        /// The same with a memo of one slot: every install lands on the
        /// walk before it.
        #[test]
        fn a_walk_memo_of_one_slot_changes_nothing_either(edits in 0u8..4, steps in steps()) {
            assert_memo_matches_eager(1, edits, steps);
        }
    }

    /// A frame that is a table the walk reads *and* is written on every
    /// call: the epoch moves each time, the memo never answers, and
    /// nothing else changes.
    #[test]
    fn a_table_written_on_every_call_silences_the_memo_and_nothing_else() {
        let mut t = Twin::new(HostMem::new());
        t.edit(0, 0, 0, 0);
        t.edit(0, 1, 0, 2);
        let pte = leaf_pte(&t.mem, &t.spaces[1], DATA);
        for call in 1..=50 {
            t.translate(0, DATA, Access::Read, true).unwrap();
            let entry = t.mem.read_u64(pte);
            t.mem.write_u64(pte, entry);
            t.edit(0, 13, 0, 0);
            let stats = t.mem.walk_memo_stats();
            assert_eq!((stats.answered, stats.installed), (0, call));
            assert_eq!(stats.invalidated, call);
        }
        // Left alone, the same walk is answered from then on.
        for _ in 0..50 {
            t.translate(0, DATA, Access::Read, true).unwrap();
            t.edit(0, 13, 0, 0);
        }
        let stats = t.mem.walk_memo_stats();
        assert_eq!((stats.answered, stats.installed), (49, 51));
    }

    /// The server-EPT CR3 remap: one `(CR3, page)` under two EPT roots
    /// is two walks to two frames, and the memo answers each with its
    /// own — or, with one slot for the two to fight over, neither.
    #[test]
    fn one_cr3_under_two_ept_roots_is_two_memoised_walks() {
        for slots in [512, 1] {
            let mut t = Twin::new(HostMem::with_walk_slots(slots));
            t.edit(0, 0, 0, 0);
            let own = t
                .spaces
                .map(|asp| asp.translate_setup(&t.mem, DATA).unwrap().0);
            assert_ne!(own[0], own[1]);
            for _ in 0..3 {
                for root in [1, 2] {
                    t.edit(0, 1, 0, root);
                    t.edit(0, 13, 0, 0);
                    let hpa = t.translate(0, DATA, Access::Write, true).unwrap();
                    assert_eq!(hpa.0, own[root - 1].0);
                }
            }
            let stats = t.mem.walk_memo_stats();
            let want = if slots == 1 { (0, 6) } else { (4, 2) };
            assert_eq!((stats.answered, stats.installed), want);
        }
    }

    /// An EPT edited under a recorded walk — a frame's permissions taken
    /// away, a table frame remapped — voids the record like a page-table
    /// edit does: EPT frames are watched too.
    #[test]
    fn an_ept_edit_voids_the_walks_that_read_it() {
        let mut t = Twin::new(HostMem::new());
        t.edit(0, 0, 0, 0);
        t.edit(0, 1, 0, 3);
        t.edit(0, 7, 0, 1);
        for _ in 0..2 {
            t.translate(0, DATA, Access::Write, true).unwrap();
            t.edit(0, 13, 0, 0);
        }
        assert_eq!(t.mem.walk_memo_stats().answered, 1);
        // Read-only at the EPT from here on.
        t.edit(0, 7, 0, 0);
        let write = t.translate(0, DATA, Access::Write, true);
        assert!(matches!(write, Err(MemFault::EptViolation { .. })));
        // The leaf table's frame now resolves to space 1's leaf table.
        t.translate(0, DATA, Access::Read, true).unwrap();
        let tables = t.spaces.map(|asp| leaf_pte(&t.mem, &asp, DATA).page_base());
        let (gpa, hpa) = (Gpa(tables[0].0), tables[1]);
        t.tight
            .map(&mut t.mem, gpa, hpa, PageSize::Size4K, EptPerms::RWX);
        t.edit(0, 13, 0, 0);
        // Space 1's `DATA` frame is not mapped in the tight EPT.
        let read = t.translate(0, DATA, Access::Read, true);
        assert!(matches!(read, Err(MemFault::EptViolation { .. })));
        assert_eq!(t.mem.walk_memo_stats().answered, 1);
    }

    /// A record packs CR3's page and the frame's into 32 bits each. A
    /// walk from a wider CR3, or to a wider frame, is made eagerly every
    /// time and never mistaken for the walk its low bits spell.
    #[test]
    fn keys_and_frames_too_wide_for_a_record_are_walked_eagerly() {
        let mut t = Twin::new(HostMem::new());
        let wide = 1u64 << 44;
        // Without an EPT a frame can be anywhere: `HOLE` is mapped 16 TiB
        // above `DATA`'s frame.
        let data = t.spaces[0].translate_setup(&t.mem, DATA).unwrap().0;
        t.spaces[0].map(&mut t.mem, HOLE, Gpa(data.0 + wide), PteFlags::USER_DATA);
        t.edit(0, 0, 0, 0);
        for _ in 0..3 {
            let low = t.translate(0, DATA, Access::Read, true).unwrap();
            let high = t.translate(0, HOLE, Access::Read, true).unwrap();
            assert_eq!(high.0, low.0 + wide);
            t.edit(0, 13, 0, 0);
        }
        let stats = t.mem.walk_memo_stats();
        assert_eq!((stats.answered, stats.installed), (2, 1));

        // Under the tight EPT, space 1's tables (the leaf table shown
        // first) also answer to space 0's CR3 plus 16 TiB.
        t.edit(0, 8, 1, 0);
        let (alias, root) = (
            Gpa(t.spaces[0].root_gpa.0 + wide),
            Hpa(t.spaces[1].root_gpa.0),
        );
        t.tight
            .map(&mut t.mem, alias, root, PageSize::Size4K, EptPerms::RWX);
        t.edit(0, 1, 0, 3);
        let page = PAGES[3];
        let own = t
            .spaces
            .map(|asp| asp.translate_setup(&t.mem, page).unwrap().0);
        for _ in 0..3 {
            for (cr3, frame) in [(t.spaces[0].root_gpa.0, own[0]), (alias.0, own[1])] {
                t.both(|m| m.cpu_mut(0).load_cr3(cr3, 1));
                t.edit(0, 13, 0, 0);
                let hpa = t.translate(0, page, Access::Read, true).unwrap();
                assert_eq!(hpa.0, frame.0);
            }
        }
        let stats = t.mem.walk_memo_stats();
        assert_eq!((stats.answered, stats.installed), (2 + 2, 1 + 1));
    }

    /// A walk that faulted is not recorded, whichever check failed it;
    /// and a recorded walk does not answer an access it would fault.
    #[test]
    fn faults_are_neither_recorded_nor_answered() {
        let mut t = Twin::new(HostMem::new());
        t.edit(0, 0, 0, 0);
        t.edit(0, 1, 0, 3);
        t.edit(0, 2, 0, 1);
        let faulting = [
            (HOLE, Access::Read, true),        // not present
            (PAGES[3], Access::Write, true),   // read-only
            (PAGES[4], Access::Read, true),    // supervisor-only
            (PAGES[5], Access::Read, true),    // key 5 denied
            (DATA, Access::Write, true),       // the EPT says read-only
            (PAGES[10], Access::Fetch, false), // no PML4 entry
        ];
        for (gva, access, user) in faulting {
            assert!(t.translate(0, gva, access, user).is_err());
        }
        t.edit(0, 0, 1, 0);
        // Space 1's leaf table is hidden from the tight EPT.
        let hidden = t.translate(0, CODE, Access::Fetch, true);
        assert!(matches!(hidden, Err(MemFault::EptViolation { .. })));
        assert_eq!(t.mem.walk_memo_stats(), Default::default());

        // A read records the walk; a write that misses the TLB finds
        // the record and must still fault, at the EPT.
        t.edit(0, 0, 0, 0);
        t.translate(0, DATA, Access::Read, true).unwrap();
        for _ in 0..2 {
            t.edit(0, 13, 0, 0);
            let write = t.translate(0, DATA, Access::Write, true);
            assert!(matches!(write, Err(MemFault::EptViolation { .. })));
        }
        let stats = t.mem.walk_memo_stats();
        assert_eq!((stats.answered, stats.installed), (0, 1));
    }
}
