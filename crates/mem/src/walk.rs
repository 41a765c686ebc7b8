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

use sb_sim::{AccessKind, CpuId, Machine};

use crate::{
    addr::{pt_indices, Gpa, Gva, Hpa, PAGE_SIZE},
    ept::Ept,
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

/// Translates one GPA through the core's active EPT, charging the entry
/// reads. Identity (free) when no EPT is active.
fn ept_resolve(
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

    // Guest page walk. CR3 holds a GPA; each PTE read goes through the EPT.
    let idx = pt_indices(gva);
    let mut table_gpa = Gpa(m.cpu(core).cr3).page_base();
    for (depth, &i) in idx.iter().enumerate() {
        let pte_gpa = table_gpa.add(i as u64 * 8);
        let pte_hpa = ept_resolve(m, core, mem, pte_gpa, false, false)?;
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
            let frame_hpa = ept_resolve(m, core, mem, addr, access == Access::Write, is_fetch)?;
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

/// Convenience: writes a guest-virtual little-endian `u64`.
pub fn write_u64(
    m: &mut Machine,
    core: CpuId,
    mem: &mut HostMem,
    gva: Gva,
    value: u64,
    user: bool,
) -> Result<(), MemFault> {
    write_bytes(m, core, mem, gva, &value.to_le_bytes(), user)
}

#[cfg(test)]
mod tests {
    use sb_sim::Machine;

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
}
