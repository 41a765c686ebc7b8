//! Per-core processor state.
//!
//! A [`Cpu`] models one logical core of the evaluation machine: its own time
//! stamp counter, privilege level, virtualization mode, control registers,
//! private L1i/L1d/L2 caches, instruction and data TLBs, and PMU counters.
//! The shared L3 lives in [`crate::machine::Machine`].

use crate::{
    cache::{Cache, CacheConfig, MEMO_ENTRIES},
    pmu::Pmu,
    tlb::{Tlb, TlbConfig, TlbTag},
    Cycles,
};

/// Index of a core within the machine.
pub type CpuId = usize;

/// Whether the core currently executes in VMX root or non-root mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuMode {
    /// Bare metal, or the Rootkernel itself.
    Root,
    /// Guest execution under the Rootkernel (where `VMFUNC` is legal).
    NonRoot,
}

/// x86 privilege ring, reduced to the two levels that matter here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivilegeLevel {
    /// Ring 0.
    Kernel,
    /// Ring 3.
    User,
}

/// One simulated core. Equal to another when its registers, clock and
/// PMU are and its caches and TLBs went through the same history
/// (see [`Cache`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cpu {
    /// This core's index.
    pub id: CpuId,
    /// This core's cycle counter (per-core simulated time).
    pub tsc: Cycles,
    /// VMX mode.
    pub mode: CpuMode,
    /// Current ring.
    pub priv_level: PrivilegeLevel,
    /// Guest-physical address of the active page-table root, with the PCID
    /// in the low 12 bits masked out (we track PCID separately).
    pub cr3: u64,
    /// Active process-context identifier.
    pub pcid: u16,
    /// Host-physical address of the active EPT root (0 when the core runs
    /// without an EPT, i.e. before the Rootkernel self-virtualizes).
    pub ept_root: u64,
    /// Protection-key rights register: two bits per 4-bit pkey —
    /// access-disable at bit `2k`, write-disable at bit `2k + 1`. Zero
    /// (reset state) permits everything, so pkey-oblivious paths are
    /// unaffected; the MPK personality flips it with `WRPKRU` to cross
    /// protection domains inside one address space.
    pub pkru: u32,
    /// Private L1 instruction cache.
    pub l1i: Cache,
    /// Private L1 data cache.
    pub l1d: Cache,
    /// Private unified L2.
    pub l2: Cache,
    /// Instruction TLB.
    pub itlb: Tlb,
    /// Data TLB.
    pub dtlb: Tlb,
    /// This core's event counters.
    pub pmu: Pmu,
}

impl Cpu {
    /// Creates a cold core with Skylake-geometry private caches and TLBs.
    pub fn new_skylake(id: CpuId) -> Self {
        Cpu {
            id,
            tsc: 0,
            mode: CpuMode::Root,
            priv_level: PrivilegeLevel::Kernel,
            cr3: 0,
            pcid: 0,
            ept_root: 0,
            pkru: 0,
            l1i: Cache::with_run_memo(CacheConfig::skylake_l1i(), MEMO_ENTRIES),
            l1d: Cache::new(CacheConfig::skylake_l1d()),
            l2: Cache::new(CacheConfig::skylake_l2()),
            itlb: Tlb::new(TlbConfig::skylake_itlb()),
            dtlb: Tlb::new(TlbConfig::skylake_dtlb()),
            pmu: Pmu::new(),
        }
    }

    /// The TLB tag under which this core currently caches translations:
    /// the (PCID, EPT root) pair, mirroring hardware (VPID, PCID, EPTRTA)
    /// tagging.
    pub fn tlb_tag(&self) -> TlbTag {
        TlbTag {
            pcid: self.pcid,
            ept_root: self.ept_root,
        }
    }

    /// Advances this core's clock.
    pub fn advance(&mut self, cycles: Cycles) {
        self.tsc += cycles;
    }

    /// Loads a new page-table root.
    ///
    /// With PCID enabled (always, on our model) this does not flush the
    /// TLB; stale entries simply become unreachable under the new tag.
    /// Charges nothing — callers charge [`crate::cost::CostModel::cr3_write`]
    /// so that kernel paths can account it to the right breakdown bucket.
    pub fn load_cr3(&mut self, cr3: u64, pcid: u16) {
        self.cr3 = cr3;
        self.pcid = pcid;
        self.pmu.cr3_writes += 1;
    }

    /// Switches the active EPT root (the effect of `VMFUNC(0, idx)` after
    /// validation by the Rootkernel). With VPID enabled this does not flush
    /// the TLB.
    pub fn load_eptp(&mut self, ept_root: u64) {
        self.ept_root = ept_root;
    }

    /// Reloads the protection-key rights register (`WRPKRU`).
    ///
    /// No TLB or cache effect — pkeys are checked at access time against
    /// the live register, which is exactly why the flip is cheap. Charges
    /// nothing, mirroring [`Cpu::load_cr3`]: callers charge
    /// [`crate::cost::CostModel::wrpkru`] so the crossing lands in the
    /// right breakdown bucket.
    pub fn write_pkru(&mut self, pkru: u32) {
        self.pkru = pkru;
        self.pmu.wrpkru_writes += 1;
    }

    /// True if the live PKRU denies `write` access (or any access) under
    /// protection key `key` (4 bits): access-disable at bit `2k` blocks
    /// everything, write-disable at bit `2k + 1` blocks writes.
    pub fn pkey_denies(&self, key: u8, write: bool) -> bool {
        let k = (key & 0xf) as u32;
        let ad = self.pkru >> (2 * k) & 1 != 0;
        let wd = self.pkru >> (2 * k + 1) & 1 != 0;
        ad || (write && wd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_tracks_cr3_and_ept() {
        let mut cpu = Cpu::new_skylake(0);
        cpu.load_cr3(0x5000, 3);
        assert_eq!(
            cpu.tlb_tag(),
            TlbTag {
                pcid: 3,
                ept_root: 0
            }
        );
        cpu.load_eptp(0x9000);
        assert_eq!(
            cpu.tlb_tag(),
            TlbTag {
                pcid: 3,
                ept_root: 0x9000
            }
        );
    }

    #[test]
    fn cr3_load_does_not_flush_tlb() {
        let mut cpu = Cpu::new_skylake(0);
        let tag = cpu.tlb_tag();
        cpu.dtlb.insert(tag, 0x10, 0x99, 0);
        cpu.load_cr3(0x8000, 9);
        // Entry survives; it is just unreachable under the new tag.
        assert_eq!(cpu.dtlb.resident(), 1);
        assert_eq!(cpu.dtlb.lookup(cpu.tlb_tag(), 0x10), None);
    }

    #[test]
    fn advance_accumulates() {
        let mut cpu = Cpu::new_skylake(1);
        cpu.advance(10);
        cpu.advance(5);
        assert_eq!(cpu.tsc, 15);
    }

    #[test]
    fn reset_pkru_permits_everything() {
        let cpu = Cpu::new_skylake(0);
        assert_eq!(cpu.pkru, 0);
        for key in 0..16u8 {
            assert!(!cpu.pkey_denies(key, false));
            assert!(!cpu.pkey_denies(key, true));
        }
    }

    #[test]
    fn wrpkru_sets_rights_and_counts() {
        let mut cpu = Cpu::new_skylake(0);
        // Deny all access to key 2, writes only to key 5.
        cpu.write_pkru(1 << 4 | 1 << 11);
        assert_eq!(cpu.pmu.wrpkru_writes, 1);
        assert!(cpu.pkey_denies(2, false));
        assert!(cpu.pkey_denies(2, true));
        assert!(!cpu.pkey_denies(5, false));
        assert!(cpu.pkey_denies(5, true));
        assert!(!cpu.pkey_denies(0, true));
        cpu.write_pkru(0);
        assert_eq!(cpu.pmu.wrpkru_writes, 2);
        assert!(!cpu.pkey_denies(2, true));
    }
}
