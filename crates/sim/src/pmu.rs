//! Performance-monitoring-unit counters.
//!
//! The paper's Table 1 is produced with the Intel PMU: counts of i-cache,
//! d-cache, L2, L3, i-TLB and d-TLB misses across 512 KV-store operations
//! under three process layouts. This module is the simulated equivalent: a
//! snapshot-able bundle of event counters that the machine increments as the
//! caches and TLBs report misses, plus the event counters the other tables
//! need (VM exits for Table 5, IPIs for §6.5).

/// A bundle of event counters.
///
/// Counters only ever increase; benches copy the `Pmu` before a region
/// and take the [`Pmu::delta`] after it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pmu {
    /// L1 instruction-cache misses.
    pub l1i_misses: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// Unified L2 misses.
    pub l2_misses: u64,
    /// Shared L3 misses.
    pub l3_misses: u64,
    /// Instruction-TLB misses.
    pub itlb_misses: u64,
    /// Data-TLB misses.
    pub dtlb_misses: u64,
    /// Completed page walks (each walk also costs memory accesses).
    pub page_walks: u64,
    /// Memory accesses performed by page walks (the 2-level translation
    /// inflation of §4.1: up to 24 per walk under virtualization).
    pub walk_memory_accesses: u64,
    /// Inter-processor interrupts delivered.
    pub ipis: u64,
    /// VM exits taken to the Rootkernel.
    pub vm_exits: u64,
    /// `VMFUNC` invocations.
    pub vmfuncs: u64,
    /// User/kernel mode switches (SYSCALL edges).
    pub mode_switches: u64,
    /// CR3 loads.
    pub cr3_writes: u64,
    /// `WRPKRU` executions (MPK protection-domain switches).
    pub wrpkru_writes: u64,
}

impl Pmu {
    /// A zeroed counter bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Component-wise difference `self - earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not actually earlier (any
    /// counter would go negative).
    pub fn delta(&self, earlier: &Pmu) -> Pmu {
        Pmu {
            l1i_misses: self.l1i_misses - earlier.l1i_misses,
            l1d_misses: self.l1d_misses - earlier.l1d_misses,
            l2_misses: self.l2_misses - earlier.l2_misses,
            l3_misses: self.l3_misses - earlier.l3_misses,
            itlb_misses: self.itlb_misses - earlier.itlb_misses,
            dtlb_misses: self.dtlb_misses - earlier.dtlb_misses,
            page_walks: self.page_walks - earlier.page_walks,
            walk_memory_accesses: self.walk_memory_accesses - earlier.walk_memory_accesses,
            ipis: self.ipis - earlier.ipis,
            vm_exits: self.vm_exits - earlier.vm_exits,
            vmfuncs: self.vmfuncs - earlier.vmfuncs,
            mode_switches: self.mode_switches - earlier.mode_switches,
            cr3_writes: self.cr3_writes - earlier.cr3_writes,
            wrpkru_writes: self.wrpkru_writes - earlier.wrpkru_writes,
        }
    }

    /// Component-wise sum (for aggregating per-core PMUs).
    pub fn merge(&self, other: &Pmu) -> Pmu {
        Pmu {
            l1i_misses: self.l1i_misses + other.l1i_misses,
            l1d_misses: self.l1d_misses + other.l1d_misses,
            l2_misses: self.l2_misses + other.l2_misses,
            l3_misses: self.l3_misses + other.l3_misses,
            itlb_misses: self.itlb_misses + other.itlb_misses,
            dtlb_misses: self.dtlb_misses + other.dtlb_misses,
            page_walks: self.page_walks + other.page_walks,
            walk_memory_accesses: self.walk_memory_accesses + other.walk_memory_accesses,
            ipis: self.ipis + other.ipis,
            vm_exits: self.vm_exits + other.vm_exits,
            vmfuncs: self.vmfuncs + other.vmfuncs,
            mode_switches: self.mode_switches + other.mode_switches,
            cr3_writes: self.cr3_writes + other.cr3_writes,
            wrpkru_writes: self.wrpkru_writes + other.wrpkru_writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_componentwise() {
        let mut a = Pmu::new();
        a.l1i_misses = 10;
        a.ipis = 3;
        let before = a;
        a.l1i_misses += 5;
        a.ipis += 1;
        let d = a.delta(&before);
        assert_eq!(d.l1i_misses, 5);
        assert_eq!(d.ipis, 1);
        assert_eq!(d.l3_misses, 0);
    }

    #[test]
    fn merge_adds() {
        let mut a = Pmu::new();
        a.vm_exits = 2;
        let mut b = Pmu::new();
        b.vm_exits = 3;
        b.dtlb_misses = 7;
        let m = a.merge(&b);
        assert_eq!(m.vm_exits, 5);
        assert_eq!(m.dtlb_misses, 7);
    }
}
