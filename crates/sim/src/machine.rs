//! The whole simulated machine: cores, shared L3, IPIs.
//!
//! [`Machine`] is the single entry point the upper layers use to charge
//! time and memory traffic. Every simulated memory access — instruction
//! fetch, data access, page-walk step — funnels through
//! [`Machine::mem_access`], which walks the private L1/L2 of the issuing
//! core and the shared L3, charges the hit/miss latencies from the
//! [`CostModel`], and updates the core's PMU. Cross-core interactions (IPIs)
//! join per-core clocks explicitly.

use crate::{
    cache::{AccessKind, Cache, CacheConfig},
    core::{Cpu, CpuId},
    cost::CostModel,
    pmu::Pmu,
    Cycles,
};

/// Configuration of a [`Machine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of logical cores. The paper's i7-6700K exposes 8 hardware
    /// threads (4 cores, hyper-threading on).
    pub cores: usize,
    /// Direct-cost calibration.
    pub cost: CostModel,
    /// Shared L3 geometry.
    pub l3: CacheConfig,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 8,
            cost: CostModel::skylake(),
            l3: CacheConfig::skylake_l3(),
        }
    }
}

/// The simulated machine.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Direct-cost model.
    pub cost: CostModel,
    /// Per-core state.
    pub cores: Vec<Cpu>,
    /// Shared last-level cache.
    pub l3: Cache,
}

impl Machine {
    /// Builds a cold machine.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores` is zero.
    pub fn new(config: MachineConfig) -> Self {
        assert!(config.cores > 0, "a machine needs at least one core");
        Machine {
            cost: config.cost,
            cores: (0..config.cores).map(Cpu::new_skylake).collect(),
            l3: Cache::new(config.l3),
        }
    }

    /// A machine with the paper's default configuration.
    pub fn skylake() -> Self {
        Self::new(MachineConfig::default())
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Immutable access to one core.
    pub fn cpu(&self, id: CpuId) -> &Cpu {
        &self.cores[id]
    }

    /// Mutable access to one core.
    pub fn cpu_mut(&mut self, id: CpuId) -> &mut Cpu {
        &mut self.cores[id]
    }

    /// Performs one memory access at host-physical address `hpa` on behalf
    /// of `core`, walking L1 → L2 → L3 → DRAM.
    ///
    /// Each level is filled on a miss (the hierarchy is modeled as
    /// inclusive on fills). The hit/miss latencies from the cost model are
    /// charged to the core's clock and the latency is returned.
    pub fn mem_access(&mut self, core: CpuId, hpa: u64, kind: AccessKind) -> Cycles {
        let cpu = &mut self.cores[core];
        let mut latency = self.cost.l1_hit;
        let l1_hit = if kind.is_instruction() {
            let hit = cpu.l1i.access(hpa);
            if !hit {
                cpu.pmu.l1i_misses += 1;
            }
            hit
        } else {
            let hit = cpu.l1d.access(hpa);
            if !hit {
                cpu.pmu.l1d_misses += 1;
            }
            hit
        };
        if !l1_hit {
            latency += self.cost.l2_hit;
            if !cpu.l2.access(hpa) {
                cpu.pmu.l2_misses += 1;
                latency += self.cost.l3_hit;
                if !self.l3.access(hpa) {
                    cpu.pmu.l3_misses += 1;
                    latency += self.cost.dram;
                }
            }
        }
        cpu.tsc += latency;
        latency
    }

    /// Sends an IPI from `from` to `to`.
    ///
    /// The sender's clock advances by the full measured IPI cost (1913
    /// cycles, §2.1.3 — the paper measures send-to-remote-handler), and the
    /// receiver's clock is joined to the delivery instant: the remote core
    /// cannot handle the interrupt before it was sent.
    ///
    /// # Panics
    ///
    /// Panics if `from == to`; a self-IPI is never used by any modeled
    /// kernel path.
    pub fn ipi(&mut self, from: CpuId, to: CpuId) {
        assert_ne!(from, to, "self-IPI is not modeled");
        let delivery = self.cores[from].tsc + self.cost.ipi;
        self.cores[from].tsc = delivery;
        self.cores[from].pmu.ipis += 1;
        let rx = &mut self.cores[to];
        rx.tsc = rx.tsc.max(delivery);
    }

    /// Joins `core`'s clock to at least `time` (used when a core waits for
    /// an event produced on another core) and returns the waiting time.
    pub fn wait_until(&mut self, core: CpuId, time: Cycles) -> Cycles {
        let cpu = &mut self.cores[core];
        let waited = time.saturating_sub(cpu.tsc);
        cpu.tsc = cpu.tsc.max(time);
        waited
    }

    /// Sum of all per-core PMUs.
    pub fn pmu_total(&self) -> Pmu {
        self.cores
            .iter()
            .fold(Pmu::new(), |acc, cpu| acc.merge(&cpu.pmu))
    }

    /// The maximum per-core clock — "wall-clock" simulated time.
    pub fn wall_clock(&self) -> Cycles {
        self.cores.iter().map(|c| c.tsc).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::skylake()
    }

    #[test]
    fn cold_access_costs_full_hierarchy() {
        let mut m = machine();
        let c = m.cost.clone();
        let cold = m.mem_access(0, 0x4000, AccessKind::DataRead);
        assert_eq!(cold, c.l1_hit + c.l2_hit + c.l3_hit + c.dram);
        let warm = m.mem_access(0, 0x4000, AccessKind::DataRead);
        assert_eq!(warm, c.l1_hit);
    }

    #[test]
    fn fills_are_inclusive_down_the_hierarchy() {
        let mut m = machine();
        m.mem_access(0, 0x4000, AccessKind::DataRead);
        assert!(m.cores[0].l1d.probe(0x4000));
        assert!(m.cores[0].l2.probe(0x4000));
        assert!(m.l3.probe(0x4000));
    }

    #[test]
    fn l3_is_shared_between_cores() {
        let mut m = machine();
        let c = m.cost.clone();
        m.mem_access(0, 0x4000, AccessKind::DataRead);
        // Core 1 misses its private levels but hits the shared L3.
        let lat = m.mem_access(1, 0x4000, AccessKind::DataRead);
        assert_eq!(lat, c.l1_hit + c.l2_hit + c.l3_hit);
    }

    #[test]
    fn instruction_fetches_use_l1i() {
        let mut m = machine();
        m.mem_access(0, 0x4000, AccessKind::InstructionFetch);
        assert_eq!(m.cores[0].pmu.l1i_misses, 1);
        assert_eq!(m.cores[0].pmu.l1d_misses, 0);
        assert!(m.cores[0].l1i.probe(0x4000));
        assert!(!m.cores[0].l1d.probe(0x4000));
    }

    #[test]
    fn ipi_joins_clocks() {
        let mut m = machine();
        m.cores[0].tsc = 1000;
        m.cores[1].tsc = 100;
        m.ipi(0, 1);
        assert_eq!(m.cores[0].tsc, 1000 + m.cost.ipi);
        assert_eq!(m.cores[1].tsc, 1000 + m.cost.ipi);
        assert_eq!(m.cores[0].pmu.ipis, 1);
    }

    #[test]
    fn ipi_does_not_rewind_a_busy_receiver() {
        let mut m = machine();
        m.cores[1].tsc = 1_000_000;
        m.ipi(0, 1);
        assert_eq!(m.cores[1].tsc, 1_000_000);
    }

    #[test]
    fn wait_until_reports_waited_time() {
        let mut m = machine();
        m.cores[0].tsc = 50;
        assert_eq!(m.wait_until(0, 80), 30);
        assert_eq!(m.wait_until(0, 10), 0);
        assert_eq!(m.cores[0].tsc, 80);
    }

    #[test]
    #[should_panic(expected = "self-IPI")]
    fn self_ipi_panics() {
        let mut m = machine();
        m.ipi(2, 2);
    }
}
