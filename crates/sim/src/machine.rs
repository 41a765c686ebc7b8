//! The whole simulated machine: cores, shared L3, IPIs.
//!
//! [`Machine`] is the single entry point the upper layers use to charge
//! time and memory traffic. Every simulated memory access — instruction
//! fetch, data access, page-walk step — funnels through
//! [`Machine::mem_access_span`] (a run of lines; [`Machine::mem_access`] is
//! the one-line case, [`Machine::mem_access_each`] the case of lines that
//! are not neighbours), which walks the private L1/L2 of the issuing core
//! and the shared L3, charges the hit/miss latencies from the
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

    /// Performs `lines` memory accesses on behalf of `core`, one to each
    /// of `lines` consecutive 64-byte lines starting with the one that
    /// holds host-physical address `hpa`, each walking L1 → L2 → L3 →
    /// DRAM before the next is issued.
    ///
    /// Each level is filled on a miss (the hierarchy is modeled as
    /// inclusive on fills). The hit/miss latencies from the cost model are
    /// charged to the core's clock and their sum is returned. Zero lines
    /// is a no-op.
    ///
    /// # Panics
    ///
    /// Panics, before any cache, counter or clock changed, if `core` does
    /// not exist or the last line lies beyond [`crate::PADDR_BITS`].
    pub fn mem_access_span(
        &mut self,
        core: CpuId,
        hpa: u64,
        lines: usize,
        kind: AccessKind,
    ) -> Cycles {
        // A run of one (an 8-byte read, a PTE) takes the copy below that
        // has no loop to set up.
        if lines == 1 {
            return self.mem_access(core, hpa, kind);
        }
        self.runs(core, [(hpa, lines as u64)], kind)
    }

    /// Performs one memory access at host-physical address `hpa` on behalf
    /// of `core`: [`Machine::mem_access_span`] compiled for a run of one,
    /// with no loop around the line.
    pub fn mem_access(&mut self, core: CpuId, hpa: u64, kind: AccessKind) -> Cycles {
        self.runs(core, [(hpa, 1)], kind)
    }

    /// Performs one memory access at each of `hpas`, in order, as so many
    /// calls of [`Machine::mem_access`] would — with the core, its L1 and
    /// the latencies looked up once, and the clock and PMU written once.
    ///
    /// # Panics
    ///
    /// Panics if `core` does not exist, before anything changed; and at
    /// the first address beyond [`crate::PADDR_BITS`], with the accesses
    /// before it made and counted in the caches but not yet charged.
    pub fn mem_access_each(
        &mut self,
        core: CpuId,
        hpas: impl IntoIterator<Item = u64>,
        kind: AccessKind,
    ) -> Cycles {
        self.runs(core, hpas.into_iter().map(|hpa| (hpa, 1)), kind)
    }

    /// The one hierarchy walk, under the three entry points above: each
    /// of `runs` is `(address in the first line, lines)`.
    #[inline(always)]
    fn runs(
        &mut self,
        core: CpuId,
        runs: impl IntoIterator<Item = (u64, u64)>,
        kind: AccessKind,
    ) -> Cycles {
        let cpu = &mut self.cores[core];
        let (l1, l1_misses) = if kind.is_instruction() {
            (&mut cpu.l1i, &mut cpu.pmu.l1i_misses)
        } else {
            (&mut cpu.l1d, &mut cpu.pmu.l1d_misses)
        };
        let (l2, l3) = (&mut cpu.l2, &mut self.l3);
        let (mut lines, mut l1_missed, mut l2_missed, mut l3_missed) = (0, 0, 0, 0);
        for (hpa, run) in runs {
            lines += run;
            l1_missed += l1.access_run(hpa, run, |line| {
                if !l2.access(line) {
                    l2_missed += 1;
                    l3_missed += !l3.access(line) as u64;
                }
            });
        }
        let mut latency = lines * self.cost.l1_hit;
        if l1_missed != 0 {
            *l1_misses += l1_missed;
            cpu.pmu.l2_misses += l2_missed;
            cpu.pmu.l3_misses += l3_missed;
            latency += l1_missed * self.cost.l2_hit
                + l2_missed * self.cost.l3_hit
                + l3_missed * self.cost.dram;
        }
        // Nothing reads the clock or the PMU inside a run, so both are
        // written once, here.
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
    use proptest::prelude::*;

    use super::*;
    use crate::PADDR_BITS;

    fn machine() -> Machine {
        Machine::skylake()
    }

    /// The per-line hierarchy walk `mem_access_span` replaced, kept
    /// verbatim as the reference a run of lines must match line for line.
    fn per_line(m: &mut Machine, core: CpuId, hpa: u64, kind: AccessKind) -> Cycles {
        let cpu = &mut m.cores[core];
        let mut latency = m.cost.l1_hit;
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
            latency += m.cost.l2_hit;
            if !cpu.l2.access(hpa) {
                cpu.pmu.l2_misses += 1;
                latency += m.cost.l3_hit;
                if !m.l3.access(hpa) {
                    cpu.pmu.l3_misses += 1;
                    latency += m.cost.dram;
                }
            }
        }
        cpu.tsc += latency;
        latency
    }

    /// Two cores under an L3 small enough (128 KiB) for the streams
    /// below to evict from it.
    fn small_machine() -> Machine {
        Machine::new(MachineConfig {
            cores: 2,
            cost: CostModel::skylake(),
            l3: CacheConfig {
                size_bytes: 128 * 1024,
                ways: 16,
                line_bytes: 64,
            },
        })
    }

    /// Every level of `m`, private ones first.
    fn levels(m: &Machine) -> Vec<&Cache> {
        let private = m.cores.iter().flat_map(|c| [&c.l1i, &c.l1d, &c.l2]);
        private.chain([&m.l3]).collect()
    }

    /// Clocks, PMUs and every level's counters agree; with `contents`,
    /// so does every set of every level, in LRU order.
    fn assert_same_state(span: &Machine, lines: &Machine, contents: bool) {
        for (a, b) in span.cores.iter().zip(&lines.cores) {
            assert_eq!((a.tsc, a.pmu), (b.tsc, b.pmu), "core {}", a.id);
        }
        for (level, (a, b)) in levels(span).into_iter().zip(levels(lines)).enumerate() {
            assert_eq!(
                (a.accesses, a.misses),
                (b.accesses, b.misses),
                "level {level}"
            );
            for set in 0..a.config().sets() * contents as usize {
                assert_eq!(
                    a.lru_order(set),
                    b.lru_order(set),
                    "level {level} set {set}"
                );
            }
        }
    }

    const KINDS: [AccessKind; 3] = [
        AccessKind::InstructionFetch,
        AccessKind::DataRead,
        AccessKind::DataWrite,
    ];

    /// `(base, lines)` of the regions the streams below start their runs
    /// in: 16 KiB at the bottom of memory (L1 hits), 64 KiB that alias it
    /// in every level's sets, 512 KiB in the middle, and the last 512 KiB
    /// below `2^PADDR_BITS`.
    const REGIONS: [(u64, u64); 4] = [
        (0, 256),
        (1 << 20, 1024),
        (0x1234_5000, 8192),
        ((1 << PADDR_BITS) - (512 << 10), 8192),
    ];

    /// `(core, region, line, byte, lines, kind)`: a run of `lines` lines
    /// by `core`, from `byte` of `line` of `REGIONS[region]`.
    type Run = (usize, usize, u64, u64, usize, usize);

    /// Every run the streams below can hold: empty, one line, longer
    /// than the L1 has sets (so the set index wraps), across 4 KiB
    /// pages, starting mid-line, ending on the last line of the address
    /// space, missing one, two or all three levels.
    fn any_run() -> impl Strategy<Value = Run> {
        (
            0usize..2,
            0usize..4,
            0u64..8192,
            0u64..64,
            0usize..=130,
            0usize..3,
        )
    }

    /// Drives one machine by `runs` through `mem_access_span` and one,
    /// whose instruction caches carry no run memo, through the per-line
    /// walk: the same returned latencies, clocks, PMUs and counters after
    /// every run, the same per-set contents in LRU order at every level
    /// after every `contents_every` runs and the last.
    fn assert_runs_match_lines(
        runs: impl Iterator<Item = Run>,
        contents_every: usize,
    ) -> Result<(), TestCaseError> {
        let (mut span, mut lines) = (small_machine(), small_machine());
        for cpu in &mut lines.cores {
            cpu.l1i = Cache::new(*cpu.l1i.config());
        }
        for (i, (core, region, line, byte, len, kind)) in runs.enumerate() {
            let (base, span_lines) = REGIONS[region];
            let hpa = base + line % span_lines * 64 + byte;
            // A run may end on the last line of the address space, not
            // beyond it.
            let len = len.min((((1u64 << PADDR_BITS) - hpa).div_ceil(64)) as usize);
            let got = span.mem_access_span(core, hpa, len, KINDS[kind]);
            let want: Cycles = (0..len as u64)
                .map(|l| per_line(&mut lines, core, (hpa & !63) + l * 64, KINDS[kind]))
                .sum();
            prop_assert_eq!(got, want, "run {}", i);
            assert_same_state(&span, &lines, i % contents_every == 0);
        }
        assert_same_state(&span, &lines, true);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any stream of runs from two cores sharing the L3 leaves a
        /// machine driven by `mem_access_span` and one driven line by
        /// line in the same state.
        #[test]
        fn a_run_matches_the_same_lines_one_by_one(
            runs in proptest::collection::vec(any_run(), 1..120),
        ) {
            assert_runs_match_lines(runs.into_iter(), 16)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The same for a stream that keeps coming back to a few runs —
        /// most of them instruction fetches out of the 16 KiB that fit
        /// an L1i, so that the run memos of both cores answer, are owed
        /// recency when another run fills, and are settled — down to
        /// the shared L3's order.
        #[test]
        fn repeating_runs_match_the_same_lines_one_by_one(
            alphabet in proptest::collection::vec((any_run(), 0u8..4), 1..10),
            picks in proptest::collection::vec(any::<u8>(), 1..200),
        ) {
            let alphabet: Vec<Run> = alphabet
                .into_iter()
                .map(|((core, region, line, byte, len, kind), near)| match near {
                    0 => (core, region, line, byte, len, kind),
                    _ => (core, 0, line, byte, len % 24, 0),
                })
                .collect();
            let runs = picks.into_iter().map(|p| alphabet[p as usize % alphabet.len()]);
            assert_runs_match_lines(runs, 64)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Scattered lines through `mem_access_each` — few enough sets
        /// for them to evict one another at every level — leave the
        /// machine as the same lines do one by one, and cost the same.
        #[test]
        fn scattered_lines_match_the_same_lines_one_by_one(
            batches in proptest::collection::vec(
                (0usize..2, 0usize..3, proptest::collection::vec((0u64..4, 0u64..40, 0u64..64), 0..30)),
                1..40,
            ),
        ) {
            let (mut each, mut lines) = (small_machine(), small_machine());
            for cpu in &mut lines.cores {
                cpu.l1i = Cache::new(*cpu.l1i.config());
            }
            for (i, (core, kind, batch)) in batches.into_iter().enumerate() {
                // Sets 0..4 of the L1, forty tags deep.
                let hpas = batch.iter().map(|(set, tag, byte)| tag << 12 | set << 6 | byte);
                let got = each.mem_access_each(core, hpas.clone(), KINDS[kind]);
                let want: Cycles = hpas.map(|hpa| per_line(&mut lines, core, hpa, KINDS[kind])).sum();
                prop_assert_eq!(got, want);
                assert_same_state(&each, &lines, i % 8 == 0);
            }
            assert_same_state(&each, &lines, true);
        }
    }

    #[test]
    fn a_run_that_ends_on_the_last_line_of_the_address_space_is_taken() {
        let mut m = machine();
        let c = m.cost.clone();
        let top = 1u64 << PADDR_BITS;
        let cold = m.mem_access_span(0, top - 3 * 64 + 9, 3, AccessKind::DataRead);
        assert_eq!(cold, 3 * (c.l1_hit + c.l2_hit + c.l3_hit + c.dram));
        assert!(m.cores[0].l1d.probe(top - 1));
    }

    /// Runs `f` on a clone of `m` and returns the clone if `f` panicked.
    fn after_panic(m: &Machine, f: impl FnOnce(&mut Machine)) -> Machine {
        let mut m = m.clone();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut m)));
        assert!(caught.is_err(), "expected a panic");
        m
    }

    /// A run with any line beyond the address space, or an end that
    /// overflows `u64`, is refused before a slot, counter or clock moves;
    /// so is a core that does not exist.
    #[test]
    fn a_bad_run_changes_nothing() {
        let mut m = small_machine();
        m.mem_access_span(1, 0x4000, 40, AccessKind::DataWrite);
        let top = 1u64 << PADDR_BITS;
        let bad: [(CpuId, u64, usize); 5] = [
            (0, top - 64, 2),
            (0, top - 130 * 64, 131),
            (1, top, 1),
            (1, u64::MAX - 63, usize::MAX),
            (2, 0x4000, 1),
        ];
        for (core, hpa, len) in bad {
            for kind in KINDS {
                let after = after_panic(&m, |m| {
                    m.mem_access_span(core, hpa, len, kind);
                });
                assert_same_state(&after, &m, true);
            }
        }
        let after = after_panic(&m, |m| {
            m.mem_access(0, top, AccessKind::DataRead);
        });
        assert_same_state(&after, &m, true);
    }

    #[test]
    #[should_panic(expected = "physical address 0x1000000000 is wider than 36 bits")]
    fn a_run_past_the_address_space_names_its_last_line() {
        machine().mem_access_span(0, (1 << PADDR_BITS) - 64, 2, AccessKind::InstructionFetch);
    }

    #[test]
    #[should_panic(expected = "physical address 0x20ffffffffffffff80 is wider than 36 bits")]
    fn a_run_whose_end_overflows_names_its_last_line() {
        machine().mem_access_span(0, u64::MAX, 1 << 63, AccessKind::DataRead);
    }

    #[test]
    fn an_empty_run_is_a_no_op_wherever_it_starts() {
        let mut m = machine();
        assert_eq!(m.mem_access_span(0, u64::MAX, 0, AccessKind::DataRead), 0);
        assert_same_state(&m, &machine(), true);
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
