//! The metric catalogue and the result line.
//!
//! Every number the benchmark prints is declared here once — name,
//! unit, clock and direction — and `BENCHMARK.json` carries the same
//! list (the smoke test compares the two). A run fills a [`Values`]
//! against one of the two catalogues; printing fails loudly if a
//! declared metric was never set, so a workload cannot silently drop
//! one.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Which of the two clocks a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time (and memory) of the machine running the simulator:
    /// noisy, ours to make as fast as we can. Times are reported at
    /// reference speed (see [`crate::host::at_reference_speed`]) unless
    /// a metric says it is raw.
    Host,
    /// Simulated cycles and counts: deterministic for a seed, moves
    /// only when a modelled mechanism changes.
    Sim,
}

impl Clock {
    /// Lower-case label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// The clock it reads.
    pub clock: Clock,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// The share of the parent's median by which an end-to-end metric
    /// may worsen before a change counts as a regression (0 for
    /// per-layer metrics, which have no bound).
    pub bound: f64,
}

const fn host(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        clock: Clock::Host,
        lower_is_better: true,
        bound: 0.0,
    }
}

const fn sim(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        clock: Clock::Sim,
        lower_is_better: true,
        bound: 0.0,
    }
}

const fn higher(mut m: Metric) -> Metric {
    m.lower_is_better = false;
    m
}

const fn bounded(mut m: Metric, bound: f64) -> Metric {
    m.bound = bound;
    m
}

/// The end-to-end metrics: the same seven on every workload, measured
/// with tracing off.
pub const END_TO_END: &[Metric] = &[
    bounded(host("setup_s", "s"), 0.25),
    bounded(host("host_ns_per_op", "ns"), 0.25),
    bounded(host("host_rss_mb", "MiB"), 0.15),
    bounded(sim("sim_cycles_per_op", "cycles"), 0.01),
    bounded(sim("sim_p50_cycles", "cycles"), 0.10),
    bounded(sim("sim_p99_cycles", "cycles"), 0.10),
    bounded(higher(sim("served_share", "ratio")), 0.01),
];

/// The per-layer metrics of a traced run. Names ending `.host_ns` read
/// the host clock, `.cycles` the simulated one; the rest are counts and
/// ratios of the simulated system unless declared `host`.
pub const PER_LAYER: &[Metric] = &[
    // sb-sim: isolated probes of the cache, TLB and hierarchy models.
    host("sim.cache_hit.host_ns", "ns"),
    host("sim.cache_miss.host_ns", "ns"),
    host("sim.tlb_hit.host_ns", "ns"),
    host("sim.tlb_miss.host_ns", "ns"),
    host("sim.mem_access_l1.host_ns", "ns"),
    host("sim.mem_access_dram.host_ns", "ns"),
    // sb-mem: translation through the EPT, line-granular touches.
    host("mem.translate_hit.host_ns", "ns"),
    sim("mem.translate_hit.cycles", "cycles"),
    host("mem.translate_miss.host_ns", "ns"),
    sim("mem.translate_miss.cycles", "cycles"),
    host("mem.touch_64.host_ns", "ns"),
    sim("mem.touch_64.cycles", "cycles"),
    host("mem.touch_4k.host_ns", "ns"),
    sim("mem.touch_4k.cycles", "cycles"),
    // skybridge core + sb-rootkernel.
    host("core.null_call.host_ns", "ns"),
    sim("core.null_call.cycles", "cycles"),
    host("rootkernel.vmfunc.host_ns", "ns"),
    sim("rootkernel.vmfunc.cycles", "cycles"),
    // sb-microkernel: same-core IPC round trips.
    host("microkernel.sel4_roundtrip.host_ns", "ns"),
    sim("microkernel.sel4_roundtrip.cycles", "cycles"),
    host("microkernel.fiasco_roundtrip.host_ns", "ns"),
    sim("microkernel.fiasco_roundtrip.cycles", "cycles"),
    host("microkernel.zircon_roundtrip.host_ns", "ns"),
    sim("microkernel.zircon_roundtrip.cycles", "cycles"),
    // sb-transport: one call per personality, ring frames, copies.
    host("transport.skybridge.call.host_ns", "ns"),
    sim("transport.skybridge.call.cycles", "cycles"),
    host("transport.sel4.call.host_ns", "ns"),
    sim("transport.sel4.call.cycles", "cycles"),
    host("transport.fiasco.call.host_ns", "ns"),
    sim("transport.fiasco.call.cycles", "cycles"),
    host("transport.zircon.call.host_ns", "ns"),
    sim("transport.zircon.call.cycles", "cycles"),
    host("transport.mpk.call.host_ns", "ns"),
    sim("transport.mpk.call.cycles", "cycles"),
    host("transport.fixed.call.host_ns", "ns"),
    sim("transport.fixed.call.cycles", "cycles"),
    host("transport.ring_b1.host_ns", "ns"),
    sim("transport.ring_b1.cycles", "cycles"),
    host("transport.ring_b8.host_ns", "ns"),
    sim("transport.ring_b8.cycles", "cycles"),
    sim("transport.bytes_copied_per_op", "B"),
    host("transport.call_self.host_ns", "ns"),
    // Modelled components per op (PMU deltas and phase self-cycles of
    // the workload's own transport; xcall_* only).
    sim("pmu.l1i_misses_per_op", "count"),
    sim("pmu.l1d_misses_per_op", "count"),
    sim("pmu.l2_misses_per_op", "count"),
    sim("pmu.l3_misses_per_op", "count"),
    sim("pmu.itlb_misses_per_op", "count"),
    sim("pmu.dtlb_misses_per_op", "count"),
    sim("pmu.page_walks_per_op", "count"),
    sim("pmu.walk_mem_accesses_per_op", "count"),
    sim("pmu.vmfuncs_per_op", "count"),
    sim("pmu.cr3_writes_per_op", "count"),
    sim("pmu.mode_switches_per_op", "count"),
    sim("pmu.wrpkru_writes_per_op", "count"),
    sim("phase.trampoline.cycles", "cycles"),
    sim("phase.switch.cycles", "cycles"),
    sim("phase.marshal.cycles", "cycles"),
    sim("phase.kernel_ipc.cycles", "cycles"),
    sim("phase.handler.cycles", "cycles"),
    // sb-runtime: serving loops, load generation, tenant fabric.
    host("runtime.self.host_ns", "ns"),
    host("runtime.direct_overhead.host_ns", "ns"),
    host("runtime.ring_overhead.host_ns", "ns"),
    host("runtime.factory_make.host_ns", "ns"),
    host("runtime.poisson_next.host_ns", "ns"),
    host("runtime.fabric_push_pop.host_ns", "ns"),
    sim("runtime.queue_wait_mean.cycles", "cycles"),
    sim("runtime.max_queue_depth", "count"),
    higher(sim("runtime.util", "ratio")),
    sim("runtime.shed_rate_limit", "count"),
    sim("runtime.shed_queue_full", "count"),
    sim("runtime.retries", "count"),
    // sb-graph / sb-db / sb-fs / sb-ycsb.
    host("graph.self.host_ns", "ns"),
    host("graph.hop.gateway.host_ns", "ns"),
    sim("graph.hop.gateway.cycles", "cycles"),
    host("graph.hop.cache.host_ns", "ns"),
    sim("graph.hop.cache.cycles", "cycles"),
    host("graph.hop.db.host_ns", "ns"),
    sim("graph.hop.db.cycles", "cycles"),
    host("graph.hop.fs.host_ns", "ns"),
    sim("graph.hop.fs.cycles", "cycles"),
    host("graph.call_read.host_ns", "ns"),
    host("graph.call_write.host_ns", "ns"),
    host("graph.commit_append.host_ns", "ns"),
    higher(sim("graph.cache_hit_ratio", "ratio")),
    sim("graph.crossings_per_op", "count"),
    higher(sim("db.pager_hit_ratio", "ratio")),
    sim("db.commits_per_op", "count"),
    host("db.get.host_ns", "ns"),
    host("db.put.host_ns", "ns"),
    host("fs.block_read.host_ns", "ns"),
    host("fs.block_write.host_ns", "ns"),
    host("ycsb.next_op.host_ns", "ns"),
    // sb-observe and the benchmark's own tracing.
    host("observe.emit.host_ns", "ns"),
    sim("observe.events_dropped", "count"),
    host("trace.overhead_pct", "%"),
    host("trace.unattributed_pct", "%"),
    // Accuracy against the paper's Table 2 / Figure 7.
    sim("fidelity.sky_roundtrip_err_pct", "%"),
    sim("fidelity.sel4_roundtrip_err_pct", "%"),
    sim("fidelity.fiasco_roundtrip_err_pct", "%"),
    sim("fidelity.zircon_roundtrip_err_pct", "%"),
    // Host diagnostics.
    higher(host("host.chunks", "count")),
    host("host.chunk_p50.host_ns", "ns"),
    host("host.chunk_p95.host_ns", "ns"),
    host("host.unit_ns", "ns"),
    host("host.units_per_op", "count"),
    host("host.ns_per_sim_cycle", "ns"),
];

/// The values of one run against one catalogue.
#[derive(Debug, Clone)]
pub struct Values {
    catalogue: &'static [Metric],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// An empty set over `catalogue`.
    pub fn new(catalogue: &'static [Metric]) -> Self {
        Values {
            catalogue,
            values: BTreeMap::new(),
        }
    }

    /// Sets one declared metric.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name: the catalogue is the contract.
    pub fn set(&mut self, name: &str, value: f64) {
        let m = self
            .catalogue
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values.insert(m.name, value);
    }

    /// Sets every still-unset metric whose name starts with `prefix`
    /// to 0: the layer does no work on this workload.
    pub fn not_applicable(&mut self, prefix: &str) {
        for m in self.catalogue {
            if m.name.starts_with(prefix) {
                self.values.entry(m.name).or_insert(0.0);
            }
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `(metric, value)` in catalogue order.
    ///
    /// # Panics
    ///
    /// Panics if a declared metric was never set or is not finite.
    pub fn rows(&self) -> Vec<(&'static Metric, f64)> {
        self.catalogue
            .iter()
            .map(|m| {
                let v = *self
                    .values
                    .get(m.name)
                    .unwrap_or_else(|| panic!("metric {} was never set", m.name));
                assert!(v.is_finite(), "metric {} is not finite: {v}", m.name);
                (m, v)
            })
            .collect()
    }

    /// The contract's result line.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (m, v)) in self.rows().iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*v),
                m.unit
            )
            .unwrap();
        }
        s.push_str("}}");
        s
    }

    /// A human table (name, value, unit, clock), one metric per line.
    pub fn table(&self) -> String {
        let rows = self.rows();
        let w = rows.iter().map(|(m, _)| m.name.len()).max().unwrap_or(0);
        let mut s = String::new();
        for (m, v) in rows {
            writeln!(
                s,
                "  {:<w$}  {:>16}  {:<6}  {}",
                m.name,
                json_number(v),
                m.unit,
                m.clock.label()
            )
            .unwrap();
        }
        s
    }

    /// One `name<TAB>value<TAB>unit<TAB>clock` line per metric — the
    /// machine-readable side file `--repeat` compares.
    pub fn tsv(&self) -> String {
        let mut s = String::new();
        for (m, v) in self.rows() {
            writeln!(
                s,
                "{}\t{}\t{}\t{}",
                m.name,
                json_number(v),
                m.unit,
                m.clock.label()
            )
            .unwrap();
        }
        s
    }
}

/// Shortest decimal that round-trips the value: every measured digit,
/// and valid JSON (no `NaN`, no exponent-less surprises).
pub fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The `q`-quantile (0..=1) of `xs` by nearest rank on a sorted copy.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of nothing");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * (v.len() - 1) as f64).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn unset_metric_is_refused() {
        let v = Values::new(END_TO_END);
        assert!(std::panic::catch_unwind(|| v.rows()).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut v = Values::new(END_TO_END);
        for m in END_TO_END {
            v.set(m.name, 1.25);
        }
        v.set("served_share", 1.0);
        let line = v.result_line(true, 10, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"served_share\": {\"value\": 1.0, \"unit\": \"ratio\"}"));
        assert!(!line.contains('\n'));
    }
}
