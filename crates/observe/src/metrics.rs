//! The metrics registry: named counters, gauges, and log₂ histograms
//! with a snapshot/diff API, plus a bridge for `sim`'s PMU counters.
//!
//! The registry is deliberately dumb storage — instrumented code records
//! under stable string names; benches snapshot before and after a region
//! and diff, exactly the PMU discipline the rest of the workspace already
//! uses. Rendering to JSON stays in `sb-bench`'s report module.

use std::collections::BTreeMap;

use sb_sim::{Cycles, Pmu};

use crate::export::ChromeTrace;
use crate::hist::{Exemplar, Log2Histogram, DEFAULT_EXEMPLAR_CAPACITY};

/// A metrics registry.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Log2Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `n` to counter `name` (created at zero).
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Records `v` into histogram `name` (created empty).
    pub fn observe(&mut self, name: &str, v: Cycles) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// Records `v` into histogram `name` tagged with a correlation id.
    /// The first tagged record turns on exemplar retention
    /// ([`DEFAULT_EXEMPLAR_CAPACITY`]) for that histogram, so a fat
    /// bucket in any snapshot links back to concrete request ids.
    pub fn observe_tagged(&mut self, name: &str, v: Cycles, corr: u64) {
        let h = self.histograms.entry(name.to_string()).or_default();
        if h.exemplar_capacity() == 0 {
            h.set_exemplar_capacity(DEFAULT_EXEMPLAR_CAPACITY);
        }
        h.record_tagged(v, corr);
    }

    /// The current value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if it ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms.get(name)
    }

    /// Surfaces a [`Pmu`] bundle as counters under `prefix.<event>`.
    /// PMU counters only ever increase, so recording an absolute
    /// snapshot keeps the registry's own diff semantics aligned with
    /// [`Pmu::delta`].
    pub fn record_pmu(&mut self, prefix: &str, pmu: &Pmu) {
        let fields: [(&str, u64); 14] = [
            ("l1i_misses", pmu.l1i_misses),
            ("l1d_misses", pmu.l1d_misses),
            ("l2_misses", pmu.l2_misses),
            ("l3_misses", pmu.l3_misses),
            ("itlb_misses", pmu.itlb_misses),
            ("dtlb_misses", pmu.dtlb_misses),
            ("page_walks", pmu.page_walks),
            ("walk_memory_accesses", pmu.walk_memory_accesses),
            ("ipis", pmu.ipis),
            ("vm_exits", pmu.vm_exits),
            ("vmfuncs", pmu.vmfuncs),
            ("mode_switches", pmu.mode_switches),
            ("cr3_writes", pmu.cr3_writes),
            ("wrpkru_writes", pmu.wrpkru_writes),
        ];
        for (field, v) in fields {
            self.counters.insert(format!("{prefix}.{field}"), v);
        }
    }

    /// Surfaces a rendered Chrome-trace export's truncation accounting
    /// as `trace.export_*` counters (absolute, latest-wins).
    pub fn record_export(&mut self, trace: &ChromeTrace) {
        let fields: [(&str, u64); 4] = [
            ("export_events", trace.events),
            ("export_dropped", trace.dropped),
            ("export_unmatched", trace.unmatched),
            ("export_truncated", trace.truncated as u64),
        ];
        for (field, v) in fields {
            self.counters.insert(format!("trace.{field}"), v);
        }
    }

    /// A point-in-time copy of everything recorded.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), HistSummary::of(h)))
                .collect(),
            exemplars: self
                .histograms
                .iter()
                .filter(|(_, h)| h.exemplar_capacity() != 0)
                .map(|(k, h)| (k.clone(), h.exemplars()))
                .collect(),
        }
    }
}

/// A fixed-quantile summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: Cycles,
    /// Bucketed median.
    pub p50: Cycles,
    /// Bucketed 95th percentile.
    pub p95: Cycles,
    /// Bucketed 99th percentile.
    pub p99: Cycles,
    /// Largest sample.
    pub max: Cycles,
}

impl HistSummary {
    /// Summarises `h`.
    pub fn of(h: &Log2Histogram) -> Self {
        HistSummary {
            count: h.count(),
            mean: h.mean(),
            min: h.min(),
            p50: h.percentile(50.0),
            p95: h.percentile(95.0),
            p99: h.percentile(99.0),
            max: h.max(),
        }
    }
}

/// A point-in-time view of a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values at snapshot time.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values at snapshot time.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries at snapshot time.
    pub histograms: BTreeMap<String, HistSummary>,
    /// Retained exemplars per histogram (only histograms with retention
    /// on appear; oldest first).
    pub exemplars: BTreeMap<String, Vec<Exemplar>>,
}

impl Snapshot {
    /// The region between `earlier` and `self`: counters subtract
    /// (saturating, so an absent-earlier counter reads as its full
    /// value), gauges and histogram summaries keep the later reading.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                let before = earlier.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
            exemplars: self.exemplars.clone(),
        }
    }

    /// The value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_diff() {
        let mut r = Registry::new();
        r.count("calls", 3);
        let before = r.snapshot();
        r.count("calls", 7);
        r.count("sheds", 1);
        let d = r.snapshot().diff(&before);
        assert_eq!(d.counter("calls"), 7);
        assert_eq!(d.counter("sheds"), 1, "absent-earlier reads full value");
        assert_eq!(d.counter("nothing"), 0);
    }

    #[test]
    fn histograms_summarise() {
        let mut r = Registry::new();
        for v in 1..=100u64 {
            r.observe("latency", v);
        }
        let s = r.snapshot();
        let h = s.histograms.get("latency").unwrap();
        assert_eq!(h.count, 100);
        assert_eq!((h.min, h.max), (1, 100));
        assert!((h.mean - 50.5).abs() < 1e-9);
        assert!(h.p50 >= 50 && h.p50 <= 55, "bucketed median near 50");
    }

    #[test]
    fn pmu_bridge_lands_under_prefix() {
        let mut r = Registry::new();
        let pmu = Pmu {
            vmfuncs: 12,
            dtlb_misses: 7,
            ..Pmu::default()
        };
        r.record_pmu("core0", &pmu);
        assert_eq!(r.counter("core0.vmfuncs"), 12);
        assert_eq!(r.counter("core0.dtlb_misses"), 7);
        assert_eq!(r.counter("core0.ipis"), 0);
        // Re-recording a later snapshot replaces, so diffs match
        // Pmu::delta.
        let before = r.snapshot();
        r.record_pmu(
            "core0",
            &Pmu {
                vmfuncs: 20,
                dtlb_misses: 7,
                ..Pmu::default()
            },
        );
        let d = r.snapshot().diff(&before);
        assert_eq!(d.counter("core0.vmfuncs"), 8);
        assert_eq!(d.counter("core0.dtlb_misses"), 0);
    }

    #[test]
    fn tagged_observations_surface_exemplars_in_snapshots() {
        let mut r = Registry::new();
        r.observe("latency", 5); // Untagged first: no retention yet.
        for i in 0..20u64 {
            r.observe_tagged("latency", 1000 + i, 100 + i);
        }
        let s = r.snapshot();
        let ex = s.exemplars.get("latency").expect("retention turned on");
        assert_eq!(ex.len(), DEFAULT_EXEMPLAR_CAPACITY);
        assert_eq!(ex.last().unwrap().corr, 119, "newest tag retained");
        assert!(
            !s.exemplars.contains_key("untagged"),
            "histograms without retention stay out of the exemplar map"
        );
        assert_eq!(s.histograms["latency"].count, 21);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn export_truncation_counters_land_under_trace() {
        use crate::export::chrome_trace;
        use crate::ring::{Recorder, SpanKind};

        let mut r = Registry::new();
        let rec = Recorder::new(4);
        for i in 0..8u64 {
            rec.span(0, SpanKind::Call, i * 10, i * 10 + 5, i);
        }
        r.record_export(&chrome_trace(&rec));
        let s = r.snapshot();
        assert_eq!(s.counter("trace.export_events"), 4);
        assert_eq!(s.counter("trace.export_dropped"), 4);
        assert_eq!(s.counter("trace.export_truncated"), 1);
    }

    #[test]
    fn gauges_keep_latest() {
        let mut r = Registry::new();
        r.gauge("utilization", 0.5);
        r.gauge("utilization", 0.8);
        assert_eq!(r.snapshot().gauges.get("utilization"), Some(&0.8));
    }
}
