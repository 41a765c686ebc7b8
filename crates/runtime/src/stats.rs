//! Run statistics: latency percentiles, throughput, shedding, utilization,
//! and the per-tenant breakdown.

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::BTreeMap;

use sb_observe::{get_varint, put_varint, Json, Log2Histogram};
use sb_sim::Cycles;
use sb_transport::TenantId;

/// How many latency samples [`LatencyTrack`] keeps verbatim before
/// percentiles switch to the bounded histogram.
pub const EXACT_LATENCY_CAP: usize = 1 << 16;

/// Completed-request latencies with bounded memory.
///
/// The first [`EXACT_LATENCY_CAP`] samples are kept verbatim, so short
/// runs (every test, most benches) read *exact* percentiles. Every
/// sample additionally lands in a log₂ histogram with exact
/// count/sum/min/max; once a run outgrows the cap, percentiles come
/// from the histogram instead — worst-case relative error
/// [`sb_observe::HIST_RELATIVE_ERROR`] (1/16 ≈ 6.25%, one sub-bucket) —
/// and memory stays fixed no matter how long the run is. The mean is
/// exact in both modes.
///
/// The verbatim prefix is a byte stream of LEB128 varints in arrival
/// order ([`sb_observe::put_varint`]: at most 3 B for a latency below
/// 2²¹ cycles, 10 B at worst), freed by the push that takes the count
/// past the cap, since nothing reads it after that. The first
/// percentile read of an exact track decodes and sorts it into a cached
/// view, which the next push clears.
#[derive(Debug, Clone, Default)]
pub struct LatencyTrack {
    prefix: Vec<u8>,
    sorted: OnceCell<Vec<Cycles>>,
    hist: Log2Histogram,
}

impl LatencyTrack {
    /// Records one latency sample.
    pub fn push(&mut self, v: Cycles) {
        self.keep(v);
        self.hist.record(v);
    }

    /// Adds `v` to the verbatim prefix while the run fits the cap, and
    /// frees the prefix on the push that outgrows it.
    fn keep(&mut self, v: Cycles) {
        match self.len().cmp(&EXACT_LATENCY_CAP) {
            Ordering::Less => put_varint(&mut self.prefix, v),
            Ordering::Equal => self.prefix = Vec::new(),
            Ordering::Greater => return,
        }
        self.sorted.take();
    }

    /// Samples recorded (all of them, not just the exact prefix).
    pub fn len(&self) -> usize {
        self.hist.count() as usize
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.hist.is_empty()
    }

    /// Whether percentiles are exact (the run fit the verbatim cap).
    pub fn is_exact(&self) -> bool {
        self.len() <= EXACT_LATENCY_CAP
    }

    /// Nearest-rank percentile. `p` is clamped into `[0, 100]` (NaN
    /// reads as 0); 0 when empty, the sole sample when `len() == 1`.
    /// Exact below the cap, histogram-resolved (≤ 6.25% high) above it.
    pub fn percentile(&self, p: f64) -> Cycles {
        if !self.is_exact() {
            return self.hist.percentile(p);
        }
        let sorted = self.sorted.get_or_init(|| {
            let mut bytes = self.prefix.iter();
            let mut v: Vec<Cycles> = (0..self.len())
                .map(|_| get_varint(&mut bytes).expect("the prefix holds only what `keep` wrote"))
                .collect();
            v.sort_unstable();
            v
        });
        // One sample is its own every percentile: its rank rounds to 0.
        let n = sorted.len();
        if n == 0 {
            return 0;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        let rank = ((p / 100.0) * (n - 1) as f64).round() as usize;
        sorted[rank.min(n - 1)]
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.hist.mean()
    }
}

impl From<Vec<Cycles>> for LatencyTrack {
    fn from(v: Vec<Cycles>) -> Self {
        let mut t = LatencyTrack::default();
        for x in v {
            t.push(x);
        }
        t
    }
}

/// One tenant's slice of a run: the same outcome classes as the global
/// counters, plus that tenant's own latency distribution. The invariant
/// mirrors the global one — `offered` equals the sum of every outcome —
/// and summing any field across tenants reproduces the global figure
/// exactly (checked by [`RunStats::tenants_conserved`]).
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// Arrivals billed to this tenant.
    pub offered: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Arrivals rejected at a full queue.
    pub shed_queue_full: u64,
    /// Admitted requests dropped past the queue deadline.
    pub shed_deadline: u64,
    /// Arrivals refused by the tenant's token bucket or an active
    /// quarantine window.
    pub shed_rate_limit: u64,
    /// Requests whose handler overran the per-call DoS budget.
    pub timed_out: u64,
    /// Requests that failed for any other reason.
    pub failed: u64,
    /// This tenant's completed-request latencies.
    pub latencies: LatencyTrack,
}

impl TenantStats {
    /// Requests shed for any reason.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline + self.shed_rate_limit
    }

    /// Whether this tenant's ledger balances.
    pub fn conserved(&self) -> bool {
        self.offered == self.completed + self.shed() + self.timed_out + self.failed
    }

    /// The tenant's `p`-th latency percentile.
    pub fn percentile(&self, p: f64) -> Cycles {
        self.latencies.percentile(p)
    }

    /// 99th-percentile latency for this tenant.
    pub fn p99(&self) -> Cycles {
        self.percentile(99.0)
    }
}

/// Everything one runtime run measured. Latencies are client-observed:
/// service completion minus arrival, so queueing delay is included.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Transport label (personality).
    pub label: String,
    /// Serving lanes.
    pub workers: usize,
    /// Requests offered (arrivals generated).
    pub offered: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Arrivals rejected because the queue was full (Shed policy).
    pub shed_queue_full: u64,
    /// Admitted requests dropped because they waited past the queue
    /// deadline before service started.
    pub shed_deadline: u64,
    /// Arrivals refused by a tenant token bucket or quarantine window
    /// before touching any queue.
    pub shed_rate_limit: u64,
    /// Requests whose handler overran the per-call DoS budget.
    pub timed_out: u64,
    /// Requests that failed for any other reason.
    pub failed: u64,
    /// Call attempts re-issued after a failure (retry-with-backoff).
    pub retries: u64,
    /// Successful transport repairs (server revived / endpoint
    /// respawned) performed between retry attempts.
    pub recoveries: u64,
    /// Marshalling bytes the transport physically moved during the run
    /// (the copy meter's delta — what the zero-copy wire path minimises).
    pub bytes_copied: u64,
    /// First arrival time.
    pub start: Cycles,
    /// Latest lane clock after the drain.
    pub end: Cycles,
    /// Largest queue depth observed at any admission.
    pub max_queue_depth: usize,
    /// Busy (serving) cycles per lane.
    pub busy: Vec<Cycles>,
    /// Completed-request latencies (exact up to [`EXACT_LATENCY_CAP`]
    /// samples, bounded histogram beyond).
    pub latencies: LatencyTrack,
    /// Per-tenant breakdown of the counters above (ordered, so reports
    /// and tests iterate deterministically). Single-tenant runs carry
    /// one entry for tenant 0.
    pub tenants: BTreeMap<TenantId, TenantStats>,
}

impl RunStats {
    /// An empty record for `workers` lanes under `label`.
    pub fn new(label: &str, workers: usize) -> Self {
        RunStats {
            label: label.to_string(),
            workers,
            offered: 0,
            completed: 0,
            shed_queue_full: 0,
            shed_deadline: 0,
            shed_rate_limit: 0,
            timed_out: 0,
            failed: 0,
            retries: 0,
            recoveries: 0,
            bytes_copied: 0,
            start: 0,
            end: 0,
            max_queue_depth: 0,
            busy: vec![0; workers],
            latencies: LatencyTrack::default(),
            tenants: BTreeMap::new(),
        }
    }

    /// Requests shed for any reason (queue-full, deadline, rate limit).
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline + self.shed_rate_limit
    }

    /// Whether the run's ledger balances: every offered request has
    /// exactly one outcome — the run-wide twin of
    /// [`TenantStats::conserved`].
    pub fn conserved(&self) -> bool {
        self.offered == self.completed + self.shed() + self.timed_out + self.failed
    }

    /// The mutable per-tenant slice for `id`, created on first touch.
    pub fn tenant_mut(&mut self, id: TenantId) -> &mut TenantStats {
        self.tenants.entry(id).or_default()
    }

    /// The per-tenant slice for `id`, if that tenant appeared in the run.
    pub fn tenant(&self, id: TenantId) -> Option<&TenantStats> {
        self.tenants.get(&id)
    }

    /// Whether every tenant's ledger balances *and* the tenant slices
    /// sum back to the global counters — the exactly-once conservation
    /// check, per tenant.
    pub fn tenants_conserved(&self) -> bool {
        let mut sums = TenantStats::default();
        for t in self.tenants.values() {
            if !t.conserved() {
                return false;
            }
            sums.offered += t.offered;
            sums.completed += t.completed;
            sums.shed_queue_full += t.shed_queue_full;
            sums.shed_deadline += t.shed_deadline;
            sums.shed_rate_limit += t.shed_rate_limit;
            sums.timed_out += t.timed_out;
            sums.failed += t.failed;
        }
        sums.offered == self.offered
            && sums.completed == self.completed
            && sums.shed_queue_full == self.shed_queue_full
            && sums.shed_deadline == self.shed_deadline
            && sums.shed_rate_limit == self.shed_rate_limit
            && sums.timed_out == self.timed_out
            && sums.failed == self.failed
    }

    /// The `k` tenants with the most offered traffic, busiest first
    /// (ties broken by tenant id for determinism).
    pub fn top_tenants(&self, k: usize) -> Vec<(TenantId, &TenantStats)> {
        let mut v: Vec<(TenantId, &TenantStats)> =
            self.tenants.iter().map(|(&id, t)| (id, t)).collect();
        v.sort_by(|a, b| b.1.offered.cmp(&a.1.offered).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// The `p`-th latency percentile. `p` is clamped into `[0, 100]`
    /// (a NaN reads as 0); returns 0 when nothing completed, and the
    /// sole sample when exactly one request completed. Exact for runs
    /// within [`EXACT_LATENCY_CAP`] completions, histogram-resolved
    /// (within one log₂ sub-bucket, ≤ 6.25%) beyond.
    pub fn percentile(&self, p: f64) -> Cycles {
        self.latencies.percentile(p)
    }

    /// Median latency.
    pub fn p50(&self) -> Cycles {
        self.percentile(50.0)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> Cycles {
        self.percentile(95.0)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> Cycles {
        self.percentile(99.0)
    }

    /// Mean latency (exact in both latency-track modes).
    pub fn mean(&self) -> f64 {
        self.latencies.mean()
    }

    /// The measured run window in cycles.
    pub fn window(&self) -> Cycles {
        self.end.saturating_sub(self.start)
    }

    /// Completions per million simulated cycles.
    pub fn throughput_per_mcycle(&self) -> f64 {
        let w = self.window();
        if w == 0 {
            return 0.0;
        }
        self.completed as f64 * 1e6 / w as f64
    }

    /// Mean marshalling bytes moved per completed request.
    pub fn bytes_copied_per_completion(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.bytes_copied as f64 / self.completed as f64
    }

    /// Per-lane (core) utilization: busy cycles over the run window.
    pub fn utilization(&self) -> Vec<f64> {
        let w = self.window().max(1) as f64;
        self.busy.iter().map(|&b| b as f64 / w).collect()
    }
}

/// How many of a run's busiest tenants get their own row in
/// [`run_stats_json`].
const TOP_TENANTS: usize = 8;

/// One run as a JSON object: the row of every results file that reports
/// a run, and the `run` block of a postmortem bundle.
///
/// Multi-tenant runs additionally carry a `tenants` array — the
/// `TOP_TENANTS` busiest tenants by offered load, each with its own
/// conservation ledger and p99 — plus the per-tenant conservation
/// verdict for the whole run. Single-tenant runs stay compact (no
/// per-tenant section), keeping historical report shapes unchanged.
pub fn run_stats_json(s: &RunStats) -> Json {
    let mut row = Json::obj()
        .field("label", s.label.as_str())
        .field("workers", s.workers)
        .field("offered", s.offered)
        .field("completed", s.completed)
        .field("shed_queue_full", s.shed_queue_full)
        .field("shed_deadline", s.shed_deadline)
        .field("shed_rate_limit", s.shed_rate_limit)
        .field("timed_out", s.timed_out)
        .field("failed", s.failed)
        .field("retries", s.retries)
        .field("recoveries", s.recoveries)
        .field("bytes_copied", s.bytes_copied)
        .field("window_cycles", s.window())
        .field("throughput_per_mcycle", s.throughput_per_mcycle())
        .field("latency_mean", s.mean())
        .field("latency_p50", s.p50())
        .field("latency_p95", s.p95())
        .field("latency_p99", s.p99())
        .field("max_queue_depth", s.max_queue_depth)
        .field("utilization", s.utilization());
    if s.tenants.len() > 1 {
        let rows: Vec<Json> = s
            .top_tenants(TOP_TENANTS)
            .into_iter()
            .map(|(id, t)| {
                Json::obj()
                    .field("tenant", u64::from(id))
                    .field("offered", t.offered)
                    .field("completed", t.completed)
                    .field("shed_queue_full", t.shed_queue_full)
                    .field("shed_deadline", t.shed_deadline)
                    .field("shed_rate_limit", t.shed_rate_limit)
                    .field("timed_out", t.timed_out)
                    .field("failed", t.failed)
                    .field("latency_p50", t.percentile(50.0))
                    .field("latency_p99", t.p99())
            })
            .collect();
        row = row
            .field("tenant_count", s.tenants.len())
            .field("tenants_conserved", s.tenants_conserved())
            .field("tenants", Json::Arr(rows));
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The track as it was before its prefix became bytes: every sample
    /// of the first [`EXACT_LATENCY_CAP`] kept as a `u64` for the whole
    /// run, sorted in place by `seal` before each read.
    #[derive(Default)]
    struct VecTrack {
        exact: Vec<Cycles>,
        hist: Log2Histogram,
    }

    impl VecTrack {
        fn push(&mut self, v: Cycles) {
            if self.exact.len() < EXACT_LATENCY_CAP {
                self.exact.push(v);
            }
            self.hist.record(v);
        }

        fn seal(&mut self) {
            self.exact.sort_unstable();
        }

        fn is_exact(&self) -> bool {
            self.hist.count() as usize <= self.exact.len()
        }

        fn percentile(&self, p: f64) -> Cycles {
            if !self.is_exact() {
                return self.hist.percentile(p);
            }
            let n = self.exact.len();
            match n {
                0 => return 0,
                1 => return self.exact[0],
                _ => {}
            }
            let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
            let rank = ((p / 100.0) * (n - 1) as f64).round() as usize;
            self.exact[rank.min(n - 1)]
        }
    }

    const PERCENTILES: [f64; 10] = [0., 1., 50., 95., 99., 99.9, 100., -5., 250., f64::NAN];

    /// `(length, value pool, stride, read points modulo length + 1)`:
    /// sample `i` is
    /// `pool[i * stride % pool.len()]`, and the pool mixes the varint
    /// width edges with arbitrary values.
    fn runs() -> impl Strategy<Value = (usize, Vec<u64>, usize, Vec<usize>)> {
        const CAP: usize = EXACT_LATENCY_CAP;
        let len = prop_oneof![
            Just(0usize),
            Just(1usize),
            Just(2usize),
            3usize..200,
            Just(CAP - 1),
            Just(CAP),
            Just(CAP + 1),
            Just(CAP + 1000),
        ];
        let value = prop_oneof![
            Just(0u64),
            Just(127u64),
            Just(128u64),
            Just(1u64 << 21),
            Just(u64::MAX),
            0u64..20_000,
            any::<u64>(),
        ];
        let pool = proptest::collection::vec(value, 1..24);
        let reads = proptest::collection::vec(any::<usize>(), 0..4);
        (len, pool, 1usize..50, reads)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The byte prefix against the `Vec` reference: every percentile,
        /// `is_exact`, `len` and `mean` agree at each read point, and reads land between pushes, so a sorted view that a
        /// push failed to clear reads stale.
        #[test]
        fn the_byte_prefix_matches_the_vec_reference((len, pool, stride, reads) in runs()) {
            let (mut track, mut reference) = (LatencyTrack::default(), VecTrack::default());
            let mut reads: Vec<usize> = reads.iter().map(|r| r % (len + 1)).collect();
            reads.extend([len, EXACT_LATENCY_CAP, EXACT_LATENCY_CAP + 1]);
            reads.sort_unstable();
            reads.dedup();
            let mut at = 0;
            for read in reads.into_iter().filter(|&r| r <= len) {
                for i in at..read {
                    let v = pool[i * stride % pool.len()];
                    track.push(v);
                    reference.push(v);
                }
                at = read;
                reference.seal();
                prop_assert_eq!(track.len(), reference.hist.count() as usize);
                prop_assert_eq!(track.is_exact(), reference.is_exact(), "after {} pushes", read);
                prop_assert_eq!(track.mean().to_bits(), reference.hist.mean().to_bits());
                for p in PERCENTILES {
                    prop_assert_eq!(track.percentile(p), reference.percentile(p), "p{} after {} pushes", p, read);
                }
            }
        }
    }

    /// Past the cap the prefix is gone, not just unread; below it, a
    /// latency under 2²¹ cycles costs at most 3 bytes.
    #[test]
    fn the_prefix_costs_bytes_and_is_freed_at_the_cap() {
        let mut t = LatencyTrack::default();
        let mut v: u64 = 5;
        for _ in 0..10_000 {
            t.push(v % (1 << 21));
            v = (v * 48_271) % 2_147_483_647;
        }
        assert!(t.prefix.len() <= 3 * 10_000, "{} B", t.prefix.len());
        assert!(t.percentile(50.0) > 0 && t.sorted.get().is_some());
        for _ in 10_000..EXACT_LATENCY_CAP {
            t.push(v % (1 << 21));
        }
        assert!(t.is_exact() && !t.prefix.is_empty());
        t.push(1);
        assert!(!t.is_exact());
        assert_eq!(
            t.prefix.capacity(),
            0,
            "the prefix still holds its allocation"
        );
        assert!(t.sorted.get().is_none(), "the sorted view outlived the cap");
    }

    #[test]
    fn percentiles_on_known_data() {
        let mut s = RunStats::new("t", 1);
        s.latencies = (0..100).rev().collect::<Vec<Cycles>>().into();
        s.completed = 100;
        assert_eq!(s.p50(), 50);
        assert_eq!(s.p99(), 98);
        assert_eq!(s.percentile(0.0), 0);
        assert_eq!(s.percentile(100.0), 99);
        assert!((s.mean() - 49.5).abs() < 1e-9);
    }

    /// One request of each outcome class balances the ledger; one
    /// outcome too many or too few breaks it.
    #[test]
    fn every_outcome_class_counts_once_toward_conservation() {
        let mut s = RunStats::new("t", 1);
        assert!(s.conserved(), "an empty run balances");
        s.offered = 6;
        s.completed = 1;
        s.shed_queue_full = 1;
        s.shed_deadline = 1;
        s.shed_rate_limit = 1;
        s.timed_out = 1;
        s.failed = 1;
        assert!(s.conserved(), "{s:?}");
        s.failed = 2;
        assert!(!s.conserved(), "an outcome with no offer");
        s.failed = 1;
        s.offered = 7;
        assert!(!s.conserved(), "an offer with no outcome");
    }

    #[test]
    fn empty_run_is_all_zeroes() {
        let s = RunStats::new("t", 2);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.percentile(50.0), 0);
        assert_eq!(s.throughput_per_mcycle(), 0.0);
        assert_eq!(s.bytes_copied_per_completion(), 0.0);
        assert_eq!(s.utilization(), vec![0.0, 0.0]);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut s = RunStats::new("t", 1);
        s.latencies = vec![42].into();
        s.completed = 1;
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(s.percentile(p), 42);
        }
        assert!((s.mean() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_percentiles_clamp() {
        let mut s = RunStats::new("t", 1);
        s.latencies = vec![1, 2, 3, 4, 5].into();
        assert_eq!(s.percentile(-10.0), 1, "below 0 clamps to the minimum");
        assert_eq!(s.percentile(250.0), 5, "above 100 clamps to the maximum");
        assert_eq!(s.percentile(f64::NAN), 1, "NaN reads as the minimum");
    }

    #[test]
    fn latency_track_degrades_gracefully_past_the_cap() {
        use sb_observe::HIST_RELATIVE_ERROR;

        let mut t = LatencyTrack::default();
        let n = EXACT_LATENCY_CAP + 10_000;
        let mut exact: Vec<Cycles> = Vec::with_capacity(n);
        let mut v: u64 = 5;
        for _ in 0..n {
            t.push(v);
            exact.push(v);
            v = (v * 48_271) % 2_147_483_647; // Lehmer stream, wide range.
        }
        exact.sort_unstable();
        assert!(!t.is_exact(), "past the cap the track is histogram-only");
        assert_eq!(t.len(), n, "the count still sees every sample");
        let truth_mean = exact.iter().sum::<Cycles>() as f64 / n as f64;
        assert!((t.mean() - truth_mean).abs() < 1e-6, "mean stays exact");
        for p in [50.0, 95.0, 99.0] {
            let rank = ((p / 100.0) * (n - 1) as f64).round() as usize;
            let truth = exact[rank] as f64;
            let got = t.percentile(p) as f64;
            assert!(
                (got - truth).abs() / truth <= HIST_RELATIVE_ERROR + 1e-12,
                "p{p}: {got} vs {truth}"
            );
        }
    }

    #[test]
    fn latency_track_is_exact_under_the_cap() {
        let mut t = LatencyTrack::default();
        for v in [30u64, 10, 20] {
            t.push(v);
        }
        assert!(t.is_exact());
        assert_eq!(t.percentile(0.0), 10);
        assert_eq!(t.percentile(50.0), 20);
        assert_eq!(t.percentile(100.0), 30);
    }

    #[test]
    fn tenant_breakdown_conserves_and_ranks() {
        let mut s = RunStats::new("t", 1);
        for (tenant, completed, shed_rl) in [(0u16, 5u64, 0u64), (7, 2, 3), (9, 1, 0)] {
            let t = s.tenant_mut(tenant);
            t.offered = completed + shed_rl;
            t.completed = completed;
            t.shed_rate_limit = shed_rl;
            for i in 0..completed {
                t.latencies.push(100 + i);
            }
            s.offered += completed + shed_rl;
            s.completed += completed;
            s.shed_rate_limit += shed_rl;
        }
        assert!(s.tenants_conserved());
        assert_eq!(s.shed(), 3, "rate-limit sheds count as sheds");
        let top = s.top_tenants(2);
        assert_eq!(top[0].0, 0);
        assert_eq!(top[1].0, 7);
        assert_eq!(s.tenant(7).unwrap().shed(), 3);
        assert!(s.tenant(1).is_none());
        // Break one tenant's ledger: the check must catch it.
        s.tenant_mut(9).failed += 1;
        assert!(!s.tenants_conserved());
    }

    #[test]
    fn bytes_copied_averages_over_completions() {
        let mut s = RunStats::new("t", 1);
        s.completed = 4;
        s.bytes_copied = 4 * 88;
        assert!((s.bytes_copied_per_completion() - 88.0).abs() < 1e-9);
    }
}
