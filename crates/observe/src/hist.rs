//! A log₂-bucketed histogram with linear sub-buckets.
//!
//! Fixed memory (976 `u64` buckets) over the full `u64` range: values
//! below 16 are exact; above that, each power-of-two octave is split into
//! 16 linear sub-buckets, so a reported quantile is within one
//! sub-bucket's width of the true value — a worst-case relative error
//! under `1/16 ≈ 6.25%`, independent of how many samples were recorded.
//! Exact
//! `count`/`sum`/`min`/`max` ride along, so the mean stays exact even
//! when the percentiles are bucketed.

use sb_sim::Cycles;

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` linear
/// buckets.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Bucket count: 16 exact small-value buckets plus 16 per octave for
/// octaves 4..=63.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Worst-case relative error of a bucketed quantile, as a fraction.
pub const HIST_RELATIVE_ERROR: f64 = 1.0 / SUB as f64;

/// The histogram.
#[derive(Clone)]
pub struct Log2Histogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: Cycles,
    max: Cycles,
}

impl std::fmt::Debug for Log2Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Log2Histogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("mean", &self.mean())
            .finish()
    }
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        // Values below 16 (including 0) land in their own exact bucket.
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= SUB_BITS here.
    let sub = ((v >> (octave - SUB_BITS)) as usize) & (SUB - 1);
    // Saturate explicitly: `u64::MAX` computes exactly BUCKETS - 1
    // today, but an index past the array must stay impossible even if
    // the bucket geometry changes.
    (SUB + (octave - SUB_BITS) as usize * SUB + sub).min(BUCKETS - 1)
}

/// The largest value that maps into `index` — the conservative (upper
/// bound) representative reported for quantiles. Saturating, so the
/// last bucket's bound (exactly `u64::MAX`) cannot wrap.
fn bucket_upper(index: usize) -> u64 {
    if index < SUB {
        return index as u64;
    }
    let octave = (index - SUB) as u32 / SUB as u32 + SUB_BITS;
    let sub = ((index - SUB) % SUB) as u64;
    let width = 1u64 << (octave - SUB_BITS);
    (SUB as u64 + sub)
        .saturating_mul(width)
        .saturating_add(width - 1)
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: Cycles::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: Cycles) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> Cycles {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> Cycles {
        self.max
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// The `p`-th percentile, bucketed: the same nearest-rank rule the
    /// exact path uses, resolved to the holding bucket's upper bound and
    /// clamped into `[min, max]`. `p` is clamped into `[0, 100]`; NaN
    /// reads as 0. Worst-case relative error [`HIST_RELATIVE_ERROR`].
    pub fn percentile(&self, p: f64) -> Cycles {
        match self.count {
            0 => return 0,
            1 => return self.min,
            _ => {}
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        let rank = ((p / 100.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Log2Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        for p in [0.0, 25.0, 50.0, 75.0, 100.0] {
            let rank = ((p / 100.0) * 15.0_f64).round() as u64;
            assert_eq!(h.percentile(p), rank, "values < 16 bucket exactly");
        }
        assert!((h.mean() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn quantile_error_is_bounded_over_wide_ranges() {
        // A deterministic multiplicative walk spanning ~9 decades.
        let mut h = Log2Histogram::new();
        let mut exact: Vec<u64> = Vec::new();
        let mut v: u64 = 3;
        for i in 0..4_000u64 {
            let sample = v + i % 7;
            h.record(sample);
            exact.push(sample);
            v = (v * 117) % 1_000_000_007 + 1;
        }
        exact.sort_unstable();
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9] {
            let rank = ((p / 100.0) * (exact.len() - 1) as f64).round() as usize;
            let truth = exact[rank] as f64;
            let got = h.percentile(p) as f64;
            let err = (got - truth).abs() / truth.max(1.0);
            assert!(
                err <= HIST_RELATIVE_ERROR + 1e-12,
                "p{p}: {got} vs exact {truth} (err {err:.4})"
            );
            assert!(got >= truth, "upper-bound representative never reads low");
        }
    }

    #[test]
    fn count_sum_min_max_are_exact() {
        let mut h = Log2Histogram::new();
        for v in [5u64, 1_000_000, 17, 0, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5 + 1_000_000 + 17 + u64::MAX as u128);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        h.record(42);
        for p in [0.0, 50.0, 100.0, f64::NAN, -5.0, 300.0] {
            assert_eq!(h.percentile(p), 42, "one sample is every percentile");
        }
    }

    #[test]
    fn extreme_values_bucket_and_report_sanely() {
        // Bucket index saturation at both ends of the u64 range: 0 is
        // exact, u64::MAX lands in the last bucket whose upper bound is
        // exactly u64::MAX (no wrap in debug or release).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
        let mut h = Log2Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn bucket_round_trip_bounds_every_value() {
        let mut v = 1u64;
        for _ in 0..63 {
            for probe in [v, v + v / 3, v + v / 2] {
                let idx = bucket_index(probe);
                let hi = bucket_upper(idx);
                assert!(hi >= probe, "upper bound holds for {probe}");
                let rel = (hi - probe) as f64 / probe as f64;
                assert!(rel <= HIST_RELATIVE_ERROR + 1e-12, "{probe}: {rel}");
            }
            v <<= 1;
        }
    }
}
