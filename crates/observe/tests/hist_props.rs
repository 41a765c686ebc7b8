//! Property tests for [`Log2Histogram`] at the extremes: quantiles on
//! inputs spanning the full `u64` range (including 0 and `u64::MAX`)
//! must stay bounded by the data and within the structure's advertised
//! relative error.

use proptest::prelude::*;
use sb_observe::{Log2Histogram, HIST_RELATIVE_ERROR};

/// Values biased toward the histogram's edge cases: the exact
/// sub-16 buckets, octave boundaries, and both ends of the range.
fn edge_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(15u64),
        Just(16u64),
        Just(17u64),
        Just(u64::MAX - 1),
        Just(u64::MAX),
        any::<u64>(),
        0u64..1024,
    ]
}

proptest! {
    /// Every reported percentile is bounded below by the true value at
    /// its rank and above by the structure's relative error — even
    /// when the data sits at 0 or `u64::MAX`.
    #[test]
    fn percentiles_bound_their_rank_value(
        values in proptest::collection::vec(edge_value(), 1..120),
        ps in proptest::collection::vec(0u32..=100, 1..8),
    ) {
        let mut h = Log2Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &p in &ps {
            let p = p as f64;
            let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
            let truth = sorted[rank];
            let got = h.percentile(p);
            prop_assert!(got >= truth, "p{p}: reported {got} below true {truth}");
            // The bucket's upper bound overshoots by at most one
            // sub-bucket width (≤ truth/16); clamping to the observed
            // max can only tighten it.
            let bound = truth.saturating_add(
                ((truth as f64) * HIST_RELATIVE_ERROR).ceil() as u64
            );
            prop_assert!(got <= bound, "p{p}: reported {got} above bound {bound}");
        }
    }

    /// Percentiles are monotone in `p` and always inside `[min, max]`;
    /// count/sum/min/max are exact whatever the input range.
    #[test]
    fn moments_are_exact_and_quantiles_monotone(
        values in proptest::collection::vec(edge_value(), 1..120),
    ) {
        let mut h = Log2Histogram::new();
        let mut sum = 0u128;
        for &v in &values {
            h.record(v);
            sum += v as u128;
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), sum);
        prop_assert_eq!(h.min(), *values.iter().min().unwrap());
        prop_assert_eq!(h.max(), *values.iter().max().unwrap());
        prop_assert!(h.mean().is_finite());
        let mut last = h.percentile(0.0);
        prop_assert!(last >= h.min());
        for i in 1..=20 {
            let q = h.percentile(i as f64 * 5.0);
            prop_assert!(q >= last, "quantiles must be monotone");
            last = q;
        }
        prop_assert!(last <= h.max().max(h.percentile(0.0)));
        prop_assert_eq!(h.percentile(100.0), h.max());
    }
}
