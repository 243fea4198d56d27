//! Property tests for the metrics histograms: the algebraic laws the
//! module docs promise (`merge` associative and commutative, equal to
//! recording the combined sample set), the bucketing invariant (every
//! value lands in a bucket whose `[lo, hi]` range contains it), and the
//! quantile error bound (the estimate lies inside the bucket of the true
//! rank statistic, so it is within 25 % of it and exact below 16).

use hstreams::metrics::hist::{bucket_bounds, bucket_of, HistogramSnapshot, BUCKETS};
use proptest::collection::vec;
use proptest::prelude::*;

/// Record a sample set into a fresh histogram.
fn snap(samples: &[u64]) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::default();
    for &v in samples {
        h.record(v);
    }
    h
}

/// Mixed-magnitude sample strategy: small exact-bucket values, mid-range,
/// and large octaves all appear, so the properties exercise every bucket
/// regime rather than just one.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    vec(0u64..u64::MAX, 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn merge_is_commutative(a in samples(), b in samples()) {
        let (sa, sb) = (snap(&a), snap(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative_and_matches_combined_recording(
        a in samples(),
        b in samples(),
        c in samples(),
    ) {
        let (sa, sb, sc) = (snap(&a), snap(&b), snap(&c));
        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊕ (b ⊕ c)
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        // Both must equal one histogram that saw every sample.
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        prop_assert_eq!(&left, &snap(&all));
    }

    #[test]
    fn buckets_cover_every_value(v in 0u64..u64::MAX) {
        let idx = bucket_of(v);
        prop_assert!(idx < BUCKETS);
        let (lo, hi) = bucket_bounds(idx);
        prop_assert!(lo <= v && v <= hi, "{} outside bucket {} = [{}, {}]", v, idx, lo, hi);
        // Exact below 16 (the linear region).
        if v < 16 {
            prop_assert_eq!((lo, hi), (v, v));
        }
    }

    #[test]
    fn quantile_is_bounded_by_the_rank_statistic_bucket(
        raw in vec(0u64..u64::MAX, 1..40),
        qn in 1u64..=100,
    ) {
        let q = qn as f64 / 100.0;
        let s = snap(&raw);
        let est = s.quantile(q);
        // The true order statistic the quantile names (1-based rank).
        let mut sorted = raw.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];
        // The estimate must lie inside the bucket holding the truth —
        // that is the ≤25 % relative error bound, and exactness below 16.
        let (lo, hi) = bucket_bounds(bucket_of(truth));
        prop_assert!(
            est >= lo && est <= hi,
            "q={} estimate {} outside truth {}'s bucket [{}, {}]",
            q, est, truth, lo, hi
        );
        prop_assert!(est <= s.max);
        if truth < 16 {
            prop_assert_eq!(est, truth);
        }
    }
}
