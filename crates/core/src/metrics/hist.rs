//! Log-bucketed latency/size histograms with quantile extraction.
//!
//! [`HistogramSnapshot`] is a plain value type: `record` keeps sparse
//! ascending buckets plus the scalar moments, with p50/p95/p99 extraction
//! and a merge that is associative and commutative by construction
//! (bucket-wise addition; the proptest suite pins both laws plus the
//! quantile error bound).
//!
//! Bucketing is HdrHistogram-style base-2 with 4 linear sub-buckets per
//! octave: values `0..=15` land in exact buckets, larger values in bucket
//! `16 + 4*(octave-4) + sub` where `octave = floor(log2 v)` and `sub` is
//! the next two bits below the leading one. Relative quantile error is
//! therefore bounded by the sub-bucket width: **at most 25 %** of the true
//! rank statistic, and exact below 16.

/// Number of buckets: 16 exact + 4 sub-buckets for each octave `4..=63`.
pub const BUCKETS: usize = 16 + 4 * 60;

/// Bucket index covering `v`.
#[must_use]
pub fn bucket_of(v: u64) -> usize {
    if v < 16 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as usize; // >= 4
    let sub = ((v >> (octave - 2)) & 0b11) as usize;
    16 + 4 * (octave - 4) + sub
}

/// Inclusive `[lo, hi]` value range of bucket `idx`.
#[must_use]
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    assert!(idx < BUCKETS, "bucket index out of range");
    if idx < 16 {
        return (idx as u64, idx as u64);
    }
    let octave = 4 + (idx - 16) / 4;
    let sub = ((idx - 16) % 4) as u64;
    let width = 1u64 << (octave - 2);
    let lo = (1u64 << octave) + sub * width;
    (lo, lo + (width - 1))
}

/// Histogram state: sparse `(bucket index, count)` pairs plus the scalar
/// moments. Written by [`HistogramSnapshot::record`]; mergeable.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Non-empty buckets as `(bucket index, sample count)`, ascending.
    pub buckets: Vec<(usize, u64)>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Record one sample: its bucket's count, `count`, a wrapping `sum`,
    /// `min` and `max`.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_of(v);
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(at) => self.buckets[at].1 += 1,
            Err(at) => self.buckets.insert(at, (idx, 1)),
        }
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.max = self.max.max(v);
        self.sum = self.sum.wrapping_add(v);
        self.count += 1;
    }

    /// Merge `other` into `self` — bucket-wise addition, so the operation
    /// is associative and commutative and two merged snapshots equal the
    /// snapshot of the combined sample set.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        let mut merged: Vec<(usize, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.buckets.len() || j < other.buckets.len() {
            match (self.buckets.get(i), other.buckets.get(j)) {
                (Some(&(bi, ni)), Some(&(bj, nj))) if bi == bj => {
                    merged.push((bi, ni + nj));
                    i += 1;
                    j += 1;
                }
                (Some(&(bi, ni)), Some(&(bj, _))) if bi < bj => {
                    merged.push((bi, ni));
                    i += 1;
                }
                (Some(_), Some(&(bj, nj))) => {
                    merged.push((bj, nj));
                    j += 1;
                }
                (Some(&b), None) => {
                    merged.push(b);
                    i += 1;
                }
                (None, Some(&b)) => {
                    merged.push(b);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        let self_empty = self.count == 0;
        self.buckets = merged;
        // Wrapping, to match `record`, so merged snapshots stay bit-equal
        // to combined recording even for astronomically large totals.
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = if self_empty {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
    }

    /// Mean sample (0 with no samples).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// The `q`-quantile (`0 < q <= 1`): the upper bound of the bucket
    /// holding the true rank statistic, clamped to the observed maximum —
    /// so the estimate always lies inside that bucket's `[lo, hi]` range
    /// (within 25 % of the true value, exact below 16). Returns 0 for an
    /// empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the order statistic the quantile names.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let (_, hi) = bucket_bounds(idx);
                return hi.min(self.max);
            }
        }
        self.max
    }

    /// Median.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..16u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn buckets_tile_the_u64_range() {
        // Every bucket's hi + 1 must be the next bucket's lo, and the last
        // bucket must end exactly at u64::MAX.
        for idx in 0..BUCKETS - 1 {
            let (_, hi) = bucket_bounds(idx);
            let (lo_next, _) = bucket_bounds(idx + 1);
            assert_eq!(hi + 1, lo_next, "gap between buckets {idx} and {}", idx + 1);
        }
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn bucket_contains_its_values() {
        for v in [
            0,
            1,
            15,
            16,
            17,
            63,
            64,
            100,
            1 << 20,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let (lo, hi) = bucket_bounds(bucket_of(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn quantiles_on_known_data() {
        let mut snap = HistogramSnapshot::default();
        for v in 1..=100u64 {
            snap.record(v);
        }
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum, 5050);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 100);
        // p50's true rank statistic is 50; the estimate must be within its
        // bucket (48..=55 at this scale).
        let p50 = snap.p50();
        let (lo, hi) = bucket_bounds(bucket_of(50));
        assert!(p50 >= lo && p50 <= hi, "p50 {p50} outside [{lo}, {hi}]");
        assert_eq!(snap.quantile(1.0), 100);
        // Quantile of an empty histogram is 0.
        assert_eq!(HistogramSnapshot::default().p99(), 0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        let mut both = HistogramSnapshot::default();
        for v in [3u64, 99, 1024, 5] {
            a.record(v);
            both.record(v);
        }
        for v in [7u64, 99, 1 << 30] {
            b.record(v);
            both.record(v);
        }
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged, both);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut snap = HistogramSnapshot::default();
        snap.record(42);
        let mut left = snap.clone();
        left.merge(&HistogramSnapshot::default());
        assert_eq!(left, snap);
        let mut right = HistogramSnapshot::default();
        right.merge(&snap);
        assert_eq!(right, snap);
    }
}
