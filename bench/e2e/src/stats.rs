//! Order statistics, and the order in which samples join the quiet pool.
//!
//! Quantiles follow Python's `statistics.quantiles(data, n=..)` with its
//! default `exclusive` method, so `aa.sh` and the driver — both of which use
//! Python — compute the same numbers from the same samples.

/// The `i`-th of `n` cut points of `sorted` (ascending), exactly as
/// `statistics.quantiles(sorted, n=n)[i-1]` computes it. One sample is its
/// own quantile; an empty slice yields 0.
pub fn quantile(sorted: &[f64], i: usize, n: usize) -> f64 {
    debug_assert!(0 < i && i < n);
    let ld = sorted.len();
    match ld {
        0 => return 0.0,
        1 => return sorted[0],
        _ => {}
    }
    let m = ld + 1;
    let j = (i * m / n).clamp(1, ld - 1);
    // Signed: clamping `j` pushes `delta` outside `0..=n`, which
    // extrapolates past the end samples exactly as Python does.
    let delta = (i * m) as f64 - (j * n) as f64;
    (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
}

/// Sort a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 1, 2)
}

/// `i`-th percentile of unsorted samples.
pub fn percentile(values: &[f64], i: usize) -> f64 {
    quantile(&sorted(values), i, 100)
}

/// Indices of `levels` from the lowest to the highest, ties in index order.
/// `levels` say how disturbed the host was around each sample, as told by
/// instruments that do not depend on what is being measured (the fixed
/// reference loop, the kernel's steal accounting): taking samples in this
/// order cannot hide a slow one.
///
/// The disturbance this guards against is a neighbour on the same physical
/// core: it slows everything by up to 60 % for anything from a fraction of a
/// second to most of a run, and it only ever adds time.
pub fn ascending(levels: &[f32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..levels.len()).collect();
    order.sort_by(|&a, &b| {
        levels[a]
            .partial_cmp(&levels[b])
            .expect("levels are finite")
            .then(a.cmp(&b))
    });
    order
}

/// Interquartile range over the median: the spread figure the driver uses.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let med = quantile(&s, 1, 2);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(&s, 3, 4) - quantile(&s, 1, 4)) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    // Expected values produced with CPython 3:
    //   statistics.quantiles(data, n=4) / n=100 / statistics.median(data)
    const DATA: [f64; 10] = [7.1, 1.5, 9.25, 3.0, 4.75, 8.0, 2.25, 6.5, 5.0, 10.5];

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn quartiles_match_python() {
        let s = sorted(&DATA);
        close(quantile(&s, 1, 4), 2.8125);
        close(quantile(&s, 2, 4), 5.75);
        close(quantile(&s, 3, 4), 8.3125);
        close(median(&DATA), 5.75);
    }

    #[test]
    fn percentiles_match_python() {
        // quantiles(DATA, n=100)[94], [98], [49]
        close(percentile(&DATA, 95), 11.0625);
        close(percentile(&DATA, 99), 11.6125);
        close(percentile(&DATA, 50), 5.75);
        // Three samples: quantiles([1,2,4], n=4) == [1.0, 2.0, 4.0]
        let s = [1.0, 2.0, 4.0];
        close(quantile(&s, 1, 4), 1.0);
        close(quantile(&s, 3, 4), 4.0);
        // Two samples extrapolate: quantiles([1,3], n=4) == [0.5, 2.0, 3.5]
        close(quantile(&[1.0, 3.0], 1, 4), 0.5);
        close(quantile(&[1.0, 3.0], 3, 4), 3.5);
    }

    #[test]
    fn degenerate_inputs() {
        close(quantile(&[], 1, 2), 0.0);
        close(quantile(&[4.5], 19, 20), 4.5);
        close(iqr_over_median(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn ascending_orders_by_level_then_index() {
        assert_eq!(ascending(&[31.0, 21.1, 33.0, 21.0, 21.1]), [3, 1, 4, 0, 2]);
        assert!(ascending(&[]).is_empty());
    }

    #[test]
    fn iqr_over_median_matches_python() {
        // (8.3125 - 2.8125) / 5.75
        close(iqr_over_median(&DATA), 5.5 / 5.75);
    }
}
