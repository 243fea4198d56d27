//! Small shared helpers: deterministic input generation, float
//! comparisons for validation against serial references, and the row-tile
//! halo the Hotspot and SRAD stencils share.

use hstreams::types::BufId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for workload generation; same seed ⇒ same workload on
/// every run, which the paper's repeat-and-average protocol assumes.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Uniform random vector in `[lo, hi)`.
pub fn random_vec(seed: u64, len: usize, lo: f32, hi: f32) -> Vec<f32> {
    let mut r = rng(seed);
    (0..len).map(|_| r.gen_range(lo..hi)).collect()
}

/// Maximum absolute difference between two slices.
///
/// # Panics
/// Panics if lengths differ — comparing different shapes is always a bug.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Maximum relative difference `|a-b| / max(|a|,|b|,scale)`.
pub fn max_rel_diff(a: &[f32], b: &[f32], scale: f32) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(scale))
        .fold(0.0, f32::max)
}

/// Assert two slices agree within `tol` relative error.
pub fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
    let d = max_rel_diff(a, b, 1.0);
    assert!(d <= tol, "{what}: max relative diff {d} > tol {tol}");
}

/// Split `n` items into `parts` near-equal contiguous ranges.
#[allow(clippy::single_range_in_vec_init)] // a 1-range Vec IS the intent here
pub fn split_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    if parts == 0 {
        return vec![0..n];
    }
    let parts = parts.min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let take = base + usize::from(i < extra);
        out.push(start..start + take);
        start += take;
    }
    out
}

/// Row block `t` of a grid cut into horizontal blocks, as a stencil kernel
/// sees it: its size and whether blocks lie above and below it.
#[derive(Clone, Copy)]
pub(crate) struct RowTile {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) has_above: bool,
    pub(crate) has_below: bool,
}

impl RowTile {
    /// Block `t` of the blocks of `tile_rows` rows each, `cols` wide.
    pub(crate) fn new(tile_rows: &[usize], t: usize, cols: usize) -> RowTile {
        RowTile {
            rows: tile_rows[t],
            cols,
            has_above: t > 0,
            has_below: t + 1 < tile_rows.len(),
        }
    }

    /// Block `t`'s reads out of the row-block buffers `grid`: its own block,
    /// then the block above and the block below where they exist — the
    /// order [`RowTile::halo`] takes apart.
    pub(crate) fn halo_reads(self, grid: &[BufId], t: usize) -> impl Iterator<Item = BufId> {
        let above = self.has_above.then(|| grid[t - 1]);
        let below = self.has_below.then(|| grid[t + 1]);
        std::iter::once(grid[t]).chain(above).chain(below)
    }

    /// The [`Halo`] at the front of a kernel's `reads`, laid out by
    /// [`RowTile::halo_reads`], and the reads after it.
    pub(crate) fn halo<'a, 'r>(self, reads: &'r [&'a [f32]]) -> (Halo<'a>, &'r [&'a [f32]]) {
        let mut rest = &reads[1..];
        let mut next = |present: bool| {
            present.then(|| {
                let read = rest[0];
                rest = &rest[1..];
                read
            })
        };
        let (above, below) = (next(self.has_above), next(self.has_below));
        let (rows, cols) = (self.rows, self.cols);
        let own = reads[0];
        (
            Halo {
                own,
                above,
                below,
                rows,
                cols,
            },
            rest,
        )
    }
}

/// One row block of a grid with the blocks above and below it: cell
/// `(r, c)` of the block and its four neighbours, a neighbour past the
/// grid's edge reading as the cell itself.
pub(crate) struct Halo<'a> {
    own: &'a [f32],
    above: Option<&'a [f32]>,
    below: Option<&'a [f32]>,
    rows: usize,
    cols: usize,
}

impl Halo<'_> {
    /// Cell `(r, c)` of the block.
    #[inline]
    pub(crate) fn at(&self, r: usize, c: usize) -> f32 {
        self.own[r * self.cols + c]
    }

    /// The cell above `(r, c)`: the last row of the block above at `r = 0`.
    #[inline]
    pub(crate) fn north(&self, r: usize, c: usize) -> f32 {
        let cols = self.cols;
        if r > 0 {
            self.own[(r - 1) * cols + c]
        } else if let Some(ab) = self.above {
            ab[(ab.len() / cols - 1) * cols + c]
        } else {
            self.at(r, c)
        }
    }

    /// The cell below `(r, c)`: the first row of the block below at the
    /// block's last row.
    #[inline]
    pub(crate) fn south(&self, r: usize, c: usize) -> f32 {
        if r + 1 < self.rows {
            self.own[(r + 1) * self.cols + c]
        } else if let Some(be) = self.below {
            be[c]
        } else {
            self.at(r, c)
        }
    }

    /// The cell left of `(r, c)`.
    #[inline]
    pub(crate) fn west(&self, r: usize, c: usize) -> f32 {
        if c > 0 {
            self.own[r * self.cols + c - 1]
        } else {
            self.at(r, c)
        }
    }

    /// The cell right of `(r, c)`.
    #[inline]
    pub(crate) fn east(&self, r: usize, c: usize) -> f32 {
        if c + 1 < self.cols {
            self.own[r * self.cols + c + 1]
        } else {
            self.at(r, c)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        assert_eq!(random_vec(7, 16, 0.0, 1.0), random_vec(7, 16, 0.0, 1.0));
        assert_ne!(random_vec(7, 16, 0.0, 1.0), random_vec(8, 16, 0.0, 1.0));
    }

    #[test]
    fn diffs() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 2.0]), 0.5);
        assert!(max_rel_diff(&[100.0], &[101.0], 1.0) < 0.011);
        assert_close(&[1.0, 2.0], &[1.0, 2.0], 1e-6, "identical");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn diff_rejects_shape_mismatch() {
        max_abs_diff(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "max relative diff")]
    fn assert_close_fires() {
        assert_close(&[1.0], &[2.0], 0.1, "should fail");
    }

    #[test]
    fn split_ranges_cover() {
        let ranges = split_ranges(10, 3);
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        assert_eq!(split_ranges(2, 5).len(), 2, "parts clamp to n");
        assert!(split_ranges(0, 3).is_empty());
        assert_eq!(split_ranges(5, 1), vec![0..5]);
    }
}
