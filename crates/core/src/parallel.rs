//! Minimal data-parallel helpers for native kernels.
//!
//! A kernel body in this runtime plays the role of an OpenMP region in the
//! paper's benchmarks: it receives a `threads` hint (its partition's width)
//! and splits its own output across that many workers.
//!
//! When the native executor runs a kernel it installs the kernel's
//! partition-pinned `WorkerGroup` (`crate::pool`) as the
//! thread's current group, and the helpers route their chunks onto those
//! persistent, parked threads — no OS thread is spawned per launch. Called
//! from outside a pool (unit tests, serial references) or nested inside a
//! chunk, they fall back to `std::thread::scope`. Chunk boundaries and
//! reduce fold order are identical on both paths, so results are
//! bit-for-bit the same.

use crate::pool::CurrentGroup;

/// Split `data` into `parts` contiguous chunks and run `f(chunk_index,
/// element_offset, chunk)` on each, in parallel.
///
/// `parts` is clamped to `1..=data.len()` (empty data runs nothing). Chunks
/// differ in length by at most one element — a row-major tile whose kernel
/// walks whole rows must use [`par_rows_mut`] instead.
pub fn par_chunks_mut<T, F>(data: &mut [T], parts: usize, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    par_units_mut(data, 1, parts, f);
}

/// Split a row-major `data` of `row_len`-element rows into `parts`
/// contiguous blocks of **whole rows** and run `f(first_row, rows)` on
/// each, in parallel.
///
/// `parts` is clamped to `1..=rows`; blocks differ in height by at most one
/// row, so a row count that is not a multiple of `parts` never hands a
/// worker a partial row.
///
/// # Panics
/// Panics if `row_len` is zero or does not divide `data.len()`.
pub fn par_rows_mut<T, F>(data: &mut [T], row_len: usize, parts: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(
        row_len > 0 && data.len().is_multiple_of(row_len),
        "{} elements are not whole rows of {row_len}",
        data.len()
    );
    par_units_mut(data, row_len, parts, |_, offset, rows| {
        f(offset / row_len, rows);
    });
}

/// Shared body of the `_mut` splitters: `data` is `data.len() / unit`
/// indivisible units of `unit` elements (both callers guarantee `unit`
/// divides the length), split into `parts` chunks of whole units;
/// `f(chunk_index, element_offset, chunk)`.
fn par_units_mut<T, F>(data: &mut [T], unit: usize, parts: usize, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let units = data.len() / unit;
    if units == 0 {
        return;
    }
    let parts = parts.clamp(1, units);
    if parts == 1 {
        f(0, 0, data);
        return;
    }
    let split = Splits::new(units, parts);
    if let Some(group) = CurrentGroup::take() {
        let chunks = PtrChunks {
            ptr: data.as_mut_ptr(),
            split,
            unit,
        };
        group.run_chunked(parts, &|idx| {
            let (offset, ptr, len) = chunks.raw_chunk(idx);
            // SAFETY: the pool hands out each index at most once, so the
            // slices formed across workers are pairwise disjoint
            // views into the exclusive borrow held by this call.
            let chunk = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
            f(idx, offset, chunk);
        });
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut offset = 0usize;
        for idx in 0..parts {
            let take = split.take(idx) * unit;
            let (chunk, tail) = rest.split_at_mut(take);
            rest = tail;
            let f = &f;
            scope.spawn(move || f(idx, offset, chunk));
            offset += take;
        }
    });
}

/// Parallel map-reduce over index ranges: split `0..len` into `parts`
/// contiguous ranges, compute `map(range)` on each in parallel, and fold the
/// partial results with `reduce`.
pub fn par_reduce<R, M, F>(len: usize, parts: usize, map: M, reduce: F, identity: R) -> R
where
    R: Send,
    M: Fn(std::ops::Range<usize>) -> R + Sync,
    F: Fn(R, R) -> R,
{
    if len == 0 {
        return identity;
    }
    let parts = parts.clamp(1, len);
    if parts == 1 {
        return reduce(identity, map(0..len));
    }
    let split = Splits::new(len, parts);
    let partials: Vec<R> = if let Some(group) = CurrentGroup::take() {
        let slots: Vec<parking_lot::Mutex<Option<R>>> =
            (0..parts).map(|_| parking_lot::Mutex::new(None)).collect();
        group.run_chunked(parts, &|idx| {
            *slots[idx].lock() = Some(map(split.range(idx)));
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("chunk ran"))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..parts)
                .map(|idx| {
                    let range = split.range(idx);
                    let map = &map;
                    scope.spawn(move || map(range))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("par_reduce worker panicked"))
                .collect()
        })
    };
    partials.into_iter().fold(identity, reduce)
}

/// Chunk geometry shared by both execution paths: `parts` contiguous pieces
/// of `len` elements, the first `len % parts` one element longer.
#[derive(Clone, Copy)]
struct Splits {
    base: usize,
    extra: usize,
}

impl Splits {
    fn new(len: usize, parts: usize) -> Splits {
        Splits {
            base: len / parts,
            extra: len % parts,
        }
    }

    fn take(&self, idx: usize) -> usize {
        self.base + usize::from(idx < self.extra)
    }

    fn start(&self, idx: usize) -> usize {
        idx * self.base + idx.min(self.extra)
    }

    fn range(&self, idx: usize) -> std::ops::Range<usize> {
        let start = self.start(idx);
        start..start + self.take(idx)
    }
}

/// Raw-pointer view of a `&mut [T]` handed across pool workers; `split`
/// counts units of `unit` elements.
struct PtrChunks<T> {
    ptr: *mut T,
    split: Splits,
    unit: usize,
}

// SAFETY: workers access disjoint chunks (the pool hands out each index at
// most once), and `T: Send` in `par_units_mut` makes moving element access
// across threads sound.
unsafe impl<T: Send> Sync for PtrChunks<T> {}

impl<T> PtrChunks<T> {
    /// The `(offset, pointer, length)` of chunk `idx`. Materializing the
    /// slice is the caller's obligation: it must do so at most once per
    /// `idx` across all threads while the underlying exclusive borrow is
    /// alive, so no two slices alias.
    fn raw_chunk(&self, idx: usize) -> (usize, *mut T, usize) {
        let start = self.split.start(idx) * self.unit;
        // SAFETY: `start` is a split boundary of the slice whose exclusive
        // borrow `par_units_mut` holds, so the offset pointer stays within
        // that same allocation.
        (
            start,
            unsafe { self.ptr.add(start) },
            self.split.take(idx) * self.unit,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{self, WorkerGroup};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn chunks_cover_everything_once() {
        let mut data = vec![0u32; 103];
        par_chunks_mut(&mut data, 7, |_, offset, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = (offset + i) as u32;
            }
        });
        let expect: Vec<u32> = (0..103).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn chunk_indices_are_distinct() {
        let counter = AtomicUsize::new(0);
        let mut data = vec![0u8; 16];
        par_chunks_mut(&mut data, 4, |_, _, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn parts_clamp_to_len() {
        let mut data = vec![1.0f32; 3];
        // 100 parts over 3 elements = 3 single-element chunks.
        par_chunks_mut(&mut data, 100, |_, _, chunk| {
            assert_eq!(chunk.len(), 1);
            chunk[0] *= 2.0;
        });
        assert_eq!(data, vec![2.0; 3]);
    }

    #[test]
    fn empty_and_single() {
        let mut empty: Vec<f32> = vec![];
        par_chunks_mut(&mut empty, 4, |_, _, _| panic!("must not run"));
        let mut one = vec![5.0f32];
        par_chunks_mut(&mut one, 1, |idx, off, chunk| {
            assert_eq!((idx, off), (0, 0));
            chunk[0] = 6.0;
        });
        assert_eq!(one, vec![6.0]);
    }

    #[test]
    fn reduce_sums_ranges() {
        let sum = par_reduce(
            1000,
            8,
            |range| range.map(|i| i as u64).sum::<u64>(),
            |a, b| a + b,
            0u64,
        );
        assert_eq!(sum, 499_500);
    }

    #[test]
    fn reduce_of_empty_is_identity() {
        let r = par_reduce(0, 4, |_| 1u32, |a, b| a + b, 42u32);
        assert_eq!(r, 42);
    }

    #[test]
    fn reduce_single_part() {
        let r = par_reduce(5, 1, |range| range.len(), |a, b| a + b, 0);
        assert_eq!(r, 5);
    }

    #[test]
    fn pooled_chunks_match_scoped_chunks() {
        let fill = |data: &mut [u32], parts| {
            par_chunks_mut(data, parts, |idx, offset, chunk| {
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x = (idx * 100_000 + offset + i) as u32;
                }
            });
        };
        let mut scoped = vec![0u32; 103];
        fill(&mut scoped, 7);
        let group = Arc::new(WorkerGroup::new("pt0", 3));
        let _g = pool::install(group);
        let mut pooled = vec![0u32; 103];
        fill(&mut pooled, 7);
        assert_eq!(pooled, scoped);
    }

    #[test]
    fn row_blocks_are_whole_rows_when_parts_do_not_divide_rows() {
        // Row counts coprime to the part count: an element-granular split
        // would cut a row in two.
        let check = |rows: usize, row_len: usize, parts: usize| {
            let mut data = vec![0u32; rows * row_len];
            let blocks = AtomicUsize::new(0);
            par_rows_mut(&mut data, row_len, parts, |first_row, block| {
                blocks.fetch_add(1, Ordering::Relaxed);
                assert_eq!(block.len() % row_len, 0, "partial row");
                for (ri, row) in block.chunks_mut(row_len).enumerate() {
                    row.fill((first_row + ri) as u32 + 1);
                }
            });
            assert_eq!(blocks.load(Ordering::Relaxed), parts.min(rows));
            for (r, row) in data.chunks(row_len).enumerate() {
                assert!(row.iter().all(|&x| x == r as u32 + 1), "row {r}");
            }
        };
        let cases = [(7, 5, 3), (5, 4, 2), (2, 3, 8)];
        for (rows, row_len, parts) in cases {
            check(rows, row_len, parts);
        }
        let group = Arc::new(WorkerGroup::new("pt3", 2));
        let _g = pool::install(group);
        for (rows, row_len, parts) in cases {
            check(rows, row_len, parts);
        }
    }

    #[test]
    fn pooled_reduce_matches_scoped_reduce() {
        let run = || {
            par_reduce(
                1003,
                6,
                |range| range.map(|i| (i as f32).sqrt()).sum::<f32>(),
                |a, b| a + b,
                0.0f32,
            )
        };
        let scoped = run();
        let group = Arc::new(WorkerGroup::new("pt1", 3));
        let _g = pool::install(group);
        let pooled = run();
        // Same chunking and fold order: results are bit-identical.
        assert_eq!(pooled.to_bits(), scoped.to_bits());
    }

    #[test]
    fn nested_call_inside_pooled_chunk_does_not_deadlock() {
        let group = Arc::new(WorkerGroup::new("pt2", 1));
        let _g = pool::install(group);
        let mut outer = vec![0u64; 8];
        par_chunks_mut(&mut outer, 2, |_, _, chunk| {
            // Nested helper inside a pool chunk: must take the scoped
            // fallback (the group is busy with the outer job).
            let s = par_reduce(64, 4, |r| r.map(|i| i as u64).sum(), |a, b| a + b, 0);
            for x in chunk.iter_mut() {
                *x = s;
            }
        });
        assert!(outer.iter().all(|&x| x == 2016));
    }
}
