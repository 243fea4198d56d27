//! Kmeans clustering — non-overlappable, from Rodinia/MineBench.
//!
//! Lloyd's algorithm: every iteration assigns each point to its nearest
//! centroid and recomputes the centroids, with a device-wide barrier between
//! the two phases (Fig. 4(d)) — so transfers and kernels cannot overlap.
//!
//! The paper still measures a 24.1 % streamed gain for Kmeans, and traces it
//! to the kernel's **per-iteration temporary allocation**, whose cost grows
//! linearly with the threads of the partition the kernel lands on
//! (Sec. V-B1). With many partitions each allocation covers few threads and
//! the per-iteration overhead collapses — the effect behind Fig. 9(c)'s
//! monotone drop. The cost model carries this in
//! [`profiles::kmeans_assign`]'s `alloc_per_thread`.

use std::sync::Arc;

use hstreams::context::Context;
use hstreams::kernel::{KernelDesc, KernelFn};
use hstreams::types::{BufId, Result};

use crate::profiles;
use crate::util;

/// Problem description.
#[derive(Clone, Copy, Debug)]
pub struct KmeansConfig {
    /// Number of points.
    pub points: usize,
    /// Feature dimensions (MineBench uses 34).
    pub dims: usize,
    /// Number of clusters (the paper uses 8).
    pub k: usize,
    /// Lloyd iterations (the paper uses 100).
    pub iterations: usize,
    /// Number of point tiles (tasks per iteration).
    pub tiles: usize,
    /// Per-thread scratch allocation cost per kernel invocation, in
    /// microseconds (Sec. V-B1's observed overhead). `5` matches the
    /// calibrated platform; `0` models a preallocating kernel (ablation).
    pub alloc_micros: u64,
}

impl KmeansConfig {
    /// The paper's Fig. 9(c) setup: 1 120 000 points, tile size 20 000.
    pub fn paper_fig9() -> KmeansConfig {
        KmeansConfig {
            points: 1_120_000,
            dims: 34,
            k: 8,
            iterations: 100,
            tiles: 56,
            alloc_micros: 5,
        }
    }

    /// Validate.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.points == 0 || self.dims == 0 || self.k == 0 || self.tiles == 0 {
            return Err("points, dims, k and tiles must be positive".into());
        }
        if self.k > self.points {
            return Err(format!("k {} exceeds point count {}", self.k, self.points));
        }
        if self.tiles > self.points {
            return Err(format!(
                "tiles {} exceeds point count {}",
                self.tiles, self.points
            ));
        }
        Ok(())
    }
}

/// Buffer handles of a built Kmeans program, and the two kernel bodies
/// every launch of its tiling shares.
pub struct KmeansBuffers {
    /// Point tiles (`chunk × dims`, row-major point-major).
    pub point_tiles: Vec<BufId>,
    /// Current centroids (`k × dims`).
    pub centroids: BufId,
    /// Per-tile partial sums (`k × (dims + 1)`: per-cluster feature sums
    /// followed by the member count).
    pub partials: Vec<BufId>,
    /// Point counts of each tile.
    pub tile_sizes: Vec<usize>,
    assign: KernelFn,
    reduce: KernelFn,
}

/// Assignment body: one tile's per-cluster partial sums and counts.
fn assign_body(dims: usize, k: usize) -> KernelFn {
    Arc::new(move |kc| {
        let points = kc.reads[0];
        let centroids = kc.reads[1];
        let threads = kc.threads;
        let n = points.len() / dims;
        let stride = dims + 1;
        let partial = hstreams::parallel::par_reduce(
            n,
            threads,
            |range| {
                let mut acc = vec![0.0f32; k * stride];
                for p in range {
                    let pt = &points[p * dims..(p + 1) * dims];
                    let mut best = 0usize;
                    let mut best_d = f32::INFINITY;
                    for c in 0..k {
                        let cen = &centroids[c * dims..(c + 1) * dims];
                        let mut d = 0.0f32;
                        for m in 0..dims {
                            let diff = pt[m] - cen[m];
                            d += diff * diff;
                        }
                        if d < best_d {
                            best_d = d;
                            best = c;
                        }
                    }
                    for m in 0..dims {
                        acc[best * stride + m] += pt[m];
                    }
                    acc[best * stride + dims] += 1.0;
                }
                acc
            },
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(&b) {
                    *x += y;
                }
                a
            },
            vec![0.0f32; k * stride],
        );
        kc.writes[0].copy_from_slice(&partial);
    })
}

/// Reduction body: new centroids from every tile's partials.
fn reduce_body(dims: usize, k: usize) -> KernelFn {
    Arc::new(move |kc| {
        let stride = dims + 1;
        let mut sums = vec![0.0f32; k * stride];
        for partial in kc.reads.iter() {
            for (x, y) in sums.iter_mut().zip(*partial) {
                *x += y;
            }
        }
        let centroids = &mut kc.writes[0];
        for c in 0..k {
            let count = sums[c * stride + dims];
            if count > 0.0 {
                for m in 0..dims {
                    centroids[c * dims + m] = sums[c * stride + m] / count;
                }
            }
            // Empty cluster: keep the previous centroid (already resident).
        }
    })
}

/// Build the streamed Kmeans program. `tiles == 1` with one partition is the
/// paper's non-streamed version.
pub fn build(ctx: &mut Context, cfg: &KmeansConfig) -> Result<KmeansBuffers> {
    cfg.validate().map_err(hstreams::Error::Config)?;
    let ranges = util::split_ranges(cfg.points, cfg.tiles);
    let tile_sizes: Vec<usize> = ranges
        .iter()
        .map(std::iter::ExactSizeIterator::len)
        .collect();

    let point_tiles: Vec<BufId> = tile_sizes
        .iter()
        .enumerate()
        .map(|(t, &n)| ctx.alloc(format_args!("pts{t}"), n * cfg.dims))
        .collect();
    let centroids = ctx.alloc("centroids", cfg.k * cfg.dims);
    let partials: Vec<BufId> = (0..tile_sizes.len())
        .map(|t| ctx.alloc(format_args!("partial{t}"), cfg.k * (cfg.dims + 1)))
        .collect();
    let bufs = KmeansBuffers {
        point_tiles,
        centroids,
        partials,
        tile_sizes,
        assign: assign_body(cfg.dims, cfg.k),
        reduce: reduce_body(cfg.dims, cfg.k),
    };
    record(ctx, cfg, &bufs)?;
    Ok(bufs)
}

/// Record the Kmeans action sequence (uploads, per-iteration assign/reduce
/// phases separated by barriers, final download) against already-allocated
/// buffers (built by [`build`] for the same `cfg`); used by [`build`] and by autotuning sweeps that replan the
/// stream geometry and re-record the same problem without reallocating.
pub fn record(ctx: &mut Context, cfg: &KmeansConfig, bufs: &KmeansBuffers) -> Result<()> {
    cfg.validate().map_err(hstreams::Error::Config)?;
    let streams = ctx.stream_count();

    // Upload points and the initial centroids, then synchronize.
    for (t, &buf) in bufs.point_tiles.iter().enumerate() {
        let s = ctx.stream(t % streams)?;
        ctx.h2d(s, buf)?;
    }
    let s0 = ctx.stream(0)?;
    ctx.h2d(s0, bufs.centroids)?;
    ctx.barrier();

    record_iterations(ctx, cfg, bufs)
}

/// Record the Lloyd iterations (assign on every tile, barrier, reduce,
/// barrier) with the bodies `bufs` shares, then the centroids' download.
fn record_iterations(ctx: &mut Context, cfg: &KmeansConfig, bufs: &KmeansBuffers) -> Result<()> {
    let streams = ctx.stream_count();
    let s0 = ctx.stream(0)?;
    let (dims, k) = (cfg.dims as f64, cfg.k as f64);
    let assign_profile =
        profiles::kmeans_assign_with_alloc(micsim::SimDuration::from_micros(cfg.alloc_micros));
    let reduce_work = bufs.tile_sizes.len() as f64 * k * (dims + 1.0);
    for iter in 0..cfg.iterations {
        for (t, &pts) in bufs.point_tiles.iter().enumerate() {
            let s = ctx.stream(t % streams)?;
            let work = bufs.tile_sizes[t] as f64 * k * dims;
            ctx.kernel(
                s,
                KernelDesc::simulated(
                    format_args!("assign({t},{iter})"),
                    assign_profile.clone(),
                    work,
                )
                .with_body(bufs.assign.clone())
                .reading([pts, bufs.centroids])
                .writing([bufs.partials[t]]),
            )?;
        }
        ctx.barrier();
        ctx.kernel(
            s0,
            KernelDesc::simulated(
                format_args!("reduce({iter})"),
                profiles::kmeans_reduce(),
                reduce_work,
            )
            .with_body(bufs.reduce.clone())
            .reading(bufs.partials.iter().copied())
            .writing([bufs.centroids]),
        )?;
        ctx.barrier();
    }
    ctx.d2h(s0, bufs.centroids)
}

/// Deterministic clustered input: `k` well-separated Gaussian-ish blobs.
/// Returns the flat `points × dims` data; initial centroids are the first
/// `k` points (written to the centroid buffer).
pub fn fill_inputs(
    ctx: &Context,
    cfg: &KmeansConfig,
    bufs: &KmeansBuffers,
    seed: u64,
) -> Result<Vec<f32>> {
    let mut r = util::rng(seed);
    use rand::Rng;
    let mut data = vec![0.0f32; cfg.points * cfg.dims];
    for (p, chunk) in data.chunks_mut(cfg.dims).enumerate() {
        let blob = p % cfg.k;
        for (m, x) in chunk.iter_mut().enumerate() {
            // Blob centers sit on a coarse lattice; spread is small so
            // assignments are numerically stable across summation orders.
            let center = (blob * 10 + m % 3) as f32;
            *x = center + r.gen_range(-0.5..0.5);
        }
    }
    let mut offset = 0usize;
    for (t, &buf) in bufs.point_tiles.iter().enumerate() {
        let n = bufs.tile_sizes[t];
        ctx.write_host(buf, &data[offset * cfg.dims..(offset + n) * cfg.dims])?;
        offset += n;
    }
    ctx.write_host(bufs.centroids, &data[..cfg.k * cfg.dims])?;
    Ok(data)
}

/// Serial reference: Lloyd's algorithm from the same initial centroids.
pub fn reference(cfg: &KmeansConfig, data: &[f32]) -> Vec<f32> {
    let (dims, k) = (cfg.dims, cfg.k);
    let mut centroids = data[..k * dims].to_vec();
    for _ in 0..cfg.iterations {
        let mut sums = vec![0.0f64; k * dims];
        let mut counts = vec![0u64; k];
        for pt in data.chunks(dims) {
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for c in 0..k {
                let cen = &centroids[c * dims..(c + 1) * dims];
                let mut d = 0.0f32;
                for m in 0..dims {
                    let diff = pt[m] - cen[m];
                    d += diff * diff;
                }
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            for m in 0..dims {
                sums[best * dims + m] += pt[m] as f64;
            }
            counts[best] += 1;
        }
        for c in 0..k {
            if counts[c] > 0 {
                for m in 0..dims {
                    centroids[c * dims + m] = (sums[c * dims + m] / counts[c] as f64) as f32;
                }
            }
        }
    }
    centroids
}

/// Maximum centroid displacement between two centroid sets.
pub fn centroid_shift(a: &[f32], b: &[f32], dims: usize) -> f32 {
    a.chunks(dims)
        .zip(b.chunks(dims))
        .map(|(x, y)| {
            x.iter()
                .zip(y)
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f32>()
                .sqrt()
        })
        .fold(0.0, f32::max)
}

/// Run Kmeans **to convergence** on the native executor: batches of
/// `cfg.iterations` Lloyd rounds run until the centroids move less than
/// `epsilon`, up to `max_batches` batches. The caller builds the program
/// with [`build`] and fills inputs first; the first batch runs that
/// recorded program (uploads included).
///
/// This exercises program reuse: after the first batch the points already
/// live in device memory, so subsequent batches are rebuilt (via
/// [`Context::reset_program`]) *without* the upload phase — the follow-up
/// programs contain kernels and synchronizations only.
pub fn converge_native(
    ctx: &mut Context,
    cfg: &KmeansConfig,
    bufs: &KmeansBuffers,
    epsilon: f32,
    max_batches: usize,
) -> Result<(Vec<f32>, usize)> {
    let mut prev: Option<Vec<f32>> = None;
    for batch in 1..=max_batches {
        ctx.run_native()?;
        let current = ctx.read_host(bufs.centroids)?;
        if let Some(p) = prev {
            if centroid_shift(&p, &current, cfg.dims) < epsilon {
                return Ok((current, batch));
            }
        }
        prev = Some(current);
        // Rebuild the per-batch program without the uploads: the device
        // copies of the points and centroids survive across runs.
        ctx.reset_program();
        record_iterations(ctx, cfg, bufs)?;
    }
    Ok((prev.expect("at least one batch ran"), max_batches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::assert_close;
    use micsim::PlatformConfig;

    fn small(iters: usize, tiles: usize) -> KmeansConfig {
        KmeansConfig {
            points: 512,
            dims: 6,
            k: 4,
            iterations: iters,
            tiles,
            alloc_micros: 5,
        }
    }

    #[test]
    fn validation() {
        assert!(small(1, 1).validate().is_ok());
        assert!(KmeansConfig {
            k: 600,
            ..small(1, 1)
        }
        .validate()
        .is_err());
        assert!(KmeansConfig {
            tiles: 0,
            ..small(1, 1)
        }
        .validate()
        .is_err());
    }

    #[test]
    fn native_tiled_matches_reference() {
        let cfg = small(5, 4);
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(4)
            .build()
            .unwrap();
        let bufs = build(&mut ctx, &cfg).unwrap();
        let data = fill_inputs(&ctx, &cfg, &bufs, 99).unwrap();
        ctx.run_native().unwrap();
        let got = ctx.read_host(bufs.centroids).unwrap();
        let want = reference(&cfg, &data);
        assert_close(&got, &want, 1e-3, "kmeans centroids");
    }

    #[test]
    fn converges_to_blob_centers() {
        let cfg = small(10, 2);
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .build()
            .unwrap();
        let bufs = build(&mut ctx, &cfg).unwrap();
        fill_inputs(&ctx, &cfg, &bufs, 1).unwrap();
        ctx.run_native().unwrap();
        let got = ctx.read_host(bufs.centroids).unwrap();
        // Blob `b` sits near (10b, 10b+1, 10b+2, 10b, ...): check every
        // centroid is close to SOME blob center lattice point.
        for cen in got.chunks(cfg.dims) {
            let blob = (cen[0] / 10.0).round() as usize;
            for (m, &x) in cen.iter().enumerate() {
                let expect = (blob * 10 + m % 3) as f32;
                assert!(
                    (x - expect).abs() < 0.5,
                    "centroid {cen:?} far from blob {blob}"
                );
            }
        }
    }

    #[test]
    fn converge_native_stops_early_on_stable_blobs() {
        // Well-separated blobs converge in one or two Lloyd rounds; the
        // convergence loop must notice and stop long before max_batches.
        let cfg = KmeansConfig {
            points: 600,
            dims: 6,
            k: 4,
            iterations: 2, // per batch
            tiles: 4,
            alloc_micros: 5,
        };
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .build()
            .unwrap();
        let bufs = build(&mut ctx, &cfg).unwrap();
        let data = fill_inputs(&ctx, &cfg, &bufs, 42).unwrap();
        let (centroids, batches) = converge_native(&mut ctx, &cfg, &bufs, 1e-4, 20).unwrap();
        assert!(batches < 20, "converged after {batches} batches");
        // Same fixed point as a long serial reference run.
        let long_ref = reference(
            &KmeansConfig {
                iterations: 100,
                ..cfg
            },
            &data,
        );
        crate::util::assert_close(&centroids, &long_ref, 1e-2, "converged centroids");
    }

    #[test]
    fn centroid_shift_measures_max_move() {
        let a = [0.0f32, 0.0, 3.0, 4.0];
        let b = [1.0f32, 0.0, 3.0, 4.0];
        assert_eq!(centroid_shift(&a, &b, 2), 1.0);
        assert_eq!(centroid_shift(&a, &a, 2), 0.0);
    }
}
