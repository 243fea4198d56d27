//! Matrix Multiplication (MM) — overlappable, from the hStreams SDK.
//!
//! `C = A × B` with `C` partitioned into `tpd × tpd` square tiles
//! (the paper's `T = tile² ` tasks). Each task multiplies one row-panel of
//! `A` by one column-panel of `B`. Panels are transferred to the device
//! **once** and tasks in other streams synchronize on their arrival with
//! events; each finished `C` tile streams back immediately, overlapping the
//! remaining compute — the Fig. 4(a) flow.
//!
//! Transfer volume is `3·n²` elements against `2·n³` flops of compute, so
//! the overlap can hide at most a ~`6/n·(bytes/flop)` slice — which is why
//! the paper measures a modest 8.3 % average gain for MM.

use std::sync::Arc;

use hstreams::context::Context;
use hstreams::kernel::{KernelDesc, KernelFn};
use hstreams::types::{BufId, Result, StreamId};

use crate::profiles;
use crate::util;

/// Problem description.
#[derive(Clone, Copy, Debug)]
pub struct MmConfig {
    /// Matrix dimension `n` (matrices are `n × n`).
    pub n: usize,
    /// Tiles per dimension; `tiles_per_dim²` tasks in total. Must divide `n`.
    pub tiles_per_dim: usize,
}

impl MmConfig {
    /// Validate divisibility.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.n == 0 || self.tiles_per_dim == 0 {
            return Err("n and tiles_per_dim must be positive".into());
        }
        if !self.n.is_multiple_of(self.tiles_per_dim) {
            return Err(format!(
                "tiles_per_dim {} must divide n {}",
                self.tiles_per_dim, self.n
            ));
        }
        Ok(())
    }

    /// Tile edge length.
    pub fn tile(&self) -> usize {
        self.n / self.tiles_per_dim
    }

    /// Total floating-point operations of the full multiplication.
    pub fn flops(&self) -> f64 {
        2.0 * (self.n as f64).powi(3)
    }
}

/// Buffer handles of a built MM program, and the GEMM body every launch
/// of its tiling shares.
pub struct MmBuffers {
    /// Row-panels of `A` (`tile × n` each), one per tile row.
    pub a_panels: Vec<BufId>,
    /// Column-panels of `B` (`n × tile` each, row-major), one per tile col.
    pub b_panels: Vec<BufId>,
    /// `C` tiles (`tile × tile`), row-major tile index `i * tpd + j`.
    pub c_tiles: Vec<BufId>,
    gemm: KernelFn,
}

/// GEMM tile body: `C_tile = A_panel × B_panel`.
fn gemm_body(tile: usize, n: usize) -> KernelFn {
    Arc::new(move |k| {
        let a = k.reads[0]; // tile x n, row-major
        let b = k.reads[1]; // n x tile, row-major
        let c = &mut k.writes[0]; // tile x tile, row-major
        let threads = k.threads;
        hstreams::parallel::par_chunks_mut(c, threads, |_, offset, chunk| {
            // chunk covers a contiguous row-major span of C.
            for (idx, out) in chunk.iter_mut().enumerate() {
                let flat = offset + idx;
                let (r, cc) = (flat / tile, flat % tile);
                let mut acc = 0.0f32;
                let arow = &a[r * n..(r + 1) * n];
                for kk in 0..n {
                    acc += arow[kk] * b[kk * tile + cc];
                }
                *out = acc;
            }
        });
    })
}

/// Build the streamed MM program on `ctx` (which fixes `P` and the stream
/// count). Returns the buffer handles; inputs are written with
/// [`fill_inputs`]. With `tiles_per_dim == 1` this degenerates to the
/// paper's non-streamed "w/o" version: one task, one transfer each way.
pub fn build(ctx: &mut Context, cfg: &MmConfig) -> Result<MmBuffers> {
    cfg.validate().map_err(hstreams::Error::Config)?;
    let tpd = cfg.tiles_per_dim;
    let tile = cfg.tile();
    let n = cfg.n;

    let a_panels: Vec<BufId> = (0..tpd)
        .map(|i| ctx.alloc(format_args!("A_panel{i}"), tile * n))
        .collect();
    let b_panels: Vec<BufId> = (0..tpd)
        .map(|j| ctx.alloc(format_args!("B_panel{j}"), n * tile))
        .collect();
    let c_tiles: Vec<BufId> = (0..tpd * tpd)
        .map(|t| ctx.alloc(format_args!("C{}_{}", t / tpd, t % tpd), tile * tile))
        .collect();
    let bufs = MmBuffers {
        a_panels,
        b_panels,
        c_tiles,
        gemm: gemm_body(tile, n),
    };
    record(ctx, cfg, &bufs)?;
    Ok(bufs)
}

/// Record the streamed MM action sequence against already-allocated
/// buffers (built by [`build`] for the same `cfg`). Called by [`build`];
/// also directly by autotuning sweeps, which allocate and fill the buffers
/// once and then re-record the same problem against a replanned stream
/// geometry (see [`Context::replan`](hstreams::context::Context::replan)).
pub fn record(ctx: &mut Context, cfg: &MmConfig, bufs: &MmBuffers) -> Result<()> {
    cfg.validate().map_err(hstreams::Error::Config)?;
    let tpd = cfg.tiles_per_dim;
    let tile = cfg.tile();
    let work = 2.0 * tile as f64 * tile as f64 * cfg.n as f64;
    let streams = ctx.stream_count();
    let (a_panels, b_panels, c_tiles) = (&bufs.a_panels, &bufs.b_panels, &bufs.c_tiles);

    // Panels transfer once, demand-driven: each panel's H2D is enqueued on
    // the stream of the *first* task that consumes it, immediately before
    // that task, so no kernel queues behind uploads it does not need (stream
    // FIFOs would otherwise stall the pipeline behind unrelated transfers).
    // Later consumers synchronize on the panel's event; on a multi-card
    // context the residency tracker mirrors panels to the other cards
    // on demand (Sec. VI's extra transfers), so the same code runs
    // unmodified on several MICs.
    let mut tracker = hstreams::ResidencyTracker::with_capacity(2 * tpd);
    let mut a_up = vec![false; tpd];
    let mut b_up = vec![false; tpd];
    for i in 0..tpd {
        for j in 0..tpd {
            let t = i * tpd + j;
            let s: StreamId = ctx.stream(t % streams)?;
            if !a_up[i] {
                ctx.h2d(s, a_panels[i])?;
                tracker.produced(ctx, a_panels[i], s)?;
                a_up[i] = true;
            } else {
                tracker.ensure_readable(ctx, a_panels[i], s)?;
            }
            if !b_up[j] {
                ctx.h2d(s, b_panels[j])?;
                tracker.produced(ctx, b_panels[j], s)?;
                b_up[j] = true;
            } else {
                tracker.ensure_readable(ctx, b_panels[j], s)?;
            }
            ctx.kernel(
                s,
                KernelDesc::simulated(format_args!("gemm({i},{j})"), profiles::mm_gemm(), work)
                    .with_body(bufs.gemm.clone())
                    .reading([a_panels[i], b_panels[j]])
                    .writing([c_tiles[t]]),
            )?;
            ctx.d2h(s, c_tiles[t])?;
        }
    }
    Ok(())
}

/// Write deterministic random `A` and `B` into the panel buffers.
pub fn fill_inputs(
    ctx: &Context,
    cfg: &MmConfig,
    bufs: &MmBuffers,
    seed: u64,
) -> Result<(Mat, Mat)> {
    let n = cfg.n;
    let a = util::random_vec(seed, n * n, -1.0, 1.0);
    let b = util::random_vec(seed ^ 0x5eed, n * n, -1.0, 1.0);
    let tile = cfg.tile();
    for (i, &panel) in bufs.a_panels.iter().enumerate() {
        // Rows i*tile .. (i+1)*tile of A, contiguous in row-major.
        ctx.write_host(panel, &a[i * tile * n..(i + 1) * tile * n])?;
    }
    for (j, &panel) in bufs.b_panels.iter().enumerate() {
        // Columns j*tile .. of B, stored row-major n x tile.
        let mut p = vec![0.0f32; n * tile];
        for r in 0..n {
            p[r * tile..(r + 1) * tile]
                .copy_from_slice(&b[r * n + j * tile..r * n + (j + 1) * tile]);
        }
        ctx.write_host(panel, &p)?;
    }
    Ok((Mat { n, data: a }, Mat { n, data: b }))
}

/// A dense square matrix (row-major) used by references and validators.
pub struct Mat {
    /// Edge length.
    pub n: usize,
    /// Row-major elements.
    pub data: Vec<f32>,
}

/// Serial reference multiplication.
pub fn reference(a: &Mat, b: &Mat) -> Mat {
    let n = a.n;
    assert_eq!(n, b.n);
    let mut c = vec![0.0f32; n * n];
    for i in 0..n {
        for k in 0..n {
            let av = a.data[i * n + k];
            if av == 0.0 {
                continue;
            }
            let brow = &b.data[k * n..(k + 1) * n];
            let crow = &mut c[i * n..(i + 1) * n];
            for j in 0..n {
                crow[j] += av * brow[j];
            }
        }
    }
    Mat { n, data: c }
}

/// Assemble the tiled `C` result from the context's host buffers.
pub fn collect_result(ctx: &Context, cfg: &MmConfig, bufs: &MmBuffers) -> Result<Mat> {
    let n = cfg.n;
    let tpd = cfg.tiles_per_dim;
    let tile = cfg.tile();
    let mut c = vec![0.0f32; n * n];
    for i in 0..tpd {
        for j in 0..tpd {
            let t = ctx.read_host(bufs.c_tiles[i * tpd + j])?;
            for r in 0..tile {
                let dst = (i * tile + r) * n + j * tile;
                c[dst..dst + tile].copy_from_slice(&t[r * tile..(r + 1) * tile]);
            }
        }
    }
    Ok(Mat { n, data: c })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::assert_close;
    use micsim::PlatformConfig;

    #[test]
    fn config_validation() {
        assert!(MmConfig {
            n: 100,
            tiles_per_dim: 3
        }
        .validate()
        .is_err());
        assert!(MmConfig {
            n: 0,
            tiles_per_dim: 1
        }
        .validate()
        .is_err());
        let ok = MmConfig {
            n: 100,
            tiles_per_dim: 4,
        };
        ok.validate().unwrap();
        assert_eq!(ok.tile(), 25);
        assert_eq!(ok.flops(), 2e6);
    }

    #[test]
    fn native_tiled_matches_reference() {
        let cfg = MmConfig {
            n: 64,
            tiles_per_dim: 4,
        };
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(4)
            .build()
            .unwrap();
        let bufs = build(&mut ctx, &cfg).unwrap();
        let (a, b) = fill_inputs(&ctx, &cfg, &bufs, 42).unwrap();
        ctx.run_native().unwrap();
        let c = collect_result(&ctx, &cfg, &bufs).unwrap();
        let want = reference(&a, &b);
        assert_close(&c.data, &want.data, 2e-3, "tiled MM vs serial");
    }

    #[test]
    fn single_tile_is_the_non_streamed_version() {
        let cfg = MmConfig {
            n: 32,
            tiles_per_dim: 1,
        };
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(1)
            .build()
            .unwrap();
        let bufs = build(&mut ctx, &cfg).unwrap();
        // 1 A panel + 1 B panel + 1 C tile; 2 h2d + 1 kernel + 1 d2h
        // + 2 events.
        assert_eq!(bufs.c_tiles.len(), 1);
        let (a, b) = fill_inputs(&ctx, &cfg, &bufs, 7).unwrap();
        ctx.run_native().unwrap();
        let c = collect_result(&ctx, &cfg, &bufs).unwrap();
        assert_close(&c.data, &reference(&a, &b).data, 2e-3, "single-tile MM");
    }

    #[test]
    fn multi_device_mm_native_is_correct() {
        let cfg = MmConfig {
            n: 48,
            tiles_per_dim: 4,
        };
        let mut ctx = Context::builder(PlatformConfig::phi_31sp_multi(2))
            .partitions(2)
            .build()
            .unwrap();
        let bufs = build(&mut ctx, &cfg).unwrap();
        let (a, b) = fill_inputs(&ctx, &cfg, &bufs, 9).unwrap();
        ctx.run_native().unwrap();
        let c = collect_result(&ctx, &cfg, &bufs).unwrap();
        assert_close(&c.data, &reference(&a, &b).data, 2e-3, "2-card MM");
    }
}
