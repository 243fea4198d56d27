//! SRAD (Speckle Reducing Anisotropic Diffusion) — non-overlappable,
//! multi-kernel, from Rodinia.
//!
//! Removes speckle noise from an (ultrasound) image without destroying
//! features. Every iteration runs **three** kernel classes with device-wide
//! synchronization between them (Fig. 4(f)):
//!
//! 1. `reduce` — per-tile sum and sum-of-squares of the image;
//! 2. `q0` — the global speckle statistic `q0² = var/mean²` (one tiny
//!    kernel, feeding every tile);
//! 3. `coeff` — per-pixel diffusion coefficients from the image gradients
//!    and `q0²`;
//! 4. `update` — per-pixel diffusion step (double-buffered).
//!
//! With barriers everywhere SRAD can only exploit *spatial* sharing; the
//! paper finds it loses on small inputs and — unexpectedly — wins on large
//! ones (Fig. 8(f)), with a U-shaped partition curve (Fig. 9(f)) and a very
//! fine-grained optimal tiling (T = 400, Fig. 10(f)).

use hstreams::context::Context;
use hstreams::kernel::KernelDesc;
use hstreams::types::{BufId, Result};

use crate::profiles;
use crate::util::{self, RowTile};

/// Problem description.
#[derive(Clone, Copy, Debug)]
pub struct SradConfig {
    /// Image rows.
    pub rows: usize,
    /// Image columns.
    pub cols: usize,
    /// Diffusion strength λ (the paper uses 0.5).
    pub lambda: f32,
    /// Iterations (the paper uses 100).
    pub iterations: usize,
    /// Number of row-block tiles.
    pub tiles: usize,
}

impl SradConfig {
    /// Validate.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.rows == 0 || self.cols == 0 || self.tiles == 0 {
            return Err("rows, cols and tiles must be positive".into());
        }
        if self.tiles > self.rows {
            return Err(format!("tiles {} exceeds rows {}", self.tiles, self.rows));
        }
        if !(0.0..=1.0).contains(&self.lambda) {
            return Err("lambda must be in 0..=1".into());
        }
        Ok(())
    }
}

/// Buffer handles of a built SRAD program.
pub struct SradBuffers {
    /// Ping image blocks.
    pub img_a: Vec<BufId>,
    /// Pong image blocks.
    pub img_b: Vec<BufId>,
    /// Per-tile diffusion-coefficient blocks.
    pub coeff: Vec<BufId>,
    /// Per-tile statistics `(sum, sum_sq)`.
    pub stats: Vec<BufId>,
    /// The global `q0²` scalar.
    pub q0: BufId,
    /// Rows per tile.
    pub tile_rows: Vec<usize>,
    /// Which buffer set holds the final image (`true` = `img_a`).
    pub result_in_a: bool,
}

fn reduce_kernel(label: String, pixels: usize) -> KernelDesc {
    KernelDesc::simulated(label, profiles::srad_reduce(), pixels as f64).with_native(move |kc| {
        let img = kc.reads[0];
        let threads = kc.threads;
        let (sum, sum_sq) = hstreams::parallel::par_reduce(
            img.len(),
            threads,
            |range| {
                let mut s = 0.0f64;
                let mut s2 = 0.0f64;
                for i in range {
                    let v = img[i] as f64;
                    s += v;
                    s2 += v * v;
                }
                (s, s2)
            },
            |a, b| (a.0 + b.0, a.1 + b.1),
            (0.0f64, 0.0f64),
        );
        kc.writes[0][0] = sum as f32;
        kc.writes[0][1] = sum_sq as f32;
    })
}

fn q0_kernel(label: String, total_pixels: usize, tiles: usize) -> KernelDesc {
    KernelDesc::simulated(label, profiles::srad_reduce(), tiles as f64).with_native(move |kc| {
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for stats in kc.reads.iter() {
            sum += stats[0] as f64;
            sum_sq += stats[1] as f64;
        }
        let n = total_pixels as f64;
        let mean = sum / n;
        let var = (sum_sq / n) - mean * mean;
        kc.writes[0][0] = (var / (mean * mean)).max(0.0) as f32;
    })
}

/// Diffusion coefficient per pixel. Read order: `[own, above?, below?, q0]`.
fn coeff_kernel(label: String, shape: RowTile) -> KernelDesc {
    let work = (shape.rows * shape.cols) as f64;
    KernelDesc::simulated(label, profiles::srad_coeff(), work).with_native(move |kc| {
        let (img, rest) = shape.halo(kc.reads);
        let q0 = rest[0][0];
        let cols = shape.cols;
        let threads = kc.threads;
        let out = &mut kc.writes[0];
        hstreams::parallel::par_rows_mut(out, cols, threads, |first_row, block| {
            for (ri, row_out) in block.chunks_mut(cols).enumerate() {
                let r = first_row + ri;
                for (c, out) in row_out.iter_mut().enumerate() {
                    let center = img.at(r, c);
                    let dn = img.north(r, c) - center;
                    let ds = img.south(r, c) - center;
                    let dw = img.west(r, c) - center;
                    let de = img.east(r, c) - center;
                    let g2 = (dn * dn + ds * ds + dw * dw + de * de) / (center * center);
                    let l = (dn + ds + dw + de) / center;
                    let num = 0.5 * g2 - 0.0625 * l * l;
                    let den = 1.0 + 0.25 * l;
                    let qsq = num / (den * den);
                    let c_val = 1.0 / (1.0 + (qsq - q0) / (q0 * (1.0 + q0)));
                    *out = c_val.clamp(0.0, 1.0);
                }
            }
        });
    })
}

/// The coefficient halo [`update_kernel`] reads: its own block and the
/// block below (Rodinia's divergence pulls `c` from the pixel and its south
/// and east neighbours only).
fn coeff_halo(shape: RowTile) -> RowTile {
    RowTile {
        has_above: false,
        ..shape
    }
}

/// Diffusion update. Read order:
/// `[own_img, above_img?, below_img?, own_c, below_c?]` — the north
/// difference at a tile's first row needs the above tile's last image row.
fn update_kernel(label: String, shape: RowTile, lambda: f32) -> KernelDesc {
    let work = (shape.rows * shape.cols) as f64;
    KernelDesc::simulated(label, profiles::srad_update(), work).with_native(move |kc| {
        let (img, rest) = shape.halo(kc.reads);
        let (coeff, _) = coeff_halo(shape).halo(rest);
        let cols = shape.cols;
        let threads = kc.threads;
        let out = &mut kc.writes[0];
        hstreams::parallel::par_rows_mut(out, cols, threads, |first_row, block| {
            for (ri, row_out) in block.chunks_mut(cols).enumerate() {
                let r = first_row + ri;
                for (c, out) in row_out.iter_mut().enumerate() {
                    let center = img.at(r, c);
                    // Divergence uses c at the pixel (N and W fluxes) and at
                    // the south / east neighbours (Rodinia convention).
                    let c_here = coeff.at(r, c);
                    let c_south = coeff.south(r, c);
                    let c_east = coeff.east(r, c);
                    let dn = img.north(r, c) - center;
                    let ds = img.south(r, c) - center;
                    let dw = img.west(r, c) - center;
                    let de = img.east(r, c) - center;
                    let div = c_south * ds + c_here * dn + c_east * de + c_here * dw;
                    *out = center + 0.25 * lambda * div;
                }
            }
        });
    })
}

/// Build the SRAD program (`tiles == 1`, one partition = "w/o").
#[allow(clippy::needless_range_loop)]
pub fn build(ctx: &mut Context, cfg: &SradConfig) -> Result<SradBuffers> {
    cfg.validate().map_err(hstreams::Error::Config)?;
    let streams = ctx.stream_count();
    let ranges = util::split_ranges(cfg.rows, cfg.tiles);
    let tile_rows: Vec<usize> = ranges
        .iter()
        .map(std::iter::ExactSizeIterator::len)
        .collect();
    let nt = tile_rows.len();
    let cols = cfg.cols;

    let img_a: Vec<BufId> = (0..nt)
        .map(|t| ctx.alloc(format!("imgA{t}"), tile_rows[t] * cols))
        .collect();
    let img_b: Vec<BufId> = (0..nt)
        .map(|t| ctx.alloc(format!("imgB{t}"), tile_rows[t] * cols))
        .collect();
    let coeff: Vec<BufId> = (0..nt)
        .map(|t| ctx.alloc(format!("coeff{t}"), tile_rows[t] * cols))
        .collect();
    let stats: Vec<BufId> = (0..nt).map(|t| ctx.alloc(format!("stats{t}"), 2)).collect();
    let q0 = ctx.alloc("q0", 1);

    for t in 0..nt {
        let s = ctx.stream(t % streams)?;
        ctx.h2d(s, img_a[t])?;
    }
    ctx.barrier();

    let s0 = ctx.stream(0)?;
    let mut src = &img_a;
    let mut dst = &img_b;
    for iter in 0..cfg.iterations {
        // 1. Per-tile statistics.
        for t in 0..nt {
            let s = ctx.stream(t % streams)?;
            ctx.kernel(
                s,
                reduce_kernel(format!("reduce({t},{iter})"), tile_rows[t] * cols)
                    .reading([src[t]])
                    .writing([stats[t]]),
            )?;
        }
        ctx.barrier();
        // 2. Global statistic.
        ctx.kernel(
            s0,
            q0_kernel(format!("q0({iter})"), cfg.rows * cols, nt)
                .reading(stats.iter().copied())
                .writing([q0]),
        )?;
        ctx.barrier();
        // 3. Diffusion coefficients.
        for t in 0..nt {
            let s = ctx.stream(t % streams)?;
            let shape = RowTile::new(&tile_rows, t, cols);
            ctx.kernel(
                s,
                coeff_kernel(format!("coeff({t},{iter})"), shape)
                    .reading(shape.halo_reads(src, t).chain([q0]))
                    .writing([coeff[t]]),
            )?;
        }
        ctx.barrier();
        // 4. Update: needs own/above/below image rows, plus own and below
        //    coefficients.
        for t in 0..nt {
            let s = ctx.stream(t % streams)?;
            let shape = RowTile::new(&tile_rows, t, cols);
            let coeff_reads = coeff_halo(shape).halo_reads(&coeff, t);
            ctx.kernel(
                s,
                update_kernel(format!("update({t},{iter})"), shape, cfg.lambda)
                    .reading(shape.halo_reads(src, t).chain(coeff_reads))
                    .writing([dst[t]]),
            )?;
        }
        ctx.barrier();
        std::mem::swap(&mut src, &mut dst);
    }

    for t in 0..nt {
        let s = ctx.stream(t % streams)?;
        ctx.d2h(s, src[t])?;
    }
    let result_in_a = std::ptr::eq(src, &img_a);
    Ok(SradBuffers {
        img_a,
        img_b,
        coeff,
        stats,
        q0,
        tile_rows,
        result_in_a,
    })
}

/// Deterministic noisy "ultrasound" image, strictly positive; returns the
/// full grid.
pub fn fill_inputs(
    ctx: &Context,
    cfg: &SradConfig,
    bufs: &SradBuffers,
    seed: u64,
) -> Result<Vec<f32>> {
    let img = util::random_vec(seed, cfg.rows * cfg.cols, 10.0, 200.0);
    let mut row0 = 0usize;
    for (t, &rows) in bufs.tile_rows.iter().enumerate() {
        let lo = row0 * cfg.cols;
        ctx.write_host(bufs.img_a[t], &img[lo..lo + rows * cfg.cols])?;
        row0 += rows;
    }
    Ok(img)
}

/// Serial reference SRAD on the full image.
pub fn reference(cfg: &SradConfig, img0: &[f32]) -> Vec<f32> {
    let (rows, cols) = (cfg.rows, cfg.cols);
    let n = (rows * cols) as f64;
    let mut src = img0.to_vec();
    let mut dst = vec![0.0f32; rows * cols];
    let mut cmap = vec![0.0f32; rows * cols];
    let at = |v: &[f32], r: isize, c: isize| -> f32 {
        let r = r.clamp(0, rows as isize - 1) as usize;
        let c = c.clamp(0, cols as isize - 1) as usize;
        v[r * cols + c]
    };
    for _ in 0..cfg.iterations {
        let sum: f64 = src.iter().map(|&x| x as f64).sum();
        let sum_sq: f64 = src.iter().map(|&x| (x as f64) * (x as f64)).sum();
        let mean = sum / n;
        let var = sum_sq / n - mean * mean;
        let q0 = (var / (mean * mean)).max(0.0) as f32;
        for r in 0..rows as isize {
            for c in 0..cols as isize {
                let center = at(&src, r, c);
                let dn = at(&src, r - 1, c) - center;
                let ds = at(&src, r + 1, c) - center;
                let dw = at(&src, r, c - 1) - center;
                let de = at(&src, r, c + 1) - center;
                let g2 = (dn * dn + ds * ds + dw * dw + de * de) / (center * center);
                let l = (dn + ds + dw + de) / center;
                let num = 0.5 * g2 - 0.0625 * l * l;
                let den = 1.0 + 0.25 * l;
                let qsq = num / (den * den);
                let c_val = 1.0 / (1.0 + (qsq - q0) / (q0 * (1.0 + q0)));
                cmap[r as usize * cols + c as usize] = c_val.clamp(0.0, 1.0);
            }
        }
        for r in 0..rows as isize {
            for c in 0..cols as isize {
                let center = at(&src, r, c);
                let c_here = at(&cmap, r, c);
                let c_south = at(&cmap, r + 1, c);
                let c_east = at(&cmap, r, c + 1);
                let dn = at(&src, r - 1, c) - center;
                let ds = at(&src, r + 1, c) - center;
                let dw = at(&src, r, c - 1) - center;
                let de = at(&src, r, c + 1) - center;
                let div = c_south * ds + c_here * dn + c_east * de + c_here * dw;
                dst[r as usize * cols + c as usize] = center + 0.25 * cfg.lambda * div;
            }
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

/// Assemble the final image from the context's host buffers.
pub fn collect_result(ctx: &Context, cfg: &SradConfig, bufs: &SradBuffers) -> Result<Vec<f32>> {
    let result = if bufs.result_in_a {
        &bufs.img_a
    } else {
        &bufs.img_b
    };
    let mut img = vec![0.0f32; cfg.rows * cfg.cols];
    let mut row0 = 0usize;
    for (t, &rows) in bufs.tile_rows.iter().enumerate() {
        let data = ctx.read_host(result[t])?;
        let lo = row0 * cfg.cols;
        img[lo..lo + rows * cfg.cols].copy_from_slice(&data);
        row0 += rows;
    }
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::assert_close;
    use micsim::PlatformConfig;

    fn small(iters: usize, tiles: usize) -> SradConfig {
        SradConfig {
            rows: 24,
            cols: 20,
            lambda: 0.5,
            iterations: iters,
            tiles,
        }
    }

    #[test]
    fn validation() {
        assert!(small(1, 2).validate().is_ok());
        assert!(SradConfig {
            lambda: 2.0,
            ..small(1, 1)
        }
        .validate()
        .is_err());
        assert!(SradConfig {
            tiles: 100,
            ..small(1, 1)
        }
        .validate()
        .is_err());
    }

    #[test]
    fn native_tiled_matches_reference() {
        for tiles in [1usize, 3, 4] {
            let cfg = small(4, tiles);
            let mut ctx = Context::builder(PlatformConfig::phi_31sp())
                .partitions(2)
                .build()
                .unwrap();
            let bufs = build(&mut ctx, &cfg).unwrap();
            let img = fill_inputs(&ctx, &cfg, &bufs, 33).unwrap();
            ctx.run_native().unwrap();
            let got = collect_result(&ctx, &cfg, &bufs).unwrap();
            let want = reference(&cfg, &img);
            assert_close(&got, &want, 5e-3, &format!("srad tiles={tiles}"));
        }
    }

    #[test]
    fn diffusion_reduces_speckle_variance() {
        let cfg = small(20, 2);
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .build()
            .unwrap();
        let bufs = build(&mut ctx, &cfg).unwrap();
        let img = fill_inputs(&ctx, &cfg, &bufs, 2).unwrap();
        ctx.run_native().unwrap();
        let got = collect_result(&ctx, &cfg, &bufs).unwrap();
        let cv = |v: &[f32]| {
            let m = v.iter().sum::<f32>() / v.len() as f32;
            (v.iter().map(|x| (x - m).powi(2)).sum::<f32>() / v.len() as f32).sqrt() / m
        };
        assert!(
            cv(&got) < cv(&img) * 0.8,
            "speckle should shrink: {} -> {}",
            cv(&img),
            cv(&got)
        );
    }
}
