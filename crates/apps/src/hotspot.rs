//! Hotspot — non-overlappable 2-D transient thermal stencil, from Rodinia.
//!
//! Estimates processor temperature from a power map: every iteration each
//! cell relaxes toward its four neighbours, its power input and the
//! ambient. The grid is tiled into horizontal row blocks (one buffer per
//! block, double-buffered); every iteration ends in a device-wide barrier
//! because each tile's next step needs its neighbours' current step —
//! the Fig. 4(c) flow. With no transfer/kernel overlap possible, the paper
//! finds streaming gives Hotspot **no improvement** (Fig. 8(d)); what moves
//! the needle is partition *shape*: 6-7-thread partitions spanning ≤ 2
//! cores use the private caches best (the P≈33-37 dip of Fig. 9(d)),
//! carried by [`profiles::hotspot_stencil`]'s `CacheProfile`.

use hstreams::context::Context;
use hstreams::kernel::KernelDesc;
use hstreams::types::{BufId, Result};

use crate::profiles;
use crate::util::{self, RowTile};

/// Stencil coefficients (shared by kernels and the serial reference).
pub const K_VERT: f32 = 0.10;
/// Horizontal coupling.
pub const K_HORIZ: f32 = 0.10;
/// Power injection coefficient.
pub const K_POWER: f32 = 0.05;
/// Coupling toward the ambient temperature.
pub const K_AMB: f32 = 0.02;
/// Ambient temperature.
pub const AMBIENT: f32 = 80.0;

/// Problem description.
#[derive(Clone, Copy, Debug)]
pub struct HotspotConfig {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Simulation iterations (the paper uses 50).
    pub iterations: usize,
    /// Number of row-block tiles.
    pub tiles: usize,
}

impl HotspotConfig {
    /// Validate.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.rows == 0 || self.cols == 0 || self.tiles == 0 {
            return Err("rows, cols and tiles must be positive".into());
        }
        if self.tiles > self.rows {
            return Err(format!("tiles {} exceeds rows {}", self.tiles, self.rows));
        }
        Ok(())
    }
}

/// Buffer handles of a built Hotspot program.
pub struct HotspotBuffers {
    /// Ping temperature blocks.
    pub temp_a: Vec<BufId>,
    /// Pong temperature blocks.
    pub temp_b: Vec<BufId>,
    /// Power blocks.
    pub power: Vec<BufId>,
    /// Rows in each block.
    pub tile_rows: Vec<usize>,
    /// Which buffer set holds the final temperatures (`true` = `temp_a`).
    pub result_in_a: bool,
}

/// One tile's stencil step. Read order: `[own, above?, below?, power]`.
fn stencil_kernel(label: String, shape: RowTile) -> KernelDesc {
    let work = (shape.rows * shape.cols) as f64;
    KernelDesc::simulated(label, profiles::hotspot_stencil(), work).with_native(move |kc| {
        let (temp, rest) = shape.halo(kc.reads);
        let power = rest[0];
        let cols = shape.cols;
        let threads = kc.threads;
        let out = &mut kc.writes[0];
        hstreams::parallel::par_rows_mut(out, cols, threads, |first_row, block| {
            for (ri, row_out) in block.chunks_mut(cols).enumerate() {
                let r = first_row + ri;
                for (c, out) in row_out.iter_mut().enumerate() {
                    let center = temp.at(r, c);
                    let north = temp.north(r, c);
                    let south = temp.south(r, c);
                    let west = temp.west(r, c);
                    let east = temp.east(r, c);
                    *out = center
                        + K_VERT * (north + south - 2.0 * center)
                        + K_HORIZ * (east + west - 2.0 * center)
                        + K_POWER * power[r * cols + c]
                        + K_AMB * (AMBIENT - center);
                }
            }
        });
    })
}

/// Build the Hotspot program (`tiles == 1`, one partition = "w/o").
#[allow(clippy::needless_range_loop)]
pub fn build(ctx: &mut Context, cfg: &HotspotConfig) -> Result<HotspotBuffers> {
    cfg.validate().map_err(hstreams::Error::Config)?;
    let streams = ctx.stream_count();
    let ranges = util::split_ranges(cfg.rows, cfg.tiles);
    let tile_rows: Vec<usize> = ranges
        .iter()
        .map(std::iter::ExactSizeIterator::len)
        .collect();
    let nt = tile_rows.len();
    let cols = cfg.cols;

    let temp_a: Vec<BufId> = (0..nt)
        .map(|t| ctx.alloc(format!("tempA{t}"), tile_rows[t] * cols))
        .collect();
    let temp_b: Vec<BufId> = (0..nt)
        .map(|t| ctx.alloc(format!("tempB{t}"), tile_rows[t] * cols))
        .collect();
    let power: Vec<BufId> = (0..nt)
        .map(|t| ctx.alloc(format!("power{t}"), tile_rows[t] * cols))
        .collect();

    // Upload temperatures and power, then synchronize (stage boundary).
    for t in 0..nt {
        let s = ctx.stream(t % streams)?;
        ctx.h2d(s, temp_a[t])?;
        ctx.h2d(s, power[t])?;
    }
    ctx.barrier();

    let mut src = &temp_a;
    let mut dst = &temp_b;
    for iter in 0..cfg.iterations {
        for t in 0..nt {
            let s = ctx.stream(t % streams)?;
            let shape = RowTile::new(&tile_rows, t, cols);
            ctx.kernel(
                s,
                stencil_kernel(format!("hotspot({t},{iter})"), shape)
                    .reading(shape.halo_reads(src, t).chain([power[t]]))
                    .writing([dst[t]]),
            )?;
        }
        ctx.barrier();
        std::mem::swap(&mut src, &mut dst);
    }

    // `src` now holds the final temperatures; stream them home.
    for t in 0..nt {
        let s = ctx.stream(t % streams)?;
        ctx.d2h(s, src[t])?;
    }
    let result_in_a = std::ptr::eq(src, &temp_a);
    Ok(HotspotBuffers {
        temp_a,
        temp_b,
        power,
        tile_rows,
        result_in_a,
    })
}

/// Deterministic initial temperature and power maps; returns `(temp, power)`
/// full grids.
pub fn fill_inputs(
    ctx: &Context,
    cfg: &HotspotConfig,
    bufs: &HotspotBuffers,
    seed: u64,
) -> Result<(Vec<f32>, Vec<f32>)> {
    let n = cfg.rows * cfg.cols;
    let temp = util::random_vec(seed, n, 60.0, 90.0);
    let power = util::random_vec(seed ^ 0xbeef, n, 0.0, 8.0);
    let mut row0 = 0usize;
    for (t, &rows) in bufs.tile_rows.iter().enumerate() {
        let lo = row0 * cfg.cols;
        let hi = (row0 + rows) * cfg.cols;
        ctx.write_host(bufs.temp_a[t], &temp[lo..hi])?;
        ctx.write_host(bufs.power[t], &power[lo..hi])?;
        row0 += rows;
    }
    Ok((temp, power))
}

/// Serial reference simulation on the full grid.
pub fn reference(cfg: &HotspotConfig, temp0: &[f32], power: &[f32]) -> Vec<f32> {
    let (rows, cols) = (cfg.rows, cfg.cols);
    let mut src = temp0.to_vec();
    let mut dst = vec![0.0f32; rows * cols];
    for _ in 0..cfg.iterations {
        for r in 0..rows {
            for c in 0..cols {
                let center = src[r * cols + c];
                let north = if r > 0 {
                    src[(r - 1) * cols + c]
                } else {
                    center
                };
                let south = if r + 1 < rows {
                    src[(r + 1) * cols + c]
                } else {
                    center
                };
                let west = if c > 0 { src[r * cols + c - 1] } else { center };
                let east = if c + 1 < cols {
                    src[r * cols + c + 1]
                } else {
                    center
                };
                dst[r * cols + c] = center
                    + K_VERT * (north + south - 2.0 * center)
                    + K_HORIZ * (east + west - 2.0 * center)
                    + K_POWER * power[r * cols + c]
                    + K_AMB * (AMBIENT - center);
            }
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

/// Assemble the final grid from the context's host buffers.
pub fn collect_result(
    ctx: &Context,
    cfg: &HotspotConfig,
    bufs: &HotspotBuffers,
) -> Result<Vec<f32>> {
    let result = if bufs.result_in_a {
        &bufs.temp_a
    } else {
        &bufs.temp_b
    };
    let mut grid = vec![0.0f32; cfg.rows * cfg.cols];
    let mut row0 = 0usize;
    for (t, &rows) in bufs.tile_rows.iter().enumerate() {
        let data = ctx.read_host(result[t])?;
        let lo = row0 * cfg.cols;
        grid[lo..lo + rows * cfg.cols].copy_from_slice(&data);
        row0 += rows;
    }
    Ok(grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::assert_close;
    use micsim::PlatformConfig;

    fn small(iters: usize, tiles: usize) -> HotspotConfig {
        HotspotConfig {
            rows: 32,
            cols: 24,
            iterations: iters,
            tiles,
        }
    }

    #[test]
    fn validation() {
        assert!(small(1, 4).validate().is_ok());
        assert!(HotspotConfig {
            tiles: 64,
            ..small(1, 1)
        }
        .validate()
        .is_err());
        assert!(HotspotConfig {
            rows: 0,
            ..small(1, 1)
        }
        .validate()
        .is_err());
    }

    #[test]
    fn native_tiled_matches_reference() {
        for tiles in [1usize, 3, 4] {
            let cfg = small(5, tiles);
            let mut ctx = Context::builder(PlatformConfig::phi_31sp())
                .partitions(4)
                .build()
                .unwrap();
            let bufs = build(&mut ctx, &cfg).unwrap();
            let (temp, power) = fill_inputs(&ctx, &cfg, &bufs, 17).unwrap();
            ctx.run_native().unwrap();
            let got = collect_result(&ctx, &cfg, &bufs).unwrap();
            let want = reference(&cfg, &temp, &power);
            assert_close(&got, &want, 1e-3, &format!("hotspot tiles={tiles}"));
        }
    }

    #[test]
    fn odd_iteration_count_lands_in_other_buffer() {
        let cfg = small(3, 2);
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .build()
            .unwrap();
        let bufs = build(&mut ctx, &cfg).unwrap();
        assert!(!bufs.result_in_a, "3 iterations end in temp_b");
        let (temp, power) = fill_inputs(&ctx, &cfg, &bufs, 4).unwrap();
        ctx.run_native().unwrap();
        let got = collect_result(&ctx, &cfg, &bufs).unwrap();
        assert_close(&got, &reference(&cfg, &temp, &power), 1e-3, "odd iters");
    }

    #[test]
    fn temperatures_relax_toward_equilibrium() {
        let cfg = small(50, 1);
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .build()
            .unwrap();
        let bufs = build(&mut ctx, &cfg).unwrap();
        let (temp, power) = fill_inputs(&ctx, &cfg, &bufs, 8).unwrap();
        ctx.run_native().unwrap();
        let got = collect_result(&ctx, &cfg, &bufs).unwrap();
        // Variance should shrink substantially vs the initial field.
        let var = |v: &[f32]| {
            let m = v.iter().sum::<f32>() / v.len() as f32;
            v.iter().map(|x| (x - m).powi(2)).sum::<f32>() / v.len() as f32
        };
        assert!(var(&got) < var(&temp) * 0.6, "diffusion smooths the field");
        let _ = power;
    }
}
