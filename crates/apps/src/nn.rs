//! NN (Nearest Neighbor) — overlappable and transfer-bound, from Rodinia.
//!
//! Finds the `k` records closest to a target coordinate among millions of
//! `(latitude, longitude)` records. Each tile of records streams to the
//! device, a kernel computes the Euclidean distances, and the distance
//! array streams straight back (Fig. 4(e) — same flow as MM). The kernel is
//! trivially cheap, so the run is dominated by the PCIe transfers; streams
//! help exactly as far as they hide kernel time under the serial link
//! (Fig. 9(e): improvement saturates at P = 4; Fig. 10(e): T barely
//! matters). The final k-selection runs on the host, as in Rodinia.

use std::sync::Arc;

use hstreams::context::Context;
use hstreams::kernel::{KernelDesc, KernelFn};
use hstreams::types::{BufId, Result};

use crate::profiles;
use crate::util;

/// Problem description.
#[derive(Clone, Copy, Debug)]
pub struct NnConfig {
    /// Number of records.
    pub records: usize,
    /// Number of record tiles.
    pub tiles: usize,
    /// Neighbours to report (the paper uses 10).
    pub k: usize,
    /// Target coordinate (the paper uses (40, 120)).
    pub target: (f32, f32),
}

impl NnConfig {
    /// The paper's Fig. 9(e) setup.
    pub fn paper_fig9() -> NnConfig {
        NnConfig {
            records: 5_242_880,
            tiles: 512,
            k: 10,
            target: (40.0, 120.0),
        }
    }

    /// Validate.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.records == 0 || self.tiles == 0 || self.k == 0 {
            return Err("records, tiles and k must be positive".into());
        }
        if self.tiles > self.records {
            return Err("more tiles than records".into());
        }
        if self.k > self.records {
            return Err("k exceeds record count".into());
        }
        Ok(())
    }
}

/// Buffer handles of a built NN program, and the distance body every
/// launch of its tiling shares.
pub struct NnBuffers {
    /// Record tiles (`chunk × 2`, interleaved lat/lng).
    pub record_tiles: Vec<BufId>,
    /// Distance tiles (`chunk`).
    pub dist_tiles: Vec<BufId>,
    /// Records per tile.
    pub tile_sizes: Vec<usize>,
    distance: KernelFn,
}

/// Distance body: each record's Euclidean distance to `target`.
fn distance_body(target: (f32, f32)) -> KernelFn {
    Arc::new(move |kc| {
        let recs = kc.reads[0];
        let threads = kc.threads;
        let out = &mut kc.writes[0];
        hstreams::parallel::par_chunks_mut(out, threads, |_, offset, chunk_out| {
            for (i, d) in chunk_out.iter_mut().enumerate() {
                let r = offset + i;
                let lat = recs[r * 2];
                let lng = recs[r * 2 + 1];
                *d = ((lat - target.0).powi(2) + (lng - target.1).powi(2)).sqrt();
            }
        });
    })
}

/// Build the streamed NN program (`tiles == 1`, one partition = "w/o").
pub fn build(ctx: &mut Context, cfg: &NnConfig) -> Result<NnBuffers> {
    cfg.validate().map_err(hstreams::Error::Config)?;
    let ranges = util::split_ranges(cfg.records, cfg.tiles);
    let tile_sizes: Vec<usize> = ranges
        .iter()
        .map(std::iter::ExactSizeIterator::len)
        .collect();
    let record_tiles: Vec<BufId> = tile_sizes
        .iter()
        .enumerate()
        .map(|(t, &n)| ctx.alloc(format_args!("rec{t}"), n * 2))
        .collect();
    let dist_tiles: Vec<BufId> = tile_sizes
        .iter()
        .enumerate()
        .map(|(t, &n)| ctx.alloc(format_args!("dist{t}"), n))
        .collect();
    let bufs = NnBuffers {
        record_tiles,
        dist_tiles,
        tile_sizes,
        distance: distance_body(cfg.target),
    };
    record(ctx, cfg, &bufs)?;
    Ok(bufs)
}

/// Record the NN action sequence against already-allocated buffers (built
/// by [`build`] for the same `cfg`); used by
/// [`build`] and by autotuning sweeps that replan the stream geometry and
/// re-record the same problem without reallocating.
pub fn record(ctx: &mut Context, cfg: &NnConfig, bufs: &NnBuffers) -> Result<()> {
    cfg.validate().map_err(hstreams::Error::Config)?;
    let streams = ctx.stream_count();
    for t in 0..bufs.tile_sizes.len() {
        let s = ctx.stream(t % streams)?;
        ctx.h2d(s, bufs.record_tiles[t])?;
        ctx.kernel(
            s,
            KernelDesc::simulated(
                format_args!("nn({t})"),
                profiles::nn_distance(),
                bufs.tile_sizes[t] as f64,
            )
            .with_body(bufs.distance.clone())
            .reading([bufs.record_tiles[t]])
            .writing([bufs.dist_tiles[t]]),
        )?;
        ctx.d2h(s, bufs.dist_tiles[t])?;
    }
    Ok(())
}

/// Deterministic random records; returns the flat `records × 2` data.
pub fn fill_inputs(ctx: &Context, cfg: &NnConfig, bufs: &NnBuffers, seed: u64) -> Result<Vec<f32>> {
    let data = util::random_vec(seed, cfg.records * 2, 0.0, 180.0);
    let mut offset = 0usize;
    for (t, &buf) in bufs.record_tiles.iter().enumerate() {
        let n = bufs.tile_sizes[t];
        ctx.write_host(buf, &data[offset * 2..(offset + n) * 2])?;
        offset += n;
    }
    Ok(data)
}

/// Host-side k-selection over the streamed-back distance tiles: returns the
/// `k` nearest as `(record_index, distance)`, ascending.
pub fn select_neighbors(
    ctx: &Context,
    cfg: &NnConfig,
    bufs: &NnBuffers,
) -> Result<Vec<(usize, f32)>> {
    let mut best: Vec<(usize, f32)> = Vec::with_capacity(cfg.k + 1);
    let mut offset = 0usize;
    for (t, &buf) in bufs.dist_tiles.iter().enumerate() {
        let dists = ctx.read_host(buf)?;
        for (i, &d) in dists.iter().enumerate() {
            let idx = offset + i;
            if best.len() < cfg.k {
                best.push((idx, d));
                best.sort_by(|a, b| a.1.total_cmp(&b.1));
            } else if d < best[cfg.k - 1].1 {
                best[cfg.k - 1] = (idx, d);
                best.sort_by(|a, b| a.1.total_cmp(&b.1));
            }
        }
        offset += bufs.tile_sizes[t];
    }
    Ok(best)
}

/// Serial reference: full distance scan + k-selection.
pub fn reference(cfg: &NnConfig, data: &[f32]) -> Vec<(usize, f32)> {
    let mut all: Vec<(usize, f32)> = data
        .chunks(2)
        .enumerate()
        .map(|(i, r)| {
            (
                i,
                ((r[0] - cfg.target.0).powi(2) + (r[1] - cfg.target.1).powi(2)).sqrt(),
            )
        })
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1));
    all.truncate(cfg.k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use micsim::PlatformConfig;

    fn small(tiles: usize) -> NnConfig {
        NnConfig {
            records: 4096,
            tiles,
            k: 10,
            target: (40.0, 120.0),
        }
    }

    #[test]
    fn validation() {
        assert!(small(4).validate().is_ok());
        assert!(NnConfig {
            tiles: 0,
            ..small(1)
        }
        .validate()
        .is_err());
        assert!(NnConfig { k: 0, ..small(1) }.validate().is_err());
        assert!(NnConfig {
            records: 4,
            k: 10,
            tiles: 1,
            target: (0.0, 0.0)
        }
        .validate()
        .is_err());
    }

    #[test]
    fn native_neighbors_match_reference() {
        let cfg = small(8);
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(4)
            .build()
            .unwrap();
        let bufs = build(&mut ctx, &cfg).unwrap();
        let data = fill_inputs(&ctx, &cfg, &bufs, 21).unwrap();
        ctx.run_native().unwrap();
        let got = select_neighbors(&ctx, &cfg, &bufs).unwrap();
        let want = reference(&cfg, &data);
        assert_eq!(got.len(), cfg.k);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.0, w.0, "neighbor indices: {got:?} vs {want:?}");
            assert!((g.1 - w.1).abs() < 1e-4);
        }
    }

    #[test]
    fn single_tile_matches_too() {
        let cfg = small(1);
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .build()
            .unwrap();
        let bufs = build(&mut ctx, &cfg).unwrap();
        let data = fill_inputs(&ctx, &cfg, &bufs, 5).unwrap();
        ctx.run_native().unwrap();
        let got = select_neighbors(&ctx, &cfg, &bufs).unwrap();
        assert_eq!(got, reference(&cfg, &data));
    }
}
