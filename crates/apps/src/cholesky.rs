//! Cholesky Factorization (CF) — overlappable, multi-kernel, from the
//! hStreams SDK.
//!
//! `A = L·Lᵀ` for a symmetric positive-definite matrix, factored in place
//! over `t × t` square tiles with the right-looking algorithm. Each step `k`
//! runs three kernel classes — the paper notes CF "contains several kernels
//! between which an explicit synchronization is needed":
//!
//! 1. `POTRF` — factor the diagonal tile `(k,k)`;
//! 2. `TRSM`  — solve the panel tiles `(i,k)`, `i > k`;
//! 3. `SYRK`/`GEMM` — update the trailing submatrix.
//!
//! Synchronization is expressed with **events** (hStreams' mechanism), not
//! global barriers: each kernel waits only on the events of the tiles it
//! consumes, so trailing updates of step `k` overlap the panel work of step
//! `k+1` (natural lookahead). Finished panel tiles stream back to the host
//! immediately after their TRSM, overlapping the remaining compute — the
//! temporal-sharing win that gives CF the paper's largest streamed
//! improvement (24.1 %).
//!
//! The non-streamed "w/o" version (`tiles_per_dim == 1`) factors the whole
//! matrix in a single monolithic kernel, whose lower effective rate on the
//! very wide device (no tile-level cache blocking) is what the streamed
//! version's gain is measured against.

use hstreams::context::Context;
use hstreams::kernel::KernelDesc;
use hstreams::types::{BufId, Result, StreamId};
use micsim::compute::KernelProfile;
use micsim::PlatformConfig;

use crate::profiles;
use crate::util;

/// Problem description.
#[derive(Clone, Copy, Debug)]
pub struct CfConfig {
    /// Matrix dimension.
    pub n: usize,
    /// Tiles per dimension (`1` = the non-streamed monolithic version).
    pub tiles_per_dim: usize,
}

impl CfConfig {
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

    /// Tile edge.
    pub fn tile(&self) -> usize {
        self.n / self.tiles_per_dim
    }

    /// Flops of the factorization (`n³/3`).
    pub fn flops(&self) -> f64 {
        (self.n as f64).powi(3) / 3.0
    }
}

/// Buffer handles: the lower-triangle tiles, indexed via [`CfBuffers::at`].
pub struct CfBuffers {
    tiles_per_dim: usize,
    tile: usize,
    /// Lower-triangle tile buffers, packed row-major over `(i, j)`, `j <= i`.
    pub tiles: Vec<BufId>,
}

impl CfBuffers {
    fn lin(&self, i: usize, j: usize) -> usize {
        debug_assert!(j <= i && i < self.tiles_per_dim);
        i * (i + 1) / 2 + j
    }

    /// Buffer of tile `(i, j)`, `j <= i`.
    pub fn at(&self, i: usize, j: usize) -> BufId {
        self.tiles[self.lin(i, j)]
    }

    /// Tile edge length.
    pub fn tile(&self) -> usize {
        self.tile
    }
}

/// The monolithic whole-matrix kernel used by the `t = 1` version.
fn full_profile() -> KernelProfile {
    KernelProfile {
        name: "potrf_full".into(),
        thread_rate: 2.6e9,
        half_work_per_thread: 1.0e6,
        alloc_per_thread: micsim::SimDuration::ZERO,
        cache: micsim::compute::CacheProfile::Neutral,
    }
}

fn serial_potrf(a: &mut [f32], b: usize) {
    for j in 0..b {
        let mut d = a[j * b + j];
        for m in 0..j {
            d -= a[j * b + m] * a[j * b + m];
        }
        assert!(d > 0.0, "matrix not positive definite at column {j}");
        let d = d.sqrt();
        a[j * b + j] = d;
        for i in (j + 1)..b {
            let mut v = a[i * b + j];
            for m in 0..j {
                v -= a[i * b + m] * a[j * b + m];
            }
            a[i * b + j] = v / d;
        }
    }
    // Zero the strictly-upper part so tile comparisons are exact.
    for r in 0..b {
        for c in (r + 1)..b {
            a[r * b + c] = 0.0;
        }
    }
}

fn potrf_kernel(label: String, b: usize) -> KernelDesc {
    let work = (b as f64).powi(3) / 3.0;
    KernelDesc::simulated(label, profiles::cf_potrf(), work)
        .with_native(move |k| serial_potrf(k.writes[0], b))
}

/// `X := X · L^{-T}` where `X` is tile `(i,k)` and `L` the factored `(k,k)`.
fn trsm_kernel(label: String, b: usize) -> KernelDesc {
    let work = (b as f64).powi(3);
    KernelDesc::simulated(label, profiles::cf_trsm(), work).with_native(move |k| {
        let threads = k.threads;
        // Copy L out so the X slice can be chunked freely.
        let l: Vec<f32> = k.reads[0].to_vec();
        let x = &mut k.writes[0];
        hstreams::parallel::par_rows_mut(x, b, threads, |_, rows| {
            for row in rows.chunks_mut(b) {
                for c in 0..b {
                    let mut v = row[c];
                    for m in 0..c {
                        v -= row[m] * l[c * b + m];
                    }
                    row[c] = v / l[c * b + c];
                }
            }
        });
    })
}

/// `A_ii -= L_ik · L_ikᵀ` (SYRK, lower half only).
fn syrk_kernel(label: String, b: usize) -> KernelDesc {
    let work = (b as f64).powi(3);
    KernelDesc::simulated(label, profiles::cf_update(), work).with_native(move |k| {
        let threads = k.threads;
        let lik: Vec<f32> = k.reads[0].to_vec();
        let a = &mut k.writes[0];
        hstreams::parallel::par_rows_mut(a, b, threads, |first_row, rows| {
            for (ri, row) in rows.chunks_mut(b).enumerate() {
                let r = first_row + ri;
                for c in 0..=r {
                    let mut acc = 0.0f32;
                    for m in 0..b {
                        acc += lik[r * b + m] * lik[c * b + m];
                    }
                    row[c] -= acc;
                }
            }
        });
    })
}

/// `A_ij -= L_ik · L_jkᵀ` (GEMM update).
fn gemm_update_kernel(label: String, b: usize) -> KernelDesc {
    let work = 2.0 * (b as f64).powi(3);
    KernelDesc::simulated(label, profiles::cf_update(), work).with_native(move |k| {
        let threads = k.threads;
        let lik: Vec<f32> = k.reads[0].to_vec();
        let ljk: Vec<f32> = k.reads[1].to_vec();
        let a = &mut k.writes[0];
        hstreams::parallel::par_rows_mut(a, b, threads, |first_row, rows| {
            for (ri, row) in rows.chunks_mut(b).enumerate() {
                let r = first_row + ri;
                for c in 0..b {
                    let mut acc = 0.0f32;
                    for m in 0..b {
                        acc += lik[r * b + m] * ljk[c * b + m];
                    }
                    row[c] -= acc;
                }
            }
        });
    })
}

/// Stream that owns tile `(i,j)`: all kernels writing the tile run there.
///
/// A multiplicative hash, not an affine mix: affine maps like `i + 31·j`
/// collapse to `(i − j) mod S` whenever `31 ≡ −1 (mod S)` (S = 16 streams,
/// say), putting every diagonal tile — the tiles with the most updates —
/// on one stream and serializing the trailing submatrix. The hash spreads
/// tile ownership statistically for any stream count.
fn stream_of(ctx: &Context, i: usize, j: usize, _tpd: usize) -> Result<StreamId> {
    let h = i
        .wrapping_mul(0x9E37_79B1)
        .wrapping_add(j.wrapping_mul(0x85EB_CA77))
        .wrapping_shr(7);
    ctx.stream(h % ctx.stream_count())
}

/// Build the CF program. Flow per step `k`: POTRF → barrier → TRSMs (with
/// immediate D2H of each finished panel tile) → barrier → SYRK/GEMM updates
/// → barrier. On a multi-card context, freshly factored tiles are mirrored
/// to the other cards before the phases that consume them.
pub fn build(ctx: &mut Context, cfg: &CfConfig) -> Result<CfBuffers> {
    cfg.validate().map_err(hstreams::Error::Config)?;
    let tpd = cfg.tiles_per_dim;
    let b = cfg.tile();

    let bufs = if tpd == 1 {
        // Monolithic non-streamed version.
        let n = cfg.n;
        let buf = ctx.alloc("A", n * n);
        CfBuffers {
            tiles_per_dim: 1,
            tile: n,
            tiles: vec![buf],
        }
    } else {
        let mut tiles = Vec::with_capacity(tpd * (tpd + 1) / 2);
        for i in 0..tpd {
            for j in 0..=i {
                tiles.push(ctx.alloc(format!("A{i}_{j}"), b * b));
            }
        }
        CfBuffers {
            tiles_per_dim: tpd,
            tile: b,
            tiles,
        }
    };
    record(ctx, cfg, &bufs)?;
    Ok(bufs)
}

/// Record the CF action sequence (uploads, per-step POTRF/TRSM/update
/// phases, panel downloads) against already-allocated tile buffers; used by
/// [`build`] and by autotuning sweeps that replan the stream geometry and
/// re-record the same problem without reallocating.
pub fn record(ctx: &mut Context, cfg: &CfConfig, bufs: &CfBuffers) -> Result<()> {
    cfg.validate().map_err(hstreams::Error::Config)?;
    let tpd = cfg.tiles_per_dim;
    let b = cfg.tile();

    if tpd == 1 {
        let n = cfg.n;
        let buf = bufs.tiles[0];
        let s = ctx.stream(0)?;
        ctx.h2d(s, buf)?;
        ctx.kernel(
            s,
            KernelDesc::simulated("potrf_full", full_profile(), cfg.flops())
                .writing([buf])
                .with_native(move |k| serial_potrf(k.writes[0], n)),
        )?;
        ctx.d2h(s, buf)?;
        return Ok(());
    }

    // Dependency tracking via the runtime's residency tracker: per
    // (tile, card) the current copy's producing stream + readiness event,
    // with demand-driven mirroring on multi-card platforms (Sec. VI's extra
    // transfers). CF's DAG has no write-after-read hazards (a tile version
    // that is read is never overwritten afterwards), which is exactly the
    // tracker's contract.
    let mut tracker = hstreams::ResidencyTracker::new();

    // Upload the lower triangle on each tile's owner stream.
    for i in 0..tpd {
        for j in 0..=i {
            let s = stream_of(ctx, i, j, tpd)?;
            ctx.h2d(s, bufs.at(i, j))?;
            tracker.produced(ctx, bufs.at(i, j), s)?;
        }
    }

    for k in 0..tpd {
        // POTRF runs on the HOST, as in the hStreams SDK sample: the
        // panel factorization is latency-bound and the Xeon beats any small
        // partition at it. Bring the tile up, factor, push it back.
        let s_kk = stream_of(ctx, k, k, tpd)?;
        tracker.ensure_readable(ctx, bufs.at(k, k), s_kk)?;
        ctx.d2h(s_kk, bufs.at(k, k))?;
        ctx.kernel(
            s_kk,
            potrf_kernel(format!("potrf({k})"), b)
                .on_host()
                .writing([bufs.at(k, k)]),
        )?;
        ctx.h2d(s_kk, bufs.at(k, k))?;
        tracker.produced(ctx, bufs.at(k, k), s_kk)?;

        // Panel TRSMs, each followed by the D2H of the now-final tile.
        for i in (k + 1)..tpd {
            let s = stream_of(ctx, i, k, tpd)?;
            tracker.ensure_readable(ctx, bufs.at(k, k), s)?;
            tracker.ensure_readable(ctx, bufs.at(i, k), s)?;
            ctx.kernel(
                s,
                trsm_kernel(format!("trsm({i},{k})"), b)
                    .reading([bufs.at(k, k)])
                    .writing([bufs.at(i, k)]),
            )?;
            ctx.d2h(s, bufs.at(i, k))?;
            tracker.produced(ctx, bufs.at(i, k), s)?;
        }

        // Trailing updates: each waits only on the panels it consumes.
        for i in (k + 1)..tpd {
            for j in (k + 1)..=i {
                let s = stream_of(ctx, i, j, tpd)?;
                tracker.ensure_readable(ctx, bufs.at(i, k), s)?;
                if i != j {
                    tracker.ensure_readable(ctx, bufs.at(j, k), s)?;
                }
                tracker.ensure_readable(ctx, bufs.at(i, j), s)?;
                if i == j {
                    ctx.kernel(
                        s,
                        syrk_kernel(format!("syrk({i},{k})"), b)
                            .reading([bufs.at(i, k)])
                            .writing([bufs.at(i, i)]),
                    )?;
                } else {
                    ctx.kernel(
                        s,
                        gemm_update_kernel(format!("gemm({i},{j},{k})"), b)
                            .reading([bufs.at(i, k), bufs.at(j, k)])
                            .writing([bufs.at(i, j)]),
                    )?;
                }
                tracker.produced(ctx, bufs.at(i, j), s)?;
            }
        }
    }
    Ok(())
}

/// Generate a deterministic SPD matrix (symmetric, diagonally dominant) and
/// write its lower-triangle tiles into the buffers. Returns the full matrix.
pub fn fill_inputs(ctx: &Context, cfg: &CfConfig, bufs: &CfBuffers, seed: u64) -> Result<Vec<f32>> {
    let n = cfg.n;
    let mut a = vec![0.0f32; n * n];
    let raw = util::random_vec(seed, n * n, 0.0, 1.0);
    for i in 0..n {
        for j in 0..=i {
            let v = raw[i * n + j];
            a[i * n + j] = v;
            a[j * n + i] = v;
        }
        a[i * n + i] = n as f32 + 1.0; // diagonal dominance ⇒ SPD
    }
    if cfg.tiles_per_dim == 1 {
        ctx.write_host(bufs.tiles[0], &a)?;
        return Ok(a);
    }
    let b = cfg.tile();
    for i in 0..cfg.tiles_per_dim {
        for j in 0..=i {
            let mut t = vec![0.0f32; b * b];
            for r in 0..b {
                let src = (i * b + r) * n + j * b;
                t[r * b..(r + 1) * b].copy_from_slice(&a[src..src + b]);
            }
            ctx.write_host(bufs.at(i, j), &t)?;
        }
    }
    Ok(a)
}

/// Serial reference factorization of the full matrix; returns `L` with the
/// strictly-upper part zeroed.
pub fn reference(a: &[f32], n: usize) -> Vec<f32> {
    let mut l = a.to_vec();
    serial_potrf(&mut l, n);
    l
}

/// Assemble the factored lower triangle from the context's host buffers.
pub fn collect_result(ctx: &Context, cfg: &CfConfig, bufs: &CfBuffers) -> Result<Vec<f32>> {
    let n = cfg.n;
    if cfg.tiles_per_dim == 1 {
        return ctx.read_host(bufs.tiles[0]);
    }
    let b = cfg.tile();
    let mut l = vec![0.0f32; n * n];
    for i in 0..cfg.tiles_per_dim {
        for j in 0..=i {
            let t = ctx.read_host(bufs.at(i, j))?;
            for r in 0..b {
                let dst = (i * b + r) * n + j * b;
                l[dst..dst + b].copy_from_slice(&t[r * b..(r + 1) * b]);
            }
        }
    }
    // Off-diagonal upper tiles were never stored, so the assembled upper
    // half is already zero; diagonal tiles carry their own upper zeros.
    Ok(l)
}

/// Build + run on the simulator: returns (seconds, GFLOPS).
pub fn simulate(cfg: &CfConfig, platform: PlatformConfig, partitions: usize) -> Result<(f64, f64)> {
    let mut ctx = Context::builder(platform).partitions(partitions).build()?;
    build(&mut ctx, cfg)?;
    let report = ctx.run_sim()?;
    let secs = report.makespan().as_secs_f64();
    Ok((secs, cfg.flops() / secs / 1e9))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::assert_close;

    #[test]
    fn config_and_indexing() {
        let cfg = CfConfig {
            n: 9600,
            tiles_per_dim: 12,
        };
        cfg.validate().unwrap();
        assert_eq!(cfg.tile(), 800);
        assert!(CfConfig {
            n: 10,
            tiles_per_dim: 3
        }
        .validate()
        .is_err());
    }

    #[test]
    fn serial_potrf_reconstructs_matrix() {
        let n = 24;
        let cfg = CfConfig {
            n,
            tiles_per_dim: 1,
        };
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .build()
            .unwrap();
        let bufs = build(&mut ctx, &cfg).unwrap();
        let a = fill_inputs(&ctx, &cfg, &bufs, 3).unwrap();
        let l = reference(&a, n);
        // L·Lᵀ == A
        let mut recon = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for m in 0..n {
                    acc += l[i * n + m] * l[j * n + m];
                }
                recon[i * n + j] = acc;
            }
        }
        assert_close(&recon, &a, 1e-3, "L*L^T == A");
    }

    #[test]
    fn native_tiled_matches_reference() {
        let cfg = CfConfig {
            n: 48,
            tiles_per_dim: 4,
        };
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(4)
            .build()
            .unwrap();
        let bufs = build(&mut ctx, &cfg).unwrap();
        let a = fill_inputs(&ctx, &cfg, &bufs, 11).unwrap();
        ctx.run_native().unwrap();
        let l = collect_result(&ctx, &cfg, &bufs).unwrap();
        let want = reference(&a, cfg.n);
        assert_close(&l, &want, 2e-3, "tiled CF vs serial");
    }

    #[test]
    fn native_monolithic_matches_reference() {
        let cfg = CfConfig {
            n: 32,
            tiles_per_dim: 1,
        };
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .build()
            .unwrap();
        let bufs = build(&mut ctx, &cfg).unwrap();
        let a = fill_inputs(&ctx, &cfg, &bufs, 5).unwrap();
        ctx.run_native().unwrap();
        let l = collect_result(&ctx, &cfg, &bufs).unwrap();
        assert_close(&l, &reference(&a, cfg.n), 2e-3, "monolithic CF");
    }

    #[test]
    fn streamed_sim_beats_monolithic_by_paper_margin() {
        // Fig. 8(b): CF gains ~24% from streams.
        let n = 9600;
        let (wo_secs, wo_gf) = simulate(
            &CfConfig {
                n,
                tiles_per_dim: 1,
            },
            PlatformConfig::phi_31sp(),
            1,
        )
        .unwrap();
        let (w_secs, w_gf) = simulate(
            &CfConfig {
                n,
                tiles_per_dim: 12,
            },
            PlatformConfig::phi_31sp(),
            4,
        )
        .unwrap();
        assert!(w_secs < wo_secs);
        let gain = w_gf / wo_gf - 1.0;
        assert!(
            (0.05..0.45).contains(&gain),
            "CF gain should be large (paper: 24.1%), got {:.1}%",
            gain * 100.0
        );
    }

    #[test]
    fn two_mics_help_but_fall_short_of_projection() {
        // Fig. 11: 2 cards beat 1 but stay below the projected 2x.
        let cfg = CfConfig {
            n: 14000,
            tiles_per_dim: 14,
        };
        let (one, _) = simulate(&cfg, PlatformConfig::phi_31sp(), 4).unwrap();
        let (two, _) = simulate(&cfg, PlatformConfig::phi_31sp_multi(2), 4).unwrap();
        assert!(two < one, "2 MICs ({two}s) must beat 1 ({one}s)");
        assert!(
            two > one / 2.0,
            "2 MICs must fall short of the 2x projection: {two} vs {}",
            one / 2.0
        );
        let speedup = one / two;
        assert!(
            (1.15..1.95).contains(&speedup),
            "speedup {speedup} should be meaningful but sub-linear"
        );
    }

    #[test]
    fn native_two_device_run_is_correct() {
        let cfg = CfConfig {
            n: 48,
            tiles_per_dim: 4,
        };
        let mut ctx = Context::builder(PlatformConfig::phi_31sp_multi(2))
            .partitions(2)
            .build()
            .unwrap();
        let bufs = build(&mut ctx, &cfg).unwrap();
        let a = fill_inputs(&ctx, &cfg, &bufs, 77).unwrap();
        ctx.run_native().unwrap();
        let l = collect_result(&ctx, &cfg, &bufs).unwrap();
        assert_close(&l, &reference(&a, cfg.n), 2e-3, "2-device CF");
    }

    #[test]
    fn sim_gflops_in_paper_band() {
        let (_, gf) = simulate(
            &CfConfig {
                n: 9600,
                tiles_per_dim: 12,
            },
            PlatformConfig::phi_31sp(),
            4,
        )
        .unwrap();
        assert!(
            (120.0..500.0).contains(&gf),
            "CF ≈ paper's 128-512 GFLOPS band, got {gf}"
        );
    }
}
