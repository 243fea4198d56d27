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
//!
//! Natively, all four tile kernels stand on one 4 × 4 dot-form micro-kernel
//! (`dots`) over the row-major tiles, borrowed from the runtime and never
//! copied: SYRK and GEMM are `C -= A·Bᵀ` in 4 × 4 blocks, TRSM and POTRF
//! take everything left of a 4-column block from it and finish the few
//! terms inside the block in order. It is safe Rust that vectorises at the
//! default target. An element's summation order depends only on the tile
//! edge and the element's column, so every kernel's output is bit-identical
//! for every `threads` split. [`reference()`] is a separate scalar loop that
//! shares no code with them.

use std::array::from_fn;

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

/// The scalar oracle behind [`reference()`]; no kernel calls it.
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

/// `f32` lanes of one 128-bit register, the widest the default x86-64
/// target has: sixteen such accumulators are the 4 × 4 block of [`dots`].
const W: usize = 4;

/// The micro-kernel: `out[i][j] = a[i] · b[j]` for 4 × 4 pairs of equally
/// long rows — sixteen accumulators of `W` independent lanes each over the
/// whole `W`-chunks of `k`, the lanes summed once per pair, then a scalar
/// tail. Four loads feed four multiply-adds where a single dot needs eight.
///
/// The order of every `out[i][j]`'s additions depends on the row length
/// alone, which is what makes the kernels built on this bit-identical for
/// every row split.
fn dots(a: [&[f32]; 4], b: [&[f32]; 4]) -> [[f32; 4]; 4] {
    let k = a[0].len();
    let a = a.map(|row| &row[..k]);
    let b = b.map(|row| &row[..k]);
    let full = k - k % W;
    let mut acc = [[[0.0f32; W]; 4]; 4];
    let mut m = 0;
    while m < full {
        let av: [&[f32; W]; 4] = a.map(|row| row[m..m + W].try_into().expect("W elements"));
        let bv: [&[f32; W]; 4] = b.map(|row| row[m..m + W].try_into().expect("W elements"));
        for i in 0..4 {
            for j in 0..4 {
                for l in 0..W {
                    acc[i][j][l] += av[i][l] * bv[j][l];
                }
            }
        }
        m += W;
    }
    let mut out = [[0.0f32; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            let [w0, w1, w2, w3] = acc[i][j];
            let mut sum = (w0 + w2) + (w1 + w3);
            for t in full..k {
                sum += a[i][t] * b[j][t];
            }
            out[i][j] = sum;
        }
    }
    out
}

/// Row `r` of a row-major tile of edge `b`.
fn row(tile: &[f32], b: usize, r: usize) -> &[f32] {
    &tile[r * b..(r + 1) * b]
}

/// A block's worth of a tile's rows for [`dots`]: the `count ≤ 4` rows from
/// `first`, each cut to `len`. A ragged edge repeats its last row as
/// padding; callers drop the padded products.
fn rows4(tile: &[f32], b: usize, first: usize, count: usize, len: usize) -> [&[f32]; 4] {
    from_fn(|i| &row(tile, b, first + i.min(count - 1))[..len])
}

/// `rows -= A·Bᵀ` for the whole rows `first_row..` of a tile of edge `b`,
/// `a` and `bt` both row-major; with `lower`, only the elements on and
/// below the diagonal are touched, and blocks wholly above it are skipped.
/// One 4 × 4 [`dots`] block at a time.
fn sub_abt(rows: &mut [f32], first_row: usize, b: usize, a: &[f32], bt: &[f32], lower: bool) {
    for (n, block) in rows.chunks_mut(4 * b).enumerate() {
        let r0 = first_row + 4 * n;
        let height = block.len() / b;
        let a_rows = rows4(a, b, r0, height, b);
        let cols = if lower { r0 + height } else { b };
        for c0 in (0..cols).step_by(4) {
            let width = (cols - c0).min(4);
            let s = dots(a_rows, rows4(bt, b, c0, width, b));
            for i in 0..height {
                for j in 0..width {
                    if !lower || c0 + j <= r0 + i {
                        block[i * b + c0 + j] -= s[i][j];
                    }
                }
            }
        }
    }
}

/// Triangular solve of up to four whole rows `x` of a tile of edge `b`
/// against the first `cols` rows of the lower-triangular `l`: `x[c] =
/// (x[c] − x[..c]·l[c][..c]) / l[c][c]` for `c < cols`. The rows are
/// independent, the columns are not: four columns at a time take
/// everything left of them from one [`dots`] block, then the few terms
/// between them in order.
fn solve_rows(block: &mut [f32], b: usize, cols: usize, l: &[f32]) {
    let height = block.len() / b;
    for c0 in (0..cols).step_by(4) {
        let width = (cols - c0).min(4);
        let s = dots(rows4(block, b, 0, height, c0), rows4(l, b, c0, width, c0));
        for i in 0..height {
            let x = &mut block[i * b..(i + 1) * b];
            for (j, left) in s[i][..width].iter().enumerate() {
                let c = c0 + j;
                let l_row = row(l, b, c);
                let mut v = x[c] - left;
                for m in c0..c {
                    v -= x[m] * l_row[m];
                }
                x[c] = v / l_row[c];
            }
        }
    }
}

/// In-place Cholesky factor of one tile, four rows at a time: everything
/// left of the 4 × 4 diagonal block is a [`solve_rows`] against the rows
/// above; the diagonal block takes those columns' share of its sums from
/// one [`dots`] block of its rows with themselves and is then factored
/// element by element. The strictly-upper part is zeroed.
fn potrf(a: &mut [f32], b: usize) {
    for i0 in (0..b).step_by(4) {
        let (above, rest) = a.split_at_mut(i0 * b);
        let block = &mut rest[..(b - i0).min(4) * b];
        let height = block.len() / b;
        solve_rows(block, b, i0, above);
        let left = rows4(block, b, 0, height, i0);
        let s = dots(left, left);
        for j in 0..height {
            let c = i0 + j;
            let mut d = block[j * b + c] - s[j][j];
            for m in i0..c {
                d -= block[j * b + m] * block[j * b + m];
            }
            assert!(d > 0.0, "matrix not positive definite at column {c}");
            let d = d.sqrt();
            block[j * b + c] = d;
            block[j * b + c + 1..(j + 1) * b].fill(0.0);
            for i in j + 1..height {
                let mut v = block[i * b + c] - s[i][j];
                for m in i0..c {
                    v -= block[i * b + m] * block[j * b + m];
                }
                block[i * b + c] = v / d;
            }
        }
    }
}

fn potrf_kernel(label: String, b: usize) -> KernelDesc {
    let work = (b as f64).powi(3) / 3.0;
    KernelDesc::simulated(label, profiles::cf_potrf(), work)
        .with_native(move |k| potrf(k.writes[0], b))
}

/// `X := X · L^{-T}` where `X` is tile `(i,k)` and `L` the factored `(k,k)`.
fn trsm_kernel(label: String, b: usize) -> KernelDesc {
    let work = (b as f64).powi(3);
    KernelDesc::simulated(label, profiles::cf_trsm(), work).with_native(move |k| {
        let l = k.reads[0];
        hstreams::parallel::par_rows_mut(k.writes[0], b, k.threads, |_, rows| {
            for block in rows.chunks_mut(4 * b) {
                solve_rows(block, b, b, l);
            }
        });
    })
}

/// `A_ii -= L_ik · L_ikᵀ` (SYRK, lower half only).
fn syrk_kernel(label: String, b: usize) -> KernelDesc {
    let work = (b as f64).powi(3);
    KernelDesc::simulated(label, profiles::cf_update(), work).with_native(move |k| {
        let lik = k.reads[0];
        hstreams::parallel::par_rows_mut(k.writes[0], b, k.threads, |first_row, rows| {
            sub_abt(rows, first_row, b, lik, lik, true);
        });
    })
}

/// `A_ij -= L_ik · L_jkᵀ` (GEMM update).
fn gemm_update_kernel(label: String, b: usize) -> KernelDesc {
    let work = 2.0 * (b as f64).powi(3);
    KernelDesc::simulated(label, profiles::cf_update(), work).with_native(move |k| {
        let (lik, ljk) = (k.reads[0], k.reads[1]);
        hstreams::parallel::par_rows_mut(k.writes[0], b, k.threads, |first_row, rows| {
            sub_abt(rows, first_row, b, lik, ljk, false);
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
fn stream_of(ctx: &Context, i: usize, j: usize) -> Result<StreamId> {
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
                .with_native(move |k| potrf(k.writes[0], n)),
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
            let s = stream_of(ctx, i, j)?;
            ctx.h2d(s, bufs.at(i, j))?;
            tracker.produced(ctx, bufs.at(i, j), s)?;
        }
    }

    for k in 0..tpd {
        // POTRF runs on the HOST, as in the hStreams SDK sample: the
        // panel factorization is latency-bound and the Xeon beats any small
        // partition at it. Bring the tile up, factor, push it back.
        let s_kk = stream_of(ctx, k, k)?;
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
            let s = stream_of(ctx, i, k)?;
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
                let s = stream_of(ctx, i, j)?;
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
    let mut t = vec![0.0f32; b * b];
    for i in 0..cfg.tiles_per_dim {
        for j in 0..=i {
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
            ctx.buffer(bufs.at(i, j))?.with_host(|t| {
                for r in 0..b {
                    let dst = (i * b + r) * n + j * b;
                    l[dst..dst + b].copy_from_slice(&t[r * b..(r + 1) * b]);
                }
            });
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

    /// Tile edges below, at and past the lane width and the 4 × 4 block,
    /// multiples of neither, and the benchmark's 64.
    const EDGES: [usize; 11] = [1, 3, 4, 5, 7, 8, 9, 13, 17, 33, 64];

    /// `a · b` the plain way, one scalar chain.
    fn naive_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y)
    }

    /// A well-conditioned lower-triangular tile: small off-diagonals, a
    /// diagonal in `[2, 3)`, zeros above.
    fn lower_tile(seed: u64, b: usize) -> Vec<f32> {
        let mut l = util::random_vec(seed, b * b, -0.1, 0.1);
        for r in 0..b {
            l[r * b + r] += 2.5;
            l[r * b + r + 1..(r + 1) * b].fill(0.0);
        }
        l
    }

    /// `X := X · L^{-T}` by forward substitution, one scalar chain per element.
    fn naive_trsm(x: &mut [f32], b: usize, l: &[f32]) {
        for x in x.chunks_exact_mut(b) {
            for c in 0..b {
                x[c] = (x[c] - naive_dot(&x[..c], &row(l, b, c)[..c])) / l[c * b + c];
            }
        }
    }

    fn run_kernel(desc: &KernelDesc, reads: &[&[f32]], out: &mut [f32], threads: usize) {
        let body = desc
            .native
            .as_ref()
            .expect("CF kernels carry native bodies");
        body(&mut hstreams::kernel::KernelCtx {
            reads: reads.into(),
            writes: vec![out],
            threads,
        });
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn micro_kernel_matches_naive_dots_wherever_a_pair_sits() {
        for k in [0, 2].into_iter().chain(EDGES) {
            let a = util::random_vec(k as u64, 4 * k, -1.0, 1.0);
            let b = util::random_vec(100 + k as u64, 4 * k, -1.0, 1.0);
            let a_rows: [_; 4] = from_fn(|i| &a[i * k..(i + 1) * k]);
            let b_rows: [_; 4] = from_fn(|j| &b[j * k..(j + 1) * k]);
            let got = dots(a_rows, b_rows);
            for i in 0..4 {
                for j in 0..4 {
                    let want = naive_dot(a_rows[i], b_rows[j]);
                    assert_close(&[got[i][j]], &[want], 1e-4, "dots vs naive");
                    // The same pair padded out to a whole block: same bits.
                    let alone = dots([a_rows[i]; 4], [b_rows[j]; 4]);
                    assert_eq!(bits(alone.as_flattened()), [got[i][j].to_bits(); 16]);
                }
            }
        }
    }

    #[test]
    fn update_blocks_match_the_naive_triple_loop_for_every_edge_and_row_block() {
        for b in EDGES {
            let c = util::random_vec(b as u64, b * b, -1.0, 1.0);
            let a = util::random_vec(200 + b as u64, b * b, -1.0, 1.0);
            let other = util::random_vec(300 + b as u64, b * b, -1.0, 1.0);
            for height in 1..=b.min(7) {
                for first_row in [0, (b - height).min(3), b - height] {
                    for lower in [false, true] {
                        // SYRK multiplies a tile by its own transpose.
                        let bt = if lower { &a } else { &other };
                        let before = &c[first_row * b..(first_row + height) * b];
                        let mut got = before.to_owned();
                        sub_abt(&mut got, first_row, b, &a, bt, lower);
                        let mut want = before.to_owned();
                        for i in 0..height {
                            let r = first_row + i;
                            for col in 0..if lower { r + 1 } else { b } {
                                want[i * b + col] -= naive_dot(row(&a, b, r), row(bt, b, col));
                            }
                        }
                        let what = format!("b={b} rows {first_row}+{height} lower={lower}");
                        assert_close(&got, &want, 1e-4, &what);
                        if lower {
                            for i in 0..height {
                                let upper = i * b + first_row + i + 1..(i + 1) * b;
                                assert_eq!(
                                    bits(&got[upper.clone()]),
                                    bits(&before[upper]),
                                    "{what}: SYRK wrote above the diagonal"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn solve_rows_matches_naive_forward_substitution() {
        for b in EDGES {
            let l = lower_tile(b as u64, b);
            for height in 1..=b.min(4) {
                let mut got = util::random_vec(400 + b as u64, height * b, -1.0, 1.0);
                let mut want = got.clone();
                solve_rows(&mut got, b, b, &l);
                naive_trsm(&mut want, b, &l);
                assert_close(&got, &want, 1e-4, &format!("b={b} height={height}"));
            }
        }
    }

    #[test]
    fn potrf_matches_the_scalar_oracle_for_every_edge() {
        for b in EDGES {
            let mut a = util::random_vec(b as u64, b * b, 0.0, 1.0);
            for r in 0..b {
                for c in 0..r {
                    a[c * b + r] = a[r * b + c];
                }
                a[r * b + r] = b as f32 + 1.0;
            }
            let mut got = a.clone();
            potrf(&mut got, b);
            serial_potrf(&mut a, b);
            assert_close(&got, &a, 1e-4, &format!("potrf b={b}"));
            for r in 0..b {
                assert!(got[r * b + r + 1..(r + 1) * b].iter().all(|&x| x == 0.0));
            }
        }
    }

    #[test]
    fn kernels_are_bit_identical_for_every_thread_count() {
        for b in EDGES {
            let l = lower_tile(b as u64, b);
            let p = util::random_vec(500 + b as u64, b * b, -1.0, 1.0);
            let q = util::random_vec(600 + b as u64, b * b, -1.0, 1.0);
            let start = util::random_vec(700 + b as u64, b * b, -1.0, 1.0);
            let cases: [(KernelDesc, Vec<&[f32]>); 3] = [
                (trsm_kernel("trsm".into(), b), vec![&l]),
                (syrk_kernel("syrk".into(), b), vec![&p]),
                (gemm_update_kernel("gemm".into(), b), vec![&p, &q]),
            ];
            for (desc, reads) in &cases {
                let mut serial = start.clone();
                run_kernel(desc, reads, &mut serial, 1);
                for threads in 2..=8 {
                    let mut split = start.clone();
                    run_kernel(desc, reads, &mut split, threads);
                    assert_eq!(
                        bits(&split),
                        bits(&serial),
                        "{} b={b} threads={threads}",
                        desc.label
                    );
                }
            }
            // And the split TRSM is the right answer, not just a stable one.
            let mut got = start.clone();
            run_kernel(&cases[0].0, &cases[0].1, &mut got, 3);
            let mut want = start.clone();
            naive_trsm(&mut want, b, &l);
            assert_close(&got, &want, 1e-4, &format!("trsm b={b}"));
        }
    }
}
