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
//! Natively, the four tile kernels stand on two pieces over the row-major
//! tiles, which they borrow from the runtime and never copy: an
//! outer-product micro-kernel `C -= A·Bᵀ` over a per-thread transposed
//! copy of `B` (SYRK and GEMM), and a solve on the transpose of its rows,
//! where each column step is one vector operation across every row of the
//! thread's split (TRSM, and POTRF on the tile's own transpose). Each body
//! is written once; one dispatch point runs it compiled for AVX-512F where
//! the host has it, for AVX2 and FMA where it has those, and for the
//! baseline target otherwise, each tier with blocks of its own shape.
//! Every output element is one chain of multiply-adds in a fixed order,
//! fused in the two vector tiers and not in the baseline, so the vector
//! tiers give the same bits as each other, on every host and for every
//! `threads` split, and the baseline's differ from theirs at the ULP
//! level. [`reference()`] is a separate scalar loop that shares
//! no code with them.

use std::array::from_fn;
use std::cell::Cell;
use std::sync::Arc;

use hstreams::context::Context;
use hstreams::kernel::{KernelDesc, KernelFn};
use hstreams::types::{BufId, Result, StreamId};
use hstreams::InlineStr;
use micsim::compute::KernelProfile;

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

/// Buffer handles: the lower-triangle tiles, indexed via [`CfBuffers::at`],
/// and the tile kernels every launch of this tiling shares.
pub struct CfBuffers {
    tiles_per_dim: usize,
    /// Lower-triangle tile buffers, packed row-major over `(i, j)`, `j <= i`.
    pub tiles: Vec<BufId>,
    kernels: TileKernels,
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
        self.kernels.b
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

/// Columns of one micro-kernel block, and the granule every transposed
/// row is padded to: one 512-bit register of `f32`, two 256-bit ones or
/// four 128-bit ones.
const NR: usize = 16;

/// Rows of one micro-kernel block and lanes of one full chunk of a solve's
/// column step in the AVX2+FMA tier, from its sixteen vector registers: a
/// block's `4 × NR` accumulators are eight of them, leaving room for the
/// loads and broadcasts that feed them, and eight independent fused chains
/// cover the multiply-add latency on both ports; a 64-lane chunk is eight
/// accumulators too. A transposed row is padded to [`NR`] lanes only, so
/// what is left after the last full chunk is one chunk of one to three
/// `NR` granules.
const AVX2_ROWS: usize = 4;
const AVX2_LANES: usize = 64;

/// The same for the AVX-512F tier, from its thirty-two 512-bit registers:
/// a block's `16 × NR` accumulators are sixteen of them, and ran
/// `cf_native` ≈ 10 % faster than eight rows; a 64-lane chunk is four,
/// which is all a 64-row tile has.
const AVX512_ROWS: usize = 16;
const AVX512_LANES: usize = 64;

/// The same for the baseline compile: the block's `2 × NR` accumulators
/// are eight of the x86-64 baseline's sixteen 128-bit registers, as above;
/// four rows would be sixteen, which spill, and ran GEMM 15 % slower than
/// two rows do. Thirty-two lanes are eight 128-bit accumulators.
const BASE_ROWS: usize = 2;
const BASE_LANES: usize = 32;

/// Row `r` of a row-major tile of edge `b`.
fn row(tile: &[f32], b: usize, r: usize) -> &[f32] {
    &tile[r * b..(r + 1) * b]
}

/// `dst` becomes the transpose of the first `rows` rows of the row-major
/// `src` (`ld` columns each): `cols` rows of width `w`, `dst[c·w + r] =
/// src[r·ld + c]`, lanes `rows..w` zero. Its capacity is kept, so a warm
/// scratch allocates nothing.
#[inline(always)]
fn transpose_into(dst: &mut Vec<f32>, src: &[f32], ld: usize, rows: usize, cols: usize, w: usize) {
    dst.clear();
    dst.resize(cols * w, 0.0);
    for (r, src_row) in src.chunks_exact(ld).take(rows).enumerate() {
        for (c, &x) in src_row[..cols].iter().enumerate() {
            dst[c * w + r] = x;
        }
    }
}

/// One step of a chain: `acc + x·y`, rounded once when `FUSED` and twice
/// (after the product and after the sum) otherwise. Rust neither contracts
/// nor reassociates floats, and a fused multiply-add is correctly rounded
/// whichever instruction or library call computes it, so a chain of either
/// kind has the same bits wherever it runs. Both vector tiers fuse; the
/// baseline compile does not, because the x86-64 baseline has no FMA
/// instruction and a fused step there is a call to libm's `fmaf`, which ran
/// the tile kernels 20–35 times slower (EXPERIMENTS.md, "CF tile kernels
/// at full FMA width"). So the baseline differs from them at the ULP level.
#[inline(always)]
fn step<const FUSED: bool>(x: f32, y: f32, acc: f32) -> f32 {
    if FUSED {
        x.mul_add(y, acc)
    } else {
        acc + x * y
    }
}

/// The micro-kernel: `acc[i][j] = Σ_m a[i][m] · bt[m][c0 + j]` for `ROWS`
/// equally long rows of `a` and `N` columns of the transposed `bt` (rows
/// of width `w`) — per `m`, one broadcast of each `a[i][m]` times one row
/// segment of `bt`.
///
/// Every element is its own chain of [`step`]s in `m` order from zero,
/// so its bits depend on neither the block's shape, nor the element's
/// place in it, nor the instruction set the chain is compiled for; only on
/// whether the steps are `FUSED`.
///
/// The shape of the loops is what keeps every build vectorized
/// (EXPERIMENTS.md, "CF tile kernels at full FMA width"). Rows are
/// innermost, so the loop the compiler widens runs over the `N` columns
/// whether or not it unrolls the rows; with rows outside it, a
/// `-Ccodegen-units=1` build left a row loop rolled and scalar.
/// The rows are cut to `k` in place and `m` counts to `k`, so the loads of
/// `a[i][m]` share one bounds check per step; cut with `array::map` and
/// counted by `take(k)`, they kept one each.
#[inline(always)]
fn micro<const FUSED: bool, const ROWS: usize, const N: usize>(
    a: [&[f32]; ROWS],
    bt: &[f32],
    w: usize,
    c0: usize,
) -> [[f32; N]; ROWS] {
    let k = a[0].len();
    let mut a = a;
    for r in &mut a {
        *r = &r[..k];
    }
    let mut acc = [[0.0f32; N]; ROWS];
    for (m, bt_row) in (0..k).zip(bt.chunks_exact(w)) {
        let bv: &[f32; N] = bt_row[c0..c0 + N].try_into().expect("N columns");
        let mut x = [0.0f32; ROWS];
        for (x, a) in x.iter_mut().zip(&a) {
            *x = a[m];
        }
        for (j, &y) in bv.iter().enumerate() {
            for (acc, &x) in acc.iter_mut().zip(&x) {
                acc[j] = step::<FUSED>(x, y, acc[j]);
            }
        }
    }
    acc
}

/// `rows -= A·Bᵀ` for the whole rows `first_row..` of a tile of edge `b`,
/// `a` and `bm` row-major: `bm` is transposed into `scratch` once, then
/// every block of `ROWS` rows is one [`micro`] call per `NR` columns, or
/// per `NR / 2` for the last few it needs. With `lower`, only the elements
/// on and below the diagonal are written: a block across the diagonal is
/// computed full width and masked on store, blocks wholly above it are
/// skipped.
#[inline(always)]
fn update<const FUSED: bool, const ROWS: usize>(
    rows: &mut [f32],
    first_row: usize,
    b: usize,
    a: &[f32],
    bm: &[f32],
    lower: bool,
    scratch: &mut Vec<f32>,
) {
    let w = b.next_multiple_of(NR);
    transpose_into(scratch, bm, b, b, b, w);
    for (n, block) in rows.chunks_mut(ROWS * b).enumerate() {
        let r0 = first_row + ROWS * n;
        let height = block.len() / b;
        // A ragged edge repeats its last row; its products are dropped.
        let a_rows = from_fn(|i| row(a, b, r0 + i.min(height - 1)));
        let cols = if lower { r0 + height } else { b };
        for c0 in (0..cols).step_by(NR) {
            if cols - c0 <= NR / 2 {
                let s = micro::<FUSED, ROWS, { NR / 2 }>(a_rows, scratch, w, c0);
                subtract_block(block, b, r0, c0, lower, &s[..height]);
            } else {
                let s = micro::<FUSED, ROWS, NR>(a_rows, scratch, w, c0);
                subtract_block(block, b, r0, c0, lower, &s[..height]);
            }
        }
    }
}

/// `block[i][c0 + j] -= s[i][j]` for the rows from tile row `r0`, cut at
/// the tile's edge and, with `lower`, at the diagonal.
#[inline(always)]
fn subtract_block<const N: usize>(
    block: &mut [f32],
    b: usize,
    r0: usize,
    c0: usize,
    lower: bool,
    s: &[[f32; N]],
) {
    let width = (b - c0).min(N);
    for (i, s) in s.iter().enumerate() {
        let end = if lower {
            (r0 + i + 1).saturating_sub(c0).min(width)
        } else {
            width
        };
        for (out, s) in block[i * b + c0..][..end].iter_mut().zip(s) {
            *out -= s;
        }
    }
}

/// One column step of a solve on transposed rows `xt` (rows of width `w`,
/// a multiple of [`NR`]): `xt[c][l] -= Σ_m coef[m] · xt[m][l]` for every
/// lane `l` from `lane0`, `m < coef.len() ≤ c` — one vector operation per
/// `m` across every row the lanes hold, `LANES` at a time and the rest in
/// one chunk of as many `NR` granules as it has. The sum is a chain of
/// [`step`]s in `m` order from zero and is subtracted once, so a lane's
/// bits do not depend on which lanes share its step.
#[inline(always)]
fn column_step<const FUSED: bool, const LANES: usize>(
    xt: &mut [f32],
    w: usize,
    c: usize,
    coef: &[f32],
    lane0: usize,
) {
    const { assert!(LANES.is_multiple_of(NR) && LANES <= 4 * NR) };
    let (done, rest) = xt.split_at_mut(c * w);
    let mut l0 = lane0;
    while l0 + LANES <= w {
        column_chunk::<FUSED, LANES>(done, &mut rest[l0..l0 + LANES], w, coef, l0);
        l0 += LANES;
    }
    let out = &mut rest[l0..w];
    match out.len() / NR {
        0 => {}
        1 => column_chunk::<FUSED, NR>(done, out, w, coef, l0),
        2 => column_chunk::<FUSED, { 2 * NR }>(done, out, w, coef, l0),
        _ => column_chunk::<FUSED, { 3 * NR }>(done, out, w, coef, l0),
    }
}

/// `out[l] -= Σ_m coef[m] · done[m][l0 + l]` for `N` lanes, `done` in rows
/// of width `w`: the accumulators of one [`column_step`] chunk.
#[inline(always)]
fn column_chunk<const FUSED: bool, const N: usize>(
    done: &[f32],
    out: &mut [f32],
    w: usize,
    coef: &[f32],
    l0: usize,
) {
    let mut acc = [0.0f32; N];
    for (done_row, &k) in done.chunks_exact(w).zip(coef) {
        let src: &[f32; N] = done_row[l0..l0 + N].try_into().expect("N lanes");
        for (acc, &x) in acc.iter_mut().zip(src) {
            *acc = step::<FUSED>(k, x, *acc);
        }
    }
    for (out, acc) in out.iter_mut().zip(acc) {
        *out -= acc;
    }
}

/// `X := X · L^{-T}` for the whole rows `x` of a tile of edge `b` and the
/// lower-triangular `l`, solved on the transpose of the rows in `scratch`:
/// column `c` is one [`column_step`] against `l`'s row `c` across every
/// row of `x`, then one division by `l[c][c]`.
#[inline(always)]
fn solve<const FUSED: bool, const LANES: usize>(
    x: &mut [f32],
    b: usize,
    l: &[f32],
    scratch: &mut Vec<f32>,
) {
    let h = x.len() / b;
    let w = h.next_multiple_of(NR);
    transpose_into(scratch, x, b, h, b, w);
    for c in 0..b {
        let l_row = row(l, b, c);
        column_step::<FUSED, LANES>(scratch, w, c, &l_row[..c], 0);
        let d = l_row[c];
        for v in &mut scratch[c * w..(c + 1) * w] {
            *v /= d;
        }
    }
    for (r, x_row) in x.chunks_exact_mut(b).enumerate() {
        for (c, v) in x_row.iter_mut().enumerate() {
            *v = scratch[c * w + r];
        }
    }
}

/// In-place Cholesky factor of one tile of edge `b`, left-looking by
/// columns on the tile's transpose in `scratch`: column `c` of `L` is one
/// [`column_step`] against `L`'s row `c` (written back to the tile as each
/// column finishes), the square root of its diagonal, and one division.
/// A step starts at the `NR` boundary below `c`: the lanes above the
/// diagonal it computes feed only each other and are never copied back.
/// The strictly-upper part is zeroed.
#[inline(always)]
fn factor<const FUSED: bool, const LANES: usize>(a: &mut [f32], b: usize, scratch: &mut Vec<f32>) {
    let w = b.next_multiple_of(NR);
    transpose_into(scratch, a, b, b, b, w);
    for c in 0..b {
        let lane0 = c - c % NR;
        column_step::<FUSED, LANES>(scratch, w, c, &row(a, b, c)[..c], lane0);
        let col = &mut scratch[c * w..(c + 1) * w];
        let d = col[c];
        assert!(d > 0.0, "matrix not positive definite at column {c}");
        let d = d.sqrt();
        for v in &mut col[lane0..] {
            *v /= d;
        }
        col[c] = d;
        for (i, a_row) in a.chunks_exact_mut(b).enumerate().skip(c) {
            a_row[c] = col[i];
        }
        a[c * b + c + 1..(c + 1) * b].fill(0.0);
    }
}

/// One kernel's work on one thread's share of a tile of edge `b`.
enum Body<'a> {
    /// `rows -= A·Bᵀ` ([`update`]): GEMM, or SYRK with `lower`.
    Update {
        rows: &'a mut [f32],
        first_row: usize,
        a: &'a [f32],
        bm: &'a [f32],
        lower: bool,
    },
    /// `rows := rows · L^{-T}` ([`solve`]): TRSM.
    Solve { rows: &'a mut [f32], l: &'a [f32] },
    /// Factor the whole tile ([`factor`]): POTRF.
    Factor { tile: &'a mut [f32] },
}

impl Body<'_> {
    /// The body in one tier's shape: `ROWS`-high micro-kernel blocks,
    /// `LANES`-wide column-step chunks and `FUSED` or separate multiply
    /// and add steps. Every shape gives the same bits for the same steps.
    #[inline(always)]
    fn run<const FUSED: bool, const ROWS: usize, const LANES: usize>(
        self,
        b: usize,
        scratch: &mut Vec<f32>,
    ) {
        match self {
            Body::Update {
                rows,
                first_row,
                a,
                bm,
                lower,
            } => update::<FUSED, ROWS>(rows, first_row, b, a, bm, lower, scratch),
            Body::Solve { rows, l } => solve::<FUSED, LANES>(rows, b, l, scratch),
            Body::Factor { tile } => factor::<FUSED, LANES>(tile, b, scratch),
        }
    }
}

thread_local! {
    /// Each thread's transposed operand, kept between kernels.
    static SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// The one dispatch point: run `body` with fused multiply-adds in 512-bit
/// registers where the host has AVX-512F and in 256-bit ones where it has
/// AVX2 and FMA, and as compiled for the baseline target, with a separate
/// multiply and add, otherwise.
fn run(body: Body<'_>, b: usize) {
    let mut scratch = SCRATCH.take();
    match body {
        #[cfg(target_arch = "x86_64")]
        body if is_x86_feature_detected!("avx512f") => {
            // SAFETY: `run_avx512` needs AVX-512F and what AVX-512F implies
            // (AVX2 and FMA among it), and the host was just found to have it.
            unsafe { run_avx512(body, b, &mut scratch) }
        }
        #[cfg(target_arch = "x86_64")]
        body if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") => {
            // SAFETY: `run_avx2` needs AVX2, FMA and what they imply, and the
            // host was just found to have both.
            unsafe { run_avx2(body, b, &mut scratch) }
        }
        body => body.run::<false, BASE_ROWS, BASE_LANES>(b, &mut scratch),
    }
    SCRATCH.set(scratch);
}

/// [`Body::run`] compiled with AVX-512F: every body fn is
/// `#[inline(always)]`, so all of it lands in this one function and uses
/// 512-bit registers and fused multiply-adds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512(body: Body<'_>, b: usize, scratch: &mut Vec<f32>) {
    body.run::<true, AVX512_ROWS, AVX512_LANES>(b, scratch);
}

/// [`Body::run`] compiled with AVX2 and FMA, for hosts without AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn run_avx2(body: Body<'_>, b: usize, scratch: &mut Vec<f32>) {
    body.run::<true, AVX2_ROWS, AVX2_LANES>(b, scratch);
}

/// The four tile kernels at tile edge `b`. Each native body is built once
/// per tiling and every launch shares it.
struct TileKernels {
    b: usize,
    potrf: KernelFn,
    trsm: KernelFn,
    syrk: KernelFn,
    gemm: KernelFn,
}

impl TileKernels {
    fn new(b: usize) -> TileKernels {
        TileKernels {
            b,
            potrf: Arc::new(move |k| run(Body::Factor { tile: k.writes[0] }, b)),
            trsm: Arc::new(move |k| {
                let l = k.reads[0];
                hstreams::parallel::par_rows_mut(k.writes[0], b, k.threads, |_, rows| {
                    run(Body::Solve { rows, l }, b);
                });
            }),
            syrk: Arc::new(move |k| {
                let a = k.reads[0];
                hstreams::parallel::par_rows_mut(k.writes[0], b, k.threads, |first_row, rows| {
                    run(
                        Body::Update {
                            rows,
                            first_row,
                            a,
                            bm: a,
                            lower: true,
                        },
                        b,
                    );
                });
            }),
            gemm: Arc::new(move |k| {
                let (a, bm) = (k.reads[0], k.reads[1]);
                hstreams::parallel::par_rows_mut(k.writes[0], b, k.threads, |first_row, rows| {
                    run(
                        Body::Update {
                            rows,
                            first_row,
                            a,
                            bm,
                            lower: false,
                        },
                        b,
                    );
                });
            }),
        }
    }

    /// Factor one tile in place (POTRF).
    fn potrf(&self, label: impl Into<InlineStr>) -> KernelDesc {
        let work = (self.b as f64).powi(3) / 3.0;
        KernelDesc::simulated(label, profiles::cf_potrf(), work).with_body(self.potrf.clone())
    }

    /// `X := X · L^{-T}` where `X` is tile `(i,k)` and `L` the factored `(k,k)`.
    fn trsm(&self, label: impl Into<InlineStr>) -> KernelDesc {
        let work = (self.b as f64).powi(3);
        KernelDesc::simulated(label, profiles::cf_trsm(), work).with_body(self.trsm.clone())
    }

    /// `A_ii -= L_ik · L_ikᵀ` (SYRK, lower half only).
    fn syrk(&self, label: impl Into<InlineStr>) -> KernelDesc {
        let work = (self.b as f64).powi(3);
        KernelDesc::simulated(label, profiles::cf_update(), work).with_body(self.syrk.clone())
    }

    /// `A_ij -= L_ik · L_jkᵀ` (GEMM update).
    fn gemm(&self, label: impl Into<InlineStr>) -> KernelDesc {
        let work = 2.0 * (self.b as f64).powi(3);
        KernelDesc::simulated(label, profiles::cf_update(), work).with_body(self.gemm.clone())
    }
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
            tiles: vec![buf],
            kernels: TileKernels::new(n),
        }
    } else {
        let mut tiles = Vec::with_capacity(tpd * (tpd + 1) / 2);
        for i in 0..tpd {
            for j in 0..=i {
                tiles.push(ctx.alloc(format_args!("A{i}_{j}"), b * b));
            }
        }
        CfBuffers {
            tiles_per_dim: tpd,
            tiles,
            kernels: TileKernels::new(b),
        }
    };
    record(ctx, cfg, &bufs)?;
    Ok(bufs)
}

/// Record the CF action sequence (uploads, per-step POTRF/TRSM/update
/// phases, panel downloads) against already-allocated tile buffers (built
/// by [`build`] for the same `cfg`); used by
/// [`build`] and by autotuning sweeps that replan the stream geometry and
/// re-record the same problem without reallocating.
pub fn record(ctx: &mut Context, cfg: &CfConfig, bufs: &CfBuffers) -> Result<()> {
    cfg.validate().map_err(hstreams::Error::Config)?;
    let tpd = cfg.tiles_per_dim;
    let kernels = &bufs.kernels;

    if tpd == 1 {
        // The whole matrix is one tile: POTRF's body at edge `n`.
        let buf = bufs.tiles[0];
        let s = ctx.stream(0)?;
        ctx.h2d(s, buf)?;
        ctx.kernel(
            s,
            KernelDesc::simulated("potrf_full", full_profile(), cfg.flops())
                .writing([buf])
                .with_body(kernels.potrf.clone()),
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
    let mut tracker = hstreams::ResidencyTracker::with_capacity(bufs.tiles.len());

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
            kernels
                .potrf(format_args!("potrf({k})"))
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
                kernels
                    .trsm(format_args!("trsm({i},{k})"))
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
                        kernels
                            .syrk(format_args!("syrk({i},{k})"))
                            .reading([bufs.at(i, k)])
                            .writing([bufs.at(i, i)]),
                    )?;
                } else {
                    ctx.kernel(
                        s,
                        kernels
                            .gemm(format_args!("gemm({i},{j},{k})"))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::assert_close;
    use micsim::PlatformConfig;

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

    /// Tile edges below, at and past the micro-kernel's block heights, one
    /// and two 16-wide blocks and the 32 solve lanes, multiples of none,
    /// and the benchmark's 64.
    const EDGES: [usize; 16] = [1, 3, 4, 5, 7, 8, 9, 13, 15, 16, 17, 31, 32, 33, 64, 65];

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

    /// A symmetric, diagonally dominant (so positive-definite) tile.
    fn spd_tile(seed: u64, b: usize) -> Vec<f32> {
        let mut a = util::random_vec(seed, b * b, 0.0, 1.0);
        for r in 0..b {
            for c in 0..r {
                a[c * b + r] = a[r * b + c];
            }
            a[r * b + r] = b as f32 + 1.0;
        }
        a
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
            reads,
            writes: &mut [out],
            threads,
        });
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn micro_kernel_matches_naive_dots_wherever_a_pair_sits() {
        micro_pairs::<false>();
        micro_pairs::<true>();
    }

    fn micro_pairs<const FUSED: bool>() {
        let w = 3 * NR;
        for k in [0, 2].into_iter().chain(EDGES) {
            let a = util::random_vec(k as u64, AVX512_ROWS * k, -1.0, 1.0);
            let bt = util::random_vec(100 + k as u64, k * w, -1.0, 1.0);
            let a_rows: [_; AVX512_ROWS] = from_fn(|i| &a[i * k..(i + 1) * k]);
            for c0 in [0, 3] {
                let got = micro::<FUSED, AVX512_ROWS, NR>(a_rows, &bt, w, c0);
                for (i, a_row) in a_rows.into_iter().enumerate() {
                    for j in 0..NR {
                        let column: Vec<f32> = (0..k).map(|m| bt[m * w + c0 + j]).collect();
                        let want = naive_dot(a_row, &column);
                        assert_close(&[got[i][j]], &[want], 1e-4, "micro vs naive");
                        // The same pair in the last row and first column of
                        // a block of the other shape: same bits.
                        let alone = micro::<FUSED, BASE_ROWS, { NR / 2 }>(
                            [a_row; BASE_ROWS],
                            &bt,
                            w,
                            c0 + j,
                        );
                        assert_eq!(alone[BASE_ROWS - 1][0].to_bits(), got[i][j].to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn update_blocks_match_the_naive_triple_loop_for_every_edge_and_row_block() {
        update_blocks::<false>();
        update_blocks::<true>();
    }

    fn update_blocks<const FUSED: bool>() {
        let mut scratch = Vec::new();
        for b in EDGES {
            let c = util::random_vec(b as u64, b * b, -1.0, 1.0);
            let a = util::random_vec(200 + b as u64, b * b, -1.0, 1.0);
            let other = util::random_vec(300 + b as u64, b * b, -1.0, 1.0);
            for height in 1..=b.min(7) {
                for first_row in [0, (b - height).min(3), b - height] {
                    for lower in [false, true] {
                        // SYRK multiplies a tile by its own transpose.
                        let bm = if lower { &a } else { &other };
                        let before = &c[first_row * b..(first_row + height) * b];
                        let mut got = before.to_owned();
                        update::<FUSED, BASE_ROWS>(
                            &mut got,
                            first_row,
                            b,
                            &a,
                            bm,
                            lower,
                            &mut scratch,
                        );
                        let mut want = before.to_owned();
                        for i in 0..height {
                            let r = first_row + i;
                            for col in 0..if lower { r + 1 } else { b } {
                                want[i * b + col] -= naive_dot(row(&a, b, r), row(bm, b, col));
                            }
                        }
                        let what =
                            format!("b={b} rows {first_row}+{height} lower={lower} fused={FUSED}");
                        assert_close(&got, &want, 1e-4, &what);
                        let mut taller = before.to_owned();
                        update::<FUSED, AVX512_ROWS>(
                            &mut taller,
                            first_row,
                            b,
                            &a,
                            bm,
                            lower,
                            &mut scratch,
                        );
                        assert_eq!(bits(&taller), bits(&got), "{what}: block height moved bits");
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
        let mut scratch = Vec::new();
        for b in EDGES {
            let l = lower_tile(b as u64, b);
            for height in (1..=b.min(4)).chain([b]) {
                let mut got = util::random_vec(400 + b as u64, height * b, -1.0, 1.0);
                let mut want = got.clone();
                let mut wide = got.clone();
                // Each tier's steps and shape, both compiled for the baseline.
                solve::<false, BASE_LANES>(&mut got, b, &l, &mut scratch);
                solve::<true, AVX2_LANES>(&mut wide, b, &l, &mut scratch);
                naive_trsm(&mut want, b, &l);
                assert_close(&got, &want, 1e-4, &format!("b={b} height={height}"));
                assert_close(&wide, &want, 1e-4, &format!("b={b} height={height} wide"));
            }
        }
    }

    #[test]
    fn potrf_matches_the_scalar_oracle_for_every_edge() {
        let mut scratch = Vec::new();
        for b in EDGES {
            let mut a = spd_tile(b as u64, b);
            let mut got = a.clone();
            let mut wide = a.clone();
            factor::<false, BASE_LANES>(&mut got, b, &mut scratch);
            factor::<true, AVX2_LANES>(&mut wide, b, &mut scratch);
            serial_potrf(&mut a, b);
            assert_close(&got, &a, 1e-4, &format!("potrf b={b}"));
            assert_close(&wide, &a, 1e-4, &format!("potrf b={b} wide"));
            for r in 0..b {
                assert!(got[r * b + r + 1..(r + 1) * b].iter().all(|&x| x == 0.0));
                assert!(wide[r * b + r + 1..(r + 1) * b].iter().all(|&x| x == 0.0));
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
            let kernels = TileKernels::new(b);
            let cases: [(KernelDesc, Vec<&[f32]>); 3] = [
                (kernels.trsm("trsm"), vec![&l]),
                (kernels.syrk("syrk"), vec![&p]),
                (kernels.gemm("gemm"), vec![&p, &q]),
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

    /// One tier's compile of [`Body::run`] over one thread's share.
    type Tier = fn(Body<'_>, usize, &mut Vec<f32>);

    /// The body as the baseline target compiles it, its steps `FUSED` (each
    /// one a call to libm's `fmaf` on x86-64) or not, in the baseline shape.
    fn baseline<const FUSED: bool>(body: Body<'_>, b: usize, scratch: &mut Vec<f32>) {
        body.run::<FUSED, BASE_ROWS, BASE_LANES>(b, scratch);
    }

    /// Every tier this host can run, each with the baseline compile of the
    /// same steps; [`run`] dispatches to the last.
    fn tiers() -> Vec<(&'static str, Tier, Tier)> {
        let mut tiers: Vec<(&'static str, Tier, Tier)> =
            vec![("baseline", baseline::<false>, baseline::<false>)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                tiers.push((
                    "avx2+fma",
                    |body, b, scratch| {
                        // SAFETY: listed only where the host has AVX2 and FMA.
                        unsafe { run_avx2(body, b, scratch) }
                    },
                    baseline::<true>,
                ));
            }
            if is_x86_feature_detected!("avx512f") {
                tiers.push((
                    "avx512f",
                    |body, b, scratch| {
                        // SAFETY: listed only where the host has AVX-512F.
                        unsafe { run_avx512(body, b, scratch) }
                    },
                    baseline::<true>,
                ));
            }
        }
        tiers
    }

    /// `tier`'s TRSM, SYRK or GEMM on `out` split over `threads` shares the
    /// way [`TileKernels`] splits it.
    fn split_body(
        tier: Tier,
        kind: &str,
        reads: &[&[f32]],
        out: &mut [f32],
        b: usize,
        threads: usize,
    ) {
        hstreams::parallel::par_rows_mut(out, b, threads, |first_row, rows| {
            let body = match kind {
                "trsm" => Body::Solve { rows, l: reads[0] },
                _ => Body::Update {
                    rows,
                    first_row,
                    a: reads[0],
                    bm: reads[reads.len() - 1],
                    lower: kind == "syrk",
                },
            };
            tier(body, b, &mut Vec::new());
        });
    }

    /// Each tier, split over 1–8 threads, against the baseline compile of
    /// its steps on one thread; and the dispatch point against the last
    /// tier's. The fused baseline compile computes every step with `fmaf`,
    /// so a vector remainder chunk that drops or repeats a lane shows here
    /// as a changed bit, not as an error under a tolerance.
    #[test]
    fn kernels_are_bit_identical_for_every_instruction_set() {
        let tiers = tiers();
        let dispatched = tiers[tiers.len() - 1].2;
        for b in EDGES {
            let l = lower_tile(b as u64, b);
            let p = util::random_vec(500 + b as u64, b * b, -1.0, 1.0);
            let q = util::random_vec(600 + b as u64, b * b, -1.0, 1.0);
            let start = util::random_vec(700 + b as u64, b * b, -1.0, 1.0);
            let kernels = TileKernels::new(b);
            let cases = [
                (kernels.gemm("gemm"), vec![&p[..], &q]),
                (kernels.syrk("syrk"), vec![&p[..]]),
                (kernels.trsm("trsm"), vec![&l[..]]),
            ];
            for (desc, reads) in &cases {
                let kind = desc.label.as_str();
                let want = |reference: Tier| {
                    let mut want = start.clone();
                    split_body(reference, kind, reads, &mut want, b, 1);
                    want
                };
                for &(name, tier, reference) in &tiers {
                    let want = want(reference);
                    for threads in 1..=8 {
                        let mut got = start.clone();
                        split_body(tier, kind, reads, &mut got, b, threads);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{kind} {name} b={b} threads={threads}"
                        );
                    }
                }
                // And through the dispatch point, as a launch runs it.
                let want = want(dispatched);
                for threads in 1..=8 {
                    let mut got = start.clone();
                    run_kernel(desc, reads, &mut got, threads);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{kind} dispatched b={b} threads={threads}"
                    );
                }
            }
            // POTRF factors its tile on one thread.
            let a = spd_tile(b as u64, b);
            let want = |reference: Tier| {
                let mut want = a.clone();
                reference(Body::Factor { tile: &mut want }, b, &mut Vec::new());
                want
            };
            for &(name, tier, reference) in &tiers {
                let mut got = a.clone();
                tier(Body::Factor { tile: &mut got }, b, &mut Vec::new());
                assert_eq!(bits(&got), bits(&want(reference)), "potrf {name} b={b}");
            }
            let mut got = a.clone();
            run_kernel(&kernels.potrf("potrf"), &[], &mut got, 1);
            assert_eq!(
                bits(&got),
                bits(&want(dispatched)),
                "potrf dispatched b={b}"
            );
        }
    }
}
