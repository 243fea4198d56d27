//! `(T, P)`-tunable program builders — the autotuner's view of the apps.
//!
//! A [`Tunable`] wraps one application at one problem size and knows how to
//! record its streamed program for any task count `T` against a context
//! whose partition count `P` was already set (via
//! [`Context::replan`](hstreams::context::Context::replan)). Buffers for a
//! given `T` are allocated — and, when a fill seed is supplied, filled —
//! exactly once and then reused across trials, so a tuning sweep pays the
//! allocation and input generation cost per *tiling*, not per *trial*.
//!
//! The split of responsibilities with `stream-tune` is deliberate:
//! everything an application intrinsically knows (its transfer volume,
//! total kernel work, calibrated per-thread rate — [`PipelineCosts`]) lives
//! here next to the builders and [`profiles`]; the tuner
//! combines those costs with a platform description to seed its model-first
//! search order.

use std::collections::HashMap;

use hstreams::context::Context;
use hstreams::kernel::KernelFn;
use hstreams::types::{BufId, Result};

use crate::{cholesky, hbench, kmeans, mm, nn, profiles, util};

/// Application-intrinsic quantities of a streamed pipeline, in the units of
/// the tuner's analytical model: bytes each way, transfers per tile, total
/// kernel work and the calibrated per-thread-equivalent rate it runs at.
/// `None` from [`Tunable::pipeline_costs`] means the flow is not described
/// by a linear pipeline (e.g. barrier-separated Kmeans) and model seeding
/// falls back to the pruned order.
#[derive(Clone, Copy, Debug)]
pub struct PipelineCosts {
    /// Host→device bytes of one full run.
    pub bytes_h2d: f64,
    /// Device→host bytes of one full run.
    pub bytes_d2h: f64,
    /// Link transactions per tile (latency term).
    pub transfers_per_tile: f64,
    /// Total kernel work, in the unit of `thread_rate`.
    pub kernel_work: f64,
    /// Work units per second per device thread-equivalent (from
    /// [`profiles`]).
    pub thread_rate: f64,
}

/// One application at one problem size, parameterized by the paper's task
/// granularity `T`. The resource granularity `P` comes from the context the
/// trial records into.
pub trait Tunable {
    /// Short identifier, e.g. `"mm"` — the measurement-cache key's app
    /// component.
    fn name(&self) -> &'static str;

    /// Problem-size description, e.g. `"n=96"` — the cache key's problem
    /// component.
    fn problem(&self) -> String;

    /// Whether transfers and kernels can overlap in this flow (false for
    /// the barrier-separated apps, the paper's Fig. 4(d) class).
    fn overlappable(&self) -> bool;

    /// Whether this app can be tiled into exactly `t` tasks (e.g. MM and CF
    /// need `t` to be a perfect square whose root divides `n`).
    fn feasible(&self, t: usize) -> bool;

    /// Record the `t`-task program into `ctx` (already planned at the
    /// trial's `P`). Buffers are cached per `t` across calls.
    fn record(&mut self, ctx: &mut Context, t: usize) -> Result<()>;

    /// Intrinsic pipeline costs for model-seeded search, if the flow fits
    /// the linear-pipeline model.
    fn pipeline_costs(&self) -> Option<PipelineCosts>;
}

/// Exact integer square root, if `t` is a perfect square.
fn perfect_sqrt(t: usize) -> Option<usize> {
    let r = (t as f64).sqrt().round() as usize;
    (r * r == t).then_some(r)
}

// ----- hBench ---------------------------------------------------------------

/// One tile of an hBench tiling: its input and output buffers and length.
#[derive(Clone, Copy, Debug)]
struct Tile {
    a: BufId,
    b: BufId,
    elems: usize,
}

/// Allocate the `(A, B)` buffers of `elems` elements split into `t` tiles,
/// writing each tile's slice of `data` into its `A` when given.
fn alloc_tiles(
    ctx: &mut Context,
    elems: usize,
    t: usize,
    data: Option<&[f32]>,
) -> Result<Vec<Tile>> {
    let mut tiles = Vec::with_capacity(t);
    for (i, range) in util::split_ranges(elems, t).into_iter().enumerate() {
        let a = ctx.alloc(format_args!("A{t}_{i}"), range.len());
        let b = ctx.alloc(format_args!("B{t}_{i}"), range.len());
        if let Some(data) = data {
            ctx.write_host(a, &data[range.clone()])?;
        }
        tiles.push(Tile {
            a,
            b,
            elems: range.len(),
        });
    }
    Ok(tiles)
}

/// The paper's microbenchmark pipeline (`B[i] = A[i] + α`, Fig. 6
/// `Streamed` variant): `elems` elements split into `T` tiles, each tile
/// H2D → kernel → D2H, round-robin over the context's streams.
pub struct TunableHbench {
    elems: usize,
    iters: usize,
    /// Input data, generated once; `None` skips filling (sim-only sweeps).
    data: Option<Vec<f32>>,
    /// The kernel body every launch of every tiling shares.
    body: KernelFn,
    /// Per-`T` tiles, allocated on first sight of that `T`.
    tiles: HashMap<usize, Vec<Tile>>,
}

impl TunableHbench {
    /// `fill_seed: Some(_)` generates and writes deterministic inputs (one
    /// vector shared by every tiling) — required for native trials, wasted
    /// work for sim-only sweeps.
    pub fn new(elems: usize, iters: usize, fill_seed: Option<u64>) -> TunableHbench {
        TunableHbench {
            elems,
            iters,
            data: fill_seed.map(|s| util::random_vec(s, elems, -1.0, 1.0)),
            body: hbench::body(iters),
            tiles: HashMap::new(),
        }
    }
}

impl Tunable for TunableHbench {
    fn name(&self) -> &'static str {
        "hbench"
    }

    fn problem(&self) -> String {
        format!("elems={},iters={}", self.elems, self.iters)
    }

    fn overlappable(&self) -> bool {
        true
    }

    fn feasible(&self, t: usize) -> bool {
        t >= 1 && t <= self.elems
    }

    fn record(&mut self, ctx: &mut Context, t: usize) -> Result<()> {
        if !self.tiles.contains_key(&t) {
            let tiles = alloc_tiles(ctx, self.elems, t, self.data.as_deref())?;
            self.tiles.insert(t, tiles);
        }
        let streams = ctx.stream_count();
        for (i, tile) in self.tiles[&t].iter().enumerate() {
            let s = ctx.stream(i % streams)?;
            ctx.h2d(s, tile.a)?;
            ctx.kernel(
                s,
                hbench::kernel_with(
                    format_args!("hbench{i}"),
                    tile.elems,
                    self.iters,
                    &self.body,
                )
                .reading([tile.a])
                .writing([tile.b]),
            )?;
            ctx.d2h(s, tile.b)?;
        }
        Ok(())
    }

    fn pipeline_costs(&self) -> Option<PipelineCosts> {
        Some(PipelineCosts {
            bytes_h2d: (self.elems * 4) as f64,
            bytes_d2h: (self.elems * 4) as f64,
            transfers_per_tile: 2.0,
            kernel_work: self.elems as f64 * self.iters as f64,
            thread_rate: profiles::hbench().thread_rate,
        })
    }
}

// ----- MM -------------------------------------------------------------------

/// Streamed matrix multiplication: `T = tiles_per_dim²` tasks, so only
/// perfect squares whose root divides `n` are feasible.
pub struct TunableMm {
    n: usize,
    fill_seed: Option<u64>,
    built: HashMap<usize, mm::MmBuffers>,
}

impl TunableMm {
    /// See [`TunableHbench::new`] for the `fill_seed` semantics.
    pub fn new(n: usize, fill_seed: Option<u64>) -> TunableMm {
        TunableMm {
            n,
            fill_seed,
            built: HashMap::new(),
        }
    }
}

impl Tunable for TunableMm {
    fn name(&self) -> &'static str {
        "mm"
    }

    fn problem(&self) -> String {
        format!("n={}", self.n)
    }

    fn overlappable(&self) -> bool {
        true
    }

    fn feasible(&self, t: usize) -> bool {
        perfect_sqrt(t).is_some_and(|tpd| tpd >= 1 && self.n.is_multiple_of(tpd))
    }

    fn record(&mut self, ctx: &mut Context, t: usize) -> Result<()> {
        let tpd = perfect_sqrt(t).ok_or_else(|| {
            hstreams::Error::Config(format!("MM task count {t} is not a perfect square"))
        })?;
        let cfg = mm::MmConfig {
            n: self.n,
            tiles_per_dim: tpd,
        };
        if let Some(bufs) = self.built.get(&tpd) {
            return mm::record(ctx, &cfg, bufs);
        }
        let bufs = mm::build(ctx, &cfg)?;
        if let Some(seed) = self.fill_seed {
            mm::fill_inputs(ctx, &cfg, &bufs, seed)?;
        }
        self.built.insert(tpd, bufs);
        Ok(())
    }

    fn pipeline_costs(&self) -> Option<PipelineCosts> {
        let n2 = (self.n * self.n) as f64;
        Some(PipelineCosts {
            // A and B panels up once, C tiles back.
            bytes_h2d: 2.0 * n2 * 4.0,
            bytes_d2h: n2 * 4.0,
            // One C download per tile plus the amortized panel uploads.
            transfers_per_tile: 1.5,
            kernel_work: 2.0 * (self.n as f64).powi(3),
            thread_rate: profiles::mm_gemm().thread_rate,
        })
    }
}

// ----- CF -------------------------------------------------------------------

/// Streamed Cholesky factorization: like MM, `T = tiles_per_dim²` with the
/// root dividing `n` (`T = 1` is the monolithic non-streamed version).
pub struct TunableCf {
    n: usize,
    fill_seed: Option<u64>,
    built: HashMap<usize, cholesky::CfBuffers>,
}

impl TunableCf {
    /// See [`TunableHbench::new`] for the `fill_seed` semantics.
    pub fn new(n: usize, fill_seed: Option<u64>) -> TunableCf {
        TunableCf {
            n,
            fill_seed,
            built: HashMap::new(),
        }
    }
}

impl Tunable for TunableCf {
    fn name(&self) -> &'static str {
        "cf"
    }

    fn problem(&self) -> String {
        format!("n={}", self.n)
    }

    fn overlappable(&self) -> bool {
        true
    }

    fn feasible(&self, t: usize) -> bool {
        perfect_sqrt(t).is_some_and(|tpd| tpd >= 1 && self.n.is_multiple_of(tpd))
    }

    fn record(&mut self, ctx: &mut Context, t: usize) -> Result<()> {
        let tpd = perfect_sqrt(t).ok_or_else(|| {
            hstreams::Error::Config(format!("CF task count {t} is not a perfect square"))
        })?;
        let cfg = cholesky::CfConfig {
            n: self.n,
            tiles_per_dim: tpd,
        };
        if let Some(bufs) = self.built.get(&tpd) {
            return cholesky::record(ctx, &cfg, bufs);
        }
        let bufs = cholesky::build(ctx, &cfg)?;
        if let Some(seed) = self.fill_seed {
            cholesky::fill_inputs(ctx, &cfg, &bufs, seed)?;
        }
        self.built.insert(tpd, bufs);
        Ok(())
    }

    fn pipeline_costs(&self) -> Option<PipelineCosts> {
        // CF is a dependent task graph (per-step POTRF → TRSM → update
        // chains with host round trips), not a linear tile pipeline: the
        // model's independent-tile assumption ranks its lookahead-hungry
        // optimum near the back. Decline, so model seeding falls back to
        // the pruned order.
        None
    }
}

// ----- NN -------------------------------------------------------------------

/// Streamed nearest-neighbor distance pass: `T` record tiles, each H2D →
/// distance kernel → D2H (transfer-bound, Fig. 9(e)).
pub struct TunableNn {
    records: usize,
    k: usize,
    target: (f32, f32),
    fill_seed: Option<u64>,
    built: HashMap<usize, nn::NnBuffers>,
}

impl TunableNn {
    /// See [`TunableHbench::new`] for the `fill_seed` semantics.
    pub fn new(records: usize, fill_seed: Option<u64>) -> TunableNn {
        TunableNn {
            records,
            k: 10,
            target: (40.0, 120.0),
            fill_seed,
            built: HashMap::new(),
        }
    }

    fn cfg(&self, tiles: usize) -> nn::NnConfig {
        nn::NnConfig {
            records: self.records,
            tiles,
            k: self.k,
            target: self.target,
        }
    }
}

impl Tunable for TunableNn {
    fn name(&self) -> &'static str {
        "nn"
    }

    fn problem(&self) -> String {
        format!("records={}", self.records)
    }

    fn overlappable(&self) -> bool {
        true
    }

    fn feasible(&self, t: usize) -> bool {
        t >= 1 && t <= self.records
    }

    fn record(&mut self, ctx: &mut Context, t: usize) -> Result<()> {
        let cfg = self.cfg(t);
        if let Some(bufs) = self.built.get(&t) {
            return nn::record(ctx, &cfg, bufs);
        }
        let bufs = nn::build(ctx, &cfg)?;
        if let Some(seed) = self.fill_seed {
            nn::fill_inputs(ctx, &cfg, &bufs, seed)?;
        }
        self.built.insert(t, bufs);
        Ok(())
    }

    fn pipeline_costs(&self) -> Option<PipelineCosts> {
        Some(PipelineCosts {
            bytes_h2d: (self.records * 2 * 4) as f64,
            bytes_d2h: (self.records * 4) as f64,
            transfers_per_tile: 2.0,
            kernel_work: self.records as f64,
            thread_rate: profiles::nn_distance().thread_rate,
        })
    }
}

// ----- Kmeans ---------------------------------------------------------------

/// Streamed Kmeans: `T` point tiles per Lloyd iteration, barrier-separated
/// phases — the paper's non-overlappable class, so no pipeline costs; its
/// tuning payoff is the Sec. V-B1 allocation-overhead collapse at high `P`.
pub struct TunableKmeans {
    points: usize,
    dims: usize,
    k: usize,
    iterations: usize,
    fill_seed: Option<u64>,
    built: HashMap<usize, kmeans::KmeansBuffers>,
}

impl TunableKmeans {
    /// See [`TunableHbench::new`] for the `fill_seed` semantics.
    pub fn new(points: usize, dims: usize, iterations: usize, fill_seed: Option<u64>) -> Self {
        TunableKmeans {
            points,
            dims,
            k: 8,
            iterations,
            fill_seed,
            built: HashMap::new(),
        }
    }

    fn cfg(&self, tiles: usize) -> kmeans::KmeansConfig {
        kmeans::KmeansConfig {
            points: self.points,
            dims: self.dims,
            k: self.k,
            iterations: self.iterations,
            tiles,
            alloc_micros: 5,
        }
    }
}

impl Tunable for TunableKmeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn problem(&self) -> String {
        format!(
            "points={},dims={},iters={}",
            self.points, self.dims, self.iterations
        )
    }

    fn overlappable(&self) -> bool {
        false
    }

    fn feasible(&self, t: usize) -> bool {
        t >= 1 && t <= self.points
    }

    fn record(&mut self, ctx: &mut Context, t: usize) -> Result<()> {
        let cfg = self.cfg(t);
        if let Some(bufs) = self.built.get(&t) {
            return kmeans::record(ctx, &cfg, bufs);
        }
        let bufs = kmeans::build(ctx, &cfg)?;
        if let Some(seed) = self.fill_seed {
            kmeans::fill_inputs(ctx, &cfg, &bufs, seed)?;
        }
        self.built.insert(t, bufs);
        Ok(())
    }

    fn pipeline_costs(&self) -> Option<PipelineCosts> {
        None
    }
}

// ----- partition microbenchmark ---------------------------------------------

/// The Fig. 7 kernels-only microbenchmark as a tunable: `elems` elements
/// split into `T` resident blocks, one kernel each, **no transfers** — so
/// nothing can overlap and the cost landscape over `P` exposes the paper's
/// U-shape, with `(P, T) = (1, 1)` being exactly the non-tiled `ref`
/// configuration.
pub struct TunablePartitionMicro {
    elems: usize,
    iters: usize,
    body: KernelFn,
    tiles: HashMap<usize, Vec<Tile>>,
}

impl TunablePartitionMicro {
    /// Kernels-only, nothing to fill: inputs are never transferred.
    pub fn new(elems: usize, iters: usize) -> TunablePartitionMicro {
        TunablePartitionMicro {
            elems,
            iters,
            body: hbench::body(iters),
            tiles: HashMap::new(),
        }
    }
}

impl Tunable for TunablePartitionMicro {
    fn name(&self) -> &'static str {
        "partition_micro"
    }

    fn problem(&self) -> String {
        format!("elems={},iters={}", self.elems, self.iters)
    }

    fn overlappable(&self) -> bool {
        false
    }

    fn feasible(&self, t: usize) -> bool {
        t >= 1 && t <= self.elems
    }

    fn record(&mut self, ctx: &mut Context, t: usize) -> Result<()> {
        if !self.tiles.contains_key(&t) {
            let tiles = alloc_tiles(ctx, self.elems, t, None)?;
            self.tiles.insert(t, tiles);
        }
        let streams = ctx.stream_count();
        for (i, tile) in self.tiles[&t].iter().enumerate() {
            let s = ctx.stream(i % streams)?;
            ctx.kernel(
                s,
                hbench::kernel_with(format_args!("k{i}"), tile.elems, self.iters, &self.body)
                    .reading([tile.a])
                    .writing([tile.b]),
            )?;
        }
        Ok(())
    }

    fn pipeline_costs(&self) -> Option<PipelineCosts> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micsim::PlatformConfig;

    fn ctx(p: usize) -> Context {
        Context::builder(PlatformConfig::phi_31sp())
            .partitions(p)
            .build()
            .unwrap()
    }

    #[test]
    fn square_feasibility_for_mm_and_cf() {
        let m = TunableMm::new(96, None);
        assert!(m.feasible(1) && m.feasible(4) && m.feasible(16) && m.feasible(64));
        assert!(!m.feasible(2), "2 is not a perfect square");
        assert!(!m.feasible(25), "5 does not divide 96");
        let c = TunableCf::new(96, None);
        assert!(c.feasible(9) && !c.feasible(8));
    }

    #[test]
    fn buffers_allocated_once_per_tiling() {
        let mut app = TunableHbench::new(1 << 10, 4, None);
        let mut c = ctx(2);
        app.record(&mut c, 4).unwrap();
        let after_first = c.buffer_count();
        assert_eq!(after_first, 8, "4 tiles x (A, B)");
        // Same T again: re-record without allocating.
        c.replan(4).unwrap();
        app.record(&mut c, 4).unwrap();
        assert_eq!(c.buffer_count(), after_first);
        // New T: allocates its own tile set.
        c.replan(2).unwrap();
        app.record(&mut c, 2).unwrap();
        assert_eq!(c.buffer_count(), after_first + 4);
    }

    #[test]
    fn recorded_trial_runs_on_sim_and_native() {
        let mut app = TunableHbench::new(1 << 10, 4, Some(7));
        let mut c = ctx(2);
        app.record(&mut c, 4).unwrap();
        assert!(c.run_sim().unwrap().makespan().nanos() > 0);
        c.run_native().unwrap();
        // Output of the last tile is input + alpha*iters.
        let out = c.read_host(app.tiles[&4][3].b).unwrap();
        let a_in = &app.data.as_ref().unwrap()[3 * 256..4 * 256];
        for (o, i) in out.iter().zip(a_in) {
            assert!((o - (i + hbench::ALPHA * 4.0)).abs() < 1e-4);
        }
    }

    #[test]
    fn mm_tunable_reuses_buffers_across_replans() {
        let mut app = TunableMm::new(32, Some(3));
        let mut c = ctx(1);
        app.record(&mut c, 4).unwrap();
        let n_bufs = c.buffer_count();
        let sim_p1 = c.run_sim().unwrap().makespan();
        c.replan(4).unwrap();
        app.record(&mut c, 4).unwrap();
        assert_eq!(c.buffer_count(), n_bufs, "replan must not reallocate");
        let sim_p4 = c.run_sim().unwrap().makespan();
        assert_ne!(sim_p1, sim_p4, "geometry change must reprice the program");
    }

    #[test]
    fn kmeans_not_overlappable_and_modelless() {
        let app = TunableKmeans::new(1024, 8, 2, None);
        assert!(!app.overlappable());
        assert!(app.pipeline_costs().is_none());
        assert!(TunableHbench::new(64, 1, None).pipeline_costs().is_some());
    }
}
