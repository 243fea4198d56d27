//! `(T, P)`-tunable program builders — the autotuner's view of the apps.
//!
//! A [`Tunable`] wraps one application at one problem size and knows how to
//! record its streamed program for any task count `T` against a context
//! whose partition count `P` was already set (via
//! [`Context::replan`](hstreams::context::Context::replan)). It records
//! nothing itself: each one calls its app module's builders (`mm::build` and
//! `mm::record`, `hbench::record_tiles`, …), so a trial records exactly the
//! program the figures simulate. Buffers for a given `T` are allocated —
//! and, when a fill seed is supplied, filled — exactly once, by the one
//! per-tiling cache every tunable records through, and then reused across
//! trials, so a tuning sweep pays the allocation and input generation cost
//! per *tiling*, not per *trial*.
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
use hstreams::types::Result;

use crate::hbench::{self, Tile};
use crate::{cholesky, kmeans, mm, nn, profiles, util};

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

/// Tiles per dimension of an MM or CF task count `t`: its square root, if
/// `t` is a perfect square whose root divides `n`.
fn tiles_per_dim(n: usize, t: usize) -> Option<usize> {
    let r = (t as f64).sqrt().round() as usize;
    (r >= 1 && r * r == t && n.is_multiple_of(r)).then_some(r)
}

/// The per-tiling cache every tunable records through. The first record
/// of tiling `key` calls `build`, which allocates, records and (given a
/// seed) fills it, and keeps the buffers it returns; every later one calls
/// `record` against them.
fn record_cached<B>(
    built: &mut HashMap<usize, B>,
    key: usize,
    ctx: &mut Context,
    build: impl FnOnce(&mut Context) -> Result<B>,
    record: impl FnOnce(&mut Context, &B) -> Result<()>,
) -> Result<()> {
    if let Some(bufs) = built.get(&key) {
        return record(ctx, bufs);
    }
    built.insert(key, build(ctx)?);
    Ok(())
}

/// [`tiles_per_dim`], or the error of an infeasible MM or CF task count.
fn square_tiling(app: &str, n: usize, t: usize) -> Result<usize> {
    tiles_per_dim(n, t)
        .ok_or_else(|| hstreams::Error::Config(format!("{app} task count {t} does not tile n={n}")))
}

// ----- hBench ---------------------------------------------------------------

/// An hBench pipeline over `elems` elements cut into `T` tiles, recorded by
/// `hbench::record_tiles`: the state [`TunableHbench`] and
/// [`TunablePartitionMicro`] share.
struct Pipeline {
    elems: usize,
    iters: usize,
    /// H2D → kernel → D2H per tile (Fig. 6), or kernels only (Fig. 7).
    transfers: bool,
    /// Input data, generated once; `None` skips filling (sim-only sweeps).
    data: Option<Vec<f32>>,
    /// The kernel body every launch of every tiling shares.
    body: KernelFn,
    /// Per-`T` tiles, allocated on first sight of that `T`.
    tiles: HashMap<usize, Vec<Tile>>,
}

impl Pipeline {
    fn new(elems: usize, iters: usize, transfers: bool, fill_seed: Option<u64>) -> Pipeline {
        Pipeline {
            elems,
            iters,
            transfers,
            data: fill_seed.map(|s| util::random_vec(s, elems, -1.0, 1.0)),
            body: hbench::body(iters),
            tiles: HashMap::new(),
        }
    }

    fn problem(&self) -> String {
        format!("elems={},iters={}", self.elems, self.iters)
    }

    fn feasible(&self, t: usize) -> bool {
        t >= 1 && t <= self.elems
    }

    /// Tiles `A{t}_{i}`/`B{t}_{i}` of `t`'s tiling, filled from `data`.
    fn record(&mut self, ctx: &mut Context, t: usize) -> Result<()> {
        let (elems, data) = (self.elems, self.data.as_deref());
        let record = |ctx: &mut Context, tiles: &Vec<Tile>| {
            hbench::record_tiles(ctx, tiles, self.iters, &self.body, self.transfers)
        };
        let build = |ctx: &mut Context| {
            let lens = util::split_ranges(elems, t).into_iter().map(|r| r.len());
            let tiles = hbench::alloc_tiles(ctx, &format_args!("{t}_"), lens, data)?;
            record(ctx, &tiles)?;
            Ok(tiles)
        };
        record_cached(&mut self.tiles, t, ctx, build, record)
    }
}

/// The paper's microbenchmark pipeline (`B[i] = A[i] + α`, Fig. 6
/// `Streamed` variant): `elems` elements split into `T` tiles, each tile
/// H2D → kernel → D2H, round-robin over the context's streams.
pub struct TunableHbench(Pipeline);

impl TunableHbench {
    /// `fill_seed: Some(_)` generates and writes deterministic inputs (one
    /// vector shared by every tiling) — required for native trials, wasted
    /// work for sim-only sweeps.
    pub fn new(elems: usize, iters: usize, fill_seed: Option<u64>) -> TunableHbench {
        TunableHbench(Pipeline::new(elems, iters, true, fill_seed))
    }
}

impl Tunable for TunableHbench {
    fn name(&self) -> &'static str {
        "hbench"
    }

    fn problem(&self) -> String {
        self.0.problem()
    }

    fn overlappable(&self) -> bool {
        true
    }

    fn feasible(&self, t: usize) -> bool {
        self.0.feasible(t)
    }

    fn record(&mut self, ctx: &mut Context, t: usize) -> Result<()> {
        self.0.record(ctx, t)
    }

    fn pipeline_costs(&self) -> Option<PipelineCosts> {
        let (elems, iters) = (self.0.elems, self.0.iters);
        Some(PipelineCosts {
            bytes_h2d: (elems * 4) as f64,
            bytes_d2h: (elems * 4) as f64,
            transfers_per_tile: 2.0,
            kernel_work: elems as f64 * iters as f64,
            thread_rate: profiles::hbench().thread_rate,
        })
    }
}

/// The Fig. 7 kernels-only microbenchmark as a tunable: `elems` elements
/// split into `T` resident blocks, one kernel each, **no transfers** — so
/// nothing can overlap and the cost landscape over `P` exposes the paper's
/// U-shape, with `(P, T) = (1, 1)` being exactly the non-tiled `ref`
/// configuration.
pub struct TunablePartitionMicro(Pipeline);

impl TunablePartitionMicro {
    /// Kernels-only, nothing to fill: inputs are never transferred.
    pub fn new(elems: usize, iters: usize) -> TunablePartitionMicro {
        TunablePartitionMicro(Pipeline::new(elems, iters, false, None))
    }
}

impl Tunable for TunablePartitionMicro {
    fn name(&self) -> &'static str {
        "partition_micro"
    }

    fn problem(&self) -> String {
        self.0.problem()
    }

    fn overlappable(&self) -> bool {
        false
    }

    fn feasible(&self, t: usize) -> bool {
        self.0.feasible(t)
    }

    fn record(&mut self, ctx: &mut Context, t: usize) -> Result<()> {
        self.0.record(ctx, t)
    }

    fn pipeline_costs(&self) -> Option<PipelineCosts> {
        None
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
        tiles_per_dim(self.n, t).is_some()
    }

    fn record(&mut self, ctx: &mut Context, t: usize) -> Result<()> {
        let tiles_per_dim = square_tiling("MM", self.n, t)?;
        let cfg = mm::MmConfig {
            n: self.n,
            tiles_per_dim,
        };
        let seed = self.fill_seed;
        let build = |ctx: &mut Context| {
            let bufs = mm::build(ctx, &cfg)?;
            if let Some(seed) = seed {
                mm::fill_inputs(ctx, &cfg, &bufs, seed)?;
            }
            Ok(bufs)
        };
        record_cached(&mut self.built, tiles_per_dim, ctx, build, |ctx, bufs| {
            mm::record(ctx, &cfg, bufs)
        })
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
        tiles_per_dim(self.n, t).is_some()
    }

    fn record(&mut self, ctx: &mut Context, t: usize) -> Result<()> {
        let tiles_per_dim = square_tiling("CF", self.n, t)?;
        let cfg = cholesky::CfConfig {
            n: self.n,
            tiles_per_dim,
        };
        let seed = self.fill_seed;
        let build = |ctx: &mut Context| {
            let bufs = cholesky::build(ctx, &cfg)?;
            if let Some(seed) = seed {
                cholesky::fill_inputs(ctx, &cfg, &bufs, seed)?;
            }
            Ok(bufs)
        };
        record_cached(&mut self.built, tiles_per_dim, ctx, build, |ctx, bufs| {
            cholesky::record(ctx, &cfg, bufs)
        })
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
    /// [`nn::NnConfig::paper_fig9`] at this problem size; `tiles` is set
    /// per record.
    cfg: nn::NnConfig,
    fill_seed: Option<u64>,
    built: HashMap<usize, nn::NnBuffers>,
}

impl TunableNn {
    /// See [`TunableHbench::new`] for the `fill_seed` semantics.
    pub fn new(records: usize, fill_seed: Option<u64>) -> TunableNn {
        TunableNn {
            cfg: nn::NnConfig {
                records,
                ..nn::NnConfig::paper_fig9()
            },
            fill_seed,
            built: HashMap::new(),
        }
    }
}

impl Tunable for TunableNn {
    fn name(&self) -> &'static str {
        "nn"
    }

    fn problem(&self) -> String {
        format!("records={}", self.cfg.records)
    }

    fn overlappable(&self) -> bool {
        true
    }

    fn feasible(&self, t: usize) -> bool {
        t >= 1 && t <= self.cfg.records
    }

    fn record(&mut self, ctx: &mut Context, t: usize) -> Result<()> {
        let cfg = nn::NnConfig {
            tiles: t,
            ..self.cfg
        };
        let seed = self.fill_seed;
        let build = |ctx: &mut Context| {
            let bufs = nn::build(ctx, &cfg)?;
            if let Some(seed) = seed {
                nn::fill_inputs(ctx, &cfg, &bufs, seed)?;
            }
            Ok(bufs)
        };
        record_cached(&mut self.built, t, ctx, build, |ctx, bufs| {
            nn::record(ctx, &cfg, bufs)
        })
    }

    fn pipeline_costs(&self) -> Option<PipelineCosts> {
        let records = self.cfg.records;
        Some(PipelineCosts {
            bytes_h2d: (records * 2 * 4) as f64,
            bytes_d2h: (records * 4) as f64,
            transfers_per_tile: 2.0,
            kernel_work: records as f64,
            thread_rate: profiles::nn_distance().thread_rate,
        })
    }
}

// ----- Kmeans ---------------------------------------------------------------

/// Streamed Kmeans: `T` point tiles per Lloyd iteration, barrier-separated
/// phases — the paper's non-overlappable class, so no pipeline costs; its
/// tuning payoff is the Sec. V-B1 allocation-overhead collapse at high `P`.
pub struct TunableKmeans {
    /// [`kmeans::KmeansConfig::paper_fig9`] at this problem size; `tiles`
    /// is set per record.
    cfg: kmeans::KmeansConfig,
    fill_seed: Option<u64>,
    built: HashMap<usize, kmeans::KmeansBuffers>,
}

impl TunableKmeans {
    /// See [`TunableHbench::new`] for the `fill_seed` semantics.
    pub fn new(points: usize, dims: usize, iterations: usize, fill_seed: Option<u64>) -> Self {
        TunableKmeans {
            cfg: kmeans::KmeansConfig {
                points,
                dims,
                iterations,
                ..kmeans::KmeansConfig::paper_fig9()
            },
            fill_seed,
            built: HashMap::new(),
        }
    }
}

impl Tunable for TunableKmeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn problem(&self) -> String {
        let cfg = &self.cfg;
        format!(
            "points={},dims={},iters={}",
            cfg.points, cfg.dims, cfg.iterations
        )
    }

    fn overlappable(&self) -> bool {
        false
    }

    fn feasible(&self, t: usize) -> bool {
        t >= 1 && t <= self.cfg.points
    }

    fn record(&mut self, ctx: &mut Context, t: usize) -> Result<()> {
        let cfg = kmeans::KmeansConfig {
            tiles: t,
            ..self.cfg
        };
        let seed = self.fill_seed;
        let build = |ctx: &mut Context| {
            let bufs = kmeans::build(ctx, &cfg)?;
            if let Some(seed) = seed {
                kmeans::fill_inputs(ctx, &cfg, &bufs, seed)?;
            }
            Ok(bufs)
        };
        record_cached(&mut self.built, t, ctx, build, |ctx, bufs| {
            kmeans::record(ctx, &cfg, bufs)
        })
    }

    fn pipeline_costs(&self) -> Option<PipelineCosts> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hstreams::testutil::{access_table, work_fingerprint};
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
        let out = c.read_host(app.0.tiles[&4][3].b).unwrap();
        let a_in = &app.0.data.as_ref().unwrap()[3 * 256..4 * 256];
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

    /// Everything a recorded program is made of: every access with its
    /// site, the work's labels, the events table, the barrier count and
    /// the stream placements.
    fn recording(c: &Context) -> impl PartialEq + std::fmt::Debug {
        let p = c.program();
        let placements: Vec<_> = p.streams.iter().map(|s| s.placement).collect();
        (
            access_table(p),
            work_fingerprint(p),
            p.events.clone(),
            p.barriers,
            placements,
        )
    }

    #[test]
    fn a_warm_re_record_equals_the_cold_build() {
        type App = fn() -> Box<dyn Tunable>;
        let apps: [(App, [usize; 2]); 6] = [
            (|| Box::new(TunableHbench::new(1 << 10, 2, Some(1))), [4, 8]),
            (|| Box::new(TunableMm::new(24, Some(2))), [4, 9]),
            (|| Box::new(TunableCf::new(24, Some(3))), [4, 9]),
            (|| Box::new(TunableNn::new(256, Some(4))), [4, 8]),
            (|| Box::new(TunableKmeans::new(128, 4, 2, Some(5))), [4, 8]),
            (|| Box::new(TunablePartitionMicro::new(1 << 10, 2)), [4, 8]),
        ];
        for (make, tilings) in apps {
            for (p, other) in [(2, 4), (4, 2)] {
                let mut app = make();
                let mut c = ctx(p);
                let cold: Vec<_> = tilings
                    .iter()
                    .map(|&t| {
                        c.replan(p).unwrap();
                        app.record(&mut c, t).unwrap();
                        recording(&c)
                    })
                    .collect();
                let built = c.buffer_count();
                for (&t, cold) in tilings.iter().zip(&cold) {
                    c.replan(other).unwrap();
                    app.record(&mut c, t).unwrap();
                    c.replan(p).unwrap();
                    app.record(&mut c, t).unwrap();
                    let name = app.name();
                    assert_eq!(recording(&c), *cold, "{name} T={t} P={p}: warm vs cold");
                    assert_eq!(c.buffer_count(), built, "{name} T={t} P={p}");
                }
            }
        }
    }

    #[test]
    fn kmeans_not_overlappable_and_modelless() {
        let app = TunableKmeans::new(1024, 8, 2, None);
        assert!(!app.overlappable());
        assert!(app.pipeline_costs().is_none());
        assert!(TunableHbench::new(64, 1, None).pipeline_costs().is_some());
    }
}
