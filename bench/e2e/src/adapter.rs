//! The one file through which the benchmark calls the repository.
//!
//! Everything else in this crate names only the types and functions defined
//! here, so the public surface the frozen benchmark depends on is exactly
//! what this file imports (listed in the README). A later API change — the
//! ROADMAP's collapse of `Context`'s entry points, for one — is absorbed
//! here, and the workloads, their op definitions and their metrics stay as
//! they are.
//!
//! The wrappers add no behaviour: each forwards to one public item, or to
//! the short fixed sequence of them an op is defined as. Where a sequence is
//! timed piecewise, the caller passes the [`Tracer`] and the spans are
//! recorded here, around each public call.

use hstreams::action::Action;
use hstreams::context::Context;
use hstreams::executor::native::{NativeConfig, NativeReport};
use hstreams::lease::TenantId;
use hstreams::program::Program;
use hstreams::sched::SchedulerKind;
use hstreams::types::{BufId, EventId, StreamId};
use mic_apps::cholesky::{self, CfBuffers, CfConfig};
use mic_apps::hbench::{self, OverlapVariant};
use mic_apps::tunable::{Tunable, TunableCf, TunableHbench, TunableKmeans, TunableMm, TunableNn};
use mic_apps::workload;
use micsim::device::DeviceId;
use micsim::PlatformConfig;
use stream_serve::{
    merge, plan_bases, relocate, Admission, JobStatus, ServeConfig, StreamService, TenantMap,
    TenantProgram,
};
use stream_tune::evaluator::{Evaluator, Measurement, SimEvaluator};
use stream_tune::tuner::{RepeatPolicy, Strategy, Tuner};
use stream_tune::TuneBounds;

use crate::span::Tracer;

/// The platform every context is planned on: the paper's Xeon Phi 31SP.
fn platform() -> PlatformConfig {
    PlatformConfig::phi_31sp()
}

// ----- native contexts ------------------------------------------------------

/// Partitions of every native context the benchmark builds. Fixed, with one
/// kernel thread per partition, so kernel geometry never depends on the
/// host's core count.
pub const NATIVE_PARTITIONS: usize = 2;

pub type Buf = BufId;
pub type Stream = StreamId;
pub type Event = EventId;

/// A native context plus the two run configurations the benchmark uses.
pub struct Native {
    ctx: Context,
    plain: NativeConfig,
    traced: NativeConfig,
}

/// What one native run reported. The `Option`al part exists only for traced
/// runs; it is read from `NativeReport.trace`.
pub struct RunStats {
    pub bytes: u64,
    pub layers: Option<RunLayers>,
}

/// Layer times of one traced run, from the runtime's own timeline.
pub struct RunLayers {
    /// Σ of kernel spans (device partitions and the host lane), µs.
    pub kernel_us: f64,
    /// Σ of copy-engine spans, µs.
    pub copy_us: f64,
    /// Length of the union of all of them, µs.
    pub busy_union_us: f64,
    /// Mean dispatch-to-body time of the run's kernel launches, µs.
    pub launch_overhead_us: f64,
    /// Mean time a transfer sat queued before the engine took it, µs.
    pub queue_wait_us: f64,
    /// Mean idle share of the partitions over the run.
    pub partition_idle_frac: f64,
}

impl Native {
    /// `P = 2` partitions, one stream each, one kernel thread per partition.
    pub fn new() -> Native {
        Native::with_partitions(NATIVE_PARTITIONS)
    }

    fn with_partitions(partitions: usize) -> Native {
        let ctx = Context::builder(platform())
            .partitions(partitions)
            .build()
            .expect("the 31SP splits into this many partitions");
        let plain = NativeConfig {
            max_threads_per_partition: Some(1),
            ..NativeConfig::default()
        };
        let traced = NativeConfig {
            trace: true,
            metrics: true,
            ..plain.clone()
        };
        Native { ctx, plain, traced }
    }

    pub fn alloc(&mut self, name: String, len: usize) -> Buf {
        self.ctx.alloc(name, len)
    }

    pub fn write(&self, buf: Buf, data: &[f32]) {
        self.ctx
            .write_host(buf, data)
            .expect("buffer and length match");
    }

    pub fn read(&self, buf: Buf) -> Vec<f32> {
        self.ctx.read_host(buf).expect("buffer exists")
    }

    pub fn stream(&self, idx: usize) -> Stream {
        self.ctx.stream(idx).expect("stream index inside the plan")
    }

    pub fn stream_count(&self) -> usize {
        self.ctx.stream_count()
    }

    pub fn reset_program(&mut self) {
        self.ctx.reset_program();
    }

    pub fn h2d(&mut self, s: Stream, b: Buf) {
        self.ctx.h2d(s, b).expect("valid handles");
    }

    pub fn d2h(&mut self, s: Stream, b: Buf) {
        self.ctx.d2h(s, b).expect("valid handles");
    }

    /// Enqueue the hBench kernel (`out = in + α`, `iters` times).
    pub fn hbench_kernel(
        &mut self,
        s: Stream,
        label: String,
        input: Buf,
        out: Buf,
        elems: usize,
        iters: usize,
    ) {
        let k = hbench::kernel(label, elems, iters)
            .reading([input])
            .writing([out]);
        self.ctx.kernel(s, k).expect("valid handles");
    }

    pub fn record_event(&mut self, s: Stream) -> Event {
        self.ctx.record_event(s).expect("valid stream")
    }

    pub fn wait_event(&mut self, s: Stream, e: Event) {
        self.ctx
            .wait_event(s, e)
            .expect("event recorded on another stream");
    }

    pub fn barrier(&mut self) {
        self.ctx.barrier();
    }

    /// Recorded actions, synchronisation included (`NativeReport` counts
    /// only the transfers and kernels it executed).
    pub fn action_count(&self) -> usize {
        self.ctx.program().action_count()
    }

    /// Run the recorded program natively.
    ///
    /// # Errors
    /// The runtime's error text (analyzer refusal, kernel panic).
    pub fn run(&self, traced: bool) -> Result<RunStats, String> {
        let cfg = if traced { &self.traced } else { &self.plain };
        let report = self.ctx.run_native_with(cfg).map_err(|e| e.to_string())?;
        Ok(run_stats(&report))
    }

    /// `Context::analyze` on the recorded program; true when clean.
    pub fn analyze(&self) -> bool {
        self.ctx.analyze().report.is_clean()
    }

    /// Hidden-transfer fraction of the recorded program on the simulated
    /// 31SP — the paper's overlap, which one vCPU cannot show natively.
    pub fn sim_hidden_frac(&self) -> f64 {
        let report = self.ctx.run_sim().expect("recorded program simulates");
        report.overlap().hidden_fraction()
    }
}

fn run_stats(report: &NativeReport) -> RunStats {
    let layers = report.trace.as_ref().map(|trace| {
        let sum_on = |lanes: &[micsim::ResourceId]| -> f64 {
            trace
                .timeline
                .records
                .iter()
                .filter(|r| r.resource.is_some_and(|res| lanes.contains(&res)))
                .map(|r| r.finish.since(r.start).as_micros_f64())
                .sum()
        };
        let overlap = trace.overlap();
        let union =
            overlap.link_busy.nanos() + overlap.compute_busy.nanos() - overlap.overlap.nanos();
        let c = &trace.counters;
        let transfers = trace
            .timeline
            .records
            .iter()
            .filter(|r| {
                r.resource
                    .is_some_and(|res| trace.kinds.links.contains(&res))
            })
            .count();
        let queue_wait: f64 = c.queue_wait.iter().map(|d| d.as_secs_f64() * 1e6).sum();
        let parts = trace.partition_stats();
        RunLayers {
            kernel_us: sum_on(&trace.kinds.partitions),
            copy_us: sum_on(&trace.kinds.links),
            busy_union_us: union as f64 / 1e3,
            launch_overhead_us: c.launch_overhead.mean_ns() / 1e3,
            queue_wait_us: queue_wait / transfers.max(1) as f64,
            partition_idle_frac: parts.iter().map(|p| p.idle_fraction).sum::<f64>()
                / parts.len().max(1) as f64,
        }
    });
    RunStats {
        bytes: report.bytes_transferred,
        layers,
    }
}

// ----- tiled Cholesky -------------------------------------------------------

/// The CF problem and its tile buffers inside a [`Native`] context.
pub struct Cf {
    cfg: CfConfig,
    bufs: CfBuffers,
}

impl Cf {
    /// Allocate the tile buffers (`cholesky::build`), leaving no program
    /// recorded.
    pub fn build(native: &mut Native, n: usize, tiles_per_dim: usize) -> Cf {
        let cfg = CfConfig { n, tiles_per_dim };
        let bufs = cholesky::build(&mut native.ctx, &cfg).expect("tiles divide n");
        native.ctx.reset_program();
        Cf { cfg, bufs }
    }

    pub fn n(&self) -> usize {
        self.cfg.n
    }

    pub fn flops(&self) -> f64 {
        self.cfg.flops()
    }

    /// Lower-triangle tile buffers, row-major over `(i, j)`, `j <= i`.
    pub fn tiles(&self) -> &[Buf] {
        &self.bufs.tiles
    }

    /// `cholesky::record`.
    pub fn record(&self, native: &mut Native) {
        cholesky::record(&mut native.ctx, &self.cfg, &self.bufs).expect("records");
    }

    /// `cholesky::fill_inputs`: write a seeded SPD matrix into the tiles
    /// and return it in full.
    pub fn fill(&self, native: &Native, seed: u64) -> Vec<f32> {
        cholesky::fill_inputs(&native.ctx, &self.cfg, &self.bufs, seed).expect("fills")
    }

    /// `cholesky::collect_result`.
    pub fn collect(&self, native: &Native) -> Vec<f32> {
        cholesky::collect_result(&native.ctx, &self.cfg, &self.bufs).expect("collects")
    }
}

/// `cholesky::reference`: the serial factorization outputs are checked
/// against.
pub fn cf_reference(a: &[f32], n: usize) -> Vec<f32> {
    cholesky::reference(a, n)
}

/// The α the hBench kernel adds (`hbench::ALPHA`).
pub const HBENCH_ALPHA: f32 = hbench::ALPHA;

// ----- standalone native probes ---------------------------------------------

/// One native run of `buffers` H2D transfers of `elems` elements each on one
/// stream; returns `(wall µs, bytes moved)`.
pub fn probe_h2d(buffers: usize, elems: usize, reps: usize) -> Vec<(f64, u64)> {
    let mut native = Native::with_partitions(1);
    let s = native.stream(0);
    for i in 0..buffers {
        let b = native.alloc(format!("x{i}"), elems);
        native.h2d(s, b);
    }
    (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let stats = native.run(false).expect("probe runs");
            (t0.elapsed().as_secs_f64() * 1e6, stats.bytes)
        })
        .collect()
}

/// The paper's streamed hBench (`hbench::overlap_program`, `Streamed`) run
/// natively with the runtime's trace on; returns per rep
/// `(copy-engine busy µs, bytes moved)`.
pub fn probe_streamed_copy(elems: usize, tiles: usize, reps: usize) -> Vec<(f64, u64)> {
    let ctx = hbench::overlap_program(
        platform(),
        elems,
        1,
        NATIVE_PARTITIONS,
        OverlapVariant::Streamed { tiles },
    )
    .expect("builds");
    let cfg = NativeConfig {
        max_threads_per_partition: Some(1),
        trace: true,
        ..NativeConfig::default()
    };
    (0..reps)
        .map(|_| {
            let report = ctx.run_native_with(&cfg).expect("probe runs");
            let stats = run_stats(&report);
            (stats.layers.expect("traced").copy_us, stats.bytes)
        })
        .collect()
}

// ----- serving --------------------------------------------------------------

/// A captured, relocatable job payload (`TenantProgram`).
#[derive(Clone)]
pub struct Payload(TenantProgram);

impl Payload {
    pub fn name(&self) -> &str {
        &self.0.workload
    }

    pub fn actions(&self) -> usize {
        self.0.program.action_count()
    }

    /// Bytes the payload's transfers move.
    pub fn transfer_bytes(&self) -> u64 {
        program_transfer_bytes(&self.0.program, |b| self.0.buffers[b.0].len as u64 * 4)
    }
}

/// Each `h2d`/`d2h` moves its whole buffer.
fn program_transfer_bytes(program: &Program, bytes_of: impl Fn(BufId) -> u64) -> u64 {
    program
        .streams
        .iter()
        .flat_map(|s| &s.actions)
        .map(|a| match a {
            Action::Transfer { buf, .. } => bytes_of(*buf),
            _ => 0,
        })
        .sum()
}

/// Capture the six `workload::catalog(seed)` apps, timing each
/// `TenantProgram::capture` as a `serve.capture` span.
pub fn capture_catalog(seed: u64, t: &mut Tracer) -> Vec<Payload> {
    let p = platform();
    workload::catalog(seed)
        .iter_mut()
        .map(|w| {
            t.time("serve.capture", || {
                Payload(TenantProgram::capture(w, &p).expect("captures"))
            })
        })
        .collect()
}

/// Capture one `workload::synthetic(name, seed, lanes)` tenant.
pub fn capture_synthetic(name: String, seed: u64, lanes: usize, t: &mut Tracer) -> Payload {
    let mut w = workload::synthetic(name, seed, lanes);
    t.time("serve.capture", || {
        Payload(TenantProgram::capture(&mut w, &platform()).expect("captures"))
    })
}

pub struct Service(StreamService);

/// One dispatched job's end: its outputs, or `None` when the round degraded
/// it (requeued by the service).
pub struct Outcome {
    pub id: u64,
    pub outputs: Option<Vec<Vec<f32>>>,
    /// Submit-to-completion on the service's own clock, seconds.
    pub service_latency_s: f64,
}

pub struct Round {
    /// `RoundReport.duration`: the merged program's native wall time.
    pub execute_s: f64,
    pub syncs_elided: usize,
    pub outcomes: Vec<Outcome>,
}

pub enum Submitted {
    Accepted(u64),
    Shed,
    Rejected(String),
}

impl Service {
    /// A native `StreamService`: `ServeConfig::new` with `optimize: true`.
    pub fn new() -> Service {
        let mut cfg = ServeConfig::new(platform());
        cfg.optimize = true;
        Service(StreamService::new(cfg).expect("service builds"))
    }

    pub fn submit(&mut self, tenant: usize, payload: Payload) -> Submitted {
        match self.0.submit(TenantId(tenant as u16), payload.0) {
            Admission::Accepted(id) => Submitted::Accepted(id),
            Admission::Shed => Submitted::Shed,
            Admission::Rejected(why) => Submitted::Rejected(why),
        }
    }

    pub fn queued(&self) -> usize {
        self.0.queued()
    }

    /// `StreamService::run_round`; `None` when nothing was dispatched.
    ///
    /// # Errors
    /// The service's error text.
    pub fn run_round(&mut self) -> Result<Option<Round>, String> {
        let Some(report) = self.0.run_round().map_err(|e| e.to_string())? else {
            return Ok(None);
        };
        Ok(Some(Round {
            execute_s: report.duration,
            syncs_elided: report.syncs_elided,
            outcomes: report
                .outcomes
                .into_iter()
                .map(|o| Outcome {
                    id: o.id,
                    outputs: match o.status {
                        JobStatus::Completed { outputs } => Some(outputs),
                        JobStatus::Degraded { .. } => None,
                    },
                    service_latency_s: o.latency,
                })
                .collect(),
        }))
    }
}

/// The service's per-round program work, reproduced standalone on a scratch
/// context so each step can be timed by itself: `plan_bases` + `relocate` +
/// `merge`, then `install_program` + `analyze`, then `apply_optimizer`.
pub struct ServeProbe {
    ctx: Context,
    programs: Vec<Program>,
    maps: Vec<(Vec<usize>, Vec<BufId>)>,
}

impl ServeProbe {
    /// One partition per payload, buffers allocated as the service does.
    pub fn new(payloads: &[Payload]) -> ServeProbe {
        let cfg = ServeConfig::new(platform());
        let mut ctx = Context::builder(platform())
            .partitions(cfg.capacity)
            .streams_per_partition(cfg.streams_per_partition)
            .build()
            .expect("scratch context builds");
        assert!(payloads.len() <= cfg.capacity, "one partition per payload");
        let maps = payloads
            .iter()
            .enumerate()
            .map(|(t, p)| {
                let bufs =
                    p.0.buffers
                        .iter()
                        .map(|b| ctx.alloc(format!("t{t}.{}", b.name), b.len))
                        .collect();
                (vec![t], bufs)
            })
            .collect();
        ServeProbe {
            ctx,
            programs: payloads.iter().map(|p| p.0.program.clone()).collect(),
            maps,
        }
    }

    pub fn relocate_merge(&self) -> Program {
        let refs: Vec<&Program> = self.programs.iter().collect();
        let bases = plan_bases(&refs);
        let parts = self
            .programs
            .iter()
            .zip(&self.maps)
            .zip(bases)
            .map(
                |((prog, (partition_map, buffer_map)), (stream_base, event_base))| {
                    let map = TenantMap {
                        stream_base,
                        event_base,
                        device: DeviceId(0),
                        partition_map: partition_map.clone(),
                        buffer_map: buffer_map.clone(),
                    };
                    relocate(prog, &map).expect("relocates")
                },
            )
            .collect();
        merge(parts)
    }

    /// `install_program` + `analyze`; true when the merged program is clean.
    pub fn recheck(&mut self, merged: Program) -> bool {
        self.ctx.install_program(merged).expect("installs");
        self.ctx.analyze().report.is_clean()
    }

    /// `apply_optimizer` on the installed program; returns actions elided.
    pub fn reoptimize(&mut self) -> usize {
        self.ctx.apply_optimizer()
    }
}

// ----- tuning on the simulator ----------------------------------------------

/// The five tunable apps at the paper-scale sizes `autotune` sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepApp {
    Hbench,
    Mm,
    Cf,
    Nn,
    Kmeans,
}

impl SweepApp {
    pub const ALL: [SweepApp; 5] = [
        SweepApp::Hbench,
        SweepApp::Mm,
        SweepApp::Cf,
        SweepApp::Nn,
        SweepApp::Kmeans,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SweepApp::Hbench => "hbench",
            SweepApp::Mm => "mm",
            SweepApp::Cf => "cf",
            SweepApp::Nn => "nn",
            SweepApp::Kmeans => "kmeans",
        }
    }

    fn build(self) -> Box<dyn Tunable> {
        match self {
            SweepApp::Hbench => Box::new(TunableHbench::new(1 << 22, 24, None)),
            SweepApp::Mm => Box::new(TunableMm::new(840, None)),
            SweepApp::Cf => Box::new(TunableCf::new(16800, None)),
            SweepApp::Nn => Box::new(TunableNn::new(1 << 20, None)),
            SweepApp::Kmeans => Box::new(TunableKmeans::new(1 << 15, 8, 3, None)),
        }
    }

    /// `autotune`'s bounds, `T = m·P, m ≤ 8` for the data-parallel apps and
    /// any multiple for CF with its divisor-aligned `P`, but every app within
    /// 64 tiles: CF's candidates between 64 and `autotune`'s 196 tiles are
    /// ten of 145 and half of a sweep's time.
    fn bounds(self) -> TuneBounds {
        match self {
            SweepApp::Cf => TuneBounds {
                max_partitions: 56,
                max_tiles: 64,
                max_multiple: 98,
            },
            _ => TuneBounds {
                max_partitions: 56,
                max_tiles: 64,
                max_multiple: 8,
            },
        }
    }
}

/// What one `Tuner::tune(.., Strategy::Pruned)` pass found and cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepOutcome {
    pub winner: (usize, usize),
    /// Simulated makespan of the winner, seconds.
    pub winner_seconds: f64,
    pub candidates: usize,
    pub evaluator_calls: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

fn tune(app: SweepApp, eval: &mut dyn Evaluator) -> SweepOutcome {
    let mut tunable = app.build();
    let mut tuner = Tuner::new(RepeatPolicy::sim());
    let out = tuner.tune(
        tunable.as_mut(),
        eval,
        &platform(),
        &app.bounds(),
        Strategy::Pruned,
    );
    let snap = tuner.metrics_snapshot();
    SweepOutcome {
        winner: out.winner,
        winner_seconds: out.winner_seconds,
        candidates: out.candidates_visited,
        evaluator_calls: out.evaluator_calls,
        cache_hits: snap.counter_sum("tune_cache_hits"),
        cache_misses: snap.counter_sum("tune_cache_misses"),
    }
}

/// One pruned tuning pass on a fresh `Tuner`, `SimEvaluator` and app.
pub fn tune_sim(app: SweepApp) -> SweepOutcome {
    let mut eval = SimEvaluator::new(platform()).expect("evaluator builds");
    tune(app, &mut eval)
}

/// The same pass on the benchmark's own evaluator, which makes the three
/// calls `SimEvaluator::evaluate` makes — `replan`, `Tunable::record`,
/// `run_sim` — each inside a span, and counts the simulated tasks. That it
/// *is* the same is checked, not assumed: winners and makespans of the two
/// must agree bit for bit.
pub fn tune_probed(app: SweepApp, t: &mut Tracer) -> (SweepOutcome, SweepWork) {
    let mut eval = ProbeEvaluator {
        ctx: Context::builder(platform())
            .build()
            .expect("context builds"),
        tracer: t,
        work: SweepWork::default(),
    };
    let out = tune(app, &mut eval);
    (out, eval.work)
}

/// What the candidates of one tuning pass amounted to, summed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepWork {
    /// Tasks the simulator scheduled (`SimReport.timeline` records).
    pub sim_tasks: u64,
    /// Actions recorded.
    pub actions: u64,
    /// Bytes the recorded transfers would move.
    pub transfer_bytes: u64,
}

impl std::ops::AddAssign for SweepWork {
    fn add_assign(&mut self, o: SweepWork) {
        self.sim_tasks += o.sim_tasks;
        self.actions += o.actions;
        self.transfer_bytes += o.transfer_bytes;
    }
}

struct ProbeEvaluator<'a> {
    ctx: Context,
    tracer: &'a mut Tracer,
    work: SweepWork,
}

impl Evaluator for ProbeEvaluator<'_> {
    fn backend(&self) -> &'static str {
        "sim"
    }

    fn evaluate(&mut self, app: &mut dyn Tunable, p: usize, t: usize) -> Option<Measurement> {
        if !app.feasible(t) {
            return None;
        }
        let ctx = &mut self.ctx;
        self.tracer.time("hstreams.replan", || ctx.replan(p)).ok()?;
        self.tracer
            .time("apps.record", || app.record(ctx, t))
            .ok()?;
        let report = self
            .tracer
            .time("hstreams.sim.run", || ctx.run_sim())
            .ok()?;
        self.work.sim_tasks += report.timeline.records.len() as u64;
        self.work.actions += ctx.program().action_count() as u64;
        self.work.transfer_bytes += program_transfer_bytes(ctx.program(), |b| {
            ctx.buffer(b).expect("recorded buffers exist").bytes()
        });
        Some(Measurement {
            seconds: report.makespan().as_secs_f64(),
            hidden_fraction: report.overlap().hidden_fraction(),
        })
    }

    fn set_scheduler(&mut self, kind: SchedulerKind) {
        self.ctx.set_scheduler(kind);
    }
}

/// Standalone timings on the tuning path that `Tuner::tune` does not take
/// by default: `Evaluator::lower_bound` (the static cost bound) and
/// `sched::plan` under `ListHeft`, each on `app` recorded at `(p, t)`.
/// Returns `(lower_bound µs, plan µs)` per rep.
pub fn probe_static_and_plan(app: SweepApp, p: usize, t: usize, reps: usize) -> Vec<(f64, f64)> {
    let mut eval = SimEvaluator::new(platform()).expect("evaluator builds");
    let mut tunable = app.build();
    (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let lb = eval.lower_bound(tunable.as_mut(), p, t);
            let lb_us = t0.elapsed().as_secs_f64() * 1e6;
            assert!(lb.is_some(), "the FIFO sim evaluator promises a bound");
            let ctx = eval.context();
            let cost = ctx.cost_model().expect("cost model");
            let t1 = std::time::Instant::now();
            let plan = hstreams::sched::plan(ctx.program(), &cost, SchedulerKind::ListHeft);
            let plan_us = t1.elapsed().as_secs_f64() * 1e6;
            assert!(plan.is_some(), "a clean program schedules");
            (lb_us, plan_us)
        })
        .collect()
}
