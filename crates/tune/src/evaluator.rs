//! Measurement backends for the closed-loop autotuner.
//!
//! An [`Evaluator`] turns one `(P, T)` candidate into a [`Measurement`] by
//! actually running the app's program — through the discrete-event simulator
//! ([`SimEvaluator`]) or through the pooled native executor
//! ([`NativeEvaluator`]). Both reuse **one** [`Context`] across every trial:
//! [`Context::replan`] swaps the partition geometry without touching
//! buffers, and the native evaluator's context is built with
//! [`replan_capacity`](hstreams::context::ContextBuilder::replan_capacity)
//! so its persistent [`NativeRuntime`](hstreams) worker pool is sized once
//! and never respawned — hundreds of trials cost hundreds of runs, not
//! hundreds of thread-pool startups.

use hstreams::context::Context;
use hstreams::executor::native::NativeConfig;
use hstreams::{FaultPlan, SchedulerKind};
use micsim::PlatformConfig;

use mic_apps::tunable::Tunable;

/// One trial's outcome: wall time plus how much of the transfer time was
/// hidden under compute (from the run's unified timeline — sim and native
/// produce the same representation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measurement {
    /// Makespan in seconds.
    pub seconds: f64,
    /// Fraction of link-busy time overlapped with compute, `0..=1`.
    pub hidden_fraction: f64,
}

/// Something that can price a `(P, T)` candidate by running it.
/// `None` means the candidate is infeasible for this app (e.g. a tile count
/// MM cannot factor) or the run failed; the tuner skips it.
pub trait Evaluator {
    /// Backend label for reports, e.g. `"sim"`.
    fn backend(&self) -> &'static str;

    /// Run `app` at `t` tasks over `p` partitions and measure it.
    fn evaluate(&mut self, app: &mut dyn Tunable, p: usize, t: usize) -> Option<Measurement>;

    /// Select the DAG scheduler subsequent trials run under. Defaults to a
    /// no-op so backends without a scheduling notion (scripted test
    /// evaluators) need not care; the real backends forward the kind to
    /// their context.
    fn set_scheduler(&mut self, kind: SchedulerKind) {
        let _ = kind;
    }

    /// A *sound* lower bound on what [`evaluate`](Evaluator::evaluate)
    /// would measure for this candidate, in seconds — or `None` when the
    /// backend cannot promise one. The tuner uses it to prune candidates
    /// that provably cannot beat the incumbent without paying for a run,
    /// so an unsound bound silently corrupts the winner: backends must
    /// only return `Some` when the inequality `bound ≤ measurement` is a
    /// theorem, not a heuristic. Defaults to `None` (no pruning).
    fn lower_bound(&mut self, app: &mut dyn Tunable, p: usize, t: usize) -> Option<f64> {
        let _ = (app, p, t);
        None
    }
}

/// Deterministic evaluator: replans one simulator-backed context and prices
/// the recorded program with the calibrated discrete-event engine. Zero
/// native threads, identical numbers on every call.
pub struct SimEvaluator {
    ctx: Context,
}

impl SimEvaluator {
    /// Build the shared context for `platform`.
    pub fn new(platform: PlatformConfig) -> hstreams::types::Result<SimEvaluator> {
        let ctx = Context::builder(platform).build()?;
        Ok(SimEvaluator { ctx })
    }

    /// The shared context (e.g. to inspect buffers after tuning).
    pub fn context(&self) -> &Context {
        &self.ctx
    }
}

impl Evaluator for SimEvaluator {
    fn backend(&self) -> &'static str {
        "sim"
    }

    fn evaluate(&mut self, app: &mut dyn Tunable, p: usize, t: usize) -> Option<Measurement> {
        if !app.feasible(t) {
            return None;
        }
        self.ctx.replan(p).ok()?;
        app.record(&mut self.ctx, t).ok()?;
        let report = self.ctx.run_sim().ok()?;
        let stats = report.overlap();
        Some(Measurement {
            seconds: report.makespan().as_secs_f64(),
            hidden_fraction: stats.hidden_fraction(),
        })
    }

    fn set_scheduler(&mut self, kind: SchedulerKind) {
        self.ctx.set_scheduler(kind);
    }

    /// [`hstreams::opt::static_cost`]'s makespan lower bound for the
    /// candidate's recorded program. Sound against the simulator, with no
    /// slack: the bound sums the integer-nanosecond prices of the one
    /// function the simulator charges its tasks with, along the
    /// happens-before graph whose edges the simulator's dependencies are a
    /// superset of — but **only under FIFO**: the other schedulers
    /// re-place and reorder the recorded program, so the bound declines
    /// (`None`) for them.
    fn lower_bound(&mut self, app: &mut dyn Tunable, p: usize, t: usize) -> Option<f64> {
        if self.ctx.scheduler() != SchedulerKind::Fifo || !app.feasible(t) {
            return None;
        }
        self.ctx.replan(p).ok()?;
        app.record(&mut self.ctx, t).ok()?;
        Some(self.ctx.static_cost()?.makespan_lower_bound)
    }
}

/// Real evaluator: runs each candidate through the persistent native
/// executor with tracing on, reading makespan and hidden fraction from the
/// measured timeline. The context is created with `replan_capacity = max P`
/// so the first native run sizes the worker pool for the whole sweep —
/// [`thread_count`](NativeEvaluator::thread_count) stays constant across
/// trials (asserted by the parity smoke test).
pub struct NativeEvaluator {
    ctx: Context,
    cfg: NativeConfig,
    faulted: Vec<FaultedTrial>,
}

/// A `(P, T)` candidate whose native run failed (e.g. under an injected
/// [`FaultPlan`]): recorded instead of silently dropped, so a chaos sweep
/// can report *which* trials a fault killed while the tuner keeps sweeping.
#[derive(Clone, Debug)]
pub struct FaultedTrial {
    /// Partition count of the failed trial.
    pub p: usize,
    /// Task count of the failed trial.
    pub t: usize,
    /// The error's display form.
    pub error: String,
}

impl NativeEvaluator {
    /// Build the shared context, pre-sized for partition counts up to
    /// `max_partitions`.
    pub fn new(
        platform: PlatformConfig,
        max_partitions: usize,
    ) -> hstreams::types::Result<NativeEvaluator> {
        let ctx = Context::builder(platform)
            .replan_capacity(max_partitions)
            .build()?;
        Ok(NativeEvaluator {
            ctx,
            cfg: NativeConfig {
                trace: true,
                ..NativeConfig::default()
            },
            faulted: Vec::new(),
        })
    }

    /// Inject `plan` into every trial (chaos sweeps): each native run rolls
    /// the plan's dice, and a trial the faults kill is recorded in
    /// [`faulted_trials`](NativeEvaluator::faulted_trials) and skipped
    /// instead of aborting the sweep.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> NativeEvaluator {
        self.ctx.set_fault_plan(Some(plan));
        self
    }

    /// Trials whose native run failed, in evaluation order.
    pub fn faulted_trials(&self) -> &[FaultedTrial] {
        &self.faulted
    }

    /// Threads owned by the persistent runtime, once the first trial ran.
    pub fn thread_count(&self) -> Option<usize> {
        self.ctx.native_thread_count()
    }

    /// The shared context.
    pub fn context(&self) -> &Context {
        &self.ctx
    }
}

impl Evaluator for NativeEvaluator {
    fn backend(&self) -> &'static str {
        "native"
    }

    fn evaluate(&mut self, app: &mut dyn Tunable, p: usize, t: usize) -> Option<Measurement> {
        if !app.feasible(t) {
            return None;
        }
        if self.ctx.replan(p).is_err() || app.record(&mut self.ctx, t).is_err() {
            return None;
        }
        let report = match self.ctx.run_native_with(&self.cfg) {
            Ok(report) => report,
            Err(err) => {
                // A faulted run must not abort the sweep: record it so the
                // caller can tell *which* candidates died, then move on.
                self.faulted.push(FaultedTrial {
                    p,
                    t,
                    error: err.to_string(),
                });
                return None;
            }
        };
        match report.trace {
            Some(trace) => {
                let stats = trace.overlap();
                Some(Measurement {
                    seconds: stats.makespan.as_secs_f64(),
                    hidden_fraction: stats.hidden_fraction(),
                })
            }
            // Empty program: fall back to the wall clock.
            None => Some(Measurement {
                seconds: report.wall.as_secs_f64(),
                hidden_fraction: 0.0,
            }),
        }
    }

    fn set_scheduler(&mut self, kind: SchedulerKind) {
        self.ctx.set_scheduler(kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_apps::tunable::TunableHbench;

    #[test]
    fn sim_evaluator_is_deterministic_across_calls() {
        let mut ev = SimEvaluator::new(PlatformConfig::phi_31sp()).unwrap();
        let mut app = TunableHbench::new(1 << 14, 8, None);
        let a = ev.evaluate(&mut app, 4, 8).unwrap();
        let b = ev.evaluate(&mut app, 4, 8).unwrap();
        assert_eq!(a, b);
        assert!(a.seconds > 0.0);
    }

    #[test]
    fn sim_lower_bound_is_sound_and_fifo_only() {
        let mut ev = SimEvaluator::new(PlatformConfig::phi_31sp()).unwrap();
        let mut app = TunableHbench::new(1 << 14, 8, None);
        for (p, t) in [(1usize, 2usize), (2, 4), (4, 8), (4, 2)] {
            let lb = ev.lower_bound(&mut app, p, t).expect("FIFO sim can bound");
            let m = ev.evaluate(&mut app, p, t).unwrap();
            assert!(
                lb > 0.0 && lb <= m.seconds,
                "bound must be sound at P={p} T={t}: {lb} vs {}",
                m.seconds
            );
        }
        // Non-FIFO schedulers re-place the program: the bound declines.
        ev.set_scheduler(SchedulerKind::ListHeft);
        assert!(ev.lower_bound(&mut app, 4, 8).is_none());
    }

    #[test]
    fn sim_evaluator_skips_infeasible_candidates() {
        let mut ev = SimEvaluator::new(PlatformConfig::phi_31sp()).unwrap();
        let mut app = mic_apps::tunable::TunableMm::new(32, None);
        assert!(ev.evaluate(&mut app, 2, 3).is_none(), "3 not a square");
        assert!(ev.evaluate(&mut app, 2, 4).is_some());
    }

    #[test]
    fn native_evaluator_keeps_one_runtime_across_geometries() {
        let mut ev = NativeEvaluator::new(PlatformConfig::phi_31sp(), 8).unwrap();
        let mut app = TunableHbench::new(1 << 12, 2, Some(11));
        assert!(ev.thread_count().is_none(), "no runtime before first run");
        ev.evaluate(&mut app, 2, 4).unwrap();
        let threads = ev.thread_count().expect("runtime spawned");
        for p in [4usize, 8, 1] {
            let m = ev.evaluate(&mut app, p, 8).unwrap();
            assert!(m.seconds > 0.0);
            assert_eq!(ev.thread_count(), Some(threads), "pool respawned at P={p}");
        }
    }

    #[test]
    fn faulted_trials_are_recorded_not_fatal() {
        let plan = FaultPlan::seeded(7).alloc_failures(1.0);
        let mut ev = NativeEvaluator::new(PlatformConfig::phi_31sp(), 4)
            .unwrap()
            .with_fault_plan(plan);
        let mut app = TunableHbench::new(1 << 12, 2, Some(5));
        assert!(ev.evaluate(&mut app, 2, 2).is_none(), "faulted trial skips");
        assert!(ev.evaluate(&mut app, 4, 2).is_none());
        let faulted = ev.faulted_trials();
        assert_eq!(faulted.len(), 2);
        assert_eq!((faulted[0].p, faulted[0].t), (2, 2));
        assert!(
            faulted[0].error.contains("fault at alloc"),
            "typed error surfaced: {}",
            faulted[0].error
        );
    }

    #[test]
    fn native_measurement_carries_overlap_stats() {
        let mut ev = NativeEvaluator::new(PlatformConfig::phi_31sp(), 4).unwrap();
        let mut app = TunableHbench::new(1 << 14, 16, Some(3));
        let m = ev.evaluate(&mut app, 4, 8).unwrap();
        assert!((0.0..=1.0).contains(&m.hidden_fraction));
    }
}
