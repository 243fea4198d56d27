//! The closed-loop autotuner: measurement-driven `(P, T)` selection.
//!
//! [`Tuner::tune`] walks a candidate order chosen by [`Strategy`] —
//! exhaustive grid, the paper's Sec. V-C pruned space, or the pruned space
//! re-ordered by the analytical [`PipelineModel`]'s predictions — and prices
//! each candidate through an [`Evaluator`]. Three mechanisms keep the loop
//! cheap and reproducible:
//!
//! * **Measurement cache** — aggregated trials are memoized by
//!   `(app, problem, P, T, scheduler)`; a revisit costs zero evaluator
//!   calls.
//! * **Early stopping** — on a noisy (native) backend each candidate is
//!   repeated only until its confidence interval clears the incumbent
//!   ([`RepeatPolicy`]); confidently-worse candidates stop at `min_reps`.
//! * **Deterministic tie-breaking** — candidate order is a pure function of
//!   strategy and bounds, and equal-valued winners resolve to the
//!   lexicographically smallest `(P, T)`, so the same inputs always produce
//!   the same winner *and* the same visit order.

use hstreams::SchedulerKind;
use micsim::stats::Summary;
use micsim::{PartitionPlan, PlatformConfig};

use mic_apps::tunable::{PipelineCosts, Tunable};

use crate::cache::{CacheKey, MeasurementCache, Trial};
use crate::candidates::{exhaustive_space, pruned_space, TuneBounds};
use crate::evaluator::Evaluator;
use crate::model::PipelineModel;

/// How the candidate order is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Every `(P, T)` in the bounds, `P`-major ascending — the paper's
    /// "empirically enumerate all the possible values" baseline.
    Exhaustive,
    /// The Sec. V-C pruned space (core-aligned `P`, `T = m·P`).
    Pruned,
    /// The pruned space visited in order of the analytical model's
    /// predicted makespan (falls back to [`Strategy::Pruned`] order for
    /// apps without pipeline costs).
    ModelSeeded,
}

impl Strategy {
    /// Stable label for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Exhaustive => "exhaustive",
            Strategy::Pruned => "pruned",
            Strategy::ModelSeeded => "model_seeded",
        }
    }
}

/// Repetition and early-stopping policy for one backend.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RepeatPolicy {
    /// Repetitions before a candidate may be pruned.
    pub min_reps: usize,
    /// Repetitions for candidates that stay competitive.
    pub max_reps: usize,
    /// Confidence width in standard errors: a candidate stops early once
    /// `mean − z·sem > incumbent` (it is confidently worse).
    pub z: f64,
}

impl RepeatPolicy {
    /// Simulator: deterministic, one repetition tells all.
    pub fn sim() -> RepeatPolicy {
        RepeatPolicy {
            min_reps: 1,
            max_reps: 1,
            z: 0.0,
        }
    }

    /// Native: wall-clock noise is real — repeat up to `max_reps`, but
    /// abandon a candidate at `min_reps` once its 95 % interval clears the
    /// incumbent.
    pub fn native() -> RepeatPolicy {
        RepeatPolicy {
            min_reps: 2,
            max_reps: 5,
            z: 1.96,
        }
    }
}

/// One visited configuration in the tuning landscape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrialRecord {
    /// Resource granularity `P`.
    pub partitions: usize,
    /// Task granularity `T`.
    pub tiles: usize,
    /// Ranking value: best observed seconds over the repetitions (equal to
    /// the single sample on the deterministic simulator). Wall-clock noise
    /// is one-sided — contention only ever adds time — so the minimum is
    /// the noise-robust estimate of a configuration's true cost.
    pub seconds: f64,
    /// Mean hidden fraction.
    pub hidden_fraction: f64,
    /// Repetitions actually performed (early stopping shortens this).
    pub reps: usize,
    /// Whether the trial was served from the measurement cache.
    pub cached: bool,
}

/// Result of one tuning run.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// Strategy that produced this outcome.
    pub strategy: Strategy,
    /// Best `(P, T)` found.
    pub winner: (usize, usize),
    /// Its best observed makespan in seconds (see [`TrialRecord::seconds`]).
    pub winner_seconds: f64,
    /// Actual evaluator invocations (cache hits and infeasible candidates
    /// cost zero).
    pub evaluator_calls: usize,
    /// Feasible candidates visited (measured or cache-served).
    pub candidates_visited: usize,
    /// Candidates skipped because the app cannot tile that way.
    pub infeasible_skipped: usize,
    /// Candidates skipped because the evaluator's static
    /// [`lower_bound`](crate::evaluator::Evaluator::lower_bound) already
    /// exceeded the best measurement — provably not the winner, never run
    /// (zero unless [`Tuner::bound_pruning`] is on and the backend can
    /// bound).
    pub pruned_by_bound: usize,
    /// Size of the *exhaustive* grid under the same bounds, for reduction
    /// accounting.
    pub grid_size: usize,
    /// The exact candidate visit order (deterministic per strategy).
    pub visit_order: Vec<(usize, usize)>,
    /// Every visited configuration with its measurement.
    pub landscape: Vec<TrialRecord>,
}

impl TuneOutcome {
    /// `grid_size / candidates actually measured` — how much cheaper than
    /// brute force this strategy was.
    pub fn reduction(&self) -> f64 {
        self.grid_size as f64 / (self.candidates_visited.max(1)) as f64
    }
}

/// Result of a joint `(P, T, scheduler)` sweep
/// ([`Tuner::tune_schedulers`]): one [`TuneOutcome`] per scheduler plus the
/// globally best triple.
#[derive(Clone, Debug)]
pub struct SchedSweepOutcome {
    /// Best `(P, T)` across every scheduler swept.
    pub winner: (usize, usize),
    /// The scheduler that produced the winner (ties resolve to the earliest
    /// kind in the sweep order, so FIFO wins when scheduling buys nothing).
    pub winner_scheduler: SchedulerKind,
    /// The winner's best observed makespan in seconds.
    pub winner_seconds: f64,
    /// Per-scheduler outcomes, in sweep order.
    pub per_scheduler: Vec<(SchedulerKind, TuneOutcome)>,
}

/// Combine an app's intrinsic [`PipelineCosts`] with a platform description
/// into the closed-form [`PipelineModel`]: the full-device kernel rate is
/// the per-thread rate scaled by the whole card's thread-equivalents
/// (SMT-discounted), and link/launch parameters come straight from the
/// calibration.
pub fn model_from_costs(costs: &PipelineCosts, cfg: &PlatformConfig) -> PipelineModel {
    let plan = PartitionPlan::equal_split(&cfg.device, 1).expect("one partition always fits");
    let device_rate = costs.thread_rate * cfg.compute.partition_capacity(&plan.partitions[0]);
    PipelineModel {
        bytes_h2d: costs.bytes_h2d,
        bytes_d2h: costs.bytes_d2h,
        transfers_per_tile: costs.transfers_per_tile,
        kernel_work: costs.kernel_work,
        device_rate,
        launch_overhead: cfg.compute.launch_overhead.as_secs_f64(),
        link_bandwidth: cfg.link.bandwidth,
        link_latency: cfg.link.latency.as_secs_f64(),
    }
}

/// Candidate visit order for `strategy` — a pure, deterministic function of
/// the inputs (the model prediction is closed-form arithmetic).
pub fn candidate_order(
    app: &dyn Tunable,
    platform: &PlatformConfig,
    bounds: &TuneBounds,
    strategy: Strategy,
) -> Vec<(usize, usize)> {
    match strategy {
        Strategy::Exhaustive => exhaustive_space(bounds).pairs,
        Strategy::Pruned => pruned_space(&platform.device, bounds).pairs,
        Strategy::ModelSeeded => {
            let mut pairs = pruned_space(&platform.device, bounds).pairs;
            if let Some(costs) = app.pipeline_costs() {
                let model = model_from_costs(&costs, platform);
                pairs.sort_by(|&a, &b| {
                    let pa = model.makespan(a.0, a.1);
                    let pb = model.makespan(b.0, b.1);
                    pa.partial_cmp(&pb)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
            }
            pairs
        }
    }
}

/// The closed tuning loop: cache + repeat policy + winner tracking.
pub struct Tuner {
    /// Memoized trials, shared across strategies, apps, and schedulers.
    pub cache: MeasurementCache,
    /// Repetition / early-stopping policy.
    pub policy: RepeatPolicy,
    /// DAG scheduler every trial runs under (FIFO by default — the paper's
    /// semantics). [`Tuner::tune_schedulers`] sweeps this as a third
    /// tunable alongside `(P, T)`.
    pub scheduler: SchedulerKind,
    /// Skip candidates whose static makespan lower bound
    /// ([`Evaluator::lower_bound`]) strictly exceeds the best measurement
    /// so far. Because the bound is sound (`bound ≤ measurement`), a
    /// pruned candidate provably cannot beat — or even tie — the
    /// incumbent, so the winner and its ordering are exactly those of the
    /// unpruned sweep. Off by default.
    pub bound_pruning: bool,
}

impl Tuner {
    /// A tuner with an empty cache.
    pub fn new(policy: RepeatPolicy) -> Tuner {
        Tuner {
            cache: MeasurementCache::new(),
            policy,
            scheduler: SchedulerKind::Fifo,
            bound_pruning: false,
        }
    }

    /// Export the tuner's trial/cache activity as a metric snapshot in
    /// the shared [`hstreams::metrics`] shape:
    /// `tune_trials` (cache lookups, i.e. feasible candidates priced),
    /// `tune_cache_hits` / `tune_cache_misses`, and `tune_cached_configs`
    /// (distinct `(app, problem, P, T, scheduler)` entries memoized).
    /// Embedded in the autotune bench JSON's `metrics` block.
    pub fn metrics_snapshot(&self) -> hstreams::MetricsSnapshot {
        use hstreams::metrics::{Labels, Unit};
        let mut snap = hstreams::MetricsSnapshot::default();
        for (name, v) in [
            ("tune_trials", self.cache.hits() + self.cache.misses()),
            ("tune_cache_hits", self.cache.hits()),
            ("tune_cache_misses", self.cache.misses()),
            ("tune_cached_configs", self.cache.len()),
        ] {
            snap.counter_add(name, Unit::Count, Labels::GLOBAL, v as u64);
        }
        snap
    }

    /// Tune `app` on `eval` over the candidates `strategy` selects within
    /// `bounds`.
    ///
    /// # Panics
    /// Panics if no candidate is feasible for the app.
    pub fn tune(
        &mut self,
        app: &mut dyn Tunable,
        eval: &mut dyn Evaluator,
        platform: &PlatformConfig,
        bounds: &TuneBounds,
        strategy: Strategy,
    ) -> TuneOutcome {
        let order = candidate_order(app, platform, bounds, strategy);
        let grid_size = exhaustive_space(bounds).len();
        eval.set_scheduler(self.scheduler);
        let mut best: Option<((usize, usize), f64)> = None;
        let mut evaluator_calls = 0usize;
        let mut infeasible_skipped = 0usize;
        let mut pruned_by_bound = 0usize;
        let mut visit_order = Vec::new();
        let mut landscape = Vec::new();

        for &(p, t) in &order {
            if !app.feasible(t) {
                infeasible_skipped += 1;
                continue;
            }
            let key = CacheKey {
                app: app.name().to_string(),
                problem: app.problem(),
                partitions: p,
                tiles: t,
                scheduler: self.scheduler,
            };
            let (trial, cached) = match self.cache.lookup(&key) {
                Some(trial) => (trial, true),
                None => {
                    // Static pruning: a candidate whose sound lower bound
                    // already exceeds the best *measurement* cannot win
                    // (strictly worse, so it cannot even tie into the
                    // lexicographic tie-break). Cached trials above stay
                    // free either way.
                    if self.bound_pruning {
                        if let (Some((_, bv)), Some(lb)) = (best, eval.lower_bound(app, p, t)) {
                            if lb > bv {
                                pruned_by_bound += 1;
                                continue;
                            }
                        }
                    }
                    let incumbent = best.map(|(_, v)| v);
                    let Some(trial) =
                        self.measure(app, eval, p, t, incumbent, &mut evaluator_calls)
                    else {
                        // The evaluator refused (run failure): treat like
                        // infeasible, but do not poison the cache.
                        infeasible_skipped += 1;
                        continue;
                    };
                    self.cache.insert(key, trial);
                    (trial, false)
                }
            };
            visit_order.push((p, t));
            landscape.push(TrialRecord {
                partitions: p,
                tiles: t,
                seconds: trial.summary.min,
                hidden_fraction: trial.hidden_fraction,
                reps: trial.summary.n,
                cached,
            });
            let v = trial.summary.min;
            let better = match best {
                None => true,
                Some((bp, bv)) => v < bv || (v == bv && (p, t) < bp),
            };
            if better {
                best = Some(((p, t), v));
            }
        }

        let ((winner, winner_seconds), _) = (best.expect("no feasible candidate in the space"), ());
        TuneOutcome {
            strategy,
            winner,
            winner_seconds,
            evaluator_calls,
            candidates_visited: visit_order.len(),
            infeasible_skipped,
            pruned_by_bound,
            grid_size,
            visit_order,
            landscape,
        }
    }

    /// Tune `(P, T, scheduler)` jointly: run the `(P, T)` sweep once per
    /// scheduler in `kinds` and keep the globally best triple. Trials are
    /// cached per scheduler, so re-sweeping (or mixing with plain
    /// [`tune`](Tuner::tune) calls) never re-measures a configuration. The
    /// tuner's ambient [`scheduler`](Tuner::scheduler) is restored
    /// afterwards.
    ///
    /// # Panics
    /// Panics if `kinds` is empty or no candidate is feasible for the app.
    pub fn tune_schedulers(
        &mut self,
        app: &mut dyn Tunable,
        eval: &mut dyn Evaluator,
        platform: &PlatformConfig,
        bounds: &TuneBounds,
        strategy: Strategy,
        kinds: &[SchedulerKind],
    ) -> SchedSweepOutcome {
        assert!(!kinds.is_empty(), "scheduler sweep needs at least one kind");
        let ambient = self.scheduler;
        let mut per_scheduler = Vec::with_capacity(kinds.len());
        let mut best: Option<(SchedulerKind, (usize, usize), f64)> = None;
        for &kind in kinds {
            self.scheduler = kind;
            let out = self.tune(app, eval, platform, bounds, strategy);
            if best.is_none_or(|(_, _, bv)| out.winner_seconds < bv) {
                best = Some((kind, out.winner, out.winner_seconds));
            }
            per_scheduler.push((kind, out));
        }
        self.scheduler = ambient;
        let (winner_scheduler, winner, winner_seconds) = best.expect("kinds is non-empty");
        SchedSweepOutcome {
            winner,
            winner_scheduler,
            winner_seconds,
            per_scheduler,
        }
    }

    /// Repeat one candidate per the policy, stopping early once it is
    /// confidently worse than `incumbent`.
    fn measure(
        &self,
        app: &mut dyn Tunable,
        eval: &mut dyn Evaluator,
        p: usize,
        t: usize,
        incumbent: Option<f64>,
        evaluator_calls: &mut usize,
    ) -> Option<Trial> {
        let mut secs = Vec::with_capacity(self.policy.max_reps);
        let mut hidden = Vec::with_capacity(self.policy.max_reps);
        loop {
            let m = eval.evaluate(app, p, t)?;
            *evaluator_calls += 1;
            secs.push(m.seconds);
            hidden.push(m.hidden_fraction);
            if secs.len() >= self.policy.max_reps {
                break;
            }
            if secs.len() >= self.policy.min_reps {
                if let Some(inc) = incumbent {
                    let s = Summary::of(&secs).expect("non-empty");
                    let sem = s.stddev / (s.n as f64).sqrt();
                    if s.mean - self.policy.z * sem > inc {
                        break; // confidently worse than the incumbent
                    }
                }
            }
        }
        Some(Trial {
            summary: Summary::of(&secs).expect("non-empty"),
            hidden_fraction: hidden.iter().sum::<f64>() / hidden.len() as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Measurement;

    /// The scripted evaluators' closed-form landscape.
    fn synthetic_price(p: usize, t: usize) -> f64 {
        let misaligned = if 56 % p == 0 { 0.0 } else { 5.0 };
        let idle = if t.is_multiple_of(p) { 0.0 } else { 3.0 };
        (p as f64 - 8.0).abs() + (t as f64 - 16.0).abs() * 0.1 + misaligned + idle
    }

    /// Scripted evaluator: prices candidates from a closed form and counts
    /// calls, no simulator involved.
    struct Scripted {
        calls: usize,
        noise: Vec<f64>,
        next: usize,
    }

    impl Scripted {
        fn new() -> Scripted {
            Scripted {
                calls: 0,
                noise: vec![0.0],
                next: 0,
            }
        }
    }

    impl Evaluator for Scripted {
        fn backend(&self) -> &'static str {
            "scripted"
        }

        fn evaluate(&mut self, _: &mut dyn Tunable, p: usize, t: usize) -> Option<Measurement> {
            self.calls += 1;
            let n = self.noise[self.next % self.noise.len()];
            self.next += 1;
            Some(Measurement {
                seconds: synthetic_price(p, t) + n,
                hidden_fraction: 0.5,
            })
        }
    }

    struct AnyApp;

    impl Tunable for AnyApp {
        fn name(&self) -> &'static str {
            "any"
        }
        fn problem(&self) -> String {
            "unit".into()
        }
        fn overlappable(&self) -> bool {
            true
        }
        fn feasible(&self, _: usize) -> bool {
            true
        }
        fn record(
            &mut self,
            _: &mut hstreams::context::Context,
            _: usize,
        ) -> hstreams::types::Result<()> {
            Ok(())
        }
        fn pipeline_costs(&self) -> Option<PipelineCosts> {
            None
        }
    }

    fn bounds() -> TuneBounds {
        TuneBounds {
            max_partitions: 16,
            max_tiles: 32,
            max_multiple: 4,
        }
    }

    #[test]
    fn pruned_matches_exhaustive_on_synthetic_landscape() {
        let platform = PlatformConfig::phi_31sp();
        let mut tuner = Tuner::new(RepeatPolicy::sim());
        let full = tuner.tune(
            &mut AnyApp,
            &mut Scripted::new(),
            &platform,
            &bounds(),
            Strategy::Exhaustive,
        );
        let mut tuner2 = Tuner::new(RepeatPolicy::sim());
        let pruned = tuner2.tune(
            &mut AnyApp,
            &mut Scripted::new(),
            &platform,
            &bounds(),
            Strategy::Pruned,
        );
        assert_eq!(full.winner, (8, 16));
        assert_eq!(pruned.winner, (8, 16));
        assert!(pruned.candidates_visited * 8 <= full.candidates_visited);
        assert_eq!(full.grid_size, pruned.grid_size);
    }

    #[test]
    fn cache_serves_repeat_visits_with_zero_calls() {
        let platform = PlatformConfig::phi_31sp();
        let mut tuner = Tuner::new(RepeatPolicy::sim());
        let mut eval = Scripted::new();
        let first = tuner.tune(
            &mut AnyApp,
            &mut eval,
            &platform,
            &bounds(),
            Strategy::Pruned,
        );
        let calls_after_first = eval.calls;
        let second = tuner.tune(
            &mut AnyApp,
            &mut eval,
            &platform,
            &bounds(),
            Strategy::Pruned,
        );
        assert_eq!(eval.calls, calls_after_first, "second pass fully cached");
        assert_eq!(second.evaluator_calls, 0);
        assert_eq!(first.winner, second.winner);
        assert!(second.landscape.iter().all(|r| r.cached));
        assert_eq!(tuner.cache.hits(), first.candidates_visited);
    }

    #[test]
    fn metrics_snapshot_reflects_cache_activity() {
        let platform = PlatformConfig::phi_31sp();
        let mut tuner = Tuner::new(RepeatPolicy::sim());
        let mut eval = Scripted::new();
        tuner.tune(
            &mut AnyApp,
            &mut eval,
            &platform,
            &bounds(),
            Strategy::Pruned,
        );
        tuner.tune(
            &mut AnyApp,
            &mut eval,
            &platform,
            &bounds(),
            Strategy::Pruned,
        );
        let snap = tuner.metrics_snapshot();
        let hits = snap.counter_sum("tune_cache_hits");
        let misses = snap.counter_sum("tune_cache_misses");
        assert_eq!(snap.counter_sum("tune_trials"), hits + misses);
        assert!(hits > 0, "second pass should hit the cache");
        assert_eq!(misses, tuner.cache.len() as u64);
        assert_eq!(
            snap.counter_sum("tune_cached_configs"),
            tuner.cache.len() as u64
        );
    }

    #[test]
    fn deterministic_winner_and_visit_order() {
        let platform = PlatformConfig::phi_31sp();
        let run = || {
            let mut tuner = Tuner::new(RepeatPolicy::sim());
            tuner.tune(
                &mut AnyApp,
                &mut Scripted::new(),
                &platform,
                &bounds(),
                Strategy::Pruned,
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.visit_order, b.visit_order);
    }

    #[test]
    fn equal_values_resolve_to_lex_smallest_pair() {
        struct Flat;
        impl Evaluator for Flat {
            fn backend(&self) -> &'static str {
                "flat"
            }
            fn evaluate(&mut self, _: &mut dyn Tunable, _: usize, _: usize) -> Option<Measurement> {
                Some(Measurement {
                    seconds: 1.0,
                    hidden_fraction: 0.0,
                })
            }
        }
        let platform = PlatformConfig::phi_31sp();
        let mut tuner = Tuner::new(RepeatPolicy::sim());
        let out = tuner.tune(
            &mut AnyApp,
            &mut Flat,
            &platform,
            &bounds(),
            Strategy::Pruned,
        );
        let lex_min = *out.visit_order.iter().min().unwrap();
        assert_eq!(out.winner, lex_min);
    }

    #[test]
    fn early_stopping_prunes_confidently_worse_candidates() {
        let platform = PlatformConfig::phi_31sp();
        let policy = RepeatPolicy {
            min_reps: 2,
            max_reps: 5,
            z: 1.96,
        };
        let mut tuner = Tuner::new(policy);
        let mut eval = Scripted::new(); // zero noise: intervals are points
        let out = tuner.tune(
            &mut AnyApp,
            &mut eval,
            &platform,
            &bounds(),
            Strategy::Pruned,
        );
        // Walk the visit order tracking the incumbent: with zero noise a
        // candidate worse than the incumbent it faced must stop at
        // min_reps, while incumbent-beating candidates run the full budget.
        let mut incumbent = f64::INFINITY;
        let mut pruned_any = false;
        for r in &out.landscape {
            if r.seconds > incumbent {
                assert_eq!(
                    r.reps, policy.min_reps,
                    "worse candidate kept sampling: {r:?}"
                );
                pruned_any = true;
            } else {
                assert_eq!(
                    r.reps, policy.max_reps,
                    "new incumbent stopped early: {r:?}"
                );
                incumbent = r.seconds;
            }
        }
        assert!(pruned_any, "landscape should contain pruned candidates");
    }

    #[test]
    fn bound_pruning_preserves_the_winner_and_skips_provable_losers() {
        /// Scripted evaluator with a *sound* static bound: 90 % of the
        /// true price (counts bound queries separately from runs).
        struct Bounded {
            runs: usize,
            bounds: usize,
        }
        impl Evaluator for Bounded {
            fn backend(&self) -> &'static str {
                "bounded"
            }
            fn evaluate(&mut self, _: &mut dyn Tunable, p: usize, t: usize) -> Option<Measurement> {
                self.runs += 1;
                Some(Measurement {
                    seconds: synthetic_price(p, t),
                    hidden_fraction: 0.5,
                })
            }
            fn lower_bound(&mut self, _: &mut dyn Tunable, p: usize, t: usize) -> Option<f64> {
                self.bounds += 1;
                Some(synthetic_price(p, t) * 0.9)
            }
        }

        let platform = PlatformConfig::phi_31sp();
        let baseline = Tuner::new(RepeatPolicy::sim()).tune(
            &mut AnyApp,
            &mut Bounded { runs: 0, bounds: 0 },
            &platform,
            &bounds(),
            Strategy::Exhaustive,
        );
        assert_eq!(baseline.pruned_by_bound, 0, "pruning is opt-in");

        let mut tuner = Tuner::new(RepeatPolicy::sim());
        tuner.bound_pruning = true;
        let mut eval = Bounded { runs: 0, bounds: 0 };
        let pruned = tuner.tune(
            &mut AnyApp,
            &mut eval,
            &platform,
            &bounds(),
            Strategy::Exhaustive,
        );
        assert_eq!(
            pruned.winner, baseline.winner,
            "pruning must not move the winner"
        );
        assert_eq!(pruned.winner_seconds, baseline.winner_seconds);
        assert!(pruned.pruned_by_bound > 0, "landscape has provable losers");
        assert!(
            eval.runs < baseline.candidates_visited,
            "pruned candidates must not be run: {} runs vs {} visited",
            eval.runs,
            baseline.candidates_visited
        );
        assert_eq!(
            pruned.candidates_visited + pruned.pruned_by_bound + pruned.infeasible_skipped,
            baseline.candidates_visited + baseline.infeasible_skipped,
            "every candidate is accounted for"
        );
        // Measured candidates keep the visit order of the unpruned sweep
        // (pruning deletes entries, never reorders).
        let mut it = baseline.visit_order.iter();
        for v in &pruned.visit_order {
            assert!(
                it.any(|b| b == v),
                "pruned visit order is a subsequence of the baseline"
            );
        }
    }

    /// Scripted evaluator whose landscape depends on the scheduler the
    /// tuner selected: HEFT shaves a constant off every candidate, work
    /// stealing a smaller one.
    struct SchedScripted {
        calls: usize,
        kind: SchedulerKind,
    }

    impl Evaluator for SchedScripted {
        fn backend(&self) -> &'static str {
            "sched-scripted"
        }

        fn evaluate(&mut self, _: &mut dyn Tunable, p: usize, t: usize) -> Option<Measurement> {
            self.calls += 1;
            let sched_bonus = match self.kind {
                SchedulerKind::Fifo => 2.0,
                SchedulerKind::ListHeft => 0.0,
                SchedulerKind::WorkSteal => 1.0,
            };
            Some(Measurement {
                seconds: 10.0
                    + (p as f64 - 8.0).abs()
                    + (t as f64 - 16.0).abs() * 0.1
                    + sched_bonus,
                hidden_fraction: 0.5,
            })
        }

        fn set_scheduler(&mut self, kind: SchedulerKind) {
            self.kind = kind;
        }
    }

    #[test]
    fn scheduler_sweep_picks_the_best_kind_and_caches_per_scheduler() {
        let platform = PlatformConfig::phi_31sp();
        let mut tuner = Tuner::new(RepeatPolicy::sim());
        let mut eval = SchedScripted {
            calls: 0,
            kind: SchedulerKind::Fifo,
        };
        let kinds = SchedulerKind::all();
        let out = tuner.tune_schedulers(
            &mut AnyApp,
            &mut eval,
            &platform,
            &bounds(),
            Strategy::Pruned,
            &kinds,
        );
        assert_eq!(out.winner_scheduler, SchedulerKind::ListHeft);
        assert_eq!(out.winner, (8, 16));
        assert_eq!(out.per_scheduler.len(), 3);
        // Each scheduler's sweep measured the same candidates at different
        // prices: FIFO's winner is exactly the HEFT winner plus its bonus.
        let fifo = &out.per_scheduler[0].1;
        let heft = &out.per_scheduler[1].1;
        assert_eq!(fifo.winner, heft.winner);
        assert!((fifo.winner_seconds - heft.winner_seconds - 2.0).abs() < 1e-12);
        assert_eq!(tuner.scheduler, SchedulerKind::Fifo, "ambient restored");
        // Trials are cached per scheduler: a re-sweep costs zero calls.
        let calls = eval.calls;
        let again = tuner.tune_schedulers(
            &mut AnyApp,
            &mut eval,
            &platform,
            &bounds(),
            Strategy::Pruned,
            &kinds,
        );
        assert_eq!(eval.calls, calls, "re-sweep fully cache-served");
        assert_eq!(again.winner_scheduler, out.winner_scheduler);
        assert_eq!(again.winner_seconds, out.winner_seconds);
    }

    #[test]
    fn scheduler_tie_resolves_to_earliest_kind() {
        // The plain Scripted evaluator ignores set_scheduler, so every
        // scheduler prices identically — FIFO (first in the sweep) must win.
        let platform = PlatformConfig::phi_31sp();
        let mut tuner = Tuner::new(RepeatPolicy::sim());
        let out = tuner.tune_schedulers(
            &mut AnyApp,
            &mut Scripted::new(),
            &platform,
            &bounds(),
            Strategy::Pruned,
            &SchedulerKind::all(),
        );
        assert_eq!(out.winner_scheduler, SchedulerKind::Fifo);
        assert_eq!(out.winner, (8, 16));
    }

    #[test]
    fn model_seeded_order_visits_predicted_best_first() {
        struct Pipelined;
        impl Tunable for Pipelined {
            fn name(&self) -> &'static str {
                "pipe"
            }
            fn problem(&self) -> String {
                "unit".into()
            }
            fn overlappable(&self) -> bool {
                true
            }
            fn feasible(&self, _: usize) -> bool {
                true
            }
            fn record(
                &mut self,
                _: &mut hstreams::context::Context,
                _: usize,
            ) -> hstreams::types::Result<()> {
                Ok(())
            }
            fn pipeline_costs(&self) -> Option<PipelineCosts> {
                Some(PipelineCosts {
                    bytes_h2d: 64.0 * (1 << 20) as f64,
                    bytes_d2h: 64.0 * (1 << 20) as f64,
                    transfers_per_tile: 2.0,
                    kernel_work: 1e9,
                    thread_rate: 0.32e9,
                })
            }
        }
        let platform = PlatformConfig::phi_31sp();
        let order = candidate_order(&Pipelined, &platform, &bounds(), Strategy::ModelSeeded);
        let pruned = candidate_order(&Pipelined, &platform, &bounds(), Strategy::Pruned);
        assert_eq!(
            {
                let mut o = order.clone();
                o.sort_unstable();
                o
            },
            {
                let mut p = pruned.clone();
                p.sort_unstable();
                p
            },
            "model seeding reorders, never adds or drops candidates"
        );
        let costs = Pipelined.pipeline_costs().unwrap();
        let model = model_from_costs(&costs, &platform);
        let first = order[0];
        let best_pred = order
            .iter()
            .map(|&(p, t)| model.makespan(p, t))
            .fold(f64::INFINITY, f64::min);
        assert!((model.makespan(first.0, first.1) - best_pred).abs() < 1e-12);
        // Modelless apps keep the pruned order.
        let fallback = candidate_order(&AnyApp, &platform, &bounds(), Strategy::ModelSeeded);
        assert_eq!(
            fallback,
            candidate_order(&AnyApp, &platform, &bounds(), Strategy::Pruned)
        );
    }
}
