//! Sim-vs-native parity smoke, and the native evaluator's economy.
//!
//! On a deliberately overhead-dominated workload (tiny tiles, almost no
//! compute) both backends must make the same granularity decision — the
//! same [`PartitionClass`] — even though their absolute clocks differ by
//! orders of magnitude. Also locks the native evaluator's two economy
//! guarantees: one persistent runtime across every trial, and repeated
//! identical trials served entirely from the measurement cache.

use std::sync::{Mutex, PoisonError};

use hstreams::{Context, NativeConfig};
use mic_apps::tunable::{Tunable, TunableHbench};
use micsim::PlatformConfig;
use stream_tune::evaluator::{Evaluator, Measurement, NativeEvaluator, SimEvaluator};
use stream_tune::tuner::{RepeatPolicy, Strategy, Tuner};
use stream_tune::{partition_class, PartitionClass, TuneBounds};

fn bounds() -> TuneBounds {
    TuneBounds {
        max_partitions: 8,
        max_tiles: 16,
        max_multiple: 2,
    }
}

/// Small on purpose: per-action overhead (launch, stream sync) dominates
/// both backends, so coarse granularity wins decisively on each — the
/// comparison needs a landscape whose signal clears native wall-clock
/// noise, not a photo-finish.
const ELEMS: usize = 1 << 14;
const ITERS: usize = 1;

/// Repetitions of every native candidate.
const REPS: usize = 9;

/// The two tests here each run native trials on the host's cores; they
/// take turns, so that one's trials are not the other's noise.
static NATIVE: Mutex<()> = Mutex::new(());

/// The native backend with the card's link emulated, as the simulator
/// prices it: every copy holds its lane for at least `bytes / bandwidth`.
/// A copy of these 4–32 KiB tiles asks for 0.6–4.7 µs, longer than the
/// copy itself, so every copy sleeps, and a sleep costs at least the host
/// timer's wake-up latency (≈ 60 µs on a 2-vCPU guest). Each transfer then
/// carries a fixed cost, as the simulator's per-transfer latency does, and
/// the native landscape ranks by transfer count as the simulator's ranks
/// by action count. Without the emulation the two classes' best
/// candidates sat within 10 % of each other (31 vs 34 µs in release), and
/// scheduling noise picked the other class in 13 of 40 debug runs. Every
/// sample is kept, so the test can print the class gap against the trial
/// spread (`-- --nocapture`).
struct LinkEmulated {
    ctx: Context,
    cfg: NativeConfig,
    samples: Vec<((usize, usize), f64)>,
}

impl Evaluator for LinkEmulated {
    fn backend(&self) -> &'static str {
        "native+link"
    }

    fn evaluate(&mut self, app: &mut dyn Tunable, p: usize, t: usize) -> Option<Measurement> {
        self.ctx.replan(p).ok()?;
        app.record(&mut self.ctx, t).ok()?;
        let stats = self.ctx.run_native_with(&self.cfg).ok()?.trace?.overlap();
        let seconds = stats.makespan.as_secs_f64();
        self.samples.push(((p, t), seconds));
        Some(Measurement {
            seconds,
            hidden_fraction: stats.hidden_fraction(),
        })
    }
}

#[test]
fn both_backends_pick_the_same_partition_class() {
    let _turn = NATIVE.lock().unwrap_or_else(PoisonError::into_inner);
    let platform = PlatformConfig::phi_31sp();

    let mut sim_app = TunableHbench::new(ELEMS, ITERS, None);
    let mut sim_eval = SimEvaluator::new(platform.clone()).unwrap();
    let sim = Tuner::new(RepeatPolicy::sim()).tune(
        &mut sim_app,
        &mut sim_eval,
        &platform,
        &bounds(),
        Strategy::Pruned,
    );

    let mut native_app = TunableHbench::new(ELEMS, ITERS, Some(42));
    let mut native_eval = LinkEmulated {
        ctx: Context::builder(platform.clone())
            .replan_capacity(bounds().max_partitions)
            .build()
            .unwrap(),
        cfg: NativeConfig {
            trace: true,
            link_bandwidth: Some(platform.link.bandwidth),
            ..NativeConfig::default()
        },
        samples: Vec::new(),
    };
    // Warm the persistent runtime: the first trial pays pool spawn and
    // page-in, which would otherwise poison one candidate's samples.
    native_eval.evaluate(&mut native_app, 2, 2).unwrap();
    native_eval.samples.clear();
    let every_rep = RepeatPolicy {
        min_reps: REPS,
        max_reps: REPS,
        z: 0.0,
    };
    let native = Tuner::new(every_rep).tune(
        &mut native_app,
        &mut native_eval,
        &platform,
        &bounds(),
        Strategy::Pruned,
    );

    // The class gap: the native winner's best sample against the best
    // sample of any candidate in another class. A candidate ranks by its
    // best sample, and wall-clock noise only adds time, so noise can
    // close the gap only by inflating the winner's samples; the trial
    // spread is therefore the interquartile range of the winner's.
    let class = |p: usize| partition_class(&platform.device, p);
    let native_class: PartitionClass = class(native.winner.0);
    let rival = native
        .landscape
        .iter()
        .filter(|r| class(r.partitions) != native_class)
        .map(|r| r.seconds)
        .min_by(f64::total_cmp)
        .expect("the pruned space spans two classes");
    let mut samples: Vec<f64> = native_eval
        .samples
        .iter()
        .filter(|(at, _)| *at == native.winner)
        .map(|&(_, s)| s)
        .collect();
    samples.sort_by(f64::total_cmp);
    assert_eq!(
        samples.len(),
        REPS,
        "the winner was sampled {} times",
        samples.len()
    );
    let gap = rival - native.winner_seconds;
    let spread = samples[3 * REPS / 4] - samples[REPS / 4];
    println!(
        "native class gap {:.1} µs, trial spread {:.1} µs",
        gap * 1e6,
        spread * 1e6
    );
    assert_eq!(
        class(sim.winner.0),
        native_class,
        "sim winner {:?} vs native winner {:?}",
        sim.winner,
        native.winner
    );
}

#[test]
fn native_trials_reuse_one_runtime_and_hit_the_cache_on_repeat() {
    let _turn = NATIVE.lock().unwrap_or_else(PoisonError::into_inner);
    let platform = PlatformConfig::phi_31sp();
    let mut app = TunableHbench::new(ELEMS, ITERS, Some(7));
    let mut eval = NativeEvaluator::new(platform.clone(), bounds().max_partitions).unwrap();
    eval.evaluate(&mut app, 2, 2).unwrap();
    let threads = eval.thread_count().expect("runtime spawned by warmup");

    let mut tuner = Tuner::new(RepeatPolicy::native());
    let first = tuner.tune(&mut app, &mut eval, &platform, &bounds(), Strategy::Pruned);
    assert!(first.evaluator_calls >= first.candidates_visited);
    assert_eq!(
        eval.thread_count(),
        Some(threads),
        "worker pool respawned mid-sweep"
    );

    // Same tuner, same candidates: every trial must come from the cache.
    let second = tuner.tune(&mut app, &mut eval, &platform, &bounds(), Strategy::Pruned);
    assert_eq!(
        second.evaluator_calls, 0,
        "repeat pass must not touch the evaluator"
    );
    assert_eq!(second.winner, first.winner);
    assert!(
        tuner.cache.hits() >= first.candidates_visited,
        "cache hits {} < candidates {}",
        tuner.cache.hits(),
        first.candidates_visited
    );
}
