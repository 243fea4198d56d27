//! Sim-vs-native parity smoke, and the native evaluator's economy.
//!
//! On a deliberately overhead-dominated workload (tiny tiles, almost no
//! compute) both backends must make the same granularity decision — the
//! same [`PartitionClass`] — even though their absolute clocks differ by
//! orders of magnitude. Also locks the native evaluator's two economy
//! guarantees: one persistent runtime across every trial, and repeated
//! identical trials served entirely from the measurement cache.

use mic_apps::tunable::TunableHbench;
use micsim::PlatformConfig;
use stream_tune::evaluator::{Evaluator, NativeEvaluator, SimEvaluator};
use stream_tune::tuner::{RepeatPolicy, Strategy, Tuner};
use stream_tune::{partition_class, TuneBounds};

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
const ITERS: usize = 4;

#[test]
fn both_backends_pick_the_same_partition_class() {
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
    let mut native_eval = NativeEvaluator::new(platform.clone(), bounds().max_partitions).unwrap();
    // Warm the persistent runtime: the first trial pays pool spawn and
    // page-in, which would otherwise poison one candidate's samples.
    native_eval.evaluate(&mut native_app, 2, 2).unwrap();
    let native = Tuner::new(RepeatPolicy::native()).tune(
        &mut native_app,
        &mut native_eval,
        &platform,
        &bounds(),
        Strategy::Pruned,
    );

    let sim_class = partition_class(&platform.device, sim.winner.0);
    let native_class = partition_class(&platform.device, native.winner.0);
    assert_eq!(
        sim_class, native_class,
        "sim winner {:?} vs native winner {:?}",
        sim.winner, native.winner
    );
}

#[test]
fn native_trials_reuse_one_runtime_and_hit_the_cache_on_repeat() {
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
