//! Sec. V-C — search-space pruning for (P, T).
//!
//! Tunes the hBench partitioned-kernel program over the exhaustive (P, T)
//! grid and over the paper's pruned candidate sets, comparing the found
//! optima and the number of evaluations. The pruned search must land within
//! a few percent of the exhaustive optimum at a fraction of the cost.

use std::time::{Duration, Instant};

use mic_apps::tunable::TunableHbench;
use micsim::PlatformConfig;
use stream_tune::candidates::{exhaustive_space, pruned_space, reduction_factor, TuneBounds};
use stream_tune::{RepeatPolicy, SimEvaluator, Strategy, TuneOutcome, Tuner};

/// Streamed hBench: 16 MiB array split into T tiles over P partitions, full
/// H2D -> EXE -> D2H pipeline, 50 kernel iterations. Tuner, evaluator and
/// app are fresh per strategy, so the second pass is not served from the
/// first one's measurement cache and the wall times compare.
fn tune(bounds: &TuneBounds, strategy: Strategy) -> (TuneOutcome, Duration) {
    let platform = PlatformConfig::phi_31sp();
    let mut app = TunableHbench::new(4 << 20, 50, None);
    let mut eval = SimEvaluator::new(platform.clone()).expect("sim evaluator");
    let t0 = Instant::now();
    let out =
        Tuner::new(RepeatPolicy::sim()).tune(&mut app, &mut eval, &platform, bounds, strategy);
    (out, t0.elapsed())
}

fn main() {
    let bounds = TuneBounds {
        max_partitions: 56,
        max_tiles: 224,
        max_multiple: 8,
    };
    let device = PlatformConfig::phi_31sp().device;

    println!("exhaustive candidates: {}", exhaustive_space(&bounds).len());
    println!(
        "pruned candidates:     {}",
        pruned_space(&device, &bounds).len()
    );
    println!(
        "static reduction factor: {:.0}x",
        reduction_factor(&device, &bounds)
    );

    let (full, t_full) = tune(&bounds, Strategy::Exhaustive);
    let (fast, t_fast) = tune(&bounds, Strategy::Pruned);

    println!("\n| search | best (P,T) | best time (ms) | evals | wall |");
    println!("|---|---|---|---|---|");
    println!(
        "| exhaustive | {:?} | {:.3} | {} | {:.1?} |",
        full.winner,
        full.winner_seconds * 1e3,
        full.evaluator_calls,
        t_full
    );
    println!(
        "| pruned (Sec. V-C) | {:?} | {:.3} | {} | {:.1?} |",
        fast.winner,
        fast.winner_seconds * 1e3,
        fast.evaluator_calls,
        t_fast
    );
    let loss = fast.winner_seconds / full.winner_seconds - 1.0;
    println!(
        "\npruned optimum is within {:.2}% of the exhaustive optimum at {:.0}x fewer evaluations",
        loss * 100.0,
        full.evaluator_calls as f64 / fast.evaluator_calls as f64
    );
}
