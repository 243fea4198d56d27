//! Pick `(P, T)` for Cholesky with the paper's Sec. V-C heuristics and
//! compare against the exhaustive sweep: the pruned candidate set must land
//! near the sweep's optimum at a fraction of the evaluations.
//!
//! Run with: `cargo run --release --example autotune_cholesky`

use std::time::{Duration, Instant};

use mic_apps::tunable::TunableCf;
use micsim::PlatformConfig;
use stream_tune::{RepeatPolicy, SimEvaluator, Strategy, TuneBounds, TuneOutcome, Tuner};

const N: usize = 9600;

/// One strategy on a fresh tuner, evaluator and app, so the pruned pass is
/// not served from the sweep's measurement cache.
fn tune(bounds: &TuneBounds, strategy: Strategy) -> (TuneOutcome, Duration) {
    let platform = PlatformConfig::phi_31sp();
    let mut app = TunableCf::new(N, None);
    let mut eval = SimEvaluator::new(platform.clone()).expect("sim evaluator");
    let t0 = Instant::now();
    let out =
        Tuner::new(RepeatPolicy::sim()).tune(&mut app, &mut eval, &platform, bounds, strategy);
    (out, t0.elapsed())
}

fn main() {
    // CF's T is tiles-per-dimension squared and only divisors of n tile it,
    // so most of the grid is infeasible and skipped for free. Its lookahead
    // wants many more tiles than streams, so the pruned space keeps the
    // core-aligned P but lets the multiple run up to the tile cap.
    let bounds = TuneBounds {
        max_partitions: 56,
        max_tiles: 24 * 24,
        max_multiple: 24 * 24 / 2,
    };
    let (full, wide_wall) = tune(&bounds, Strategy::Exhaustive);
    let (fast, fast_wall) = tune(&bounds, Strategy::Pruned);

    println!("| search | best (P, T) | time (s) | evals | wall |");
    println!("|---|---|---|---|---|");
    println!(
        "| wide sweep | {:?} | {:.3} | {} | {wide_wall:.1?} |",
        full.winner, full.winner_seconds, full.evaluator_calls
    );
    println!(
        "| Sec. V-C pruned | {:?} | {:.3} | {} | {fast_wall:.1?} |",
        fast.winner, fast.winner_seconds, fast.evaluator_calls
    );
    println!(
        "\npruned search: {:.1}x fewer evaluations, optimum within {:.2}%",
        full.evaluator_calls as f64 / fast.evaluator_calls as f64,
        (fast.winner_seconds / full.winner_seconds - 1.0) * 100.0
    );
}
