//! Tuning-strategy comparison: the four ways this repository can pick
//! `(P, T)` for a streamed workload, head to head on the hBench pipeline.
//!
//! | strategy | evaluations | source |
//! |---|---|---|
//! | exhaustive sweep | thousands | paper Sec. V-A ("empirically enumerate") |
//! | pruned candidates | dozens | paper Sec. V-C heuristics |
//! | model-seeded order | dozens, best-first | pruned space in the analytical model's order |
//! | analytical model | 0 | paper future work ("fine analytical performance model") |

use mic_apps::tunable::{Tunable, TunableHbench};
use micsim::PlatformConfig;
use stream_tune::candidates::{partition_candidates, TuneBounds};
use stream_tune::tuner::model_from_costs;
use stream_tune::{Evaluator, RepeatPolicy, SimEvaluator, Strategy, TuneOutcome, Tuner};

const ELEMS: usize = 4 << 20;
const ITERS: usize = 50;

/// One strategy on a fresh tuner, evaluator and app (a shared measurement
/// cache would hide the later strategies' evaluation counts).
fn tune(platform: &PlatformConfig, bounds: &TuneBounds, strategy: Strategy) -> TuneOutcome {
    let mut app = TunableHbench::new(ELEMS, ITERS, None);
    let mut eval = SimEvaluator::new(platform.clone()).expect("sim evaluator");
    Tuner::new(RepeatPolicy::sim()).tune(&mut app, &mut eval, platform, bounds, strategy)
}

fn main() {
    let bounds = TuneBounds {
        max_partitions: 56,
        max_tiles: 224,
        max_multiple: 8,
    };
    let platform = PlatformConfig::phi_31sp();

    let full = tune(&platform, &bounds, Strategy::Exhaustive);
    let pruned = tune(&platform, &bounds, Strategy::Pruned);
    let seeded = tune(&platform, &bounds, Strategy::ModelSeeded);

    // Analytical model: pick T* for each candidate P, evaluate only the
    // model-chosen point once in the simulator to report honestly.
    let mut app = TunableHbench::new(ELEMS, ITERS, None);
    let costs = app.pipeline_costs().expect("hBench is a linear pipeline");
    let model = model_from_costs(&costs, &platform);
    let (model_p, model_t) = partition_candidates(&platform.device, bounds.max_partitions)
        .into_iter()
        .map(|p| (p, model.optimal_tiles(p, bounds.max_tiles)))
        .min_by(|&(pa, ta), &(pb, tb)| model.makespan(pa, ta).total_cmp(&model.makespan(pb, tb)))
        .unwrap();
    let model_measured = SimEvaluator::new(platform.clone())
        .expect("sim evaluator")
        .evaluate(&mut app, model_p, model_t)
        .expect("model-chosen point is feasible")
        .seconds;

    println!("| strategy | best (P,T) | measured (ms) | vs exhaustive | sim evals |");
    println!("|---|---|---|---|---|");
    let row = |name: &str, best: (usize, usize), val: f64, evals: usize| {
        println!(
            "| {name} | {best:?} | {:.3} | +{:.2}% | {evals} |",
            val * 1e3,
            (val / full.winner_seconds - 1.0) * 100.0
        );
    };
    for (name, out) in [
        ("exhaustive", &full),
        ("pruned (Sec. V-C)", &pruned),
        ("model-seeded order", &seeded),
    ] {
        row(name, out.winner, out.winner_seconds, out.evaluator_calls);
    }
    row("analytical model", (model_p, model_t), model_measured, 1);
    let first_hit = |out: &TuneOutcome| {
        1 + out
            .visit_order
            .iter()
            .position(|&c| c == out.winner)
            .expect("winner was visited")
    };
    println!(
        "\nThe model predicts makespans without any simulation; visiting the \
         pruned space in its order reaches the optimum at evaluation {} of {} \
         (plain pruned order: {}).",
        first_hit(&seeded),
        seeded.evaluator_calls,
        first_hit(&pruned),
    );
}
