//! Differential guarantees of the autotuner on the deterministic simulator:
//! for every overlappable app the cheap strategies (pruned, model-seeded)
//! must land within 5 % of the exhaustive optimum while evaluating a
//! fraction of the grid (at most 1/8 of it at paper scale, and on an
//! overhead-dominated hBench), and the whole loop must be bit-for-bit
//! reproducible — same winner, same visit order — across runs.

use mic_apps::tunable::{Tunable, TunableCf, TunableHbench, TunableKmeans, TunableMm, TunableNn};
use micsim::PlatformConfig;
use stream_tune::evaluator::SimEvaluator;
use stream_tune::tuner::{RepeatPolicy, Strategy, TuneOutcome, Tuner};
use stream_tune::TuneBounds;

/// The three apps at sizes where streaming genuinely wins, each with the
/// bounds its structure calls for: the data-parallel MM and NN follow the
/// paper's `T = m·P, m ≤ 8` rule; task-graph CF wants far more tiles than
/// streams for lookahead, so its multiple cap runs up to the tile bound.
fn apps() -> Vec<(Box<dyn Tunable>, TuneBounds)> {
    let dp = TuneBounds {
        max_partitions: 8,
        max_tiles: 16,
        max_multiple: 8,
    };
    let cf = TuneBounds {
        max_partitions: 8,
        max_tiles: 144,
        max_multiple: 72,
    };
    vec![
        (Box::new(TunableMm::new(840, None)), dp),
        (Box::new(TunableCf::new(16800, None)), cf),
        (Box::new(TunableNn::new(1 << 20, None)), dp),
    ]
}

fn tune_fresh(app: &mut dyn Tunable, bounds: &TuneBounds, strategy: Strategy) -> TuneOutcome {
    let platform = PlatformConfig::phi_31sp();
    let mut eval = SimEvaluator::new(platform.clone()).unwrap();
    let mut tuner = Tuner::new(RepeatPolicy::sim());
    tuner.tune(app, &mut eval, &platform, bounds, strategy)
}

#[test]
fn pruned_and_model_seeded_within_5_percent_of_exhaustive() {
    for make in 0..apps().len() {
        let (mut app, bounds) = apps().swap_remove(make);
        let name = app.name();
        let full = tune_fresh(app.as_mut(), &bounds, Strategy::Exhaustive);
        for strategy in [Strategy::Pruned, Strategy::ModelSeeded] {
            let (mut app, bounds) = apps().swap_remove(make);
            let cheap = tune_fresh(app.as_mut(), &bounds, strategy);
            assert!(
                cheap.winner_seconds <= full.winner_seconds * 1.05,
                "{name}/{}: {} s vs exhaustive {} s at {:?}",
                strategy.label(),
                cheap.winner_seconds,
                full.winner_seconds,
                full.winner
            );
            assert!(
                cheap.candidates_visited < full.candidates_visited,
                "{name}/{}: cheap strategy must visit fewer candidates",
                strategy.label()
            );
        }
    }
}

/// A fresh app, its bounds, and whether the 5 % optimum gate applies.
type Case = (fn() -> Box<dyn Tunable>, TuneBounds, bool);

/// The cheap strategies' budget: each visits at most 1/8 of the exhaustive
/// grid, on the five apps at paper scale and bounds (where the overlappable
/// ones must also land within 5 % of the optimum), and on a deliberately
/// overhead-dominated hBench (tiny tiles, almost no compute) whose true
/// optimum sits at the excluded `P = 1`, so only the budget holds there.
#[test]
fn cheap_strategies_visit_at_most_an_eighth_of_the_grid() {
    let dp = TuneBounds {
        max_partitions: 56,
        max_tiles: 64,
        max_multiple: 8,
    };
    let cf = TuneBounds {
        max_partitions: 56,
        max_tiles: 196,
        max_multiple: 98,
    };
    let small = TuneBounds {
        max_partitions: 8,
        max_tiles: 16,
        max_multiple: 2,
    };
    let cases: [Case; 6] = [
        (|| Box::new(TunableHbench::new(1 << 22, 24, None)), dp, true),
        (|| Box::new(TunableMm::new(840, None)), dp, true),
        (|| Box::new(TunableCf::new(16800, None)), cf, true),
        (|| Box::new(TunableNn::new(1 << 20, None)), dp, true),
        (
            || Box::new(TunableKmeans::new(1 << 15, 8, 3, None)),
            dp,
            true,
        ),
        (
            || Box::new(TunableHbench::new(1 << 14, 4, None)),
            small,
            false,
        ),
    ];
    for (make, bounds, paper_scale) in cases {
        let full = tune_fresh(make().as_mut(), &bounds, Strategy::Exhaustive);
        for strategy in [Strategy::Pruned, Strategy::ModelSeeded] {
            let mut app = make();
            let cheap = tune_fresh(app.as_mut(), &bounds, strategy);
            let case = format!("{} ({})/{}", app.name(), app.problem(), strategy.label());
            assert!(
                cheap.candidates_visited * 8 <= full.grid_size,
                "{case}: visited {} of a {}-candidate grid",
                cheap.candidates_visited,
                full.grid_size
            );
            if paper_scale && app.overlappable() {
                assert!(
                    cheap.winner_seconds <= full.winner_seconds * 1.05,
                    "{case}: {} s vs exhaustive {} s",
                    cheap.winner_seconds,
                    full.winner_seconds
                );
            }
        }
    }
}

#[test]
fn winner_and_visit_order_are_deterministic_across_runs() {
    for strategy in [
        Strategy::Exhaustive,
        Strategy::Pruned,
        Strategy::ModelSeeded,
    ] {
        for make in 0..apps().len() {
            let (mut app_a, bounds) = apps().swap_remove(make);
            let (mut app_b, _) = apps().swap_remove(make);
            let name = app_a.name();
            let a = tune_fresh(app_a.as_mut(), &bounds, strategy);
            let b = tune_fresh(app_b.as_mut(), &bounds, strategy);
            assert_eq!(a.winner, b.winner, "{name}/{} winner", strategy.label());
            assert_eq!(a.winner_seconds, b.winner_seconds);
            assert_eq!(
                a.visit_order,
                b.visit_order,
                "{name}/{} visit order",
                strategy.label()
            );
        }
    }
}

#[test]
fn model_seeded_finds_the_winner_early() {
    // Seeding exists to front-load good candidates: for every app with
    // pipeline costs, the eventual winner must sit in the first half of the
    // model-ordered visit sequence.
    for make in 0..apps().len() {
        let (mut app, bounds) = apps().swap_remove(make);
        let name = app.name();
        let out = tune_fresh(app.as_mut(), &bounds, Strategy::ModelSeeded);
        let pos = out
            .visit_order
            .iter()
            .position(|&c| c == out.winner)
            .unwrap();
        assert!(
            (pos + 1) * 2 <= out.visit_order.len() + 1,
            "{name}: winner {:?} at position {}/{}",
            out.winner,
            pos,
            out.visit_order.len()
        );
    }
}
