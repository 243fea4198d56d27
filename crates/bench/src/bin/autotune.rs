//! Closed-loop `(T, P)` autotuner driver: exhaustive vs pruned vs
//! model-seeded search, on the simulator and on the pooled native executor.
//!
//! Tunes all five tunable apps on the simulator under paper-scale bounds,
//! then a small hBench on both backends, and writes per-app `(P, T)`
//! landscape CSVs from the exhaustive sweeps. Reports, per app, each cheap
//! strategy's share of the grid and its delta to the exhaustive optimum,
//! then whether the two backends pick the same partition class, whether a
//! repeated native pass is served from the measurement cache, and whether
//! the native evaluator kept one runtime. The deterministic properties
//! (the sim sweep's budget and 5 % delta, the cache, the one runtime) are
//! gated by `crates/tune/tests/{differential_sim,parity_native}.rs`.

use std::io::Write;

use mic_apps::tunable::{Tunable, TunableCf, TunableHbench, TunableKmeans, TunableMm, TunableNn};
use micsim::PlatformConfig;
use stream_tune::evaluator::{Evaluator, NativeEvaluator, SimEvaluator};
use stream_tune::tuner::{RepeatPolicy, Strategy, TuneOutcome, Tuner};
use stream_tune::{partition_class, TuneBounds};

const STRATEGIES: [Strategy; 3] = [
    Strategy::Exhaustive,
    Strategy::Pruned,
    Strategy::ModelSeeded,
];

/// One app's three-strategy comparison on one evaluator.
struct AppResult {
    app: &'static str,
    problem: String,
    backend: &'static str,
    outcomes: Vec<TuneOutcome>,
}

impl AppResult {
    fn exhaustive(&self) -> &TuneOutcome {
        &self.outcomes[0]
    }
}

fn tune_all(
    app: &mut dyn Tunable,
    eval: &mut dyn Evaluator,
    platform: &PlatformConfig,
    bounds: &TuneBounds,
    policy: RepeatPolicy,
) -> AppResult {
    let outcomes: Vec<TuneOutcome> = STRATEGIES
        .iter()
        .map(|&s| {
            // Fresh cache per strategy: evaluation counts stay honest.
            let mut tuner = Tuner::new(policy);
            tuner.tune(app, eval, platform, bounds, s)
        })
        .collect();
    AppResult {
        app: app.name(),
        problem: app.problem(),
        backend: eval.backend(),
        outcomes,
    }
}

fn print_result(r: &AppResult) {
    let full = r.exhaustive();
    println!(
        "### {} ({}) on {} — grid {} candidates",
        r.app, r.problem, r.backend, full.grid_size
    );
    println!("| strategy | winner (P,T) | seconds | configs | runs | of grid |");
    println!("|---|---|---|---|---|---|");
    for o in &r.outcomes {
        println!(
            "| {} | ({}, {}) | {:.6} | {} | {} | {:.1}% |",
            o.strategy.label(),
            o.winner.0,
            o.winner.1,
            o.winner_seconds,
            o.candidates_visited,
            o.evaluator_calls,
            100.0 * o.candidates_visited as f64 / o.grid_size as f64
        );
    }
    let delta = |o: &TuneOutcome| 100.0 * (o.winner_seconds / full.winner_seconds - 1.0);
    println!(
        "winner delta vs exhaustive: pruned {:+.2}%, model-seeded {:+.2}%\n",
        delta(&r.outcomes[1]),
        delta(&r.outcomes[2]),
    );
}

/// Write the exhaustive `(P, T)` landscape of one app as CSV.
fn write_landscape(r: &AppResult) {
    let dir = mic_bench::results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let mut csv = String::from("p,t,seconds,hidden_fraction\n");
    for rec in &r.exhaustive().landscape {
        csv.push_str(&format!(
            "{},{},{},{}\n",
            rec.partitions, rec.tiles, rec.seconds, rec.hidden_fraction
        ));
    }
    let path = dir.join(format!("autotune_landscape_{}.csv", r.app));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            if let Err(e) = f.write_all(csv.as_bytes()) {
                eprintln!("warning: write {} failed: {e}", path.display());
            } else {
                println!("[wrote {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: create {} failed: {e}", path.display()),
    }
}

fn main() {
    let platform = PlatformConfig::phi_31sp();

    // Sim, paper-scale bounds, all five tunable apps. The data-parallel
    // apps use the paper's `T = m·P, m ≤ 8` rule; CF is a task graph
    // whose lookahead wants many more tiles than streams (its optimum
    // sits near `T/P ≈ 72`, cf. Fig. 8's tpd sweep), so its pruned
    // space keeps the same divisor-aligned `P` but lets the multiple
    // run up to the tile cap.
    let dp_bounds = TuneBounds {
        max_partitions: 56,
        max_tiles: 64,
        max_multiple: 8,
    };
    let cf_bounds = TuneBounds {
        max_partitions: 56,
        max_tiles: 196,
        max_multiple: 98,
    };
    let mut apps: Vec<(Box<dyn Tunable>, TuneBounds)> = vec![
        (Box::new(TunableHbench::new(1 << 22, 24, None)), dp_bounds),
        (Box::new(TunableMm::new(840, None)), dp_bounds),
        (Box::new(TunableCf::new(16800, None)), cf_bounds),
        (Box::new(TunableNn::new(1 << 20, None)), dp_bounds),
        (Box::new(TunableKmeans::new(1 << 15, 8, 3, None)), dp_bounds),
    ];
    for (app, bounds) in &mut apps {
        let mut eval = SimEvaluator::new(platform.clone()).expect("sim evaluator");
        let r = tune_all(
            app.as_mut(),
            &mut eval,
            &platform,
            bounds,
            RepeatPolicy::sim(),
        );
        print_result(&r);
        write_landscape(&r);
    }

    // hBench on both evaluators, small bounds: the sim-vs-native parity
    // section.
    let bounds = TuneBounds {
        max_partitions: 8,
        max_tiles: 16,
        max_multiple: 2,
    };
    // Small on purpose: at this size per-action overhead (launch, stream
    // sync) dominates both backends, so coarse granularity wins decisively
    // on each — the parity check needs a landscape whose signal clears
    // native wall-clock noise, not a photo-finish.
    let elems = 1 << 14;
    let iters = 4;

    let mut sim_app = TunableHbench::new(elems, iters, None);
    let mut sim_eval = SimEvaluator::new(platform.clone()).expect("sim evaluator");
    let sim_r = tune_all(
        &mut sim_app,
        &mut sim_eval,
        &platform,
        &bounds,
        RepeatPolicy::sim(),
    );
    print_result(&sim_r);

    let mut native_app = TunableHbench::new(elems, iters, Some(42));
    let mut native_eval =
        NativeEvaluator::new(platform.clone(), bounds.max_partitions).expect("native evaluator");
    // Warm the persistent runtime (first trial pays pool spawn + page-in).
    native_eval
        .evaluate(&mut native_app, 2, 2)
        .expect("warmup trial");
    let native_r = tune_all(
        &mut native_app,
        &mut native_eval,
        &platform,
        &bounds,
        RepeatPolicy::native(),
    );
    print_result(&native_r);
    let threads = native_eval.thread_count();

    // Parity: both backends should settle on the same partition class.
    let sim_class = partition_class(&platform.device, sim_r.outcomes[1].winner.0);
    let native_class = partition_class(&platform.device, native_r.outcomes[1].winner.0);
    println!(
        "parity: sim pruned winner P={} ({sim_class:?}), native pruned winner P={} ({native_class:?}) => {}",
        sim_r.outcomes[1].winner.0,
        native_r.outcomes[1].winner.0,
        if sim_class == native_class { "same class" } else { "DIFFERENT" }
    );

    // Cache: a repeated native pruned pass should cost zero evaluator calls.
    let mut tuner = Tuner::new(RepeatPolicy::native());
    let first = tuner.tune(
        &mut native_app,
        &mut native_eval,
        &platform,
        &bounds,
        Strategy::Pruned,
    );
    let second = tuner.tune(
        &mut native_app,
        &mut native_eval,
        &platform,
        &bounds,
        Strategy::Pruned,
    );
    let cache_ok = second.evaluator_calls == 0 && tuner.cache.hits() >= first.candidates_visited;
    println!(
        "cache: first native pass {} calls, repeat pass {} calls, {} hits => {}",
        first.evaluator_calls,
        second.evaluator_calls,
        tuner.cache.hits(),
        if cache_ok {
            "served from cache"
        } else {
            "CACHE MISSED"
        }
    );
    let threads_stable = native_eval.thread_count() == threads && threads.is_some();
    println!(
        "native runtime: {:?} threads, stable across {} trials => {}",
        threads,
        native_r
            .outcomes
            .iter()
            .map(|o| o.evaluator_calls)
            .sum::<usize>()
            + first.evaluator_calls,
        if threads_stable {
            "one runtime"
        } else {
            "RESPAWNED"
        }
    );
}
