//! Scheduler bench: prices the three DAG schedulers — FIFO replay, HEFT
//! list scheduling, and work stealing — against each other and gates the
//! results.
//!
//! `--quick` (wired into `scripts/verify.sh`) is a sim-only regression
//! gate: on every shipped app, `ListHeft` and `WorkSteal` must stay within
//! 5% of FIFO's makespan, and an explicit `Fifo` must reproduce the
//! default path's timeline bit-for-bit.
//!
//! Full mode (the default) adds the native executor and the synthetic
//! workloads the schedulers exist for — an imbalanced-tile pipeline where
//! FIFO serializes all the heavy tiles onto one partition, the `T < P`
//! starvation cliff of Fig. 10 where FIFO leaves most partitions idle, and
//! a balanced control where scheduling must not help or hurt. It fails
//! (exit 1) unless HEFT or work stealing improves makespan by >= 10% on
//! the imbalanced and starved configurations on *both* executors while
//! staying within noise on the balanced control.

use std::time::{Duration, Instant};

use hstreams::kernel::KernelDesc;
use hstreams::{Context, SchedulerKind};
use mic_apps::tunable::{
    Tunable, TunableCf, TunableHbench, TunableKmeans, TunableMm, TunableNn, TunablePartitionMicro,
};
use micsim::compute::KernelProfile;
use micsim::PlatformConfig;

/// A scheduled sim run may not regress more than 5% against FIFO on a
/// shipped app (these apps are already balanced, so the schedulers have
/// nothing to win — the gate is that they also cannot lose).
const APP_REGRESSION_MARGIN: f64 = 1.05;
/// Full-mode win gate: scheduled makespan must be <= 90% of FIFO's on the
/// imbalanced and starved workloads.
const WIN_FACTOR: f64 = 0.90;
/// Balanced-control tolerance on the native executor (host wall-clock
/// noise; the sim side uses [`APP_REGRESSION_MARGIN`]).
const NATIVE_NOISE_MARGIN: f64 = 1.15;

/// Sim makespans + FIFO-identity for one app at one `(P, T)`.
struct AppRow {
    name: &'static str,
    tiles: usize,
    fifo_ms: f64,
    heft_ms: f64,
    steal_ms: f64,
    fifo_identical: bool,
}

/// One synthetic workload priced under all three schedulers on both
/// executors (milliseconds; native is the min over repetitions).
struct Condition {
    name: &'static str,
    sim_ms: [f64; 3],
    native_ms: [f64; 3],
}

fn sim_ms(ctx: &mut Context, kind: SchedulerKind) -> f64 {
    ctx.set_scheduler(kind);
    ctx.run_sim().unwrap().makespan().as_millis_f64()
}

/// Min-of-reps native wall time: noise is one-sided, the minimum is the
/// robust estimate (same rationale as the tuner's `TrialRecord::seconds`).
fn native_ms(ctx: &mut Context, kind: SchedulerKind, reps: usize) -> f64 {
    ctx.set_scheduler(kind);
    ctx.run_native().unwrap(); // warmup: pool spawn + page faults
    (0..reps)
        .map(|_| {
            let started = Instant::now();
            ctx.run_native().unwrap();
            started.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Price one shipped app on the simulator under all three schedulers and
/// check the explicit-FIFO timeline matches the default path exactly.
fn sweep_app(app: &mut dyn Tunable, name: &'static str) -> AppRow {
    let partitions = 4;
    let tiles = [8usize, 4, 9, 16, 2, 1]
        .into_iter()
        .find(|&t| app.feasible(t))
        .expect("no feasible tile count");
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(partitions)
        .build()
        .unwrap();
    app.record(&mut ctx, tiles).unwrap();

    let default_run = ctx.run_sim().unwrap();
    let fifo_run = {
        ctx.set_scheduler(SchedulerKind::Fifo);
        ctx.run_sim().unwrap()
    };
    let fifo_identical = default_run.timeline.records == fifo_run.timeline.records;
    let fifo_ms = fifo_run.makespan().as_millis_f64();
    let heft_ms = sim_ms(&mut ctx, SchedulerKind::ListHeft);
    let steal_ms = sim_ms(&mut ctx, SchedulerKind::WorkSteal);
    AppRow {
        name,
        tiles,
        fifo_ms,
        heft_ms,
        steal_ms,
        fifo_identical,
    }
}

/// A tiled transfer/kernel/transfer pipeline with per-tile work chosen by
/// `work_ms`, recorded round-robin over `streams` streams on a
/// `partitions`-partition context. Kernels carry both a sim cost model and
/// a native sleep body, so the same rig prices on both executors.
fn rig(partitions: usize, streams: usize, tiles: usize, work_ms: impl Fn(usize) -> u64) -> Context {
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(partitions)
        .build()
        .unwrap();
    for t in 0..tiles {
        let a = ctx.alloc(format!("a{t}"), 64);
        let b = ctx.alloc(format!("b{t}"), 64);
        ctx.write_host(a, &[t as f32 + 1.0; 64]).unwrap();
        let s = ctx.stream(t % streams).unwrap();
        let ms = work_ms(t);
        ctx.h2d(s, a).unwrap();
        ctx.kernel(
            s,
            KernelDesc::simulated(
                format!("tile{t}"),
                KernelProfile::streaming("k", 1e9),
                ms as f64 * 1e6,
            )
            .reading([a])
            .writing([b])
            .with_native(move |k| {
                std::thread::sleep(Duration::from_millis(ms));
                for (o, i) in k.writes[0].iter_mut().zip(k.reads[0]) {
                    *o = i * 2.0;
                }
            }),
        )
        .unwrap();
        ctx.d2h(s, b).unwrap();
    }
    ctx
}

fn price_condition(name: &'static str, mut ctx: Context, reps: usize) -> Condition {
    let kinds = SchedulerKind::all();
    let mut sim = [0.0f64; 3];
    let mut native = [0.0f64; 3];
    for (i, &kind) in kinds.iter().enumerate() {
        sim[i] = sim_ms(&mut ctx, kind);
        native[i] = native_ms(&mut ctx, kind, reps);
    }
    println!(
        "  {name:<11}: sim fifo {:>8.3} ms, heft {:>8.3} ms, steal {:>8.3} ms",
        sim[0], sim[1], sim[2]
    );
    println!(
        "  {:<11}  nat fifo {:>8.3} ms, heft {:>8.3} ms, steal {:>8.3} ms",
        "", native[0], native[1], native[2]
    );
    Condition {
        name,
        sim_ms: sim,
        native_ms: native,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mode = if quick { "quick" } else { "full" };
    let mut failures: Vec<String> = Vec::new();

    // --- App regression sweep (both modes, sim-only) -------------------
    println!("scheduler bench ({mode} mode)");
    println!("app sweep (sim, P=4): scheduled makespans vs FIFO, margin {APP_REGRESSION_MARGIN}x");
    let mut app_rows = Vec::new();
    let mut sweep = |app: &mut dyn Tunable, name: &'static str| {
        let row = sweep_app(app, name);
        println!(
            "  {:<16} T={:<3}: fifo {:>9.3} ms, heft {:>9.3} ms ({:+.1}%), steal {:>9.3} ms ({:+.1}%), fifo identical: {}",
            row.name,
            row.tiles,
            row.fifo_ms,
            row.heft_ms,
            (row.heft_ms / row.fifo_ms - 1.0) * 100.0,
            row.steal_ms,
            (row.steal_ms / row.fifo_ms - 1.0) * 100.0,
            row.fifo_identical,
        );
        app_rows.push(row);
    };
    sweep(&mut TunableHbench::new(1 << 12, 1, None), "hbench");
    sweep(&mut TunableMm::new(48, None), "mm");
    sweep(&mut TunableCf::new(48, None), "cholesky");
    sweep(&mut TunableNn::new(1 << 12, None), "nn");
    sweep(&mut TunableKmeans::new(1 << 12, 4, 2, None), "kmeans");
    sweep(
        &mut TunablePartitionMicro::new(1 << 12, 1),
        "partition-micro",
    );

    for row in &app_rows {
        if !row.fifo_identical {
            failures.push(format!(
                "{}: explicit Fifo timeline differs from the default path",
                row.name
            ));
        }
        for (label, ms) in [("heft", row.heft_ms), ("steal", row.steal_ms)] {
            if ms > row.fifo_ms * APP_REGRESSION_MARGIN {
                failures.push(format!(
                    "{}: {label} regresses {:.1}% vs fifo ({:.3} ms vs {:.3} ms)",
                    row.name,
                    (ms / row.fifo_ms - 1.0) * 100.0,
                    ms,
                    row.fifo_ms
                ));
            }
        }
    }

    // --- Synthetic workloads (full mode, sim + native) ------------------
    let mut conditions: Vec<Condition> = Vec::new();
    if !quick {
        let reps = 3;
        println!("synthetic workloads (sim + native, min of {reps} reps):");
        // Every 4th tile is 8x heavier; round-robin recording lands all
        // the heavy tiles on stream 0, so FIFO's makespan is one
        // partition's serial chain while the schedulers balance it.
        conditions.push(price_condition(
            "imbalanced",
            rig(4, 4, 16, |t| if t % 4 == 0 { 8 } else { 1 }),
            reps,
        ));
        // Fig. 10's starvation cliff: work recorded on 2 streams, 8
        // partitions available — FIFO leaves 6 of them idle.
        conditions.push(price_condition("starved", rig(8, 2, 16, |_| 2), reps));
        // Balanced control: nothing to win, the gate is not losing.
        conditions.push(price_condition("balanced", rig(4, 4, 16, |_| 2), reps));

        for c in &conditions {
            let best_sim = c.sim_ms[1].min(c.sim_ms[2]);
            let best_native = c.native_ms[1].min(c.native_ms[2]);
            match c.name {
                "balanced" => {
                    if c.sim_ms[1].max(c.sim_ms[2]) > c.sim_ms[0] * APP_REGRESSION_MARGIN {
                        failures.push(format!(
                            "balanced: a scheduler regresses >5% vs fifo on sim ({:.3}/{:.3} vs {:.3} ms)",
                            c.sim_ms[1], c.sim_ms[2], c.sim_ms[0]
                        ));
                    }
                    if c.native_ms[1].max(c.native_ms[2]) > c.native_ms[0] * NATIVE_NOISE_MARGIN {
                        failures.push(format!(
                            "balanced: a scheduler regresses beyond noise vs fifo on native ({:.3}/{:.3} vs {:.3} ms)",
                            c.native_ms[1], c.native_ms[2], c.native_ms[0]
                        ));
                    }
                }
                _ => {
                    if best_sim > c.sim_ms[0] * WIN_FACTOR {
                        failures.push(format!(
                            "{}: no scheduler wins >=10% vs fifo on sim (best {:.3} ms vs {:.3} ms)",
                            c.name, best_sim, c.sim_ms[0]
                        ));
                    }
                    if best_native > c.native_ms[0] * WIN_FACTOR {
                        failures.push(format!(
                            "{}: no scheduler wins >=10% vs fifo on native (best {:.3} ms vs {:.3} ms)",
                            c.name, best_native, c.native_ms[0]
                        ));
                    }
                }
            }
        }
    }

    if failures.is_empty() {
        println!("scheduler bench: PASS");
    } else {
        eprintln!("scheduler bench: FAIL");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
