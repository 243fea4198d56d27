//! Scheduler bench: prices the three DAG schedulers — FIFO replay, HEFT
//! list scheduling, and work stealing — against each other.
//!
//! First every shipped app on the simulator (P=4), with whether an
//! explicit `Fifo` reproduces the default path's timeline; then the
//! synthetic workloads the schedulers exist for, on both executors — an
//! imbalanced-tile pipeline where FIFO serializes all the heavy tiles onto
//! one partition, the `T < P` starvation cliff of Fig. 10 where FIFO
//! leaves most partitions idle, and a balanced control where scheduling
//! must not help or hurt. The simulated rows are gated by
//! `tests/sched_differential.rs`; the native rows are wall-clock readings
//! and only reported.

use std::time::{Duration, Instant};

use hstreams::kernel::KernelDesc;
use hstreams::{Context, SchedulerKind};
use mic_apps::tunable::{
    Tunable, TunableCf, TunableHbench, TunableKmeans, TunableMm, TunableNn, TunablePartitionMicro,
};
use micsim::compute::KernelProfile;
use micsim::PlatformConfig;

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

/// Price one shipped app on the simulator under all three schedulers, and
/// say whether the explicit-FIFO timeline matches the default path.
fn sweep_app(app: &mut dyn Tunable, name: &str) {
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
    println!(
        "  {name:<16} T={tiles:<3}: fifo {fifo_ms:>9.3} ms, heft {heft_ms:>9.3} ms ({:+.1}%), steal {steal_ms:>9.3} ms ({:+.1}%), fifo identical: {fifo_identical}",
        (heft_ms / fifo_ms - 1.0) * 100.0,
        (steal_ms / fifo_ms - 1.0) * 100.0,
    );
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

fn price_condition(name: &'static str, mut ctx: Context, reps: usize) {
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
}

fn main() {
    println!("app sweep (sim, P=4): scheduled makespans vs FIFO");
    sweep_app(&mut TunableHbench::new(1 << 12, 1, None), "hbench");
    sweep_app(&mut TunableMm::new(48, None), "mm");
    sweep_app(&mut TunableCf::new(48, None), "cholesky");
    sweep_app(&mut TunableNn::new(1 << 12, None), "nn");
    sweep_app(&mut TunableKmeans::new(1 << 12, 4, 2, None), "kmeans");
    sweep_app(
        &mut TunablePartitionMicro::new(1 << 12, 1),
        "partition-micro",
    );

    let reps = 3;
    println!("synthetic workloads (sim + native, min of {reps} reps):");
    // Every 4th tile is 8x heavier; round-robin recording lands all the
    // heavy tiles on stream 0, so FIFO's makespan is one partition's
    // serial chain while the schedulers balance it.
    price_condition(
        "imbalanced",
        rig(4, 4, 16, |t| if t % 4 == 0 { 8 } else { 1 }),
        reps,
    );
    // Fig. 10's starvation cliff: work recorded on 2 streams, 8
    // partitions available — FIFO leaves 6 of them idle.
    price_condition("starved", rig(8, 2, 16, |_| 2), reps);
    // Balanced control: nothing to win.
    price_condition("balanced", rig(4, 4, 16, |_| 2), reps);
}
