//! Differential suite for the DAG schedulers: an explicit `Fifo` must be
//! bit-identical to the default (recorded-order) path on all six shipped
//! apps, the non-FIFO schedulers must run the same work to the same
//! numerical results, and on the simulator they must not lose to FIFO.
//!
//! The default path runs the recorded program in stream order; the pin
//! here is that selecting `Fifo` explicitly changes nothing: identical sim
//! timelines (deterministic, so equality is exact) and identical native
//! action/byte accounting with zero steals. `ListHeft` and `WorkSteal`
//! stay within 5 % of FIFO's simulated makespan on the shipped apps, win
//! ≥ 10 % on the imbalanced and starved synthetic rigs the schedulers
//! exist for, and do not lose on a balanced control.

use mic_streams::apps::mm::{self, MmConfig};
use mic_streams::apps::tunable::{
    Tunable, TunableCf, TunableHbench, TunableKmeans, TunableMm, TunableNn, TunablePartitionMicro,
};
use mic_streams::hstreams::context::Context;
use mic_streams::hstreams::kernel::KernelDesc;
use mic_streams::hstreams::{SchedulerKind, TaskTag};
use mic_streams::micsim::compute::KernelProfile;
use mic_streams::micsim::engine::TaskRecord;
use mic_streams::micsim::PlatformConfig;

const PARTITIONS: usize = 4;

/// The six shipped apps at one modest feasible `(P, T)` each.
fn apps() -> Vec<(&'static str, Box<dyn Tunable>, usize)> {
    vec![
        (
            "hbench",
            Box::new(TunableHbench::new(1 << 10, 1, Some(9))) as Box<dyn Tunable>,
            8,
        ),
        ("mm", Box::new(TunableMm::new(32, Some(9))), 4),
        ("cholesky", Box::new(TunableCf::new(32, Some(9))), 4),
        ("nn", Box::new(TunableNn::new(1 << 10, Some(9))), 8),
        (
            "kmeans",
            Box::new(TunableKmeans::new(1 << 10, 4, 2, Some(9))),
            8,
        ),
        (
            "partition-micro",
            Box::new(TunablePartitionMicro::new(1 << 10, 1)),
            8,
        ),
    ]
}

fn recorded_ctx(app: &mut dyn Tunable, tiles: usize) -> Context {
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(PARTITIONS)
        .build()
        .unwrap();
    assert!(app.feasible(tiles), "chosen tile count must be feasible");
    app.record(&mut ctx, tiles).unwrap();
    ctx
}

fn sim_records(ctx: &Context) -> Vec<TaskRecord<TaskTag>> {
    ctx.run_sim().unwrap().timeline.records.clone()
}

#[test]
fn fifo_sim_timelines_are_bit_identical_to_the_default_path_on_all_six_apps() {
    for (name, mut app, tiles) in apps() {
        let mut ctx = recorded_ctx(app.as_mut(), tiles);
        let default_records = sim_records(&ctx);
        ctx.set_scheduler(SchedulerKind::Fifo);
        let fifo_records = sim_records(&ctx);
        assert_eq!(
            default_records, fifo_records,
            "{name}: explicit Fifo must replay the default timeline exactly"
        );
        // Determinism backstop: the comparison above is only meaningful
        // because repeated sim runs are bit-identical.
        assert_eq!(
            fifo_records,
            sim_records(&ctx),
            "{name}: sim not deterministic"
        );
    }
}

/// A scheduled sim run may not regress more than 5 % against FIFO on a
/// shipped app (these apps are already balanced, so the schedulers have
/// nothing to win; the gate is that they also cannot lose).
const APP_REGRESSION_MARGIN: f64 = 1.05;
/// On the imbalanced and starved rigs the better scheduler must reach
/// ≤ 90 % of FIFO's makespan.
const WIN_FACTOR: f64 = 0.90;

/// FIFO's, HEFT's and work stealing's simulated makespans, in seconds.
fn sim_makespans(ctx: &mut Context) -> [f64; 3] {
    SchedulerKind::all().map(|kind| {
        ctx.set_scheduler(kind);
        ctx.run_sim().unwrap().makespan().as_secs_f64()
    })
}

#[test]
fn scheduled_sim_runs_complete_on_all_six_apps() {
    let apps: Vec<(&str, Box<dyn Tunable>)> = vec![
        ("hbench", Box::new(TunableHbench::new(1 << 12, 1, None))),
        ("mm", Box::new(TunableMm::new(48, None))),
        ("cholesky", Box::new(TunableCf::new(48, None))),
        ("nn", Box::new(TunableNn::new(1 << 12, None))),
        ("kmeans", Box::new(TunableKmeans::new(1 << 12, 4, 2, None))),
        (
            "partition-micro",
            Box::new(TunablePartitionMicro::new(1 << 12, 1)),
        ),
    ];
    for (name, mut app) in apps {
        let tiles = [8usize, 4, 9, 16, 2, 1]
            .into_iter()
            .find(|&t| app.feasible(t))
            .expect("a feasible tile count");
        let mut ctx = recorded_ctx(app.as_mut(), tiles);
        let default_records = sim_records(&ctx);
        let [fifo, heft, steal] = sim_makespans(&mut ctx);
        ctx.set_scheduler(SchedulerKind::Fifo);
        assert_eq!(
            sim_records(&ctx),
            default_records,
            "{name}: explicit Fifo must replay the default timeline exactly"
        );
        for (kind, makespan) in [("heft", heft), ("steal", steal)] {
            assert!(makespan > 0.0, "{name}/{kind}: empty timeline");
            assert!(
                makespan <= fifo * APP_REGRESSION_MARGIN,
                "{name}/{kind} T={tiles}: scheduled makespan {makespan} s vs fifo {fifo} s"
            );
        }
    }
}

/// A tiled transfer/kernel/transfer pipeline with per-tile simulated work
/// of `work_ms(tile)`, recorded round-robin over `streams` streams on a
/// `partitions`-partition context.
fn rig(partitions: usize, streams: usize, tiles: usize, work_ms: impl Fn(usize) -> u64) -> Context {
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(partitions)
        .build()
        .unwrap();
    for t in 0..tiles {
        let a = ctx.alloc(format!("a{t}"), 64);
        let b = ctx.alloc(format!("b{t}"), 64);
        let s = ctx.stream(t % streams).unwrap();
        ctx.h2d(s, a).unwrap();
        ctx.kernel(
            s,
            KernelDesc::simulated(
                format!("tile{t}"),
                KernelProfile::streaming("k", 1e9),
                work_ms(t) as f64 * 1e6,
            )
            .reading([a])
            .writing([b]),
        )
        .unwrap();
        ctx.d2h(s, b).unwrap();
    }
    ctx
}

#[test]
fn schedulers_win_where_fifo_strands_work_and_hold_on_a_balanced_rig() {
    // Every 4th tile is 8x heavier; round-robin recording lands all the
    // heavy tiles on stream 0, so FIFO's makespan is one partition's
    // serial chain while the schedulers balance it.
    let imbalanced = rig(4, 4, 16, |t| if t % 4 == 0 { 8 } else { 1 });
    // Fig. 10's starvation cliff: work recorded on 2 streams, 8
    // partitions available — FIFO leaves 6 of them idle.
    let starved = rig(8, 2, 16, |_| 2);
    for (name, mut ctx) in [("imbalanced", imbalanced), ("starved", starved)] {
        let [fifo, heft, steal] = sim_makespans(&mut ctx);
        assert!(
            heft.min(steal) <= fifo * WIN_FACTOR,
            "{name}: no scheduler wins ≥ 10 % vs fifo (heft {heft} s, steal {steal} s, fifo {fifo} s)"
        );
    }
    // Balanced control: nothing to win, the gate is not losing.
    let [fifo, heft, steal] = sim_makespans(&mut rig(4, 4, 16, |_| 2));
    assert!(
        heft.max(steal) <= fifo * APP_REGRESSION_MARGIN,
        "balanced: a scheduler regresses > 5 % vs fifo (heft {heft} s, steal {steal} s, fifo {fifo} s)"
    );
}

#[test]
fn fifo_native_runs_match_the_default_path_on_all_six_apps() {
    for (name, mut app, tiles) in apps() {
        let mut ctx = recorded_ctx(app.as_mut(), tiles);
        let default_report = ctx.run_native().unwrap();
        ctx.set_scheduler(SchedulerKind::Fifo);
        let fifo_report = ctx.run_native().unwrap();
        assert_eq!(
            default_report.actions_executed, fifo_report.actions_executed,
            "{name}: explicit Fifo executed different work than the default"
        );
        assert_eq!(
            default_report.bytes_transferred, fifo_report.bytes_transferred,
            "{name}: explicit Fifo moved different bytes than the default"
        );
        assert_eq!(fifo_report.steals, 0, "{name}: FIFO must never steal");
    }
}

#[test]
fn mm_native_outputs_are_bit_identical_across_all_schedulers() {
    let cfg = MmConfig {
        n: 48,
        tiles_per_dim: 2,
    };
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(PARTITIONS)
        .build()
        .unwrap();
    let bufs = mm::build(&mut ctx, &cfg).unwrap();
    mm::fill_inputs(&ctx, &cfg, &bufs, 2026).unwrap();
    ctx.run_native().unwrap();
    let expected = mm::collect_result(&ctx, &cfg, &bufs).unwrap().data;
    for kind in SchedulerKind::all() {
        ctx.set_scheduler(kind);
        ctx.run_native().unwrap();
        let got = mm::collect_result(&ctx, &cfg, &bufs).unwrap().data;
        assert_eq!(got, expected, "{kind}: scheduled MM output diverged");
    }
}
