//! Differential suite for the scheduler refactor: `Fifo` must be
//! bit-identical to the pre-refactor executors on all six shipped apps,
//! and the non-FIFO schedulers must run the same work to the same
//! numerical results.
//!
//! "Pre-refactor" behavior is the default path — `Fifo` declines to
//! schedule, so both executors fall through to the exact code that ran
//! before the `sched` module existed. The pin here is that an *explicit*
//! `Fifo` selection stays on that path: identical sim timelines
//! (deterministic, so equality is exact) and identical native
//! action/byte accounting with zero steals.

use mic_streams::apps::mm::{self, MmConfig};
use mic_streams::apps::tunable::{
    Tunable, TunableCf, TunableHbench, TunableKmeans, TunableMm, TunableNn, TunablePartitionMicro,
};
use mic_streams::hstreams::context::Context;
use mic_streams::hstreams::SchedulerKind;
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

fn sim_records(ctx: &Context) -> Vec<TaskRecord> {
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

#[test]
fn scheduled_sim_runs_complete_on_all_six_apps() {
    for (name, mut app, tiles) in apps() {
        let mut ctx = recorded_ctx(app.as_mut(), tiles);
        ctx.set_scheduler(SchedulerKind::Fifo);
        let fifo = ctx.run_sim().unwrap().makespan();
        for kind in [SchedulerKind::ListHeft, SchedulerKind::WorkSteal] {
            ctx.set_scheduler(kind);
            let makespan = ctx.run_sim().unwrap().makespan();
            assert!(
                makespan > mic_streams::micsim::time::SimDuration::ZERO,
                "{name}/{kind}: empty timeline"
            );
            // The 5% regression gate lives in bench_sched; here we only pin
            // that scheduling never blows a workload up.
            assert!(
                makespan.as_secs_f64() <= fifo.as_secs_f64() * 1.5,
                "{name}/{kind}: scheduled makespan {makespan} vs fifo {fifo}"
            );
        }
    }
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
