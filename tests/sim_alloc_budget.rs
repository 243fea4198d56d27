//! Pricing a tuning candidate allocates per run and per tiling, not per
//! task or per launch.
//!
//! A counting global allocator tallies the allocations (fresh blocks and
//! reallocations) made on the test thread, in two budgets:
//!
//! * **A simulated run.** One `run_sim` prices a streamed hBench program
//!   (H2D, kernel, D2H per tile) at `P = 8`, once with `T` tiles and once
//!   with `2T`. Doubling the tasks may grow each of the run's growable
//!   tables once more and must add nothing else, and either run stays far
//!   below one allocation per ten tasks.
//!
//!   Measured (x86-64, release): 33 allocations at `T = 192` (576 tasks)
//!   and 33 at `2T = 384` (1 152 tasks). Before tasks were tagged instead
//!   of labelled and the happens-before edges were laid out flat, the same
//!   runs made 1 791 and 3 522: a label per task and two edge lists per
//!   node.
//!
//! * **A recorded candidate.** For each of the five tunable apps, a warm
//!   `replan(P)` plus `record(T)` at an already-built tiling, at two
//!   tilings the second of which launches about twice the kernels. Both
//!   make the same small number of allocations, whatever the launch count.
//!
//!   Measured (x86-64, release, `P = 4`): hBench 1 and 1 allocations (32
//!   and 64 launches), MM 4 and 4 (16, 36), CF 2 and 2 (20, 35), NN 1 and 1
//!   (32, 64), Kmeans 4 and 4 (51, 99). Before labels, buffer lists and
//!   names were kept inline, bodies shared per tiling and `replan` reused
//!   the program's storage, a recorded candidate made about five
//!   allocations per kernel launch (a label, the profile's name, two buffer
//!   lists, a body) plus its stream queues' growth.

mod alloc_counter;

use hstreams::action::Action;
use hstreams::context::Context;
use mic_apps::hbench::{overlap_program, OverlapVariant};
use mic_apps::tunable::{Tunable, TunableCf, TunableHbench, TunableKmeans, TunableMm, TunableNn};
use micsim::PlatformConfig;

/// Allocations made by `f` on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let ((on_this_thread, _), out) = alloc_counter::counted(f);
    (on_this_thread, out)
}

/// `(allocations, tasks)` of one warm `run_sim` of `tiles` streamed tiles.
fn run_sim_allocations(tiles: usize) -> (u64, usize) {
    let elems = tiles * 1024;
    let ctx = overlap_program(
        PlatformConfig::phi_31sp(),
        elems,
        4,
        8,
        OverlapVariant::Streamed { tiles },
    )
    .expect("hBench records");
    ctx.run_sim().expect("warm-up run");
    let (count, report) = allocations(|| ctx.run_sim().expect("hBench simulates"));
    (count, report.timeline.records.len())
}

#[test]
fn a_simulated_run_allocates_per_run_not_per_task() {
    let t = 192;
    let (small, small_tasks) = run_sim_allocations(t);
    let (large, large_tasks) = run_sim_allocations(2 * t);
    eprintln!("T = {t}: {small} allocations, {small_tasks} tasks");
    eprintln!("2T = {}: {large} allocations, {large_tasks} tasks", 2 * t);
    assert!(large_tasks >= 1000, "{large_tasks} tasks at 2T");
    assert!(
        small < small_tasks as u64 / 10,
        "{small} allocations for {small_tasks} tasks"
    );
    assert!(
        large < large_tasks as u64 / 10,
        "{large} allocations for {large_tasks} tasks"
    );
    assert!(
        large - small.min(large) <= GROWABLE_TABLES,
        "{small} -> {large}"
    );
}

/// Tables a run grows by pushing rather than sizing up front, each of
/// which may double once more when the task count doubles: the lowering's
/// dependency scratch vector, the topological sweep's ready-join list and
/// the check report's diagnostics.
const GROWABLE_TABLES: u64 = 3;

/// Kernel launches in the recorded program.
fn launches(ctx: &Context) -> usize {
    ctx.program()
        .streams
        .iter()
        .flat_map(|s| &s.actions)
        .filter(|a| matches!(a, Action::Kernel(_)))
        .count()
}

/// `(allocations, launches)` of one warm `replan(p)` plus `record(t)`.
fn record_allocations(
    app: &mut dyn Tunable,
    ctx: &mut Context,
    p: usize,
    t: usize,
) -> (u64, usize) {
    let (count, ()) = allocations(|| {
        ctx.replan(p).expect("replans");
        app.record(ctx, t).expect("records");
    });
    (count, launches(ctx))
}

/// Allocations a warm recorded candidate may make, whatever its launch
/// count (at most 4 measured). What is left is per record, not per launch:
/// the new partition plan, the residency tracker's table and per-panel
/// flags (MM, CF), and one spilled read list per Kmeans iteration (its
/// reduce reads a partial per tile).
const RECORD_BUDGET: u64 = 8;

#[test]
fn a_recorded_candidate_allocates_per_tiling_not_per_launch() {
    let p = 4;
    let apps: [(Box<dyn Tunable>, usize, usize); 5] = [
        (Box::new(TunableHbench::new(1 << 16, 4, None)), 32, 64),
        (Box::new(TunableMm::new(96, None)), 16, 36),
        (Box::new(TunableCf::new(120, None)), 16, 25),
        (Box::new(TunableNn::new(1 << 14, None)), 32, 64),
        (Box::new(TunableKmeans::new(1 << 12, 8, 3, None)), 16, 32),
    ];
    for (mut app, t, t2) in apps {
        let name = app.name();
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .build()
            .expect("context builds");
        // Build both tilings and grow the queues to the larger one.
        for tiles in [t, t2, t] {
            ctx.replan(p).unwrap();
            app.record(&mut ctx, tiles).unwrap();
        }
        let (small, small_launches) = record_allocations(app.as_mut(), &mut ctx, p, t);
        let (large, large_launches) = record_allocations(app.as_mut(), &mut ctx, p, t2);
        eprintln!("{name}: T = {t}: {small} allocations, {small_launches} launches");
        eprintln!("{name}: T = {t2}: {large} allocations, {large_launches} launches");
        assert!(
            large_launches * 10 >= small_launches * 17,
            "{name}: {small_launches} -> {large_launches} launches"
        );
        assert!(
            small <= RECORD_BUDGET,
            "{name}: {small} allocations at T = {t}"
        );
        assert_eq!(small, large, "{name}: T = {t} -> {t2}");
    }
}
