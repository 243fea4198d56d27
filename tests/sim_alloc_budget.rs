//! A simulated run allocates per run, not per task.
//!
//! A counting global allocator tallies the allocations (fresh blocks and
//! reallocations) made on the test thread while one `run_sim` prices a
//! streamed hBench program (H2D, kernel, D2H per tile) at `P = 8`, once
//! with `T` tiles and once with `2T`. Doubling the tasks may grow each of
//! the run's growable tables once more and must add nothing else, and
//! either run stays far below one allocation per ten tasks.
//!
//! Measured (x86-64, release): 33 allocations at `T = 192` (576 tasks) and
//! 33 at `2T = 384` (1 152 tasks). Before tasks were tagged instead of
//! labelled and the happens-before edges were laid out flat, the same runs
//! made 1 791 and 3 522: a label per task and two edge lists per node.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mic_apps::hbench::{overlap_program, OverlapVariant};
use micsim::PlatformConfig;

struct Counting;

thread_local! {
    /// Allocations seen on this thread while counting (`Some`).
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note() {
    // `try_with`: the allocator may run while the thread-local is torn down.
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialised thread-local that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).expect("counting was on");
    (n, out)
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
