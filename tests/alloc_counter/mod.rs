//! The counting global allocator of the allocation-budget tests. It
//! tallies every allocation (fresh blocks and reallocations) twice: on the
//! thread that makes it, while that thread counts, and process-wide —
//! a native run allocates on its driver threads as well as on the caller's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

thread_local! {
    /// Allocations seen on this thread while counting (`Some`).
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Allocations made on any thread since the process started.
static PROCESS: AtomicU64 = AtomicU64::new(0);

fn note() {
    PROCESS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: the allocator may run while the thread-local is torn down.
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are an
// atomic and a const-initialised thread-local, neither of which allocates.
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

/// Allocations made while `f` runs: `(on this thread, on every thread)`.
/// The process-wide count is exact only while no other test runs.
pub fn counted<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    COUNT.with(|c| c.set(Some(0)));
    let before = PROCESS.load(Ordering::SeqCst);
    let out = f();
    let process = PROCESS.load(Ordering::SeqCst) - before;
    let here = COUNT.with(|c| c.replace(None)).expect("counting was on");
    ((here, process), out)
}
