//! Persistent partition-pinned worker pool for the native executor.
//!
//! The paper's methodology is *repeated* execution: every `(P, T)` point is
//! run many times and averaged, and the Sec. V-C tuning loop replays
//! hundreds of configurations. A runtime that spawns OS threads on every
//! kernel launch therefore measures its own spawn cost, not the modeled
//! platform's launch overhead. This module keeps the threads alive instead:
//!
//! * a [`WorkerGroup`] is a set of long-lived threads parked on a condvar
//!   between jobs, with a chunked-task submit API (the submitting thread
//!   participates in the job, so a group of size `n` brings `n - 1` extra
//!   threads);
//! * a [`WorkerPool`] owns one group per `(device, partition)` pair — the
//!   *partition-pinned* groups kernels split their work across — plus one
//!   group for host-side kernels, sized from `available_parallelism` and
//!   the partition geometry exactly like the per-kernel `threads` hint;
//! * a thread-local **current group** lets
//!   [`par_chunks_mut`](crate::parallel::par_chunks_mut),
//!   [`par_rows_mut`](crate::parallel::par_rows_mut) and
//!   [`par_reduce`](crate::parallel::par_reduce) route work onto the pool
//!   without a pool argument: the native executor installs the kernel's
//!   partition group around every kernel body, and the helpers fall back
//!   to `std::thread::scope` only when called outside a kernel (no group
//!   installed) or nested inside a chunk.
//!
//! # Panic behaviour
//!
//! A panic inside a submitted task is caught on the worker, the job is
//! still driven to completion on every thread (the borrowed data must
//! outlive all workers), and the first payload is re-raised on the
//! submitting thread — the same observable behaviour as
//! `std::thread::scope`.

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

/// A lifetime-erased pointer to the current job's task. Only dereferenced
/// between job publication and the `remaining == 0` handshake, during which
/// the submitting call keeps the referent alive.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and the submit protocol bounds its use to the submitting call's lifetime.
unsafe impl Send for TaskPtr {}

#[derive(Clone, Copy)]
struct Job {
    task: TaskPtr,
    /// Number of task indices in this job.
    parts: usize,
    /// `true`: worker `i` runs exactly index `i + 1` (the submitter runs
    /// index 0) — used for stream drivers, which may block on each other
    /// and therefore need one dedicated thread per index. `false`: all
    /// threads claim indices from a shared counter until none remain.
    fixed: bool,
}

struct GroupState {
    /// Incremented once per submitted job; workers detect work by epoch.
    epoch: u64,
    job: Option<Job>,
    /// Workers still executing the current job.
    remaining: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<GroupState>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The submitter parks here until `remaining == 0`.
    done_cv: Condvar,
    /// Claim counter for non-fixed (chunked) jobs.
    next: AtomicUsize,
    /// First panic payload raised by a worker during the current job.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A set of persistent threads executing chunked jobs. See module docs.
pub(crate) struct WorkerGroup {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerGroup {
    /// Create a group contributing `extra_workers` persistent threads; with
    /// the submitting thread, jobs run `extra_workers + 1` wide. `label`
    /// names the OS threads (visible in debuggers and `/proc`).
    pub(crate) fn new(label: &str, extra_workers: usize) -> WorkerGroup {
        let shared = Arc::new(Shared {
            state: Mutex::new(GroupState {
                epoch: 0,
                job: None,
                remaining: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        let handles = (0..extra_workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("hsp-{label}-w{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerGroup { shared, handles }
    }

    /// Persistent threads owned by this group.
    pub(crate) fn worker_count(&self) -> usize {
        self.handles.len()
    }

    /// Run `task(idx)` for every `idx in 0..parts`, splitting the indices
    /// across this group's threads and the calling thread. Returns when all
    /// parts completed. Indices are claimed dynamically, so `parts` may be
    /// smaller or larger than the thread count.
    ///
    /// When the calling thread has a trace sink installed (native tracing
    /// on), the whole job is stamped as one span; otherwise the only added
    /// cost is a thread-local read.
    pub(crate) fn run_chunked(&self, parts: usize, task: &(dyn Fn(usize) + Sync)) {
        let traced = crate::trace::pool_job_start();
        if parts <= 1 || self.handles.is_empty() {
            for idx in 0..parts {
                task(idx);
            }
        } else {
            self.run_protocol(parts, false, task);
        }
        if let Some(start) = traced {
            crate::trace::record_pool_job(start, parts, self.handles.len() + 1);
        }
    }

    /// Run `task(idx)` for every `idx in 0..parts` with a **dedicated**
    /// thread per index (the caller takes index 0), so tasks may block on
    /// one another. Requires `parts <= worker_count() + 1`.
    pub(crate) fn run_fixed(&self, parts: usize, task: &(dyn Fn(usize) + Sync)) {
        assert!(
            parts <= self.handles.len() + 1,
            "fixed job of {} parts exceeds group width {}",
            parts,
            self.handles.len() + 1
        );
        if parts == 0 {
            return;
        }
        if parts == 1 {
            task(0);
            return;
        }
        self.run_protocol(parts, true, task);
    }

    fn run_protocol(&self, parts: usize, fixed: bool, task: &(dyn Fn(usize) + Sync)) {
        let shared = &self.shared;
        // SAFETY (lifetime erasure): workers dereference `task` only while
        // `remaining > 0` for this job, and this function does not return —
        // even when the submitter's own share panics — until `remaining`
        // reaches 0. The borrow therefore strictly outlives every use.
        let erased = TaskPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        });
        {
            let mut st = self.shared.state.lock();
            debug_assert!(st.remaining == 0 && st.job.is_none(), "group job overlap");
            shared.next.store(0, Ordering::Relaxed);
            st.job = Some(Job {
                task: erased,
                parts,
                fixed,
            });
            st.remaining = self.handles.len();
            st.epoch += 1;
        }
        shared.work_cv.notify_all();
        // The submitting thread works too: index 0 when fixed, otherwise
        // claiming chunks like any worker.
        let own = catch_unwind(AssertUnwindSafe(|| {
            if fixed {
                task(0);
            } else {
                claim_loop(shared, parts, task);
            }
        }));
        {
            let mut st = shared.state.lock();
            while st.remaining != 0 {
                shared.done_cv.wait(&mut st);
            }
            st.job = None;
        }
        // Take the stored payload *before* unwinding: `resume_unwind` inside
        // an `if let` on `panic.lock().take()` would hold the guard across
        // the unwind and poison the mutex, killing the next panicking job's
        // worker outside its catch (and deadlocking the group).
        let stored = shared.panic.lock().take();
        if let Err(payload) = own {
            resume_unwind(payload);
        }
        if let Some(payload) = stored {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerGroup {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn claim_loop(shared: &Shared, parts: usize, task: &(dyn Fn(usize) + Sync)) {
    loop {
        let idx = shared.next.fetch_add(1, Ordering::Relaxed);
        if idx >= parts {
            return;
        }
        task(idx);
    }
}

fn worker_loop(shared: &Shared, worker_idx: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job.expect("epoch advanced with job published");
                }
                shared.work_cv.wait(&mut st);
            }
        };
        // SAFETY: see `run_protocol` — the submitter keeps the task alive
        // until this thread decrements `remaining` below.
        let task = unsafe { &*job.task.0 };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if job.fixed {
                let idx = worker_idx + 1;
                if idx < job.parts {
                    task(idx);
                }
            } else {
                claim_loop(shared, job.parts, task);
            }
        }));
        if let Err(payload) = outcome {
            let mut slot = shared.panic.lock();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut st = shared.state.lock();
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

// ----- the pool ------------------------------------------------------------

/// One [`WorkerGroup`] per `(device, partition)` pair plus a host group.
/// Owned by a `Context` and reused for every native run. See module docs.
pub(crate) struct WorkerPool {
    partition_groups: Vec<Vec<Arc<WorkerGroup>>>,
    host_group: Arc<WorkerGroup>,
}

impl WorkerPool {
    /// Build groups for `devices × partitions`, each `threads_per_partition`
    /// wide (one of which is the submitting driver thread), mirroring how
    /// partitions share the card — and the host.
    pub(crate) fn for_geometry(
        devices: usize,
        partitions: usize,
        threads_per_partition: usize,
    ) -> WorkerPool {
        let width = threads_per_partition.max(1);
        let partition_groups = (0..devices)
            .map(|d| {
                (0..partitions)
                    .map(|p| Arc::new(WorkerGroup::new(&format!("d{d}p{p}"), width - 1)))
                    .collect()
            })
            .collect();
        WorkerPool {
            partition_groups,
            host_group: Arc::new(WorkerGroup::new("host", width - 1)),
        }
    }

    /// The group pinned to `(device, partition)`.
    pub(crate) fn partition(&self, device: usize, partition: usize) -> &Arc<WorkerGroup> {
        &self.partition_groups[device][partition]
    }

    /// The group host-side kernels split across.
    pub(crate) fn host(&self) -> &Arc<WorkerGroup> {
        &self.host_group
    }

    /// Total persistent threads owned by the pool.
    pub(crate) fn thread_count(&self) -> usize {
        self.partition_groups
            .iter()
            .flatten()
            .map(|g| g.worker_count())
            .sum::<usize>()
            + self.host_group.worker_count()
    }
}

// ----- thread-local current group ------------------------------------------

thread_local! {
    static CURRENT_GROUP: RefCell<Option<Arc<WorkerGroup>>> = const { RefCell::new(None) };
}

/// Installs `group` as the calling thread's current group for the guard's
/// lifetime; restores the previous value on drop.
pub(crate) struct InstallGuard {
    previous: Option<Arc<WorkerGroup>>,
}

/// Make `group` the pool the parallel helpers on this thread submit to.
pub(crate) fn install(group: Arc<WorkerGroup>) -> InstallGuard {
    let previous = CURRENT_GROUP.with(|c| c.borrow_mut().replace(group));
    InstallGuard { previous }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT_GROUP.with(|c| *c.borrow_mut() = self.previous.take());
    }
}

/// The current group, *removed* from the thread-local for the returned
/// guard's lifetime (restored on drop). Taking instead of peeking makes a
/// nested parallel call from inside a chunk fall back to scoped spawning
/// rather than deadlocking on its own group.
pub(crate) struct CurrentGroup {
    group: Arc<WorkerGroup>,
}

impl CurrentGroup {
    /// Take the calling thread's current group, if one is installed.
    pub(crate) fn take() -> Option<CurrentGroup> {
        CURRENT_GROUP
            .with(|c| c.borrow_mut().take())
            .map(|group| CurrentGroup { group })
    }
}

impl std::ops::Deref for CurrentGroup {
    type Target = WorkerGroup;
    fn deref(&self) -> &WorkerGroup {
        &self.group
    }
}

impl Drop for CurrentGroup {
    fn drop(&mut self) {
        CURRENT_GROUP.with(|c| *c.borrow_mut() = Some(self.group.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn chunked_covers_every_index_once() {
        let group = WorkerGroup::new("t0", 3);
        let hits: Vec<AtomicUsize> = (0..17).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..50 {
            group.run_chunked(hits.len(), &|idx| {
                hits[idx].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 50);
        }
    }

    #[test]
    fn chunked_runs_inline_without_workers() {
        let group = WorkerGroup::new("t1", 0);
        let main_thread = std::thread::current().id();
        group.run_chunked(4, &|_| {
            assert_eq!(std::thread::current().id(), main_thread);
        });
    }

    #[test]
    fn fixed_gives_each_index_a_dedicated_thread() {
        // Tasks block on each other pairwise: only per-index threads work.
        let group = WorkerGroup::new("t2", 1);
        let turn = AtomicUsize::new(0);
        group.run_fixed(2, &|idx| {
            if idx == 0 {
                while turn.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
            } else {
                turn.store(1, Ordering::Release);
            }
        });
        assert_eq!(turn.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds group width")]
    fn fixed_rejects_oversized_jobs() {
        WorkerGroup::new("t3", 1).run_fixed(3, &|_| {});
    }

    #[test]
    fn worker_panic_resurfaces_on_submitter_and_group_survives() {
        let group = WorkerGroup::new("t4", 2);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            group.run_chunked(8, &|idx| {
                if idx == 5 {
                    panic!("chunk 5 exploded");
                }
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("chunk 5"), "unexpected payload: {msg}");
        // The group still works after the panic.
        let count = AtomicU64::new(0);
        group.run_chunked(8, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn jobs_borrow_stack_data() {
        let group = WorkerGroup::new("t5", 3);
        let data: Vec<u64> = (0..1000).collect();
        let total = AtomicU64::new(0);
        group.run_chunked(10, &|idx| {
            let sum: u64 = data[idx * 100..(idx + 1) * 100].iter().sum();
            total.fetch_add(sum, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 499_500);
    }

    #[test]
    fn pool_geometry_and_thread_count() {
        let pool = WorkerPool::for_geometry(2, 3, 4);
        // 6 partition groups × 3 extra workers + host group × 3.
        assert_eq!(pool.thread_count(), 21);
        assert_eq!(pool.partition(1, 2).worker_count(), 3);
        assert_eq!(pool.host().worker_count(), 3);
    }

    #[test]
    fn current_group_take_and_restore() {
        assert!(CurrentGroup::take().is_none());
        let group = Arc::new(WorkerGroup::new("t6", 0));
        let guard = install(group.clone());
        {
            let taken = CurrentGroup::take().expect("installed");
            // While taken, a nested take sees nothing (deadlock guard).
            assert!(CurrentGroup::take().is_none());
            drop(taken);
        }
        assert!(CurrentGroup::take().is_some(), "restored after drop");
        drop(guard);
        assert!(CurrentGroup::take().is_none(), "uninstalled with guard");
    }

    #[test]
    fn parked_workers_cost_no_cpu_to_resubmit() {
        // Smoke test that repeated submits complete quickly (no respawn).
        let group = WorkerGroup::new("t7", 2);
        let start = std::time::Instant::now();
        for _ in 0..1000 {
            group.run_chunked(3, &|_| {});
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "1000 submits took {:?}",
            start.elapsed()
        );
    }
}
