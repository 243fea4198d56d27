//! The native executor.
//!
//! Executes a recorded program for real on the host. There is one way to run:
//! a dependence graph whose nodes carry a counter of unfinished predecessors,
//! an ordered queue of nodes per **driver thread**, and one loop (`drive`)
//! every driver runs — take the next node, do its action, decrement its
//! successors' counters, wake the driver that sleeps for one that reached
//! zero. What the graph and the queues are is the only thing two kinds of
//! run differ in — the `Walk` the executors' one front end hands over (see
//! [`executor`](super)), after the refusals both executors share; only a
//! kernel without a native body is refused here alone:
//!
//! * a **recorded** run walks the checker's happens-before graph
//!   ([`crate::check::HbGraph`]: per-stream FIFO, event edges from the
//!   events table, barrier joins) with one driver per stream taking that
//!   stream's actions strictly in order. Only control actions ever wait: a
//!   `WaitEvent` for its own counter, a `Barrier` — after arriving — for what
//!   the barrier's join releases, both inside their recorded span;
//! * a **scheduled** run ([`crate::sched`]) walks the plan's task graph with
//!   one driver per `(device, partition)`: it takes the first ready node of
//!   its own queue (`ListHeft` seeds the queues from the planned drivers,
//!   `WorkSteal` from the recorded placements), else steals a ready node
//!   from the back of a sibling's queue, else sleeps until one becomes ready.
//!
//! A driver about to wait names what it sleeps for in an atomic, looks
//! once more and parks its thread; a step nobody sleeps for costs neither
//! a lock nor a system call. When the process may run on one CPU only,
//! a driver first yields its core once and looks again: the driver it
//! waits for then finishes the step, with no park and no wake.
//! The payload step (`run_payload`: loss and taint checks, fault injection,
//! retries, then the action itself) is shared too:
//!
//! * a **link lane** per `(device, channel)` — a FIFO ticket lock, not a
//!   thread: the submitting driver takes the lane, copies between the
//!   buffer's host and device storage itself, and releases it. One lane in
//!   serial-duplex mode reproduces the Phi's serialized H2D/D2H behaviour
//!   in real execution, optionally throttled to a configured bandwidth;
//! * kernels take their partition's mutex (streams sharing a partition
//!   serialize, as on the card), lock their declared buffers in global id
//!   order (deadlock-free), and run their native body with a `threads` hint
//!   sized from the partition.
//!
//! # Persistent runtime
//!
//! The context lazily builds a `NativeRuntime` on its first native run and
//! reuses it for every run after that: the drivers are a parked
//! `WorkerGroup`, and each `(device, partition)` pair owns a
//! partition-pinned worker group that
//! [`par_chunks_mut`](crate::parallel::par_chunks_mut) and
//! [`par_reduce`](crate::parallel::par_reduce) pick up inside kernel
//! bodies. Repeated runs of the same context — the paper's measurement
//! loop — therefore spawn no OS threads at all, and a transfer hands
//! nothing to another thread: drivers and pool workers are the only
//! threads a context owns.
//!
//! One loss policy, with or without a fault plan: a device kernel that
//! panics takes its partition with it ([`Error::PartitionLost`]), a host
//! kernel's panic is [`Error::KernelPanicked`], a transfer out of retries
//! [`Error::Fault`]. Whatever is lost, or later runs on a lost partition or
//! touches a buffer a loss touched, is skipped and recorded; control
//! actions still run so every driver drains, and the first error is
//! reported at the end. The recovery policy lives here too:
//! [`Context::run_native_resilient`] forwards to a loop that re-plans what
//! a pass lost onto the surviving partitions and walks that plan.
//!
//! # Telemetry
//!
//! While a run is live the executor writes to one thing, the span
//! `Recorder` of `crate::trace` — one `Option` branch per action, kernel and transfer.
//! Everything else is derived once the drivers have joined: the
//! [`NativeTrace`] and its counters from the spans, and
//! [`NativeReport::metrics`] from that trace's timeline by the function
//! that prices the simulator's (`metrics::instruments::price_run`).
//! [`NativeConfig::trace`] and [`NativeConfig::metrics`] each turn the
//! recorder on; they differ only in which output they attach.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::task::Poll;
use std::thread::Thread;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLockReadGuard, RwLockWriteGuard};

use micsim::pcie::Direction;

use super::{prepare, Walk, WalkMemo};
use crate::action::Action;
use crate::buffer::Elem;
use crate::check::Site;
use crate::context::Context;
use crate::fault::{self, FaultCounters, FaultTallies, RecoveryState, ResilientReport};
use crate::inline::{InlineVec, INLINE_ACCESSES};
use crate::kernel::KernelCtx;
use crate::metrics::instruments::{price_run, RunCounts};
use crate::metrics::MetricsSnapshot;
use crate::pool::{self, WorkerGroup, WorkerPool};
use crate::sched::{CostModel, Lane, Schedule, ScheduledTask, TaskGraph};
use crate::trace::{NativeTrace, Recorder, Recording};
use crate::types::{BufId, Error, Result, RunFailure};

/// Settings for native execution.
#[derive(Clone, Debug, Default)]
pub struct NativeConfig {
    /// Upper bound on the `threads` hint given to kernels. `None` sizes it
    /// as `available_parallelism / partitions` (at least 1), so partitions
    /// genuinely share the host like they share the card.
    pub max_threads_per_partition: Option<usize>,
    /// Emulate PCIe bandwidth: each copy holds its link lane for at least
    /// `bytes / bandwidth` seconds. `None` copies at memory speed.
    pub link_bandwidth: Option<f64>,
    /// Attach the run's [`NativeTrace`] to [`NativeReport::trace`] — the
    /// same `Timeline` representation the simulator produces, so overlap
    /// stats, Gantt and Chrome-trace export work on real runs unchanged —
    /// or, when the run fails after it started, the partial trace to its
    /// [`RunFailure::trace`]. This and [`metrics`](NativeConfig::metrics)
    /// each turn the one span recorder on and differ only in the output
    /// they attach. With both off (the default) a run pays one branch per
    /// action.
    pub trace: bool,
    /// Attach run metrics (see [`crate::metrics`]) to
    /// [`NativeReport::metrics`]: the full instrument catalog, priced from
    /// the recorded timeline once the drivers have joined — the same
    /// function prices the simulator's ([`SimReport::metrics`](crate::SimReport::metrics)).
    /// Metrics alone attach no trace.
    pub metrics: bool,
}

/// Result of a native run.
#[derive(Debug)]
pub struct NativeReport {
    /// Wall-clock time of the whole run (drivers released to last one done).
    pub wall: Duration,
    /// Actions executed across all streams.
    pub actions_executed: usize,
    /// Total bytes moved over the link lane(s).
    pub bytes_transferred: u64,
    /// The measured timeline, when [`NativeConfig::trace`] was set (`None`
    /// for untraced runs and for empty programs).
    pub trace: Option<NativeTrace>,
    /// Fault-path totals: retries, injected panics, skips. All zero on a
    /// clean run without a fault plan.
    pub faults: FaultCounters,
    /// Kernels executed on a different partition than the stream they were
    /// recorded on — cross-partition moves by a non-FIFO scheduler
    /// (planned placement under `ListHeft`, runtime steals under
    /// `WorkSteal`). Always zero on FIFO runs.
    pub steals: usize,
    /// The run's metric snapshot, when [`NativeConfig::metrics`] was set —
    /// the same instrument catalog the simulator exports, priced from the
    /// measured timeline (`None` otherwise).
    pub metrics: Option<MetricsSnapshot>,
}

/// One link channel of one device: a resource with a FIFO queue, as the
/// simulator models it. Drivers are served strictly in the order they asked
/// (a ticket lock) — a plain mutex would let the releasing driver barge back
/// in ahead of a parked one and bunch one stream's transfers, and the
/// link-lane shapes (Fig. 5 serialisation) depend on submission order.
///
/// Taking a ticket and serving the next are one `fetch_add` each; the gate
/// and the condvar are for sleepers only (the ordering argument is at
/// [`LinkLane::acquire`]).
#[derive(Default)]
struct LinkLane {
    /// The next ticket to hand out.
    next: AtomicUsize,
    /// The ticket being served.
    serving: AtomicUsize,
    gate: Mutex<()>,
    cv: Condvar,
    /// Waits begun on `cv`, counted under the gate: a test that reads one
    /// more and then takes the gate knows that waiter is asleep.
    #[cfg(test)]
    naps: AtomicUsize,
}

/// Holding this is holding the lane; dropping it (also on unwind) serves the
/// next ticket, so a panicking holder cannot strand the drivers behind it.
struct LaneGuard<'a>(&'a LinkLane);

impl LinkLane {
    /// Queue behind every earlier caller and block until served.
    fn acquire(&self) -> LaneGuard<'_> {
        // ORDERING (no lost wake-up): every ticket access is `SeqCst`, so a
        // waiter's `next` increment and `serving` load and a releaser's
        // `serving` increment and `next` load fall in one total order. If
        // the releaser's load precedes the waiter's increment, the waiter's
        // load follows the releaser's increment and it is served without
        // sleeping. Otherwise the releaser sees a later ticket and takes the
        // gate before it notifies. The waiter holds the gate from its
        // re-check until the condvar wait releases it, so the releaser's
        // gate either comes after that (the waiter is registered and the
        // notify reaches it) or before (the unlock publishes the increment
        // to the re-check, which then passes).
        let mine = self.next.fetch_add(1, Ordering::SeqCst);
        if self.serving.load(Ordering::SeqCst) != mine {
            let mut gate = self.gate.lock();
            while self.serving.load(Ordering::SeqCst) != mine {
                #[cfg(test)]
                self.naps.fetch_add(1, Ordering::SeqCst);
                self.cv.wait(&mut gate);
            }
        }
        LaneGuard(self)
    }
}

impl Drop for LaneGuard<'_> {
    fn drop(&mut self) {
        let lane = self.0;
        let served = lane.serving.fetch_add(1, Ordering::SeqCst) + 1;
        if lane.next.load(Ordering::SeqCst) != served {
            // A later ticket was taken: its holder may be asleep or about
            // to be. Every waiter re-checks its ticket; only the next one
            // proceeds.
            drop(lane.gate.lock());
            lane.cv.notify_all();
        }
    }
}

// ----- fault control --------------------------------------------------------

/// Per-run fault state shared by every driver: atomic tallies, lost
/// partitions, tainted buffers, and what was skipped, in skip order (see
/// [`RecoveryState::skipped`]). The plan's dice are the context's.
struct FaultControl {
    tallies: FaultTallies,
    parts_per_dev: usize,
    /// `[device * parts_per_dev + partition]`: lost to a kernel panic.
    poisoned: Vec<AtomicBool>,
    /// Per buffer: a lost or skipped payload read or wrote it.
    tainted: Vec<AtomicBool>,
    /// Sites whose fault fired in an earlier pass of the same resilient
    /// run (deterministic, so the plan would fire them again).
    spent: HashSet<(usize, usize)>,
    /// Sites whose fault fired in this run.
    fired: Mutex<Vec<(usize, usize)>>,
    /// `(stream, action index)` of every lost or skipped payload.
    skipped: Mutex<Vec<(usize, usize)>>,
    /// `(device, partition, kernel)` of every partition lost in this run.
    lost: Mutex<Vec<(usize, usize, String)>>,
}

impl FaultControl {
    /// Fault state for a run that starts with the partitions `after` lost
    /// already lost and the sites it fired exempt from the plan.
    fn new(ctx: &Context, after: &RecoveryState) -> FaultControl {
        let parts_per_dev = ctx.partitions().max(1);
        let flags = |n: usize| (0..n).map(|_| AtomicBool::new(false)).collect::<Vec<_>>();
        let poisoned = flags(ctx.device_count() * parts_per_dev);
        for &(dev, part, _) in &after.lost {
            poisoned[dev * parts_per_dev + part].store(true, Ordering::Relaxed);
        }
        FaultControl {
            tallies: FaultTallies::default(),
            parts_per_dev,
            poisoned,
            tainted: flags(ctx.buffer_count()),
            spent: after.fired.iter().copied().collect(),
            fired: Mutex::new(Vec::new()),
            skipped: Mutex::new(Vec::new()),
            lost: Mutex::new(Vec::new()),
        }
    }

    fn is_poisoned(&self, dev: usize, part: usize) -> bool {
        self.poisoned[dev * self.parts_per_dev + part].load(Ordering::Acquire)
    }

    /// Poison `(dev, part)`; only the first poisoner records the loss.
    fn poison(&self, dev: usize, part: usize, kernel: &str) {
        if !self.poisoned[dev * self.parts_per_dev + part].swap(true, Ordering::AcqRel) {
            FaultTallies::bump(&self.tallies.lost_partitions);
            self.lost.lock().push((dev, part, kernel.to_string()));
        }
    }

    /// Record the lost or skipped payload at `(si, ai)` and taint every
    /// buffer it reads or writes: no later reader may see what it never
    /// produced, no later writer overwrite an input it will re-read.
    fn skip(&self, si: usize, ai: usize, action: &Action) {
        FaultTallies::bump(&self.tallies.skipped_actions);
        for b in action.buffers() {
            self.tainted[b.0].store(true, Ordering::Relaxed);
        }
        self.skipped.lock().push((si, ai));
    }
}

/// Default kernel `threads` hint: share the host across partitions the way
/// partitions share the card.
fn default_threads_per_partition(ctx: &Context) -> usize {
    let host_par = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1);
    (host_par / ctx.partitions().max(1)).max(1)
}

// ----- persistent runtime ---------------------------------------------------

/// Long-lived execution state a [`Context`] reuses across native runs: the
/// stream-driver group, partition-pinned kernel worker pools, and the locks
/// that model partition, host and link exclusivity. Built lazily on the
/// first native run; torn down when the context drops.
pub(crate) struct NativeRuntime {
    /// Serializes whole runs — drivers and lanes are shared state — and
    /// guards the walk of the program the last recorded run walked.
    run_lock: Mutex<WalkMemo>,
    /// One dedicated thread per driver: drivers sleep for each other's
    /// nodes, so none may wait behind another for a thread.
    drivers: WorkerGroup,
    /// Partition-pinned groups kernel bodies split work across.
    pool: WorkerPool,
    /// Partition mutexes: `[device][partition]`.
    partition_locks: Vec<Vec<Mutex<()>>>,
    /// Host kernels serialize on the host, exactly as the simulator prices
    /// them on its single host resource.
    host_lock: Mutex<()>,
    /// Link lanes: `[device][channel]`.
    link_lanes: Vec<Vec<LinkLane>>,
    /// `available_parallelism` read 1 when the runtime was built (as when
    /// the process is pinned to one CPU): every driver shares its core
    /// with the driver it waits for, so a waiting driver yields before it
    /// parks.
    one_cpu: bool,
}

impl NativeRuntime {
    pub(crate) fn new(ctx: &Context) -> NativeRuntime {
        // Size for the context's replan capacity, not its current geometry:
        // one runtime then serves every `P <= capacity` an autotuning sweep
        // replans to, without growing its thread count. With no capacity
        // headroom configured (the default) this is exactly the current
        // geometry.
        let n_devices = ctx.device_count();
        let parts_per_dev = ctx.replan_capacity().max(ctx.partitions()).max(1);
        let n_streams = n_devices * parts_per_dev * ctx.streams_per_partition();
        let host_par = std::thread::available_parallelism()
            .map(std::num::NonZero::get)
            .unwrap_or(1);
        let width = (host_par / parts_per_dev).max(1);
        let channels_per_dev = ctx.config().link.channels();
        NativeRuntime {
            run_lock: Mutex::new(WalkMemo::default()),
            drivers: WorkerGroup::new("drv", n_streams.saturating_sub(1)),
            pool: WorkerPool::for_geometry(n_devices, parts_per_dev, width),
            partition_locks: (0..n_devices)
                .map(|_| (0..parts_per_dev).map(|_| Mutex::new(())).collect())
                .collect(),
            host_lock: Mutex::new(()),
            link_lanes: (0..n_devices)
                .map(|_| (0..channels_per_dev).map(|_| LinkLane::default()).collect())
                .collect(),
            one_cpu: host_par == 1,
        }
    }

    /// Persistent threads owned by the runtime (drivers + pool).
    pub(crate) fn thread_count(&self) -> usize {
        self.drivers.worker_count() + self.pool.thread_count()
    }
}

// ----- per-run state --------------------------------------------------------

/// Everything a driver needs for one run, shared by reference.
struct RunShared<'a> {
    ctx: &'a Context,
    threads_hint: usize,
    link_bandwidth: Option<f64>,
    partition_locks: &'a [Vec<Mutex<()>>],
    host_lock: &'a Mutex<()>,
    link_lanes: &'a [Vec<LinkLane>],
    /// Partition-pinned worker groups for kernel bodies.
    pool: &'a WorkerPool,
    /// Span recorder; `None` with every telemetry switch off (the
    /// zero-cost default — each recording site is one branch on this
    /// option).
    recorder: Option<&'a Recorder>,
    /// Fault injection, loss and taint state for this run.
    fault: &'a FaultControl,
    first_error: Mutex<Option<Error>>,
    /// Actions executed; each driver adds its own count once, as it leaves.
    executed: AtomicUsize,
    /// Payload bytes moved, per device; added to like `executed`.
    bytes_moved: &'a [AtomicU64],
}

impl RunShared<'_> {
    /// Report `err` as the run's outcome unless an earlier one already is.
    fn fail(&self, err: Error) {
        self.first_error.lock().get_or_insert(err);
    }
}

/// One driver's own state for a run: where its payloads run — a recorded
/// driver's stream placement, a scheduled driver's `(device, partition)` —
/// the recorder stream its spans go to, and what it executed and moved.
/// The counts reach the run's totals once, when the driver leaves (also on
/// unwind), so an action touches no shared counter.
struct Driver<'a> {
    shared: &'a RunShared<'a>,
    /// The driver's index, which is also its recorder stream.
    idx: usize,
    dev: usize,
    part: usize,
    executed: usize,
    bytes: u64,
}

impl Drop for Driver<'_> {
    fn drop(&mut self) {
        let shared = self.shared;
        shared.executed.fetch_add(self.executed, Ordering::Relaxed);
        shared.bytes_moved[self.dev].fetch_add(self.bytes, Ordering::Relaxed);
    }
}

/// Perform the transfer at `site` on driver `drv`: queue for the device's
/// link lane, copy while holding it, and record the span.
fn exec_transfer(drv: &mut Driver<'_>, dir: Direction, buf: BufId, slowdown: f64, site: Site) {
    let shared = drv.shared;
    let buffer = shared
        .ctx
        .buffer(buf)
        .expect("buffer validated at enqueue time");
    let (src, dst) = match dir {
        Direction::HostToDevice => (&buffer.host, &buffer.device),
        Direction::DeviceToHost => (&buffer.device, &buffer.host),
    };
    let chan = shared.ctx.config().link.channel_for(dir);
    let bytes = buffer.bytes();
    let submitted = shared.recorder.map(|rec| (rec, Instant::now()));
    let lane = shared.link_lanes[drv.dev][chan].acquire();
    // Only a recorder, a throttle or a slowdown reads the clock.
    let timed = shared.recorder.is_some() || shared.link_bandwidth.is_some() || slowdown > 1.0;
    let started = timed.then(Instant::now);
    {
        let src = src.read();
        let mut dst = dst.write();
        dst.copy_from_slice(&src);
    }
    if let Some(started) = started {
        if let Some(bw) = shared.link_bandwidth {
            let target = Duration::from_secs_f64(bytes as f64 / bw);
            let elapsed = started.elapsed();
            if target > elapsed {
                std::thread::sleep(target - elapsed);
            }
        }
        if slowdown > 1.0 {
            // Degraded link: stretch the lane occupation to slowdown× the
            // time spent so far (copy + bandwidth throttle).
            std::thread::sleep(started.elapsed().mul_f64(slowdown - 1.0));
        }
        if let Some((rec, submitted)) = submitted {
            // Stamped inside the lane, so a lane's spans never overlap; the
            // gap back to `submitted` is the transfer's queue wait.
            let link = rec.lanes.link(drv.dev, chan);
            rec.record_span(
                drv.idx,
                Some(link),
                site,
                submitted,
                started,
                Instant::now(),
            );
        }
    }
    drop(lane);
    drv.bytes += bytes;
    drv.executed += 1;
}

/// A launch's scratch list: inline up to `INLINE_ACCESSES` buffers.
type Scratch<T> = InlineVec<T, INLINE_ACCESSES>;

/// Acquire the partition (or host) and the declared buffers of the kernel
/// at `site`, run its native body on driver `drv`, and record the span.
/// Returns the body's outcome so the caller decides what a panic loses.
fn exec_kernel(
    drv: &mut Driver<'_>,
    site: Site,
    desc: &crate::kernel::KernelDesc,
    slow_factor: f64,
    injected_panic: bool,
) -> std::thread::Result<()> {
    let shared = drv.shared;
    let ctx = shared.ctx;
    let dispatched = shared.recorder.map(|rec| (rec, Instant::now()));
    // Host kernels take the host lock instead of a partition lock (they
    // occupy the host, not the card) and act on the buffers' host copies.
    let (_partition_guard, _host_guard) = if desc.host {
        (None, Some(shared.host_lock.lock()))
    } else {
        (Some(shared.partition_locks[drv.dev][drv.part].lock()), None)
    };
    // Lock declared buffers in global id order (deadlock-free across
    // concurrent kernels), but keep read and write guards in separate
    // lists so views can borrow them independently. The guards borrow the
    // storage from the context, which outlives the run.
    let mut wanted: Scratch<(usize, bool)> = desc
        .accesses()
        .map(|(b, is_write)| (b.0, is_write))
        .collect();
    wanted.sort_unstable();
    let mut read_guards: Scratch<Option<(usize, RwLockReadGuard<'_, Vec<Elem>>)>> = Scratch::new();
    let mut write_guards: Scratch<Option<(usize, RwLockWriteGuard<'_, Vec<Elem>>)>> =
        Scratch::new();
    for &(b, is_write) in wanted.iter() {
        let buffer = ctx.buffer(BufId(b)).expect("validated at enqueue time");
        let storage = if desc.host {
            &buffer.host
        } else {
            &buffer.device
        };
        if is_write {
            write_guards.push(Some((b, storage.write())));
        } else {
            read_guards.push(Some((b, storage.read())));
        }
    }
    // Read views in declaration order.
    let reads: Scratch<&[Elem]> = desc
        .reads
        .iter()
        .map(|b| {
            let held = read_guards.iter().flatten().find(|(id, _)| *id == b.0);
            held.expect("guard acquired above").1.as_slice()
        })
        .collect();
    // Write views in declaration order: compute for each held guard its
    // slot in `desc.writes`, then place the mutable slices by permutation.
    let mut slots: Scratch<Option<&mut [Elem]>> = desc.writes.iter().map(|_| None).collect();
    for (id, guard) in write_guards.iter_mut().flatten() {
        let pos = desc
            .writes
            .iter()
            .position(|b| b.0 == *id)
            .expect("guard acquired above");
        slots[pos] = Some(guard.as_mut_slice());
    }
    let mut writes: Scratch<&mut [Elem]> = slots
        .iter_mut()
        .map(|s| s.take().expect("every declared write locked"))
        .collect();
    let mut kctx = KernelCtx {
        reads: &reads,
        writes: &mut writes,
        threads: shared.threads_hint,
    };
    let body = desc.native.as_ref().expect("checked above");
    // The driver keeps its partition's group installed for the whole run
    // (see `drive`); a host kernel's parallel helpers go to the host group
    // while it runs.
    let _host_pool = desc.host.then(|| pool::install(shared.pool.host().clone()));
    // Dispatch to body start (partition lock, buffer locks, view setup) is
    // the span's `start − ready`: the launch overhead.
    let started = dispatched.map(|(rec, ready)| (rec, ready, Instant::now()));
    let body_started = (slow_factor > 1.0).then(Instant::now);
    let outcome = if injected_panic {
        Err(Box::new("injected kernel panic") as Box<dyn std::any::Any + Send>)
    } else {
        catch_unwind(AssertUnwindSafe(|| body(&mut kctx)))
    };
    if let Some((rec, ready, start)) = started {
        // Recorded even when the body panicked: the partial timeline then
        // names the kernel that failed.
        let lane = rec.lanes.kernel(desc.host, drv.dev, drv.part);
        rec.record_span(drv.idx, Some(lane), site, ready, start, Instant::now());
    }
    if outcome.is_ok() {
        if let Some(t0) = body_started {
            // Slow partition: stretch the kernel's occupation of the
            // partition (locks still held) to factor× the body's own time.
            std::thread::sleep(t0.elapsed().mul_f64(slow_factor - 1.0));
        }
        drv.executed += 1;
    }
    outcome
}

/// The payload step of both walks: execute the transfer or kernel `action`
/// recorded at `site` on driver `drv` under the context's fault plan (keyed
/// by the recorded site) and the retry policy — or skip it (see the module
/// docs), leaving the error of a loss in the run's shared state.
fn run_payload(drv: &mut Driver<'_>, site: Site, action: &Action) {
    let shared = drv.shared;
    let (dev, part) = (drv.dev, drv.part);
    let (si, ai) = (site.stream.0, site.action_index);
    let fc = shared.fault;
    // Transfers and host kernels still run beside a lost partition (they
    // occupy the link and the host). Taint is stored before anything that
    // depends on it starts (the walk's counters order them): relaxed loads.
    let device_kernel = matches!(action, Action::Kernel(k) if !k.host);
    let tainted = |b: BufId| fc.tainted[b.0].load(Ordering::Relaxed);
    if (device_kernel && fc.is_poisoned(dev, part)) || action.buffers().any(tainted) {
        fc.skip(si, ai, action);
        return;
    }
    // The plan, unless this site's fault fired in an earlier pass.
    let live = shared.ctx.fault_plan.as_ref();
    let plan = live.filter(|_| !fc.spent.contains(&(si, ai)));
    match action {
        Action::Transfer { dir, buf } => {
            // Injected transfer failures: retry with backoff until the
            // fault clears or the retry budget runs out.
            let fail_attempts = plan.map_or(0, |p| p.transfer_fail_attempts(si, ai));
            if fail_attempts > 0 {
                fc.fired.lock().push((si, ai));
            }
            for attempt in 0..fail_attempts {
                if attempt >= fault::MAX_RETRIES {
                    FaultTallies::bump(&fc.tallies.transfers_failed);
                    shared.fail(Error::Fault {
                        site: format!("transfer s{si}#{ai}"),
                        attempts: attempt + 1,
                    });
                    fc.skip(si, ai, action);
                    return;
                }
                FaultTallies::bump(&fc.tallies.transfer_retries);
                std::thread::sleep(fault::backoff_for(attempt));
            }
            let slowdown = plan.map_or(1.0, |p| p.transfer_slowdown(si, ai));
            exec_transfer(drv, *dir, *buf, slowdown, site);
        }
        Action::Kernel(desc) => {
            let slowed = live.filter(|_| !desc.host);
            let slow_factor = slowed.map_or(1.0, |p| p.partition_slowdown(dev, part));
            let injected = plan.is_some_and(|p| p.kernel_panics_at(si, ai));
            if injected {
                FaultTallies::bump(&fc.tallies.injected_kernel_panics);
                fc.fired.lock().push((si, ai));
            }
            let outcome = exec_kernel(drv, site, desc, slow_factor, injected);
            if outcome.is_err() {
                FaultTallies::bump(&fc.tallies.kernel_panics);
                fc.skip(si, ai, action);
                let kernel = desc.label.to_string();
                shared.fail(if desc.host {
                    Error::KernelPanicked { kernel }
                } else {
                    // The partition goes with it: what is queued there
                    // skips from now on.
                    fc.poison(dev, part, &kernel);
                    Error::PartitionLost {
                        device: dev,
                        partition: part,
                        kernel,
                    }
                });
            }
        }
        _ => unreachable!("control actions carry no payload"),
    }
}

// ----- dispatch -------------------------------------------------------------

/// [`Parker::sleeps_for`] of a driver that is not sleeping.
const AWAKE: u32 = u32::MAX;
/// [`Parker::sleeps_for`] of an idle scheduled driver: any node that becomes
/// ready may be its next.
const ANY: u32 = u32::MAX - 1;
/// [`Dispatch::pending`] of a node a scheduled driver has taken.
const CLAIMED: u32 = u32::MAX;

/// How one driver sleeps and is woken. The sleeper announces what it sleeps
/// for, checks once more that it is still missing, then parks; a waker
/// makes it available first and reads the announcement second. Every
/// access is `SeqCst`, so of the sleeper's second check and the waker's
/// read at least one sees the other's write — and a step nobody sleeps for
/// costs the waker one load. A sleeper that `yields` checks and yields its
/// core once before it first announces, so a waker that runs in the yield
/// reads [`AWAKE`] and makes no system call.
struct Parker {
    sleeps_for: AtomicU32,
    /// The driver's thread, registered before it first announces anything.
    thread: OnceLock<Thread>,
    /// [`NativeRuntime::one_cpu`]: the driver this one waits for can only
    /// run when this one gives up the core.
    yields: bool,
}

impl Parker {
    fn wake(&self) {
        if let Some(thread) = self.thread.get() {
            thread.unpark();
        }
    }

    fn wake_if(&self, what: u32) {
        if self.sleeps_for.load(Ordering::SeqCst) == what {
            self.wake();
        }
    }

    /// Return what `poll` is ready with, sleeping for `what` while it is
    /// pending. A driver that `yields` first yields its core once and
    /// polls again: the driver that would make `what` ready gets the core,
    /// and its wake finds nobody to unpark. A wake-up may be stale (an
    /// earlier waker's token), so every one is followed by a fresh poll.
    fn sleep_until<T>(&self, what: u32, mut poll: impl FnMut() -> Poll<T>) -> T {
        if self.yields {
            if let Poll::Ready(got) = poll() {
                return got;
            }
            std::thread::yield_now();
        }
        loop {
            if let Poll::Ready(got) = poll() {
                return got;
            }
            self.sleeps_for.store(what, Ordering::SeqCst);
            let meanwhile = poll();
            if meanwhile.is_pending() {
                std::thread::park();
            }
            self.sleeps_for.store(AWAKE, Ordering::SeqCst);
            if let Poll::Ready(got) = meanwhile {
                return got;
            }
        }
    }
}

/// One run's dependence counters and driver queues over its walk: a
/// recorded walk's driver of stream `s` takes that stream's nodes strictly
/// in order; a scheduled walk's driver of each `(device, partition)` takes
/// the first *ready* node of its queue (`schedule.tasks` order), or steals
/// one from a sibling's.
struct Dispatch<'a> {
    walk: &'a Walk,
    /// Unfinished predecessors of each node ([`CLAIMED`] once a scheduled
    /// driver took it).
    pending: Vec<AtomicU32>,
    /// The nodes each scheduled driver takes from, in `schedule.tasks`
    /// order (empty for a recorded walk, whose driver `s` takes the nodes
    /// `offsets[s]..offsets[s + 1]` in order).
    queues: Vec<Vec<u32>>,
    /// One per driver.
    parkers: Vec<Parker>,
    parts_per_dev: usize,
    /// [`FaultControl::poisoned`]: a scheduled driver's partition is lost
    /// (set before the run or by that driver itself, so read relaxed).
    lost: &'a [AtomicBool],
    steals: AtomicUsize,
    /// A driver unwound (a panic outside a kernel body): the others stop at
    /// their next step instead of sleeping for nodes nobody will finish.
    dead: AtomicBool,
}

impl<'a> Dispatch<'a> {
    fn new(ctx: &Context, walk: &'a Walk, lost: &'a [AtomicBool], yields: bool) -> Dispatch<'a> {
        let parts_per_dev = ctx.partitions().max(1);
        let (pending, queues, drivers) = match walk {
            Walk::Recorded(hb) => {
                let edges = hb.edges();
                let count = |v| AtomicU32::new(edges.preds(v).len() as u32);
                let streams = edges.offsets.len() - 1;
                ((0..edges.nodes).map(count).collect(), Vec::new(), streams)
            }
            Walk::Scheduled(schedule, graph) => {
                let mut queues = vec![Vec::new(); ctx.device_count() * parts_per_dev];
                let mut walked = vec![false; graph.len()];
                for task in &schedule.tasks {
                    let (dev, part) = task.driver;
                    let queue = dev * parts_per_dev + part.min(parts_per_dev - 1);
                    queues[queue].push(task.node as u32);
                    walked[task.node] = true;
                }
                // Only predecessors this walk runs hold a node back.
                let count = |v| {
                    let preds = graph.preds(v).iter();
                    AtomicU32::new(preds.filter(|&&u| walked[u as usize]).count() as u32)
                };
                let drivers = queues.len();
                ((0..graph.len()).map(count).collect(), queues, drivers)
            }
        };
        let parker = |_| Parker {
            sleeps_for: AtomicU32::new(AWAKE),
            thread: OnceLock::new(),
            yields,
        };
        Dispatch {
            walk,
            pending,
            parkers: (0..drivers).map(parker).collect(),
            queues,
            parts_per_dev,
            lost,
            steals: AtomicUsize::new(0),
            dead: AtomicBool::new(false),
        }
    }

    /// The next node for driver `idx` (`true` when stolen from a sibling's
    /// queue), or `None` when nothing is left for it. `cursor` is the
    /// driver's own position in its stream or queue.
    fn next(&self, idx: usize, cursor: &mut usize) -> Option<(usize, bool)> {
        match self.walk {
            Walk::Recorded(hb) => {
                let offsets = &hb.edges().offsets;
                let node = offsets[idx] + *cursor;
                if node == offsets[idx + 1] {
                    return None;
                }
                *cursor += 1;
                (!self.dead.load(Ordering::SeqCst)).then_some((node, false))
            }
            Walk::Scheduled(..) => self.parkers[idx].sleep_until(ANY, || self.scan(idx, cursor)),
        }
    }

    /// One look over the queues a scheduled driver takes from: the first
    /// ready node of its own, else the *last* ready node of the sibling queue
    /// on its device holding the most ready ones (the classic
    /// steal-from-the-tail discipline, away from the victim's own
    /// front-of-queue progress). A driver whose partition is lost drains
    /// its own queue but steals nothing. `Ready(None)` when every node there
    /// is taken, `Pending` when some are left but none is ready.
    fn scan(&self, idx: usize, cursor: &mut usize) -> Poll<Option<(usize, bool)>> {
        let state = |node: u32| self.pending[node as usize].load(Ordering::SeqCst);
        let claim = |node: u32| {
            let taken = self.pending[node as usize].compare_exchange(
                0,
                CLAIMED,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            taken.is_ok()
        };
        let dev = idx / self.parts_per_dev;
        let siblings = (dev * self.parts_per_dev)..((dev + 1) * self.parts_per_dev);
        let thief = !self.lost[idx].load(Ordering::Relaxed);
        loop {
            if self.dead.load(Ordering::SeqCst) {
                return Poll::Ready(None);
            }
            let own = &self.queues[idx];
            while own.get(*cursor).is_some_and(|&node| state(node) == CLAIMED) {
                *cursor += 1;
            }
            // Only a node read unready counts as left, here and below: its
            // release wakes this driver, a node claimed meanwhile never will.
            let mut left = false;
            for &node in &own[*cursor..] {
                match state(node) {
                    0 if claim(node) => return Poll::Ready(Some((node as usize, false))),
                    0 | CLAIMED => {} // a thief was faster, or took it earlier
                    _ => left = true,
                }
            }
            let mut victim: Option<(usize, u32)> = None; // (ready nodes, the last one)
            for queue in siblings.clone().filter(|&q| q != idx && thief) {
                let (mut ready, mut last) = (0usize, None);
                for &node in &self.queues[queue] {
                    match state(node) {
                        0 => (ready, last) = (ready + 1, Some(node)),
                        CLAIMED => {}
                        _ => left = true,
                    }
                }
                if let Some(node) = last.filter(|_| victim.is_none_or(|(most, _)| ready >= most)) {
                    victim = Some((ready, node));
                }
            }
            match victim {
                Some((_, node)) if claim(node) => return Poll::Ready(Some((node as usize, true))),
                Some(_) => {} // its owner was faster: look again
                None if left => return Poll::Pending,
                None => return Poll::Ready(None),
            }
        }
    }

    /// Sleep driver `idx` until `node` has no unfinished predecessor.
    fn wait_for(&self, idx: usize, node: usize) {
        self.parkers[idx].sleep_until(node as u32, || {
            let released = self.pending[node].load(Ordering::SeqCst) == 0;
            if released || self.dead.load(Ordering::SeqCst) {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        });
    }

    /// `node` is done: one predecessor fewer for each of its successors.
    fn complete(&self, node: usize) {
        let release = |succ: usize| {
            if self.pending[succ].fetch_sub(1, Ordering::SeqCst) == 1 {
                self.ready(succ);
            }
        };
        let succs = match self.walk {
            Walk::Recorded(hb) => hb.edges().succs(node),
            Walk::Scheduled(_, graph) => graph.succs(node),
        };
        succs.iter().for_each(|&s| release(s as usize));
    }

    /// `node` just lost its last unfinished predecessor: wake who sleeps
    /// for it.
    fn ready(&self, node: usize) {
        match self.walk {
            Walk::Recorded(hb) => match hb.edges().stream_of(node) {
                Some(stream) => self.parkers[stream].wake_if(node as u32),
                // A barrier join. Streams that end on this barrier sleep for
                // the join itself; nobody runs it, so the last arriver
                // completes it on the spot.
                None => {
                    self.parkers.iter().for_each(|p| p.wake_if(node as u32));
                    self.complete(node);
                }
            },
            Walk::Scheduled(..) => self.parkers.iter().for_each(|p| p.wake_if(ANY)),
        }
    }
}

/// Dropped by a driver on its way out: when that is an unwind, nothing it
/// still owed will be completed, so the run is declared dead and every
/// sleeper woken — the panic then re-raises through `run_fixed` instead of
/// stranding them.
struct DriverExit<'a>(&'a Dispatch<'a>);

impl Drop for DriverExit<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.dead.store(true, Ordering::SeqCst);
            self.0.parkers.iter().for_each(Parker::wake);
        }
    }
}

/// The driver loop, run by driver `idx` of the runtime's persistent group:
/// the driver of stream `idx` in a recorded run, of `(device, partition)`
/// number `idx` in a scheduled one — which is also the recorder stream its
/// spans go to, matching how the work actually ran.
fn drive(shared: &RunShared<'_>, dispatch: &Dispatch<'_>, idx: usize) {
    let streams = &shared.ctx.program().streams;
    // Where this driver's payloads run: its stream's placement in a
    // recorded walk, its own `(device, partition)` in a scheduled one.
    let (dev, part) = match dispatch.walk {
        Walk::Recorded(_) => {
            let at = streams[idx].placement;
            (at.device.0, at.partition)
        }
        Walk::Scheduled(..) => (idx / dispatch.parts_per_dev, idx % dispatch.parts_per_dev),
    };
    // Installed once per driver: the sink that routes pool-job spans from
    // kernel bodies into this driver's buffer, and the partition's group
    // that their parallel helpers split work across.
    let _pool_sink = shared
        .recorder
        .map(|rec| crate::trace::install_pool_sink(rec.pool_sink(idx)));
    let _pool = pool::install(shared.pool.partition(dev, part).clone());
    let _ = dispatch.parkers[idx].thread.set(std::thread::current());
    let _exit = DriverExit(dispatch);
    let mut drv = Driver {
        shared,
        idx,
        dev,
        part,
        executed: 0,
        bytes: 0,
    };
    let mut cursor = 0;
    while let Some((node, stolen)) = dispatch.next(idx, &mut cursor) {
        // What the node is: a recorded action of this driver's stream, or
        // a scheduled task, moved when it left its recorded partition.
        let (site, moved) = match dispatch.walk {
            Walk::Recorded(hb) => (Site::new(idx, node - hb.edges().offsets[idx]), false),
            Walk::Scheduled(_, graph) => {
                let task = &graph.nodes[node];
                let home = (task.device, task.partition);
                (task.site, stolen || (dev, part) != home)
            }
        };
        let action = &streams[site.stream.0].actions[site.action_index];
        if !action.is_control() {
            if moved && matches!(action, Action::Kernel(k) if !k.host) {
                dispatch.steals.fetch_add(1, Ordering::Relaxed);
            }
            run_payload(&mut drv, site, action);
            dispatch.complete(node);
            continue;
        }
        // Control actions run even after their stream lost a payload, so
        // the other drivers drain. Their waits fall inside their span.
        let t0 = shared.recorder.map(|rec| (rec, Instant::now()));
        match (action, dispatch.walk) {
            (Action::RecordEvent(_), _) => dispatch.complete(node),
            (Action::WaitEvent(_), _) => {
                dispatch.wait_for(idx, node);
                dispatch.complete(node);
            }
            // Arrive, then wait for what the join releases: the stream's
            // next action, or the join itself when there is none.
            (Action::Barrier(n), Walk::Recorded(hb)) => {
                dispatch.complete(node);
                let edges = hb.edges();
                let last = node + 1 == edges.offsets[idx + 1];
                let released = if last {
                    edges.total_actions + n
                } else {
                    node + 1
                };
                dispatch.wait_for(idx, released);
            }
            _ => unreachable!("a task graph has no control nodes"),
        }
        if let Some((rec, t0)) = t0 {
            rec.record_span(idx, None, site, t0, t0, Instant::now());
        }
    }
}

/// Execute the context's program natively along the walk the executors'
/// front end takes (see [`executor`](super)). On top of the front end's
/// refusals, every kernel needs a native body; a program without streams
/// runs instantly. An allocation fault fails the run before any work, as an
/// [`Error::Run`] with nothing to re-run.
///
/// The runtime's `WalkMemo` admits the program first, and a recorded
/// walk goes back into it after the run: a repeated program is checked,
/// validated, its graph built and its buffers backed once. Before the
/// first run builds the runtime, a fresh memo stands in and the new
/// runtime adopts it.
pub fn run(ctx: &Context, cfg: &NativeConfig) -> Result<NativeReport> {
    let mut held = ctx.built_native_runtime().map(|rt| rt.run_lock.lock());
    let mut cold = WalkMemo::default();
    let memo = held.as_deref_mut().unwrap_or(&mut cold);
    let bodiless = memo.admit(ctx);
    let mut walk = prepare(ctx, None, Some(memo)).map_err(|err| match err {
        Error::Fault { .. } => Error::Run(Box::new(RunFailure {
            cause: err,
            recovery: RecoveryState {
                faults: FaultCounters {
                    alloc_faults: 1,
                    ..FaultCounters::default()
                },
                ..RecoveryState::default()
            },
            trace: None,
        })),
        refused => refused,
    })?;
    if let Some(k) = bodiless {
        return Err(Error::MissingNativeBody {
            kernel: k.label.to_string(),
        });
    }
    if ctx.program().streams.is_empty() {
        return Ok(NativeReport {
            wall: Duration::ZERO,
            actions_executed: 0,
            bytes_transferred: 0,
            trace: None,
            faults: FaultCounters::default(),
            steals: 0,
            metrics: None,
        });
    }
    // The drivers read only a recorded graph's edges: its order and clocks
    // go before any storage is backed.
    if let Walk::Recorded(hb) = &mut walk {
        hb.shed_order();
    }
    let rt = ctx.native_runtime();
    let mut memo = held.unwrap_or_else(|| {
        let mut adopted = rt.run_lock.lock();
        *adopted = cold;
        adopted
    });
    let fc = FaultControl::new(ctx, &RecoveryState::default());
    let outcome = execute(ctx, cfg, rt, &walk, fc, memo.ran);
    memo.ran = true;
    memo.keep(walk);
    outcome
}

/// [`Context::run_native_resilient`]: a pass that loses work drains and
/// records what it skipped; the next pass walks a plan of exactly those
/// nodes ([`recovery_schedule`]) with the partitions earlier passes lost
/// still lost and the fault plan exempt at the sites that already fired.
/// At most two recovery passes run; the task graph and cost model they plan
/// on are derived once, by the first.
pub(crate) fn run_resilient(ctx: &Context, cfg: &NativeConfig) -> Result<ResilientReport> {
    const MAX_DEGRADED_RUNS: u64 = 2;
    let mut faults = FaultCounters::default();
    let mut after = RecoveryState::default();
    let mut basis = None;
    let mut pass = run(ctx, cfg);
    loop {
        let failure = match pass {
            Ok(report) => {
                faults.absorb(&report.faults);
                return Ok(ResilientReport {
                    report,
                    faults,
                    lost_partitions: after.lost,
                });
            }
            Err(Error::Run(failure)) => failure,
            Err(refused) => return Err(refused),
        };
        let state = &failure.recovery;
        faults.absorb(&state.faults);
        after.lost.extend_from_slice(&state.lost);
        after.fired.extend_from_slice(&state.fired);
        if faults.degraded_runs >= MAX_DEGRADED_RUNS || state.skipped.is_empty() {
            return Err(Error::Run(failure));
        }
        // Derived by the first recovery pass, handed back after each.
        let Some((graph, cost)) = basis.take().or_else(|| recovery_basis(ctx)) else {
            return Err(Error::Run(failure));
        };
        let Some(schedule) = recovery_schedule(ctx, &graph, &cost, &state.skipped, &after.lost)
        else {
            return Err(Error::Run(failure));
        };
        faults.degraded_runs += 1;
        faults.replayed_actions += state.skipped.len() as u64;
        let walk = Walk::Scheduled(schedule, graph);
        pass = {
            let rt = ctx.native_runtime();
            let _held = rt.run_lock.lock();
            execute(ctx, cfg, rt, &walk, FaultControl::new(ctx, &after), false)
        };
        if let Walk::Scheduled(_, graph) = walk {
            basis = Some((graph, cost));
        }
    }
}

/// What the recovery passes of one resilient run plan on: the program's
/// task graph and cost model. `None` when the program is not
/// analyzer-clean or has no task graph.
fn recovery_basis(ctx: &Context) -> Option<(TaskGraph, CostModel)> {
    let analysis = crate::check::analyze(ctx.program(), &ctx.check_env());
    let graph =
        TaskGraph::build(ctx.program(), &analysis).filter(|_| analysis.report.is_clean())?;
    Some((graph, ctx.cost_model().ok()?))
}

/// A recovery pass's plan over `graph`: the `skipped` sites, in skip order,
/// each on its recorded partition unless that is `lost`, else on the first
/// survivor (same device first). `None` when a site has no node or no
/// survivor can run it.
fn recovery_schedule(
    ctx: &Context,
    graph: &TaskGraph,
    cost: &CostModel,
    skipped: &[(usize, usize)],
    lost: &[(usize, usize, String)],
) -> Option<Schedule> {
    let alive = |at: &(usize, usize)| !lost.iter().any(|&(d, p, _)| (d, p) == *at);
    let on = |dev| (0..ctx.partitions()).map(move |part| (dev, part));
    let mut tasks = Vec::with_capacity(skipped.len());
    for &(si, ai) in skipped {
        let site = Site::new(si, ai);
        let node = graph.node_of(site)?;
        let home = (graph.nodes[node].device, graph.nodes[node].partition);
        let driver = std::iter::once(home)
            .chain(on(home.0))
            .chain((0..ctx.device_count()).flat_map(on))
            .find(alive)?;
        let lane = cost.lane(&ctx.program().streams[si].actions[ai], driver.0, driver.1)?;
        let stolen = matches!(lane, Lane::Partition { .. }) && driver != home;
        tasks.push(ScheduledTask {
            site,
            node,
            lane,
            // Unpriced: the walk orders by dependences alone.
            start: 0.0,
            finish: 0.0,
            driver,
            stolen,
        });
    }
    let steals = tasks.iter().filter(|t| t.stolen).count();
    Some(Schedule {
        kind: ctx.scheduler(),
        tasks,
        makespan: 0.0,
        steals,
    })
}

/// Back the buffers unless a run of the same program already did
/// (`backed`), run `walk` on `rt` — whose run lock the caller holds — and
/// attach what telemetry asks for; a failure carries the run's recovery
/// material and partial trace.
fn execute(
    ctx: &Context,
    cfg: &NativeConfig,
    rt: &NativeRuntime,
    walk: &Walk,
    fc: FaultControl,
    backed: bool,
) -> Result<NativeReport> {
    // Back every buffer the program touches (storage is lazy so
    // simulator-scale programs cost nothing until they really run).
    if !backed {
        for stream in &ctx.program().streams {
            for action in &stream.actions {
                for b in action.buffers() {
                    ctx.buffer(b).expect("validated").ensure_materialized();
                }
            }
        }
    }

    let threads_hint = cfg
        .max_threads_per_partition
        .unwrap_or_else(|| default_threads_per_partition(ctx));

    // One recorder behind both telemetry switches; they only select which
    // outputs are attached below.
    let recorder = (cfg.trace || cfg.metrics).then(|| Recorder::new(ctx));
    let bytes_moved: Vec<AtomicU64> = (0..ctx.device_count()).map(|_| AtomicU64::new(0)).collect();
    let (result, steals) = run_persistent(
        ctx,
        cfg,
        rt,
        threads_hint,
        recorder.as_ref(),
        &bytes_moved,
        &fc,
        walk,
    );
    let faults = fc.tallies.snapshot();
    // Spans are pushed per action, so a failed run's recording is the
    // partial timeline up to the failure.
    let recording = recorder.map(|rec| rec.join(&ctx.program, steals as u64, faults));
    let metrics = match (&result, &recording) {
        (Ok(report), Some(rec)) if cfg.metrics => {
            let counts = RunCounts {
                bytes_per_device: bytes_moved.into_iter().map(AtomicU64::into_inner).collect(),
                actions_executed: report.actions_executed as u64,
                steals: report.steals as u64,
                faults,
            };
            // A measured span holds no modelled enqueue overhead to split out.
            let overhead = micsim::time::SimDuration::ZERO;
            Some(price_run(&rec.timeline, &rec.lanes, overhead, &counts))
        }
        _ => None,
    };
    let trace = recording.filter(|_| cfg.trace).map(Recording::into_trace);
    match result {
        Ok(mut report) => {
            report.faults = faults;
            report.metrics = metrics;
            report.trace = trace;
            Ok(report)
        }
        // The pass's recovery material lets `run_native_resilient` re-plan
        // onto the survivors.
        Err(cause) => Err(Error::Run(Box::new(RunFailure {
            cause,
            recovery: RecoveryState {
                lost: fc.lost.into_inner(),
                skipped: fc.skipped.into_inner(),
                fired: fc.fired.into_inner(),
                faults,
            },
            trace,
        }))),
    }
}

/// Execute on the context's persistent runtime `rt`: parked drivers, pinned
/// kernel pools, link lanes. No threads are spawned. Returns the run's
/// outcome and its cross-partition kernel moves, which a failed run's
/// partial trace carries too.
#[allow(clippy::too_many_arguments)]
fn run_persistent(
    ctx: &Context,
    cfg: &NativeConfig,
    rt: &NativeRuntime,
    threads_hint: usize,
    recorder: Option<&Recorder>,
    bytes_moved: &[AtomicU64],
    fault: &FaultControl,
    walk: &Walk,
) -> (Result<NativeReport>, usize) {
    let shared = RunShared {
        ctx,
        threads_hint,
        link_bandwidth: cfg.link_bandwidth,
        partition_locks: &rt.partition_locks,
        host_lock: &rt.host_lock,
        link_lanes: &rt.link_lanes,
        pool: &rt.pool,
        recorder,
        fault,
        first_error: Mutex::new(None),
        executed: AtomicUsize::new(0),
        bytes_moved,
    };
    let dispatch = Dispatch::new(ctx, walk, &fault.poisoned, rt.one_cpu);
    let started = Instant::now();
    let drivers = dispatch.parkers.len();
    rt.drivers
        .run_fixed(drivers, &|idx| drive(&shared, &dispatch, idx));
    let wall = started.elapsed();
    let steals = dispatch.steals.into_inner();
    let result = match shared.first_error.into_inner() {
        Some(err) => Err(err),
        None => Ok(NativeReport {
            wall,
            actions_executed: shared.executed.into_inner(),
            bytes_transferred: bytes_moved.iter().map(|b| b.load(Ordering::Relaxed)).sum(),
            trace: None,                      // attached by `execute` from the recording
            faults: FaultCounters::default(), // filled by `execute` from the tallies
            steals,
            metrics: None, // priced by `execute` from the recording
        }),
    };
    (result, steals)
}

#[cfg(test)]
impl NativeRuntime {
    /// The walk memo, for tests that tell a hit from a miss.
    pub(crate) fn memo(&self) -> parking_lot::MutexGuard<'_, WalkMemo> {
        self.run_lock.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::kernel::KernelDesc;
    use crate::sched::SchedulerKind;
    use micsim::compute::KernelProfile;
    use micsim::time::SimDuration;
    use micsim::PlatformConfig;
    use std::sync::Arc;

    fn small_ctx(partitions: usize) -> Context {
        Context::builder(PlatformConfig::phi_31sp())
            .partitions(partitions)
            .build()
            .unwrap()
    }

    fn native_kernel(label: &str) -> KernelDesc {
        KernelDesc::simulated(label, KernelProfile::streaming("k", 1e9), 1.0)
    }

    #[test]
    fn native_refuses_deadlocked_program_instead_of_hanging() {
        // s0 = [wait eB, record eA], s1 = [wait eA, record eB]: without the
        // static gate the drivers would block forever on each other's
        // event flags. The shallow `validate()` accepts this shape, so the
        // refusal must come from the analyzer.
        let mut ctx = small_ctx(2);
        let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
        let e_a = ctx.record_event(s0).unwrap();
        let e_b = ctx.record_event(s1).unwrap();
        {
            let program = ctx.program_mut();
            program.streams[0].actions.clear();
            program.streams[1].actions.clear();
            program.streams[0].actions.push(Action::WaitEvent(e_b));
            program.streams[0].actions.push(Action::RecordEvent(e_a));
            program.streams[1].actions.push(Action::WaitEvent(e_a));
            program.streams[1].actions.push(Action::RecordEvent(e_b));
            program.events[e_a.0].action_index = 1;
            program.events[e_b.0].action_index = 1;
        }
        ctx.program.validate().unwrap();
        // The refusal carries the full report.
        let err = ctx.run_native().unwrap_err();
        let Error::Check(report) = err else {
            panic!("expected a check refusal, got {err}");
        };
        assert!(!report.is_clean());
    }

    #[test]
    fn transfer_kernel_transfer_roundtrip() {
        let mut ctx = small_ctx(1);
        let a = ctx.alloc("a", 8);
        let b = ctx.alloc("b", 8);
        ctx.write_host(a, &[1., 2., 3., 4., 5., 6., 7., 8.])
            .unwrap();
        let s = ctx.stream(0).unwrap();
        ctx.h2d(s, a).unwrap();
        ctx.kernel(
            s,
            native_kernel("add1")
                .reading([a])
                .writing([b])
                .with_native(|k| {
                    for (o, i) in k.writes[0].iter_mut().zip(k.reads[0]) {
                        *o = i + 1.0;
                    }
                }),
        )
        .unwrap();
        ctx.d2h(s, b).unwrap();
        let report = ctx.run_native().unwrap();
        assert_eq!(report.actions_executed, 3);
        assert_eq!(report.bytes_transferred, 64);
        assert_eq!(
            ctx.read_host(b).unwrap(),
            vec![2., 3., 4., 5., 6., 7., 8., 9.]
        );
    }

    #[test]
    fn pooled_kernel_chunks_produce_expected_output() {
        // A kernel body splitting its output with `par_chunks_mut` on the
        // partition's pool: closed-form numerics and report counts.
        let mut ctx = small_ctx(2);
        let a = ctx.alloc("a", 64);
        let b = ctx.alloc("b", 64);
        ctx.write_host(a, &[1.5; 64]).unwrap();
        let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
        ctx.h2d(s0, a).unwrap();
        let e = ctx.record_event(s0).unwrap();
        ctx.wait_event(s1, e).unwrap();
        ctx.kernel(
            s1,
            native_kernel("x3")
                .reading([a])
                .writing([b])
                .with_native(|k| {
                    let parts = k.threads;
                    let input = k.reads[0];
                    crate::parallel::par_chunks_mut(k.writes[0], parts, |_, off, chunk| {
                        for (i, o) in chunk.iter_mut().enumerate() {
                            *o = input[off + i] * 3.0;
                        }
                    });
                }),
        )
        .unwrap();
        ctx.d2h(s1, b).unwrap();

        let report = ctx.run_native().unwrap();
        assert_eq!(ctx.read_host(b).unwrap(), vec![4.5; 64]);
        // h2d + kernel + d2h; two 64-element f32 transfers.
        assert_eq!(report.actions_executed, 3);
        assert_eq!(report.bytes_transferred, 2 * 64 * 4);
    }

    #[test]
    fn device_copy_is_isolated_until_d2h() {
        // Without the D2H, the host copy of the output must stay zero.
        let mut ctx = small_ctx(1);
        let a = ctx.alloc("a", 4);
        ctx.write_host(a, &[9., 9., 9., 9.]).unwrap();
        let b = ctx.alloc("b", 4);
        let s = ctx.stream(0).unwrap();
        ctx.h2d(s, a).unwrap();
        ctx.kernel(
            s,
            native_kernel("copy")
                .reading([a])
                .writing([b])
                .with_native(|k| {
                    k.writes[0].copy_from_slice(k.reads[0]);
                }),
        )
        .unwrap();
        ctx.run_native().unwrap();
        assert_eq!(ctx.read_host(b).unwrap(), vec![0.0; 4]);
    }

    #[test]
    fn missing_native_body_rejected_up_front() {
        let mut ctx = small_ctx(1);
        let a = ctx.alloc("a", 4);
        let s = ctx.stream(0).unwrap();
        ctx.kernel(s, native_kernel("no-body").reading([a]))
            .unwrap();
        assert!(matches!(
            ctx.run_native(),
            Err(Error::MissingNativeBody { .. })
        ));
    }

    #[test]
    fn kernel_panic_reported_and_run_drains() {
        let mut ctx = small_ctx(2);
        let a = ctx.alloc("a", 4);
        let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
        ctx.kernel(
            s0,
            native_kernel("boom")
                .writing([a])
                .with_native(|_| panic!("boom")),
        )
        .unwrap();
        // Stream 1 depends on stream 0 via a barrier; the run must still end.
        ctx.barrier();
        ctx.kernel(s1, native_kernel("after").with_native(|_| {}))
            .unwrap();
        let err = ctx.run_native().unwrap_err();
        assert!(matches!(err.cause(), Error::PartitionLost { .. }), "{err}");
    }

    #[test]
    fn kernel_panic_does_not_poison_later_runs() {
        // The persistent runtime must survive a failed run and execute the
        // next one normally.
        let mut ctx = small_ctx(1);
        let a = ctx.alloc("a", 1);
        let s = ctx.stream(0).unwrap();
        ctx.kernel(
            s,
            native_kernel("boom")
                .writing([a])
                .with_native(|_| panic!("boom")),
        )
        .unwrap();
        assert!(ctx.run_native().is_err());
        ctx.reset_program();
        ctx.kernel(
            s,
            native_kernel("fine").writing([a]).with_native(|k| {
                k.writes[0][0] = 5.0;
            }),
        )
        .unwrap();
        ctx.d2h(s, a).unwrap();
        ctx.run_native().unwrap();
        assert_eq!(ctx.read_host(a).unwrap(), vec![5.0]);
    }

    #[test]
    fn kernel_panic_beside_a_contended_lane_does_not_poison_later_runs() {
        // Stream 0's kernel panics while streams 1 and 2 take turns on a
        // throttled lane (one holds it, the other is parked behind it for
        // the whole 8 ms): the run still reports the panic, and the same
        // lanes serve the next run.
        let mut ctx = small_ctx(3);
        let out = ctx.alloc("out", 1);
        let ups: Vec<_> = (0..8).map(|i| ctx.alloc(format!("up{i}"), 256)).collect();
        let s: Vec<_> = (0..3).map(|i| ctx.stream(i).unwrap()).collect();
        let record = |ctx: &mut Context, boom: bool| {
            ctx.kernel(
                s[0],
                native_kernel("k").writing([out]).with_native(move |k| {
                    std::thread::sleep(Duration::from_millis(2));
                    assert!(!boom, "boom");
                    k.writes[0][0] = 5.0;
                }),
            )
            .unwrap();
            ctx.d2h(s[0], out).unwrap();
            for (i, &b) in ups.iter().enumerate() {
                ctx.h2d(s[1 + i % 2], b).unwrap();
            }
        };
        // 8 KiB at 1 MB/s: each stream holds the lane 4 × 1 ms.
        let throttled = NativeConfig {
            link_bandwidth: Some(1.0e6),
            ..NativeConfig::default()
        };
        record(&mut ctx, true);
        let err = ctx.run_native_with(&throttled).unwrap_err();
        assert!(matches!(err.cause(), Error::PartitionLost { .. }), "{err}");
        ctx.reset_program();
        record(&mut ctx, false);
        let report = ctx.run_native_with(&throttled).unwrap();
        assert_eq!(report.bytes_transferred, 8 * 256 * 4 + 4);
        assert_eq!(ctx.read_host(out).unwrap(), vec![5.0]);
    }

    /// The lane the context's runtime serves device 0's `dir` copies on.
    fn lane_for(ctx: &Context, dir: Direction) -> &LinkLane {
        &ctx.native_runtime().link_lanes[0][ctx.config().link.channel_for(dir)]
    }

    /// Spin until `lane` has handed out `tickets` tickets.
    fn until_taken(lane: &LinkLane, tickets: usize) {
        while lane.next.load(Ordering::SeqCst) < tickets {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_full_duplex_h2d_holder_does_not_block_a_d2h_acquire() {
        let ctx = Context::builder(PlatformConfig::phi_31sp_full_duplex())
            .build()
            .unwrap();
        let (up, down) = (
            lane_for(&ctx, Direction::HostToDevice),
            lane_for(&ctx, Direction::DeviceToHost),
        );
        let _upload = up.acquire();
        // Free while the upload holds its own lane: the acquire below is
        // served at once, on this very thread.
        assert!(!std::ptr::eq(up, down));
        assert_eq!(down.next.load(Ordering::SeqCst), 0);
        drop(down.acquire());
        assert_eq!(down.serving.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_serial_duplex_h2d_holder_blocks_a_d2h_acquire() {
        let ctx = small_ctx(1);
        let (up, down) = (
            lane_for(&ctx, Direction::HostToDevice),
            lane_for(&ctx, Direction::DeviceToHost),
        );
        assert!(std::ptr::eq(up, down));
        let served = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let upload = up.acquire();
            let download = scope.spawn(|| {
                let _lane = down.acquire();
                served.store(true, Ordering::SeqCst);
            });
            until_taken(down, 2);
            // Ticket 1 is taken and ticket 0 still served: the download
            // cannot have passed `acquire`.
            assert!(!served.load(Ordering::SeqCst));
            drop(upload);
            download.join().unwrap();
        });
        assert!(served.into_inner());
    }

    #[test]
    fn tickets_taken_while_the_lane_is_held_are_served_in_ticket_order() {
        let lane = LinkLane::default();
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let held = lane.acquire();
            for waiter in 0..3 {
                let (lane, order) = (&lane, &order);
                scope.spawn(move || {
                    let _lane = lane.acquire();
                    order.lock().push(waiter);
                });
                // Waiter `i` holds ticket `i + 1` before the next one starts.
                until_taken(lane, waiter + 2);
            }
            drop(held);
        });
        assert_eq!(*order.lock(), [0, 1, 2]);
        assert_eq!((lane.next.into_inner(), lane.serving.into_inner()), (4, 4));
    }

    #[test]
    fn a_waiter_asleep_before_the_holder_releases_is_woken() {
        let lane = LinkLane::default();
        std::thread::scope(|scope| {
            let held = lane.acquire();
            let waiter = scope.spawn(|| drop(lane.acquire()));
            // The waiter counts its nap under the gate and keeps the gate
            // until the condvar releases it: once the count is read and the
            // gate taken, it is asleep.
            while lane.naps.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            drop(lane.gate.lock());
            assert_eq!(lane.serving.load(Ordering::SeqCst), 0);
            drop(held);
            waiter.join().unwrap();
        });
        assert_eq!((lane.next.into_inner(), lane.serving.into_inner()), (2, 2));
    }

    #[test]
    fn lane_holder_unwinding_serves_the_next_ticket() {
        let lane = LinkLane::default();
        std::thread::scope(|scope| {
            let held = lane.acquire();
            let waiter = scope.spawn(|| drop(lane.acquire()));
            // Force the interleaving: the waiter holds ticket 1 before the
            // holder unwinds.
            while lane.next.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            let unwound = catch_unwind(AssertUnwindSafe(move || {
                let _held = held;
                panic!("holder panics with the lane");
            }));
            assert!(unwound.is_err());
            waiter.join().expect("waiter was served");
        });
        // Both tickets served: the lane is free again.
        assert_eq!((lane.next.into_inner(), lane.serving.into_inner()), (2, 2));
    }

    #[test]
    fn events_order_cross_stream_natively() {
        for _ in 0..20 {
            let mut ctx = small_ctx(2);
            let a = ctx.alloc("a", 1);
            let b = ctx.alloc("b", 1);
            let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
            ctx.kernel(
                s0,
                native_kernel("produce").writing([a]).with_native(|k| {
                    k.writes[0][0] = 7.0;
                }),
            )
            .unwrap();
            let e = ctx.record_event(s0).unwrap();
            ctx.wait_event(s1, e).unwrap();
            ctx.kernel(
                s1,
                native_kernel("consume")
                    .reading([a])
                    .writing([b])
                    .with_native(|k| {
                        k.writes[0][0] = k.reads[0][0] * 2.0;
                    }),
            )
            .unwrap();
            ctx.d2h(s1, b).unwrap();
            ctx.run_native().unwrap();
            assert_eq!(ctx.read_host(b).unwrap(), vec![14.0]);
        }
    }

    #[test]
    fn barrier_separates_stages_natively() {
        for _ in 0..10 {
            let mut ctx = small_ctx(4);
            let stage1: Vec<_> = (0..4).map(|i| ctx.alloc(format!("x{i}"), 1)).collect();
            let total = ctx.alloc("total", 1);
            for (i, b) in stage1.iter().enumerate() {
                let s = ctx.stream(i).unwrap();
                let val = (i + 1) as f32;
                ctx.kernel(
                    s,
                    native_kernel(&format!("w{i}"))
                        .writing([*b])
                        .with_native(move |k| {
                            k.writes[0][0] = val;
                        }),
                )
                .unwrap();
            }
            ctx.barrier();
            let s0 = ctx.stream(0).unwrap();
            ctx.kernel(
                s0,
                native_kernel("sum")
                    .reading(stage1.iter().copied())
                    .writing([total])
                    .with_native(|k| {
                        k.writes[0][0] = k.reads.iter().map(|r| r[0]).sum();
                    }),
            )
            .unwrap();
            ctx.d2h(s0, total).unwrap();
            ctx.run_native().unwrap();
            assert_eq!(ctx.read_host(total).unwrap(), vec![10.0]);
        }
    }

    #[test]
    fn throttled_link_slows_transfers() {
        let mut ctx = small_ctx(1);
        let a = ctx.alloc("a", 1 << 18); // 1 MiB
        let s = ctx.stream(0).unwrap();
        for _ in 0..4 {
            ctx.h2d(s, a).unwrap();
        }
        let fast = ctx.run_native().unwrap();
        // 4 MiB at 100 MB/s => >= 40 ms.
        let slow = ctx
            .run_native_with(&NativeConfig {
                link_bandwidth: Some(100.0e6),
                ..NativeConfig::default()
            })
            .unwrap();
        assert!(
            slow.wall >= Duration::from_millis(35),
            "slow={:?}",
            slow.wall
        );
        assert!(slow.wall > fast.wall);
    }

    #[test]
    fn empty_program_native() {
        let ctx = small_ctx(2);
        let report = ctx.run_native().unwrap();
        assert_eq!(report.actions_executed, 0);
        assert_eq!(report.bytes_transferred, 0);
    }

    #[test]
    fn host_kernel_operates_on_host_copies() {
        let mut ctx = small_ctx(1);
        let a = ctx.alloc("a", 4);
        let b = ctx.alloc("b", 4);
        ctx.write_host(a, &[1., 2., 3., 4.]).unwrap();
        let s = ctx.stream(0).unwrap();
        // No transfers: the host kernel must see the host copy directly.
        ctx.kernel(
            s,
            native_kernel("host-add")
                .on_host()
                .reading([a])
                .writing([b])
                .with_native(|k| {
                    for (o, i) in k.writes[0].iter_mut().zip(k.reads[0]) {
                        *o = i * 10.0;
                    }
                }),
        )
        .unwrap();
        ctx.run_native().unwrap();
        assert_eq!(ctx.read_host(b).unwrap(), vec![10., 20., 30., 40.]);
        // The device copy was never touched.
        assert_eq!(*ctx.buffer(b).unwrap().device.read(), vec![0.0; 4]);
    }

    #[test]
    fn mixed_host_device_round_trip() {
        // device kernel writes x (device), d2h, host kernel doubles on host.
        let mut ctx = small_ctx(1);
        let x = ctx.alloc("x", 2);
        let s = ctx.stream(0).unwrap();
        ctx.kernel(
            s,
            native_kernel("dev").writing([x]).with_native(|k| {
                k.writes[0].copy_from_slice(&[3.0, 4.0]);
            }),
        )
        .unwrap();
        ctx.d2h(s, x).unwrap();
        ctx.kernel(
            s,
            native_kernel("host")
                .on_host()
                .writing([x])
                .with_native(|k| {
                    for v in k.writes[0].iter_mut() {
                        *v *= 2.0;
                    }
                }),
        )
        .unwrap();
        ctx.run_native().unwrap();
        assert_eq!(ctx.read_host(x).unwrap(), vec![6.0, 8.0]);
    }

    #[test]
    fn streams_sharing_partition_serialize_kernels() {
        use std::sync::atomic::{AtomicBool, AtomicUsize};
        let concurrent = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));

        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(1)
            .streams_per_partition(4)
            .build()
            .unwrap();
        for i in 0..4 {
            let s = ctx.stream(i).unwrap();
            let concurrent = concurrent.clone();
            let active = active.clone();
            ctx.kernel(
                s,
                native_kernel(&format!("k{i}")).with_native(move |_| {
                    if active.fetch_add(1, Ordering::SeqCst) > 0 {
                        concurrent.store(true, Ordering::SeqCst);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                    active.fetch_sub(1, Ordering::SeqCst);
                }),
            )
            .unwrap();
        }
        ctx.run_native().unwrap();
        assert!(
            !concurrent.load(Ordering::SeqCst),
            "kernels on one partition must serialize"
        );
    }

    #[test]
    fn kernels_on_distinct_partitions_overlap() {
        use std::sync::atomic::AtomicBool;
        // Two kernels on different partitions, each waiting (bounded) for
        // the other to be inside its body: the flag can only be set if the
        // partitions genuinely run concurrently — sleeps alone would also
        // pass on a serialized runtime, this cannot.
        let inside = Arc::new(AtomicUsize::new(0));
        let overlapped = Arc::new(AtomicBool::new(false));
        let mut ctx = small_ctx(2);
        for i in 0..2 {
            let s = ctx.stream(i).unwrap();
            let inside = inside.clone();
            let overlapped = overlapped.clone();
            ctx.kernel(
                s,
                native_kernel(&format!("k{i}")).with_native(move |_| {
                    inside.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while Instant::now() < deadline {
                        // Break as soon as either body observed both inside.
                        if inside.load(Ordering::SeqCst) == 2 || overlapped.load(Ordering::SeqCst) {
                            overlapped.store(true, Ordering::SeqCst);
                            break;
                        }
                        std::thread::yield_now();
                    }
                    inside.fetch_sub(1, Ordering::SeqCst);
                }),
            )
            .unwrap();
        }
        ctx.run_native().unwrap();
        assert!(
            overlapped.load(Ordering::SeqCst),
            "kernels on distinct partitions must overlap"
        );
    }

    /// `tiles` independent pipeline tiles (h2d, kernel, d2h) recorded onto
    /// `streams` streams — the T < P starvation shape when `streams` is
    /// smaller than the context's partition count.
    fn tiled_ctx(partitions: usize, streams: usize, tiles: usize) -> Context {
        let mut ctx = small_ctx(partitions);
        let mut bufs = Vec::new();
        for t in 0..tiles {
            let a = ctx.alloc(format!("a{t}"), 32);
            let b = ctx.alloc(format!("b{t}"), 32);
            ctx.write_host(a, &[t as f32 + 1.0; 32]).unwrap();
            bufs.push((a, b));
        }
        for (t, (a, b)) in bufs.into_iter().enumerate() {
            let s = ctx.stream(t % streams).unwrap();
            ctx.h2d(s, a).unwrap();
            ctx.kernel(
                s,
                native_kernel(&format!("tile{t}"))
                    .reading([a])
                    .writing([b])
                    .with_native(|k| {
                        std::thread::sleep(Duration::from_millis(2));
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

    #[test]
    fn scheduled_runs_match_fifo_numerics() {
        // Same program through FIFO, HEFT and WorkSteal: placements move,
        // results must not.
        let mut ctx = tiled_ctx(4, 2, 8);
        ctx.run_native().unwrap();
        let expected: Vec<Vec<f32>> = (0..8)
            .map(|t| ctx.read_host(BufId(2 * t + 1)).unwrap())
            .collect();
        for kind in [SchedulerKind::ListHeft, SchedulerKind::WorkSteal] {
            ctx.set_scheduler(kind);
            let report = ctx.run_native().unwrap();
            assert_eq!(report.actions_executed, 24, "{kind}");
            for (t, want) in expected.iter().enumerate() {
                assert_eq!(
                    &ctx.read_host(BufId(2 * t + 1)).unwrap(),
                    want,
                    "{kind} tile {t}"
                );
            }
        }
    }

    #[test]
    fn heft_spreads_starved_streams_and_reports_steals() {
        // 8 tiles on 2 streams, 4 partitions: HEFT's planned placement must
        // move kernels onto the idle partitions, surfaced as steals.
        let mut ctx = tiled_ctx(4, 2, 8);
        ctx.set_scheduler(SchedulerKind::ListHeft);
        let report = ctx.run_native().unwrap();
        assert!(report.steals > 0, "steals = {}", report.steals);
        // FIFO never steals.
        ctx.set_scheduler(SchedulerKind::Fifo);
        let fifo = ctx.run_native().unwrap();
        assert_eq!(fifo.steals, 0);
    }

    #[test]
    fn scheduled_trace_carries_steal_counter() {
        let mut ctx = tiled_ctx(4, 2, 8);
        ctx.set_scheduler(SchedulerKind::ListHeft);
        let report = ctx
            .run_native_with(&NativeConfig {
                trace: true,
                ..NativeConfig::default()
            })
            .unwrap();
        let trace = report.trace.expect("traced run");
        assert_eq!(trace.counters.steals, report.steals as u64);
        // The scheduled timeline still classifies: some compute happened.
        assert!(trace.overlap().compute_busy > SimDuration::ZERO);
    }

    #[test]
    fn scheduled_run_of_a_program_narrower_than_the_partitions_records() {
        // A scheduled run has one driver per (device, partition) even when
        // the installed program has fewer streams: every driver needs a
        // span buffer, not only the first `stream_count()`.
        let mut ctx = tiled_ctx(4, 2, 8);
        let mut narrow = ctx.program().clone();
        narrow.streams.truncate(2);
        ctx.install_program(narrow).unwrap();
        ctx.set_scheduler(SchedulerKind::ListHeft);
        let report = ctx
            .run_native_with(&NativeConfig {
                trace: true,
                ..NativeConfig::default()
            })
            .unwrap();
        let trace = report.trace.expect("traced run");
        assert_eq!(trace.counters.launch_overhead.count, 8);
    }

    #[test]
    fn a_fault_plan_keeps_the_schedule() {
        // Faults fire at their recorded sites wherever a node runs, so a
        // fault plan leaves HEFT's plan as it is, and the run walks it:
        // each kernel the plan moved counts once, whoever runs it (an idle
        // driver may steal more). A recorded FIFO walk would count none.
        let mut ctx = tiled_ctx(4, 1, 4);
        ctx.set_scheduler(SchedulerKind::ListHeft);
        let plan = ctx.plan_schedule().expect("a clean program schedules");
        assert!(plan.steals > 0, "planned steals = {}", plan.steals);
        let plain = ctx.run_native().unwrap();
        assert!(plain.steals >= plan.steals, "steals = {}", plain.steals);
        ctx.set_fault_plan(Some(crate::fault::FaultPlan::seeded(7)));
        let faulted = ctx.plan_schedule().expect("a fault plan plans the same");
        assert_eq!(format!("{faulted:?}"), format!("{plan:?}"));
        let report = ctx.run_native().unwrap();
        assert!(report.steals >= plan.steals, "steals = {}", report.steals);
    }

    #[test]
    fn persistent_runtime_is_reused_across_runs() {
        let mut ctx = small_ctx(2);
        let a = ctx.alloc("a", 16);
        let mut after_prev = None;
        for i in 0..2 {
            let s = ctx.stream(i).unwrap();
            if let Some(e) = after_prev {
                ctx.wait_event(s, e).unwrap();
            }
            ctx.kernel(
                s,
                native_kernel(&format!("k{i}"))
                    .writing([a])
                    .with_native(|k| {
                        k.writes[0][0] += 1.0;
                    }),
            )
            .unwrap();
            after_prev = Some(ctx.record_event(s).unwrap());
        }
        assert_eq!(ctx.native_thread_count(), None, "runtime built lazily");
        ctx.run_native().unwrap();
        let after_first = ctx.native_thread_count().expect("runtime exists");
        for _ in 0..20 {
            ctx.run_native().unwrap();
        }
        assert_eq!(
            ctx.native_thread_count().unwrap(),
            after_first,
            "repeated runs must not grow the runtime"
        );
    }

    /// Run `f` on its own thread and give it `secs` seconds: what would
    /// otherwise hang the suite (drivers asleep for good) fails instead.
    fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(secs))
            .expect("the drivers never came back")
    }

    #[test]
    fn native_refuses_a_wait_cycle_before_any_driver_waits() {
        // The cycle of `native_refuses_deadlocked_program_instead_of_hanging`
        // recorded in front of each stream's record: the analyzer refuses it
        // before two drivers following event flags could sleep on each
        // other for good.
        let mut ctx = small_ctx(2);
        let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
        let e_a = ctx.record_event(s0).unwrap();
        let e_b = ctx.record_event(s1).unwrap();
        ctx.program_mut().streams[0]
            .actions
            .insert(0, Action::WaitEvent(e_b));
        ctx.program_mut().streams[1]
            .actions
            .insert(0, Action::WaitEvent(e_a));
        ctx.program_mut().events[e_a.0].action_index = 1;
        ctx.program_mut().events[e_b.0].action_index = 1;
        ctx.program.validate().unwrap();
        let err = within(5, move || ctx.run_native().unwrap_err());
        assert!(
            matches!(&err, Error::Check(report)
                if report.errors().any(|d| d.code == crate::check::CheckCode::DeadlockCycle)),
            "{err}"
        );
    }

    #[test]
    fn an_events_table_that_disagrees_with_the_actions_is_refused_by_both_executors() {
        // events[e] names the h2d, not the record: the happens-before graph
        // follows the table, so no executor may follow the actions instead.
        let mut ctx = small_ctx(2);
        let a = ctx.alloc("a", 8);
        let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
        ctx.h2d(s0, a).unwrap();
        let e = ctx.record_event(s0).unwrap();
        ctx.wait_event(s1, e).unwrap();
        ctx.d2h(s1, a).unwrap();
        ctx.run_native().unwrap();
        ctx.program_mut().events[e.0].action_index = 0;
        assert!(matches!(ctx.program.validate(), Err(Error::UnknownEvent(x)) if x == e));
        for err in [ctx.run_native().unwrap_err(), ctx.run_sim().unwrap_err()] {
            assert!(matches!(err, Error::UnknownEvent(x) if x == e), "{err}");
        }
    }

    #[test]
    fn a_driver_unwinding_outside_a_kernel_wakes_the_sleepers() {
        // Stream 1 sleeps for its wait; stream 0's driver unwinds before it
        // records. The sleeper must come back and find the run over.
        let mut ctx = small_ctx(2);
        let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
        let e = ctx.record_event(s0).unwrap();
        ctx.wait_event(s1, e).unwrap();
        let hb = crate::check::HbGraph::build(ctx.program());
        let wait = hb.edges().node_of(Site::new(1, 0));
        let walk = Walk::Recorded(hb);
        for yields in [false, true] {
            let dispatch = Dispatch::new(&ctx, &walk, &[], yields);
            std::thread::scope(|scope| {
                let sleeper = scope.spawn(|| {
                    let _ = dispatch.parkers[1].thread.set(std::thread::current());
                    dispatch.wait_for(1, wait);
                });
                // Force the interleaving: the sleeper has announced its node.
                while dispatch.parkers[1].sleeps_for.load(Ordering::SeqCst) != wait as u32 {
                    std::thread::yield_now();
                }
                let unwound = catch_unwind(AssertUnwindSafe(|| {
                    let _exit = DriverExit(&dispatch);
                    panic!("driver 0 panics outside a kernel body");
                }));
                assert!(unwound.is_err());
                sleeper.join().expect("the sleeper was woken");
            });
            assert_eq!(
                dispatch.next(1, &mut 0),
                None,
                "the run is over (yields: {yields})"
            );
        }
    }

    #[test]
    fn scheduled_kernel_panic_does_not_poison_later_runs() {
        // The scheduled twin of `kernel_panic_does_not_poison_later_runs`:
        // 8 tiles over 2 partitions under ListHeft, tile 3 panics on demand.
        let boom = Arc::new(AtomicBool::new(false));
        let mut ctx = small_ctx(2);
        let mut outs = Vec::new();
        for t in 0..8 {
            let a = ctx.alloc(format!("a{t}"), 32);
            let b = ctx.alloc(format!("b{t}"), 32);
            ctx.write_host(a, &[t as f32 + 0.5; 32]).unwrap();
            let s = ctx.stream(t % 2).unwrap();
            let boom = boom.clone();
            ctx.h2d(s, a).unwrap();
            ctx.kernel(
                s,
                native_kernel(&format!("tile{t}"))
                    .reading([a])
                    .writing([b])
                    .with_native(move |k| {
                        assert!(t != 3 || !boom.load(Ordering::SeqCst), "boom");
                        for (o, i) in k.writes[0].iter_mut().zip(k.reads[0]) {
                            *o = i * 3.0;
                        }
                    }),
            )
            .unwrap();
            ctx.d2h(s, b).unwrap();
            outs.push(b);
        }
        let outputs = |ctx: &Context| -> Vec<Vec<f32>> {
            outs.iter().map(|&b| ctx.read_host(b).unwrap()).collect()
        };
        ctx.run_native().unwrap();
        let fifo = outputs(&ctx);
        let threads = ctx.native_thread_count();

        ctx.set_scheduler(SchedulerKind::ListHeft);
        boom.store(true, Ordering::SeqCst);
        let err = ctx.run_native().unwrap_err();
        assert!(matches!(err.cause(), Error::PartitionLost { .. }), "{err}");
        assert_eq!(ctx.native_thread_count(), threads);

        boom.store(false, Ordering::SeqCst);
        for &b in &outs {
            ctx.write_host(b, &[0.0; 32]).unwrap();
        }
        let report = ctx.run_native().unwrap();
        assert_eq!(report.actions_executed, 24);
        assert_eq!(outputs(&ctx), fifo);
        assert_eq!(ctx.native_thread_count(), threads);
    }

    #[test]
    fn work_stealing_neither_loses_a_wake_up_nor_claims_a_node_twice() {
        // The shape of `tiled_ctx(4, 2, 32)` with kernels that do not sleep,
        // so drivers race for every node: a lost wake-up is a hang, a double
        // claim a wrong count.
        let mut ctx = small_ctx(4);
        for t in 0..32 {
            let a = ctx.alloc(format!("a{t}"), 32);
            let b = ctx.alloc(format!("b{t}"), 32);
            let s = ctx.stream(t % 2).unwrap();
            ctx.h2d(s, a).unwrap();
            ctx.kernel(
                s,
                native_kernel(&format!("tile{t}"))
                    .reading([a])
                    .writing([b])
                    .with_native(|k| k.writes[0].copy_from_slice(k.reads[0])),
            )
            .unwrap();
            ctx.d2h(s, b).unwrap();
        }
        ctx.set_scheduler(SchedulerKind::WorkSteal);
        within(60, move || {
            for run in 0..200 {
                let report = ctx.run_native().unwrap();
                assert_eq!(report.actions_executed, 96, "run {run}");
            }
        });
    }
}
