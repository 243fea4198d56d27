//! The streaming context — the crate's main entry point.
//!
//! A [`Context`] is the analogue of `hStreams_app_init`: it partitions each
//! card's cores into `P` groups, creates `S` streams per partition, and then
//! records buffer allocations and stream actions into a
//! [`Program`]. The recorded program runs on either
//! executor:
//!
//! * [`Context::run_sim`] prices it on the calibrated platform simulator and
//!   returns a full timeline;
//! * [`Context::run_native`](crate::executor::native) executes it for real
//!   on partitioned host thread pools.
//!
//! What a run reads is context state — the scheduler, the fault plan —
//! and what it produced comes back from the call: a report,
//! or an error that carries its evidence (a refusal its
//! [`CheckReport`](crate::check::CheckReport), a failed native run its
//! [`RunFailure`](crate::types::RunFailure)).
//!
//! ```
//! use hstreams::context::Context;
//! use hstreams::kernel::KernelDesc;
//! use micsim::compute::KernelProfile;
//! use micsim::PlatformConfig;
//!
//! let mut ctx = Context::builder(PlatformConfig::phi_31sp())
//!     .partitions(4)
//!     .build()
//!     .unwrap();
//! let a = ctx.alloc("A", 1 << 20);
//! let s0 = ctx.stream(0).unwrap();
//! ctx.h2d(s0, a).unwrap();
//! let k = KernelDesc::simulated("scale", KernelProfile::streaming("scale", 0.32e9), 1e6)
//!     .reading([a]);
//! ctx.kernel(s0, k).unwrap();
//! let report = ctx.run_sim().unwrap();
//! assert!(report.timeline.makespan.nanos() > 0);
//! ```

use std::sync::Arc;

use micsim::calibrate::PlatformConfig;
use micsim::device::DeviceId;
use micsim::partition::PartitionPlan;
use micsim::pcie::Direction;

use crate::action::Action;
use crate::buffer::{Buffer, Elem};
use crate::inline::InlineStr;
use crate::kernel::KernelDesc;
use crate::program::{EventSite, Program, StreamPlacement, StreamRecord};
// (Program is also the module-doc link target above.)
use crate::types::{BufId, Error, EventId, Result, StreamId};

/// Builder for [`Context`].
pub struct ContextBuilder {
    cfg: PlatformConfig,
    partitions: usize,
    streams_per_partition: usize,
    replan_capacity: Option<usize>,
}

impl ContextBuilder {
    /// Number of core partitions per card (the paper's `P`). Default 1.
    pub fn partitions(mut self, p: usize) -> ContextBuilder {
        self.partitions = p;
        self
    }

    /// Streams bound to each partition. Default 1 (the paper's setup).
    pub fn streams_per_partition(mut self, s: usize) -> ContextBuilder {
        self.streams_per_partition = s;
        self
    }

    /// Largest partition count a later [`Context::replan`] may switch to.
    /// The persistent native runtime sizes its driver group, worker pools
    /// and partition locks for this capacity, so one runtime serves trials
    /// at any `P <= capacity` without respawning threads. Defaults to the
    /// initial partition count (no headroom).
    pub fn replan_capacity(mut self, p: usize) -> ContextBuilder {
        self.replan_capacity = Some(p);
        self
    }

    /// Initialize the context: split the cards into one shared partition
    /// plan and create the streams.
    pub fn build(self) -> Result<Context> {
        if self.streams_per_partition == 0 {
            return Err(Error::Config(
                "streams_per_partition must be positive".into(),
            ));
        }
        let replan_capacity = self.replan_capacity.unwrap_or(self.partitions);
        if replan_capacity < self.partitions {
            return Err(Error::Config(format!(
                "replan_capacity {} below initial partition count {}",
                replan_capacity, self.partitions
            )));
        }
        self.cfg.validate().map_err(Error::Config)?;
        let plan = PartitionPlan::equal_split(&self.cfg.device, self.partitions)?;
        let mut ctx = Context {
            cfg: self.cfg,
            plan,
            streams_per_partition: self.streams_per_partition,
            replan_capacity,
            buffers: Vec::new(),
            program: Arc::default(),
            native_rt: std::sync::OnceLock::new(),
            scheduler: crate::sched::SchedulerKind::default(),
            fault_plan: None,
        };
        ctx.lay_out_streams();
        Ok(ctx)
    }
}

/// A live streaming context. See the [module docs](self).
pub struct Context {
    cfg: PlatformConfig,
    /// The partition plan every card shares.
    plan: PartitionPlan,
    streams_per_partition: usize,
    replan_capacity: usize,
    pub(crate) buffers: Vec<Buffer>,
    /// The recorded program, shared with the reports of the runs that
    /// priced it (they render their task labels from it); recording into
    /// a program a live report still holds copies it first.
    pub(crate) program: Arc<Program>,
    /// Persistent native execution state (drivers, worker pools, link
    /// lanes), built lazily on the first native run and torn down when
    /// the context drops.
    native_rt: std::sync::OnceLock<crate::executor::native::NativeRuntime>,
    /// Which scheduler both executors use (see [`crate::sched`]).
    scheduler: crate::sched::SchedulerKind,
    /// The faults both executors inject (see [`Context::set_fault_plan`]).
    pub(crate) fault_plan: Option<crate::fault::FaultPlan>,
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("devices", &self.device_count())
            .field("partitions", &self.partitions())
            .field("streams_per_partition", &self.streams_per_partition)
            .field("buffers", &self.buffers.len())
            .field("actions", &self.program.action_count())
            .finish()
    }
}

impl Context {
    /// Start building a context for `cfg`.
    pub fn builder(cfg: PlatformConfig) -> ContextBuilder {
        ContextBuilder {
            cfg,
            partitions: 1,
            streams_per_partition: 1,
            replan_capacity: None,
        }
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// Partitions per card.
    pub fn partitions(&self) -> usize {
        self.plan.count()
    }

    /// Streams per partition.
    pub fn streams_per_partition(&self) -> usize {
        self.streams_per_partition
    }

    /// Largest partition count [`Context::replan`] may switch to (see
    /// [`ContextBuilder::replan_capacity`]).
    pub fn replan_capacity(&self) -> usize {
        self.replan_capacity
    }

    /// Re-partition every card to a new `P` **without touching buffers**:
    /// partitions are re-initialized, the stream set is rebuilt
    /// (device-major, same streams-per-partition), and the recorded program
    /// — actions, events, barriers — is discarded so a new one can be
    /// recorded against the new geometry. Buffer ids, host copies and any
    /// backed native storage all survive, which is what makes an
    /// autotuning sweep over `(T, P)` cheap: allocate and fill once, replan
    /// and re-record per trial. The program's storage survives too: each
    /// kept stream's action queue and the events table are cleared in
    /// place, so re-recording a candidate of a similar size allocates no
    /// queue again.
    ///
    /// Once the persistent native runtime exists (after the first
    /// `run_native`), `partitions` must not exceed
    /// [`replan_capacity`](Context::replan_capacity) — the runtime's driver
    /// group and partition pools were sized for that capacity. Before the
    /// runtime is built, replanning past the capacity simply raises it.
    ///
    /// On error (e.g. more partitions than cores) the context keeps its
    /// previous geometry and program.
    pub fn replan(&mut self, partitions: usize) -> Result<()> {
        if partitions > self.replan_capacity && self.native_rt.get().is_some() {
            return Err(Error::Config(format!(
                "replan to {} partitions exceeds the native runtime's capacity {} \
                 (set ContextBuilder::replan_capacity before the first native run)",
                partitions, self.replan_capacity
            )));
        }
        self.plan = PartitionPlan::equal_split(&self.cfg.device, partitions)?;
        self.replan_capacity = self.replan_capacity.max(partitions);
        self.lay_out_streams();
        Ok(())
    }

    /// Empty the recorded program and lay out the streams of the current
    /// plan (device-major, then partition, then stream-within-partition),
    /// keeping the storage [`Context::clear_program`] keeps.
    fn lay_out_streams(&mut self) {
        let (devices, partitions) = (self.device_count(), self.partitions());
        let per_partition = self.streams_per_partition;
        let program = self.clear_program();
        program
            .streams
            .truncate(devices * partitions * per_partition);
        let placements = (0..devices).flat_map(|dev| {
            (0..partitions * per_partition).map(move |i| StreamPlacement {
                device: DeviceId(dev),
                partition: i / per_partition,
            })
        });
        for (i, placement) in placements.enumerate() {
            let id = StreamId(i);
            match program.streams.get_mut(i) {
                Some(s) => {
                    s.id = id;
                    s.placement = placement;
                }
                None => program.streams.push(StreamRecord {
                    id,
                    placement,
                    actions: Vec::new(),
                }),
            }
        }
    }

    /// Discard the recorded actions, events and barriers but keep the
    /// stream set, reusing the program's storage: each stream's action
    /// queue and the events table are cleared in place. A program a live
    /// report still shares stays the report's, and recording starts over
    /// from its stream set with empty queues.
    fn clear_program(&mut self) -> &mut Program {
        if Arc::get_mut(&mut self.program).is_none() {
            let streams = self
                .program
                .streams
                .iter()
                .map(|s| StreamRecord {
                    actions: Vec::new(),
                    ..*s
                })
                .collect();
            self.program = Arc::new(Program {
                streams,
                ..Program::default()
            });
        }
        let program = self.program_mut();
        for s in &mut program.streams {
            s.actions.clear();
        }
        program.events.clear();
        program.barriers = 0;
        program
    }

    /// Total streams across all cards.
    pub fn stream_count(&self) -> usize {
        self.program.streams.len()
    }

    /// Number of cards.
    pub fn device_count(&self) -> usize {
        self.cfg.device_count
    }

    /// The `idx`-th stream (creation order: device-major, then partition,
    /// then stream-within-partition).
    pub fn stream(&self, idx: usize) -> Result<StreamId> {
        if idx < self.program.streams.len() {
            Ok(StreamId(idx))
        } else {
            Err(Error::UnknownStream(StreamId(idx)))
        }
    }

    /// Where `stream` is placed.
    pub fn placement(&self, stream: StreamId) -> Result<StreamPlacement> {
        self.program
            .streams
            .get(stream.0)
            .map(|s| s.placement)
            .ok_or(Error::UnknownStream(stream))
    }

    // ----- buffers ---------------------------------------------------------

    /// Allocate a zero-filled logical buffer of `len` elements, with an
    /// instance reserved in every card's device memory.
    pub fn alloc(&mut self, name: impl Into<InlineStr>, len: usize) -> BufId {
        let id = BufId(self.buffers.len());
        self.buffers.push(Buffer::new(id, name, len));
        id
    }

    /// Overwrite a buffer's host copy.
    pub fn write_host(&self, buf: BufId, data: &[Elem]) -> Result<()> {
        self.buffer(buf)?.write_host(data)
    }

    /// Clone a buffer's host copy out.
    pub fn read_host(&self, buf: BufId) -> Result<Vec<Elem>> {
        Ok(self.buffer(buf)?.read_host())
    }

    /// Borrow a buffer.
    pub fn buffer(&self, buf: BufId) -> Result<&Buffer> {
        self.buffers.get(buf.0).ok_or(Error::UnknownBuffer(buf))
    }

    /// Number of allocated buffers.
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    // ----- recording -------------------------------------------------------

    /// The recorded program, for writing.
    pub(crate) fn program_mut(&mut self) -> &mut Program {
        Arc::make_mut(&mut self.program)
    }

    fn stream_mut(&mut self, stream: StreamId) -> Result<&mut StreamRecord> {
        self.program_mut()
            .streams
            .get_mut(stream.0)
            .ok_or(Error::UnknownStream(stream))
    }

    fn check_buf(&self, buf: BufId) -> Result<()> {
        if buf.0 < self.buffers.len() {
            Ok(())
        } else {
            Err(Error::UnknownBuffer(buf))
        }
    }

    /// Enqueue a host→device transfer of `buf` on `stream`.
    pub fn h2d(&mut self, stream: StreamId, buf: BufId) -> Result<()> {
        self.check_buf(buf)?;
        self.stream_mut(stream)?.actions.push(Action::Transfer {
            dir: Direction::HostToDevice,
            buf,
        });
        Ok(())
    }

    /// Enqueue a device→host transfer of `buf` on `stream`.
    pub fn d2h(&mut self, stream: StreamId, buf: BufId) -> Result<()> {
        self.check_buf(buf)?;
        self.stream_mut(stream)?.actions.push(Action::Transfer {
            dir: Direction::DeviceToHost,
            buf,
        });
        Ok(())
    }

    /// Enqueue a kernel launch on `stream`.
    pub fn kernel(&mut self, stream: StreamId, desc: KernelDesc) -> Result<()> {
        desc.validate()?;
        for b in desc.reads.iter().chain(&desc.writes) {
            self.check_buf(*b)?;
        }
        self.stream_mut(stream)?.actions.push(Action::Kernel(desc));
        Ok(())
    }

    /// Record an event on `stream`: it fires when all work enqueued on
    /// `stream` before this call has completed.
    pub fn record_event(&mut self, stream: StreamId) -> Result<EventId> {
        let event = EventId(self.program.events.len());
        let s = self.stream_mut(stream)?;
        let action_index = s.actions.len();
        s.actions.push(Action::RecordEvent(event));
        let sid = s.id;
        self.program_mut().events.push(EventSite {
            stream: sid,
            action_index,
        });
        Ok(event)
    }

    /// Make `stream` wait for `event` before running anything enqueued after
    /// this call.
    pub fn wait_event(&mut self, stream: StreamId, event: EventId) -> Result<()> {
        let site = *self
            .program
            .events
            .get(event.0)
            .ok_or(Error::UnknownEvent(event))?;
        if site.stream == stream {
            return Err(Error::InvalidEventWait { stream, event });
        }
        self.stream_mut(stream)?
            .actions
            .push(Action::WaitEvent(event));
        Ok(())
    }

    /// Device-wide barrier across **all** streams: no stream runs anything
    /// enqueued after the barrier until every stream has drained everything
    /// enqueued before it. This is how the paper's non-overlappable flows
    /// (Hotspot, Kmeans, SRAD) separate their stages.
    pub fn barrier(&mut self) {
        let program = self.program_mut();
        let n = program.barriers;
        program.barriers += 1;
        for s in &mut program.streams {
            s.actions.push(Action::Barrier(n));
        }
    }

    /// The recorded program (read-only).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Replace the recorded program wholesale — the fuzzing and
    /// differential-testing entry point: build or mutate a bare
    /// [`Program`] elsewhere, install it here, run it on either executor.
    ///
    /// Beyond [`Program::validate`] (the events table included), this
    /// enforces the **hard safety bounds** that keep the executors
    /// panic-free before any analysis: every buffer reference must be
    /// allocated in this context, every placement must name a real device
    /// and a partition inside the **current** geometry, and the stream
    /// count must fit what the native runtime was (or will be) sized for.
    /// Violations are typed [`Error`]s, never panics — the static checker
    /// still runs at execution time and may reject more.
    ///
    /// The program is stored as given: a caller that wants redundant sync
    /// elided runs [`crate::opt::optimize`] first and installs its program,
    /// translating recorded coordinates through its report's site map.
    pub fn install_program(&mut self, program: Program) -> Result<()> {
        program.validate()?;
        let devices = self.device_count();
        let max_streams = devices * self.replan_capacity * self.streams_per_partition;
        if program.streams.len() > max_streams {
            return Err(Error::Config(format!(
                "program has {} streams; this context can drive at most {max_streams}",
                program.streams.len()
            )));
        }
        for s in &program.streams {
            if s.placement.device.0 >= devices {
                return Err(Error::Config(format!(
                    "stream {} placed on {} but the platform has {devices} device(s)",
                    s.id, s.placement.device
                )));
            }
            if s.placement.partition >= self.partitions() {
                return Err(Error::Config(format!(
                    "stream {} placed on partition {} but the current plan has {}",
                    s.id,
                    s.placement.partition,
                    self.partitions()
                )));
            }
            for a in &s.actions {
                for b in a.buffers() {
                    self.check_buf(b)?;
                }
            }
        }
        self.program = Arc::new(program);
        Ok(())
    }

    /// Reset every allocated buffer's host **and** device storage to zeros
    /// (backed storage is zeroed in place; still-lazy storage stays
    /// lazy, which already reads as zeros). Between two native runs this
    /// restores the initial memory state, making their outputs comparable
    /// bit for bit — the differential harness's reset button.
    pub fn zero_buffers(&self) {
        for b in &self.buffers {
            for side in [&b.host, &b.device] {
                for x in side.write().iter_mut() {
                    *x = 0.0;
                }
            }
        }
    }

    /// Discard all recorded actions, events and barriers, keeping streams,
    /// partitions and buffers. Handy for sweeping a parameter with the same
    /// buffers.
    pub fn reset_program(&mut self) {
        self.clear_program();
    }

    // ----- static analysis -------------------------------------------------

    /// The plan the analyzer checks programs against.
    pub fn check_env(&self) -> crate::check::CheckEnv {
        crate::check::CheckEnv {
            buffers: self.buffers.len(),
            devices: self.device_count(),
            partitions: self.partitions(),
            streams_per_partition: self.streams_per_partition,
        }
    }

    /// Statically analyze the recorded program against this context's
    /// plan without running it. See [`crate::check`]. A run the gate
    /// refused carries this report in [`Error::Check`].
    pub fn analyze(&self) -> crate::check::Analysis {
        crate::check::analyze(&self.program, &self.check_env())
    }

    // ----- optimizer -------------------------------------------------------

    /// Run the sync-elision optimizer ([`crate::opt::optimize`]) over the
    /// **recorded** program in place and return how many actions it
    /// removed. Unclean or already minimal programs are left untouched
    /// (zero is returned). Callers that need the report — the equivalence
    /// [`Certificate`](crate::opt::Certificate), the site map — call
    /// [`crate::opt::optimize`] themselves.
    pub fn apply_optimizer(&mut self) -> usize {
        let optimized = crate::opt::optimize(&self.program, &self.check_env());
        self.program = Arc::new(optimized.program);
        optimized.report.elided_actions()
    }

    /// Static cost bounds for the recorded program under the context's
    /// cost model (see [`crate::opt::static_cost`]). `None` when the
    /// program is cyclic or holds an action the model cannot price (it is
    /// the function the simulator prices with, so in practice this means a
    /// malformed program).
    pub fn static_cost(&self) -> Option<crate::opt::StaticCost> {
        let model = self.cost_model().ok()?;
        crate::opt::static_cost(&self.program, &model)
    }

    // ----- scheduling ------------------------------------------------------

    /// Which scheduler both executors use (see [`crate::sched`]).
    pub fn scheduler(&self) -> crate::sched::SchedulerKind {
        self.scheduler
    }

    /// Select the scheduler for subsequent runs on either executor — e.g.
    /// [`SchedulerKind::ListHeft`](crate::sched::SchedulerKind) to re-place
    /// the recorded tiles by critical-path rank instead of replaying the
    /// recorded stream order (the default,
    /// [`SchedulerKind::Fifo`](crate::sched::SchedulerKind)). Natively, a
    /// non-FIFO kind makes the drivers walk the plan's task graph instead
    /// of the recorded streams — one driver per `(device, partition)`, an
    /// idle one stealing ready tasks from its siblings at runtime. A fault
    /// plan changes none of that: its faults fire at their recorded sites
    /// wherever the scheduler runs them.
    pub fn set_scheduler(&mut self, kind: crate::sched::SchedulerKind) {
        self.scheduler = kind;
    }

    /// Inject `plan`'s faults into every subsequent run on either executor,
    /// until it is replaced (`None` injects nothing, the default). The
    /// simulator prices failed transfer attempts and their backoffs on the
    /// link, stretches slow transfers and partitions, and surfaces
    /// unrecoverable faults as typed errors; the native executor injects
    /// the same faults at the same recorded sites. Both retry a failed
    /// transfer up to 3 times.
    pub fn set_fault_plan(&mut self, plan: Option<crate::fault::FaultPlan>) {
        self.fault_plan = plan;
    }

    /// The cost model of this context — its calibrated platform
    /// configuration, partition geometry and buffer sizes: the prices the
    /// simulator, the static cost analysis and the schedulers all read.
    pub fn cost_model(&self) -> Result<crate::sched::CostModel> {
        let bytes: Vec<u64> = self.buffers.iter().map(Buffer::bytes).collect();
        let parts = &self.plan.partitions;
        Ok(crate::sched::CostModel::new(&self.cfg, parts, &bytes))
    }

    /// Plan the recorded program under the context's scheduler. `None`
    /// when the scheduler declines — FIFO always does; the others decline
    /// on empty or non-analyzer-clean programs (see [`crate::sched::plan`]).
    pub fn plan_schedule(&self) -> Option<crate::sched::Schedule> {
        let cost = self.cost_model().ok()?;
        crate::sched::plan(&self.program, &cost, self.scheduler)
    }

    // ----- execution -------------------------------------------------------

    /// Validate and price the recorded program on the platform simulator.
    ///
    /// When a non-FIFO [scheduler](Context::set_scheduler) is selected and
    /// the program is analyzer-clean, the simulator executes the scheduled
    /// (re-placed, re-ordered) form of the program instead of the recorded
    /// stream order; otherwise it runs the recorded program exactly as the
    /// pre-scheduler runtime did. The [fault plan](Context::set_fault_plan),
    /// if any, is priced in.
    pub fn run_sim(&self) -> Result<crate::executor::sim::SimReport> {
        crate::executor::sim::run(self)
    }

    /// Validate and execute the recorded program on the native host
    /// executor, with default native settings.
    pub fn run_native(&self) -> Result<crate::executor::native::NativeReport> {
        crate::executor::native::run(self, &crate::executor::native::NativeConfig::default())
    }

    /// Native execution with explicit settings.
    pub fn run_native_with(
        &self,
        cfg: &crate::executor::native::NativeConfig,
    ) -> Result<crate::executor::native::NativeReport> {
        crate::executor::native::run(self, cfg)
    }

    /// The persistent native runtime, built on first use.
    pub(crate) fn native_runtime(&self) -> &crate::executor::native::NativeRuntime {
        self.native_rt
            .get_or_init(|| crate::executor::native::NativeRuntime::new(self))
    }

    /// The persistent native runtime, if a native run has built it.
    pub(crate) fn built_native_runtime(&self) -> Option<&crate::executor::native::NativeRuntime> {
        self.native_rt.get()
    }

    /// Number of persistent threads owned by this context's native runtime
    /// (stream drivers and partition pool workers — link channels are
    /// locks, not threads), or `None` before the first native run builds
    /// it. Repeated `run_native` calls reuse these threads; this count must
    /// not grow.
    pub fn native_thread_count(&self) -> Option<usize> {
        self.built_native_runtime()
            .map(super::executor::native::NativeRuntime::thread_count)
    }

    /// Execute natively with **graceful degradation**: a pass that loses work
    /// drains and records what it skipped; the next pass re-runs exactly
    /// those nodes of the checker's task graph on surviving partitions,
    /// through the same scheduled walk, the fault plan live except at sites
    /// that already fired. At most two recovery passes run. The
    /// [`ResilientReport`](crate::fault::ResilientReport) carries the last
    /// pass's report and every pass's counters; allocation faults, programs
    /// that are not analyzer-clean, the loss of every partition and an
    /// exhausted budget surface the failing pass's error.
    pub fn run_native_resilient(
        &self,
        cfg: &crate::executor::native::NativeConfig,
    ) -> Result<crate::fault::ResilientReport> {
        crate::executor::native::run_resilient(self, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micsim::compute::KernelProfile;

    fn ctx(p: usize, spp: usize) -> Context {
        Context::builder(PlatformConfig::phi_31sp())
            .partitions(p)
            .streams_per_partition(spp)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_creates_streams_per_partition() {
        let c = ctx(4, 2);
        assert_eq!(c.stream_count(), 8);
        assert_eq!(c.partitions(), 4);
        assert_eq!(c.streams_per_partition(), 2);
        // Streams 0,1 on partition 0; 2,3 on partition 1; ...
        assert_eq!(c.placement(StreamId(0)).unwrap().partition, 0);
        assert_eq!(c.placement(StreamId(1)).unwrap().partition, 0);
        assert_eq!(c.placement(StreamId(2)).unwrap().partition, 1);
    }

    #[test]
    fn multi_device_streams_are_device_major() {
        let c = Context::builder(PlatformConfig::phi_31sp_multi(2))
            .partitions(2)
            .build()
            .unwrap();
        assert_eq!(c.stream_count(), 4);
        assert_eq!(c.device_count(), 2);
        assert_eq!(c.placement(StreamId(0)).unwrap().device, DeviceId(0));
        assert_eq!(c.placement(StreamId(2)).unwrap().device, DeviceId(1));
    }

    #[test]
    fn zero_streams_per_partition_rejected() {
        let err = Context::builder(PlatformConfig::phi_31sp())
            .streams_per_partition(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }

    #[test]
    fn bad_partition_counts_name_the_geometry_they_violate() {
        let msg = |p| {
            Context::builder(PlatformConfig::phi_31sp())
                .partitions(p)
                .build()
                .unwrap_err()
                .to_string()
        };
        let zero = msg(0);
        assert!(zero.contains("partition count must be positive"), "{zero}");
        let wide = msg(500);
        assert!(
            wide.contains("requested 500 partitions but device has only 224 usable threads"),
            "{wide}"
        );
    }

    fn device_kernel() -> Action {
        Action::Kernel(KernelDesc::simulated(
            "k",
            KernelProfile::streaming("k", 0.32e9),
            1e9,
        ))
    }

    fn two_cards(p: usize) -> Context {
        Context::builder(PlatformConfig::phi_31sp_multi(2))
            .partitions(p)
            .build()
            .unwrap()
    }

    #[test]
    fn every_card_prices_on_the_same_plan_and_no_third_card_exists() {
        let cost = two_cards(4).cost_model().unwrap();
        let k = device_kernel();
        for part in 0..4 {
            let on0 = cost.action_seconds(&k, 0, part);
            assert!(on0.is_some(), "partition {part}");
            assert_eq!(on0, cost.action_seconds(&k, 1, part), "partition {part}");
        }
        assert!(cost.action_seconds(&k, 2, 0).is_none(), "device 2");
        assert!(cost.action_seconds(&k, 0, 4).is_none(), "partition 4");
    }

    #[test]
    fn failed_replan_keeps_the_last_good_plan_on_every_card() {
        let mut c = two_cards(4);
        c.replan(5).unwrap();
        let a = c.alloc("a", 16);
        let (s0, s1) = (c.stream(0).unwrap(), c.stream(6).unwrap());
        c.h2d(s0, a).unwrap();
        let e = c.record_event(s0).unwrap();
        c.wait_event(s1, e).unwrap();
        c.barrier();
        let recorded = c.program().dump();
        assert!(c.replan(999).is_err());
        assert_eq!(c.partitions(), 5);
        assert_eq!(c.stream_count(), 10);
        assert_eq!(c.program().dump(), recorded, "actions and events survive");
        assert_eq!(c.program().action_count(), 13);
        assert_eq!(c.program().events.len(), 1);
        c.program().validate().unwrap();
        let (got, want) = (c.cost_model().unwrap(), two_cards(5).cost_model().unwrap());
        let k = device_kernel();
        for dev in 0..2 {
            for part in 0..5 {
                let price = got.action_seconds(&k, dev, part);
                assert!(price.is_some(), "mic{dev}.p{part}");
                assert_eq!(
                    price,
                    want.action_seconds(&k, dev, part),
                    "mic{dev}.p{part}"
                );
            }
        }
        assert!(got.action_seconds(&k, 0, 5).is_none());
    }

    #[test]
    fn replan_clears_in_place_and_leaves_a_live_report_its_program() {
        let mut c = ctx(2, 1);
        let a = c.alloc("a", 16);
        for _ in 0..40 {
            c.h2d(c.stream(0).unwrap(), a).unwrap();
        }
        let e = c.record_event(c.stream(0).unwrap()).unwrap();
        c.wait_event(c.stream(1).unwrap(), e).unwrap();
        // Unshared: the queues and the events table keep their storage.
        let capacity = c.program().streams[0].actions.capacity();
        c.replan(3).unwrap();
        assert_eq!(c.stream_count(), 3);
        assert_eq!(c.program().action_count(), 0);
        assert!(c.program().events.is_empty() && c.program().events.capacity() > 0);
        assert_eq!(c.program().streams[0].actions.capacity(), capacity);
        for (i, s) in c.program().streams.iter().enumerate() {
            assert_eq!((s.id, s.placement.partition), (StreamId(i), i));
        }
        // Shared with a report: the report keeps what it priced.
        c.h2d(c.stream(2).unwrap(), a).unwrap();
        let report = c.run_sim().unwrap();
        c.replan(1).unwrap();
        assert_eq!(c.stream_count(), 1);
        assert_eq!(c.program().action_count(), 0);
        assert!(report
            .timeline
            .records
            .iter()
            .any(|r| report.label(r) == "h2d b0"));
    }

    #[test]
    fn recording_validates_handles() {
        let mut c = ctx(2, 1);
        let s0 = c.stream(0).unwrap();
        assert!(c.stream(99).is_err());
        assert!(c.h2d(s0, BufId(0)).is_err(), "buffer not allocated yet");
        let a = c.alloc("a", 16);
        c.h2d(s0, a).unwrap();
        c.d2h(s0, a).unwrap();
        assert_eq!(c.program().action_count(), 2);
        assert!(c.h2d(StreamId(42), a).is_err());
    }

    #[test]
    fn kernel_buffers_checked_at_enqueue() {
        let mut c = ctx(1, 1);
        let s0 = c.stream(0).unwrap();
        let a = c.alloc("a", 4);
        let bad = KernelDesc::simulated("k", KernelProfile::streaming("k", 1e9), 1.0)
            .reading([BufId(33)]);
        assert!(c.kernel(s0, bad).is_err());
        let good = KernelDesc::simulated("k", KernelProfile::streaming("k", 1e9), 1.0).reading([a]);
        c.kernel(s0, good).unwrap();
    }

    #[test]
    fn events_wire_across_streams() {
        let mut c = ctx(2, 1);
        let (s0, s1) = (c.stream(0).unwrap(), c.stream(1).unwrap());
        let a = c.alloc("a", 4);
        c.h2d(s0, a).unwrap();
        let e = c.record_event(s0).unwrap();
        c.wait_event(s1, e).unwrap();
        assert!(matches!(
            c.wait_event(s0, e),
            Err(Error::InvalidEventWait { .. })
        ));
        c.program().validate().unwrap();
    }

    #[test]
    fn barrier_lands_in_every_stream() {
        let mut c = ctx(3, 1);
        c.barrier();
        c.barrier();
        for s in &c.program().streams {
            assert_eq!(s.actions.len(), 2);
        }
        assert_eq!(c.program().barriers, 2);
        c.program().validate().unwrap();
    }

    #[test]
    fn reset_program_keeps_buffers() {
        let mut c = ctx(2, 1);
        let a = c.alloc("a", 8);
        let s0 = c.stream(0).unwrap();
        c.h2d(s0, a).unwrap();
        c.barrier();
        c.reset_program();
        assert_eq!(c.program().action_count(), 0);
        assert_eq!(c.program().barriers, 0);
        assert_eq!(c.buffer_count(), 1);
        assert_eq!(c.stream_count(), 2);
    }

    #[test]
    fn failed_replan_leaves_capacity_and_geometry_untouched() {
        let mut c = ctx(2, 1);
        assert_eq!(c.replan_capacity(), 2);
        // 999 partitions cannot fit 224 usable threads: geometry rejected.
        assert!(c.replan(999).is_err());
        assert_eq!(
            c.replan_capacity(),
            2,
            "capacity must not move on a rejected replan"
        );
        assert_eq!(c.partitions(), 2);
        assert_eq!(c.stream_count(), 2);
        // A later valid replan still works and raises capacity.
        c.replan(4).unwrap();
        assert_eq!(c.replan_capacity(), 4);
        assert_eq!(c.partitions(), 4);
    }

    #[test]
    fn install_program_enforces_hard_bounds() {
        use crate::program::{StreamPlacement, StreamRecord};
        let mut c = ctx(2, 1);
        let a = c.alloc("a", 8);

        // A well-formed program referencing allocated buffers installs.
        let mut good = Program::default();
        good.streams.push(StreamRecord {
            id: StreamId(0),
            placement: StreamPlacement {
                device: DeviceId(0),
                partition: 1,
            },
            actions: vec![Action::Transfer {
                dir: Direction::HostToDevice,
                buf: a,
            }],
        });
        c.install_program(good.clone()).unwrap();
        assert_eq!(c.program().action_count(), 1);

        // Unknown buffer.
        let mut bad_buf = good.clone();
        bad_buf.streams[0].actions.push(Action::Transfer {
            dir: Direction::HostToDevice,
            buf: BufId(7),
        });
        assert!(matches!(
            c.install_program(bad_buf),
            Err(Error::UnknownBuffer(BufId(7)))
        ));

        // Partition outside the current geometry.
        let mut bad_part = good.clone();
        bad_part.streams[0].placement.partition = 5;
        assert!(matches!(c.install_program(bad_part), Err(Error::Config(_))));

        // Device outside the platform.
        let mut bad_dev = good.clone();
        bad_dev.streams[0].placement.device = DeviceId(3);
        assert!(matches!(c.install_program(bad_dev), Err(Error::Config(_))));

        // More streams than the runtime can drive.
        let mut too_wide = good;
        for i in 1..40 {
            too_wide.streams.push(StreamRecord {
                id: StreamId(i),
                placement: StreamPlacement {
                    device: DeviceId(0),
                    partition: 0,
                },
                actions: vec![],
            });
        }
        assert!(matches!(c.install_program(too_wide), Err(Error::Config(_))));
        // The rejected installs left the good program in place.
        assert_eq!(c.program().action_count(), 1);
    }

    #[test]
    fn zero_buffers_resets_backed_storage() {
        let mut c = ctx(1, 1);
        let a = c.alloc("a", 4);
        c.write_host(a, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        c.buffer(a).unwrap().ensure_materialized();
        c.buffer(a).unwrap().device.write()[0] = 9.0;
        c.zero_buffers();
        assert_eq!(c.read_host(a).unwrap(), vec![0.0; 4]);
        assert_eq!(*c.buffer(a).unwrap().device.read(), vec![0.0; 4]);
    }

    #[test]
    fn write_read_host_roundtrip() {
        let mut c = ctx(1, 1);
        let a = c.alloc("a", 3);
        c.write_host(a, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(c.read_host(a).unwrap(), vec![1.0, 2.0, 3.0]);
        assert!(c.write_host(a, &[0.0]).is_err());
        assert!(c.read_host(BufId(9)).is_err());
    }
}
