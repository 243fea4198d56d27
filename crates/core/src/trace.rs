//! The run recorder: the one thing the native executor writes to.
//!
//! The paper's headline claims are *shapes on a timeline* — H2D/D2H
//! serialization (Fig. 5), partial compute/transfer overlap (Fig. 6). This
//! module records real execution into the **same
//! [`micsim::engine::Timeline`] representation the simulator produces**, so
//! every analysis tool ([`overlap_stats`], [`render_gantt`],
//! [`chrome_trace`]) and the metrics pricing function
//! ([`metrics::instruments`](crate::metrics::instruments)) work on native
//! runs unchanged. Nothing else is recorded: launch overhead and queue wait
//! are each span's `start − ready`, and the copy queue's depth and the pool
//! counters are read off the same records at join.
//!
//! Design, in order of who stamps what:
//!
//! * each **stream driver** owns a private span buffer (one buffer per
//!   driver thread, touched by nobody else while the run is live, merged
//!   only after the drivers joined — the per-buffer mutex is therefore
//!   uncontended and never blocks the hot path); a transfer's `start` and
//!   `end` are stamped by that same driver while it holds the link lane, so
//!   a lane's spans never overlap;
//! * the **pool workers** in [`pool`](crate::pool) report chunked-job spans
//!   through a thread-local sink the driver installs around the run (see
//!   `record_pool_job`).
//!
//! A span carries a [`TaskTag`] — the [`Site`] of its action, or a pool
//! job's part count and group width — never a string, and so does every
//! record of the joined timeline: [`label`] renders a tag on demand, the
//! one rendering the simulator's timelines go through too. Lanes come from
//! `LaneMap`, which the sim executor builds its engine resources from too
//! — per-device link channels, the host, per-device partitions — so a
//! native and a simulated timeline of the same program classify one-to-one;
//! a lane's name is derived from the run's geometry when a chart asks.
//!
//! The recorder exists when either of `NativeConfig::{trace, metrics}` is
//! set (they only select which outputs a report carries); otherwise the
//! executor holds `None` and pays one branch per action
//! (`trace_overhead_frac` on `mic-e2e`'s `dispatch_tiny` prices the
//! recorded side).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use micsim::engine::{ResourceId, TaskRecord, Timeline};
use micsim::time::{SimDuration, SimTime};
use micsim::trace::{
    chrome_trace, overlap_stats, partition_stats, render_gantt, OverlapStats, PartitionStats,
    ResourceKinds,
};

use crate::check::Site;
use crate::context::Context;
use crate::program::Program;
use crate::sched::Lane;

// ----- lanes ----------------------------------------------------------------

/// The resource ids and classification of a run's lanes — the one place
/// they are laid out, for both executors: every device's link channels
/// first, then the host, then every device's partitions. The sim executor
/// registers its engine resources in id order; the recorder stamps spans
/// with the same ids. A lane's id, kind and name all follow from the run's
/// `(devices, channels, partitions)`, so the map holds nothing else.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LaneMap {
    devices: usize,
    channels: usize,
    partitions: usize,
}

impl LaneMap {
    /// The lanes of `ctx`'s current geometry.
    pub(crate) fn for_context(ctx: &Context) -> LaneMap {
        LaneMap::new(
            ctx.device_count(),
            ctx.config().link.channels(),
            ctx.partitions(),
        )
    }

    pub(crate) fn new(devices: usize, channels: usize, partitions: usize) -> LaneMap {
        LaneMap {
            devices,
            channels,
            partitions,
        }
    }

    pub(crate) fn devices(&self) -> usize {
        self.devices
    }

    pub(crate) fn partitions_per_device(&self) -> usize {
        self.partitions
    }

    /// The host's lane, right after every device's link channels.
    pub(crate) fn host(&self) -> ResourceId {
        ResourceId(self.devices * self.channels)
    }

    /// Lanes in the layout (ids `0..count`).
    pub(crate) fn count(&self) -> usize {
        self.host().0 + 1 + self.devices * self.partitions
    }

    /// The resource of a [cost-model](crate::sched::CostModel) lane.
    pub(crate) fn resource(&self, lane: Lane) -> ResourceId {
        match lane {
            Lane::Link { device, channel } => self.link(device, channel),
            Lane::Host => self.host(),
            Lane::Partition { device, partition } => {
                ResourceId(self.host().0 + 1 + device * self.partitions + partition)
            }
        }
    }

    pub(crate) fn link(&self, device: usize, channel: usize) -> ResourceId {
        ResourceId(device * self.channels + channel)
    }

    /// The lane a kernel occupies: the host's, or its partition's.
    pub(crate) fn kernel(&self, host: bool, device: usize, partition: usize) -> ResourceId {
        self.resource(if host {
            Lane::Host
        } else {
            Lane::Partition { device, partition }
        })
    }

    /// Which lane `res` is (`None` for an id this map did not lay out).
    pub(crate) fn classify(&self, res: ResourceId) -> Option<Lane> {
        let host = self.host();
        if res.0 < host.0 {
            return Some(Lane::Link {
                device: res.0 / self.channels,
                channel: res.0 % self.channels,
            });
        }
        if res == host {
            return Some(Lane::Host);
        }
        let idx = res.0 - host.0 - 1;
        (idx < self.devices * self.partitions).then(|| Lane::Partition {
            device: idx / self.partitions,
            partition: idx % self.partitions,
        })
    }

    /// Links vs compute lanes (the host counts as a compute lane).
    pub(crate) fn kinds(&self) -> ResourceKinds {
        let host = self.host().0;
        ResourceKinds {
            links: (0..host).map(ResourceId).collect(),
            partitions: (host..self.count()).map(ResourceId).collect(),
        }
    }

    /// The name of lane `res` (one this map laid out): `mic{d}.link{c}`,
    /// `host` or `mic{d}.p{p}`.
    pub(crate) fn name(&self, res: ResourceId) -> String {
        match self.classify(res).expect("a lane of this layout") {
            Lane::Link { device, channel } => format!("mic{device}.link{channel}"),
            Lane::Host => "host".to_string(),
            Lane::Partition { device, partition } => format!("mic{device}.p{partition}"),
        }
    }

    /// Every lane's name, for Gantt and Chrome rendering.
    pub(crate) fn names(&self) -> BTreeMap<ResourceId, String> {
        (0..self.count())
            .map(|i| (ResourceId(i), self.name(ResourceId(i))))
            .collect()
    }
}

// ----- task tags ------------------------------------------------------------

/// What a task on a run's timeline is — the tag both executors stamp on
/// every engine task and measured span. A tag names the program node the
/// task stands for (the action at a [`Site`], or a barrier's join) and, for
/// the simulator's priced transfer retries, the attempt; it is rendered
/// into text only when a reader asks, by `label`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TaskTag {
    /// The action at this site (for a retried transfer, its last attempt).
    Action(Site),
    /// A failed attempt of the transfer at `site`, holding its link for a
    /// full transfer time (simulated runs).
    FailedAttempt {
        /// The transfer.
        site: Site,
        /// Which attempt failed, from 0.
        attempt: u32,
    },
    /// The off-link backoff after failed attempt `attempt` of the transfer
    /// at `site` (simulated runs).
    Backoff {
        /// The transfer.
        site: Site,
        /// The failed attempt it follows.
        attempt: u32,
    },
    /// The join of barrier `n`: every stream arrived.
    Barrier(usize),
    /// A chunked pool job of `parts` parts on a worker group `width`
    /// threads wide (native runs).
    PoolJob {
        /// Chunk parts submitted.
        parts: usize,
        /// Threads in the group that ran them.
        width: usize,
    },
}

/// The label of a task tagged `tag` in a run of `program` — the one
/// rendering both executors' timelines go through: the action's own label
/// (`h2d b3`, the kernel's label, `record e0`, `wait e0`, `barrier#2`), a
/// transfer attempt's `h2d b3!fail0` / `h2d b3!backoff0`, a barrier join's
/// `barrier#2` and a pool job's `pool(8)`.
pub(crate) fn label(program: &Program, tag: TaskTag) -> String {
    let action = |site: Site| &program.streams[site.stream.0].actions[site.action_index];
    match tag {
        TaskTag::Action(site) => action(site).label(),
        TaskTag::FailedAttempt { site, attempt } => {
            format!("{}!fail{attempt}", action(site).label())
        }
        TaskTag::Backoff { site, attempt } => {
            format!("{}!backoff{attempt}", action(site).label())
        }
        TaskTag::Barrier(n) => format!("barrier#{n}"),
        TaskTag::PoolJob { parts, .. } => format!("pool({parts})"),
    }
}

// ----- spans ----------------------------------------------------------------

/// One measured interval on a lane (`None` = pure control, rendered on the
/// synthetic row of the Chrome trace, ignored by overlap stats). `ready` is
/// when the action was dispatched (kernels) or queued for its link lane
/// (transfers); it becomes [`TaskRecord::ready`], so `start − ready` is
/// launch overhead on a kernel lane and queue wait on a link lane, as in a
/// simulated timeline.
#[derive(Clone, Copy, Debug)]
struct Span {
    lane: Option<ResourceId>,
    what: TaskTag,
    ready: Instant,
    start: Instant,
    end: Instant,
}

/// One driver's span buffer. Owned by exactly one driver thread for the
/// duration of the run (its pool sink shares it), so the mutex is
/// uncontended.
type SpanBuf = Arc<Mutex<Vec<Span>>>;

// ----- derived counters -----------------------------------------------------

/// Log₂-bucketed latency histogram (bucket `i` covers `[2^i, 2^(i+1))`
/// nanoseconds; the last bucket absorbs everything larger).
#[derive(Clone, Debug, Default)]
pub struct LaunchHistogram {
    /// Sample count per power-of-two bucket, up to ~8.4 s.
    pub buckets: [u64; 24],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples, for the mean.
    pub total_ns: u64,
    /// Largest sample seen.
    pub max_ns: u64,
}

impl LaunchHistogram {
    /// Record one latency sample.
    pub fn record(&mut self, ns: u64) {
        let idx = (63 - ns.max(1).leading_zeros() as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Mean sample, in nanoseconds (0 with no samples).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_ns as f64 / self.count as f64
    }
}

/// Counters derived from the recorded spans at join, beyond what the
/// timeline itself answers.
#[derive(Clone, Debug)]
pub struct NativeCounters {
    /// Per-kernel-launch overhead — time from action dispatch to the kernel
    /// body actually running (partition lock + buffer locks + view setup):
    /// `start − ready` of every span on a kernel lane, host kernels
    /// included, at nanosecond resolution. The `launch_overhead_us`
    /// instrument holds the device-kernel samples of the same set, rounded
    /// to whole microseconds.
    pub launch_overhead: LaunchHistogram,
    /// Per-stream total time transfers queued for their link lane before it
    /// was granted (`start − ready` of the stream's link-lane spans),
    /// indexed by stream id.
    pub queue_wait: Vec<Duration>,
    /// Busy fraction of each link lane over the makespan, keyed by lane
    /// name (`mic0.link0`, ...).
    pub copy_busy_fraction: Vec<(String, f64)>,
    /// High-water mark of transfers queued for a link lane (submitted, not
    /// yet granted).
    pub copy_queue_depth_hwm: usize,
    /// High-water mark of chunk parts queued beyond a worker group's width
    /// in one pool job (0 = the pool never had more work than threads).
    pub pool_queue_depth_hwm: usize,
    /// Chunked pool jobs submitted by kernel bodies during the run.
    pub pool_jobs: usize,
    /// Fault-path totals (retries, panics, skips) for this run; all zero on
    /// a clean run without a fault plan.
    pub faults: crate::fault::FaultCounters,
    /// Kernels a non-FIFO scheduler ran on a different partition than their
    /// recorded stream's (cross-partition moves / runtime steals). Always
    /// zero on FIFO runs.
    pub steals: u64,
}

// ----- the public trace -----------------------------------------------------

/// A native run's recorded timeline plus the classification the analysis
/// tools need — the native analogue of
/// [`SimReport`](crate::executor::sim::SimReport). Its tasks are tagged, not
/// named: [`NativeTrace::label`] renders a record's label from the program
/// the run executed.
#[derive(Clone, Debug)]
pub struct NativeTrace {
    /// Measured spans as engine task records (wall-clock nanoseconds since
    /// run start).
    pub timeline: Timeline<TaskTag>,
    /// Which lanes are links vs partitions (the host counts as a
    /// partition, as in the sim executor).
    pub kinds: ResourceKinds,
    /// Derived counters (launch overhead, queue wait, link busy).
    pub counters: NativeCounters,
    lanes: LaneMap,
    program: Arc<Program>,
}

impl NativeTrace {
    /// The label of `record`, one of this trace's (`label`).
    pub fn label(&self, record: &TaskRecord<TaskTag>) -> String {
        label(&self.program, record.tag)
    }

    /// Lane names (`mic0.link0`, `host`, `mic0.p0`, ...) for Gantt and
    /// Chrome rendering.
    pub fn names(&self) -> BTreeMap<ResourceId, String> {
        self.lanes.names()
    }

    /// Temporal-sharing statistics: link busy, compute busy, overlap.
    pub fn overlap(&self) -> OverlapStats {
        overlap_stats(&self.timeline, &self.kinds)
    }

    /// Per-partition busy/idle breakdown of the measured run — same
    /// semantics as
    /// [`SimReport::partition_stats`](crate::executor::sim::SimReport::partition_stats),
    /// so starvation (idle fraction, longest gap) compares one-to-one
    /// between a simulated and a native run of the same program.
    pub fn partition_stats(&self) -> Vec<PartitionStats> {
        partition_stats(&self.timeline, &self.kinds)
    }

    /// ASCII Gantt chart of the run, `width` columns wide.
    pub fn gantt(&self, width: usize) -> String {
        render_gantt(&self.timeline, &self.names(), width, |r| self.label(r))
    }

    /// Chrome trace-event JSON (open at `chrome://tracing` or Perfetto).
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.timeline, &self.names(), |r| self.label(r))
    }
}

// ----- the recorder ---------------------------------------------------------

/// Per-run recording state: the only thing the native executor writes to
/// while a run is live. Created when any telemetry switch is on and joined
/// into a [`Recording`] after the drivers joined — including on panic
/// paths, so a failed run still yields the partial timeline recorded up to
/// the failure.
pub(crate) struct Recorder {
    epoch: Instant,
    pub(crate) lanes: LaneMap,
    streams: Vec<SpanBuf>,
}

/// A joined run: the measured timeline, the lanes it is laid out on, the
/// program it ran and the counters derived from its spans. Metrics are
/// priced from it; the public [`NativeTrace`] is it with the lanes
/// classified.
pub(crate) struct Recording {
    pub(crate) lanes: LaneMap,
    pub(crate) timeline: Timeline<TaskTag>,
    counters: NativeCounters,
    program: Arc<Program>,
}

impl Recording {
    pub(crate) fn into_trace(self) -> NativeTrace {
        NativeTrace {
            timeline: self.timeline,
            kinds: self.lanes.kinds(),
            counters: self.counters,
            lanes: self.lanes,
            program: self.program,
        }
    }
}

impl Recorder {
    pub(crate) fn new(ctx: &Context) -> Recorder {
        let lanes = LaneMap::for_context(ctx);
        // One buffer per driver: a FIFO run has a driver per stream, a
        // scheduled run one per (device, partition) — which an installed
        // program may have fewer streams than.
        let drivers = ctx
            .stream_count()
            .max(lanes.devices() * lanes.partitions_per_device());
        Recorder {
            epoch: Instant::now(),
            lanes,
            streams: (0..drivers)
                .map(|_| Arc::new(Mutex::new(Vec::new())))
                .collect(),
        }
    }

    /// Record the span of the action at `site` on `stream`'s buffer:
    /// dispatched or submitted at `ready`, on its lane from `start` to `end`.
    pub(crate) fn record_span(
        &self,
        stream: usize,
        lane: Option<ResourceId>,
        site: Site,
        ready: Instant,
        start: Instant,
        end: Instant,
    ) {
        self.streams[stream].lock().push(Span {
            lane,
            what: TaskTag::Action(site),
            ready,
            start,
            end,
        });
    }

    /// The sink `stream`'s driver thread installs so pool jobs submitted
    /// from kernel bodies land in that driver's buffer.
    pub(crate) fn pool_sink(&self, stream: usize) -> PoolSink {
        PoolSink {
            spans: self.streams[stream].clone(),
        }
    }

    /// Merge every buffer into a [`Recording`] of `program` (the one the run
    /// executed, which renders the spans' labels on demand), carrying the
    /// run's `steals` and `faults`. Safe to call after the drivers joined
    /// (success or panic); spans are pushed per-action, so a partial run
    /// drains whatever completed before the failure.
    pub(crate) fn join(
        self,
        program: &Arc<Program>,
        steals: u64,
        faults: crate::fault::FaultCounters,
    ) -> Recording {
        let at = |t: Instant| SimTime::from_wall(t.saturating_duration_since(self.epoch));
        let spans = self.streams.iter().map(|buf| buf.lock().len()).sum();
        let mut records: Vec<TaskRecord<TaskTag>> = Vec::with_capacity(spans);
        let mut launch = LaunchHistogram::default();
        let mut queue_wait = Vec::with_capacity(self.streams.len());
        let (mut pool_jobs, mut pool_queue_depth_hwm) = (0, 0);
        for buf in &self.streams {
            let mut waited = Duration::ZERO;
            for span in buf.lock().iter() {
                let lag = span.start.saturating_duration_since(span.ready);
                match span.lane.and_then(|lane| self.lanes.classify(lane)) {
                    Some(Lane::Link { .. }) => waited += lag,
                    Some(Lane::Host | Lane::Partition { .. }) => {
                        launch.record(u64::try_from(lag.as_nanos()).unwrap_or(u64::MAX));
                    }
                    None => {}
                }
                if let TaskTag::PoolJob { parts, width } = span.what {
                    pool_jobs += 1;
                    pool_queue_depth_hwm = pool_queue_depth_hwm.max(parts.saturating_sub(width));
                }
                records.push(TaskRecord {
                    ready: at(span.ready),
                    ..TaskRecord::measured(span.lane, at(span.start), at(span.end), span.what)
                });
            }
            queue_wait.push(waited);
        }
        let timeline = Timeline::from_records(records);
        let makespan = timeline.makespan;
        let links = self.lanes.kinds().links;
        let copy_busy_fraction = links
            .iter()
            .map(|&lane| {
                // Stamped inside the lane lock: a lane's spans never overlap.
                let busy: SimDuration = timeline
                    .records
                    .iter()
                    .filter(|r| r.resource == Some(lane))
                    .map(|r| r.finish - r.start)
                    .sum();
                let frac = if makespan == SimDuration::ZERO {
                    0.0
                } else {
                    busy.nanos() as f64 / makespan.nanos() as f64
                };
                (self.lanes.name(lane), frac)
            })
            .collect();
        let counters = NativeCounters {
            launch_overhead: launch,
            queue_wait,
            copy_busy_fraction,
            copy_queue_depth_hwm: most_waiting(&timeline, &links),
            pool_queue_depth_hwm,
            pool_jobs,
            faults,
            steals,
        };
        Recording {
            lanes: self.lanes,
            timeline,
            counters,
            program: Arc::clone(program),
        }
    }
}

/// The most transfers queued for a lane in `links` at one instant: records
/// whose wait `[ready, start)` contains it. A transfer granted at the
/// instant another is submitted has left the queue.
fn most_waiting<T>(timeline: &Timeline<T>, links: &[ResourceId]) -> usize {
    let waited = |r: &&TaskRecord<T>| {
        r.start > r.ready && r.resource.is_some_and(|res| links.contains(&res))
    };
    let waits = || timeline.records.iter().filter(waited);
    let mut submitted = Vec::with_capacity(waits().count());
    submitted.extend(waits().map(|r| r.ready));
    submitted.sort_unstable();
    // A timeline is sorted by start, so the grants come in order.
    let mut granted = waits().map(|r| r.start).peekable();
    let (mut left, mut most) = (0, 0);
    for (queued, &at) in submitted.iter().enumerate() {
        // Every transfer granted by `at` was submitted before it.
        while granted.next_if(|&g| g <= at).is_some() {
            left += 1;
        }
        most = most.max(queued + 1 - left);
    }
    most
}

// ----- pool sink (thread-local) ---------------------------------------------

/// Where a driver thread's pool-job spans go while it runs kernel bodies.
pub(crate) struct PoolSink {
    spans: SpanBuf,
}

thread_local! {
    static POOL_SINK: std::cell::RefCell<Option<PoolSink>> =
        const { std::cell::RefCell::new(None) };
}

/// Installs `sink` as the calling thread's pool-span sink; restores the
/// previous sink on drop (drivers install one per run).
pub(crate) struct PoolSinkGuard {
    previous: Option<PoolSink>,
}

pub(crate) fn install_pool_sink(sink: PoolSink) -> PoolSinkGuard {
    let previous = POOL_SINK.with(|s| s.borrow_mut().replace(sink));
    PoolSinkGuard { previous }
}

impl Drop for PoolSinkGuard {
    fn drop(&mut self) {
        POOL_SINK.with(|s| *s.borrow_mut() = self.previous.take());
    }
}

/// Called by the pool before a chunked job: `Some(now)` when the calling
/// thread has a sink installed (a recorder is live), `None` otherwise — the only
/// cost on the untraced path is this thread-local read.
pub(crate) fn pool_job_start() -> Option<Instant> {
    POOL_SINK.with(|s| s.borrow().is_some().then(Instant::now))
}

/// Called by the pool after a chunked job of `parts` tasks on a group
/// `width` threads wide, paired with a [`pool_job_start`] that returned
/// `Some`.
pub(crate) fn record_pool_job(start: Instant, parts: usize, width: usize) {
    let end = Instant::now();
    POOL_SINK.with(|s| {
        if let Some(sink) = s.borrow().as_ref() {
            sink.spans.lock().push(Span {
                lane: None,
                what: TaskTag::PoolJob { parts, width },
                ready: start,
                start,
                end,
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_map_mirrors_sim_layout() {
        // 2 devices, 1 channel, 3 partitions: links first, host, partitions.
        let lanes = LaneMap::new(2, 1, 3);
        assert_eq!(lanes.link(0, 0), ResourceId(0));
        assert_eq!(lanes.link(1, 0), ResourceId(1));
        assert_eq!(lanes.host(), ResourceId(2));
        assert_eq!(lanes.kernel(false, 0, 0), ResourceId(3));
        assert_eq!(lanes.kernel(false, 1, 2), ResourceId(8));
        assert_eq!(lanes.count(), 9);
        let names = lanes.names();
        assert_eq!(names.len(), 9);
        assert_eq!(names[&ResourceId(0)], "mic0.link0");
        assert_eq!(names[&ResourceId(2)], "host");
        assert_eq!(names[&ResourceId(8)], "mic1.p2");
        let kinds = lanes.kinds();
        assert_eq!(kinds.links.len(), 2);
        // Host + 6 partitions.
        assert_eq!(kinds.partitions.len(), 7);
    }

    #[test]
    fn classify_inverts_the_layout() {
        let lanes = LaneMap::new(2, 2, 3);
        for (device, channel) in [(1, 0), (0, 1)] {
            let lane = Lane::Link { device, channel };
            assert_eq!(lanes.classify(lanes.resource(lane)), Some(lane));
        }
        assert_eq!(lanes.classify(lanes.kernel(true, 0, 0)), Some(Lane::Host));
        assert_eq!(
            lanes.classify(lanes.kernel(false, 1, 2)),
            Some(Lane::Partition {
                device: 1,
                partition: 2
            })
        );
        assert_eq!(lanes.classify(ResourceId(lanes.count())), None);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let mut h = LaunchHistogram::default();
        h.record(1); // bucket 0
        h.record(1024); // bucket 10
        h.record(1500); // bucket 10
        h.record(u64::MAX); // clamped to last bucket
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[10], 2);
        assert_eq!(h.buckets[23], 1);
        assert_eq!(h.count, 4);
        assert_eq!(h.max_ns, u64::MAX);
    }

    #[test]
    fn most_waiting_counts_half_open_waits_on_links_only() {
        let (link, part) = (ResourceId(0), ResourceId(1));
        // Each `(lane, ready, start)` holds its lane for 1 ns after `start`.
        let hwm = |waits: &[(ResourceId, u64, u64)]| {
            let records = waits.iter().map(|&(lane, ready, start)| TaskRecord {
                ready: SimTime(ready),
                ..TaskRecord::measured(Some(lane), SimTime(start), SimTime(start + 1), ())
            });
            most_waiting(&Timeline::from_records(records.collect()), &[link])
        };
        // [0,10) [5,15) [10,20): two wait at 5; at 10 the first has left.
        assert_eq!(hwm(&[(link, 10, 20), (link, 0, 10), (link, 5, 15)]), 2);
        assert_eq!(hwm(&[(link, 0, 9), (link, 1, 9), (link, 2, 9)]), 3);
        assert_eq!(hwm(&[(link, 0, 3), (link, 3, 6), (link, 6, 6)]), 1);
        assert_eq!(hwm(&[(link, 0, 5), (part, 1, 5), (part, 2, 5)]), 1);
        assert_eq!(hwm(&[]), 0);
    }

    #[test]
    fn pool_sink_noop_without_install() {
        assert!(pool_job_start().is_none());
        // Calling record without a sink is a silent no-op.
        record_pool_job(Instant::now(), 8, 4);
    }
}
