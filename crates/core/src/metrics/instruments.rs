//! The shared run-instrument catalog, and the one function that prices it.
//!
//! Neither executor records into instruments while a run is live. Each
//! hands its finished [`Timeline`] — simulated, or measured by the
//! [`Recorder`](crate::trace) — to `price_run`, together with the lane
//! layout and the few counts a timeline cannot hold, and gets the run's
//! [`MetricsSnapshot`] back. Every series of the catalog is declared **up
//! front** from the lane geometry — never lazily at the first sample — into
//! a fresh snapshot per priced run, so the instrument *set* an executor
//! exports is a pure function of the geometry, not of what happened to
//! execute or of what ran before. Any instrument one executor emits and the other does
//! not is a bug, and `tests/metrics_parity.rs` fails on it (metric-shape
//! parity as a differential check).
//!
//! Histograms take one sample per span on the lane their labels name, in
//! **whole microseconds** (rounded): a 0.3 µs native launch lands in bucket
//! 0, and [`NativeCounters::launch_overhead`](crate::trace::NativeCounters)
//! is the nanosecond-resolution view of the same samples. Gauges are
//! timeline quantities, computed from exact interval lengths by the same
//! [`overlap_stats`]/[`partition_stats`] that back `report.overlap()` and
//! `report.partition_stats()` — they agree with those by construction.
//!
//! | name | kind | labels | unit | meaning |
//! |---|---|---|---|---|
//! | `launch_overhead_us` | histogram | device, partition | us | device kernel: dispatch → body start (`start − ready`, plus the modelled enqueue overhead on the sim) |
//! | `kernel_time_us` | histogram | device, partition | us | device kernel occupation of its partition |
//! | `host_kernel_time_us` | histogram | — | us | host-side kernel duration |
//! | `transfer_time_us` | histogram | device | us | link-lane occupation per successful transfer |
//! | `queue_wait_us` | histogram | device | us | transfer queued → link lane granted (`start − ready`) |
//! | `bytes_transferred` | counter | device | bytes | payload moved over the link |
//! | `actions_executed` | counter | — | count | kernels + transfers that ran |
//! | `transfer_retries` | counter | — | count | failed attempts retried with backoff |
//! | `transfers_failed` | counter | — | count | transfers that exhausted the retry budget |
//! | `kernel_panics` | counter | — | count | kernel bodies that panicked (incl. injected) |
//! | `partition_losses` | counter | — | count | partitions lost to a device kernel's panic |
//! | `skipped_actions` | counter | — | count | payloads lost or skipped, left to a recovery pass |
//! | `replayed_actions` | counter | — | count | payloads re-run by recovery passes |
//! | `steals` | counter | — | count | kernels moved cross-partition by the scheduler |
//! | `makespan_us` | gauge | — | us | the timeline's makespan |
//! | `partition_busy_us` | gauge | device, partition | us | that lane's `partition_stats().busy` |
//! | `partition_idle_us` | gauge | device, partition | us | that lane's `partition_stats().idle` (makespan − busy) |
//! | `link_busy_us` | gauge | device | us | summed span length on the device's link lanes |
//! | `hidden_transfer_fraction` | gauge | — | ratio | `overlap_stats().hidden_fraction()`: link time under compute |

use micsim::engine::Timeline;
use micsim::time::SimDuration;
use micsim::trace::{overlap_stats, partition_stats};

use super::{Kind, Labels, MetricsSnapshot, Unit};
use crate::fault::FaultCounters;
use crate::sched::Lane;
use crate::trace::{LaneMap, TaskTag};

/// Metric names, in one place so executors, tests, and docs agree.
pub(crate) mod name {
    /// Dispatch-to-body-start overhead histogram.
    pub const LAUNCH_OVERHEAD_US: &str = "launch_overhead_us";
    /// Device-kernel duration histogram.
    pub const KERNEL_TIME_US: &str = "kernel_time_us";
    /// Host-kernel duration histogram.
    pub const HOST_KERNEL_TIME_US: &str = "host_kernel_time_us";
    /// Transfer wire-time histogram.
    pub const TRANSFER_TIME_US: &str = "transfer_time_us";
    /// Transfer queue-wait histogram.
    pub const QUEUE_WAIT_US: &str = "queue_wait_us";
    /// Link payload counter.
    pub const BYTES_TRANSFERRED: &str = "bytes_transferred";
    /// Executed-action counter.
    pub const ACTIONS_EXECUTED: &str = "actions_executed";
    /// Retried-transfer counter.
    pub const TRANSFER_RETRIES: &str = "transfer_retries";
    /// Exhausted-retry counter.
    pub const TRANSFERS_FAILED: &str = "transfers_failed";
    /// Kernel-panic counter.
    pub const KERNEL_PANICS: &str = "kernel_panics";
    /// Poisoned-partition counter.
    pub const PARTITION_LOSSES: &str = "partition_losses";
    /// Lost-or-skipped payload counter.
    pub const SKIPPED_ACTIONS: &str = "skipped_actions";
    /// Recovery re-run counter.
    pub const REPLAYED_ACTIONS: &str = "replayed_actions";
    /// Cross-partition steal counter.
    pub const STEALS: &str = "steals";
    /// Run makespan gauge.
    pub const MAKESPAN_US: &str = "makespan_us";
    /// Per-partition busy gauge.
    pub const PARTITION_BUSY_US: &str = "partition_busy_us";
    /// Per-partition idle gauge.
    pub const PARTITION_IDLE_US: &str = "partition_idle_us";
    /// Per-device link busy gauge.
    pub const LINK_BUSY_US: &str = "link_busy_us";
    /// Transfer-overlap gauge.
    pub const HIDDEN_TRANSFER_FRACTION: &str = "hidden_transfer_fraction";
}

/// Which labels a catalog series carries.
#[derive(Clone, Copy)]
enum Dims {
    Global,
    Device,
    Partition,
}

/// The catalog of the table above, as the declarations `price_run` makes.
const CATALOG: [(&str, Kind, Unit, Dims); 19] = {
    use Dims::{Device, Global, Partition};
    use Kind::{Counter, Gauge, Histogram};
    use Unit::{Bytes, Count, Micros, Ratio};
    [
        (name::LAUNCH_OVERHEAD_US, Histogram, Micros, Partition),
        (name::KERNEL_TIME_US, Histogram, Micros, Partition),
        (name::HOST_KERNEL_TIME_US, Histogram, Micros, Global),
        (name::TRANSFER_TIME_US, Histogram, Micros, Device),
        (name::QUEUE_WAIT_US, Histogram, Micros, Device),
        (name::BYTES_TRANSFERRED, Counter, Bytes, Device),
        (name::ACTIONS_EXECUTED, Counter, Count, Global),
        (name::TRANSFER_RETRIES, Counter, Count, Global),
        (name::TRANSFERS_FAILED, Counter, Count, Global),
        (name::KERNEL_PANICS, Counter, Count, Global),
        (name::PARTITION_LOSSES, Counter, Count, Global),
        (name::SKIPPED_ACTIONS, Counter, Count, Global),
        (name::REPLAYED_ACTIONS, Counter, Count, Global),
        (name::STEALS, Counter, Count, Global),
        (name::MAKESPAN_US, Gauge, Micros, Global),
        (name::PARTITION_BUSY_US, Gauge, Micros, Partition),
        (name::PARTITION_IDLE_US, Gauge, Micros, Partition),
        (name::LINK_BUSY_US, Gauge, Micros, Device),
        (name::HIDDEN_TRANSFER_FRACTION, Gauge, Ratio, Global),
    ]
};

/// A snapshot holding every catalog series of a `devices x partitions`
/// geometry at zero, so its shape does not depend on what ran.
fn declare_catalog(devices: usize, partitions: usize) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for (name, kind, unit, dims) in CATALOG {
        let labels: Vec<Labels> = match dims {
            Dims::Global => vec![Labels::GLOBAL],
            Dims::Device => (0..devices).map(|d| Labels::device(d as u16)).collect(),
            Dims::Partition => (0..devices)
                .flat_map(|d| (0..partitions).map(move |p| Labels::partition(d as u16, p as u16)))
                .collect(),
        };
        for labels in labels {
            snap.series(name, kind, unit, labels);
        }
    }
    snap
}

/// What a run knows that its timeline cannot hold.
#[derive(Clone, Debug, Default)]
pub(crate) struct RunCounts {
    /// Payload bytes moved over each device's link.
    pub(crate) bytes_per_device: Vec<u64>,
    /// Kernels + transfers that ran.
    pub(crate) actions_executed: u64,
    /// Kernels a non-FIFO scheduler moved cross-partition.
    pub(crate) steals: u64,
    /// Fault-path totals.
    pub(crate) faults: FaultCounters,
}

/// Price the full instrument catalog off a finished run — the one place a
/// [`MetricsSnapshot`] is built from a [`Timeline`], for both executors.
///
/// `overhead` is the modelled enqueue overhead a simulated task's span
/// includes (zero for a measured timeline): it is split back out of
/// `kernel_time`/`transfer_time` so they mean the work itself on both
/// executors, and counted into `launch_overhead` on top of the span's
/// `start − ready`.
pub(crate) fn price_run(
    timeline: &Timeline<TaskTag>,
    lanes: &LaneMap,
    overhead: SimDuration,
    counts: &RunCounts,
) -> MetricsSnapshot {
    let mut snap = declare_catalog(lanes.devices(), lanes.partitions_per_device());
    let kinds = lanes.kinds();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let us = |d: SimDuration| d.as_micros_f64().round() as u64;
    let on_device = |d: usize| Labels::device(d as u16);
    let on_partition = |d: usize, p: usize| Labels::partition(d as u16, p as u16);
    let mut link_busy = vec![SimDuration::ZERO; lanes.devices()];
    for rec in &timeline.records {
        // Resourceless tasks (events, barriers, pool jobs, retry backoffs)
        // are not executed actions.
        let Some(lane) = rec.resource.and_then(|res| lanes.classify(res)) else {
            continue;
        };
        let held = rec.finish - rec.start;
        if let Lane::Link { device, .. } = lane {
            link_busy[device] += held;
        }
        // Neither are the sim's failed-attempt link occupations.
        if let TaskTag::FailedAttempt { .. } = rec.tag {
            continue;
        }
        let work = us(held.saturating_sub(overhead));
        let lag = rec.start - rec.ready;
        let mut record = |n, labels, v| snap.histogram_record(n, Unit::Micros, labels, v);
        match lane {
            Lane::Link { device, .. } => {
                record(name::TRANSFER_TIME_US, on_device(device), work);
                record(name::QUEUE_WAIT_US, on_device(device), us(lag));
            }
            Lane::Host => record(name::HOST_KERNEL_TIME_US, Labels::GLOBAL, work),
            Lane::Partition { device, partition } => {
                let at = on_partition(device, partition);
                record(name::KERNEL_TIME_US, at, work);
                record(name::LAUNCH_OVERHEAD_US, at, us(lag + overhead));
            }
        }
    }
    for (d, bytes) in counts.bytes_per_device.iter().enumerate() {
        snap.counter_add(name::BYTES_TRANSFERRED, Unit::Bytes, on_device(d), *bytes);
    }
    let faults = &counts.faults;
    for (n, v) in [
        (name::ACTIONS_EXECUTED, counts.actions_executed),
        (name::STEALS, counts.steals),
        (name::TRANSFER_RETRIES, faults.transfer_retries),
        (name::TRANSFERS_FAILED, faults.transfers_failed),
        (name::KERNEL_PANICS, faults.kernel_panics),
        (name::PARTITION_LOSSES, faults.lost_partitions),
        (name::SKIPPED_ACTIONS, faults.skipped_actions),
        (name::REPLAYED_ACTIONS, faults.replayed_actions),
    ] {
        snap.counter_add(n, Unit::Count, Labels::GLOBAL, v);
    }

    let makespan = timeline.makespan.as_micros_f64();
    snap.gauge_set(name::MAKESPAN_US, Unit::Micros, Labels::GLOBAL, makespan);
    for stats in partition_stats(timeline, &kinds) {
        if let Some(Lane::Partition { device, partition }) = lanes.classify(stats.resource) {
            let at = on_partition(device, partition);
            snap.gauge_set(
                name::PARTITION_BUSY_US,
                Unit::Micros,
                at,
                stats.busy.as_micros_f64(),
            );
            snap.gauge_set(
                name::PARTITION_IDLE_US,
                Unit::Micros,
                at,
                stats.idle.as_micros_f64(),
            );
        }
    }
    for (d, busy) in link_busy.iter().enumerate() {
        snap.gauge_set(
            name::LINK_BUSY_US,
            Unit::Micros,
            on_device(d),
            busy.as_micros_f64(),
        );
    }
    let hidden = overlap_stats(timeline, &kinds).hidden_fraction();
    snap.gauge_set(
        name::HIDDEN_TRANSFER_FRACTION,
        Unit::Ratio,
        Labels::GLOBAL,
        hidden,
    );
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `price_run` exports for a run that did nothing.
    fn idle_run(devices: usize, partitions: usize) -> MetricsSnapshot {
        let lanes = LaneMap::new(devices, 1, partitions);
        let timeline = Timeline::from_records(Vec::new());
        price_run(&timeline, &lanes, SimDuration::ZERO, &RunCounts::default())
    }

    #[test]
    fn register_creates_full_catalog_up_front() {
        let snap = idle_run(2, 3);
        let names = snap.instrument_names();
        assert_eq!(names.len(), CATALOG.len());
        for (name, ..) in CATALOG {
            assert!(names.contains(&name.to_string()), "missing {name}");
        }
        // Per-partition metrics expand to device x partition series.
        assert_eq!(
            snap.entries
                .iter()
                .filter(|e| e.name == name::KERNEL_TIME_US)
                .count(),
            6
        );
    }

    #[test]
    fn same_geometry_same_shape() {
        let shape = |devs, parts| idle_run(devs, parts).series_names();
        assert_eq!(shape(1, 4), shape(1, 4));
        assert_ne!(shape(1, 4), shape(2, 4));
    }

    #[test]
    fn a_kernel_labelled_like_a_failed_attempt_is_counted() {
        // Failed attempts are skipped by their tag, not by their text: a
        // user kernel named `probe!fail0` is a kernel like any other, and
        // a priced retry of the transfer is still left out.
        use crate::context::Context;
        use crate::fault::FaultPlan;
        use crate::kernel::KernelDesc;
        use micsim::compute::KernelProfile;
        use micsim::PlatformConfig;
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(1)
            .build()
            .unwrap();
        let a = ctx.alloc("a", 1 << 10);
        let s = ctx.stream(0).unwrap();
        ctx.h2d(s, a).unwrap();
        let profile = KernelProfile::streaming("probe", 1e9);
        ctx.kernel(
            s,
            KernelDesc::simulated("probe!fail0", profile, 1e6).reading([a]),
        )
        .unwrap();
        ctx.set_fault_plan(Some(FaultPlan::seeded(1).fail_transfer_at(0, 0)));
        let report = ctx.run_sim().unwrap();
        assert!(report
            .timeline
            .records
            .iter()
            .any(|r| report.label(r) == "h2d b0!fail0"));
        let snap = report.metrics();
        let count = |n, labels| snap.histogram(n, labels).map_or(0, |h| h.count);
        let p0 = Labels::partition(0, 0);
        assert_eq!(count(name::KERNEL_TIME_US, p0), 1);
        assert_eq!(count(name::LAUNCH_OVERHEAD_US, p0), 1);
        assert_eq!(count(name::TRANSFER_TIME_US, Labels::device(0)), 1);
        assert_eq!(snap.counter(name::TRANSFER_RETRIES, Labels::GLOBAL), 1);
    }

    #[test]
    fn price_run_gauges_are_timeline_quantities() {
        use micsim::engine::TaskRecord;
        use micsim::time::SimTime;
        let lanes = LaneMap::new(1, 1, 2);
        use crate::check::Site;
        let span = |lane, ready_ns: u64, start_ns: u64, finish_ns: u64, action| TaskRecord {
            ready: SimTime(ready_ns),
            ..TaskRecord::measured(
                Some(lane),
                SimTime(start_ns),
                SimTime(finish_ns),
                TaskTag::Action(Site::new(0, action)),
            )
        };
        // Two kernels in parallel on p0 [0, 600) and p1 [0.3, 400) us, then a
        // transfer on the link over [500, 1000) us that waited 2 us for it.
        // 1000 us of kernel spans and 500 us of link inside a 1000 us
        // makespan: summing the parallel partitions would call every link
        // microsecond hidden; the timeline says only [500, 600) was.
        let timeline = Timeline::from_records(vec![
            span(lanes.kernel(false, 0, 0), 0, 0, 600_000, 0),
            span(lanes.kernel(false, 0, 1), 0, 300, 400_000, 1),
            span(lanes.link(0, 0), 498_000, 500_000, 1_000_000, 2),
        ]);
        let counts = RunCounts {
            bytes_per_device: vec![4096],
            actions_executed: 3,
            ..RunCounts::default()
        };
        let snap = price_run(&timeline, &lanes, SimDuration::ZERO, &counts);
        let near = |got: f64, want: f64| (got - want).abs() < 1e-9;
        assert!(near(
            snap.gauge(name::PARTITION_BUSY_US, Labels::partition(0, 0)),
            600.0
        ));
        assert!(near(
            snap.gauge(name::PARTITION_IDLE_US, Labels::partition(0, 1)),
            600.3
        ));
        assert!(near(
            snap.gauge(name::LINK_BUSY_US, Labels::device(0)),
            500.0
        ));
        assert!(near(
            snap.gauge(name::HIDDEN_TRANSFER_FRACTION, Labels::GLOBAL),
            0.2
        ));
        assert!(near(snap.gauge(name::MAKESPAN_US, Labels::GLOBAL), 1000.0));
        // One whole-microsecond sample per span: the 0.3 us launch rounds
        // to 0, the 2 us queue wait does not.
        let launch = snap
            .histogram(name::LAUNCH_OVERHEAD_US, Labels::partition(0, 1))
            .unwrap();
        assert_eq!((launch.count, launch.sum), (1, 0));
        let wait = snap
            .histogram(name::QUEUE_WAIT_US, Labels::device(0))
            .unwrap();
        assert_eq!((wait.count, wait.sum), (1, 2));
        assert_eq!(
            snap.counter(name::BYTES_TRANSFERRED, Labels::device(0)),
            4096
        );
        assert_eq!(snap.counter(name::ACTIONS_EXECUTED, Labels::GLOBAL), 3);
    }
}
