//! The shared run-instrument catalog, and the one function that prices it.
//!
//! Neither executor records into instruments while a run is live. Each
//! hands its finished [`Timeline`] — simulated, or measured by the
//! [`Recorder`](crate::trace) — to `price_run`, together with the lane
//! layout and the few counts a timeline cannot hold, and gets the run's
//! [`MetricsSnapshot`] back. The catalog is registered **up front** from the
//! platform geometry — never lazily at the first sample — on a fresh
//! registry per metered run, so the instrument *set* an executor exports is
//! a pure function of the context, not of what happened to execute or of
//! what ran before. Any instrument one executor emits and the other does
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

use super::{Counter, Gauge, Histogram, Labels, MetricsRegistry, MetricsSnapshot, Unit};
use crate::fault::FaultCounters;
use crate::sched::Lane;
use crate::trace::LaneMap;

/// Metric names, in one place so executors, tests, and docs agree.
pub mod name {
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

/// One row of the instrument catalog, for docs and parity tooling.
pub struct CatalogRow {
    /// Metric name.
    pub name: &'static str,
    /// Instrument kind token (`counter`/`gauge`/`histogram`).
    pub kind: &'static str,
    /// Label dimensions, comma-separated (`""` for a global series).
    pub labels: &'static str,
    /// Unit token.
    pub unit: &'static str,
    /// One-line meaning.
    pub what: &'static str,
}

/// The full catalog, in registration order.
#[must_use]
pub fn catalog() -> Vec<CatalogRow> {
    let row = |name, kind, labels, unit, what| CatalogRow {
        name,
        kind,
        labels,
        unit,
        what,
    };
    vec![
        row(
            name::LAUNCH_OVERHEAD_US,
            "histogram",
            "device, partition",
            "us",
            "device kernel: dispatch → body start (start − ready of its span)",
        ),
        row(
            name::KERNEL_TIME_US,
            "histogram",
            "device, partition",
            "us",
            "device kernel occupation of its partition",
        ),
        row(
            name::HOST_KERNEL_TIME_US,
            "histogram",
            "",
            "us",
            "host-side kernel duration",
        ),
        row(
            name::TRANSFER_TIME_US,
            "histogram",
            "device",
            "us",
            "link-lane occupation per successful transfer",
        ),
        row(
            name::QUEUE_WAIT_US,
            "histogram",
            "device",
            "us",
            "transfer queued → link lane granted (start − ready of its span)",
        ),
        row(
            name::BYTES_TRANSFERRED,
            "counter",
            "device",
            "bytes",
            "payload moved over the link",
        ),
        row(
            name::ACTIONS_EXECUTED,
            "counter",
            "",
            "count",
            "kernels + transfers that ran",
        ),
        row(
            name::TRANSFER_RETRIES,
            "counter",
            "",
            "count",
            "failed transfer attempts retried with backoff",
        ),
        row(
            name::TRANSFERS_FAILED,
            "counter",
            "",
            "count",
            "transfers that exhausted the retry budget",
        ),
        row(
            name::KERNEL_PANICS,
            "counter",
            "",
            "count",
            "kernel bodies that panicked (including injected)",
        ),
        row(
            name::PARTITION_LOSSES,
            "counter",
            "",
            "count",
            "partitions lost to a device kernel's panic",
        ),
        row(
            name::SKIPPED_ACTIONS,
            "counter",
            "",
            "count",
            "payloads lost or skipped, left to a recovery pass",
        ),
        row(
            name::REPLAYED_ACTIONS,
            "counter",
            "",
            "count",
            "payloads re-run by recovery passes",
        ),
        row(
            name::STEALS,
            "counter",
            "",
            "count",
            "kernels moved cross-partition by the scheduler",
        ),
        row(
            name::MAKESPAN_US,
            "gauge",
            "",
            "us",
            "the timeline's makespan",
        ),
        row(
            name::PARTITION_BUSY_US,
            "gauge",
            "device, partition",
            "us",
            "that lane's partition_stats().busy",
        ),
        row(
            name::PARTITION_IDLE_US,
            "gauge",
            "device, partition",
            "us",
            "that lane's partition_stats().idle (makespan minus busy)",
        ),
        row(
            name::LINK_BUSY_US,
            "gauge",
            "device",
            "us",
            "summed span length on the device's link lanes",
        ),
        row(
            name::HIDDEN_TRANSFER_FRACTION,
            "gauge",
            "",
            "ratio",
            "overlap_stats().hidden_fraction(): link time under compute",
        ),
    ]
}

/// Handles to every run instrument, indexed by geometry. Built by
/// [`RunInstruments::register`]; `price_run` fills one per metered run.
pub struct RunInstruments {
    /// `[device][partition]` dispatch-overhead histograms.
    pub launch_overhead: Vec<Vec<Histogram>>,
    /// `[device][partition]` kernel-duration histograms.
    pub kernel_time: Vec<Vec<Histogram>>,
    /// Host-kernel duration histogram.
    pub host_kernel_time: Histogram,
    /// `[device]` transfer wire-time histograms.
    pub transfer_time: Vec<Histogram>,
    /// `[device]` transfer queue-wait histograms.
    pub queue_wait: Vec<Histogram>,
    /// `[device]` payload counters.
    pub bytes_transferred: Vec<Counter>,
    /// Executed-action counter.
    pub actions_executed: Counter,
    /// Retried-transfer counter.
    pub transfer_retries: Counter,
    /// Exhausted-retry counter.
    pub transfers_failed: Counter,
    /// Kernel-panic counter.
    pub kernel_panics: Counter,
    /// Poisoned-partition counter.
    pub partition_losses: Counter,
    /// Lost-or-skipped payload counter.
    pub skipped_actions: Counter,
    /// Recovery re-run counter.
    pub replayed_actions: Counter,
    /// Cross-partition steal counter.
    pub steals: Counter,
    /// Run makespan gauge.
    pub makespan_us: Gauge,
    /// `[device][partition]` busy gauges.
    pub partition_busy: Vec<Vec<Gauge>>,
    /// `[device][partition]` idle gauges.
    pub partition_idle: Vec<Vec<Gauge>>,
    /// `[device]` link busy gauges.
    pub link_busy: Vec<Gauge>,
    /// Transfer-overlap gauge.
    pub hidden_transfer_fraction: Gauge,
}

impl RunInstruments {
    /// Register the complete catalog for a `devices x partitions`
    /// geometry. Every series exists after this call, so snapshot shape
    /// does not depend on which code paths executed.
    #[must_use]
    pub fn register(reg: &MetricsRegistry, devices: usize, partitions: usize) -> RunInstruments {
        let per_partition_hist = |n: &str| -> Vec<Vec<Histogram>> {
            (0..devices)
                .map(|d| {
                    (0..partitions)
                        .map(|p| {
                            reg.histogram(n, Unit::Micros, Labels::partition(d as u16, p as u16))
                        })
                        .collect()
                })
                .collect()
        };
        let per_partition_gauge = |n: &str| -> Vec<Vec<Gauge>> {
            (0..devices)
                .map(|d| {
                    (0..partitions)
                        .map(|p| reg.gauge(n, Unit::Micros, Labels::partition(d as u16, p as u16)))
                        .collect()
                })
                .collect()
        };
        RunInstruments {
            launch_overhead: per_partition_hist(name::LAUNCH_OVERHEAD_US),
            kernel_time: per_partition_hist(name::KERNEL_TIME_US),
            host_kernel_time: reg.histogram(
                name::HOST_KERNEL_TIME_US,
                Unit::Micros,
                Labels::GLOBAL,
            ),
            transfer_time: (0..devices)
                .map(|d| {
                    reg.histogram(
                        name::TRANSFER_TIME_US,
                        Unit::Micros,
                        Labels::device(d as u16),
                    )
                })
                .collect(),
            queue_wait: (0..devices)
                .map(|d| reg.histogram(name::QUEUE_WAIT_US, Unit::Micros, Labels::device(d as u16)))
                .collect(),
            bytes_transferred: (0..devices)
                .map(|d| {
                    reg.counter(
                        name::BYTES_TRANSFERRED,
                        Unit::Bytes,
                        Labels::device(d as u16),
                    )
                })
                .collect(),
            actions_executed: reg.counter(name::ACTIONS_EXECUTED, Unit::Count, Labels::GLOBAL),
            transfer_retries: reg.counter(name::TRANSFER_RETRIES, Unit::Count, Labels::GLOBAL),
            transfers_failed: reg.counter(name::TRANSFERS_FAILED, Unit::Count, Labels::GLOBAL),
            kernel_panics: reg.counter(name::KERNEL_PANICS, Unit::Count, Labels::GLOBAL),
            partition_losses: reg.counter(name::PARTITION_LOSSES, Unit::Count, Labels::GLOBAL),
            skipped_actions: reg.counter(name::SKIPPED_ACTIONS, Unit::Count, Labels::GLOBAL),
            replayed_actions: reg.counter(name::REPLAYED_ACTIONS, Unit::Count, Labels::GLOBAL),
            steals: reg.counter(name::STEALS, Unit::Count, Labels::GLOBAL),
            makespan_us: reg.gauge(name::MAKESPAN_US, Unit::Micros, Labels::GLOBAL),
            partition_busy: per_partition_gauge(name::PARTITION_BUSY_US),
            partition_idle: per_partition_gauge(name::PARTITION_IDLE_US),
            link_busy: (0..devices)
                .map(|d| reg.gauge(name::LINK_BUSY_US, Unit::Micros, Labels::device(d as u16)))
                .collect(),
            hidden_transfer_fraction: reg.gauge(
                name::HIDDEN_TRANSFER_FRACTION,
                Unit::Ratio,
                Labels::GLOBAL,
            ),
        }
    }
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
    timeline: &Timeline,
    lanes: &LaneMap,
    overhead: SimDuration,
    counts: &RunCounts,
) -> MetricsSnapshot {
    let reg = MetricsRegistry::new();
    let ri = RunInstruments::register(&reg, lanes.devices(), lanes.partitions_per_device());
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let us = |d: SimDuration| d.as_micros_f64().round() as u64;
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
        if rec.label.contains("!fail") {
            continue;
        }
        let work = us(held.saturating_sub(overhead));
        let lag = rec.start - rec.ready;
        match lane {
            Lane::Link { device, .. } => {
                ri.transfer_time[device].record(work);
                ri.queue_wait[device].record(us(lag));
            }
            Lane::Host => ri.host_kernel_time.record(work),
            Lane::Partition { device, partition } => {
                ri.kernel_time[device][partition].record(work);
                ri.launch_overhead[device][partition].record(us(lag + overhead));
            }
        }
    }
    for (d, bytes) in counts.bytes_per_device.iter().enumerate() {
        ri.bytes_transferred[d].add(*bytes);
    }
    ri.actions_executed.add(counts.actions_executed);
    ri.steals.add(counts.steals);
    ri.transfer_retries.add(counts.faults.transfer_retries);
    ri.transfers_failed.add(counts.faults.transfers_failed);
    ri.kernel_panics.add(counts.faults.kernel_panics);
    ri.partition_losses.add(counts.faults.lost_partitions);
    ri.skipped_actions.add(counts.faults.skipped_actions);
    ri.replayed_actions.add(counts.faults.replayed_actions);

    ri.makespan_us.set(timeline.makespan.as_micros_f64());
    for stats in partition_stats(timeline, &lanes.kinds) {
        if let Some(Lane::Partition { device, partition }) = lanes.classify(stats.resource) {
            ri.partition_busy[device][partition].set(stats.busy.as_micros_f64());
            ri.partition_idle[device][partition].set(stats.idle.as_micros_f64());
        }
    }
    for (d, busy) in link_busy.iter().enumerate() {
        ri.link_busy[d].set(busy.as_micros_f64());
    }
    ri.hidden_transfer_fraction
        .set(overlap_stats(timeline, &lanes.kinds).hidden_fraction());
    reg.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_creates_full_catalog_up_front() {
        let reg = MetricsRegistry::new();
        let _ri = RunInstruments::register(&reg, 2, 3);
        let snap = reg.snapshot();
        let names = snap.instrument_names();
        assert_eq!(names.len(), catalog().len());
        for row in catalog() {
            assert!(
                names.contains(&row.name.to_string()),
                "missing {}",
                row.name
            );
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
        let shape = |devs, parts| {
            let reg = MetricsRegistry::new();
            let _ri = RunInstruments::register(&reg, devs, parts);
            reg.snapshot().series_names()
        };
        assert_eq!(shape(1, 4), shape(1, 4));
        assert_ne!(shape(1, 4), shape(2, 4));
    }

    #[test]
    fn price_run_gauges_are_timeline_quantities() {
        use micsim::engine::TaskRecord;
        use micsim::time::SimTime;
        let lanes = LaneMap::new(1, 1, 2);
        let span = |lane, ready_ns: u64, start_ns: u64, finish_ns: u64, label: &str| TaskRecord {
            ready: SimTime(ready_ns),
            ..TaskRecord::measured(Some(lane), SimTime(start_ns), SimTime(finish_ns), label)
        };
        // Two kernels in parallel on p0 [0, 600) and p1 [0.3, 400) us, then a
        // transfer on the link over [500, 1000) us that waited 2 us for it.
        // 1000 us of kernel spans and 500 us of link inside a 1000 us
        // makespan: summing the parallel partitions would call every link
        // microsecond hidden; the timeline says only [500, 600) was.
        let timeline = Timeline::from_records(vec![
            span(lanes.kernel(false, 0, 0), 0, 0, 600_000, "k0"),
            span(lanes.kernel(false, 0, 1), 0, 300, 400_000, "k1"),
            span(lanes.link(0, 0), 498_000, 500_000, 1_000_000, "h2d b0"),
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
