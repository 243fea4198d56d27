//! The shared run-instrument catalog.
//!
//! Both executors observe a run through one [`RunInstruments`] value,
//! registered **up front** from the platform geometry — never lazily at
//! the first sample — so the instrument *set* an executor exports is a
//! pure function of the context, not of what happened to execute. The
//! native executor fills the instruments from real clocks and the fault
//! tallies; the simulator prices the identical names from its timeline.
//! Any instrument one executor emits and the other does not is a bug,
//! and `native_vs_sim_trace` fails on it (metric-shape parity as a
//! differential check).
//!
//! | name | kind | labels | unit | meaning |
//! |---|---|---|---|---|
//! | `launch_overhead_us` | histogram | device, partition | us | dispatch → kernel body start (locks, views) |
//! | `kernel_time_us` | histogram | device, partition | us | device kernel occupation of its partition |
//! | `host_kernel_time_us` | histogram | — | us | host-side kernel duration |
//! | `transfer_time_us` | histogram | device | us | copy-engine wire time per transfer |
//! | `queue_wait_us` | histogram | device | us | transfer submit → engine pickup |
//! | `bytes_transferred` | counter | device | bytes | payload moved over the link |
//! | `actions_executed` | counter | — | count | kernels + transfers that ran |
//! | `transfer_retries` | counter | — | count | failed attempts retried with backoff |
//! | `transfers_failed` | counter | — | count | transfers that exhausted the retry budget |
//! | `kernel_panics` | counter | — | count | kernel bodies that panicked (incl. injected) |
//! | `partition_losses` | counter | — | count | partitions poisoned under isolation |
//! | `skipped_actions` | counter | — | count | actions skipped for replay under isolation |
//! | `replayed_actions` | counter | — | count | actions rerun by degraded replay passes |
//! | `steals` | counter | — | count | kernels moved cross-partition by the scheduler |
//! | `makespan_us` | gauge | — | us | end-to-end run time |
//! | `partition_busy_us` | gauge | device, partition | us | kernel occupation per partition (pool busy) |
//! | `partition_idle_us` | gauge | device, partition | us | makespan minus busy (pool idle) |
//! | `link_busy_us` | gauge | device | us | total wire time per device link |
//! | `hidden_transfer_fraction` | gauge | — | ratio | link time overlapped with compute (derived) |

use super::{Counter, Gauge, Histogram, Labels, MetricsRegistry, Unit};

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
    /// Isolation-skip counter.
    pub const SKIPPED_ACTIONS: &str = "skipped_actions";
    /// Degraded-replay counter.
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
            "dispatch → kernel body start (partition + buffer locks, view setup)",
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
            "copy-engine wire time per successful transfer",
        ),
        row(
            name::QUEUE_WAIT_US,
            "histogram",
            "device",
            "us",
            "transfer submit → copy-engine pickup",
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
            "partitions poisoned under isolation",
        ),
        row(
            name::SKIPPED_ACTIONS,
            "counter",
            "",
            "count",
            "actions skipped for replay under isolation",
        ),
        row(
            name::REPLAYED_ACTIONS,
            "counter",
            "",
            "count",
            "actions rerun by degraded replay passes",
        ),
        row(
            name::STEALS,
            "counter",
            "",
            "count",
            "kernels moved cross-partition by the scheduler",
        ),
        row(name::MAKESPAN_US, "gauge", "", "us", "end-to-end run time"),
        row(
            name::PARTITION_BUSY_US,
            "gauge",
            "device, partition",
            "us",
            "kernel occupation per partition (pool busy time)",
        ),
        row(
            name::PARTITION_IDLE_US,
            "gauge",
            "device, partition",
            "us",
            "makespan minus busy (pool idle time)",
        ),
        row(
            name::LINK_BUSY_US,
            "gauge",
            "device",
            "us",
            "total wire time per device link",
        ),
        row(
            name::HIDDEN_TRANSFER_FRACTION,
            "gauge",
            "",
            "ratio",
            "link time overlapped with compute, derived from the busy sums",
        ),
    ]
}

/// Handles to every run instrument, indexed by geometry. Built by
/// [`RunInstruments::register`]; both executors hold one for the duration
/// of a run and record through the (lock-free) handles.
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
    /// Isolation-skip counter.
    pub skipped_actions: Counter,
    /// Degraded-replay counter.
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

    /// Derive the end-of-run gauges from the recorded histograms and the
    /// measured makespan. Both executors call this same derivation, so
    /// busy/idle/overlap semantics cannot drift between them:
    /// `partition_busy` is the kernel-time sum, `partition_idle` the
    /// remainder of the makespan, `link_busy` the wire-time sum, and
    /// `hidden_transfer_fraction` the share of link time that must have
    /// overlapped with compute given those sums
    /// (`(link + compute - makespan) / link`, clamped to `[0, 1]`).
    pub fn finish(&self, makespan_us: f64) {
        self.makespan_us.set(makespan_us);
        let mut compute_total = 0.0;
        for (d, parts) in self.kernel_time.iter().enumerate() {
            for (p, hist) in parts.iter().enumerate() {
                let busy = hist.snapshot().sum as f64;
                compute_total += busy;
                self.partition_busy[d][p].set(busy);
                self.partition_idle[d][p].set((makespan_us - busy).max(0.0));
            }
        }
        let mut link_total = 0.0;
        for (d, hist) in self.transfer_time.iter().enumerate() {
            let busy = hist.snapshot().sum as f64;
            link_total += busy;
            self.link_busy[d].set(busy);
        }
        let hidden = if link_total > 0.0 {
            ((link_total + compute_total - makespan_us) / link_total).clamp(0.0, 1.0)
        } else {
            0.0
        };
        self.hidden_transfer_fraction.set(hidden);
    }
}

/// A registry with its full run catalog registered, bundled for reuse.
///
/// Registering the catalog costs several microseconds of map inserts and
/// cell allocations; resetting the cells is a few thousand relaxed
/// stores. The native executor therefore caches one `RunMetrics` per
/// [`Context`](crate::context::Context) and resets it between runs, so
/// the per-run metrics cost is dominated by the samples actually
/// recorded, not by setup.
pub struct RunMetrics {
    /// Backing registry — the snapshot source.
    pub registry: MetricsRegistry,
    /// Lock-free handles into the registry.
    pub instruments: RunInstruments,
    /// Device count the catalog was registered for.
    pub devices: usize,
    /// Partitions per device the catalog was registered for.
    pub partitions: usize,
}

impl RunMetrics {
    /// Build a fresh registry and register the full catalog on it.
    #[must_use]
    pub fn new(devices: usize, partitions: usize) -> RunMetrics {
        let registry = MetricsRegistry::new();
        let instruments = RunInstruments::register(&registry, devices, partitions);
        RunMetrics {
            registry,
            instruments,
            devices,
            partitions,
        }
    }

    /// Clear every cell for the next run. A reset registry snapshots
    /// byte-identically to a freshly registered one (pinned by a test).
    pub fn reset(&self) {
        self.registry.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_registry_snapshots_like_fresh() {
        let reused = RunMetrics::new(1, 2);
        reused.instruments.kernel_time[0][1].record(40);
        reused.instruments.steals.add(3);
        reused.instruments.finish(100.0);
        reused.reset();
        reused.instruments.kernel_time[0][0].record(7);
        reused.instruments.finish(50.0);

        let fresh = RunMetrics::new(1, 2);
        fresh.instruments.kernel_time[0][0].record(7);
        fresh.instruments.finish(50.0);

        let a = reused.registry.snapshot();
        let b = fresh.registry.snapshot();
        assert_eq!(a.entries, b.entries);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

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
    fn finish_derives_busy_idle_and_overlap() {
        let reg = MetricsRegistry::new();
        let ri = RunInstruments::register(&reg, 1, 2);
        ri.kernel_time[0][0].record(600);
        ri.kernel_time[0][1].record(400);
        ri.transfer_time[0].record(500);
        // Makespan 1000 with 1000us of compute and 500us of link time:
        // at least 500us of the link had to overlap compute -> fraction 1.
        ri.finish(1000.0);
        let snap = reg.snapshot();
        use crate::metrics::Labels;
        assert!(
            (snap.gauge(name::PARTITION_BUSY_US, Labels::partition(0, 0)) - 600.0).abs() < 1e-9
        );
        assert!(
            (snap.gauge(name::PARTITION_IDLE_US, Labels::partition(0, 1)) - 600.0).abs() < 1e-9
        );
        assert!((snap.gauge(name::LINK_BUSY_US, Labels::device(0)) - 500.0).abs() < 1e-9);
        assert!((snap.gauge(name::HIDDEN_TRANSFER_FRACTION, Labels::GLOBAL) - 1.0).abs() < 1e-9);
        assert!((snap.gauge(name::MAKESPAN_US, Labels::GLOBAL) - 1000.0).abs() < 1e-9);
    }
}
