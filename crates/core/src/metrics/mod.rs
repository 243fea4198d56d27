//! Unified telemetry: a deterministic registry of typed instruments.
//!
//! Every run-level measurement in the workspace — launch overhead, queue
//! wait, transfer volume, fault/retry activity, pool busy/idle time — is
//! exported through one [`MetricsRegistry`] of typed instruments
//! ([`Counter`], [`Gauge`], [`Histogram`]) keyed by metric name plus
//! `(device, partition, stream)` labels. Both executors export the *same*
//! instrument set (see [`instruments::RunInstruments`]) and neither fills it
//! while running: one function, `instruments::price_run`, derives the whole
//! catalog from a finished timeline — the simulator's, or the one the
//! native [`Recorder`](crate::trace) measured — so a gauge and the
//! `overlap()`/`partition_stats()` of the same run cannot disagree, and the
//! shared shape is itself a differential check alongside stream-check and
//! the trace comparator.
//!
//! Determinism: nothing in this module reads a wall clock or RNG. A
//! snapshot's content is a pure function of the recorded samples, and all
//! iteration orders are `BTreeMap`-sorted, so two identical sim runs
//! export byte-identical JSONL/OpenMetrics text (pinned by a test).
//!
//! Overhead: a metered native run pays for its spans (see
//! [`crate::trace`]) plus one pass over them at join, on a registry built
//! fresh for the run. Instrument handles are `Arc`-shared atomic cells for
//! the layers that do record live (the serving layer's per-tenant series).
//! When every telemetry switch is off the executors skip each recording
//! site behind one `Option` check (`mic-e2e` reports the recorded cost as
//! `trace_overhead_frac` on `dispatch_tiny`).

pub mod export;
pub mod hist;
pub mod instruments;

pub use hist::HistogramSnapshot;
pub use instruments::RunInstruments;

use hist::HistCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What an instrument measures — exported as the OpenMetrics unit suffix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Unit {
    /// Microseconds.
    Micros,
    /// Bytes.
    Bytes,
    /// Dimensionless event count.
    Count,
    /// Dimensionless fraction in `[0, 1]`.
    Ratio,
}

impl Unit {
    /// Stable lowercase token used by the exporters.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Unit::Micros => "us",
            Unit::Bytes => "bytes",
            Unit::Count => "count",
            Unit::Ratio => "ratio",
        }
    }
}

/// Instrument type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Last-write-wins `f64`.
    Gauge,
    /// Log-bucketed distribution ([`hist`]).
    Histogram,
}

impl Kind {
    /// Stable lowercase token used by the exporters.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// Dimension labels attached to a time series. All optional; `None`
/// means the dimension does not apply (e.g. host-side work has no
/// device). Ordering is derived so snapshots sort deterministically;
/// `tenant` sorts last, so adding the dimension did not reorder any
/// pre-existing (tenant-free) catalog.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels {
    /// Device ordinal (0-based); `None` for host-side series.
    pub device: Option<u16>,
    /// Partition ordinal within the device.
    pub partition: Option<u16>,
    /// Logical stream id.
    pub stream: Option<u16>,
    /// Serving tenant (see the `stream-serve` crate); `None` outside
    /// multi-tenant contexts, which keeps single-run catalogs unchanged.
    pub tenant: Option<u16>,
}

impl Labels {
    /// No labels — a single global series.
    pub const GLOBAL: Labels = Labels {
        device: None,
        partition: None,
        stream: None,
        tenant: None,
    };

    /// Series keyed by device only.
    #[must_use]
    pub fn device(device: u16) -> Labels {
        Labels {
            device: Some(device),
            ..Labels::GLOBAL
        }
    }

    /// Series keyed by `(device, partition)`.
    #[must_use]
    pub fn partition(device: u16, partition: u16) -> Labels {
        Labels {
            device: Some(device),
            partition: Some(partition),
            ..Labels::GLOBAL
        }
    }

    /// Series keyed by `(device, stream)`.
    #[must_use]
    pub fn stream(device: u16, stream: u16) -> Labels {
        Labels {
            device: Some(device),
            stream: Some(stream),
            ..Labels::GLOBAL
        }
    }

    /// Series keyed by tenant only (service-level instruments).
    #[must_use]
    pub fn tenant(tenant: u16) -> Labels {
        Labels {
            tenant: Some(tenant),
            ..Labels::GLOBAL
        }
    }

    /// This labelling with the tenant dimension set — how the serving
    /// layer scopes any per-run series to the tenant that owns it.
    #[must_use]
    pub fn for_tenant(mut self, tenant: u16) -> Labels {
        self.tenant = Some(tenant);
        self
    }

    /// True when every dimension is `None`.
    #[must_use]
    pub fn is_global(&self) -> bool {
        *self == Labels::GLOBAL
    }
}

impl fmt::Display for Labels {
    /// OpenMetrics-style `{k="v",...}` rendering; empty string when global.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_global() {
            return Ok(());
        }
        let mut parts = Vec::new();
        if let Some(d) = self.device {
            parts.push(format!("device=\"{d}\""));
        }
        if let Some(p) = self.partition {
            parts.push(format!("partition=\"{p}\""));
        }
        if let Some(s) = self.stream {
            parts.push(format!("stream=\"{s}\""));
        }
        if let Some(t) = self.tenant {
            parts.push(format!("tenant=\"{t}\""));
        }
        write!(f, "{{{}}}", parts.join(","))
    }
}

/// Monotonic counter handle. Cheap to clone; clones share the cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge handle storing an `f64`.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Overwrite the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Histogram handle over a shared [`HistCell`].
#[derive(Clone, Default)]
pub struct Histogram(Arc<HistCell>);

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }

    /// Snapshot the current distribution.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Registered {
    kind: Kind,
    unit: Unit,
    series: BTreeMap<Labels, Cell>,
}

/// Registry of named instruments. Registration and snapshotting lock a
/// `Mutex`; recording through the returned handles does not.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Registered>>,
}

impl MetricsRegistry {
    /// Empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn register(&self, name: &str, kind: Kind, unit: Unit, labels: Labels) -> Cell {
        let mut inner = self.inner.lock().unwrap();
        // Look up by `&str` first: a name is registered once per label
        // set, and the common case (name already present) should not
        // allocate.
        if !inner.contains_key(name) {
            inner.insert(
                name.to_string(),
                Registered {
                    kind,
                    unit,
                    series: BTreeMap::new(),
                },
            );
        }
        let reg = inner.get_mut(name).expect("just inserted");
        assert!(
            reg.kind == kind && reg.unit == unit,
            "metric `{name}` re-registered as {:?}/{:?} (was {:?}/{:?})",
            kind,
            unit,
            reg.kind,
            reg.unit,
        );
        let cell = reg.series.entry(labels).or_insert_with(|| match kind {
            Kind::Counter => Cell::Counter(Counter::default()),
            Kind::Gauge => Cell::Gauge(Gauge::default()),
            Kind::Histogram => Cell::Histogram(Histogram::default()),
        });
        match cell {
            Cell::Counter(c) => Cell::Counter(c.clone()),
            Cell::Gauge(g) => Cell::Gauge(g.clone()),
            Cell::Histogram(h) => Cell::Histogram(h.clone()),
        }
    }

    /// Register (or fetch) a counter series. Panics if `name` already
    /// exists with a different kind or unit.
    pub fn counter(&self, name: &str, unit: Unit, labels: Labels) -> Counter {
        match self.register(name, Kind::Counter, unit, labels) {
            Cell::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Register (or fetch) a gauge series.
    pub fn gauge(&self, name: &str, unit: Unit, labels: Labels) -> Gauge {
        match self.register(name, Kind::Gauge, unit, labels) {
            Cell::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Register (or fetch) a histogram series.
    pub fn histogram(&self, name: &str, unit: Unit, labels: Labels) -> Histogram {
        match self.register(name, Kind::Histogram, unit, labels) {
            Cell::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Freeze the registry into a sorted, immutable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        let mut entries = Vec::new();
        for (name, reg) in inner.iter() {
            for (labels, cell) in &reg.series {
                entries.push(MetricEntry {
                    name: name.clone(),
                    kind: reg.kind,
                    unit: reg.unit,
                    labels: *labels,
                    value: match cell {
                        Cell::Counter(c) => MetricValue::Counter(c.get()),
                        Cell::Gauge(g) => MetricValue::Gauge(g.get()),
                        Cell::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                });
            }
        }
        MetricsSnapshot { entries }
    }
}

/// Recorded value of one series at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One `(name, labels)` series with its metadata and value.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricEntry {
    /// Metric name (snake_case, unit-suffixed where applicable).
    pub name: String,
    /// Instrument type.
    pub kind: Kind,
    /// Measurement unit.
    pub unit: Unit,
    /// Series labels.
    pub labels: Labels,
    /// Recorded value.
    pub value: MetricValue,
}

/// Immutable, deterministically ordered view of a whole registry.
/// Entries are sorted by `(name, labels)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All series, sorted by `(name, labels)`.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Distinct instrument names, sorted.
    #[must_use]
    pub fn instrument_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.iter().map(|e| e.name.clone()).collect();
        names.dedup();
        names
    }

    /// Full series identities as `name{labels}` strings, sorted — the
    /// shape the parity check compares across executors.
    #[must_use]
    pub fn series_names(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| format!("{}{}", e.name, e.labels))
            .collect()
    }

    /// Look up one series.
    #[must_use]
    pub fn get(&self, name: &str, labels: Labels) -> Option<&MetricEntry> {
        self.entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
    }

    /// Counter total for a series (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str, labels: Labels) -> u64 {
        match self.get(name, labels).map(|e| &e.value) {
            Some(&MetricValue::Counter(v)) => v,
            _ => 0,
        }
    }

    /// Gauge value for a series (0.0 when absent).
    #[must_use]
    pub fn gauge(&self, name: &str, labels: Labels) -> f64 {
        match self.get(name, labels).map(|e| &e.value) {
            Some(&MetricValue::Gauge(v)) => v,
            _ => 0.0,
        }
    }

    /// Histogram state for a series (`None` when absent or not a
    /// histogram).
    #[must_use]
    pub fn histogram(&self, name: &str, labels: Labels) -> Option<&HistogramSnapshot> {
        match self.get(name, labels).map(|e| &e.value) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Counter total summed over every labelling of `name`.
    #[must_use]
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| match &e.value {
                MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// Merge all histogram series of `name` (across labels) into one
    /// distribution — e.g. overall launch overhead across partitions.
    #[must_use]
    pub fn histogram_merged(&self, name: &str) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for e in self.entries.iter().filter(|e| e.name == name) {
            if let MetricValue::Histogram(h) = &e.value {
                out.merge(h);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("events_total", Unit::Count, Labels::GLOBAL);
        let g = reg.gauge("makespan_us", Unit::Micros, Labels::GLOBAL);
        let h = reg.histogram("latency_us", Unit::Micros, Labels::partition(0, 1));
        c.add(3);
        g.set(12.5);
        h.record(100);
        h.record(200);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("events_total", Labels::GLOBAL), 3);
        assert!((snap.gauge("makespan_us", Labels::GLOBAL) - 12.5).abs() < 1e-12);
        let hist = snap
            .histogram("latency_us", Labels::partition(0, 1))
            .unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 300);
    }

    #[test]
    fn handles_share_cells() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("n", Unit::Count, Labels::GLOBAL);
        let b = reg.counter("n", Unit::Count, Labels::GLOBAL);
        a.inc();
        b.inc();
        assert_eq!(reg.snapshot().counter("n", Labels::GLOBAL), 2);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_conflict_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x", Unit::Count, Labels::GLOBAL);
        let _ = reg.gauge("x", Unit::Count, Labels::GLOBAL);
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let reg = MetricsRegistry::new();
        // Register out of order; snapshot must sort by (name, labels).
        let _ = reg.counter("z_total", Unit::Count, Labels::GLOBAL);
        let _ = reg.counter("a_total", Unit::Count, Labels::device(1));
        let _ = reg.counter("a_total", Unit::Count, Labels::device(0));
        let names = reg.snapshot().series_names();
        assert_eq!(
            names,
            vec![
                "a_total{device=\"0\"}".to_string(),
                "a_total{device=\"1\"}".to_string(),
                "z_total".to_string(),
            ]
        );
    }

    #[test]
    fn labels_display() {
        assert_eq!(Labels::GLOBAL.to_string(), "");
        assert_eq!(Labels::device(2).to_string(), "{device=\"2\"}");
        assert_eq!(
            Labels::partition(0, 3).to_string(),
            "{device=\"0\",partition=\"3\"}"
        );
        assert_eq!(
            Labels::stream(1, 7).to_string(),
            "{device=\"1\",stream=\"7\"}"
        );
        assert_eq!(Labels::tenant(4).to_string(), "{tenant=\"4\"}");
        assert_eq!(
            Labels::partition(0, 3).for_tenant(2).to_string(),
            "{device=\"0\",partition=\"3\",tenant=\"2\"}"
        );
    }

    #[test]
    fn tenant_dimension_sorts_after_tenant_free_series() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("n", Unit::Count, Labels::partition(0, 1).for_tenant(0));
        let _ = reg.counter("n", Unit::Count, Labels::partition(0, 1));
        let names = reg.snapshot().series_names();
        assert_eq!(
            names,
            vec![
                "n{device=\"0\",partition=\"1\"}".to_string(),
                "n{device=\"0\",partition=\"1\",tenant=\"0\"}".to_string(),
            ],
            "a tenant-free series must keep its pre-tenant sort position"
        );
    }
}
