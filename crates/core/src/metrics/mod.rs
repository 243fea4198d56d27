//! Unified telemetry: one value type, written once a run has finished.
//!
//! Every run-level measurement in the workspace — launch overhead, queue
//! wait, transfer volume, fault/retry activity, pool busy/idle time — is
//! exported as one [`MetricsSnapshot`] of typed series (counters, gauges,
//! log-bucketed histograms) keyed by metric name plus `(device, partition,
//! tenant)` labels. Both executors export the *same* series set and neither
//! writes it while running: one function, `instruments::price_run`, derives
//! the whole catalog from a finished timeline — the simulator's, or the one
//! the native `Recorder` (`crate::trace`) measured — so a gauge and the
//! `overlap()`/`partition_stats()` of the same run cannot disagree, and the
//! shared shape is itself a differential check alongside stream-check and
//! the trace comparator. The other writers (the serving layer's per-tenant
//! series, the tuner's cache counters) write from `&mut self` as well:
//! nothing records concurrently, so a snapshot is plain data, written with
//! [`MetricsSnapshot::counter_add`], [`MetricsSnapshot::gauge_set`] and
//! [`MetricsSnapshot::histogram_record`] and read with the getters.
//!
//! Determinism: nothing in this module reads a wall clock or RNG. A
//! snapshot's content is a pure function of the recorded samples, and its
//! entries stay sorted by `(name, labels)`, so two identical sim runs
//! export byte-identical JSONL/OpenMetrics text (pinned by a test).
//!
//! Overhead: a metered native run pays for its spans (see
//! `crate::trace`) plus one pass over them at join. When every telemetry
//! switch is off the native executor skips each recording site behind one
//! `Option` check (`mic-e2e` reports the recorded cost as
//! `trace_overhead_frac` on `dispatch_tiny`); a simulated run prices its
//! snapshot only when asked ([`SimReport::metrics`](crate::SimReport::metrics)).

mod export;
pub mod hist;
pub(crate) mod instruments;

pub use hist::HistogramSnapshot;

use std::fmt;

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
    /// Serving tenant (see the `stream-serve` crate); `None` outside
    /// multi-tenant contexts, which keeps single-run catalogs unchanged.
    pub tenant: Option<u16>,
}

impl Labels {
    /// No labels — a single global series.
    pub const GLOBAL: Labels = Labels {
        device: None,
        partition: None,
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

    /// Series keyed by tenant only (service-level instruments).
    #[must_use]
    pub fn tenant(tenant: u16) -> Labels {
        Labels {
            tenant: Some(tenant),
            ..Labels::GLOBAL
        }
    }

    /// True when every dimension is `None`.
    #[must_use]
    fn is_global(&self) -> bool {
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
        if let Some(t) = self.tenant {
            parts.push(format!("tenant=\"{t}\""));
        }
        write!(f, "{{{}}}", parts.join(","))
    }
}

/// Recorded value of one series.
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

/// A deterministically ordered set of series: written through the
/// `&mut self` writers, read through the getters. Entries are sorted by
/// `(name, labels)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All series, sorted by `(name, labels)`.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// The value of series `(name, labels)`, declared as a zero `kind` in
    /// `unit` when new. Panics if `name` already exists with a different
    /// kind or unit.
    fn series(&mut self, name: &str, kind: Kind, unit: Unit, labels: Labels) -> &mut MetricValue {
        let key = (name, labels);
        let at = match self
            .entries
            .binary_search_by(|e| (e.name.as_str(), e.labels).cmp(&key))
        {
            Ok(at) => at,
            Err(at) => {
                let value = match kind {
                    Kind::Counter => MetricValue::Counter(0),
                    Kind::Gauge => MetricValue::Gauge(0.0),
                    Kind::Histogram => MetricValue::Histogram(HistogramSnapshot::default()),
                };
                self.entries.insert(
                    at,
                    MetricEntry {
                        name: name.to_string(),
                        kind,
                        unit,
                        labels,
                        value,
                    },
                );
                at
            }
        };
        // The series of one name are adjacent and share kind and unit, so
        // the neighbours stand for all of them.
        for e in self.entries[at.saturating_sub(1)..].iter().take(3) {
            assert!(
                e.name != name || (e.kind == kind && e.unit == unit),
                "metric `{name}` re-declared as {kind:?}/{unit:?} (was {:?}/{:?})",
                e.kind,
                e.unit,
            );
        }
        &mut self.entries[at].value
    }

    /// Add `n` to a counter series (declaring it at zero when new).
    /// Panics if `name` exists as another kind or unit.
    pub fn counter_add(&mut self, name: &str, unit: Unit, labels: Labels, n: u64) {
        if let MetricValue::Counter(v) = self.series(name, Kind::Counter, unit, labels) {
            *v = v.wrapping_add(n);
        }
    }

    /// Overwrite a gauge series. Panics if `name` exists as another kind
    /// or unit.
    pub fn gauge_set(&mut self, name: &str, unit: Unit, labels: Labels, value: f64) {
        if let MetricValue::Gauge(v) = self.series(name, Kind::Gauge, unit, labels) {
            *v = value;
        }
    }

    /// Record one sample into a histogram series. Panics if `name` exists
    /// as another kind or unit.
    pub fn histogram_record(&mut self, name: &str, unit: Unit, labels: Labels, sample: u64) {
        if let MetricValue::Histogram(h) = self.series(name, Kind::Histogram, unit, labels) {
            h.record(sample);
        }
    }

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
    fn writers_round_trip() {
        let mut snap = MetricsSnapshot::default();
        snap.counter_add("events_total", Unit::Count, Labels::GLOBAL, 3);
        snap.gauge_set("makespan_us", Unit::Micros, Labels::GLOBAL, 12.5);
        let at = Labels::partition(0, 1);
        snap.histogram_record("latency_us", Unit::Micros, at, 100);
        snap.histogram_record("latency_us", Unit::Micros, at, 200);
        assert_eq!(snap.counter("events_total", Labels::GLOBAL), 3);
        assert!((snap.gauge("makespan_us", Labels::GLOBAL) - 12.5).abs() < 1e-12);
        let hist = snap.histogram("latency_us", at).unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 300);
    }

    #[test]
    fn writes_to_one_series_accumulate() {
        let mut snap = MetricsSnapshot::default();
        snap.counter_add("n", Unit::Count, Labels::GLOBAL, 1);
        snap.counter_add("n", Unit::Count, Labels::GLOBAL, 1);
        assert_eq!(snap.counter("n", Labels::GLOBAL), 2);
        assert_eq!(snap.entries.len(), 1);
    }

    #[test]
    #[should_panic(expected = "re-declared")]
    fn kind_conflict_panics() {
        let mut snap = MetricsSnapshot::default();
        snap.counter_add("x", Unit::Count, Labels::GLOBAL, 0);
        snap.gauge_set("x", Unit::Count, Labels::device(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "re-declared")]
    fn unit_conflict_panics() {
        let mut snap = MetricsSnapshot::default();
        snap.counter_add("x", Unit::Count, Labels::device(1), 0);
        snap.counter_add("x", Unit::Bytes, Labels::device(0), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let mut snap = MetricsSnapshot::default();
        // Written out of order; entries must sort by (name, labels).
        snap.counter_add("z_total", Unit::Count, Labels::GLOBAL, 0);
        snap.counter_add("a_total", Unit::Count, Labels::device(1), 0);
        snap.counter_add("a_total", Unit::Count, Labels::device(0), 0);
        assert_eq!(
            snap.series_names(),
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
        assert_eq!(Labels::tenant(4).to_string(), "{tenant=\"4\"}");
        assert_eq!(
            Labels {
                tenant: Some(2),
                ..Labels::partition(0, 3)
            }
            .to_string(),
            "{device=\"0\",partition=\"3\",tenant=\"2\"}"
        );
    }

    #[test]
    fn tenant_dimension_sorts_after_tenant_free_series() {
        let mut snap = MetricsSnapshot::default();
        let tenant_free = Labels::partition(0, 1);
        let with_tenant = Labels {
            tenant: Some(0),
            ..tenant_free
        };
        snap.counter_add("n", Unit::Count, with_tenant, 0);
        snap.counter_add("n", Unit::Count, tenant_free, 0);
        assert_eq!(
            snap.series_names(),
            vec![
                "n{device=\"0\",partition=\"1\"}".to_string(),
                "n{device=\"0\",partition=\"1\",tenant=\"0\"}".to_string(),
            ],
            "a tenant-free series must keep its pre-tenant sort position"
        );
    }
}
