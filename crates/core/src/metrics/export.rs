//! Snapshot exporters: JSONL event log and OpenMetrics-style text.
//!
//! Both are pure functions of a [`MetricsSnapshot`] — no clocks, no
//! environment — so a deterministic run exports byte-identical text
//! (pinned by the sim determinism test). JSON is emitted by hand because
//! the offline workspace has no serde.

use super::hist::bucket_bounds;
use super::{Labels, MetricEntry, MetricValue, MetricsSnapshot};
use std::fmt::Write as _;

/// Render an `f64` as a JSON-safe number token (non-finite values
/// collapse to `0`, which JSON cannot represent otherwise).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Rust renders whole floats without a fractional part; keep them
        // valid JSON numbers as-is (e.g. "12" is fine).
        s
    } else {
        "0".to_string()
    }
}

fn labels_json(l: Labels) -> String {
    let mut parts = Vec::new();
    if let Some(d) = l.device {
        parts.push(format!("\"device\":{d}"));
    }
    if let Some(p) = l.partition {
        parts.push(format!("\"partition\":{p}"));
    }
    if let Some(t) = l.tenant {
        parts.push(format!("\"tenant\":{t}"));
    }
    format!("{{{}}}", parts.join(","))
}

/// One series as a single-line JSON object — the unit of the JSONL log.
fn entry_json(e: &MetricEntry) -> String {
    let mut s = format!(
        "{{\"name\":\"{}\",\"kind\":\"{}\",\"unit\":\"{}\",\"labels\":{}",
        e.name,
        e.kind.token(),
        e.unit.token(),
        labels_json(e.labels)
    );
    match &e.value {
        MetricValue::Counter(v) => {
            let _ = write!(s, ",\"value\":{v}");
        }
        MetricValue::Gauge(v) => {
            let _ = write!(s, ",\"value\":{}", json_f64(*v));
        }
        MetricValue::Histogram(h) => {
            let _ = write!(
                s,
                ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[{}]",
                h.count,
                h.sum,
                h.min,
                h.max,
                json_f64(h.mean()),
                h.p50(),
                h.p95(),
                h.p99(),
                h.buckets
                    .iter()
                    .map(|&(i, n)| format!("[{i},{n}]"))
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
    }
    s.push('}');
    s
}

impl MetricsSnapshot {
    /// Structured event log: one JSON object per line, one line per
    /// series, sorted by `(name, labels)`. Ends with a newline when
    /// non-empty.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&entry_json(e));
            out.push('\n');
        }
        out
    }

    /// OpenMetrics-style text snapshot: `# TYPE`/`# UNIT` metadata per
    /// metric, one sample line per series, histograms expanded into
    /// `_count`/`_sum`/quantile samples plus cumulative `le` buckets.
    #[must_use]
    pub fn to_openmetrics(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for e in &self.entries {
            if last_name != Some(e.name.as_str()) {
                let _ = writeln!(out, "# TYPE {} {}", e.name, e.kind.token());
                let _ = writeln!(out, "# UNIT {} {}", e.name, e.unit.token());
                last_name = Some(e.name.as_str());
            }
            match &e.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {v}", e.name, e.labels);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", e.name, e.labels, json_f64(*v));
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "{}_count{} {}", e.name, e.labels, h.count);
                    let _ = writeln!(out, "{}_sum{} {}", e.name, e.labels, h.sum);
                    for (q, v) in [(0.5, h.p50()), (0.95, h.p95()), (0.99, h.p99())] {
                        let _ = writeln!(
                            out,
                            "{}{} {v}",
                            e.name,
                            with_extra(e.labels, &format!("quantile=\"{q}\""))
                        );
                    }
                    let mut cum = 0u64;
                    for &(idx, n) in &h.buckets {
                        cum += n;
                        let (_, hi) = bucket_bounds(idx);
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cum}",
                            e.name,
                            with_extra(e.labels, &format!("le=\"{hi}\""))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        e.name,
                        with_extra(e.labels, "le=\"+Inf\""),
                        h.count
                    );
                }
            }
        }
        if matches!(self.entries.last(), Some(e) if !e.name.is_empty()) {
            out.push_str("# EOF\n");
        }
        out
    }
}

fn with_extra(l: Labels, extra: &str) -> String {
    let base = l.to_string();
    if base.is_empty() {
        format!("{{{extra}}}")
    } else {
        // Insert before the closing brace.
        format!("{},{extra}}}", &base[..base.len() - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Labels, MetricsSnapshot, Unit};

    fn sample() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counter_add("events_total", Unit::Count, Labels::GLOBAL, 5);
        snap.gauge_set("frac", Unit::Ratio, Labels::GLOBAL, 0.25);
        snap.histogram_record("lat_us", Unit::Micros, Labels::device(0), 10);
        snap.histogram_record("lat_us", Unit::Micros, Labels::device(0), 300);
        snap
    }

    #[test]
    fn jsonl_one_line_per_series() {
        let text = sample().to_jsonl();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"name\":\"events_total\""));
        assert!(text.contains("\"value\":5"));
        assert!(text.contains("\"labels\":{\"device\":0}"));
        assert!(text.contains("\"p50\":"));
    }

    #[test]
    fn openmetrics_has_type_unit_and_quantiles() {
        let text = sample().to_openmetrics();
        assert!(text.contains("# TYPE events_total counter"));
        assert!(text.contains("# UNIT lat_us us"));
        assert!(text.contains("quantile=\"0.5\""));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert!(text.contains("frac 0.25"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample();
        let b = sample();
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.to_openmetrics(), b.to_openmetrics());
    }

    #[test]
    fn json_f64_guards_non_finite() {
        assert_eq!(super::json_f64(f64::NAN), "0");
        assert_eq!(super::json_f64(f64::INFINITY), "0");
        assert_eq!(super::json_f64(1.5), "1.5");
    }
}
