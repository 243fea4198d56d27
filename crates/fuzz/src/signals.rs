//! Coverage signals: the novelty metric that decides corpus retention.
//!
//! A *signal* is a short stable string like `check:race@s2`,
//! `overlap:pairs:8`, `metrics:catalog:19x42` or `fault:retries+failed`.
//! The fuzzer keeps a child genome only when its run produces a signal the
//! corpus has never seen — a LibAFL-style feedback loop, except the
//! "coverage map" is semantic: checker diagnostics and sites, overlap
//! shapes, metric-catalog deltas, fault-counter and steal patterns,
//! scheduler outcomes.
//!
//! Signals are grouped into *families* by their prefix up to the first
//! `:` ([`family`]); the fuzzing-session test requires several distinct
//! families to light up, which catches a fuzzer that silently stopped
//! exercising one of the oracles.
//!
//! Numeric signals are bucketed ([`bucket`]: 0, 1, 2, 4, 8, … powers of
//! two; [`decile`] for fractions) so the signal space stays finite and
//! saturates — retention then stops, which is what bounds corpus growth.

use std::collections::BTreeSet;

use hstreams::check::{CheckReport, OverlapSummary};
use hstreams::fault::FaultCounters;
use hstreams::metrics::MetricsSnapshot;
use hstreams::sched::{Schedule, SchedulerKind};
use hstreams::testutil::fnv64;

/// The family prefix of a signal (up to the first `:`).
pub fn family(signal: &str) -> &str {
    signal.split(':').next().unwrap_or(signal)
}

/// Power-of-two bucket: 0 → 0, otherwise the largest power of two ≤ `n`.
pub fn bucket(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        1 << (usize::BITS - 1 - n.leading_zeros())
    }
}

/// Decile bucket of a fraction, clamped to `0..=10`.
pub fn decile(f: f64) -> usize {
    ((f * 10.0).floor().clamp(0.0, 10.0)) as usize
}

/// Checker-family signals: one per diagnostic (code name at its primary
/// site's stream), or `check:clean`.
pub fn check_signals(report: &CheckReport) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for d in report.errors().chain(report.warnings()) {
        out.insert(format!("check:{}@s{}", d.code.name(), d.site.stream.0));
    }
    if out.is_empty() {
        out.insert("check:clean".to_string());
    }
    out
}

/// Overlap-shape signals: bucketed concurrent transfer/kernel pair count
/// from the static happens-before analysis, plus (when a simulated run is
/// available) the decile of the transfer time hidden behind compute.
pub fn overlap_signals(summary: &OverlapSummary, hidden_fraction: Option<f64>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    out.insert(format!(
        "overlap:pairs:{}",
        bucket(summary.concurrent_transfer_kernel_pairs)
    ));
    out.insert(format!(
        "overlap:mix:{}t{}k",
        bucket(summary.transfers),
        bucket(summary.kernels)
    ));
    if let Some(hf) = hidden_fraction {
        out.insert(format!("overlap:hidden:{}", decile(hf)));
    }
    out
}

/// Metrics-catalog signals: instrument × series counts plus a shape hash
/// over the sorted series names, so a new label combination registers as
/// novel even at equal counts.
pub fn metrics_signals(snap: &MetricsSnapshot) -> BTreeSet<String> {
    let instruments = snap.instrument_names();
    let mut series = snap.series_names();
    series.sort();
    series.dedup();
    let mut out = BTreeSet::new();
    out.insert(format!(
        "metrics:catalog:{}x{}",
        instruments.len(),
        series.len()
    ));
    out.insert(format!(
        "metrics:shape:{:08x}",
        fnv64(&series.join(",")) as u32
    ));
    out
}

/// Fault-counter pattern: the set of nonzero counters, joined — e.g.
/// `fault:retries+failed`. An all-zero counter block under an armed plan
/// is itself a distinct (and suspicious) signal.
pub fn fault_signals(c: &FaultCounters) -> BTreeSet<String> {
    let mut nonzero = Vec::new();
    for (name, v) in [
        ("retries", c.transfer_retries),
        ("failed", c.transfers_failed),
        ("injected-panics", c.injected_kernel_panics),
        ("panics", c.kernel_panics),
        ("lost", c.lost_partitions),
        ("skipped", c.skipped_actions),
        ("alloc", c.alloc_faults),
        ("degraded", c.degraded_runs),
        ("replayed", c.replayed_actions),
    ] {
        if v > 0 {
            nonzero.push(name);
        }
    }
    let pattern = if nonzero.is_empty() {
        "quiet".to_string()
    } else {
        nonzero.join("+")
    };
    [format!("fault:{pattern}")].into_iter().collect()
}

/// Scheduler signals: whether `kind` planned or declined, and the bucketed
/// *planned* steal count (the deterministic plan-time number — native
/// runtime steal counts are timing-dependent and excluded by design).
pub fn sched_signals(kind: SchedulerKind, planned: Option<&Schedule>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    match planned {
        Some(s) => {
            out.insert(format!("sched:{}:planned", kind.label()));
            out.insert(format!(
                "sched:{}:steals:{}",
                kind.label(),
                bucket(s.steals)
            ));
        }
        None => {
            out.insert(format!("sched:{}:declined", kind.label()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_coarse_and_monotone() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(8), 8);
        assert_eq!(bucket(1000), 512);
        assert_eq!(decile(0.0), 0);
        assert_eq!(decile(0.55), 5);
        assert_eq!(decile(1.0), 10);
        assert_eq!(decile(7.3), 10);
    }

    #[test]
    fn families_split_on_first_colon() {
        assert_eq!(family("check:race@s2"), "check");
        assert_eq!(family("sched:heft:steals:4"), "sched");
        assert_eq!(family("bare"), "bare");
    }

    #[test]
    fn fault_patterns_name_nonzero_counters() {
        let quiet = FaultCounters::default();
        assert!(fault_signals(&quiet).contains("fault:quiet"));
        let counters = FaultCounters {
            transfer_retries: 3,
            transfers_failed: 1,
            ..FaultCounters::default()
        };
        assert!(fault_signals(&counters).contains("fault:retries+failed"));
    }
}
