//! Timeline analysis: overlap statistics and ASCII Gantt rendering.
//!
//! The paper's temporal-sharing story is about *overlap*: how much of the
//! link's busy time hides under kernel execution. This module computes that
//! from an engine [`Timeline`] given a classification of resources into
//! link channels and compute partitions, and renders per-resource Gantt
//! charts for the examples. The renderers name each task through a
//! caller-supplied function of its record: the engine's tasks carry only
//! the caller's tag.

use std::collections::BTreeMap;

use crate::engine::{ResourceId, TaskRecord, Timeline};
use crate::time::{SimDuration, SimTime};

/// Classification of the resources in a timeline.
#[derive(Clone, Debug, Default)]
pub struct ResourceKinds {
    /// PCIe link channels.
    pub links: Vec<ResourceId>,
    /// Compute partitions.
    pub partitions: Vec<ResourceId>,
}

/// Overlap statistics for one run.
#[derive(Clone, Debug, PartialEq)]
pub struct OverlapStats {
    /// End-to-end simulated time.
    pub makespan: SimDuration,
    /// Total time at least one link channel was busy.
    pub link_busy: SimDuration,
    /// Total time at least one partition was executing a kernel.
    pub compute_busy: SimDuration,
    /// Time both were busy simultaneously — the transfer time *hidden*
    /// behind computation.
    pub overlap: SimDuration,
}

impl OverlapStats {
    /// Fraction of link busy time hidden behind compute, in `0..=1`.
    pub fn hidden_fraction(&self) -> f64 {
        if self.link_busy == SimDuration::ZERO {
            return 0.0;
        }
        self.overlap.nanos() as f64 / self.link_busy.nanos() as f64
    }

    /// The lower bound a perfect overlap could reach:
    /// `max(link_busy, compute_busy)`.
    pub fn ideal_makespan(&self) -> SimDuration {
        self.link_busy.max(self.compute_busy)
    }
}

/// Half-open busy interval `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Start instant.
    pub start: SimTime,
    /// End instant.
    pub end: SimTime,
}

/// Merge possibly-overlapping intervals into a sorted disjoint set.
pub fn merge_intervals(mut intervals: Vec<Interval>) -> Vec<Interval> {
    intervals.retain(|iv| iv.end > iv.start);
    intervals.sort_by_key(|iv| (iv.start, iv.end));
    let mut out: Vec<Interval> = Vec::with_capacity(intervals.len());
    for iv in intervals {
        match out.last_mut() {
            Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
            _ => out.push(iv),
        }
    }
    out
}

/// Total length of a disjoint interval set.
pub fn total_length(intervals: &[Interval]) -> SimDuration {
    intervals.iter().map(|iv| iv.end - iv.start).sum()
}

/// Intersection of two disjoint, sorted interval sets.
pub fn intersect(a: &[Interval], b: &[Interval]) -> Vec<Interval> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let start = a[i].start.max(b[j].start);
        let end = a[i].end.min(b[j].end);
        if end > start {
            out.push(Interval { start, end });
        }
        if a[i].end <= b[j].end {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

fn busy_intervals<T>(timeline: &Timeline<T>, resources: &[ResourceId]) -> Vec<Interval> {
    // Membership by resource id: one lookup per record.
    let mut member = vec![false; resources.iter().map(|r| r.0 + 1).max().unwrap_or(0)];
    for r in resources {
        member[r.0] = true;
    }
    let raw: Vec<Interval> = timeline
        .records
        .iter()
        .filter(|r| {
            r.resource
                .is_some_and(|res| member.get(res.0) == Some(&true))
        })
        .map(|r| Interval {
            start: r.start,
            end: r.finish,
        })
        .collect();
    merge_intervals(raw)
}

/// Per-partition utilization over one run — the load-balance counterpart
/// to [`OverlapStats`]. A starved partition (a `T < P` configuration, or a
/// straggler tile pinning its siblings idle) shows up as a high
/// [`idle_fraction`](PartitionStats::idle_fraction) and a long
/// [`longest_gap`](PartitionStats::longest_gap).
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionStats {
    /// The partition resource these numbers describe.
    pub resource: ResourceId,
    /// Total time this partition was executing work.
    pub busy: SimDuration,
    /// `makespan - busy`: time the partition sat idle.
    pub idle: SimDuration,
    /// `idle / makespan` in `0..=1` (0 on an empty timeline). `1.0` means
    /// the partition never ran anything — fully starved.
    pub idle_fraction: f64,
    /// The longest single stretch of idleness (including before the
    /// partition's first task and after its last).
    pub longest_gap: SimDuration,
    /// Tasks executed on this partition.
    pub tasks: usize,
}

/// Per-partition busy/idle breakdown of `timeline` for every partition in
/// `kinds`, in `kinds.partitions` order. Partitions with no recorded work
/// report `busy = 0`, `idle_fraction = 1.0` — the starvation signature.
pub fn partition_stats<T>(timeline: &Timeline<T>, kinds: &ResourceKinds) -> Vec<PartitionStats> {
    let makespan = timeline.makespan;
    kinds
        .partitions
        .iter()
        .map(|&res| {
            let busy_ivs = busy_intervals(timeline, &[res]);
            let busy = total_length(&busy_ivs);
            let idle = makespan.saturating_sub(busy);
            let idle_fraction = if makespan == SimDuration::ZERO {
                0.0
            } else {
                idle.nanos() as f64 / makespan.nanos() as f64
            };
            // Longest idle stretch: gaps between busy intervals plus the
            // leading and trailing idle edges.
            let mut longest = SimDuration::ZERO;
            let mut cursor = SimTime(0);
            for iv in &busy_ivs {
                longest = longest.max(iv.start.since(cursor));
                cursor = iv.end;
            }
            longest = longest.max(SimTime(makespan.nanos()).since(cursor));
            let tasks = timeline
                .records
                .iter()
                .filter(|r| r.resource == Some(res))
                .count();
            PartitionStats {
                resource: res,
                busy,
                idle,
                idle_fraction,
                longest_gap: longest,
                tasks,
            }
        })
        .collect()
}

/// Compute overlap statistics for `timeline` under `kinds`.
pub fn overlap_stats<T>(timeline: &Timeline<T>, kinds: &ResourceKinds) -> OverlapStats {
    let link = busy_intervals(timeline, &kinds.links);
    let compute = busy_intervals(timeline, &kinds.partitions);
    let both = intersect(&link, &compute);
    OverlapStats {
        makespan: timeline.makespan,
        link_busy: total_length(&link),
        compute_busy: total_length(&compute),
        overlap: total_length(&both),
    }
}

/// Render an ASCII Gantt chart of the timeline, one row per resource,
/// `width` characters across the makespan; a task's cells show the first
/// character of its `label`.
pub fn render_gantt<T, L: AsRef<str>>(
    timeline: &Timeline<T>,
    names: &BTreeMap<ResourceId, String>,
    width: usize,
    label: impl Fn(&TaskRecord<T>) -> L,
) -> String {
    let width = width.max(10);
    let span = timeline.makespan.nanos().max(1);
    let mut rows: BTreeMap<ResourceId, Vec<char>> =
        names.keys().map(|&r| (r, vec!['.'; width])).collect();
    for rec in &timeline.records {
        let Some(res) = rec.resource else { continue };
        let Some(row) = rows.get_mut(&res) else {
            continue;
        };
        let a = (rec.start.nanos() as u128 * width as u128 / span as u128) as usize;
        let b = (rec.finish.nanos() as u128 * width as u128 / span as u128) as usize;
        let b = b.clamp(a + 1, width);
        let glyph = label(rec).as_ref().chars().next().unwrap_or('#');
        for cell in row.iter_mut().take(b).skip(a) {
            *cell = glyph;
        }
    }
    let name_width = names.values().map(String::len).max().unwrap_or(4);
    let mut out = String::new();
    for (res, row) in &rows {
        let name = &names[res];
        out.push_str(&format!("{name:>name_width$} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "{:>name_width$} +{}>\n{:>name_width$}  0 .. {}\n",
        "",
        "-".repeat(width),
        "",
        timeline.makespan
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, TaskSpec};

    fn iv(a: u64, b: u64) -> Interval {
        Interval {
            start: SimTime(a),
            end: SimTime(b),
        }
    }

    #[test]
    fn merge_handles_overlaps_and_empties() {
        let merged = merge_intervals(vec![iv(5, 5), iv(0, 10), iv(5, 15), iv(20, 30)]);
        assert_eq!(merged, vec![iv(0, 15), iv(20, 30)]);
        assert_eq!(total_length(&merged), SimDuration(25));
    }

    #[test]
    fn merge_is_idempotent() {
        let once = merge_intervals(vec![iv(0, 3), iv(2, 8), iv(10, 12)]);
        let twice = merge_intervals(once.clone());
        assert_eq!(once, twice);
    }

    #[test]
    fn intersect_basic() {
        let a = vec![iv(0, 10), iv(20, 30)];
        let b = vec![iv(5, 25)];
        assert_eq!(intersect(&a, &b), vec![iv(5, 10), iv(20, 25)]);
        assert_eq!(intersect(&a, &[]), vec![]);
    }

    #[test]
    fn stats_from_simple_pipeline() {
        // link busy 0-10, compute busy 5-15 => overlap 5.
        let mut e = Engine::new();
        let link = e.add_resource();
        let part = e.add_resource();
        let gate = e
            .add_task(TaskSpec {
                resource: None,
                duration: SimDuration(5),
                deps: &[],
                tag: "gate",
            })
            .unwrap();
        e.add_task(TaskSpec {
            resource: Some(link),
            duration: SimDuration(10),
            deps: &[],
            tag: "h2d",
        })
        .unwrap();
        e.add_task(TaskSpec {
            resource: Some(part),
            duration: SimDuration(10),
            deps: &[gate],
            tag: "exe",
        })
        .unwrap();
        let tl = e.run();
        let stats = overlap_stats(
            &tl,
            &ResourceKinds {
                links: vec![link],
                partitions: vec![part],
            },
        );
        assert_eq!(stats.link_busy, SimDuration(10));
        assert_eq!(stats.compute_busy, SimDuration(10));
        assert_eq!(stats.overlap, SimDuration(5));
        assert_eq!(stats.hidden_fraction(), 0.5);
        assert_eq!(stats.ideal_makespan(), SimDuration(10));
        assert_eq!(stats.makespan, SimDuration(15));
    }

    #[test]
    fn partition_stats_expose_starvation() {
        // p0 busy 0-10 then 15-20; p1 completely idle (starved).
        let mut e = Engine::new();
        let p0 = e.add_resource();
        let p1 = e.add_resource();
        let first = e
            .add_task(TaskSpec {
                resource: Some(p0),
                duration: SimDuration(10),
                deps: &[],
                tag: "a",
            })
            .unwrap();
        let gate = e
            .add_task(TaskSpec {
                resource: None,
                duration: SimDuration(5),
                deps: &[first],
                tag: "gap",
            })
            .unwrap();
        e.add_task(TaskSpec {
            resource: Some(p0),
            duration: SimDuration(5),
            deps: &[gate],
            tag: "b",
        })
        .unwrap();
        let tl = e.run();
        let stats = partition_stats(
            &tl,
            &ResourceKinds {
                links: vec![],
                partitions: vec![p0, p1],
            },
        );
        assert_eq!(stats[0].busy, SimDuration(15));
        assert_eq!(stats[0].idle, SimDuration(5));
        assert_eq!(stats[0].longest_gap, SimDuration(5));
        assert_eq!(stats[0].tasks, 2);
        assert_eq!(stats[1].busy, SimDuration::ZERO);
        assert_eq!(stats[1].idle_fraction, 1.0);
        assert_eq!(stats[1].longest_gap, SimDuration(20));
        assert_eq!(stats[1].tasks, 0);
        assert!((stats[0].idle_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn no_link_traffic_gives_zero_hidden_fraction() {
        let stats = OverlapStats {
            makespan: SimDuration(10),
            link_busy: SimDuration::ZERO,
            compute_busy: SimDuration(10),
            overlap: SimDuration::ZERO,
        };
        assert_eq!(stats.hidden_fraction(), 0.0);
    }

    #[test]
    fn gantt_renders_rows_for_named_resources() {
        let mut e = Engine::new();
        let link = e.add_resource();
        e.add_task(TaskSpec {
            resource: Some(link),
            duration: SimDuration::from_micros(10),
            deps: &[],
            tag: "h2d",
        })
        .unwrap();
        let tl = e.run();
        let mut names = BTreeMap::new();
        names.insert(link, "link".to_string());
        let chart = render_gantt(&tl, &names, 40, |r| r.tag);
        assert!(chart.contains("link |"));
        assert!(chart.contains('h'), "glyph from label: {chart}");
    }
}

/// Export a timeline as a Chrome trace-event JSON string (load it at
/// `chrome://tracing` or in Perfetto). One row ("thread") per resource;
/// control tasks (no resource) land on a synthetic row `-1`. Each task is
/// named by `label`.
pub fn chrome_trace<T, L: AsRef<str>>(
    timeline: &Timeline<T>,
    names: &BTreeMap<ResourceId, String>,
    label: impl Fn(&TaskRecord<T>) -> L,
) -> String {
    fn escape(s: &str) -> String {
        s.chars()
            .flat_map(|c| match c {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                c if c.is_control() => vec![' '],
                c => vec![c],
            })
            .collect()
    }
    let mut out = String::from("[\n");
    // Thread-name metadata records.
    for (res, name) in names {
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}},\n",
            res.0,
            escape(name)
        ));
    }
    let mut first = true;
    for rec in &timeline.records {
        let tid = rec.resource.map(|r| r.0 as i64).unwrap_or(-1);
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
            escape(label(rec).as_ref()),
            tid,
            rec.start.as_micros_f64(),
            rec.finish.since(rec.start).as_micros_f64(),
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod chrome_tests {
    use super::*;
    use crate::engine::{Engine, TaskSpec};

    #[test]
    fn chrome_trace_is_valid_shape() {
        let mut e = Engine::new();
        let link = e.add_resource();
        e.add_task(TaskSpec {
            resource: Some(link),
            duration: SimDuration::from_micros(10),
            deps: &[],
            tag: "h2d \"quoted\"",
        })
        .unwrap();
        e.add_task(TaskSpec {
            resource: None,
            duration: SimDuration::ZERO,
            deps: &[],
            tag: "event",
        })
        .unwrap();
        let tl = e.run();
        let mut names = BTreeMap::new();
        names.insert(link, "link".to_string());
        let json = chrome_trace(&tl, &names, |r| r.tag);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("thread_name"));
        assert!(json.contains("h2d \\\"quoted\\\""), "{json}");
        assert!(json.contains("\"tid\":-1"), "control task row");
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }
}
