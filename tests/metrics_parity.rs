//! Telemetry parity and determinism across the executors.
//!
//! * **Parity**: for every shipped app, the sim and native executors must
//!   export the identical instrument catalog and the identical labelled
//!   series set — the exported shape is a function of the run geometry,
//!   never of which executor ran or what the program did. This is the
//!   differential check the metrics layer was designed around: a counter
//!   added to one executor but not the other fails here, not in a
//!   dashboard three PRs later.
//! * **Value parity**: the end-of-run gauges are *timeline quantities*. On
//!   both executors `hidden_transfer_fraction`, `partition_busy_us`,
//!   `partition_idle_us` and `link_busy_us` must equal what the same run's
//!   `overlap()` / `partition_stats()` / link-lane spans say, exactly — a
//!   gauge estimated some other way (from histogram sums, say, which
//!   saturate the hidden fraction at 1.0 for any P > 1) fails here.
//! * **Same work**: both executors' timelines name the same set of
//!   kernels — they ran the same program.
//! * **Determinism**: the sim executor prices instruments off simulated
//!   time, so two identical runs must export **byte-identical** JSONL and
//!   OpenMetrics text (no wall clock, no RNG, no iteration-order leaks).

use mic_streams::apps::tunable::{
    Tunable, TunableCf, TunableHbench, TunableKmeans, TunableMm, TunableNn, TunablePartitionMicro,
};
use mic_streams::hstreams::context::Context;
use mic_streams::hstreams::metrics::Labels;
use mic_streams::hstreams::{MetricsSnapshot, NativeConfig, TaskTag};
use mic_streams::micsim::engine::{ResourceId, TaskRecord, Timeline};
use mic_streams::micsim::time::SimDuration;
use mic_streams::micsim::trace::{overlap_stats, partition_stats, ResourceKinds};
use mic_streams::micsim::PlatformConfig;
use std::collections::BTreeMap;

const PARTITIONS: usize = 2;
const TASKS: usize = 4;

/// The six apps at small native-runnable problem sizes (fill seeds set so
/// the native kernels have real inputs), paired with a feasible task count.
fn apps() -> Vec<Box<dyn Tunable>> {
    vec![
        Box::new(TunableHbench::new(1 << 10, 2, Some(7))),
        Box::new(TunableMm::new(32, Some(7))),
        Box::new(TunableCf::new(32, Some(7))),
        Box::new(TunableNn::new(1 << 10, Some(7))),
        Box::new(TunableKmeans::new(1 << 10, 8, 2, Some(7))),
        Box::new(TunablePartitionMicro::new(1 << 10, 2)),
    ]
}

/// A native run that prices its metrics.
const METERED: NativeConfig = NativeConfig {
    max_threads_per_partition: None,
    link_bandwidth: None,
    trace: false,
    metrics: true,
};

fn record(app: &mut dyn Tunable) -> Context {
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(PARTITIONS)
        .build()
        .unwrap();
    assert!(
        app.feasible(TASKS),
        "{} must accept T={TASKS} for this test's geometry",
        app.name()
    );
    app.record(&mut ctx, TASKS).unwrap();
    ctx
}

fn shape(snap: &MetricsSnapshot) -> (Vec<String>, Vec<String>) {
    (snap.instrument_names(), snap.series_names())
}

#[test]
fn every_app_exports_the_same_instrument_set_on_both_executors() {
    let mut expected_catalog: Option<Vec<String>> = None;
    for mut app in apps() {
        let ctx = record(app.as_mut());
        let sim = ctx.run_sim().unwrap();
        let native = ctx.run_native_with(&METERED).unwrap();
        let sim_snap = sim.metrics();
        let native_snap = native.metrics.expect("native metrics requested");
        assert_eq!(
            shape(&sim_snap),
            shape(&native_snap),
            "{}: executors disagree on the exported metric shape",
            app.name()
        );
        // The catalog is also app-independent: same geometry, same names.
        let names = sim_snap.instrument_names();
        match &expected_catalog {
            None => expected_catalog = Some(names),
            Some(expected) => assert_eq!(
                expected,
                &names,
                "{}: instrument catalog differs from the other apps'",
                app.name()
            ),
        }
    }
    let catalog = expected_catalog.unwrap();
    for required in [
        "launch_overhead_us",
        "kernel_time_us",
        "transfer_time_us",
        "queue_wait_us",
        "bytes_transferred",
        "actions_executed",
        "makespan_us",
        "hidden_transfer_fraction",
    ] {
        assert!(
            catalog.iter().any(|n| n == required),
            "instrument catalog lost {required}: {catalog:?}"
        );
    }
}

#[test]
fn sim_metrics_exports_are_byte_identical_across_runs() {
    let export = |app: &mut dyn Tunable| {
        let ctx = record(app);
        let snap = ctx.run_sim().unwrap().metrics();
        (snap.to_jsonl(), snap.to_openmetrics())
    };
    // Two runs from two independently built contexts — nothing shared, so
    // any divergence is nondeterminism inside the executor or exporters.
    let (jsonl_a, om_a) = export(&mut TunableMm::new(32, Some(7)));
    let (jsonl_b, om_b) = export(&mut TunableMm::new(32, Some(7)));
    assert_eq!(jsonl_a, jsonl_b, "sim JSONL export must be deterministic");
    assert_eq!(om_a, om_b, "sim OpenMetrics export must be deterministic");
}

#[test]
fn sim_metrics_exports_match_the_pinned_text() {
    // One run's exact exports, pinned: how a snapshot is built may change;
    // the series it holds, their order and every priced value may not.
    let ctx = record(&mut TunableMm::new(32, Some(7)));
    let snap = ctx.run_sim().unwrap().metrics();
    assert_eq!(
        snap.to_jsonl(),
        include_str!("golden/metrics_mm_p2_t4.jsonl"),
        "MM (P={PARTITIONS}, T={TASKS}): JSONL export moved"
    );
    assert_eq!(
        snap.to_openmetrics(),
        include_str!("golden/metrics_mm_p2_t4.openmetrics"),
        "MM (P={PARTITIONS}, T={TASKS}): OpenMetrics export moved"
    );
}

/// `(device, index)` of a lane named `mic{device}.{kind}{index}`.
fn lane_coords(name: &str, kind: &str) -> Option<(u16, u16)> {
    let (dev, lane) = name.strip_prefix("mic")?.split_once('.')?;
    Some((dev.parse().ok()?, lane.strip_prefix(kind)?.parse().ok()?))
}

/// The snapshot's gauges against the timeline they must be derived from.
fn assert_gauges_are_timeline_quantities(
    who: &str,
    snap: &MetricsSnapshot,
    timeline: &Timeline<TaskTag>,
    kinds: &ResourceKinds,
    names: &BTreeMap<ResourceId, String>,
) {
    assert_eq!(
        snap.gauge("hidden_transfer_fraction", Labels::GLOBAL),
        overlap_stats(timeline, kinds).hidden_fraction(),
        "{who}: hidden_transfer_fraction vs overlap().hidden_fraction()"
    );
    let mut partitions = 0;
    for stats in partition_stats(timeline, kinds) {
        // The host lane is a partition to the timeline tools but has no
        // per-partition series.
        let Some((d, p)) = lane_coords(&names[&stats.resource], "p") else {
            continue;
        };
        partitions += 1;
        let labels = Labels::partition(d, p);
        assert_eq!(
            snap.gauge("partition_busy_us", labels),
            stats.busy.as_micros_f64(),
            "{who}: partition_busy_us{labels} vs partition_stats()"
        );
        assert_eq!(
            snap.gauge("partition_idle_us", labels),
            stats.idle.as_micros_f64(),
            "{who}: partition_idle_us{labels} vs partition_stats()"
        );
    }
    assert_eq!(partitions, PARTITIONS, "{who}: partition lanes checked");
    let mut link_busy: BTreeMap<u16, SimDuration> = BTreeMap::new();
    for &lane in &kinds.links {
        let (d, _) = lane_coords(&names[&lane], "link").expect("link lane name");
        *link_busy.entry(d).or_default() += timeline
            .records
            .iter()
            .filter(|r| r.resource == Some(lane))
            .map(|r| r.finish - r.start)
            .sum::<SimDuration>();
    }
    assert!(!link_busy.is_empty(), "{who}: link lanes checked");
    for (d, busy) in link_busy {
        assert_eq!(
            snap.gauge("link_busy_us", Labels::device(d)),
            busy.as_micros_f64(),
            "{who}: link_busy_us{{device={d}}} vs the link lanes' span sum"
        );
    }
}

/// The sorted, deduplicated labels (rendered by `label`) of every record on
/// a compute lane.
fn kernel_labels(
    timeline: &Timeline<TaskTag>,
    kinds: &ResourceKinds,
    label: impl Fn(&TaskRecord<TaskTag>) -> String,
) -> Vec<String> {
    let mut labels: Vec<String> = timeline
        .records
        .iter()
        .filter(|r| {
            r.resource
                .is_some_and(|res| kinds.partitions.contains(&res))
        })
        .map(label)
        .collect();
    labels.sort();
    labels.dedup();
    labels
}

#[test]
fn every_gauge_equals_its_timeline_quantity_on_both_executors() {
    for mut app in apps() {
        let ctx = record(app.as_mut());
        let sim = ctx.run_sim().unwrap();
        assert_gauges_are_timeline_quantities(
            &format!("{} (sim)", app.name()),
            &sim.metrics(),
            &sim.timeline,
            &sim.kinds,
            &sim.names(),
        );
        let native = ctx
            .run_native_with(&NativeConfig {
                trace: true,
                ..METERED
            })
            .unwrap();
        let trace = native.trace.expect("trace requested");
        assert_gauges_are_timeline_quantities(
            &format!("{} (native)", app.name()),
            native.metrics.as_ref().expect("native metrics requested"),
            &trace.timeline,
            &trace.kinds,
            &trace.names(),
        );
        let sim_kernels = kernel_labels(&sim.timeline, &sim.kinds, |r| sim.label(r));
        assert!(!sim_kernels.is_empty(), "{}: no kernel records", app.name());
        assert_eq!(
            sim_kernels,
            kernel_labels(&trace.timeline, &trace.kinds, |r| trace.label(r)),
            "{}: sim and native timelines disagree on the kernel set",
            app.name()
        );
    }
}
