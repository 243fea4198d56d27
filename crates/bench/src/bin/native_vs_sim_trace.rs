//! Sim-vs-native timeline comparator (extension): run the same streamed MM
//! program through both executors, capture both as engine `Timeline`s (the
//! native one via `NativeConfig { trace: true }`), and compare the overlap
//! statistics the paper's figures are built from. Writes each native
//! timeline as a Chrome trace under `results/native_trace_*.json` and the
//! overlap deltas as `results/native_vs_sim_trace.csv`.
//!
//! Also asserts **telemetry parity**: with metrics enabled, the sim and
//! native executors must export the identical instrument catalog and
//! labelled series set for the same program (the values differ — one is
//! modelled, one measured — but the shape may not), and on each executor
//! every end-of-run gauge must equal the quantity its own timeline gives
//! (`overlap()`, `partition_stats()`, the link lanes' span sum). Any
//! disagreement exits non-zero.
//!
//! Pass `--quick` for a small single-configuration run (used by
//! `scripts/verify.sh`).

use hstreams::metrics::Labels;
use hstreams::{Context, MetricsSnapshot, NativeConfig};
use mic_apps::mm::{self, MmConfig};
use mic_bench::{results_dir, Figure, Series};
use micsim::time::SimDuration;
use micsim::trace::{overlap_stats, partition_stats, ResourceKinds};
use micsim::{PlatformConfig, Timeline};

struct Row {
    partitions: usize,
    sim_hidden: f64,
    native_hidden: f64,
    sim_link_busy_ms: f64,
    native_link_busy_ms: f64,
}

/// Every gauge of `snap` that is not the quantity `timeline` gives for it
/// (single-device contexts: `kinds.partitions` is the host, then `p0..`).
fn gauge_disagreements(
    who: &str,
    snap: &MetricsSnapshot,
    timeline: &Timeline,
    kinds: &ResourceKinds,
) -> Vec<String> {
    let mut expected = vec![(
        "hidden_transfer_fraction",
        Labels::GLOBAL,
        overlap_stats(timeline, kinds).hidden_fraction(),
    )];
    for (p, stats) in partition_stats(timeline, kinds).iter().skip(1).enumerate() {
        let labels = Labels::partition(0, p as u16);
        expected.push(("partition_busy_us", labels, stats.busy.as_micros_f64()));
        expected.push(("partition_idle_us", labels, stats.idle.as_micros_f64()));
    }
    let link_busy: SimDuration = timeline
        .records
        .iter()
        .filter(|r| r.resource.is_some_and(|res| kinds.links.contains(&res)))
        .map(|r| r.finish - r.start)
        .sum();
    expected.push(("link_busy_us", Labels::device(0), link_busy.as_micros_f64()));
    expected
        .into_iter()
        .filter(|&(name, labels, want)| snap.gauge(name, labels) != want)
        .map(|(name, labels, want)| {
            format!(
                "{who}: {name}{labels} = {} but its timeline says {want}",
                snap.gauge(name, labels)
            )
        })
        .collect()
}

fn compare(n: usize, tiles_per_dim: usize, partitions: usize) -> Row {
    let cfg = MmConfig { n, tiles_per_dim };
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(partitions)
        .metrics(true)
        .build()
        .unwrap();
    let bufs = mm::build(&mut ctx, &cfg).unwrap();
    mm::fill_inputs(&ctx, &cfg, &bufs, 7).unwrap();

    let sim = ctx.run_sim().unwrap();
    let sim_stats = sim.overlap();

    // Throttle the native link lane to the simulator's modelled link
    // bandwidth so the two executors price transfers comparably.
    let native_cfg = NativeConfig {
        trace: true,
        link_bandwidth: Some(ctx.config().link.bandwidth),
        ..NativeConfig::default()
    };
    let report = ctx.run_native_with(&native_cfg).unwrap();
    let trace = report.trace.expect("trace requested");
    let native_stats = trace.overlap();

    // Agreement check: both timelines must name the same kernels — the
    // executors ran the same program, so the label sets must coincide.
    let kernel_labels = |records: &[micsim::engine::TaskRecord]| {
        let mut labels: Vec<String> = records
            .iter()
            .filter(|r| r.label.contains("gemm"))
            .map(|r| r.label.clone())
            .collect();
        labels.sort();
        labels.dedup();
        labels
    };
    let sim_kernels = kernel_labels(&sim.timeline.records);
    let native_kernels = kernel_labels(&trace.timeline.records);
    assert_eq!(
        sim_kernels, native_kernels,
        "sim and native timelines disagree on the kernel set"
    );

    // Telemetry parity check: both executors must export the identical
    // instrument catalog AND the identical labelled series set — the
    // exported shape is a function of the geometry, not of which executor
    // ran, so any drift here is a bug in one executor's instrumentation.
    let sim_metrics = sim.metrics.as_ref().expect("sim metrics enabled");
    let native_metrics = report.metrics.as_ref().expect("native metrics enabled");
    assert_eq!(
        sim_metrics.instrument_names(),
        native_metrics.instrument_names(),
        "sim and native executors disagree on the instrument catalog"
    );
    assert_eq!(
        sim_metrics.series_names(),
        native_metrics.series_names(),
        "sim and native executors disagree on the labelled series set"
    );
    let mut disagreements = gauge_disagreements("sim", sim_metrics, &sim.timeline, &sim.kinds);
    disagreements.extend(gauge_disagreements(
        "native",
        native_metrics,
        &trace.timeline,
        &trace.kinds,
    ));
    if !disagreements.is_empty() {
        for line in &disagreements {
            eprintln!("p={partitions}: {line}");
        }
        eprintln!("FAIL: a metrics gauge disagrees with its own run's timeline");
        std::process::exit(1);
    }
    println!(
        "p={partitions}: metric parity OK ({} instruments, {} series on both executors; \
         every gauge equals its timeline quantity)",
        sim_metrics.instrument_names().len(),
        sim_metrics.series_names().len()
    );

    // Export the native timeline for chrome://tracing / Perfetto.
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("native_trace_p{partitions}.json"));
    std::fs::write(&path, trace.chrome_trace()).expect("write chrome trace");
    println!(
        "p={partitions}: {} native records, {} sim records, wrote {}",
        trace.timeline.records.len(),
        sim.timeline.records.len(),
        path.display()
    );
    println!(
        "p={partitions}: native launch overhead mean {:.2} us (max {:.2} us), \
         copy busy {:?}, copy queue hwm {}, pool jobs {}",
        trace.counters.launch_overhead.mean_ns() / 1e3,
        trace.counters.launch_overhead.max_ns as f64 / 1e3,
        trace
            .counters
            .copy_busy_fraction
            .iter()
            .map(|(n, f)| format!("{n}={:.0}%", f * 100.0))
            .collect::<Vec<_>>(),
        trace.counters.copy_queue_depth_hwm,
        trace.counters.pool_jobs,
    );

    Row {
        partitions,
        sim_hidden: sim_stats.hidden_fraction(),
        native_hidden: native_stats.hidden_fraction(),
        sim_link_busy_ms: sim_stats.link_busy.as_millis_f64(),
        native_link_busy_ms: native_stats.link_busy.as_millis_f64(),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, tiles, parts): (usize, usize, Vec<usize>) = if quick {
        (128, 2, vec![2])
    } else {
        (384, 4, vec![1, 2, 4])
    };

    let mut fig = Figure::new(
        "native_vs_sim_trace",
        format!("MM n={n} T={tiles}x{tiles}: overlap, simulated vs measured"),
        "partitions",
        "value",
    );
    let mut sim_h = Series::new("sim hidden frac");
    let mut nat_h = Series::new("native hidden frac");
    let mut delta = Series::new("delta (native-sim)");
    let mut sim_l = Series::new("sim link busy ms");
    let mut nat_l = Series::new("native link busy ms");
    for &p in &parts {
        let row = compare(n, tiles, p);
        sim_h.push(row.partitions, row.sim_hidden);
        nat_h.push(row.partitions, row.native_hidden);
        delta.push(row.partitions, row.native_hidden - row.sim_hidden);
        sim_l.push(row.partitions, row.sim_link_busy_ms);
        nat_l.push(row.partitions, row.native_link_busy_ms);
    }
    fig.add(sim_h);
    fig.add(nat_h);
    fig.add(delta);
    fig.add(sim_l);
    fig.add(nat_l);
    fig.emit();
    println!(
        "Both timelines come from the same Timeline type, so the overlap \
         numbers above are computed by the identical overlap_stats code — \
         the delta column is model error plus host noise, nothing else."
    );
}
