//! Sim-vs-native timeline comparator (extension): run the same streamed MM
//! program through both executors, capture both as engine `Timeline`s (the
//! native one via `NativeConfig { trace: true }`), and compare the overlap
//! statistics the paper's figures are built from. Writes each native
//! timeline as a Chrome trace under `results/native_trace_*.json` and the
//! overlap deltas as `results/native_vs_sim_trace.csv`.
//!
//! The executors' kernel sets, metric catalogs and gauge-vs-timeline
//! values are gated by `tests/metrics_parity.rs`; this binary only reports.

use hstreams::{Context, NativeConfig};
use mic_apps::mm::{self, MmConfig};
use mic_bench::{results_dir, Figure, Series};
use micsim::PlatformConfig;

struct Row {
    partitions: usize,
    sim_hidden: f64,
    native_hidden: f64,
    sim_link_busy_ms: f64,
    native_link_busy_ms: f64,
}

fn compare(n: usize, tiles_per_dim: usize, partitions: usize) -> Row {
    let cfg = MmConfig { n, tiles_per_dim };
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(partitions)
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
    let (n, tiles) = (384, 4);

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
    for p in [1, 2, 4] {
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
