//! Export timelines as Chrome traces (open in `chrome://tracing` or
//! https://ui.perfetto.dev): a streamed Cholesky run, **simulated and
//! natively executed**, one row per resource. Both exports come from the
//! same `Timeline` type — the native one is recorded by
//! `NativeConfig { trace: true }` — so the two files line up lane for lane
//! and the hidden fractions are computed by identical code.
//!
//! Run with: `cargo run --release --example export_trace`

use hstreams::{Context, NativeConfig};
use mic_apps::cholesky::{build, fill_inputs, CfConfig};
use micsim::PlatformConfig;

fn main() -> hstreams::Result<()> {
    let path = std::path::Path::new("results");
    std::fs::create_dir_all(path).expect("create results dir");

    // Paper-scale simulated run.
    let cfg = CfConfig {
        n: 4800,
        tiles_per_dim: 6,
    };
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(4)
        .build()?;
    build(&mut ctx, &cfg)?;
    let report = ctx.run_sim()?;

    let json = report.chrome_trace();
    let file = path.join("cholesky_trace.json");
    std::fs::write(&file, &json).expect("write trace");

    let sim_stats = report.overlap();
    println!(
        "simulated {} tasks in {} ({:.0}% of link traffic hidden under compute)",
        report.timeline.records.len(),
        report.makespan(),
        sim_stats.hidden_fraction() * 100.0
    );
    println!("wrote {} ({} bytes)", file.display(), json.len());

    // The same flow, natively executed at a host-tractable size, traced
    // into the identical timeline representation. Both executors run the
    // *same* recorded program, with the native link lane throttled to the
    // simulator's link bandwidth.
    let cfg = CfConfig {
        n: 1536,
        tiles_per_dim: 6,
    };
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(4)
        .build()?;
    let bufs = build(&mut ctx, &cfg)?;
    fill_inputs(&ctx, &cfg, &bufs, 7)?;
    let sim_small = ctx.run_sim()?.overlap();
    let native = ctx.run_native_with(&NativeConfig {
        trace: true,
        link_bandwidth: Some(ctx.config().link.bandwidth),
        ..NativeConfig::default()
    })?;
    let trace = native.trace.expect("trace requested");
    let native_json = trace.chrome_trace();
    let native_file = path.join("cholesky_trace_native.json");
    std::fs::write(&native_file, &native_json).expect("write native trace");

    let native_stats = trace.overlap();
    println!(
        "natively executed {} tasks in {:?} on this host",
        trace.timeline.records.len(),
        native.wall,
    );
    println!(
        "hidden fraction, same program (n={}): sim {:.0}% vs native {:.0}%",
        cfg.n,
        sim_small.hidden_fraction() * 100.0,
        native_stats.hidden_fraction() * 100.0
    );
    println!(
        "wrote {} ({} bytes)",
        native_file.display(),
        native_json.len()
    );
    println!("open them at chrome://tracing or https://ui.perfetto.dev");
    Ok(())
}
