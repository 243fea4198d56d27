//! Streamed tiled matrix multiplication on the **native** executor: the
//! kernels really run on partitioned host thread pools, the "PCIe link" is
//! a serialized link lane, and the result is validated against a serial
//! reference.
//!
//! Run with: `cargo run --release --example tiled_matmul`

use hstreams::{Context, NativeConfig};
use mic_apps::mm::{self, MmConfig};
use mic_apps::util::max_rel_diff;
use micsim::PlatformConfig;
use std::time::Instant;

/// Throttle the link lane to PCIe-gen2-ish speed so the link is a real
/// resource, as on the original platform (unthrottled host memcpy would be
/// too fast to matter).
const LINK_BW: f64 = 50.0e6;

fn run(n: usize, tiles_per_dim: usize, partitions: usize) -> (f64, f64) {
    let cfg = MmConfig { n, tiles_per_dim };
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(partitions)
        .build()
        .expect("context");
    let bufs = mm::build(&mut ctx, &cfg).expect("build");
    let (a, b) = mm::fill_inputs(&ctx, &cfg, &bufs, 42).expect("inputs");

    let t0 = Instant::now();
    let report = ctx
        .run_native_with(&NativeConfig {
            link_bandwidth: Some(LINK_BW),
            ..NativeConfig::default()
        })
        .expect("native run");
    let wall = t0.elapsed().as_secs_f64();

    let c = mm::collect_result(&ctx, &cfg, &bufs).expect("collect");
    let want = mm::reference(&a, &b);
    let err = max_rel_diff(&c.data, &want.data, 1.0);
    assert!(err < 5e-3, "validation failed: max rel err {err}");
    println!(
        "  n={n} T={:>3} P={partitions}: {:7.1} ms wall, {} actions, {} B moved, max rel err {err:.2e}",
        tiles_per_dim * tiles_per_dim,
        wall * 1e3,
        report.actions_executed,
        report.bytes_transferred,
    );
    (wall, cfg.flops())
}

fn main() {
    let n = 512;
    println!("streamed MM on the native executor (n = {n}), validated vs serial:");
    let (serial_wall, _) = run(n, 1, 1);
    let (streamed_wall, flops) = run(n, 4, 4);
    println!(
        "\nnon-streamed: {:.1} ms | streamed: {:.1} ms | speedup {:.2}x | {:.2} host GFLOPS",
        serial_wall * 1e3,
        streamed_wall * 1e3,
        serial_wall / streamed_wall,
        flops / streamed_wall / 1e9
    );
    println!(
        "(the link lane is throttled to {:.0} MB/s to stand in for PCIe; \
         the streamed version wins by overlapping those transfers with \
         kernels in other streams — the paper's temporal sharing, for real)",
        LINK_BW / 1e6
    );
}
