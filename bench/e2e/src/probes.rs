//! Standalone probes of single layers, and the per-layer metrics the two
//! native workloads share.
//!
//! Probes follow the microbenchmark-first method of "An Empirical Study of
//! Intel Xeon Phi" (arXiv:1310.5842): measure the host's own ceilings in
//! the same run, then state each layer against them.

use std::time::Instant;

use crate::adapter::{self, Native, RunLayers, RunStats};
use crate::harness::{push, span_p50_us};
use crate::json::Metric;
use crate::span::Tracer;
use crate::stats;

/// Single-thread multiply-add peak, GFLOP/s: 64 independent `f32` chains
/// (enough for the compiler to fill every vector lane and hide the add
/// latency), best of five.
pub fn peak_gflops() -> f64 {
    const LANES: usize = 64;
    const STEPS: usize = 200_000;
    let mut best = 0.0f64;
    for _ in 0..5 {
        let mut acc = [1.0f32; LANES];
        let m = std::hint::black_box(0.999_999_f32);
        let a = std::hint::black_box(1.0e-6_f32);
        let t0 = Instant::now();
        for _ in 0..STEPS {
            for x in &mut acc {
                *x = *x * m + a;
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(acc);
        best = best.max((2 * LANES * STEPS) as f64 / secs / 1e9);
    }
    best
}

/// What a native workload keeps for its per-layer metrics: the size of its
/// program, the runtime's own timeline of every traced run, and what the
/// probes found that those are stated against.
#[derive(Default)]
pub struct NativeLayers {
    actions: usize,
    bytes: u64,
    runs: Vec<RunLayers>,
    analyze_us_p50: f64,
    peak_gflops: f64,
}

impl NativeLayers {
    /// Keep what a run of `native`'s recorded program reported.
    pub fn note(&mut self, native: &Native, stats: RunStats) {
        self.actions = native.action_count();
        self.bytes = stats.bytes;
        self.runs.extend(stats.layers);
    }

    /// The standalone probes. `native` holds the workload's recorded program.
    pub fn probe(&mut self, native: &Native, out: &mut Vec<Metric>) {
        (self.analyze_us_p50, self.peak_gflops) = native_probes(native, out);
    }
}

/// Returns `(analyze µs p50, host peak GFLOP/s)`.
fn native_probes(native: &Native, out: &mut Vec<Metric>) -> (f64, f64) {
    let analyze: Vec<f64> = (0..64)
        .map(|_| {
            let t0 = Instant::now();
            assert!(native.analyze(), "the workload's program is analyzer-clean");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let analyze_us_p50 = stats::median(&analyze);
    push(out, "hstreams.check.analyze_us_p50", analyze_us_p50, "us");
    push(
        out,
        "hstreams.sim.hidden_frac",
        native.sim_hidden_frac(),
        "ratio",
    );

    // 512 transfers of 512 B: per-transfer hand-off cost, bytes negligible.
    let small: Vec<f64> = adapter::probe_h2d(512, 128, 16)
        .iter()
        .map(|(us, _)| us / 512.0)
        .collect();
    push(
        out,
        "hstreams.native.small_xfer_us_p50",
        stats::median(&small),
        "us",
    );

    // One 64 MiB H2D through a context. The host reports a 260 MiB LLC, so
    // this is a cache-resident copy rate, not DRAM bandwidth; no triad
    // ratio is derived from it.
    let big = adapter::probe_h2d(1, 16 << 20, 5);
    let memcpy_gbs = big
        .iter()
        .map(|&(us, bytes)| bytes as f64 / us / 1e3)
        .fold(0.0, f64::max);
    push(out, "host.memcpy_gbs", memcpy_gbs, "GB/s");

    // The paper's streamed hBench, 2^20 elements in 16 tiles: what the copy
    // engine sustains when fed by the runtime.
    let streamed = adapter::probe_streamed_copy(1 << 20, 16, 8);
    let copy_gbs = stats::median(
        &streamed
            .iter()
            .map(|&(us, bytes)| bytes as f64 / us / 1e3)
            .collect::<Vec<_>>(),
    );
    push(out, "hstreams.native.copy_gbs", copy_gbs, "GB/s");
    push(
        out,
        "hstreams.native.copy_peak_frac",
        copy_gbs / memcpy_gbs,
        "ratio",
    );

    let peak = peak_gflops();
    push(out, "host.peak_gflops", peak, "GFLOP/s");
    (analyze_us_p50, peak)
}

impl NativeLayers {
    /// Per-layer metrics of the traced window: the benchmark's own spans,
    /// and the runtime's timeline of each traced run.
    pub fn report(&self, tracer: &Tracer, flops_per_op: f64, out: &mut Vec<Metric>) {
        let (layers, actions) = (&self.runs, self.actions);
        push(out, "hstreams.actions_per_op", actions as f64, "count");
        push(out, "hstreams.bytes_per_op", self.bytes as f64, "B");
        let run_us = span_p50_us(tracer, "hstreams.native.run");
        push(
            out,
            "apps.record_us_p50",
            span_p50_us(tracer, "apps.record"),
            "us",
        );
        push(out, "hstreams.native.run_us_p50", run_us, "us");

        let per_run = |f: fn(&RunLayers) -> f64| -> Vec<f64> { layers.iter().map(f).collect() };
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let kernel_us = mean(&per_run(|l| l.kernel_us));
        let copy_us = mean(&per_run(|l| l.copy_us));
        let busy_us = stats::median(&per_run(|l| l.busy_union_us));
        push(
            out,
            "hstreams.native.launch_overhead_us_p50",
            stats::median(&per_run(|l| l.launch_overhead_us)),
            "us",
        );
        push(
            out,
            "hstreams.native.queue_wait_us_p50",
            stats::median(&per_run(|l| l.queue_wait_us)),
            "us",
        );
        push(
            out,
            "hstreams.native.overhead_us_per_action",
            (run_us - self.analyze_us_p50 - busy_us) / actions.max(1) as f64,
            "us",
        );
        push(out, "hstreams.native.kernel_us_per_op", kernel_us, "us");
        let gflops = flops_per_op / kernel_us / 1e3;
        push(out, "apps.kernel_gflops", gflops, "GFLOP/s");
        push(
            out,
            "apps.kernel_peak_frac",
            gflops / self.peak_gflops,
            "ratio",
        );
        push(out, "hstreams.native.copy_us_per_op", copy_us, "us");
        // R of "Streaming Applications on Heterogeneous Platforms"
        // (arXiv:1608.03044): the share of transfer in transfer + compute.
        push(
            out,
            "apps.transfer_frac_R",
            copy_us / (copy_us + kernel_us),
            "ratio",
        );
        push(
            out,
            "hstreams.native.partition_idle_frac",
            mean(&per_run(|l| l.partition_idle_frac)),
            "ratio",
        );
        push(
            out,
            "hstreams.readback_us_p50",
            span_p50_us(tracer, "hstreams.readback"),
            "us",
        );
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_probe_reports_a_positive_rate() {
        assert!(super::peak_gflops() > 0.01);
    }
}
