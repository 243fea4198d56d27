//! Runtime overhead calibration: per-kernel-launch cost of the native
//! executor, plain and with each telemetry layer on.
//!
//! The program is pure launch overhead — no-op kernels, no transfers — at
//! the paper's 4-partition geometry, repeated with the paper's
//! warmup/discard protocol. Emits a machine-readable
//! `results/BENCH_native_runtime.json` with the per-launch figures of the
//! plain, traced and metered series and the run mode.
//!
//! The metered series (`NativeConfig::metrics` on) is gated: the run fails
//! (exit 1) if metrics add more than 0.5 us per launch — the instruments
//! are a handful of relaxed atomics plus two clock reads. `--quick` shrinks
//! the repetition budget for CI smoke runs and relaxes the budget to
//! 1.5 us — launch overhead is noisy at small sample counts, and a quick
//! number must never be mistaken for the calibrated one, so the JSON
//! records `"mode"` and the per-mode budget alongside the measurement.
//! Full mode (the default) keeps the 40-run protocol. One metrics-on run's
//! snapshot is embedded under `"metrics"` so the committed result carries
//! a real native telemetry export.

use hstreams::kernel::KernelDesc;
use hstreams::{Context, NativeConfig};
use micsim::compute::KernelProfile;
use micsim::stats::Repetitions;
use micsim::PlatformConfig;

const PARTITIONS: usize = 4;
const KERNELS_PER_STREAM: usize = 16;

fn noop_context() -> Context {
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(PARTITIONS)
        .build()
        .unwrap();
    for s_idx in 0..PARTITIONS {
        let s = ctx.stream(s_idx).unwrap();
        for k in 0..KERNELS_PER_STREAM {
            ctx.kernel(
                s,
                KernelDesc::simulated(
                    format!("noop{s_idx}_{k}"),
                    KernelProfile::streaming("noop", 1e9),
                    1.0,
                )
                .with_native(|_| {}),
            )
            .unwrap();
        }
    }
    ctx
}

/// Caller-visible seconds per `run_native_with` call (includes
/// validation). The *mean* is the headline figure — it reflects what a
/// caller actually pays. The *min* backs the overhead deltas: noise is
/// one-sided (interference only ever adds time), so subtracting two minima
/// estimates the marginal cost of tracing/metrics without the swing of two
/// noisy means (same rationale as `bench_sched`'s min-of-reps native
/// timings).
fn run_seconds(cfg: &NativeConfig, runs: Repetitions) -> micsim::stats::Summary {
    let ctx = noop_context();
    runs.measure(|| {
        let started = std::time::Instant::now();
        ctx.run_native_with(cfg).unwrap();
        started.elapsed().as_secs_f64()
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (mode, runs, metrics_budget_us) = if quick {
        (
            "quick",
            Repetitions {
                total: 10,
                warmup: 2,
            },
            1.5,
        )
    } else {
        (
            "full",
            Repetitions {
                total: 40,
                warmup: 8,
            },
            0.5,
        )
    };
    let kernels_per_run = PARTITIONS * KERNELS_PER_STREAM;
    let pooled = run_seconds(&NativeConfig::default(), runs);
    let traced = run_seconds(
        &NativeConfig {
            trace: true,
            ..NativeConfig::default()
        },
        runs,
    );
    let metered = run_seconds(
        &NativeConfig {
            metrics: true,
            ..NativeConfig::default()
        },
        runs,
    );
    let per_launch_us = |secs: f64| secs / kernels_per_run as f64 * 1e6;
    let pooled_us = per_launch_us(pooled.mean);
    let traced_us = per_launch_us(traced.mean);
    let metered_us = per_launch_us(metered.mean);
    let trace_overhead_us = per_launch_us(traced.min) - per_launch_us(pooled.min);
    let metrics_overhead_us = per_launch_us(metered.min) - per_launch_us(pooled.min);
    let pass = metrics_overhead_us <= metrics_budget_us;

    // One instrumented run whose snapshot ships inside the result file:
    // real launch-overhead/kernel-time histograms from this machine.
    let metrics_snapshot = noop_context()
        .run_native_with(&NativeConfig {
            metrics: true,
            ..NativeConfig::default()
        })
        .ok()
        .and_then(|report| report.metrics);

    println!("native launch overhead ({mode} mode), {PARTITIONS} partitions, {kernels_per_run} no-op kernels/run, {} runs ({} warmup):", runs.total, runs.warmup);
    println!("  persistent pool : {pooled_us:>9.3} us/launch");
    println!(
        "  pool + tracing  : {traced_us:>9.3} us/launch  (+{trace_overhead_us:.3} us trace cost)"
    );
    println!(
        "  pool + metrics  : {metered_us:>9.3} us/launch  (+{metrics_overhead_us:.3} us, budget {metrics_budget_us} us: {})",
        if pass { "PASS" } else { "FAIL" }
    );

    let mut json = mic_bench::schema::BenchJson::new("native_runtime_launch_overhead", mode);
    json.u64("partitions", PARTITIONS as u64)
        .u64("streams", PARTITIONS as u64)
        .u64("kernels_per_run", kernels_per_run as u64)
        .u64("runs", runs.total as u64)
        .u64("warmup", runs.warmup as u64)
        .f64("pooled_per_launch_us", pooled_us, 4)
        .f64("traced_per_launch_us", traced_us, 4)
        .f64("trace_overhead_per_launch_us", trace_overhead_us, 4)
        .f64("metrics_per_launch_us", metered_us, 4)
        .f64("metrics_overhead_per_launch_us", metrics_overhead_us, 4)
        .f64("metrics_overhead_budget_us", metrics_budget_us, 1)
        .bool("pass", pass);
    if let Some(snap) = &metrics_snapshot {
        json.metrics(snap);
    }
    json.write("BENCH_native_runtime.json");

    if !pass {
        std::process::exit(1);
    }
}
