//! The measurement loop shared by the four workloads: set-up batches,
//! warm-up, the closed-loop window, the choice of its quiet pool, and the
//! metrics every workload reports.

use std::time::{Duration, Instant};

use crate::json::Metric;
use crate::span::Tracer;
use crate::{alloc, pin, span, stats};

/// What one closed-loop step did. A step is one op for the three
/// single-op workloads and one arrival cycle (4–12 ops) for `serve_mixed`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepOut {
    /// Ops whose outputs were checked in this step.
    pub attempted: u64,
    /// Of those, ops whose outputs were wrong (or that errored).
    pub failed: u64,
    /// Seconds inside the step's timed span.
    pub busy_s: f64,
}

/// Per-step context handed to a workload.
pub struct Env<'a> {
    pub tracer: &'a mut Tracer,
    /// Run the runtime with its own tracing and metrics on, and keep what
    /// it reports. Set only inside the traced window.
    pub traced: bool,
    /// Self-test: damage one caller-held output before checking it.
    pub corrupt: bool,
    /// The step pushes one latency (ms) per op.
    pub latencies_ms: &'a mut Vec<f32>,
}

pub trait Workload: Sized {
    const NAME: &'static str;

    /// Consecutive steps whose median is one point of `host.slice_spread`:
    /// the same mix of ops in every slice (`serve_mixed`: one pass over its
    /// deck of arrival cycles).
    const STEPS_PER_SLICE: usize = 20;

    /// One complete set-up, ending with the first verified op.
    ///
    /// # Errors
    /// A description of what failed to build or verify.
    fn setup(seed: u64, tracer: &mut Tracer) -> Result<Self, String>;

    fn step(&mut self, env: &mut Env<'_>) -> StepOut;

    /// Standalone probes of single layers, run between the reference and
    /// the traced window.
    fn probes(&mut self, _out: &mut Vec<Metric>) {}

    /// Per-layer metrics from what the traced window recorded.
    fn layer_metrics(&mut self, tracer: &Tracer, out: &mut Vec<Metric>);
}

/// The op that ends a set-up: one untraced step whose latency is not a
/// sample.
pub fn first_op<W: Workload>(w: &mut W, tracer: &mut Tracer) -> StepOut {
    w.step(&mut Env {
        tracer,
        traced: false,
        corrupt: false,
        latencies_ms: &mut Vec::new(),
    })
}

/// Bit-for-bit equality: `==` on floats would accept `0.0 == -0.0`.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What one step left behind.
#[derive(Clone, Copy, Debug)]
pub struct StepRecord {
    /// The slower of the two reference-loop readings around the step, µs.
    pub level_us: f32,
    /// Wall time of the step ÷ CPU time the process got during it: above 1
    /// when the hypervisor ran someone else on this vCPU meanwhile.
    pub stretch: f32,
    /// `latencies_ms.len()` after the step.
    lat_end: u32,
    ops: u32,
    busy_s: f32,
}

impl StepRecord {
    /// How slow the host was while the step ran: what the reference loop
    /// read, stretched by the share of the step that was stolen. Both come
    /// from instruments that do not depend on what the step did.
    pub fn disturbance(&self) -> f32 {
        self.level_us * self.stretch
    }
}

/// What the measured steps of a run left behind, window after window.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    pub steps: Vec<StepRecord>,
    /// One per op, in step order. `f32` and reserved once: the benchmark's
    /// own bookkeeping is 4 B per op inside `peak_rss_mb`, and never a
    /// reallocation.
    pub latencies_ms: Vec<f32>,
    pub attempted: u64,
    pub failed: u64,
}

/// The three statistics of a set of steps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpStats {
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub ops_per_s: f64,
    /// Ops the percentiles were taken over.
    pub ops: usize,
}

/// By what to multiply a time measured while the reference loop read
/// `level_us` to get what it would have been at `floor_us`, the loop's
/// fastest reading of the run. The ops slow down with the loop, if not in
/// exact proportion (README: at 1.06x the loop's best the four workloads'
/// medians are at 1.03-1.07x theirs, at 1.4x at 1.28-1.57x); inside the
/// quiet pool of an ordinary run the factor is above 0.93.
fn at_best_speed(floor_us: f32, level_us: f32) -> f64 {
    f64::from((floor_us / level_us).min(1.0))
}

/// The quiet pool holds at least this many ops, so that its 95th percentile
/// has 25 samples beyond it.
const MIN_POOL_OPS: u64 = 500;

impl Samples {
    /// Room for a window of `seconds`: reserved pages cost no memory until
    /// they are written.
    pub fn reserve(seconds: u64) -> Samples {
        let seconds = seconds as usize;
        Samples {
            steps: Vec::with_capacity(seconds << 13),
            latencies_ms: Vec::with_capacity(seconds << 16),
            ..Samples::default()
        }
    }

    /// Close the step whose op latencies were just pushed onto
    /// `latencies_ms`.
    fn close_step(&mut self, level_us: f64, stretch: f64, out: StepOut) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.steps.push(StepRecord {
            level_us: level_us as f32,
            stretch: stretch as f32,
            lat_end: self.latencies_ms.len() as u32,
            ops: out.attempted as u32,
            busy_s: out.busy_s as f32,
        });
    }

    fn latencies_of(&self, step: usize) -> &[f32] {
        let from = if step == 0 {
            0
        } else {
            self.steps[step - 1].lat_end as usize
        };
        &self.latencies_ms[from..self.steps[step].lat_end as usize]
    }

    /// The fastest reading of the reference loop around any step, µs: the
    /// host at its best during this run.
    pub fn floor_us(&self) -> f32 {
        let levels = self.steps.iter().map(|s| s.level_us);
        levels.fold(f32::INFINITY, f32::min)
    }

    /// Median and 95th percentile over the ops of `steps` pooled, and their
    /// ops ÷ time inside timed spans, every time first multiplied by its
    /// step's `speed`.
    fn stats_of(
        &self,
        steps: impl IntoIterator<Item = usize>,
        speed: impl Fn(&StepRecord) -> f64,
    ) -> OpStats {
        let mut pool: Vec<f64> = Vec::new();
        let (mut ops, mut busy) = (0u64, 0f64);
        for i in steps {
            let speed = speed(&self.steps[i]);
            let at_speed = |&ms: &f32| f64::from(ms) * speed;
            pool.extend(self.latencies_of(i).iter().map(at_speed));
            ops += u64::from(self.steps[i].ops);
            busy += f64::from(self.steps[i].busy_s) * speed;
        }
        let pool = stats::sorted(&pool);
        OpStats {
            p50_ms: stats::quantile(&pool, 1, 2),
            p95_ms: stats::quantile(&pool, 19, 20),
            ops_per_s: if busy > 0.0 { ops as f64 / busy } else { 0.0 },
            ops: pool.len(),
        }
    }

    /// Every op of the window, as the clock read it.
    pub fn whole(&self) -> OpStats {
        self.stats_of(0..self.steps.len(), |_| 1.0)
    }

    /// The statistics of the quiet pool: the steps during which the host was
    /// least disturbed, taken in that order until they hold a sixteenth of
    /// the ops, and no fewer than [`MIN_POOL_OPS`]; each of their times is
    /// brought to the host's best speed, `floor_us` ÷ what the reference loop
    /// read around the step. Which steps those are, and by how much their
    /// times shrink, is decided without looking at a single latency, so an
    /// op that is slow on a quiet host is in the pool like any other and
    /// stays as slow.
    pub fn quiet(&self, floor_us: f32) -> OpStats {
        let disturbance: Vec<f32> = self.steps.iter().map(StepRecord::disturbance).collect();
        let want = (self.attempted / 16).max(MIN_POOL_OPS);
        let mut ops = 0;
        let pool = stats::ascending(&disturbance).into_iter().take_while(|&i| {
            let short = ops < want;
            ops += u64::from(self.steps[i].ops);
            short
        });
        self.stats_of(pool, |step| at_best_speed(floor_us, step.level_us))
    }

    /// IQR ÷ median of the medians of consecutive runs of `per_slice` steps:
    /// how much the host moved during the window.
    pub fn slice_spread(&self, per_slice: usize) -> f64 {
        let all: Vec<usize> = (0..self.steps.len()).collect();
        let medians: Vec<f64> = all
            .chunks_exact(per_slice.max(1))
            .map(|c| self.stats_of(c.iter().copied(), |_| 1.0).p50_ms)
            .collect();
        stats::iqr_over_median(&medians)
    }
}

/// One complete set-up and the host level around it.
#[derive(Clone, Copy, Debug)]
pub struct SetupRecord {
    pub level_us: f32,
    pub seconds: f64,
}

/// Lower quartile of the durations, brought to the host's best speed, of
/// the quarter of the set-ups around which the host was fastest.
pub fn quiet_setup_s(setups: &[SetupRecord], floor_us: f32) -> f64 {
    let levels: Vec<f32> = setups.iter().map(|s| s.level_us).collect();
    let quiet: Vec<f64> = stats::ascending(&levels)
        .into_iter()
        .take(setups.len().div_ceil(4))
        .map(|i| setups[i].seconds * at_best_speed(floor_us, levels[i]))
        .collect();
    stats::quantile(&stats::sorted(&quiet), 1, 4)
}

/// One set-up batch: complete set-ups repeated for a quarter of a second and
/// at least three times, each between two readings of the reference loop.
/// Returns the last instance.
pub fn setup_batch<W: Workload>(
    seed: u64,
    tracer: &mut Tracer,
    setups: &mut Vec<SetupRecord>,
) -> Result<W, String> {
    const MIN_TIME: Duration = Duration::from_millis(250);
    const MIN_REPS: usize = 3;
    let started = Instant::now();
    let mut before = pin::ref_loop_us();
    for rep in 1.. {
        let t0 = Instant::now();
        let w = W::setup(seed, tracer)?;
        let seconds = t0.elapsed().as_secs_f64();
        let after = pin::ref_loop_us();
        setups.push(SetupRecord {
            level_us: before.max(after) as f32,
            seconds,
        });
        if rep >= MIN_REPS && started.elapsed() >= MIN_TIME {
            return Ok(w);
        }
        // Dropped here: joining the instance's runtime threads is tear-down,
        // not set-up.
        drop(w);
        before = pin::ref_loop_us();
    }
    unreachable!("the loop returns")
}

pub struct WindowSpec {
    pub len: Duration,
    /// Runtime tracing and metrics on.
    pub traced: bool,
    /// Self-test: corrupt the output of this step (0-based).
    pub corrupt_step: Option<u64>,
}

/// The closed loop: one caller, the next step starts when the previous
/// one's outputs are checked. Every step runs between two readings of the
/// reference loop. The window ends at the first step boundary past
/// `spec.len`; its steps are appended to `into`.
pub fn run_window<W: Workload>(
    w: &mut W,
    tracer: &mut Tracer,
    spec: &WindowSpec,
    into: &mut Samples,
) {
    let end = Instant::now() + spec.len;
    let mut before = pin::ref_loop_us();
    for step in 0.. {
        let (c0, t0) = (pin::process_cpu_s(), Instant::now());
        let out = w.step(&mut Env {
            tracer,
            traced: spec.traced,
            corrupt: spec.corrupt_step == Some(step),
            latencies_ms: &mut into.latencies_ms,
        });
        let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), pin::process_cpu_s() - c0);
        let after = pin::ref_loop_us();
        let stretch = if cpu_s > 0.0 { wall_s / cpu_s } else { 1.0 };
        into.close_step(before.max(after), stretch, out);
        before = after;
        if Instant::now() >= end {
            break;
        }
    }
}

fn window(len: Duration, traced: bool) -> WindowSpec {
    WindowSpec {
        len,
        traced,
        corrupt_step: None,
    }
}

/// The first steps of a fresh instance, which nobody samples: caches fill,
/// lazy set-up finishes, the allocator settles. Returns how many ops ran and
/// how many of them failed.
fn warm_up<W: Workload>(w: &mut W, tracer: &mut Tracer) -> (u64, u64) {
    let mut unsampled = Samples::default();
    let spec = window(Duration::from_millis(150), false);
    run_window(w, tracer, &spec, &mut unsampled);
    (unsampled.attempted, unsampled.failed)
}

pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The end-to-end window is measured in this many segments, each on a fresh
/// instance made by the set-up batch before it: set-ups are spread over the
/// whole run and so get the same chance of a quiet moment as the ops do, and
/// no two instances are ever alive together, so `peak_rss_mb` stays the
/// footprint of one.
const SEGMENTS: u32 = 8;

/// `--trace 0`: per segment a set-up batch, a warm-up and a share of the
/// window, with runtime tracing and metrics off and no span recorded.
pub fn run_end_to_end<W: Workload>(seed: u64, seconds: u64) -> Result<RunOutput, String> {
    let mut tracer = Tracer::new();
    let mut setups = Vec::new();
    let mut samples = Samples::reserve(seconds);
    let segment = Duration::from_secs(seconds) / SEGMENTS;
    let (mut warm_ops, mut warm_failed) = (0, 0);
    for _ in 0..SEGMENTS {
        let mut w = setup_batch::<W>(seed, &mut tracer, &mut setups)?;
        let (ops, failed) = warm_up(&mut w, &mut tracer);
        warm_ops += ops;
        warm_failed += failed;
        run_window(&mut w, &mut tracer, &window(segment, false), &mut samples);
    }
    debug_assert!(tracer.spans().is_empty());
    // Before the analysis below allocates anything.
    let peak_rss_mib = pin::peak_rss_mib();
    let setup_floor = setups
        .iter()
        .map(|s| s.level_us)
        .fold(f32::INFINITY, f32::min);
    let floor_us = samples.floor_us().min(setup_floor);
    let (quiet, whole) = (samples.quiet(floor_us), samples.whole());
    eprintln!(
        "mic-e2e: {}: {} set-ups, {} warm-up ops, {} ops in {} steps, reference loop {:.2} us at best; quiet pool {} ops, p50 {:.4} ms against {:.4} ms by the clock over the whole window",
        W::NAME,
        setups.len(),
        warm_ops,
        samples.attempted,
        samples.steps.len(),
        floor_us,
        quiet.ops,
        quiet.p50_ms,
        whole.p50_ms,
    );
    let metrics = vec![
        metric("op_ms_p50", quiet.p50_ms, "ms"),
        metric("op_ms_p95", quiet.p95_ms, "ms"),
        metric("ops_per_s", quiet.ops_per_s, "1/s"),
        metric("setup_s", quiet_setup_s(&setups, floor_us), "s"),
        metric("peak_rss_mb", peak_rss_mib, "MiB"),
    ];
    Ok(RunOutput {
        // The first op of every set-up and the warm-up ops were verified
        // too, but only the window's ops are the run's sample.
        attempted: samples.attempted,
        failed: samples.failed + warm_failed,
        metrics,
    })
}

/// `--trace 1`: a short untraced reference, the standalone probes, then
/// the traced window — runtime trace and metrics on, the benchmark's own
/// spans recorded, allocations counted. Returns the per-layer metrics and
/// the Chrome trace of the benchmark's spans.
pub fn run_traced<W: Workload>(
    seed: u64,
    seconds: u64,
    cpu: Option<usize>,
) -> Result<(RunOutput, String), String> {
    let mut tracer = Tracer::new();
    // Set-up spans (payload capture) are per-layer metrics too.
    tracer.set_enabled(true);
    let mut w = setup_batch::<W>(seed, &mut tracer, &mut Vec::new())?;
    tracer.set_enabled(false);
    let mut failed = warm_up(&mut w, &mut tracer).1;

    // 5 s untraced, then 10 s traced; shorter runs keep the 1 : 2 split.
    let third = Duration::from_secs_f64(seconds as f64 / 3.0);
    let mut reference = Samples::reserve(seconds);
    run_window(
        &mut w,
        &mut tracer,
        &window(third.min(Duration::from_secs(5)), false),
        &mut reference,
    );
    failed += reference.failed;

    let mut out = Vec::new();
    w.probes(&mut out);

    let cpu_before = pin::cpu_times(cpu);
    let allocs_before = alloc::totals();
    let mut win = Samples::reserve(seconds);
    tracer.set_enabled(true);
    alloc::set_counting(true);
    run_window(
        &mut w,
        &mut tracer,
        &window((2 * third).min(Duration::from_secs(10)), true),
        &mut win,
    );
    alloc::set_counting(false);
    tracer.set_enabled(false);
    let allocs = alloc::totals();
    let cpu_after = pin::cpu_times(cpu);

    let floor_us = win.floor_us().min(reference.floor_us());
    let latencies: Vec<f64> = win.latencies_ms.iter().map(|&ms| f64::from(ms)).collect();
    let levels: Vec<f64> = win.steps.iter().map(|s| f64::from(s.level_us)).collect();
    let ops = win.attempted.max(1) as f64;
    out.extend([
        metric("op_ms_p99", stats::percentile(&latencies, 99), "ms"),
        metric(
            "trace_overhead_frac",
            win.quiet(floor_us).p50_ms / reference.quiet(floor_us).p50_ms - 1.0,
            "ratio",
        ),
        metric(
            "dark_frac",
            span::dark_fraction(tracer.spans(), "op"),
            "ratio",
        ),
        metric("failed_frac", win.failed as f64 / ops, "ratio"),
        metric(
            "alloc.count_per_op",
            (allocs.0 - allocs_before.0) as f64 / ops,
            "count",
        ),
        metric(
            "alloc.kb_per_op",
            (allocs.1 - allocs_before.1) as f64 / 1024.0 / ops,
            "KiB",
        ),
        metric("host.ref_loop_us_p50", stats::median(&levels), "us"),
        metric(
            "host.steal_frac",
            pin::steal_frac(cpu_before, cpu_after),
            "ratio",
        ),
        metric(
            "host.idle_frac",
            pin::idle_frac(cpu_before, cpu_after),
            "ratio",
        ),
        metric(
            "host.slice_spread",
            win.slice_spread(W::STEPS_PER_SLICE),
            "ratio",
        ),
    ]);
    w.layer_metrics(&tracer, &mut out);
    eprintln!(
        "mic-e2e: {}: reference {} ops, traced {} ops, {} spans",
        W::NAME,
        reference.attempted,
        win.attempted,
        tracer.spans().len()
    );
    let run = RunOutput {
        attempted: win.attempted,
        failed: win.failed + failed,
        metrics: out,
    };
    Ok((run, span::chrome_trace(tracer.spans())))
}

/// Self-test of the verifier: a one-second window in which exactly one
/// step's output is damaged after the system returned it. Returns
/// `(attempted, failed)`; the caller demands `failed == 1`.
pub fn run_self_test<W: Workload>(seed: u64) -> Result<(u64, u64), String> {
    let mut tracer = Tracer::new();
    let mut w = W::setup(seed, &mut tracer)?;
    let spec = WindowSpec {
        corrupt_step: Some(1),
        ..window(Duration::from_secs(1), false)
    };
    let mut win = Samples::default();
    run_window(&mut w, &mut tracer, &spec, &mut win);
    Ok((win.attempted, win.failed))
}

/// Median of the spans called `name`, µs; 0 when there are none.
pub fn span_p50_us(tracer: &Tracer, name: &str) -> f64 {
    stats::median(&tracer.durations_us(name))
}

pub fn push(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push(metric(name, value, unit));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One op per step, `ms` long, on a host the instruments read as
    /// `level_us` and `stretch`.
    fn step(samples: &mut Samples, level_us: f64, stretch: f64, ms: f32) {
        samples.latencies_ms.push(ms);
        let out = StepOut {
            attempted: 1,
            failed: 0,
            busy_s: f64::from(ms) * 1e-3,
        };
        samples.close_step(level_us, stretch, out);
    }

    /// A fixed scatter of step indices: every `n`-th step after a shuffle by
    /// a multiplicative hash, so that "random" is the same on every run.
    fn scattered(i: usize, one_in: usize) -> bool {
        (i.wrapping_mul(2_654_435_761) >> 7) % one_in == 0
    }

    #[test]
    fn quiet_pool_leaves_out_the_steps_a_disturbed_host_ran() {
        let mut s = Samples::default();
        for i in 0..8000 {
            match i % 8 {
                // A neighbour on the core: the reference loop reads 40 % up.
                0..=4 => step(&mut s, 13.0, 1.0, 1.45),
                // The hypervisor took a third of the step away.
                5 | 6 => step(&mut s, 9.2, 1.5, 1.5),
                _ => step(&mut s, 9.2, 1.0, 1.0),
            }
        }
        let quiet = s.quiet(s.floor_us());
        assert_eq!(quiet.ops, 500);
        assert_eq!((quiet.p50_ms, quiet.p95_ms), (1.0, 1.0));
        assert!((quiet.ops_per_s - 1000.0).abs() < 1e-3);
        assert!(s.whole().p50_ms > 1.4);
    }

    #[test]
    fn a_run_that_was_never_quiet_is_read_at_the_speed_of_its_best_moment() {
        // The reference loop read 9.2 us once, in a step of 1 ms; during the
        // other steps it read 11.5 us and the same op took 1.25 ms.
        let mut s = Samples::default();
        step(&mut s, 9.2, 1.0, 1.0);
        for _ in 0..999 {
            step(&mut s, 11.5, 1.0, 1.25);
        }
        assert_eq!(s.floor_us(), 9.2);
        let quiet = s.quiet(s.floor_us());
        assert!((quiet.p50_ms - 1.0).abs() < 1e-6, "{}", quiet.p50_ms);
        assert!((quiet.ops_per_s - 1000.0).abs() < 1e-2);
        // The stolen share of a step chooses the pool but shrinks no time:
        // an op that waits is not made faster by having waited.
        let mut s = Samples::default();
        for _ in 0..500 {
            step(&mut s, 9.2, 1.5, 1.5);
        }
        assert_eq!(s.quiet(9.2).p50_ms, 1.5);
    }

    #[test]
    fn a_tenth_of_the_ops_slow_on_a_quiet_host_moves_p95() {
        // The host never moves, so the instruments cannot tell the steps
        // apart, and one op in ten takes twice as long for reasons of its
        // own: the tail has to show it.
        let mut s = Samples::default();
        for i in 0..4000 {
            let ms = if scattered(i, 10) { 2.0 } else { 1.0 };
            step(&mut s, 9.2, 1.0, ms);
        }
        let quiet = s.quiet(s.floor_us());
        assert_eq!(quiet.p50_ms, 1.0);
        assert_eq!(quiet.p95_ms, 2.0);
        // Nor can slow ops hide behind a disturbed host they did not have:
        // the same ops among steps the instruments rank differently.
        let mut s = Samples::default();
        for i in 0..4000 {
            let ms = if scattered(i, 10) { 2.0 } else { 1.0 };
            step(&mut s, if i % 2 == 0 { 9.2 } else { 12.0 }, 1.0, ms);
        }
        assert_eq!(s.quiet(s.floor_us()).p95_ms, 2.0);
    }

    #[test]
    fn the_pool_is_a_sixteenth_of_the_ops_once_that_is_more_than_the_floor() {
        let mut s = Samples::default();
        for i in 0..16_000 {
            step(&mut s, 9.0 + (i % 100) as f64, 1.0, 1.0);
        }
        assert_eq!(s.quiet(s.floor_us()).ops, 1000);
        // Fewer ops than the floor: all of them.
        let mut s = Samples::default();
        for _ in 0..40 {
            step(&mut s, 9.0, 1.0, 1.0);
        }
        assert_eq!(s.quiet(s.floor_us()).ops, 40);
    }

    #[test]
    fn setup_time_is_the_lower_quartile_of_the_quiet_quarter() {
        // Sixteen set-ups, four of them on a quiet host: 40, 41, 42, 43 ms.
        let setups: Vec<SetupRecord> = (0..16)
            .map(|i| SetupRecord {
                level_us: if i % 4 == 0 { 9.1 } else { 13.0 },
                seconds: 0.040 + 0.001 * (i / 4) as f64 + if i % 4 == 0 { 0.0 } else { 0.02 },
            })
            .collect();
        // statistics.quantiles([40, 41, 42, 43], n=4)[0] == 40.25
        assert!((quiet_setup_s(&setups, 9.1) - 0.040_25).abs() < 1e-12);
        // On a host that reads 9.1 us at best they would have taken 0.91 of
        // that had the loop read 10 us around them.
        let slower: Vec<SetupRecord> = setups
            .iter()
            .map(|s| SetupRecord {
                level_us: if s.level_us < 10.0 { 10.0 } else { 13.0 },
                ..*s
            })
            .collect();
        assert!((quiet_setup_s(&slower, 9.1) - 0.040_25 * 0.91).abs() < 1e-8);
    }

    #[test]
    fn slice_spread_is_zero_on_a_still_host() {
        let mut s = Samples::default();
        for _ in 0..100 {
            step(&mut s, 9.2, 1.0, 1.0);
        }
        assert_eq!(s.slice_spread(20), 0.0);
    }
}
