//! Chaos suite: measures what fault recovery *costs* on the native
//! executor.
//!
//! Three MM conditions at the same `(P, T)` geometry, same inputs:
//!
//! 1. **clean** — no fault plan;
//! 2. **retry** — every transfer's first 2 attempts fail, the fixed retry
//!    policy (3 retries, backoff from 50 µs doubling) absorbs them;
//! 3. **degraded** — one kernel panic takes its partition with it and a
//!    recovery pass re-runs the lost nodes on the survivor
//!    (`run_native_resilient`).
//!
//! Each faulted row reports whether it reproduced the clean run's output
//! bit for bit; `tests/fault_recovery.rs` gates that under all three
//! schedulers. A final chaos sweep drives the autotuner's
//! [`NativeEvaluator`] under an unrecoverable fault plan and shows killed
//! trials are logged and skipped, not fatal.

use hstreams::action::Action;
use hstreams::{Context, FaultCounters, FaultPlan, NativeConfig};
use mic_apps::mm::{self, MmConfig};
use mic_apps::tunable::TunableMm;
use micsim::stats::Repetitions;
use micsim::PlatformConfig;
use stream_tune::evaluator::{Evaluator, NativeEvaluator};

const PARTITIONS: usize = 2;
const SEED: u64 = 2026;

struct MmRig {
    ctx: Context,
    cfg: MmConfig,
    bufs: mm::MmBuffers,
}

impl MmRig {
    fn new(n: usize) -> MmRig {
        let cfg = MmConfig {
            n,
            tiles_per_dim: 2,
        };
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(PARTITIONS)
            .build()
            .unwrap();
        let bufs = mm::build(&mut ctx, &cfg).unwrap();
        mm::fill_inputs(&ctx, &cfg, &bufs, SEED).unwrap();
        MmRig { ctx, cfg, bufs }
    }

    fn result(&self) -> Vec<f32> {
        mm::collect_result(&self.ctx, &self.cfg, &self.bufs)
            .unwrap()
            .data
    }

    /// `(stream, action_index)` of stream 1's first kernel — the panic site
    /// for the degraded condition (stream 0's partition survives and runs
    /// the recovery pass).
    fn panic_site(&self) -> (usize, usize) {
        for s in &self.ctx.program().streams {
            if s.id.0 != 1 {
                continue;
            }
            for (ai, action) in s.actions.iter().enumerate() {
                if matches!(action, Action::Kernel(_)) {
                    return (1, ai);
                }
            }
        }
        panic!("stream 1 records no kernel");
    }
}

fn main() {
    let n = 256;
    let runs = Repetitions {
        total: 12,
        warmup: 3,
    };
    let mut rig = MmRig::new(n);
    let panic_site = rig.panic_site();

    // 1. Clean baseline.
    let clean_s = runs.measure(|| {
        let started = std::time::Instant::now();
        rig.ctx.run_native().unwrap();
        started.elapsed().as_secs_f64()
    });
    let clean_out = rig.result();

    // 2. Retry overhead: every transfer fails twice, then succeeds.
    rig.ctx
        .set_fault_plan(Some(FaultPlan::seeded(SEED).transfer_failures(1.0, 2)));
    let mut retry_faults = FaultCounters::default();
    let retry_s = runs.measure(|| {
        let started = std::time::Instant::now();
        let report = rig.ctx.run_native().unwrap();
        let s = started.elapsed().as_secs_f64();
        retry_faults = report.faults;
        s
    });
    let retry_ok = rig.result() == clean_out;

    // 3. Degraded run: stream 1's first kernel panics and takes its
    //    partition with it; the lost nodes are re-run on stream 0's.
    rig.ctx.set_fault_plan(Some(
        FaultPlan::seeded(SEED).panic_kernel_at(panic_site.0, panic_site.1),
    ));
    let mut degraded_faults = FaultCounters::default();
    let degraded_s = runs.measure(|| {
        let started = std::time::Instant::now();
        let resilient = rig
            .ctx
            .run_native_resilient(&NativeConfig::default())
            .unwrap();
        let s = started.elapsed().as_secs_f64();
        degraded_faults = resilient.faults;
        s
    });
    let degraded_ok = rig.result() == clean_out;

    // 4. Chaos sweep: unrecoverable transfer faults at a low rate must kill
    //    individual trials, not the tuner.
    let sweep_plan = FaultPlan::seeded(SEED ^ 0xc0de).transfer_failures(0.05, 10);
    let mut ev = NativeEvaluator::new(PlatformConfig::phi_31sp(), 4)
        .unwrap()
        .with_fault_plan(sweep_plan);
    let mut app = TunableMm::new(n, Some(SEED));
    let mut evaluated = 0usize;
    for p in [1usize, 2, 4] {
        for t in [1usize, 4] {
            if ev.evaluate(&mut app, p, t).is_some() {
                evaluated += 1;
            }
        }
    }
    let faulted = ev.faulted_trials().len();

    let retry_overhead = retry_s.mean / clean_s.mean - 1.0;
    let degraded_overhead = degraded_s.mean / clean_s.mean - 1.0;

    println!(
        "chaos suite: MM n={n} T=4 P={PARTITIONS}, {} runs ({} warmup) per condition",
        runs.total, runs.warmup
    );
    println!("  clean    : {:>8.3} ms", clean_s.mean * 1e3);
    println!(
        "  retry    : {:>8.3} ms  ({:+.1}%, {} retries/run, output identical: {retry_ok})",
        retry_s.mean * 1e3,
        retry_overhead * 100.0,
        retry_faults.transfer_retries,
    );
    println!(
        "  degraded : {:>8.3} ms  ({:+.1}%, {} partition lost, {} actions re-run, output identical: {degraded_ok})",
        degraded_s.mean * 1e3,
        degraded_overhead * 100.0,
        degraded_faults.lost_partitions,
        degraded_faults.replayed_actions,
    );
    println!("  sweep    : {evaluated} trials measured, {faulted} killed by faults and logged");
}
