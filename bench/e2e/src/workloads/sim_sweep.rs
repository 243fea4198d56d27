//! `sim_sweep` — one pruned `(T, P)` tuning pass per app on the simulator:
//! hBench `2^22`/24, MM 840, CF 16800, NN `2^20`, Kmeans `2^15`/8/3 — the
//! paper-scale sizes the `autotune` bench sweeps, every app within 64 tiles:
//! 135 candidates in all, about 15 ms, so that a 30 s window holds well over
//! a thousand sweeps.
//!
//! Chosen because it is single-threaded and bypasses the native executor
//! entirely: `micsim::engine`, `executor::sim`, `stream_tune`, `replan`,
//! recording and `check` are the whole op. It is the workload a
//! native-dispatch gain must **not** move, and the one a simulator or
//! tuner gain must move while leaving every simulated number bit-identical.
//!
//! Op: for each of the five apps a fresh `Tuner`, `SimEvaluator` and app,
//! then `Tuner::tune(.., Strategy::Pruned)`. Winners, simulated makespans,
//! candidate and call counts must equal, bit for bit, the values pinned at
//! set-up by the benchmark's own evaluator (which makes the same three
//! calls `SimEvaluator` makes, inside spans).

use std::time::Instant;

use crate::adapter::{self, SweepApp, SweepOutcome, SweepWork};
use crate::harness::{first_op, push, span_p50_us, Env, StepOut, Workload};
use crate::json::Metric;
use crate::span::Tracer;
use crate::stats;

const APPS: usize = SweepApp::ALL.len();

pub struct SimSweep {
    pinned: [SweepOutcome; APPS],
    /// What one sweep's candidates amount to, all apps.
    work: SweepWork,
}

/// Bit-for-bit: `f64` equality would also accept `-0.0 == 0.0`.
fn same(a: &SweepOutcome, b: &SweepOutcome) -> bool {
    a.winner == b.winner
        && a.winner_seconds.to_bits() == b.winner_seconds.to_bits()
        && a.candidates == b.candidates
        && a.evaluator_calls == b.evaluator_calls
}

impl Workload for SimSweep {
    const NAME: &'static str = "sim_sweep";

    fn setup(_seed: u64, tracer: &mut Tracer) -> Result<SimSweep, String> {
        // The simulator takes no data: there is nothing for the seed to
        // vary, and nothing may vary.
        let mut work = SweepWork::default();
        let pinned = SweepApp::ALL.map(|app| {
            let (out, n) = adapter::tune_probed(app, tracer);
            work += n;
            out
        });
        let mut w = SimSweep { pinned, work };
        if first_op(&mut w, tracer).failed > 0 {
            return Err("sim_sweep: SimEvaluator and the probing evaluator disagree".into());
        }
        Ok(w)
    }

    fn step(&mut self, env: &mut Env<'_>) -> StepOut {
        let t = &mut *env.tracer;
        let t0 = Instant::now();
        t.enter("op");
        let mut got = SweepApp::ALL.map(|app| {
            t.enter("tune.app");
            let out = if env.traced {
                adapter::tune_probed(app, t).0
            } else {
                adapter::tune_sim(app)
            };
            t.exit();
            out
        });
        t.exit();
        let busy_s = t0.elapsed().as_secs_f64();
        env.latencies_ms.push((busy_s * 1e3) as f32);

        if env.corrupt {
            got[2].winner_seconds = f64::from_bits(got[2].winner_seconds.to_bits() ^ 1);
        }
        let ok = got.iter().zip(&self.pinned).all(|(g, p)| same(g, p));
        StepOut {
            attempted: 1,
            failed: u64::from(!ok),
            busy_s,
        }
    }

    fn probes(&mut self, out: &mut Vec<Metric>) {
        // hBench at its pinned winner: the static bound the tuner can prune
        // with, and HEFT planning of the same program.
        let (p, t) = self.pinned[0].winner;
        let reps = adapter::probe_static_and_plan(SweepApp::Hbench, p, t, 32);
        let lb: Vec<f64> = reps.iter().map(|r| r.0).collect();
        let plan: Vec<f64> = reps.iter().map(|r| r.1).collect();
        push(
            out,
            "hstreams.opt.static_cost_us_p50",
            stats::median(&lb),
            "us",
        );
        push(
            out,
            "hstreams.sched.plan_us_p50",
            stats::median(&plan),
            "us",
        );
    }

    fn layer_metrics(&mut self, tracer: &Tracer, out: &mut Vec<Metric>) {
        let sum = |f: fn(&SweepOutcome) -> f64| self.pinned.iter().map(f).sum::<f64>();
        let hits = sum(|o| o.cache_hits as f64);
        let lookups = hits + sum(|o| o.cache_misses as f64);
        push(
            out,
            "tune.candidates_per_sweep",
            sum(|o| o.candidates as f64),
            "count",
        );
        push(
            out,
            "tune.evaluator_calls",
            sum(|o| o.evaluator_calls as f64),
            "count",
        );
        push(out, "tune.cache_hit_frac", hits / lookups.max(1.0), "ratio");
        push(
            out,
            "hstreams.actions_per_op",
            self.work.actions as f64,
            "count",
        );
        push(
            out,
            "hstreams.bytes_per_op",
            self.work.transfer_bytes as f64,
            "B",
        );
        push(
            out,
            "micsim.tasks_per_sweep",
            self.work.sim_tasks as f64,
            "count",
        );
        push(
            out,
            "hstreams.replan_us_p50",
            span_p50_us(tracer, "hstreams.replan"),
            "us",
        );
        push(
            out,
            "apps.record_us_p50",
            span_p50_us(tracer, "apps.record"),
            "us",
        );
        let run_us = tracer.durations_us("hstreams.sim.run");
        push(out, "hstreams.sim.run_us_p50", stats::median(&run_us), "us");
        // Every probed sweep is in the spans (set-up's too) and every sweep
        // simulates the same tasks.
        let sweeps = run_us.len() as f64 / sum(|o| o.evaluator_calls as f64).max(1.0);
        let sim_s = run_us.iter().sum::<f64>() / 1e6;
        push(
            out,
            "micsim.tasks_per_s",
            self.work.sim_tasks as f64 * sweeps / sim_s,
            "1/s",
        );
        let mut total = 0.0;
        for (app, o) in SweepApp::ALL.iter().zip(&self.pinned) {
            let ms = o.winner_seconds * 1e3;
            total += ms;
            push(
                out,
                &format!("sim.makespan_ms.{}", app.name()),
                ms,
                "simulated_ms",
            );
        }
        push(out, "sim_makespan_ms", total, "simulated_ms");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_comparison_is_bit_exact() {
        let a = SweepOutcome {
            winner: (4, 16),
            winner_seconds: 0.012_5,
            candidates: 21,
            evaluator_calls: 21,
            cache_hits: 0,
            cache_misses: 21,
        };
        assert!(same(&a, &a));
        let mut b = a;
        b.winner_seconds = f64::from_bits(a.winner_seconds.to_bits() ^ 1);
        assert!(!same(&a, &b));
        b = a;
        b.winner = (4, 8);
        assert!(!same(&a, &b));
    }
}
