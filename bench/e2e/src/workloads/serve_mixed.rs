//! `serve_mixed` — one native `StreamService` (`optimize: true`) serving
//! 12 tenants: the six `workload::catalog` apps and six two-lane synthetic
//! pipelines.
//!
//! Chosen because it uses `hstreams` *differently* from the other native
//! workloads — merged programs are installed, not recorded — so the cost
//! is `stream_serve`'s: payload clone, admission, lease resize,
//! relocate/merge, the per-round re-check and re-optimise, readback.
//!
//! Each cycle deals 4–12 contiguous tenants from a seeded shuffled deck
//! that holds every `(first tenant, batch size)` pair once; each submits a
//! clone of its payload; rounds run until the queue is empty. Cycles of
//! more than 8 jobs need a second round, so DRR queue wait shows in
//! `op_ms_p95`. Closed loop, one caller.
//!
//! Op: one job, from its `submit` call to the return of the `run_round`
//! that completed it. Its outputs must be bit-identical to the same
//! payload's solo run. `ops_per_s` is jobs ÷ Σ cycle time.

use std::time::Instant;

use crate::adapter::{self, Payload, ServeProbe, Service, Submitted};
use crate::deck::{deck, Deal, MAX_BATCH, MIN_BATCH, TENANTS};
use crate::harness::{push, same_bits, span_p50_us, Env, StepOut, Workload};
use crate::json::Metric;
use crate::span::Tracer;
use crate::stats;

/// Fill seeds of the six synthetic tenants. Fixed: `synthetic` derives its
/// buffer length and edge direction from the seed too, and the run's seed
/// may change values and order but never the amount of work.
const SYNTHETIC_SEEDS: [u64; 6] = [41, 42, 43, 44, 45, 46];

type Outputs = Vec<Vec<f32>>;

pub struct ServeMixed {
    service: Service,
    payloads: Vec<Payload>,
    solo: Vec<Outputs>,
    deck: Vec<Deal>,
    pos: usize,
    /// Traced-window tallies.
    tally: Tally,
}

/// One completed job, as the caller saw it.
struct Done {
    tenant: usize,
    outputs: Outputs,
    /// `submit` call to the return of the completing `run_round`.
    wall_s: f64,
    /// `submit` call to the start of the completing `run_round`.
    queue_wait_s: f64,
    /// The same job on the service's own clock.
    service_latency_s: f64,
}

struct RoundSeen {
    wall_us: f64,
    execute_us: f64,
    syncs_elided: u64,
}

/// What one arrival cycle did, verification still to come.
struct CycleSeen {
    busy_s: f64,
    submitted: u64,
    shed: u64,
    /// Shed, rejected or never completed: no latency, counted as failed.
    lost: u64,
    degraded: u64,
    done: Vec<Done>,
    rounds: Vec<RoundSeen>,
}

#[derive(Default)]
struct Tally {
    /// Counted over the first full pass of the deck only: any 108
    /// consecutive cycles hold every deal once, so these repeat exactly
    /// whatever the seed and wherever the window ends.
    pass_cycles: u64,
    pass_rounds: u64,
    pass_jobs: u64,
    pass_syncs_elided: u64,
    submitted: u64,
    shed: u64,
    degraded: u64,
    completed_per_tenant: [f64; TENANTS],
    queue_wait_ms: Vec<f64>,
    execute_us: Vec<f64>,
    round_overhead_us: Vec<f64>,
    wall_latency_s: f64,
    service_latency_s: f64,
}

impl Tally {
    fn add(&mut self, seen: &CycleSeen, deck_len: usize) {
        if self.pass_cycles < deck_len as u64 {
            self.pass_cycles += 1;
            self.pass_rounds += seen.rounds.len() as u64;
            self.pass_jobs += seen.done.len() as u64;
            self.pass_syncs_elided += seen.rounds.iter().map(|r| r.syncs_elided).sum::<u64>();
        }
        self.submitted += seen.submitted;
        self.shed += seen.shed;
        self.degraded += seen.degraded;
        for r in &seen.rounds {
            self.execute_us.push(r.execute_us);
            self.round_overhead_us.push(r.wall_us - r.execute_us);
        }
        for d in &seen.done {
            self.completed_per_tenant[d.tenant] += 1.0;
            self.queue_wait_ms.push(d.queue_wait_s * 1e3);
            self.wall_latency_s += d.wall_s;
            self.service_latency_s += d.service_latency_s;
        }
    }
}

fn same_outputs(a: &Outputs, b: &Outputs) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_bits(x, y))
}

/// Run `payload` alone on a fresh service: the outputs every served copy of
/// it must reproduce bit for bit.
fn solo_run(payload: &Payload) -> Result<Outputs, String> {
    let mut svc = Service::new();
    if !matches!(svc.submit(0, payload.clone()), Submitted::Accepted(_)) {
        return Err(format!("{}: solo submit refused", payload.name()));
    }
    for _ in 0..16 {
        if let Some(round) = svc.run_round()? {
            if let Some(out) = round.outcomes.into_iter().find_map(|o| o.outputs) {
                return Ok(out);
            }
        }
    }
    Err(format!("{}: solo run did not complete", payload.name()))
}

struct Pending {
    id: u64,
    tenant: usize,
    submitted: Instant,
}

impl ServeMixed {
    /// One arrival cycle, timed; nothing is verified or tallied until the
    /// clock has stopped.
    fn cycle(&mut self, deal: Deal, env: &mut Env<'_>) -> CycleSeen {
        let t = &mut *env.tracer;
        let mut pending: Vec<Pending> = Vec::with_capacity(deal.size);
        let mut seen = CycleSeen {
            busy_s: 0.0,
            submitted: deal.size as u64,
            shed: 0,
            lost: 0,
            degraded: 0,
            done: Vec::with_capacity(deal.size),
            rounds: Vec::with_capacity(2),
        };

        let t0 = Instant::now();
        t.enter("op");
        for tenant in deal.tenants() {
            let payload = t.time("serve.clone", || self.payloads[tenant].clone());
            let submitted = Instant::now();
            match t.time("serve.submit", || self.service.submit(tenant, payload)) {
                Submitted::Accepted(id) => pending.push(Pending {
                    id,
                    tenant,
                    submitted,
                }),
                Submitted::Shed => seen.shed += 1,
                Submitted::Rejected(why) => {
                    eprintln!("mic-e2e: serve_mixed: tenant {tenant} rejected: {why}");
                    seen.lost += 1;
                }
            }
        }
        // Every round dispatches at least one job or tops up a deficit, so
        // the bound is never reached on a healthy service.
        let mut guard = 0;
        while self.service.queued() > 0 && guard < 64 {
            guard += 1;
            let started = Instant::now();
            let round = t.time("serve.round", || self.service.run_round());
            let ended = Instant::now();
            let round = match round {
                Ok(Some(r)) => r,
                Ok(None) => continue,
                Err(e) => {
                    eprintln!("mic-e2e: serve_mixed: round failed: {e}");
                    break;
                }
            };
            seen.rounds.push(RoundSeen {
                wall_us: ended.duration_since(started).as_secs_f64() * 1e6,
                execute_us: round.execute_s * 1e6,
                syncs_elided: round.syncs_elided as u64,
            });
            for o in round.outcomes {
                let Some(i) = pending.iter().position(|p| p.id == o.id) else {
                    continue;
                };
                let Some(outputs) = o.outputs else {
                    // Degraded: the service requeued it; it completes in a
                    // later round and is timed then.
                    seen.degraded += 1;
                    continue;
                };
                let p = pending.swap_remove(i);
                let wall_s = ended.duration_since(p.submitted).as_secs_f64();
                env.latencies_ms.push((wall_s * 1e3) as f32);
                seen.done.push(Done {
                    tenant: p.tenant,
                    outputs,
                    wall_s,
                    queue_wait_s: started.duration_since(p.submitted).as_secs_f64(),
                    service_latency_s: o.service_latency_s,
                });
            }
        }
        t.exit();
        seen.busy_s = t0.elapsed().as_secs_f64();
        seen.lost += seen.shed + pending.len() as u64;
        seen
    }

    fn run_deal(&mut self, deal: Deal, env: &mut Env<'_>) -> StepOut {
        let mut seen = self.cycle(deal, env);
        if env.traced {
            self.tally.add(&seen, self.deck.len());
        }
        if env.corrupt {
            if let Some(x) = seen.done.first_mut().map(|d| &mut d.outputs[0][0]) {
                *x = f32::from_bits(x.to_bits() ^ 1);
            }
        }
        let wrong = seen
            .done
            .iter()
            .filter(|d| !same_outputs(&d.outputs, &self.solo[d.tenant]))
            .count() as u64;
        StepOut {
            attempted: seen.done.len() as u64 + seen.lost,
            failed: wrong + seen.lost,
            busy_s: seen.busy_s,
        }
    }
}

impl Workload for ServeMixed {
    const NAME: &'static str = "serve_mixed";
    /// One pass over the deck: any 108 consecutive cycles hold every deal
    /// once, in whatever order the seed put them.
    const STEPS_PER_SLICE: usize = TENANTS * (MAX_BATCH - MIN_BATCH + 1);

    fn setup(seed: u64, tracer: &mut Tracer) -> Result<ServeMixed, String> {
        let mut payloads = adapter::capture_catalog(seed, tracer);
        for (i, &s) in SYNTHETIC_SEEDS.iter().enumerate() {
            payloads.push(adapter::capture_synthetic(format!("syn{i}"), s, 2, tracer));
        }
        assert_eq!(payloads.len(), TENANTS);
        let solo = payloads
            .iter()
            .map(solo_run)
            .collect::<Result<Vec<_>, _>>()?;
        let mut w = ServeMixed {
            service: Service::new(),
            payloads,
            solo,
            deck: deck(seed),
            pos: 0,
            tally: Tally::default(),
        };
        // First verified op: every tenant at once.
        let all = Deal {
            first: 0,
            size: TENANTS,
        };
        let first = w.run_deal(
            all,
            &mut Env {
                tracer,
                traced: false,
                corrupt: false,
                latencies_ms: &mut Vec::new(),
            },
        );
        if first.failed > 0 || first.attempted != TENANTS as u64 {
            return Err(
                "serve_mixed: the first cycle is not bit-identical to the solo runs".into(),
            );
        }
        Ok(w)
    }

    fn step(&mut self, env: &mut Env<'_>) -> StepOut {
        let deal = self.deck[self.pos % self.deck.len()];
        self.pos += 1;
        self.run_deal(deal, env)
    }

    fn layer_metrics(&mut self, tracer: &Tracer, out: &mut Vec<Metric>) {
        let tl = &self.tally;
        let n = self.payloads.len() as f64;
        // Every tenant is dealt equally often over one pass of the deck, so
        // the per-job means are the plain means over the payloads.
        let actions: usize = self.payloads.iter().map(Payload::actions).sum();
        let bytes: u64 = self.payloads.iter().map(Payload::transfer_bytes).sum();
        push(out, "hstreams.actions_per_op", actions as f64 / n, "count");
        push(out, "hstreams.bytes_per_op", bytes as f64 / n, "B");

        for (name, span) in [
            ("serve.capture_us_p50", "serve.capture"),
            ("serve.clone_us_p50", "serve.clone"),
            ("serve.submit_us_p50", "serve.submit"),
            ("serve.round_us_p50", "serve.round"),
        ] {
            push(out, name, span_p50_us(tracer, span), "us");
        }
        push(
            out,
            "serve.execute_us_p50",
            stats::median(&tl.execute_us),
            "us",
        );
        push(
            out,
            "serve.round_overhead_us_p50",
            stats::median(&tl.round_overhead_us),
            "us",
        );
        push(
            out,
            "serve.queue_wait_ms_p50",
            stats::median(&tl.queue_wait_ms),
            "ms",
        );
        push(
            out,
            "serve.batch_tenants_mean",
            tl.pass_jobs as f64 / tl.pass_cycles.max(1) as f64,
            "count",
        );
        push(
            out,
            "serve.rounds_per_cycle",
            tl.pass_rounds as f64 / tl.pass_cycles.max(1) as f64,
            "count",
        );
        push(
            out,
            "serve.syncs_elided_per_round",
            tl.pass_syncs_elided as f64 / tl.pass_rounds.max(1) as f64,
            "count",
        );
        push(
            out,
            "serve.shed_frac",
            tl.shed as f64 / tl.submitted.max(1) as f64,
            "ratio",
        );
        push(
            out,
            "serve.degraded_frac",
            tl.degraded as f64 / tl.submitted.max(1) as f64,
            "ratio",
        );
        push(
            out,
            "serve.jain_fairness",
            jain(&tl.completed_per_tenant),
            "ratio",
        );
        // What the service's own latency histogram misses: its clock only
        // advances by each round's execute time.
        push(
            out,
            "serve.clock_gap_frac",
            1.0 - tl.service_latency_s / tl.wall_latency_s,
            "ratio",
        );
    }

    fn probes(&mut self, out: &mut Vec<Metric>) {
        // Eight tenants — a full round — relocated, merged, re-checked and
        // re-optimised on a scratch context, each step by itself.
        let mut probe = ServeProbe::new(&self.payloads[..8]);
        let (mut merge_us, mut recheck_us, mut reopt_us) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..64 {
            let t0 = Instant::now();
            let merged = probe.relocate_merge();
            let t1 = Instant::now();
            assert!(
                probe.recheck(merged),
                "the merged round program is analyzer-clean"
            );
            let t2 = Instant::now();
            probe.reoptimize();
            let t3 = Instant::now();
            merge_us.push((t1 - t0).as_secs_f64() * 1e6);
            recheck_us.push((t2 - t1).as_secs_f64() * 1e6);
            reopt_us.push((t3 - t2).as_secs_f64() * 1e6);
        }
        push(
            out,
            "serve.relocate_merge_us_p50",
            stats::median(&merge_us),
            "us",
        );
        push(
            out,
            "serve.recheck_us_p50",
            stats::median(&recheck_us),
            "us",
        );
        push(out, "serve.reopt_us_p50", stats::median(&reopt_us), "us");
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over per-tenant completions.
fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_bounds() {
        assert!((jain(&[3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
        assert!((jain(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn bit_identity_is_exact() {
        let a = vec![vec![1.0f32, 2.0], vec![3.0]];
        assert!(same_outputs(&a, &a.clone()));
        let mut b = a.clone();
        b[1][0] = f32::from_bits(b[1][0].to_bits() ^ 1);
        assert!(!same_outputs(&a, &b));
        assert!(!same_outputs(&a, &a[..1].to_vec()));
    }
}
