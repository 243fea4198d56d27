//! Multi-tenant serving benchmark: throughput, tail latency, fairness,
//! and isolation-under-chaos for the [`StreamService`].
//!
//! Drives open-loop load — a fixed arrival spacing, not
//! submit-wait-submit — from `TENANTS` synthetic clients plus the six
//! catalog apps, against **both** executors:
//!
//! * **sim** rounds are priced by the calibrated simulator and the
//!   service clock advances in virtual time — this is the paper-model
//!   view of partition time/space-sharing;
//! * **native** rounds really execute on partitioned thread pools and
//!   the clock advances in wall time.
//!
//! Reported per executor: programs/second, p50/p99 job latency from the
//! service's per-tenant histograms, and the Jain fairness index over
//! per-tenant completions (gated ≥ 0.9 for equal weights). A final chaos
//! condition injects a kernel panic into one tenant mid-load and gates
//! on every *other* tenant's outputs staying bit-identical to its solo
//! run. `--quick` shrinks the load for CI.

use hstreams::lease::TenantId;
use mic_apps::workload::{catalog, synthetic};
use micsim::PlatformConfig;
use stream_serve::{
    jain_index, Admission, ExecutorKind, JobStatus, ServeConfig, StreamService, TenantProgram,
};

const TENANTS: usize = 8;

fn config(executor: ExecutorKind) -> ServeConfig {
    let mut cfg = ServeConfig::new(PlatformConfig::phi_31sp());
    cfg.executor = executor;
    cfg
}

fn payloads(jobs_per_tenant: usize) -> Vec<TenantProgram> {
    let platform = PlatformConfig::phi_31sp();
    let mut out: Vec<TenantProgram> = (0..TENANTS)
        .map(|t| {
            let mut w = synthetic(format!("syn{t}"), 41 + t as u64, 2);
            TenantProgram::capture(&mut w, &platform).expect("capture synthetic tenant")
        })
        .collect();
    // Fold the six catalog apps over the synthetic tenants so real
    // pipelines (transfers, events, barriers) ride the same rounds.
    if jobs_per_tenant > 1 {
        for (i, w) in catalog(7).iter_mut().enumerate() {
            let p = TenantProgram::capture(w, &platform).expect("capture catalog app");
            out[i % TENANTS] = p;
        }
    }
    out
}

struct LoadResult {
    completed: u64,
    elapsed_s: f64,
    p50_us: u64,
    p99_us: u64,
    fairness: f64,
    degraded_rounds: u64,
}

/// Open-loop load: every tenant submits one job per arrival tick, the
/// service runs one round per tick, and the clock advances by `spacing`
/// between ticks. Leftover queue drains at the end.
fn run_load(
    executor: ExecutorKind,
    payloads: &[TenantProgram],
    jobs_per_tenant: usize,
    spacing_s: f64,
) -> LoadResult {
    let mut svc = StreamService::new(config(executor)).expect("service");
    let wall_start = std::time::Instant::now();
    let mut degraded_rounds = 0u64;
    let mut completions = vec![0f64; payloads.len()];
    let tally = |reports: &[stream_serve::RoundReport],
                 completions: &mut Vec<f64>,
                 degraded_rounds: &mut u64| {
        for o in reports.iter().flat_map(|r| &r.outcomes) {
            match &o.status {
                JobStatus::Completed { .. } => completions[o.tenant.0 as usize] += 1.0,
                JobStatus::Degraded { .. } => *degraded_rounds += 1,
            }
        }
    };
    for _ in 0..jobs_per_tenant {
        for (t, p) in payloads.iter().enumerate() {
            match svc.submit(TenantId(t as u16), p.clone()) {
                Admission::Accepted(_) | Admission::Shed => {}
                Admission::Rejected(r) => panic!("payload rejected: {r}"),
            }
        }
        let round = svc
            .run_round()
            .expect("round")
            .into_iter()
            .collect::<Vec<_>>();
        tally(&round, &mut completions, &mut degraded_rounds);
        svc.advance(spacing_s);
    }
    let rest = svc.drain(64).expect("drain");
    tally(&rest, &mut completions, &mut degraded_rounds);

    let elapsed_s = match executor {
        ExecutorKind::Sim => svc.now(),
        ExecutorKind::Native => wall_start.elapsed().as_secs_f64(),
    };
    let snap = svc.metrics();
    let hist = snap.histogram_merged("serve_latency_us");
    LoadResult {
        completed: completions.iter().sum::<f64>() as u64,
        elapsed_s,
        p50_us: hist.p50(),
        p99_us: hist.p99(),
        fairness: jain_index(&completions),
        degraded_rounds,
    }
}

/// Chaos condition: solo-baseline every victim, then serve all tenants
/// with a kernel panic spliced into one, and compare the victims'
/// outputs bit-for-bit. Returns `(victims_identical, chaos_completed,
/// degraded_rounds)`.
fn run_chaos(payloads: &[TenantProgram]) -> (bool, bool, u64) {
    let solo: Vec<Vec<Vec<f32>>> = payloads
        .iter()
        .map(|p| {
            let mut svc = StreamService::new(config(ExecutorKind::Native)).expect("service");
            assert!(matches!(
                svc.submit(TenantId(0), p.clone()),
                Admission::Accepted(_)
            ));
            let reports = svc.drain(8).expect("solo drain");
            reports
                .iter()
                .flat_map(|r| &r.outcomes)
                .find_map(|o| match &o.status {
                    JobStatus::Completed { outputs } => Some(outputs.clone()),
                    JobStatus::Degraded { .. } => None,
                })
                .expect("solo job completes")
        })
        .collect();

    let chaos_tenant = payloads.len() - 1;
    let mut svc = StreamService::new(config(ExecutorKind::Native)).expect("service");
    for (t, p) in payloads.iter().enumerate() {
        let p = if t == chaos_tenant {
            let site = p.nth_kernel_site(0).expect("chaos payload has kernels");
            p.clone().with_fault(site.0, site.1)
        } else {
            p.clone()
        };
        assert!(matches!(
            svc.submit(TenantId(t as u16), p),
            Admission::Accepted(_)
        ));
    }
    let reports = svc.drain(16).expect("chaos drain");
    let mut victims_ok = true;
    let mut chaos_completed = false;
    let mut degraded = 0u64;
    for o in reports.iter().flat_map(|r| &r.outcomes) {
        let t = o.tenant.0 as usize;
        match &o.status {
            JobStatus::Completed { .. } if t == chaos_tenant => chaos_completed = true,
            JobStatus::Completed { outputs } => {
                let bits = |v: &Vec<Vec<f32>>| -> Vec<Vec<u32>> {
                    v.iter()
                        .map(|x| x.iter().map(|f| f.to_bits()).collect())
                        .collect()
                };
                if bits(outputs) != bits(&solo[t]) {
                    victims_ok = false;
                }
            }
            JobStatus::Degraded { .. } => {
                degraded += 1;
                if t != chaos_tenant {
                    victims_ok = false;
                }
            }
        }
    }
    (victims_ok, chaos_completed, degraded)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let jobs_per_tenant = if quick { 2 } else { 8 };
    let spacing_s = 0.001;
    let payloads = payloads(jobs_per_tenant);

    println!(
        "serve bench: {TENANTS} tenants x {jobs_per_tenant} jobs, open-loop spacing {:.1} ms",
        spacing_s * 1e3
    );

    let sim = run_load(ExecutorKind::Sim, &payloads, jobs_per_tenant, spacing_s);
    let native = run_load(ExecutorKind::Native, &payloads, jobs_per_tenant, spacing_s);
    let (victims_ok, chaos_completed, chaos_degraded) = run_chaos(&payloads);

    let expected = (TENANTS * jobs_per_tenant) as u64;
    for (label, r) in [("sim", &sim), ("native", &native)] {
        println!(
            "  {label:<6}: {}/{} jobs, {:>8.1} prog/s, p50 {:>7} us, p99 {:>7} us, Jain {:.4}, {} degraded rounds",
            r.completed,
            expected,
            r.completed as f64 / r.elapsed_s.max(1e-9),
            r.p50_us,
            r.p99_us,
            r.fairness,
            r.degraded_rounds,
        );
    }
    println!(
        "  chaos : victims bit-identical to solo: {victims_ok}, chaos tenant retried to completion: {chaos_completed}, {chaos_degraded} degraded round(s)"
    );

    let pass = sim.completed == expected
        && native.completed == expected
        && sim.fairness >= 0.9
        && native.fairness >= 0.9
        && victims_ok
        && chaos_completed
        && chaos_degraded == 1;

    if !pass {
        eprintln!("FAIL: serving gate violated (completion, fairness >= 0.9, or isolation)");
        std::process::exit(1);
    }
}
