//! End-to-end serving: eight tenants' jobs all complete with Jain
//! fairness ≥ 0.9 on both executors, multi-tenant rounds on the native
//! executor must be *invisible* to each tenant — outputs bit-identical to
//! being served alone — and an injected kernel panic in one tenant must
//! degrade only that tenant's lease while everyone else completes
//! untouched.

use hstreams::lease::TenantId;
use mic_apps::workload::{catalog, synthetic, Workload};
use micsim::PlatformConfig;
use stream_serve::{
    jain_index, Admission, ExecutorKind, JobStatus, ServeConfig, StreamService, TenantProgram,
};

fn config() -> ServeConfig {
    ServeConfig::new(PlatformConfig::phi_31sp())
}

fn capture(w: &mut Workload) -> TenantProgram {
    TenantProgram::capture(w, &PlatformConfig::phi_31sp()).unwrap()
}

/// Serve one payload alone on a fresh service and return its outputs.
fn solo_outputs(prog: &TenantProgram) -> Vec<Vec<f32>> {
    let mut svc = StreamService::new(config()).unwrap();
    match svc.submit(TenantId(0), prog.clone()) {
        Admission::Accepted(_) => {}
        a => panic!("solo submit: {a:?}"),
    }
    let reports = svc.drain(8).unwrap();
    let outcome = reports
        .iter()
        .flat_map(|r| &r.outcomes)
        .next()
        .expect("solo job ran");
    match &outcome.status {
        JobStatus::Completed { outputs } => outputs.clone(),
        s => panic!("solo job must complete: {s:?}"),
    }
}

/// Eight tenants: synthetic mix-kernel pipelines with the six catalog
/// apps folded over the first six, so real pipelines (transfers, events,
/// barriers) ride the same rounds.
fn eight_tenant_payloads() -> Vec<TenantProgram> {
    let mut payloads: Vec<TenantProgram> = (0..8u64)
        .map(|t| capture(&mut synthetic(format!("syn{t}"), 41 + t, 2)))
        .collect();
    for (i, w) in catalog(7).iter_mut().enumerate() {
        payloads[i % 8] = capture(w);
    }
    payloads
}

#[test]
fn eight_tenants_share_one_device_fairly() {
    let payloads = eight_tenant_payloads();
    for executor in [ExecutorKind::Native, ExecutorKind::Sim] {
        let mut cfg = config();
        cfg.executor = executor;
        two_jobs_per_tenant_complete_fairly(cfg, &payloads);
    }
}

fn two_jobs_per_tenant_complete_fairly(cfg: ServeConfig, payloads: &[TenantProgram]) {
    let executor = cfg.executor;
    let mut svc = StreamService::new(cfg).unwrap();
    for round in 0..2 {
        for (t, p) in payloads.iter().enumerate() {
            let adm = svc.submit(TenantId(t as u16), p.clone());
            assert!(
                matches!(adm, Admission::Accepted(_)),
                "{executor:?} round {round} tenant {t}: {adm:?}"
            );
        }
    }
    let reports = svc.drain(64).unwrap();
    assert_eq!(svc.queued(), 0, "drained");
    let mut completed = [0f64; 8];
    for o in reports.iter().flat_map(|r| &r.outcomes) {
        match &o.status {
            JobStatus::Completed { outputs } => {
                assert!(!outputs.is_empty());
                completed[o.tenant.0 as usize] += 1.0;
            }
            s => panic!(
                "{executor:?}: no faults were injected, yet {:?} saw {s:?}",
                o.tenant
            ),
        }
    }
    assert!(
        completed.iter().all(|&c| c == 2.0),
        "{executor:?}: {completed:?}"
    );
    let fairness = jain_index(&completed);
    assert!(fairness >= 0.9, "{executor:?}: Jain index {fairness} < 0.9");
    svc.leases().check_invariants().unwrap();

    // The service exports per-tenant series.
    let names = svc.metrics().series_names();
    assert!(
        names.iter().any(|n| n.contains("tenant=\"3\"")),
        "{names:?}"
    );
}

#[test]
fn injected_panic_degrades_only_the_faulty_tenant() {
    let mut victims: Vec<TenantProgram> = (0..4u16)
        .map(|t| capture(&mut synthetic(format!("v{t}"), 11 + u64::from(t), 2)))
        .collect();
    let mut chaos = capture(&mut synthetic("chaos", 99, 2));
    let site = chaos.nth_kernel_site(0).expect("has kernels");
    chaos = chaos.with_fault(site.0, site.1);

    // Baselines: every payload served alone (identical service geometry).
    let solo: Vec<Vec<Vec<f32>>> = victims.iter().map(solo_outputs).collect();
    let chaos_solo = solo_outputs(&{
        let mut clean = chaos.clone();
        clean.fault = None;
        clean
    });

    let mut svc = StreamService::new(config()).unwrap();
    for (t, p) in victims.iter_mut().enumerate() {
        assert!(matches!(
            svc.submit(TenantId(t as u16), p.clone()),
            Admission::Accepted(_)
        ));
    }
    let chaos_id = TenantId(4);
    assert!(matches!(
        svc.submit(chaos_id, chaos),
        Admission::Accepted(_)
    ));

    let reports = svc.drain(16).unwrap();
    assert_eq!(svc.queued(), 0);

    let mut degraded_rounds = 0usize;
    let mut chaos_outputs = None;
    for o in reports.iter().flat_map(|r| &r.outcomes) {
        match (&o.status, o.tenant) {
            (JobStatus::Degraded { lost, skipped }, t) => {
                assert_eq!(t, chaos_id, "only the chaos tenant may degrade");
                assert!(!lost.is_empty(), "a partition was lost");
                assert!(*skipped > 0, "the panicked stream skipped work");
                degraded_rounds += 1;
            }
            (JobStatus::Completed { outputs }, t) if t == chaos_id => {
                chaos_outputs = Some(outputs.clone());
            }
            (JobStatus::Completed { outputs }, t) => {
                assert_eq!(
                    outputs, &solo[t.0 as usize],
                    "{t} must be bit-identical to its solo run despite the chaos tenant"
                );
            }
        }
    }
    assert_eq!(degraded_rounds, 1, "one poisoned round, then a clean retry");
    assert_eq!(
        chaos_outputs.expect("chaos tenant retried to completion"),
        chaos_solo,
        "the retry runs the consumed-fault payload clean"
    );
    // Poison was shed during the retry's lease resize.
    let lease = svc.leases().lease(chaos_id).expect("still leased");
    assert_eq!(lease.poisoned().count(), 0);
}

#[test]
fn catalog_apps_serve_bit_identically_to_solo() {
    // The six app builders — including the barrier-separated ones, whose
    // barriers the service lowers to events — through one shared round.
    let mut payloads: Vec<TenantProgram> = catalog(5).iter_mut().map(capture).collect();
    let solo: Vec<Vec<Vec<f32>>> = payloads.iter().map(solo_outputs).collect();

    let mut cfg = config();
    cfg.max_round_tenants = 3; // force multi-round sharing
    let mut svc = StreamService::new(cfg).unwrap();
    for (t, p) in payloads.iter_mut().enumerate() {
        assert!(matches!(
            svc.submit(TenantId(t as u16), p.clone()),
            Admission::Accepted(_)
        ));
    }
    let reports = svc.drain(32).unwrap();
    assert_eq!(svc.queued(), 0);
    let mut seen = 0usize;
    for o in reports.iter().flat_map(|r| &r.outcomes) {
        match &o.status {
            JobStatus::Completed { outputs } => {
                assert_eq!(
                    outputs, &solo[o.tenant.0 as usize],
                    "{} ({}) diverged from its solo outputs",
                    o.tenant, o.workload
                );
                seen += 1;
            }
            s => panic!("{} unexpectedly {s:?}", o.workload),
        }
    }
    assert_eq!(seen, payloads.len());
}

#[test]
fn admission_sheds_beyond_the_queue_bound() {
    let mut cfg = config();
    cfg.queue_depth = 2;
    let mut svc = StreamService::new(cfg).unwrap();
    let p = capture(&mut synthetic("q", 3, 1));
    assert!(matches!(
        svc.submit(TenantId(0), p.clone()),
        Admission::Accepted(_)
    ));
    assert!(matches!(
        svc.submit(TenantId(1), p.clone()),
        Admission::Accepted(_)
    ));
    assert_eq!(svc.submit(TenantId(2), p.clone()), Admission::Shed);
    assert_eq!(svc.shed_total(), 1);
    // Draining frees the queue again.
    svc.drain(8).unwrap();
    assert!(matches!(svc.submit(TenantId(2), p), Admission::Accepted(_)));
}

#[test]
fn foreign_buffer_references_are_rejected_at_admission() {
    let mut svc = StreamService::new(config()).unwrap();
    let mut p = capture(&mut synthetic("rogue", 8, 1));
    // Pretend the program reaches one buffer past its own table.
    p.buffers.pop();
    match svc.submit(TenantId(0), p) {
        Admission::Rejected(reason) => {
            assert!(reason.contains("outside the payload's table"), "{reason}");
        }
        a => panic!("expected rejection, got {a:?}"),
    }
}

#[test]
fn sim_executor_prices_rounds_in_virtual_time() {
    let mut cfg = config();
    cfg.executor = ExecutorKind::Sim;
    let mut svc = StreamService::new(cfg).unwrap();
    for t in 0..3u16 {
        let p = capture(&mut synthetic(format!("s{t}"), u64::from(t) + 21, 2));
        assert!(matches!(svc.submit(TenantId(t), p), Admission::Accepted(_)));
    }
    // A job carrying a fault site completes clean on the simulator: no
    // fault plan reaches a simulated round.
    let mut chaos = capture(&mut synthetic("chaos", 99, 2));
    let site = chaos.nth_kernel_site(0).expect("has kernels");
    chaos = chaos.with_fault(site.0, site.1);
    assert!(matches!(
        svc.submit(TenantId(3), chaos),
        Admission::Accepted(_)
    ));
    let before = svc.now();
    let reports = svc.drain(8).unwrap();
    assert!(!reports.is_empty());
    assert!(
        svc.now() > before,
        "simulated rounds advance the service clock"
    );
    for r in &reports {
        assert!(r.duration > 0.0);
        for o in &r.outcomes {
            assert!(matches!(o.status, JobStatus::Completed { .. }));
        }
    }
    // Simulated rounds price every series deterministically: the
    // per-tenant counters, gauges and latencies and the round histogram
    // are pinned to the byte.
    assert_eq!(
        svc.metrics().to_jsonl(),
        include_str!("golden/sim_rounds_metrics.jsonl"),
        "the service's metric export moved"
    );
}
