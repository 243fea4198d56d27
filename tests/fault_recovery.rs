//! End-to-end acceptance: a seeded fault plan that kills several transfers
//! and one kernel inside the streamed MM pipeline must not change the
//! numerical result, under every scheduler. Retries absorb the transfer
//! failures; the panic takes its partition, and a recovery pass re-plans
//! the lost nodes onto the survivor. A plan that fails every transfer
//! twice is absorbed by retries alone.

use mic_streams::apps::mm::{self, MmConfig};
use mic_streams::apps::tunable::{Tunable, TunableHbench, TunableKmeans, TunableMm, TunableNn};
use mic_streams::hstreams::action::Action;
use mic_streams::hstreams::{BufId, Context, FaultPlan, NativeConfig, SchedulerKind};
use mic_streams::micsim::PlatformConfig;

#[test]
fn streamed_mm_survives_transfer_failures_and_a_kernel_panic() {
    let cfg_mm = MmConfig {
        n: 48,
        tiles_per_dim: 2,
    };
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(2)
        .build()
        .unwrap();
    let bufs = mm::build(&mut ctx, &cfg_mm).unwrap();
    let (a, b) = mm::fill_inputs(&ctx, &cfg_mm, &bufs, 42).unwrap();

    // Fault-free baseline, checked against the serial reference.
    ctx.run_native().unwrap();
    let clean = mm::collect_result(&ctx, &cfg_mm, &bufs).unwrap();
    let reference = mm::reference(&a, &b);
    for (got, want) in clean.data.iter().zip(&reference.data) {
        assert!((got - want).abs() <= 1e-3 * want.abs().max(1.0));
    }

    // Force faults at real sites of the recorded program: stream 0's first
    // three transfers each fail twice (recoverable under the fixed
    // 3-retry budget) and stream 1's first kernel panics (recoverable by
    // re-planning its lost nodes). The panic lives on the *other* stream so no
    // forced-fail transfer sits downstream of it — a tainted transfer is
    // skipped outright, never retried.
    let mut transfer_sites = Vec::new();
    let mut kernel_site = None;
    for s in &ctx.program().streams {
        for (ai, action) in s.actions.iter().enumerate() {
            match action {
                Action::Transfer { .. } if s.id.0 == 0 && transfer_sites.len() < 3 => {
                    transfer_sites.push((s.id.0, ai));
                }
                Action::Kernel(_) if s.id.0 == 1 && kernel_site.is_none() => {
                    kernel_site = Some((s.id.0, ai));
                }
                _ => {}
            }
        }
    }
    assert_eq!(transfer_sites.len(), 3, "program has >= 3 transfers");
    let (ks, ka) = kernel_site.expect("program has a kernel");
    let mut plan = FaultPlan::seeded(2026)
        .transfer_failures(0.0, 2)
        .panic_kernel_at(ks, ka);
    for &(s, ai) in &transfer_sites {
        plan = plan.fail_transfer_at(s, ai);
    }

    ctx.set_fault_plan(Some(plan));
    for kind in SchedulerKind::all() {
        ctx.zero_buffers();
        mm::fill_inputs(&ctx, &cfg_mm, &bufs, 42).unwrap();
        ctx.set_scheduler(kind);
        let resilient = ctx
            .run_native_resilient(&NativeConfig::default())
            .unwrap_or_else(|e| panic!("{kind}: retries + replay recover the run: {e}"));

        // The recovery actually exercised both paths...
        let faults = resilient.faults;
        assert_eq!(faults.transfer_retries, 6, "{kind}: 2 retries x 3 sites");
        assert_eq!(faults.transfers_failed, 0, "{kind}");
        assert_eq!(faults.injected_kernel_panics, 1, "{kind}");
        assert_eq!(faults.lost_partitions, 1, "{kind}");
        assert_eq!(resilient.degraded_runs(), 1, "{kind}");
        assert!(resilient.replayed_actions() >= 2, "{kind}");

        // ...and the output is numerically identical to the fault-free run.
        let recovered = mm::collect_result(&ctx, &cfg_mm, &bufs).unwrap();
        assert_eq!(
            recovered.data, clean.data,
            "{kind}: faulted + recovered result must match the clean run bit-for-bit"
        );
    }

    // Every transfer's first two attempts fail: the retry policy absorbs
    // all of them, with no recovery pass.
    let transfers = ctx
        .program()
        .streams
        .iter()
        .flat_map(|s| &s.actions)
        .filter(|a| matches!(a, Action::Transfer { .. }))
        .count();
    ctx.set_fault_plan(Some(FaultPlan::seeded(2026).transfer_failures(1.0, 2)));
    for kind in SchedulerKind::all() {
        ctx.zero_buffers();
        mm::fill_inputs(&ctx, &cfg_mm, &bufs, 42).unwrap();
        ctx.set_scheduler(kind);
        let report = ctx
            .run_native()
            .unwrap_or_else(|e| panic!("{kind}: retries absorb every transfer fault: {e}"));
        assert_eq!(
            report.faults.transfer_retries,
            2 * transfers as u64,
            "{kind}: 2 retries x {transfers} transfers"
        );
        assert_eq!(report.faults.transfers_failed, 0, "{kind}");
        let retried = mm::collect_result(&ctx, &cfg_mm, &bufs).unwrap();
        assert_eq!(
            retried.data, clean.data,
            "{kind}: retried result must match the clean run bit-for-bit"
        );
    }
}

/// Every buffer's host copy, as bits.
fn host_bits(ctx: &Context) -> Vec<Vec<u32>> {
    (0..ctx.buffer_count())
        .map(|i| {
            let data = ctx.read_host(BufId(i)).unwrap();
            data.iter().map(|x| x.to_bits()).collect()
        })
        .collect()
}

/// `make()`'s app recorded at `tiles` tiles on a fresh `partitions`-way
/// context.
fn recorded(make: fn() -> Box<dyn Tunable>, partitions: usize, tiles: usize) -> Context {
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(partitions)
        .build()
        .unwrap();
    make().record(&mut ctx, tiles).unwrap();
    ctx
}

/// The first device kernel of stream 0 panics: the resilient run must
/// leave every buffer's host copy exactly as a clean run does.
fn resilient_run_matches_a_clean_run(make: fn() -> Box<dyn Tunable>, tiles: usize) {
    let name = make().name();
    let clean = recorded(make, 2, tiles);
    clean.run_native().unwrap();
    let want = host_bits(&clean);

    for kind in SchedulerKind::all() {
        let mut ctx = recorded(make, 2, tiles);
        ctx.set_scheduler(kind);
        let site = ctx.program().streams[0]
            .actions
            .iter()
            .position(|a| matches!(a, Action::Kernel(k) if !k.host))
            .expect("stream 0 records a device kernel");
        ctx.set_fault_plan(Some(FaultPlan::seeded(7).panic_kernel_at(0, site)));
        let resilient = ctx
            .run_native_resilient(&NativeConfig::default())
            .unwrap_or_else(|e| panic!("{name} {kind}: {e}"));
        assert_eq!(resilient.faults.injected_kernel_panics, 1, "{name} {kind}");
        assert_eq!(resilient.degraded_runs(), 1, "{name} {kind}");
        assert!(
            host_bits(&ctx) == want,
            "{name} {kind}: recovered outputs differ"
        );
    }
}

#[test]
fn resilient_hbench_matches_a_clean_run() {
    resilient_run_matches_a_clean_run(|| Box::new(TunableHbench::new(1 << 12, 4, Some(3))), 4);
}

#[test]
fn resilient_mm_matches_a_clean_run() {
    resilient_run_matches_a_clean_run(|| Box::new(TunableMm::new(48, Some(3))), 4);
}

#[test]
fn resilient_nn_matches_a_clean_run() {
    resilient_run_matches_a_clean_run(|| Box::new(TunableNn::new(1 << 12, Some(3))), 4);
}

#[test]
fn resilient_kmeans_matches_a_clean_run() {
    resilient_run_matches_a_clean_run(|| Box::new(TunableKmeans::new(1 << 10, 4, 2, Some(3))), 4);
}
