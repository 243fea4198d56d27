//! Fault-injection integration tests: a seeded [`FaultPlan`] must break the
//! native executor in exactly the planned places, retries and partition
//! loss must contain what they can, and everything they cannot contain
//! must surface as a typed error with recovery material — never a crashed
//! process, a hang, or silently wrong data.

use std::time::Duration;

use hstreams::kernel::KernelDesc;
use hstreams::{
    Context, Error, FaultPlan, NativeConfig, NativeReport, RecoveryState, Result, RunFailure,
};
use micsim::compute::KernelProfile;
use micsim::PlatformConfig;

fn small_ctx(partitions: usize) -> Context {
    Context::builder(PlatformConfig::phi_31sp())
        .partitions(partitions)
        .build()
        .unwrap()
}

fn add1_kernel(label: &str) -> KernelDesc {
    KernelDesc::simulated(label, KernelProfile::streaming("k", 1e9), 1.0).with_native(|k| {
        for (o, i) in k.writes[0].iter_mut().zip(k.reads[0]) {
            *o = i + 1.0;
        }
    })
}

/// Set `plan` on the context (it stays set for later runs) and run natively.
fn run_faulted(ctx: &mut Context, plan: FaultPlan) -> Result<NativeReport> {
    ctx.set_fault_plan(Some(plan));
    ctx.run_native()
}

/// What a native run that failed after it started carries.
fn failure(err: Error) -> Box<RunFailure> {
    match err {
        Error::Run(failure) => failure,
        other => panic!("expected a failed run, got {other:?}"),
    }
}

/// One stream, h2d → add1 → d2h. Returns (ctx, input buf, output buf).
fn roundtrip_ctx() -> (Context, hstreams::BufId, hstreams::BufId) {
    let mut ctx = small_ctx(1);
    let a = ctx.alloc("a", 8);
    let b = ctx.alloc("b", 8);
    ctx.write_host(a, &[1., 2., 3., 4., 5., 6., 7., 8.])
        .unwrap();
    let s = ctx.stream(0).unwrap();
    ctx.h2d(s, a).unwrap();
    ctx.kernel(s, add1_kernel("add1").reading([a]).writing([b]))
        .unwrap();
    ctx.d2h(s, b).unwrap();
    (ctx, a, b)
}

/// Two partitions, one independent h2d → add1 → d2h pipeline per stream.
fn two_lane_ctx() -> (Context, Vec<hstreams::BufId>, Vec<hstreams::BufId>) {
    let mut ctx = small_ctx(2);
    let mut ins = Vec::new();
    let mut outs = Vec::new();
    for lane in 0..2usize {
        let a = ctx.alloc(format!("a{lane}"), 4);
        let b = ctx.alloc(format!("b{lane}"), 4);
        let base = (lane * 10) as f32;
        ctx.write_host(a, &[base, base + 1.0, base + 2.0, base + 3.0])
            .unwrap();
        let s = ctx.stream(lane).unwrap();
        ctx.h2d(s, a).unwrap();
        ctx.kernel(
            s,
            add1_kernel(&format!("k{lane}")).reading([a]).writing([b]),
        )
        .unwrap();
        ctx.d2h(s, b).unwrap();
        ins.push(a);
        outs.push(b);
    }
    (ctx, ins, outs)
}

// ----- transfer retries -----------------------------------------------------

#[test]
fn transfer_retries_recover_and_are_counted() {
    let (mut ctx, _a, b) = roundtrip_ctx();
    // The h2d at (stream 0, action 0) fails twice; the budget of 3 retries
    // absorbs that.
    let plan = FaultPlan::seeded(1)
        .transfer_failures(0.0, 2)
        .fail_transfer_at(0, 0);
    let report = run_faulted(&mut ctx, plan).unwrap();
    assert_eq!(report.faults.transfer_retries, 2);
    assert_eq!(report.faults.transfers_failed, 0);
    assert_eq!(
        ctx.read_host(b).unwrap(),
        vec![2., 3., 4., 5., 6., 7., 8., 9.],
        "a retried transfer must still deliver the data"
    );

    // Every transfer fails twice: both executors read the one plan on the
    // context under the one retry policy, so both recover.
    ctx.set_fault_plan(Some(FaultPlan::seeded(1).transfer_failures(1.0, 2)));
    ctx.run_sim()
        .expect("the sim retries under the same policy");
    let report = ctx.run_native().expect("native retries absorb the faults");
    assert_eq!(
        report.faults.transfer_retries,
        2 * 2,
        "2 retries x 2 transfers"
    );
}

#[test]
fn exhausted_retry_budget_is_a_typed_fault() {
    let (mut ctx, _a, _b) = roundtrip_ctx();
    let plan = FaultPlan::seeded(1)
        .transfer_failures(0.0, 10)
        .fail_transfer_at(0, 0);
    let failure = failure(run_faulted(&mut ctx, plan).unwrap_err());
    match &failure.cause {
        Error::Fault { site, attempts } => {
            assert!(
                site.contains("transfer s0#0"),
                "site names the action: {site}"
            );
            // Initial attempt + 3 retries.
            assert_eq!(*attempts, 4);
        }
        other => panic!("expected Error::Fault, got {other:?}"),
    }
    let state = &failure.recovery;
    assert_eq!(state.faults.transfers_failed, 1);
    assert_eq!(state.faults.transfer_retries, 3);
}

// ----- kernel panics and partition loss -------------------------------------

#[test]
fn an_injected_device_panic_loses_its_only_partition() {
    let (mut ctx, _a, _b) = roundtrip_ctx();
    let plan = FaultPlan::seeded(2).panic_kernel_at(0, 1);
    let err = run_faulted(&mut ctx, plan).unwrap_err();
    assert!(
        matches!(
            err.cause(),
            Error::PartitionLost { device: 0, partition: 0, kernel } if kernel == "add1"
        ),
        "{err}"
    );
    let state = failure(err).recovery;
    assert_eq!(state.faults.injected_kernel_panics, 1);
    assert_eq!(state.faults.kernel_panics, 1);
    assert_eq!(state.lost, vec![(0, 0, "add1".to_string())]);
    // The kernel and the d2h of the buffer it never wrote.
    assert_eq!(state.skipped, vec![(0, 1), (0, 2)]);
    assert_eq!(state.fired, vec![(0, 1)]);
}

#[test]
fn an_injected_host_kernel_panic_loses_no_partition_and_recovers() {
    let mut ctx = small_ctx(1);
    let a = ctx.alloc("a", 4);
    let b = ctx.alloc("b", 4);
    ctx.write_host(a, &[1., 2., 3., 4.]).unwrap();
    let s = ctx.stream(0).unwrap();
    ctx.kernel(
        s,
        add1_kernel("host-add1").on_host().reading([a]).writing([b]),
    )
    .unwrap();
    let plan = FaultPlan::seeded(2).panic_kernel_at(0, 0);
    let err = run_faulted(&mut ctx, plan).unwrap_err();
    assert!(
        matches!(err.cause(), Error::KernelPanicked { kernel } if kernel == "host-add1"),
        "{err}"
    );
    let state = failure(err).recovery;
    assert!(
        state.lost.is_empty(),
        "a host kernel has no partition to lose"
    );
    assert_eq!(state.skipped, vec![(0, 0)]);
    // Its site already fired, so the recovery pass runs it cleanly.
    let resilient = ctx.run_native_resilient(&NativeConfig::default()).unwrap();
    assert_eq!(resilient.degraded_runs(), 1);
    assert_eq!(ctx.read_host(b).unwrap(), vec![2., 3., 4., 5.]);
}

#[test]
fn isolation_poisons_one_partition_and_spares_the_other() {
    let (mut ctx, _ins, outs) = two_lane_ctx();
    let plan = FaultPlan::seeded(3).panic_kernel_at(0, 1);
    let err = run_faulted(&mut ctx, plan).unwrap_err();
    assert!(
        matches!(
            err.cause(),
            Error::PartitionLost {
                device: 0,
                partition: 0,
                kernel
            } if kernel == "k0"
        ),
        "{err}"
    );
    // The healthy lane ran to completion despite the loss next door.
    assert_eq!(ctx.read_host(outs[1]).unwrap(), vec![11., 12., 13., 14.]);
    let state = failure(err).recovery;
    assert_eq!(state.lost, vec![(0, 0, "k0".to_string())]);
    // The poisoned lane's kernel and its tainted d2h were both skipped, in
    // program order.
    assert_eq!(state.skipped, vec![(0, 1), (0, 2)]);
    assert_eq!(state.faults.lost_partitions, 1);
    assert_eq!(state.faults.skipped_actions, 2);
}

#[test]
fn resilient_run_replays_lost_work_on_survivors() {
    let (mut ctx, _ins, outs) = two_lane_ctx();
    ctx.set_fault_plan(Some(FaultPlan::seeded(4).panic_kernel_at(0, 1)));
    let resilient = ctx
        .run_native_resilient(&NativeConfig::default())
        .expect("replay on the surviving partition recovers the run");
    assert_eq!(resilient.degraded_runs(), 1);
    assert_eq!(resilient.replayed_actions(), 2);
    assert_eq!(resilient.faults.lost_partitions, 1);
    assert_eq!(resilient.lost_partitions, vec![(0, 0, "k0".to_string())]);
    // Both lanes' outputs are exactly what a fault-free run produces.
    assert_eq!(ctx.read_host(outs[0]).unwrap(), vec![1., 2., 3., 4.]);
    assert_eq!(ctx.read_host(outs[1]).unwrap(), vec![11., 12., 13., 14.]);
    // The program is untouched: a clean re-run still works.
    ctx.set_fault_plan(None);
    ctx.run_native().unwrap();
    assert_eq!(ctx.read_host(outs[0]).unwrap(), vec![1., 2., 3., 4.]);
}

#[test]
fn resilient_run_gives_up_when_every_partition_dies() {
    let (mut ctx, _ins, _outs) = two_lane_ctx();
    // Both lanes' kernels panic: no survivor to replay on.
    let plan = FaultPlan::seeded(5)
        .panic_kernel_at(0, 1)
        .panic_kernel_at(1, 1);
    ctx.set_fault_plan(Some(plan));
    let err = ctx
        .run_native_resilient(&NativeConfig::default())
        .unwrap_err();
    assert!(matches!(err.cause(), Error::PartitionLost { .. }), "{err}");
    assert_eq!(failure(err).recovery.lost.len(), 2, "both partitions lost");
}

#[test]
fn a_skipped_kernel_keeps_its_input_from_a_later_writer() {
    // s1: h2d b, record e1, wait e2, y (b := 100), d2h b
    // s0: h2d a, w (a -> c), wait e1, x (d := b + 1), record e2, d2h d
    // w panics and takes partition 0, so x skips. y overwrites x's input
    // after x's turn: it must skip too, or the recovery pass reads 100.
    let mut ctx = small_ctx(2);
    let [a, b, c, d] = ["a", "b", "c", "d"].map(|name| ctx.alloc(name, 4));
    ctx.write_host(a, &[1.0; 4]).unwrap();
    ctx.write_host(b, &[5.0; 4]).unwrap();
    let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
    ctx.h2d(s1, b).unwrap();
    let e1 = ctx.record_event(s1).unwrap();
    ctx.h2d(s0, a).unwrap();
    ctx.kernel(s0, add1_kernel("w").reading([a]).writing([c]))
        .unwrap();
    ctx.wait_event(s0, e1).unwrap();
    ctx.kernel(s0, add1_kernel("x").reading([b]).writing([d]))
        .unwrap();
    let e2 = ctx.record_event(s0).unwrap();
    ctx.d2h(s0, d).unwrap();
    ctx.wait_event(s1, e2).unwrap();
    let fill = KernelDesc::simulated("y", KernelProfile::streaming("k", 1e9), 1.0)
        .writing([b])
        .with_native(|k| k.writes[0].fill(100.0));
    ctx.kernel(s1, fill).unwrap();
    ctx.d2h(s1, b).unwrap();

    ctx.set_fault_plan(Some(FaultPlan::seeded(11).panic_kernel_at(0, 1)));
    let resilient = ctx.run_native_resilient(&NativeConfig::default()).unwrap();
    assert_eq!(resilient.degraded_runs(), 1);
    assert_eq!(ctx.read_host(d).unwrap(), vec![6.0; 4]);
    assert_eq!(ctx.read_host(b).unwrap(), vec![100.0; 4]);
}

#[test]
fn a_skipped_sites_fault_fires_during_recovery() {
    // Lane 0's kernel panics, so its d2h — whose first two attempts fail —
    // never runs in the first pass. The plan stays live while the recovery
    // pass runs it: the retries happen there.
    let (mut ctx, _ins, outs) = two_lane_ctx();
    let plan = FaultPlan::seeded(12)
        .transfer_failures(0.0, 2)
        .fail_transfer_at(0, 2)
        .panic_kernel_at(0, 1);
    ctx.set_fault_plan(Some(plan));
    let resilient = ctx.run_native_resilient(&NativeConfig::default()).unwrap();
    assert_eq!(resilient.degraded_runs(), 1);
    assert_eq!(resilient.faults.injected_kernel_panics, 1);
    assert_eq!(resilient.faults.transfer_retries, 2);
    assert_eq!(ctx.read_host(outs[0]).unwrap(), vec![1., 2., 3., 4.]);
    assert_eq!(ctx.read_host(outs[1]).unwrap(), vec![11., 12., 13., 14.]);
}

// ----- replan / recovery interaction ----------------------------------------

/// Run the two-lane rig with a kernel panic on lane 0 and return the
/// context, its plan still set, with the failed run's recovery material.
fn poisoned_two_lane() -> (Context, RecoveryState) {
    let (mut ctx, _ins, _outs) = two_lane_ctx();
    let plan = FaultPlan::seeded(3).panic_kernel_at(0, 1);
    let err = run_faulted(&mut ctx, plan).unwrap_err();
    (ctx, failure(err).recovery)
}

/// Lift the plan and run `ctx` resiliently: nothing may be lost or re-run.
fn assert_runs_clean(ctx: &mut Context, why: &str) {
    ctx.set_fault_plan(None);
    let resilient = ctx.run_native_resilient(&NativeConfig::default()).unwrap();
    assert_eq!(resilient.degraded_runs(), 0, "{why}");
    assert!(resilient.lost_partitions.is_empty(), "{why}");
}

#[test]
fn replan_discards_stale_recovery_state() {
    // The recovery state's skipped/lost coordinates index the recorded
    // program. It travels in the failed run's error, so nothing of it
    // outlives a replan that throws that program away: the new geometry's
    // program runs with no poisoned partition left over.
    let (mut ctx, state) = poisoned_two_lane();
    assert_eq!(state.lost, vec![(0, 0, "k0".to_string())]);
    ctx.replan(1).unwrap();
    let s = ctx.stream(0).unwrap();
    ctx.h2d(s, hstreams::BufId(0)).unwrap();
    let k = add1_kernel("k").reading([hstreams::BufId(0)]);
    ctx.kernel(s, k.writing([hstreams::BufId(1)])).unwrap();
    ctx.d2h(s, hstreams::BufId(1)).unwrap();
    assert_runs_clean(&mut ctx, "replan must not strand poisoned-partition taint");
    assert_eq!(
        ctx.read_host(hstreams::BufId(1)).unwrap(),
        vec![1., 2., 3., 4.]
    );
}

#[test]
fn failed_replan_keeps_recovery_state_consumable() {
    // A rejected replan keeps the old geometry and program, so the failed
    // run's recovery material still indexes it — and a resilient run of
    // the same program under the same plan recovers.
    let (mut ctx, state) = poisoned_two_lane();
    assert!(ctx.replan(999).is_err());
    assert_eq!(state.skipped, vec![(0, 1), (0, 2)]);
    for &(si, ai) in &state.skipped {
        assert!(ctx.program().streams[si].actions.get(ai).is_some());
    }
    let resilient = ctx.run_native_resilient(&NativeConfig::default()).unwrap();
    assert_eq!(resilient.degraded_runs(), 1);
}

#[test]
fn reset_and_install_discard_stale_recovery_state() {
    let (mut ctx, _) = poisoned_two_lane();
    ctx.reset_program();
    assert_runs_clean(
        &mut ctx,
        "reset_program cleared the actions the state points into",
    );

    let (mut ctx2, _) = poisoned_two_lane();
    let replacement = ctx2.program().clone();
    ctx2.install_program(replacement).unwrap();
    assert_runs_clean(
        &mut ctx2,
        "install_program replaced the program the state points into",
    );
}

// ----- allocation faults ----------------------------------------------------

#[test]
fn alloc_fault_fails_before_any_work() {
    let (mut ctx, _a, _b) = roundtrip_ctx();
    let plan = FaultPlan::seeded(6).fail_alloc(1);
    let failure = failure(run_faulted(&mut ctx, plan).unwrap_err());
    match &failure.cause {
        Error::Fault { site, attempts } => {
            assert_eq!(site, "alloc b1");
            assert_eq!(*attempts, 1);
        }
        other => panic!("expected Error::Fault, got {other:?}"),
    }
    let state = &failure.recovery;
    assert_eq!(state.faults.alloc_faults, 1);
    assert!(state.skipped.is_empty(), "alloc faults are not replayable");
}

// ----- slow partitions ------------------------------------------------------

#[test]
fn slow_partition_stretches_native_kernel_occupancy() {
    let mut ctx = small_ctx(1);
    let a = ctx.alloc("a", 4);
    let s = ctx.stream(0).unwrap();
    ctx.kernel(
        s,
        KernelDesc::simulated("sleepy", KernelProfile::streaming("k", 1e9), 1.0)
            .writing([a])
            .with_native(|_| std::thread::sleep(Duration::from_millis(10))),
    )
    .unwrap();
    let plan = FaultPlan::seeded(7).slow_partition(0, 0, 4.0);
    let report = run_faulted(&mut ctx, plan).unwrap();
    // Body >= 10 ms, stretched to >= 4x by the injected slowdown.
    assert!(
        report.wall >= Duration::from_millis(35),
        "slowdown not applied: wall = {:?}",
        report.wall
    );
}

// ----- congested link -------------------------------------------------------

#[test]
fn transfer_slowdown_stretches_the_lane_span() {
    // The stretch is served while the lane is held, so it shows up as lane
    // occupation on the trace — not merely as wall time.
    let mut ctx = small_ctx(1);
    let a = ctx.alloc("a", 1 << 12); // 16 KiB
    let s = ctx.stream(0).unwrap();
    ctx.h2d(s, a).unwrap();
    ctx.set_fault_plan(Some(FaultPlan::seeded(7).transfer_slowdowns(1.0, 4.0)));
    let report = ctx
        .run_native_with(&NativeConfig {
            trace: true,
            link_bandwidth: Some(8.0e6), // ~2 ms healthy
            ..NativeConfig::default()
        })
        .unwrap();
    let trace = report.trace.unwrap();
    let span = trace
        .timeline
        .records
        .iter()
        .find(|r| r.resource == Some(trace.kinds.links[0]))
        .expect("the transfer's lane span");
    let held = span.finish - span.start;
    // 16 KiB at 8 MB/s is 2.048 ms; ×4 = 8.2 ms.
    assert!(
        held.nanos() >= 8_000_000,
        "slowdown not served on the lane: held {held:?}"
    );
}

// ----- fault-free plans are inert -------------------------------------------

#[test]
fn fault_free_plan_changes_nothing() {
    let (mut ctx, _a, b) = roundtrip_ctx();
    let clean = ctx.run_native().unwrap();
    let expected = ctx.read_host(b).unwrap();
    let report = run_faulted(&mut ctx, FaultPlan::seeded(99)).unwrap();
    assert_eq!(report.faults, hstreams::FaultCounters::default());
    assert_eq!(report.bytes_transferred, clean.bytes_transferred);
    assert_eq!(ctx.read_host(b).unwrap(), expected);
}

// ----- post-panic runtime reuse (satellite) ---------------------------------

#[test]
fn persistent_runtime_is_clean_after_a_panicked_run() {
    let mut ctx = small_ctx(1);
    let a = ctx.alloc("a", 100);
    let b = ctx.alloc("b", 100);
    ctx.write_host(a, &vec![1.0; 100]).unwrap();
    let s = ctx.stream(0).unwrap();
    ctx.h2d(s, a).unwrap();
    ctx.kernel(
        s,
        KernelDesc::simulated("boom", KernelProfile::streaming("k", 1e9), 1.0)
            .reading([a])
            .writing([b])
            .with_native(|_| panic!("kaboom")),
    )
    .unwrap();
    ctx.d2h(s, b).unwrap();
    let traced = NativeConfig {
        trace: true,
        ..NativeConfig::default()
    };
    let err = ctx.run_native_with(&traced).unwrap_err();
    assert!(matches!(err.cause(), Error::PartitionLost { .. }));
    let threads = ctx.native_thread_count().expect("runtime built");
    // The failed run's partial trace travels in its error.
    assert!(failure(err).trace.is_some());

    // Second run on the SAME runtime: a healthy program must see no stale
    // lane tickets, byte counts, or trace buffers.
    ctx.reset_program();
    ctx.h2d(s, a).unwrap();
    ctx.kernel(s, add1_kernel("add1").reading([a]).writing([b]))
        .unwrap();
    ctx.d2h(s, b).unwrap();
    let report = ctx.run_native_with(&traced).unwrap();
    let elem = std::mem::size_of::<hstreams::Elem>() as u64;
    assert_eq!(
        report.bytes_transferred,
        200 * elem,
        "byte counter carries nothing over from the panicked run"
    );
    assert_eq!(ctx.read_host(b).unwrap(), vec![2.0; 100]);
    assert_eq!(
        ctx.native_thread_count(),
        Some(threads),
        "no threads respawned after the panic"
    );
    let trace = report.trace.expect("traced run");
    let labels: Vec<String> = trace
        .timeline
        .records
        .iter()
        .map(|r| trace.label(r))
        .collect();
    assert!(
        !labels.iter().any(|l| l.contains("boom")),
        "stale span from the panicked run leaked into the new trace: {labels:?}"
    );
    assert!(labels.iter().any(|l| l.contains("add1")), "{labels:?}");
    assert_eq!(report.faults, hstreams::FaultCounters::default());
}

// ----- sim-side pricing -----------------------------------------------------

#[test]
fn sim_prices_retries_on_the_link() {
    let (mut ctx, _a, _b) = roundtrip_ctx();
    let clean = ctx.run_sim().unwrap().makespan();
    let plan = FaultPlan::seeded(8)
        .transfer_failures(0.0, 2)
        .fail_transfer_at(0, 0);
    ctx.set_fault_plan(Some(plan));
    let faulted = ctx.run_sim().unwrap().makespan();
    assert!(
        faulted > clean,
        "failed attempts + backoff must cost time: {faulted:?} vs {clean:?}"
    );
}

#[test]
fn sim_surfaces_exhausted_retries_and_panics_as_typed_errors() {
    let (mut ctx, _a, _b) = roundtrip_ctx();
    let give_up = FaultPlan::seeded(9)
        .transfer_failures(0.0, 10)
        .fail_transfer_at(0, 0);
    ctx.set_fault_plan(Some(give_up));
    assert!(matches!(
        ctx.run_sim(),
        Err(Error::Fault { attempts: 4, .. })
    ));
    ctx.set_fault_plan(Some(FaultPlan::seeded(9).panic_kernel_at(0, 1)));
    assert!(matches!(
        ctx.run_sim(),
        Err(Error::PartitionLost {
            device: 0,
            partition: 0,
            ..
        })
    ));
    ctx.set_fault_plan(Some(FaultPlan::seeded(9).fail_alloc(0)));
    assert!(matches!(
        ctx.run_sim(),
        Err(Error::Fault { attempts: 1, .. })
    ));
}

#[test]
fn sim_slow_partition_stretches_the_makespan() {
    let (mut ctx, _a, _b) = roundtrip_ctx();
    let clean = ctx.run_sim().unwrap().makespan();
    ctx.set_fault_plan(Some(FaultPlan::seeded(10).slow_partition(0, 0, 3.0)));
    let slowed = ctx.run_sim().unwrap().makespan();
    assert!(slowed > clean, "{slowed:?} vs {clean:?}");
}
