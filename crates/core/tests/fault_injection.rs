//! Fault-injection integration tests: a seeded [`FaultPlan`] must break the
//! native executor in exactly the planned places, retries and partition
//! loss must contain what they can, and everything they cannot contain
//! must surface as a typed error with recovery material — never a crashed
//! process, a hang, or silently wrong data.

use std::sync::Arc;
use std::time::Duration;

use hstreams::kernel::KernelDesc;
use hstreams::{Context, Error, FaultPlan, NativeConfig};
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

fn faulted_cfg(plan: FaultPlan) -> NativeConfig {
    NativeConfig {
        fault: Some(Arc::new(plan)),
        ..NativeConfig::default()
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
    let (ctx, _a, b) = roundtrip_ctx();
    // The h2d at (stream 0, action 0) fails twice; the default budget of 3
    // retries absorbs that.
    let plan = FaultPlan::seeded(1)
        .transfer_failures(0.0, 2)
        .fail_transfer_at(0, 0);
    let report = ctx.run_native_with(&faulted_cfg(plan)).unwrap();
    assert_eq!(report.faults.transfer_retries, 2);
    assert_eq!(report.faults.transfers_failed, 0);
    assert_eq!(
        ctx.read_host(b).unwrap(),
        vec![2., 3., 4., 5., 6., 7., 8., 9.],
        "a retried transfer must still deliver the data"
    );
}

#[test]
fn exhausted_retry_budget_is_a_typed_fault() {
    let (ctx, _a, _b) = roundtrip_ctx();
    let plan = FaultPlan::seeded(1)
        .transfer_failures(0.0, 10)
        .fail_transfer_at(0, 0);
    let err = ctx.run_native_with(&faulted_cfg(plan)).unwrap_err();
    match err {
        Error::Fault { site, attempts } => {
            assert!(
                site.contains("transfer s0#0"),
                "site names the action: {site}"
            );
            // Initial attempt + 3 retries.
            assert_eq!(attempts, 4);
        }
        other => panic!("expected Error::Fault, got {other:?}"),
    }
    let state = ctx.take_recovery_state().expect("failed run leaves state");
    assert_eq!(state.faults.transfers_failed, 1);
    assert_eq!(state.faults.transfer_retries, 3);
}

// ----- kernel panics and partition loss -------------------------------------

#[test]
fn an_injected_device_panic_loses_its_only_partition() {
    let (ctx, _a, _b) = roundtrip_ctx();
    let plan = FaultPlan::seeded(2).panic_kernel_at(0, 1);
    let err = ctx.run_native_with(&faulted_cfg(plan)).unwrap_err();
    assert!(
        matches!(
            err,
            Error::PartitionLost { device: 0, partition: 0, ref kernel } if kernel == "add1"
        ),
        "{err}"
    );
    let state = ctx.take_recovery_state().unwrap();
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
    let err = ctx.run_native_with(&faulted_cfg(plan.clone())).unwrap_err();
    assert!(
        matches!(err, Error::KernelPanicked { ref kernel } if kernel == "host-add1"),
        "{err}"
    );
    let state = ctx.take_recovery_state().unwrap();
    assert!(
        state.lost.is_empty(),
        "a host kernel has no partition to lose"
    );
    assert_eq!(state.skipped, vec![(0, 0)]);
    // Its site already fired, so the recovery pass runs it cleanly.
    let resilient = ctx.run_native_resilient(&faulted_cfg(plan)).unwrap();
    assert_eq!(resilient.degraded_runs(), 1);
    assert_eq!(ctx.read_host(b).unwrap(), vec![2., 3., 4., 5.]);
}

#[test]
fn isolation_poisons_one_partition_and_spares_the_other() {
    let (ctx, _ins, outs) = two_lane_ctx();
    let plan = FaultPlan::seeded(3).panic_kernel_at(0, 1);
    let err = ctx.run_native_with(&faulted_cfg(plan)).unwrap_err();
    assert!(
        matches!(
            err,
            Error::PartitionLost {
                device: 0,
                partition: 0,
                ref kernel
            } if kernel == "k0"
        ),
        "{err}"
    );
    // The healthy lane ran to completion despite the loss next door.
    assert_eq!(ctx.read_host(outs[1]).unwrap(), vec![11., 12., 13., 14.]);
    let state = ctx.take_recovery_state().unwrap();
    assert_eq!(state.lost, vec![(0, 0, "k0".to_string())]);
    // The poisoned lane's kernel and its tainted d2h were both skipped, in
    // program order.
    assert_eq!(state.skipped, vec![(0, 1), (0, 2)]);
    assert_eq!(state.faults.lost_partitions, 1);
    assert_eq!(state.faults.skipped_actions, 2);
}

#[test]
fn resilient_run_replays_lost_work_on_survivors() {
    let (ctx, _ins, outs) = two_lane_ctx();
    let plan = FaultPlan::seeded(4).panic_kernel_at(0, 1);
    let resilient = ctx
        .run_native_resilient(&faulted_cfg(plan))
        .expect("replay on the surviving partition recovers the run");
    assert_eq!(resilient.degraded_runs(), 1);
    assert_eq!(resilient.replayed_actions(), 2);
    assert_eq!(resilient.faults.lost_partitions, 1);
    assert_eq!(resilient.lost_partitions, vec![(0, 0, "k0".to_string())]);
    // Both lanes' outputs are exactly what a fault-free run produces.
    assert_eq!(ctx.read_host(outs[0]).unwrap(), vec![1., 2., 3., 4.]);
    assert_eq!(ctx.read_host(outs[1]).unwrap(), vec![11., 12., 13., 14.]);
    // The program is untouched: a clean re-run still works.
    ctx.run_native().unwrap();
    assert_eq!(ctx.read_host(outs[0]).unwrap(), vec![1., 2., 3., 4.]);
}

#[test]
fn resilient_run_gives_up_when_every_partition_dies() {
    let (ctx, _ins, _outs) = two_lane_ctx();
    // Both lanes' kernels panic: no survivor to replay on.
    let plan = FaultPlan::seeded(5)
        .panic_kernel_at(0, 1)
        .panic_kernel_at(1, 1);
    let err = ctx.run_native_resilient(&faulted_cfg(plan)).unwrap_err();
    assert!(matches!(err, Error::PartitionLost { .. }), "{err}");
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

    let plan = FaultPlan::seeded(11).panic_kernel_at(0, 1);
    let resilient = ctx.run_native_resilient(&faulted_cfg(plan)).unwrap();
    assert_eq!(resilient.degraded_runs(), 1);
    assert_eq!(ctx.read_host(d).unwrap(), vec![6.0; 4]);
    assert_eq!(ctx.read_host(b).unwrap(), vec![100.0; 4]);
}

#[test]
fn a_skipped_sites_fault_fires_during_recovery() {
    // Lane 0's kernel panics, so its d2h — whose first two attempts fail —
    // never runs in the first pass. The plan stays live while the recovery
    // pass runs it: the retries happen there.
    let (ctx, _ins, outs) = two_lane_ctx();
    let plan = FaultPlan::seeded(12)
        .transfer_failures(0.0, 2)
        .fail_transfer_at(0, 2)
        .panic_kernel_at(0, 1);
    let resilient = ctx.run_native_resilient(&faulted_cfg(plan)).unwrap();
    assert_eq!(resilient.degraded_runs(), 1);
    assert_eq!(resilient.faults.injected_kernel_panics, 1);
    assert_eq!(resilient.faults.transfer_retries, 2);
    assert_eq!(ctx.read_host(outs[0]).unwrap(), vec![1., 2., 3., 4.]);
    assert_eq!(ctx.read_host(outs[1]).unwrap(), vec![11., 12., 13., 14.]);
}

// ----- replan / recovery interaction ----------------------------------------

/// Leave a pending `RecoveryState` behind by running the two-lane rig
/// with a kernel panic on lane 0.
fn poisoned_two_lane() -> Context {
    let (ctx, _ins, _outs) = two_lane_ctx();
    let plan = FaultPlan::seeded(3).panic_kernel_at(0, 1);
    ctx.run_native_with(&faulted_cfg(plan)).unwrap_err();
    ctx
}

#[test]
fn replan_discards_stale_recovery_state() {
    // The recovery state's skipped/lost coordinates index the recorded
    // program; a successful replan throws that program away, so keeping
    // the state would hand a later resilient replay coordinates into a
    // freshly rebuilt (empty) stream set.
    let mut ctx = poisoned_two_lane();
    ctx.replan(1).unwrap();
    assert!(
        ctx.take_recovery_state().is_none(),
        "replan must not strand poisoned-partition taint"
    );
}

#[test]
fn failed_replan_keeps_recovery_state_consumable() {
    // A rejected replan keeps the old geometry and program, so the
    // pending recovery material is still valid — and must survive.
    let mut ctx = poisoned_two_lane();
    assert!(ctx.replan(999).is_err());
    let state = ctx
        .take_recovery_state()
        .expect("rejected replan leaves the pending recovery state intact");
    assert_eq!(state.skipped, vec![(0, 1), (0, 2)]);
}

#[test]
fn reset_and_install_discard_stale_recovery_state() {
    let mut ctx = poisoned_two_lane();
    ctx.reset_program();
    assert!(
        ctx.take_recovery_state().is_none(),
        "reset_program cleared the actions the state points into"
    );

    let ctx2 = poisoned_two_lane();
    let mut ctx2 = ctx2;
    let replacement = ctx2.program().clone();
    ctx2.install_program(replacement).unwrap();
    assert!(
        ctx2.take_recovery_state().is_none(),
        "install_program replaced the program the state points into"
    );
}

// ----- allocation faults ----------------------------------------------------

#[test]
fn alloc_fault_fails_before_any_work() {
    let (ctx, _a, _b) = roundtrip_ctx();
    let plan = FaultPlan::seeded(6).fail_alloc(1);
    let err = ctx.run_native_with(&faulted_cfg(plan)).unwrap_err();
    match err {
        Error::Fault { site, attempts } => {
            assert_eq!(site, "alloc b1");
            assert_eq!(attempts, 1);
        }
        other => panic!("expected Error::Fault, got {other:?}"),
    }
    let state = ctx.take_recovery_state().unwrap();
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
    let report = ctx.run_native_with(&faulted_cfg(plan)).unwrap();
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
    let plan = FaultPlan::seeded(7).transfer_slowdowns(1.0, 4.0);
    let report = ctx
        .run_native_with(&NativeConfig {
            trace: true,
            link_bandwidth: Some(8.0e6), // ~2 ms healthy
            ..faulted_cfg(plan)
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
    let (ctx, _a, b) = roundtrip_ctx();
    let clean = ctx.run_native().unwrap();
    let expected = ctx.read_host(b).unwrap();
    let report = ctx
        .run_native_with(&faulted_cfg(FaultPlan::seeded(99)))
        .unwrap();
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
    assert!(matches!(
        ctx.run_native_with(&traced),
        Err(Error::PartitionLost { .. })
    ));
    let threads = ctx.native_thread_count().expect("runtime built");
    // Drop the partial trace the failed run published.
    assert!(ctx.take_native_trace().is_some());

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
    let labels: Vec<&str> = trace
        .timeline
        .records
        .iter()
        .map(|r| r.label.as_str())
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
    let (ctx, _a, _b) = roundtrip_ctx();
    let clean = ctx.run_sim().unwrap().makespan();
    let plan = FaultPlan::seeded(8)
        .transfer_failures(0.0, 2)
        .fail_transfer_at(0, 0);
    let faulted = ctx.run_sim_faulted(&plan).unwrap().makespan();
    assert!(
        faulted > clean,
        "failed attempts + backoff must cost time: {faulted:?} vs {clean:?}"
    );
}

#[test]
fn sim_surfaces_exhausted_retries_and_panics_as_typed_errors() {
    let (ctx, _a, _b) = roundtrip_ctx();
    let give_up = FaultPlan::seeded(9)
        .transfer_failures(0.0, 10)
        .fail_transfer_at(0, 0);
    assert!(matches!(
        ctx.run_sim_faulted(&give_up),
        Err(Error::Fault { attempts: 4, .. })
    ));
    let panic_plan = FaultPlan::seeded(9).panic_kernel_at(0, 1);
    assert!(matches!(
        ctx.run_sim_faulted(&panic_plan),
        Err(Error::PartitionLost {
            device: 0,
            partition: 0,
            ..
        })
    ));
    let alloc_plan = FaultPlan::seeded(9).fail_alloc(0);
    assert!(matches!(
        ctx.run_sim_faulted(&alloc_plan),
        Err(Error::Fault { attempts: 1, .. })
    ));
}

#[test]
fn sim_slow_partition_stretches_the_makespan() {
    let (ctx, _a, _b) = roundtrip_ctx();
    let clean = ctx.run_sim().unwrap().makespan();
    let plan = FaultPlan::seeded(10).slow_partition(0, 0, 3.0);
    let slowed = ctx.run_sim_faulted(&plan).unwrap().makespan();
    assert!(slowed > clean, "{slowed:?} vs {clean:?}");
}
