//! Integration tests for the static analyzer as wired into the runtime:
//! both executors refuse error-severity programs, a refusal carries its
//! report, and [`Context::analyze`] returns it without running anything.

use hstreams::check::{analyze, CheckCode, CheckEnv, Severity};
use hstreams::context::Context;
use hstreams::kernel::KernelDesc;
use hstreams::program::{EventSite, Program};
use hstreams::types::{Error, EventId, StreamId};
use micsim::compute::KernelProfile;
use micsim::PlatformConfig;

fn ctx(partitions: usize) -> Context {
    Context::builder(PlatformConfig::phi_31sp())
        .partitions(partitions)
        .build()
        .unwrap()
}

fn native_kernel(label: &str) -> KernelDesc {
    KernelDesc::simulated(label, KernelProfile::streaming("k", 1e9), 1.0).with_native(|k| {
        for w in k.writes.iter_mut() {
            for x in w.iter_mut() {
                *x += 1.0;
            }
        }
    })
}

/// Two streams write the same buffer with no ordering — constructible
/// through the public API, unlike a deadlock (the API's record-before-wait
/// rule makes event cycles impossible to record; see `check_suite`'s
/// program-level test below for that shape).
fn record_racy_program(ctx: &mut Context) {
    let a = ctx.alloc("a", 64);
    for i in 0..2 {
        let s = ctx.stream(i).unwrap();
        ctx.kernel(s, native_kernel(&format!("w{i}")).writing([a]))
            .unwrap();
    }
}

#[test]
fn sim_refuses_racy_program_by_default() {
    let mut c = ctx(2);
    record_racy_program(&mut c);
    let err = c.run_sim().unwrap_err();
    assert!(err_msg_mentions_check(&err));
    let Error::Check(report) = err else {
        panic!("expected Error::Check, got: {err}");
    };
    assert!(report.errors().any(|d| d.code == CheckCode::Race));
    // The refusal carries the whole report: the one `analyze` returns.
    assert_eq!(report.render(), c.analyze().report.render());
}

fn err_msg_mentions_check(err: &Error) -> bool {
    err.to_string().contains("static check")
}

#[test]
fn native_refuses_racy_program_by_default() {
    let mut c = ctx(2);
    record_racy_program(&mut c);
    assert!(matches!(c.run_native(), Err(Error::Check(_))));
}

#[test]
fn clean_program_runs_with_enforcement_and_reports_clean() {
    let mut c = ctx(2);
    let a = c.alloc("a", 64);
    let b = c.alloc("b", 64);
    let (s0, s1) = (c.stream(0).unwrap(), c.stream(1).unwrap());
    c.h2d(s0, a).unwrap();
    let e = c.record_event(s0).unwrap();
    c.wait_event(s1, e).unwrap();
    c.kernel(s1, native_kernel("k").reading([a]).writing([b]))
        .unwrap();
    c.d2h(s1, b).unwrap();
    c.run_sim().unwrap();
    let report = c.analyze().report;
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.warnings().count(), 0);
    c.run_native().unwrap();
}

#[test]
fn mutual_wait_program_is_rejected_at_the_check_layer() {
    // The two-stream mutual wait `validate()` accepts: built directly as
    // a Program (the recording API cannot produce it — every wait follows
    // its record in call order, so API programs are cycle-free).
    let mut p = Program::default();
    let c = ctx(2);
    p.streams.clone_from(&c.program().streams); // two placed, empty streams
    p.streams[0].actions = vec![
        hstreams::action::Action::WaitEvent(EventId(1)),
        hstreams::action::Action::RecordEvent(EventId(0)),
    ];
    p.streams[1].actions = vec![
        hstreams::action::Action::WaitEvent(EventId(0)),
        hstreams::action::Action::RecordEvent(EventId(1)),
    ];
    p.events.push(EventSite {
        stream: StreamId(0),
        action_index: 1,
    });
    p.events.push(EventSite {
        stream: StreamId(1),
        action_index: 1,
    });
    p.validate().unwrap();
    let analysis = analyze(&p, &CheckEnv::permissive(&p));
    let deadlock = analysis
        .report
        .errors()
        .find(|d| d.code == CheckCode::DeadlockCycle)
        .expect("deadlock detected");
    assert_eq!(deadlock.severity(), Severity::Error);
    // The annotated dump points at an action on the cycle.
    let text = p.dump_annotated(&analysis.report);
    assert!(text.contains("^ error[deadlock-cycle]"), "{text}");
}

#[test]
fn resilient_runs_recover_under_enforced_checking() {
    // A resilient run with an injected kernel panic re-plans the lost
    // nodes over the checker's task graph; with checking enforced the run
    // still recovers.
    use hstreams::{FaultPlan, NativeConfig};
    let mut c = ctx(2);
    let a = c.alloc("a", 64);
    let b = c.alloc("b", 64);
    for (i, &buf) in [a, b].iter().enumerate() {
        let s = c.stream(i).unwrap();
        c.h2d(s, buf).unwrap();
        c.kernel(s, native_kernel(&format!("k{i}")).writing([buf]))
            .unwrap();
        c.d2h(s, buf).unwrap();
    }
    c.set_fault_plan(Some(FaultPlan::seeded(7).panic_kernel_at(1, 1)));
    let report = c.run_native_resilient(&NativeConfig::default()).unwrap();
    assert!(
        report.faults.degraded_runs >= 1,
        "recovery actually happened"
    );
    assert_eq!(c.read_host(b).unwrap()[0], 1.0, "lost work re-run");
}
