//! Program executors.
//!
//! Both executors interpret the same recorded [`Program`](crate::program::Program):
//!
//! * [`sim`] lowers it onto the `micsim` discrete-event engine and returns
//!   exact simulated timings on the calibrated Phi platform;
//! * [`native`] executes it for real — per-stream driver threads, a FIFO
//!   lane lock per link channel standing in for the PCIe link, and kernels
//!   running on partitioned host thread pools.
//!
//! The pair is the point: the simulator reproduces the paper's measured
//! shapes, the native executor proves the runtime semantics are real and
//! the kernels compute correct results. So both take their `Walk` from one
//! front end, `prepare`: they refuse the same programs, in the same
//! order, and walk the same graph. What stays with one executor is only
//! what the other cannot mean — the native executor's missing-body refusal
//! and empty-program shortcut, its recovery passes.

pub mod native;
pub mod sim;

use crate::action::Action;
use crate::buffer::Buffer;
use crate::check::{wait_cycle, CheckMode, HbGraph};
use crate::context::Context;
use crate::sched::{plan_analyzed, CostModel, Schedule, SchedulerKind, TaskGraph};
use crate::types::{Error, Result};

/// What an executor walks: which node comes next, on which lane or driver,
/// after which earlier nodes.
pub(crate) enum Walk {
    /// The recorded program: its acyclic happens-before graph — per-stream
    /// FIFO, event edges from the events table, barrier joins — each node
    /// on its stream's lane, after its predecessors.
    Recorded(HbGraph),
    /// A plan: `schedule.tasks` in order, each on the lane and driver it was
    /// placed on, after its `graph.preds`. A plan may cover part of the
    /// graph — a native recovery pass re-runs the lost nodes alone.
    Scheduled(Schedule, TaskGraph),
}

/// Everything both executors do before their first action, once and in
/// one order: validate the program; the check gate (analyze under the
/// context's [`CheckMode`], refuse error-severity findings when enforcing
/// — a FIFO run in mode `Off` analyzes nothing); refuse live buffers that
/// exceed one card's memory (every buffer conceptually has an instance on
/// each card it is used from); fire the fault plan's allocation faults;
/// plan under a non-FIFO scheduler, or else take the gate's happens-before
/// graph (built here when the gate made none) and refuse its wait cycle;
/// refuse an events table that disagrees with the event actions, which the
/// graph's event edges follow.
///
/// A plan is priced by `cost`, or by a model built here when the caller has
/// none — only then: a FIFO run builds no cost model.
pub(crate) fn prepare(ctx: &Context, cost: Option<&CostModel>) -> Result<Walk> {
    let program = ctx.program();
    program.validate()?;
    let kind = ctx.scheduler();
    let analysis = match (ctx.check_mode(), kind) {
        (CheckMode::Off, SchedulerKind::Fifo) => None,
        (mode, _) => {
            let made = ctx.analyze();
            if mode == CheckMode::Enforce && !made.report.is_clean() {
                return Err(Error::Check(Box::new(made.report)));
            }
            Some(made)
        }
    };
    let capacity = ctx.config().device.memory_bytes;
    let requested: u64 = ctx.buffers.iter().map(Buffer::bytes).sum();
    if requested > capacity {
        return Err(Error::OutOfMemory {
            requested,
            capacity,
        });
    }
    if let Some(plan) = &ctx.fault_plan {
        if let Some(i) = (0..ctx.buffer_count()).find(|&i| plan.alloc_fails(i)) {
            return Err(Error::Fault {
                site: format!("alloc b{i}"),
                attempts: 1,
            });
        }
    }
    // Unclean or empty programs fall back to the recorded order.
    let planned = match (&analysis, cost) {
        (None, _) => None,
        (Some(_), _) if kind == SchedulerKind::Fifo => None,
        (Some(made), Some(cost)) => plan_analyzed(program, made, cost, kind),
        (Some(made), None) => plan_analyzed(program, made, &ctx.cost_model()?, kind),
    };
    let walk = match planned {
        Some((schedule, graph)) => Walk::Scheduled(schedule, graph),
        None => {
            let hb = analysis.map_or_else(|| HbGraph::build(program), |made| made.hb);
            hb.order().map_err(wait_cycle)?;
            Walk::Recorded(hb)
        }
    };
    for (si, stream) in program.streams.iter().enumerate() {
        for (ai, action) in stream.actions.iter().enumerate() {
            if let Action::RecordEvent(e) | Action::WaitEvent(e) = action {
                if !program.event_site_matches(si, ai) {
                    return Err(Error::UnknownEvent(*e));
                }
            }
        }
    }
    Ok(walk)
}

#[cfg(test)]
mod tests {
    use crate::action::Action;
    use crate::context::Context;
    use crate::fault::FaultPlan;
    use crate::types::{BufId, Error};
    use crate::{CheckMode, SchedulerKind};
    use micsim::PlatformConfig;

    /// Two streams over two partitions and one small buffer `a`, streamed
    /// in on stream 0 and out on stream 1 behind an event: a clean program
    /// each row breaks in one way.
    fn clean() -> Context {
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .build()
            .unwrap();
        let a = ctx.alloc("a", 8);
        let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
        ctx.h2d(s0, a).unwrap();
        let e = ctx.record_event(s0).unwrap();
        ctx.wait_event(s1, e).unwrap();
        ctx.d2h(s1, a).unwrap();
        ctx
    }

    #[test]
    fn both_executors_refuse_the_same_programs() {
        use CheckMode::{Enforce, Off, WarnOnly};
        const EVERY_MODE: &[CheckMode] = &[Off, WarnOnly, Enforce];
        type Row = (&'static str, &'static [CheckMode], fn() -> Context);
        let rows: [Row; 6] = [
            ("an invalid barrier sequence", EVERY_MODE, || {
                let mut ctx = clean();
                ctx.barrier();
                ctx.program_mut().streams[1].actions.pop();
                ctx
            }),
            ("a race", &[Enforce], || {
                // A second h2d of `a`, unordered with stream 1's d2h.
                let mut ctx = clean();
                ctx.h2d(ctx.stream(0).unwrap(), BufId(0)).unwrap();
                ctx
            }),
            ("a wait cycle", &[Off], || {
                // Stream 0 first waits for a record stream 1 makes last.
                let mut ctx = clean();
                let back = ctx.record_event(ctx.stream(1).unwrap()).unwrap();
                let program = ctx.program_mut();
                program.streams[0]
                    .actions
                    .insert(0, Action::WaitEvent(back));
                program.events[0].action_index += 1;
                ctx
            }),
            (
                "an events table that points at a non-record",
                &[Off, WarnOnly],
                || {
                    let mut ctx = clean();
                    ctx.program_mut().events[0].action_index = 0;
                    ctx
                },
            ),
            ("an allocation fault", EVERY_MODE, || {
                let mut ctx = clean();
                ctx.set_fault_plan(Some(FaultPlan::seeded(1).fail_alloc(0)));
                ctx
            }),
            ("a program larger than one card", EVERY_MODE, || {
                let mut ctx = clean();
                // 9 GiB of lazy buffers on an 8 GiB card: nothing is backed.
                for i in 0..9 {
                    ctx.alloc(format!("g{i}"), 1 << 28);
                }
                ctx
            }),
        ];
        // A refusal's report carries how long the analysis took.
        let shape = |err: &Error| match err {
            Error::Check(report) => format!("Check({:?})", report.diagnostics),
            refused => format!("{refused:?}"),
        };
        for (defect, modes, build) in rows {
            for kind in [SchedulerKind::Fifo, SchedulerKind::ListHeft] {
                for &mode in modes {
                    let mut ctx = build();
                    ctx.set_scheduler(kind);
                    ctx.set_check_mode(mode);
                    let at = format!("{defect} under {kind:?}, {mode:?}");
                    let sim = ctx.run_sim().map(|_| ()).expect_err(&at);
                    let native = match ctx.run_native().map(|_| ()).expect_err(&at) {
                        Error::Run(failure) => failure.cause,
                        refused => refused,
                    };
                    assert_eq!(shape(&sim), shape(&native), "{at}");
                }
            }
        }
    }
}
