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
//! and empty-program shortcut, its recovery passes, and its `WalkMemo`:
//! a native run of a program it already walked reuses that walk.

pub mod native;
pub mod sim;

use micsim::pcie::Direction;

use crate::action::Action;
use crate::buffer::Buffer;
use crate::check::{wait_cycle, HbGraph};
use crate::context::Context;
use crate::kernel::KernelDesc;
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

/// A recorded walk kept for the next run of the same program: the key of
/// the program last admitted, its happens-before graph shed to the edges
/// the drivers read, and whether a run of it got as far as backing its
/// buffers. The native runtime keeps one behind its run lock, so a run
/// that repeats a program — the paper's measurement loop, a re-recorded
/// op — derives and backs nothing the key already pins. The simulator
/// keeps none: a tuning sweep prices a new program per candidate, so every
/// walk would miss and pay for the copy.
#[derive(Default)]
pub(crate) struct WalkMemo {
    /// Everything `check::analyze` and `HbGraph::build` read, one word per
    /// field (see [`WalkMemo::admit`]).
    key: Vec<u32>,
    /// The key's graph, with only its edges left — `None` until a recorded
    /// run hands one back, and while a run walks it.
    graph: Option<HbGraph>,
    /// A run of the key's program reached the native `execute`: its
    /// `prepare` passed `Program::validate` and the analyzer, both
    /// functions of the key alone, and it backed every buffer the program
    /// touches. Backed storage never shrinks (see [`crate::buffer`]) and the
    /// key holds the buffer count and every buffer an action names, so the
    /// buffers stay backed.
    ran: bool,
}

impl WalkMemo {
    /// Make the key describe `ctx`'s program and plan: compare word by
    /// word, and from the first difference on rewrite it in place and
    /// forget the graph and the `ran` bit. The same pass finds the first
    /// kernel without a native body, which the native executor refuses once
    /// the front end's own refusals are through.
    pub(crate) fn admit<'c>(&mut self, ctx: &'c Context) -> Option<&'c KernelDesc> {
        let mut key = KeyWriter {
            key: &mut self.key,
            at: 0,
            same: true,
        };
        let env = ctx.check_env();
        for n in [
            env.buffers,
            env.devices,
            env.partitions,
            env.streams_per_partition,
        ] {
            key.put(n);
        }
        let program = ctx.program();
        let mut bodiless = None;
        key.put(program.streams.len());
        for stream in &program.streams {
            key.put(stream.id.0);
            key.put(stream.placement.device.0);
            key.put(stream.placement.partition);
            key.put(stream.actions.len());
            for action in &stream.actions {
                // A tag per kind (a kernel's carries its `host` flag), then
                // the fields; list lengths go first, so no key is another's
                // prefix.
                match action {
                    Action::Transfer { dir, buf } => {
                        key.put(usize::from(*dir == Direction::DeviceToHost));
                        key.put(buf.0);
                    }
                    Action::Kernel(k) => {
                        key.put(2 + usize::from(k.host));
                        for list in [&k.reads, &k.writes] {
                            key.put(list.len());
                            list.iter().for_each(|b| key.put(b.0));
                        }
                        if k.native.is_none() && bodiless.is_none() {
                            bodiless = Some(k);
                        }
                    }
                    Action::RecordEvent(e) => {
                        key.put(4);
                        key.put(e.0);
                    }
                    Action::WaitEvent(e) => {
                        key.put(5);
                        key.put(e.0);
                    }
                    Action::Barrier(n) => {
                        key.put(6);
                        key.put(*n);
                    }
                }
            }
        }
        key.put(program.events.len());
        for site in &program.events {
            key.put(site.stream.0);
            key.put(site.action_index);
        }
        key.put(program.barriers);
        if !key.finish() {
            self.graph = None;
            self.ran = false;
        }
        bodiless
    }

    /// Hand back a recorded walk of the admitted program once it ran.
    pub(crate) fn keep(&mut self, walk: Walk) {
        if let Walk::Recorded(hb) = walk {
            self.graph = Some(hb);
        }
    }
}

/// A cursor that compares a key against the words it is given and, from
/// the first mismatch on, overwrites it with them.
struct KeyWriter<'a> {
    key: &'a mut Vec<u32>,
    at: usize,
    /// Every word so far matched.
    same: bool,
}

impl KeyWriter<'_> {
    /// One field: a word below `u32::MAX`, else that escape and both halves.
    fn put(&mut self, n: usize) {
        match u32::try_from(n) {
            Ok(word) if word != u32::MAX => self.word(word),
            _ => {
                let wide = n as u64;
                self.word(u32::MAX);
                self.word(wide as u32);
                self.word((wide >> 32) as u32);
            }
        }
    }

    fn word(&mut self, word: u32) {
        if self.same && self.key.get(self.at) == Some(&word) {
            self.at += 1;
            return;
        }
        if self.same {
            self.same = false;
            self.key.truncate(self.at);
        }
        self.key.push(word);
    }

    /// Whether the key was already exactly these words.
    fn finish(self) -> bool {
        if self.same && self.at < self.key.len() {
            self.key.truncate(self.at);
            return false;
        }
        self.same
    }
}

/// Everything both executors do before their first action, once and in
/// one order: validate the program (its events table included); analyze it
/// and refuse error-severity findings; refuse live buffers that exceed one
/// card's memory (every buffer conceptually has an instance on each card it
/// is used from); fire the fault plan's allocation faults; plan under a
/// non-FIFO scheduler, or else take the analysis's happens-before graph.
///
/// A plan is priced by `cost`, or by a model built here when the caller has
/// none — only then: a FIFO run builds no cost model.
///
/// A FIFO run given a `memo` whose admitted program already ran skips
/// validation and analysis — no run reaches execution without passing
/// both, and both are functions of the key — and takes the graph kept from
/// that run. The card-memory and allocation-fault refusals read what the
/// key does not hold, so they run each time.
pub(crate) fn prepare(
    ctx: &Context,
    cost: Option<&CostModel>,
    memo: Option<&mut WalkMemo>,
) -> Result<Walk> {
    let program = ctx.program();
    let kind = ctx.scheduler();
    let memo = memo.filter(|_| kind == SchedulerKind::Fifo);
    let ran = memo.as_ref().is_some_and(|memo| memo.ran);
    let analysis = if ran {
        None
    } else {
        program.validate()?;
        let made = ctx.analyze();
        if !made.report.is_clean() {
            return Err(Error::Check(Box::new(made.report)));
        }
        Some(made)
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
    // Empty programs fall back to the recorded order.
    let planned = match (&analysis, cost) {
        _ if kind == SchedulerKind::Fifo => None,
        (None, _) => None,
        (Some(made), Some(cost)) => plan_analyzed(program, made, cost, kind),
        (Some(made), None) => plan_analyzed(program, made, &ctx.cost_model()?, kind),
    };
    Ok(match planned {
        Some((schedule, graph)) => Walk::Scheduled(schedule, graph),
        None => {
            let kept = memo.and_then(|memo| memo.graph.take());
            // A hit whose graph a panicking run never handed back builds
            // it again.
            let hb = match (kept, analysis) {
                (Some(hb), _) => hb,
                (None, Some(made)) => made.hb,
                (None, None) => HbGraph::build(program),
            };
            // The drivers' guard against a cyclic graph: an analysed
            // program has no wait cycle, so it cannot reach this refusal.
            hb.order().map_err(wait_cycle)?;
            Walk::Recorded(hb)
        }
    })
}

#[cfg(test)]
mod tests {
    use crate::action::Action;
    use crate::check::CheckCode;
    use crate::context::Context;
    use crate::fault::FaultPlan;
    use crate::kernel::{KernelCtx, KernelDesc};
    use crate::types::{BufId, Error, EventId, StreamId};
    use crate::SchedulerKind;
    use micsim::compute::KernelProfile;
    use micsim::pcie::Direction;
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
        type Row = (&'static str, fn(&Error) -> bool, fn() -> Context);
        fn analyzer(err: &Error, code: CheckCode) -> bool {
            matches!(err, Error::Check(report) if report.errors().any(|d| d.code == code))
        }
        let rows: [Row; 7] = [
            (
                "an invalid barrier sequence",
                |err| matches!(err, Error::Config(_)),
                || {
                    let mut ctx = clean();
                    ctx.barrier();
                    ctx.program_mut().streams[1].actions.pop();
                    ctx
                },
            ),
            (
                "a race",
                |err| analyzer(err, CheckCode::Race),
                || {
                    // A second h2d of `a`, unordered with stream 1's d2h.
                    let mut ctx = clean();
                    ctx.h2d(ctx.stream(0).unwrap(), BufId(0)).unwrap();
                    ctx
                },
            ),
            (
                "a wait cycle",
                |err| analyzer(err, CheckCode::DeadlockCycle),
                || {
                    // Stream 0 first waits for a record stream 1 makes last.
                    let mut ctx = clean();
                    let back = ctx.record_event(ctx.stream(1).unwrap()).unwrap();
                    let program = ctx.program_mut();
                    program.streams[0]
                        .actions
                        .insert(0, Action::WaitEvent(back));
                    program.events[0].action_index += 1;
                    ctx
                },
            ),
            (
                "an events table that points at a non-record",
                |err| matches!(err, Error::UnknownEvent(EventId(0))),
                || {
                    let mut ctx = clean();
                    ctx.program_mut().events[0].action_index = 0;
                    ctx
                },
            ),
            (
                "a record slid off its events-table entry",
                |err| matches!(err, Error::UnknownEvent(EventId(0))),
                || {
                    let mut ctx = clean();
                    let h2d = ctx.program().streams[0].actions[0].clone();
                    ctx.program_mut().streams[0].actions.insert(0, h2d);
                    ctx
                },
            ),
            (
                "an allocation fault",
                |err| matches!(err, Error::Fault { .. }),
                || {
                    let mut ctx = clean();
                    ctx.set_fault_plan(Some(FaultPlan::seeded(1).fail_alloc(0)));
                    ctx
                },
            ),
            (
                "a program larger than one card",
                |err| matches!(err, Error::OutOfMemory { .. }),
                || {
                    let mut ctx = clean();
                    // 9 GiB of lazy buffers on an 8 GiB card: nothing is backed.
                    for i in 0..9 {
                        ctx.alloc(format!("g{i}"), 1 << 28);
                    }
                    ctx
                },
            ),
        ];
        // A refusal's report carries how long the analysis took.
        let shape = |err: &Error| match err {
            Error::Check(report) => format!("Check({:?})", report.diagnostics),
            refused => format!("{refused:?}"),
        };
        for (defect, refusal, build) in rows {
            for kind in [SchedulerKind::Fifo, SchedulerKind::ListHeft] {
                let mut ctx = build();
                ctx.set_scheduler(kind);
                let at = format!("{defect} under {kind:?}");
                let sim = ctx.run_sim().map(|_| ()).expect_err(&at);
                let native = match ctx.run_native().map(|_| ()).expect_err(&at) {
                    Error::Run(failure) => failure.cause,
                    refused => refused,
                };
                assert!(refusal(&sim), "{at}: {sim:?}");
                assert_eq!(shape(&sim), shape(&native), "{at}");
            }
        }
    }

    /// `a`..`x` of [`memo_base`].
    const A: BufId = BufId(0);
    const B: BufId = BufId(1);
    const C: BufId = BufId(2);
    const D: BufId = BufId(3);
    const X: BufId = BufId(4);

    fn kernel(label: &str) -> KernelDesc {
        KernelDesc::simulated(label, KernelProfile::streaming("k", 1e9), 1.0)
    }

    /// `writes[0] = Σ reads` — a kernel body the rows keep.
    fn sum(k: &mut KernelCtx<'_>) {
        for i in 0..k.writes[0].len() {
            k.writes[0][i] = k.reads.iter().map(|r| r[i]).sum();
        }
    }

    /// Record on streams 0 and 1 of `ctx`, whose buffers are `a`..`x`:
    /// `b = a + 1` on stream 0, then behind event 1 `d = b + c` on stream 1,
    /// while stream 0 fills `x` with 7. Stream 0 first records event 0,
    /// which nothing waits for. Every buffer is streamed in or written
    /// before it is read, so the outputs depend on this run only.
    fn memo_base(ctx: &mut Context) {
        let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
        ctx.record_event(s0).unwrap();
        ctx.h2d(s0, A).unwrap();
        ctx.h2d(s0, X).unwrap();
        let inc = kernel("inc").reading([A]).writing([B]).with_native(sum);
        ctx.kernel(s0, inc).unwrap();
        let e = ctx.record_event(s0).unwrap();
        let fill = kernel("fill")
            .writing([X])
            .with_native(|k| k.writes[0].fill(7.0));
        ctx.kernel(s0, fill).unwrap();
        ctx.d2h(s0, B).unwrap();
        ctx.d2h(s0, X).unwrap();
        ctx.h2d(s1, C).unwrap();
        ctx.wait_event(s1, e).unwrap();
        let add = kernel("add").reading([B, C]).writing([D]).with_native(sum);
        ctx.kernel(s1, add).unwrap();
        ctx.d2h(s1, D).unwrap();
    }

    fn memo_context() -> Context {
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .replan_capacity(4)
            .build()
            .unwrap();
        for name in ["a", "b", "c", "d", "x"] {
            ctx.alloc(name, 8);
        }
        memo_base(&mut ctx);
        ctx
    }

    /// Stream 1's kernel, `add`.
    fn add(ctx: &mut Context) -> &mut KernelDesc {
        let actions = &mut ctx.program_mut().streams[1].actions;
        let found = actions.iter_mut().find_map(|a| match a {
            Action::Kernel(k) => Some(k),
            _ => None,
        });
        found.expect("stream 1 launches `add`")
    }

    type Outcome = std::result::Result<Vec<Vec<u32>>, String>;

    /// Reset every host copy, run natively, and read every host copy back
    /// as bits — or the refusal's shape.
    fn memo_outcome(ctx: &Context) -> Outcome {
        for i in 0..ctx.buffer_count() {
            let fill: Vec<f32> = (0..8).map(|j| (10 * i + j) as f32).collect();
            ctx.write_host(BufId(i), &fill).unwrap();
        }
        match ctx.run_native() {
            Ok(_) => Ok((0..ctx.buffer_count())
                .map(|i| {
                    ctx.read_host(BufId(i))
                        .unwrap()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                })
                .collect()),
            Err(Error::Run(failure)) => Err(format!("{:?}", failure.cause)),
            Err(Error::Check(report)) => Err(format!("Check({:?})", report.diagnostics)),
            Err(refused) => Err(format!("{refused:?}")),
        }
    }

    /// Whatever the memo holds, a run refuses a program that fails
    /// validation or the analyzer exactly as they do, the analyzer's
    /// report included.
    fn assert_gated(ctx: &Context, outcome: &Outcome, what: &str) {
        let refusal = match ctx.program().validate() {
            Err(refused) => format!("{refused:?}"),
            Ok(()) => {
                let report = ctx.analyze().report;
                if report.is_clean() {
                    return;
                }
                format!("Check({:?})", report.diagnostics)
            }
        };
        assert_eq!(outcome, &Err(refusal), "{what}: gated");
    }

    #[test]
    fn a_memo_hit_skips_only_what_an_earlier_run_completed() {
        type Change = fn(&mut Context);
        // (what happens, the change before the first run, the change
        // between the runs, whether the first run is refused). The second
        // run must hit and equal a fresh context's run of the program as it
        // stands then; the first must equal a fresh context's run too.
        let rows: [(&str, Change, Change, bool); 4] = [
            (
                "a program validation refuses, run twice",
                |ctx| {
                    ctx.barrier();
                    ctx.program_mut().streams[1].actions.pop();
                },
                |_| {},
                true,
            ),
            (
                "an events table that disagrees with the actions, run twice",
                |ctx| ctx.program_mut().events[1].action_index = 0,
                |_| {},
                true,
            ),
            (
                "an allocation fault, then no fault plan",
                |ctx| ctx.set_fault_plan(Some(FaultPlan::seeded(1).fail_alloc(0))),
                |ctx| ctx.set_fault_plan(None),
                true,
            ),
            (
                "zero_buffers between two runs",
                |_| {},
                |ctx| ctx.zero_buffers(),
                false,
            ),
        ];
        let key = |ctx: &Context| ctx.built_native_runtime().expect("ran").memo().key.clone();
        for (what, first, then, refused) in rows {
            // The runtime (and its memo) exists before the program is
            // recorded, and no run has backed a buffer yet.
            let mut warm = memo_context();
            warm.reset_program();
            warm.run_native().expect("a program of empty streams runs");
            memo_base(&mut warm);
            first(&mut warm);
            let once = memo_outcome(&warm);
            assert_gated(&warm, &once, what);
            let before = key(&warm);
            then(&mut warm);
            let got = memo_outcome(&warm);
            assert_gated(&warm, &got, what);
            assert_eq!(key(&warm), before, "{what}: hit");
            assert_eq!(once.is_err(), refused, "{what}: {once:?}");
            let mut fresh = memo_context();
            first(&mut fresh);
            assert_eq!(once, memo_outcome(&fresh), "{what}: first run");
            let mut fresh = memo_context();
            first(&mut fresh);
            then(&mut fresh);
            assert_eq!(got, memo_outcome(&fresh), "{what}");
        }
    }

    #[test]
    fn a_memoised_walk_is_reused_only_for_the_same_program() {
        type Change = fn(&mut Context);
        // The clean program runs first, so a runtime holds the memo the
        // refused runs leave their key in.
        let racy: Change = |ctx| {
            ctx.run_native().unwrap();
            add(ctx).reads = [B, C, X].into_iter().collect();
        };
        // (what changes, applied before the first run, the change, whether
        // the memo's key survives it).
        let rows: [(&str, Change, Change, bool); 13] = [
            (
                "a kernel's read set",
                |_| {},
                |ctx| add(ctx).reads = [B, C, X].into_iter().collect(),
                false,
            ),
            (
                "a kernel's write set",
                |_| {},
                |ctx| add(ctx).writes = [X].into_iter().collect(),
                false,
            ),
            (
                "a kernel's host flag",
                |_| {},
                |ctx| add(ctx).host = true,
                false,
            ),
            (
                "a transfer's buffer",
                |_| {},
                |ctx| {
                    ctx.program_mut().streams[1].actions[0] = Action::Transfer {
                        dir: Direction::HostToDevice,
                        buf: X,
                    };
                },
                false,
            ),
            (
                "an event id",
                |_| {},
                |ctx| ctx.program_mut().streams[1].actions[1] = Action::WaitEvent(EventId(0)),
                false,
            ),
            (
                "the events table",
                |_| {},
                |ctx| ctx.program_mut().events[1].action_index = 0,
                false,
            ),
            (
                "a barrier",
                |_| {},
                |ctx| {
                    ctx.barrier();
                    let s1 = ctx.stream(1).unwrap();
                    let again = kernel("again").reading([X]).writing([D]).with_native(sum);
                    ctx.kernel(s1, again).unwrap();
                    ctx.d2h(s1, D).unwrap();
                },
                false,
            ),
            (
                "a stream's id",
                |_| {},
                |ctx| ctx.program_mut().streams[0].id = StreamId(5),
                false,
            ),
            (
                "a replan to another P",
                |_| {},
                |ctx| {
                    ctx.replan(4).unwrap();
                    memo_base(ctx);
                },
                false,
            ),
            (
                "one more buffer",
                |_| {},
                |ctx| {
                    ctx.alloc("z", 8);
                },
                false,
            ),
            ("a racy program, run twice", racy, |_| {}, true),
            (
                "a racy program, then the clean one recorded again",
                racy,
                |ctx| {
                    ctx.reset_program();
                    memo_base(ctx);
                },
                false,
            ),
            (
                "a relabelled kernel with another body",
                |_| {},
                |ctx| {
                    *add(ctx) = kernel("mul").reading([B, C]).writing([D]).with_native(|k| {
                        for i in 0..k.writes[0].len() {
                            k.writes[0][i] = k.reads[0][i] * k.reads[1][i];
                        }
                    });
                },
                true,
            ),
        ];
        let key = |ctx: &Context| ctx.built_native_runtime().expect("ran").memo().key.clone();
        let base = memo_outcome(&memo_context());
        assert!(base.is_ok(), "{base:?}");
        for (change, first, then, hit) in rows {
            let mut warm = memo_context();
            first(&mut warm);
            let once = memo_outcome(&warm);
            assert_gated(&warm, &once, change);
            let before = key(&warm);
            then(&mut warm);
            let got = memo_outcome(&warm);
            assert_gated(&warm, &got, change);
            let mut fresh = memo_context();
            first(&mut fresh);
            then(&mut fresh);
            assert_eq!(got, memo_outcome(&fresh), "{change}");
            assert_eq!(key(&warm) == before, hit, "{change}: hit");
            if hit {
                assert_ne!(got, base, "{change}: the outcome must move");
            }
        }
    }
}
