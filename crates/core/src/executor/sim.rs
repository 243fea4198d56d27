//! The simulator executor.
//!
//! Prices a recorded program on the `micsim` task-DAG engine. The executor
//! derives nothing itself:
//!
//! * **what to walk** comes from the executors' one front end
//!   ([`prepare`](super) — validation, the check gate, the card-memory and
//!   allocation-fault refusals), which the native executor walks too. A
//!   recorded walk is the checker's happens-before graph
//!   ([`crate::check::HbGraph`] — per-stream FIFO, event edges from the
//!   events table, barrier joins), the one the gate already built; the
//!   lowering is a single pass over its topological order, one engine task
//!   per node, a node's dependencies the tasks of its predecessors. A
//!   `Barrier` action creates no task (the task it waited behind stands in
//!   for it), a barrier join node is the `barrier#n` task. A scheduled walk
//!   makes the same pass over the scheduler's plan instead
//!   ([`Schedule`](crate::sched::Schedule) and its
//!   [`TaskGraph`](crate::sched::TaskGraph), no program in between): one
//!   task per scheduled task, after the previous task of its lane and its
//!   graph predecessors;
//! * **which resource a task occupies and for how long** is
//!   [`CostModel`]'s answer: a link channel (one per card in the Phi's
//!   serial-duplex mode — this is what serializes H2D against D2H), a
//!   partition (serializing the kernels of the streams bound to it), the
//!   host; barriers at the platform's sync overhead.
//!
//! What is left here is the fault model (priced retries and backoffs,
//! injected panics) and the engine bookkeeping. The engine breaks
//! arbitration ties by task creation order, so the graph's order is part
//! of the timeline: see [`HbGraph`](crate::check::HbGraph)'s sort (a
//! schedule chains the tasks of each lane, which leaves no tie to break).
//!
//! The resources are laid out by `crate::trace`'s `LaneMap` — the same
//! ids the native recorder stamps its spans with — and
//! [`SimReport::metrics`] prices the finished timeline with the same
//! `price_run` (`crate::metrics::instruments`) the native executor hands
//! its measured timeline to. Every engine task carries a [`TaskTag`] (its
//! node's site or barrier join, and a priced retry's attempt), never a
//! string: one candidate's run allocates per run, not per task, and
//! [`SimReport::label`] renders a label only when a reader asks.

use std::collections::BTreeMap;
use std::sync::Arc;

use micsim::engine::{Engine, ResourceId, TaskId, TaskRecord, TaskSpec, Timeline};
use micsim::time::SimDuration;
use micsim::trace::{
    chrome_trace, overlap_stats, partition_stats, render_gantt, OverlapStats, PartitionStats,
    ResourceKinds,
};

use super::{prepare, Walk};
use crate::action::Action;
use crate::context::Context;
use crate::fault;
use crate::metrics::instruments::{price_run, RunCounts};
use crate::metrics::MetricsSnapshot;
use crate::program::Program;
use crate::sched::{CostModel, Lane};
use crate::trace::{label, LaneMap, TaskTag};
use crate::types::{Error, Result};

/// Result of a simulated run.
#[derive(Debug)]
pub struct SimReport {
    /// The full task timeline.
    pub timeline: Timeline<TaskTag>,
    /// Resource classification (links vs partitions).
    pub kinds: ResourceKinds,
    /// The lanes the timeline's resources are.
    lanes: LaneMap,
    /// The program the run priced: it renders the tasks' labels.
    program: Arc<Program>,
    /// The modelled enqueue overhead inside every priced span.
    overhead: SimDuration,
    /// What the lowering tallied that the timeline cannot hold.
    counts: RunCounts,
}

impl SimReport {
    /// The run's metric snapshot: the instrument catalog the native
    /// executor exports, priced from the simulated timeline and the counts
    /// the lowering tallied (bytes per device, lowered actions, steals,
    /// priced retries). Fully deterministic: identical runs export
    /// byte-identical JSONL/OpenMetrics text.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        price_run(&self.timeline, &self.lanes, self.overhead, &self.counts)
    }

    /// The label of `record`, one of this run's (`trace::label`): `h2d b3`, a
    /// kernel's own label, `h2d b3!fail0`, `barrier#1`, ...
    pub fn label(&self, record: &TaskRecord<TaskTag>) -> String {
        label(&self.program, record.tag)
    }

    /// Lane names (`mic0.link0`, `host`, `mic0.p0`, ...) for Gantt and
    /// Chrome rendering.
    pub fn names(&self) -> BTreeMap<ResourceId, String> {
        self.lanes.names()
    }

    /// End-to-end simulated time.
    pub fn makespan(&self) -> SimDuration {
        self.timeline.makespan
    }

    /// Temporal-sharing statistics: link busy, compute busy, overlap.
    pub fn overlap(&self) -> OverlapStats {
        overlap_stats(&self.timeline, &self.kinds)
    }

    /// Per-partition busy/idle breakdown (the host resource included, as
    /// in [`ResourceKinds`]). A starved partition — a `T < P` record, or a
    /// straggler tile serializing its siblings — shows as `idle_fraction`
    /// near 1 and a long `longest_gap`.
    pub fn partition_stats(&self) -> Vec<PartitionStats> {
        partition_stats(&self.timeline, &self.kinds)
    }

    /// ASCII Gantt chart of the run, `width` columns wide.
    pub fn gantt(&self, width: usize) -> String {
        render_gantt(&self.timeline, &self.names(), width, |r| self.label(r))
    }

    /// Chrome trace-event JSON (open at `chrome://tracing` or Perfetto).
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.timeline, &self.names(), |r| self.label(r))
    }

    /// What limited this run: per-label-prefix time along the critical
    /// path (e.g. `gemm: 740 ms, h2d: 12 ms, barrier#: 3 ms`).
    pub fn critical_path_breakdown(&self) -> Vec<(String, SimDuration)> {
        self.timeline.critical_path_breakdown(|r| self.label(r))
    }
}

/// Simulate the context's recorded program along the walk the executors'
/// front end takes (see [`executor`](super)), under its
/// [fault plan](Context::set_fault_plan), each fault at its recorded site
/// under any scheduler: failed transfer attempts and their backoffs are
/// priced on the link, slow partitions stretch the kernels placed on them,
/// and injected kernel panics surface as [`Error::PartitionLost`] of the
/// partition the kernel was placed on — mirroring what the native executor
/// does with the same plan. The front end's refusals (an allocation fault
/// among them) come back unchanged.
pub fn run(ctx: &Context) -> Result<SimReport> {
    let cost = ctx.cost_model()?;
    let walk = prepare(ctx, Some(&cost), None)?;
    lower(ctx, &walk, &cost)
}

/// Lower the context's program onto the task-DAG engine along `walk` (a
/// recorded walk in its graph's topological order) and run it: one engine
/// task per step (bar `Barrier` actions, which the task they waited behind
/// stands in for), priced by `cost`. A step's
/// dependencies are refilled into one scratch vector the engine borrows.
/// A step whose predecessor has not been lowered yet — a schedule that is
/// not a topological order of its graph — is an error, not a dropped edge.
fn lower(ctx: &Context, walk: &Walk, cost: &CostModel) -> Result<SimReport> {
    let program = &ctx.program;
    // Room for one task per step and every edge (plus a schedule's lane
    // chain) up front: priced retries are the only tasks beyond that.
    let (steps, nodes, edges, steals) = match walk {
        Walk::Recorded(hb) => {
            let edges = hb.edges();
            (edges.nodes, edges.nodes, edges.edge_count(), 0)
        }
        Walk::Scheduled(schedule, graph) => {
            let (steps, nodes) = (schedule.tasks.len(), graph.len());
            let preds: usize = (0..nodes).map(|v| graph.preds(v).len()).sum();
            (steps, nodes, preds + steps, schedule.steals)
        }
    };
    let lanes = LaneMap::for_context(ctx);
    let mut engine = Engine::with_capacity(lanes.count(), steps, edges);
    for _ in 0..lanes.count() {
        engine.add_resource();
    }
    let mut add = |resource: Option<Lane>, duration, deps: &[TaskId], tag| -> Result<TaskId> {
        engine
            .add_task(TaskSpec {
                resource: resource.map(|lane| lanes.resource(lane)),
                duration,
                deps,
                tag,
            })
            .map_err(|e| Error::Config(format!("lowering bug: {e}")))
    };
    let barrier_price = cost.barrier_price(program.streams.len(), program.devices().len());

    // Metric inputs only the lowering walk knows (payload sizes, priced
    // retry attempts, executable-action count), kept on the report.
    let mut bytes_per_dev = vec![0u64; ctx.device_count()];
    let mut retries_priced = 0u64;
    let mut actions_lowered = 0u64;

    // done[v]: the task whose finish marks node `v` complete.
    let mut done: Vec<Option<TaskId>> = vec![None; nodes];
    // tail[r]: the latest task a schedule put on resource `r`.
    let mut tail: Vec<Option<TaskId>> = vec![None; lanes.count()];
    // The current step's dependencies, refilled for every step.
    let mut deps: Vec<TaskId> = Vec::new();
    for step in 0..steps {
        deps.clear();
        let (v, site, placed) = match walk {
            Walk::Recorded(hb) => {
                // `prepare` refused a cyclic graph: every node is in order.
                let v = hb.order().unwrap_or_default()[step] as usize;
                let edges = hb.edges();
                deps.extend(edges.preds(v).iter().filter_map(|&p| done[p as usize]));
                // Barrier join nodes follow the action nodes.
                let site = edges.site_of(v).ok_or_else(|| v - edges.total_actions);
                (v, site, None)
            }
            Walk::Scheduled(schedule, graph) => {
                let task = &schedule.tasks[step];
                deps.extend(tail[lanes.resource(task.lane).0]);
                for &p in graph.preds(task.node) {
                    let Some(dep) = done[p as usize] else {
                        let (site, pred) = (task.site, graph.nodes[p as usize].site);
                        return Err(Error::Config(format!(
                            "not a topological order: {site} is scheduled before {pred}"
                        )));
                    };
                    deps.push(dep);
                }
                (task.node, Ok(task.site), Some(task.lane))
            }
        };
        let site = match site {
            Ok(site) => site,
            Err(n) => {
                done[v] = Some(add(None, barrier_price, &deps, TaskTag::Barrier(n))?);
                continue;
            }
        };
        let (si, ai) = (site.stream.0, site.action_index);
        let stream = &program.streams[si];
        let action = &stream.actions[ai];
        // A scheduled kernel runs on the partition it was placed on.
        let (device, partition) = match placed {
            Some(Lane::Partition { device, partition }) => (device, partition),
            _ => (stream.placement.device.0, stream.placement.partition),
        };
        let Some(lane) = placed.or_else(|| cost.lane(action, device, partition)) else {
            done[v] = match action {
                // A barrier action is its stream arriving: whatever the
                // stream last waited behind arrives for it.
                Action::Barrier(_) => deps.last().copied(),
                Action::RecordEvent(_) | Action::WaitEvent(_) => {
                    Some(add(None, SimDuration::ZERO, &deps, TaskTag::Action(site))?)
                }
                _ => unreachable!("payload actions occupy a lane"),
            };
            continue;
        };
        actions_lowered += 1;

        // Faults injected at this site. A slow link stretches the
        // transfer, a slow partition the kernel; host kernels are not
        // slowed, but injected panics apply to them too (the native
        // executor injects regardless of where the kernel runs) — with no
        // partition to lose, the loss is the kernel itself.
        let mut fail_attempts = 0;
        let mut slowdown = 1.0;
        if let Some(plan) = &ctx.fault_plan {
            match (action, lane) {
                (Action::Kernel(desc), _) if plan.kernel_panics_at(si, ai) => {
                    let kernel = desc.label.to_string();
                    return Err(match lane {
                        Lane::Host => Error::KernelPanicked { kernel },
                        _ => Error::PartitionLost {
                            device,
                            partition,
                            kernel,
                        },
                    });
                }
                (_, Lane::Link { .. }) => {
                    fail_attempts = plan.transfer_fail_attempts(si, ai);
                    slowdown = plan.transfer_slowdown(si, ai);
                }
                (_, Lane::Partition { .. }) => {
                    slowdown = plan.partition_slowdown(device, partition);
                }
                (_, Lane::Host) => {}
            }
        }
        if fail_attempts > fault::MAX_RETRIES {
            return Err(Error::Fault {
                site: format!("transfer s{si}#{ai}"),
                attempts: fault::MAX_RETRIES + 1,
            });
        }
        let duration = cost.degraded_price(action, lane, slowdown)?;
        if let Action::Transfer { buf, .. } = action {
            bytes_per_dev[device] += cost.bytes_of(*buf);
            retries_priced += u64::from(fail_attempts);
        }
        // Price each failed attempt as a full occupation of the link,
        // followed by the retry backoff off-link.
        for attempt in 0..fail_attempts {
            let failed = add(
                Some(lane),
                duration,
                &deps,
                TaskTag::FailedAttempt { site, attempt },
            )?;
            let backoff = SimDuration::from_secs_f64(fault::backoff_for(attempt).as_secs_f64());
            let waited = add(None, backoff, &[failed], TaskTag::Backoff { site, attempt })?;
            deps.clear();
            deps.push(waited);
        }
        let task = add(Some(lane), duration, &deps, TaskTag::Action(site))?;
        done[v] = Some(task);
        if placed.is_some() {
            tail[lanes.resource(lane).0] = Some(task);
        }
    }

    Ok(SimReport {
        timeline: engine.run(),
        kinds: lanes.kinds(),
        lanes,
        program: Arc::clone(&ctx.program),
        // Every priced task carries the enqueue overhead inside its span.
        overhead: ctx.config().enqueue_overhead,
        counts: RunCounts {
            bytes_per_device: bytes_per_dev,
            actions_executed: actions_lowered,
            steals: steals as u64,
            faults: fault::FaultCounters {
                transfer_retries: retries_priced,
                ..Default::default()
            },
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::kernel::KernelDesc;
    use crate::sched::{plan_analyzed, SchedulerKind};
    use micsim::compute::KernelProfile;
    use micsim::PlatformConfig;

    fn kernel(label: &str, work: f64) -> KernelDesc {
        KernelDesc::simulated(label, KernelProfile::streaming("k", 0.32e9), work)
    }

    #[test]
    fn empty_program_runs_instantly() {
        let ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .build()
            .unwrap();
        let report = ctx.run_sim().unwrap();
        assert_eq!(report.makespan(), SimDuration::ZERO);
    }

    #[test]
    fn transfers_in_both_directions_serialize_on_phi() {
        // The Fig. 5 structural fact: with serial duplex, 16 blocks H2D then
        // 16 blocks D2H on two different streams still take the sum.
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .build()
            .unwrap();
        let bufs: Vec<_> = (0..32)
            .map(|i| ctx.alloc(format!("b{i}"), 1 << 18))
            .collect();
        let s0 = ctx.stream(0).unwrap();
        let s1 = ctx.stream(1).unwrap();
        for (i, b) in bufs.iter().enumerate() {
            if i < 16 {
                ctx.h2d(s0, *b).unwrap();
            } else {
                ctx.d2h(s1, *b).unwrap();
            }
        }
        let serial = ctx.run_sim().unwrap().makespan();

        // Same program on a full-duplex link: directions overlap, makespan halves.
        let mut ctx2 = Context::builder(PlatformConfig::phi_31sp_full_duplex())
            .partitions(2)
            .build()
            .unwrap();
        let bufs: Vec<_> = (0..32)
            .map(|i| ctx2.alloc(format!("b{i}"), 1 << 18))
            .collect();
        let s0 = ctx2.stream(0).unwrap();
        let s1 = ctx2.stream(1).unwrap();
        for (i, b) in bufs.iter().enumerate() {
            if i < 16 {
                ctx2.h2d(s0, *b).unwrap();
            } else {
                ctx2.d2h(s1, *b).unwrap();
            }
        }
        let duplex = ctx2.run_sim().unwrap().makespan();
        let ratio = serial.nanos() as f64 / duplex.nanos() as f64;
        assert!(
            (ratio - 2.0).abs() < 0.2,
            "serial should be ~2x duplex, got {ratio}"
        );
    }

    #[test]
    fn pipeline_overlaps_transfer_and_compute() {
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(4)
            .build()
            .unwrap();
        let n_tiles = 8;
        for t in 0..n_tiles {
            let a = ctx.alloc(format!("a{t}"), 1 << 20);
            let b = ctx.alloc(format!("b{t}"), 1 << 20);
            let s = ctx.stream(t % 4).unwrap();
            ctx.h2d(s, a).unwrap();
            ctx.kernel(
                s,
                kernel(&format!("k{t}"), 40.0 * (1 << 20) as f64)
                    .reading([a])
                    .writing([b]),
            )
            .unwrap();
            ctx.d2h(s, b).unwrap();
        }
        let report = ctx.run_sim().unwrap();
        let stats = report.overlap();
        assert!(
            stats.hidden_fraction() > 0.3,
            "pipelining should hide a chunk of the transfers: {stats:?}"
        );
        // Makespan can't beat the ideal bound.
        assert!(stats.makespan >= stats.ideal_makespan());
    }

    #[test]
    fn barrier_prevents_overlap() {
        // Same tiles, but a barrier between every stage (a non-overlappable
        // app a la Hotspot): hidden fraction collapses to zero.
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(4)
            .build()
            .unwrap();
        for t in 0..4 {
            let a = ctx.alloc(format!("a{t}"), 1 << 20);
            let s = ctx.stream(t).unwrap();
            ctx.h2d(s, a).unwrap();
        }
        ctx.barrier();
        for t in 0..4 {
            let s = ctx.stream(t).unwrap();
            let a = crate::types::BufId(t);
            ctx.kernel(s, kernel(&format!("k{t}"), 1e7).reading([a]))
                .unwrap();
        }
        let report = ctx.run_sim().unwrap();
        assert_eq!(report.overlap().overlap, SimDuration::ZERO);
    }

    #[test]
    fn event_edges_order_cross_stream_work() {
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .build()
            .unwrap();
        let a = ctx.alloc("a", 1 << 20);
        let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
        ctx.h2d(s0, a).unwrap();
        let e = ctx.record_event(s0).unwrap();
        ctx.wait_event(s1, e).unwrap();
        ctx.kernel(s1, kernel("consumer", 1e8).reading([a]))
            .unwrap();
        let report = ctx.run_sim().unwrap();
        // The kernel must start after the transfer finishes.
        let recs = &report.timeline.records;
        let h2d = recs
            .iter()
            .find(|r| report.label(r).starts_with("h2d"))
            .unwrap();
        let k = recs.iter().find(|r| report.label(r) == "consumer").unwrap();
        assert!(k.start >= h2d.finish);
    }

    #[test]
    fn forward_event_reference_lowered_correctly() {
        // Stream 0 (iterated first) waits on an event recorded by stream 1.
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .build()
            .unwrap();
        let a = ctx.alloc("a", 1 << 20);
        let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
        ctx.h2d(s1, a).unwrap();
        let e = ctx.record_event(s1).unwrap();
        ctx.wait_event(s0, e).unwrap();
        ctx.kernel(s0, kernel("after", 1e8).reading([a])).unwrap();
        let report = ctx.run_sim().unwrap();
        let recs = &report.timeline.records;
        let h2d = recs
            .iter()
            .find(|r| report.label(r).starts_with("h2d"))
            .unwrap();
        let k = recs.iter().find(|r| report.label(r) == "after").unwrap();
        assert!(k.start >= h2d.finish);
    }

    #[test]
    fn event_cycle_detected_as_deadlock() {
        // Target shape: s0 = [wait eB, record eA], s1 = [wait eA, record eB]
        // — a genuine cross-stream deadlock. The public API appends actions
        // in call order, so record the events first and then rewrite the
        // streams so each wait precedes the record it depends on.
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .build()
            .unwrap();
        let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
        let e_a = ctx.record_event(s0).unwrap();
        let e_b = ctx.record_event(s1).unwrap();
        {
            let program = ctx.program_mut();
            program.streams[0].actions.clear();
            program.streams[1].actions.clear();
            program.streams[0]
                .actions
                .push(crate::action::Action::WaitEvent(e_b));
            program.streams[0]
                .actions
                .push(crate::action::Action::RecordEvent(e_a));
            program.streams[1]
                .actions
                .push(crate::action::Action::WaitEvent(e_a));
            program.streams[1]
                .actions
                .push(crate::action::Action::RecordEvent(e_b));
            program.events[e_a.0].action_index = 1;
            program.events[e_b.0].action_index = 1;
        }
        let err = ctx.run_sim().unwrap_err();
        assert!(
            matches!(&err, Error::Check(report)
                if report.errors().any(|d| d.code == crate::check::CheckCode::DeadlockCycle)),
            "{err}"
        );
    }

    #[test]
    fn wait_before_its_record_through_a_barrier_is_refused() {
        // s0 = [wait e, barrier], s1 = [barrier, record e]: the record is
        // causally after the wait. No hang, no panic: the analyzer's typed
        // refusal.
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .build()
            .unwrap();
        let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
        ctx.barrier();
        let e = ctx.record_event(s1).unwrap();
        ctx.wait_event(s0, e).unwrap();
        ctx.program_mut().streams[0].actions.swap(0, 1);
        ctx.program.validate().unwrap();
        assert!(matches!(ctx.run_sim(), Err(Error::Check(_))));
    }

    #[test]
    fn a_program_whose_events_table_disagrees_with_its_actions_is_refused() {
        // The graph's event edges follow the events table. A hand-edited
        // program whose record moved without the table would simulate with
        // the wait ordered after the *wrong* action: `Program::validate`
        // refuses it, so neither installing nor running it gets further.
        let build = || {
            let mut ctx = Context::builder(PlatformConfig::phi_31sp())
                .partitions(2)
                .build()
                .unwrap();
            let a = ctx.alloc("a", 1 << 10);
            let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
            ctx.h2d(s0, a).unwrap();
            let e = ctx.record_event(s0).unwrap();
            ctx.wait_event(s1, e).unwrap();
            ctx.d2h(s1, a).unwrap();
            (ctx, e)
        };
        let consistent = build().0.run_sim().unwrap().makespan();

        // The record slides behind a new action; the table still says #1.
        let (mut moved, e) = build();
        let h2d = moved.program.streams[0].actions[0].clone();
        moved.program_mut().streams[0].actions.insert(1, h2d);
        // The table points at an action that is not a record at all.
        let (mut dangling, _) = build();
        dangling.program_mut().events[e.0].action_index = 0;

        for ctx in [&mut moved, &mut dangling] {
            let unknown = |err: Error| matches!(err, Error::UnknownEvent(x) if x == e);
            assert!(unknown(ctx.program.validate().unwrap_err()));
            assert!(unknown(ctx.run_sim().unwrap_err()));
            let program = ctx.program().clone();
            assert!(unknown(ctx.install_program(program).unwrap_err()));
        }
        assert!(consistent > SimDuration::ZERO);
    }

    /// `tiles` h2d -> kernel tiles recorded round-robin on the first
    /// `streams` of `partitions` partitions' streams.
    fn tiled(partitions: usize, streams: usize, tiles: usize) -> Context {
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(partitions)
            .build()
            .unwrap();
        for t in 0..tiles {
            let a = ctx.alloc(format!("a{t}"), 1 << 18);
            let s = ctx.stream(t % streams).unwrap();
            ctx.h2d(s, a).unwrap();
            ctx.kernel(s, kernel(&format!("k{t}"), 1e9).reading([a]))
                .unwrap();
        }
        ctx
    }

    #[test]
    fn a_schedule_that_is_not_topological_is_refused() {
        let ctx = tiled(2, 1, 1);
        let cost = ctx.cost_model().unwrap();
        let (schedule, graph) =
            plan_analyzed(&ctx.program, &ctx.analyze(), &cost, SchedulerKind::ListHeft)
                .expect("a clean program schedules");
        let mut walk = Walk::Scheduled(schedule, graph);
        assert!(lower(&ctx, &walk, &cost).is_ok());
        // The kernel now comes before the transfer that feeds it.
        if let Walk::Scheduled(schedule, _) = &mut walk {
            schedule.tasks.reverse();
        }
        let err = lower(&ctx, &walk, &cost).unwrap_err();
        assert!(
            matches!(&err, Error::Config(m) if m.contains("not a topological order")),
            "{err}"
        );
    }

    #[test]
    fn a_scheduled_run_reports_the_steals_of_its_schedule() {
        // 8 tiles recorded on 2 of 4 partitions' streams (T < P): HEFT
        // moves kernels onto the two starved partitions.
        use crate::metrics::{instruments::name, Labels};
        let mut ctx = tiled(4, 2, 8);
        let steals = |ctx: &Context| {
            let metrics = ctx.run_sim().unwrap().metrics();
            metrics.counter(name::STEALS, Labels::GLOBAL)
        };
        assert_eq!(steals(&ctx), 0, "FIFO moves nothing");
        ctx.set_scheduler(SchedulerKind::ListHeft);
        let planned = ctx.plan_schedule().unwrap().steals;
        assert!(planned > 0);
        assert_eq!(steals(&ctx), planned as u64);
    }

    #[test]
    fn oversized_buffers_rejected() {
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .build()
            .unwrap();
        // 3 x 1 GiB-elements = 12 GiB > 8 GiB card.
        for i in 0..3 {
            ctx.alloc(format!("huge{i}"), 1 << 30);
        }
        assert!(matches!(ctx.run_sim(), Err(Error::OutOfMemory { .. })));
    }

    #[test]
    fn gantt_renders_all_resources() {
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .build()
            .unwrap();
        let a = ctx.alloc("a", 1 << 20);
        let s0 = ctx.stream(0).unwrap();
        ctx.h2d(s0, a).unwrap();
        ctx.kernel(s0, kernel("kern", 1e8).reading([a])).unwrap();
        let report = ctx.run_sim().unwrap();
        let chart = report.gantt(60);
        assert!(chart.contains("mic0.link0"));
        assert!(chart.contains("mic0.p0"));
        assert!(chart.contains("mic0.p1"));
    }

    #[test]
    fn host_kernels_serialize_on_the_host_resource() {
        // Two host kernels from different streams must not overlap; two
        // device kernels on different partitions must.
        let mk = |host: bool| {
            let mut ctx = Context::builder(PlatformConfig::phi_31sp())
                .partitions(2)
                .build()
                .unwrap();
            for i in 0..2 {
                let s = ctx.stream(i).unwrap();
                let mut k = kernel(&format!("k{i}"), 3.2e9); // 1s device-ish
                if host {
                    k = k.on_host();
                }
                ctx.kernel(s, k).unwrap();
            }
            ctx.run_sim().unwrap().makespan()
        };
        let host_span = mk(true);
        let dev_span = mk(false);
        // Host: serialized => ~2x single-kernel duration.
        // Device: two partitions in parallel => ~1x.
        let ratio = host_span.nanos() as f64 / dev_span.nanos() as f64;
        assert!(ratio > 1.5, "host kernels must serialize: ratio {ratio}");
    }

    #[test]
    fn multi_device_barrier_costs_more() {
        let mk = |devs: usize| {
            let mut ctx = Context::builder(PlatformConfig::phi_31sp_multi(devs))
                .partitions(1)
                .build()
                .unwrap();
            ctx.barrier();
            ctx.run_sim().unwrap().makespan()
        };
        let single = mk(1);
        let multi = mk(2);
        assert!(multi > single, "cross-device sync must cost extra");
    }
}
