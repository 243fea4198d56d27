//! The simulator executor.
//!
//! Lowers a recorded program onto the `micsim` task-DAG engine:
//!
//! * each card's PCIe link becomes one resource per channel (one channel in
//!   the Phi's serial-duplex mode — this is what serializes H2D against D2H);
//! * each partition becomes one resource, serializing kernels launched by
//!   the stream(s) bound to it;
//! * per-stream FIFO order becomes a dependency chain;
//! * events become cross-stream edges, barriers become join/fork points
//!   priced at the platform's sync overhead.
//!
//! Lowering walks the streams with a work-list so cross-stream event edges
//! can point forward in program order; a cycle of event waits (a genuine
//! user deadlock) is detected and reported instead of hanging.
//!
//! The resources are laid out by [`crate::trace`]'s `LaneMap` — the same
//! ids and names the native recorder stamps its spans with — and with the
//! context's metrics flag set the finished timeline is priced by the same
//! `price_run` ([`crate::metrics::instruments`]) the native executor hands
//! its measured timeline to.

use std::collections::BTreeMap;

use micsim::compute::KernelInvocation;
use micsim::engine::{Engine, ResourceId, TaskId, TaskSpec, Timeline};
use micsim::time::SimDuration;
use micsim::trace::{
    overlap_stats, partition_stats, render_gantt, OverlapStats, PartitionStats, ResourceKinds,
};

use crate::action::Action;
use crate::context::Context;
use crate::fault::{FaultPlan, RetryPolicy};
use crate::metrics::instruments::{price_run, RunCounts};
use crate::metrics::MetricsSnapshot;
use crate::trace::LaneMap;
use crate::types::{Error, Result};

/// Result of a simulated run.
#[derive(Debug)]
pub struct SimReport {
    /// The full task timeline.
    pub timeline: Timeline,
    /// Resource classification (links vs partitions).
    pub kinds: ResourceKinds,
    /// Human-readable resource names, for Gantt rendering.
    pub names: BTreeMap<ResourceId, String>,
    /// The run's metric snapshot, when the context's
    /// [metrics flag](crate::context::ContextBuilder::metrics) is set —
    /// the same instrument catalog the native executor exports, priced
    /// from the simulated timeline. Fully deterministic: identical runs
    /// export byte-identical JSONL/OpenMetrics text. `None` when metrics
    /// are off.
    pub metrics: Option<MetricsSnapshot>,
}

impl SimReport {
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
        render_gantt(&self.timeline, &self.names, width)
    }

    /// What limited this run: per-label-prefix time along the critical
    /// path (e.g. `gemm: 740 ms, h2d: 12 ms, barrier#: 3 ms`).
    pub fn critical_path_breakdown(&self) -> Vec<(String, SimDuration)> {
        self.timeline.critical_path_breakdown()
    }
}

/// Validate and simulate the context's recorded program.
pub fn run(ctx: &Context) -> Result<SimReport> {
    run_with(ctx, None, &RetryPolicy::default())
}

/// Simulate under a fault plan: failed transfer attempts and their backoffs
/// are priced on the link, slow partitions stretch kernel time, injected
/// kernel panics surface as [`Error::PartitionLost`], and allocation faults
/// abort before the run starts — mirroring what the native executor does
/// with the same plan.
pub fn run_with(
    ctx: &Context,
    fault: Option<&FaultPlan>,
    retry: &RetryPolicy,
) -> Result<SimReport> {
    ctx.program.validate()?;
    ctx.enforce_check()?;
    check_device_memory(ctx)?;
    if let Some(plan) = fault {
        for i in 0..ctx.buffers.len() {
            if plan.alloc_fails(i) {
                return Err(Error::Fault {
                    site: format!("alloc b{i}"),
                    attempts: 1,
                });
            }
        }
    }

    // A non-FIFO scheduler replaces the recorded program with its
    // materialized schedule. Fault plans are keyed by the *recorded*
    // program's (stream, action-index) sites, so scheduling only applies
    // to fault-free runs; unclean or empty programs also fall back to the
    // recorded FIFO order (FIFO itself always declines to schedule).
    if fault.is_none() {
        if let Some((_, scheduled)) = ctx.plan_scheduled_program(ctx.scheduler()) {
            scheduled.validate()?;
            return lower(ctx, &scheduled, fault, retry);
        }
    }
    lower(ctx, &ctx.program, fault, retry)
}

/// Lower `program` onto the task-DAG engine and price it. `program` is
/// either the context's recorded program or its materialized schedule;
/// buffers and platform geometry always come from `ctx`.
fn lower(
    ctx: &Context,
    program: &crate::program::Program,
    fault: Option<&FaultPlan>,
    retry: &RetryPolicy,
) -> Result<SimReport> {
    let cfg = ctx.config().clone();
    let mut engine = Engine::new();
    let lanes = LaneMap::for_context(ctx);
    for (id, name) in &lanes.names {
        let res = engine.add_resource(name.clone());
        debug_assert_eq!(res, *id, "engine ids follow the lane layout");
    }

    let multi_device = program.devices().len() > 1;
    let per_stream =
        SimDuration::from_nanos(cfg.sync_per_stream.nanos() * program.streams.len() as u64);
    let barrier_cost = if multi_device {
        cfg.sync_overhead + per_stream + cfg.cross_device_sync
    } else {
        cfg.sync_overhead + per_stream
    };

    // Work-list lowering.
    let n_streams = program.streams.len();
    let mut cursor = vec![0usize; n_streams];
    let mut last: Vec<Option<TaskId>> = vec![None; n_streams];
    let mut event_task: Vec<Option<TaskId>> = vec![None; program.events.len()];

    // Metric inputs only the lowering walk knows (payload sizes, priced
    // retry attempts, executable-action count); consumed after the run
    // when the context's metrics flag is set.
    let mut bytes_per_dev = vec![0u64; ctx.device_count()];
    let mut retries_priced = 0u64;
    let mut actions_lowered = 0u64;

    let add = |engine: &mut Engine, spec: TaskSpec| -> Result<TaskId> {
        engine
            .add_task(spec)
            .map_err(|e| Error::Config(format!("lowering bug: {e}")))
    };

    loop {
        let mut progressed = false;
        for (si, stream) in program.streams.iter().enumerate() {
            while cursor[si] < stream.actions.len() {
                let action = &stream.actions[cursor[si]];
                let mut deps: Vec<TaskId> = last[si].into_iter().collect();
                let task = match action {
                    Action::Barrier(_) => break, // handled collectively below
                    Action::WaitEvent(e) => {
                        match event_task[e.0] {
                            None => break, // recording stream hasn't got there yet
                            Some(t) => {
                                deps.push(t);
                                add(
                                    &mut engine,
                                    TaskSpec {
                                        resource: None,
                                        duration: SimDuration::ZERO,
                                        deps,
                                        label: action.label(),
                                    },
                                )?
                            }
                        }
                    }
                    Action::RecordEvent(e) => {
                        let t = add(
                            &mut engine,
                            TaskSpec {
                                resource: None,
                                duration: SimDuration::ZERO,
                                deps,
                                label: action.label(),
                            },
                        )?;
                        event_task[e.0] = Some(t);
                        t
                    }
                    Action::Transfer { dir, buf } => {
                        let bytes = ctx.buffer(*buf)?.bytes();
                        let dev_idx = stream.placement.device.0;
                        let link_res = lanes.link(dev_idx, cfg.link.channel_for(*dir));
                        let idx = cursor[si];
                        let (fail_attempts, slowdown) = match fault {
                            Some(plan) => (
                                plan.transfer_fail_attempts(si, idx),
                                plan.transfer_slowdown(si, idx),
                            ),
                            None => (0, 1.0),
                        };
                        if fail_attempts > retry.max_retries {
                            return Err(Error::Fault {
                                site: format!("transfer s{si}#{idx}"),
                                attempts: retry.max_retries + 1,
                            });
                        }
                        let wire_time = if slowdown > 1.0 {
                            cfg.link.degraded_transfer_time(bytes, slowdown)
                        } else {
                            cfg.link.transfer_time(bytes)
                        };
                        bytes_per_dev[dev_idx] += bytes;
                        retries_priced += u64::from(fail_attempts);
                        actions_lowered += 1;
                        // Price each failed attempt as a full occupation of
                        // the link, followed by the retry backoff off-link.
                        for attempt in 0..fail_attempts {
                            let failed = add(
                                &mut engine,
                                TaskSpec {
                                    resource: Some(link_res),
                                    duration: wire_time + cfg.enqueue_overhead,
                                    deps: deps.clone(),
                                    label: format!("{}!fail{attempt}", action.label()),
                                },
                            )?;
                            let backoff = add(
                                &mut engine,
                                TaskSpec {
                                    resource: None,
                                    duration: SimDuration::from_secs_f64(
                                        retry.backoff_for(attempt).as_secs_f64(),
                                    ),
                                    deps: vec![failed],
                                    label: format!("{}!backoff{attempt}", action.label()),
                                },
                            )?;
                            deps = vec![backoff];
                        }
                        add(
                            &mut engine,
                            TaskSpec {
                                resource: Some(link_res),
                                duration: wire_time + cfg.enqueue_overhead,
                                deps,
                                label: action.label(),
                            },
                        )?
                    }
                    Action::Kernel(desc) if desc.host => {
                        // Host-side kernel: no offload launch, no partition
                        // effects — just the host's aggregate rate. Injected
                        // panics still apply (the native executor injects
                        // regardless of where the kernel runs); with no
                        // partition to lose, the loss is the kernel itself.
                        actions_lowered += 1;
                        if let Some(fp) = fault {
                            if fp.kernel_panics_at(si, cursor[si]) {
                                return Err(Error::KernelPanicked {
                                    kernel: desc.label.clone(),
                                });
                            }
                        }
                        let secs = desc.work / (desc.profile.thread_rate * cfg.host_equivalents);
                        let duration = SimDuration::from_secs_f64(secs) + cfg.enqueue_overhead;
                        add(
                            &mut engine,
                            TaskSpec {
                                resource: Some(lanes.host),
                                duration,
                                deps,
                                label: action.label(),
                            },
                        )?
                    }
                    Action::Kernel(desc) => {
                        actions_lowered += 1;
                        let placement = stream.placement;
                        let plan = ctx.platform.plan(placement.device)?;
                        let part = &plan.partitions[placement.partition];
                        if let Some(fp) = fault {
                            if fp.kernel_panics_at(si, cursor[si]) {
                                return Err(Error::PartitionLost {
                                    device: placement.device.0,
                                    partition: placement.partition,
                                    kernel: desc.label.clone(),
                                });
                            }
                        }
                        let inv = KernelInvocation {
                            profile: &desc.profile,
                            work: desc.work,
                        };
                        let mut body = cfg.compute.kernel_time(&inv, part)?;
                        if let Some(fp) = fault {
                            let factor =
                                fp.partition_slowdown(placement.device.0, placement.partition);
                            if factor > 1.0 {
                                body = SimDuration::from_secs_f64(body.as_secs_f64() * factor);
                            }
                        }
                        let duration = body + cfg.enqueue_overhead;
                        add(
                            &mut engine,
                            TaskSpec {
                                resource: Some(lanes.kernel(
                                    false,
                                    placement.device.0,
                                    placement.partition,
                                )),
                                duration,
                                deps,
                                label: action.label(),
                            },
                        )?
                    }
                };
                last[si] = Some(task);
                cursor[si] += 1;
                progressed = true;
            }
        }

        // Collective barrier step: all streams stalled at the same barrier?
        let all_at_barrier = (0..n_streams).all(|si| {
            matches!(
                program.streams[si].actions.get(cursor[si]),
                Some(Action::Barrier(_))
            )
        });
        if all_at_barrier && n_streams > 0 {
            let deps: Vec<TaskId> = last.iter().flatten().copied().collect();
            let n = match program.streams[0].actions[cursor[0]] {
                Action::Barrier(n) => n,
                _ => unreachable!(),
            };
            let bar = add(
                &mut engine,
                TaskSpec {
                    resource: None,
                    duration: barrier_cost,
                    deps,
                    label: format!("barrier#{n}"),
                },
            )?;
            for si in 0..n_streams {
                last[si] = Some(bar);
                cursor[si] += 1;
            }
            progressed = true;
        }

        let done = (0..n_streams).all(|si| cursor[si] >= program.streams[si].actions.len());
        if done {
            break;
        }
        if !progressed {
            return Err(Error::Config(
                "event-wait cycle between streams: the program can never complete".into(),
            ));
        }
    }

    let timeline = engine.run();

    // Every priced task carries the enqueue overhead inside its span.
    let metrics = ctx.metrics_enabled().then(|| {
        let counts = RunCounts {
            bytes_per_device: bytes_per_dev,
            actions_executed: actions_lowered,
            steals: 0,
            faults: crate::fault::FaultCounters {
                transfer_retries: retries_priced,
                ..Default::default()
            },
        };
        price_run(&timeline, &lanes, cfg.enqueue_overhead, &counts)
    });

    Ok(SimReport {
        timeline,
        kinds: lanes.kinds,
        names: lanes.names,
        metrics,
    })
}

/// Reject programs whose live buffers exceed one card's memory (every buffer
/// conceptually has an instance on each card it is used from).
fn check_device_memory(ctx: &Context) -> Result<()> {
    let cap = ctx.config().device.memory_bytes;
    let total: u64 = ctx
        .buffers
        .iter()
        .map(super::super::buffer::Buffer::bytes)
        .sum();
    if total > cap {
        return Err(Error::Platform(micsim::fabric::FabricError::Memory(
            micsim::memory::MemError::OutOfMemory {
                requested: total,
                free: cap,
            },
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::kernel::KernelDesc;
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
        let h2d = recs.iter().find(|r| r.label.starts_with("h2d")).unwrap();
        let k = recs.iter().find(|r| r.label == "consumer").unwrap();
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
        let h2d = recs.iter().find(|r| r.label.starts_with("h2d")).unwrap();
        let k = recs.iter().find(|r| r.label == "after").unwrap();
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
            let program = &mut ctx.program;
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
        assert!(err.to_string().contains("cycle"), "{err}");
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
        assert!(matches!(
            ctx.run_sim(),
            Err(Error::Platform(micsim::fabric::FabricError::Memory(_)))
        ));
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
