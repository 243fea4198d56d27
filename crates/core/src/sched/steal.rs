//! Work-stealing schedule: greedy earliest-ready, work-conserving
//! placement.
//!
//! Models what the native executor's scheduled drivers do dynamically:
//! every partition drains its own recorded queue, and the moment it goes
//! idle it steals the next ready tile from a loaded sibling. The simulator
//! cannot observe "idle at runtime", so this module prices the equivalent
//! deterministic policy: repeatedly pick, over all ready tasks and all
//! candidate lanes, the `(task, lane)` pair that can *start* earliest —
//! i.e. no lane ever sits idle while a ready task exists. A kernel whose
//! chosen partition differs from the one its stream was recorded on counts
//! as a steal ([`Schedule::steals`], and per-task
//! [`ScheduledTask::stolen`](super::ScheduledTask::stolen)).
//!
//! Preference order on start-time ties: the task's *recorded* partition
//! first (don't steal without cause), then lane order, then site order —
//! keeping the schedule deterministic and minimally disruptive.

use std::collections::HashMap;

use super::common::{self, Placed};
use super::{Lane, SchedInput, Schedule, SchedulerKind};

/// Run the earliest-ready stealing policy over `input`. Returns `None` on
/// empty graphs or unpriceable kernels.
pub(crate) fn schedule(input: &SchedInput<'_>) -> Option<Schedule> {
    let graph = input.graph;
    let n = graph.len();
    if n == 0 {
        return None;
    }
    // Validate costs up front so failures decline cleanly.
    common::base_costs(input)?;

    let mut indeg: Vec<usize> = (0..n).map(|u| graph.preds(u).len()).collect();
    let mut ready_time = vec![0.0f64; n];
    let mut ready: Vec<usize> = (0..n).filter(|&u| indeg[u] == 0).collect();
    let mut lane_avail: HashMap<Lane, f64> = HashMap::new();
    let mut placed: Vec<Option<Placed>> = vec![None; n];

    while !ready.is_empty() {
        // Best (start, prefers-home, lane, site order) over ready × lanes.
        let mut best: Option<(f64, bool, Lane, usize, f64)> = None;
        for &u in &ready {
            let action = graph.action(input.program, u);
            for lane in input.cost.candidate_lanes(action, graph.nodes[u].device) {
                let Some(cost) = common::lane_cost(input, u, lane) else {
                    continue;
                };
                let start = ready_time[u].max(lane_avail.get(&lane).copied().unwrap_or(0.0));
                let home = match lane {
                    Lane::Partition { partition, .. } => partition == graph.nodes[u].partition,
                    _ => true,
                };
                let better = match &best {
                    None => true,
                    Some((s, h, l, b, _)) => (start, !home, lane, u) < (*s, !*h, *l, *b),
                };
                if better {
                    best = Some((start, home, lane, u, cost));
                }
            }
        }
        let (start, _, lane, u, cost) = best?;
        let finish = start + cost;
        lane_avail.insert(lane, finish);
        placed[u] = Some(Placed {
            lane,
            start,
            finish,
        });
        ready.retain(|&r| r != u);
        for &v in graph.succs(u) {
            let v = v as usize;
            indeg[v] -= 1;
            ready_time[v] = ready_time[v].max(finish);
            if indeg[v] == 0 {
                ready.push(v);
            }
        }
    }

    // Every node placed: the graph is acyclic by construction.
    let placed: Vec<Placed> = placed.into_iter().collect::<Option<_>>()?;
    Some(common::finalize(input, SchedulerKind::WorkSteal, &placed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::kernel::KernelDesc;
    use crate::program::{Program, StreamPlacement, StreamRecord};
    use crate::sched::{CostModel, TaskGraph};
    use crate::types::{BufId, StreamId};
    use micsim::compute::KernelProfile;
    use micsim::device::DeviceId;

    fn cost_model(partitions: usize) -> CostModel {
        let cfg = micsim::PlatformConfig::phi_31sp();
        let plan = micsim::PartitionPlan::equal_split(&cfg.device, partitions).unwrap();
        CostModel::new(&cfg, &plan.partitions, &[1u64 << 20; 32])
    }

    fn kernels_on_streams(tiles: usize, streams: usize, work: impl Fn(usize) -> f64) -> Program {
        let mut p = Program::default();
        for s in 0..streams {
            p.streams.push(StreamRecord {
                id: StreamId(s),
                placement: StreamPlacement {
                    device: DeviceId(0),
                    partition: s,
                },
                actions: Vec::new(),
            });
        }
        for t in 0..tiles {
            p.streams[t % streams].actions.push(Action::Kernel(
                KernelDesc::simulated(format!("k{t}"), KernelProfile::streaming("k", 1e9), work(t))
                    .writing([BufId(t)]),
            ));
        }
        p
    }

    fn plan(p: &Program, cost: &CostModel) -> Schedule {
        let env = crate::check::CheckEnv::permissive(p);
        let analysis = crate::check::analyze(p, &env);
        assert!(analysis.report.is_clean());
        let graph = TaskGraph::build(p, &analysis).unwrap();
        let input = SchedInput {
            program: p,
            graph: &graph,
            cost,
        };
        schedule(&input).expect("steal schedules clean program")
    }

    #[test]
    fn idle_partitions_steal_from_starved_streams() {
        // 8 independent kernels recorded on 2 streams, 4 partitions: the
        // 2 idle partitions must pick up work.
        let cost = cost_model(4);
        let p = kernels_on_streams(8, 2, |_| 1e9);
        let sched = plan(&p, &cost);
        let used: std::collections::BTreeSet<usize> = sched
            .tasks
            .iter()
            .filter_map(|t| match t.lane {
                Lane::Partition { partition, .. } => Some(partition),
                _ => None,
            })
            .collect();
        assert_eq!(used.len(), 4, "all partitions busy: {used:?}");
        assert!(sched.steals >= 2, "steals = {}", sched.steals);
        assert_eq!(
            sched.tasks.iter().filter(|t| t.stolen).count(),
            sched.steals
        );
    }

    #[test]
    fn balanced_load_does_not_steal() {
        // 8 equal kernels on 4 streams over 4 partitions: home placement
        // is already optimal, so the tie-break keeps everything home.
        let cost = cost_model(4);
        let p = kernels_on_streams(8, 4, |_| 1e9);
        let sched = plan(&p, &cost);
        assert_eq!(sched.steals, 0, "balanced load stays home");
    }

    #[test]
    fn imbalanced_tiles_beat_fifo_makespan() {
        // One heavy tile per stream-0 slot: FIFO serializes the heavies on
        // partition 0 while others idle; stealing spreads them.
        let cost = cost_model(4);
        let p = kernels_on_streams(8, 4, |t| if t % 4 == 0 { 8e9 } else { 1e9 });
        let sched = plan(&p, &cost);
        // FIFO lower bound on partition 0: two heavy kernels back to back.
        let heavy = Action::Kernel(KernelDesc::simulated(
            "h",
            KernelProfile::streaming("k", 1e9),
            8e9,
        ));
        let heavy = cost.action_seconds(&heavy, 0, 0).unwrap();
        assert!(
            sched.makespan < 2.0 * heavy,
            "makespan {} vs fifo-ish {}",
            sched.makespan,
            2.0 * heavy
        );
        assert!(sched.steals > 0);
    }
}
