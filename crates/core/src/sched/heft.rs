//! HEFT-style list scheduling with locality-aware placement.
//!
//! Classic Heterogeneous Earliest Finish Time, adapted to the MIC lane
//! model: tasks are ordered by *upward rank* (task cost plus the heaviest
//! downstream chain — i.e. distance from the DAG's exit along the critical
//! path) and placed greedily, highest rank first, on the candidate lane
//! with the earliest finish time. Transfers are pinned to their link
//! channel and host kernels to the host, so the real placement freedom —
//! and the win over FIFO — is in spreading device kernels across
//! partitions regardless of which stream they were recorded on.
//!
//! Ties between partitions with equal finish times are broken by a
//! *locality penalty*: candidates are charged the re-transfer seconds of
//! every input whose producer was placed on a different partition (see
//! `common::locality_penalty`). The penalty is scaled far below
//! real cost differences so it only decides ties — partitions of one card
//! share physical memory, so locality is an affinity, not a correctness
//! constraint.

use super::common::{self, Placed};
use super::{Lane, SchedInput, Schedule, SchedulerKind};

/// Weight of the locality penalty relative to finish-time seconds. Small
/// enough to never override a genuinely earlier finish, large enough to
/// decide exact ties deterministically toward data-local partitions.
const LOCALITY_WEIGHT: f64 = 1e-4;

/// Run HEFT list scheduling over `input`. Returns `None` on empty graphs or
/// unpriceable kernels.
pub(crate) fn schedule(input: &SchedInput<'_>) -> Option<Schedule> {
    let graph = input.graph;
    let n = graph.len();
    if n == 0 {
        return None;
    }
    let costs = common::base_costs(input)?;

    // Upward rank: cost of the task plus the heaviest successor rank, in
    // reverse of the graph's topological order.
    let mut rank = vec![0.0f64; n];
    for &u in graph.order.iter().rev() {
        let tail = graph
            .succs(u)
            .iter()
            .map(|&v| rank[v as usize])
            .fold(0.0f64, f64::max);
        rank[u] = costs[u] + tail;
    }

    // List order: rank descending (ties by node index, i.e. site order).
    // Rank strictly decreases along every edge (costs include the enqueue
    // overhead, so they are positive), which makes this a topological
    // order — predecessors are always placed before their successors.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| rank[b].total_cmp(&rank[a]).then_with(|| a.cmp(&b)));

    let mut lane_avail: std::collections::HashMap<Lane, f64> = std::collections::HashMap::new();
    let mut placed: Vec<Option<Placed>> = vec![None; n];
    let mut lane_of: Vec<Option<Lane>> = vec![None; n];

    for &u in &order {
        let ready = graph
            .preds(u)
            .iter()
            .map(|&p| placed[p as usize].expect("preds placed first").finish)
            .fold(0.0f64, f64::max);
        let mut best: Option<(f64, f64, Lane)> = None; // (score, finish, lane)
        let action = graph.action(input.program, u);
        for lane in input.cost.candidate_lanes(action, graph.nodes[u].device) {
            let Some(cost) = common::lane_cost(input, u, lane) else {
                continue;
            };
            let start = ready.max(lane_avail.get(&lane).copied().unwrap_or(0.0));
            let finish = start + cost;
            let penalty = match lane {
                Lane::Partition { partition, .. } => {
                    common::locality_penalty(input, u, partition, &lane_of)
                }
                _ => 0.0,
            };
            let score = finish + LOCALITY_WEIGHT * penalty;
            let better = match &best {
                None => true,
                Some((s, _, l)) => score < *s || (score == *s && lane < *l),
            };
            if better {
                best = Some((score, finish, lane));
            }
        }
        let (_, finish, lane) = best?;
        let start = finish - common::lane_cost(input, u, lane)?;
        lane_avail.insert(lane, finish);
        lane_of[u] = Some(lane);
        placed[u] = Some(Placed {
            lane,
            start,
            finish,
        });
    }

    let placed: Vec<Placed> = placed.into_iter().map(Option::unwrap).collect();
    Some(common::finalize(input, SchedulerKind::ListHeft, &placed))
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
    use micsim::pcie::Direction;

    fn cost_model(partitions: usize) -> CostModel {
        let cfg = micsim::PlatformConfig::phi_31sp();
        let plan = micsim::PartitionPlan::equal_split(&cfg.device, partitions).unwrap();
        CostModel::new(&cfg, &plan.partitions, &[1u64 << 20; 16])
    }

    fn tile_program(tiles: usize, streams: usize, work: impl Fn(usize) -> f64) -> Program {
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
            let s = t % streams;
            p.streams[s].actions.push(Action::Transfer {
                dir: Direction::HostToDevice,
                buf: BufId(t),
            });
            p.streams[s].actions.push(Action::Kernel(
                KernelDesc::simulated(format!("k{t}"), KernelProfile::streaming("k", 1e9), work(t))
                    .reading([BufId(t)]),
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
        schedule(&input).expect("heft schedules clean program")
    }

    #[test]
    fn spreads_starved_streams_across_partitions() {
        // 8 tiles recorded on 2 streams, 4 partitions available: HEFT
        // should use more than the 2 recorded partitions.
        let cost = cost_model(4);
        let p = tile_program(8, 2, |_| 1e9);
        let sched = plan(&p, &cost);
        let used: std::collections::BTreeSet<usize> = sched
            .tasks
            .iter()
            .filter_map(|t| match t.lane {
                Lane::Partition { partition, .. } => Some(partition),
                _ => None,
            })
            .collect();
        assert!(used.len() > 2, "used partitions {used:?}");
        assert!(sched.steals > 0, "moved kernels off recorded partitions");
        assert_eq!(sched.kind, SchedulerKind::ListHeft);
        assert_eq!(sched.tasks.len(), 16);
    }

    #[test]
    fn respects_dependence_order() {
        let cost = cost_model(4);
        let mut p = Program::default();
        p.streams.push(StreamRecord {
            id: StreamId(0),
            placement: StreamPlacement {
                device: DeviceId(0),
                partition: 0,
            },
            actions: vec![
                Action::Transfer {
                    dir: Direction::HostToDevice,
                    buf: BufId(0),
                },
                Action::Kernel(
                    KernelDesc::simulated("a", KernelProfile::streaming("k", 1e9), 1e9)
                        .reading([BufId(0)])
                        .writing([BufId(1)]),
                ),
                Action::Kernel(
                    KernelDesc::simulated("b", KernelProfile::streaming("k", 1e9), 1e9)
                        .reading([BufId(1)])
                        .writing([BufId(2)]),
                ),
            ],
        });
        let sched = plan(&p, &cost);
        let find = |ai: usize| {
            sched
                .tasks
                .iter()
                .find(|t| t.site.action_index == ai)
                .unwrap()
        };
        assert!(find(1).start >= find(0).finish - 1e-12);
        assert!(find(2).start >= find(1).finish - 1e-12);
        assert!(sched.makespan >= find(2).finish - 1e-12);
    }

    #[test]
    fn locality_breaks_ties_toward_producer_partition() {
        // Chain: k_a writes b1 on some partition; k_b reads b1. All
        // partitions finish-tie for k_b (they are all idle at k_a's
        // finish), so locality must pick k_a's partition.
        let cost = cost_model(4);
        let mut p = Program::default();
        p.streams.push(StreamRecord {
            id: StreamId(0),
            placement: StreamPlacement {
                device: DeviceId(0),
                partition: 0,
            },
            actions: vec![
                Action::Kernel(
                    KernelDesc::simulated("a", KernelProfile::streaming("k", 1e9), 1e9)
                        .writing([BufId(1)]),
                ),
                Action::Kernel(
                    KernelDesc::simulated("b", KernelProfile::streaming("k", 1e9), 1e9)
                        .reading([BufId(1)]),
                ),
            ],
        });
        let sched = plan(&p, &cost);
        let [a, b] = &sched.tasks[..] else {
            panic!("two kernels, two tasks")
        };
        assert_eq!(a.lane, b.lane, "consumer follows producer on ties");
    }
}
