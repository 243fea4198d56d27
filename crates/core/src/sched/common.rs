//! Shared machinery for the list and stealing schedulers: node-indexed
//! views of the cost model's lanes and prices, and schedule finalization
//! (native driver hints, steal counting, global ordering).

use crate::action::Action;

use super::{Lane, SchedInput, Schedule, ScheduledTask, SchedulerKind};

/// One node's placement decision before finalization.
#[derive(Clone, Copy, Debug)]
pub(super) struct Placed {
    pub lane: Lane,
    pub start: f64,
    pub finish: f64,
}

/// Seconds node `u` takes on `lane` — the cost model's price, in the
/// schedulers' unit. `None` for impossible combinations.
pub(super) fn lane_cost(input: &SchedInput<'_>, u: usize, lane: Lane) -> Option<f64> {
    let action = input.graph.action(input.program, u);
    let price = input.cost.price(action, lane).ok()?;
    Some(price.as_secs_f64())
}

/// Cost of every node on its *recorded* lane, in node order. `None` when
/// any kernel cannot be priced (decline to schedule).
pub(super) fn base_costs(input: &SchedInput<'_>) -> Option<Vec<f64>> {
    (0..input.graph.len())
        .map(|u| {
            let node = input.graph.nodes[u];
            let action = input.graph.action(input.program, u);
            input
                .cost
                .action_seconds(action, node.device, node.partition)
        })
        .collect()
}

/// Buffers node `u` produces (transfer payloads and kernel writes) — the
/// residency a consumer would rather stay next to.
fn produces<'p>(input: &SchedInput<'p>, u: usize) -> &'p [crate::types::BufId] {
    match input.graph.action(input.program, u) {
        Action::Transfer { buf, .. } => std::slice::from_ref(buf),
        Action::Kernel(k) => &k.writes,
        _ => &[],
    }
}

/// Locality score of placing device-kernel `u` on partition `candidate`:
/// the re-transfer seconds its inputs would cost if they had to move from
/// the partitions that produced them. Zero when every input producer sits
/// on `candidate` (or on no partition at all — host/link producers are
/// equidistant). Used as a tie-break, not a hard constraint: partitions
/// of one card share memory, so the penalty models cache/locality affinity
/// rather than a mandatory copy.
pub(super) fn locality_penalty(
    input: &SchedInput<'_>,
    u: usize,
    candidate: usize,
    lane_of: &[Option<Lane>],
) -> f64 {
    let Action::Kernel(k) = input.graph.action(input.program, u) else {
        return 0.0;
    };
    let mut penalty = 0.0;
    for &p in input.graph.preds(u) {
        let p = p as usize;
        let Some(Lane::Partition { partition, .. }) = lane_of[p] else {
            continue;
        };
        if partition == candidate {
            continue;
        }
        for &buf in produces(input, p) {
            if k.reads.contains(&buf) {
                let dir = micsim::pcie::Direction::HostToDevice;
                let reload = Action::Transfer { dir, buf };
                penalty += input.cost.action_seconds(&reload, 0, 0).unwrap_or(0.0);
            }
        }
    }
    penalty
}

/// Turn raw placements into a [`Schedule`]: count steals, derive native
/// driver hints, and sort into global start order.
pub(super) fn finalize(input: &SchedInput<'_>, kind: SchedulerKind, placed: &[Placed]) -> Schedule {
    let graph = input.graph;
    let part_of = |u: usize| match placed[u].lane {
        Lane::Partition { device, partition } => Some((device, partition)),
        _ => None,
    };

    let mut tasks = Vec::with_capacity(graph.len());
    let mut steals = 0usize;
    for (u, pl) in placed.iter().enumerate() {
        let node = graph.nodes[u];
        let stolen = match part_of(u) {
            Some((_, partition)) => partition != node.partition,
            None => false,
        };
        if stolen {
            steals += 1;
        }
        // Native driver hint: work stealing queues every task on its
        // recorded partition (drivers steal when genuinely idle); otherwise
        // a kernel goes to its own partition's driver, a transfer to that of
        // the kernel it feeds (or came from), a host kernel to (0, 0).
        let driver = if kind == SchedulerKind::WorkSteal {
            (node.device, node.partition)
        } else {
            part_of(u)
                .or_else(|| graph.succs(u).iter().find_map(|&v| part_of(v as usize)))
                .or_else(|| graph.preds(u).iter().find_map(|&v| part_of(v as usize)))
                .unwrap_or((node.device, 0))
        };
        tasks.push(ScheduledTask {
            site: node.site,
            node: u,
            lane: pl.lane,
            start: pl.start,
            finish: pl.finish,
            driver,
            stolen,
        });
    }
    tasks.sort_by(|a, b| {
        a.start
            .total_cmp(&b.start)
            .then_with(|| a.site.stream.cmp(&b.site.stream))
            .then_with(|| a.site.action_index.cmp(&b.site.action_index))
    });
    let makespan = placed.iter().map(|p| p.finish).fold(0.0, f64::max);
    Schedule {
        kind,
        tasks,
        makespan,
        steals,
    }
}
