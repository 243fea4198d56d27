//! Pluggable DAG schedulers over the recorded program IR.
//!
//! The executors historically replayed the paper's baked-in FIFO stream
//! order: stream `i` runs its actions in record order on the partition it
//! was placed on, full stop. That reproduces the paper's numbers — and its
//! pathologies: a straggler tile leaves whole partitions idle, and a
//! program recorded onto `T < P` streams starves `P - T` partitions
//! outright (the Fig. 10 cliff).
//!
//! This module lifts scheduling out of the executors: a scheduler is a
//! function of a [`SchedInput`], chosen by [`SchedulerKind`]. It consumes:
//!
//! * the **task graph** ([`TaskGraph`]) — every non-control action as a
//!   node, with an edge per conflicting buffer access pair, oriented by the
//!   check module's happens-before relation (events and barriers are
//!   *subsumed* by these edges: an analyzer-clean program has every
//!   conflicting pair ordered, so the data edges alone reproduce its
//!   semantics), laid out and ordered as the happens-before graph is;
//! * the **cost model** ([`CostModel`]) — the one function that says
//!   which lane an action occupies and what the simulator charges for it
//!   there (tile bytes on the link, tile flops on a partition); the
//!   schedulers rank and place by exactly the durations the simulator
//!   will then run;
//!
//! and emits a [`Schedule`]: per-task placement + order decisions that both
//! executors honor from the same `(Schedule, TaskGraph)` pair, no program
//! in between — the simulator by lowering it (one engine task per scheduled
//! task, after its lane's previous task and its graph predecessors; see
//! [`crate::executor::sim`]), the native executor by walking the task graph
//! with one driver per partition, their queues seeded from the schedule (see
//! [`crate::executor::native`]).
//!
//! The three kinds:
//!
//! * [`SchedulerKind::Fifo`] — the default. Declines to schedule ([`plan`]
//!   returns `None`), so both executors walk the recorded program: stream
//!   order on recorded placements. This is the differential baseline.
//! * [`SchedulerKind::ListHeft`] — HEFT-style list scheduling (`heft`):
//!   tasks ordered by critical-path *upward rank*, each placed on the
//!   candidate partition with the earliest finish time, with locality-aware
//!   tie-breaking that scores candidates by the re-transfer bytes they
//!   avoid (inputs whose producer ran elsewhere).
//! * [`SchedulerKind::WorkSteal`] — greedy work-conserving placement
//!   (`steal`): ready tasks go to whichever partition frees up first,
//!   modeling idle partitions stealing ready tiles cross-partition. The
//!   native executor implements this *dynamically* (idle drivers steal from
//!   their siblings' queues, stolen-task counters surfaced in the trace);
//!   the simulator prices the equivalent earliest-ready placement
//!   deterministically.
//!
//! Scheduling is only attempted on analyzer-clean programs; anything else
//! (races, deadlocks, unknown references) falls back to FIFO execution,
//! where the executors' own gates handle it. The executors plan over the
//! [`Analysis`] their gate made and their own [`CostModel`] (one
//! `plan_analyzed` per run); only the public [`plan`], handed a bare
//! [`Program`] from outside, analyzes one itself.

mod common;
mod cost;
mod graph;
mod heft;
mod steal;

use crate::check::{Analysis, CheckEnv, Site};
use crate::program::Program;

pub use cost::CostModel;
pub use graph::TaskGraph;

/// Which scheduler a context or native run uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Replay recorded stream order on recorded placements (the paper's
    /// semantics; the default and the differential baseline).
    #[default]
    Fifo,
    /// Critical-path list scheduling with locality-aware placement.
    ListHeft,
    /// Idle partitions steal ready tasks cross-partition.
    WorkSteal,
}

impl SchedulerKind {
    /// Stable lowercase label, used in cache keys, bench JSON and traces.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::ListHeft => "heft",
            SchedulerKind::WorkSteal => "steal",
        }
    }

    /// All shipped schedulers, FIFO first.
    pub fn all() -> [SchedulerKind; 3] {
        [
            SchedulerKind::Fifo,
            SchedulerKind::ListHeft,
            SchedulerKind::WorkSteal,
        ]
    }

    /// Parse a [`label`](SchedulerKind::label) back into a kind.
    pub fn parse(s: &str) -> Option<SchedulerKind> {
        match s {
            "fifo" => Some(SchedulerKind::Fifo),
            "heft" | "listheft" => Some(SchedulerKind::ListHeft),
            "steal" | "worksteal" => Some(SchedulerKind::WorkSteal),
            _ => None,
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The resource a scheduled task occupies — mirrors the simulator's
/// resource layout (per-device link channels, the host, per-device
/// partitions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// Link channel `channel` of device `device` (transfers).
    Link {
        /// Device index.
        device: usize,
        /// Channel index (`0` for serial duplex, direction-split for full).
        channel: usize,
    },
    /// The host CPU (host-side kernels).
    Host,
    /// Partition `partition` of device `device` (device kernels).
    Partition {
        /// Device index.
        device: usize,
        /// Partition index.
        partition: usize,
    },
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lane::Link { device, channel } => write!(f, "mic{device}.link{channel}"),
            Lane::Host => write!(f, "host"),
            Lane::Partition { device, partition } => write!(f, "mic{device}.p{partition}"),
        }
    }
}

/// One placed, ordered task of a [`Schedule`].
#[derive(Clone, Copy, Debug)]
pub struct ScheduledTask {
    /// The action this decision is about, in the *original* program.
    pub site: Site,
    /// Its node in the [`TaskGraph`] the schedule was planned over.
    pub node: usize,
    /// The resource it was placed on.
    pub lane: Lane,
    /// Estimated start time, seconds from run start.
    pub start: f64,
    /// Estimated finish time, seconds from run start.
    pub finish: f64,
    /// Which `(device, partition)` driver queues this task on the native
    /// executor (transfers and host kernels too; work stealing queues every
    /// task on its recorded partition and lets idle drivers steal).
    pub driver: (usize, usize),
    /// `true` when a kernel ended up on a different partition than the
    /// stream it was recorded on — a cross-partition move ("steal").
    pub stolen: bool,
}

/// Placement + order decisions for every non-control action of a program,
/// in estimated start order (a topological order of the task graph).
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Which scheduler produced this.
    pub kind: SchedulerKind,
    /// The decisions, in global start order.
    pub tasks: Vec<ScheduledTask>,
    /// Estimated makespan, seconds.
    pub makespan: f64,
    /// Kernels moved off their recorded partition.
    pub steals: usize,
}

/// Everything a scheduler gets to work with.
pub struct SchedInput<'a> {
    /// The recorded program (placements here are the FIFO baseline).
    pub program: &'a Program,
    /// Its dependence structure.
    pub graph: &'a TaskGraph,
    /// Per-action cost estimates.
    pub cost: &'a CostModel,
}

/// Plan `program` under `kind` over an `analysis` already in hand (the
/// executors' gate made it; nothing here analyzes again), also handing
/// back the [`TaskGraph`] its [`ScheduledTask::node`]s index — the
/// simulator lowers the pair, the native executor's drivers walk it. `None`
/// when the kind declines (FIFO), the program is empty, or it is not
/// analyzer-clean (racy/deadlocked programs keep FIFO semantics and let the
/// executors' check gates deal with them).
pub(crate) fn plan_analyzed(
    program: &Program,
    analysis: &Analysis,
    cost: &CostModel,
    kind: SchedulerKind,
) -> Option<(Schedule, TaskGraph)> {
    if kind == SchedulerKind::Fifo || program.action_count() == 0 || !analysis.report.is_clean() {
        return None;
    }
    let graph = TaskGraph::build(program, analysis)?;
    let input = SchedInput {
        program,
        graph: &graph,
        cost,
    };
    let schedule = match kind {
        SchedulerKind::ListHeft => heft::schedule(&input),
        SchedulerKind::WorkSteal => steal::schedule(&input),
        SchedulerKind::Fifo => None,
    }?;
    Some((schedule, graph))
}

/// Compute a schedule for a bare `program` under `kind` — analyzing it
/// first, against the environment it implies ([`CheckEnv::permissive`]).
/// `None` when the kind declines (FIFO), the program is empty, or it is
/// not analyzer-clean.
pub fn plan(program: &Program, cost: &CostModel, kind: SchedulerKind) -> Option<Schedule> {
    let analysis = crate::check::analyze(program, &CheckEnv::permissive(program));
    plan_analyzed(program, &analysis, cost, kind).map(|(schedule, _)| schedule)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_round_trip() {
        for kind in SchedulerKind::all() {
            assert_eq!(SchedulerKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(SchedulerKind::parse("nope"), None);
        assert_eq!(SchedulerKind::default(), SchedulerKind::Fifo);
    }

    #[test]
    fn lanes_display_like_sim_resources() {
        let l = Lane::Link {
            device: 0,
            channel: 1,
        };
        assert_eq!(l.to_string(), "mic0.link1");
        assert_eq!(Lane::Host.to_string(), "host");
        assert_eq!(
            Lane::Partition {
                device: 1,
                partition: 3
            }
            .to_string(),
            "mic1.p3"
        );
    }

    #[test]
    fn fifo_always_declines() {
        let program = Program::default();
        let cost = CostModel::new(&micsim::PlatformConfig::phi_31sp(), &[], &[]);
        assert!(plan(&program, &cost, SchedulerKind::Fifo).is_none());
        assert!(
            plan(&program, &cost, SchedulerKind::ListHeft).is_none(),
            "empty program declines"
        );
    }
}
