//! Executable witnesses for analyzer findings.
//!
//! A diagnostic is a *claim* about runtime behavior: a race claims the two
//! sites can execute in either order with different results; a deadlock
//! claims no executor schedule completes the program. This module turns
//! claims into **schedules a differential harness can run**:
//!
//! * for a [`CheckCode::Race`], two happens-before-consistent total orders
//!   of the program's actions — one executing the racing pair `a` before
//!   `b`, one `b` before `a`. Replaying both through a reference
//!   interpreter (see [`testutil::RefExec`](crate::testutil::RefExec)) and
//!   comparing states demonstrates the race is observable (or that it is
//!   benign — e.g. both orders write identical bits);
//! * for a [`CheckCode::DeadlockCycle`], the witness cycle of sites from
//!   the happens-before graph — a FIFO interpretation must wedge with its
//!   blocked frontier on that cycle;
//! * everything else (unknown references, self-waits, placement lints) is
//!   [`WitnessKind::Structural`]: the program cannot run at all, so there
//!   is no schedule to exhibit — validation or installation refuses it.
//!
//! Witness schedules are deterministic: the constrained topological sort
//! always picks the smallest ready node, so the same program and
//! diagnostic produce byte-identical orders.

use super::diagnostics::{CheckClass, CheckCode, Diagnostic, Site};
use super::hb::{HbEdges, HbGraph};

/// What kind of runtime behavior a witness demonstrates.
#[derive(Clone, Debug)]
pub enum WitnessKind {
    /// No schedule completes: the sites form a wait cycle. A FIFO
    /// interpretation of the program must get stuck.
    Deadlock {
        /// The cycle's action sites, in causal order.
        cycle: Vec<Site>,
    },
    /// Both orders of the racing pair are consistent with happens-before;
    /// executing them may produce different states.
    Race {
        /// The diagnostic's primary site.
        a: Site,
        /// Its race partner (first related site).
        b: Site,
        /// A linear extension executing `a` before `b`. On a cyclic graph
        /// the order is partial (it stops at the cycle).
        order_ab: Vec<Site>,
        /// A linear extension executing `b` before `a`.
        order_ba: Vec<Site>,
    },
    /// The program is structurally unrunnable (unknown event or buffer,
    /// self-wait, out-of-range placement): the witness is the refusal
    /// itself, not a schedule.
    Structural,
}

/// One analyzer claim made executable. Produced by
/// [`Analysis::witness`](super::Analysis::witness).
#[derive(Clone, Debug)]
pub struct HazardWitness {
    /// The rule whose claim this witnesses.
    pub code: CheckCode,
    /// The diagnostic's primary site.
    pub site: Site,
    /// The executable demonstration.
    pub kind: WitnessKind,
}

impl HazardWitness {
    /// The hazard class this witness demonstrates, for class-level
    /// comparisons against executor outcomes.
    pub fn class(&self) -> CheckClass {
        self.code.class()
    }
}

/// Build the witness for `diag` over the program `hb` was built from (see
/// the [module docs](self)).
pub(super) fn witness(hb: &HbGraph, diag: &Diagnostic) -> HazardWitness {
    let kind = match diag.code {
        CheckCode::DeadlockCycle => WitnessKind::Deadlock {
            cycle: hb.cycle().map_or_else(
                || {
                    // The graph was rebuilt acyclic (shouldn't happen for a
                    // live diagnostic) — fall back to the diagnostic's
                    // recorded hops.
                    let mut c = vec![diag.site];
                    c.extend(diag.related.iter().copied());
                    c
                },
                <[Site]>::to_vec,
            ),
        },
        CheckCode::Race => match diag.related.first().copied() {
            Some(b) => {
                let a = diag.site;
                WitnessKind::Race {
                    a,
                    b,
                    order_ab: linear_extension(hb.edges(), b),
                    order_ba: linear_extension(hb.edges(), a),
                }
            }
            // A race claim without a partner site names no pair to
            // schedule (the analyzer never emits one, but hand-built
            // diagnostics may): there is nothing executable to show.
            None => WitnessKind::Structural,
        },
        _ => WitnessKind::Structural,
    };
    HazardWitness {
        code: diag.code,
        site: diag.site,
        kind,
    }
}

/// A happens-before-consistent total order over the program's actions
/// that schedules `delayed` as late as possible: a Kahn topological sort
/// that only emits `delayed`'s node when it is the sole ready node.
///
/// For any site `x` *concurrent* with `delayed`, this guarantees `x`
/// executes first — if `delayed` were ever the only ready node while `x`
/// was still pending, `x` would transitively depend on `delayed`,
/// contradicting concurrency. Ties among other ready nodes break to the
/// smallest node id, so the order is deterministic.
///
/// On a cyclic graph the sort stalls at the cycle and the order is
/// partial — callers pair this with the deadlock witness instead.
fn linear_extension(edges: &HbEdges, delayed: Site) -> Vec<Site> {
    let delayed_node = edges.node_of(delayed);

    let mut indeg: Vec<u32> = (0..edges.nodes)
        .map(|v| edges.preds(v).len() as u32)
        .collect();

    let mut ready: std::collections::BTreeSet<usize> =
        (0..edges.nodes).filter(|&v| indeg[v] == 0).collect();
    let mut order = Vec::with_capacity(edges.total_actions);
    while !ready.is_empty() {
        // Smallest ready node that is not the delayed one; the delayed
        // node only when nothing else can run.
        let v = ready
            .iter()
            .copied()
            .find(|&v| v != delayed_node)
            .unwrap_or(delayed_node);
        ready.remove(&v);
        if let Some(site) = edges.site_of(v) {
            order.push(site);
        }
        for &w in edges.succs(v) {
            let w = w as usize;
            indeg[w] -= 1;
            if indeg[w] == 0 {
                ready.insert(w);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{analyze, CheckEnv};
    use crate::program::Program;
    use crate::testutil::{build_synced, drop_one_wait, mix_kernel, stream_skeleton, RefExec};
    use crate::types::BufId;

    fn first_error(program: &Program) -> (crate::check::Analysis, crate::check::Diagnostic) {
        let env = CheckEnv::permissive(program);
        let a = analyze(program, &env);
        let d = a.report.errors().next().expect("an error finding").clone();
        (a, d)
    }

    #[test]
    fn race_witness_orders_execute_the_pair_both_ways() {
        // Two unordered writers of one buffer.
        let mut p = stream_skeleton(2, 2);
        p.streams[0]
            .actions
            .push(crate::action::Action::Kernel(mix_kernel(
                "w0",
                [],
                [BufId(0)],
                1.0,
            )));
        p.streams[1]
            .actions
            .push(crate::action::Action::Kernel(mix_kernel(
                "w1",
                [],
                [BufId(0)],
                1.0,
            )));
        let (analysis, diag) = first_error(&p);
        assert_eq!(diag.code, CheckCode::Race);
        let w = analysis.witness(&diag);
        let WitnessKind::Race {
            a,
            b,
            order_ab,
            order_ba,
        } = &w.kind
        else {
            panic!("race witness expected, got {:?}", w.kind);
        };
        // Both orders are total and put the pair in opposite orders.
        assert_eq!(order_ab.len(), p.action_count());
        assert_eq!(order_ba.len(), p.action_count());
        let pos = |order: &[Site], s: &Site| order.iter().position(|x| x == s).unwrap();
        assert!(pos(order_ab, a) < pos(order_ab, b));
        assert!(pos(order_ba, b) < pos(order_ba, a));
        // Executing them diverges: the race is observable.
        let lens = vec![4usize];
        let sab = RefExec::run_order(&p, &lens, order_ab);
        let sba = RefExec::run_order(&p, &lens, order_ba);
        assert_ne!(sab.fingerprint(), sba.fingerprint());
    }

    #[test]
    fn dropping_a_wait_yields_a_runnable_race_or_deadlock_witness() {
        let p = build_synced(3, &[(0, 0), (1, 1), (2, 0)]);
        let broken = drop_one_wait(&p, 1);
        let env = CheckEnv::permissive(&broken);
        let analysis = analyze(&broken, &env);
        let diag = analysis.report.errors().next().expect("must not be clean");
        let w = analysis.witness(diag);
        match &w.kind {
            WitnessKind::Race {
                order_ab, order_ba, ..
            } => {
                assert_eq!(order_ab.len(), broken.action_count());
                assert_eq!(order_ba.len(), broken.action_count());
            }
            WitnessKind::Deadlock { cycle } => assert!(!cycle.is_empty()),
            WitnessKind::Structural => panic!("dropped wait is not structural"),
        }
    }

    #[test]
    fn deadlock_witness_carries_the_cycle_and_fifo_wedges_on_it() {
        use crate::action::Action;
        use crate::program::EventSite;
        use crate::types::{EventId, StreamId};
        let mut p = stream_skeleton(2, 2);
        p.streams[0].actions.push(Action::WaitEvent(EventId(1)));
        p.streams[0].actions.push(Action::RecordEvent(EventId(0)));
        p.streams[1].actions.push(Action::WaitEvent(EventId(0)));
        p.streams[1].actions.push(Action::RecordEvent(EventId(1)));
        p.events.push(EventSite {
            stream: StreamId(0),
            action_index: 1,
        });
        p.events.push(EventSite {
            stream: StreamId(1),
            action_index: 1,
        });
        let (analysis, diag) = first_error(&p);
        assert_eq!(diag.code, CheckCode::DeadlockCycle);
        let w = analysis.witness(&diag);
        let WitnessKind::Deadlock { cycle } = &w.kind else {
            panic!("deadlock witness expected");
        };
        assert!(cycle.len() >= 2);
        // The runtime face of the claim: FIFO interpretation gets stuck,
        // and every blocked head is one of the cycle's wait sites.
        let stuck = RefExec::run_fifo(&p, &[]).expect_err("deadlock must wedge");
        assert!(!stuck.frontier.is_empty());
        for (site, _) in &stuck.frontier {
            assert!(
                cycle.contains(site),
                "blocked site {site} not on the witnessed cycle {cycle:?}"
            );
        }
    }

    #[test]
    fn structural_findings_witness_as_structural() {
        use crate::action::Action;
        use crate::types::EventId;
        let mut p = stream_skeleton(1, 1);
        p.streams[0].actions.push(Action::WaitEvent(EventId(9)));
        let (analysis, diag) = first_error(&p);
        assert_eq!(diag.code, CheckCode::UnknownEvent);
        let w = analysis.witness(&diag);
        assert!(matches!(w.kind, WitnessKind::Structural));
        assert_eq!(w.class(), CheckClass::Deadlock);
    }
}
