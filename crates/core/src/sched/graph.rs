//! The task graph schedulers plan over.
//!
//! Nodes are the program's non-control actions (transfers and kernels —
//! the things that occupy hardware). Edges are *data dependences*: one
//! edge per conflicting access pair (same buffer, same memory space, at
//! least one write — the analyzer's own access table), oriented by the
//! check module's happens-before relation. Events and barriers do not
//! appear as nodes; on an analyzer-clean program every conflicting pair is
//! HB-ordered, so the data edges alone carry the program's semantics —
//! which is exactly what lets a scheduler drop the recorded stream
//! structure and re-place work freely without changing any buffer's final
//! contents.
//!
//! The edges are laid out as the happens-before graph's are (one CSR table
//! per direction, edges in the order the access table yields them), and
//! the order is its order restricted to the task nodes: no sort of its own.
//!
//! Construction refuses unclean programs: if any conflicting pair is
//! unordered (a race), [`TaskGraph::build`] returns `None` and the caller
//! falls back to FIFO execution.

use crate::check::{Analysis, Csr, Site};
use crate::program::Program;

/// One schedulable action.
#[derive(Clone, Copy, Debug)]
pub struct TaskNode {
    /// Where the action lives in the original program.
    pub site: Site,
    /// Device of the stream it was recorded on.
    pub device: usize,
    /// Partition of the stream it was recorded on — the FIFO baseline
    /// placement, and the seed placement for work stealing.
    pub partition: usize,
}

/// Dependence DAG over a program's non-control actions.
pub struct TaskGraph {
    /// The nodes, in site order (stream-major, then action index).
    pub nodes: Vec<TaskNode>,
    /// Each node's predecessors.
    preds: Csr,
    /// Each node's successors (the same edges, reversed).
    succs: Csr,
    /// The nodes in the happens-before graph's topological order.
    pub(super) order: Vec<usize>,
}

impl TaskGraph {
    /// Build the dependence DAG for `program` using `analysis` (the result
    /// of [`analyze`](crate::check::analyze) over the same program).
    ///
    /// Every edge runs along happens-before, a strict partial order, so the
    /// graph is acyclic by construction. Returns `None` when a conflicting
    /// access pair is unordered — the program is racy and must keep its
    /// recorded FIFO semantics — or the program deadlocks.
    pub fn build(program: &Program, analysis: &Analysis) -> Option<TaskGraph> {
        let hb_order = analysis.hb.order().ok()?;
        let mut nodes = Vec::new();
        for (si, stream) in program.streams.iter().enumerate() {
            for (ai, action) in stream.actions.iter().enumerate() {
                if action.is_control() {
                    continue;
                }
                nodes.push(TaskNode {
                    site: Site::new(si, ai),
                    device: stream.placement.device.0,
                    partition: stream.placement.partition,
                });
            }
        }
        let mut graph = TaskGraph {
            nodes,
            preds: Csr::default(),
            succs: Csr::default(),
            order: Vec::new(),
        };
        let node = |site| {
            graph
                .node_of(site)
                .expect("only non-control actions access buffers")
        };

        // The analyzer's access table, group by group in its order; two
        // sites conflicting on two buffers come up twice.
        let mut edges = Vec::new();
        for group in analysis.accesses.groups() {
            for (i, a) in group.iter().enumerate() {
                for b in &group[i + 1..] {
                    if (!a.write && !b.write) || a.site == b.site {
                        continue;
                    }
                    let (from, to) = if analysis.happens_before(a.site, b.site) {
                        (a.site, b.site)
                    } else if analysis.happens_before(b.site, a.site) {
                        (b.site, a.site)
                    } else {
                        // Unordered conflict: a race. Refuse to schedule.
                        return None;
                    };
                    edges.push((node(from) as u32, node(to) as u32));
                }
            }
        }
        (graph.preds, graph.succs) = Csr::pair(graph.len(), &edges);
        graph.preds.dedup();
        graph.succs.dedup();

        let hb = analysis.hb.edges();
        let sites = hb_order.iter().filter_map(|&v| hb.site_of(v as usize));
        graph.order = sites.filter_map(|site| graph.node_of(site)).collect();
        Some(graph)
    }

    /// Number of schedulable tasks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node of the action at `site` (`None` for a control action).
    pub(crate) fn node_of(&self, site: Site) -> Option<usize> {
        self.nodes.binary_search_by_key(&site, |n| n.site).ok()
    }

    /// The nodes that must finish before node `v` starts.
    pub fn preds(&self, v: usize) -> &[u32] {
        self.preds.of(v)
    }

    /// The nodes waiting on node `v`.
    pub fn succs(&self, v: usize) -> &[u32] {
        self.succs.of(v)
    }

    /// Borrow the action behind node `n` from its program.
    pub fn action<'a>(&self, program: &'a Program, n: usize) -> &'a crate::action::Action {
        let site = self.nodes[n].site;
        &program.streams[site.stream.0].actions[site.action_index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::kernel::KernelDesc;
    use crate::program::{EventSite, StreamPlacement, StreamRecord};
    use crate::types::{BufId, EventId, StreamId};
    use micsim::compute::KernelProfile;
    use micsim::device::DeviceId;
    use micsim::pcie::Direction;

    fn stream(id: usize, partition: usize, actions: Vec<Action>) -> StreamRecord {
        StreamRecord {
            id: StreamId(id),
            placement: StreamPlacement {
                device: DeviceId(0),
                partition,
            },
            actions,
        }
    }

    fn h2d(buf: usize) -> Action {
        Action::Transfer {
            dir: Direction::HostToDevice,
            buf: BufId(buf),
        }
    }

    fn kernel(label: &str, reads: &[usize], writes: &[usize]) -> Action {
        Action::Kernel(
            KernelDesc::simulated(label, KernelProfile::streaming("k", 1e9), 1.0)
                .reading(reads.iter().map(|&b| BufId(b)))
                .writing(writes.iter().map(|&b| BufId(b))),
        )
    }

    fn analyzed(p: &Program) -> Analysis {
        let env = crate::check::CheckEnv::permissive(p);
        crate::check::analyze(p, &env)
    }

    #[test]
    fn fifo_chain_becomes_dependence_chain() {
        // h2d b0 -> kernel(b0 -> b1) -> kernel(b1 -> b2): two data edges.
        let mut p = Program::default();
        p.streams.push(stream(
            0,
            0,
            vec![h2d(0), kernel("k1", &[0], &[1]), kernel("k2", &[1], &[2])],
        ));
        let a = analyzed(&p);
        assert!(a.report.is_clean());
        let g = TaskGraph::build(&p, &a).expect("clean program builds");
        assert_eq!(g.len(), 3);
        assert_eq!(g.succs(0), [1]);
        assert_eq!(g.succs(1), [2]);
        assert_eq!(g.preds(2), [1]);
        assert_eq!(g.order, [0, 1, 2]);
    }

    #[test]
    fn a_pair_conflicting_on_two_buffers_gets_one_edge() {
        // k2 reads both of k1's outputs; h2d b3 precedes both on b3.
        let mut p = Program::default();
        p.streams.push(stream(
            0,
            0,
            vec![
                h2d(3),
                kernel("k1", &[3], &[0, 1]),
                kernel("k2", &[0, 1, 3], &[2]),
            ],
        ));
        let a = analyzed(&p);
        let g = TaskGraph::build(&p, &a).unwrap();
        assert_eq!(g.preds(2), [1, 0], "first-found order, each once");
        assert_eq!(g.succs(0), [1, 2]);
        assert_eq!(g.succs(1), [2]);
    }

    #[test]
    fn event_ordered_cross_stream_conflict_gets_an_edge() {
        let mut p = Program::default();
        p.streams
            .push(stream(0, 0, vec![h2d(0), Action::RecordEvent(EventId(0))]));
        p.streams.push(stream(
            1,
            1,
            vec![Action::WaitEvent(EventId(0)), kernel("k", &[0], &[1])],
        ));
        p.events.push(EventSite {
            stream: StreamId(0),
            action_index: 1,
        });
        let a = analyzed(&p);
        let g = TaskGraph::build(&p, &a).unwrap();
        // Control actions are not nodes.
        assert_eq!(g.len(), 2);
        let sites: Vec<Site> = g.nodes.iter().map(|n| n.site).collect();
        assert_eq!(sites, [Site::new(0, 0), Site::new(1, 1)], "no control");
        assert_eq!(g.node_of(Site::new(1, 0)), None, "a wait is no node");
        assert_eq!(g.node_of(Site::new(1, 1)), Some(1));
        assert_eq!(g.succs(0), [1]);
    }

    #[test]
    fn racy_program_refuses_to_build() {
        // Cross-stream write/read of b0 with no event: unordered conflict.
        let mut p = Program::default();
        p.streams.push(stream(0, 0, vec![h2d(0)]));
        p.streams.push(stream(1, 1, vec![kernel("k", &[0], &[1])]));
        let a = analyzed(&p);
        assert!(!a.report.is_clean());
        assert!(TaskGraph::build(&p, &a).is_none());
    }

    #[test]
    fn independent_tiles_share_no_edges() {
        let mut p = Program::default();
        p.streams
            .push(stream(0, 0, vec![h2d(0), kernel("k0", &[0], &[1])]));
        p.streams
            .push(stream(1, 1, vec![h2d(2), kernel("k1", &[2], &[3])]));
        let a = analyzed(&p);
        let g = TaskGraph::build(&p, &a).unwrap();
        assert_eq!(g.len(), 4);
        let cross: usize = (0..g.len())
            .flat_map(|u| g.succs(u).iter().map(move |&v| (u, v as usize)))
            .filter(|&(u, v)| g.nodes[u].site.stream != g.nodes[v].site.stream)
            .count();
        assert_eq!(cross, 0, "tiles are independent");
        assert_eq!(g.order, [0, 1, 2, 3], "the happens-before sweep");
    }
}
