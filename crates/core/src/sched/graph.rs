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
//! Construction refuses unclean programs: if any conflicting pair is
//! unordered (a race), [`TaskGraph::build`] returns `None` and the caller
//! falls back to FIFO execution.

use std::collections::HashSet;

use crate::check::{Analysis, Site};
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
    /// `preds[i]` = node indices that must finish before node `i` starts.
    pub preds: Vec<Vec<usize>>,
    /// `succs[i]` = node indices waiting on node `i`.
    pub succs: Vec<Vec<usize>>,
}

impl TaskGraph {
    /// Build the dependence DAG for `program` using `analysis` (the result
    /// of [`analyze`](crate::check::analyze) over the same program).
    /// Returns `None` when a conflicting access pair is unordered — the
    /// program is racy and must keep its recorded FIFO semantics.
    pub fn build(program: &Program, analysis: &Analysis) -> Option<TaskGraph> {
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
        // Site order, so a site finds its node by binary search.
        let node_of = |site: Site| {
            let found = nodes.binary_search_by_key(&site, |n| n.site);
            found.expect("only non-control actions access buffers")
        };

        let n = nodes.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut seen: HashSet<(usize, usize)> = HashSet::new();

        // The analyzer's access table, group by group in its order.
        for group in analysis.accesses.groups() {
            for (i, a) in group.iter().enumerate() {
                for b in &group[i + 1..] {
                    if !a.write && !b.write {
                        continue;
                    }
                    if a.site == b.site {
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
                    let (u, v) = (node_of(from), node_of(to));
                    if seen.insert((u, v)) {
                        succs[u].push(v);
                        preds[v].push(u);
                    }
                }
            }
        }

        Some(TaskGraph {
            nodes,
            preds,
            succs,
        })
    }

    /// Number of schedulable tasks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow the action behind node `n` from its program.
    pub fn action<'a>(&self, program: &'a Program, n: usize) -> &'a crate::action::Action {
        let site = self.nodes[n].site;
        &program.streams[site.stream.0].actions[site.action_index]
    }

    /// A deterministic topological order (Kahn's algorithm, smallest node
    /// index first). Always complete for graphs built from an acyclic HB
    /// relation; truncated if a cycle sneaks in (callers should treat a
    /// short order as "decline to schedule").
    pub fn topo_order(&self) -> Vec<usize> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut ready: BinaryHeap<Reverse<usize>> = indeg
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| Reverse(i))
            .collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(Reverse(u)) = ready.pop() {
            order.push(u);
            for &v in &self.succs[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    ready.push(Reverse(v));
                }
            }
        }
        order
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
        assert_eq!(g.succs[0], vec![1]);
        assert_eq!(g.succs[1], vec![2]);
        assert_eq!(g.preds[2], vec![1]);
        assert_eq!(g.topo_order(), vec![0, 1, 2]);
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
        assert_eq!(g.succs[0], vec![1]);
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
        let cross: usize = g
            .succs
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| g.nodes[u].site.stream != g.nodes[v].site.stream)
            .count();
        assert_eq!(cross, 0, "tiles are independent");
        assert_eq!(g.topo_order().len(), 4);
    }
}
