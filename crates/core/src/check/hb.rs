//! The happens-before graph over a recorded [`Program`].
//!
//! Nodes are the program's actions plus one virtual *join* node per
//! barrier index. Edges encode the executors' ordering guarantees:
//!
//! * **FIFO** — each action after its predecessor in the same stream;
//! * **events** — every `WaitEvent(e)` after the `RecordEvent(e)` site;
//! * **barriers** — `Barrier(n)` actions feed barrier `n`'s join node,
//!   which feeds the next action of every participating stream.
//!
//! The edges are kept flat, one CSR table per direction (offsets plus one
//! list; each node's predecessors and successors in the order the edges
//! were derived), filled from the program's edges in two passes — count,
//! then place — so a graph costs a handful of allocations, not two per
//! node, and every reader takes a node's edges as a slice.
//!
//! One topological sort ([`HbEdges::topo_order`]) detects cycles
//! (deadlocks) and, on acyclic graphs, drives one forward pass of
//! per-stream **vector clocks**: `clock[v][s]` is the number of leading
//! actions of stream `s` that must complete before `v` *starts*. That
//! makes every happens-before query O(1) — `a → b` iff
//! `clock[b][a.stream] > a.action_index` — at O(nodes × streams) build
//! cost, microseconds for paper-scale programs.
//!
//! This is the only place a program's ordering is derived. [`HbGraph`]
//! keeps the graph and its order for everything downstream: the race and
//! dataflow checks, the witness scheduler, the static cost analysis
//! ([`crate::opt::static_cost`]), the schedulers' task graph (its order,
//! on its nodes) and the simulator's lowering ([`crate::executor::sim`]) —
//! one engine task per node, created in exactly this order.

use crate::action::Action;
use crate::program::Program;
use crate::types::{Error, StreamId};

use super::diagnostics::Site;

/// Node layout + edge lists of the happens-before graph, and the one
/// topological sort over them. [`HbGraph::build`] builds and keeps them;
/// only [`crate::opt`]'s elision pass builds bare edge lists of its own,
/// for the trial programs it probes.
///
/// Both directions are stored flat ([`Csr::pair`]): a program's edges are
/// collected once, then counted and placed, so a graph costs a handful of
/// allocations whatever its size.
pub(crate) struct HbEdges {
    /// First node id of each stream's action run (last entry = total
    /// action count).
    pub(crate) offsets: Vec<usize>,
    /// Action-node count; barrier join nodes follow.
    pub(crate) total_actions: usize,
    /// Total nodes: actions + barrier join nodes.
    pub(crate) nodes: usize,
    /// Each node's predecessors.
    preds: Csr,
    /// Each node's successors (the same edges, reversed).
    succs: Csr,
}

/// One list per node, flat: node `v`'s entries are
/// `list[offsets[v]..offsets[v + 1]]`, in the order they were added.
/// [`Csr::pair`] builds both directions of an edge list in two passes:
/// [`Csr::count`] each edge, [`Csr::allot`], [`Csr::push`] each in order,
/// [`Csr::seal`]. The schedulers' [`TaskGraph`](crate::sched::TaskGraph)
/// is kept this way too.
#[derive(Default)]
pub(crate) struct Csr {
    offsets: Vec<u32>,
    list: Vec<u32>,
}

impl Csr {
    /// Both directions of `edges`, each `(from, to)`: `(preds, succs)`,
    /// every node's list in the order of `edges`.
    pub(crate) fn pair(nodes: usize, edges: &[(u32, u32)]) -> (Csr, Csr) {
        let (mut preds, mut succs) = (Csr::counting(nodes), Csr::counting(nodes));
        for &(from, to) in edges {
            preds.count(to);
            succs.count(from);
        }
        preds.allot();
        succs.allot();
        for &(from, to) in edges {
            preds.push(to, from);
            succs.push(from, to);
        }
        preds.seal();
        succs.seal();
        (preds, succs)
    }

    fn counting(nodes: usize) -> Csr {
        Csr {
            offsets: vec![0; nodes + 1],
            list: Vec::new(),
        }
    }

    /// One more entry for node `v` (first pass).
    fn count(&mut self, v: u32) {
        self.offsets[v as usize] += 1;
    }

    /// Turn the counts into each node's first slot and size the list.
    fn allot(&mut self) {
        let mut sum = 0;
        for o in &mut self.offsets {
            let count = *o;
            *o = sum;
            sum += count;
        }
        self.list = vec![0; sum as usize];
    }

    /// Append `x` to node `v`'s list (second pass).
    fn push(&mut self, v: u32, x: u32) {
        self.list[self.offsets[v as usize] as usize] = x;
        self.offsets[v as usize] += 1;
    }

    /// Each cursor sits at its node's end, the next node's start.
    fn seal(&mut self) {
        self.offsets.rotate_right(1);
        self.offsets[0] = 0;
    }

    /// Drop each entry equal to an earlier one of the same node's list.
    pub(crate) fn dedup(&mut self) {
        // owner[x]: one past the last node whose list kept `x`.
        let mut owner = vec![0; self.offsets.len()];
        let (mut start, mut kept) = (0, 0);
        for end in 1..self.offsets.len() {
            for i in start..self.offsets[end] as usize {
                let x = self.list[i] as usize;
                if owner[x] != end {
                    owner[x] = end;
                    self.list[kept] = x as u32;
                    kept += 1;
                }
            }
            (start, self.offsets[end]) = (self.offsets[end] as usize, kept as u32);
        }
        self.list.truncate(kept);
    }

    pub(crate) fn of(&self, v: usize) -> &[u32] {
        &self.list[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

impl HbEdges {
    /// Build the edge lists for `program` under the executors' ordering
    /// rules (FIFO, events, barriers).
    pub(crate) fn build(program: &Program) -> HbEdges {
        let n_streams = program.streams.len();
        let mut offsets = Vec::with_capacity(n_streams + 1);
        let mut total = 0usize;
        for s in &program.streams {
            offsets.push(total);
            total += s.actions.len();
        }
        offsets.push(total);

        // Every edge, in one fixed order (each node's lists keep it); barrier
        // `n`'s join is node `total + n`. A stream of `k` actions makes at
        // most `2k - 1`: `k - 1` FIFO or join-out edges, one per wait or
        // barrier.
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(2 * total);
        let mut edge = |from: usize, to: usize| edges.push((from as u32, to as u32));
        let mut n_barriers = program.barriers;
        for (si, s) in program.streams.iter().enumerate() {
            for (ai, a) in s.actions.iter().enumerate() {
                let v = offsets[si] + ai;
                // FIFO. After a barrier the join node carries it: the join
                // waits on this stream's barrier action too.
                if ai > 0 && !matches!(s.actions[ai - 1], Action::Barrier(_)) {
                    edge(v - 1, v);
                }
                match a {
                    Action::WaitEvent(e) => {
                        if let Some(site) = program.events.get(e.0) {
                            let rs = site.stream.0;
                            if rs < n_streams
                                && site.action_index < program.streams[rs].actions.len()
                            {
                                edge(offsets[rs] + site.action_index, v);
                            }
                        }
                    }
                    Action::Barrier(n) => {
                        n_barriers = n_barriers.max(n + 1);
                        edge(v, total + n);
                        if ai + 1 < s.actions.len() {
                            edge(total + n, v + 1);
                        }
                    }
                    _ => {}
                }
            }
        }
        let nodes = total + n_barriers;
        let (preds, succs) = Csr::pair(nodes, &edges);

        HbEdges {
            offsets,
            total_actions: total,
            nodes,
            preds,
            succs,
        }
    }

    /// The nodes `v` waits for, in the order the edges were derived.
    pub(crate) fn preds(&self, v: usize) -> &[u32] {
        self.preds.of(v)
    }

    /// The nodes waiting for `v`, in the order the edges were derived.
    pub(crate) fn succs(&self, v: usize) -> &[u32] {
        self.succs.of(v)
    }

    /// Edges in the graph.
    pub(crate) fn edge_count(&self) -> usize {
        self.preds.list.len()
    }

    /// The topological order: a **stream-major greedy sweep**. Each pass
    /// visits the streams in index order and emits every action whose
    /// predecessors are out, stopping a stream at its first blocked one (a
    /// wait whose record is still to come, the action after a barrier);
    /// joins that became ready are emitted at the end of the pass, in
    /// barrier order. The simulator creates its tasks in this order and
    /// its engine breaks arbitration ties by creation order, so the order
    /// is part of the simulated timeline; checker and static cost would
    /// take any topological order, so this one serves all three.
    ///
    /// On a cyclic graph the sweep stalls and `Err` carries the in-degree
    /// still left on every node (positive exactly on the unsorted ones).
    fn topo_order(&self) -> Result<Vec<u32>, Vec<u32>> {
        let mut indeg: Vec<u32> = (0..self.nodes)
            .map(|v| self.preds(v).len() as u32)
            .collect();
        let mut order: Vec<u32> = Vec::with_capacity(self.nodes);
        let n_streams = self.offsets.len() - 1;
        let mut cursor: Vec<usize> = self.offsets[..n_streams].to_vec();
        // Joins nothing feeds (a barrier count above the recorded barriers).
        let mut ready_joins: Vec<u32> = (self.total_actions..self.nodes)
            .filter(|&j| indeg[j] == 0)
            .map(|j| j as u32)
            .collect();
        // Emit `v`: release its successors, noting joins that became ready.
        let mut emit = |v: usize, indeg: &mut [u32], ready_joins: &mut Vec<u32>| {
            order.push(v as u32);
            for &w in self.succs(v) {
                indeg[w as usize] -= 1;
                if indeg[w as usize] == 0 && w as usize >= self.total_actions {
                    ready_joins.push(w);
                }
            }
        };
        let mut progressed = true;
        while progressed {
            progressed = false;
            for s in 0..n_streams {
                while cursor[s] < self.offsets[s + 1] && indeg[cursor[s]] == 0 {
                    emit(cursor[s], &mut indeg, &mut ready_joins);
                    cursor[s] += 1;
                    progressed = true;
                }
            }
            ready_joins.sort_unstable();
            // A join feeds actions only, so the list does not grow here.
            for j in std::mem::take(&mut ready_joins) {
                emit(j as usize, &mut indeg, &mut ready_joins);
                progressed = true;
            }
        }
        if order.len() == self.nodes {
            Ok(order)
        } else {
            Err(indeg)
        }
    }

    /// The stream owning action node `v`, or `None` for barrier joins.
    pub(crate) fn stream_of(&self, v: usize) -> Option<usize> {
        if v >= self.total_actions {
            return None;
        }
        // offsets is sorted; partition_point finds the owning stream.
        Some(self.offsets.partition_point(|&o| o <= v) - 1)
    }

    /// The site of action node `v`, or `None` for barrier joins.
    pub(crate) fn site_of(&self, v: usize) -> Option<Site> {
        self.stream_of(v).map(|s| Site {
            stream: StreamId(s),
            action_index: v - self.offsets[s],
        })
    }

    /// The node id of `site`.
    pub(crate) fn node_of(&self, site: Site) -> usize {
        self.offsets[site.stream.0] + site.action_index
    }
}

/// The happens-before graph of one program: its edges, their topological
/// order and the vector clocks propagated along it — the one derivation of
/// the program's ordering, which every consumer reads.
pub struct HbGraph {
    edges: HbEdges,
    /// The edges' topological order; empty when the graph is cyclic.
    order: Vec<u32>,
    /// Flat `nodes × n_streams` in-clocks; empty when the graph is cyclic.
    clocks: Vec<u32>,
    /// One witness cycle (action sites, causal order), if any.
    cycle: Option<Vec<Site>>,
}

impl HbGraph {
    /// Build the graph and run cycle detection + clock propagation.
    pub fn build(program: &Program) -> HbGraph {
        let edges = HbEdges::build(program);
        let (order, cycle) = match edges.topo_order() {
            Ok(order) => (order, None),
            Err(indeg) => (Vec::new(), Some(extract_cycle(&edges, &indeg))),
        };
        HbGraph {
            clocks: clocks_along(&edges, &order),
            edges,
            order,
            cycle,
        }
    }

    /// The node layout and edge lists.
    pub(crate) fn edges(&self) -> &HbEdges {
        &self.edges
    }

    /// The topological order every consumer walks, or the witness cycle
    /// of a deadlocked program.
    pub(crate) fn order(&self) -> Result<&[u32], &[Site]> {
        match &self.cycle {
            None => Ok(&self.order),
            Some(cycle) => Err(cycle),
        }
    }

    /// Free the order and the clocks, keeping the edges — all a native
    /// recorded run reads while it is live. After this `order` is empty
    /// and `happens_before` answers `false`.
    pub(crate) fn shed_order(&mut self) {
        self.order = Vec::new();
        self.clocks = Vec::new();
    }

    /// Nodes in the graph (actions + barrier joins).
    pub(crate) fn node_count(&self) -> usize {
        self.edges.nodes
    }

    /// Edges in the graph.
    pub(crate) fn edge_count(&self) -> usize {
        self.edges.edge_count()
    }

    /// A witness deadlock cycle (action sites, causal order), if the
    /// graph is cyclic.
    pub fn cycle(&self) -> Option<&[Site]> {
        self.cycle.as_deref()
    }

    /// Does `a` complete before `b` can start? `false` on cyclic graphs
    /// and for `a == b`.
    pub fn happens_before(&self, a: Site, b: Site) -> bool {
        if self.clocks.is_empty() || a == b {
            return false;
        }
        let n_streams = self.edges.offsets.len() - 1;
        debug_assert!(a.stream.0 < n_streams && b.stream.0 < n_streams);
        self.clocks[self.edges.node_of(b) * n_streams + a.stream.0] > a.action_index as u32
    }

    /// Neither `a → b` nor `b → a` (and `a != b`).
    pub fn concurrent(&self, a: Site, b: Site) -> bool {
        a != b && !self.happens_before(a, b) && !self.happens_before(b, a)
    }
}

/// What a deadlocked program is to an executor asked to run it: both refuse
/// with this, naming the cycle [`HbGraph::order`] found.
pub(crate) fn wait_cycle(cycle: &[Site]) -> Error {
    let hops: Vec<String> = cycle.iter().map(ToString::to_string).collect();
    Error::Config(format!(
        "wait cycle {}: the program can never complete",
        hops.join(" -> ")
    ))
}

/// In-clocks of acyclic `edges`, propagated along their topological
/// `order`; none for the empty order of a cyclic graph.
fn clocks_along(edges: &HbEdges, order: &[u32]) -> Vec<u32> {
    if order.is_empty() {
        return Vec::new();
    }
    let n_streams = edges.offsets.len() - 1;
    let mut clocks: Vec<u32> = vec![0; edges.nodes * n_streams];
    let mut bumped = vec![0u32; n_streams];
    for &v in order {
        let v = v as usize;
        // out-clock of v = in-clock of v, plus v itself if it is an
        // action node.
        bumped.copy_from_slice(&clocks[v * n_streams..(v + 1) * n_streams]);
        if let Some(sv) = edges.stream_of(v) {
            let idx = (v - edges.offsets[sv] + 1) as u32;
            bumped[sv] = bumped[sv].max(idx);
        }
        for &w in edges.succs(v) {
            let w = w as usize;
            let wc = &mut clocks[w * n_streams..(w + 1) * n_streams];
            for (c, b) in wc.iter_mut().zip(&bumped) {
                *c = (*c).max(*b);
            }
        }
    }
    clocks
}

/// Walk predecessor edges inside the unsorted remainder of a cyclic graph
/// until a node repeats, then report the loop as action sites in causal
/// order. Barrier join nodes on the loop are skipped in the report (their
/// incoming barrier actions are on it too).
fn extract_cycle(edges: &HbEdges, indeg: &[u32]) -> Vec<Site> {
    let start = indeg
        .iter()
        .position(|&d| d > 0)
        .expect("cyclic graph has a node with remaining in-degree");
    let mut pos = vec![usize::MAX; edges.nodes];
    let mut path: Vec<usize> = Vec::new();
    let mut v = start;
    loop {
        if pos[v] != usize::MAX {
            let mut cycle: Vec<Site> = path[pos[v]..]
                .iter()
                .filter_map(|&n| edges.site_of(n))
                .collect();
            cycle.reverse(); // pred-walk order is anti-causal
            return cycle;
        }
        pos[v] = path.len();
        path.push(v);
        // Every unsorted node keeps at least one unsorted predecessor, so
        // the walk stays inside the cyclic region and must repeat.
        v = edges
            .preds(v)
            .iter()
            .map(|&p| p as usize)
            .find(|&p| indeg[p] > 0)
            .expect("unsorted node has an unsorted predecessor");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{EventSite, StreamPlacement, StreamRecord};
    use crate::types::{BufId, EventId};
    use micsim::device::DeviceId;
    use micsim::pcie::Direction;

    fn stream(id: usize, actions: Vec<Action>) -> StreamRecord {
        StreamRecord {
            id: StreamId(id),
            placement: StreamPlacement {
                device: DeviceId(0),
                partition: id,
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

    #[test]
    fn fifo_orders_within_a_stream_only() {
        let mut p = Program::default();
        p.streams.push(stream(0, vec![h2d(0), h2d(1)]));
        p.streams.push(stream(1, vec![h2d(2)]));
        let g = HbGraph::build(&p);
        assert!(g.cycle().is_none());
        assert!(g.happens_before(Site::new(0, 0), Site::new(0, 1)));
        assert!(!g.happens_before(Site::new(0, 1), Site::new(0, 0)));
        assert!(g.concurrent(Site::new(0, 0), Site::new(1, 0)));
    }

    #[test]
    fn events_order_across_streams_transitively() {
        let mut p = Program::default();
        p.streams
            .push(stream(0, vec![h2d(0), Action::RecordEvent(EventId(0))]));
        p.streams
            .push(stream(1, vec![Action::WaitEvent(EventId(0)), h2d(1)]));
        p.events.push(EventSite {
            stream: StreamId(0),
            action_index: 1,
        });
        let g = HbGraph::build(&p);
        assert!(g.happens_before(Site::new(0, 0), Site::new(1, 1)));
        assert!(g.happens_before(Site::new(0, 1), Site::new(1, 0)));
        // The record does not wait for the waiter.
        assert!(!g.happens_before(Site::new(1, 0), Site::new(0, 1)));
    }

    #[test]
    fn barriers_join_all_streams() {
        let mut p = Program {
            barriers: 1,
            ..Default::default()
        };
        p.streams
            .push(stream(0, vec![h2d(0), Action::Barrier(0), h2d(1)]));
        p.streams
            .push(stream(1, vec![h2d(2), Action::Barrier(0), h2d(3)]));
        let g = HbGraph::build(&p);
        // Pre-barrier work in stream 1 precedes post-barrier work in stream 0.
        assert!(g.happens_before(Site::new(1, 0), Site::new(0, 2)));
        assert!(g.happens_before(Site::new(0, 0), Site::new(1, 2)));
        // Pre-barrier actions of different streams stay concurrent.
        assert!(g.concurrent(Site::new(0, 0), Site::new(1, 0)));
    }

    #[test]
    fn order_is_the_stream_major_sweep_with_joins_after_their_pass() {
        // s0 (nodes 0..4) starts blocked on s1's record; s1 (nodes 4..8)
        // runs up to the barrier. The join (node 8) comes out at the end
        // of the pass in which its last barrier action did.
        let mut p = Program {
            barriers: 1,
            ..Default::default()
        };
        p.streams.push(stream(
            0,
            vec![
                Action::WaitEvent(EventId(0)),
                h2d(0),
                Action::Barrier(0),
                h2d(1),
            ],
        ));
        p.streams.push(stream(
            1,
            vec![
                h2d(2),
                Action::RecordEvent(EventId(0)),
                Action::Barrier(0),
                h2d(3),
            ],
        ));
        p.events.push(EventSite {
            stream: StreamId(1),
            action_index: 1,
        });
        let g = HbGraph::build(&p);
        assert_eq!(g.order().unwrap(), [4, 5, 6, 0, 1, 2, 8, 3, 7]);
        // After a barrier the join alone carries the stream's FIFO order;
        // a wait's FIFO predecessor comes before its record.
        assert_eq!(g.edges().preds(3), [8]);
        assert_eq!(g.edges().preds(8), [2, 6]);
        assert!(g.happens_before(Site::new(0, 2), Site::new(0, 3)));
        let mut q = Program::default();
        q.streams
            .push(stream(0, vec![h2d(0), Action::RecordEvent(EventId(0))]));
        q.streams
            .push(stream(1, vec![h2d(1), Action::WaitEvent(EventId(0))]));
        q.events.push(EventSite {
            stream: StreamId(0),
            action_index: 1,
        });
        assert_eq!(HbGraph::build(&q).edges().preds(3), [2, 1]);
    }

    #[test]
    fn mutual_event_wait_is_a_cycle() {
        // s0: wait e1, record e0 / s1: wait e0, record e1.
        let mut p = Program::default();
        p.streams.push(stream(
            0,
            vec![
                Action::WaitEvent(EventId(1)),
                Action::RecordEvent(EventId(0)),
            ],
        ));
        p.streams.push(stream(
            1,
            vec![
                Action::WaitEvent(EventId(0)),
                Action::RecordEvent(EventId(1)),
            ],
        ));
        p.events.push(EventSite {
            stream: StreamId(0),
            action_index: 1,
        });
        p.events.push(EventSite {
            stream: StreamId(1),
            action_index: 1,
        });
        let g = HbGraph::build(&p);
        let cycle = g.cycle().expect("mutual wait must cycle");
        assert!(cycle.len() >= 2, "cycle: {cycle:?}");
        assert_eq!(g.order(), Err(cycle), "no order to walk");
        // Queries are disabled on cyclic graphs.
        assert!(!g.happens_before(Site::new(0, 0), Site::new(0, 1)));
    }

    #[test]
    fn wait_on_event_recorded_causally_after_the_wait_cycles_via_barrier() {
        // s0 waits on e0 *before* the barrier, but s1 records e0 only
        // *after* it — the record is causally after the wait, so neither
        // side can advance.
        let mut p = Program {
            barriers: 1,
            ..Default::default()
        };
        p.streams.push(stream(
            0,
            vec![Action::WaitEvent(EventId(0)), Action::Barrier(0)],
        ));
        p.streams.push(stream(
            1,
            vec![Action::Barrier(0), Action::RecordEvent(EventId(0))],
        ));
        p.events.push(EventSite {
            stream: StreamId(1),
            action_index: 1,
        });
        let g = HbGraph::build(&p);
        let cycle = g.cycle().expect("wait precedes its record: deadlock");
        assert!(cycle.iter().any(|s| s.stream == StreamId(0)));
        assert!(cycle.iter().any(|s| s.stream == StreamId(1)));
    }

    #[test]
    fn clock_cost_scales_with_nodes_times_streams() {
        // Smoke-size the representation: 8 streams x 100 actions builds
        // and answers queries.
        let mut p = Program::default();
        for s in 0..8 {
            p.streams
                .push(stream(s, (0..100).map(|i| h2d(s * 100 + i)).collect()));
        }
        let g = HbGraph::build(&p);
        assert_eq!(g.node_count(), 800);
        assert!(g.happens_before(Site::new(3, 0), Site::new(3, 99)));
        assert!(g.concurrent(Site::new(3, 99), Site::new(4, 0)));
    }
}
