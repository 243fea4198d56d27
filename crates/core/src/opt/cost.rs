//! Static cost analysis: interval bounds and a sound makespan lower bound.
//!
//! Nothing here knows a formula. The graph is the checker's
//! ([`HbGraph`]: its edges, its topological order, its clocks) and every
//! weight is [`CostModel::price`] on [`CostModel::lane`] — the function
//! the simulator calls for the duration of the task it creates for the
//! same action, in the simulator's integer nanoseconds. The simulator's
//! dependency edges are a superset of the HB edges (it adds resource
//! serialization), its control tasks are free or positively priced
//! (barrier sync overhead), and every lane (a link channel, a partition,
//! the host, a stream's FIFO) is a serial resource — so both bounds below
//! hold against any fault-free FIFO simulation of the program, **exactly**:
//! they are sums and maxima of the very integers the engine adds up, and
//! only the finished totals are converted to seconds.
//!
//! * **critical path**: the longest HB chain, weighted by action price;
//! * **lane load**: the busiest serial resource's total assigned work.

use std::collections::BTreeMap;

use micsim::time::SimDuration;

use crate::action::Action;
use crate::check::{HbGraph, Site};
use crate::program::Program;
use crate::sched::{CostModel, Lane};

/// Static interval bounds for one stream.
#[derive(Clone, Debug)]
pub struct StreamBound {
    /// Stream index.
    pub stream: usize,
    /// Sum of the stream's own action costs — its serial floor.
    pub busy_seconds: f64,
    /// Earliest the stream's last action can finish: the longest HB path
    /// ending at it.
    pub finish_seconds: f64,
}

/// The static cost profile of a program; see [`static_cost`].
#[derive(Clone, Debug)]
pub struct StaticCost {
    /// Per-stream interval bounds.
    pub per_stream: Vec<StreamBound>,
    /// Longest cost-weighted happens-before chain.
    pub critical_path_seconds: f64,
    /// Busiest serial lane (link channel / partition / host / stream).
    pub lane_bound_seconds: f64,
    /// `max(critical path, lane bound)` — a sound lower bound on the
    /// simulated makespan.
    pub makespan_lower_bound: f64,
    /// Total transfer seconds across the program.
    pub transfer_seconds: f64,
    /// Total kernel seconds across the program.
    pub kernel_seconds: f64,
    /// Fraction of transfer time that is HB-concurrent with at least one
    /// kernel of another stream — the statically overlappable ("hidden")
    /// share. An estimate, not a bound: resource contention can still
    /// serialize statically-concurrent work.
    pub hidden_fraction_estimate: f64,
}

/// Price `program` statically under `model`. `None` when the HB graph is
/// cyclic (the analyzer would reject the program) or a kernel cannot be
/// priced on its recorded placement.
#[must_use]
pub fn static_cost(program: &Program, model: &CostModel) -> Option<StaticCost> {
    let hb = HbGraph::build(program);
    let order = hb.order().ok()?; // `Err` = cyclic
    let edges = hb.edges();

    // Per-node weights and serial-lane loads from the recorded placements:
    // every resource the simulator serializes on, plus each stream's FIFO.
    let mut weight = vec![SimDuration::ZERO; edges.nodes];
    let mut lanes: BTreeMap<Lane, SimDuration> = BTreeMap::new();
    let mut busy = vec![SimDuration::ZERO; program.streams.len()];
    let (mut transfers, mut kernels) = (SimDuration::ZERO, SimDuration::ZERO);
    for (si, s) in program.streams.iter().enumerate() {
        for (ai, a) in s.actions.iter().enumerate() {
            let Some(lane) = model.lane(a, s.placement.device.0, s.placement.partition) else {
                continue; // control actions are free
            };
            let w = model.price(a, lane).ok()?;
            weight[edges.offsets[si] + ai] = w;
            *lanes.entry(lane).or_default() += w;
            busy[si] += w;
            match a {
                Action::Transfer { .. } => transfers += w,
                _ => kernels += w,
            }
        }
    }
    let lane_bound = lanes
        .values()
        .chain(&busy)
        .copied()
        .max()
        .unwrap_or_default();

    // Forward pass in topological order: earliest finish per node.
    let mut finish = vec![SimDuration::ZERO; edges.nodes];
    for &v in order {
        let v = v as usize;
        let ready = edges.preds(v).iter().map(|&p| finish[p as usize]).max();
        finish[v] = ready.unwrap_or_default() + weight[v];
    }
    let critical_path = finish.iter().copied().max().unwrap_or_default();

    let per_stream = program
        .streams
        .iter()
        .enumerate()
        .map(|(si, s)| StreamBound {
            stream: si,
            busy_seconds: busy[si].as_secs_f64(),
            finish_seconds: match s.actions.len() {
                0 => 0.0,
                n => finish[edges.offsets[si] + n - 1].as_secs_f64(),
            },
        })
        .collect();

    // Hidden-fraction estimate: pairwise concurrency off the graph's clocks.
    let mut hidden = SimDuration::ZERO;
    for (si, s) in program.streams.iter().enumerate() {
        for (ai, a) in s.actions.iter().enumerate() {
            if !matches!(a, Action::Transfer { .. }) {
                continue;
            }
            let t = Site::new(si, ai);
            let overlappable = program.streams.iter().enumerate().any(|(sj, sk)| {
                sj != si
                    && sk.actions.iter().enumerate().any(|(aj, b)| {
                        matches!(b, Action::Kernel(_)) && hb.concurrent(t, Site::new(sj, aj))
                    })
            });
            if overlappable {
                hidden += weight[edges.offsets[si] + ai];
            }
        }
    }
    let hidden_fraction_estimate = if transfers > SimDuration::ZERO {
        hidden.as_secs_f64() / transfers.as_secs_f64()
    } else {
        0.0
    };

    Some(StaticCost {
        per_stream,
        critical_path_seconds: critical_path.as_secs_f64(),
        lane_bound_seconds: lane_bound.as_secs_f64(),
        makespan_lower_bound: critical_path.max(lane_bound).as_secs_f64(),
        transfer_seconds: transfers.as_secs_f64(),
        kernel_seconds: kernels.as_secs_f64(),
        hidden_fraction_estimate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelDesc;
    use crate::program::EventSite;
    use crate::testutil::stream_skeleton;
    use crate::types::{BufId, EventId, StreamId};
    use micsim::compute::KernelProfile;
    use micsim::{Direction, Duplex, LinkModel, PartitionPlan, PlatformConfig, SimDuration};

    /// Round prices so every expectation below is mental arithmetic:
    /// a transfer is 10 µs latency + 1 µs per 1000 B + 1 µs enqueue, so
    /// buffer 0 (1000 B) moves in 12 µs and buffer 1 (3000 B) in 14 µs;
    /// a host kernel of 2e6 work at 1e9 × 20 host equivalents takes
    /// 100 µs + 1 µs enqueue.
    const T0: f64 = 12e-6;
    const T1: f64 = 14e-6;
    const K: f64 = 101e-6;

    fn model() -> CostModel {
        let mut cfg = PlatformConfig::phi_31sp();
        cfg.link = LinkModel::new(SimDuration::from_micros(10), 1.0e9, Duplex::Serial);
        cfg.enqueue_overhead = SimDuration::from_micros(1);
        cfg.host_equivalents = 20.0;
        let plan = PartitionPlan::equal_split(&cfg.device, 2).unwrap();
        CostModel::new(&cfg, &plan.partitions, &[1000, 3000])
    }

    /// Stream `i` on partition `i` of the two-partition plan.
    fn program(streams: Vec<Vec<Action>>) -> Program {
        let mut p = stream_skeleton(streams.len(), 2);
        for (s, actions) in p.streams.iter_mut().zip(streams) {
            s.actions = actions;
        }
        p
    }

    fn xfer(dir: Direction, buf: usize) -> Action {
        Action::Transfer {
            dir,
            buf: BufId(buf),
        }
    }

    fn h2d(buf: usize) -> Action {
        xfer(Direction::HostToDevice, buf)
    }

    fn d2h(buf: usize) -> Action {
        xfer(Direction::DeviceToHost, buf)
    }

    fn host_kernel() -> Action {
        Action::Kernel(
            KernelDesc::simulated("k", KernelProfile::streaming("k", 1e9), 2e6).on_host(),
        )
    }

    fn device_kernel() -> KernelDesc {
        KernelDesc::simulated("k", KernelProfile::streaming("k", 1e9), 2e6)
    }

    fn close(got: f64, want: f64) {
        assert!((got - want).abs() < 1e-12, "got {got}, want {want}");
    }

    #[test]
    fn single_stream_chain_is_its_own_critical_path_and_lane() {
        let p = program(vec![vec![h2d(0), host_kernel(), d2h(1)]]);
        let c = static_cost(&p, &model()).unwrap();
        close(c.critical_path_seconds, T0 + K + T1);
        close(c.lane_bound_seconds, T0 + K + T1);
        close(c.makespan_lower_bound, T0 + K + T1);
        close(c.transfer_seconds, T0 + T1);
        close(c.kernel_seconds, K);
        assert_eq!(c.per_stream.len(), 1);
        close(c.per_stream[0].busy_seconds, T0 + K + T1);
        close(c.per_stream[0].finish_seconds, T0 + K + T1);
        // Nothing to hide behind: there is no second stream.
        assert_eq!(c.hidden_fraction_estimate, 0.0);
    }

    #[test]
    fn an_event_carries_the_critical_path_across_streams() {
        let mut p = program(vec![
            vec![h2d(0), host_kernel(), Action::RecordEvent(EventId(0))],
            vec![Action::WaitEvent(EventId(0)), d2h(1)],
        ]);
        p.events.push(EventSite {
            stream: StreamId(0),
            action_index: 2,
        });
        let c = static_cost(&p, &model()).unwrap();
        // Stream 1's download starts only after stream 0's kernel.
        close(c.critical_path_seconds, T0 + K + T1);
        close(c.per_stream[0].finish_seconds, T0 + K);
        close(c.per_stream[1].finish_seconds, T0 + K + T1);
        close(c.per_stream[1].busy_seconds, T1);
        // Busiest lane is stream 0's FIFO (113 µs > host 101 > link 26).
        close(c.lane_bound_seconds, T0 + K);
        close(c.makespan_lower_bound, T0 + K + T1);
        // The only kernel is ordered against both transfers.
        assert_eq!(c.hidden_fraction_estimate, 0.0);
    }

    #[test]
    fn a_barrier_releases_both_streams_at_the_slower_arrival() {
        let p = Program {
            barriers: 1,
            ..program(vec![
                vec![h2d(1), Action::Barrier(0), d2h(0)],
                vec![h2d(0), Action::Barrier(0), host_kernel()],
            ])
        };
        let c = static_cost(&p, &model()).unwrap();
        // Both post-barrier actions start at max(14, 12) = 14 µs.
        close(c.per_stream[0].finish_seconds, T1 + T0);
        close(c.per_stream[1].finish_seconds, T1 + K);
        close(c.critical_path_seconds, T1 + K);
        close(c.per_stream[1].busy_seconds, T0 + K);
        // Lanes: stream 1 = 113 µs, host = 101, link = 38, stream 0 = 26.
        close(c.lane_bound_seconds, T0 + K);
        close(c.makespan_lower_bound, T1 + K);
        // Only stream 0's post-barrier download is unordered against the
        // kernel; both uploads precede it through the barrier.
        close(c.hidden_fraction_estimate, T0 / (T1 + T0 + T0));
    }

    #[test]
    fn a_cyclic_program_has_no_cost() {
        let mut p = program(vec![
            vec![
                Action::WaitEvent(EventId(1)),
                Action::RecordEvent(EventId(0)),
            ],
            vec![
                Action::WaitEvent(EventId(0)),
                Action::RecordEvent(EventId(1)),
            ],
        ]);
        for stream in 0..2 {
            p.events.push(EventSite {
                stream: StreamId(stream),
                action_index: 1,
            });
        }
        assert!(static_cost(&p, &model()).is_none());
    }

    #[test]
    fn an_unordered_transfer_kernel_pair_counts_as_hidden() {
        let m = model();
        let k = m
            .action_seconds(&Action::Kernel(device_kernel()), 0, 1)
            .unwrap();
        let p = program(vec![
            vec![h2d(0)],
            vec![h2d(1), Action::Kernel(device_kernel())],
        ]);
        let c = static_cost(&p, &m).unwrap();
        // Stream 0's upload can run under stream 1's kernel; stream 1's own
        // upload has no kernel in another stream to hide behind.
        close(c.hidden_fraction_estimate, T0 / (T0 + T1));
        close(c.kernel_seconds, k);
        close(c.critical_path_seconds, T1 + k);
        // Serial link: both uploads share channel 0.
        close(c.lane_bound_seconds, (T0 + T1).max(T1 + k));
    }

    #[test]
    fn a_kernel_on_an_unplanned_partition_cannot_be_priced() {
        let mut p = program(vec![vec![Action::Kernel(device_kernel())]]);
        p.streams[0].placement.partition = 99;
        assert!(static_cost(&p, &model()).is_none());
    }
}
