//! The price list: which resource an action occupies, and for how long.
//!
//! [`CostModel`] is the **only** place an action is mapped to a lane or
//! priced. The simulator charges [`CostModel::price`] for every task it
//! creates ([`crate::executor::sim`]), the static cost analysis
//! ([`crate::opt::static_cost`]) sums the same values along the
//! happens-before graph, the schedulers rank and place by them. Prices are
//! therefore in the simulator's own unit — [`SimDuration`], whole
//! nanoseconds, the simulator's rounding — so "the static bound cannot
//! exceed the simulated makespan" is integer arithmetic over one
//! function's results, not two formulas agreeing.
//!
//! The numbers come from the calibrated platform model
//! ([`micsim::PlatformConfig`]): a transfer costs its wire time, a device
//! kernel what the SMT-scaling compute model says the tile's flops take on
//! the partition, a host kernel the host's aggregate rate — each plus the
//! enqueue overhead; a barrier costs the sync overheads.

use micsim::calibrate::PlatformConfig;
use micsim::compute::KernelInvocation;
use micsim::partition::Partition;
use micsim::time::SimDuration;

use crate::action::Action;
use crate::types::{BufId, Error, Result};

use super::Lane;

/// Maps actions to lanes and prices them on the platform's calibrated
/// cost model.
pub struct CostModel {
    cfg: PlatformConfig,
    /// The partition geometry every device shares.
    partitions: Vec<Partition>,
    /// Byte size of each buffer, indexed by `BufId.0`.
    buffer_bytes: Vec<u64>,
}

impl CostModel {
    /// Build a cost model for `cfg` whose every device is split into
    /// `partitions`, with the given buffer sizes.
    pub fn new(cfg: &PlatformConfig, partitions: &[Partition], buffer_bytes: &[u64]) -> CostModel {
        CostModel {
            cfg: cfg.clone(),
            partitions: partitions.to_vec(),
            buffer_bytes: buffer_bytes.to_vec(),
        }
    }

    /// Partitions per device.
    pub fn partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Byte size of buffer `buf` (0 for unknown ids).
    pub fn bytes_of(&self, buf: BufId) -> u64 {
        self.buffer_bytes.get(buf.0).copied().unwrap_or(0)
    }

    /// The lane `action` occupies when issued from a stream placed on
    /// `(device, partition)`: its direction's link channel for a transfer,
    /// the host for a host kernel, the stream's partition for a device
    /// kernel. `None` for control actions — they occupy nothing.
    pub fn lane(&self, action: &Action, device: usize, partition: usize) -> Option<Lane> {
        match action {
            Action::Transfer { dir, .. } => Some(Lane::Link {
                device,
                channel: self.cfg.link.channel_for(*dir),
            }),
            Action::Kernel(k) if k.host => Some(Lane::Host),
            Action::Kernel(_) => Some(Lane::Partition { device, partition }),
            Action::RecordEvent(_) | Action::WaitEvent(_) | Action::Barrier(_) => None,
        }
    }

    /// Lanes a scheduler may move `action` (recorded on `device`) to:
    /// transfers are pinned to their link channel, host kernels to the
    /// host, device kernels may run on any partition of their device.
    pub(crate) fn candidate_lanes(&self, action: &Action, device: usize) -> Vec<Lane> {
        match action {
            Action::Kernel(k) if !k.host => (0..self.partitions().max(1))
                .map(|partition| Lane::Partition { device, partition })
                .collect(),
            _ => self.lane(action, device, 0).into_iter().collect(),
        }
    }

    /// What the simulator charges for `action` on `lane`. An error when
    /// the pair is impossible (a transfer on a partition, a lane outside
    /// the plan, an unknown buffer) or the compute model rejects the
    /// launch (an empty partition).
    pub fn price(&self, action: &Action, lane: Lane) -> Result<SimDuration> {
        self.degraded_price(action, lane, 1.0)
    }

    /// [`price`](CostModel::price) under an injected fault: `slowdown`
    /// (1.0 = healthy) stretches a transfer's bandwidth term or a device
    /// kernel's body — a congested link, a throttled partition. Host
    /// kernels are not slowed.
    pub(crate) fn degraded_price(
        &self,
        action: &Action,
        lane: Lane,
        slowdown: f64,
    ) -> Result<SimDuration> {
        let body = match (action, lane) {
            (Action::Transfer { buf, .. }, Lane::Link { .. }) => {
                let bytes = self.buffer_bytes.get(buf.0);
                let bytes = *bytes.ok_or(Error::UnknownBuffer(*buf))?;
                self.cfg.link.degraded_transfer_time(bytes, slowdown)
            }
            // No offload launch, no partition effects: the host's
            // aggregate rate.
            (Action::Kernel(k), Lane::Host) if k.host => SimDuration::from_secs_f64(
                k.work / (k.profile.thread_rate * self.cfg.host_equivalents),
            ),
            (Action::Kernel(k), Lane::Partition { device, partition }) if !k.host => {
                let part = match self.partitions.get(partition) {
                    Some(part) if device < self.cfg.device_count => part,
                    _ => return Err(Error::Config(format!("no lane {lane} in the plan"))),
                };
                let inv = KernelInvocation {
                    profile: &k.profile,
                    work: k.work,
                };
                let body = self.cfg.compute.kernel_time(&inv, part)?;
                if slowdown > 1.0 {
                    SimDuration::from_secs_f64(body.as_secs_f64() * slowdown)
                } else {
                    body
                }
            }
            _ => {
                let what = action.label();
                return Err(Error::Config(format!("`{what}` cannot run on {lane}")));
            }
        };
        Ok(body + self.cfg.enqueue_overhead)
    }

    /// What a barrier across `streams` streams costs: the sync overhead,
    /// a per-stream term, and the cross-device term when the program
    /// spans more than one card.
    pub(crate) fn barrier_price(&self, streams: usize, devices: usize) -> SimDuration {
        let per_stream = SimDuration::from_nanos(self.cfg.sync_per_stream.nanos() * streams as u64);
        let local = self.cfg.sync_overhead + per_stream;
        if devices > 1 {
            local + self.cfg.cross_device_sync
        } else {
            local
        }
    }

    /// [`price`](CostModel::price) in seconds, for `action` issued from a
    /// stream on `(device, partition)`. Control actions are free; `None`
    /// when the action cannot be priced there.
    pub(crate) fn action_seconds(
        &self,
        action: &Action,
        device: usize,
        partition: usize,
    ) -> Option<f64> {
        match self.lane(action, device, partition) {
            None => Some(0.0),
            Some(lane) => self.price(action, lane).ok().map(SimDuration::as_secs_f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelDesc;
    use micsim::compute::KernelProfile;
    use micsim::partition::PartitionPlan;

    fn model(partitions: usize) -> CostModel {
        let cfg = PlatformConfig::phi_31sp();
        let plan = PartitionPlan::equal_split(&cfg.device, partitions).unwrap();
        CostModel::new(&cfg, &plan.partitions, &[1 << 20, 1 << 10])
    }

    fn h2d(buf: usize) -> Action {
        Action::Transfer {
            dir: micsim::pcie::Direction::HostToDevice,
            buf: BufId(buf),
        }
    }

    #[test]
    fn transfers_scale_with_bytes() {
        let m = model(4);
        let big = m.action_seconds(&h2d(0), 0, 0).unwrap();
        let small = m.action_seconds(&h2d(1), 0, 0).unwrap();
        assert!(big > small);
        assert!(small > 0.0, "even tiny copies pay latency + enqueue");
        assert!(m.action_seconds(&h2d(2), 0, 0).is_none(), "unknown buffer");
    }

    #[test]
    fn prices_are_the_simulators_integers() {
        // A host kernel of 1000.4 ns is charged 1000 ns + enqueue: the
        // simulator's rounding, not the formula's real value.
        let m = model(2);
        let cfg = PlatformConfig::phi_31sp();
        let work = 1000.4e-9 * 1e9 * cfg.host_equivalents;
        let k = KernelDesc::simulated("h", KernelProfile::streaming("h", 1e9), work).on_host();
        let k = Action::Kernel(k);
        let price = m.price(&k, Lane::Host).unwrap();
        assert_eq!(price, SimDuration::from_nanos(1000) + cfg.enqueue_overhead);
        assert_eq!(m.lane(&k, 0, 1), Some(Lane::Host));
        assert_eq!(m.candidate_lanes(&k, 0), vec![Lane::Host]);
        // Impossible pairs are errors, not zero prices.
        let p0 = Lane::Partition {
            device: 0,
            partition: 0,
        };
        assert!(m.price(&k, p0).is_err());
        assert!(m.price(&h2d(0), Lane::Host).is_err());
    }

    #[test]
    fn slowdowns_stretch_links_and_partitions_only() {
        let m = model(2);
        let link = m.lane(&h2d(0), 0, 0).unwrap();
        assert!(m.degraded_price(&h2d(0), link, 3.0).unwrap() > m.price(&h2d(0), link).unwrap());
        let k = KernelDesc::simulated("k", KernelProfile::streaming("k", 0.32e9), 1e9);
        let dev = Action::Kernel(k.clone());
        let lane = m.lane(&dev, 0, 1).unwrap();
        assert_eq!(m.candidate_lanes(&dev, 0).len(), 2);
        assert!(m.degraded_price(&dev, lane, 2.0).unwrap() > m.price(&dev, lane).unwrap());
        let host = Action::Kernel(k.on_host());
        assert_eq!(
            m.degraded_price(&host, Lane::Host, 2.0).unwrap(),
            m.price(&host, Lane::Host).unwrap()
        );
        // Barriers: one card pays no cross-device term.
        assert!(m.barrier_price(4, 2) > m.barrier_price(4, 1));
        assert!(m.barrier_price(4, 1) > m.barrier_price(1, 1));
    }

    #[test]
    fn kernels_price_on_the_partition_geometry() {
        let m = model(4);
        let wide = model(2);
        let k = KernelDesc::simulated("k", KernelProfile::streaming("k", 0.32e9), 1e9);
        let host = Action::Kernel(k.clone().on_host());
        let k = Action::Kernel(k);
        let quarter = m.action_seconds(&k, 0, 0).unwrap();
        let half = wide.action_seconds(&k, 0, 0).unwrap();
        assert!(
            half < quarter,
            "bigger partitions run the same tile faster: {half} vs {quarter}"
        );
        assert!(m.action_seconds(&k, 0, 99).is_none(), "bad index");
        assert!(m.action_seconds(&k, 1, 0).is_none(), "one card only");
        assert!(
            m.action_seconds(&host, 0, 99).unwrap() > 0.0,
            "host ignores placement"
        );
    }

    #[test]
    fn action_seconds_covers_every_arm() {
        let m = model(2);
        assert!(m.action_seconds(&h2d(0), 0, 0).unwrap() > 0.0);
        let host = Action::Kernel(
            KernelDesc::simulated("h", KernelProfile::streaming("h", 1e9), 1e6).on_host(),
        );
        assert!(m.action_seconds(&host, 0, 0).unwrap() > 0.0);
        let ctrl = Action::Barrier(0);
        assert_eq!(m.action_seconds(&ctrl, 0, 0), Some(0.0));
    }
}
