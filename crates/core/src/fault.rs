//! Deterministic fault injection and the one retry policy.
//!
//! The platform the paper evaluates — a Xeon Phi over PCIe — is exactly the
//! kind of accelerator where transfers stall, partitions underperform, and
//! offloaded kernels die. A [`FaultPlan`], set on the context with
//! [`Context::set_fault_plan`](crate::context::Context::set_fault_plan),
//! injects those pathologies into **both** executors from one seed:
//!
//! * **transfer failures** — a transfer's first `k` attempts fail; the
//!   native executor retries up to 3 times with backoff (50 µs, doubling,
//!   capped at 100 ms), the sim executor prices the failed attempts and
//!   backoffs on the link;
//! * **transfer slowdowns** — a transfer's bandwidth term is stretched;
//! * **kernel panics** — a kernel dies on launch and takes the partition it
//!   ran on with it; `Context::run_native_resilient` re-runs what was lost
//!   on the partitions that survived;
//! * **slow partitions** — every kernel on a `(device, partition)` pair
//!   runs a factor slower;
//! * **allocation failures** — materializing a device buffer fails, typed
//!   as [`Error::Fault`](crate::types::Error) before the run starts.
//!
//! Every decision is a pure function of `(seed, site)` through
//! [`micsim::fault::FaultDie`] — no wall clock, no shared RNG state — so
//! the same plan fails the same program in the same places on every run,
//! every thread interleaving and every scheduler: a site is an action's
//! recorded `(stream, action index)`, wherever it runs. Sites can also be
//! **forced** explicitly (`fail_transfer_at`, `panic_kernel_at`, ...) for
//! tests that need a fault at one exact action.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use micsim::fault::FaultDie;

// Site tags keep the per-fault-kind hash streams independent.
const TAG_TRANSFER_FAIL: u64 = 0x51;
const TAG_TRANSFER_SLOW: u64 = 0x52;
const TAG_KERNEL_PANIC: u64 = 0x53;
const TAG_ALLOC_FAIL: u64 = 0x54;

/// A seeded, deterministic description of what to break. See module docs.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    die: FaultDie,
    transfer_fail_rate: f64,
    transfer_fail_attempts: u32,
    transfer_slow_rate: f64,
    transfer_slow_factor: f64,
    kernel_panic_rate: f64,
    alloc_fail_rate: f64,
    slow_partitions: Vec<(usize, usize, f64)>,
    forced_transfer_sites: BTreeSet<(usize, usize)>,
    forced_panic_sites: BTreeSet<(usize, usize)>,
    forced_alloc_sites: BTreeSet<usize>,
}

impl FaultPlan {
    /// A plan that injects nothing until configured, rolling its dice under
    /// `seed`.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            die: FaultDie::new(seed),
            transfer_fail_rate: 0.0,
            transfer_fail_attempts: 1,
            transfer_slow_rate: 0.0,
            transfer_slow_factor: 1.0,
            kernel_panic_rate: 0.0,
            alloc_fail_rate: 0.0,
            slow_partitions: Vec::new(),
            forced_transfer_sites: BTreeSet::new(),
            forced_panic_sites: BTreeSet::new(),
            forced_alloc_sites: BTreeSet::new(),
        }
    }

    /// The seed this plan rolls under.
    pub fn seed(&self) -> u64 {
        self.die.seed()
    }

    /// Fail each transfer with probability `rate`; a failing transfer's
    /// first `attempts` tries all fail before it succeeds (so with a retry
    /// budget `>= attempts` the run recovers, below it the transfer faults
    /// out).
    pub fn transfer_failures(mut self, rate: f64, attempts: u32) -> FaultPlan {
        self.transfer_fail_rate = rate;
        self.transfer_fail_attempts = attempts.max(1);
        self
    }

    /// Force the transfer at `(stream, action_index)` to fail its first
    /// `attempts` tries (independent of the rate-based dice).
    pub fn fail_transfer_at(mut self, stream: usize, action_index: usize) -> FaultPlan {
        self.forced_transfer_sites.insert((stream, action_index));
        self
    }

    /// Stretch each transfer's bandwidth term by `factor` with probability
    /// `rate` (a congested link).
    pub fn transfer_slowdowns(mut self, rate: f64, factor: f64) -> FaultPlan {
        self.transfer_slow_rate = rate;
        self.transfer_slow_factor = factor.max(1.0);
        self
    }

    /// Panic each kernel launch with probability `rate`.
    pub fn kernel_panics(mut self, rate: f64) -> FaultPlan {
        self.kernel_panic_rate = rate;
        self
    }

    /// Force the kernel at `(stream, action_index)` to panic.
    pub fn panic_kernel_at(mut self, stream: usize, action_index: usize) -> FaultPlan {
        self.forced_panic_sites.insert((stream, action_index));
        self
    }

    /// Fail each device-buffer materialization with probability `rate`.
    pub fn alloc_failures(mut self, rate: f64) -> FaultPlan {
        self.alloc_fail_rate = rate;
        self
    }

    /// Force materialization of buffer index `buf` to fail.
    pub fn fail_alloc(mut self, buf: usize) -> FaultPlan {
        self.forced_alloc_sites.insert(buf);
        self
    }

    /// Make every kernel on `(device, partition)` run `factor`× slower — an
    /// underperforming partition (thermal throttling, a straggling core).
    pub fn slow_partition(mut self, device: usize, partition: usize, factor: f64) -> FaultPlan {
        self.slow_partitions
            .push((device, partition, factor.max(1.0)));
        self
    }

    // ----- decisions (pure per-site functions) -----------------------------

    /// How many leading attempts of the transfer at `(stream, action_index)`
    /// fail (0 = healthy).
    pub fn transfer_fail_attempts(&self, stream: usize, action_index: usize) -> u32 {
        if self.forced_transfer_sites.contains(&(stream, action_index)) {
            return self.transfer_fail_attempts;
        }
        let site = [TAG_TRANSFER_FAIL, stream as u64, action_index as u64];
        if self.die.hits(&site, self.transfer_fail_rate) {
            self.transfer_fail_attempts
        } else {
            0
        }
    }

    /// Bandwidth-stretch factor for the transfer at `(stream,
    /// action_index)` (1.0 = healthy).
    pub(crate) fn transfer_slowdown(&self, stream: usize, action_index: usize) -> f64 {
        let site = [TAG_TRANSFER_SLOW, stream as u64, action_index as u64];
        if self.die.hits(&site, self.transfer_slow_rate) {
            self.transfer_slow_factor
        } else {
            1.0
        }
    }

    /// Whether the kernel at `(stream, action_index)` is injected to panic.
    pub fn kernel_panics_at(&self, stream: usize, action_index: usize) -> bool {
        if self.forced_panic_sites.contains(&(stream, action_index)) {
            return true;
        }
        let site = [TAG_KERNEL_PANIC, stream as u64, action_index as u64];
        self.die.hits(&site, self.kernel_panic_rate)
    }

    /// Whether materializing buffer index `buf` fails.
    pub(crate) fn alloc_fails(&self, buf: usize) -> bool {
        if self.forced_alloc_sites.contains(&buf) {
            return true;
        }
        self.die
            .hits(&[TAG_ALLOC_FAIL, buf as u64], self.alloc_fail_rate)
    }

    /// Slowdown factor for kernels on `(device, partition)` (1.0 = healthy).
    pub(crate) fn partition_slowdown(&self, device: usize, partition: usize) -> f64 {
        self.slow_partitions
            .iter()
            .filter(|&&(d, p, _)| d == device && p == partition)
            .map(|&(_, _, f)| f)
            .fold(1.0, f64::max)
    }
}

/// Retries a failed transfer gets after its initial attempt before it
/// faults out — on the native executor, and in the simulator's pricing of
/// the same recovery.
pub(crate) const MAX_RETRIES: u32 = 3;

/// Backoff before retry number `retry` (0-based): 50 µs, doubling per
/// further retry, capped at 100 ms so a chaos run cannot stall unboundedly.
pub(crate) fn backoff_for(retry: u32) -> Duration {
    let secs = Duration::from_micros(50).as_secs_f64() * 2.0f64.powi(retry.min(32) as i32);
    Duration::from_secs_f64(secs.min(0.1))
}

/// Fault-path totals for one native run (or a whole resilient run, where
/// the passes' counters are accumulated). Mirrored into
/// [`NativeCounters`](crate::trace::NativeCounters) on traced runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Transfer retry attempts performed (backoff + resubmit).
    pub transfer_retries: u64,
    /// Transfers that exhausted their retry budget.
    pub transfers_failed: u64,
    /// Kernel panics injected by the fault plan.
    pub injected_kernel_panics: u64,
    /// Kernel panics observed in total (injected + real).
    pub kernel_panics: u64,
    /// Partitions lost to a device kernel's panic.
    pub lost_partitions: u64,
    /// Payloads lost to a fault or skipped after a loss (see
    /// [`RecoveryState::skipped`]).
    pub skipped_actions: u64,
    /// Device-buffer materializations failed by the fault plan.
    pub alloc_faults: u64,
    /// Recovery passes a resilient run needed.
    pub degraded_runs: u64,
    /// Payloads re-run on surviving partitions by recovery passes.
    pub replayed_actions: u64,
}

impl FaultCounters {
    /// Accumulate another pass's counters into this one.
    pub fn absorb(&mut self, other: &FaultCounters) {
        self.transfer_retries += other.transfer_retries;
        self.transfers_failed += other.transfers_failed;
        self.injected_kernel_panics += other.injected_kernel_panics;
        self.kernel_panics += other.kernel_panics;
        self.lost_partitions += other.lost_partitions;
        self.skipped_actions += other.skipped_actions;
        self.alloc_faults += other.alloc_faults;
        self.degraded_runs += other.degraded_runs;
        self.replayed_actions += other.replayed_actions;
    }
}

/// What a failed native run left behind: which partitions it lost, which
/// payloads it lost or skipped, which fault sites fired, and its counters.
/// Carried by the run's [`RunFailure`](crate::types::RunFailure);
/// `run_native_resilient` re-plans from it.
#[derive(Clone, Debug, Default)]
pub struct RecoveryState {
    /// `(device, partition, kernel label)` of each partition a device
    /// kernel's panic took with it (the one the kernel ran on).
    pub lost: Vec<(usize, usize, String)>,
    /// `(stream index, action index)` of every lost or skipped payload, in
    /// skip order. A skipped payload taints its buffers before anything
    /// that depends on it starts, so each comes after the skipped payloads
    /// it depends on, and whatever ran saw a clean run's inputs.
    pub skipped: Vec<(usize, usize)>,
    /// `(stream index, action index)` of every site whose injected fault
    /// fired; a later pass of the same resilient run leaves them out.
    pub fired: Vec<(usize, usize)>,
    /// Counters of the failing pass.
    pub faults: FaultCounters,
}

/// Outcome of [`Context::run_native_resilient`](crate::context::Context):
/// the final (successful) pass's report plus the fault totals accumulated
/// across every pass.
#[derive(Debug)]
pub struct ResilientReport {
    /// Report of the last (clean) pass.
    pub report: crate::executor::native::NativeReport,
    /// Fault counters accumulated over every pass.
    pub faults: FaultCounters,
    /// Partitions lost across the whole resilient run.
    pub lost_partitions: Vec<(usize, usize, String)>,
}

impl ResilientReport {
    /// Recovery passes the run needed (0 = the first pass was clean).
    pub fn degraded_runs(&self) -> u64 {
        self.faults.degraded_runs
    }

    /// Payloads re-run on surviving partitions.
    pub fn replayed_actions(&self) -> u64 {
        self.faults.replayed_actions
    }
}

/// Atomic accumulator the concurrent stream drivers tally into; snapshotted
/// into a [`FaultCounters`] when the run finishes.
#[derive(Debug, Default)]
pub(crate) struct FaultTallies {
    pub(crate) transfer_retries: AtomicU64,
    pub(crate) transfers_failed: AtomicU64,
    pub(crate) injected_kernel_panics: AtomicU64,
    pub(crate) kernel_panics: AtomicU64,
    pub(crate) lost_partitions: AtomicU64,
    pub(crate) skipped_actions: AtomicU64,
}

impl FaultTallies {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> FaultCounters {
        FaultCounters {
            transfer_retries: self.transfer_retries.load(Ordering::Relaxed),
            transfers_failed: self.transfers_failed.load(Ordering::Relaxed),
            injected_kernel_panics: self.injected_kernel_panics.load(Ordering::Relaxed),
            kernel_panics: self.kernel_panics.load(Ordering::Relaxed),
            lost_partitions: self.lost_partitions.load(Ordering::Relaxed),
            skipped_actions: self.skipped_actions.load(Ordering::Relaxed),
            // Allocation faults fire before any driver starts.
            alloc_faults: 0,
            degraded_runs: 0,
            replayed_actions: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::seeded(11)
            .transfer_failures(0.3, 2)
            .kernel_panics(0.1);
        let b = FaultPlan::seeded(11)
            .transfer_failures(0.3, 2)
            .kernel_panics(0.1);
        for s in 0..8 {
            for i in 0..64 {
                assert_eq!(
                    a.transfer_fail_attempts(s, i),
                    b.transfer_fail_attempts(s, i)
                );
                assert_eq!(a.kernel_panics_at(s, i), b.kernel_panics_at(s, i));
            }
        }
    }

    #[test]
    fn forced_sites_always_fire() {
        let plan = FaultPlan::seeded(0)
            .transfer_failures(0.0, 3)
            .fail_transfer_at(2, 5)
            .panic_kernel_at(1, 1)
            .fail_alloc(7);
        assert_eq!(plan.transfer_fail_attempts(2, 5), 3);
        assert_eq!(plan.transfer_fail_attempts(2, 4), 0);
        assert!(plan.kernel_panics_at(1, 1));
        assert!(!plan.kernel_panics_at(1, 2));
        assert!(plan.alloc_fails(7));
        assert!(!plan.alloc_fails(6));
    }

    #[test]
    fn rates_hit_roughly_proportionally() {
        let plan = FaultPlan::seeded(3).transfer_failures(0.25, 1);
        let hits = (0..4000)
            .filter(|&i| plan.transfer_fail_attempts(0, i) > 0)
            .count();
        let frac = hits as f64 / 4000.0;
        assert!((frac - 0.25).abs() < 0.03, "fail rate {frac}");
    }

    #[test]
    fn partition_slowdown_takes_the_worst_factor() {
        let plan = FaultPlan::seeded(0)
            .slow_partition(0, 1, 2.0)
            .slow_partition(0, 1, 3.0)
            .slow_partition(0, 2, 1.5);
        assert_eq!(plan.partition_slowdown(0, 1), 3.0);
        assert_eq!(plan.partition_slowdown(0, 2), 1.5);
        assert_eq!(plan.partition_slowdown(0, 0), 1.0);
        assert_eq!(plan.partition_slowdown(1, 1), 1.0);
    }

    #[test]
    fn backoff_grows_geometrically_and_caps() {
        assert_eq!(backoff_for(0), Duration::from_micros(50));
        assert_eq!(backoff_for(1), Duration::from_micros(100));
        assert!(backoff_for(63) <= Duration::from_millis(100));
    }

    #[test]
    fn counters_absorb_adds_fields() {
        let mut a = FaultCounters {
            transfer_retries: 2,
            ..FaultCounters::default()
        };
        let b = FaultCounters {
            transfer_retries: 3,
            lost_partitions: 1,
            ..FaultCounters::default()
        };
        a.absorb(&b);
        assert_eq!(a.transfer_retries, 5);
        assert_eq!(a.lost_partitions, 1);
    }

    #[test]
    fn tallies_snapshot_roundtrip() {
        let t = FaultTallies::default();
        FaultTallies::bump(&t.transfer_retries);
        FaultTallies::bump(&t.transfer_retries);
        FaultTallies::bump(&t.kernel_panics);
        let snap = t.snapshot();
        assert_eq!(snap.transfer_retries, 2);
        assert_eq!(snap.kernel_panics, 1);
        assert_eq!(snap.lost_partitions, 0);
    }
}
