//! Kernel execution cost model.
//!
//! Kernels in the simulator are described, not executed: a [`KernelProfile`]
//! says how much abstract *work* an invocation carries and how that work
//! scales over hardware threads. The model composes five effects, each of
//! which carries one of the paper's observations:
//!
//! 1. **Launch overhead** — every offloaded invocation pays a fixed cost
//!    (sink of performance at large task counts, Fig. 10 right tails).
//! 2. **Thread-per-core scaling** — a KNC core running 2/3/4 hardware
//!    threads is ~1.5/1.7/1.8× one thread, not 4×. Partition geometry
//!    (how many cores a partition spans) therefore matters.
//! 3. **Small-task efficiency** — per-thread work below a threshold wastes
//!    capacity on startup/synchronization (left edge of Fig. 7's U).
//! 4. **Core-sharing contention** — partitions that straddle a core contend
//!    in its private cache (the non-divisor dips of Fig. 9(a,b)).
//! 5. **Per-invocation allocation** — kernels that malloc/free scratch per
//!    call pay time linear in thread count (Kmeans' anomaly, Fig. 9(c)),
//!    plus an optional cache-locality bonus for compact partitions
//!    (Hotspot's dip at P≈33–37, Fig. 9(d)).

use std::borrow::Cow;
use std::fmt;

use crate::partition::Partition;
use crate::time::SimDuration;

/// Errors from the kernel cost model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ComputeError {
    /// A kernel was priced on a partition with zero capacity (no threads /
    /// no cores) — it could never finish. Callers should surface this as a
    /// failed run rather than crash: an autotuning sweep prunes the
    /// candidate and moves on.
    EmptyPartition {
        /// The kernel that was launched.
        kernel: String,
    },
}

impl fmt::Display for ComputeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComputeError::EmptyPartition { kernel } => {
                write!(f, "kernel {kernel:?} launched on empty partition")
            }
        }
    }
}

impl std::error::Error for ComputeError {}

/// Per-core throughput with 1..=4 resident hardware threads, in
/// *thread-equivalents* (the unit [`KernelProfile::thread_rate`] is defined
/// against). A KNC in-order core cannot issue from the same thread in
/// back-to-back cycles, so a solo thread reaches only ~60 % of a saturated
/// thread's rate, and four threads saturate the core at ~1.8 equivalents —
/// not 4.
#[derive(Clone, Debug, PartialEq)]
pub struct SmtScaling {
    /// `factor[k-1]` is the per-core capacity with `k` resident threads.
    pub factor: [f64; 4],
}

impl Default for SmtScaling {
    fn default() -> Self {
        // Typical KNC shape: 0.6, 1.3, 1.65, 1.8.
        SmtScaling {
            factor: [0.6, 1.3, 1.65, 1.8],
        }
    }
}

impl SmtScaling {
    /// Multiplier for `k` threads on one core (clamps at 4).
    pub fn per_core(&self, k: usize) -> f64 {
        match k {
            0 => 0.0,
            1..=4 => self.factor[k - 1],
            _ => self.factor[3],
        }
    }
}

/// How a kernel's working set interacts with partition shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CacheProfile {
    /// Indifferent to partition shape (streaming kernels: hBench, NN).
    Neutral,
    /// Rewards partitions that span few cores (stencils whose tile fits in
    /// a couple of L2s — the paper's Hotspot): `bonus` is the maximum rate
    /// multiplier, granted fully when a partition spans `ideal_cores` or
    /// fewer and decaying linearly until `worst_cores`.
    CompactFriendly {
        /// Maximum extra throughput (e.g. 0.18 = +18%).
        bonus: f64,
        /// Partition span (cores) at or below which the full bonus applies.
        ideal_cores: usize,
        /// Span at or above which no bonus applies.
        worst_cores: usize,
    },
}

/// Cost description of one kernel *type*.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelProfile {
    /// Human-readable name (shows up in traces); a literal costs no
    /// allocation.
    pub name: Cow<'static, str>,
    /// Work units one *thread-equivalent* retires per second (see
    /// [`SmtScaling`]; a fully populated core supplies ≈1.8 equivalents).
    /// The unit is whatever [`KernelInvocation::work`] is measured in
    /// (element-iterations, flops, points×neighbours, ...).
    pub thread_rate: f64,
    /// Per-thread work at which parallel efficiency drops to 50 %.
    /// Captures startup/sync cost of an OpenMP-style region.
    pub half_work_per_thread: f64,
    /// Time spent allocating+freeing scratch per invocation, **per resident
    /// hardware thread** (the Kmeans effect). Zero for most kernels.
    pub alloc_per_thread: SimDuration,
    /// Cache-shape sensitivity.
    pub cache: CacheProfile,
}

impl KernelProfile {
    /// A neutral profile with the given name and rate; other knobs zeroed.
    pub fn streaming(name: impl Into<Cow<'static, str>>, thread_rate: f64) -> KernelProfile {
        KernelProfile {
            name: name.into(),
            thread_rate,
            half_work_per_thread: 0.0,
            alloc_per_thread: SimDuration::ZERO,
            cache: CacheProfile::Neutral,
        }
    }
}

/// One kernel launch to be priced.
#[derive(Clone, Debug)]
pub struct KernelInvocation<'a> {
    /// The kernel type.
    pub profile: &'a KernelProfile,
    /// Work units in this invocation.
    pub work: f64,
}

/// Platform-wide compute-model parameters (shared by all kernels).
#[derive(Clone, Debug, PartialEq)]
pub struct ComputeModel {
    /// Fixed cost of launching any kernel (offload dispatch, doorbell,
    /// thread wakeup).
    pub launch_overhead: SimDuration,
    /// SMT scaling curve.
    pub smt: SmtScaling,
    /// Throughput multiplier applied when the partition shares a physical
    /// core with a neighbouring partition (e.g. 0.8 = −20 %).
    pub core_sharing_factor: f64,
    /// Hardware threads per core (copied from the device spec).
    pub threads_per_core: usize,
}

impl ComputeModel {
    /// Aggregate capacity of a partition in single-thread equivalents,
    /// given SMT scaling and the partition's core span.
    ///
    /// Threads distribute as evenly as the span allows; e.g. 6 threads over
    /// 2 cores ⇒ 3+3; 6 threads over 3 cores ⇒ 2+2+2.
    pub fn partition_capacity(&self, part: &Partition) -> f64 {
        if part.threads == 0 {
            return 0.0;
        }
        let cores = part.cores_spanned.max(1);
        let base = part.threads / cores;
        let extra = part.threads % cores; // this many cores run base+1 threads
        let full = self.smt.per_core(base + 1) * extra as f64;
        let rest = self.smt.per_core(base) * (cores - extra) as f64;
        full + rest
    }

    /// Parallel efficiency of spreading `work` over `threads` threads for
    /// `profile`: `w/(w + half)` with `w` the per-thread work share.
    pub fn parallel_efficiency(&self, profile: &KernelProfile, work: f64, threads: usize) -> f64 {
        if profile.half_work_per_thread <= 0.0 || threads == 0 {
            return 1.0;
        }
        let per_thread = work / threads as f64;
        per_thread / (per_thread + profile.half_work_per_thread)
    }

    /// Cache-shape multiplier for `profile` on `part` (≥ 1.0 is a bonus).
    pub fn cache_factor(&self, profile: &KernelProfile, part: &Partition) -> f64 {
        match profile.cache {
            CacheProfile::Neutral => 1.0,
            CacheProfile::CompactFriendly {
                bonus,
                ideal_cores,
                worst_cores,
            } => {
                let span = part.cores_spanned;
                if span <= ideal_cores {
                    1.0 + bonus
                } else if span >= worst_cores {
                    1.0
                } else {
                    let range = (worst_cores - ideal_cores) as f64;
                    let into = (span - ideal_cores) as f64;
                    1.0 + bonus * (1.0 - into / range)
                }
            }
        }
    }

    /// Price one kernel invocation on one partition.
    ///
    /// Returns [`ComputeError::EmptyPartition`] when `part` has zero
    /// capacity — such a kernel can never finish, and a run pricing it must
    /// fail rather than report a zero-cost launch.
    pub fn kernel_time(
        &self,
        inv: &KernelInvocation<'_>,
        part: &Partition,
    ) -> Result<SimDuration, ComputeError> {
        let profile = inv.profile;
        let capacity = self.partition_capacity(part);
        if capacity <= 0.0 {
            return Err(ComputeError::EmptyPartition {
                kernel: profile.name.to_string(),
            });
        }
        let eff = self.parallel_efficiency(profile, inv.work, part.threads);
        let sharing = if part.shares_core {
            self.core_sharing_factor
        } else {
            1.0
        };
        let cache = self.cache_factor(profile, part);
        let rate = profile.thread_rate * capacity * eff * sharing * cache;
        let compute = SimDuration::from_secs_f64(inv.work / rate);
        let alloc = SimDuration::from_nanos(profile.alloc_per_thread.nanos() * part.threads as u64);
        Ok(self.launch_overhead + alloc + compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::partition::PartitionPlan;

    fn model() -> ComputeModel {
        ComputeModel {
            launch_overhead: SimDuration::from_micros(60),
            smt: SmtScaling::default(),
            core_sharing_factor: 0.8,
            threads_per_core: 4,
        }
    }

    fn plan(p: usize) -> PartitionPlan {
        PartitionPlan::equal_split(&DeviceSpec::phi_31sp(), p).unwrap()
    }

    #[test]
    fn smt_scaling_clamps() {
        let s = SmtScaling::default();
        assert_eq!(s.per_core(0), 0.0);
        assert_eq!(s.per_core(1), 0.6);
        assert_eq!(s.per_core(4), 1.8);
        assert_eq!(s.per_core(9), 1.8);
    }

    #[test]
    fn solo_thread_is_penalized() {
        // The in-order-core effect: one resident thread gets well under the
        // per-thread rate at full occupancy. This drives the right-hand tail
        // of the paper's Fig. 7.
        let s = SmtScaling::default();
        assert!(s.per_core(1) < s.per_core(4) / 2.0);
    }

    #[test]
    fn full_device_capacity() {
        let m = model();
        let plan = plan(1);
        // 56 cores x s(4)=1.8 => 100.8 thread-equivalents.
        let cap = m.partition_capacity(&plan.partitions[0]);
        assert!((cap - 100.8).abs() < 1e-9, "cap={cap}");
    }

    #[test]
    fn capacity_accounts_for_uneven_thread_spread() {
        let m = model();
        // 6 threads over 2 cores = 3+3 => 2 * s(3) = 3.3
        let part = Partition {
            index: 0,
            first_thread: 0,
            threads: 6,
            shares_core: false,
            cores_spanned: 2,
        };
        assert!((m.partition_capacity(&part) - 3.3).abs() < 1e-9);
        // 5 threads over 2 cores = 3+2 => s(3)+s(2) = 2.95
        let part5 = Partition {
            threads: 5,
            ..part.clone()
        };
        assert!((m.partition_capacity(&part5) - 2.95).abs() < 1e-9);
    }

    #[test]
    fn empty_partition_capacity_is_zero() {
        let m = model();
        let p = Partition {
            index: 0,
            first_thread: 0,
            threads: 0,
            shares_core: false,
            cores_spanned: 0,
        };
        assert_eq!(m.partition_capacity(&p), 0.0);
    }

    #[test]
    fn more_spread_threads_have_more_capacity() {
        // 8 threads on 2 cores (4+4 = 3.6) < 8 threads on 8 cores (8 x 0.6 = 4.8).
        let m = model();
        let packed = Partition {
            index: 0,
            first_thread: 0,
            threads: 8,
            shares_core: false,
            cores_spanned: 2,
        };
        let spread = Partition {
            cores_spanned: 8,
            ..packed.clone()
        };
        assert!(m.partition_capacity(&spread) > m.partition_capacity(&packed));
    }

    #[test]
    fn efficiency_falls_with_thread_count() {
        let m = model();
        let mut prof = KernelProfile::streaming("k", 1e9);
        prof.half_work_per_thread = 1000.0;
        let e_few = m.parallel_efficiency(&prof, 1e6, 8);
        let e_many = m.parallel_efficiency(&prof, 1e6, 224);
        assert!(e_few > e_many);
        assert!(e_many > 0.0 && e_few < 1.0);
        // Zero half-work => perfect efficiency.
        let perfect = KernelProfile::streaming("p", 1e9);
        assert_eq!(m.parallel_efficiency(&perfect, 1.0, 224), 1.0);
    }

    #[test]
    fn kernel_time_composition() {
        let m = model();
        let prof = KernelProfile::streaming("k", 1e9);
        let plan = plan(1);
        let inv = KernelInvocation {
            profile: &prof,
            work: 100.8e9, // exactly 1 second at full capacity
        };
        let t = m.kernel_time(&inv, &plan.partitions[0]).unwrap();
        let secs = t.as_secs_f64();
        assert!((secs - 1.0 - 60e-6).abs() < 1e-6, "t={secs}");
    }

    #[test]
    fn core_sharing_penalty_applies() {
        let m = model();
        let prof = KernelProfile::streaming("k", 1e9);
        let aligned = plan(4); // core-aligned
        let shared = plan(3); // splits cores
        let inv = KernelInvocation {
            profile: &prof,
            work: 1e9,
        };
        let t_aligned = m.kernel_time(&inv, &aligned.partitions[0]).unwrap();
        let t_shared_mid = m.kernel_time(&inv, &shared.partitions[1]).unwrap();
        // Middle partition of P=3 shares cores on both sides; even though it
        // has MORE threads (74 vs 56), the 0.8 contention factor plus capacity
        // math must make it slower per unit of work-per-capacity. Compare
        // per-capacity normalized times instead of absolute.
        let cap_a = m.partition_capacity(&aligned.partitions[0]);
        let cap_s = m.partition_capacity(&shared.partitions[1]);
        let norm_a = t_aligned.as_secs_f64() * cap_a;
        let norm_s = t_shared_mid.as_secs_f64() * cap_s;
        assert!(
            norm_s > norm_a * 1.1,
            "sharing partition should be >=10% worse normalized: {norm_s} vs {norm_a}"
        );
    }

    #[test]
    fn compact_friendly_bonus_interpolates() {
        let m = model();
        let prof = KernelProfile {
            name: "hotspot".into(),
            thread_rate: 1e9,
            half_work_per_thread: 0.0,
            alloc_per_thread: SimDuration::ZERO,
            cache: CacheProfile::CompactFriendly {
                bonus: 0.2,
                ideal_cores: 2,
                worst_cores: 10,
            },
        };
        let mk = |span: usize| Partition {
            index: 0,
            first_thread: 0,
            threads: 4,
            shares_core: false,
            cores_spanned: span,
        };
        assert!((m.cache_factor(&prof, &mk(1)) - 1.2).abs() < 1e-12);
        assert!((m.cache_factor(&prof, &mk(2)) - 1.2).abs() < 1e-12);
        assert!((m.cache_factor(&prof, &mk(10)) - 1.0).abs() < 1e-12);
        assert!((m.cache_factor(&prof, &mk(20)) - 1.0).abs() < 1e-12);
        let mid = m.cache_factor(&prof, &mk(6));
        assert!(mid > 1.0 && mid < 1.2);
    }

    #[test]
    fn alloc_cost_scales_with_threads() {
        let m = model();
        let mut prof = KernelProfile::streaming("kmeans", 1e12);
        prof.alloc_per_thread = SimDuration::from_micros(10);
        let inv = KernelInvocation {
            profile: &prof,
            work: 1.0,
        };
        let big = plan(1); // 224 threads
        let small = plan(56); // 4 threads
        let t_big = m.kernel_time(&inv, &big.partitions[0]).unwrap();
        let t_small = m.kernel_time(&inv, &small.partitions[0]).unwrap();
        // Alloc dominates: 2240us vs 40us (plus 60us launch each).
        assert!(t_big.as_micros_f64() > 2000.0);
        assert!(t_small.as_micros_f64() < 200.0);
    }

    #[test]
    fn kernel_on_empty_partition_is_a_typed_error() {
        let m = model();
        let prof = KernelProfile::streaming("k", 1e9);
        let p = Partition {
            index: 0,
            first_thread: 0,
            threads: 0,
            shares_core: false,
            cores_spanned: 0,
        };
        let inv = KernelInvocation {
            profile: &prof,
            work: 1.0,
        };
        let err = m.kernel_time(&inv, &p).unwrap_err();
        assert_eq!(
            err,
            ComputeError::EmptyPartition {
                kernel: "k".to_string()
            }
        );
        assert!(err.to_string().contains("empty partition"));
    }
}
