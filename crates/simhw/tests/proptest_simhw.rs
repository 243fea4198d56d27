//! Property-based tests of the simulation substrate.

use micsim::compute::{ComputeModel, KernelInvocation, KernelProfile, SmtScaling};
use micsim::device::DeviceSpec;
use micsim::engine::{Engine, ResourceId, TaskId, TaskSpec};
use micsim::event::EventQueue;
use micsim::partition::PartitionPlan;
use micsim::pcie::{Duplex, LinkModel};
use micsim::time::{SimDuration, SimTime};
use micsim::trace::{intersect, merge_intervals, total_length, Interval};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Events pop in non-decreasing time order, FIFO at equal times.
    #[test]
    fn event_queue_pop_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, id)) = q.pop() {
            if let Some((lt, lid)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(id > lid, "FIFO at equal timestamps");
                }
            }
            last = Some((t, id));
        }
    }

    /// Any random forward DAG over shared resources simulates with
    /// well-formed records: start ≥ ready, finish = start + duration,
    /// makespan = max finish, and per-resource busy ≤ makespan.
    #[test]
    fn engine_records_are_well_formed(
        n_res in 1usize..5,
        specs in proptest::collection::vec((0usize..5, 0u64..500, proptest::collection::vec(any::<proptest::sample::Index>(), 0..3)), 1..60)
    ) {
        let mut engine = Engine::new();
        let resources: Vec<ResourceId> =
            (0..n_res).map(|_| engine.add_resource()).collect();
        let mut durations = Vec::new();
        for (i, (res, dur, dep_idx)) in specs.iter().enumerate() {
            let deps: Vec<TaskId> = if i == 0 {
                vec![]
            } else {
                dep_idx.iter().map(|d| TaskId(d.index(i))).collect()
            };
            let resource = if *res == 0 { None } else { Some(resources[(res - 1) % n_res]) };
            engine
                .add_task(TaskSpec {
                    resource,
                    duration: SimDuration::from_nanos(*dur),
                    deps: &deps,
                    tag: i,
                })
                .unwrap();
            durations.push(*dur);
        }
        let timeline = engine.run();
        let mut max_finish = SimTime::ZERO;
        for r in &timeline.records {
            prop_assert!(r.start >= r.ready);
            prop_assert_eq!(
                (r.finish - r.start).nanos(),
                durations[r.task.0]
            );
            max_finish = max_finish.max(r.finish);
        }
        prop_assert_eq!(timeline.makespan, max_finish - SimTime::ZERO);
        for &r in &resources {
            prop_assert!(timeline.resource_busy(r) <= timeline.makespan);
        }
    }

    /// The critical path of any DAG starts at t=0, ends at the makespan,
    /// and never has a gap a predecessor doesn't explain.
    #[test]
    fn critical_path_spans_makespan(
        n_res in 1usize..4,
        specs in proptest::collection::vec((0usize..4, 1u64..400, proptest::collection::vec(any::<proptest::sample::Index>(), 0..3)), 1..40)
    ) {
        let mut engine = Engine::new();
        let resources: Vec<ResourceId> =
            (0..n_res).map(|_| engine.add_resource()).collect();
        for (i, (res, dur, dep_idx)) in specs.iter().enumerate() {
            let deps: Vec<TaskId> = if i == 0 {
                vec![]
            } else {
                dep_idx.iter().map(|d| TaskId(d.index(i))).collect()
            };
            let resource = if *res == 0 { None } else { Some(resources[(res - 1) % n_res]) };
            engine
                .add_task(TaskSpec {
                    resource,
                    duration: SimDuration::from_nanos(*dur),
                    deps: &deps,
                    tag: i,
                })
                .unwrap();
        }
        let tl = engine.run();
        let path = tl.critical_path();
        prop_assert!(!path.is_empty());
        prop_assert_eq!(tl.records[path[0].0].start, SimTime::ZERO);
        prop_assert_eq!(
            tl.records[path.last().unwrap().0].finish - SimTime::ZERO,
            tl.makespan
        );
        for w in path.windows(2) {
            // Each hop is explained: the successor started no earlier than
            // the predecessor finished.
            prop_assert!(tl.records[w[1].0].start >= tl.records[w[0].0].finish);
        }
    }

    /// Tasks sharing one exclusive resource never overlap in time.
    #[test]
    fn exclusive_resource_never_double_booked(
        durs in proptest::collection::vec(1u64..300, 2..40)
    ) {
        let mut engine = Engine::new();
        let r = engine.add_resource();
        for (i, d) in durs.iter().enumerate() {
            engine
                .add_task(TaskSpec {
                    resource: Some(r),
                    duration: SimDuration::from_nanos(*d),
                    deps: &[],
                    tag: i,
                })
                .unwrap();
        }
        let timeline = engine.run();
        let mut spans: Vec<(u64, u64)> = timeline
            .records
            .iter()
            .map(|r| (r.start.nanos(), r.finish.nanos()))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
        }
        // Work-conserving: total busy equals sum of durations and the
        // resource never idles (all ready at t=0).
        prop_assert_eq!(timeline.makespan.nanos(), durs.iter().sum::<u64>());
    }

    /// Partition plans cover every usable thread exactly once, for any
    /// device geometry and partition count.
    #[test]
    fn partition_plans_cover_exactly(
        cores in 1usize..64,
        tpc in 1usize..5,
        count_seed in any::<proptest::sample::Index>()
    ) {
        let dev = DeviceSpec::tiny(cores, tpc);
        let total = dev.usable_threads();
        let count = count_seed.index(total) + 1;
        let plan = PartitionPlan::equal_split(&dev, count).unwrap();
        let mut covered = vec![false; total];
        #[allow(clippy::needless_range_loop)]
        for p in &plan.partitions {
            for t in p.first_thread..p.first_thread + p.threads {
                prop_assert!(!covered[t], "thread {t} assigned twice");
                covered[t] = true;
            }
            // cores_spanned consistent with the thread range.
            let first_core = p.first_thread / tpc;
            let last_core = (p.first_thread + p.threads - 1) / tpc;
            prop_assert_eq!(p.cores_spanned, last_core - first_core + 1);
        }
        prop_assert!(covered.into_iter().all(|c| c), "all threads covered");
    }

    /// Core-alignment theorem: a plan has no core sharing iff the partition
    /// count divides the usable core count.
    #[test]
    fn alignment_iff_divides_cores(count in 1usize..=56) {
        let dev = DeviceSpec::phi_31sp();
        let plan = PartitionPlan::equal_split(&dev, count).unwrap();
        prop_assert_eq!(!plan.has_core_sharing(), 56 % count == 0);
    }

    /// Interval algebra: |A ∩ B| ≤ min(|A|, |B|), and merge is idempotent.
    #[test]
    fn interval_algebra(raw in proptest::collection::vec((0u64..1000, 0u64..100), 0..40)) {
        let to_iv = |v: &[(u64, u64)]| -> Vec<Interval> {
            v.iter()
                .map(|&(s, l)| Interval { start: SimTime(s), end: SimTime(s + l) })
                .collect()
        };
        let half = raw.len() / 2;
        let a = merge_intervals(to_iv(&raw[..half]));
        let b = merge_intervals(to_iv(&raw[half..]));
        prop_assert_eq!(merge_intervals(a.clone()), a.clone());
        let both = intersect(&a, &b);
        prop_assert!(total_length(&both) <= total_length(&a).max(SimDuration::ZERO));
        prop_assert!(total_length(&both) <= total_length(&b).max(SimDuration::ZERO));
    }

    /// Merge produces a sorted, pairwise-disjoint set that conserves
    /// covered length: re-merging any subset union never exceeds the whole.
    #[test]
    fn merge_output_sorted_disjoint(raw in proptest::collection::vec((0u64..1000, 0u64..100), 0..60)) {
        let ivs: Vec<Interval> = raw
            .iter()
            .map(|&(s, l)| Interval { start: SimTime(s), end: SimTime(s + l) })
            .collect();
        let merged = merge_intervals(ivs.clone());
        for iv in &merged {
            prop_assert!(iv.end > iv.start, "degenerate interval survived: {iv:?}");
        }
        for w in merged.windows(2) {
            prop_assert!(w[0].end < w[1].start, "not disjoint/sorted: {w:?}");
        }
        // Every input instant is covered by the merge.
        for iv in &ivs {
            if iv.end > iv.start {
                prop_assert!(
                    merged.iter().any(|m| m.start <= iv.start && iv.end <= m.end),
                    "{iv:?} not covered by {merged:?}"
                );
            }
        }
        // Covered length never exceeds the raw sum.
        prop_assert!(total_length(&merged) <= ivs.iter().map(|iv| iv.end - iv.start).sum());
    }

    /// Intersection commutes, is bounded by both operands, and
    /// self-intersection is the identity on merged sets.
    #[test]
    fn intersect_commutes_and_bounds(raw in proptest::collection::vec((0u64..1000, 0u64..100), 0..60)) {
        let to_iv = |v: &[(u64, u64)]| -> Vec<Interval> {
            v.iter()
                .map(|&(s, l)| Interval { start: SimTime(s), end: SimTime(s + l) })
                .collect()
        };
        let half = raw.len() / 2;
        let a = merge_intervals(to_iv(&raw[..half]));
        let b = merge_intervals(to_iv(&raw[half..]));
        let ab = intersect(&a, &b);
        let ba = intersect(&b, &a);
        prop_assert_eq!(&ab, &ba, "intersection must commute");
        prop_assert!(total_length(&ab) <= total_length(&a));
        prop_assert!(total_length(&ab) <= total_length(&b));
        prop_assert_eq!(intersect(&a, &a), a.clone(), "self-intersection is identity");
        // The intersection of disjoint sorted sets is itself disjoint and
        // sorted (safe input for total_length).
        prop_assert_eq!(merge_intervals(ab.clone()), ab);
    }

    /// Link model: transfer time is monotone in bytes and batch time is
    /// exactly additive.
    #[test]
    fn link_monotone_and_additive(a in 0u64..1_000_000, b in 0u64..1_000_000, n in 1usize..20) {
        let link = LinkModel::new(SimDuration::from_micros(15), 7.0e9, Duplex::Serial);
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(link.transfer_time(lo) <= link.transfer_time(hi));
        prop_assert_eq!(link.batch_time(n, a), link.transfer_time(a) * n as u64);
    }

    /// Compute model: capacity is monotone in thread count (fixed span),
    /// and kernel time is monotone decreasing in capacity.
    #[test]
    fn capacity_monotone_in_threads(threads in 1usize..16, extra in 1usize..8) {
        let model = ComputeModel {
            launch_overhead: SimDuration::from_micros(60),
            smt: SmtScaling::default(),
            core_sharing_factor: 0.5,
            threads_per_core: 4,
        };
        let span = |t: usize| micsim::partition::Partition {
            index: 0,
            first_thread: 0,
            threads: t,
            shares_core: false,
            cores_spanned: t.div_ceil(4),
        };
        let small = model.partition_capacity(&span(threads));
        let large = model.partition_capacity(&span(threads + extra));
        prop_assert!(large >= small, "{large} >= {small}");

        let profile = KernelProfile::streaming("k", 1e9);
        let inv = KernelInvocation { profile: &profile, work: 1e9 };
        let t_small = model.kernel_time(&inv, &span(threads)).unwrap();
        let t_large = model.kernel_time(&inv, &span(threads + extra)).unwrap();
        prop_assert!(t_large <= t_small);
    }
}
