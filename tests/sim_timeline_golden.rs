//! Golden simulated timelines.
//!
//! Every cell below is the FNV-1a fingerprint of one whole simulated
//! timeline — `label, resource, ready, start, finish, critical_pred` of
//! every [`TaskRecord`], in task-id order, each label rendered from the
//! record's tag by [`SimReport::label`] — so it pins the simulator's
//! lowering (which tasks exist, in which creation order, with which
//! dependencies and resources), its prices and the engine's arbitration at
//! once. The `fifo` and faulted constants were computed at commit f5ba4ea
//! (PR 20), before the simulator's lowering was rebuilt on the checker's
//! happens-before graph; a refactor of the lowering or of the cost model
//! must leave every one of them equal. `heft`/`steal` cells additionally
//! depend on the prices the *schedulers* see and on how a schedule is
//! lowered; they were re-pinned by PR 22, which lowers a schedule directly
//! (no event tasks, so ids, `ready` and `critical_pred` all moved —
//! CHANGES.md lists old → new per cell with the task-count drop).
//!
//! Every `heft`/`steal` cell carries a second, *payload* fingerprint over
//! only the records that hold a resource — `label, resource, start,
//! finish`, sorted — which is what a scheduled run means: which transfer
//! and kernel occupied which lane, when. It is blind to zero-duration
//! control tasks, task ids and creation order, so a change in *how* a
//! schedule is lowered must leave it equal. `PAYLOAD` was computed at
//! 44181bd (PR 21), when a scheduled run was still re-recorded as a
//! lane-per-stream program with an event pair per cross-lane edge, and
//! held across PR 22. It moves only if the schedulers' decisions do.
//!
//! The faulted cell has `heft` and `steal` twins, pinned (both
//! fingerprints) when a fault plan stopped switching the scheduler off.
//! They also check that the slow partition stretches exactly the kernels
//! placed on it.
//!
//! On a mismatch the test prints the full actual tables in source form.

use mic_streams::apps::hotspot::{self, HotspotConfig};
use mic_streams::apps::srad::{self, SradConfig};
use mic_streams::apps::tunable::{
    Tunable, TunableCf, TunableHbench, TunableKmeans, TunableMm, TunableNn,
};
use mic_streams::hstreams::action::Action;
use mic_streams::hstreams::context::Context;
use mic_streams::hstreams::kernel::KernelDesc;
use mic_streams::hstreams::testutil::fnv64;
use mic_streams::hstreams::{FaultPlan, SchedulerKind, SimReport, TaskTag};
use mic_streams::micsim::compute::KernelProfile;
use mic_streams::micsim::engine::TaskRecord;
use mic_streams::micsim::time::SimDuration;
use mic_streams::micsim::PlatformConfig;
use std::fmt::Write as _;

fn fingerprint(report: &SimReport) -> u64 {
    let mut text = String::new();
    for r in &report.timeline.records {
        writeln!(
            text,
            "{}|{:?}|{}|{}|{}|{:?}",
            report.label(r),
            r.resource.map(|res| res.0),
            r.ready.0,
            r.start.0,
            r.finish.0,
            r.critical_pred.map(|t| t.0)
        )
        .unwrap();
    }
    fnv64(&text)
}

/// What a scheduled run means, however it was lowered: the sorted
/// `label, resource, start, finish` of every resource-holding record.
fn payload_fingerprint(report: &SimReport) -> u64 {
    let mut lines: Vec<String> = report
        .timeline
        .records
        .iter()
        .filter_map(|r| {
            let res = r.resource?;
            Some(format!(
                "{}|{}|{}|{}\n",
                report.label(r),
                res.0,
                r.start.0,
                r.finish.0
            ))
        })
        .collect();
    lines.sort_unstable();
    fnv64(&lines.concat())
}

/// One pinned timeline: its full fingerprint, task count (printed with the
/// table, not pinned) and — scheduled cells only — payload fingerprint.
struct Cell {
    name: String,
    full: u64,
    payload: Option<u64>,
    tasks: usize,
}

impl Cell {
    fn new(name: String, report: &SimReport, scheduled: bool) -> Cell {
        Cell {
            name,
            full: fingerprint(report),
            payload: scheduled.then(|| payload_fingerprint(report)),
            tasks: report.timeline.records.len(),
        }
    }
}

fn ctx(platform: PlatformConfig, partitions: usize) -> Context {
    Context::builder(platform)
        .partitions(partitions)
        .build()
        .unwrap()
}

/// One tunable app and the two `(P, T)` it is pinned at.
type Pinned = (Box<dyn Tunable>, [(usize, usize); 2]);

/// The five tunable apps, each at two `(P, T)`.
fn tunables() -> Vec<Pinned> {
    vec![
        (
            Box::new(TunableHbench::new(1 << 16, 8, None)) as Box<dyn Tunable>,
            [(2, 4), (4, 16)],
        ),
        (Box::new(TunableMm::new(96, None)), [(2, 4), (4, 16)]),
        (Box::new(TunableCf::new(96, None)), [(2, 9), (4, 16)]),
        (Box::new(TunableNn::new(1 << 14, None)), [(2, 4), (7, 14)]),
        (
            Box::new(TunableKmeans::new(1 << 12, 4, 3, None)),
            [(2, 4), (4, 8)],
        ),
    ]
}

/// Every scheduler's timeline of the program recorded in `ctx`.
fn cells(name: &str, ctx: &mut Context, out: &mut Vec<Cell>) {
    for kind in SchedulerKind::all() {
        ctx.set_scheduler(kind);
        let report = ctx.run_sim().unwrap();
        let scheduled = kind != SchedulerKind::Fifo;
        out.push(Cell::new(format!("{name}/{kind}"), &report, scheduled));
    }
}

/// Slowdown of partition 1 in the faulted cells.
const SLOW: f64 = 2.5;

/// Every kernel `faulted` ran on partition 1 takes [`SLOW`]× its body in
/// `clean` (the same schedule without the plan: the schedulers plan on
/// healthy prices), every other kernel exactly as long — and partition 1
/// runs a kernel recorded on another partition's stream.
fn assert_slow_partition_stretches_what_it_runs(
    ctx: &Context,
    clean: &SimReport,
    faulted: &SimReport,
) {
    /// Each kernel record with its label.
    fn kernels(report: &SimReport) -> Vec<(String, &TaskRecord<TaskTag>)> {
        let partitions = &report.kinds.partitions;
        let records = report.timeline.records.iter();
        records
            .filter(|r| r.resource.is_some_and(|id| partitions.contains(&id)))
            .map(|r| (report.label(r), r))
            .collect()
    }
    let p1 = faulted
        .names()
        .into_iter()
        .find(|(_, n)| n == "mic0.p1")
        .map(|(id, _)| id);
    let (clean, faulted) = (kernels(clean), kernels(faulted));
    assert_eq!(clean.len(), faulted.len());
    let overhead = ctx.config().enqueue_overhead;
    let mut moved_onto_p1 = 0;
    for (label, f) in faulted {
        let mut same = clean.iter().filter(|(l, _)| *l == label);
        let (_, c) = same.next().expect("the kernel ran in the clean run");
        assert!(same.next().is_none(), "kernel labels are unique");
        assert_eq!(c.resource, f.resource, "{label}: placed alike");
        let healthy = c.finish - c.start;
        let want = if f.resource == p1 {
            let body = (healthy - overhead).as_secs_f64();
            SimDuration::from_secs_f64(body * SLOW) + overhead
        } else {
            healthy
        };
        assert_eq!(f.finish - f.start, want, "{label}");
        let recorded_on = ctx.program().streams.iter().find(|s| {
            let kernel = |a: &Action| matches!(a, Action::Kernel(k) if k.label == label);
            s.actions.iter().any(kernel)
        });
        let home = recorded_on.map(|s| s.placement.partition);
        moved_onto_p1 += usize::from(f.resource == p1 && home != Some(1));
    }
    assert!(moved_onto_p1 > 0, "partition 1 runs a moved kernel");
}

fn actual() -> Vec<Cell> {
    let mut out = Vec::new();

    for (mut app, geometries) in tunables() {
        for (p, t) in geometries {
            let mut ctx = ctx(PlatformConfig::phi_31sp(), p);
            assert!(app.feasible(t), "{} T={t}", app.name());
            app.record(&mut ctx, t).unwrap();
            cells(&format!("{}@p{p}t{t}", app.name()), &mut ctx, &mut out);
        }
    }

    // The two barrier-per-iteration stencil apps (app modules only).
    for (p, t) in [(2, 4), (4, 8)] {
        let mut c = ctx(PlatformConfig::phi_31sp(), p);
        let cfg = HotspotConfig {
            rows: 64,
            cols: 64,
            iterations: 3,
            tiles: t,
        };
        hotspot::build(&mut c, &cfg).unwrap();
        cells(&format!("hotspot@p{p}t{t}"), &mut c, &mut out);

        let mut c = ctx(PlatformConfig::phi_31sp(), p);
        let cfg = SradConfig {
            rows: 64,
            cols: 64,
            lambda: 0.5,
            iterations: 2,
            tiles: t,
        };
        srad::build(&mut c, &cfg).unwrap();
        cells(&format!("srad@p{p}t{t}"), &mut c, &mut out);
    }

    // A fault plan with priced retries, degraded transfers and a slow
    // partition, on the recorded program and under both schedulers: faults
    // fire at their recorded sites wherever the scheduler puts them.
    {
        let mut c = ctx(PlatformConfig::phi_31sp(), 4);
        let mut app = TunableMm::new(96, None);
        app.record(&mut c, 16).unwrap();
        let plan = FaultPlan::seeded(2026)
            .transfer_failures(0.25, 2)
            .transfer_slowdowns(0.25, 3.0)
            .slow_partition(0, 1, SLOW)
            .fail_transfer_at(0, 0);
        c.set_fault_plan(Some(plan.clone()));
        let report = c.run_sim().unwrap();
        assert!(
            report
                .timeline
                .records
                .iter()
                .any(|r| report.label(r).contains("!backoff")),
            "the plan must price at least one retry"
        );
        out.push(Cell::new("mm@p4t16/faulted".into(), &report, false));
        for kind in [SchedulerKind::ListHeft, SchedulerKind::WorkSteal] {
            c.set_scheduler(kind);
            c.set_fault_plan(None);
            let clean = c.run_sim().unwrap();
            c.set_fault_plan(Some(plan.clone()));
            let report = c.run_sim().unwrap();
            assert_slow_partition_stretches_what_it_runs(&c, &clean, &report);
            out.push(Cell::new(format!("mm@p4t16/faulted/{kind}"), &report, true));
        }
    }

    // Two cards, barriers between phases: the `cross_device_sync` path.
    {
        let mut c = ctx(PlatformConfig::phi_31sp_multi(2), 2);
        let streams = c.stream_count();
        let bufs: Vec<_> = (0..streams)
            .map(|i| {
                (
                    c.alloc(format!("a{i}"), 1 << 16),
                    c.alloc(format!("b{i}"), 1 << 16),
                )
            })
            .collect();
        let kernel = |label: String| {
            KernelDesc::simulated(label, KernelProfile::streaming("k", 0.32e9), 4e7)
        };
        for (i, &(a, _)) in bufs.iter().enumerate() {
            let s = c.stream(i).unwrap();
            c.h2d(s, a).unwrap();
        }
        c.barrier();
        for (i, &(a, b)) in bufs.iter().enumerate() {
            let s = c.stream(i).unwrap();
            c.kernel(s, kernel(format!("k{i}")).reading([a]).writing([b]))
                .unwrap();
        }
        c.barrier();
        c.barrier();
        for (i, &(_, b)) in bufs.iter().enumerate() {
            let s = c.stream(i).unwrap();
            c.d2h(s, b).unwrap();
        }
        cells("two-device-barriers@p2", &mut c, &mut out);
    }

    // Forward event references across a barrier: stream 0 waits on stream
    // 1, which waits on stream 2 — the lowering order is not stream order.
    {
        let mut c = ctx(PlatformConfig::phi_31sp(), 3);
        let bufs: Vec<_> = (0..6).map(|i| c.alloc(format!("l{i}"), 1 << 14)).collect();
        let (s0, s1, s2) = (
            c.stream(0).unwrap(),
            c.stream(1).unwrap(),
            c.stream(2).unwrap(),
        );
        let kernel =
            |label: &str| KernelDesc::simulated(label, KernelProfile::streaming("k", 0.32e9), 2e7);
        for round in 0..2 {
            let (a, b, d) = (bufs[3 * round], bufs[3 * round + 1], bufs[3 * round + 2]);
            c.h2d(s2, a).unwrap();
            c.kernel(s2, kernel("produce").reading([a]).writing([b]))
                .unwrap();
            let e2 = c.record_event(s2).unwrap();
            c.wait_event(s1, e2).unwrap();
            c.kernel(s1, kernel("refine").reading([b]).writing([d]))
                .unwrap();
            let e1 = c.record_event(s1).unwrap();
            c.wait_event(s0, e1).unwrap();
            c.d2h(s0, d).unwrap();
            if round == 0 {
                c.barrier();
            }
        }
        cells("event-ladder@p3", &mut c, &mut out);
    }

    out
}

/// Full fingerprints: `fifo` and faulted cells as computed at f5ba4ea,
/// `heft`/`steal` cells as re-pinned by PR 22 (see the module docs).
const GOLDEN: &[(&str, u64)] = &[
    ("hbench@p2t4/fifo", 0x39e9ff618229209d),
    ("hbench@p2t4/heft", 0x2369e5c572cf285b),
    ("hbench@p2t4/steal", 0xe7dbedc52988c337),
    ("hbench@p4t16/fifo", 0x0f7e69d242d1be40),
    ("hbench@p4t16/heft", 0x697c5015a8cfa747),
    ("hbench@p4t16/steal", 0x960907d759af4683),
    ("mm@p2t4/fifo", 0xe0e0496158c6f5ae),
    ("mm@p2t4/heft", 0x75da34ac801fa18b),
    ("mm@p2t4/steal", 0x8f80d79eba196d67),
    ("mm@p4t16/fifo", 0x8ded3e7001c65587),
    ("mm@p4t16/heft", 0xde84f6351b86a9e2),
    ("mm@p4t16/steal", 0xee2174efa71efc4f),
    ("cf@p2t9/fifo", 0x6693f17236be9f36),
    ("cf@p2t9/heft", 0x64c52d884379192e),
    ("cf@p2t9/steal", 0x81a0fcb81ab92ba9),
    ("cf@p4t16/fifo", 0xde98364bfaa42c25),
    ("cf@p4t16/heft", 0x0e2cad64572e46df),
    ("cf@p4t16/steal", 0xa455c42e5a7c5ea9),
    ("nn@p2t4/fifo", 0x719c2c1d84f275d3),
    ("nn@p2t4/heft", 0x09bacd692904fd27),
    ("nn@p2t4/steal", 0x2c305773519be931),
    ("nn@p7t14/fifo", 0xc32d0bfe30f1dd7c),
    ("nn@p7t14/heft", 0x5cd03838bcf98ad4),
    ("nn@p7t14/steal", 0x404063eef1a52123),
    ("kmeans@p2t4/fifo", 0x58026f8d3b4ed3e6),
    ("kmeans@p2t4/heft", 0xe2633e6a8fa50e05),
    ("kmeans@p2t4/steal", 0x6e131d0eec3c8308),
    ("kmeans@p4t8/fifo", 0xdb3a8630524fce74),
    ("kmeans@p4t8/heft", 0x34e2ddab5cf3f18f),
    ("kmeans@p4t8/steal", 0x1e8ff3234209b9e2),
    ("hotspot@p2t4/fifo", 0x7919b475ff41b508),
    ("hotspot@p2t4/heft", 0x96c870bc5d6ab3ca),
    ("hotspot@p2t4/steal", 0x5ffcc1556b436c32),
    ("srad@p2t4/fifo", 0x4d914c26b6b04787),
    ("srad@p2t4/heft", 0x75b19aada916fbca),
    ("srad@p2t4/steal", 0xf8ea2070bb2eb9dc),
    ("hotspot@p4t8/fifo", 0xdbd7aec7177b8161),
    ("hotspot@p4t8/heft", 0x7285f58f30598f93),
    ("hotspot@p4t8/steal", 0x41125b37d58577bb),
    ("srad@p4t8/fifo", 0x5b0b1cf5a80b9773),
    ("srad@p4t8/heft", 0x3c2878a87ff93755),
    ("srad@p4t8/steal", 0x3790a07eee6db440),
    ("mm@p4t16/faulted", 0x2670bd1cc7de13b1),
    ("mm@p4t16/faulted/heft", 0x0bf80a6b8de2a783),
    ("mm@p4t16/faulted/steal", 0xa6d5f767b1e057d9),
    ("two-device-barriers@p2/fifo", 0x86d6d4dc5f66f51e),
    ("two-device-barriers@p2/heft", 0xe80bb73963c7eef4),
    ("two-device-barriers@p2/steal", 0x731daa8f50a0dea4),
    ("event-ladder@p3/fifo", 0x6aaa1fad927f82c4),
    ("event-ladder@p3/heft", 0x79229bce89f896e2),
    ("event-ladder@p3/steal", 0x9c8e660d66369897),
];

/// Payload fingerprints of every scheduled cell, computed at 44181bd (see
/// the module docs).
const PAYLOAD: &[(&str, u64)] = &[
    ("hbench@p2t4/heft", 0xc5cf82f89ae18082),
    ("hbench@p2t4/steal", 0xc5cf82f89ae18082),
    ("hbench@p4t16/heft", 0x36ee5917674567fd),
    ("hbench@p4t16/steal", 0x7b7c87f275b5a04f),
    ("mm@p2t4/heft", 0xf6dc947282992693),
    ("mm@p2t4/steal", 0xf6dc947282992693),
    ("mm@p4t16/heft", 0xc4fa6c7bb0a6a62a),
    ("mm@p4t16/steal", 0x8059364a5c198eee),
    ("cf@p2t9/heft", 0xb860da282cf2b5bd),
    ("cf@p2t9/steal", 0x23ca87db691d0622),
    ("cf@p4t16/heft", 0xc7441dd76e99506b),
    ("cf@p4t16/steal", 0x6664ffc70d0e886e),
    ("nn@p2t4/heft", 0x0c8f8d856addcd16),
    ("nn@p2t4/steal", 0x0c8f8d856addcd16),
    ("nn@p7t14/heft", 0xbe3fcb739ab7692d),
    ("nn@p7t14/steal", 0xf85effb261804921),
    ("kmeans@p2t4/heft", 0x0836d9bc9e64b264),
    ("kmeans@p2t4/steal", 0xbeb2bb0cd760919c),
    ("kmeans@p4t8/heft", 0x5544ff4deefbe06b),
    ("kmeans@p4t8/steal", 0xf26fbdbe27899504),
    ("hotspot@p2t4/heft", 0x75040c8664be97bf),
    ("hotspot@p2t4/steal", 0xe05e67121b1e4540),
    ("srad@p2t4/heft", 0x8892ffab0f3240e5),
    ("srad@p2t4/steal", 0x00cb2e966f322923),
    ("hotspot@p4t8/heft", 0xf3417ecc47d77f03),
    ("hotspot@p4t8/steal", 0x44fd0b4e36bfdaea),
    ("srad@p4t8/heft", 0xe7e12f77c94e88a3),
    ("srad@p4t8/steal", 0x3a4730cff36bd903),
    ("mm@p4t16/faulted/heft", 0x3e6b859e8ccaf4f8),
    ("mm@p4t16/faulted/steal", 0x53e5148879474397),
    ("two-device-barriers@p2/heft", 0x8b01b74fa48d23f1),
    ("two-device-barriers@p2/steal", 0x8b01b74fa48d23f1),
    ("event-ladder@p3/heft", 0xc4b177655210583c),
    ("event-ladder@p3/steal", 0x8f3e94d54d23604d),
];

/// `actual` against `golden`, name by name and in order; on a difference,
/// the actual table in source form.
fn diff(table: &str, actual: &[(&str, u64, usize)], golden: &[(&str, u64)]) -> Option<String> {
    let same = actual.len() == golden.len()
        && actual
            .iter()
            .zip(golden)
            .all(|((name, fp, _), (gname, gfp))| name == gname && fp == gfp);
    if same {
        return None;
    }
    let mut text = format!("{table} differs; actual table:\n");
    for (name, fp, tasks) in actual {
        let moved = golden
            .iter()
            .find(|(g, _)| g == name)
            .is_some_and(|(_, g)| g != fp);
        let mark = if moved { " MOVED" } else { "" };
        writeln!(
            text,
            "    (\"{name}\", 0x{fp:016x}), // {tasks} tasks{mark}"
        )
        .unwrap();
    }
    Some(text)
}

#[test]
fn simulated_timelines_match_the_committed_fingerprints() {
    let actual = actual();
    let full: Vec<_> = actual
        .iter()
        .map(|c| (c.name.as_str(), c.full, c.tasks))
        .collect();
    let payload: Vec<_> = actual
        .iter()
        .filter_map(|c| Some((c.name.as_str(), c.payload?, c.tasks)))
        .collect();
    let diffs: Vec<String> = [
        diff("GOLDEN", &full, GOLDEN),
        diff("PAYLOAD", &payload, PAYLOAD),
    ]
    .into_iter()
    .flatten()
    .collect();
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}
