//! Property test for the DAG schedulers: on randomly generated
//! well-synchronized programs, every scheduler either declines (FIFO
//! always does) or emits a schedule that carries exactly the recorded
//! transfer/kernel work — nothing dropped, nothing invented — and whose
//! *simulated execution* still honours the recorded program's ordering:
//! every conflicting access pair the analyzer ordered `a -> b` runs with
//! `a` finished before `b` starts, every lane runs its tasks in schedule
//! order without overlap, and nothing but the scheduled work is on the
//! timeline.
//!
//! The generator composes two structures the schedulers must respect:
//! per-stream tile chains (`h2d -> kernel -> d2h` over a private buffer,
//! ordered by data flow) and cross-stream producer/consumer conflicts
//! synchronized by one event each (ordered by sync edges). Randomizing
//! both together probes the interesting cases — a schedule that moves a
//! consumer kernel to a different lane than its producer must still start
//! it after the producer, with no stream FIFO left to lean on.

use hstreams::action::Action;
use hstreams::check::Site;
use hstreams::program::Program;
use hstreams::testutil::{build_chained, work_fingerprint};
use hstreams::{BufId, Context, SchedulerKind};
use micsim::pcie::Direction;
use micsim::PlatformConfig;
use proptest::prelude::*;
use std::collections::HashMap;

const PARTITIONS: usize = 4;

/// Region split for [`build_chained`]: tile chains use buffers below 32,
/// conflicts 32 and up.
const CHAIN_BUF_LIMIT: usize = 32;

/// A one-card context holding `program` over 64 buffers of 64 KiB.
fn context(program: Program) -> Context {
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(PARTITIONS)
        .build()
        .unwrap();
    for i in 0..64 {
        ctx.alloc(format!("b{i}"), 1 << 14);
    }
    ctx.install_program(program)
        .expect("generator emits installable programs");
    ctx
}

/// The test's own access model, `(buffer, device copy?, write?)` — the
/// generator records device kernels on one card only.
fn accesses(action: &Action) -> Vec<(BufId, bool, bool)> {
    match action {
        Action::Transfer { dir, buf } => {
            let to_device = *dir == Direction::HostToDevice;
            vec![(*buf, !to_device, false), (*buf, to_device, true)]
        }
        Action::Kernel(k) => {
            let reads = k.reads.iter().map(|&b| (b, true, false));
            let writes = k.writes.iter().map(|&b| (b, true, true));
            reads.chain(writes).collect()
        }
        _ => Vec::new(),
    }
}

/// Same copy of the same buffer, at least one write.
fn conflict(a: &Action, b: &Action) -> bool {
    let b = accesses(b);
    accesses(a).iter().any(|&(buf, dev, write)| {
        b.iter()
            .any(|&(buf2, dev2, write2)| buf == buf2 && dev == dev2 && (write || write2))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_scheduler_emits_an_hb_consistent_order(
        tiles in proptest::collection::vec(0usize..4, 2..5),
        conflicts in proptest::collection::vec((0usize..16, 0usize..16), 0..6),
    ) {
        let program = build_chained(&tiles, &conflicts, PARTITIONS, CHAIN_BUF_LIMIT);
        let fingerprint = work_fingerprint(&program);
        let mut ctx = context(program);
        let analysis = ctx.analyze();
        prop_assert!(analysis.report.is_clean());

        for kind in SchedulerKind::all() {
            ctx.set_scheduler(kind);
            let Some(schedule) = ctx.plan_schedule() else {
                prop_assert!(
                    kind == SchedulerKind::Fifo || fingerprint.is_empty(),
                    "{kind} declined a clean non-empty program"
                );
                continue;
            };
            prop_assert!(kind != SchedulerKind::Fifo, "FIFO must always decline");
            let program = ctx.program();
            let action = |site: Site| &program.streams[site.stream.0].actions[site.action_index];

            // (a) Every non-control action exactly once, inside the makespan.
            let mut scheduled: Vec<Site> = schedule.tasks.iter().map(|t| t.site).collect();
            scheduled.sort_unstable();
            let recorded: Vec<Site> = program
                .streams
                .iter()
                .enumerate()
                .flat_map(|(si, s)| (0..s.actions.len()).map(move |ai| Site::new(si, ai)))
                .filter(|&site| !action(site).is_control())
                .collect();
            prop_assert_eq!(recorded.len(), fingerprint.len());
            prop_assert_eq!(
                &scheduled,
                &recorded,
                "{} must schedule the recorded work, each action once",
                kind
            );
            for task in &schedule.tasks {
                prop_assert!(
                    task.finish >= task.start && task.finish <= schedule.makespan + 1e-12,
                    "{kind}: task interval out of bounds"
                );
            }

            // The executed timeline: one record per scheduled task, in
            // schedule order, (d) each holding a resource.
            let report = ctx.run_sim().expect("a scheduled run simulates");
            let records = &report.timeline.records;
            prop_assert_eq!(records.len(), schedule.tasks.len(), "{}: control survived", kind);
            let mut at: HashMap<Site, usize> = HashMap::new();
            for (i, (task, record)) in schedule.tasks.iter().zip(records).enumerate() {
                prop_assert_eq!(report.label(record), action(task.site).label());
                prop_assert!(record.resource.is_some(), "{kind}: {} holds nothing", report.label(record));
                at.insert(task.site, i);
            }

            // (b) Every conflicting pair the analyzer ordered ran in order.
            for a in &schedule.tasks {
                for b in &schedule.tasks {
                    if analysis.happens_before(a.site, b.site)
                        && conflict(action(a.site), action(b.site))
                    {
                        let (ra, rb) = (&records[at[&a.site]], &records[at[&b.site]]);
                        prop_assert!(
                            ra.finish <= rb.start,
                            "{kind}: {} ({}) must finish before {} ({}) starts",
                            a.site, report.label(ra), b.site, report.label(rb)
                        );
                    }
                }
            }

            // (c) A lane is one resource, run in schedule order, no overlap.
            let mut last_on = HashMap::new();
            for (task, record) in schedule.tasks.iter().zip(records) {
                if let Some(prev) = last_on.insert(task.lane, record) {
                    prop_assert_eq!(prev.resource, record.resource);
                    prop_assert!(
                        prev.finish <= record.start,
                        "{kind}: {} overlaps {} on {}",
                        report.label(record), report.label(prev), task.lane
                    );
                }
            }
        }
    }
}
