//! Static analysis of recorded programs — `stream-check`.
//!
//! A recorded [`Program`] is an executor-independent task graph, which
//! makes it analyzable *before* anything runs: this module builds the
//! happens-before relation implied by FIFO stream order, events, and
//! barriers (`hb`), then reports typed [`Diagnostic`]s in four classes:
//!
//! * **deadlocks** — cross-stream event-wait cycles, waits on events
//!   recorded causally after the wait, self-waits, unknown events;
//! * **data races** — unordered conflicting accesses to one buffer in one
//!   memory space (host copy vs per-device instances);
//! * **dataflow** — device reads of buffers nothing produced, D2H of
//!   never-written device memory, events nobody waits on;
//! * **resource lints** — streams placed outside the plan, partition
//!   oversubscription, dangling buffer references.
//!
//! Both executors run the analyzer on every program they have not already
//! run and refuse [`Severity::Error`] findings
//! ([`Error::Check`](crate::types::Error));
//! [`Context::analyze`](crate::context::Context::analyze) reports a
//! program's findings without running it. An analyzer-clean program
//! cannot deadlock on events or race on buffers at runtime, on either
//! executor — that is the contract the executors' schedulers rely on.
//!
//! ```
//! use hstreams::context::Context;
//! use micsim::PlatformConfig;
//!
//! let mut ctx = Context::builder(PlatformConfig::phi_31sp())
//!     .partitions(2)
//!     .build()
//!     .unwrap();
//! let a = ctx.alloc("A", 1024);
//! let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
//! ctx.h2d(s0, a).unwrap();
//! let e = ctx.record_event(s0).unwrap();
//! ctx.wait_event(s1, e).unwrap(); // orders s1 after the upload
//! let analysis = ctx.analyze();
//! assert!(analysis.report.is_clean());
//! ```

mod deadlock;
mod diagnostics;
mod hb;
mod races;
mod residency;
pub mod sarif;
mod witness;

use std::time::Instant;

use crate::program::Program;

pub use diagnostics::{CheckClass, CheckCode, CheckReport, CheckStats, Diagnostic, Severity, Site};
pub use witness::{HazardWitness, WitnessKind};

// The optimizer probes trial programs with bare edge lists; everything
// else — the schedulers' task graph and the elision certificate included —
// reads the edges and the one sorted access table (its `groups()`) off the
// `Analysis`.
pub use hb::HbGraph;
pub(crate) use hb::{wait_cycle, Csr, HbEdges};
pub(crate) use races::{Accesses, Space};

/// The plan the program is checked against: how many buffers the context
/// allocated and what geometry the streams may legally use.
#[derive(Clone, Copy, Debug)]
pub struct CheckEnv {
    /// Allocated buffers (ids `0..buffers`).
    pub buffers: usize,
    /// Cards in the platform.
    pub devices: usize,
    /// Partitions per card.
    pub partitions: usize,
    /// Streams the plan assigns to each partition.
    pub streams_per_partition: usize,
}

impl CheckEnv {
    /// An environment inferred from the program itself: every reference
    /// and placement is in range, so only graph-derived checks (deadlock,
    /// race, dataflow) can fire. Useful for analyzing a bare [`Program`]
    /// without its context.
    pub fn permissive(program: &Program) -> CheckEnv {
        let mut buffers = 0usize;
        let mut devices = 1usize;
        let mut partitions = 1usize;
        for s in &program.streams {
            devices = devices.max(s.placement.device.0 + 1);
            partitions = partitions.max(s.placement.partition + 1);
            for a in &s.actions {
                for b in a.buffers() {
                    buffers = buffers.max(b.0 + 1);
                }
            }
        }
        CheckEnv {
            buffers,
            devices,
            partitions,
            streams_per_partition: program.streams.len().max(1),
        }
    }
}

/// Concurrency structure of an analyzed program: how many cross-stream
/// (transfer, kernel) pairs the happens-before relation leaves unordered —
/// the pairs an executor *may* overlap. Zero for the barrier-separated
/// apps (nothing to hide behind anything), positive for the overlappable
/// pipelines.
#[derive(Clone, Copy, Debug, Default)]
pub struct OverlapSummary {
    /// Transfer actions in the program.
    pub transfers: usize,
    /// Kernel launches in the program.
    pub kernels: usize,
    /// Cross-stream (transfer, kernel) pairs with no ordering either way.
    pub concurrent_transfer_kernel_pairs: usize,
}

/// Per-action kind retained for [`Analysis::overlap_summary`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum SiteKind {
    Transfer,
    Kernel,
    Control,
}

/// The analyzer's output: the [`CheckReport`] plus what it was derived
/// from — the happens-before graph (for O(1) ordering queries, and for the
/// schedulers and the simulator's lowering to read instead of deriving
/// the ordering again) and the buffer accesses.
pub struct Analysis {
    /// All findings.
    pub report: CheckReport,
    pub(crate) hb: hb::HbGraph,
    pub(crate) accesses: Accesses,
    /// Action kinds indexed by happens-before node (action nodes only).
    kinds: Vec<SiteKind>,
}

impl Analysis {
    /// Does the action at `a` complete before the action at `b` can
    /// start, under FIFO + event + barrier ordering?
    pub fn happens_before(&self, a: Site, b: Site) -> bool {
        self.hb.happens_before(a, b)
    }

    /// Neither order holds: the executors may run `a` and `b` at the same
    /// time.
    pub fn concurrent(&self, a: Site, b: Site) -> bool {
        self.hb.concurrent(a, b)
    }

    /// Turn `diag`'s claim into an executable demonstration: witness
    /// schedules for races, the wait cycle for deadlocks, a structural
    /// refusal otherwise (see `witness`), read off the graph this
    /// analysis was built on.
    pub fn witness(&self, diag: &Diagnostic) -> HazardWitness {
        witness::witness(&self.hb, diag)
    }

    /// Count the cross-stream (transfer, kernel) pairs left unordered —
    /// the program's overlap potential. O(transfers × kernels) clock
    /// queries; meaningless on deadlocked programs (returns zero pairs).
    pub fn overlap_summary(&self) -> OverlapSummary {
        let edges = self.hb.edges();
        let sites: Vec<(Site, SiteKind)> = self
            .kinds
            .iter()
            .enumerate()
            .filter(|&(_, &kind)| kind != SiteKind::Control)
            .filter_map(|(v, &kind)| Some((edges.site_of(v)?, kind)))
            .collect();
        let mut summary = OverlapSummary::default();
        for (i, &(a, ka)) in sites.iter().enumerate() {
            match ka {
                SiteKind::Transfer => summary.transfers += 1,
                SiteKind::Kernel => summary.kernels += 1,
                SiteKind::Control => {}
            }
            for &(b, kb) in &sites[i + 1..] {
                let mixed = (ka == SiteKind::Transfer && kb == SiteKind::Kernel)
                    || (ka == SiteKind::Kernel && kb == SiteKind::Transfer);
                if mixed && a.stream != b.stream && self.hb.concurrent(a, b) {
                    summary.concurrent_transfer_kernel_pairs += 1;
                }
            }
        }
        summary
    }
}

/// Analyze `program` against `env`. Never fails: malformed programs come
/// back as reports full of errors, not panics.
pub fn analyze(program: &Program, env: &CheckEnv) -> Analysis {
    let start = Instant::now();
    let mut report = CheckReport::default();

    let graph = hb::HbGraph::build(program);
    deadlock::check(program, &graph, &mut report);

    let accesses = Accesses::collect(program);
    races::check(program, &graph, &accesses, &mut report);
    residency::check_dataflow(program, &graph, &accesses, &mut report);
    residency::check_resources(program, env, &mut report);

    report.stats = CheckStats {
        actions: program.action_count(),
        hb_nodes: graph.node_count(),
        hb_edges: graph.edge_count(),
        elapsed: start.elapsed(),
    };
    report.finish();

    let mut kinds = Vec::with_capacity(program.action_count());
    kinds.extend(
        program
            .streams
            .iter()
            .flat_map(|s| &s.actions)
            .map(|a| match a {
                crate::action::Action::Transfer { .. } => SiteKind::Transfer,
                crate::action::Action::Kernel(_) => SiteKind::Kernel,
                _ => SiteKind::Control,
            }),
    );

    Analysis {
        report,
        hb: graph,
        accesses,
        kinds,
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

    fn in_class(report: &CheckReport, class: CheckClass) -> impl Iterator<Item = &Diagnostic> {
        report
            .diagnostics
            .iter()
            .filter(move |d| d.class() == class)
    }

    fn stream_on(id: usize, device: usize, partition: usize, actions: Vec<Action>) -> StreamRecord {
        StreamRecord {
            id: StreamId(id),
            placement: StreamPlacement {
                device: DeviceId(device),
                partition,
            },
            actions,
        }
    }

    fn stream(id: usize, actions: Vec<Action>) -> StreamRecord {
        stream_on(id, 0, id, actions)
    }

    fn h2d(buf: usize) -> Action {
        Action::Transfer {
            dir: Direction::HostToDevice,
            buf: BufId(buf),
        }
    }

    fn d2h(buf: usize) -> Action {
        Action::Transfer {
            dir: Direction::DeviceToHost,
            buf: BufId(buf),
        }
    }

    fn kernel(reads: &[usize], writes: &[usize]) -> Action {
        Action::Kernel(
            KernelDesc::simulated("k", KernelProfile::streaming("k", 1e9), 1.0)
                .reading(reads.iter().map(|&b| BufId(b)))
                .writing(writes.iter().map(|&b| BufId(b))),
        )
    }

    fn env(buffers: usize) -> CheckEnv {
        CheckEnv {
            buffers,
            devices: 2,
            partitions: 8,
            streams_per_partition: 1,
        }
    }

    // ----- class (a): deadlocks --------------------------------------------

    #[test]
    fn mutual_cross_stream_wait_reported_as_deadlock() {
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
        assert!(p.validate().is_ok(), "shallow validate misses the cycle");
        let a = analyze(&p, &env(0));
        assert!(!a.report.is_clean());
        let d = in_class(&a.report, CheckClass::Deadlock)
            .find(|d| d.code == CheckCode::DeadlockCycle)
            .expect("deadlock diagnostic");
        assert_eq!(d.severity(), Severity::Error);
        assert!(!d.related.is_empty(), "cycle hops attached");
    }

    #[test]
    fn self_wait_and_unknown_event_reported() {
        let mut p = Program::default();
        p.streams.push(stream(
            0,
            vec![
                Action::RecordEvent(EventId(0)),
                Action::WaitEvent(EventId(0)),
                Action::WaitEvent(EventId(7)),
            ],
        ));
        p.events.push(EventSite {
            stream: StreamId(0),
            action_index: 0,
        });
        let a = analyze(&p, &env(0));
        let codes: Vec<CheckCode> = a.report.errors().map(|d| d.code).collect();
        assert!(codes.contains(&CheckCode::SelfWait));
        assert!(codes.contains(&CheckCode::UnknownEvent));
    }

    // ----- class (b): data races -------------------------------------------

    #[test]
    fn unordered_cross_stream_write_read_is_a_race() {
        // s0 uploads b0 and b1; s1's kernel reads b0 with no event.
        let mut p = Program::default();
        p.streams.push(stream(0, vec![h2d(0), h2d(1)]));
        p.streams.push(stream(1, vec![kernel(&[0], &[1])]));
        let a = analyze(&p, &env(2));
        let races: Vec<&Diagnostic> = in_class(&a.report, CheckClass::Race).collect();
        assert!(!races.is_empty());
        assert!(races.iter().all(|d| d.severity() == Severity::Error));
        // Both the read-side and the write-write conflict on b1 exist.
        assert!(races.iter().any(|d| d.message.contains("b0")));
        assert!(races.iter().any(|d| d.message.contains("b1")));
    }

    #[test]
    fn event_edge_silences_the_race() {
        let mut p = Program::default();
        p.streams
            .push(stream(0, vec![h2d(0), Action::RecordEvent(EventId(0))]));
        p.streams.push(stream(
            1,
            vec![Action::WaitEvent(EventId(0)), kernel(&[0], &[1])],
        ));
        p.events.push(EventSite {
            stream: StreamId(0),
            action_index: 1,
        });
        let a = analyze(&p, &env(2));
        assert!(a.report.is_clean(), "{}", a.report.render());
    }

    #[test]
    fn host_round_trip_does_not_conflict_with_device_readers() {
        // s0: d2h b0, host kernel writes b0's host copy, h2d b0 — FIFO.
        // s1: device kernel reads b0 only after an event on the re-upload.
        let mut p = Program::default();
        let host_k = Action::Kernel(
            KernelDesc::simulated("potrf", KernelProfile::streaming("k", 1e9), 1.0)
                .writing([BufId(0)])
                .on_host(),
        );
        p.streams.push(stream(
            0,
            vec![d2h(0), host_k, h2d(0), Action::RecordEvent(EventId(0))],
        ));
        p.streams.push(stream(
            1,
            vec![Action::WaitEvent(EventId(0)), kernel(&[0], &[1])],
        ));
        p.events.push(EventSite {
            stream: StreamId(0),
            action_index: 3,
        });
        let a = analyze(&p, &env(2));
        // d2h of a never-written device buffer is a warning; no races.
        assert!(a.report.is_clean(), "{}", a.report.render());
        assert!(in_class(&a.report, CheckClass::Race).next().is_none());
    }

    #[test]
    fn same_buffer_on_two_cards_is_not_a_race() {
        let mut p = Program::default();
        p.streams
            .push(stream_on(0, 0, 0, vec![h2d(0), kernel(&[0], &[1])]));
        p.streams
            .push(stream_on(1, 1, 0, vec![h2d(0), kernel(&[0], &[2])]));
        let a = analyze(&p, &env(3));
        assert!(
            in_class(&a.report, CheckClass::Race).next().is_none(),
            "distinct device instances: {}",
            a.report.render()
        );
    }

    // ----- class (c): dataflow ---------------------------------------------

    #[test]
    fn device_read_without_producer_warns() {
        let mut p = Program::default();
        p.streams.push(stream(0, vec![kernel(&[0], &[1]), d2h(2)]));
        let a = analyze(&p, &env(3));
        assert!(a.report.is_clean(), "warnings only");
        let dataflow: Vec<&Diagnostic> = in_class(&a.report, CheckClass::Dataflow).collect();
        assert!(dataflow
            .iter()
            .any(|d| d.code == CheckCode::UseBeforeProduce && d.message.contains("b0")));
        assert!(dataflow
            .iter()
            .any(|d| d.code == CheckCode::UseBeforeProduce && d.message.contains("d2h")));
    }

    #[test]
    fn produced_buffer_reads_clean_and_dead_event_warns() {
        let mut p = Program::default();
        p.streams.push(stream(
            0,
            vec![
                h2d(0),
                kernel(&[0], &[1]),
                Action::RecordEvent(EventId(0)),
                d2h(1),
            ],
        ));
        p.events.push(EventSite {
            stream: StreamId(0),
            action_index: 2,
        });
        let a = analyze(&p, &env(2));
        assert!(in_class(&a.report, CheckClass::Dataflow).all(|d| d.code == CheckCode::DeadEvent));
        assert_eq!(a.report.warnings().count(), 1);
    }

    #[test]
    fn unknown_buffer_is_an_error() {
        let mut p = Program::default();
        p.streams.push(stream(0, vec![h2d(9)]));
        let a = analyze(&p, &env(1));
        assert!(a
            .report
            .errors()
            .any(|d| d.code == CheckCode::UnknownBuffer));
    }

    // ----- class (d): resource lints ---------------------------------------

    #[test]
    fn out_of_range_placement_is_an_error() {
        let mut p = Program::default();
        p.streams.push(stream_on(0, 0, 99, vec![h2d(0)]));
        let a = analyze(&p, &env(1));
        let d = a
            .report
            .errors()
            .find(|d| d.code == CheckCode::PlacementOutOfRange)
            .expect("placement lint");
        assert!(d.message.contains("p99"));
    }

    #[test]
    fn oversubscribed_partition_warns() {
        let mut p = Program::default();
        p.streams.push(stream_on(0, 0, 0, vec![h2d(0)]));
        p.streams.push(stream_on(1, 0, 0, vec![h2d(1)]));
        let a = analyze(&p, &env(2));
        assert!(a.report.is_clean());
        assert!(a
            .report
            .warnings()
            .any(|d| d.code == CheckCode::PartitionOversubscribed));
        // Idle streams don't count against the budget.
        let mut q = Program::default();
        q.streams.push(stream_on(0, 0, 0, vec![h2d(0)]));
        q.streams.push(stream_on(1, 0, 0, vec![]));
        assert_eq!(analyze(&q, &env(2)).report.warnings().count(), 0);
    }

    #[test]
    fn oversubscription_names_the_first_active_stream() {
        // p0 = [idle s0, active s1, active s2], one stream per partition:
        // the finding must sit on an action that exists, or the annotated
        // dump has no line to put it under.
        let mut p = Program::default();
        p.streams.push(stream_on(0, 0, 0, vec![]));
        p.streams.push(stream_on(1, 0, 0, vec![h2d(0)]));
        p.streams.push(stream_on(2, 0, 0, vec![h2d(1)]));
        let a = analyze(&p, &env(2));
        let d = a
            .report
            .warnings()
            .find(|d| d.code == CheckCode::PartitionOversubscribed)
            .expect("oversubscription lint");
        assert_eq!(d.site, Site::new(1, 0));
        let dump = p.dump_annotated(&a.report);
        let under_s1 = format!("  [  0] h2d b0\n        ^ {}\n", d.render());
        assert!(dump.contains(&under_s1), "{dump}");
    }

    // ----- overlap summary & env inference ---------------------------------

    #[test]
    fn overlap_summary_separates_pipelined_from_barriered() {
        // Two independent h2d -> kernel chains: the transfer of one chain
        // is concurrent with the kernel of the other.
        let mut p = Program::default();
        p.streams.push(stream(0, vec![h2d(0), kernel(&[0], &[1])]));
        p.streams.push(stream(1, vec![h2d(2), kernel(&[2], &[3])]));
        let a = analyze(&p, &env(4));
        assert!(a.report.is_clean());
        let s = a.overlap_summary();
        assert_eq!((s.transfers, s.kernels), (2, 2));
        assert_eq!(s.concurrent_transfer_kernel_pairs, 2);

        // The same program with a barrier between phase boundaries has
        // nothing left to overlap.
        let mut q = Program {
            barriers: 1,
            ..Default::default()
        };
        q.streams.push(stream(
            0,
            vec![h2d(0), Action::Barrier(0), kernel(&[0], &[1])],
        ));
        q.streams.push(stream(
            1,
            vec![h2d(2), Action::Barrier(0), kernel(&[2], &[3])],
        ));
        let b = analyze(&q, &env(4));
        assert!(b.report.is_clean());
        assert_eq!(b.overlap_summary().concurrent_transfer_kernel_pairs, 0);
    }

    #[test]
    fn permissive_env_infers_bounds_from_the_program() {
        let mut p = Program::default();
        p.streams.push(stream_on(0, 1, 5, vec![h2d(7)]));
        let e = CheckEnv::permissive(&p);
        assert_eq!((e.buffers, e.devices, e.partitions), (8, 2, 6));
        assert!(analyze(&p, &e).report.is_clean());
    }

    #[test]
    fn analysis_exposes_happens_before_queries() {
        let mut p = Program::default();
        p.streams
            .push(stream(0, vec![h2d(0), Action::RecordEvent(EventId(0))]));
        p.streams
            .push(stream(1, vec![Action::WaitEvent(EventId(0)), d2h(0)]));
        p.events.push(EventSite {
            stream: StreamId(0),
            action_index: 1,
        });
        let a = analyze(&p, &env(1));
        assert!(a.happens_before(Site::new(0, 0), Site::new(1, 1)));
        assert!(!a.concurrent(Site::new(0, 0), Site::new(1, 1)));
        assert!(a.report.stats.hb_nodes >= 4);
        assert!(a.report.stats.hb_edges >= 3);
    }
}
