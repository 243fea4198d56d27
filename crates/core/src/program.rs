//! The recorded program: streams, their action queues, and events.
//!
//! A [`Context`](crate::context::Context) records user calls into a
//! `Program` — an executor-independent intermediate representation. Both
//! executors interpret the same `Program`, which is what guarantees the
//! simulator and the native backend agree on ordering semantics.

use micsim::device::DeviceId;

use crate::action::Action;
use crate::types::{Error, EventId, Result, StreamId};

/// Where a stream runs: which card and which partition on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamPlacement {
    /// The card.
    pub device: DeviceId,
    /// Partition index within that card's plan.
    pub partition: usize,
}

/// One stream: a FIFO queue of actions bound to a placement.
#[derive(Clone, Debug)]
pub struct StreamRecord {
    /// The stream's id.
    pub id: StreamId,
    /// Where it executes.
    pub placement: StreamPlacement,
    /// Enqueued actions, in FIFO order.
    pub actions: Vec<Action>,
}

/// Where an event is recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventSite {
    /// Stream that records the event.
    pub stream: StreamId,
    /// Index of the `RecordEvent` action within that stream.
    pub action_index: usize,
}

/// A fully recorded streamed program.
///
/// `Clone` exists so a recorded program can be rewritten without losing
/// the original: the optimizer elides sync into a copy, the service
/// captures a tenant's program to relocate and merge, the fuzzer installs
/// mutated variants.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// All streams, indexed by `StreamId.0`.
    pub streams: Vec<StreamRecord>,
    /// Recording site of each event, indexed by `EventId.0`.
    pub events: Vec<EventSite>,
    /// Number of barriers recorded.
    pub barriers: usize,
}

impl Program {
    /// Total number of enqueued actions across all streams.
    pub fn action_count(&self) -> usize {
        self.streams.iter().map(|s| s.actions.len()).sum()
    }

    /// Distinct devices used by the program, ascending.
    pub fn devices(&self) -> Vec<DeviceId> {
        let mut devs: Vec<DeviceId> = self.streams.iter().map(|s| s.placement.device).collect();
        devs.sort_unstable();
        devs.dedup();
        devs
    }

    /// Render a human-readable listing of the program, one block per
    /// stream — the runtime's analogue of a disassembly, used in debugging
    /// and docs.
    pub fn dump(&self) -> String {
        self.render(None)
    }

    /// Like [`Program::dump`], but with each analyzer finding interleaved
    /// under its offending action line, compiler-style:
    ///
    /// ```text
    /// stream s1 @ dev0#p1 (2 actions)
    ///   [  0] wait e1
    ///         ^ error[deadlock-cycle]: cross-stream wait cycle: ...
    /// ```
    ///
    /// Pass the report from [`analyze`](crate::check::analyze) (or
    /// [`Context::analyze`](crate::context::Context::analyze)) over this
    /// same program.
    pub fn dump_annotated(&self, report: &crate::check::CheckReport) -> String {
        self.render(Some(report))
    }

    fn render(&self, report: Option<&crate::check::CheckReport>) -> String {
        use std::collections::HashMap;
        let mut notes: HashMap<(usize, usize), Vec<&crate::check::Diagnostic>> = HashMap::new();
        if let Some(r) = report {
            for d in &r.diagnostics {
                notes
                    .entry((d.site.stream.0, d.site.action_index))
                    .or_default()
                    .push(d);
            }
        }
        let mut out = String::new();
        for (si, s) in self.streams.iter().enumerate() {
            out.push_str(&format!(
                "stream {} @ {}#p{} ({} actions)\n",
                s.id,
                s.placement.device,
                s.placement.partition,
                s.actions.len()
            ));
            for (i, a) in s.actions.iter().enumerate() {
                out.push_str(&format!("  [{i:>3}] {}\n", a.label()));
                // Diagnostic sites index streams by *position* (the
                // analyzer enumerates), not by declared id — the two
                // differ for relocated tenant parts, where ids are
                // rebased into merged coordinates. Key the lookup the
                // same way the sites were built.
                if let Some(ds) = notes.get(&(si, i)) {
                    for d in ds {
                        out.push_str(&format!("        ^ {}\n", d.render()));
                    }
                }
            }
        }
        out.push_str(&format!(
            "{} streams, {} actions, {} events, {} barriers\n",
            self.streams.len(),
            self.action_count(),
            self.events.len(),
            self.barriers
        ));
        if let Some(r) = report {
            out.push_str(&format!(
                "check: {} error(s), {} warning(s)\n",
                r.error_count(),
                r.warnings().count()
            ));
        }
        out
    }

    // ----- mutation-safe editing -------------------------------------------
    //
    // The fuzzer and the test tooling edit recorded programs structurally.
    // The invariant these accessors preserve is the events table: every
    // `EventSite` keeps pointing at its `RecordEvent` action as actions
    // shift around it, and removing a record cascades to its waits so the
    // program never references a dangling event. Barrier completeness
    // (`validate()`'s all-streams rule) is the caller's to maintain —
    // barriers are a whole-program construct, not a per-stream edit.

    /// Whether the events table agrees with the event action at `(stream,
    /// index)` (stream by position): a `RecordEvent(e)` sits exactly at
    /// `events[e]`, a `WaitEvent(e)`'s `events[e]` holds a `RecordEvent(e)`.
    /// The editing accessors below keep this; a hand-built program may
    /// not, and then the happens-before graph (which follows the table)
    /// and the actions disagree — [`Program::validate`] refuses it.
    pub(crate) fn event_site_matches(&self, stream: usize, index: usize) -> bool {
        let at = |s: usize, i: usize| self.streams.get(s).and_then(|s| s.actions.get(i));
        let site = |e: &EventId| self.events.get(e.0).map(|t| (t.stream.0, t.action_index));
        match at(stream, index) {
            Some(Action::RecordEvent(e)) => site(e) == Some((stream, index)),
            Some(Action::WaitEvent(e)) => site(e)
                .is_some_and(|(s, i)| matches!(at(s, i), Some(Action::RecordEvent(x)) if x == e)),
            _ => true,
        }
    }

    /// Re-point event sites in `stream` after an insertion (`delta = +1`)
    /// or removal (`delta = -1`) at `index`. For removals the site *at*
    /// `index` must already be gone from the table.
    fn shift_event_sites(&mut self, stream: StreamId, index: usize, delta: isize) {
        for site in &mut self.events {
            let moved = site.stream == stream
                && if delta > 0 {
                    site.action_index >= index
                } else {
                    site.action_index > index
                };
            if moved {
                site.action_index = site.action_index.wrapping_add_signed(delta);
            }
        }
    }

    /// Insert `action` at `index` in `stream`'s queue, keeping the events
    /// table pointing at the right sites.
    ///
    /// # Panics
    /// On an out-of-range stream or index (like `Vec::insert`), and on a
    /// [`Action::RecordEvent`] — records allocate table entries, use
    /// [`Program::insert_record_event`]. A `WaitEvent` is fine here; it is
    /// the caller's job that the event exists (`validate()` checks).
    pub fn insert_action(&mut self, stream: StreamId, index: usize, action: Action) {
        assert!(
            !matches!(action, Action::RecordEvent(_)),
            "insert RecordEvent via Program::insert_record_event"
        );
        self.shift_event_sites(stream, index, 1);
        self.streams[stream.0].actions.insert(index, action);
    }

    /// Insert a fresh `RecordEvent` at `index` in `stream`'s queue and
    /// register it in the events table. Returns the new event's id.
    ///
    /// # Panics
    /// On an out-of-range stream or index.
    pub fn insert_record_event(&mut self, stream: StreamId, index: usize) -> EventId {
        let event = EventId(self.events.len());
        self.shift_event_sites(stream, index, 1);
        self.streams[stream.0]
            .actions
            .insert(index, Action::RecordEvent(event));
        self.events.push(EventSite {
            stream,
            action_index: index,
        });
        event
    }

    /// Remove the action at `index` in `stream` and return it, keeping the
    /// events table consistent. Removing a `RecordEvent` **cascades**: every
    /// `WaitEvent` on it (in any stream) is removed too, the event leaves
    /// the table, and higher event ids are renumbered down — so the result
    /// still satisfies `validate()`'s event rules.
    ///
    /// # Panics
    /// On an out-of-range stream or index (like `Vec::remove`).
    pub(crate) fn remove_action(&mut self, stream: StreamId, index: usize) -> Action {
        let removed = self.streams[stream.0].actions.remove(index);
        if let Action::RecordEvent(e) = removed {
            // The record's own site leaves the table before the shift so
            // `shift_event_sites`'s strict `>` never misses it.
            self.events.remove(e.0);
            self.shift_event_sites(stream, index, -1);
            // Cascade: drop every wait on the now-gone event.
            for si in 0..self.streams.len() {
                let mut ai = 0;
                while ai < self.streams[si].actions.len() {
                    if matches!(self.streams[si].actions[ai], Action::WaitEvent(x) if x == e) {
                        self.streams[si].actions.remove(ai);
                        self.shift_event_sites(StreamId(si), ai, -1);
                    } else {
                        ai += 1;
                    }
                }
            }
            // Renumber the ids above the removed slot.
            for s in &mut self.streams {
                for a in &mut s.actions {
                    if let Action::RecordEvent(x) | Action::WaitEvent(x) = a {
                        if x.0 > e.0 {
                            x.0 -= 1;
                        }
                    }
                }
            }
        } else {
            self.shift_event_sites(stream, index, -1);
        }
        removed
    }

    /// Remove event `e` entirely: its `RecordEvent`, every wait on it, and
    /// its table entry (with renumbering) — [`Program::remove_action`] at
    /// the record site.
    ///
    /// # Panics
    /// On an unknown event id.
    pub(crate) fn remove_event(&mut self, e: EventId) -> Action {
        let site = self.events[e.0];
        self.remove_action(site.stream, site.action_index)
    }

    /// Validate cross-stream structure:
    ///
    /// * every `WaitEvent` references a recorded event;
    /// * no stream waits on an event it records itself (deadlock);
    /// * the events table agrees with the event actions: a record sits at
    ///   its own table entry, and a wait's entry holds its record (the
    ///   happens-before graph's event edges follow the table);
    /// * every kernel's read/write sets are disjoint;
    /// * every stream contains the same barrier sequence `0..barriers`
    ///   (the context API enforces this by construction; executors rely
    ///   on it for their barrier implementations).
    pub fn validate(&self) -> Result<()> {
        for (si, s) in self.streams.iter().enumerate() {
            let mut barrier_cursor = 0usize;
            for (ai, action) in s.actions.iter().enumerate() {
                match action {
                    Action::WaitEvent(e) => {
                        let site = self.events.get(e.0).ok_or(Error::UnknownEvent(*e))?;
                        if site.stream == s.id {
                            return Err(Error::InvalidEventWait {
                                stream: s.id,
                                event: *e,
                            });
                        }
                        if !self.event_site_matches(si, ai) {
                            return Err(Error::UnknownEvent(*e));
                        }
                    }
                    Action::RecordEvent(e) => {
                        if !self.event_site_matches(si, ai) {
                            return Err(Error::UnknownEvent(*e));
                        }
                    }
                    Action::Kernel(k) => k.validate()?,
                    Action::Barrier(n) => {
                        if *n != barrier_cursor {
                            return Err(Error::Config(format!(
                                "stream {} sees barrier #{n}, expected #{barrier_cursor}",
                                s.id
                            )));
                        }
                        barrier_cursor += 1;
                    }
                    Action::Transfer { .. } => {}
                }
            }
            if barrier_cursor != self.barriers {
                return Err(Error::Config(format!(
                    "stream {} participates in {barrier_cursor} of {} barriers",
                    s.id, self.barriers
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::types::EventId;
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

    #[test]
    fn counting_and_device_queries() {
        let mut p = Program::default();
        p.streams.push(stream(
            0,
            vec![Action::Transfer {
                dir: Direction::HostToDevice,
                buf: crate::types::BufId(0),
            }],
        ));
        p.streams.push(StreamRecord {
            id: StreamId(1),
            placement: StreamPlacement {
                device: DeviceId(1),
                partition: 0,
            },
            actions: vec![],
        });
        assert_eq!(p.action_count(), 1);
        assert_eq!(p.devices(), vec![DeviceId(0), DeviceId(1)]);
    }

    #[test]
    fn dump_lists_streams_and_actions() {
        let mut p = Program::default();
        p.streams.push(stream(
            0,
            vec![
                Action::Transfer {
                    dir: Direction::HostToDevice,
                    buf: crate::types::BufId(3),
                },
                Action::Barrier(0),
            ],
        ));
        p.barriers = 1;
        let text = p.dump();
        assert!(text.contains("stream s0"));
        assert!(text.contains("h2d b3"));
        assert!(text.contains("barrier#0"));
        assert!(text.contains("1 streams, 2 actions, 0 events, 1 barriers"));
    }

    #[test]
    fn wait_on_unknown_event_rejected() {
        let mut p = Program::default();
        p.streams
            .push(stream(0, vec![Action::WaitEvent(EventId(0))]));
        assert!(matches!(p.validate(), Err(Error::UnknownEvent(_))));
    }

    #[test]
    fn an_events_table_that_disagrees_with_the_actions_is_rejected() {
        let h2d = || Action::Transfer {
            dir: Direction::HostToDevice,
            buf: crate::types::BufId(0),
        };
        let site = |s: usize, i: usize| EventSite {
            stream: StreamId(s),
            action_index: i,
        };
        // (what, the streams' actions, the table, the event refused).
        let rows = [
            (
                "a record slid off its table entry",
                vec![vec![h2d(), Action::RecordEvent(EventId(0))], vec![]],
                vec![site(0, 0)],
                EventId(0),
            ),
            (
                "a table entry that points at a non-record",
                vec![vec![Action::RecordEvent(EventId(0)), h2d()], vec![]],
                vec![site(0, 1)],
                EventId(0),
            ),
            (
                "a wait whose event's site is not a record",
                vec![
                    vec![Action::WaitEvent(EventId(0))],
                    vec![h2d(), Action::RecordEvent(EventId(0))],
                ],
                vec![site(1, 0)],
                EventId(0),
            ),
            (
                "a wait whose event's site is another event's record",
                vec![
                    vec![Action::WaitEvent(EventId(1))],
                    vec![
                        Action::RecordEvent(EventId(0)),
                        Action::RecordEvent(EventId(1)),
                    ],
                ],
                vec![site(1, 0), site(1, 0)],
                EventId(1),
            ),
        ];
        for (what, actions, events, refused) in rows {
            let mut p = Program::default();
            for (i, actions) in actions.into_iter().enumerate() {
                p.streams.push(stream(i, actions));
            }
            p.events = events;
            assert!(
                matches!(p.validate(), Err(Error::UnknownEvent(e)) if e == refused),
                "{what}: {:?}",
                p.validate()
            );
        }
    }

    #[test]
    fn self_wait_rejected() {
        let mut p = Program::default();
        p.streams.push(stream(
            0,
            vec![
                Action::RecordEvent(EventId(0)),
                Action::WaitEvent(EventId(0)),
            ],
        ));
        p.events.push(EventSite {
            stream: StreamId(0),
            action_index: 0,
        });
        assert!(matches!(p.validate(), Err(Error::InvalidEventWait { .. })));
    }

    #[test]
    fn cross_stream_wait_accepted() {
        let mut p = Program::default();
        p.streams
            .push(stream(0, vec![Action::RecordEvent(EventId(0))]));
        p.streams
            .push(stream(1, vec![Action::WaitEvent(EventId(0))]));
        p.events.push(EventSite {
            stream: StreamId(0),
            action_index: 0,
        });
        p.validate().unwrap();
    }

    #[test]
    fn mutual_cross_stream_wait_passes_validate_but_fails_the_analyzer() {
        // Regression for the hole in `validate()`: stream 0 waits on an
        // event stream 1 records only after waiting on stream 0's event.
        // Both executors would deadlock, yet the shallow structural pass
        // accepts it — the deadlock detection lives in `crate::check`,
        // which subsumes this case (and executors run it by default).
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
        p.validate().unwrap();
        let env = crate::check::CheckEnv::permissive(&p);
        let analysis = crate::check::analyze(&p, &env);
        assert!(
            analysis
                .report
                .errors()
                .any(|d| d.code == crate::check::CheckCode::DeadlockCycle),
            "{}",
            analysis.report.render()
        );
    }

    #[test]
    fn dump_annotated_interleaves_diagnostics() {
        let mut p = Program::default();
        p.streams
            .push(stream(0, vec![Action::WaitEvent(EventId(3))]));
        let env = crate::check::CheckEnv::permissive(&p);
        let analysis = crate::check::analyze(&p, &env);
        let text = p.dump_annotated(&analysis.report);
        let lines: Vec<&str> = text.lines().collect();
        let wait_line = lines
            .iter()
            .position(|l| l.contains("wait e3"))
            .expect("action line");
        assert!(
            lines[wait_line + 1].contains("^ error[unknown-event]"),
            "annotation follows the offending line:\n{text}"
        );
        assert!(text.ends_with("check: 1 error(s), 0 warning(s)\n"));
        // The plain dump stays annotation-free.
        assert!(!p.dump().contains('^'));
    }

    #[test]
    fn insert_and_remove_keep_event_sites_pointed_at_their_records() {
        // s0: h2d b0, record e0 ; s1: wait e0.
        let mut p = Program::default();
        p.streams.push(stream(
            0,
            vec![
                Action::Transfer {
                    dir: Direction::HostToDevice,
                    buf: crate::types::BufId(0),
                },
                Action::RecordEvent(EventId(0)),
            ],
        ));
        p.streams
            .push(stream(1, vec![Action::WaitEvent(EventId(0))]));
        p.events.push(EventSite {
            stream: StreamId(0),
            action_index: 1,
        });
        p.validate().unwrap();

        // Inserting before the record shifts its site.
        p.insert_action(
            StreamId(0),
            0,
            Action::Transfer {
                dir: Direction::HostToDevice,
                buf: crate::types::BufId(1),
            },
        );
        assert_eq!(p.events[0].action_index, 2);
        p.validate().unwrap();

        // Removing before the record shifts it back.
        p.remove_action(StreamId(0), 0);
        assert_eq!(p.events[0].action_index, 1);
        p.validate().unwrap();

        // A second record inserted *before* the first renumbers nothing
        // (fresh id) but shifts the existing site.
        let e1 = p.insert_record_event(StreamId(0), 0);
        assert_eq!(e1, EventId(1));
        assert_eq!(p.events[0].action_index, 2);
        assert_eq!(p.events[1].action_index, 0);
        p.validate().unwrap();
    }

    #[test]
    fn removing_a_record_cascades_to_waits_and_renumbers() {
        // Two events; the waiter waits on both; remove event 0's record.
        let mut p = Program::default();
        p.streams.push(stream(
            0,
            vec![
                Action::RecordEvent(EventId(0)),
                Action::RecordEvent(EventId(1)),
            ],
        ));
        p.streams.push(stream(
            1,
            vec![Action::WaitEvent(EventId(0)), Action::WaitEvent(EventId(1))],
        ));
        p.events.push(EventSite {
            stream: StreamId(0),
            action_index: 0,
        });
        p.events.push(EventSite {
            stream: StreamId(0),
            action_index: 1,
        });
        p.validate().unwrap();

        let removed = p.remove_event(EventId(0));
        assert!(matches!(removed, Action::RecordEvent(EventId(0))));
        // Event 1 became event 0 everywhere.
        assert_eq!(p.events.len(), 1);
        assert_eq!(p.events[0].action_index, 0);
        assert_eq!(p.streams[1].actions.len(), 1);
        assert!(matches!(
            p.streams[1].actions[0],
            Action::WaitEvent(EventId(0))
        ));
        assert!(matches!(
            p.streams[0].actions[0],
            Action::RecordEvent(EventId(0))
        ));
        p.validate().unwrap();
    }

    #[test]
    fn barrier_sequence_must_be_complete_and_ordered() {
        let mut p = Program {
            barriers: 2,
            ..Default::default()
        };
        p.streams
            .push(stream(0, vec![Action::Barrier(0), Action::Barrier(1)]));
        p.streams.push(stream(1, vec![Action::Barrier(0)]));
        // Stream 1 misses barrier #1.
        assert!(matches!(p.validate(), Err(Error::Config(_))));

        let mut good = Program {
            barriers: 1,
            ..Default::default()
        };
        good.streams.push(stream(0, vec![Action::Barrier(0)]));
        good.streams.push(stream(1, vec![Action::Barrier(0)]));
        good.validate().unwrap();
    }
}
