//! Program relocation: rebase a tenant's recorded [`Program`] into a
//! shared multi-tenant coordinate space.
//!
//! A tenant records against a private scratch context — stream ids start
//! at 0, buffer ids index its own allocations, partitions are *virtual*.
//! To run many tenants as **one** merged program on the shared serving
//! context, each program is relocated:
//!
//! * stream ids shift by a `stream_base` so merged ids stay contiguous
//!   positions (the [`Program`] invariant `id == index`);
//! * event ids shift by an `event_base`;
//! * every buffer reference is remapped through the tenant's private
//!   buffer table — a reference outside the table is an isolation error,
//!   so a relocated program *cannot name* another tenant's memory;
//! * virtual partitions map to the physical partitions of the tenant's
//!   lease. The map may **fold** (several virtual partitions onto one
//!   physical) — how a squeezed grant still runs, just with less
//!   parallelism;
//! * barriers are **lowered to events**: an executor barrier spans every
//!   stream of the merged program, which would couple tenants. Barrier
//!   `n` of a `k`-stream tenant becomes, on each stream `i`, one
//!   `RecordEvent` of its own barrier event followed by `WaitEvent`s on
//!   the other `k-1` streams' barrier events. Records precede waits in
//!   every stream, so the wait graph stays acyclic and the deadlock
//!   analyzer accepts the lowering.

use hstreams::action::Action;
use hstreams::program::{EventSite, Program, StreamPlacement, StreamRecord};
use hstreams::types::{BufId, Error, EventId, Result, StreamId};
use micsim::device::DeviceId;

/// Coordinate translation for one tenant within a merged program.
#[derive(Clone, Debug)]
pub struct TenantMap {
    /// First merged stream id assigned to this tenant.
    pub stream_base: usize,
    /// First merged event id assigned to this tenant.
    pub event_base: usize,
    /// Target device for every stream.
    pub device: DeviceId,
    /// `partition_map[v]` = physical partition for virtual partition `v`.
    /// Shorter maps fold: virtual `v` lands on `partition_map[v % len]`.
    pub partition_map: Vec<usize>,
    /// `buffer_map[local BufId.0]` = shared-context buffer. References
    /// outside this table are rejected — the isolation boundary.
    pub buffer_map: Vec<BufId>,
}

/// A tenant program rebased into merged coordinates.
#[derive(Clone, Debug)]
pub struct Relocated {
    /// Rebased streams, ids `stream_base ..`.
    pub streams: Vec<StreamRecord>,
    /// Rebased event sites, ids `event_base ..`: the original events
    /// first, then `barriers × k` synthesized barrier events.
    pub events: Vec<EventSite>,
    /// `index_map[local stream][local action index]` = action index in
    /// the rebased stream — how fault-injection sites and recovery
    /// coordinates translate between tenant-local and merged space.
    pub index_map: Vec<Vec<usize>>,
}

fn map_buf(map: &TenantMap, b: BufId) -> Result<BufId> {
    map.buffer_map.get(b.0).copied().ok_or_else(|| {
        Error::Config(format!(
            "relocation: buffer {b} is outside the tenant's table of {} buffers",
            map.buffer_map.len()
        ))
    })
}

/// Rebase `program` through `map`. The program must be
/// [valid](Program::validate) in its own coordinates.
///
/// # Errors
/// [`Error::Config`] when the program is invalid, references a buffer
/// outside the tenant's table, uses a virtual partition with an empty
/// partition map, or the map names no partitions at all.
pub fn relocate(program: &Program, map: &TenantMap) -> Result<Relocated> {
    program.validate()?;
    if map.partition_map.is_empty() {
        return Err(Error::Config(
            "relocation: empty partition map (tenant holds no lease)".to_string(),
        ));
    }
    let k = program.streams.len();
    let orig_events = program.events.len();
    // Merged id of the synthesized event for barrier `n` on local stream `i`.
    let barrier_event = |n: usize, i: usize| EventId(map.event_base + orig_events + n * k + i);

    let mut streams = Vec::with_capacity(k);
    let mut index_map: Vec<Vec<usize>> = Vec::with_capacity(k);
    // action_index of each barrier event's RecordEvent, filled during the
    // rewrite: barrier_sites[n * k + i].
    let mut barrier_sites = vec![0usize; program.barriers * k];

    for (i, s) in program.streams.iter().enumerate() {
        let mut actions = Vec::with_capacity(s.actions.len());
        let mut idx = Vec::with_capacity(s.actions.len());
        for a in &s.actions {
            idx.push(actions.len());
            match a {
                Action::Transfer { dir, buf } => actions.push(Action::Transfer {
                    dir: *dir,
                    buf: map_buf(map, *buf)?,
                }),
                Action::Kernel(desc) => {
                    let mut d = desc.clone();
                    for b in d.reads.iter_mut().chain(d.writes.iter_mut()) {
                        *b = map_buf(map, *b)?;
                    }
                    actions.push(Action::Kernel(d));
                }
                Action::RecordEvent(e) => {
                    actions.push(Action::RecordEvent(EventId(map.event_base + e.0)));
                }
                Action::WaitEvent(e) => {
                    actions.push(Action::WaitEvent(EventId(map.event_base + e.0)));
                }
                Action::Barrier(n) => {
                    barrier_sites[n * k + i] = actions.len();
                    actions.push(Action::RecordEvent(barrier_event(*n, i)));
                    for j in 0..k {
                        if j != i {
                            actions.push(Action::WaitEvent(barrier_event(*n, j)));
                        }
                    }
                }
            }
        }
        streams.push(StreamRecord {
            id: StreamId(map.stream_base + i),
            placement: StreamPlacement {
                device: map.device,
                partition: map.partition_map[s.placement.partition % map.partition_map.len()],
            },
            actions,
        });
        index_map.push(idx);
    }

    let mut events = Vec::with_capacity(orig_events + program.barriers * k);
    for site in &program.events {
        events.push(EventSite {
            stream: StreamId(map.stream_base + site.stream.0),
            action_index: index_map[site.stream.0][site.action_index],
        });
    }
    for n in 0..program.barriers {
        for i in 0..k {
            events.push(EventSite {
                stream: StreamId(map.stream_base + i),
                action_index: barrier_sites[n * k + i],
            });
        }
    }

    Ok(Relocated {
        streams,
        events,
        index_map,
    })
}

/// Concatenate relocated tenant programs into one merged [`Program`].
/// The inputs must have been relocated with contiguous, in-order
/// `stream_base` / `event_base` assignments (as
/// [`plan_bases`] produces).
#[must_use]
pub fn merge(parts: Vec<Relocated>) -> Program {
    let mut program = Program::default();
    for part in parts {
        program.streams.extend(part.streams);
        program.events.extend(part.events);
    }
    program
}

/// Assign contiguous `(stream_base, event_base)` pairs for a batch of
/// programs, in order. Each program's event span accounts for the barrier
/// events its relocation will synthesize.
#[must_use]
pub fn plan_bases(programs: &[&Program]) -> Vec<(usize, usize)> {
    let mut bases = Vec::with_capacity(programs.len());
    let (mut s, mut e) = (0usize, 0usize);
    for p in programs {
        bases.push((s, e));
        s += p.streams.len();
        e += p.events.len() + p.barriers * p.streams.len();
    }
    bases
}

#[cfg(test)]
mod tests {
    use super::*;
    use hstreams::testutil::mix_kernel;
    use micsim::pcie::Direction;

    /// Two-stream tenant: h2d, kernel, barrier, kernel, d2h per stream,
    /// plus one explicit cross-stream event.
    fn tenant_program() -> Program {
        let mut p = Program::default();
        for i in 0..2usize {
            let a = BufId(i * 2);
            let b = BufId(i * 2 + 1);
            let actions = vec![
                Action::Transfer {
                    dir: Direction::HostToDevice,
                    buf: a,
                },
                Action::Kernel(mix_kernel(format!("k{i}a"), [a], [b], 10.0)),
                Action::Barrier(0),
                Action::Kernel(mix_kernel(format!("k{i}b"), [a], [b], 10.0)),
                Action::Transfer {
                    dir: Direction::DeviceToHost,
                    buf: b,
                },
            ];
            p.streams.push(StreamRecord {
                id: StreamId(i),
                placement: StreamPlacement {
                    device: DeviceId(0),
                    partition: i,
                },
                actions,
            });
        }
        // Stream 1 records event 0 after its first kernel; stream 0 waits.
        p.streams[1]
            .actions
            .insert(2, Action::RecordEvent(EventId(0)));
        p.streams[0]
            .actions
            .insert(2, Action::WaitEvent(EventId(0)));
        p.events.push(EventSite {
            stream: StreamId(1),
            action_index: 2,
        });
        p.barriers = 1;
        p.validate().unwrap();
        p
    }

    fn map(stream_base: usize, event_base: usize, parts: Vec<usize>) -> TenantMap {
        TenantMap {
            stream_base,
            event_base,
            device: DeviceId(0),
            partition_map: parts,
            buffer_map: (10..14).map(BufId).collect(),
        }
    }

    #[test]
    fn rebased_ids_buffers_and_placements() {
        let p = tenant_program();
        let r = relocate(&p, &map(3, 5, vec![6, 7])).unwrap();
        assert_eq!(r.streams[0].id, StreamId(3));
        assert_eq!(r.streams[1].id, StreamId(4));
        assert_eq!(r.streams[0].placement.partition, 6);
        assert_eq!(r.streams[1].placement.partition, 7);
        match &r.streams[0].actions[0] {
            Action::Transfer { buf, .. } => assert_eq!(*buf, BufId(10)),
            a => panic!("expected transfer, got {a:?}"),
        }
        // Explicit event 0 → merged id 5, recorded on merged stream 4.
        assert_eq!(r.events[0].stream, StreamId(4));
        match &r.streams[1].actions[2] {
            Action::RecordEvent(e) => assert_eq!(*e, EventId(5)),
            a => panic!("expected record, got {a:?}"),
        }
    }

    #[test]
    fn barrier_lowering_is_valid_and_acyclic() {
        let p = tenant_program();
        let r = relocate(&p, &map(0, 0, vec![0, 1])).unwrap();
        let merged = merge(vec![r]);
        merged.validate().unwrap();
        assert_eq!(merged.barriers, 0, "no executor barriers survive");
        // Each of the two streams gained: 1 record + 1 wait per barrier.
        let waits = merged.streams[0]
            .actions
            .iter()
            .filter(|a| matches!(a, Action::WaitEvent(_)))
            .count();
        assert_eq!(waits, 2, "original wait + one barrier wait");
        // The analyzer sees no deadlock in the lowered program.
        let env = hstreams::check::CheckEnv::permissive(&merged);
        let analysis = hstreams::check::analyze(&merged, &env);
        assert_eq!(
            analysis.report.errors().count(),
            0,
            "lowered barrier must not trip the analyzer: {:?}",
            analysis.report.diagnostics
        );
    }

    #[test]
    fn folded_partition_map_still_relocates() {
        let p = tenant_program();
        let r = relocate(&p, &map(0, 0, vec![5])).unwrap();
        assert!(r.streams.iter().all(|s| s.placement.partition == 5));
        assert!(relocate(&p, &map(0, 0, vec![])).is_err(), "no lease");
    }

    #[test]
    fn foreign_buffer_references_are_rejected() {
        let p = tenant_program();
        let mut m = map(0, 0, vec![0]);
        m.buffer_map.truncate(2); // program references BufId(3)
        let err = relocate(&p, &m).unwrap_err();
        assert!(
            err.to_string().contains("outside the tenant's table"),
            "{err}"
        );
    }

    #[test]
    fn index_map_translates_sites_across_the_lowering() {
        let p = tenant_program();
        let r = relocate(&p, &map(0, 0, vec![0, 1])).unwrap();
        // Stream 0 local actions: h2d, k0a, wait, barrier, k0b, d2h.
        // The barrier expands to 2 actions, so k0b shifts from 4 to 5.
        assert_eq!(r.index_map[0][4], 5);
        match &r.streams[0].actions[r.index_map[0][4]] {
            Action::Kernel(k) => assert_eq!(k.label, "k0a".replace('a', "b")),
            a => panic!("expected kernel, got {a:?}"),
        }
    }

    #[test]
    fn two_tenants_merge_into_one_valid_program() {
        let p = tenant_program();
        let bases = plan_bases(&[&p, &p]);
        assert_eq!(bases, vec![(0, 0), (2, 3)]);
        let parts = bases
            .iter()
            .enumerate()
            .map(|(t, &(s, e))| {
                let mut m = map(s, e, vec![t * 2, t * 2 + 1]);
                m.buffer_map = (t * 4..t * 4 + 4).map(BufId).collect();
                relocate(&p, &m).unwrap()
            })
            .collect();
        let merged = merge(parts);
        merged.validate().unwrap();
        assert_eq!(merged.streams.len(), 4);
        assert_eq!(merged.events.len(), 6, "1 explicit + 2 barrier events each");
    }
}
