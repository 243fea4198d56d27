//! Shared test-support machinery: program generators, deterministic
//! dual-face kernels, and a reference interpreter.
//!
//! Three consumers share this module so they agree on what a "random
//! well-synchronized program" is and on what the kernels in one compute:
//!
//! * the **proptest suites** (`proptest_check`, `proptest_sched`) generate
//!   programs with [`build_synced`] / [`build_chained`] and break them with
//!   [`drop_one_wait`];
//! * the **`stream-fuzz` crate** seeds its corpus from the same generators
//!   and replays mutated programs through both executors;
//! * the **differential harnesses** check executor output against
//!   [`RefExec`], the sequential reference interpreter, which executes
//!   [`mix_kernel`] bodies with bit-identical arithmetic.
//!
//! Everything here is deterministic: no wall clock, no global RNG —
//! streams of pseudo-randomness come from [`splitmix64`] over caller-held
//! seeds.
//!
//! The module ships in the library (rather than under `#[cfg(test)]`) so
//! integration tests and sibling crates can use it; it has no cost for
//! users who never call it.

use std::collections::BTreeMap;

use micsim::compute::KernelProfile;
use micsim::device::DeviceId;
use micsim::pcie::Direction;

use crate::action::Action;
use crate::buffer::Elem;
use crate::check::{Accesses, Site, Space};
use crate::kernel::{KernelCtx, KernelDesc};
use crate::program::{EventSite, Program, StreamPlacement, StreamRecord};
use crate::types::{BufId, EventId, StreamId};

// ---------------------------------------------------------------------------
// Deterministic bit mixing
// ---------------------------------------------------------------------------

/// The splitmix64 finalizer: a cheap, high-quality 64-bit mixer. This is
/// the only randomness primitive the test/fuzz machinery uses — feeding it
/// a seed and a counter yields a reproducible stream.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a string — stable label hashing for kernel salts.
pub fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// The checker's access table
// ---------------------------------------------------------------------------

/// One row of the checker's access table: `(buffer, space, site, write,
/// transfer)`, the space `None` for the host copy and `Some(d)` for device
/// `d`'s instance.
pub type AccessRow = (BufId, Option<usize>, Site, bool, bool);

/// The access table the static checker builds for `program`, in table
/// order: grouped by `(buffer, space)`, host before devices, program order
/// inside each group.
pub fn access_table(program: &Program) -> Vec<AccessRow> {
    Accesses::collect(program)
        .iter()
        .map(|a| {
            let space = match a.space {
                Space::Host => None,
                Space::Device(d) => Some(d),
            };
            (a.buf, space, a.site, a.write, a.transfer)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Deterministic dual-face kernels
// ---------------------------------------------------------------------------

/// One element of the mix kernel's output: a bounded, deterministic
/// function of the kernel salt, the write-slot index, the element index,
/// and the accumulated input value. Order-sensitive by design — executing
/// conflicting kernels in a different order produces different bits, which
/// is what lets race witnesses *observe* misordering.
fn mix_elem(salt: u64, write_idx: usize, elem_idx: usize, acc: Elem) -> Elem {
    let h = splitmix64(
        salt ^ ((write_idx as u64) << 48) ^ ((elem_idx as u64) << 16) ^ u64::from(acc.to_bits()),
    );
    ((h % 4096) as Elem) / 4096.0
}

/// The shared kernel semantics: for every write slot `w` and element `i`,
/// fold the current value and one element from each read slice into
/// [`mix_elem`]. Both the native kernel body and [`RefExec`] call exactly
/// this function, so their outputs are bit-comparable.
fn mix_into(salt: u64, reads: &[&[Elem]], writes: &mut [&mut [Elem]]) {
    for (wi, w) in writes.iter_mut().enumerate() {
        for i in 0..w.len() {
            let mut acc = w[i];
            for r in reads {
                if !r.is_empty() {
                    acc += r[i % r.len()];
                }
            }
            w[i] = mix_elem(salt, wi, i, acc);
        }
    }
}

/// Build a kernel with **both** faces: a streaming cost profile for the
/// simulator and a deterministic native body implementing `mix_into`
/// (salted by the label), so generated programs run on either executor and
/// on the reference interpreter with bit-identical results.
pub fn mix_kernel(
    label: impl Into<String>,
    reads: impl IntoIterator<Item = BufId>,
    writes: impl IntoIterator<Item = BufId>,
    work: f64,
) -> KernelDesc {
    let label = label.into();
    let salt = fnv64(&label);
    KernelDesc::simulated(label, KernelProfile::streaming("mix", 1e9), work)
        .reading(reads)
        .writing(writes)
        .with_native(move |kctx: &mut KernelCtx<'_>| mix_into(salt, kctx.reads, kctx.writes))
}

// ---------------------------------------------------------------------------
// Program generators (shared by proptests and the fuzzer's seed corpus)
// ---------------------------------------------------------------------------

/// Build the stream skeleton: `n_streams` streams on device 0, stream `i`
/// placed on partition `i % partitions`.
pub fn stream_skeleton(n_streams: usize, partitions: usize) -> Program {
    let mut p = Program::default();
    for i in 0..n_streams {
        p.streams.push(StreamRecord {
            id: StreamId(i),
            placement: StreamPlacement {
                device: DeviceId(0),
                partition: i % partitions.max(1),
            },
            actions: vec![],
        });
    }
    p
}

/// One producer/consumer conflict per entry: a fresh buffer uploaded,
/// **written by a producer kernel** and event-recorded on the producer
/// stream, then waited on and read by a consumer kernel that mixes it
/// into a private result buffer. Every cross-stream ordering flows
/// through exactly one wait, so each wait is load-bearing — and because
/// the producer writes nonzero bits and the consumer folds them into its
/// result, executing the pair in the wrong order changes observable
/// state (a [`RefExec`] fingerprint), not just the analyzer's verdict.
///
/// `conflicts[k] = (a, b)` picks producer `a % n_streams` and a consumer
/// distinct from it by construction. Conflict `k` uses buffer `k`, result
/// buffer `conflicts.len() + k` and event `k`. Kernels carry native
/// [`mix_kernel`] bodies, so the generated programs are executable, not
/// just analyzable.
pub fn build_synced(n_streams: usize, conflicts: &[(usize, usize)]) -> Program {
    let mut p = stream_skeleton(n_streams, n_streams);
    for (k, &(a, b)) in conflicts.iter().enumerate() {
        let producer = a % n_streams;
        // Distinct from the producer by construction.
        let consumer = (producer + 1 + b % (n_streams - 1)) % n_streams;
        let buf = BufId(k);
        let out = BufId(conflicts.len() + k);
        let event = EventId(k);
        p.streams[producer].actions.push(Action::Transfer {
            dir: Direction::HostToDevice,
            buf,
        });
        p.streams[producer].actions.push(Action::Kernel(mix_kernel(
            format!("w{k}"),
            [],
            [buf],
            1.0,
        )));
        p.events.push(EventSite {
            stream: StreamId(producer),
            action_index: p.streams[producer].actions.len(),
        });
        p.streams[producer].actions.push(Action::RecordEvent(event));
        p.streams[consumer].actions.push(Action::WaitEvent(event));
        p.streams[consumer].actions.push(Action::Kernel(mix_kernel(
            format!("r{k}"),
            [buf],
            [out],
            1.0,
        )));
    }
    p
}

/// Per-stream tile chains plus event-synchronized cross-stream conflicts —
/// the scheduler proptest's generator. `tiles[s]` private
/// `h2d -> kernel -> d2h` chains run on stream `s` (buffers `2i`/`2i+1`
/// below `chain_buf_limit`), then one conflict per entry of `conflicts`
/// with the same producer/consumer event pattern as [`build_synced`] but
/// a read-only consumer (buffers `chain_buf_limit..`).
///
/// Stream `s` is placed on partition `s % partitions`.
pub fn build_chained(
    tiles: &[usize],
    conflicts: &[(usize, usize)],
    partitions: usize,
    chain_buf_limit: usize,
) -> Program {
    let n_streams = tiles.len();
    let mut p = stream_skeleton(n_streams, partitions);
    let mut next_buf = 0usize;
    for (s, &n) in tiles.iter().enumerate() {
        for t in 0..n {
            let a = BufId(next_buf);
            let b = BufId(next_buf + 1);
            next_buf += 2;
            p.streams[s].actions.push(Action::Transfer {
                dir: Direction::HostToDevice,
                buf: a,
            });
            p.streams[s].actions.push(Action::Kernel(mix_kernel(
                format!("tile{s}_{t}"),
                [a],
                [b],
                1e7,
            )));
            p.streams[s].actions.push(Action::Transfer {
                dir: Direction::DeviceToHost,
                buf: b,
            });
        }
    }
    debug_assert!(next_buf <= chain_buf_limit, "tile chains overflow buffers");
    for (k, &(a, b)) in conflicts.iter().enumerate() {
        let producer = a % n_streams;
        let consumer = (producer + 1 + b % (n_streams - 1)) % n_streams;
        let buf = BufId(chain_buf_limit + k);
        let event = EventId(k);
        p.streams[producer].actions.push(Action::Transfer {
            dir: Direction::HostToDevice,
            buf,
        });
        p.events.push(EventSite {
            stream: StreamId(producer),
            action_index: p.streams[producer].actions.len(),
        });
        p.streams[producer].actions.push(Action::RecordEvent(event));
        p.streams[consumer].actions.push(Action::WaitEvent(event));
        p.streams[consumer].actions.push(Action::Kernel(mix_kernel(
            format!("use{k}"),
            [buf],
            [],
            1e7,
        )));
    }
    p
}

/// Remove the `pick`-th `WaitEvent` (in stream order) and re-point the
/// event table at the shifted `RecordEvent` sites so the program stays
/// structurally valid — only the synchronization edge is gone. Wraps
/// `Program::remove_action`. Panics if the program has no waits.
pub fn drop_one_wait(p: &Program, pick: usize) -> Program {
    let mut out = p.clone();
    let mut seen = 0usize;
    for s in 0..out.streams.len() {
        for i in 0..out.streams[s].actions.len() {
            if matches!(out.streams[s].actions[i], Action::WaitEvent(_)) {
                if seen == pick {
                    out.remove_action(StreamId(s), i);
                    return out;
                }
                seen += 1;
            }
        }
    }
    unreachable!("pick is always in range: one wait per conflict");
}

/// Multiset fingerprint of the non-control actions: scheduling may reorder
/// and re-home work, never change it.
pub fn work_fingerprint(p: &Program) -> Vec<String> {
    let mut work: Vec<String> = p
        .streams
        .iter()
        .flat_map(|s| s.actions.iter())
        .filter_map(|a| match a {
            Action::Transfer { dir, buf } => Some(format!("{dir:?} {buf:?}")),
            Action::Kernel(desc) => Some(format!("kernel {}", desc.label)),
            _ => None,
        })
        .collect();
    work.sort();
    work
}

// ---------------------------------------------------------------------------
// Reference interpreter
// ---------------------------------------------------------------------------

/// Why a stream's head action cannot execute in [`RefExec::run_fifo`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting on an event whose `RecordEvent` has not executed.
    EventNotFired(EventId),
    /// Waiting at a barrier other streams have not reached.
    BarrierIncomplete(usize),
}

/// A FIFO interpretation got stuck: every unfinished stream is blocked.
/// This is the runtime face of a checker deadlock verdict.
#[derive(Clone, Debug)]
pub struct Stuck {
    /// Each blocked stream's head site and why it cannot advance.
    pub frontier: Vec<(crate::check::Site, BlockReason)>,
    /// Actions executed before the interpretation wedged.
    pub executed: usize,
}

/// Sequential reference interpreter over a [`Program`]: models the host
/// memory space and one device space per card, executes transfers as
/// copies and kernels as `mix_into` with the same salts the native
/// bodies use. Two entry points:
///
/// * [`RefExec::run_fifo`] — round-robin FIFO with blocking waits and
///   barriers, the executors' semantics; detects stuck states (deadlock
///   witness validation);
/// * [`RefExec::run_order`] — execute actions in an explicit total order
///   (a linear extension of happens-before), used to demonstrate that two
///   HB-consistent schedules of a racy program reach different states.
///
/// Only kernels built by [`mix_kernel`] (or sharing its exact semantics)
/// interpret faithfully against the native executor; arbitrary native
/// bodies are opaque to the interpreter.
#[derive(Clone, Debug)]
pub struct RefExec {
    /// Host copy of each buffer.
    pub host: Vec<Vec<Elem>>,
    /// Device copies: `device[dev][buf]`.
    pub device: Vec<Vec<Vec<Elem>>>,
}

impl RefExec {
    /// Fresh zero-filled state for `lens[b]`-element buffers across
    /// `devices` cards.
    pub fn new(lens: &[usize], devices: usize) -> RefExec {
        RefExec {
            host: lens.iter().map(|&l| vec![0.0; l]).collect(),
            device: (0..devices.max(1))
                .map(|_| lens.iter().map(|&l| vec![0.0; l]).collect())
                .collect(),
        }
    }

    /// Execute one action of `program` at `site` against this state.
    /// Control actions (events, barriers) are value-level no-ops.
    fn exec_action(&mut self, program: &Program, site: crate::check::Site) {
        let stream = &program.streams[site.stream.0];
        let dev = stream.placement.device.0;
        match &stream.actions[site.action_index] {
            Action::Transfer {
                dir: Direction::HostToDevice,
                buf,
            } => {
                let src = self.host[buf.0].clone();
                self.device[dev][buf.0] = src;
            }
            Action::Transfer {
                dir: Direction::DeviceToHost,
                buf,
            } => {
                let src = self.device[dev][buf.0].clone();
                self.host[buf.0] = src;
            }
            Action::Kernel(desc) => {
                let salt = fnv64(&desc.label);
                let space: &mut Vec<Vec<Elem>> = if desc.host {
                    &mut self.host
                } else {
                    &mut self.device[dev]
                };
                // Snapshot reads (kernel read/write sets are disjoint by
                // `KernelDesc::validate`, but snapshotting keeps this
                // correct even for aliasing write slots).
                let reads: Vec<Vec<Elem>> = desc.reads.iter().map(|r| space[r.0].clone()).collect();
                let read_refs: Vec<&[Elem]> = reads.iter().map(Vec::as_slice).collect();
                let mut writes: Vec<Vec<Elem>> =
                    desc.writes.iter().map(|w| space[w.0].clone()).collect();
                let mut write_refs: Vec<&mut [Elem]> =
                    writes.iter_mut().map(Vec::as_mut_slice).collect();
                mix_into(salt, &read_refs, &mut write_refs);
                for (w, data) in desc.writes.iter().zip(writes) {
                    space[w.0] = data;
                }
            }
            Action::RecordEvent(_) | Action::WaitEvent(_) | Action::Barrier(_) => {}
        }
    }

    /// Execute `order` (a total order over every action site of
    /// `program`) and return the final state. The caller is responsible
    /// for `order` being happens-before-consistent; the interpreter
    /// executes it blindly — that is the point when demonstrating races.
    pub fn run_order(program: &Program, lens: &[usize], order: &[crate::check::Site]) -> RefExec {
        let devices = program
            .streams
            .iter()
            .map(|s| s.placement.device.0 + 1)
            .max()
            .unwrap_or(1);
        let mut state = RefExec::new(lens, devices);
        for &site in order {
            state.exec_action(program, site);
        }
        state
    }

    /// Round-robin FIFO interpretation with blocking waits and barriers —
    /// the executors' scheduling semantics, serialized. Returns the final
    /// state, or [`Stuck`] when no stream can advance (a deadlock made
    /// observable).
    pub fn run_fifo(program: &Program, lens: &[usize]) -> Result<RefExec, Stuck> {
        let devices = program
            .streams
            .iter()
            .map(|s| s.placement.device.0 + 1)
            .max()
            .unwrap_or(1);
        let mut state = RefExec::new(lens, devices);
        let mut cursor = vec![0usize; program.streams.len()];
        let mut fired = vec![false; program.events.len()];
        let mut executed = 0usize;
        loop {
            let mut progressed = false;
            let mut done = true;
            for (si, stream) in program.streams.iter().enumerate() {
                while cursor[si] < stream.actions.len() {
                    let ai = cursor[si];
                    match &stream.actions[ai] {
                        Action::WaitEvent(e) if !fired.get(e.0).copied().unwrap_or(false) => {
                            break;
                        }
                        Action::Barrier(n) => {
                            // A barrier opens once every stream that
                            // participates in barrier `n` has reached it.
                            let all_reached = program.streams.iter().enumerate().all(|(sj, t)| {
                                let pos = t
                                    .actions
                                    .iter()
                                    .position(|a| matches!(a, Action::Barrier(m) if m == n));
                                match pos {
                                    Some(p) => cursor[sj] >= p,
                                    None => true,
                                }
                            });
                            if !all_reached {
                                break;
                            }
                        }
                        Action::RecordEvent(e) if e.0 < fired.len() => {
                            fired[e.0] = true;
                        }
                        _ => {}
                    }
                    state.exec_action(program, crate::check::Site::new(si, ai));
                    cursor[si] += 1;
                    executed += 1;
                    progressed = true;
                }
                if cursor[si] < stream.actions.len() {
                    done = false;
                }
            }
            if done {
                return Ok(state);
            }
            if !progressed {
                let frontier = program
                    .streams
                    .iter()
                    .enumerate()
                    .filter(|(si, s)| cursor[*si] < s.actions.len())
                    .map(|(si, s)| {
                        let ai = cursor[si];
                        let reason = match &s.actions[ai] {
                            Action::WaitEvent(e) => BlockReason::EventNotFired(*e),
                            Action::Barrier(n) => BlockReason::BarrierIncomplete(*n),
                            _ => unreachable!("only waits and barriers block"),
                        };
                        (crate::check::Site::new(si, ai), reason)
                    })
                    .collect();
                return Err(Stuck { frontier, executed });
            }
        }
    }

    /// Bit-exact fingerprint of the full state (host and device spaces),
    /// for cheap divergence checks.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: &Vec<Elem>| {
            for x in v {
                h ^= u64::from(x.to_bits());
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for v in &self.host {
            eat(v);
        }
        for dev in &self.device {
            for v in dev {
                eat(v);
            }
        }
        h
    }

    /// The host copies as a map `BufId index -> bits`, for readable
    /// mismatch reports.
    pub fn host_bits(&self) -> BTreeMap<usize, Vec<u32>> {
        self.host
            .iter()
            .enumerate()
            .map(|(i, v)| (i, v.iter().map(|x| x.to_bits()).collect()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{analyze, CheckEnv};

    #[test]
    fn splitmix_and_fnv_are_stable() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(1), splitmix64(2));
        assert_eq!(fnv64("k"), fnv64("k"));
        assert_ne!(fnv64("k0"), fnv64("k1"));
    }

    #[test]
    fn build_synced_is_valid_and_clean() {
        let p = build_synced(3, &[(0, 0), (1, 1), (5, 3)]);
        p.validate().expect("generator emits valid programs");
        let env = CheckEnv::permissive(&p);
        let a = analyze(&p, &env);
        assert!(a.report.is_clean(), "{}", a.report.render());
    }

    #[test]
    fn build_chained_is_valid_and_clean() {
        let p = build_chained(&[2, 0, 1], &[(0, 0), (2, 1)], 2, 32);
        p.validate().expect("valid");
        let env = CheckEnv::permissive(&p);
        let a = analyze(&p, &env);
        assert!(a.report.is_clean(), "{}", a.report.render());
        assert_eq!(work_fingerprint(&p).len(), 3 * 3 + 2 * 2);
    }

    #[test]
    fn drop_one_wait_surfaces_a_race() {
        let p = build_synced(2, &[(0, 0)]);
        let broken = drop_one_wait(&p, 0);
        broken.validate().expect("still structurally valid");
        let a = analyze(&broken, &CheckEnv::permissive(&broken));
        assert!(!a.report.is_clean());
    }

    #[test]
    fn fifo_interpretation_of_clean_program_completes() {
        let p = build_synced(3, &[(0, 0), (1, 1)]);
        // Conflict buffers 0..2, result buffers 2..4.
        let lens = vec![8usize; 4];
        let state = RefExec::run_fifo(&p, &lens).expect("clean programs complete");
        // Producer kernels wrote nonzero bits the consumers folded into
        // their result buffers — the conflicts are value-carrying.
        assert_ne!(state.device[0][0], vec![0.0; 8]);
        assert_ne!(state.device[0][2], vec![0.0; 8]);
    }

    #[test]
    fn mutual_wait_program_gets_stuck() {
        let mut p = stream_skeleton(2, 2);
        p.streams[0].actions.push(Action::WaitEvent(EventId(1)));
        p.streams[0].actions.push(Action::RecordEvent(EventId(0)));
        p.streams[1].actions.push(Action::WaitEvent(EventId(0)));
        p.streams[1].actions.push(Action::RecordEvent(EventId(1)));
        p.events.push(EventSite {
            stream: StreamId(0),
            action_index: 1,
        });
        p.events.push(EventSite {
            stream: StreamId(1),
            action_index: 1,
        });
        let err = RefExec::run_fifo(&p, &[]).expect_err("mutual wait wedges");
        assert_eq!(err.frontier.len(), 2);
        assert_eq!(err.executed, 0);
    }

    #[test]
    fn interpreter_matches_itself_and_orders_matter_for_races() {
        // One buffer, two unordered writers with different salts: the two
        // serialization orders must produce different bits.
        let mut p = stream_skeleton(2, 2);
        p.streams[0]
            .actions
            .push(Action::Kernel(mix_kernel("w0", [], [BufId(0)], 1.0)));
        p.streams[1]
            .actions
            .push(Action::Kernel(mix_kernel("w1", [], [BufId(0)], 1.0)));
        let lens = vec![4usize];
        let ab = RefExec::run_order(
            &p,
            &lens,
            &[crate::check::Site::new(0, 0), crate::check::Site::new(1, 0)],
        );
        let ba = RefExec::run_order(
            &p,
            &lens,
            &[crate::check::Site::new(1, 0), crate::check::Site::new(0, 0)],
        );
        assert_ne!(
            ab.fingerprint(),
            ba.fingerprint(),
            "last-writer-wins must be observable"
        );
        // Same order twice → identical bits.
        let ab2 = RefExec::run_order(
            &p,
            &lens,
            &[crate::check::Site::new(0, 0), crate::check::Site::new(1, 0)],
        );
        assert_eq!(ab.fingerprint(), ab2.fingerprint());
    }

    #[test]
    fn barrier_blocks_until_all_participants_arrive() {
        let mut p = stream_skeleton(2, 2);
        p.barriers = 1;
        p.streams[0].actions.push(Action::Transfer {
            dir: Direction::HostToDevice,
            buf: BufId(0),
        });
        p.streams[0].actions.push(Action::Barrier(0));
        p.streams[1].actions.push(Action::Barrier(0));
        p.streams[1].actions.push(Action::Transfer {
            dir: Direction::DeviceToHost,
            buf: BufId(0),
        });
        p.validate().expect("valid barrier program");
        let state = RefExec::run_fifo(&p, &[4]).expect("completes");
        assert_eq!(state.host[0], vec![0.0; 4]);
    }
}
