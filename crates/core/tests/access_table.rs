//! Property test for the checker's access table: its counting sort orders
//! the accesses exactly as a stable comparison sort on `(buffer, space)`
//! would — the same rows, element for element, program order kept inside
//! every group.
//!
//! Programs are generated from a seed with [`splitmix64`]: streams on two
//! devices, H2D and D2H transfers, device and host kernels, and a small
//! buffer pool so that many streams touch the same buffers. The reference
//! lowers every action to its accesses independently of the checker and
//! sorts them with `sort_by_key`.

use hstreams::action::Action;
use hstreams::check::Site;
use hstreams::program::{Program, StreamPlacement, StreamRecord};
use hstreams::testutil::{access_table, mix_kernel, splitmix64, AccessRow};
use hstreams::types::{BufId, StreamId};
use micsim::device::DeviceId;
use micsim::pcie::Direction;

/// A random program of `seed`: 2–7 streams over two devices, up to 24
/// actions each, over a pool of 1–12 buffers.
fn random_program(seed: u64) -> Program {
    let mut state = seed;
    let mut next = |bound: u64| {
        state = splitmix64(state);
        state % bound
    };
    let streams = 2 + next(6) as usize;
    let pool = 1 + next(12) as usize;
    let mut program = Program::default();
    for s in 0..streams {
        let device = s % 2;
        let mut actions = Vec::new();
        for a in 0..next(25) {
            let buf = BufId(next(pool as u64) as usize);
            let action = match next(4) {
                0 => Action::Transfer {
                    dir: Direction::HostToDevice,
                    buf,
                },
                1 => Action::Transfer {
                    dir: Direction::DeviceToHost,
                    buf,
                },
                _ => {
                    // Disjoint reads and writes, drawn from the pool.
                    let mut reads = Vec::new();
                    let mut writes = Vec::new();
                    for b in 0..pool {
                        match next(5) {
                            0 => reads.push(BufId(b)),
                            1 => writes.push(BufId(b)),
                            _ => {}
                        }
                    }
                    let kernel = mix_kernel(format!("k{s}.{a}"), reads, writes, 1.0);
                    Action::Kernel(if next(3) == 0 {
                        kernel.on_host()
                    } else {
                        kernel
                    })
                }
            };
            actions.push(action);
        }
        program.streams.push(StreamRecord {
            id: StreamId(s),
            placement: StreamPlacement {
                device: DeviceId(device),
                partition: s / 2,
            },
            actions,
        });
    }
    program
}

/// The accesses of `program` in program order (stream by stream), each
/// action lowered as the checker defines it, then stably sorted by
/// `(buffer, space)`.
fn stable_sorted_accesses(program: &Program) -> Vec<AccessRow> {
    let mut rows = Vec::new();
    for (si, stream) in program.streams.iter().enumerate() {
        let device = Some(stream.placement.device.0);
        for (ai, action) in stream.actions.iter().enumerate() {
            let site = Site::new(si, ai);
            match action {
                Action::Transfer { dir, buf } => {
                    let (from, to) = match dir {
                        Direction::HostToDevice => (None, device),
                        Direction::DeviceToHost => (device, None),
                    };
                    rows.push((*buf, from, site, false, true));
                    rows.push((*buf, to, site, true, true));
                }
                Action::Kernel(k) => {
                    let space = if k.host { None } else { device };
                    for (buf, write) in k.accesses() {
                        rows.push((buf, space, site, write, false));
                    }
                }
                _ => {}
            }
        }
    }
    rows.sort_by_key(|&(buf, space, ..)| (buf, space));
    rows
}

#[test]
fn the_access_table_is_the_stable_sort_of_the_accesses() {
    let mut rows = 0;
    for seed in 0..400u64 {
        let program = random_program(splitmix64(0x5eed ^ seed));
        let want = stable_sorted_accesses(&program);
        assert_eq!(access_table(&program), want, "seed {seed}");
        rows += want.len();
    }
    // The generator is not degenerate: plenty of rows, shared groups.
    assert!(rows > 10_000, "{rows} rows");
}
