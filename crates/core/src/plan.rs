//! Tiled-pipeline plan builders.
//!
//! Every application in the paper follows the same skeleton: partition the
//! dataset into `T` tiles, turn each tile into a task, and map tasks onto
//! streams round-robin. What differs is the *flow* (Fig. 4): overlappable
//! apps chain `H2D → EXE → D2H` per tile asynchronously; non-overlappable
//! apps put a device-wide barrier between stages. This module captures both
//! skeletons so applications only describe their tiles.

use crate::context::Context;
use crate::inline::BufList;
use crate::kernel::KernelDesc;
use crate::types::{BufId, Result, StreamId};

/// One tile's worth of work.
pub struct TileTask {
    /// Buffers to move host→device before the kernel.
    pub inputs: Vec<BufId>,
    /// The kernel.
    pub kernel: KernelDesc,
    /// Buffers to move device→host after the kernel.
    pub outputs: Vec<BufId>,
}

/// How tasks may interleave (the paper's overlappable/non-overlappable
/// distinction, Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowMode {
    /// `H2D → EXE → D2H` chained per tile inside its stream; different
    /// tiles pipeline freely (MM, CF, NN).
    Overlappable,
    /// Stage-synchronous: all H2D, barrier, all kernels, barrier, all D2H
    /// (Hotspot, Kmeans, SRAD).
    Staged,
}

/// Round-robin stream assignment for tile `index`.
fn stream_for_tile(ctx: &Context, index: usize) -> Result<StreamId> {
    ctx.stream(index % ctx.stream_count())
}

/// Enqueue `tasks` onto the context's streams per `mode`.
pub fn enqueue_tiles(ctx: &mut Context, tasks: Vec<TileTask>, mode: FlowMode) -> Result<()> {
    match mode {
        FlowMode::Overlappable => {
            for (i, task) in tasks.into_iter().enumerate() {
                let s = stream_for_tile(ctx, i)?;
                for b in &task.inputs {
                    ctx.h2d(s, *b)?;
                }
                ctx.kernel(s, task.kernel)?;
                for b in &task.outputs {
                    ctx.d2h(s, *b)?;
                }
            }
        }
        FlowMode::Staged => {
            let assignments: Vec<StreamId> = (0..tasks.len())
                .map(|i| stream_for_tile(ctx, i))
                .collect::<Result<_>>()?;
            for (task, s) in tasks.iter().zip(&assignments) {
                for b in &task.inputs {
                    ctx.h2d(*s, *b)?;
                }
            }
            ctx.barrier();
            let mut kernels: Vec<(StreamId, KernelDesc)> = tasks
                .into_iter()
                .zip(assignments.iter())
                .map(|(t, s)| (*s, t.kernel))
                .collect();
            let mut outs: Vec<(StreamId, BufList)> = Vec::new();
            for (s, kernel) in kernels.drain(..) {
                outs.push((s, kernel.writes.clone()));
                ctx.kernel(s, kernel)?;
            }
            ctx.barrier();
            for (s, bufs) in outs {
                for &b in &bufs {
                    ctx.d2h(s, b)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use micsim::compute::KernelProfile;
    use micsim::PlatformConfig;

    fn ctx(p: usize) -> Context {
        Context::builder(PlatformConfig::phi_31sp())
            .partitions(p)
            .build()
            .unwrap()
    }

    fn tile(ctx: &mut Context, i: usize) -> TileTask {
        let a = ctx.alloc(format!("in{i}"), 1024);
        let b = ctx.alloc(format!("out{i}"), 1024);
        TileTask {
            inputs: vec![a],
            kernel: KernelDesc::simulated(
                format!("k{i}"),
                KernelProfile::streaming("k", 0.32e9),
                1e7,
            )
            .reading([a])
            .writing([b]),
            outputs: vec![b],
        }
    }

    #[test]
    fn overlappable_flow_round_robins_streams() {
        let mut c = ctx(4);
        let tasks: Vec<_> = (0..8).map(|i| tile(&mut c, i)).collect();
        enqueue_tiles(&mut c, tasks, FlowMode::Overlappable).unwrap();
        // Each of the 4 streams gets 2 tiles x 3 actions.
        for s in &c.program().streams {
            assert_eq!(s.actions.len(), 6);
        }
        c.program().validate().unwrap();
        let report = c.run_sim().unwrap();
        assert!(report.overlap().overlap.nanos() > 0, "tiles must pipeline");
    }

    #[test]
    fn staged_flow_separates_stages() {
        let mut c = ctx(4);
        let tasks: Vec<_> = (0..4).map(|i| tile(&mut c, i)).collect();
        enqueue_tiles(&mut c, tasks, FlowMode::Staged).unwrap();
        assert_eq!(c.program().barriers, 2);
        c.program().validate().unwrap();
        let report = c.run_sim().unwrap();
        assert_eq!(
            report.overlap().overlap,
            micsim::SimDuration::ZERO,
            "staged flow must not overlap link and compute"
        );
    }

    #[test]
    fn staged_beats_nothing_but_matches_action_counts() {
        let mut c = ctx(2);
        let tasks: Vec<_> = (0..3).map(|i| tile(&mut c, i)).collect();
        enqueue_tiles(&mut c, tasks, FlowMode::Staged).unwrap();
        // 3 h2d + 3 kernels + 3 d2h + 2 barriers x 2 streams
        assert_eq!(c.program().action_count(), 9 + 4);
    }

    #[test]
    fn overlappable_faster_than_staged_for_same_tiles() {
        // The core temporal-sharing claim, at plan level.
        let makespan = |mode| {
            let mut c = ctx(4);
            let tasks: Vec<_> = (0..16).map(|i| tile(&mut c, i)).collect();
            enqueue_tiles(&mut c, tasks, mode).unwrap();
            c.run_sim().unwrap().makespan()
        };
        let over = makespan(FlowMode::Overlappable);
        let staged = makespan(FlowMode::Staged);
        assert!(
            over < staged,
            "overlappable {over:?} should beat staged {staged:?}"
        );
    }
}
