//! hBench — the paper's microbenchmark (`B[i] = A[i] + α`).
//!
//! Three program builders, one per microbenchmark experiment:
//!
//! * [`transfer_program`] — Fig. 5: `hd` H2D blocks and `dh` D2H blocks on
//!   two streams, exposing whether the link serializes the directions;
//! * [`overlap_program`] — Fig. 6: fixed 16 MiB arrays each way, kernel
//!   iterations swept, in four variants (`Data`, `Kernel`, `DataKernel`,
//!   `Streamed`);
//! * [`partition_program`] — Fig. 7: 128 resident blocks, kernels only,
//!   swept over the partition count, plus the non-tiled `ref` variant.
//!
//! The two tiled pipelines, Fig. 6's streamed one and Fig. 7's kernels-only
//! one, are recorded by one function, `record_tiles`, over tiles from
//! `alloc_tiles`; the tuner's `TunableHbench` and `TunablePartitionMicro`
//! record the same programs through them.

use std::cell::RefCell;
use std::fmt::Display;
use std::iter;
use std::sync::Arc;

use hstreams::context::Context;
use hstreams::kernel::{KernelDesc, KernelFn};
use hstreams::types::{BufId, Result};
use hstreams::InlineStr;
use micsim::PlatformConfig;

use crate::profiles;
use crate::util::split_ranges;

/// α used by the kernel (any non-zero constant; visible in native output).
pub const ALPHA: f32 = 2.5;

/// Element-iteration work of `elems` elements iterated `iters` times.
fn kernel_work(elems: usize, iters: usize) -> f64 {
    elems as f64 * iters as f64
}

/// The hBench kernel's native body, `B[i] = A[i] + α` `iters` times, for
/// tiles of any length: build it once and share it with [`kernel_with`].
pub fn body(iters: usize) -> KernelFn {
    Arc::new(move |k| {
        let a = k.reads[0];
        let b = &mut k.writes[0];
        let threads = k.threads;
        hstreams::parallel::par_chunks_mut(b, threads, |_, offset, chunk| {
            for (i, out) in chunk.iter_mut().enumerate() {
                let mut v = a[offset + i];
                for _ in 0..iters {
                    v += ALPHA;
                }
                *out = v;
            }
        });
    })
}

/// The hBench kernel over `elems` elements with a shared native `body`
/// (built by [`body`] for the same `iters`).
pub fn kernel_with(
    label: impl Into<InlineStr>,
    elems: usize,
    iters: usize,
    body: &KernelFn,
) -> KernelDesc {
    KernelDesc::simulated(label, profiles::hbench(), kernel_work(elems, iters))
        .with_body(body.clone())
}

thread_local! {
    /// The last body [`kernel`] built on this thread, with its `iters`.
    static BODY: RefCell<Option<(usize, KernelFn)>> = const { RefCell::new(None) };
}

/// The hBench kernel, `B[i] = A[i] + α` `iters` times: launches recorded
/// on one thread with the same `iters` share one native body.
pub fn kernel(label: impl Into<InlineStr>, elems: usize, iters: usize) -> KernelDesc {
    BODY.with_borrow_mut(|cached| {
        let shared = match cached {
            Some((n, shared)) if *n == iters => shared,
            _ => &cached.insert((iters, body(iters))).1,
        };
        kernel_with(label, elems, iters, shared)
    })
}

/// Serial reference of the kernel.
pub fn reference(a: &[f32], iters: usize) -> Vec<f32> {
    a.iter().map(|&x| x + ALPHA * iters as f32).collect()
}

/// One tile of an hBench pipeline: its input and output buffers and length.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tile {
    /// Input `A`.
    pub(crate) a: BufId,
    /// Output `B`.
    pub(crate) b: BufId,
    /// Elements in each.
    pub(crate) elems: usize,
}

/// Allocate one tile `(A{tag}{i}, B{tag}{i})` per length in `lens`,
/// writing the next `len` elements of `data` into its `A` when given.
pub(crate) fn alloc_tiles(
    ctx: &mut Context,
    tag: &dyn Display,
    lens: impl IntoIterator<Item = usize>,
    data: Option<&[f32]>,
) -> Result<Vec<Tile>> {
    let lens = lens.into_iter();
    let mut tiles = Vec::with_capacity(lens.size_hint().0);
    let mut offset = 0;
    for (i, elems) in lens.enumerate() {
        let a = ctx.alloc(format_args!("A{tag}{i}"), elems);
        let b = ctx.alloc(format_args!("B{tag}{i}"), elems);
        if let Some(data) = data {
            ctx.write_host(a, &data[offset..offset + elems])?;
        }
        offset += elems;
        tiles.push(Tile { a, b, elems });
    }
    Ok(tiles)
}

/// Record the hBench pipeline over `tiles`, tile `i` on stream `i` mod the
/// stream count. `transfers: true` is Fig. 6's streamed pipeline, H2D →
/// kernel `hbench{i}` → D2H per tile; `false` is Fig. 7's kernels-only
/// pipeline over resident tiles, kernel `k{i}`.
pub(crate) fn record_tiles(
    ctx: &mut Context,
    tiles: &[Tile],
    iters: usize,
    body: &KernelFn,
    transfers: bool,
) -> Result<()> {
    let streams = ctx.stream_count();
    for (i, tile) in tiles.iter().enumerate() {
        let s = ctx.stream(i % streams)?;
        let kernel = if transfers {
            ctx.h2d(s, tile.a)?;
            kernel_with(format_args!("hbench{i}"), tile.elems, iters, body)
        } else {
            kernel_with(format_args!("k{i}"), tile.elems, iters, body)
        };
        ctx.kernel(s, kernel.reading([tile.a]).writing([tile.b]))?;
        if transfers {
            ctx.d2h(s, tile.b)?;
        }
    }
    Ok(())
}

/// Fig. 5 program: `hd` host→device blocks on stream 0 and `dh`
/// device→host blocks on stream 1, `block_bytes` each, no ordering between
/// them. On a serial link the makespan is proportional to `hd + dh`; on a
/// full-duplex link it is proportional to `max(hd, dh)`.
pub fn transfer_program(
    cfg: PlatformConfig,
    hd: usize,
    dh: usize,
    block_bytes: u64,
) -> Result<Context> {
    let mut ctx = Context::builder(cfg).partitions(2).build()?;
    let elems = (block_bytes / 4) as usize;
    let s0 = ctx.stream(0)?;
    let s1 = ctx.stream(1)?;
    for i in 0..hd {
        let b = ctx.alloc(format_args!("hd{i}"), elems);
        ctx.h2d(s0, b)?;
    }
    for i in 0..dh {
        let b = ctx.alloc(format_args!("dh{i}"), elems);
        ctx.d2h(s1, b)?;
    }
    Ok(ctx)
}

/// Which Fig. 6 variant to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverlapVariant {
    /// Transfers only: A host→device and B device→host.
    Data,
    /// Kernel only (data assumed resident).
    Kernel,
    /// Single stream: H2D, kernel, D2H, fully serial.
    DataKernel,
    /// Tiled over `tiles` tasks pipelined across the context's streams.
    Streamed {
        /// Number of tiles the arrays are split into.
        tiles: usize,
    },
}

/// Fig. 6 program: arrays A and B of `elems` f32 each, kernel iterated
/// `iters` times, in the requested variant. `partitions` sizes the context
/// for the `Streamed` variant (the paper uses 4); the single-stream
/// variants always run on the whole device, as in the paper.
pub fn overlap_program(
    cfg: PlatformConfig,
    elems: usize,
    iters: usize,
    partitions: usize,
    variant: OverlapVariant,
) -> Result<Context> {
    let partitions = match variant {
        OverlapVariant::Streamed { .. } => partitions,
        _ => 1,
    };
    let mut ctx = Context::builder(cfg).partitions(partitions).build()?;
    match variant {
        OverlapVariant::Data => {
            let a = ctx.alloc("A", elems);
            let b = ctx.alloc("B", elems);
            let s = ctx.stream(0)?;
            ctx.h2d(s, a)?;
            ctx.d2h(s, b)?;
        }
        OverlapVariant::Kernel => {
            let a = ctx.alloc("A", elems);
            let b = ctx.alloc("B", elems);
            let s = ctx.stream(0)?;
            ctx.kernel(s, kernel("hbench", elems, iters).reading([a]).writing([b]))?;
        }
        OverlapVariant::DataKernel => {
            let a = ctx.alloc("A", elems);
            let b = ctx.alloc("B", elems);
            let s = ctx.stream(0)?;
            ctx.h2d(s, a)?;
            ctx.kernel(s, kernel("hbench", elems, iters).reading([a]).writing([b]))?;
            ctx.d2h(s, b)?;
        }
        OverlapVariant::Streamed { tiles } => {
            let lens = split_ranges(elems, tiles).into_iter().map(|r| r.len());
            let tiles = alloc_tiles(&mut ctx, &"", lens, None)?;
            record_tiles(&mut ctx, &tiles, iters, &body(iters), true)?;
        }
    }
    Ok(ctx)
}

/// Fig. 7 program: `blocks` resident tiles of `block_elems` elements,
/// kernels only (the paper excludes transfer time here), `iters` iterations
/// each, round-robin over `partitions` streams. `tiled = false` builds the
/// `ref` bar instead: one kernel over the whole array on one partition.
pub fn partition_program(
    cfg: PlatformConfig,
    blocks: usize,
    block_elems: usize,
    iters: usize,
    partitions: usize,
    tiled: bool,
) -> Result<Context> {
    if !tiled {
        let mut ctx = Context::builder(cfg).partitions(1).build()?;
        let total = blocks * block_elems;
        let a = ctx.alloc("A", total);
        let b = ctx.alloc("B", total);
        let s = ctx.stream(0)?;
        ctx.kernel(s, kernel("ref", total, iters).reading([a]).writing([b]))?;
        return Ok(ctx);
    }
    let mut ctx = Context::builder(cfg).partitions(partitions).build()?;
    let tiles = alloc_tiles(&mut ctx, &"", iter::repeat_n(block_elems, blocks), None)?;
    record_tiles(&mut ctx, &tiles, iters, &body(iters), false)?;
    Ok(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::assert_close;

    #[test]
    fn native_kernel_matches_reference() {
        let elems = 1 << 12;
        let iters = 7;
        let ctx = overlap_program(
            PlatformConfig::phi_31sp(),
            elems,
            iters,
            2,
            OverlapVariant::Streamed { tiles: 4 },
        )
        .unwrap();
        // Fill the tile inputs, run natively, compare with the reference.
        let mut expected_all = Vec::new();
        let mut got_all = Vec::new();
        for t in 0..4 {
            let a = hstreams::BufId(t * 2);
            let data = crate::util::random_vec(t as u64, ctx.buffer(a).unwrap().len, -1.0, 1.0);
            ctx.write_host(a, &data).unwrap();
            expected_all.extend(reference(&data, iters));
        }
        ctx.run_native().unwrap();
        for t in 0..4 {
            let b = hstreams::BufId(t * 2 + 1);
            got_all.extend(ctx.read_host(b).unwrap());
        }
        assert_close(&got_all, &expected_all, 1e-4, "hbench native");
    }

    #[test]
    fn kernels_recorded_with_the_same_iters_share_one_body() {
        let body = |k: &KernelDesc| {
            k.native
                .clone()
                .expect("hBench kernels carry native bodies")
        };
        let (a, b, other) = (kernel("a", 64, 3), kernel("b", 128, 3), kernel("c", 64, 4));
        assert!(Arc::ptr_eq(&body(&a), &body(&b)));
        assert!(!Arc::ptr_eq(&body(&a), &body(&other)));
        // The cache has moved on to `iters` 4; `a` keeps its own body.
        let input = [1.0f32, -2.0];
        let mut out = [0.0f32; 2];
        body(&a)(&mut hstreams::kernel::KernelCtx {
            reads: &[&input],
            writes: &mut [&mut out],
            threads: 1,
        });
        assert_eq!(out, [1.0 + 3.0 * ALPHA, -2.0 + 3.0 * ALPHA]);
    }
}
