//! Multi-card data-residency tracking.
//!
//! On a platform with several cards, each card has its own memory: a tile
//! produced on card 0 must be transferred again before card 1 can read it
//! (the paper's Sec. VI observation that multi-MIC runs "need to transfer
//! more data blocks"). This module captures the bookkeeping every
//! distributed application needs:
//!
//! * which `(buffer, card)` pairs hold a current copy, and the event that
//!   fires when that copy is ready;
//! * demand-driven **mirroring**: when a consumer stream's card lacks a
//!   copy, enqueue the extra H2D on the consumer's own stream (FIFO gives
//!   local ordering) after waiting on the producer's event;
//! * single-writer invalidation: a new version on one card invalidates all
//!   other copies.
//!
//! The Cholesky application drives its whole tile DAG through this type;
//! see `mic_apps::cholesky`.
//!
//! The tracker assumes the program has no write-after-read hazards (a
//! buffer version that is read concurrently is never overwritten later) —
//! true for producer/consumer tile DAGs like CF and MM. Programs that
//! rewrite buffers that other streams still read must order those reads
//! with explicit events or barriers.

use std::collections::HashMap;

use crate::context::Context;
use crate::types::{BufId, Error, EventId, Result, StreamId};

/// Tracks, per `(buffer, card)`, the stream holding the current copy and
/// the event marking its readiness.
#[derive(Debug, Default)]
pub struct ResidencyTracker {
    ready: HashMap<(BufId, usize), (StreamId, EventId)>,
}

impl ResidencyTracker {
    /// Fresh tracker (nothing resident anywhere).
    ///
    /// ```
    /// use hstreams::{Context, ResidencyTracker};
    /// use micsim::PlatformConfig;
    /// let mut ctx = Context::builder(PlatformConfig::phi_31sp_multi(2))
    ///     .partitions(1)
    ///     .build()?;
    /// let mut tracker = ResidencyTracker::new();
    /// let buf = ctx.alloc("tile", 1024);
    /// let (s0, s1) = (ctx.stream(0)?, ctx.stream(1)?); // different cards
    /// ctx.h2d(s0, buf)?;
    /// tracker.produced(&mut ctx, buf, s0)?;
    /// // Reading from the other card mirrors the tile there.
    /// tracker.ensure_readable(&mut ctx, buf, s1)?;
    /// assert_eq!(tracker.copies(), 2);
    /// # Ok::<(), hstreams::Error>(())
    /// ```
    pub fn new() -> ResidencyTracker {
        ResidencyTracker::default()
    }

    /// Fresh tracker with room for `copies` live `(buffer, card)` copies
    /// before it allocates again — for a recording that knows how many
    /// buffers it will produce.
    pub fn with_capacity(copies: usize) -> ResidencyTracker {
        ResidencyTracker {
            ready: HashMap::with_capacity(copies),
        }
    }

    /// Number of live `(buffer, card)` copies.
    pub fn copies(&self) -> usize {
        self.ready.len()
    }

    /// Record that `stream` just produced a new version of `buf` (enqueue a
    /// `record_event` and invalidate all other cards' copies). Call this
    /// right after the producing action.
    pub fn produced(&mut self, ctx: &mut Context, buf: BufId, stream: StreamId) -> Result<EventId> {
        let e = ctx.record_event(stream)?;
        let dev = ctx.placement(stream)?.device.0;
        self.ready.retain(|&(b, _), _| b != buf);
        self.ready.insert((buf, dev), (stream, e));
        Ok(e)
    }

    /// Make `buf` readable from `stream`: wait on the producing event if it
    /// lives on another stream of the same card, or mirror it with an extra
    /// H2D if it only exists on another card.
    ///
    /// # Errors
    /// Returns [`Error::BufferNotProduced`] if `buf` was never
    /// [`produced`](Self::produced) — consuming a buffer before any producer
    /// is a program bug, reported as a typed error so tile generators (and
    /// the tuner driving them) can surface it instead of crashing.
    pub fn ensure_readable(
        &mut self,
        ctx: &mut Context,
        buf: BufId,
        stream: StreamId,
    ) -> Result<()> {
        let dev = ctx.placement(stream)?.device.0;
        if let Some(&(owner, e)) = self.ready.get(&(buf, dev)) {
            if owner != stream {
                ctx.wait_event(stream, e)?;
            }
            return Ok(());
        }
        // Not resident on this card: mirror from a resident copy. The
        // source is chosen deterministically (lowest owning stream id) —
        // HashMap iteration order varies between processes and would make
        // multi-card timelines nondeterministic.
        let src = self
            .ready
            .iter()
            .filter(|((b, _), _)| *b == buf)
            .map(|(_, &(owner, e))| (owner, e))
            .min_by_key(|&(owner, _)| owner)
            .ok_or(Error::BufferNotProduced { buf, stream })?;
        if src.0 != stream {
            ctx.wait_event(stream, src.1)?;
        }
        ctx.h2d(stream, buf)?;
        let e = ctx.record_event(stream)?;
        self.ready.insert((buf, dev), (stream, e));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelDesc;
    use micsim::compute::KernelProfile;
    use micsim::PlatformConfig;

    fn prof() -> KernelProfile {
        KernelProfile::streaming("k", 1e9)
    }

    #[test]
    fn same_card_consumers_wait_on_events_only() {
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .build()
            .unwrap();
        let mut tracker = ResidencyTracker::new();
        let b = ctx.alloc("b", 8);
        let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
        ctx.h2d(s0, b).unwrap();
        tracker.produced(&mut ctx, b, s0).unwrap();
        let actions_before = ctx.program().action_count();
        tracker.ensure_readable(&mut ctx, b, s1).unwrap();
        // One wait action, no extra transfer.
        assert_eq!(ctx.program().action_count(), actions_before + 1);
        assert_eq!(tracker.copies(), 1);
    }

    #[test]
    fn cross_card_consumers_trigger_a_mirror() {
        let mut ctx = Context::builder(PlatformConfig::phi_31sp_multi(2))
            .partitions(1)
            .build()
            .unwrap();
        let mut tracker = ResidencyTracker::new();
        let b = ctx.alloc("b", 1 << 20);
        let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
        assert_ne!(
            ctx.placement(s0).unwrap().device,
            ctx.placement(s1).unwrap().device
        );
        ctx.h2d(s0, b).unwrap();
        tracker.produced(&mut ctx, b, s0).unwrap();
        tracker.ensure_readable(&mut ctx, b, s1).unwrap();
        assert_eq!(tracker.copies(), 2, "a mirror copy now exists");
        // A second consumer on card 1 must NOT mirror again.
        let before = ctx.program().action_count();
        tracker.ensure_readable(&mut ctx, b, s1).unwrap();
        assert_eq!(ctx.program().action_count(), before, "same stream: free");
        // The program simulates: mirror transfer shows up on card 1's link.
        let report = ctx.run_sim().unwrap();
        let transfers = report
            .timeline
            .records
            .iter()
            .filter(|r| report.label(r).starts_with("h2d"))
            .count();
        assert_eq!(transfers, 2, "original + mirror");
    }

    #[test]
    fn new_version_invalidates_other_cards() {
        let mut ctx = Context::builder(PlatformConfig::phi_31sp_multi(2))
            .partitions(1)
            .build()
            .unwrap();
        let mut tracker = ResidencyTracker::new();
        let b = ctx.alloc("b", 64);
        let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
        ctx.h2d(s0, b).unwrap();
        tracker.produced(&mut ctx, b, s0).unwrap();
        tracker.ensure_readable(&mut ctx, b, s1).unwrap();
        assert_eq!(tracker.copies(), 2);
        // Card 1 writes a new version.
        ctx.kernel(s1, KernelDesc::simulated("w", prof(), 1.0).writing([b]))
            .unwrap();
        tracker.produced(&mut ctx, b, s1).unwrap();
        assert_eq!(tracker.copies(), 1, "card 0's copy is stale");
        // Card 0 reading again needs a fresh mirror.
        let before = ctx.program().action_count();
        tracker.ensure_readable(&mut ctx, b, s0).unwrap();
        assert!(ctx.program().action_count() > before);
        assert_eq!(tracker.copies(), 2);
    }

    #[test]
    fn consuming_unproduced_buffer_is_a_typed_error() {
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(1)
            .build()
            .unwrap();
        let mut tracker = ResidencyTracker::new();
        let b = ctx.alloc("b", 8);
        let s0 = ctx.stream(0).unwrap();
        let err = tracker.ensure_readable(&mut ctx, b, s0).unwrap_err();
        assert!(
            matches!(err, Error::BufferNotProduced { buf, stream } if buf == b && stream == s0),
            "{err}"
        );
        // The program is untouched: no half-recorded wait/transfer.
        assert_eq!(ctx.program().action_count(), 0);
        assert_eq!(tracker.copies(), 0);
    }
}
