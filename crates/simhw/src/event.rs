//! The discrete-event queue.
//!
//! A deterministic priority queue of `(time, sequence, payload)` entries.
//! Events at the same simulated instant pop in insertion order (FIFO
//! tie-break), which makes every simulation run reproducible regardless of
//! payload contents.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Monotone sequence number used for FIFO tie-breaking at equal timestamps.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct EventSeq(pub u64);

struct Entry<T> {
    at: SimTime,
    seq: EventSeq,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first, and invert
        // the sequence comparison to get FIFO among equal timestamps.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic time-ordered event queue.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    now: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue at time zero with room for `capacity` pending
    /// events before it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time — scheduling into the
    /// past is always a simulator bug, and failing fast beats silently
    /// reordering history.
    pub fn schedule(&mut self, at: SimTime, payload: T) -> EventSeq {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={:?} now={:?}",
            at,
            self.now
        );
        let seq = EventSeq(self.next_seq);
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
        seq
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "event queue went backwards");
        self.now = entry.at;
        Some((entry.at, entry.payload))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(42), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), ());
        q.schedule(SimTime(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(5));
        q.pop();
        assert_eq!(q.now(), SimTime(9));
        assert!(q.pop().is_none());
        assert_eq!(q.now(), SimTime(9), "clock holds after drain");
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(3), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO + SimDuration::from_micros(7), ());
        assert_eq!(q.peek_time(), Some(SimTime(7_000)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), 1);
        q.schedule(SimTime(40), 4);
        let (t, v) = q.pop().unwrap();
        assert_eq!((t, v), (SimTime(10), 1));
        // Schedule between the popped event and the pending one.
        q.schedule(SimTime(20), 2);
        q.schedule(SimTime(30), 3);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(rest, vec![2, 3, 4]);
    }
}
