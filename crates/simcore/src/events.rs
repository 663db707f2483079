//! Deterministic discrete-event queue.
//!
//! [`EventQueue`] orders events by ascending timestamp and breaks ties by
//! insertion order (FIFO). Stable tie-breaking matters: simultaneous events
//! (e.g. a slice expiry and an arrival at the same nanosecond) must be
//! processed in a reproducible order for experiments to be bit-identical
//! across runs.
//!
//! The queue is a [`std::collections::BinaryHeap`] keyed by
//! `(time, insertion seq)`: O(log n) per operation, which is cheap at the
//! depths the simulator builds (the deepest measured queue held 118
//! events, on the 32-core `stream_io_smp` benchmark workload; see
//! ARCHITECTURE.md, "Event core and streaming stats").

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event scheduled at a [`SimTime`], carrying an arbitrary payload `E`.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event priority queue with deterministic ordering.
///
/// Events with equal timestamps pop in the order they were pushed.
///
/// # Example
/// ```
/// use sfs_simcore::{EventQueue, SimTime, SimDuration};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.push(SimTime::ZERO + SimDuration::from_millis(2), "second");
/// q.push(SimTime::ZERO + SimDuration::from_millis(1), "first");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(e, "first");
/// assert_eq!(t.as_millis_f64(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Remove and return the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.at, s.payload))
    }

    /// Remove and return the earliest event only if it fires at or before `t`.
    pub fn pop_until(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        match self.heap.peek() {
            Some(s) if s.at <= t => self.pop(),
            _ => None,
        }
    }

    /// Pop every event firing at or before `t` into `out` (in time/FIFO
    /// order), returning how many were popped.
    ///
    /// This is the peek-based batch fast path for hot simulation loops:
    /// one bound comparison per event against a reusable output buffer,
    /// instead of a peek + pop call pair per event with a fresh allocation
    /// per step. `out` is appended to, not cleared — callers reuse one
    /// buffer across iterations (drain-and-reuse) so steady-state batch
    /// popping performs zero allocations.
    ///
    /// Only safe when event handlers never schedule new events at or
    /// before `t`; otherwise the incremental [`EventQueue::pop_until`]
    /// loop must be used so late insertions are observed.
    pub fn pop_batch_until(&mut self, t: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        let before = out.len();
        while let Some(pair) = self.pop_until(t) {
            out.push(pair);
        }
        out.len() - before
    }

    /// Retained allocation of the queue, preserved across
    /// [`EventQueue::recycle`].
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Reset the queue for a fresh run while keeping its allocation: all
    /// pending events are dropped and the FIFO sequence counter restarts,
    /// so a recycled queue behaves exactly like a new one — minus the
    /// reallocation. Trial loops that simulate many runs back to back use
    /// this to keep the event structures warm.
    pub fn recycle(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(at(30), 3);
        q.push(at(10), 1);
        q.push(at(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(at(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_until_respects_bound() {
        let mut q = EventQueue::new();
        q.push(at(10), 1);
        q.push(at(20), 2);
        assert_eq!(q.pop_until(at(15)).map(|(_, e)| e), Some(1));
        assert_eq!(q.pop_until(at(15)), None);
        assert_eq!(q.pop_until(at(20)).map(|(_, e)| e), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(at(7), 0);
        assert_eq!(q.peek_time(), Some(at(7)));
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn batch_pop_matches_incremental_and_reuses_buffer() {
        let mut q = EventQueue::new();
        for i in 0..6 {
            q.push(at(10 * (i % 3) as u64), i);
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_until(at(10), &mut out), 4);
        let evs: Vec<i32> = out.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, vec![0, 3, 1, 4], "time order then FIFO within ties");
        // Appends without clearing: the same buffer accumulates.
        assert_eq!(q.pop_batch_until(at(100), &mut out), 2);
        assert_eq!(out.len(), 6);
        assert!(q.is_empty());
        assert_eq!(q.pop_batch_until(at(100), &mut out), 0);
    }

    #[test]
    fn recycle_keeps_capacity_and_restarts_fifo_numbering() {
        let mut q = EventQueue::with_capacity(64);
        for i in 0..50 {
            q.push(at(1), i);
        }
        let cap = q.capacity();
        assert!(cap >= 50);
        q.recycle();
        assert!(q.is_empty());
        assert_eq!(q.capacity(), cap, "recycle must keep the allocation");
        // FIFO ordering restarts cleanly after recycling.
        q.push(at(5), 100);
        q.push(at(5), 200);
        assert_eq!(q.pop().unwrap().1, 100);
        assert_eq!(q.pop().unwrap().1, 200);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(at(5), 5);
        q.push(at(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(at(3), 3);
        q.push(at(2), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 5);
    }

    #[test]
    fn pushes_at_or_before_the_last_pop_stay_ordered() {
        let mut q = EventQueue::new();
        q.push(at(100), 1);
        assert_eq!(q.pop().unwrap().1, 1); // simulated time is now 100 ms
        q.push(at(50), 2); // strictly in the past
        q.push(at(100), 3); // exactly the last popped instant
        q.push(at(100), 4);
        assert_eq!(q.pop().unwrap(), (at(50), 2));
        assert_eq!(q.pop().unwrap(), (at(100), 3));
        assert_eq!(q.pop().unwrap(), (at(100), 4));
        assert!(q.is_empty());
    }

    #[test]
    fn sub_microsecond_timestamps_stay_totally_ordered() {
        // Events a few nanoseconds apart must still pop by exact (at, seq).
        let mut q = EventQueue::new();
        let base = SimTime::ZERO + SimDuration::from_nanos(1 << 20);
        q.push(base + SimDuration::from_nanos(7), 7);
        q.push(base + SimDuration::from_nanos(3), 3);
        q.push(base + SimDuration::from_nanos(5), 5);
        q.push(base + SimDuration::from_nanos(3), 33); // FIFO tie
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![3, 33, 5, 7]);
    }

    #[test]
    fn far_future_events_interleave_with_near_ones() {
        let mut q = EventQueue::new();
        // Tens of simulated hours out, far beyond any run's horizon.
        let far = SimTime::ZERO + SimDuration::from_secs(100_000);
        let farther = SimTime::ZERO + SimDuration::from_secs(200_000);
        q.push(far, 2);
        q.push(farther, 3);
        q.push(at(1), 1);
        assert_eq!(q.peek_time(), Some(at(1)));
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop().unwrap(), (far, 2));
        // After time advanced, a near event still precedes the remaining
        // far one, and interleaves correctly with it.
        q.push(far + SimDuration::from_secs(1), 4);
        assert_eq!(q.pop().unwrap().1, 4);
        assert_eq!(q.pop().unwrap(), (farther, 3));
        assert!(q.is_empty());
    }

    #[test]
    fn max_timestamp_is_representable() {
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, 1); // FIFO-pinned sentinel events exist in the machine
        q.push(at(1), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap(), (SimTime::MAX, 1));
    }
}
