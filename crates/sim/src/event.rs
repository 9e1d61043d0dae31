//! Timestamped event queue and the simulation driver built on it.
//!
//! Events scheduled for the same instant pop in the order they were
//! scheduled (FIFO tie-break via a monotonically increasing sequence
//! number). This matters for reproducibility: the lock manager's grant
//! order — and therefore which client escalates first — must not depend
//! on `BinaryHeap` internals.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::clock::{SimDuration, SimTime};

/// An event together with the instant it fires at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Scheduling sequence number; unique per queue, ascending.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

/// Internal heap entry ordered so the `BinaryHeap` (a max-heap) pops the
/// earliest `(at, seq)` pair first.
struct Entry<E>(ScheduledEvent<E>);

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smallest (at, seq) is the "greatest" heap element.
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

/// A priority queue of timestamped events with FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Create an empty queue with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at `at`. Returns its sequence number.
    pub fn schedule(&mut self, at: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry(ScheduledEvent { at, seq, event }));
        seq
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop().map(|e| e.0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// A simulation driver: an [`EventQueue`] plus the current simulated
/// clock. `next()` advances the clock to the earliest pending event and
/// returns it.
pub struct Simulator<E> {
    now: SimTime,
    queue: EventQueue<E>,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Create a simulator with the clock at time zero.
    pub fn new() -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule an event at an absolute instant.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past — scheduling backwards in
    /// time is always a logic error in the caller.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> u64 {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        self.queue.schedule(at, event)
    }

    /// Schedule an event `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> u64 {
        let at = self.now + delay;
        self.queue.schedule(at, event)
    }

    /// Advance the clock to the earliest pending event and return it,
    /// or `None` when the queue has drained.
    ///
    /// Deliberately named like `Iterator::next`; a `Simulator` is not an
    /// `Iterator` because callers schedule new events between calls.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.queue.pop()?;
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        Some(ev)
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing remains scheduled.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn simulator_advances_clock() {
        let mut sim = Simulator::new();
        sim.schedule_in(SimDuration::from_secs(10), "later");
        sim.schedule_in(SimDuration::from_secs(1), "soon");
        assert_eq!(sim.now(), SimTime::ZERO);
        let ev = sim.next().unwrap();
        assert_eq!(ev.event, "soon");
        assert_eq!(sim.now(), SimTime::from_secs(1));
        let ev = sim.next().unwrap();
        assert_eq!(ev.event, "later");
        assert_eq!(sim.now(), SimTime::from_secs(10));
        assert!(sim.next().is_none());
        assert!(sim.is_idle());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule_in(SimDuration::from_secs(2), ());
        sim.next();
        sim.schedule_at(SimTime::from_secs(1), ());
    }

    #[test]
    fn schedule_at_current_instant_is_allowed() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::ZERO, "now");
        assert_eq!(sim.next().unwrap().event, "now");
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut sim = Simulator::new();
        sim.schedule_in(SimDuration::from_secs(1), 1u32);
        sim.schedule_in(SimDuration::from_secs(5), 5u32);
        assert_eq!(sim.next().unwrap().event, 1);
        // Scheduling relative to the advanced clock.
        sim.schedule_in(SimDuration::from_secs(2), 3u32);
        assert_eq!(sim.next().unwrap().event, 3);
        assert_eq!(sim.now(), SimTime::from_secs(3));
        assert_eq!(sim.next().unwrap().event, 5);
    }
}
