//! The event queue and simulation executor scaffolding.
//!
//! A discrete-event simulation advances virtual time by repeatedly popping
//! the earliest scheduled event. [`EventQueue`] is a deterministic
//! min-priority queue ordered by `(time, sequence)`: events scheduled for
//! the same instant pop in FIFO order, so every run is reproducible.
//!
//! It is a [`BinaryHeap`] for future events plus a FIFO lane (a
//! [`VecDeque`]) for events scheduled at the current instant, because
//! the traffic is small and a large share of it is "now": the stack
//! holds threads + devices × (queue depth + chips) + a few timers — per
//! benchmark cell a measured mean of 1–35 pending events, 96–155 with 256
//! DWSL threads, at most 386 over all six workloads, delays 0–500 ms (the
//! sizing against the calendar queue it replaced is in the crate docs) —
//! and 20–31 % of all pushes per cell (32–52 % on `mq_dwsl`'s DWSL cells)
//! are for the current instant: block completions routed as `push_now`, a
//! thread's next op after a transaction mark, congestion wake-ups. Such a
//! push appends to the lane, with no sequence number and no sift through
//! the heap.
//!
//! The lane keeps the `(time, seq)` order exactly. Every lane event is at
//! `now` and was pushed after the clock reached `now`; a heap entry at
//! `now` was pushed before that, so it has the lower sequence number.
//! A pop therefore serves a heap entry at `now` first, then the lane, and
//! only then advances the clock to the heap's earliest entry.
//!
//! The contract is this module's unit tests plus the differential
//! properties in `tests/event_queue_props.rs`, whose oracle is a
//! linear-scan `Vec`, not a heap.
//!
//! ```
//! use bio_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(SimTime::from_micros(5), "late");
//! q.push(SimTime::from_micros(1), "early");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_micros(1), "early"));
//! ```

use core::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// An entry in the queue, ordered by `key` alone; the payload is opaque.
struct Scheduled<E> {
    /// `(time, seq)`.
    key: (SimTime, u64),
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    /// Reversed so a `BinaryHeap` (a max-heap) pops the *earliest* entry.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// A deterministic min-priority queue of timed events; events at equal
/// timestamps are delivered in insertion order.
pub struct EventQueue<E> {
    /// Events scheduled after `now` (and those at `now` pushed before the
    /// clock reached it).
    heap: BinaryHeap<Scheduled<E>>,
    /// Events pushed at `now` since the clock reached it, in push order.
    lane: VecDeque<E>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (or zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`. Scheduling in the past is a
    /// logic error: debug builds panic, release builds fire the event "now"
    /// (monotonicity is preserved).
    #[inline]
    pub fn push(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        if at <= self.now {
            self.lane.push_back(event);
            return;
        }
        let key = (at, self.next_seq);
        self.next_seq += 1;
        self.heap.push(Scheduled { key, event });
    }

    /// Schedules `event` after a relative delay from the current time.
    pub fn push_after(&mut self, delay: SimDuration, event: E) {
        self.push(self.now + delay, event);
    }

    /// Schedules `event` at the current instant (delivered after everything
    /// already scheduled for this instant).
    pub fn push_now(&mut self, event: E) {
        self.push(self.now, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.lane.is_empty() && !self.heap_due_now() {
            return self.lane.pop_front().map(|event| (self.now, event));
        }
        let entry = self.heap.pop()?;
        self.now = entry.key.0;
        Some((self.now, entry.event))
    }

    /// True when the heap's earliest entry is at `now`: it was pushed
    /// before the clock got here, so it pops ahead of the whole lane.
    fn heap_due_now(&self) -> bool {
        self.heap.peek().is_some_and(|s| s.key.0 == self.now)
    }

    /// Pops the earliest event only if it is scheduled at or before
    /// `deadline`; on a miss the queue and the clock are untouched.
    #[inline]
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let next = if self.lane.is_empty() {
            self.heap.peek()?.key.0
        } else {
            self.now
        };
        if next <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// Drains the earliest pending instant's events (up to `max`) into
    /// `out`, in FIFO order, but only when that instant is at or before
    /// `deadline`. Returns the number of events drained — 0 on an empty
    /// queue or a deadline miss (the queue is untouched and the clock
    /// does not advance).
    ///
    /// No run loop in the workspace drains by instant (`IoStack` pops
    /// one event at a time). This stays only because the benchmark's
    /// `sim.event_ns.*` probes (`benchmark/src/probes.rs`) time it, and a
    /// PR may not edit `benchmark/`.
    ///
    /// ```
    /// use bio_sim::{EventQueue, SimTime};
    ///
    /// let mut q = EventQueue::new();
    /// let t = SimTime::from_micros(3);
    /// q.push(t, "a");
    /// q.push(t, "b");
    /// q.push(SimTime::from_micros(9), "later");
    /// let mut out = Vec::new();
    /// assert_eq!(q.pop_batch_at_or_before(SimTime::from_micros(5), &mut out, 16), 2);
    /// assert_eq!(out, vec![(t, "a"), (t, "b")]);
    /// assert_eq!(q.pop_batch_at_or_before(SimTime::from_micros(5), &mut out, 16), 0);
    /// ```
    pub fn pop_batch_at_or_before(
        &mut self,
        deadline: SimTime,
        out: &mut Vec<(SimTime, E)>,
        max: usize,
    ) -> usize {
        // Once `t` has popped, "at or before `t`" admits only its followers.
        let (mut limit, mut n) = (deadline, 0);
        while n < max {
            let Some((t, ev)) = self.pop_at_or_before(limit) else {
                break;
            };
            out.push((t, ev));
            limit = t;
            n += 1;
        }
        n
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// Drops all pending events without advancing the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lane.clear();
    }
}

impl<E> core::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(3), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(3));
    }

    #[test]
    fn push_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), "a");
        q.pop();
        q.push_after(SimDuration::from_micros(5), "b");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(15));
    }

    #[test]
    fn push_now_preserves_fifo_at_same_instant() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(1), "first");
        q.pop();
        q.push_now("second");
        q.push_now("third");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn an_event_scheduled_before_the_clock_arrived_pops_before_push_now() {
        // Both fire at T = 5 µs; "early-bird" was pushed while the clock
        // stood at 1 µs, so it holds the lower sequence number and pops
        // ahead of everything `push_now` adds once the clock reaches T.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        q.push(SimTime::from_micros(1), "tick");
        q.push(t, "arrive");
        q.push(t, "early-bird");
        assert_eq!(q.pop().unwrap().1, "tick");
        assert_eq!(q.pop().unwrap(), (t, "arrive"));
        q.push_now("now-1");
        q.push_after(SimDuration::ZERO, "now-2");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap(), (t, "early-bird"));
        assert_eq!(q.pop().unwrap(), (t, "now-1"));
        assert_eq!(q.pop_at_or_before(t).unwrap(), (t, "now-2"));
        assert!(q.is_empty());
    }

    #[test]
    fn a_pending_same_instant_event_misses_an_earlier_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(5), "a");
        q.pop();
        q.push_now("b");
        assert_eq!(q.pop_at_or_before(SimTime::from_micros(4)), None);
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty() && q.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), 5);
        q.push(SimTime::from_nanos(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_nanos(3), 3);
        q.push(SimTime::from_nanos(8), 8);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 8);
        assert!(q.pop().is_none());
    }

    #[test]
    fn delays_from_nanoseconds_to_seconds_pop_in_order() {
        // Timer-scale and DMA-scale delays share one queue: seconds-out
        // events pop after everything nearer, FIFO among themselves.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "far");
        q.push(SimTime::from_nanos(10), "near");
        q.push(SimTime::from_secs(5), "far2");
        q.push(SimTime::from_millis(40), "mid");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop().unwrap().1, "far2");
        assert!(q.pop().is_none());
    }

    #[test]
    fn pushes_between_pops_keep_order() {
        // Pop, then push events that land before ones already queued
        // (including at the current instant): order must hold.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        q.push(t, 1);
        q.push(t + SimDuration::from_nanos(50), 4);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push_now(2); // same instant as `now`, seq-ordered after 1
        q.push(t + SimDuration::from_nanos(20), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
    }

    #[test]
    fn pop_batch_at_or_before_bounds_the_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(2);
        q.push(t, 1);
        q.push(t, 2);
        q.push(SimTime::from_micros(30), 9);
        let mut out = Vec::new();
        let d = SimTime::from_micros(10);
        assert_eq!(q.pop_batch_at_or_before(d, &mut out, 8), 2);
        assert_eq!(out, vec![(t, 1), (t, 2)]);
        assert_eq!(q.now(), t, "clock advanced to the drained instant");
        // The next instant is past the deadline: nothing drains, nothing
        // is lost, and the clock stays put.
        assert_eq!(q.pop_batch_at_or_before(d, &mut out, 8), 0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), t);
        assert_eq!(q.pop_batch_at_or_before(SimTime::MAX, &mut out, 0), 0);
    }

    #[test]
    fn pop_at_or_before_respects_the_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(5), "in");
        q.push(SimTime::from_micros(10), "at");
        q.push(SimTime::from_micros(50), "out");
        let d = SimTime::from_micros(10);
        assert_eq!(q.pop_at_or_before(d).unwrap().1, "in");
        assert_eq!(
            q.pop_at_or_before(d).unwrap().1,
            "at",
            "the deadline is inclusive"
        );
        assert_eq!(q.pop_at_or_before(d), None);
        assert_eq!(q.len(), 1, "later event stays queued");
    }

    #[test]
    fn deadline_miss_keeps_events_pushed_after_a_pop() {
        // A deadline miss must leave an event pushed since the last pop
        // queued, to pop next.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_nanos(200), "b");
        assert_eq!(q.pop_at_or_before(SimTime::from_nanos(150)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn deadline_miss_with_a_seconds_out_event_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_secs(10), "far");
        q.push(SimTime::from_nanos(200), "b");
        assert_eq!(q.pop_at_or_before(SimTime::from_nanos(150)), None);
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.pop().is_none());
    }

    #[test]
    fn pushes_after_a_deadline_miss_still_pop_first() {
        // A miss does not move the clock, so pushes between the miss and
        // the next pop may be earlier than the event that missed and must
        // still pop first.
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(50), "late");
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(10)), None);
        q.push(SimTime::from_millis(20), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "late");
        assert!(q.pop().is_none());
    }

    #[test]
    fn clear_keeps_clock() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(4), 1);
        q.push(SimTime::from_secs(60), 2);
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_micros(4));
    }
}
