//! The event queue and simulation executor scaffolding.
//!
//! A discrete-event simulation advances virtual time by repeatedly popping
//! the earliest scheduled event. [`EventQueue`] is a deterministic
//! min-priority queue ordered by `(time, sequence)` — the sequence number
//! makes events scheduled for the same instant pop in FIFO order, which
//! keeps simulations deterministic.
//!
//! Internally the queue is a **two-tier bucketed calendar queue** rather
//! than one big binary heap:
//!
//! * near-future events live in a ring of fixed-width time buckets; the
//!   earliest bucket is sorted once and drained from the back (amortised
//!   O(1) pops), with late arrivals into that bucket absorbed by a small
//!   overflow heap so the sorted run is never re-sorted;
//! * far-future events (periodic timers, retry backoffs) overflow into a
//!   conventional heap and migrate into the ring as the clock advances.
//!
//! The `(time, seq)` contract is identical to the old heap-only
//! implementation — property tests in `tests/event_queue_props.rs` check
//! equivalence against a reference model on random schedules.
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
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Log2 of the bucket width in nanoseconds: 2^13 ns ≈ 8 µs, a few device
/// DMA/CPU steps, so dense near-future traffic spreads across several
/// buckets instead of piling into one.
const BUCKET_SHIFT: u32 = 13;

/// Ring size. The ring covers `NUM_BUCKETS << BUCKET_SHIFT` ≈ 67 ms of
/// virtual time ahead of the clock (one or two measurement windows);
/// anything later waits in the far heap.
const NUM_BUCKETS: usize = 8192;

/// An entry in the queue. Only `at` and `seq` participate in ordering; the
/// payload is opaque.
#[derive(Clone)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
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
    /// Reversed so a `BinaryHeap` (a max-heap) pops the *earliest* entry.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Bucket number of a timestamp.
#[inline]
fn bucket_of(at: SimTime) -> u64 {
    at.as_nanos() >> BUCKET_SHIFT
}

/// Sentinel for "no active bucket" (no real timestamp maps to it).
const NO_ACTIVE: u64 = u64::MAX;

/// A deterministic min-priority queue of timed events.
///
/// Events at equal timestamps are delivered in insertion order.
pub struct EventQueue<E> {
    /// Near-future ring: slot `b % NUM_BUCKETS` holds the events of bucket
    /// `b` for `base <= b < base + NUM_BUCKETS`. Slots are unsorted; the
    /// active slot is sorted descending at activation and drained from the
    /// back.
    ring: Vec<Vec<Scheduled<E>>>,
    /// Events held in ring slots (including the active one).
    ring_len: usize,
    /// Bucket number containing the current clock; the ring window starts
    /// here. Only advances when the clock does, so `push` (which requires
    /// `at >= now`) can never land behind the window.
    base: u64,
    /// The bucket currently being drained (`NO_ACTIVE` when none). Its
    /// slot vector is sorted descending by `(time, seq)` so the minimum
    /// pops from the back in O(1).
    active_bucket: u64,
    active_slot: usize,
    /// Late arrivals into the active bucket (e.g. `push_now` storms); kept
    /// out of the sorted run so it never needs re-sorting. Merged with the
    /// run at pop by key comparison.
    overflow: BinaryHeap<Scheduled<E>>,
    /// Far-future events: bucket `>= base + NUM_BUCKETS`. Migrated into
    /// the ring as `base` advances.
    far: BinaryHeap<Scheduled<E>>,
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
    /// Allocation-free; the bucket ring materialises on first push.
    pub fn new() -> Self {
        EventQueue {
            ring: Vec::new(),
            ring_len: 0,
            base: 0,
            active_bucket: NO_ACTIVE,
            active_slot: 0,
            overflow: BinaryHeap::new(),
            far: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (or zero before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; in debug builds it panics,
    /// in release builds the event fires "now" (monotonicity is preserved).
    pub fn push(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Scheduled { at, seq, event };
        let b = bucket_of(at);
        if b == self.active_bucket {
            self.overflow.push(entry);
        } else if b < self.base + NUM_BUCKETS as u64 {
            self.ring_insert(b, entry);
        } else {
            self.far.push(entry);
        }
    }

    #[inline]
    fn ring_insert(&mut self, bucket: u64, entry: Scheduled<E>) {
        if self.ring.is_empty() {
            self.ring.resize_with(NUM_BUCKETS, Vec::new);
        }
        let slot = (bucket % NUM_BUCKETS as u64) as usize;
        self.ring[slot].push(entry);
        self.ring_len += 1;
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

    /// First non-empty ring slot at or after `base`, with its bucket
    /// number. Requires `ring_len > 0`.
    #[inline]
    fn scan_slot(&self) -> (usize, u64) {
        debug_assert!(self.ring_len > 0);
        let mut b = self.base;
        loop {
            let slot = (b % NUM_BUCKETS as u64) as usize;
            if !self.ring[slot].is_empty() {
                return (slot, b);
            }
            b += 1;
            debug_assert!(b < self.base + NUM_BUCKETS as u64, "ring_len drifted");
        }
    }

    /// Advances the clock (and the ring window) to `at`, migrating newly
    /// visible far-future events into the ring.
    fn advance_to(&mut self, at: SimTime) {
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        let new_base = bucket_of(at);
        if new_base > self.base {
            self.base = new_base;
            let horizon = self.base + NUM_BUCKETS as u64;
            while self.far.peek().is_some_and(|e| bucket_of(e.at) < horizon) {
                let e = self.far.pop().expect("peeked");
                let b = bucket_of(e.at);
                self.ring_insert(b, e);
            }
        }
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            // The active bucket is the earliest by construction; its
            // minimum is the better of the sorted run's tail and the
            // overflow top (the overflow is empty on the fast path).
            if self.active_bucket != NO_ACTIVE {
                if self.overflow.is_empty() {
                    if let Some(entry) = self.ring[self.active_slot].pop() {
                        self.ring_len -= 1;
                        self.advance_to(entry.at);
                        return Some((entry.at, entry.event));
                    }
                    self.active_bucket = NO_ACTIVE;
                } else {
                    let run_key = self.ring[self.active_slot].last().map(Scheduled::key);
                    let ovf_key = self.overflow.peek().map(Scheduled::key);
                    let entry = match (run_key, ovf_key) {
                        (Some(r), Some(o)) if r < o => {
                            self.ring_len -= 1;
                            self.ring[self.active_slot].pop().expect("run tail")
                        }
                        _ => self.overflow.pop().expect("overflow is non-empty"),
                    };
                    self.advance_to(entry.at);
                    return Some((entry.at, entry.event));
                }
            }
            if self.ring_len > 0 {
                self.activate_earliest_bucket();
                continue;
            }
            if let Some(head) = self.far.peek() {
                // Jump the window to the far head and pull everything
                // newly visible into the ring. The head itself always
                // migrates: far buckets are `> base`, so the jump raises
                // `base` and the migration horizon covers the head.
                let t = head.at;
                self.advance_to(t);
                debug_assert!(self.ring_len > 0, "far head must migrate into the ring");
                continue;
            }
            return None;
        }
    }

    /// Sorts the earliest non-empty ring bucket for back-pop draining and
    /// marks it active. Requires `ring_len > 0`; does not move the clock.
    fn activate_earliest_bucket(&mut self) {
        let (slot, bucket) = self.scan_slot();
        // Unstable sort: in-place, allocation-free; `(time, seq)` keys
        // are unique so stability is irrelevant. Descending by key, so
        // the earliest entry pops from the back.
        self.ring[slot]
            .sort_unstable_by_key(|e| !(((e.at.as_nanos() as u128) << 64) | e.seq as u128));
        self.active_slot = slot;
        self.active_bucket = bucket;
    }

    /// Pops the earliest event only if it is scheduled at or before
    /// `deadline`. Activates the earliest bucket once and reads its tail
    /// key, so the ring is traversed once — the pop of bounded run loops.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let next = loop {
            if self.active_bucket != NO_ACTIVE {
                // O(1): the active run's tail and the overflow top.
                let run = self.ring[self.active_slot].last().map(Scheduled::key);
                let ovf = self.overflow.peek().map(Scheduled::key);
                match (run, ovf) {
                    (Some(r), Some(o)) => break if r < o { r } else { o },
                    (Some(r), None) => break r,
                    (None, Some(o)) => break o,
                    (None, None) => self.active_bucket = NO_ACTIVE,
                }
            } else if self.ring_len > 0 {
                self.activate_earliest_bucket();
            } else {
                match self.far.peek().map(Scheduled::key) {
                    Some(k) => break k,
                    None => return None,
                }
            }
        };
        if next.0 <= deadline {
            self.pop()
        } else {
            // Deadline miss: roll back the speculative activation. The
            // clock has not advanced, so the caller may legally push
            // events *earlier* than this bucket before the next pop — a
            // future bucket left active would shadow them (the pop fast
            // path trusts the active bucket to be the earliest pending
            // one). Overflow entries belong to the active bucket; return
            // them to its ring slot so nothing is orphaned — every
            // NO_ACTIVE code path ignores the overflow heap.
            if self.active_bucket != NO_ACTIVE {
                while let Some(e) = self.overflow.pop() {
                    self.ring[self.active_slot].push(e);
                    self.ring_len += 1;
                }
                self.active_bucket = NO_ACTIVE;
            }
            None
        }
    }

    /// Drains the earliest pending instant's events (up to `max`) into
    /// `out`, in FIFO order, but only when that instant is at or before
    /// `deadline`. Returns the number of events drained — 0 on an empty
    /// queue or a deadline miss (the queue is untouched and the clock
    /// does not advance).
    ///
    /// Only the *first* pop pays the deadline comparison; same-instant
    /// followers are necessarily within the deadline too, so they drain
    /// through the active-bucket fast path.
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
        if max == 0 {
            return 0;
        }
        let Some((t, ev)) = self.pop_at_or_before(deadline) else {
            return 0;
        };
        out.push((t, ev));
        let mut n = 1;
        while n < max && self.has_follower_at(t) {
            out.push(self.pop().expect("follower checked"));
            n += 1;
        }
        n
    }

    /// O(1) check for another pending event at exactly `t`, valid right
    /// after an event at `t` was popped: the pop advanced the window to
    /// `t`, so every remaining event at `t` has migrated out of the far
    /// tier and sits in the active bucket's run or overflow — if neither
    /// holds one, the instant is drained. Kept, like its one caller
    /// [`EventQueue::pop_batch_at_or_before`], for the benchmark's probes.
    fn has_follower_at(&self, t: SimTime) -> bool {
        if self.active_bucket == NO_ACTIVE {
            return false;
        }
        let run = self.ring[self.active_slot].last().map(Scheduled::key);
        let ovf = self.overflow.peek().map(Scheduled::key);
        matches!(run, Some((rt, _)) if rt == t) || matches!(ovf, Some((ot, _)) if ot == t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len() + self.far.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events without advancing the clock.
    pub fn clear(&mut self) {
        for slot in &mut self.ring {
            slot.clear();
        }
        self.ring_len = 0;
        self.active_bucket = NO_ACTIVE;
        self.overflow.clear();
        self.far.clear();
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
    fn far_future_events_cross_the_ring_horizon() {
        // Events far beyond the ring window must pop in order after the
        // window migrates to them.
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
    fn pushes_into_active_bucket_keep_order() {
        // Pop from a bucket, then push events landing back into the still
        // active bucket (the overflow path): order must hold.
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
        q.push(SimTime::from_micros(50), "out");
        let d = SimTime::from_micros(10);
        assert_eq!(q.pop_at_or_before(d).unwrap().1, "in");
        assert_eq!(q.pop_at_or_before(d), None);
        assert_eq!(q.len(), 1, "later event stays queued");
    }

    #[test]
    fn deadline_miss_keeps_overflow_events() {
        // A deadline miss must not orphan events that were sitting in the
        // active bucket's overflow heap.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_nanos(200), "b"); // overflow of the active bucket
        assert_eq!(q.pop_at_or_before(SimTime::from_nanos(150)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn deadline_miss_with_far_event_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_secs(10), "far");
        q.push(SimTime::from_nanos(200), "b"); // overflow of the active bucket
        assert_eq!(q.pop_at_or_before(SimTime::from_nanos(150)), None);
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.pop().is_none());
    }

    #[test]
    fn deadline_miss_does_not_shadow_later_pushes() {
        // A miss must not leave a future bucket active: the clock has not
        // moved, so pushes between the miss and the next pop may target
        // earlier buckets and must still pop first.
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
