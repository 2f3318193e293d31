//! Property tests for the calendar-queue [`EventQueue`]: the `(time, seq)`
//! ordering contract must be indistinguishable from the old heap-only
//! implementation on arbitrary schedules, including ones that cross the
//! near-ring horizon into the far-future tier.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bio_sim::{EventQueue, SimDuration, SimTime};
use proptest::prelude::*;

/// Reference model: the old implementation's semantics — one binary heap
/// ordered by `(time, seq)`, clock advancing to each popped timestamp.
struct RefQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    seq: u64,
    now: u64,
}

impl RefQueue {
    fn new() -> RefQueue {
        RefQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }

    fn push(&mut self, at: u64, v: u64) {
        let at = at.max(self.now);
        self.heap.push(Reverse((at, self.seq, v)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse((at, _, v))| {
            self.now = at;
            (at, v)
        })
    }

    fn pop_at_or_before(&mut self, deadline: u64) -> Option<(u64, u64)> {
        match self.heap.peek() {
            Some(Reverse((at, _, _))) if *at <= deadline => self.pop(),
            _ => None,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Events at one instant pop exactly in insertion order.
    #[test]
    fn fifo_at_equal_timestamps(
        vals in prop::collection::vec(0u64..1000, 1..200),
        t in 0u64..10_000_000,
    ) {
        let mut q = EventQueue::new();
        for &v in &vals {
            q.push(SimTime::from_nanos(t), v);
        }
        let mut popped = Vec::new();
        while let Some((at, v)) = q.pop() {
            prop_assert_eq!(at, SimTime::from_nanos(t));
            popped.push(v);
        }
        prop_assert_eq!(popped, vals);
    }

    /// Pop timestamps never go backwards, whatever the push order, and
    /// every pushed event comes back out.
    #[test]
    fn pop_times_are_monotone(
        sched in prop::collection::vec((0u64..500_000_000, 0u64..100), 1..300),
    ) {
        let mut q = EventQueue::new();
        for &(at, v) in &sched {
            q.push(SimTime::from_nanos(at), v);
        }
        prop_assert_eq!(q.len(), sched.len());
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last, "pop went backwards: {at} < {last}");
            last = at;
            count += 1;
        }
        prop_assert_eq!(count, sched.len());
        prop_assert!(q.is_empty());
    }

    /// Interleaved pushes, pops and bounded pops match the old
    /// `BinaryHeap` ordering exactly. Opcode 3 stretches delays ~1000x so
    /// schedules regularly cross the near-ring horizon into the far tier
    /// and migrate back; opcode 4 interleaves `pop_at_or_before` (both
    /// hits and deadline misses) with later pushes, which exercises the
    /// speculative-activation rollback.
    #[test]
    fn matches_binary_heap_reference(
        script in prop::collection::vec((0u8..5, 0u64..200_000, 0u64..1000), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        for &(op, dt, v) in &script {
            if op == 0 {
                let got = q.pop().map(|(t, ev)| (t.as_nanos(), ev));
                prop_assert_eq!(got, r.pop());
            } else if op == 4 {
                let deadline = q.now() + SimDuration::from_nanos(dt);
                let got = q.pop_at_or_before(deadline).map(|(t, ev)| (t.as_nanos(), ev));
                prop_assert_eq!(got, r.pop_at_or_before(deadline.as_nanos()));
            } else {
                let dt = if op == 3 { dt * 1000 } else { dt };
                let at = q.now() + SimDuration::from_nanos(dt);
                q.push(at, v);
                r.push(at.as_nanos(), v);
            }
        }
        loop {
            let got = q.pop().map(|(t, ev)| (t.as_nanos(), ev));
            let want = r.pop();
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Cohort draining through `pop_batch_at_or_before` is
    /// indistinguishable from the single-pop loop the `IoStack` drivers
    /// run: same events, same `(time, seq)` order, same
    /// deadline misses, same clock — across interleaved pushes (so
    /// batches drain queues that earlier batches partially emptied, the
    /// steady-state shape of the simulator main loop).
    #[test]
    fn batch_drain_matches_single_pop_reference(
        script in prop::collection::vec((0u8..4, 0u64..150_000, 0u64..1000), 1..300),
        max in 1usize..12,
    ) {
        let mut by_batch = EventQueue::new();
        let mut by_pop = EventQueue::new();
        let mut buf = Vec::new();
        for &(op, dt, v) in &script {
            if op == 0 {
                // Drain both queues to a deadline — one in bounded
                // cohorts, one event at a time — and compare the
                // concatenated sequences.
                let deadline = by_batch.now() + SimDuration::from_nanos(dt);
                let mut batched = Vec::new();
                loop {
                    buf.clear();
                    let n = by_batch.pop_batch_at_or_before(deadline, &mut buf, max);
                    prop_assert_eq!(n, buf.len());
                    prop_assert!(n <= max);
                    if n == 0 {
                        break;
                    }
                    // A batch never mixes instants: it is one cohort.
                    prop_assert!(buf.iter().all(|&(t, _)| t == buf[0].0));
                    batched.extend(buf.iter().copied());
                }
                let mut reference = Vec::new();
                while let Some(e) = by_pop.pop_at_or_before(deadline) {
                    reference.push(e);
                }
                prop_assert_eq!(&batched, &reference);
                prop_assert_eq!(by_batch.now(), by_pop.now());
            } else {
                let dt = if op == 3 { dt * 1000 } else { dt };
                let at = by_batch.now() + SimDuration::from_nanos(dt);
                by_batch.push(at, v);
                by_pop.push(at, v);
            }
        }
        // Final full drain: nothing left behind, order still identical.
        let mut batched = Vec::new();
        loop {
            buf.clear();
            if by_batch.pop_batch_at_or_before(SimTime::MAX, &mut buf, max) == 0 {
                break;
            }
            prop_assert!(buf.iter().all(|&(t, _)| t == buf[0].0));
            batched.extend(buf.iter().copied());
        }
        let mut reference = Vec::new();
        while let Some(e) = by_pop.pop_at_or_before(SimTime::MAX) {
            reference.push(e);
        }
        prop_assert_eq!(batched, reference);
        prop_assert!(by_batch.is_empty() && by_pop.is_empty());
    }
}
