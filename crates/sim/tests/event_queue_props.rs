//! Property tests for [`EventQueue`]: the `(time, seq)` ordering contract
//! on arbitrary schedules, checked against an oracle that shares nothing
//! with the implementation — `EventQueue` is a binary heap plus a FIFO lane
//! for the current instant, the oracle a `Vec` scanned linearly.

use bio_sim::{EventQueue, SimDuration, SimTime};
use proptest::prelude::*;

/// Reference model: pending `(time, value)` pairs in push order. The first
/// entry with the minimum time is the earliest event and, among equals, the
/// oldest — FIFO by construction, with no sequence number to get wrong.
#[derive(Default)]
struct RefQueue {
    pending: Vec<(u64, u64)>,
    now: u64,
}

impl RefQueue {
    fn push(&mut self, at: u64, v: u64) {
        self.pending.push((at.max(self.now), v));
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.pop_at_or_before(u64::MAX)
    }

    fn clear(&mut self) {
        self.pending.clear();
    }

    fn pop_at_or_before(&mut self, deadline: u64) -> Option<(u64, u64)> {
        let earliest = self.pending.iter().map(|&(at, _)| at).min()?;
        if earliest > deadline {
            return None;
        }
        self.now = earliest;
        let first = self.pending.iter().position(|&(at, _)| at == earliest)?;
        Some(self.pending.remove(first))
    }
}

/// Opcodes of `matches_linear_scan_reference`. A release build adds one
/// that pushes into the past: there such an event fires "now", through the
/// same-instant lane (a debug build panics on it instead).
#[cfg(debug_assertions)]
const OPCODES: u8 = 8;
#[cfg(not(debug_assertions))]
const OPCODES: u8 = 9;

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

    /// Interleaved pushes, pops, bounded pops and clears match the
    /// linear-scan reference exactly, and so do `len()` and `is_empty()`
    /// after every step. Opcode 2 snaps its timestamp down to an 8 µs
    /// grid, and opcode 4 its deadline, so several events share an instant
    /// (FIFO among them is compared too) and deadlines land exactly on
    /// event times (the bound is inclusive). Opcode 3 stretches delays
    /// ~1000x so schedules mix DMA-scale and timer-scale delays (up to
    /// 200 ms); opcode 4 interleaves `pop_at_or_before` (both hits and
    /// deadline misses) with later pushes, which may land before the event
    /// that missed. Opcodes 5 and 6 schedule at the current instant
    /// (`push_now`, `push_after(ZERO)`), behind any heap entry already
    /// due then. Opcode 7 clears the queue on one draw in 16 and pops
    /// otherwise, so schedules still build up. Opcode 8 (release only)
    /// pushes up to 200 µs into the past.
    #[test]
    fn matches_linear_scan_reference(
        script in prop::collection::vec((0u8..OPCODES, 0u64..200_000, 0u64..1000), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut r = RefQueue::default();
        // `t` snapped down to the grid, but never into the past.
        let snap = |t: SimTime, now: SimTime| SimTime::from_nanos(t.as_nanos() & !0x1fff).max(now);
        for &(op, dt, v) in &script {
            let now = q.now().as_nanos();
            let op = if op == 7 && v % 16 != 0 { 0 } else { op };
            match op {
                0 => {
                    let got = q.pop().map(|(t, ev)| (t.as_nanos(), ev));
                    prop_assert_eq!(got, r.pop());
                }
                7 => {
                    q.clear();
                    r.clear();
                    prop_assert_eq!(q.now().as_nanos(), now, "clear keeps the clock");
                }
                4 => {
                    let deadline = snap(q.now() + SimDuration::from_nanos(dt), q.now());
                    let got = q.pop_at_or_before(deadline).map(|(t, ev)| (t.as_nanos(), ev));
                    prop_assert_eq!(got, r.pop_at_or_before(deadline.as_nanos()));
                }
                5 => {
                    q.push_now(v);
                    r.push(now, v);
                }
                6 => {
                    q.push_after(SimDuration::ZERO, v);
                    r.push(now, v);
                }
                8 => {
                    let at = now.saturating_sub(dt);
                    q.push(SimTime::from_nanos(at), v);
                    r.push(at, v);
                }
                _ => {
                    let dt = if op == 3 { dt * 1000 } else { dt };
                    let at = q.now() + SimDuration::from_nanos(dt);
                    let at = if op == 2 { snap(at, q.now()) } else { at };
                    q.push(at, v);
                    r.push(at.as_nanos(), v);
                }
            }
            prop_assert_eq!(q.len(), r.pending.len());
            prop_assert_eq!(q.is_empty(), r.pending.is_empty());
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
    /// indistinguishable from popping the linear-scan reference one event
    /// at a time: same events, same `(time, seq)` order, same deadline
    /// misses, same clock — across interleaved pushes (so batches drain
    /// queues that earlier batches partially emptied).
    #[test]
    fn batch_drain_matches_single_pop_reference(
        script in prop::collection::vec((0u8..4, 0u64..150_000, 0u64..1000), 1..300),
        max in 1usize..12,
    ) {
        let mut by_batch = EventQueue::new();
        let mut by_pop = RefQueue::default();
        let mut buf = Vec::new();
        // Drains `by_batch` to `deadline` in bounded cohorts.
        let mut drain = |q: &mut EventQueue<u64>, deadline: SimTime| {
            let mut batched = Vec::new();
            loop {
                buf.clear();
                let n = q.pop_batch_at_or_before(deadline, &mut buf, max);
                prop_assert_eq!(n, buf.len());
                prop_assert!(n <= max);
                if n == 0 {
                    return Ok(batched);
                }
                // A batch never mixes instants: it is one cohort.
                prop_assert!(buf.iter().all(|&(t, _)| t == buf[0].0));
                batched.extend(buf.iter().map(|&(t, v)| (t.as_nanos(), v)));
            }
        };
        // Opcode 0 drains both to a deadline and compares the sequences;
        // the trailing entry is the final full drain.
        for &(op, dt, v) in script.iter().chain([&(0, u64::MAX, 0)]) {
            if op == 0 {
                let deadline = by_batch.now() + SimDuration::from_nanos(dt);
                let batched = drain(&mut by_batch, deadline)?;
                let mut reference = Vec::new();
                while let Some(e) = by_pop.pop_at_or_before(deadline.as_nanos()) {
                    reference.push(e);
                }
                prop_assert_eq!(batched, reference);
                prop_assert_eq!(by_batch.now().as_nanos(), by_pop.now);
            } else {
                let dt = if op == 3 { dt * 1000 } else { dt };
                let at = by_batch.now() + SimDuration::from_nanos(dt);
                by_batch.push(at, v);
                by_pop.push(at.as_nanos(), v);
            }
        }
        prop_assert!(by_batch.is_empty() && by_pop.pending.is_empty());
    }
}
