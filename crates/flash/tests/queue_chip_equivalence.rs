//! Equivalence suites locking [`ChipArray`] and [`CommandQueue`] to
//! linear-scan references kept here.
//!
//! The chip reference is the array's contract written the plainest way:
//! the instant each die is free, in no order, where a program starts on
//! the die free earliest, found by a scan. Nothing outside the array ever
//! read which die ran a program, so die identity (and the round-robin
//! cursor that picked among idle dies) is not part of the contract, and
//! the sorted array answers only for when dies are free.
//!
//! The queue reference is the scanning implementation the queue had
//! before its indexes, kept verbatim: every pick attempt made three passes
//! over the waiting and in-service commands.
//!
//! Both are driven in lockstep with the real types through 256 generated
//! schedules each and must agree on every return value.

use bio_flash::{BlockTag, ChipArray, CmdId, Command, CommandQueue, Lba, Priority, WriteFlags};
use bio_sim::{SimDuration, SimTime};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Reference chip array: a scan over unsorted free instants.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RefChipArray {
    free_at: Vec<SimTime>,
}

impl RefChipArray {
    fn new(n: usize) -> RefChipArray {
        assert!(n > 0, "chip array needs at least one die");
        RefChipArray {
            free_at: vec![SimTime::ZERO; n],
        }
    }

    fn has_idle(&self, now: SimTime) -> bool {
        self.free_at.iter().any(|&t| t <= now)
    }

    fn idle_count(&self, now: SimTime) -> usize {
        self.free_at.iter().filter(|&&t| t <= now).count()
    }

    /// Starts a program on the die free earliest.
    fn start_op(&mut self, now: SimTime, dur: SimDuration) -> SimTime {
        let done = now + dur;
        if let Some(t) = self.free_at.iter_mut().min() {
            *t = done;
        }
        done
    }

    fn delay_all(&mut self, now: SimTime, dur: SimDuration) {
        for t in &mut self.free_at {
            let start = (*t).max(now);
            *t = start + dur;
        }
    }

    fn next_idle_at(&self) -> SimTime {
        self.free_at
            .iter()
            .fold(SimTime::MAX, |first, &t| first.min(t))
    }
}

// ---------------------------------------------------------------------
// Reference command queue, verbatim.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct RefCommandQueue {
    waiting: Vec<(u64, SimTime, Command)>,
    /// `(arrival-seq, id, priority)` of commands picked but not yet
    /// completed.
    in_service: Vec<(u64, CmdId, Priority)>,
    depth: usize,
    next_arrival: u64,
    peak: usize,
}

impl RefCommandQueue {
    fn new(depth: usize) -> RefCommandQueue {
        let depth = depth.max(1);
        RefCommandQueue {
            waiting: Vec::with_capacity(depth),
            in_service: Vec::with_capacity(depth),
            depth,
            next_arrival: 0,
            peak: 0,
        }
    }

    fn occupancy(&self) -> usize {
        self.waiting.len() + self.in_service.len()
    }

    fn has_room(&self) -> bool {
        self.occupancy() < self.depth
    }

    fn admit(&mut self, cmd: Command, now: SimTime) -> Result<(), Command> {
        if !self.has_room() {
            return Err(cmd);
        }
        let seq = self.next_arrival;
        self.next_arrival += 1;
        self.waiting.push((seq, now, cmd));
        self.peak = self.peak.max(self.occupancy());
        Ok(())
    }

    fn pick(&mut self) -> Option<(Command, SimTime)> {
        let idx = self.pick_index()?;
        let (seq, admitted, cmd) = self.waiting.remove(idx);
        self.in_service.push((seq, cmd.id, cmd.priority));
        Some((cmd, admitted))
    }

    fn pick_index(&self) -> Option<usize> {
        // Head-of-queue jumps every *waiting* command, but (like a
        // non-queued SATA FLUSH) waits for in-flight service to finish so
        // it covers everything transferred before it.
        if let Some(i) = self
            .waiting
            .iter()
            .position(|(_, _, c)| c.priority == Priority::HeadOfQueue)
        {
            if self.in_service.is_empty() {
                return Some(i);
            }
            return None;
        }
        let min_in_service = self.in_service.iter().map(|&(s, _, _)| s).min();
        let ordered_fence_in_service = self
            .in_service
            .iter()
            .filter(|&&(_, _, p)| p == Priority::Ordered)
            .map(|&(s, _, _)| s)
            .min();
        // Waiting list is naturally in arrival order (we only remove).
        for (i, (seq, _, cmd)) in self.waiting.iter().enumerate() {
            match cmd.priority {
                // Handled above: none is waiting here.
                Priority::HeadOfQueue => {}
                Priority::Ordered => {
                    // Every earlier arrival must have completed.
                    let earlier_waiting = i > 0;
                    let earlier_in_service = min_in_service.is_some_and(|m| m < *seq);
                    if !earlier_waiting && !earlier_in_service {
                        return Some(i);
                    }
                    // An unserviceable ordered command also fences
                    // everything after it.
                    return None;
                }
                Priority::Simple => {
                    // Must not pass an incomplete earlier ordered command.
                    let fenced = ordered_fence_in_service.is_some_and(|m| m < *seq);
                    if !fenced {
                        return Some(i);
                    }
                }
            }
        }
        None
    }

    fn complete(&mut self, id: CmdId) -> bool {
        match self.in_service.iter().position(|&(_, cid, _)| cid == id) {
            Some(i) => {
                self.in_service.swap_remove(i);
                true
            }
            None => false,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Programs start when a die is idle, GC sweeps delay every die, the
    /// clock mostly advances and sometimes stands still or steps back (a
    /// stale event): whether a die is idle, the idle count, each start's
    /// completion instant and the next idle instant must match the scan at
    /// every step.
    #[test]
    fn chip_array_matches_the_scanning_reference(
        dies in 1usize..9,
        ops in prop::collection::vec((0u8..10, 0u64..40, 1u64..60), 1..200)
    ) {
        let mut real = ChipArray::new(dies);
        let mut reference = RefChipArray::new(dies);
        let mut now = 0u64;
        for (i, (op, step, dur)) in ops.into_iter().enumerate() {
            let at = SimTime::from_micros(now);
            let dur = SimDuration::from_micros(dur);
            match op {
                // The destage pump's pair: count, then look and start.
                0..=5 => {
                    prop_assert_eq!(real.idle_count(at), reference.idle_count(at), "step {}", i);
                    let idle = real.has_idle(at);
                    prop_assert_eq!(idle, reference.has_idle(at), "step {}", i);
                    if idle {
                        let done = real.start_op(at, dur);
                        prop_assert_eq!(done, reference.start_op(at, dur), "step {}", i);
                    }
                }
                // A look that starts nothing (its candidate vanished).
                6 => prop_assert_eq!(real.has_idle(at), reference.has_idle(at), "step {}", i),
                7 => {
                    real.delay_all(at, dur);
                    reference.delay_all(at, dur);
                }
                8 => now += step,
                _ => now = now.saturating_sub(step / 8),
            }
            prop_assert_eq!(real.has_idle(at), reference.has_idle(at), "step {}", i);
            prop_assert_eq!(real.idle_count(at), reference.idle_count(at), "step {}", i);
            prop_assert_eq!(real.next_idle_at(), reference.next_idle_at(), "step {}", i);
            now += step / 4;
        }
    }

    /// Admissions of all three priorities, pick attempts and completions in
    /// any order (duplicates and unknown ids included): the command picked,
    /// its admission time, the occupancy and every refusal must match.
    #[test]
    fn command_queue_matches_the_scanning_reference(
        depth in 1usize..12,
        ops in prop::collection::vec((0u8..10, 0u8..16, 0u64..1_000), 1..240)
    ) {
        let mut real = CommandQueue::new(depth);
        let mut reference = RefCommandQueue::new(depth);
        let mut next_id = 1u64;
        let mut picked: Vec<CmdId> = Vec::new();
        for (i, (op, sel, t)) in ops.into_iter().enumerate() {
            match op {
                0..=3 => {
                    let priority = match sel {
                        0 | 1 => Priority::HeadOfQueue,
                        2..=6 => Priority::Ordered,
                        _ => Priority::Simple,
                    };
                    let cmd = || {
                        Command::write(
                            CmdId(next_id),
                            Lba(next_id),
                            vec![BlockTag(next_id)],
                            WriteFlags::NONE,
                        )
                        .with_priority(priority)
                    };
                    let at = SimTime::from_micros(t);
                    let got = real.admit(cmd(), at).map_err(|c| c.id);
                    let want = reference.admit(cmd(), at).map_err(|c| c.id);
                    prop_assert_eq!(got, want, "step {}", i);
                    next_id += 1;
                }
                4..=6 => {
                    let got = real.pick().map(|(c, at)| (c.id, c.priority, at));
                    let want = reference.pick().map(|(c, at)| (c.id, c.priority, at));
                    prop_assert_eq!(got, want, "step {}", i);
                    picked.extend(got.map(|(id, _, _)| id));
                }
                _ => {
                    // Mostly a command in service, sometimes one that is
                    // not (never picked, or completed already).
                    let id = match picked.len() {
                        n if n > 0 && sel > 0 => picked.swap_remove(t as usize % n),
                        _ => CmdId(t % next_id),
                    };
                    prop_assert_eq!(real.complete(id), reference.complete(id), "step {}", i);
                }
            }
            prop_assert_eq!(real.occupancy(), reference.occupancy(), "step {}", i);
            prop_assert_eq!(real.peak_occupancy(), reference.peak, "step {}", i);
            prop_assert_eq!(real.has_room(), reference.has_room(), "step {}", i);
        }
        // Drain: complete what is in service, pick what that releases.
        loop {
            let got = real.pick().map(|(c, at)| (c.id, at));
            let want = reference.pick().map(|(c, at)| (c.id, at));
            prop_assert_eq!(got, want, "drain");
            picked.extend(got.map(|(id, _)| id));
            let Some(id) = picked.pop() else { break };
            prop_assert_eq!(real.complete(id), reference.complete(id), "drain");
        }
        prop_assert_eq!(real.occupancy(), reference.occupancy());
    }
}
