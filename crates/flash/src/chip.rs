//! Flash chip array: models `channels × ways` independently busy flash
//! dies. Each die services one program/read/erase at a time; the array is
//! the source of the device's internal parallelism (§1 of the paper: the
//! multi-channel/way controller is what transfer-and-flush fails to keep
//! busy).
//!
//! Nothing reads which die ran a program, only when one is free, so the
//! array is the instants its dies are free, kept sorted. A saturated
//! device asks "is a die idle?" on every event and the answer is no:
//! [`ChipArray::has_idle`] reads the first entry, and
//! [`ChipArray::idle_count`] is a binary search. A start takes the die
//! free earliest and moves its new instant to its sorted place; a GC
//! sweep ([`ChipArray::delay_all`]) moves every die by one monotone rule,
//! which keeps the order.

use bio_sim::{SimDuration, SimRng, SimTime};

/// The array of flash dies: when each is free, earliest first.
#[derive(Debug, Clone)]
pub struct ChipArray {
    free_at: Vec<SimTime>,
}

impl ChipArray {
    /// Creates `n` idle dies.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> ChipArray {
        assert!(n > 0, "chip array needs at least one die");
        ChipArray {
            free_at: vec![SimTime::ZERO; n],
        }
    }

    /// True when some die is idle at `now`.
    pub fn has_idle(&self, now: SimTime) -> bool {
        self.next_idle_at() <= now
    }

    /// Number of dies idle at `now`: the most programs that can start at
    /// this instant.
    #[inline]
    pub fn idle_count(&self, now: SimTime) -> usize {
        self.free_at.partition_point(|&t| t <= now)
    }

    /// Occupies the die free earliest for `dur` starting at `now`,
    /// returning the completion time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if no die is idle at `now` (a release build
    /// starts the program at `now` all the same).
    #[inline]
    pub fn start_op(&mut self, now: SimTime, dur: SimDuration) -> SimTime {
        debug_assert!(self.has_idle(now), "every die is busy at {now}");
        let done = now + dur;
        // The first entry leaves, and `done` goes after every entry earlier
        // than it: the ones up to there shift down by one.
        let end = self.free_at.partition_point(|&t| t < done).max(1);
        if let Some(moved) = self.free_at.get_mut(..end) {
            moved.rotate_left(1);
            if let Some(last) = moved.last_mut() {
                *last = done;
            }
        }
        done
    }

    /// Adds `dur` of busy time to *every* die (used to model a synchronous
    /// GC sweep stealing the whole array).
    pub fn delay_all(&mut self, now: SimTime, dur: SimDuration) {
        // Monotone in the old instant: the order holds.
        for t in &mut self.free_at {
            *t = (*t).max(now) + dur;
        }
    }

    /// Earliest time any die becomes idle.
    pub fn next_idle_at(&self) -> SimTime {
        // `new` rejects an empty array, so there is a first die.
        self.free_at.first().copied().unwrap_or(SimTime::MAX)
    }

    /// Jittered duration for one operation: normal noise around `base` with
    /// the profile's relative stddev, clamped to ±3σ and never below a
    /// quarter of the base.
    #[inline]
    pub fn jittered(base: SimDuration, rel_stddev: f64, rng: &mut SimRng) -> SimDuration {
        if rel_stddev <= 0.0 {
            return base;
        }
        let b = base.as_nanos() as f64;
        let raw = rng.normal(b, b * rel_stddev);
        let clamped = raw.clamp(b * 0.25, b * (1.0 + 3.0 * rel_stddev));
        SimDuration::from_nanos(clamped as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    #[test]
    fn every_die_takes_one_program() {
        let mut a = ChipArray::new(3);
        let t = SimTime::ZERO;
        for left in (0..3).rev() {
            assert!(a.has_idle(t));
            a.start_op(t, SimDuration::from_micros(100));
            assert_eq!(a.idle_count(t), left);
        }
        assert!(!a.has_idle(t));
        assert!(a.has_idle(us(100)));
    }

    #[test]
    fn ops_complete_and_free_die() {
        let mut a = ChipArray::new(1);
        let done = a.start_op(us(10), SimDuration::from_micros(5));
        assert_eq!(done, us(15));
        assert!(!a.has_idle(us(14)));
        assert!(a.has_idle(us(15)));
    }

    #[test]
    fn delay_all_pushes_busy_time() {
        let mut a = ChipArray::new(2);
        a.start_op(us(0), SimDuration::from_micros(10));
        a.delay_all(us(0), SimDuration::from_micros(20));
        // Busy die: free at 10, +20 = 30. Idle die: 0+20 = 20.
        assert!(!a.has_idle(us(19)));
        assert_eq!(a.idle_count(us(20)), 1);
        assert_eq!(a.idle_count(us(29)), 1);
        assert_eq!(a.idle_count(us(30)), 2);
    }

    #[test]
    fn next_idle_is_min() {
        let mut a = ChipArray::new(2);
        a.start_op(us(0), SimDuration::from_micros(30));
        a.start_op(us(0), SimDuration::from_micros(10));
        assert_eq!(a.next_idle_at(), us(10));
    }

    #[test]
    fn a_start_takes_the_die_free_earliest() {
        let mut a = ChipArray::new(3);
        a.start_op(us(0), SimDuration::from_micros(30));
        a.start_op(us(0), SimDuration::from_micros(10));
        // At 20 the dies are free at 0, 10 and 30: the start replaces 0.
        a.start_op(us(20), SimDuration::from_micros(5));
        assert_eq!(a.free_at, vec![us(10), us(25), us(30)]);
    }

    #[test]
    fn a_clock_that_steps_back_reads_the_same_array() {
        // A stale event asks about an instant before the last start: the
        // answers follow the free instants alone, a start still takes the
        // die free earliest, and a sweep keeps the order.
        let mut a = ChipArray::new(3);
        a.start_op(us(50), SimDuration::from_micros(10));
        assert_eq!(a.idle_count(us(20)), 2);
        a.start_op(us(20), SimDuration::from_micros(5));
        assert_eq!(a.free_at, vec![us(0), us(25), us(60)]);
        a.delay_all(us(10), SimDuration::from_micros(5));
        assert_eq!(a.free_at, vec![us(15), us(30), us(65)]);
        assert!(!a.has_idle(us(14)));
        assert_eq!(a.next_idle_at(), us(15));
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let mut rng1 = SimRng::new(1);
        let mut rng2 = SimRng::new(1);
        let base = SimDuration::from_micros(1000);
        for _ in 0..500 {
            let d1 = ChipArray::jittered(base, 0.2, &mut rng1);
            let d2 = ChipArray::jittered(base, 0.2, &mut rng2);
            assert_eq!(d1, d2);
            assert!(d1 >= base.mul_f64(0.25));
            assert!(d1 <= base.mul_f64(1.6 + 1e-9));
        }
        assert_eq!(ChipArray::jittered(base, 0.0, &mut rng1), base);
    }

    #[test]
    #[should_panic(expected = "at least one die")]
    fn zero_dies_rejected() {
        ChipArray::new(0);
    }
}
