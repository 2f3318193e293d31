//! Flash chip array: models `channels × ways` independently busy flash
//! dies. Each die services one program/read/erase at a time; the array is
//! the source of the device's internal parallelism (§1 of the paper: the
//! multi-channel/way controller is what transfer-and-flush fails to keep
//! busy).
//!
//! A saturated device asks "is a die idle?" on every event and the answer
//! is no. The array therefore keeps `all_busy_until`, an instant before
//! which no die is idle. Starting or delaying work only moves a die's
//! `busy_until` later, so the bound stays true until the clock reaches it,
//! and until then [`ChipArray::find_idle`] and [`ChipArray::idle_count`]
//! answer without visiting a die. The bound is set to the earliest
//! `busy_until` whenever the array is known to be full: by a look that
//! found every die busy, and by the [`ChipArray::start_op`] that takes the
//! last of the dies `idle_count` just counted idle — the destage pump's
//! count, start, start, … sequence ends with the array knowing it.

use bio_sim::{SimDuration, SimRng, SimTime};

/// The array of flash dies. Index = `channel * ways + way`.
#[derive(Debug, Clone)]
pub struct ChipArray {
    busy_until: Vec<SimTime>,
    /// Round-robin cursor for spreading work over idle dies.
    cursor: usize,
    /// No die is idle before this instant (never later than the earliest
    /// `busy_until`).
    all_busy_until: SimTime,
    /// Of the dies [`ChipArray::idle_count`] counted idle at `counted_at`,
    /// those nothing has been started on since.
    idle_left: usize,
    counted_at: SimTime,
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
            busy_until: vec![SimTime::ZERO; n],
            cursor: 0,
            all_busy_until: SimTime::ZERO,
            idle_left: 0,
            counted_at: SimTime::ZERO,
        }
    }

    /// Number of dies.
    pub fn len(&self) -> usize {
        self.busy_until.len()
    }

    /// Always false; the constructor enforces at least one die.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Finds an idle die at `now`, preferring round-robin fairness.
    /// Returns `None` when all dies are busy.
    pub fn find_idle(&mut self, now: SimTime) -> Option<usize> {
        if self.all_busy_until > now {
            return None;
        }
        // From the cursor to the end, then from the start to the cursor.
        let dies = self.busy_until.iter().enumerate();
        let idle = |&(_, t): &(usize, &SimTime)| *t <= now;
        let ahead = dies.clone().skip(self.cursor).find(idle);
        let found = ahead.or_else(|| dies.take(self.cursor).find(idle));
        match found {
            Some((c, _)) if c + 1 == self.busy_until.len() => self.cursor = 0,
            Some((c, _)) => self.cursor = c + 1,
            // Every die was looked at and is busy: remember until when.
            None => self.all_busy_until = self.next_idle_at(),
        }
        found.map(|(c, _)| c)
    }

    /// Number of dies idle at `now`: the most programs that can start at
    /// this instant.
    pub fn idle_count(&mut self, now: SimTime) -> usize {
        if self.all_busy_until > now {
            return 0;
        }
        let idle = self.busy_until.iter().filter(|&&t| t <= now).count();
        (self.idle_left, self.counted_at) = (idle, now);
        if idle == 0 {
            self.all_busy_until = self.next_idle_at();
        }
        idle
    }

    /// Occupies die `chip` for `dur` starting at `now`, returning the
    /// completion time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the die is still busy at `now` or is not
    /// in the array (a release build leaves the array as it is).
    pub fn start_op(&mut self, chip: usize, now: SimTime, dur: SimDuration) -> SimTime {
        let done = now + dur;
        let busy_until = self.busy_until.get_mut(chip);
        debug_assert!(
            busy_until.as_ref().is_some_and(|t| **t <= now),
            "die {chip} is busy at {now} or outside the array"
        );
        if let Some(t) = busy_until {
            *t = done;
        }
        // A no-op on an idle die (`done` is not before `now`); it keeps the
        // bound true if a release build is handed a busy one.
        self.all_busy_until = self.all_busy_until.min(done);
        if self.idle_left > 0 && now == self.counted_at {
            self.idle_left -= 1;
            if self.idle_left == 0 {
                // That was the last idle die: the array is full until the
                // earliest of them is done.
                self.all_busy_until = self.next_idle_at();
            }
        }
        done
    }

    /// Adds `dur` of busy time to *every* die (used to model a synchronous
    /// GC sweep stealing the whole array).
    pub fn delay_all(&mut self, now: SimTime, dur: SimDuration) {
        for b in &mut self.busy_until {
            let start = (*b).max(now);
            *b = start + dur;
        }
        // Every die moved by the same rule, and so does the bound.
        self.all_busy_until = self.all_busy_until.max(now) + dur;
    }

    /// Earliest time any die becomes idle.
    pub fn next_idle_at(&self) -> SimTime {
        // `new` rejects an empty array, so the fold always meets a die.
        self.busy_until
            .iter()
            .fold(SimTime::MAX, |first, &t| first.min(t))
    }

    /// Jittered duration for one operation: normal noise around `base` with
    /// the profile's relative stddev, clamped to ±3σ and never below a
    /// quarter of the base.
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
    fn finds_idle_round_robin() {
        let mut a = ChipArray::new(3);
        let t = SimTime::ZERO;
        assert_eq!(a.find_idle(t), Some(0));
        a.start_op(0, t, SimDuration::from_micros(100));
        assert_eq!(a.find_idle(t), Some(1));
        a.start_op(1, t, SimDuration::from_micros(100));
        assert_eq!(a.find_idle(t), Some(2));
        a.start_op(2, t, SimDuration::from_micros(100));
        assert_eq!(a.find_idle(t), None);
        assert_eq!(a.idle_count(t), 0);
    }

    #[test]
    fn ops_complete_and_free_die() {
        let mut a = ChipArray::new(1);
        let done = a.start_op(0, us(10), SimDuration::from_micros(5));
        assert_eq!(done, us(15));
        assert_eq!(a.find_idle(us(14)), None);
        assert_eq!(a.find_idle(us(15)), Some(0));
    }

    #[test]
    fn delay_all_pushes_busy_time() {
        let mut a = ChipArray::new(2);
        a.start_op(0, us(0), SimDuration::from_micros(10));
        a.delay_all(us(0), SimDuration::from_micros(20));
        // die 0: busy till 10, +20 = 30. die 1: idle, 0+20 = 20.
        assert_eq!(a.find_idle(us(19)), None);
        assert_eq!(a.find_idle(us(20)), Some(1));
        assert_eq!(a.find_idle(us(29)), Some(1));
        assert!(a.idle_count(us(30)) == 2);
    }

    #[test]
    fn next_idle_is_min() {
        let mut a = ChipArray::new(2);
        a.start_op(0, us(0), SimDuration::from_micros(30));
        a.start_op(1, us(0), SimDuration::from_micros(10));
        assert_eq!(a.next_idle_at(), us(10));
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
