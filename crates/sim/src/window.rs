//! The time-weighted mean and peak of a step function over one window, in
//! constant memory.
//!
//! Figures 10 and 12 of the paper plot the device command-queue depth, and
//! the stack reports its mean and peak over the measured window. The
//! device records its occupancy at every change; [`StepWindow`] folds each
//! step into a running integral as it is superseded, so a long run keeps
//! three numbers and one point instead of every step it ever took.
//!
//! The fold reads exactly what a stored step series would: a value holds
//! from its point until the next one; points at the same instant overwrite
//! (the state at the end of an event cascade); a point repeating the
//! previous value is no step. The mean over `[from, to)` and the peak (the
//! value carried into the window and every point inside it) are computed
//! with the same floating-point operations in the same order as a scan
//! over the stored points, so they are bit-identical to it.

use crate::time::SimTime;

/// A step function's mean and peak since the last [`StepWindow::reset`].
#[derive(Debug, Clone, Default)]
pub struct StepWindow {
    /// Start of the window.
    from: SimTime,
    /// The newest point. It is not folded yet: a point at the same
    /// instant may still overwrite it.
    last: Option<(SimTime, f64)>,
    /// `value × ns` over the folded steps from `from` to `cursor`.
    acc: f64,
    /// The newest folded point inside the window, or `from`.
    cursor: SimTime,
    /// The value in effect from `cursor` on (0 before any point).
    value: f64,
    /// The value carried into the window and every folded point after
    /// `from`, at most.
    peak: f64,
}

impl StepWindow {
    /// A window from time zero over a function that is 0 until its first
    /// point.
    pub fn new() -> StepWindow {
        StepWindow::default()
    }

    /// Records that the value became `value` at time `t`.
    ///
    /// Out-of-order points are a logic error and panic in debug builds.
    pub fn record(&mut self, t: SimTime, value: f64) {
        if let Some(last) = &mut self.last {
            debug_assert!(last.0 <= t, "step window went backwards");
            if last.0 == t {
                last.1 = value;
                return;
            }
            if (last.1 - value).abs() < f64::EPSILON {
                return;
            }
            let settled = *last;
            self.fold(settled);
        }
        self.last = Some((t, value));
    }

    /// Folds a superseded point into the window.
    fn fold(&mut self, (t, v): (SimTime, f64)) {
        if t > self.from {
            self.acc += self.value * t.since(self.cursor).as_nanos() as f64;
            self.cursor = t;
            self.peak = self.peak.max(v);
        } else {
            // At or before the window's start: the value carried into it.
            self.peak = v;
        }
        self.value = v;
    }

    /// Starts a new window at `at`, which must not precede the newest
    /// point.
    pub fn reset(&mut self, at: SimTime) {
        debug_assert!(
            self.last.is_none_or(|(t, _)| t <= at),
            "step window reset before its newest point"
        );
        self.from = at;
        self.acc = 0.0;
        self.cursor = at;
        self.peak = self.value;
    }

    /// Time-weighted mean over the window, up to `to`; 0 for an empty window or a
    /// function with no point. `to` must not precede the newest point.
    pub fn mean(&self, to: SimTime) -> f64 {
        let Some((t, v)) = self.last else {
            return 0.0;
        };
        if to <= self.from {
            return 0.0;
        }
        let (mut acc, mut cursor, mut value) = (self.acc, self.cursor, self.value);
        if t <= self.from {
            value = v;
        } else if t < to {
            acc += value * t.since(cursor).as_nanos() as f64;
            cursor = t;
            value = v;
        }
        acc += value * to.since(cursor).as_nanos() as f64;
        acc / to.since(self.from).as_nanos() as f64
    }

    /// Peak over the window, up to `to`: the value carried into the window and
    /// every point before `to`. `to` must not precede the newest point.
    pub fn peak(&self, to: SimTime) -> f64 {
        match self.last {
            Some((t, v)) if t <= self.from => v,
            Some((t, v)) if t < to => self.peak.max(v),
            _ => self.peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    #[test]
    fn mean_of_a_step() {
        // 0 until t=10, then 2 until t=20, then 4.
        let mut w = StepWindow::new();
        w.record(us(10), 2.0);
        w.record(us(20), 4.0);
        // Window [0, 20): half zero, half 2 -> 1.0
        assert_eq!(w.mean(us(20)), 1.0);
        // Window [20, 30): 4 throughout.
        w.reset(us(20));
        assert_eq!(w.mean(us(30)), 4.0);
        assert_eq!(w.mean(us(20)), 0.0, "an empty window");
    }

    #[test]
    fn peak_counts_the_carried_value_and_not_the_point_at_to() {
        let mut w = StepWindow::new();
        w.record(us(10), 2.0);
        w.record(us(20), 9.0);
        w.reset(us(21));
        assert_eq!(w.peak(us(25)), 9.0, "carried into the window");
        w.record(us(30), 1.0);
        assert_eq!(w.peak(us(30)), 9.0, "the point at `to` is outside");
        w.reset(us(31));
        assert_eq!(w.peak(us(40)), 1.0);
    }

    #[test]
    fn a_point_at_the_reset_instant_is_the_carried_value() {
        let mut w = StepWindow::new();
        w.record(us(10), 5.0);
        w.reset(us(10));
        w.record(us(10), 1.0);
        assert_eq!((w.mean(us(20)), w.peak(us(20))), (1.0, 1.0));
    }

    #[test]
    fn a_function_with_no_point_reads_zero() {
        let w = StepWindow::new();
        assert_eq!((w.mean(us(5)), w.peak(us(5))), (0.0, 0.0));
    }

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }

    /// Mean and peak up to `to` nanoseconds.
    fn read(w: &StepWindow, to: u64) -> (f64, f64) {
        (w.mean(ns(to)), w.peak(ns(to)))
    }

    #[test]
    fn a_same_instant_point_overwrites_the_one_before() {
        let mut w = StepWindow::new();
        w.record(ns(10), 5.0);
        w.record(ns(10), 1.0);
        assert_eq!(read(&w, 20), (0.5, 1.0), "5 never held");
    }

    #[test]
    fn the_point_at_the_read_instant_is_not_in_the_peak() {
        let mut w = StepWindow::new();
        w.record(ns(10), 1.0);
        w.record(ns(20), 9.0);
        assert_eq!(read(&w, 20), (0.5, 1.0));
        assert_eq!(read(&w, 30), (100.0 / 30.0, 9.0));
    }

    #[test]
    fn a_repeated_value_adds_no_term() {
        // 25/3 × 25 ns is not 25/3 × 10 ns + 25/3 × 15 ns in floating point:
        // a second step at 20 ns would move the mean's last bit.
        let v = 25.0 / 3.0;
        let mut w = StepWindow::new();
        w.record(ns(10), v);
        w.record(ns(20), v);
        assert_eq!(read(&w, 35), (v * 25.0 / 35.0, v));
    }

    #[test]
    fn a_reset_at_an_instant_holding_a_point_carries_it_and_its_overwrite() {
        let mut w = StepWindow::new();
        w.record(ns(10), 4.0);
        w.record(ns(20), 8.0);
        w.reset(ns(20));
        assert_eq!(read(&w, 20), (0.0, 8.0), "an empty window");
        assert_eq!(read(&w, 30), (8.0, 8.0));
        w.record(ns(20), 2.0);
        assert_eq!(read(&w, 30), (2.0, 2.0));
        w.record(ns(25), 6.0);
        assert_eq!(read(&w, 30), (4.0, 6.0));
    }
}
