//! Lockstep suite for [`StepWindow`]: the stored step series it replaced,
//! kept verbatim below as the reference (`record`, `value_at`,
//! `weighted_mean`, `max_in`), is driven beside it through random step
//! sequences, and every read must agree bit for bit: the window's mean
//! with `weighted_mean(reset, to)` and its peak with `max_in(reset, to)`.
//!
//! The sequences hold same-instant overwrites, repeated values, resets at
//! an instant that already holds a point, and reads at the newest point's
//! instant. Values are tenths, so a sum split into two products rounds
//! differently from the product it replaces: a step the reference skips
//! cannot hide in the mean.

use bio_sim::{SimTime, StepWindow};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Reference: the stored step series, verbatim.
// ---------------------------------------------------------------------

/// A step-function time series: the value holds from each sample until the
/// next one.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Records that the value became `value` at time `t`.
    ///
    /// Out-of-order samples are a logic error and panic in debug builds;
    /// samples at the same instant overwrite (the last write wins, matching
    /// "state at the end of the event cascade").
    pub fn record(&mut self, t: SimTime, value: f64) {
        if let Some(last) = self.points.last_mut() {
            debug_assert!(last.0 <= t, "time series went backwards");
            if last.0 == t {
                last.1 = value;
                return;
            }
            // Skip redundant samples to bound memory on long runs.
            if (last.1 - value).abs() < f64::EPSILON {
                return;
            }
        }
        self.points.push((t, value));
    }

    /// The value in effect at time `t` (0.0 before the first sample).
    pub fn value_at(&self, t: SimTime) -> f64 {
        match self.points.binary_search_by(|p| p.0.cmp(&t)) {
            Ok(i) => self.points[i].1,
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Time-weighted mean over `[from, to)`. Returns 0 for empty windows.
    pub fn weighted_mean(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from || self.points.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0f64;
        let mut cursor = from;
        let mut value = self.value_at(from);
        let start = self.points.partition_point(|p| p.0 <= from);
        for &(t, v) in &self.points[start..] {
            if t >= to {
                break;
            }
            acc += value * t.since(cursor).as_nanos() as f64;
            cursor = t;
            value = v;
        }
        acc += value * to.since(cursor).as_nanos() as f64;
        acc / to.since(from).as_nanos() as f64
    }

    /// Maximum value observed within `[from, to)` (including the value
    /// carried into the window).
    pub fn max_in(&self, from: SimTime, to: SimTime) -> f64 {
        let mut max = self.value_at(from);
        let start = self.points.partition_point(|p| p.0 <= from);
        for &(t, v) in &self.points[start..] {
            if t >= to {
                break;
            }
            max = max.max(v);
        }
        max
    }
}

// ---------------------------------------------------------------------
// The pair under test.
// ---------------------------------------------------------------------

/// The window and the reference, fed the same steps.
struct Pair {
    window: StepWindow,
    series: TimeSeries,
    /// The last reset.
    from: SimTime,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            window: StepWindow::new(),
            series: TimeSeries::new(),
            from: SimTime::ZERO,
        }
    }

    fn record(&mut self, ns: u64, value: f64) {
        let t = SimTime::from_nanos(ns);
        self.window.record(t, value);
        self.series.record(t, value);
    }

    fn reset(&mut self, ns: u64) {
        self.from = SimTime::from_nanos(ns);
        self.window.reset(self.from);
    }

    /// Mean and peak up to `ns`, after asserting both agree bit for bit.
    fn read(&self, ns: u64) -> (f64, f64) {
        let to = SimTime::from_nanos(ns);
        let mean = self.window.mean(to);
        let peak = self.window.peak(to);
        let want_mean = self.series.weighted_mean(self.from, to);
        let want_peak = self.series.max_in(self.from, to);
        assert_eq!(
            (mean.to_bits(), peak.to_bits()),
            (want_mean.to_bits(), want_peak.to_bits()),
            "window reads ({mean}, {peak}), series ({want_mean}, {want_peak}) over [{}, {to})",
            self.from
        );
        (mean, peak)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random steps, resets and reads. `dt` 0 lands on the newest
    /// instant: an overwrite, a reset where a point already is, or a read
    /// at the last event's instant; values repeat often.
    #[test]
    fn the_window_matches_the_stored_series_bit_for_bit(
        ops in prop::collection::vec((0u8..6, 0u64..4, 0u64..7), 1..200)
    ) {
        let mut pair = Pair::new();
        let mut now = 0u64;
        for (op, dt, v) in ops {
            // Mostly short steps, now and then a long one.
            let dt = if dt == 3 { 1_000 + v * 977 } else { dt * 13 };
            match op {
                0..=2 => {
                    now += dt;
                    pair.record(now, v as f64 * 0.1);
                }
                3 => {
                    now += dt;
                    pair.reset(now);
                }
                _ => {
                    pair.read(now + dt);
                }
            }
        }
        pair.read(now);
        pair.read(now + 1);
    }
}

#[test]
fn a_same_instant_point_overwrites_the_one_before() {
    let mut pair = Pair::new();
    pair.record(10, 5.0);
    pair.record(10, 1.0);
    assert_eq!(pair.read(20), (0.5, 1.0), "5 never held");
}

#[test]
fn the_point_at_the_read_instant_is_not_in_the_peak() {
    let mut pair = Pair::new();
    pair.record(10, 1.0);
    pair.record(20, 9.0);
    assert_eq!(pair.read(20), (0.5, 1.0));
    assert_eq!(pair.read(30), (100.0 / 30.0, 9.0));
}

#[test]
fn a_repeated_value_adds_no_term() {
    // 25/3 × 25 ns is not 25/3 × 10 ns + 25/3 × 15 ns in floating point:
    // a second step at 20 ns would move the mean's last bit.
    let v = 25.0 / 3.0;
    let mut pair = Pair::new();
    pair.record(10, v);
    pair.record(20, v);
    let (mean, peak) = pair.read(35);
    assert_eq!((mean, peak), (v * 25.0 / 35.0, v));
}

#[test]
fn a_reset_at_an_instant_holding_a_point_carries_it_and_its_overwrite() {
    let mut pair = Pair::new();
    pair.record(10, 4.0);
    pair.record(20, 8.0);
    pair.reset(20);
    assert_eq!(pair.read(20), (0.0, 8.0), "an empty window");
    assert_eq!(pair.read(30), (8.0, 8.0));
    pair.record(20, 2.0);
    assert_eq!(pair.read(30), (2.0, 2.0));
    pair.record(25, 6.0);
    assert_eq!(pair.read(30), (4.0, 6.0));
}
