//! Latency statistics: histograms and percentile summaries.
//!
//! The paper reports mean / median / p99 / p99.9 / p99.99 fsync latencies
//! (Table 1), so the histogram here is built to answer exactly those
//! queries. It is a log-bucketed histogram (HdrHistogram-style, 64 buckets
//! per power of two) with bounded relative error, so millions of samples
//! cost constant memory.
//!
//! ```
//! use bio_sim::{LatencyHistogram, SimDuration};
//!
//! let mut h = LatencyHistogram::new();
//! for us in 1..=1000u64 {
//!     h.record(SimDuration::from_micros(us));
//! }
//! let s = h.summary();
//! assert!(s.p50 >= SimDuration::from_micros(480) && s.p50 <= SimDuration::from_micros(520));
//! ```

use core::fmt;

use crate::time::SimDuration;

/// Sub-bucket resolution: 64 linear buckets per power-of-two span gives a
/// worst-case relative quantile error of ~1.6%.
const SUB_BUCKET_BITS: u32 = 6;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// A log-bucketed latency histogram with percentile queries.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// counts[exp][sub]: exp indexes the power-of-two span of the value.
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // 64 exponent spans cover the entire u64 nanosecond range.
        LatencyHistogram {
            counts: vec![0; 64 * SUB_BUCKETS],
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    fn index_of(ns: u64) -> usize {
        if ns < SUB_BUCKETS as u64 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let shift = exp - SUB_BUCKET_BITS;
        let sub = ((ns >> shift) as usize) & (SUB_BUCKETS - 1);
        ((exp - SUB_BUCKET_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    /// Midpoint value represented by bucket `idx` (inverse of `index_of`).
    fn value_of(idx: usize) -> u64 {
        let span = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        if span == 0 {
            return sub;
        }
        let exp = span as u32 + SUB_BUCKET_BITS - 1;
        let base = 1u64 << exp;
        let shift = exp - SUB_BUCKET_BITS;
        base + (sub << shift) + (1u64 << shift) / 2
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        self.counts[Self::index_of(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Arithmetic mean of all samples ([`SimDuration::ZERO`] when empty).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_ns / self.total as u128) as u64)
    }

    /// Smallest recorded sample ([`SimDuration::ZERO`] when empty).
    pub fn min(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Value at quantile `q` in `[0, 1]` (bucket-midpoint approximation,
    /// ~1.6% relative error). Returns zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        // The extreme ranks are tracked exactly.
        if rank == 1 {
            return SimDuration::from_nanos(self.min_ns);
        }
        if rank == self.total {
            return SimDuration::from_nanos(self.max_ns);
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp to observed extremes so q=0/q=1 are exact.
                let v = Self::value_of(idx).clamp(self.min_ns, self.max_ns);
                return SimDuration::from_nanos(v);
            }
        }
        SimDuration::from_nanos(self.max_ns)
    }

    /// The percentile summary: the paper's Table 1 shape (mean / median /
    /// p99 / p99.9 / p99.99) plus p95 for the server-workload latency
    /// tables (fig16).
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.total,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            p9999: self.quantile(0.9999),
            max: self.max(),
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Clears all recorded samples.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum_ns = 0;
        self.min_ns = u64::MAX;
        self.max_ns = 0;
    }
}

/// Mean and tail percentiles of a latency distribution (Table 1 shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// 99.9th percentile.
    pub p999: SimDuration,
    /// 99.99th percentile.
    pub p9999: SimDuration,
    /// Maximum observed.
    pub max: SimDuration,
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p95={} p99={} p99.9={} p99.99={} max={}",
            self.count, self.mean, self.p50, self.p95, self.p99, self.p999, self.p9999, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.quantile(0.99), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
    }

    #[test]
    fn single_sample_summary() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_micros(123));
        let s = h.summary();
        assert_eq!(s.count, 1);
        // Bucketed values carry ~1.6% relative error.
        let err = (s.p50.as_nanos() as f64 - 123_000.0).abs() / 123_000.0;
        assert!(err < 0.02, "p50 error {err}");
        assert_eq!(s.max, SimDuration::from_micros(123));
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = LatencyHistogram::new();
        for us in 1..=10_000u64 {
            h.record(SimDuration::from_micros(us));
        }
        let check = |q: f64, expect_us: f64| {
            let got = h.quantile(q).as_nanos() as f64 / 1000.0;
            let err = (got - expect_us).abs() / expect_us;
            assert!(err < 0.03, "q={q}: got {got}us want {expect_us}us");
        };
        check(0.5, 5_000.0);
        check(0.95, 9_500.0);
        check(0.99, 9_900.0);
        check(0.999, 9_990.0);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_nanos(100));
        h.record(SimDuration::from_nanos(300));
        assert_eq!(h.mean(), SimDuration::from_nanos(200));
    }

    #[test]
    fn extremes_are_exact() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_nanos(17));
        h.record(SimDuration::from_millis(90));
        assert_eq!(h.min(), SimDuration::from_nanos(17));
        assert_eq!(h.max(), SimDuration::from_millis(90));
        // q=0 / q=1 clamp to observed extremes.
        assert_eq!(h.quantile(0.0), SimDuration::from_nanos(17));
        assert_eq!(h.quantile(1.0), SimDuration::from_millis(90));
    }

    #[test]
    fn small_values_are_exact() {
        // Values below SUB_BUCKETS land in unit-width buckets.
        let mut h = LatencyHistogram::new();
        for ns in 0..SUB_BUCKETS as u64 {
            h.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(h.quantile(0.0), SimDuration::ZERO);
        assert_eq!(h.count(), SUB_BUCKETS as u64);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(SimDuration::from_micros(10));
        b.record(SimDuration::from_micros(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), SimDuration::from_micros(1000));
        assert_eq!(a.min(), SimDuration::from_micros(10));
    }

    #[test]
    fn reset_clears() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_micros(5));
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_rejects_bad_input() {
        LatencyHistogram::new().quantile(1.5);
    }

    #[test]
    fn index_value_roundtrip_error_bounded() {
        for ns in [1u64, 63, 64, 65, 1000, 4096, 1 << 20, (1 << 40) + 12345] {
            let idx = LatencyHistogram::index_of(ns);
            let v = LatencyHistogram::value_of(idx);
            let err = (v as f64 - ns as f64).abs() / ns as f64;
            assert!(err < 0.016, "ns={ns} v={v} err={err}");
        }
    }
}
