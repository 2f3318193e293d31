//! Reductions from per-pass and per-cell samples to one reported number.

use bio_sim::{LatencySummary, SimDuration};

/// Samples that must lie beyond a percentile before it is reported
/// (choosing-metrics §1).
pub const MIN_SAMPLES_BEYOND: u64 = 10;

/// Median (mean of the middle two for an even count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Geometric mean — the reduction over a stack's variants, so a 10 %
/// change on a 200 Tx/s cell weighs as much as on a 100k Tx/s cell.
/// `None` when empty or when any value is not strictly positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// A tail percentile of a [`LatencySummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tail {
    /// Median — always reportable.
    P50,
    /// 95th percentile.
    P95,
    /// 99th percentile.
    P99,
    /// 99.9th percentile.
    P999,
    /// 99.99th percentile.
    P9999,
}

impl Tail {
    const ALL: [Tail; 5] = [Tail::P50, Tail::P95, Tail::P99, Tail::P999, Tail::P9999];

    /// Samples expected beyond this percentile out of `n`.
    fn beyond(self, n: u64) -> u64 {
        // Exact integer arithmetic: n / 2, n / 20, n / 100, ...
        match self {
            Tail::P50 => n / 2,
            Tail::P95 => n / 20,
            Tail::P99 => n / 100,
            Tail::P999 => n / 1_000,
            Tail::P9999 => n / 10_000,
        }
    }

    /// The summary's value at this percentile.
    pub fn of(self, s: &LatencySummary) -> SimDuration {
        match self {
            Tail::P50 => s.p50,
            Tail::P95 => s.p95,
            Tail::P99 => s.p99,
            Tail::P999 => s.p999,
            Tail::P9999 => s.p9999,
        }
    }

    /// Display label (`p99`).
    pub fn label(self) -> &'static str {
        match self {
            Tail::P50 => "p50",
            Tail::P95 => "p95",
            Tail::P99 => "p99",
            Tail::P999 => "p99.9",
            Tail::P9999 => "p99.99",
        }
    }
}

/// The highest percentile with at least [`MIN_SAMPLES_BEYOND`] samples
/// beyond it in a distribution of `n` samples (the median when even that
/// is too thin).
pub fn highest_supported_tail(n: u64) -> Tail {
    Tail::ALL
        .into_iter()
        .rev()
        .find(|t| t.beyond(n) >= MIN_SAMPLES_BEYOND)
        .unwrap_or(Tail::P50)
}

/// The tail every cell of a set supports: the rule applied to the
/// smallest cell, capped at p99 (the metric names say `p99`).
pub fn common_tail(sample_counts: impl IntoIterator<Item = u64>) -> Tail {
    let smallest = sample_counts.into_iter().min().unwrap_or(0);
    highest_supported_tail(smallest).min(Tail::P99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_weighs_ratios_not_magnitudes() {
        let g = geomean(&[100.0, 10_000.0]).unwrap();
        assert!((g - 1_000.0).abs() < 1e-6);
        // Doubling the small cell moves it as much as doubling the big one.
        let a = geomean(&[200.0, 10_000.0]).unwrap();
        let b = geomean(&[100.0, 20_000.0]).unwrap();
        assert!((a - b).abs() < 1e-6);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_tail(0), Tail::P50);
        assert_eq!(highest_supported_tail(19), Tail::P50);
        assert_eq!(highest_supported_tail(20), Tail::P50);
        assert_eq!(highest_supported_tail(199), Tail::P50);
        assert_eq!(highest_supported_tail(200), Tail::P95);
        assert_eq!(highest_supported_tail(999), Tail::P95);
        assert_eq!(highest_supported_tail(1_000), Tail::P99);
        assert_eq!(highest_supported_tail(2_000), Tail::P99);
        assert_eq!(highest_supported_tail(10_000), Tail::P999);
        assert_eq!(highest_supported_tail(100_000), Tail::P9999);
    }

    #[test]
    fn common_tail_follows_the_smallest_cell_and_caps_at_p99() {
        assert_eq!(common_tail([2_000, 50_000, 1_000_000]), Tail::P99);
        assert_eq!(common_tail([500, 50_000]), Tail::P95);
        assert_eq!(common_tail([1_000_000, 2_000_000]), Tail::P99);
        assert_eq!(common_tail([]), Tail::P50);
    }

    #[test]
    fn tail_reads_the_matching_summary_field() {
        let s = LatencySummary {
            count: 5_000,
            p50: SimDuration::from_micros(10),
            p95: SimDuration::from_micros(20),
            p99: SimDuration::from_micros(30),
            ..LatencySummary::default()
        };
        assert_eq!(Tail::P99.of(&s), SimDuration::from_micros(30));
        assert_eq!(Tail::P50.of(&s), SimDuration::from_micros(10));
        assert_eq!(Tail::P95.label(), "p95");
    }
}
