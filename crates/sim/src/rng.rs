//! Deterministic pseudo-random number generation.
//!
//! Every stochastic element of the simulation (workload addresses, latency
//! jitter, crash points, orderless persist subsets) draws from [`SimRng`], a
//! xoshiro256++ generator seeded explicitly. Identical seeds produce
//! identical simulations, which is what makes the experiment harness and the
//! property tests reproducible.
//!
//! ```
//! use bio_sim::SimRng;
//!
//! let mut a = SimRng::new(42);
//! let mut b = SimRng::new(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

/// A deterministic xoshiro256++ PRNG.
///
/// Not cryptographically secure; intended purely for simulation
/// reproducibility. The state is seeded via SplitMix64 so that even trivial
/// seeds (0, 1, 2, ...) produce well-mixed streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "SimRng::below called with zero bound");
        // Lemire's multiply-then-shift rejection-free-enough reduction; the
        // modulo bias for 64-bit state and simulation-sized bounds is
        // negligible, but we still do one rejection pass for exactness.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let (hi, lo) = {
                let wide = (r as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "SimRng::range: lo > hi");
        if lo == hi {
            return lo;
        }
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// Used for arrival-process jitter. Returns 0 for non-positive means.
    pub fn exp(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u = 1.0 - self.f64(); // (0, 1]
        -mean * u.ln()
    }

    /// A crude normal via the central limit theorem (12 uniforms); good
    /// enough for latency jitter and avoids pulling in special functions.
    pub fn normal(&mut self, mean: f64, stddev: f64) -> f64 {
        let mut acc = 0.0;
        for _ in 0..12 {
            acc += self.f64();
        }
        mean + (acc - 6.0) * stddev
    }

    /// Chooses a uniformly random element of `items`, or `None` when empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len() as u64) as usize])
        }
    }

    /// Fisher–Yates shuffles `items` in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SimRng::new(3);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn range_is_inclusive() {
        let mut rng = SimRng::new(4);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = rng.range(5, 8);
            assert!((5..=8).contains(&v));
            seen_lo |= v == 5;
            seen_hi |= v == 8;
        }
        assert!(seen_lo && seen_hi, "range endpoints should both occur");
        assert_eq!(rng.range(9, 9), 9);
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = SimRng::new(5);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn exp_has_requested_mean() {
        let mut rng = SimRng::new(6);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exp(100.0)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 5.0, "exp mean {mean} off");
        assert_eq!(rng.exp(0.0), 0.0);
    }

    #[test]
    fn normal_has_requested_moments() {
        let mut rng = SimRng::new(8);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1);
        assert!((var.sqrt() - 2.0).abs() < 0.1);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(10);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.1));
    }

    #[test]
    fn choose_and_shuffle() {
        let mut rng = SimRng::new(11);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        let items = [1, 2, 3];
        assert!(items.contains(rng.choose(&items).unwrap()));

        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle should permute");
    }
}
