//! Vendored minimal stand-in for the `proptest` property-testing harness.
//!
//! Implements only the API surface this workspace's tests use (see
//! `crates/compat/README.md`): [`proptest!`], [`strategy::Strategy`] for
//! integer ranges, [`collection::vec`], [`test_runner::ProptestConfig`]
//! and the `prop_assert*` macros. Inputs come from a fixed per-case seed,
//! so every run — local or CI — exercises the same deterministic cases and
//! any failure message pinpoints a reproducible case index. No shrinking.

#![forbid(unsafe_code)]

pub mod strategy {
    //! Value-generation strategies (minimal subset).

    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Generates values of type `Value` from a seeded RNG.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;
        /// Produces one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    /// `Strategy` is object-safe enough for our use via `&S`; blanket-impl
    /// references so strategies can be passed without moving.
    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),+) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64) - (self.start as u64);
                    self.start + (rng.next_u64() % span) as $t
                }
            }
        )+};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    // Tuple strategies, like the real crate's: each component generates in
    // order, so `(0u64..10, 0u8..4)` yields pairs. Used by the event-queue
    // property tests for `(time, payload)` schedules and the dense-index
    // equivalence suites for `(op, lba, selector, flag)` workloads.
    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )+};
    }
    tuple_strategy!(
        (A.0, B.1),
        (A.0, B.1, C.2),
        (A.0, B.1, C.2, D.3),
        (A.0, B.1, C.2, D.3, E.4),
    );
}

pub mod bool {
    //! Boolean strategies, mirroring `proptest::bool`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy generating `true`/`false` with equal probability.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The canonical boolean strategy (`proptest::bool::ANY`).
    pub const ANY: Any = Any;
}

pub mod collection {
    //! Strategies for collections (minimal subset).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy producing `Vec`s with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Creates a strategy for `Vec`s of `element` values, `size` elements
    /// long (half-open range, like `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! The deterministic case runner behind [`crate::proptest!`].

    /// Per-test configuration; only `cases` is supported.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of deterministic cases to run.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 32 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// A failed property, carrying the formatted assertion message.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// SplitMix64: tiny, dependency-free, deterministic per `(test, case)`.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for one case of one named test. The name participates in
        /// the seed so distinct tests see distinct streams.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            let mut seed =
                0x9e37_79b9_7f4a_7c15u64 ^ (case as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            for b in test_name.bytes() {
                seed = seed.rotate_left(8) ^ (b as u64).wrapping_mul(0x94d0_49bb_1331_11eb);
            }
            TestRng { state: seed }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Namespace mirroring `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
    }
}

/// Fails the current case with a message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "{}: {:?} != {:?}",
            format!($($fmt)+),
            l,
            r
        );
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} == {:?}", l, r);
    }};
}

/// Declares deterministic property tests. Supports the subset of the real
/// macro's grammar used in this repository:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(24))]
///     /// docs
///     #[test]
///     fn my_property(x in 0u64..10, v in prop::collection::vec(0u8..4, 1..9)) {
///         prop_assert_eq!(x, x);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

/// Implementation detail of [`proptest!`]: expands each test fn.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut __rng =
                    $crate::test_runner::TestRng::for_case(stringify!($name), case);
                $(
                    let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                )+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!("proptest case {case} of {} failed: {e}", stringify!($name));
                }
            }
        }
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
}
