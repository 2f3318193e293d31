//! Property tests for [`RunSet`] against a `HashSet` reference: the
//! sorted-run set must behave exactly like a hash set for every random
//! workload — the same equivalence lock the dense-index migrations use
//! (`seq_table_props.rs`, `dense_equivalence.rs`), applied to the device's
//! drain bookkeeping replacement.

use std::collections::HashSet;

use bio_sim::RunSet;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random insert/remove/contains interleavings over a small key space
    /// (maximising run splits, merges and bridges): `RunSet` matches a
    /// `HashSet` on every observable after every operation.
    #[test]
    fn run_set_matches_hashset(
        ops in prop::collection::vec((0u8..3, 0u64..48), 1..160)
    ) {
        let mut set = RunSet::new();
        let mut model: HashSet<u64> = HashSet::new();
        for (op, key) in ops {
            match op {
                0 => prop_assert_eq!(set.insert(key), model.insert(key)),
                1 => prop_assert_eq!(set.remove(key), model.remove(&key)),
                _ => prop_assert_eq!(set.contains(key), model.contains(&key)),
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            let mut expect: Vec<u64> = model.iter().copied().collect();
            expect.sort_unstable();
            prop_assert_eq!(set.last(), expect.last().copied());
            let got: Vec<u64> = set.iter().collect();
            prop_assert_eq!(got, expect, "iteration must be sorted and complete");
        }
    }

    /// The drain lifecycle: build from an ascending snapshot (with gaps),
    /// then retire keys in random order until empty — `from_sorted`
    /// agrees with element-wise insertion and the set drains exactly.
    #[test]
    fn from_sorted_then_drain_matches(
        gaps in prop::collection::vec((1u64..4, 0u64..16), 1..64)
    ) {
        let mut keys: Vec<u64> = Vec::new();
        let mut k = 0u64;
        for (gap, _) in &gaps {
            k += gap;
            keys.push(k);
        }
        let mut set = RunSet::from_sorted(keys.iter().copied());
        let built: RunSet = keys.iter().copied().collect();
        prop_assert_eq!(&set, &built, "from_sorted == insert-by-one");
        prop_assert_eq!(set.len(), keys.len());
        // Retire in a scrambled (but deterministic) order.
        let mut order = keys.clone();
        let n = order.len();
        for (i, (_, sel)) in gaps.iter().enumerate() {
            order.swap(i, (*sel as usize) % n);
        }
        let mut model: HashSet<u64> = keys.into_iter().collect();
        for key in order {
            prop_assert_eq!(set.remove(key), model.remove(&key));
            prop_assert_eq!(set.len(), model.len());
        }
        prop_assert!(set.is_empty());
        prop_assert_eq!(set.runs(), 0);
    }
}
