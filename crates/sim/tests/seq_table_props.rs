//! Property tests for [`SeqTable`] and [`PagedMap`] against `HashMap`
//! references: the dense tables must behave exactly like maps for every
//! random workload of bump-allocated (but possibly out-of-order-used) keys.

use std::collections::HashMap;

use bio_sim::{PagedMap, SeqTable};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bump-allocated keys, used (inserted/removed/probed) in arbitrary
    /// order: `SeqTable` matches a `HashMap` on every observable.
    #[test]
    fn seq_table_matches_hashmap(
        ops in prop::collection::vec((0u8..4, 0u64..64), 1..120)
    ) {
        let mut table: SeqTable<u64> = SeqTable::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut allocated: Vec<u64> = Vec::new();
        let mut next_key = 0u64;
        for (op, sel) in ops {
            match op {
                0 | 1 => {
                    // Allocate a fresh key; occasionally skip numbers, as
                    // coalescing request allocators do.
                    next_key += 1 + (sel % 3);
                    let key = next_key;
                    allocated.push(key);
                    prop_assert_eq!(table.insert(key, sel), model.insert(key, sel));
                }
                2 => {
                    if !allocated.is_empty() {
                        let key = allocated[(sel as usize) % allocated.len()];
                        prop_assert_eq!(table.remove(key), model.remove(&key));
                    }
                }
                _ => {
                    // Probe known keys plus never-allocated ones.
                    let key = sel;
                    prop_assert_eq!(table.get(key).copied(), model.get(&key).copied());
                    prop_assert_eq!(table.contains(key), model.contains_key(&key));
                }
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
            let mut expect: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            expect.sort();
            let got: Vec<(u64, u64)> = table.iter().map(|(k, &v)| (k, v)).collect();
            prop_assert_eq!(&got, &expect, "iteration must be key-ordered and complete");
            // From-key iteration is the suffix of the full walk, wherever
            // the key falls: below the window, in a hole, past the end.
            let suffix: Vec<(u64, u64)> = table.iter_from(sel).map(|(k, &v)| (k, v)).collect();
            expect.retain(|&(k, _)| k >= sel);
            prop_assert_eq!(suffix, expect, "iter_from({}) must be the >= suffix", sel);
            prop_assert_eq!(
                table.keys().collect::<Vec<_>>(),
                got.iter().map(|&(k, _)| k).collect::<Vec<_>>()
            );
        }
    }

    /// `PagedMap` matches a `HashMap` under random insert/remove/get over
    /// a key range spanning several leaf pages (and the gaps between).
    #[test]
    fn paged_map_matches_hashmap(
        ops in prop::collection::vec((0u8..3, 0u64..40_000, 0u64..1024), 1..120)
    ) {
        let mut map: PagedMap<u64> = PagedMap::with_key_capacity(4096);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (op, key, val) in ops {
            match op {
                0 => {
                    prop_assert_eq!(map.insert(key, val), model.insert(key, val));
                }
                1 => {
                    prop_assert_eq!(map.remove(key), model.remove(&key));
                }
                _ => {
                    prop_assert_eq!(map.get(key), model.get(&key).copied());
                }
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
        }
        let mut expect: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        expect.sort();
        let got: Vec<(u64, u64)> = map.iter().collect();
        prop_assert_eq!(got, expect, "iteration must be key-ordered and complete");
    }
}
