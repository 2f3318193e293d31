//! [`RunSet`] — a sorted-run set for dense, mostly-contiguous `u64` keys.
//!
//! The device's drain bookkeeping (flush / preflush / FUA pending-program
//! sets) tracks *cache destage sequences*: bump-allocated, snapshotted in
//! ascending order, and retired one by one. A `HashSet` spends a hash and
//! a probe per membership change on keys that are, in practice, one or two
//! contiguous ranges. This set stores them as sorted half-open runs
//! `[start, end)`: building from a sorted snapshot coalesces into O(runs)
//! memory, membership is a binary search over runs, and removal splits at
//! most one run. For the drain workload (runs ≈ 1) every operation is
//! effectively O(1) with two `u64`s of storage.

/// A set of `u64` keys stored as sorted, disjoint, non-adjacent half-open
/// runs `[start, end)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSet {
    runs: Vec<(u64, u64)>,
    len: usize,
}

impl RunSet {
    /// An empty set.
    pub fn new() -> RunSet {
        RunSet::default()
    }

    /// Builds from an ascending key sequence, coalescing adjacent keys
    /// into runs.
    ///
    /// # Panics
    ///
    /// Panics on `u64::MAX` (see [`RunSet::insert`]); debug-asserts that
    /// the input is strictly ascending (the cache's pending-sequence
    /// snapshots are; an unsorted source must insert one by one instead).
    pub fn from_sorted(keys: impl IntoIterator<Item = u64>) -> RunSet {
        let mut set = RunSet::new();
        set.extend_sorted(keys);
        set
    }

    /// Appends an ascending key sequence lying wholly above the keys
    /// already present, coalescing adjacent keys into runs. A set that was
    /// drained to empty keeps its run storage, so refilling it this way
    /// does not allocate once it has held as many runs before.
    ///
    /// # Panics
    ///
    /// As [`RunSet::from_sorted`].
    pub fn extend_sorted(&mut self, keys: impl IntoIterator<Item = u64>) {
        for k in keys {
            assert_ne!(k, u64::MAX, "RunSet keys must be below u64::MAX");
            if let Some((_, end)) = self.runs.last_mut() {
                debug_assert!(k >= *end, "extend_sorted input not ascending at {k}");
                if k == *end {
                    *end += 1;
                    self.len += 1;
                    continue;
                }
            }
            self.runs.push((k, k + 1));
            self.len += 1;
        }
    }

    /// The largest key in the set.
    pub fn last(&self) -> Option<u64> {
        self.runs.last().map(|&(_, end)| end - 1)
    }

    /// Number of keys in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of stored runs (diagnostics; memory is proportional to it).
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// Index of the run containing `key`, if any.
    fn run_of(&self, key: u64) -> Option<usize> {
        let idx = self.runs.partition_point(|&(start, _)| start <= key);
        if idx == 0 {
            return None;
        }
        (key < self.runs[idx - 1].1).then_some(idx - 1)
    }

    /// True when `key` is in the set.
    pub fn contains(&self, key: u64) -> bool {
        self.run_of(key).is_some()
    }

    /// Inserts `key`; returns false if it was already present. Extends or
    /// merges neighbouring runs where possible.
    ///
    /// # Panics
    ///
    /// Panics on `u64::MAX`: the half-open `[start, end)` representation
    /// cannot express a run ending past it, and a wrapped `end` would
    /// corrupt the set silently. The intended keys are bump-allocated
    /// sequences, which never get near the limit — like [`PagedMap`]'s
    /// key cap, an absurd key must fail loudly.
    ///
    /// [`PagedMap`]: crate::PagedMap
    pub fn insert(&mut self, key: u64) -> bool {
        assert_ne!(key, u64::MAX, "RunSet keys must be below u64::MAX");
        if self.contains(key) {
            return false;
        }
        // First run strictly after `key`.
        let idx = self.runs.partition_point(|&(start, _)| start <= key);
        let touches_prev = idx > 0 && self.runs[idx - 1].1 == key;
        let touches_next = idx < self.runs.len() && self.runs[idx].0 == key + 1;
        match (touches_prev, touches_next) {
            (true, true) => {
                // Bridges two runs: merge them.
                self.runs[idx - 1].1 = self.runs[idx].1;
                self.runs.remove(idx);
            }
            (true, false) => self.runs[idx - 1].1 += 1,
            (false, true) => self.runs[idx].0 -= 1,
            (false, false) => self.runs.insert(idx, (key, key + 1)),
        }
        self.len += 1;
        true
    }

    /// Removes `key`; returns false if it was absent. Splits the
    /// containing run when the key is interior.
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(i) = self.run_of(key) else {
            return false;
        };
        let (start, end) = self.runs[i];
        match (key == start, key + 1 == end) {
            (true, true) => {
                self.runs.remove(i);
            }
            (true, false) => self.runs[i].0 += 1,
            (false, true) => self.runs[i].1 -= 1,
            (false, false) => {
                self.runs[i].1 = key;
                self.runs.insert(i + 1, (key + 1, end));
            }
        }
        self.len -= 1;
        true
    }

    /// Iterates over the keys in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|&(start, end)| start..end)
    }
}

impl FromIterator<u64> for RunSet {
    /// Collects arbitrary-order keys (duplicates ignored).
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> RunSet {
        let mut set = RunSet::new();
        for k in iter {
            set.insert(k);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sorted_coalesces_contiguous_keys() {
        let s = RunSet::from_sorted([3, 4, 5, 9, 10, 20]);
        assert_eq!(s.len(), 6);
        assert_eq!(s.runs(), 3);
        assert!(s.contains(4) && s.contains(9) && s.contains(20));
        assert!(!s.contains(6) && !s.contains(0) && !s.contains(21));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 4, 5, 9, 10, 20]);
    }

    #[test]
    fn extend_sorted_refills_a_drained_set_and_tracks_last() {
        let mut s = RunSet::from_sorted([3, 4, 9]);
        assert_eq!(s.last(), Some(9));
        s.extend_sorted([10, 12]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 4, 9, 10, 12]);
        assert_eq!((s.runs(), s.last()), (3, Some(12)));
        for k in [3, 4, 9, 10, 12] {
            assert!(s.remove(k));
        }
        assert_eq!(s.last(), None);
        s.extend_sorted(20..24);
        assert_eq!((s.len(), s.runs(), s.last()), (4, 1, Some(23)));
    }

    #[test]
    fn remove_splits_and_drains() {
        let mut s = RunSet::from_sorted(0..8);
        assert_eq!(s.runs(), 1);
        assert!(s.remove(3), "interior removal splits the run");
        assert_eq!(s.runs(), 2);
        assert!(!s.contains(3));
        assert!(!s.remove(3), "double remove detected");
        for k in [0, 1, 2, 4, 5, 6, 7] {
            assert!(s.remove(k), "removing {k}");
        }
        assert!(s.is_empty());
        assert_eq!(s.runs(), 0);
    }

    #[test]
    fn edge_removals_shrink_runs() {
        let mut s = RunSet::from_sorted(10..14);
        assert!(s.remove(10), "front");
        assert!(s.remove(13), "back");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![11, 12]);
        assert_eq!(s.runs(), 1);
    }

    #[test]
    fn insert_merges_neighbours() {
        let mut s = RunSet::new();
        assert!(s.insert(5));
        assert!(s.insert(7));
        assert_eq!(s.runs(), 2);
        assert!(s.insert(6), "bridge merges both runs");
        assert_eq!(s.runs(), 1);
        assert!(!s.insert(6), "duplicate insert detected");
        assert!(s.insert(4));
        assert!(s.insert(8));
        assert_eq!(s.runs(), 1);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn from_iter_accepts_unordered_input() {
        let s: RunSet = [9u64, 2, 3, 9, 1].into_iter().collect();
        assert_eq!(s.len(), 4, "duplicate ignored");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2, 3, 9]);
    }

    #[test]
    fn max_key_is_rejected_loudly() {
        // u64::MAX cannot be represented as a half-open run; it must fail
        // with a clear message, not wrap and corrupt the set.
        let hit = std::panic::catch_unwind(|| {
            let mut s = RunSet::new();
            s.insert(u64::MAX);
        });
        assert!(hit.is_err());
        let near = u64::MAX - 1;
        let mut s = RunSet::new();
        assert!(s.insert(near), "the largest representable key works");
        assert!(s.contains(near));
        assert!(s.remove(near));
    }

    #[test]
    fn empty_set_behaves() {
        let mut s = RunSet::new();
        assert!(s.is_empty());
        assert!(!s.contains(0));
        assert!(!s.remove(0));
        assert_eq!(s.iter().count(), 0);
    }
}
