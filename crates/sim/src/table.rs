//! [`SeqTable`] — a dense, sliding-window map for monotonically allocated
//! integer keys.
//!
//! Every hot-path table in the stack (cache destage sequences, in-flight
//! destage records, filesystem request continuations) is keyed by a small
//! integer handed out by a bump counter: keys are *dense*, *monotonic*, and
//! entries die roughly in allocation order. Hashing such keys is pure
//! overhead, so this table stores entries in a ring indexed by
//! `key - base`, where `base` is the oldest key that may still be live.
//!
//! ## Invariants the callers rely on
//!
//! * Keys come from a bump allocator and are never reused after removal.
//!   Insertion order may deviate from key order (e.g. the orderless
//!   destage engine starts programs out of transfer order); the window
//!   extends in both directions to absorb that.
//! * A key is detected as dead — `get`/`remove` return `None` — both when
//!   it was never inserted and when it has already been removed. Stale or
//!   replayed keys therefore cannot alias a different live entry, which is
//!   what makes graceful duplicate-completion handling possible upstack
//!   (the window base acts as the generation check).
//! * Iteration order is key order (== allocation order), which the
//!   writeback cache uses as transfer order.
//!
//! Memory is proportional to the *span* between the oldest live key and
//! the newest, not to the largest key ever allocated: completed prefixes
//! are reclaimed as the window's front advances.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// A dense, direct-indexed map from small `u64` keys to `T`, backed by a
/// page directory: `map[key]` is two loads (page pointer, slot), and
/// memory plus zero-fill cost scale with the *touched* key pages, not the
/// largest key. This matters for LBA-indexed tables: a device's address
/// space is locally dense (metadata region, journal, data extents) but can
/// have large untouched gaps between regions, which a flat `Vec` would pay
/// to zero on first touch past the gap.
///
/// `PAGE` entries make a page (4,096 unless the map says otherwise): a map
/// whose keys cluster in short runs — a crash-trace stack's few hundred
/// blocks over three regions — pays less for smaller pages, at the price
/// of a longer directory (one pointer per page up to the largest key).
///
/// A page is `PAGE` × `size_of::<Option<T>>()` bytes, allocated whole on
/// the key's first insert. When `T` is `NonZeroU64` (or another type whose
/// `None` the standard library knows is all zeroes) an entry is 8 bytes
/// and the page comes from the zeroed-allocation path, 32 KiB at 4,096 a
/// page; for any other `T` the page is filled one `None` at a time (24
/// bytes an entry for a pair of `usize`s, 16 for a `u64`).
#[derive(Debug, Clone, Default)]
pub struct PagedMap<T, const PAGE: usize = 4096> {
    pages: Vec<Option<Box<[Option<T>; PAGE]>>>,
    live: usize,
}

/// Allocates one empty leaf page directly on the heap, zeroed by the
/// allocator when `None` is all zeroes (see [`PagedMap`]). Kept out of
/// line (and cold): building the page as a stack temporary inside
/// `insert` would bloat the hot path's frame with a page-sized array and
/// make every call pay stack-probe costs.
#[cold]
#[inline(never)]
fn new_page<T: Copy, const PAGE: usize>() -> Box<[Option<T>; PAGE]> {
    match vec![None; PAGE].into_boxed_slice().try_into() {
        Ok(page) => page,
        Err(_) => unreachable!("a vector of PAGE entries is a PAGE-entry page"),
    }
}

impl<T: Copy, const PAGE: usize> PagedMap<T, PAGE> {
    /// An empty map with no directory reserved.
    pub fn new() -> PagedMap<T, PAGE> {
        PagedMap {
            pages: Vec::new(),
            live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Splits a key into (page, slot) indices. Computed in `u64` and
    /// converted with `try_from` so keys beyond `usize` range (32-bit
    /// targets) read as absent instead of aliasing a wrapped index.
    #[inline]
    fn split(key: u64) -> Option<(usize, usize)> {
        let pi = usize::try_from(key / PAGE as u64).ok()?;
        Some((pi, (key % PAGE as u64) as usize))
    }

    /// The entry at `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<T> {
        let (pi, si) = Self::split(key)?;
        let page = self.pages.get(pi)?.as_ref()?;
        page[si]
    }

    /// Inserts `value` at `key`, returning any previous entry. Allocates
    /// (and zero-fills) only the page containing `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key >= 2^32`. The map is for dense small keys (block
    /// addresses, bump-allocated ids); the directory grows linearly with
    /// the largest key's page, so an absurd key must fail loudly rather
    /// than attempt a multi-gigabyte directory allocation. 2^32 keys
    /// (a 16 TiB device at 4 KiB blocks) cap the directory at 2^32 /
    /// `PAGE` pointers: 8 MiB at 4,096 entries a page.
    #[inline]
    pub fn insert(&mut self, key: u64, value: T) -> Option<T> {
        assert!(
            key < 1 << 32,
            "PagedMap key {key} out of range: dense keys must stay below 2^32"
        );
        let (pi, si) = Self::split(key).expect("key < 2^32 splits on any target");
        if pi >= self.pages.len() {
            self.pages.resize_with(pi + 1, || None);
        }
        let page = self.pages[pi].get_or_insert_with(new_page);
        let old = page[si].replace(value);
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    /// Removes and returns the entry at `key`.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let (pi, si) = Self::split(key)?;
        let old = self.pages.get_mut(pi)?.as_mut()?[si].take();
        if old.is_some() {
            self.live -= 1;
        }
        old
    }

    /// Iterates over `(key, entry)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        self.pages.iter().enumerate().flat_map(|(pi, page)| {
            page.iter().flat_map(move |p| {
                p.iter()
                    .enumerate()
                    .filter_map(move |(si, s)| s.map(|v| ((pi * PAGE + si) as u64, v)))
            })
        })
    }
}

/// A hash map for integer keys (block addresses, positions) whose memory
/// must follow its entries: keys too scattered for a [`PagedMap`] page to
/// pay for itself and not bump-allocated like a [`SeqTable`]'s. Hashed with
/// one multiply ([`IntHasher`]) — SipHash's flooding resistance buys
/// nothing for keys the simulation makes itself. Keyed access only: the
/// determinism lints forbid iterating it.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// The hasher behind [`IntMap`]: each word is folded in with a rotate, an
/// xor and a multiply by 2^64/φ, and the well-mixed high half is rotated
/// down, because the table picks a bucket by the low bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(Self::K);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Dense sliding-window map from monotonically allocated `u64` keys to `T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqTable<T> {
    /// `slots[i]` holds the entry for key `base + i`.
    slots: VecDeque<Option<T>>,
    /// Key of `slots[0]`; keys below this are known-dead.
    base: u64,
    /// Number of live entries.
    len: usize,
}

impl<T> Default for SeqTable<T> {
    fn default() -> Self {
        SeqTable::new()
    }
}

impl<T> SeqTable<T> {
    /// Creates an empty table with its window starting at key 0.
    pub fn new() -> SeqTable<T> {
        SeqTable {
            slots: VecDeque::new(),
            base: 0,
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn index_of(&self, key: u64) -> Option<usize> {
        if key < self.base {
            return None;
        }
        let idx = (key - self.base) as usize;
        (idx < self.slots.len()).then_some(idx)
    }

    /// Inserts `value` at `key`, returning any previous entry. The caller
    /// must never reuse a key that has already been removed (bump-allocated
    /// keys guarantee this); re-opening the window below a reclaimed key
    /// would make that key look live again.
    #[inline]
    pub fn insert(&mut self, key: u64, value: T) -> Option<T> {
        if self.slots.is_empty() {
            // Fresh window: start it at the first key to avoid a dead
            // prefix of empty slots.
            self.base = key;
        } else if key < self.base {
            // Out-of-key-order insert (keys are bump-allocated but may be
            // *used* out of order): extend the window downwards.
            for _ in key..self.base {
                self.slots.push_front(None);
            }
            self.base = key;
        }
        let idx = (key - self.base) as usize;
        if idx == self.slots.len() {
            // The next key in allocation order, as nearly every insert is:
            // one write of the entry instead of a dead slot and then it.
            self.slots.push_back(Some(value));
            self.len += 1;
            return None;
        }
        while self.slots.len() <= idx {
            self.slots.push_back(None);
        }
        let old = self.slots[idx].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The entry at `key`, if live.
    pub fn get(&self, key: u64) -> Option<&T> {
        let idx = self.index_of(key)?;
        self.slots[idx].as_ref()
    }

    /// Mutable access to the entry at `key`, if live.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let idx = self.index_of(key)?;
        self.slots[idx].as_mut()
    }

    /// True when `key` is live.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Removes and returns the entry at `key`. Unknown, stale and
    /// already-removed keys all return `None`.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let idx = self.index_of(key)?;
        let old = self.slots[idx].take();
        if old.is_some() {
            self.len -= 1;
            // Reclaim the dead prefix so memory tracks the live span.
            while let Some(None) = self.slots.front() {
                self.slots.pop_front();
                self.base += 1;
            }
        }
        old
    }

    /// The keys the window spans, dead slots included: what the table's
    /// memory is proportional to. Empty before the first insert.
    pub fn window(&self) -> std::ops::Range<u64> {
        self.base..self.base + self.slots.len() as u64
    }

    /// The live entry with the smallest key, in O(1): removal reclaims the
    /// dead prefix, so a non-empty table's first slot is live (`insert`
    /// fills a gap with dead slots only *behind* a live one).
    pub fn first(&self) -> Option<(u64, &T)> {
        let front = self.slots.front()?.as_ref();
        debug_assert!(front.is_some(), "dead slot at the front of the window");
        front.map(|v| (self.base, v))
    }

    /// Iterates over `(key, &entry)` pairs in key (= allocation) order.
    pub fn iter(&self) -> SeqTableIter<'_, T> {
        self.iter_from(self.base)
    }

    /// Iterates over `(key, &entry)` pairs with keys `>= key`, in key
    /// order. The cost is proportional to the window span from `key` on
    /// (dead slots included), not to the whole table: a consumer that
    /// stops early pays only for what it looked at.
    pub fn iter_from(&self, key: u64) -> SeqTableIter<'_, T> {
        let skip = usize::try_from(key.saturating_sub(self.base))
            .map_or(self.slots.len(), |i| i.min(self.slots.len()));
        SeqTableIter {
            inner: self.slots.range(skip..).enumerate(),
            base: self.base + skip as u64,
        }
    }

    /// Iterates over the live keys in key order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(key, _)| key)
    }

    /// Iterates over `(key, &mut entry)` pairs in key order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> + '_ {
        let base = self.base;
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(move |(i, s)| s.as_mut().map(|v| (base + i as u64, v)))
    }
}

/// Key-ordered iterator over a [`SeqTable`]'s live entries.
#[derive(Debug)]
pub struct SeqTableIter<'a, T> {
    inner: std::iter::Enumerate<std::collections::vec_deque::Iter<'a, Option<T>>>,
    base: u64,
}

impl<'a, T> Iterator for SeqTableIter<'a, T> {
    type Item = (u64, &'a T);

    fn next(&mut self) -> Option<(u64, &'a T)> {
        for (i, slot) in self.inner.by_ref() {
            if let Some(v) = slot.as_ref() {
                return Some((self.base + i as u64, v));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = SeqTable::new();
        assert!(t.is_empty());
        t.insert(1, "a");
        t.insert(2, "b");
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1), Some(&"a"));
        assert_eq!(t.remove(1), Some("a"));
        assert_eq!(t.remove(1), None, "double remove is detected");
        assert_eq!(t.get(1), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn first_is_the_smallest_live_key() {
        let mut t = SeqTable::new();
        assert_eq!(t.first(), None);
        t.insert(5, 'a');
        t.insert(9, 'c');
        t.insert(7, 'b');
        assert_eq!(t.first(), Some((5, &'a')));
        t.remove(5);
        assert_eq!(t.first(), Some((7, &'b')), "dead prefix reclaimed");
        t.insert(3, 'z');
        assert_eq!(t.first(), Some((3, &'z')), "window extended downwards");
        for k in [3, 7, 9] {
            t.remove(k);
        }
        assert_eq!(t.first(), None);
    }

    #[test]
    fn window_starts_at_first_key() {
        let mut t = SeqTable::new();
        t.insert(1_000, 7u32);
        assert_eq!(t.get(1_000), Some(&7));
        assert_eq!(t.get(999), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn front_removal_advances_base_and_reclaims() {
        let mut t = SeqTable::new();
        for k in 10..20u64 {
            t.insert(k, k * 2);
        }
        for k in 10..15u64 {
            assert_eq!(t.remove(k), Some(k * 2));
        }
        // Keys below the advanced base read as dead, not as aliases.
        assert_eq!(t.get(12), None);
        assert_eq!(t.remove(12), None);
        assert_eq!(t.len(), 5);
        assert_eq!(
            t.iter().map(|(k, _)| k).collect::<Vec<_>>(),
            vec![15, 16, 17, 18, 19]
        );
    }

    #[test]
    fn out_of_order_removal_keeps_holes_dead() {
        let mut t = SeqTable::new();
        for k in 0..6u64 {
            t.insert(k, k);
        }
        t.remove(3);
        assert_eq!(t.get(3), None);
        assert_eq!(
            t.iter().map(|(k, _)| k).collect::<Vec<_>>(),
            vec![0, 1, 2, 4, 5]
        );
        // Removing the front reclaims through the hole.
        t.remove(0);
        t.remove(1);
        t.remove(2);
        assert_eq!(t.iter().map(|(k, _)| k).collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn iter_from_clamps_to_the_window() {
        let mut t = SeqTable::new();
        for k in 10..16u64 {
            t.insert(k, k);
        }
        t.remove(12);
        let keys = |from| t.iter_from(from).map(|(k, _)| k).collect::<Vec<_>>();
        assert_eq!(keys(0), vec![10, 11, 13, 14, 15], "below the window");
        assert_eq!(keys(12), vec![13, 14, 15], "from a hole");
        assert_eq!(keys(15), vec![15]);
        assert_eq!(keys(16), Vec::<u64>::new(), "past the end");
        assert_eq!(keys(u64::MAX), Vec::<u64>::new());
        assert_eq!(t.keys().collect::<Vec<_>>(), keys(0));
        assert_eq!(t.window(), 10..16);
        t.insert(20, 20);
        t.insert(8, 8);
        assert_eq!(t.window(), 8..21, "both ends stretch, holes included");
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = SeqTable::new();
        t.insert(5, 1u32);
        *t.get_mut(5).unwrap() = 9;
        assert_eq!(t.get(5), Some(&9));
        assert!(t.contains(5));
        assert!(!t.contains(4));
    }

    #[test]
    fn paged_map_rejects_absurd_keys_loudly() {
        // Probing a huge key is harmless; inserting one must fail with a
        // clear message instead of attempting a giant directory.
        let mut m: PagedMap<u32> = PagedMap::new();
        m.insert(5, 1);
        assert_eq!(m.get(1 << 40), None);
        assert_eq!(m.remove(1 << 40), None);
        assert_eq!(m.get(5), Some(1));
        let huge = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.insert(1 << 32, 2);
        }));
        assert!(huge.is_err(), "out-of-range insert must panic, not OOM");
    }

    #[test]
    fn int_hasher_spreads_strided_keys_over_the_low_bits() {
        // Block addresses a page apart, as one device's metadata, journal
        // and data regions are: the bucket bits must still tell them apart.
        let hash = |n: u64| {
            let mut h = IntHasher::default();
            h.write_u64(n);
            h.finish()
        };
        let mut buckets: Vec<u64> = (0..1024u64).map(|k| hash(k << 12) & 1023).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert!(buckets.len() > 600, "{} of 1024 buckets", buckets.len());
        assert_eq!(hash(77), hash(77), "no per-process seed");
        let mut m: IntMap<u64, u32> = IntMap::default();
        m.insert(1 << 40, 1);
        assert_eq!(m.get(&(1 << 40)), Some(&1));
    }

    #[test]
    fn iter_mut_visits_live_entries_in_key_order() {
        let mut t = SeqTable::new();
        for k in 3..8u64 {
            t.insert(k, k);
        }
        t.remove(5);
        for (k, v) in t.iter_mut() {
            *v = k * 10;
        }
        assert_eq!(
            t.iter().map(|(k, v)| (k, *v)).collect::<Vec<_>>(),
            vec![(3, 30), (4, 40), (6, 60), (7, 70)]
        );
    }

    #[test]
    fn inserts_below_base_extend_window_downwards() {
        let mut t = SeqTable::new();
        // Keys used out of allocation order (orderless destage picking).
        t.insert(5, "e");
        t.insert(3, "c");
        t.insert(7, "g");
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.iter().collect::<Vec<_>>(),
            vec![(3, &"c"), (5, &"e"), (7, &"g")]
        );
        assert_eq!(t.get(4), None);
        assert_eq!(t.remove(3), Some("c"));
        assert_eq!(t.remove(3), None, "reclaimed key stays dead");
        assert_eq!(t.get(5), Some(&"e"));
    }
}
