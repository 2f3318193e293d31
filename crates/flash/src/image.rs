//! Crash images: the FTL append log a power loss cuts, the block map
//! every crash image is stored in, and the read view the checkers take of
//! an image.
//!
//! The paper's UFS firmware recovers by scanning the log-structured segment
//! "from the beginning till it first encounters the page which has not been
//! programmed properly" and discarding the rest (§3.2). [`AppendLog`]
//! records what that scan reads: every flash program is an append record.
//! Which records survive a crash under the device's barrier-enforcement
//! mode is [`crate::ChoiceSpace`]'s to say.

use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroU64;

use bio_sim::PagedMap;

use crate::types::{BlockTag, Lba};

/// One append record: a flash program in progress or completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendRec {
    /// Block address.
    pub lba: Lba,
    /// Content version being programmed.
    pub tag: BlockTag,
    /// True once the program completed.
    pub done: bool,
    /// Transactional-writeback group, when that engine is active.
    pub group: Option<u64>,
}

/// The device's append history with a folded durable prefix.
///
/// Records whose durability can never change again are folded into a base
/// [`BlockMap`] so memory stays bounded on long runs: a fold is one store.
/// Crash images flow into golden diffs and differential traces, so every
/// iteration here is in append or address order, reproducible across
/// processes (the determinism invariant, docs/INVARIANTS.md §1).
#[derive(Debug, Clone, Default)]
pub struct AppendLog {
    base: BlockMap,
    entries: VecDeque<AppendRec>,
    /// Append sequence number of `entries[0]`.
    start: u64,
    next: u64,
    /// When tracking is armed, every `(lba, tag)` folded into the base is
    /// also appended here so a capture cursor can replay the fold stream
    /// onto its shared base snapshot instead of re-reading the whole map.
    fold_log: Option<Vec<(Lba, BlockTag)>>,
}

impl AppendLog {
    /// Creates an empty log.
    pub fn new() -> AppendLog {
        AppendLog::default()
    }

    /// Records the start of a flash program, returning its append sequence.
    /// `lba` must lie below [`Lba::LIMIT`] (the device refuses any write
    /// that does not), or its fold will panic.
    pub fn begin(&mut self, lba: Lba, tag: BlockTag, group: Option<u64>) -> u64 {
        let seq = self.next;
        self.next += 1;
        self.entries.push_back(AppendRec {
            lba,
            tag,
            done: false,
            group,
        });
        seq
    }

    /// Marks a program as completed. Returns false (and changes nothing)
    /// when the sequence is unknown or already folded.
    pub fn mark_done(&mut self, seq: u64) -> bool {
        let idx = seq.checked_sub(self.start);
        let Some(rec) = idx.and_then(|i| self.entries.get_mut(i as usize)) else {
            return false;
        };
        rec.done = true;
        true
    }

    /// Folds the longest completed prefix into the base map. Records are
    /// foldable once `done` and (for transactional groups) once their group
    /// committed — after that their durability can no longer change.
    #[inline]
    pub fn fold<F: Fn(u64) -> bool>(&mut self, group_committed: F) {
        while let Some(&rec) = self.entries.front() {
            if !(rec.done && rec.group.is_none_or(&group_committed)) {
                break;
            }
            self.entries.pop_front();
            self.base.insert(rec.lba, rec.tag);
            if let Some(log) = &mut self.fold_log {
                log.push((rec.lba, rec.tag));
            }
            self.start += 1;
        }
    }

    /// The folded durable prefix: block address → newest folded version.
    pub fn base(&self) -> &BlockMap {
        &self.base
    }

    /// Arms fold tracking: from now on every fold is also recorded for
    /// [`AppendLog::drain_fold_log`]. Off by default so figure runs pay
    /// nothing; the crash engine drains the log at every capture, keeping
    /// it bounded by the writes of one epoch.
    pub fn track_folds(&mut self) {
        if self.fold_log.is_none() {
            self.fold_log = Some(Vec::new());
        }
    }

    /// Drains the folds recorded since the previous drain (nothing when
    /// tracking was never armed); the log keeps its buffer. Replaying them
    /// in order onto a base snapshot taken at the previous capture
    /// reproduces [`AppendLog::base`].
    pub fn drain_fold_log(&mut self) -> impl Iterator<Item = (Lba, BlockTag)> + '_ {
        self.fold_log.iter_mut().flat_map(|log| log.drain(..))
    }

    /// Number of unfolded records.
    pub fn tail_len(&self) -> usize {
        self.entries.len()
    }

    /// Total appends begun.
    pub fn appends(&self) -> u64 {
        self.next
    }

    /// The unfolded tail records, in append order. A record with
    /// `done == false` is a flash program still in flight: whether it
    /// survives a crash is exactly the nondeterminism the crash enumerator
    /// explores.
    pub fn tail(&self) -> impl Iterator<Item = &AppendRec> + '_ {
        self.entries.iter()
    }
}

/// Blocks per [`BlockMap`] page: 4 KiB of one-word slots. A crash-explorer
/// trace writes three short runs (metadata, journal, data) and builds a
/// fresh stack and capture cursor per trace; at the device tables' 4,096 a
/// page the two bases zero-filled 384 KiB per trace device and held
/// `crash_enum`'s peak RSS above what the B-tree had needed.
const BLOCK_MAP_PAGE: usize = 512;

/// Block address → content version, direct-indexed: a read or a store is
/// two loads into a [`bio_sim::PagedMap`], iteration is in ascending
/// address order, and two maps are equal when they hold the same pairs. An
/// entry is one word, the tag plus one in a `NonZeroU64`, so an empty slot
/// is the zero word: a 512-block page an address touches is 4 KiB, taken
/// zeroed from the allocator like the device's other one-word tables, and
/// [`BlockTag::UNWRITTEN`] (tag 0) is stored like any other version. It is
/// [`AppendLog::base`], the base every crash image of a capture point
/// shares, the base both check indexes read, and every crash image a
/// device materializes ([`crate::Device::crash_image`]).
///
/// Addresses must lie below [`Lba::LIMIT`] and tags below `u64::MAX`:
/// [`BlockMap::insert`] panics on any other. The device refuses a write
/// that reaches past the address limit, and filesystem tags count up from
/// 1, so neither is ever folded. A read of any address is total.
#[derive(Clone)]
pub struct BlockMap {
    map: PagedMap<TagWord, BLOCK_MAP_PAGE>,
}

/// A [`BlockMap`] entry: the tag plus one, which fits every tag below
/// `u64::MAX` and leaves the zero word for an empty slot.
type TagWord = NonZeroU64;

/// The entry that stores `tag`.
fn stored(tag: BlockTag) -> TagWord {
    TagWord::MIN.saturating_add(tag.0)
}

/// The version an entry holds.
fn version(word: TagWord) -> BlockTag {
    BlockTag(word.get() - 1)
}

impl BlockMap {
    /// An empty map.
    pub fn new() -> BlockMap {
        BlockMap {
            map: PagedMap::new(),
        }
    }

    /// The version stored at `lba`, if any.
    #[inline]
    pub fn get(&self, lba: Lba) -> Option<BlockTag> {
        self.map.get(lba.0).map(version)
    }

    /// Stores `tag` at `lba`, returning the version it replaced.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is not below [`Lba::LIMIT`], or if `tag` is
    /// `BlockTag(u64::MAX)`, the one version a word cannot hold.
    #[inline]
    pub fn insert(&mut self, lba: Lba, tag: BlockTag) -> Option<BlockTag> {
        assert!(tag.0 < u64::MAX, "BlockMap cannot store BlockTag(u64::MAX)");
        self.map.insert(lba.0, stored(tag)).map(version)
    }

    /// Forgets the version stored at `lba`, returning it.
    #[inline]
    pub fn remove(&mut self, lba: Lba) -> Option<BlockTag> {
        self.map.remove(lba.0).map(version)
    }

    /// Number of blocks stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(lba, tag)` pairs in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (Lba, BlockTag)> + '_ {
        self.map.iter().map(|(lba, word)| (Lba(lba), version(word)))
    }
}

impl Default for BlockMap {
    fn default() -> BlockMap {
        BlockMap::new()
    }
}

/// The stored pairs, as a map: the pages are a representation.
impl fmt::Debug for BlockMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl PartialEq for BlockMap {
    fn eq(&self, other: &BlockMap) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for BlockMap {}

impl Extend<(Lba, BlockTag)> for BlockMap {
    fn extend<I: IntoIterator<Item = (Lba, BlockTag)>>(&mut self, pairs: I) {
        for (lba, tag) in pairs {
            self.insert(lba, tag);
        }
    }
}

impl FromIterator<(Lba, BlockTag)> for BlockMap {
    fn from_iter<I: IntoIterator<Item = (Lba, BlockTag)>>(pairs: I) -> BlockMap {
        let mut map = BlockMap::new();
        map.extend(pairs);
        map
    }
}

/// Read access to a crash image: what content (if any) survived at a
/// block. [`BlockMap`] is the materialized implementation; the crash
/// enumerator provides overlay-backed views that answer the same question
/// without cloning the base map per image.
pub trait ImageView {
    /// Content at `lba`, [`BlockTag::UNWRITTEN`] if nothing survived.
    fn tag(&self, lba: Lba) -> BlockTag;
}

impl<V: ImageView + ?Sized> ImageView for &V {
    fn tag(&self, lba: Lba) -> BlockTag {
        (**self).tag(lba)
    }
}

/// A block map read as an image: an [`AppendLog::base`], or a whole crash
/// image.
impl ImageView for BlockMap {
    #[inline]
    fn tag(&self, lba: Lba) -> BlockTag {
        self.get(lba).unwrap_or(BlockTag::UNWRITTEN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An image holding `(lba, tag)` pairs.
    fn image(pairs: &[(u64, u64)]) -> BlockMap {
        pairs.iter().map(|&(l, t)| (Lba(l), BlockTag(t))).collect()
    }

    #[test]
    fn a_block_map_entry_is_one_word() {
        assert_eq!(std::mem::size_of::<Option<TagWord>>(), 8);
    }

    #[test]
    fn the_unwritten_tag_and_the_largest_storable_tag_round_trip() {
        let (low, high) = (BlockTag::UNWRITTEN, BlockTag(u64::MAX - 1));
        let mut map = BlockMap::new();
        assert_eq!(map.insert(Lba(3), low), None);
        assert_eq!(map.insert(Lba(700), high), None);
        assert_eq!(
            (map.get(Lba(3)), map.get(Lba(700))),
            (Some(low), Some(high))
        );
        assert_eq!((map.tag(Lba(3)), map.tag(Lba(700))), (low, high));
        assert_eq!(map.get(Lba(4)), None, "a slot beside a stored 0 is empty");
        assert_eq!(map.len(), 2);
        let pairs: Vec<_> = map.iter().collect();
        assert_eq!(pairs, [(Lba(3), low), (Lba(700), high)]);
        let same: BlockMap = pairs.iter().copied().collect();
        assert_eq!(map, same);
        assert_ne!(map, image(&[(3, 1), (700, u64::MAX - 1)]));
        assert_eq!(map.insert(Lba(700), low), Some(high));
        assert_eq!(map.remove(Lba(3)), Some(low));
        assert_eq!(map.iter().collect::<Vec<_>>(), [(Lba(700), low)]);
    }

    #[test]
    #[should_panic(expected = "BlockMap cannot store BlockTag(u64::MAX)")]
    fn a_block_map_refuses_the_largest_tag() {
        BlockMap::new().insert(Lba(0), BlockTag(u64::MAX));
    }

    #[test]
    fn equality_is_by_pairs_not_by_insert_order() {
        // The same pairs stored far page first and near page first, and one
        // pair stored twice: equal. One more pair breaks it.
        let mut a = image(&[(3, 1), (5_000, 2)]);
        let b = image(&[(5_000, 2), (3, 1)]);
        a.insert(Lba(3), BlockTag(1));
        assert_eq!(a, b);
        a.insert(Lba(1 << 22), BlockTag(9));
        assert_ne!(a, b);
        assert_eq!(a.len(), 3);
        let pairs = [(3, 1), (5_000, 2), (1 << 22, 9)].map(|(l, t)| (Lba(l), BlockTag(t)));
        assert_eq!(a.iter().collect::<Vec<_>>(), pairs);
    }

    #[test]
    fn fold_moves_prefix_to_base() {
        let mut log = AppendLog::new();
        let a = log.begin(Lba(1), BlockTag(10), None);
        let b = log.begin(Lba(2), BlockTag(20), None);
        log.mark_done(a);
        log.fold(|_| true);
        assert_eq!(log.tail_len(), 1);
        log.mark_done(b);
        log.fold(|_| true);
        assert_eq!(log.tail_len(), 0);
        assert_eq!(log.base().get(Lba(1)), Some(BlockTag(10)));
        assert_eq!(log.base().get(Lba(2)), Some(BlockTag(20)));
    }

    #[test]
    fn fold_respects_group_commit() {
        let mut log = AppendLog::new();
        let a = log.begin(Lba(1), BlockTag(10), Some(5));
        log.mark_done(a);
        log.fold(|_| false); // group 5 not committed
        assert_eq!(log.tail_len(), 1);
        log.fold(|g| g == 5);
        assert_eq!(log.tail_len(), 0);
    }

    #[test]
    fn mark_done_of_a_folded_or_unknown_append_is_a_miss() {
        let mut log = AppendLog::new();
        let a = log.begin(Lba(1), BlockTag(10), None);
        assert!(log.mark_done(a));
        assert!(!log.mark_done(a + 1), "never begun");
        log.fold(|_| true);
        assert!(!log.mark_done(a), "already folded");
        assert_eq!(log.tail_len(), 0);
    }
}
