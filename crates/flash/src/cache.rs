//! The device writeback cache.
//!
//! Entries are kept in *transfer order* (a monotonically increasing
//! sequence number assigned as DMA completes) because every barrier
//! enforcement scheme in §3.2 of the paper is defined over that order.
//! Each entry carries the *epoch* it belongs to; the epoch counter
//! advances when a barrier write is inserted, so "epoch n+1 must not
//! persist before epoch n" is checkable directly on the entries.
//!
//! Crucially, entries for the same LBA in *different* epochs are kept as
//! separate versions (no cross-epoch coalescing): collapsing them would
//! let a later epoch's content replace an earlier epoch's while other
//! earlier-epoch blocks are still volatile, silently breaking the barrier
//! guarantee.
//!
//! ## Storage layout and invariants
//!
//! The cache is a dense slab, not a map pair: entries live in a
//! [`SeqTable`] keyed by transfer sequence (so iteration *is* transfer
//! order and the per-block paths are index loads, not hash/tree probes),
//! and the versions of one LBA form an intrusive doubly-linked chain
//! through the slab (`prev_same_lba`/`next_same_lba`, 0 = none — sequence
//! numbers start at 1). Two dense LBA-indexed side tables complete the
//! structure:
//!
//! * `latest[lba]` — the read-hit index: the newest *inserted* version,
//!   cleared (not rolled back) when that exact version completes;
//! * `chain_head[lba]` — the newest *resident* version, rolled back to the
//!   next-older resident version on completion. An entry with
//!   `prev_same_lba == 0` is therefore the oldest resident version of its
//!   LBA, which is exactly the per-LBA eligibility test the in-place
//!   destage engines need.
//!
//! Invariants (pinned by the unit tests below, the device's action-stream
//! hashes and the stack's event digests):
//!
//! * epochs are non-decreasing in sequence order, so the minimum pending
//!   epoch is the epoch of the oldest resident entry;
//! * `latest`/`chain_head` only ever point at resident entries;
//! * `dirty` counts exactly the resident entries in [`EntryState::Dirty`].
//!
//! ## The destage frontier
//!
//! The device asks "which entries may start a flash program now?" on every
//! submit, DMA completion and program completion, and takes at most a
//! chip-array's worth of answers. Answering by walking the slab is linear
//! in cache occupancy, so the cache keeps a cursor, `frontier`, with one
//! guarantee: **every resident entry below it is ineligible** — it is
//! already [`EntryState::Destaging`] or, when the cache serialises per LBA,
//! an older version of its LBA is still resident. [`WritebackCache::frontier`]
//! walks from the cursor and yields candidates lazily, so a consumer that
//! takes `n` pays for `n` candidates plus the ineligible entries between
//! them, whatever the occupancy.
//!
//! * A pull *advances* the cursor to the first eligible entry.
//! * [`WritebackCache::complete`] *rewinds* it: the only way an entry turns
//!   eligible is that the oldest resident version of its LBA completes and
//!   unblocks the next one, which may sit below the cursor.
//! * `insert` and `mark_destaging` never move it. New sequences are above
//!   it, a same-epoch coalesce rewrites a tag in place, and marking only
//!   turns an entry ineligible, which keeps the guarantee.

use std::num::NonZeroU64;

use bio_sim::{PagedMap, SeqTable};

use crate::types::{BlockTag, Lba};

/// Destage lifecycle of one cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// In cache, not yet being written to flash.
    Dirty,
    /// A flash program for this entry is in flight.
    Destaging,
}

/// One cached block version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// Block address.
    pub lba: Lba,
    /// Content version.
    pub tag: BlockTag,
    /// Barrier epoch this version belongs to.
    pub epoch: u64,
    /// Destage state.
    pub state: EntryState,
}

/// Why a cache operation was rejected. Sequence numbers arrive from
/// outside the cache (device completion events), so unknown or replayed
/// sequences are reportable errors, not panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheError {
    /// The sequence is not resident (never inserted, or already
    /// completed — e.g. a duplicate completion).
    UnknownSeq(u64),
    /// The entry is already being destaged (duplicate `mark_destaging`).
    AlreadyDestaging(u64),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::UnknownSeq(s) => write!(f, "unknown cache entry seq {s}"),
            CacheError::AlreadyDestaging(s) => write!(f, "cache entry seq {s} already destaging"),
        }
    }
}

impl std::error::Error for CacheError {}

/// Slab slot: the entry plus its intrusive same-LBA version chain.
#[derive(Debug, Clone, Copy)]
struct Slot {
    entry: CacheEntry,
    /// Next-older resident version of the same LBA (0 = none: this is the
    /// oldest resident version).
    prev_same_lba: u64,
    /// Next-newer resident version of the same LBA (0 = none).
    next_same_lba: u64,
}

impl Slot {
    /// True when a flash program for this entry may start: still dirty
    /// and, for a cache that serialises per LBA, the oldest resident
    /// version of its LBA (the chain makes that an O(1) test).
    #[inline]
    fn eligible(&self, lba_ordered: bool) -> bool {
        self.entry.state == EntryState::Dirty && !(lba_ordered && self.prev_same_lba != NO_SEQ)
    }
}

/// Sentinel for "no sequence" in the dense LBA side tables (real
/// sequences start at 1).
const NO_SEQ: u64 = 0;

/// A side-table entry: a sequence, which is never [`NO_SEQ`]. One word,
/// so a table page of `Option<SideSeq>` is 32 KiB from the
/// zeroed-allocation path rather than 4,096 16-byte `None`s.
type SideSeq = NonZeroU64;

/// Transfer-ordered writeback cache with epoch accounting.
#[derive(Debug, Clone)]
pub struct WritebackCache {
    /// Entries in transfer order, keyed by transfer sequence number.
    slots: SeqTable<Slot>,
    /// Read-hit index: newest inserted version per LBA (dense, LBA-indexed).
    latest: PagedMap<SideSeq>,
    /// Newest *resident* version per LBA (heads the intrusive chain).
    chain_head: PagedMap<SideSeq>,
    /// Resident entries still in [`EntryState::Dirty`].
    dirty: usize,
    capacity: usize,
    current_epoch: u64,
    next_seq: u64,
    /// Whether the frontier holds a version back until every older
    /// resident version of its LBA has been programmed.
    lba_ordered: bool,
    /// Every resident entry with a sequence below this is ineligible (see
    /// the module docs); never above `next_seq`.
    frontier: u64,
}

impl WritebackCache {
    /// Creates a cache holding at most `capacity` block versions whose
    /// frontier serialises per LBA, as an engine that writes in place needs.
    pub fn new(capacity: usize) -> WritebackCache {
        WritebackCache::with_order(capacity, true)
    }

    /// Creates a cache holding at most `capacity` block versions (see
    /// [`WritebackCache::has_room`]). With `lba_ordered` the frontier yields an entry only once every older resident version
    /// of its LBA has been programmed — required for engines that write in
    /// place. A log-structured device (the paper's UFS firmware) must NOT
    /// set it: the FTL appends strictly in transfer order, and two versions
    /// of one LBA are simply two appends, so holding the newer one back
    /// would reorder the append log and break prefix recovery.
    pub fn with_order(capacity: usize, lba_ordered: bool) -> WritebackCache {
        WritebackCache {
            slots: SeqTable::new(),
            latest: PagedMap::new(),
            chain_head: PagedMap::new(),
            dirty: 0,
            capacity: capacity.max(1),
            current_epoch: 0,
            next_seq: 1,
            lba_ordered,
            frontier: 1,
        }
    }

    /// Number of resident entries (dirty + destaging).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True when `blocks` more versions fit under the capacity; otherwise
    /// the insert must wait for a destage. (`insert` itself never refuses:
    /// a FUA write passes through without holding a long-term slot.)
    pub fn has_room(&self, blocks: usize) -> bool {
        self.slots.len() + blocks <= self.capacity
    }

    /// The epoch new writes are tagged with.
    pub fn current_epoch(&self) -> u64 {
        self.current_epoch
    }

    #[inline]
    fn side(table: &PagedMap<SideSeq>, lba: Lba) -> u64 {
        table.get(lba.0).map_or(NO_SEQ, SideSeq::get)
    }

    #[inline]
    fn set_side(table: &mut PagedMap<SideSeq>, lba: Lba, seq: u64) {
        match SideSeq::new(seq) {
            Some(seq) => table.insert(lba.0, seq),
            None => table.remove(lba.0),
        };
    }

    /// Inserts one transferred block. If `barrier` is set the epoch counter
    /// advances *after* the insert: the barrier write is the last member of
    /// its epoch (§3.2).
    ///
    /// Same-epoch overwrites of a still-dirty entry coalesce in place;
    /// anything else creates a new version. Returns the entry's transfer
    /// sequence number.
    #[inline]
    pub fn insert(&mut self, lba: Lba, tag: BlockTag, barrier: bool) -> u64 {
        let prev_seq = Self::side(&self.latest, lba);
        let seq = match self.slots.get_mut(prev_seq) {
            Some(prev)
                if prev.entry.state == EntryState::Dirty
                    && prev.entry.epoch == self.current_epoch =>
            {
                // Safe coalesce: same epoch, program not yet started.
                prev.entry.tag = tag;
                prev_seq
            }
            // No previous version, or one that must stay a separate
            // version (cross-epoch, or already destaging).
            _ => self.push_new(lba, tag),
        };
        if barrier {
            self.current_epoch += 1;
        }
        seq
    }

    #[inline]
    fn push_new(&mut self, lba: Lba, tag: BlockTag) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let prev = Self::side(&self.chain_head, lba);
        self.slots.insert(
            seq,
            Slot {
                entry: CacheEntry {
                    lba,
                    tag,
                    epoch: self.current_epoch,
                    state: EntryState::Dirty,
                },
                prev_same_lba: prev,
                next_same_lba: NO_SEQ,
            },
        );
        if let Some(p) = self.slots.get_mut(prev) {
            p.next_same_lba = seq;
        }
        Self::set_side(&mut self.chain_head, lba, seq);
        Self::set_side(&mut self.latest, lba, seq);
        self.dirty += 1;
        seq
    }

    /// Latest cached content for `lba` (read hit), if resident.
    pub fn lookup(&self, lba: Lba) -> Option<BlockTag> {
        self.slots
            .get(Self::side(&self.latest, lba))
            .map(|s| s.entry.tag)
    }

    /// The entry at `seq`, if resident.
    pub fn entry(&self, seq: u64) -> Option<&CacheEntry> {
        self.slots.get(seq).map(|s| &s.entry)
    }

    /// Count of entries not yet being destaged.
    pub fn dirty_count(&self) -> usize {
        self.dirty
    }

    /// The minimum epoch among resident entries, i.e. the epoch that must
    /// finish persisting first under in-order writeback. Epochs are
    /// non-decreasing in transfer order, so this is the oldest resident
    /// entry's epoch.
    pub fn min_pending_epoch(&self) -> Option<u64> {
        self.slots.iter().next().map(|(_, s)| s.entry.epoch)
    }

    /// The newest sequence handed out so far (0 before the first insert).
    /// Every resident entry is at or below it and every later insert above
    /// it, so with [`WritebackCache::len`] it is the whole snapshot a flush
    /// entering service needs.
    pub fn newest_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Resident entries with a sequence at or below `seq`: the programs a
    /// wait for everything up to `seq` still counts down. Walks only the
    /// entries above `seq`, none when `seq` is [`WritebackCache::newest_seq`].
    pub(crate) fn resident_upto(&self, seq: u64) -> usize {
        self.slots.len() - self.slots.iter_from(seq.saturating_add(1)).count()
    }

    /// Sequence numbers of every resident entry, in transfer order (tests
    /// and probes).
    pub fn pending_seqs(&self) -> Vec<u64> {
        self.slots.keys().collect()
    }

    /// Candidates from `from` on, in transfer order. `max_epoch` gates
    /// them to epochs `<=` the bound (the in-order writeback engine);
    /// epochs are non-decreasing in sequence order, so the walk ends at
    /// the first entry past it.
    #[inline]
    fn candidates_from(
        &self,
        from: u64,
        max_epoch: Option<u64>,
        lba_ordered: bool,
    ) -> impl Iterator<Item = u64> + '_ {
        self.slots
            .iter_from(from)
            .take_while(move |(_, slot)| max_epoch.is_none_or(|bound| slot.entry.epoch <= bound))
            .filter(move |(_, slot)| slot.eligible(lba_ordered))
            .map(|(seq, _)| seq)
    }

    /// Every destage candidate in transfer order, for either ordering
    /// discipline (see [`WritebackCache::with_order`]): a full walk of the
    /// slab that ignores the frontier. Tests and probes use it; the device
    /// pulls from [`WritebackCache::frontier`].
    pub fn destage_candidates(&self, max_epoch: Option<u64>, lba_ordered: bool) -> Vec<u64> {
        self.candidates_from(0, max_epoch, lba_ordered).collect()
    }

    /// The destage candidates under this cache's ordering discipline, in
    /// transfer order, yielded lazily from the frontier: taking `n` costs
    /// `n` candidates plus the ineligible entries between them, not a walk
    /// of the cache. Equal, element for element, to
    /// `destage_candidates(max_epoch, lba_ordered)`.
    #[inline]
    pub fn frontier(&mut self, max_epoch: Option<u64>) -> impl Iterator<Item = u64> + '_ {
        let lba_ordered = self.lba_ordered;
        // Advance over what turned ineligible since the last pull. A
        // candidate left unstarted (no idle chip) is found again at once.
        self.frontier = self
            .slots
            .iter_from(self.frontier)
            .find(|(_, slot)| slot.eligible(lba_ordered))
            .map_or(self.next_seq, |(seq, _)| seq);
        self.candidates_from(self.frontier, max_epoch, lba_ordered)
    }

    /// Marks an entry as having a flash program in flight and returns it
    /// (what the program writes).
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownSeq`] if `seq` is not resident,
    /// [`CacheError::AlreadyDestaging`] if it already has a program in
    /// flight.
    #[inline]
    pub fn mark_destaging(&mut self, seq: u64) -> Result<CacheEntry, CacheError> {
        let slot = self.slots.get_mut(seq).ok_or(CacheError::UnknownSeq(seq))?;
        if slot.entry.state != EntryState::Dirty {
            return Err(CacheError::AlreadyDestaging(seq));
        }
        slot.entry.state = EntryState::Destaging;
        self.dirty -= 1;
        Ok(slot.entry)
    }

    /// Removes a fully programmed entry, freeing its slot. Returns it.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownSeq`] if `seq` is not resident — notably a
    /// *duplicate* completion of an already-removed entry, which a caller
    /// replaying device events can drive externally.
    #[inline]
    pub fn complete(&mut self, seq: u64) -> Result<CacheEntry, CacheError> {
        let slot = self.slots.remove(seq).ok_or(CacheError::UnknownSeq(seq))?;
        if slot.entry.state == EntryState::Dirty {
            self.dirty -= 1;
        }
        // Unlink from the same-LBA version chain.
        if let Some(p) = self.slots.get_mut(slot.prev_same_lba) {
            p.next_same_lba = slot.next_same_lba;
        }
        if let Some(n) = self.slots.get_mut(slot.next_same_lba) {
            n.prev_same_lba = slot.prev_same_lba;
            if self.lba_ordered && slot.prev_same_lba == NO_SEQ {
                // The oldest resident version left: the next one is
                // unblocked, possibly below the frontier — rewind to it.
                self.frontier = self.frontier.min(slot.next_same_lba);
            }
        }
        if Self::side(&self.chain_head, slot.entry.lba) == seq {
            // Roll the resident head back to the next-older version.
            Self::set_side(&mut self.chain_head, slot.entry.lba, slot.prev_same_lba);
        }
        if Self::side(&self.latest, slot.entry.lba) == seq {
            // Read hits never fall back to an older version: the newest
            // content left the cache, so reads must go to flash.
            Self::set_side(&mut self.latest, slot.entry.lba, NO_SEQ);
        }
        Ok(slot.entry)
    }

    /// All resident entries in transfer order (used for PLP crash images).
    pub fn entries_in_order(&self) -> impl Iterator<Item = (u64, &CacheEntry)> {
        self.slots.iter().map(|(seq, s)| (seq, &s.entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_side_table_entry_is_one_word() {
        assert_eq!(std::mem::size_of::<Option<SideSeq>>(), 8);
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = WritebackCache::new(8);
        c.insert(Lba(1), BlockTag(10), false);
        assert_eq!(c.lookup(Lba(1)), Some(BlockTag(10)));
        assert_eq!(c.lookup(Lba(2)), None);
        assert_eq!(c.len(), 1);
        assert!(c.has_room(7) && !c.has_room(8));
    }

    #[test]
    fn barrier_advances_epoch_after_insert() {
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), true);
        assert_eq!(
            c.entry(s1).unwrap().epoch,
            0,
            "barrier write is in its own epoch"
        );
        assert_eq!(c.current_epoch(), 1);
        let s2 = c.insert(Lba(2), BlockTag(2), false);
        assert_eq!(c.entry(s2).unwrap().epoch, 1);
    }

    #[test]
    fn same_epoch_overwrite_coalesces() {
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), false);
        let s2 = c.insert(Lba(1), BlockTag(2), false);
        assert_eq!(s1, s2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(Lba(1)), Some(BlockTag(2)));
    }

    #[test]
    fn cross_epoch_overwrite_keeps_versions() {
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), true); // epoch 0, barrier
        let s2 = c.insert(Lba(1), BlockTag(2), false); // epoch 1
        assert_ne!(s1, s2);
        assert_eq!(c.len(), 2);
        // Reads see the newest version.
        assert_eq!(c.lookup(Lba(1)), Some(BlockTag(2)));
    }

    #[test]
    fn destaging_entry_does_not_coalesce() {
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), false);
        c.mark_destaging(s1).unwrap();
        let s2 = c.insert(Lba(1), BlockTag(2), false);
        assert_ne!(s1, s2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn candidates_respect_per_lba_order() {
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), true); // epoch 0
        let s2 = c.insert(Lba(1), BlockTag(2), false); // epoch 1, same LBA
        let s3 = c.insert(Lba(2), BlockTag(3), false); // epoch 1
        let cands = c.destage_candidates(None, true);
        assert_eq!(cands, vec![s1, s3], "second version of lba 1 must wait");
        // After the first version completes, the second becomes eligible.
        c.mark_destaging(s1).unwrap();
        c.complete(s1).unwrap();
        assert_eq!(c.destage_candidates(None, true), vec![s2, s3]);
    }

    #[test]
    fn candidates_respect_epoch_bound() {
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), true); // epoch 0
        let _s2 = c.insert(Lba(2), BlockTag(2), false); // epoch 1
        assert_eq!(c.destage_candidates(Some(0), true), vec![s1]);
        assert_eq!(c.min_pending_epoch(), Some(0));
    }

    #[test]
    fn complete_frees_capacity() {
        let mut c = WritebackCache::new(1);
        let s1 = c.insert(Lba(1), BlockTag(1), false);
        assert!(!c.has_room(1));
        c.mark_destaging(s1).unwrap();
        let e = c.complete(s1).unwrap();
        assert!(c.has_room(1));
        assert_eq!(e.tag, BlockTag(1));
        assert!(c.is_empty());
        assert_eq!(c.lookup(Lba(1)), None);
    }

    #[test]
    fn complete_older_version_keeps_latest_lookup() {
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), true);
        let _s2 = c.insert(Lba(1), BlockTag(2), false);
        c.mark_destaging(s1).unwrap();
        c.complete(s1).unwrap();
        assert_eq!(c.lookup(Lba(1)), Some(BlockTag(2)));
    }

    #[test]
    fn pending_seqs_in_order() {
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), true);
        let s2 = c.insert(Lba(2), BlockTag(2), true);
        let s3 = c.insert(Lba(3), BlockTag(3), false);
        assert_eq!(c.pending_seqs(), vec![s1, s2, s3]);
        assert_eq!(c.dirty_count(), 3);
    }

    #[test]
    fn complete_unknown_is_reported_not_panicked() {
        let mut c = WritebackCache::new(4);
        assert_eq!(c.complete(99), Err(CacheError::UnknownSeq(99)));
        // A real entry completed twice: the duplicate is detected.
        let s = c.insert(Lba(1), BlockTag(1), false);
        c.mark_destaging(s).unwrap();
        assert!(c.complete(s).is_ok());
        assert_eq!(c.complete(s), Err(CacheError::UnknownSeq(s)));
        assert!(c.is_empty());
    }

    #[test]
    fn mark_destaging_errors_are_typed() {
        let mut c = WritebackCache::new(4);
        assert_eq!(c.mark_destaging(7), Err(CacheError::UnknownSeq(7)));
        let s = c.insert(Lba(1), BlockTag(1), false);
        c.mark_destaging(s).unwrap();
        assert_eq!(c.mark_destaging(s), Err(CacheError::AlreadyDestaging(s)));
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn frontier_skips_started_entries_and_rewinds_on_unblock() {
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), true); // epoch 0
        let s2 = c.insert(Lba(1), BlockTag(2), true); // epoch 1, blocked by s1
        let s3 = c.insert(Lba(2), BlockTag(3), false); // epoch 2
        assert_eq!(c.frontier(None).collect::<Vec<_>>(), vec![s1, s3]);
        assert_eq!(c.frontier(Some(0)).collect::<Vec<_>>(), vec![s1]);
        c.mark_destaging(s1).unwrap();
        c.mark_destaging(s3).unwrap();
        // Nothing eligible: the cursor runs past the blocked s2 ...
        assert_eq!(c.frontier(None).next(), None);
        // ... a later insert lands above it ...
        let s4 = c.insert(Lba(3), BlockTag(4), false);
        assert_eq!(c.frontier(None).collect::<Vec<_>>(), vec![s4]);
        // ... and s1 completing unblocks s2 *below* it.
        c.complete(s1).unwrap();
        assert_eq!(c.frontier(None).collect::<Vec<_>>(), vec![s2, s4]);
        assert_eq!(c.frontier(Some(1)).collect::<Vec<_>>(), vec![s2]);
        assert_eq!(c.destage_candidates(None, true), vec![s2, s4]);
    }

    #[test]
    fn log_structured_frontier_does_not_serialise_per_lba() {
        let mut c = WritebackCache::with_order(8, false);
        let s1 = c.insert(Lba(1), BlockTag(1), true);
        let s2 = c.insert(Lba(1), BlockTag(2), false);
        assert_eq!(c.frontier(None).collect::<Vec<_>>(), vec![s1, s2]);
        c.mark_destaging(s1).unwrap();
        assert_eq!(c.frontier(None).collect::<Vec<_>>(), vec![s2]);
    }

    #[test]
    fn newer_version_completion_rolls_chain_head_back() {
        // LFS-mode devices can complete a newer version before an older
        // one; the older version must then become the per-LBA head again
        // and a *new* insert must chain behind it.
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), true); // epoch 0
        let s2 = c.insert(Lba(1), BlockTag(2), true); // epoch 1
        c.mark_destaging(s2).unwrap();
        c.complete(s2).unwrap();
        // Newest content left the cache: reads miss.
        assert_eq!(c.lookup(Lba(1)), None);
        let s3 = c.insert(Lba(1), BlockTag(3), false); // epoch 2
                                                       // s1 is still the oldest resident version, so with per-LBA
                                                       // ordering s3 must wait behind it.
        assert_eq!(c.destage_candidates(None, true), vec![s1]);
        assert_eq!(c.lookup(Lba(1)), Some(BlockTag(3)));
        c.mark_destaging(s1).unwrap();
        c.complete(s1).unwrap();
        assert_eq!(c.destage_candidates(None, true), vec![s3]);
    }
}
