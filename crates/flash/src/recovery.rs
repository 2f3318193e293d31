//! Crash persistence: the FTL append log, the block map every crash image
//! is stored in, and the epoch-ordering audit used by the correctness
//! tests.
//!
//! The paper's UFS firmware recovers by scanning the log-structured segment
//! "from the beginning till it first encounters the page which has not been
//! programmed properly" and discarding the rest (§3.2). [`AppendLog`]
//! records what that scan reads: every flash program is an append record.
//! Which records survive a crash under the device's barrier-enforcement
//! mode is [`crate::ChoiceSpace`]'s to say.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use bio_sim::{IntMap, PagedMap, SeqTable};

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

/// Blocks per [`BlockMap`] page: 8 KiB of slots. A crash-explorer trace
/// writes three short runs (metadata, journal, data) and builds a fresh
/// stack and capture cursor per trace; at the device tables' 4,096 a page
/// the two bases zero-filled 384 KiB per trace device and held
/// `crash_enum`'s peak RSS above what the B-tree had needed.
const BLOCK_MAP_PAGE: usize = 512;

/// Block address → content version, direct-indexed: a read or a store is
/// two loads into a [`bio_sim::PagedMap`] (8 KiB per 512-block page an
/// address touches), iteration is in ascending address order, and two
/// maps are equal when they hold the same pairs. It is
/// [`AppendLog::base`], the base every crash image of a capture point
/// shares, the base both check indexes read, and every crash image a
/// device materializes ([`crate::Device::crash_image`]).
///
/// Addresses must lie below [`Lba::LIMIT`]: [`BlockMap::insert`] panics on
/// any other, and the device refuses a write that reaches past it, so no
/// such address is ever folded. A read of any address is total.
#[derive(Clone, Default)]
pub struct BlockMap {
    map: PagedMap<BlockTag, BLOCK_MAP_PAGE>,
}

impl BlockMap {
    /// An empty map.
    pub fn new() -> BlockMap {
        BlockMap::default()
    }

    /// The version stored at `lba`, if any.
    #[inline]
    pub fn get(&self, lba: Lba) -> Option<BlockTag> {
        self.map.get(lba.0)
    }

    /// Stores `tag` at `lba`, returning the version it replaced.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is not below [`Lba::LIMIT`].
    #[inline]
    pub fn insert(&mut self, lba: Lba, tag: BlockTag) -> Option<BlockTag> {
        self.map.insert(lba.0, tag)
    }

    /// Forgets the version stored at `lba`, returning it.
    #[inline]
    pub fn remove(&mut self, lba: Lba) -> Option<BlockTag> {
        self.map.remove(lba.0)
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
        self.map.iter().map(|(lba, tag)| (Lba(lba), tag))
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

/// One host-visible transfer, in transfer order, with its barrier epoch.
/// The device records these (when history recording is enabled) so audits
/// can compare what *should* be orderable with what actually persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferRec {
    /// Transfer order (cache sequence).
    pub seq: u64,
    /// Block address.
    pub lba: Lba,
    /// Content version.
    pub tag: BlockTag,
    /// Barrier epoch of this transfer.
    pub epoch: u64,
}

/// A detected storage-order violation: a block of a *later* epoch persisted
/// while this earlier-epoch transfer was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochViolation {
    /// The transfer that was lost.
    pub lost: TransferRec,
    /// The maximum epoch observed as persisted.
    pub visible_epoch: u64,
}

/// The epoch-order auditor with its per-history tables hoisted out of the
/// per-image loop: the tag → transfer-seq map depends only on the history,
/// so the crash enumerator builds one auditor per capture point and runs it
/// against hundreds of images instead of rebuilding the map every time.
pub struct EpochAudit<'a> {
    history: &'a [TransferRec],
    /// Map each tag to its transfer seq so "at least as new" is decidable.
    seq_of_tag: IntMap<BlockTag, u64>,
}

impl<'a> EpochAudit<'a> {
    /// Precomputes the history-only tables.
    pub fn new(history: &'a [TransferRec]) -> EpochAudit<'a> {
        EpochAudit {
            history,
            seq_of_tag: history.iter().map(|t| (t.tag, t.seq)).collect(),
        }
    }

    /// Audits one crash image against the transfer history.
    ///
    /// Rule: if any transfer of epoch *e* is visible in the image, every
    /// transfer of epochs `< e` must be *persisted or superseded* — the
    /// image must hold, for that block, a version at least as new as the
    /// transfer. Returns every violating transfer (empty = order held).
    pub fn violations<V: ImageView>(&self, image: &V) -> Vec<EpochViolation> {
        let visible_epoch = self
            .history
            .iter()
            .filter(|t| image.tag(t.lba) == t.tag)
            .map(|t| t.epoch)
            .max();
        let Some(visible_epoch) = visible_epoch else {
            return Vec::new(); // nothing persisted at all: trivially ordered
        };

        let mut violations = Vec::new();
        for t in self.history {
            if t.epoch >= visible_epoch {
                continue; // the newest visible epoch itself may be partial
            }
            let img_tag = image.tag(t.lba);
            let img_seq = if img_tag == BlockTag::UNWRITTEN {
                0
            } else {
                self.seq_of_tag.get(&img_tag).copied().unwrap_or(0)
            };
            if img_seq < t.seq {
                violations.push(EpochViolation {
                    lost: *t,
                    visible_epoch,
                });
            }
        }
        violations
    }
}

/// What one block contributes to the [`EpochAudit`] rule when it holds a
/// given content version: the two numbers the rule compares.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LbaVerdict {
    /// Epoch of the transfer whose tag the block holds (it makes that
    /// epoch *visible*); `None` when no transfer of this block wrote it.
    vis: Option<u64>,
    /// Epoch of the first transfer of this block newer than what it holds
    /// (that transfer is *lost*); `None` when the block is up to date.
    need: Option<u64>,
}

/// `min` over epochs where `None` means "no such epoch".
fn min_epoch(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) | (None, x) => x,
    }
}

/// Re-keys `lba` in one of [`EpochIndex`]'s ordered sets.
fn move_entry(set: &mut BTreeSet<(u64, Lba)>, lba: Lba, old: Option<u64>, new: Option<u64>) {
    if old == new {
        return;
    }
    if let Some(e) = old {
        set.remove(&(e, lba));
    }
    if let Some(e) = new {
        set.insert((e, lba));
    }
}

/// Tags are bump-allocated per stack, so a device's tags are dense up to
/// the share other devices and unwritten versions take. A tag that would
/// stretch [`EpochIndex`]'s tag window past this many slots per tag held,
/// plus [`TAG_SLACK`], is no such tag: the history is irregular.
const TAG_SLOTS_PER_TAG: u64 = 16;

/// Window slots any history may use whatever its density (512 KiB).
const TAG_SLACK: u64 = 1 << 16;

/// Tags at or past this bound are never indexed (the history is irregular).
const TAG_LIMIT: u64 = 1 << 32;

/// The transfer that carried one content tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Carried {
    /// Its block's position in [`EpochIndex`]'s block slots.
    block: u32,
    seq: u64,
    epoch: u64,
}

/// Everything [`EpochIndex`] knows of one block.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BlockSlot {
    /// `(seq, epoch)` of the block's first transfer, held inline: most
    /// blocks are written once, and a slot for one costs no allocation.
    first: (u64, u64),
    /// `(seq, epoch)` of its later transfers. With `first`, strictly
    /// ascending by sequence: a same-epoch overwrite coalesced onto its
    /// predecessor's sequence shares that entry (and its epoch).
    later: Vec<(u64, u64)>,
    /// The verdict of the block under the base.
    verdict: LbaVerdict,
}

impl BlockSlot {
    /// The newest transfer.
    fn last(&self) -> (u64, u64) {
        self.later.last().copied().unwrap_or(self.first)
    }

    /// The oldest transfer with a sequence above `seq`.
    fn newer_than(&self, seq: u64) -> Option<(u64, u64)> {
        if self.first.0 > seq {
            return Some(self.first);
        }
        let at = self.later.partition_point(|&(s, _)| s <= seq);
        self.later.get(at).copied()
    }
}

/// [`EpochAudit`] kept incrementally over a base image that changes by
/// folds, for the crash enumerator: every image of a capture point is the
/// base plus a small overlay, so a block the overlay does not touch
/// contributes the same verdict (`LbaVerdict`) to every image of the point.
///
/// The audit's rule reduces to two extremes: an image violates iff the
/// smallest `need` over all blocks is below the largest `vis`. The index
/// holds every block's verdict under the base in two ordered sets, so the
/// extremes *excluding* an overlay's blocks cost O(overlay), and the
/// overlay's own blocks are judged from the tag each image gives them.
///
/// Nothing here is a tree walk: a tag's transfer is found by the tag's
/// bump number ([`SeqTable`], one slot per tag of the window it spans), a
/// block's slot by its address ([`IntMap`]: one multiply and a probe, memory
/// per block written), and the slot holds the block's transfers and its
/// cached verdict together.
///
/// What can move a cached verdict: a fold of that block, or a new
/// transfer of it — nothing else. [`EpochIndex::advance`] takes exactly
/// those. It relies on two regularities of a real transfer history (per
/// block, sequences and epochs never decrease; a content tag is
/// transferred once) and on its keys being dense (tags and blocks below
/// 2^32, a tag near the tags before it); a history that breaks one marks
/// the index irregular, it drops its tables and certifies nothing —
/// callers then run [`EpochAudit`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochIndex {
    /// The index covers `history[..ingested]`.
    ingested: usize,
    /// Content tag → its position in `carried`.
    by_tag: SeqTable<u32>,
    /// The transfer behind each tag, in ingest order.
    carried: Vec<Carried>,
    /// Block address → its position in `blocks`.
    slot_of: IntMap<Lba, u32>,
    /// Every block some transfer wrote, in order of first transfer.
    blocks: Vec<BlockSlot>,
    /// `(vis, block)` over the base verdicts.
    vis: BTreeSet<(u64, Lba)>,
    /// `(need, block)` over the base verdicts.
    need: BTreeSet<(u64, Lba)>,
    irregular: bool,
    /// [`EpochIndex::advance`]'s blocks to recompute: a buffer kept across
    /// calls, empty between them.
    dirty: Vec<Lba>,
}

impl EpochIndex {
    /// An index over an empty history.
    pub fn new() -> EpochIndex {
        EpochIndex::default()
    }

    /// Brings the index up to `history` (whose prefix it already covers)
    /// and to `base`, given the blocks folded since the previous call.
    /// Returns the number of block verdicts recomputed — the work done,
    /// bounded by the new transfers plus the folds.
    pub fn advance<B: ImageView>(
        &mut self,
        history: &[TransferRec],
        folded: impl IntoIterator<Item = Lba>,
        base: &B,
    ) -> usize {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.extend(folded);
        for t in history.iter().skip(self.ingested) {
            self.irregular = self.irregular || !self.ingest(t);
            dirty.push(t.lba);
        }
        self.ingested = history.len();
        dirty.sort_unstable();
        dirty.dedup();
        let work = dirty.len();
        if self.irregular {
            let ingested = self.ingested;
            *self = EpochIndex {
                ingested,
                irregular: true,
                ..EpochIndex::default()
            };
            return work;
        }
        for &lba in &dirty {
            // A block no transfer wrote holds the default verdict.
            let Some(slot) = self.slot(lba) else {
                continue;
            };
            let new = self.verdict_at(slot, base.tag(lba));
            let Some(b) = self.blocks.get_mut(slot) else {
                continue;
            };
            let old = std::mem::replace(&mut b.verdict, new);
            move_entry(&mut self.vis, lba, old.vis, new.vis);
            move_entry(&mut self.need, lba, old.need, new.need);
        }
        dirty.clear();
        self.dirty = dirty;
        work
    }

    /// Takes one transfer into the tables; false when it makes the
    /// history irregular.
    fn ingest(&mut self, t: &TransferRec) -> bool {
        if t.tag == BlockTag::UNWRITTEN || t.tag.0 >= TAG_LIMIT || t.lba >= Lba::LIMIT {
            return false;
        }
        let window = self.by_tag.window();
        if !window.is_empty() {
            let span = window.end.max(t.tag.0 + 1) - window.start.min(t.tag.0);
            if span > TAG_SLACK + TAG_SLOTS_PER_TAG * self.carried.len() as u64 {
                return false;
            }
        }
        if self.by_tag.contains(t.tag.0) {
            return false;
        }
        let slot = match self.slot(t.lba) {
            Some(slot) => {
                let Some(b) = self.blocks.get_mut(slot) else {
                    return false;
                };
                match b.last() {
                    (seq, epoch) if t.seq < seq || t.epoch < epoch => return false,
                    // A same-epoch overwrite coalesced onto its predecessor.
                    (seq, _) if t.seq == seq => {}
                    _ => b.later.push((t.seq, t.epoch)),
                }
                slot
            }
            None => {
                self.slot_of.insert(t.lba, self.blocks.len() as u32);
                self.blocks.push(BlockSlot {
                    first: (t.seq, t.epoch),
                    later: Vec::new(),
                    verdict: LbaVerdict::default(),
                });
                self.blocks.len() - 1
            }
        };
        self.by_tag.insert(t.tag.0, self.carried.len() as u32);
        self.carried.push(Carried {
            block: slot as u32,
            seq: t.seq,
            epoch: t.epoch,
        });
        true
    }

    /// The slot of `lba`, if a transfer wrote it.
    fn slot(&self, lba: Lba) -> Option<usize> {
        self.slot_of.get(&lba).map(|&s| s as usize)
    }

    /// The verdict of `lba` when it holds `tag`.
    fn verdict(&self, lba: Lba, tag: BlockTag) -> LbaVerdict {
        self.slot(lba)
            .map_or_else(LbaVerdict::default, |slot| self.verdict_at(slot, tag))
    }

    /// The verdict of the block in `slot` when it holds `tag`.
    fn verdict_at(&self, slot: usize, tag: BlockTag) -> LbaVerdict {
        let held = self
            .by_tag
            .get(tag.0)
            .and_then(|&c| self.carried.get(c as usize));
        let seq = held.map_or(0, |c| c.seq);
        let newer = self.blocks.get(slot).and_then(|b| b.newer_than(seq));
        LbaVerdict {
            vis: held.filter(|c| c.block as usize == slot).map(|c| c.epoch),
            need: newer.map(|(_, epoch)| epoch),
        }
    }

    /// Prepares the per-point half of the check. `candidates` names every
    /// `(block, tag)` an image of the point may give an overlay block: the
    /// probe computes those verdicts once, and the extremes over every
    /// block it does not name. `None` when the history is irregular.
    pub fn probe(
        &self,
        candidates: impl IntoIterator<Item = (Lba, BlockTag)>,
    ) -> Option<EpochProbe> {
        let mut probe = EpochProbe::default();
        self.reprobe(&mut probe, candidates).then_some(probe)
    }

    /// [`EpochIndex::probe`] into an existing probe, reusing its buffer: a
    /// crash explorer keeps one probe per device across the points of a
    /// trace. False when the history is irregular: the probe then
    /// certifies nothing.
    pub fn reprobe(
        &self,
        probe: &mut EpochProbe,
        candidates: impl IntoIterator<Item = (Lba, BlockTag)>,
    ) -> bool {
        let memo = &mut probe.memo;
        memo.clear();
        probe.regular = !self.irregular;
        if self.irregular {
            return false;
        }
        memo.extend(
            candidates
                .into_iter()
                .map(|(lba, tag)| (lba, tag, LbaVerdict::default())),
        );
        memo.sort_unstable_by_key(|m| (m.0, m.1));
        memo.dedup_by_key(|m| (m.0, m.1));
        for m in memo.iter_mut() {
            m.2 = self.verdict(m.0, m.1);
        }
        let outside = |e: &&(u64, Lba)| memo.binary_search_by_key(&e.1, |m| m.0).is_err();
        probe.vis = self.vis.iter().rev().find(outside).map(|e| e.0);
        probe.need = self.need.iter().find(outside).map(|e| e.0);
        true
    }
}

/// One capture point's view of an [`EpochIndex`]: the extremes outside
/// the point's overlay, and the verdict of every `(block, tag)` the
/// overlay may hold, ready to be combined per image. It borrows nothing,
/// so one probe can be re-aimed point after point
/// ([`EpochIndex::reprobe`]).
#[derive(Debug, Clone, Default)]
pub struct EpochProbe {
    /// Aimed at a regular index; a probe that is not certifies nothing.
    regular: bool,
    vis: Option<u64>,
    need: Option<u64>,
    /// `(block, tag, verdict)` per candidate, ascending.
    memo: Vec<(Lba, BlockTag, LbaVerdict)>,
}

impl EpochProbe {
    /// True when the image `base ⊕ overlay` provably has no
    /// [`EpochViolation`]; `index` is the one the probe was built from,
    /// and `overlay` must resolve exactly the blocks the probe was built
    /// for, in ascending order. A `(block, tag)` among the candidates
    /// costs a memo read; any other is judged by the index. False means
    /// "run [`EpochAudit`]".
    pub fn certifies(
        &self,
        index: &EpochIndex,
        overlay: impl IntoIterator<Item = (Lba, BlockTag)>,
    ) -> bool {
        if !self.regular {
            return false;
        }
        let (mut vis, mut need) = (self.vis, self.need);
        let mut memo = self.memo.as_slice();
        for (lba, tag) in overlay {
            while let Some((_, rest)) = memo.split_first().filter(|(m, _)| m.0 < lba) {
                memo = rest;
            }
            let v = memo
                .iter()
                .take_while(|m| m.0 == lba)
                .find(|m| m.1 == tag)
                .map_or_else(|| index.verdict(lba, tag), |m| m.2);
            vis = vis.max(v.vis);
            need = min_epoch(need, v.need);
        }
        !matches!((vis, need), (Some(v), Some(n)) if n < v)
    }

    /// The newest visible and the oldest needed epoch over the blocks the
    /// probe does not name, under the base.
    pub fn extremes(&self) -> (Option<u64>, Option<u64>) {
        (self.vis, self.need)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn rec(seq: u64, lba: u64, tag: u64, epoch: u64) -> TransferRec {
        TransferRec {
            seq,
            lba: Lba(lba),
            tag: BlockTag(tag),
            epoch,
        }
    }

    /// An image holding `(lba, tag)` pairs.
    fn image(pairs: &[(u64, u64)]) -> BlockMap {
        pairs.iter().map(|&(l, t)| (Lba(l), BlockTag(t))).collect()
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

    #[test]
    fn audit_passes_on_prefix_image() {
        let history = vec![rec(1, 10, 100, 0), rec(2, 11, 101, 0), rec(3, 12, 102, 1)];
        // Epoch 0 fully persisted, epoch 1 lost: fine.
        let audit = EpochAudit::new(&history);
        assert!(audit.violations(&image(&[(10, 100), (11, 101)])).is_empty());
        // Nothing persisted: fine.
        assert!(audit.violations(&BlockMap::new()).is_empty());
    }

    #[test]
    fn audit_detects_lost_earlier_epoch() {
        let history = vec![rec(1, 10, 100, 0), rec(2, 12, 102, 1)];
        // Epoch 1 visible but epoch 0's block missing: violation.
        let img = image(&[(12, 102)]);
        let v = EpochAudit::new(&history).violations(&img);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lost.lba, Lba(10));
        assert_eq!(v[0].visible_epoch, 1);
    }

    #[test]
    fn audit_accepts_superseding_overwrite() {
        // Epoch 0 writes lba 10 (tag 100); epoch 1 overwrites it (tag 200)
        // and also writes lba 11. Image holds the *newer* version of 10 and
        // the epoch-1 block: no violation (the old version is superseded).
        let history = vec![rec(1, 10, 100, 0), rec(2, 10, 200, 1), rec(3, 11, 201, 1)];
        let img = image(&[(10, 200), (11, 201)]);
        assert!(EpochAudit::new(&history).violations(&img).is_empty());
    }

    #[test]
    fn audit_detects_old_version_regression() {
        // Epoch 1 visible, but lba 10 rolled back to the epoch-0 version
        // after an epoch-1 overwrite was lost — that loses an epoch-1 write,
        // allowed only for the newest visible epoch. Here epoch 2 is also
        // visible, so the epoch-1 overwrite must have persisted.
        let history = vec![rec(1, 10, 100, 0), rec(2, 10, 200, 1), rec(3, 11, 300, 2)];
        let img = image(&[(10, 100), (11, 300)]);
        let v = EpochAudit::new(&history).violations(&img);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lost.tag, BlockTag(200));
    }

    /// The index of `history` under `base`, from nothing.
    fn index_of(history: &[TransferRec], base: &BlockMap) -> EpochIndex {
        let mut index = EpochIndex::new();
        index.advance(history, [], base);
        index
    }

    /// Whether the index certifies `base ⊕ overlay`.
    fn certifies(index: &EpochIndex, overlay: &BTreeMap<Lba, BlockTag>) -> bool {
        let pairs = || overlay.iter().map(|(&l, &t)| (l, t));
        let probe = index.probe(pairs()).expect("regular");
        probe.certifies(index, pairs())
    }

    #[test]
    fn index_reads_an_overlay_like_the_audit_reads_the_image() {
        // Epoch 0 writes blocks 10 and 11, epoch 1 overwrites 10 and writes
        // 12; the base holds epoch 0.
        let history = vec![
            rec(1, 10, 100, 0),
            rec(2, 11, 101, 0),
            rec(3, 10, 200, 1),
            rec(4, 12, 201, 1),
        ];
        let base: BlockMap = [(Lba(10), BlockTag(100)), (Lba(11), BlockTag(101))]
            .into_iter()
            .collect();
        let index = index_of(&history, &base);
        // Nothing of epoch 1 landed, or all of it, or part of it: ordered.
        assert!(certifies(&index, &[].into()));
        assert!(certifies(
            &index,
            &[(Lba(10), BlockTag(200)), (Lba(12), BlockTag(201))].into()
        ));
        assert!(certifies(&index, &[(Lba(12), BlockTag(201))].into()));
        // Epoch 1 visible while a block of epoch 0 went missing: not
        // certified, and the audit names the loss.
        let overlay: BTreeMap<Lba, BlockTag> =
            [(Lba(11), BlockTag::UNWRITTEN), (Lba(12), BlockTag(201))].into();
        assert!(!certifies(&index, &overlay));
        let mut image = base.clone();
        image.extend(overlay);
        assert_eq!(EpochAudit::new(&history).violations(&image).len(), 1);
    }

    #[test]
    fn irregular_history_is_never_certified() {
        let base = BlockMap::new();
        // One tag carried by two transfers.
        let twice = [rec(1, 10, 100, 0), rec(2, 11, 100, 0)];
        assert!(index_of(&twice, &base).probe([]).is_none());
        // A block's sequence going backwards.
        let backwards = [rec(5, 10, 100, 0), rec(4, 10, 101, 0)];
        assert!(index_of(&backwards, &base).probe([]).is_none());
        // A same-epoch overwrite coalesced onto its predecessor's sequence
        // is regular.
        let coalesced = [rec(5, 10, 100, 0), rec(6, 11, 101, 0), rec(5, 10, 102, 0)];
        assert!(index_of(&coalesced, &base).probe([]).is_some());
    }

    #[test]
    fn a_write_the_device_cannot_hold_never_reaches_the_log() {
        use crate::{CmdId, Command, Completion, DevAction, Device, DeviceProfile, WriteFlags};
        use bio_sim::SimTime;
        let mut dev = Device::new(DeviceProfile::ufs(), 1);
        let mut out = Vec::new();
        let limit = Lba::LIMIT.0;
        // At the limit, straddling it, and where the span overflows.
        for (id, start, blocks) in [(1, limit, 1), (2, limit - 1, 2), (3, u64::MAX, 2)] {
            let tags = (0..blocks).map(|i| BlockTag(10 * id + i)).collect();
            let cmd = Command::write(CmdId(id), Lba(start), tags, WriteFlags::FLUSH_FUA);
            assert!(dev.submit(cmd, SimTime::ZERO, &mut out).is_ok());
        }
        let done = |id| {
            DevAction::Complete(Completion {
                id: CmdId(id),
                at: SimTime::ZERO,
            })
        };
        assert_eq!(
            out,
            [done(1), done(2), done(3)],
            "completed, nothing scheduled"
        );
        assert_eq!(dev.stats().out_of_range_writes, 3);
        assert_eq!((dev.queue_depth(), dev.append_log().appends()), (0, 0));
        assert!(dev.crash_image().is_empty() && dev.final_image().is_empty());
        // The last block below the limit is admitted like any other.
        out.clear();
        let last = Command::write(
            CmdId(4),
            Lba(limit - 1),
            vec![BlockTag(7)],
            WriteFlags::NONE,
        );
        assert!(dev.submit(last, SimTime::ZERO, &mut out).is_ok());
        assert_eq!(dev.queue_depth(), 1);
        assert!(matches!(out.as_slice(), [DevAction::After(..)]));
        assert_eq!(dev.stats().out_of_range_writes, 3);
    }

    #[test]
    fn a_coalesced_overwrite_shares_its_predecessors_entry() {
        // Three transfers of block 10 under one sequence: one entry, with
        // the epoch the sequence was first transferred in — and that is
        // the epoch a later transfer of the block is held to.
        let history = [
            rec(5, 10, 100, 0),
            rec(6, 11, 101, 0),
            rec(5, 10, 102, 0),
            rec(5, 10, 103, 1),
        ];
        let index = index_of(&history, &BlockMap::new());
        let slot = index.slot(Lba(10)).expect("block 10 was written");
        let b = &index.blocks[slot];
        assert_eq!((b.first, b.later.as_slice()), ((5, 0), &[][..]));
        let later = [&history[..], &[rec(7, 10, 104, 0)]].concat();
        assert!(index_of(&later, &BlockMap::new()).probe([]).is_some());
    }

    /// An index that went irregular holds no table at all.
    fn dropped_its_tables(index: &EpochIndex) -> bool {
        index.probe([]).is_none()
            && index.by_tag.window().is_empty()
            && index.carried.is_empty()
            && index.blocks.is_empty()
            && index.slot_of.is_empty()
    }

    #[test]
    fn a_tag_at_or_past_2_pow_32_is_irregular_not_a_panic() {
        let base = BlockMap::new();
        for tag in [TAG_LIMIT, TAG_LIMIT + 5, u64::MAX] {
            let history = [rec(1, 10, 100, 0), rec(2, 11, tag, 0)];
            let index = index_of(&history, &base);
            assert!(dropped_its_tables(&index), "tag {tag}");
        }
        // Just below the bound is a tag like any other.
        let history = [rec(1, 10, TAG_LIMIT - 1, 0)];
        assert!(index_of(&history, &base).probe([]).is_some());
    }

    #[test]
    fn a_block_at_or_past_the_lba_limit_is_irregular_not_a_panic() {
        let base = BlockMap::new();
        for lba in [Lba::LIMIT.0, u64::MAX] {
            let history = [rec(1, 10, 100, 0), rec(2, lba, 101, 0)];
            let mut index = EpochIndex::new();
            // Folding the block in question is harmless too: the index
            // never keys anything by it.
            index.advance(&history, [Lba(lba)], &base);
            assert!(dropped_its_tables(&index), "block {lba}");
        }
    }

    #[test]
    fn a_tag_far_outside_the_window_is_irregular_without_a_giant_table() {
        let base = BlockMap::new();
        // Ahead of the window and, separately, behind it: each would
        // stretch the tag table over about 2^31 slots.
        for far in [1u64 << 31, 1] {
            let near = 1u64 << 30;
            let history = [
                rec(1, 10, near, 0),
                rec(2, 11, near + 1, 0),
                rec(3, 12, far, 0),
            ];
            let index = index_of(&history, &base);
            assert!(dropped_its_tables(&index), "tag {far}");
        }
        // The widest gap the density allows is regular, and the window
        // spans it.
        let gap = TAG_SLACK + 2 * TAG_SLOTS_PER_TAG - 1;
        let history = [
            rec(1, 10, 100, 0),
            rec(2, 11, 101, 0),
            rec(3, 12, 100 + gap, 0),
        ];
        let index = index_of(&history, &base);
        assert!(index.probe([]).is_some());
        assert_eq!(index.by_tag.window(), 100..101 + gap);
        // A long history may spread its tags at the same density.
        let sparse: Vec<TransferRec> = (0..10_000)
            .map(|i| rec(i + 1, i % 64, 1 + i * TAG_SLOTS_PER_TAG, 0))
            .collect();
        assert!(index_of(&sparse, &base).probe([]).is_some());
    }

    #[test]
    fn a_candidate_verdict_is_read_by_block_and_tag() {
        // Block 10 was written in epochs 0 and 1; the memo holds a
        // verdict for each version. An image holding the old version
        // while block 12's epoch-1 write is visible loses an epoch-0
        // block's newer version only if the memo tells the versions apart.
        let history = [rec(1, 10, 100, 0), rec(2, 10, 200, 1), rec(3, 12, 300, 2)];
        let index = index_of(&history, &BlockMap::new());
        let candidates = [
            (Lba(10), BlockTag(100)),
            (Lba(10), BlockTag(200)),
            (Lba(12), BlockTag(300)),
        ];
        let probe = index.probe(candidates).expect("regular");
        let old = [(Lba(10), BlockTag(100)), (Lba(12), BlockTag(300))];
        let new = [(Lba(10), BlockTag(200)), (Lba(12), BlockTag(300))];
        assert!(!probe.certifies(&index, old), "epoch 1 lost under epoch 2");
        assert!(probe.certifies(&index, new));
        // A tag the candidates did not name is judged all the same.
        let gone = [(Lba(10), BlockTag::UNWRITTEN), (Lba(12), BlockTag(300))];
        assert!(!probe.certifies(&index, gone));
    }

    #[test]
    fn index_matches_the_audit_on_random_histories() {
        let mut rng = bio_sim::SimRng::new(0xE90C);
        let (mut clean, mut dirty) = (0, 0);
        for _ in 0..300 {
            // A regular history over six blocks: sequences and epochs grow,
            // every tag is new, some overwrites coalesce.
            let mut history: Vec<TransferRec> = Vec::new();
            let (mut epoch, mut last_seq) = (0, BTreeMap::new());
            for i in 0..rng.range(4, 40) {
                epoch += rng.below(3) / 2;
                let lba = Lba(rng.below(6));
                let seq = match last_seq.get(&lba) {
                    Some(&(s, e)) if e == epoch && rng.chance(0.3) => s,
                    _ => i + 1,
                };
                last_seq.insert(lba, (seq, epoch));
                history.push(rec(seq, lba.0, 100 + i, epoch));
            }
            // Ingest it in steps; after each, fold a few ingested transfers
            // in any order and hold the advanced index to a rebuilt one.
            let mut base = BlockMap::new();
            let mut index = EpochIndex::new();
            let mut upto = 0;
            while upto < history.len() {
                upto = (upto + 1 + rng.below(6) as usize).min(history.len());
                let folded: Vec<Lba> = (0..rng.below(4))
                    .map(|_| {
                        let t = history[rng.below(upto as u64) as usize];
                        base.insert(t.lba, t.tag);
                        t.lba
                    })
                    .collect();
                index.advance(&history[..upto], folded, &base);
                assert_eq!(index, index_of(&history[..upto], &base));
                // Any overlay: each block unwritten, or at any version ever
                // transferred to it.
                let overlay: BTreeMap<Lba, BlockTag> = (0..rng.below(4))
                    .map(|_| {
                        let lba = Lba(rng.below(6));
                        let versions: Vec<BlockTag> = history[..upto]
                            .iter()
                            .filter(|t| t.lba == lba)
                            .map(|t| t.tag)
                            .chain([BlockTag::UNWRITTEN])
                            .collect();
                        (lba, *rng.choose(&versions).expect("non-empty"))
                    })
                    .collect();
                let mut image = base.clone();
                image.extend(overlay.iter().map(|(&l, &t)| (l, t)));
                let audit = EpochAudit::new(&history[..upto]).violations(&image);
                assert_eq!(certifies(&index, &overlay), audit.is_empty());
                if audit.is_empty() {
                    clean += 1;
                } else {
                    dirty += 1;
                }
            }
        }
        assert!(
            clean > 100 && dirty > 100,
            "{clean} clean, {dirty} violating"
        );
    }

    #[test]
    fn partial_newest_epoch_is_allowed() {
        let history = vec![rec(1, 10, 100, 0), rec(2, 11, 101, 1), rec(3, 12, 102, 1)];
        // Epoch 1 partially persisted (one of two blocks): allowed, because
        // nothing *newer* than epoch 1 is visible.
        let img = image(&[(10, 100), (12, 102)]);
        assert!(EpochAudit::new(&history).violations(&img).is_empty());
    }
}
