//! The epoch audit kept incrementally: [`EpochIndex`] holds each block's
//! verdict under a capture point's base image and the per-epoch counts of
//! those verdicts, advanced by folds and new transfers; [`EpochProbe`]
//! judges one image of the point from what its overlay touches. Whatever
//! they cannot certify clean goes to the full [`EpochAudit`].

use bio_sim::{IntMap, SeqTable};

use crate::audit::TransferRec;
#[cfg(doc)]
use crate::audit::{EpochAudit, EpochViolation};
use crate::image::ImageView;
use crate::types::{BlockTag, Lba};

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

/// How many blocks' base verdicts name each epoch, on one side of
/// [`EpochIndex`] (`vis` or `need`), counted from the index's first epoch,
/// with cursors at the lowest and the highest epoch any block names.
///
/// The non-empty epochs are also marked in a bitmap of 64-epoch words,
/// whose non-zero words are marked in the same way one level up, until a
/// level is one word. The non-empty epoch next to any epoch is therefore
/// one word scan per level away, however many empty epochs lie between:
/// five levels hold 2^30 epochs.
#[derive(Debug, Clone, Default)]
struct EpochCounts {
    /// Blocks per epoch. May run past `highest` with zeroes.
    counts: Vec<u32>,
    /// Bit `e` of `marks[0]` is set when `counts[e]` is not zero, bit `w`
    /// of `marks[l + 1]` when word `w` of `marks[l]` is not.
    marks: Vec<Vec<u64>>,
    /// The lowest non-empty epoch.
    lowest: Option<usize>,
    /// The highest non-empty epoch.
    highest: Option<usize>,
}

/// Two tallies are equal when they count the same blocks at the same
/// epochs, however far either has grown.
impl PartialEq for EpochCounts {
    fn eq(&self, other: &EpochCounts) -> bool {
        self.live() == other.live()
    }
}

impl Eq for EpochCounts {}

// Every level, word and count index below is bounded by `counts.len()`,
// which `grow` keeps every level sized to.
#[allow(clippy::indexing_slicing, reason = "levels sized by `grow`")]
impl EpochCounts {
    /// The counts up to the highest non-empty epoch.
    fn live(&self) -> &[u32] {
        let len = self.highest.map_or(0, |h| h + 1);
        self.counts.get(..len).unwrap_or_default()
    }

    fn count(&self, epoch: usize) -> u32 {
        self.counts.get(epoch).copied().unwrap_or(0)
    }

    /// Counts one more block at `epoch`.
    fn add(&mut self, epoch: usize) {
        if epoch >= self.counts.len() {
            self.grow(epoch + 1);
        }
        self.counts[epoch] += 1;
        if self.counts[epoch] == 1 {
            self.mark(epoch, true);
        }
        self.lowest = Some(self.lowest.map_or(epoch, |l| l.min(epoch)));
        self.highest = Some(self.highest.map_or(epoch, |h| h.max(epoch)));
    }

    /// Counts one block fewer at `epoch`, where [`EpochCounts::add`]
    /// counted it.
    fn remove(&mut self, epoch: usize) {
        self.counts[epoch] -= 1;
        if self.counts[epoch] > 0 {
            return;
        }
        self.mark(epoch, false);
        if self.lowest == Some(epoch) {
            self.lowest = self.above(epoch);
        }
        if self.highest == Some(epoch) {
            self.highest = self.below(epoch);
        }
    }

    /// Sizes the counts and every level of marks to `len` epochs, adding
    /// a level (marked from the one under it) while the top has more than
    /// one word.
    fn grow(&mut self, len: usize) {
        self.counts.resize(len, 0);
        let (mut bits, mut level) = (len, 0);
        loop {
            let words = bits.div_ceil(64);
            if level == self.marks.len() {
                let mut top = vec![0u64; words];
                if let Some(under) = level.checked_sub(1).map(|l| &self.marks[l]) {
                    for (w, _) in under.iter().enumerate().filter(|(_, &x)| x != 0) {
                        top[w / 64] |= 1 << (w % 64);
                    }
                }
                self.marks.push(top);
            } else {
                self.marks[level].resize(words, 0);
            }
            if words == 1 {
                return;
            }
            (bits, level) = (words, level + 1);
        }
    }

    /// Sets or clears the mark of `epoch`, and up the levels each word's
    /// mark that this turns on or off.
    fn mark(&mut self, epoch: usize, on: bool) {
        let mut pos = epoch;
        for level in &mut self.marks {
            let word = &mut level[pos / 64];
            let was = *word != 0;
            if on {
                *word |= 1 << (pos % 64);
            } else {
                *word &= !(1 << (pos % 64));
            }
            if was == (*word != 0) {
                return;
            }
            pos /= 64;
        }
    }

    /// The highest non-empty epoch at or below `epoch`: up the levels to
    /// the first word with a mark at or below the position, then down
    /// along each level's highest mark.
    fn below(&self, epoch: usize) -> Option<usize> {
        let mut pos = epoch.min(self.counts.len().checked_sub(1)?);
        let mut level = 0;
        let mut at = loop {
            let word = self.marks.get(level)?[pos / 64] & (u64::MAX >> (63 - pos % 64));
            if word != 0 {
                break pos / 64 * 64 + 63 - word.leading_zeros() as usize;
            }
            pos = (pos / 64).checked_sub(1)?;
            level += 1;
        };
        for l in (0..level).rev() {
            at = at * 64 + 63 - self.marks[l][at].leading_zeros() as usize;
        }
        Some(at)
    }

    /// The lowest non-empty epoch at or above `epoch`, the mirror of
    /// [`EpochCounts::below`].
    fn above(&self, epoch: usize) -> Option<usize> {
        let (mut pos, mut level) = (epoch, 0);
        let mut at = loop {
            let word = self.marks.get(level)?.get(pos / 64)? & (u64::MAX << (pos % 64));
            if word != 0 {
                break pos / 64 * 64 + word.trailing_zeros() as usize;
            }
            pos = pos / 64 + 1;
            level += 1;
        };
        for l in (0..level).rev() {
            at = at * 64 + self.marks[l][at].trailing_zeros() as usize;
        }
        Some(at)
    }

    /// The highest epoch some block counts at once the `named` blocks are
    /// taken out, and the count slots read to find it. `named` holds the
    /// epochs those blocks are counted at, descending: the walk goes down
    /// the non-empty epochs from the cursor, and only an epoch whose every
    /// block is named sends it further.
    fn highest_outside(&self, named: &[usize]) -> (Option<usize>, usize) {
        let (mut at, mut read) = (self.highest, 0);
        let mut named = named.iter().peekable();
        while let Some(epoch) = at {
            read += 1;
            let mut here = 0;
            while named.next_if(|&&e| e >= epoch).is_some() {
                here += 1;
            }
            if self.count(epoch) > here {
                return (Some(epoch), read);
            }
            at = epoch.checked_sub(1).and_then(|e| self.below(e));
        }
        (None, read)
    }

    /// [`EpochCounts::highest_outside`] upwards: the lowest epoch some
    /// block counts at outside `named`, given ascending.
    fn lowest_outside(&self, named: &[usize]) -> (Option<usize>, usize) {
        let (mut at, mut read) = (self.lowest, 0);
        let mut named = named.iter().peekable();
        while let Some(epoch) = at {
            read += 1;
            let mut here = 0;
            while named.next_if(|&&e| e <= epoch).is_some() {
                here += 1;
            }
            if self.count(epoch) > here {
                return (Some(epoch), read);
            }
            at = self.above(epoch + 1);
        }
        (None, read)
    }
}

/// Moves one block's count from epoch `old` to epoch `new` (epochs from
/// `first` on).
fn move_count(counts: &mut EpochCounts, first: u64, old: Option<u64>, new: Option<u64>) {
    if old == new {
        return;
    }
    if let Some(e) = old {
        counts.remove((e - first) as usize);
    }
    if let Some(e) = new {
        counts.add((e - first) as usize);
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

/// A barrier write closes its epoch, so a real history's epochs run at
/// most one past the first transfer's per transfer. An epoch further out
/// than that plus this slack, or below the first transfer's, would stretch
/// [`EpochIndex`]'s epoch counts: the history is irregular.
const EPOCH_SLACK: u64 = 1 << 16;

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
/// counts the blocks whose verdict under the base names each epoch, per
/// side, with a cursor at the highest `vis` and the lowest `need` epoch.
/// The extremes *excluding* an overlay's blocks start at the cursor and
/// take out the base verdicts of the overlay's own blocks: an epoch whose
/// every block the overlay names moves the walk to the next non-empty one,
/// which a bitmap of the non-empty epochs finds without visiting the empty
/// ones between. A probe therefore reads, per side, at most one count per
/// block it names plus one, whatever the number of epochs; the overlay's
/// own blocks are judged from the tag each image gives them.
///
/// Nothing here is a tree walk: a tag's transfer is found by the tag's
/// bump number ([`SeqTable`], one slot per tag of the window it spans), a
/// block's slot by its address ([`IntMap`]: one multiply and a probe, memory
/// per block written), the slot holds the block's transfers and its cached
/// verdict together, and an epoch's count is indexed by the epoch.
///
/// What can move a cached verdict: a fold of that block, or a new
/// transfer of it — nothing else. [`EpochIndex::advance`] takes exactly
/// those. It relies on two regularities of a real transfer history (per
/// block, sequences and epochs never decrease; a content tag is
/// transferred once) and on its keys being dense (tags and blocks below
/// 2^32, a tag near the tags before it, an epoch no lower than the first
/// transfer's and at most 2^16 past one per transfer above it); a history
/// that breaks one marks the index irregular, it drops its tables and
/// certifies nothing — callers then run [`EpochAudit`].
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
    /// The epoch of the first transfer: epoch 0 of `vis` and `need`.
    first_epoch: u64,
    /// Blocks per `vis` epoch of the base verdicts.
    vis: EpochCounts,
    /// Blocks per `need` epoch of the base verdicts.
    need: EpochCounts,
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
            let first = self.first_epoch;
            move_count(&mut self.vis, first, old.vis, new.vis);
            move_count(&mut self.need, first, old.need, new.need);
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
        if self.carried.is_empty() {
            self.first_epoch = t.epoch;
        }
        let past = self.carried.len() as u64 + EPOCH_SLACK;
        if t.epoch < self.first_epoch || t.epoch - self.first_epoch > past {
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

    /// [`EpochIndex::reprobe`] into a fresh probe; `None` when the history
    /// is irregular. The unit tests' shorthand.
    #[cfg(test)]
    pub fn probe(
        &self,
        candidates: impl IntoIterator<Item = (Lba, BlockTag)>,
    ) -> Option<EpochProbe> {
        let mut probe = EpochProbe::default();
        self.reprobe(&mut probe, candidates).then_some(probe)
    }

    /// Aims `probe`, the per-point half of the check, at this index.
    /// `candidates` names every `(block, tag)` an image of the point may
    /// give an overlay block: the probe computes those verdicts once, and
    /// the extremes over every block it does not name. The probe's buffers
    /// are reused: a crash explorer keeps one probe per device across the
    /// points of a trace. False when the history is irregular: the probe
    /// then certifies nothing.
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
        // One slot lookup per named block gives its candidates' verdicts
        // and its base verdict, whose epochs the walks below take out. A
        // block no transfer wrote keeps the default verdict and counts
        // nowhere.
        let first = self.first_epoch;
        let at = |epoch: u64| (epoch - first) as usize;
        let (named_vis, named_need) = (&mut probe.named_vis, &mut probe.named_need);
        named_vis.clear();
        named_need.clear();
        for block in memo.chunk_by_mut(|a, b| a.0 == b.0) {
            let Some(slot) = block.first().and_then(|m| self.slot(m.0)) else {
                continue;
            };
            for m in block.iter_mut() {
                m.2 = self.verdict_at(slot, m.1);
            }
            if let Some(base) = self.blocks.get(slot).map(|b| b.verdict) {
                named_vis.extend(base.vis.map(at));
                named_need.extend(base.need.map(at));
            }
        }
        named_vis.sort_unstable_by(|a, b| b.cmp(a));
        named_need.sort_unstable();
        let (vis, read_vis) = self.vis.highest_outside(named_vis);
        let (need, read_need) = self.need.lowest_outside(named_need);
        probe.vis = vis.map(|e| first + e as u64);
        probe.need = need.map(|e| first + e as u64);
        probe.read = read_vis + read_need;
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
    /// The epochs the named blocks' base verdicts are counted at, `vis`
    /// descending and `need` ascending: buffers kept across re-aims.
    named_vis: Vec<usize>,
    named_need: Vec<usize>,
    /// Epoch counts the last re-aim read.
    read: usize,
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
    #[cfg(test)]
    pub fn extremes(&self) -> (Option<u64>, Option<u64>) {
        (self.vis, self.need)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::audit::EpochAudit;
    use crate::image::BlockMap;

    fn rec(seq: u64, lba: u64, tag: u64, epoch: u64) -> TransferRec {
        TransferRec {
            seq,
            lba: Lba(lba),
            tag: BlockTag(tag),
            epoch,
        }
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
            && index.vis.counts.is_empty()
            && index.need.counts.is_empty()
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
    fn an_epoch_far_outside_the_transfers_is_irregular_without_a_giant_table() {
        let base = BlockMap::new();
        // Below the first transfer's epoch, or past it by more than one a
        // transfer plus the slack: either would stretch the epoch counts.
        for far in [4, 8 + EPOCH_SLACK, 1 << 40] {
            let history = [rec(1, 10, 100, 5), rec(2, 11, 101, 6), rec(3, 12, 102, far)];
            assert!(
                dropped_its_tables(&index_of(&history, &base)),
                "epoch {far}"
            );
        }
        // The widest step the slack allows is regular.
        let history = [
            rec(1, 10, 100, 5),
            rec(2, 11, 101, 6),
            rec(3, 12, 102, 7 + EPOCH_SLACK),
        ];
        let index = index_of(&history, &base);
        assert_eq!(index.probe([]).map(|p| p.extremes()), Some((None, Some(5))));
        assert_eq!(index.need.highest, Some(2 + EPOCH_SLACK as usize));
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

    /// The newest `vis` and oldest `need` epoch over the blocks below
    /// `blocks` that `overlay` leaves out, read block by block.
    fn extremes_by_scan(
        index: &EpochIndex,
        blocks: u64,
        overlay: &BTreeMap<Lba, BlockTag>,
    ) -> (Option<u64>, Option<u64>) {
        let verdicts = (0..blocks)
            .map(Lba)
            .filter(|lba| !overlay.contains_key(lba))
            .filter_map(|lba| index.slot(lba).map(|slot| index.blocks[slot].verdict));
        let vis = verdicts.clone().filter_map(|v| v.vis).max();
        (vis, verdicts.filter_map(|v| v.need).min())
    }

    #[test]
    fn index_matches_the_audit_on_random_histories() {
        let mut rng = bio_sim::SimRng::new(0xE90C);
        let (mut clean, mut dirty, mut long, mut broke) = (0, 0, 0, 0);
        for case in 0..300 {
            // A regular history: sequences and epochs grow, every tag is
            // new, some overwrites coalesce (a few under a newer epoch). Two
            // cases in three are six blocks under slow epochs; the third are
            // two or three blocks under an epoch per transfer, most folds
            // the newest version of a block (emptying every epoch it held
            // before) and some an old one (moving `vis` and `need` back down
            // past empty runs).
            let long_runs = case % 3 == 2;
            let (blocks, len) = if long_runs {
                (rng.range(2, 4), rng.range(100, 400))
            } else {
                (6, rng.range(4, 40))
            };
            let mut history: Vec<TransferRec> = Vec::new();
            let (mut epoch, mut last_seq) = (0, BTreeMap::new());
            for i in 0..len {
                epoch += if long_runs { 1 } else { rng.below(3) / 2 };
                let lba = Lba(rng.below(blocks));
                let seq = match last_seq.get(&lba) {
                    Some(&(s, e)) if (e == epoch || rng.chance(0.1)) && rng.chance(0.3) => s,
                    _ => i + 1,
                };
                last_seq.insert(lba, (seq, epoch));
                history.push(rec(seq, lba.0, 100 + i, epoch));
            }
            // A short case in four breaks one transfer of its second half:
            // a tag carried twice, a block's sequence or epoch going back,
            // the UNWRITTEN tag. From there on the index certifies nothing.
            let broken = (!long_runs && case % 4 == 0).then(|| {
                let at = len / 2 + rng.below(len - len / 2);
                let earlier = history[rng.below(at) as usize];
                let t = &mut history[at as usize];
                match rng.below(4) {
                    0 => t.tag = earlier.tag,
                    1 => (t.lba, t.seq) = (earlier.lba, earlier.seq - 1),
                    2 => (t.lba, t.epoch) = (earlier.lba, earlier.epoch.wrapping_sub(1)),
                    _ => t.tag = BlockTag::UNWRITTEN,
                }
                at as usize
            });
            // Ingest it in steps; after each, fold a few ingested transfers
            // in any order and hold the advanced index to a rebuilt one.
            let mut base = BlockMap::new();
            let mut index = EpochIndex::new();
            let mut upto = 0;
            while upto < history.len() {
                let step = if long_runs { 40 } else { 6 };
                upto = (upto + 1 + rng.below(step) as usize).min(history.len());
                let pick = |rng: &mut bio_sim::SimRng| {
                    let any = history[rng.below(upto as u64) as usize];
                    let newest = history[..upto].iter().rev().find(|t| t.lba == any.lba);
                    match newest {
                        Some(&t) if long_runs && rng.chance(0.7) => t,
                        _ => any,
                    }
                };
                // A tag no transfer carries.
                let stranger = |rng: &mut bio_sim::SimRng| BlockTag(1_000 + rng.below(1_000));
                let folded: Vec<Lba> = (0..rng.below(4))
                    .map(|_| {
                        // Now and then another block's version or a stranger.
                        let t = pick(&mut rng);
                        let (lba, tag) = match rng.below(10) {
                            0 => (Lba(rng.below(blocks + 1)), t.tag),
                            1 => (t.lba, stranger(&mut rng)),
                            _ => (t.lba, t.tag),
                        };
                        base.insert(lba, tag);
                        lba
                    })
                    .collect();
                index.advance(&history[..upto], folded, &base);
                assert_eq!(index, index_of(&history[..upto], &base));
                if broken.is_some_and(|at| at < upto) {
                    assert!(index.probe([]).is_none(), "case {case}: certifies");
                    broke += 1;
                    continue;
                }
                let (vis, need) = (index.vis.highest, index.need.lowest);
                if long_runs && vis.zip(need).is_some_and(|(v, n)| v.abs_diff(n) > 64) {
                    long += 1;
                }
                // Any overlay: each block unwritten or at any version ever
                // transferred to it, all of which the probe is told of; now
                // and then a version it was not told of.
                let (mut told, mut overlay) = (Vec::new(), BTreeMap::new());
                for _ in 0..rng.below(4) {
                    let lba = Lba(rng.below(blocks));
                    let versions: Vec<BlockTag> = history[..upto]
                        .iter()
                        .filter(|t| t.lba == lba)
                        .map(|t| t.tag)
                        .chain([BlockTag::UNWRITTEN])
                        .collect();
                    told.extend(versions.iter().map(|&tag| (lba, tag)));
                    let tag = match rng.below(20) {
                        0 => history[rng.below(upto as u64) as usize].tag,
                        1 => stranger(&mut rng),
                        _ => *rng.choose(&versions).expect("non-empty"),
                    };
                    overlay.insert(lba, tag);
                }
                let probe = index.probe(told).expect("regular");
                assert_eq!(probe.extremes(), extremes_by_scan(&index, blocks, &overlay));
                let pairs = || overlay.iter().map(|(&l, &t)| (l, t));
                let mut image = base.clone();
                image.extend(pairs());
                let audit = EpochAudit::new(&history[..upto]).violations(&image);
                assert_eq!(probe.certifies(&index, pairs()), audit.is_empty());
                if audit.is_empty() {
                    clean += 1;
                } else {
                    dirty += 1;
                }
            }
        }
        assert!(
            clean > 100 && dirty > 100 && long > 100 && broke > 100,
            "{clean} clean, {dirty} violating, {long} with extremes 64 epochs apart, \
             {broke} irregular"
        );
    }

    #[test]
    fn epoch_counts_find_the_nearest_non_empty_epoch_across_levels() {
        // Counts over 300,000 epochs (four levels of marks) against a
        // sorted set, with gaps from one epoch to the whole range.
        let mut rng = bio_sim::SimRng::new(0xC0DE);
        let mut counts = EpochCounts::default();
        let mut reference: BTreeMap<usize, u32> = BTreeMap::new();
        let span = 300_000u64;
        for round in 0..4_000 {
            let epoch = match rng.below(3) {
                0 => rng.below(64),
                1 => rng.below(span),
                _ => span - 1 - rng.below(5_000),
            } as usize;
            let held = reference.get(&epoch).copied().unwrap_or(0);
            if held > 0 && (round > 3_000 || rng.chance(0.4)) {
                counts.remove(epoch);
                if held == 1 {
                    reference.remove(&epoch);
                } else {
                    reference.insert(epoch, held - 1);
                }
            } else {
                counts.add(epoch);
                reference.insert(epoch, held + 1);
            }
            assert_eq!(counts.marks.last().map(Vec::len), Some(1));
            assert_eq!(counts.lowest, reference.keys().next().copied());
            assert_eq!(counts.highest, reference.keys().next_back().copied());
            for _ in 0..4 {
                let at = rng.below(span + 100) as usize;
                assert_eq!(
                    counts.below(at),
                    reference.range(..=at).next_back().map(|e| *e.0)
                );
                assert_eq!(counts.above(at), reference.range(at..).next().map(|e| *e.0));
            }
        }
        assert_eq!(counts.marks.len(), 4, "300,000 epochs take four levels");
    }

    #[test]
    fn a_probe_reads_no_more_counts_than_it_names_blocks() {
        // Block 0 is written once, in epoch 0. Blocks 1..=4 are rewritten
        // in every later epoch, and each round is folded one round later:
        // thousands of epochs go empty under the cursors. A probe naming
        // blocks 1..=4 takes out every block of the top `vis` epoch and of
        // the bottom `need` epoch; the walk on to block 0 and past the end
        // must not visit the empty epochs between.
        let mut history = vec![rec(1, 0, 1, 0)];
        let mut base = BlockMap::new();
        let mut index = EpochIndex::new();
        let mut probe = EpochProbe::default();
        let mut tag = 1;
        for epoch in 1..=3_000u64 {
            let round = history.len();
            for lba in 1..=4 {
                tag += 1;
                history.push(rec(tag, lba, tag, epoch));
            }
            let folded: Vec<Lba> = history[..round]
                .iter()
                .rev()
                .take(4)
                .map(|t| t.lba)
                .collect();
            for t in &history[..round] {
                base.insert(t.lba, t.tag);
            }
            index.advance(&history, folded, &base);
            let named: Vec<(Lba, BlockTag)> =
                history[round..].iter().map(|t| (t.lba, t.tag)).collect();
            assert!(index.reprobe(&mut probe, named.iter().copied()));
            assert_eq!(probe.extremes(), (Some(0), None), "epoch {epoch}");
            assert!(
                probe.read <= named.len() + 2,
                "epoch {epoch}: {} counts read for {} candidates",
                probe.read,
                named.len()
            );
            // Naming fewer blocks than the top epoch holds stops there.
            assert!(index.reprobe(&mut probe, named.iter().copied().take(2)));
            let top = (epoch > 1).then(|| epoch - 1);
            assert_eq!(probe.extremes(), (top.or(Some(0)), Some(epoch)));
            assert!(probe.read <= 2, "epoch {epoch}: {} counts read", probe.read);
        }
    }
}
