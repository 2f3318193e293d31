//! Crash-consistency checking: journal replay over a persisted image and
//! the storage-order invariants of §2.3.
//!
//! The filesystem records every committed transaction as a [`TxnRecord`]
//! (ground truth). Given a crash image ([`ImageView`]: a device's
//! [`BlockMap`](bio_flash::BlockMap), or several read through the
//! stripe), [`ConsistencyCheck`] verifies:
//!
//! 1. **Commit order** — transactions become durable in commit order: a
//!    later transaction must never survive a crash that destroyed an
//!    earlier one.
//! 2. **Intra-transaction order** — JC must never persist without its
//!    JD/log blocks ("the filesystem may recover incorrectly").
//! 3. **Ordered-mode data** — a surviving transaction's ordered data pages
//!    must have persisted (data before journal in ordered journaling).
//! 4. **Durability claims** — if an `fsync` returned success, its
//!    transaction and data must survive.
//!
//! Content versions are compared by tag: tags are handed out
//! monotonically, so "the image holds version ≥ X at this block" is just a
//! numeric comparison, and overwritten (superseded) blocks are not false
//! positives.

// A checker walking its own tables: every position is an `enumerate()`
// count over `records` or a `u32` the index stored for it, and callers
// pass `records` whole and only ever longer. It judges crash images; no
// event reaches it.
#![allow(clippy::indexing_slicing, reason = "checker's own stored positions")]

use bio_flash::{BlockTag, ImageView, Lba};
use bio_sim::IntMap;

use crate::layout::TagRun;

/// Ground truth of one committed journal transaction.
///
/// The filesystem keeps one per commit for as long as it runs, so a
/// record is laid out to cost at most one allocation: the descriptor and
/// log tags are a run, and the three block lists share one boxed slice
/// behind [`TxnRecord::meta_home`], [`TxnRecord::data_home`] and
/// [`TxnRecord::ordered_data`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnRecord {
    /// Transaction id (commit order).
    pub id: u64,
    /// First journal block of the descriptor+logs chunk.
    pub jd_lba: Lba,
    /// Tags of the descriptor and log blocks (contiguous from `jd_lba`).
    pub jd_tags: TagRun,
    /// Commit block location.
    pub jc_lba: Lba,
    /// Commit block tag.
    pub jc_tag: BlockTag,
    /// The metadata homes, then the data homes, then the ordered data.
    blocks: Box<[(Lba, BlockTag)]>,
    /// Where the data homes start in `blocks`.
    data_at: u32,
    /// Where the ordered data starts in `blocks`.
    ordered_at: u32,
    /// An fsync returned success for this transaction.
    pub durability_claimed: bool,
}

impl TxnRecord {
    /// A record with no metadata home, data home or ordered data, and no
    /// durability claim.
    pub fn new(id: u64, jd_lba: Lba, jd_tags: TagRun, jc_lba: Lba, jc_tag: BlockTag) -> TxnRecord {
        TxnRecord {
            id,
            jd_lba,
            jd_tags,
            jc_lba,
            jc_tag,
            blocks: Box::default(),
            data_at: 0,
            ordered_at: 0,
            durability_claimed: false,
        }
    }

    /// The record with these block lists, in one allocation (none when
    /// all three are empty).
    pub fn with_blocks<M>(
        mut self,
        meta_home: M,
        data_home: &[(Lba, BlockTag)],
        ordered_data: &[(Lba, BlockTag)],
    ) -> TxnRecord
    where
        M: IntoIterator<Item = (Lba, BlockTag)>,
        M::IntoIter: ExactSizeIterator,
    {
        let meta_home = meta_home.into_iter();
        let data_at = meta_home.len();
        let ordered_at = data_at + data_home.len();
        let mut blocks = Vec::with_capacity(ordered_at + ordered_data.len());
        blocks.extend(meta_home);
        blocks.extend_from_slice(data_home);
        blocks.extend_from_slice(ordered_data);
        self.blocks = blocks.into_boxed_slice();
        // A transaction's lists are bounded by the journal's size.
        self.data_at = data_at as u32;
        self.ordered_at = ordered_at as u32;
        self
    }

    /// In-place metadata homes (checkpoint writes).
    pub fn meta_home(&self) -> &[(Lba, BlockTag)] {
        self.blocks.get(..self.data_at as usize).unwrap_or_default()
    }

    /// OptFS journaled data homes (checkpoint writes).
    pub fn data_home(&self) -> &[(Lba, BlockTag)] {
        let range = self.data_at as usize..self.ordered_at as usize;
        self.blocks.get(range).unwrap_or_default()
    }

    /// Data pages ordered before this commit.
    pub fn ordered_data(&self) -> &[(Lba, BlockTag)] {
        self.blocks
            .get(self.ordered_at as usize..)
            .unwrap_or_default()
    }
}

/// A detected crash-consistency violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsViolation {
    /// Transaction `later` survived while `earlier` was lost.
    CommitOrder {
        /// The lost earlier transaction.
        earlier: u64,
        /// The surviving later transaction.
        later: u64,
    },
    /// The commit block persisted without all of its log blocks.
    TornTransaction {
        /// The transaction with a dangling commit block.
        txn: u64,
    },
    /// A surviving transaction's ordered data page was lost.
    OrderedData {
        /// The transaction.
        txn: u64,
        /// The lost data block.
        lba: Lba,
    },
    /// An fsync-acknowledged transaction did not survive.
    DurabilityLoss {
        /// The transaction whose durability was promised.
        txn: u64,
    },
}

/// The journal blocks of a record: descriptor and logs, then the commit
/// block.
fn journal_lbas(r: &TxnRecord) -> impl Iterator<Item = Lba> + '_ {
    (0..r.jd_tags.len)
        .map(|i| Lba(r.jd_lba.0 + i))
        .chain([r.jc_lba])
}

fn jd_intact<V: ImageView>(r: &TxnRecord, image: &V) -> bool {
    r.jd_tags
        .iter()
        .enumerate()
        .all(|(i, t)| image.tag(Lba(r.jd_lba.0 + i as u64)) == t)
}

fn jc_intact<V: ImageView>(r: &TxnRecord, image: &V) -> bool {
    image.tag(r.jc_lba) == r.jc_tag
}

/// "Version at lba is at least `tag`": tags are globally monotonic, so a
/// bigger tag at the same block is a newer version of it.
fn present_or_superseded<V: ImageView>(image: &V, lba: Lba, tag: BlockTag) -> bool {
    image.tag(lba).0 >= tag.0
}

/// The crash-consistency checker with its record-only tables hoisted out
/// of the per-image loop: last-writer resolution and checkability depend
/// only on the records, so the crash enumerator builds one checker per
/// capture point and replays hundreds of images through it instead of
/// rebuilding the tables every time.
///
/// Only *checkable* transactions participate: a transaction whose journal
/// blocks were later reused (circular log wrap) cannot be distinguished
/// from a legitimately overwritten one, so it is skipped — by the time the
/// journal wraps it has long been checkpointed.
pub struct ConsistencyCheck<'a> {
    records: &'a [TxnRecord],
    /// Per record: all of its journal blocks still name it as last writer.
    checkable: Vec<bool>,
}

impl<'a> ConsistencyCheck<'a> {
    /// Precomputes the record-only tables: one newest-to-oldest scan, in
    /// which the first record to name a journal block is its last writer,
    /// and a record is checkable when it is the last writer of all of its
    /// journal blocks.
    pub fn new(records: &'a [TxnRecord]) -> ConsistencyCheck<'a> {
        let mut last_writer: IntMap<Lba, u64> = IntMap::default();
        let mut checkable = vec![false; records.len()];
        for (r, c) in records.iter().zip(&mut checkable).rev() {
            let mut own = true;
            for lba in journal_lbas(r) {
                own &= *last_writer.entry(lba).or_insert(r.id) == r.id;
            }
            *c = own;
        }
        ConsistencyCheck { records, checkable }
    }

    /// Replays the records against one crash image and returns all
    /// violations.
    pub fn violations<V: ImageView>(&self, image: &V) -> Vec<FsViolation> {
        let mut violations = Vec::new();
        let records = self.records;
        let checkable = |i: usize| self.checkable[i];
        let jd_intact = |r: &TxnRecord| jd_intact(r, image);
        let jc_intact = |r: &TxnRecord| jc_intact(r, image);
        let present_or_superseded =
            |lba: Lba, tag: BlockTag| present_or_superseded(image, lba, tag);

        // Pass 1: classify.
        let mut valid: Vec<bool> = Vec::with_capacity(records.len());
        for (i, r) in records.iter().enumerate() {
            let ok = checkable(i) && jd_intact(r) && jc_intact(r);
            valid.push(ok);
        }

        // Invariant 2: torn transactions (JC without full JD).
        for (i, r) in records.iter().enumerate() {
            if checkable(i) && jc_intact(r) && !jd_intact(r) {
                violations.push(FsViolation::TornTransaction { txn: r.id });
            }
        }

        // Invariant 1: commit order. Find the newest surviving transaction
        // and require all older checkable ones to have survived (or have
        // been legitimately superseded — handled by checkability).
        if let Some(newest_valid) = records
            .iter()
            .zip(&valid)
            .filter(|(_, v)| **v)
            .map(|(r, _)| r.id)
            .max()
        {
            for (i, (r, v)) in records.iter().zip(&valid).enumerate() {
                if r.id < newest_valid && checkable(i) && !*v {
                    violations.push(FsViolation::CommitOrder {
                        earlier: r.id,
                        later: newest_valid,
                    });
                }
            }
        }

        // Invariant 3: ordered data of surviving transactions.
        for (r, v) in records.iter().zip(&valid) {
            if *v {
                for &(lba, tag) in r.ordered_data() {
                    if !present_or_superseded(lba, tag) {
                        violations.push(FsViolation::OrderedData { txn: r.id, lba });
                    }
                }
            }
        }

        // Invariant 4: durability claims.
        for (i, (r, v)) in records.iter().zip(&valid).enumerate() {
            if r.durability_claimed && checkable(i) && !*v {
                violations.push(FsViolation::DurabilityLoss { txn: r.id });
            }
        }

        violations
    }
}

/// How one checkable record reads against an image, as far as the four
/// invariants care.
struct RecVerdict {
    /// JD and JC intact: the transaction survived.
    valid: bool,
    /// Violates by itself, whatever the other records do: torn, survived
    /// without its ordered data, or promised durable and lost.
    bad: bool,
}

fn rec_verdict<V: ImageView>(r: &TxnRecord, image: &V) -> RecVerdict {
    let (jd, jc) = (jd_intact(r, image), jc_intact(r, image));
    let valid = jd && jc;
    let od_lost = valid
        && r.ordered_data()
            .iter()
            .any(|&(lba, tag)| !present_or_superseded(image, lba, tag));
    RecVerdict {
        valid,
        bad: (jc && !jd) || od_lost || (r.durability_claimed && !valid),
    }
}

/// [`ConsistencyCheck`] kept incrementally over a base image that changes
/// by folds, for the crash enumerator: every image of a capture point is
/// the base plus a small overlay, so a record none of whose blocks the
/// overlay touches reads the same against every image of the point.
///
/// The four invariants reduce to: no checkable record is `bad` (see
/// `RecVerdict`), and every checkable record older than the newest
/// valid one is valid. The index keeps each checkable record's verdict
/// under the base in three position bitmaps (a position is commit order)
/// plus, per block, the records that name it, so a point needs only the
/// records its overlay's blocks name and the bitmaps' extremes without
/// them.
///
/// Nothing here is a tree walk: a block's slot is found by its address
/// (an [`IntMap`]: one multiply and a probe, memory per block named) and
/// holds its last journal writer and the ordered data on it; a record is
/// its position.
///
/// What can move a cached verdict: a fold of one of the record's blocks,
/// a newer record reusing one of its journal blocks (it stops being
/// checkable), or its durability flag flipping — nothing else.
/// [`ConsistencyIndex::advance`] takes exactly those.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConsistencyIndex {
    /// Per record position: all of its journal blocks still name it as
    /// last writer ([`ConsistencyCheck`]'s table, kept up to date).
    checkable: Vec<bool>,
    /// Block address → its position in `blocks`.
    slot_of: IntMap<Lba, u32>,
    /// Every block a record names, in order of first mention.
    blocks: Vec<BlockRefs>,
    /// Checkable records valid under the base.
    valid: PosSet,
    /// Checkable records not valid under the base.
    invalid: PosSet,
    /// Checkable records that are `bad` under the base.
    bad: PosSet,
    /// Record ids were not strictly ascending: positions are not commit
    /// order, and the index certifies nothing.
    irregular: bool,
    /// [`ConsistencyIndex::advance`]'s record positions to recompute: a
    /// buffer kept across calls, empty between them.
    dirty: Vec<u32>,
}

/// What [`ConsistencyIndex`] knows of one block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct BlockRefs {
    /// Position of the block's last journal writer.
    owner: Option<u32>,
    /// `(tag, position)` of the checkable records' ordered data on the
    /// block, ascending.
    ordered: Vec<(BlockTag, u32)>,
}

impl BlockRefs {
    /// Positions of the ordered data entries with a tag in `(lo, hi]`.
    fn ordered_between(&self, lo: BlockTag, hi: BlockTag) -> impl Iterator<Item = u32> + '_ {
        let from = self.ordered.partition_point(|e| e.0 <= lo);
        let to = self.ordered.partition_point(|e| e.0 <= hi).max(from);
        self.ordered[from..to].iter().map(|e| e.1)
    }
}

/// A set of record positions, one bit each.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PosSet {
    words: Vec<u64>,
}

impl PosSet {
    /// Makes room for positions below `n` (and for no more, so two sets
    /// over the same records are equal whatever order they were set in).
    fn grow(&mut self, n: usize) {
        self.words.resize(n.div_ceil(64), 0);
    }

    fn set(&mut self, pos: u32, member: bool) {
        let bit = 1u64 << (pos % 64);
        if let Some(w) = self.words.get_mut(pos as usize / 64) {
            if member {
                *w |= bit;
            } else {
                *w &= !bit;
            }
        }
    }

    /// The smallest member not in `skip` (sorted ascending).
    fn first_outside(&self, skip: &[u32]) -> Option<u32> {
        for (i, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let pos = i as u32 * 64 + w.trailing_zeros();
                if skip.binary_search(&pos).is_err() {
                    return Some(pos);
                }
                w &= w - 1;
            }
        }
        None
    }

    /// The largest member not in `skip` (sorted ascending).
    fn last_outside(&self, skip: &[u32]) -> Option<u32> {
        for (i, &word) in self.words.iter().enumerate().rev() {
            let mut w = word;
            while w != 0 {
                let bit = 63 - w.leading_zeros();
                let pos = i as u32 * 64 + bit;
                if skip.binary_search(&pos).is_err() {
                    return Some(pos);
                }
                w &= !(1u64 << bit);
            }
        }
        None
    }
}

impl ConsistencyIndex {
    /// An index over no records.
    pub fn new() -> ConsistencyIndex {
        ConsistencyIndex::default()
    }

    /// Brings the index up to `records` (whose prefix it already covers)
    /// and to `base`, given what happened since the previous call:
    /// `folds` as `(block, tag before, tag after)` and the ids of records
    /// whose `durability_claimed` flipped. Returns the number of record
    /// verdicts recomputed — the work done, bounded by the new records
    /// plus the records the folds and flips name.
    pub fn advance<B: ImageView>(
        &mut self,
        records: &[TxnRecord],
        folds: impl IntoIterator<Item = (Lba, BlockTag, BlockTag)>,
        durable: &[u64],
        base: &B,
    ) -> usize {
        let mut dirty = std::mem::take(&mut self.dirty);
        for (pos, r) in records.iter().enumerate().skip(self.checkable.len()) {
            self.irregular |= pos > 0 && records[pos - 1].id >= r.id;
            let pos = pos as u32;
            self.checkable.push(true);
            for lba in journal_lbas(r) {
                match self.block_mut(lba).owner.replace(pos) {
                    Some(prev) if prev != pos => self.retire(records, prev),
                    _ => {}
                }
            }
            for &(lba, tag) in r.ordered_data() {
                let ordered = &mut self.block_mut(lba).ordered;
                let at = ordered.partition_point(|&e| e < (tag, pos));
                if ordered.get(at) != Some(&(tag, pos)) {
                    ordered.insert(at, (tag, pos));
                }
            }
            dirty.push(pos);
        }
        for set in [&mut self.valid, &mut self.invalid, &mut self.bad] {
            set.grow(records.len());
        }
        for id in durable {
            if let Ok(pos) = records.binary_search_by_key(id, |r| r.id) {
                dirty.push(pos as u32);
            }
        }
        for (lba, before, after) in folds {
            let Some(b) = self.block(lba) else {
                continue;
            };
            dirty.extend(b.owner);
            // Ordered data reads "at least this tag": only the entries
            // between the two versions change sides.
            dirty.extend(b.ordered_between(before.min(after), before.max(after)));
        }
        dirty.sort_unstable();
        dirty.dedup();
        dirty.retain(|&pos| self.checkable[pos as usize]);
        for &pos in &dirty {
            let v = rec_verdict(&records[pos as usize], base);
            self.valid.set(pos, v.valid);
            self.invalid.set(pos, !v.valid);
            self.bad.set(pos, v.bad);
        }
        let work = dirty.len();
        dirty.clear();
        self.dirty = dirty;
        work
    }

    /// The slot of `lba`, if a record names it.
    fn block(&self, lba: Lba) -> Option<&BlockRefs> {
        let slot = *self.slot_of.get(&lba)?;
        self.blocks.get(slot as usize)
    }

    /// The slot of `lba`, made on first mention.
    fn block_mut(&mut self, lba: Lba) -> &mut BlockRefs {
        let blocks = &mut self.blocks;
        let slot = *self.slot_of.entry(lba).or_insert_with(|| {
            blocks.push(BlockRefs::default());
            blocks.len() as u32 - 1
        });
        &mut self.blocks[slot as usize]
    }

    /// A newer record reused one of `pos`'s journal blocks: it takes no
    /// further part in any invariant.
    fn retire(&mut self, records: &[TxnRecord], pos: u32) {
        if !std::mem::take(&mut self.checkable[pos as usize]) {
            return;
        }
        for &(lba, tag) in records[pos as usize].ordered_data() {
            let slot = self.slot_of.get(&lba).copied();
            if let Some(b) = slot.and_then(|s| self.blocks.get_mut(s as usize)) {
                b.ordered.retain(|&e| e != (tag, pos));
            }
        }
        self.valid.set(pos, false);
        self.invalid.set(pos, false);
        self.bad.set(pos, false);
    }

    /// Prepares the per-point half of the check. `overlay` names every
    /// block the point's images may resolve differently from the base,
    /// each with a lower bound on the tags it may resolve to (the base
    /// tag included). `None` when the records are irregular.
    pub fn probe(
        &self,
        overlay: impl IntoIterator<Item = (Lba, BlockTag)>,
    ) -> Option<ConsistencyProbe> {
        let mut probe = ConsistencyProbe::default();
        self.reprobe(&mut probe, overlay).then_some(probe)
    }

    /// [`ConsistencyIndex::probe`] into an existing probe, reusing its
    /// buffer: a crash explorer keeps one probe across the points of a
    /// trace. False when the records are irregular: the probe then
    /// certifies nothing.
    pub fn reprobe(
        &self,
        probe: &mut ConsistencyProbe,
        overlay: impl IntoIterator<Item = (Lba, BlockTag)>,
    ) -> bool {
        let touched = &mut probe.touched;
        touched.clear();
        probe.regular = !self.irregular;
        if self.irregular {
            return false;
        }
        for (lba, floor) in overlay {
            let Some(b) = self.block(lba) else {
                continue;
            };
            touched.extend(b.owner.filter(|&pos| self.checkable[pos as usize]));
            // Ordered data at or below the floor is present in the base
            // and in every image alike.
            touched.extend(b.ordered_between(floor, BlockTag(u64::MAX)));
        }
        touched.sort_unstable();
        touched.dedup();
        probe.newest_valid = self.valid.last_outside(touched);
        probe.oldest_invalid = self.invalid.first_outside(touched);
        probe.bad = self.bad.first_outside(touched).is_some();
        true
    }
}

/// One capture point's view of a [`ConsistencyIndex`]: the records the
/// point's overlay touches, and the base verdicts of all the others
/// reduced to what the invariants need. It borrows nothing, so one probe
/// can be re-aimed point after point ([`ConsistencyIndex::reprobe`]).
#[derive(Debug, Clone, Default)]
pub struct ConsistencyProbe {
    /// Aimed at a regular index; a probe that is not certifies nothing.
    regular: bool,
    /// Checkable records the overlay touches, ascending.
    touched: Vec<u32>,
    /// Over the untouched records, under the base:
    newest_valid: Option<u32>,
    oldest_invalid: Option<u32>,
    bad: bool,
}

impl ConsistencyProbe {
    /// True when `image` — the base plus an overlay over the blocks the
    /// probe was built for — provably has no [`FsViolation`]. `records`
    /// are the ones the index was advanced over. False means "run
    /// [`ConsistencyCheck`]".
    pub fn certifies<V: ImageView>(&self, records: &[TxnRecord], image: &V) -> bool {
        if !self.regular || self.bad {
            return false;
        }
        let (mut newest_valid, mut oldest_invalid) = (self.newest_valid, self.oldest_invalid);
        for &pos in &self.touched {
            let v = rec_verdict(&records[pos as usize], image);
            if v.bad {
                return false;
            }
            if v.valid {
                newest_valid = newest_valid.max(Some(pos));
            } else {
                oldest_invalid = Some(oldest_invalid.map_or(pos, |o| o.min(pos)));
            }
        }
        // Commit order: nothing checkable and lost below the newest
        // survivor.
        !matches!((oldest_invalid, newest_valid), (Some(o), Some(n)) if o < n)
    }

    /// Over the records the overlay does not touch, under the base: the
    /// newest valid, the oldest invalid, and whether any is bad.
    pub fn extremes(&self) -> (Option<u32>, Option<u32>, bool) {
        (self.newest_valid, self.oldest_invalid, self.bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_flash::BlockMap;

    /// A record whose descriptor and log blocks carry `jd_tags`, which
    /// must be consecutive.
    fn rec(id: u64, jd_lba: u64, jd_tags: &[u64], jc_lba: u64, jc_tag: u64) -> TxnRecord {
        let first = jd_tags.first().copied().unwrap_or(0);
        assert!(jd_tags.iter().zip(first..).all(|(&t, n)| t == n));
        let jd_tags = TagRun {
            first: BlockTag(first),
            len: jd_tags.len() as u64,
        };
        TxnRecord::new(id, Lba(jd_lba), jd_tags, Lba(jc_lba), BlockTag(jc_tag))
    }

    /// `r` with `ordered_data` and no homes.
    fn ordering(r: TxnRecord, ordered_data: &[(Lba, BlockTag)]) -> TxnRecord {
        r.with_blocks([], &[], ordered_data)
    }

    fn image(pairs: &[(u64, u64)]) -> BlockMap {
        pairs.iter().map(|&(l, t)| (Lba(l), BlockTag(t))).collect()
    }

    #[test]
    fn a_record_is_80_bytes_and_its_lists_one_slice() {
        assert_eq!(std::mem::size_of::<TxnRecord>(), 80);
        let (m, d, o) = (
            (Lba(1), BlockTag(2)),
            (Lba(3), BlockTag(4)),
            (Lba(5), BlockTag(6)),
        );
        let r = rec(1, 100, &[10], 101, 11).with_blocks([m], &[d], &[o]);
        assert_eq!(
            (r.meta_home(), r.data_home(), r.ordered_data()),
            (&[m][..], &[d][..], &[o][..])
        );
        let r = rec(1, 100, &[10], 101, 11).with_blocks([], &[d, d], &[]);
        assert_eq!(r.data_home(), [d, d]);
        assert!(r.meta_home().is_empty() && r.ordered_data().is_empty());
    }

    #[test]
    fn clean_prefix_passes() {
        let records = vec![rec(1, 100, &[10, 11], 102, 12), rec(2, 103, &[20], 104, 21)];
        // Txn 1 fully persisted, txn 2 lost entirely: consistent.
        let img = image(&[(100, 10), (101, 11), (102, 12)]);
        assert!(ConsistencyCheck::new(&records).violations(&img).is_empty());
    }

    #[test]
    fn empty_image_passes() {
        let records = vec![rec(1, 100, &[10], 101, 11)];
        let checker = ConsistencyCheck::new(&records);
        assert!(checker.violations(&image(&[])).is_empty());
    }

    #[test]
    fn commit_order_violation_detected() {
        let records = vec![rec(1, 100, &[10], 101, 11), rec(2, 102, &[20], 103, 21)];
        // Txn 2 survived, txn 1 lost.
        let img = image(&[(102, 20), (103, 21)]);
        let v = ConsistencyCheck::new(&records).violations(&img);
        assert!(v.iter().any(|x| matches!(
            x,
            FsViolation::CommitOrder {
                earlier: 1,
                later: 2
            }
        )));
    }

    #[test]
    fn torn_transaction_detected() {
        let records = vec![rec(1, 100, &[10, 11], 102, 12)];
        // JC persisted, one log block missing.
        let img = image(&[(100, 10), (102, 12)]);
        let v = ConsistencyCheck::new(&records).violations(&img);
        assert!(v
            .iter()
            .any(|x| matches!(x, FsViolation::TornTransaction { txn: 1 })));
    }

    #[test]
    fn ordered_data_violation_detected() {
        let r = ordering(rec(1, 100, &[10], 101, 11), &[(Lba(500), BlockTag(5))]);
        // Txn survived but its data page did not.
        let img = image(&[(100, 10), (101, 11)]);
        let v = ConsistencyCheck::new(&[r]).violations(&img);
        assert!(v
            .iter()
            .any(|x| matches!(x, FsViolation::OrderedData { txn: 1, .. })));
    }

    #[test]
    fn superseded_ordered_data_passes() {
        let r = ordering(rec(1, 100, &[10], 101, 11), &[(Lba(500), BlockTag(5))]);
        // A newer version (tag 9 > 5) of the data block is fine.
        let img = image(&[(100, 10), (101, 11), (500, 9)]);
        assert!(ConsistencyCheck::new(&[r]).violations(&img).is_empty());
    }

    #[test]
    fn durability_loss_detected() {
        let mut r = rec(1, 100, &[10], 101, 11);
        r.durability_claimed = true;
        let img = image(&[]);
        let v = ConsistencyCheck::new(&[r]).violations(&img);
        assert!(v
            .iter()
            .any(|x| matches!(x, FsViolation::DurabilityLoss { txn: 1 })));
    }

    /// The index of `records` under `base`, from nothing.
    fn index_of(records: &[TxnRecord], base: &BlockMap) -> ConsistencyIndex {
        let mut index = ConsistencyIndex::new();
        index.advance(records, [], &[], base);
        index
    }

    /// Whether the index certifies `base ⊕ overlay`. The floor handed to
    /// the probe is the lower of each block's two possible tags.
    fn certifies(
        index: &ConsistencyIndex,
        records: &[TxnRecord],
        base: &BlockMap,
        overlay: &BlockMap,
    ) -> bool {
        let floors = overlay.iter().map(|(l, t)| (l, t.min(base.tag(l))));
        let probe = index.probe(floors).expect("regular");
        let mut image = base.clone();
        image.extend(overlay.iter());
        probe.certifies(records, &image)
    }

    #[test]
    fn index_reads_an_overlay_like_the_checker_reads_the_image() {
        let records = vec![
            rec(1, 100, &[10, 11], 102, 12),
            ordering(rec(2, 103, &[20], 104, 21), &[(Lba(500), BlockTag(19))]),
        ];
        // Txn 1 folded, txn 2 in flight.
        let base: BlockMap = [(100, 10), (101, 11), (102, 12)]
            .map(|(l, t)| (Lba(l), BlockTag(t)))
            .into_iter()
            .collect();
        let index = index_of(&records, &base);
        let over = |pairs: &[(u64, u64)]| -> BlockMap {
            pairs.iter().map(|&(l, t)| (Lba(l), BlockTag(t))).collect()
        };
        let certified = |pairs| certifies(&index, &records, &base, &over(pairs));
        // None of txn 2 landed; all of it; its data and logs without the
        // commit block: clean prefixes.
        assert!(certified(&[]));
        assert!(certified(&[(500, 19), (103, 20), (104, 21)]));
        assert!(certified(&[(500, 19), (103, 20)]));
        // Commit block without the log, journal without the ordered data,
        // and txn 2 whole while txn 1's commit block is gone.
        assert!(!certified(&[(104, 21)]));
        assert!(!certified(&[(103, 20), (104, 21)]));
        assert!(!certified(&[(500, 19), (103, 20), (104, 21), (102, 0)]));
    }

    #[test]
    fn out_of_order_ids_are_never_certified() {
        let records = vec![rec(2, 100, &[10], 101, 11), rec(1, 102, &[20], 103, 21)];
        let index = index_of(&records, &BlockMap::new());
        assert!(index.probe([]).is_none());
    }

    #[test]
    fn index_matches_the_checker_on_random_journals() {
        let mut rng = bio_sim::SimRng::new(0xC0DE);
        let (mut clean, mut dirty) = (0, 0);
        for _ in 0..300 {
            // Records round a 12-block journal (so blocks are reused), each
            // with up to two ordered data pages out of four; tags grow.
            let mut records: Vec<TxnRecord> = Vec::new();
            let (mut head, mut tag) = (0u64, 1u64);
            for id in 1..=rng.range(2, 14) {
                let mut ordered_data = Vec::new();
                for _ in 0..rng.below(3) {
                    ordered_data.push((Lba(500 + rng.below(4)), BlockTag(tag)));
                    tag += 1;
                }
                let mut r = ordering(rec(id, 0, &[], 0, 0), &ordered_data);
                let logs = 1 + rng.below(2);
                if head + logs + 1 > 12 {
                    head = 0;
                }
                r.jd_lba = Lba(100 + head);
                r.jd_tags = TagRun {
                    first: BlockTag(tag),
                    len: logs,
                };
                r.jc_lba = Lba(100 + head + logs);
                r.jc_tag = BlockTag(tag + logs);
                head += logs + 1;
                tag += logs + 1;
                records.push(r);
            }
            // Every write the records imply, in tag order.
            let mut writes: Vec<(Lba, BlockTag)> = Vec::new();
            for r in &records {
                writes.extend(r.ordered_data());
                writes.extend(journal_lbas(r).zip(r.jd_tags.iter().chain([r.jc_tag])));
            }
            // Take the records in steps; after each, fold a few writes in
            // any order, flip a durability flag, and hold the advanced
            // index to a rebuilt one.
            let mut base = BlockMap::new();
            let mut index = ConsistencyIndex::new();
            let mut upto = 0;
            while upto < records.len() {
                upto = (upto + 1 + rng.below(3) as usize).min(records.len());
                let folds: Vec<(Lba, BlockTag, BlockTag)> = (0..rng.below(8))
                    .map(|_| {
                        let (lba, tag) = *rng.choose(&writes).expect("non-empty");
                        let before = base.insert(lba, tag).unwrap_or(BlockTag::UNWRITTEN);
                        (lba, before, tag)
                    })
                    .collect();
                let flipped = rng.chance(0.3).then(|| {
                    let r = &mut records[rng.below(upto as u64) as usize];
                    r.durability_claimed = true;
                    r.id
                });
                index.advance(&records[..upto], folds, flipped.as_slice(), &base);
                assert_eq!(index, index_of(&records[..upto], &base));
                // Any overlay: each block unwritten, or at any version ever
                // written to it.
                let overlay: BlockMap = (0..rng.below(5))
                    .map(|_| {
                        let lba = rng.choose(&writes).expect("non-empty").0;
                        let versions: Vec<BlockTag> = writes
                            .iter()
                            .filter(|w| w.0 == lba)
                            .map(|w| w.1)
                            .chain([BlockTag::UNWRITTEN])
                            .collect();
                        (lba, *rng.choose(&versions).expect("non-empty"))
                    })
                    .collect();
                let mut image = base.clone();
                image.extend(overlay.iter());
                let full = ConsistencyCheck::new(&records[..upto]).violations(&image);
                assert_eq!(
                    certifies(&index, &records[..upto], &base, &overlay),
                    full.is_empty(),
                    "{full:?}"
                );
                if full.is_empty() {
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
    fn wrapped_journal_txn_is_skipped() {
        // Txn 1's journal blocks were reused by txn 3: txn 1 is not
        // checkable and must not produce false positives.
        let records = vec![
            rec(1, 100, &[10], 101, 11),
            rec(2, 102, &[20], 103, 21),
            rec(3, 100, &[30], 101, 31), // reuses txn 1's blocks
        ];
        let img = image(&[(100, 30), (101, 31), (102, 20), (103, 21)]);
        assert!(ConsistencyCheck::new(&records).violations(&img).is_empty());
    }
}
