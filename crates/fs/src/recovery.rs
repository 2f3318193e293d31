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
// count over `records` or a `u32` the index stored for it, inside the
// window the caller passes, whose front only moves forward and whose end
// only grows. It judges crash images; no event reaches it.
#![allow(clippy::indexing_slicing, reason = "checker's own stored positions")]

use bio_flash::{BlockTag, ImageView, Lba};
use bio_sim::IntMap;

use crate::layout::TagRun;

/// Ground truth of one committed journal transaction.
///
/// The filesystem keeps one per commit for as long as a verdict can read
/// it — until the circular journal reuses its blocks — so a record is
/// laid out to cost at most one allocation: the descriptor and
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
pub(crate) fn journal_lbas(r: &TxnRecord) -> impl Iterator<Item = Lba> + '_ {
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
    ///
    /// A filesystem's journal is one contiguous region, so the last
    /// writers are a table indexed by offset from the lowest journal block
    /// the records name, one word per block of the span they cover — for
    /// one filesystem's records, at most its journal. An entry is the last
    /// writer's position plus one; zero is none yet.
    pub fn new(records: &'a [TxnRecord]) -> ConsistencyCheck<'a> {
        let (lo, hi) = records
            .iter()
            .flat_map(journal_lbas)
            .fold((u64::MAX, 0), |(lo, hi), l| (lo.min(l.0), hi.max(l.0)));
        let span = hi.checked_sub(lo).map_or(0, |d| d.saturating_add(1));
        let mut last_writer = vec![0u64; span as usize];
        let mut checkable = vec![false; records.len()];
        for (pos, (r, c)) in records.iter().zip(&mut checkable).enumerate().rev() {
            let mut own = true;
            for lba in journal_lbas(r) {
                let Some(w) = last_writer.get_mut((lba.0 - lo) as usize) else {
                    continue;
                };
                if *w == 0 {
                    *w = pos as u64 + 1;
                }
                let writer = records.get(*w as usize - 1);
                own &= writer.is_some_and(|w| w.id == r.id);
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
/// Positions are absolute (the filesystem's
/// [`crate::Filesystem::first_record`] numbering): the index covers the
/// window its caller passes, and when the window's front moves it drops
/// the bits and block entries of the positions left behind — records
/// that were uncheckable, so no verdict changes. A block with nothing
/// left to know has no entry, and a position below the front no bit, so
/// an index advanced step by step equals one built over its window from
/// nothing.
///
/// Nothing here is a tree walk: a block's entry is found by its address
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
    /// Absolute position of the window's first record.
    first: usize,
    /// One past the newest position advanced over.
    end: usize,
    /// Positions all of whose journal blocks still name them as last
    /// writer ([`ConsistencyCheck`]'s table, kept up to date).
    checkable: PosSet,
    /// What the index knows of each block a record in the window names.
    blocks: IntMap<Lba, BlockRefs>,
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
    /// Position of the block's last journal writer, while it is in the
    /// window.
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

    fn is_empty(&self) -> bool {
        self.owner.is_none() && self.ordered.is_empty()
    }
}

/// A set of absolute record positions, one bit each, over the words from
/// the window's front on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PosSet {
    /// Word index of `words[0]`: positions below `64 * from` are gone.
    from: usize,
    words: Vec<u64>,
}

impl PosSet {
    /// Makes room for positions below `end` (and for no more, so two sets
    /// over the same records are equal whatever order they were set in).
    fn grow(&mut self, end: usize) {
        self.words
            .resize(end.div_ceil(64).saturating_sub(self.from), 0);
    }

    /// Forgets every position below `first`.
    fn drop_below(&mut self, first: usize) {
        let from = first / 64;
        let gone = from.saturating_sub(self.from).min(self.words.len());
        self.words.drain(..gone);
        self.from = self.from.max(from);
        if let Some(w) = self.words.first_mut().filter(|_| self.from == from) {
            *w &= !((1u64 << (first % 64)) - 1);
        }
    }

    fn set(&mut self, pos: u32, member: bool) {
        let bit = 1u64 << (pos % 64);
        let word = (pos as usize / 64).checked_sub(self.from);
        if let Some(w) = word.and_then(|i| self.words.get_mut(i)) {
            if member {
                *w |= bit;
            } else {
                *w &= !bit;
            }
        }
    }

    fn contains(&self, pos: u32) -> bool {
        let word = (pos as usize / 64).checked_sub(self.from);
        word.and_then(|i| self.words.get(i))
            .is_some_and(|w| w & 1u64 << (pos % 64) != 0)
    }

    /// The position of bit `bit` of `words[i]`.
    fn pos(&self, i: usize, bit: u32) -> u32 {
        ((self.from + i) * 64) as u32 + bit
    }

    /// The smallest member not in `skip` (sorted ascending).
    fn first_outside(&self, skip: &[u32]) -> Option<u32> {
        for (i, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let pos = self.pos(i, w.trailing_zeros());
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
                let pos = self.pos(i, bit);
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

    /// Brings the index up to the window `records`, whose first record is
    /// at absolute position `first` (the front only moves forward, the
    /// end only grows, and the index already covers what it saw of the
    /// window before), and to `base`, given what happened since the
    /// previous call: `folds` as `(block, tag before, tag after)` and the
    /// absolute positions of records whose `durability_claimed` flipped.
    /// Returns the number of record verdicts recomputed — the work done,
    /// bounded by the new records plus the records the folds and flips
    /// name.
    ///
    /// A front that moved costs one pass over the block entries, which
    /// are bounded by the blocks the window names.
    pub fn advance<B: ImageView>(
        &mut self,
        first: usize,
        records: &[TxnRecord],
        folds: impl IntoIterator<Item = (Lba, BlockTag, BlockTag)>,
        durable: &[usize],
        base: &B,
    ) -> usize {
        if first > self.first {
            self.drop_below(first);
        }
        let end = first + records.len();
        for set in [
            &mut self.checkable,
            &mut self.valid,
            &mut self.invalid,
            &mut self.bad,
        ] {
            set.grow(end);
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        for (i, r) in records.iter().enumerate().skip(self.end - first) {
            self.irregular |= i > 0 && records[i - 1].id >= r.id;
            let pos = (first + i) as u32;
            self.checkable.set(pos, true);
            for lba in journal_lbas(r) {
                match self.blocks.entry(lba).or_default().owner.replace(pos) {
                    Some(prev) if prev != pos => self.retire(first, records, prev),
                    _ => {}
                }
            }
            for &(lba, tag) in r.ordered_data() {
                let ordered = &mut self.blocks.entry(lba).or_default().ordered;
                let at = ordered.partition_point(|&e| e < (tag, pos));
                if ordered.get(at) != Some(&(tag, pos)) {
                    ordered.insert(at, (tag, pos));
                }
            }
            dirty.push(pos);
        }
        self.end = self.end.max(end);
        for &pos in durable {
            if (first..end).contains(&pos) {
                dirty.push(pos as u32);
            }
        }
        for (lba, before, after) in folds {
            let Some(b) = self.blocks.get(&lba) else {
                continue;
            };
            dirty.extend(b.owner);
            // Ordered data reads "at least this tag": only the entries
            // between the two versions change sides.
            dirty.extend(b.ordered_between(before.min(after), before.max(after)));
        }
        dirty.sort_unstable();
        dirty.dedup();
        dirty.retain(|&pos| self.checkable.contains(pos));
        for &pos in &dirty {
            let v = rec_verdict(&records[pos as usize - first], base);
            self.valid.set(pos, v.valid);
            self.invalid.set(pos, !v.valid);
            self.bad.set(pos, v.bad);
        }
        let work = dirty.len();
        dirty.clear();
        self.dirty = dirty;
        work
    }

    /// The window's front moved to `first`: forget every position below
    /// it. Those records were uncheckable, so their ordered data has no
    /// entries left unless the index never saw them retire; the pass over
    /// the blocks drops both kinds.
    fn drop_below(&mut self, first: usize) {
        for set in [
            &mut self.checkable,
            &mut self.valid,
            &mut self.invalid,
            &mut self.bad,
        ] {
            set.drop_below(first);
        }
        let live = |pos: u32| pos as usize >= first;
        self.blocks.retain(|_, b| {
            b.owner = b.owner.filter(|&pos| live(pos));
            b.ordered.retain(|e| live(e.1));
            !b.is_empty()
        });
        self.first = first;
        self.end = self.end.max(first);
    }

    /// A newer record reused one of `pos`'s journal blocks: it takes no
    /// further part in any invariant.
    fn retire(&mut self, first: usize, records: &[TxnRecord], pos: u32) {
        if !self.checkable.contains(pos) {
            return;
        }
        self.checkable.set(pos, false);
        for &(lba, tag) in records[pos as usize - first].ordered_data() {
            if let Some(b) = self.blocks.get_mut(&lba) {
                b.ordered.retain(|&e| e != (tag, pos));
                if b.is_empty() {
                    self.blocks.remove(&lba);
                }
            }
        }
        self.valid.set(pos, false);
        self.invalid.set(pos, false);
        self.bad.set(pos, false);
    }

    /// [`ConsistencyIndex::reprobe`] into a fresh probe; `None` when the
    /// records are irregular. The unit tests' shorthand.
    #[cfg(test)]
    pub fn probe(
        &self,
        overlay: impl IntoIterator<Item = (Lba, BlockTag)>,
    ) -> Option<ConsistencyProbe> {
        let mut probe = ConsistencyProbe::default();
        self.reprobe(&mut probe, overlay).then_some(probe)
    }

    /// Aims `probe`, the per-point half of the check, at this index.
    /// `overlay` names every block the point's images may resolve
    /// differently from the base, each with a lower bound on the tags it
    /// may resolve to (the base tag included). The probe's buffer is
    /// reused: a crash explorer keeps one probe across the points of a
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
        probe.first = self.first;
        if self.irregular {
            return false;
        }
        for (lba, floor) in overlay {
            let Some(b) = self.blocks.get(&lba) else {
                continue;
            };
            touched.extend(b.owner.filter(|&pos| self.checkable.contains(pos)));
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
    /// Absolute position of the index's window front.
    first: usize,
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
    /// are the window the index was advanced over. False means "run
    /// [`ConsistencyCheck`]".
    pub fn certifies<V: ImageView>(&self, records: &[TxnRecord], image: &V) -> bool {
        if !self.regular || self.bad {
            return false;
        }
        let (mut newest_valid, mut oldest_invalid) = (self.newest_valid, self.oldest_invalid);
        for &pos in &self.touched {
            let v = rec_verdict(&records[pos as usize - self.first], image);
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
    /// newest valid, the oldest invalid (absolute positions), and whether
    /// any is bad.
    #[cfg(test)]
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

    /// The index of the window `records`, whose first record is at
    /// absolute position `first`, under `base`, from nothing.
    fn index_of(first: usize, records: &[TxnRecord], base: &BlockMap) -> ConsistencyIndex {
        let mut index = ConsistencyIndex::new();
        index.advance(first, records, [], &[], base);
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
        let index = index_of(0, &records, &base);
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
    fn ordered_data_at_the_lower_tag_is_neither_recomputed_nor_touched() {
        // Txn 1 wants block 500 at tag 5 or newer, and the base holds it.
        // Ordered data at or below a bound is met by both tags a fold moves
        // between and by every image over a floor: only what lies above
        // the lower one changes sides.
        let records = [ordering(
            rec(1, 100, &[10], 101, 11),
            &[(Lba(500), BlockTag(5))],
        )];
        let mut base = image(&[(100, 10), (101, 11), (500, 5)]);
        let mut index = index_of(0, &records, &base);
        let extremes = |index: &ConsistencyIndex, floor| {
            index
                .probe([(Lba(500), BlockTag(floor))])
                .map(|p| p.extremes())
        };
        assert_eq!(extremes(&index, 5), Some((Some(0), None, false)));
        assert_eq!(extremes(&index, 4), Some((None, None, false)), "touched");
        base.insert(Lba(500), BlockTag(9));
        let fold = [(Lba(500), BlockTag(5), BlockTag(9))];
        assert_eq!(index.advance(0, &records, fold, &[], &base), 0);
        let fold = [(Lba(500), BlockTag(9), BlockTag(4))];
        base.insert(Lba(500), BlockTag(4));
        assert_eq!(index.advance(0, &records, fold, &[], &base), 1);
        assert_eq!(extremes(&index, 9), Some((Some(0), None, true)), "lost");
    }

    #[test]
    fn out_of_order_ids_are_never_certified() {
        let records = vec![rec(2, 100, &[10], 101, 11), rec(1, 102, &[20], 103, 21)];
        let index = index_of(0, &records, &BlockMap::new());
        assert!(index.probe([]).is_none());
    }

    #[test]
    fn index_matches_the_checker_on_random_journals() {
        let mut rng = bio_sim::SimRng::new(0xC0DE);
        let (mut clean, mut dirty, mut retired, mut broke) = (0, 0, 0, 0);
        for case in 0..300 {
            // Records round a journal of 4–16 blocks (so blocks are
            // reused), each with up to two ordered data pages out of four,
            // a tag now and then repeated; tags grow.
            let journal = rng.range(4, 16);
            let mut records: Vec<TxnRecord> = Vec::new();
            let (mut head, mut tag) = (0u64, 1u64);
            for id in 1..=rng.range(2, 14) {
                let mut ordered_data = Vec::new();
                for _ in 0..rng.below(3) {
                    let t = if rng.chance(0.1) { tag.max(2) - 1 } else { tag };
                    ordered_data.push((Lba(500 + rng.below(4)), BlockTag(t)));
                    tag += 1;
                }
                let mut r = ordering(rec(id, 0, &[], 0, 0), &ordered_data);
                let logs = 1 + rng.below(2);
                if head + logs + 1 > journal {
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
            // One case in eight has an id that does not grow: from that
            // record on the index certifies nothing. Its window keeps every
            // record, so the disorder stays in view.
            let n = records.len();
            let broken = (case % 8 == 0).then(|| {
                let at = 1 + rng.below(n as u64 - 1) as usize;
                records[at].id = records[at - 1].id - rng.below(2);
                at
            });
            // Every write the records imply, in tag order.
            let mut writes: Vec<(Lba, BlockTag)> = Vec::new();
            for r in &records {
                writes.extend(r.ordered_data());
                writes.extend(journal_lbas(r).zip(r.jd_tags.iter().chain([r.jc_tag])));
            }
            // Take the records in steps; after each, fold a few writes in
            // any order (now and then a tag nothing wrote), flip a
            // durability flag (now and then of a position no record has
            // yet), retire the leading run of uncheckable records as the
            // filesystem does, and hold the advanced index to one rebuilt
            // over the window.
            let mut base = BlockMap::new();
            let mut index = ConsistencyIndex::new();
            let (mut front, mut upto) = (0, 0);
            while upto < records.len() {
                upto = (upto + 1 + rng.below(3) as usize).min(records.len());
                let folds: Vec<(Lba, BlockTag, BlockTag)> = (0..rng.below(8))
                    .map(|_| {
                        let (lba, mut tag) = *rng.choose(&writes).expect("non-empty");
                        if rng.chance(0.05) {
                            tag = BlockTag(rng.below(200));
                        }
                        let before = base.insert(lba, tag).unwrap_or(BlockTag::UNWRITTEN);
                        (lba, before, tag)
                    })
                    .collect();
                let flipped = rng.chance(0.3).then(|| {
                    if rng.chance(0.1) {
                        return upto + rng.below(10) as usize;
                    }
                    let at = rng.below(upto as u64) as usize;
                    records[at].durability_claimed = true;
                    at
                });
                let reused = |r: &TxnRecord, newer: &[TxnRecord]| {
                    journal_lbas(r).any(|l| newer.iter().any(|n| journal_lbas(n).any(|m| m == l)))
                };
                let retiring = broken.is_none();
                while retiring && front < upto && reused(&records[front], &records[front + 1..upto])
                {
                    front += 1;
                }
                let window = &records[front..upto];
                index.advance(front, window, folds, flipped.as_slice(), &base);
                assert_eq!(index, index_of(front, window, &base));
                if broken.is_some_and(|at| at < upto) {
                    assert!(index.probe([]).is_none(), "case {case}: certifies");
                    broke += 1;
                    continue;
                }
                // Any overlay: each block unwritten, or at any version ever
                // written to it. Each block's floor is the lower of its two
                // possible tags, or one below.
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
                let floors: Vec<(Lba, BlockTag)> = overlay
                    .iter()
                    .map(|(l, t)| (l, t.min(base.tag(l))))
                    .map(|(l, t)| (l, BlockTag(t.0.saturating_sub(rng.below(2)))))
                    .collect();
                let mut image = base.clone();
                image.extend(overlay.iter());
                let full = ConsistencyCheck::new(&records[..upto]).violations(&image);
                assert_eq!(ConsistencyCheck::new(window).violations(&image), full);
                let probe = index.probe(floors).expect("regular");
                assert_eq!(probe.certifies(window, &image), full.is_empty(), "{full:?}");
                if full.is_empty() {
                    clean += 1;
                } else {
                    dirty += 1;
                }
                retired += front;
            }
        }
        assert!(
            clean > 100 && dirty > 100 && retired > 100 && broke > 20,
            "{clean} clean, {dirty} violating, {retired} retired, {broke} irregular"
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
