//! Crash persistence: the FTL append log, persisted-image computation, and
//! the epoch-ordering audit used by the correctness tests.
//!
//! The paper's UFS firmware recovers by scanning the log-structured segment
//! "from the beginning till it first encounters the page which has not been
//! programmed properly" and discarding the rest (§3.2). [`AppendLog`]
//! reproduces exactly that: every flash program is an append record; a
//! crash image is a replay of the records that survive under the device's
//! barrier-enforcement mode.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::ops::Bound;

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
/// map so memory stays bounded on long runs. Ordered maps throughout:
/// crash images flow into golden diffs and differential traces, so their
/// iteration order must be reproducible across processes (the
/// determinism invariant, docs/INVARIANTS.md §1).
#[derive(Debug, Clone, Default)]
pub struct AppendLog {
    base: BTreeMap<Lba, BlockTag>,
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
    pub fn base(&self) -> &BTreeMap<Lba, BlockTag> {
        &self.base
    }

    /// Arms fold tracking: from now on every fold is also recorded for
    /// [`AppendLog::take_fold_log`]. Off by default so figure runs pay
    /// nothing; the crash engine drains the log at every capture, keeping
    /// it bounded by the writes of one epoch.
    pub fn track_folds(&mut self) {
        if self.fold_log.is_none() {
            self.fold_log = Some(Vec::new());
        }
    }

    /// Drains the folds recorded since the previous take (empty when
    /// tracking was never armed). Replaying them in order onto a base
    /// snapshot taken at the previous capture reproduces [`AppendLog::base`].
    pub fn take_fold_log(&mut self) -> Vec<(Lba, BlockTag)> {
        self.fold_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
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

    /// Replay of the base plus every unfolded record matching `keep`,
    /// in append order. `prefix_only` stops at the first rejected record
    /// (the LFS in-order recovery rule).
    pub fn image<F: Fn(&AppendRec) -> bool>(&self, keep: F, prefix_only: bool) -> PersistedImage {
        let mut map = self.base.clone();
        for rec in &self.entries {
            if keep(rec) {
                map.insert(rec.lba, rec.tag);
            } else if prefix_only {
                break;
            }
        }
        PersistedImage { map }
    }
}

/// The storage surface content after a crash: block address → surviving
/// content version. Backed by an ordered map so [`PersistedImage::iter`]
/// is reproducible across processes (callers fold it into recovery
/// checks and differential traces).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PersistedImage {
    map: BTreeMap<Lba, BlockTag>,
}

impl PersistedImage {
    /// Creates an image from raw contents (used in tests).
    pub fn from_map(map: BTreeMap<Lba, BlockTag>) -> PersistedImage {
        PersistedImage { map }
    }

    /// Content at `lba`, [`BlockTag::UNWRITTEN`] if the block never
    /// persisted.
    pub fn tag(&self, lba: Lba) -> BlockTag {
        self.map.get(&lba).copied().unwrap_or(BlockTag::UNWRITTEN)
    }

    /// Number of blocks with persisted content.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing persisted.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(lba, tag)` pairs in ascending LBA order.
    pub fn iter(&self) -> impl Iterator<Item = (Lba, BlockTag)> + '_ {
        self.map.iter().map(|(&l, &t)| (l, t))
    }

    /// Overlays another set of surviving blocks (e.g. a PLP-protected
    /// cache) on top of this image, in the order given.
    pub fn overlay<I: IntoIterator<Item = (Lba, BlockTag)>>(&mut self, blocks: I) {
        for (lba, tag) in blocks {
            self.map.insert(lba, tag);
        }
    }
}

/// Read access to a crash image: what content (if any) survived at a
/// block. [`PersistedImage`] is the materialized implementation; the
/// crash enumerator provides overlay-backed views that answer the same
/// question without cloning the base map per image.
pub trait ImageView {
    /// Content at `lba`, [`BlockTag::UNWRITTEN`] if nothing survived.
    fn tag(&self, lba: Lba) -> BlockTag;
}

impl ImageView for PersistedImage {
    fn tag(&self, lba: Lba) -> BlockTag {
        PersistedImage::tag(self, lba)
    }
}

impl<V: ImageView + ?Sized> ImageView for &V {
    fn tag(&self, lba: Lba) -> BlockTag {
        (**self).tag(lba)
    }
}

/// A bare block map (an [`AppendLog::base`] snapshot) read as an image.
impl ImageView for BTreeMap<Lba, BlockTag> {
    fn tag(&self, lba: Lba) -> BlockTag {
        self.get(&lba).copied().unwrap_or(BlockTag::UNWRITTEN)
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
    seq_of_tag: HashMap<BlockTag, u64>,
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
/// What can move a cached verdict: a fold of that block, or a new
/// transfer of it — nothing else. [`EpochIndex::advance`] takes exactly
/// those. It relies on two regularities of a real transfer history (per
/// block, sequences and epochs never decrease; a content tag is
/// transferred once); a history that breaks one marks the index
/// irregular and it certifies nothing — callers then run [`EpochAudit`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochIndex {
    /// The index covers `history[..ingested]`.
    ingested: usize,
    /// Content tag → the transfer that carried it.
    by_tag: BTreeMap<BlockTag, TransferRec>,
    /// `(block, transfer seq)` → epoch, i.e. each block's transfers in
    /// order.
    by_lba: BTreeMap<(Lba, u64), u64>,
    /// Verdict of every block under the base (absent = nothing visible,
    /// nothing lost).
    verdicts: BTreeMap<Lba, LbaVerdict>,
    /// `(vis, block)` over `verdicts`.
    vis: BTreeSet<(u64, Lba)>,
    /// `(need, block)` over `verdicts`.
    need: BTreeSet<(u64, Lba)>,
    irregular: bool,
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
        let mut dirty: Vec<Lba> = folded.into_iter().collect();
        for t in history.iter().skip(self.ingested) {
            let last = self
                .by_lba
                .range((t.lba, 0)..=(t.lba, u64::MAX))
                .next_back();
            self.irregular |= t.tag == BlockTag::UNWRITTEN
                || last.is_some_and(|(&(_, seq), &epoch)| t.seq < seq || t.epoch < epoch)
                || self.by_tag.insert(t.tag, *t).is_some();
            // A same-epoch overwrite coalesces onto its predecessor's
            // sequence; both transfers then share one entry.
            self.by_lba.entry((t.lba, t.seq)).or_insert(t.epoch);
            dirty.push(t.lba);
        }
        self.ingested = history.len();
        dirty.sort_unstable();
        dirty.dedup();
        for &lba in &dirty {
            let new = self.verdict(lba, base.tag(lba));
            let old = if new == LbaVerdict::default() {
                self.verdicts.remove(&lba)
            } else {
                self.verdicts.insert(lba, new)
            }
            .unwrap_or_default();
            move_entry(&mut self.vis, lba, old.vis, new.vis);
            move_entry(&mut self.need, lba, old.need, new.need);
        }
        dirty.len()
    }

    /// The verdict of `lba` when it holds `tag`.
    fn verdict(&self, lba: Lba, tag: BlockTag) -> LbaVerdict {
        let held = self.by_tag.get(&tag);
        let seq = held.map_or(0, |t| t.seq);
        LbaVerdict {
            vis: held.filter(|t| t.lba == lba).map(|t| t.epoch),
            need: self
                .by_lba
                .range((
                    Bound::Excluded((lba, seq)),
                    Bound::Included((lba, u64::MAX)),
                ))
                .next()
                .map(|(_, &epoch)| epoch),
        }
    }

    /// Prepares the per-point half of the check: the extremes over every
    /// block *not* `in_overlay`. `None` when the history is irregular.
    pub fn probe(&self, in_overlay: impl Fn(Lba) -> bool) -> Option<EpochProbe<'_>> {
        if self.irregular {
            return None;
        }
        let outside = |e: &&(u64, Lba)| !in_overlay(e.1);
        Some(EpochProbe {
            index: self,
            vis: self.vis.iter().rev().find(outside).map(|e| e.0),
            need: self.need.iter().find(outside).map(|e| e.0),
        })
    }
}

/// One capture point's view of an [`EpochIndex`]: the extremes outside
/// the point's overlay, ready to be combined with each image's overlay.
#[derive(Debug, Clone, Copy)]
pub struct EpochProbe<'a> {
    index: &'a EpochIndex,
    vis: Option<u64>,
    need: Option<u64>,
}

impl EpochProbe<'_> {
    /// True when the image `base ⊕ overlay` provably has no
    /// [`EpochViolation`]; `overlay` must resolve exactly the blocks the
    /// probe was built for. False means "run [`EpochAudit`]".
    pub fn certifies(&self, overlay: impl IntoIterator<Item = (Lba, BlockTag)>) -> bool {
        let (mut vis, mut need) = (self.vis, self.need);
        for (lba, tag) in overlay {
            let v = self.index.verdict(lba, tag);
            vis = vis.max(v.vis);
            need = min_epoch(need, v.need);
        }
        !matches!((vis, need), (Some(v), Some(n)) if n < v)
    }
}

/// One-shot form of [`EpochAudit`]: builds the auditor and runs a single
/// image through it (the original API; callers with many images per
/// history should hold an auditor instead).
pub fn audit_epoch_order(history: &[TransferRec], image: &PersistedImage) -> Vec<EpochViolation> {
    EpochAudit::new(history).violations(image)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, lba: u64, tag: u64, epoch: u64) -> TransferRec {
        TransferRec {
            seq,
            lba: Lba(lba),
            tag: BlockTag(tag),
            epoch,
        }
    }

    #[test]
    fn log_replay_done_only() {
        let mut log = AppendLog::new();
        let a = log.begin(Lba(1), BlockTag(10), None);
        let b = log.begin(Lba(2), BlockTag(20), None);
        let _c = log.begin(Lba(3), BlockTag(30), None);
        log.mark_done(a);
        log.mark_done(b);
        let img = log.image(|r| r.done, false);
        assert_eq!(img.tag(Lba(1)), BlockTag(10));
        assert_eq!(img.tag(Lba(2)), BlockTag(20));
        assert_eq!(img.tag(Lba(3)), BlockTag::UNWRITTEN);
        assert_eq!(img.len(), 2);
    }

    #[test]
    fn prefix_rule_truncates_at_hole() {
        let mut log = AppendLog::new();
        let a = log.begin(Lba(1), BlockTag(10), None);
        let b = log.begin(Lba(2), BlockTag(20), None);
        let c = log.begin(Lba(3), BlockTag(30), None);
        log.mark_done(a);
        // b not programmed, c done: LFS recovery must discard c too.
        log.mark_done(c);
        let _ = b;
        let img = log.image(|r| r.done, true);
        assert_eq!(img.tag(Lba(1)), BlockTag(10));
        assert_eq!(img.tag(Lba(2)), BlockTag::UNWRITTEN);
        assert_eq!(img.tag(Lba(3)), BlockTag::UNWRITTEN, "after-hole discarded");
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
        let img = log.image(|_| false, false);
        assert_eq!(img.tag(Lba(1)), BlockTag(10));
        assert_eq!(img.tag(Lba(2)), BlockTag(20));
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
    fn group_filter_in_image() {
        let mut log = AppendLog::new();
        let a = log.begin(Lba(1), BlockTag(10), Some(1));
        let b = log.begin(Lba(2), BlockTag(20), Some(2));
        log.mark_done(a);
        log.mark_done(b);
        let img = log.image(|r| r.done && r.group == Some(1), false);
        assert_eq!(img.tag(Lba(1)), BlockTag(10));
        assert_eq!(img.tag(Lba(2)), BlockTag::UNWRITTEN);
    }

    #[test]
    fn overlay_wins() {
        let mut log = AppendLog::new();
        let a = log.begin(Lba(1), BlockTag(10), None);
        log.mark_done(a);
        let mut img = log.image(|r| r.done, false);
        img.overlay([(Lba(1), BlockTag(99)), (Lba(7), BlockTag(70))]);
        assert_eq!(img.tag(Lba(1)), BlockTag(99));
        assert_eq!(img.tag(Lba(7)), BlockTag(70));
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
        let img =
            PersistedImage::from_map([(Lba(10), BlockTag(100)), (Lba(11), BlockTag(101))].into());
        assert!(audit_epoch_order(&history, &img).is_empty());
        // Nothing persisted: fine.
        assert!(audit_epoch_order(&history, &PersistedImage::default()).is_empty());
    }

    #[test]
    fn audit_detects_lost_earlier_epoch() {
        let history = vec![rec(1, 10, 100, 0), rec(2, 12, 102, 1)];
        // Epoch 1 visible but epoch 0's block missing: violation.
        let img = PersistedImage::from_map([(Lba(12), BlockTag(102))].into());
        let v = audit_epoch_order(&history, &img);
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
        let img =
            PersistedImage::from_map([(Lba(10), BlockTag(200)), (Lba(11), BlockTag(201))].into());
        assert!(audit_epoch_order(&history, &img).is_empty());
    }

    #[test]
    fn audit_detects_old_version_regression() {
        // Epoch 1 visible, but lba 10 rolled back to the epoch-0 version
        // after an epoch-1 overwrite was lost — that loses an epoch-1 write,
        // allowed only for the newest visible epoch. Here epoch 2 is also
        // visible, so the epoch-1 overwrite must have persisted.
        let history = vec![rec(1, 10, 100, 0), rec(2, 10, 200, 1), rec(3, 11, 300, 2)];
        let img =
            PersistedImage::from_map([(Lba(10), BlockTag(100)), (Lba(11), BlockTag(300))].into());
        let v = audit_epoch_order(&history, &img);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lost.tag, BlockTag(200));
    }

    /// The index of `history` under `base`, from nothing.
    fn index_of(history: &[TransferRec], base: &BTreeMap<Lba, BlockTag>) -> EpochIndex {
        let mut index = EpochIndex::new();
        index.advance(history, [], base);
        index
    }

    /// Whether the index certifies `base ⊕ overlay`.
    fn certifies(index: &EpochIndex, overlay: &BTreeMap<Lba, BlockTag>) -> bool {
        let probe = index
            .probe(|lba| overlay.contains_key(&lba))
            .expect("regular");
        probe.certifies(overlay.iter().map(|(&l, &t)| (l, t)))
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
        let base: BTreeMap<Lba, BlockTag> =
            [(Lba(10), BlockTag(100)), (Lba(11), BlockTag(101))].into();
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
        let base = BTreeMap::new();
        // One tag carried by two transfers.
        let twice = [rec(1, 10, 100, 0), rec(2, 11, 100, 0)];
        assert!(index_of(&twice, &base).probe(|_| false).is_none());
        // A block's sequence going backwards.
        let backwards = [rec(5, 10, 100, 0), rec(4, 10, 101, 0)];
        assert!(index_of(&backwards, &base).probe(|_| false).is_none());
        // A same-epoch overwrite coalesced onto its predecessor's sequence
        // is regular.
        let coalesced = [rec(5, 10, 100, 0), rec(6, 11, 101, 0), rec(5, 10, 102, 0)];
        assert!(index_of(&coalesced, &base).probe(|_| false).is_some());
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
            let mut base = BTreeMap::new();
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
        let img =
            PersistedImage::from_map([(Lba(10), BlockTag(100)), (Lba(12), BlockTag(102))].into());
        assert!(audit_epoch_order(&history, &img).is_empty());
    }
}
