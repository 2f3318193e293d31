//! Crash persistence: the FTL append log, persisted-image computation, and
//! the epoch-ordering audit used by the correctness tests.
//!
//! The paper's UFS firmware recovers by scanning the log-structured segment
//! "from the beginning till it first encounters the page which has not been
//! programmed properly" and discarding the rest (§3.2). [`AppendLog`]
//! reproduces exactly that: every flash program is an append record; a
//! crash image is a replay of the records that survive under the device's
//! barrier-enforcement mode.

use std::collections::{BTreeMap, HashMap, VecDeque};

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
/// determinism invariant bio-lint enforces).
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

    /// Marks a program as completed.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is unknown or already folded.
    pub fn mark_done(&mut self, seq: u64) {
        let idx = seq.checked_sub(self.start).expect("append already folded") as usize;
        self.entries[idx].done = true;
    }

    /// Folds the longest completed prefix into the base map. Records are
    /// foldable once `done` and (for transactional groups) once their group
    /// committed — after that their durability can no longer change.
    pub fn fold<F: Fn(u64) -> bool>(&mut self, group_committed: F) {
        while let Some(front) = self.entries.front() {
            let committed = front.group.is_none_or(&group_committed);
            if front.done && committed {
                let rec = self.entries.pop_front().expect("front exists");
                self.base.insert(rec.lba, rec.tag);
                if let Some(log) = &mut self.fold_log {
                    log.push((rec.lba, rec.tag));
                }
                self.start += 1;
            } else {
                break;
            }
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
/// so the crash enumerator builds one auditor per fork point and runs it
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
    #[should_panic(expected = "append already folded")]
    fn mark_done_after_fold_panics() {
        let mut log = AppendLog::new();
        let a = log.begin(Lba(1), BlockTag(10), None);
        log.mark_done(a);
        log.fold(|_| true);
        log.mark_done(a);
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
