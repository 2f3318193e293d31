//! The epoch audit: the barrier contract (§3.2) checked against one crash
//! image. The device records every host-visible transfer with its barrier
//! epoch ([`TransferRec`]); [`EpochAudit`] reads an image and names every
//! transfer of an earlier epoch that a later visible epoch overtook.
//! [`crate::EpochIndex`] is the same rule kept incrementally for the crash
//! enumerator, which runs this audit on whatever the index cannot certify.

use bio_sim::IntMap;

use crate::image::ImageView;
use crate::types::{BlockTag, Lba};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::BlockMap;

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

    #[test]
    fn partial_newest_epoch_is_allowed() {
        let history = vec![rec(1, 10, 100, 0), rec(2, 11, 101, 1), rec(3, 12, 102, 1)];
        // Epoch 1 partially persisted (one of two blocks): allowed, because
        // nothing *newer* than epoch 1 is visible.
        let img = image(&[(10, 100), (12, 102)]);
        assert!(EpochAudit::new(&history).violations(&img).is_empty());
    }
}
