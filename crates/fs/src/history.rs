//! The ground-truth record history, kept for as long as a crash verdict
//! can read it.
//!
//! A record stays checkable while every one of its journal blocks still
//! names it as the newest writer; once a newer commit reuses one of them
//! (the circular journal wrapped), every invariant of
//! [`crate::ConsistencyCheck`] and [`crate::ConsistencyIndex`] skips it,
//! and that never reverts. So the history keeps a *window*: the leading
//! run of uncheckable records is retired, and every record left is newer
//! than everything retired. A verdict over the window is the verdict over
//! the whole history, violation for violation and in the same order.
//!
//! Records are addressed by *absolute position*: the count of records
//! before them since the filesystem started. The window starts at
//! [`RecordHistory::first`] and ends at [`RecordHistory::end`].

use bio_flash::Lba;

use crate::recovery::{journal_lbas, TxnRecord};

/// Journal offsets the owner table grows by.
const OWNER_CHUNK: usize = 512;

/// The record window and what it takes to move its front.
#[derive(Debug)]
pub(crate) struct RecordHistory {
    /// Retired records not yet drained (`..front`), then the window.
    records: Vec<TxnRecord>,
    /// Per entry of `records`: no newer record names any of its journal
    /// blocks.
    checkable: Vec<bool>,
    /// Index in `records` of the window's first record.
    front: usize,
    /// Absolute position of `records[0]`: records drained so far.
    drained: usize,
    /// Per journal offset: the absolute position, plus one, of the newest
    /// record naming the block (0: none yet). The journal hands offsets
    /// out from 0 up, so the table grows with the highest offset named
    /// and a short run pays for the few blocks its commits touch.
    owner: Vec<u64>,
    /// Address of journal offset 0.
    journal_start: Lba,
}

impl RecordHistory {
    /// An empty history over the journal that starts at `journal_start`.
    pub(crate) fn new(journal_start: Lba) -> RecordHistory {
        RecordHistory {
            records: Vec::new(),
            checkable: Vec::new(),
            front: 0,
            drained: 0,
            owner: Vec::new(),
            journal_start,
        }
    }

    /// The records a verdict can still read, oldest first.
    #[inline]
    pub(crate) fn window(&self) -> &[TxnRecord] {
        self.records.get(self.front..).unwrap_or_default()
    }

    /// Absolute position of the window's first record.
    #[inline]
    pub(crate) fn first(&self) -> usize {
        self.drained + self.front
    }

    /// Absolute position the next record takes: every record ever
    /// appended, retired ones included.
    #[inline]
    pub(crate) fn end(&self) -> usize {
        self.drained + self.records.len()
    }

    /// The record at absolute position `pos`, unless it is retired.
    #[inline]
    pub(crate) fn get_mut(&mut self, pos: usize) -> Option<&mut TxnRecord> {
        let at = pos.checked_sub(self.first())?;
        self.records.get_mut(self.front + at)
    }

    /// Appends `rec` and returns its absolute position. Each journal block
    /// it names stops counting for its previous owner, which becomes
    /// uncheckable; then the leading run of uncheckable records retires.
    pub(crate) fn push(&mut self, rec: TxnRecord) -> usize {
        let pos = self.end();
        for lba in journal_lbas(&rec) {
            let Some(offset) = lba.0.checked_sub(self.journal_start.0) else {
                continue;
            };
            let offset = offset as usize;
            if offset >= self.owner.len() {
                // A 4 KiB chunk at a time: one allocation for a short run,
                // and never more than a chunk past the journal's end.
                let len = (offset / OWNER_CHUNK + 1) * OWNER_CHUNK;
                self.owner.reserve_exact(len - self.owner.len());
                self.owner.resize(len, 0);
            }
            let Some(slot) = self.owner.get_mut(offset) else {
                continue;
            };
            let prev = std::mem::replace(slot, pos as u64 + 1);
            let Some(prev) = (prev as usize).checked_sub(1) else {
                continue;
            };
            if let Some(c) = prev
                .checked_sub(self.drained)
                .filter(|_| prev != pos)
                .and_then(|i| self.checkable.get_mut(i))
            {
                *c = false;
            }
        }
        self.records.push(rec);
        self.checkable.push(true);
        while self.checkable.get(self.front) == Some(&false) {
            self.front += 1;
        }
        // Drain once the retired prefix is a quarter of the vector: each
        // record is moved about three times over its life, and the vector
        // holds at most a third more than the window (draining at half
        // doubled the vector's capacity on an 8,192-block journal).
        if self.front > 0 && self.front * 4 >= self.records.len() {
            self.records.drain(..self.front);
            self.checkable.drain(..self.front);
            self.drained += self.front;
            self.front = 0;
        }
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::TagRun;
    use bio_flash::BlockTag;

    /// A record with one log block at `jd` and its commit block at `jd + 1`.
    fn rec(id: u64, jd: u64) -> TxnRecord {
        let tags = TagRun {
            first: BlockTag(2 * id),
            len: 1,
        };
        TxnRecord::new(id, Lba(jd), tags, Lba(jd + 1), BlockTag(2 * id + 1))
    }

    #[test]
    fn a_reused_block_retires_the_leading_run_only() {
        let mut h = RecordHistory::new(Lba(100));
        // Four two-block records fill an eight-block journal.
        for id in 0..4 {
            assert_eq!(h.push(rec(id, 100 + 2 * id)), id as usize);
        }
        assert_eq!((h.first(), h.window().len(), h.end()), (0, 4, 4));
        // Reusing record 2's blocks leaves it in the window: record 0 and
        // 1 are older and still checkable.
        h.push(rec(4, 104));
        assert_eq!((h.first(), h.window().len()), (0, 5));
        // Reusing record 0's and 1's blocks retires 0, 1 and 2.
        h.push(rec(5, 100));
        assert_eq!(h.first(), 1);
        h.push(rec(6, 102));
        assert_eq!((h.first(), h.end()), (3, 7));
        let ids: Vec<u64> = h.window().iter().map(|r| r.id).collect();
        assert_eq!(ids, [3, 4, 5, 6]);
        // A retired record takes no mark; a live one does.
        assert!(h.get_mut(2).is_none());
        assert_eq!(h.get_mut(4).map(|r| r.id), Some(4));
        assert!(h.get_mut(7).is_none());
    }

    #[test]
    fn the_window_stays_within_the_journal() {
        let mut h = RecordHistory::new(Lba(0));
        for id in 0..10_000 {
            h.push(rec(id, (2 * id) % 64));
            assert!(h.window().len() <= 32, "at {id}: {}", h.window().len());
            assert!(h.records.len() <= 43, "at {id}: {}", h.records.len());
        }
        assert_eq!((h.first(), h.end()), (10_000 - 32, 10_000));
    }
}
