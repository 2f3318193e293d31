//! Journal commit machinery: one commit thread for every mode, whose
//! [`crate::FsMode`] decides what it issues and what it waits for — the
//! legacy JBD of EXT4 / EXT4-nobarrier / OptFS, or BarrierFS Dual-Mode
//! Journaling (§4.2).
//!
//! Legacy commit (Eq. 2 of the paper), one committing transaction; JC
//! goes out when JD's transfer completes, and releasing the transaction
//! wakes the commit thread for the next one:
//!
//! ```text
//! D → xfer → JD → xfer → JC(FLUSH|FUA)            one committing txn
//! ```
//!
//! Dual-mode commit (Eq. 3), JD and JC back to back as barrier writes:
//!
//! ```text
//! commit thread:  D(ordered) → JD(ordered|barrier) → JC(ordered|barrier)
//! flush thread:   ... JC transferred → [flush if durability wanted]
//! ```
//!
//! The BarrierFS commit thread never waits for a transfer, so the interval
//! between journal commits shrinks from `tD + tC + tF` to `tD` (Fig 8),
//! and many transactions can be in the committing list at once.
//!
//! ## Totality
//!
//! Every handler here is a *total* state machine: a completion event that
//! names a retired transaction, arrives twice, or arrives out of phase
//! (a JC done before its JD was ever placed) is dropped — counted in
//! [`crate::FsStats::dropped_journal_events`] — instead of unwrapping.
//! The transaction table's sliding window guarantees a retired [`TxnId`]
//! reads as absent rather than aliasing a live transaction, which is what
//! makes the graceful drops sound.

use bio_block::{BlockRequest, ReqFlags};
use bio_sim::{ActionSink, SimTime};

use crate::config::FsMode;
use crate::file::FileId;
use crate::fs::{AfterData, Filesystem, FsAction, FsEvent, Purpose, SyscallOutcome};
use crate::recovery::TxnRecord;
use crate::txn::{ThreadId, TxnId, TxnState};

/// Why a journal-path event could not be applied. These conditions are
/// drivable from outside the filesystem (a replayed interrupt, a forged
/// completion, a transaction that retired while the event was in flight),
/// so they are reported rather than panicked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalError {
    /// The event referenced a transaction that is not in the table
    /// (never existed, or already checkpointed and retired).
    RetiredTxn(TxnId),
    /// A JC completion or submission arrived for a transaction whose JD
    /// was never placed (no journal addresses allocated).
    JcBeforeJd(TxnId),
    /// The event duplicates one that was already applied (e.g. a second
    /// JD write-done after JC was already submitted).
    Duplicate(TxnId),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::RetiredTxn(t) => write!(f, "journal event for retired txn {}", t.0),
            JournalError::JcBeforeJd(t) => {
                write!(f, "JC event for txn {} whose JD was never placed", t.0)
            }
            JournalError::Duplicate(t) => write!(f, "duplicate journal event for txn {}", t.0),
        }
    }
}

impl std::error::Error for JournalError {}

/// Wakes every thread sleeping on one of a transaction's waiter lists: one
/// context switch and one wake each. The list is the only record of the
/// sleep, and draining it keeps its capacity for the recycled transaction.
fn wake_all(waiters: &mut Vec<ThreadId>, out: &mut ActionSink<FsAction>) {
    for tid in waiters.drain(..) {
        out.push(FsAction::CtxSwitch(tid));
        out.push(FsAction::Wake(tid));
    }
}

impl Filesystem {
    /// Counts a stale/duplicate/forged journal event that was dropped.
    pub(crate) fn note_dropped_journal_event(&mut self) {
        self.stats.dropped_journal_events += 1;
    }

    /// Requests a commit of `txn` (which must be the running transaction)
    /// and schedules the commit thread.
    pub(crate) fn trigger_commit(&mut self, txn: TxnId, out: &mut ActionSink<FsAction>) {
        debug_assert_eq!(self.running, Some(txn));
        let Some(t) = self.txns.get_mut(txn.0) else {
            return;
        };
        t.commit_requested = true;
        self.schedule_commit_run(out);
    }

    pub(crate) fn schedule_commit_run(&mut self, out: &mut ActionSink<FsAction>) {
        if self.commit_scheduled {
            return;
        }
        self.commit_scheduled = true;
        out.push(FsAction::After(
            self.cfg.commit_thread_wake,
            FsEvent::CommitRun,
        ));
    }

    /// The commit thread body: commits the running transaction while it
    /// has a pending request. Legacy JBD commits one transaction at a time
    /// and sends JD alone — its JC follows JD's transfer (`on_jd_done`,
    /// Wait-on-Transfer), and releasing it reschedules this thread
    /// (`release_txn`). BarrierFS sends JD and JC back to back as barrier
    /// writes and takes the next transaction at once, so its committing
    /// list grows. No BarrierFS commit waits for a transfer.
    #[inline]
    pub(crate) fn on_commit_run(&mut self, out: &mut ActionSink<FsAction>) {
        self.commit_scheduled = false;
        let dual_mode = self.cfg.mode == FsMode::BarrierFs;
        loop {
            // Legacy JBD has one committing slot.
            if !dual_mode && !self.committing.is_empty() {
                return;
            }
            let Some(rt) = self.running else { return };
            // §4.3: the running transaction commits only once the
            // conflict-page list (filled only under BarrierFS) is empty.
            if !self.running_commit_requested(rt) || !self.conflicts.is_empty() {
                return;
            }
            if !self.freeze_running(rt) {
                return; // journal space stall; retried on checkpoint completion
            }
            self.submit_jd(rt, out);
            if !dual_mode {
                continue; // JC follows JD's transfer; the slot is taken
            }
            if self.submit_jc(rt, out).is_err() {
                // submit_jd just placed the journal addresses, so this is
                // only reachable if the transaction vanished mid-commit.
                self.note_dropped_journal_event();
                return;
            }
            // Wake fbarrier callers: ordering is now in flight (§4.2, "in
            // ordering guarantee the commit thread wakes up the caller").
            if let Some(t) = self.txns.get_mut(rt.0) {
                wake_all(&mut t.dispatch_waiters, out);
            }
        }
    }

    /// True when the running transaction exists and has a pending commit
    /// request.
    fn running_commit_requested(&self, rt: TxnId) -> bool {
        self.txns.get(rt.0).is_some_and(|t| t.commit_requested)
    }

    /// Freezes the running transaction into the committing list. Returns
    /// false when the journal has no room (commit retried after
    /// checkpointing frees space) or the transaction is gone.
    fn freeze_running(&mut self, rt: TxnId) -> bool {
        let Some(blocks) = self.txns.get(rt.0).map(|t| t.journal_blocks()) else {
            return false;
        };
        if self.journal_used + blocks > self.cfg.journal_blocks {
            self.journal_stalled = true;
            return false;
        }
        self.journal_used += blocks;
        let mut buffers = std::mem::take(&mut self.scratch_files);
        let Some(txn) = self.txns.get_mut(rt.0) else {
            self.scratch_files = buffers;
            return false;
        };
        txn.state = TxnState::Committing;
        buffers.extend(txn.buffers.iter().map(|(_, f, _)| *f));
        self.committing.push(rt);
        self.running = None;
        self.stats.commits += 1;
        // Clear per-file dirt for the frozen buffers; the buffers stay
        // owned by this transaction until release.
        for f in buffers.drain(..) {
            let file = self.files.get_mut(f);
            file.alloc_dirty = false;
            file.mtime_dirty = false;
        }
        self.scratch_files = buffers;
        true
    }

    /// Submits the descriptor and log blocks of `txn`, placing its JD and
    /// JC in the journal.
    fn submit_jd(&mut self, txn: TxnId, out: &mut ActionSink<FsAction>) {
        let Some((n_logs, data_journal)) = self
            .txns
            .get(txn.0)
            .map(|t| (t.buffers.len() as u64, t.data_journal.len() as u64))
        else {
            return;
        };
        let jd_blocks = 1 + n_logs + data_journal;
        let lba = self.layout.alloc_journal(jd_blocks + 1); // + commit block
        let run = self.layout.next_tags(jd_blocks as usize);
        let tags = run.iter().collect();
        let jc_lba = bio_flash::Lba(lba.0 + jd_blocks);
        if let Some(t) = self.txns.get_mut(txn.0) {
            t.jd_lba = Some(lba);
            t.jd_tags = run;
            t.jc_lba = Some(jc_lba);
        }
        let rid = self.alloc_req(Purpose::Jd(txn));
        self.stats.journal_blocks += jd_blocks;
        let flags = match self.cfg.mode {
            FsMode::BarrierFs => ReqFlags::BARRIER,
            FsMode::Ext4 | FsMode::Ext4NoBarrier | FsMode::OptFs => ReqFlags::NONE,
        };
        out.push(FsAction::Submit(BlockRequest::write(rid, lba, tags, flags)));
    }

    /// Submits the commit block of `txn`. Fails — without touching any
    /// state — when the transaction is retired or its JD was never placed
    /// (a JC cannot exist before its JD: the addresses are allocated
    /// together).
    #[inline]
    pub(crate) fn submit_jc(
        &mut self,
        txn: TxnId,
        out: &mut ActionSink<FsAction>,
    ) -> Result<(), JournalError> {
        let Some(t) = self.txns.get(txn.0) else {
            return Err(JournalError::RetiredTxn(txn));
        };
        let Some(jc_lba) = t.jc_lba else {
            return Err(JournalError::JcBeforeJd(txn));
        };
        let tag = self.layout.next_tag();
        if let Some(t) = self.txns.get_mut(txn.0) {
            t.jc_tag = Some(tag);
        }
        let rid = self.alloc_req(Purpose::Jc(txn));
        self.stats.journal_blocks += 1;
        let flags = match self.cfg.mode {
            FsMode::Ext4 => ReqFlags::FLUSH_FUA,
            FsMode::Ext4NoBarrier | FsMode::OptFs => ReqFlags::NONE,
            FsMode::BarrierFs => ReqFlags::BARRIER,
        };
        out.push(FsAction::Submit(BlockRequest::write(
            rid,
            jc_lba,
            vec![tag],
            flags,
        )));
        // The commit is now fully described: record ground truth.
        self.record_txn(txn);
        Ok(())
    }

    fn record_txn(&mut self, txn: TxnId) {
        let Some(t) = self.txns.get_mut(txn.0) else {
            return;
        };
        let (Some(jd_lba), Some(jc_lba), Some(jc_tag)) = (t.jd_lba, t.jc_lba, t.jc_tag) else {
            debug_assert!(false, "record_txn before journal placement");
            return;
        };
        // Ascending-id order is what lets `ConsistencyIndex` take
        // positions for commit order; records out of order make the index
        // certify nothing. `mark_durable` finds the record by the absolute
        // position noted here.
        debug_assert!(self.records.window().last().is_none_or(|r| r.id < txn.0));
        t.record = Some(self.records.push(
            TxnRecord::new(txn.0, jd_lba, t.jd_tags, jc_lba, jc_tag).with_blocks(
                t.buffers.iter().map(|(l, _, tag)| (*l, *tag)),
                &t.data_journal,
                &t.ordered_data,
            ),
        ));
    }

    /// JD transfer completed (legacy modes only — BarrierFS needs no
    /// action here because JC was dispatched back-to-back). A JD
    /// completion for a retired transaction, or a duplicate one arriving
    /// after JC was already submitted, is dropped.
    pub(crate) fn on_jd_done(&mut self, txn: TxnId, out: &mut ActionSink<FsAction>) {
        if self.cfg.mode == FsMode::BarrierFs {
            return;
        }
        if self.txns.get(txn.0).is_some_and(|t| t.jc_tag.is_some()) {
            // JC already dispatched: this JD completion is a replay.
            self.note_dropped_journal_event();
            return;
        }
        if self.submit_jc(txn, out).is_err() {
            self.note_dropped_journal_event();
        }
    }

    /// JC transfer completed: the commit is transferred; durability and
    /// release depend on the mode. Stale completions — a retired
    /// transaction, or one already past `Committing` (a replayed JC) —
    /// are dropped.
    pub(crate) fn on_jc_done(&mut self, txn: TxnId, now: SimTime, out: &mut ActionSink<FsAction>) {
        let Some(t) = self.txns.get_mut(txn.0) else {
            self.note_dropped_journal_event();
            return;
        };
        if t.state != TxnState::Committing {
            self.note_dropped_journal_event();
            return;
        }
        t.state = TxnState::Transferred;
        // OptFS osync waiters are satisfied by the transfer.
        wake_all(&mut t.transfer_waiters, out);
        match self.cfg.mode {
            FsMode::Ext4 | FsMode::Ext4NoBarrier => {
                // EXT4's JC carried FLUSH|FUA: everything up to here is
                // durable. Under nobarrier no flush went anywhere: the
                // transaction is *treated* as complete at transfer, and
                // the crash checker is told no durability was promised —
                // exactly the nobarrier trade-off.
                self.mark_durable(txn, self.cfg.mode == FsMode::Ext4, out);
                self.release_txn(txn, now, true, out);
            }
            FsMode::OptFs => {
                // Delayed durability: the periodic flusher upgrades the
                // transaction later; fsync-style callers get a flush now.
                let urgent = self
                    .txns
                    .get(txn.0)
                    .is_some_and(|t| !t.durable_waiters.is_empty());
                // Release buffers (writers unblock) but checkpoint only
                // after durability.
                self.release_txn(txn, now, false, out);
                if urgent {
                    self.request_txn_flush(out);
                }
            }
            FsMode::BarrierFs => {
                // Flush thread: flush if anyone wants durability of this
                // or an earlier transferred transaction; otherwise release
                // immediately (ordering-only commit).
                let wants_flush = self.committing.iter().any(|t| {
                    self.txns.get(t.0).is_some_and(|tx| {
                        tx.state == TxnState::Transferred && !tx.durable_waiters.is_empty()
                    })
                });
                if wants_flush {
                    self.request_txn_flush(out);
                } else {
                    self.release_txn(txn, now, true, out);
                }
            }
        }
    }

    /// Issues a flush covering every currently transferred transaction
    /// (the flush thread's job). Coalesces with an in-flight flush.
    pub(crate) fn request_txn_flush(&mut self, out: &mut ActionSink<FsAction>) {
        if self.flush_inflight {
            self.flush_again = true;
            return;
        }
        let upto = self
            .txns
            .iter()
            .filter(|(_, t)| t.state == TxnState::Transferred)
            .map(|(id, _)| TxnId(id))
            .max();
        let Some(upto) = upto else { return };
        self.flush_inflight = true;
        let rid = self.alloc_req(Purpose::TxnFlush { upto });
        self.stats.flushes += 1;
        out.push(FsAction::Submit(BlockRequest::flush(rid)));
    }

    #[inline]
    pub(crate) fn on_txn_flush_done(
        &mut self,
        upto: TxnId,
        now: SimTime,
        out: &mut ActionSink<FsAction>,
    ) {
        self.flush_inflight = false;
        // Every transaction transferred before the flush is now durable,
        // in commit order (the table iterates in id order).
        let ready: Vec<TxnId> = self
            .txns
            .iter()
            .filter(|(id, t)| *id <= upto.0 && t.state == TxnState::Transferred)
            .map(|(id, _)| TxnId(id))
            .collect();
        for t in ready {
            self.mark_durable(t, true, out);
            if self.committing.contains(&t) {
                // BarrierFS: the flush thread releases the transaction.
                self.release_txn(t, now, true, out);
            } else {
                // OptFS: released at transfer; checkpoint now.
                self.start_checkpoint(t, out);
            }
        }
        if self.flush_again {
            self.flush_again = false;
            self.request_txn_flush(out);
        }
    }

    /// Marks `txn` durable and wakes its durability waiters. When
    /// `real_durability` is false (nobarrier) the wake happens but no
    /// durability claim is recorded — the crash checker must not hold the
    /// filesystem to a promise it never made. Retired and already-durable
    /// transactions are left untouched.
    pub(crate) fn mark_durable(
        &mut self,
        txn: TxnId,
        real_durability: bool,
        out: &mut ActionSink<FsAction>,
    ) {
        let Some(t) = self.txns.get_mut(txn.0) else {
            return;
        };
        if t.state >= TxnState::Durable {
            return;
        }
        t.state = TxnState::Durable;
        if real_durability && !t.durable_waiters.is_empty() {
            t.durability_claimed = true;
            // A retired record takes no mark: no verdict reads it.
            if let Some(pos) = t.record {
                if let Some(rec) = self.records.get_mut(pos) {
                    rec.durability_claimed = true;
                    if let Some(log) = &mut self.durable_mark_log {
                        log.push(pos);
                    }
                }
            }
        }
        wake_all(&mut t.durable_waiters, out);
    }

    /// Removes the transaction from the committing list, resolves page
    /// conflicts it was holding, releases file buffers, and (optionally)
    /// starts the checkpoint. A release for a retired transaction only
    /// scrubs the committing list.
    #[inline]
    pub(crate) fn release_txn(
        &mut self,
        txn: TxnId,
        now: SimTime,
        checkpoint: bool,
        out: &mut ActionSink<FsAction>,
    ) {
        self.committing.retain(|t| *t != txn);
        let mut files = std::mem::take(&mut self.scratch_files);
        match self.txns.get(txn.0) {
            Some(t) => files.extend(t.buffers.iter().map(|(_, f, _)| *f)),
            None => {
                self.scratch_files = files;
                return;
            }
        }
        // Release inode buffers.
        for f in files.drain(..) {
            if self.files.get(f).txn == Some(txn) {
                self.files.get_mut(f).txn = None;
            }
        }
        self.scratch_files = files;
        // Resolve conflict-page-list entries held by this transaction:
        // their buffers join the running transaction with current content.
        let resolved = self.conflicts.resolve(txn);
        for e in resolved {
            let tag = self.files.get(e.file).meta_tag;
            self.dirty_inode(e.file, e.lba, tag);
        }
        if self.conflicts.is_empty() {
            // The running transaction may have been waiting on conflicts,
            // or, under legacy JBD, on the committing slot this release
            // frees.
            if let Some(rt) = self.running {
                if self.running_commit_requested(rt) {
                    self.schedule_commit_run(out);
                }
            }
        }
        // Wake EXT4 writers blocked on the conflict.
        let mut writers = match self.txns.get_mut(txn.0) {
            Some(t) => std::mem::take(&mut t.conflict_waiters),
            None => Vec::new(),
        };
        for tid in writers.drain(..) {
            self.retry_conflicted_write(tid, now, out);
        }
        // Hand the drained buffer back so its capacity survives into the
        // arena recycling ([`Txn::reset`] keeps it) — unless a retried
        // write conflicted again and is already waiting on the list.
        if let Some(t) = self.txns.get_mut(txn.0) {
            if t.conflict_waiters.is_empty() {
                t.conflict_waiters = writers;
            }
        }
        if checkpoint {
            self.start_checkpoint(txn, out);
        }
    }

    /// Submits the in-place metadata (and OptFS data) writes of a released
    /// transaction.
    #[inline]
    pub(crate) fn start_checkpoint(&mut self, txn: TxnId, out: &mut ActionSink<FsAction>) {
        let mut writes = std::mem::take(&mut self.scratch_writes);
        match self.txns.get(txn.0) {
            Some(t) => writes.extend(
                t.buffers
                    .iter()
                    .map(|(l, _, tag)| (*l, *tag))
                    .chain(t.data_journal.iter().copied()),
            ),
            None => {
                self.scratch_writes = writes;
                return;
            }
        }
        if writes.is_empty() {
            self.scratch_writes = writes;
            self.finish_checkpoint(txn, out);
            return;
        }
        // BarrierFS checkpoints with ordered requests so an in-place write
        // can never overtake the journal commit it depends on; legacy
        // modes checkpoint after durability, so plain writes suffice.
        let flags = if self.cfg.mode == FsMode::BarrierFs {
            ReqFlags::ORDERED
        } else {
            ReqFlags::NONE
        };
        if let Some(t) = self.txns.get_mut(txn.0) {
            t.checkpoints_left = writes.len();
        }
        for (lba, tag) in writes.drain(..) {
            let rid = self.alloc_req(Purpose::Checkpoint(txn));
            self.stats.checkpoint_blocks += 1;
            out.push(FsAction::Submit(BlockRequest::write(
                rid,
                lba,
                vec![tag],
                flags,
            )));
        }
        self.scratch_writes = writes;
    }

    /// One checkpoint write of `txn` completed. Stale completions — a
    /// retired transaction, or one with no checkpoint outstanding — are
    /// dropped.
    pub(crate) fn on_checkpoint_done(&mut self, txn: TxnId, out: &mut ActionSink<FsAction>) {
        let Some(t) = self.txns.get_mut(txn.0) else {
            self.note_dropped_journal_event();
            return;
        };
        if t.checkpoints_left == 0 {
            self.note_dropped_journal_event();
            return;
        }
        t.checkpoints_left -= 1;
        if t.checkpoints_left == 0 {
            self.finish_checkpoint(txn, out);
        }
    }

    #[inline]
    fn finish_checkpoint(&mut self, txn: TxnId, out: &mut ActionSink<FsAction>) {
        // The transaction is complete; retire it into the arena (records
        // keep the history).
        let Some(t) = self.txns.remove(txn.0) else {
            return;
        };
        self.journal_used = self.journal_used.saturating_sub(t.journal_blocks());
        self.txn_pool.push(t);
        if self.journal_stalled {
            self.journal_stalled = false;
            self.schedule_commit_run(out);
        }
    }

    // ------------------------------------------------------------------
    // OptFS.
    // ------------------------------------------------------------------

    /// `osync` (and OptFS `fsync`/`fdatasync` when `durable` is true):
    /// Wait-on-Transfer ordering with selective data journaling and
    /// delayed durability.
    pub(crate) fn optfs_osync(
        &mut self,
        tid: ThreadId,
        file: FileId,
        durable: bool,
        out: &mut ActionSink<FsAction>,
    ) -> SyscallOutcome {
        // Selective data journaling: overwrites of committed content are
        // journaled; fresh allocations write in place.
        let (in_place, journaled): (Vec<(u64, bio_flash::BlockTag)>, Vec<_>) = {
            let f = self.files.get_mut(file);
            let all: Vec<(u64, bio_flash::BlockTag)> = f.dirty_data.iter().collect();
            f.dirty_data.clear();
            all.into_iter()
                .partition(|&(b, _)| !f.committed_blocks.contains(b))
        };
        self.note_dirty_drop((in_place.len() + journaled.len()) as u64);
        // Journaled data joins the running transaction.
        if !journaled.is_empty() {
            let rt = self.ensure_running();
            let entries: Vec<(bio_flash::Lba, bio_flash::BlockTag)> = journaled
                .iter()
                .filter_map(|&(b, t)| Some((self.page_lba(file, b)?, t)))
                .collect();
            if let Some(t) = self.txns.get_mut(rt.0) {
                t.data_journal.extend(entries);
            }
        }
        // In-place data is submitted and awaited (Wait-on-Transfer).
        if !in_place.is_empty() {
            let first = self.next_req;
            let mut pairs = Vec::new();
            for (b, tag) in in_place {
                let Some(lba) = self.page_lba(file, b) else {
                    continue;
                };
                let rid = self.alloc_req(Purpose::Data(tid));
                self.stats.data_blocks += 1;
                out.push(FsAction::Submit(BlockRequest::write(
                    rid,
                    lba,
                    vec![tag],
                    ReqFlags::NONE,
                )));
                pairs.push((lba, tag));
            }
            self.note_ordered_data(&pairs);
            let reqs = first..self.next_req;
            self.await_data(tid, file, reqs, AfterData::OptfsScan { durable });
            return SyscallOutcome::Blocked;
        }
        self.optfs_commit_and_wait(tid, durable, out)
    }

    /// Triggers an OptFS commit (including the page-scan latency) and
    /// blocks the caller on transfer (osync) or durability (fsync).
    pub(crate) fn optfs_commit_and_wait(
        &mut self,
        tid: ThreadId,
        durable: bool,
        out: &mut ActionSink<FsAction>,
    ) -> SyscallOutcome {
        let rt = self.ensure_running();
        // Page-scanning overhead proportional to the transaction size
        // (§6.5: selective data journaling increases the pages to scan).
        let pages = self.txns.get(rt.0).map_or(0, |t| t.journal_blocks());
        let scan =
            bio_sim::SimDuration::from_nanos(self.cfg.optfs_scan_per_page.as_nanos() * pages);
        if let Some(t) = self.txns.get_mut(rt.0) {
            t.commit_requested = true;
            if durable {
                t.durable_waiters.push(tid);
            } else {
                t.transfer_waiters.push(tid);
            }
        }
        if !self.commit_scheduled {
            self.commit_scheduled = true;
            out.push(FsAction::After(
                self.cfg.commit_thread_wake + scan,
                FsEvent::CommitRun,
            ));
        }
        SyscallOutcome::Blocked
    }

    /// Periodic OptFS flusher: upgrade transferred transactions to
    /// durable.
    pub(crate) fn optfs_periodic_flush(&mut self, out: &mut ActionSink<FsAction>) {
        let any_transferred = self
            .txns
            .iter()
            .any(|(_, t)| t.state == TxnState::Transferred);
        if any_transferred {
            self.request_txn_flush(out);
        }
    }
}

#[cfg(test)]
mod tests {
    //! In-crate regression tests for the journal's totality: these drive
    //! the `pub(crate)` handlers directly with retired/duplicate/forged
    //! transaction ids — states a black-box caller cannot easily reach
    //! because the request-continuation window already filters replays.

    use bio_sim::{ActionSink, SimTime};

    use super::JournalError;
    use crate::config::{FsConfig, FsMode};
    use crate::fs::{Filesystem, FsAction, FsEvent, SyscallOutcome};
    use crate::txn::{ThreadId, TxnId};

    const T0: ThreadId = ThreadId(0);

    fn fs(mode: FsMode) -> (Filesystem, crate::file::FileId) {
        let mut fs = Filesystem::new(FsConfig::new(mode));
        let mut out = ActionSink::new();
        let f = fs.create(T0, &mut out);
        (fs, f)
    }

    /// Drives the filesystem's own scheduled events (and completes every
    /// submitted request immediately) until quiescent; returns how many
    /// actions were processed.
    fn settle(fs: &mut Filesystem, out: &mut ActionSink<FsAction>) -> usize {
        let mut processed = 0;
        for _ in 0..64 {
            let pending: Vec<FsAction> = out.iter().cloned().collect();
            out.clear();
            if pending.is_empty() {
                break;
            }
            for a in pending {
                processed += 1;
                match a {
                    FsAction::Submit(r) => {
                        fs.handle(FsEvent::ReqDone(r.id), SimTime::from_micros(10), out)
                    }
                    FsAction::After(_, ev) => fs.handle(ev, SimTime::from_micros(10), out),
                    FsAction::Wake(_) | FsAction::CtxSwitch(_) => {}
                }
            }
        }
        processed
    }

    /// Runs one full fsync commit so the transaction retires, then returns
    /// the retired id.
    fn retire_one_txn(fs: &mut Filesystem, f: crate::file::FileId) -> TxnId {
        let mut out = ActionSink::new();
        fs.write(T0, f, 0, 1, SimTime::ZERO, &mut out);
        out.clear();
        assert_eq!(
            fs.fsync(T0, f, SimTime::ZERO, &mut out),
            SyscallOutcome::Blocked
        );
        let retired = TxnId(1);
        settle(fs, &mut out);
        assert!(
            fs.txns.get(retired.0).is_none(),
            "txn should have checkpointed and retired"
        );
        retired
    }

    #[test]
    fn stale_jc_done_for_retired_txn_is_dropped() {
        let (mut fs, f) = fs(FsMode::Ext4);
        let retired = retire_one_txn(&mut fs, f);
        let commits = fs.stats().commits;
        let mut out = ActionSink::new();
        fs.on_jc_done(retired, SimTime::from_micros(99), &mut out);
        assert_eq!(out.iter().count(), 0, "stale JC-done must emit nothing");
        assert_eq!(fs.stats().commits, commits);
        assert_eq!(fs.stats().dropped_journal_events, 1);
        // The filesystem still works afterwards.
        let mut out = ActionSink::new();
        fs.write(T0, f, 10, 1, SimTime::from_millis(20), &mut out);
        assert_eq!(
            fs.fsync(T0, f, SimTime::from_millis(20), &mut out),
            SyscallOutcome::Blocked
        );
    }

    #[test]
    fn stale_jd_done_for_retired_txn_is_dropped() {
        let (mut fs, f) = fs(FsMode::Ext4);
        let retired = retire_one_txn(&mut fs, f);
        let journal_blocks = fs.stats().journal_blocks;
        let mut out = ActionSink::new();
        fs.on_jd_done(retired, &mut out);
        assert_eq!(out.iter().count(), 0, "no JC may be submitted");
        assert_eq!(fs.stats().journal_blocks, journal_blocks);
        assert_eq!(fs.stats().dropped_journal_events, 1);
    }

    #[test]
    fn duplicate_jd_done_does_not_resubmit_jc() {
        let (mut fs, f) = fs(FsMode::Ext4);
        // Retire txn 1 so txn 2 is a clean target.
        retire_one_txn(&mut fs, f);
        let mut out = ActionSink::new();
        fs.write(T0, f, 5, 1, SimTime::from_millis(10), &mut out);
        out.clear();
        fs.fsync(ThreadId(1), f, SimTime::from_millis(10), &mut out);
        // Complete the data write, then walk the Step/CommitRun chain
        // until JD is submitted.
        let data_rid = out
            .iter()
            .find_map(|a| match a {
                FsAction::Submit(r) => Some(r.id),
                _ => None,
            })
            .expect("data write submitted");
        out.clear();
        fs.handle(
            FsEvent::ReqDone(data_rid),
            SimTime::from_millis(11),
            &mut out,
        );
        let mut jd = None;
        for _ in 0..4 {
            let next: Vec<FsEvent> = out
                .iter()
                .filter_map(|a| match a {
                    FsAction::After(_, ev) => Some(*ev),
                    _ => None,
                })
                .collect();
            out.clear();
            for ev in next {
                fs.handle(ev, SimTime::from_millis(12), &mut out);
            }
            jd = out.iter().find_map(|a| match a {
                FsAction::Submit(r) => Some(r.id),
                _ => None,
            });
            if jd.is_some() {
                break;
            }
        }
        let jd = jd.expect("JD submitted");
        out.clear();
        // First JD completion submits JC.
        fs.handle(FsEvent::ReqDone(jd), SimTime::from_millis(13), &mut out);
        let jc_submits = out
            .iter()
            .filter(|a| matches!(a, FsAction::Submit(_)))
            .count();
        assert_eq!(jc_submits, 1, "JD completion submits exactly one JC");
        let after_first = fs.stats().journal_blocks;
        out.clear();
        // A duplicate JD completion (same txn still live, JC outstanding)
        // must be inert at the journal layer.
        fs.on_jd_done(TxnId(2), &mut out);
        assert_eq!(out.iter().count(), 0, "duplicate JD-done must be inert");
        assert_eq!(fs.stats().journal_blocks, after_first);
        assert!(fs.stats().dropped_journal_events > 0);
    }

    #[test]
    fn jc_without_jd_placement_is_a_typed_error() {
        let (mut fs, f) = fs(FsMode::Ext4);
        let mut out = ActionSink::new();
        fs.write(T0, f, 0, 1, SimTime::ZERO, &mut out);
        out.clear();
        // Txn 1 is running; its JD was never submitted, so a JC submission
        // must fail with the typed error instead of panicking.
        assert_eq!(
            fs.submit_jc(TxnId(1), &mut out),
            Err(JournalError::JcBeforeJd(TxnId(1)))
        );
        assert_eq!(
            fs.submit_jc(TxnId(77), &mut out),
            Err(JournalError::RetiredTxn(TxnId(77)))
        );
        assert_eq!(out.iter().count(), 0, "failed submits emit nothing");
        // on_jd_done for that never-placed txn drops the event gracefully.
        fs.on_jd_done(TxnId(77), &mut out);
        assert_eq!(fs.stats().dropped_journal_events, 1);
    }

    #[test]
    fn stale_checkpoint_flush_and_release_events_are_inert() {
        let (mut fs, f) = fs(FsMode::BarrierFs);
        let retired = retire_one_txn(&mut fs, f);
        let mut out = ActionSink::new();
        // Checkpoint completion for a retired txn.
        fs.on_checkpoint_done(retired, &mut out);
        assert_eq!(fs.stats().dropped_journal_events, 1);
        // Flush completion naming a retired txn: nothing is transferred,
        // so nothing happens.
        fs.on_txn_flush_done(retired, SimTime::ZERO, &mut out);
        // Release / durability of a retired txn: inert.
        fs.mark_durable(retired, true, &mut out);
        fs.release_txn(retired, SimTime::ZERO, true, &mut out);
        assert_eq!(out.iter().count(), 0);
        assert_eq!(fs.committing_count(), 0);
    }

    #[test]
    fn empty_txn_commit_retires_cleanly() {
        let (mut fs, f) = fs(FsMode::BarrierFs);
        // Retire the file-creation metadata first.
        retire_one_txn(&mut fs, f);
        // Nothing dirty: fdatabarrier forces an empty-txn commit.
        let mut out = ActionSink::new();
        let r = fs.fdatabarrier(T0, f, SimTime::from_millis(30), &mut out);
        assert_eq!(r, SyscallOutcome::Done);
        settle(&mut fs, &mut out);
        assert_eq!(
            fs.journal_used, 0,
            "empty txn must release its journal blocks"
        );
        assert!(fs.txns.is_empty(), "empty txn retired");
    }

    #[test]
    fn double_commit_request_commits_once() {
        let (mut fs, f) = fs(FsMode::BarrierFs);
        let mut out = ActionSink::new();
        fs.write(T0, f, 0, 1, SimTime::ZERO, &mut out);
        out.clear();
        // Two syncs on the same running txn before the commit thread runs:
        // commit_requested is set twice, the commit happens once.
        fs.fsync(T0, f, SimTime::ZERO, &mut out);
        fs.fsync(ThreadId(1), f, SimTime::ZERO, &mut out);
        out.clear();
        fs.handle(FsEvent::CommitRun, SimTime::from_micros(50), &mut out);
        assert_eq!(fs.stats().commits, 1, "one frozen txn");
        // A second CommitRun with nothing runnable is a no-op.
        out.clear();
        fs.handle(FsEvent::CommitRun, SimTime::from_micros(60), &mut out);
        assert_eq!(fs.stats().commits, 1);
        assert_eq!(out.iter().count(), 0);
    }

    #[test]
    fn fsync_racing_txn_retirement_completes_synchronously() {
        let (mut fs, f) = fs(FsMode::BarrierFs);
        let retired = retire_one_txn(&mut fs, f);
        // A waiter registering on a retired (or already-durable)
        // transaction — the race: the holder check passed, then the txn
        // retired — must complete without sleeping: no waiter registered,
        // no mid-syscall Wake (the stack has not marked the thread
        // in-syscall yet), no stranded thread.
        let mut out = ActionSink::new();
        let outcome = fs.await_txn_durable(ThreadId(3), retired, &mut out);
        assert_eq!(outcome, SyscallOutcome::Done);
        assert_eq!(
            out.iter().count(),
            0,
            "racing waiter completes with no actions"
        );
    }

    #[test]
    fn journal_state_is_a_total_function_of_forged_events() {
        // Fuzz-ish sweep: every event-reachable journal handler, fed every
        // txn id in a small range (live, retired and never-allocated),
        // must not panic and must keep the filesystem usable. (The
        // internal helpers — mark_durable, release_txn — are only called
        // with ids these guarded handlers validated.)
        let (mut fs, f) = fs(FsMode::BarrierFs);
        retire_one_txn(&mut fs, f);
        let mut out = ActionSink::new();
        fs.write(T0, f, 0, 2, SimTime::from_millis(40), &mut out);
        fs.fsync(T0, f, SimTime::from_millis(40), &mut out);
        out.clear();
        for raw in 0..6u64 {
            let id = TxnId(raw);
            fs.on_jd_done(id, &mut out);
            fs.on_jc_done(id, SimTime::from_millis(41), &mut out);
            fs.on_checkpoint_done(id, &mut out);
            fs.on_txn_flush_done(id, SimTime::from_millis(41), &mut out);
            out.clear();
        }
        // Still functional: a fresh write+sync completes.
        let mut out = ActionSink::new();
        fs.write(T0, f, 9, 1, SimTime::from_millis(50), &mut out);
        out.clear();
        assert_eq!(
            fs.fsync(T0, f, SimTime::from_millis(50), &mut out),
            SyscallOutcome::Blocked
        );
        settle(&mut fs, &mut out);
    }

    #[test]
    fn transferred_state_guard_drops_replayed_jc() {
        let (mut fs, f) = fs(FsMode::OptFs);
        let mut out = ActionSink::new();
        fs.write(T0, f, 0, 1, SimTime::ZERO, &mut out);
        out.clear();
        // osync: blocks on transfer.
        assert_eq!(
            fs.fbarrier(T0, f, SimTime::ZERO, &mut out),
            SyscallOutcome::Blocked
        );
        settle(&mut fs, &mut out);
        // Txn 1 transferred (released at transfer under OptFS). A replayed
        // JC completion must be dropped by the state guard.
        let dropped = fs.stats().dropped_journal_events;
        let mut out = ActionSink::new();
        fs.on_jc_done(TxnId(1), SimTime::from_millis(2), &mut out);
        assert_eq!(out.iter().count(), 0);
        assert_eq!(fs.stats().dropped_journal_events, dropped + 1);
    }
}
