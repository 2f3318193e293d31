//! The filesystem state machine: syscall entry points, write path, reads,
//! background writeback. The journal machinery lives in `journal.rs` as
//! further `impl Filesystem` blocks.
//!
//! The filesystem is a Mealy machine like the layers below: syscalls and
//! [`FsEvent`]s go in, [`FsAction`]s come out. The embedding simulator
//! routes `Submit` actions to the block layer and feeds request
//! completions back as [`FsEvent::ReqDone`].
//!
//! ## Blocking and context switches
//!
//! A syscall returns [`SyscallOutcome::Done`] when it completes without
//! sleeping (e.g. `write()`, `fdatabarrier()`), or
//! [`SyscallOutcome::Blocked`], in which case exactly one
//! [`FsAction::Wake`] follows eventually, and every sleep→wake transition
//! inside the call (including the final one) emits one
//! [`FsAction::CtxSwitch`]. The CtxSwitch count per operation is the
//! metric of the paper's Fig 11.

use std::ops::Range;

use bio_block::{BlockRequest, ReqFlags, ReqId};
use bio_flash::{BlockTag, Lba};
use bio_sim::{ActionSink, SeqTable, SimDuration, SimTime};

use crate::config::{FsConfig, FsMode};
use crate::file::{File, FileId, FileTable};
use crate::history::RecordHistory;
use crate::layout::Layout;
use crate::recovery::TxnRecord;
use crate::txn::{ConflictList, ThreadId, Txn, TxnId, TxnState};

/// Events the filesystem schedules for itself (routed back by the
/// embedding simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsEvent {
    /// A block request completed.
    ReqDone(ReqId),
    /// Resume a syscall state machine after a context-switch delay.
    Step(ThreadId),
    /// The JBD / commit thread runs.
    CommitRun,
    /// Background writeback daemon round.
    Pdflush,
    /// OptFS delayed-durability flush timer.
    OptfsFlush,
}

/// Outputs of the filesystem machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsAction {
    /// Submit a request to the block layer.
    Submit(BlockRequest),
    /// The blocked syscall of this thread completed; resume the caller.
    Wake(ThreadId),
    /// The caller slept and was woken once inside the syscall (metric for
    /// Fig 11; emitted for every sleep/wake pair including the final one).
    CtxSwitch(ThreadId),
    /// Schedule an event after a delay.
    After(SimDuration, FsEvent),
}

/// Synchronous result of a syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallOutcome {
    /// Completed without sleeping.
    Done,
    /// Caller is blocked; an [`FsAction::Wake`] will follow.
    Blocked,
}

/// What a pending data-wait continues into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AfterData {
    /// EXT4 family: commit metadata or flush (phase 2 of `fsync`).
    Ext4Phase2 { datasync: bool },
    /// BarrierFS degenerate `fdatasync`: flush, then wake.
    FlushThenWake,
    /// OptFS: commit after the page scan; `durable` selects the wait.
    OptfsScan { durable: bool },
}

/// Per-thread syscall progress. A thread sleeping on a transaction has no
/// entry: the transaction's waiter list it sits on is the record.
#[derive(Debug, Clone)]
enum SyscallState {
    /// Waiting for data-page writes: `left` of the requests `reqs` have yet
    /// to complete. The ids of one call are consecutive and each completes
    /// once (`purposes` drops replays), so membership is a range test and
    /// completion a count.
    AwaitData {
        reqs: Range<u64>,
        left: u64,
        file: FileId,
        then: AfterData,
    },
    /// Between CtxSwitch and Step (scheduling latency).
    Stepping { file: FileId, then: AfterData },
    /// Waiting for an explicit flush request.
    AwaitFlush,
    /// EXT4 writer blocked on a page conflict; the write retries when the
    /// holder transaction releases its buffers.
    AwaitConflict {
        file: FileId,
        offset: u64,
        blocks: u64,
    },
    /// Waiting for a read.
    AwaitRead,
}

/// Dense per-thread syscall-state table. [`ThreadId`]s are small integers
/// assigned contiguously by the embedding simulator, so the table is a
/// direct-indexed `Vec` rather than a hash map — the syscall continuation
/// lookup sits on every request-completion path.
#[derive(Debug, Clone, Default)]
struct ThreadTable {
    slots: Vec<Option<SyscallState>>,
}

impl ThreadTable {
    fn set(&mut self, tid: ThreadId, state: SyscallState) {
        let i = tid.0 as usize;
        if i >= self.slots.len() {
            self.slots
                .resize_with((i + 1).max(self.slots.len() * 2), || None);
        }
        if let Some(slot) = self.slots.get_mut(i) {
            *slot = Some(state);
        }
    }

    fn get(&self, tid: ThreadId) -> Option<&SyscallState> {
        self.slots.get(tid.0 as usize)?.as_ref()
    }

    fn get_mut(&mut self, tid: ThreadId) -> Option<&mut SyscallState> {
        self.slots.get_mut(tid.0 as usize)?.as_mut()
    }

    fn take(&mut self, tid: ThreadId) -> Option<SyscallState> {
        self.slots.get_mut(tid.0 as usize)?.take()
    }
}

/// Why a request was submitted (continuation routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Purpose {
    /// Data page write awaited by a thread.
    Data(ThreadId),
    /// Journal descriptor + logs of a transaction.
    Jd(TxnId),
    /// Journal commit block.
    Jc(TxnId),
    /// Flush awaited by one thread (degenerate fsync path).
    ThreadFlush(ThreadId),
    /// Flush issued by the flush thread covering transactions `<= upto`.
    TxnFlush { upto: TxnId },
    /// Checkpoint (in-place metadata) write of a transaction.
    Checkpoint(TxnId),
    /// Background writeback; no continuation.
    Writeback,
    /// Read awaited by a thread.
    Read(ThreadId),
}

/// Aggregate filesystem statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsStats {
    /// Journal commits dispatched.
    pub commits: u64,
    /// Commits forced by barrier calls finding nothing dirty.
    pub forced_commits: u64,
    /// Data blocks submitted (foreground).
    pub data_blocks: u64,
    /// Journal blocks submitted (JD + logs + JC).
    pub journal_blocks: u64,
    /// Checkpoint blocks submitted.
    pub checkpoint_blocks: u64,
    /// Writeback blocks submitted by pdflush.
    pub writeback_blocks: u64,
    /// Page conflicts encountered (§4.3).
    pub page_conflicts: u64,
    /// Flush requests issued.
    pub flushes: u64,
    /// Journal events dropped because they referenced a retired or
    /// never-placed transaction (stale, duplicated or forged completions),
    /// syscalls dropped because they named a file this filesystem never
    /// created or has unlinked (the call returns at once, having done
    /// nothing), and creates refused because the metadata region was full.
    pub dropped_journal_events: u64,
    /// Dirty pages dropped at submit time because no extent backed them
    /// (corrupted tracking state; the submit path never aborts).
    pub dropped_data_pages: u64,
}

/// The simulated filesystem.
#[derive(Debug)]
pub struct Filesystem {
    pub(crate) cfg: FsConfig,
    pub(crate) layout: Layout,
    pub(crate) files: FileTable,
    /// Live transactions, keyed by the bump-allocated [`TxnId`]: a dense
    /// sliding-window table whose base acts as a generation check, so a
    /// completion for a retired transaction reads as absent instead of
    /// aliasing a live one.
    pub(crate) txns: SeqTable<Txn>,
    pub(crate) running: Option<TxnId>,
    /// Committing-transaction list, in commit order (§4.2).
    pub(crate) committing: Vec<TxnId>,
    pub(crate) next_txn: u64,
    pub(crate) conflicts: ConflictList,
    pub(crate) commit_scheduled: bool,
    syscalls: ThreadTable,
    /// Continuation routing per in-flight request, keyed by the
    /// bump-allocated [`ReqId`]: a dense sliding-window table whose base
    /// acts as a generation check, so a replayed or duplicate completion
    /// reads as absent instead of aliasing a live request.
    pub(crate) purposes: SeqTable<Purpose>,
    /// The id the next [`Filesystem::alloc_req`] hands out: ids are
    /// consecutive, so a caller brackets its submissions with this to get
    /// their range.
    pub(crate) next_req: u64,
    /// Journal blocks held by non-checkpointed transactions.
    pub(crate) journal_used: u64,
    pub(crate) journal_stalled: bool,
    /// A TxnFlush request is in flight.
    pub(crate) flush_inflight: bool,
    /// A transferred transaction gained durability waiters while a flush
    /// was in flight; flush again.
    pub(crate) flush_again: bool,
    /// Ground truth for the crash checkers, as long as the journal keeps it.
    pub(crate) records: RecordHistory,
    pub(crate) stats: FsStats,
    /// Total dirty data pages across all files (writeback watermarking).
    dirty_total: u64,
    /// Dirty-page count above which writes trigger inline writeback
    /// (the kernel's dirty-ratio behaviour).
    dirty_threshold: u64,
    /// Commit-path arena: retired transaction carcasses recycled by
    /// `ensure_running` (see [`Txn::reset`]). Bounded by the maximum
    /// number of concurrently live transactions, which the journal-space
    /// accounting already caps.
    pub(crate) txn_pool: Vec<Txn>,
    /// Scratch for the file-id walks of freeze/release (commit path runs
    /// once per transaction; collecting into a fresh `Vec` each time is
    /// pure allocator churn).
    pub(crate) scratch_files: Vec<FileId>,
    /// Scratch for checkpoint write lists (same lifecycle).
    pub(crate) scratch_writes: Vec<(Lba, BlockTag)>,
    /// When capture tracking is armed, absolute positions of records
    /// whose `durability_claimed` flag flipped since the last drain — the
    /// only in-place mutation the otherwise append-only record history
    /// sees, so it is the only part a delta capture cannot read from the
    /// tail.
    pub(crate) durable_mark_log: Option<Vec<usize>>,
}

impl Filesystem {
    /// How many files can ever be created: the metadata region holds one
    /// inode block per file, and neither is reused after an unlink.
    pub const MAX_FILES: u64 = 65_536;

    /// Creates a filesystem with the given configuration.
    pub fn new(cfg: FsConfig) -> Filesystem {
        cfg.validate();
        let layout = Layout::new(Filesystem::MAX_FILES, cfg.journal_blocks);
        let records = RecordHistory::new(layout.journal_start());
        Filesystem {
            layout,
            files: FileTable::new(),
            txns: SeqTable::new(),
            running: None,
            committing: Vec::new(),
            next_txn: 1,
            conflicts: ConflictList::new(),
            commit_scheduled: false,
            syscalls: ThreadTable::default(),
            purposes: SeqTable::new(),
            next_req: 1,
            journal_used: 0,
            journal_stalled: false,
            flush_inflight: false,
            flush_again: false,
            records,
            stats: FsStats::default(),
            dirty_total: 0,
            dirty_threshold: 256,
            txn_pool: Vec::new(),
            scratch_files: Vec::new(),
            scratch_writes: Vec::new(),
            durable_mark_log: None,
            cfg,
        }
    }

    /// Does nothing: a write's payload is built here, moved down the stack
    /// and dropped by the device, so no buffer ever comes back. Stays only
    /// because `benchmark/src/probes.rs` — its one caller — may not be
    /// edited by a PR.
    pub fn restore_payload_buf(&mut self, _buf: Vec<BlockTag>) {}

    /// Arms the periodic background tasks (pdflush, OptFS flusher). Call
    /// once after construction.
    pub fn start(&mut self, out: &mut ActionSink<FsAction>) {
        out.push(FsAction::After(
            self.cfg.writeback_interval,
            FsEvent::Pdflush,
        ));
        if self.cfg.mode == FsMode::OptFs {
            out.push(FsAction::After(
                self.cfg.optfs_flush_interval,
                FsEvent::OptfsFlush,
            ));
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FsConfig {
        &self.cfg
    }

    /// Statistics.
    pub fn stats(&self) -> FsStats {
        self.stats
    }

    /// Starts a measured window: zeroes every counter but the drop counters.
    pub fn start_window(&mut self) {
        self.stats = FsStats {
            dropped_journal_events: self.stats.dropped_journal_events,
            dropped_data_pages: self.stats.dropped_data_pages,
            ..FsStats::default()
        };
    }

    /// Ground-truth transaction records for the crash checkers: the
    /// window a verdict can still read, oldest first. It starts at
    /// absolute position [`Filesystem::first_record`]; a record leaves it
    /// once it and every older record are uncheckable (a newer commit
    /// reused one of its journal blocks), so it holds about as many
    /// records as the journal holds commits.
    pub fn records(&self) -> &[TxnRecord] {
        self.records.window()
    }

    /// Absolute position of the first record in
    /// [`Filesystem::records`]: how many records have been retired.
    pub fn first_record(&self) -> usize {
        self.records.first()
    }

    /// Records ever appended, retired ones included: the absolute
    /// position the next record takes, and the commit count a crash point
    /// is aligned by.
    pub fn record_count(&self) -> usize {
        self.records.end()
    }

    /// The slot of a file this filesystem created, live or unlinked (for
    /// tests and diagnostics).
    pub fn file(&self, id: FileId) -> Option<&File> {
        self.files.slot(id)
    }

    /// Number of transactions currently in the committing list.
    pub fn committing_count(&self) -> usize {
        self.committing.len()
    }

    /// True when the journal can produce no further commit records without
    /// new syscall activity: nothing committing (every in-flight JD/JC
    /// belongs to a transaction frozen into `committing` first), no
    /// commit-thread run scheduled, no commit request pending on the
    /// running transaction (a drained committing list reschedules the run
    /// for it otherwise), and no dirty data pages left for writeback (the
    /// pdflush timer only ever submits data writes, never commits). Once
    /// every workload thread has finished, this condition is terminal —
    /// the crash engine uses it to stop stepping a drained trace instead
    /// of spinning the self-rearming timer to a stale-step limit.
    pub fn journal_quiescent(&self) -> bool {
        self.committing.is_empty()
            && !self.commit_scheduled
            && self.dirty_total == 0
            && self
                .running
                .and_then(|rt| self.txns.get(rt.0))
                .is_none_or(|t| !t.commit_requested)
    }

    /// Arms capture tracking: durable-mark flips on the record history are
    /// recorded from now on for [`Filesystem::drain_durable_marks`]. Off by
    /// default; the crash engine drains the log at every capture.
    pub fn enable_capture_tracking(&mut self) {
        if self.durable_mark_log.is_none() {
            self.durable_mark_log = Some(Vec::new());
        }
    }

    /// Drains the absolute positions of records whose
    /// `durability_claimed` flag flipped since the previous drain (nothing
    /// when tracking was never armed). The log keeps its buffer.
    pub fn drain_durable_marks(&mut self) -> impl Iterator<Item = usize> + '_ {
        self.durable_mark_log
            .iter_mut()
            .flat_map(|log| log.drain(..))
    }

    /// Creates a file. Past [`Filesystem::MAX_FILES`] creates the create
    /// is refused, counted in [`FsStats::dropped_journal_events`], and
    /// returns [`FileId::NONE`], which every later syscall drops.
    pub fn create(&mut self, _tid: ThreadId, _out: &mut ActionSink<FsAction>) -> FileId {
        let Some(id) = self.files.create(&mut self.layout) else {
            self.stats.dropped_journal_events += 1;
            return FileId::NONE;
        };
        let f = self.files.get(id);
        let (lba, tag) = (f.inode_lba, f.meta_tag);
        self.dirty_inode(id, lba, tag);
        id
    }

    /// Where a [`FileId`] enters: false, and counted, for a file this
    /// filesystem never created or has unlinked.
    fn known_file(&mut self, file: FileId) -> bool {
        let known = self.files.is_live(file);
        self.stats.dropped_journal_events += u64::from(!known);
        known
    }

    /// Deletes a file: its inode joins the running transaction, its
    /// storage (extents, written-back runs, dirty pages) is freed, and
    /// every later syscall naming it is dropped. Its data blocks and inode
    /// block are not reused.
    pub fn unlink(&mut self, _tid: ThreadId, file: FileId, _out: &mut ActionSink<FsAction>) {
        if !self.known_file(file) {
            return;
        }
        let dropped = self.files.unlink(file) as u64;
        self.dirty_total = self.dirty_total.saturating_sub(dropped);
        let tag = self.layout.next_tag();
        let f = self.files.get_mut(file);
        f.alloc_dirty = true;
        f.meta_tag = tag;
        let lba = f.inode_lba;
        self.dirty_inode(file, lba, tag);
    }

    #[inline]
    pub(crate) fn alloc_req(&mut self, purpose: Purpose) -> ReqId {
        let id = ReqId(self.next_req);
        self.next_req += 1;
        self.purposes.insert(id.0, purpose);
        id
    }

    /// Buffered write of `blocks` blocks at `offset`. Returns `Done`
    /// unless an EXT4 page conflict blocks the caller (§4.3).
    #[inline]
    pub fn write(
        &mut self,
        tid: ThreadId,
        file: FileId,
        offset: u64,
        blocks: u64,
        now: SimTime,
        out: &mut ActionSink<FsAction>,
    ) -> SyscallOutcome {
        if blocks == 0 || !self.known_file(file) {
            return SyscallOutcome::Done; // writes nothing, dirties nothing
        }
        let tick = now.as_nanos() / self.cfg.timer_tick.as_nanos().max(1);
        // Would this write change metadata?
        let needs_alloc = {
            let f = self.files.get(file);
            (offset..offset + blocks).any(|b| f.lba_of(b).is_none())
                || offset + blocks > f.size_blocks
        };
        let mtime_change = self.files.get(file).mtime_tick != tick;
        let meta_change = needs_alloc || mtime_change;

        // Page-conflict check: the inode buffer is held by a committing
        // transaction and we are about to re-dirty it.
        if meta_change {
            if let Some(holder) = self.committing_holder(file) {
                self.stats.page_conflicts += 1;
                if self.cfg.mode == FsMode::BarrierFs {
                    // Multi-transaction page conflict: record in the
                    // conflict-page list and proceed without blocking.
                    let inode = self.files.get(file).inode_lba;
                    self.conflicts.add(inode, file, holder);
                } else if let Some(t) = self.txns.get_mut(holder.0) {
                    // Legacy journaling: the writer blocks until the
                    // committing transaction releases the buffer.
                    t.conflict_waiters.push(tid);
                    self.syscalls.set(
                        tid,
                        SyscallState::AwaitConflict {
                            file,
                            offset,
                            blocks,
                        },
                    );
                    return SyscallOutcome::Blocked;
                }
            }
        }

        // Apply the write to the page cache.
        if needs_alloc {
            self.files
                .ensure_allocated(file, &mut self.layout, offset, blocks);
        }
        for b in offset..offset + blocks {
            let tag = self.layout.next_tag();
            if self.files.get_mut(file).dirty_data.insert(b, tag) {
                self.dirty_total += 1;
            }
        }
        if meta_change {
            let f = self.files.get_mut(file);
            f.alloc_dirty |= needs_alloc;
            f.mtime_dirty |= mtime_change;
            f.mtime_tick = tick;
            let tag = self.layout.next_tag();
            let f = self.files.get_mut(file);
            f.meta_tag = tag;
            let lba = f.inode_lba;
            // Conflicted BarrierFS inodes join the running transaction
            // later, at conflict resolution.
            if !self.conflicts.contains(lba) {
                self.dirty_inode(file, lba, tag);
            }
        }
        // Dirty-ratio behaviour: past the threshold, writes kick the
        // writeback daemon inline so buffered workloads reach the device.
        if self.dirty_total > self.dirty_threshold {
            self.pdflush(out);
        }
        SyscallOutcome::Done
    }

    /// The committing (non-released) transaction currently holding this
    /// file's inode buffer, if any.
    fn committing_holder(&self, file: FileId) -> Option<TxnId> {
        let t = self.files.get(file).txn?;
        let txn = self.txns.get(t.0)?;
        match txn.state {
            TxnState::Running => None,
            _ if self.committing.contains(&t) => Some(t),
            _ => None,
        }
    }

    /// Inserts the inode buffer into the running transaction.
    #[inline]
    pub(crate) fn dirty_inode(&mut self, file: FileId, inode_lba: Lba, tag: BlockTag) {
        let rt = self.ensure_running();
        if let Some(t) = self.txns.get_mut(rt.0) {
            t.add_buffer(inode_lba, file, tag);
        }
        self.files.get_mut(file).txn = Some(rt);
    }

    #[inline]
    pub(crate) fn ensure_running(&mut self) -> TxnId {
        if let Some(rt) = self.running {
            return rt;
        }
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        let txn = match self.txn_pool.pop() {
            Some(mut t) => {
                t.reset(id);
                t
            }
            None => Txn::new(id),
        };
        self.txns.insert(id.0, txn);
        self.running = Some(id);
        id
    }

    // ------------------------------------------------------------------
    // Data submission helpers.
    // ------------------------------------------------------------------

    /// The LBA a page leaving the page cache is written to; marks the block
    /// written back. A dirty page is always backed by an extent, so this
    /// resolves on every real path; a page without one would mean corrupted
    /// tracking state, and every write-out path drops it with a counter
    /// rather than aborting the simulation (totality: docs/INVARIANTS.md).
    #[inline]
    pub(crate) fn page_lba(&mut self, file: FileId, block: u64) -> Option<Lba> {
        let f = self.files.get_mut(file);
        let Some(lba) = f.lba_of(block) else {
            self.stats.dropped_data_pages += 1;
            return None;
        };
        f.committed_blocks.insert(block);
        Some(lba)
    }

    /// Moves up to `n` of the file's dirty pages, lowest block first, into
    /// `writes` as `(lba, tag)`. Returns how many pages left the cache.
    #[inline]
    fn take_dirty_pages(
        &mut self,
        file: FileId,
        n: usize,
        writes: &mut Vec<(Lba, BlockTag)>,
    ) -> usize {
        // The tracker is lifted out of the file while its pages resolve
        // through `self`, then put back so its buffer is reused.
        let mut dirty = std::mem::take(&mut self.files.get_mut(file).dirty_data);
        let before = dirty.len();
        for (block, tag) in dirty.take(n) {
            if let Some(lba) = self.page_lba(file, block) {
                writes.push((lba, tag));
            }
        }
        let taken = before - dirty.len();
        self.files.get_mut(file).dirty_data = dirty;
        self.dirty_total = self.dirty_total.saturating_sub(taken as u64);
        taken
    }

    /// Submits the file's dirty pages as write requests — the "D" of Eq.
    /// 2/3 — and records them as ordered data of the running transaction.
    /// One pass over one reused buffer (a sync drains one or two blocks on
    /// the paper's workloads): resolve each page, sort by LBA, emit one
    /// request per maximal LBA-adjacent chunk, the barrier on the last.
    /// Returns the request ids it allocated, which are consecutive.
    #[inline]
    pub(crate) fn submit_dirty_data(
        &mut self,
        tid: ThreadId,
        file: FileId,
        flags: ReqFlags,
        barrier_on_last: bool,
        out: &mut ActionSink<FsAction>,
    ) -> Range<u64> {
        let mut writes = std::mem::take(&mut self.scratch_writes);
        self.take_dirty_pages(file, usize::MAX, &mut writes);
        // Extents need not be monotone in LBA, so file order is not LBA
        // order. Distinct blocks have distinct LBAs: the order is total.
        writes.sort_unstable_by_key(|&(lba, _)| lba);
        let first = self.next_req;
        let mut chunks = writes.chunk_by(|a, b| a.0.offset(1) == b.0).peekable();
        while let Some(chunk) = chunks.next() {
            let Some(&(start, _)) = chunk.first() else {
                continue;
            };
            let rid = self.alloc_req(Purpose::Data(tid));
            self.stats.data_blocks += chunk.len() as u64;
            let mut f = flags;
            if barrier_on_last && chunks.peek().is_none() {
                f.barrier = true;
                f.ordered = true;
            }
            let tags = chunk.iter().map(|&(_, tag)| tag).collect();
            out.push(FsAction::Submit(BlockRequest::write(rid, start, tags, f)));
        }
        self.note_ordered_data(&writes);
        writes.clear();
        self.scratch_writes = writes;
        first..self.next_req
    }

    // ------------------------------------------------------------------
    // Synchronisation syscalls.
    // ------------------------------------------------------------------

    /// `fsync(fd)`: durability + ordering.
    #[inline]
    pub fn fsync(
        &mut self,
        tid: ThreadId,
        file: FileId,
        _now: SimTime,
        out: &mut ActionSink<FsAction>,
    ) -> SyscallOutcome {
        if !self.known_file(file) {
            return SyscallOutcome::Done;
        }
        self.sync_common(tid, file, false, out)
    }

    /// `fdatasync(fd)`: like `fsync` but skips timestamp-only metadata.
    pub fn fdatasync(
        &mut self,
        tid: ThreadId,
        file: FileId,
        _now: SimTime,
        out: &mut ActionSink<FsAction>,
    ) -> SyscallOutcome {
        if !self.known_file(file) {
            return SyscallOutcome::Done;
        }
        self.sync_common(tid, file, true, out)
    }

    #[inline]
    fn sync_common(
        &mut self,
        tid: ThreadId,
        file: FileId,
        datasync: bool,
        out: &mut ActionSink<FsAction>,
    ) -> SyscallOutcome {
        match self.cfg.mode {
            FsMode::Ext4 | FsMode::Ext4NoBarrier => self.ext4_sync(tid, file, datasync, out),
            FsMode::BarrierFs => self.bfs_sync(tid, file, datasync, out),
            FsMode::OptFs => self.optfs_osync(tid, file, true, out),
        }
    }

    /// `fbarrier(fd)`: ordering-only counterpart of `fsync` (§4.1).
    /// Only meaningful on BarrierFS; on OptFS it maps to `osync`.
    #[inline]
    pub fn fbarrier(
        &mut self,
        tid: ThreadId,
        file: FileId,
        _now: SimTime,
        out: &mut ActionSink<FsAction>,
    ) -> SyscallOutcome {
        if !self.known_file(file) {
            return SyscallOutcome::Done;
        }
        match self.cfg.mode {
            FsMode::BarrierFs => self.bfs_barrier(tid, file, false, out),
            FsMode::OptFs => self.optfs_osync(tid, file, false, out),
            // Without barrier support the closest legal semantics is fsync.
            _ => self.sync_common(tid, file, false, out),
        }
    }

    /// `fdatabarrier(fd)`: ordering-only counterpart of `fdatasync`; the
    /// storage mfence (§4.1). Returns without blocking on BarrierFS.
    #[inline]
    pub fn fdatabarrier(
        &mut self,
        tid: ThreadId,
        file: FileId,
        _now: SimTime,
        out: &mut ActionSink<FsAction>,
    ) -> SyscallOutcome {
        if !self.known_file(file) {
            return SyscallOutcome::Done;
        }
        match self.cfg.mode {
            FsMode::BarrierFs => self.bfs_barrier(tid, file, true, out),
            FsMode::OptFs => self.optfs_osync(tid, file, false, out),
            _ => self.sync_common(tid, file, true, out),
        }
    }

    // --- EXT4 family -----------------------------------------------------

    #[inline]
    fn ext4_sync(
        &mut self,
        tid: ThreadId,
        file: FileId,
        datasync: bool,
        out: &mut ActionSink<FsAction>,
    ) -> SyscallOutcome {
        let has_dirty = !self.files.get(file).dirty_data.is_empty();
        if has_dirty {
            let reqs = self.submit_dirty_data(tid, file, ReqFlags::NONE, false, out);
            self.await_data(tid, file, reqs, AfterData::Ext4Phase2 { datasync });
            SyscallOutcome::Blocked
        } else {
            self.ext4_phase2(tid, file, datasync, out)
        }
    }

    /// Phase 2 of an EXT4 fsync: after data is transferred, commit the
    /// journal (metadata dirty) or flush the device cache (degenerate).
    fn ext4_phase2(
        &mut self,
        tid: ThreadId,
        file: FileId,
        datasync: bool,
        out: &mut ActionSink<FsAction>,
    ) -> SyscallOutcome {
        // Wait on an in-flight commit holding this inode.
        if let Some(holder) = self.committing_holder(file) {
            if let Some(t) = self.txns.get_mut(holder.0) {
                t.durable_waiters.push(tid);
                return SyscallOutcome::Blocked;
            }
        }
        if self.files.get(file).metadata_dirty(datasync) {
            let rt = self.ensure_running();
            // The inode is in the running transaction (dirtied at write).
            if let Some(t) = self.txns.get_mut(rt.0) {
                t.durable_waiters.push(tid);
            }
            self.trigger_commit(rt, out);
            return SyscallOutcome::Blocked;
        }
        // Degenerate (fdatasync-equivalent) path.
        if self.cfg.mode == FsMode::Ext4NoBarrier {
            // nobarrier: no flush — return right away.
            return SyscallOutcome::Done;
        }
        let rid = self.alloc_req(Purpose::ThreadFlush(tid));
        self.stats.flushes += 1;
        out.push(FsAction::Submit(BlockRequest::flush(rid)));
        self.syscalls.set(tid, SyscallState::AwaitFlush);
        SyscallOutcome::Blocked
    }

    // --- BarrierFS --------------------------------------------------------

    #[inline]
    fn bfs_sync(
        &mut self,
        tid: ThreadId,
        file: FileId,
        datasync: bool,
        out: &mut ActionSink<FsAction>,
    ) -> SyscallOutcome {
        let has_dirty = !self.files.get(file).dirty_data.is_empty();
        let meta_dirty = self.files.get(file).metadata_dirty(datasync);
        let committing_holder = self.committing_holder(file);

        if meta_dirty && committing_holder.is_none() || self.conflicts_pending_for(file) {
            // Full path: D (ordered), then dual-mode journal commit; the
            // caller sleeps once, woken by the flush thread.
            if has_dirty {
                self.submit_dirty_data(tid, file, ReqFlags::ORDERED, false, out);
            }
            let rt = self.ensure_running();
            if let Some(t) = self.txns.get_mut(rt.0) {
                t.durable_waiters.push(tid);
            }
            self.trigger_commit(rt, out);
            return SyscallOutcome::Blocked;
        }
        if let Some(holder) = committing_holder {
            // Metadata already committing: wait for that transaction's
            // durability (requesting a flush if it was ordering-only).
            if has_dirty {
                self.submit_dirty_data(tid, file, ReqFlags::ORDERED, true, out);
            }
            return self.await_txn_durable(tid, holder, out);
        }
        if has_dirty {
            // Degenerate path: D is its own epoch (barrier on the last
            // request), wait for transfer, then flush. Two sleeps.
            let reqs = self.submit_dirty_data(tid, file, ReqFlags::ORDERED, true, out);
            self.await_data(tid, file, reqs, AfterData::FlushThenWake);
            return SyscallOutcome::Blocked;
        }
        // Nothing dirty at all: force a journal commit to delimit an epoch
        // and provide durability (§4.2).
        let rt = self.ensure_running();
        if let Some(t) = self.txns.get_mut(rt.0) {
            t.durable_waiters.push(tid);
        }
        self.stats.forced_commits += 1;
        self.trigger_commit(rt, out);
        SyscallOutcome::Blocked
    }

    /// Are there unresolved conflict entries whose resolution will land in
    /// the running transaction this file cares about?
    fn conflicts_pending_for(&self, file: FileId) -> bool {
        self.conflicts.contains(self.files.get(file).inode_lba)
    }

    #[inline]
    fn bfs_barrier(
        &mut self,
        tid: ThreadId,
        file: FileId,
        datasync: bool,
        out: &mut ActionSink<FsAction>,
    ) -> SyscallOutcome {
        let has_dirty = !self.files.get(file).dirty_data.is_empty();
        let meta_dirty = !datasync && self.files.get(file).metadata_dirty(false);
        if !datasync && (meta_dirty || self.conflicts_pending_for(file)) {
            // fbarrier full path: D ordered; wait for the commit thread to
            // dispatch JC (one sleep).
            if has_dirty {
                self.submit_dirty_data(tid, file, ReqFlags::ORDERED, false, out);
            }
            let rt = self.ensure_running();
            if let Some(t) = self.txns.get_mut(rt.0) {
                t.dispatch_waiters.push(tid);
            }
            self.trigger_commit(rt, out);
            return SyscallOutcome::Blocked;
        }
        if has_dirty {
            // fdatabarrier / degenerate fbarrier: dispatch D as an epoch of
            // its own and return immediately — the storage mfence.
            self.submit_dirty_data(tid, file, ReqFlags::ORDERED, true, out);
            return SyscallOutcome::Done;
        }
        // Nothing dirty: force an (asynchronous) commit to delimit the
        // epoch; do not wait.
        let rt = self.ensure_running();
        self.stats.forced_commits += 1;
        self.trigger_commit(rt, out);
        SyscallOutcome::Done
    }

    /// Registers `tid` as a durability waiter of `txn`, arranging a flush
    /// if the transaction is past the point where one would happen.
    /// Returns `Blocked` (a `Wake` will follow) in the normal case.
    ///
    /// A transaction that raced to retirement (or durability) between the
    /// caller's check and this registration returns `Done` instead: the
    /// condition the caller wanted to wait for already holds, so the
    /// syscall completes without sleeping — emitting a mid-syscall `Wake`
    /// here would reach the embedding stack before it has marked the
    /// thread as in-syscall, and leaving the waiter registered on a
    /// retired transaction would strand the thread forever.
    pub(crate) fn await_txn_durable(
        &mut self,
        tid: ThreadId,
        txn: TxnId,
        out: &mut ActionSink<FsAction>,
    ) -> SyscallOutcome {
        match self.txns.get_mut(txn.0) {
            Some(t) if t.state < TxnState::Durable => {
                let state = t.state;
                t.durable_waiters.push(tid);
                if state == TxnState::Transferred {
                    self.request_txn_flush(out);
                }
                SyscallOutcome::Blocked
            }
            _ => SyscallOutcome::Done,
        }
    }

    /// Records data pages that must precede the next commit (ordered-mode
    /// data dependency, tracked for the crash checker).
    pub(crate) fn note_ordered_data(&mut self, pairs: &[(Lba, BlockTag)]) {
        if pairs.is_empty() {
            return;
        }
        let rt = self.ensure_running();
        if let Some(t) = self.txns.get_mut(rt.0) {
            t.ordered_data.extend_from_slice(pairs);
        }
    }

    /// Adjusts the global dirty-page counter after a bulk removal.
    pub(crate) fn note_dirty_drop(&mut self, n: u64) {
        self.dirty_total = self.dirty_total.saturating_sub(n);
    }

    /// Blocks `tid` until every request of `reqs` — the consecutive ids of
    /// the data writes this call just submitted — has completed.
    pub(crate) fn await_data(
        &mut self,
        tid: ThreadId,
        file: FileId,
        reqs: Range<u64>,
        then: AfterData,
    ) {
        let left = reqs.end - reqs.start;
        self.syscalls.set(
            tid,
            SyscallState::AwaitData {
                reqs,
                left,
                file,
                then,
            },
        );
    }

    // ------------------------------------------------------------------
    // Reads.
    // ------------------------------------------------------------------

    /// Reads `blocks` blocks at `offset`. Served from the page cache when
    /// possible (no sleep); otherwise one device read (one sleep).
    pub fn read(
        &mut self,
        tid: ThreadId,
        file: FileId,
        offset: u64,
        blocks: u64,
        out: &mut ActionSink<FsAction>,
    ) -> SyscallOutcome {
        if !self.known_file(file) {
            return SyscallOutcome::Done;
        }
        let f = self.files.get(file);
        let cached = (offset..offset + blocks)
            .all(|b| f.dirty_data.contains(b) || f.committed_blocks.contains(b));
        if cached {
            return SyscallOutcome::Done;
        }
        let Some(start) = f.lba_of(offset) else {
            return SyscallOutcome::Done; // hole: zeros, no IO
        };
        let rid = self.alloc_req(Purpose::Read(tid));
        out.push(FsAction::Submit(BlockRequest::read(rid, start, blocks)));
        self.syscalls.set(tid, SyscallState::AwaitRead);
        SyscallOutcome::Blocked
    }

    // ------------------------------------------------------------------
    // Event handling.
    // ------------------------------------------------------------------

    /// Processes an event previously emitted via [`FsAction::After`] or a
    /// request completion routed from the block layer.
    #[inline]
    pub fn handle(&mut self, ev: FsEvent, now: SimTime, out: &mut ActionSink<FsAction>) {
        match ev {
            FsEvent::ReqDone(rid) => self.on_req_done(rid, now, out),
            FsEvent::Step(tid) => self.on_step(tid, out),
            FsEvent::CommitRun => self.on_commit_run(out),
            FsEvent::Pdflush => {
                self.pdflush(out);
                out.push(FsAction::After(
                    self.cfg.writeback_interval,
                    FsEvent::Pdflush,
                ));
            }
            FsEvent::OptfsFlush => {
                self.optfs_periodic_flush(out);
                out.push(FsAction::After(
                    self.cfg.optfs_flush_interval,
                    FsEvent::OptfsFlush,
                ));
            }
        }
    }

    #[inline]
    fn on_req_done(&mut self, rid: ReqId, now: SimTime, out: &mut ActionSink<FsAction>) {
        // A completion for a request with no continuation entry is a
        // duplicate (the device replayed an interrupt) or a forgery; both
        // are drivable from outside the filesystem, so drop them here
        // rather than unwrapping. The purposes window-base check ensures a
        // stale ReqId can never alias a newer live request.
        let Some(purpose) = self.purposes.remove(rid.0) else {
            return;
        };
        match purpose {
            Purpose::Data(tid) => self.on_data_done(tid, rid, out),
            Purpose::Jd(txn) => self.on_jd_done(txn, out),
            Purpose::Jc(txn) => self.on_jc_done(txn, now, out),
            Purpose::ThreadFlush(tid) => {
                let st = self.syscalls.take(tid);
                debug_assert!(matches!(st, Some(SyscallState::AwaitFlush)));
                out.push(FsAction::CtxSwitch(tid));
                out.push(FsAction::Wake(tid));
            }
            Purpose::TxnFlush { upto } => self.on_txn_flush_done(upto, now, out),
            Purpose::Checkpoint(txn) => self.on_checkpoint_done(txn, out),
            Purpose::Writeback => {}
            Purpose::Read(tid) => {
                let st = self.syscalls.take(tid);
                debug_assert!(matches!(st, Some(SyscallState::AwaitRead)));
                out.push(FsAction::CtxSwitch(tid));
                out.push(FsAction::Wake(tid));
            }
        }
    }

    fn on_data_done(&mut self, tid: ThreadId, rid: ReqId, out: &mut ActionSink<FsAction>) {
        let Some(SyscallState::AwaitData {
            reqs,
            left,
            file,
            then,
        }) = self.syscalls.get_mut(tid)
        else {
            // A data write submitted by a call that has since completed
            // (e.g. fdatabarrier); nothing to continue.
            return;
        };
        // Nor does such a write count towards a later call of the same
        // thread that is waiting on its own.
        if !reqs.contains(&rid.0) {
            return;
        }
        *left = left.saturating_sub(1);
        if *left > 0 {
            return;
        }
        let (file, then) = (*file, *then);
        // All data transferred: the caller wakes (context switch) and
        // continues after the scheduling delay.
        self.syscalls
            .set(tid, SyscallState::Stepping { file, then });
        out.push(FsAction::CtxSwitch(tid));
        out.push(FsAction::After(self.cfg.ctx_switch, FsEvent::Step(tid)));
    }

    fn on_step(&mut self, tid: ThreadId, out: &mut ActionSink<FsAction>) {
        let Some(SyscallState::Stepping { file, then }) = self.syscalls.get(tid).cloned() else {
            return;
        };
        self.syscalls.take(tid);
        match then {
            AfterData::Ext4Phase2 { datasync } => {
                if self.ext4_phase2(tid, file, datasync, out) == SyscallOutcome::Done {
                    out.push(FsAction::Wake(tid));
                }
            }
            AfterData::FlushThenWake => {
                let rid = self.alloc_req(Purpose::ThreadFlush(tid));
                self.stats.flushes += 1;
                out.push(FsAction::Submit(BlockRequest::flush(rid)));
                self.syscalls.set(tid, SyscallState::AwaitFlush);
            }
            AfterData::OptfsScan { durable } => {
                let _ = self.optfs_commit_and_wait(tid, durable, out);
            }
        }
    }

    /// Re-runs a write blocked on an EXT4 page conflict.
    pub(crate) fn retry_conflicted_write(
        &mut self,
        tid: ThreadId,
        now: SimTime,
        out: &mut ActionSink<FsAction>,
    ) {
        let Some(SyscallState::AwaitConflict {
            file,
            offset,
            blocks,
        }) = self.syscalls.get(tid).cloned()
        else {
            return;
        };
        self.syscalls.take(tid);
        match self.write(tid, file, offset, blocks, now, out) {
            SyscallOutcome::Done => {
                out.push(FsAction::CtxSwitch(tid));
                out.push(FsAction::Wake(tid));
            }
            SyscallOutcome::Blocked => { /* conflicted again; stays blocked */ }
        }
    }

    /// Background writeback: submits orderless writes for dirty pages.
    fn pdflush(&mut self, out: &mut ActionSink<FsAction>) {
        let mut budget = self.cfg.writeback_batch;
        let mut writes = std::mem::take(&mut self.scratch_writes);
        // Ascending id order, by index: the table only grows, and nothing
        // below adds or removes a slot.
        for i in 0..self.files.len() {
            if budget == 0 {
                break;
            }
            let id = FileId(i as u32);
            let f = self.files.get(id);
            if !f.live || f.dirty_data.is_empty() {
                continue;
            }
            // Writing back data pages does not commit metadata; take up to
            // `budget` pages, lowest block first.
            budget -= self.take_dirty_pages(id, budget, &mut writes);
            for (lba, tag) in writes.drain(..) {
                let rid = self.alloc_req(Purpose::Writeback);
                self.stats.writeback_blocks += 1;
                out.push(FsAction::Submit(BlockRequest::write(
                    rid,
                    lba,
                    vec![tag],
                    ReqFlags::NONE,
                )));
            }
        }
        self.scratch_writes = writes;
    }
}
