//! Journal transactions and their lifecycle.
//!
//! ```text
//! Running ──commit──▶ Committing ──JC transferred──▶ Transferred
//!                                                        │ flush
//!                                                        ▼
//!                        Checkpointed ◀──in-place──── Durable
//! ```
//!
//! EXT4 has at most one `Committing` transaction; BarrierFS keeps a whole
//! *committing transaction list* in flight (§4.2) — that difference is the
//! throughput story of Fig 8/13.

use bio_flash::{BlockTag, Lba};

use crate::file::FileId;
use crate::layout::TagRun;

/// Transaction identifier; ordering equals commit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

/// Lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TxnState {
    /// Accepting buffers.
    Running,
    /// JD/JC dispatched (or dispatching); in the committing list.
    Committing,
    /// JC transfer completed: storage order fixed, durability pending.
    Transferred,
    /// Flushed to the storage surface.
    Durable,
    /// Metadata written home; journal space reclaimable.
    Checkpointed,
}

/// A simulated thread identifier (application threads, not kernel ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

/// One journal transaction.
#[derive(Debug, Clone)]
pub struct Txn {
    /// Identifier (= commit order).
    pub id: TxnId,
    /// State.
    pub state: TxnState,
    /// Metadata buffers: inode home LBA → (file, frozen content tag).
    /// Tags are frozen at commit time. Insertion order (= first-dirtied
    /// order) is what the journal descriptor emits; mutate only through
    /// [`Txn::add_buffer`], which maintains the sorted dedup index.
    pub buffers: Vec<(Lba, FileId, BlockTag)>,
    /// Sorted `(lba, index into buffers)` pairs: the dedup lookup of
    /// [`Txn::add_buffer`] is an O(log n) binary search instead of an
    /// O(n) equality scan, while `buffers` keeps its order-preserving
    /// layout. Fresh-LBA inserts still shift the sorted index (a plain
    /// memmove of `(u64, u32)` pairs — far cheaper per element than the
    /// scan's compare-per-entry, but not asymptotically better; a B-tree
    /// would be the next step if transactions ever reach ~10^5 buffers).
    ///
    /// Kept because the traffic justifies it, measured at commit on the six
    /// benchmark workloads: a transaction holds 1.0–4.0 buffers on average
    /// (8 at most) on five of them, where a linear scan would do, but 206
    /// on average and 256 at most on `mq_dwsl`, where a scan per
    /// `add_buffer` would cost ~32k compares per commit.
    buffer_index: Vec<(Lba, u32)>,
    /// OptFS selective data journaling: data home LBA → journaled tag.
    pub data_journal: Vec<(Lba, BlockTag)>,
    /// Data writes that must persist before this commit (ordered mode).
    pub ordered_data: Vec<(Lba, BlockTag)>,
    /// Journal placement (set when the commit is dispatched).
    pub jd_lba: Option<Lba>,
    /// Descriptor + log block tags.
    pub jd_tags: TagRun,
    /// Commit block placement.
    pub jc_lba: Option<Lba>,
    /// Commit block tag.
    pub jc_tag: Option<BlockTag>,
    /// Threads waiting for durability (fsync).
    pub durable_waiters: Vec<ThreadId>,
    /// Threads waiting for the commit dispatch (fbarrier).
    pub dispatch_waiters: Vec<ThreadId>,
    /// Threads waiting for the JC transfer (OptFS `osync`).
    pub transfer_waiters: Vec<ThreadId>,
    /// EXT4 writers blocked on a page conflict with this transaction;
    /// retried when the transaction releases its buffers.
    pub conflict_waiters: Vec<ThreadId>,
    /// A commit has been requested (fsync/fbarrier arrived or the commit
    /// timer fired).
    pub commit_requested: bool,
    /// Whether any completed syscall claimed durability of this
    /// transaction to its caller (used by the crash checker).
    pub durability_claimed: bool,
    /// Outstanding checkpoint (in-place metadata) writes; 0 when no
    /// checkpoint is in flight.
    pub checkpoints_left: usize,
    /// Absolute position of the transaction's ground-truth record in the
    /// filesystem's record history, once its commit is recorded.
    pub record: Option<usize>,
}

impl Txn {
    /// Creates an empty running transaction.
    pub fn new(id: TxnId) -> Txn {
        Txn {
            id,
            state: TxnState::Running,
            buffers: Vec::new(),
            buffer_index: Vec::new(),
            data_journal: Vec::new(),
            ordered_data: Vec::new(),
            jd_lba: None,
            jd_tags: TagRun::default(),
            jc_lba: None,
            jc_tag: None,
            durable_waiters: Vec::new(),
            dispatch_waiters: Vec::new(),
            transfer_waiters: Vec::new(),
            conflict_waiters: Vec::new(),
            commit_requested: false,
            durability_claimed: false,
            checkpoints_left: 0,
            record: None,
        }
    }

    /// Resets a retired transaction carcass to the observable state of
    /// `Txn::new(id)`, keeping every vector's capacity. The commit path
    /// recycles transactions through the filesystem's free list, so a
    /// steady-state commit reuses the previous generation's buffers
    /// instead of allocating nine fresh vectors per transaction.
    pub fn reset(&mut self, id: TxnId) {
        self.id = id;
        self.state = TxnState::Running;
        self.buffers.clear();
        self.buffer_index.clear();
        self.data_journal.clear();
        self.ordered_data.clear();
        self.jd_lba = None;
        self.jd_tags = TagRun::default();
        self.jc_lba = None;
        self.jc_tag = None;
        self.durable_waiters.clear();
        self.dispatch_waiters.clear();
        self.transfer_waiters.clear();
        self.conflict_waiters.clear();
        self.commit_requested = false;
        self.durability_claimed = false;
        self.checkpoints_left = 0;
        self.record = None;
    }

    /// Adds or refreshes a metadata buffer. Dedup is a binary search on
    /// the sorted side index; a fresh buffer appends (insertion order is
    /// what the commit path emits) and registers its position.
    pub fn add_buffer(&mut self, lba: Lba, file: FileId, tag: BlockTag) {
        debug_assert_eq!(self.state, TxnState::Running, "buffer into non-running txn");
        match self.buffer_index.binary_search_by_key(&lba, |&(l, _)| l) {
            Ok(i) => {
                let pos = self.buffer_index.get(i).map(|&(_, pos)| pos as usize);
                if let Some(buf) = pos.and_then(|pos| self.buffers.get_mut(pos)) {
                    buf.2 = tag;
                }
            }
            Err(i) => {
                let pos = self.buffers.len() as u32;
                self.buffers.push((lba, file, tag));
                self.buffer_index.insert(i, (lba, pos));
            }
        }
    }

    /// True when the transaction has nothing to commit.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty() && self.data_journal.is_empty()
    }

    /// Journal blocks this transaction occupies: descriptor + one log per
    /// metadata buffer + data-journal pages + commit block.
    pub fn journal_blocks(&self) -> u64 {
        1 + self.buffers.len() as u64 + self.data_journal.len() as u64 + 1
    }
}

/// The conflict-page list of §4.3: metadata buffers a writer dirtied while
/// their inode was held by a committing transaction.
#[derive(Debug, Clone, Default)]
pub struct ConflictList {
    entries: Vec<ConflictEntry>,
}

/// One conflict entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictEntry {
    /// The inode buffer.
    pub lba: Lba,
    /// Its file.
    pub file: FileId,
    /// The committing transaction holding the buffer.
    pub holder: TxnId,
}

impl ConflictList {
    /// Creates an empty list.
    pub fn new() -> ConflictList {
        ConflictList::default()
    }

    /// True when the running transaction may commit (§4.3: "only when the
    /// conflict-page list is empty").
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of outstanding conflicts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Registers a conflict (idempotent per buffer).
    pub fn add(&mut self, lba: Lba, file: FileId, holder: TxnId) {
        if !self.entries.iter().any(|e| e.lba == lba) {
            self.entries.push(ConflictEntry { lba, file, holder });
        }
    }

    /// True if `lba` is currently conflicted.
    pub fn contains(&self, lba: Lba) -> bool {
        self.entries.iter().any(|e| e.lba == lba)
    }

    /// Removes and returns the conflicts resolved by `holder` completing.
    pub fn resolve(&mut self, holder: TxnId) -> Vec<ConflictEntry> {
        let (resolved, kept): (Vec<_>, Vec<_>) =
            self.entries.drain(..).partition(|e| e.holder == holder);
        self.entries = kept;
        resolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_buffer_dedup() {
        let mut t = Txn::new(TxnId(1));
        t.add_buffer(Lba(5), FileId(0), BlockTag(1));
        t.add_buffer(Lba(5), FileId(0), BlockTag(2));
        t.add_buffer(Lba(6), FileId(1), BlockTag(3));
        assert_eq!(t.buffers.len(), 2);
        assert_eq!(t.buffers[0].2, BlockTag(2), "refresh keeps latest tag");
    }

    #[test]
    fn add_buffer_dedup_scales_and_preserves_insertion_order() {
        let mut t = Txn::new(TxnId(1));
        // Interleaved high/low LBAs: the side index sorts, the buffer
        // list keeps first-dirtied order.
        let lba_of = |i: u64| if i % 2 == 0 { 1000 - i } else { i };
        for i in 0..500u64 {
            t.add_buffer(Lba(lba_of(i)), FileId(0), BlockTag(i));
        }
        assert_eq!(t.buffers.len(), 500);
        // Refresh every buffer in reverse order: no growth, latest tag
        // wins, positions unchanged.
        for i in (0..500u64).rev() {
            t.add_buffer(Lba(lba_of(i)), FileId(0), BlockTag(9000 + i));
        }
        assert_eq!(t.buffers.len(), 500);
        assert_eq!(t.buffers[0].0, Lba(1000), "insertion order preserved");
        assert_eq!(t.buffers[0].2, BlockTag(9000), "refresh keeps latest tag");
        assert_eq!(t.buffers[1].0, Lba(1));
        assert_eq!(t.buffers[499].0, Lba(499));
    }

    #[test]
    fn reset_restores_fresh_txn_state() {
        let mut t = Txn::new(TxnId(1));
        t.add_buffer(Lba(5), FileId(0), BlockTag(1));
        t.data_journal.push((Lba(9), BlockTag(2)));
        t.ordered_data.push((Lba(10), BlockTag(3)));
        t.jd_lba = Some(Lba(20));
        t.jd_tags = TagRun {
            first: BlockTag(4),
            len: 1,
        };
        t.jc_lba = Some(Lba(21));
        t.jc_tag = Some(BlockTag(5));
        t.durable_waiters.push(ThreadId(1));
        t.dispatch_waiters.push(ThreadId(2));
        t.transfer_waiters.push(ThreadId(3));
        t.conflict_waiters.push(ThreadId(4));
        t.state = TxnState::Checkpointed;
        t.commit_requested = true;
        t.durability_claimed = true;
        t.checkpoints_left = 3;
        t.reset(TxnId(7));
        // Every observable field matches a freshly constructed txn.
        let fresh = Txn::new(TxnId(7));
        assert_eq!(format!("{t:?}"), format!("{fresh:?}"));
        // The dedup index was cleared along with the buffers.
        t.add_buffer(Lba(5), FileId(1), BlockTag(9));
        assert_eq!(t.buffers, vec![(Lba(5), FileId(1), BlockTag(9))]);
    }

    #[test]
    fn journal_block_accounting() {
        let mut t = Txn::new(TxnId(1));
        assert!(t.is_empty());
        assert_eq!(t.journal_blocks(), 2); // desc + commit even when empty
        t.add_buffer(Lba(1), FileId(0), BlockTag(1));
        t.data_journal.push((Lba(100), BlockTag(9)));
        assert_eq!(t.journal_blocks(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn state_order_matches_lifecycle() {
        assert!(TxnState::Running < TxnState::Committing);
        assert!(TxnState::Committing < TxnState::Transferred);
        assert!(TxnState::Transferred < TxnState::Durable);
        assert!(TxnState::Durable < TxnState::Checkpointed);
    }

    #[test]
    fn conflict_list_resolution() {
        let mut c = ConflictList::new();
        c.add(Lba(1), FileId(0), TxnId(1));
        c.add(Lba(1), FileId(0), TxnId(1)); // dedup
        c.add(Lba(2), FileId(1), TxnId(2));
        assert_eq!(c.len(), 2);
        assert!(c.contains(Lba(1)));
        let resolved = c.resolve(TxnId(1));
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].lba, Lba(1));
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
        assert!(c.resolve(TxnId(2)).len() == 1);
        assert!(c.is_empty());
    }
}
