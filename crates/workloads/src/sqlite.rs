//! SQLite insert-transaction model (Fig 14 and §5).
//!
//! In PERSIST journal mode a single insert transaction performs four
//! `fdatasync()` calls, three of which exist purely to control storage
//! order (undo-log vs journal header vs database node vs commit):
//!
//! ```text
//! write(journal, undo log)   ; fdatasync(journal)   // order  ┐
//! write(journal, header)     ; fdatasync(journal)   // order  ├ replaceable
//! write(db, updated node)    ; fdatasync(db)        // order  ┘ by fdatabarrier
//! write(db, header/commit)   ; fdatasync(db)        // durability
//! ```
//!
//! The paper's BFS-DR row replaces the first three with `fdatabarrier()`
//! and keeps the final `fdatasync()`; the BFS-OD row replaces all four.
//! In WAL mode a transaction appends to the write-ahead log and issues a
//! single `fdatasync` — little room for improvement, as Fig 14 shows.
//!
//! The journal file is overwritten in place every transaction (PERSIST
//! keeps the file), which on OptFS triggers selective data journaling —
//! the effect behind its poor SQLite/MySQL numbers in §6.5.

use barrier_io::{FileRef, Op, Workload};
use bio_sim::SimRng;

use crate::script::OpScript;
use crate::SyncMode;

/// Database pages an insert's updated node is drawn from.
const DB_BLOCKS: u64 = 2048;

/// SQLite journal modes used in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqliteJournalMode {
    /// Rollback journal, `journal_mode=PERSIST` (Android default).
    Persist,
    /// Write-ahead log.
    Wal,
}

/// SQLite insert workload over a shared database file.
///
/// One iteration per transaction: the four write+sync points of PERSIST
/// mode, or one WAL frame append + sync.
#[derive(Debug, Clone)]
pub struct Sqlite {
    mode: SqliteJournalMode,
    /// Sync used for the three ordering points.
    order_sync: SyncMode,
    /// Sync used for the final durability point.
    commit_sync: SyncMode,
    db: FileRef,
    journal: FileRef,
    inserts: u64,
    wal_head: u64,
    script: OpScript,
}

impl Sqlite {
    /// An insert workload: `inserts` transactions against `db` with
    /// `journal` as the rollback journal (PERSIST) or WAL file.
    ///
    /// `order_sync`/`commit_sync` select the experiment column:
    /// EXT4-DR = (`Fdatasync`, `Fdatasync`); BFS-DR = (`Fdatabarrier`,
    /// `Fdatasync`); BFS-OD = (`Fdatabarrier`, `Fdatabarrier`).
    pub fn new(
        mode: SqliteJournalMode,
        order_sync: SyncMode,
        commit_sync: SyncMode,
        db: FileRef,
        journal: FileRef,
        inserts: u64,
    ) -> Sqlite {
        Sqlite {
            mode,
            order_sync,
            commit_sync,
            db,
            journal,
            inserts,
            wal_head: 0,
            script: OpScript::default(),
        }
    }

    /// The paper's durability row (all four calls are `fdatasync`).
    pub fn durability(
        mode: SqliteJournalMode,
        db: FileRef,
        journal: FileRef,
        inserts: u64,
    ) -> Sqlite {
        let sync = SyncMode::Fdatasync;
        Sqlite::new(mode, sync, sync, db, journal, inserts)
    }

    /// BFS-DR: ordering points become `fdatabarrier`, commit stays
    /// `fdatasync` ("without compromising the durability of a
    /// transaction", §5).
    pub fn barrier_durability(
        mode: SqliteJournalMode,
        db: FileRef,
        journal: FileRef,
        inserts: u64,
    ) -> Sqlite {
        let (order, commit) = (SyncMode::Fdatabarrier, SyncMode::Fdatasync);
        Sqlite::new(mode, order, commit, db, journal, inserts)
    }

    /// Ordering-guarantee row (BFS-OD / OptFS): every call ordering-only.
    pub fn ordering(
        mode: SqliteJournalMode,
        db: FileRef,
        journal: FileRef,
        inserts: u64,
    ) -> Sqlite {
        let sync = SyncMode::Fdatabarrier;
        Sqlite::new(mode, sync, sync, db, journal, inserts)
    }
}

impl Workload for Sqlite {
    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
        self.script.next_op(self.inserts, |_, s| {
            // The target page is drawn before the mode split so PERSIST and
            // WAL runs consume the thread RNG identically per transaction.
            let db_page = rng.below(DB_BLOCKS);
            match self.mode {
                SqliteJournalMode::Persist => {
                    // Undo log: two pages at the start of the journal file
                    // (overwritten every transaction — PERSIST keeps the file).
                    s.write(self.journal, 1, 2);
                    s.sync(self.order_sync, self.journal);
                    // Journal header.
                    s.write(self.journal, 0, 1);
                    s.sync(self.order_sync, self.journal);
                    // Updated database node.
                    s.write(self.db, 1 + db_page, 1);
                    s.sync(self.order_sync, self.db);
                    // Database header / commit point: durability.
                    s.write(self.db, 0, 1);
                    s.sync(self.commit_sync, self.db);
                }
                SqliteJournalMode::Wal => {
                    // Append the frame (page + header) to the WAL and sync once.
                    let off = self.wal_head;
                    self.wal_head += 2;
                    s.write(self.journal, off, 2);
                    s.sync(self.commit_sync, self.journal);
                }
            }
            s.txn_mark();
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut w: Sqlite) -> Vec<Op> {
        let mut rng = SimRng::new(1);
        std::iter::from_fn(|| w.next_op(&mut rng)).collect()
    }

    #[test]
    fn persist_issues_four_syncs_per_insert() {
        let ops = drain(Sqlite::durability(
            SqliteJournalMode::Persist,
            FileRef::Global(0),
            FileRef::Global(1),
            3,
        ));
        let syncs = ops
            .iter()
            .filter(|o| matches!(o, Op::Fdatasync { .. }))
            .count();
        assert_eq!(syncs, 12, "4 fdatasync per insert (§5)");
        let marks = ops.iter().filter(|o| **o == Op::TxnMark).count();
        assert_eq!(marks, 3);
    }

    #[test]
    fn barrier_durability_keeps_one_fdatasync() {
        let ops = drain(Sqlite::barrier_durability(
            SqliteJournalMode::Persist,
            FileRef::Global(0),
            FileRef::Global(1),
            1,
        ));
        let barriers = ops
            .iter()
            .filter(|o| matches!(o, Op::Fdatabarrier { .. }))
            .count();
        let syncs = ops
            .iter()
            .filter(|o| matches!(o, Op::Fdatasync { .. }))
            .count();
        assert_eq!(barriers, 3, "three ordering points replaced");
        assert_eq!(syncs, 1, "commit point keeps durability");
    }

    #[test]
    fn ordering_replaces_everything() {
        let ops = drain(Sqlite::ordering(
            SqliteJournalMode::Persist,
            FileRef::Global(0),
            FileRef::Global(1),
            1,
        ));
        assert!(!ops.iter().any(|o| matches!(o, Op::Fdatasync { .. })));
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o, Op::Fdatabarrier { .. }))
                .count(),
            4
        );
    }

    #[test]
    fn wal_issues_one_sync_per_insert() {
        let ops = drain(Sqlite::durability(
            SqliteJournalMode::Wal,
            FileRef::Global(0),
            FileRef::Global(1),
            4,
        ));
        let syncs = ops
            .iter()
            .filter(|o| matches!(o, Op::Fdatasync { .. }))
            .count();
        assert_eq!(syncs, 4, "1 fdatasync per WAL commit");
        // WAL appends advance.
        let offsets: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Write { offset, .. } => Some(*offset),
                _ => None,
            })
            .collect();
        assert_eq!(offsets, vec![0, 2, 4, 6]);
    }

    #[test]
    fn persist_overwrites_journal_every_txn() {
        let ops = drain(Sqlite::durability(
            SqliteJournalMode::Persist,
            FileRef::Global(0),
            FileRef::Global(1),
            2,
        ));
        let journal_writes: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Write {
                    file: FileRef::Global(1),
                    offset,
                    ..
                } => Some(*offset),
                _ => None,
            })
            .collect();
        assert_eq!(journal_writes, vec![1, 0, 1, 0], "journal reused in place");
    }
}
