//! RocksDB-style WAL + compaction workload (beyond the paper's five).
//!
//! Models an LSM storage engine's IO personality, the load the paper's
//! OLTP row only hints at: every put appends one record to the write-ahead
//! log and syncs it (`sync_wal` on commit), and in the background the
//! engine periodically flushes the memtable into an L0 SST file and — once
//! enough L0 files accumulate — compacts them into a merged L1 file
//! (read-heavy, large sequential writes, then a burst of unlinks).
//!
//! Ordering-only sync (`SyncMode::Fbarrier` / `Fdatabarrier`) is exactly
//! what an LSM tree's group commit wants: the WAL record must reach
//! storage *before* the commit is acknowledged relative to later state,
//! but each individual put does not need to wait on a flush. The WAL slot
//! is recycled in place after a memtable flush (log rotation with file
//! reuse), so on OptFS the recycled-log overwrites trigger selective data
//! journaling — the same effect that hurts OptFS on the paper's OLTP
//! workload (§6.5).
//!
//! Three phases: `open` (create the WAL), `put` (one iteration per put),
//! `shutdown` (flush the remaining memtable). All files are
//! thread-private slots, so each thread is an independent DB instance.

use barrier_io::{FileRef, Op, Workload};
use bio_sim::SimRng;

use crate::engine::{AppModel, OpScript, PhaseEngine, PhaseSpec};
use crate::SyncMode;

/// WAL slot index.
const WAL_SLOT: usize = 0;
/// First L0 SST slot; `L0_FANOUT` slots follow.
const L0_BASE: usize = 1;
/// L0 files merged per compaction.
const L0_FANOUT: usize = 4;
/// Merged (L1) SST slot.
const L1_SLOT: usize = L0_BASE + L0_FANOUT;

/// RocksDB-style put stream: WAL append + sync per put, memtable flushes
/// and L0→L1 compactions interleaved.
#[derive(Debug, Clone)]
pub struct RocksDbWal {
    engine: PhaseEngine<RocksModel>,
}

#[derive(Debug, Clone)]
struct RocksModel {
    sync: SyncMode,
    /// Puts per memtable flush.
    flush_every: u64,
    /// Blocks per L0 SST file.
    sst_blocks: u64,
    wal_head: u64,
    puts_since_flush: u64,
    flushes: u64,
    compactions: u64,
    phases: [PhaseSpec; 3],
}

impl RocksModel {
    /// Memtable flush: write one L0 SST, sync it, recycle the WAL.
    fn flush_memtable(&mut self, s: &mut OpScript) {
        let slot = L0_BASE + (self.flushes as usize % L0_FANOUT);
        s.create(slot);
        s.write(FileRef::Slot(slot), 0, self.sst_blocks);
        s.sync(self.sync, FileRef::Slot(slot));
        // Log rotation with file reuse: the next WAL record overwrites
        // the head of the recycled log file.
        self.wal_head = 0;
        self.puts_since_flush = 0;
        self.flushes += 1;
        if self.flushes % L0_FANOUT as u64 == 0 {
            self.compact(s);
        }
    }

    /// L0→L1 compaction: read every L0 file, write the merged SST, drop
    /// the inputs.
    fn compact(&mut self, s: &mut OpScript) {
        for i in 0..L0_FANOUT {
            s.read(FileRef::Slot(L0_BASE + i), 0, self.sst_blocks);
        }
        if self.compactions > 0 {
            // The merged level is rewritten whole; retire the old file.
            s.unlink(FileRef::Slot(L1_SLOT));
        }
        s.create(L1_SLOT);
        s.write(
            FileRef::Slot(L1_SLOT),
            0,
            self.sst_blocks * L0_FANOUT as u64,
        );
        s.sync(self.sync, FileRef::Slot(L1_SLOT));
        for i in 0..L0_FANOUT {
            s.unlink(FileRef::Slot(L0_BASE + i));
        }
        self.compactions += 1;
    }
}

impl AppModel for RocksModel {
    fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    fn build(&mut self, phase: usize, iter: u64, s: &mut OpScript, _rng: &mut SimRng) {
        match phase {
            0 => s.create(WAL_SLOT),
            1 => {
                // One put: WAL record append + commit sync.
                let off = self.wal_head;
                self.wal_head += 1;
                s.write(FileRef::Slot(WAL_SLOT), off, 1);
                s.sync(self.sync, FileRef::Slot(WAL_SLOT));
                s.txn_mark();
                self.puts_since_flush += 1;
                if (iter + 1) % self.flush_every == 0 {
                    self.flush_memtable(s);
                }
            }
            _ => {
                if self.puts_since_flush > 0 {
                    self.flush_memtable(s);
                }
            }
        }
    }
}

impl RocksDbWal {
    /// `puts` WAL-synced put operations; `sync` selects the experiment
    /// column (fsync/fdatasync for DR rows, fbarrier/fdatabarrier for OD
    /// rows).
    pub fn new(sync: SyncMode, puts: u64) -> RocksDbWal {
        RocksDbWal {
            engine: PhaseEngine::new(RocksModel {
                sync,
                flush_every: 24,
                sst_blocks: 16,
                wal_head: 0,
                puts_since_flush: 0,
                flushes: 0,
                compactions: 0,
                phases: [
                    PhaseSpec::once("open"),
                    PhaseSpec::iterations("put", puts),
                    PhaseSpec::once("shutdown"),
                ],
            }),
        }
    }

    /// Overrides the memtable flush interval (puts per L0 flush).
    pub fn with_flush_every(mut self, puts: u64) -> RocksDbWal {
        self.engine.model_mut().flush_every = puts.max(1);
        self
    }
}

impl Workload for RocksDbWal {
    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
        self.engine.next_op(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut w: RocksDbWal) -> Vec<Op> {
        let mut rng = SimRng::new(1);
        std::iter::from_fn(|| w.next_op(&mut rng)).collect()
    }

    #[test]
    fn every_put_syncs_the_wal() {
        let ops = drain(RocksDbWal::new(SyncMode::Fdatasync, 10).with_flush_every(100));
        let wal_syncs = ops
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Op::Fdatasync {
                        file: FileRef::Slot(0)
                    }
                )
            })
            .count();
        // 10 put syncs; the shutdown flush syncs the L0 SST, not the WAL.
        assert_eq!(wal_syncs, 10);
        assert_eq!(ops.iter().filter(|o| **o == Op::TxnMark).count(), 10);
        assert!(matches!(ops[0], Op::Create { slot: WAL_SLOT }));
    }

    #[test]
    fn memtable_flush_writes_an_l0_sst_and_recycles_the_wal() {
        let ops = drain(RocksDbWal::new(SyncMode::Fdatasync, 4).with_flush_every(2));
        // After the flush at put 2, the WAL head restarts at offset 0.
        let wal_offsets: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Write {
                    file: FileRef::Slot(0),
                    offset,
                    ..
                } => Some(*offset),
                _ => None,
            })
            .collect();
        assert_eq!(wal_offsets, vec![0, 1, 0, 1], "WAL recycled in place");
        // Each flush creates one L0 SST (16 blocks) in slots 1, 2.
        let sst_creates: Vec<usize> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Create { slot } if *slot >= L0_BASE => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(sst_creates, vec![1, 2]);
    }

    #[test]
    fn compaction_merges_l0_files_and_unlinks_them() {
        // 4 flushes trigger one compaction: flush_every=1, 4 puts.
        let ops = drain(RocksDbWal::new(SyncMode::Fbarrier, 4).with_flush_every(1));
        let reads = ops.iter().filter(|o| matches!(o, Op::Read { .. })).count();
        assert_eq!(reads, L0_FANOUT, "compaction reads every L0 input");
        let merged_writes: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Write {
                    file: FileRef::Slot(s),
                    blocks,
                    ..
                } if *s == L1_SLOT => Some(*blocks),
                _ => None,
            })
            .collect();
        assert_eq!(merged_writes, vec![16 * L0_FANOUT as u64]);
        let unlinks = ops
            .iter()
            .filter(|o| matches!(o, Op::Unlink { .. }))
            .count();
        assert_eq!(unlinks, L0_FANOUT, "every L0 input retired");
    }

    #[test]
    fn shutdown_flushes_the_partial_memtable() {
        let ops = drain(RocksDbWal::new(SyncMode::Fdatasync, 3).with_flush_every(100));
        // No flush during the run, so shutdown must write the L0 SST.
        let sst_writes = ops
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Op::Write {
                        file: FileRef::Slot(s),
                        ..
                    } if *s == L0_BASE
                )
            })
            .count();
        assert_eq!(sst_writes, 1);
    }

    #[test]
    fn ordering_mode_emits_no_durability_syncs() {
        let ops = drain(RocksDbWal::new(SyncMode::Fdatabarrier, 30));
        assert!(!ops
            .iter()
            .any(|o| matches!(o, Op::Fsync { .. } | Op::Fdatasync { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::Fdatabarrier { .. })));
    }
}
