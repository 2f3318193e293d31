//! MySQL-style OLTP-insert (sysbench `oltp-insert`, Fig 15).
//!
//! Per committed transaction InnoDB (with default durability settings)
//! syncs the redo log and the binlog — "90% of IOs in the TPC-C workload
//! is created by fsync()" (§5). The redo log is a fixed-size circular
//! file, so once warm every log write *overwrites committed content*;
//! on OptFS that makes each `osync` journal the data pages (selective
//! data journaling), which is exactly why the paper measures OptFS at
//! roughly one-eighth of EXT4-OD here (§6.5).

use barrier_io::{FileRef, Op, Workload};
use bio_sim::{SimDuration, SimRng};

use crate::engine::{AppModel, OpScript, PhaseEngine, PhaseSpec};
use crate::SyncMode;

/// OLTP insert transactions against a shared table/redo/binlog trio.
///
/// One phase (`txn`), one iteration per transaction: redo-log record +
/// sync, binlog append + sync, and a burst of buffered dirty-page writes
/// every eighth transaction (background buffer-pool flushing).
#[derive(Debug, Clone)]
pub struct OltpInsert {
    engine: PhaseEngine<OltpModel>,
}

#[derive(Debug, Clone)]
struct OltpModel {
    sync: SyncMode,
    table: FileRef,
    redo: FileRef,
    binlog: FileRef,
    /// Circular redo-log size in blocks.
    redo_blocks: u64,
    redo_head: u64,
    binlog_head: u64,
    /// Circular binlog size in blocks (0 = append without bound).
    binlog_blocks: u64,
    /// Table size for background dirty-page writes.
    table_blocks: u64,
    think: Option<SimDuration>,
    phases: [PhaseSpec; 1],
}

impl AppModel for OltpModel {
    fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    fn build(&mut self, _phase: usize, iter: u64, s: &mut OpScript, rng: &mut SimRng) {
        // Redo log record: circular overwrite once warm.
        let redo_off = self.redo_head % self.redo_blocks;
        self.redo_head += 1;
        s.write(self.redo, redo_off, 1);
        s.sync(self.sync, self.redo);
        // Binlog append + sync (sync_binlog=1). With a rotation bound the
        // binlog becomes circular — modelling `expire_logs_days` purging
        // old logs so an arbitrarily long run stays inside the device.
        let off = match self.binlog_blocks {
            0 => self.binlog_head,
            n => self.binlog_head % n,
        };
        self.binlog_head += 1;
        s.write(self.binlog, off, 1);
        s.sync(self.sync, self.binlog);
        // Background buffer-pool flushing: a few dirty table pages every
        // eighth transaction, buffered (no sync).
        if (iter + 1) % 8 == 0 {
            for _ in 0..4 {
                s.write(self.table, rng.below(self.table_blocks), 1);
            }
        }
        s.txn_mark();
        if let Some(d) = self.think {
            s.think(d);
        }
    }
}

impl OltpInsert {
    /// `txns` insert transactions. `sync` selects the experiment column
    /// (fsync for DR rows, fbarrier for OD rows).
    pub fn new(
        sync: SyncMode,
        table: FileRef,
        redo: FileRef,
        binlog: FileRef,
        txns: u64,
    ) -> OltpInsert {
        OltpInsert {
            engine: PhaseEngine::new(OltpModel {
                sync,
                table,
                redo,
                binlog,
                redo_blocks: 256,
                redo_head: 0,
                binlog_head: 0,
                binlog_blocks: 0,
                table_blocks: 4096,
                think: None,
                phases: [PhaseSpec::iterations("txn", txns)],
            }),
        }
    }

    /// Overrides the circular redo-log size (blocks). Smaller logs wrap —
    /// and overwrite committed content — sooner.
    pub fn with_redo_blocks(mut self, blocks: u64) -> OltpInsert {
        self.engine.model_mut().redo_blocks = blocks.max(1);
        self
    }

    /// Bounds the binlog to `blocks`, wrapping circularly — the effect of
    /// binlog rotation plus `expire_logs_days` purging. Required for
    /// long simulated horizons, where an unbounded binlog would outgrow
    /// the device.
    pub fn with_binlog_blocks(mut self, blocks: u64) -> OltpInsert {
        self.engine.model_mut().binlog_blocks = blocks.max(1);
        self
    }

    /// Inserts a fixed think time after every transaction (a rate-bounded
    /// client pool instead of a zero-latency commit loop).
    pub fn with_think(mut self, think: SimDuration) -> OltpInsert {
        self.engine.model_mut().think = Some(think);
        self
    }
}

impl Workload for OltpInsert {
    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
        self.engine.next_op(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut w: OltpInsert) -> Vec<Op> {
        let mut rng = SimRng::new(1);
        std::iter::from_fn(|| w.next_op(&mut rng)).collect()
    }

    #[test]
    fn two_syncs_per_txn() {
        let ops = drain(OltpInsert::new(
            SyncMode::Fsync,
            FileRef::Global(0),
            FileRef::Global(1),
            FileRef::Global(2),
            5,
        ));
        let syncs = ops.iter().filter(|o| matches!(o, Op::Fsync { .. })).count();
        assert_eq!(syncs, 10, "redo + binlog sync per transaction");
        assert_eq!(ops.iter().filter(|o| **o == Op::TxnMark).count(), 5);
    }

    #[test]
    fn redo_log_wraps_circularly() {
        let w = OltpInsert::new(
            SyncMode::None,
            FileRef::Global(0),
            FileRef::Global(1),
            FileRef::Global(2),
            600,
        )
        .with_redo_blocks(4);
        let ops = drain(w);
        let redo_offsets: Vec<u64> = ops
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
        assert!(redo_offsets.iter().all(|&o| o < 4));
        assert_eq!(redo_offsets[0], 0);
        assert_eq!(redo_offsets[4], 0, "wrapped");
    }

    #[test]
    fn binlog_appends() {
        let ops = drain(OltpInsert::new(
            SyncMode::Fbarrier,
            FileRef::Global(0),
            FileRef::Global(1),
            FileRef::Global(2),
            3,
        ));
        let bin: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Write {
                    file: FileRef::Global(2),
                    offset,
                    ..
                } => Some(*offset),
                _ => None,
            })
            .collect();
        assert_eq!(bin, vec![0, 1, 2]);
    }
}
