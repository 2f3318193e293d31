//! fxmark's modified DWSL workload (Fig 13): every thread appends one
//! 4 KiB block to its own private file and fsyncs, repeatedly — the
//! canonical journaling-scalability stressor, because every append is an
//! allocating write and therefore forces a real journal commit.

use barrier_io::{FileRef, Op, Workload};
use bio_sim::{SimDuration, SimRng};

use crate::script::OpScript;
use crate::SyncMode;

/// Per-thread allocating-write + sync loop.
///
/// Iteration 0 creates the private file; each of the `writes` iterations
/// after it is a write + sync + transaction mark, each write extending the
/// file by one block.
#[derive(Debug, Clone)]
pub struct Dwsl {
    sync: SyncMode,
    writes: u64,
    think: Option<SimDuration>,
    script: OpScript,
}

impl Dwsl {
    /// `writes` append+sync operations on a fresh private file.
    pub fn new(sync: SyncMode, writes: u64) -> Dwsl {
        Dwsl {
            sync,
            writes,
            think: None,
            script: OpScript::default(),
        }
    }

    /// Inserts a fixed think time after every transaction, turning the
    /// closed back-to-back sync loop into a rate-bounded client. Long
    /// simulated horizons need this: an unthrottled appender would outrun
    /// any finite device's capacity within minutes of simulated time.
    pub fn with_think(mut self, think: SimDuration) -> Dwsl {
        self.think = Some(think);
        self
    }
}

impl Workload for Dwsl {
    fn next_op(&mut self, _rng: &mut SimRng) -> Option<Op> {
        let file = FileRef::Slot(0);
        // The create, then the appends (saturating: an endless appender
        // never reaches its last write).
        let iterations = self.writes.saturating_add(1);
        self.script.next_op(iterations, |iter, s| {
            if iter == 0 {
                s.create(0);
                return;
            }
            // Appending at `iter - 1` extends the file: an allocating
            // write, so the sync cannot degenerate to a data-only flush.
            s.write(file, iter - 1, 1);
            s.sync(self.sync, file);
            s.txn_mark();
            if let Some(d) = self.think {
                s.think(d);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_is_create_then_write_sync_mark() {
        let mut w = Dwsl::new(SyncMode::Fsync, 2);
        let mut rng = SimRng::new(1);
        let ops: Vec<Op> = std::iter::from_fn(|| w.next_op(&mut rng)).collect();
        assert!(matches!(ops[0], Op::Create { slot: 0 }));
        assert!(matches!(
            ops[1],
            Op::Write {
                offset: 0,
                blocks: 1,
                ..
            }
        ));
        assert!(matches!(ops[2], Op::Fsync { .. }));
        assert_eq!(ops[3], Op::TxnMark);
        assert!(matches!(ops[4], Op::Write { offset: 1, .. }));
        assert_eq!(ops.len(), 7);

        // The rate-bounded shape `oltp_hour` runs, well past the first
        // few iterations: create, (write i, sync, mark, think) × n.
        let (n, think) = (40u64, SimDuration::from_micros(250));
        let mut w = Dwsl::new(SyncMode::Fbarrier, n).with_think(think);
        let ops: Vec<Op> = std::iter::from_fn(|| w.next_op(&mut rng)).collect();
        let file = FileRef::Slot(0);
        let mut want = vec![Op::Create { slot: 0 }];
        for i in 0..n {
            want.extend([
                Op::Write {
                    file,
                    offset: i,
                    blocks: 1,
                },
                Op::Fbarrier { file },
                Op::TxnMark,
                Op::Think { dur: think },
            ]);
        }
        assert_eq!(ops, want);
    }

    #[test]
    fn appends_are_allocating() {
        // Offsets strictly increase: every write extends the file.
        let mut w = Dwsl::new(SyncMode::Fbarrier, 5);
        let mut rng = SimRng::new(1);
        let mut last = None;
        while let Some(op) = w.next_op(&mut rng) {
            if let Op::Write { offset, .. } = op {
                if let Some(prev) = last {
                    assert!(offset > prev);
                }
                last = Some(offset);
            }
        }
        assert_eq!(last, Some(4));
    }

    #[test]
    fn none_sync_skips_sync_ops() {
        let mut w = Dwsl::new(SyncMode::None, 2);
        let mut rng = SimRng::new(1);
        let ops: Vec<Op> = std::iter::from_fn(|| w.next_op(&mut rng)).collect();
        assert!(!ops.iter().any(|o| matches!(o, Op::Fsync { .. })));
    }
}
