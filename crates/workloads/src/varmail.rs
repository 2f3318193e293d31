//! Filebench varmail (Fig 15): a mail-server loop, metadata-intensive and
//! famous for its heavy fsync traffic.
//!
//! One iteration per mailbox message, following filebench's varmail
//! personality: delete an old mail file, create + write + sync a new one,
//! re-open + append + sync another, then read one. Mail sizes are a few
//! blocks, drawn uniformly.

use barrier_io::{FileRef, Op, Workload};
use bio_sim::SimRng;

use crate::engine::{AppModel, FilePool, OpScript, PhaseEngine, PhaseSpec};
use crate::SyncMode;

/// Mail-server workload over a pool of per-thread files.
///
/// One phase (`mail`), one iteration per message, over a [`FilePool`]
/// working set: once the pool is primed, the slot being recreated holds
/// the oldest mail, which is deleted first.
#[derive(Debug, Clone)]
pub struct Varmail {
    engine: PhaseEngine<VarmailModel>,
}

#[derive(Debug, Clone)]
struct VarmailModel {
    sync: SyncMode,
    pool: FilePool,
    max_mail_blocks: u64,
    phases: [PhaseSpec; 1],
}

impl AppModel for VarmailModel {
    fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    fn build(&mut self, _phase: usize, _iter: u64, s: &mut OpScript, rng: &mut SimRng) {
        let (slot_new, slot_old) = self.pool.advance();
        let blocks = rng.range(1, self.max_mail_blocks);

        // deletefile: drop the oldest mail (only once the pool is primed).
        if self.pool.primed() {
            s.unlink(FileRef::Slot(slot_new));
        }
        // createfile + appendfilerand + fsync.
        s.create(slot_new);
        self.pool.note_created();
        s.write(FileRef::Slot(slot_new), 0, blocks);
        s.sync(self.sync, FileRef::Slot(slot_new));
        // openfile + appendfilerand + fsync on an existing mail.
        if self.pool.created() > 1 {
            let target = FileRef::Slot(slot_old.min(self.pool.created() - 1));
            s.write(target, self.max_mail_blocks, rng.range(1, 2));
            s.sync(self.sync, target);
            // readfile.
            s.read(target, 0, 1);
        }
        s.txn_mark();
    }
}

impl Varmail {
    /// `iterations` mail loops with a pool of `pool` files per thread.
    pub fn new(sync: SyncMode, iterations: u64, pool: usize) -> Varmail {
        Varmail {
            engine: PhaseEngine::new(VarmailModel {
                sync,
                pool: FilePool::new(pool.max(2)),
                max_mail_blocks: 4,
                phases: [PhaseSpec::iterations("mail", iterations)],
            }),
        }
    }
}

impl Workload for Varmail {
    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
        self.engine.next_op(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_shape() {
        let mut w = Varmail::new(SyncMode::Fsync, 3, 4);
        let mut rng = SimRng::new(1);
        let ops: Vec<Op> = std::iter::from_fn(|| w.next_op(&mut rng)).collect();
        let fsyncs = ops.iter().filter(|o| matches!(o, Op::Fsync { .. })).count();
        // First iteration has 1 sync (no older file yet), later ones 2.
        assert_eq!(fsyncs, 1 + 2 + 2);
        assert_eq!(ops.iter().filter(|o| **o == Op::TxnMark).count(), 3);
        assert!(ops.iter().any(|o| matches!(o, Op::Read { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::Create { .. })));
    }

    #[test]
    fn deletes_once_pool_is_full() {
        let mut w = Varmail::new(SyncMode::Fbarrier, 6, 2);
        let mut rng = SimRng::new(2);
        let ops: Vec<Op> = std::iter::from_fn(|| w.next_op(&mut rng)).collect();
        assert!(ops.iter().any(|o| matches!(o, Op::Unlink { .. })));
    }

    #[test]
    fn ordering_mode_uses_fbarrier() {
        let mut w = Varmail::new(SyncMode::Fbarrier, 2, 4);
        let mut rng = SimRng::new(3);
        let ops: Vec<Op> = std::iter::from_fn(|| w.next_op(&mut rng)).collect();
        assert!(ops.iter().any(|o| matches!(o, Op::Fbarrier { .. })));
        assert!(!ops.iter().any(|o| matches!(o, Op::Fsync { .. })));
    }
}
