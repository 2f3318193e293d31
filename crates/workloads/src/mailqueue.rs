//! Mail-queue fsync storm (beyond the paper's five).
//!
//! Models a postfix-style queue manager: every accepted message is written
//! to its own small spool file and fsynced, and the queue *directory* is
//! synced too — the double-fsync pattern MTAs use so neither the message
//! nor its directory entry can be lost. Once the queue is primed, each
//! iteration also delivers (reads) and unlinks the oldest message, with
//! another directory sync for the removal. The result is the heaviest
//! sync-per-byte ratio of any workload here: two sync calls and two
//! metadata mutations per 1–4 KiB message.
//!
//! This is the workload where ordering-only sync shines on *latency*: the
//! accept path's two syncs serialise on flush in EXT4-DR, while BFS-OD
//! turns both into non-blocking barriers — the p99 gap is the `fig16`
//! story.
//!
//! Two phases: `mkdir` (create the queue directory file) and `storm` (one
//! iteration per message) over a [`FilePool`] ring of spool slots.

use barrier_io::{FileRef, Op, Workload};
use bio_sim::SimRng;

use crate::engine::{AppModel, FilePool, OpScript, PhaseEngine, PhaseSpec};
use crate::SyncMode;

/// Queue-directory slot index; spool files occupy the following slots.
const DIR_SLOT: usize = 0;
/// First spool-file slot.
const SPOOL_BASE: usize = 1;

/// Mail-queue workload: create + write + fsync(file) + fsync(dir) per
/// message, delivery (read + unlink + fsync(dir)) of the oldest once the
/// pool is primed.
#[derive(Debug, Clone)]
pub struct MailQueue {
    engine: PhaseEngine<MailQueueModel>,
}

#[derive(Debug, Clone)]
struct MailQueueModel {
    sync: SyncMode,
    pool: FilePool,
    max_msg_blocks: u64,
    phases: [PhaseSpec; 2],
}

impl AppModel for MailQueueModel {
    fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    fn build(&mut self, phase: usize, _iter: u64, s: &mut OpScript, rng: &mut SimRng) {
        if phase == 0 {
            s.create(DIR_SLOT);
            return;
        }
        let dir = FileRef::Slot(DIR_SLOT);
        let (ring_slot, _) = self.pool.advance();
        let slot = SPOOL_BASE + ring_slot;
        // Deliver the oldest message before its slot is reused: read it
        // out, unlink the spool file, sync the directory for the removal.
        if self.pool.primed() {
            s.read(FileRef::Slot(slot), 0, 1);
            s.unlink(FileRef::Slot(slot));
            s.sync(self.sync, dir);
        }
        // Accept a new message: spool file + data sync + directory sync.
        s.create(slot);
        self.pool.note_created();
        s.write(FileRef::Slot(slot), 0, rng.range(1, self.max_msg_blocks));
        s.sync(self.sync, FileRef::Slot(slot));
        s.sync(self.sync, dir);
        s.txn_mark();
    }
}

impl MailQueue {
    /// `messages` accept(+deliver) iterations over a ring of `pool` spool
    /// files; `sync` selects the experiment column.
    pub fn new(sync: SyncMode, messages: u64, pool: usize) -> MailQueue {
        MailQueue {
            engine: PhaseEngine::new(MailQueueModel {
                sync,
                pool: FilePool::new(pool.max(2)),
                max_msg_blocks: 4,
                phases: [
                    PhaseSpec::once("mkdir"),
                    PhaseSpec::iterations("storm", messages),
                ],
            }),
        }
    }
}

impl Workload for MailQueue {
    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
        self.engine.next_op(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut w: MailQueue) -> Vec<Op> {
        let mut rng = SimRng::new(1);
        std::iter::from_fn(|| w.next_op(&mut rng)).collect()
    }

    #[test]
    fn accept_path_double_syncs() {
        let ops = drain(MailQueue::new(SyncMode::Fsync, 3, 8));
        // Pool never primes (8 slots, 3 messages): 2 fsyncs per message.
        let fsyncs = ops.iter().filter(|o| matches!(o, Op::Fsync { .. })).count();
        assert_eq!(fsyncs, 6, "file + dir sync per accept");
        let dir_syncs = ops
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Op::Fsync {
                        file: FileRef::Slot(DIR_SLOT)
                    }
                )
            })
            .count();
        assert_eq!(dir_syncs, 3);
        assert_eq!(ops.iter().filter(|o| **o == Op::TxnMark).count(), 3);
        assert!(matches!(ops[0], Op::Create { slot: DIR_SLOT }));
    }

    #[test]
    fn primed_pool_delivers_the_oldest() {
        let ops = drain(MailQueue::new(SyncMode::Fsync, 5, 2));
        // Messages 3..5 reuse slots, so each delivers (read+unlink) first.
        let unlinks = ops
            .iter()
            .filter(|o| matches!(o, Op::Unlink { .. }))
            .count();
        assert_eq!(unlinks, 3);
        let reads = ops.iter().filter(|o| matches!(o, Op::Read { .. })).count();
        assert_eq!(reads, 3);
        // Delivery adds a third sync (dir sync for the removal).
        let fsyncs = ops.iter().filter(|o| matches!(o, Op::Fsync { .. })).count();
        assert_eq!(fsyncs, 2 * 5 + 3);
    }

    #[test]
    fn spool_files_never_touch_the_dir_slot() {
        let ops = drain(MailQueue::new(SyncMode::Fbarrier, 10, 3));
        for op in &ops {
            if let Op::Create { slot } = op {
                assert!(*slot == DIR_SLOT || *slot >= SPOOL_BASE);
            }
            if let Op::Unlink {
                file: FileRef::Slot(s),
            } = op
            {
                assert!(*s >= SPOOL_BASE, "the directory is never unlinked");
            }
        }
    }

    #[test]
    fn ordering_mode_uses_barriers_only() {
        let ops = drain(MailQueue::new(SyncMode::Fbarrier, 4, 2));
        assert!(!ops.iter().any(|o| matches!(o, Op::Fsync { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::Fbarrier { .. })));
    }
}
