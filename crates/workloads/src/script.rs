//! What every workload model is made of: the [`OpScript`] one iteration is
//! built into and played out from, and the [`FilePool`] ring of small
//! files that varmail and mail-queue keep.
//!
//! A model is a [`barrier_io::Workload`] holding its own state and an
//! `OpScript`. Its `next_op` is one call of [`OpScript::next_op`] with the
//! model's iteration count and a closure that appends the ops of one
//! iteration; a model with a set-up or shut-down step gives it an iteration
//! of its own at either end. What makes a stream a function of its seed is
//! the refill contract: one build per iteration, in order, and RNG draws
//! only inside it (locked by the hashes in
//! `crates/workloads/tests/golden_op_trace.rs`).

use std::collections::VecDeque;

use barrier_io::{FileRef, Op};
use bio_sim::SimDuration;

use crate::SyncMode;

/// The ops of the iteration being played out, with builder helpers so
/// models read like the syscall trace they produce, and the number of
/// iterations built so far.
#[derive(Debug, Clone, Default)]
pub(crate) struct OpScript {
    queue: VecDeque<Op>,
    built: u64,
}

impl OpScript {
    /// The next op of a workload of `iterations` iterations: what is left
    /// of the current iteration, else what `build(iter, script)` appends
    /// for the next one. An iteration that emits nothing is skipped; after
    /// the last one the stream is over, and stays over.
    pub(crate) fn next_op(
        &mut self,
        iterations: u64,
        mut build: impl FnMut(u64, &mut OpScript),
    ) -> Option<Op> {
        loop {
            if let Some(op) = self.queue.pop_front() {
                return Some(op);
            }
            if self.built >= iterations {
                return None;
            }
            let iter = self.built;
            self.built += 1;
            build(iter, self);
        }
    }

    fn push(&mut self, op: Op) {
        self.queue.push_back(op);
    }

    /// Buffered write of `blocks` blocks at `offset`.
    pub(crate) fn write(&mut self, file: FileRef, offset: u64, blocks: u64) {
        self.push(Op::Write {
            file,
            offset,
            blocks,
        });
    }

    /// Buffered read.
    pub(crate) fn read(&mut self, file: FileRef, offset: u64, blocks: u64) {
        self.push(Op::Read {
            file,
            offset,
            blocks,
        });
    }

    /// Create a thread-private file into `slot`.
    pub(crate) fn create(&mut self, slot: usize) {
        self.push(Op::Create { slot });
    }

    /// Unlink a file.
    pub(crate) fn unlink(&mut self, file: FileRef) {
        self.push(Op::Unlink { file });
    }

    /// The sync call selected by `mode` on `file`; a no-op for
    /// [`SyncMode::None`].
    pub(crate) fn sync(&mut self, mode: SyncMode, file: FileRef) {
        if let Some(op) = mode.op(file) {
            self.push(op);
        }
    }

    /// Application think time.
    pub(crate) fn think(&mut self, dur: SimDuration) {
        self.push(Op::Think { dur });
    }

    /// Marks the completion of one application-level transaction.
    pub(crate) fn txn_mark(&mut self) {
        self.push(Op::TxnMark);
    }
}

/// A ring of thread-private file slots modelling a bounded working set of
/// small files (mail spools, queue directories).
///
/// [`advance`] walks the ring: the returned `new` slot is where the next
/// file is created — and, once the pool is [`primed`], it still holds the
/// *oldest* live file, so "retire the oldest, then create" is
/// `let (new, old) = pool.advance();` followed by an unlink of `new`
/// before the create. `old` is the ring's next-oldest slot (varmail's
/// re-append target).
///
/// [`advance`]: FilePool::advance
/// [`primed`]: FilePool::primed
#[derive(Debug, Clone)]
pub(crate) struct FilePool {
    size: usize,
    cursor: usize,
    created: usize,
}

impl FilePool {
    /// A pool of `size` slots (at least 1).
    pub(crate) fn new(size: usize) -> FilePool {
        FilePool {
            size: size.max(1),
            cursor: 0,
            created: 0,
        }
    }

    /// Advances the ring cursor; returns `(new, old)` slot indices: `new`
    /// is the slot to (re)create now, `old` the next-oldest slot.
    pub(crate) fn advance(&mut self) -> (usize, usize) {
        let new = self.cursor % self.size;
        let old = (self.cursor + 1) % self.size;
        self.cursor += 1;
        (new, old)
    }

    /// True once every slot has been created at least once (the slot
    /// returned as `new` by [`FilePool::advance`] holds a live file).
    pub(crate) fn primed(&self) -> bool {
        self.created >= self.size
    }

    /// Records a file creation (call once per `Op::Create` emitted).
    pub(crate) fn note_created(&mut self) {
        self.created += 1;
    }

    /// Total files created so far.
    pub(crate) fn created(&self) -> usize {
        self.created
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains a workload of `iterations` iterations whose odd iterations
    /// emit a write at their index and a mark, and whose even ones emit
    /// nothing; returns its ops and how often `build` ran.
    fn sparse(script: &mut OpScript, iterations: u64) -> (Vec<Op>, u64) {
        let mut builds = 0;
        let mut build = |iter: u64, s: &mut OpScript| {
            builds += 1;
            if iter % 2 == 1 {
                s.write(FileRef::Slot(0), iter, 1);
                s.txn_mark();
            }
        };
        let ops = std::iter::from_fn(|| script.next_op(iterations, &mut build)).collect();
        (ops, builds)
    }

    #[test]
    fn each_iteration_is_built_once_in_order_and_empty_ones_are_skipped() {
        let (ops, builds) = sparse(&mut OpScript::default(), 6);
        assert_eq!(builds, 6);
        let offsets: Vec<u64> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Write { offset, .. } => Some(*offset),
                _ => None,
            })
            .collect();
        assert_eq!(offsets, vec![1, 3, 5]);
        assert_eq!(ops.len(), 6);
    }

    #[test]
    fn an_exhausted_script_stays_exhausted() {
        let mut script = OpScript::default();
        let (ops, builds) = sparse(&mut script, 3);
        assert_eq!((ops.len(), builds), (2, 3));
        // Asked again, a spent script builds nothing.
        assert_eq!(sparse(&mut script, 3), (Vec::new(), 0));
        assert_eq!(sparse(&mut script, 3), (Vec::new(), 0));
    }

    #[test]
    fn script_builders_map_to_ops() {
        let mut s = OpScript::default();
        let f = FileRef::Global(0);
        s.write(f, 1, 2);
        s.read(f, 0, 1);
        s.create(3);
        s.unlink(f);
        s.sync(SyncMode::Fsync, f);
        s.sync(SyncMode::None, f); // no-op
        s.think(SimDuration::from_micros(5));
        s.txn_mark();
        let ops: Vec<Op> = s.queue.into();
        assert_eq!(
            ops,
            vec![
                Op::Write {
                    file: f,
                    offset: 1,
                    blocks: 2
                },
                Op::Read {
                    file: f,
                    offset: 0,
                    blocks: 1
                },
                Op::Create { slot: 3 },
                Op::Unlink { file: f },
                Op::Fsync { file: f },
                Op::Think {
                    dur: SimDuration::from_micros(5)
                },
                Op::TxnMark,
            ]
        );
    }

    #[test]
    fn file_pool_ring_and_priming() {
        let mut p = FilePool::new(3);
        assert!(!p.primed());
        assert_eq!(p.advance(), (0, 1));
        p.note_created();
        assert_eq!(p.advance(), (1, 2));
        p.note_created();
        assert_eq!(p.advance(), (2, 0));
        p.note_created();
        assert!(p.primed());
        assert_eq!(p.advance(), (0, 1), "ring wraps to the oldest slot");
        assert_eq!(p.created(), 3);
    }
}
