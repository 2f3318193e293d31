//! The phase-engine framework every application model is built on.
//!
//! A workload is described declaratively as a sequence of [`PhaseSpec`]s
//! (setup, steady state, drain, ...), each with an iteration budget. The
//! model implements [`AppModel::build`], which appends the ops of *one*
//! iteration of one phase into an [`OpScript`]; [`PhaseEngine`] owns the
//! phase cursor and the op queue and drives the model as a
//! [`barrier_io::Workload`].
//!
//! This replaces five bespoke generators that each hand-managed a
//! `VecDeque<Op>`, a cursor and an iteration counter. The contract that
//! makes the rewrite safe is *deterministic refill*: the engine calls
//! `build` exactly once per iteration, in phase order, and the model draws
//! from the thread RNG only inside `build` — so a model that performs the
//! same draws in the same order as a bespoke generator emits a
//! byte-identical op stream (locked by the hashes in
//! `crates/workloads/tests/golden_op_trace.rs`, recorded while those
//! generators were still there to compare against).
//!
//! [`FilePool`] covers the recurring working-set pattern (varmail,
//! mail-queue): a ring of thread-private file slots where the slot being
//! (re)created holds the oldest file once the pool is primed.

use std::collections::VecDeque;

use barrier_io::{FileRef, Op, Workload};
use bio_sim::{SimDuration, SimRng};

use crate::SyncMode;

/// Iteration budget of one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseLen {
    /// Run exactly this many iterations, then advance to the next phase.
    Exactly(u64),
    /// Iterate until the simulation stops the thread.
    Unbounded,
}

/// One declarative phase: a name (for debugging/reporting) plus its
/// iteration budget.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpec {
    /// Phase name.
    pub name: &'static str,
    /// Iteration budget.
    pub len: PhaseLen,
}

impl PhaseSpec {
    /// A phase of exactly `n` iterations.
    pub const fn iterations(name: &'static str, n: u64) -> PhaseSpec {
        PhaseSpec {
            name,
            len: PhaseLen::Exactly(n),
        }
    }

    /// A single-iteration phase (setup / drain steps).
    pub const fn once(name: &'static str) -> PhaseSpec {
        PhaseSpec {
            name,
            len: PhaseLen::Exactly(1),
        }
    }

    /// A phase that iterates until the run is stopped externally.
    pub const fn unbounded(name: &'static str) -> PhaseSpec {
        PhaseSpec {
            name,
            len: PhaseLen::Unbounded,
        }
    }
}

/// The op buffer one iteration is built into, with builder helpers so
/// models read like the syscall trace they produce.
#[derive(Debug, Clone, Default)]
pub struct OpScript {
    queue: VecDeque<Op>,
}

impl OpScript {
    /// An empty script.
    pub fn new() -> OpScript {
        OpScript::default()
    }

    /// Appends a raw op.
    pub fn push(&mut self, op: Op) {
        self.queue.push_back(op);
    }

    /// Buffered write of `blocks` blocks at `offset`.
    pub fn write(&mut self, file: FileRef, offset: u64, blocks: u64) {
        self.push(Op::Write {
            file,
            offset,
            blocks,
        });
    }

    /// Buffered read.
    pub fn read(&mut self, file: FileRef, offset: u64, blocks: u64) {
        self.push(Op::Read {
            file,
            offset,
            blocks,
        });
    }

    /// Create a thread-private file into `slot`.
    pub fn create(&mut self, slot: usize) {
        self.push(Op::Create { slot });
    }

    /// Unlink a file.
    pub fn unlink(&mut self, file: FileRef) {
        self.push(Op::Unlink { file });
    }

    /// The sync call selected by `mode` on `file`; a no-op for
    /// [`SyncMode::None`].
    pub fn sync(&mut self, mode: SyncMode, file: FileRef) {
        if let Some(op) = mode.op(file) {
            self.push(op);
        }
    }

    /// Application think time.
    pub fn think(&mut self, dur: SimDuration) {
        self.push(Op::Think { dur });
    }

    /// Marks the completion of one application-level transaction.
    pub fn txn_mark(&mut self) {
        self.push(Op::TxnMark);
    }

    /// Ops currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no ops are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Pops the next op in emission order.
    pub fn pop(&mut self) -> Option<Op> {
        self.queue.pop_front()
    }
}

/// An application model: a declarative phase list plus a per-iteration op
/// builder. Implementors keep their own state (append heads, ring
/// cursors, file pools) and must draw RNG values only inside [`build`] —
/// the engine guarantees `build` is called once per iteration in phase
/// order, which is what makes op streams deterministic per seed.
///
/// [`build`]: AppModel::build
pub trait AppModel {
    /// The phase list; fixed for the life of the workload.
    fn phases(&self) -> &[PhaseSpec];

    /// Appends the ops of iteration `iter` (0-based) of phase `phase`
    /// (index into [`phases`]) into `script`. Emitting nothing is allowed
    /// (a conditional step); the engine then advances to the next
    /// iteration.
    ///
    /// [`phases`]: AppModel::phases
    fn build(&mut self, phase: usize, iter: u64, script: &mut OpScript, rng: &mut SimRng);
}

/// Drives an [`AppModel`] through its phases as a [`Workload`].
#[derive(Debug, Clone)]
pub struct PhaseEngine<M> {
    model: M,
    phase: usize,
    iter: u64,
    script: OpScript,
}

impl<M: AppModel> PhaseEngine<M> {
    /// Wraps a model; the engine starts at iteration 0 of phase 0.
    pub fn new(model: M) -> PhaseEngine<M> {
        PhaseEngine {
            model,
            phase: 0,
            iter: 0,
            script: OpScript::new(),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the wrapped model (tests, parameter tweaks
    /// before the run starts).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Name of the phase the engine is currently in, if any.
    pub fn current_phase(&self) -> Option<&'static str> {
        self.model.phases().get(self.phase).map(|p| p.name)
    }
}

impl<M: AppModel> Workload for PhaseEngine<M> {
    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
        loop {
            if let Some(op) = self.script.pop() {
                return Some(op);
            }
            let spec = match self.model.phases().get(self.phase) {
                Some(spec) => *spec,
                None => return None, // all phases exhausted
            };
            match spec.len {
                PhaseLen::Exactly(n) if self.iter >= n => {
                    self.phase += 1;
                    self.iter = 0;
                    continue;
                }
                _ => {}
            }
            let iter = self.iter;
            self.iter += 1;
            self.model.build(self.phase, iter, &mut self.script, rng);
            if self.script.is_empty() && spec.len == PhaseLen::Unbounded {
                // An unbounded phase that stopped emitting is done;
                // advancing (instead of re-calling build forever) keeps
                // the engine total.
                self.phase += 1;
                self.iter = 0;
            }
        }
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
pub struct FilePool {
    size: usize,
    cursor: usize,
    created: usize,
}

impl FilePool {
    /// A pool of `size` slots (at least 1).
    pub fn new(size: usize) -> FilePool {
        FilePool {
            size: size.max(1),
            cursor: 0,
            created: 0,
        }
    }

    /// Number of slots in the ring.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Advances the ring cursor; returns `(new, old)` slot indices: `new`
    /// is the slot to (re)create now, `old` the next-oldest slot.
    pub fn advance(&mut self) -> (usize, usize) {
        let new = self.cursor % self.size;
        let old = (self.cursor + 1) % self.size;
        self.cursor += 1;
        (new, old)
    }

    /// True once every slot has been created at least once (the slot
    /// returned as `new` by [`FilePool::advance`] holds a live file).
    pub fn primed(&self) -> bool {
        self.created >= self.size
    }

    /// Records a file creation (call once per `Op::Create` emitted).
    pub fn note_created(&mut self) {
        self.created += 1;
    }

    /// Total files created so far.
    pub fn created(&self) -> usize {
        self.created
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two phases: one create, then `n` write+mark iterations.
    #[derive(Debug, Clone)]
    struct TwoPhase {
        phases: [PhaseSpec; 2],
    }

    impl TwoPhase {
        fn new(n: u64) -> TwoPhase {
            TwoPhase {
                phases: [PhaseSpec::once("setup"), PhaseSpec::iterations("steady", n)],
            }
        }
    }

    impl AppModel for TwoPhase {
        fn phases(&self) -> &[PhaseSpec] {
            &self.phases
        }

        fn build(&mut self, phase: usize, iter: u64, s: &mut OpScript, _rng: &mut SimRng) {
            match phase {
                0 => s.create(0),
                _ => {
                    s.write(FileRef::Slot(0), iter, 1);
                    s.txn_mark();
                }
            }
        }
    }

    fn drain(mut w: impl Workload) -> Vec<Op> {
        let mut rng = SimRng::new(1);
        std::iter::from_fn(|| w.next_op(&mut rng)).collect()
    }

    #[test]
    fn phases_run_in_order_with_budgets() {
        let ops = drain(PhaseEngine::new(TwoPhase::new(3)));
        assert_eq!(ops.len(), 1 + 3 * 2);
        assert!(matches!(ops[0], Op::Create { slot: 0 }));
        assert!(matches!(ops[1], Op::Write { offset: 0, .. }));
        assert!(matches!(ops[5], Op::Write { offset: 2, .. }));
        assert_eq!(ops[6], Op::TxnMark);
    }

    #[test]
    fn exhausted_engine_stays_done() {
        let mut e = PhaseEngine::new(TwoPhase::new(1));
        let mut rng = SimRng::new(1);
        while e.next_op(&mut rng).is_some() {}
        assert!(e.next_op(&mut rng).is_none());
        assert_eq!(e.current_phase(), None);
    }

    #[test]
    fn empty_iterations_advance() {
        /// A phase whose even iterations emit nothing.
        #[derive(Debug)]
        struct Sparse {
            phases: [PhaseSpec; 1],
        }
        impl AppModel for Sparse {
            fn phases(&self) -> &[PhaseSpec] {
                &self.phases
            }
            fn build(&mut self, _p: usize, iter: u64, s: &mut OpScript, _rng: &mut SimRng) {
                if iter % 2 == 1 {
                    s.txn_mark();
                }
            }
        }
        let ops = drain(PhaseEngine::new(Sparse {
            phases: [PhaseSpec::iterations("sparse", 6)],
        }));
        assert_eq!(ops.len(), 3);
    }

    #[test]
    fn unbounded_phase_that_stops_emitting_finishes() {
        #[derive(Debug)]
        struct Drying {
            phases: [PhaseSpec; 1],
            left: u64,
        }
        impl AppModel for Drying {
            fn phases(&self) -> &[PhaseSpec] {
                &self.phases
            }
            fn build(&mut self, _p: usize, _i: u64, s: &mut OpScript, _rng: &mut SimRng) {
                if self.left > 0 {
                    self.left -= 1;
                    s.txn_mark();
                }
            }
        }
        let ops = drain(PhaseEngine::new(Drying {
            phases: [PhaseSpec::unbounded("drip")],
            left: 4,
        }));
        assert_eq!(ops.len(), 4);
    }

    #[test]
    fn script_builders_map_to_ops() {
        let mut s = OpScript::new();
        let f = FileRef::Global(0);
        s.write(f, 1, 2);
        s.read(f, 0, 1);
        s.create(3);
        s.unlink(f);
        s.sync(SyncMode::Fsync, f);
        s.sync(SyncMode::None, f); // no-op
        s.think(SimDuration::from_micros(5));
        s.txn_mark();
        assert_eq!(s.len(), 7);
        assert_eq!(
            s.pop(),
            Some(Op::Write {
                file: f,
                offset: 1,
                blocks: 2
            })
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
