//! Workload operations: the syscall-level script language workload
//! generators speak.

use bio_sim::{SimDuration, SimRng};

/// A file reference inside a workload script. `Global` files are created
//  by the harness before the run (shared between threads, e.g. a database
/// file); `Slot` files are thread-private, created by an [`Op::Create`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRef {
    /// Pre-created shared file, by index.
    Global(usize),
    /// Thread-private file slot, filled by [`Op::Create`].
    Slot(usize),
}

/// One syscall-level operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Buffered write of `blocks` blocks at `offset`.
    Write {
        /// Target file.
        file: FileRef,
        /// Block offset.
        offset: u64,
        /// Block count.
        blocks: u64,
    },
    /// Buffered read.
    Read {
        /// Target file.
        file: FileRef,
        /// Block offset.
        offset: u64,
        /// Block count.
        blocks: u64,
    },
    /// Create a thread-private file into `slot`.
    Create {
        /// Destination slot.
        slot: usize,
    },
    /// Unlink a file.
    Unlink {
        /// Target file.
        file: FileRef,
    },
    /// `fsync` — durability + ordering.
    Fsync {
        /// Target file.
        file: FileRef,
    },
    /// `fdatasync`.
    Fdatasync {
        /// Target file.
        file: FileRef,
    },
    /// `fbarrier` — ordering only (§4.1).
    Fbarrier {
        /// Target file.
        file: FileRef,
    },
    /// `fdatabarrier` — the storage mfence (§4.1).
    Fdatabarrier {
        /// Target file.
        file: FileRef,
    },
    /// Idle for a while (application think time).
    Think {
        /// Duration.
        dur: SimDuration,
    },
    /// Marks the completion of one application-level transaction
    /// (SQLite insert, OLTP transaction, varmail loop); counted in the
    /// run report's `txns`.
    TxnMark,
}

impl Op {
    /// Classifies the op for metrics attribution.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Write { .. } => OpKind::Write,
            Op::Read { .. } => OpKind::Read,
            Op::Create { .. } => OpKind::Create,
            Op::Unlink { .. } => OpKind::Unlink,
            Op::Fsync { .. } => OpKind::Fsync,
            Op::Fdatasync { .. } => OpKind::Fdatasync,
            Op::Fbarrier { .. } => OpKind::Fbarrier,
            Op::Fdatabarrier { .. } => OpKind::Fdatabarrier,
            Op::Think { .. } => OpKind::Think,
            Op::TxnMark => OpKind::TxnMark,
        }
    }
}

/// Metric buckets for operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Buffered writes.
    Write,
    /// Reads.
    Read,
    /// File creates.
    Create,
    /// Unlinks.
    Unlink,
    /// fsync.
    Fsync,
    /// fdatasync.
    Fdatasync,
    /// fbarrier.
    Fbarrier,
    /// fdatabarrier.
    Fdatabarrier,
    /// Think time.
    Think,
    /// Transaction marks.
    TxnMark,
}

impl OpKind {
    /// All kinds, for report iteration.
    pub const ALL: [OpKind; 10] = [
        OpKind::Write,
        OpKind::Read,
        OpKind::Create,
        OpKind::Unlink,
        OpKind::Fsync,
        OpKind::Fdatasync,
        OpKind::Fbarrier,
        OpKind::Fdatabarrier,
        OpKind::Think,
        OpKind::TxnMark,
    ];

    /// The four synchronisation kinds (durability and ordering flavours),
    /// for sync-latency aggregation.
    pub const SYNC: [OpKind; 4] = [
        OpKind::Fsync,
        OpKind::Fdatasync,
        OpKind::Fbarrier,
        OpKind::Fdatabarrier,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Write => "write",
            OpKind::Read => "read",
            OpKind::Create => "create",
            OpKind::Unlink => "unlink",
            OpKind::Fsync => "fsync",
            OpKind::Fdatasync => "fdatasync",
            OpKind::Fbarrier => "fbarrier",
            OpKind::Fdatabarrier => "fdatabarrier",
            OpKind::Think => "think",
            OpKind::TxnMark => "txn",
        }
    }
}

/// A workload: an operation generator driving one simulated thread.
///
/// `next_op` is called each time the thread is ready for its next
/// operation; returning `None` parks the thread for the rest of the run.
pub trait Workload {
    /// Produces the next operation.
    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op>;
}

/// A workload from a closure (handy in tests).
pub struct FnWorkload<F>(pub F);

impl<F: FnMut(&mut SimRng) -> Option<Op>> Workload for FnWorkload<F> {
    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
        (self.0)(rng)
    }
}

/// A workload replaying a fixed script, optionally in a loop.
#[derive(Debug, Clone)]
pub struct ScriptWorkload {
    script: Vec<Op>,
    pos: usize,
    repeat: Option<u64>,
}

impl ScriptWorkload {
    /// Runs the script once.
    pub fn once(script: Vec<Op>) -> ScriptWorkload {
        ScriptWorkload {
            script,
            pos: 0,
            repeat: Some(1),
        }
    }

    /// Runs the script `n` times.
    pub fn repeat(script: Vec<Op>, n: u64) -> ScriptWorkload {
        ScriptWorkload {
            script,
            pos: 0,
            repeat: Some(n),
        }
    }

    /// Runs the script until the simulation stops.
    pub fn forever(script: Vec<Op>) -> ScriptWorkload {
        ScriptWorkload {
            script,
            pos: 0,
            repeat: None,
        }
    }
}

impl Workload for ScriptWorkload {
    fn next_op(&mut self, _rng: &mut SimRng) -> Option<Op> {
        if self.script.is_empty() {
            return None;
        }
        if self.pos >= self.script.len() {
            self.pos = 0;
            if let Some(left) = self.repeat.as_mut() {
                *left = left.saturating_sub(1);
            }
        }
        if self.repeat == Some(0) {
            return None;
        }
        let op = *self.script.get(self.pos)?;
        self.pos += 1;
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kinds_classify() {
        let f = FileRef::Global(0);
        assert_eq!(
            Op::Write {
                file: f,
                offset: 0,
                blocks: 1
            }
            .kind(),
            OpKind::Write
        );
        assert_eq!(Op::Fdatabarrier { file: f }.kind(), OpKind::Fdatabarrier);
        assert_eq!(Op::TxnMark.kind(), OpKind::TxnMark);
    }

    #[test]
    fn script_replays_n_times() {
        let f = FileRef::Global(0);
        let mut w = ScriptWorkload::repeat(vec![Op::TxnMark, Op::Fsync { file: f }], 2);
        let mut rng = SimRng::new(1);
        let mut count = 0;
        while w.next_op(&mut rng).is_some() {
            count += 1;
        }
        assert_eq!(count, 4);
    }

    #[test]
    fn script_once_stops() {
        let mut w = ScriptWorkload::once(vec![Op::TxnMark]);
        let mut rng = SimRng::new(1);
        assert!(w.next_op(&mut rng).is_some());
        assert!(w.next_op(&mut rng).is_none());
        assert!(w.next_op(&mut rng).is_none());
    }

    #[test]
    fn empty_script_is_idle() {
        let mut w = ScriptWorkload::forever(vec![]);
        let mut rng = SimRng::new(1);
        assert!(w.next_op(&mut rng).is_none());
    }

    #[test]
    fn fn_workload_delegates() {
        let mut w = FnWorkload(|_rng: &mut SimRng| Some(Op::TxnMark));
        let mut rng = SimRng::new(1);
        assert_eq!(w.next_op(&mut rng), Some(Op::TxnMark));
    }
}
