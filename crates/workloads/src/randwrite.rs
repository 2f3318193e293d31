//! The 4 KiB random-write microbenchmark (Figs 1, 9, 10).
//!
//! Four flavours match the paper's bar groups:
//!
//! * `P`  — plain buffered `write()`,
//! * `X`  — `write()` + `fdatasync()` on a `nobarrier` stack
//!   (Wait-on-Transfer, no flush),
//! * `XnF` — `write()` + `fdatasync()` with flush (transfer-and-flush),
//! * `B`  — `write()` + `fdatabarrier()` (barrier-enabled).
//!
//! The distinction between `X` and `XnF` is which *stack* the workload
//! runs on (nobarrier vs stock EXT4); both use [`WriteMode::SyncEach`].

use barrier_io::{FileRef, Op, Workload};
use bio_sim::SimRng;

use crate::engine::{AppModel, OpScript, PhaseEngine, PhaseSpec};
use crate::SyncMode;

/// How each write is followed up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Plain buffered writes (scenario P).
    Buffered,
    /// Each write followed by the given sync call (scenarios X / XnF / B).
    SyncEach(SyncMode),
}

/// Uniform random single-block writes over a file region.
///
/// One phase (`write`), one iteration per write: a random-offset write,
/// optionally followed by the mode's sync call.
#[derive(Debug, Clone)]
pub struct RandWrite {
    engine: PhaseEngine<RandWriteModel>,
}

#[derive(Debug, Clone)]
struct RandWriteModel {
    file: FileRef,
    region_blocks: u64,
    mode: WriteMode,
    phases: [PhaseSpec; 1],
}

impl AppModel for RandWriteModel {
    fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    fn build(&mut self, _phase: usize, _iter: u64, s: &mut OpScript, rng: &mut SimRng) {
        s.write(self.file, rng.below(self.region_blocks), 1);
        if let WriteMode::SyncEach(sync) = self.mode {
            s.sync(sync, self.file);
        }
    }
}

impl RandWrite {
    /// `count` random 4 KiB writes over the first `region_blocks` of
    /// `file`.
    pub fn new(file: FileRef, region_blocks: u64, mode: WriteMode, count: u64) -> RandWrite {
        assert!(region_blocks > 0, "empty region");
        RandWrite {
            engine: PhaseEngine::new(RandWriteModel {
                file,
                region_blocks,
                mode,
                phases: [PhaseSpec::iterations("write", count)],
            }),
        }
    }
}

impl Workload for RandWrite {
    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
        self.engine.next_op(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffered_mode_emits_only_writes() {
        let mut w = RandWrite::new(FileRef::Global(0), 64, WriteMode::Buffered, 10);
        let mut rng = SimRng::new(1);
        let mut n = 0;
        while let Some(op) = w.next_op(&mut rng) {
            assert!(matches!(op, Op::Write { blocks: 1, .. }));
            n += 1;
        }
        assert_eq!(n, 10);
    }

    #[test]
    fn sync_mode_interleaves() {
        let mut w = RandWrite::new(
            FileRef::Global(0),
            64,
            WriteMode::SyncEach(SyncMode::Fdatabarrier),
            3,
        );
        let mut rng = SimRng::new(1);
        let ops: Vec<Op> = std::iter::from_fn(|| w.next_op(&mut rng)).collect();
        assert_eq!(ops.len(), 6);
        assert!(matches!(ops[0], Op::Write { .. }));
        assert!(matches!(ops[1], Op::Fdatabarrier { .. }));
        assert!(matches!(ops[4], Op::Write { .. }));
        assert!(matches!(ops[5], Op::Fdatabarrier { .. }));
    }

    #[test]
    fn offsets_stay_in_region() {
        let mut w = RandWrite::new(FileRef::Global(0), 8, WriteMode::Buffered, 500);
        let mut rng = SimRng::new(2);
        while let Some(op) = w.next_op(&mut rng) {
            if let Op::Write { offset, .. } = op {
                assert!(offset < 8);
            }
        }
    }
}
