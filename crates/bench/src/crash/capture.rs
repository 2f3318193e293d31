//! Capture: the plain-data [`CrashPoint`], the delta cursor that advances
//! one point in place from each epoch's delta, and the trace driver that
//! captures at every journal commit.

use std::borrow::Cow;
use std::sync::Arc;

use barrier_io::{
    ConsistencyIndex, FileRef, IoStack, StackCaptureDelta, StackConfig, StripedImage, Topology,
    TxnRecord,
};
use bio_flash::{BlockTag, CrashState, EpochIndex, ImageView, Lba, Overlay};
use bio_sim::SimDuration;
use bio_workloads::{RandWrite, SyncMode, WriteMode};

/// Syncs per differential trace; each write+sync pair forces one journal
/// commit, i.e. one capture point.
pub(crate) const TRACE_OPS: u64 = 100;

/// Steps without a new commit after which a trace is considered drained
/// (backstop behind the quiescence early-exit, which normally ends the
/// trace as soon as the journal settles).
const STALE_STEP_LIMIT: u64 = 200_000;

/// A crash image of a point across its devices, stitched into the global
/// address space by the stripe layout: device `d` reads `overlays[d]` over
/// its base, or its base alone when no overlay is given (`overlays`
/// empty).
pub(super) fn point_image<'a>(
    topology: Topology,
    devices: &'a [CrashState],
    overlays: &'a [Overlay],
) -> impl ImageView + 'a {
    StripedImage::new(topology, |d, lba| match (devices.get(d), overlays.get(d)) {
        (Some(dev), Some(o)) => o.tag(dev, lba),
        (Some(dev), None) => dev.base.tag(lba),
        (None, _) => BlockTag::UNWRITTEN,
    })
}

/// Everything needed to enumerate and check one capture point: the ground
/// truth transaction records plus per-device append-log state. A point the
/// delta cursor hands out borrows: its records are the running
/// filesystem's own, and its devices and consistency index are the
/// cursor's, rewritten in place at the next commit. [`CrashPoint::owned`]
/// is the copy a caller keeps.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashPoint<'a> {
    /// Commit count at the capture: records ever appended, retired ones
    /// included (the cross-stack alignment key).
    pub commit_idx: usize,
    /// Absolute position of `records[0]`: records the filesystem retired
    /// before the capture.
    pub first_record: usize,
    /// Ground-truth transaction records at the capture: the window a
    /// verdict can still read.
    pub records: Cow<'a, [TxnRecord]>,
    /// [`barrier_io::ConsistencyCheck`] over `records`, indexed under the
    /// devices' bases.
    pub(super) check: Cow<'a, ConsistencyIndex>,
    pub(super) devices: Cow<'a, [CrashState]>,
    pub(super) topology: Topology,
}

impl CrashPoint<'_> {
    /// This point owning all of its parts: what a caller that keeps points
    /// stores. The devices' `Arc` parts are shared with the cursor until
    /// its next capture writes them.
    pub fn owned(&self) -> CrashPoint<'static> {
        CrashPoint {
            commit_idx: self.commit_idx,
            first_record: self.first_record,
            records: Cow::Owned(self.records.to_vec()),
            check: Cow::Owned(self.check.as_ref().clone()),
            devices: Cow::Owned(self.devices.to_vec()),
            topology: self.topology,
        }
    }

    /// Builds both check indexes from nothing: the records under the
    /// devices' bases, each transfer history under its device's base.
    pub(super) fn reindex(&mut self) {
        for d in self.devices.to_mut() {
            d.audit = d.history.as_deref().map(|history| {
                let mut index = EpochIndex::new();
                index.advance(history, [], &*d.base);
                Arc::new(index)
            });
        }
        let mut check = ConsistencyIndex::new();
        check.advance(
            self.first_record,
            &self.records,
            [],
            &[],
            &point_image(self.topology, &self.devices, &[]),
        );
        self.check = Cow::Owned(check);
    }
}

impl CrashPoint<'static> {
    /// The live stack as a plain-data crash point built from nothing: every
    /// part read through borrowed accessors and materialized, both check
    /// indexes built from scratch. Shares nothing with any cursor.
    fn capture(stack: &IoStack) -> CrashPoint<'static> {
        let fs = stack.fs();
        let mut point = CrashPoint {
            commit_idx: fs.record_count(),
            first_record: fs.first_record(),
            records: Cow::Owned(fs.records().to_vec()),
            check: Cow::Owned(ConsistencyIndex::new()),
            devices: stack.devices().iter().map(CrashState::capture).collect(),
            topology: stack.config().topology,
        };
        point.reindex();
        point
    }
}

/// Incremental capture across one trace: the parts of the trace's crash
/// point that are not the filesystem's records — per device state and the
/// consistency index — advanced in place by each epoch's delta, so a
/// capture costs O(writes since the previous capture) and, once its
/// buffers have met the largest epoch, allocates nothing.
#[derive(Debug)]
struct CaptureCursor {
    devices: Vec<CrashState>,
    /// [`ConsistencyIndex`] over the filesystem's records.
    check: ConsistencyIndex,
    topology: Topology,
    /// What the stack's delta drains into, kept across captures.
    delta: StackCaptureDelta,
    /// The capture's folds as `(global block, tag before, tag after)`, for
    /// the consistency index (a buffer kept across captures).
    folds: Vec<(Lba, BlockTag, BlockTag)>,
    /// Verdicts the two indexes recomputed during the last capture.
    last_index_work: usize,
}

impl CaptureCursor {
    /// A cursor at the empty stack. Arm [`IoStack::enable_capture_tracking`]
    /// before the run starts.
    fn new(stack: &IoStack) -> CaptureCursor {
        CaptureCursor {
            devices: stack.devices().iter().map(CrashState::empty).collect(),
            check: ConsistencyIndex::new(),
            topology: stack.config().topology,
            delta: StackCaptureDelta::default(),
            folds: Vec::new(),
            last_index_work: 0,
        }
    }

    /// Drains the stack's capture delta, advances the cursor by it, and
    /// hands out the point: the filesystem's records and the cursor's
    /// state, by reference.
    fn capture<'a>(&'a mut self, stack: &'a mut IoStack) -> CrashPoint<'a> {
        stack.drain_capture_delta(&mut self.delta);
        let stack: &'a IoStack = stack;
        let topology = self.topology;
        self.last_index_work = 0;
        let devices = self.devices.iter_mut().zip(stack.devices());
        for (di, ((d, dev), delta)) in devices.zip(&self.delta.devices).enumerate() {
            let global = |lba| topology.global(di, lba);
            self.last_index_work += d.advance(dev, delta, global, &mut self.folds);
        }
        // The live records already carry every durability flip; the index
        // is told of the flips to recompute those records' verdicts.
        let fs = stack.fs();
        let (first, records) = (fs.first_record(), fs.records());
        let bases = point_image(topology, &self.devices, &[]);
        self.last_index_work += self.check.advance(
            first,
            records,
            self.folds.drain(..),
            &self.delta.records_marked_durable,
            &bases,
        );
        CrashPoint {
            commit_idx: fs.record_count(),
            first_record: first,
            records: Cow::Borrowed(records),
            check: Cow::Borrowed(&self.check),
            devices: Cow::Borrowed(&self.devices),
            topology,
        }
    }
}

/// How crash points are captured from the running trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureMode {
    /// One point per trace, advanced in place by each epoch's delta (what
    /// [`super::run`] uses).
    Delta,
    /// Each point built from nothing by reading the running stack; no
    /// capture tracking is armed.
    Scratch,
}

/// Builds one differential trace cell: a single thread of `ops`
/// write+sync pairs over a 64-block region, 1 µs journal tick.
pub(crate) fn trace_stack(mut cfg: StackConfig, sync: SyncMode, seed: u64, ops: u64) -> IoStack {
    cfg.seed = seed;
    cfg.fs.timer_tick = SimDuration::from_micros(1);
    let mut stack = IoStack::new(cfg);
    let f = stack.create_global_file();
    stack.add_thread(Box::new(RandWrite::new(
        FileRef::Global(f),
        64,
        WriteMode::SyncEach(sync),
        ops,
    )));
    stack
}

/// Runs one trace, calling `on_point` with the crash point captured at
/// every journal commit. Ends at journal quiescence once all workloads
/// finished (with [`STALE_STEP_LIMIT`] as a backstop), and hands the
/// stack's drop counters to [`crate::note_drops`]. Under
/// [`CaptureMode::Delta`] the point handed over borrows the stack and the
/// cursor: [`CrashPoint::owned`] keeps it.
pub(super) fn drive<F: FnMut(&CrashPoint<'_>)>(
    cfg: StackConfig,
    sync: SyncMode,
    seed: u64,
    ops: u64,
    mode: CaptureMode,
    mut on_point: F,
) {
    let mut stack = trace_stack(cfg, sync, seed, ops);
    let mut cursor = match mode {
        CaptureMode::Delta => {
            stack.enable_capture_tracking();
            Some(CaptureCursor::new(&stack))
        }
        CaptureMode::Scratch => None,
    };
    let mut commits = 0usize;
    let mut stale = 0u64;
    while stack.step() {
        let n = stack.fs().record_count();
        if n > commits {
            commits = n;
            stale = 0;
            match &mut cursor {
                Some(cursor) => on_point(&cursor.capture(&mut stack)),
                None => on_point(&CrashPoint::capture(&stack)),
            }
        } else {
            stale += 1;
            if stale > STALE_STEP_LIMIT {
                break;
            }
            // Early exit: once every workload finished and the journal is
            // provably quiescent no further commit can occur, so the
            // remaining event tail (timer self-rearming) is pure waste.
            if stack.workloads_finished() && stack.fs().journal_quiescent() {
                break;
            }
        }
    }
    let label = format!("{} trace seed {seed}", stack.config().label());
    crate::note_drops(&label, &stack.report());
}

/// Captures (without enumerating) every crash point of one trace.
pub fn capture_points(
    cfg: StackConfig,
    sync: SyncMode,
    seed: u64,
    mode: CaptureMode,
) -> Vec<CrashPoint<'static>> {
    let mut points = Vec::new();
    drive(cfg, sync, seed, TRACE_OPS, mode, |p| points.push(p.owned()));
    points
}

/// Hand-made state for the unit tests of this module tree: a device
/// holding `log` and nothing else.
#[cfg(test)]
pub(super) fn state_of_log(
    mode: bio_flash::BarrierMode,
    plp: bool,
    log: &bio_flash::AppendLog,
) -> CrashState {
    CrashState {
        base: Arc::new(log.base().clone()),
        tail: log.tail().copied().collect(),
        cache: Vec::new(),
        plp,
        mode,
        open_group: None,
        history: None,
        audit: None,
    }
}

#[cfg(test)]
impl CrashPoint<'static> {
    /// A one-device point, indexed from nothing.
    pub(super) fn of_device(
        commit_idx: usize,
        records: Vec<TxnRecord>,
        dev: CrashState,
    ) -> CrashPoint<'static> {
        let mut p = CrashPoint {
            commit_idx,
            first_record: 0,
            records: Cow::Owned(records),
            check: Cow::Owned(ConsistencyIndex::new()),
            devices: Cow::Owned(vec![dev]),
            topology: Topology::single(),
        };
        p.reindex();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::{differential_cells, DiffCell};

    #[test]
    fn index_advance_work_is_bounded_by_the_delta() {
        // What a capture may look at: the records, durability flips, folds
        // and transfers since the previous one, read off the live stack.
        fn progress(stack: &IoStack) -> usize {
            let records = stack.fs().records();
            let claimed = records.iter().filter(|r| r.durability_claimed).count();
            let devices = stack.devices().iter().map(|d| {
                let log = d.append_log();
                log.appends() as usize - log.tail_len() + d.history().map_or(0, <[_]>::len)
            });
            stack.fs().record_count() + claimed + devices.sum::<usize>()
        }
        for DiffCell {
            label, cfg, sync, ..
        } in differential_cells()
        {
            let mut stack = trace_stack(cfg, sync, 11, 400);
            stack.enable_capture_tracking();
            let mut cursor = CaptureCursor::new(&stack);
            let (mut commits, mut before) = (0, progress(&stack));
            while stack.step() && !stack.workloads_finished() {
                if stack.fs().record_count() > commits {
                    commits = stack.fs().record_count();
                    let after = progress(&stack);
                    cursor.capture(&mut stack);
                    assert!(
                        cursor.last_index_work <= 2 * (after - before),
                        "{label} commit {commits}: {} verdicts recomputed for a delta of {}",
                        cursor.last_index_work,
                        after - before
                    );
                    before = after;
                }
            }
            assert!(commits >= 300, "{label}: {commits} commits");
        }
    }

    #[test]
    fn delta_capture_is_bit_identical_to_scratch_capture() {
        // Trace seed 3 and three drawn at random, on every differential
        // row: every point of the delta cursor, field for field, against
        // one built from nothing off the same running stack.
        let mut rng = bio_sim::SimRng::new(0xCA97);
        let seeds = [3, rng.below(10_000), rng.below(10_000), rng.below(10_000)];
        for DiffCell {
            label, cfg, sync, ..
        } in differential_cells()
        {
            for seed in seeds {
                let delta = capture_points(cfg.clone(), sync, seed, CaptureMode::Delta);
                let scratch = capture_points(cfg.clone(), sync, seed, CaptureMode::Scratch);
                assert!(!delta.is_empty(), "{label} seed {seed}: no capture points");
                assert_eq!(delta, scratch, "{label} seed {seed}: capture paths diverge");
            }
        }
    }
}
