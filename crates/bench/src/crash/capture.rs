//! Capture: the plain-data [`CrashPoint`], the delta cursor that advances
//! one point in place from each epoch's delta, and the trace driver that
//! captures at every journal commit.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

use barrier_io::{
    ConsistencyIndex, DeviceCaptureDelta, FileRef, IoStack, StackCaptureDelta, StackConfig,
    Topology, TxnRecord,
};
use bio_flash::{
    AppendRec, BarrierMode, BlockMap, BlockTag, Device, EpochIndex, ImageView, Lba, TransferRec,
};
use bio_sim::SimDuration;
use bio_workloads::{RandWrite, SyncMode, WriteMode};

use super::choice::Overlay;

/// Syncs per differential trace; each write+sync pair forces one journal
/// commit, i.e. one capture point.
pub(crate) const TRACE_OPS: u64 = 100;

/// Steps without a new commit after which a trace is considered drained
/// (backstop behind the quiescence early-exit, which normally ends the
/// trace as soon as the journal settles).
const STALE_STEP_LIMIT: u64 = 200_000;

/// Snapshot of one device at a capture point. The folded base image, the
/// committed-group set, the transfer history and the epoch-audit index
/// sit behind `Arc`s, so a point kept by a caller shares them with the
/// capture cursor until the cursor next writes one of them.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct DeviceState {
    /// Folded durable prefix of the append log.
    pub(super) base: Arc<BlockMap>,
    /// Unfolded tail records, in append order.
    pub(super) tail: Vec<AppendRec>,
    /// Writeback-cache content in insertion order — captured under PLP
    /// only, the one case where the cache survives a crash.
    pub(super) cache: Vec<(Lba, BlockTag)>,
    pub(super) plp: bool,
    pub(super) mode: BarrierMode,
    /// Committed transactional-writeback groups.
    pub(super) committed: Arc<BTreeSet<u64>>,
    /// Transfer history prefix at the capture.
    pub(super) history: Option<Arc<Vec<TransferRec>>>,
    /// [`bio_flash::EpochAudit`] over `history`, indexed under `base`
    /// (present exactly when `history` is).
    pub(super) audit: Option<Arc<EpochIndex>>,
}

impl DeviceState {
    /// The device as it stands, read through borrowed accessors and
    /// materialized (O(state)); `audit` is left to [`CrashPoint::reindex`].
    fn capture(dev: &Device) -> DeviceState {
        let mut d = DeviceState {
            base: Arc::new(dev.append_log().base().clone()),
            tail: Vec::new(),
            cache: Vec::new(),
            plp: dev.profile().plp,
            mode: dev.profile().barrier_mode,
            committed: Arc::new(dev.committed_groups().collect()),
            history: dev.history().map(|h| Arc::new(h.to_vec())),
            audit: None,
        };
        d.read_tail(dev);
        d
    }

    /// The device before its first write: where a delta cursor starts.
    fn empty(dev: &Device) -> DeviceState {
        let history = dev.history().map(|_| Arc::new(Vec::new()));
        DeviceState {
            base: Arc::new(BlockMap::new()),
            tail: Vec::new(),
            cache: Vec::new(),
            plp: dev.profile().plp,
            mode: dev.profile().barrier_mode,
            committed: Arc::new(BTreeSet::new()),
            audit: history.as_ref().map(|_| Arc::new(EpochIndex::new())),
            history,
        }
    }

    /// Rewrites the per-point parts — the unfolded tail and, under PLP,
    /// the cache — in place from the live device.
    fn read_tail(&mut self, dev: &Device) {
        self.tail.clear();
        self.tail.extend(dev.append_log().tail().copied());
        self.cache.clear();
        if self.plp {
            let cache = dev.cache().entries_in_order();
            self.cache.extend(cache.map(|(_, e)| (e.lba, e.tag)));
        }
    }

    /// Advances the device by one epoch's `delta` and re-reads its tail.
    /// Each fold is pushed onto `folds` as `(global block, tag before, tag
    /// after)`, `global` mapping this device's blocks into the stripe.
    /// Returns the epoch-audit index work done. `Arc::make_mut` writes in
    /// place while no kept point shares a part and copies it once when
    /// one does; a part the delta leaves alone is not touched.
    fn advance(
        &mut self,
        dev: &Device,
        delta: &DeviceCaptureDelta,
        global: impl Fn(Lba) -> Lba,
        folds: &mut Vec<(Lba, BlockTag, BlockTag)>,
    ) -> usize {
        if !delta.folds.is_empty() {
            let base = Arc::make_mut(&mut self.base);
            folds.extend(delta.folds.iter().map(|&(lba, tag)| {
                let before = base.insert(lba, tag).unwrap_or(BlockTag::UNWRITTEN);
                (global(lba), before, tag)
            }));
        }
        if !delta.committed_groups.is_empty() {
            Arc::make_mut(&mut self.committed).extend(delta.committed_groups.iter().copied());
        }
        // History is append-only: copy just the new suffix, and let the
        // audit index read the same suffix plus this epoch's folds.
        let mut work = 0;
        if let (Some(live), Some(history), Some(audit)) =
            (dev.history(), &mut self.history, &mut self.audit)
        {
            if live.len() > history.len() || !delta.folds.is_empty() {
                let h = Arc::make_mut(history);
                h.extend_from_slice(&live[h.len()..]);
                let folded = delta.folds.iter().map(|f| f.0);
                work = Arc::make_mut(audit).advance(live, folded, &*self.base);
            }
        }
        self.read_tail(dev);
        debug_assert!(
            self.base.as_ref() == dev.append_log().base(),
            "capture cursor base diverged from the live log — was \
             capture tracking enabled before the run started?"
        );
        debug_assert_eq!(self.committed.len(), dev.committed_groups().count());
        work
    }
}

/// A crash image of a point across its devices, stitched into the global
/// address space by the stripe layout (the identity on one device): device
/// `d` reads `overlays[d]` over its base, or its base alone when no
/// overlay is given (`overlays` empty).
pub(super) struct PointImage<'a> {
    pub(super) topology: Topology,
    pub(super) devices: &'a [DeviceState],
    pub(super) overlays: &'a [Overlay],
}

impl ImageView for PointImage<'_> {
    fn tag(&self, lba: Lba) -> BlockTag {
        let (di, local) = match self.devices {
            [_] => (0, lba),
            _ => self.topology.locate(lba),
        };
        let dev = &self.devices[di];
        match self.overlays.get(di) {
            Some(o) => o.tag(dev, local),
            None => dev.base.tag(local),
        }
    }
}

/// Everything needed to enumerate and check one capture point: the ground
/// truth transaction records plus per-device append-log state. A point the
/// delta cursor hands out borrows: its records are the running
/// filesystem's own, and its devices and consistency index are the
/// cursor's, rewritten in place at the next commit. [`CrashPoint::owned`]
/// is the copy a caller keeps.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashPoint<'a> {
    /// Commit count at the capture (the cross-stack alignment key).
    pub commit_idx: usize,
    /// Ground-truth transaction records at the capture.
    pub records: Cow<'a, [TxnRecord]>,
    /// [`barrier_io::ConsistencyCheck`] over `records`, indexed under the
    /// devices' bases.
    pub(super) check: Cow<'a, ConsistencyIndex>,
    pub(super) devices: Cow<'a, [DeviceState]>,
    pub(super) topology: Topology,
}

impl CrashPoint<'_> {
    /// This point owning all of its parts: what a caller that keeps points
    /// stores. The devices' `Arc` parts are shared with the cursor until
    /// its next capture writes them.
    pub fn owned(&self) -> CrashPoint<'static> {
        CrashPoint {
            commit_idx: self.commit_idx,
            records: Cow::Owned(self.records.to_vec()),
            check: Cow::Owned(self.check.as_ref().clone()),
            devices: Cow::Owned(self.devices.to_vec()),
            topology: self.topology,
        }
    }

    /// The point's base image across its devices.
    fn bases(&self) -> PointImage<'_> {
        PointImage {
            topology: self.topology,
            devices: &self.devices,
            overlays: &[],
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
        check.advance(&self.records, [], &[], &self.bases());
        self.check = Cow::Owned(check);
    }
}

impl CrashPoint<'static> {
    /// The live stack as a plain-data crash point built from nothing: every
    /// part read through borrowed accessors and materialized, both check
    /// indexes built from scratch. Shares nothing with any cursor.
    fn capture(stack: &IoStack) -> CrashPoint<'static> {
        let records = stack.fs().records();
        let mut point = CrashPoint {
            commit_idx: records.len(),
            records: Cow::Owned(records.to_vec()),
            check: Cow::Owned(ConsistencyIndex::new()),
            devices: stack.devices().iter().map(DeviceState::capture).collect(),
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
    devices: Vec<DeviceState>,
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
            devices: stack.devices().iter().map(DeviceState::empty).collect(),
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
        let records = stack.fs().records();
        let bases = PointImage {
            topology,
            devices: &self.devices,
            overlays: &[],
        };
        self.last_index_work += self.check.advance(
            records,
            self.folds.drain(..),
            &self.delta.records_marked_durable,
            &bases,
        );
        CrashPoint {
            commit_idx: records.len(),
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
        let n = stack.fs().records().len();
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

/// Hand-made state for the unit tests of this module tree.
#[cfg(test)]
impl DeviceState {
    /// A device holding `log` and nothing else.
    pub(super) fn of_log(mode: BarrierMode, plp: bool, log: &bio_flash::AppendLog) -> DeviceState {
        DeviceState {
            base: Arc::new(log.base().clone()),
            tail: log.tail().copied().collect(),
            cache: Vec::new(),
            plp,
            mode,
            committed: Arc::new(BTreeSet::new()),
            history: None,
            audit: None,
        }
    }
}

#[cfg(test)]
impl CrashPoint<'static> {
    /// A one-device point, indexed from nothing.
    pub(super) fn of_device(
        commit_idx: usize,
        records: Vec<TxnRecord>,
        dev: DeviceState,
    ) -> CrashPoint<'static> {
        let mut p = CrashPoint {
            commit_idx,
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
            records.len() + claimed + devices.sum::<usize>()
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
                if stack.fs().records().len() > commits {
                    commits = stack.fs().records().len();
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
        for DiffCell {
            label, cfg, sync, ..
        } in differential_cells()
        {
            let delta = capture_points(cfg.clone(), sync, 3, CaptureMode::Delta);
            let scratch = capture_points(cfg, sync, 3, CaptureMode::Scratch);
            assert!(!delta.is_empty(), "{label}: no capture points");
            assert_eq!(delta, scratch, "{label}: capture paths diverge");
        }
    }
}
