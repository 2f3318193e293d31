//! Capture: the plain-data [`CrashPoint`], the delta cursor that builds
//! each point from the previous one, and the trace driver that captures
//! at every journal commit.

use std::collections::BTreeSet;
use std::sync::Arc;

use barrier_io::{
    ConsistencyIndex, DeviceCaptureDelta, FileRef, IoStack, StackConfig, Topology, TxnRecord,
};
use bio_flash::{
    AppendRec, BarrierMode, BlockMap, BlockTag, Device, EpochIndex, ImageView, Lba, TransferRec,
};
use bio_sim::SimDuration;
use bio_workloads::{RandWrite, SyncMode, WriteMode};

/// Syncs per differential trace; each write+sync pair forces one journal
/// commit, i.e. one capture point.
pub(crate) const TRACE_OPS: u64 = 100;

/// Steps without a new commit after which a trace is considered drained
/// (backstop behind the quiescence early-exit, which normally ends the
/// trace as soon as the journal settles).
const STALE_STEP_LIMIT: u64 = 200_000;

/// Snapshot of one device at a capture point. The folded base image, the
/// committed-group set, the transfer history and the epoch-audit index
/// are `Arc`-shared with the capture cursor (and through it with
/// neighbouring points): only the unfolded tail, the cache and the
/// scalars are per-point.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct DeviceState {
    /// Folded durable prefix of the append log (shared, immutable).
    pub(super) base: Arc<BlockMap>,
    /// Unfolded tail records, in append order.
    pub(super) tail: Vec<AppendRec>,
    /// Writeback-cache content in insertion order — captured under PLP
    /// only, the one case where the cache survives a crash.
    pub(super) cache: Vec<(Lba, BlockTag)>,
    pub(super) plp: bool,
    pub(super) mode: BarrierMode,
    /// Committed transactional-writeback groups (shared, immutable).
    pub(super) committed: Arc<BTreeSet<u64>>,
    /// Transfer history prefix at the capture (shared, immutable).
    pub(super) history: Option<Arc<Vec<TransferRec>>>,
    /// [`bio_flash::EpochAudit`] over `history`, indexed under `base`
    /// (shared, immutable; present exactly when `history` is).
    pub(super) audit: Option<Arc<EpochIndex>>,
}

impl DeviceState {
    /// Captures one device through borrowed accessors. With a cursor the
    /// shared parts are `Arc`-clones of the cursor's delta-maintained
    /// copies (O(1)); without one they are materialized from the device
    /// (O(state)) and `audit` is left to [`CrashPoint::reindex`].
    fn capture(dev: &Device, cursor: Option<&DeviceCursor>) -> DeviceState {
        let log = dev.append_log();
        let plp = dev.profile().plp;
        DeviceState {
            base: match cursor {
                Some(c) => Arc::clone(&c.base),
                None => Arc::new(log.base().clone()),
            },
            tail: log.tail().copied().collect(),
            cache: if plp {
                dev.cache()
                    .entries_in_order()
                    .map(|(_, e)| (e.lba, e.tag))
                    .collect()
            } else {
                Vec::new()
            },
            plp,
            mode: dev.profile().barrier_mode,
            committed: match cursor {
                Some(c) => Arc::clone(&c.committed),
                None => Arc::new(dev.committed_groups().collect()),
            },
            history: match cursor {
                Some(c) => c.history.clone(),
                None => dev.history().map(|h| Arc::new(h.to_vec())),
            },
            audit: cursor.and_then(|c| c.audit.clone()),
        }
    }
}

/// Device-local views stitched into the global address space by the
/// stripe layout (the identity on one device).
pub(super) struct Striped<'a, V> {
    pub(super) topology: Topology,
    pub(super) locals: &'a [V],
}

impl<V: ImageView> ImageView for Striped<'_, V> {
    fn tag(&self, lba: Lba) -> BlockTag {
        match self.locals {
            [only] => only.tag(lba),
            locals => {
                let (di, local) = self.topology.locate(lba);
                locals[di].tag(local)
            }
        }
    }
}

/// Everything needed to enumerate and check one capture point: the ground
/// truth transaction records plus per-device append-log state.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashPoint {
    /// Commit count at the capture (the cross-stack alignment key).
    pub commit_idx: usize,
    /// Ground-truth transaction records at the capture (shared with the
    /// cursor; copy-on-write across durability flips).
    pub records: Arc<Vec<TxnRecord>>,
    /// [`barrier_io::ConsistencyCheck`] over `records`, indexed under the
    /// devices' bases (shared with the cursor, copy-on-write).
    pub(super) check: Arc<ConsistencyIndex>,
    pub(super) devices: Vec<DeviceState>,
    pub(super) topology: Topology,
}

impl CrashPoint {
    /// Captures the live stack into a plain-data crash point, reading
    /// through borrowed accessors only. With a cursor the records, the
    /// check index and the per-device shared parts are `Arc`-clones of
    /// the cursor's delta-maintained state; without one they are built
    /// from the stack and share nothing with any cursor.
    fn capture(stack: &IoStack, cursor: Option<&CaptureCursor>) -> CrashPoint {
        let records = match cursor {
            Some(c) => Arc::clone(&c.records),
            None => Arc::new(stack.fs().records().to_vec()),
        };
        let devices = stack
            .devices()
            .iter()
            .enumerate()
            .map(|(i, d)| DeviceState::capture(d, cursor.map(|c| &c.devices[i])))
            .collect();
        let mut point = CrashPoint {
            commit_idx: records.len(),
            records,
            check: cursor.map(|c| Arc::clone(&c.check)).unwrap_or_default(),
            devices,
            topology: stack.config().topology,
        };
        if cursor.is_none() {
            point.reindex();
        }
        point
    }

    /// Builds both check indexes from nothing: the records under the
    /// devices' bases, each transfer history under its device's base.
    pub(super) fn reindex(&mut self) {
        for d in &mut self.devices {
            d.audit = d.history.as_deref().map(|history| {
                let mut index = EpochIndex::new();
                index.advance(history, [], &*d.base);
                Arc::new(index)
            });
        }
        let bases: Vec<_> = self.devices.iter().map(|d| &*d.base).collect();
        let mut check = ConsistencyIndex::new();
        check.advance(
            &self.records,
            [],
            &[],
            &Striped {
                topology: self.topology,
                locals: &bases,
            },
        );
        self.check = Arc::new(check);
    }
}

/// Per-device half of the capture cursor: `Arc`-backed copies of the
/// folded base image, committed groups, transfer history and epoch-audit
/// index, advanced by each epoch's [`DeviceCaptureDelta`] instead of
/// being re-read.
#[derive(Debug, Clone)]
struct DeviceCursor {
    base: Arc<BlockMap>,
    committed: Arc<BTreeSet<u64>>,
    history: Option<Arc<Vec<TransferRec>>>,
    audit: Option<Arc<EpochIndex>>,
}

impl DeviceCursor {
    fn new() -> DeviceCursor {
        DeviceCursor {
            base: Arc::new(BlockMap::new()),
            committed: Arc::new(BTreeSet::new()),
            history: None,
            audit: None,
        }
    }

    /// Advances the cursor by one epoch's delta and returns the folds as
    /// `(block, tag before, tag after)` plus the index work done.
    /// `Arc::make_mut` keeps this O(delta) when the previous point has
    /// been dropped (the enumerate-and-drop hot path) and silently
    /// degrades to a copy-on-write clone when it is retained.
    fn delta_apply(
        &mut self,
        dev: &Device,
        delta: DeviceCaptureDelta,
    ) -> (Vec<(Lba, BlockTag, BlockTag)>, usize) {
        let mut base = std::mem::take(&mut self.base);
        let folds: Vec<(Lba, BlockTag, BlockTag)> = {
            let map = Arc::make_mut(&mut base);
            delta
                .folds
                .into_iter()
                .map(|(lba, tag)| {
                    let before = map.insert(lba, tag).unwrap_or(BlockTag::UNWRITTEN);
                    (lba, before, tag)
                })
                .collect()
        };
        let mut committed = std::mem::take(&mut self.committed);
        {
            let set = Arc::make_mut(&mut committed);
            for g in delta.committed_groups {
                set.insert(g);
            }
        }
        // History is append-only: copy just the new suffix, and let the
        // audit index read the same suffix plus this epoch's folds.
        let mut work = 0;
        let (history, audit) = match dev.history() {
            Some(live) => {
                let mut arc = self.history.take().unwrap_or_default();
                let h = Arc::make_mut(&mut arc);
                h.extend_from_slice(&live[h.len()..]);
                let mut audit = self.audit.take().unwrap_or_default();
                work = Arc::make_mut(&mut audit).advance(live, folds.iter().map(|f| f.0), &*base);
                (Some(arc), Some(audit))
            }
            None => (None, None),
        };
        *self = DeviceCursor {
            base,
            committed,
            history,
            audit,
        };
        debug_assert!(
            self.base.as_ref() == dev.append_log().base(),
            "capture cursor base diverged from the live log — was \
             capture tracking enabled before the run started?"
        );
        debug_assert_eq!(self.committed.len(), dev.committed_groups().count());
        (folds, work)
    }
}

/// Incremental capture state across one trace: holds the previous point's
/// shared (`Arc`-backed) parts and advances them by each epoch's delta,
/// so a capture costs O(writes since the previous capture).
#[derive(Debug, Clone)]
struct CaptureCursor {
    records: Arc<Vec<TxnRecord>>,
    check: Arc<ConsistencyIndex>,
    devices: Vec<DeviceCursor>,
    /// Verdicts the two indexes recomputed during the last capture.
    last_index_work: usize,
}

impl CaptureCursor {
    /// An empty cursor; the first capture initializes per-device state.
    fn new() -> CaptureCursor {
        CaptureCursor {
            records: Arc::new(Vec::new()),
            check: Arc::new(ConsistencyIndex::new()),
            devices: Vec::new(),
            last_index_work: 0,
        }
    }

    /// Drains the stack's capture delta and builds the next crash point
    /// incrementally. Requires [`IoStack::enable_capture_tracking`] to
    /// have been called before the run started.
    fn capture(&mut self, stack: &mut IoStack) -> CrashPoint {
        let delta = stack.take_capture_delta();
        {
            let recs = Arc::make_mut(&mut self.records);
            let live = stack.fs().records();
            recs.extend_from_slice(&live[recs.len()..]);
            // Durability flips are the only in-place record mutation;
            // records just copied from the live slice already carry them.
            for id in &delta.records_marked_durable {
                let i = recs
                    .binary_search_by_key(id, |r| r.id)
                    .expect("durable mark names a recorded txn");
                recs[i].durability_claimed = true;
            }
            debug_assert_eq!(recs.len(), live.len());
        }
        if self.devices.is_empty() {
            self.devices = stack
                .devices()
                .iter()
                .map(|_| DeviceCursor::new())
                .collect();
        }
        let topology = stack.config().topology;
        let mut folds = Vec::new();
        self.last_index_work = 0;
        for (di, ((cur, dev), d)) in self
            .devices
            .iter_mut()
            .zip(stack.devices())
            .zip(delta.devices)
            .enumerate()
        {
            let (local, work) = cur.delta_apply(dev, d);
            folds.extend(
                local
                    .into_iter()
                    .map(|(lba, before, after)| (topology.global(di, lba), before, after)),
            );
            self.last_index_work += work;
        }
        let bases: Vec<_> = self.devices.iter().map(|d| &*d.base).collect();
        self.last_index_work += Arc::make_mut(&mut self.check).advance(
            &self.records,
            folds,
            &delta.records_marked_durable,
            &Striped {
                topology,
                locals: &bases,
            },
        );
        CrashPoint::capture(stack, Some(self))
    }
}

/// How crash points are captured from the running trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureMode {
    /// Each point built from the previous one plus the epoch's delta
    /// (what [`super::run`] uses).
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
/// finished (with [`STALE_STEP_LIMIT`] as a backstop).
pub(super) fn drive<F: FnMut(CrashPoint)>(
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
            Some(CaptureCursor::new())
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
            on_point(match &mut cursor {
                Some(cursor) => cursor.capture(&mut stack),
                None => CrashPoint::capture(&stack, None),
            });
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
}

/// Captures (without enumerating) every crash point of one trace.
pub fn capture_points(
    cfg: StackConfig,
    sync: SyncMode,
    seed: u64,
    mode: CaptureMode,
) -> Vec<CrashPoint> {
    let mut points = Vec::new();
    drive(cfg, sync, seed, TRACE_OPS, mode, |p| points.push(p));
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
impl CrashPoint {
    /// A one-device point, indexed from nothing.
    pub(super) fn of_device(
        commit_idx: usize,
        records: Vec<TxnRecord>,
        dev: DeviceState,
    ) -> CrashPoint {
        let mut p = CrashPoint {
            commit_idx,
            records: Arc::new(records),
            check: Arc::default(),
            devices: vec![dev],
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
            let mut cursor = CaptureCursor::new();
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
