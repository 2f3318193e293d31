//! Exhaustive crash-point enumeration with differential recovery checking.
//!
//! The legacy ablation ([`crate::experiments::ablation_crash`]) samples one
//! random wall-clock crash per seed and replays the whole trace from t=0 for
//! every sample. This module explores the crash space exhaustively: each
//! trace runs **once**, the live stack is captured at every barrier-epoch
//! boundary (journal commit), and for every capture point the enumerator
//! walks *all* persisted images the device's barrier mode admits for the
//! in-flight flash programs:
//!
//! * [`BarrierMode::LfsInOrderRecovery`] — firmware recovery truncates at
//!   the first unprogrammed page (§3.2), so the admissible images are the
//!   n+1 tail prefixes cut at each in-flight program ("first hole").
//! * [`BarrierMode::InOrderWriteback`] / [`BarrierMode::Unsupported`] — any
//!   subset of in-flight programs may have retired: 2^n images.
//! * [`BarrierMode::Transactional`] — uncommitted groups land
//!   all-or-nothing: one bit per open group.
//! * PLP (supercap) devices yield a single image: everything survives.
//!
//! # Capture architecture: zero-clone + delta snapshots
//!
//! The first generation of this engine called [`IoStack::fork`] at every
//! commit — a deep clone of the calendar queue, journal, lanes and device
//! models — only to flatten the fork into a plain-data [`CrashPoint`] and
//! drop it. Capture is now two-tier:
//!
//! 1. **Zero-clone capture** — [`extract_point`] reads the live stack
//!    through borrowed accessors (`&AppendLog` tail, cache snapshot,
//!    committed groups, txn records); nothing outside the point itself is
//!    cloned.
//! 2. **Delta snapshots** — a [`CaptureCursor`] holds the previous point's
//!    `Arc`-backed base image, committed-group set and record history;
//!    the stack journals its per-epoch dirty sets (blocks folded, groups
//!    committed, records marked durable) and the next point is built from
//!    the previous one plus that delta — O(writes-this-epoch), not
//!    O(log length). The shared parts are immutable behind `Arc`;
//!    copy-on-write (`Arc::make_mut`) keeps retained points intact.
//!
//! The fork-based path stays as [`CaptureMode::Fork`], the differential
//! reference `tests/capture_equivalence.rs` holds the delta engine to:
//! both paths must produce bit-identical [`CrashPoint`]s, verdicts and
//! dedup counts.
//!
//! Subset/group spaces are enumerated exhaustively up to [`MAX_FREE_BITS`]
//! free choices per device and [`MAX_IMAGES_PER_POINT`] images per capture
//! point; clamping is counted, never silent, and clamped points are
//! additionally covered by **stratified sampling**: seeded strata over
//! subset cardinality draw reorderings from the *full* free list (up to 64
//! bits), with sampled-vs-exhaustive coverage reported in [`CrashStats`].
//!
//! **Differential recovery**: the same op trace runs against EXT4-DR,
//! BFS-DR and BFS-OD, at the 1q×1dev topology and again at 2q×2dev;
//! capture points align across stacks of the same topology by commit
//! count. Every enumerated image must recover to a clean transaction
//! prefix (no commit-order / torn-transaction / ordered-data /
//! durability-loss violation and no epoch-order violation). A stack that
//! violates where a peer stays clean at the same aligned point is a
//! cross-stack divergence, reported as a minimized
//! `(trace seed, capture point, reordering choice)` triple.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use barrier_io::{
    ConsistencyCheck, DeviceCaptureDelta, DeviceProfile, FileRef, IoStack, StackConfig, Topology,
    TxnRecord,
};
use bio_flash::{
    AppendRec, BarrierMode, BlockTag, Device, EpochAudit, ImageView, Lba, TransferRec,
};
use bio_sim::{SimDuration, SimRng};
use bio_workloads::{RandWrite, SyncMode, WriteMode};

use crate::{print_table, ExperimentGrid};

/// Free nondeterministic program-completion bits enumerated per device
/// (2^8 = 256 subsets before the exhaustive window is clamped).
pub const MAX_FREE_BITS: usize = 8;

/// Hard cap on exhaustively enumerated images per capture point
/// (cross-device product).
pub const MAX_IMAGES_PER_POINT: u64 = 256;

/// Reorderings drawn per cardinality stratum when a clamped point is
/// covered by stratified sampling.
pub const SAMPLES_PER_STRATUM: u64 = 4;

/// Widest free list the sampler draws from (a reordering choice is a
/// `u64` bitmask, so 64 bits — 8x the exhaustive window).
const MAX_SAMPLE_BITS: usize = 64;

/// Syncs per differential trace; each write+sync pair forces one journal
/// commit, i.e. one capture point.
const TRACE_OPS: u64 = 100;

/// Steps without a new commit after which a trace is considered drained
/// (backstop behind the quiescence early-exit, which normally ends the
/// trace as soon as the journal settles).
const STALE_STEP_LIMIT: u64 = 200_000;

// ---------------------------------------------------------------------
// Capture-point snapshot (plain data, `Send`, structurally shared).
// ---------------------------------------------------------------------

/// Snapshot of one device at a capture point. The folded base image and
/// the committed-group set are `Arc`-shared with the capture cursor (and
/// through it with neighbouring points): only the unfolded tail, the
/// cache and the scalars are per-point.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceState {
    /// Folded durable prefix of the append log (shared, immutable).
    base: Arc<BTreeMap<Lba, BlockTag>>,
    /// Unfolded tail records, in append order.
    tail: Vec<AppendRec>,
    cache: Vec<(Lba, BlockTag)>,
    plp: bool,
    mode: BarrierMode,
    /// Committed transactional-writeback groups (shared, immutable).
    committed: Arc<BTreeSet<u64>>,
    /// Transfer history prefix at the capture (shared, immutable).
    history: Option<Arc<Vec<TransferRec>>>,
}

impl DeviceState {
    /// Captures one device through borrowed accessors. With a cursor the
    /// shared parts are `Arc`-clones of the cursor's delta-maintained
    /// copies (O(1)); without one they are materialized from the device
    /// (O(state), the fork-path reference behaviour).
    fn capture(dev: &Device, cursor: Option<&DeviceCursor>) -> DeviceState {
        let log = dev.append_log();
        DeviceState {
            base: match cursor {
                Some(c) => Arc::clone(&c.base),
                None => Arc::new(log.base().clone()),
            },
            tail: log.tail().copied().collect(),
            cache: dev
                .cache()
                .entries_in_order()
                .map(|(_, e)| (e.lba, e.tag))
                .collect(),
            plp: dev.profile().plp,
            mode: dev.profile().barrier_mode,
            committed: match cursor {
                Some(c) => Arc::clone(&c.committed),
                None => Arc::new(dev.committed_groups().collect()),
            },
            history: match cursor {
                Some(c) => c.history.clone(),
                None => dev.history().map(|h| Arc::new(h.to_vec())),
            },
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
    devices: Vec<DeviceState>,
    topology: Topology,
}

impl CrashPoint {
    /// Captures the live stack into a plain-data crash point, reading
    /// through borrowed accessors only. With a cursor the records and the
    /// per-device shared parts are `Arc`-clones of the cursor's
    /// delta-maintained state.
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
        CrashPoint {
            commit_idx: records.len(),
            records,
            devices,
            topology: stack.config().topology,
        }
    }
}

/// Snapshots a stack into a plain-data crash point through borrowed
/// accessors — no fork, no shared state with any cursor.
pub fn extract_point(stack: &IoStack) -> CrashPoint {
    CrashPoint::capture(stack, None)
}

// ---------------------------------------------------------------------
// Delta capture: the cursor that builds each point from the previous one.
// ---------------------------------------------------------------------

/// Per-device half of the capture cursor: `Arc`-backed copies of the
/// folded base image, committed groups and transfer history, advanced by
/// each epoch's [`DeviceCaptureDelta`] instead of being re-read.
#[derive(Debug, Clone)]
struct DeviceCursor {
    base: Arc<BTreeMap<Lba, BlockTag>>,
    committed: Arc<BTreeSet<u64>>,
    history: Option<Arc<Vec<TransferRec>>>,
}

impl DeviceCursor {
    fn new() -> DeviceCursor {
        DeviceCursor {
            base: Arc::new(BTreeMap::new()),
            committed: Arc::new(BTreeSet::new()),
            history: None,
        }
    }

    /// Advances the cursor by one epoch's delta. `Arc::make_mut` keeps
    /// this O(delta) when the previous point has been dropped (the
    /// enumerate-and-drop hot path) and silently degrades to a
    /// copy-on-write clone when it is retained.
    fn delta_apply(&mut self, dev: &Device, delta: DeviceCaptureDelta) {
        let mut base = std::mem::take(&mut self.base);
        {
            let map = Arc::make_mut(&mut base);
            for (lba, tag) in delta.folds {
                map.insert(lba, tag);
            }
        }
        let mut committed = std::mem::take(&mut self.committed);
        {
            let set = Arc::make_mut(&mut committed);
            for g in delta.committed_groups {
                set.insert(g);
            }
        }
        // History is append-only: copy just the new suffix.
        let history = match dev.history() {
            Some(live) => {
                let mut arc = self.history.take().unwrap_or_default();
                let h = Arc::make_mut(&mut arc);
                h.extend_from_slice(&live[h.len()..]);
                Some(arc)
            }
            None => None,
        };
        *self = DeviceCursor {
            base,
            committed,
            history,
        };
        debug_assert!(
            self.base.as_ref() == dev.append_log().base(),
            "capture cursor base diverged from the live log — was \
             capture tracking enabled before the run started?"
        );
        debug_assert_eq!(self.committed.len(), dev.committed_groups().count());
    }
}

/// Incremental capture state across one trace: holds the previous point's
/// shared (`Arc`-backed) parts and advances them by each epoch's delta,
/// so a capture costs O(writes since the previous capture).
#[derive(Debug, Clone)]
pub struct CaptureCursor {
    records: Arc<Vec<TxnRecord>>,
    devices: Vec<DeviceCursor>,
}

impl CaptureCursor {
    /// An empty cursor; the first capture initializes per-device state.
    pub fn new() -> CaptureCursor {
        CaptureCursor {
            records: Arc::new(Vec::new()),
            devices: Vec::new(),
        }
    }

    /// Drains the stack's capture delta and builds the next crash point
    /// incrementally. Requires [`IoStack::enable_capture_tracking`] to
    /// have been called before the run started.
    pub fn capture(&mut self, stack: &mut IoStack) -> CrashPoint {
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
        for ((cur, dev), d) in self
            .devices
            .iter_mut()
            .zip(stack.devices())
            .zip(delta.devices)
        {
            cur.delta_apply(dev, d);
        }
        CrashPoint::capture(stack, Some(self))
    }
}

impl Default for CaptureCursor {
    fn default() -> CaptureCursor {
        CaptureCursor::new()
    }
}

/// How crash points are captured from the running trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureMode {
    /// Zero-clone capture with delta snapshots (what [`run`] uses).
    Delta,
    /// Deep-fork the whole stack at every commit (the first-generation
    /// path, kept as a differential reference).
    Fork,
}

// ---------------------------------------------------------------------
// Admissible-image enumeration.
// ---------------------------------------------------------------------

/// The reordering choice space of one device at one capture point.
#[derive(Debug, Clone)]
enum ChoiceSpace {
    /// PLP: a single image, everything (including the cache) survives.
    Single,
    /// LFS in-order recovery: hole positions (tail indices of in-flight
    /// programs); choice `c` cuts the prefix at `holes[c]`, choice
    /// `holes.len()` keeps the full tail.
    Prefix(Vec<usize>),
    /// Orderless / in-order writeback: free in-flight indices, one bit
    /// each (bit set = that program retired before power loss). Holds the
    /// full free list (up to [`MAX_SAMPLE_BITS`]); the exhaustive window
    /// enumerates the first [`MAX_FREE_BITS`] bits, the sampler draws
    /// from all of them.
    Subset(Vec<usize>),
    /// Transactional writeback: open (uncommitted) groups, one
    /// all-or-nothing bit each (full list, like `Subset`).
    Groups(Vec<u64>),
}

impl ChoiceSpace {
    /// Choices enumerated exhaustively (the pre-sampling window).
    fn exhaustive_choices(&self) -> u64 {
        match self {
            ChoiceSpace::Single => 1,
            ChoiceSpace::Prefix(holes) => holes.len() as u64 + 1,
            ChoiceSpace::Subset(free) => 1u64 << free.len().min(MAX_FREE_BITS),
            ChoiceSpace::Groups(gs) => 1u64 << gs.len().min(MAX_FREE_BITS),
        }
    }

    /// Width of the full choice space, in sampling strata.
    fn sample_bits(&self) -> usize {
        match self {
            ChoiceSpace::Single => 0,
            ChoiceSpace::Prefix(holes) => holes.len(),
            ChoiceSpace::Subset(free) => free.len(),
            ChoiceSpace::Groups(gs) => gs.len(),
        }
    }

    /// One stratified draw at cardinality stratum `k`: a choice whose
    /// reordering keeps (about) `k` extra programs alive, drawn uniformly
    /// from the full free list.
    fn sample_choice(&self, k: usize, rng: &mut SimRng) -> u64 {
        fn draw_mask(n: usize, k: usize, rng: &mut SimRng) -> u64 {
            let k = k.min(n);
            let mut idx: Vec<usize> = (0..n).collect();
            let mut mask = 0u64;
            for i in 0..k {
                let j = i + rng.below((n - i) as u64) as usize;
                idx.swap(i, j);
                mask |= 1u64 << idx[i];
            }
            mask
        }
        match self {
            ChoiceSpace::Single => 0,
            ChoiceSpace::Prefix(holes) => k.min(holes.len()) as u64,
            ChoiceSpace::Subset(free) => draw_mask(free.len(), k, rng),
            ChoiceSpace::Groups(gs) => draw_mask(gs.len(), k, rng),
        }
    }
}

/// One admissible crash image as a copy-on-write overlay: the shared
/// folded base plus the resolved survival of every tail (and, for PLP,
/// cache) block. Covers the *same* block set for every choice of a
/// point, so overlay equality is image equality and the overlay doubles
/// as the dedup key — no base clone per image.
struct OverlayView<'a> {
    base: &'a BTreeMap<Lba, BlockTag>,
    over: BTreeMap<Lba, BlockTag>,
}

impl ImageView for OverlayView<'_> {
    fn tag(&self, lba: Lba) -> BlockTag {
        match self.over.get(&lba) {
            Some(&t) => t,
            None => self.base.get(&lba).copied().unwrap_or(BlockTag::UNWRITTEN),
        }
    }
}

impl OverlayView<'_> {
    /// Materializes the overlay into a standalone image (test oracle).
    #[cfg(test)]
    fn materialize(&self) -> bio_flash::PersistedImage {
        let mut map = self.base.clone();
        for (&lba, &tag) in &self.over {
            if tag == BlockTag::UNWRITTEN {
                map.remove(&lba);
            } else {
                map.insert(lba, tag);
            }
        }
        bio_flash::PersistedImage::from_map(map)
    }
}

/// The cross-device image of one choice combination: device-local views
/// stitched by the stripe layout (trivial on one device).
enum StackImage<'a> {
    Single(&'a OverlayView<'a>),
    Striped {
        topology: Topology,
        locals: &'a [OverlayView<'a>],
    },
}

impl ImageView for StackImage<'_> {
    fn tag(&self, lba: Lba) -> BlockTag {
        match self {
            StackImage::Single(v) => v.tag(lba),
            StackImage::Striped { topology, locals } => {
                let (di, local) = topology.locate(lba);
                locals[di].tag(local)
            }
        }
    }
}

impl DeviceState {
    /// The admissible choice space under this device's barrier mode, plus
    /// whether exhaustive enumeration has to clamp it to [`MAX_FREE_BITS`].
    fn choice_space(&self) -> (ChoiceSpace, bool) {
        if self.plp {
            return (ChoiceSpace::Single, false);
        }
        let inflight: Vec<usize> = self
            .tail
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.done)
            .map(|(i, _)| i)
            .collect();
        match self.mode {
            BarrierMode::LfsInOrderRecovery => (ChoiceSpace::Prefix(inflight), false),
            BarrierMode::InOrderWriteback | BarrierMode::Unsupported => {
                let clamped = inflight.len() > MAX_FREE_BITS;
                let mut free = inflight;
                free.truncate(MAX_SAMPLE_BITS);
                (ChoiceSpace::Subset(free), clamped)
            }
            BarrierMode::Transactional => {
                let mut groups: Vec<u64> = Vec::new();
                for r in &self.tail {
                    if let Some(g) = r.group {
                        if !self.committed.contains(&g) && !groups.contains(&g) {
                            groups.push(g);
                        }
                    }
                }
                let clamped = groups.len() > MAX_FREE_BITS;
                groups.truncate(MAX_SAMPLE_BITS);
                (ChoiceSpace::Groups(groups), clamped)
            }
        }
    }

    /// The overlay for one choice. Choice 0 always reproduces the
    /// device's own deterministic [`bio_flash::Device::crash_image`].
    fn view_for(&self, space: &ChoiceSpace, choice: u64) -> OverlayView<'_> {
        let mut over: BTreeMap<Lba, BlockTag> = BTreeMap::new();
        match space {
            ChoiceSpace::Single => {
                for r in &self.tail {
                    over.insert(r.lba, r.tag);
                }
                for &(lba, tag) in &self.cache {
                    over.insert(lba, tag);
                }
            }
            ChoiceSpace::Prefix(holes) => {
                let cut = holes
                    .get(choice as usize)
                    .copied()
                    .unwrap_or(self.tail.len());
                for r in &self.tail[..cut] {
                    over.insert(r.lba, r.tag);
                }
            }
            ChoiceSpace::Subset(free) => {
                let mut mask: Vec<bool> = self.tail.iter().map(|r| r.done).collect();
                for (bit, &idx) in free.iter().enumerate() {
                    if choice & (1u64 << bit) != 0 {
                        mask[idx] = true;
                    }
                }
                for (r, &keep) in self.tail.iter().zip(&mask) {
                    if keep {
                        over.insert(r.lba, r.tag);
                    }
                }
            }
            ChoiceSpace::Groups(gs) => {
                let survive: Vec<u64> = gs
                    .iter()
                    .enumerate()
                    .filter(|(bit, _)| choice & (1u64 << *bit) != 0)
                    .map(|(_, &g)| g)
                    .collect();
                for r in &self.tail {
                    let keep = r.done
                        && r.group
                            .is_none_or(|g| self.committed.contains(&g) || survive.contains(&g));
                    if keep {
                        over.insert(r.lba, r.tag);
                    }
                }
            }
        }
        // Canonical cover: every tail block resolves, the masked-out ones
        // to the base version (UNWRITTEN when the base never held them).
        for r in &self.tail {
            over.entry(r.lba).or_insert_with(|| {
                self.base
                    .get(&r.lba)
                    .copied()
                    .unwrap_or(BlockTag::UNWRITTEN)
            });
        }
        OverlayView {
            base: &self.base,
            over,
        }
    }
}

/// A violating reordering, minimized: per-device choice ids after greedy
/// reduction toward the deterministic baseline (choice 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationCase {
    /// Per-device reordering choice (bitmask or hole index).
    pub choices: Vec<u64>,
    /// Filesystem-level violations at this choice.
    pub fs_violations: usize,
    /// Device epoch-order violations at this choice.
    pub epoch_violations: usize,
    /// First violation, rendered.
    pub detail: String,
}

/// Per-point enumeration context: the choice spaces plus both checkers
/// with their record/history-only tables hoisted out of the image loop.
struct PointCtx<'a> {
    p: &'a CrashPoint,
    spaces: &'a [ChoiceSpace],
    checker: ConsistencyCheck<'a>,
    audits: Vec<Option<EpochAudit<'a>>>,
}

impl<'a> PointCtx<'a> {
    fn new(p: &'a CrashPoint, spaces: &'a [ChoiceSpace]) -> PointCtx<'a> {
        PointCtx {
            p,
            spaces,
            checker: ConsistencyCheck::new(&p.records),
            audits: p
                .devices
                .iter()
                .map(|d| d.history.as_deref().map(|h| EpochAudit::new(h)))
                .collect(),
        }
    }

    fn views(&self, choices: &[u64]) -> Vec<OverlayView<'a>> {
        self.p
            .devices
            .iter()
            .zip(self.spaces)
            .zip(choices)
            .map(|((d, s), &c)| d.view_for(s, c))
            .collect()
    }

    fn global<'v>(&self, views: &'v [OverlayView<'a>]) -> StackImage<'v> {
        if self.p.topology.nr_devices == 1 {
            StackImage::Single(&views[0])
        } else {
            StackImage::Striped {
                topology: self.p.topology,
                locals: views,
            }
        }
    }

    /// Violation counts of one choice combination.
    fn counts(&self, views: &[OverlayView<'a>]) -> (usize, usize) {
        let fsv = self.checker.violations(&self.global(views)).len();
        let mut epv = 0usize;
        for (audit, v) in self.audits.iter().zip(views) {
            if let Some(a) = audit {
                epv += a.violations(v).len();
            }
        }
        (fsv, epv)
    }

    /// Runs both checkers over one choice combination: returns
    /// `(fs violations, epoch violations, first violation rendered)`.
    fn check_choice(&self, choices: &[u64]) -> (usize, usize, String) {
        let views = self.views(choices);
        let fsv = self.checker.violations(&self.global(&views));
        let mut epv = 0usize;
        let mut detail = String::new();
        for (audit, v) in self.audits.iter().zip(&views) {
            if let Some(a) = audit {
                let viols = a.violations(v);
                if detail.is_empty() {
                    if let Some(first) = viols.first() {
                        detail = format!("{first:?}");
                    }
                }
                epv += viols.len();
            }
        }
        if detail.is_empty() {
            if let Some(first) = fsv.first() {
                detail = format!("{first:?}");
            }
        }
        (fsv.len(), epv, detail)
    }

    /// Greedily shrinks a violating choice combination: clears
    /// subset/group bits and lowers prefix cuts while the combination
    /// still violates.
    fn minimize(&self, mut choices: Vec<u64>) -> Vec<u64> {
        let violates = |c: &[u64]| {
            let (f, e, _) = self.check_choice(c);
            f + e > 0
        };
        for _ in 0..4 {
            let mut changed = false;
            for (di, space) in self.spaces.iter().enumerate() {
                match space {
                    ChoiceSpace::Single => {}
                    ChoiceSpace::Prefix(_) => {
                        for c in 0..choices[di] {
                            let mut t = choices.clone();
                            t[di] = c;
                            if violates(&t) {
                                choices = t;
                                changed = true;
                                break;
                            }
                        }
                    }
                    ChoiceSpace::Subset(free) => {
                        for bit in 0..free.len() {
                            if choices[di] & (1u64 << bit) != 0 {
                                let mut t = choices.clone();
                                t[di] &= !(1u64 << bit);
                                if violates(&t) {
                                    choices = t;
                                    changed = true;
                                }
                            }
                        }
                    }
                    ChoiceSpace::Groups(gs) => {
                        for bit in 0..gs.len() {
                            if choices[di] & (1u64 << bit) != 0 {
                                let mut t = choices.clone();
                                t[di] &= !(1u64 << bit);
                                if violates(&t) {
                                    choices = t;
                                    changed = true;
                                }
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        choices
    }

    /// Dedups, checks and records one choice combination.
    fn visit(
        &self,
        choices: &[u64],
        seen: &mut HashSet<Vec<(u64, u64)>>,
        out: &mut PointOutcome,
        sampled: bool,
    ) {
        let views = self.views(choices);
        // The overlays cover the same block set for every choice of this
        // point and the base is shared, so the resolved overlays are a
        // complete image-equality key.
        let mut key: Vec<(u64, u64)> = Vec::new();
        for (di, v) in views.iter().enumerate() {
            for (&lba, &tag) in &v.over {
                key.push((self.p.topology.global(di, lba).0, tag.0));
            }
        }
        if !seen.insert(key) {
            if sampled {
                out.sampled_duplicates += 1;
            } else {
                out.duplicates += 1;
            }
            return;
        }
        if sampled {
            out.sampled_images += 1;
        } else {
            out.images += 1;
        }
        let (fsv, epv) = self.counts(&views);
        out.fs_violations += fsv as u64;
        out.epoch_violations += epv as u64;
        if (fsv > 0 || epv > 0) && out.worst.is_none() {
            let min = self.minimize(choices.to_vec());
            let (f, e, detail) = self.check_choice(&min);
            out.worst = Some(ViolationCase {
                choices: min,
                fs_violations: f,
                epoch_violations: e,
                detail,
            });
        }
    }
}

/// Outcome of enumerating one capture point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointOutcome {
    /// Commit count at the capture (alignment key).
    pub commit_idx: usize,
    /// Distinct images checked exhaustively (crash points explored).
    pub images: u64,
    /// Equivalent images skipped by dedup in the exhaustive window.
    pub duplicates: u64,
    /// Distinct images found only by stratified sampling.
    pub sampled_images: u64,
    /// Sampled draws that collapsed onto an already-checked image.
    pub sampled_duplicates: u64,
    /// True when the choice space was clamped (bit budget or image cap).
    pub clamped: bool,
    /// Total filesystem violations over all distinct images.
    pub fs_violations: u64,
    /// Total epoch-order violations over all distinct images.
    pub epoch_violations: u64,
    /// First violating reordering, minimized.
    pub worst: Option<ViolationCase>,
}

/// Enumerates every admissible image at one capture point (exhaustively
/// up to the clamps, then by seeded stratified sampling over the full
/// choice space when clamped), deduplicates, and checks each image
/// against the journal ground truth and the epoch contract.
///
/// `sample_seed` seeds the sampling draws only; the exhaustive window is
/// deterministic and unaffected.
pub fn enumerate_point(p: &CrashPoint, sample_seed: u64) -> PointOutcome {
    let mut spaces = Vec::with_capacity(p.devices.len());
    let mut clamped = false;
    for d in &p.devices {
        let (s, c) = d.choice_space();
        clamped |= c;
        spaces.push(s);
    }
    let counts: Vec<u64> = spaces.iter().map(ChoiceSpace::exhaustive_choices).collect();
    let product: u128 = counts.iter().map(|&c| c as u128).product();
    clamped |= product > MAX_IMAGES_PER_POINT as u128;

    let ctx = PointCtx::new(p, &spaces);
    let mut out = PointOutcome {
        commit_idx: p.commit_idx,
        images: 0,
        duplicates: 0,
        sampled_images: 0,
        sampled_duplicates: 0,
        clamped,
        fs_violations: 0,
        epoch_violations: 0,
        worst: None,
    };
    let mut seen: HashSet<Vec<(u64, u64)>> = HashSet::new();

    // Exhaustive window: odometer over the per-device choice counts.
    let mut choices = vec![0u64; spaces.len()];
    let mut visited = 0u64;
    'exhaustive: loop {
        visited += 1;
        ctx.visit(&choices, &mut seen, &mut out, false);
        if visited >= MAX_IMAGES_PER_POINT {
            break;
        }
        let mut di = 0;
        loop {
            if di == choices.len() {
                break 'exhaustive;
            }
            choices[di] += 1;
            if choices[di] < counts[di] {
                break;
            }
            choices[di] = 0;
            di += 1;
        }
    }

    // Stratified sampling past the clamp: for each survival-cardinality
    // stratum, draw reorderings from the *full* free lists. Shares the
    // dedup set, so only genuinely new images are counted and checked.
    if clamped {
        let max_k = spaces
            .iter()
            .map(ChoiceSpace::sample_bits)
            .max()
            .unwrap_or(0);
        let mut rng = SimRng::new(sample_seed);
        for k in 0..=max_k {
            for _ in 0..SAMPLES_PER_STRATUM {
                let draws: Vec<u64> = spaces
                    .iter()
                    .map(|s| s.sample_choice(k, &mut rng))
                    .collect();
                ctx.visit(&draws, &mut seen, &mut out, true);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Trace driving: capture at every commit boundary.
// ---------------------------------------------------------------------

/// Result of one (stack, trace) cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Capture-point outcomes in commit order.
    pub points: Vec<PointOutcome>,
}

/// Builds one differential trace cell: a single thread of `TRACE_OPS`
/// write+sync pairs over a 64-block region, 1 µs journal tick.
fn trace_stack(mut cfg: StackConfig, sync: SyncMode, seed: u64) -> IoStack {
    cfg.seed = seed;
    cfg.fs.timer_tick = SimDuration::from_micros(1);
    let mut stack = IoStack::new(cfg);
    let f = stack.create_global_file();
    stack.add_thread(Box::new(RandWrite::new(
        FileRef::Global(f),
        64,
        WriteMode::SyncEach(sync),
        TRACE_OPS,
    )));
    stack
}

/// Runs one trace, calling `on_point` with the crash point captured at
/// every journal commit. Ends at journal quiescence once all workloads
/// finished (with [`STALE_STEP_LIMIT`] as a backstop).
fn drive<F: FnMut(CrashPoint)>(
    cfg: StackConfig,
    sync: SyncMode,
    seed: u64,
    mode: CaptureMode,
    mut on_point: F,
) {
    let mut stack = trace_stack(cfg, sync, seed);
    if mode == CaptureMode::Delta {
        stack.enable_capture_tracking();
    }
    let mut cursor = CaptureCursor::new();
    let mut commits = 0usize;
    let mut stale = 0u64;
    while stack.step() {
        let n = stack.fs().records().len();
        if n > commits {
            commits = n;
            stale = 0;
            let point = match mode {
                CaptureMode::Delta => cursor.capture(&mut stack),
                CaptureMode::Fork => {
                    let snap = stack.fork();
                    extract_point(&snap)
                }
            };
            on_point(point);
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

/// Captures (without enumerating) every crash point of one trace — the
/// differential-testing surface for [`CaptureMode::Delta`] vs
/// [`CaptureMode::Fork`] bit-identity.
pub fn capture_points(
    cfg: StackConfig,
    sync: SyncMode,
    seed: u64,
    mode: CaptureMode,
) -> Vec<CrashPoint> {
    let mut points = Vec::new();
    drive(cfg, sync, seed, mode, |p| points.push(p));
    points
}

/// Runs one trace to completion, capturing the stack at every journal
/// commit and enumerating the capture point's admissible crash images.
pub fn enumerate_trace_with(
    cfg: StackConfig,
    sync: SyncMode,
    seed: u64,
    mode: CaptureMode,
) -> CellOutcome {
    let mut points = Vec::new();
    drive(cfg, sync, seed, mode, |p| {
        points.push(enumerate_point(&p, sample_seed(seed, p.commit_idx)));
    });
    CellOutcome { points }
}

/// Deterministic per-point sampling seed: same trace seed and commit
/// index → same sampled draws, in both capture modes.
fn sample_seed(trace_seed: u64, commit_idx: usize) -> u64 {
    trace_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(commit_idx as u64)
}

/// Legacy single-sample crash cell (the ablation table's unit of work):
/// run for `dur`, inject one wall-clock crash, count violations.
pub fn sampled_crash_violations(mut cfg: StackConfig, sync: SyncMode, dur: SimDuration) -> u64 {
    cfg.fs.timer_tick = SimDuration::from_micros(1);
    let mut stack = IoStack::new(cfg);
    let f = stack.create_global_file();
    stack.add_thread(Box::new(RandWrite::new(
        FileRef::Global(f),
        64,
        WriteMode::SyncEach(sync),
        100,
    )));
    stack.run_for(dur);
    let crash = stack.crash();
    (crash.fs_violations.len() + crash.epoch_violations.len()) as u64
}

// ---------------------------------------------------------------------
// Differential harness across EXT4-DR / BFS-DR / BFS-OD, 1×1 and 2×2.
// ---------------------------------------------------------------------

/// Per-stack aggregate over all traces.
#[derive(Debug, Clone)]
pub struct StackRow {
    /// Stack label (`EXT4-DR`, `BFS-DR/2x2`, ...).
    pub label: &'static str,
    /// Traces run.
    pub traces: u64,
    /// Capture points (journal commits) visited.
    pub fork_points: u64,
    /// Distinct crash images enumerated and checked exhaustively.
    pub images: u64,
    /// Equivalent images skipped by dedup.
    pub duplicates: u64,
    /// Distinct images found only by stratified sampling.
    pub sampled_images: u64,
    /// Sampled draws that collapsed onto an already-checked image.
    pub sampled_duplicates: u64,
    /// Capture points whose choice space was clamped.
    pub clamped_points: u64,
    /// Filesystem violations summed over all images.
    pub fs_violations: u64,
    /// Epoch-order violations summed over all images.
    pub epoch_violations: u64,
}

/// Sampled-vs-exhaustive coverage counters over the whole run.
#[derive(Debug, Clone, Default)]
pub struct CrashStats {
    /// Distinct images checked by exhaustive enumeration.
    pub exhaustive_images: u64,
    /// Exhaustive enumerations skipped by dedup.
    pub exhaustive_duplicates: u64,
    /// Distinct images reached only by stratified sampling.
    pub sampled_images: u64,
    /// Sampled draws deduplicated away.
    pub sampled_duplicates: u64,
    /// Capture points whose choice space was clamped.
    pub clamped_points: u64,
}

/// A cross-stack divergence: at an aligned `(trace, capture point)` this
/// stack violated while a peer stayed clean, minimized to the smallest
/// reordering choice that still violates.
#[derive(Debug, Clone)]
pub struct DivergenceTriple {
    /// Trace seed.
    pub seed: u64,
    /// Commit count at the capture (alignment key).
    pub commit_idx: usize,
    /// The violating stack.
    pub stack: &'static str,
    /// Minimized per-device reordering choice.
    pub choices: Vec<u64>,
    /// First violation, rendered.
    pub detail: String,
}

/// Full report of one differential crash-enumeration run.
#[derive(Debug, Clone)]
pub struct CrashEnumReport {
    /// Per-stack aggregates.
    pub rows: Vec<StackRow>,
    /// Total distinct crash points explored exhaustively across stacks.
    pub total_points: u64,
    /// Sampled-vs-exhaustive coverage over the whole run.
    pub stats: CrashStats,
    /// Cross-stack divergences (empty = all stacks agree).
    pub divergences: Vec<DivergenceTriple>,
}

/// One differential stack: label, config constructor, sync flavour.
type DiffStack = (&'static str, fn() -> StackConfig, SyncMode);

/// The differential stacks, grouped by lane topology (divergences are
/// only meaningful between stacks that shard blocks identically): the
/// flush-based baseline and the two BarrierFS disciplines must agree, at
/// 1q×1dev and again at 2q×2dev, all over the paper's barrier UFS.
fn diff_stacks() -> Vec<(&'static str, Vec<DiffStack>)> {
    fn ext4_dr() -> StackConfig {
        StackConfig::ext4_dr(DeviceProfile::ufs()).with_history()
    }
    fn bfs_dr() -> StackConfig {
        StackConfig::bfs(DeviceProfile::ufs()).with_history()
    }
    fn bfs_od() -> StackConfig {
        StackConfig::bfs(DeviceProfile::ufs())
            .ordering_only()
            .with_history()
    }
    fn ext4_dr_mq() -> StackConfig {
        StackConfig::ext4_dr(DeviceProfile::ufs())
            .with_history()
            .with_topology(Topology::new(2, 2, 16))
    }
    fn bfs_dr_mq() -> StackConfig {
        StackConfig::bfs(DeviceProfile::ufs())
            .with_history()
            .with_topology(Topology::new(2, 2, 16))
    }
    fn bfs_od_mq() -> StackConfig {
        StackConfig::bfs(DeviceProfile::ufs())
            .ordering_only()
            .with_history()
            .with_topology(Topology::new(2, 2, 16))
    }
    vec![
        (
            "1q1d",
            vec![
                ("EXT4-DR", ext4_dr as fn() -> StackConfig, SyncMode::Fsync),
                ("BFS-DR", bfs_dr, SyncMode::Fsync),
                ("BFS-OD", bfs_od, SyncMode::Fbarrier),
            ],
        ),
        (
            "2q2d",
            vec![
                (
                    "EXT4-DR/2x2",
                    ext4_dr_mq as fn() -> StackConfig,
                    SyncMode::Fsync,
                ),
                ("BFS-DR/2x2", bfs_dr_mq, SyncMode::Fsync),
                ("BFS-OD/2x2", bfs_od_mq, SyncMode::Fbarrier),
            ],
        ),
    ]
}

/// Runs the differential crash enumeration over `traces` seeds per stack,
/// sharded across the grid pool, prints the per-stack table (and the
/// divergence table when non-empty), and returns the report.
pub fn run(traces: u64) -> CrashEnumReport {
    let groups = diff_stacks();
    let stacks: Vec<DiffStack> = groups.iter().flat_map(|(_, s)| s.iter().copied()).collect();
    let mut grid = ExperimentGrid::new();
    for (label, mk_cfg, sync) in &stacks {
        let (label, mk_cfg, sync) = (*label, *mk_cfg, *sync);
        for seed in 0..traces {
            grid.push(format!("crashenum/{label}/seed{seed}"), move || {
                enumerate_trace_with(mk_cfg(), sync, seed, CaptureMode::Delta)
            });
        }
    }
    let results = grid.run();
    assert_eq!(results.len(), stacks.len() * traces as usize);

    let mut rows = Vec::new();
    let mut stats = CrashStats::default();
    let mut divergences = Vec::new();
    let cells: Vec<&[CellOutcome]> = results.chunks((traces as usize).max(1)).collect();
    for ((label, _, _), chunk) in stacks.iter().zip(&cells) {
        let mut row = StackRow {
            label,
            traces,
            fork_points: 0,
            images: 0,
            duplicates: 0,
            sampled_images: 0,
            sampled_duplicates: 0,
            clamped_points: 0,
            fs_violations: 0,
            epoch_violations: 0,
        };
        for cell in *chunk {
            row.fork_points += cell.points.len() as u64;
            for p in &cell.points {
                row.images += p.images;
                row.duplicates += p.duplicates;
                row.sampled_images += p.sampled_images;
                row.sampled_duplicates += p.sampled_duplicates;
                row.clamped_points += p.clamped as u64;
                row.fs_violations += p.fs_violations;
                row.epoch_violations += p.epoch_violations;
            }
        }
        stats.exhaustive_images += row.images;
        stats.exhaustive_duplicates += row.duplicates;
        stats.sampled_images += row.sampled_images;
        stats.sampled_duplicates += row.sampled_duplicates;
        stats.clamped_points += row.clamped_points;
        rows.push(row);
    }

    // Differential fold, per topology group: align per-seed capture
    // points by commit count; any point where the violation verdicts
    // differ across the group's stacks is a divergence for each violating
    // stack.
    let mut offset = 0usize;
    for (_, group) in &groups {
        let group_cells = &cells[offset..offset + group.len()];
        for seed in 0..traces as usize {
            let per_stack: Vec<HashMap<usize, &PointOutcome>> = group_cells
                .iter()
                .map(|chunk| {
                    chunk[seed]
                        .points
                        .iter()
                        .map(|p| (p.commit_idx, p))
                        .collect()
                })
                .collect();
            let aligned: HashSet<usize> = per_stack
                .iter()
                .flat_map(|m| m.keys().copied())
                .filter(|k| per_stack.iter().all(|m| m.contains_key(k)))
                .collect();
            let mut aligned: Vec<usize> = aligned.into_iter().collect();
            aligned.sort_unstable();
            for k in aligned {
                let verdicts: Vec<bool> = per_stack.iter().map(|m| m[&k].worst.is_some()).collect();
                if verdicts.iter().any(|&v| v) && verdicts.iter().any(|&v| !v) {
                    for ((label, _, _), m) in group.iter().zip(&per_stack) {
                        if let Some(case) = &m[&k].worst {
                            divergences.push(DivergenceTriple {
                                seed: seed as u64,
                                commit_idx: k,
                                stack: label,
                                choices: case.choices.clone(),
                                detail: case.detail.clone(),
                            });
                        }
                    }
                }
            }
        }
        offset += group.len();
    }

    let total_points: u64 = rows.iter().map(|r| r.images).sum();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                r.traces.to_string(),
                r.fork_points.to_string(),
                r.images.to_string(),
                r.duplicates.to_string(),
                r.sampled_images.to_string(),
                r.sampled_duplicates.to_string(),
                r.clamped_points.to_string(),
                r.fs_violations.to_string(),
                r.epoch_violations.to_string(),
            ]
        })
        .collect();
    print_table(
        "Crash enumeration — exhaustive per-epoch crash images (differential)",
        &[
            "stack",
            "traces",
            "fork points",
            "crash points",
            "dedup-skipped",
            "sampled",
            "sampled-dup",
            "clamped",
            "fs violations",
            "epoch violations",
        ],
        &table,
    );
    println!(
        "total crash points explored: {total_points}; cross-stack divergences: {}",
        divergences.len()
    );
    println!(
        "stratified sampling: {} extra images past the clamp ({} draws deduplicated, {} clamped points)",
        stats.sampled_images, stats.sampled_duplicates, stats.clamped_points
    );
    if !divergences.is_empty() {
        let rows: Vec<Vec<String>> = divergences
            .iter()
            .take(10)
            .map(|d| {
                vec![
                    d.stack.to_string(),
                    d.seed.to_string(),
                    d.commit_idx.to_string(),
                    format!("{:?}", d.choices),
                    d.detail.clone(),
                ]
            })
            .collect();
        print_table(
            "Cross-stack divergences (minimized reordering triples)",
            &[
                "stack",
                "trace seed",
                "fork point",
                "choice",
                "first violation",
            ],
            &rows,
        );
    }
    CrashEnumReport {
        rows,
        total_points,
        stats,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_flash::AppendLog;

    fn dev_state(mode: BarrierMode, plp: bool, log: AppendLog) -> DeviceState {
        DeviceState {
            base: Arc::new(log.base().clone()),
            tail: log.tail().copied().collect(),
            cache: Vec::new(),
            plp,
            mode,
            committed: Arc::new(BTreeSet::new()),
            history: None,
        }
    }

    /// log with entries: done, in-flight, done, in-flight.
    fn mixed_log() -> AppendLog {
        let mut log = AppendLog::new();
        let a = log.begin(Lba(1), BlockTag(10), None);
        let _b = log.begin(Lba(2), BlockTag(20), None);
        let c = log.begin(Lba(3), BlockTag(30), None);
        let _d = log.begin(Lba(4), BlockTag(40), None);
        log.mark_done(a);
        log.mark_done(c);
        log
    }

    #[test]
    fn lfs_space_is_prefixes() {
        let d = dev_state(BarrierMode::LfsInOrderRecovery, false, mixed_log());
        let (space, clamped) = d.choice_space();
        assert!(!clamped);
        assert_eq!(space.exhaustive_choices(), 3); // holes at idx 1 and 3, plus "none"
                                                   // Choice 0 == the deterministic crash image (prefix to first hole).
        let img0 = d.view_for(&space, 0);
        assert_eq!(img0.tag(Lba(1)), BlockTag(10));
        assert_eq!(img0.tag(Lba(2)), BlockTag::UNWRITTEN);
        assert_eq!(img0.tag(Lba(3)), BlockTag::UNWRITTEN);
        // Choice 1: first in-flight made it, hole at idx 3.
        let img1 = d.view_for(&space, 1);
        assert_eq!(img1.tag(Lba(2)), BlockTag(20));
        assert_eq!(img1.tag(Lba(3)), BlockTag(30));
        assert_eq!(img1.tag(Lba(4)), BlockTag::UNWRITTEN);
        // Choice 2: everything made it.
        let img2 = d.view_for(&space, 2);
        assert_eq!(img2.tag(Lba(4)), BlockTag(40));
    }

    #[test]
    fn orderless_space_is_subsets() {
        let d = dev_state(BarrierMode::Unsupported, false, mixed_log());
        let (space, clamped) = d.choice_space();
        assert!(!clamped);
        assert_eq!(space.exhaustive_choices(), 4); // two free bits
                                                   // Choice 0 == done-only image.
        let img0 = d.view_for(&space, 0);
        assert_eq!(img0.materialize().len(), 2);
        // Bit 1 (second in-flight, idx 3) alone: out-of-order survival the
        // LFS mode cannot produce.
        let img = d.view_for(&space, 0b10);
        assert_eq!(img.tag(Lba(2)), BlockTag::UNWRITTEN);
        assert_eq!(img.tag(Lba(4)), BlockTag(40));
    }

    #[test]
    fn subset_space_clamps_to_bit_budget_but_keeps_full_list() {
        let mut log = AppendLog::new();
        for i in 0..12 {
            log.begin(Lba(i), BlockTag(100 + i), None);
        }
        let d = dev_state(BarrierMode::Unsupported, false, log);
        let (space, clamped) = d.choice_space();
        assert!(clamped);
        // Exhaustive window stays at the bit budget...
        assert_eq!(space.exhaustive_choices(), 1 << MAX_FREE_BITS);
        // ...but the sampler sees every free bit.
        assert_eq!(space.sample_bits(), 12);
    }

    #[test]
    fn transactional_groups_all_or_nothing() {
        let mut log = AppendLog::new();
        let a = log.begin(Lba(1), BlockTag(10), Some(7));
        let b = log.begin(Lba(2), BlockTag(20), Some(7));
        let c = log.begin(Lba(3), BlockTag(30), None);
        log.mark_done(a);
        log.mark_done(b);
        log.mark_done(c);
        let d = dev_state(BarrierMode::Transactional, false, log);
        let (space, _) = d.choice_space();
        assert_eq!(space.exhaustive_choices(), 2); // one open group
        let lost = d.view_for(&space, 0);
        assert_eq!(lost.tag(Lba(1)), BlockTag::UNWRITTEN);
        assert_eq!(lost.tag(Lba(2)), BlockTag::UNWRITTEN);
        assert_eq!(lost.tag(Lba(3)), BlockTag(30));
        let survived = d.view_for(&space, 1);
        assert_eq!(survived.tag(Lba(1)), BlockTag(10));
        assert_eq!(survived.tag(Lba(2)), BlockTag(20));
    }

    #[test]
    fn plp_is_one_image_with_cache() {
        let mut d = dev_state(BarrierMode::Unsupported, true, mixed_log());
        d.cache.push((Lba(9), BlockTag(90)));
        let (space, _) = d.choice_space();
        assert_eq!(space.exhaustive_choices(), 1);
        let img = d.view_for(&space, 0);
        assert_eq!(img.tag(Lba(2)), BlockTag(20)); // even in-flight survives
        assert_eq!(img.tag(Lba(9)), BlockTag(90)); // cache overlaid
    }

    #[test]
    fn enumerate_point_dedups_equivalent_images() {
        // Two in-flight appends to the SAME lba with the same eventual
        // winner collapse some subsets into identical images.
        let mut log = AppendLog::new();
        let a = log.begin(Lba(1), BlockTag(10), None);
        log.mark_done(a);
        log.begin(Lba(2), BlockTag(20), None);
        log.begin(Lba(2), BlockTag(21), None);
        let p = CrashPoint {
            commit_idx: 0,
            records: Arc::new(Vec::new()),
            devices: vec![dev_state(BarrierMode::Unsupported, false, log)],
            topology: Topology::single(),
        };
        let out = enumerate_point(&p, 0);
        // {}, {20}, {21}, {20,21}→21 : the last dedups onto {21}.
        assert_eq!(out.images, 3);
        assert_eq!(out.duplicates, 1);
        assert_eq!(out.fs_violations, 0);
    }

    #[test]
    fn enumerate_point_finds_and_minimizes_durability_loss() {
        // A durability-claimed txn whose jc is still in flight on an
        // orderless device: the subset without the jc bit violates.
        let mut log = AppendLog::new();
        let a = log.begin(Lba(100), BlockTag(1), None); // jd
        log.mark_done(a);
        log.begin(Lba(101), BlockTag(2), None); // jc in flight
        log.begin(Lba(50), BlockTag(3), None); // unrelated data in flight
        let rec = TxnRecord {
            id: 1,
            jd_lba: Lba(100),
            jd_tags: vec![BlockTag(1)],
            jc_lba: Lba(101),
            jc_tag: BlockTag(2),
            meta_home: Vec::new(),
            data_home: Vec::new(),
            ordered_data: Vec::new(),
            durability_claimed: true,
        };
        let p = CrashPoint {
            commit_idx: 1,
            records: Arc::new(vec![rec]),
            devices: vec![dev_state(BarrierMode::Unsupported, false, log)],
            topology: Topology::single(),
        };
        let out = enumerate_point(&p, 0);
        assert!(out.fs_violations > 0);
        let worst = out.worst.expect("violating case recorded");
        // Minimized: the all-zero choice already violates (jc lost).
        assert_eq!(worst.choices, vec![0]);
        assert!(worst.detail.contains("DurabilityLoss"));
    }

    #[test]
    fn stratified_sampling_reaches_past_the_exhaustive_window() {
        // 12 free bits: the exhaustive window covers 256 of 4096 subsets;
        // sampling must find images beyond it, deterministically.
        let mut log = AppendLog::new();
        for i in 0..12 {
            log.begin(Lba(i), BlockTag(100 + i), None);
        }
        let p = CrashPoint {
            commit_idx: 0,
            records: Arc::new(Vec::new()),
            devices: vec![dev_state(BarrierMode::Unsupported, false, log)],
            topology: Topology::single(),
        };
        let out = enumerate_point(&p, 42);
        assert!(out.clamped);
        assert_eq!(out.images, MAX_IMAGES_PER_POINT);
        assert!(out.sampled_images > 0, "sampling found no new images");
        // Seeded: the same point and seed reproduce the same outcome.
        assert_eq!(out, enumerate_point(&p, 42));
        // A different seed may draw different subsets but never changes
        // the exhaustive window.
        let other = enumerate_point(&p, 43);
        assert_eq!(other.images, out.images);
        assert_eq!(other.duplicates, out.duplicates);
    }

    #[test]
    fn delta_capture_is_bit_identical_to_fork_capture() {
        for (_, group) in diff_stacks() {
            for (label, mk_cfg, sync) in group {
                let delta = capture_points(mk_cfg(), sync, 3, CaptureMode::Delta);
                let fork = capture_points(mk_cfg(), sync, 3, CaptureMode::Fork);
                assert!(!delta.is_empty(), "{label}: no capture points");
                assert_eq!(delta, fork, "{label}: capture paths diverge");
            }
        }
    }

    #[test]
    fn differential_trace_smoke_is_clean() {
        for (_, group) in diff_stacks() {
            for (label, mk_cfg, sync) in group {
                let cell = enumerate_trace_with(mk_cfg(), sync, 1, CaptureMode::Delta);
                assert!(!cell.points.is_empty(), "{label}: no capture points");
                for p in &cell.points {
                    assert_eq!(
                        p.fs_violations + p.epoch_violations,
                        0,
                        "{label}: violation at commit {}",
                        p.commit_idx
                    );
                }
            }
        }
    }

    #[test]
    fn multi_lane_differential_aligns_and_agrees() {
        // The 2q×2dev group: every lane must have sequenced epochs, the
        // three stacks must align on at least 12 capture points by commit
        // count, and the verdicts at every aligned point must agree.
        let groups = diff_stacks();
        let (_, group) = &groups[1];
        let cells: Vec<CellOutcome> = group
            .iter()
            .map(|(_, mk_cfg, sync)| enumerate_trace_with(mk_cfg(), *sync, 0, CaptureMode::Delta))
            .collect();
        let per_stack: Vec<HashMap<usize, &PointOutcome>> = cells
            .iter()
            .map(|c| c.points.iter().map(|p| (p.commit_idx, p)).collect())
            .collect();
        let aligned: Vec<usize> = per_stack[0]
            .keys()
            .copied()
            .filter(|k| per_stack.iter().all(|m| m.contains_key(k)))
            .collect();
        assert!(
            aligned.len() >= 12,
            "only {} aligned multi-lane capture points",
            aligned.len()
        );
        for k in aligned {
            let verdicts: Vec<bool> = per_stack.iter().map(|m| m[&k].worst.is_some()).collect();
            assert!(
                verdicts.iter().all(|&v| v == verdicts[0]),
                "multi-lane divergence at commit {k}: {verdicts:?}"
            );
        }
        // Per-lane epoch capture hook: the barrier-issuing stack (BFS-DR)
        // must have released epochs on all four lanes.
        let (_, mk_cfg, sync) = group[1];
        let mut stack = trace_stack(mk_cfg(), sync, 0);
        stack.run_until_done(SimDuration::from_secs(10));
        let lanes = stack.report().lanes;
        assert_eq!(lanes.len(), 4);
        assert!(
            lanes.iter().all(|l| l.epochs_released > 0),
            "idle lane in 2q×2dev trace: {:?}",
            lanes.iter().map(|l| l.epochs_released).collect::<Vec<_>>()
        );
    }
}
