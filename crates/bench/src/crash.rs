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
//! drop it. Capture and checking now share three tiers:
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
//! 3. **Incremental checkers** — every image of a point is the shared
//!    base plus an overlay over the blocks of the unfolded tail, so a
//!    transaction record or transfer the overlay does not touch reads the
//!    same against all of them, and between points its reading changes
//!    only when a fold writes one of its blocks. The cursor therefore also
//!    carries a [`ConsistencyIndex`] and, per device, an [`EpochIndex`]:
//!    each record's and block's verdict under the base, advanced from the
//!    same delta. [`enumerate_point`] judges an image from what its
//!    overlay touches plus the indexes' aggregates; whenever that cannot
//!    certify the image clean, the full [`ConsistencyCheck`] /
//!    [`EpochAudit`] run on it, so every reported violation, `worst` case
//!    and minimisation still comes from them. Checking an image costs
//!    O(writes in flight), not O(trace so far).
//!
//! The fork-based path stays as [`CaptureMode::Fork`], the differential
//! reference `tests/capture_equivalence.rs` holds the delta engine to:
//! both paths must produce bit-identical [`CrashPoint`]s — indexes
//! included, which makes "advanced by deltas" equal "built from nothing"
//! — verdicts and dedup counts. `tests/check_equivalence.rs` holds the
//! indexed verdicts to the full checkers, image by image.
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

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use barrier_io::{
    ConsistencyCheck, ConsistencyIndex, ConsistencyProbe, DeviceCaptureDelta, DeviceProfile,
    FileRef, FsViolation, IoStack, StackConfig, Topology, TxnRecord,
};
use bio_flash::{
    AppendRec, BarrierMode, BlockTag, Device, EpochAudit, EpochIndex, EpochProbe, EpochViolation,
    ImageView, Lba, PersistedImage, TransferRec,
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

/// Snapshot of one device at a capture point. The folded base image, the
/// committed-group set, the transfer history and the epoch-audit index
/// are `Arc`-shared with the capture cursor (and through it with
/// neighbouring points): only the unfolded tail, the cache and the
/// scalars are per-point.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceState {
    /// Folded durable prefix of the append log (shared, immutable).
    base: Arc<BTreeMap<Lba, BlockTag>>,
    /// Unfolded tail records, in append order.
    tail: Vec<AppendRec>,
    /// Writeback-cache content in insertion order — captured under PLP
    /// only, the one case where the cache survives a crash.
    cache: Vec<(Lba, BlockTag)>,
    plp: bool,
    mode: BarrierMode,
    /// Committed transactional-writeback groups (shared, immutable).
    committed: Arc<BTreeSet<u64>>,
    /// Transfer history prefix at the capture (shared, immutable).
    history: Option<Arc<Vec<TransferRec>>>,
    /// [`EpochAudit`] over `history`, indexed under `base` (shared,
    /// immutable; present exactly when `history` is).
    audit: Option<Arc<EpochIndex>>,
}

impl DeviceState {
    /// Captures one device through borrowed accessors. With a cursor the
    /// shared parts are `Arc`-clones of the cursor's delta-maintained
    /// copies (O(1)); without one they are materialized from the device
    /// (O(state), the fork-path reference behaviour) and `audit` is left
    /// to [`CrashPoint::reindex`].
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
struct Striped<'a, V> {
    topology: Topology,
    locals: &'a [V],
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
    /// [`ConsistencyCheck`] over `records`, indexed under the devices'
    /// bases (shared with the cursor, copy-on-write).
    check: Arc<ConsistencyIndex>,
    devices: Vec<DeviceState>,
    topology: Topology,
}

impl CrashPoint {
    /// Captures the live stack into a plain-data crash point, reading
    /// through borrowed accessors only. With a cursor the records, the
    /// check index and the per-device shared parts are `Arc`-clones of
    /// the cursor's delta-maintained state; without one they are built
    /// from the stack.
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
    fn reindex(&mut self) {
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

    /// The transfer history of each device (`None` where recording is
    /// off) — what [`EpochAudit`] judges a device image against.
    pub fn histories(&self) -> impl Iterator<Item = Option<&[TransferRec]>> + '_ {
        self.devices
            .iter()
            .map(|d| d.history.as_deref().map(Vec::as_slice))
    }
}

/// A defect written into a captured point by hand: the violating input
/// the checker differential test feeds both tiers of the judge. Indices
/// wrap around what the point holds; with nothing to forge the point
/// comes back as it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Forgery {
    /// Drops one record from a device's unfolded tail.
    DropTail {
        /// Device index.
        device: usize,
        /// Tail record.
        index: usize,
    },
    /// Flips `done` on one tail record.
    FlipDone {
        /// Device index.
        device: usize,
        /// Tail record.
        index: usize,
    },
    /// Folds one transfer of the device's history into the base again,
    /// out of order — the base goes back to an old version of that block.
    Refold {
        /// Device index.
        device: usize,
        /// Transfer in the device's history.
        transfer: usize,
    },
    /// Alters one record's commit-block tag.
    AlterJcTag {
        /// Record position.
        record: usize,
    },
    /// Sets `durability_claimed` on one record.
    ClaimDurable {
        /// Record position.
        record: usize,
    },
}

impl CrashPoint {
    /// This point with `forgery` written into it and both check indexes
    /// rebuilt from nothing, as if captured from a stack in that state.
    pub fn forged(&self, forgery: Forgery) -> CrashPoint {
        let mut p = self.clone();
        let nr_devices = p.devices.len();
        let nr_records = p.records.len().max(1);
        match forgery {
            Forgery::DropTail { device, index } => {
                let tail = &mut p.devices[device % nr_devices].tail;
                if !tail.is_empty() {
                    tail.remove(index % tail.len());
                }
            }
            Forgery::FlipDone { device, index } => {
                let tail = &mut p.devices[device % nr_devices].tail;
                let index = index % tail.len().max(1);
                if let Some(r) = tail.get_mut(index) {
                    r.done = !r.done;
                }
            }
            Forgery::Refold { device, transfer } => {
                let d = &mut p.devices[device % nr_devices];
                let history = d.history.as_deref().map_or(&[][..], Vec::as_slice);
                if let Some(t) = history.get(transfer % history.len().max(1)) {
                    Arc::make_mut(&mut d.base).insert(t.lba, t.tag);
                }
            }
            Forgery::AlterJcTag { record } => {
                if let Some(r) = Arc::make_mut(&mut p.records).get_mut(record % nr_records) {
                    r.jc_tag = BlockTag(r.jc_tag.0 ^ (1 << 40));
                }
            }
            Forgery::ClaimDurable { record } => {
                if let Some(r) = Arc::make_mut(&mut p.records).get_mut(record % nr_records) {
                    r.durability_claimed = true;
                }
            }
        }
        p.reindex();
        p
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
/// folded base image, committed groups, transfer history and epoch-audit
/// index, advanced by each epoch's [`DeviceCaptureDelta`] instead of
/// being re-read.
#[derive(Debug, Clone)]
struct DeviceCursor {
    base: Arc<BTreeMap<Lba, BlockTag>>,
    committed: Arc<BTreeSet<u64>>,
    history: Option<Arc<Vec<TransferRec>>>,
    audit: Option<Arc<EpochIndex>>,
}

impl DeviceCursor {
    fn new() -> DeviceCursor {
        DeviceCursor {
            base: Arc::new(BTreeMap::new()),
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
pub struct CaptureCursor {
    records: Arc<Vec<TxnRecord>>,
    check: Arc<ConsistencyIndex>,
    devices: Vec<DeviceCursor>,
    /// Verdicts the two indexes recomputed during the last capture.
    last_index_work: usize,
}

impl CaptureCursor {
    /// An empty cursor; the first capture initializes per-device state.
    pub fn new() -> CaptureCursor {
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

/// One device's crash image under the current reordering choice, as an
/// overlay on the shared folded base: every tail (and, for PLP, cache)
/// block in ascending order with the tag it resolves to. Covers the
/// *same* block set for every choice of a point, so the tags alone are a
/// complete image-equality key — no base clone and no allocation per
/// image: [`Overlay::resolve`] rewrites the tags in place.
struct Overlay<'a> {
    dev: &'a DeviceState,
    /// `(block, tag under the current choice)`, ascending by block.
    entries: Vec<(Lba, BlockTag)>,
    /// Tag of each entry under the base alone.
    base_tags: Vec<BlockTag>,
    /// Entry of each tail record, then of each cache block.
    slots: Vec<u32>,
    /// Tail records applied so far ([`ChoiceSpace::Prefix`] only): the
    /// next, longer prefix extends the overlay instead of rebuilding it.
    cut: usize,
}

impl ImageView for Overlay<'_> {
    fn tag(&self, lba: Lba) -> BlockTag {
        match self.entries.binary_search_by_key(&lba, |e| e.0) {
            Ok(i) => self.entries[i].1,
            Err(_) => self.dev.base.tag(lba),
        }
    }
}

impl<'a> Overlay<'a> {
    /// The overlay of `dev` with nothing but the base resolved.
    fn new(dev: &'a DeviceState) -> Overlay<'a> {
        let blocks = || {
            let cache = dev.cache.iter().map(|c| c.0);
            dev.tail.iter().map(|r| r.lba).chain(cache)
        };
        let mut lbas: Vec<Lba> = blocks().collect();
        lbas.sort_unstable();
        lbas.dedup();
        let slots = blocks()
            .map(|lba| lbas.binary_search(&lba).expect("collected above") as u32)
            .collect();
        let base_tags: Vec<BlockTag> = lbas.iter().map(|&lba| dev.base.tag(lba)).collect();
        Overlay {
            dev,
            entries: lbas.into_iter().zip(base_tags.iter().copied()).collect(),
            base_tags,
            slots,
            cut: 0,
        }
    }

    /// Per entry, the least tag any choice can resolve it to: its base
    /// tag or any tail or cache tag written to it. (It bounds which
    /// ordered-data entries can read differently from the base.)
    fn floors(&self) -> Vec<BlockTag> {
        let mut floors = self.base_tags.clone();
        let tail = self.dev.tail.iter().map(|r| r.tag);
        let cache = self.dev.cache.iter().map(|c| c.1);
        for (&slot, tag) in self.slots.iter().zip(tail.chain(cache)) {
            floors[slot as usize] = floors[slot as usize].min(tag);
        }
        floors
    }

    fn reset(&mut self) {
        for (e, &tag) in self.entries.iter_mut().zip(&self.base_tags) {
            e.1 = tag;
        }
        self.cut = 0;
    }

    /// Tail record `i` survived: its block now holds its tag.
    fn keep(&mut self, i: usize) {
        self.entries[self.slots[i] as usize].1 = self.dev.tail[i].tag;
    }

    /// Rewrites the overlay to the image of one choice. Choice 0 always
    /// reproduces the device's own deterministic
    /// [`bio_flash::Device::crash_image`]. Survivors are applied in
    /// append order over the base, so every tail block resolves — the
    /// masked-out ones to the base version (UNWRITTEN when the base never
    /// held them).
    fn resolve(&mut self, space: &ChoiceSpace, choice: u64) {
        let dev = self.dev;
        match space {
            ChoiceSpace::Prefix(holes) => {
                let cut = holes
                    .get(choice as usize)
                    .copied()
                    .unwrap_or(dev.tail.len());
                if cut < self.cut {
                    self.reset();
                }
                for i in self.cut..cut {
                    self.keep(i);
                }
                self.cut = cut;
            }
            ChoiceSpace::Single => {
                self.reset();
                for i in 0..dev.tail.len() {
                    self.keep(i);
                }
                for (slot, c) in self.slots[dev.tail.len()..].iter().zip(&dev.cache) {
                    self.entries[*slot as usize].1 = c.1;
                }
            }
            ChoiceSpace::Subset(free) => {
                self.reset();
                let mut bit = 0;
                for (i, r) in dev.tail.iter().enumerate() {
                    let retired = if free.get(bit) == Some(&i) {
                        bit += 1;
                        choice & (1u64 << (bit - 1)) != 0
                    } else {
                        r.done
                    };
                    if retired {
                        self.keep(i);
                    }
                }
            }
            ChoiceSpace::Groups(gs) => {
                self.reset();
                let survives = |g: u64| {
                    dev.committed.contains(&g)
                        || gs
                            .iter()
                            .position(|&open| open == g)
                            .is_some_and(|bit| choice & (1u64 << bit) != 0)
                };
                for (i, r) in dev.tail.iter().enumerate() {
                    if r.done && r.group.is_none_or(survives) {
                        self.keep(i);
                    }
                }
            }
        }
    }

    /// Materializes the overlay into a standalone image.
    fn materialize(&self) -> PersistedImage {
        let mut map = (*self.dev.base).clone();
        for &(lba, tag) in &self.entries {
            if tag == BlockTag::UNWRITTEN {
                map.remove(&lba);
            } else {
                map.insert(lba, tag);
            }
        }
        PersistedImage::from_map(map)
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

/// Both rules' verdict on one image: the filesystem violations, then the
/// epoch violations of every device in device order.
type Verdict = (Vec<FsViolation>, Vec<EpochViolation>);

/// Judges the images of one capture point, in two tiers. The point's
/// check indexes know every record's and block's verdict under the base,
/// so an image is first put to the probes — which look only at what its
/// overlay touches, and can certify it clean — and, whenever a probe
/// cannot, to the full [`ConsistencyCheck`] / [`EpochAudit`], whose
/// tables are built on first use. Every reported violation therefore
/// comes from the full checkers.
struct Judge<'a> {
    p: &'a CrashPoint,
    spaces: &'a [ChoiceSpace],
    fs_probe: Option<ConsistencyProbe<'a>>,
    epoch_probes: Vec<Option<EpochProbe<'a>>>,
    checker: OnceCell<ConsistencyCheck<'a>>,
    audits: Vec<OnceCell<EpochAudit<'a>>>,
}

impl<'a> Judge<'a> {
    /// `overlays` are the point's overlays in any resolution: the probes
    /// depend on the blocks they cover, not on the tags. With `indexed`
    /// off there are no probes and every image takes the full checkers.
    fn new(
        p: &'a CrashPoint,
        spaces: &'a [ChoiceSpace],
        overlays: &[Overlay<'a>],
        indexed: bool,
    ) -> Judge<'a> {
        let touched = overlays.iter().enumerate().flat_map(|(di, o)| {
            let lbas = o.entries.iter().map(move |e| p.topology.global(di, e.0));
            lbas.zip(o.floors())
        });
        Judge {
            p,
            spaces,
            fs_probe: indexed
                .then(|| p.check.probe(&p.records, touched))
                .flatten(),
            epoch_probes: overlays
                .iter()
                .map(|o| {
                    let covered = |lba| o.entries.binary_search_by_key(&lba, |e| e.0).is_ok();
                    let index = o.dev.audit.as_deref().filter(|_| indexed)?;
                    index.probe(covered)
                })
                .collect(),
            checker: OnceCell::new(),
            audits: p.devices.iter().map(|_| OnceCell::new()).collect(),
        }
    }

    /// Fresh overlays resolved to one choice combination.
    fn views(&self, choices: &[u64]) -> Vec<Overlay<'a>> {
        self.p
            .devices
            .iter()
            .zip(self.spaces)
            .zip(choices)
            .map(|((d, s), &c)| {
                let mut o = Overlay::new(d);
                o.resolve(s, c);
                o
            })
            .collect()
    }

    /// Both verdicts on the image `views` resolve to.
    fn verdict(&self, views: &[Overlay<'a>]) -> Verdict {
        let global = Striped {
            topology: self.p.topology,
            locals: views,
        };
        self.verdict_on(&global, views)
    }

    /// [`Judge::verdict`] with the cross-device image passed in, so a test
    /// can interpose on its reads.
    fn verdict_on<V: ImageView>(&self, global: &V, views: &[Overlay<'a>]) -> Verdict {
        let fsv = match &self.fs_probe {
            Some(probe) if probe.certifies(global) => Vec::new(),
            _ => self
                .checker
                .get_or_init(|| ConsistencyCheck::new(&self.p.records))
                .violations(global),
        };
        let mut epv = Vec::new();
        for (di, v) in views.iter().enumerate() {
            let Some(history) = v.dev.history.as_deref() else {
                continue;
            };
            match &self.epoch_probes[di] {
                Some(probe) if probe.certifies(v.entries.iter().copied()) => {}
                _ => epv.extend(
                    self.audits[di]
                        .get_or_init(|| EpochAudit::new(history))
                        .violations(v),
                ),
            }
        }
        (fsv, epv)
    }

    /// Runs both checkers over one choice combination: returns
    /// `(fs violations, epoch violations, first violation rendered)`.
    fn check_choice(&self, choices: &[u64]) -> (usize, usize, String) {
        let (fsv, epv) = self.verdict(&self.views(choices));
        let detail = match (epv.first(), fsv.first()) {
            (Some(first), _) => format!("{first:?}"),
            (None, Some(first)) => format!("{first:?}"),
            (None, None) => String::new(),
        };
        (fsv.len(), epv.len(), detail)
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
}

/// The distinct images seen at one point: every image's overlay tags
/// (the equality key, see [`Overlay`]) back to back in one buffer, and
/// the images' numbers ordered by key.
#[derive(Default)]
struct SeenImages {
    keys: Vec<BlockTag>,
    order: Vec<u32>,
}

impl SeenImages {
    /// Records the image `views` resolve to; false when it was seen before.
    fn insert(&mut self, views: &[Overlay<'_>]) -> bool {
        let at = self.keys.len();
        self.keys
            .extend(views.iter().flat_map(|v| &v.entries).map(|e| e.1));
        let (seen, key) = self.keys.split_at(at);
        let stride = key.len();
        let slot = self
            .order
            .binary_search_by(|&i| seen[i as usize * stride..][..stride].cmp(key));
        match slot {
            Ok(_) => {
                self.keys.truncate(at);
                false
            }
            Err(slot) => {
                self.order.insert(slot, self.order.len() as u32);
                true
            }
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
    enumerate(p, sample_seed, true, |_| {})
}

/// [`enumerate_point`] with every image put to the full checkers and none
/// to the check indexes: the oracle the differential test holds the
/// indexed path to.
pub fn enumerate_point_unindexed(p: &CrashPoint, sample_seed: u64) -> PointOutcome {
    enumerate(p, sample_seed, false, |_| {})
}

/// One distinct image of a capture point with the verdict
/// [`enumerate_point`] reached on it — what the checker differential test
/// judges again with checkers of its own.
pub struct ImageCase<'a> {
    /// Per-device reordering choice.
    pub choices: &'a [u64],
    /// Filesystem violations, as enumerated.
    pub fs_violations: &'a [FsViolation],
    /// Epoch violations of all devices in device order, as enumerated.
    pub epoch_violations: &'a [EpochViolation],
    topology: Topology,
    views: &'a [Overlay<'a>],
}

impl ImageCase<'_> {
    /// The cross-device image (what [`ConsistencyCheck`] reads).
    pub fn image(&self) -> impl ImageView + '_ {
        Striped {
            topology: self.topology,
            locals: self.views,
        }
    }

    /// One device's own image (what its [`EpochAudit`] reads).
    pub fn device_image(&self, device: usize) -> impl ImageView + '_ {
        &self.views[device]
    }

    /// [`ImageCase::image`] as a standalone map, sharing nothing with the
    /// point.
    pub fn materialized(&self) -> PersistedImage {
        let mut map = BTreeMap::new();
        for (di, v) in self.views.iter().enumerate() {
            for (lba, tag) in v.materialize().iter() {
                map.insert(self.topology.global(di, lba), tag);
            }
        }
        PersistedImage::from_map(map)
    }
}

/// [`enumerate_point`], handing every distinct image it checks to
/// `on_image` together with the verdict it reached.
pub fn enumerate_point_with(
    p: &CrashPoint,
    sample_seed: u64,
    on_image: impl FnMut(&ImageCase<'_>),
) -> PointOutcome {
    enumerate(p, sample_seed, true, on_image)
}

/// The enumeration behind [`enumerate_point`].
fn enumerate(
    p: &CrashPoint,
    sample_seed: u64,
    indexed: bool,
    mut on_image: impl FnMut(&ImageCase<'_>),
) -> PointOutcome {
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

    let mut views: Vec<Overlay<'_>> = p.devices.iter().map(Overlay::new).collect();
    let judge = Judge::new(p, &spaces, &views, indexed);
    let mut seen = SeenImages::default();
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
    // Dedups, checks and records one choice combination.
    let mut visit = |choices: &[u64], sampled: bool, out: &mut PointOutcome| {
        for ((v, s), &c) in views.iter_mut().zip(&spaces).zip(choices) {
            v.resolve(s, c);
        }
        let fresh = seen.insert(&views);
        *match (fresh, sampled) {
            (true, false) => &mut out.images,
            (true, true) => &mut out.sampled_images,
            (false, false) => &mut out.duplicates,
            (false, true) => &mut out.sampled_duplicates,
        } += 1;
        if !fresh {
            return;
        }
        let (fsv, epv) = judge.verdict(&views);
        out.fs_violations += fsv.len() as u64;
        out.epoch_violations += epv.len() as u64;
        if (!fsv.is_empty() || !epv.is_empty()) && out.worst.is_none() {
            let min = judge.minimize(choices.to_vec());
            let (f, e, detail) = judge.check_choice(&min);
            out.worst = Some(ViolationCase {
                choices: min,
                fs_violations: f,
                epoch_violations: e,
                detail,
            });
        }
        on_image(&ImageCase {
            choices,
            fs_violations: &fsv,
            epoch_violations: &epv,
            topology: p.topology,
            views: &views,
        });
    };

    // Exhaustive window: odometer over the per-device choice counts.
    let mut choices = vec![0u64; spaces.len()];
    let mut visited = 0u64;
    'exhaustive: loop {
        visited += 1;
        visit(&choices, false, &mut out);
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
                visit(&draws, true, &mut out);
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

/// Builds one differential trace cell: a single thread of `ops`
/// write+sync pairs over a 64-block region, 1 µs journal tick.
fn trace_stack(mut cfg: StackConfig, sync: SyncMode, seed: u64, ops: u64) -> IoStack {
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
fn drive<F: FnMut(CrashPoint)>(
    cfg: StackConfig,
    sync: SyncMode,
    seed: u64,
    ops: u64,
    mode: CaptureMode,
    mut on_point: F,
) {
    let mut stack = trace_stack(cfg, sync, seed, ops);
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
    capture_points_of(cfg, sync, seed, mode, TRACE_OPS)
}

/// [`capture_points`] of a trace of `ops` write+sync pairs — traces long
/// enough to wrap a small journal, or to meet a known tear, for the
/// checker differential test.
pub fn capture_points_of(
    cfg: StackConfig,
    sync: SyncMode,
    seed: u64,
    mode: CaptureMode,
    ops: u64,
) -> Vec<CrashPoint> {
    let mut points = Vec::new();
    drive(cfg, sync, seed, ops, mode, |p| points.push(p));
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
    drive(cfg, sync, seed, TRACE_OPS, mode, |p| {
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
pub fn sampled_crash_violations(cfg: StackConfig, sync: SyncMode, dur: SimDuration) -> u64 {
    let seed = cfg.seed;
    let mut stack = trace_stack(cfg, sync, seed, TRACE_OPS);
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
    // One slice per stack, empty when `traces` is 0 (`chunks` would
    // yield no slices at all then, and the group fold below indexes them).
    let per_stack = traces as usize;
    let cells: Vec<&[CellOutcome]> = (0..stacks.len())
        .map(|i| &results[i * per_stack..(i + 1) * per_stack])
        .collect();
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
            audit: None,
        }
    }

    /// A one-device point over hand-made state, indexed from nothing.
    fn point(commit_idx: usize, records: Vec<TxnRecord>, dev: DeviceState) -> CrashPoint {
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

    /// The overlay of one choice.
    fn view<'a>(d: &'a DeviceState, space: &ChoiceSpace, choice: u64) -> Overlay<'a> {
        let mut o = Overlay::new(d);
        o.resolve(space, choice);
        o
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
        let img0 = view(&d, &space, 0);
        assert_eq!(img0.tag(Lba(1)), BlockTag(10));
        assert_eq!(img0.tag(Lba(2)), BlockTag::UNWRITTEN);
        assert_eq!(img0.tag(Lba(3)), BlockTag::UNWRITTEN);
        // Choice 1: first in-flight made it, hole at idx 3.
        let img1 = view(&d, &space, 1);
        assert_eq!(img1.tag(Lba(2)), BlockTag(20));
        assert_eq!(img1.tag(Lba(3)), BlockTag(30));
        assert_eq!(img1.tag(Lba(4)), BlockTag::UNWRITTEN);
        // Choice 2: everything made it.
        let img2 = view(&d, &space, 2);
        assert_eq!(img2.tag(Lba(4)), BlockTag(40));
    }

    #[test]
    fn orderless_space_is_subsets() {
        let d = dev_state(BarrierMode::Unsupported, false, mixed_log());
        let (space, clamped) = d.choice_space();
        assert!(!clamped);
        assert_eq!(space.exhaustive_choices(), 4); // two free bits
                                                   // Choice 0 == done-only image.
        let img0 = view(&d, &space, 0);
        assert_eq!(img0.materialize().len(), 2);
        // Bit 1 (second in-flight, idx 3) alone: out-of-order survival the
        // LFS mode cannot produce.
        let img = view(&d, &space, 0b10);
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
        let lost = view(&d, &space, 0);
        assert_eq!(lost.tag(Lba(1)), BlockTag::UNWRITTEN);
        assert_eq!(lost.tag(Lba(2)), BlockTag::UNWRITTEN);
        assert_eq!(lost.tag(Lba(3)), BlockTag(30));
        let survived = view(&d, &space, 1);
        assert_eq!(survived.tag(Lba(1)), BlockTag(10));
        assert_eq!(survived.tag(Lba(2)), BlockTag(20));
    }

    #[test]
    fn plp_is_one_image_with_cache() {
        let mut d = dev_state(BarrierMode::Unsupported, true, mixed_log());
        d.cache.push((Lba(9), BlockTag(90)));
        let (space, _) = d.choice_space();
        assert_eq!(space.exhaustive_choices(), 1);
        let img = view(&d, &space, 0);
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
        let p = point(
            0,
            Vec::new(),
            dev_state(BarrierMode::Unsupported, false, log),
        );
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
        let p = point(
            1,
            vec![rec],
            dev_state(BarrierMode::Unsupported, false, log),
        );
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
        let p = point(
            0,
            Vec::new(),
            dev_state(BarrierMode::Unsupported, false, log),
        );
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

    /// An image that counts how often it is read.
    struct CountingImage<'a, V> {
        image: &'a V,
        reads: std::cell::Cell<u64>,
    }

    impl<V: ImageView> ImageView for CountingImage<'_, V> {
        fn tag(&self, lba: Lba) -> BlockTag {
            self.reads.set(self.reads.get() + 1);
            self.image.tag(lba)
        }
    }

    /// Over the last ten capture points of an `ops`-long trace: the most
    /// image reads any one image took to judge. Asserts on the way that no
    /// image took more than three reads per tail record and overlay block
    /// of its point, and that the probes certified every one of them.
    fn most_reads_per_image(label: &str, cfg: StackConfig, sync: SyncMode, ops: u64) -> u64 {
        let mut points = std::collections::VecDeque::new();
        drive(cfg, sync, 11, ops, CaptureMode::Delta, |p| {
            points.push_back(p);
            if points.len() > 10 {
                points.pop_front();
            }
        });
        let mut most = 0;
        for p in &points {
            let spaces: Vec<ChoiceSpace> = p.devices.iter().map(|d| d.choice_space().0).collect();
            let mut views: Vec<Overlay<'_>> = p.devices.iter().map(Overlay::new).collect();
            let judge = Judge::new(p, &spaces, &views, true);
            let size = (p.devices[0].tail.len() + views[0].entries.len()) as u64;
            for choice in 0..spaces[0].exhaustive_choices() {
                views[0].resolve(&spaces[0], choice);
                let counting = CountingImage {
                    image: &Striped {
                        topology: p.topology,
                        locals: &views,
                    },
                    reads: std::cell::Cell::new(0),
                };
                let (fsv, epv) = judge.verdict_on(&counting, &views);
                assert!(fsv.is_empty() && epv.is_empty());
                let reads = counting.reads.get();
                assert!(
                    reads <= 3 * size,
                    "{label}, {ops} ops, commit {}: {reads} reads at a point of size {size}",
                    p.commit_idx
                );
                most = most.max(reads);
            }
            // The full checkers' tables were never built.
            assert!(judge.checker.get().is_none());
            assert!(judge.audits.iter().all(|a| a.get().is_none()));
        }
        most
    }

    #[test]
    fn image_reads_follow_the_writes_in_flight_not_the_trace() {
        let (_, group) = diff_stacks().remove(0);
        let mut busiest = 0;
        for (label, mk_cfg, sync) in group {
            let short = most_reads_per_image(label, mk_cfg(), sync, 100);
            let long = most_reads_per_image(label, mk_cfg(), sync, 1_000);
            busiest = busiest.max(long);
            assert!(
                long <= 2 * short,
                "{label}: {long} reads per image after 1,000 ops, {short} after 100"
            );
        }
        // (BFS-DR captures with nothing in flight; the other two do not.)
        assert!(busiest > 0, "no stack had a write in flight at a capture");
    }

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
        for (_, group) in diff_stacks() {
            for (label, mk_cfg, sync) in group {
                let mut stack = trace_stack(mk_cfg(), sync, 11, 400);
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
    fn zero_traces_report_zero_rows_for_every_stack() {
        let report = run(0);
        assert_eq!(report.rows.len(), 6);
        assert!(report.rows.iter().all(|r| r.traces == 0 && r.images == 0));
        assert_eq!(report.total_points, 0);
        assert!(report.divergences.is_empty());
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
        let mut stack = trace_stack(mk_cfg(), sync, 0, TRACE_OPS);
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
