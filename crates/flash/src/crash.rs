//! Which images a power loss can leave: one device's state as a power loss
//! would find it ([`CrashState`]), the images its barrier mode admits from
//! that state ([`ChoiceSpace`]), and one such image as an overlay on the
//! state's base ([`Overlay`]). Choice 0 of the space is
//! [`Device::crash_image`]; [`Device::final_image`] is the PLP case; the
//! crash explorer walks the other choices.
//!
//! Without PLP, per [`BarrierMode`] (§3.2's enforcement options):
//!
//! * [`BarrierMode::LfsInOrderRecovery`]: recovery keeps the log up to the
//!   first page not programmed properly, so choice `c` cuts the tail at its
//!   `c`-th in-flight program, and the choice past the last keeps it all.
//! * [`BarrierMode::InOrderWriteback`] / [`BarrierMode::Unsupported`]: any
//!   subset of the in-flight programs may have retired; bit `i` of a choice
//!   is the `i`-th of them.
//! * [`BarrierMode::Transactional`]: a group lands whole or not at all. The
//!   open group can land only when every member it still waits for is an
//!   in-flight program (a member still in the cache cannot be programmed
//!   before the power goes); bit 0 then lands it, done and in-flight
//!   members together. Otherwise the space is choice 0 alone.
//!
//! With PLP everything transferred survives, the cache included: one image.

use std::sync::Arc;

use crate::audit::TransferRec;
use crate::device::Device;
use crate::epoch_index::EpochIndex;
use crate::image::{AppendRec, BlockMap, ImageView};
use crate::profile::BarrierMode;
use crate::types::{BlockTag, Lba};

/// Widest mask a choice holds: a choice is a `u64`.
const MAX_CHOICE_BITS: usize = 64;

/// The open transactional-writeback group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenGroup {
    /// Group id.
    pub id: u64,
    /// Members whose program has not completed: in flight, or still in
    /// the cache.
    pub left: usize,
}

/// One device as a power loss would find it, as plain data: read off the
/// device ([`CrashState::capture`]) or advanced from the previous state by
/// a delta ([`CrashState::advance`]). The folded base, the transfer history
/// and the epoch-audit index sit behind `Arc`s, so a copy shares them until
/// one side next writes them.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashState {
    /// Folded durable prefix of the append log.
    pub base: Arc<BlockMap>,
    /// Unfolded tail records, in append order.
    pub tail: Vec<AppendRec>,
    /// Writeback-cache content in insertion order — read under PLP only,
    /// the one case where the cache survives.
    pub cache: Vec<(Lba, BlockTag)>,
    /// Power-loss protection.
    pub plp: bool,
    /// The barrier-enforcement engine.
    pub mode: BarrierMode,
    /// The open transactional group, if any.
    pub open_group: Option<OpenGroup>,
    /// Transfer history, when the device records one.
    pub history: Option<Arc<Vec<TransferRec>>>,
    /// [`crate::EpochAudit`]'s index over `history` under `base`, kept by
    /// whoever checks the images (present exactly when `history` is).
    pub audit: Option<Arc<EpochIndex>>,
}

impl CrashState {
    /// The device as it stands, its history included (O(state)); `audit`
    /// is left to the caller.
    pub fn capture(dev: &Device) -> CrashState {
        let mut state = CrashState::of_device(dev, dev.profile().plp);
        state.history = dev.history().map(|h| Arc::new(h.to_vec()));
        state
    }

    /// The device as it stands without its history, read as if its PLP
    /// were `plp`.
    pub(crate) fn of_device(dev: &Device, plp: bool) -> CrashState {
        let mut state = CrashState {
            base: Arc::new(dev.append_log().base().clone()),
            tail: Vec::new(),
            cache: Vec::new(),
            plp,
            mode: dev.profile().barrier_mode,
            open_group: None,
            history: None,
            audit: None,
        };
        state.read_tail(dev);
        state
    }

    /// The device before its first write: where a delta cursor starts.
    pub fn empty(dev: &Device) -> CrashState {
        let history = dev.history().map(|_| Arc::new(Vec::new()));
        CrashState {
            base: Arc::new(BlockMap::new()),
            tail: Vec::new(),
            cache: Vec::new(),
            plp: dev.profile().plp,
            mode: dev.profile().barrier_mode,
            open_group: None,
            audit: history.as_ref().map(|_| Arc::new(EpochIndex::new())),
            history,
        }
    }

    /// Rewrites the per-point parts — the unfolded tail, the open group
    /// and, under PLP, the cache — in place from the live device.
    fn read_tail(&mut self, dev: &Device) {
        self.tail.clear();
        self.tail.extend(dev.append_log().tail().copied());
        self.cache.clear();
        if self.plp {
            let cache = dev.cache().entries_in_order();
            self.cache.extend(cache.map(|(_, e)| (e.lba, e.tag)));
        }
        self.open_group = dev.open_group();
    }

    /// Advances the state by one epoch's `delta` (the folds
    /// [`Device::drain_capture_delta`] drained) and re-reads its tail.
    /// Each fold is pushed onto `folds` as `(global block, tag before, tag
    /// after)`, `global` mapping this device's blocks into the stripe.
    /// Returns the epoch-audit index work done. `Arc::make_mut` writes in
    /// place while no copy shares a part and copies it once when one does;
    /// a part the delta leaves alone is not touched.
    pub fn advance(
        &mut self,
        dev: &Device,
        delta: &[(Lba, BlockTag)],
        global: impl Fn(Lba) -> Lba,
        folds: &mut Vec<(Lba, BlockTag, BlockTag)>,
    ) -> usize {
        if !delta.is_empty() {
            let base = Arc::make_mut(&mut self.base);
            folds.extend(delta.iter().map(|&(lba, tag)| {
                let before = base.insert(lba, tag).unwrap_or(BlockTag::UNWRITTEN);
                (global(lba), before, tag)
            }));
        }
        // History is append-only: copy just the new suffix, and let the
        // audit index read the same suffix plus this epoch's folds.
        let mut work = 0;
        if let (Some(live), Some(history), Some(audit)) =
            (dev.history(), &mut self.history, &mut self.audit)
        {
            if live.len() > history.len() || !delta.is_empty() {
                let h = Arc::make_mut(history);
                h.extend_from_slice(live.get(h.len()..).unwrap_or_default());
                let folded = delta.iter().map(|f| f.0);
                work = Arc::make_mut(audit).advance(live, folded, &*self.base);
            }
        }
        self.read_tail(dev);
        debug_assert!(
            self.base.as_ref() == dev.append_log().base(),
            "crash state base diverged from the live log — was capture \
             tracking enabled before the run started?"
        );
        work
    }

    /// Record `i`'s block and tag: the tail records, then the cache blocks.
    #[inline]
    fn record(&self, i: usize) -> Option<(Lba, BlockTag)> {
        match self.tail.get(i) {
            Some(r) => Some((r.lba, r.tag)),
            None => self.cache.get(i - self.tail.len()).copied(),
        }
    }

    /// Every record's block and tag, in [`CrashState::record`] order.
    fn records(&self) -> impl Iterator<Item = (Lba, BlockTag)> + '_ {
        let tail = self.tail.iter().map(|r| (r.lba, r.tag));
        tail.chain(self.cache.iter().copied())
    }

    /// The image `choice` of this state's space leaves, as a standalone
    /// map: the base (copied only if shared) with the survivors stored over
    /// it in append order.
    pub(crate) fn into_image(mut self, choice: u64) -> BlockMap {
        let mut space = ChoiceSpace::default();
        space.rebuild(&self);
        let mut map = Arc::unwrap_or_clone(std::mem::take(&mut self.base));
        space.for_each_survivor(&self, choice, |i| {
            if let Some((lba, tag)) = self.record(i) {
                map.insert(lba, tag);
            }
        });
        map
    }
}

/// The shape of a space, one per rule of the module header.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Kind {
    /// PLP: one image.
    #[default]
    Whole,
    /// LFS in-order recovery: a choice is a cut.
    Prefix,
    /// Orderless / in-order writeback: a bit per in-flight program.
    Subset,
    /// Transactional writeback: bit 0 lands the open group.
    Group,
}

/// The images a device's barrier mode admits from one [`CrashState`], each
/// named by a choice: 0 is [`Device::crash_image`]. A prefix space has
/// [`ChoiceSpace::width`] + 1 choices (a cut), a mask space 2^width (a
/// bitmask). Rebuilt in place, so one space serves every state of a trace
/// without allocating once it has met the largest.
#[derive(Debug, Clone, Default)]
pub struct ChoiceSpace {
    kind: Kind,
    /// Tail indices of the in-flight programs: the holes of a prefix
    /// space, the bits of a subset space (at most [`MAX_CHOICE_BITS`]).
    positions: Vec<usize>,
    /// A group space whose open group can land.
    lands: bool,
}

impl ChoiceSpace {
    /// Rebuilds the space in place as the one `state`'s barrier mode
    /// admits.
    pub fn rebuild(&mut self, state: &CrashState) {
        self.positions.clear();
        self.lands = false;
        let inflight = state.tail.iter().enumerate().filter(|(_, r)| !r.done);
        let inflight = inflight.map(|(i, _)| i);
        self.kind = match state.mode {
            _ if state.plp => Kind::Whole,
            BarrierMode::LfsInOrderRecovery => {
                self.positions.extend(inflight);
                Kind::Prefix
            }
            BarrierMode::InOrderWriteback | BarrierMode::Unsupported => {
                self.positions.extend(inflight.take(MAX_CHOICE_BITS));
                Kind::Subset
            }
            BarrierMode::Transactional => {
                // The group commits at its last member's program: it can
                // land only if that program may have completed, i.e. every
                // member still to come is in flight.
                self.lands = state.open_group.is_some_and(|g| {
                    let member = |r: &&AppendRec| !r.done && r.group == Some(g.id);
                    g.left == state.tail.iter().filter(member).count()
                });
                Kind::Group
            }
        };
    }

    /// The space's free dimensions: a prefix space's holes, a mask space's
    /// bits.
    pub fn width(&self) -> usize {
        match self.kind {
            Kind::Whole => 0,
            Kind::Prefix | Kind::Subset => self.positions.len(),
            Kind::Group => usize::from(self.lands),
        }
    }

    /// Whether a choice is a bitmask (subset and group spaces) rather than
    /// a prefix cut.
    pub fn is_mask(&self) -> bool {
        matches!(self.kind, Kind::Subset | Kind::Group)
    }

    /// A prefix choice's cut: the tail records it keeps.
    fn cut(&self, state: &CrashState, choice: u64) -> usize {
        let hole = usize::try_from(choice)
            .ok()
            .and_then(|c| self.positions.get(c));
        hole.copied().unwrap_or(state.tail.len())
    }

    /// Calls `land` with every record of `state` that survives under
    /// `choice`, in append order ([`CrashState::record`] numbering).
    fn for_each_survivor(&self, state: &CrashState, choice: u64, mut land: impl FnMut(usize)) {
        let tail = state.tail.iter().enumerate();
        match self.kind {
            Kind::Whole => (0..state.tail.len() + state.cache.len()).for_each(land),
            Kind::Prefix => (0..self.cut(state, choice)).for_each(land),
            Kind::Subset => {
                let mut free = self.positions.iter().enumerate().peekable();
                for (i, r) in tail {
                    let retired = match free.next_if(|&(_, &at)| at == i) {
                        Some((bit, _)) => choice & (1u64 << bit) != 0,
                        None => r.done,
                    };
                    if retired {
                        land(i);
                    }
                }
            }
            Kind::Group => {
                let open = state.open_group.map(|g| g.id);
                let lands = self.lands && choice & 1 != 0;
                for (i, r) in tail {
                    let member = r.group.is_some() && r.group == open;
                    if (member && lands) || (!member && r.done) {
                        land(i);
                    }
                }
            }
        }
    }
}

/// One device's crash image under a choice, as an overlay on the state's
/// base: every tail (and, under PLP, cache) block in ascending order with
/// the tag it resolves to. Covers the *same* block set for every choice of
/// a state, so the tags alone are a complete image-equality key — no base
/// clone and no allocation per image: [`Overlay::resolve`] rewrites the
/// tags in place. It holds no reference to its state; every method that
/// reads one takes it.
#[derive(Debug, Clone, Default)]
pub struct Overlay {
    /// `(block, tag under the current choice)`, ascending by block.
    entries: Vec<(Lba, BlockTag)>,
    /// Tag of each entry under the base alone.
    base_tags: Vec<BlockTag>,
    /// Per entry, the least tag any choice can resolve it to.
    floors: Vec<BlockTag>,
    /// Entry of each record, in [`CrashState::record`] order.
    slots: Vec<u32>,
    /// Tail records applied so far (prefix spaces only): the next, longer
    /// prefix extends the overlay instead of rebuilding it.
    cut: usize,
}

/// One device's image: an overlay read over its state's base.
pub struct OverlayImage<'a> {
    state: &'a CrashState,
    overlay: &'a Overlay,
}

impl ImageView for OverlayImage<'_> {
    #[inline]
    fn tag(&self, lba: Lba) -> BlockTag {
        self.overlay.tag(self.state, lba)
    }
}

impl Overlay {
    /// Rebuilds the overlay in place as `state`'s, with nothing but the
    /// base resolved.
    pub fn rebuild(&mut self, state: &CrashState) {
        let entries = &mut self.entries;
        entries.clear();
        entries.extend(state.records().map(|(lba, _)| (lba, BlockTag::UNWRITTEN)));
        entries.sort_unstable_by_key(|e| e.0);
        entries.dedup_by_key(|e| e.0);
        for e in entries.iter_mut() {
            e.1 = state.base.tag(e.0);
        }
        // Every record's block was collected above, so the search hits.
        let slot = |lba| entries.binary_search_by_key(&lba, |e| e.0);
        let slots = state
            .records()
            .map(|(lba, _)| slot(lba).unwrap_or_else(|at| at));
        self.slots.clear();
        self.slots.extend(slots.map(|slot| slot as u32));
        self.base_tags.clear();
        self.base_tags.extend(entries.iter().map(|e| e.1));
        self.floors.clear();
        self.floors.extend_from_slice(&self.base_tags);
        for (&slot, (_, tag)) in self.slots.iter().zip(state.records()) {
            if let Some(floor) = self.floors.get_mut(slot as usize) {
                *floor = (*floor).min(tag);
            }
        }
        self.cut = 0;
    }

    /// `(block, tag)` of every entry under the current choice, ascending
    /// by block.
    #[inline]
    pub fn entries(&self) -> &[(Lba, BlockTag)] {
        &self.entries
    }

    /// Per entry, the least tag any choice can resolve it to: its base tag
    /// or any tail or cache tag written to it. (It bounds which
    /// ordered-data entries can read differently from the base.)
    pub fn floors(&self) -> &[BlockTag] {
        &self.floors
    }

    /// The tag at `lba` of the image this overlay resolves `state` to.
    #[inline]
    pub fn tag(&self, state: &CrashState, lba: Lba) -> BlockTag {
        match self.entries.binary_search_by_key(&lba, |e| e.0) {
            Ok(i) => self.entries.get(i).map_or(BlockTag::UNWRITTEN, |e| e.1),
            Err(_) => state.base.tag(lba),
        }
    }

    /// The image this overlay resolves `state` to.
    pub fn on<'a>(&'a self, state: &'a CrashState) -> OverlayImage<'a> {
        OverlayImage {
            state,
            overlay: self,
        }
    }

    /// Every `(block, tag)` some choice can resolve an entry to — its base
    /// tag and each tail or cache tag written to it, unordered and with
    /// repeats: the candidates an [`EpochIndex`] probe judges once per
    /// state.
    pub fn candidates<'a>(
        &'a self,
        state: &'a CrashState,
    ) -> impl Iterator<Item = (Lba, BlockTag)> + 'a {
        let base = self.entries.iter().zip(&self.base_tags);
        base.map(|(e, &tag)| (e.0, tag)).chain(state.records())
    }

    fn reset(&mut self) {
        for (e, &tag) in self.entries.iter_mut().zip(&self.base_tags) {
            e.1 = tag;
        }
        self.cut = 0;
    }

    /// Record `i` survived: its block now holds its tag.
    #[inline]
    fn keep(&mut self, state: &CrashState, i: usize) {
        let slot = self.slots.get(i).map(|&slot| slot as usize);
        let entry = slot.and_then(|slot| self.entries.get_mut(slot));
        if let (Some(e), Some((_, tag))) = (entry, state.record(i)) {
            e.1 = tag;
        }
    }

    /// Rewrites the overlay to `state`'s image under one choice of `space`
    /// (rebuilt from the same state). Survivors are applied in append
    /// order over the base, so every entry resolves — a lost one to the
    /// base version (UNWRITTEN when the base never held it).
    pub fn resolve(&mut self, state: &CrashState, space: &ChoiceSpace, choice: u64) {
        if space.kind == Kind::Prefix {
            let cut = space.cut(state, choice);
            if cut < self.cut {
                self.reset();
            }
            for i in self.cut..cut {
                self.keep(state, i);
            }
            self.cut = cut;
            return;
        }
        self.reset();
        space.for_each_survivor(state, choice, |i| self.keep(state, i));
    }

    /// Materializes the overlay over `state`'s base into a standalone
    /// image: the base's pages copied, the overlay stored over them.
    pub fn materialize(&self, state: &CrashState) -> BlockMap {
        let mut map = BlockMap::clone(&state.base);
        for &(lba, tag) in &self.entries {
            if tag == BlockTag::UNWRITTEN {
                map.remove(lba);
            } else {
                map.insert(lba, tag);
            }
        }
        map
    }
}
