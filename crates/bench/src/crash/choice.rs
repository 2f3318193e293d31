//! Choice space: which crash images a device's barrier mode admits at a
//! capture point ([`ChoiceSpace`]), one such image as an overlay on the
//! shared base ([`Overlay`]), and the set of distinct images seen so far
//! ([`SeenImages`]). All three own their buffers and are rebuilt in place
//! for each point, so an enumerator that keeps them across a trace
//! allocates nothing once they have met its largest point.

use bio_flash::{BarrierMode, BlockMap, BlockTag, ImageView, Lba, PersistedImage};
use bio_sim::SimRng;

use super::capture::DeviceState;

/// Free nondeterministic program-completion bits enumerated per device
/// (2^8 = 256 subsets before the exhaustive window is clamped).
pub(super) const MAX_FREE_BITS: usize = 8;

/// Widest free list the sampler draws from (a reordering choice is a
/// `u64` bitmask, so 64 bits — 8x the exhaustive window).
const MAX_SAMPLE_BITS: usize = 64;

/// The shape of a device's choice space at one capture point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Kind {
    /// PLP: a single image, everything (including the cache) survives.
    #[default]
    Single,
    /// LFS in-order recovery: choice `c` cuts the tail at the `c`-th hole
    /// (the tail index of an in-flight program); the choice one past the
    /// last hole keeps the full tail.
    Prefix,
    /// Orderless / in-order writeback: one bit per free in-flight program
    /// (bit set = that program retired before power loss).
    Subset,
    /// Transactional writeback: one all-or-nothing bit per open
    /// (uncommitted) group.
    Groups,
}

/// The reordering choice space of one device at one capture point. A
/// subset or group space holds the full free list (up to
/// [`MAX_SAMPLE_BITS`]); the exhaustive window enumerates the first
/// [`MAX_FREE_BITS`] bits, the sampler draws from all of them.
#[derive(Debug, Clone, Default)]
pub(super) struct ChoiceSpace {
    kind: Kind,
    /// Tail indices: the holes of a prefix space, the free programs of a
    /// subset space.
    positions: Vec<usize>,
    /// The open groups of a groups space.
    groups: Vec<u64>,
}

impl ChoiceSpace {
    /// Rebuilds the space in place as the one `dev`'s barrier mode admits
    /// at its point. Returns whether exhaustive enumeration has to clamp
    /// it to [`MAX_FREE_BITS`].
    pub(super) fn rebuild(&mut self, dev: &DeviceState) -> bool {
        self.positions.clear();
        self.groups.clear();
        if dev.plp {
            self.kind = Kind::Single;
            return false;
        }
        let inflight = dev.tail.iter().enumerate().filter(|(_, r)| !r.done);
        let inflight = inflight.map(|(i, _)| i);
        match dev.mode {
            BarrierMode::LfsInOrderRecovery => {
                self.kind = Kind::Prefix;
                self.positions.extend(inflight);
                false
            }
            BarrierMode::InOrderWriteback | BarrierMode::Unsupported => {
                self.kind = Kind::Subset;
                self.positions.extend(inflight);
                let clamped = self.positions.len() > MAX_FREE_BITS;
                self.positions.truncate(MAX_SAMPLE_BITS);
                clamped
            }
            BarrierMode::Transactional => {
                self.kind = Kind::Groups;
                for r in &dev.tail {
                    if let Some(g) = r.group {
                        if !dev.committed.contains(&g) && !self.groups.contains(&g) {
                            self.groups.push(g);
                        }
                    }
                }
                let clamped = self.groups.len() > MAX_FREE_BITS;
                self.groups.truncate(MAX_SAMPLE_BITS);
                clamped
            }
        }
    }

    /// Width of the full choice space, in sampling strata.
    pub(super) fn sample_bits(&self) -> usize {
        match self.kind {
            Kind::Single => 0,
            Kind::Prefix | Kind::Subset => self.positions.len(),
            Kind::Groups => self.groups.len(),
        }
    }

    /// Whether each choice is a bitmask (subset and group spaces), whose
    /// bits a minimizer clears one at a time; a prefix choice is a cut.
    pub(super) fn is_mask(&self) -> bool {
        matches!(self.kind, Kind::Subset | Kind::Groups)
    }

    /// Choices enumerated exhaustively (the pre-sampling window).
    pub(super) fn exhaustive_choices(&self) -> u64 {
        match self.kind {
            Kind::Single => 1,
            Kind::Prefix => self.positions.len() as u64 + 1,
            Kind::Subset | Kind::Groups => 1u64 << self.sample_bits().min(MAX_FREE_BITS),
        }
    }

    /// One stratified draw at cardinality stratum `k`: a choice whose
    /// reordering keeps (about) `k` extra programs alive, drawn uniformly
    /// from the full free list. `shuffle` is scratch.
    pub(super) fn sample_choice(
        &self,
        k: usize,
        rng: &mut SimRng,
        shuffle: &mut Vec<usize>,
    ) -> u64 {
        let n = self.sample_bits();
        if self.kind == Kind::Prefix {
            return k.min(n) as u64;
        }
        let k = k.min(n);
        shuffle.clear();
        shuffle.extend(0..n);
        let mut mask = 0u64;
        for i in 0..k {
            let j = i + rng.below((n - i) as u64) as usize;
            shuffle.swap(i, j);
            mask |= 1u64 << shuffle[i];
        }
        mask
    }
}

/// One device's crash image under the current reordering choice, as an
/// overlay on the device's base: every tail (and, for PLP, cache) block
/// in ascending order with the tag it resolves to. Covers the *same*
/// block set for every choice of a point, so the tags alone are a
/// complete image-equality key — no base clone and no allocation per
/// image: [`Overlay::resolve`] rewrites the tags in place. It holds no
/// reference to its device; every method that reads one takes it.
#[derive(Debug, Clone, Default)]
pub(super) struct Overlay {
    /// `(block, tag under the current choice)`, ascending by block.
    pub(super) entries: Vec<(Lba, BlockTag)>,
    /// Tag of each entry under the base alone.
    base_tags: Vec<BlockTag>,
    /// Per entry, the least tag any choice can resolve it to: its base
    /// tag or any tail or cache tag written to it. (It bounds which
    /// ordered-data entries can read differently from the base.)
    pub(super) floors: Vec<BlockTag>,
    /// Entry of each tail record, then of each cache block.
    slots: Vec<u32>,
    /// Tail records applied so far ([`Kind::Prefix`] only): the next,
    /// longer prefix extends the overlay instead of rebuilding it.
    cut: usize,
}

/// One device's image: an overlay read over the device's base.
pub(super) struct OverlayImage<'a> {
    dev: &'a DeviceState,
    overlay: &'a Overlay,
}

impl ImageView for OverlayImage<'_> {
    fn tag(&self, lba: Lba) -> BlockTag {
        self.overlay.tag(self.dev, lba)
    }
}

/// The tags written to each entry by `dev`'s tail and, under PLP, its
/// cache, as `(entry, tag)`.
fn written<'a>(
    slots: &'a [u32],
    dev: &'a DeviceState,
) -> impl Iterator<Item = (usize, BlockTag)> + 'a {
    let tail = dev.tail.iter().map(|r| r.tag);
    let cache = dev.cache.iter().map(|c| c.1);
    let slots = slots.iter().map(|&slot| slot as usize);
    slots.zip(tail.chain(cache))
}

impl Overlay {
    /// Rebuilds the overlay in place as `dev`'s at its point, with nothing
    /// but the base resolved.
    pub(super) fn rebuild(&mut self, dev: &DeviceState) {
        let blocks = || {
            let cache = dev.cache.iter().map(|c| c.0);
            dev.tail.iter().map(|r| r.lba).chain(cache)
        };
        let entries = &mut self.entries;
        entries.clear();
        entries.extend(blocks().map(|lba| (lba, BlockTag::UNWRITTEN)));
        entries.sort_unstable_by_key(|e| e.0);
        entries.dedup_by_key(|e| e.0);
        for e in entries.iter_mut() {
            e.1 = dev.base.tag(e.0);
        }
        let slot = |lba| {
            entries
                .binary_search_by_key(&lba, |e| e.0)
                .expect("collected above")
        };
        self.slots.clear();
        self.slots.extend(blocks().map(|lba| slot(lba) as u32));
        self.base_tags.clear();
        self.base_tags.extend(entries.iter().map(|e| e.1));
        self.floors.clear();
        self.floors.extend_from_slice(&self.base_tags);
        for (slot, tag) in written(&self.slots, dev) {
            self.floors[slot] = self.floors[slot].min(tag);
        }
        self.cut = 0;
    }

    /// The tag at `lba` of the image this overlay resolves `dev` to.
    pub(super) fn tag(&self, dev: &DeviceState, lba: Lba) -> BlockTag {
        match self.entries.binary_search_by_key(&lba, |e| e.0) {
            Ok(i) => self.entries[i].1,
            Err(_) => dev.base.tag(lba),
        }
    }

    /// The image this overlay resolves `dev` to.
    pub(super) fn on<'a>(&'a self, dev: &'a DeviceState) -> OverlayImage<'a> {
        OverlayImage { dev, overlay: self }
    }

    /// Every `(block, tag)` some choice can resolve an entry to — its
    /// base tag and each tail or cache tag written to it, unordered and
    /// with repeats: the candidates an [`bio_flash::EpochIndex`] probe
    /// judges once per point.
    pub(super) fn candidates<'a>(
        &'a self,
        dev: &'a DeviceState,
    ) -> impl Iterator<Item = (Lba, BlockTag)> + 'a {
        let lba = |slot: usize| self.entries[slot].0;
        let base = self.entries.iter().zip(&self.base_tags);
        base.map(|(e, &tag)| (e.0, tag))
            .chain(written(&self.slots, dev).map(move |(slot, tag)| (lba(slot), tag)))
    }

    fn reset(&mut self) {
        for (e, &tag) in self.entries.iter_mut().zip(&self.base_tags) {
            e.1 = tag;
        }
        self.cut = 0;
    }

    /// Tail record `i` survived: its block now holds its tag.
    fn keep(&mut self, dev: &DeviceState, i: usize) {
        self.entries[self.slots[i] as usize].1 = dev.tail[i].tag;
    }

    /// Rewrites the overlay to `dev`'s image under one choice of `space`.
    /// Choice 0 always reproduces the device's own deterministic
    /// [`bio_flash::Device::crash_image`]. Survivors are applied in
    /// append order over the base, so every tail block resolves — the
    /// masked-out ones to the base version (UNWRITTEN when the base never
    /// held them).
    pub(super) fn resolve(&mut self, dev: &DeviceState, space: &ChoiceSpace, choice: u64) {
        match space.kind {
            Kind::Prefix => {
                let holes = &space.positions;
                let cut = holes
                    .get(choice as usize)
                    .copied()
                    .unwrap_or(dev.tail.len());
                if cut < self.cut {
                    self.reset();
                }
                for i in self.cut..cut {
                    self.keep(dev, i);
                }
                self.cut = cut;
            }
            Kind::Single => {
                self.reset();
                for i in 0..dev.tail.len() {
                    self.keep(dev, i);
                }
                for (slot, c) in self.slots[dev.tail.len()..].iter().zip(&dev.cache) {
                    self.entries[*slot as usize].1 = c.1;
                }
            }
            Kind::Subset => {
                self.reset();
                let free = &space.positions;
                let mut bit = 0;
                for (i, r) in dev.tail.iter().enumerate() {
                    let retired = if free.get(bit) == Some(&i) {
                        bit += 1;
                        choice & (1u64 << (bit - 1)) != 0
                    } else {
                        r.done
                    };
                    if retired {
                        self.keep(dev, i);
                    }
                }
            }
            Kind::Groups => {
                self.reset();
                let survives = |g: u64| {
                    dev.committed.contains(&g)
                        || space
                            .groups
                            .iter()
                            .position(|&open| open == g)
                            .is_some_and(|bit| choice & (1u64 << bit) != 0)
                };
                for (i, r) in dev.tail.iter().enumerate() {
                    if r.done && r.group.is_none_or(survives) {
                        self.keep(dev, i);
                    }
                }
            }
        }
    }

    /// Materializes the overlay over `dev`'s base into a standalone image:
    /// the base's pages copied, the overlay stored over them.
    pub(super) fn materialize(&self, dev: &DeviceState) -> PersistedImage {
        let mut map = BlockMap::clone(&dev.base);
        for &(lba, tag) in &self.entries {
            if tag == BlockTag::UNWRITTEN {
                map.remove(lba);
            } else {
                map.insert(lba, tag);
            }
        }
        PersistedImage::from(map)
    }
}

/// The distinct images seen at one point: every image's overlay tags
/// (the equality key, see [`Overlay`]) back to back in one buffer, and
/// the images' numbers ordered by key.
#[derive(Default)]
pub(super) struct SeenImages {
    keys: Vec<BlockTag>,
    order: Vec<u32>,
}

impl SeenImages {
    /// Forgets every image, keeping the buffers: the next point starts
    /// empty.
    pub(super) fn clear(&mut self) {
        self.keys.clear();
        self.order.clear();
    }

    /// Records the image `overlays` resolve to; false when it was seen
    /// before.
    pub(super) fn insert(&mut self, overlays: &[Overlay]) -> bool {
        let at = self.keys.len();
        self.keys
            .extend(overlays.iter().flat_map(|o| &o.entries).map(|e| e.1));
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

#[cfg(test)]
mod tests {
    use super::*;
    use bio_flash::AppendLog;

    /// The choice space of `d`, and whether it clamps.
    fn space_of(d: &DeviceState) -> (ChoiceSpace, bool) {
        let mut space = ChoiceSpace::default();
        let clamped = space.rebuild(d);
        (space, clamped)
    }

    /// `d`'s overlay under one choice.
    fn view(d: &DeviceState, space: &ChoiceSpace, choice: u64) -> Overlay {
        let mut o = Overlay::default();
        o.rebuild(d);
        o.resolve(d, space, choice);
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
        let d = DeviceState::of_log(BarrierMode::LfsInOrderRecovery, false, &mixed_log());
        let (space, clamped) = space_of(&d);
        assert!(!clamped);
        assert_eq!(space.exhaustive_choices(), 3); // holes at idx 1 and 3, plus "none"
                                                   // Choice 0 == the deterministic crash image (prefix to first hole).
        let img0 = view(&d, &space, 0);
        assert_eq!(img0.tag(&d, Lba(1)), BlockTag(10));
        assert_eq!(img0.tag(&d, Lba(2)), BlockTag::UNWRITTEN);
        assert_eq!(img0.tag(&d, Lba(3)), BlockTag::UNWRITTEN);
        // Choice 1: first in-flight made it, hole at idx 3.
        let img1 = view(&d, &space, 1);
        assert_eq!(img1.tag(&d, Lba(2)), BlockTag(20));
        assert_eq!(img1.tag(&d, Lba(3)), BlockTag(30));
        assert_eq!(img1.tag(&d, Lba(4)), BlockTag::UNWRITTEN);
        // Choice 2: everything made it.
        let img2 = view(&d, &space, 2);
        assert_eq!(img2.tag(&d, Lba(4)), BlockTag(40));
    }

    #[test]
    fn orderless_space_is_subsets() {
        let d = DeviceState::of_log(BarrierMode::Unsupported, false, &mixed_log());
        let (space, clamped) = space_of(&d);
        assert!(!clamped);
        assert_eq!(space.exhaustive_choices(), 4); // two free bits
                                                   // Choice 0 == done-only image.
        let img0 = view(&d, &space, 0);
        assert_eq!(img0.materialize(&d).len(), 2);
        // Bit 1 (second in-flight, idx 3) alone: out-of-order survival the
        // LFS mode cannot produce.
        let img = view(&d, &space, 0b10);
        assert_eq!(img.tag(&d, Lba(2)), BlockTag::UNWRITTEN);
        assert_eq!(img.tag(&d, Lba(4)), BlockTag(40));
    }

    #[test]
    fn subset_space_clamps_to_bit_budget_but_keeps_full_list() {
        let mut log = AppendLog::new();
        for i in 0..12 {
            log.begin(Lba(i), BlockTag(100 + i), None);
        }
        let d = DeviceState::of_log(BarrierMode::Unsupported, false, &log);
        let (space, clamped) = space_of(&d);
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
        let d = DeviceState::of_log(BarrierMode::Transactional, false, &log);
        let (space, _) = space_of(&d);
        assert_eq!(space.exhaustive_choices(), 2); // one open group
        let lost = view(&d, &space, 0);
        assert_eq!(lost.tag(&d, Lba(1)), BlockTag::UNWRITTEN);
        assert_eq!(lost.tag(&d, Lba(2)), BlockTag::UNWRITTEN);
        assert_eq!(lost.tag(&d, Lba(3)), BlockTag(30));
        let survived = view(&d, &space, 1);
        assert_eq!(survived.tag(&d, Lba(1)), BlockTag(10));
        assert_eq!(survived.tag(&d, Lba(2)), BlockTag(20));
    }

    #[test]
    fn plp_is_one_image_with_cache() {
        let mut d = DeviceState::of_log(BarrierMode::Unsupported, true, &mixed_log());
        d.cache.push((Lba(9), BlockTag(90)));
        let (space, _) = space_of(&d);
        assert_eq!(space.exhaustive_choices(), 1);
        let img = view(&d, &space, 0);
        assert_eq!(img.tag(&d, Lba(2)), BlockTag(20)); // even in-flight survives
        assert_eq!(img.tag(&d, Lba(9)), BlockTag(90)); // cache overlaid
    }
}
