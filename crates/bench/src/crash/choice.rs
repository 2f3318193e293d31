//! Choice space: which crash images a device's barrier mode admits at a
//! capture point ([`ChoiceSpace`]), one such image as an overlay on the
//! shared base ([`Overlay`]), and the set of distinct images seen so far
//! ([`SeenImages`]).

use std::collections::BTreeMap;

use bio_flash::{BarrierMode, BlockTag, ImageView, Lba, PersistedImage};
use bio_sim::SimRng;

use super::capture::DeviceState;

/// Free nondeterministic program-completion bits enumerated per device
/// (2^8 = 256 subsets before the exhaustive window is clamped).
pub(super) const MAX_FREE_BITS: usize = 8;

/// Widest free list the sampler draws from (a reordering choice is a
/// `u64` bitmask, so 64 bits — 8x the exhaustive window).
const MAX_SAMPLE_BITS: usize = 64;

/// The reordering choice space of one device at one capture point.
#[derive(Debug, Clone)]
pub(super) enum ChoiceSpace {
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
    pub(super) fn exhaustive_choices(&self) -> u64 {
        match self {
            ChoiceSpace::Single => 1,
            ChoiceSpace::Prefix(holes) => holes.len() as u64 + 1,
            ChoiceSpace::Subset(free) => 1u64 << free.len().min(MAX_FREE_BITS),
            ChoiceSpace::Groups(gs) => 1u64 << gs.len().min(MAX_FREE_BITS),
        }
    }

    /// Width of the full choice space, in sampling strata.
    pub(super) fn sample_bits(&self) -> usize {
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
    pub(super) fn sample_choice(&self, k: usize, rng: &mut SimRng) -> u64 {
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
pub(super) struct Overlay<'a> {
    pub(super) dev: &'a DeviceState,
    /// `(block, tag under the current choice)`, ascending by block.
    pub(super) entries: Vec<(Lba, BlockTag)>,
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
    pub(super) fn new(dev: &'a DeviceState) -> Overlay<'a> {
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

    /// The tags written to each entry by the tail and, under PLP, the
    /// cache, as `(entry, tag)`.
    fn written(&self) -> impl Iterator<Item = (usize, BlockTag)> + '_ {
        let tail = self.dev.tail.iter().map(|r| r.tag);
        let cache = self.dev.cache.iter().map(|c| c.1);
        let slots = self.slots.iter().map(|&slot| slot as usize);
        slots.zip(tail.chain(cache))
    }

    /// Per entry, the least tag any choice can resolve it to: its base
    /// tag or any tail or cache tag written to it. (It bounds which
    /// ordered-data entries can read differently from the base.)
    pub(super) fn floors(&self) -> Vec<BlockTag> {
        let mut floors = self.base_tags.clone();
        for (slot, tag) in self.written() {
            floors[slot] = floors[slot].min(tag);
        }
        floors
    }

    /// Every `(block, tag)` some choice can resolve an entry to — its
    /// base tag and each tail or cache tag written to it — ascending: the
    /// candidates an [`bio_flash::EpochIndex`] probe judges once per point.
    pub(super) fn candidates(&self) -> Vec<(Lba, BlockTag)> {
        let lba = |slot: usize| self.entries[slot].0;
        let mut out: Vec<(Lba, BlockTag)> = (0..self.entries.len())
            .map(lba)
            .zip(self.base_tags.iter().copied())
            .chain(self.written().map(|(slot, tag)| (lba(slot), tag)))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
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
    pub(super) fn resolve(&mut self, space: &ChoiceSpace, choice: u64) {
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
    pub(super) fn materialize(&self) -> PersistedImage {
        let mut map: BTreeMap<Lba, BlockTag> = self.dev.base.iter().collect();
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
    pub(super) fn choice_space(&self) -> (ChoiceSpace, bool) {
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

/// The distinct images seen at one point: every image's overlay tags
/// (the equality key, see [`Overlay`]) back to back in one buffer, and
/// the images' numbers ordered by key.
#[derive(Default)]
pub(super) struct SeenImages {
    keys: Vec<BlockTag>,
    order: Vec<u32>,
}

impl SeenImages {
    /// Records the image `views` resolve to; false when it was seen before.
    pub(super) fn insert(&mut self, views: &[Overlay<'_>]) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use bio_flash::AppendLog;

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
        let d = DeviceState::of_log(BarrierMode::LfsInOrderRecovery, false, &mixed_log());
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
        let d = DeviceState::of_log(BarrierMode::Unsupported, false, &mixed_log());
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
        let d = DeviceState::of_log(BarrierMode::Unsupported, false, &log);
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
        let d = DeviceState::of_log(BarrierMode::Transactional, false, &log);
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
        let mut d = DeviceState::of_log(BarrierMode::Unsupported, true, &mixed_log());
        d.cache.push((Lba(9), BlockTag(90)));
        let (space, _) = d.choice_space();
        assert_eq!(space.exhaustive_choices(), 1);
        let img = view(&d, &space, 0);
        assert_eq!(img.tag(Lba(2)), BlockTag(20)); // even in-flight survives
        assert_eq!(img.tag(Lba(9)), BlockTag(90)); // cache overlaid
    }
}
