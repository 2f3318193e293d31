//! The explorer's budget over a device's [`ChoiceSpace`] (which images a
//! power loss can leave is `bio_flash`'s to say): the exhaustive window and
//! its clamp, one stratified draw past it, and the set of distinct images
//! seen at a point ([`SeenImages`]).

use bio_flash::{BlockTag, ChoiceSpace, Overlay};
use bio_sim::SimRng;

/// Free nondeterministic program-completion bits enumerated per device
/// (2^8 = 256 subsets before the exhaustive window is clamped).
pub(super) const MAX_FREE_BITS: usize = 8;

/// Choices enumerated exhaustively (the pre-sampling window): every cut of
/// a prefix space, the first [`MAX_FREE_BITS`] bits of a mask space.
pub(super) fn exhaustive_choices(space: &ChoiceSpace) -> u64 {
    if space.is_mask() {
        1u64 << space.width().min(MAX_FREE_BITS)
    } else {
        space.width() as u64 + 1
    }
}

/// Whether exhaustive enumeration clamps `space` to [`MAX_FREE_BITS`].
pub(super) fn clamps(space: &ChoiceSpace) -> bool {
    space.is_mask() && space.width() > MAX_FREE_BITS
}

/// One stratified draw at cardinality stratum `k`: a choice whose
/// reordering keeps (about) `k` extra programs alive, drawn uniformly from
/// the full free list. `shuffle` is scratch.
pub(super) fn sample_choice(
    space: &ChoiceSpace,
    k: usize,
    rng: &mut SimRng,
    shuffle: &mut Vec<usize>,
) -> u64 {
    let n = space.width();
    let k = k.min(n);
    if !space.is_mask() {
        return k as u64;
    }
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
            .extend(overlays.iter().flat_map(Overlay::entries).map(|e| e.1));
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
