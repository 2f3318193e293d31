//! Lockstep suite for [`BlockMap`], the direct-indexed block map behind
//! [`bio_flash::AppendLog::base`] and every crash image's base: driven
//! beside a `BTreeMap<Lba, BlockTag>` (what the base was before it)
//! through 256 generated operation sequences. Every `insert` and `remove`
//! must return the version it replaced, every read agree — `get` and the
//! image read `tag` — and after every step `len`, the ascending iteration
//! and equality with a second map must agree too.
//!
//! Addresses cluster the way a filesystem's do (metadata, journal, data
//! extents far apart), straddle page boundaries and skip whole pages.

use std::collections::BTreeMap;

use bio_flash::{BlockMap, BlockTag, ImageView, Lba};
use bio_sim::SimRng;
use proptest::prelude::*;

/// An address: near the start, around a page boundary, or far out.
fn lba(rng: &mut SimRng) -> Lba {
    Lba(match rng.below(4) {
        0 => rng.below(64),
        1 => 4_096 - 8 + rng.below(16),
        2 => (1 << 20) + rng.below(32),
        _ => rng.below(1 << 24),
    })
}

/// Drives a block map and a B-tree through one generated case.
fn lockstep(seed: u64) -> Result<(), String> {
    let mut rng = SimRng::new(seed);
    let (mut map, mut reference) = (BlockMap::new(), BTreeMap::new());
    for step in 0..rng.range(1, 200) {
        let (at, tag) = (lba(&mut rng), BlockTag(rng.below(1_000)));
        let replaced = (map.insert(at, tag), reference.insert(at, tag));
        if replaced.0 != replaced.1 {
            return Err(format!("step {step}: insert {at:?} replaced {replaced:?}"));
        }
        // A crash image materialized over a base forgets the blocks its
        // overlay leaves unwritten: remove one, held or not.
        if rng.chance(0.2) {
            let gone = if rng.chance(0.5) { at } else { lba(&mut rng) };
            let removed = (map.remove(gone), reference.remove(&gone));
            if removed.0 != removed.1 {
                return Err(format!("step {step}: remove {gone:?} gave {removed:?}"));
            }
        }
        let probe = if rng.chance(0.5) { at } else { lba(&mut rng) };
        let read = (map.get(probe), reference.get(&probe).copied());
        let unwritten = read.1.unwrap_or(BlockTag::UNWRITTEN);
        let image = (map.tag(probe), unwritten);
        if read.0 != read.1 || image.0 != image.1 {
            return Err(format!("step {step}: {probe:?} reads {read:?} / {image:?}"));
        }
        if map.len() != reference.len() || map.is_empty() != reference.is_empty() {
            return Err(format!(
                "step {step}: len {} != {}",
                map.len(),
                reference.len()
            ));
        }
    }
    let pairs: Vec<(Lba, BlockTag)> = map.iter().collect();
    let expected: Vec<(Lba, BlockTag)> = reference.iter().map(|(&l, &t)| (l, t)).collect();
    if pairs != expected {
        return Err(format!("iteration {pairs:?} != {expected:?}"));
    }
    // A second map of the same pairs stored in another order, sometimes
    // nudged, so equality is tested both ways.
    let mut shuffled = pairs.clone();
    rng.shuffle(&mut shuffled);
    let mut other: BlockMap = shuffled.iter().copied().collect();
    let mut other_ref: BTreeMap<Lba, BlockTag> = shuffled.into_iter().collect();
    match rng.below(3) {
        0 => {}
        1 => {
            let (at, tag) = (lba(&mut rng), BlockTag(rng.below(1_000)));
            other.insert(at, tag);
            other_ref.insert(at, tag);
        }
        _ => {
            // A pair both already hold, stored again.
            if let Some(&(at, tag)) = rng.choose(&pairs) {
                other.extend([(at, tag)]);
                other_ref.insert(at, tag);
            }
        }
    }
    if (map == other) != (reference == other_ref) || map.clone() != map {
        return Err(format!(
            "equality {} vs {}",
            map == other,
            reference == other_ref
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn block_map_matches_a_btree(seed in 0u64..1 << 40) {
        let r = lockstep(seed);
        prop_assert!(r.is_ok(), "seed {seed}: {}", r.unwrap_err());
    }
}

#[test]
fn equality_is_by_pairs_not_by_insert_order() {
    // The same pairs stored far page first and near page first, and one
    // pair stored twice: equal. One more pair breaks it.
    let pairs = [(Lba(3), BlockTag(1)), (Lba(5_000), BlockTag(2))];
    let mut a: BlockMap = pairs.into_iter().collect();
    let b: BlockMap = pairs.into_iter().rev().collect();
    a.insert(Lba(3), BlockTag(1));
    assert_eq!(a, b);
    a.insert(Lba(1 << 22), BlockTag(9));
    assert_ne!(a, b);
    assert_eq!(a.len(), 3);
    assert_eq!(
        a.iter().collect::<Vec<_>>(),
        [
            (Lba(3), BlockTag(1)),
            (Lba(5_000), BlockTag(2)),
            (Lba(1 << 22), BlockTag(9))
        ]
    );
}
