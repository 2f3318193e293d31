//! Lockstep suite for [`EpochIndex`]: the B-tree index it replaced, kept
//! verbatim below as the reference (tag → transfer, `(block, seq)` →
//! epoch, block → verdict, and the two ordered extreme sets), is driven
//! beside the real one through 256 generated histories. After every
//! `advance` both must report the same work and agree on whether they can
//! probe at all; every probe must find the same extremes outside its
//! overlay, and on random overlays both must give the same `certifies`
//! answer — which the full [`EpochAudit`] must then confirm. The real
//! probe is told each overlay block's possible versions and reads their
//! verdicts from a memo; the overlays mostly pick among those versions
//! and now and then hold one the probe was not told of.
//!
//! The histories mix what a real device produces (sequences and epochs
//! that only grow per block, same-epoch overwrites coalesced onto their
//! predecessor's sequence, tags with gaps) with what it must never be
//! trusted on: a tag carried twice, a block's sequence or epoch going
//! backwards, the UNWRITTEN tag, a coalesced sequence under a newer epoch.
//! Folds come in any order, including old versions, versions of another
//! block and tags no transfer carried. Tags and blocks stay below 2^32 and
//! near each other; the ways out of that domain are direct tests beside
//! `irregular_history_is_never_certified`.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use bio_flash::{BlockMap, BlockTag, EpochAudit, EpochIndex, ImageView, Lba, TransferRec};
use bio_sim::SimRng;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Reference index: the B-tree implementation, verbatim.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LbaVerdict {
    vis: Option<u64>,
    need: Option<u64>,
}

fn min_epoch(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) | (None, x) => x,
    }
}

fn move_entry(set: &mut BTreeSet<(u64, Lba)>, lba: Lba, old: Option<u64>, new: Option<u64>) {
    if old == new {
        return;
    }
    if let Some(e) = old {
        set.remove(&(e, lba));
    }
    if let Some(e) = new {
        set.insert((e, lba));
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct RefEpochIndex {
    ingested: usize,
    by_tag: BTreeMap<BlockTag, TransferRec>,
    by_lba: BTreeMap<(Lba, u64), u64>,
    verdicts: BTreeMap<Lba, LbaVerdict>,
    vis: BTreeSet<(u64, Lba)>,
    need: BTreeSet<(u64, Lba)>,
    irregular: bool,
}

impl RefEpochIndex {
    fn advance<B: ImageView>(
        &mut self,
        history: &[TransferRec],
        folded: impl IntoIterator<Item = Lba>,
        base: &B,
    ) -> usize {
        let mut dirty: Vec<Lba> = folded.into_iter().collect();
        for t in history.iter().skip(self.ingested) {
            let last = self
                .by_lba
                .range((t.lba, 0)..=(t.lba, u64::MAX))
                .next_back();
            self.irregular |= t.tag == BlockTag::UNWRITTEN
                || last.is_some_and(|(&(_, seq), &epoch)| t.seq < seq || t.epoch < epoch)
                || self.by_tag.insert(t.tag, *t).is_some();
            self.by_lba.entry((t.lba, t.seq)).or_insert(t.epoch);
            dirty.push(t.lba);
        }
        self.ingested = history.len();
        dirty.sort_unstable();
        dirty.dedup();
        for &lba in &dirty {
            let new = self.verdict(lba, base.tag(lba));
            let old = if new == LbaVerdict::default() {
                self.verdicts.remove(&lba)
            } else {
                self.verdicts.insert(lba, new)
            }
            .unwrap_or_default();
            move_entry(&mut self.vis, lba, old.vis, new.vis);
            move_entry(&mut self.need, lba, old.need, new.need);
        }
        dirty.len()
    }

    fn verdict(&self, lba: Lba, tag: BlockTag) -> LbaVerdict {
        let held = self.by_tag.get(&tag);
        let seq = held.map_or(0, |t| t.seq);
        LbaVerdict {
            vis: held.filter(|t| t.lba == lba).map(|t| t.epoch),
            need: self
                .by_lba
                .range((
                    Bound::Excluded((lba, seq)),
                    Bound::Included((lba, u64::MAX)),
                ))
                .next()
                .map(|(_, &epoch)| epoch),
        }
    }

    fn probe(&self, in_overlay: impl Fn(Lba) -> bool) -> Option<RefEpochProbe<'_>> {
        if self.irregular {
            return None;
        }
        let outside = |e: &&(u64, Lba)| !in_overlay(e.1);
        Some(RefEpochProbe {
            index: self,
            vis: self.vis.iter().rev().find(outside).map(|e| e.0),
            need: self.need.iter().find(outside).map(|e| e.0),
        })
    }
}

#[derive(Debug, Clone, Copy)]
struct RefEpochProbe<'a> {
    index: &'a RefEpochIndex,
    vis: Option<u64>,
    need: Option<u64>,
}

impl RefEpochProbe<'_> {
    fn certifies(&self, overlay: impl IntoIterator<Item = (Lba, BlockTag)>) -> bool {
        let (mut vis, mut need) = (self.vis, self.need);
        for (lba, tag) in overlay {
            let v = self.index.verdict(lba, tag);
            vis = vis.max(v.vis);
            need = min_epoch(need, v.need);
        }
        !matches!((vis, need), (Some(v), Some(n)) if n < v)
    }
}

// ---------------------------------------------------------------------
// Generated input.
// ---------------------------------------------------------------------

/// Blocks a history writes: `0..BLOCKS`, plus block `BLOCKS` that only a
/// fold or an overlay ever names.
const BLOCKS: u64 = 6;

/// How a generated history breaks the regularity the index relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Defect {
    None,
    DuplicateTag,
    BackwardsSeq,
    BackwardsEpoch,
    Unwritten,
    CoalescedUnderNewerEpoch,
}

const DEFECTS: [Defect; 6] = [
    Defect::None,
    Defect::DuplicateTag,
    Defect::BackwardsSeq,
    Defect::BackwardsEpoch,
    Defect::Unwritten,
    Defect::CoalescedUnderNewerEpoch,
];

/// A history of `len` transfers: sequences and epochs grow, every tag is
/// new (with gaps), some same-epoch overwrites coalesce — then, unless
/// `defect` is `None`, one transfer in the second half is rewritten to
/// carry it.
fn history(rng: &mut SimRng, len: u64, defect: Defect) -> Vec<TransferRec> {
    let mut out: Vec<TransferRec> = Vec::new();
    let (mut epoch, mut tag, mut seq) = (rng.below(3), 1 + rng.below(1_000), 0);
    let mut last: BTreeMap<Lba, (u64, u64)> = BTreeMap::new();
    for _ in 0..len {
        epoch += rng.below(3) / 2;
        tag += 1 + rng.below(3) / 2;
        seq += 1 + rng.below(2);
        let lba = Lba(rng.below(BLOCKS));
        let s = match last.get(&lba) {
            Some(&(s, e)) if e == epoch && rng.chance(0.3) => s,
            _ => seq,
        };
        last.insert(lba, (s, epoch));
        out.push(TransferRec {
            seq: s,
            lba,
            tag: BlockTag(tag),
            epoch,
        });
    }
    let n = out.len();
    if n < 2 || defect == Defect::None {
        return out;
    }
    let i = n / 2 + rng.below((n - n / 2) as u64) as usize;
    let (earlier, before) = (out[rng.below(i as u64) as usize], out[i - 1]);
    let t = &mut out[i];
    match defect {
        Defect::None => {}
        Defect::DuplicateTag => t.tag = earlier.tag,
        Defect::BackwardsSeq => {
            t.lba = earlier.lba;
            t.seq = earlier.seq.saturating_sub(1);
        }
        Defect::BackwardsEpoch => {
            t.lba = earlier.lba;
            t.epoch = earlier.epoch.saturating_sub(1);
            t.seq = earlier.seq;
        }
        Defect::Unwritten => t.tag = BlockTag::UNWRITTEN,
        Defect::CoalescedUnderNewerEpoch => {
            // Onto the transfer just before it, which is its block's
            // newest: later transfers of that block in the same epoch are
            // where the two epochs of one sequence would disagree.
            t.lba = before.lba;
            t.seq = before.seq;
            t.epoch = before.epoch + 1;
        }
    }
    out
}

/// A fold: mostly an ingested transfer in any order; sometimes a version
/// of another block, or a tag no transfer carried.
fn fold(rng: &mut SimRng, ingested: &[TransferRec]) -> (Lba, BlockTag) {
    let t = ingested[rng.below(ingested.len() as u64) as usize];
    match rng.below(10) {
        0 => (Lba(rng.below(BLOCKS + 1)), t.tag),
        1 => (t.lba, BlockTag(1 + rng.below(5_000))),
        _ => (t.lba, t.tag),
    }
}

/// Every tag `lba` could hold in an image: its base tag, any version ever
/// transferred to it, UNWRITTEN, another block's version, a stranger.
fn versions(
    rng: &mut SimRng,
    lba: Lba,
    ingested: &[TransferRec],
    base: &BlockMap,
) -> Vec<BlockTag> {
    let mut tags: Vec<BlockTag> = ingested
        .iter()
        .filter(|t| t.lba == lba)
        .map(|t| t.tag)
        .collect();
    tags.push(base.tag(lba));
    tags.push(BlockTag::UNWRITTEN);
    if rng.chance(0.2) {
        tags.push(ingested[rng.below(ingested.len() as u64) as usize].tag);
    }
    if rng.chance(0.1) {
        tags.push(BlockTag(1 + rng.below(5_000)));
    }
    tags
}

/// What one generated case saw.
#[derive(Debug, Default, Clone, Copy)]
struct Seen {
    steps: u64,
    irregular: u64,
    certified: u64,
    refused: u64,
}

/// Drives the reference and the real index through one generated case and
/// returns the first disagreement.
fn lockstep(seed: u64) -> Result<Seen, String> {
    let mut rng = SimRng::new(seed);
    let defect = if rng.chance(0.6) {
        Defect::None
    } else {
        DEFECTS[rng.below(DEFECTS.len() as u64) as usize]
    };
    let len = rng.range(2, 48);
    let history = history(&mut rng, len, defect);
    let mut base = BlockMap::new();
    let (mut live, mut reference) = (EpochIndex::new(), RefEpochIndex::default());
    let mut seen = Seen::default();
    let mut upto = 0;
    while upto < history.len() {
        upto = (upto + 1 + rng.below(6) as usize).min(history.len());
        let ingested = &history[..upto];
        let folded: Vec<Lba> = (0..rng.below(5))
            .map(|_| {
                let (lba, tag) = fold(&mut rng, ingested);
                base.insert(lba, tag);
                lba
            })
            .collect();
        let work = (
            live.advance(ingested, folded.iter().copied(), &base),
            reference.advance(ingested, folded, &base),
        );
        if work.0 != work.1 {
            return Err(format!("{defect:?} at {upto}: advance work {work:?}"));
        }
        seen.steps += 1;
        for _ in 0..4 {
            // The blocks an overlay covers and every version each may
            // hold: the live probe's candidates.
            let blocks: BTreeSet<Lba> = (0..rng.below(4))
                .map(|_| Lba(rng.below(BLOCKS + 1)))
                .collect();
            let candidates: Vec<(Lba, Vec<BlockTag>)> = blocks
                .iter()
                .map(|&lba| (lba, versions(&mut rng, lba, ingested, &base)))
                .collect();
            let pairs = candidates
                .iter()
                .flat_map(|(lba, tags)| tags.iter().map(move |&tag| (*lba, tag)));
            let in_overlay = |lba| blocks.contains(&lba);
            let (probe, ref_probe) = match (live.probe(pairs), reference.probe(in_overlay)) {
                (Some(probe), Some(ref_probe)) => (probe, ref_probe),
                (None, None) => {
                    seen.irregular += 1;
                    continue;
                }
                (live, _) => {
                    let live = live.is_some();
                    return Err(format!(
                        "{defect:?} at {upto}: only one side probes (live {live})"
                    ));
                }
            };
            let extremes = (probe.extremes(), (ref_probe.vis, ref_probe.need));
            if extremes.0 != extremes.1 {
                return Err(format!(
                    "{defect:?} at {upto}: extremes {extremes:?} outside {blocks:?}"
                ));
            }
            for _ in 0..4 {
                // Mostly a candidate per block; now and then a version the
                // probe was not told of.
                let overlay: Vec<(Lba, BlockTag)> = candidates
                    .iter()
                    .map(|(lba, tags)| {
                        let tag = if rng.chance(0.1) {
                            BlockTag(1 + rng.below(5_000))
                        } else {
                            tags[rng.below(tags.len() as u64) as usize]
                        };
                        (*lba, tag)
                    })
                    .collect();
                let said = (
                    probe.certifies(&live, overlay.iter().copied()),
                    ref_probe.certifies(overlay.iter().copied()),
                );
                if said.0 != said.1 {
                    let base: Vec<_> = base.iter().collect();
                    return Err(format!(
                        "{defect:?} at {upto}: certifies {said:?} on {overlay:?} over {base:?}"
                    ));
                }
                let mut image = base.clone();
                image.extend(overlay.iter().copied());
                if said.0 && !EpochAudit::new(ingested).violations(&image).is_empty() {
                    return Err(format!("{defect:?} at {upto}: certified a violating image"));
                }
                if said.0 {
                    seen.certified += 1;
                } else {
                    seen.refused += 1;
                }
            }
        }
    }
    Ok(seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn live_index_matches_the_btree_reference(seed in 0u64..1 << 40) {
        let r = lockstep(seed);
        prop_assert!(r.is_ok(), "seed {seed}: {}", r.unwrap_err());
    }
}

#[test]
fn generated_cases_reach_every_branch() {
    // The lockstep proves nothing on a branch its input never reaches.
    let mut total = Seen::default();
    for seed in 0..256 {
        let s = lockstep(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        total.steps += s.steps;
        total.irregular += s.irregular;
        total.certified += s.certified;
        total.refused += s.refused;
    }
    assert!(
        total.irregular > 100 && total.certified > 1_000 && total.refused > 1_000,
        "{total:?}"
    );
}
