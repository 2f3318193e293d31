//! Lockstep suite for [`ConsistencyIndex`]: the B-tree index it replaced,
//! kept verbatim below as the reference (journal block → last writer,
//! `(block, tag, position)` for ordered data, and three ordered position
//! sets), is driven beside the real one through 256 generated record
//! sets. After every `advance` both must report the same work and agree on
//! whether they can probe; every probe must find the same extremes outside
//! its overlay, and on random overlays both must give the same `certifies`
//! answer — which the full [`ConsistencyCheck`] must then confirm.
//!
//! The record sets wrap a journal of 4–16 blocks (so journal blocks are
//! reused and records leave the checkable set), carry ordered data over
//! four blocks with repeated tags, flip durability on old, new and unknown
//! record positions, and sometimes break commit order (an id that does
//! not grow). Folds come in any order, including old versions and tags
//! nothing wrote.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use bio_flash::{BlockMap, BlockTag, ImageView, Lba};
use bio_fs::{ConsistencyCheck, ConsistencyIndex, TagRun, TxnRecord};
use bio_sim::SimRng;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Reference index: the B-tree implementation, verbatim.
// ---------------------------------------------------------------------

fn journal_lbas(r: &TxnRecord) -> impl Iterator<Item = Lba> + '_ {
    (0..r.jd_tags.len)
        .map(|i| Lba(r.jd_lba.0 + i))
        .chain([r.jc_lba])
}

fn jd_intact<V: ImageView>(r: &TxnRecord, image: &V) -> bool {
    r.jd_tags
        .iter()
        .enumerate()
        .all(|(i, t)| image.tag(Lba(r.jd_lba.0 + i as u64)) == t)
}

fn jc_intact<V: ImageView>(r: &TxnRecord, image: &V) -> bool {
    image.tag(r.jc_lba) == r.jc_tag
}

fn present_or_superseded<V: ImageView>(image: &V, lba: Lba, tag: BlockTag) -> bool {
    image.tag(lba).0 >= tag.0
}

struct RecVerdict {
    valid: bool,
    bad: bool,
}

fn rec_verdict<V: ImageView>(r: &TxnRecord, image: &V) -> RecVerdict {
    let (jd, jc) = (jd_intact(r, image), jc_intact(r, image));
    let valid = jd && jc;
    let od_lost = valid
        && r.ordered_data()
            .iter()
            .any(|&(lba, tag)| !present_or_superseded(image, lba, tag));
    RecVerdict {
        valid,
        bad: (jc && !jd) || od_lost || (r.durability_claimed && !valid),
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct RefConsistencyIndex {
    checkable: Vec<bool>,
    journal_owner: BTreeMap<Lba, u32>,
    ordered: BTreeSet<(Lba, BlockTag, u32)>,
    valid: BTreeSet<u32>,
    invalid: BTreeSet<u32>,
    bad: BTreeSet<u32>,
    irregular: bool,
}

impl RefConsistencyIndex {
    fn advance<B: ImageView>(
        &mut self,
        records: &[TxnRecord],
        folds: impl IntoIterator<Item = (Lba, BlockTag, BlockTag)>,
        durable: &[usize],
        base: &B,
    ) -> usize {
        let mut dirty: Vec<u32> = Vec::new();
        for (pos, r) in records.iter().enumerate().skip(self.checkable.len()) {
            self.irregular |= pos > 0 && records[pos - 1].id >= r.id;
            let pos = pos as u32;
            self.checkable.push(true);
            for lba in journal_lbas(r) {
                match self.journal_owner.insert(lba, pos) {
                    Some(prev) if prev != pos => self.retire(records, prev),
                    _ => {}
                }
            }
            for &(lba, tag) in r.ordered_data() {
                self.ordered.insert((lba, tag, pos));
            }
            dirty.push(pos);
        }
        for &pos in durable.iter().filter(|&&pos| pos < records.len()) {
            dirty.push(pos as u32);
        }
        for (lba, before, after) in folds {
            dirty.extend(self.journal_owner.get(&lba));
            let (lo, hi) = (before.min(after), before.max(after));
            dirty.extend(
                self.ordered
                    .range((
                        Bound::Excluded((lba, lo, u32::MAX)),
                        Bound::Included((lba, hi, u32::MAX)),
                    ))
                    .map(|e| e.2),
            );
        }
        dirty.sort_unstable();
        dirty.dedup();
        dirty.retain(|&pos| self.checkable[pos as usize]);
        for &pos in &dirty {
            let v = rec_verdict(&records[pos as usize], base);
            set_member(&mut self.valid, pos, v.valid);
            set_member(&mut self.invalid, pos, !v.valid);
            set_member(&mut self.bad, pos, v.bad);
        }
        dirty.len()
    }

    fn retire(&mut self, records: &[TxnRecord], pos: u32) {
        if !std::mem::take(&mut self.checkable[pos as usize]) {
            return;
        }
        for &(lba, tag) in records[pos as usize].ordered_data() {
            self.ordered.remove(&(lba, tag, pos));
        }
        self.valid.remove(&pos);
        self.invalid.remove(&pos);
        self.bad.remove(&pos);
    }

    fn probe<'a>(
        &'a self,
        records: &'a [TxnRecord],
        overlay: impl IntoIterator<Item = (Lba, BlockTag)>,
    ) -> Option<RefConsistencyProbe<'a>> {
        if self.irregular {
            return None;
        }
        let mut touched: Vec<u32> = Vec::new();
        for (lba, floor) in overlay {
            touched.extend(
                self.journal_owner
                    .get(&lba)
                    .filter(|&&pos| self.checkable[pos as usize]),
            );
            touched.extend(
                self.ordered
                    .range((
                        Bound::Excluded((lba, floor, u32::MAX)),
                        Bound::Included((lba, BlockTag(u64::MAX), u32::MAX)),
                    ))
                    .map(|e| e.2),
            );
        }
        touched.sort_unstable();
        touched.dedup();
        let outside = |pos: &&u32| touched.binary_search(pos).is_err();
        Some(RefConsistencyProbe {
            records,
            newest_valid: self.valid.iter().rev().find(outside).copied(),
            oldest_invalid: self.invalid.iter().find(outside).copied(),
            bad: self.bad.iter().any(|pos| outside(&pos)),
            touched,
        })
    }
}

fn set_member(set: &mut BTreeSet<u32>, pos: u32, member: bool) {
    if member {
        set.insert(pos);
    } else {
        set.remove(&pos);
    }
}

#[derive(Debug, Clone)]
struct RefConsistencyProbe<'a> {
    records: &'a [TxnRecord],
    touched: Vec<u32>,
    newest_valid: Option<u32>,
    oldest_invalid: Option<u32>,
    bad: bool,
}

impl RefConsistencyProbe<'_> {
    fn certifies<V: ImageView>(&self, image: &V) -> bool {
        if self.bad {
            return false;
        }
        let (mut newest_valid, mut oldest_invalid) = (self.newest_valid, self.oldest_invalid);
        for &pos in &self.touched {
            let v = rec_verdict(&self.records[pos as usize], image);
            if v.bad {
                return false;
            }
            if v.valid {
                newest_valid = newest_valid.max(Some(pos));
            } else {
                oldest_invalid = Some(oldest_invalid.map_or(pos, |o| o.min(pos)));
            }
        }
        !matches!((oldest_invalid, newest_valid), (Some(o), Some(n)) if o < n)
    }
}

// ---------------------------------------------------------------------
// Generated input.
// ---------------------------------------------------------------------

/// First journal block; ordered data lives on blocks `DATA..DATA + 4`.
const JOURNAL: u64 = 100;
const DATA: u64 = 500;

/// Up to `n` records round a `journal`-block journal, each with up to two
/// ordered data pages (a tag repeated now and then); tags grow. With
/// `disorder` one record takes an id that does not grow.
fn records(rng: &mut SimRng, n: u64, journal: u64, disorder: bool) -> Vec<TxnRecord> {
    let mut out: Vec<TxnRecord> = Vec::new();
    let (mut head, mut tag) = (0u64, 1u64);
    for id in 1..=n {
        let mut ordered_data = Vec::new();
        for _ in 0..rng.below(3) {
            let t = if rng.chance(0.1) {
                tag.saturating_sub(1).max(1)
            } else {
                tag
            };
            ordered_data.push((Lba(DATA + rng.below(4)), BlockTag(t)));
            tag += 1;
        }
        let logs = 1 + rng.below(2);
        if head + logs + 1 > journal {
            head = 0;
        }
        let jd_tags = TagRun {
            first: BlockTag(tag),
            len: logs,
        };
        let (jd_lba, jc_lba) = (Lba(JOURNAL + head), Lba(JOURNAL + head + logs));
        out.push(
            TxnRecord::new(id, jd_lba, jd_tags, jc_lba, BlockTag(tag + logs)).with_blocks(
                [],
                &[],
                &ordered_data,
            ),
        );
        head += logs + 1;
        tag += logs + 1;
    }
    if disorder && out.len() > 1 {
        let i = 1 + rng.below(out.len() as u64 - 1) as usize;
        out[i].id = out[i - 1].id - rng.below(2);
    }
    out
}

/// Every write the records imply.
fn writes(records: &[TxnRecord]) -> Vec<(Lba, BlockTag)> {
    let mut out: Vec<(Lba, BlockTag)> = Vec::new();
    for r in records {
        out.extend(r.ordered_data());
        out.extend(journal_lbas(r).zip(r.jd_tags.iter().chain([r.jc_tag])));
    }
    out
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
    let (n, journal) = (rng.range(2, 16), rng.range(4, 16));
    let disorder = rng.chance(0.15);
    let mut records = records(&mut rng, n, journal, disorder);
    let writes = writes(&records);
    let mut base = BlockMap::new();
    let (mut live, mut reference) = (ConsistencyIndex::new(), RefConsistencyIndex::default());
    let mut seen = Seen::default();
    let mut upto = 0;
    while upto < records.len() {
        upto = (upto + 1 + rng.below(3) as usize).min(records.len());
        let folds: Vec<(Lba, BlockTag, BlockTag)> = (0..rng.below(8))
            .map(|_| {
                let (lba, mut tag) = writes[rng.below(writes.len() as u64) as usize];
                if rng.chance(0.05) {
                    tag = BlockTag(rng.below(200));
                }
                let before = base.insert(lba, tag).unwrap_or(BlockTag::UNWRITTEN);
                (lba, before, tag)
            })
            .collect();
        let mut durable: Vec<usize> = Vec::new();
        for _ in 0..rng.below(3) {
            if rng.chance(0.1) {
                durable.push(1_000 + rng.below(10) as usize); // a position no record has
                continue;
            }
            let at = rng.below(upto as u64) as usize;
            records[at].durability_claimed = true;
            durable.push(at);
        }
        let recs = &records[..upto];
        let work = (
            live.advance(0, recs, folds.iter().copied(), &durable, &base),
            reference.advance(recs, folds, &durable, &base),
        );
        if work.0 != work.1 {
            return Err(format!("at {upto}: advance work {work:?}"));
        }
        seen.steps += 1;
        for _ in 0..6 {
            // The blocks an image may change, each with a lower bound on
            // what it may hold, and one image over them.
            let mut overlay: BTreeMap<Lba, BlockTag> = BTreeMap::new();
            for _ in 0..rng.below(5) {
                let lba = writes[rng.below(writes.len() as u64) as usize].0;
                let mut tags: Vec<BlockTag> =
                    writes.iter().filter(|w| w.0 == lba).map(|w| w.1).collect();
                tags.push(BlockTag::UNWRITTEN);
                overlay.insert(lba, tags[rng.below(tags.len() as u64) as usize]);
            }
            let floors: Vec<(Lba, BlockTag)> = overlay
                .iter()
                .map(|(&lba, &tag)| {
                    let floor = tag.min(base.tag(lba));
                    (lba, BlockTag(floor.0.saturating_sub(rng.below(2))))
                })
                .collect();
            let mut image = base.clone();
            image.extend(overlay.iter().map(|(&l, &t)| (l, t)));
            let probes = (
                live.probe(floors.iter().copied()),
                reference.probe(recs, floors.iter().copied()),
            );
            let said = match probes {
                (Some(probe), Some(ref_probe)) => {
                    let extremes = (
                        probe.extremes(),
                        (
                            ref_probe.newest_valid,
                            ref_probe.oldest_invalid,
                            ref_probe.bad,
                        ),
                    );
                    if extremes.0 != extremes.1 {
                        return Err(format!(
                            "at {upto}: extremes {extremes:?} outside {floors:?}"
                        ));
                    }
                    (probe.certifies(recs, &image), ref_probe.certifies(&image))
                }
                (None, None) => {
                    seen.irregular += 1;
                    continue;
                }
                (live, _) => {
                    let live = live.is_some();
                    return Err(format!("at {upto}: only one side probes (live {live})"));
                }
            };
            if said.0 != said.1 {
                let base: Vec<_> = base.iter().collect();
                return Err(format!(
                    "at {upto}: certifies {said:?} on {overlay:?} over {base:?}"
                ));
            }
            if said.0 && !ConsistencyCheck::new(recs).violations(&image).is_empty() {
                return Err(format!("at {upto}: certified a violating image"));
            }
            if said.0 {
                seen.certified += 1;
            } else {
                seen.refused += 1;
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
