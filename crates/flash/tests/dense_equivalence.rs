//! Equivalence suites locking the dense hot-path indexes to their original
//! map-based implementations.
//!
//! PR 3 replaced the `BTreeMap`/`HashMap` pair inside [`WritebackCache`]
//! with a slab + intrusive per-LBA chain, and the FTL's `HashMap` forward
//! map with a paged direct map. These properties drive both the new
//! structures and the *original* implementations (kept here verbatim as
//! references) through identical random workloads and require every
//! observable to match, so the refactor cannot silently change barrier
//! semantics.

use std::collections::{BTreeMap, HashMap};

use bio_flash::{BlockTag, EntryState, Ftl, Lba, WritebackCache};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Reference writeback cache: the pre-dense-index implementation, verbatim
// (a BTreeMap keyed by transfer seq + a HashMap latest-index), minus the
// panicking accessors the new API replaced with typed errors.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefEntry {
    lba: Lba,
    tag: BlockTag,
    epoch: u64,
    state: EntryState,
}

#[derive(Debug, Default)]
struct RefCache {
    entries: BTreeMap<u64, RefEntry>,
    latest: HashMap<Lba, u64>,
    current_epoch: u64,
    next_seq: u64,
}

impl RefCache {
    fn new() -> RefCache {
        RefCache {
            entries: BTreeMap::new(),
            latest: HashMap::new(),
            current_epoch: 0,
            next_seq: 1,
        }
    }

    fn insert(&mut self, lba: Lba, tag: BlockTag, barrier: bool) -> u64 {
        let seq = if let Some(&prev_seq) = self.latest.get(&lba) {
            let prev = self.entries[&prev_seq];
            if prev.state == EntryState::Dirty && prev.epoch == self.current_epoch {
                self.entries.get_mut(&prev_seq).expect("entry exists").tag = tag;
                prev_seq
            } else {
                self.push_new(lba, tag)
            }
        } else {
            self.push_new(lba, tag)
        };
        if barrier {
            self.current_epoch += 1;
        }
        seq
    }

    fn push_new(&mut self, lba: Lba, tag: BlockTag) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(
            seq,
            RefEntry {
                lba,
                tag,
                epoch: self.current_epoch,
                state: EntryState::Dirty,
            },
        );
        self.latest.insert(lba, seq);
        seq
    }

    fn lookup(&self, lba: Lba) -> Option<BlockTag> {
        self.latest.get(&lba).map(|seq| self.entries[seq].tag)
    }

    fn dirty_count(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.state == EntryState::Dirty)
            .count()
    }

    fn min_pending_epoch(&self) -> Option<u64> {
        self.entries.values().map(|e| e.epoch).min()
    }

    fn pending_seqs(&self) -> Vec<u64> {
        self.entries.keys().copied().collect()
    }

    fn destage_candidates(&self, max_epoch: Option<u64>, lba_ordered: bool) -> Vec<u64> {
        let mut seen: std::collections::HashSet<Lba> = std::collections::HashSet::new();
        let mut out = Vec::new();
        for (&seq, e) in &self.entries {
            let first_for_lba = seen.insert(e.lba);
            if lba_ordered && !first_for_lba {
                continue;
            }
            if e.state != EntryState::Dirty {
                continue;
            }
            if let Some(bound) = max_epoch {
                if e.epoch > bound {
                    continue;
                }
            }
            out.push(seq);
        }
        out
    }

    fn mark_destaging(&mut self, seq: u64) {
        let e = self.entries.get_mut(&seq).expect("unknown cache entry");
        assert_eq!(e.state, EntryState::Dirty, "entry already destaging");
        e.state = EntryState::Destaging;
    }

    fn complete(&mut self, seq: u64) -> RefEntry {
        let e = self.entries.remove(&seq).expect("unknown cache entry");
        if self.latest.get(&e.lba) == Some(&seq) {
            self.latest.remove(&e.lba);
        }
        e
    }
}

/// Asserts every observable of the dense cache matches the reference.
fn assert_cache_equiv(
    dense: &WritebackCache,
    reference: &RefCache,
    lba_span: u64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(dense.len(), reference.entries.len());
    prop_assert_eq!(dense.is_empty(), reference.entries.is_empty());
    prop_assert_eq!(dense.current_epoch(), reference.current_epoch);
    prop_assert_eq!(dense.dirty_count(), reference.dirty_count());
    prop_assert_eq!(dense.min_pending_epoch(), reference.min_pending_epoch());
    prop_assert_eq!(dense.pending_seqs(), reference.pending_seqs());
    for lba_ordered in [false, true] {
        for bound in [None, reference.min_pending_epoch(), Some(0)] {
            prop_assert_eq!(
                dense.destage_candidates(bound, lba_ordered),
                reference.destage_candidates(bound, lba_ordered),
                "candidates diverge (bound {:?}, lba_ordered {})",
                bound,
                lba_ordered
            );
        }
    }
    for l in 0..lba_span {
        prop_assert_eq!(dense.lookup(Lba(l)), reference.lookup(Lba(l)));
    }
    let dense_entries: Vec<(u64, Lba, BlockTag, u64, EntryState)> = dense
        .entries_in_order()
        .map(|(s, e)| (s, e.lba, e.tag, e.epoch, e.state))
        .collect();
    let ref_entries: Vec<(u64, Lba, BlockTag, u64, EntryState)> = reference
        .entries
        .iter()
        .map(|(&s, e)| (s, e.lba, e.tag, e.epoch, e.state))
        .collect();
    prop_assert_eq!(dense_entries, ref_entries);
    Ok(())
}

/// The lazy frontier pull of a dense cache built with `lba_ordered` must
/// be the reference's full candidate scan — unbounded and under the
/// in-order epoch bound — and stay its head when only a prefix is taken
/// through a member filter (the transactional group's role).
fn assert_frontier_equiv(
    dense: &mut WritebackCache,
    lba_ordered: bool,
    reference: &RefCache,
    sel: u64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let member = |seq: &u64| (seq.wrapping_mul(0x9E37_79B9) ^ sel) % 3 != 0;
    let take = (sel % 7) as usize;
    for bound in [None, reference.min_pending_epoch()] {
        let full = reference.destage_candidates(bound, lba_ordered);
        prop_assert_eq!(
            dense.frontier(bound).collect::<Vec<_>>(),
            &full[..],
            "frontier diverges (bound {:?}, lba_ordered {})",
            bound,
            lba_ordered
        );
        let filtered: Vec<u64> = full.iter().copied().filter(member).collect();
        prop_assert_eq!(
            dense
                .frontier(bound)
                .filter(member)
                .take(take)
                .collect::<Vec<_>>(),
            &filtered[..take.min(filtered.len())],
            "filtered frontier diverges (bound {:?}, lba_ordered {})",
            bound,
            lba_ordered
        );
    }
    Ok(())
}

const LBA_SPAN: u64 = 12;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random insert/mark/complete workloads (including out-of-order
    /// completions, as the orderless and LFS engines produce) leave the
    /// dense cache and the map-based reference in identical states.
    #[test]
    fn cache_matches_map_reference(
        ops in prop::collection::vec(
            (0u8..6, 0u64..LBA_SPAN, 0u64..1024, proptest::bool::ANY),
            1..60,
        )
    ) {
        // One dense cache per frontier discipline, driven in lockstep: the
        // in-place one (per-LBA serialised) and the log-structured one.
        let mut dense = [WritebackCache::new(1024), WritebackCache::with_order(1024, false)];
        let mut reference = RefCache::new();
        let mut tag = 1u64;
        for (op, lba, sel, flag) in ops {
            match op {
                // Inserts dominate so caches actually fill up.
                0..=2 => {
                    let s2 = reference.insert(Lba(lba), BlockTag(tag), flag);
                    for d in &mut dense {
                        let s1 = d.insert(Lba(lba), BlockTag(tag), flag);
                        prop_assert_eq!(s1, s2, "insert returned different seqs");
                    }
                    tag += 1;
                }
                3 | 4 => {
                    // Mark a dirty candidate (both sides agree on the
                    // candidate list by induction) — with `flag` clear,
                    // possibly one still blocked behind an older version.
                    let cands = reference.destage_candidates(None, flag);
                    if !cands.is_empty() {
                        let seq = cands[(sel as usize) % cands.len()];
                        for d in &mut dense {
                            d.mark_destaging(seq).expect("candidate is dirty");
                        }
                        reference.mark_destaging(seq);
                    }
                }
                _ => {
                    // Complete any resident entry — in-order or not, so a
                    // newer version can leave before an older one.
                    let pending = reference.pending_seqs();
                    if !pending.is_empty() {
                        let seq = pending[(sel as usize) % pending.len()];
                        let e2 = reference.complete(seq);
                        for d in &mut dense {
                            let e1 = d.complete(seq).expect("pending entry resident");
                            prop_assert_eq!(e1.lba, e2.lba);
                            prop_assert_eq!(e1.tag, e2.tag);
                            prop_assert_eq!(e1.epoch, e2.epoch);
                        }
                    }
                }
            }
            for (d, lba_ordered) in dense.iter_mut().zip([true, false]) {
                assert_cache_equiv(d, &reference, LBA_SPAN)?;
                // Pull only on some steps, so the cursor also has to catch
                // up over several operations at once.
                if sel % 3 != 0 {
                    assert_frontier_equiv(d, lba_ordered, &reference, sel)?;
                }
            }
        }
    }

    /// The dense FTL forward map agrees with a hash-map content model
    /// across random append workloads that force segment rolls, GC and
    /// live-page relocation.
    #[test]
    fn ftl_matches_map_model(
        appends in prop::collection::vec((0u64..10, proptest::bool::ANY), 1..200)
    ) {
        // 32 segments x 8 pages, high GC watermark: the tail of a 200-append
        // run garbage-collects constantly (free < 12.8 after ~19 rolls), and
        // 20 live blocks never fill it.
        let mut ftl = Ftl::new(32, 8, 0.4);
        let mut model: HashMap<Lba, BlockTag> = HashMap::new();
        for (tag, (lba, wide)) in (1u64..).zip(appends) {
            // `wide` widens the address range so the map also sees LBAs
            // beyond the dense low region.
            let lba = Lba(if wide { 1_000 + lba } else { lba });
            ftl.append(lba, BlockTag(tag));
            model.insert(lba, BlockTag(tag));

            prop_assert_eq!(ftl.live_pages(), model.len());
            for (&l, &t) in &model {
                prop_assert_eq!(ftl.tag_at(l), Some(t), "content diverged at {}", l);
                prop_assert!(ftl.lookup(l).is_some());
            }
            let mut mapped: Vec<(Lba, BlockTag)> = ftl.mapped().collect();
            mapped.sort();
            let mut expect: Vec<(Lba, BlockTag)> = model.iter().map(|(&l, &t)| (l, t)).collect();
            expect.sort();
            prop_assert_eq!(mapped, expect);
        }
    }
}
