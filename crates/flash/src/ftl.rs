//! The flash translation layer: a log-structured mapping from LBAs to
//! physical pages, with segment-granularity garbage collection.
//!
//! The paper's UFS firmware "treats the entire storage as a single log
//! structured device and maintains an active segment in memory. FTL appends
//! incoming data blocks to the active segment in the order in which they
//! are transferred" (§3.2). This module reproduces that design: every
//! destaged block is an *append* with a monotonically increasing sequence
//! number; crash recovery (see [`crate::recovery`]) can therefore truncate
//! the log at the first hole.
//!
//! ## The forward map
//!
//! The LBA → physical-location map is a dense, directly indexed table
//! ([`bio_sim::PagedMap`]), not a hash map: host LBAs are small integers
//! handed out by bump allocators (metadata region, journal, extent
//! allocator), so `map[lba]` is two indexed loads on the per-block hot
//! path — no hashing, no probing. The directory is sized from the segment
//! geometry (`segments × pages_per_segment`, the physical capacity);
//! out-of-range LBAs (the host address space can be sparser than physical
//! capacity — over-provisioning, layout gaps) extend the directory, and
//! only the 4 KiB-entry key pages a workload actually touches are ever
//! allocated. Invariants the map relies on:
//!
//! * each live LBA has exactly one forward entry, and that entry's segment
//!   slot holds the same LBA (checked on invalidation);
//! * the map's length counts exactly the live (mapped) LBAs.

use bio_sim::PagedMap;

use crate::types::{BlockTag, Lba};

/// Physical location of a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysLoc {
    /// Segment index.
    pub segment: usize,
    /// Page slot within the segment.
    pub slot: usize,
}

/// Lifecycle state of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegState {
    Free,
    Active,
    Sealed,
}

#[derive(Debug, Clone)]
struct Segment {
    state: SegState,
    /// Per-slot reverse mapping; `None` = slot unused. Empty until the
    /// segment is first opened: a stack pays for the segments it writes,
    /// not for the device's capacity (16,384 segments × 512 slots × 24 B is
    /// 201 MB on the 32 GiB profile, of which a run programs under 2 %).
    slots: Vec<Option<(Lba, BlockTag)>>,
    /// Slots still referenced by the forward mapping.
    valid: usize,
    /// Next free slot in the active segment.
    fill: usize,
}

impl Segment {
    fn new() -> Segment {
        Segment {
            state: SegState::Free,
            slots: Vec::new(),
            valid: 0,
            fill: 0,
        }
    }

    /// Takes the segment off the free list in `state` with `pages` unused
    /// slots. An erased segment kept its storage, so reopening allocates
    /// nothing.
    fn open(&mut self, state: SegState, pages: usize) {
        self.slots.resize(pages, None);
        self.fill = 0;
        self.state = state;
    }

    /// Erases the segment. `clear` keeps the slot array's storage for the
    /// next [`Segment::open`].
    fn reset(&mut self) {
        self.slots.clear();
        self.valid = 0;
        self.fill = 0;
        self.state = SegState::Free;
    }
}

/// Summary of one garbage-collection run, returned so the device can charge
/// the time cost to the chip array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcRun {
    /// Victim segment that was erased.
    pub victim: usize,
    /// Number of still-valid pages relocated.
    pub moved_pages: usize,
}

/// Aggregate FTL statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Host-visible page appends.
    pub host_appends: u64,
    /// Pages moved by GC.
    pub gc_appends: u64,
    /// GC runs executed.
    pub gc_runs: u64,
    /// Segments erased.
    pub erases: u64,
}

impl FtlStats {
    /// Write amplification: (host + GC appends) / host appends.
    pub fn write_amplification(&self) -> f64 {
        if self.host_appends == 0 {
            1.0
        } else {
            (self.host_appends + self.gc_appends) as f64 / self.host_appends as f64
        }
    }
}

/// Log-structured FTL with greedy-victim garbage collection.
#[derive(Debug, Clone)]
pub struct Ftl {
    segments: Vec<Segment>,
    mapping: PagedMap<PhysLoc>,
    free_list: Vec<usize>,
    active: usize,
    pages_per_segment: usize,
    gc_low_watermark: f64,
    stats: FtlStats,
}

// Every segment and slot index is the FTL's own state — `active`, a
// free-list entry, a GC victim, a `PhysLoc` its forward map holds; a
// command supplies only the LBA, which is a map key.
#[allow(clippy::indexing_slicing, reason = "FTL-owned segment/slot indexes")]
impl Ftl {
    /// Creates an FTL with `segments` segments of `pages_per_segment` pages.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two segments or zero pages per segment.
    pub fn new(segments: usize, pages_per_segment: usize, gc_low_watermark: f64) -> Ftl {
        assert!(segments >= 2, "need >= 2 segments");
        assert!(pages_per_segment > 0, "need >= 1 page per segment");
        let mut segs = vec![Segment::new(); segments];
        // Segment 0 starts active; the rest are free.
        segs[0].open(SegState::Active, pages_per_segment);
        let free_list = (1..segments).rev().collect();
        Ftl {
            segments: segs,
            mapping: PagedMap::with_key_capacity(segments * pages_per_segment),
            free_list,
            active: 0,
            pages_per_segment,
            gc_low_watermark,
            stats: FtlStats::default(),
        }
    }

    /// Number of free segments.
    pub fn free_segments(&self) -> usize {
        self.free_list.len()
    }

    /// True when free space is low enough that the next allocation should
    /// run garbage collection first.
    pub fn gc_needed(&self) -> bool {
        (self.free_list.len() as f64) < (self.segments.len() as f64 * self.gc_low_watermark)
    }

    /// Ensures the active segment has room for the next append, rolling to
    /// a fresh segment (and garbage collecting) when necessary. Returns the
    /// GC run, if one happened, so the caller can charge its time cost to
    /// the chip array *before* scheduling the next program.
    pub fn prepare_append(&mut self) -> Option<GcRun> {
        if self.segments[self.active].fill >= self.pages_per_segment {
            self.roll_active()
        } else {
            None
        }
    }

    /// Appends one host block, invalidating any prior version. Returns the
    /// physical location and, when segment allocation had to garbage
    /// collect, the GC run description so the caller can charge its cost.
    /// Callers that need to charge GC before committing to the append
    /// should call [`Ftl::prepare_append`] first, which makes this cheap.
    pub fn append(&mut self, lba: Lba, tag: BlockTag) -> (PhysLoc, Option<GcRun>) {
        self.stats.host_appends += 1;
        self.append_inner(lba, tag)
    }

    fn append_inner(&mut self, lba: Lba, tag: BlockTag) -> (PhysLoc, Option<GcRun>) {
        let gc = self.prepare_append();
        // Invalidate the previous version.
        if let Some(old) = self.mapping.get(lba.0) {
            let seg = &mut self.segments[old.segment];
            if seg.slots[old.slot].map(|(l, _)| l) == Some(lba) {
                seg.slots[old.slot] = None;
                seg.valid -= 1;
            }
        }
        let seg_idx = self.active;
        let seg = &mut self.segments[seg_idx];
        let slot = seg.fill;
        seg.slots[slot] = Some((lba, tag));
        seg.valid += 1;
        seg.fill += 1;
        let loc = PhysLoc {
            segment: seg_idx,
            slot,
        };
        self.mapping.insert(lba.0, loc);
        (loc, gc)
    }

    /// Seals the active segment and activates a fresh one, garbage
    /// collecting first when space is low.
    fn roll_active(&mut self) -> Option<GcRun> {
        self.segments[self.active].state = SegState::Sealed;
        let mut gc = None;
        if self.gc_needed() {
            gc = self.collect();
        }
        // Greedy GC cannot free a segment on an aged device. The GC
        // redesign returns a typed error here; until then a loud failure
        // beats a silent drop that would falsify every number after it.
        #[expect(clippy::expect_used, reason = "ROADMAP 2(c): FTL out of space")]
        let next = self
            .free_list
            .pop()
            .expect("FTL out of space: GC could not free a segment");
        self.segments[next].open(SegState::Active, self.pages_per_segment);
        self.active = next;
        gc
    }

    /// Greedy GC: picks the sealed segment with the fewest valid pages,
    /// relocates its live data into a fresh segment, erases the victim.
    fn collect(&mut self) -> Option<GcRun> {
        let victim = self
            .segments
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == SegState::Sealed)
            .min_by_key(|(_, s)| s.valid)
            .map(|(i, _)| i)?;
        let moved: Vec<(Lba, BlockTag)> = self.segments[victim]
            .slots
            .iter()
            .flatten()
            .copied()
            .collect();
        // Relocate into a dedicated fresh segment so GC cannot recurse.
        if !moved.is_empty() {
            let dest = self.free_list.pop()?;
            self.segments[dest].open(SegState::Sealed, self.pages_per_segment);
            for (i, &(lba, tag)) in moved.iter().enumerate() {
                // A victim segment holds at most pages_per_segment pages, so
                // `dest` always has room.
                let seg = &mut self.segments[dest];
                seg.slots[i] = Some((lba, tag));
                seg.valid += 1;
                seg.fill = i + 1;
                self.mapping.insert(
                    lba.0,
                    PhysLoc {
                        segment: dest,
                        slot: i,
                    },
                );
            }
            self.stats.gc_appends += moved.len() as u64;
        }
        self.segments[victim].reset();
        self.free_list.push(victim);
        self.stats.gc_runs += 1;
        self.stats.erases += 1;
        Some(GcRun {
            victim,
            moved_pages: moved.len(),
        })
    }

    /// Looks up the current physical location of `lba`.
    pub fn lookup(&self, lba: Lba) -> Option<PhysLoc> {
        self.mapping.get(lba.0)
    }

    /// The content tag currently mapped at `lba`, if any.
    pub fn tag_at(&self, lba: Lba) -> Option<BlockTag> {
        let loc = self.lookup(lba)?;
        self.segments[loc.segment].slots[loc.slot].map(|(_, t)| t)
    }

    /// Iterates over all mapped `(lba, tag)` pairs (the durable state).
    pub fn mapped(&self) -> impl Iterator<Item = (Lba, BlockTag)> + '_ {
        self.mapping.iter().filter_map(move |(lba, loc)| {
            self.segments[loc.segment].slots[loc.slot].map(|(_, t)| (Lba(lba), t))
        })
    }

    /// Number of mapped (live) pages.
    pub fn live_pages(&self) -> usize {
        self.mapping.len()
    }

    /// FTL statistics (appends, GC, write amplification).
    pub fn stats(&self) -> FtlStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ftl() -> Ftl {
        Ftl::new(4, 4, 0.3)
    }

    #[test]
    fn append_then_lookup() {
        let mut f = small_ftl();
        let (loc, gc) = f.append(Lba(7), BlockTag(1));
        assert!(gc.is_none());
        assert_eq!(f.lookup(Lba(7)), Some(loc));
        assert_eq!(f.tag_at(Lba(7)), Some(BlockTag(1)));
        assert_eq!(f.live_pages(), 1);
    }

    #[test]
    fn overwrite_invalidates_old_version() {
        let mut f = small_ftl();
        f.append(Lba(7), BlockTag(1));
        f.append(Lba(7), BlockTag(2));
        assert_eq!(f.tag_at(Lba(7)), Some(BlockTag(2)));
        assert_eq!(f.live_pages(), 1);
        let live: Vec<_> = f.mapped().collect();
        assert_eq!(live, vec![(Lba(7), BlockTag(2))]);
    }

    #[test]
    fn segments_roll_when_full() {
        let mut f = small_ftl();
        for i in 0..5 {
            f.append(Lba(i), BlockTag(i + 1));
        }
        // First segment (4 pages) sealed, fifth append went to a new one.
        assert_eq!(f.live_pages(), 5);
        for i in 0..5 {
            assert_eq!(f.tag_at(Lba(i)), Some(BlockTag(i + 1)));
        }
    }

    #[test]
    fn gc_reclaims_dead_segments() {
        // 4 segments x 4 pages; keep overwriting the same 4 LBAs so old
        // segments become fully dead and GC has trivial victims.
        let mut f = small_ftl();
        for round in 0u64..20 {
            for i in 0..4u64 {
                f.append(Lba(i), BlockTag(round * 4 + i + 1));
            }
        }
        assert_eq!(f.live_pages(), 4);
        assert!(f.stats().gc_runs > 0);
        for i in 0..4u64 {
            assert_eq!(f.tag_at(Lba(i)), Some(BlockTag(76 + i + 1)));
        }
    }

    #[test]
    fn gc_relocates_live_pages() {
        // Fill most of the device with unique (never overwritten) LBAs so
        // the greedy victim is forced to carry live pages.
        let mut f = Ftl::new(8, 8, 0.4);
        for i in 0..52u64 {
            f.append(Lba(i), BlockTag(i + 1));
        }
        // Every LBA must still be readable after GC moved segments around.
        for i in 0..52u64 {
            assert_eq!(f.tag_at(Lba(i)), Some(BlockTag(i + 1)), "lost lba {i}");
        }
        assert!(f.stats().gc_appends > 0, "GC should have moved live pages");
        assert!(f.stats().write_amplification() > 1.0);
        assert_eq!(f.live_pages(), 52);
    }

    #[test]
    fn prepare_append_reports_gc() {
        let mut f = Ftl::new(4, 4, 0.6);
        // No roll needed while the active segment has room.
        f.append(Lba(0), BlockTag(1));
        assert!(f.prepare_append().is_none());
        for i in 1..8u64 {
            f.append(Lba(i), BlockTag(i + 1));
        }
        // Two segments sealed/full, free = 2 < 0.6 * 4: the next roll must
        // garbage collect, relocating live pages from the min-valid victim.
        let gc = f.prepare_append();
        assert!(gc.is_some(), "roll with low free space must GC");
        assert_eq!(gc.unwrap().moved_pages, 4);
    }

    #[test]
    fn stats_count_appends() {
        let mut f = small_ftl();
        f.append(Lba(1), BlockTag(1));
        f.append(Lba(2), BlockTag(2));
        assert_eq!(f.stats().host_appends, 2);
        assert_eq!(f.stats().write_amplification(), 1.0);
    }

    #[test]
    fn slot_storage_follows_the_segments_written() {
        let backed = |f: &Ftl| f.segments.iter().filter(|s| s.slots.capacity() > 0).count();
        let mut f = Ftl::new(8, 4, 0.3);
        assert_eq!(backed(&f), 1, "only the active segment at construction");
        for i in 0..9u64 {
            f.append(Lba(i), BlockTag(i + 1));
        }
        assert_eq!(backed(&f), 3, "9 appends of 4 pages open ceil(9/4)");
        // Overwrite until GC erases a segment. The roll that ran GC
        // reopens the victim at once, on the array it already had.
        for tag in 100u64.. {
            let before: Vec<_> = f.segments.iter().map(|s| s.slots.as_ptr()).collect();
            if let (_, Some(gc)) = f.append(Lba(tag % 4), BlockTag(tag)) {
                let reopened = &f.segments[gc.victim];
                assert_eq!(reopened.state, SegState::Active);
                assert_eq!(reopened.slots.as_ptr(), before[gc.victim]);
                assert_eq!((reopened.slots.len(), reopened.slots.capacity()), (4, 4));
                break;
            }
        }
    }

    #[test]
    fn free_segment_accounting() {
        let f = small_ftl();
        assert_eq!(f.free_segments(), 3);
        assert!(!f.gc_needed()); // 3 free of 4 > 30%
    }

    #[test]
    #[should_panic(expected = "need >= 2 segments")]
    fn rejects_tiny_config() {
        Ftl::new(1, 4, 0.1);
    }

    #[test]
    #[should_panic(expected = "need >= 1 page per segment")]
    fn rejects_zero_pages() {
        Ftl::new(4, 0, 0.1);
    }

    #[test]
    fn gc_triggers_strictly_below_watermark() {
        // 4 segments, watermark 0.5: the threshold is exactly 2.0 free
        // segments. `gc_needed` is a strict comparison, so free == 2 (the
        // exact boundary) must NOT trigger GC and free == 1 must.
        let mut f = Ftl::new(4, 2, 0.5);
        assert_eq!(f.free_segments(), 3);
        assert!(!f.gc_needed());
        for i in 0..2u64 {
            f.append(Lba(i), BlockTag(i + 1)); // fill segment 0
        }
        f.append(Lba(2), BlockTag(3)); // rolls at free == 3: no GC
        f.append(Lba(3), BlockTag(4)); // fills the second segment
        assert_eq!(f.free_segments(), 2, "boundary state");
        assert!(!f.gc_needed(), "free == segments * watermark is not 'low'");
        // This roll checks GC at exactly the boundary (free == 2.0): the
        // strict comparison must NOT collect.
        assert!(f.prepare_append().is_none(), "exact boundary must not GC");
        assert_eq!(f.free_segments(), 1);
        assert!(f.gc_needed(), "one below the boundary is 'low'");
        f.append(Lba(4), BlockTag(5));
        f.append(Lba(5), BlockTag(6)); // fills the third segment
                                       // Now the roll happens below the watermark and must collect.
        let gc = f.prepare_append();
        assert!(gc.is_some(), "roll below the watermark runs GC");
        assert_eq!(f.stats().gc_runs, 1);
        // All six LBAs survive the relocation.
        for i in 0..6u64 {
            assert_eq!(f.tag_at(Lba(i)), Some(BlockTag(i + 1)));
        }
    }

    #[test]
    fn minimum_geometry_two_segments_one_page() {
        // The smallest legal FTL: every append rolls the single-page
        // active segment, and overwrites must keep GC supplied with dead
        // victims. Mapping integrity must hold throughout.
        let mut f = Ftl::new(2, 1, 0.3);
        for round in 1..=12u64 {
            f.append(Lba(0), BlockTag(round));
            assert_eq!(f.tag_at(Lba(0)), Some(BlockTag(round)));
            assert_eq!(f.live_pages(), 1);
        }
        assert!(f.stats().erases > 0, "tiny geometry must recycle segments");
        // Steady state: one segment active (holding the live page's newest
        // version), the other sealed-dead awaiting the next roll's GC.
        assert_eq!(f.free_segments(), 0);
    }

    #[test]
    fn mapping_integrity_across_forced_gc_cycle() {
        // Force a GC cycle that relocates live pages and verify the whole
        // forward map (not just one LBA) afterwards: every live LBA
        // resolves, resolves to its newest tag, and dead versions are gone.
        let mut f = Ftl::new(4, 4, 0.6);
        for i in 0..8u64 {
            f.append(Lba(i), BlockTag(i + 1));
        }
        // Two sealed segments, free == 1 < 0.6 * 4: next roll must GC and
        // relocate 4 live pages.
        let gc = f.prepare_append().expect("forced GC");
        assert_eq!(gc.moved_pages, 4);
        for i in 0..8u64 {
            assert_eq!(f.tag_at(Lba(i)), Some(BlockTag(i + 1)), "lba {i} lost");
            let loc = f.lookup(Lba(i)).expect("mapped");
            assert_ne!(loc.segment, gc.victim, "mapping points into erased victim");
        }
        assert_eq!(f.live_pages(), 8);
        let mut live: Vec<(Lba, BlockTag)> = f.mapped().collect();
        live.sort();
        assert_eq!(
            live,
            (0..8u64)
                .map(|i| (Lba(i), BlockTag(i + 1)))
                .collect::<Vec<_>>()
        );
    }
}
