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
//! There is one write path. Greedy GC relocates a victim's live pages as
//! appends to the same active segment, opening the next free segment when
//! that one fills, so a victim with live pages still frees a segment. One
//! victim is collected per roll, when free segments run below the low
//! watermark. An FTL whose victims have nowhere to put their live pages is
//! full, and an append to it panics ("FTL out of space").
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
//! only the 4,096-entry key pages a workload actually touches are ever
//! allocated. An entry is a [`PhysLoc`] packed into one `NonZeroU64`
//! (segment + 1 below bit 32, the slot above), so an absent entry is the
//! all-zero word: a page is 32 KiB from the zeroed-allocation path, not
//! 4,096 `Option<PhysLoc>`s of 24 B written one by one. Invariants the map
//! relies on:
//!
//! * each live LBA has exactly one forward entry, and that entry's segment
//!   slot holds the same LBA (checked on invalidation);
//! * the map's length counts exactly the live (mapped) LBAs.

use std::num::{NonZeroU32, NonZeroU64};

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

/// A forward-map entry: a [`PhysLoc`] as segment + 1 in the low 32 bits
/// and the slot in the high 32, so never zero ([`Ftl::new`] bounds the
/// geometry to fit).
type PackedLoc = NonZeroU64;

impl PhysLoc {
    fn pack(self) -> PackedLoc {
        let segment = NonZeroU32::MIN.saturating_add(self.segment as u32);
        NonZeroU64::from(segment) | (self.slot as u64) << 32
    }

    fn unpack(packed: PackedLoc) -> PhysLoc {
        let raw = packed.get();
        PhysLoc {
            segment: (raw as u32 - 1) as usize,
            slot: (raw >> 32) as usize,
        }
    }
}

/// One page's reverse mapping: the block it holds and its content tag, or
/// [`Slot::VACANT`]. 16 bytes; an `Option` of the pair would be 24.
#[derive(Debug, Clone, Copy)]
struct Slot {
    lba: Lba,
    tag: BlockTag,
}

impl Slot {
    /// An unused or invalidated page. Its address lies past
    /// [`Lba::LIMIT`], which no device write reaches.
    const VACANT: Slot = Slot {
        lba: Lba(u64::MAX),
        tag: BlockTag::UNWRITTEN,
    };

    /// The page's `(block, tag)`, unless it is vacant.
    fn live(self) -> Option<(Lba, BlockTag)> {
        (self.lba != Slot::VACANT.lba).then_some((self.lba, self.tag))
    }
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
    /// Per-page reverse mapping. Empty until the segment is first
    /// opened: a stack pays for the segments it writes, not for the
    /// device's capacity (16,384 segments × 512 slots × 16 B is 134 MB on
    /// the 32 GiB profile, of which a run programs under 2 %).
    slots: Vec<Slot>,
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

    /// Makes the segment the active one, with `pages` unused slots. An
    /// erased segment kept its storage, so reopening allocates nothing.
    fn open(&mut self, pages: usize) {
        self.slots.resize(pages, Slot::VACANT);
        self.fill = 0;
        self.state = SegState::Active;
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

impl std::ops::AddAssign for FtlStats {
    fn add_assign(&mut self, rhs: FtlStats) {
        // Destructured without `..`: a new field cannot be left out.
        let FtlStats {
            host_appends,
            gc_appends,
            gc_runs,
            erases,
        } = rhs;
        self.host_appends += host_appends;
        self.gc_appends += gc_appends;
        self.gc_runs += gc_runs;
        self.erases += erases;
    }
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
    mapping: PagedMap<PackedLoc>,
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
    /// Panics if fewer than two segments or zero pages per segment, or if
    /// a location does not pack into one word: fewer than 2^32 - 1
    /// segments, of 2^32 pages at most.
    pub fn new(segments: usize, pages_per_segment: usize, gc_low_watermark: f64) -> Ftl {
        assert!(segments >= 2, "need >= 2 segments");
        assert!(pages_per_segment > 0, "need >= 1 page per segment");
        assert!(
            (segments as u64) < u64::from(u32::MAX) && pages_per_segment as u64 <= 1 << 32,
            "FTL geometry {segments} x {pages_per_segment} does not pack into 64 bits"
        );
        let mut segs = vec![Segment::new(); segments];
        // Segment 0 starts active; the rest are free.
        segs[0].open(pages_per_segment);
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

    /// Readies the next append: when the active segment is full, seals it
    /// and, if free space is low, garbage collects one victim. Returns the
    /// GC run, if one happened, so the caller can charge its time cost to
    /// the chip array *before* scheduling the next program. Until that
    /// append, calling it again does nothing.
    #[inline]
    pub fn prepare_append(&mut self) -> Option<GcRun> {
        let active = &mut self.segments[self.active];
        if active.fill < self.pages_per_segment || active.state == SegState::Sealed {
            return None;
        }
        active.state = SegState::Sealed;
        self.gc_needed().then(|| self.collect()).flatten()
    }

    /// Appends one host block, invalidating any prior version. Returns the
    /// GC run that segment allocation needed, if any, so the caller can
    /// charge its cost. Callers that need to charge GC before committing to
    /// the append should call [`Ftl::prepare_append`] first.
    ///
    /// # Panics
    ///
    /// When the FTL has no page for the block: the active segment is full,
    /// no segment is free, and GC could not free one.
    #[inline]
    pub fn append(&mut self, lba: Lba, tag: BlockTag) -> Option<GcRun> {
        let gc = self.prepare_append();
        self.place(lba, tag);
        self.stats.host_appends += 1;
        gc
    }

    /// The one write path, for host appends and GC relocation alike:
    /// writes the page into the active segment, first opening the next
    /// free one (without GC) if it is full, and invalidates the previous
    /// version.
    #[inline]
    fn place(&mut self, lba: Lba, tag: BlockTag) {
        if self.segments[self.active].fill == self.pages_per_segment {
            // Only a host append can get here with no segment free: GC
            // relocates only when one is. A full FTL fails loudly, since a
            // dropped program would falsify every number after it; the
            // figures grid and the benchmark report a panicked cell as
            // failed.
            #[expect(clippy::expect_used, reason = "a full FTL fails loudly")]
            let next = self
                .free_list
                .pop()
                .expect("FTL out of space: GC could not free a segment");
            self.segments[self.active].state = SegState::Sealed;
            self.segments[next].open(self.pages_per_segment);
            self.active = next;
        }
        if let Some(old) = self.lookup(lba) {
            let seg = &mut self.segments[old.segment];
            if seg.slots[old.slot].lba == lba {
                seg.slots[old.slot] = Slot::VACANT;
                seg.valid -= 1;
            }
        }
        let seg = &mut self.segments[self.active];
        let slot = seg.fill;
        seg.slots[slot] = Slot { lba, tag };
        seg.valid += 1;
        seg.fill += 1;
        let segment = self.active;
        self.mapping.insert(lba.0, PhysLoc { segment, slot }.pack());
    }

    /// Greedy GC: picks the sealed segment with the fewest valid pages,
    /// appends its live pages, erases it. It runs when the active segment
    /// is full, so live pages need a free segment to move to. A victim
    /// with no dead page would free nothing and leave the active segment
    /// full again (a device pumping before its next append would collect
    /// forever). Either way the victim is left alone.
    fn collect(&mut self) -> Option<GcRun> {
        let victim = self
            .segments
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == SegState::Sealed)
            .min_by_key(|(_, s)| s.valid)
            .map(|(i, _)| i)?;
        let moved_pages = self.segments[victim].valid;
        if moved_pages == self.pages_per_segment || (moved_pages > 0 && self.free_list.is_empty()) {
            return None;
        }
        for slot in 0..self.segments[victim].slots.len() {
            if let Some((lba, tag)) = self.segments[victim].slots[slot].live() {
                self.place(lba, tag);
            }
        }
        debug_assert_eq!(self.segments[victim].valid, 0, "a moved page stayed valid");
        self.segments[victim].reset();
        self.free_list.push(victim);
        self.stats.gc_appends += moved_pages as u64;
        self.stats.gc_runs += 1;
        self.stats.erases += 1;
        Some(GcRun {
            victim,
            moved_pages,
        })
    }

    /// Looks up the current physical location of `lba`.
    #[inline]
    pub fn lookup(&self, lba: Lba) -> Option<PhysLoc> {
        self.mapping.get(lba.0).map(PhysLoc::unpack)
    }

    /// The content tag currently mapped at `lba`, if any.
    pub fn tag_at(&self, lba: Lba) -> Option<BlockTag> {
        let loc = self.lookup(lba)?;
        self.segments[loc.segment].slots[loc.slot]
            .live()
            .map(|(_, t)| t)
    }

    /// Iterates over all mapped `(lba, tag)` pairs (the durable state).
    pub fn mapped(&self) -> impl Iterator<Item = (Lba, BlockTag)> + '_ {
        self.mapping.iter().filter_map(move |(lba, loc)| {
            let loc = PhysLoc::unpack(loc);
            let (_, t) = self.segments[loc.segment].slots[loc.slot].live()?;
            Some((Lba(lba), t))
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

    /// Starts a measured window: zeroes every counter.
    pub(crate) fn start_window(&mut self) {
        self.stats = FtlStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ftl() -> Ftl {
        Ftl::new(4, 4, 0.3)
    }

    fn put(f: &mut Ftl, lba: u64, tag: u64) -> Option<GcRun> {
        f.append(Lba(lba), BlockTag(tag))
    }

    #[test]
    fn a_reverse_map_slot_is_an_lba_and_a_tag() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
        assert!(Slot::VACANT.lba >= Lba::LIMIT);
    }

    #[test]
    fn a_forward_map_entry_is_one_word() {
        assert_eq!(std::mem::size_of::<Option<PackedLoc>>(), 8);
    }

    #[test]
    fn a_location_round_trips_through_its_packed_word() {
        // Segment 0, a segment's last slot, and the largest segment count
        // a preset builds: 16 Ki segments of the plain SSD's 512 pages,
        // the 32 GiB device of the benchmark's `oltp_hour`.
        let (segments, pages) = (
            16 * 1024,
            crate::DeviceProfile::plain_ssd().pages_per_segment,
        );
        assert_eq!(pages, 512);
        for (segment, slot) in [
            (0, 0),
            (0, pages - 1),
            (1, 0),
            (segments - 1, 0),
            (segments - 1, pages - 1),
            (u32::MAX as usize - 2, u32::MAX as usize),
        ] {
            let loc = PhysLoc { segment, slot };
            assert_eq!(PhysLoc::unpack(loc.pack()), loc, "{loc:?}");
        }
        assert_eq!(
            PhysLoc {
                segment: 0,
                slot: 0
            }
            .pack()
            .get(),
            1
        );
        let f = Ftl::new(segments, pages, 0.1);
        assert_eq!(f.lookup(Lba(0)), None);
    }

    #[test]
    #[should_panic(expected = "does not pack into 64 bits")]
    fn a_geometry_past_one_word_is_refused() {
        Ftl::new(u32::MAX as usize, 4, 0.1);
    }

    #[test]
    fn append_then_lookup() {
        let mut f = small_ftl();
        assert_eq!(put(&mut f, 7, 1), None);
        assert_eq!(
            f.lookup(Lba(7)),
            Some(PhysLoc {
                segment: 0,
                slot: 0
            })
        );
        assert_eq!(f.tag_at(Lba(7)), Some(BlockTag(1)));
        assert_eq!(f.live_pages(), 1);
    }

    #[test]
    fn overwrite_invalidates_old_version() {
        let mut f = small_ftl();
        put(&mut f, 7, 1);
        put(&mut f, 7, 2);
        assert_eq!(f.tag_at(Lba(7)), Some(BlockTag(2)));
        assert_eq!(f.live_pages(), 1);
        let live: Vec<_> = f.mapped().collect();
        assert_eq!(live, vec![(Lba(7), BlockTag(2))]);
    }

    #[test]
    fn segments_roll_when_full() {
        let mut f = small_ftl();
        for i in 0..5 {
            put(&mut f, i, i + 1);
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
                put(&mut f, i, round * 4 + i + 1);
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
        // Fill most of the device with LBAs written once, except that
        // every eighth append rewrites the LBA seven before it: the greedy
        // victim is forced to carry live pages, next to a dead one.
        let mut f = Ftl::new(8, 8, 0.4);
        let mut newest = vec![None; 56];
        for i in 0..56u64 {
            let lba = if i % 8 == 7 { i - 7 } else { i };
            put(&mut f, lba, i + 1);
            newest[lba as usize] = Some(BlockTag(i + 1));
        }
        // Every LBA must still be readable after GC moved segments around.
        for (i, &tag) in (0..).zip(&newest) {
            assert_eq!(f.tag_at(Lba(i)), tag, "lost lba {i}");
        }
        assert!(f.stats().gc_appends > 0, "GC should have moved live pages");
        assert!(f.stats().write_amplification() > 1.0);
        assert_eq!(f.live_pages(), 49);
    }

    #[test]
    fn prepare_append_reports_gc() {
        let mut f = Ftl::new(4, 4, 0.6);
        // No roll needed while the active segment has room.
        put(&mut f, 0, 1);
        assert_eq!(f.prepare_append(), None);
        // LBAs 1..7, then LBA 0 again: segment 0 keeps three live pages.
        for i in 1..8u64 {
            put(&mut f, i % 7, i + 1);
        }
        // Two segments full, free = 2 < 0.6 * 4: the next roll must
        // garbage collect, relocating live pages from the min-valid victim.
        let gc = f
            .prepare_append()
            .expect("roll with low free space must GC");
        assert_eq!(gc.moved_pages, 3);
    }

    #[test]
    fn stats_count_appends() {
        let mut f = small_ftl();
        put(&mut f, 1, 1);
        put(&mut f, 2, 2);
        assert_eq!(f.stats().host_appends, 2);
        assert_eq!(f.stats().write_amplification(), 1.0);
    }

    #[test]
    fn slot_storage_follows_the_segments_written() {
        let backed = |f: &Ftl| f.segments.iter().filter(|s| s.slots.capacity() > 0).count();
        let mut f = Ftl::new(8, 4, 0.3);
        assert_eq!(backed(&f), 1, "only the active segment at construction");
        for i in 0..9u64 {
            put(&mut f, i, i + 1);
        }
        assert_eq!(backed(&f), 3, "9 appends of 4 pages open ceil(9/4)");
        // Overwrite until GC erases a segment. The roll that ran GC
        // reopens the victim at once, on the array it already had.
        for tag in 100u64.. {
            let before: Vec<_> = f.segments.iter().map(|s| s.slots.as_ptr()).collect();
            if let Some(gc) = put(&mut f, tag % 4, tag) {
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
            put(&mut f, i, i + 1); // fill segment 0
        }
        put(&mut f, 2, 3); // rolls at free == 3: no GC
        put(&mut f, 3, 4); // fills the second segment
        assert_eq!(f.free_segments(), 2, "boundary state");
        assert!(!f.gc_needed(), "free == segments * watermark is not 'low'");
        // This roll checks GC at exactly the boundary (free == 2.0): the
        // strict comparison must NOT collect.
        assert_eq!(f.prepare_append(), None, "exact boundary must not GC");
        put(&mut f, 4, 5); // opens the third segment
        assert_eq!(f.free_segments(), 1);
        assert!(f.gc_needed(), "one below the boundary is 'low'");
        // Fill it by rewriting LBA 0, so segment 0 has a dead page to free.
        put(&mut f, 0, 6);
        // Now the roll happens below the watermark and must collect.
        let gc = f.prepare_append();
        assert!(gc.is_some(), "roll below the watermark runs GC");
        assert_eq!(f.stats().gc_runs, 1);
        // All five live LBAs survive the relocation.
        assert_eq!(f.tag_at(Lba(0)), Some(BlockTag(6)));
        for i in 1..5u64 {
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
            put(&mut f, 0, round);
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
        // LBAs 0..7, then LBA 0 again: segment 0 keeps three live pages.
        for i in 0..8u64 {
            put(&mut f, i % 7, i + 1);
        }
        let newest = |i: u64| BlockTag(if i == 0 { 8 } else { i + 1 });
        // Two full segments, free == 2 < 0.6 * 4: the next roll must GC and
        // relocate segment 0's 3 live pages.
        let gc = f.prepare_append().expect("forced GC");
        assert_eq!(gc.moved_pages, 3);
        for i in 0..7u64 {
            assert_eq!(f.tag_at(Lba(i)), Some(newest(i)), "lba {i} lost");
            let loc = f.lookup(Lba(i)).expect("mapped");
            assert_ne!(loc.segment, gc.victim, "mapping points into erased victim");
        }
        assert_eq!(f.live_pages(), 7);
        let mut live: Vec<(Lba, BlockTag)> = f.mapped().collect();
        live.sort();
        assert_eq!(
            live,
            (0..7u64).map(|i| (Lba(i), newest(i))).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_victim_without_a_dead_page_is_left_alone() {
        // 4 × 2 pages of distinct blocks, GC below 1.2 free segments: the
        // roll at one free segment finds only all-live victims, and moving
        // one would just fill the free segment it moved to.
        let mut f = Ftl::new(4, 2, 0.3);
        for i in 0..6u64 {
            put(&mut f, i, i + 1);
        }
        assert_eq!(f.free_segments(), 1);
        assert_eq!(f.prepare_append(), None);
        assert_eq!(f.stats().gc_runs, 0);
    }

    #[test]
    #[should_panic(expected = "FTL out of space")]
    fn a_full_ftl_fails_loudly() {
        // 3 segments × 2 pages and only distinct blocks: every victim is
        // all live, so once no segment is free nothing can move, and even
        // an overwrite has no page to go to.
        let mut f = Ftl::new(3, 2, 0.5);
        for i in 0..6u64 {
            put(&mut f, i, i + 1);
        }
        put(&mut f, 0, 100);
    }
}
