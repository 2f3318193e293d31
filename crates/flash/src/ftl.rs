//! The flash translation layer: a log-structured mapping from LBAs to
//! physical pages, with segment-granularity garbage collection.
//!
//! The paper's UFS firmware "treats the entire storage as a single log
//! structured device and maintains an active segment in memory. FTL appends
//! incoming data blocks to the active segment in the order in which they
//! are transferred" (§3.2). This module reproduces that design: every
//! destaged block is an *append* with a monotonically increasing sequence
//! number; crash recovery (see [`crate::AppendLog`]) can therefore truncate
//! the log at the first hole.
//!
//! There is one write path. Greedy GC relocates a victim's live pages as
//! appends to the same active segment, opening the next free segment when
//! that one fills, so a victim with live pages still frees a segment. One
//! victim is collected per roll, when free segments run below the low
//! watermark. An FTL whose victims have nowhere to put their live pages is
//! full, and an append to it panics ("FTL out of space").
//!
//! ## Memory follows the pages written
//!
//! The FTL models `segments × pages_per_segment` physical pages but keeps
//! state only for the segments a run has opened. The segment table grows
//! by one entry when a never-opened segment is first opened; the next
//! segment to open is the most recently erased one, else the lowest never
//! opened (the order a free list of every segment, built descending and
//! popped from the end, would give). Free-space accounting — the GC
//! watermark, [`Ftl::free_segments`] — counts the modeled total, and GC
//! scans only opened segments, the only ones that can be sealed.
//!
//! ## The forward map
//!
//! The LBA → physical-location map is a dense, directly indexed table
//! ([`bio_sim::PagedMap`]), not a hash map: host LBAs are small integers
//! handed out by bump allocators (metadata region, journal, extent
//! allocator), so `map[lba]` is two indexed loads on the per-block hot
//! path — no hashing, no probing. The directory grows to the highest key
//! page written, and only the 4,096-entry key pages a workload actually
//! touches are ever allocated. An entry is a physical page index plus one
//! in a `NonZeroU32`: the segment in the high bits above `slot_bits`, the
//! slot below, where a segment's stride is `pages_per_segment` rounded up
//! to a power of two (every preset's already is one), so packing and
//! unpacking are a shift and a mask, never a division. An absent entry is
//! the all-zero word: a page is 16 KiB from the zeroed-allocation path.
//! Invariants the map relies on:
//!
//! * each live LBA has exactly one forward entry, and that entry's segment
//!   slot holds the same LBA (checked on invalidation);
//! * the map's length counts exactly the live (mapped) LBAs.

use std::num::NonZeroU32;

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

/// A forward-map entry: a physical page index plus one, so never zero
/// ([`Ftl::new`] bounds the geometry to fit).
type PackedLoc = NonZeroU32;

/// One page's reverse mapping: the block it holds and its content tag, or
/// [`Slot::VACANT`]. 12 bytes at align 4: the address fits a `u32` below
/// [`Lba::LIMIT`], and packing keeps the tag from padding the slot to 16.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Slot {
    lba: u32,
    tag: BlockTag,
}

impl Slot {
    /// An invalidated page: it holds the reserved tag `BlockTag(u64::MAX)`,
    /// which the device refuses to write.
    const VACANT: Slot = Slot {
        lba: u32::MAX,
        tag: BlockTag(u64::MAX),
    };

    /// The page's `(block, tag)`, unless it is vacant.
    fn live(self) -> Option<(Lba, BlockTag)> {
        let Slot { lba, tag } = self;
        (tag.0 != u64::MAX).then_some((Lba(u64::from(lba)), tag))
    }
}

/// Lifecycle state of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegState {
    Free,
    Active,
    Sealed,
}

/// A segment's state, which exists from the moment the segment is first
/// opened: a stack pays for the segments it writes, not for the device's
/// capacity (16,384 segments × 512 slots × 12 B is 101 MB of reverse map
/// on the 32 GiB profile, of which a run programs under 2 %).
#[derive(Debug, Clone)]
struct Segment {
    state: SegState,
    /// Per-page reverse mapping, one `Vec` per segment, with room for
    /// every page: its length is the next free slot. A segment is sealed
    /// only when full, so no reader looks past the length.
    slots: Vec<Slot>,
    /// Slots still referenced by the forward mapping.
    valid: usize,
}

impl Segment {
    /// A segment opened for the first time, with room for `pages` slots.
    fn opened(pages: usize) -> Segment {
        Segment {
            state: SegState::Active,
            slots: Vec::with_capacity(pages),
            valid: 0,
        }
    }

    /// Erases the segment. `clear` keeps the slot array's storage, so
    /// reopening it allocates nothing.
    fn reset(&mut self) {
        self.slots.clear();
        self.valid = 0;
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
    /// The segments opened so far, indexed by segment; every index from
    /// `segments.len()` to `total_segments` is free and never opened.
    segments: Vec<Segment>,
    /// The modeled segment count.
    total_segments: usize,
    mapping: PagedMap<PackedLoc>,
    /// Erased segments, reopened last in, first out, before any segment
    /// never opened.
    recycled: Vec<usize>,
    active: usize,
    pages_per_segment: usize,
    /// Bits of a forward-map entry that hold the slot: log2 of
    /// `pages_per_segment` rounded up to a power of two.
    slot_bits: u32,
    gc_low_watermark: f64,
    stats: FtlStats,
}

// Every segment and slot index is the FTL's own state — `active`, a
// recycled or fresh segment, a GC victim, a location its forward map
// holds; a command supplies only the LBA, which is a map key.
#[allow(clippy::indexing_slicing, reason = "FTL-owned segment/slot indexes")]
impl Ftl {
    /// Creates an FTL with `segments` segments of `pages_per_segment` pages.
    /// Only the first segment is opened, so nothing here grows with
    /// `segments`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two segments or zero pages per segment, or if
    /// the physical pages do not fit a `u32`: `segments` times
    /// `pages_per_segment` rounded up to a power of two must not exceed
    /// `u32::MAX`.
    pub fn new(segments: usize, pages_per_segment: usize, gc_low_watermark: f64) -> Ftl {
        assert!(segments >= 2, "need >= 2 segments");
        assert!(pages_per_segment > 0, "need >= 1 page per segment");
        let stride = pages_per_segment.checked_next_power_of_two();
        assert!(
            stride.is_some_and(|s| segments as u128 * s as u128 <= u128::from(u32::MAX)),
            "FTL geometry {segments} x {pages_per_segment} has more physical pages than a u32 holds"
        );
        Ftl {
            // Segment 0 starts active; the rest are free.
            segments: vec![Segment::opened(pages_per_segment)],
            total_segments: segments,
            mapping: PagedMap::new(),
            recycled: Vec::new(),
            active: 0,
            pages_per_segment,
            slot_bits: pages_per_segment.next_power_of_two().trailing_zeros(),
            gc_low_watermark,
            stats: FtlStats::default(),
        }
    }

    /// The forward-map entry for `loc`: its physical page index plus one.
    #[inline]
    fn pack(&self, loc: PhysLoc) -> PackedLoc {
        let index = (loc.segment << self.slot_bits) | loc.slot;
        NonZeroU32::MIN.saturating_add(index as u32)
    }

    /// The location a forward-map entry names.
    #[inline]
    fn unpack(&self, packed: PackedLoc) -> PhysLoc {
        let index = (packed.get() - 1) as usize;
        PhysLoc {
            segment: index >> self.slot_bits,
            slot: index & ((1 << self.slot_bits) - 1),
        }
    }

    /// Number of free segments, opened or not.
    pub fn free_segments(&self) -> usize {
        self.recycled.len() + (self.total_segments - self.segments.len())
    }

    /// True when free space is low enough that the next allocation should
    /// run garbage collection first.
    pub fn gc_needed(&self) -> bool {
        (self.free_segments() as f64) < (self.total_segments as f64 * self.gc_low_watermark)
    }

    /// Readies the next append: when the active segment is full, seals it
    /// and, if free space is low, garbage collects one victim. Returns the
    /// GC run, if one happened, so the caller can charge its time cost to
    /// the chip array *before* scheduling the next program. Until that
    /// append, calling it again does nothing.
    #[inline]
    pub fn prepare_append(&mut self) -> Option<GcRun> {
        let active = &mut self.segments[self.active];
        if active.slots.len() < self.pages_per_segment || active.state == SegState::Sealed {
            return None;
        }
        active.state = SegState::Sealed;
        self.gc_needed().then(|| self.collect()).flatten()
    }

    /// Appends one host block, invalidating any prior version. Returns the
    /// GC run that segment allocation needed, if any, so the caller can
    /// charge its cost. Callers that need to charge GC before committing to
    /// the append should call [`Ftl::prepare_append`] first. `tag` is never
    /// the reserved `BlockTag(u64::MAX)`, which marks a vacant page (the
    /// device refuses a write that carries it).
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

    /// The segment to open next: the most recently erased one, else the
    /// lowest never opened, which gets its table entry now.
    fn open_next(&mut self) -> Option<usize> {
        if let Some(segment) = self.recycled.pop() {
            self.segments[segment].state = SegState::Active;
            return Some(segment);
        }
        let fresh = self.segments.len();
        (fresh < self.total_segments).then(|| {
            self.segments.push(Segment::opened(self.pages_per_segment));
            fresh
        })
    }

    /// The one write path, for host appends and GC relocation alike:
    /// writes the page into the active segment, first opening the next
    /// free one (without GC) if it is full, and invalidates the previous
    /// version.
    #[inline]
    fn place(&mut self, lba: Lba, tag: BlockTag) {
        debug_assert_ne!(tag.0, u64::MAX, "the vacant-page tag was written");
        if self.segments[self.active].slots.len() == self.pages_per_segment {
            // Only a host append can get here with no segment free: GC
            // relocates only when one is. A full FTL fails loudly, since a
            // dropped program would falsify every number after it; the
            // figures grid and the benchmark report a panicked cell as
            // failed.
            self.segments[self.active].state = SegState::Sealed;
            #[expect(clippy::expect_used, reason = "a full FTL fails loudly")]
            let next = self
                .open_next()
                .expect("FTL out of space: GC could not free a segment");
            self.active = next;
        }
        let at = PhysLoc {
            segment: self.active,
            slot: self.segments[self.active].slots.len(),
        };
        // The insert comes first: it refuses an address past the map's
        // bound before the slot's `u32` could truncate it.
        if let Some(old) = self.mapping.insert(lba.0, self.pack(at)) {
            let old = self.unpack(old);
            let seg = &mut self.segments[old.segment];
            let held = seg.slots[old.slot].lba;
            if u64::from(held) == lba.0 {
                seg.slots[old.slot] = Slot::VACANT;
                seg.valid -= 1;
            }
        }
        let seg = &mut self.segments[at.segment];
        seg.slots.push(Slot {
            lba: lba.0 as u32,
            tag,
        });
        seg.valid += 1;
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
        if moved_pages == self.pages_per_segment || (moved_pages > 0 && self.free_segments() == 0) {
            return None;
        }
        for slot in 0..self.segments[victim].slots.len() {
            if let Some((lba, tag)) = self.segments[victim].slots[slot].live() {
                self.place(lba, tag);
            }
        }
        debug_assert_eq!(self.segments[victim].valid, 0, "a moved page stayed valid");
        self.segments[victim].reset();
        self.recycled.push(victim);
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
        self.mapping.get(lba.0).map(|loc| self.unpack(loc))
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
            let loc = self.unpack(loc);
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
        assert_eq!(std::mem::size_of::<Slot>(), 12);
        assert_eq!(std::mem::align_of::<Slot>(), 4);
        assert_eq!(Slot::VACANT.live(), None);
        let top = Slot {
            lba: u32::MAX,
            tag: BlockTag(u64::MAX - 1),
        };
        assert_eq!(
            top.live(),
            Some((Lba(Lba::LIMIT.0 - 1), BlockTag(u64::MAX - 1)))
        );
    }

    #[test]
    fn a_forward_map_entry_is_one_word() {
        assert_eq!(std::mem::size_of::<Option<PackedLoc>>(), 4);
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
        let f = Ftl::new(segments, pages, 0.1);
        for (segment, slot) in [
            (0, 0),
            (0, pages - 1),
            (1, 0),
            (segments - 1, 0),
            (segments - 1, pages - 1),
        ] {
            let loc = PhysLoc { segment, slot };
            assert_eq!(f.unpack(f.pack(loc)), loc, "{loc:?}");
        }
        let first = PhysLoc {
            segment: 0,
            slot: 0,
        };
        assert_eq!(f.pack(first).get(), 1);
        let last = PhysLoc {
            segment: segments - 1,
            slot: pages - 1,
        };
        assert_eq!(f.pack(last).get() as usize, segments * pages);
        assert_eq!(f.lookup(Lba(0)), None);
        // A stride that is not a power of two rounds up: 5 pages take 3
        // slot bits, and the last page of the last segment still fits.
        let odd = Ftl::new(3, 5, 0.1);
        let loc = PhysLoc {
            segment: 2,
            slot: 4,
        };
        assert_eq!(odd.unpack(odd.pack(loc)), loc);
        assert_eq!(odd.pack(loc).get(), 2 * 8 + 4 + 1);
    }

    #[test]
    fn the_largest_geometry_that_fits_a_u32_packs_its_last_page() {
        // 2^23 - 1 segments of 512 pages: the last page is index
        // 2^32 - 513, packed as 2^32 - 512. Construction opens one
        // segment, so it costs no more than the smallest FTL.
        let segments = (1 << 23) - 1;
        let f = Ftl::new(segments, 512, 0.1);
        assert_eq!(f.segments.len(), 1);
        assert_eq!(f.free_segments(), segments - 1);
        let last = PhysLoc {
            segment: segments - 1,
            slot: 511,
        };
        assert_eq!(f.pack(last).get(), u32::MAX - 511);
        assert_eq!(f.unpack(f.pack(last)), last);
    }

    #[test]
    #[should_panic(expected = "has more physical pages than a u32 holds")]
    fn a_geometry_past_a_u32_of_pages_is_refused() {
        // 2^23 segments of 512 pages: 2^32 physical pages, one more than
        // a `NonZeroU32` entry can name.
        Ftl::new(1 << 23, 512, 0.1);
    }

    #[test]
    #[should_panic(expected = "has more physical pages than a u32 holds")]
    fn a_stride_rounded_past_a_u32_is_refused() {
        // 2^22 segments of 513 pages round to a 1,024-page stride: 2^32.
        Ftl::new(1 << 22, 513, 0.1);
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
        let mut f = Ftl::new(8, 4, 0.3);
        assert_eq!(
            f.segments.len(),
            1,
            "only the active segment at construction"
        );
        for i in 0..9u64 {
            put(&mut f, i, i + 1);
        }
        assert_eq!(f.segments.len(), 3, "9 appends of 4 pages open ceil(9/4)");
        assert!(f.segments.iter().all(|s| s.slots.capacity() == 4));
        // Overwrite until GC erases a segment. The roll that ran GC
        // reopens the victim at once, on the array it already had.
        for tag in 100u64.. {
            let before: Vec<_> = f.segments.iter().map(|s| s.slots.as_ptr()).collect();
            if let Some(gc) = put(&mut f, tag % 4, tag) {
                let reopened = &f.segments[gc.victim];
                assert_eq!(reopened.state, SegState::Active);
                assert_eq!(reopened.slots.as_ptr(), before[gc.victim]);
                // It holds the append that rolled into it, with room for
                // the rest of a segment.
                assert_eq!((reopened.slots.len(), reopened.slots.capacity()), (1, 4));
                break;
            }
        }
    }

    #[test]
    fn an_erased_segment_reopens_before_a_never_opened_one() {
        // 8 segments × 2 pages, GC below 7.2 free segments: every roll
        // collects. Overwriting one block leaves each sealed segment one
        // live page, so GC moves it into the next segment opened.
        let mut f = Ftl::new(8, 2, 0.9);
        let mut opened = vec![0];
        for tag in 1..=12u64 {
            put(&mut f, 0, tag);
            let segment = f.lookup(Lba(0)).expect("mapped").segment;
            if opened.last() != Some(&segment) {
                opened.push(segment);
            }
        }
        // Segment 1 is the first never opened; from then on each roll
        // erases the segment it leaves and the next roll reopens it, so
        // two segments alternate and segment 2 is never opened.
        assert_eq!(opened, [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0]);
        assert_eq!(f.segments.len(), 2);
        // Six never opened, and the segment the last roll left, erased.
        assert_eq!(f.free_segments(), 7);
        assert_eq!(f.stats().erases, 10);
        // Never-opened segments come in ascending order.
        let mut g = Ftl::new(4, 1, 0.0);
        let firsts: Vec<usize> = (0..4u64)
            .map(|i| {
                put(&mut g, i, i + 1);
                g.lookup(Lba(i)).expect("mapped").segment
            })
            .collect();
        assert_eq!(firsts, [0, 1, 2, 3]);
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
