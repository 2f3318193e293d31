//! The file table: inodes, extents, dirty-page tracking.
//!
//! Files are block-granular. Each file owns one inode home block in the
//! metadata region and a set of data extents. Dirty data pages carry the
//! tag assigned at `write()` time (overwrites before writeback replace the
//! tag in place — page-cache semantics); the inode has two dirt bits,
//! because `fdatasync` ignores timestamp-only changes while `fsync` does
//! not (§6.3's timer-tick effect).
//!
//! [`FileId`]s are dense, contiguous small integers (the table is the
//! allocator), so the table is a direct-indexed `Vec` — the same idiom as
//! the per-thread syscall table in `fs.rs` and the dense hot-path indexes
//! in `bio-flash`. Deleted files keep their slot (marked dead) so ids are
//! never reused and stale references cannot alias a new file.

use bio_flash::{BlockTag, Lba};

use crate::layout::Layout;
use crate::txn::TxnId;

/// File identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

/// The dirty pages of one file: `(block, tag)` pairs in one `Vec`, sorted by
/// block, each block at most once — the only invariant.
///
/// Sized by the traffic, measured on the six benchmark workloads: a sync
/// drains 1.0–2.6 blocks on average, and the resident set stays at or
/// under 4.2 blocks on five of them (485 mean, 1,663 max under
/// `randwrite_qd`'s buffered cells, where a binary search plus a `memmove`
/// of 16-byte pairs still read no slower than a run list). Nothing here
/// allocates once the `Vec` has reached its working size. Every iteration
/// and drain order is ascending block order.
#[derive(Debug, Clone, Default)]
pub struct DirtyTracker {
    pages: Vec<(u64, BlockTag)>,
}

impl DirtyTracker {
    /// An empty tracker.
    pub fn new() -> DirtyTracker {
        DirtyTracker::default()
    }

    /// Number of dirty blocks.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when nothing is dirty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    fn position(&self, block: u64) -> Result<usize, usize> {
        self.pages.binary_search_by_key(&block, |&(b, _)| b)
    }

    /// Marks `block` dirty with `tag`, replacing the tag in place when the
    /// block was already dirty (page-cache semantics). Returns true when
    /// the block was newly dirtied.
    pub fn insert(&mut self, block: u64, tag: BlockTag) -> bool {
        match self.position(block) {
            Ok(i) => {
                if let Some(page) = self.pages.get_mut(i) {
                    page.1 = tag;
                }
                false
            }
            Err(i) => {
                self.pages.insert(i, (block, tag));
                true
            }
        }
    }

    /// True when `block` is dirty.
    pub fn contains(&self, block: u64) -> bool {
        self.position(block).is_ok()
    }

    /// The tag of a dirty block, if dirty.
    pub fn tag_at(&self, block: u64) -> Option<BlockTag> {
        let page = self.position(block).ok().and_then(|i| self.pages.get(i));
        page.map(|&(_, tag)| tag)
    }

    /// Iterates over `(block, tag)` pairs in ascending block order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, BlockTag)> + '_ {
        self.pages.iter().copied()
    }

    /// Drains up to `n` dirty blocks, lowest block first: pdflush's budget
    /// and, with `n >= len`, a sync's full drain. The blocks leave the
    /// tracker even if the iterator is dropped early.
    pub fn take(&mut self, n: usize) -> impl Iterator<Item = (u64, BlockTag)> + '_ {
        let n = n.min(self.pages.len());
        self.pages.drain(..n)
    }

    /// Drops every dirty block, returning how many were dropped.
    pub fn clear(&mut self) -> usize {
        let n = self.pages.len();
        self.pages.clear();
        n
    }
}

/// A set of file blocks as sorted, disjoint, non-touching runs
/// `[start, end)`. What it holds — the blocks a file ever wrote back — is
/// appends and overwrites of a small region, so the runs collapse into a
/// handful and `insert` and `contains` are one binary search each; nothing
/// allocates once the run list has reached its working size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockRuns {
    runs: Vec<(u64, u64)>,
}

impl BlockRuns {
    /// An empty set.
    pub fn new() -> BlockRuns {
        BlockRuns::default()
    }

    /// True when `block` is in the set.
    pub fn contains(&self, block: u64) -> bool {
        let i = self.runs.partition_point(|r| r.1 <= block);
        self.runs.get(i).is_some_and(|r| r.0 <= block)
    }

    /// Adds `block`, growing or joining the runs it touches. Returns true
    /// when it was not in the set. (`u64::MAX` ends no run: it is never
    /// added.)
    pub fn insert(&mut self, block: u64) -> bool {
        let Some(end) = block.checked_add(1) else {
            return false;
        };
        // The first run ending at or after `block`: it holds it, ends
        // right below it, or lies wholly above it.
        let i = self.runs.partition_point(|r| r.1 < block);
        let next = self.runs.get(i + 1).copied();
        let Some(run) = self.runs.get_mut(i) else {
            self.runs.push((block, end));
            return true;
        };
        if run.0 <= block && block < run.1 {
            return false;
        }
        if run.1 == block {
            run.1 = end;
            if let Some((start, next_end)) = next.filter(|n| n.0 == end) {
                run.1 = next_end;
                self.runs.retain(|r| r.0 != start);
            }
        } else if run.0 == end {
            run.0 = block;
        } else {
            self.runs.insert(i, (block, end));
        }
        true
    }
}

/// One file.
#[derive(Debug, Clone)]
pub struct File {
    /// Inode home block in the metadata region.
    pub inode_lba: Lba,
    /// Size in blocks (highest written block + 1).
    pub size_blocks: u64,
    /// Extent map: file-block offset → starting LBA, length.
    extents: Vec<(u64, Lba, u64)>,
    /// Dirty data pages.
    pub dirty_data: DirtyTracker,
    /// Blocks ever written back (used by OptFS selective data journaling:
    /// an overwrite of committed content is journaled, not written in
    /// place).
    pub committed_blocks: BlockRuns,
    /// Inode content version (bumped on any metadata change).
    pub meta_tag: BlockTag,
    /// Size/allocation changed since last journal commit (`fdatasync`
    /// must commit).
    pub alloc_dirty: bool,
    /// Timestamp changed since last commit (`fsync` must commit,
    /// `fdatasync` may skip).
    pub mtime_dirty: bool,
    /// Timer tick of the last timestamp update.
    pub mtime_tick: u64,
    /// Transaction currently holding this inode's dirty buffer.
    pub txn: Option<TxnId>,
    /// Live (deleted files keep their slot, dead).
    pub live: bool,
}

impl File {
    /// True if a journal commit is needed to persist this file's metadata
    /// for the given syscall flavour.
    pub fn metadata_dirty(&self, datasync: bool) -> bool {
        if datasync {
            self.alloc_dirty
        } else {
            self.alloc_dirty || self.mtime_dirty
        }
    }

    /// Resolves a file block offset to its LBA, if allocated.
    ///
    /// The extent list is kept sorted by file offset and non-overlapping
    /// (`File::insert_extent` keeps it so), so at most one extent can contain
    /// `block`: the last one starting at or before it.
    pub fn lba_of(&self, block: u64) -> Option<Lba> {
        let idx = self.extents.partition_point(|&(off, _, _)| off <= block);
        let &(off, lba, len) = self.extents.get(idx.checked_sub(1)?)?;
        (block < off + len).then(|| Lba(lba.0 + (block - off)))
    }

    /// Number of extents (for tests and diagnostics).
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// Inserts a run at its sorted position, merging into the preceding
    /// extent when the run is contiguous in both file offset and LBA —
    /// which every append is, because the data allocator is a bump
    /// allocator. Without the merge an append-heavy file accumulates one
    /// extent per write and every later lookup pays for all of them.
    fn insert_extent(&mut self, start: u64, lba: Lba, len: u64) {
        let idx = self.extents.partition_point(|&(off, _, _)| off <= start);
        if let Some((poff, plba, plen)) = idx.checked_sub(1).and_then(|i| self.extents.get_mut(i)) {
            if *poff + *plen == start && plba.0 + *plen == lba.0 {
                *plen += len;
                return;
            }
        }
        self.extents.insert(idx, (start, lba, len));
    }
}

/// The file table.
#[derive(Debug, Clone, Default)]
pub struct FileTable {
    files: Vec<File>,
}

impl FileTable {
    /// Creates an empty table.
    pub fn new() -> FileTable {
        FileTable::default()
    }

    /// Creates a file, allocating its inode block.
    pub fn create(&mut self, layout: &mut Layout) -> FileId {
        let id = FileId(self.files.len() as u32);
        self.files.push(File {
            inode_lba: layout.alloc_meta(),
            size_blocks: 0,
            extents: Vec::new(),
            dirty_data: DirtyTracker::new(),
            committed_blocks: BlockRuns::new(),
            meta_tag: layout.next_tag(),
            alloc_dirty: true, // a fresh inode must be journaled
            mtime_dirty: true,
            mtime_tick: u64::MAX,
            txn: None,
            live: true,
        });
        id
    }

    /// True when `id` names a file of this table. A [`FileId`] is checked
    /// here once, where it enters ([`crate::Filesystem`]'s syscalls), so
    /// that [`FileTable::get`] can index.
    pub fn contains(&self, id: FileId) -> bool {
        (id.0 as usize) < self.files.len()
    }

    /// Immutable file access.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    // A `FileId` is checked where it enters: every syscall drops an
    // unknown file (counted in `FsStats::dropped_journal_events`) before
    // anything is looked up, the ids transactions and syscall
    // continuations keep were checked then, and no file ever leaves the
    // table.
    #[allow(clippy::indexing_slicing, reason = "FileId checked at syscall entry")]
    pub fn get(&self, id: FileId) -> &File {
        &self.files[id.0 as usize]
    }

    /// Mutable file access.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    #[allow(clippy::indexing_slicing, reason = "FileId checked at syscall entry")]
    pub fn get_mut(&mut self, id: FileId) -> &mut File {
        &mut self.files[id.0 as usize]
    }

    /// Number of files ever created.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True if no files exist.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Ensures blocks `[offset, offset+n)` are allocated, extending the
    /// file with a fresh extent if needed. Returns true when an allocation
    /// happened (metadata change).
    pub fn ensure_allocated(
        &mut self,
        id: FileId,
        layout: &mut Layout,
        offset: u64,
        n: u64,
    ) -> bool {
        let file = self.get_mut(id);
        let end = offset + n;
        let mut allocated = false;
        // One allocation covers everything from the first unallocated
        // block to `end` (files grow mostly append-style in the
        // workloads). Already-allocated blocks inside that span keep
        // their existing mapping; only the holes get extents pointing
        // into the fresh run, so the extent list stays non-overlapping.
        let mut cursor = offset;
        while cursor < end && file.lba_of(cursor).is_some() {
            cursor += 1;
        }
        if cursor < end {
            let base = layout.alloc_data(end - cursor);
            allocated = true;
            let mut a = cursor;
            while a < end {
                if file.lba_of(a).is_some() {
                    a += 1;
                    continue;
                }
                let mut b = a + 1;
                while b < end && file.lba_of(b).is_none() {
                    b += 1;
                }
                file.insert_extent(a, Lba(base.0 + (a - cursor)), b - a);
                a = b;
            }
        }
        if end > file.size_blocks {
            file.size_blocks = end;
            allocated = true;
        }
        allocated
    }

    /// Iterates over live file ids.
    pub fn ids(&self) -> impl Iterator<Item = FileId> + '_ {
        self.files
            .iter()
            .enumerate()
            .filter(|(_, f)| f.live)
            .map(|(i, _)| FileId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (FileTable, Layout) {
        (FileTable::new(), Layout::new(64, 128))
    }

    #[test]
    fn create_allocates_inode() {
        let (mut ft, mut l) = setup();
        let a = ft.create(&mut l);
        let b = ft.create(&mut l);
        assert_ne!(ft.get(a).inode_lba, ft.get(b).inode_lba);
        assert!(ft.get(a).alloc_dirty, "fresh inode needs journaling");
        assert_eq!(ft.len(), 2);
    }

    #[test]
    fn allocation_extends_extents() {
        let (mut ft, mut l) = setup();
        let f = ft.create(&mut l);
        assert!(ft.ensure_allocated(f, &mut l, 0, 4));
        assert_eq!(ft.get(f).size_blocks, 4);
        let lba0 = ft.get(f).lba_of(0).unwrap();
        let lba3 = ft.get(f).lba_of(3).unwrap();
        assert_eq!(lba3.0, lba0.0 + 3);
        // Re-allocating the same range is a no-op.
        assert!(!ft.ensure_allocated(f, &mut l, 0, 4));
    }

    #[test]
    fn appends_merge_into_one_extent() {
        let (mut ft, mut l) = setup();
        let f = ft.create(&mut l);
        for block in 0..16 {
            ft.ensure_allocated(f, &mut l, block, 1);
        }
        let file = ft.get(f);
        assert_eq!(file.extent_count(), 1, "bump-allocated appends merge");
        let lba0 = file.lba_of(0).unwrap();
        for block in 0..16 {
            assert_eq!(file.lba_of(block), Some(Lba(lba0.0 + block)));
        }
    }

    #[test]
    fn spanning_write_keeps_existing_mappings() {
        // Allocate [5, 7), then write [0, 10): the span allocation must
        // not remap the already-allocated middle, and the holes on both
        // sides resolve into the fresh run.
        let (mut ft, mut l) = setup();
        let f = ft.create(&mut l);
        ft.ensure_allocated(f, &mut l, 5, 2);
        let old5 = ft.get(f).lba_of(5).unwrap();
        ft.ensure_allocated(f, &mut l, 0, 10);
        let file = ft.get(f);
        assert_eq!(file.lba_of(5), Some(old5), "overlap keeps old mapping");
        assert_eq!(file.lba_of(6), Some(Lba(old5.0 + 1)));
        let new0 = file.lba_of(0).unwrap();
        assert_eq!(file.lba_of(4), Some(Lba(new0.0 + 4)), "leading hole");
        assert_eq!(file.lba_of(7), Some(Lba(new0.0 + 7)), "trailing hole");
        assert_eq!(file.lba_of(10), None);
        assert_eq!(file.size_blocks, 10);
    }

    #[test]
    fn sparse_extension_allocates_gap() {
        let (mut ft, mut l) = setup();
        let f = ft.create(&mut l);
        ft.ensure_allocated(f, &mut l, 0, 2);
        ft.ensure_allocated(f, &mut l, 5, 2);
        assert!(ft.get(f).lba_of(6).is_some());
        assert_eq!(ft.get(f).size_blocks, 7);
    }

    #[test]
    fn metadata_dirty_flavours() {
        let (mut ft, mut l) = setup();
        let f = ft.create(&mut l);
        let file = ft.get_mut(f);
        file.alloc_dirty = false;
        file.mtime_dirty = true;
        assert!(file.metadata_dirty(false), "fsync sees mtime");
        assert!(!file.metadata_dirty(true), "fdatasync ignores mtime");
        file.alloc_dirty = true;
        assert!(file.metadata_dirty(true));
    }

    #[test]
    fn dirty_tracker_overwrites_in_place() {
        let mut d = DirtyTracker::new();
        assert!(d.insert(7, BlockTag(2)));
        assert!(d.insert(5, BlockTag(1)));
        assert!(d.insert(6, BlockTag(3)));
        assert_eq!(d.len(), 3);
        // Overwrite replaces the tag without growing.
        assert!(!d.insert(6, BlockTag(9)));
        assert_eq!(d.len(), 3);
        assert_eq!(d.tag_at(6), Some(BlockTag(9)));
        assert!(d.insert(4, BlockTag(4)));
        assert_eq!(
            d.iter().collect::<Vec<_>>(),
            vec![
                (4, BlockTag(4)),
                (5, BlockTag(1)),
                (6, BlockTag(9)),
                (7, BlockTag(2)),
            ]
        );
    }

    #[test]
    fn dirty_tracker_budgeted_take_is_lowest_first() {
        let mut d = DirtyTracker::new();
        d.insert(10, BlockTag(99));
        for b in (0..6u64).rev() {
            d.insert(b, BlockTag(b + 1));
        }
        let first: Vec<u64> = d.take(4).map(|(b, _)| b).collect();
        assert_eq!(first, vec![0, 1, 2, 3]);
        assert_eq!(d.len(), 3);
        assert!(d.contains(4) && d.contains(10) && !d.contains(0));
        let rest: Vec<u64> = d.take(10).map(|(b, _)| b).collect();
        assert_eq!(rest, vec![4, 5, 10]);
        assert!(d.is_empty());
        assert_eq!(d.take(3).count(), 0);
    }

    #[test]
    fn dirty_tracker_full_drain_and_clear() {
        let mut d = DirtyTracker::new();
        d.insert(8, BlockTag(3));
        d.insert(0, BlockTag(1));
        d.insert(1, BlockTag(2));
        let all: Vec<_> = d.take(usize::MAX).collect();
        assert_eq!(
            all,
            vec![(0, BlockTag(1)), (1, BlockTag(2)), (8, BlockTag(3))]
        );
        assert!(d.is_empty());
        d.insert(3, BlockTag(4));
        assert_eq!(d.clear(), 1);
        assert!(d.is_empty() && d.tag_at(3).is_none());
    }

    #[test]
    fn block_runs_agree_with_a_btree_set() {
        let mut rng = bio_sim::SimRng::new(0xB10C);
        for _ in 0..200 {
            let (mut runs, mut set) = (BlockRuns::new(), std::collections::BTreeSet::new());
            // Appends, overwrites of a small region, and strays.
            let mut next = rng.below(8);
            for _ in 0..rng.range(1, 80) {
                let block = match rng.below(4) {
                    0 => {
                        next += 1;
                        next
                    }
                    1 => rng.below(16),
                    2 => next.saturating_sub(rng.below(4)),
                    _ => rng.below(1_000),
                };
                assert_eq!(runs.insert(block), set.insert(block), "insert {block}");
                for probe in [block.saturating_sub(1), block, block + 1, rng.below(1_000)] {
                    assert_eq!(
                        runs.contains(probe),
                        set.contains(&probe),
                        "contains {probe}"
                    );
                }
            }
            // Disjoint, non-touching, ascending: exactly the set's runs.
            let mut expected: Vec<(u64, u64)> = Vec::new();
            for &b in &set {
                match expected.last_mut() {
                    Some(run) if run.1 == b => run.1 = b + 1,
                    _ => expected.push((b, b + 1)),
                }
            }
            assert_eq!(runs.runs, expected);
        }
    }

    #[test]
    fn block_runs_join_across_a_filled_gap() {
        let mut runs = BlockRuns::new();
        for b in [0, 1, 3, 4] {
            runs.insert(b);
        }
        assert_eq!(runs.runs.len(), 2);
        assert!(runs.insert(2));
        assert_eq!(runs.runs.len(), 1);
        assert!(!runs.insert(2));
        assert!(runs.contains(4) && !runs.contains(5));
        assert!(!runs.insert(u64::MAX), "no overflow, no empty run");
        assert_eq!(runs.runs.len(), 1);
    }

    #[test]
    fn ids_iterates_live_files() {
        let (mut ft, mut l) = setup();
        let a = ft.create(&mut l);
        let b = ft.create(&mut l);
        ft.get_mut(a).live = false;
        let ids: Vec<FileId> = ft.ids().collect();
        assert_eq!(ids, vec![b]);
    }
}
