//! On-disk layout: metadata region, circular journal, data extents.
//!
//! ```text
//! | inode/meta blocks | journal (circular) | data extents ... |
//! 0                   meta_end             data_start
//! ```
//!
//! Every write in the simulation is tagged with a unique [`BlockTag`] so
//! the crash checker can identify exactly which version of which block
//! survived; [`Layout`] also hands those tags out.

use bio_flash::{BlockTag, Lba};

/// Disk layout and allocators.
#[derive(Debug, Clone)]
pub struct Layout {
    meta_blocks: u64,
    journal_blocks: u64,
    next_meta: u64,
    journal_head: u64,
    next_data: u64,
    next_tag: u64,
}

impl Layout {
    /// Creates a layout with room for `meta_blocks` metadata blocks and a
    /// `journal_blocks`-block journal.
    pub fn new(meta_blocks: u64, journal_blocks: u64) -> Layout {
        assert!(meta_blocks > 0 && journal_blocks >= 16, "layout too small");
        Layout {
            meta_blocks,
            journal_blocks,
            next_meta: 0,
            journal_head: 0,
            next_data: 0,
            next_tag: 1,
        }
    }

    /// First journal block.
    pub fn journal_start(&self) -> Lba {
        Lba(self.meta_blocks)
    }

    /// First data block.
    pub fn data_start(&self) -> Lba {
        Lba(self.meta_blocks + self.journal_blocks)
    }

    /// Journal capacity in blocks.
    pub fn journal_blocks(&self) -> u64 {
        self.journal_blocks
    }

    /// Allocates one metadata home block (e.g. an inode block), or `None`
    /// once the metadata region is exhausted.
    pub fn alloc_meta(&mut self) -> Option<Lba> {
        if self.next_meta >= self.meta_blocks {
            return None;
        }
        let lba = Lba(self.next_meta);
        self.next_meta += 1;
        Some(lba)
    }

    /// Allocates `n` consecutive journal blocks, wrapping circularly. A
    /// transaction never straddles the wrap point: if it does not fit in
    /// the remaining tail, allocation restarts at the journal head
    /// (matching jbd2, which skips the tail).
    pub fn alloc_journal(&mut self, n: u64) -> Lba {
        assert!(n <= self.journal_blocks, "transaction larger than journal");
        if self.journal_head + n > self.journal_blocks {
            self.journal_head = 0;
        }
        let lba = Lba(self.meta_blocks + self.journal_head);
        self.journal_head += n;
        lba
    }

    /// Allocates `n` consecutive data blocks (simple extent bump
    /// allocator).
    pub fn alloc_data(&mut self, n: u64) -> Lba {
        let lba = Lba(self.meta_blocks + self.journal_blocks + self.next_data);
        self.next_data += n;
        lba
    }

    /// Hands out a fresh unique content tag.
    pub fn next_tag(&mut self) -> BlockTag {
        let t = BlockTag(self.next_tag);
        self.next_tag += 1;
        t
    }

    /// Hands out `n` fresh tags, which are consecutive.
    pub fn next_tags(&mut self, n: usize) -> TagRun {
        let run = TagRun {
            first: BlockTag(self.next_tag),
            len: n as u64,
        };
        self.next_tag += run.len;
        run
    }
}

/// Consecutive content tags, as [`Layout::next_tags`] hands them out: a
/// transaction's descriptor and log blocks, in block order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagRun {
    /// The first tag.
    pub first: BlockTag,
    /// How many tags.
    pub len: u64,
}

impl TagRun {
    /// The tags, first to last.
    pub fn iter(self) -> impl Iterator<Item = BlockTag> {
        (0..self.len).map(move |i| BlockTag(self.first.0 + i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let mut l = Layout::new(64, 128);
        let m = l.alloc_meta().unwrap();
        assert!(m.0 < 64);
        assert_eq!(l.journal_start(), Lba(64));
        assert_eq!(l.data_start(), Lba(192));
        let d = l.alloc_data(4);
        assert!(d.0 >= 192);
    }

    #[test]
    fn journal_wraps_without_straddling() {
        let mut l = Layout::new(8, 16);
        let a = l.alloc_journal(10);
        assert_eq!(a, Lba(8));
        // 6 blocks remain; a 7-block txn must wrap to the start.
        let b = l.alloc_journal(7);
        assert_eq!(b, Lba(8));
        // Next allocation continues after it.
        let c = l.alloc_journal(2);
        assert_eq!(c, Lba(15));
    }

    #[test]
    fn tags_are_unique_and_monotonic() {
        let mut l = Layout::new(4, 16);
        let a = l.next_tag();
        let b = l.next_tag();
        assert!(b > a);
        let batch: Vec<BlockTag> = l.next_tags(3).iter().collect();
        assert_eq!(
            batch,
            [BlockTag(b.0 + 1), BlockTag(b.0 + 2), BlockTag(b.0 + 3)]
        );
        assert_eq!(l.next_tag(), BlockTag(b.0 + 4));
    }

    #[test]
    fn data_extents_advance() {
        let mut l = Layout::new(4, 16);
        let a = l.alloc_data(3);
        let b = l.alloc_data(1);
        assert_eq!(b.0, a.0 + 3);
    }

    #[test]
    fn meta_exhaustion_refuses() {
        let mut l = Layout::new(2, 16);
        assert_eq!(l.alloc_meta(), Some(Lba(0)));
        assert_eq!(l.alloc_meta(), Some(Lba(1)));
        assert_eq!(l.alloc_meta(), None);
        assert_eq!(l.alloc_meta(), None, "and stays refused");
        assert_eq!(l.alloc_data(1), l.data_start(), "no other region moves");
    }

    #[test]
    #[should_panic(expected = "larger than journal")]
    fn oversized_txn_rejected() {
        Layout::new(4, 16).alloc_journal(17);
    }
}
