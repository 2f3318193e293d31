//! Block-layer request model.
//!
//! The paper extends the kernel's request flags with two attributes
//! (§3.1): `REQ_ORDERED` marks an *order-preserving* request (a member of
//! the current epoch) and `REQ_BARRIER` marks the epoch delimiter. Plain
//! requests are *orderless* and may be scheduled across epochs.

use core::fmt;

use bio_flash::{BlockTag, Lba};

/// Block-layer request identifier (one per bio submitted by the
/// filesystem).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u64);

impl fmt::Display for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req:{}", self.0)
    }
}

/// Request attribute flags (the kernel's `REQ_*` bits that matter here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReqFlags {
    /// `REQ_ORDERED`: member of the current epoch; must not be reordered
    /// across a barrier.
    pub ordered: bool,
    /// `REQ_BARRIER`: delimits an epoch. Implies `ordered`.
    pub barrier: bool,
    /// `REQ_FUA`: complete only when on the storage surface.
    pub fua: bool,
    /// `REQ_FLUSH`: flush the writeback cache before servicing.
    pub preflush: bool,
}

impl ReqFlags {
    /// Plain orderless request.
    pub const NONE: ReqFlags = ReqFlags {
        ordered: false,
        barrier: false,
        fua: false,
        preflush: false,
    };

    /// Order-preserving request (`REQ_ORDERED`).
    pub const ORDERED: ReqFlags = ReqFlags {
        ordered: true,
        barrier: false,
        fua: false,
        preflush: false,
    };

    /// Barrier write (`REQ_ORDERED|REQ_BARRIER`).
    pub const BARRIER: ReqFlags = ReqFlags {
        ordered: true,
        barrier: true,
        fua: false,
        preflush: false,
    };

    /// The classical journal commit (`REQ_FLUSH|REQ_FUA`).
    pub const FLUSH_FUA: ReqFlags = ReqFlags {
        ordered: false,
        barrier: false,
        fua: true,
        preflush: true,
    };

    /// True if the request participates in epoch ordering.
    pub fn is_order_preserving(self) -> bool {
        self.ordered || self.barrier
    }
}

/// The operation a request performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReqOp {
    /// Write consecutive blocks starting at `start`.
    Write {
        /// First block.
        start: Lba,
        /// Content version per block.
        tags: Vec<BlockTag>,
    },
    /// Read consecutive blocks.
    Read {
        /// First block.
        start: Lba,
        /// Block count.
        count: u64,
    },
    /// Explicit cache flush.
    Flush,
}

/// A request submitted to the block layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRequest {
    /// Identifier; completions are reported against it.
    pub id: ReqId,
    /// The operation.
    pub op: ReqOp,
    /// Ordering/durability attributes.
    pub flags: ReqFlags,
}

impl BlockRequest {
    /// Creates a write request.
    pub fn write(id: ReqId, start: Lba, tags: Vec<BlockTag>, flags: ReqFlags) -> BlockRequest {
        BlockRequest {
            id,
            op: ReqOp::Write { start, tags },
            flags,
        }
    }

    /// Creates a read request.
    pub fn read(id: ReqId, start: Lba, count: u64) -> BlockRequest {
        BlockRequest {
            id,
            op: ReqOp::Read { start, count },
            flags: ReqFlags::NONE,
        }
    }

    /// Creates a flush request.
    pub fn flush(id: ReqId) -> BlockRequest {
        BlockRequest {
            id,
            op: ReqOp::Flush,
            flags: ReqFlags::NONE,
        }
    }

    /// Number of blocks moved.
    pub fn blocks(&self) -> u64 {
        match &self.op {
            ReqOp::Write { tags, .. } => tags.len() as u64,
            ReqOp::Read { count, .. } => *count,
            ReqOp::Flush => 0,
        }
    }

    /// Write span as `(start, end_exclusive)`, if this is a write.
    pub fn write_span(&self) -> Option<(Lba, Lba)> {
        match &self.op {
            ReqOp::Write { start, tags } => Some((*start, start.offset(tags.len() as u64))),
            _ => None,
        }
    }
}

/// The bios one dispatched request answers for, in merge order. Nineteen
/// requests in twenty are never merged, so one id sits inline and only a
/// merge spills to the heap. Reads as a slice of ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReqIds {
    /// An unmerged request: its own id.
    One(ReqId),
    /// A merged request: two ids or more.
    Many(Vec<ReqId>),
}

impl ReqIds {
    /// Appends `more`, keeping order.
    fn extend(&mut self, more: &[ReqId]) {
        match self {
            ReqIds::One(first) => {
                let mut all = Vec::with_capacity(1 + more.len());
                all.push(*first);
                all.extend_from_slice(more);
                *self = ReqIds::Many(all);
            }
            ReqIds::Many(all) => all.extend_from_slice(more),
        }
    }
}

impl core::ops::Deref for ReqIds {
    type Target = [ReqId];

    fn deref(&self) -> &[ReqId] {
        match self {
            ReqIds::One(id) => core::slice::from_ref(id),
            ReqIds::Many(all) => all,
        }
    }
}

/// A request merged from one or more bios; remembers every constituent id
/// so each original submitter gets its completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedRequest {
    /// The representative request (contiguous union of constituents).
    pub req: BlockRequest,
    /// All constituent ids (includes `req.id`).
    pub ids: ReqIds,
}

impl MergedRequest {
    /// Wraps a single request.
    pub fn single(req: BlockRequest) -> MergedRequest {
        let ids = ReqIds::One(req.id);
        MergedRequest { req, ids }
    }

    /// Attempts to merge `other` into this request. Succeeds only for
    /// write-write merges with exactly adjacent spans, and caps the result
    /// at `max_blocks`. The merged request is order-preserving if either
    /// constituent is (§3.3).
    pub fn try_merge(&mut self, other: &MergedRequest, max_blocks: u64) -> bool {
        let (Some((s1, e1)), Some((s2, e2))) = (self.req.write_span(), other.req.write_span())
        else {
            return false;
        };
        if self.req.blocks() + other.req.blocks() > max_blocks {
            return false;
        }
        // FUA/preflush writes have point semantics; never merge them.
        if self.req.flags.fua
            || self.req.flags.preflush
            || other.req.flags.fua
            || other.req.flags.preflush
        {
            return false;
        }
        let (ReqOp::Write { start, tags: t1 }, ReqOp::Write { tags: t2, .. }) =
            (&mut self.req.op, &other.req.op)
        else {
            return false;
        };
        if e1 == s2 {
            // Back merge (the common one): other follows self.
            t1.extend_from_slice(t2);
        } else if e2 == s1 {
            // Front merge: other precedes self, prepended in place.
            t1.splice(0..0, t2.iter().copied());
            *start = s2;
        } else {
            return false;
        }
        self.req.flags.ordered |= other.req.flags.ordered;
        self.req.flags.barrier |= other.req.flags.barrier;
        self.ids.extend(&other.ids);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wreq(id: u64, start: u64, n: u64, flags: ReqFlags) -> MergedRequest {
        let tags = (0..n).map(|i| BlockTag(id * 100 + i)).collect();
        MergedRequest::single(BlockRequest::write(ReqId(id), Lba(start), tags, flags))
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn flags_classification() {
        assert!(ReqFlags::ORDERED.is_order_preserving());
        assert!(ReqFlags::BARRIER.is_order_preserving());
        assert!(!ReqFlags::NONE.is_order_preserving());
        assert!(ReqFlags::FLUSH_FUA.fua && ReqFlags::FLUSH_FUA.preflush);
    }

    #[test]
    fn spans_and_blocks() {
        let r = BlockRequest::write(
            ReqId(1),
            Lba(10),
            vec![BlockTag(1), BlockTag(2)],
            ReqFlags::NONE,
        );
        assert_eq!(r.blocks(), 2);
        assert_eq!(r.write_span(), Some((Lba(10), Lba(12))));
        assert_eq!(BlockRequest::flush(ReqId(2)).blocks(), 0);
        assert_eq!(BlockRequest::read(ReqId(3), Lba(0), 4).write_span(), None);
    }

    #[test]
    fn back_merge_concatenates() {
        let mut a = wreq(1, 10, 2, ReqFlags::NONE);
        let b = wreq(2, 12, 2, ReqFlags::NONE);
        assert!(a.try_merge(&b, 64));
        assert_eq!(a.req.blocks(), 4);
        assert_eq!(a.req.write_span(), Some((Lba(10), Lba(14))));
        assert_eq!(*a.ids, [ReqId(1), ReqId(2)]);
        let want = [100, 101, 200, 201].map(BlockTag).to_vec();
        assert_eq!(
            a.req.op,
            ReqOp::Write {
                start: Lba(10),
                tags: want
            }
        );
    }

    #[test]
    fn front_merge_prepends() {
        let mut a = wreq(1, 12, 2, ReqFlags::NONE);
        let b = wreq(2, 10, 2, ReqFlags::NONE);
        assert!(a.try_merge(&b, 64));
        assert_eq!(a.req.write_span(), Some((Lba(10), Lba(14))));
        match &a.req.op {
            ReqOp::Write { tags, .. } => {
                assert_eq!(tags[0], BlockTag(200)); // b's first block leads
                assert_eq!(tags[2], BlockTag(100));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn non_adjacent_do_not_merge() {
        let mut a = wreq(1, 10, 2, ReqFlags::NONE);
        let b = wreq(2, 13, 2, ReqFlags::NONE);
        assert!(!a.try_merge(&b, 64));
        assert_eq!(a.req.blocks(), 2);
    }

    #[test]
    fn merge_respects_size_cap() {
        let mut a = wreq(1, 0, 3, ReqFlags::NONE);
        let b = wreq(2, 3, 2, ReqFlags::NONE);
        assert!(!a.try_merge(&b, 4));
        assert!(a.try_merge(&b, 5));
    }

    #[test]
    fn merged_inherits_order_preservation() {
        let mut a = wreq(1, 0, 1, ReqFlags::NONE);
        let b = wreq(2, 1, 1, ReqFlags::ORDERED);
        assert!(a.try_merge(&b, 64));
        assert!(a.req.flags.is_order_preserving());
    }

    #[test]
    fn fua_and_flush_never_merge() {
        let mut a = wreq(1, 0, 1, ReqFlags::FLUSH_FUA);
        let b = wreq(2, 1, 1, ReqFlags::NONE);
        assert!(!a.try_merge(&b, 64));
        let mut c = wreq(3, 4, 1, ReqFlags::NONE);
        let d = wreq(4, 5, 1, ReqFlags::FLUSH_FUA);
        assert!(!c.try_merge(&d, 64));
    }

    #[test]
    fn reads_do_not_merge_with_writes() {
        let mut a = wreq(1, 0, 1, ReqFlags::NONE);
        let b = MergedRequest::single(BlockRequest::read(ReqId(2), Lba(1), 1));
        assert!(!a.try_merge(&b, 64));
    }
}
