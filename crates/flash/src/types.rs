//! Core vocabulary types shared across the device model: logical block
//! addresses, command identifiers, command kinds, SCSI priority classes and
//! completion records.

use core::fmt;

use bio_sim::SimTime;

/// A logical block address in 4 KiB units.
///
/// The paper's experiments are all in 4 KiB pages; the device maps one LBA
/// to one flash page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lba(pub u64);

impl Lba {
    /// One past the highest address a device holds: 2^32 blocks (16 TiB
    /// at 4 KiB), the bound of every table the stack keys by address
    /// ([`bio_sim::PagedMap`]). A device refuses a write that reaches it.
    pub const LIMIT: Lba = Lba(1 << 32);

    /// The LBA `n` blocks after this one.
    #[inline]
    pub fn offset(self, n: u64) -> Lba {
        Lba(self.0 + n)
    }
}

impl fmt::Display for Lba {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lba:{}", self.0)
    }
}

/// Identifies the content version written to a block.
///
/// The simulation does not move real bytes around; every write carries a
/// unique tag so crash-recovery audits can tell exactly *which* write
/// survived. Tag 0 is reserved for "never written".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockTag(pub u64);

impl BlockTag {
    /// The "never written" sentinel.
    pub const UNWRITTEN: BlockTag = BlockTag(0);
}

/// A monotonically assigned command identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CmdId(pub u64);

impl fmt::Display for CmdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cmd:{}", self.0)
    }
}

/// SCSI command priority classes (§3.4 of the paper).
///
/// * `Simple` commands may be serviced in any order between fences.
/// * `Ordered` commands are fences: an ordered command is serviced only
///   after every earlier command completes, and no later command may be
///   serviced before it. Order-preserving dispatch tags barrier writes with
///   this class.
/// * `HeadOfQueue` commands jump to the front (used for flush).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Freely reorderable between fences.
    #[default]
    Simple,
    /// A fence in the command queue.
    Ordered,
    /// Serviced before everything else in the queue.
    HeadOfQueue,
}

/// Per-write option flags, mirroring the kernel's `REQ_*` request flags at
/// the device interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteFlags {
    /// Force Unit Access: bypass the writeback cache; complete only when the
    /// data is on the storage surface.
    pub fua: bool,
    /// Flush the writeback cache *before* servicing this write
    /// (`REQ_FLUSH` / preflush).
    pub flush_before: bool,
    /// Cache-barrier flag (`REQ_BARRIER`): blocks transferred after this
    /// write must not persist before blocks transferred up to and including
    /// it (§3.2).
    pub barrier: bool,
}

impl WriteFlags {
    /// Plain buffered write: no flush, no FUA, no barrier.
    pub const NONE: WriteFlags = WriteFlags {
        fua: false,
        flush_before: false,
        barrier: false,
    };

    /// The classical journal-commit flags: `FLUSH|FUA`.
    pub const FLUSH_FUA: WriteFlags = WriteFlags {
        fua: true,
        flush_before: true,
        barrier: false,
    };

    /// A barrier write (`REQ_BARRIER`).
    pub const BARRIER: WriteFlags = WriteFlags {
        fua: false,
        flush_before: false,
        barrier: true,
    };
}

/// What a command asks the device to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmdKind {
    /// Write `tags.len()` consecutive blocks starting at `start`.
    Write {
        /// First block address.
        start: Lba,
        /// Content version tag for each consecutive block.
        tags: Vec<BlockTag>,
        /// FUA / flush / barrier options.
        flags: WriteFlags,
    },
    /// Read `count` consecutive blocks starting at `start`.
    Read {
        /// First block address.
        start: Lba,
        /// Number of blocks.
        count: u64,
    },
    /// Flush the writeback cache to the storage surface.
    Flush,
}

impl CmdKind {
    /// Number of 4 KiB blocks moved by this command (0 for flush).
    pub fn blocks(&self) -> u64 {
        match self {
            CmdKind::Write { tags, .. } => tags.len() as u64,
            CmdKind::Read { count, .. } => *count,
            CmdKind::Flush => 0,
        }
    }

    /// True for write commands carrying the barrier flag.
    pub fn is_barrier(&self) -> bool {
        matches!(self, CmdKind::Write { flags, .. } if flags.barrier)
    }
}

/// A command submitted to the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// Unique id, assigned by the submitter.
    pub id: CmdId,
    /// The operation.
    pub kind: CmdKind,
    /// SCSI priority class.
    pub priority: Priority,
}

impl Command {
    /// Creates a write command.
    pub fn write(id: CmdId, start: Lba, tags: Vec<BlockTag>, flags: WriteFlags) -> Command {
        Command {
            id,
            kind: CmdKind::Write { start, tags, flags },
            priority: Priority::Simple,
        }
    }

    /// Creates a flush command (head-of-queue, as in the paper §3.4).
    pub fn flush(id: CmdId) -> Command {
        Command {
            id,
            kind: CmdKind::Flush,
            priority: Priority::HeadOfQueue,
        }
    }

    /// Creates a read command.
    pub fn read(id: CmdId, start: Lba, count: u64) -> Command {
        Command {
            id,
            kind: CmdKind::Read { start, count },
            priority: Priority::Simple,
        }
    }

    /// Sets the SCSI priority, builder style.
    pub fn with_priority(mut self, p: Priority) -> Command {
        self.priority = p;
        self
    }
}

/// Completion record delivered to the host when a command finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Which command completed.
    pub id: CmdId,
    /// When it completed.
    pub at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lba_offset() {
        assert_eq!(Lba(10).offset(5), Lba(15));
        assert_eq!(Lba(10).to_string(), "lba:10");
    }

    #[test]
    fn cmd_blocks() {
        let w = CmdKind::Write {
            start: Lba(0),
            tags: vec![BlockTag(1), BlockTag(2)],
            flags: WriteFlags::NONE,
        };
        assert_eq!(w.blocks(), 2);
        assert_eq!(CmdKind::Flush.blocks(), 0);
        assert_eq!(
            CmdKind::Read {
                start: Lba(3),
                count: 7
            }
            .blocks(),
            7
        );
    }

    #[test]
    fn barrier_flag_detection() {
        let b = Command::write(CmdId(1), Lba(0), vec![BlockTag(1)], WriteFlags::BARRIER);
        assert!(b.kind.is_barrier());
        let p = Command::write(CmdId(2), Lba(0), vec![BlockTag(2)], WriteFlags::NONE);
        assert!(!p.kind.is_barrier());
        assert!(!CmdKind::Flush.is_barrier());
    }

    #[test]
    fn flush_is_head_of_queue() {
        assert_eq!(Command::flush(CmdId(9)).priority, Priority::HeadOfQueue);
    }

    #[test]
    fn priority_builder() {
        let c = Command::write(CmdId(1), Lba(0), vec![BlockTag(1)], WriteFlags::NONE)
            .with_priority(Priority::Ordered);
        assert_eq!(c.priority, Priority::Ordered);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn flags_presets() {
        assert!(WriteFlags::FLUSH_FUA.fua && WriteFlags::FLUSH_FUA.flush_before);
        assert!(!WriteFlags::NONE.barrier);
        assert!(WriteFlags::BARRIER.barrier);
    }
}
