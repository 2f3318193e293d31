//! # bio-workloads — application workload generators
//!
//! Syscall-level models of every application the paper evaluates (§5–§6):
//!
//! * [`RandWrite`] — the 4 KiB random-write microbenchmark behind Figs 1,
//!   9 and 10 (buffered, or ordered via a configurable sync call);
//! * [`Dwsl`] — fxmark's modified DWSL: per-thread 4 KiB allocating write
//!   + fsync (Fig 13);
//! * [`Sqlite`] — SQLite insert transactions in PERSIST and WAL journal
//!   modes, with the paper's substitution of ordering-only calls for three
//!   of the four `fdatasync`s (Fig 14);
//! * [`Varmail`] — filebench varmail: create/append/fsync/read/delete mail
//!   loop (Fig 15);
//! * [`OltpInsert`] — MySQL-style OLTP inserts: redo-log + binlog commits
//!   with a circularly overwritten log file (Fig 15; the overwrites are
//!   what trigger OptFS's selective data journaling).
//!
//! Beyond the paper's five, two server workloads exercise the stacks where
//! tail *latency*, not throughput, differentiates them (the `fig16`
//! experiment):
//!
//! * [`RocksDbWal`] — LSM-style WAL append + commit sync, interleaved with
//!   memtable flushes to L0 SSTs and L0→L1 compactions;
//! * [`MailQueue`] — postfix-style fsync storm: spool-file + queue-directory
//!   sync per message over a ring of small files.
//!
//! Each model is a [`barrier_io::Workload`] of its own: it holds its state
//! and a script of ops, and builds one iteration's ops at a time into the
//! script as it is played out. A set-up or shut-down step is an iteration
//! of its own at either end. Builds run once per iteration, in order, and
//! are the only place a model draws from the thread RNG, so a stream is a
//! function of its seed (`tests/golden_op_trace.rs` holds every model's
//! streams to recorded hashes). The sync flavour is a parameter
//! ([`SyncMode`]) so one generator covers the EXT4-DR / EXT4-OD / BFS-DR /
//! BFS-OD / OptFS experiment columns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Determinism and totality gates (docs/INVARIANTS.md); `tests/invariants_gate.rs`
// holds these lines in place.
#![cfg_attr(
    not(test),
    deny(
        clippy::iter_over_hash_type,
        clippy::disallowed_methods,
        clippy::disallowed_types
    )
)]

mod dwsl;
mod mailqueue;
mod oltp;
mod randwrite;
mod rocksdb;
mod script;
mod sqlite;
mod varmail;

pub use dwsl::Dwsl;
pub use mailqueue::MailQueue;
pub use oltp::OltpInsert;
pub use randwrite::{RandWrite, WriteMode};
pub use rocksdb::RocksDbWal;
pub use sqlite::{Sqlite, SqliteJournalMode};
pub use varmail::Varmail;

use barrier_io::{FileRef, Op};

/// Which synchronisation call a workload uses where the application wants
/// ordering and/or durability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// `fsync` — durability (EXT4-DR / BFS-DR columns).
    Fsync,
    /// `fdatasync`.
    Fdatasync,
    /// `fbarrier` — ordering only (BFS-OD; maps to `osync` on OptFS).
    Fbarrier,
    /// `fdatabarrier` — ordering only, no wait.
    Fdatabarrier,
    /// No call at all.
    None,
}

impl SyncMode {
    /// The op for this mode on `file`, or `None` for [`SyncMode::None`].
    pub fn op(self, file: FileRef) -> Option<Op> {
        match self {
            SyncMode::Fsync => Some(Op::Fsync { file }),
            SyncMode::Fdatasync => Some(Op::Fdatasync { file }),
            SyncMode::Fbarrier => Some(Op::Fbarrier { file }),
            SyncMode::Fdatabarrier => Some(Op::Fdatabarrier { file }),
            SyncMode::None => None,
        }
    }

    /// The ordering-only counterpart (what the paper substitutes when
    /// relaxing durability).
    pub fn ordering_only(self) -> SyncMode {
        match self {
            SyncMode::Fsync => SyncMode::Fbarrier,
            SyncMode::Fdatasync => SyncMode::Fdatabarrier,
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_mode_ops() {
        let f = FileRef::Global(0);
        assert_eq!(SyncMode::Fsync.op(f), Some(Op::Fsync { file: f }));
        assert_eq!(SyncMode::None.op(f), None);
        assert_eq!(
            SyncMode::Fdatasync.ordering_only().op(f),
            Some(Op::Fdatabarrier { file: f })
        );
        assert_eq!(SyncMode::Fbarrier.ordering_only(), SyncMode::Fbarrier);
    }
}
