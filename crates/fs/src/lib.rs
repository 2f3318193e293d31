//! # bio-fs — BarrierFS, EXT4 and OptFS journaling over the barrier stack
//!
//! The filesystem layer of the reproduction (§4 of the paper):
//!
//! * **EXT4** baseline — ordered-mode journaling, one committing
//!   transaction, `FLUSH|FUA` commit blocks, Wait-on-Transfer everywhere
//!   (plus the `nobarrier` variant);
//! * **BarrierFS** — Dual-Mode Journaling with a commit thread that never
//!   waits for transfers and a flush thread that provides durability on
//!   demand; the new interfaces [`Filesystem::fbarrier`] and
//!   [`Filesystem::fdatabarrier`]; multi-transaction page conflicts via
//!   the conflict-page list (§4.3);
//! * **OptFS** — `osync` semantics with selective data journaling and
//!   delayed durability, as the closest prior work;
//! * a **crash-consistency checker** ([`ConsistencyCheck`]) that replays
//!   ground-truth transaction records against a device crash image (a
//!   [`bio_flash::BlockMap`], or any [`bio_flash::ImageView`]) and reports commit-order, torn-transaction, ordered-data and
//!   durability violations.
//!
//! ```
//! use bio_fs::{ActionSink, Filesystem, FsConfig, FsMode, ThreadId};
//! use bio_sim::SimTime;
//!
//! let mut fs = Filesystem::new(FsConfig::new(FsMode::BarrierFs));
//! // The embedding simulator owns one reusable sink for all events.
//! let mut out = ActionSink::new();
//! let f = fs.create(ThreadId(0), &mut out);
//! fs.write(ThreadId(0), f, 0, 4, SimTime::ZERO, &mut out);
//! // fdatabarrier: the storage mfence — returns without blocking.
//! let outcome = fs.fdatabarrier(ThreadId(0), f, SimTime::ZERO, &mut out);
//! assert_eq!(outcome, bio_fs::SyscallOutcome::Done);
//! ```

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
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

mod config;
mod file;
mod fs;
mod history;
mod journal;
mod layout;
mod recovery;
mod txn;

pub use bio_sim::ActionSink;
pub use config::{FsConfig, FsMode};
pub use file::{BlockRuns, DirtyTracker, File, FileId, FileTable};
pub use fs::{Filesystem, FsAction, FsEvent, FsStats, SyscallOutcome};
pub use journal::JournalError;
pub use layout::{Layout, TagRun};
pub use recovery::{ConsistencyCheck, ConsistencyIndex, ConsistencyProbe, FsViolation, TxnRecord};
pub use txn::{ConflictEntry, ConflictList, ThreadId, Txn, TxnId, TxnState};
