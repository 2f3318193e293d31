//! # barrier-io — the assembled Barrier-Enabled IO Stack
//!
//! This crate wires the three layers of the reproduction together into a
//! runnable simulator (the paper's Fig 4):
//!
//! ```text
//!   workload threads (bio-workloads)
//!        │  write/fsync/fbarrier/fdatabarrier
//!        ▼
//!   BarrierFS / EXT4 / OptFS          (bio-fs)
//!        │  REQ_ORDERED / REQ_BARRIER requests
//!        ▼
//!   epoch scheduler + order-preserving dispatch   (bio-block)
//!        │  SCSI commands with ordered priority
//!        ▼
//!   barrier-compliant flash device    (bio-flash)
//! ```
//!
//! [`StackConfig`] picks the experiment cell (EXT4-DR / EXT4-OD / BFS /
//! OptFS × device), [`IoStack`] runs workloads deterministically, and
//! [`StackReport`] / [`CrashReport`] capture the results the paper's
//! figures are made of.
//!
//! ```
//! use barrier_io::{FileRef, IoStack, Op, ScriptWorkload, StackConfig};
//! use bio_flash::DeviceProfile;
//! use bio_sim::SimDuration;
//!
//! let mut stack = IoStack::new(StackConfig::bfs(DeviceProfile::ufs()));
//! let db = stack.create_global_file();
//! let script = vec![
//!     Op::Write { file: FileRef::Global(db), offset: 0, blocks: 1 },
//!     Op::Fdatabarrier { file: FileRef::Global(db) },
//!     Op::Write { file: FileRef::Global(db), offset: 1, blocks: 1 },
//!     Op::Fsync { file: FileRef::Global(db) },
//!     Op::TxnMark,
//! ];
//! stack.add_thread(Box::new(ScriptWorkload::repeat(script, 10)));
//! stack.run_until_done(SimDuration::from_secs(10));
//! assert_eq!(stack.report().run.txns, 10);
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
mod metrics;
mod ops;
mod stack;

pub use config::{StackConfig, SyncDiscipline};
pub use metrics::{Metrics, OpMetrics, OpReport, RunReport};
pub use ops::{FileRef, FnWorkload, Op, OpKind, ScriptWorkload, Workload};
pub use stack::{
    CrashReport, IoStack, StackCaptureDelta, StackReport, StripedImage, CONGESTION_LIMIT,
    CPU_PER_OP,
};

// Re-export the vocabulary types callers need alongside the stack.
pub use bio_block::{BlockConfig, LaneStats, Topology};
pub use bio_flash::{BarrierMode, DeviceProfile};
pub use bio_fs::{
    ConsistencyCheck, ConsistencyIndex, ConsistencyProbe, FsConfig, FsMode, FsViolation, TagRun,
    ThreadId, TxnRecord,
};
pub use bio_sim::{SimDuration, SimTime};
