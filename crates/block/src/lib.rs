//! # bio-block — the order-preserving block device layer
//!
//! The host half of the paper's contribution (§3): a block layer that
//! preserves the partial order imposed by the filesystem all the way to
//! the storage device, without Wait-on-Transfer or Wait-on-Flush.
//!
//! * [`BlockRequest`] carries the new request attributes `REQ_ORDERED` and
//!   `REQ_BARRIER` alongside the classical `REQ_FLUSH`/`REQ_FUA`;
//! * [`EpochScheduler`] is the one queue a lane owns: adjacent writes
//!   merge, writes leave in an ascending-LBA sweep that never passes a
//!   flush or a read, and — Epoch-Based Barrier Reassignment — fenced at a
//!   barrier, it hands the barrier to the epoch's last order-preserving
//!   request to leave;
//! * [`BlockLayer`] implements the epoch sequencer — the queue blocks at a
//!   barrier and unblocks when that last request leaves — and
//!   Order-Preserving Dispatch: barrier writes go out with the SCSI
//!   `ordered` priority, device-busy bounces retry on a timer, and merged
//!   requests fan completions back out to every constituent bio;
//! * [`Topology`] shapes the layer as N hardware queues × M devices
//!   (blk-mq style lanes with RAID-0 LBA striping). One path serves every
//!   shape; the default 1×1 topology — the classical single-queue stack —
//!   is its one-lane case.
//!
//! ```
//! use bio_block::{
//!     ActionSink, BlockConfig, BlockLayer, BlockRequest, ReqFlags, ReqId,
//! };
//! use bio_flash::{BlockTag, Device, DeviceProfile, Lba};
//! use bio_sim::SimTime;
//!
//! let dev = Device::new(DeviceProfile::ufs(), 7);
//! let mut layer = BlockLayer::new(vec![dev], BlockConfig::default());
//! // One reusable sink serves every submit/handle call.
//! let mut out = ActionSink::new();
//! let req = BlockRequest::write(ReqId(1), Lba(0), vec![BlockTag(1)], ReqFlags::BARRIER);
//! layer.submit(req, SimTime::ZERO, &mut out);
//! assert!(!out.is_empty());
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

mod dispatch;
mod epoch;
mod request;
mod topology;

pub use bio_sim::ActionSink;
pub use dispatch::{
    BlockAction, BlockConfig, BlockEvent, BlockLayer, BlockStats, DispatchMode, LaneStats,
    SchedulerKind, BUSY_RETRY_INTERVAL,
};
pub use epoch::{EpochScheduler, MAX_MERGE_BLOCKS};
pub use request::{BlockRequest, MergedRequest, ReqFlags, ReqId, ReqIds, ReqOp};
pub use topology::Topology;
