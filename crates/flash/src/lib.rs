//! # bio-flash — the barrier-compliant flash storage device simulator
//!
//! This crate is the substrate the paper could not ship: a storage device
//! whose firmware honours the **cache barrier** command (eMMC 5.1 / the
//! paper's custom UFS firmware). It models:
//!
//! * a depth-bounded command queue with SCSI priority classes
//!   (`simple` / `ordered` / `head-of-queue`) — the half of
//!   order-preserving dispatch that lives device-side (§3.4),
//! * a host link that serialises DMA transfers (so transfer order is
//!   well-defined),
//! * a writeback cache whose entries carry **barrier epochs** (§3.2),
//! * a log-structured FTL with greedy garbage collection striped over a
//!   `channels × ways` chip array,
//! * `FLUSH`, `FUA` and `BARRIER` command semantics,
//! * four barrier-enforcement engines ([`BarrierMode`]): none (orderless
//!   baseline), in-order writeback, transactional writeback, and the
//!   paper's LFS-style in-order crash recovery,
//! * power-loss injection: [`ChoiceSpace`] says which images a power loss
//!   can leave a device in, [`Device::crash_image`] is the first of them,
//!   and [`audit_epoch_order`] checks an image against the barrier
//!   contract.
//!
//! ```
//! use bio_flash::{Command, CmdId, Device, DeviceProfile, Lba, BlockTag, WriteFlags};
//! use bio_sim::SimTime;
//!
//! let mut dev = Device::new(DeviceProfile::ufs(), 42);
//! let mut actions = Vec::new();
//! let cmd = Command::write(CmdId(1), Lba(0), vec![BlockTag(7)], WriteFlags::BARRIER);
//! dev.submit(cmd, SimTime::ZERO, &mut actions).unwrap();
//! assert!(!actions.is_empty()); // a DMA completion is now scheduled
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

mod cache;
mod chip;
mod crash;
mod device;
mod ftl;
mod profile;
mod queue;
mod recovery;
mod types;

pub use cache::{CacheEntry, CacheError, EntryState, WritebackCache};
pub use chip::ChipArray;
pub use crash::{ChoiceSpace, CrashState, OpenGroup, Overlay, OverlayImage};
pub use device::{DevAction, DevEvent, Device, DeviceCaptureDelta, DeviceStats};
pub use ftl::{Ftl, FtlStats, GcRun, PhysLoc};
pub use profile::{BarrierMode, BarrierOverhead, DeviceProfile};
pub use queue::CommandQueue;
pub use recovery::{
    audit_epoch_order, AppendLog, AppendRec, BlockMap, EpochAudit, EpochIndex, EpochProbe,
    EpochViolation, ImageView, PersistedImage, TransferRec,
};
pub use types::{BlockTag, CmdId, CmdKind, Command, Completion, Lba, Priority, WriteFlags};
