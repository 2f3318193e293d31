//! Exhaustive crash-point enumeration with differential recovery checking.
//!
//! The legacy ablation ([`crate::experiments::ablation_crash`]) samples one
//! random wall-clock crash per seed and replays the whole trace from t=0 for
//! every sample. This module explores the crash space exhaustively: each
//! trace runs **once**, the live stack is captured at every barrier-epoch
//! boundary (journal commit), and for every capture point the enumerator
//! walks *all* persisted images the device's barrier mode admits for the
//! in-flight flash programs. Which images those are, per barrier mode, is
//! `bio_flash`'s to say ([`bio_flash::ChoiceSpace`], whose choice 0 is
//! [`bio_flash::Device::crash_image`]); this module asks it.
//!
//! # Module map
//!
//! * `capture` — [`CrashPoint`], the plain-data snapshot of a stack at a
//!   commit (one [`bio_flash::CrashState`] per device); the delta cursor
//!   that advances one point in place from commit to commit; the striped
//!   reader an image of a point is judged through; the trace driver
//!   ([`capture_points`], [`CaptureMode`]).
//! * `choice` — the explorer's budget over a device's choice space: the
//!   exhaustive window and its clamp, one stratified draw past it, and
//!   image dedup.
//! * `enumerate` — [`enumerate_point`] / [`enumerate_trace_with`]: walk
//!   the choice space, judge every distinct image, minimize the first
//!   violating one; one enumerator per trace, its buffers reused.
//! * `differential` — [`differential_cells`], the table of stacks under
//!   comparison (one [`DiffCell`] per row); [`run`], which enqueues it
//!   over many seeds on the grid, one cell per group and seed; `fold_seed`,
//!   which sums each row's counters over a seed's trace and aligns the
//!   group's capture points by commit count, as the cell finishes;
//!   `report`, which sums those folds; and
//!   [`CrashEnumReport::render`], the text `figures --crash-enum` prints.
//!   Nothing in this module prints.
//! * `oracle` — compiled into test builds only: the references the
//!   production path is held to (scratch capture, the unindexed
//!   enumerator, per-image verdicts, forged points) and the unit tests
//!   that hold the check indexes to the full checkers.
//!
//! The items re-exported here are the product API; everything else is
//! private to the module tree.
//!
//! # Capture architecture: one point, advanced in place
//!
//! Capture and checking share three tiers:
//!
//! 1. **Zero-clone capture** — a point is read off the live stack through
//!    borrowed accessors (`&AppendLog` tail, cache snapshot, open group,
//!    txn records); nothing outside the point itself is cloned.
//! 2. **Delta capture, in place** — the capture cursor holds the trace's
//!    one point. The stack journals its per-epoch dirty sets (blocks
//!    folded, records marked durable) and drains them
//!    into buffers the cursor keeps; the point is advanced by that delta —
//!    O(writes-this-epoch), not O(log length) — and its tail re-read into
//!    its own buffers, so a capture allocates nothing in steady state. The
//!    point borrows its records from the filesystem and the rest from the
//!    cursor; a caller that keeps a point takes [`CrashPoint::owned`],
//!    whose slow-moving parts sit behind `Arc`, and copy-on-write
//!    (`Arc::make_mut`) keeps the kept point intact.
//! 3. **Incremental checkers** — every image of a point is the shared
//!    base plus an overlay over the blocks of the unfolded tail, so a
//!    transaction record or transfer the overlay does not touch reads the
//!    same against all of them, and between points its reading changes
//!    only when a fold writes one of its blocks. The cursor therefore also
//!    carries a [`ConsistencyIndex`] and, per device, an [`EpochIndex`]:
//!    each record's and block's verdict under the base, advanced from the
//!    same delta. [`enumerate_point`] judges an image from what its
//!    overlay touches plus the indexes' aggregates; whenever that cannot
//!    certify the image clean, the full [`ConsistencyCheck`] /
//!    [`EpochAudit`] run on it, so every reported violation, `worst` case
//!    and minimisation still comes from them. Checking an image costs
//!    O(writes in flight), not O(trace so far).
//!
//! Subset/group spaces are enumerated exhaustively up to 8 free choices
//! per device and 256 images per capture point; clamping is counted,
//! never silent, and clamped points are additionally covered by
//! **stratified sampling**: seeded strata over subset cardinality draw
//! reorderings from the *full* free list (up to 64 bits), with
//! sampled-vs-exhaustive coverage reported per stack ([`StackRow`]).
//!
//! **Differential recovery**: the same op trace runs against EXT4-DR,
//! BFS-DR and BFS-OD, at the 1q×1dev topology and again at 2q×2dev;
//! capture points align across stacks of the same topology by commit
//! count. Every enumerated image must recover to a clean transaction
//! prefix (no commit-order / torn-transaction / ordered-data /
//! durability-loss violation and no epoch-order violation). A stack that
//! violates where a peer stays clean at the same aligned point is a
//! cross-stack divergence, reported as a minimized
//! `(trace seed, capture point, reordering choice)` triple.
//!
//! [`ConsistencyIndex`]: barrier_io::ConsistencyIndex
//! [`ConsistencyCheck`]: barrier_io::ConsistencyCheck
//! [`EpochIndex`]: bio_flash::EpochIndex
//! [`EpochAudit`]: bio_flash::EpochAudit

mod capture;
mod choice;
mod differential;
mod enumerate;
#[cfg(test)]
mod oracle;

pub use capture::{capture_points, CaptureMode, CrashPoint};
pub(crate) use capture::{trace_stack, TRACE_OPS};
pub use differential::{
    differential_cells, run, CrashEnumReport, DiffCell, DivergenceTriple, StackRow,
};
pub use enumerate::{
    enumerate_point, enumerate_trace_with, CellOutcome, PointOutcome, ViolationCase,
};
