//! # bio-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the barrier-enabled IO stack reproduction. Everything
//! above this crate (flash device, block layer, filesystem, workloads) is a
//! state machine driven by events popped from an [`EventQueue`]; this crate
//! supplies the primitives they share:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond virtual time,
//! * [`EventQueue`] — the deterministic event queue: a binary heap with a
//!   `(time, seq)` FIFO contract. A plain heap because the stack never
//!   holds more than a few hundred pending events (measured: ≤ 386 over
//!   all six benchmark workloads); measured against the calendar queue
//!   it replaced (with the payload pools, PR 18), the stack read
//!   1.05–1.17× `ops_per_ref_s` on four workloads, 1.00–1.04× on the
//!   other two and ~2 MiB less RSS (CHANGES.md has every run). The oracle
//!   it is held to is the linear-scan model in
//!   `tests/event_queue_props.rs`,
//! * [`ActionSink`] — the reusable output buffer the layer state machines
//!   write their actions into (event routing without a `Vec` per event),
//! * [`SimRng`] — seeded xoshiro256++ randomness,
//! * [`SeqTable`] — a dense sliding-window map for bump-allocated integer
//!   keys (request ids, destage sequences) that detects stale keys,
//! * [`PagedMap`] — a direct-indexed map for small keys (LBAs) whose
//!   memory scales with touched key pages, not the largest key,
//! * [`IntMap`] — a hash map for integer keys too scattered for either,
//!   hashed with one multiply,
//! * [`LatencyHistogram`] / [`LatencySummary`] — percentile statistics
//!   (the paper's Table 1 shape),
//! * [`StepWindow`] — a step function's time-weighted mean and peak over
//!   one window in constant memory (the device queue depth of Figs 10
//!   and 12).
//!
//! The simulation is single-threaded on purpose: simulated concurrency
//! (application threads, the JBD commit thread, the flush thread, the device
//! controller) is modelled as interleaved events, so every run is exactly
//! reproducible from its seed.
//!
//! ```
//! use bio_sim::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { DmaDone, FlushDone }
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::from_micros(70), Ev::DmaDone);
//! q.push(SimTime::from_micros(500), Ev::FlushDone);
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, Ev::DmaDone);
//! assert_eq!(t, SimTime::from_micros(70));
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

mod event;
mod rng;
mod sink;
mod stats;
mod table;
mod time;
mod window;

pub use event::EventQueue;
pub use rng::SimRng;
pub use sink::ActionSink;
pub use stats::{LatencyHistogram, LatencySummary};
pub use table::{IntHasher, IntMap, PagedMap, SeqTable, SeqTableIter};
pub use time::{SimDuration, SimTime};
pub use window::StepWindow;
