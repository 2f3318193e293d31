//! The barrier-IO simulator's one benchmark: six workloads, end-to-end and
//! per-layer metrics, measured from outside through each layer's public
//! API. See `README.md` for the tables and `src/main.rs` for the command
//! line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod reduce;
pub mod run;
pub mod yardstick;
