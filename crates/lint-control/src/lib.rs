//! Seeded violations: the two lint lines of the simulation crates'
//! `lib.rs`, at `warn` so that one clippy run reports every site.
//! `expected.txt` holds the count each lint must reach.

#![warn(
    clippy::iter_over_hash_type,
    clippy::disallowed_methods,
    clippy::disallowed_types
)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod determinism;
pub mod totality;
