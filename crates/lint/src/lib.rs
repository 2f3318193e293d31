//! `bio-lint` — workspace static analysis for the barrier-enabled IO
//! stack.
//!
//! The reproduction's correctness argument rests on three source-level
//! invariants that, before this crate, lived only in tests and reviewer
//! memory: **bit-exact determinism** (golden `figures` diffs,
//! serial/parallel grid identity), **total event handlers** (the PR 3–4
//! panic-path purge: bad completions drop with typed errors, never
//! abort), and the **strict 7-crate layer DAG**. This crate
//! machine-checks all three on every build. There is no allowlist: a
//! finding is fixed, not suppressed.
//!
//! See `docs/INVARIANTS.md` for the invariant catalogue and rationale;
//! run `cargo run -p bio-lint` (or `-- --json`) from anywhere in the
//! workspace.
//!
//! Internals: a dependency-free lexer ([`lexer`]) and item scanner
//! ([`scan`]) — no `syn`, the workspace builds hermetically offline —
//! and three analyzers on top ([`determinism`], [`totality`],
//! [`layering`]).

pub mod determinism;
pub mod files;
pub mod layering;
pub mod lexer;
pub mod report;
pub mod scan;
pub mod totality;
pub mod workspace;

pub use files::{CrateKey, FileKind, SourceFile};
pub use report::{Finding, Report};
pub use workspace::{find_root, run_str, run_workspace};
