//! The workspace model the analyzers run over: which crate a file
//! belongs to, what kind of target it builds into, and the scanned
//! token/item structure.

use crate::scan::{scan, FileScan};

/// The workspace crates, in DAG order. `Facade` is the root
/// `barrier-io-stack` package (src/tests/examples at the repo root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateKey {
    Sim,
    Flash,
    Block,
    Fs,
    Core,
    Workloads,
    Bench,
    Facade,
    Lint,
}

impl CrateKey {
    /// Short display name used in findings and docs.
    pub fn name(self) -> &'static str {
        match self {
            CrateKey::Sim => "sim",
            CrateKey::Flash => "flash",
            CrateKey::Block => "block",
            CrateKey::Fs => "fs",
            CrateKey::Core => "core",
            CrateKey::Workloads => "workloads",
            CrateKey::Bench => "bench",
            CrateKey::Facade => "facade",
            CrateKey::Lint => "lint",
        }
    }

    /// The `use`-path identifier of the crate's library target.
    pub fn lib_ident(self) -> &'static str {
        match self {
            CrateKey::Sim => "bio_sim",
            CrateKey::Flash => "bio_flash",
            CrateKey::Block => "bio_block",
            CrateKey::Fs => "bio_fs",
            CrateKey::Core => "barrier_io",
            CrateKey::Workloads => "bio_workloads",
            CrateKey::Bench => "bio_bench",
            CrateKey::Facade => "barrier_io_stack",
            CrateKey::Lint => "bio_lint",
        }
    }

    /// The Cargo package name (as it appears in `Cargo.toml` deps).
    pub fn package(self) -> &'static str {
        match self {
            CrateKey::Sim => "bio-sim",
            CrateKey::Flash => "bio-flash",
            CrateKey::Block => "bio-block",
            CrateKey::Fs => "bio-fs",
            CrateKey::Core => "barrier-io",
            CrateKey::Workloads => "bio-workloads",
            CrateKey::Bench => "bio-bench",
            CrateKey::Facade => "barrier-io-stack",
            CrateKey::Lint => "bio-lint",
        }
    }

    /// Resolves a library identifier back to its crate.
    pub fn from_lib_ident(id: &str) -> Option<CrateKey> {
        ALL.iter().copied().find(|k| k.lib_ident() == id)
    }

    /// Resolves a package name back to its crate.
    pub fn from_package(name: &str) -> Option<CrateKey> {
        ALL.iter().copied().find(|k| k.package() == name)
    }

    /// The crates this crate may depend on — the layer DAG, hardcoded on
    /// purpose: the analyzer is the specification, `Cargo.toml` and `use`
    /// declarations are both checked against it. `bio-bench` deliberately
    /// has no `bio-fs` edge (the harness goes through the `barrier-io`
    /// facade), and `bio-workloads` sees only `bio-sim` + the facade.
    pub fn allowed_deps(self) -> &'static [CrateKey] {
        use CrateKey::*;
        match self {
            Sim => &[],
            Flash => &[Sim],
            Block => &[Sim, Flash],
            Fs => &[Sim, Flash, Block],
            Core => &[Sim, Flash, Block, Fs],
            Workloads => &[Sim, Core],
            Bench => &[Sim, Flash, Block, Core, Workloads],
            Facade => &[Sim, Flash, Block, Fs, Core, Workloads, Bench],
            Lint => &[],
        }
    }

    /// Crates whose non-test `src/` must stay bit-reproducible (scope of
    /// the determinism analyzer).
    pub fn deterministic(self) -> bool {
        use CrateKey::*;
        matches!(self, Sim | Flash | Block | Fs | Core | Workloads)
    }

    /// The four stack crates whose event-handler functions must be total
    /// (scope of the totality analyzer).
    pub fn stack(self) -> bool {
        use CrateKey::*;
        matches!(self, Flash | Block | Fs | Core)
    }
}

pub const ALL: [CrateKey; 9] = [
    CrateKey::Sim,
    CrateKey::Flash,
    CrateKey::Block,
    CrateKey::Fs,
    CrateKey::Core,
    CrateKey::Workloads,
    CrateKey::Bench,
    CrateKey::Facade,
    CrateKey::Lint,
];

/// Which compilation target a file belongs to. Determinism and
/// totality apply to `Src` only; layering applies everywhere
/// (test/bench code must not reach around the facade either).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    Src,
    Test,
    Bench,
    Example,
}

/// One scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    pub crate_key: CrateKey,
    pub kind: FileKind,
    /// Repo-relative path, forward slashes.
    pub rel: String,
    pub scan: FileScan,
}

impl SourceFile {
    pub fn new(
        crate_key: CrateKey,
        kind: FileKind,
        rel: impl Into<String>,
        src: &str,
    ) -> SourceFile {
        SourceFile {
            crate_key,
            kind,
            rel: rel.into(),
            scan: scan(src),
        }
    }

    /// `crate::module::fn` attribution for a token index; falls back to
    /// the crate name when the token is outside any function body.
    pub fn symbol_at(&self, idx: usize) -> String {
        match self.scan.fn_at(idx) {
            Some(f) => format!("{}::{}", self.crate_key.name(), f.qual),
            None => self.crate_key.name().to_string(),
        }
    }
}
