//! Workspace walker and orchestration: finds every Rust source file in
//! the workspace, scans it and runs the three analyzers.

use std::fs;
use std::path::{Path, PathBuf};

use crate::files::{CrateKey, FileKind, SourceFile};
use crate::report::{Finding, Report};
use crate::{determinism, layering, totality};

/// The member crates and their directories. `crates/compat/*` (the
/// vendored proptest stand-in) and `crates/lint` itself are scanned for
/// layering only via their manifests; their sources model a foreign API
/// and tooling, not the simulation, so the simulation invariants do not
/// apply there.
const MEMBERS: [(&str, CrateKey); 8] = [
    ("crates/sim", CrateKey::Sim),
    ("crates/flash", CrateKey::Flash),
    ("crates/block", CrateKey::Block),
    ("crates/fs", CrateKey::Fs),
    ("crates/core", CrateKey::Core),
    ("crates/workloads", CrateKey::Workloads),
    ("crates/bench", CrateKey::Bench),
    ("", CrateKey::Facade),
];

/// Walks up from `start` to the workspace root (the directory holding
/// a `[workspace]` manifest).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) {
            if manifest.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Runs everything: scan and analyze.
pub fn run_workspace(root: &Path) -> Result<Report, String> {
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;

    for (dir, key) in MEMBERS {
        let base = if dir.is_empty() {
            root.to_path_buf()
        } else {
            root.join(dir)
        };
        let mut crate_files: Vec<SourceFile> = Vec::new();
        for (sub, kind) in [
            ("src", FileKind::Src),
            ("tests", FileKind::Test),
            ("benches", FileKind::Bench),
            ("examples", FileKind::Example),
        ] {
            for path in rust_files(&base.join(sub)) {
                let text = fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                let rel = rel_path(root, &path);
                crate_files.push(SourceFile::new(key, kind, rel, &text));
                files_scanned += 1;
            }
        }
        for f in &crate_files {
            findings.extend(determinism::run(f));
            findings.extend(totality::run(f));
            findings.extend(layering::run(f));
        }

        let manifest = base.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            findings.extend(layering::run_manifest(
                key,
                &rel_path(root, &manifest),
                &text,
            ));
        }
    }
    // The lint crate's own manifest obeys the DAG too (no deps at all).
    if let Ok(text) = fs::read_to_string(root.join("crates/lint/Cargo.toml")) {
        findings.extend(layering::run_manifest(
            CrateKey::Lint,
            "crates/lint/Cargo.toml",
            &text,
        ));
    }

    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.analyzer).cmp(&(b.path.as_str(), b.line, b.analyzer))
    });
    Ok(Report {
        findings,
        files_scanned,
    })
}

/// Runs all three analyzers over one in-memory file (fixture harness).
pub fn run_str(key: CrateKey, kind: FileKind, rel: &str, src: &str) -> Vec<Finding> {
    let f = SourceFile::new(key, kind, rel, src);
    let mut out = determinism::run(&f);
    out.extend(totality::run(&f));
    out.extend(layering::run(&f));
    out.sort_by(|a, b| (a.line, a.analyzer).cmp(&(b.line, b.analyzer)));
    out
}

/// All `.rs` files under `dir`, recursively, in sorted order (findings
/// must render identically on every run and platform).
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
