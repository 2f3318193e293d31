//! Fixture suite: seeded violations for all four analyzers plus lexer
//! edge cases, and a self-check that the live workspace is clean.
//!
//! The fixture `.rs` files under `tests/fixtures/` are data, not code —
//! they are pulled in with `include_str!` and scanned through
//! [`bio_lint::run_str`] exactly as the workspace walker would scan them.

use std::path::Path;

use bio_lint::{run_str, run_workspace, CrateKey, FileKind, Finding};

fn snippets<'a>(findings: &'a [Finding], analyzer: &str) -> Vec<&'a str> {
    findings
        .iter()
        .filter(|f| f.analyzer == analyzer)
        .map(|f| f.snippet.as_str())
        .collect()
}

#[test]
fn determinism_fixture_findings() {
    let src = include_str!("fixtures/determinism_bad.rs");
    let f = run_str(
        CrateKey::Fs,
        FileKind::Src,
        "crates/fs/src/determinism_bad.rs",
        src,
    );
    assert!(f.iter().all(|x| x.analyzer == "determinism"), "{f:?}");
    let s = snippets(&f, "determinism");
    assert_eq!(
        s,
        [
            "pages.iter()",
            "for … in &hot",
            "m.values()",
            "scratch.drain()",
            "Instant::now()",
            "std::thread",
            "thread_rng",
            "hash_map::Iter",
            "env::vars",
            "env::vars_os",
            "env::var_os",
            "env::var",
        ],
        "{f:#?}"
    );
    // Attribution: the field iteration resolves to its method.
    let first = f.iter().find(|x| x.snippet == "pages.iter()").unwrap();
    assert_eq!(first.symbol, "fs::Cache::checksum");
    assert!(first.path.ends_with("determinism_bad.rs"));
    assert!(first.line > 0);
}

#[test]
fn determinism_fixture_is_quiet_outside_scope() {
    // The same violations in test-kind files or non-deterministic crates
    // produce nothing (bench owns the only sanctioned host parallelism).
    let src = include_str!("fixtures/determinism_bad.rs");
    let as_test = run_str(
        CrateKey::Fs,
        FileKind::Test,
        "crates/fs/tests/determinism_bad.rs",
        src,
    );
    assert!(
        as_test.iter().all(|f| f.analyzer != "determinism"),
        "{as_test:?}"
    );
    let in_bench = run_str(
        CrateKey::Bench,
        FileKind::Src,
        "crates/bench/src/determinism_bad.rs",
        src,
    );
    assert!(
        in_bench.iter().all(|f| f.analyzer != "determinism"),
        "{in_bench:?}"
    );
}

#[test]
fn totality_fixture_findings() {
    let src = include_str!("fixtures/totality_bad.rs");
    let f = run_str(
        CrateKey::Block,
        FileKind::Src,
        "crates/block/src/totality_bad.rs",
        src,
    );
    let s = snippets(&f, "totality");
    assert_eq!(
        s,
        [
            ".unwrap(…)",
            ".expect(…)",
            "panic!(…)",
            "slots[…]",
            "unreachable!(…)",
            "slots[…]",
        ],
        "{f:#?}"
    );
    // Five in the completion handler, one in the submit path; the
    // non-handler `rebuild` and the total `on_retry` stay silent.
    let handler = f
        .iter()
        .filter(|x| x.symbol == "block::Lane::handle_completion")
        .count();
    let submit = f
        .iter()
        .filter(|x| x.symbol == "block::Lane::submit")
        .count();
    assert_eq!((handler, submit), (5, 1), "{f:#?}");
}

#[test]
fn layering_fixture_findings() {
    let src = include_str!("fixtures/layering_bad.rs");
    let f = run_str(
        CrateKey::Workloads,
        FileKind::Src,
        "crates/workloads/src/layering_bad.rs",
        src,
    );
    let s = snippets(&f, "layering");
    assert_eq!(s, ["bio_fs::…", "bio_flash::…", "bio_block::…"], "{f:#?}");
    assert!(f
        .iter()
        .filter(|x| x.analyzer == "layering")
        .all(|x| x.message.contains("allowed: sim, core")));
}

#[test]
fn lexer_edge_cases_produce_no_findings() {
    // Every trigger in this fixture is buried in strings, raw strings,
    // nested comments, chars, or raw identifiers — a lexer that leaks any
    // of them into the token stream fails this test.
    let src = include_str!("fixtures/lexer_edge.rs");
    let f = run_str(
        CrateKey::Fs,
        FileKind::Src,
        "crates/fs/src/lexer_edge.rs",
        src,
    );
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn live_workspace_is_clean() {
    // The standing CI gate, as a test: the real workspace must have no
    // findings.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let report = run_workspace(&root).expect("lint run");
    assert!(
        report.findings.is_empty(),
        "findings in the live workspace:\n{}",
        report.render_table()
    );
    assert!(
        report.files_scanned > 50,
        "walker found only {} files",
        report.files_scanned
    );
}
