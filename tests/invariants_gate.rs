//! The part of the invariant gate clippy and Cargo cannot hold themselves
//! (docs/INVARIANTS.md): every manifest's dependency names against the
//! DAG table in that document — closed, so a name the table does not list
//! fails — the `deny` lines that switch the determinism and totality
//! lints on in each simulation crate's `lib.rs`, and every test file a
//! document or a source comment names.

use std::fs;
use std::path::{Path, PathBuf};

const DOC: &str = include_str!("../docs/INVARIANTS.md");

/// The documents whose `tests/<name>.rs` references must name real files,
/// besides the comments under `crates/*/src`.
const DOCS_NAMING_TESTS: [(&str, &str); 3] = [
    ("README.md", include_str!("../README.md")),
    ("docs/INVARIANTS.md", DOC),
    (
        ".claude/skills/verify/SKILL.md",
        include_str!("../.claude/skills/verify/SKILL.md"),
    ),
];

macro_rules! package {
    ($name:literal, $dir:literal, $lints:literal) => {
        (
            $name,
            include_str!(concat!("../", $dir, "/Cargo.toml")),
            include_str!(concat!("../", $dir, "/src/lib.rs")),
            $lints,
        )
    };
}

/// Package, manifest, `lib.rs`, and how many of the two lint lines that
/// `lib.rs` carries: both in the four stack crates, the determinism line
/// alone in the other two simulation crates, neither elsewhere.
const PACKAGES: [(&str, &str, &str, u8); 9] = [
    package!("bio-sim", "crates/sim", 1),
    package!("bio-flash", "crates/flash", 2),
    package!("bio-block", "crates/block", 2),
    package!("bio-fs", "crates/fs", 2),
    package!("barrier-io", "crates/core", 2),
    package!("bio-workloads", "crates/workloads", 1),
    package!("bio-bench", "crates/bench", 0),
    package!("proptest", "crates/compat/proptest", 0),
    package!("barrier-io-stack", ".", 0),
];

const DETERMINISM: &str = "#![cfg_attr(not(test),deny(clippy::iter_over_hash_type,\
    clippy::disallowed_methods,clippy::disallowed_types))]";
const TOTALITY: &str = "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used,\
    clippy::panic,clippy::unreachable,clippy::todo,clippy::unimplemented,\
    clippy::indexing_slicing))]";

/// The names a manifest depends on, from every `*dependencies` section
/// and `[*dependencies.name]` table except `[workspace.dependencies]`.
fn dependency_names(manifest: &str) -> Vec<&str> {
    let is_deps = |s: &str| s.ends_with("dependencies") && !s.starts_with("workspace");
    let mut in_deps = false;
    let mut names = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']');
            in_deps = is_deps(header);
            if let Some((section, name)) = header.rsplit_once('.') {
                names.extend(is_deps(section).then_some(name));
            }
        } else if in_deps && !line.starts_with('#') {
            let key = line.split(['=', '.']).next().unwrap_or("").trim();
            names.extend((!key.is_empty()).then_some(key.trim_matches('"')));
        }
    }
    names
}

/// Every dependency of `krate` its row of the DAG table — "| `crate` |
/// `dep`, `dep` |" — does not list.
fn off_table(krate: &str, manifest: &str) -> Vec<String> {
    let row = DOC.lines().find_map(|line| {
        let mut names = line.strip_prefix("| `")?.split('`').step_by(2);
        (names.next() == Some(krate)).then(|| names.collect::<Vec<_>>())
    });
    let Some(allowed) = row else {
        return vec![format!("{krate}: no row in the DAG table")];
    };
    dependency_names(manifest)
        .into_iter()
        .filter(|dep| !allowed.contains(dep))
        .map(|dep| format!("{krate} -> {dep}"))
        .collect()
}

#[test]
fn manifests_name_only_what_the_dag_table_lists() {
    for (krate, manifest, ..) in PACKAGES {
        assert_eq!(off_table(krate, manifest), [""; 0], "{krate}");
    }
}

#[test]
fn a_forbidden_edge_and_an_unknown_name_are_both_findings() {
    // A workload reaching under the facade, in each spelling a manifest
    // allows; then a name that is no crate of this workspace at all (what
    // keeps `rand` and `getrandom` out); then a package without a row.
    let under = "[dependencies]\nbio-sim = { workspace = true }\nbio-fs.workspace = true\n\
                 [dev-dependencies.bio-flash]\npath = \"../flash\"\n\
                 [target.'cfg(unix)'.build-dependencies]\n\"bio-block\" = \"0.1\"\n";
    assert_eq!(
        off_table("bio-workloads", under),
        [
            "bio-workloads -> bio-fs",
            "bio-workloads -> bio-flash",
            "bio-workloads -> bio-block"
        ]
    );
    let entropy = "[dependencies]\nbio-sim = { workspace = true }\nrand = { path = \"r\" }\n";
    assert_eq!(off_table("bio-flash", entropy), ["bio-flash -> rand"]);
    assert_eq!(
        off_table("bio-new", ""),
        ["bio-new: no row in the DAG table"]
    );
}

#[test]
fn every_simulation_crate_still_denies_its_lints() {
    for (krate, _, lib, lints) in PACKAGES {
        let lib: String = lib.split_whitespace().collect();
        let carried = (lib.contains(DETERMINISM), lib.contains(TOTALITY));
        assert_eq!(carried, (lints >= 1, lints == 2), "{krate}");
    }
}

/// The repository root.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `tests/<name>.rs` path `text` names that is no file: a path with
/// a directory written before it (`crates/bench/tests/x.rs`) is looked up
/// from the repository root, a bare one under `crate_dir` (the crate whose
/// source names it) or the root.
fn dangling_test_refs(text: &str, crate_dir: Option<&Path>) -> Vec<String> {
    let path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let name_char = |c: char| c.is_ascii_alphanumeric() || "_-".contains(c);
    let mut dangling = Vec::new();
    for (at, marker) in text.match_indices("tests/") {
        let rest = &text[at + marker.len()..];
        let name = rest.split(|c| !name_char(c)).next().unwrap_or("");
        if name.is_empty() || !rest[name.len()..].starts_with(".rs") {
            continue;
        }
        let dir = &text[text[..at].trim_end_matches(path_char).len()..at];
        let file = format!("tests/{name}.rs");
        let exists = if dir.is_empty() {
            crate_dir.is_some_and(|c| c.join(&file).is_file()) || root().join(&file).is_file()
        } else {
            root().join(dir).join(&file).is_file()
        };
        if !exists {
            dangling.push(format!("{dir}{file}"));
        }
    }
    dangling
}

/// The `.rs` files under `dir`, in path order, at any depth.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("a directory entry").path())
        .collect();
    entries.sort();
    let mut files = Vec::new();
    for path in entries {
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            files.push(path);
        }
    }
    files
}

#[test]
fn every_test_file_a_document_or_a_comment_names_exists() {
    // (where, text, the naming crate): a document is read whole, a source
    // file of `crates/*/src` only in its comments.
    let mut texts: Vec<(String, String, Option<PathBuf>)> = DOCS_NAMING_TESTS
        .iter()
        .map(|&(doc, text)| (doc.to_owned(), text.to_owned(), None))
        .collect();
    for krate in fs::read_dir(root().join("crates")).expect("crates/") {
        let krate = krate.expect("a directory entry").path();
        if !krate.join("src").is_dir() {
            continue;
        }
        for file in rust_files(&krate.join("src")) {
            let source = fs::read_to_string(&file).expect("a readable source file");
            let name = file.strip_prefix(root()).unwrap_or(&file).display();
            texts.push((name.to_string(), source, Some(krate.clone())));
        }
    }
    assert!(texts.len() > 50, "{} files read", texts.len());
    let mut dangling = Vec::new();
    for (name, text, krate) in &texts {
        for (n, line) in text.lines().enumerate() {
            let line = match krate {
                Some(_) => line.find("//").map_or("", |at| &line[at..]),
                None => line,
            };
            for path in dangling_test_refs(line, krate.as_deref()) {
                dangling.push(format!("{name}:{}: {path}", n + 1));
            }
        }
    }
    dangling.sort();
    assert_eq!(dangling, [""; 0], "test files named but not there");
}

#[test]
fn a_test_file_named_where_it_is_not_is_a_finding() {
    // Bare paths resolve under the naming crate or the root, a written
    // directory only where it says; anything but `tests/<name>.rs` is
    // not a test file reference.
    let bench = root().join("crates/bench");
    let text = "`tests/grid_determinism.rs`, tests/golden_figures.rs, \
                crates/bench/tests/drop_warning.rs, crates/flash/tests/drop_warning.rs, \
                tests/no_such_suite.rs; tests/golden/digests.txt, tests/.rs";
    assert_eq!(
        dangling_test_refs(text, Some(&bench)),
        [
            "crates/flash/tests/drop_warning.rs",
            "tests/no_such_suite.rs"
        ]
    );
    assert_eq!(
        dangling_test_refs(text, None),
        [
            "tests/grid_determinism.rs",
            "crates/flash/tests/drop_warning.rs",
            "tests/no_such_suite.rs"
        ]
    );
}
