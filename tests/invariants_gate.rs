//! The part of the invariant gate clippy and Cargo cannot hold themselves
//! (docs/INVARIANTS.md): every manifest's dependency names against the
//! DAG table in that document — closed, so a name the table does not list
//! fails — and the `deny` lines that switch the determinism and totality
//! lints on in each simulation crate's `lib.rs`.

const DOC: &str = include_str!("../docs/INVARIANTS.md");

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
