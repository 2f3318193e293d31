//! The whole `figures --all` output, byte for byte.
//!
//! `tests/golden/figures_all.txt` (repo root) is the exact stdout of
//! `figures --all --scale 1 --seeds 5 --jobs 1` (the `[grid]` wall-clock
//! summary goes to stderr precisely so this diff stays clean). Every one
//! of the 14 blocks is pinned, at a serial and at a wide worker pool.

use std::process::Command;

#[test]
fn figures_all_matches_the_fixture_at_both_pool_widths() {
    let want = include_str!("../../../tests/golden/figures_all.txt");
    for jobs in ["1", "8"] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["--all", "--scale", "1", "--seeds", "5", "--jobs", jobs])
            .output()
            .expect("figures binary runs");
        assert!(
            out.status.success(),
            "figures --all failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = String::from_utf8(out.stdout).expect("utf-8 output");
        assert_eq!(got, want, "figures --all drifted at --jobs {jobs}");
    }
}
