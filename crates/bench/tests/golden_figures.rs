//! Golden-output equivalence for the multi-queue refactor.
//!
//! The 1×1 topology must be a perfect pass-through: the `figures` binary
//! output is compared byte-for-byte against a fixture captured from the
//! pre-refactor stack (stdout only; the `[grid]` wall-clock summary goes
//! to stderr precisely so this diff stays clean). The new fig17 grid must
//! additionally be independent of the worker-pool width.

use std::process::Command;

fn figures(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs");
    assert!(
        out.status.success(),
        "figures {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn one_by_one_topology_matches_pre_refactor_golden_output() {
    let got = figures(&[
        "--fig", "8", "--fig", "12", "--table", "1", "--scale", "1", "--jobs", "1",
    ]);
    let want = include_str!("golden/figures_1x1.txt");
    assert_eq!(
        got, want,
        "1x1 figures output drifted from the pre-refactor golden fixture"
    );
}

#[test]
fn fig17_is_deterministic_across_worker_pool_widths() {
    let serial = figures(&["--fig", "17", "--scale", "1", "--jobs", "1"]);
    let parallel = figures(&["--fig", "17", "--scale", "1", "--jobs", "8"]);
    assert_eq!(serial, parallel, "fig17 must not depend on --jobs");
    assert!(serial.contains("Fig 17"), "fig17 table missing: {serial:?}");
}

#[test]
fn fig17_matches_golden_output() {
    let got = figures(&["--fig", "17", "--scale", "1", "--jobs", "1"]);
    let want = include_str!("golden/fig17.txt");
    assert_eq!(
        got, want,
        "fig17 (queues × devices) drifted from its fixture"
    );
}
