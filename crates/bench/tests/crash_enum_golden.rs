//! The crash-enum stdout, byte for byte: `tests/golden/crash_enum.txt` is
//! the exact stdout of `figures --crash-enum --seeds 12 --jobs 1`.

use std::process::Command;

const FIXTURE: &str = include_str!("../../../tests/golden/crash_enum.txt");

#[test]
fn crash_enum_stdout_matches_the_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--crash-enum", "--seeds", "12", "--jobs", "1"])
        .output()
        .expect("the figures binary runs");
    assert!(out.status.success(), "exit {:?}", out.status.code());
    assert_eq!(String::from_utf8_lossy(&out.stdout), FIXTURE);
}
