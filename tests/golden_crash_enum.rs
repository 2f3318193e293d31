//! The whole `figures --crash-enum` output, byte for byte, and what the
//! docs say of its cells.
//!
//! `golden/crash_enum.txt` is the exact stdout of
//! `figures --crash-enum --seeds 12 --jobs 1`, compared in process through
//! the functions the binary prints from. A PR that means to move a number
//! — or adds a row to `bio_bench::crash::differential_cells` —
//! regenerates it with
//! `cargo run -p bio-bench --release -q --bin figures -- --crash-enum --seeds 12 --jobs 1 > tests/golden/crash_enum.txt`
//! in a commit of its own, so the diff shows which cells moved. No trace
//! behind the fixture may drop an event: the binary would exit 4.

use bio_bench::crash::run;
use bio_bench::experiments::render;

const FIXTURE: &str = include_str!("golden/crash_enum.txt");
const SEEDS: u64 = 12;

#[test]
fn crash_enum_matches_the_fixture_at_both_widths() {
    for jobs in [1, 8] {
        bio_bench::set_default_jobs(jobs);
        // What the binary prints with no selector: the banner, the report.
        let banner: String = render(&[], 1, SEEDS).map(|(_, text)| text).collect();
        let got = banner + &run(SEEDS).render();
        for (n, (got, want)) in got.lines().zip(FIXTURE.lines()).enumerate() {
            assert_eq!(got, want, "line {} drifted (--jobs {jobs})", n + 1);
        }
        assert_eq!(got, FIXTURE, "the output and the fixture end differently");
    }
    let warning = bio_bench::drop_warning().unwrap_or_default();
    assert_eq!(bio_bench::dropped_events(), 0, "{warning}");
}

#[test]
fn bfs_dr_explores_one_image_per_capture_point_and_its_peers_more() {
    // BFS-DR's flush drains every in-flight write at each commit, so a
    // capture finds nothing to reorder (README, "Crash-point
    // enumeration"; ROADMAP item 5 counts these cells as unexplored).
    let report = run(SEEDS);
    let cell = |stack: &str, column| {
        let value = report.value(stack, column);
        value.unwrap_or_else(|| panic!("no cell {stack} / {column}"))
    };
    for topology in ["", "/2x2"] {
        let stack = |name: &str| format!("{name}{topology}");
        let points = cell(&stack("BFS-DR"), "capture points");
        assert_eq!(points, SEEDS * 100, "100 commits per trace");
        assert_eq!(cell(&stack("BFS-DR"), "crash points"), points);
        for peer in ["EXT4-DR", "BFS-OD"] {
            assert_eq!(cell(&stack(peer), "capture points"), points);
            let images = cell(&stack(peer), "crash points");
            assert!(images > points, "{peer}{topology}: {images} images");
        }
    }
}
