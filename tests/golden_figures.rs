//! The whole `figures --all` output, byte for byte, and the orderings
//! the figure makers' doc comments state.
//!
//! `golden/figures_all.txt` is the exact stdout of
//! `figures --all --scale 1 --seeds 5 --jobs 1`, compared in process
//! through the function the binary prints from. A PR that means to move a
//! number regenerates it with
//! `cargo run -p bio-bench --release -q --bin figures -- --all --scale 1 --seeds 5 --jobs 1 > tests/golden/figures_all.txt`
//! in a commit of its own, so the diff shows which rows moved. No stack
//! behind the fixture may drop an event: the binary would exit 4.

use bio_bench::experiments::{render, run, Figure, SELECTORS};

const FIXTURE: &str = include_str!("golden/figures_all.txt");
const SCALE: u64 = 1;
const SEEDS: u64 = 5;

/// Walks `pieces` down the fixture from `rest`; a piece that is not what
/// comes next fails under its selector's name. Returns what is left.
fn expect_next<'a>(
    mut rest: &'a str,
    pieces: impl Iterator<Item = (&'static str, String)>,
    run_as: &str,
) -> &'a str {
    for (name, text) in pieces {
        rest = rest.strip_prefix(text.as_str()).unwrap_or_else(|| {
            let want: String = rest.chars().take(text.chars().count()).collect();
            panic!("block `{name}` drifted ({run_as})\n--- got\n{text}\n--- fixture\n{want}")
        });
    }
    rest
}

#[test]
fn figures_all_matches_the_fixture_at_both_widths_and_selector_by_selector() {
    let all = ["all".to_string()];
    for jobs in [1, 8] {
        bio_bench::set_default_jobs(jobs);
        let run_as = format!("--all --jobs {jobs}");
        let rest = expect_next(FIXTURE, render(&all, SCALE, SEEDS), &run_as);
        assert_eq!(rest, "", "the fixture goes on after the last block");
    }
    // Alone, each selector prints exactly its own block: a figure depends
    // neither on the ones before it nor on `--all` order.
    let mut rest = expect_next(FIXTURE, render(&[], SCALE, SEEDS), "banner");
    for (name, _) in SELECTORS {
        let wanted = [name.to_string()];
        rest = expect_next(rest, render(&wanted, SCALE, SEEDS).skip(1), "alone");
    }
    assert_eq!(rest, "");
    let warning = bio_bench::drop_warning().unwrap_or_default();
    assert_eq!(bio_bench::dropped_events(), 0, "{warning}");
}

fn table(selector: &str) -> Figure {
    run(selector, SCALE, SEEDS).expect("a registered selector")
}

/// `col` at each of `keys`, which must come out strictly decreasing.
fn assert_decreasing(table: &Figure, keys: &[&[&str]], col: &str) {
    let values: Vec<f64> = keys
        .iter()
        .map(|key| {
            table
                .value(key, col)
                .unwrap_or_else(|| panic!("no cell {key:?} / {col}"))
        })
        .collect();
    assert!(
        values.windows(2).all(|w| w[0] > w[1]),
        "{keys:?} / {col}: {values:?} is not strictly decreasing"
    );
}

#[test]
fn the_orderings_the_doc_comments_state_hold() {
    // fig08: BFS (tD) > no flush (tD+tC) > quick flush (tD+tC+te) > full
    // flush (tD+tC+tF).
    assert_decreasing(
        &table("fig8"),
        &[
            &["BarrierFS (tD)"],
            &["EXT4 no flush (tD+tC)"],
            &["EXT4 quick flush (tD+tC+te)"],
            &["EXT4 full flush (tD+tC+tF)"],
        ],
        "commits/s",
    );
    // fig11: EXT4-DR > BFS-DR > EXT4-OD > BFS-OD on every device.
    let fig11 = table("fig11");
    for dev in ["UFS", "plain-SSD", "supercap-SSD"] {
        let stacks = ["EXT4-DR", "BFS-DR", "EXT4-OD", "BFS-OD"].map(|stack| [dev, stack]);
        let keys: Vec<&[&str]> = stacks.iter().map(|k| k.as_slice()).collect();
        assert_decreasing(&fig11, &keys, "switches/op");
    }
    // fig01: an ordered write is slower than a buffered one everywhere.
    let fig01 = table("fig1");
    let ratios: Vec<_> = fig01.column("ordered/buffered").collect();
    assert_eq!(ratios.len(), 8, "fig01 has eight devices");
    for (device, percent) in ratios {
        assert!(percent < 100.0, "{device:?}: ordered/buffered {percent}%");
    }
    // engines: in-order writeback < transactional <= LFS in-order recovery.
    let engines = table("figengines");
    let kiops = |engine| engines.value(&[engine], "KIOPS").expect("an engine row");
    assert!(kiops("in-order writeback") < kiops("transactional"));
    assert!(kiops("transactional") <= kiops("LFS in-order recovery"));
}
