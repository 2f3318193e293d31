//! Crash-point allocation census: heap allocation calls (allocations plus
//! reallocations) per capture point of one differential trace, counted
//! exactly and independent of the machine.
//!
//! The count covers all of `enumerate_trace_with`: building the stack,
//! stepping it, capturing each point and enumerating its images. Capture
//! and enumeration reuse their buffers across the points of a trace: the
//! capture cursor advances the trace's one point in place (its records are
//! the filesystem's own, borrowed), and one enumerator keeps its choice
//! spaces, overlays, probes and seen-image set. So what is
//! left is the stack's own per-trace set-up and per-commit allocations
//! (`alloc_census` counts those per event), the first points' buffer
//! growth, and the outcome list. Before that reuse the six rows read 52.6 /
//! 38.9 / 47.2 / 68.1 / 46.0 / 37.9, 48.5 per point over the six; split
//! over the benchmark's 3,600 points (six traces per row), 48.3 = stepping
//! 10.2 + capture 23.4 + enumeration 14.7. After it: 13.0 = 10.2 + 2.6 +
//! 0.2.
//!
//! Each ceiling is the count measured when the epoch index counted its
//! extremes per epoch instead of holding them in two `BTreeSet`s (8.10 /
//! 9.07 / 10.63 / 11.50 / 11.40 / 11.61, 10.39 over all; 8.6 / 9.8 / 11.3
//! / 11.9 / 11.9 / 11.9, 10.9 over all, before), rounded up to a tenth.
//! Lower a ceiling when a change earns it; never raise one without saying
//! why. Run with `--nocapture` to print the census lines.

#[path = "../../core/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use bio_bench::crash::{differential_cells, enumerate_trace_with, CaptureMode};

/// The trace seed every row runs.
const SEED: u64 = 42;

/// Allocation calls per capture point each row may make, in
/// `differential_cells()` order.
const CEILINGS: [(&str, f64); 6] = [
    ("EXT4-DR", 8.1),
    ("BFS-DR", 9.1),
    ("BFS-OD", 10.7),
    ("EXT4-DR/2x2", 11.5),
    ("BFS-DR/2x2", 11.4),
    ("BFS-OD/2x2", 11.7),
];

/// The most allocation calls per capture point over all six rows together.
const TOTAL_CEILING: f64 = 10.4;

#[test]
fn crash_point_allocations_stay_at_or_below_their_ceilings() {
    let cells = differential_cells();
    assert_eq!(cells.len(), CEILINGS.len(), "one ceiling per row");
    let (mut calls, mut points) = (0, 0);
    for (cell, (label, ceiling)) in cells.into_iter().zip(CEILINGS) {
        assert_eq!(cell.label, label, "ceilings follow the table's order");
        let (outcome, counts) = counting_alloc::counted(|| {
            enumerate_trace_with(cell.cfg, cell.sync, SEED, CaptureMode::Delta)
        });
        let (allocs, reallocs, live) = (counts.allocs, counts.reallocs, counts.net_bytes);
        let n = outcome.points.len() as u64;
        assert!(n > 0, "{label}: no capture points");
        let per_point = (allocs + reallocs) as f64 / n as f64;
        println!(
            "crash alloc census: {label}: {per_point:.1} allocation calls per capture point \
             ({allocs} allocs + {reallocs} reallocs over {n} points; {live} bytes left live)"
        );
        assert!(
            per_point <= ceiling,
            "{label}: {per_point:.1} allocation calls per capture point, above {ceiling}"
        );
        calls += allocs + reallocs;
        points += n;
    }
    let per_point = calls as f64 / points as f64;
    println!("crash alloc census: all rows: {per_point:.1} allocation calls per capture point");
    assert!(
        per_point <= TOTAL_CEILING,
        "{per_point:.1} allocation calls per capture point, above {TOTAL_CEILING}"
    );
}
