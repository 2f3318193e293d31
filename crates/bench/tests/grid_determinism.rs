//! Determinism regression tests for the parallel experiment grid: running
//! the same `(StackConfig, seed)` cells serially or on the worker pool
//! must produce identical `StackReport`s, and repeated serial runs must be
//! bit-identical. The simulator's reproducibility story depends on it.

use barrier_io::{SimDuration, StackConfig};
use bio_bench::experiments::cells::{randwrite, run_cell, ufs_and_ssd, Span, ENDLESS};
use bio_bench::ExperimentGrid;
use bio_workloads::{SyncMode, WriteMode};

/// One grid over the experiment matrix: device x mode x seed. Each cell
/// runs a real stack and returns the full report, formatted (StackReport
/// holds floats and has no Eq; its Debug form captures every field).
fn report_grid() -> ExperimentGrid<String> {
    let span = Span::Window(SimDuration::from_millis(20));
    let mut grid = ExperimentGrid::new();
    for (di, dev) in ufs_and_ssd().into_iter().enumerate() {
        for seed in [7u64, 21] {
            for (label, cfg) in [
                ("ext4", StackConfig::ext4_dr(dev.clone())),
                ("bfs", StackConfig::bfs(dev.clone())),
            ] {
                let cfg = cfg.with_seed(seed);
                grid.push(format!("{label}/dev{di}/seed{seed}"), move || {
                    let mode = WriteMode::SyncEach(SyncMode::Fdatasync);
                    let writers = randwrite(cfg, 2, 256, mode, ENDLESS);
                    format!("{:?}", run_cell(writers, span).1)
                });
            }
        }
    }
    grid
}

#[test]
fn parallel_grid_matches_serial() {
    let serial = report_grid().run_with(1);
    let parallel = report_grid().run_with(4);
    assert_eq!(serial.len(), 8);
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "cell {i}: parallel run diverged from serial");
    }
}

#[test]
fn serial_reruns_are_bit_identical() {
    let a = report_grid().run_with(1);
    let b = report_grid().run_with(1);
    assert_eq!(a, b, "two serial runs of the same grid diverged");
}
