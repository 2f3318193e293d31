//! # bio-bench — experiment harness
//!
//! Regenerates every table and figure of "Barrier-Enabled IO Stack for
//! Flash Storage" (FAST 2018). The [`experiments`] module holds one runner
//! per table/figure; the `figures` binary prints them
//! (`cargo run -p bio-bench --release --bin figures -- --all`).
//!
//! Absolute numbers come from a simulator, not the authors' testbed; the
//! claims to check are the *shapes* — who wins, by what factor, where the
//! crossovers sit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod crash;
pub mod experiments;
mod grid;

pub use grid::{cells_run, default_jobs, set_default_jobs, ExperimentGrid};

use barrier_io::{IoStack, StackConfig, StackReport, Workload};
use bio_sim::SimDuration;

/// Runs `threads` copies of a workload until done (capped), measuring from
/// after `warmup`. One shared file is pre-created as `FileRef::Global(0)`.
/// Returns the report.
pub fn run_to_completion(
    cfg: StackConfig,
    mut mk: impl FnMut(usize) -> Box<dyn Workload>,
    threads: usize,
    warmup: SimDuration,
    cap: SimDuration,
) -> StackReport {
    let mut stack = IoStack::new(cfg);
    stack.create_global_file();
    for i in 0..threads {
        let w = mk(i);
        stack.add_thread(w);
    }
    stack.run_for(warmup);
    stack.start_measuring();
    stack.run_until_done(cap);
    stack.report()
}

/// Runs a continuous workload for a fixed measured window after warm-up.
pub fn run_windowed(
    cfg: StackConfig,
    mut mk: impl FnMut(usize) -> Box<dyn Workload>,
    threads: usize,
    warmup: SimDuration,
    window: SimDuration,
) -> StackReport {
    let mut stack = IoStack::new(cfg);
    stack.create_global_file();
    for i in 0..threads {
        stack.add_thread(mk(i));
    }
    stack.run_for(warmup);
    stack.start_measuring();
    stack.run_for(window);
    stack.report()
}

/// Like [`run_windowed`] but hands back the stack too (for queue-depth
/// series and crash injection).
pub fn run_windowed_stack(
    cfg: StackConfig,
    mut mk: impl FnMut(usize) -> Box<dyn Workload>,
    threads: usize,
    warmup: SimDuration,
    window: SimDuration,
) -> (IoStack, StackReport) {
    let mut stack = IoStack::new(cfg);
    stack.create_global_file();
    for i in 0..threads {
        stack.add_thread(mk(i));
    }
    stack.run_for(warmup);
    stack.start_measuring();
    stack.run_for(window);
    let report = stack.report();
    (stack, report)
}

/// Pretty-prints a results table with a title.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}
