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

/// Runs `stack` until every workload thread has finished.
///
/// # Panics
///
/// Panics, naming the configuration and the cap, when the threads have not
/// finished within `cap`: a report cut off there would print as if it were
/// a completed cell (a hung request looks exactly like this).
pub(crate) fn run_until_done_or_panic(stack: &mut IoStack, cap: SimDuration) {
    assert!(
        stack.run_until_done(cap),
        "{} did not finish within {cap} of simulated time",
        stack.config().label()
    );
}

/// A stack with one shared file (`FileRef::Global(0)`) and `threads` copies
/// of a workload, warmed up for `warmup` and measuring from there.
fn warmed_stack(
    cfg: StackConfig,
    mut mk: impl FnMut(usize) -> Box<dyn Workload>,
    threads: usize,
    warmup: SimDuration,
) -> IoStack {
    let mut stack = IoStack::new(cfg);
    stack.create_global_file();
    for i in 0..threads {
        stack.add_thread(mk(i));
    }
    stack.run_for(warmup);
    stack.start_measuring();
    stack
}

/// Runs `threads` copies of a workload until done, measuring from after
/// `warmup`. One shared file is pre-created as `FileRef::Global(0)`.
/// Returns the report.
///
/// # Panics
///
/// Panics, naming the configuration, when the threads have not finished
/// within `cap` of simulated time.
pub fn run_to_completion(
    cfg: StackConfig,
    mk: impl FnMut(usize) -> Box<dyn Workload>,
    threads: usize,
    warmup: SimDuration,
    cap: SimDuration,
) -> StackReport {
    let mut stack = warmed_stack(cfg, mk, threads, warmup);
    run_until_done_or_panic(&mut stack, cap);
    stack.report()
}

/// Runs a continuous workload for a fixed measured window after warm-up.
pub fn run_windowed(
    cfg: StackConfig,
    mk: impl FnMut(usize) -> Box<dyn Workload>,
    threads: usize,
    warmup: SimDuration,
    window: SimDuration,
) -> StackReport {
    run_windowed_stack(cfg, mk, threads, warmup, window).1
}

/// Like [`run_windowed`] but hands back the stack too (for queue-depth
/// series and crash injection).
pub fn run_windowed_stack(
    cfg: StackConfig,
    mk: impl FnMut(usize) -> Box<dyn Workload>,
    threads: usize,
    warmup: SimDuration,
    window: SimDuration,
) -> (IoStack, StackReport) {
    let mut stack = warmed_stack(cfg, mk, threads, warmup);
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

#[cfg(test)]
mod tests {
    use super::*;
    use barrier_io::{DeviceProfile, FileRef, Op, ScriptWorkload};

    #[test]
    #[should_panic(expected = "EXT4-DR@plain-SSD did not finish within 10.00ms of simulated time")]
    fn run_to_completion_panics_when_the_cap_cuts_the_run_short() {
        let file = FileRef::Global(0);
        let write = Op::Write {
            file,
            offset: 0,
            blocks: 1,
        };
        run_to_completion(
            StackConfig::ext4_dr(DeviceProfile::plain_ssd()),
            |_| Box::new(ScriptWorkload::forever(vec![write, Op::Fsync { file }])),
            1,
            SimDuration::ZERO,
            SimDuration::from_millis(10),
        );
    }
}
