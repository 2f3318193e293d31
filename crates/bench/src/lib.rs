//! # bio-bench — experiment harness
//!
//! Regenerates every table and figure of "Barrier-Enabled IO Stack for
//! Flash Storage" (FAST 2018). The [`experiments`] module lists each
//! table/figure as rows of cells and runs them through one driver, and
//! [`crash`] lists the crash differential's stacks the same way; the
//! `figures` binary prints what they render — nothing else here prints
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

pub use grid::{
    cells_run, default_jobs, drop_warning, dropped_events, note_drops, set_default_jobs,
    ExperimentGrid,
};

/// A results table as text: a blank line, the title line, the header and
/// one line per row, every column right-aligned to its widest cell.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = format!("\n== {title} ==\n{}", table_line(header, &widths));
    for row in rows {
        out.push_str(&table_line(row, &widths));
    }
    out
}

fn table_line<S: AsRef<str>>(cells: &[S], widths: &[usize]) -> String {
    let padded = |(i, c): (usize, &S)| {
        format!(
            "{:>w$}",
            c.as_ref(),
            w = widths.get(i).copied().unwrap_or(8)
        )
    };
    let cells: Vec<String> = cells.iter().enumerate().map(padded).collect();
    cells.join("  ") + "\n"
}
