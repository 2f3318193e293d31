//! [`ExperimentGrid`] — independent experiment cells on a worker pool.
//!
//! Every figure/table of the paper is a grid of independent simulation
//! cells: one `(StackConfig, workload, seed)` combination per cell, no
//! shared state between cells (each builds its own `IoStack`). The grid
//! abstraction makes that explicit: experiments enqueue cells as closures,
//! then run them either serially or on a `std::thread::scope` worker pool
//! (no external dependencies — the build environment is offline).
//!
//! Results come back **in cell-enqueue order regardless of worker
//! scheduling**, and cells never print; callers assemble and print tables
//! only after `run` returns. Serial and parallel runs of the same grid
//! therefore produce byte-identical output — `tests/grid_determinism.rs`
//! locks that in, and the root `tests/golden_figures.rs` holds
//! `figures --all` to one fixture at a serial and a wide pool.
//!
//! Beside the cell count the process keeps one more total: the events the
//! stacks it ran dropped and counted instead of acting on ([`note_drops`],
//! [`dropped_events`]). A clean run drops none, so `figures` turns any
//! into a warning block and a failing exit ([`drop_warning`]).

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use barrier_io::StackReport;

/// Worker count override set by `figures --jobs N` (0 = auto).
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Total cells executed in this process (the CI smoke job reports this).
static CELLS_RUN: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default worker count (0 restores auto).
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::Relaxed);
}

/// The worker count `ExperimentGrid::run` uses: the `set_default_jobs`
/// override if set, otherwise the machine's available parallelism.
pub fn default_jobs() -> usize {
    match DEFAULT_JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Cells executed so far in this process, across all grids.
pub fn cells_run() -> usize {
    CELLS_RUN.load(Ordering::Relaxed)
}

/// Events dropped in this process: the sum of [`note_drops`]' counters.
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// One line per non-zero counter [`note_drops`] was handed: where, which
/// counter, how many.
static DROP_LINES: Mutex<Vec<String>> = Mutex::new(Vec::new());

thread_local! {
    /// Label of the grid cell running on this thread (empty outside one).
    static CURRENT_CELL: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Events every stack [`note_drops`] was handed so far dropped and
/// counted instead of acting on: zero in a clean run.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Adds the drop counters of one finished stack to the process total:
/// `FsStats::dropped_journal_events` and `dropped_data_pages`,
/// `BlockStats::dropped_events`, `RunReport::dropped_wakeups` and
/// `DeviceStats::out_of_range_writes`. `stack` names it (its label, and
/// the trace seed for a crash trace); a non-zero counter is remembered
/// with that name and the grid cell that ran it, for [`drop_warning`].
/// The experiments' cell driver and the crash trace driver call this.
pub fn note_drops(stack: &str, report: &StackReport) {
    let counters = [
        (
            "FsStats::dropped_journal_events",
            report.fs.dropped_journal_events,
        ),
        ("FsStats::dropped_data_pages", report.fs.dropped_data_pages),
        ("BlockStats::dropped_events", report.block.dropped_events),
        ("RunReport::dropped_wakeups", report.run.dropped_wakeups),
        (
            "DeviceStats::out_of_range_writes",
            report.device.out_of_range_writes,
        ),
    ];
    if counters.iter().all(|c| c.1 == 0) {
        return;
    }
    let cell = CURRENT_CELL.with(|c| c.borrow().clone());
    let mut lines = DROP_LINES.lock().expect("drop lines poisoned");
    for (counter, n) in counters.into_iter().filter(|c| c.1 > 0) {
        DROPPED.fetch_add(n, Ordering::Relaxed);
        lines.push(format!("  {counter} = {n} in {stack} (cell `{cell}`)"));
    }
}

/// The warning block `figures` prints on stderr when any stack dropped an
/// event: every non-zero counter with its stack and cell, in the order
/// they were noted. `None` when nothing was dropped.
pub fn drop_warning() -> Option<String> {
    let lines = DROP_LINES.lock().expect("drop lines poisoned");
    if lines.is_empty() {
        return None;
    }
    let mut out = format!(
        "warning: {} events dropped and counted instead of acted on (a clean run drops none):\n",
        dropped_events()
    );
    for line in lines.iter() {
        out.push_str(line);
        out.push('\n');
    }
    Some(out)
}

struct Cell<R> {
    label: String,
    run: Box<dyn FnOnce() -> R + Send>,
}

impl<R> Cell<R> {
    /// Runs the cell. A panic comes back as the message to raise in the
    /// caller: the cell's label, then the original message.
    fn run(self) -> Result<R, String> {
        CURRENT_CELL.with(|c| c.borrow_mut().clone_from(&self.label));
        // The cell owns everything it touches and is consumed here, so no
        // broken state outlives the unwind.
        let result = catch_unwind(AssertUnwindSafe(self.run));
        CURRENT_CELL.with(|c| c.borrow_mut().clear());
        result.map_err(|payload| {
            let msg = match (
                payload.downcast_ref::<&str>(),
                payload.downcast_ref::<String>(),
            ) {
                (Some(s), _) => s,
                (_, Some(s)) => s.as_str(),
                _ => "(non-string panic payload)",
            };
            format!("grid cell `{}` panicked: {msg}", self.label)
        })
    }
}

/// An ordered collection of independent experiment cells producing `R`.
pub struct ExperimentGrid<R> {
    cells: Vec<Cell<R>>,
}

impl<R> Default for ExperimentGrid<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R> ExperimentGrid<R> {
    /// An empty grid.
    pub fn new() -> Self {
        ExperimentGrid { cells: Vec::new() }
    }

    /// Number of enqueued cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells are enqueued.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Enqueues one cell. The closure must be self-contained (build its
    /// own stack, return plain data, print nothing).
    pub fn push(&mut self, label: impl Into<String>, run: impl FnOnce() -> R + Send + 'static) {
        self.cells.push(Cell {
            label: label.into(),
            run: Box::new(run),
        });
    }
}

impl<R: Send> ExperimentGrid<R> {
    /// Runs every cell with the process-default worker count and returns
    /// the results in enqueue order.
    pub fn run(self) -> Vec<R> {
        let jobs = default_jobs();
        self.run_with(jobs)
    }

    /// Runs every cell on `jobs` workers (`<= 1` runs serially on the
    /// calling thread). Results are in enqueue order either way.
    ///
    /// # Panics
    ///
    /// When a cell panics: with the label of the first such cell in
    /// enqueue order in front of its message. No further cell is started.
    pub fn run_with(self, jobs: usize) -> Vec<R> {
        let n = self.cells.len();
        CELLS_RUN.fetch_add(n, Ordering::Relaxed);
        let raise = |msg: String| -> R { panic!("{msg}") };
        if jobs <= 1 || n <= 1 {
            return self
                .cells
                .into_iter()
                .map(|c| c.run().unwrap_or_else(raise))
                .collect();
        }
        // Work-stealing by atomic index: workers claim the next unstarted
        // cell, so long cells don't serialise behind short ones. Each
        // result lands in its cell's slot — order is by index, never by
        // completion time.
        let work: Vec<Mutex<Option<Cell<R>>>> = self
            .cells
            .into_iter()
            .map(|c| Mutex::new(Some(c)))
            .collect();
        let results: Vec<Mutex<Option<Result<R, String>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..jobs.min(n) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let cell = work[i]
                        .lock()
                        .expect("work slot poisoned")
                        .take()
                        .expect("cell claimed twice");
                    let r = cell.run();
                    if r.is_err() {
                        // Cells are claimed in index order, so everything
                        // in front of this one still finishes.
                        next.store(n, Ordering::Relaxed);
                    }
                    *results[i].lock().expect("result slot poisoned") = Some(r);
                });
            }
        });
        // In index order the first failed cell comes before any slot left
        // empty by the stop above.
        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker pool ran every claimed cell")
                    .unwrap_or_else(raise)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_enqueue_order() {
        let mut g: ExperimentGrid<usize> = ExperimentGrid::new();
        for i in 0..32 {
            // Uneven cell costs: later cells finish first under
            // parallelism unless ordering is enforced.
            g.push(format!("cell{i}"), move || {
                std::thread::sleep(std::time::Duration::from_micros(((32 - i) * 200) as u64));
                i
            });
        }
        assert_eq!(g.len(), 32);
        assert_eq!(g.run_with(8), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let build = || {
            let mut g: ExperimentGrid<u64> = ExperimentGrid::new();
            for i in 0..10u64 {
                g.push(format!("c{i}"), move || i * i);
            }
            g
        };
        assert_eq!(build().run_with(1), build().run_with(4));
    }

    #[test]
    fn a_panicking_cell_is_named_on_both_paths() {
        for jobs in [1, 4] {
            let mut g: ExperimentGrid<u64> = ExperimentGrid::new();
            for i in 0..16u64 {
                g.push(format!("fig0/cell{i}"), move || {
                    assert!(i != 5 && i != 11, "FTL out of space at step {i}");
                    i
                });
            }
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| g.run_with(jobs)))
                .expect_err("the grid swallowed the panic");
            let msg = payload
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert_eq!(
                msg, "grid cell `fig0/cell5` panicked: FTL out of space at step 5",
                "jobs {jobs}"
            );
        }
    }
}
