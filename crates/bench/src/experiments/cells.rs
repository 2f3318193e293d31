//! What a cell is made of, named once: the stack presets, the device
//! sets, each workload model's files and threads, and the one function
//! that runs a stack over a span. The figures, `grid_determinism` and the
//! event digests (`tests/golden_digests.rs`) build their cells from here.

use barrier_io::{DeviceProfile, FileRef, IoStack, StackConfig, StackReport, Workload};
use bio_sim::SimDuration;
use bio_workloads::{OltpInsert, RandWrite, Sqlite, SyncMode, WriteMode};

/// A `StackConfig` constructor, as the figures list stacks.
pub type Preset = fn(DeviceProfile) -> StackConfig;

/// BarrierFS with ordering-only syncs (BFS-OD).
pub fn bfs_od(dev: DeviceProfile) -> StackConfig {
    StackConfig::bfs(dev).ordering_only()
}

/// The five stacks in the server figures' row order, each with the sync
/// call its workload makes: EXT4-DR, BFS-DR, OptFS, EXT4-OD, BFS-OD.
pub const PRESETS: [(Preset, SyncMode); 5] = [
    (StackConfig::ext4_dr, SyncMode::Fsync),
    (StackConfig::bfs, SyncMode::Fsync),
    (StackConfig::optfs, SyncMode::Fbarrier),
    (StackConfig::ext4_od, SyncMode::Fsync),
    (bfs_od, SyncMode::Fbarrier),
];

/// Mobile, server and supercap storage (Fig 9, Fig 11, Table 1).
pub fn three_devices() -> [DeviceProfile; 3] {
    [
        DeviceProfile::ufs(),
        DeviceProfile::plain_ssd(),
        DeviceProfile::supercap_ssd(),
    ]
}

/// The two server devices (Figs 13, 15, 16).
pub fn server_devices() -> [DeviceProfile; 2] {
    [DeviceProfile::plain_ssd(), DeviceProfile::supercap_ssd()]
}

/// One mobile and one server device (the event digests and the grid
/// determinism suite).
pub fn ufs_and_ssd() -> [DeviceProfile; 2] {
    [DeviceProfile::ufs(), DeviceProfile::plain_ssd()]
}

/// Op budget of a workload that is cut off by its window, not its count.
pub const ENDLESS: u64 = u64::MAX / 2;

/// A stack of `cfg` with `FileRef::Global(0..files)` and `threads` workloads.
fn stack_with(
    cfg: StackConfig,
    files: usize,
    threads: usize,
    make: impl Fn() -> Box<dyn Workload>,
) -> IoStack {
    let mut stack = IoStack::new(cfg);
    for _ in 0..files {
        stack.create_global_file();
    }
    for _ in 0..threads {
        stack.add_thread(make());
    }
    stack
}

/// `threads` copies of a workload that opens its own files. `Global(0)`
/// exists all the same, as in every such cell since the seed: creating it
/// moves the inode numbers the threads get, and the printed numbers.
pub fn threads_of(
    cfg: StackConfig,
    threads: usize,
    make: impl Fn() -> Box<dyn Workload>,
) -> IoStack {
    stack_with(cfg, 1, threads, make)
}

/// `threads` random 4 KiB writers over `region` blocks of one shared file.
pub fn randwrite(
    cfg: StackConfig,
    threads: usize,
    region: u64,
    mode: WriteMode,
    count: u64,
) -> IoStack {
    let file = FileRef::Global(0);
    stack_with(cfg, 1, threads, || {
        Box::new(RandWrite::new(file, region, mode, count))
    })
}

/// SQLite: one thread on two shared files, the database and its journal.
pub fn sqlite(cfg: StackConfig, make: impl Fn(FileRef, FileRef) -> Sqlite) -> IoStack {
    stack_with(cfg, 2, 1, || {
        Box::new(make(FileRef::Global(0), FileRef::Global(1)))
    })
}

/// OLTP-insert: `threads` clients on a shared table, redo log and binlog.
pub fn oltp(cfg: StackConfig, threads: usize, sync: SyncMode, txns: u64) -> IoStack {
    let [table, redo, binlog] = [0, 1, 2].map(FileRef::Global);
    stack_with(cfg, 3, threads, || {
        Box::new(OltpInsert::new(sync, table, redo, binlog, txns))
    })
}

/// How long a cell runs once its threads exist.
#[derive(Clone, Copy)]
pub enum Span {
    /// [`WARMUP`], then this long a measured window of an endless workload.
    Window(SimDuration),
    /// Measure from the start until every thread has finished.
    UntilDone,
}

/// What a windowed cell runs before measuring starts.
pub const WARMUP: SimDuration = SimDuration::from_millis(50);

/// The figures' measured window.
pub fn figure_window(scale: u64) -> SimDuration {
    SimDuration::from_millis(200 * scale)
}

/// Simulated time an until-done cell may take.
const DONE_CAP: SimDuration = SimDuration::from_secs(3600);

/// Runs one cell: `stack`, its files and threads in place, measured over
/// `span`. Hands the stack back (its filesystem and devices)
/// with its report, whose drop counters go to [`crate::note_drops`].
///
/// # Panics
///
/// On [`Span::UntilDone`], naming the configuration, when the threads have
/// not finished within an hour of simulated time: a report cut off there
/// would print like a completed cell (a hung request looks exactly so).
pub fn run_cell(mut stack: IoStack, span: Span) -> (IoStack, StackReport) {
    match span {
        Span::Window(window) => {
            stack.run_for(WARMUP);
            stack.start_measuring();
            stack.run_for(window);
        }
        Span::UntilDone => {
            stack.start_measuring();
            assert!(
                stack.run_until_done(DONE_CAP),
                "{} did not finish within {DONE_CAP} of simulated time",
                stack.config().label()
            );
        }
    }
    let report = stack.report();
    crate::note_drops(&stack.config().label(), &report);
    (stack, report)
}

/// Runs a windowed cell as `slices` equal slices of `window` after the
/// [`WARMUP`], each measured on its own: the slices' reports in time
/// order, a down-sampled trace of the window (Fig 10's queue depth). The
/// last report's drop counters, which count the whole run, go to
/// [`crate::note_drops`].
pub fn run_sliced(mut stack: IoStack, window: SimDuration, slices: u64) -> Vec<StackReport> {
    stack.run_for(WARMUP);
    let slice = SimDuration::from_nanos((window.as_nanos() / slices).max(1));
    let reports: Vec<StackReport> = (0..slices)
        .map(|_| {
            stack.start_measuring();
            stack.run_for(slice);
            stack.report()
        })
        .collect();
    if let Some(last) = reports.last() {
        crate::note_drops(&stack.config().label(), last);
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use barrier_io::{Op, ScriptWorkload};

    #[test]
    #[should_panic(
        expected = "EXT4-DR@plain-SSD did not finish within 3600.000s of simulated time"
    )]
    fn a_cell_cut_short_by_its_cap_panics_with_its_label() {
        // One think longer than the cap: the run is cut at the first event.
        let dur = SimDuration::from_secs(7200);
        let cfg = StackConfig::ext4_dr(DeviceProfile::plain_ssd());
        let sleeper = threads_of(cfg, 1, || {
            Box::new(ScriptWorkload::forever(vec![Op::Think { dur }]))
        });
        run_cell(sleeper, Span::UntilDone);
    }

    #[test]
    fn an_overfilled_device_fails_its_cell_instead_of_printing_a_row() {
        // Two segments of flash under 256-block writes and their journal:
        // the FTL runs out of space, and the grid names the cell rather
        // than return a report with the missing programs left out.
        let mut dev = DeviceProfile::plain_ssd();
        dev.segments = 2;
        let cfg = StackConfig::ext4_dr(dev);
        let mut grid = crate::ExperimentGrid::new();
        grid.push("fig0/overfilled", move || {
            let file = FileRef::Global(0);
            let script = vec![
                Op::Write {
                    file,
                    offset: 0,
                    blocks: 256,
                },
                Op::Fsync { file },
            ];
            let stack = threads_of(cfg, 1, || {
                Box::new(ScriptWorkload::repeat(script.clone(), 50))
            });
            run_cell(stack, Span::UntilDone).1
        });
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| grid.run_with(1)))
            .expect_err("an overfilled cell printed a row");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(
            msg.starts_with("grid cell `fig0/overfilled` panicked: FTL out of space"),
            "{msg}"
        );
    }
}
