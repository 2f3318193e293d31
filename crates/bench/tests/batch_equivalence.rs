//! `run_for`/`run_until_done` stop exactly where a `step()` loop stops.
//!
//! The run loop is `IoStack::step` bounded by a deadline (`run_for`) or
//! by every thread finishing (`run_until_done`). Each cell below runs a
//! stack through the run calls and a second one through bare `step()`s,
//! in process, and the two must agree on the full `StackReport` and on
//! the crash verdict at the end of the window — which pins the bounds:
//! no event past the deadline, none after the last thread finishes, and
//! congested threads woken after every event.
//!
//! `step()` cannot look ahead, so a stepped stack only learns a fixed
//! window is over by running the first event past it. Fixed windows are
//! therefore stepped twice: once to count the events inside the window,
//! then on a fresh stack for exactly that many steps (determinism makes
//! it the same prefix).

use barrier_io::{DeviceProfile, IoStack, StackConfig, Topology, CONGESTION_LIMIT};
use bio_bench::experiments::cells::{
    bfs_od, oltp, randwrite, sqlite, threads_of, ufs_and_ssd, ENDLESS, PRESETS,
};
use bio_sim::SimDuration;
use bio_workloads::{
    Dwsl, MailQueue, RocksDbWal, Sqlite, SqliteJournalMode, SyncMode, Varmail, WriteMode,
};

const WARM: SimDuration = SimDuration::from_millis(5);
const WINDOW: SimDuration = SimDuration::from_millis(25);
const DONE_CAP: SimDuration = SimDuration::from_secs(3600);
/// Op budget per thread of an until-done cell.
const DONE_OPS: u64 = 12;

/// A stack with a model's files and threads; `n` bounds each thread's
/// iterations.
type Setup = fn(StackConfig, SyncMode, u64) -> IoStack;

#[derive(Clone, Copy)]
enum Window {
    /// `run_for(WARM)`, `start_measuring`, `run_for(WINDOW)`.
    Fixed,
    /// `start_measuring`, `run_until_done`.
    UntilDone,
}

struct Cell {
    name: String,
    cfg: StackConfig,
    sync: SyncMode,
    setup: Setup,
    window: Window,
}

impl Cell {
    fn stack(&self) -> IoStack {
        let n = match self.window {
            Window::Fixed => ENDLESS,
            Window::UntilDone => DONE_OPS,
        };
        (self.setup)(self.cfg.clone().with_history(), self.sync, n)
    }
}

fn dwsl(cfg: StackConfig, sync: SyncMode, n: u64) -> IoStack {
    threads_of(cfg, 4, || Box::new(Dwsl::new(sync, n)))
}

/// fig17's thread count and per-thread write count (`n` is not used: the
/// cell is sized by how far it backs the block layer up).
fn dwsl_256(cfg: StackConfig, sync: SyncMode, _n: u64) -> IoStack {
    threads_of(cfg, 256, || Box::new(Dwsl::new(sync, 2)))
}

/// Every stack preset the figures use × {UFS, plain-SSD}, crossed with
/// all seven workload models; the window kind alternates so every preset
/// and every model runs under both.
fn cells() -> Vec<Cell> {
    let models: [(&str, Setup); 7] = [
        ("randwrite", |cfg, sync, n| {
            randwrite(cfg, 1, 256, WriteMode::SyncEach(sync), n)
        }),
        ("dwsl", dwsl),
        ("sqlite", |cfg, sync, n| {
            let mode = SqliteJournalMode::Persist;
            sqlite(cfg, |db, journal| {
                Sqlite::new(mode, sync, sync, db, journal, n, 2048)
            })
        }),
        ("varmail", |cfg, sync, n| {
            threads_of(cfg, 4, || Box::new(Varmail::new(sync, n, 8)))
        }),
        ("oltp", |cfg, sync, n| oltp(cfg, 4, sync, n)),
        ("rocksdb-wal", |cfg, sync, n| {
            threads_of(cfg, 2, || Box::new(RocksDbWal::new(sync, n)))
        }),
        ("mail-queue", |cfg, sync, n| {
            threads_of(cfg, 4, || Box::new(MailQueue::new(sync, n, 8)))
        }),
    ];
    let mut cells = Vec::new();
    for (di, dev) in ufs_and_ssd().into_iter().enumerate() {
        for (pi, (preset, sync)) in PRESETS.iter().enumerate() {
            for (mi, (model, setup)) in models.iter().enumerate() {
                let cfg = preset(dev.clone());
                let window = if (di + pi + mi) % 2 == 0 {
                    Window::Fixed
                } else {
                    Window::UntilDone
                };
                cells.push(Cell {
                    name: format!("{}/{model}", cfg.label()),
                    cfg,
                    sync: *sync,
                    setup: *setup,
                    window,
                });
            }
        }
    }
    // The lane grid with its cross-lane epoch sequencer.
    let mq = bfs_od(DeviceProfile::plain_ssd()).with_topology(Topology::new(2, 2, 8));
    for window in [Window::Fixed, Window::UntilDone] {
        cells.push(Cell {
            name: format!("{}/dwsl", mq.label()),
            cfg: mq.clone(),
            sync: SyncMode::Fbarrier,
            setup: dwsl,
            window,
        });
    }
    cells
}

/// What a run is judged by: the whole report and the crash verdict
/// (persisted image, filesystem and epoch violations).
fn observe(stack: &IoStack) -> (String, String) {
    (
        format!("{:?}", stack.report()),
        format!("{:?}", stack.crash()),
    )
}

fn batched(cell: &Cell) -> (String, String) {
    let mut s = cell.stack();
    match cell.window {
        Window::Fixed => {
            s.run_for(WARM);
            s.start_measuring();
            s.run_for(WINDOW);
        }
        Window::UntilDone => {
            s.start_measuring();
            assert!(s.run_until_done(DONE_CAP), "{}: hit the cap", cell.name);
        }
    }
    observe(&s)
}

/// Steps through a window of `d` and returns how many events fell inside
/// it. The stack ends one event past the window: only the count is good.
fn count_steps(stack: &mut IoStack, d: SimDuration) -> u64 {
    let deadline = stack.now() + d;
    let mut n = 0;
    while stack.step() && stack.now() <= deadline {
        n += 1;
    }
    n
}

fn step_n(stack: &mut IoStack, n: u64) {
    for _ in 0..n {
        assert!(stack.step(), "replay ran out of events");
    }
}

fn stepped(cell: &Cell) -> (String, String) {
    let mut s = cell.stack();
    match cell.window {
        Window::Fixed => {
            let warm = count_steps(&mut cell.stack(), WARM);
            let mut probe = cell.stack();
            step_n(&mut probe, warm);
            let window = count_steps(&mut probe, WINDOW);
            assert!(window > 0, "{}: empty window proves nothing", cell.name);
            step_n(&mut s, warm);
            s.start_measuring();
            step_n(&mut s, window);
        }
        Window::UntilDone => {
            s.start_measuring();
            while !s.workloads_finished() {
                assert!(s.step(), "{}: queue drained before done", cell.name);
            }
        }
    }
    observe(&s)
}

#[test]
fn batched_runs_match_single_step_runs() {
    for cell in cells() {
        let (report, crash) = batched(&cell);
        let (step_report, step_crash) = stepped(&cell);
        assert_eq!(report, step_report, "{}: reports diverge", cell.name);
        assert_eq!(crash, step_crash, "{}: crash verdicts diverge", cell.name);
    }
}

/// fig17's BFS-OD 1q×1dev cell: 256 DWSL threads whose `fbarrier`s
/// return at dispatch back the block layer up to `CONGESTION_LIMIT`, so
/// threads stall and only resume through the run loop's
/// `maybe_uncongest`.
#[test]
fn congested_run_matches_single_step_run() {
    let cell = Cell {
        name: "BFS-OD@plain-SSD/dwsl×256".into(),
        cfg: bfs_od(DeviceProfile::plain_ssd()),
        sync: SyncMode::Fbarrier,
        setup: dwsl_256,
        window: Window::UntilDone,
    };
    let limit = CONGESTION_LIMIT;
    let mut s = cell.stack();
    s.start_measuring();
    let mut crossed = false;
    while !s.workloads_finished() {
        assert!(s.step(), "queue drained before done");
        if !crossed {
            // Lane gauges plus the requests behind the epoch gate: what
            // `BlockLayer::queued()` — the congestion check's input — sums.
            let report = s.report();
            let lanes: usize = report.lanes.iter().map(|l| l.queued).sum();
            crossed = lanes + report.block.gated >= limit;
        }
    }
    assert!(crossed, "block queue never reached {limit}: not congested");
    assert_eq!(batched(&cell), observe(&s));
}
