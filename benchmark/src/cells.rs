//! The six workloads as lists of cells. A cell is one `(stack config,
//! workload threads, window)` simulation; a pass runs every cell of a
//! workload once.
//!
//! All cells are closed loops: a simulated thread issues its next syscall
//! only after the previous one completed. `oltp_hour` adds think time, so
//! it is rate-bounded. Simulated thread counts are model inputs — the
//! benchmark itself runs on one OS thread.

use barrier_io::{
    DeviceProfile, FileRef, Op, ScriptWorkload, SimDuration, StackConfig, Topology, Workload,
};
use bio_sim::SimRng;
use bio_workloads::{
    Dwsl, MailQueue, OltpInsert, RandWrite, RocksDbWal, Sqlite, SqliteJournalMode, SyncMode,
    Varmail, WriteMode,
};

/// The three stacks every model metric is reported for, plus the
/// reference cells that feed a per-layer metric only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// EXT4, fsync/fdatasync: transfer-and-flush.
    Ext4Dr,
    /// BarrierFS, same calls: durability without Wait-on-Transfer.
    BfsDr,
    /// BarrierFS `.ordering_only()`, fbarrier/fdatabarrier.
    BfsOd,
    /// A reference cell outside the three stacks (`randwrite_qd`'s X and
    /// P scenarios).
    Reference,
}

impl Stack {
    /// The three reported stacks, in metric order.
    pub const REPORTED: [Stack; 3] = [Stack::Ext4Dr, Stack::BfsDr, Stack::BfsOd];

    /// Metric-name prefix / suffix (`ext4_dr`).
    pub fn key(self) -> &'static str {
        match self {
            Stack::Ext4Dr => "ext4_dr",
            Stack::BfsDr => "bfs_dr",
            Stack::BfsOd => "bfs_od",
            Stack::Reference => "reference",
        }
    }

    fn config(self, dev: DeviceProfile) -> StackConfig {
        match self {
            Stack::Ext4Dr => StackConfig::ext4_dr(dev),
            Stack::BfsDr => StackConfig::bfs(dev),
            Stack::BfsOd => StackConfig::bfs(dev).ordering_only(),
            Stack::Reference => unreachable!("reference cells build their own config"),
        }
    }

    /// The sync call standing for `dr` (a durability call) on this stack.
    fn sync(self, dr: SyncMode) -> SyncMode {
        match self {
            Stack::BfsOd => dr.ordering_only(),
            _ => dr,
        }
    }
}

/// How long a cell's timed window runs.
#[derive(Debug, Clone, Copy)]
pub enum Window {
    /// A fixed simulated duration (`IoStack::run_for`).
    For(SimDuration),
    /// Until every thread finished its op stream
    /// (`IoStack::run_until_done`, capped at [`DONE_CAP`]).
    UntilDone,
}

/// Simulated-time cap of an `UntilDone` window; reaching it fails the cell.
pub const DONE_CAP: SimDuration = SimDuration::from_secs(3600);

/// What counts as one application transaction in a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnUnit {
    /// The workload's own `TxnMark`s.
    Mark,
    /// One 4 KiB write (`randwrite_qd`, whose generator marks nothing).
    Write,
}

/// Builds a cell's workload threads (fresh op streams on every call).
pub type ThreadFactory = Box<dyn Fn() -> Vec<Box<dyn Workload>>>;

/// One simulation of a workload's pass.
pub struct Cell {
    /// `variant/stack` label, unique within the workload.
    pub label: String,
    /// Which stack's metrics the cell feeds.
    pub stack: Stack,
    /// The variant (device, journal mode, topology, application) shared by
    /// the cells that differ only in stack.
    pub variant: String,
    /// Stack configuration (the run's seed is applied on top).
    pub cfg: StackConfig,
    /// Shared files pre-created as `FileRef::Global(0..n)`.
    pub global_files: usize,
    /// Threads run to completion before the cell's own threads start
    /// (device ageing), untimed.
    pub prefill: Option<ThreadFactory>,
    /// The simulated threads.
    pub threads: ThreadFactory,
    /// Untimed simulated warm-up before the window.
    pub warmup: SimDuration,
    /// The timed window.
    pub window: Window,
    /// Transaction unit.
    pub txn: TxnUnit,
}

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 6] = [
    "sqlite_sync",
    "randwrite_qd",
    "mq_dwsl",
    "oltp_hour",
    "many_file_mix",
    "crash_enum",
];

/// One line per workload: which layer does the work (also the `why` in
/// `BENCHMARK.json`).
pub fn why(workload: &str) -> &'static str {
    match workload {
        "sqlite_sync" => "SQLite inserts, 1 thread: the fs journal commit path dominates, flash is nearly idle on the DR stacks",
        "randwrite_qd" => "4 KiB random overwrite with GC active: bio-flash does the work, the journal is bypassed",
        "mq_dwsl" => "256 DWSL threads on 1q1d/2q1d/4q2d: block lanes, striping and the cross-lane epoch sequencer dominate",
        "oltp_hour" => "rate-bounded OLTP and DWSL on an idle device: event kernel, drive routing, timers and the workload engine dominate",
        "many_file_mix" => "varmail, mail-queue, RocksDB-WAL: create/unlink/read and many-inode transactions through the same fs layer",
        "crash_enum" => "crash-point capture, enumeration, recovery replay and checker instead of the run loop; op = crash point",
        _ => "",
    }
}

/// Sizes of one pass. `div` divides every count and window: 1 for a timed
/// pass, 4 for the warm-up pass, 16 for `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Divisor applied to the full-size counts.
    pub div: u64,
}

impl Sizes {
    fn n(self, full: u64) -> u64 {
        (full / self.div).max(1)
    }

    fn dur(self, full: SimDuration) -> SimDuration {
        SimDuration::from_nanos((full.as_nanos() / self.div).max(1))
    }

    /// Crash traces (seeds) per differential stack on `crash_enum`.
    pub fn crash_traces(self) -> u64 {
        self.n(CRASH_TRACES)
    }
}

// Full-size counts. Each is sized so one timed pass of the workload takes
// about a second of host time on the 2-core reference box (a run repeats
// passes for `--seconds`), and so every cell still records the >= 1000
// sync calls its p99 needs.
const SQLITE_INSERTS: u64 = 3_000;
const RANDWRITE_OD_WINDOW: SimDuration = SimDuration::from_millis(400);
const RANDWRITE_DR_WINDOW: SimDuration = SimDuration::from_secs(2);
const RANDWRITE_X_WINDOW: SimDuration = SimDuration::from_millis(500);
const RANDWRITE_WARMUP: SimDuration = SimDuration::from_millis(20);
const RANDWRITE_REGION: u64 = 2_048;
/// Journal size on `randwrite_qd`: as small as the region, so the journal's
/// live blocks stay a small share of the 32k-page device too.
const RANDWRITE_JOURNAL: u64 = 2_048;
const MQ_THREADS: usize = 256;
const MQ_WRITES: u64 = 24;
const OLTP_WINDOW: SimDuration = SimDuration::from_secs(150);
const MAIL_ITERS: u64 = 1_000;
const ROCKS_PUTS: u64 = 4_000;
const CRASH_TRACES: u64 = 6;
const CRASH_REFERENCE_WRITES: u64 = 2_000;

fn sized(mut dev: DeviceProfile, segments: usize) -> DeviceProfile {
    dev.segments = segments;
    dev
}

fn cell(
    variant: &str,
    stack: Stack,
    cfg: StackConfig,
    global_files: usize,
    threads: ThreadFactory,
    window: Window,
) -> Cell {
    Cell {
        label: format!("{variant}/{}", stack.key()),
        stack,
        variant: variant.to_string(),
        cfg,
        global_files,
        prefill: None,
        threads,
        warmup: SimDuration::ZERO,
        window,
        txn: TxnUnit::Mark,
    }
}

fn boxed<W: Workload + 'static>(w: W) -> Box<dyn Workload> {
    Box::new(w)
}

/// `sqlite_sync`: {PERSIST, WAL} × {UFS, plain-SSD} × 3 stacks, one
/// thread. The paper's headline (Fig 14).
fn sqlite_sync(s: Sizes) -> Vec<Cell> {
    let inserts = s.n(SQLITE_INSERTS);
    let mut cells = Vec::new();
    for (mode, mode_name) in [
        (SqliteJournalMode::Persist, "PERSIST"),
        (SqliteJournalMode::Wal, "WAL"),
    ] {
        for dev in [DeviceProfile::ufs(), DeviceProfile::plain_ssd()] {
            let dev = sized(dev, 4096);
            for stack in Stack::REPORTED {
                let mk = match stack {
                    Stack::Ext4Dr => Sqlite::durability,
                    Stack::BfsDr => Sqlite::barrier_durability,
                    _ => Sqlite::ordering,
                };
                cells.push(cell(
                    &format!("{mode_name}/{}", dev.name),
                    stack,
                    stack.config(dev.clone()),
                    2,
                    Box::new(move || {
                        vec![boxed(mk(
                            mode,
                            FileRef::Global(0),
                            FileRef::Global(1),
                            inserts,
                        ))]
                    }),
                    Window::UntilDone,
                ));
            }
        }
    }
    cells
}

/// The plain-SSD of `randwrite_qd`: 64 segments (32k pages, 16x the
/// random region), so the greedy GC's victims are empty by the time it
/// needs them. A fuller device makes the FTL relocate into dedicated
/// segments faster than it frees them and panic ("FTL out of space").
fn aged_ssd() -> DeviceProfile {
    sized(DeviceProfile::plain_ssd(), 64)
}

/// Full-size sequential overwrite passes of the region (each followed by
/// an fsync): they age the FTL to just under its GC watermark (≈28.7k
/// appends of 30.1k) before the random writer starts, so garbage
/// collection runs inside the window.
const AGEING_PASSES: u64 = 14;

fn age_region(passes: u64) -> Vec<Box<dyn Workload>> {
    let file = FileRef::Global(0);
    let mut script: Vec<Op> = (0..RANDWRITE_REGION)
        .step_by(256)
        .map(|offset| Op::Write {
            file,
            offset,
            blocks: 256,
        })
        .collect();
    script.push(Op::Fsync { file });
    vec![boxed(ScriptWorkload::repeat(script, passes))]
}

/// `randwrite_qd`: 4 KiB random overwrite of a 2048-block file (Fig 9):
/// XnF / BFS-DR / B on an aged plain-SSD (GC runs; the region fits the
/// 4096-block device cache) and a stock UFS (no GC; the region is 4x the
/// 512-block cache), plus the X (EXT4-OD, Wait-on-Transfer) and P
/// (buffered) reference cells. Windows are fixed simulated durations,
/// longer on the QD-1 durability cells so they too record >= 1000 syncs.
fn randwrite_qd(s: Sizes) -> Vec<Cell> {
    let rw = |mode: WriteMode| -> ThreadFactory {
        Box::new(move || {
            vec![boxed(RandWrite::new(
                FileRef::Global(0),
                RANDWRITE_REGION,
                mode,
                u64::MAX / 2,
            ))]
        })
    };
    let window = |stack: Stack| match stack {
        Stack::Ext4Dr | Stack::BfsDr => Window::For(s.dur(RANDWRITE_DR_WINDOW)),
        _ => Window::For(s.dur(RANDWRITE_OD_WINDOW)),
    };
    // Reduced-size passes age less (not at all at smoke size): they are
    // there to exercise the path, not the GC.
    let ageing = AGEING_PASSES / s.div;
    let age = move || (ageing > 0).then(|| Box::new(move || age_region(ageing)) as ThreadFactory);
    let mut cells = Vec::new();
    for (dev, aged) in [(aged_ssd(), true), (DeviceProfile::ufs(), false)] {
        for stack in Stack::REPORTED {
            let sync = stack.sync(SyncMode::Fdatasync);
            let mut c = cell(
                &dev.name,
                stack,
                stack.config(dev.clone()),
                1,
                rw(WriteMode::SyncEach(sync)),
                window(stack),
            );
            c.prefill = aged.then(age).flatten();
            cells.push(c);
        }
    }
    // No ageing for X: a `nobarrier` fsync flushes nothing, so the prefill
    // would sit in the device cache instead of filling the FTL.
    let x = cell(
        "plain-SSD/X",
        Stack::Reference,
        StackConfig::ext4_od(aged_ssd()),
        1,
        rw(WriteMode::SyncEach(SyncMode::Fdatasync)),
        Window::For(s.dur(RANDWRITE_X_WINDOW)),
    );
    let mut p = cell(
        "plain-SSD/P",
        Stack::Reference,
        StackConfig::ext4_dr(aged_ssd()),
        1,
        rw(WriteMode::Buffered),
        Window::For(s.dur(RANDWRITE_OD_WINDOW)),
    );
    p.prefill = age();
    cells.extend([x, p]);
    for c in &mut cells {
        c.cfg.fs.journal_blocks = RANDWRITE_JOURNAL;
        c.warmup = s.dur(RANDWRITE_WARMUP);
        c.txn = TxnUnit::Write;
    }
    cells
}

/// Lane topologies of `mq_dwsl`: `(name, hw queues, devices)`.
pub const MQ_TOPOLOGIES: [(&str, usize, usize); 3] =
    [("1q1d", 1, 1), ("2q1d", 2, 1), ("4q2d", 4, 2)];

/// `mq_dwsl`: 256 simulated DWSL threads on three lane topologies × 3
/// stacks (Fig 17).
fn mq_dwsl(s: Sizes) -> Vec<Cell> {
    let writes = s.n(MQ_WRITES);
    let mut cells = Vec::new();
    for (name, queues, devices) in MQ_TOPOLOGIES {
        for stack in Stack::REPORTED {
            let sync = stack.sync(SyncMode::Fsync);
            let cfg = stack
                .config(DeviceProfile::plain_ssd())
                .with_topology(Topology::new(queues, devices, 8));
            cells.push(cell(
                name,
                stack,
                cfg,
                0,
                Box::new(move || {
                    (0..MQ_THREADS)
                        .map(|_| boxed(Dwsl::new(sync, writes)))
                        .collect()
                }),
                Window::UntilDone,
            ));
        }
    }
    cells
}

/// `oltp_hour`: rate-bounded OLTP-insert (~10 ms think, 1M-block binlog)
/// and DWSL (~5 ms think) on a 32 GiB device × 3 stacks — the
/// `long_horizon` regime: device and journal are mostly idle.
fn oltp_hour(s: Sizes, seed: u64) -> Vec<Cell> {
    let window = Window::For(s.dur(OLTP_WINDOW));
    // Client think times carry up to 50 µs drawn from the seed: with a
    // fixed think time the BFS-OD cells (barrier latency has no jitter)
    // complete the same transaction count under every seed.
    let jitter = SimDuration::from_micros(SimRng::new(seed).below(50));
    let oltp_think = SimDuration::from_millis(10) + jitter;
    let dwsl_think = SimDuration::from_millis(5) + jitter;
    let dev = sized(DeviceProfile::plain_ssd(), s.n(16 * 1024) as usize);
    let mut cells = Vec::new();
    for stack in Stack::REPORTED {
        let sync = stack.sync(SyncMode::Fsync);
        cells.push(cell(
            "oltp",
            stack,
            stack.config(dev.clone()),
            3,
            Box::new(move || {
                vec![boxed(
                    OltpInsert::new(
                        sync,
                        FileRef::Global(0),
                        FileRef::Global(1),
                        FileRef::Global(2),
                        u64::MAX,
                    )
                    .with_binlog_blocks(1 << 20)
                    .with_think(oltp_think),
                )]
            }),
            window,
        ));
        cells.push(cell(
            "dwsl",
            stack,
            stack.config(dev.clone()),
            0,
            Box::new(move || vec![boxed(Dwsl::new(sync, u64::MAX).with_think(dwsl_think))]),
            window,
        ));
    }
    cells
}

/// `many_file_mix`: varmail (4 threads), mail-queue and RocksDB-WAL × 3
/// stacks (Figs 15/16). Total creates stay far under the 65,536-block
/// metadata region.
fn many_file_mix(s: Sizes) -> Vec<Cell> {
    let dev = sized(DeviceProfile::plain_ssd(), 4096);
    let mail_iters = s.n(MAIL_ITERS);
    let puts = s.n(ROCKS_PUTS);
    let mut cells = Vec::new();
    for stack in Stack::REPORTED {
        let fsync = stack.sync(SyncMode::Fsync);
        let fdatasync = stack.sync(SyncMode::Fdatasync);
        cells.push(cell(
            "varmail",
            stack,
            stack.config(dev.clone()),
            1,
            Box::new(move || {
                (0..4)
                    .map(|_| boxed(Varmail::new(fsync, mail_iters, 8)))
                    .collect()
            }),
            Window::UntilDone,
        ));
        cells.push(cell(
            "mail-queue",
            stack,
            stack.config(dev.clone()),
            1,
            Box::new(move || vec![boxed(MailQueue::new(fdatasync, mail_iters, 8))]),
            Window::UntilDone,
        ));
        cells.push(cell(
            "rocksdb-wal",
            stack,
            stack.config(dev.clone()),
            1,
            Box::new(move || vec![boxed(RocksDbWal::new(fdatasync, puts))]),
            Window::UntilDone,
        ));
    }
    cells
}

/// One differential stack of the crash explorer: the paper's barrier UFS
/// with transfer history on, 1q×1dev and 2q×2dev (the same six
/// configurations `bio_bench::crash::run` enumerates).
pub struct CrashStack {
    /// Which reported stack it is.
    pub stack: Stack,
    /// Topology name.
    pub variant: &'static str,
    /// Configuration (history on).
    pub cfg: StackConfig,
    /// The trace's sync call.
    pub sync: SyncMode,
}

/// The six differential stacks.
pub fn crash_stacks() -> Vec<CrashStack> {
    let mut out = Vec::new();
    for (variant, topology) in [
        ("UFS-1q1d", Topology::single()),
        ("UFS-2q2d", Topology::new(2, 2, 16)),
    ] {
        for stack in Stack::REPORTED {
            out.push(CrashStack {
                stack,
                variant,
                cfg: stack
                    .config(DeviceProfile::ufs())
                    .with_history()
                    .with_topology(topology),
                sync: stack.sync(SyncMode::Fsync),
            });
        }
    }
    out
}

/// `crash_enum`'s model cells: the explorer's trace shape (random
/// write + sync over a 64-block region, 1 µs journal tick, history on) run
/// plainly on each differential stack. They give the workload its model
/// metrics and its step-traced run; the timed work is the enumeration.
fn crash_reference(s: Sizes) -> Vec<Cell> {
    let writes = s.n(CRASH_REFERENCE_WRITES);
    crash_stacks()
        .into_iter()
        .map(|cs| {
            let mut cfg = cs.cfg;
            cfg.fs.timer_tick = SimDuration::from_micros(1);
            let sync = cs.sync;
            let mut c = cell(
                cs.variant,
                cs.stack,
                cfg,
                1,
                Box::new(move || {
                    vec![boxed(RandWrite::new(
                        FileRef::Global(0),
                        64,
                        WriteMode::SyncEach(sync),
                        writes,
                    ))]
                }),
                Window::UntilDone,
            );
            c.txn = TxnUnit::Write;
            c
        })
        .collect()
}

/// The cells of `workload` at the given sizes (`None` for an unknown
/// name). The run's seed reaches every cell through
/// `StackConfig::with_seed` when it runs; `oltp_hour` also draws its think
/// times from it.
pub fn cells(workload: &str, sizes: Sizes, seed: u64) -> Option<Vec<Cell>> {
    Some(match workload {
        "sqlite_sync" => sqlite_sync(sizes),
        "randwrite_qd" => randwrite_qd(sizes),
        "mq_dwsl" => mq_dwsl(sizes),
        "oltp_hour" => oltp_hour(sizes, seed),
        "many_file_mix" => many_file_mix(sizes),
        "crash_enum" => crash_reference(sizes),
        _ => return None,
    })
}

/// The full-size counts, for the run header.
pub fn size_table() -> Vec<(&'static str, f64)> {
    vec![
        ("sqlite_sync.inserts_per_cell", SQLITE_INSERTS as f64),
        (
            "randwrite_qd.od_window_sim_s",
            RANDWRITE_OD_WINDOW.as_secs_f64(),
        ),
        (
            "randwrite_qd.dr_window_sim_s",
            RANDWRITE_DR_WINDOW.as_secs_f64(),
        ),
        (
            "randwrite_qd.x_window_sim_s",
            RANDWRITE_X_WINDOW.as_secs_f64(),
        ),
        ("randwrite_qd.warmup_sim_s", RANDWRITE_WARMUP.as_secs_f64()),
        ("randwrite_qd.region_blocks", RANDWRITE_REGION as f64),
        ("mq_dwsl.threads", MQ_THREADS as f64),
        ("mq_dwsl.writes_per_thread", MQ_WRITES as f64),
        ("oltp_hour.window_sim_s", OLTP_WINDOW.as_secs_f64()),
        ("many_file_mix.mail_iterations", MAIL_ITERS as f64),
        ("many_file_mix.rocksdb_puts", ROCKS_PUTS as f64),
        ("crash_enum.traces_per_stack", CRASH_TRACES as f64),
        ("crash_enum.reference_writes", CRASH_REFERENCE_WRITES as f64),
    ]
}
