//! One runner per table/figure of the paper.
//!
//! Every function takes `scale` (1 = quick CI-sized run, larger = closer
//! to the paper's operation counts) and prints its results.
//!
//! Each figure enumerates its cells into an [`ExperimentGrid`] — one
//! independent `(config, workload, seed)` simulation per cell — and runs
//! them on the worker pool. Cells never print; tables are assembled from
//! the ordered results afterwards, so serial (`--jobs 1`) and parallel
//! runs produce byte-identical output.

use barrier_io::{DeviceProfile, FileRef, IoStack, OpKind, SimDuration, StackConfig, Workload};
use bio_flash::BarrierMode;
use bio_workloads::{
    Dwsl, MailQueue, OltpInsert, RandWrite, RocksDbWal, Sqlite, SqliteJournalMode, SyncMode,
    Varmail, WriteMode,
};

use crate::{
    print_table, run_to_completion, run_until_done_or_panic, run_windowed, run_windowed_stack,
    ExperimentGrid,
};

/// A table/figure runner: takes `--scale` (`figcrash`: `--seeds`), prints.
pub type Runner = fn(u64);

/// Every selector the `figures` binary accepts (`--fig N` is `figN`,
/// `--table N` is `tableN`) with its runner, in `--all` order.
pub const SELECTORS: &[(&str, Runner)] = &[
    ("fig1", fig01),
    ("fig8", fig08),
    ("fig9", fig09),
    ("fig10", fig10),
    ("table1", table1),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("figengines", ablation_engines),
    ("figcrash", ablation_crash),
];

fn huge() -> u64 {
    u64::MAX / 2
}

fn warm() -> SimDuration {
    SimDuration::from_millis(50)
}

fn window(scale: u64) -> SimDuration {
    SimDuration::from_millis(200 * scale)
}

fn buffered_workload(region: u64) -> Box<dyn Workload> {
    Box::new(RandWrite::new(
        FileRef::Global(0),
        region,
        WriteMode::Buffered,
        huge(),
    ))
}

fn sync_workload(region: u64, sync: SyncMode) -> Box<dyn Workload> {
    Box::new(RandWrite::new(
        FileRef::Global(0),
        region,
        WriteMode::SyncEach(sync),
        huge(),
    ))
}

/// One single-thread windowed run; returns `(write KIOPS, mean QD)`.
fn measure_kiops(
    cfg: StackConfig,
    mk: impl FnOnce() -> Box<dyn Workload>,
    scale: u64,
) -> (f64, f64) {
    let mut holder = Some(mk());
    let report = run_windowed(
        cfg,
        move |_| holder.take().expect("single thread"),
        1,
        warm(),
        window(scale),
    );
    (report.write_kiops, report.mean_qd)
}

// ---------------------------------------------------------------------
// Fig 1 — ordered write vs buffered write across device parallelism.
// ---------------------------------------------------------------------

/// Fig 1: `write()+fdatasync()` vs plain `write()` IOPS ratio per device.
pub fn fig01(scale: u64) {
    // Device letters follow the paper: A eMMC, B UFS, C SATA, D NVMe,
    // E SATA+supercap, F PCIe, G 32-channel flash array (+HDD reference).
    let devices: Vec<(&str, DeviceProfile)> = vec![
        ("A:mobile/eMMC", DeviceProfile::emmc()),
        ("B:mobile/UFS", DeviceProfile::ufs()),
        ("C:server/SATA", DeviceProfile::plain_ssd()),
        ("D:server/NVMe", {
            let mut p = DeviceProfile::flash_array(16);
            p.name = "NVMe".into();
            p
        }),
        ("E:SATA-supercap", DeviceProfile::supercap_ssd()),
        ("F:server/PCIe", {
            let mut p = DeviceProfile::flash_array(24);
            p.name = "PCIe".into();
            p
        }),
        ("G:flash-array", DeviceProfile::flash_array(32)),
        ("HDD", DeviceProfile::hdd()),
    ];
    let region = 8192;
    let mut grid = ExperimentGrid::new();
    for (label, dev) in &devices {
        let mut bcfg = StackConfig::ext4_dr(dev.clone());
        bcfg.fs.writeback_interval = SimDuration::from_millis(20);
        grid.push(format!("fig01/{label}/buffered"), move || {
            measure_kiops(bcfg, || buffered_workload(region), scale).0
        });
        let ocfg = StackConfig::ext4_dr(dev.clone());
        grid.push(format!("fig01/{label}/ordered"), move || {
            measure_kiops(ocfg, || sync_workload(region, SyncMode::Fdatasync), scale).0
        });
    }
    let results = grid.run();
    assert_eq!(
        results.len(),
        2 * devices.len(),
        "fig01 cell/device pairing"
    );
    let mut rows = Vec::new();
    for (i, (label, _)) in devices.iter().enumerate() {
        let (buffered, ordered) = (results[2 * i], results[2 * i + 1]);
        let ratio = if buffered > 0.0 {
            100.0 * ordered / buffered
        } else {
            0.0
        };
        rows.push(vec![
            label.to_string(),
            format!("{buffered:.1}"),
            format!("{ordered:.2}"),
            format!("{ratio:.1}%"),
        ]);
    }
    print_table(
        "Fig 1 — Ordered write() vs buffered write() (4KB random)",
        &[
            "device",
            "buffered KIOPS",
            "ordered KIOPS",
            "ordered/buffered",
        ],
        &rows,
    );
}

// ---------------------------------------------------------------------
// Fig 9 — 4KB random write, XnF / X / B / P per device.
// ---------------------------------------------------------------------

/// Fig 9: IOPS and queue depth for the four ordering scenarios.
pub fn fig09(scale: u64) {
    let region = 8192;
    let mut grid = ExperimentGrid::new();
    let mut meta = Vec::new();
    for dev in [
        DeviceProfile::ufs(),
        DeviceProfile::plain_ssd(),
        DeviceProfile::supercap_ssd(),
    ] {
        type MkW = Box<dyn FnOnce() -> Box<dyn Workload> + Send>;
        let scenarios: Vec<(&'static str, StackConfig, MkW)> = vec![
            (
                "XnF",
                StackConfig::ext4_dr(dev.clone()),
                Box::new(move || sync_workload(region, SyncMode::Fdatasync)),
            ),
            (
                "X",
                StackConfig::ext4_od(dev.clone()),
                Box::new(move || sync_workload(region, SyncMode::Fdatasync)),
            ),
            (
                "B",
                StackConfig::bfs(dev.clone()),
                Box::new(move || sync_workload(region, SyncMode::Fdatabarrier)),
            ),
            (
                "P",
                StackConfig::ext4_dr(dev.clone()),
                Box::new(move || buffered_workload(region)),
            ),
        ];
        for (label, cfg, mk) in scenarios {
            meta.push((dev.name.clone(), label));
            grid.push(format!("fig09/{}/{label}", dev.name), move || {
                measure_kiops(cfg, mk, scale)
            });
        }
    }
    let results = grid.run();
    assert_eq!(results.len(), meta.len(), "grid cell/meta pairing");
    let mut rows = Vec::new();
    for ((device, scenario), (kiops, qd)) in meta.into_iter().zip(results) {
        rows.push(vec![
            device,
            scenario.to_string(),
            format!("{kiops:.2}"),
            format!("{qd:.2}"),
        ]);
    }
    print_table(
        "Fig 9 — 4KB random write: XnF (flush), X (wait-on-transfer), B (barrier), P (buffered)",
        &["device", "scenario", "KIOPS", "mean QD"],
        &rows,
    );
}

// ---------------------------------------------------------------------
// Fig 10 — queue depth over time, Wait-on-Transfer vs barrier.
// ---------------------------------------------------------------------

/// Fig 10: queue-depth traces (down-sampled) for X vs B on two devices.
pub fn fig10(scale: u64) {
    let mut grid = ExperimentGrid::new();
    for dev in [DeviceProfile::plain_ssd(), DeviceProfile::ufs()] {
        for (label, cfg, sync) in [
            (
                "Wait-on-Transfer",
                StackConfig::ext4_od(dev.clone()),
                SyncMode::Fdatasync,
            ),
            (
                "Barrier",
                StackConfig::bfs(dev.clone()),
                SyncMode::Fdatabarrier,
            ),
        ] {
            let name = format!("{} / {}", dev.name, label);
            grid.push(format!("fig10/{name}"), move || {
                let (stack, _) = run_windowed_stack(
                    cfg,
                    |_| sync_workload(8192, sync),
                    1,
                    warm(),
                    window(scale),
                );
                let now = stack.now();
                let from = now - window(scale);
                let series: Vec<f64> = stack
                    .device_at(0)
                    .qd_series()
                    .resample(from, now, 24)
                    .into_iter()
                    .map(|(_, v)| v)
                    .collect();
                (name, series)
            });
        }
    }
    for (name, series) in grid.run() {
        let plot: String = series
            .iter()
            .map(|v| {
                let steps = "▁▂▃▄▅▆▇█";
                let idx = ((v / 32.0) * 7.0).clamp(0.0, 7.0) as usize;
                steps.chars().nth(idx).unwrap_or('▁')
            })
            .collect();
        println!("Fig10 {name:<28} mean-QD trace: {plot}");
    }
}

// ---------------------------------------------------------------------
// Table 1 — fsync latency statistics.
// ---------------------------------------------------------------------

/// Ages a device so garbage collection is active during the measurement
/// (responsible for the paper's heavy fsync tail latencies).
fn aged(mut dev: DeviceProfile, run_blocks: u64) -> DeviceProfile {
    let seg_pages = dev.pages_per_segment as u64;
    dev.segments = ((run_blocks / seg_pages).max(8) as usize).min(dev.segments);
    dev
}

/// Table 1: fsync latency (mean/median/p99/p99.9/p99.99) EXT4 vs BFS.
/// The workload is the paper's "4 KByte write() followed by fsync()"
/// (overwrites of a warm region), on an aged device so GC contributes the
/// tail.
pub fn table1(scale: u64) {
    let n = 1_000 * scale;
    let mut grid = ExperimentGrid::new();
    let mut meta = Vec::new();
    for dev in [
        DeviceProfile::ufs(),
        DeviceProfile::plain_ssd(),
        DeviceProfile::supercap_ssd(),
    ] {
        let dev = aged(dev, n * 8);
        for (label, cfg) in [
            ("EXT4", StackConfig::ext4_dr(dev.clone())),
            ("BFS", StackConfig::bfs(dev.clone())),
        ] {
            meta.push((dev.name.clone(), label));
            grid.push(format!("table1/{}/{label}", dev.name), move || {
                let report = run_to_completion(
                    cfg,
                    move |_| {
                        Box::new(RandWrite::new(
                            FileRef::Global(0),
                            64,
                            WriteMode::SyncEach(SyncMode::Fsync),
                            n,
                        )) as Box<dyn Workload>
                    },
                    1,
                    SimDuration::ZERO,
                    SimDuration::from_secs(3600),
                );
                let f = report.run.op(OpKind::Fsync).expect("fsync ran").latency;
                [
                    f.mean.as_millis_f64(),
                    f.p50.as_millis_f64(),
                    f.p99.as_millis_f64(),
                    f.p999.as_millis_f64(),
                    f.p9999.as_millis_f64(),
                ]
            });
        }
    }
    let results = grid.run();
    assert_eq!(results.len(), meta.len(), "grid cell/meta pairing");
    let mut rows = Vec::new();
    for ((device, stack), stats) in meta.into_iter().zip(results) {
        rows.push(vec![
            device,
            stack.to_string(),
            format!("{:.2}", stats[0]),
            format!("{:.2}", stats[1]),
            format!("{:.2}", stats[2]),
            format!("{:.2}", stats[3]),
            format!("{:.2}", stats[4]),
        ]);
    }
    print_table(
        "Table 1 — fsync() latency statistics (ms)",
        &[
            "device", "stack", "mean", "median", "p99", "p99.9", "p99.99",
        ],
        &rows,
    );
}

// ---------------------------------------------------------------------
// Fig 11 — context switches per sync call.
// ---------------------------------------------------------------------

/// Fig 11: application-level context switches per fsync/fbarrier.
pub fn fig11(scale: u64) {
    let n = 1_000 * scale;
    let mut grid = ExperimentGrid::new();
    let mut meta = Vec::new();
    for dev in [
        DeviceProfile::ufs(),
        DeviceProfile::plain_ssd(),
        DeviceProfile::supercap_ssd(),
    ] {
        let cells: Vec<(StackConfig, SyncMode, OpKind)> = vec![
            (
                StackConfig::ext4_dr(dev.clone()),
                SyncMode::Fsync,
                OpKind::Fsync,
            ),
            (
                StackConfig::bfs(dev.clone()),
                SyncMode::Fsync,
                OpKind::Fsync,
            ),
            (
                StackConfig::ext4_od(dev.clone()),
                SyncMode::Fsync,
                OpKind::Fsync,
            ),
            (
                StackConfig::bfs(dev.clone()).ordering_only(),
                SyncMode::Fbarrier,
                OpKind::Fbarrier,
            ),
        ];
        for (cfg, sync, kind) in cells {
            let label = cfg.stack_label();
            meta.push((dev.name.clone(), label));
            grid.push(format!("fig11/{}/{label}", dev.name), move || {
                // Overwrites of a warm region: the paper's workload, where
                // the timer-tick effect makes fsync degenerate to
                // fdatasync.
                let report = run_to_completion(
                    cfg,
                    move |_| {
                        Box::new(RandWrite::new(
                            FileRef::Global(0),
                            64,
                            WriteMode::SyncEach(sync),
                            n,
                        )) as Box<dyn Workload>
                    },
                    1,
                    SimDuration::ZERO,
                    SimDuration::from_secs(3600),
                );
                report.run.op(kind).map_or(0.0, |o| o.switches_per_op)
            });
        }
    }
    let results = grid.run();
    assert_eq!(results.len(), meta.len(), "grid cell/meta pairing");
    let mut rows = Vec::new();
    for ((device, label), s) in meta.into_iter().zip(results) {
        rows.push(vec![device, label.to_string(), format!("{s:.2}")]);
    }
    print_table(
        "Fig 11 — context switches per fsync()/fbarrier()",
        &["device", "stack", "switches/op"],
        &rows,
    );
}

// ---------------------------------------------------------------------
// Fig 12 — BarrierFS queue depth: fsync vs fbarrier.
// ---------------------------------------------------------------------

/// Fig 12: peak device queue depth under fsync vs fbarrier on BarrierFS.
pub fn fig12(scale: u64) {
    let mut grid = ExperimentGrid::new();
    let mut meta = Vec::new();
    for (label, sync) in [("fsync", SyncMode::Fsync), ("fbarrier", SyncMode::Fbarrier)] {
        meta.push(label);
        grid.push(format!("fig12/{label}"), move || {
            let mut cfg = StackConfig::bfs(DeviceProfile::ufs());
            // fsync exercises the full commit path (allocating appends);
            // the ordering-guarantee row overwrites a warm region, where
            // most fbarrier calls degenerate to fdatabarrier and never
            // block — that is what lets the queue fill up (Fig 12(b)).
            let mk: Box<dyn Fn() -> Box<dyn Workload>> = if sync == SyncMode::Fsync {
                cfg.fs.timer_tick = SimDuration::from_micros(1);
                Box::new(move || Box::new(Dwsl::new(sync, huge())) as Box<dyn Workload>)
            } else {
                Box::new(move || {
                    Box::new(RandWrite::new(
                        FileRef::Global(0),
                        64,
                        WriteMode::SyncEach(sync),
                        huge(),
                    )) as Box<dyn Workload>
                })
            };
            let (stack, _report) = run_windowed_stack(cfg, |_| mk(), 1, warm(), window(scale));
            let now = stack.now();
            let from = now - window(scale);
            let peak = stack.device_at(0).qd_series().max_in(from, now);
            let mean = stack.device_at(0).qd_series().weighted_mean(from, now);
            (mean, peak)
        });
    }
    let results = grid.run();
    assert_eq!(results.len(), meta.len(), "grid cell/meta pairing");
    let mut rows = Vec::new();
    for (label, (mean, peak)) in meta.into_iter().zip(results) {
        rows.push(vec![
            label.to_string(),
            format!("{mean:.2}"),
            format!("{peak:.0}"),
        ]);
    }
    print_table(
        "Fig 12 — BarrierFS queue depth: durability vs ordering guarantee",
        &["call", "mean QD", "peak QD"],
        &rows,
    );
}

// ---------------------------------------------------------------------
// Fig 13 — journaling scalability (fxmark DWSL).
// ---------------------------------------------------------------------

/// Fig 13: ops/sec vs core (=thread) count, EXT4-DR vs BFS-DR.
pub fn fig13(scale: u64) {
    let cores = [1usize, 2, 4, 6, 8, 10, 12];
    let writes = 200 * scale;
    let mut grid = ExperimentGrid::new();
    let mut meta = Vec::new();
    for dev in [DeviceProfile::plain_ssd(), DeviceProfile::supercap_ssd()] {
        for mk_cfg in [
            StackConfig::ext4_dr as fn(DeviceProfile) -> StackConfig,
            StackConfig::bfs as fn(DeviceProfile) -> StackConfig,
        ] {
            for &n in &cores {
                let cfg = mk_cfg(dev.clone());
                let label = cfg.stack_label();
                meta.push((dev.name.clone(), label, n));
                grid.push(format!("fig13/{}/{label}/{n}", dev.name), move || {
                    let report = run_to_completion(
                        cfg,
                        |_| Box::new(Dwsl::new(SyncMode::Fsync, writes)) as Box<dyn Workload>,
                        n,
                        SimDuration::ZERO,
                        SimDuration::from_secs(3600),
                    );
                    report.run.txns_per_sec()
                });
            }
        }
    }
    let results = grid.run();
    assert_eq!(results.len(), meta.len(), "grid cell/meta pairing");
    let mut rows = Vec::new();
    for ((device, label, n), ops) in meta.into_iter().zip(results) {
        rows.push(vec![
            device,
            label.to_string(),
            n.to_string(),
            format!("{:.0}", ops),
        ]);
    }
    print_table(
        "Fig 13 — fxmark DWSL scalability (ops/s per core count)",
        &["device", "stack", "cores", "ops/s"],
        &rows,
    );
}

// ---------------------------------------------------------------------
// Fig 14 — SQLite.
// ---------------------------------------------------------------------

/// Fig 14: SQLite inserts/sec per journal mode and stack.
pub fn fig14(scale: u64) {
    let inserts = 500 * scale;
    type MkSqlite = fn(SqliteJournalMode, FileRef, FileRef, u64) -> Sqlite;
    // (a) mobile storage: durability rows.
    // (b) plain-SSD: ordering rows + the EXT4-DR baseline for the 73x claim.
    let cells: Vec<(DeviceProfile, StackConfig, MkSqlite)> = vec![
        (
            DeviceProfile::ufs(),
            StackConfig::ext4_dr(DeviceProfile::ufs()),
            Sqlite::durability,
        ),
        (
            DeviceProfile::ufs(),
            StackConfig::bfs(DeviceProfile::ufs()),
            Sqlite::barrier_durability,
        ),
        (
            DeviceProfile::ufs(),
            StackConfig::bfs(DeviceProfile::ufs()).ordering_only(),
            Sqlite::ordering,
        ),
        (
            DeviceProfile::plain_ssd(),
            StackConfig::ext4_dr(DeviceProfile::plain_ssd()),
            Sqlite::durability,
        ),
        (
            DeviceProfile::plain_ssd(),
            StackConfig::ext4_od(DeviceProfile::plain_ssd()),
            Sqlite::durability,
        ),
        (
            DeviceProfile::plain_ssd(),
            StackConfig::optfs(DeviceProfile::plain_ssd()),
            Sqlite::ordering,
        ),
        (
            DeviceProfile::plain_ssd(),
            StackConfig::bfs(DeviceProfile::plain_ssd()).ordering_only(),
            Sqlite::ordering,
        ),
    ];
    let mut grid = ExperimentGrid::new();
    let mut meta = Vec::new();
    for mode in [SqliteJournalMode::Persist, SqliteJournalMode::Wal] {
        let mode_name = match mode {
            SqliteJournalMode::Persist => "PERSIST",
            SqliteJournalMode::Wal => "WAL",
        };
        for (dev, cfg, mk) in &cells {
            let label = cfg.stack_label();
            meta.push((mode_name.to_string(), dev.name.clone(), label));
            let (cfg, mk) = (cfg.clone(), *mk);
            grid.push(
                format!("fig14/{mode_name}/{}/{label}", dev.name),
                move || {
                    let mut stack = IoStack::new(cfg);
                    let db = stack.create_global_file();
                    let journal = stack.create_global_file();
                    let w = mk(mode, FileRef::Global(db), FileRef::Global(journal), inserts);
                    stack.add_thread(Box::new(w));
                    stack.start_measuring();
                    run_until_done_or_panic(&mut stack, SimDuration::from_secs(3600));
                    stack.report().run.txns_per_sec()
                },
            );
        }
    }
    let results = grid.run();
    assert_eq!(results.len(), meta.len(), "grid cell/meta pairing");
    let mut rows = Vec::new();
    for ((mode_name, device, label), tps) in meta.into_iter().zip(results) {
        rows.push(vec![
            mode_name,
            device,
            label.to_string(),
            format!("{tps:.0}"),
        ]);
    }
    print_table(
        "Fig 14 — SQLite inserts/s (PERSIST and WAL journal modes)",
        &["journal", "device", "stack", "inserts/s"],
        &rows,
    );
}

// ---------------------------------------------------------------------
// Fig 15 — varmail and OLTP-insert.
// ---------------------------------------------------------------------

/// Fig 15: server workloads across the five stacks on two devices.
pub fn fig15(scale: u64) {
    let mut grid = ExperimentGrid::new();
    let mut meta = Vec::new();
    for dev in [DeviceProfile::plain_ssd(), DeviceProfile::supercap_ssd()] {
        let stacks: Vec<(StackConfig, SyncMode)> = vec![
            (StackConfig::ext4_dr(dev.clone()), SyncMode::Fsync),
            (StackConfig::bfs(dev.clone()), SyncMode::Fsync),
            (StackConfig::optfs(dev.clone()), SyncMode::Fbarrier),
            (StackConfig::ext4_od(dev.clone()), SyncMode::Fsync),
            (
                StackConfig::bfs(dev.clone()).ordering_only(),
                SyncMode::Fbarrier,
            ),
        ];
        for (cfg, sync) in stacks {
            let label = cfg.stack_label();
            meta.push((dev.name.clone(), label));
            // varmail: 16 threads.
            let iters = 100 * scale;
            let vcfg = cfg.clone();
            grid.push(format!("fig15/{}/{label}/varmail", dev.name), move || {
                let report = run_to_completion(
                    vcfg,
                    |_| Box::new(Varmail::new(sync, iters, 8)) as Box<dyn Workload>,
                    16,
                    SimDuration::ZERO,
                    SimDuration::from_secs(3600),
                );
                report.run.txns_per_sec()
            });
            // OLTP-insert: 8 client threads on shared table/redo/binlog.
            let txns = 200 * scale;
            grid.push(format!("fig15/{}/{label}/oltp", dev.name), move || {
                let mut stack = IoStack::new(cfg);
                let table = stack.create_global_file();
                let redo = stack.create_global_file();
                let binlog = stack.create_global_file();
                for _ in 0..8 {
                    stack.add_thread(Box::new(OltpInsert::new(
                        sync,
                        FileRef::Global(table),
                        FileRef::Global(redo),
                        FileRef::Global(binlog),
                        txns,
                    )));
                }
                stack.start_measuring();
                run_until_done_or_panic(&mut stack, SimDuration::from_secs(3600));
                stack.report().run.txns_per_sec()
            });
        }
    }
    let results = grid.run();
    assert_eq!(results.len(), 2 * meta.len(), "fig15 cell/meta pairing");
    let mut rows = Vec::new();
    for ((device, label), pair) in meta.into_iter().zip(results.chunks(2)) {
        let (varmail_ops, oltp_tps) = (pair[0], pair[1]);
        rows.push(vec![
            device,
            label.to_string(),
            format!("{varmail_ops:.0}"),
            format!("{oltp_tps:.0}"),
        ]);
    }
    print_table(
        "Fig 15 — server workloads: varmail (iterations/s) and OLTP-insert (Tx/s)",
        &["device", "stack", "varmail it/s", "OLTP Tx/s"],
        &rows,
    );
}

// ---------------------------------------------------------------------
// Fig 16 — new server workloads: throughput AND sync tail latency.
// ---------------------------------------------------------------------

/// Fig 16: the two post-paper server workloads (RocksDB-style WAL +
/// compaction, mail-queue fsync storm) across the five stacks on two
/// devices, reporting tail latency alongside throughput. Ordering-only
/// stacks (BFS-OD, OptFS) win primarily on the latency columns: a
/// barrier returns without waiting on transfer or flush, so the sync
/// tail collapses even where throughput gains are modest.
pub fn fig16(scale: u64) {
    fn cell_stats(report: &barrier_io::StackReport) -> (f64, [f64; 3]) {
        let s = report.run.sync_latency;
        (
            report.run.txns_per_sec(),
            [
                s.p50.as_millis_f64(),
                s.p95.as_millis_f64(),
                s.p99.as_millis_f64(),
            ],
        )
    }
    let mut grid = ExperimentGrid::new();
    let mut meta = Vec::new();
    for dev in [DeviceProfile::plain_ssd(), DeviceProfile::supercap_ssd()] {
        let stacks: Vec<(StackConfig, SyncMode)> = vec![
            (StackConfig::ext4_dr(dev.clone()), SyncMode::Fdatasync),
            (StackConfig::bfs(dev.clone()), SyncMode::Fdatasync),
            (StackConfig::optfs(dev.clone()), SyncMode::Fdatabarrier),
            (StackConfig::ext4_od(dev.clone()), SyncMode::Fdatasync),
            (
                StackConfig::bfs(dev.clone()).ordering_only(),
                SyncMode::Fdatabarrier,
            ),
        ];
        for (cfg, sync) in stacks {
            let label = cfg.stack_label();
            // RocksDB-style WAL + compaction: 4 independent DB threads.
            let puts = 300 * scale;
            let rcfg = cfg.clone();
            meta.push((dev.name.clone(), "rocksdb-wal", label));
            grid.push(
                format!("fig16/{}/{label}/rocksdb-wal", dev.name),
                move || {
                    let report = run_to_completion(
                        rcfg,
                        |_| Box::new(RocksDbWal::new(sync, puts)) as Box<dyn Workload>,
                        4,
                        SimDuration::ZERO,
                        SimDuration::from_secs(3600),
                    );
                    cell_stats(&report)
                },
            );
            // Mail-queue fsync storm: 8 queue-manager threads.
            let msgs = 150 * scale;
            meta.push((dev.name.clone(), "mail-queue", label));
            grid.push(
                format!("fig16/{}/{label}/mail-queue", dev.name),
                move || {
                    let report = run_to_completion(
                        cfg,
                        |_| Box::new(MailQueue::new(sync, msgs, 8)) as Box<dyn Workload>,
                        8,
                        SimDuration::ZERO,
                        SimDuration::from_secs(3600),
                    );
                    cell_stats(&report)
                },
            );
        }
    }
    let results = grid.run();
    assert_eq!(results.len(), meta.len(), "grid cell/meta pairing");
    let mut rows = Vec::new();
    for ((device, workload, stack), (tps, sync_ms)) in meta.into_iter().zip(results) {
        rows.push(vec![
            device,
            workload.to_string(),
            stack.to_string(),
            format!("{tps:.0}"),
            format!("{:.3}", sync_ms[0]),
            format!("{:.3}", sync_ms[1]),
            format!("{:.3}", sync_ms[2]),
        ]);
    }
    print_table(
        "Fig 16 — RocksDB-WAL and mail-queue: Tx/s and sync-call latency (ms)",
        &["device", "workload", "stack", "Tx/s", "p50", "p95", "p99"],
        &rows,
    );
}

// ---------------------------------------------------------------------
// Fig 17 — multi-queue / multi-device scaling (post-paper).
// ---------------------------------------------------------------------

/// Fig 17: the paper's open question — does order-preserving dispatch
/// survive a multi-queue interface? 256 workload threads drive a DWSL
/// commit storm against {1,2,4,8} hardware queues × {1,2,4} devices,
/// EXT4-DR (Wait-on-Transfer ordering) vs BFS-OD (barrier ordering).
/// EXT4 scales with the added device bandwidth because every fsync
/// already serialises on transfer; BFS's cross-lane epoch sequencer must
/// drain every lane per epoch, so its ordering advantage is bounded by
/// the slowest lane — the grid shows where that cost grows with queue
/// count and where added devices buy it back.
pub fn fig17(scale: u64) {
    const THREADS: usize = 256;
    let writes = 2 * scale;
    let mut grid = ExperimentGrid::new();
    let mut meta = Vec::new();
    for (cfg0, sync) in [
        (
            StackConfig::ext4_dr(DeviceProfile::plain_ssd()),
            SyncMode::Fsync,
        ),
        (
            StackConfig::bfs(DeviceProfile::plain_ssd()).ordering_only(),
            SyncMode::Fbarrier,
        ),
    ] {
        for queues in [1usize, 2, 4, 8] {
            for devices in [1usize, 2, 4] {
                let cfg = cfg0
                    .clone()
                    .with_topology(barrier_io::Topology::new(queues, devices, 8));
                meta.push((cfg.stack_label(), queues, devices));
                grid.push(
                    format!("fig17/{}/{queues}q/{devices}dev", cfg.stack_label()),
                    move || {
                        let report = run_to_completion(
                            cfg,
                            move |_| Box::new(Dwsl::new(sync, writes)) as Box<dyn Workload>,
                            THREADS,
                            SimDuration::ZERO,
                            SimDuration::from_secs(3600),
                        );
                        (
                            report.run.txns_per_sec(),
                            report.mean_qd,
                            report.block.epochs_sequenced,
                        )
                    },
                );
            }
        }
    }
    let results = grid.run();
    assert_eq!(results.len(), meta.len(), "grid cell/meta pairing");
    let mut rows = Vec::new();
    for ((stack, queues, devices), (tps, mean_qd, epochs)) in meta.into_iter().zip(results) {
        rows.push(vec![
            stack.to_string(),
            queues.to_string(),
            devices.to_string(),
            format!("{tps:.0}"),
            format!("{mean_qd:.2}"),
            epochs.to_string(),
        ]);
    }
    print_table(
        "Fig 17 — multi-queue scaling: 256-thread DWSL, queues × devices",
        &["stack", "queues", "devices", "Tx/s", "mean QD", "epochs"],
        &rows,
    );
}

// ---------------------------------------------------------------------
// Fig 8 — journal commit interval.
// ---------------------------------------------------------------------

/// Fig 8: journal commits per second under a commit storm (the inverse of
/// the commit interval): BFS (tD) > no-flush (tD+tC) > quick flush
/// (tD+tC+te) > full flush (tD+tC+tF).
pub fn fig08(scale: u64) {
    let cells: Vec<(&'static str, StackConfig, SyncMode)> = vec![
        (
            "BarrierFS (tD)",
            StackConfig::bfs(DeviceProfile::plain_ssd()),
            SyncMode::Fbarrier,
        ),
        (
            "EXT4 no flush (tD+tC)",
            StackConfig::ext4_od(DeviceProfile::plain_ssd()),
            SyncMode::Fsync,
        ),
        (
            "EXT4 quick flush (tD+tC+te)",
            {
                // The same device as the full-flush row, but with PLP: flush
                // degenerates to the t_eps round trip (§4.4).
                let mut d = DeviceProfile::plain_ssd();
                d.plp = true;
                d.name = "plain-SSD+PLP".into();
                StackConfig::ext4_dr(d)
            },
            SyncMode::Fsync,
        ),
        (
            "EXT4 full flush (tD+tC+tF)",
            StackConfig::ext4_dr(DeviceProfile::plain_ssd()),
            SyncMode::Fsync,
        ),
    ];
    let mut grid = ExperimentGrid::new();
    let mut meta = Vec::new();
    for (label, mut cfg, sync) in cells {
        cfg.fs.timer_tick = SimDuration::from_micros(1); // every sync commits
        meta.push(label);
        grid.push(format!("fig08/{label}"), move || {
            let (stack, report) = run_windowed_stack(
                cfg,
                |_| Box::new(Dwsl::new(sync, huge())) as Box<dyn Workload>,
                4,
                warm(),
                window(scale),
            );
            let commits = stack.fs().stats().commits;
            commits as f64 / report.run.elapsed.as_secs_f64()
        });
    }
    let results = grid.run();
    assert_eq!(results.len(), meta.len(), "grid cell/meta pairing");
    let mut rows = Vec::new();
    for (label, per_sec) in meta.into_iter().zip(results) {
        let interval_us = if per_sec > 0.0 {
            1e6 / per_sec
        } else {
            f64::INFINITY
        };
        rows.push(vec![
            label.to_string(),
            format!("{per_sec:.0}"),
            format!("{interval_us:.0}"),
        ]);
    }
    print_table(
        "Fig 8 — journal commit rate under a commit storm",
        &["configuration", "commits/s", "mean interval (us)"],
        &rows,
    );
}

// ---------------------------------------------------------------------
// Ablation: barrier-enforcement engines (§3.2's three options).
// ---------------------------------------------------------------------

/// Ablation: fdatabarrier throughput under each barrier engine.
pub fn ablation_engines(scale: u64) {
    let mut grid = ExperimentGrid::new();
    let mut meta = Vec::new();
    for (label, mode) in [
        ("in-order writeback", BarrierMode::InOrderWriteback),
        ("transactional", BarrierMode::Transactional),
        ("LFS in-order recovery", BarrierMode::LfsInOrderRecovery),
    ] {
        meta.push(label);
        grid.push(format!("engines/{label}"), move || {
            let dev = DeviceProfile::ufs().with_barrier_mode(mode);
            let cfg = StackConfig::bfs(dev);
            measure_kiops(cfg, || sync_workload(8192, SyncMode::Fdatabarrier), scale).0
        });
    }
    let results = grid.run();
    assert_eq!(results.len(), meta.len(), "grid cell/meta pairing");
    let mut rows = Vec::new();
    for (label, kiops) in meta.into_iter().zip(results) {
        rows.push(vec![label.to_string(), format!("{kiops:.2}")]);
    }
    print_table(
        "Ablation — barrier write KIOPS per enforcement engine (UFS-class device)",
        &["engine", "KIOPS"],
        &rows,
    );
}

// ---------------------------------------------------------------------
// Ablation: crash-consistency violations.
// ---------------------------------------------------------------------

/// One sampled crash (the ablation table's unit of work): the explorer's
/// trace run for `dur`, then one wall-clock crash; counts its violations.
fn sampled_crash_violations(cfg: StackConfig, sync: SyncMode, dur: SimDuration) -> u64 {
    let seed = cfg.seed;
    let mut stack = crate::crash::trace_stack(cfg, sync, seed, crate::crash::TRACE_OPS);
    stack.run_for(dur);
    let crash = stack.crash();
    (crash.fs_violations.len() + crash.epoch_violations.len()) as u64
}

/// Crash audit: violation counts over `seeds` random crash points.
pub fn ablation_crash(seeds: u64) {
    type Cfg = fn() -> StackConfig;
    fn bfs_barrier_dev() -> StackConfig {
        StackConfig::bfs(DeviceProfile::ufs()).with_history()
    }
    fn ext4_full_flush() -> StackConfig {
        StackConfig::ext4_dr(DeviceProfile::ufs()).with_history()
    }
    fn ext4_orderless_dev() -> StackConfig {
        let mut d = DeviceProfile::ufs().with_barrier_mode(BarrierMode::Unsupported);
        d.cache_blocks = 48;
        StackConfig::ext4_od(d).with_history()
    }
    let cells: Vec<(&'static str, Cfg, SyncMode)> = vec![
        (
            "BFS-OD on barrier device",
            bfs_barrier_dev,
            SyncMode::Fbarrier,
        ),
        ("EXT4-DR (full flush)", ext4_full_flush, SyncMode::Fsync),
        (
            "EXT4-OD on orderless device",
            ext4_orderless_dev,
            SyncMode::Fsync,
        ),
    ];
    // One cell per (stack, seed): seeds shard across the worker pool
    // instead of looping inside one long cell, and the per-stack rows are
    // summed from the ordered results afterwards — the aggregation is the
    // same fold the serial loop performed, so output is byte-identical.
    let mut grid = ExperimentGrid::new();
    let mut meta = Vec::new();
    for (label, mk_cfg, sync) in cells {
        meta.push(label);
        for seed in 0..seeds {
            grid.push(format!("crash/{label}/seed{seed}"), move || {
                sampled_crash_violations(
                    mk_cfg().with_seed(seed),
                    sync,
                    SimDuration::from_millis(2 + seed * 3),
                )
            });
        }
    }
    let results = grid.run();
    assert_eq!(
        results.len(),
        meta.len() * seeds as usize,
        "grid cell/meta pairing"
    );
    let per_stack: Vec<(u64, u64)> = if seeds == 0 {
        meta.iter().map(|_| (0, 0)).collect()
    } else {
        results
            .chunks(seeds as usize)
            .map(|chunk| {
                let crashes_with_violation = chunk.iter().filter(|&&v| v > 0).count() as u64;
                let total_violations: u64 = chunk.iter().sum();
                (crashes_with_violation, total_violations)
            })
            .collect()
    };
    let mut rows = Vec::new();
    for (label, (crashes_with_violation, total_violations)) in meta.into_iter().zip(per_stack) {
        rows.push(vec![
            label.to_string(),
            format!("{crashes_with_violation}/{seeds}"),
            total_violations.to_string(),
        ]);
    }
    print_table(
        "Ablation — crash-consistency violations over random crash points",
        &["stack", "crashes w/ violations", "total violations"],
        &rows,
    );
}
