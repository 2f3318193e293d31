//! The application figures: SQLite, the paper's two server workloads and
//! the two post-paper ones, across the stacks (Figs 14, 15, 16).

use barrier_io::{DeviceProfile, FileRef, IoStack, StackConfig};
use bio_workloads::SyncMode::{Fbarrier, Fdatabarrier, Fdatasync};
use bio_workloads::{MailQueue, RocksDbWal, Sqlite, SqliteJournalMode, Varmail};

use super::cells::*;
use super::{cell, col, Figure};

/// Transactions per second of `stack` run to the end.
fn txns_per_sec(stack: IoStack) -> f64 {
    run_cell(stack, Span::UntilDone).1.run.txns_per_sec()
}

/// Fig 14: SQLite inserts/sec per journal mode and stack.
pub fn fig14(scale: u64) -> Figure {
    let inserts = 500 * scale;
    type MkSqlite = fn(SqliteJournalMode, FileRef, FileRef, u64) -> Sqlite;
    let (ufs, ssd) = (DeviceProfile::ufs, DeviceProfile::plain_ssd);
    // (a) mobile storage: durability rows.
    // (b) plain-SSD: ordering rows + the EXT4-DR baseline for the 73x claim.
    let stacks: [(DeviceProfile, Preset, MkSqlite); 7] = [
        (ufs(), StackConfig::ext4_dr, Sqlite::durability),
        (ufs(), StackConfig::bfs, Sqlite::barrier_durability),
        (ufs(), bfs_od, Sqlite::ordering),
        (ssd(), StackConfig::ext4_dr, Sqlite::durability),
        (ssd(), StackConfig::ext4_od, Sqlite::durability),
        (ssd(), StackConfig::optfs, Sqlite::ordering),
        (ssd(), bfs_od, Sqlite::ordering),
    ];
    let modes = [
        ("PERSIST", SqliteJournalMode::Persist),
        ("WAL", SqliteJournalMode::Wal),
    ];
    let mut fig = Figure::new(
        "Fig 14 — SQLite inserts/s (PERSIST and WAL journal modes)",
        &["journal", "device", "stack"],
        vec![col("inserts/s", 0)],
    );
    for (mode_name, mode) in modes {
        for (dev, preset, make) in &stacks {
            let (cfg, make) = (preset(dev.clone()), *make);
            fig.row(&[mode_name, &dev.name, cfg.stack_label()], move || {
                let stack = sqlite(cfg, |db, journal| make(mode, db, journal, inserts));
                vec![txns_per_sec(stack)]
            });
        }
    }
    fig
}

/// Fig 15: server workloads across the five stacks on two devices.
pub fn fig15(scale: u64) -> Figure {
    let (iters, txns) = (100 * scale, 200 * scale);
    let mut fig = Figure::new(
        "Fig 15 — server workloads: varmail (iterations/s) and OLTP-insert (Tx/s)",
        &["device", "stack"],
        vec![col("varmail it/s", 0), col("OLTP Tx/s", 0)],
    );
    for dev in server_devices() {
        for (preset, sync) in PRESETS {
            let cfg = preset(dev.clone());
            let key = [&dev.name, cfg.stack_label()];
            // varmail: 16 threads.
            let vcfg = cfg.clone();
            let varmail = move || Box::new(Varmail::new(sync, iters, 8)) as _;
            let varmail = cell(move || vec![txns_per_sec(threads_of(vcfg, 16, varmail))]);
            // OLTP-insert: 8 client threads on shared table/redo/binlog.
            let oltp = cell(move || vec![txns_per_sec(oltp(cfg, 8, sync, txns))]);
            fig.row_of(&key, [varmail, oltp]);
        }
    }
    fig
}

/// Fig 16: the two post-paper server workloads (RocksDB-style WAL +
/// compaction, mail-queue fsync storm) across the five stacks on two
/// devices, reporting tail latency alongside throughput. Ordering-only
/// stacks (BFS-OD, OptFS) win primarily on the latency columns: a
/// barrier returns without waiting on transfer or flush, so the sync
/// tail collapses even where throughput gains are modest.
pub fn fig16(scale: u64) -> Figure {
    /// Throughput and the sync-call latency percentiles of `stack`'s run.
    fn tps_and_sync_tail(stack: IoStack) -> Vec<f64> {
        let run = run_cell(stack, Span::UntilDone).1.run;
        let tail = [
            run.sync_latency.p50,
            run.sync_latency.p95,
            run.sync_latency.p99,
        ];
        let tps = std::iter::once(run.txns_per_sec());
        tps.chain(tail.map(|d| d.as_millis_f64())).collect()
    }
    let (puts, msgs) = (300 * scale, 150 * scale);
    let mut fig = Figure::new(
        "Fig 16 — RocksDB-WAL and mail-queue: Tx/s and sync-call latency (ms)",
        &["device", "workload", "stack"],
        vec![col("Tx/s", 0), col("p50", 3), col("p95", 3), col("p99", 3)],
    );
    for dev in server_devices() {
        for (preset, sync) in PRESETS {
            // Both workloads sync data only.
            let sync = if sync == Fbarrier {
                Fdatabarrier
            } else {
                Fdatasync
            };
            let cfg = preset(dev.clone());
            let label = cfg.stack_label();
            // RocksDB-style WAL + compaction: 4 independent DB threads.
            let rcfg = cfg.clone();
            fig.row(&[&dev.name, "rocksdb-wal", label], move || {
                tps_and_sync_tail(threads_of(rcfg, 4, || {
                    Box::new(RocksDbWal::new(sync, puts))
                }))
            });
            // Mail-queue fsync storm: 8 queue-manager threads.
            fig.row(&[&dev.name, "mail-queue", label], move || {
                tps_and_sync_tail(threads_of(cfg, 8, || {
                    Box::new(MailQueue::new(sync, msgs, 8))
                }))
            });
        }
    }
    fig
}
