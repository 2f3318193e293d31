//! The journaling figures: what one sync call costs the filesystem and how
//! that scales (Fig 8, Table 1, Figs 11, 13, 17).

use barrier_io::{DeviceProfile, OpKind, SimDuration, StackConfig, StackReport, Topology};
use bio_workloads::SyncMode::{self, Fbarrier, Fsync};
use bio_workloads::{Dwsl, WriteMode};

use super::cells::*;
use super::{col, Figure};

/// `threads` DWSL threads of `writes` synced appends each, run to the end.
fn dwsl_report(cfg: StackConfig, threads: usize, sync: SyncMode, writes: u64) -> StackReport {
    let stack = threads_of(cfg, threads, || Box::new(Dwsl::new(sync, writes)));
    run_cell(stack, Span::UntilDone).1
}

/// The paper's "4 KByte write() followed by fsync()": `n` synced
/// overwrites of a warm 64-block region, where the timer-tick effect makes
/// fsync degenerate to fdatasync.
fn warm_overwrite_report(cfg: StackConfig, sync: SyncMode, n: u64) -> StackReport {
    let writer = randwrite(cfg, 1, 64, WriteMode::SyncEach(sync), n);
    run_cell(writer, Span::UntilDone).1
}

/// Fig 8: journal commits per second under a commit storm (the inverse of
/// the commit interval): BFS (tD) > no-flush (tD+tC) > quick flush
/// (tD+tC+te) > full flush (tD+tC+tF).
pub fn fig08(scale: u64) -> Figure {
    // The same device as the full-flush row, but with PLP: flush
    // degenerates to the t_eps round trip (§4.4).
    let mut plp = DeviceProfile::plain_ssd();
    plp.plp = true;
    plp.name = "plain-SSD+PLP".into();
    let ssd = DeviceProfile::plain_ssd;
    let (bfs, od, dr) = (StackConfig::bfs, StackConfig::ext4_od, StackConfig::ext4_dr);
    let configurations = [
        ("BarrierFS (tD)", bfs(ssd()), Fbarrier),
        ("EXT4 no flush (tD+tC)", od(ssd()), Fsync),
        ("EXT4 quick flush (tD+tC+te)", dr(plp), Fsync),
        ("EXT4 full flush (tD+tC+tF)", dr(ssd()), Fsync),
    ];
    let mut fig = Figure::new(
        "Fig 8 — journal commit rate under a commit storm",
        &["configuration"],
        vec![col("commits/s", 0), col("mean interval (us)", 0)],
    );
    for (label, mut cfg, sync) in configurations {
        cfg.fs.timer_tick = SimDuration::from_micros(1); // every sync commits
        fig.row(&[label], move || {
            let storm = threads_of(cfg, 4, || Box::new(Dwsl::new(sync, ENDLESS)));
            let report = run_cell(storm, Span::Window(figure_window(scale))).1;
            let per_sec = report.fs.commits as f64 / report.run.elapsed.as_secs_f64();
            let interval_us = if per_sec > 0.0 {
                1e6 / per_sec
            } else {
                f64::INFINITY
            };
            vec![per_sec, interval_us]
        });
    }
    fig
}

/// Ages a device so garbage collection is active during the measurement
/// (responsible for the paper's heavy fsync tail latencies).
fn aged(mut dev: DeviceProfile, run_blocks: u64) -> DeviceProfile {
    let seg_pages = dev.pages_per_segment as u64;
    dev.segments = ((run_blocks / seg_pages).max(8) as usize).min(dev.segments);
    dev
}

/// Table 1: fsync latency (mean/median/p99/p99.9/p99.99) EXT4 vs BFS, on
/// an aged device so GC contributes the tail.
pub fn table1(scale: u64) -> Figure {
    let n = 1_000 * scale;
    let stacks: [(&str, Preset); 2] = [("EXT4", StackConfig::ext4_dr), ("BFS", StackConfig::bfs)];
    let stats = ["mean", "median", "p99", "p99.9", "p99.99"];
    let mut fig = Figure::new(
        "Table 1 — fsync() latency statistics (ms)",
        &["device", "stack"],
        stats.map(|name| col(name, 2)).into(),
    );
    for dev in three_devices() {
        let dev = aged(dev, n * 8);
        for (label, preset) in stacks {
            let cfg = preset(dev.clone());
            fig.row(&[&dev.name, label], move || {
                let report = warm_overwrite_report(cfg, Fsync, n);
                let f = report.run.op(OpKind::Fsync).expect("fsync ran").latency;
                let stats = [f.mean, f.p50, f.p99, f.p999, f.p9999];
                stats.map(|d| d.as_millis_f64()).into()
            });
        }
    }
    fig
}

/// Fig 11: application-level context switches per fsync/fbarrier:
/// EXT4-DR > BFS-DR > EXT4-OD > BFS-OD on every device.
pub fn fig11(scale: u64) -> Figure {
    let n = 1_000 * scale;
    let mut fig = Figure::new(
        "Fig 11 — context switches per fsync()/fbarrier()",
        &["device", "stack"],
        vec![col("switches/op", 2)],
    );
    for dev in three_devices() {
        for (preset, sync) in PRESETS {
            let cfg = preset(dev.clone());
            let label = cfg.stack_label();
            if label == "OptFS" {
                continue; // the paper's Fig 11 has no OptFS bar
            }
            let kind = if sync == Fsync {
                OpKind::Fsync
            } else {
                OpKind::Fbarrier
            };
            fig.row(&[&dev.name, label], move || {
                let report = warm_overwrite_report(cfg, sync, n);
                vec![report.run.op(kind).map_or(0.0, |o| o.switches_per_op)]
            });
        }
    }
    fig
}

/// Fig 13: ops/sec vs core (=thread) count, EXT4-DR vs BFS-DR.
pub fn fig13(scale: u64) -> Figure {
    let writes = 200 * scale;
    let mut fig = Figure::new(
        "Fig 13 — fxmark DWSL scalability (ops/s per core count)",
        &["device", "stack", "cores"],
        vec![col("ops/s", 0)],
    );
    for dev in server_devices() {
        for preset in [StackConfig::ext4_dr as Preset, StackConfig::bfs] {
            for cores in [1usize, 2, 4, 6, 8, 10, 12] {
                let cfg = preset(dev.clone());
                let key = [&dev.name, cfg.stack_label(), &cores.to_string()];
                fig.row(&key, move || {
                    vec![dwsl_report(cfg, cores, Fsync, writes).run.txns_per_sec()]
                });
            }
        }
    }
    fig
}

/// Fig 17: the paper's open question — does order-preserving dispatch
/// survive a multi-queue interface? A 256-thread DWSL commit storm on
/// {1,2,4,8} hardware queues × {1,2,4} devices, EXT4-DR (Wait-on-Transfer)
/// vs BFS-OD (barrier). EXT4 scales with device bandwidth because every
/// fsync already serialises on transfer. BFS-OD loses at two queues and
/// more, and not to the cross-lane sequencer: requests are placed by
/// `id % nr_hw_queues`, so the LBA-adjacent journal writes one lane would
/// merge land on different lanes and dispatch one by one, each a barrier
/// write closing an epoch of its own (the `epochs` column) and paying the
/// device's barrier overhead. These rows issue 2 writes per thread and are
/// mostly start-up, which is why they read "half"; with 24 writes per
/// thread the loss is 5 % (`tests/full_stack.rs::
/// two_queues_cost_bfs_od_merging_not_half_its_throughput`, and the
/// numbers under "Known costs" in docs/INVARIANTS.md).
pub fn fig17(scale: u64) -> Figure {
    const THREADS: usize = 256;
    let writes = 2 * scale;
    let stacks: [(Preset, SyncMode); 2] = [(StackConfig::ext4_dr, Fsync), (bfs_od, Fbarrier)];
    let mut fig = Figure::new(
        "Fig 17 — multi-queue scaling: 256-thread DWSL, queues × devices",
        &["stack", "queues", "devices"],
        vec![col("Tx/s", 0), col("mean QD", 2), col("epochs", 0)],
    );
    for (preset, sync) in stacks {
        for queues in [1usize, 2, 4, 8] {
            for devices in [1usize, 2, 4] {
                let topology = Topology::new(queues, devices, 8);
                let cfg = preset(DeviceProfile::plain_ssd()).with_topology(topology);
                let key = [cfg.stack_label(), &queues.to_string(), &devices.to_string()];
                fig.row(&key, move || {
                    let report = dwsl_report(cfg, THREADS, sync, writes);
                    let epochs = report.block.epochs_sequenced as f64;
                    vec![report.run.txns_per_sec(), report.mean_qd, epochs]
                });
            }
        }
    }
    fig
}
