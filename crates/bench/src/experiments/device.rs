//! The raw-device figures: one thread of 4 KiB random writes, and what the
//! ordering mechanism does to IOPS and to the device queue (Figs 1, 9,
//! 10, 12).

use barrier_io::{DeviceProfile, SimDuration, StackConfig, StackReport};
use bio_workloads::Dwsl;
use bio_workloads::SyncMode::{self, Fbarrier, Fdatabarrier, Fdatasync, Fsync};
use bio_workloads::WriteMode::{self, Buffered, SyncEach};

use super::cells::*;
use super::{cell, col, Figure};

/// Blocks of the shared file the random writer covers.
const REGION: u64 = 8192;

/// One endless random writer, measured over the figure window.
pub(super) fn randwrite_report(cfg: StackConfig, mode: WriteMode, scale: u64) -> StackReport {
    let writer = randwrite(cfg, 1, REGION, mode, ENDLESS);
    run_cell(writer, Span::Window(figure_window(scale))).1
}

/// Fig 1: `write()+fdatasync()` vs plain `write()` IOPS ratio per device;
/// the ordered write is the slower one on every device.
pub fn fig01(scale: u64) -> Figure {
    let renamed_array = |channels, name: &str| {
        let mut p = DeviceProfile::flash_array(channels);
        p.name = name.into();
        p
    };
    // Device letters follow the paper: A eMMC, B UFS, C SATA, D NVMe,
    // E SATA+supercap, F PCIe, G 32-channel flash array (+HDD reference).
    let devices = [
        ("A:mobile/eMMC", DeviceProfile::emmc()),
        ("B:mobile/UFS", DeviceProfile::ufs()),
        ("C:server/SATA", DeviceProfile::plain_ssd()),
        ("D:server/NVMe", renamed_array(16, "NVMe")),
        ("E:SATA-supercap", DeviceProfile::supercap_ssd()),
        ("F:server/PCIe", renamed_array(24, "PCIe")),
        ("G:flash-array", DeviceProfile::flash_array(32)),
        ("HDD", DeviceProfile::hdd()),
    ];
    let percent = col("ordered/buffered", 1).suffix("%");
    let mut fig = Figure::new(
        "Fig 1 — Ordered write() vs buffered write() (4KB random)",
        &["device"],
        vec![col("buffered KIOPS", 1), col("ordered KIOPS", 2), percent],
    );
    fig.derive = |kiops| {
        let (b, o) = (kiops[0], kiops[1]);
        vec![b, o, if b > 0.0 { 100.0 * o / b } else { 0.0 }]
    };
    for (label, dev) in devices {
        let mut bcfg = StackConfig::ext4_dr(dev.clone());
        bcfg.fs.writeback_interval = SimDuration::from_millis(20);
        let ocfg = StackConfig::ext4_dr(dev);
        let buffered = cell(move || vec![randwrite_report(bcfg, Buffered, scale).write_kiops]);
        let ordered = SyncEach(Fdatasync);
        let ordered = cell(move || vec![randwrite_report(ocfg, ordered, scale).write_kiops]);
        fig.row_of(&[label], [buffered, ordered]);
    }
    fig
}

/// Fig 9: IOPS and queue depth for the four ordering scenarios.
pub fn fig09(scale: u64) -> Figure {
    let scenarios: [(&str, Preset, WriteMode); 4] = [
        ("XnF", StackConfig::ext4_dr, SyncEach(Fdatasync)),
        ("X", StackConfig::ext4_od, SyncEach(Fdatasync)),
        ("B", StackConfig::bfs, SyncEach(Fdatabarrier)),
        ("P", StackConfig::ext4_dr, Buffered),
    ];
    let mut fig = Figure::new(
        "Fig 9 — 4KB random write: XnF (flush), X (wait-on-transfer), B (barrier), P (buffered)",
        &["device", "scenario"],
        vec![col("KIOPS", 2), col("mean QD", 2)],
    );
    for dev in three_devices() {
        for (label, preset, mode) in scenarios {
            let cfg = preset(dev.clone());
            fig.row(&[&dev.name, label], move || {
                let report = randwrite_report(cfg, mode, scale);
                vec![report.write_kiops, report.mean_qd]
            });
        }
    }
    fig
}

/// Fig 10: queue-depth traces (down-sampled) for X vs B on two devices.
/// A row's numbers are its 24 trace points, drawn by [`sparklines`].
pub fn fig10(scale: u64) -> Figure {
    let scenarios: [(&str, Preset, SyncMode); 2] = [
        ("Wait-on-Transfer", StackConfig::ext4_od, Fdatasync),
        ("Barrier", StackConfig::bfs, Fdatabarrier),
    ];
    let mut fig = Figure::new("Fig 10", &["device", "scenario"], Vec::new());
    fig.render = sparklines;
    for dev in [DeviceProfile::plain_ssd(), DeviceProfile::ufs()] {
        for (label, preset, sync) in scenarios {
            let cfg = preset(dev.clone());
            fig.row(&[&dev.name, label], move || {
                let writer = randwrite(cfg, 1, REGION, SyncEach(sync), ENDLESS);
                run_sliced(writer, figure_window(scale), 24)
                    .iter()
                    .map(|slice| slice.mean_qd)
                    .collect()
            });
        }
    }
    fig
}

/// One line per row: the trace as eight-level block characters, 32
/// queued commands being full height.
fn sparklines(fig: &Figure) -> String {
    let mut out = String::new();
    for row in &fig.rows {
        let name = row.key.join(" / ");
        let plot: String = row
            .values
            .iter()
            .map(|v| {
                let steps = "▁▂▃▄▅▆▇█";
                let idx = ((v / 32.0) * 7.0).clamp(0.0, 7.0) as usize;
                steps.chars().nth(idx).unwrap_or('▁')
            })
            .collect();
        out.push_str(&format!("Fig10 {name:<28} mean-QD trace: {plot}\n"));
    }
    out
}

/// Fig 12: peak device queue depth under fsync vs fbarrier on BarrierFS.
pub fn fig12(scale: u64) -> Figure {
    let mut fig = Figure::new(
        "Fig 12 — BarrierFS queue depth: durability vs ordering guarantee",
        &["call"],
        vec![col("mean QD", 2), col("peak QD", 0)],
    );
    for (label, sync) in [("fsync", Fsync), ("fbarrier", Fbarrier)] {
        fig.row(&[label], move || {
            let mut cfg = StackConfig::bfs(DeviceProfile::ufs());
            // fsync exercises the full commit path (allocating appends);
            // the ordering-guarantee row overwrites a warm region, where
            // most fbarrier calls degenerate to fdatabarrier and never
            // block — that is what lets the queue fill up (Fig 12(b)).
            let window = figure_window(scale);
            let stack = if sync == Fsync {
                cfg.fs.timer_tick = SimDuration::from_micros(1);
                threads_of(cfg, 1, || Box::new(Dwsl::new(sync, ENDLESS)))
            } else {
                randwrite(cfg, 1, 64, SyncEach(sync), ENDLESS)
            };
            let report = run_cell(stack, Span::Window(window)).1;
            vec![report.mean_qd, report.peak_qd]
        });
    }
    fig
}
