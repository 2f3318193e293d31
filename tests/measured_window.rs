//! One measured window: `IoStack::start_measuring` restarts every counter
//! of the report, so warm-up + window = the whole run, field by field,
//! except the drop counters, which count the whole run in every report.
//! The drop test reads the process-wide total of `bio_bench::note_drops`,
//! so nothing else in this binary goes through it.

use barrier_io::{
    DeviceProfile, FileRef, IoStack, Op, OpKind, ScriptWorkload, SimDuration, StackConfig,
    StackReport, Topology,
};
use bio_bench::experiments::cells::{
    bfs_od, figure_window, randwrite, run_cell, threads_of, ufs_and_ssd, Preset, Span, PRESETS,
};
use bio_block::{BlockStats, LaneStats};
use bio_flash::{DeviceStats, FtlStats};
use bio_fs::FsStats;
use bio_workloads::{Dwsl, RandWrite, SyncMode, WriteMode};

const WARM: SimDuration = SimDuration::from_millis(20);
const WINDOW: SimDuration = SimDuration::from_millis(30);

/// A report's counters by kind. Gauges and lane labels are in neither.
#[derive(Default)]
struct Counters {
    /// Restart at `start_measuring`.
    windowed: Vec<(String, u64)>,
    /// Count the whole run: the five drop counters.
    whole_run: Vec<(String, u64)>,
}

/// Files `$s`, a `$ty` destructured without `..`, into `$into`: a field
/// added to `$ty` fails to compile here until it is sorted into a kind.
macro_rules! sort_fields {
    ($into:ident, $prefix:expr, $s:expr, $ty:ident {
        windowed: [$($w:ident),*], whole_run: [$($d:ident),*], neither: [$($g:ident),*] $(,)?
    }) => {{
        let $ty { $($w,)* $($d,)* $($g: _,)* } = $s;
        $($into.windowed.push((format!("{}.{}", $prefix, stringify!($w)), $w));)*
        $($into.whole_run.push((format!("{}.{}", $prefix, stringify!($d)), $d));)*
    }};
}

fn counters(r: &StackReport) -> Counters {
    let mut c = Counters::default();
    sort_fields!(
        c,
        "fs",
        r.fs,
        FsStats {
            windowed: [
                commits,
                forced_commits,
                data_blocks,
                journal_blocks,
                checkpoint_blocks,
                writeback_blocks,
                page_conflicts,
                flushes
            ],
            whole_run: [dropped_journal_events, dropped_data_pages],
            neither: [],
        }
    );
    sort_fields!(
        c,
        "block",
        r.block,
        BlockStats {
            windowed: [
                submitted,
                dispatched,
                completed,
                busy_retries,
                split_parts,
                epochs_sequenced,
                preflush_fanouts
            ],
            whole_run: [dropped_events],
            neither: [gated],
        }
    );
    for (i, &lane) in r.lanes.iter().enumerate() {
        sort_fields!(
            c,
            format!("lane{i}"),
            lane,
            LaneStats {
                windowed: [
                    dispatched,
                    busy_retries,
                    reassignments,
                    epochs_released,
                    routed
                ],
                whole_run: [],
                neither: [device, hw_queue, queued],
            }
        );
    }
    sort_fields!(
        c,
        "device",
        r.device,
        DeviceStats {
            windowed: [
                write_cmds,
                read_cmds,
                flush_cmds,
                blocks_written,
                programs,
                cache_hit_reads,
                queue_full_rejections,
                residence_ns
            ],
            whole_run: [out_of_range_writes],
            neither: [],
        }
    );
    sort_fields!(
        c,
        "ftl",
        r.ftl,
        FtlStats {
            windowed: [host_appends, gc_appends, gc_runs, erases],
            whole_run: [],
            neither: [],
        }
    );
    for kind in OpKind::ALL {
        let count = r.run.op(kind).map_or(0, |o| o.count);
        c.windowed.push((format!("run.{kind:?}"), count));
    }
    c.windowed.push(("run.txns".into(), r.run.txns));
    let wakeups = ("run.dropped_wakeups".into(), r.run.dropped_wakeups);
    c.whole_run.push(wakeups);
    c
}

/// Small flash, so garbage collection runs, and a quick pdflush, so
/// writeback does too.
fn stack(preset: Preset, sync: SyncMode) -> IoStack {
    let mut dev = DeviceProfile::plain_ssd();
    dev.segments = 32;
    dev.pages_per_segment = 32;
    let mut cfg = preset(dev).with_topology(Topology::new(2, 2, 8));
    cfg.fs.writeback_interval = SimDuration::from_millis(5);
    let mut stack = IoStack::new(cfg);
    let shared = FileRef::Global(stack.create_global_file());
    for _ in 0..4 {
        let mode = WriteMode::SyncEach(sync);
        stack.add_thread(Box::new(RandWrite::new(shared, 256, mode, u64::MAX)));
    }
    stack.add_thread(Box::new(RandWrite::new(
        shared,
        256,
        WriteMode::Buffered,
        u64::MAX,
    )));
    stack.add_thread(Box::new(Dwsl::new(sync, u64::MAX)));
    // Ops on a file no one created, dropped during the warm-up.
    let ghost = FileRef::Global(9);
    let forged = vec![
        Op::Write {
            file: ghost,
            offset: 0,
            blocks: 1,
        },
        Op::Fsync { file: ghost },
    ];
    stack.add_thread(Box::new(ScriptWorkload::once(forged)));
    stack
}

#[test]
fn warm_up_plus_window_is_the_whole_run_for_every_counter() {
    let presets: [(&str, Preset, SyncMode); 3] = [
        ("EXT4-DR", StackConfig::ext4_dr, SyncMode::Fsync),
        ("BFS-DR", StackConfig::bfs, SyncMode::Fsync),
        ("BFS-OD", bfs_od, SyncMode::Fbarrier),
    ];
    for (label, preset, sync) in presets {
        let mut warm = stack(preset, sync);
        warm.run_for(WARM);
        let mut window = stack(preset, sync);
        window.run_for(WARM);
        window.start_measuring();
        window.run_for(WINDOW);
        let mut whole = stack(preset, sync);
        whole.run_for(WARM);
        whole.run_for(WINDOW);

        // `start_measuring` moves no state: the two long runs end alike.
        assert_eq!(window.now(), whole.now(), "{label}");
        let (crash_window, crash_whole) = (window.crash(), whole.crash());
        assert_eq!(crash_window.images, crash_whole.images, "{label}");
        assert_eq!(
            crash_window.fs_violations, crash_whole.fs_violations,
            "{label}"
        );

        let [w, m, a] = [&warm, &window, &whole].map(|s| counters(&s.report()));
        assert!(m.windowed.iter().any(|c| c.0 == "fs.commits" && c.1 > 0));
        for (((name, w), (_, m)), (_, a)) in w.windowed.iter().zip(&m.windowed).zip(&a.windowed) {
            assert_eq!(
                w + m,
                *a,
                "{label} {name}: warm-up {w} + window {m} != whole run"
            );
        }
        for (((name, w), (_, m)), (_, a)) in w.whole_run.iter().zip(&m.whole_run).zip(&a.whole_run)
        {
            assert!(
                w == m && m == a,
                "{label} {name}: {w} / {m} / {a} over warm-up / window / whole run"
            );
        }
        let dropped = |c: &Counters| c.whole_run.iter().map(|c| c.1).sum::<u64>();
        assert_eq!(dropped(&m), 2, "{label}: the forged write and fsync");
    }
}

/// Flow balance over a whole idle run (no `start_measuring`): every block
/// the filesystem wrote reached a device, every request the block layer
/// took in completed, and the device queues obey Little's law — the
/// time-weighted queue depth is the commands' summed residence.
#[test]
fn every_block_written_reaches_a_device_and_every_request_completes() {
    let topologies = [Topology::single(), Topology::new(2, 2, 16)];
    for (preset, sync) in PRESETS {
        for dev in ufs_and_ssd() {
            for topology in topologies {
                let cfg = preset(dev.clone()).with_topology(topology);
                let label = cfg.label();
                let mut stack = randwrite(cfg, 4, 256, WriteMode::SyncEach(sync), 300);
                assert!(stack.run_until_done(SimDuration::from_secs(60)), "{label}");
                stack.run_for(SimDuration::from_secs(5));
                let r = stack.report();
                let fs = r.fs.data_blocks
                    + r.fs.journal_blocks
                    + r.fs.checkpoint_blocks
                    + r.fs.writeback_blocks;
                assert_eq!(fs, r.device.blocks_written, "{label}: blocks");
                assert_eq!(r.block.submitted, r.block.completed, "{label}: requests");
                let depth_ns =
                    r.mean_qd * topology.nr_devices as f64 * stack.now().as_nanos() as f64;
                let residence_ns = r.device.residence_ns as f64;
                assert!(
                    (depth_ns - residence_ns).abs() <= 1e-9 * residence_ns,
                    "{label}: queue-depth integral {depth_ns} != residence {residence_ns}"
                );
            }
        }
    }
}

#[test]
fn a_warm_up_drop_stays_loud_while_the_warm_up_work_leaves_the_window() {
    let ghost = FileRef::Global(9);
    let file = FileRef::Global(0);
    let script = vec![
        Op::Write {
            file: ghost,
            offset: 0,
            blocks: 1,
        },
        Op::Fsync { file: ghost },
        Op::Write {
            file,
            offset: 0,
            blocks: 1,
        },
        Op::Fsync { file },
        Op::TxnMark,
    ];
    let cfg = StackConfig::ext4_dr(DeviceProfile::ufs());
    let stack = threads_of(cfg, 1, || Box::new(ScriptWorkload::once(script.clone())));
    let report = run_cell(stack, Span::Window(figure_window(1))).1;
    // Everything the thread did happened in the warm-up…
    assert_eq!(report.run.txns, 0);
    assert_eq!(report.fs.commits, 0);
    assert_eq!(report.fs.data_blocks, 0);
    // …but what it dropped there still counts, and is printed.
    assert_eq!(report.fs.dropped_journal_events, 2);
    assert_eq!(bio_bench::dropped_events(), 2);
    let block = bio_bench::drop_warning().expect("a warning block");
    let line = "FsStats::dropped_journal_events = 2 in EXT4-DR@UFS";
    assert!(block.contains(line), "{block}");
}
