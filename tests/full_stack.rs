//! Workspace-level integration tests: application workloads through every
//! layer (workload generator → filesystem → block layer → device), with
//! shape assertions matching the paper's headline claims.

use std::collections::BTreeSet;

use barrier_io::{
    DeviceProfile, FileRef, FsViolation, IoStack, SimDuration, StackCaptureDelta, StackConfig,
    Topology,
};
use bio_bench::crash::{differential_cells, DiffCell};
use bio_flash::{DeviceStats, FtlStats};
use bio_workloads::{
    Dwsl, OltpInsert, RandWrite, Sqlite, SqliteJournalMode, SyncMode, Varmail, WriteMode,
};

fn sqlite_tps(cfg: StackConfig, mk: fn(SqliteJournalMode, FileRef, FileRef, u64) -> Sqlite) -> f64 {
    let mut stack = IoStack::new(cfg);
    let db = stack.create_global_file();
    let journal = stack.create_global_file();
    stack.add_thread(Box::new(mk(
        SqliteJournalMode::Persist,
        FileRef::Global(db),
        FileRef::Global(journal),
        400,
    )));
    stack.start_measuring();
    assert!(stack.run_until_done(SimDuration::from_secs(600)));
    stack.report().run.txns_per_sec()
}

#[test]
fn sqlite_substitution_ladder() {
    // EXT4-DR < BFS-DR < BFS-OD, on both device classes (Fig 14 shape).
    for dev in [DeviceProfile::ufs(), DeviceProfile::plain_ssd()] {
        let ext4 = sqlite_tps(StackConfig::ext4_dr(dev.clone()), Sqlite::durability);
        let bfs_dr = sqlite_tps(StackConfig::bfs(dev.clone()), Sqlite::barrier_durability);
        let bfs_od = sqlite_tps(StackConfig::bfs(dev.clone()), Sqlite::ordering);
        assert!(
            ext4 < bfs_dr && bfs_dr < bfs_od,
            "{}: ladder broken: EXT4-DR {ext4:.0} / BFS-DR {bfs_dr:.0} / BFS-OD {bfs_od:.0}",
            dev.name
        );
        // The paper's headline: relaxing durability is worth an order of
        // magnitude or more on the server SSD.
        if dev.name == "plain-SSD" {
            assert!(
                bfs_od > 20.0 * ext4,
                "plain-SSD: BFS-OD should dwarf EXT4-DR ({bfs_od:.0} vs {ext4:.0})"
            );
        }
    }
}

#[test]
fn dwsl_scales_better_on_barrierfs() {
    // Fig 13 shape at one point: 8 threads on plain-SSD.
    let run = |cfg: StackConfig| -> f64 {
        let mut stack = IoStack::new(cfg);
        for _ in 0..8 {
            stack.add_thread(Box::new(Dwsl::new(SyncMode::Fsync, 150)));
        }
        stack.start_measuring();
        assert!(stack.run_until_done(SimDuration::from_secs(600)));
        stack.report().run.txns_per_sec()
    };
    let ext4 = run(StackConfig::ext4_dr(DeviceProfile::plain_ssd()));
    let bfs = run(StackConfig::bfs(DeviceProfile::plain_ssd()));
    assert!(
        bfs > ext4 * 1.15,
        "BFS-DR {bfs:.0} ops/s should clearly beat EXT4-DR {ext4:.0}"
    );
}

#[test]
fn striped_dwsl_survives_a_crash_after_a_clean_run() {
    // 256 threads share each journal commit, so the descriptor+log write
    // is far longer than `stripe_blocks × nr_devices` and every device
    // receives several stripes of it: the split must hand each device
    // exactly its own stripes, or recovery reads torn transactions.
    let dev = DeviceProfile::plain_ssd();
    for (queues, devices) in [(1, 2), (4, 2)] {
        for (cfg, sync) in [
            (StackConfig::ext4_dr(dev.clone()), SyncMode::Fsync),
            (StackConfig::bfs(dev.clone()), SyncMode::Fsync),
            (
                StackConfig::bfs(dev.clone()).ordering_only(),
                SyncMode::Fbarrier,
            ),
        ] {
            let cfg = cfg.with_topology(Topology::new(queues, devices, 8));
            let label = cfg.label();
            let mut stack = IoStack::new(cfg);
            for _ in 0..256 {
                stack.add_thread(Box::new(Dwsl::new(sync, 24)));
            }
            assert!(stack.run_until_done(SimDuration::from_secs(600)));
            let violations = stack.crash().fs_violations;
            assert!(violations.is_empty(), "{label}: {violations:?}");
        }
    }
}

#[test]
fn a_returned_fsync_survives_a_crash_at_every_claim_on_several_queues() {
    // EXT4-DR commits with a FLUSH|FUA JC. On plain-SSD, an in-order-
    // recovery device, a FUA write is acknowledged only once the log
    // prefix up to it is durable, so with several queues feeding one
    // device — where no md-style flush fan-out runs — a transaction whose
    // fsync returned is in every later crash image. The crash is taken at
    // every step where a record's `durability_claimed` flips (the
    // stack's capture delta lists each flip once, whether or not the
    // record has left the window since): the image only grows in
    // between, so this sees every exposure a crash after every step
    // would.
    let dev = DeviceProfile::plain_ssd();
    for (queues, devices) in [(2, 1), (4, 1), (2, 2)] {
        let cfg =
            StackConfig::ext4_dr(dev.clone()).with_topology(Topology::new(queues, devices, 8));
        let label = cfg.label();
        let mut stack = IoStack::new(cfg);
        stack.enable_capture_tracking();
        for _ in 0..256 {
            stack.add_thread(Box::new(Dwsl::new(SyncMode::Fsync, 24)));
        }
        let (mut claimed, mut exposed) = (0, BTreeSet::new());
        let mut delta = StackCaptureDelta::default();
        while !stack.workloads_finished() && stack.step() {
            stack.drain_capture_delta(&mut delta);
            if !delta.records_marked_durable.is_empty() {
                claimed += delta.records_marked_durable.len();
                for v in stack.crash().fs_violations {
                    if let FsViolation::DurabilityLoss { txn } = v {
                        exposed.insert(txn);
                    }
                }
            }
        }
        assert!(stack.workloads_finished(), "{label}");
        assert!(claimed > 0, "{label}: no fsync returned");
        assert!(
            exposed.is_empty(),
            "{label}: {} transactions lost after their fsync returned: {exposed:?}",
            exposed.len()
        );
    }
}

#[test]
fn a_two_device_report_sums_every_device_counter() {
    // Small flash per device under overwrites: both devices relocate live
    // pages, so every FTL counter is non-zero on both and has to reach the
    // total.
    let mut dev = DeviceProfile::plain_ssd();
    dev.segments = 16;
    dev.pages_per_segment = 16;
    let cfg = StackConfig::ext4_dr(dev).with_topology(Topology::new(1, 2, 8));
    let mut stack = IoStack::new(cfg);
    let f = FileRef::Global(stack.create_global_file());
    for _ in 0..8 {
        let mode = WriteMode::SyncEach(SyncMode::Fsync);
        stack.add_thread(Box::new(RandWrite::new(f, 64, mode, 100)));
    }
    assert!(stack.run_until_done(SimDuration::from_secs(600)));
    let report = stack.report();
    assert_eq!(stack.devices().len(), 2);
    assert!(stack.devices().iter().all(|d| d.ftl_stats().gc_appends > 0));
    let (mut device, mut ftl) = (DeviceStats::default(), FtlStats::default());
    for dev in stack.devices() {
        device += dev.stats();
        ftl += dev.ftl_stats();
    }
    assert_eq!(report.device, device);
    assert_eq!(report.ftl, ftl);
}

#[test]
fn two_queues_cost_bfs_od_merging_not_half_its_throughput() {
    // What a second hardware queue does to BFS-OD, measured where the run
    // is long enough to see it (fig17's rows issue 2 writes per thread and
    // read mostly start-up): requests are routed by `id % nr_hw_queues`, so
    // the LBA-adjacent journal writes one lane would merge land on
    // alternating lanes and go out one by one. The same submitted load
    // dispatches as over ten times the commands, every one a barrier write
    // closing an epoch of its own — and costs about 5 % of the throughput,
    // not half: the cross-lane sequencer is not the bottleneck, lost
    // merging is (`docs/INVARIANTS.md`, "Known costs").
    let run = |queues: usize| {
        let cfg = StackConfig::bfs(DeviceProfile::plain_ssd())
            .ordering_only()
            .with_topology(Topology::new(queues, 1, 8));
        let mut stack = IoStack::new(cfg);
        for _ in 0..256 {
            stack.add_thread(Box::new(Dwsl::new(SyncMode::Fbarrier, 24)));
        }
        stack.start_measuring();
        assert!(stack.run_until_done(SimDuration::from_secs(600)));
        let report = stack.report();
        (report.run.txns_per_sec(), report.block)
    };
    let (one_tps, one) = run(1);
    let (two_tps, two) = run(2);
    assert!(
        two_tps >= 0.9 * one_tps,
        "2q×1dev {two_tps:.0} Tx/s fell below 0.9 × 1q×1dev {one_tps:.0}"
    );
    assert!(
        two.dispatched >= 10 * one.dispatched,
        "2q×1dev dispatched {} commands, 1q×1dev {}: merging was not lost",
        two.dispatched,
        one.dispatched
    );
    assert!(two.epochs_sequenced >= 50 * one.epochs_sequenced);
}

/// The crash explorer's trace at any length: `writes` write+sync pairs by
/// one thread over a 64-block region on the barrier UFS, run to the end,
/// left idle for five simulated seconds, then crashed. Returns the
/// violations the recovery check reports.
fn idle_crash_violations(cfg: StackConfig, sync: SyncMode, writes: u64, seed: u64) -> Vec<String> {
    let mut cfg = cfg.with_seed(seed).with_history();
    cfg.fs.timer_tick = SimDuration::from_micros(1);
    let mut stack = IoStack::new(cfg);
    let f = stack.create_global_file();
    stack.add_thread(Box::new(RandWrite::new(
        FileRef::Global(f),
        64,
        WriteMode::SyncEach(sync),
        writes,
    )));
    assert!(stack.run_until_done(SimDuration::from_secs(600)));
    stack.run_for(SimDuration::from_secs(5));
    let crash = stack.crash();
    let fs = crash.fs_violations.iter().map(|v| format!("{v:?}"));
    let epoch = crash.epoch_violations.iter().map(|v| format!("{v:?}"));
    fs.chain(epoch).collect()
}

/// The differential row with the known gap (docs/INVARIANTS.md).
const STRIPED_BFS_OD: &str = "BFS-OD/2x2";

#[test]
fn long_randwrite_trace_survives_an_idle_crash() {
    // Nothing is in flight after five idle seconds, so whatever the crash
    // loses was lost for good. The explorer's traces stop at 100 writes;
    // these go past where the journal and the device settle into a
    // steady state. (BFS-OD at 2q×2dev is the known gap below.)
    let clean = differential_cells()
        .into_iter()
        .filter(|c| c.label != STRIPED_BFS_OD);
    for DiffCell { cfg, sync, .. } in clean {
        for writes in [200, 2_000] {
            let violations = idle_crash_violations(cfg.clone(), sync, writes, 42);
            assert!(
                violations.is_empty(),
                "{} at {writes} writes: {violations:?}",
                cfg.label()
            );
        }
    }
}

#[test]
#[ignore = "known gap: BFS-OD on 2q×2dev ends long traces with torn transactions (docs/INVARIANTS.md)"]
fn long_randwrite_trace_survives_an_idle_crash_on_striped_bfs_od() {
    let cells = differential_cells();
    let striped_bfs_od = cells.iter().find(|c| c.label == STRIPED_BFS_OD);
    let DiffCell { cfg, sync, .. } = striped_bfs_od.expect("a differential row");
    for seed in [42, 7, 1234] {
        for writes in [200, 2_000] {
            let violations = idle_crash_violations(cfg.clone(), *sync, writes, seed);
            assert!(
                violations.is_empty(),
                "seed {seed} at {writes} writes: {} violations, first {:?}",
                violations.len(),
                violations.first()
            );
        }
    }
}

#[test]
fn varmail_and_oltp_follow_the_fig15_order() {
    let varmail = |cfg: StackConfig, sync: SyncMode| -> f64 {
        let mut stack = IoStack::new(cfg);
        for _ in 0..8 {
            stack.add_thread(Box::new(Varmail::new(sync, 60, 6)));
        }
        stack.start_measuring();
        assert!(stack.run_until_done(SimDuration::from_secs(600)));
        stack.report().run.txns_per_sec()
    };
    let dev = DeviceProfile::plain_ssd();
    let ext4_dr = varmail(StackConfig::ext4_dr(dev.clone()), SyncMode::Fsync);
    let bfs_dr = varmail(StackConfig::bfs(dev.clone()), SyncMode::Fsync);
    let bfs_od = varmail(StackConfig::bfs(dev.clone()), SyncMode::Fbarrier);
    assert!(
        ext4_dr < bfs_dr && bfs_dr < bfs_od,
        "varmail order broken: {ext4_dr:.0} / {bfs_dr:.0} / {bfs_od:.0}"
    );

    let oltp = |cfg: StackConfig, sync: SyncMode| -> f64 {
        let mut stack = IoStack::new(cfg);
        let t = stack.create_global_file();
        let r = stack.create_global_file();
        let b = stack.create_global_file();
        for _ in 0..4 {
            stack.add_thread(Box::new(OltpInsert::new(
                sync,
                FileRef::Global(t),
                FileRef::Global(r),
                FileRef::Global(b),
                150,
            )));
        }
        stack.start_measuring();
        assert!(stack.run_until_done(SimDuration::from_secs(600)));
        stack.report().run.txns_per_sec()
    };
    let ext4_dr = oltp(StackConfig::ext4_dr(dev.clone()), SyncMode::Fsync);
    let bfs_od = oltp(StackConfig::bfs(dev.clone()), SyncMode::Fbarrier);
    assert!(
        bfs_od > 10.0 * ext4_dr,
        "OLTP: ordering-only should dwarf full durability ({bfs_od:.0} vs {ext4_dr:.0})"
    );
}

#[test]
fn optfs_sits_between_durability_and_barrier_stacks() {
    // §6.5: OptFS beats transfer-and-flush but loses to BarrierFS-OD
    // (it still waits on transfer and pays selective data journaling).
    let dev = DeviceProfile::plain_ssd();
    let ext4_dr = sqlite_tps(StackConfig::ext4_dr(dev.clone()), Sqlite::durability);
    let optfs = sqlite_tps(StackConfig::optfs(dev.clone()), Sqlite::ordering);
    let bfs_od = sqlite_tps(StackConfig::bfs(dev.clone()), Sqlite::ordering);
    assert!(
        ext4_dr < optfs && optfs < bfs_od,
        "OptFS should sit between: EXT4-DR {ext4_dr:.0} / OptFS {optfs:.0} / BFS-OD {bfs_od:.0}"
    );
}

#[test]
fn supercap_compresses_the_gap() {
    // On a PLP device flushes are nearly free, so EXT4-DR and BFS-DR
    // converge (the paper's supercap columns are always the closest).
    let plain_gap = {
        let e = sqlite_tps(
            StackConfig::ext4_dr(DeviceProfile::plain_ssd()),
            Sqlite::durability,
        );
        let b = sqlite_tps(
            StackConfig::bfs(DeviceProfile::plain_ssd()),
            Sqlite::barrier_durability,
        );
        b / e
    };
    let supercap_gap = {
        let e = sqlite_tps(
            StackConfig::ext4_dr(DeviceProfile::supercap_ssd()),
            Sqlite::durability,
        );
        let b = sqlite_tps(
            StackConfig::bfs(DeviceProfile::supercap_ssd()),
            Sqlite::barrier_durability,
        );
        b / e
    };
    assert!(
        supercap_gap < plain_gap,
        "PLP should shrink the BFS advantage: plain {plain_gap:.2}x vs supercap {supercap_gap:.2}x"
    );
}
