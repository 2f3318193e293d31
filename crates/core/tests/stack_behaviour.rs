//! Full-stack behaviour tests: the paper's qualitative claims, verified
//! end to end on the assembled simulator.

use barrier_io::{
    DeviceProfile, FileRef, FnWorkload, IoStack, Op, OpKind, ScriptWorkload, SimDuration,
    StackConfig,
};

fn write_fsync_script(file: FileRef, n: u64) -> ScriptWorkload {
    ScriptWorkload::repeat(
        vec![
            Op::Write {
                file,
                offset: 0,
                blocks: 1,
            },
            Op::Fsync { file },
            Op::TxnMark,
        ],
        n,
    )
}

/// Runs `write(); fsync()` transactions and returns (mean fsync latency
/// in µs, switches per fsync).
fn fsync_profile(cfg: StackConfig, n: u64) -> (f64, f64) {
    let mut stack = IoStack::new(cfg);
    let f = stack.create_global_file();
    stack.add_thread(Box::new(write_fsync_script(FileRef::Global(f), n)));
    stack.start_measuring();
    assert!(
        stack.run_until_done(SimDuration::from_secs(600)),
        "workload did not finish"
    );
    let report = stack.report();
    let fsync = report.run.op(OpKind::Fsync).expect("fsync ran");
    (fsync.latency.mean.as_micros_f64(), fsync.switches_per_op)
}

#[test]
fn barrierfs_fsync_is_faster_than_ext4_everywhere() {
    // Force the full journal-commit path (tiny timestamp granularity) so
    // the dual-mode-vs-legacy commit pipelines are what is compared.
    for device in [
        DeviceProfile::ufs(),
        DeviceProfile::plain_ssd(),
        DeviceProfile::supercap_ssd(),
    ] {
        let mut e = StackConfig::ext4_dr(device.clone());
        e.fs.timer_tick = SimDuration::from_micros(1);
        let mut b = StackConfig::bfs(device.clone());
        b.fs.timer_tick = SimDuration::from_micros(1);
        let (ext4, _) = fsync_profile(e, 300);
        let (bfs, _) = fsync_profile(b, 300);
        assert!(
            bfs < ext4,
            "{}: BFS fsync {bfs:.0}us should beat EXT4 {ext4:.0}us",
            device.name
        );
    }
}

#[test]
fn ext4_fsync_costs_about_two_context_switches() {
    let (_, switches) = fsync_profile(StackConfig::ext4_dr(DeviceProfile::ufs()), 300);
    assert!(
        (1.5..=2.5).contains(&switches),
        "EXT4-DR switches/op = {switches}"
    );
}

#[test]
fn fdatabarrier_never_blocks() {
    let mut stack = IoStack::new(StackConfig::bfs(DeviceProfile::plain_ssd()));
    let f = stack.create_global_file();
    stack.add_thread(Box::new(ScriptWorkload::repeat(
        vec![
            Op::Write {
                file: FileRef::Global(f),
                offset: 0,
                blocks: 1,
            },
            Op::Fdatabarrier {
                file: FileRef::Global(f),
            },
        ],
        500,
    )));
    stack.start_measuring();
    assert!(stack.run_until_done(SimDuration::from_secs(60)));
    let report = stack.report();
    let fdb = report.run.op(OpKind::Fdatabarrier).expect("ran");
    assert_eq!(fdb.count, 500);
    assert_eq!(
        fdb.switches_per_op, 0.0,
        "fdatabarrier must not sleep (it returned Done every time)"
    );
    // And it is nearly free: mean latency is zero (no blocking).
    assert_eq!(fdb.latency.mean.as_nanos(), 0);
}

#[test]
fn barrier_write_throughput_beats_wait_on_transfer() {
    // Fig 9's B-vs-XnF shape: ordering via fdatabarrier outruns ordering
    // via fdatasync by a wide margin on every device.
    let script_barrier = |f: FileRef| {
        ScriptWorkload::repeat(
            vec![
                Op::Write {
                    file: f,
                    offset: 0,
                    blocks: 1,
                },
                Op::Fdatabarrier { file: f },
            ],
            400,
        )
    };
    let script_flush = |f: FileRef| {
        ScriptWorkload::repeat(
            vec![
                Op::Write {
                    file: f,
                    offset: 0,
                    blocks: 1,
                },
                Op::Fdatasync { file: f },
            ],
            400,
        )
    };
    for device in [DeviceProfile::ufs(), DeviceProfile::plain_ssd()] {
        let mut barrier = IoStack::new(StackConfig::bfs(device.clone()));
        let f = barrier.create_global_file();
        barrier.add_thread(Box::new(script_barrier(FileRef::Global(f))));
        barrier.start_measuring();
        assert!(barrier.run_until_done(SimDuration::from_secs(600)));
        let t_barrier = barrier.now();

        let mut flush = IoStack::new(StackConfig::ext4_dr(device.clone()));
        let f = flush.create_global_file();
        flush.add_thread(Box::new(script_flush(FileRef::Global(f))));
        flush.start_measuring();
        assert!(flush.run_until_done(SimDuration::from_secs(600)));
        let t_flush = flush.now();

        assert!(
            t_barrier.as_nanos() * 2 < t_flush.as_nanos(),
            "{}: barrier run {} should be >2x faster than flush run {}",
            device.name,
            t_barrier,
            t_flush
        );
    }
}

#[test]
fn dual_mode_journaling_overlaps_commits() {
    // Threads fbarrier fresh files (no hot inode buffers, so no page
    // conflicts): BarrierFS must keep more than one transaction in the
    // committing list at some point — the "more than one committing
    // transactions in flight" property of §4.2.
    let mut stack = IoStack::new(StackConfig::bfs(DeviceProfile::plain_ssd()));
    for _ in 0..8 {
        let script = vec![
            Op::Create { slot: 0 },
            Op::Write {
                file: FileRef::Slot(0),
                offset: 0,
                blocks: 1,
            },
            Op::Fbarrier {
                file: FileRef::Slot(0),
            },
        ];
        stack.add_thread(Box::new(ScriptWorkload::repeat(script, 50)));
    }
    let mut max_committing = 0;
    // Step manually so we can observe the committing list.
    let deadline = SimDuration::from_secs(120);
    stack.start_measuring();
    let start = stack.now();
    while stack.now().saturating_since(start) < deadline {
        if !stack.step() {
            break;
        }
        max_committing = max_committing.max(stack.fs().committing_count());
    }
    assert!(
        max_committing > 1,
        "BarrierFS should overlap commits (max committing = {max_committing})"
    );
}

#[test]
fn barrier_stack_survives_random_crashes() {
    for seed in 0..10u64 {
        let mut cfg = StackConfig::bfs(DeviceProfile::ufs())
            .with_seed(seed)
            .with_history();
        cfg.fs.timer_tick = SimDuration::from_micros(1); // force full commits
        let mut stack = IoStack::new(cfg);
        let f = stack.create_global_file();
        stack.add_thread(Box::new(ScriptWorkload::repeat(
            vec![
                Op::Write {
                    file: FileRef::Global(f),
                    offset: 0,
                    blocks: 2,
                },
                Op::Fbarrier {
                    file: FileRef::Global(f),
                },
            ],
            50,
        )));
        // Crash mid-run at a seed-dependent point.
        stack.run_for(SimDuration::from_millis(5 + seed * 7));
        let crash = stack.crash();
        assert!(
            crash.fs_violations.is_empty(),
            "seed {seed}: BarrierFS violated crash consistency: {:?}",
            crash.fs_violations
        );
        assert!(
            crash.epoch_violations.is_empty(),
            "seed {seed}: device violated epoch order"
        );
    }
}

#[test]
fn nobarrier_on_orderless_device_violates_ordering() {
    // EXT4-OD on a device without barrier support: some crash must show a
    // commit-order or torn-transaction violation (the risk the paper's
    // stack eliminates).
    let mut violated = false;
    for seed in 0..30u64 {
        let mut device =
            DeviceProfile::ufs().with_barrier_mode(barrier_io::BarrierMode::Unsupported);
        device.cache_blocks = 48; // keep the destage engine busy mid-run
        let mut cfg = StackConfig::ext4_od(device).with_seed(seed);
        cfg.fs.timer_tick = SimDuration::from_micros(1);
        let mut stack = IoStack::new(cfg);
        let f = stack.create_global_file();
        stack.add_thread(Box::new(ScriptWorkload::repeat(
            vec![
                Op::Write {
                    file: FileRef::Global(f),
                    offset: seed * 8, // fresh blocks each seed: no coalescing
                    blocks: 4,
                },
                Op::Fsync {
                    file: FileRef::Global(f),
                },
            ],
            80,
        )));
        stack.run_for(SimDuration::from_millis(4 + seed * 3));
        let crash = stack.crash();
        if !crash.fs_violations.is_empty() {
            violated = true;
            break;
        }
    }
    assert!(
        violated,
        "nobarrier on an orderless device never violated consistency in 30 crashes"
    );
}

#[test]
fn ext4_full_flush_is_crash_consistent() {
    for seed in 0..8u64 {
        let mut cfg = StackConfig::ext4_dr(DeviceProfile::ufs()).with_seed(seed);
        cfg.fs.timer_tick = SimDuration::from_micros(1);
        let mut stack = IoStack::new(cfg);
        let f = stack.create_global_file();
        stack.add_thread(Box::new(write_fsync_script(FileRef::Global(f), 50)));
        stack.run_for(SimDuration::from_millis(5 + seed * 11));
        let crash = stack.crash();
        assert!(
            crash.fs_violations.is_empty(),
            "seed {seed}: EXT4 full flush violated: {:?}",
            crash.fs_violations
        );
    }
}

#[test]
fn deterministic_given_seed() {
    let run = |seed: u64| -> (u64, u64) {
        let mut stack = IoStack::new(StackConfig::bfs(DeviceProfile::plain_ssd()).with_seed(seed));
        let f = stack.create_global_file();
        stack.add_thread(Box::new(write_fsync_script(FileRef::Global(f), 100)));
        stack.run_until_done(SimDuration::from_secs(120));
        (
            stack.now().as_nanos(),
            stack.device_at(0).stats().blocks_written,
        )
    };
    assert_eq!(run(1), run(1), "same seed must reproduce exactly");
    assert_ne!(run(1), run(2), "different seeds should differ");
}

/// `run_until_done` looks at the threads before it pops: entered with
/// every thread already finished it consumes nothing, like the loop
/// `while !workloads_finished() { step() }`, although the filesystem's
/// periodic timers are always queued.
#[test]
fn run_until_done_on_a_finished_stack_consumes_nothing() {
    let mut stack = IoStack::new(StackConfig::ext4_dr(DeviceProfile::plain_ssd()));
    let f = stack.create_global_file();
    stack.add_thread(Box::new(write_fsync_script(FileRef::Global(f), 10)));
    assert!(stack.run_until_done(SimDuration::from_secs(60)));
    let stopped_at = stack.now();
    assert!(stack.run_until_done(SimDuration::from_secs(60)));
    assert_eq!(stack.now(), stopped_at, "an event past the finish ran");
    assert!(stack.step(), "a timer was still queued to be consumed");
}

#[test]
fn workload_closure_api_works() {
    let mut stack = IoStack::new(StackConfig::ext4_dr(DeviceProfile::supercap_ssd()));
    let f = stack.create_global_file();
    let mut left = 50u64;
    stack.add_thread(Box::new(FnWorkload(move |rng: &mut bio_sim::SimRng| {
        if left == 0 {
            return None;
        }
        left -= 1;
        Some(if left % 2 == 0 {
            Op::Write {
                file: FileRef::Global(f),
                offset: rng.below(64),
                blocks: 1,
            }
        } else {
            Op::Fdatasync {
                file: FileRef::Global(f),
            }
        })
    })));
    assert!(stack.run_until_done(SimDuration::from_secs(60)));
    assert!(stack.device_at(0).stats().blocks_written > 0);
}

/// `Op::Write { blocks: 0 }` is input from outside (any `ScriptWorkload`
/// can carry it): the run completes and the op is reported like any other
/// write, with nothing reaching the device for it.
#[test]
fn zero_length_write_runs_to_completion() {
    let mut stack = IoStack::new(StackConfig::bfs(DeviceProfile::plain_ssd()));
    let file = FileRef::Global(stack.create_global_file());
    stack.add_thread(Box::new(ScriptWorkload::repeat(
        vec![
            Op::Write {
                file,
                offset: 7,
                blocks: 0,
            },
            Op::Fdatabarrier { file },
        ],
        5,
    )));
    stack.start_measuring();
    assert!(stack.run_until_done(SimDuration::from_secs(60)));
    let report = stack.report();
    assert_eq!(report.run.op(OpKind::Write).expect("reported").count, 5);
    assert_eq!(report.fs.data_blocks, 0);
}
