//! Whole-stack allocation census: heap allocations per 1,000 events of
//! `IoStack::step()` in steady state, counted exactly and independent of
//! the machine. The device alone is held to zero by `bio-flash`'s
//! `alloc_steady_state`; the stack above it does allocate — a payload `Vec`
//! per write, a commit's `TxnRecord` block list, a merged request's id
//! list — and this test pins how much: each ceiling is the count measured
//! when a front merge began prepending into the payload vector it already
//! has instead of cloning a new one, rounded up. Before that the two
//! 64-thread cells read 167.2 / 230.1 (the other three did not move);
//! before a `TxnRecord` became one allocation (its descriptor tags a run,
//! its three block lists one boxed slice) the five read 210.2 / 220.6 /
//! 168.2 / 167.7 / 232.7 per 1,000 events; before the device's folded
//! base became a direct-indexed block map and a file's written-back
//! blocks a run list, 216.8 / 227.1 / 168.2 / 170.0 / 237.4; before an
//! unmerged request held its one id inline, 434.5 / 463.7 / 334.7 /
//! 316.0 / 436.7. Lower a ceiling when a change earns
//! it; never raise one without saying why.
//!
//! A second census nets the bytes a rate-bounded stack allocates against
//! those it frees, per commit over a steady window: what a long run keeps
//! live as simulated time passes. A third nets them per file over a
//! create → write → fsync → unlink loop: what a file leaves behind once
//! it is gone. A fourth compares two stacks that differ only in the
//! device's segment count, built and run inside the count: what a modeled
//! segment costs a stack that never writes it.
//!
//! The counting allocator is `counting_alloc/mod.rs`, shared with the
//! crash-point census in `bio-bench`. It counts per thread and only while
//! armed: inside `step()`, and for the per-segment line around the
//! stack's construction too.
//!
//! Run with `--nocapture` to print the eight census lines.

use barrier_io::{
    DeviceProfile, FileRef, IoStack, Op, ScriptWorkload, SimDuration, StackConfig, Topology,
};
use bio_fs::FileId;

mod counting_alloc;

/// Simulated warm-up before counting: caches, tables and scratch buffers
/// reach their working size.
const WARM_UP: SimDuration = SimDuration::from_millis(300);
/// Events counted per cell.
const EVENTS: u64 = 200_000;

/// `threads` threads, each looping `write(1 block); sync(); txn` on its own
/// pre-created file. Returns `(allocations, reallocations)` over [`EVENTS`]
/// steady-state events.
fn census(cfg: StackConfig, threads: usize, sync: fn(FileRef) -> Op) -> (u64, u64) {
    let mut stack = IoStack::new(cfg);
    for _ in 0..threads {
        let file = FileRef::Global(stack.create_global_file());
        let write = Op::Write {
            file,
            offset: 0,
            blocks: 1,
        };
        stack.add_thread(Box::new(ScriptWorkload::forever(vec![
            write,
            sync(file),
            Op::TxnMark,
        ])));
    }
    stack.run_for(WARM_UP);
    let ((), counts) = counting_alloc::counted(|| {
        for _ in 0..EVENTS {
            assert!(stack.step(), "a `forever` workload never runs dry");
        }
    });
    (counts.allocs, counts.reallocs)
}

/// Runs one cell, prints its census line and holds it to `ceiling`
/// allocations per 1,000 events.
fn check(cell: &str, cfg: StackConfig, threads: usize, sync: fn(FileRef) -> Op, ceiling: u64) {
    let (allocs, reallocs) = census(cfg, threads, sync);
    let per_1k = |n: u64| n as f64 * 1000.0 / EVENTS as f64;
    println!(
        "alloc census: {cell}: {:.1} allocs + {:.1} reallocs per 1k events \
         ({allocs} + {reallocs} in {EVENTS})",
        per_1k(allocs),
        per_1k(reallocs),
    );
    assert!(
        allocs * 1000 <= ceiling * EVENTS,
        "{cell}: {allocs} allocations in {EVENTS} events, above {ceiling} per 1,000"
    );
}

#[test]
fn steady_state_allocations_stay_at_or_below_their_ceilings() {
    let ssd = DeviceProfile::plain_ssd;
    let mq = Topology::new(2, 2, 16);
    let fsync = |file| Op::Fsync { file };
    let fbarrier = |file| Op::Fbarrier { file };
    let fdatabarrier = |file| Op::Fdatabarrier { file };
    let bfs_od = |dev| StackConfig::bfs(dev).ordering_only();
    check(
        "EXT4-DR 1 thread fsync",
        StackConfig::ext4_dr(ssd()),
        1,
        fsync,
        170,
    );
    check(
        "BFS-DR 1 thread fsync",
        StackConfig::bfs(ssd()),
        1,
        fsync,
        184,
    );
    check(
        "BFS-OD 1 thread fdatabarrier",
        bfs_od(ssd()),
        1,
        fdatabarrier,
        169,
    );
    check(
        "BFS-OD 64 threads fbarrier 2q x 2dev",
        bfs_od(ssd()).with_topology(mq),
        64,
        fbarrier,
        163,
    );
    check(
        "EXT4-DR 64 threads fsync 2q x 2dev",
        StackConfig::ext4_dr(ssd()).with_topology(mq),
        64,
        fsync,
        220,
    );
}

/// Commits before the retained-bytes window opens, and the window's
/// length, both counted by `Filesystem::record_count` (every record ever
/// appended: the record window itself stops growing once the journal
/// wraps). By then the journal (8,192 blocks, three a commit) has wrapped,
/// so no new journal address is mapped inside the window and the record
/// history retires about one record per commit it appends.
const RETAIN_FROM: usize = 4096;

/// What one commit of a rate-bounded stack leaves live, in bytes, at most.
/// What grows with simulated time is the FTL's reverse map (4 B per
/// programmed page, five pages a commit, allocated a segment at a time
/// until GC recycles segments). The record history no longer does: it
/// keeps the records a crash verdict can still read, about as many as the
/// journal holds commits. The window read 19.2 when this ceiling was set;
/// 67.4 with 12 B reverse-map slots (a `u32` address and a `BlockTag`);
/// 90.8 with 16 B reverse-map slots and 8 B forward-map entries; 223.2
/// while the history kept every `TxnRecord` (80 B inline plus one 32 B
/// block list per commit here); 599.2 before that, with the device's
/// always-on queue-depth trace, 136 B records, their three lists in three
/// allocations and 24 B reverse-map slots. Any of those coming back fails
/// it.
const RETAINED_PER_COMMIT: f64 = 19.3;

#[test]
fn a_rate_bounded_stack_retains_little_per_commit() {
    // One EXT4-DR thread committing one overwritten block every ~1 ms:
    // the device and journal idle between commits, like `oltp_hour`.
    let mut stack = IoStack::new(StackConfig::ext4_dr(DeviceProfile::plain_ssd()));
    let file = FileRef::Global(stack.create_global_file());
    let write = Op::Write {
        file,
        offset: 0,
        blocks: 1,
    };
    let think = Op::Think {
        dur: SimDuration::from_millis(1),
    };
    stack.add_thread(Box::new(ScriptWorkload::forever(vec![
        write,
        Op::Fsync { file },
        Op::TxnMark,
        think,
    ])));
    while stack.fs().record_count() < RETAIN_FROM {
        assert!(stack.step(), "a `forever` workload never runs dry");
    }
    let ((), counts) = counting_alloc::counted(|| {
        while stack.fs().record_count() < 2 * RETAIN_FROM {
            assert!(stack.step(), "a `forever` workload never runs dry");
        }
    });
    let per_commit = counts.net_bytes as f64 / RETAIN_FROM as f64;
    println!(
        "alloc census: EXT4-DR 1 thread fsync, 1 ms think: {per_commit:.1} bytes retained per \
         commit ({} over {RETAIN_FROM} commits)",
        counts.net_bytes
    );
    assert!(
        per_commit <= RETAINED_PER_COMMIT,
        "{per_commit:.1} bytes retained per commit, above {RETAINED_PER_COMMIT}"
    );
}

/// Files created before the per-file window opens, and the window's
/// length: the window spans exactly one doubling of the file table, so the
/// table's growth inside it is one slot per file created.
const FILES_FROM: u32 = 4096;

/// What one created-then-unlinked file leaves live, in bytes, at most: its
/// 128-byte slot in the file table and the device's share of the fresh
/// blocks it wrote (no data block or inode is reused). The window read
/// 212.5 when this ceiling was set; 268.7 with 12 B reverse-map slots;
/// 304.1 with 16 B reverse-map slots and
/// 8 B forward-map entries; 528.1 while an unlinked file kept its extent
/// list, written-back runs and dirty-page buffer (96 + 64 + 64 B).
const RETAINED_PER_FILE: f64 = 212.6;

#[test]
fn an_unlinked_file_retains_little() {
    // One EXT4-DR thread: create, write one block, fsync, unlink, forever.
    let mut stack = IoStack::new(StackConfig::ext4_dr(DeviceProfile::plain_ssd()));
    let file = FileRef::Slot(0);
    stack.add_thread(Box::new(ScriptWorkload::forever(vec![
        Op::Create { slot: 0 },
        Op::Write {
            file,
            offset: 0,
            blocks: 1,
        },
        Op::Fsync { file },
        Op::Unlink { file },
    ])));
    let created = |stack: &IoStack, n: u32| stack.fs().file(FileId(n - 1)).is_some();
    while !created(&stack, FILES_FROM) {
        assert!(stack.step(), "a `forever` workload never runs dry");
    }
    let ((), counts) = counting_alloc::counted(|| {
        while !created(&stack, 2 * FILES_FROM) {
            assert!(stack.step(), "a `forever` workload never runs dry");
        }
    });
    let per_file = counts.net_bytes as f64 / f64::from(FILES_FROM);
    println!(
        "alloc census: EXT4-DR create, write, fsync, unlink: {per_file:.1} bytes retained per \
         file ({} over {FILES_FROM} files)",
        counts.net_bytes
    );
    assert!(
        per_file <= RETAINED_PER_FILE,
        "{per_file:.1} bytes retained per file, above {RETAINED_PER_FILE}"
    );
}

/// Segment counts a plain-SSD stack is built with: the preset's 512, and
/// the 16,384 of the 32 GiB device the benchmark's `oltp_hour` models.
const SEGMENTS: [usize; 2] = [512, 16 * 1024];

/// What one modeled segment costs a stack, in bytes, at most. The FTL
/// keeps a table entry and a reverse map only for the segments a run
/// opens, and its forward map grows with the addresses written, so the
/// two stacks below retain the same bytes. The line read 57.0 while the
/// FTL built every segment's 48 B entry and an 8 B free-list slot up
/// front and sized its forward map's page directory from the capacity.
const RETAINED_PER_SEGMENT: f64 = 0.0;

#[test]
fn a_stack_retains_nothing_per_modeled_segment() {
    // The same one-thread EXT4-DR run, built and stepped inside the count
    // on both devices: 256 commits of one overwritten block, fewer pages
    // than a segment holds times the segments either device opens.
    let retained = |segments: usize| {
        let mut dev = DeviceProfile::plain_ssd();
        dev.segments = segments;
        let (stack, counts) = counting_alloc::counted(|| {
            let mut stack = IoStack::new(StackConfig::ext4_dr(dev));
            let file = FileRef::Global(stack.create_global_file());
            let write = Op::Write {
                file,
                offset: 0,
                blocks: 1,
            };
            stack.add_thread(Box::new(ScriptWorkload::forever(vec![
                write,
                Op::Fsync { file },
                Op::TxnMark,
            ])));
            while stack.fs().record_count() < 256 {
                assert!(stack.step(), "a `forever` workload never runs dry");
            }
            stack
        });
        drop(stack);
        counts.net_bytes
    };
    let [small, large] = SEGMENTS.map(retained);
    let per_segment = (large - small) as f64 / (SEGMENTS[1] - SEGMENTS[0]) as f64;
    println!(
        "alloc census: EXT4-DR plain-SSD, {} -> {} segments: {per_segment:.1} bytes retained per \
         segment ({small} -> {large} bytes)",
        SEGMENTS[0], SEGMENTS[1]
    );
    assert!(
        per_segment <= RETAINED_PER_SEGMENT,
        "{per_segment:.1} bytes retained per modeled segment, above {RETAINED_PER_SEGMENT}"
    );
}
