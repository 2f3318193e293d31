//! Behaviour lock for the journal and the dirty tracker.
//!
//! The journal is driven through seeded random syscall traces under a
//! deterministic mini event loop, and every observable — the full timed
//! action log, aggregate statistics, and the ground-truth transaction
//! records the crash checker consumes — is folded into a checked-in
//! golden hash per filesystem mode. The hash runs over an explicit field
//! projection, never `Debug` text, so it moves only when behaviour does.
//! Container semantics of the transaction table (stale and retired keys
//! included) are property-tested against a `HashMap` where the container
//! lives, in `crates/sim/tests/seq_table_props.rs`.

use bio_block::{BlockRequest, ReqOp};
use bio_flash::{BlockTag, Lba};
use bio_fs::{
    ActionSink, Filesystem, FsAction, FsConfig, FsEvent, FsMode, FsStats, SyscallOutcome, ThreadId,
    TxnRecord,
};
use bio_sim::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

const THREADS: u32 = 4;
const REQ_LATENCY: SimDuration = SimDuration::from_micros(80);

/// One generated syscall: `(op, file, offset, blocks, burst)`.
type OpTuple = (u8, u8, u64, u64, u8);

/// FNV-1a over `u64` words. Callers feed it named fields one by one, so
/// a struct gaining or losing a field cannot move a hash by itself.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn blocks(&mut self, blocks: &[(Lba, BlockTag)]) {
        self.word(blocks.len() as u64);
        for (lba, tag) in blocks {
            self.word(lba.0);
            self.word(tag.0);
        }
    }

    fn tags(&mut self, tags: &[BlockTag]) {
        self.word(tags.len() as u64);
        for t in tags {
            self.word(t.0);
        }
    }

    fn event(&mut self, ev: FsEvent) {
        let (kind, arg) = match ev {
            FsEvent::ReqDone(id) => (0, id.0),
            FsEvent::Step(tid) => (1, u64::from(tid.0)),
            FsEvent::CommitRun => (2, 0),
            FsEvent::Pdflush => (3, 0),
            FsEvent::OptfsFlush => (4, 0),
        };
        self.word(kind);
        self.word(arg);
    }

    fn request(&mut self, r: &BlockRequest) {
        self.word(r.id.0);
        let f = r.flags;
        self.word(
            u64::from(f.ordered)
                | u64::from(f.barrier) << 1
                | u64::from(f.fua) << 2
                | u64::from(f.preflush) << 3,
        );
        match &r.op {
            ReqOp::Write { start, tags } => {
                self.word(0);
                self.word(start.0);
                self.tags(tags);
            }
            ReqOp::Read { start, count } => {
                self.word(1);
                self.word(start.0);
                self.word(*count);
            }
            ReqOp::Flush => self.word(2),
        }
    }

    fn action(&mut self, now: SimTime, a: &FsAction) {
        self.word(now.as_nanos());
        match a {
            FsAction::Submit(r) => {
                self.word(0);
                self.request(r);
            }
            FsAction::After(d, ev) => {
                self.word(1);
                self.word(d.as_nanos());
                self.event(*ev);
            }
            FsAction::Wake(tid) => {
                self.word(2);
                self.word(u64::from(tid.0));
            }
            FsAction::CtxSwitch(tid) => {
                self.word(3);
                self.word(u64::from(tid.0));
            }
        }
    }

    fn stats(&mut self, s: FsStats) {
        let FsStats {
            commits,
            forced_commits,
            data_blocks,
            journal_blocks,
            checkpoint_blocks,
            writeback_blocks,
            page_conflicts,
            flushes,
            dropped_journal_events,
            dropped_data_pages,
        } = s;
        for w in [
            commits,
            forced_commits,
            data_blocks,
            journal_blocks,
            checkpoint_blocks,
            writeback_blocks,
            page_conflicts,
            flushes,
            dropped_journal_events,
            dropped_data_pages,
        ] {
            self.word(w);
        }
    }

    fn record(&mut self, r: &TxnRecord) {
        // The block lists are private, read through their accessors.
        let TxnRecord {
            id,
            jd_lba,
            jd_tags,
            jc_lba,
            jc_tag,
            durability_claimed,
            ..
        } = r;
        self.word(*id);
        self.word(jd_lba.0);
        self.tags(&jd_tags.iter().collect::<Vec<_>>());
        self.word(jc_lba.0);
        self.word(jc_tag.0);
        self.blocks(r.meta_home());
        self.blocks(r.data_home());
        self.blocks(r.ordered_data());
        self.word(u64::from(*durability_claimed));
    }
}

/// Deterministic mini event loop around one filesystem instance.
struct Driver {
    fs: Filesystem,
    /// Pending `(time, seq, event)`; popped in `(time, seq)` order.
    pending: Vec<(u128, u64, FsEvent)>,
    next_seq: u64,
    now: SimTime,
    free: Vec<ThreadId>,
    /// Running hash of the timed log of everything the filesystem
    /// emitted and every syscall outcome.
    log: Fnv,
}

impl Driver {
    fn new(fs: Filesystem) -> Driver {
        Driver {
            fs,
            pending: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            free: (0..THREADS).map(ThreadId).collect(),
            log: Fnv::new(),
        }
    }

    fn absorb(&mut self, out: &mut ActionSink<FsAction>) {
        let actions: Vec<FsAction> = out.iter().cloned().collect();
        out.clear();
        for a in actions {
            self.log.action(self.now, &a);
            match a {
                FsAction::Submit(r) => {
                    // Every fifth request's completion is delivered a
                    // second time, after the first retired its id: a
                    // replayed interrupt must drop, not alias a newer
                    // request through the tables' window base.
                    let deliveries = if r.id.0 % 5 == 0 { 2 } else { 1 };
                    for i in 1..=deliveries {
                        let at = (self.now + REQ_LATENCY * i).as_nanos() as u128;
                        self.pending
                            .push((at, self.next_seq, FsEvent::ReqDone(r.id)));
                        self.next_seq += 1;
                    }
                }
                FsAction::After(d, ev) => {
                    let at = (self.now + d).as_nanos() as u128;
                    self.pending.push((at, self.next_seq, ev));
                    self.next_seq += 1;
                }
                FsAction::Wake(tid) => {
                    if !self.free.contains(&tid) {
                        self.free.push(tid);
                    }
                }
                FsAction::CtxSwitch(_) => {}
            }
        }
    }

    /// Handles the earliest pending event; false when none remain.
    fn step(&mut self) -> bool {
        let Some(best) = (0..self.pending.len()).min_by_key(|&i| {
            let (t, s, _) = self.pending[i];
            (t, s)
        }) else {
            return false;
        };
        let (t, _, ev) = self.pending.remove(best);
        self.now = SimTime::from_nanos(t as u64);
        let mut out = ActionSink::new();
        self.fs.handle(ev, self.now, &mut out);
        self.absorb(&mut out);
        true
    }

    /// Claims a free thread, draining events until one frees up.
    fn claim_thread(&mut self) -> ThreadId {
        loop {
            if let Some(tid) = self.free.pop() {
                return tid;
            }
            assert!(
                self.step(),
                "all threads blocked with no pending events: lost wake"
            );
        }
    }

    fn drain(&mut self) {
        let mut guard = 0;
        while self.step() {
            guard += 1;
            assert!(guard < 100_000, "event loop failed to quiesce");
        }
    }
}

/// Runs one full trace against a filesystem and returns the hash of its
/// observables: timed action log, syscall outcomes, stats and records.
fn run_trace(mut fs: Filesystem, ops: &[OpTuple]) -> u64 {
    let mut out = ActionSink::new();
    let files = [
        fs.create(ThreadId(0), &mut out),
        fs.create(ThreadId(0), &mut out),
        fs.create(ThreadId(0), &mut out),
    ];
    let mut d = Driver::new(fs);
    d.absorb(&mut out);
    for &(op, file_sel, offset, blocks, burst) in ops {
        let file = files[(file_sel % 3) as usize];
        let tid = d.claim_thread();
        let mut out = ActionSink::new();
        let now = d.now;
        let outcome = match op % 7 {
            // Writes dominate so transactions actually fill up.
            0 | 1 => {
                d.fs.write(tid, file, offset % 48, 1 + blocks % 4, now, &mut out)
            }
            2 => d.fs.fsync(tid, file, now, &mut out),
            3 => d.fs.fdatasync(tid, file, now, &mut out),
            4 => d.fs.fbarrier(tid, file, now, &mut out),
            5 => d.fs.fdatabarrier(tid, file, now, &mut out),
            _ => d.fs.read(tid, file, offset % 64, 1 + blocks % 2, &mut out),
        };
        d.log.word(now.as_nanos());
        d.log.word(u64::from(op % 7));
        d.log.word(u64::from(outcome == SyscallOutcome::Blocked));
        if outcome == SyscallOutcome::Done {
            d.free.push(tid);
        }
        d.absorb(&mut out);
        // Interleave: let a random-sized burst of completions land before
        // the next syscall so commits overlap with new work.
        for _ in 0..burst % 4 {
            if !d.step() {
                break;
            }
        }
    }
    d.drain();
    let mut h = d.log;
    h.stats(d.fs.stats());
    h.word(d.fs.records().len() as u64);
    for r in d.fs.records() {
        h.record(r);
    }
    h.0
}

/// Trace `i` of the golden set: 5..60 seeded syscalls.
fn golden_trace(i: u64) -> Vec<OpTuple> {
    let mut rng = SimRng::new(0x0001_0CA1_0000 + i);
    (0..rng.range(5, 60))
        .map(|_| {
            (
                rng.below(7) as u8,
                rng.below(3) as u8,
                rng.below(48),
                rng.below(4),
                rng.below(4) as u8,
            )
        })
        .collect()
}

fn cfg(mode: FsMode) -> FsConfig {
    // A 1 µs tick makes every sync re-dirty metadata, maximising commit
    // traffic through the transaction table.
    FsConfig::new(mode).with_timer_tick(SimDuration::from_micros(1))
}

/// The journal's observable behaviour over 64 seeded syscall traces per
/// mode, pinned. Recorded at c0f8e6f, where a `HashMap`-backed
/// transaction table produced the same hash for every trace: the hashes
/// lock commit semantics, not a container.
#[test]
fn journal_behaviour_matches_golden_hashes() {
    const TRACES: u64 = 64;
    const MODES: [FsMode; 4] = [
        FsMode::Ext4,
        FsMode::Ext4NoBarrier,
        FsMode::BarrierFs,
        FsMode::OptFs,
    ];
    let want: [u64; 4] = [
        0xba1c_011e_d0ec_bc8d,
        0xcd11_4a8c_478b_e771,
        0x012f_5700_4a2f_3601,
        0x7e07_9cc4_fb4b_54d0,
    ];
    let got = MODES.map(|mode| {
        let mut h = Fnv::new();
        for i in 0..TRACES {
            h.word(run_trace(Filesystem::new(cfg(mode)), &golden_trace(i)));
        }
        h.0
    });
    assert!(
        got == want,
        "journal behaviour drifted (modes {MODES:?}): now {got:#018x?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat dirty tracker agrees with a per-block `BTreeMap` model
    /// over random insert/overwrite/budgeted-take/drain workloads.
    #[test]
    fn dirty_tracker_matches_btreemap_model(
        ops in prop::collection::vec((0u8..6, 0u64..48, 0u64..16), 1..120)
    ) {
        use bio_fs::DirtyTracker;
        use bio_flash::BlockTag;
        use std::collections::BTreeMap;

        let mut dense = DirtyTracker::new();
        let mut model: BTreeMap<u64, BlockTag> = BTreeMap::new();
        let mut tag = 1u64;
        for (op, block, n) in ops {
            match op {
                // Inserts dominate so the set actually fills up.
                0..=3 => {
                    let newly = dense.insert(block, BlockTag(tag));
                    let model_newly = model.insert(block, BlockTag(tag)).is_none();
                    prop_assert_eq!(newly, model_newly, "insert disagreement at {}", block);
                    tag += 1;
                }
                4 => {
                    let taken: Vec<(u64, BlockTag)> = dense.take(n as usize).collect();
                    let keys: Vec<u64> = model.keys().copied().take(n as usize).collect();
                    let expect: Vec<(u64, BlockTag)> = keys
                        .iter()
                        .filter_map(|b| model.remove(b).map(|t| (*b, t)))
                        .collect();
                    prop_assert_eq!(&taken, &expect, "budgeted take diverges");
                }
                _ => {
                    let all: Vec<(u64, BlockTag)> = dense.take(usize::MAX).collect();
                    let expect: Vec<(u64, BlockTag)> =
                        model.iter().map(|(&b, &t)| (b, t)).collect();
                    model.clear();
                    prop_assert_eq!(&all, &expect, "full drain diverges");
                }
            }
            prop_assert_eq!(dense.len(), model.len());
            prop_assert_eq!(dense.is_empty(), model.is_empty());
            let dense_all: Vec<(u64, BlockTag)> = dense.iter().collect();
            let model_all: Vec<(u64, BlockTag)> = model.iter().map(|(&b, &t)| (b, t)).collect();
            prop_assert_eq!(dense_all, model_all, "iteration order diverges");
            for b in 0..50u64 {
                prop_assert_eq!(dense.tag_at(b), model.get(&b).copied());
                prop_assert_eq!(dense.contains(b), model.contains_key(&b));
            }
        }
    }
}
