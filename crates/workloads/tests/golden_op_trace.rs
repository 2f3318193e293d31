//! Golden op-trace equivalence: the phase-engine rewrites of the five
//! paper workloads must emit **byte-identical** op streams to the
//! pre-refactor bespoke generators, draw for draw.
//!
//! The `legacy` module below preserves the original generator
//! implementations (each hand-managing its own queue/cursor/counters)
//! verbatim from before the `PhaseEngine` refactor. Every test drives a
//! legacy generator and its rewrite with identically seeded RNGs and
//! compares the full op vectors — any divergence in op order, offsets,
//! RNG draw order or stream length fails with the first mismatching
//! index. This is the same lock the dense-index migrations used
//! (reference backend kept alive for equivalence), applied to the
//! workload layer.

use barrier_io::{FileRef, Op, Workload};
use bio_sim::SimRng;
use bio_workloads::{
    Dwsl, OltpInsert, RandWrite, Sqlite, SqliteJournalMode, SyncMode, Varmail, WriteMode,
};

/// The pre-refactor generators, frozen as the reference implementations.
mod legacy {
    use std::collections::VecDeque;

    use barrier_io::{FileRef, Op, Workload};
    use bio_sim::SimRng;
    use bio_workloads::{SqliteJournalMode, SyncMode, WriteMode};

    pub struct RandWrite {
        file: FileRef,
        region_blocks: u64,
        mode: WriteMode,
        remaining: u64,
        pending_sync: bool,
    }

    impl RandWrite {
        pub fn new(file: FileRef, region_blocks: u64, mode: WriteMode, count: u64) -> RandWrite {
            RandWrite {
                file,
                region_blocks,
                mode,
                remaining: count,
                pending_sync: false,
            }
        }
    }

    impl Workload for RandWrite {
        fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
            if self.pending_sync {
                self.pending_sync = false;
                if let WriteMode::SyncEach(sync) = self.mode {
                    if let Some(op) = sync.op(self.file) {
                        return Some(op);
                    }
                }
            }
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            self.pending_sync = matches!(self.mode, WriteMode::SyncEach(_));
            Some(Op::Write {
                file: self.file,
                offset: rng.below(self.region_blocks),
                blocks: 1,
            })
        }
    }

    pub struct Dwsl {
        sync: SyncMode,
        writes: u64,
        issued: u64,
        offset: u64,
        created: bool,
        phase: DwslPhase,
    }

    #[derive(PartialEq, Eq, Clone, Copy)]
    enum DwslPhase {
        Write,
        Sync,
        Mark,
    }

    impl Dwsl {
        pub fn new(sync: SyncMode, writes: u64) -> Dwsl {
            Dwsl {
                sync,
                writes,
                issued: 0,
                offset: 0,
                created: false,
                phase: DwslPhase::Write,
            }
        }
    }

    impl Workload for Dwsl {
        fn next_op(&mut self, _rng: &mut SimRng) -> Option<Op> {
            if !self.created {
                self.created = true;
                return Some(Op::Create { slot: 0 });
            }
            let file = FileRef::Slot(0);
            loop {
                match self.phase {
                    DwslPhase::Write => {
                        if self.issued >= self.writes {
                            return None;
                        }
                        self.issued += 1;
                        let offset = self.offset;
                        self.offset += 1;
                        self.phase = DwslPhase::Sync;
                        return Some(Op::Write {
                            file,
                            offset,
                            blocks: 1,
                        });
                    }
                    DwslPhase::Sync => {
                        self.phase = DwslPhase::Mark;
                        if let Some(op) = self.sync.op(file) {
                            return Some(op);
                        }
                    }
                    DwslPhase::Mark => {
                        self.phase = DwslPhase::Write;
                        return Some(Op::TxnMark);
                    }
                }
            }
        }
    }

    pub struct Sqlite {
        mode: SqliteJournalMode,
        order_sync: SyncMode,
        commit_sync: SyncMode,
        db: FileRef,
        journal: FileRef,
        inserts: u64,
        done: u64,
        db_blocks: u64,
        wal_head: u64,
        queue: VecDeque<Op>,
    }

    impl Sqlite {
        #[allow(clippy::too_many_arguments)]
        pub fn new(
            mode: SqliteJournalMode,
            order_sync: SyncMode,
            commit_sync: SyncMode,
            db: FileRef,
            journal: FileRef,
            inserts: u64,
            db_blocks: u64,
        ) -> Sqlite {
            Sqlite {
                mode,
                order_sync,
                commit_sync,
                db,
                journal,
                inserts,
                done: 0,
                db_blocks: db_blocks.max(4),
                wal_head: 0,
                queue: VecDeque::new(),
            }
        }

        fn refill(&mut self, rng: &mut SimRng) {
            let db_page = rng.below(self.db_blocks);
            match self.mode {
                SqliteJournalMode::Persist => {
                    self.queue.push_back(Op::Write {
                        file: self.journal,
                        offset: 1,
                        blocks: 2,
                    });
                    self.push_sync(self.order_sync, self.journal);
                    self.queue.push_back(Op::Write {
                        file: self.journal,
                        offset: 0,
                        blocks: 1,
                    });
                    self.push_sync(self.order_sync, self.journal);
                    self.queue.push_back(Op::Write {
                        file: self.db,
                        offset: 1 + db_page,
                        blocks: 1,
                    });
                    self.push_sync(self.order_sync, self.db);
                    self.queue.push_back(Op::Write {
                        file: self.db,
                        offset: 0,
                        blocks: 1,
                    });
                    self.push_sync(self.commit_sync, self.db);
                }
                SqliteJournalMode::Wal => {
                    let off = self.wal_head;
                    self.wal_head += 2;
                    self.queue.push_back(Op::Write {
                        file: self.journal,
                        offset: off,
                        blocks: 2,
                    });
                    self.push_sync(self.commit_sync, self.journal);
                }
            }
            self.queue.push_back(Op::TxnMark);
        }

        fn push_sync(&mut self, mode: SyncMode, file: FileRef) {
            if let Some(op) = mode.op(file) {
                self.queue.push_back(op);
            }
        }
    }

    impl Workload for Sqlite {
        fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
            if self.queue.is_empty() {
                if self.done >= self.inserts {
                    return None;
                }
                self.done += 1;
                self.refill(rng);
            }
            self.queue.pop_front()
        }
    }

    pub struct Varmail {
        sync: SyncMode,
        iterations: u64,
        done: u64,
        pool: usize,
        cursor: usize,
        created: usize,
        max_mail_blocks: u64,
        queue: VecDeque<Op>,
    }

    impl Varmail {
        pub fn new(sync: SyncMode, iterations: u64, pool: usize) -> Varmail {
            Varmail {
                sync,
                iterations,
                done: 0,
                pool: pool.max(2),
                cursor: 0,
                created: 0,
                max_mail_blocks: 4,
                queue: VecDeque::new(),
            }
        }

        fn push_sync(&mut self, file: FileRef) {
            if let Some(op) = self.sync.op(file) {
                self.queue.push_back(op);
            }
        }

        fn refill(&mut self, rng: &mut SimRng) {
            let slot_new = self.cursor % self.pool;
            let slot_old = (self.cursor + 1) % self.pool;
            self.cursor += 1;
            let blocks = rng.range(1, self.max_mail_blocks);

            if self.created >= self.pool {
                self.queue.push_back(Op::Unlink {
                    file: FileRef::Slot(slot_new),
                });
            }
            self.queue.push_back(Op::Create { slot: slot_new });
            self.created += 1;
            self.queue.push_back(Op::Write {
                file: FileRef::Slot(slot_new),
                offset: 0,
                blocks,
            });
            self.push_sync(FileRef::Slot(slot_new));
            if self.created > 1 {
                let target = FileRef::Slot(slot_old.min(self.created - 1));
                self.queue.push_back(Op::Write {
                    file: target,
                    offset: self.max_mail_blocks,
                    blocks: rng.range(1, 2),
                });
                self.push_sync(target);
                self.queue.push_back(Op::Read {
                    file: target,
                    offset: 0,
                    blocks: 1,
                });
            }
            self.queue.push_back(Op::TxnMark);
        }
    }

    impl Workload for Varmail {
        fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
            if self.queue.is_empty() {
                if self.done >= self.iterations {
                    return None;
                }
                self.done += 1;
                self.refill(rng);
            }
            self.queue.pop_front()
        }
    }

    pub struct OltpInsert {
        sync: SyncMode,
        table: FileRef,
        redo: FileRef,
        binlog: FileRef,
        txns: u64,
        done: u64,
        pub redo_blocks: u64,
        redo_head: u64,
        binlog_head: u64,
        table_blocks: u64,
        queue: VecDeque<Op>,
    }

    impl OltpInsert {
        pub fn new(
            sync: SyncMode,
            table: FileRef,
            redo: FileRef,
            binlog: FileRef,
            txns: u64,
        ) -> OltpInsert {
            OltpInsert {
                sync,
                table,
                redo,
                binlog,
                txns,
                done: 0,
                redo_blocks: 256,
                redo_head: 0,
                binlog_head: 0,
                table_blocks: 4096,
                queue: VecDeque::new(),
            }
        }

        fn push_sync(&mut self, file: FileRef) {
            if let Some(op) = self.sync.op(file) {
                self.queue.push_back(op);
            }
        }

        fn refill(&mut self, rng: &mut SimRng) {
            let redo_off = self.redo_head % self.redo_blocks;
            self.redo_head += 1;
            self.queue.push_back(Op::Write {
                file: self.redo,
                offset: redo_off,
                blocks: 1,
            });
            self.push_sync(self.redo);
            let off = self.binlog_head;
            self.binlog_head += 1;
            self.queue.push_back(Op::Write {
                file: self.binlog,
                offset: off,
                blocks: 1,
            });
            self.push_sync(self.binlog);
            if self.done % 8 == 0 {
                for _ in 0..4 {
                    self.queue.push_back(Op::Write {
                        file: self.table,
                        offset: rng.below(self.table_blocks),
                        blocks: 1,
                    });
                }
            }
            self.queue.push_back(Op::TxnMark);
        }
    }

    impl Workload for OltpInsert {
        fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
            if self.queue.is_empty() {
                if self.done >= self.txns {
                    return None;
                }
                self.done += 1;
                self.refill(rng);
            }
            self.queue.pop_front()
        }
    }
}

/// Drains up to `cap` ops from a workload under a fresh RNG with `seed`.
fn trace(mut w: impl Workload, seed: u64, cap: usize) -> Vec<Op> {
    let mut rng = SimRng::new(seed);
    let mut ops = Vec::new();
    while ops.len() < cap {
        match w.next_op(&mut rng) {
            Some(op) => ops.push(op),
            None => break,
        }
    }
    ops
}

/// FNV-1a over `u64` words; ops are fed field by field, so the hash moves
/// only when a stream does.
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

    fn file(&mut self, file: FileRef) {
        match file {
            FileRef::Global(i) => self.word(i as u64),
            FileRef::Slot(i) => self.word(1 << 32 | i as u64),
        }
    }

    /// One whole stream, its length first.
    fn ops(&mut self, ops: &[Op]) {
        self.word(ops.len() as u64);
        for op in ops {
            match *op {
                Op::Write {
                    file,
                    offset,
                    blocks,
                } => {
                    self.word(1);
                    self.file(file);
                    self.word(offset);
                    self.word(blocks);
                }
                Op::Read {
                    file,
                    offset,
                    blocks,
                } => {
                    self.word(2);
                    self.file(file);
                    self.word(offset);
                    self.word(blocks);
                }
                Op::Create { slot } => {
                    self.word(3);
                    self.word(slot as u64);
                }
                Op::Unlink { file } => {
                    self.word(4);
                    self.file(file);
                }
                Op::Fsync { file } => {
                    self.word(5);
                    self.file(file);
                }
                Op::Fdatasync { file } => {
                    self.word(6);
                    self.file(file);
                }
                Op::Fbarrier { file } => {
                    self.word(7);
                    self.file(file);
                }
                Op::Fdatabarrier { file } => {
                    self.word(8);
                    self.file(file);
                }
                Op::Think { dur } => {
                    self.word(9);
                    self.word(dur.as_nanos());
                }
                Op::TxnMark => self.word(10),
            }
        }
    }
}

/// Asserts two traces match, reporting the first mismatch index, and folds
/// the rewritten one into `hash`.
fn assert_identical(hash: &mut Fnv, name: &str, legacy: Vec<Op>, rewritten: Vec<Op>) {
    assert_eq!(
        legacy.len(),
        rewritten.len(),
        "{name}: stream lengths differ"
    );
    for (i, (a, b)) in legacy.iter().zip(rewritten.iter()).enumerate() {
        assert_eq!(a, b, "{name}: first divergence at op {i}");
    }
    hash.ops(&rewritten);
}

/// Holds a test's folded streams to its recorded hash.
fn assert_golden(name: &str, hash: Fnv, golden: u64) {
    assert!(
        hash.0 == golden,
        "{name}: op streams drifted: now {:#018x}",
        hash.0
    );
}

const SEEDS: [u64; 4] = [1, 7, 0xDEAD_BEEF, u64::MAX / 3];

const SYNCS: [SyncMode; 5] = [
    SyncMode::Fsync,
    SyncMode::Fdatasync,
    SyncMode::Fbarrier,
    SyncMode::Fdatabarrier,
    SyncMode::None,
];

#[test]
fn randwrite_streams_are_byte_identical() {
    let mut hash = Fnv::new();
    let f = FileRef::Global(0);
    for seed in SEEDS {
        for mode in [
            WriteMode::Buffered,
            WriteMode::SyncEach(SyncMode::Fdatasync),
            WriteMode::SyncEach(SyncMode::Fdatabarrier),
            WriteMode::SyncEach(SyncMode::None),
        ] {
            // Finite run, drained fully.
            assert_identical(
                &mut hash,
                "randwrite/finite",
                trace(legacy::RandWrite::new(f, 64, mode, 500), seed, usize::MAX),
                trace(RandWrite::new(f, 64, mode, 500), seed, usize::MAX),
            );
            // Effectively-unbounded run (the figures' configuration),
            // compared over a long prefix.
            let huge = u64::MAX / 2;
            assert_identical(
                &mut hash,
                "randwrite/unbounded",
                trace(legacy::RandWrite::new(f, 8192, mode, huge), seed, 4_000),
                trace(RandWrite::new(f, 8192, mode, huge), seed, 4_000),
            );
        }
    }
    assert_golden("randwrite", hash, 0xb176_3070_e7f4_ed19);
}

#[test]
fn dwsl_streams_are_byte_identical() {
    let mut hash = Fnv::new();
    for seed in SEEDS {
        for sync in SYNCS {
            assert_identical(
                &mut hash,
                "dwsl",
                trace(legacy::Dwsl::new(sync, 300), seed, usize::MAX),
                trace(Dwsl::new(sync, 300), seed, usize::MAX),
            );
        }
    }
    assert_golden("dwsl", hash, 0x499d_1c65_f1fd_f0a5);
}

#[test]
fn sqlite_streams_are_byte_identical() {
    let mut hash = Fnv::new();
    let (db, journal) = (FileRef::Global(0), FileRef::Global(1));
    let columns = [
        (SyncMode::Fdatasync, SyncMode::Fdatasync),
        (SyncMode::Fdatabarrier, SyncMode::Fdatasync),
        (SyncMode::Fdatabarrier, SyncMode::Fdatabarrier),
    ];
    for seed in SEEDS {
        for mode in [SqliteJournalMode::Persist, SqliteJournalMode::Wal] {
            for (order, commit) in columns {
                assert_identical(
                    &mut hash,
                    "sqlite",
                    trace(
                        legacy::Sqlite::new(mode, order, commit, db, journal, 200, 2048),
                        seed,
                        usize::MAX,
                    ),
                    trace(
                        Sqlite::new(mode, order, commit, db, journal, 200, 2048),
                        seed,
                        usize::MAX,
                    ),
                );
            }
        }
    }
    assert_golden("sqlite", hash, 0xec0c_60f2_7da9_2d8c);
}

#[test]
fn varmail_streams_are_byte_identical() {
    let mut hash = Fnv::new();
    for seed in SEEDS {
        for sync in SYNCS {
            for pool in [1usize, 2, 4, 8] {
                assert_identical(
                    &mut hash,
                    "varmail",
                    trace(legacy::Varmail::new(sync, 200, pool), seed, usize::MAX),
                    trace(Varmail::new(sync, 200, pool), seed, usize::MAX),
                );
            }
        }
    }
    assert_golden("varmail", hash, 0x2a13_e488_2136_2aa5);
}

#[test]
fn oltp_streams_are_byte_identical() {
    let mut hash = Fnv::new();
    let (t, r, b) = (FileRef::Global(0), FileRef::Global(1), FileRef::Global(2));
    for seed in SEEDS {
        for sync in SYNCS {
            assert_identical(
                &mut hash,
                "oltp",
                trace(
                    legacy::OltpInsert::new(sync, t, r, b, 300),
                    seed,
                    usize::MAX,
                ),
                trace(OltpInsert::new(sync, t, r, b, 300), seed, usize::MAX),
            );
            // Small circular log: the wrap path.
            let mut lw = legacy::OltpInsert::new(sync, t, r, b, 300);
            lw.redo_blocks = 4;
            assert_identical(
                &mut hash,
                "oltp/wrap",
                trace(lw, seed, usize::MAX),
                trace(
                    OltpInsert::new(sync, t, r, b, 300).with_redo_blocks(4),
                    seed,
                    usize::MAX,
                ),
            );
        }
    }
    assert_golden("oltp", hash, 0xc3ec_00cc_a815_e0f1);
}
