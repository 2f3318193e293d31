//! Golden op traces: every workload model must emit the op streams it
//! emitted when its hash was recorded, draw for draw.
//!
//! The five paper workloads were locked to the bespoke generators they
//! replaced, which lived in this file as the oracle until commit 90cb55d;
//! those hashes were recorded while the two still agreed on every stream
//! (same seeds, sync modes and configurations, commit bdf1c8d). The mail-queue
//! and RocksDB-WAL streams, the rate-bounded shapes the benchmark runs
//! (`Dwsl::with_think`, `OltpInsert::with_binlog_blocks` +
//! `with_think`) and the OLTP hash without its 4-block redo log were
//! recorded at commit da829a0, before the models stopped being built on a
//! phase framework. Each test folds its streams — length first, then every
//! op field by field — into one FNV-1a hash, so a change in op order, an
//! offset, RNG draw order or stream length moves it.

use barrier_io::{FileRef, Op, Workload};
use bio_sim::{SimDuration, SimRng};
use bio_workloads::{
    Dwsl, MailQueue, OltpInsert, RandWrite, RocksDbWal, Sqlite, SqliteJournalMode, SyncMode,
    Varmail, WriteMode,
};

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
fn randwrite_streams_match_golden_hash() {
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
            hash.ops(&trace(RandWrite::new(f, 64, mode, 500), seed, usize::MAX));
            // Effectively-unbounded run (the figures' configuration), over
            // a long prefix.
            let huge = u64::MAX / 2;
            hash.ops(&trace(RandWrite::new(f, 8192, mode, huge), seed, 4_000));
        }
    }
    assert_golden("randwrite", hash, 0xb176_3070_e7f4_ed19);
}

#[test]
fn dwsl_streams_match_golden_hash() {
    let mut hash = Fnv::new();
    for seed in SEEDS {
        for sync in SYNCS {
            hash.ops(&trace(Dwsl::new(sync, 300), seed, usize::MAX));
        }
    }
    assert_golden("dwsl", hash, 0x499d_1c65_f1fd_f0a5);
}

#[test]
fn sqlite_streams_match_golden_hash() {
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
                let w = Sqlite::new(mode, order, commit, db, journal, 200);
                hash.ops(&trace(w, seed, usize::MAX));
            }
        }
    }
    assert_golden("sqlite", hash, 0xec0c_60f2_7da9_2d8c);
}

#[test]
fn varmail_streams_match_golden_hash() {
    let mut hash = Fnv::new();
    for seed in SEEDS {
        for sync in SYNCS {
            for pool in [1usize, 2, 4, 8] {
                hash.ops(&trace(Varmail::new(sync, 200, pool), seed, usize::MAX));
            }
        }
    }
    assert_golden("varmail", hash, 0x2a13_e488_2136_2aa5);
}

#[test]
fn oltp_streams_match_golden_hash() {
    let mut hash = Fnv::new();
    let (t, r, b) = (FileRef::Global(0), FileRef::Global(1), FileRef::Global(2));
    for seed in SEEDS {
        for sync in SYNCS {
            // The 256-block redo log wraps at transaction 257.
            let w = OltpInsert::new(sync, t, r, b, 300);
            hash.ops(&trace(w, seed, usize::MAX));
        }
    }
    assert_golden("oltp", hash, 0xb591_8cb7_32a6_8d4b);
}

#[test]
fn oltp_rate_bounded_streams_match_golden_hash() {
    let mut hash = Fnv::new();
    let (t, r, b) = (FileRef::Global(0), FileRef::Global(1), FileRef::Global(2));
    let think = SimDuration::from_micros(250);
    for seed in SEEDS {
        for sync in SYNCS {
            // A binlog bound of 64 blocks wraps within the run; the one
            // the benchmark sets (2^20) never does.
            for binlog in [64, 1 << 20] {
                let w = OltpInsert::new(sync, t, r, b, 300)
                    .with_binlog_blocks(binlog)
                    .with_think(think);
                hash.ops(&trace(w, seed, usize::MAX));
            }
            // The benchmark's endless client, over a long prefix.
            let w = OltpInsert::new(sync, t, r, b, u64::MAX)
                .with_binlog_blocks(1 << 20)
                .with_think(think);
            hash.ops(&trace(w, seed, 4_000));
        }
    }
    assert_golden("oltp rate-bounded", hash, 0xefe7_a02c_5f1e_b0dc);
}

#[test]
fn dwsl_rate_bounded_streams_match_golden_hash() {
    let mut hash = Fnv::new();
    let think = SimDuration::from_micros(250);
    for seed in SEEDS {
        for sync in SYNCS {
            let w = Dwsl::new(sync, 300).with_think(think);
            hash.ops(&trace(w, seed, usize::MAX));
            // The benchmark's endless appender, over a long prefix.
            let w = Dwsl::new(sync, u64::MAX).with_think(think);
            hash.ops(&trace(w, seed, 4_000));
        }
    }
    assert_golden("dwsl rate-bounded", hash, 0x680c_ca57_c909_def5);
}

#[test]
fn mailqueue_streams_match_golden_hash() {
    let mut hash = Fnv::new();
    for seed in SEEDS {
        for sync in SYNCS {
            for pool in [2usize, 3, 8] {
                // Fewer messages than slots, just enough to prime the
                // ring, and many laps of it.
                for messages in [1, 3, 9, 200] {
                    let w = MailQueue::new(sync, messages, pool);
                    hash.ops(&trace(w, seed, usize::MAX));
                }
            }
        }
    }
    assert_golden("mail-queue", hash, 0x55bd_7378_f531_46d4);
}

#[test]
fn rocksdb_streams_match_golden_hash() {
    let mut hash = Fnv::new();
    for seed in SEEDS {
        for sync in SYNCS {
            // A memtable flush every 24 puts and a compaction every fourth
            // flush (96 puts): no put, an empty and a partial memtable at
            // shutdown, one put short of, at and past the first
            // compaction, and several compactions.
            for puts in [0, 1, 23, 24, 95, 96, 97, 300] {
                hash.ops(&trace(RocksDbWal::new(sync, puts), seed, usize::MAX));
            }
        }
    }
    assert_golden("rocksdb-wal", hash, 0xa608_633c_3b1c_1c8d);
}
