//! One digest per stack run: every event the run loop pops, with its
//! instant, kind and ids, folded into an FNV-1a hash by an
//! [`Observer`] on the run loop's one hook.
//!
//! The filesystem, the block layer and the devices hand each other a
//! chain of events; the order of that chain is what the paper is about,
//! and a reorder that no rounded figure number shows still moves a
//! digest. `golden/digests.txt` pins one line per cell: name, digest and
//! the number of events popped. The cells are every stack preset the
//! figures use on a mobile and a server device crossed with all seven
//! workload models, the lane grid with its cross-lane epoch sequencer,
//! fig17's 256-thread DWSL cells on one, two and four queues, and, at
//! the end, every preset on both devices under a scatter writer whose
//! syncs reach journal paths the models do not (several data chunks per
//! barrier sync, pages out of LBA order, several transactions per
//! flush). Fixed windows (`run_for` twice around `start_measuring`) and
//! until-done runs alternate, so the digests also pin where each run
//! loop stops. A new cell goes at the end: the lines before it stay
//! byte-identical.
//!
//! A PR that means to move the model re-pins the fixture, in a commit of
//! its own, with
//! `cargo test -q --test golden_digests -- --ignored`
//! (the ignored test rewrites the file); a PR that means to move nothing
//! states "digests identical".

use barrier_io::{
    DeviceProfile, Event, FileRef, IoStack, Observer, Op, StackConfig, Topology, Workload,
};
use bio_bench::experiments::cells::{
    bfs_od, oltp, randwrite, sqlite, threads_of, ufs_and_ssd, Preset, ENDLESS, PRESETS,
};
use bio_block::{BlockEvent, ReqId};
use bio_flash::{CmdId, DevEvent};
use bio_fs::{FsEvent, ThreadId};
use bio_sim::{SimDuration, SimRng, SimTime};
use bio_workloads::{
    Dwsl, MailQueue, RocksDbWal, Sqlite, SqliteJournalMode, SyncMode, Varmail, WriteMode,
};

const FIXTURE: &str = include_str!("golden/digests.txt");

const WARM: SimDuration = SimDuration::from_millis(5);
const WINDOW: SimDuration = SimDuration::from_millis(25);
const DONE_CAP: SimDuration = SimDuration::from_secs(3600);
/// Op budget per thread of an until-done cell.
const DONE_OPS: u64 = 12;

/// FNV-1a over the popped events, and how many there were.
#[derive(Clone, Copy)]
struct Digest {
    hash: u64,
    events: u64,
}

impl Digest {
    fn new() -> Digest {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            events: 0,
        }
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Observer for Digest {
    fn popped(&mut self, now: SimTime, ev: &Event) {
        self.events += 1;
        // `(kind, device, id)`: a new event kind does not compile here
        // until it has a kind word of its own.
        let (kind, dev, id) = match *ev {
            Event::Fs(FsEvent::ReqDone(req)) => (0, 0, req.0),
            Event::Fs(FsEvent::Step(tid)) => (1, 0, u64::from(tid.0)),
            Event::Fs(FsEvent::CommitRun) => (2, 0, 0),
            Event::Fs(FsEvent::Pdflush) => (3, 0, 0),
            Event::Fs(FsEvent::OptfsFlush) => (4, 0, 0),
            Event::Block(BlockEvent::Dev { dev, ev }) => match ev {
                DevEvent::DmaDone { id } => (5, dev, id.0),
                DevEvent::ProgramDone { seq } => (6, dev, seq),
                DevEvent::Finish { id } => (7, dev, id.0),
                DevEvent::PreflushDone { id } => (8, dev, id.0),
                DevEvent::Pump => (9, dev, 0),
            },
            Event::ThreadNext(tid) => (10, 0, u64::from(tid.0)),
        };
        self.word(now.as_nanos());
        self.word(kind);
        self.word(u64::from(dev));
        self.word(id);
    }
}

/// A stack with a model's files and threads; `n` bounds each thread's
/// iterations.
type Setup = fn(StackConfig, SyncMode, u64) -> IoStack;

#[derive(Clone, Copy)]
enum Window {
    /// `run_for(WARM)`, `start_measuring`, `run_for(WINDOW)`.
    Fixed,
    /// `start_measuring`, `run_until_done`.
    UntilDone,
}

struct Cell {
    name: String,
    cfg: StackConfig,
    sync: SyncMode,
    setup: Setup,
    window: Window,
}

impl Cell {
    fn new(name: &str, cfg: StackConfig, sync: SyncMode, setup: Setup, window: Window) -> Cell {
        let kind = match window {
            Window::Fixed => "window",
            Window::UntilDone => "done",
        };
        let name = format!("{}/{name}/{kind}", cfg.label()).replace(' ', "/");
        Cell {
            name,
            cfg,
            sync,
            setup,
            window,
        }
    }

    /// Runs the cell with a fresh digest on its run loop.
    fn digest(&self) -> Digest {
        let n = match self.window {
            Window::Fixed => ENDLESS,
            Window::UntilDone => DONE_OPS,
        };
        let stack = (self.setup)(self.cfg.clone(), self.sync, n);
        let mut s = stack.observed_by(Digest::new());
        match self.window {
            Window::Fixed => {
                s.run_for(WARM);
                s.start_measuring();
                s.run_for(WINDOW);
            }
            Window::UntilDone => {
                s.start_measuring();
                assert!(s.run_until_done(DONE_CAP), "{}: hit the cap", self.name);
            }
        }
        *s.observer()
    }
}

fn dwsl(cfg: StackConfig, sync: SyncMode, n: u64) -> IoStack {
    threads_of(cfg, 4, || Box::new(Dwsl::new(sync, n)))
}

/// fig17's thread count and per-thread write count at scale 1 (`n` is
/// not used: the cell is sized by how far it backs the block layer up).
fn dwsl_256(cfg: StackConfig, sync: SyncMode, _n: u64) -> IoStack {
    threads_of(cfg, 256, || Box::new(Dwsl::new(sync, 2)))
}

/// Files each scatter writer creates and spreads its writes over.
const SCATTER_FILES: usize = 3;

/// One iteration of a scatter writer: `SCATTER_WRITES` rounds of one
/// random-offset block to each of its files, then a sync of each file.
/// Blocks are allocated as they are first written, so the rounds
/// interleave the files' allocations: a sync finds its file's dirty pages
/// in several LBA runs, and in an order that is not the pages' file
/// order. The writers' files are their own, so a writer that dirties a
/// file while another's commit is in flight commits a transaction of
/// its own, and one flush can find several transactions to release.
const SCATTER_WRITES: usize = 4;

/// Blocks of each file a scatter writer writes into.
const SCATTER_REGION: u64 = 256;

struct Scatter {
    sync: SyncMode,
    left: u64,
    /// The rest of the current iteration, last op first.
    ops: Vec<Op>,
}

impl Scatter {
    /// A writer that creates its files, then runs `n` iterations.
    fn new(sync: SyncMode, n: u64) -> Scatter {
        let create = (0..SCATTER_FILES).rev().map(|slot| Op::Create { slot });
        Scatter {
            sync,
            left: n,
            ops: create.collect(),
        }
    }
}

impl Workload for Scatter {
    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
        if self.ops.is_empty() && self.left > 0 {
            self.left -= 1;
            for i in 0..SCATTER_WRITES * SCATTER_FILES {
                let file = FileRef::Slot(i % SCATTER_FILES);
                let offset = rng.below(SCATTER_REGION);
                self.ops.push(Op::Write {
                    file,
                    offset,
                    blocks: 1,
                });
            }
            let syncs = (0..SCATTER_FILES).map(|f| self.sync.op(FileRef::Slot(f)));
            self.ops.extend(syncs.flatten());
            self.ops.reverse();
        }
        self.ops.pop()
    }
}

/// Four scatter writers.
fn scatter(cfg: StackConfig, sync: SyncMode, n: u64) -> IoStack {
    threads_of(cfg, 4, || Box::new(Scatter::new(sync, n)))
}

/// Every stack preset the figures use × {UFS, plain-SSD}, crossed with
/// all seven workload models (the window kind alternates so every preset
/// and every model runs under both), the 2q×2dev lane grid under both,
/// and fig17's EXT4-DR and BFS-OD at 1q×1dev, 2q×1dev and 4q×2dev.
fn cells() -> Vec<Cell> {
    let models: [(&str, Setup); 7] = [
        ("randwrite", |cfg, sync, n| {
            randwrite(cfg, 1, 256, WriteMode::SyncEach(sync), n)
        }),
        ("dwsl", dwsl),
        ("sqlite", |cfg, sync, n| {
            let mode = SqliteJournalMode::Persist;
            sqlite(cfg, |db, journal| {
                Sqlite::new(mode, sync, sync, db, journal, n)
            })
        }),
        ("varmail", |cfg, sync, n| {
            threads_of(cfg, 4, || Box::new(Varmail::new(sync, n, 8)))
        }),
        ("oltp", |cfg, sync, n| oltp(cfg, 4, sync, n)),
        ("rocksdb-wal", |cfg, sync, n| {
            threads_of(cfg, 2, || Box::new(RocksDbWal::new(sync, n)))
        }),
        ("mail-queue", |cfg, sync, n| {
            threads_of(cfg, 4, || Box::new(MailQueue::new(sync, n, 8)))
        }),
    ];
    let mut cells = Vec::new();
    for (di, dev) in ufs_and_ssd().into_iter().enumerate() {
        for (pi, (preset, sync)) in PRESETS.iter().enumerate() {
            for (mi, (model, setup)) in models.iter().enumerate() {
                let window = match (di + pi + mi) % 2 {
                    0 => Window::Fixed,
                    _ => Window::UntilDone,
                };
                cells.push(Cell::new(model, preset(dev.clone()), *sync, *setup, window));
            }
        }
    }
    let mq = bfs_od(DeviceProfile::plain_ssd()).with_topology(Topology::new(2, 2, 8));
    for window in [Window::Fixed, Window::UntilDone] {
        cells.push(Cell::new(
            "dwsl",
            mq.clone(),
            SyncMode::Fbarrier,
            dwsl,
            window,
        ));
    }
    let fig17: [(Preset, SyncMode); 2] = [
        (StackConfig::ext4_dr, SyncMode::Fsync),
        (bfs_od, SyncMode::Fbarrier),
    ];
    for (preset, sync) in fig17 {
        for (queues, devices) in [(1, 1), (2, 1), (4, 2)] {
            let topology = Topology::new(queues, devices, 8);
            let cfg = preset(DeviceProfile::plain_ssd()).with_topology(topology);
            cells.push(Cell::new("dwsl256", cfg, sync, dwsl_256, Window::UntilDone));
        }
    }
    // Appended after the first 78: every preset on both devices under
    // the scatter writer.
    for (di, dev) in ufs_and_ssd().into_iter().enumerate() {
        for (pi, (preset, sync)) in PRESETS.iter().enumerate() {
            let window = match (di + pi) % 2 {
                0 => Window::UntilDone,
                _ => Window::Fixed,
            };
            cells.push(Cell::new(
                "scatter",
                preset(dev.clone()),
                *sync,
                scatter,
                window,
            ));
        }
    }
    cells
}

/// The fixture's lines, one per cell: `name digest events`.
fn render() -> Vec<String> {
    cells()
        .iter()
        .map(|cell| {
            let d = cell.digest();
            format!("{} {:#018x} {}", cell.name, d.hash, d.events)
        })
        .collect()
}

#[test]
fn every_cell_matches_its_pinned_digest() {
    let got = render();
    let want: Vec<&str> = FIXTURE.lines().collect();
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got, want, "a digest drifted (got, fixture)");
    }
    assert_eq!(
        got.len(),
        want.len(),
        "cells and fixture lines differ in number"
    );
}

/// A digest that stopped reading its input would pin nothing: every cell
/// pops events, no two cells agree, and each field of an event moves the
/// hash on its own.
#[test]
fn the_digest_reads_every_field_it_is_given() {
    let mut seen: Vec<(u64, &str)> = FIXTURE
        .lines()
        .map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let [name, hash, events] = fields[..] else {
                panic!("malformed fixture line: {line}");
            };
            let events: u64 = events.parse().expect("an event count");
            assert!(events > 0, "{name} pops no event");
            let hash = u64::from_str_radix(&hash[2..], 16).expect("a hex digest");
            (hash, name)
        })
        .collect();
    seen.sort_unstable();
    for pair in seen.windows(2) {
        assert_ne!(
            pair[0].0, pair[1].0,
            "{} and {} agree",
            pair[0].1, pair[1].1
        );
    }
    // One event of every kind, and each with another instant, device or
    // id: all of them hash apart.
    let (t0, t1) = (SimTime::ZERO, SimTime::from_nanos(1));
    let dev = |dev, ev| Event::Block(BlockEvent::Dev { dev, ev });
    let id = CmdId(1);
    let events = [
        Event::Fs(FsEvent::ReqDone(ReqId(1))),
        Event::Fs(FsEvent::ReqDone(ReqId(2))),
        Event::Fs(FsEvent::Step(ThreadId(1))),
        Event::Fs(FsEvent::CommitRun),
        Event::Fs(FsEvent::Pdflush),
        Event::Fs(FsEvent::OptfsFlush),
        dev(0, DevEvent::DmaDone { id }),
        dev(1, DevEvent::DmaDone { id }),
        dev(0, DevEvent::ProgramDone { seq: 1 }),
        dev(0, DevEvent::Finish { id }),
        dev(0, DevEvent::PreflushDone { id }),
        dev(0, DevEvent::Pump),
        Event::ThreadNext(ThreadId(1)),
    ];
    let mut hashes: Vec<u64> = Vec::new();
    for ev in &events {
        for at in [t0, t1] {
            let mut d = Digest::new();
            d.popped(at, ev);
            hashes.push(d.hash);
        }
    }
    let n = hashes.len();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), n, "two different events hash alike");
}

/// Rewrites `golden/digests.txt` from this tree.
#[test]
#[ignore = "rewrites the fixture; run it to re-pin the digests"]
fn regenerate_the_fixture() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/digests.txt");
    let mut text = render().join("\n");
    text.push('\n');
    std::fs::write(path, text).expect("the fixture is writable");
}
