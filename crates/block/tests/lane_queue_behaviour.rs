//! Behaviour lock for the lane queue ([`EpochScheduler`]).
//!
//! Golden hashes recorded against the linear-scan queue the lane had
//! before its indexes (merge by walking the queue, sweep by walking it
//! again, `is_drained` by walking it a third time): seeded `enqueue`/`fence`/`dequeue` traces in
//! four shapes, every dequeued request (ids, op, payload, flags) and the
//! queue's `len`/`is_drained`/`reassignments` after every step folded
//! into one FNV-1a hash per shape. The hash runs over named fields, never
//! `Debug` text. Each shape asserts that its traces really contain the
//! cases it is there for (back, front and capped merges, duplicate LBAs,
//! reads and flushes mid-queue, FUA/preflush writes, ordered writes
//! merged into orderless ones). Inside whole stack runs the queue is
//! pinned by the event digests (`tests/golden_digests.rs`).

use std::collections::{BTreeMap, VecDeque};

use bio_block::{BlockRequest, EpochScheduler, ReqFlags, ReqId, ReqOp, MAX_MERGE_BLOCKS};
use bio_flash::{BlockTag, Lba};
use bio_sim::SimRng;

// ---------------------------------------------------------------------
// Traces.
// ---------------------------------------------------------------------

enum Step {
    Enqueue(BlockRequest),
    Fence,
    Dequeue,
}

/// What a trace shape draws from.
#[derive(Debug, Clone, Copy)]
struct Shape {
    name: &'static str,
    /// Random writes land in `0..span`.
    span: u64,
    /// A write moves `granule * (1..=max_granules)` blocks.
    granule: u64,
    max_granules: u64,
    /// Per-mille chances of each step kind; the rest are write enqueues.
    dequeue: u64,
    fence: u64,
    non_write: u64,
    /// Per-mille chance that a write is placed against an earlier one
    /// (behind it, in front of it, or on top of it) instead of at random.
    adjacent: u64,
    /// Per-mille chances of the write's flags.
    ordered: u64,
    point: u64,
}

const SHAPES: [Shape; 4] = [
    // Single-block random overwrite of a small region: duplicates, chance
    // adjacency in both directions, a long queue.
    Shape {
        name: "random-overwrite",
        span: 96,
        granule: 1,
        max_granules: 1,
        dequeue: 330,
        fence: 12,
        non_write: 40,
        adjacent: 150,
        ordered: 500,
        point: 40,
    },
    // Streams: most writes continue or precede an earlier one.
    Shape {
        name: "streams",
        span: 4_096,
        granule: 1,
        max_granules: 4,
        dequeue: 180,
        fence: 15,
        non_write: 30,
        adjacent: 800,
        ordered: 300,
        point: 20,
    },
    // Extents of 16–64 blocks: merges land on `MAX_MERGE_BLOCKS` exactly
    // and run into it.
    Shape {
        name: "merge-cap",
        span: 2_048,
        granule: 16,
        max_granules: 4,
        dequeue: 200,
        fence: 12,
        non_write: 20,
        adjacent: 850,
        ordered: 200,
        point: 10,
    },
    // Sync-heavy: reads, flushes and FUA/preflush writes between the data.
    Shape {
        name: "sync-heavy",
        span: 256,
        granule: 1,
        max_granules: 3,
        dequeue: 300,
        fence: 40,
        non_write: 150,
        adjacent: 500,
        ordered: 600,
        point: 150,
    },
];

const SEEDS_PER_SHAPE: u64 = 16;
const STEPS_PER_TRACE: usize = 1_000;

fn trace(shape: Shape, seed: u64) -> Vec<Step> {
    let mut rng = SimRng::new(seed ^ 0x1A9E_0000);
    // Spans of recent writes, to place the next one against.
    let mut recent: VecDeque<(u64, u64)> = VecDeque::new();
    let mut next_id = 1u64;
    let mut steps: Vec<Step> = Vec::with_capacity(STEPS_PER_TRACE);
    // A queue runs along so the generator knows when a fenced epoch has
    // drained: after a fence the trace mostly dequeues until then, as a
    // lane behind the closed epoch gate does.
    let mut model = EpochScheduler::new();
    let mut draining = false;
    for _ in 0..STEPS_PER_TRACE {
        if let Some(last) = steps.last() {
            step_real(&mut model, last);
        }
        draining &= !model.is_drained();
        let roll = rng.below(1_000);
        if roll < shape.dequeue || (draining && roll < 850) {
            steps.push(Step::Dequeue);
            continue;
        }
        if roll >= 1_000 - shape.fence {
            draining = true;
            steps.push(Step::Fence);
            continue;
        }
        let id = ReqId(next_id);
        next_id += 1;
        if roll >= 1_000 - shape.fence - shape.non_write {
            let req = if rng.chance(0.5) {
                BlockRequest::flush(id)
            } else {
                BlockRequest::read(id, Lba(rng.below(shape.span)), 1 + rng.below(4))
            };
            steps.push(Step::Enqueue(req));
            continue;
        }
        let blocks = shape.granule * (1 + rng.below(shape.max_granules));
        let start = match recent.len() {
            n if n > 0 && rng.below(1_000) < shape.adjacent => {
                let (s, e) = recent[rng.below(n as u64) as usize];
                match rng.below(8) {
                    0..=4 => e,                        // behind it: back merge
                    5 | 6 => s.saturating_sub(blocks), // in front: front merge
                    _ => s,                            // on top: duplicate LBA
                }
            }
            _ => rng.below(shape.span),
        };
        let f = rng.below(1_000);
        let flags = if f < shape.point {
            match rng.below(3) {
                0 => ReqFlags::FLUSH_FUA,
                1 => ReqFlags {
                    fua: true,
                    ..ReqFlags::ORDERED
                },
                _ => ReqFlags {
                    preflush: true,
                    ..ReqFlags::NONE
                },
            }
        } else if f < shape.point + shape.ordered {
            ReqFlags::ORDERED
        } else {
            ReqFlags::NONE
        };
        let tags = (0..blocks).map(|i| BlockTag(id.0 * 1_000 + i)).collect();
        recent.push_back((start, start + blocks));
        if recent.len() > 6 {
            recent.pop_front();
        }
        steps.push(Step::Enqueue(BlockRequest::write(
            id,
            Lba(start),
            tags,
            flags,
        )));
    }
    steps
}

// ---------------------------------------------------------------------
// Observation: what one step shows of a queue, as plain fields.
// ---------------------------------------------------------------------

/// A dequeued request: `(ids, request)`.
type Left = Option<(Vec<ReqId>, BlockRequest)>;

struct Seen {
    left: Left,
    len: usize,
    drained: bool,
    reassignments: u64,
}

fn step_real(s: &mut EpochScheduler, step: &Step) -> Seen {
    let left = match step {
        Step::Enqueue(req) => {
            s.enqueue(req.clone());
            None
        }
        Step::Fence => {
            s.fence();
            None
        }
        Step::Dequeue => s.dequeue().map(|m| (m.ids.to_vec(), m.req)),
    };
    let len = s.len();
    assert_eq!(s.is_empty(), len == 0);
    Seen {
        left,
        len,
        drained: s.is_drained(),
        reassignments: s.reassignments(),
    }
}

/// FNV-1a over `u64` words, fed named fields one by one.
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

    fn seen(&mut self, seen: &Seen) {
        match &seen.left {
            None => self.word(0),
            Some((ids, req)) => {
                self.word(1 + ids.len() as u64);
                for id in ids {
                    self.word(id.0);
                }
                self.word(req.id.0);
                let f = req.flags;
                self.word(
                    u64::from(f.ordered)
                        | u64::from(f.barrier) << 1
                        | u64::from(f.fua) << 2
                        | u64::from(f.preflush) << 3,
                );
                match &req.op {
                    ReqOp::Write { start, tags } => {
                        self.word(1);
                        self.word(start.0);
                        self.word(tags.len() as u64);
                        for t in tags {
                            self.word(t.0);
                        }
                    }
                    ReqOp::Read { start, count } => {
                        self.word(2);
                        self.word(start.0);
                        self.word(*count);
                    }
                    ReqOp::Flush => self.word(3),
                }
            }
        }
        self.word(seen.len as u64);
        self.word(u64::from(seen.drained));
        self.word(seen.reassignments);
    }
}

/// What a shape's traces contained, counted from what left the queue.
#[derive(Debug, Default)]
struct Coverage {
    back_merges: u64,
    front_merges: u64,
    at_cap: u64,
    turned_ordered: u64,
    duplicate_lbas: u64,
    non_write_mid_queue: u64,
    point_writes: u64,
    reassigned: u64,
    longest_queue: usize,
}

/// Runs one trace through the real queue; folds what it shows into `hash`
/// and `cov`.
fn run_trace(steps: &[Step], hash: &mut Fnv, cov: &mut Coverage) {
    let mut s = EpochScheduler::new();
    // What each submitted write looked like, by id.
    let mut submitted: BTreeMap<ReqId, (u64, ReqFlags)> = BTreeMap::new();
    let mut queued_starts: Vec<u64> = Vec::new();
    for step in steps {
        if let Step::Enqueue(req) = step {
            match &req.op {
                ReqOp::Write { start, .. } => {
                    submitted.insert(req.id, (start.0, req.flags));
                    cov.duplicate_lbas += u64::from(queued_starts.contains(&start.0));
                    queued_starts.push(start.0);
                    cov.point_writes += u64::from(req.flags.fua || req.flags.preflush);
                }
                _ => cov.non_write_mid_queue += u64::from(!s.is_empty()),
            }
        }
        let seen = step_real(&mut s, step);
        hash.seen(&seen);
        cov.longest_queue = cov.longest_queue.max(seen.len);
        let Some((ids, req)) = &seen.left else {
            continue;
        };
        let ReqOp::Write { start, tags } = &req.op else {
            continue;
        };
        for id in ids {
            if let Some((s0, _)) = submitted.get(id) {
                if let Some(i) = queued_starts.iter().position(|s| s == s0) {
                    queued_starts.swap_remove(i);
                }
            }
        }
        let first = submitted.get(&req.id).copied();
        let (first_start, first_flags) = first.expect("a dequeued write was submitted");
        cov.front_merges += u64::from(start.0 < first_start);
        cov.back_merges += u64::from(ids.len() > 1 && start.0 == first_start);
        cov.at_cap += u64::from(tags.len() as u64 == MAX_MERGE_BLOCKS);
        cov.turned_ordered += u64::from(req.flags.ordered && !first_flags.ordered);
        cov.reassigned += u64::from(req.flags.barrier);
    }
}

fn shape_hash(shape: Shape) -> (u64, Coverage) {
    let mut hash = Fnv::new();
    let mut cov = Coverage::default();
    for seed in 0..SEEDS_PER_SHAPE {
        run_trace(&trace(shape, seed), &mut hash, &mut cov);
    }
    (hash.0, cov)
}

#[test]
fn lane_queue_matches_golden_hashes() {
    // Recorded at 0ad94ad, the commit before the lane queue's scans became
    // indexes, in a debug and in a release build.
    const GOLDEN: [u64; 4] = [
        0xd0f7_339b_99b4_a212,
        0xfc60_aae2_e8de_c55b,
        0x8f36_1bc3_18be_2b4f,
        0xb001_cffa_3afd_1f6a,
    ];
    let mut got = [0u64; 4];
    for (shape, slot) in SHAPES.iter().zip(&mut got) {
        let (hash, cov) = shape_hash(*shape);
        *slot = hash;
        println!("{}: {hash:#018x} {cov:?}", shape.name);
        // Every shape sees merges in both directions, epochs that close
        // and queues long enough for the scans to have mattered.
        let holds = cov.back_merges >= 300
            && cov.front_merges >= 300
            && cov.turned_ordered >= 200
            && cov.duplicate_lbas >= 500
            && cov.non_write_mid_queue >= 300
            && cov.point_writes >= 100
            && cov.reassigned >= 100
            && cov.longest_queue >= 48
            && (shape.granule == 1 || cov.at_cap >= 500);
        assert!(holds, "{} lost its cases: {cov:?}", shape.name);
    }
    assert!(
        got == GOLDEN,
        "lane queue behaviour drifted (shapes {:?}): now {got:#018x?}",
        SHAPES.map(|s| s.name)
    );
}
