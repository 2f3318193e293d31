//! Host-time probes of single layers: each drives one layer's public
//! entry points from outside, in isolation, and reports nanoseconds per
//! unit of that layer's work. They are the `*_ns` per-layer metrics — the
//! cost an optimisation of that layer should move, free of the layers
//! around it.
//!
//! Every probe repeats its loop [`REPS`] times and reports the median.

use std::hint::black_box;
use std::time::Instant;

use barrier_io::Workload;
use bio_bench::crash::{capture_points, enumerate_point, CaptureMode};
use bio_block::{
    ActionSink, BlockAction, BlockConfig, BlockEvent, BlockLayer, BlockRequest, DispatchMode,
    ReqFlags, ReqId, ReqOp, SchedulerKind,
};
use bio_flash::{
    BlockTag, CmdId, Command, DevAction, DevEvent, Device, DeviceProfile, Ftl, Lba, WriteFlags,
    WritebackCache,
};
use bio_fs::{Filesystem, FsAction, FsConfig, FsEvent, FsMode, SyscallOutcome, ThreadId};
use bio_sim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::cells::{crash_stacks, Cell};
use crate::reduce::median;
use crate::run::is_syscall;

/// Repetitions per probe.
const REPS: usize = 5;

/// Median over [`REPS`] runs of `f`, which returns `(host ns, units)`.
fn ns_per_unit(mut f: impl FnMut() -> (u128, u64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ns, units) = f();
            ns as f64 / units.max(1) as f64
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// `workloads.next_op_ns`: drains up to `cap` ops from every thread of
/// every cell (fresh op streams, the run's seed) without a stack
/// underneath.
pub fn next_op_ns(cells: &[Cell], seed: u64, cap: u64) -> f64 {
    ns_per_unit(|| {
        let mut threads: Vec<Box<dyn Workload>> = Vec::new();
        for c in cells {
            // One thread per cell: the simulated threads of a cell run the
            // same generator.
            threads.extend((c.threads)().into_iter().take(1));
        }
        let mut ops = 0u64;
        let t = Instant::now();
        for w in &mut threads {
            let mut rng = SimRng::new(seed);
            let mut n = 0u64;
            while n < cap {
                let Some(op) = w.next_op(&mut rng) else { break };
                black_box(&op);
                n += u64::from(is_syscall(op.kind()));
            }
            ops += n;
        }
        (t.elapsed().as_nanos(), ops)
    })
}

/// `fs.syscall_ns`: `write` + `fsync` on BarrierFS with a loop-back block
/// layer that answers every `FsAction::Submit` with `ReqDone` at once —
/// the journal commit path without a device.
pub fn fs_syscall_ns(syscalls: u64) -> f64 {
    ns_per_unit(|| {
        let mut fs = Filesystem::new(FsConfig::new(FsMode::BarrierFs));
        let mut q: EventQueue<FsEvent> = EventQueue::new();
        let mut out: ActionSink<FsAction> = ActionSink::new();
        let tid = ThreadId(0);
        fs.start(&mut out);
        let file = fs.create(tid, &mut out);
        let mut woke = false;
        // Routes the sink: submits complete immediately, timers go on the
        // queue.
        fn route(
            fs: &mut Filesystem,
            q: &mut EventQueue<FsEvent>,
            out: &mut ActionSink<FsAction>,
            woke: &mut bool,
        ) {
            let mut actions = out.take_buf();
            for a in actions.drain(..) {
                match a {
                    FsAction::Submit(req) => {
                        q.push_now(FsEvent::ReqDone(req.id));
                        if let ReqOp::Write { tags, .. } = req.op {
                            fs.restore_payload_buf(tags);
                        }
                    }
                    FsAction::Wake(_) => *woke = true,
                    FsAction::CtxSwitch(_) => {}
                    FsAction::After(d, ev) => q.push_after(d, ev),
                }
            }
            out.restore(actions);
        }
        route(&mut fs, &mut q, &mut out, &mut woke);
        let t = Instant::now();
        let mut done = 0u64;
        while done < syscalls {
            fs.write(tid, file, done / 2, 1, q.now(), &mut out);
            route(&mut fs, &mut q, &mut out, &mut woke);
            woke = false;
            let outcome = fs.fsync(tid, file, q.now(), &mut out);
            route(&mut fs, &mut q, &mut out, &mut woke);
            if outcome == SyscallOutcome::Blocked {
                while !woke {
                    let Some((now, ev)) = q.pop() else { break };
                    fs.handle(ev, now, &mut out);
                    route(&mut fs, &mut q, &mut out, &mut woke);
                }
            }
            done += 2;
        }
        black_box(fs.stats());
        (t.elapsed().as_nanos(), done)
    })
}

/// `block.req_ns`: single-block ordered writes (every fourth a barrier)
/// submitted to a `BlockLayer` over a real plain-SSD and pumped to
/// completion — submit → schedule → dispatch → device → complete.
pub fn block_req_ns(requests: u64) -> f64 {
    ns_per_unit(|| {
        let dev = Device::new(DeviceProfile::plain_ssd(), 7);
        let cfg = BlockConfig::new(SchedulerKind::Elevator, DispatchMode::OrderPreserving);
        let mut layer = BlockLayer::new(vec![dev], cfg);
        let mut q: EventQueue<BlockEvent> = EventQueue::new();
        let mut out: ActionSink<BlockAction> = ActionSink::new();
        let mut completed = 0u64;
        let mut next = 0u64;
        let t = Instant::now();
        while completed < requests {
            // A shallow window of requests in flight: the device cache
            // stays near empty, so the block layer's own path shows
            // (`flash.cmd_ns` is the saturated-device counterpart).
            while next < requests && next - completed < 4 {
                let flags = if next % 4 == 3 {
                    ReqFlags::BARRIER
                } else {
                    ReqFlags::ORDERED
                };
                let req = BlockRequest::write(
                    ReqId(next),
                    Lba((next * 7) % 4096),
                    vec![BlockTag(next + 1)],
                    flags,
                );
                layer.submit(req, q.now(), &mut out);
                next += 1;
                for a in out.drain() {
                    match a {
                        BlockAction::Complete(..) => completed += 1,
                        BlockAction::After(d, ev) => q.push_after(d, ev),
                    }
                }
            }
            let Some((now, ev)) = q.pop() else { break };
            layer.handle(ev, now, &mut out);
            for a in out.drain() {
                match a {
                    BlockAction::Complete(..) => completed += 1,
                    BlockAction::After(d, ev) => q.push_after(d, ev),
                }
            }
            while layer.pop_reclaimed_payload().is_some() {}
        }
        (t.elapsed().as_nanos(), completed)
    })
}

/// `flash.cmd_ns`: single-block writes through a bare `Device` — admit →
/// DMA → cache → program.
pub fn flash_cmd_ns(commands: u64) -> f64 {
    ns_per_unit(|| {
        let mut dev = Device::new(DeviceProfile::plain_ssd(), 7);
        let mut q: EventQueue<DevEvent> = EventQueue::new();
        let mut out: Vec<DevAction> = Vec::new();
        let mut completed = 0u64;
        let mut next = 0u64;
        let t = Instant::now();
        loop {
            while next < commands && dev.can_accept() {
                let cmd = Command::write(
                    CmdId(next + 1),
                    Lba(next % 4096),
                    vec![BlockTag(next + 1)],
                    WriteFlags::NONE,
                );
                if dev.submit(cmd, q.now(), &mut out).is_err() {
                    break;
                }
                next += 1;
                for a in out.drain(..) {
                    match a {
                        DevAction::Complete(_) => completed += 1,
                        DevAction::After(d, ev) => q.push_after(d, ev),
                    }
                }
            }
            let Some((now, ev)) = q.pop() else { break };
            dev.handle(ev, now, &mut out);
            for a in out.drain(..) {
                match a {
                    DevAction::Complete(_) => completed += 1,
                    DevAction::After(d, ev) => q.push_after(d, ev),
                }
            }
        }
        (t.elapsed().as_nanos(), completed)
    })
}

/// `flash.ftl_append_ns`: log-structured appends over a 4096-LBA working
/// set on a 64×256 FTL (map insert, old-version invalidation, GC).
pub fn ftl_append_ns(appends: u64) -> f64 {
    ns_per_unit(|| {
        let mut ftl = Ftl::new(64, 256, 0.25);
        let t = Instant::now();
        for i in 0..appends {
            black_box(ftl.append(Lba(i % 4096), BlockTag(i + 1)));
        }
        (t.elapsed().as_nanos(), appends)
    })
}

/// `flash.cache_insert_ns`: the writeback cache's per-block cycle — insert
/// a 256-block epoch, scan destage candidates, mark and complete them.
pub fn cache_insert_ns(rounds: u64) -> f64 {
    const DEPTH: u64 = 256;
    ns_per_unit(|| {
        let mut c = WritebackCache::new(DEPTH as usize * 2);
        let mut tag = 1u64;
        let t = Instant::now();
        for r in 0..rounds {
            for i in 0..DEPTH {
                c.insert(
                    Lba((r * DEPTH + i) % (DEPTH * 4)),
                    BlockTag(tag),
                    i + 1 == DEPTH,
                );
                tag += 1;
            }
            for seq in c.destage_candidates(None, false) {
                let _ = c.mark_destaging(seq);
            }
            for seq in c.pending_seqs() {
                black_box(c.complete(seq).ok());
            }
        }
        (t.elapsed().as_nanos(), rounds * DEPTH)
    })
}

/// `sim.event_ns.<occupancy>`: push + deadline-bounded batch pop with
/// `depth` events queued — the event kernel's steady state.
pub fn event_ns(depth: u64, ops: u64) -> f64 {
    ns_per_unit(|| {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..depth {
            q.push(SimTime::from_nanos(1 + i * 37 % 50_000), i);
        }
        let mut buf: Vec<(SimTime, u64)> = Vec::new();
        let mut popped = 0u64;
        let t = Instant::now();
        while popped < ops {
            buf.clear();
            let deadline = q.now() + SimDuration::from_secs(1);
            if q.pop_batch_at_or_before(deadline, &mut buf, 256) == 0 {
                break;
            }
            for &(_, ev) in &buf {
                let delay = SimDuration::from_nanos(200 + (popped * 97) % 30_000);
                q.push_after(delay, ev);
                popped += 1;
            }
        }
        black_box(q.len());
        (t.elapsed().as_nanos(), popped)
    })
}

/// `bench.crash.capture_ns_per_point` and
/// `bench.crash.enumerate_ns_per_point`: capturing, then enumerating, the
/// crash points of one BFS-OD 1q×1dev trace.
pub fn crash_point_ns(seed: u64) -> (f64, f64) {
    let cs = crash_stacks()
        .into_iter()
        .nth(2)
        .expect("BFS-OD 1q1d is the third differential stack");
    let mut enumerate = Vec::new();
    let capture = ns_per_unit(|| {
        let t = Instant::now();
        let points = capture_points(cs.cfg.clone(), cs.sync, seed, CaptureMode::Delta);
        let capture = (t.elapsed().as_nanos(), points.len() as u64);
        let t = Instant::now();
        for p in &points {
            black_box(enumerate_point(p, seed));
        }
        enumerate.push(t.elapsed().as_nanos() as f64 / points.len().max(1) as f64);
        capture
    });
    (capture, median(&enumerate).unwrap_or(0.0))
}
