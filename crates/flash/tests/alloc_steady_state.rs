//! The device allocates nothing in steady state (README): once the
//! writeback cache is full and the scratch buffers have met their largest
//! use (a drain is a watermark and a count, it owns no storage),
//! `Device::submit` / `Device::handle` allocate
//! nothing — not per destage pump, not per write, not per flush. A write's
//! payload arrives inside its command and is read in place. (The stack
//! above the device does allocate; `crates/core/tests/alloc_census.rs`
//! counts it.)
//!
//! The counting allocator lives here, in the integration test's own crate,
//! so `bio-flash` keeps `#![forbid(unsafe_code)]`. It counts per thread and
//! only while armed, i.e. only inside the two device calls: the harness's
//! event queue and the pre-built command payloads are the caller's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bio_flash::{
    BarrierMode, BlockTag, CmdId, Command, DevAction, DevEvent, Device, DeviceProfile, Lba,
    WriteFlags,
};
use bio_sim::EventQueue;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Fresh blocks requested while armed.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Existing blocks regrown while armed.
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    if ARMED.with(Cell::get) {
        counter.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-locals
// without destructors, so touching them never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCS);
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCS);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&REALLOCS);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` with the counters armed.
fn armed<R>(f: impl FnOnce() -> R) -> R {
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    r
}

fn take_counts() -> (u64, u64) {
    (ALLOCS.with(Cell::take), REALLOCS.with(Cell::take))
}

/// Drives `cmds` (consumed from the back) through the device as a closed
/// loop that keeps the queue full, counting only inside the device.
fn drive(
    dev: &mut Device,
    q: &mut EventQueue<DevEvent>,
    out: &mut Vec<DevAction>,
    cmds: &mut Vec<Command>,
) {
    loop {
        while dev.can_accept() {
            let Some(cmd) = cmds.pop() else { break };
            let now = q.now();
            armed(|| dev.submit(cmd, now, out)).expect("can_accept promised room");
        }
        if out.is_empty() {
            if cmds.is_empty() {
                return;
            }
            let (now, ev) = q.pop().expect("device stalled with commands left");
            armed(|| dev.handle(ev, now, out));
        }
        for a in out.drain(..) {
            if let DevAction::After(d, ev) = a {
                q.push_after(d, ev);
            }
        }
    }
}

/// `n` two-block writes over a 2,048-block region, ids from `first`, in
/// submission order reversed (so `pop` hands them out in order): every
/// eighth a barrier write, every 64th a FUA write; with `flushes`, every
/// 256th command is a flush instead.
fn commands(first: u64, n: u64, flushes: bool) -> Vec<Command> {
    let mut cmds: Vec<Command> = (first..first + n)
        .map(|i| {
            if flushes && i % 256 == 0 {
                return Command::flush(CmdId(i));
            }
            let flags = match i {
                _ if i % 64 == 1 => WriteFlags {
                    fua: true,
                    ..WriteFlags::NONE
                },
                _ if i % 8 == 3 => WriteFlags::BARRIER,
                _ => WriteFlags::NONE,
            };
            let tags = vec![BlockTag(2 * i), BlockTag(2 * i + 1)];
            Command::write(CmdId(i), Lba(i * 37 % 2046), tags, flags)
        })
        .collect();
    cmds.reverse();
    cmds
}

#[test]
fn steady_state_device_path_does_not_allocate() {
    const FILL: u64 = 12_000;
    const MEASURED: u64 = 10_000;
    for base in [DeviceProfile::plain_ssd(), DeviceProfile::ufs()] {
        for mode in [
            BarrierMode::Unsupported,
            BarrierMode::InOrderWriteback,
            BarrierMode::Transactional,
            BarrierMode::LfsInOrderRecovery,
        ] {
            let mut profile = base.clone().with_barrier_mode(mode);
            // ~90k blocks over a 2,048-block region of a 16k-page device:
            // garbage collection runs inside the measured windows too.
            profile.segments = 64;
            profile.pages_per_segment = 256;
            let what = format!("{} {mode:?}", profile.name);
            let cache_blocks = profile.cache_blocks;
            let mut dev = Device::new(profile, 7);
            let mut q = EventQueue::new();
            let mut out = Vec::new();
            let mut next = 1;
            let mut run = |dev: &mut Device, n: u64, flushes: bool| {
                drive(dev, &mut q, &mut out, &mut commands(next, n, flushes));
                next += n;
                take_counts()
            };
            // Nothing may be allocated afresh. Long-lived buffers may still
            // reach a new high-water mark (the queue-depth series is an
            // append-only instrument, the FUA wait list and ring tables
            // grow to the largest use they have met); what must not show
            // is growth in step with the commands.
            let check = |(allocs, reallocs): (u64, u64), regime: &str| {
                assert_eq!(allocs, 0, "{what}: allocations in {MEASURED} {regime}");
                assert!(
                    reallocs <= 8,
                    "{what}: {reallocs} buffers regrown, {regime}"
                );
            };

            // Warm-up: fill the cache, then let the first flushes meet it
            // full — the deepest drains the scratch buffers will ever serve.
            run(&mut dev, FILL, false);
            run(&mut dev, 2_000, true);
            let gc_before = dev.ftl_stats().gc_runs;
            check(run(&mut dev, MEASURED, true), "commands, a flush every 256");

            run(&mut dev, FILL, false);
            assert!(
                dev.cache().len() * 4 >= cache_blocks * 3,
                "{what}: cache not refilled ({} of {cache_blocks})",
                dev.cache().len()
            );
            check(run(&mut dev, MEASURED, false), "writes on a full cache");
            assert!(
                dev.ftl_stats().gc_runs > gc_before,
                "{what}: no GC measured"
            );
        }
    }
}
