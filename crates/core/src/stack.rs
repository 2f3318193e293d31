//! The assembled IO stack: filesystem + block layer + device in one
//! deterministic event loop, with simulated application threads driving
//! workloads.

use bio_block::{
    BlockAction, BlockConfig, BlockEvent, BlockLayer, BlockStats, LaneStats, Topology,
};
use bio_flash::{
    BlockMap, BlockTag, Device, DeviceStats, EpochAudit, EpochViolation, FtlStats, ImageView, Lba,
};
use bio_fs::{
    ConsistencyCheck, FileId, Filesystem, FsAction, FsEvent, FsStats, FsViolation, SyscallOutcome,
    ThreadId,
};
use bio_sim::{ActionSink, EventQueue, SimDuration, SimRng, SimTime};

use crate::config::StackConfig;
use crate::metrics::{Metrics, RunReport};
use crate::ops::{FileRef, Op, OpKind, Workload};

/// Events of the assembled stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Fs(FsEvent),
    Block(BlockEvent),
    /// A thread is ready to issue its next operation.
    ThreadNext(ThreadId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Ready,
    InSyscall,
    Congested,
    Finished,
}

struct WThread {
    workload: Box<dyn Workload>,
    slots: Vec<FileId>,
    state: ThreadState,
    rng: SimRng,
    current_kind: OpKind,
    op_started: SimTime,
}

/// Full report of one measured window: per-op metrics plus device/fs/block
/// counters, each since [`IoStack::start_measuring`] except the drop
/// counters (the whole run) and the gauges (the present).
#[derive(Debug, Clone)]
pub struct StackReport {
    /// Per-operation metrics.
    pub run: RunReport,
    /// 4 KiB blocks written to the device per second (the paper's IOPS
    /// axis for Figs 1 and 9).
    pub write_kiops: f64,
    /// Time-weighted mean device queue depth.
    pub mean_qd: f64,
    /// Peak device queue depth.
    pub peak_qd: f64,
    /// Device counters summed over every device.
    pub device: DeviceStats,
    /// Per-lane dispatch counters, in lane-index order.
    pub lanes: Vec<LaneStats>,
    /// FTL counters summed over every device.
    pub ftl: FtlStats,
    /// Filesystem counters.
    pub fs: FsStats,
    /// Block-layer counters.
    pub block: BlockStats,
}

/// Crash-injection result: the persisted images plus both audits.
#[derive(Debug)]
pub struct CrashReport {
    /// Surviving block versions of each device, at its own local
    /// addresses, in device-index order (one image on the 1×1 topology).
    pub images: Vec<BlockMap>,
    /// Filesystem-level violations (commit order, torn transactions,
    /// ordered data, durability claims).
    pub fs_violations: Vec<FsViolation>,
    /// Device-level epoch violations (only when history recording was
    /// enabled).
    pub epoch_violations: Vec<EpochViolation>,
}

impl CrashReport {
    /// True when the crash respected every guarantee.
    pub fn is_consistent(&self) -> bool {
        self.fs_violations.is_empty() && self.epoch_violations.is_empty()
    }
}

/// Everything that changed since the previous capture epoch, drained by
/// [`IoStack::drain_capture_delta`]: the record-history mutations from the
/// filesystem plus, per device, the blocks it folded into its durable
/// base ([`Device::drain_capture_delta`]). Empty vectors
/// mean "nothing happened since last drain" — a capture built on top of
/// the previous one needs no further reconciliation. A capture engine
/// keeps one and drains into it at every capture, reusing its buffers.
#[derive(Debug, Clone, Default)]
pub struct StackCaptureDelta {
    /// Transaction ids whose records flipped `durability_claimed` since
    /// the last drain (the only in-place mutation of the record history).
    pub records_marked_durable: Vec<u64>,
    /// Per-device folds `(block, tag)`, in fold order, devices in
    /// device-index order.
    pub devices: Vec<Vec<(Lba, BlockTag)>>,
}

/// The volume a filesystem sees after a crash: every global address read
/// through [`Topology::locate`] from its device (the identity on one
/// device), device `d` at local address `lba` read as `read(d, lba)`.
/// Nothing is remapped or copied, so one costs nothing to build per image.
pub struct StripedImage<F> {
    topology: Topology,
    read: F,
}

impl<F: Fn(usize, Lba) -> BlockTag> StripedImage<F> {
    /// The volume `topology` stripes over devices read by `read`.
    pub fn new(topology: Topology, read: F) -> StripedImage<F> {
        StripedImage { topology, read }
    }
}

impl<F: Fn(usize, Lba) -> BlockTag> ImageView for StripedImage<F> {
    #[inline]
    fn tag(&self, lba: Lba) -> BlockTag {
        let (device, local) = match self.topology.nr_devices {
            1 => (0, lba),
            _ => self.topology.locate(lba),
        };
        (self.read)(device, local)
    }
}

/// CPU cost charged per issued syscall (keeps zero-time loops honest).
pub const CPU_PER_OP: SimDuration = SimDuration::from_micros(2);

/// Block-layer congestion threshold (the kernel's `nr_requests`): threads
/// stall while this many requests or more are queued, and resume below
/// half of it.
pub const CONGESTION_LIMIT: usize = 128;

/// The assembled barrier-enabled (or legacy) IO stack.
pub struct IoStack {
    cfg: StackConfig,
    q: EventQueue<Event>,
    fs: Filesystem,
    block: BlockLayer,
    threads: Vec<WThread>,
    metrics: Metrics,
    congested: Vec<ThreadId>,
    global_files: Vec<FileId>,
    /// Reusable scratch the filesystem writes its actions into; drained by
    /// the routing work loop after every syscall/event, so routing itself
    /// allocates nothing (the layers do: `tests/alloc_census.rs` counts it).
    fs_sink: ActionSink<FsAction>,
    /// Reusable scratch for block-layer actions (same lifecycle).
    block_sink: ActionSink<BlockAction>,
    /// Threads in the terminal `Finished` state (the all-done check must
    /// run between consecutive events, so it has to be O(1)).
    finished_threads: usize,
}

impl IoStack {
    /// Builds the stack from a configuration. A multi-device topology
    /// instantiates one device per slot from the same profile; device 0
    /// keeps the master seed (so the 1×1 stack is bit-identical with the
    /// pre-topology stack) and the rest derive theirs from it.
    pub fn new(cfg: StackConfig) -> IoStack {
        let devices = (0..cfg.topology.nr_devices)
            .map(|i| {
                let seed = cfg.seed ^ 0xA076_1D64_78BD_642Fu64.wrapping_mul(i as u64);
                let mut device = Device::new(cfg.device.clone(), seed);
                device.record_history(cfg.record_history);
                device
            })
            .collect();
        let block = BlockLayer::new(devices, BlockConfig::default().with_topology(cfg.topology));
        let fs = Filesystem::new(cfg.fs.clone());
        let mut stack = IoStack {
            q: EventQueue::new(),
            block,
            fs,
            threads: Vec::new(),
            metrics: Metrics::new(),
            congested: Vec::new(),
            global_files: Vec::new(),
            fs_sink: ActionSink::new(),
            block_sink: ActionSink::new(),
            finished_threads: 0,
            cfg,
        };
        // Arm the filesystem's periodic tasks through the router.
        stack.fs.start(&mut stack.fs_sink);
        stack.route_fs_actions();
        stack
    }

    /// The configuration.
    pub fn config(&self) -> &StackConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.q.now()
    }

    /// All devices, in device-index order.
    pub fn devices(&self) -> &[Device] {
        self.block.devices()
    }

    /// Device `i` of the topology.
    pub fn device_at(&self, i: usize) -> &Device {
        self.block.device_at(i)
    }

    /// Direct filesystem access.
    pub fn fs(&self) -> &Filesystem {
        &self.fs
    }

    /// True once every workload thread has reached the terminal
    /// `Finished` state (the stack may still have journal work queued —
    /// see [`bio_fs::Filesystem::journal_quiescent`] for that half).
    pub fn workloads_finished(&self) -> bool {
        self.all_threads_finished()
    }

    /// Arms per-epoch delta tracking in the filesystem and every device:
    /// from this call on, durable-mark and fold events are journaled so
    /// [`IoStack::drain_capture_delta`] can report exactly what changed
    /// since the previous capture. Idempotent; costs one `Vec::push` per
    /// tracked event while armed.
    pub fn enable_capture_tracking(&mut self) {
        self.fs.enable_capture_tracking();
        for dev in self.block.devices_mut() {
            dev.enable_capture_tracking();
        }
    }

    /// Replaces `into` with the per-epoch capture deltas accumulated since
    /// the last drain (or since [`IoStack::enable_capture_tracking`]),
    /// devices in device-index order. `into` keeps its buffers, so a
    /// caller that drains into the same delta every time allocates nothing
    /// once the buffers have met the largest epoch.
    pub fn drain_capture_delta(&mut self, into: &mut StackCaptureDelta) {
        into.records_marked_durable.clear();
        into.records_marked_durable
            .extend(self.fs.drain_durable_marks());
        let devices = self.block.devices_mut();
        into.devices.resize_with(devices.len(), Vec::new);
        for (dev, delta) in devices.iter_mut().zip(&mut into.devices) {
            dev.drain_capture_delta(delta);
        }
    }

    /// Creates a shared file visible to workloads as
    /// [`FileRef::Global`]`(index)`. Call before starting the run.
    pub fn create_global_file(&mut self) -> usize {
        let fid = self.fs.create(ThreadId(0), &mut self.fs_sink);
        self.route_fs_actions();
        self.global_files.push(fid);
        self.global_files.len() - 1
    }

    /// Adds a workload thread; it starts issuing operations immediately
    /// (staggered by a microsecond per thread to avoid artificial
    /// lockstep).
    pub fn add_thread(&mut self, workload: Box<dyn Workload>) -> ThreadId {
        let tid = ThreadId(self.threads.len() as u32);
        let seed = self.cfg.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tid.0 as u64 + 1));
        self.threads.push(WThread {
            workload,
            slots: Vec::new(),
            state: ThreadState::Ready,
            rng: SimRng::new(seed),
            current_kind: OpKind::Think,
            op_started: SimTime::ZERO,
        });
        let stagger = SimDuration::from_micros(tid.0 as u64 + 1);
        self.q.push(self.q.now() + stagger, Event::ThreadNext(tid));
        tid
    }

    // ------------------------------------------------------------------
    // Event routing.
    // ------------------------------------------------------------------

    /// Drains the filesystem action sink — the explicit work loop that
    /// replaced the old `route_fs` → `route_block` recursion. Filesystem
    /// actions are processed in emission order; a `Submit` runs the block
    /// layer immediately and drains its actions before the next
    /// filesystem action, which preserves the depth-first routing order
    /// of the recursive version exactly (the block layer never emits
    /// filesystem actions, so the loop is flat).
    fn route_fs_actions(&mut self) {
        let mut actions = self.fs_sink.take_buf();
        for a in actions.drain(..) {
            match a {
                FsAction::Submit(req) => {
                    let now = self.q.now();
                    self.block.submit(req, now, &mut self.block_sink);
                    self.route_block_actions();
                }
                FsAction::Wake(tid) => {
                    self.complete_op(tid);
                }
                FsAction::CtxSwitch(tid) => match self.threads.get(tid.0 as usize) {
                    Some(th) => self.metrics.record_ctx_switch(th.current_kind),
                    // Forged, like a `Wake` for an unknown thread.
                    None => self.metrics.note_dropped_wakeup(),
                },
                FsAction::After(d, ev) => {
                    self.q.push_after(d, Event::Fs(ev));
                }
            }
        }
        self.fs_sink.restore(actions);
    }

    /// Drains the block action sink into scheduled events. Block actions
    /// never re-enter a layer state machine, so this loop cannot grow its
    /// own input.
    fn route_block_actions(&mut self) {
        for a in self.block_sink.drain() {
            match a {
                BlockAction::Complete(rid, _at) => {
                    self.q.push_now(Event::Fs(FsEvent::ReqDone(rid)));
                }
                BlockAction::After(d, ev) => {
                    self.q.push_after(d, Event::Block(ev));
                }
            }
        }
    }

    /// Records the completion of the current blocked op and schedules the
    /// thread's next operation.
    fn complete_op(&mut self, tid: ThreadId) {
        let now = self.q.now();
        // A completion for a thread id this stack never created is a
        // forged event: drop it with a counter (handlers are total; see
        // docs/INVARIANTS.md).
        let Some(th) = self.threads.get_mut(tid.0 as usize) else {
            self.metrics.note_dropped_wakeup();
            return;
        };
        debug_assert_eq!(th.state, ThreadState::InSyscall);
        th.state = ThreadState::Ready;
        let latency = now.saturating_since(th.op_started);
        self.metrics.record_op(th.current_kind, latency);
        self.q.push_after(CPU_PER_OP, Event::ThreadNext(tid));
    }

    /// The file `r` names for a thread with these `slots`. A reference to
    /// a file that was never created resolves to an id no filesystem
    /// hands out, so the syscall carrying it is dropped and counted where
    /// every unknown file is (`FsStats::dropped_journal_events`).
    fn resolve(global_files: &[FileId], slots: &[FileId], r: FileRef) -> FileId {
        let file = match r {
            FileRef::Global(i) => global_files.get(i),
            FileRef::Slot(i) => slots.get(i),
        };
        file.copied().unwrap_or(FileId(u32::MAX))
    }

    fn thread_issue(&mut self, tid: ThreadId, now: SimTime) {
        // A `ThreadNext` for a thread this stack never created is forged:
        // dropped and counted like its completion (`complete_op`).
        let Some(th) = self.threads.get_mut(tid.0 as usize) else {
            self.metrics.note_dropped_wakeup();
            return;
        };
        if th.state == ThreadState::Finished {
            return;
        }
        // Congestion control (the kernel's nr_requests): stall issuing
        // while the block layer is backed up. A thread is listed exactly
        // while it is `Congested`, so a re-stall (a duplicated
        // `ThreadNext`) does not list it twice.
        if self.block.queued() >= CONGESTION_LIMIT {
            if th.state != ThreadState::Congested {
                th.state = ThreadState::Congested;
                self.congested.push(tid);
            }
            return;
        }
        th.state = ThreadState::Ready;
        let Some(op) = th.workload.next_op(&mut th.rng) else {
            th.state = ThreadState::Finished;
            self.finished_threads += 1; // terminal: never decremented
            return;
        };
        let kind = op.kind();
        th.current_kind = kind;
        th.op_started = now;
        debug_assert!(self.fs_sink.is_empty(), "sink drained between ops");
        let resolve = |r: FileRef| Self::resolve(&self.global_files, &th.slots, r);
        let outcome = match op {
            Op::Think { dur } => {
                self.metrics.record_op(OpKind::Think, dur);
                self.q.push_after(dur, Event::ThreadNext(tid));
                return;
            }
            Op::TxnMark => {
                self.metrics.record_op(OpKind::TxnMark, SimDuration::ZERO);
                self.q.push_now(Event::ThreadNext(tid));
                return;
            }
            Op::Create { slot } => {
                let fid = self.fs.create(tid, &mut self.fs_sink);
                if th.slots.len() <= slot {
                    th.slots.resize(slot + 1, fid);
                }
                if let Some(s) = th.slots.get_mut(slot) {
                    *s = fid;
                }
                SyscallOutcome::Done
            }
            Op::Unlink { file } => {
                let f = resolve(file);
                self.fs.unlink(tid, f, &mut self.fs_sink);
                SyscallOutcome::Done
            }
            Op::Write {
                file,
                offset,
                blocks,
            } => {
                let f = resolve(file);
                self.fs
                    .write(tid, f, offset, blocks, now, &mut self.fs_sink)
            }
            Op::Read {
                file,
                offset,
                blocks,
            } => {
                let f = resolve(file);
                self.fs.read(tid, f, offset, blocks, &mut self.fs_sink)
            }
            Op::Fsync { file } => {
                let f = resolve(file);
                self.fs.fsync(tid, f, now, &mut self.fs_sink)
            }
            Op::Fdatasync { file } => {
                let f = resolve(file);
                self.fs.fdatasync(tid, f, now, &mut self.fs_sink)
            }
            Op::Fbarrier { file } => {
                let f = resolve(file);
                self.fs.fbarrier(tid, f, now, &mut self.fs_sink)
            }
            Op::Fdatabarrier { file } => {
                let f = resolve(file);
                self.fs.fdatabarrier(tid, f, now, &mut self.fs_sink)
            }
        };
        self.route_fs_actions();
        match outcome {
            SyscallOutcome::Done => {
                self.metrics.record_op(kind, SimDuration::ZERO);
                self.q.push_after(CPU_PER_OP, Event::ThreadNext(tid));
            }
            SyscallOutcome::Blocked => {
                if let Some(th) = self.threads.get_mut(tid.0 as usize) {
                    th.state = ThreadState::InSyscall;
                }
            }
        }
    }

    fn maybe_uncongest(&mut self) {
        if self.congested.is_empty() || self.block.queued() >= CONGESTION_LIMIT / 2 {
            return;
        }
        let woken = std::mem::take(&mut self.congested);
        for tid in woken {
            let th = self.threads.get_mut(tid.0 as usize);
            if let Some(th) = th.filter(|th| th.state == ThreadState::Congested) {
                th.state = ThreadState::Ready;
                self.q.push_now(Event::ThreadNext(tid));
            }
        }
    }

    // ------------------------------------------------------------------
    // Execution.
    // ------------------------------------------------------------------

    /// Processes one event; returns false when the queue is empty.
    /// Exposed so callers can observe intermediate state (e.g. the
    /// committing-transaction list) between events.
    pub fn step(&mut self) -> bool {
        let Some((now, ev)) = self.q.pop() else {
            return false;
        };
        self.dispatch_event(ev, now);
        self.maybe_uncongest();
        true
    }

    /// Routes one popped event into the owning layer and drains the
    /// resulting actions through the reusable sinks.
    fn dispatch_event(&mut self, ev: Event, now: SimTime) {
        match ev {
            Event::Fs(ev) => {
                self.fs.handle(ev, now, &mut self.fs_sink);
                self.route_fs_actions();
            }
            Event::Block(ev) => {
                self.block.handle(ev, now, &mut self.block_sink);
                self.route_block_actions();
            }
            Event::ThreadNext(tid) => self.thread_issue(tid, now),
        }
    }

    /// True once every workload thread has reached the terminal
    /// `Finished` state.
    fn all_threads_finished(&self) -> bool {
        self.finished_threads == self.threads.len()
    }

    /// The run loop behind [`IoStack::run_for`] and
    /// [`IoStack::run_until_done`]: [`IoStack::step`] repeated while an
    /// event is due at or before `deadline`. With `until_done` it returns
    /// true as soon as every thread has finished — checked before each
    /// pop, so nothing past that point is consumed; otherwise false.
    fn drive(&mut self, deadline: SimTime, until_done: bool) -> bool {
        loop {
            if until_done && self.all_threads_finished() {
                return true;
            }
            let Some((now, ev)) = self.q.pop_at_or_before(deadline) else {
                return false;
            };
            self.dispatch_event(ev, now);
            self.maybe_uncongest();
        }
    }

    /// Runs for a simulated duration (events beyond the deadline stay
    /// queued).
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.q.now() + d;
        self.drive(deadline, false);
    }

    /// Runs until every workload thread has finished (plus a settle
    /// period for in-flight IO), or until `cap` simulated time passes.
    /// Returns true if all threads finished.
    pub fn run_until_done(&mut self, cap: SimDuration) -> bool {
        let deadline = self.q.now() + cap;
        self.drive(deadline, true)
    }

    /// Starts the measured window now: every layer zeroes its counters, so
    /// a report counts this window only, except the five `dropped_*` /
    /// `out_of_range_writes` counters (the whole run) and the gauges
    /// `gated` and `queued` (the present). No state or time moves.
    pub fn start_measuring(&mut self) {
        let now = self.q.now();
        self.metrics.reset(now);
        self.fs.start_window();
        self.block.start_window(now);
    }

    /// Builds the report for the measured window. Device and FTL counters
    /// are summed over every device; queue depth is the mean of the
    /// per-device means (and the max of the per-device peaks).
    pub fn report(&self) -> StackReport {
        let now = self.q.now();
        let run = self.metrics.report(now);
        let secs = run.elapsed.as_secs_f64();
        let mut device = DeviceStats::default();
        let mut ftl = FtlStats::default();
        let mut mean_qd = 0.0;
        let mut peak_qd = 0.0f64;
        for d in self.block.devices() {
            device += d.stats();
            ftl += d.ftl_stats();
            let qd = d.qd_window();
            mean_qd += qd.mean(now);
            peak_qd = peak_qd.max(qd.peak(now));
        }
        mean_qd /= self.block.devices().len() as f64;
        StackReport {
            run,
            write_kiops: if secs > 0.0 {
                device.blocks_written as f64 / secs / 1000.0
            } else {
                0.0
            },
            mean_qd,
            peak_qd,
            device,
            lanes: self.block.lane_stats(),
            ftl,
            fs: self.fs.stats(),
            block: self.block.stats(),
        }
    }

    /// Injects a power failure right now and audits the survivors.
    ///
    /// Each device's image is computed once. The filesystem-level audit
    /// reads them through the stripe layout ([`Topology::locate`]), so a
    /// multi-device volume is never remapped into one global image; the
    /// device-level epoch audit runs per device against that device's own
    /// image and history.
    pub fn crash(&self) -> CrashReport {
        let devices = self.block.devices();
        let images: Vec<BlockMap> = devices.iter().map(Device::crash_image).collect();
        let volume = StripedImage::new(self.cfg.topology, |d, lba| {
            images
                .get(d)
                .map_or(BlockTag::UNWRITTEN, |image| image.tag(lba))
        });
        let fs_violations = ConsistencyCheck::new(self.fs.records()).violations(&volume);
        let mut epoch_violations = Vec::new();
        for (d, image) in devices.iter().zip(&images) {
            if let Some(h) = d.history() {
                epoch_violations.extend(EpochAudit::new(h).violations(image));
            }
        }
        CrashReport {
            images,
            fs_violations,
            epoch_violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use bio_flash::DeviceProfile;

    use super::*;
    use crate::ops::ScriptWorkload;

    fn txn_script(file: FileRef) -> Vec<Op> {
        let (offset, blocks) = (0, 1);
        let write = Op::Write {
            file,
            offset,
            blocks,
        };
        vec![write, Op::Fsync { file }, Op::TxnMark]
    }

    #[test]
    fn an_event_is_three_words() {
        // Every event is moved through the kernel's heap or FIFO lane: a
        // field added to a device event grows all of them.
        assert_eq!(std::mem::size_of::<Event>(), 24);
    }

    #[test]
    fn forged_thread_ids_are_dropped_and_counted_on_every_path() {
        let mut stack = IoStack::new(StackConfig::bfs(DeviceProfile::ufs()));
        let f = FileRef::Global(stack.create_global_file());
        stack.add_thread(Box::new(ScriptWorkload::repeat(txn_script(f), 10)));
        let forged = ThreadId(7);
        // Both filesystem-action arms that name a thread…
        stack.fs_sink.push(FsAction::Wake(forged));
        stack.fs_sink.push(FsAction::CtxSwitch(forged));
        stack.route_fs_actions();
        assert_eq!(stack.metrics.dropped_wakeups, 2);
        // …and the event that makes a thread issue its next op.
        stack.q.push_now(Event::ThreadNext(forged));
        assert!(stack.run_until_done(SimDuration::from_secs(60)));
        assert_eq!(stack.metrics.dropped_wakeups, 3);
        assert_eq!(stack.report().run.txns, 10, "the run continues");
    }

    #[test]
    fn a_duplicated_thread_next_leaves_a_congested_thread_listed_once() {
        let mut stack = IoStack::new(StackConfig::bfs(DeviceProfile::ufs()).ordering_only());
        for _ in 0..256 {
            let file = FileRef::Global(stack.create_global_file());
            let write = Op::Write {
                file,
                offset: 0,
                blocks: 1,
            };
            let script = vec![write, Op::Fdatabarrier { file }];
            stack.add_thread(Box::new(ScriptWorkload::forever(script)));
        }
        while stack.congested.is_empty() {
            assert!(stack.step(), "256 barrier writers back the block layer up");
        }
        let tid = stack.congested[0];
        let now = stack.now();
        stack.thread_issue(tid, now);
        stack.thread_issue(tid, now);
        let listed = stack.congested.iter().filter(|&&t| t == tid).count();
        assert_eq!(listed, 1);
        assert!(stack.threads[tid.0 as usize].state == ThreadState::Congested);
    }

    #[test]
    fn ops_on_files_never_created_are_dropped_by_the_filesystem() {
        let mut stack = IoStack::new(StackConfig::ext4_dr(DeviceProfile::ufs()));
        let f = FileRef::Global(stack.create_global_file());
        let mut script = txn_script(FileRef::Slot(3));
        script.extend(txn_script(FileRef::Global(9)));
        script.extend(txn_script(f));
        stack.add_thread(Box::new(ScriptWorkload::repeat(script, 5)));
        assert!(stack.run_until_done(SimDuration::from_secs(60)));
        // Two forged references, a write and an fsync each, five times.
        assert_eq!(stack.fs().stats().dropped_journal_events, 2 * 2 * 5);
        assert_eq!(stack.report().run.txns, 3 * 5);
    }
}
