//! Order-Preserving Dispatch (§3.4) and the block layer facade.
//!
//! [`BlockLayer`] owns the device array and runs one path for every
//! [`Topology`] — `submit` → epoch gate → `admit` → pump every lane →
//! sequencer release — of which the classical 1 queue × 1 device stack is
//! the one-lane case:
//!
//! * requests are queued per lane — one lane per `(device, hardware
//!   queue)` pair, each owning one [`EpochScheduler`];
//! * logical addresses are striped RAID-0 style across the devices. A
//!   request whose blocks land on one device (every request, on a single
//!   device) goes to its lane whole, under its own id; one spanning
//!   several devices is split into per-device parts and completes upward
//!   only when every part has completed;
//! * the **epoch sequencer** implements §3.3's blocking rule: a barrier
//!   closes the epoch on every lane at once and shuts the gate, later
//!   requests wait in `front`, and the gate reopens with the dispatch that
//!   leaves every lane drained of the closed epoch — "the queue unblocks
//!   when the last order-preserving request of the epoch leaves it";
//! * dispatchable requests are converted to device commands by their
//!   flags alone (a legacy filesystem issues no barrier, so its commands
//!   go out `simple`). A barrier write carries `REQ_BARRIER` and the
//!   SCSI **ordered** priority, which is "the only thing the host block
//!   device driver does" to guarantee transfer order without blocking the
//!   caller;
//! * a lane dispatches only while its device has room. A request the
//!   device refuses anyway waits at the head of its lane and is offered
//!   first by the next sweep after a completion;
//! * device completions are translated back into per-request completions
//!   (a merged request completes every constituent bio).

use std::collections::VecDeque;

use bio_flash::{
    BlockTag, CmdId, CmdKind, Command, DevAction, DevEvent, Device, Lba, Priority, WriteFlags,
};
use bio_sim::{ActionSink, SeqTable, SimDuration, SimTime};

use crate::epoch::EpochScheduler;
use crate::request::{BlockRequest, MergedRequest, ReqFlags, ReqId, ReqIds, ReqOp};
use crate::topology::Topology;

/// The dispatch discipline's name, from when there was a choice. A
/// request's flags alone decide its command; the enum and
/// [`BlockConfig::dispatch`] are read by nothing and stay only because
/// `benchmark/src/probes.rs` names them (ROADMAP item 7(2)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Order-preserving dispatch: barrier writes carry the `ordered`
    /// priority and the `REQ_BARRIER` device flag.
    #[default]
    OrderPreserving,
}

/// The lane scheduler's name, from when there was a choice. Every lane
/// owns the one [`EpochScheduler`]; the enum, [`BlockConfig::scheduler`]
/// and [`BlockConfig::new`]'s first parameter select nothing and stay only
/// because `benchmark/src/probes.rs` — which a PR may not edit — names
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// LBA-sweep + merging (CFQ-lite).
    #[default]
    Elevator,
}

/// Everything the block layer needs to know, in one place: the lane
/// [`Topology`].
///
/// Replaces the old `BlockLayer::new(dev, scheduler, dispatch)` positional
/// constructor so new knobs extend this struct instead of churning every
/// call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockConfig {
    /// Read by nothing (see [`SchedulerKind`]).
    pub scheduler: SchedulerKind,
    /// Read by nothing (see [`DispatchMode`]).
    pub dispatch: DispatchMode,
    /// Lane topology (queues × devices, stripe unit).
    pub topology: Topology,
}

impl Default for BlockConfig {
    fn default() -> BlockConfig {
        BlockConfig {
            scheduler: SchedulerKind::Elevator,
            dispatch: DispatchMode::OrderPreserving,
            topology: Topology::single(),
        }
    }
}

impl BlockConfig {
    /// Config on the classical 1 queue × 1 device topology; both
    /// parameters are read by nothing.
    pub fn new(scheduler: SchedulerKind, dispatch: DispatchMode) -> BlockConfig {
        BlockConfig {
            scheduler,
            dispatch,
            ..BlockConfig::default()
        }
    }

    /// Builder-style topology override.
    pub fn with_topology(mut self, topology: Topology) -> BlockConfig {
        self.topology = topology;
        self
    }
}

/// Events the block layer schedules for itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockEvent {
    /// A device-internal event to forward to device `dev`.
    Dev {
        /// Device index in the topology.
        dev: u32,
        /// The device event to forward.
        ev: DevEvent,
    },
}

/// What the block layer reports upward after processing an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockAction {
    /// A bio completed (one per constituent of a merged request).
    Complete(ReqId, SimTime),
    /// Schedule `BlockEvent` after the delay.
    After(SimDuration, BlockEvent),
}

/// Block-layer statistics (aggregated over all lanes).
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockStats {
    /// Requests submitted by the filesystem.
    pub submitted: u64,
    /// Commands dispatched to the devices.
    pub dispatched: u64,
    /// Completions delivered upward.
    pub completed: u64,
    /// Requests the device refused (each waits at the head of its lane
    /// for the next completion).
    pub busy_retries: u64,
    /// Extra per-device parts created by stripe splitting (a request whose
    /// blocks land on one device passes through whole and adds none).
    pub split_parts: u64,
    /// Epochs released by the epoch sequencer: one per barrier whose
    /// epoch every lane has drained, on every topology.
    pub epochs_sequenced: u64,
    /// Events dropped because they referenced a lane or device that does
    /// not exist (stale or forged events; handlers are total and never
    /// abort on a bad index).
    pub dropped_events: u64,
    /// Preflush writes decomposed into an all-device flush broadcast
    /// followed by the write (whenever the layer has more than one lane;
    /// a single lane leaves `flush_before` to the command itself).
    pub preflush_fanouts: u64,
    /// Gauge: requests waiting behind the closed epoch gate right now.
    /// The lanes' [`LaneStats::queued`] plus this is
    /// [`BlockLayer::queued`].
    pub gated: usize,
}

/// Per-lane dispatch statistics.
#[derive(Debug, Clone, Copy)]
pub struct LaneStats {
    /// Device this lane feeds.
    pub device: usize,
    /// Hardware queue index on that device.
    pub hw_queue: usize,
    /// Commands dispatched by this lane.
    pub dispatched: u64,
    /// Device-busy bounces on this lane.
    pub busy_retries: u64,
    /// Barrier reassignments performed by this lane's epoch scheduler.
    pub reassignments: u64,
    /// Epochs this lane has drained and released so far — every lane
    /// takes part in every epoch, so this is
    /// [`BlockStats::epochs_sequenced`].
    pub epochs_released: u64,
    /// Requests currently queued on the lane (a bounced one included);
    /// requests behind the epoch gate are in [`BlockStats::gated`].
    pub queued: usize,
    /// Requests (or split parts) placed on this lane — how evenly
    /// request-id routing and striping spread the submitted load.
    pub routed: u64,
}

/// One `(device, hardware queue)` lane: its queue plus dispatch state.
#[derive(Debug)]
struct Lane {
    /// Everything the lane holds between admission and the device,
    /// including a request the device bounced.
    sched: EpochScheduler,
    dispatched: u64,
    busy_retries: u64,
    /// Requests routed to this lane at admission.
    routed: u64,
}

/// Lane-level request ids with this bit set name a split (`PART_BIT |
/// split key`) instead of a bio; ids submitted from above must leave it
/// clear.
const PART_BIT: u64 = 1 << 63;

/// Split-request bookkeeping: parts still in flight, and what the last
/// one to land releases.
#[derive(Debug, Clone)]
struct SplitState {
    remaining: u32,
    done: SplitDone,
}

#[derive(Debug, Clone)]
enum SplitDone {
    /// The parts were a striped bio's per-device pieces: complete it.
    Complete(ReqId),
    /// The parts were a preflush write's flush fan-out: every device's
    /// cache has drained, the parked write may now issue.
    Admit(Box<BlockRequest>),
}

/// The order-preserving block device layer over an N-queue × M-device
/// lane topology.
#[derive(Debug)]
pub struct BlockLayer {
    topology: Topology,
    lanes: Vec<Lane>,
    devs: Vec<Device>,
    /// The bio ids each in-flight command answers for, per device, keyed
    /// by the bump-allocated [`CmdId`] (dense sliding-window table;
    /// commands complete roughly in dispatch order, so the window stays
    /// narrow and a completion for an already-retired id reads as absent
    /// instead of aliasing).
    inflight: Vec<SeqTable<ReqIds>>,
    /// Per-device command-id allocators (each device sees a dense,
    /// monotonically increasing id stream).
    next_cmd: Vec<u64>,
    /// Epoch sequencer: requests buffered while the predecessor epoch
    /// drains.
    front: VecDeque<BlockRequest>,
    /// True while the sequencer holds the successor epoch back.
    gate_closed: bool,
    /// Split key → outstanding-part state.
    splits: SeqTable<SplitState>,
    next_split: u64,
    stats: BlockStats,
    /// Reusable scratch for device actions (the device write path runs
    /// once per command).
    dev_scratch: Vec<DevAction>,
}

impl BlockLayer {
    /// Builds a block layer over `devices` (one per topology device, in
    /// device-index order) with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when `devices.len()` does not match the topology.
    pub fn new(devices: Vec<Device>, cfg: BlockConfig) -> BlockLayer {
        cfg.topology.validate();
        assert_eq!(
            devices.len(),
            cfg.topology.nr_devices,
            "device count must match the topology"
        );
        let lanes = (0..cfg.topology.nr_lanes())
            .map(|_| Lane {
                sched: EpochScheduler::new(),
                dispatched: 0,
                busy_retries: 0,
                routed: 0,
            })
            .collect();
        let n = devices.len();
        BlockLayer {
            topology: cfg.topology,
            lanes,
            inflight: (0..n).map(|_| SeqTable::new()).collect(),
            next_cmd: vec![1; n],
            devs: devices,
            front: VecDeque::new(),
            gate_closed: false,
            splits: SeqTable::new(),
            next_split: 1,
            stats: BlockStats::default(),
            dev_scratch: Vec::new(),
        }
    }

    /// The lane topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// All devices, in device-index order.
    pub fn devices(&self) -> &[Device] {
        &self.devs
    }

    /// Device `i` (metrics, crash injection).
    ///
    /// # Panics
    ///
    /// Panics if the volume has no device `i`.
    #[allow(clippy::indexing_slicing, reason = "accessor for reports and tests")]
    pub fn device_at(&self, i: usize) -> &Device {
        &self.devs[i]
    }

    /// Mutable access to all devices.
    pub fn devices_mut(&mut self) -> &mut [Device] {
        &mut self.devs
    }

    /// Block-layer statistics (aggregated over all lanes).
    pub fn stats(&self) -> BlockStats {
        BlockStats {
            gated: self.front.len(),
            ..self.stats
        }
    }

    /// Starts a measured window at `now`: zeroes the layer's, the lanes'
    /// and the devices' counters but [`BlockStats::dropped_events`].
    pub fn start_window(&mut self, now: SimTime) {
        self.stats = BlockStats {
            dropped_events: self.stats.dropped_events,
            ..BlockStats::default()
        };
        for l in &mut self.lanes {
            l.sched.start_window();
            (l.dispatched, l.busy_retries, l.routed) = (0, 0, 0);
        }
        for d in &mut self.devs {
            d.start_window(now);
        }
    }

    /// Per-lane statistics, in lane-index order.
    pub fn lane_stats(&self) -> Vec<LaneStats> {
        self.lanes
            .iter()
            .enumerate()
            .map(|(i, l)| LaneStats {
                device: self.topology.lane_device(i),
                hw_queue: i % self.topology.nr_hw_queues,
                dispatched: l.dispatched,
                busy_retries: l.busy_retries,
                reassignments: l.sched.reassignments(),
                epochs_released: self.stats.epochs_sequenced,
                queued: l.sched.len(),
                routed: l.routed,
            })
            .collect()
    }

    /// Always `None`: a write's payload moves into its device command and
    /// is dropped there, so nothing is handed back. Stays only because
    /// `benchmark/src/probes.rs` — its one caller — may not be edited by a
    /// PR.
    pub fn pop_reclaimed_payload(&mut self) -> Option<Vec<BlockTag>> {
        None
    }

    /// Requests waiting in the block layer (not yet dispatched), summed
    /// over every lane plus the sequencer's front buffer.
    pub fn queued(&self) -> usize {
        self.lanes.iter().map(|l| l.sched.len()).sum::<usize>() + self.front.len()
    }

    /// Submits a request from the filesystem.
    #[inline]
    pub fn submit(&mut self, req: BlockRequest, now: SimTime, out: &mut ActionSink<BlockAction>) {
        debug_assert_eq!(req.id.0 & PART_BIT, 0, "{} uses the part-id bit", req.id);
        self.stats.submitted += 1;
        self.admit_or_buffer(req);
        self.run(now, out);
    }

    /// Handles a previously scheduled [`BlockEvent`].
    #[inline]
    pub fn handle(&mut self, ev: BlockEvent, now: SimTime, out: &mut ActionSink<BlockAction>) {
        let BlockEvent::Dev { dev, ev } = ev;
        let di = dev as usize;
        // Device events carry their target index; a forged or stale index
        // reads as absent and the event drops.
        let Some(d) = self.devs.get_mut(di) else {
            self.stats.dropped_events += 1;
            return;
        };
        let mut scratch = std::mem::take(&mut self.dev_scratch);
        d.handle(ev, now, &mut scratch);
        let completed = self.apply_dev_actions(di, &mut scratch, out);
        self.dev_scratch = scratch;
        // Only a completion frees a queue slot or releases a parked split:
        // without one, every lane is as blocked as the last sweep left it.
        if completed {
            self.run(now, out);
        }
    }

    // ------------------------------------------------------------------
    // Admission: the epoch gate, striping and splitting.
    // ------------------------------------------------------------------

    fn admit_or_buffer(&mut self, req: BlockRequest) {
        if self.gate_closed {
            self.front.push_back(req);
        } else {
            self.admit(req);
        }
    }

    /// Routes `req` to its lane — whole when its blocks land on one
    /// device, as per-device parts otherwise. A barrier additionally
    /// fences every lane and closes the sequencer gate (the epoch
    /// boundary).
    #[inline]
    fn admit(&mut self, mut req: BlockRequest) {
        debug_assert!(!self.gate_closed, "admit only while the gate is open");
        let t = self.topology;
        let hw_queue = (req.id.0 % t.nr_hw_queues as u64) as usize;
        let flush_every_device =
            || -> Vec<_> { (0..t.nr_devices).map(|dev| (dev, ReqOp::Flush)).collect() };
        // REQ_PREFLUSH across lanes: a write's preflush only reaches its
        // own device, but the blocks it orders after may sit in *any*
        // device's cache (the journal and its descriptor blocks stripe
        // independently). Do what md does: broadcast a flush to every
        // device first, and only admit the write — preflush satisfied,
        // FUA and ordering flags intact — once all of them have drained.
        if req.flags.preflush && matches!(req.op, ReqOp::Write { .. }) && t.nr_devices > 1 {
            req.flags.preflush = false;
            self.stats.preflush_fanouts += 1;
            let parked = SplitDone::Admit(Box::new(req));
            self.enqueue_parts(hw_queue, ReqFlags::NONE, flush_every_device(), parked);
            return;
        }
        let closes_epoch = req.flags.barrier;
        if closes_epoch {
            // The request becomes an order-preserving member of the
            // closing epoch; each lane re-attaches a barrier to its own
            // last ordered leaver, so every participating device closes
            // its local epoch (Epoch-Based Barrier Reassignment).
            req.flags.barrier = false;
            req.flags.ordered = true;
        }
        let (start, count) = match &req.op {
            ReqOp::Write { start, tags } => (*start, tags.len() as u64),
            ReqOp::Read { start, count } => (*start, *count),
            // A flush drains every device's cache: it spans the volume.
            ReqOp::Flush => (Lba(0), u64::MAX),
        };
        if let Some((dev, local)) = t.single_target(start, count) {
            if let ReqOp::Write { start, .. } | ReqOp::Read { start, .. } = &mut req.op {
                *start = local;
            }
            self.enqueue(t.lane(dev, hw_queue), req);
        } else {
            let runs = || t.split_range(start, count).into_iter();
            let parts: Vec<(usize, ReqOp)> = match &req.op {
                ReqOp::Write { tags, .. } => runs()
                    .map(|(dev, local, off, n)| {
                        let tags = t.gather_run(start, off, n, tags);
                        (dev, ReqOp::Write { start: local, tags })
                    })
                    .collect(),
                ReqOp::Read { .. } => runs()
                    .map(|(dev, start, _, count)| (dev, ReqOp::Read { start, count }))
                    .collect(),
                ReqOp::Flush => flush_every_device(),
            };
            self.stats.split_parts += parts.len() as u64 - 1;
            self.enqueue_parts(hw_queue, req.flags, parts, SplitDone::Complete(req.id));
        }
        if closes_epoch {
            for lane in &mut self.lanes {
                lane.sched.fence();
            }
            self.gate_closed = true;
        }
    }

    // `lane` is `Topology::lane(dev, hw_queue)`, `dev` from the stripe
    // arithmetic and `hw_queue` reduced mod `nr_hw_queues`: below
    // `nr_lanes()`, the length `new` gave `lanes`.
    #[allow(clippy::indexing_slicing, reason = "lane from Topology::lane")]
    #[inline]
    fn enqueue(&mut self, lane: usize, req: BlockRequest) {
        self.lanes[lane].routed += 1;
        self.lanes[lane].sched.enqueue(req);
    }

    /// Enqueues one part per `(device, op)` under a fresh split key;
    /// `done` fires when the last of them completes.
    fn enqueue_parts(
        &mut self,
        hw_queue: usize,
        flags: ReqFlags,
        parts: Vec<(usize, ReqOp)>,
        done: SplitDone,
    ) {
        let key = self.next_split;
        self.next_split += 1;
        let remaining = parts.len() as u32;
        let id = ReqId(PART_BIT | key);
        for (dev, op) in parts {
            let lane = self.topology.lane(dev, hw_queue);
            self.enqueue(lane, BlockRequest { id, op, flags });
        }
        self.splits.insert(key, SplitState { remaining, done });
    }

    // ------------------------------------------------------------------
    // Dispatch: pump the lanes, release epochs.
    // ------------------------------------------------------------------

    /// Pumps every lane, again after any sweep in which the sequencer
    /// released an epoch (the requests it admitted may sit on lanes the
    /// sweep had already passed).
    #[inline]
    fn run(&mut self, now: SimTime, out: &mut ActionSink<BlockAction>) {
        loop {
            let epochs = self.stats.epochs_sequenced;
            for li in 0..self.lanes.len() {
                self.pump_lane(li, now, out);
            }
            if self.stats.epochs_sequenced == epochs {
                break;
            }
        }
        // What lets `handle` skip the sweep after a device event that
        // completed nothing: no lane is left holding work its device has
        // room for.
        debug_assert!(
            self.lanes.iter().enumerate().all(|(li, l)| {
                let dev = self.devs.get(self.topology.lane_device(li));
                l.sched.is_empty() || dev.is_some_and(|d| !d.can_accept())
            }),
            "a sweep left work a device has room for"
        );
    }

    /// Reopens the gate and re-admits buffered requests; a buffered
    /// barrier closes the gate again and stops the drain (the next epoch
    /// boundary).
    #[inline]
    fn release_epoch(&mut self) {
        self.gate_closed = false;
        self.stats.epochs_sequenced += 1;
        while !self.gate_closed {
            let Some(req) = self.front.pop_front() else {
                break;
            };
            self.admit(req);
        }
    }

    // `li` is `run`'s own `0..lanes.len()` and `di` is `lane_device(li)`,
    // below `nr_devices`: the length `new` gave `devs`, `inflight` and
    // `next_cmd`. Nothing here comes out of an event.
    #[allow(clippy::indexing_slicing, reason = "run()'s own lane sweep")]
    #[inline]
    fn pump_lane(&mut self, li: usize, now: SimTime, out: &mut ActionSink<BlockAction>) {
        let di = self.topology.lane_device(li);
        let mut scratch = std::mem::take(&mut self.dev_scratch);
        // A bounced request is the first `dequeue` hands out, so it is
        // re-offered ahead of anything queued behind it.
        while self.devs[di].can_accept() {
            let Some(mut m) = self.lanes[li].sched.dequeue() else {
                break;
            };
            let cmd_id = CmdId(self.next_cmd[di]);
            self.next_cmd[di] += 1;
            let cmd = BlockLayer::build_command(cmd_id, &mut m);
            match self.devs[di].submit(cmd, now, &mut scratch) {
                Ok(()) => {
                    self.stats.dispatched += 1;
                    self.lanes[li].dispatched += 1;
                    // The request is consumed here: its payload went with
                    // the command, its ids wait for the completion.
                    let MergedRequest { req, ids } = m;
                    self.inflight[di].insert(cmd_id.0, ids);
                    self.apply_dev_actions(di, &mut scratch, out);
                    // §3.3's release point: the epoch's last
                    // order-preserving request has just left the queue.
                    // Releasing here, not after the lane sweep, lets the
                    // next epoch's requests join the scheduler before the
                    // closed epoch's orderless strays dispatch.
                    if req.flags.is_order_preserving()
                        && self.gate_closed
                        && self.lanes.iter().all(|l| l.sched.is_drained())
                    {
                        self.release_epoch();
                    }
                }
                Err(cmd) => {
                    // Device busy: take the payload back out of the bounced
                    // command and hold the request at the head of its lane
                    // until a completion makes room.
                    if let (ReqOp::Write { tags, .. }, CmdKind::Write { tags: bounced, .. }) =
                        (&mut m.req.op, cmd.kind)
                    {
                        *tags = bounced;
                    }
                    self.stats.busy_retries += 1;
                    self.lanes[li].busy_retries += 1;
                    self.lanes[li].sched.bounce(m);
                    break;
                }
            }
        }
        self.dev_scratch = scratch;
    }

    /// Builds the device command for `m`, moving a write's payload out of
    /// the request into it (the request keeps its flags and ids).
    fn build_command(id: CmdId, m: &mut MergedRequest) -> Command {
        let flags = m.req.flags;
        match &mut m.req.op {
            ReqOp::Write { start, tags } => {
                let wf = WriteFlags {
                    fua: flags.fua,
                    flush_before: flags.preflush,
                    barrier: flags.barrier,
                };
                let prio = if flags.barrier {
                    Priority::Ordered
                } else {
                    Priority::Simple
                };
                Command::write(id, *start, std::mem::take(tags), wf).with_priority(prio)
            }
            ReqOp::Read { start, count } => Command::read(id, *start, *count),
            ReqOp::Flush => Command::flush(id),
        }
    }

    /// Drains `actions` (the reusable device scratch) into block actions;
    /// true when one of them was a completion.
    #[inline]
    fn apply_dev_actions(
        &mut self,
        di: usize,
        actions: &mut Vec<DevAction>,
        out: &mut ActionSink<BlockAction>,
    ) -> bool {
        let mut completed = false;
        for a in actions.drain(..) {
            match a {
                DevAction::Complete(c) => {
                    completed = true;
                    // The sliding window makes a retired id read as
                    // absent, so a duplicated or forged completion is
                    // dropped instead of double-completing its bios.
                    let ids = self.inflight.get_mut(di).and_then(|t| t.remove(c.id.0));
                    let Some(ids) = ids else {
                        debug_assert!(false, "completion for unknown command {:?}", c.id);
                        continue;
                    };
                    for &id in ids.iter() {
                        self.complete(id, c.at, out);
                    }
                }
                DevAction::After(d, ev) => {
                    out.push(BlockAction::After(
                        d,
                        BlockEvent::Dev { dev: di as u32, ev },
                    ));
                }
            }
        }
        completed
    }

    /// Completes one lane-level id: a bio completes upward; a part counts
    /// down its split, whose last part releases what the split was for.
    #[inline]
    fn complete(&mut self, id: ReqId, at: SimTime, out: &mut ActionSink<BlockAction>) {
        if id.0 & PART_BIT == 0 {
            self.stats.completed += 1;
            out.push(BlockAction::Complete(id, at));
            return;
        }
        let key = id.0 & !PART_BIT;
        let Some(st) = self.splits.get_mut(key) else {
            debug_assert!(false, "part of retired split {key}");
            return;
        };
        st.remaining -= 1;
        if st.remaining > 0 {
            return;
        }
        match self.splits.remove(key).map(|st| st.done) {
            Some(SplitDone::Complete(bio)) => self.complete(bio, at, out),
            Some(SplitDone::Admit(write)) => self.admit_or_buffer(*write),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ReqFlags;
    use bio_flash::{BlockTag, DeviceProfile, ImageView, Lba};

    #[test]
    fn single_lane_flags_on_flush_parts() {
        // Barrier flags only ever appear on writes; make sure the
        // flush fan-out path copies flags verbatim.
        let f = BlockRequest::flush(ReqId(7));
        assert_eq!(f.flags, ReqFlags::NONE);
    }

    #[test]
    fn config_builder_defaults_to_single_lane() {
        let c = BlockConfig::default();
        assert_eq!(c.topology.nr_lanes(), 1);
        let c = BlockConfig::new(SchedulerKind::Elevator, DispatchMode::OrderPreserving)
            .with_topology(Topology::new(2, 2, 8));
        assert_eq!(c.topology.nr_lanes(), 4);
    }

    #[test]
    #[should_panic(expected = "device count must match")]
    fn device_count_must_match_topology() {
        let cfg = BlockConfig::default().with_topology(Topology::new(1, 2, 8));
        BlockLayer::new(vec![Device::new(DeviceProfile::ufs(), 1)], cfg);
    }

    #[test]
    fn preflush_write_drains_every_device_first() {
        // Park a dirty block in device 1's cache, then issue a preflush
        // write that stripes to device 0 only: the md-style fan-out must
        // flush BOTH devices before the write issues, so at completion no
        // cache holds anything and the earlier block is durable.
        let cfg = BlockConfig::default().with_topology(Topology::new(1, 2, 1));
        let mut layer = BlockLayer::new(
            vec![
                Device::new(DeviceProfile::ufs(), 1),
                Device::new(DeviceProfile::ufs(), 2),
            ],
            cfg,
        );
        let mut out = ActionSink::new();
        let mut q = bio_sim::EventQueue::new();
        let mut drive = |layer: &mut BlockLayer, out: &mut ActionSink<BlockAction>| {
            let mut done = Vec::new();
            let mut last = SimTime::ZERO;
            loop {
                for a in out.drain() {
                    match a {
                        BlockAction::Complete(rid, _) => done.push(rid),
                        BlockAction::After(d, ev) => q.push_after(d, ev),
                    }
                }
                let Some((now, ev)) = q.pop() else { break };
                last = now;
                layer.handle(ev, now, out);
            }
            (done, last)
        };
        // Lba(1) lands on device 1 (1-block stripes), stays in its cache.
        layer.submit(
            BlockRequest::write(ReqId(1), Lba(1), vec![BlockTag(11)], ReqFlags::NONE),
            SimTime::ZERO,
            &mut out,
        );
        let (done, t1) = drive(&mut layer, &mut out);
        assert_eq!(done, vec![ReqId(1)]);
        assert!(layer
            .device_at(1)
            .cache()
            .entries_in_order()
            .next()
            .is_some());
        // Preflush+FUA write to Lba(0) (device 0 only by striping).
        let flags = ReqFlags {
            ordered: false,
            barrier: false,
            fua: true,
            preflush: true,
        };
        layer.submit(
            BlockRequest::write(ReqId(2), Lba(0), vec![BlockTag(20)], flags),
            t1,
            &mut out,
        );
        let (done, _) = drive(&mut layer, &mut out);
        assert_eq!(done, vec![ReqId(2)]);
        assert_eq!(layer.stats().preflush_fanouts, 1);
        for di in 0..2 {
            assert!(
                layer
                    .device_at(di)
                    .cache()
                    .entries_in_order()
                    .next()
                    .is_none(),
                "device {di} cache not drained by the preflush fan-out"
            );
        }
        // The parked block became durable before the commit-style write.
        assert_eq!(
            layer.device_at(1).crash_image().tag(Lba(0)),
            BlockTag(11),
            "device-local image keeps the flushed block"
        );
    }

    #[test]
    fn split_write_completes_once_all_parts_land() {
        // 2 devices, 1-block stripes: a 4-block write splits into two
        // 2-block parts; the bio must complete exactly once.
        let cfg = BlockConfig::default().with_topology(Topology::new(1, 2, 1));
        let mut layer = BlockLayer::new(
            vec![
                Device::new(DeviceProfile::ufs(), 1),
                Device::new(DeviceProfile::ufs(), 2),
            ],
            cfg,
        );
        let mut out = ActionSink::new();
        let tags = vec![BlockTag(1), BlockTag(2), BlockTag(3), BlockTag(4)];
        layer.submit(
            BlockRequest::write(ReqId(1), Lba(0), tags, ReqFlags::NONE),
            SimTime::ZERO,
            &mut out,
        );
        // Drive scheduled events to completion.
        let mut q = bio_sim::EventQueue::new();
        let mut done = 0;
        loop {
            for a in out.drain() {
                match a {
                    BlockAction::Complete(rid, _) => {
                        assert_eq!(rid, ReqId(1));
                        done += 1;
                    }
                    BlockAction::After(d, ev) => q.push_after(d, ev),
                }
            }
            let Some((now, ev)) = q.pop() else { break };
            layer.handle(ev, now, &mut out);
        }
        assert_eq!(done, 1, "split bio completes exactly once");
        assert_eq!(layer.stats().split_parts, 1);
        assert_eq!(layer.devices()[0].stats().blocks_written, 2);
        assert_eq!(layer.devices()[1].stats().blocks_written, 2);
    }

    #[test]
    fn bounced_barrier_write_keeps_the_epoch_open() {
        // 2 queues × 1 device. Epoch n has an ordered write A on lane 0
        // and the barrier write B on lane 1; C belongs to epoch n+1 and
        // routes to lane 0. B has been dequeued and bounced by the device
        // (`EpochScheduler::bounce`), so nothing is queued on lane 1 — but
        // the epoch has not left the host. If `is_drained` ignored the
        // bounced request, A's dispatch would release the epoch and lane 0,
        // pumped first, would slip C to the device ahead of B.
        //
        // `pump_lane` asks `can_accept()` before it dequeues, so today a
        // bounce cannot be provoked from outside; the test plants one.
        let cfg = BlockConfig::default().with_topology(Topology::new(2, 1, 8));
        let mut layer = BlockLayer::new(vec![Device::new(DeviceProfile::ufs(), 1)], cfg);
        layer.devices_mut()[0].record_history(true);
        let mut out = ActionSink::new();
        let w = |id: u64, lba: u64, flags| {
            BlockRequest::write(ReqId(id), Lba(lba), vec![BlockTag(id)], flags)
        };
        // Fill the device queue (UFS QD 16) so nothing else dispatches.
        for i in 0..16 {
            let filler = w(100 + i, 10_000 + i * 50, ReqFlags::NONE);
            layer.submit(filler, SimTime::ZERO, &mut out);
        }
        layer.submit(w(2, 0, ReqFlags::ORDERED), SimTime::ZERO, &mut out);
        layer.submit(w(3, 100, ReqFlags::BARRIER), SimTime::ZERO, &mut out);
        assert_eq!(
            layer.lane_stats().iter().map(|l| l.queued).sum::<usize>(),
            2
        );
        let b = layer.lanes[1].sched.dequeue().expect("B is queued");
        assert!(layer.lanes[1].sched.is_drained());
        layer.lanes[1].sched.bounce(b);
        assert!(!layer.lanes[1].sched.is_drained());
        layer.submit(w(4, 200, ReqFlags::ORDERED), SimTime::ZERO, &mut out);
        assert_eq!(layer.stats().gated, 1);

        let mut q = bio_sim::EventQueue::new();
        loop {
            for a in out.drain() {
                if let BlockAction::After(d, ev) = a {
                    q.push_after(d, ev);
                }
            }
            let Some((now, ev)) = q.pop() else { break };
            layer.handle(ev, now, &mut out);
        }
        let order: Vec<u64> = layer.devices()[0]
            .history()
            .unwrap()
            .iter()
            .map(|t| t.tag.0)
            .filter(|&tag| tag < 100)
            .collect();
        assert_eq!(order, vec![2, 3, 4], "epoch n+1 overtook the barrier");
        assert_eq!(layer.stats().epochs_sequenced, 1);
    }

    #[test]
    fn a_barrier_fences_the_lane_whose_ordered_request_bounced() {
        // 2 queues × 1 device. Epoch n is an ordered write A on lane 0 and
        // the barrier write B on lane 1. A has been dequeued and bounced
        // (planted, as above) when B arrives and fences every lane. Lane 0
        // holds an ordered request of the closing epoch, so it owes the
        // device a barrier like any other lane: A carries it when it is
        // offered again. When `fence` looked at the queue only, lane 0 was
        // fenced as if empty and A went out as a plain ordered write.
        let cfg = BlockConfig::default().with_topology(Topology::new(2, 1, 8));
        let mut layer = BlockLayer::new(vec![Device::new(DeviceProfile::ufs(), 1)], cfg);
        let mut out = ActionSink::new();
        let w = |id: u64, lba: u64, flags| {
            BlockRequest::write(ReqId(id), Lba(lba), vec![BlockTag(id)], flags)
        };
        for i in 0..16 {
            let filler = w(100 + i, 10_000 + i * 50, ReqFlags::NONE);
            layer.submit(filler, SimTime::ZERO, &mut out);
        }
        layer.submit(w(2, 0, ReqFlags::ORDERED), SimTime::ZERO, &mut out);
        let a = layer.lanes[0].sched.dequeue().expect("A is queued");
        assert!(!a.req.flags.barrier, "no epoch has closed yet");
        layer.lanes[0].sched.bounce(a);
        layer.submit(w(3, 100, ReqFlags::BARRIER), SimTime::ZERO, &mut out);

        let mut q = bio_sim::EventQueue::new();
        loop {
            for a in out.drain() {
                if let BlockAction::After(d, ev) = a {
                    q.push_after(d, ev);
                }
            }
            let Some((now, ev)) = q.pop() else { break };
            layer.handle(ev, now, &mut out);
        }
        let reassigned: Vec<u64> = layer.lane_stats().iter().map(|l| l.reassignments).collect();
        assert_eq!(
            reassigned,
            vec![1, 1],
            "each lane closes the epoch it took part in"
        );
        assert_eq!(layer.stats().epochs_sequenced, 1);
        assert_eq!(layer.stats().completed, 18);
    }
}
