//! Order-Preserving Dispatch (§3.4) and the block layer facade.
//!
//! [`BlockLayer`] owns the device array and glues the pieces together:
//!
//! * requests are queued through per-lane IO schedulers — one lane per
//!   `(device, hardware queue)` pair of the configured [`Topology`], each
//!   wrapping the configured base scheduler in an [`EpochScheduler`];
//! * logical addresses are striped RAID-0 style across the devices; a
//!   request spanning several stripes is split into per-device parts and
//!   completes upward only when every part has completed;
//! * a cross-lane **epoch sequencer** keeps barrier semantics intact on
//!   the multi-queue path: a barrier closes the global epoch on every
//!   lane at once, and the successor epoch is released to the devices
//!   only after each lane has drained its share of the predecessor;
//! * dispatchable requests are converted to device commands. In
//!   [`DispatchMode::OrderPreserving`] a barrier write is tagged with the
//!   SCSI **ordered** priority, which is "the only thing the host block
//!   device driver does" to guarantee transfer order without blocking the
//!   caller;
//! * when a device queue is full the request is held back on its lane and
//!   redispatch is retried after the SCSI-style retry interval (Fig 6(b));
//! * device completions are translated back into per-request completions
//!   (a merged request completes every constituent bio).

use std::collections::VecDeque;

use bio_flash::{BlockTag, CmdId, Command, DevAction, DevEvent, Device, Priority, WriteFlags};
use bio_sim::{ActionSink, SeqTable, SimDuration, SimTime};

use crate::epoch::EpochScheduler;
use crate::request::{BlockRequest, MergedRequest, ReqId, ReqOp};
use crate::scheduler::{IoScheduler, SchedulerKind};
use crate::topology::Topology;

/// How the dispatch module enforces transfer order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Legacy stack: every command dispatches with `simple` priority;
    /// ordering is whatever the caller enforces by waiting
    /// (Wait-on-Transfer).
    Legacy,
    /// Order-preserving dispatch: barrier writes carry the `ordered`
    /// priority and the `REQ_BARRIER` device flag.
    #[default]
    OrderPreserving,
}

/// Everything the block layer needs to know, in one place: the base
/// scheduler, the dispatch discipline and the lane [`Topology`].
///
/// Replaces the old `BlockLayer::new(dev, scheduler, dispatch)` positional
/// constructor so new knobs extend this struct instead of churning every
/// call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockConfig {
    /// Base IO scheduler each lane wraps in an epoch scheduler.
    pub scheduler: SchedulerKind,
    /// Dispatch discipline.
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
    /// Config with the given scheduler and dispatch mode on the classical
    /// 1 queue × 1 device topology.
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

/// SCSI-style retry delay when the device queue is full (the paper quotes
/// 3 ms for SCSI devices).
pub const BUSY_RETRY_INTERVAL: SimDuration = SimDuration::from_millis(3);

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
    /// Retry dispatching on lane `lane` after a device-busy bounce.
    Retry {
        /// Lane index (`device * nr_hw_queues + hw_queue`).
        lane: u32,
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
    /// Device-busy bounces (each costs a retry interval).
    pub busy_retries: u64,
    /// Per-device parts created by stripe splitting (0 on a single-device
    /// topology, where requests pass through whole).
    pub split_parts: u64,
    /// Global epochs released by the cross-lane sequencer (multi-lane
    /// topologies only; the single-lane epoch scheduler sequences itself).
    pub epochs_sequenced: u64,
    /// Events dropped because they referenced a lane or device that does
    /// not exist (stale or forged events; handlers are total and never
    /// abort on a bad index).
    pub dropped_events: u64,
    /// Preflush writes decomposed into an all-device flush broadcast
    /// followed by the write (multi-device topologies only; a single
    /// device honours `flush_before` in the command itself).
    pub preflush_fanouts: u64,
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
    /// Epochs this lane has drained and released so far.
    pub epochs_released: u64,
    /// Requests currently queued (scheduler + held).
    pub queued: usize,
    /// Requests (or split parts) placed on this lane — how evenly
    /// request-id routing and striping spread the submitted load.
    pub routed: u64,
}

/// One `(device, hardware queue)` lane: scheduler plus dispatch state.
#[derive(Debug, Clone)]
struct Lane {
    sched: EpochScheduler,
    /// A dispatched request the device bounced; retried on `Retry`.
    held: Option<MergedRequest>,
    retry_pending: bool,
    dispatched: u64,
    busy_retries: u64,
    /// Requests routed to this lane at admission.
    routed: u64,
}

impl Lane {
    /// True when this lane holds no order-preserving work from the fenced
    /// epoch (its share has reached the device).
    fn drained(&self) -> bool {
        self.sched.is_drained()
            && self
                .held
                .as_ref()
                .is_none_or(|m| !m.req.flags.is_order_preserving())
    }
}

/// Split-request bookkeeping: parts still in flight plus the original bio
/// ids to complete when the last part lands. A preflush write's phase-1
/// flush fan-out additionally parks the write itself in `then`, admitted
/// once every device has drained its cache.
#[derive(Debug, Clone)]
struct SplitState {
    remaining: u32,
    ids: Vec<ReqId>,
    then: Option<Box<BlockRequest>>,
}

/// An in-flight device command: the bio ids it answers for, plus the
/// write-payload buffer to hand back to the submitter's arena when the
/// command completes.
#[derive(Debug, Clone)]
struct InflightCmd {
    ids: Vec<ReqId>,
    payload: Vec<BlockTag>,
}

/// Cap on the completion-side payload-buffer pool; beyond it buffers are
/// simply dropped.
const RECLAIM_POOL_CAP: usize = 64;

/// The order-preserving block device layer over an N-queue × M-device
/// lane topology.
///
/// `Clone` deep-copies the layer — lanes (schedulers included, via
/// `IoScheduler::clone_box`), devices, in-flight tables and sequencer
/// state — so a clone evolves bit-identically under the same event
/// stream. This is the `bio-block` leg of stack `fork()`.
#[derive(Debug, Clone)]
pub struct BlockLayer {
    topology: Topology,
    mode: DispatchMode,
    lanes: Vec<Lane>,
    devs: Vec<Device>,
    /// Commands in flight per device, keyed by the bump-allocated
    /// [`CmdId`] (dense sliding-window table; commands complete roughly in
    /// dispatch order, so the window stays narrow and a completion for an
    /// already-retired id reads as absent instead of aliasing).
    inflight: Vec<SeqTable<InflightCmd>>,
    /// Per-device command-id allocators (each device sees a dense,
    /// monotonically increasing id stream).
    next_cmd: Vec<u64>,
    /// Cross-lane epoch sequencer: requests buffered while the
    /// predecessor epoch drains (multi-lane topologies only).
    front: VecDeque<BlockRequest>,
    /// True while the sequencer holds the successor epoch back.
    gate_closed: bool,
    /// Part id → split key (multi-lane request splitting).
    parts: SeqTable<u64>,
    /// Split key → outstanding-part state.
    splits: SeqTable<SplitState>,
    next_part: u64,
    next_split: u64,
    stats: BlockStats,
    /// Reusable scratch for device actions — the device write path runs
    /// once per command, so this keeps the hot loop allocation-free.
    dev_scratch: Vec<DevAction>,
    /// Payload buffers retired by completed write commands, awaiting
    /// return to the submitting filesystem's arena.
    reclaimed: Vec<Vec<BlockTag>>,
}

impl BlockLayer {
    /// Builds a block layer over `devices` (one per topology device, in
    /// device-index order) with the given configuration. Each lane's
    /// epoch scheduler wraps the chosen base scheduler — with no barrier
    /// requests it behaves exactly like the base scheduler, so the legacy
    /// configurations are unaffected.
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
        let single = cfg.topology.is_single();
        let lanes = (0..cfg.topology.nr_lanes())
            .map(|_| Lane {
                sched: if single {
                    EpochScheduler::new(cfg.scheduler.build())
                } else {
                    EpochScheduler::coordinated(cfg.scheduler.build())
                },
                held: None,
                retry_pending: false,
                dispatched: 0,
                busy_retries: 0,
                routed: 0,
            })
            .collect();
        let n = devices.len();
        BlockLayer {
            topology: cfg.topology,
            mode: cfg.dispatch,
            lanes,
            inflight: (0..n).map(|_| SeqTable::new()).collect(),
            next_cmd: vec![1; n],
            devs: devices,
            front: VecDeque::new(),
            gate_closed: false,
            parts: SeqTable::new(),
            splits: SeqTable::new(),
            next_part: 1,
            next_split: 1,
            stats: BlockStats::default(),
            dev_scratch: Vec::new(),
            reclaimed: Vec::new(),
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
    pub fn device_at(&self, i: usize) -> &Device {
        &self.devs[i]
    }

    /// Mutable access to all devices.
    pub fn devices_mut(&mut self) -> &mut [Device] {
        &mut self.devs
    }

    /// Block-layer statistics (aggregated over all lanes).
    pub fn stats(&self) -> BlockStats {
        self.stats
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
                epochs_released: l.sched.epochs_released(),
                queued: l.sched.len() + usize::from(l.held.is_some()),
                routed: l.routed,
            })
            .collect()
    }

    /// Pops one payload buffer retired by a completed write command, for
    /// return to the submitter's arena (cleared, capacity preserved).
    pub fn pop_reclaimed_payload(&mut self) -> Option<Vec<BlockTag>> {
        self.reclaimed.pop()
    }

    /// Banks a retired payload buffer for return to the submitter.
    fn reclaim_payload(&mut self, mut buf: Vec<BlockTag>) {
        if self.reclaimed.len() < RECLAIM_POOL_CAP && buf.capacity() > 0 {
            buf.clear();
            self.reclaimed.push(buf);
        }
    }

    /// Requests waiting in the block layer (not yet dispatched), summed
    /// over every lane plus the sequencer's front buffer.
    pub fn queued(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.sched.len() + usize::from(l.held.is_some()))
            .sum::<usize>()
            + self.front.len()
    }

    /// Submits a request from the filesystem.
    pub fn submit(&mut self, req: BlockRequest, now: SimTime, out: &mut ActionSink<BlockAction>) {
        self.stats.submitted += 1;
        if self.topology.is_single() {
            // A single-lane topology always constructs lane 0; a missing
            // lane here would mean a half-built layer, and a submit path
            // must drop, not abort (totality: see docs/INVARIANTS.md).
            let Some(lane) = self.lanes.first_mut() else {
                self.stats.dropped_events += 1;
                return;
            };
            lane.routed += 1;
            lane.sched.enqueue(req);
            self.pump_lane(0, now, out);
        } else {
            if self.gate_closed {
                self.front.push_back(req);
            } else {
                self.admit(req, now, out);
            }
            self.run_multi(now, out);
        }
    }

    /// Handles a previously scheduled [`BlockEvent`].
    pub fn handle(&mut self, ev: BlockEvent, now: SimTime, out: &mut ActionSink<BlockAction>) {
        match ev {
            BlockEvent::Dev { dev, ev } => {
                let di = dev as usize;
                // Device events carry their target index; a forged or
                // stale index reads as absent and the event drops.
                if di >= self.devs.len() {
                    self.stats.dropped_events += 1;
                    return;
                }
                let mut scratch = std::mem::take(&mut self.dev_scratch);
                if let Some(d) = self.devs.get_mut(di) {
                    d.handle(ev, now, &mut scratch);
                }
                self.apply_dev_actions(di, &mut scratch, now, out);
                self.dev_scratch = scratch;
                // Completions free device queue slots: keep dispatching.
                if self.topology.is_single() {
                    self.pump_lane(0, now, out);
                } else {
                    self.run_multi(now, out);
                }
            }
            BlockEvent::Retry { lane } => {
                let Some(l) = self.lanes.get_mut(lane as usize) else {
                    self.stats.dropped_events += 1;
                    return;
                };
                l.retry_pending = false;
                if self.topology.is_single() {
                    self.pump_lane(0, now, out);
                } else {
                    self.run_multi(now, out);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Multi-lane path: striping, splitting and the epoch sequencer.
    // ------------------------------------------------------------------

    /// Splits `req` into per-device parts and enqueues them on their
    /// lanes; a barrier additionally fences every lane and closes the
    /// sequencer gate (the cross-lane epoch boundary). A request that
    /// moves no blocks has no part to wait for and completes at `now`.
    fn admit(&mut self, mut req: BlockRequest, now: SimTime, out: &mut ActionSink<BlockAction>) {
        debug_assert!(!self.gate_closed, "admit only while the gate is open");
        // REQ_PREFLUSH on a striped volume: a write's preflush only
        // reaches its own device, but the blocks it orders after may sit
        // in *any* device's cache (the journal and its descriptor blocks
        // stripe independently). Do what md does: broadcast a flush to
        // every device first, and only admit the write — preflush
        // satisfied, FUA and ordering flags intact — once all of them
        // have drained.
        if req.flags.preflush && matches!(req.op, ReqOp::Write { .. }) {
            let hw_queue = self.hw_queue_for(&req);
            req.flags.preflush = false;
            let key = self.next_split;
            self.next_split += 1;
            for dev in 0..self.topology.nr_devices {
                let part = BlockRequest {
                    id: self.alloc_part(key),
                    op: ReqOp::Flush,
                    flags: crate::request::ReqFlags::NONE,
                };
                let lane = self.topology.lane(dev, hw_queue);
                self.lanes[lane].routed += 1;
                self.lanes[lane].sched.enqueue(part);
            }
            self.stats.preflush_fanouts += 1;
            self.splits.insert(
                key,
                SplitState {
                    remaining: self.topology.nr_devices as u32,
                    ids: Vec::new(),
                    then: Some(Box::new(req)),
                },
            );
            return;
        }
        let closes_epoch = req.flags.barrier;
        if closes_epoch {
            // Strip the barrier exactly like the single-lane epoch
            // scheduler: the parts are order-preserving members of the
            // closing epoch, and each lane re-attaches a barrier to its
            // own last ordered leaver so every participating device
            // closes its local epoch.
            req.flags.barrier = false;
            req.flags.ordered = true;
        }
        let hw_queue = self.hw_queue_for(&req);
        let key = self.next_split;
        self.next_split += 1;
        let mut remaining = 0u32;
        match &req.op {
            ReqOp::Write { start, tags } => {
                for (dev, local, off, n) in self.topology.split_range(*start, tags.len() as u64) {
                    let part = BlockRequest {
                        id: self.alloc_part(key),
                        op: ReqOp::Write {
                            start: local,
                            tags: tags[off as usize..(off + n) as usize].to_vec(),
                        },
                        flags: req.flags,
                    };
                    remaining += 1;
                    let lane = self.topology.lane(dev, hw_queue);
                    self.lanes[lane].routed += 1;
                    self.lanes[lane].sched.enqueue(part);
                }
            }
            ReqOp::Read { start, count } => {
                for (dev, local, _off, n) in self.topology.split_range(*start, *count) {
                    let part = BlockRequest {
                        id: self.alloc_part(key),
                        op: ReqOp::Read {
                            start: local,
                            count: n,
                        },
                        flags: req.flags,
                    };
                    remaining += 1;
                    let lane = self.topology.lane(dev, hw_queue);
                    self.lanes[lane].routed += 1;
                    self.lanes[lane].sched.enqueue(part);
                }
            }
            // A flush drains every device's cache.
            ReqOp::Flush => {
                for dev in 0..self.topology.nr_devices {
                    let part = BlockRequest {
                        id: self.alloc_part(key),
                        op: ReqOp::Flush,
                        flags: req.flags,
                    };
                    remaining += 1;
                    let lane = self.topology.lane(dev, hw_queue);
                    self.lanes[lane].routed += 1;
                    self.lanes[lane].sched.enqueue(part);
                }
            }
        }
        if remaining == 0 {
            self.stats.completed += 1;
            out.push(BlockAction::Complete(req.id, now));
        } else {
            self.stats.split_parts += u64::from(remaining) - 1;
            self.splits.insert(
                key,
                SplitState {
                    remaining,
                    ids: vec![req.id],
                    then: None,
                },
            );
        }
        // The original payload was sliced into per-device parts above;
        // hand its buffer back to the submitter's arena.
        if let ReqOp::Write { tags, .. } = req.op {
            self.reclaim_payload(tags);
        }
        if closes_epoch {
            for lane in &mut self.lanes {
                lane.sched.fence();
            }
            self.gate_closed = true;
        }
    }

    fn hw_queue_for(&self, req: &BlockRequest) -> usize {
        (req.id.0 % self.topology.nr_hw_queues as u64) as usize
    }

    fn alloc_part(&mut self, key: u64) -> ReqId {
        let pid = self.next_part;
        self.next_part += 1;
        self.parts.insert(pid, key);
        ReqId(pid)
    }

    /// Pumps every lane, then lets the sequencer release the successor
    /// epoch once each lane has drained its share of the fenced one —
    /// repeating until neither makes progress.
    fn run_multi(&mut self, now: SimTime, out: &mut ActionSink<BlockAction>) {
        loop {
            for li in 0..self.lanes.len() {
                self.pump_lane(li, now, out);
            }
            if self.gate_closed && self.lanes.iter().all(Lane::drained) {
                self.gate_closed = false;
                self.stats.epochs_sequenced += 1;
                for lane in &mut self.lanes {
                    lane.sched.release();
                }
                // Re-admit buffered requests; a buffered barrier closes
                // the gate again and stops the drain (the next epoch
                // boundary).
                while !self.gate_closed {
                    let Some(req) = self.front.pop_front() else {
                        break;
                    };
                    self.admit(req, now, out);
                }
                continue; // newly admitted requests need pumping
            }
            break;
        }
    }

    // ------------------------------------------------------------------
    // Per-lane dispatch (the single-lane fast path runs exactly this on
    // lane 0).
    // ------------------------------------------------------------------

    fn pump_lane(&mut self, li: usize, now: SimTime, out: &mut ActionSink<BlockAction>) {
        let di = self.topology.lane_device(li);
        let mut scratch = std::mem::take(&mut self.dev_scratch);
        loop {
            // Re-offer a held (bounced) request first to preserve order.
            let m = match self.lanes[li].held.take() {
                Some(m) => m,
                None => {
                    if !self.devs[di].can_accept() {
                        break;
                    }
                    match self.lanes[li].sched.dequeue() {
                        Some(m) => m,
                        None => break,
                    }
                }
            };
            let cmd = self.build_command(di, &m);
            let cmd_id = cmd.id;
            match self.devs[di].submit(cmd, now, &mut scratch) {
                Ok(()) => {
                    self.stats.dispatched += 1;
                    self.lanes[li].dispatched += 1;
                    // The request is consumed here; its payload buffer
                    // parks in the in-flight table until completion, when
                    // it is reclaimed for the submitter's arena.
                    let MergedRequest { req, ids } = m;
                    let payload = match req.op {
                        ReqOp::Write { tags, .. } => tags,
                        _ => Vec::new(),
                    };
                    self.inflight[di].insert(cmd_id.0, InflightCmd { ids, payload });
                    self.apply_dev_actions(di, &mut scratch, now, out);
                }
                Err(_cmd) => {
                    // Device busy: hold the request and retry later
                    // (Fig 6(b) — the kernel daemon inherits the retry).
                    self.stats.busy_retries += 1;
                    self.lanes[li].busy_retries += 1;
                    self.lanes[li].held = Some(m);
                    if !self.lanes[li].retry_pending {
                        self.lanes[li].retry_pending = true;
                        out.push(BlockAction::After(
                            BUSY_RETRY_INTERVAL,
                            BlockEvent::Retry { lane: li as u32 },
                        ));
                    }
                    break;
                }
            }
        }
        self.dev_scratch = scratch;
    }

    fn build_command(&mut self, di: usize, m: &MergedRequest) -> Command {
        let id = CmdId(self.next_cmd[di]);
        self.next_cmd[di] += 1;
        let flags = m.req.flags;
        match &m.req.op {
            ReqOp::Write { start, tags } => {
                let wf = WriteFlags {
                    fua: flags.fua,
                    flush_before: flags.preflush,
                    barrier: flags.barrier && self.mode == DispatchMode::OrderPreserving,
                };
                let prio = if flags.barrier && self.mode == DispatchMode::OrderPreserving {
                    Priority::Ordered
                } else {
                    Priority::Simple
                };
                Command::write(id, *start, tags.clone(), wf).with_priority(prio)
            }
            ReqOp::Read { start, count } => Command::read(id, *start, *count),
            ReqOp::Flush => Command::flush(id),
        }
    }

    /// Drains `actions` (the reusable device scratch) into block actions.
    fn apply_dev_actions(
        &mut self,
        di: usize,
        actions: &mut Vec<DevAction>,
        _now: SimTime,
        out: &mut ActionSink<BlockAction>,
    ) {
        for a in actions.drain(..) {
            match a {
                DevAction::Complete(c) => {
                    // The sliding window makes a retired id read as
                    // absent, so a duplicated or forged completion is
                    // dropped instead of double-completing its bios.
                    let Some(InflightCmd { ids, payload }) = self.inflight[di].remove(c.id.0)
                    else {
                        debug_assert!(false, "completion for unknown command {:?}", c.id);
                        continue;
                    };
                    self.reclaim_payload(payload);
                    if self.topology.is_single() {
                        for rid in ids {
                            self.stats.completed += 1;
                            out.push(BlockAction::Complete(rid, c.at));
                        }
                    } else {
                        // Multi-lane: ids are internal part ids; a bio
                        // completes when its last part does.
                        for pid in ids {
                            self.finish_part(pid, c.at, out);
                        }
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
    }

    fn finish_part(&mut self, pid: ReqId, at: SimTime, out: &mut ActionSink<BlockAction>) {
        let Some(key) = self.parts.remove(pid.0) else {
            debug_assert!(false, "completion for unknown part {pid}");
            return;
        };
        let Some(st) = self.splits.get_mut(key) else {
            debug_assert!(false, "part {pid} names a retired split {key}");
            return;
        };
        st.remaining -= 1;
        if st.remaining == 0 {
            let st = self.splits.remove(key).expect("split state present");
            for rid in st.ids {
                self.stats.completed += 1;
                out.push(BlockAction::Complete(rid, at));
            }
            // Phase 2 of a preflush fan-out: every device's cache has
            // drained, the parked write may now issue.
            if let Some(w) = st.then {
                if self.gate_closed {
                    self.front.push_back(*w);
                } else {
                    self.admit(*w, at, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ReqFlags;
    use bio_flash::{BlockTag, DeviceProfile, Lba};

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
        assert!(c.topology.is_single());
        let c = BlockConfig::new(SchedulerKind::Noop, DispatchMode::Legacy)
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
}
