//! The barrier-compliant storage device: command queue, host link,
//! writeback cache, FTL, chip array and crash semantics in one event-driven
//! state machine.
//!
//! The device is a Mealy machine: the host calls [`Device::submit`] /
//! [`Device::handle`], and the device answers with [`DevAction`]s — either
//! completion interrupts for the host or timed internal events the caller
//! must schedule back into the simulation. This keeps the device free of
//! any dependency on the event loop and directly unit-testable.
//!
//! ## Command flow
//!
//! ```text
//! submit → [queue: SCSI priority pick] → (preflush?) → DMA over link
//!        → writeback cache insert (epoch-tagged)  → completion IRQ
//!        → background destage → flash program on a chip → durable
//! ```
//!
//! A flush drains the cache entries present at its service start; a FUA
//! write drains every entry up to the newest one its own blocks took; a
//! barrier write closes the current epoch. How epochs constrain destaging
//! is decided by the profile's [`BarrierMode`].
//!
//! Cache sequences only grow and an entry leaves the cache only by being
//! programmed, so "resident when the flush entered service" is exactly "a
//! program of a sequence at or below the newest one then is still to
//! come": every wait for programs is that watermark and a count, not a
//! set. Under [`BarrierMode::LfsInOrderRecovery`] programs start in cache
//! order, so a FUA write acknowledged this way is in the recoverable prefix
//! of the append log; under the other modes the wait is conservative.

use std::collections::VecDeque;

use bio_sim::{SeqTable, SimDuration, SimRng, SimTime, StepWindow};

use crate::audit::TransferRec;
use crate::cache::WritebackCache;
use crate::chip::ChipArray;
use crate::crash::{CrashState, OpenGroup};
use crate::ftl::Ftl;
use crate::image::{AppendLog, BlockMap};
use crate::profile::{BarrierMode, DeviceProfile};
use crate::queue::CommandQueue;
use crate::types::{BlockTag, CmdId, CmdKind, Command, Completion, Lba};

/// Internal device events; the host event loop schedules these back via
/// [`Device::handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevEvent {
    /// A DMA transfer finished on the host link.
    DmaDone {
        /// The command whose transfer finished.
        id: CmdId,
    },
    /// A flash program finished on a chip.
    ProgramDone {
        /// Cache sequence of the destaged entry.
        seq: u64,
    },
    /// Delayed completion (flush round-trip overhead).
    Finish {
        /// The command to complete.
        id: CmdId,
    },
    /// A write's preflush finished (drain + controller round trip).
    PreflushDone {
        /// The write command whose preflush completed.
        id: CmdId,
    },
    /// Re-run the service/destage pumps (chips became idle).
    Pump,
}

/// What the device asks of its caller after processing an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevAction {
    /// Deliver a completion interrupt to the host.
    Complete(Completion),
    /// Schedule an internal event after a delay.
    After(SimDuration, DevEvent),
}

/// Why a drain (a wait for flash programs) exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DrainKind {
    /// A flush command: complete the command when drained.
    Flush,
    /// The preflush half of a `FLUSH|FUA` write: move the write to the
    /// link when drained.
    Preflush,
    /// A FUA write: complete the command when drained.
    Fua,
}

/// A wait for `left` more flash programs, each of a cache sequence
/// `<= upto`. For a flush or preflush `upto` is the newest sequence when it
/// entered service; for a FUA write it is the newest sequence its own
/// blocks took (the maximum: a block can coalesce into an older entry).
/// `left` is the entries resident at or below `upto` at that moment.
#[derive(Debug, Clone, Copy)]
struct Drain {
    id: CmdId,
    kind: DrainKind,
    upto: u64,
    left: usize,
}

/// Progress of an admitted command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Waiting for the preflush drain.
    Preflush,
    /// Drained (or no preflush needed); waiting for the link.
    WaitLink,
    /// DMA in flight.
    Dma,
    /// DMA done: waiting for cache space or, for a FUA write, its drain.
    WaitCache,
    /// Flush command draining.
    Draining,
}

#[derive(Debug, Clone)]
struct ActiveCmd {
    cmd: Command,
    stage: Stage,
    /// When the command was admitted to the queue (carried through
    /// [`CommandQueue::pick`], never reconstructed); commands that waited
    /// (queue fence or busy link) had time to decode in parallel.
    arrived: SimTime,
}

/// Extra bookkeeping per in-flight destage program.
#[derive(Debug, Clone, Copy)]
struct DestageInfo {
    append_seq: u64,
}

/// Transactional-writeback engine state.
///
/// Groups open one at a time, in id order, and only close by committing,
/// so the committed groups are exactly the ids handed out so far minus the
/// open one — no set of them is kept.
#[derive(Debug, Clone, Default)]
struct TransState {
    /// Id of the open group, if any.
    open: Option<u64>,
    /// What the open group still waits for, as a [`Drain`] does: the
    /// newest cache sequence resident when it opened, and how many
    /// programs at or below it are still to come.
    upto: u64,
    left: usize,
    next_gid: u64,
}

impl TransState {
    fn is_committed(&self, gid: u64) -> bool {
        gid < self.next_gid && self.open != Some(gid)
    }
}

/// Aggregate device statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Write commands completed.
    pub write_cmds: u64,
    /// Read commands completed.
    pub read_cmds: u64,
    /// Flush commands completed.
    pub flush_cmds: u64,
    /// 4 KiB blocks written by the host.
    pub blocks_written: u64,
    /// Flash programs issued (host destage only; GC is counted by the FTL).
    pub programs: u64,
    /// Read commands served from the writeback cache.
    pub cache_hit_reads: u64,
    /// Commands that bounced because the queue was full.
    pub queue_full_rejections: u64,
    /// Writes refused because they reach past [`Lba::LIMIT`] or carry the
    /// reserved tag `BlockTag(u64::MAX)`, which no block map can hold:
    /// completed at once with nothing written (the model has no error
    /// status), so no table keyed by address or tag ever sees them.
    pub out_of_range_writes: u64,
    /// Nanoseconds completed commands spent in the queue, admission to
    /// completion, summed: over a run that drains, the integral of the
    /// queue depth (Little's law).
    pub residence_ns: u64,
}

impl std::ops::AddAssign for DeviceStats {
    fn add_assign(&mut self, rhs: DeviceStats) {
        // Destructured without `..`: a new field cannot be left out.
        let DeviceStats {
            write_cmds,
            read_cmds,
            flush_cmds,
            blocks_written,
            programs,
            cache_hit_reads,
            queue_full_rejections,
            out_of_range_writes,
            residence_ns,
        } = rhs;
        self.write_cmds += write_cmds;
        self.read_cmds += read_cmds;
        self.flush_cmds += flush_cmds;
        self.blocks_written += blocks_written;
        self.programs += programs;
        self.cache_hit_reads += cache_hit_reads;
        self.queue_full_rejections += queue_full_rejections;
        self.out_of_range_writes += out_of_range_writes;
        self.residence_ns += residence_ns;
    }
}

/// The simulated storage device.
#[derive(Debug)]
pub struct Device {
    profile: DeviceProfile,
    rng: SimRng,
    queue: CommandQueue,
    cache: WritebackCache,
    ftl: Ftl,
    chips: ChipArray,
    log: AppendLog,

    /// The host link is busy transferring until this instant; queued
    /// commands pipeline their decode with the previous transfer, so only
    /// a link that is *idle* at pick time charges the per-command
    /// overhead (this is why deep queues hide latency — §6.2).
    link_free_at: SimTime,
    ready_for_link: VecDeque<CmdId>,
    /// Admitted commands in service, keyed by the bump-allocated [`CmdId`]
    /// (a dense sliding-window table; the window base doubles as a
    /// generation check, so a replayed or forged event naming a completed
    /// command reads as absent). The admission time rides inline in
    /// [`ActiveCmd`] — there is no side map to leak or miss.
    active: SeqTable<ActiveCmd>,
    drains: Vec<Drain>,
    /// FIFO of DMA-completed writes awaiting cache insertion. Strict FIFO:
    /// inserts must happen in transfer order or epoch tagging would break,
    /// so one blocked insert blocks everything behind it.
    pending_inserts: VecDeque<CmdId>,
    /// Keyed by cache destage sequence (bump-allocated, so a dense
    /// sliding-window table; a replayed `ProgramDone` for an already
    /// completed sequence reads as absent rather than aliasing).
    destage_info: SeqTable<DestageInfo>,
    in_flight_programs: usize,
    trans: TransState,

    history: Option<Vec<TransferRec>>,
    /// Queue occupancy over the measured window.
    qd: StepWindow,
    stats: DeviceStats,
    next_pump_at: Option<SimTime>,
    /// Scratch for one destage pump's candidates (always left empty).
    candidates: Vec<u64>,
    /// Scratch for the drains one program completion finishes (ditto).
    finished: Vec<(CmdId, DrainKind)>,
    /// `destage_watermark` in blocks: destaging starts above this many
    /// dirty entries.
    watermark_blocks: usize,
}

impl Device {
    /// Builds a device from a profile; `seed` drives all device-internal
    /// randomness (program jitter, orderless destage picking).
    pub fn new(profile: DeviceProfile, seed: u64) -> Device {
        profile.validate();
        Device {
            queue: CommandQueue::new(profile.queue_depth),
            // Log-structured recovery appends strictly in transfer order
            // (the paper's §3.2 firmware); in-place engines must serialise
            // per LBA.
            cache: WritebackCache::with_order(
                profile.cache_blocks,
                profile.barrier_mode != BarrierMode::LfsInOrderRecovery,
            ),
            ftl: Ftl::new(
                profile.segments,
                profile.pages_per_segment,
                profile.gc_low_watermark,
            ),
            chips: ChipArray::new(profile.parallelism()),
            log: AppendLog::new(),
            rng: SimRng::new(seed),
            link_free_at: SimTime::ZERO,
            ready_for_link: VecDeque::new(),
            active: SeqTable::new(),
            drains: Vec::new(),
            pending_inserts: VecDeque::new(),
            destage_info: SeqTable::new(),
            in_flight_programs: 0,
            trans: TransState::default(),
            history: None,
            qd: StepWindow::new(),
            stats: DeviceStats::default(),
            next_pump_at: None,
            candidates: Vec::new(),
            finished: Vec::new(),
            // An integer dirty count exceeds the (real) threshold exactly
            // when it exceeds its floor.
            watermark_blocks: (profile.destage_watermark * profile.cache_blocks as f64) as usize,
            profile,
        }
    }

    /// Enables transfer-history recording (needed by the crash audits;
    /// costs memory proportional to the number of transfers).
    pub fn record_history(&mut self, on: bool) {
        self.history = if on { Some(Vec::new()) } else { None };
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Current command-queue occupancy (waiting + in service).
    pub fn queue_depth(&self) -> usize {
        self.queue.occupancy()
    }

    /// True when another command can be admitted.
    pub fn can_accept(&self) -> bool {
        self.queue.has_room()
    }

    /// Queue occupancy's time-weighted mean and peak since the last
    /// [`Device::start_window`] (Fig 10 / Fig 12 instrumentation).
    pub fn qd_window(&self) -> &StepWindow {
        &self.qd
    }

    /// Starts a measured window at `now`: zeroes the device's and the FTL's
    /// counters but `out_of_range_writes`, and restarts the QD window.
    pub fn start_window(&mut self, now: SimTime) {
        self.stats = DeviceStats {
            out_of_range_writes: self.stats.out_of_range_writes,
            ..DeviceStats::default()
        };
        self.ftl.start_window();
        self.qd.reset(now);
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// FTL statistics (GC, write amplification).
    pub fn ftl_stats(&self) -> crate::ftl::FtlStats {
        self.ftl.stats()
    }

    /// The transfer history, when recording is enabled.
    pub fn history(&self) -> Option<&[TransferRec]> {
        self.history.as_deref()
    }

    /// The append log (durable prefix + in-flight tail). The crash
    /// enumerator reads this to construct every admissible crash image at
    /// a capture point instead of the single sampled one.
    pub fn append_log(&self) -> &AppendLog {
        &self.log
    }

    /// The writeback cache (read-only), exposing pending entries and
    /// their barrier epochs to the crash enumerator.
    pub fn cache(&self) -> &WritebackCache {
        &self.cache
    }

    /// Transactional-writeback groups committed so far (meaningful only
    /// under [`BarrierMode::Transactional`]; empty in other modes).
    pub fn committed_groups(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.trans.next_gid).filter(|&gid| self.trans.is_committed(gid))
    }

    /// The open transactional-writeback group, if any. Every unfolded
    /// record of another group belongs to a committed one.
    pub(crate) fn open_group(&self) -> Option<OpenGroup> {
        let left = self.trans.left;
        self.trans.open.map(|id| OpenGroup { id, left })
    }

    /// Arms capture-delta tracking: the fold stream is recorded from now
    /// on for [`Device::drain_capture_delta`]. Off by default — figure
    /// runs pay nothing; the crash engine drains the stream at every
    /// capture, keeping it bounded by one epoch.
    pub fn enable_capture_tracking(&mut self) {
        self.log.track_folds();
    }

    /// Replaces `into` with the device's capture delta: the blocks folded
    /// into the durable base since the previous drain, in fold order
    /// (empty when tracking was never armed). [`CrashState::advance`]
    /// replays them onto its base instead of re-reading the whole append
    /// log, making a crash-point capture O(writes this epoch) rather than
    /// O(log length). The crash engine keeps one buffer per device and
    /// drains into it at every capture; both the device's log and `into`
    /// keep their buffers, so neither side allocates in steady state.
    pub fn drain_capture_delta(&mut self, into: &mut Vec<(Lba, BlockTag)>) {
        into.clear();
        into.extend(self.log.drain_fold_log());
    }

    /// Submits a command. Returns the command back when the queue is full
    /// (the host's dispatch layer must retry — Fig 6(b)). A write reaching
    /// past [`Lba::LIMIT`] or carrying the reserved tag `BlockTag(u64::MAX)`
    /// completes at once with nothing written, counted in
    /// [`DeviceStats::out_of_range_writes`].
    #[inline]
    pub fn submit(
        &mut self,
        cmd: Command,
        now: SimTime,
        out: &mut Vec<DevAction>,
    ) -> Result<(), Command> {
        if let CmdKind::Write { start, tags, .. } = &cmd.kind {
            let end = start.0.checked_add(tags.len() as u64);
            let reserved = tags.iter().any(|t| t.0 == u64::MAX);
            if reserved || end.is_none_or(|end| end > Lba::LIMIT.0) {
                self.stats.out_of_range_writes += 1;
                out.push(DevAction::Complete(Completion {
                    id: cmd.id,
                    at: now,
                }));
                return Ok(());
            }
        }
        match self.queue.admit(cmd, now) {
            Ok(()) => {
                self.sample_qd(now);
                self.pump(now, out);
                Ok(())
            }
            Err(cmd) => {
                self.stats.queue_full_rejections += 1;
                Err(cmd)
            }
        }
    }

    /// Processes an internal event previously emitted as
    /// [`DevAction::After`].
    #[inline]
    pub fn handle(&mut self, ev: DevEvent, now: SimTime, out: &mut Vec<DevAction>) {
        match ev {
            DevEvent::DmaDone { id } => self.on_dma_done(id, now, out),
            DevEvent::ProgramDone { seq } => self.on_program_done(seq, now, out),
            DevEvent::Finish { id } => {
                // Finish events are only ever scheduled for flush commands
                // (the delayed-completion path); any other target — a
                // retired id, or a forged Finish naming a live command
                // mid-flight — is dropped. Without the stage check a
                // forged Finish would remove a live write from the active
                // table while it still sits in ready_for_link /
                // pending_inserts, completing it to the host without its
                // data ever reaching the cache.
                if self
                    .active
                    .get(id.0)
                    .is_none_or(|a| a.stage != Stage::Draining)
                {
                    return;
                }
                self.complete_cmd(id, now, out);
                self.pump(now, out);
            }
            DevEvent::PreflushDone { id } => {
                // A PreflushDone for a command no longer active, or one
                // not actually waiting on a preflush (a replayed or forged
                // event), is dropped rather than re-queued for the link —
                // a double enqueue would start two DMAs for one command.
                let Some(active) = self.active.get_mut(id.0) else {
                    return;
                };
                if active.stage != Stage::Preflush {
                    return;
                }
                active.stage = Stage::WaitLink;
                self.ready_for_link.push_back(id);
                self.pump(now, out);
            }
            DevEvent::Pump => {
                self.next_pump_at = None;
                self.pump(now, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Service pump: picks commands off the queue and drives their stages.
    // ------------------------------------------------------------------

    #[inline]
    fn pump(&mut self, now: SimTime, out: &mut Vec<DevAction>) {
        loop {
            if let Some(id) = self.ready_for_link.pop_front() {
                self.start_dma(id, now, out);
                continue;
            }
            let Some((cmd, admitted)) = self.queue.pick() else {
                break;
            };
            self.begin_service(cmd, admitted, out);
        }
        self.destage_pump(now, out);
    }

    /// Starts a picked command: a flush, or a write's preflush, drains what
    /// is resident now; everything else queues for the link.
    #[inline]
    fn begin_service(&mut self, cmd: Command, arrived: SimTime, out: &mut Vec<DevAction>) {
        let id = cmd.id;
        let (stage, drain) = match &cmd.kind {
            CmdKind::Flush => (
                Stage::Draining,
                Some((DrainKind::Flush, DevEvent::Finish { id })),
            ),
            CmdKind::Write { flags, .. } if flags.flush_before => (
                Stage::Preflush,
                Some((DrainKind::Preflush, DevEvent::PreflushDone { id })),
            ),
            CmdKind::Write { .. } | CmdKind::Read { .. } => (Stage::WaitLink, None),
        };
        self.active.insert(
            id.0,
            ActiveCmd {
                cmd,
                stage,
                arrived,
            },
        );
        let Some((kind, drained)) = drain else {
            self.ready_for_link.push_back(id);
            return;
        };
        match self.drain_upto(id, kind, self.cache.newest_seq()) {
            Some(drain) => self.drains.push(drain),
            // Nothing to drain (an empty cache, or PLP), but the controller
            // round trip is still paid (t_eps of the paper's quick-flush).
            None => out.push(DevAction::After(self.profile.flush_overhead, drained)),
        }
    }

    /// A wait for every cache entry resident now at or below sequence
    /// `upto`. `None` when that is nothing — always so under PLP, where
    /// cache contents are already durable.
    fn drain_upto(&self, id: CmdId, kind: DrainKind, upto: u64) -> Option<Drain> {
        let left = self.cache.resident_upto(upto);
        (!self.profile.plp && left > 0).then_some(Drain {
            id,
            kind,
            upto,
            left,
        })
    }

    #[inline]
    fn start_dma(&mut self, id: CmdId, now: SimTime, out: &mut Vec<DevAction>) {
        // The link queue only ever holds live WaitLink commands; if the
        // entry is gone or out of phase the enqueue was forged, so skip it
        // rather than transfer for a dead command.
        let Some(active) = self.active.get_mut(id.0) else {
            debug_assert!(false, "ready_for_link entry without active command");
            return;
        };
        if active.stage != Stage::WaitLink {
            debug_assert!(false, "ready_for_link entry out of phase");
            return;
        }
        // Check the kind before mutating the stage: bailing out *after*
        // the Dma transition would wedge the command (no DmaDone ever
        // scheduled) and leak its queue slot.
        if matches!(active.cmd.kind, CmdKind::Flush) {
            debug_assert!(false, "flush command in the link queue");
            return;
        }
        active.stage = Stage::Dma;
        let blocks = active.cmd.kind.blocks().max(1);
        let mut dur = self.profile.dma_per_block * blocks;
        // Command decode/setup pipelines with the previous transfer; it is
        // only exposed when the command never waited (idle link and no
        // queueing) — the Wait-on-Transfer regime of §6.2.
        let never_waited = active.arrived >= now && self.link_free_at <= now;
        if never_waited {
            dur += self.profile.cmd_overhead;
        }
        match &active.cmd.kind {
            CmdKind::Write { flags, .. } => {
                if flags.barrier {
                    dur = dur.mul_f64(self.profile.barrier_overhead.factor());
                }
            }
            CmdKind::Read { start, .. } => {
                // Cache hit serves straight from DRAM; a miss pays one flash
                // read (read-ahead covers the rest of the span).
                if self.cache.lookup(*start).is_some() {
                    self.stats.cache_hit_reads += 1;
                } else {
                    dur += self.profile.page_read;
                }
            }
            // Excluded above, before the stage transition.
            CmdKind::Flush => {
                debug_assert!(false, "flush rejected before Dma");
                return;
            }
        }
        let done = self.link_free_at.max(now) + dur;
        self.link_free_at = done;
        out.push(DevAction::After(
            done.saturating_since(now),
            DevEvent::DmaDone { id },
        ));
    }

    #[inline]
    fn on_dma_done(&mut self, id: CmdId, now: SimTime, out: &mut Vec<DevAction>) {
        // A DmaDone for a command that is not mid-DMA is a replayed or
        // forged event: acting on it would double-queue a cache insert or
        // double-complete a read. Drop it.
        let Some(active) = self.active.get_mut(id.0) else {
            return;
        };
        if active.stage != Stage::Dma {
            return;
        }
        match &active.cmd.kind {
            CmdKind::Read { .. } => {
                self.stats.read_cmds += 1;
                self.complete_cmd(id, now, out);
            }
            CmdKind::Write { .. } => {
                // Cache insertion happens strictly in transfer order;
                // capacity backpressure queues the command (and everything
                // behind it) until programs free space.
                active.stage = Stage::WaitCache;
                self.pending_inserts.push_back(id);
                self.drain_pending_inserts(now, out);
            }
            // A flush can never be in the Dma stage (start_dma rejects it
            // before the transition), so nothing was mutated yet here and
            // dropping the event is safe.
            CmdKind::Flush => {
                debug_assert!(false, "flush command in Dma stage");
                return;
            }
        }
        self.pump(now, out);
    }

    /// Admits DMA-completed writes into the cache in transfer order, as
    /// long as each fits (FUA writes always fit: they do not occupy a
    /// long-term slot).
    #[inline]
    fn drain_pending_inserts(&mut self, now: SimTime, out: &mut Vec<DevAction>) {
        while let Some(&id) = self.pending_inserts.front() {
            // Only live writes are ever queued for insertion; a vanished
            // entry means the FIFO was corrupted from outside — discard
            // the orphan instead of indexing into a dead slot.
            let Some(a) = self.active.get(id.0) else {
                debug_assert!(false, "pending insert without active command");
                self.pending_inserts.pop_front();
                continue;
            };
            let (blocks, fua) = match &a.cmd.kind {
                CmdKind::Write { tags, flags, .. } => (tags.len(), flags.fua && !self.profile.plp),
                _ => {
                    debug_assert!(false, "only writes queue for insertion");
                    self.pending_inserts.pop_front();
                    continue;
                }
            };
            if !fua && !self.cache.has_room(blocks) {
                break; // wait for programs to free space
            }
            self.pending_inserts.pop_front();
            let newest = self.insert_blocks(id);
            // A FUA write drains like a flush. Without blocks it has no
            // program to wait for: it completes here, or nothing ever would
            // complete it.
            if let Some(drain) = fua
                .then(|| self.drain_upto(id, DrainKind::Fua, newest))
                .flatten()
            {
                self.drains.push(drain);
            } else {
                self.stats.write_cmds += 1;
                self.complete_cmd(id, now, out);
            }
        }
    }

    /// Inserts a write command's blocks into the cache in transfer order,
    /// honouring the barrier flag on the final block. Returns the newest
    /// cache sequence the blocks took (0 for none).
    #[inline]
    fn insert_blocks(&mut self, id: CmdId) -> u64 {
        // The command's own payload is read in place: `active`, `cache`,
        // `stats` and `history` are disjoint fields.
        let Some(CmdKind::Write { start, tags, flags }) =
            self.active.get(id.0).map(|a| &a.cmd.kind)
        else {
            return 0;
        };
        let n = tags.len();
        let mut newest = 0;
        for (i, &tag) in tags.iter().enumerate() {
            let lba = start.offset(i as u64);
            let barrier = flags.barrier && i + 1 == n;
            // A block joins the cache's current epoch; a barrier advances
            // the epoch only after its own insert.
            let epoch = self.cache.current_epoch();
            let seq = self.cache.insert(lba, tag, barrier);
            newest = newest.max(seq);
            self.stats.blocks_written += 1;
            if let Some(h) = self.history.as_mut() {
                h.push(TransferRec {
                    seq,
                    lba,
                    tag,
                    epoch,
                });
            }
        }
        newest
    }

    // ------------------------------------------------------------------
    // Destage pump: moves cache entries to flash under the barrier engine.
    // ------------------------------------------------------------------

    fn destage_wanted(&self) -> bool {
        if self.cache.is_empty() {
            return false;
        }
        let drain_active = !self.drains.is_empty();
        let waiters = !self.pending_inserts.is_empty();
        let over_watermark = self.cache.dirty_count() > self.watermark_blocks;
        let open_group = self.trans.open.is_some();
        drain_active || waiters || over_watermark || open_group
    }

    #[inline]
    fn destage_pump(&mut self, now: SimTime, out: &mut Vec<DevAction>) {
        if !self.destage_wanted() {
            return;
        }
        let engine = self.profile.barrier_mode;
        // Transactional engine: open a group snapshot if none is open. The
        // cache is not empty here (destaging is wanted), so neither is it.
        if engine == BarrierMode::Transactional && self.trans.open.is_none() {
            self.trans.upto = self.cache.newest_seq();
            self.trans.left = self.cache.len();
            self.trans.open = Some(self.trans.next_gid);
            self.trans.next_gid += 1;
        }
        let epoch_bound = match engine {
            BarrierMode::InOrderWriteback => self.cache.min_pending_epoch(),
            _ => None,
        };
        // Every program started below takes an idle chip for a positive
        // time, so the loop looks at no more candidates than chips idle
        // now, plus the one it stops at.
        let mut want = self.chips.idle_count(now) + 1;
        // Orderless controller: no ordering promise, pick within a
        // parallelism-sized window at random. The shuffle draws once per
        // window slot whether or not a chip is idle.
        let window = self.profile.parallelism().max(2);
        if engine == BarrierMode::Unsupported {
            want = want.max(window);
        }
        // Whatever entered the cache after the open group's snapshot lies
        // above its watermark; whatever is still resident at or below it
        // is a member.
        let member_bound = match self.trans.open {
            Some(_) => self.trans.upto,
            None => u64::MAX,
        };
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.extend(
            self.cache
                .frontier(epoch_bound)
                .take_while(|&seq| seq <= member_bound)
                .take(want),
        );
        if engine == BarrierMode::Unsupported && candidates.len() > 1 {
            let w = candidates.len().min(window);
            if let Some(head) = candidates.get_mut(..w) {
                self.rng.shuffle(head);
            }
        }
        for seq in candidates.drain(..) {
            // Roll/GC first so the time cost lands before chip selection.
            if let Some(gc) = self.ftl.prepare_append() {
                let per_page = self.profile.page_read + self.profile.page_program;
                let pause = per_page * (gc.moved_pages as u64)
                    / (self.profile.parallelism() as u64)
                    + self.profile.segment_erase;
                self.chips.delay_all(now, pause);
            }
            if !self.chips.has_idle(now) {
                break;
            }
            // Candidates come from the cache pull above with no
            // intervening completions, so marking cannot fail.
            let marked = self.cache.mark_destaging(seq);
            debug_assert!(marked.is_ok(), "destage candidate vanished: {marked:?}");
            let Ok(entry) = marked else {
                continue;
            };
            self.ftl.write(entry.lba);
            let append_seq = self.log.begin(entry.lba, entry.tag, self.trans.open);
            self.destage_info.insert(seq, DestageInfo { append_seq });
            let dur = ChipArray::jittered(
                self.profile.page_program,
                self.profile.program_jitter,
                &mut self.rng,
            );
            self.chips.start_op(now, dur);
            self.in_flight_programs += 1;
            self.stats.programs += 1;
            out.push(DevAction::After(dur, DevEvent::ProgramDone { seq }));
        }
        self.candidates = candidates;
        // If work remains but every chip is busy and nothing is in flight
        // (GC blanket delay), schedule a wake-up at the next idle instant.
        if self.destage_wanted() && self.in_flight_programs == 0 {
            let at = self.chips.next_idle_at().max(now);
            if self.next_pump_at != Some(at) {
                self.next_pump_at = Some(at);
                out.push(DevAction::After(at.saturating_since(now), DevEvent::Pump));
            }
        }
    }

    #[inline]
    fn on_program_done(&mut self, seq: u64, now: SimTime, out: &mut Vec<DevAction>) {
        // The destage record is the ground truth for in-flight programs: a
        // duplicate or forged ProgramDone has no record and is dropped
        // before any accounting changes.
        let Some(info) = self.destage_info.remove(seq) else {
            return;
        };
        self.in_flight_programs -= 1;
        let completed = self.cache.complete(seq);
        debug_assert!(completed.is_ok(), "destage record without cache entry");
        let logged = self.log.mark_done(info.append_seq);
        debug_assert!(logged, "destage record without append record");

        // Transactional group accounting.
        if self.trans.open.is_some() {
            self.trans.left -= usize::from(seq <= self.trans.upto);
            if self.trans.left == 0 {
                self.trans.open = None;
            }
        }
        let trans = &self.trans;
        self.log.fold(|g| trans.is_committed(g));

        // Drain accounting (flushes, preflushes, FUA writes).
        let mut finished = std::mem::take(&mut self.finished);
        self.drains.retain_mut(|d| {
            d.left -= usize::from(seq <= d.upto);
            if d.left == 0 {
                finished.push((d.id, d.kind));
            }
            d.left > 0
        });
        for (id, kind) in finished.drain(..) {
            match kind {
                DrainKind::Flush => {
                    out.push(DevAction::After(
                        self.profile.flush_overhead,
                        DevEvent::Finish { id },
                    ));
                }
                DrainKind::Preflush => {
                    // Drained: pay the controller round trip before the
                    // write proceeds to the link.
                    out.push(DevAction::After(
                        self.profile.flush_overhead,
                        DevEvent::PreflushDone { id },
                    ));
                }
                DrainKind::Fua => {
                    self.stats.write_cmds += 1;
                    self.complete_cmd(id, now, out);
                }
            }
        }
        self.finished = finished;

        // Cache space freed: admit waiting writes in transfer order.
        self.drain_pending_inserts(now, out);

        self.pump(now, out);
    }

    #[inline]
    fn complete_cmd(&mut self, id: CmdId, now: SimTime, out: &mut Vec<DevAction>) {
        // A duplicate Finish event (replayed completion) finds no active
        // command — the sliding window's base makes a completed id read as
        // absent — so it is dropped without touching queue slots, stats,
        // or the latency-bearing Completion record.
        let Some(active) = self.active.remove(id.0) else {
            return;
        };
        if active.cmd.kind == CmdKind::Flush {
            self.stats.flush_cmds += 1;
        }
        self.stats.residence_ns += now.saturating_since(active.arrived).as_nanos();
        let released = self.queue.complete(id);
        debug_assert!(released, "active command missing from queue");
        self.sample_qd(now);
        out.push(DevAction::Complete(Completion { id, at: now }));
    }

    fn sample_qd(&mut self, now: SimTime) {
        self.qd.record(now, self.queue.occupancy() as f64);
    }

    // ------------------------------------------------------------------
    // Crash semantics: which images a power loss can leave is
    // `crate::crash`'s to say.
    // ------------------------------------------------------------------

    /// The storage-surface contents if power were lost right now: choice 0
    /// of the [`crate::ChoiceSpace`] the profile admits (§3.2's enforcement
    /// options).
    pub fn crash_image(&self) -> BlockMap {
        CrashState::of_device(self, self.profile.plp).into_image(0)
    }

    /// The durable state with *no* crash: everything transferred, the
    /// cache included — the PLP image (used to validate end-of-run
    /// content).
    pub fn final_image(&self) -> BlockMap {
        CrashState::of_device(self, true).into_image(0)
    }
}
