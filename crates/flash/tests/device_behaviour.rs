//! End-to-end device behaviour: drives the `Device` state machine with a
//! miniature event loop and checks timing, durability and crash semantics.

use bio_flash::{
    BarrierMode, BlockTag, CmdId, Command, Completion, DevAction, DevEvent, Device, DeviceProfile,
    EpochAudit, FtlStats, ImageView, Lba, Priority, WriteFlags,
};
use bio_sim::{EventQueue, SimTime};

/// Minimal host: schedules device-internal events and collects completions.
struct Harness {
    dev: Device,
    q: EventQueue<DevEvent>,
    completions: Vec<Completion>,
}

impl Harness {
    fn new(profile: DeviceProfile, seed: u64) -> Harness {
        Harness {
            dev: Device::new(profile, seed),
            q: EventQueue::new(),
            completions: Vec::new(),
        }
    }

    fn apply(&mut self, actions: Vec<DevAction>) {
        for a in actions {
            match a {
                DevAction::Complete(c) => self.completions.push(c),
                DevAction::After(d, ev) => self.q.push_after(d, ev),
            }
        }
    }

    fn submit(&mut self, cmd: Command) {
        let mut out = Vec::new();
        let now = self.q.now();
        self.dev
            .submit(cmd, now, &mut out)
            .expect("queue unexpectedly full");
        self.apply(out);
    }

    fn submit_may_bounce(&mut self, cmd: Command) -> bool {
        let mut out = Vec::new();
        let now = self.q.now();
        let ok = self.dev.submit(cmd, now, &mut out).is_ok();
        self.apply(out);
        ok
    }

    /// Submits `cmd`, letting the device make progress while its queue is
    /// full.
    fn submit_when_room(&mut self, cmd: Command) {
        while !self.submit_may_bounce(cmd.clone()) {
            self.step();
        }
    }

    /// Handles the next device event.
    fn step(&mut self) {
        let (now, ev) = self.q.pop().expect("device stuck");
        let mut out = Vec::new();
        self.dev.handle(ev, now, &mut out);
        self.apply(out);
    }

    /// Runs the event loop to quiescence.
    fn run(&mut self) {
        while let Some((now, ev)) = self.q.pop() {
            let mut out = Vec::new();
            self.dev.handle(ev, now, &mut out);
            self.apply(out);
        }
    }

    /// Runs until the given command completes, returning its completion time.
    fn run_until_complete(&mut self, id: CmdId) -> SimTime {
        loop {
            if let Some(c) = self.completions.iter().find(|c| c.id == id) {
                return c.at;
            }
            let (now, ev) = self.q.pop().expect("event queue drained before completion");
            let mut out = Vec::new();
            self.dev.handle(ev, now, &mut out);
            self.apply(out);
        }
    }
}

fn wcmd(id: u64, lba: u64, tag: u64, flags: WriteFlags) -> Command {
    Command::write(CmdId(id), Lba(lba), vec![BlockTag(tag)], flags)
}

#[test]
fn buffered_write_completes_at_dma_time() {
    let mut h = Harness::new(DeviceProfile::ufs(), 1);
    h.submit(wcmd(1, 0, 10, WriteFlags::NONE));
    let t = h.run_until_complete(CmdId(1));
    // UFS: 60us decode (idle link) + 25us per block.
    assert_eq!(t, SimTime::from_micros(85));
    // Content visible in final (drained) image.
    h.run();
    assert_eq!(h.dev.final_image().tag(Lba(0)), BlockTag(10));
}

#[test]
fn a_write_of_the_reserved_tag_is_refused_and_counted() {
    // No block map can hold `BlockTag(u64::MAX)`: the device completes
    // such a write at once, writes nothing and counts it like a write past
    // the address limit, so the flush after it has nothing to fold.
    let mut h = Harness::new(DeviceProfile::ufs(), 7);
    h.submit(wcmd(1, 0, 10, WriteFlags::NONE));
    h.submit(Command::flush(CmdId(2)));
    h.run_until_complete(CmdId(2));
    let before: Vec<(Lba, BlockTag)> = h.dev.final_image().iter().collect();
    let tags = vec![BlockTag(11), BlockTag(u64::MAX)];
    h.submit(Command::write(CmdId(3), Lba(0), tags, WriteFlags::NONE));
    assert_eq!(h.dev.queue_depth(), 0, "refused at submission");
    h.submit(Command::flush(CmdId(4)));
    h.run();
    assert!(h.completions.iter().any(|c| c.id == CmdId(3)));
    assert!(h.completions.iter().any(|c| c.id == CmdId(4)));
    assert_eq!(h.dev.stats().out_of_range_writes, 1);
    let after: Vec<(Lba, BlockTag)> = h.dev.final_image().iter().collect();
    assert_eq!(after, before);
    assert_eq!(h.dev.crash_image().tag(Lba(0)), BlockTag(10));
}

#[test]
fn cached_write_is_lost_on_crash_without_flush() {
    let mut h = Harness::new(DeviceProfile::ufs(), 2);
    h.submit(wcmd(1, 0, 10, WriteFlags::NONE));
    h.run_until_complete(CmdId(1));
    // Completed but still in the writeback cache: power loss destroys it.
    let img = h.dev.crash_image();
    assert_eq!(img.tag(Lba(0)), BlockTag::UNWRITTEN);
}

#[test]
fn flush_makes_data_durable() {
    let mut h = Harness::new(DeviceProfile::ufs(), 3);
    h.submit(wcmd(1, 0, 10, WriteFlags::NONE));
    h.run_until_complete(CmdId(1));
    h.submit(Command::flush(CmdId(2)));
    let t_flush = h.run_until_complete(CmdId(2));
    assert!(
        t_flush > SimTime::from_micros(70),
        "flush takes program time"
    );
    assert_eq!(h.dev.crash_image().tag(Lba(0)), BlockTag(10));
}

#[test]
fn supercap_flush_is_cheap_and_crash_safe() {
    let mut h = Harness::new(DeviceProfile::supercap_ssd(), 4);
    h.submit(wcmd(1, 0, 10, WriteFlags::NONE));
    let t_w = h.run_until_complete(CmdId(1));
    h.submit(Command::flush(CmdId(2)));
    let t_flush = h.run_until_complete(CmdId(2));
    // PLP flush costs only the fixed overhead (25us), no cache drain.
    assert!(
        t_flush.since(t_w) <= bio_sim::SimDuration::from_micros(30),
        "supercap flush took {}",
        t_flush.since(t_w)
    );
    // And even without any flush the cache is durable.
    let mut h2 = Harness::new(DeviceProfile::supercap_ssd(), 5);
    h2.submit(wcmd(1, 7, 70, WriteFlags::NONE));
    h2.run_until_complete(CmdId(1));
    assert_eq!(h2.dev.crash_image().tag(Lba(7)), BlockTag(70));
}

#[test]
fn fua_write_is_durable_at_completion() {
    let mut h = Harness::new(DeviceProfile::ufs(), 6);
    let flags = WriteFlags {
        fua: true,
        flush_before: false,
        barrier: false,
    };
    h.submit(wcmd(1, 3, 30, flags));
    let t = h.run_until_complete(CmdId(1));
    // FUA costs DMA + a flash program, far more than DMA alone.
    assert!(t >= SimTime::from_micros(70 + 200));
    assert_eq!(h.dev.crash_image().tag(Lba(3)), BlockTag(30));
}

#[test]
fn fua_write_coalescing_out_of_order_completes() {
    // Two dirty same-epoch entries, the higher LBA transferred first. A
    // FUA write over both coalesces into them, so the sequences it waits
    // on come back descending — its drain must still retire both.
    let mut h = Harness::new(DeviceProfile::plain_ssd(), 8);
    h.submit(wcmd(1, 6, 60, WriteFlags::NONE));
    h.submit(wcmd(2, 5, 50, WriteFlags::NONE));
    h.run_until_complete(CmdId(2));
    let fua = WriteFlags {
        fua: true,
        ..WriteFlags::NONE
    };
    h.submit(Command::write(
        CmdId(3),
        Lba(5),
        vec![BlockTag(51), BlockTag(61)],
        fua,
    ));
    h.run();
    assert!(
        h.completions.iter().any(|c| c.id == CmdId(3)),
        "FUA write never completed"
    );
    assert_eq!(h.dev.queue_depth(), 0);
    let img = h.dev.crash_image();
    assert_eq!(img.tag(Lba(5)), BlockTag(51));
    assert_eq!(img.tag(Lba(6)), BlockTag(61));
}

#[test]
fn flush_fua_write_drains_cache_first() {
    let mut h = Harness::new(DeviceProfile::ufs(), 7);
    h.submit(wcmd(1, 0, 10, WriteFlags::NONE));
    h.run_until_complete(CmdId(1));
    // JC-style write: FLUSH|FUA.
    h.submit(wcmd(2, 1, 20, WriteFlags::FLUSH_FUA));
    h.run_until_complete(CmdId(2));
    let img = h.dev.crash_image();
    assert_eq!(img.tag(Lba(0)), BlockTag(10), "preflush persisted lba 0");
    assert_eq!(img.tag(Lba(1)), BlockTag(20), "FUA persisted lba 1");
}

#[test]
fn queue_depth_is_bounded() {
    let mut h = Harness::new(DeviceProfile::ufs(), 8); // QD 16
    let mut accepted = 0;
    for i in 0..40 {
        if h.submit_may_bounce(wcmd(i + 1, i, i + 100, WriteFlags::NONE)) {
            accepted += 1;
        }
    }
    assert_eq!(accepted, 16, "exactly QD commands fit");
    assert_eq!(h.dev.stats().queue_full_rejections, 24);
    h.run();
    assert_eq!(h.completions.len(), 16);
}

#[test]
fn writes_complete_in_transfer_order_on_one_link() {
    let mut h = Harness::new(DeviceProfile::plain_ssd(), 9);
    for i in 0..8u64 {
        h.submit(wcmd(i + 1, i, i + 100, WriteFlags::NONE));
    }
    h.run();
    let order: Vec<u64> = h.completions.iter().map(|c| c.id.0).collect();
    assert_eq!(order, (1..=8).collect::<Vec<_>>());
}

#[test]
fn barrier_write_pays_emulation_penalty_on_plain_ssd() {
    // plain-SSD profile has a 5% barrier overhead.
    let mut plain = Harness::new(DeviceProfile::plain_ssd(), 10);
    plain.submit(wcmd(1, 0, 10, WriteFlags::NONE));
    let t_plain = plain.run_until_complete(CmdId(1));

    let mut barrier = Harness::new(DeviceProfile::plain_ssd(), 10);
    barrier.submit(wcmd(1, 0, 10, WriteFlags::BARRIER));
    let t_barrier = barrier.run_until_complete(CmdId(1));
    assert!(t_barrier > t_plain);
    let ratio = t_barrier.as_nanos() as f64 / t_plain.as_nanos() as f64;
    assert!((ratio - 1.05).abs() < 0.01, "ratio {ratio}");
}

#[test]
fn lfs_device_preserves_epoch_order_across_crashes() {
    // Write epochs of 4 blocks, barrier-delimited; crash mid-destage; the
    // persisted image must never show epoch n+1 while epoch n is missing.
    for seed in 0..20u64 {
        let mut h = Harness::new(DeviceProfile::ufs(), seed);
        h.dev.record_history(true);
        let mut id = 0;
        for epoch in 0..6u64 {
            for i in 0..4u64 {
                id += 1;
                let lba = epoch * 4 + i;
                let flags = if i == 3 {
                    WriteFlags::BARRIER
                } else {
                    WriteFlags::NONE
                };
                h.submit(wcmd(id, lba, 1000 + id, flags).with_priority(Priority::Ordered));
                h.run_until_complete(CmdId(id));
            }
        }
        // Force some destaging, then crash partway: pop a bounded number of
        // events so programs are mid-flight.
        h.submit(Command::flush(CmdId(999)));
        for _ in 0..(seed % 17) {
            if let Some((now, ev)) = h.q.pop() {
                let mut out = Vec::new();
                h.dev.handle(ev, now, &mut out);
                h.apply(out);
            }
        }
        let img = h.dev.crash_image();
        let violations = EpochAudit::new(h.dev.history().unwrap()).violations(&img);
        assert!(
            violations.is_empty(),
            "seed {seed}: LFS device violated epoch order: {violations:?}"
        );
    }
}

#[test]
fn orderless_device_can_violate_epoch_order() {
    // Same workload on a device with BarrierMode::Unsupported: across many
    // seeds at least one crash must violate epoch ordering (this is the
    // vulnerability the paper's barrier removes).
    let mut violated = false;
    for seed in 0..40u64 {
        let profile = DeviceProfile::ufs().with_barrier_mode(BarrierMode::Unsupported);
        let mut h = Harness::new(profile, seed);
        h.dev.record_history(true);
        let mut id = 0;
        for epoch in 0..6u64 {
            for i in 0..4u64 {
                id += 1;
                let lba = epoch * 4 + i;
                let flags = if i == 3 {
                    WriteFlags::BARRIER
                } else {
                    WriteFlags::NONE
                };
                h.submit(wcmd(id, lba, 1000 + id, flags));
                h.run_until_complete(CmdId(id));
            }
        }
        h.submit(Command::flush(CmdId(999)));
        for _ in 0..(3 + seed % 23) {
            if let Some((now, ev)) = h.q.pop() {
                let mut out = Vec::new();
                h.dev.handle(ev, now, &mut out);
                h.apply(out);
            }
        }
        let audit = EpochAudit::new(h.dev.history().unwrap());
        if !audit.violations(&h.dev.crash_image()).is_empty() {
            violated = true;
            break;
        }
    }
    assert!(
        violated,
        "orderless device never violated epoch order across 40 crashes — \
         the baseline model is too strong"
    );
}

#[test]
fn sustained_writes_trigger_gc() {
    // Small device so GC happens quickly.
    let mut profile = DeviceProfile::ufs();
    profile.segments = 8;
    profile.pages_per_segment = 32;
    profile.cache_blocks = 16;
    profile.gc_low_watermark = 0.3;
    let mut h = Harness::new(profile, 11);
    let mut id = 0;
    // Overwrite a 64-block working set far beyond device capacity.
    for round in 0..12u64 {
        for lba in 0..64u64 {
            id += 1;
            loop {
                if h.submit_may_bounce(wcmd(id, lba, round * 64 + lba + 1, WriteFlags::NONE)) {
                    break;
                }
                // Queue full: let the device make progress.
                let (now, ev) = h.q.pop().expect("device stuck");
                let mut out = Vec::new();
                h.dev.handle(ev, now, &mut out);
                h.apply(out);
            }
        }
    }
    while !h.submit_may_bounce(Command::flush(CmdId(99999))) {
        let (now, ev) = h.q.pop().expect("device stuck");
        let mut out = Vec::new();
        h.dev.handle(ev, now, &mut out);
        h.apply(out);
    }
    h.run();
    assert!(h.dev.ftl_stats().gc_runs > 0, "GC never ran");
    assert!(h.dev.ftl_stats().write_amplification() >= 1.0);
    // All final contents must be the last round's writes.
    let img = h.dev.final_image();
    for lba in 0..64u64 {
        assert_eq!(img.tag(Lba(lba)), BlockTag(11 * 64 + lba + 1), "lba {lba}");
    }
}

#[test]
fn replayed_finish_cannot_produce_a_completion_sample() {
    // A flush completes via a Finish event; the host derives its latency
    // sample from the Completion record. Before the admit time moved
    // inline into the active table, a replayed Finish could re-complete a
    // command whose admit record was gone, yielding a zero-latency sample.
    // Now the replay must produce no Completion at all.
    let mut h = Harness::new(DeviceProfile::ufs(), 21);
    h.submit(wcmd(1, 0, 10, WriteFlags::NONE));
    h.run_until_complete(CmdId(1));
    h.submit(Command::flush(CmdId(2)));
    h.run_until_complete(CmdId(2));
    h.run();
    let completions = h.completions.len();
    let stats = h.dev.stats();
    // Replay the Finish for the already-completed flush, and forge one for
    // a command that never existed.
    for id in [CmdId(2), CmdId(99)] {
        let mut out = Vec::new();
        let now = h.q.now();
        h.dev.handle(DevEvent::Finish { id }, now, &mut out);
        h.apply(out);
    }
    h.run();
    assert_eq!(
        h.completions.len(),
        completions,
        "replayed Finish must not emit a Completion (no latency sample)"
    );
    assert_eq!(h.dev.stats().flush_cmds, stats.flush_cmds);
    assert_eq!(h.dev.stats().write_cmds, stats.write_cmds);
    assert_eq!(h.dev.queue_depth(), 0, "no queue slot double-released");
}

#[test]
fn forged_stage_events_are_inert() {
    // DmaDone / PreflushDone / Finish events naming a live command in the
    // wrong stage (replayed or forged interrupts) must not double-queue it
    // for the link or the cache, and must not complete a mid-flight write
    // before its data reaches the cache; the device completes every
    // command exactly once with its content intact.
    let mut h = Harness::new(DeviceProfile::plain_ssd(), 22);
    for i in 1..=3u64 {
        h.submit(wcmd(i, i, i + 10, WriteFlags::NONE));
    }
    // Interleave forged events with the real ones.
    for _ in 0..64 {
        let Some((now, ev)) = h.q.pop() else { break };
        let mut out = Vec::new();
        h.dev.handle(ev, now, &mut out);
        h.apply(out);
        for id in [CmdId(1), CmdId(2), CmdId(3), CmdId(7)] {
            let mut out = Vec::new();
            h.dev.handle(DevEvent::PreflushDone { id }, now, &mut out);
            h.dev.handle(DevEvent::DmaDone { id }, now, &mut out);
            h.dev.handle(DevEvent::Finish { id }, now, &mut out);
            h.apply(out);
        }
    }
    h.run();
    for i in 1..=3u64 {
        let n = h.completions.iter().filter(|c| c.id == CmdId(i)).count();
        assert_eq!(n, 1, "command {i} must complete exactly once, got {n}");
    }
    assert_eq!(h.dev.queue_depth(), 0);
    let img = h.dev.final_image();
    for i in 1..=3u64 {
        assert_eq!(img.tag(Lba(i)), BlockTag(i + 10), "content intact");
    }
}

#[test]
fn forged_finish_on_a_waiting_write_does_not_complete_it() {
    // A forged Finish naming a live write that has not transferred yet
    // must be dropped: completing it would free its queue slot and report
    // success to the host while the data never reaches the cache.
    let mut h = Harness::new(DeviceProfile::ufs(), 24);
    h.submit(wcmd(1, 0, 10, WriteFlags::NONE));
    // The write is mid-flight (Dma scheduled, nothing completed yet).
    assert!(h.completions.is_empty());
    let mut out = Vec::new();
    let now = h.q.now();
    h.dev
        .handle(DevEvent::Finish { id: CmdId(1) }, now, &mut out);
    h.apply(out);
    assert!(
        h.completions.is_empty(),
        "forged Finish must not complete a waiting write"
    );
    // The genuine pipeline still completes it exactly once, with content.
    h.run();
    assert_eq!(h.completions.len(), 1);
    h.run();
    assert_eq!(h.dev.final_image().tag(Lba(0)), BlockTag(10));
}

#[test]
fn waiting_commands_keep_their_admit_time_across_a_fence() {
    // Two writes behind an ordered barrier write: they sit in the queue
    // until the fence completes, so their decode overlaps the wait and the
    // per-command overhead is not charged (the §6.2 rule). The admit time
    // that drives this now rides inline through the queue pick.
    let mut h = Harness::new(DeviceProfile::ufs(), 23);
    h.submit(wcmd(1, 0, 1, WriteFlags::BARRIER).with_priority(Priority::Ordered));
    h.submit(wcmd(2, 1, 2, WriteFlags::NONE));
    let t1 = h.run_until_complete(CmdId(1));
    let t2 = h.run_until_complete(CmdId(2));
    assert!(t2 > t1, "fenced command completes after the fence");
    // UFS dma_per_block = 25us: the queued command pays only its DMA after
    // the fence completes, not the 60us decode overhead.
    assert_eq!(
        t2.saturating_since(t1),
        bio_sim::SimDuration::from_micros(25),
        "queued command must not be charged decode overhead"
    );
}

#[test]
fn qd_window_tracks_occupancy() {
    let mut h = Harness::new(DeviceProfile::plain_ssd(), 12);
    for i in 0..4u64 {
        h.submit(wcmd(i + 1, i, i + 1, WriteFlags::NONE));
    }
    let peak = h.dev.qd_window().peak(SimTime::from_secs(1));
    assert!(peak >= 4.0, "peak {peak}");
    h.run();
    assert_eq!(h.dev.queue_depth(), 0);
}

/// UFS with a single chip, so flash programs run one at a time.
fn one_chip_ufs(mode: BarrierMode) -> DeviceProfile {
    let mut profile = DeviceProfile::ufs().with_barrier_mode(mode);
    profile.ways = 1;
    profile
}

const FUA: WriteFlags = WriteFlags {
    fua: true,
    ..WriteFlags::NONE
};

#[test]
fn empty_fua_write_completes_at_once() {
    // No block means no program to wait for: the write must not sit in its
    // queue slot until somebody else's program happens to finish.
    let mut h = Harness::new(DeviceProfile::plain_ssd(), 25);
    h.submit(Command::write(CmdId(1), Lba(3), vec![], FUA));
    h.run();
    let done: Vec<CmdId> = h.completions.iter().map(|c| c.id).collect();
    assert_eq!(done, vec![CmdId(1)]);
    assert_eq!(h.dev.queue_depth(), 0);
    assert_eq!(h.dev.stats().write_cmds, 1);
}

#[test]
fn fua_write_coalesced_into_an_older_entry_waits_for_that_entry() {
    // Three dirty same-epoch entries on a one-chip in-order device; a FUA
    // write over the middle one coalesces into it. The write is done when
    // that entry's program is — not at the older entry's program before
    // it, and without waiting for the younger one after it.
    let mut h = Harness::new(one_chip_ufs(BarrierMode::LfsInOrderRecovery), 26);
    for (id, lba) in [(1, 1), (2, 5), (3, 9)] {
        h.submit(wcmd(id, lba, lba, WriteFlags::NONE));
        h.run_until_complete(CmdId(id));
    }
    h.submit(wcmd(4, 5, 55, FUA));
    h.run_until_complete(CmdId(4));
    let img = h.dev.crash_image();
    assert_eq!(img.tag(Lba(5)), BlockTag(55), "acknowledged before durable");
    assert_eq!(img.tag(Lba(9)), BlockTag::UNWRITTEN, "waited for too much");
    h.run();
    assert_eq!(h.dev.queue_depth(), 0);
}

#[test]
fn a_fua_write_is_recoverable_the_moment_it_completes() {
    // Sixteen chips with program jitter and in-order recovery: programs
    // start in cache order and finish in any. Each round writes one block,
    // eight more in descending order and one after them, then a FUA write
    // over the eight, which coalesces into their entries while they are
    // dirty: its newest sequence is its first block's, not its last. The
    // entry before the eight is one its durability depends on, the one
    // after is not. At the event that completes a FUA write, the
    // recoverable prefix of the log must hold every tag it wrote.
    for seed in 0..32u64 {
        let mut h = Harness::new(DeviceProfile::ufs(), seed);
        let mut id = 0;
        for round in 0..16u64 {
            let base = round * 16;
            let order = [base + 8].into_iter().chain((base..base + 8).rev());
            for lba in order.chain([base + 9]) {
                id += 1;
                h.submit(wcmd(id, lba, id, WriteFlags::NONE));
            }
            id += 1;
            let fua = CmdId(id);
            let wrote: Vec<BlockTag> = (0..8).map(|i| BlockTag(id * 100 + i)).collect();
            h.submit(Command::write(fua, Lba(base), wrote.clone(), FUA));
            while !h.completions.iter().any(|c| c.id == fua) {
                h.step();
            }
            let img = h.dev.crash_image();
            for (lba, &tag) in (base..).zip(&wrote) {
                assert_eq!(
                    img.tag(Lba(lba)),
                    tag,
                    "seed {seed} round {round}: acknowledged before recoverable"
                );
            }
        }
    }
}

/// Sixteen segments of eight pages behind an eight-block cache.
fn small_flash_ufs() -> DeviceProfile {
    DeviceProfile {
        segments: 16,
        pages_per_segment: 8,
        cache_blocks: 8,
        ..DeviceProfile::ufs()
    }
}

#[test]
fn an_aged_device_moves_live_pages_and_keeps_every_block() {
    // 80 distinct blocks on 128 pages, then each overwritten three times
    // at random: GC victims carry live pages, which it appends to the
    // active segment, so every command completes and the flash holds the
    // newest version of every block.
    let live = 80u64;
    let mut h = Harness::new(small_flash_ufs(), 29);
    let mut rng = bio_sim::SimRng::new(29);
    let mut newest = vec![BlockTag::UNWRITTEN; live as usize];
    let blocks = (0..live).chain((0..3 * live).map(|_| rng.below(live)));
    for (lba, id) in blocks.zip(1u64..) {
        h.submit_when_room(wcmd(id, lba, id, WriteFlags::NONE));
        newest[lba as usize] = BlockTag(id);
    }
    h.submit_when_room(Command::flush(CmdId(4 * live + 1)));
    h.run();
    assert_eq!(h.completions.len() as u64, 4 * live + 1);
    assert!(
        h.dev.ftl_stats().gc_appends > 0,
        "no victim carried a live page"
    );
    let img = h.dev.crash_image();
    for (lba, &tag) in (0..).zip(&newest) {
        assert_eq!(img.tag(Lba(lba)), tag, "lba {lba}");
    }
}

#[test]
#[should_panic(expected = "FTL out of space")]
fn a_device_filled_past_its_flash_fails_loudly() {
    // Distinct blocks past the 128 pages: once every segment holds only
    // live data GC frees nothing, and the program with no page panics
    // rather than drop the block from the FTL unseen.
    let mut h = Harness::new(small_flash_ufs(), 28);
    for i in 1..=160u64 {
        h.submit_when_room(wcmd(i, i, i, WriteFlags::NONE));
    }
    h.submit_when_room(Command::flush(CmdId(161)));
    h.run();
}

#[test]
fn flush_waits_only_for_what_was_resident() {
    // One chip and no ordering promise: programs run one at a time, each
    // picked at random from the two oldest entries, so writes arriving
    // while a flush drains are programmed in among the entries it waits
    // for. They must neither count towards the drain nor extend it.
    let mut overtaken = 0;
    for seed in 0..16u64 {
        let mut h = Harness::new(one_chip_ufs(BarrierMode::Unsupported), seed);
        for i in 1..=3u64 {
            h.submit(wcmd(i, i, i, WriteFlags::NONE));
            h.run_until_complete(CmdId(i));
        }
        h.submit(Command::flush(CmdId(10)));
        for i in 11..=18u64 {
            h.submit(wcmd(i, i, i, WriteFlags::NONE));
        }
        // Step to the program completion that ends the drain: the one that
        // schedules the flush's delayed completion.
        loop {
            let (now, ev) = h.q.pop().expect("the flush never drained");
            let mut out = Vec::new();
            h.dev.handle(ev, now, &mut out);
            let drained = out.contains(&DevAction::After(
                h.dev.profile().flush_overhead,
                DevEvent::Finish { id: CmdId(10) },
            ));
            h.apply(out);
            if drained {
                break;
            }
        }
        let img = h.dev.crash_image();
        for i in 1..=3u64 {
            assert_eq!(img.tag(Lba(i)), BlockTag(i), "seed {seed}: drained early");
        }
        assert!(
            !h.dev.cache().is_empty(),
            "seed {seed}: the flush waited for writes that came after it"
        );
        overtaken += usize::from((11..=18u64).any(|i| img.tag(Lba(i)) == BlockTag(i)));
        h.run();
        assert_eq!(h.dev.queue_depth(), 0);
    }
    assert!(
        overtaken > 0,
        "no seed programmed a later write inside the drain: the test is vacuous"
    );
}

#[test]
fn transactional_group_commits_at_its_last_member() {
    // Four entries form one all-or-nothing group: it commits — and its
    // blocks become recoverable — with the last member's program, not the
    // first.
    let profile = DeviceProfile::ufs().with_barrier_mode(BarrierMode::Transactional);
    let mut h = Harness::new(profile, 27);
    for i in 1..=4u64 {
        h.submit(wcmd(i, i, i, WriteFlags::NONE));
        h.run_until_complete(CmdId(i));
    }
    h.submit(Command::flush(CmdId(5)));
    let mut programmed = 0;
    while let Some((now, ev)) = h.q.pop() {
        programmed += usize::from(matches!(ev, DevEvent::ProgramDone { .. }));
        let mut out = Vec::new();
        h.dev.handle(ev, now, &mut out);
        h.apply(out);
        let committed = h.dev.committed_groups().count();
        assert_eq!(
            committed,
            usize::from(programmed == 4),
            "{programmed} programmed"
        );
        let want = if committed == 1 {
            BlockTag(1)
        } else {
            BlockTag::UNWRITTEN
        };
        assert_eq!(h.dev.crash_image().tag(Lba(1)), want);
    }
    assert_eq!(programmed, 4);
    assert_eq!(h.completions.last().map(|c| c.id), Some(CmdId(5)));
}

// ---------------------------------------------------------------------
// Golden action stream: the device's whole observable behaviour, pinned.
// ---------------------------------------------------------------------

/// FNV-1a over the `Debug` rendering of every `(time, action)` the device
/// emits while a closed loop of `GOLDEN_CMDS` mixed commands keeps its
/// queue full. Returns the hash, the number of loop iterations that found
/// the writeback cache at capacity, and the FTL's counters.
fn golden_action_stream(profile: DeviceProfile) -> (u64, usize, FtlStats) {
    use std::fmt::Write as _;

    const GOLDEN_CMDS: u64 = 20_000;
    let cache_blocks = profile.cache_blocks;
    let mut dev = Device::new(profile, 0x5EED);
    let mut q: EventQueue<DevEvent> = EventQueue::new();
    let mut gen = bio_sim::SimRng::new(0xC0FFEE);
    let mut out: Vec<DevAction> = Vec::new();
    let mut line = String::new();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut saturated = 0usize;
    let mut next = 1u64;
    let mut tag = 1u64;
    loop {
        while next <= GOLDEN_CMDS && dev.can_accept() {
            // A flush-free first half lets even the 4,096-block cache fill;
            // the second half mixes in the commands that drain it.
            let cmd = match next {
                12_000 | 16_000 | 20_000 => Command::flush(CmdId(next)),
                _ => {
                    let flags = match (next, gen.below(64)) {
                        (14_000 | 18_000, _) => WriteFlags::FLUSH_FUA,
                        (_, 0) => WriteFlags {
                            fua: true,
                            ..WriteFlags::NONE
                        },
                        (_, 1..=4) => WriteFlags::BARRIER,
                        _ => WriteFlags::NONE,
                    };
                    // FUA writes stay single-block: the recording commit
                    // mishandled a multi-block one whose blocks coalesced
                    // into older entries out of order (see
                    // `fua_write_coalescing_out_of_order_completes`).
                    let blocks = if flags.fua { 1 } else { 1 + gen.below(4) };
                    let tags = (0..blocks).map(|i| BlockTag(tag + i)).collect();
                    tag += blocks;
                    Command::write(CmdId(next), Lba(gen.below(1020)), tags, flags)
                }
            };
            dev.submit(cmd, q.now(), &mut out)
                .expect("can_accept promised room");
            next += 1;
        }
        if out.is_empty() {
            let Some((now, ev)) = q.pop() else { break };
            dev.handle(ev, now, &mut out);
        }
        saturated += usize::from(dev.cache().len() >= cache_blocks);
        for a in out.drain(..) {
            line.clear();
            write!(line, "{:?} {a:?}", q.now()).expect("write to String");
            for b in line.bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            if let DevAction::After(d, ev) = a {
                q.push_after(d, ev);
            }
        }
    }
    assert_eq!(dev.queue_depth(), 0, "every command completed");
    assert!(dev.ftl_stats().gc_runs > 0, "GC never ran");
    (hash, saturated, dev.ftl_stats())
}

#[test]
fn action_stream_matches_golden_hashes() {
    // First recorded at the commit before the incremental destage frontier
    // (c4edb07), whose pump rescanned the whole cache; re-recorded when a
    // FUA write became a drain and GC relocation an append. The stream
    // covers every completion and every scheduled event with its delay, so
    // it pins RNG draw order (program jitter, the orderless shuffle) and GC
    // timing, not just end-of-run totals. Re-recorded when `ProgramDone`
    // lost its unread die index: each new hash equals the previous
    // commit's stream hashed with every `, chip: N` stripped.
    const MODES: [BarrierMode; 4] = [
        BarrierMode::Unsupported,
        BarrierMode::InOrderWriteback,
        BarrierMode::Transactional,
        BarrierMode::LfsInOrderRecovery,
    ];
    // ~50k blocks over a 1,024-block region of a 16k-page device: GC
    // runs, and its victims are empty by the time it picks them.
    let fresh = |base: DeviceProfile, mode| DeviceProfile {
        segments: 64,
        pages_per_segment: 256,
        ..base.with_barrier_mode(mode)
    };
    let mut cells: Vec<(String, DeviceProfile, u64)> = Vec::new();
    for (base, want) in [
        (
            DeviceProfile::ufs(),
            [
                0x00ed_a7dd_85d4_618c,
                0x0cf7_6940_bde3_fdbf,
                0xb789_75a3_be89_aed2,
                0x2d98_0f22_32c9_553a,
            ],
        ),
        (
            DeviceProfile::plain_ssd(),
            [
                0xdddd_8477_bb2c_9098,
                0x62c5_9e71_faf8_6f92,
                0x1ce6_f8b8_6ae8_8bcd,
                0x7266_483c_9036_4e1d,
            ],
        ),
    ] {
        for (mode, want) in MODES.into_iter().zip(want) {
            let label = format!("{} {mode:?}", base.name);
            cells.push((label, fresh(base.clone(), mode), want));
        }
    }
    // The aged cell: the same region on a 1,408-page device is 73 % live,
    // so GC victims carry live pages and relocation timing is pinned too.
    let aged = DeviceProfile {
        segments: 22,
        pages_per_segment: 64,
        ..DeviceProfile::ufs()
    };
    cells.push(("aged UFS".to_string(), aged, 0xc168_a763_8338_fcd4));
    let mut drifted = Vec::new();
    for (label, profile, want) in cells {
        let aged = profile.segments * profile.pages_per_segment < 2 * 1024;
        let (hash, saturated, ftl) = golden_action_stream(profile);
        assert!(
            saturated > 1_000,
            "{label}: cache at capacity on only {saturated} steps"
        );
        assert_eq!(ftl.gc_appends > 0, aged, "{label}: {ftl:?}");
        if hash != want {
            drifted.push(format!("{label}: now {hash:#018x}"));
        }
    }
    assert!(drifted.is_empty(), "action streams drifted: {drifted:#?}");
}
