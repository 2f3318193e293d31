//! End-to-end block layer behaviour over the simulated device.

use bio_block::{
    ActionSink, BlockAction, BlockConfig, BlockEvent, BlockLayer, BlockRequest, ReqFlags, ReqId,
    Topology,
};
use bio_flash::{BlockTag, Device, DeviceProfile, EpochAudit, ImageView, Lba};
use bio_sim::{EventQueue, SimTime};

struct Harness {
    layer: BlockLayer,
    q: EventQueue<BlockEvent>,
    /// One reusable sink for every submit/handle call, like the real
    /// embedding stack.
    out: ActionSink<BlockAction>,
    done: Vec<(ReqId, SimTime)>,
}

impl Harness {
    fn new(profile: DeviceProfile) -> Harness {
        Harness::with_topology(profile, Topology::single())
    }

    fn with_topology(profile: DeviceProfile, topology: Topology) -> Harness {
        let devices = (0..topology.nr_devices)
            .map(|i| Device::new(profile.clone(), 99 + i as u64))
            .collect();
        let cfg = BlockConfig::default().with_topology(topology);
        Harness {
            layer: BlockLayer::new(devices, cfg),
            q: EventQueue::new(),
            out: ActionSink::new(),
            done: Vec::new(),
        }
    }

    fn apply(&mut self) {
        for a in self.out.drain() {
            match a {
                BlockAction::Complete(id, at) => self.done.push((id, at)),
                BlockAction::After(d, ev) => self.q.push_after(d, ev),
            }
        }
    }

    fn submit(&mut self, req: BlockRequest) {
        let now = self.q.now();
        self.layer.submit(req, now, &mut self.out);
        self.apply();
    }

    fn run(&mut self) {
        while let Some((now, ev)) = self.q.pop() {
            self.layer.handle(ev, now, &mut self.out);
            self.apply();
        }
    }

    fn run_steps(&mut self, n: usize) {
        for _ in 0..n {
            let Some((now, ev)) = self.q.pop() else {
                return;
            };
            self.layer.handle(ev, now, &mut self.out);
            self.apply();
        }
    }
}

fn w(id: u64, lba: u64, flags: ReqFlags) -> BlockRequest {
    BlockRequest::write(ReqId(id), Lba(lba), vec![BlockTag(id + 1000)], flags)
}

#[test]
fn requests_complete_through_the_stack() {
    let mut h = Harness::new(DeviceProfile::ufs());
    for i in 0..4 {
        h.submit(w(i, i * 10, ReqFlags::NONE));
    }
    h.run();
    assert_eq!(h.done.len(), 4);
    assert_eq!(h.layer.stats().submitted, 4);
    assert!(
        h.layer.stats().dispatched <= 4,
        "merging can reduce commands"
    );
    assert_eq!(h.layer.stats().completed, 4);
}

#[test]
fn merged_requests_complete_every_bio() {
    let mut h = Harness::new(DeviceProfile::ufs());
    // Fill the device queue (UFS QD = 16) so later requests pool in the
    // scheduler, where merging happens.
    for i in 0..16 {
        h.submit(w(i, i * 50, ReqFlags::NONE));
    }
    // Four adjacent blocks merge into one command while waiting.
    for i in 16..20 {
        h.submit(w(i, 1000 + i, ReqFlags::NONE));
    }
    h.run();
    assert_eq!(h.done.len(), 20, "each bio gets its completion");
    assert!(
        h.layer.stats().dispatched < 20,
        "adjacent waiting writes should merge ({} dispatched)",
        h.layer.stats().dispatched
    );
}

#[test]
fn busy_device_retries_and_completes_everything() {
    // UFS QD is 16; submit far more and let the retry path drain them.
    let mut h = Harness::new(DeviceProfile::ufs());
    for i in 0..120u64 {
        // Spread LBAs so nothing merges.
        h.submit(w(i, i * 7, ReqFlags::NONE));
    }
    h.run();
    assert_eq!(h.done.len(), 120);
}

#[test]
fn barrier_epochs_survive_crash_in_order_preserving_mode() {
    for seed_steps in 0..12usize {
        let mut h = Harness::new(DeviceProfile::ufs());
        h.layer.devices_mut()[0].record_history(true);
        let mut id = 0;
        for epoch in 0..5u64 {
            for i in 0..3u64 {
                let flags = if i == 2 {
                    ReqFlags::BARRIER
                } else {
                    ReqFlags::ORDERED
                };
                h.submit(w(id, epoch * 16 + i, flags));
                id += 1;
            }
        }
        h.submit(BlockRequest::flush(ReqId(9999)));
        h.run_steps(5 + seed_steps * 3);
        let img = h.layer.device_at(0).crash_image();
        let hist = h.layer.device_at(0).history().unwrap();
        let violations = EpochAudit::new(hist).violations(&img);
        assert!(
            violations.is_empty(),
            "steps {seed_steps}: violations {violations:?}"
        );
    }
}

#[test]
fn order_preserving_mode_advances_device_epochs() {
    let mut h = Harness::new(DeviceProfile::ufs());
    h.layer.devices_mut()[0].record_history(true);
    h.submit(w(1, 0, ReqFlags::BARRIER));
    h.submit(w(2, 10, ReqFlags::BARRIER));
    h.run();
    let hist = h.layer.device_at(0).history().unwrap();
    let epochs: Vec<u64> = hist.iter().map(|t| t.epoch).collect();
    assert_eq!(epochs, vec![0, 1]);
}

#[test]
fn flush_completes_after_drain() {
    let mut h = Harness::new(DeviceProfile::ufs());
    h.submit(w(1, 0, ReqFlags::NONE));
    h.submit(BlockRequest::flush(ReqId(2)));
    h.run();
    let t_w = h.done.iter().find(|(id, _)| *id == ReqId(1)).unwrap().1;
    let t_f = h.done.iter().find(|(id, _)| *id == ReqId(2)).unwrap().1;
    assert!(t_f > t_w, "flush must complete after the write it drains");
    assert_eq!(
        h.layer.device_at(0).crash_image().tag(Lba(0)),
        BlockTag(1001),
        "flushed data is durable"
    );
}

#[test]
fn non_blocking_barrier_dispatch_fills_the_queue() {
    // With order-preserving dispatch, barrier writes do not wait for each
    // other at the host: the device queue depth should exceed 1 even though
    // every write is a barrier (this is Fig 9 scenario B's mechanism).
    let mut h = Harness::new(DeviceProfile::plain_ssd());
    for i in 0..16u64 {
        h.submit(w(i, i * 5, ReqFlags::BARRIER));
    }
    let peak = h.layer.device_at(0).qd_window().peak(SimTime::from_secs(1));
    assert!(peak >= 8.0, "barrier writes queued without waiting: {peak}");
    h.run();
    assert_eq!(h.done.len(), 16);
}

// ---------------------------------------------------------------------
// §3.3 on one lane: the queue blocks at a barrier and unblocks when the
// epoch's last order-preserving request leaves it.
// ---------------------------------------------------------------------

/// A 1×1 layer whose device queue (UFS, QD 16) is already full of
/// far-away orderless writes, so the requests a test submits pool in the
/// scheduler — where epochs are formed — instead of dispatching at once.
fn congested() -> Harness {
    let mut h = Harness::new(DeviceProfile::ufs());
    h.layer.devices_mut()[0].record_history(true);
    fill_device_zero(&mut h);
    h
}

/// Sixteen orderless, unmergeable writes (ids 9000..) at even LBAs: they
/// fill device 0's queue on one device and on two with 1-block stripes.
fn fill_device_zero(h: &mut Harness) {
    for i in 0..16 {
        h.submit(w(9000 + i, 100_000 + i * 50, ReqFlags::NONE));
    }
    assert_eq!(h.layer.queued(), 0, "fillers sit in the device queue");
}

/// `(request id, device epoch)` of a [`congested`] test's own writes, in
/// transfer order.
fn transfers(h: &Harness) -> Vec<(u64, u64)> {
    let hist = h.layer.device_at(0).history().unwrap();
    hist.iter()
        .filter(|t| t.tag.0 < 10_000)
        .map(|t| (t.tag.0 - 1000, t.epoch))
        .collect()
}

#[test]
fn barrier_blocks_the_queue_until_its_epoch_drains() {
    let mut h = congested();
    h.submit(w(1, 0, ReqFlags::ORDERED));
    h.submit(w(2, 10, ReqFlags::BARRIER));
    h.submit(w(3, 20, ReqFlags::NONE));
    // w3 arrived behind the barrier: buffered at the gate, not on the
    // lane — and still counted as queued.
    assert_eq!(h.layer.stats().gated, 1);
    assert_eq!(h.layer.lane_stats()[0].queued, 2);
    assert_eq!(h.layer.queued(), 3);
    h.run();
    // The last ordered request to leave (w2) carried the barrier, so w3
    // transferred in the next device epoch.
    assert_eq!(transfers(&h), vec![(1, 0), (2, 0), (3, 1)]);
    assert_eq!(h.layer.stats().gated, 0);
    assert_eq!(h.layer.stats().epochs_sequenced, 1);
    assert_eq!(h.layer.lane_stats()[0].reassignments, 1);
}

#[test]
fn fig5_scenario_end_to_end() {
    // fsync() issues w1, w2 ordered and w4 barrier; pdflush issues
    // orderless w3, w5, w6 interleaved: w1 w2 w3 w5 w4(barrier) w6.
    // The elevator sweeps the epoch by LBA, so w2 — not w4 — is not the
    // last ordered leaver; w4 (LBA 40) is. w6 arrives after the barrier
    // and must wait for the next epoch even though its LBA sorts first.
    let mut h = congested();
    h.submit(w(1, 10, ReqFlags::ORDERED));
    h.submit(w(2, 30, ReqFlags::ORDERED));
    h.submit(w(3, 20, ReqFlags::NONE));
    h.submit(w(5, 50, ReqFlags::NONE));
    h.submit(w(4, 40, ReqFlags::BARRIER));
    h.submit(w(6, 5, ReqFlags::NONE));
    assert_eq!(h.layer.stats().gated, 1);
    h.run();
    assert_eq!(
        transfers(&h),
        vec![(1, 0), (3, 0), (2, 0), (4, 0), (5, 1), (6, 1)]
    );
}

#[test]
fn consecutive_barriers_make_consecutive_epochs() {
    let mut h = congested();
    h.submit(w(1, 0, ReqFlags::BARRIER));
    h.submit(w(2, 10, ReqFlags::BARRIER));
    h.submit(w(3, 20, ReqFlags::ORDERED));
    // Both wait at the gate; releasing epoch 1 admits w2, whose barrier
    // closes the gate again with w3 still behind it.
    assert_eq!(h.layer.stats().gated, 2);
    h.run();
    assert_eq!(transfers(&h), vec![(1, 0), (2, 1), (3, 2)]);
    assert_eq!(h.layer.stats().epochs_sequenced, 2);
    assert_eq!(
        h.layer.lane_stats()[0].reassignments,
        2,
        "no barrier owed for the trailing epoch"
    );
}

#[test]
fn merged_ordered_requests_share_one_barrier() {
    // Two adjacent ordered writes merge inside the scheduler; the merged
    // request is the last ordered leaver and carries the one barrier.
    let mut h = congested();
    h.submit(w(1, 10, ReqFlags::ORDERED));
    h.submit(w(2, 11, ReqFlags::BARRIER));
    h.submit(w(3, 30, ReqFlags::NONE));
    assert_eq!(h.layer.lane_stats()[0].queued, 1, "requests merged");
    h.run();
    assert_eq!(transfers(&h), vec![(1, 0), (2, 0), (3, 1)]);
    assert_eq!(h.layer.stats().dispatched, 16 + 2);
    assert_eq!(h.layer.lane_stats()[0].reassignments, 1);
    assert_eq!(h.done.len(), 16 + 3, "every bio completes");
}

// ---------------------------------------------------------------------
// Multi-queue / multi-device lane topologies.
// ---------------------------------------------------------------------

#[test]
fn multi_lane_requests_complete_through_the_stack() {
    let mut h = Harness::with_topology(DeviceProfile::ufs(), Topology::new(2, 2, 4));
    for i in 0..40u64 {
        h.submit(w(i, i * 6, ReqFlags::NONE));
    }
    h.submit(BlockRequest::flush(ReqId(1000)));
    h.run();
    assert_eq!(h.done.len(), 41);
    // Striping spreads the writes over both devices.
    assert!(h.layer.devices()[0].stats().blocks_written > 0);
    assert!(h.layer.devices()[1].stats().blocks_written > 0);
    let lanes = h.layer.lane_stats();
    assert_eq!(lanes.len(), 4);
    assert!(lanes.iter().all(|l| l.queued == 0));
}

#[test]
fn sequencer_counts_global_epochs() {
    // One epoch per barrier, whatever the lane count.
    for topology in [Topology::single(), Topology::new(2, 2, 1)] {
        let mut h = Harness::with_topology(DeviceProfile::ufs(), topology);
        let mut id = 0;
        for epoch in 0..5u64 {
            for i in 0..4u64 {
                let flags = if i == 3 {
                    ReqFlags::BARRIER
                } else {
                    ReqFlags::ORDERED
                };
                // With two devices the epoch spans both, so every epoch
                // exercises cross-lane order.
                h.submit(w(id, epoch * 32 + i * 2, flags));
                id += 1;
            }
        }
        h.run();
        assert_eq!(h.done.len(), 20, "{topology:?}");
        assert_eq!(h.layer.stats().epochs_sequenced, 5, "{topology:?}");
        assert!(
            h.layer.lane_stats().iter().all(|l| l.epochs_released == 5),
            "{topology:?}"
        );
    }
}

#[test]
fn multi_lane_barrier_epochs_survive_crash_on_every_device() {
    // Cross-lane sequencing must keep each device's local epoch stream
    // consistent: crash at an arbitrary point and audit every device
    // against its own transfer history.
    for seed_steps in 0..12usize {
        let mut h = Harness::with_topology(DeviceProfile::ufs(), Topology::new(2, 2, 1));
        for dev in h.layer.devices_mut() {
            dev.record_history(true);
        }
        let mut id = 0;
        for epoch in 0..5u64 {
            for i in 0..3u64 {
                let flags = if i == 2 {
                    ReqFlags::BARRIER
                } else {
                    ReqFlags::ORDERED
                };
                // 2-block writes at 1-block stripes: every write spans
                // both devices.
                let lba = epoch * 16 + i * 2;
                h.submit(BlockRequest::write(
                    ReqId(id),
                    Lba(lba),
                    vec![BlockTag(id + 1000), BlockTag(id + 2000)],
                    flags,
                ));
                id += 1;
            }
        }
        h.submit(BlockRequest::flush(ReqId(9999)));
        h.run_steps(5 + seed_steps * 4);
        for (di, dev) in h.layer.devices().iter().enumerate() {
            let img = dev.crash_image();
            let hist = dev.history().unwrap();
            let violations = EpochAudit::new(hist).violations(&img);
            assert!(
                violations.is_empty(),
                "steps {seed_steps} device {di}: violations {violations:?}"
            );
        }
    }
}

#[test]
fn striped_final_state_matches_single_device() {
    // The same workload lands the same tags, wherever the blocks live:
    // remap each device-local image through the topology and compare with
    // the 1×1 run.
    let run = |topology: Topology| {
        let mut h = Harness::with_topology(DeviceProfile::ufs(), topology);
        for i in 0..30u64 {
            let flags = if i % 5 == 4 {
                ReqFlags::BARRIER
            } else {
                ReqFlags::NONE
            };
            h.submit(BlockRequest::write(
                ReqId(i),
                Lba(i * 3),
                vec![BlockTag(i + 1), BlockTag(i + 100), BlockTag(i + 200)],
                flags,
            ));
        }
        // Writes longer than `stripe_blocks × nr_devices`: each device
        // receives several non-adjacent stripes of the payload.
        for i in 0..6u64 {
            let len = 17 + 5 * i;
            let flags = if i % 2 == 1 {
                ReqFlags::BARRIER
            } else {
                ReqFlags::NONE
            };
            h.submit(BlockRequest::write(
                ReqId(100 + i),
                Lba(201 + 50 * i),
                (0..len).map(|b| BlockTag(10_000 * (i + 1) + b)).collect(),
                flags,
            ));
        }
        h.submit(BlockRequest::flush(ReqId(5000)));
        h.run();
        assert_eq!(h.done.len(), 37);
        let mut global: Vec<(Lba, BlockTag)> = Vec::new();
        for (di, dev) in h.layer.devices().iter().enumerate() {
            for (local, tag) in dev.final_image().iter() {
                global.push((topology.global(di, local), tag));
            }
        }
        global.sort_by_key(|(lba, _)| lba.0);
        global
    };
    let single = run(Topology::single());
    assert_eq!(single, run(Topology::new(2, 3, 2)));
    assert_eq!(single, run(Topology::new(4, 2, 8)));
}

#[test]
fn split_part_merged_with_a_whole_bio_completes_both() {
    // 1-block stripes over two devices, device 0 congested: the device-0
    // part of split write A and the single-target write B are adjacent
    // on device 0 and merge into one command, which then answers for a
    // part id and a bio id at once.
    let mut h = Harness::with_topology(DeviceProfile::ufs(), Topology::new(1, 2, 1));
    fill_device_zero(&mut h);
    h.submit(BlockRequest::write(
        ReqId(1),
        Lba(0),
        vec![BlockTag(10), BlockTag(11)],
        ReqFlags::NONE,
    ));
    h.submit(BlockRequest::write(
        ReqId(2),
        Lba(2),
        vec![BlockTag(12)],
        ReqFlags::NONE,
    ));
    assert_eq!(h.layer.lane_stats()[0].queued, 1, "part and bio merged");
    h.run();
    let mut ids: Vec<u64> = h
        .done
        .iter()
        .map(|(id, _)| id.0)
        .filter(|&id| id < 9000)
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 2]);
    assert_eq!(h.layer.stats().completed, 18);
    assert_eq!(h.layer.devices()[0].final_image().tag(Lba(1)), BlockTag(12));
}

#[test]
fn zero_length_request_completes_on_multi_device() {
    // A zero-block read or an empty write moves nothing, but its submitter
    // still waits on it: on every topology it passes through whole to the
    // device its start address lives on and completes exactly once — an
    // empty FUA write too, which has no program of its own to wait for.
    for topology in [Topology::single(), Topology::new(2, 2, 1)] {
        for req in [
            BlockRequest::read(ReqId(1), Lba(3), 0),
            BlockRequest::write(ReqId(1), Lba(3), Vec::new(), ReqFlags::NONE),
            BlockRequest::write(ReqId(1), Lba(3), Vec::new(), ReqFlags::FLUSH_FUA),
        ] {
            let mut h = Harness::with_topology(DeviceProfile::ufs(), topology);
            h.submit(req.clone());
            h.run();
            let ids: Vec<ReqId> = h.done.iter().map(|(id, _)| *id).collect();
            assert_eq!(ids, vec![ReqId(1)], "{topology:?} {req:?}");
            let stats = h.layer.stats();
            // Several devices turn a preflush into a flush of every device.
            let flushes = stats.preflush_fanouts * topology.nr_devices as u64;
            assert_eq!(
                (stats.dispatched, stats.completed, stats.split_parts),
                (1 + flushes, 1, 0),
                "{topology:?} {req:?}"
            );
            assert_eq!(h.layer.queued(), 0);
            assert!(h.layer.devices().iter().all(|d| d.queue_depth() == 0));
        }
    }
}
