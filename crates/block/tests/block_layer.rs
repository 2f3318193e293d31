//! End-to-end block layer behaviour over the simulated device.

use bio_block::{
    ActionSink, BlockAction, BlockConfig, BlockEvent, BlockLayer, BlockRequest, DispatchMode,
    ReqFlags, ReqId, SchedulerKind, Topology,
};
use bio_flash::{audit_epoch_order, BlockTag, Device, DeviceProfile, Lba};
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
    fn new(profile: DeviceProfile, mode: DispatchMode) -> Harness {
        Harness::with_topology(profile, mode, Topology::single())
    }

    fn with_topology(profile: DeviceProfile, mode: DispatchMode, topology: Topology) -> Harness {
        let devices = (0..topology.nr_devices)
            .map(|i| Device::new(profile.clone(), 99 + i as u64))
            .collect();
        let cfg = BlockConfig::new(SchedulerKind::Elevator, mode).with_topology(topology);
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
    let mut h = Harness::new(DeviceProfile::ufs(), DispatchMode::OrderPreserving);
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
    let mut h = Harness::new(DeviceProfile::ufs(), DispatchMode::OrderPreserving);
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
    let mut h = Harness::new(DeviceProfile::ufs(), DispatchMode::OrderPreserving);
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
        let mut h = Harness::new(DeviceProfile::ufs(), DispatchMode::OrderPreserving);
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
        let violations = audit_epoch_order(hist, &img);
        assert!(
            violations.is_empty(),
            "steps {seed_steps}: violations {violations:?}"
        );
    }
}

#[test]
fn legacy_mode_strips_barrier_semantics() {
    // In legacy dispatch the barrier flag must not reach the device: the
    // device cache sees a single epoch.
    let mut h = Harness::new(DeviceProfile::ufs(), DispatchMode::Legacy);
    h.layer.devices_mut()[0].record_history(true);
    h.submit(w(1, 0, ReqFlags::BARRIER));
    h.submit(w(2, 10, ReqFlags::BARRIER));
    h.run();
    let hist = h.layer.device_at(0).history().unwrap();
    assert!(
        hist.iter().all(|t| t.epoch == 0),
        "legacy mode must not advance device epochs: {hist:?}"
    );
}

#[test]
fn order_preserving_mode_advances_device_epochs() {
    let mut h = Harness::new(DeviceProfile::ufs(), DispatchMode::OrderPreserving);
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
    let mut h = Harness::new(DeviceProfile::ufs(), DispatchMode::OrderPreserving);
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
    let mut h = Harness::new(DeviceProfile::plain_ssd(), DispatchMode::OrderPreserving);
    for i in 0..16u64 {
        h.submit(w(i, i * 5, ReqFlags::BARRIER));
    }
    let peak = h
        .layer
        .device_at(0)
        .qd_series()
        .max_in(SimTime::ZERO, SimTime::from_secs(1));
    assert!(peak >= 8.0, "barrier writes queued without waiting: {peak}");
    h.run();
    assert_eq!(h.done.len(), 16);
}

// ---------------------------------------------------------------------
// Multi-queue / multi-device lane topologies.
// ---------------------------------------------------------------------

#[test]
fn multi_lane_requests_complete_through_the_stack() {
    let mut h = Harness::with_topology(
        DeviceProfile::ufs(),
        DispatchMode::OrderPreserving,
        Topology::new(2, 2, 4),
    );
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
    let mut h = Harness::with_topology(
        DeviceProfile::ufs(),
        DispatchMode::OrderPreserving,
        Topology::new(2, 2, 1),
    );
    let mut id = 0;
    for epoch in 0..5u64 {
        for i in 0..4u64 {
            let flags = if i == 3 {
                ReqFlags::BARRIER
            } else {
                ReqFlags::ORDERED
            };
            // Span both devices so every epoch exercises cross-lane order.
            h.submit(w(id, epoch * 32 + i * 2, flags));
            id += 1;
        }
    }
    h.run();
    assert_eq!(h.done.len(), 20);
    assert_eq!(h.layer.stats().epochs_sequenced, 5);
}

#[test]
fn multi_lane_barrier_epochs_survive_crash_on_every_device() {
    // Cross-lane sequencing must keep each device's local epoch stream
    // consistent: crash at an arbitrary point and audit every device
    // against its own transfer history.
    for seed_steps in 0..12usize {
        let mut h = Harness::with_topology(
            DeviceProfile::ufs(),
            DispatchMode::OrderPreserving,
            Topology::new(2, 2, 1),
        );
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
            let violations = audit_epoch_order(hist, &img);
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
        let mut h = Harness::with_topology(
            DeviceProfile::ufs(),
            DispatchMode::OrderPreserving,
            topology,
        );
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
        h.submit(BlockRequest::flush(ReqId(5000)));
        h.run();
        assert_eq!(h.done.len(), 31);
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
    let striped = run(Topology::new(2, 3, 2));
    assert_eq!(single, striped);
}

#[test]
fn zero_length_request_completes_on_multi_device() {
    // A zero-block read or an empty write moves nothing, but its submitter
    // still waits on it: it must complete exactly once on the 1×1 path
    // and on a striped volume, where there is no part to wait for.
    for topology in [Topology::single(), Topology::new(1, 2, 1)] {
        for req in [
            BlockRequest::read(ReqId(1), Lba(3), 0),
            BlockRequest::write(ReqId(1), Lba(3), Vec::new(), ReqFlags::NONE),
        ] {
            let mut h =
                Harness::with_topology(DeviceProfile::ufs(), DispatchMode::Legacy, topology);
            h.submit(req.clone());
            h.run();
            let ids: Vec<ReqId> = h.done.iter().map(|(id, _)| *id).collect();
            assert_eq!(ids, vec![ReqId(1)], "{topology:?} {req:?}");
            let stats = h.layer.stats();
            assert_eq!((stats.completed, stats.split_parts), (1, 0), "{topology:?}");
            assert_eq!(h.layer.queued(), 0);
        }
    }
}
