//! Multi-queue, multi-device lane topology (the blk-mq model).
//!
//! The block layer is generalised from one scheduler feeding one device to
//! a grid of **lanes**: each device exposes `nr_hw_queues` hardware
//! submission queues, and every `(device, queue)` pair is an independent
//! lane with its own epoch scheduler, dispatch state and in-flight table.
//! Logical block addresses are striped RAID-0 style across the devices in
//! units of `stripe_blocks`.
//!
//! The default topology is a single queue on a single device — exactly the
//! stack the paper evaluates. It is the one-lane case of the same code:
//! striping over one device is the identity map, so every request has a
//! single target and runs the one dispatch path whole.

use bio_flash::Lba;

/// Shape of the block layer: hardware queues per device, device count and
/// the RAID-0 stripe unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Hardware submission queues per device (blk-mq's `nr_hw_queues`).
    pub nr_hw_queues: usize,
    /// Devices the LBA space is striped over.
    pub nr_devices: usize,
    /// Stripe unit in 4 KiB blocks: consecutive runs of this many blocks
    /// rotate round-robin across the devices.
    pub stripe_blocks: u64,
}

impl Default for Topology {
    fn default() -> Topology {
        Topology::single()
    }
}

impl Topology {
    /// The classical 1 queue × 1 device stack.
    pub fn single() -> Topology {
        Topology {
            nr_hw_queues: 1,
            nr_devices: 1,
            stripe_blocks: 8,
        }
    }

    /// Builds an `nr_hw_queues` × `nr_devices` topology.
    ///
    /// # Panics
    ///
    /// Panics when any dimension is zero.
    pub fn new(nr_hw_queues: usize, nr_devices: usize, stripe_blocks: u64) -> Topology {
        let t = Topology {
            nr_hw_queues,
            nr_devices,
            stripe_blocks,
        };
        t.validate();
        t
    }

    /// Asserts the topology is well-formed.
    pub fn validate(&self) {
        assert!(self.nr_hw_queues >= 1, "need at least one hardware queue");
        assert!(self.nr_devices >= 1, "need at least one device");
        assert!(self.stripe_blocks >= 1, "stripe unit must be >= 1 block");
    }

    /// Total lane count (`nr_devices * nr_hw_queues`).
    pub fn nr_lanes(&self) -> usize {
        self.nr_devices * self.nr_hw_queues
    }

    /// Lane index of `(device, hw_queue)`.
    pub fn lane(&self, device: usize, hw_queue: usize) -> usize {
        debug_assert!(device < self.nr_devices && hw_queue < self.nr_hw_queues);
        device * self.nr_hw_queues + hw_queue
    }

    /// Device served by `lane`.
    pub fn lane_device(&self, lane: usize) -> usize {
        lane / self.nr_hw_queues
    }

    /// Maps a global LBA to `(device index, device-local LBA)`.
    ///
    /// Global stripe `s` lives on device `s % nr_devices` at local stripe
    /// `s / nr_devices`; the offset within the stripe is preserved.
    pub fn locate(&self, lba: Lba) -> (usize, Lba) {
        let stripe = lba.0 / self.stripe_blocks;
        let off = lba.0 % self.stripe_blocks;
        let device = (stripe % self.nr_devices as u64) as usize;
        let local = (stripe / self.nr_devices as u64) * self.stripe_blocks + off;
        (device, Lba(local))
    }

    /// Inverse of [`Topology::locate`]: maps a device-local LBA back to
    /// the global address.
    pub fn global(&self, device: usize, local: Lba) -> Lba {
        let local_stripe = local.0 / self.stripe_blocks;
        let off = local.0 % self.stripe_blocks;
        Lba((local_stripe * self.nr_devices as u64 + device as u64) * self.stripe_blocks + off)
    }

    /// Splits the global block range `[start, start + count)` into
    /// per-device contiguous runs, in ascending global order.
    ///
    /// Each element is `(device, local start, offset into the global
    /// range of the run's first block, length)`. A contiguous global range
    /// lands on each device as one contiguous local run, so the result
    /// holds at most `nr_devices` entries; with a single device it is the
    /// identity split. A run longer than one stripe is *not* contiguous in
    /// the global range — [`Topology::gather_run`] collects its blocks.
    pub fn split_range(&self, start: Lba, count: u64) -> Vec<(usize, Lba, u64, u64)> {
        let mut parts: Vec<(usize, Lba, u64, u64)> = Vec::new();
        let mut at = start.0;
        let end = start.0 + count;
        while at < end {
            let chunk = (self.stripe_blocks - at % self.stripe_blocks).min(end - at);
            let (device, local) = self.locate(Lba(at));
            match parts.iter_mut().find(|p| p.0 == device) {
                Some(p) => {
                    debug_assert_eq!(p.1 .0 + p.3, local.0, "per-device runs are contiguous");
                    p.3 += chunk;
                }
                None => parts.push((device, local, at - start.0, chunk)),
            }
            at += chunk;
        }
        parts
    }

    /// `Some((device, local start))` when the global range
    /// `[start, start + count)` lands on one device as one local run: the
    /// volume has a single device, or the range stays inside one stripe
    /// (an empty range lands where `start` does). Such a request needs no
    /// splitting.
    pub fn single_target(&self, start: Lba, count: u64) -> Option<(usize, Lba)> {
        let in_one_stripe = count <= self.stripe_blocks - start.0 % self.stripe_blocks;
        (self.nr_devices == 1 || in_one_stripe).then(|| self.locate(start))
    }

    /// Collects one device's share of a per-block payload: `src` holds one
    /// element per block of the global range starting at `start`, and
    /// `(off, len)` is a run reported by [`Topology::split_range`]. The
    /// run's stripe chunks sit `nr_devices` stripes apart in the global
    /// range, so they are gathered chunk by chunk.
    // `(off, len)` is a run `split_range` reported for the range `src`
    // holds one element per block of, so every chunk lies inside it.
    #[allow(clippy::indexing_slicing, reason = "extent math on a split_range run")]
    pub fn gather_run<T: Clone>(&self, start: Lba, off: u64, len: u64, src: &[T]) -> Vec<T> {
        let mut run = Vec::with_capacity(len as usize);
        let mut at = off;
        while (run.len() as u64) < len {
            let chunk = (self.stripe_blocks - (start.0 + at) % self.stripe_blocks)
                .min(len - run.len() as u64);
            run.extend_from_slice(&src[at as usize..(at + chunk) as usize]);
            at += chunk + self.stripe_blocks * (self.nr_devices as u64 - 1);
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_is_identity() {
        let t = Topology::single();
        assert_eq!(t.locate(Lba(12345)), (0, Lba(12345)));
        assert_eq!(t.global(0, Lba(12345)), Lba(12345));
        assert_eq!(t.split_range(Lba(100), 20), vec![(0, Lba(100), 0, 20)]);
        assert_eq!(t.single_target(Lba(100), 20), Some((0, Lba(100))));
    }

    #[test]
    fn single_target_is_one_stripe_or_one_device() {
        let t = Topology::new(1, 2, 4);
        assert_eq!(t.single_target(Lba(5), 3), Some((1, Lba(1))));
        assert_eq!(t.single_target(Lba(5), 0), Some((1, Lba(1))));
        assert_eq!(t.single_target(Lba(5), 4), None, "crosses into stripe 2");
    }

    #[test]
    fn gather_run_follows_the_stripes() {
        // 2 devices, 4-block stripes, global range [2, 20): device 0 owns
        // global blocks 2,3 | 8..12 | 16..20, device 1 owns 4..8 | 12..16.
        let t = Topology::new(1, 2, 4);
        let src: Vec<u64> = (2..20).collect();
        let runs = t.split_range(Lba(2), 18);
        assert_eq!(runs, vec![(0, Lba(2), 0, 10), (1, Lba(0), 2, 8)]);
        let got: Vec<Vec<u64>> = runs
            .iter()
            .map(|&(_, _, off, len)| t.gather_run(Lba(2), off, len, &src))
            .collect();
        assert_eq!(got[0], vec![2, 3, 8, 9, 10, 11, 16, 17, 18, 19]);
        assert_eq!(got[1], vec![4, 5, 6, 7, 12, 13, 14, 15]);
    }

    #[test]
    fn locate_round_trips() {
        let t = Topology::new(2, 4, 8);
        for g in 0..512u64 {
            let (d, l) = t.locate(Lba(g));
            assert!(d < 4);
            assert_eq!(t.global(d, l), Lba(g));
        }
    }

    #[test]
    fn striping_rotates_devices() {
        let t = Topology::new(1, 2, 4);
        assert_eq!(t.locate(Lba(0)), (0, Lba(0)));
        assert_eq!(t.locate(Lba(4)), (1, Lba(0)));
        assert_eq!(t.locate(Lba(8)), (0, Lba(4)));
        assert_eq!(t.locate(Lba(11)), (0, Lba(7)));
    }

    #[test]
    fn split_range_covers_and_partitions() {
        let t = Topology::new(1, 3, 4);
        let parts = t.split_range(Lba(2), 26);
        let total: u64 = parts.iter().map(|p| p.3).sum();
        assert_eq!(total, 26);
        // Every global block appears in exactly one part.
        for g in 2..28u64 {
            let hits = parts
                .iter()
                .filter(|(d, l, _, n)| {
                    let (gd, gl) = t.locate(Lba(g));
                    gd == *d && gl.0 >= l.0 && gl.0 < l.0 + n
                })
                .count();
            assert_eq!(hits, 1, "block {g}");
        }
    }

    #[test]
    fn lane_indexing() {
        let t = Topology::new(4, 2, 8);
        assert_eq!(t.nr_lanes(), 8);
        assert_eq!(t.lane(1, 3), 7);
        assert_eq!(t.lane_device(7), 1);
        assert_eq!(t.lane_device(3), 0);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_rejected() {
        Topology::new(1, 0, 8);
    }
}
