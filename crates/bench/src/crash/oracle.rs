//! The test oracle: what only tests call. Nothing outside this module and
//! `#[cfg(test)]` code names any of it.
//!
//! [`CaptureMode::Scratch`] is the reference the delta engine is held to:
//! `tests/capture_equivalence.rs` requires both modes to produce
//! bit-identical [`CrashPoint`]s — check indexes included, which makes
//! "advanced by deltas" equal "built from nothing". The rest of this
//! module serves `tests/check_equivalence.rs`, which holds the indexed
//! verdicts to the full checkers image by image:
//! [`enumerate_point_with`] shows it every image and verdict,
//! [`enumerate_point_unindexed`] is the full checkers alone,
//! [`CrashPoint::forged`] makes violating input and [`capture_points_of`]
//! traces long enough to wrap a small journal.

use std::sync::Arc;

use barrier_io::{FsViolation, StackConfig, StripedImage, Topology};
use bio_flash::{BlockTag, CrashState, EpochViolation, ImageView, Overlay, TransferRec};
use bio_workloads::SyncMode;

use super::capture::{drive, point_image, CaptureMode, CrashPoint};
use super::enumerate::{Enumerator, PointOutcome};

/// A defect written into a captured point by hand: the violating input
/// the checker differential test feeds both tiers of the judge. Indices
/// wrap around what the point holds; with nothing to forge the point
/// comes back as it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Forgery {
    /// Drops one record from a device's unfolded tail.
    DropTail {
        /// Device index.
        device: usize,
        /// Tail record.
        index: usize,
    },
    /// Flips `done` on one tail record.
    FlipDone {
        /// Device index.
        device: usize,
        /// Tail record.
        index: usize,
    },
    /// Folds one transfer of the device's history into the base again,
    /// out of order — the base goes back to an old version of that block.
    Refold {
        /// Device index.
        device: usize,
        /// Transfer in the device's history.
        transfer: usize,
    },
    /// Alters one record's commit-block tag.
    AlterJcTag {
        /// Record position.
        record: usize,
    },
    /// Sets `durability_claimed` on one record.
    ClaimDurable {
        /// Record position.
        record: usize,
    },
}

impl CrashPoint<'_> {
    /// Each device's state at the point, in device order.
    pub fn devices(&self) -> &[CrashState] {
        &self.devices
    }

    /// The transfer history of each device (`None` where recording is
    /// off) — what [`bio_flash::EpochAudit`] judges a device image
    /// against.
    pub fn histories(&self) -> impl Iterator<Item = Option<&[TransferRec]>> + '_ {
        self.devices
            .iter()
            .map(|d| d.history.as_deref().map(Vec::as_slice))
    }

    /// This point with `forgery` written into it and both check indexes
    /// rebuilt from nothing, as if captured from a stack in that state.
    pub fn forged(&self, forgery: Forgery) -> CrashPoint<'static> {
        let mut p = self.owned();
        let nr_devices = p.devices.len();
        let nr_records = p.records.len().max(1);
        let devices = p.devices.to_mut();
        match forgery {
            Forgery::DropTail { device, index } => {
                let tail = &mut devices[device % nr_devices].tail;
                if !tail.is_empty() {
                    tail.remove(index % tail.len());
                }
            }
            Forgery::FlipDone { device, index } => {
                let tail = &mut devices[device % nr_devices].tail;
                let index = index % tail.len().max(1);
                if let Some(r) = tail.get_mut(index) {
                    r.done = !r.done;
                }
            }
            Forgery::Refold { device, transfer } => {
                let d = &mut devices[device % nr_devices];
                let history = d.history.as_deref().map_or(&[][..], Vec::as_slice);
                if let Some(t) = history.get(transfer % history.len().max(1)) {
                    Arc::make_mut(&mut d.base).insert(t.lba, t.tag);
                }
            }
            Forgery::AlterJcTag { record } => {
                if let Some(r) = p.records.to_mut().get_mut(record % nr_records) {
                    r.jc_tag = BlockTag(r.jc_tag.0 ^ (1 << 40));
                }
            }
            Forgery::ClaimDurable { record } => {
                if let Some(r) = p.records.to_mut().get_mut(record % nr_records) {
                    r.durability_claimed = true;
                }
            }
        }
        p.reindex();
        p
    }
}

/// [`enumerate_point`] with every image put to the full checkers and none
/// to the check indexes: the oracle the differential test holds the
/// indexed path to.
///
/// [`enumerate_point`]: super::enumerate_point
pub fn enumerate_point_unindexed(p: &CrashPoint<'_>, sample_seed: u64) -> PointOutcome {
    Enumerator::default().point(p, sample_seed, false, |_, _, _, _| {})
}

/// One distinct image of a capture point with the verdict
/// [`enumerate_point`] reached on it — what the checker differential test
/// judges again with checkers of its own.
///
/// [`enumerate_point`]: super::enumerate_point
pub struct ImageCase<'a> {
    /// Per-device reordering choice.
    pub choices: &'a [u64],
    /// Filesystem violations, as enumerated.
    pub fs_violations: &'a [FsViolation],
    /// Epoch violations of all devices in device order, as enumerated.
    pub epoch_violations: &'a [EpochViolation],
    topology: Topology,
    devices: &'a [CrashState],
    views: &'a [Overlay],
}

impl ImageCase<'_> {
    /// The cross-device image (what [`barrier_io::ConsistencyCheck`] reads).
    pub fn image(&self) -> impl ImageView + '_ {
        point_image(self.topology, self.devices, self.views)
    }

    /// One device's own image (what its [`bio_flash::EpochAudit`] reads).
    pub fn device_image(&self, device: usize) -> impl ImageView + '_ {
        self.views[device].on(&self.devices[device])
    }

    /// [`ImageCase::image`] built from standalone maps, one per device,
    /// sharing nothing with the point and read the way
    /// [`IoStack::crash`](barrier_io::IoStack::crash) reads its images.
    pub fn materialized(&self) -> impl ImageView {
        let images = self.views.iter().zip(self.devices);
        let images: Vec<_> = images.map(|(v, d)| v.materialize(d)).collect();
        StripedImage::new(self.topology, move |d, lba| {
            images
                .get(d)
                .map_or(BlockTag::UNWRITTEN, |image| image.tag(lba))
        })
    }
}

/// [`enumerate_point`], handing every distinct image it checks to
/// `on_image` together with the verdict it reached.
///
/// [`enumerate_point`]: super::enumerate_point
pub fn enumerate_point_with(
    p: &CrashPoint<'_>,
    sample_seed: u64,
    mut on_image: impl FnMut(&ImageCase<'_>),
) -> PointOutcome {
    Enumerator::default().point(
        p,
        sample_seed,
        true,
        |choices, fs_violations, epoch_violations, views| {
            on_image(&ImageCase {
                choices,
                fs_violations,
                epoch_violations,
                topology: p.topology,
                devices: &p.devices,
                views,
            })
        },
    )
}

/// [`capture_points`] of a trace of `ops` write+sync pairs — traces long
/// enough to wrap a small journal, or to meet a known tear.
///
/// [`capture_points`]: super::capture_points
pub fn capture_points_of(
    cfg: StackConfig,
    sync: SyncMode,
    seed: u64,
    mode: CaptureMode,
    ops: u64,
) -> Vec<CrashPoint<'static>> {
    let mut points = Vec::new();
    drive(cfg, sync, seed, ops, mode, |p| points.push(p.owned()));
    points
}
