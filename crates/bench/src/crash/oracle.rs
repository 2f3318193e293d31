//! The test oracle, compiled into test builds only: the references the
//! crash explorer's production path is held to, and the unit tests that
//! hold it.
//!
//! [`CaptureMode::Scratch`] is the reference the delta engine is held to:
//! `capture`'s `delta_capture_is_bit_identical_to_scratch_capture` and
//! `delta_advanced_indexes_equal_rebuilt_ones` below require both modes to
//! produce bit-identical [`CrashPoint`]s — check indexes included, which
//! makes "advanced by deltas" equal "built from nothing". The rest of this
//! module serves the tests below, which hold the indexed verdicts to the
//! full checkers image by image: [`enumerate_point_with`] shows them every
//! image and verdict, [`enumerate_point_unindexed`] is the full checkers
//! alone, [`CrashPoint::forged`] makes violating input and
//! [`capture_points_of`] traces long enough to wrap a small journal.

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
    let mut e = Enumerator::default();
    e.unindexed = true;
    e.point(p, sample_seed)
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

/// [`enumerate_point`], then every distinct image it checked, in order,
/// handed to `on_image` together with the verdict it reached.
///
/// [`enumerate_point`]: super::enumerate_point
pub fn enumerate_point_with(
    p: &CrashPoint<'_>,
    sample_seed: u64,
    mut on_image: impl FnMut(&ImageCase<'_>),
) -> PointOutcome {
    let mut e = Enumerator::default();
    e.kept = Some(Vec::new());
    let outcome = e.point(p, sample_seed);
    for checked in e.kept.into_iter().flatten() {
        let (fs_violations, epoch_violations) = &checked.verdict;
        on_image(&ImageCase {
            choices: &checked.choices,
            fs_violations,
            epoch_violations,
            topology: p.topology,
            devices: &p.devices,
            views: &checked.overlays,
        });
    }
    outcome
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

#[cfg(test)]
mod tests {
    //! Differential test: the incremental crash checkers are the full
    //! checkers.
    //!
    //! `enumerate_point` judges every image in two tiers — the check indexes
    //! carried on the capture cursor certify an image clean from what its
    //! overlay touches, and whatever they cannot certify goes to
    //! `ConsistencyCheck` / `EpochAudit`. This suite holds that to checkers
    //! it builds itself from the point's records and histories: for every
    //! distinct image of a point the two violation lists must be equal, and
    //! the point's `PointOutcome` must equal the one the full checkers alone
    //! produce (`enumerate_point_unindexed`).
    //!
    //! A checker that always said "clean" would pass on clean traces, so the
    //! suite feeds violating input: the real BFS-OD 2q×2dev tear past 200
    //! writes, barrier stacks on devices that ignore barriers, journals small
    //! enough to be reused mid-trace (so `checkable` flips), and forged points
    //! — each across the Prefix, Subset, Groups and PLP choice spaces — and
    //! asserts that violations were in fact seen.
    //!
    //! It is no verbatim reference and does not retire: the full checkers
    //! are live code, and this suite is the oracle the check indexes answer
    //! to (`docs/INVARIANTS.md`, "Retired against live oracles").

    use barrier_io::{BarrierMode, ConsistencyCheck, DeviceProfile};
    use bio_flash::EpochAudit;
    use proptest::prelude::*;

    use super::*;
    use crate::crash::differential_cells;

    /// The device under a cell: which choice space its crash images span.
    fn device(space: u8) -> DeviceProfile {
        let ufs = DeviceProfile::ufs;
        match space {
            0 => ufs(),                                               // Prefix
            1 => ufs().with_barrier_mode(BarrierMode::Unsupported),   // Subset
            2 => ufs().with_barrier_mode(BarrierMode::Transactional), // Groups
            // PLP: one image, the cache included. A small cache, so that it
            // destages within a short trace and the image is not all cache.
            _ => DeviceProfile {
                plp: true,
                cache_blocks: 32,
                ..ufs()
            },
        }
    }

    /// The labels of `crash::run`'s differential rows, in table order.
    fn stacks() -> Vec<&'static str> {
        differential_cells().iter().map(|c| c.label).collect()
    }

    /// The differential row `label` moved onto `dev`, with the journal shrunk
    /// to `journal` blocks when given.
    fn cell(label: &str, dev: DeviceProfile, journal: Option<u64>) -> (StackConfig, SyncMode) {
        let row = differential_cells().into_iter().find(|c| c.label == label);
        let row = row.unwrap_or_else(|| panic!("no differential row `{label}`"));
        let mut cfg = row.cfg;
        cfg.device = dev;
        if let Some(blocks) = journal {
            cfg.fs = cfg.fs.with_journal_blocks(blocks);
        }
        (cfg, row.sync)
    }

    /// Images judged so far, and how many of them violated each rule.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    struct Seen {
        images: u64,
        fs: u64,
        epoch: u64,
    }

    /// Holds one point's indexed verdicts to checkers built here from the
    /// point's records and histories alone.
    fn check_point(p: &CrashPoint, sample_seed: u64, seen: &mut Seen) -> Result<(), String> {
        let checker = ConsistencyCheck::new(&p.records);
        let audits: Vec<Option<EpochAudit<'_>>> =
            p.histories().map(|h| h.map(EpochAudit::new)).collect();
        let mut mismatch = None;
        let indexed = enumerate_point_with(p, sample_seed, |case| {
            let fs = checker.violations(&case.image());
            let mut epoch: Vec<EpochViolation> = Vec::new();
            for (di, audit) in audits.iter().enumerate() {
                if let Some(a) = audit {
                    epoch.extend(a.violations(&case.device_image(di)));
                }
            }
            // Every 16th image also goes to a freshly built checker as a
            // standalone map, which shares nothing with the enumerator.
            let standalone = seen.images % 16 != 0
                || ConsistencyCheck::new(&p.records).violations(&case.materialized()) == fs;
            if !standalone || fs != case.fs_violations || epoch != case.epoch_violations {
                mismatch.get_or_insert_with(|| {
                    format!(
                        "commit {} choices {:?}: indexed ({:?}, {:?}) != full ({fs:?}, {epoch:?}), \
                         standalone agrees: {standalone}",
                        p.commit_idx, case.choices, case.fs_violations, case.epoch_violations
                    )
                });
            }
            seen.images += 1;
            seen.fs += u64::from(!fs.is_empty());
            seen.epoch += u64::from(!epoch.is_empty());
        });
        if let Some(m) = mismatch {
            return Err(m);
        }
        let full = enumerate_point_unindexed(p, sample_seed);
        if indexed != full {
            return Err(format!(
                "commit {}: outcome {indexed:?} != unindexed {full:?}",
                p.commit_idx
            ));
        }
        Ok(())
    }

    /// The forgery of `kind` at the given indices.
    fn forgery(kind: u8, a: usize, b: usize) -> Forgery {
        match kind % 5 {
            0 => Forgery::DropTail {
                device: a,
                index: b,
            },
            1 => Forgery::FlipDone {
                device: a,
                index: b,
            },
            2 => Forgery::Refold {
                device: a,
                transfer: b,
            },
            3 => Forgery::AlterJcTag { record: b },
            _ => Forgery::ClaimDurable { record: b },
        }
    }

    /// Captures one trace and checks every point of it, then `forgeries` of
    /// every `stride`-th point.
    fn check_trace(
        (cfg, sync): (StackConfig, SyncMode),
        seed: u64,
        ops: u64,
        stride: usize,
        seen: &mut Seen,
    ) -> Result<(), String> {
        let points = capture_points_of(cfg, sync, seed, CaptureMode::Delta, ops);
        if points.is_empty() {
            return Err("trace produced no capture points".into());
        }
        for (i, p) in points.iter().enumerate() {
            check_point(p, seed, seen)?;
            if i % stride != 0 {
                continue;
            }
            for kind in 0..5 {
                // Aim at the newest records and transfers (the ones still in
                // flight) and, every other time, anywhere.
                let b = if (i / stride + kind as usize) % 2 == 0 {
                    usize::MAX - i % 3
                } else {
                    seed as usize + i
                };
                let f = forgery(kind, i, b);
                check_point(&p.forged(f), seed, seen).map_err(|e| format!("{f:?}: {e}"))?;
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn indexed_verdicts_equal_the_full_checkers(
            seed in 0u64..10_000,
            stack in 0usize..6,
            space in 0u8..4,
            journal in 0u64..4,
            stride in 5usize..40,
        ) {
            // Half the cells keep the default journal; the rest reuse theirs
            // every 16–64 blocks.
            let journal = (journal >= 2).then_some(16 + (seed % 4) * 16);
            let mut seen = Seen::default();
            // A barrier stack on a device that ignores barriers violates in
            // nearly every image, and those all take the full checkers: a
            // shorter trace there.
            let ops = if space == 1 { 40 } else { 100 };
            let stacks = stacks();
            let stack = stacks[stack % stacks.len()];
            let r = check_trace(cell(stack, device(space), journal), seed, ops, stride, &mut seen);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
            prop_assert!(seen.images > 0);
        }
    }

    #[test]
    fn the_multi_device_tear_reads_the_same_through_the_index() {
        // BFS-OD on 2q×2dev tears transactions past ~86 writes (see
        // docs/INVARIANTS.md, "Known gaps"): real violating images.
        for seed in [42, 7, 1234] {
            let mut seen = Seen::default();
            check_trace(
                cell("BFS-OD/2x2", device(0), None),
                seed,
                200,
                16,
                &mut seen,
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(seen.fs > 0, "seed {seed}: the tear was not met ({seen:?})");
        }
    }

    #[test]
    fn delta_advanced_indexes_equal_rebuilt_ones() {
        // The delta-advanced indexes ride in `CrashPoint`'s equality, so
        // delta == scratch holds them to indexes built from nothing at every
        // point — here where the capture-equivalence cells do not go. 300
        // commits through 16–64 journal blocks: every journal block is reused
        // many times over, so records keep leaving the checkable set. And a
        // PLP device, which acknowledges an fsync from its cache: durability
        // flips on records the base does not hold yet.
        let cells = [16, 32, 64]
            .map(|journal| (device(0), Some(journal)))
            .into_iter()
            .chain([(device(3), None)]);
        for (dev, journal) in cells {
            for stack in stacks() {
                let (cfg, sync) = cell(stack, dev.clone(), journal);
                let delta = capture_points_of(cfg.clone(), sync, 9, CaptureMode::Delta, 300);
                let scratch = capture_points_of(cfg, sync, 9, CaptureMode::Scratch, 300);
                assert!(delta.len() >= 250, "{stack}: {} points", delta.len());
                assert!(
                    delta == scratch,
                    "{} {stack} journal {journal:?}: delta != scratch",
                    dev.name
                );
            }
        }
    }

    #[test]
    fn every_choice_space_meets_both_kinds_of_violation() {
        // Barrier stacks on a device that ignores barriers violate for real;
        // forgeries do the rest. Each space must have shown the checkers both
        // a filesystem and an epoch violation, or the suite proved nothing.
        for space in 0..4 {
            let mut seen = Seen::default();
            for stack in stacks() {
                for (seed, journal) in [(1, None), (2, Some(32))] {
                    check_trace(cell(stack, device(space), journal), seed, 120, 7, &mut seen)
                        .unwrap_or_else(|e| panic!("space {space} {stack} seed {seed}: {e}"));
                }
            }
            assert!(
                seen.fs > 0 && seen.epoch > 0,
                "space {space}: no violating input ({seen:?})"
            );
        }
    }
}
