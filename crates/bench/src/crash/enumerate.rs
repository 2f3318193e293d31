//! Enumerate: every admissible image of a capture point, deduplicated and
//! judged — by the point's check indexes where they can certify an image
//! clean, by the full checkers otherwise ([`Judge`]) — and the trace-level
//! loop that does so at every commit with one [`Enumerator`].

use barrier_io::{ConsistencyCheck, ConsistencyProbe, FsViolation, StackConfig};
use bio_flash::{ChoiceSpace, EpochAudit, EpochProbe, EpochViolation, ImageView, Overlay};
use bio_sim::SimRng;
use bio_workloads::SyncMode;

use super::capture::{drive, point_image, CaptureMode, CrashPoint, TRACE_OPS};
use super::choice::{clamps, exhaustive_choices, sample_choice, SeenImages};

/// Hard cap on exhaustively enumerated images per capture point
/// (cross-device product).
const MAX_IMAGES_PER_POINT: u64 = 256;

/// Reorderings drawn per cardinality stratum when a clamped point is
/// covered by stratified sampling.
const SAMPLES_PER_STRATUM: u64 = 4;

/// A violating reordering, minimized: per-device choice ids after greedy
/// reduction toward the deterministic baseline (choice 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationCase {
    /// Per-device reordering choice (bitmask or hole index).
    pub choices: Vec<u64>,
    /// Filesystem-level violations at this choice.
    pub fs_violations: usize,
    /// Device epoch-order violations at this choice.
    pub epoch_violations: usize,
    /// First violation, rendered.
    pub detail: String,
}

/// Both rules' verdict on one image: the filesystem violations, then the
/// epoch violations of every device in device order.
type Verdict = (Vec<FsViolation>, Vec<EpochViolation>);

/// Judges the images of one capture point, in two tiers. The point's
/// check indexes know every record's and block's verdict under the base,
/// so an image is first put to the probes — which look only at what its
/// overlay touches, and can certify it clean — and, whenever a probe
/// cannot, to the full [`ConsistencyCheck`] / [`EpochAudit`], built on
/// first use. Every reported violation therefore comes from the full
/// checkers. The probes are the enumerator's, aimed at this point.
struct Judge<'p, 'e> {
    p: &'p CrashPoint<'p>,
    spaces: &'e [ChoiceSpace],
    /// On: no probe is asked, every image takes the full checkers.
    #[cfg(test)]
    unindexed: bool,
    fs_probe: &'e ConsistencyProbe,
    epoch_probes: &'e [EpochProbe],
    checker: Option<ConsistencyCheck<'p>>,
    /// Per device once one is needed, its auditor once built.
    audits: Vec<Option<EpochAudit<'p>>>,
}

impl<'p, 'e> Judge<'p, 'e> {
    fn new(
        p: &'p CrashPoint<'p>,
        spaces: &'e [ChoiceSpace],
        fs_probe: &'e ConsistencyProbe,
        epoch_probes: &'e [EpochProbe],
    ) -> Judge<'p, 'e> {
        Judge {
            p,
            spaces,
            #[cfg(test)]
            unindexed: false,
            fs_probe,
            epoch_probes,
            checker: None,
            audits: Vec::new(),
        }
    }

    /// Whether the probes may certify an image: always, except in the
    /// test oracle's reference runs.
    fn indexed(&self) -> bool {
        #[cfg(test)]
        return !self.unindexed;
        #[cfg(not(test))]
        true
    }

    /// Fresh overlays resolved to one choice combination.
    fn views(&self, choices: &[u64]) -> Vec<Overlay> {
        let devices = self.p.devices.iter().zip(self.spaces);
        devices
            .zip(choices)
            .map(|((d, s), &c)| {
                let mut o = Overlay::default();
                o.rebuild(d);
                o.resolve(d, s, c);
                o
            })
            .collect()
    }

    /// Both verdicts on the image `overlays` resolve to.
    fn verdict(&mut self, overlays: &[Overlay]) -> Verdict {
        let p = self.p;
        self.verdict_on(&point_image(p.topology, &p.devices, overlays), overlays)
    }

    /// [`Judge::verdict`] with the cross-device image passed in, so a test
    /// can interpose on its reads.
    fn verdict_on<V: ImageView>(&mut self, global: &V, overlays: &[Overlay]) -> Verdict {
        let p = self.p;
        let fsv = if self.indexed() && self.fs_probe.certifies(&p.records, global) {
            Vec::new()
        } else {
            let checker = self
                .checker
                .get_or_insert_with(|| ConsistencyCheck::new(&p.records));
            checker.violations(global)
        };
        let mut epv = Vec::new();
        for (di, (d, o)) in p.devices.iter().zip(overlays).enumerate() {
            let Some(history) = d.history.as_deref() else {
                continue;
            };
            let probe = &self.epoch_probes[di];
            let entries = o.entries().iter().copied();
            let certify = |index| probe.certifies(index, entries);
            if self.indexed() && d.audit.as_deref().is_some_and(certify) {
                continue;
            }
            self.audits.resize_with(p.devices.len(), || None);
            let audit = self.audits[di].get_or_insert_with(|| EpochAudit::new(history));
            epv.extend(audit.violations(&o.on(d)));
        }
        (fsv, epv)
    }

    /// Runs both checkers over one choice combination: returns
    /// `(fs violations, epoch violations, first violation rendered)`.
    fn check_choice(&mut self, choices: &[u64]) -> (usize, usize, String) {
        let (fsv, epv) = self.verdict(&self.views(choices));
        let detail = match (epv.first(), fsv.first()) {
            (Some(first), _) => format!("{first:?}"),
            (None, Some(first)) => format!("{first:?}"),
            (None, None) => String::new(),
        };
        (fsv.len(), epv.len(), detail)
    }

    /// Greedily shrinks a violating choice combination: clears
    /// subset/group bits and lowers prefix cuts while the combination
    /// still violates.
    fn minimize(&mut self, mut choices: Vec<u64>) -> Vec<u64> {
        let violates = |judge: &mut Self, c: &[u64]| {
            let (f, e, _) = judge.check_choice(c);
            f + e > 0
        };
        for _ in 0..4 {
            let mut changed = false;
            for (di, space) in self.spaces.iter().enumerate() {
                if space.is_mask() {
                    for bit in 0..space.width() {
                        if choices[di] & (1u64 << bit) != 0 {
                            let mut t = choices.clone();
                            t[di] &= !(1u64 << bit);
                            if violates(self, &t) {
                                choices = t;
                                changed = true;
                            }
                        }
                    }
                } else {
                    for c in 0..choices[di] {
                        let mut t = choices.clone();
                        t[di] = c;
                        if violates(self, &t) {
                            choices = t;
                            changed = true;
                            break;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        choices
    }
}

/// A distinct image [`Enumerator::point`] checked, kept for a test that
/// asked for it: its choices, both verdicts, and the overlays resolved to
/// it.
#[cfg(test)]
pub(super) struct CheckedImage {
    pub(super) choices: Vec<u64>,
    pub(super) verdict: Verdict,
    pub(super) overlays: Vec<Overlay>,
}

/// Outcome of enumerating one capture point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointOutcome {
    /// Commit count at the capture (alignment key).
    pub commit_idx: usize,
    /// Distinct images checked exhaustively (crash points explored).
    pub images: u64,
    /// Equivalent images skipped by dedup in the exhaustive window.
    pub duplicates: u64,
    /// Distinct images found only by stratified sampling.
    pub sampled_images: u64,
    /// Sampled draws that collapsed onto an already-checked image.
    pub sampled_duplicates: u64,
    /// True when the choice space was clamped (bit budget or image cap).
    pub clamped: bool,
    /// Total filesystem violations over all distinct images.
    pub fs_violations: u64,
    /// Total epoch-order violations over all distinct images.
    pub epoch_violations: u64,
    /// First violating reordering, minimized.
    pub worst: Option<ViolationCase>,
}

/// What enumerating a point needs besides the point: per device its
/// choice space, overlay and epoch probe; the consistency probe; the
/// distinct images seen; the choice vector and the sampler's scratch.
/// None of it borrows a point, so one enumerator serves every point of a
/// trace and rebuilds all of it in place at each — once its buffers have
/// met the trace's largest point it allocates nothing.
#[derive(Default)]
pub(super) struct Enumerator {
    spaces: Vec<ChoiceSpace>,
    overlays: Vec<Overlay>,
    epoch_probes: Vec<EpochProbe>,
    fs_probe: ConsistencyProbe,
    seen: SeenImages,
    choices: Vec<u64>,
    draws: Vec<u64>,
    shuffle: Vec<usize>,
    /// Set by the test oracle: every image takes the full checkers.
    #[cfg(test)]
    pub(super) unindexed: bool,
    /// Set by a test to `Some`: every distinct image checked, in order.
    #[cfg(test)]
    pub(super) kept: Option<Vec<CheckedImage>>,
}

impl Enumerator {
    /// Rebuilds the choice spaces and overlays for `p` and aims the probes
    /// at it. Returns whether the point's choice space is clamped.
    fn aim(&mut self, p: &CrashPoint<'_>) -> bool {
        let n = p.devices.len();
        self.spaces.resize_with(n, ChoiceSpace::default);
        self.overlays.resize_with(n, Overlay::default);
        self.epoch_probes.resize_with(n, EpochProbe::default);
        let mut clamped = false;
        for ((d, space), overlay) in p
            .devices
            .iter()
            .zip(&mut self.spaces)
            .zip(&mut self.overlays)
        {
            space.rebuild(d);
            clamped |= clamps(space);
            overlay.rebuild(d);
        }
        let product: u128 = self
            .spaces
            .iter()
            .map(|s| exhaustive_choices(s) as u128)
            .product();
        clamped |= product > MAX_IMAGES_PER_POINT as u128;
        // The probes depend on the blocks the overlays cover, not on
        // the tags any one choice resolves them to.
        let touched = p.devices.iter().zip(&self.overlays).enumerate();
        let touched = touched.flat_map(|(di, (_, o))| {
            let lbas = o.entries().iter().map(move |e| p.topology.global(di, e.0));
            lbas.zip(o.floors().iter().copied())
        });
        p.check.reprobe(&mut self.fs_probe, touched);
        let devices = p.devices.iter().zip(&self.overlays);
        for ((d, o), probe) in devices.zip(&mut self.epoch_probes) {
            if let Some(index) = d.audit.as_deref() {
                index.reprobe(probe, o.candidates(d));
            }
        }
        clamped
    }

    /// Enumerates every admissible image at `p` (exhaustively up to the
    /// clamps, then by seeded stratified sampling over the full choice
    /// space when clamped), deduplicates, and checks each image against
    /// the journal ground truth and the epoch contract.
    pub(super) fn point(&mut self, p: &CrashPoint<'_>, sample_seed: u64) -> PointOutcome {
        let clamped = self.aim(p);
        let Enumerator {
            spaces,
            overlays,
            epoch_probes,
            fs_probe,
            seen,
            choices,
            draws,
            shuffle,
            #[cfg(test)]
            unindexed,
            #[cfg(test)]
            kept,
        } = self;
        let mut judge = Judge::new(p, spaces, fs_probe, epoch_probes);
        #[cfg(test)]
        {
            judge.unindexed = *unindexed;
        }
        seen.clear();
        let mut out = PointOutcome {
            commit_idx: p.commit_idx,
            images: 0,
            duplicates: 0,
            sampled_images: 0,
            sampled_duplicates: 0,
            clamped,
            fs_violations: 0,
            epoch_violations: 0,
            worst: None,
        };
        // Dedups, checks and records one choice combination.
        let mut visit = |choices: &[u64], sampled: bool, out: &mut PointOutcome| {
            let devices = p.devices.iter().zip(judge.spaces);
            for ((o, (d, s)), &c) in overlays.iter_mut().zip(devices).zip(choices) {
                o.resolve(d, s, c);
            }
            let fresh = seen.insert(overlays);
            *match (fresh, sampled) {
                (true, false) => &mut out.images,
                (true, true) => &mut out.sampled_images,
                (false, false) => &mut out.duplicates,
                (false, true) => &mut out.sampled_duplicates,
            } += 1;
            if !fresh {
                return;
            }
            let (fsv, epv) = judge.verdict(overlays);
            out.fs_violations += fsv.len() as u64;
            out.epoch_violations += epv.len() as u64;
            if (!fsv.is_empty() || !epv.is_empty()) && out.worst.is_none() {
                let min = judge.minimize(choices.to_vec());
                let (f, e, detail) = judge.check_choice(&min);
                out.worst = Some(ViolationCase {
                    choices: min,
                    fs_violations: f,
                    epoch_violations: e,
                    detail,
                });
            }
            #[cfg(test)]
            if let Some(kept) = kept {
                kept.push(CheckedImage {
                    choices: choices.to_vec(),
                    verdict: (fsv, epv),
                    overlays: overlays.clone(),
                });
            }
        };

        // Exhaustive window: odometer over the per-device choice counts.
        choices.clear();
        choices.resize(p.devices.len(), 0);
        let mut visited = 0u64;
        'exhaustive: loop {
            visited += 1;
            visit(choices, false, &mut out);
            if visited >= MAX_IMAGES_PER_POINT {
                break;
            }
            let mut di = 0;
            loop {
                if di == choices.len() {
                    break 'exhaustive;
                }
                choices[di] += 1;
                if choices[di] < exhaustive_choices(&spaces[di]) {
                    break;
                }
                choices[di] = 0;
                di += 1;
            }
        }

        // Stratified sampling past the clamp: for each survival-cardinality
        // stratum, draw reorderings from the *full* free lists. Shares the
        // dedup set, so only genuinely new images are counted and checked.
        if clamped {
            let max_k = spaces.iter().map(ChoiceSpace::width).max().unwrap_or(0);
            let mut rng = SimRng::new(sample_seed);
            for k in 0..=max_k {
                for _ in 0..SAMPLES_PER_STRATUM {
                    draws.clear();
                    let draw = |s| sample_choice(s, k, &mut rng, shuffle);
                    draws.extend(spaces.iter().map(draw));
                    visit(draws, true, &mut out);
                }
            }
        }
        out
    }
}

/// Enumerates every admissible image at one capture point (exhaustively
/// up to the clamps, then by seeded stratified sampling over the full
/// choice space when clamped), deduplicates, and checks each image
/// against the journal ground truth and the epoch contract. A fresh
/// enumerator runs it; a trace keeps one across its points.
///
/// `sample_seed` seeds the sampling draws only; the exhaustive window is
/// deterministic and unaffected.
pub fn enumerate_point(p: &CrashPoint<'_>, sample_seed: u64) -> PointOutcome {
    Enumerator::default().point(p, sample_seed)
}

/// Result of one (stack, trace) cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Capture-point outcomes in commit order.
    pub points: Vec<PointOutcome>,
}

/// Runs one trace to completion, capturing the stack at every journal
/// commit and enumerating the capture point's admissible crash images,
/// with one enumerator for the whole trace.
pub fn enumerate_trace_with(
    cfg: StackConfig,
    sync: SyncMode,
    seed: u64,
    mode: CaptureMode,
) -> CellOutcome {
    let mut enumerator = Enumerator::default();
    // About one point per write+sync pair. Sized once: regrown through the
    // trace, the list lands between the trace's own buffers and raised
    // `crash_enum`'s peak RSS by half a MiB.
    let mut points = Vec::with_capacity(TRACE_OPS as usize);
    drive(cfg, sync, seed, TRACE_OPS, mode, |p| {
        let sample_seed = sample_seed(seed, p.commit_idx);
        points.push(enumerator.point(p, sample_seed));
    });
    CellOutcome { points }
}

/// Deterministic per-point sampling seed: same trace seed and commit
/// index → same sampled draws, in both capture modes.
fn sample_seed(trace_seed: u64, commit_idx: usize) -> u64 {
    trace_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(commit_idx as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::capture::state_of_log;
    use crate::crash::{differential_cells, DiffCell};
    use barrier_io::{TagRun, TxnRecord};
    use bio_flash::{AppendLog, BarrierMode, BlockTag, Lba};

    #[test]
    fn enumerate_point_dedups_equivalent_images() {
        // Two in-flight appends to the SAME lba with the same eventual
        // winner collapse some subsets into identical images.
        let mut log = AppendLog::new();
        let a = log.begin(Lba(1), BlockTag(10), None);
        log.mark_done(a);
        log.begin(Lba(2), BlockTag(20), None);
        log.begin(Lba(2), BlockTag(21), None);
        let p = CrashPoint::of_device(
            0,
            Vec::new(),
            state_of_log(BarrierMode::Unsupported, false, &log),
        );
        let out = enumerate_point(&p, 0);
        // {}, {20}, {21}, {20,21}→21 : the last dedups onto {21}.
        assert_eq!(out.images, 3);
        assert_eq!(out.duplicates, 1);
        assert_eq!(out.fs_violations, 0);
    }

    #[test]
    fn enumerate_point_finds_and_minimizes_durability_loss() {
        // A durability-claimed txn whose jc is still in flight on an
        // orderless device: the subset without the jc bit violates.
        let mut log = AppendLog::new();
        let a = log.begin(Lba(100), BlockTag(1), None); // jd
        log.mark_done(a);
        log.begin(Lba(101), BlockTag(2), None); // jc in flight
        log.begin(Lba(50), BlockTag(3), None); // unrelated data in flight
        let jd_tags = TagRun {
            first: BlockTag(1),
            len: 1,
        };
        let mut rec = TxnRecord::new(1, Lba(100), jd_tags, Lba(101), BlockTag(2));
        rec.durability_claimed = true;
        let p = CrashPoint::of_device(
            1,
            vec![rec],
            state_of_log(BarrierMode::Unsupported, false, &log),
        );
        let out = enumerate_point(&p, 0);
        assert!(out.fs_violations > 0);
        let worst = out.worst.expect("violating case recorded");
        // Minimized: the all-zero choice already violates (jc lost).
        assert_eq!(worst.choices, vec![0]);
        assert!(worst.detail.contains("DurabilityLoss"));
    }

    #[test]
    fn stratified_sampling_reaches_past_the_exhaustive_window() {
        // 12 free bits: the exhaustive window covers 256 of 4096 subsets;
        // sampling must find images beyond it, deterministically.
        let mut log = AppendLog::new();
        for i in 0..12 {
            log.begin(Lba(i), BlockTag(100 + i), None);
        }
        let p = CrashPoint::of_device(
            0,
            Vec::new(),
            state_of_log(BarrierMode::Unsupported, false, &log),
        );
        let out = enumerate_point(&p, 42);
        assert!(out.clamped);
        assert_eq!(out.images, MAX_IMAGES_PER_POINT);
        assert!(out.sampled_images > 0, "sampling found no new images");
        // Seeded: the same point and seed reproduce the same outcome.
        assert_eq!(out, enumerate_point(&p, 42));
        // A different seed may draw different subsets but never changes
        // the exhaustive window.
        let other = enumerate_point(&p, 43);
        assert_eq!(other.images, out.images);
        assert_eq!(other.duplicates, out.duplicates);
    }

    /// An image that counts how often it is read.
    struct CountingImage<'a, V> {
        image: &'a V,
        reads: std::cell::Cell<u64>,
    }

    impl<V: ImageView> ImageView for CountingImage<'_, V> {
        fn tag(&self, lba: Lba) -> BlockTag {
            self.reads.set(self.reads.get() + 1);
            self.image.tag(lba)
        }
    }

    /// Over the last ten capture points of an `ops`-long trace: the most
    /// image reads any one image took to judge. Asserts on the way that no
    /// image took more than three reads per tail record and overlay block
    /// of its point, and that the probes certified every one of them.
    fn most_reads_per_image(label: &str, cfg: StackConfig, sync: SyncMode, ops: u64) -> u64 {
        let mut points = std::collections::VecDeque::new();
        drive(cfg, sync, 11, ops, CaptureMode::Delta, |p| {
            points.push_back(p.owned());
            if points.len() > 10 {
                points.pop_front();
            }
        });
        let mut most = 0;
        let mut e = Enumerator::default();
        for p in &points {
            e.aim(p);
            let (spaces, overlays) = (&e.spaces, &mut e.overlays);
            let mut judge = Judge::new(p, spaces, &e.fs_probe, &e.epoch_probes);
            let size = (p.devices[0].tail.len() + overlays[0].entries().len()) as u64;
            for choice in 0..exhaustive_choices(&spaces[0]) {
                overlays[0].resolve(&p.devices[0], &spaces[0], choice);
                let counting = CountingImage {
                    image: &point_image(p.topology, &p.devices, overlays),
                    reads: std::cell::Cell::new(0),
                };
                let (fsv, epv) = judge.verdict_on(&counting, overlays);
                assert!(fsv.is_empty() && epv.is_empty());
                let reads = counting.reads.get();
                assert!(
                    reads <= 3 * size,
                    "{label}, {ops} ops, commit {}: {reads} reads at a point of size {size}",
                    p.commit_idx
                );
                most = most.max(reads);
            }
            // The full checkers' tables were never built.
            assert!(judge.checker.is_none());
            assert!(judge.audits.iter().all(Option::is_none));
        }
        most
    }

    #[test]
    fn image_reads_follow_the_writes_in_flight_not_the_trace() {
        let single = differential_cells()
            .into_iter()
            .filter(|c| c.group == "1q1d");
        let mut busiest = 0;
        for DiffCell {
            label, cfg, sync, ..
        } in single
        {
            let short = most_reads_per_image(label, cfg.clone(), sync, 100);
            let long = most_reads_per_image(label, cfg, sync, 1_000);
            busiest = busiest.max(long);
            assert!(
                long <= 2 * short,
                "{label}: {long} reads per image after 1,000 ops, {short} after 100"
            );
        }
        // (BFS-DR captures with nothing in flight; the other two do not.)
        assert!(busiest > 0, "no stack had a write in flight at a capture");
    }

    /// Every distinct image `e` checks at `p`: its choices and each
    /// device's overlay entries, with the point's outcome.
    fn images_of(e: &mut Enumerator, p: &CrashPoint<'_>) -> (PointOutcome, Vec<Vec<u64>>) {
        e.kept = Some(Vec::new());
        let outcome = e.point(p, 0);
        let kept = e.kept.take().into_iter().flatten();
        let images = kept.map(|checked| {
            let mut image = checked.choices;
            let tags = checked.overlays.iter().flat_map(Overlay::entries);
            image.extend(tags.flat_map(|&(lba, tag)| [lba.0, tag.0]));
            image
        });
        (outcome, images.collect())
    }

    #[test]
    fn a_reused_enumerator_sees_what_a_fresh_one_sees() {
        // Hand-made: a point whose tail is all done, then one whose first
        // hole lies past the first point's whole tail — the prefix cut the
        // overlay left behind must not survive the rebuild.
        let mut log = AppendLog::new();
        for i in 0..2 {
            let seq = log.begin(Lba(i), BlockTag(10 + i), None);
            log.mark_done(seq);
        }
        let lfs = BarrierMode::LfsInOrderRecovery;
        let done = CrashPoint::of_device(0, Vec::new(), state_of_log(lfs, false, &log));
        for i in 2..4 {
            let seq = log.begin(Lba(i), BlockTag(10 + i), None);
            if i == 2 {
                log.mark_done(seq);
            }
        }
        let holed = CrashPoint::of_device(1, Vec::new(), state_of_log(lfs, false, &log));
        let mut reused = Enumerator::default();
        images_of(&mut reused, &done);
        let fresh = images_of(&mut Enumerator::default(), &holed);
        assert_eq!(images_of(&mut reused, &holed), fresh);
        // And point by point along real traces, one enumerator per trace.
        for DiffCell {
            label, cfg, sync, ..
        } in differential_cells()
        {
            let mut reused = Enumerator::default();
            drive(cfg, sync, 2, TRACE_OPS, CaptureMode::Delta, |p| {
                let fresh = images_of(&mut Enumerator::default(), p);
                assert!(
                    images_of(&mut reused, p) == fresh,
                    "{label}: commit {}",
                    p.commit_idx
                );
            });
        }
    }

    #[test]
    fn differential_trace_smoke_is_clean() {
        for DiffCell {
            label, cfg, sync, ..
        } in differential_cells()
        {
            let cell = enumerate_trace_with(cfg, sync, 1, CaptureMode::Delta);
            assert!(!cell.points.is_empty(), "{label}: no capture points");
            for p in &cell.points {
                assert_eq!(
                    p.fs_violations + p.epoch_violations,
                    0,
                    "{label}: violation at commit {}",
                    p.commit_idx
                );
            }
        }
    }
}
