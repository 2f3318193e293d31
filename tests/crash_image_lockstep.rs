//! Lockstep suite for the one-shot crash audit, [`IoStack::crash`]. A
//! crash image is a [`bio_flash::BlockMap`] (the device's folded base,
//! its pages copied, the unfolded tail stored over them); a striped
//! volume is read through `Topology::locate` over the per-device images;
//! the checkers' record tables are keyed without SipHash. Kept verbatim
//! below is what the audit was before: an image was a `BTreeMap` built
//! from the base, a striped stack's images were remapped into one global
//! `BTreeMap`, and `ConsistencyCheck::new` / `EpochAudit::new` built
//! SipHash `HashMap`s.
//!
//! Seeded traces drive both through every barrier mode the device has
//! (LFS prefix cuts, transactional groups with and without PLP, the PLP
//! cache overlay, `InOrderWriteback`, `Unsupported`), on 1q×1dev, 2q×2dev
//! and 4q×2dev, and through a 16-block journal that wraps. After every few
//! events both audit the same stack: each device's image must hold the
//! same pairs, and the filesystem and epoch violations must be equal.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use barrier_io::{
    BarrierMode, CrashReport, DeviceProfile, FileRef, FnWorkload, FsViolation, IoStack, Op,
    SimDuration, StackConfig, Topology, TxnRecord,
};
use bio_flash::{
    AppendLog, AppendRec, BlockTag, Device, EpochViolation, ImageView, Lba, TransferRec,
};
use bio_sim::SimRng;

// ----------------------------------------------------------------------
// The reference: the audit before crash images were block maps.
// ----------------------------------------------------------------------

/// The storage surface content after a crash: block address → surviving
/// content version. Backed by an ordered map so [`RefImage::iter`]
/// is reproducible across processes (callers fold it into recovery
/// checks and differential traces).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct RefImage {
    map: BTreeMap<Lba, BlockTag>,
}

impl RefImage {
    /// Creates an image from raw contents (used in tests).
    fn from_map(map: BTreeMap<Lba, BlockTag>) -> RefImage {
        RefImage { map }
    }

    /// Content at `lba`, [`BlockTag::UNWRITTEN`] if the block never
    /// persisted.
    fn tag(&self, lba: Lba) -> BlockTag {
        self.map.get(&lba).copied().unwrap_or(BlockTag::UNWRITTEN)
    }

    /// Iterates over `(lba, tag)` pairs in ascending LBA order.
    fn iter(&self) -> impl Iterator<Item = (Lba, BlockTag)> + '_ {
        self.map.iter().map(|(&l, &t)| (l, t))
    }

    /// Overlays another set of surviving blocks (e.g. a PLP-protected
    /// cache) on top of this image, in the order given.
    fn overlay<I: IntoIterator<Item = (Lba, BlockTag)>>(&mut self, blocks: I) {
        for (lba, tag) in blocks {
            self.map.insert(lba, tag);
        }
    }
}

impl ImageView for RefImage {
    fn tag(&self, lba: Lba) -> BlockTag {
        RefImage::tag(self, lba)
    }
}

/// `AppendLog::image`: replay of the base plus every unfolded record
/// matching `keep`, in append order. `prefix_only` stops at the first
/// rejected record (the LFS in-order recovery rule).
fn log_image<F: Fn(&AppendRec) -> bool>(log: &AppendLog, keep: F, prefix_only: bool) -> RefImage {
    let mut map: BTreeMap<Lba, BlockTag> = log.base().iter().collect();
    for rec in log.tail() {
        if keep(rec) {
            map.insert(rec.lba, rec.tag);
        } else if prefix_only {
            break;
        }
    }
    RefImage { map }
}

/// `Device::crash_image` over [`log_image`]: the storage-surface contents
/// if power were lost right now, under the profile's barrier mode.
fn crash_image(dev: &Device) -> RefImage {
    if dev.profile().plp {
        // Supercap: everything transferred is durable.
        let mut img = log_image(dev.append_log(), |_| true, false);
        img.overlay(dev.cache().entries_in_order().map(|(_, e)| (e.lba, e.tag)));
        return img;
    }
    let committed: BTreeSet<u64> = dev.committed_groups().collect();
    let log = dev.append_log();
    match dev.profile().barrier_mode {
        BarrierMode::LfsInOrderRecovery => log_image(log, |r| r.done, true),
        BarrierMode::Transactional => log_image(
            log,
            |r| r.done && r.group.is_none_or(|g| committed.contains(&g)),
            false,
        ),
        BarrierMode::InOrderWriteback | BarrierMode::Unsupported => {
            log_image(log, |r| r.done, false)
        }
    }
}

fn jd_intact<V: ImageView>(r: &TxnRecord, image: &V) -> bool {
    r.jd_tags
        .iter()
        .enumerate()
        .all(|(i, &t)| image.tag(Lba(r.jd_lba.0 + i as u64)) == t)
}

fn jc_intact<V: ImageView>(r: &TxnRecord, image: &V) -> bool {
    image.tag(r.jc_lba) == r.jc_tag
}

/// "Version at lba is at least `tag`": tags are globally monotonic, so a
/// bigger tag at the same block is a newer version of it.
fn present_or_superseded<V: ImageView>(image: &V, lba: Lba, tag: BlockTag) -> bool {
    image.tag(lba).0 >= tag.0
}

/// `ConsistencyCheck` with its SipHash last-writer table.
struct RefConsistencyCheck<'a> {
    records: &'a [TxnRecord],
    /// Per record: all of its journal blocks still name it as last writer.
    checkable: Vec<bool>,
}

impl<'a> RefConsistencyCheck<'a> {
    /// Precomputes the record-only tables.
    fn new(records: &'a [TxnRecord]) -> RefConsistencyCheck<'a> {
        // Last writer per journal lba (for checkability).
        let mut last_writer: HashMap<Lba, u64> = HashMap::new();
        for r in records {
            for (i, _) in r.jd_tags.iter().enumerate() {
                last_writer.insert(Lba(r.jd_lba.0 + i as u64), r.id);
            }
            last_writer.insert(r.jc_lba, r.id);
        }
        let checkable = records
            .iter()
            .map(|r| {
                r.jd_tags
                    .iter()
                    .enumerate()
                    .all(|(i, _)| last_writer[&Lba(r.jd_lba.0 + i as u64)] == r.id)
                    && last_writer[&r.jc_lba] == r.id
            })
            .collect();
        RefConsistencyCheck { records, checkable }
    }

    /// Replays the records against one crash image and returns all
    /// violations.
    fn violations<V: ImageView>(&self, image: &V) -> Vec<FsViolation> {
        let mut violations = Vec::new();
        let records = self.records;
        let checkable = |i: usize| self.checkable[i];
        let jd_intact = |r: &TxnRecord| jd_intact(r, image);
        let jc_intact = |r: &TxnRecord| jc_intact(r, image);
        let present_or_superseded =
            |lba: Lba, tag: BlockTag| present_or_superseded(image, lba, tag);

        // Pass 1: classify.
        let mut valid: Vec<bool> = Vec::with_capacity(records.len());
        for (i, r) in records.iter().enumerate() {
            let ok = checkable(i) && jd_intact(r) && jc_intact(r);
            valid.push(ok);
        }

        // Invariant 2: torn transactions (JC without full JD).
        for (i, r) in records.iter().enumerate() {
            if checkable(i) && jc_intact(r) && !jd_intact(r) {
                violations.push(FsViolation::TornTransaction { txn: r.id });
            }
        }

        // Invariant 1: commit order.
        if let Some(newest_valid) = records
            .iter()
            .zip(&valid)
            .filter(|(_, v)| **v)
            .map(|(r, _)| r.id)
            .max()
        {
            for (i, (r, v)) in records.iter().zip(&valid).enumerate() {
                if r.id < newest_valid && checkable(i) && !*v {
                    violations.push(FsViolation::CommitOrder {
                        earlier: r.id,
                        later: newest_valid,
                    });
                }
            }
        }

        // Invariant 3: ordered data of surviving transactions.
        for (r, v) in records.iter().zip(&valid) {
            if *v {
                for &(lba, tag) in &r.ordered_data {
                    if !present_or_superseded(lba, tag) {
                        violations.push(FsViolation::OrderedData { txn: r.id, lba });
                    }
                }
            }
        }

        // Invariant 4: durability claims.
        for (i, (r, v)) in records.iter().zip(&valid).enumerate() {
            if r.durability_claimed && checkable(i) && !*v {
                violations.push(FsViolation::DurabilityLoss { txn: r.id });
            }
        }

        violations
    }
}

/// `EpochAudit` with its SipHash tag → seq table.
struct RefEpochAudit<'a> {
    history: &'a [TransferRec],
    /// Map each tag to its transfer seq so "at least as new" is decidable.
    seq_of_tag: HashMap<BlockTag, u64>,
}

impl<'a> RefEpochAudit<'a> {
    /// Precomputes the history-only tables.
    fn new(history: &'a [TransferRec]) -> RefEpochAudit<'a> {
        RefEpochAudit {
            history,
            seq_of_tag: history.iter().map(|t| (t.tag, t.seq)).collect(),
        }
    }

    /// Audits one crash image against the transfer history.
    fn violations<V: ImageView>(&self, image: &V) -> Vec<EpochViolation> {
        let visible_epoch = self
            .history
            .iter()
            .filter(|t| image.tag(t.lba) == t.tag)
            .map(|t| t.epoch)
            .max();
        let Some(visible_epoch) = visible_epoch else {
            return Vec::new(); // nothing persisted at all: trivially ordered
        };

        let mut violations = Vec::new();
        for t in self.history {
            if t.epoch >= visible_epoch {
                continue; // the newest visible epoch itself may be partial
            }
            let img_tag = image.tag(t.lba);
            let img_seq = if img_tag == BlockTag::UNWRITTEN {
                0
            } else {
                self.seq_of_tag.get(&img_tag).copied().unwrap_or(0)
            };
            if img_seq < t.seq {
                violations.push(EpochViolation {
                    lost: *t,
                    visible_epoch,
                });
            }
        }
        violations
    }
}

/// `IoStack::crash` as it was: on a multi-device topology the per-device
/// images are remapped through the stripe layout into one global image
/// for the filesystem-level audit; the epoch audit runs per device
/// against that device's own image (computed a second time) and history.
struct RefCrash {
    /// Each device's image, in device-index order.
    images: Vec<RefImage>,
    fs_violations: Vec<FsViolation>,
    epoch_violations: Vec<EpochViolation>,
    /// Records the checker could not check (journal blocks reused).
    uncheckable: usize,
}

fn reference_crash(stack: &IoStack) -> RefCrash {
    let topology = stack.config().topology;
    let image = if topology.nr_devices == 1 {
        crash_image(stack.device_at(0))
    } else {
        let mut map = BTreeMap::new();
        for (di, d) in stack.devices().iter().enumerate() {
            for (local, tag) in crash_image(d).iter() {
                map.insert(topology.global(di, local), tag);
            }
        }
        RefImage::from_map(map)
    };
    let check = RefConsistencyCheck::new(stack.fs().records());
    let fs_violations = check.violations(&image);
    let mut epoch_violations = Vec::new();
    for d in stack.devices() {
        if let Some(h) = d.history() {
            epoch_violations.extend(RefEpochAudit::new(h).violations(&crash_image(d)));
        }
    }
    RefCrash {
        images: stack.devices().iter().map(crash_image).collect(),
        fs_violations,
        epoch_violations,
        uncheckable: check.checkable.iter().filter(|&&c| !c).count(),
    }
}

// ----------------------------------------------------------------------
// Driving both audits in lockstep.
// ----------------------------------------------------------------------

/// What the checks of one row met: each count is the checks at which the
/// row's stacks were in that state.
#[derive(Debug, Default, Clone, Copy)]
struct Coverage {
    checks: u64,
    /// An LFS device whose tail holds a finished program behind an
    /// unfinished one: its image is a prefix cut.
    prefix_cuts: u64,
    /// A transactional device without PLP with a finished program of a
    /// group not yet committed.
    open_groups: u64,
    /// A PLP device with blocks in its cache.
    plp_overlays: u64,
    /// An `InOrderWriteback` or `Unsupported` device with unfolded tail.
    writeback_tails: u64,
    /// Records whose journal blocks a newer record reused.
    wrapped: u64,
    fs_violations: u64,
    epoch_violations: u64,
}

impl Coverage {
    /// Counts what `stack` looks like against its reference audit.
    fn note(&mut self, stack: &IoStack, reference: &RefCrash) {
        self.checks += 1;
        for d in stack.devices() {
            let tail: Vec<&AppendRec> = d.append_log().tail().collect();
            let profile = d.profile();
            let cut = tail.iter().skip_while(|r| r.done).any(|r| r.done);
            let committed: BTreeSet<u64> = d.committed_groups().collect();
            let open = tail
                .iter()
                .any(|r| r.done && r.group.is_some_and(|g| !committed.contains(&g)));
            match (profile.plp, profile.barrier_mode) {
                (true, _) => self.plp_overlays += u64::from(!d.cache().is_empty()),
                (false, BarrierMode::LfsInOrderRecovery) => self.prefix_cuts += u64::from(cut),
                (false, BarrierMode::Transactional) => self.open_groups += u64::from(open),
                (false, BarrierMode::InOrderWriteback | BarrierMode::Unsupported) => {
                    self.writeback_tails += u64::from(!tail.is_empty())
                }
            }
        }
        self.wrapped += u64::from(reference.uncheckable > 0);
        self.fs_violations += u64::from(!reference.fs_violations.is_empty());
        self.epoch_violations += u64::from(!reference.epoch_violations.is_empty());
    }

    fn add(&mut self, other: Coverage) {
        self.checks += other.checks;
        self.prefix_cuts += other.prefix_cuts;
        self.open_groups += other.open_groups;
        self.plp_overlays += other.plp_overlays;
        self.writeback_tails += other.writeback_tails;
        self.wrapped += other.wrapped;
        self.fs_violations += other.fs_violations;
        self.epoch_violations += other.epoch_violations;
    }
}

/// The new audit against the reference on one stack as it stands.
fn agree(stack: &IoStack, at: &str) -> RefCrash {
    let reference = reference_crash(stack);
    let CrashReport {
        images,
        fs_violations,
        epoch_violations,
    } = stack.crash();
    assert_eq!(images.len(), reference.images.len(), "{at}: device count");
    for (d, (new, old)) in images.iter().zip(&reference.images).enumerate() {
        let (new, old): (Vec<_>, Vec<_>) = (new.iter().collect(), old.iter().collect());
        assert_eq!(new, old, "{at}: device {d}'s image");
    }
    assert_eq!(
        fs_violations, reference.fs_violations,
        "{at}: fs violations"
    );
    assert_eq!(
        epoch_violations, reference.epoch_violations,
        "{at}: epoch violations"
    );
    reference
}

/// A thread of `ops` random write + sync pairs: 1–3 blocks at a random
/// offset of one of `files` shared files, synced with one of `syncs`.
fn writer(
    files: Vec<FileRef>,
    syncs: &'static [fn(FileRef) -> Op],
    region: u64,
    ops: u64,
) -> FnWorkload<impl FnMut(&mut SimRng) -> Option<Op>> {
    let (mut left, mut pending) = (ops, None);
    FnWorkload(move |rng: &mut SimRng| {
        if let Some(op) = pending.take() {
            return Some(op);
        }
        if left == 0 {
            return None;
        }
        left -= 1;
        let file = *rng.choose(&files).expect("a file");
        let sync = *rng.choose(syncs).expect("a sync");
        pending = Some(sync(file));
        Some(Op::Write {
            file,
            offset: rng.below(region),
            blocks: 1 + rng.below(3),
        })
    })
}

/// One row: a stack and the syncs its threads issue.
struct Row {
    label: &'static str,
    cfg: StackConfig,
    syncs: &'static [fn(FileRef) -> Op],
}

const DURABLE: &[fn(FileRef) -> Op] = &[|file| Op::Fsync { file }, |file| Op::Fdatasync { file }];
const ORDERED: &[fn(FileRef) -> Op] = &[
    |file| Op::Fbarrier { file },
    |file| Op::Fdatabarrier { file },
    |file| Op::Fsync { file },
];

fn rows() -> Vec<Row> {
    let (one, two, four) = (
        Topology::single(),
        Topology::new(2, 2, 8),
        Topology::new(4, 2, 8),
    );
    let transactional = || {
        let mut dev = DeviceProfile::supercap_ssd();
        dev.plp = false;
        dev
    };
    // The barrier UFS's chips with a controller that keeps no order.
    let orderless = || DeviceProfile::ufs().with_barrier_mode(BarrierMode::Unsupported);
    let row = |label, cfg: StackConfig, topology, syncs| Row {
        label,
        cfg: cfg.with_topology(topology).with_history(),
        syncs,
    };
    let wrapped = |cfg: StackConfig| {
        let mut cfg = cfg;
        cfg.fs = cfg.fs.with_journal_blocks(16);
        cfg
    };
    vec![
        row(
            "EXT4-DR LFS 1x1",
            StackConfig::ext4_dr(DeviceProfile::plain_ssd()),
            one,
            DURABLE,
        ),
        row(
            "BFS-OD LFS 1x1",
            StackConfig::bfs(DeviceProfile::ufs()).ordering_only(),
            one,
            ORDERED,
        ),
        row(
            "BFS-OD LFS 2x2",
            StackConfig::bfs(DeviceProfile::ufs()).ordering_only(),
            two,
            ORDERED,
        ),
        row(
            "BFS-DR PLP 1x1",
            StackConfig::bfs(DeviceProfile::supercap_ssd()),
            one,
            DURABLE,
        ),
        row(
            "EXT4-DR PLP 4x2",
            StackConfig::ext4_dr(DeviceProfile::supercap_ssd()),
            four,
            DURABLE,
        ),
        row(
            "BFS-OD transactional 1x1",
            StackConfig::bfs(transactional()).ordering_only(),
            one,
            ORDERED,
        ),
        row(
            "BFS-DR transactional 2x2",
            StackConfig::bfs(transactional()),
            two,
            DURABLE,
        ),
        row(
            "BFS-OD in-order writeback 4x2",
            StackConfig::bfs(DeviceProfile::emmc()).ordering_only(),
            four,
            ORDERED,
        ),
        row(
            "BFS-OD orderless 1x1",
            StackConfig::bfs(orderless()).ordering_only(),
            one,
            ORDERED,
        ),
        row(
            "EXT4-DR orderless 2x2",
            StackConfig::ext4_dr(DeviceProfile::hdd()),
            two,
            DURABLE,
        ),
        row(
            "EXT4-DR wrapped journal 1x1",
            wrapped(StackConfig::ext4_dr(DeviceProfile::plain_ssd())),
            one,
            DURABLE,
        ),
        row(
            "BFS-OD wrapped journal 4x2",
            wrapped(StackConfig::bfs(DeviceProfile::ufs()).ordering_only()),
            four,
            ORDERED,
        ),
    ]
}

/// Drives one row's stack for one seed, auditing both ways every few
/// events and once more after an idle second.
fn lockstep(row: &Row, seed: u64) -> Coverage {
    let mut stack = IoStack::new(row.cfg.clone().with_seed(seed));
    let files: Vec<FileRef> = (0..3)
        .map(|_| FileRef::Global(stack.create_global_file()))
        .collect();
    for _ in 0..4 {
        stack.add_thread(Box::new(writer(files.clone(), row.syncs, 48, 30)));
    }
    let mut rng = SimRng::new(seed ^ 0x010C_57E9);
    let mut coverage = Coverage::default();
    let (mut step, mut next) = (0u64, 1u64);
    while !stack.workloads_finished() && stack.step() {
        step += 1;
        if step == next {
            let at = format!("{} seed {seed} step {step}", row.label);
            coverage.note(&stack, &agree(&stack, &at));
            next += 1 + rng.below(12);
        }
    }
    assert!(stack.workloads_finished(), "{}: ran dry", row.label);
    stack.run_for(SimDuration::from_secs(1));
    let at = format!("{} seed {seed} idle", row.label);
    coverage.note(&stack, &agree(&stack, &at));
    coverage
}

#[test]
fn the_block_map_audit_matches_the_btree_audit_on_every_barrier_mode() {
    let mut total = Coverage::default();
    for row in rows() {
        let mut c = Coverage::default();
        for seed in 0..3 {
            c.add(lockstep(&row, seed));
        }
        println!("crash image lockstep: {}: {c:?}", row.label);
        total.add(c);
    }
    // Every state the reference's image and checker code paths branch on
    // was met, and the verdicts compared were not all empty.
    let Coverage {
        prefix_cuts,
        open_groups,
        plp_overlays,
        writeback_tails,
        wrapped,
        fs_violations,
        epoch_violations,
        ..
    } = total;
    for (what, n) in [
        ("prefix cuts", prefix_cuts),
        ("open transactional groups", open_groups),
        ("PLP overlays", plp_overlays),
        ("in-order / orderless tails", writeback_tails),
        ("wrapped journal records", wrapped),
        ("fs violations", fs_violations),
        ("epoch violations", epoch_violations),
    ] {
        assert!(n > 0, "no check met {what}: {total:?}");
    }
}

#[test]
fn a_block_at_the_top_of_a_device_is_audited_without_a_remap() {
    // Two devices striped by 8 blocks: global block 2^33 - 1 is device 1's
    // last local block, LIMIT - 1. A journal that ends just below it puts
    // a file's first data block there; the next global block would be
    // device 0's local LIMIT, which the device refuses and counts. The
    // old audit remapped that block into one global map keyed past
    // `Lba::LIMIT`; the new one must read it in place, without a panic,
    // and reach the same verdict.
    let top = Lba::LIMIT.0 - 1;
    let topology = Topology::new(1, 2, 8);
    assert_eq!(topology.global(1, Lba(top)), Lba((1 << 33) - 1));
    for cfg in [
        StackConfig::ext4_dr(DeviceProfile::plain_ssd()),
        StackConfig::bfs(DeviceProfile::ufs()).ordering_only(),
    ] {
        let mut cfg = cfg.with_topology(topology).with_history();
        // The filesystem's metadata region is 65,536 blocks.
        cfg.fs.journal_blocks = (1 << 33) - 1 - 65_536;
        let label = cfg.label();
        let mut stack = IoStack::new(cfg);
        let file = FileRef::Global(stack.create_global_file());
        let mut script = Vec::new();
        for _ in 0..8 {
            let write = Op::Write {
                file,
                offset: 0,
                blocks: 1,
            };
            script.extend([write, Op::Fsync { file }, Op::TxnMark]);
        }
        stack.add_thread(Box::new(barrier_io::ScriptWorkload::once(script)));
        // Every check copies device 1's image, whose page directory
        // reaches the top block: a few checks, not one per event.
        let mut step = 0;
        while !stack.workloads_finished() && stack.step() {
            step += 1;
            if step % 64 == 0 {
                agree(&stack, &format!("{label} step {step}"));
            }
        }
        stack.run_for(SimDuration::from_secs(1));
        let reference = agree(&stack, &format!("{label} idle"));
        let held = stack.crash().images[1].tag(Lba(top));
        assert_ne!(held, BlockTag::UNWRITTEN, "{label}: nothing at the top");
        assert_eq!(reference.images[1].tag(Lba(top)), held);
    }
}
