//! FTL soak: a 64×512 FTL filled to a share of its logical capacity and
//! overwritten at random three times over. Greedy GC relocates live pages
//! as appends to the active segment, so an aged device keeps running, every
//! live block keeps its newest tag, and write amplification rises with
//! utilisation.

use bio_flash::{BlockTag, Ftl, Lba};
use bio_sim::SimRng;

const SEGMENTS: usize = 64;
const PAGES: usize = 512;
/// The profiles' over-provisioning: an eighth of the physical pages
/// (`DeviceProfile::logical_blocks`).
const LOGICAL: u64 = (SEGMENTS * PAGES) as u64 * 7 / 8;

/// Fills `percent` of the logical capacity, overwrites it three times at
/// random, checks the forward map and returns the write amplification.
fn soak(percent: u64) -> f64 {
    let live = LOGICAL * percent / 100;
    let mut ftl = Ftl::new(SEGMENTS, PAGES, 0.08);
    let mut rng = SimRng::new(42);
    let mut newest = vec![BlockTag::UNWRITTEN; live as usize];
    let blocks = (0..live).chain((0..3 * live).map(|_| rng.below(live)));
    for (lba, tag) in blocks.zip(1..) {
        ftl.append(Lba(lba), BlockTag(tag));
        newest[lba as usize] = BlockTag(tag);
    }
    assert_eq!(ftl.live_pages() as u64, live);
    for (lba, &tag) in (0..).zip(&newest) {
        assert_eq!(ftl.tag_at(Lba(lba)), Some(tag), "{percent} %: lba {lba}");
    }
    let stats = ftl.stats();
    assert_eq!(stats.host_appends, 4 * live);
    assert!(
        stats.gc_appends > 0,
        "{percent} %: no victim carried a live page"
    );
    stats.write_amplification()
}

#[test]
fn aged_ftl_keeps_every_live_page_and_amplifies_writes_with_utilisation() {
    let wa = [50, 70, 80, 90].map(soak);
    assert!(
        wa.windows(2).all(|w| w[0] < w[1]),
        "write amplification at 50 / 70 / 80 / 90 %: {wa:?}"
    );
}
