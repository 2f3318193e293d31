//! FTL soak: a 64×512 FTL filled to a share of its logical capacity and
//! overwritten at random three times over. Greedy GC relocates live pages
//! as appends to the active segment, so an aged device keeps running, every
//! live block stays mapped, and write amplification rises with
//! utilisation. The forward and reverse maps agree: every live LBA's
//! `Ftl::lookup` names a page whose reverse-map slot (`Ftl::lba_at`) holds
//! that LBA. Where each live block sits is pinned too: a hash of every
//! live LBA's `Ftl::lookup` at each utilisation holds which segment the FTL
//! opens next and which victim GC collects, neither of which moves a
//! device's action stream while the page counts stay the same.

use bio_flash::{Ftl, Lba};
use bio_sim::SimRng;

const SEGMENTS: usize = 64;
const PAGES: usize = 512;
/// The profiles' over-provisioning: an eighth of the physical pages
/// (`DeviceProfile::logical_blocks`).
const LOGICAL: u64 = (SEGMENTS * PAGES) as u64 * 7 / 8;

/// Fills `percent` of the logical capacity, overwrites it three times at
/// random, checks the forward map against the reverse map and returns the
/// write amplification with an FNV-1a hash of every live block's physical
/// location.
fn soak(percent: u64) -> (f64, u64) {
    let live = LOGICAL * percent / 100;
    let mut ftl = Ftl::new(SEGMENTS, PAGES, 0.08);
    let mut rng = SimRng::new(42);
    let blocks = (0..live).chain((0..3 * live).map(|_| rng.below(live)));
    for lba in blocks {
        ftl.write(Lba(lba));
    }
    assert_eq!(ftl.live_pages() as u64, live);
    let mut places = 0xcbf2_9ce4_8422_2325u64;
    for lba in 0..live {
        let loc = ftl.lookup(Lba(lba)).expect("a live block is mapped");
        assert_eq!(ftl.lba_at(loc), Some(Lba(lba)), "{percent} %: {loc:?}");
        for w in [loc.segment as u64, loc.slot as u64] {
            for b in w.to_le_bytes() {
                places = (places ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    let stats = ftl.stats();
    assert_eq!(stats.host_appends, 4 * live);
    assert!(
        stats.gc_appends > 0,
        "{percent} %: no victim carried a live page"
    );
    (stats.write_amplification(), places)
}

#[test]
fn aged_ftl_keeps_every_live_page_and_amplifies_writes_with_utilisation() {
    let (wa, places): (Vec<f64>, Vec<u64>) = [50, 70, 80, 90].map(soak).into_iter().unzip();
    assert!(
        wa.windows(2).all(|w| w[0] < w[1]),
        "write amplification at 50 / 70 / 80 / 90 %: {wa:?}"
    );
    // Recorded at the FTL that opens an erased segment before a
    // never-opened one and collects the segment with the fewest live pages.
    const PLACES: [u64; 4] = [
        0x5157_98bc_1e1e_6754,
        0x0eb4_1f0c_a33c_261e,
        0xab9a_0eb5_e0b3_00c4,
        0xffa9_0cf4_bf9c_20cc,
    ];
    assert!(
        places == PLACES,
        "live blocks moved (50 / 70 / 80 / 90 %): now {places:#018x?}"
    );
}
