//! Which images a power loss can leave, as the crash explorer sees them
//! on live traces of devices the differential rows do not use: a
//! transactional group lands only whole, and only when it can still
//! commit; and on an orderless device the explorer's clamp and stratified
//! sampling tiers get traffic.

use barrier_io::{BarrierMode, DeviceProfile, StackConfig};
use bio_bench::crash::{
    capture_points, differential_cells, enumerate_point, enumerate_trace_with, CaptureMode,
};
use bio_workloads::SyncMode;

/// The differential row `label` moved onto a UFS device of `mode`.
fn row(label: &str, mode: BarrierMode) -> (StackConfig, SyncMode) {
    let row = differential_cells().into_iter().find(|c| c.label == label);
    let row = row.unwrap_or_else(|| panic!("no differential row `{label}`"));
    let mut cfg = row.cfg;
    cfg.device = DeviceProfile::ufs().with_barrier_mode(mode);
    (cfg, row.sync)
}

#[test]
fn a_transactional_group_with_members_in_the_cache_enumerates_one_image() {
    // Transactional writeback without PLP: at a capture point whose open
    // group has members in the tail, the group can land only if every
    // member it still waits for is an in-flight program. One still in the
    // cache leaves exactly the device's own crash image.
    let (mut stuck, mut landing) = (0, 0);
    for label in ["BFS-OD", "EXT4-DR"] {
        let (cfg, sync) = row(label, BarrierMode::Transactional);
        for seed in 0..4 {
            for p in capture_points(cfg.clone(), sync, seed, CaptureMode::Delta) {
                let d = &p.devices()[0];
                let Some(group) = d.open_group else {
                    continue;
                };
                let members = || d.tail.iter().filter(|r| r.group == Some(group.id));
                if members().count() == 0 {
                    continue;
                }
                let in_flight = members().filter(|r| !r.done).count();
                let out = enumerate_point(&p, seed);
                let at = format!("{label} seed {seed} commit {}", p.commit_idx);
                if group.left > in_flight {
                    assert_eq!(
                        (out.images, out.duplicates, out.sampled_images),
                        (1, 0, 0),
                        "{at}: {} of {} members left are in flight",
                        in_flight,
                        group.left
                    );
                    stuck += 1;
                } else {
                    assert_eq!(out.images + out.duplicates, 2, "{at}");
                    landing += 1;
                }
            }
        }
    }
    assert!(stuck > 0 && landing > 0, "{stuck} stuck, {landing} landing");
}

#[test]
fn the_clamp_and_sampling_tiers_see_traffic_on_an_orderless_device() {
    // BFS-OD on a device that ignores barriers keeps many programs in
    // flight: over 8 free bits the exhaustive window clamps, and the
    // stratified sampler finds new images and draws repeats.
    let (cfg, sync) = row("BFS-OD", BarrierMode::Unsupported);
    let (mut clamped, mut sampled, mut sampled_duplicates) = (0, 0, 0);
    for seed in 0..2 {
        let cell = enumerate_trace_with(cfg.clone(), sync, seed, CaptureMode::Delta);
        for p in &cell.points {
            clamped += u64::from(p.clamped);
            sampled += p.sampled_images;
            sampled_duplicates += p.sampled_duplicates;
        }
    }
    assert!(
        clamped > 0 && sampled > 0 && sampled_duplicates > 0,
        "clamped {clamped}, sampled {sampled}, sampled duplicates {sampled_duplicates}"
    );
}
