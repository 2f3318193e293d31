//! The two ablations: the barrier-enforcement engines of §3.2, and sampled
//! crashes on the stacks that should and should not survive them.

use barrier_io::{DeviceProfile, SimDuration, StackConfig};
use bio_flash::BarrierMode;
use bio_workloads::SyncMode::{self, Fbarrier, Fdatabarrier, Fsync};
use bio_workloads::WriteMode::SyncEach;

use super::device::randwrite_report;
use super::{cell, col, Figure};

/// Ablation: fdatabarrier throughput under each barrier engine:
/// in-order writeback < transactional <= LFS in-order recovery.
pub fn ablation_engines(scale: u64) -> Figure {
    let mut fig = Figure::new(
        "Ablation — barrier write KIOPS per enforcement engine (UFS-class device)",
        &["engine"],
        vec![col("KIOPS", 2)],
    );
    for (label, mode) in [
        ("in-order writeback", BarrierMode::InOrderWriteback),
        ("transactional", BarrierMode::Transactional),
        ("LFS in-order recovery", BarrierMode::LfsInOrderRecovery),
    ] {
        fig.row(&[label], move || {
            let cfg = StackConfig::bfs(DeviceProfile::ufs().with_barrier_mode(mode));
            vec![randwrite_report(cfg, SyncEach(Fdatabarrier), scale).write_kiops]
        });
    }
    fig
}

/// One sampled crash (the ablation table's unit of work): the explorer's
/// trace run for `dur`, then one wall-clock crash; counts its violations.
fn sampled_crash_violations(cfg: StackConfig, sync: SyncMode, dur: SimDuration) -> u64 {
    let seed = cfg.seed;
    let mut stack = crate::crash::trace_stack(cfg, sync, seed, crate::crash::TRACE_OPS);
    stack.run_for(dur);
    crate::note_drops(&stack.config().label(), &stack.report());
    let crash = stack.crash();
    (crash.fs_violations.len() + crash.epoch_violations.len()) as u64
}

/// Crash audit: violation counts over `seeds` random crash points.
pub fn ablation_crash(seeds: u64) -> Figure {
    let ufs = DeviceProfile::ufs;
    let mut orderless = ufs().with_barrier_mode(BarrierMode::Unsupported);
    orderless.cache_blocks = 48;
    let (bfs, dr, od) = (StackConfig::bfs, StackConfig::ext4_dr, StackConfig::ext4_od);
    let stacks = [
        ("BFS-OD on barrier device", bfs(ufs()), Fbarrier),
        ("EXT4-DR (full flush)", dr(ufs()), Fsync),
        ("EXT4-OD on orderless device", od(orderless), Fsync),
    ];
    let out_of = col("crashes w/ violations", 0).suffix(format!("/{seeds}"));
    let mut fig = Figure::new(
        "Ablation — crash-consistency violations over random crash points",
        &["stack"],
        vec![out_of, col("total violations", 0)],
    );
    // A row's numbers are its per-seed violation counts; what prints is
    // how many seeds had any, and their sum.
    fig.derive = |per_seed| {
        let crashes_with_violation = per_seed.iter().filter(|&&v| v > 0.0).count();
        // Not `sum()`: over no seeds it is -0.0, which prints as "-0".
        vec![
            crashes_with_violation as f64,
            per_seed.iter().fold(0.0, |a, v| a + v),
        ]
    };
    for (label, cfg, sync) in stacks {
        // One cell per (stack, seed): seeds shard across the worker pool
        // instead of looping inside one long cell.
        let per_seed = (0..seeds).map(|seed| {
            let cfg = cfg.clone().with_history().with_seed(seed);
            let dur = SimDuration::from_millis(2 + seed * 3);
            cell(move || vec![sampled_crash_violations(cfg, sync, dur) as f64])
        });
        fig.row_of(&[label], per_seed);
    }
    fig
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_crash_audit_over_no_seeds_prints_plain_zeros() {
        let text = super::ablation_crash(0).run("figcrash").render();
        assert!(text
            .ends_with("EXT4-OD on orderless device                    0/0                 0\n"));
    }
}
