//! Differential: the same traces through EXT4-DR, BFS-DR and BFS-OD at
//! 1q×1dev and 2q×2dev, enumerated at every commit, with capture points
//! aligned across the stacks of one topology and any disagreement reported
//! as a minimized divergence ([`run`]).

use std::collections::{HashMap, HashSet};

use barrier_io::{DeviceProfile, StackConfig, Topology};
use bio_workloads::SyncMode;

use super::capture::CaptureMode;
use super::enumerate::{enumerate_trace_with, CellOutcome, PointOutcome};
use crate::{print_table, ExperimentGrid};

/// Per-stack aggregate over all traces.
#[derive(Debug, Clone)]
pub struct StackRow {
    /// Stack label (`EXT4-DR`, `BFS-DR/2x2`, ...).
    pub label: &'static str,
    /// Traces run.
    pub traces: u64,
    /// Capture points (journal commits) visited.
    pub fork_points: u64,
    /// Distinct crash images enumerated and checked exhaustively.
    pub images: u64,
    /// Equivalent images skipped by dedup.
    pub duplicates: u64,
    /// Distinct images found only by stratified sampling.
    pub sampled_images: u64,
    /// Sampled draws that collapsed onto an already-checked image.
    pub sampled_duplicates: u64,
    /// Capture points whose choice space was clamped.
    pub clamped_points: u64,
    /// Filesystem violations summed over all images.
    pub fs_violations: u64,
    /// Epoch-order violations summed over all images.
    pub epoch_violations: u64,
}

/// Sampled-vs-exhaustive coverage counters over the whole run.
#[derive(Debug, Clone, Default)]
pub struct CrashStats {
    /// Distinct images checked by exhaustive enumeration.
    pub exhaustive_images: u64,
    /// Exhaustive enumerations skipped by dedup.
    pub exhaustive_duplicates: u64,
    /// Distinct images reached only by stratified sampling.
    pub sampled_images: u64,
    /// Sampled draws deduplicated away.
    pub sampled_duplicates: u64,
    /// Capture points whose choice space was clamped.
    pub clamped_points: u64,
}

/// A cross-stack divergence: at an aligned `(trace, capture point)` this
/// stack violated while a peer stayed clean, minimized to the smallest
/// reordering choice that still violates.
#[derive(Debug, Clone)]
pub struct DivergenceTriple {
    /// Trace seed.
    pub seed: u64,
    /// Commit count at the capture (alignment key).
    pub commit_idx: usize,
    /// The violating stack.
    pub stack: &'static str,
    /// Minimized per-device reordering choice.
    pub choices: Vec<u64>,
    /// First violation, rendered.
    pub detail: String,
}

/// Full report of one differential crash-enumeration run.
#[derive(Debug, Clone)]
pub struct CrashEnumReport {
    /// Per-stack aggregates.
    pub rows: Vec<StackRow>,
    /// Total distinct crash points explored exhaustively across stacks.
    pub total_points: u64,
    /// Sampled-vs-exhaustive coverage over the whole run.
    pub stats: CrashStats,
    /// Cross-stack divergences (empty = all stacks agree).
    pub divergences: Vec<DivergenceTriple>,
}

/// The six differential cells over `dev`, as `(label, config, sync
/// flavour)` grouped by lane topology (divergences are only meaningful
/// between stacks that shard blocks identically): the flush-based baseline
/// and the two BarrierFS disciplines must agree, at 1q×1dev and again at
/// 2q×2dev, stripe 16. History recording is on in every cell.
pub fn differential_cells(dev: DeviceProfile) -> [[(&'static str, StackConfig, SyncMode); 3]; 2] {
    let cells = |[ext4_dr, bfs_dr, bfs_od]: [&'static str; 3], topology: Topology| {
        [
            (ext4_dr, StackConfig::ext4_dr(dev.clone()), SyncMode::Fsync),
            (bfs_dr, StackConfig::bfs(dev.clone()), SyncMode::Fsync),
            (
                bfs_od,
                StackConfig::bfs(dev.clone()).ordering_only(),
                SyncMode::Fbarrier,
            ),
        ]
        .map(|(label, cfg, sync)| (label, cfg.with_history().with_topology(topology), sync))
    };
    [
        cells(["EXT4-DR", "BFS-DR", "BFS-OD"], Topology::single()),
        cells(
            ["EXT4-DR/2x2", "BFS-DR/2x2", "BFS-OD/2x2"],
            Topology::new(2, 2, 16),
        ),
    ]
}

/// Runs the differential crash enumeration over `traces` seeds per stack,
/// sharded across the grid pool, prints the per-stack table (and the
/// divergence table when non-empty), and returns the report. The stacks
/// are [`differential_cells`] over the paper's barrier UFS.
pub fn run(traces: u64) -> CrashEnumReport {
    let groups = differential_cells(DeviceProfile::ufs());
    let stacks = groups.as_flattened();
    let mut grid = ExperimentGrid::new();
    for (label, cfg, sync) in stacks {
        for seed in 0..traces {
            let (cfg, sync) = (cfg.clone(), *sync);
            grid.push(format!("crashenum/{label}/seed{seed}"), move || {
                enumerate_trace_with(cfg, sync, seed, CaptureMode::Delta)
            });
        }
    }
    let results = grid.run();
    assert_eq!(results.len(), stacks.len() * traces as usize);

    let mut rows = Vec::new();
    let mut stats = CrashStats::default();
    let mut divergences = Vec::new();
    // One slice per stack, empty when `traces` is 0 (`chunks` would
    // yield no slices at all then, and the group fold below indexes them).
    let per_stack = traces as usize;
    let cells: Vec<&[CellOutcome]> = (0..stacks.len())
        .map(|i| &results[i * per_stack..(i + 1) * per_stack])
        .collect();
    for ((label, _, _), chunk) in stacks.iter().zip(&cells) {
        let mut row = StackRow {
            label,
            traces,
            fork_points: 0,
            images: 0,
            duplicates: 0,
            sampled_images: 0,
            sampled_duplicates: 0,
            clamped_points: 0,
            fs_violations: 0,
            epoch_violations: 0,
        };
        for cell in *chunk {
            row.fork_points += cell.points.len() as u64;
            for p in &cell.points {
                row.images += p.images;
                row.duplicates += p.duplicates;
                row.sampled_images += p.sampled_images;
                row.sampled_duplicates += p.sampled_duplicates;
                row.clamped_points += p.clamped as u64;
                row.fs_violations += p.fs_violations;
                row.epoch_violations += p.epoch_violations;
            }
        }
        stats.exhaustive_images += row.images;
        stats.exhaustive_duplicates += row.duplicates;
        stats.sampled_images += row.sampled_images;
        stats.sampled_duplicates += row.sampled_duplicates;
        stats.clamped_points += row.clamped_points;
        rows.push(row);
    }

    // Differential fold, per topology group: align per-seed capture
    // points by commit count; any point where the violation verdicts
    // differ across the group's stacks is a divergence for each violating
    // stack.
    let mut offset = 0usize;
    for group in &groups {
        let group_cells = &cells[offset..offset + group.len()];
        for seed in 0..traces as usize {
            let per_stack: Vec<HashMap<usize, &PointOutcome>> = group_cells
                .iter()
                .map(|chunk| {
                    chunk[seed]
                        .points
                        .iter()
                        .map(|p| (p.commit_idx, p))
                        .collect()
                })
                .collect();
            let aligned: HashSet<usize> = per_stack
                .iter()
                .flat_map(|m| m.keys().copied())
                .filter(|k| per_stack.iter().all(|m| m.contains_key(k)))
                .collect();
            let mut aligned: Vec<usize> = aligned.into_iter().collect();
            aligned.sort_unstable();
            for k in aligned {
                let verdicts: Vec<bool> = per_stack.iter().map(|m| m[&k].worst.is_some()).collect();
                if verdicts.iter().any(|&v| v) && verdicts.iter().any(|&v| !v) {
                    for ((label, _, _), m) in group.iter().zip(&per_stack) {
                        if let Some(case) = &m[&k].worst {
                            divergences.push(DivergenceTriple {
                                seed: seed as u64,
                                commit_idx: k,
                                stack: label,
                                choices: case.choices.clone(),
                                detail: case.detail.clone(),
                            });
                        }
                    }
                }
            }
        }
        offset += group.len();
    }

    let total_points: u64 = rows.iter().map(|r| r.images).sum();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                r.traces.to_string(),
                r.fork_points.to_string(),
                r.images.to_string(),
                r.duplicates.to_string(),
                r.sampled_images.to_string(),
                r.sampled_duplicates.to_string(),
                r.clamped_points.to_string(),
                r.fs_violations.to_string(),
                r.epoch_violations.to_string(),
            ]
        })
        .collect();
    print_table(
        "Crash enumeration — exhaustive per-epoch crash images (differential)",
        &[
            "stack",
            "traces",
            "fork points",
            "crash points",
            "dedup-skipped",
            "sampled",
            "sampled-dup",
            "clamped",
            "fs violations",
            "epoch violations",
        ],
        &table,
    );
    println!(
        "total crash points explored: {total_points}; cross-stack divergences: {}",
        divergences.len()
    );
    println!(
        "stratified sampling: {} extra images past the clamp ({} draws deduplicated, {} clamped points)",
        stats.sampled_images, stats.sampled_duplicates, stats.clamped_points
    );
    if !divergences.is_empty() {
        let rows: Vec<Vec<String>> = divergences
            .iter()
            .take(10)
            .map(|d| {
                vec![
                    d.stack.to_string(),
                    d.seed.to_string(),
                    d.commit_idx.to_string(),
                    format!("{:?}", d.choices),
                    d.detail.clone(),
                ]
            })
            .collect();
        print_table(
            "Cross-stack divergences (minimized reordering triples)",
            &[
                "stack",
                "trace seed",
                "fork point",
                "choice",
                "first violation",
            ],
            &rows,
        );
    }
    CrashEnumReport {
        rows,
        total_points,
        stats,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::capture::{trace_stack, TRACE_OPS};
    use bio_sim::SimDuration;

    #[test]
    fn zero_traces_report_zero_rows_for_every_stack() {
        let report = run(0);
        assert_eq!(report.rows.len(), 6);
        assert!(report.rows.iter().all(|r| r.traces == 0 && r.images == 0));
        assert_eq!(report.total_points, 0);
        assert!(report.divergences.is_empty());
    }

    #[test]
    fn multi_lane_differential_aligns_and_agrees() {
        // The 2q×2dev group: every lane must have sequenced epochs, the
        // three stacks must align on at least 12 capture points by commit
        // count, and the verdicts at every aligned point must agree.
        let [_, group] = differential_cells(DeviceProfile::ufs());
        let cells: Vec<CellOutcome> = group
            .iter()
            .map(|(_, cfg, sync)| enumerate_trace_with(cfg.clone(), *sync, 0, CaptureMode::Delta))
            .collect();
        let per_stack: Vec<HashMap<usize, &PointOutcome>> = cells
            .iter()
            .map(|c| c.points.iter().map(|p| (p.commit_idx, p)).collect())
            .collect();
        let aligned: Vec<usize> = per_stack[0]
            .keys()
            .copied()
            .filter(|k| per_stack.iter().all(|m| m.contains_key(k)))
            .collect();
        assert!(
            aligned.len() >= 12,
            "only {} aligned multi-lane capture points",
            aligned.len()
        );
        for k in aligned {
            let verdicts: Vec<bool> = per_stack.iter().map(|m| m[&k].worst.is_some()).collect();
            assert!(
                verdicts.iter().all(|&v| v == verdicts[0]),
                "multi-lane divergence at commit {k}: {verdicts:?}"
            );
        }
        // Per-lane epoch capture hook: the barrier-issuing stack (BFS-DR)
        // must have released epochs on all four lanes.
        let (_, cfg, sync) = group[1].clone();
        let mut stack = trace_stack(cfg, sync, 0, TRACE_OPS);
        stack.run_until_done(SimDuration::from_secs(10));
        let lanes = stack.report().lanes;
        assert_eq!(lanes.len(), 4);
        assert!(
            lanes.iter().all(|l| l.epochs_released > 0),
            "idle lane in 2q×2dev trace: {:?}",
            lanes.iter().map(|l| l.epochs_released).collect::<Vec<_>>()
        );
    }
}
