//! Differential: the same traces through EXT4-DR, BFS-DR and BFS-OD at
//! 1q×1dev and 2q×2dev, enumerated at every commit, with capture points
//! aligned across the stacks of one topology and any disagreement reported
//! as a minimized divergence. [`differential_cells`] is the table, [`run`]
//! enqueues it, `fold_seed` folds one group's traces of one seed as they
//! finish and `report` sums those folds into the [`CrashEnumReport`];
//! nothing here prints.

use barrier_io::{DeviceProfile, StackConfig, Topology};
use bio_workloads::SyncMode;

use super::capture::CaptureMode;
use super::enumerate::{enumerate_trace_with, CellOutcome, PointOutcome};
use crate::{render_table, ExperimentGrid};

/// One row of the differential: a stack, the sync call its trace issues,
/// and the group of rows it is compared with.
#[derive(Debug, Clone)]
pub struct DiffCell {
    /// Stack label (`EXT4-DR`, `BFS-DR/2x2`, ...).
    pub label: &'static str,
    /// Comparison group (`1q1d`, `2q2d`): divergences are only meaningful
    /// between stacks that shard blocks identically over the same device.
    /// The rows of a group are adjacent in the table.
    pub group: &'static str,
    /// The stack, history recording on.
    pub cfg: StackConfig,
    /// Sync flavour of the trace.
    pub sync: SyncMode,
}

/// Per-stack aggregate over all traces.
#[derive(Debug, Clone, Default)]
pub struct StackRow {
    /// Stack label (`EXT4-DR`, `BFS-DR/2x2`, ...).
    pub label: &'static str,
    /// Traces run.
    pub traces: u64,
    /// Capture points (journal commits) visited.
    pub capture_points: u64,
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

impl StackRow {
    /// The row of `label`: the sums over every capture point of `trace`.
    fn of(label: &'static str, trace: &CellOutcome) -> StackRow {
        let mut row = StackRow {
            label,
            traces: 1,
            ..StackRow::default()
        };
        for p in &trace.points {
            row.capture_points += 1;
            row.images += p.images;
            row.duplicates += p.duplicates;
            row.sampled_images += p.sampled_images;
            row.sampled_duplicates += p.sampled_duplicates;
            row.clamped_points += u64::from(p.clamped);
            row.fs_violations += p.fs_violations;
            row.epoch_violations += p.epoch_violations;
        }
        row
    }

    /// Adds `other`'s counters to this row's.
    fn absorb(&mut self, other: &StackRow) {
        // Destructured without `..`: a new counter cannot be left out.
        let StackRow {
            label: _,
            traces,
            capture_points,
            images,
            duplicates,
            sampled_images,
            sampled_duplicates,
            clamped_points,
            fs_violations,
            epoch_violations,
        } = *other;
        self.traces += traces;
        self.capture_points += capture_points;
        self.images += images;
        self.duplicates += duplicates;
        self.sampled_images += sampled_images;
        self.sampled_duplicates += sampled_duplicates;
        self.clamped_points += clamped_points;
        self.fs_violations += fs_violations;
        self.epoch_violations += epoch_violations;
    }

    /// The row's counters under their headers in the per-stack table.
    fn columns(&self) -> [(&'static str, u64); 9] {
        [
            ("traces", self.traces),
            ("capture points", self.capture_points),
            ("crash points", self.images),
            ("dedup-skipped", self.duplicates),
            ("sampled", self.sampled_images),
            ("sampled-dup", self.sampled_duplicates),
            ("clamped", self.clamped_points),
            ("fs violations", self.fs_violations),
            ("epoch violations", self.epoch_violations),
        ]
    }

    fn column(&self, header: &str) -> Option<u64> {
        self.columns().iter().find(|c| c.0 == header).map(|c| c.1)
    }
}

/// A cross-stack divergence: at an aligned `(trace, capture point)` this
/// stack violated while a peer stayed clean, minimized to the smallest
/// reordering choice that still violates.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Per-stack aggregates, in [`differential_cells`] order.
    pub rows: Vec<StackRow>,
    /// Cross-stack divergences (empty = all stacks agree).
    pub divergences: Vec<DivergenceTriple>,
}

impl CrashEnumReport {
    /// The number at row `stack` (its label), column `column` (its header
    /// in the per-stack table).
    pub fn value(&self, stack: &str, column: &str) -> Option<u64> {
        self.rows.iter().find(|r| r.label == stack)?.column(column)
    }

    /// Column `column` summed over the stacks: `"crash points"` is the
    /// total of distinct crash points explored exhaustively.
    pub fn total(&self, column: &str) -> u64 {
        self.rows.iter().filter_map(|r| r.column(column)).sum()
    }

    /// What `figures --crash-enum` prints: the per-stack table, the totals
    /// and sampled-vs-exhaustive coverage lines, and the first ten
    /// divergences as a table when there are any.
    pub fn render(&self) -> String {
        let headers = StackRow::default().columns().map(|(name, _)| name);
        let header: Vec<&str> = std::iter::once("stack").chain(headers).collect();
        let line = |r: &StackRow| {
            let mut line = vec![r.label.to_string()];
            line.extend(r.columns().map(|(_, number)| number.to_string()));
            line
        };
        let rows: Vec<Vec<String>> = self.rows.iter().map(line).collect();
        let mut out = render_table(
            "Crash enumeration — exhaustive per-epoch crash images (differential)",
            &header,
            &rows,
        );
        out.push_str(&format!(
            "total crash points explored: {}; cross-stack divergences: {}\n\
             stratified sampling: {} extra images past the clamp \
             ({} draws deduplicated, {} clamped points)\n",
            self.total("crash points"),
            self.divergences.len(),
            self.total("sampled"),
            self.total("sampled-dup"),
            self.total("clamped")
        ));
        if !self.divergences.is_empty() {
            let line = |d: &DivergenceTriple| {
                vec![
                    d.stack.to_string(),
                    d.seed.to_string(),
                    d.commit_idx.to_string(),
                    format!("{:?}", d.choices),
                    d.detail.clone(),
                ]
            };
            let rows: Vec<Vec<String>> = self.divergences.iter().take(10).map(line).collect();
            out.push_str(&render_table(
                "Cross-stack divergences (minimized reordering triples)",
                &[
                    "stack",
                    "trace seed",
                    "capture point",
                    "choice",
                    "first violation",
                ],
                &rows,
            ));
        }
        out
    }
}

/// The differential's rows: the flush-based baseline and the two BarrierFS
/// disciplines must agree on the paper's barrier UFS, at 1q×1dev and again
/// at 2q×2dev, stripe 16. History recording is on in every row. A new
/// stack, device or topology is one more row here, next to the rows it
/// must agree with (same `group`); then regenerate
/// `tests/golden/crash_enum.txt`.
pub fn differential_cells() -> Vec<DiffCell> {
    let dev = DeviceProfile::ufs;
    let (single, striped) = (Topology::single(), Topology::new(2, 2, 16));
    let (dr, bfs) = (StackConfig::ext4_dr, StackConfig::bfs);
    let od = |dev| StackConfig::bfs(dev).ordering_only();
    let (fsync, fbarrier) = (SyncMode::Fsync, SyncMode::Fbarrier);
    let row = |label, group, cfg: StackConfig, topology, sync| DiffCell {
        label,
        group,
        cfg: cfg.with_history().with_topology(topology),
        sync,
    };
    vec![
        row("EXT4-DR", "1q1d", dr(dev()), single, fsync),
        row("BFS-DR", "1q1d", bfs(dev()), single, fsync),
        row("BFS-OD", "1q1d", od(dev()), single, fbarrier),
        row("EXT4-DR/2x2", "2q2d", dr(dev()), striped, fsync),
        row("BFS-DR/2x2", "2q2d", bfs(dev()), striped, fsync),
        row("BFS-OD/2x2", "2q2d", od(dev()), striped, fbarrier),
    ]
}

/// Runs the differential crash enumeration: every row of
/// [`differential_cells`] over trace seeds `0..traces`, sharded across the
/// grid pool one group and seed per cell. A cell runs the seed's trace
/// through each stack of its group and folds the traces before it
/// returns, so what the run holds grows with seeds × stacks, not with
/// capture points.
pub fn run(traces: u64) -> CrashEnumReport {
    let cells = differential_cells();
    let mut grid = ExperimentGrid::new();
    for group in cells.chunk_by(|a, b| a.group == b.group) {
        for seed in 0..traces {
            let group = group.to_vec();
            let label = format!("crashenum/{}/seed{seed}", group[0].group);
            grid.push(label, move || {
                let traces: Vec<CellOutcome> = group
                    .iter()
                    .map(|c| enumerate_trace_with(c.cfg.clone(), c.sync, seed, CaptureMode::Delta))
                    .collect();
                fold_seed(&group, seed, &traces)
            });
        }
    }
    report(&cells, grid.run())
}

/// What one group's traces of one seed add to the report: each stack's
/// row over its trace, and the divergences among them.
#[derive(Debug)]
struct SeedFold {
    rows: Vec<StackRow>,
    divergences: Vec<DivergenceTriple>,
}

/// Folds `traces`, the trace of `seed` through each stack of `group` in
/// order. A row's counters are the sums over its points. The stacks'
/// capture points are aligned by commit count; an aligned point where some
/// stack violates while another stays clean is a divergence for each
/// violating stack.
fn fold_seed(group: &[DiffCell], seed: u64, traces: &[CellOutcome]) -> SeedFold {
    assert_eq!(group.len(), traces.len(), "one trace per stack");
    let points: Vec<&[PointOutcome]> = traces.iter().map(|t| &*t.points).collect();
    let mut divergences = Vec::new();
    for point in aligned(&points) {
        // Nobody disagrees unless some stack stayed clean here.
        if point.iter().all(|p| p.worst.is_some()) {
            continue;
        }
        for (cell, p) in group.iter().zip(point) {
            if let Some(case) = &p.worst {
                divergences.push(DivergenceTriple {
                    seed,
                    commit_idx: p.commit_idx,
                    stack: cell.label,
                    choices: case.choices.clone(),
                    detail: case.detail.clone(),
                });
            }
        }
    }
    let rows = group
        .iter()
        .zip(traces)
        .map(|(cell, trace)| StackRow::of(cell.label, trace))
        .collect();
    SeedFold { rows, divergences }
}

/// The report over `cells` from `folds`, which come group by group in
/// table order and seed by seed within a group: each row sums its stack's
/// folds, and the divergences keep that order.
fn report(cells: &[DiffCell], folds: impl IntoIterator<Item = SeedFold>) -> CrashEnumReport {
    let empty = |c: &DiffCell| StackRow {
        label: c.label,
        ..StackRow::default()
    };
    let mut rows: Vec<StackRow> = cells.iter().map(empty).collect();
    let mut divergences = Vec::new();
    for fold in folds {
        for part in &fold.rows {
            if let Some(row) = rows.iter_mut().find(|r| r.label == part.label) {
                row.absorb(part);
            }
        }
        divergences.extend(fold.divergences);
    }
    CrashEnumReport { rows, divergences }
}

/// The capture points every one of `stacks` reached, one `PointOutcome`
/// per stack each, by ascending commit count. Each list is one trace's
/// points in capture order, so its `commit_idx` only grows and the lists
/// are walked in step: per point of the first, each peer skips what is
/// older and must then stand at the same commit.
fn aligned<'a>(stacks: &[&'a [PointOutcome]]) -> Vec<Vec<&'a PointOutcome>> {
    let Some((first, peers)) = stacks.split_first() else {
        return Vec::new();
    };
    let mut peers: Vec<_> = peers.iter().map(|s| s.iter().peekable()).collect();
    let reached_by_all = |p: &'a PointOutcome| {
        let mut point = vec![p];
        for peer in &mut peers {
            while peer.next_if(|q| q.commit_idx < p.commit_idx).is_some() {}
            point.push(peer.next_if(|q| q.commit_idx == p.commit_idx)?);
        }
        Some(point)
    };
    first.iter().filter_map(reached_by_all).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::capture::{trace_stack, TRACE_OPS};
    use crate::crash::ViolationCase;
    use bio_sim::SimDuration;

    fn group(name: &str) -> Vec<DiffCell> {
        let mut cells = differential_cells();
        cells.retain(|c| c.group == name);
        cells
    }

    /// A one-image point at `commit_idx`, violating or clean.
    fn point(commit_idx: usize, violates: bool) -> PointOutcome {
        PointOutcome {
            commit_idx,
            images: 1,
            duplicates: 0,
            sampled_images: 0,
            sampled_duplicates: 0,
            clamped: false,
            fs_violations: u64::from(violates),
            epoch_violations: 0,
            worst: violates.then(|| ViolationCase {
                choices: vec![1],
                fs_violations: 1,
                epoch_violations: 0,
                detail: "forged".into(),
            }),
        }
    }

    /// The report of `outcomes`: `outcomes[i][j]` is what row `cells[i]`
    /// made of the trace of `seeds[j]`, folded as `run` folds them.
    fn fold(cells: &[DiffCell], seeds: &[u64], outcomes: &[Vec<CellOutcome>]) -> CrashEnumReport {
        assert_eq!(cells.len(), outcomes.len(), "one outcome list per row");
        let mut folds = Vec::new();
        let mut first = 0;
        for group in cells.chunk_by(|a, b| a.group == b.group) {
            let rows = &outcomes[first..first + group.len()];
            for (j, &seed) in seeds.iter().enumerate() {
                let traces: Vec<CellOutcome> = rows.iter().map(|t| t[j].clone()).collect();
                folds.push(fold_seed(group, seed, &traces));
            }
            first += group.len();
        }
        report(cells, folds)
    }

    /// One trace (seed 7) per stack of the 1q1d group, from per-stack
    /// `(commit_idx, violates)` lists, folded.
    fn folded(stacks: [&[(usize, bool)]; 3]) -> CrashEnumReport {
        let trace = |points: &[(usize, bool)]| {
            let points = points.iter().map(|&(k, v)| point(k, v)).collect();
            vec![CellOutcome { points }]
        };
        fold(&group("1q1d"), &[7], &stacks.map(trace))
    }

    #[test]
    fn zero_traces_report_zero_rows_for_every_stack() {
        let report = run(0);
        assert_eq!(report.rows.len(), 6);
        assert!(report.rows.iter().all(|r| r.traces == 0 && r.images == 0));
        assert_eq!(report.total("crash points"), 0);
        assert!(report.divergences.is_empty());
    }

    #[test]
    fn one_violating_stack_at_an_aligned_point_is_one_divergence() {
        let clean = [(1, false), (2, false)];
        let report = folded([&clean, &[(1, false), (2, true)], &clean]);
        let triple = DivergenceTriple {
            seed: 7,
            commit_idx: 2,
            stack: "BFS-DR",
            choices: vec![1],
            detail: "forged".into(),
        };
        assert_eq!(report.divergences, [triple]);
        assert_eq!(report.value("BFS-DR", "fs violations"), Some(1));
        assert_eq!(report.value("BFS-OD", "fs violations"), Some(0));
        assert_eq!(report.value("BFS-DR", "no such column"), None);
        assert_eq!(report.value("no such stack", "traces"), None);
        let text = report.render();
        assert!(text.contains("cross-stack divergences: 1\n"), "{text}");
        let table = "== Cross-stack divergences (minimized reordering triples) ==\n";
        let (_, rows) = text.split_once(table).expect("a divergence table");
        let cells: Vec<&str> = rows.lines().nth(1).unwrap().split_whitespace().collect();
        assert_eq!(cells, ["BFS-DR", "7", "2", "[1]", "forged"]);
    }

    #[test]
    fn stacks_that_all_violate_or_all_stay_clean_do_not_diverge() {
        for verdict in [true, false] {
            let same = [(1, false), (2, verdict)];
            let report = folded([&same, &same, &same]);
            assert!(report.divergences.is_empty(), "{:?}", report.divergences);
            assert!(!report.render().contains("Cross-stack divergences"));
        }
    }

    #[test]
    fn a_point_one_stack_never_reached_is_not_aligned() {
        // Commit 2 violates on BFS-DR and is clean on EXT4-DR, but BFS-OD
        // has no capture there: no three-way verdict, no divergence.
        let report = folded([
            &[(1, false), (2, false), (3, false)],
            &[(1, false), (2, true), (3, false)],
            &[(1, false), (3, false)],
        ]);
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert_eq!(report.value("BFS-DR", "capture points"), Some(3));
        assert_eq!(report.value("BFS-OD", "capture points"), Some(2));
    }

    #[test]
    fn verdicts_are_compared_within_a_topology_group_only() {
        // Every 2q2d stack violates at commit 1 and every 1q1d stack is
        // clean there: the groups disagree, no group does.
        let trace = |violates| {
            vec![CellOutcome {
                points: vec![point(1, violates)],
            }]
        };
        let cells = differential_cells();
        let outcomes: Vec<_> = cells.iter().map(|c| trace(c.group == "2q2d")).collect();
        let report = fold(&cells, &[0], &outcomes);
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert_eq!(report.value("BFS-OD/2x2", "fs violations"), Some(1));
    }

    #[test]
    fn trace_seed_376_is_the_known_striped_bfs_od_divergence() {
        // ROADMAP item 2(a): BFS-OD tears a transaction on 2q×2dev. Closing
        // that item makes this trace clean — flip the expectation to "no
        // divergence" in the same PR.
        let cells = group("2q2d");
        let outcomes: Vec<_> = cells
            .iter()
            .map(|c| {
                vec![enumerate_trace_with(
                    c.cfg.clone(),
                    c.sync,
                    376,
                    CaptureMode::Delta,
                )]
            })
            .collect();
        let report = fold(&cells, &[376], &outcomes);
        let triple = DivergenceTriple {
            seed: 376,
            commit_idx: 100,
            stack: "BFS-OD/2x2",
            choices: vec![16, 0],
            detail: "TornTransaction { txn: 11 }".into(),
        };
        assert_eq!(report.divergences, [triple]);
    }

    #[test]
    fn multi_lane_differential_aligns_and_agrees() {
        // The 2q×2dev group: every lane must have sequenced epochs, the
        // three stacks must align on at least 12 capture points by commit
        // count, and the verdicts at every aligned point must agree.
        let cells = group("2q2d");
        let outcomes: Vec<_> = cells
            .iter()
            .map(|c| {
                vec![enumerate_trace_with(
                    c.cfg.clone(),
                    c.sync,
                    0,
                    CaptureMode::Delta,
                )]
            })
            .collect();
        let points: Vec<&[PointOutcome]> =
            outcomes.iter().map(|t| t[0].points.as_slice()).collect();
        let aligned = aligned(&points).len();
        assert!(
            aligned >= 12,
            "only {aligned} aligned multi-lane capture points"
        );
        let report = fold(&cells, &[0], &outcomes);
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        // Per-lane epoch capture hook: the barrier-issuing stack (BFS-DR)
        // must have released epochs on all four lanes.
        let bfs_dr = cells.iter().find(|c| c.label == "BFS-DR/2x2").unwrap();
        let mut stack = trace_stack(bfs_dr.cfg.clone(), bfs_dr.sync, 0, TRACE_OPS);
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
