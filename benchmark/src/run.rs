//! Running cells and passes: construct → populate → simulated warm-up →
//! timed window → report → crash audit, with every phase timed from
//! outside the simulator.
//!
//! Only the window is "the measurement"; everything else of a pass is
//! set-up. A cell that panics (a model `panic!` such as the FTL running
//! out of space) fails that cell's planned ops instead of the run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use barrier_io::{IoStack, OpKind, SimDuration, StackReport};
use bio_bench::crash::{enumerate_trace_with, CaptureMode, PointOutcome};
use bio_sim::{LatencyHistogram, LatencySummary, SimRng};

use crate::cells::{crash_stacks, Cell, Sizes, Stack, TxnUnit, Window, DONE_CAP};
use crate::yardstick::Yardstick;

/// Steps at least this slow count towards `core.slow_step_share` (the
/// step-time histogram is bimodal around it).
pub const SLOW_STEP_NS: u64 = 4_000;

/// How a cell's window is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// `run_for` / `run_until_done` — the untraced runs.
    Batch,
    /// One `IoStack::step()` at a time, each step timed.
    Step,
}

/// Host-time of each phase of one cell, with the phase's start as an
/// offset from the process epoch (for the Chrome trace).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// When the cell started.
    pub start: Duration,
    /// `IoStack::new`.
    pub construct: Duration,
    /// File pre-creation, thread set-up and the simulated warm-up.
    pub warmup: Duration,
    /// The timed window.
    pub window: Duration,
    /// `IoStack::report`.
    pub report: Duration,
    /// `IoStack::crash` (persisted image + consistency audits).
    pub audit: Duration,
}

/// Per-step host times of a step-driven window.
#[derive(Debug, Clone)]
pub struct StepTrace {
    /// Host nanoseconds per step; its count is the number of `step()`
    /// calls that returned true inside the window.
    pub hist: LatencyHistogram,
    /// Host nanoseconds spent in steps of at least [`SLOW_STEP_NS`].
    pub slow_ns: u64,
    /// Host nanoseconds over all steps.
    pub total_ns: u64,
}

/// One completed cell.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Phase timings.
    pub times: PhaseTimes,
    /// The stack's report over the window.
    pub report: StackReport,
    /// False when an `UntilDone` window hit its simulated-time cap.
    pub finished: bool,
    /// Filesystem-level violations of the post-window crash audit.
    pub fs_violations: usize,
    /// Device-level epoch violations (history-recording runs only).
    pub epoch_violations: usize,
    /// Step timings (step-driven runs only).
    pub steps: Option<StepTrace>,
}

/// True for the op kinds counted as ops: every completed syscall, not
/// think time or transaction marks.
pub fn is_syscall(kind: OpKind) -> bool {
    !matches!(kind, OpKind::Think | OpKind::TxnMark)
}

/// What a cell's report says in model terms.
#[derive(Debug, Clone, Copy)]
pub struct CellModel {
    /// Completed syscalls (every op kind except think time and marks).
    pub ops: u64,
    /// Completed sync calls (fsync/fdatasync/fbarrier/fdatabarrier).
    pub syncs: u64,
    /// Application transactions.
    pub txns: u64,
    /// Context switches inside sync calls.
    pub sync_ctx_switches: f64,
    /// Simulated seconds of the window.
    pub sim_s: f64,
    /// Sync-call latency, issue → wake.
    pub sync: LatencySummary,
}

impl CellModel {
    /// Reads the model numbers out of a report.
    pub fn of(cell: &Cell, r: &StackReport) -> CellModel {
        let mut m = CellModel {
            ops: 0,
            syncs: 0,
            txns: r.run.txns,
            sync_ctx_switches: 0.0,
            sim_s: r.run.elapsed.as_secs_f64(),
            sync: r.run.sync_latency,
        };
        for op in &r.run.ops {
            if !is_syscall(op.kind) {
                continue;
            }
            m.ops += op.count;
            if OpKind::SYNC.contains(&op.kind) {
                m.syncs += op.count;
                m.sync_ctx_switches += op.switches_per_op * op.count as f64;
            }
            if cell.txn == TxnUnit::Write && op.kind == OpKind::Write {
                m.txns = op.count;
            }
        }
        m
    }

    /// Application transactions per simulated second.
    pub fn txn_per_sim_s(&self) -> f64 {
        if self.sim_s > 0.0 {
            self.txns as f64 / self.sim_s
        } else {
            0.0
        }
    }
}

/// Everything a report holds, rendered: two runs agree bit for bit exactly
/// when their fingerprints are equal (`StackReport` has no `PartialEq`;
/// `Debug` prints every counter and the shortest round-trip form of every
/// float).
pub fn fingerprint(r: &StackReport) -> String {
    format!("{r:?}")
}

/// Builds the cell's stack up to the start of its window.
fn prepare(cell: &Cell, seed: u64, history: bool, times: &mut PhaseTimes) -> IoStack {
    let mut cfg = cell.cfg.clone().with_seed(seed);
    if history {
        cfg = cfg.with_history();
    }
    let t = Instant::now();
    let mut stack = IoStack::new(cfg);
    times.construct = t.elapsed();
    let t = Instant::now();
    for _ in 0..cell.global_files {
        stack.create_global_file();
    }
    if let Some(prefill) = &cell.prefill {
        for w in prefill() {
            stack.add_thread(w);
        }
        // A prefill that outlives the cap leaves the device less aged;
        // the window still runs and its report says so (no GC).
        stack.run_until_done(DONE_CAP);
    }
    for w in (cell.threads)() {
        stack.add_thread(w);
    }
    stack.run_for(cell.warmup);
    stack.start_measuring();
    times.warmup = t.elapsed();
    stack
}

/// Report and crash audit after the window.
fn finish(stack: &IoStack, times: PhaseTimes, finished: bool, steps: Option<StepTrace>) -> CellRun {
    let mut times = times;
    let t = Instant::now();
    let report = stack.report();
    times.report = t.elapsed();
    let t = Instant::now();
    let crash = stack.crash();
    times.audit = t.elapsed();
    CellRun {
        times,
        report,
        finished,
        fs_violations: crash.fs_violations.len(),
        epoch_violations: crash.epoch_violations.len(),
        steps,
    }
}

/// Steps `stack` through its window. `limit` bounds the number of steps
/// (replay of a known event count); without it the window's own end
/// applies. Returns `(events, finished)`; when `trace` is given every step
/// is timed into it.
fn step_window(
    stack: &mut IoStack,
    window: Window,
    limit: Option<u64>,
    mut trace: Option<&mut StepTrace>,
) -> (u64, bool) {
    let start = stack.now();
    let deadline = match window {
        Window::For(d) => start + d,
        Window::UntilDone => start + DONE_CAP,
    };
    let mut events = 0u64;
    loop {
        if limit.is_some_and(|n| events >= n) {
            return (events, true);
        }
        if matches!(window, Window::UntilDone) && stack.workloads_finished() {
            return (events, true);
        }
        let t = Instant::now();
        let more = stack.step();
        let ns = t.elapsed().as_nanos() as u64;
        // `step()` cannot look ahead, so the first event past the deadline
        // has already run: it is not part of the window. Either way a fixed
        // window is over, and an `UntilDone` one did not finish.
        if !more || stack.now() > deadline {
            return (events, matches!(window, Window::For(_)));
        }
        events += 1;
        if let Some(tr) = trace.as_deref_mut() {
            tr.hist.record(SimDuration::from_nanos(ns));
            tr.total_ns += ns;
            if ns >= SLOW_STEP_NS {
                tr.slow_ns += ns;
            }
        }
    }
}

fn run_cell_unguarded(
    cell: &Cell,
    seed: u64,
    drive: Drive,
    history: bool,
    epoch: Instant,
) -> CellRun {
    let mut times = PhaseTimes {
        start: epoch.elapsed(),
        ..PhaseTimes::default()
    };
    let mut stack = prepare(cell, seed, history, &mut times);
    match drive {
        Drive::Batch => {
            let t = Instant::now();
            let finished = match cell.window {
                Window::For(d) => {
                    stack.run_for(d);
                    true
                }
                Window::UntilDone => stack.run_until_done(DONE_CAP),
            };
            times.window = t.elapsed();
            finish(&stack, times, finished, None)
        }
        Drive::Step => {
            let mut trace = StepTrace {
                hist: LatencyHistogram::new(),
                slow_ns: 0,
                total_ns: 0,
            };
            let t = Instant::now();
            let (events, finished) = step_window(&mut stack, cell.window, None, Some(&mut trace));
            times.window = t.elapsed();
            if matches!(cell.window, Window::For(_)) {
                // The stepped stack ran one event past its deadline, so
                // its state is not the window's. Replay exactly `events`
                // steps on a fresh stack (determinism makes it the same
                // prefix) and report from that one.
                let mut scratch = PhaseTimes::default();
                let mut replay = prepare(cell, seed, history, &mut scratch);
                step_window(&mut replay, cell.window, Some(events), None);
                return finish(&replay, times, finished, Some(trace));
            }
            finish(&stack, times, finished, Some(trace))
        }
    }
}

/// Runs one cell; a panic inside the simulator becomes `Err(message)`.
pub fn run_cell(
    cell: &Cell,
    seed: u64,
    drive: Drive,
    history: bool,
    epoch: Instant,
) -> Result<CellRun, String> {
    catch_unwind(AssertUnwindSafe(|| {
        run_cell_unguarded(cell, seed, drive, history, epoch)
    }))
    .map_err(panic_message)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic with a non-string payload".to_string())
}

/// Ops a cell would complete: its threads' op streams drained (count-bound
/// workloads only — a fixed-window cell's op count is an outcome, not a
/// plan).
pub fn planned_ops(cell: &Cell) -> Option<u64> {
    if matches!(cell.window, Window::For(_)) {
        return None;
    }
    let mut n = 0u64;
    for mut w in (cell.threads)() {
        let mut rng = SimRng::new(0);
        while let Some(op) = w.next_op(&mut rng) {
            n += u64::from(is_syscall(op.kind()));
        }
    }
    Some(n)
}

/// One enumerated crash trace.
#[derive(Debug, Clone)]
pub struct CrashTrace {
    /// Index into [`crash_stacks`].
    pub stack: usize,
    /// The trace's seed.
    pub seed: u64,
    /// Host time of driving and enumerating the trace.
    pub wall: Duration,
    /// Capture-point outcomes in commit order, or the panic message.
    pub points: Result<Vec<PointOutcome>, String>,
}

/// The timed part of a `crash_enum` pass.
#[derive(Debug, Clone)]
pub struct CrashPass {
    /// Host time from the first trace to the last (yardstick slices
    /// between the stacks included).
    pub wall: Duration,
    /// When the enumeration started (offset from the process epoch).
    pub start: Duration,
    /// Every trace, stack-major then seed order.
    pub traces: Vec<CrashTrace>,
}

/// Trace seeds verified clean (no violation on any of the six differential
/// stacks) at the commit this benchmark was written against: `0..360`.
/// Outside it the explorer does find tears — trace seeds 376 and 207005 on
/// BFS-OD 2q×2dev (README, "Findings") — and a workload must not fail.
pub const CLEAN_TRACE_SEEDS: u64 = 360;

/// Seeds of the `n` traces a run with `seed` enumerates: a block of `n`
/// consecutive seeds inside [`CLEAN_TRACE_SEEDS`], chosen by the run's
/// seed.
pub fn crash_trace_seeds(seed: u64, n: u64) -> impl Iterator<Item = u64> {
    let n = n.clamp(1, CLEAN_TRACE_SEEDS);
    let first = (seed % (CLEAN_TRACE_SEEDS / n)) * n;
    first..first + n
}

fn run_crash_pass(
    seed: u64,
    sizes: Sizes,
    epoch: Instant,
    mut yard: Option<&mut Yardstick>,
) -> CrashPass {
    let start = epoch.elapsed();
    let t = Instant::now();
    let mut traces = Vec::new();
    for (si, cs) in crash_stacks().into_iter().enumerate() {
        if let Some(y) = yard.as_deref_mut() {
            y.tick();
        }
        for trace_seed in crash_trace_seeds(seed, sizes.crash_traces()) {
            let cfg = cs.cfg.clone();
            let t_trace = Instant::now();
            let points = catch_unwind(AssertUnwindSafe(|| {
                enumerate_trace_with(cfg, cs.sync, trace_seed, CaptureMode::Delta).points
            }))
            .map_err(panic_message);
            traces.push(CrashTrace {
                stack: si,
                seed: trace_seed,
                wall: t_trace.elapsed(),
                points,
            });
        }
    }
    CrashPass {
        wall: t.elapsed(),
        start,
        traces,
    }
}

/// One pass over a workload's cells.
pub struct Pass {
    /// Host time of the whole pass.
    pub wall: Duration,
    /// When the pass started (offset from the process epoch).
    pub start: Duration,
    /// One entry per cell, in cell order.
    pub cells: Vec<Result<CellRun, String>>,
    /// The enumeration (`crash_enum` only).
    pub crash: Option<CrashPass>,
}

impl Pass {
    /// Host time of the pass's timed windows: the window of every
    /// completed cell, or on `crash_enum` the enumerated traces (its cells
    /// are the model reference and count as set-up whole).
    pub fn window(&self) -> Duration {
        match &self.crash {
            Some(crash) => crash.traces.iter().map(|t| t.wall).sum(),
            None => self.cells.iter().flatten().map(|c| c.times.window).sum(),
        }
    }
}

/// Runs every cell of `workload` once at `sizes`. With a yardstick, one
/// slice of it is timed before every cell and every crash stack; the
/// slices are part of `wall`.
#[allow(clippy::too_many_arguments)]
pub fn run_pass(
    workload: &str,
    cells: &[Cell],
    seed: u64,
    sizes: Sizes,
    drive: Drive,
    history: bool,
    epoch: Instant,
    mut yard: Option<&mut Yardstick>,
) -> Pass {
    let start = epoch.elapsed();
    let t = Instant::now();
    let runs = cells
        .iter()
        .map(|c| {
            if let Some(y) = yard.as_deref_mut() {
                y.tick();
            }
            run_cell(c, seed, drive, history, epoch)
        })
        .collect();
    let crash = (workload == "crash_enum" && drive == Drive::Batch && !history)
        .then(|| run_crash_pass(seed, sizes, epoch, yard));
    Pass {
        wall: t.elapsed(),
        start,
        cells: runs,
        crash,
    }
}

/// Cross-stack divergences of one pass's traces: at an aligned `(topology,
/// seed, commit)` one stack violated while a peer stayed clean — the fold
/// `bio_bench::crash::run` applies.
pub fn crash_divergences(traces: &[CrashTrace]) -> u64 {
    let stacks = crash_stacks();
    let mut divergences = 0u64;
    let mut variants: Vec<&str> = stacks.iter().map(|s| s.variant).collect();
    variants.dedup();
    for variant in variants {
        let group: Vec<usize> = (0..stacks.len())
            .filter(|&i| stacks[i].variant == variant)
            .collect();
        let mut seeds: Vec<u64> = traces.iter().map(|t| t.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        for seed in seeds {
            let per_stack: Vec<&Vec<PointOutcome>> = group
                .iter()
                .filter_map(|&si| {
                    traces
                        .iter()
                        .find(|t| t.stack == si && t.seed == seed)
                        .and_then(|t| t.points.as_ref().ok())
                })
                .collect();
            if per_stack.len() != group.len() {
                continue;
            }
            for p in per_stack[0] {
                let verdicts: Vec<bool> = per_stack
                    .iter()
                    .filter_map(|pts| pts.iter().find(|q| q.commit_idx == p.commit_idx))
                    .map(|q| q.worst.is_some())
                    .collect();
                if verdicts.len() == group.len()
                    && verdicts.iter().any(|&v| v)
                    && verdicts.iter().any(|&v| !v)
                {
                    divergences += verdicts.iter().filter(|&&v| v).count() as u64;
                }
            }
        }
    }
    divergences
}

/// Sums over the capture points of a pass's traces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashCounts {
    /// Distinct crash images checked exhaustively (the workload's ops).
    pub points: u64,
    /// Capture points (journal commits) visited.
    pub fork_points: u64,
    /// Images skipped by dedup.
    pub dedup_skipped: u64,
    /// Images found only by stratified sampling.
    pub sampled_images: u64,
    /// Capture points whose choice space was clamped.
    pub clamped_points: u64,
    /// Filesystem plus epoch violations over all images.
    pub violations: u64,
    /// Traces that panicked.
    pub failed_traces: u64,
}

impl CrashCounts {
    /// Folds a pass's traces.
    pub fn of(traces: &[CrashTrace]) -> CrashCounts {
        let mut c = CrashCounts::default();
        for t in traces {
            let Ok(points) = &t.points else {
                c.failed_traces += 1;
                continue;
            };
            c.fork_points += points.len() as u64;
            for p in points {
                c.points += p.images;
                c.dedup_skipped += p.duplicates;
                c.sampled_images += p.sampled_images;
                c.clamped_points += p.clamped as u64;
                c.violations += p.fs_violations + p.epoch_violations;
            }
        }
        c
    }
}

/// Stack of a cell as an index into [`Stack::REPORTED`], if reported.
pub fn reported_index(stack: Stack) -> Option<usize> {
    Stack::REPORTED.iter().position(|s| *s == stack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::cells;
    use barrier_io::{FileRef, FnWorkload, Op, Workload};

    fn smoke_cells(workload: &str) -> Vec<Cell> {
        cells(workload, Sizes { div: 64 }, 3).expect("known workload")
    }

    #[test]
    fn step_driving_reproduces_the_batch_report_on_both_window_kinds() {
        let epoch = Instant::now();
        // `sqlite_sync` cells run until done, `randwrite_qd` cells for a
        // fixed window (the replay path).
        for workload in ["sqlite_sync", "randwrite_qd"] {
            for cell in smoke_cells(workload).iter().take(3) {
                let batch = run_cell(cell, 3, Drive::Batch, false, epoch).unwrap();
                let stepped = run_cell(cell, 3, Drive::Step, false, epoch).unwrap();
                assert_eq!(
                    fingerprint(&batch.report),
                    fingerprint(&stepped.report),
                    "{workload} {}",
                    cell.label
                );
                let trace = stepped.steps.expect("step-driven runs carry a trace");
                assert!(trace.hist.count() > 0);
                assert!(trace.slow_ns <= trace.total_ns);
            }
        }
    }

    #[test]
    fn a_panicking_cell_fails_instead_of_aborting_the_run() {
        let mut cell = smoke_cells("sqlite_sync").remove(0);
        cell.threads = Box::new(|| {
            let mut n = 0;
            vec![Box::new(FnWorkload(move |_: &mut SimRng| {
                n += 1;
                assert!(n < 5, "model blew up");
                Some(Op::Write {
                    file: FileRef::Global(0),
                    offset: n,
                    blocks: 1,
                })
            })) as Box<dyn Workload>]
        });
        let err = run_cell(&cell, 1, Drive::Batch, false, Instant::now()).unwrap_err();
        assert!(err.contains("model blew up"), "{err}");
    }

    #[test]
    fn planned_ops_counts_syscalls_of_count_bound_cells_only() {
        let sqlite = smoke_cells("sqlite_sync").remove(0);
        let planned = planned_ops(&sqlite).expect("count-bound");
        let run = run_cell(&sqlite, 1, Drive::Batch, false, Instant::now()).unwrap();
        assert_eq!(planned, CellModel::of(&sqlite, &run.report).ops);
        assert_eq!(planned_ops(&smoke_cells("randwrite_qd")[0]), None);
    }

    #[test]
    fn a_cell_that_outlives_the_cap_is_reported_unfinished() {
        let mut cell = smoke_cells("sqlite_sync").remove(0);
        cell.threads = Box::new(|| {
            let script = vec![
                Op::Think {
                    dur: DONE_CAP + SimDuration::from_secs(1),
                },
                Op::TxnMark,
            ];
            vec![Box::new(barrier_io::ScriptWorkload::once(script)) as Box<dyn Workload>]
        });
        for drive in [Drive::Batch, Drive::Step] {
            let run = run_cell(&cell, 1, drive, false, Instant::now()).unwrap();
            assert!(!run.finished, "{drive:?}");
        }
    }

    fn trace(stack: usize, seed: u64, verdicts: &[bool]) -> CrashTrace {
        let points = verdicts
            .iter()
            .enumerate()
            .map(|(i, &bad)| PointOutcome {
                commit_idx: i,
                images: 2,
                duplicates: 0,
                sampled_images: 0,
                sampled_duplicates: 0,
                clamped: false,
                fs_violations: u64::from(bad),
                epoch_violations: 0,
                worst: bad.then(|| bio_bench::crash::ViolationCase {
                    choices: vec![1],
                    fs_violations: 1,
                    epoch_violations: 0,
                    detail: "torn".into(),
                }),
            })
            .collect();
        CrashTrace {
            stack,
            seed,
            wall: Duration::from_millis(1),
            points: Ok(points),
        }
    }

    #[test]
    fn divergence_is_a_verdict_that_differs_within_a_topology_group() {
        // Stacks 0..3 are the 1q1d group. All clean: no divergence.
        let clean: Vec<CrashTrace> = (0..3).map(|s| trace(s, 9, &[false, false])).collect();
        assert_eq!(crash_divergences(&clean), 0);
        // One stack violates at commit 1 while its peers stay clean.
        let mut split = clean.clone();
        split[2] = trace(2, 9, &[false, true]);
        assert_eq!(crash_divergences(&split), 1);
        // Everyone violating is a violation, not a divergence.
        let all_bad: Vec<CrashTrace> = (0..3).map(|s| trace(s, 9, &[true])).collect();
        assert_eq!(crash_divergences(&all_bad), 0);
        let counts = CrashCounts::of(&split);
        assert_eq!(
            (counts.points, counts.fork_points, counts.violations),
            (12, 6, 1)
        );
    }
}
