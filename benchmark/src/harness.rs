//! One run of one workload: the untraced timed run (end-to-end metrics)
//! or the traced run (per-layer metrics), each with its correctness
//! checks and failure accounting.

use std::time::{Duration, Instant};

use crate::cells::{cells, Cell, Sizes, Stack};
use crate::json::Json;
use crate::metrics::{self, dropped, fold_cells, model_metrics, sync_tails, MetricDef, Values};
use crate::probes;
use crate::reduce::{median, Tail};
use crate::run::{
    crash_divergences, fingerprint, planned_ops, run_pass, CellModel, CrashCounts, Drive, Pass,
};
use crate::yardstick::Yardstick;

/// Timed passes every run makes, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// Parameters of one run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input (`StackConfig::with_seed`, crash
    /// trace seeds).
    pub seed: u64,
    /// Host seconds the timed passes fill.
    pub seconds: f64,
    /// 1/16-size cells, for tests.
    pub smoke: bool,
}

impl RunSpec {
    fn sizes(&self) -> Sizes {
        Sizes {
            div: if self.smoke { 16 } else { 1 },
        }
    }
}

/// The result of one run, in the shape the driver reads.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Ops attempted over the timed passes (completed + failed).
    pub attempted: u64,
    /// Ops that failed: planned ops of a panicked or capped cell, dropped
    /// events, failed crash traces.
    pub failed: u64,
    /// `(definition, value)` in table order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Free-form facts for the run log (pass count, tails used, ...).
    pub notes: Vec<String>,
    /// Chrome-trace events (traced runs only).
    pub spans: Vec<Json>,
}

impl Outcome {
    /// The driver's result line.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(d, v)| {
                    (
                        d.name.clone(),
                        Json::obj([("value", Json::Num(*v)), ("unit", Json::str(d.unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Accumulates check failures and failed-op counts across passes.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Ledger {
    fn problem(&mut self, msg: String) {
        if !self.problems.contains(&msg) {
            self.problems.push(msg);
        }
    }

    /// Books one pass: completed and failed ops, audits, completion.
    fn book_pass(&mut self, cells: &[Cell], pass: &Pass, history: bool) {
        for (c, run) in cells.iter().zip(&pass.cells) {
            match run {
                Err(msg) => {
                    let n = planned_ops(c).unwrap_or(1);
                    self.attempted += n;
                    self.failed += n;
                    self.problem(format!("cell {} panicked: {msg}", c.label));
                }
                Ok(run) => {
                    let m = CellModel::of(c, &run.report);
                    let mut failed = dropped(&run.report);
                    if !run.finished {
                        let planned = planned_ops(c).unwrap_or(m.ops + 1);
                        failed += planned.saturating_sub(m.ops).max(1);
                        self.problem(format!("cell {} hit its simulated-time cap", c.label));
                    }
                    if failed > 0 {
                        self.problem(format!("cell {}: {failed} ops failed or dropped", c.label));
                    }
                    self.attempted += m.ops + failed;
                    self.failed += failed;
                    // The repo's own tests hold the wall-clock crash audit
                    // clean on one device; across devices it reports
                    // violations at the parent commit (README, "Findings"),
                    // so there the count is pinned by the determinism check
                    // and reported as `core.audit_violations` instead.
                    if c.cfg.topology.nr_devices == 1 && run.fs_violations > 0 {
                        self.problem(format!(
                            "cell {}: {} filesystem violations in the post-window crash audit",
                            c.label, run.fs_violations
                        ));
                    }
                    if history && c.cfg.topology.nr_devices == 1 && run.epoch_violations > 0 {
                        self.problem(format!(
                            "cell {}: {} epoch-order violations in the crash audit",
                            c.label, run.epoch_violations
                        ));
                    }
                }
            }
        }
        if let Some(crash) = &pass.crash {
            let counts = CrashCounts::of(&crash.traces);
            self.attempted += counts.points + counts.failed_traces;
            self.failed += counts.failed_traces;
            if counts.failed_traces > 0 {
                self.problem(format!("{} crash traces panicked", counts.failed_traces));
            }
            if counts.violations > 0 {
                self.problem(format!(
                    "crash enumeration found {} violations",
                    counts.violations
                ));
            }
            let div = crash_divergences(&crash.traces);
            if div > 0 {
                self.problem(format!(
                    "crash enumeration found {div} cross-stack divergences"
                ));
            }
            if counts.points == 0 {
                self.problem("crash enumeration explored no points".into());
            }
        }
    }

    /// Model numbers must repeat bit for bit from pass to pass.
    fn check_identical(&mut self, cells: &[Cell], a: &Pass, b: &Pass, what: &str) {
        for ((c, ra), rb) in cells.iter().zip(&a.cells).zip(&b.cells) {
            match (ra, rb) {
                (Ok(ra), Ok(rb)) => {
                    if fingerprint(&ra.report) != fingerprint(&rb.report) {
                        self.problem(format!("cell {}: report differs {what}", c.label));
                    }
                }
                (Ok(_), Err(msg)) => {
                    self.problem(format!("cell {} panicked {what}: {msg}", c.label));
                }
                // A cell that failed in the first pass is already booked.
                (Err(_), _) => {}
            }
        }
        if let (Some(ca), Some(cb)) = (&a.crash, &b.crash) {
            if CrashCounts::of(&ca.traces) != CrashCounts::of(&cb.traces) {
                self.problem(format!("crash-point counts differ {what}"));
            }
        }
    }
}

/// The paper-shape assertions: who wins, in which direction.
fn check_shapes(workload: &str, e2e: &Values, layer: &Values, problems: &mut Vec<String>) {
    let get = |v: &Values, k: &str| v.get(k).copied().unwrap_or(0.0);
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            problems.push(format!("shape: expected {what}"));
        }
    };
    if workload == "sqlite_sync" {
        let (e, d, o) = (
            get(e2e, "ext4_dr_txn_per_sim_s"),
            get(e2e, "bfs_dr_txn_per_sim_s"),
            get(e2e, "bfs_od_txn_per_sim_s"),
        );
        expect(
            o >= d && d >= e,
            "bfs_od >= bfs_dr >= ext4_dr Tx/s on sqlite_sync",
        );
        expect(
            get(layer, "fs.ctx_switches_per_sync.bfs_od")
                < get(layer, "fs.ctx_switches_per_sync.ext4_dr"),
            "fewer context switches per sync on BFS-OD than on EXT4-DR",
        );
    }
    if workload == "randwrite_qd" {
        expect(
            get(layer, "flash.mean_qd.bfs_od") > get(layer, "flash.mean_qd.ext4_dr"),
            "flash.mean_qd.bfs_od > flash.mean_qd.ext4_dr on randwrite_qd",
        );
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn pass_ops(cells: &[Cell], pass: &Pass) -> u64 {
    match &pass.crash {
        Some(c) => CrashCounts::of(&c.traces).points,
        None => cells
            .iter()
            .zip(&pass.cells)
            .filter_map(|(c, r)| r.as_ref().ok().map(|r| CellModel::of(c, &r.report).ops))
            .sum(),
    }
}

fn table(defs: Vec<MetricDef>, values: &Values) -> Vec<(MetricDef, f64)> {
    defs.into_iter()
        .map(|d| {
            let v = values.get(&d.name).copied().unwrap_or(0.0);
            (d, v)
        })
        .collect()
}

fn require_p99(tails: [Tail; 3], smoke: bool, ledger: &mut Ledger, notes: &mut Vec<String>) {
    for (s, t) in Stack::REPORTED.iter().zip(tails) {
        notes.push(format!("{} sync tail: {}", s.key(), t.label()));
        if t != Tail::P99 && !smoke {
            ledger.problem(format!(
                "{}: smallest cell supports only {} (p99 needs 1000 sync calls)",
                s.key(),
                t.label()
            ));
        }
    }
}

/// Runs the untimed quarter-size warm-up pass (pages in the allocator and
/// the code) and returns the full-size cells.
fn warmed_up_cells(spec: &RunSpec, epoch: Instant) -> Vec<Cell> {
    let sizes = spec.sizes();
    let warm = Sizes { div: sizes.div * 4 };
    let w = spec.workload.as_str();
    let warm_cells = cells(w, warm, spec.seed).expect("workload name checked by the caller");
    run_pass(
        w,
        &warm_cells,
        spec.seed,
        warm,
        Drive::Batch,
        false,
        epoch,
        None,
    );
    cells(w, sizes, spec.seed).expect("workload name checked by the caller")
}

/// Host times of one timed pass.
struct PassTimes {
    /// The pass from start to end, yardstick slices left out.
    wall: f64,
    /// Its timed windows.
    window: f64,
    /// The slices timed between its cells.
    yard: Yardstick,
}

impl PassTimes {
    fn of(pass: &Pass, yard: Yardstick) -> PassTimes {
        PassTimes {
            wall: pass.wall.saturating_sub(yard.total()).as_secs_f64(),
            window: pass.window().as_secs_f64(),
            yard,
        }
    }

    fn setup(&self) -> f64 {
        (self.wall - self.window).max(0.0)
    }
}

/// The untraced run: one quarter-size warm-up pass, then timed passes for
/// `seconds` (at least [`MIN_PASSES`]). Model metrics must be identical in
/// all of them.
pub fn timed_run(spec: &RunSpec, epoch: Instant) -> Outcome {
    let sizes = spec.sizes();
    let w = spec.workload.as_str();
    let cs = warmed_up_cells(spec, epoch);
    let mut ledger = Ledger::default();
    let timed_pass = || {
        let mut yard = Yardstick::default();
        let pass = run_pass(
            w,
            &cs,
            spec.seed,
            sizes,
            Drive::Batch,
            false,
            epoch,
            Some(&mut yard),
        );
        (pass, yard)
    };
    // Only the first pass (the reference the others are compared with) is
    // kept whole; of the rest, their timings. Memory, and with it
    // `peak_rss_mb` and the allocator's behaviour in later set-ups, must
    // not grow with the number of passes a fast or slow box fits in.
    let started = Instant::now();
    let (first, yard) = timed_pass();
    ledger.book_pass(&cs, &first, false);
    let mut times = vec![PassTimes::of(&first, yard)];
    while times.len() < MIN_PASSES || started.elapsed().as_secs_f64() < spec.seconds {
        let (pass, yard) = timed_pass();
        ledger.book_pass(&cs, &pass, false);
        ledger.check_identical(&cs, &first, &pass, "between timed passes");
        times.push(PassTimes::of(&pass, yard));
    }

    // Host times are read in reference seconds: each pass's times divided
    // by how slow the machine ran during that pass (`yardstick`), then the
    // median over the passes.
    let med = |f: &dyn Fn(&PassTimes) -> f64| {
        median(&times.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let window_ref = med(&|t| t.yard.window_ref_s(t.window));
    let mut values = Values::new();
    values.insert(
        "ops_per_ref_s".into(),
        pass_ops(&cs, &first) as f64 / window_ref.max(1e-9),
    );
    values.insert("setup_s".into(), med(&|t| t.yard.setup_ref_s(t.setup())));
    values.insert("peak_rss_mb".into(), peak_rss_mib());
    match model_metrics(&cs, &first.cells) {
        Some(m) => values.extend(m),
        None => ledger.problem("a stack has no completed cell or a zero model metric".into()),
    }
    let layer = fold_cells(&cs, &first.cells);
    check_shapes(w, &values, &layer, &mut ledger.problems);
    let mut notes = vec![format!(
        "{} timed passes; median pass {:.3} s, of which windows {:.3} s; machine slowdown {:.3} \
         (windows {window_ref:.3} ref_s)",
        times.len(),
        med(&|t| t.wall),
        med(&|t| t.window),
        med(&|t| t.yard.slowdown()),
    )];
    require_p99(
        sync_tails(&cs, &first.cells),
        spec.smoke,
        &mut ledger,
        &mut notes,
    );
    let metrics = table(metrics::end_to_end(), &values);
    for (d, v) in &metrics {
        if !(*v > 0.0 && v.is_finite()) {
            ledger.problem(format!("end-to-end metric {} reads {v}", d.name));
        }
    }
    Outcome {
        correct: ledger.problems.is_empty(),
        attempted: ledger.attempted.max(1),
        failed: ledger.failed,
        metrics,
        problems: ledger.problems,
        notes,
        spans: Vec::new(),
    }
}

/// One Chrome-trace complete event.
fn span(name: &str, cat: &str, start: Duration, dur: Duration, args: Json) -> Json {
    let us = |d: Duration| Json::Num(d.as_secs_f64() * 1e6);
    Json::obj([
        ("name", Json::str(name)),
        ("cat", Json::str(cat)),
        ("ph", Json::str("X")),
        ("ts", us(start)),
        ("dur", us(dur)),
        ("pid", Json::Num(1.0)),
        ("tid", Json::Num(1.0)),
        ("args", args),
    ])
}

/// Chrome-trace complete events of one pass: pass → cell → construct /
/// warm-up / window / report / audit. Every span of a cell carries the
/// cell's id.
fn pass_spans(workload: &str, name: &str, cells: &[Cell], pass: &Pass, out: &mut Vec<Json>) {
    out.push(span(
        name,
        "pass",
        pass.start,
        pass.wall,
        Json::obj([("workload", Json::str(workload))]),
    ));
    for (id, (c, run)) in cells.iter().zip(&pass.cells).enumerate() {
        let Ok(run) = run else { continue };
        let t = run.times;
        let args = || {
            Json::obj([
                ("cell", Json::Num(id as f64)),
                ("label", Json::str(&*c.label)),
            ])
        };
        let total = t.construct + t.warmup + t.window + t.report + t.audit;
        out.push(span(&c.label, "cell", t.start, total, args()));
        let mut at = t.start;
        for (phase, dur) in [
            ("construct", t.construct),
            ("warm-up", t.warmup),
            ("window", t.window),
            ("report", t.report),
            ("audit", t.audit),
        ] {
            out.push(span(phase, "phase", at, dur, args()));
            at += dur;
        }
    }
    if let Some(crash) = &pass.crash {
        out.push(span(
            "enumerate",
            "cell",
            crash.start,
            crash.wall,
            Json::obj([("traces", Json::Num(crash.traces.len() as f64))]),
        ));
    }
}

/// The traced run: an untraced pass (the baseline), a pass driven one
/// `IoStack::step()` at a time with every step timed, a pass with device
/// history on for the epoch audit, and the layer probes. The step-driven
/// and history-recording reports must equal the baseline's.
pub fn traced_run(spec: &RunSpec, epoch: Instant) -> Outcome {
    let sizes = spec.sizes();
    let w = spec.workload.as_str();
    let cs = warmed_up_cells(spec, epoch);
    let mut ledger = Ledger::default();
    let mut spans = Vec::new();

    let mut yard = Yardstick::default();
    let base = run_pass(
        w,
        &cs,
        spec.seed,
        sizes,
        Drive::Batch,
        false,
        epoch,
        Some(&mut yard),
    );
    ledger.book_pass(&cs, &base, false);
    pass_spans(w, "pass:untraced", &cs, &base, &mut spans);
    let stepped = run_pass(w, &cs, spec.seed, sizes, Drive::Step, false, epoch, None);
    ledger.check_identical(&cs, &base, &stepped, "between run_for and step() driving");
    pass_spans(w, "pass:stepped", &cs, &stepped, &mut spans);
    let audited = run_pass(w, &cs, spec.seed, sizes, Drive::Batch, true, epoch, None);
    ledger.book_pass(&cs, &audited, true);
    pass_spans(w, "pass:history", &cs, &audited, &mut spans);
    // History recording must not change the model. (On `crash_enum` every
    // pass already records history.)
    ledger.check_identical(&cs, &base, &audited, "with device history on");

    let mut v = fold_cells(&cs, &base.cells);
    let window = |p: &Pass| -> f64 {
        p.cells
            .iter()
            .flatten()
            .map(|c| c.times.window.as_secs_f64())
            .sum()
    };
    let (base_wall, step_wall) = (window(&base), window(&stepped));
    let (mut total_ns, mut slow_ns) = (0u64, 0u64);
    let mut hist = bio_sim::LatencyHistogram::new();
    for st in stepped
        .cells
        .iter()
        .flatten()
        .filter_map(|c| c.steps.as_ref())
    {
        total_ns += st.total_ns;
        slow_ns += st.slow_ns;
        hist.merge(&st.hist);
    }
    let events = hist.count() as f64;
    let ops = v.get("workloads.ops").copied().unwrap_or(0.0);
    let sim_s: f64 = cs
        .iter()
        .zip(&base.cells)
        .filter_map(|(c, r)| r.as_ref().ok().map(|r| CellModel::of(c, &r.report).sim_s))
        .sum();
    let stack_new_s: f64 = base
        .cells
        .iter()
        .flatten()
        .map(|c| c.times.construct.as_secs_f64())
        .sum();
    let probes_started = epoch.elapsed();
    let n = |full: u64| full / sizes.div;
    let mut named: Vec<(&str, f64)> = vec![
        ("core.events", events),
        ("core.events_per_op", events / ops.max(1.0)),
        ("core.step_ns_p50", hist.quantile(0.5).as_nanos() as f64),
        ("core.step_ns_p99", hist.quantile(0.99).as_nanos() as f64),
        ("core.step_ns_mean", total_ns as f64 / events.max(1.0)),
        (
            "core.slow_step_share",
            slow_ns as f64 / total_ns.max(1) as f64,
        ),
        ("core.sim_s_per_wall_s", sim_s / base_wall.max(1e-9)),
        // The end-to-end `ops_per_ref_s` uncorrected, and the correction.
        (
            "core.ops_per_wall_s",
            pass_ops(&cs, &base) as f64 / base.window().as_secs_f64().max(1e-9),
        ),
        ("core.machine_slowdown", yard.slowdown()),
        ("core.trace_overhead", step_wall / base_wall.max(1e-9)),
        ("core.stack_new_s", stack_new_s),
        (
            "workloads.next_op_ns",
            probes::next_op_ns(&cs, spec.seed, n(20_000)),
        ),
        ("fs.syscall_ns", probes::fs_syscall_ns(n(20_000))),
        ("block.req_ns", probes::block_req_ns(n(20_000))),
        ("flash.cmd_ns", probes::flash_cmd_ns(n(20_000))),
        ("flash.ftl_append_ns", probes::ftl_append_ns(n(200_000))),
        ("flash.cache_insert_ns", probes::cache_insert_ns(n(400))),
        ("sim.event_ns.1k", probes::event_ns(1_000, n(200_000))),
        ("sim.event_ns.100k", probes::event_ns(100_000, n(200_000))),
    ];
    if let Some(crash) = &base.crash {
        let c = CrashCounts::of(&crash.traces);
        let (capture, enumerate) = probes::crash_point_ns(spec.seed);
        named.extend([
            ("bench.crash.capture_ns_per_point", capture),
            ("bench.crash.enumerate_ns_per_point", enumerate),
            ("bench.crash.points", c.points as f64),
            ("bench.crash.fork_points", c.fork_points as f64),
            ("bench.crash.images", (c.points + c.sampled_images) as f64),
            ("bench.crash.dedup_skipped", c.dedup_skipped as f64),
            ("bench.crash.sampled_images", c.sampled_images as f64),
            ("bench.crash.clamped_points", c.clamped_points as f64),
            ("bench.crash.violations", c.violations as f64),
            (
                "bench.crash.divergences",
                crash_divergences(&crash.traces) as f64,
            ),
        ]);
    }
    v.extend(named.into_iter().map(|(k, x)| (k.to_string(), x)));
    spans.push(span(
        "probes",
        "pass",
        probes_started,
        epoch.elapsed().saturating_sub(probes_started),
        Json::obj([("workload", Json::str(w))]),
    ));

    // Wall explained by the probes whose cost carries over from their
    // isolated loop to a full stack: every op pays a generator call and a
    // filesystem syscall, every event a queue push + pop. The block and
    // flash probes are left out — their cost follows device-cache
    // occupancy, which the probe loop saturates — so the remainder is the
    // block layer, the device model and `IoStack` routing.
    let attributed_ns =
        ops * (v["workloads.next_op_ns"] + v["fs.syscall_ns"]) + events * v["sim.event_ns.1k"];
    v.insert(
        "core.unattributed_share".into(),
        1.0 - attributed_ns / (base_wall * 1e9).max(1.0),
    );

    let e2e = model_metrics(&cs, &base.cells).unwrap_or_default();
    check_shapes(w, &e2e, &v, &mut ledger.problems);
    let mut notes = vec![format!(
        "{events} events; stepped windows {step_wall:.3} s vs untraced {base_wall:.3} s"
    )];
    require_p99(
        sync_tails(&cs, &base.cells),
        spec.smoke,
        &mut ledger,
        &mut notes,
    );
    let metrics = table(metrics::per_layer(), &v);
    debug_assert!(
        v.keys().all(|k| metrics.iter().any(|(d, _)| d.name == *k)),
        "a folded value has no per-layer definition"
    );
    Outcome {
        correct: ledger.problems.is_empty(),
        attempted: ledger.attempted.max(1),
        failed: ledger.failed,
        metrics,
        problems: ledger.problems,
        notes,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_cell;
    use barrier_io::{FileRef, Op, ScriptWorkload, Workload};

    #[test]
    fn a_panicked_cell_books_its_planned_ops_as_failed() {
        let mut cs = cells("sqlite_sync", Sizes { div: 64 }, 5).unwrap();
        cs.truncate(2);
        // Cell 1 writes far past the device: the FTL runs out of space, a
        // model panic the issue names.
        cs[1].cfg.device.segments = 2;
        cs[1].threads = Box::new(|| {
            let script = vec![
                Op::Write {
                    file: FileRef::Global(0),
                    offset: 0,
                    blocks: 256,
                },
                Op::Fsync {
                    file: FileRef::Global(0),
                },
            ];
            vec![Box::new(ScriptWorkload::repeat(script, 50)) as Box<dyn Workload>]
        });
        let epoch = Instant::now();
        let pass = Pass {
            wall: Duration::ZERO,
            start: Duration::ZERO,
            cells: cs
                .iter()
                .map(|c| run_cell(c, 5, Drive::Batch, false, epoch))
                .collect(),
            crash: None,
        };
        assert!(pass.cells[0].is_ok());
        let msg = pass.cells[1].as_ref().unwrap_err();
        assert!(msg.contains("FTL out of space"), "{msg}");

        let mut ledger = Ledger::default();
        ledger.book_pass(&cs, &pass, false);
        let good = CellModel::of(&cs[0], &pass.cells[0].as_ref().unwrap().report).ops;
        assert_eq!(ledger.failed, 100, "50 writes + 50 fsyncs planned");
        assert_eq!(ledger.attempted, good + 100);
        assert_eq!(ledger.problems.len(), 1);
        // Only the completed cell's window counts as timed work.
        let ok = pass.cells[0].as_ref().unwrap().times.window;
        assert_eq!(pass.window(), ok);
    }

    #[test]
    fn the_result_line_has_exactly_the_contracted_keys() {
        let o = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: table(metrics::end_to_end(), &Values::new()),
            problems: Vec::new(),
            notes: Vec::new(),
            spans: Vec::new(),
        };
        let line = o.result_json().render();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":12,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0,\"unit\":\"s\"}"));
        assert!(!line.contains('\n'));
    }
}
