//! The metric tables (names, units, directions, bounds) and the folds from
//! cell reports to per-layer numbers. `BENCHMARK.json` lists the same
//! names; `tests/smoke.rs` holds the two in step.

use std::collections::BTreeMap;

use barrier_io::StackReport;

use crate::cells::{Cell, Stack, MQ_TOPOLOGIES};
use crate::reduce::{geomean, Tail};
use crate::run::{reported_index, CellModel, CellRun};

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Name, unique over both tables.
    pub name: String,
    /// Unit. Simulated-time units say so (`sim_us`, `txn/sim_s`); bare
    /// `s`/`ns` are host time.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics. Host metrics are reduced over a run's timed
/// passes (`harness::timed_run`); model metrics are simulated-time numbers,
/// exact for a seed.
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name: String, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    let mut v = vec![
        bounded("setup_s".into(), "s", "lower", 0.25),
        bounded("ops_per_ref_s".into(), "ops/ref_s", "higher", 0.25),
        bounded("peak_rss_mb".into(), "MiB", "lower", 0.10),
    ];
    for s in Stack::REPORTED {
        v.push(bounded(
            format!("{}_txn_per_sim_s", s.key()),
            "txn/sim_s",
            "higher",
            0.03,
        ));
    }
    for s in [Stack::Ext4Dr, Stack::BfsDr] {
        v.push(bounded(
            format!("{}_sync_mean_us", s.key()),
            "sim_us",
            "lower",
            0.03,
        ));
    }
    v
}

/// Exact counts summed over a pass's cells, by per-layer metric name.
const COUNTS: [&str; 36] = [
    "workloads.ops",
    "workloads.syncs",
    "workloads.txns",
    "fs.commits",
    "fs.forced_commits",
    "fs.data_blocks",
    "fs.journal_blocks",
    "fs.checkpoint_blocks",
    "fs.writeback_blocks",
    "fs.flushes",
    "fs.page_conflicts",
    "fs.dropped_events",
    "block.submitted",
    "block.dispatched",
    "block.completed",
    "block.busy_retries",
    "block.split_parts",
    "block.epochs_sequenced",
    "block.epochs_released",
    "block.reassignments",
    "block.preflush_fanouts",
    "block.dropped_events",
    "flash.write_cmds",
    "flash.flush_cmds",
    "flash.read_cmds",
    "flash.blocks_written",
    "flash.programs",
    "flash.cache_hit_reads",
    "flash.queue_full_rejections",
    "flash.gc_runs",
    "flash.gc_appends",
    "flash.erases",
    "core.events",
    "core.audit_violations",
    "ops_retried",
    "bench.crash.points",
];

/// The per-layer metrics, in emission order. A metric that does not apply
/// to a workload (`bench.crash.*` outside `crash_enum`, say) reads 0 there.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = Vec::new();
    for name in COUNTS {
        let better = match name {
            "workloads.ops" | "workloads.syncs" | "workloads.txns" | "bench.crash.points" => {
                "higher"
            }
            _ => "lower",
        };
        v.push(def(name, "count", better));
    }
    for name in [
        "bench.crash.fork_points",
        "bench.crash.images",
        "bench.crash.dedup_skipped",
        "bench.crash.sampled_images",
        "bench.crash.clamped_points",
        "bench.crash.violations",
        "bench.crash.divergences",
    ] {
        v.push(def(name, "count", "lower"));
    }
    for s in Stack::REPORTED {
        let k = s.key();
        v.push(def(
            format!("fs.ctx_switches_per_sync.{k}"),
            "1/sync",
            "lower",
        ));
        v.push(def(format!("fs.sync_p50_us.{k}"), "sim_us", "lower"));
        v.push(def(format!("fs.sync_p99_us.{k}"), "sim_us", "lower"));
        v.push(def(
            format!("flash.flushes_per_sync.{k}"),
            "1/sync",
            "lower",
        ));
        v.push(def(format!("flash.mean_qd.{k}"), "cmds", "higher"));
    }
    for (topology, _, _) in MQ_TOPOLOGIES {
        v.push(def(
            format!("block.bfs_od_txn_per_sim_s.{topology}"),
            "txn/sim_s",
            "higher",
        ));
    }
    v.extend([
        def("fs.journal_blocks_per_data_block", "ratio", "lower"),
        def("block.lane_imbalance", "ratio", "lower"),
        def("flash.write_amplification", "ratio", "lower"),
        def("flash.peak_qd", "cmds", "higher"),
        def("flash.wot_kiops", "kiops_sim", "higher"),
        def("flash.buffered_kiops", "kiops_sim", "higher"),
        def("core.events_per_op", "1/op", "lower"),
        def("core.sim_s_per_wall_s", "sim_s/s", "higher"),
        def("core.ops_per_wall_s", "ops/s", "higher"),
        def("core.machine_slowdown", "ratio", "lower"),
        def("core.slow_step_share", "ratio", "lower"),
        def("core.trace_overhead", "ratio", "lower"),
        def("core.unattributed_share", "ratio", "lower"),
        def("core.stack_new_s", "s", "lower"),
        def("core.step_ns_p50", "ns", "lower"),
        def("core.step_ns_p99", "ns", "lower"),
        def("core.step_ns_mean", "ns", "lower"),
        def("workloads.next_op_ns", "ns", "lower"),
        def("fs.syscall_ns", "ns", "lower"),
        def("block.req_ns", "ns", "lower"),
        def("flash.cmd_ns", "ns", "lower"),
        def("flash.ftl_append_ns", "ns", "lower"),
        def("flash.cache_insert_ns", "ns", "lower"),
        def("sim.event_ns.1k", "ns", "lower"),
        def("sim.event_ns.100k", "ns", "lower"),
        def("bench.crash.capture_ns_per_point", "ns", "lower"),
        def("bench.crash.enumerate_ns_per_point", "ns", "lower"),
    ]);
    v
}

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// Ops that hit a dropped-event counter in one report (each is a failed
/// op: the simulator discarded work instead of doing it).
pub fn dropped(r: &StackReport) -> u64 {
    r.fs.dropped_journal_events + r.fs.dropped_data_pages + r.block.dropped_events
}

/// Ops the block layer or a device bounced and retried.
pub fn retried(r: &StackReport) -> u64 {
    r.block.busy_retries + r.device.queue_full_rejections
}

/// Folds one pass's completed cells into the exact counts and the model
/// ratios of the per-layer table.
pub fn fold_cells(cells: &[Cell], runs: &[Result<CellRun, String>]) -> Values {
    let mut v = Values::new();
    let mut syncs = [0.0f64; 3];
    let mut ctx = [0.0f64; 3];
    let mut flushes = [0.0f64; 3];
    let mut qd: [Vec<f64>; 3] = Default::default();
    let mut p50: [Vec<f64>; 3] = Default::default();
    let mut p99: [Vec<f64>; 3] = Default::default();
    let (mut host_appends, mut gc_appends) = (0u64, 0u64);
    let mut peak_qd = 0.0f64;
    let mut imbalance = 1.0f64;
    let tails = sync_tails(cells, runs);
    for (c, run) in cells.iter().zip(runs) {
        let Ok(run) = run else { continue };
        let r = &run.report;
        let m = CellModel::of(c, r);
        let lane_sum = |f: fn(&barrier_io::LaneStats) -> u64| r.lanes.iter().map(f).sum::<u64>();
        for (name, n) in [
            ("workloads.ops", m.ops),
            ("workloads.syncs", m.syncs),
            ("workloads.txns", m.txns),
            ("fs.commits", r.fs.commits),
            ("fs.forced_commits", r.fs.forced_commits),
            ("fs.data_blocks", r.fs.data_blocks),
            ("fs.journal_blocks", r.fs.journal_blocks),
            ("fs.checkpoint_blocks", r.fs.checkpoint_blocks),
            ("fs.writeback_blocks", r.fs.writeback_blocks),
            ("fs.flushes", r.fs.flushes),
            ("fs.page_conflicts", r.fs.page_conflicts),
            (
                "fs.dropped_events",
                r.fs.dropped_journal_events + r.fs.dropped_data_pages,
            ),
            ("block.submitted", r.block.submitted),
            ("block.dispatched", r.block.dispatched),
            ("block.completed", r.block.completed),
            ("block.busy_retries", r.block.busy_retries),
            ("block.split_parts", r.block.split_parts),
            ("block.epochs_sequenced", r.block.epochs_sequenced),
            ("block.epochs_released", lane_sum(|l| l.epochs_released)),
            ("block.reassignments", lane_sum(|l| l.reassignments)),
            ("block.preflush_fanouts", r.block.preflush_fanouts),
            ("block.dropped_events", r.block.dropped_events),
            ("flash.write_cmds", r.device.write_cmds),
            ("flash.flush_cmds", r.device.flush_cmds),
            ("flash.read_cmds", r.device.read_cmds),
            ("flash.blocks_written", r.device.blocks_written),
            ("flash.programs", r.device.programs),
            ("flash.cache_hit_reads", r.device.cache_hit_reads),
            (
                "flash.queue_full_rejections",
                r.device.queue_full_rejections,
            ),
            ("flash.gc_runs", r.ftl.gc_runs),
            ("flash.gc_appends", r.ftl.gc_appends),
            ("flash.erases", r.ftl.erases),
            ("ops_retried", retried(r)),
            (
                "core.audit_violations",
                (run.fs_violations + run.epoch_violations) as u64,
            ),
        ] {
            *v.entry(name.to_string()).or_insert(0.0) += n as f64;
        }
        let routed: Vec<f64> = r.lanes.iter().map(|l| l.routed as f64).collect();
        let mean_routed = routed.iter().sum::<f64>() / routed.len().max(1) as f64;
        if mean_routed > 0.0 {
            let max = routed.iter().copied().fold(0.0, f64::max);
            imbalance = imbalance.max(max / mean_routed);
        }
        host_appends += r.ftl.host_appends;
        gc_appends += r.ftl.gc_appends;
        peak_qd = peak_qd.max(r.peak_qd);
        if let Some(si) = reported_index(c.stack) {
            syncs[si] += m.syncs as f64;
            ctx[si] += m.sync_ctx_switches;
            flushes[si] += r.device.flush_cmds as f64;
            qd[si].push(r.mean_qd);
            p50[si].push(m.sync.p50.as_micros_f64());
            p99[si].push(tails[si].of(&m.sync).as_micros_f64());
            if c.stack == Stack::BfsOd && MQ_TOPOLOGIES.iter().any(|t| t.0 == c.variant) {
                v.insert(
                    format!("block.bfs_od_txn_per_sim_s.{}", c.variant),
                    m.txn_per_sim_s(),
                );
            }
        } else if c.variant.ends_with("/X") {
            v.insert("flash.wot_kiops".into(), r.write_kiops);
        } else if c.variant.ends_with("/P") {
            v.insert("flash.buffered_kiops".into(), r.write_kiops);
        }
    }
    for (si, s) in Stack::REPORTED.iter().enumerate() {
        let k = s.key();
        if syncs[si] > 0.0 {
            v.insert(format!("fs.ctx_switches_per_sync.{k}"), ctx[si] / syncs[si]);
            v.insert(
                format!("flash.flushes_per_sync.{k}"),
                flushes[si] / syncs[si],
            );
        }
        // Arithmetic means: a barrier call that never blocks has a
        // percentile of exactly 0, which a geometric mean cannot hold.
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        v.insert(format!("flash.mean_qd.{k}"), mean(&qd[si]));
        v.insert(format!("fs.sync_p50_us.{k}"), mean(&p50[si]));
        v.insert(format!("fs.sync_p99_us.{k}"), mean(&p99[si]));
    }
    let data = v.get("fs.data_blocks").copied().unwrap_or(0.0);
    if data > 0.0 {
        v.insert(
            "fs.journal_blocks_per_data_block".into(),
            v["fs.journal_blocks"] / data,
        );
    }
    v.insert("block.lane_imbalance".into(), imbalance);
    v.insert(
        "flash.write_amplification".into(),
        if host_appends > 0 {
            (host_appends + gc_appends) as f64 / host_appends as f64
        } else {
            1.0
        },
    );
    v.insert("flash.peak_qd".into(), peak_qd);
    v
}

/// Per reported stack, the tail percentile its smallest cell supports
/// (capped at p99).
pub fn sync_tails(cells: &[Cell], runs: &[Result<CellRun, String>]) -> [Tail; 3] {
    let mut counts: [Vec<u64>; 3] = Default::default();
    for (c, run) in cells.iter().zip(runs) {
        if let (Some(si), Ok(run)) = (reported_index(c.stack), run) {
            counts[si].push(run.report.run.sync_latency.count);
        }
    }
    counts.map(crate::reduce::common_tail)
}

/// The model end-to-end metrics of one pass: per stack, the geometric
/// mean over its cells of transactions per simulated second and (DR stacks)
/// of the mean sync-call latency. `None` when a stack has no completed
/// cell or a cell reads zero.
pub fn model_metrics(cells: &[Cell], runs: &[Result<CellRun, String>]) -> Option<Values> {
    let mut txn: [Vec<f64>; 3] = Default::default();
    let mut lat: [Vec<f64>; 3] = Default::default();
    for (c, run) in cells.iter().zip(runs) {
        if let (Some(si), Ok(run)) = (reported_index(c.stack), run) {
            let m = CellModel::of(c, &run.report);
            txn[si].push(m.txn_per_sim_s());
            lat[si].push(m.sync.mean.as_micros_f64());
        }
    }
    let mut v = Values::new();
    for (si, s) in Stack::REPORTED.iter().enumerate() {
        v.insert(format!("{}_txn_per_sim_s", s.key()), geomean(&txn[si])?);
        if *s != Stack::BfsOd {
            v.insert(format!("{}_sync_mean_us", s.key()), geomean(&lat[si])?);
        }
    }
    Some(v)
}
