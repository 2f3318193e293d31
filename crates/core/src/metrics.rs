//! Run metrics: per-operation latency, context switches, throughput.

use bio_sim::{LatencyHistogram, LatencySummary, SimDuration, SimTime};

use crate::ops::OpKind;

/// Accumulated metrics for one operation kind.
#[derive(Debug, Clone, Default)]
pub struct OpMetrics {
    /// Completed operations.
    pub count: u64,
    /// Latency distribution (issue → completion).
    pub latency: LatencyHistogram,
    /// Application-level context switches attributed to this kind.
    pub ctx_switches: u64,
}

impl OpMetrics {
    /// Mean context switches per operation (Fig 11's metric).
    pub fn switches_per_op(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ctx_switches as f64 / self.count as f64
        }
    }
}

/// Live metrics collector.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Per kind in [`OpKind::ALL`] order, made at the kind's first
    /// operation or context switch: every completed op, think and switch
    /// is one indexed store, not a hash. Boxed: held inline, its ~800
    /// bytes spread the stack's hot fields and slowed the event loop.
    ops: Box<[Option<OpMetrics>; OpKind::ALL.len()]>,
    /// Application transactions completed (TxnMark ops).
    pub txns: u64,
    started: SimTime,
    /// Completions referencing a thread this stack never created
    /// (forged events, dropped instead of panicking).
    pub dropped_wakeups: u64,
}

impl Metrics {
    /// Creates an empty collector.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Marks the measurement start (ops before this are warm-up).
    pub fn reset(&mut self, now: SimTime) {
        *self.ops = Default::default();
        self.txns = 0;
        self.started = now;
    }

    /// The metrics of `kind`, made on first use.
    // `ops` has a slot per `OpKind::ALL` entry, and a kind's discriminant
    // is its position there (`every_kind_has_its_own_slot_in_report_order`).
    #[allow(clippy::indexing_slicing, reason = "a slot per OpKind")]
    fn entry(&mut self, kind: OpKind) -> &mut OpMetrics {
        self.ops[kind as usize].get_or_insert_with(OpMetrics::default)
    }

    /// Records a completed operation.
    pub fn record_op(&mut self, kind: OpKind, latency: SimDuration) {
        let m = self.entry(kind);
        m.count += 1;
        m.latency.record(latency);
        if kind == OpKind::TxnMark {
            self.txns += 1;
        }
    }

    /// Attributes one context switch to an in-flight operation.
    pub fn record_ctx_switch(&mut self, kind: OpKind) {
        self.entry(kind).ctx_switches += 1;
    }

    /// Counts a completion that referenced an unknown thread id — the
    /// stack's totality contract drops such events instead of indexing
    /// out of bounds (see `IoStack::complete_op`).
    pub fn note_dropped_wakeup(&mut self) {
        self.dropped_wakeups += 1;
    }

    /// Metrics for one kind (`None` if never seen).
    // The slot per kind of `entry`.
    #[allow(clippy::indexing_slicing, reason = "a slot per OpKind")]
    pub fn op(&self, kind: OpKind) -> Option<&OpMetrics> {
        self.ops[kind as usize].as_ref()
    }

    /// Merged latency distribution across all four sync kinds
    /// (fsync/fdatasync/fbarrier/fdatabarrier) — the per-workload tail
    /// each experiment reports alongside throughput. Merging histograms
    /// (not summaries) keeps the percentiles exact across kinds.
    pub fn sync_latency(&self) -> LatencySummary {
        let mut merged = LatencyHistogram::new();
        for kind in OpKind::SYNC {
            if let Some(m) = self.op(kind) {
                merged.merge(&m.latency);
            }
        }
        merged.summary()
    }

    /// Builds the final report.
    pub fn report(&self, now: SimTime) -> RunReport {
        let elapsed = now.saturating_since(self.started);
        let mut ops = Vec::new();
        for kind in OpKind::ALL {
            if let Some(m) = self.op(kind) {
                if m.count > 0 {
                    ops.push(OpReport {
                        kind,
                        count: m.count,
                        latency: m.latency.summary(),
                        switches_per_op: m.switches_per_op(),
                    });
                }
            }
        }
        RunReport {
            elapsed,
            ops,
            txns: self.txns,
            sync_latency: self.sync_latency(),
            dropped_wakeups: self.dropped_wakeups,
        }
    }
}

/// Per-kind results in a report.
#[derive(Debug, Clone)]
pub struct OpReport {
    /// Operation kind.
    pub kind: OpKind,
    /// Completed count.
    pub count: u64,
    /// Latency summary.
    pub latency: LatencySummary,
    /// Mean context switches per op.
    pub switches_per_op: f64,
}

/// Final results of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Measured wall-clock span (simulated).
    pub elapsed: SimDuration,
    /// Per-kind results (only kinds that occurred).
    pub ops: Vec<OpReport>,
    /// Application transactions completed.
    pub txns: u64,
    /// Merged latency distribution of all sync calls (issue →
    /// completion), the tail-latency metric of the fig16 server
    /// workloads; zeroed when the run performed no sync calls.
    pub sync_latency: LatencySummary,
    /// Completions and wake-ups naming a thread the stack never created,
    /// dropped and counted ([`Metrics::dropped_wakeups`]; over the whole
    /// run, not only the measured window).
    pub dropped_wakeups: u64,
}

impl RunReport {
    /// Results for one kind.
    pub fn op(&self, kind: OpKind) -> Option<&OpReport> {
        self.ops.iter().find(|o| o.kind == kind)
    }

    /// Application transactions per second.
    pub fn txns_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.txns as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports() {
        let mut m = Metrics::new();
        m.reset(SimTime::ZERO);
        m.record_op(OpKind::Fsync, SimDuration::from_micros(100));
        m.record_op(OpKind::Fsync, SimDuration::from_micros(300));
        m.record_ctx_switch(OpKind::Fsync);
        m.record_ctx_switch(OpKind::Fsync);
        m.record_ctx_switch(OpKind::Fsync);
        let r = m.report(SimTime::from_secs(1));
        let f = r.op(OpKind::Fsync).unwrap();
        assert_eq!(f.count, 2);
        assert!((f.switches_per_op - 1.5).abs() < 1e-9);
    }

    #[test]
    fn every_kind_has_its_own_slot_in_report_order() {
        for (i, kind) in OpKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
    }

    #[test]
    fn txn_marks_counted() {
        let mut m = Metrics::new();
        m.reset(SimTime::ZERO);
        m.record_op(OpKind::TxnMark, SimDuration::ZERO);
        m.record_op(OpKind::TxnMark, SimDuration::ZERO);
        let r = m.report(SimTime::from_secs(2));
        assert_eq!(r.txns, 2);
        assert_eq!(r.txns_per_sec(), 1.0);
    }

    #[test]
    fn reset_discards_warmup() {
        let mut m = Metrics::new();
        m.record_op(OpKind::Write, SimDuration::from_micros(5));
        m.reset(SimTime::from_secs(1));
        let r = m.report(SimTime::from_secs(2));
        assert!(r.op(OpKind::Write).is_none());
        assert_eq!(r.elapsed, SimDuration::from_secs(1));
    }

    #[test]
    fn sync_latency_merges_all_sync_kinds() {
        let mut m = Metrics::new();
        m.reset(SimTime::ZERO);
        m.record_op(OpKind::Fsync, SimDuration::from_micros(100));
        m.record_op(OpKind::Fdatabarrier, SimDuration::from_micros(300));
        // Non-sync latencies must not pollute the merge.
        m.record_op(OpKind::Write, SimDuration::from_millis(50));
        let s = m.report(SimTime::from_secs(1)).sync_latency;
        assert_eq!(s.count, 2);
        assert_eq!(s.mean, SimDuration::from_micros(200));
        assert_eq!(s.max, SimDuration::from_micros(300));
    }

    #[test]
    fn sync_latency_is_zeroed_without_syncs() {
        let mut m = Metrics::new();
        m.reset(SimTime::ZERO);
        m.record_op(OpKind::Write, SimDuration::from_micros(5));
        let s = m.report(SimTime::from_secs(1)).sync_latency;
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, SimDuration::ZERO);
    }

    #[test]
    fn empty_report_is_sane() {
        let m = Metrics::new();
        let r = m.report(SimTime::ZERO);
        assert!(r.ops.is_empty());
        assert_eq!(r.txns_per_sec(), 0.0);
    }
}
