//! Baseline IO schedulers: NOOP (FIFO with merging) and a single-queue
//! elevator (CFQ-lite: LBA-sorted batches with merging).
//!
//! These are the "existing IO scheduler" the paper's epoch scheduler wraps
//! (§3.3) and the baselines the legacy stack runs on.

use std::collections::VecDeque;

use crate::request::{BlockRequest, MergedRequest, ReqOp};

/// Maximum size of a merged request, in blocks (512 KiB at 4 KiB blocks,
/// matching the kernel's default `max_sectors_kb`).
pub const MAX_MERGE_BLOCKS: u64 = 128;

/// A single-queue IO scheduler: requests go in, dispatchable (possibly
/// merged) requests come out.
pub trait IoScheduler: core::fmt::Debug {
    /// Adds a request to the queue, merging where allowed.
    fn enqueue(&mut self, req: BlockRequest);
    /// Removes the next request to dispatch, or `None` if the queue is
    /// empty (or blocked).
    fn dequeue(&mut self) -> Option<MergedRequest>;
    /// Queued (not yet dispatched) request count.
    fn len(&self) -> usize;
    /// True when no requests are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// True while any queued request is order-preserving (used by the
    /// epoch scheduler to find the epoch's last leaver exactly, even after
    /// merges).
    fn contains_ordered(&self) -> bool;
}

/// FIFO scheduler with adjacent-write merging (the kernel's NOOP).
#[derive(Debug, Clone, Default)]
pub struct NoopScheduler {
    queue: VecDeque<MergedRequest>,
}

impl NoopScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> NoopScheduler {
        NoopScheduler::default()
    }
}

impl IoScheduler for NoopScheduler {
    fn enqueue(&mut self, req: BlockRequest) {
        let incoming = MergedRequest::single(req);
        for existing in self.queue.iter_mut() {
            if existing.try_merge(&incoming, MAX_MERGE_BLOCKS) {
                return;
            }
        }
        self.queue.push_back(incoming);
    }

    fn dequeue(&mut self) -> Option<MergedRequest> {
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn contains_ordered(&self) -> bool {
        self.queue.iter().any(|m| m.req.flags.is_order_preserving())
    }
}

/// Elevator scheduler: merges like NOOP but dispatches in ascending-LBA
/// sweeps (one-way elevator), approximating CFQ's seek-minimising order.
/// Reads and flushes keep FIFO order relative to their arrival batch.
#[derive(Debug, Clone, Default)]
pub struct ElevatorScheduler {
    queue: VecDeque<MergedRequest>,
    /// Position of the last dispatched write, for the sweep.
    head: u64,
}

impl ElevatorScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> ElevatorScheduler {
        ElevatorScheduler::default()
    }
}

impl IoScheduler for ElevatorScheduler {
    fn enqueue(&mut self, req: BlockRequest) {
        let incoming = MergedRequest::single(req);
        for existing in self.queue.iter_mut() {
            if existing.try_merge(&incoming, MAX_MERGE_BLOCKS) {
                return;
            }
        }
        self.queue.push_back(incoming);
    }

    fn dequeue(&mut self) -> Option<MergedRequest> {
        if self.queue.is_empty() {
            return None;
        }
        // Non-write requests (flush, read) dispatch FIFO-first if they are
        // at the head, preserving their arrival semantics.
        if !matches!(self.queue[0].req.op, ReqOp::Write { .. }) {
            return self.queue.pop_front();
        }
        // Pick the write with the smallest LBA >= head, else wrap to the
        // smallest overall (one-way elevator), but never pass a non-write.
        let mut best: Option<(usize, u64)> = None;
        let mut wrap: Option<(usize, u64)> = None;
        for (i, m) in self.queue.iter().enumerate() {
            let ReqOp::Write { start, .. } = &m.req.op else {
                break; // do not sweep past a flush/read
            };
            let lba = start.0;
            if lba >= self.head {
                if best.is_none_or(|(_, b)| lba < b) {
                    best = Some((i, lba));
                }
            } else if wrap.is_none_or(|(_, b)| lba < b) {
                wrap = Some((i, lba));
            }
        }
        let (idx, lba) = best.or(wrap)?;
        let m = self.queue.remove(idx).expect("index valid");
        self.head = lba + m.req.blocks();
        Some(m)
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn contains_ordered(&self) -> bool {
        self.queue.iter().any(|m| m.req.flags.is_order_preserving())
    }
}

/// Scheduler selection for stack configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// FIFO + merging.
    Noop,
    /// LBA-sweep + merging (CFQ-lite).
    #[default]
    Elevator,
}

impl SchedulerKind {
    /// Instantiates the scheduler.
    pub fn build(self) -> Box<dyn IoScheduler + Send> {
        match self {
            SchedulerKind::Noop => Box::new(NoopScheduler::new()),
            SchedulerKind::Elevator => Box::new(ElevatorScheduler::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ReqFlags, ReqId};
    use bio_flash::{BlockTag, Lba};

    fn w(id: u64, start: u64, n: u64) -> BlockRequest {
        let tags = (0..n).map(|i| BlockTag(id * 1000 + i)).collect();
        BlockRequest::write(ReqId(id), Lba(start), tags, ReqFlags::NONE)
    }

    #[test]
    fn noop_is_fifo() {
        let mut s = NoopScheduler::new();
        s.enqueue(w(1, 100, 1));
        s.enqueue(w(2, 0, 1));
        assert_eq!(s.dequeue().unwrap().req.id, ReqId(1));
        assert_eq!(s.dequeue().unwrap().req.id, ReqId(2));
        assert!(s.dequeue().is_none());
    }

    #[test]
    fn noop_merges_adjacent() {
        let mut s = NoopScheduler::new();
        s.enqueue(w(1, 10, 2));
        s.enqueue(w(2, 12, 2));
        assert_eq!(s.len(), 1);
        let m = s.dequeue().unwrap();
        assert_eq!(m.req.blocks(), 4);
        assert_eq!(m.ids.len(), 2);
    }

    #[test]
    fn elevator_sweeps_ascending() {
        let mut s = ElevatorScheduler::new();
        s.enqueue(w(1, 50, 1));
        s.enqueue(w(2, 10, 1));
        s.enqueue(w(3, 90, 1));
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue().map(|m| m.req.id.0)).collect();
        assert_eq!(order, vec![2, 1, 3]);
    }

    #[test]
    fn elevator_wraps_after_sweep() {
        let mut s = ElevatorScheduler::new();
        s.enqueue(w(1, 50, 1));
        assert_eq!(s.dequeue().unwrap().req.id, ReqId(1)); // head now 51
        s.enqueue(w(2, 10, 1));
        s.enqueue(w(3, 60, 1));
        assert_eq!(s.dequeue().unwrap().req.id, ReqId(3), "continue sweep");
        assert_eq!(s.dequeue().unwrap().req.id, ReqId(2), "then wrap");
    }

    #[test]
    fn elevator_does_not_sweep_past_flush() {
        let mut s = ElevatorScheduler::new();
        s.enqueue(w(1, 50, 1));
        s.enqueue(BlockRequest::flush(ReqId(2)));
        s.enqueue(w(3, 10, 1));
        // Write before the flush dispatches first; the flush fences the
        // sweep so req 3 cannot jump ahead of it.
        assert_eq!(s.dequeue().unwrap().req.id, ReqId(1));
        assert_eq!(s.dequeue().unwrap().req.id, ReqId(2));
        assert_eq!(s.dequeue().unwrap().req.id, ReqId(3));
    }

    #[test]
    fn elevator_merges() {
        let mut s = ElevatorScheduler::new();
        s.enqueue(w(1, 10, 2));
        s.enqueue(w(2, 8, 2));
        assert_eq!(s.len(), 1);
        assert_eq!(s.dequeue().unwrap().req.blocks(), 4);
    }

    #[test]
    fn kind_builds() {
        assert_eq!(SchedulerKind::Noop.build().len(), 0);
        assert_eq!(SchedulerKind::Elevator.build().len(), 0);
    }
}
