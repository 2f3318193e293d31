//! The lane queue: merging, the LBA sweep and *Epoch-Based Barrier
//! Reassignment* (§3.3 of the paper) in one type.
//!
//! Rules:
//!
//! 1. partial order **between** epochs is preserved;
//! 2. requests **within** an epoch schedule freely (under the sweep's
//!    discipline);
//! 3. orderless requests schedule freely across epochs.
//!
//! The work is split between two owners. The block layer's epoch
//! sequencer owns rule 1: when a barrier request arrives it strips the
//! barrier flag, closes its gate so nothing of the next epoch reaches a
//! lane, and [`EpochScheduler::fence`]s every lane. The queue in this
//! module — all a lane owns between admission and dispatch — is the
//! "existing IO scheduler" of the paper with the reassignment built in:
//! adjacent writes merge on the way in, the queued requests (all of one
//! epoch, plus orderless strays) leave in a one-way ascending-LBA sweep
//! that never passes a flush or a read (CFQ-lite), and the *last
//! order-preserving request to leave the queue* is re-designated as the
//! barrier (Fig 5). The sequencer reopens the gate once every lane reports
//! [`EpochScheduler::is_drained`].

use std::collections::VecDeque;

use crate::request::{BlockRequest, MergedRequest, ReqOp};

/// Maximum size of a merged request, in blocks (512 KiB at 4 KiB blocks,
/// matching the kernel's default `max_sectors_kb`).
pub const MAX_MERGE_BLOCKS: u64 = 128;

/// One lane's queue: requests go in, dispatchable (possibly merged)
/// requests come out, and the barrier the lane owes rides out on the last
/// order-preserving one.
///
/// It never blocks on its own: whoever owns the lanes (the block layer's
/// epoch sequencer — one lane or many) keeps the successor epoch out
/// until every lane of the fenced epoch has drained. With no barrier
/// requests it is a plain merging elevator, so the legacy configurations
/// are unaffected.
#[derive(Debug, Default)]
pub struct EpochScheduler {
    queue: VecDeque<MergedRequest>,
    /// Position of the last dispatched write, for the sweep.
    head: u64,
    /// Set when the stripped barrier must be re-attached to the last
    /// order-preserving request leaving the queue.
    barrier_owed: bool,
    /// Barriers reassigned so far (observability for tests/metrics).
    reassignments: u64,
}

impl EpochScheduler {
    /// Creates an empty queue.
    pub fn new() -> EpochScheduler {
        EpochScheduler::default()
    }

    /// Adds a request to the queue, merging it into an adjacent queued
    /// write where allowed.
    pub fn enqueue(&mut self, req: BlockRequest) {
        debug_assert!(
            !req.flags.barrier,
            "the sequencer strips the barrier flag before a lane sees the request"
        );
        let incoming = MergedRequest::single(req);
        for existing in self.queue.iter_mut() {
            if existing.try_merge(&incoming, MAX_MERGE_BLOCKS) {
                return;
            }
        }
        self.queue.push_back(incoming);
    }

    /// Removes the next request to dispatch, or `None` if the queue is
    /// empty.
    pub fn dequeue(&mut self) -> Option<MergedRequest> {
        let mut m = self.sweep()?;
        if self.barrier_owed && m.req.flags.is_order_preserving() && self.is_drained() {
            // Last order-preserving request of the epoch: it becomes the
            // barrier (Epoch-Based Barrier Reassignment).
            m.req.flags.barrier = true;
            self.barrier_owed = false;
            self.reassignments += 1;
        }
        Some(m)
    }

    /// The one-way elevator: reads and flushes keep FIFO order relative
    /// to their arrival batch, writes leave in ascending-LBA sweeps.
    fn sweep(&mut self) -> Option<MergedRequest> {
        // Non-write requests (flush, read) dispatch FIFO-first if they are
        // at the head, preserving their arrival semantics.
        if !matches!(self.queue.front()?.req.op, ReqOp::Write { .. }) {
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
        let m = self.queue.remove(idx)?;
        self.head = lba + m.req.blocks();
        Some(m)
    }

    /// Queued (not yet dispatched) request count.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Closes the current epoch on this lane: owe a barrier to the last
    /// order-preserving request if the lane holds any — that request
    /// closes the epoch on this lane's device.
    pub fn fence(&mut self) {
        self.barrier_owed |= !self.is_drained();
    }

    /// True when this lane has dispatched its share of the fenced epoch
    /// (no order-preserving request left in the queue; exact even after
    /// merges, which inherit order preservation).
    pub fn is_drained(&self) -> bool {
        !self.queue.iter().any(|m| m.req.flags.is_order_preserving())
    }

    /// Number of barrier reassignments performed.
    pub fn reassignments(&self) -> u64 {
        self.reassignments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ReqFlags, ReqId};
    use bio_flash::{BlockTag, Lba};

    fn wn(id: u64, start: u64, n: u64) -> BlockRequest {
        let tags = (0..n).map(|i| BlockTag(id * 1000 + i)).collect();
        BlockRequest::write(ReqId(id), Lba(start), tags, ReqFlags::NONE)
    }

    fn w(id: u64, start: u64, flags: ReqFlags) -> BlockRequest {
        BlockRequest::write(ReqId(id), Lba(start), vec![BlockTag(id)], flags)
    }

    fn drain(s: &mut EpochScheduler) -> Vec<(u64, bool)> {
        std::iter::from_fn(|| s.dequeue().map(|m| (m.req.id.0, m.req.flags.barrier))).collect()
    }

    #[test]
    fn elevator_sweeps_ascending() {
        let mut s = EpochScheduler::new();
        s.enqueue(wn(1, 50, 1));
        s.enqueue(wn(2, 10, 1));
        s.enqueue(wn(3, 90, 1));
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue().map(|m| m.req.id.0)).collect();
        assert_eq!(order, vec![2, 1, 3]);
    }

    #[test]
    fn elevator_wraps_after_sweep() {
        let mut s = EpochScheduler::new();
        s.enqueue(wn(1, 50, 1));
        assert_eq!(s.dequeue().unwrap().req.id, ReqId(1)); // head now 51
        s.enqueue(wn(2, 10, 1));
        s.enqueue(wn(3, 60, 1));
        assert_eq!(s.dequeue().unwrap().req.id, ReqId(3), "continue sweep");
        assert_eq!(s.dequeue().unwrap().req.id, ReqId(2), "then wrap");
    }

    #[test]
    fn elevator_does_not_sweep_past_flush() {
        let mut s = EpochScheduler::new();
        s.enqueue(wn(1, 50, 1));
        s.enqueue(BlockRequest::flush(ReqId(2)));
        s.enqueue(wn(3, 10, 1));
        // Write before the flush dispatches first; the flush fences the
        // sweep so req 3 cannot jump ahead of it.
        assert_eq!(s.dequeue().unwrap().req.id, ReqId(1));
        assert_eq!(s.dequeue().unwrap().req.id, ReqId(2));
        assert_eq!(s.dequeue().unwrap().req.id, ReqId(3));
    }

    #[test]
    fn elevator_merges() {
        let mut s = EpochScheduler::new();
        s.enqueue(wn(1, 10, 2));
        s.enqueue(wn(2, 8, 2));
        assert_eq!(s.len(), 1);
        assert_eq!(s.dequeue().unwrap().req.blocks(), 4);
    }

    #[test]
    fn new_queue_is_empty() {
        assert_eq!(EpochScheduler::new().len(), 0);
        assert!(EpochScheduler::new().dequeue().is_none());
    }

    #[test]
    fn barrier_reassigned_to_last_leaver() {
        // Fig 5: w1, w2 ordered; w4 the (stripped) barrier; the sweep
        // dispatches by LBA so w4 (low LBA) leaves before w1 (high LBA);
        // the barrier must ride out on whichever ordered request leaves
        // LAST.
        let mut s = EpochScheduler::new();
        s.enqueue(w(1, 90, ReqFlags::ORDERED));
        s.enqueue(w(2, 50, ReqFlags::ORDERED));
        s.enqueue(w(4, 10, ReqFlags::ORDERED));
        s.fence();
        assert!(!s.is_drained());
        // Sweep order: 10, 50, 90 -> ids 4, 2, 1; only the last carries
        // the barrier.
        assert_eq!(drain(&mut s), vec![(4, false), (2, false), (1, true)]);
        assert!(s.is_drained());
        assert_eq!(s.reassignments(), 1);
    }

    #[test]
    fn orderless_strays_do_not_take_the_barrier() {
        // An orderless request leaving after the epoch's last ordered
        // one is not the barrier, and does not keep the lane undrained.
        let mut s = EpochScheduler::new();
        s.enqueue(w(1, 0, ReqFlags::ORDERED));
        s.enqueue(w(2, 10, ReqFlags::NONE));
        s.fence();
        assert_eq!(s.dequeue().map(|m| m.req.flags.barrier), Some(true));
        assert!(s.is_drained());
        assert_eq!(drain(&mut s), vec![(2, false)]);
    }

    #[test]
    fn fence_on_a_lane_without_ordered_requests_owes_nothing() {
        // The epoch's ordered requests all went to other lanes: this
        // lane is drained at once and a later epoch's ordered request
        // must not inherit a stale barrier.
        let mut s = EpochScheduler::new();
        s.enqueue(w(1, 0, ReqFlags::NONE));
        s.fence();
        assert!(s.is_drained());
        s.enqueue(w(2, 10, ReqFlags::ORDERED));
        assert_eq!(drain(&mut s), vec![(1, false), (2, false)]);
        assert_eq!(s.reassignments(), 0);
    }
}
