//! Epoch-based IO scheduling with *Epoch-Based Barrier Reassignment*
//! (§3.3 of the paper).
//!
//! Rules:
//!
//! 1. partial order **between** epochs is preserved;
//! 2. requests **within** an epoch schedule freely (under the wrapped
//!    scheduler's discipline);
//! 3. orderless requests schedule freely across epochs.
//!
//! The work is split between two owners. The block layer's epoch
//! sequencer owns rule 1: when a barrier request arrives it strips the
//! barrier flag, closes its gate so nothing of the next epoch reaches a
//! lane, and [`EpochScheduler::fence`]s every lane. The scheduler in this
//! module owns the reassignment: the queued requests (all of one epoch,
//! plus orderless strays) dispatch under the inner discipline, and the
//! *last order-preserving request to leave the queue* is re-designated as
//! the barrier (Fig 5). The sequencer reopens the gate once every lane
//! reports [`EpochScheduler::is_drained`].

use crate::request::{BlockRequest, MergedRequest};
use crate::scheduler::IoScheduler;

/// The epoch scheduler: wraps any [`IoScheduler`] and re-attaches the
/// barrier its lane owes to the last order-preserving request leaving it.
///
/// It never blocks on its own: whoever owns the lanes (the block layer's
/// epoch sequencer — one lane or many) keeps the successor epoch out
/// until every lane of the fenced epoch has drained.
#[derive(Debug)]
pub struct EpochScheduler {
    inner: Box<dyn IoScheduler + Send>,
    /// Set when the stripped barrier must be re-attached to the last
    /// order-preserving request leaving the queue.
    barrier_owed: bool,
    /// Barriers reassigned so far (observability for tests/metrics).
    reassignments: u64,
}

impl EpochScheduler {
    /// Wraps an inner scheduler.
    pub fn new(inner: Box<dyn IoScheduler + Send>) -> EpochScheduler {
        EpochScheduler {
            inner,
            barrier_owed: false,
            reassignments: 0,
        }
    }

    /// Closes the current epoch on this lane: owe a barrier to the last
    /// order-preserving request if the lane holds any — that request
    /// closes the epoch on this lane's device.
    pub fn fence(&mut self) {
        if self.inner.contains_ordered() {
            self.barrier_owed = true;
        }
    }

    /// True when this lane has dispatched its share of the fenced epoch
    /// (no order-preserving requests left in the inner scheduler).
    pub fn is_drained(&self) -> bool {
        !self.inner.contains_ordered()
    }

    /// Number of barrier reassignments performed.
    pub fn reassignments(&self) -> u64 {
        self.reassignments
    }
}

impl IoScheduler for EpochScheduler {
    fn enqueue(&mut self, req: BlockRequest) {
        debug_assert!(
            !req.flags.barrier,
            "the sequencer strips the barrier flag before a lane sees the request"
        );
        self.inner.enqueue(req);
    }

    fn dequeue(&mut self) -> Option<MergedRequest> {
        let mut m = self.inner.dequeue()?;
        if self.barrier_owed && m.req.flags.is_order_preserving() && !self.inner.contains_ordered()
        {
            // Last order-preserving request of the epoch: it becomes the
            // barrier (Epoch-Based Barrier Reassignment).
            m.req.flags.barrier = true;
            self.barrier_owed = false;
            self.reassignments += 1;
        }
        Some(m)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn contains_ordered(&self) -> bool {
        self.inner.contains_ordered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ReqFlags, ReqId};
    use crate::scheduler::{ElevatorScheduler, NoopScheduler};
    use bio_flash::{BlockTag, Lba};

    fn w(id: u64, start: u64, flags: ReqFlags) -> BlockRequest {
        BlockRequest::write(ReqId(id), Lba(start), vec![BlockTag(id)], flags)
    }

    fn drain(s: &mut EpochScheduler) -> Vec<(u64, bool)> {
        std::iter::from_fn(|| s.dequeue().map(|m| (m.req.id.0, m.req.flags.barrier))).collect()
    }

    #[test]
    fn barrier_reassigned_to_last_leaver() {
        // Fig 5: w1, w2 ordered; w4 the (stripped) barrier; elevator
        // dispatches by LBA so w4 (low LBA) leaves before w1 (high LBA);
        // the barrier must ride out on whichever ordered request leaves
        // LAST.
        let mut s = EpochScheduler::new(Box::new(ElevatorScheduler::new()));
        s.enqueue(w(1, 90, ReqFlags::ORDERED));
        s.enqueue(w(2, 50, ReqFlags::ORDERED));
        s.enqueue(w(4, 10, ReqFlags::ORDERED));
        s.fence();
        assert!(!s.is_drained());
        // Elevator order: 10, 50, 90 -> ids 4, 2, 1; only the last
        // carries the barrier.
        assert_eq!(drain(&mut s), vec![(4, false), (2, false), (1, true)]);
        assert!(s.is_drained());
        assert_eq!(s.reassignments(), 1);
    }

    #[test]
    fn orderless_strays_do_not_take_the_barrier() {
        // An orderless request leaving after the epoch's last ordered
        // one is not the barrier, and does not keep the lane undrained.
        let mut s = EpochScheduler::new(Box::new(NoopScheduler::new()));
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
        let mut s = EpochScheduler::new(Box::new(NoopScheduler::new()));
        s.enqueue(w(1, 0, ReqFlags::NONE));
        s.fence();
        assert!(s.is_drained());
        s.enqueue(w(2, 10, ReqFlags::ORDERED));
        assert_eq!(drain(&mut s), vec![(1, false), (2, false)]);
        assert_eq!(s.reassignments(), 0);
    }
}
