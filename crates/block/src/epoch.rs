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
//!
//! No call walks the queue. Each answer comes from state the queue keeps
//! as requests come and go, the way the kernel's elevator keeps a sort
//! tree and a merge hash beside its FIFO (`docs/INVARIANTS.md`,
//! "Test-enforced: the lane queue"):
//!
//! * a merge target is looked up by block address — the queued write that
//!   ends where the newcomer starts (`by_end`) or starts where it ends
//!   (`near` / `far`), the first in queue order when several do;
//! * the sweep reads the next write at or above the head, or the lowest
//!   one, off `near`: the writes ahead of the first queued read or flush,
//!   ordered by first block, queue order breaking ties;
//! * whether the fenced epoch has left is a count of the order-preserving
//!   requests the lane still holds, a bounced one included.

use std::collections::VecDeque;

use bio_sim::SeqTable;

use crate::request::{BlockRequest, MergedRequest};

/// Maximum size of a merged request, in blocks (512 KiB at 4 KiB blocks,
/// matching the kernel's default `max_sectors_kb`).
pub const MAX_MERGE_BLOCKS: u64 = 128;

/// An index over queued writes: `(block address, arrival number)` keys in
/// one sorted array — by address, then by queue order. A lookup is a
/// binary search; an insert or a removal also shifts the 16-byte keys
/// behind it (a lane holds a few dozen requests, and the stack's
/// congestion limit keeps it near a hundred).
#[derive(Debug, Default)]
struct ByLba(Vec<(u64, u64)>);

impl ByLba {
    #[inline]
    fn insert(&mut self, key: (u64, u64)) {
        let at = self.0.partition_point(|k| *k < key);
        self.0.insert(at, key);
    }

    #[inline]
    fn remove(&mut self, key: (u64, u64)) {
        if let Ok(at) = self.0.binary_search(&key) {
            self.0.remove(at);
        }
    }

    /// The arrivals at block address `lba`, in queue order.
    fn at(&self, lba: u64) -> impl Iterator<Item = u64> + '_ {
        let from = self.0.partition_point(|k| k.0 < lba);
        let rest = self.0.get(from..).unwrap_or_default();
        rest.iter().take_while(move |k| k.0 == lba).map(|k| k.1)
    }

    /// Removes the first key at or above `lba`, or failing that the lowest.
    #[inline]
    fn take_next_from(&mut self, lba: u64) -> Option<(u64, u64)> {
        let from = self.0.partition_point(|k| k.0 < lba);
        let at = if from < self.0.len() { from } else { 0 };
        (!self.0.is_empty()).then(|| self.0.remove(at))
    }
}

/// FUA and preflush writes have point semantics: nothing merges with them
/// ([`MergedRequest::try_merge`] refuses), so they are kept out of `by_end`
/// and never look for a target.
fn may_merge(m: &MergedRequest) -> bool {
    !(m.req.flags.fua || m.req.flags.preflush)
}

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
    /// The queued requests under their arrival numbers: queue order. A
    /// merge grows a request where it stands.
    queue: SeqTable<MergedRequest>,
    next_arrival: u64,
    /// Arrival numbers of the queued reads and flushes, oldest first: the
    /// sweep stops at the first, and they leave from the front only.
    stops: VecDeque<u64>,
    /// `(end of span, arrival)` of every queued write that may merge (no
    /// FUA, no preflush).
    by_end: ByLba,
    /// `(first block, arrival)` of every queued write ahead of the first
    /// stop — what the sweep may take now.
    near: ByLba,
    /// The same for the writes behind it, which only merging looks at;
    /// they move to `near` when the stop ahead of them leaves.
    far: ByLba,
    /// Order-preserving requests held: queued ones and a bounced one.
    ordered: usize,
    /// A dispatched request the device bounced; it leaves again first.
    bounced: Option<MergedRequest>,
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
    #[inline]
    pub fn enqueue(&mut self, req: BlockRequest) {
        debug_assert!(
            !req.flags.barrier,
            "the sequencer strips the barrier flag before a lane sees the request"
        );
        let incoming = MergedRequest::single(req);
        if self.merge_into_queued(&incoming) {
            return;
        }
        let arrival = self.next_arrival;
        self.next_arrival += 1;
        match incoming.req.write_span() {
            Some((start, end)) => {
                if may_merge(&incoming) {
                    self.by_end.insert((end.0, arrival));
                }
                self.starts_of(arrival).insert((start.0, arrival));
            }
            None => self.stops.push_back(arrival),
        }
        self.ordered += usize::from(incoming.req.flags.is_order_preserving());
        self.queue.insert(arrival, incoming);
    }

    /// The start index a write that arrived as `arrival` belongs to.
    fn starts_of(&mut self, arrival: u64) -> &mut ByLba {
        match self.stops.front() {
            Some(&stop) if stop < arrival => &mut self.far,
            _ => &mut self.near,
        }
    }

    /// Merges `incoming` into the first queued request, in queue order,
    /// that [`MergedRequest::try_merge`] accepts it into. Only a write
    /// ending where `incoming` starts or starting where it ends can, so
    /// only those are asked.
    #[inline]
    fn merge_into_queued(&mut self, incoming: &MergedRequest) -> bool {
        let Some((start, end)) = incoming.req.write_span() else {
            return false;
        };
        if !may_merge(incoming) || self.queue.is_empty() {
            return false;
        }
        let (arrival, old, new, turned_ordered) = {
            let mut behind = self.by_end.at(start.0).peekable();
            let mut ahead = self.near.at(end.0).chain(self.far.at(end.0)).peekable();
            loop {
                // Both run in queue order; take the earlier arrival.
                let arrival = match (behind.peek(), ahead.peek()) {
                    (Some(b), Some(a)) if a < b => ahead.next(),
                    (Some(_), _) => behind.next(),
                    (None, _) => ahead.next(),
                };
                let Some(arrival) = arrival else {
                    return false;
                };
                let Some(queued) = self.queue.get_mut(arrival) else {
                    continue;
                };
                let Some(old) = queued.req.write_span() else {
                    continue;
                };
                let was_ordered = queued.req.flags.is_order_preserving();
                if queued.try_merge(incoming, MAX_MERGE_BLOCKS) {
                    let new = queued.req.write_span().unwrap_or(old);
                    let turned = !was_ordered && queued.req.flags.is_order_preserving();
                    break (arrival, old, new, turned);
                }
            }
        };
        // A back merge moved the request's end, a front merge its start.
        if new.1 != old.1 {
            self.by_end.remove((old.1 .0, arrival));
            self.by_end.insert((new.1 .0, arrival));
        }
        if new.0 != old.0 {
            let starts = self.starts_of(arrival);
            starts.remove((old.0 .0, arrival));
            starts.insert((new.0 .0, arrival));
        }
        self.ordered += usize::from(turned_ordered);
        true
    }

    /// Removes the next request to dispatch — a bounced one first — or
    /// `None` if the lane holds nothing.
    #[inline]
    pub fn dequeue(&mut self) -> Option<MergedRequest> {
        let mut m = if self.bounced.is_some() {
            self.bounced.take()?
        } else {
            self.sweep()?
        };
        if m.req.flags.is_order_preserving() {
            debug_assert!(self.ordered > 0, "an ordered request nobody counted");
            self.ordered = self.ordered.saturating_sub(1);
            if self.barrier_owed && self.ordered == 0 {
                // Last order-preserving request of the epoch: it becomes
                // the barrier (Epoch-Based Barrier Reassignment).
                m.req.flags.barrier = true;
                self.barrier_owed = false;
                self.reassignments += 1;
            }
        }
        Some(m)
    }

    /// Takes back a request [`EpochScheduler::dequeue`] handed out and the
    /// device refused. It still belongs to its epoch: the lane is not
    /// drained while it waits here, and a fence arriving meanwhile finds
    /// it.
    pub fn bounce(&mut self, m: MergedRequest) {
        debug_assert!(self.bounced.is_none(), "one request is offered at a time");
        self.ordered += usize::from(m.req.flags.is_order_preserving());
        self.bounced = Some(m);
    }

    /// The one-way elevator: reads and flushes keep FIFO order relative
    /// to their arrival batch, writes leave in ascending-LBA sweeps.
    #[inline]
    fn sweep(&mut self) -> Option<MergedRequest> {
        let (front, _) = self.queue.first()?;
        // Non-write requests (flush, read) dispatch FIFO-first if they are
        // at the head, preserving their arrival semantics.
        if self.stops.front() == Some(&front) {
            self.stops.pop_front();
            let m = self.queue.remove(front);
            self.promote();
            return m;
        }
        // Pick the write with the smallest LBA >= head, else wrap to the
        // smallest overall (one-way elevator), the first in queue order
        // among equals. `near` ends at the first flush/read, so the sweep
        // cannot pass one.
        let (lba, arrival) = self.near.take_next_from(self.head)?;
        let m = self.queue.remove(arrival)?;
        self.by_end.remove((lba + m.req.blocks(), arrival));
        self.head = lba + m.req.blocks();
        Some(m)
    }

    /// The stop at the front has left (so `near` is empty): the writes
    /// between it and the next stop are the sweep's now. Each write is
    /// moved at most once in its life.
    fn promote(&mut self) {
        let Some(&stop) = self.stops.front() else {
            std::mem::swap(&mut self.near, &mut self.far);
            return;
        };
        for (arrival, m) in self.queue.iter() {
            if arrival >= stop {
                break;
            }
            if let Some((start, _)) = m.req.write_span() {
                self.far.remove((start.0, arrival));
                self.near.insert((start.0, arrival));
            }
        }
    }

    /// Requests the lane holds (queued or bounced, not yet dispatched).
    pub fn len(&self) -> usize {
        self.queue.len() + usize::from(self.bounced.is_some())
    }

    /// True when the lane holds no request.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the current epoch on this lane: owe a barrier to the last
    /// order-preserving request if the lane holds any — that request
    /// closes the epoch on this lane's device.
    pub fn fence(&mut self) {
        self.barrier_owed |= !self.is_drained();
    }

    /// True when this lane has dispatched its share of the fenced epoch
    /// (it holds no order-preserving request, queued or bounced; exact
    /// even after merges, which inherit order preservation).
    pub fn is_drained(&self) -> bool {
        self.ordered == 0
    }

    /// Number of barrier reassignments performed.
    pub fn reassignments(&self) -> u64 {
        self.reassignments
    }

    /// Starts a measured window: zeroes the reassignment count.
    pub(crate) fn start_window(&mut self) {
        self.reassignments = 0;
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

    #[test]
    fn a_fence_finds_the_bounced_request() {
        // The lane's one ordered request was dispatched and bounced back
        // by a full device. It has not left the host: the lane is not
        // drained, a fence owes it the barrier, and the barrier rides out
        // when it is offered again.
        let mut s = EpochScheduler::new();
        s.enqueue(w(1, 0, ReqFlags::ORDERED));
        let m = s.dequeue().unwrap();
        assert!(s.is_drained() && s.is_empty());
        s.bounce(m);
        assert!(!s.is_drained() && !s.is_empty());
        assert_eq!(s.len(), 1);
        s.fence();
        assert_eq!(drain(&mut s), vec![(1, true)]);
        assert!(s.is_drained() && s.is_empty());
        assert_eq!(s.reassignments(), 1);
    }

    #[test]
    fn a_bounced_request_leaves_first_and_the_barrier_still_goes_last() {
        let mut s = EpochScheduler::new();
        s.enqueue(w(1, 50, ReqFlags::ORDERED));
        s.enqueue(w(2, 10, ReqFlags::ORDERED));
        let first = s.dequeue().unwrap();
        assert_eq!(first.req.id, ReqId(2));
        s.bounce(first);
        s.fence();
        // Re-offered ahead of the sweep; request 1 is the last ordered
        // leaver and takes the barrier. A barrier already attached
        // survives a bounce without being counted twice.
        assert_eq!(
            s.dequeue().map(|m| (m.req.id.0, m.req.flags.barrier)),
            Some((2, false))
        );
        let last = s.dequeue().unwrap();
        assert!(last.req.flags.barrier);
        s.bounce(last);
        assert!(!s.is_drained());
        assert_eq!(drain(&mut s), vec![(1, true)]);
        assert_eq!(s.reassignments(), 1);
    }

    #[test]
    fn a_merge_that_turns_a_request_ordered_is_counted() {
        let mut s = EpochScheduler::new();
        s.enqueue(w(1, 10, ReqFlags::NONE));
        assert!(s.is_drained());
        s.enqueue(w(2, 11, ReqFlags::ORDERED)); // back-merges into 1
        assert_eq!(s.len(), 1);
        assert!(!s.is_drained());
        s.enqueue(w(3, 12, ReqFlags::ORDERED)); // already ordered: still one
        s.fence();
        assert_eq!(drain(&mut s), vec![(1, true)]);
        assert!(s.is_drained());
    }

    #[test]
    fn a_front_merged_request_is_swept_from_its_new_start() {
        let mut s = EpochScheduler::new();
        s.enqueue(wn(1, 40, 1));
        s.enqueue(wn(2, 20, 2));
        s.enqueue(wn(3, 18, 2)); // front-merges into 2: now 18..22
        s.enqueue(wn(4, 19, 1)); // a twin inside the merged span
        s.enqueue(wn(5, 16, 2)); // finds 2 by its new start: now 16..22
        assert_eq!(s.len(), 3);
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| s.dequeue().map(|m| (m.req.id.0, m.req.blocks()))).collect();
        assert_eq!(order, vec![(2, 6), (1, 1), (4, 1)]);
    }

    #[test]
    fn writes_behind_a_flush_wait_for_it_but_still_merge() {
        let mut s = EpochScheduler::new();
        s.enqueue(wn(1, 50, 1));
        s.enqueue(BlockRequest::flush(ReqId(2)));
        s.enqueue(wn(3, 10, 1));
        s.enqueue(BlockRequest::read(ReqId(4), Lba(0), 1));
        s.enqueue(wn(5, 5, 1));
        s.enqueue(wn(6, 11, 1)); // merges into 3, across the read
        s.enqueue(wn(7, 51, 1)); // merges into 1, across the flush
        assert_eq!(s.len(), 5);
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue().map(|m| m.req.id.0)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn equal_starts_leave_in_queue_order_and_the_older_merge_target_wins() {
        let mut s = EpochScheduler::new();
        s.enqueue(wn(1, 30, 1));
        s.enqueue(wn(2, 30, 1)); // a twin: same start, cannot merge
        s.enqueue(wn(3, 30, 2));
        s.enqueue(wn(4, 31, 1)); // 1 and 2 both end at 31: the older takes it
        assert_eq!(s.len(), 3);
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| s.dequeue().map(|m| (m.req.id.0, m.req.blocks()))).collect();
        assert_eq!(order, vec![(1, 2), (2, 1), (3, 2)]);
    }
}
