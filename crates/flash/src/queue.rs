//! The device command queue with SCSI priority semantics (§3.4).
//!
//! Order-preserving dispatch relies on the device honouring three priority
//! classes when it picks the next command to service:
//!
//! * a **head-of-queue** command is serviced before anything else waiting;
//! * an **ordered** command is a fence — it is serviced only after every
//!   earlier-arrived command has *completed*, and no later-arrived command
//!   may start before it;
//! * a **simple** command may be freely reordered, but never across an
//!   incomplete ordered command that arrived before it.
//!
//! Completion (not just service start) is what releases a fence, mirroring
//! the SCSI ordered-tag definition.
//!
//! A pick attempt follows every device event, and most find nothing to
//! pick, so what an attempt needs is kept as commands move instead of
//! being derived by passes over them: `waiting` is in arrival order,
//! `in_service` is sorted by arrival (oldest first), and the waiting
//! head-of-queue commands and the in-service ordered ones are counted and
//! listed. With those, only the command at the front of `waiting` ever has
//! to be looked at: if it is fenced, everything behind it arrived later
//! and is fenced too.

use std::collections::VecDeque;

use bio_sim::SimTime;

use crate::types::{CmdId, Command, Priority};

/// A depth-bounded command queue tracking waiting and in-service commands.
///
/// Each waiting command carries its admission time, handed back by
/// [`CommandQueue::pick`]: the admit record rides with the command instead
/// of living in a side map, so it can neither leak when a command leaves
/// through an unusual path nor go missing when service begins.
#[derive(Debug, Clone, Default)]
pub struct CommandQueue {
    /// `(arrival-seq, admitted, command)`, in arrival order.
    waiting: VecDeque<(u64, SimTime, Command)>,
    /// How many of `waiting` are head-of-queue commands.
    waiting_head_of_queue: usize,
    /// `(arrival-seq, id)` of commands picked but not yet completed,
    /// oldest arrival first; bounded by the queue depth.
    in_service: Vec<(u64, CmdId)>,
    /// Arrival-seqs of the in-service *ordered* commands, oldest first:
    /// the fences a later simple command may not pass.
    ordered_in_service: Vec<u64>,
    depth: usize,
    next_arrival: u64,
    /// Peak occupancy, for reporting.
    peak: usize,
}

/// Inserts `item` into `sorted` (ascending by `key`), from the back: a
/// pick is nearly always the newest arrival in service.
fn insert_sorted<T>(sorted: &mut Vec<T>, item: T, key: impl Fn(&T) -> u64) {
    let at = sorted
        .iter()
        .rposition(|other| key(other) < key(&item))
        .map_or(0, |i| i + 1);
    sorted.insert(at, item);
}

impl CommandQueue {
    /// Creates a queue admitting at most `depth` commands (waiting plus
    /// in-service), matching the device's advertised queue depth.
    pub fn new(depth: usize) -> CommandQueue {
        let depth = depth.max(1);
        CommandQueue {
            waiting: VecDeque::with_capacity(depth),
            waiting_head_of_queue: 0,
            in_service: Vec::with_capacity(depth),
            ordered_in_service: Vec::new(),
            depth,
            next_arrival: 0,
            peak: 0,
        }
    }

    /// Commands currently occupying queue slots (waiting + in service).
    pub fn occupancy(&self) -> usize {
        self.waiting.len() + self.in_service.len()
    }

    /// Highest occupancy seen.
    pub fn peak_occupancy(&self) -> usize {
        self.peak
    }

    /// True when another command can be admitted.
    pub fn has_room(&self) -> bool {
        self.occupancy() < self.depth
    }

    /// Admits a command at time `now`, or returns it when the queue is
    /// full (the host must retry later — the "device busy" path of
    /// Fig 6(b)).
    #[inline]
    pub fn admit(&mut self, cmd: Command, now: SimTime) -> Result<(), Command> {
        if !self.has_room() {
            return Err(cmd);
        }
        let seq = self.next_arrival;
        self.next_arrival += 1;
        self.waiting_head_of_queue += usize::from(cmd.priority == Priority::HeadOfQueue);
        self.waiting.push_back((seq, now, cmd));
        self.peak = self.peak.max(self.occupancy());
        Ok(())
    }

    /// Picks the next serviceable command under the priority rules, moving
    /// it to the in-service set. Returns the command together with its
    /// admission time; `None` when nothing is eligible.
    #[inline]
    pub fn pick(&mut self) -> Option<(Command, SimTime)> {
        let idx = self.pick_index()?;
        let (seq, admitted, cmd) = self.waiting.remove(idx)?;
        match cmd.priority {
            Priority::HeadOfQueue => self.waiting_head_of_queue -= 1,
            Priority::Ordered => insert_sorted(&mut self.ordered_in_service, seq, |&s| s),
            Priority::Simple => {}
        }
        insert_sorted(&mut self.in_service, (seq, cmd.id), |&(s, _)| s);
        Some((cmd, admitted))
    }

    #[inline]
    fn pick_index(&self) -> Option<usize> {
        // Waiting list is naturally in arrival order (we only remove).
        let (seq, _, first) = self.waiting.front()?;
        // Head-of-queue jumps every *waiting* command, but (like a
        // non-queued SATA FLUSH) waits for in-flight service to finish so
        // it covers everything transferred before it.
        if self.waiting_head_of_queue > 0 {
            if !self.in_service.is_empty() {
                return None;
            }
            return self
                .waiting
                .iter()
                .position(|(_, _, c)| c.priority == Priority::HeadOfQueue);
        }
        let serviceable = match first.priority {
            // Counted above: none is waiting here.
            Priority::HeadOfQueue => false,
            // Every earlier arrival must have completed; nothing earlier
            // waits, so that is the oldest command in service. An
            // unserviceable ordered command also fences everything after
            // it.
            Priority::Ordered => self
                .in_service
                .first()
                .is_none_or(|(oldest, _)| oldest > seq),
            // Must not pass an incomplete earlier ordered command. If this
            // one is fenced, so is every simple command behind it, and an
            // ordered one behind it has an earlier arrival still waiting.
            Priority::Simple => self
                .ordered_in_service
                .first()
                .is_none_or(|fence| fence > seq),
        };
        serviceable.then_some(0)
    }

    /// Releases the queue slot of a completed command. Returns false (and
    /// changes nothing) when the command was not in service — e.g. a
    /// duplicate completion delivered by a replayed device event.
    #[inline]
    pub fn complete(&mut self, id: CmdId) -> bool {
        let Some(i) = self.in_service.iter().position(|&(_, cid)| cid == id) else {
            return false;
        };
        let (seq, _) = self.in_service.remove(i);
        // An ordered command fences every later one out of service, so it
        // is nearly always alone here and found at once.
        if let Some(i) = self.ordered_in_service.iter().position(|&s| s == seq) {
            self.ordered_in_service.remove(i);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BlockTag, Lba, WriteFlags};

    fn w(id: u64, p: Priority) -> Command {
        Command::write(CmdId(id), Lba(id), vec![BlockTag(id)], WriteFlags::NONE).with_priority(p)
    }

    #[test]
    fn admits_until_depth() {
        let mut q = CommandQueue::new(2);
        assert!(q.admit(w(1, Priority::Simple), SimTime::ZERO).is_ok());
        assert!(q.admit(w(2, Priority::Simple), SimTime::ZERO).is_ok());
        let back = q.admit(w(3, Priority::Simple), SimTime::ZERO);
        assert!(back.is_err(), "third command must bounce");
        assert_eq!(q.occupancy(), 2);
        assert_eq!(q.peak_occupancy(), 2);
    }

    #[test]
    fn in_service_occupies_slot() {
        let mut q = CommandQueue::new(2);
        q.admit(w(1, Priority::Simple), SimTime::ZERO).unwrap();
        q.pick().unwrap();
        assert_eq!(q.occupancy(), 1);
        assert!(q.admit(w(2, Priority::Simple), SimTime::ZERO).is_ok());
        assert!(q.admit(w(3, Priority::Simple), SimTime::ZERO).is_err());
        q.complete(CmdId(1));
        assert!(q.admit(w(3, Priority::Simple), SimTime::ZERO).is_ok());
    }

    #[test]
    fn simple_commands_fifo() {
        let mut q = CommandQueue::new(8);
        q.admit(w(1, Priority::Simple), SimTime::ZERO).unwrap();
        q.admit(w(2, Priority::Simple), SimTime::ZERO).unwrap();
        assert_eq!(q.pick().unwrap().0.id, CmdId(1));
        assert_eq!(q.pick().unwrap().0.id, CmdId(2));
        assert!(q.pick().is_none());
    }

    #[test]
    fn head_of_queue_jumps() {
        let mut q = CommandQueue::new(8);
        q.admit(w(1, Priority::Simple), SimTime::ZERO).unwrap();
        q.admit(w(2, Priority::HeadOfQueue), SimTime::ZERO).unwrap();
        assert_eq!(q.pick().unwrap().0.id, CmdId(2));
        assert_eq!(q.pick().unwrap().0.id, CmdId(1));
    }

    #[test]
    fn ordered_waits_for_earlier_completion() {
        let mut q = CommandQueue::new(8);
        q.admit(w(1, Priority::Simple), SimTime::ZERO).unwrap();
        q.admit(w(2, Priority::Ordered), SimTime::ZERO).unwrap();
        assert_eq!(q.pick().unwrap().0.id, CmdId(1));
        // cmd 1 in service (not completed): ordered cmd 2 must wait.
        assert!(q.pick().is_none());
        q.complete(CmdId(1));
        assert_eq!(q.pick().unwrap().0.id, CmdId(2));
    }

    #[test]
    fn simple_cannot_pass_waiting_ordered() {
        let mut q = CommandQueue::new(8);
        q.admit(w(1, Priority::Simple), SimTime::ZERO).unwrap();
        q.admit(w(2, Priority::Ordered), SimTime::ZERO).unwrap();
        q.admit(w(3, Priority::Simple), SimTime::ZERO).unwrap();
        assert_eq!(q.pick().unwrap().0.id, CmdId(1));
        // Neither the ordered fence nor the later simple may start.
        assert!(q.pick().is_none());
        q.complete(CmdId(1));
        assert_eq!(q.pick().unwrap().0.id, CmdId(2));
        // Ordered cmd 2 is in service, still fencing cmd 3.
        assert!(q.pick().is_none());
        q.complete(CmdId(2));
        assert_eq!(q.pick().unwrap().0.id, CmdId(3));
    }

    #[test]
    fn simple_before_ordered_flows_freely() {
        let mut q = CommandQueue::new(8);
        q.admit(w(1, Priority::Simple), SimTime::ZERO).unwrap();
        q.admit(w(2, Priority::Simple), SimTime::ZERO).unwrap();
        q.admit(w(3, Priority::Ordered), SimTime::ZERO).unwrap();
        assert_eq!(q.pick().unwrap().0.id, CmdId(1));
        assert_eq!(q.pick().unwrap().0.id, CmdId(2));
        assert!(q.pick().is_none(), "ordered waits for both completions");
        q.complete(CmdId(1));
        q.complete(CmdId(2));
        assert_eq!(q.pick().unwrap().0.id, CmdId(3));
    }

    #[test]
    fn consecutive_ordered_commands_serialize() {
        let mut q = CommandQueue::new(8);
        q.admit(w(1, Priority::Ordered), SimTime::ZERO).unwrap();
        q.admit(w(2, Priority::Ordered), SimTime::ZERO).unwrap();
        assert_eq!(q.pick().unwrap().0.id, CmdId(1));
        assert!(q.pick().is_none());
        q.complete(CmdId(1));
        assert_eq!(q.pick().unwrap().0.id, CmdId(2));
    }

    #[test]
    fn head_of_queue_jumps_waiting_but_awaits_in_flight() {
        let mut q = CommandQueue::new(8);
        q.admit(w(1, Priority::Ordered), SimTime::ZERO).unwrap();
        q.pick().unwrap();
        q.admit(w(2, Priority::HeadOfQueue), SimTime::ZERO).unwrap();
        q.admit(w(3, Priority::Simple), SimTime::ZERO).unwrap();
        // Like a non-queued FLUSH: waits for the in-flight command...
        assert!(q.pick().is_none());
        q.complete(CmdId(1));
        // ...then jumps ahead of every waiting command.
        assert_eq!(q.pick().unwrap().0.id, CmdId(2));
    }

    #[test]
    fn pick_returns_the_admission_time() {
        let mut q = CommandQueue::new(8);
        q.admit(w(1, Priority::Simple), SimTime::from_micros(5))
            .unwrap();
        q.admit(w(2, Priority::Simple), SimTime::from_micros(9))
            .unwrap();
        let (c1, t1) = q.pick().unwrap();
        let (c2, t2) = q.pick().unwrap();
        assert_eq!((c1.id, t1), (CmdId(1), SimTime::from_micros(5)));
        assert_eq!((c2.id, t2), (CmdId(2), SimTime::from_micros(9)));
    }

    #[test]
    fn complete_unknown_is_rejected() {
        let mut q = CommandQueue::new(2);
        assert!(!q.complete(CmdId(7)), "never-admitted command");
        q.admit(w(1, Priority::Simple), SimTime::ZERO).unwrap();
        q.pick().unwrap();
        assert!(q.complete(CmdId(1)));
        assert!(!q.complete(CmdId(1)), "duplicate completion");
        assert_eq!(q.occupancy(), 0);
    }
}
