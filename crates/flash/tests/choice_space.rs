//! Which images a power loss can leave: the [`ChoiceSpace`] each barrier
//! mode admits from a crash state, on hand-made append logs, and choice 0
//! held to [`Device::crash_image`] on live devices of every mode.

use std::sync::Arc;

use bio_flash::{
    AppendLog, BarrierMode, BlockTag, ChoiceSpace, CmdId, Command, CrashState, DevAction, DevEvent,
    Device, DeviceProfile, Lba, OpenGroup, Overlay, WriteFlags,
};
use bio_sim::{EventQueue, SimRng};

/// A device holding `log` and nothing else.
fn state_of(mode: BarrierMode, plp: bool, log: &AppendLog) -> CrashState {
    CrashState {
        base: Arc::new(log.base().clone()),
        tail: log.tail().copied().collect(),
        cache: Vec::new(),
        plp,
        mode,
        open_group: None,
        history: None,
        audit: None,
    }
}

/// `state`'s space.
fn space_of(state: &CrashState) -> ChoiceSpace {
    let mut space = ChoiceSpace::default();
    space.rebuild(state);
    space
}

/// `state`'s overlay under one choice of its space.
fn view(state: &CrashState, space: &ChoiceSpace, choice: u64) -> Overlay {
    let mut o = Overlay::default();
    o.rebuild(state);
    o.resolve(state, space, choice);
    o
}

/// A log with entries: done, in flight, done, in flight.
fn mixed_log() -> AppendLog {
    let mut log = AppendLog::new();
    let a = log.begin(Lba(1), BlockTag(10), None);
    let _b = log.begin(Lba(2), BlockTag(20), None);
    let c = log.begin(Lba(3), BlockTag(30), None);
    let _d = log.begin(Lba(4), BlockTag(40), None);
    log.mark_done(a);
    log.mark_done(c);
    log
}

#[test]
fn lfs_space_is_prefixes() {
    let d = state_of(BarrierMode::LfsInOrderRecovery, false, &mixed_log());
    let space = space_of(&d);
    // Holes at tail indices 1 and 3: three cuts.
    assert_eq!((space.is_mask(), space.width()), (false, 2));
    // Choice 0: the prefix up to the first hole, the record past it lost.
    let img0 = view(&d, &space, 0);
    assert_eq!(img0.tag(&d, Lba(1)), BlockTag(10));
    assert_eq!(img0.tag(&d, Lba(2)), BlockTag::UNWRITTEN);
    assert_eq!(img0.tag(&d, Lba(3)), BlockTag::UNWRITTEN, "after-hole lost");
    // Choice 1: the first in-flight program made it, the cut is at idx 3.
    let img1 = view(&d, &space, 1);
    assert_eq!(img1.tag(&d, Lba(2)), BlockTag(20));
    assert_eq!(img1.tag(&d, Lba(3)), BlockTag(30));
    assert_eq!(img1.tag(&d, Lba(4)), BlockTag::UNWRITTEN);
    // Choice 2: everything made it.
    assert_eq!(view(&d, &space, 2).tag(&d, Lba(4)), BlockTag(40));
}

#[test]
fn orderless_space_is_subsets() {
    for mode in [BarrierMode::Unsupported, BarrierMode::InOrderWriteback] {
        let d = state_of(mode, false, &mixed_log());
        let space = space_of(&d);
        assert_eq!((space.is_mask(), space.width()), (true, 2));
        // Choice 0: the programmed records only.
        let img0 = view(&d, &space, 0);
        assert_eq!(img0.materialize(&d).len(), 2);
        assert_eq!(img0.tag(&d, Lba(3)), BlockTag(30));
        // Bit 1 (the second in-flight program, idx 3) alone: out-of-order
        // survival the LFS mode cannot produce.
        let img = view(&d, &space, 0b10);
        assert_eq!(img.tag(&d, Lba(2)), BlockTag::UNWRITTEN);
        assert_eq!(img.tag(&d, Lba(4)), BlockTag(40));
        let img = view(&d, &space, 0b01);
        assert_eq!(img.tag(&d, Lba(2)), BlockTag(20));
        assert_eq!(img.tag(&d, Lba(4)), BlockTag::UNWRITTEN);
    }
}

#[test]
fn a_subset_space_holds_up_to_64_free_bits() {
    let mut log = AppendLog::new();
    for i in 0..70 {
        log.begin(Lba(i), BlockTag(100 + i), None);
    }
    let d = state_of(BarrierMode::Unsupported, false, &log);
    let space = space_of(&d);
    assert_eq!(space.width(), 64);
    // The programs past the 64th bit never retire.
    let all = view(&d, &space, u64::MAX);
    assert_eq!(all.tag(&d, Lba(63)), BlockTag(163));
    assert_eq!(all.tag(&d, Lba(64)), BlockTag::UNWRITTEN);
}

/// A transactional state: group 1 committed, group 2 open with one member
/// programmed and one in flight, and `left` members still to come.
fn group_state(left: usize) -> CrashState {
    let mut log = AppendLog::new();
    let a = log.begin(Lba(1), BlockTag(10), Some(1));
    let b = log.begin(Lba(2), BlockTag(20), Some(2));
    log.begin(Lba(3), BlockTag(30), Some(2));
    log.mark_done(a);
    log.mark_done(b);
    let mut d = state_of(BarrierMode::Transactional, false, &log);
    d.open_group = Some(OpenGroup { id: 2, left });
    d
}

#[test]
fn an_open_group_lands_whole_or_not_at_all() {
    // Only the in-flight member is left: its program may complete, and
    // with it the group commits.
    let d = group_state(1);
    let space = space_of(&d);
    assert_eq!((space.is_mask(), space.width()), (true, 1));
    let lost = view(&d, &space, 0);
    assert_eq!(
        lost.tag(&d, Lba(1)),
        BlockTag(10),
        "a committed group stays"
    );
    assert_eq!(lost.tag(&d, Lba(2)), BlockTag::UNWRITTEN);
    assert_eq!(lost.tag(&d, Lba(3)), BlockTag::UNWRITTEN);
    let landed = view(&d, &space, 1);
    assert_eq!(landed.tag(&d, Lba(2)), BlockTag(20));
    assert_eq!(
        landed.tag(&d, Lba(3)),
        BlockTag(30),
        "the in-flight member too"
    );
}

#[test]
fn an_open_group_with_a_member_in_the_cache_cannot_land() {
    // A second member still sits in the cache: no program of it has
    // started, so the group cannot commit before the power goes.
    let d = group_state(2);
    let space = space_of(&d);
    assert_eq!((space.is_mask(), space.width()), (true, 0));
    let only = view(&d, &space, 0);
    assert_eq!(only.materialize(&d), view(&d, &space, 1).materialize(&d));
    assert_eq!(only.tag(&d, Lba(2)), BlockTag::UNWRITTEN);
}

#[test]
fn plp_is_one_image_with_cache() {
    let mut d = state_of(BarrierMode::Unsupported, true, &mixed_log());
    d.cache.push((Lba(9), BlockTag(90)));
    d.cache.push((Lba(1), BlockTag(11)));
    let space = space_of(&d);
    assert_eq!((space.is_mask(), space.width()), (false, 0));
    let img = view(&d, &space, 0);
    assert_eq!(img.tag(&d, Lba(2)), BlockTag(20)); // even in-flight survives
    assert_eq!(img.tag(&d, Lba(9)), BlockTag(90)); // cache overlaid
    assert_eq!(img.tag(&d, Lba(1)), BlockTag(11)); // over the tail
}

/// A profile of `mode`, with PLP or without; small enough that a short run
/// folds, destages under pressure and keeps programs in flight.
fn profile(mode: BarrierMode, plp: bool) -> DeviceProfile {
    DeviceProfile {
        plp,
        cache_blocks: 32,
        ..DeviceProfile::ufs().with_barrier_mode(mode)
    }
}

#[test]
fn choice_0_is_the_devices_crash_image() {
    let modes = [
        BarrierMode::LfsInOrderRecovery,
        BarrierMode::InOrderWriteback,
        BarrierMode::Unsupported,
        BarrierMode::Transactional,
    ];
    for mode in modes {
        for plp in [false, true] {
            let mut dev = Device::new(profile(mode, plp), 7);
            let mut q: EventQueue<DevEvent> = EventQueue::new();
            let mut rng = SimRng::new(11);
            let (mut space, mut overlay) = (ChoiceSpace::default(), Overlay::default());
            let (mut next_id, mut in_flight, mut checked) = (1, 0, 0);
            while next_id < 400 || !q.is_empty() {
                let mut out = Vec::new();
                if next_id < 400 && dev.can_accept() && (q.is_empty() || rng.chance(0.3)) {
                    let flags = match rng.below(8) {
                        0 => WriteFlags::BARRIER,
                        1 => WriteFlags::FLUSH_FUA,
                        _ => WriteFlags::NONE,
                    };
                    let cmd = match rng.below(16) {
                        0 => Command::flush(CmdId(next_id)),
                        _ => {
                            let tag = vec![BlockTag(1000 + next_id)];
                            Command::write(CmdId(next_id), Lba(rng.below(24)), tag, flags)
                        }
                    };
                    next_id += 1;
                    assert!(dev.submit(cmd, q.now(), &mut out).is_ok());
                } else if let Some((now, ev)) = q.pop() {
                    dev.handle(ev, now, &mut out);
                }
                for a in out {
                    if let DevAction::After(d, ev) = a {
                        q.push_after(d, ev);
                    }
                }
                let state = CrashState::capture(&dev);
                space.rebuild(&state);
                overlay.rebuild(&state);
                overlay.resolve(&state, &space, 0);
                assert_eq!(
                    overlay.materialize(&state),
                    dev.crash_image(),
                    "{mode:?} plp {plp} after command {next_id}"
                );
                in_flight += usize::from(state.tail.iter().any(|r| !r.done));
                checked += 1;
            }
            assert!(
                in_flight > 100,
                "{mode:?} plp {plp}: {in_flight} of {checked}"
            );
        }
    }
}
