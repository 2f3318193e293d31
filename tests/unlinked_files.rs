//! An unlinked file holds nothing and accepts nothing.
//!
//! `Filesystem::unlink` frees a file's extents, written-back runs and
//! dirty pages, and from then on every syscall naming it is dropped and
//! counted in `FsStats::dropped_journal_events`, like a file never
//! created. Its slot keeps the scalars the journal still reads, so a file
//! unlinked while its inode buffer sits in the running transaction commits
//! and releases like any other. A create past the metadata region is
//! refused and counted the same way, and so is every op on the id it
//! returns.

use barrier_io::{DeviceProfile, FileRef, IoStack, Op, ScriptWorkload, StackConfig};
use bio_fs::{
    ActionSink, FileId, Filesystem, FsAction, FsConfig, FsEvent, FsMode, SyscallOutcome, ThreadId,
};
use bio_sim::{SimDuration, SimTime};

const T0: ThreadId = ThreadId(0);
const MODES: [FsMode; 4] = [
    FsMode::Ext4,
    FsMode::Ext4NoBarrier,
    FsMode::BarrierFs,
    FsMode::OptFs,
];

/// Completes every submitted request and runs every scheduled event, all
/// at `now`, until the filesystem emits nothing more.
fn settle(fs: &mut Filesystem, out: &mut ActionSink<FsAction>, now: SimTime) {
    for _ in 0..64 {
        let pending: Vec<FsAction> = out.iter().cloned().collect();
        out.clear();
        if pending.is_empty() {
            return;
        }
        for a in pending {
            match a {
                FsAction::Submit(r) => fs.handle(FsEvent::ReqDone(r.id), now, out),
                FsAction::After(_, ev) => fs.handle(ev, now, out),
                FsAction::Wake(_) | FsAction::CtxSwitch(_) => {}
            }
        }
    }
    panic!("filesystem failed to quiesce");
}

/// A filesystem with one file that has written-back blocks 0..4 and dirty
/// pages 2..6, so it holds every kind of storage a file can.
fn file_with_storage(mode: FsMode) -> (Filesystem, FileId) {
    let mut fs = Filesystem::new(FsConfig::new(mode));
    let mut out = ActionSink::new();
    let f = fs.create(T0, &mut out);
    let now = SimTime::from_micros(10);
    fs.write(T0, f, 0, 4, now, &mut out);
    fs.fsync(T0, f, now, &mut out);
    settle(&mut fs, &mut out, now);
    fs.write(T0, f, 2, 4, now, &mut out);
    let file = fs.file(f).expect("created");
    assert!(
        file.extent_count() > 0 && file.dirty_data.len() == 4,
        "{mode:?}"
    );
    assert!(file.committed_blocks.contains(0), "{mode:?}");
    (fs, f)
}

/// One syscall on a fixed file, at a fixed time.
type Syscall<'a> = dyn Fn(&mut Filesystem, &mut ActionSink<FsAction>) -> SyscallOutcome + 'a;

#[test]
fn every_syscall_on_an_unlinked_file_is_dropped_and_counted() {
    for mode in MODES {
        let (mut fs, f) = file_with_storage(mode);
        let mut out = ActionSink::new();
        fs.unlink(T0, f, &mut out);
        assert_eq!(fs.stats().dropped_journal_events, 0, "{mode:?}");
        let t = SimTime::from_micros(20);
        let calls: [(&str, &Syscall<'_>); 7] = [
            ("write", &|fs, out| fs.write(T0, f, 0, 2, t, out)),
            ("read", &|fs, out| fs.read(T0, f, 0, 2, out)),
            ("fsync", &|fs, out| fs.fsync(T0, f, t, out)),
            ("fdatasync", &|fs, out| fs.fdatasync(T0, f, t, out)),
            ("fbarrier", &|fs, out| fs.fbarrier(T0, f, t, out)),
            ("fdatabarrier", &|fs, out| fs.fdatabarrier(T0, f, t, out)),
            ("unlink", &|fs, out| {
                fs.unlink(T0, f, out);
                SyscallOutcome::Done
            }),
        ];
        for (name, call) in calls {
            let before = fs.stats().dropped_journal_events;
            let mut out = ActionSink::new();
            assert_eq!(
                call(&mut fs, &mut out),
                SyscallOutcome::Done,
                "{mode:?} {name}"
            );
            assert_eq!(
                fs.stats().dropped_journal_events,
                before + 1,
                "{mode:?} {name}: one drop"
            );
            assert_eq!(
                out.iter().count(),
                0,
                "{mode:?} {name}: no request, no event"
            );
        }
    }
}

#[test]
fn an_unlinked_file_holds_no_storage() {
    for mode in MODES {
        let (mut fs, f) = file_with_storage(mode);
        let mut out = ActionSink::new();
        fs.unlink(T0, f, &mut out);
        let file = fs.file(f).expect("the slot stays");
        assert!(!file.live, "{mode:?}");
        assert_eq!(file.extent_count(), 0, "{mode:?}");
        assert!(file.dirty_data.is_empty(), "{mode:?}");
        assert!(!file.committed_blocks.contains(0), "{mode:?}");
        // The dropped dirty pages left the writeback count, too: once the
        // unlink commits, the filesystem is quiescent.
        let g = fs.create(T0, &mut out);
        fs.fsync(T0, g, SimTime::from_micros(30), &mut out);
        settle(&mut fs, &mut out, SimTime::from_micros(30));
        assert!(fs.journal_quiescent(), "{mode:?}");
    }
}

#[test]
fn a_file_unlinked_in_the_running_transaction_commits_and_releases() {
    for mode in MODES {
        let mut fs = Filesystem::new(FsConfig::new(mode));
        let mut out = ActionSink::new();
        let now = SimTime::from_micros(10);
        let (f, g) = (fs.create(T0, &mut out), fs.create(T0, &mut out));
        fs.write(T0, f, 0, 2, now, &mut out);
        let running = fs.file(f).and_then(|file| file.txn);
        assert!(
            running.is_some(),
            "{mode:?}: f's inode is in the running txn"
        );
        fs.unlink(T0, f, &mut out);
        assert_eq!(fs.file(f).and_then(|file| file.txn), running, "{mode:?}");
        fs.write(T0, g, 0, 1, now, &mut out);
        assert_eq!(fs.fsync(T0, g, now, &mut out), SyscallOutcome::Blocked);
        settle(&mut fs, &mut out, now);

        let file = fs.file(f).expect("the slot stays");
        assert_eq!(file.txn, None, "{mode:?}: the commit released f's buffer");
        let (inode, tag) = (file.inode_lba, file.meta_tag);
        assert!(
            fs.records()
                .iter()
                .any(|r| r.meta_home().contains(&(inode, tag))),
            "{mode:?}: the unlinked inode was committed"
        );
        assert_eq!(fs.committing_count(), 0, "{mode:?}");
        assert!(fs.journal_quiescent(), "{mode:?}");
        assert_eq!(fs.stats().dropped_journal_events, 0, "{mode:?}");
    }
}

#[test]
fn a_create_past_the_metadata_region_is_refused_and_counted() {
    // One thread creates into slot 0 until the region is full, once more,
    // and then writes to what slot 0 holds.
    let file = FileRef::Slot(0);
    let mut script = vec![Op::Create { slot: 0 }; Filesystem::MAX_FILES as usize];
    script.extend([
        Op::Create { slot: 0 },
        Op::Write {
            file,
            offset: 0,
            blocks: 1,
        },
    ]);
    let mut stack = IoStack::new(StackConfig::ext4_dr(DeviceProfile::plain_ssd()));
    stack.add_thread(Box::new(ScriptWorkload::once(script)));
    assert!(stack.run_until_done(SimDuration::from_secs(60)));
    assert_eq!(
        stack.fs().stats().dropped_journal_events,
        2,
        "create 65,537 and the write on its slot"
    );
    let last = FileId(Filesystem::MAX_FILES as u32 - 1);
    assert!(stack.fs().file(last).is_some_and(|f| f.live));
    assert!(stack.fs().file(FileId(last.0 + 1)).is_none());
    assert!(stack.fs().file(FileId::NONE).is_none());
}
