//! Does each preset device hold the filesystem's journal?
//!
//! The filesystem lays its journal out after `Filesystem::MAX_FILES`
//! (65,536) metadata blocks, whatever the device, and its data after the
//! journal. A device's logical capacity (`DeviceProfile::logical_blocks`,
//! physical pages less an eighth of over-provisioning) is smaller than
//! that on the two mobile presets, so every journal and data write there
//! lands past the capacity the device advertises. Nothing refuses such a
//! write today (the device bounds addresses only at `Lba::LIMIT`), which
//! is why it goes unseen; a device that refused writes past
//! `logical_blocks()` would refuse them all. This test records the gap,
//! preset by preset, so that neither closing it nor widening it passes
//! unnoticed.

use barrier_io::{DeviceProfile, FileRef, IoStack, Op, ScriptWorkload, SimDuration, StackConfig};

/// Every preset profile, and whether its logical capacity reaches past
/// the journal's first block.
fn presets() -> [(DeviceProfile, bool); 6] {
    [
        (DeviceProfile::ufs(), false),
        (DeviceProfile::plain_ssd(), true),
        (DeviceProfile::supercap_ssd(), true),
        (DeviceProfile::hdd(), true),
        (DeviceProfile::emmc(), false),
        (DeviceProfile::flash_array(32), true),
    ]
}

/// The first journal block an EXT4-DR stack on `dev` writes: the
/// descriptor of its first commit.
fn journal_start(dev: DeviceProfile) -> u64 {
    let mut stack = IoStack::new(StackConfig::ext4_dr(dev));
    let file = FileRef::Global(stack.create_global_file());
    stack.add_thread(Box::new(ScriptWorkload::repeat(
        vec![
            Op::Write {
                file,
                offset: 0,
                blocks: 1,
            },
            Op::Fsync { file },
        ],
        1,
    )));
    assert!(
        stack.run_until_done(SimDuration::from_secs(1)),
        "one fsync finishes"
    );
    let first = stack.fs().records().first().expect("an fsync commits");
    first.jd_lba.0
}

#[test]
fn logical_capacity_covers_the_journal_except_on_the_mobile_presets() {
    for (dev, covers) in presets() {
        let name = dev.name.clone();
        let capacity = dev.logical_blocks();
        let start = journal_start(dev);
        assert_eq!(start, 65_536, "{name}: the journal follows MAX_FILES");
        println!("capacity: {name}: {capacity} logical blocks, journal at {start}");
        assert_eq!(
            capacity > start,
            covers,
            "{name}: {capacity} logical blocks against a journal at {start}"
        );
    }
}
