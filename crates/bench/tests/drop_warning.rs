//! A stack that drops an event is reported, not passed over: the cell
//! driver adds its drop counters to the process total, and the warning
//! block `figures` prints on stderr (before exiting 4) names the counter,
//! the stack and the grid cell. Its own test binary, so nothing else in
//! the process drops anything.

use barrier_io::{DeviceProfile, FileRef, Op, ScriptWorkload, StackConfig};
use bio_bench::experiments::cells::{run_cell, threads_of, Span};
use bio_bench::ExperimentGrid;

#[test]
fn one_forged_event_in_one_cell_is_named_in_the_warning_block() {
    assert_eq!(bio_bench::dropped_events(), 0);
    assert!(bio_bench::drop_warning().is_none());
    let mut grid = ExperimentGrid::new();
    for forged in [false, true] {
        grid.push(format!("figtest/forged={forged}"), move || {
            let file = FileRef::Global(0);
            let mut script = vec![Op::Write {
                file,
                offset: 0,
                blocks: 1,
            }];
            if forged {
                // A file no thread or stack ever created: the filesystem
                // drops the call and counts it.
                let file = FileRef::Global(9);
                script.push(Op::Fsync { file });
            }
            script.extend([Op::Fsync { file }, Op::TxnMark]);
            let cfg = StackConfig::ext4_dr(DeviceProfile::ufs());
            let stack = threads_of(cfg, 1, || {
                Box::new(ScriptWorkload::repeat(script.clone(), 1))
            });
            run_cell(stack, Span::UntilDone).1.run.txns
        });
    }
    assert_eq!(grid.run_with(2), [1, 1], "both cells ran to the end");
    assert_eq!(bio_bench::dropped_events(), 1);
    let block = bio_bench::drop_warning().expect("a warning block");
    let line = "FsStats::dropped_journal_events = 1 in EXT4-DR@UFS (cell `figtest/forged=true`)";
    assert!(block.contains(line), "{block}");
    assert_eq!(
        block.lines().count(),
        2,
        "a header and one counter: {block}"
    );
}
