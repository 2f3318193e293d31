//! Multi-queue, multi-device topologies (the blk-mq model).
//!
//! The paper leaves one question open: does order-preserving dispatch
//! survive a multi-queue interface, where requests fan out across
//! independent submission queues? This example scales the same commit
//! storm across lane topologies and watches the two costs fight:
//!
//! * more **devices** add bandwidth (RAID-0 striping spreads the
//!   journal);
//! * more **queues per device** scatter neighbours: requests are placed by
//!   `id % nr_hw_queues`, so writes to adjacent blocks that one lane would
//!   merge into a single command land on different lanes and go out one by
//!   one, each closing an epoch of its own. That lost merging — not the
//!   cross-lane sequencer's wait for every lane to drain — is what a
//!   second queue costs BFS-OD (about 5 % at 256 threads × 24 appends; see
//!   "Known costs" in `docs/INVARIANTS.md`).
//!
//! Run with: `cargo run --release --example multi_queue`

use barrier_io::{
    DeviceProfile, FileRef, IoStack, Op, ScriptWorkload, SimDuration, StackConfig, Topology,
};

/// A small ordered transaction: two data blocks, a barrier, a commit.
fn txn(file: usize) -> Vec<Op> {
    let f = FileRef::Global(file);
    vec![
        Op::Write {
            file: f,
            offset: 0,
            blocks: 2,
        },
        Op::Fdatabarrier { file: f },
        Op::Write {
            file: f,
            offset: 2,
            blocks: 1,
        },
        Op::Fbarrier { file: f },
        Op::TxnMark,
    ]
}

fn main() {
    println!("Barrier-Enabled IO Stack — multi-queue topologies\n");
    println!(
        "{:<28} {:>10} {:>10} {:>8}",
        "topology", "Tx/s", "blocks/s", "epochs"
    );
    for (queues, devices) in [(1, 1), (1, 2), (1, 4), (4, 1), (4, 4), (8, 4)] {
        let cfg = StackConfig::bfs(DeviceProfile::plain_ssd())
            .ordering_only()
            .with_topology(Topology::new(queues, devices, 8));
        let label = cfg.label();
        let mut stack = IoStack::new(cfg);
        for _ in 0..64 {
            // One file per thread so the allocations spread over stripes.
            let file = stack.create_global_file();
            stack.add_thread(Box::new(ScriptWorkload::repeat(txn(file), 40)));
        }
        stack.start_measuring();
        stack.run_until_done(SimDuration::from_secs(600));
        let report = stack.report();
        // Per-device work really is striped: every device dispatched.
        assert!(stack.devices().iter().all(|d| d.stats().write_cmds > 0));
        println!(
            "{label:<28} {:>10.0} {:>10.0} {:>8}",
            report.run.txns_per_sec(),
            report.write_kiops * 1000.0,
            report.block.epochs_sequenced,
        );
    }
}
