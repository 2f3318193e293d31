//! Property test: zero-clone/delta capture is bit-identical to the
//! fork-based reference path.
//!
//! For random trace seeds across the differential stacks (all three
//! filesystem disciplines, at 1q×1dev and 2q×2dev), the full sequence of
//! [`CrashPoint`]s captured through the delta cursor must equal — field
//! for field — the sequence captured by deep-forking the stack at every
//! commit ([`CaptureMode::Fork`]).

use barrier_io::{DeviceProfile, StackConfig, Topology};
use bio_bench::crash::{capture_points, CaptureMode};
use bio_workloads::SyncMode;
use proptest::prelude::*;

/// The six differential cells: (config, sync flavour).
fn cell(stack: u8) -> (StackConfig, SyncMode) {
    let mq = |cfg: StackConfig| cfg.with_topology(Topology::new(2, 2, 16));
    match stack {
        0 => (
            StackConfig::ext4_dr(DeviceProfile::ufs()).with_history(),
            SyncMode::Fsync,
        ),
        1 => (
            StackConfig::bfs(DeviceProfile::ufs()).with_history(),
            SyncMode::Fsync,
        ),
        2 => (
            StackConfig::bfs(DeviceProfile::ufs())
                .ordering_only()
                .with_history(),
            SyncMode::Fbarrier,
        ),
        3 => (
            mq(StackConfig::ext4_dr(DeviceProfile::ufs()).with_history()),
            SyncMode::Fsync,
        ),
        4 => (
            mq(StackConfig::bfs(DeviceProfile::ufs()).with_history()),
            SyncMode::Fsync,
        ),
        _ => (
            mq(StackConfig::bfs(DeviceProfile::ufs())
                .ordering_only()
                .with_history()),
            SyncMode::Fbarrier,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn delta_capture_equals_fork_capture(
        seed in 0u64..10_000,
        stack in 0u8..6,
        probe in 0usize..1024,
    ) {
        let (cfg, sync) = cell(stack);
        let delta = capture_points(cfg.clone(), sync, seed, CaptureMode::Delta);
        let fork = capture_points(cfg, sync, seed, CaptureMode::Fork);
        prop_assert!(!delta.is_empty(), "trace produced no capture points");
        prop_assert_eq!(delta.len(), fork.len());
        // Spot-check a random fork point first (sharper failure output),
        // then require the full sequences to match.
        let i = probe % delta.len();
        prop_assert_eq!(&delta[i], &fork[i]);
        prop_assert_eq!(delta, fork);
    }
}
