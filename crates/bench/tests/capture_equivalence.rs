//! Property test: delta capture is bit-identical to the from-scratch
//! reference.
//!
//! For random trace seeds across the differential stacks (all three
//! filesystem disciplines, at 1q×1dev and 2q×2dev), the full sequence of
//! [`CrashPoint`]s captured through the delta cursor must equal — field
//! for field — the sequence built from nothing off the running stack at
//! every commit ([`CaptureMode::Scratch`]).
//!
//! [`CrashPoint`]: bio_bench::crash::CrashPoint

use bio_bench::crash::{capture_points, differential_cells, CaptureMode};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn delta_capture_equals_scratch_capture(
        seed in 0u64..10_000,
        stack in 0usize..6,
        probe in 0usize..1024,
    ) {
        // Any row of the differential table, whatever it holds.
        let mut cells = differential_cells();
        let cell = cells.swap_remove(stack % cells.len());
        let (cfg, sync) = (cell.cfg, cell.sync);
        let delta = capture_points(cfg.clone(), sync, seed, CaptureMode::Delta);
        let scratch = capture_points(cfg, sync, seed, CaptureMode::Scratch);
        prop_assert!(!delta.is_empty(), "trace produced no capture points");
        prop_assert_eq!(delta.len(), scratch.len());
        // Spot-check a random capture point first (sharper failure
        // output), then require the full sequences to match.
        let i = probe % delta.len();
        prop_assert_eq!(&delta[i], &scratch[i]);
        prop_assert_eq!(delta, scratch);
    }
}
