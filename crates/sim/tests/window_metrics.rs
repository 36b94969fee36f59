//! The window-delta invariant: per-window `HydraStats` deltas sum exactly
//! to the cumulative counters, over arbitrary activation streams and window
//! lengths.
//!
//! This is the contract that makes the per-window time-series trustworthy:
//! every activation lands in exactly one window's delta — nothing is lost
//! at a boundary, nothing is double-counted — so plotting the series or
//! summing any column reproduces the cumulative run exactly.

use hydra_core::{Hydra, HydraConfig, HydraStats};
use hydra_dram::DramTiming;
use hydra_sim::{run_windowed, ActivationSim, WindowSeries};
use hydra_types::{MemGeometry, RowAddr};
use proptest::prelude::*;

fn config() -> HydraConfig {
    HydraConfig::builder(MemGeometry::tiny(), 0)
        .thresholds(16, 12)
        .gct_entries(64)
        .rcc_entries(16)
        .rcc_ways(4)
        .build()
        .expect("valid test config")
}

/// Hammer-biased streams: hot rows, group mates, scattered banks, and the
/// reserved RCT rows — everything that moves a `HydraStats` counter.
fn activation_sequence() -> impl Strategy<Value = Vec<RowAddr>> {
    prop::collection::vec(
        prop_oneof![
            4 => (0u32..8).prop_map(|r| RowAddr::new(0, 0, 0, r)),
            2 => (0u32..128).prop_map(|r| RowAddr::new(0, 0, 0, r)),
            1 => (0u8..4, 0u32..1024).prop_map(|(b, r)| RowAddr::new(0, 0, b, r)),
            1 => (0u8..4).prop_map(|b| RowAddr::new(0, 0, b, 1023)),
        ],
        0..600,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sum of per-window deltas == cumulative tracker stats, exactly, for
    /// any stream and any window length.
    #[test]
    fn window_deltas_sum_to_cumulative(
        sequence in activation_sequence(),
        window in 1_000u64..60_000,
    ) {
        let timing = DramTiming::ddr4_3200().with_scaled_window(window);
        let tracker = Hydra::new(config()).expect("valid config");
        let mut sim = ActivationSim::new(MemGeometry::tiny(), tracker).with_timing(timing);
        let mut series = WindowSeries::new();
        let report = run_windowed(&mut sim, sequence.iter().copied(), &mut series);

        let cumulative: HydraStats = sim.tracker().stats();
        prop_assert_eq!(series.total(), cumulative, "delta sum != cumulative");
        // Victim refreshes are fed back as mitigation ACTs, so the tracker
        // sees at least the demand stream.
        prop_assert!(cumulative.activations >= sequence.len() as u64);

        // One reset per full window, each attributed to exactly one record.
        let reset_sum: u64 = series.records().iter().map(|r| r.delta.window_resets).sum();
        prop_assert_eq!(reset_sum, report.window_resets);
        prop_assert!(series.len() as u64 <= report.window_resets + 1);

        // The export is one object per window.
        let jsonl = series.to_jsonl();
        prop_assert_eq!(jsonl.lines().count(), series.len());
    }
}
