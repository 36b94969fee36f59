//! The arena's non-interference proof: racing Hydra as the roster's boxed
//! `hydra` entry is **call-for-call identical** to the concrete Hydra path
//! every existing gate uses.
//!
//! The roster hands out `Box<dyn ActivationTracker + Send>`; the proptest
//! below replays arbitrary activation streams through
//! `ActivationSim<BoxedTracker>` and `ActivationSim<Hydra>` and requires
//! the same report, the same mitigated-row log, and the same introspection
//! (name, SRAM, parameters, and the group-spill count behind
//! `max_spillover`). The latter also proves the `Box<T>` forwarding of the
//! trait's defaulted methods: a missed forward would report `""`/`0`.
//!
//! Nothing here is statistical: the box only forwards calls, so any
//! divergence is a real behavioral bug.

use hydra_arena::{build_tracker, hydra_config_for_threshold};
use hydra_core::Hydra;
use hydra_dram::DramTiming;
use hydra_sim::ActivationSim;
use hydra_types::tracker::ActivationTracker;
use hydra_types::{MemGeometry, RowAddr};
use proptest::prelude::*;

/// A threshold low enough for short streams to trip it.
const T_RH: u32 = 32;

/// Hammer-biased streams: most activations collapse onto a hot row set so
/// thresholds trip. A dense double-sided prefix makes every case mitigate,
/// so no case passes vacuously.
fn stream() -> impl Strategy<Value = Vec<RowAddr>> {
    prop::collection::vec(
        (0u8..4, 0u32..1024).prop_map(|(bank, row)| {
            let row = if row % 3 == 0 { row % 8 } else { row };
            RowAddr::new(0, 0, bank, row)
        }),
        0..800,
    )
    .prop_map(|tail| {
        (0..200u32)
            .map(|i| RowAddr::new(0, 0, 0, 100 + (i % 2) * 2))
            .chain(tail)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn boxed_roster_hydra_is_identical_to_concrete_hydra(rows in stream()) {
        let geometry = MemGeometry::tiny();
        let timing = DramTiming::ddr4_3200().with_scaled_window(1_000);
        let config = match hydra_config_for_threshold(geometry, 0, T_RH) {
            Ok(c) => c,
            Err(e) => panic!("config: {e}"),
        };
        let concrete = match Hydra::new(config) {
            Ok(h) => h,
            Err(e) => panic!("hydra: {e}"),
        };
        let window_acts = timing.max_activations_per_window();
        let boxed = match build_tracker("hydra", geometry, 0, T_RH, 42, window_acts) {
            Ok(t) => t,
            Err(e) => panic!("roster: {e}"),
        };
        let mut concrete_sim = ActivationSim::new(geometry, concrete).with_timing(timing);
        let mut boxed_sim = ActivationSim::new(geometry, boxed).with_timing(timing);

        let concrete_report = concrete_sim.run(rows.iter().copied());
        let boxed_report = boxed_sim.run(rows.iter().copied());

        prop_assert!(concrete_report.mitigations > 0, "{:?}", concrete_report);
        prop_assert_eq!(boxed_report, concrete_report);
        prop_assert_eq!(boxed_sim.drain_mitigated(), concrete_sim.drain_mitigated());
        let (boxed, concrete) = (boxed_sim.tracker(), concrete_sim.tracker());
        prop_assert_eq!(boxed.name(), concrete.name());
        prop_assert_eq!(boxed.sram_bytes(), concrete.sram_bytes());
        prop_assert_eq!(boxed.params(), concrete.params());
        prop_assert_eq!(boxed.max_spillover(), concrete.stats().group_spills);
    }
}
