//! The probe identity: an instrumented tracker is bit-identical to a bare
//! one, over arbitrary activation streams.
//!
//! This is the contract that lets the telemetry instrumentation live
//! permanently in the hot path: attaching (or not attaching) a sink cannot
//! change a single response or counter. A second property cross-checks the
//! event stream itself against `HydraStats` — every counted happening is
//! emitted exactly once.

use hydra_core::{Hydra, HydraConfig, HydraStats, RowCountTable};
use hydra_telemetry::{CountingSink, EventKind, NoopSink, RingBufferSink};
use hydra_types::{ActivationKind, ActivationTracker, MemGeometry, RowAddr};
use proptest::prelude::*;

const T_H: u32 = 16;
const T_G: u32 = 12;

fn config() -> HydraConfig {
    HydraConfig::builder(MemGeometry::tiny(), 0)
        .thresholds(T_H, T_G)
        .gct_entries(64)
        .rcc_entries(16)
        .rcc_ways(4)
        .build()
        .expect("valid test config")
}

/// Streams biased toward hammering (hot rows + group mates + reserved RCT
/// rows) — the traffic that exercises every instrumented seam: spills, RCC
/// fills and evictions, RCT reads/write-backs, RIT-ACT, and mitigations.
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A `Hydra` carrying an explicit `NoopSink` — and one carrying a live
    /// recording sink — produce, for every activation and window reset,
    /// exactly the responses and stats of the default (bare) tracker.
    #[test]
    fn probed_tracker_is_bit_identical(
        sequence in activation_sequence(),
        reset_every in 0usize..200,
    ) {
        let mut bare = Hydra::new(config()).expect("valid config");
        let mut noop = Hydra::with_probe(config(), NoopSink).expect("valid config");
        let mut recording =
            Hydra::with_probe(config(), RingBufferSink::new(64)).expect("valid config");
        for (i, &row) in sequence.iter().enumerate() {
            if reset_every > 0 && i > 0 && i % reset_every == 0 {
                bare.reset_window(i as u64);
                noop.reset_window(i as u64);
                recording.reset_window(i as u64);
            }
            let a = bare.on_activation(row, i as u64, ActivationKind::Demand);
            let b = noop.on_activation(row, i as u64, ActivationKind::Demand);
            let c = recording.on_activation(row, i as u64, ActivationKind::Demand);
            prop_assert_eq!(&a, &b, "noop-probe divergence at step {}", i);
            prop_assert_eq!(&a, &c, "recording-probe divergence at step {}", i);
        }
        prop_assert_eq!(bare.stats(), noop.stats());
        prop_assert_eq!(bare.stats(), recording.stats());
    }

    /// The emitted event stream agrees with `HydraStats`, counter for
    /// counter: instrumentation is complete (nothing counted goes
    /// unemitted) and honest (nothing is emitted twice).
    #[test]
    fn event_counts_match_stats(
        sequence in activation_sequence(),
        reset_every in 0usize..200,
    ) {
        let mut h = Hydra::with_probe(config(), CountingSink::new()).expect("valid config");
        for (i, &row) in sequence.iter().enumerate() {
            if reset_every > 0 && i > 0 && i % reset_every == 0 {
                h.reset_window(i as u64);
            }
            h.on_activation(row, i as u64, ActivationKind::Demand);
        }
        let stats: HydraStats = h.stats();
        let sink = h.into_probe();
        prop_assert_eq!(sink.count(EventKind::GctOnly), stats.gct_only);
        prop_assert_eq!(sink.count(EventKind::RccHit), stats.rcc_hits);
        prop_assert_eq!(sink.count(EventKind::GroupSpill), stats.group_spills);
        prop_assert_eq!(sink.count(EventKind::Mitigation), stats.mitigations);
        prop_assert_eq!(sink.count(EventKind::RitMitigation), stats.rit_mitigations);
        prop_assert_eq!(
            sink.count(EventKind::ReservedActivation),
            stats.reserved_activations
        );
        prop_assert_eq!(sink.count(EventKind::WindowReset), stats.window_resets);
        // rct_accesses counts both per-row-path RCT reads and group spills.
        prop_assert_eq!(
            sink.count(EventKind::RctRead) + sink.count(EventKind::GroupSpill),
            stats.rct_accesses
        );
        // Every RCC miss leads to exactly one RCT read.
        prop_assert_eq!(sink.count(EventKind::RccMiss), sink.count(EventKind::RctRead));
        // Exactly one row-keyed RctAccess per per-row-path activation
        // (the attribution seam used by hydra-forensics).
        prop_assert_eq!(
            sink.count(EventKind::RctAccess),
            stats.rcc_hits + stats.rct_accesses
        );
        // Writeback is on by default: every eviction writes the RCT once.
        prop_assert_eq!(sink.count(EventKind::RccEvict), sink.count(EventKind::RctWrite));
        // Side traffic is exact: each spill reads and rewrites the group's
        // L lines, and each RCT read or write-back is one more line.
        let lines = RowCountTable::lines_per_group(config().rows_per_group());
        let spills = sink.count(EventKind::GroupSpill);
        prop_assert_eq!(stats.side_reads, sink.count(EventKind::RctRead) + lines * spills);
        prop_assert_eq!(stats.side_writes, sink.count(EventKind::RctWrite) + lines * spills);
    }
}
