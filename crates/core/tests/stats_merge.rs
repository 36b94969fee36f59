//! The algebra of [`HydraStats::merge`] — the reduction `hydra-engine`
//! leans on when combining per-channel shards into system-wide totals.
//!
//! Three layers of contract, strongest last:
//!
//! 1. merge is commutative and associative with `Default` as identity, so
//!    shard results can be folded in *any completion order*;
//! 2. merge is exactly the inverse of `delta_since`, so slicing one run
//!    into windows and merging the deltas reproduces the cumulative
//!    counters bit for bit;
//! 3. per-channel sharding commutes with execution: running each channel's
//!    substream on its own tracker and merging equals interleaved
//!    execution, on 2- and 4-channel geometries.

use hydra_core::{Hydra, HydraConfig, HydraStats};
use hydra_types::{ActivationKind, ActivationTracker, MemGeometry, RowAddr};
use proptest::prelude::*;

const T_H: u32 = 16;
const T_G: u32 = 12;

/// An arbitrary counter bundle. Values are drawn below `2^32` so that any
/// fold of a handful of them stays far from `u64` overflow.
fn stats_strategy() -> impl Strategy<Value = HydraStats> {
    prop::collection::vec(0u64..(1 << 32), HydraStats::FIELD_COUNT).prop_map(|v| HydraStats {
        activations: v[0],
        gct_only: v[1],
        rcc_hits: v[2],
        rct_accesses: v[3],
        group_spills: v[4],
        mitigations: v[5],
        rit_mitigations: v[6],
        reserved_activations: v[7],
        side_reads: v[8],
        side_writes: v[9],
        window_resets: v[10],
        near_misses: v[11],
        watermark_advances: v[12],
    })
}

fn merged(a: &HydraStats, b: &HydraStats) -> HydraStats {
    let mut out = *a;
    out.merge(b);
    out
}

/// A per-channel tracker on the given geometry, sized small enough that
/// short proptest streams exercise spills, RCC traffic, and mitigations.
fn tracker(geom: MemGeometry, channel: u8) -> Hydra {
    let config = HydraConfig::builder(geom, channel)
        .thresholds(T_H, T_G)
        .gct_entries(64)
        .rcc_entries(16)
        .rcc_ways(4)
        .build()
        .expect("valid test config");
    Hydra::new(config).expect("valid test config")
}

/// Hammer-biased multi-channel streams: hot rows, group mates, and random
/// scatter, with the channel drawn per activation.
fn channel_stream(channels: u8) -> impl Strategy<Value = Vec<RowAddr>> {
    prop::collection::vec(
        (0..channels, 0u8..4, 0u32..1024).prop_map(|(ch, bank, row)| {
            // Collapse most rows onto a hot set so thresholds actually trip.
            let row = if row % 3 == 0 { row % 8 } else { row };
            RowAddr::new(ch, 0, bank, row)
        }),
        0..600,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge(a, b) == merge(b, a): completion order of two shards is
    /// irrelevant.
    #[test]
    fn merge_is_commutative(a in stats_strategy(), b in stats_strategy()) {
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    /// merge(merge(a, b), c) == merge(a, merge(b, c)): shards can be folded
    /// in any grouping, e.g. as a reduction tree.
    #[test]
    fn merge_is_associative(
        a in stats_strategy(),
        b in stats_strategy(),
        c in stats_strategy(),
    ) {
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    /// `Default` is the identity element on both sides.
    #[test]
    fn default_is_the_merge_identity(a in stats_strategy()) {
        prop_assert_eq!(merged(&a, &HydraStats::default()), a);
        prop_assert_eq!(merged(&HydraStats::default(), &a), a);
    }

    /// Slicing a real run at an arbitrary point and merging the two
    /// `delta_since` windows reproduces the cumulative counters exactly.
    #[test]
    fn merging_window_deltas_recovers_cumulative_stats(
        stream in channel_stream(1),
        cut_numerator in 0u32..101,
    ) {
        let mut hydra = tracker(MemGeometry::tiny(), 0);
        let cut = stream.len() * cut_numerator as usize / 100;
        for &row in &stream[..cut] {
            hydra.on_activation(row, 0, ActivationKind::Demand);
        }
        let at_cut = hydra.stats();
        for &row in &stream[cut..] {
            hydra.on_activation(row, 0, ActivationKind::Demand);
        }
        let total = hydra.stats();
        let second_window = total.delta_since(&at_cut);
        prop_assert_eq!(merged(&at_cut, &second_window), total);
    }

    /// Sharding a 2-channel stream by channel and merging the per-shard
    /// stats is bit-identical to interleaved execution on the same
    /// trackers — the property that makes `hydra-engine`'s parallel merge
    /// exact rather than approximate.
    #[test]
    fn sharded_two_channel_run_matches_interleaved(stream in channel_stream(2)) {
        prop_assert_eq!(sharded_stats(2, &stream), interleaved_stats(2, &stream));
    }

    /// Same, on four channels.
    #[test]
    fn sharded_four_channel_run_matches_interleaved(stream in channel_stream(4)) {
        prop_assert_eq!(sharded_stats(4, &stream), interleaved_stats(4, &stream));
    }
}

/// Runs each channel's substream on its own tracker, then merges the
/// per-shard stats in *reverse* channel order (merge is commutative, so
/// the order must not matter).
fn sharded_stats(channels: u8, stream: &[RowAddr]) -> HydraStats {
    let geom = MemGeometry::tiny_with_channels(channels).expect("valid geometry");
    let mut shards: Vec<HydraStats> = (0..channels)
        .map(|ch| {
            let mut hydra = tracker(geom, ch);
            for row in stream.iter().filter(|r| r.channel == ch) {
                hydra.on_activation(*row, 0, ActivationKind::Demand);
            }
            hydra.stats()
        })
        .collect();
    shards.reverse();
    let mut total = HydraStats::default();
    for shard in &shards {
        total.merge(shard);
    }
    total
}

/// Feeds the interleaved stream through per-channel trackers in arrival
/// order, then merges in channel order.
fn interleaved_stats(channels: u8, stream: &[RowAddr]) -> HydraStats {
    let geom = MemGeometry::tiny_with_channels(channels).expect("valid geometry");
    let mut trackers: Vec<Hydra> = (0..channels).map(|ch| tracker(geom, ch)).collect();
    for &row in stream {
        trackers[row.channel as usize].on_activation(row, 0, ActivationKind::Demand);
    }
    let mut total = HydraStats::default();
    for t in &trackers {
        total.merge(&t.stats());
    }
    total
}
