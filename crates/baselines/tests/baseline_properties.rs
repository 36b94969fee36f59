//! Property-based tests of the baseline trackers' defining invariants.

use hydra_baselines::{Cra, CraConfig, Graphene, GrapheneConfig, MisraGries, Ocpr};
use hydra_types::{ActivationKind, ActivationTracker, MemGeometry, RowAddr};
use proptest::prelude::*;
use std::collections::HashMap;

/// Arbitrary activation sequences over a small row space.
fn sequences() -> impl Strategy<Value = Vec<RowAddr>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0u32..8).prop_map(|r| RowAddr::new(0, 0, 0, r)),
            1 => (0u8..4, 0u32..256).prop_map(|(b, r)| RowAddr::new(0, 0, b, r)),
        ],
        1..1500,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Misra-Gries over-approximation (the property Graphene's guarantee
    /// rests on): estimate(x) >= true_count(x) for every x at all times.
    #[test]
    fn misra_gries_never_underestimates(seq in sequences(), capacity in 1usize..32) {
        let mut mg: MisraGries<RowAddr> = MisraGries::new(capacity);
        let mut exact: HashMap<RowAddr, u64> = HashMap::new();
        for row in seq {
            *exact.entry(row).or_insert(0) += 1;
            mg.increment(&row);
            let e = mg.estimate(&row);
            prop_assert!(e >= exact[&row], "estimate {e} < true {}", exact[&row]);
        }
    }

    /// A properly-provisioned Graphene never lets any row collect more than
    /// `threshold` activations without a mitigation.
    #[test]
    fn graphene_bounds_unmitigated(seq in sequences()) {
        let threshold = 24u32;
        let config = GrapheneConfig {
            geometry: MemGeometry::tiny(),
            channel: 0,
            threshold,
            entries_per_bank: 2048, // enough for every distinct row
        };
        let mut g = Graphene::new(config);
        let mut unmitigated: HashMap<RowAddr, u32> = HashMap::new();
        for (i, row) in seq.into_iter().enumerate() {
            let c = unmitigated.entry(row).or_insert(0);
            *c += 1;
            let resp = g.on_activation(row, i as u64, ActivationKind::Demand);
            for m in &resp.mitigations {
                unmitigated.insert(m.aggressor, 0);
            }
            prop_assert!(
                *unmitigated.get(&row).unwrap_or(&0) <= threshold,
                "row {row} escaped"
            );
        }
    }

    /// CRA counts exactly: its mitigation times match the OCPR oracle's.
    #[test]
    fn cra_matches_the_exact_oracle(seq in sequences()) {
        let geom = MemGeometry::tiny();
        let threshold = 16u32;
        let mut cra = Cra::new(CraConfig {
            geometry: geom,
            channel: 0,
            threshold,
            cache_bytes: 1024,
            cache_ways: 4,
        })
        .unwrap();
        let mut ocpr = Ocpr::new(geom, 0, threshold).unwrap();
        for (i, row) in seq.into_iter().enumerate() {
            // Skip CRA's own counter region (untracked by design).
            if row.row >= 1023 {
                continue;
            }
            let c = cra.on_activation(row, i as u64, ActivationKind::Demand);
            let o = ocpr.on_activation(row, i as u64, ActivationKind::Demand);
            prop_assert_eq!(
                c.mitigations.is_empty(),
                o.mitigations.is_empty(),
                "CRA and OCPR disagree at step {}",
                i
            );
        }
    }
}
