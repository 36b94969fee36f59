//! Cross-crate security verification — Theorem-1 audited with the OCPR oracle.
//!
//! Hydra (hydra-core) is compared against the exact One-Counter-Per-Row
//! tracker (hydra-baselines) on identical adversarial streams through the
//! activation-level simulator (hydra-sim): Hydra must never mitigate *later*
//! than the oracle allows, for any pattern and any Hydra variant.

use hydra_repro::baselines::Ocpr;
use hydra_repro::core::{Hydra, HydraConfig};
use hydra_repro::sim::oracle::ShadowOracle;
use hydra_repro::sim::ActivationSim;
use hydra_repro::types::{ActivationTracker, MemGeometry, RowAddr};
use hydra_repro::workloads::AttackPattern;

const T_H: u32 = 64;
const T_G: u32 = 51;
/// The threshold the shadow oracle audits against (window-split bound).
const T_RH: u32 = 2 * T_H;

fn hydra(geom: MemGeometry) -> Hydra {
    let mut b = HydraConfig::builder(geom, 0);
    b.thresholds(T_H, T_G).gct_entries(256).rcc_entries(64);
    Hydra::new(b.build().unwrap()).unwrap()
}

/// Replays `acts` activations of `pattern` through a tracker inside the
/// activation simulator, with the [`ShadowOracle`] sanitizer independently
/// auditing ground truth (victim-refresh feedback included). Panics on any
/// contract violation; returns the worst unmitigated count observed.
fn audit<T: ActivationTracker>(pattern: &AttackPattern, acts: u64, tracker: T) -> u64 {
    let geom = MemGeometry::tiny();
    let mut sim = ActivationSim::new(geom, ShadowOracle::new(tracker, T_RH));
    let mut rows = pattern.rows(geom);
    for _ in 0..acts {
        let mut row = rows.next_row();
        row.channel = 0;
        sim.activate(row);
    }
    let oracle = sim.into_tracker();
    assert!(
        oracle.is_clean(),
        "{}: {:?}",
        pattern.name(),
        oracle.violations().first()
    );
    oracle.report().worst_unmitigated
}

fn patterns() -> Vec<AttackPattern> {
    let victim = RowAddr::new(0, 0, 1, 500);
    vec![
        AttackPattern::SingleSided { aggressor: victim },
        AttackPattern::DoubleSided { victim },
        AttackPattern::ManySided {
            first: victim,
            n: 12,
        },
        AttackPattern::HalfDouble { victim, ratio: 8 },
        AttackPattern::Thrash { rows: 900, seed: 5 },
    ]
}

#[test]
fn hydra_bounds_unmitigated_activations_for_all_patterns() {
    let geom = MemGeometry::tiny();
    for pattern in patterns() {
        let worst = audit(&pattern, 60_000, hydra(geom));
        assert!(
            worst <= u64::from(T_H),
            "{}: worst unmitigated {worst} > T_H {T_H}",
            pattern.name()
        );
    }
}

#[test]
fn oracle_bounds_match_hydra_bounds() {
    let geom = MemGeometry::tiny();
    for pattern in patterns() {
        let hydra_worst = audit(&pattern, 40_000, hydra(geom));
        let ocpr_worst = audit(&pattern, 40_000, Ocpr::new(geom, 0, T_H).unwrap());
        // The oracle mitigates at exactly T_H; Hydra at or before.
        assert!(ocpr_worst <= u64::from(T_H), "{}", pattern.name());
        assert!(hydra_worst <= u64::from(T_H), "{}", pattern.name());
    }
}

#[test]
fn hydra_never_mitigates_later_than_oracle_on_single_row() {
    // Mitigation indices for a pure hammer must be <= the oracle's.
    let geom = MemGeometry::tiny();
    let row = RowAddr::new(0, 0, 0, 9);
    let mut h = hydra(geom);
    let mut o = Ocpr::new(geom, 0, T_H).unwrap();
    let mut h_mitigations = Vec::new();
    let mut o_mitigations = Vec::new();
    for i in 1..=1000u32 {
        if !h
            .on_activation(
                row,
                u64::from(i),
                hydra_repro::types::ActivationKind::Demand,
            )
            .mitigations
            .is_empty()
        {
            h_mitigations.push(i);
        }
        if !o
            .on_activation(
                row,
                u64::from(i),
                hydra_repro::types::ActivationKind::Demand,
            )
            .mitigations
            .is_empty()
        {
            o_mitigations.push(i);
        }
    }
    assert_eq!(o_mitigations.len(), (1000 / T_H) as usize);
    assert!(h_mitigations.len() >= o_mitigations.len());
    for (h_at, o_at) in h_mitigations.iter().zip(&o_mitigations) {
        assert!(h_at <= o_at, "hydra at {h_at} later than oracle at {o_at}");
    }
}

#[test]
fn window_reset_does_not_double_the_effective_threshold_beyond_2x() {
    // Sec. 4.6: the attacker can split (T_H − 1) + (T_H − 1) around a reset,
    // which is why T_H = T_RH / 2. Verify the bound is exactly achievable
    // but never exceedable: across one reset, a row gets at most
    // 2·(T_H − 1) unmitigated activations.
    let geom = MemGeometry::tiny();
    let mut h = hydra(geom);
    let row = RowAddr::new(0, 0, 0, 77);
    let mut unmitigated = 0u32;
    for i in 0..(T_H - 1) {
        let r = h.on_activation(
            row,
            u64::from(i),
            hydra_repro::types::ActivationKind::Demand,
        );
        assert!(r.mitigations.is_empty());
        unmitigated += 1;
    }
    h.reset_window(1000);
    for i in 0..(T_H - 1) {
        let r = h.on_activation(
            row,
            u64::from(i),
            hydra_repro::types::ActivationKind::Demand,
        );
        assert!(r.mitigations.is_empty(), "mitigated early after reset");
        unmitigated += 1;
    }
    assert_eq!(unmitigated, 2 * (T_H - 1));
    // The very next activation must trip the per-row counter.
    let mut tripped = false;
    for i in 0..=T_H {
        if !h
            .on_activation(
                row,
                u64::from(i),
                hydra_repro::types::ActivationKind::Demand,
            )
            .mitigations
            .is_empty()
        {
            tripped = true;
            break;
        }
    }
    assert!(tripped);
}
