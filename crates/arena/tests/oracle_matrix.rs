//! The arena's security matrix: **every roster tracker × every canonical
//! attack × every swept threshold** runs under the shadow oracle with zero
//! contract violations — and the sabotage fixtures prove the oracle would
//! have caught a violation if one existed.
//!
//! The two halves are one proof. "No tracker ever let an aggressor past
//! `T_RH`, and no tracker refreshed a never-touched row" is only evidence
//! if the instrument can fail; the second half breaks each tracker in the
//! three ways a real implementation bug would (swallowed mitigations,
//! wrong-victim mitigations, undercounted activations) and asserts the
//! oracle flags every one.

use hydra_arena::fixtures::{Sabotage, SabotageMode};
use hydra_arena::{build_tracker, roster_names, BoxedTracker};
use hydra_dram::DramTiming;
use hydra_sim::oracle::ShadowOracle;
use hydra_sim::ActivationSim;
use hydra_types::{MemGeometry, RowAddr};
use hydra_workloads::attacks::AttackPattern;

/// The paper's threshold sweep (Fig. 5): conventional, low, ultra-low.
const T_RHS: [u32; 3] = [4800, 1_000, 500];

/// Every canonical attack pattern the workload crate ships.
const ATTACKS: [&str; 5] = [
    "single_sided",
    "double_sided",
    "many_sided",
    "half_double",
    "thrash",
];

/// Demand activations per matrix cell — several tracking windows at the
/// bench window scale, so cross-window accumulation is exercised too.
const ACTS: u64 = 5_000;

fn scaled_timing() -> DramTiming {
    DramTiming::ddr4_3200().with_scaled_window(1_000)
}

fn attack_rows(name: &str, geometry: MemGeometry, acts: u64) -> Vec<RowAddr> {
    let pattern = match AttackPattern::canonical(name, geometry) {
        Some(p) => p,
        None => panic!("unknown canonical attack {name}"),
    };
    let mut rows = pattern.rows(geometry);
    (0..acts)
        .map(|_| {
            let mut row = rows.next_row();
            row.channel = 0;
            row
        })
        .collect()
}

/// Runs `tracker` under the oracle against `rows`; returns total violations
/// and the worst unmitigated count.
fn oracle_run(
    tracker: BoxedTracker,
    t_rh: u32,
    geometry: MemGeometry,
    rows: Vec<RowAddr>,
) -> (u64, u64) {
    let oracle = ShadowOracle::new(tracker, t_rh);
    let mut sim = ActivationSim::new(geometry, oracle).with_timing(scaled_timing());
    sim.run(rows);
    let report = sim.tracker().report();
    (report.violations_total, report.worst_unmitigated)
}

#[test]
fn every_roster_tracker_survives_every_attack_at_every_threshold() {
    let geometry = MemGeometry::tiny();
    let window_acts = scaled_timing().max_activations_per_window();
    let mut cells = 0;
    for &t_rh in &T_RHS {
        for attack in ATTACKS {
            let rows = attack_rows(attack, geometry, ACTS);
            for name in roster_names() {
                let tracker = match build_tracker(name, geometry, 0, t_rh, 42, window_acts) {
                    Ok(t) => t,
                    Err(e) => panic!("{name}@{t_rh}: {e}"),
                };
                let (violations, worst) = oracle_run(tracker, t_rh, geometry, rows.clone());
                assert_eq!(
                    violations, 0,
                    "{name} violated the contract under {attack} at T_RH={t_rh} \
                     (worst unmitigated count {worst})"
                );
                assert!(
                    worst < u64::from(t_rh),
                    "{name} under {attack} at T_RH={t_rh}: worst unmitigated {worst}"
                );
                cells += 1;
            }
        }
    }
    assert_eq!(
        cells,
        T_RHS.len() * ATTACKS.len() * roster_names().len(),
        "the matrix must cover the full roster"
    );
}

/// Swallowing every mitigation turns each tracker into a leaky tracker:
/// the aggressor sails past `T_RH` and the oracle must say so — for every
/// roster entry, including the probabilistic ones.
#[test]
fn dropped_mitigations_are_flagged_for_every_tracker() {
    let geometry = MemGeometry::tiny();
    let window_acts = scaled_timing().max_activations_per_window();
    let rows = attack_rows("single_sided", geometry, ACTS);
    for name in roster_names() {
        let tracker = match build_tracker(name, geometry, 0, 500, 42, window_acts) {
            Ok(t) => t,
            Err(e) => panic!("{name}: {e}"),
        };
        let sabotaged: BoxedTracker = Box::new(Sabotage::new(
            tracker,
            SabotageMode::DropMitigations { every: 1 },
        ));
        let (violations, worst) = oracle_run(sabotaged, 500, geometry, rows.clone());
        assert!(
            violations > 0,
            "oracle must flag {name} with all mitigations dropped"
        );
        assert!(
            worst >= 500,
            "{name}: the aggressor must actually cross T_RH (worst {worst})"
        );
    }
}

/// Redirecting every mitigation to a never-activated patsy row leaves the
/// real aggressor hammering (excess) *and* refreshes a row with no
/// activations (spurious); the oracle must flag every roster entry.
#[test]
fn wrong_row_mitigations_are_flagged_for_every_tracker() {
    let geometry = MemGeometry::tiny();
    let window_acts = scaled_timing().max_activations_per_window();
    let rows = attack_rows("double_sided", geometry, ACTS);
    for name in roster_names() {
        let tracker = match build_tracker(name, geometry, 0, 500, 42, window_acts) {
            Ok(t) => t,
            Err(e) => panic!("{name}: {e}"),
        };
        let sabotaged: BoxedTracker = Box::new(Sabotage::new(
            tracker,
            SabotageMode::WrongRow { patsy: 1_000 },
        ));
        let (violations, _) = oracle_run(sabotaged, 500, geometry, rows.clone());
        assert!(
            violations > 0,
            "oracle must flag {name} with mitigations sent to the wrong row"
        );
    }
}

/// A controller that under-samples its command bus defeats any exact
/// counter: the tracker fires at 3× the true threshold, far past `T_RH`.
/// Probabilistic samplers (PARA, MINT) are excluded — undercounting only
/// rescales their sampling rate, which is a provisioning error, not a
/// counting error, and the oracle has nothing deterministic to catch.
#[test]
fn undercounting_is_flagged_for_every_exact_tracker() {
    let geometry = MemGeometry::tiny();
    let window_acts = scaled_timing().max_activations_per_window();
    let rows = attack_rows("single_sided", geometry, ACTS);
    for name in roster_names() {
        if matches!(*name, "para" | "mint") {
            continue;
        }
        let tracker = match build_tracker(name, geometry, 0, 500, 42, window_acts) {
            Ok(t) => t,
            Err(e) => panic!("{name}: {e}"),
        };
        let sabotaged: BoxedTracker = Box::new(Sabotage::new(
            tracker,
            SabotageMode::Undercount { one_in: 3 },
        ));
        let (violations, worst) = oracle_run(sabotaged, 500, geometry, rows.clone());
        assert!(
            violations > 0,
            "oracle must flag {name} seeing one activation in three (worst {worst})"
        );
    }
}
