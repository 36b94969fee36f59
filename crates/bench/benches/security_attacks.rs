//! Sections 5.2 / 5.3: adaptive-attack experiments.
//!
//! For each attack pattern, replay millions of adversarial activations
//! through Hydra next to an exact oracle and report (a) the maximum
//! unmitigated activation count any row ever reached (must stay below
//! T_H = T_RH/2) and (b) the bandwidth inflation the attack manages to
//! inflict (the Sec. 5.3 memory performance attack).

use hydra_bench::{scaled_hydra, verdict, ExperimentScale, Table};
use hydra_dram::DramTiming;
use hydra_sim::ActivationSim;
use hydra_types::{MemGeometry, RowAddr};
use hydra_workloads::AttackPattern;
use std::collections::HashMap;

/// Adversarial activations replayed per attack pattern.
const ACTS: u64 = 500_000;

struct AttackOutcome {
    max_unmitigated: u32,
    inflation: f64,
    mitigations: u64,
}

fn run_attack(pattern: &AttackPattern, scale: &ExperimentScale) -> AttackOutcome {
    let geom = MemGeometry::isca22_baseline();
    let hydra = scaled_hydra(geom, 0, scale, 250, 200, 32_768, 8_192, true, true).expect("hydra");
    let t_h = hydra.config().t_h;
    let mut sim = ActivationSim::new(geom, hydra)
        .with_timing(DramTiming::ddr4_3200().with_scaled_window(scale.scale));
    let mut rows = pattern.rows(geom);

    // Exact per-row oracle over *all* activations (demand + mitigation):
    // we cannot see mitigation ACTs individually here, so the invariant is
    // audited on demand activations: a row's demand count since its last
    // mitigation must stay below T_H.
    let mut oracle: HashMap<RowAddr, u32> = HashMap::new();
    let mut max_unmitigated = 0u32;
    let mut seen_resets = 0;
    for _ in 0..ACTS {
        let mut row = rows.next_row();
        row.channel = 0; // the per-channel tracker under test
                         // Theorem-1 bounds unmitigated activations *within a tracking
                         // window*; across a reset a row may legally accumulate up to
                         // 2·T_H − 1 (hence T_H = T_RH / 2, Sec. 4.6). Audit per window.
        if sim.report().window_resets > seen_resets {
            seen_resets = sim.report().window_resets;
            oracle.clear();
        }
        *oracle.entry(row).or_insert(0) += 1;
        sim.activate(row);
        // Reset exactly the rows the tracker mitigated (feedback can
        // mitigate rows other than the one just activated).
        for mitigated in sim.drain_mitigated() {
            oracle.insert(mitigated, 0);
        }
        let c = *oracle.get(&row).unwrap_or(&0);
        max_unmitigated = max_unmitigated.max(c);
    }
    assert!(
        max_unmitigated <= t_h,
        "attack {} exceeded T_H: {max_unmitigated}",
        pattern.name()
    );
    AttackOutcome {
        max_unmitigated,
        inflation: sim.report().bandwidth_inflation(),
        mitigations: sim.report().mitigations,
    }
}

fn main() {
    let scale = ExperimentScale::from_env();
    println!(
        "\n=== Secs. 5.2/5.3: adaptive attacks vs Hydra (S={}, {} ACTs each) ===\n",
        scale.scale, ACTS
    );

    let geom = MemGeometry::isca22_baseline();
    let victim = RowAddr::new(0, 0, 3, 5000);
    let patterns = [
        AttackPattern::SingleSided { aggressor: victim },
        AttackPattern::DoubleSided { victim },
        AttackPattern::ManySided {
            first: victim,
            n: 16,
        },
        AttackPattern::HalfDouble { victim, ratio: 16 },
        AttackPattern::Thrash {
            rows: 200_000,
            seed: 11,
        },
    ];

    let mut table = Table::new(vec![
        "attack",
        "max unmitigated ACTs",
        "T_H bound",
        "mitigations",
        "bandwidth inflation",
    ]);
    let mut worst_inflation: f64 = 1.0;
    for pattern in &patterns {
        let out = run_attack(pattern, &scale);
        worst_inflation = worst_inflation.max(out.inflation);
        table.row(vec![
            pattern.name().to_string(),
            out.max_unmitigated.to_string(),
            "250".into(),
            out.mitigations.to_string(),
            format!("{:.2}x", out.inflation),
        ]);
    }
    print!("{}", table.render());

    // Counter-row attack (Sec. 5.2.2): hammer the reserved RCT rows through
    // tracker-side pressure; RIT-ACT must mitigate them.
    let hydra = scaled_hydra(geom, 0, &scale, 250, 200, 32_768, 8_192, true, true).expect("hydra");
    let reserved = RowAddr::new(0, 0, geom.banks_per_rank() - 1, geom.rows_per_bank() - 1);
    assert!(hydra.is_reserved_row(reserved));
    let mut sim = ActivationSim::new(geom, hydra)
        .with_timing(DramTiming::ddr4_3200().with_scaled_window(scale.scale));
    for _ in 0..100_000u32 {
        sim.activate(reserved);
    }
    let rit = sim.tracker().stats().rit_mitigations;
    println!("\nCounter-row attack: 100000 ACTs on an RCT row -> {rit} RIT-ACT mitigations");
    // Each window reset drops the partial RIT count of the window it ends,
    // so allow one lost mitigation per window the run spans.
    let lost = sim.report().window_resets;
    assert!(
        rit >= (100_000 / 250u64).saturating_sub(lost),
        "RIT-ACT must protect RCT rows: {rit} mitigations over {lost} window resets"
    );

    println!("\n{}", verdict::attack_inflation(worst_inflation));
    println!("All attacks stayed within the Theorem-1 bound (max unmitigated <= T_H).");
}
