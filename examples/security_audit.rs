//! Security audit: the static config auditor plus a dynamic shadow-oracle
//! sweep over Hydra variants (default, randomized indexing, both ablations)
//! and every attack pattern — verifying the Theorem-1 guarantee end to end,
//! including the counter-row attack on the RCT region (Sec. 5.2.2) and the
//! Half-Double feedback accounting (Sec. 5.2.1).
//!
//! The static layer (`hydra_analysis::audit_hydra`) derives worst-case
//! bounds from the configuration alone; the dynamic layer replays attacks
//! through the activation simulator with a [`ShadowOracle`] independently
//! checking ground truth. Both must agree the design point is secure.
//!
//! Run with: `cargo run --release --example security_audit`

use hydra_repro::analysis::audit::audit_hydra;
use hydra_repro::core::{GroupIndexer, Hydra, HydraConfig};
use hydra_repro::sim::oracle::ShadowOracle;
use hydra_repro::sim::ActivationSim;
use hydra_repro::types::{MemGeometry, RowAddr};
use hydra_repro::workloads::AttackPattern;

const ACTS_PER_CASE: u64 = 150_000;
/// Row-Hammer threshold the design point targets (T_H = T_RH / 2).
const T_RH: u32 = 500;

fn variant_config(geom: MemGeometry, variant: &str) -> HydraConfig {
    let mut b = HydraConfig::builder(geom, 0);
    b.thresholds(250, 200)
        .gct_entries(16_384)
        .rcc_entries(4_096);
    match variant {
        "default" => {}
        "randomized" => {
            let rows = geom.rows_per_channel();
            b.indexer(GroupIndexer::randomized_for(rows, 16_384, 0xFEED).expect("indexer"));
        }
        "no-gct" => {
            b.without_gct();
        }
        "no-rcc" => {
            b.without_rcc();
        }
        other => panic!("unknown variant {other}"),
    }
    b.build().expect("config")
}

fn main() {
    let geom = MemGeometry::isca22_baseline();
    let variants = ["default", "randomized", "no-gct", "no-rcc"];
    let mut failures = 0;

    // ---- Layer 1: static analysis of each variant's configuration. ----
    println!("Static audit (analytical worst-case bounds, T_RH = {T_RH}):\n");
    println!(
        "{:<12} {:>8} {:>22}",
        "variant", "verdict", "worst unmitigated"
    );
    println!("{}", "-".repeat(46));
    for variant in variants {
        let config = variant_config(geom, variant);
        let report = audit_hydra(&config, T_RH);
        let secure = report.is_secure();
        if !secure {
            failures += 1;
        }
        println!(
            "{:<12} {:>8} {:>22}",
            variant,
            if secure { "SECURE" } else { "INSECURE" },
            report
                .worst_case_unmitigated()
                .map_or_else(|| "unbounded".into(), |b| b.to_string()),
        );
    }

    // ---- Layer 2: dynamic sweep under the shadow oracle. ----
    let victim = RowAddr::new(0, 0, 1, 50_000);
    let patterns = [
        AttackPattern::SingleSided { aggressor: victim },
        AttackPattern::DoubleSided { victim },
        AttackPattern::ManySided {
            first: victim,
            n: 32,
        },
        AttackPattern::HalfDouble { victim, ratio: 8 },
        AttackPattern::Thrash {
            rows: 50_000,
            seed: 99,
        },
    ];

    println!(
        "\nDynamic audit ({} activations per case, shadow oracle at T_RH = {T_RH}):\n",
        ACTS_PER_CASE
    );
    println!(
        "{:<14} {:<12} {:>18} {:>12}",
        "attack", "variant", "max unmitigated", "verdict"
    );
    println!("{}", "-".repeat(60));

    for pattern in &patterns {
        for variant in variants {
            let hydra = Hydra::new(variant_config(geom, variant)).expect("hydra");
            let mut sim = ActivationSim::new(geom, ShadowOracle::new(hydra, T_RH));
            let mut rows = pattern.rows(geom);
            for _ in 0..ACTS_PER_CASE {
                let mut row = rows.next_row();
                row.channel = 0;
                sim.activate(row);
            }
            let oracle = sim.into_tracker();
            let report = oracle.report();
            let ok = oracle.is_clean();
            if !ok {
                failures += 1;
                if let Some(v) = oracle.violations().first() {
                    eprintln!("  first violation: {v}");
                }
            }
            println!(
                "{:<14} {:<12} {:>18} {:>12}",
                pattern.name(),
                variant,
                report.worst_unmitigated,
                if ok { "SECURE" } else { "VIOLATION" }
            );
        }
    }

    // Counter-row attack: hammer the RCT's own DRAM rows. The RIT-ACT
    // counters must keep mitigating (the oracle audits this run too).
    let hydra = Hydra::new(variant_config(geom, "default")).expect("hydra");
    let reserved = RowAddr::new(0, 0, geom.banks_per_rank() - 1, geom.rows_per_bank() - 1);
    assert!(hydra.is_reserved_row(reserved));
    let mut sim = ActivationSim::new(geom, ShadowOracle::new(hydra, T_RH));
    for _ in 0..100_000 {
        sim.activate(reserved);
    }
    let oracle = sim.into_tracker();
    let rit = oracle.inner().stats().rit_mitigations;
    let rit_ok = oracle.is_clean() && rit >= 100_000 / 250 - 1;
    println!(
        "{:<14} {:<12} {:>18} {:>12}",
        "counter-row",
        "default",
        format!("{rit} RIT mitig."),
        if rit_ok { "SECURE" } else { "VIOLATION" }
    );
    if !rit_ok {
        failures += 1;
    }

    println!(
        "\n{}",
        if failures == 0 {
            "All attack/variant combinations satisfied the tracking guarantee."
        } else {
            "SECURITY VIOLATIONS FOUND — see above."
        }
    );
    std::process::exit(i32::from(failures > 0));
}
