//! Cross-feature integration: trace record/replay, workload mixes and
//! row-swap mitigation working together.

use hydra_repro::core::{Hydra, HydraConfig};
use hydra_repro::sim::{SystemConfig, SystemSim};
use hydra_repro::types::mitigation::MitigationPolicy;
use hydra_repro::types::{MemGeometry, RowAddr};
use hydra_repro::workloads::{
    registry, AttackPattern, MixSlot, TraceFile, TraceWriter, WorkloadMix,
};

#[test]
fn recorded_trace_replays_identically_through_the_full_system() {
    let geom = MemGeometry::isca22_baseline();
    let spec = registry::by_name("stream").unwrap();

    // Record 3000 ops, then run live-generator vs replayed-trace systems.
    let mut buf = Vec::new();
    {
        let mut writer = TraceWriter::new(&mut buf).unwrap();
        writer.record(&mut spec.build(geom, 512, 9), 3000).unwrap();
    }

    let mut config = SystemConfig::scaled(512);
    config.cores = 2;
    config.instructions_per_core = 8_000;

    // Both cores run the same (seed-9) stream in each system, matching the
    // recording; the runs consume far fewer ops than were recorded, so the
    // replay never wraps.
    let live = SystemSim::new(config.clone(), |_| spec.build(geom, 512, 9)).run();
    let replayed = SystemSim::new(config, |_| {
        TraceFile::parse("stream-replay", &buf[..]).unwrap()
    })
    .run();
    assert_eq!(
        live.cycles, replayed.cycles,
        "replay must be cycle-identical"
    );
    assert_eq!(live.demand_acts(), replayed.demand_acts());
}

#[test]
fn mix_with_attacker_is_mitigated_without_hurting_victims_much() {
    let geom = MemGeometry::isca22_baseline();
    let mix = WorkloadMix::new(
        "attack_mix",
        vec![
            MixSlot::Attack(AttackPattern::ManySided {
                first: RowAddr::new(0, 0, 2, 5_000),
                n: 4,
            }),
            MixSlot::Workload(registry::by_name("leela").unwrap()),
        ],
    )
    .unwrap();
    let mut config = SystemConfig::scaled(512);
    config.cores = 4;
    config.instructions_per_core = 20_000;
    let mut sim =
        SystemSim::new(config, |core| mix.build(geom, core, 512, 5)).with_trackers(|ch| {
            let mut b = HydraConfig::builder(geom, ch);
            b.thresholds(32, 25).gct_entries(256).rcc_entries(64);
            Box::new(Hydra::new(b.build().unwrap()).unwrap())
        });
    let result = sim.run();
    assert!(
        result.mitigation_acts() > 0,
        "the attacker thread must be mitigated"
    );
    assert!(result.instructions >= 4 * 20_000, "all cores must finish");
}

#[test]
fn row_swap_policy_survives_a_full_mixed_run() {
    let geom = MemGeometry::isca22_baseline();
    let mix = WorkloadMix::new(
        "swap_mix",
        vec![MixSlot::Attack(AttackPattern::ManySided {
            first: RowAddr::new(0, 0, 1, 9_000),
            n: 4,
        })],
    )
    .unwrap();
    let mut config = SystemConfig::scaled(512);
    config.cores = 2;
    config.instructions_per_core = 20_000;
    config.mitigation = MitigationPolicy::RowSwap { seed: 77 };
    let mut sim =
        SystemSim::new(config, |core| mix.build(geom, core, 512, 5)).with_trackers(|ch| {
            let mut b = HydraConfig::builder(geom, ch);
            b.thresholds(32, 25).gct_entries(256).rcc_entries(64);
            Box::new(Hydra::new(b.build().unwrap()).unwrap())
        });
    let result = sim.run();
    let swaps: u64 = result.controllers.iter().map(|c| c.row_swaps).sum();
    assert!(swaps > 0, "the hammered rows must get swapped");
    assert!(
        result.side_accesses() >= swaps * 4,
        "row copies must be charged"
    );
}
