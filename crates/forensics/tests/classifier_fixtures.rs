//! Classifier fixtures: every generator in `hydra-workloads::attacks` must
//! be labeled an attack, and benign SPEC/GUPS mixes must not be.
//!
//! This is the zero-false-positive contract CI gates on (the forensics
//! job runs `cargo test -p hydra-forensics`).

use hydra_core::{Hydra, HydraConfig};
use hydra_forensics::{AttackClass, ForensicsProbe, RunVerdict};
use hydra_sim::ActivationSim;
use hydra_types::{MemGeometry, RowAddr};
use hydra_workloads::attacks::{AttackPattern, CANONICAL_NAMES};
use hydra_workloads::registry;
use hydra_workloads::TraceSource as _;

/// Activations per focused-attack run (an attacker hammers flat out).
const ACTS: u64 = 40_000;

/// Activations for the thrash run: a GCT-thrash attacker must push every
/// group past `T_G` (512 groups × 200 = 102k) and then flood the per-row
/// path; 300k acts is ~21 ms of a real 64 ms window at tRC = 45 ns.
const THRASH_ACTS: u64 = 300_000;

/// Workload footprint divisor (`unique_rows / scale` rows stay hot).
const SCALE: u64 = 256;

/// Build seed for workload traces.
const SEED: u64 = 42;

/// The Row-Hammer threshold of the audit design point (`T_RH = 500`, so
/// `T_H = T_RH/2 = 250`, `T_G = 0.8·T_H = 200` — also the largest T_H the
/// RCT's one-byte counters admit).
const T_H: u32 = 250;

/// The audit geometry: 64 Mi rows-per-channel would make attack runs slow,
/// so this scales the baseline down to 64 Ki rows (1 ch × 4 banks ×
/// 16 Ki rows) — large enough that a scaled benign working set occupies a
/// realistic sliver of DRAM (≲1% of rows), unlike `tiny()` where mcf's
/// footprint alone is 10% of all rows and group-spill overcounting
/// manufactures false attack evidence.
fn audit_geometry() -> MemGeometry {
    MemGeometry::new(1, 1, 4, 16_384, 1024).expect("valid audit geometry")
}

/// The audit design point: ultra-low-threshold tracking over a paper-like group
/// size (65 536 rows / 512 GCT entries = 128 rows/group) and a 512-entry
/// RCC that holds a benign working set but not a thrash sweep.
fn audit_config(geom: MemGeometry) -> HydraConfig {
    HydraConfig::builder(geom, 0)
        .thresholds(T_H, T_H * 4 / 5)
        .gct_entries(512)
        .rcc_entries(512)
        .rcc_ways(16)
        .build()
        .expect("valid audit config")
}

/// Runs `rows` through a probed tracker; returns the verdict and reports.
fn run_rows(rows: impl Iterator<Item = RowAddr>) -> (RunVerdict, ForensicsProbe) {
    let geom = audit_geometry();
    let tracker =
        Hydra::with_probe(audit_config(geom), ForensicsProbe::new(T_H)).expect("valid config");
    let mut sim = ActivationSim::new(geom, tracker);
    for row in rows {
        sim.activate(row);
    }
    let mut probe = sim.into_tracker().into_probe();
    probe.finish();
    (probe.verdict(), probe)
}

fn attack_rows(name: &str) -> impl Iterator<Item = RowAddr> {
    let geom = audit_geometry();
    let mut rows = AttackPattern::canonical(name, geom)
        .expect("canonical pattern")
        .rows(geom);
    let acts = if name == "thrash" { THRASH_ACTS } else { ACTS };
    (0..acts).map(move |_| {
        let mut row = rows.next_row();
        row.channel = 0; // the tracker instance covers channel 0
        row
    })
}

fn workload_rows(name: &str) -> impl Iterator<Item = RowAddr> {
    let geom = audit_geometry();
    let spec = registry::by_name(name).expect("registered workload");
    let mut trace = spec.build(geom, SCALE, SEED);
    // Benign workloads run at their natural Table-3 activation density
    // (`unique_rows × acts_per_row / scale` per window); driving them
    // far past it would manufacture row pressure the real workload
    // never produces.
    let acts = (spec.expected_activations(SCALE) as u64).min(ACTS);
    (0..acts).map(move |_| {
        let mut row = geom.row_of_line(trace.next_op().addr);
        row.channel = 0;
        row
    })
}

fn describe(name: &str, verdict: &RunVerdict, probe: &ForensicsProbe) -> String {
    let sig = &probe.reports().last().expect("at least one window").signals;
    format!(
        "{name}: dominant {:?} attack_windows {}/{} conf {:.2} \
         [acts {} per_row {} spills {} evicts {} mitigations {} max_count {}]",
        verdict.dominant,
        verdict.attack_windows,
        verdict.windows,
        verdict.max_confidence,
        sig.activations,
        sig.per_row,
        sig.spills,
        sig.rcc_evictions,
        sig.mitigations,
        sig.max_count,
    )
}

#[test]
fn every_attack_generator_is_classified_as_an_attack() {
    let expected = [
        ("single_sided", AttackClass::SingleSided),
        ("double_sided", AttackClass::DoubleSided),
        ("many_sided", AttackClass::ManySided),
        // Half-double's heavy ±2 / light ±1 cluster spans 4 rows of one
        // bank: the double-sided family by the cluster rule.
        ("half_double", AttackClass::DoubleSided),
        ("thrash", AttackClass::DecoyHeavy),
    ];
    assert_eq!(
        expected.len(),
        CANONICAL_NAMES.len(),
        "cover every generator"
    );
    for (name, class) in expected {
        let (verdict, probe) = run_rows(attack_rows(name));
        let diag = describe(name, &verdict, &probe);
        assert!(verdict.is_attack(), "{diag}");
        assert_eq!(verdict.dominant, class, "{diag}");
        assert!(
            !probe.incidents().is_empty(),
            "attack verdicts must produce incidents: {diag}"
        );
    }
}

#[test]
fn benign_workloads_raise_zero_false_positives() {
    for name in ["gups", "mcf", "bwaves"] {
        let (verdict, probe) = run_rows(workload_rows(name));
        let diag = describe(name, &verdict, &probe);
        assert!(!verdict.is_attack(), "false positive: {diag}");
        assert_eq!(verdict.attack_windows, 0, "{diag}");
        assert!(probe.incidents().is_empty(), "{diag}");
    }
}

/// Diagnostic sweep (ignored): prints the signal vector for every fixture.
/// Run with `cargo test -p hydra-forensics --test classifier_fixtures
/// -- --ignored --nocapture` when retuning classifier thresholds.
#[test]
#[ignore = "diagnostic printout for threshold tuning"]
fn print_fixture_signals() {
    for name in CANONICAL_NAMES {
        let (verdict, probe) = run_rows(attack_rows(name));
        println!("{}", describe(name, &verdict, &probe));
    }
    for name in ["gups", "mcf", "bwaves", "lbm"] {
        let (verdict, probe) = run_rows(workload_rows(name));
        println!("{}", describe(name, &verdict, &probe));
    }
}
