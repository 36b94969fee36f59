//! `hydra-audit` — static security audit of Hydra configurations.
//!
//! Audits the stock design points (and a set of deliberately broken
//! configurations, so the insecure path is demonstrated too) against a
//! Row-Hammer threshold:
//!
//! ```text
//! cargo run -p hydra-analysis --bin hydra-audit -- [--geometry tiny|isca22|ddr5]
//!     [--t-rh N] [--json]
//! ```
//!
//! Exit code 0 iff every stock configuration audits secure *and* every
//! crafted bad configuration is correctly flagged insecure.
//!
//! With `--faults` it instead runs the dynamic fault-resilience sweep:
//!
//! ```text
//! cargo run -p hydra-analysis --bin hydra-audit -- --faults
//!     [--geometry tiny|isca22|ddr5] [--t-rh N] [--acts N]
//! ```
//!
//! printing, per geometry (default: tiny and isca22), the degradation
//! table — uniform fault rate × degradation policy → worst-case excess
//! activations under the shadow oracle. Exit code 0 iff every zero-rate
//! row is violation-free (the fault machinery must be inert when disabled).
//!
//! With `--windows` it runs a hammer-plus-noise stream and prints the
//! per-window `HydraStats` summary (add `--json` for the raw JSONL
//! time-series):
//!
//! ```text
//! cargo run -p hydra-analysis --bin hydra-audit -- --windows
//!     [--geometry tiny|isca22|ddr5] [--t-rh N] [--acts N] [--json]
//! ```
//!
//! Exit code 0 iff the window deltas sum exactly to the cumulative
//! counters on every geometry.
//!
//! With `--forensics` it runs the attack-classification gate: every
//! canonical attack generator must be classified as an attack and a set of
//! benign workloads must raise zero incidents:
//!
//! ```text
//! cargo run -p hydra-analysis --bin hydra-audit -- --forensics
//! ```
//!
//! Exit code 0 iff every run gets the expected verdict (no false
//! negatives on the attacks, no false positives on the benign set).

use hydra_analysis::audit::{audit_hydra, AuditReport};
use hydra_analysis::faults::{degradation_table, render_table};
use hydra_core::{Hydra, HydraConfig};
use hydra_dram::DramTiming;
use hydra_forensics::ForensicsProbe;
use hydra_sim::{run_windowed, ActivationSim, WindowSeries};
use hydra_types::{MemGeometry, RowAddr};
use hydra_workloads::attacks::{AttackPattern, CANONICAL_NAMES};
use hydra_workloads::{registry, TraceSource as _};
use std::process::ExitCode;

struct Case {
    label: String,
    report: AuditReport,
    expect_secure: bool,
}

fn main() -> ExitCode {
    let mut json = false;
    let mut faults = false;
    let mut windows = false;
    let mut forensics = false;
    let mut t_rh: u32 = 500;
    let mut acts: u64 = 40_000;
    let mut geometries: Vec<&'static str> = vec!["tiny", "isca22", "ddr5"];
    let mut geometry_overridden = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--faults" => faults = true,
            "--windows" => windows = true,
            "--forensics" => forensics = true,
            "--t-rh" => {
                i += 1;
                t_rh = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => return usage("--t-rh needs an integer argument"),
                };
            }
            "--acts" => {
                i += 1;
                acts = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => return usage("--acts needs an integer argument"),
                };
            }
            "--geometry" => {
                i += 1;
                match args.get(i) {
                    Some(g) if MemGeometry::by_name(g).is_some() => {
                        geometries = vec![match g.as_str() {
                            "tiny" => "tiny",
                            "isca22" => "isca22",
                            _ => "ddr5",
                        }];
                        geometry_overridden = true;
                    }
                    _ => return usage("--geometry must be tiny, isca22 or ddr5"),
                }
            }
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    if forensics {
        if faults || windows {
            return usage("--forensics excludes --faults and --windows");
        }
        return forensics_mode();
    }
    if windows {
        if faults {
            return usage("--faults and --windows are mutually exclusive");
        }
        if !geometry_overridden {
            geometries = vec!["tiny", "isca22"];
        }
        return windows_mode(&geometries, t_rh, acts, json);
    }
    if faults {
        if json {
            return usage("--json is not supported with --faults");
        }
        if !geometry_overridden {
            // The dynamic sweep defaults to the two geometries the paper's
            // evaluation centers on; ddr5 is opt-in via --geometry.
            geometries = vec!["tiny", "isca22"];
        }
        return faults_mode(&geometries, t_rh, acts);
    }

    let mut cases: Vec<Case> = Vec::new();
    for name in &geometries {
        let geom = match MemGeometry::by_name(name) {
            Some(g) => g,
            None => return usage("internal geometry error"),
        };
        // The stock design point, scaled to the requested threshold.
        match HydraConfig::for_threshold(geom, 0, t_rh) {
            Ok(config) => cases.push(Case {
                label: format!("{name}/default"),
                report: audit_hydra(&config, t_rh),
                expect_secure: true,
            }),
            Err(e) => {
                eprintln!("hydra-audit: cannot build {name} config: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Crafted bad configurations: the audit must flag each one.
    let geom = MemGeometry::isca22_baseline();
    let bad: Vec<(&str, Result<HydraConfig, _>, u32)> = vec![
        (
            // T_H = 250 > T_RH/2 when T_RH = 400: the window split breaks.
            "bad/t-h-above-half-trh",
            HydraConfig::isca22_default(geom, 0),
            400,
        ),
        (
            "bad/writeback-disabled",
            HydraConfig::builder(geom, 0).rcc_writeback(false).build(),
            500,
        ),
        (
            "bad/no-mitigation-feedback",
            HydraConfig::builder(geom, 0)
                .count_mitigation_acts(false)
                .build(),
            500,
        ),
    ];
    for (label, config, bad_t_rh) in bad {
        match config {
            Ok(config) => cases.push(Case {
                label: label.to_string(),
                report: audit_hydra(&config, bad_t_rh),
                expect_secure: false,
            }),
            Err(e) => {
                eprintln!("hydra-audit: cannot build {label}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut failures = 0;
    if json {
        println!("[");
        for (i, case) in cases.iter().enumerate() {
            let comma = if i + 1 < cases.len() { "," } else { "" };
            println!(
                "{{\"label\":\"{}\",\"expect_secure\":{},\"report\":{}}}{comma}",
                case.label,
                case.expect_secure,
                case.report.to_json()
            );
        }
        println!("]");
    }
    for case in &cases {
        let secure = case.report.is_secure();
        let as_expected = secure == case.expect_secure;
        if !as_expected {
            failures += 1;
        }
        if !json {
            println!(
                "=== {} (expected {}) {}",
                case.label,
                if case.expect_secure {
                    "secure"
                } else {
                    "insecure"
                },
                if as_expected {
                    ""
                } else {
                    "— UNEXPECTED VERDICT"
                }
            );
            println!("{}\n", case.report);
        }
    }
    if !json {
        if failures == 0 {
            println!(
                "hydra-audit: all {} configurations audited as expected",
                cases.len()
            );
        } else {
            println!("hydra-audit: {failures} configuration(s) had unexpected verdicts");
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the fault-resilience sweep on each geometry and prints the
/// degradation tables. Fails iff a zero-rate row records a violation —
/// faults aside, the tracker itself must hold the security contract.
fn faults_mode(geometries: &[&str], t_rh: u32, acts: u64) -> ExitCode {
    let mut dirty_zero_rows = 0usize;
    for name in geometries {
        let rows = match degradation_table(name, t_rh, acts) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("hydra-audit: fault sweep on {name} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        for row in rows.iter().filter(|r| r.rate == 0.0) {
            if !row.report.is_clean() {
                dirty_zero_rows += 1;
                eprintln!(
                    "hydra-audit: zero-fault row {} recorded {} violation(s)",
                    row.report.label, row.report.oracle.violations_total
                );
            }
        }
        println!("{}", render_table(name, t_rh, &rows));
    }
    if dirty_zero_rows == 0 {
        println!("hydra-audit: all zero-fault rows violation-free");
        ExitCode::SUCCESS
    } else {
        println!("hydra-audit: {dirty_zero_rows} zero-fault row(s) recorded violations");
        ExitCode::FAILURE
    }
}

/// Runs a hammer-plus-noise stream per geometry and prints the per-window
/// `HydraStats` summary (or the raw JSONL time-series with `--json`).
/// Fails iff the per-window deltas do not sum exactly to the cumulative
/// counters — the invariant that makes the series trustworthy.
fn windows_mode(geometries: &[&str], t_rh: u32, acts: u64, json: bool) -> ExitCode {
    let mut broken = 0usize;
    for name in geometries {
        let geom = match MemGeometry::by_name(name) {
            Some(g) => g,
            None => return usage("internal geometry error"),
        };
        let tracker = match HydraConfig::for_threshold(geom, 0, t_rh).and_then(Hydra::new) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("hydra-audit: cannot build {name} tracker: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Shrunken refresh window: a short run still crosses many
        // boundaries. Even activations hammer a double-sided pair, odd
        // ones scatter — both the hot and cold paths show up per window.
        let timing = DramTiming::ddr4_3200().with_scaled_window(1_000);
        let mut sim = ActivationSim::new(geom, tracker).with_timing(timing);
        let mid = geom.rows_per_bank() / 2;
        let span = u64::from(geom.rows_per_bank());
        let rows = (0..acts).map(|i| {
            if i % 2 == 0 {
                RowAddr::new(0, 0, 0, mid - 1 + 2 * ((i / 2) % 2) as u32)
            } else {
                RowAddr::new(0, 0, 1, ((i * 17) % span) as u32)
            }
        });
        let mut series = WindowSeries::new();
        run_windowed(&mut sim, rows, &mut series);
        let ok = series.total() == sim.tracker().stats();

        if json {
            println!("{}", series.to_jsonl());
        } else {
            println!("=== {name} (T_RH {t_rh}, {acts} demand ACTs)");
            println!(
                "{:>6} {:>12} {:>12} {:>10} {:>10} {:>10} {:>12}",
                "window",
                "end_cycle",
                "activations",
                "gct_only",
                "rcc_hits",
                "rct_acc",
                "mitigations"
            );
            for r in series.records() {
                println!(
                    "{:>6} {:>12} {:>12} {:>10} {:>10} {:>10} {:>12}",
                    r.window,
                    r.end_cycle,
                    r.delta.activations,
                    r.delta.gct_only,
                    r.delta.rcc_hits,
                    r.delta.rct_accesses,
                    r.delta.mitigations
                );
            }
            println!(
                "{name}: {} window(s), delta-sum {}\n",
                series.len(),
                if ok { "ok" } else { "VIOLATED" }
            );
        }
        if !ok {
            broken += 1;
            eprintln!("hydra-audit: {name} window deltas do not sum to cumulative stats");
        }
    }
    if broken == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The forensics classification gate: every canonical attack generator
/// must come back classified as an attack, and the benign set must raise
/// zero incidents.
///
/// The run shape (geometry, thresholds, activation budgets, seed) mirrors
/// `crates/forensics/tests/classifier_fixtures.rs` — the fixture tests are
/// the unit-level contract, this gate is the shippable-binary check CI
/// runs. Keep the two in agreement when retuning.
fn forensics_mode() -> ExitCode {
    const T_H: u32 = 250;
    const ACTS: u64 = 40_000;
    const THRASH_ACTS: u64 = 300_000;
    const SCALE: u64 = 256;
    const SEED: u64 = 42;
    const BENIGN: [&str; 3] = ["gups", "mcf", "bwaves"];

    let geom = match MemGeometry::new(1, 1, 4, 16_384, 1024) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("hydra-audit: forensics geometry: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = match HydraConfig::builder(geom, 0)
        .thresholds(T_H, T_H * 4 / 5)
        .gct_entries(512)
        .rcc_entries(512)
        .rcc_ways(16)
        .build()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("hydra-audit: forensics config: {e}");
            return ExitCode::FAILURE;
        }
    };

    let run = |rows: &mut dyn Iterator<Item = RowAddr>, workload: &str| {
        let probe = ForensicsProbe::new(T_H).with_workload(workload);
        let tracker = match Hydra::with_probe(config.clone(), probe) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("hydra-audit: forensics tracker: {e}");
                return None;
            }
        };
        let mut sim = ActivationSim::new(geom, tracker);
        for row in rows {
            sim.activate(row);
        }
        let mut probe = sim.into_tracker().into_probe();
        probe.finish();
        Some(probe)
    };

    println!(
        "{:<14} {:<8} {:<14} {:>6} {:>10}  verdict",
        "run", "expect", "dominant", "conf", "incidents"
    );
    let mut failures = 0usize;
    let mut gate = |name: &str, expect_attack: bool, probe: Option<ForensicsProbe>| {
        let Some(probe) = probe else {
            failures += 1;
            return;
        };
        let verdict = probe.verdict();
        let incidents = probe.incidents().len();
        let as_expected = verdict.is_attack() == expect_attack;
        if !as_expected {
            failures += 1;
        }
        println!(
            "{:<14} {:<8} {:<14} {:>6.2} {:>10}  {}",
            name,
            if expect_attack { "attack" } else { "benign" },
            verdict.dominant.name(),
            verdict.max_confidence,
            incidents,
            if as_expected { "ok" } else { "UNEXPECTED" },
        );
    };

    for name in CANONICAL_NAMES {
        let Some(pattern) = AttackPattern::canonical(name, geom) else {
            eprintln!("hydra-audit: unknown canonical pattern {name}");
            return ExitCode::FAILURE;
        };
        let mut rows = pattern.rows(geom);
        let acts = if name == "thrash" { THRASH_ACTS } else { ACTS };
        let mut stream = (0..acts).map(|_| {
            let mut row = rows.next_row();
            row.channel = 0;
            row
        });
        gate(name, true, run(&mut stream, name));
    }
    for name in BENIGN {
        let Some(spec) = registry::by_name(name) else {
            eprintln!("hydra-audit: unknown workload {name}");
            return ExitCode::FAILURE;
        };
        let mut trace = spec.build(geom, SCALE, SEED);
        // Benign workloads run at their natural Table-3 activation density.
        let acts = (spec.expected_activations(SCALE) as u64).min(ACTS);
        let mut stream = (0..acts).map(|_| {
            let mut row = geom.row_of_line(trace.next_op().addr);
            row.channel = 0;
            row
        });
        gate(name, false, run(&mut stream, name));
    }

    if failures == 0 {
        println!("hydra-audit: forensics gate clean (attacks detected, benign quiet)");
        ExitCode::SUCCESS
    } else {
        println!("hydra-audit: {failures} forensics run(s) misclassified");
        ExitCode::FAILURE
    }
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("hydra-audit: {error}");
    }
    eprintln!(
        "usage: hydra-audit [--geometry tiny|isca22|ddr5] [--t-rh N] [--json]\n       \
         hydra-audit --faults [--geometry tiny|isca22|ddr5] [--t-rh N] [--acts N]\n       \
         hydra-audit --windows [--geometry tiny|isca22|ddr5] [--t-rh N] [--acts N] [--json]\n       \
         hydra-audit --forensics"
    );
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
