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

use hydra_analysis::audit::{audit_hydra, AuditReport};
use hydra_core::{Hydra, HydraConfig};
use hydra_dram::DramTiming;
use hydra_sim::{run_windowed, ActivationSim, WindowSeries};
use hydra_types::{MemGeometry, RowAddr};
use std::process::ExitCode;

struct Case {
    label: String,
    report: AuditReport,
    expect_secure: bool,
}

fn main() -> ExitCode {
    let mut json = false;
    let mut windows = false;
    let mut t_rh: u32 = 500;
    let mut acts: u64 = 40_000;
    let mut geometries: Vec<&'static str> = vec!["tiny", "isca22", "ddr5"];
    let mut geometry_overridden = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--windows" => windows = true,
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

    if windows {
        if !geometry_overridden {
            geometries = vec!["tiny", "isca22"];
        }
        return windows_mode(&geometries, t_rh, acts, json);
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

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("hydra-audit: {error}");
    }
    eprintln!(
        "usage: hydra-audit [--geometry tiny|isca22|ddr5] [--t-rh N] [--json]\n       \
         hydra-audit --windows [--geometry tiny|isca22|ddr5] [--t-rh N] [--acts N] [--json]"
    );
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
