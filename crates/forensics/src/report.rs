//! Bench-report regression comparison (`hydra bench --compare`).
//!
//! Parses two bench reports (the `hydra-bench-v2` JSON that `hydra bench`
//! writes to `BENCH_hydra.json`), joins their cells by `workload/geometry`,
//! and flags regressions beyond a tolerance:
//!
//! - **slowdown**: the cell's simulated bandwidth inflation grew by ≥
//!   `tolerance_pct` percent relative to the baseline — this is the
//!   deterministic, machine-independent signal and always gates;
//! - **mitigations**: the mitigation count drifted by ≥ `tolerance_pct`
//!   percent — also deterministic (same seeds), so it always gates;
//! - **invariants**: a cell whose delta-sum check regressed from `true`
//!   to `false` always gates;
//! - **throughput** (`acts_per_sec`): wall-clock dependent, so it only
//!   gates under [`CompareConfig::gate_throughput`], and even then the
//!   tolerance is *variance-aware*: a drop gates only when it exceeds
//!   both `tolerance_pct` and [`CV_GATE_SIGMAS`] × the larger measured
//!   coefficient of variation of the two cells. A `--repeats`-measured
//!   noisy cell therefore widens its own noise band instead of flapping
//!   CI, while a tight cell keeps the flat tolerance.
//!
//! Cells present in one report but not the other are listed and gate: a
//! silently vanished cell is how coverage regressions hide.

use crate::json::{parse, JsonValue};
use std::fmt::Write as _;

/// Schema identifier of `hydra bench` reports, including the per-cell
/// throughput variance (`repeats`, `acts_per_sec_stddev`,
/// `acts_per_sec_cv_pct`) from `hydra bench --repeats N`.
///
/// This is the single definition of the literal; the CLI imports it and
/// `repo-lint` enforces that no other library source repeats it.
pub const BENCH_SCHEMA_VERSION_V2: &str = "hydra-bench-v2";

/// Throughput gating width in units of the measured coefficient of
/// variation: a drop within `CV_GATE_SIGMAS × cv_pct` is treated as
/// run-to-run noise even when it exceeds the flat tolerance.
pub const CV_GATE_SIGMAS: f64 = 3.0;

/// One parsed matrix cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCellData {
    /// Workload or attack-pattern name.
    pub workload: String,
    /// Geometry name (`tiny`, `isca22`).
    pub geometry: String,
    /// Activations driven through the cell.
    pub acts: u64,
    /// Host wall-clock activations per second.
    pub acts_per_sec: f64,
    /// Simulated DRAM-command inflation (1.0 = no overhead).
    pub bandwidth_inflation: f64,
    /// Inflation expressed as percent slowdown.
    pub slowdown_pct: f64,
    /// Mitigations issued.
    pub mitigations: u64,
    /// Whether the per-window delta-sum invariant held.
    pub delta_sum_ok: bool,
    /// Timed runs behind the throughput figures.
    pub repeats: u64,
    /// Population standard deviation of per-repeat `acts_per_sec`
    /// (0 in single-repeat runs).
    pub acts_per_sec_stddev: f64,
    /// Coefficient of variation of throughput, percent
    /// (`stddev / mean × 100`).
    pub acts_per_sec_cv_pct: f64,
}

impl BenchCellData {
    /// `workload/geometry` join key.
    pub fn key(&self) -> String {
        format!("{}/{}", self.workload, self.geometry)
    }
}

/// A parsed `hydra-bench-v2` report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReportData {
    /// Whether the report came from a `--smoke` run.
    pub smoke: bool,
    /// Activations per cell.
    pub acts_per_cell: u64,
    /// All successfully-run cells.
    pub cells: Vec<BenchCellData>,
    /// Labels of failed cells.
    pub failures: Vec<String>,
}

/// Parses a `hydra-bench-v2` report, checking the schema stamp. Every
/// field the comparison reads is required: a missing or mistyped one is a
/// parse error naming it, never a default that could switch a gate off.
pub fn parse_bench_report(text: &str) -> Result<BenchReportData, String> {
    let v = parse(text)?;
    let schema = required(&v, "schema", JsonValue::as_str)?;
    if schema != BENCH_SCHEMA_VERSION_V2 {
        return Err(format!(
            "not a {BENCH_SCHEMA_VERSION_V2} report (schema {schema:?})"
        ));
    }
    let cells = required(&v, "cells", JsonValue::as_array)?
        .iter()
        .enumerate()
        .map(|(i, cell)| parse_cell(cell).map_err(|e| format!("cell {i}: {e}")))
        .collect::<Result<Vec<_>, String>>()?;
    let failures = required(&v, "failures", JsonValue::as_array)?
        .iter()
        .filter_map(|f| f.as_str().map(str::to_owned))
        .collect();
    Ok(BenchReportData {
        smoke: required(&v, "smoke", JsonValue::as_bool)?,
        acts_per_cell: required(&v, "acts_per_cell", JsonValue::as_u64)?,
        cells,
        failures,
    })
}

/// The field `key` of `v`, converted by `as_type`; an error naming the
/// field when it is missing or of the wrong type.
fn required<'a, T>(
    v: &'a JsonValue,
    key: &str,
    as_type: impl FnOnce(&'a JsonValue) -> Option<T>,
) -> Result<T, String> {
    v.get(key)
        .and_then(as_type)
        .ok_or_else(|| format!("missing or mistyped field {key:?}"))
}

fn parse_cell(v: &JsonValue) -> Result<BenchCellData, String> {
    Ok(BenchCellData {
        workload: required(v, "workload", JsonValue::as_str)?.to_string(),
        geometry: required(v, "geometry", JsonValue::as_str)?.to_string(),
        acts: required(v, "acts", JsonValue::as_u64)?,
        acts_per_sec: required(v, "acts_per_sec", JsonValue::as_f64)?,
        bandwidth_inflation: required(v, "bandwidth_inflation", JsonValue::as_f64)?,
        slowdown_pct: required(v, "slowdown_pct", JsonValue::as_f64)?,
        mitigations: required(v, "mitigations", JsonValue::as_u64)?,
        delta_sum_ok: required(v, "delta_sum_ok", JsonValue::as_bool)?,
        repeats: required(v, "repeats", JsonValue::as_u64)?,
        acts_per_sec_stddev: required(v, "acts_per_sec_stddev", JsonValue::as_f64)?,
        acts_per_sec_cv_pct: required(v, "acts_per_sec_cv_pct", JsonValue::as_f64)?,
    })
}

/// Comparison knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareConfig {
    /// Relative drift (percent) at which a metric counts as a regression.
    pub tolerance_pct: f64,
    /// Whether wall-clock throughput drops gate (off by default).
    pub gate_throughput: bool,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            tolerance_pct: 10.0,
            gate_throughput: false,
        }
    }
}

/// One joined cell with its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDiff {
    /// `workload/geometry`.
    pub key: String,
    /// Baseline cell.
    pub old: BenchCellData,
    /// Candidate cell.
    pub new: BenchCellData,
    /// Relative inflation growth, percent (positive = slower).
    pub inflation_drift_pct: f64,
    /// Relative mitigation drift, percent (absolute value).
    pub mitigation_drift_pct: f64,
    /// Relative throughput change, percent (negative = slower host run).
    pub throughput_drift_pct: f64,
    /// Why this cell gates (empty = pass).
    pub regressions: Vec<String>,
}

/// Full comparison result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchComparison {
    /// Per-cell diffs, in baseline order.
    pub rows: Vec<CellDiff>,
    /// Keys in the baseline but absent from the candidate.
    pub missing_in_new: Vec<String>,
    /// Keys in the candidate but absent from the baseline.
    pub missing_in_old: Vec<String>,
    /// The config used.
    pub config: CompareConfig,
}

impl BenchComparison {
    /// Total gating problems: regressed cells plus vanished cells.
    pub fn regression_count(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| !r.regressions.is_empty())
            .count()
            + self.missing_in_new.len()
    }

    /// Renders a fixed-width regression table plus verdict lines.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8} {:>6}  verdict",
            "cell", "slow_old%", "slow_new%", "drift%", "mit_old", "mit_new", "thru%", "cv%"
        );
        for row in &self.rows {
            let verdict = if row.regressions.is_empty() {
                "ok".to_string()
            } else {
                format!("REGRESSED ({})", row.regressions.join("; "))
            };
            let _ = writeln!(
                out,
                "{:<24} {:>10.3} {:>10.3} {:>8.2} {:>10} {:>10} {:>8.1} {:>6.2}  {verdict}",
                row.key,
                row.old.slowdown_pct,
                row.new.slowdown_pct,
                row.inflation_drift_pct,
                row.old.mitigations,
                row.new.mitigations,
                row.throughput_drift_pct,
                row.old.acts_per_sec_cv_pct.max(row.new.acts_per_sec_cv_pct),
            );
        }
        for key in &self.missing_in_new {
            let _ = writeln!(out, "{key:<24} MISSING from candidate report");
        }
        for key in &self.missing_in_old {
            let _ = writeln!(out, "{key:<24} new cell (not in baseline, informational)");
        }
        let n = self.regression_count();
        let _ = writeln!(
            out,
            "compare: {} cell(s), {} regression(s), tolerance {}%{}",
            self.rows.len(),
            n,
            self.config.tolerance_pct,
            if self.config.gate_throughput {
                " (throughput gating)"
            } else {
                ""
            }
        );
        out
    }
}

/// Relative drift of `new` vs `old` in percent; `old` floored to avoid
/// division blow-ups near zero.
fn rel_drift_pct(old: f64, new: f64, floor: f64) -> f64 {
    (new - old) / old.max(floor) * 100.0
}

/// Joins and diffs two reports. `old` is the trusted baseline, `new` the
/// candidate.
pub fn compare_reports(
    old: &BenchReportData,
    new: &BenchReportData,
    config: CompareConfig,
) -> BenchComparison {
    // `>= tol - ε` so an exactly-at-tolerance drift gates (the documented
    // contract is "beyond tolerance" inclusive).
    let tol = config.tolerance_pct - 1e-9;
    let mut rows = Vec::new();
    let mut missing_in_new = Vec::new();
    for old_cell in &old.cells {
        let key = old_cell.key();
        let Some(new_cell) = new.cells.iter().find(|c| c.key() == key) else {
            missing_in_new.push(key);
            continue;
        };
        // Inflation is ≥ 1.0 by construction; drift is measured on the
        // overhead-carrying quantity itself.
        let inflation_drift_pct = rel_drift_pct(
            old_cell.bandwidth_inflation,
            new_cell.bandwidth_inflation,
            1.0,
        );
        let mitigation_drift_pct = rel_drift_pct(
            old_cell.mitigations as f64,
            new_cell.mitigations as f64,
            1.0,
        )
        .abs();
        let throughput_drift_pct = rel_drift_pct(old_cell.acts_per_sec, new_cell.acts_per_sec, 1.0);

        let mut regressions = Vec::new();
        if inflation_drift_pct >= tol {
            regressions.push(format!("slowdown +{inflation_drift_pct:.2}%"));
        }
        if mitigation_drift_pct >= tol {
            regressions.push(format!("mitigations drift {mitigation_drift_pct:.2}%"));
        }
        if old_cell.delta_sum_ok && !new_cell.delta_sum_ok {
            regressions.push("delta-sum invariant broke".to_string());
        }
        // Variance-aware throughput gate: the flat tolerance is widened to
        // the measured noise band of the noisier cell, so a `--repeats`-
        // characterized jittery cell cannot flap CI while a tight cell
        // still gates at the flat tolerance.
        let cv_band_pct = CV_GATE_SIGMAS
            * old_cell
                .acts_per_sec_cv_pct
                .max(new_cell.acts_per_sec_cv_pct);
        let throughput_tol = tol.max(cv_band_pct - 1e-9);
        if config.gate_throughput && -throughput_drift_pct >= throughput_tol {
            regressions.push(format!(
                "throughput {throughput_drift_pct:.1}% (tolerance {throughput_tol:.1}%)"
            ));
        }
        rows.push(CellDiff {
            key,
            old: old_cell.clone(),
            new: new_cell.clone(),
            inflation_drift_pct,
            mitigation_drift_pct,
            throughput_drift_pct,
            regressions,
        });
    }
    let missing_in_old = new
        .cells
        .iter()
        .filter(|c| !old.cells.iter().any(|o| o.key() == c.key()))
        .map(BenchCellData::key)
        .collect();
    BenchComparison {
        rows,
        missing_in_new,
        missing_in_old,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cells: &[(&str, f64, u64)]) -> BenchReportData {
        BenchReportData {
            smoke: true,
            acts_per_cell: 20_000,
            cells: cells
                .iter()
                .map(|&(w, inflation, mitigations)| BenchCellData {
                    workload: w.to_string(),
                    geometry: "tiny".to_string(),
                    acts: 20_000,
                    acts_per_sec: 1e7,
                    bandwidth_inflation: inflation,
                    slowdown_pct: (inflation - 1.0) * 100.0,
                    mitigations,
                    delta_sum_ok: true,
                    repeats: 1,
                    acts_per_sec_stddev: 0.0,
                    acts_per_sec_cv_pct: 0.0,
                })
                .collect(),
            failures: Vec::new(),
        }
    }

    /// One v2 cell as `hydra bench` writes it.
    const CELL: &str = concat!(
        "{\"workload\":\"gups\",\"geometry\":\"tiny\",\"acts\":20000,",
        "\"wall_secs\":0.005,\"acts_per_sec\":15000000.0,",
        "\"acts_per_sec_stddev\":750000.0,\"acts_per_sec_cv_pct\":5.0,",
        "\"repeats\":5,\"bandwidth_inflation\":1.014,\"slowdown_pct\":1.4,",
        "\"windows\":14,\"mitigations\":56,\"delta_sum_ok\":true}"
    );

    fn report_text(schema: &str, cell: &str) -> String {
        format!(
            "{{\"schema\":\"{schema}\",\"smoke\":true,\"acts_per_cell\":20000,\
             \"cells\":[{cell}],\"failures\":[]}}"
        )
    }

    #[test]
    fn parses_the_cli_report_format() {
        let r = parse_bench_report(&report_text("hydra-bench-v2", CELL)).expect("parses");
        assert!(r.smoke);
        assert_eq!(r.acts_per_cell, 20_000);
        assert_eq!(r.cells.len(), 1);
        assert_eq!(r.cells[0].key(), "gups/tiny");
        assert_eq!(r.cells[0].mitigations, 56);
        assert!(r.cells[0].delta_sum_ok);
        assert_eq!(r.cells[0].repeats, 5);
        assert_eq!(r.cells[0].acts_per_sec_stddev, 750_000.0);
        assert_eq!(r.cells[0].acts_per_sec_cv_pct, 5.0);
    }

    #[test]
    fn rejects_v1_reports() {
        let err = parse_bench_report(&report_text("hydra-bench-v1", CELL)).unwrap_err();
        assert!(err.contains("hydra-bench-v1"), "{err}");
    }

    /// A missing field must not read as a default: 0 mitigations would
    /// mask drift, and `delta_sum_ok: false` would switch off the
    /// delta-sum gate for the cell.
    #[test]
    fn rejects_cells_missing_a_gated_field() {
        for field in ["\"mitigations\":56,", "\"delta_sum_ok\":true"] {
            let cell = CELL.replace(field, "").replace(",}", "}");
            let err = parse_bench_report(&report_text("hydra-bench-v2", &cell)).unwrap_err();
            let key = field.split('"').nth(1).unwrap_or_default();
            assert!(err.contains(key), "{field}: {err}");
        }
    }

    #[test]
    fn rejects_wrong_schema() {
        assert!(parse_bench_report("{\"schema\":\"something-else\",\"cells\":[]}").is_err());
        assert!(parse_bench_report("not json").is_err());
    }

    #[test]
    fn self_comparison_is_clean() {
        let r = report(&[("gups", 1.0, 0), ("double_sided", 1.014, 56)]);
        let cmp = compare_reports(&r, &r, CompareConfig::default());
        assert_eq!(cmp.regression_count(), 0);
        assert!(cmp.rows.iter().all(|c| c.regressions.is_empty()));
    }

    #[test]
    fn inflation_growth_at_tolerance_gates() {
        let old = report(&[("double_sided", 1.10, 56)]);
        // Inflation 1.10 → 1.21 is exactly +10% relative growth.
        let new = report(&[("double_sided", 1.21, 56)]);
        let cmp = compare_reports(&old, &new, CompareConfig::default());
        assert_eq!(cmp.regression_count(), 1);
        assert!(cmp.rows[0].regressions[0].contains("slowdown"));
        // Just under tolerance passes.
        let near = report(&[("double_sided", 1.20, 56)]);
        let cmp = compare_reports(&old, &near, CompareConfig::default());
        assert_eq!(cmp.regression_count(), 0);
    }

    #[test]
    fn mitigation_drift_gates_both_directions() {
        let old = report(&[("double_sided", 1.0, 100)]);
        let more = report(&[("double_sided", 1.0, 111)]);
        let fewer = report(&[("double_sided", 1.0, 89)]);
        assert_eq!(
            compare_reports(&old, &more, CompareConfig::default()).regression_count(),
            1
        );
        assert_eq!(
            compare_reports(&old, &fewer, CompareConfig::default()).regression_count(),
            1,
            "losing mitigations is a protection regression, not a win"
        );
    }

    #[test]
    fn throughput_only_gates_when_asked() {
        let old = report(&[("gups", 1.0, 0)]);
        let mut slow = report(&[("gups", 1.0, 0)]);
        slow.cells[0].acts_per_sec = 5e6; // −50%
        assert_eq!(
            compare_reports(&old, &slow, CompareConfig::default()).regression_count(),
            0
        );
        let gated = CompareConfig {
            gate_throughput: true,
            ..CompareConfig::default()
        };
        assert_eq!(compare_reports(&old, &slow, gated).regression_count(), 1);
    }

    #[test]
    fn measured_cv_widens_the_throughput_tolerance() {
        let gated = CompareConfig {
            gate_throughput: true,
            ..CompareConfig::default()
        };
        let old = report(&[("gups", 1.0, 0)]);
        let mut noisy = report(&[("gups", 1.0, 0)]);
        noisy.cells[0].acts_per_sec = 8.5e6; // −15%: beyond the flat 10%
        noisy.cells[0].repeats = 5;
        noisy.cells[0].acts_per_sec_cv_pct = 6.0; // 3σ band = 18% > 15%
        assert_eq!(
            compare_reports(&old, &noisy, gated).regression_count(),
            0,
            "a drop inside the measured 3σ noise band must not gate"
        );
        // The same drop with a tight measured CV still gates.
        noisy.cells[0].acts_per_sec_cv_pct = 1.0; // 3σ band = 3% < 15%
        let cmp = compare_reports(&old, &noisy, gated);
        assert_eq!(cmp.regression_count(), 1);
        assert!(cmp.rows[0].regressions[0].contains("tolerance"));
    }

    #[test]
    fn missing_cells_gate_and_new_cells_do_not() {
        let old = report(&[("gups", 1.0, 0), ("mcf", 1.0, 0)]);
        let new = report(&[("gups", 1.0, 0), ("stream", 1.0, 0)]);
        let cmp = compare_reports(&old, &new, CompareConfig::default());
        assert_eq!(cmp.missing_in_new, vec!["mcf/tiny"]);
        assert_eq!(cmp.missing_in_old, vec!["stream/tiny"]);
        assert_eq!(cmp.regression_count(), 1);
        let table = cmp.render_table();
        assert!(table.contains("MISSING from candidate"));
    }

    #[test]
    fn broken_delta_sum_gates() {
        let old = report(&[("gups", 1.0, 0)]);
        let mut new = report(&[("gups", 1.0, 0)]);
        new.cells[0].delta_sum_ok = false;
        let cmp = compare_reports(&old, &new, CompareConfig::default());
        assert_eq!(cmp.regression_count(), 1);
        assert!(cmp.rows[0].regressions[0].contains("delta-sum"));
    }
}
