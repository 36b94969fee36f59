//! Hydra's design space: `hydra sweep` and the `hydra-sweep-v1` wire
//! format.
//!
//! A [`SweepGrid`] is the cross product of tracker parameters (GCT entries,
//! RCC entries, `T_RH`, `T_G` as a percentage of `T_H`) and workloads. Each
//! resulting [`SweepCell`] is one full activation-level simulation of
//! Hydra, run as one job of the parallel batch harness
//! (`hydra_sim::batch`), so every cell keeps the harness's panic
//! isolation, watchdog, and retry budget while many cells run
//! concurrently. The grid run, the JSONL framing and the determinism
//! contract (`--jobs 4` ≡ `--jobs 1` but for `wall_secs`) are the
//! experiment core's, shared with the [`crate::leaderboard`].
//!
//! The summary reduces the grid the way the paper's Figures 9–12 do:
//! a Pareto frontier over (SRAM bytes, slowdown, mitigations) and a
//! GCT-size trend check per (workload, `T_RH`) group — at a fixed
//! threshold, growing the GCT must not increase mitigations or slowdown.

use crate::experiment::{self, Experiment, Outcome, Row};
use hydra_core::{Hydra, HydraConfig, HydraStorage};
use hydra_sim::batch::{BatchConfig, BatchJob};
use hydra_sim::ActivationSimReport;
use hydra_types::error::ConfigError;
use hydra_types::geometry::MemGeometry;
use std::fmt::Write as _;

/// Version tag stamped on every `hydra sweep` JSONL line. This constant is
/// the only place the literal may appear in library code (enforced by
/// `repo-lint`'s schema-single-source rule).
pub const SWEEP_SCHEMA_VERSION: &str = "hydra-sweep-v1";

/// A declarative sweep grid. Cells are the cross product of every list, in
/// deterministic nested order: workload (outermost), then `t_rh`, `tg_pct`,
/// `gct_entries`, `rcc_entries` (innermost).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepGrid {
    /// Geometry name (`tiny`, `isca22`, or `ddr5`).
    pub geometry: String,
    /// GCT entry counts to sweep (per instance).
    pub gct_entries: Vec<usize>,
    /// RCC entry counts to sweep (per instance).
    pub rcc_entries: Vec<usize>,
    /// Row-Hammer thresholds to sweep (`T_H = T_RH / 2`).
    pub t_rh: Vec<u32>,
    /// `T_G` as a percentage of `T_H` (the paper's default is 80).
    pub tg_pct: Vec<u32>,
    /// Workload names: registry workloads or canonical attack patterns.
    pub workloads: Vec<String>,
    /// Demand activations per cell.
    pub acts: u64,
    /// Trace seed shared by every cell.
    pub seed: u64,
}

impl SweepGrid {
    /// The CI smoke grid: tiny geometry, a three-point GCT sweep at a fixed
    /// `T_RH`, one benign and one attack workload. Small enough to finish
    /// in seconds, wide enough that the GCT-size trend (mitigation and
    /// slowdown overhead falling as the GCT grows) is visible.
    pub fn smoke() -> Self {
        SweepGrid {
            geometry: "tiny".to_string(),
            gct_entries: vec![64, 256, 1024],
            rcc_entries: vec![64],
            t_rh: vec![32],
            tg_pct: vec![80],
            workloads: vec!["gups".to_string(), "double_sided".to_string()],
            acts: 20_000,
            seed: 42,
        }
    }

    /// Expands the grid into cells, in deterministic nested order.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the geometry is unknown, any list is
    /// empty, or a workload name is neither a registry workload nor a
    /// canonical attack pattern.
    pub fn cells(&self) -> Result<Vec<SweepCell>, ConfigError> {
        let geometry = experiment::check_grid(
            &self.geometry,
            "sweep",
            &[
                ("gct_entries", self.gct_entries.len()),
                ("rcc_entries", self.rcc_entries.len()),
                ("t_rh", self.t_rh.len()),
                ("tg_pct", self.tg_pct.len()),
                ("workloads", self.workloads.len()),
            ],
        )?;
        let mut cells = Vec::new();
        for workload in &self.workloads {
            experiment::check_workload(workload, geometry)?;
            for &t_rh in &self.t_rh {
                for &tg_pct in &self.tg_pct {
                    for &gct in &self.gct_entries {
                        for &rcc in &self.rcc_entries {
                            cells.push(SweepCell {
                                geometry,
                                geometry_name: self.geometry.clone(),
                                workload: workload.clone(),
                                gct_entries: gct,
                                rcc_entries: rcc,
                                t_rh,
                                tg_pct,
                                acts: self.acts,
                                seed: self.seed,
                            });
                        }
                    }
                }
            }
        }
        Ok(cells)
    }
}

impl Experiment for SweepGrid {
    type Row = SweepRow;

    fn meta_line(&self) -> String {
        let mut out = experiment::line_start(SWEEP_SCHEMA_VERSION, "meta");
        experiment::push_str_field(&mut out, "geometry", &self.geometry);
        experiment::push_names(&mut out, "workloads", &self.workloads);
        let _ = write!(
            out,
            ",\"gct_entries\":{:?},\"rcc_entries\":{:?},\"t_rh\":{:?},\"tg_pct\":{:?},\"acts\":{},\"seed\":{}}}",
            self.gct_entries, self.rcc_entries, self.t_rh, self.tg_pct, self.acts, self.seed,
        );
        out
    }

    fn summary_line(outcome: &SweepOutcome) -> String {
        let mut out = outcome.summary_start(SWEEP_SCHEMA_VERSION);
        experiment::push_array(&mut out, "pareto", outcome.pareto(), |out, idx| {
            let row = &outcome.rows[idx];
            let _ = write!(
                out,
                concat!(
                    "{{\"workload\":\"{}\",\"gct_entries\":{},\"rcc_entries\":{},",
                    "\"t_rh\":{},\"sram_bytes\":{},\"slowdown_pct\":{:.4},\"mitigations\":{}}}"
                ),
                row.workload,
                row.gct_entries,
                row.rcc_entries,
                row.t_rh,
                row.sram_bytes,
                row.report.slowdown_pct(),
                row.report.mitigations,
            );
        });
        let trends = outcome.trend_checks();
        experiment::push_array(&mut out, "trend", &trends, |out, t| {
            let _ = write!(
                out,
                concat!(
                    "{{\"workload\":\"{}\",\"t_rh\":{},\"gct_low\":{},\"gct_high\":{},",
                    "\"mitigations_low\":{},\"mitigations_high\":{},",
                    "\"slowdown_low_pct\":{:.4},\"slowdown_high_pct\":{:.4},\"ok\":{}}}"
                ),
                t.workload,
                t.t_rh,
                t.gct_low,
                t.gct_high,
                t.mitigations_low,
                t.mitigations_high,
                t.slowdown_low_pct,
                t.slowdown_high_pct,
                t.ok,
            );
        });
        let _ = write!(out, ",\"trend_ok\":{}}}", trends.iter().all(|t| t.ok));
        out
    }
}

/// One point of the design space: a tracker configuration × workload pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCell {
    /// Resolved geometry.
    pub geometry: MemGeometry,
    /// The geometry's name, carried into the output row.
    pub geometry_name: String,
    /// Workload or attack-pattern name.
    pub workload: String,
    /// GCT entries for this instance.
    pub gct_entries: usize,
    /// RCC entries for this instance.
    pub rcc_entries: usize,
    /// Row-Hammer threshold.
    pub t_rh: u32,
    /// `T_G` as a percentage of `T_H`.
    pub tg_pct: u32,
    /// Demand activations to replay.
    pub acts: u64,
    /// Trace seed.
    pub seed: u64,
}

impl SweepCell {
    /// `T_H` for this cell (`T_RH / 2`, Sec. 4.6).
    pub fn t_h(&self) -> u32 {
        self.t_rh / 2
    }

    /// `T_G` for this cell: `tg_pct` percent of `T_H`, clamped into the
    /// valid `[1, T_H)` range.
    pub fn t_g(&self) -> u32 {
        let t_h = self.t_h();
        (t_h * self.tg_pct / 100).clamp(1, t_h.saturating_sub(1).max(1))
    }

    /// Builds the tracker configuration for this cell (channel 0: the
    /// cell's whole stream goes to one instance).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for parameter combinations the tracker
    /// rejects (e.g. a GCT larger than the channel's row count).
    pub fn config(&self) -> Result<HydraConfig, ConfigError> {
        HydraConfig::builder(self.geometry, 0)
            .thresholds(self.t_h(), self.t_g())
            .gct_entries(self.gct_entries)
            .rcc_entries(self.rcc_entries)
            .build()
    }
}

/// One sweep cell is one batch job, so the harness's panic isolation,
/// watchdog, and retries apply per cell.
impl BatchJob for SweepCell {
    type Output = SweepRow;

    fn label(&self) -> String {
        format!(
            "{}/trh{}/tg{}/gct{}/rcc{}",
            self.workload, self.t_rh, self.tg_pct, self.gct_entries, self.rcc_entries
        )
    }

    /// Builds the tracker, replays the stream, and reduces to one
    /// [`SweepRow`].
    fn run(&self, _attempt: u32) -> Result<SweepRow, String> {
        let config = self.config().map_err(|e| e.to_string())?;
        let sram_bytes = HydraStorage::for_instance(&config).total_sram_bytes();
        let tracker = Hydra::new(config).map_err(|e| e.to_string())?;
        let (tracker, report, wall_secs) =
            experiment::replay(tracker, self.geometry, &self.workload, self.acts, self.seed)?;
        let stats = tracker.stats();
        Ok(SweepRow {
            workload: self.workload.clone(),
            geometry: self.geometry_name.clone(),
            gct_entries: self.gct_entries,
            rcc_entries: self.rcc_entries,
            t_rh: self.t_rh,
            t_h: self.t_h(),
            t_g: self.t_g(),
            acts: self.acts,
            seed: self.seed,
            sram_bytes,
            report,
            group_spills: stats.group_spills,
            gct_only: stats.gct_only,
            rcc_hits: stats.rcc_hits,
            rct_accesses: stats.rct_accesses,
            wall_secs,
        })
    }

    fn replay_artifact(&self) -> Option<String> {
        Some(format!(
            "hydra-sweep-replay\nworkload={}\ngeometry={}\ngct_entries={}\n\
             rcc_entries={}\nt_rh={}\ntg_pct={}\nacts={}\nseed={}\n",
            self.workload,
            self.geometry_name,
            self.gct_entries,
            self.rcc_entries,
            self.t_rh,
            self.tg_pct,
            self.acts,
            self.seed,
        ))
    }
}

/// One `hydra-sweep-v1` result row. Every field except `wall_secs` is a
/// pure function of the cell, so rows compare identically across job
/// counts; the slowdown is recomputed from the integer counters at
/// serialization time rather than stored.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Workload name.
    pub workload: String,
    /// Geometry name.
    pub geometry: String,
    /// GCT entries.
    pub gct_entries: usize,
    /// RCC entries.
    pub rcc_entries: usize,
    /// Row-Hammer threshold.
    pub t_rh: u32,
    /// Tracking threshold.
    pub t_h: u32,
    /// GCT threshold.
    pub t_g: u32,
    /// Demand activations requested.
    pub acts: u64,
    /// Trace seed.
    pub seed: u64,
    /// Instance SRAM bytes (GCT + RCC + RIT-ACT).
    pub sram_bytes: u64,
    /// The simulator's counters: demand, mitigation and side traffic,
    /// mitigations and window resets.
    pub report: ActivationSimReport,
    /// Group spills (GCT entries reaching `T_G`).
    pub group_spills: u64,
    /// Activations handled by the GCT alone.
    pub gct_only: u64,
    /// Activations hitting in the RCC.
    pub rcc_hits: u64,
    /// Activations requiring a DRAM RCT access.
    pub rct_accesses: u64,
    /// Wall-clock seconds for this cell — the one nondeterministic field,
    /// emitted last and dropped from the deterministic projection.
    pub wall_secs: f64,
}

impl Row for SweepRow {
    fn json_body(&self) -> String {
        let mut out = experiment::line_start(SWEEP_SCHEMA_VERSION, "cell");
        experiment::push_str_field(&mut out, "workload", &self.workload);
        experiment::push_str_field(&mut out, "geometry", &self.geometry);
        let _ = write!(
            out,
            concat!(
                ",\"gct_entries\":{},\"rcc_entries\":{},\"t_rh\":{},\"t_h\":{},",
                "\"t_g\":{},\"acts\":{},\"seed\":{},\"sram_bytes\":{}"
            ),
            self.gct_entries,
            self.rcc_entries,
            self.t_rh,
            self.t_h,
            self.t_g,
            self.acts,
            self.seed,
            self.sram_bytes,
        );
        experiment::push_counters(&mut out, &self.report);
        let _ = write!(
            out,
            concat!(
                ",\"group_spills\":{},\"gct_only\":{},\"rcc_hits\":{},",
                "\"rct_accesses\":{},\"slowdown_pct\":{:.4}"
            ),
            self.group_spills,
            self.gct_only,
            self.rcc_hits,
            self.rct_accesses,
            self.report.slowdown_pct(),
        );
        out
    }

    fn wall_secs(&self) -> f64 {
        self.wall_secs
    }
}

/// One GCT-trend comparison: within a (workload, `T_RH`, RCC, `T_G`)
/// group, the smallest-GCT cell against the largest.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendCheck {
    /// Workload name.
    pub workload: String,
    /// Row-Hammer threshold of the group.
    pub t_rh: u32,
    /// Smallest GCT in the group.
    pub gct_low: usize,
    /// Largest GCT in the group.
    pub gct_high: usize,
    /// Mitigations at the smallest GCT.
    pub mitigations_low: u64,
    /// Mitigations at the largest GCT.
    pub mitigations_high: u64,
    /// Slowdown at the smallest GCT.
    pub slowdown_low_pct: f64,
    /// Slowdown at the largest GCT.
    pub slowdown_high_pct: f64,
    /// True iff growing the GCT did not increase mitigations or slowdown.
    pub ok: bool,
}

/// The result of a whole sweep.
pub type SweepOutcome = Outcome<SweepGrid>;

impl SweepOutcome {
    /// Indices (into [`rows`](Self::rows)) of the Pareto frontier
    /// minimizing (SRAM bytes, slowdown, mitigations), ascending.
    pub fn pareto(&self) -> Vec<usize> {
        experiment::pareto(&self.rows, |r| {
            (&r.report, [r.sram_bytes, r.report.mitigations])
        })
    }

    /// GCT-size trend checks, one per (workload, `T_RH`, RCC entries,
    /// `T_G`) group with at least two distinct GCT sizes, comparing the
    /// group's smallest-GCT row against its largest. The paper's
    /// qualitative shape (Fig. 9): at a fixed threshold, a larger GCT
    /// means fewer groups spill, so tracking overhead and spurious
    /// mitigations fall.
    pub fn trend_checks(&self) -> Vec<TrendCheck> {
        let mut keys: Vec<(&str, u32, usize, u32)> = self
            .rows
            .iter()
            .map(|r| (r.workload.as_str(), r.t_rh, r.rcc_entries, r.t_g))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut checks = Vec::new();
        for (workload, t_rh, rcc, t_g) in keys {
            let group = self.rows.iter().filter(|r| {
                r.workload == workload && r.t_rh == t_rh && r.rcc_entries == rcc && r.t_g == t_g
            });
            let low = group.clone().min_by_key(|r| r.gct_entries);
            let high = group.max_by_key(|r| r.gct_entries);
            let (Some(low), Some(high)) = (low, high) else {
                continue;
            };
            if low.gct_entries == high.gct_entries {
                continue;
            }
            checks.push(TrendCheck {
                workload: workload.to_string(),
                t_rh,
                gct_low: low.gct_entries,
                gct_high: high.gct_entries,
                mitigations_low: low.report.mitigations,
                mitigations_high: high.report.mitigations,
                slowdown_low_pct: low.report.slowdown_pct(),
                slowdown_high_pct: high.report.slowdown_pct(),
                ok: high.report.mitigations <= low.report.mitigations
                    && !high.report.slower_than(&low.report),
            });
        }
        checks
    }

    /// True iff every trend check passed (vacuously true with no groups).
    pub fn trend_ok(&self) -> bool {
        self.trend_checks().iter().all(|t| t.ok)
    }
}

/// Expands `grid` and runs every cell through the batch harness with the
/// given policy (`batch.jobs` controls parallelism). Rows come back in
/// grid order regardless of completion order.
///
/// # Errors
///
/// Returns [`ConfigError`] if the grid itself is invalid; individual cell
/// failures are reported in the outcome's `failures`, not as errors.
pub fn run_sweep(grid: &SweepGrid, batch: BatchConfig) -> Result<SweepOutcome, ConfigError> {
    Ok(experiment::run(grid, grid.cells()?, batch))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(workload: &str, gct: usize, sram: u64, mitigations: u64, side: u64) -> SweepRow {
        SweepRow {
            workload: workload.to_string(),
            geometry: "tiny".to_string(),
            gct_entries: gct,
            rcc_entries: 64,
            t_rh: 32,
            t_h: 16,
            t_g: 12,
            acts: 1000,
            seed: 42,
            sram_bytes: sram,
            report: ActivationSimReport {
                demand_acts: 1000,
                side_reads: side,
                mitigations,
                window_resets: 3,
                ..ActivationSimReport::default()
            },
            group_spills: 0,
            gct_only: 1000,
            rcc_hits: 0,
            rct_accesses: 0,
            wall_secs: 0.5,
        }
    }

    fn outcome(rows: Vec<SweepRow>) -> SweepOutcome {
        Outcome {
            grid: SweepGrid::smoke(),
            rows,
            failures: Vec::new(),
        }
    }

    #[test]
    fn smoke_grid_expands_in_deterministic_order() {
        let grid = SweepGrid::smoke();
        let cells = match grid.cells() {
            Ok(c) => c,
            Err(e) => panic!("cells: {e}"),
        };
        assert_eq!(cells.len(), 6, "2 workloads × 3 GCT sizes");
        assert_eq!(cells[0].workload, "gups");
        assert_eq!(cells[0].gct_entries, 64);
        assert_eq!(cells[2].gct_entries, 1024);
        assert_eq!(cells[3].workload, "double_sided");
        assert_eq!(cells[0].label(), "gups/trh32/tg80/gct64/rcc64");
    }

    #[test]
    fn unknown_workload_and_geometry_are_rejected() {
        let mut grid = SweepGrid::smoke();
        grid.workloads = vec!["no-such-workload".to_string()];
        assert!(grid.cells().is_err());
        let mut grid = SweepGrid::smoke();
        grid.geometry = "no-such-geometry".to_string();
        assert!(grid.cells().is_err());
        let mut grid = SweepGrid::smoke();
        grid.gct_entries.clear();
        assert!(grid.cells().is_err());
    }

    #[test]
    fn tg_clamps_into_valid_range() {
        let mut cell = match SweepGrid::smoke().cells() {
            Ok(mut c) => c.remove(0),
            Err(e) => panic!("cells: {e}"),
        };
        cell.tg_pct = 100;
        assert!(cell.t_g() < cell.t_h());
        cell.tg_pct = 0;
        assert_eq!(cell.t_g(), 1);
    }

    #[test]
    fn deterministic_lines_drop_only_wall_secs() {
        let a = outcome(vec![row("gups", 64, 1000, 5, 100)]);
        let mut b = a.clone();
        b.rows[0].wall_secs = 99.0;
        assert_eq!(a.deterministic_lines(), b.deterministic_lines());
        assert_ne!(a.jsonl_lines(), b.jsonl_lines());
        let full = &a.jsonl_lines()[1];
        assert!(full.ends_with(",\"wall_secs\":0.500000}"), "{full}");
        let det = &a.deterministic_lines()[1];
        assert!(det.contains("\"schema\":\"hydra-sweep-v1\""), "{det}");
        assert!(det.contains("\"slowdown_pct\":10.0000}"), "{det}");
        assert!(!det.contains("wall_secs"));
        b.rows[0].report.mitigations = 6;
        assert_ne!(a.deterministic_lines(), b.deterministic_lines());
    }

    #[test]
    fn pareto_minimizes_sram_slowdown_and_mitigations() {
        let pareto = |rows| outcome(rows).pareto();
        let rows = vec![
            row("gups", 64, 1000, 10, 100), // dominated by index 2
            row("gups", 256, 2000, 2, 50),  // frontier: fewer mitigations
            row("gups", 128, 1000, 5, 80),  // frontier: cheapest non-dominated
            row("gups", 512, 4000, 5, 200), // dominated by index 1
        ];
        assert_eq!(pareto(rows), vec![1, 2]);
        // Slowdown alone can keep a row: same SRAM and mitigations, fewer ops.
        let rows = vec![row("gups", 64, 1000, 5, 100), row("gups", 64, 1000, 5, 99)];
        assert_eq!(pareto(rows), vec![1]);
    }

    #[test]
    fn trend_compares_gct_extremes() {
        let checks = outcome(vec![
            row("double_sided", 64, 1000, 50, 400),
            row("double_sided", 256, 2000, 40, 200),
            row("double_sided", 1024, 4000, 30, 100),
        ])
        .trend_checks();
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].gct_low, 64);
        assert_eq!(checks[0].gct_high, 1024);
        assert!(checks[0].ok);
        // A regressing trend (more mitigations at a bigger GCT) fails.
        let regressed = outcome(vec![
            row("double_sided", 64, 1000, 10, 100),
            row("double_sided", 1024, 4000, 30, 100),
        ]);
        assert!(!regressed.trend_ok());
        assert!(regressed.jsonl_lines()[3].ends_with("\"trend_ok\":false}"));
    }
}
