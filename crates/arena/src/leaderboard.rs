//! The cross-tracker Pareto leaderboard: `hydra sweep --arena` and the
//! `hydra-arena-v1` wire format.
//!
//! An [`ArenaGrid`] is the cross product of roster trackers, Row-Hammer
//! thresholds, and workloads. Each [`ArenaCell`] is one full
//! activation-level simulation of one tracker, run **under the shadow
//! oracle** ([`hydra_sim::oracle::ShadowOracle`]) so every leaderboard row
//! carries a machine-checked security verdict next to its performance
//! numbers: a tracker that wins the Pareto race by letting aggressors
//! through is disqualified by its own `oracle_violations` field, not by
//! reviewer vigilance.
//!
//! Cells run through the parallel batch harness (`hydra_sim::batch`) by
//! the experiment core that also runs [`crate::sweep`], under the same
//! determinism contract: `--jobs 4` ≡ `--jobs 1` but for `wall_secs`.
//!
//! # The two scales
//!
//! The simulation runs at *bench scale* (a refresh window compressed
//! 1000×, the same compression every other gate in the workspace uses),
//! so slowdown, mitigations, and spillover are measured.
//! The SRAM axis, however, is reported at *paper scale* via
//! [`paper_sram_bits`] — each tracker's analytic storage model from
//! [`hydra_baselines::storage`] evaluated at DDR4 provisioning
//! (`ACT_MAX_PER_BANK`, 16 banks/rank). Mixing instance SRAM with paper
//! SRAM would be incoherent: the Graphene baseline already reports
//! paper-scale storage, and a leaderboard that compared a bench-scaled
//! Hydra against a paper-scaled Graphene would flatter Hydra for free.
//!
//! The summary line reduces the grid two ways: a four-axis Pareto frontier
//! (SRAM bits, slowdown, mitigations, max spillover — all minimized) and
//! the paper's Figure 5 shape recomputed per (workload, `T_RH`) group:
//! Hydra must need less SRAM than Graphene while staying within a slowdown
//! tolerance of it ([`Fig5Check`]).

use crate::experiment::{self, Experiment, Outcome, Row};
use crate::roster::{build_tracker, roster_names, CRA_CACHE_BYTES};
use hydra_baselines::storage;
use hydra_core::HydraStorage;
use hydra_sim::batch::{BatchConfig, BatchJob};
use hydra_sim::oracle::ShadowOracle;
use hydra_sim::ActivationSimReport;
use hydra_types::error::ConfigError;
use hydra_types::geometry::MemGeometry;
use hydra_types::tracker::ActivationTracker;
use std::fmt::Write as _;

/// Version tag stamped on every `hydra sweep --arena` JSONL line. This
/// constant is the only place the literal may appear in library code
/// (enforced by `repo-lint`'s schema-single-source rule).
pub const ARENA_SCHEMA_VERSION: &str = "hydra-arena-v1";

/// Figure-5 slowdown tolerance, in percentage points: Hydra's slowdown may
/// exceed Graphene's by at most this much and still count as matching the
/// paper's shape (both are sub-1% at paper scale; the tolerance absorbs
/// bench-scale noise without letting an order-of-magnitude regression by).
const FIG5_SLOWDOWN_TOLERANCE_PCT: f64 = 5.0;

/// A declarative arena grid. Cells are the cross product of every list, in
/// deterministic nested order: workload (outermost), then `t_rh`, then
/// tracker (innermost), so one (workload, threshold) race reads as a
/// contiguous block of the output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaGrid {
    /// Geometry name (`tiny`, `isca22`, or `ddr5`).
    pub geometry: String,
    /// Roster tracker names to race.
    pub trackers: Vec<String>,
    /// Row-Hammer thresholds to race at.
    pub t_rh: Vec<u32>,
    /// Workload names: registry workloads or canonical attack patterns.
    pub workloads: Vec<String>,
    /// Demand activations per cell.
    pub acts: u64,
    /// Trace seed shared by every cell.
    pub seed: u64,
}

impl ArenaGrid {
    /// The CI smoke grid: the full roster at one ultra-low threshold on one
    /// benign and one attack workload. Small enough to finish in seconds,
    /// wide enough that every tracker runs under the oracle and the
    /// Figure-5 check has both of its contestants.
    pub fn smoke() -> Self {
        ArenaGrid {
            geometry: "tiny".to_string(),
            trackers: roster_names().iter().map(|s| (*s).to_string()).collect(),
            t_rh: vec![500],
            workloads: vec!["gups".to_string(), "double_sided".to_string()],
            acts: 6_000,
            seed: 42,
        }
    }

    /// The full leaderboard grid: the roster × the paper's threshold sweep
    /// (`T_RH` ∈ {4800, 1000, 500}, Fig. 5) × one benign workload plus
    /// every canonical attack pattern.
    pub fn full() -> Self {
        ArenaGrid {
            geometry: "tiny".to_string(),
            trackers: roster_names().iter().map(|s| (*s).to_string()).collect(),
            t_rh: vec![4800, 1000, 500],
            workloads: vec![
                "gups".to_string(),
                "single_sided".to_string(),
                "double_sided".to_string(),
                "many_sided".to_string(),
                "half_double".to_string(),
                "thrash".to_string(),
            ],
            acts: 50_000,
            seed: 42,
        }
    }

    /// Expands the grid into cells, in deterministic nested order.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the geometry is unknown, any list is
    /// empty, a tracker is not on the roster, or a workload name is neither
    /// a registry workload nor a canonical attack pattern.
    pub fn cells(&self) -> Result<Vec<ArenaCell>, ConfigError> {
        let geometry = experiment::check_grid(
            &self.geometry,
            "arena",
            &[
                ("trackers", self.trackers.len()),
                ("t_rh", self.t_rh.len()),
                ("workloads", self.workloads.len()),
            ],
        )?;
        for tracker in &self.trackers {
            if !roster_names().contains(&tracker.as_str()) {
                return Err(ConfigError::new(format!(
                    "unknown arena tracker '{tracker}' (roster: {})",
                    roster_names().join(", ")
                )));
            }
        }
        let mut cells = Vec::new();
        for workload in &self.workloads {
            experiment::check_workload(workload, geometry)?;
            for &t_rh in &self.t_rh {
                for tracker in &self.trackers {
                    cells.push(ArenaCell {
                        geometry,
                        geometry_name: self.geometry.clone(),
                        tracker: tracker.clone(),
                        workload: workload.clone(),
                        t_rh,
                        acts: self.acts,
                        seed: self.seed,
                    });
                }
            }
        }
        Ok(cells)
    }
}

/// One point of the arena: a (tracker, threshold, workload) triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaCell {
    /// Resolved geometry.
    pub geometry: MemGeometry,
    /// The geometry's name, carried into the output row.
    pub geometry_name: String,
    /// Roster tracker name.
    pub tracker: String,
    /// Workload or attack-pattern name.
    pub workload: String,
    /// Row-Hammer threshold.
    pub t_rh: u32,
    /// Demand activations to replay.
    pub acts: u64,
    /// Trace seed.
    pub seed: u64,
}

/// One arena cell is one batch job, so the harness's panic isolation,
/// watchdog, and retries apply per cell.
impl BatchJob for ArenaCell {
    type Output = ArenaRow;

    fn label(&self) -> String {
        format!("{}/{}/trh{}", self.tracker, self.workload, self.t_rh)
    }

    /// Builds the tracker from the roster, wraps it in the shadow oracle,
    /// replays the stream, and reduces to one [`ArenaRow`].
    fn run(&self, _attempt: u32) -> Result<ArenaRow, String> {
        let window_acts = experiment::timing().max_activations_per_window();
        let tracker = build_tracker(
            &self.tracker,
            self.geometry,
            0,
            self.t_rh,
            self.seed,
            window_acts,
        )
        .map_err(|e| e.to_string())?;
        let params = tracker.params();
        let sram_bits = paper_sram_bits(&self.tracker, self.t_rh).map_err(|e| e.to_string())?;
        let oracle = ShadowOracle::new(tracker, self.t_rh);
        let (oracle, report, wall_secs) =
            experiment::replay(oracle, self.geometry, &self.workload, self.acts, self.seed)?;
        let oracle_report = oracle.report();
        Ok(ArenaRow {
            tracker: self.tracker.clone(),
            params,
            workload: self.workload.clone(),
            geometry: self.geometry_name.clone(),
            t_rh: self.t_rh,
            acts: self.acts,
            seed: self.seed,
            sram_bits,
            report,
            max_spillover: oracle.max_spillover(),
            oracle_violations: oracle_report.violations_total,
            worst_unmitigated: oracle_report.worst_unmitigated,
            wall_secs,
        })
    }

    fn replay_artifact(&self) -> Option<String> {
        Some(format!(
            "hydra-arena-replay\ntracker={}\nworkload={}\ngeometry={}\n\
             t_rh={}\nacts={}\nseed={}\n",
            self.tracker, self.workload, self.geometry_name, self.t_rh, self.acts, self.seed,
        ))
    }
}

/// The paper-scale SRAM cost of a roster tracker at `t_rh`, in bits: the
/// analytic storage model from [`hydra_baselines::storage`] (or Hydra's own
/// [`HydraStorage`]) evaluated at DDR4 provisioning. This is the
/// leaderboard's SRAM axis — instance `sram_bytes()` would mix bench-scaled
/// and paper-scaled numbers (see the module docs).
///
/// # Errors
///
/// Returns [`ConfigError`] for a name not on the roster (or a threshold
/// Hydra's own provisioning rule rejects).
pub fn paper_sram_bits(tracker: &str, t_rh: u32) -> Result<u64, ConfigError> {
    let banks = storage::DDR4_BANKS_PER_RANK;
    let act_max = storage::ACT_MAX_PER_BANK;
    let bits = match tracker {
        "hydra" => {
            let config =
                crate::roster::hydra_config_for_threshold(MemGeometry::isca22_baseline(), 0, t_rh)?;
            HydraStorage::for_instance(&config)
                .total_sram_bytes()
                .saturating_mul(8)
        }
        "graphene" => storage::graphene_bytes_per_rank(t_rh, act_max, banks) * 8,
        "cra" => (CRA_CACHE_BYTES as u64) * 8,
        "para" => 0,
        "vendor-trr" => {
            // Honest TRR: enough per-bank entries for every distinct row a
            // full-scale window can activate (the roster's soundness rule at
            // paper scale). Each entry holds a row tag and an activation
            // counter — the leaderboard's answer to why samplers undersample.
            let entries = 2 * act_max;
            let counter_bits = u64::from(32 - (t_rh / 2).max(2).leading_zeros());
            u64::from(banks) * entries * (17 + counter_bits)
        }
        "comet" => storage::comet_bytes_per_rank(t_rh, banks) * 8,
        "abacus" => storage::abacus_bytes_per_rank(t_rh, act_max, banks) * 8,
        "mint" => storage::mint_bytes_per_rank(t_rh, banks) * 8,
        "start" => storage::start_bytes_per_rank(t_rh, act_max, banks) * 8,
        other => {
            return Err(ConfigError::new(format!(
                "unknown arena tracker '{other}' (roster: {})",
                roster_names().join(", ")
            )));
        }
    };
    Ok(bits)
}

/// One `hydra-arena-v1` result row. Every field except `wall_secs` is a
/// pure function of the cell, so rows compare identically across job
/// counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaRow {
    /// Roster tracker name.
    pub tracker: String,
    /// The tracker instance's provisioning summary.
    pub params: String,
    /// Workload name.
    pub workload: String,
    /// Geometry name.
    pub geometry: String,
    /// Row-Hammer threshold.
    pub t_rh: u32,
    /// Demand activations requested.
    pub acts: u64,
    /// Trace seed.
    pub seed: u64,
    /// Paper-scale SRAM cost ([`paper_sram_bits`]).
    pub sram_bits: u64,
    /// The simulator's counters: demand, mitigation and side traffic,
    /// mitigations and window resets.
    pub report: ActivationSimReport,
    /// The tracker's worst counting spillover (tracker-specific; see
    /// [`hydra_types::ActivationTracker::max_spillover`]).
    pub max_spillover: u64,
    /// Shadow-oracle contract breaches — **0 for every sound tracker**.
    pub oracle_violations: u64,
    /// Worst true activation count the oracle ever saw on an unmitigated
    /// row (current + previous window); must stay below `t_rh`.
    pub worst_unmitigated: u64,
    /// Wall-clock seconds for this cell — the one nondeterministic field,
    /// emitted last and dropped from the deterministic projection.
    pub wall_secs: f64,
}

impl Row for ArenaRow {
    fn json_body(&self) -> String {
        let mut out = experiment::line_start(ARENA_SCHEMA_VERSION, "cell");
        experiment::push_str_field(&mut out, "tracker", &self.tracker);
        experiment::push_str_field(&mut out, "params", &self.params);
        experiment::push_str_field(&mut out, "workload", &self.workload);
        experiment::push_str_field(&mut out, "geometry", &self.geometry);
        let _ = write!(
            out,
            ",\"t_rh\":{},\"acts\":{},\"seed\":{},\"sram_bits\":{}",
            self.t_rh, self.acts, self.seed, self.sram_bits,
        );
        experiment::push_counters(&mut out, &self.report);
        let _ = write!(
            out,
            concat!(
                ",\"max_spillover\":{},\"oracle_violations\":{},",
                "\"worst_unmitigated\":{},\"slowdown_pct\":{:.4}"
            ),
            self.max_spillover,
            self.oracle_violations,
            self.worst_unmitigated,
            self.report.slowdown_pct(),
        );
        out
    }

    fn wall_secs(&self) -> f64 {
        self.wall_secs
    }
}

/// One Figure-5 shape check: within a (workload, `T_RH`) group, Hydra
/// against Graphene. The paper's claim (Fig. 5 + Table 1) is that Hydra
/// matches Graphene's performance at a fraction of its SRAM as `T_RH`
/// falls — so `sram_ok` demands strictly less paper-scale SRAM and
/// `slowdown_ok` demands slowdown within [`FIG5_SLOWDOWN_TOLERANCE_PCT`]
/// points.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Check {
    /// Workload name of the group.
    pub workload: String,
    /// Row-Hammer threshold of the group.
    pub t_rh: u32,
    /// Hydra's paper-scale SRAM bits.
    pub hydra_sram_bits: u64,
    /// Graphene's paper-scale SRAM bits.
    pub graphene_sram_bits: u64,
    /// True iff Hydra needs strictly less SRAM.
    pub sram_ok: bool,
    /// Hydra's slowdown in the group.
    pub hydra_slowdown_pct: f64,
    /// Graphene's slowdown in the group.
    pub graphene_slowdown_pct: f64,
    /// True iff Hydra's slowdown is within tolerance of Graphene's.
    pub slowdown_ok: bool,
    /// Both conditions.
    pub ok: bool,
}

impl Experiment for ArenaGrid {
    type Row = ArenaRow;

    fn meta_line(&self) -> String {
        let mut out = experiment::line_start(ARENA_SCHEMA_VERSION, "meta");
        experiment::push_str_field(&mut out, "geometry", &self.geometry);
        experiment::push_names(&mut out, "trackers", &self.trackers);
        experiment::push_names(&mut out, "workloads", &self.workloads);
        let _ = write!(
            out,
            ",\"t_rh\":{:?},\"acts\":{},\"seed\":{}}}",
            self.t_rh, self.acts, self.seed,
        );
        out
    }

    fn summary_line(outcome: &ArenaOutcome) -> String {
        let mut out = outcome.summary_start(ARENA_SCHEMA_VERSION);
        let _ = write!(out, ",\"oracle_clean\":{}", outcome.oracle_clean());
        experiment::push_array(&mut out, "pareto", outcome.pareto(), |out, idx| {
            let row = &outcome.rows[idx];
            let _ = write!(
                out,
                concat!(
                    "{{\"tracker\":\"{}\",\"workload\":\"{}\",\"t_rh\":{},",
                    "\"sram_bits\":{},\"slowdown_pct\":{:.4},\"mitigations\":{},",
                    "\"max_spillover\":{}}}"
                ),
                row.tracker,
                row.workload,
                row.t_rh,
                row.sram_bits,
                row.report.slowdown_pct(),
                row.report.mitigations,
                row.max_spillover,
            );
        });
        let fig5 = outcome.fig5_checks();
        experiment::push_array(&mut out, "fig5", &fig5, |out, c| {
            let _ = write!(
                out,
                concat!(
                    "{{\"workload\":\"{}\",\"t_rh\":{},\"hydra_sram_bits\":{},",
                    "\"graphene_sram_bits\":{},\"sram_ok\":{},",
                    "\"hydra_slowdown_pct\":{:.4},\"graphene_slowdown_pct\":{:.4},",
                    "\"slowdown_ok\":{},\"ok\":{}}}"
                ),
                c.workload,
                c.t_rh,
                c.hydra_sram_bits,
                c.graphene_sram_bits,
                c.sram_ok,
                c.hydra_slowdown_pct,
                c.graphene_slowdown_pct,
                c.slowdown_ok,
                c.ok,
            );
        });
        let _ = write!(out, ",\"fig5_ok\":{}}}", fig5.iter().all(|c| c.ok));
        out
    }
}

/// The result of a whole arena run.
pub type ArenaOutcome = Outcome<ArenaGrid>;

impl ArenaOutcome {
    /// Indices (into [`rows`](Self::rows)) of the Pareto frontier
    /// minimizing (SRAM bits, slowdown, mitigations, max spillover),
    /// ascending.
    pub fn pareto(&self) -> Vec<usize> {
        experiment::pareto(&self.rows, |r| {
            (
                &r.report,
                [r.sram_bits, r.report.mitigations, r.max_spillover],
            )
        })
    }

    /// Figure-5 shape checks, one per (workload, `T_RH`) group where both
    /// Hydra and Graphene completed.
    pub fn fig5_checks(&self) -> Vec<Fig5Check> {
        let mut keys: Vec<(&str, u32)> = self
            .rows
            .iter()
            .map(|r| (r.workload.as_str(), r.t_rh))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut checks = Vec::new();
        for (workload, t_rh) in keys {
            let find = |name: &str| {
                self.rows
                    .iter()
                    .find(|r| r.tracker == name && r.workload == workload && r.t_rh == t_rh)
            };
            let (Some(hydra), Some(graphene)) = (find("hydra"), find("graphene")) else {
                continue;
            };
            let sram_ok = hydra.sram_bits < graphene.sram_bits;
            let slowdown_ok = hydra.report.slowdown_pct()
                <= graphene.report.slowdown_pct() + FIG5_SLOWDOWN_TOLERANCE_PCT;
            checks.push(Fig5Check {
                workload: workload.to_string(),
                t_rh,
                hydra_sram_bits: hydra.sram_bits,
                graphene_sram_bits: graphene.sram_bits,
                sram_ok,
                hydra_slowdown_pct: hydra.report.slowdown_pct(),
                graphene_slowdown_pct: graphene.report.slowdown_pct(),
                slowdown_ok,
                ok: sram_ok && slowdown_ok,
            });
        }
        checks
    }

    /// True iff at least one Figure-5 check exists at `t_rh` and all of
    /// them pass. The CI gate asserts this at `T_RH = 500`, the paper's
    /// ultra-low operating point, where Graphene's SRAM must already dwarf
    /// Hydra's; at high thresholds Graphene is legitimately small and the
    /// SRAM condition may not hold.
    pub fn fig5_ok_at(&self, t_rh: u32) -> bool {
        let mut any = false;
        for check in self.fig5_checks() {
            if check.t_rh == t_rh {
                any = true;
                if !check.ok {
                    return false;
                }
            }
        }
        any
    }

    /// True iff every completed row passed the shadow oracle.
    pub fn oracle_clean(&self) -> bool {
        self.rows.iter().all(|r| r.oracle_violations == 0)
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
pub fn run_arena(grid: &ArenaGrid, batch: BatchConfig) -> Result<ArenaOutcome, ConfigError> {
    Ok(experiment::run(grid, grid.cells()?, batch))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(
        tracker: &str,
        workload: &str,
        t_rh: u32,
        sram: u64,
        mitigations: u64,
        spill: u64,
    ) -> ArenaRow {
        ArenaRow {
            tracker: tracker.to_string(),
            params: String::new(),
            workload: workload.to_string(),
            geometry: "tiny".to_string(),
            t_rh,
            acts: 1000,
            seed: 42,
            sram_bits: sram,
            report: ActivationSimReport {
                demand_acts: 1000,
                mitigation_acts: 4 * mitigations,
                mitigations,
                window_resets: 3,
                ..ActivationSimReport::default()
            },
            max_spillover: spill,
            oracle_violations: 0,
            worst_unmitigated: t_rh as u64 / 2,
            wall_secs: 0.5,
        }
    }

    fn outcome(rows: Vec<ArenaRow>) -> ArenaOutcome {
        Outcome {
            grid: ArenaGrid::smoke(),
            rows,
            failures: Vec::new(),
        }
    }

    #[test]
    fn smoke_grid_expands_workload_major_tracker_minor() {
        let grid = ArenaGrid::smoke();
        let cells = match grid.cells() {
            Ok(c) => c,
            Err(e) => panic!("cells: {e}"),
        };
        assert_eq!(cells.len(), 18, "2 workloads × 1 T_RH × 9 trackers");
        assert_eq!(cells[0].workload, "gups");
        assert_eq!(cells[0].tracker, "hydra");
        assert_eq!(cells[8].tracker, "start");
        assert_eq!(cells[9].workload, "double_sided");
        assert_eq!(cells[0].label(), "hydra/gups/trh500");
    }

    #[test]
    fn full_grid_covers_the_paper_thresholds_and_all_attacks() {
        let grid = ArenaGrid::full();
        assert_eq!(grid.t_rh, vec![4800, 1000, 500]);
        assert_eq!(grid.workloads.len(), 6);
        assert!(grid.trackers.len() >= 9);
        let cells = match grid.cells() {
            Ok(c) => c,
            Err(e) => panic!("cells: {e}"),
        };
        assert_eq!(cells.len(), 6 * 3 * grid.trackers.len());
    }

    #[test]
    fn invalid_grids_are_rejected() {
        let mut grid = ArenaGrid::smoke();
        grid.trackers = vec!["no-such-tracker".to_string()];
        assert!(grid.cells().is_err());
        let mut grid = ArenaGrid::smoke();
        grid.workloads = vec!["no-such-workload".to_string()];
        assert!(grid.cells().is_err());
        let mut grid = ArenaGrid::smoke();
        grid.geometry = "no-such-geometry".to_string();
        assert!(grid.cells().is_err());
        let mut grid = ArenaGrid::smoke();
        grid.t_rh.clear();
        assert!(grid.cells().is_err());
    }

    #[test]
    fn deterministic_lines_drop_only_wall_secs() {
        let a = outcome(vec![row("hydra", "gups", 500, 1000, 5, 0)]);
        let mut b = a.clone();
        b.rows[0].wall_secs = 99.0;
        assert_eq!(a.deterministic_lines(), b.deterministic_lines());
        assert_ne!(a.jsonl_lines(), b.jsonl_lines());
        let det = &a.deterministic_lines()[1];
        assert!(det.contains("\"schema\":\"hydra-arena-v1\""), "{det}");
        assert!(det.contains("\"oracle_violations\":0"), "{det}");
        assert!(det.ends_with("\"slowdown_pct\":2.0000}"), "{det}");
        assert!(!det.contains("wall_secs"));
        b.rows[0].report.mitigations = 6;
        assert_ne!(a.deterministic_lines(), b.deterministic_lines());
    }

    #[test]
    fn pareto_respects_all_four_axes() {
        let outcome = outcome(vec![
            row("a", "gups", 500, 1000, 10, 5), // dominated by index 2
            row("b", "gups", 500, 2000, 2, 5),  // frontier: fewest mitigations
            row("c", "gups", 500, 1000, 5, 5),  // frontier: cheapest non-dominated
            row("d", "gups", 500, 4000, 5, 0),  // frontier: only via the spillover axis
        ]);
        assert_eq!(outcome.pareto(), vec![1, 2, 3]);
    }

    #[test]
    fn fig5_checks_compare_hydra_against_graphene_per_group() {
        let outcome = outcome(vec![
            row("hydra", "gups", 500, 1000, 5, 0),
            row("graphene", "gups", 500, 9000, 5, 0),
            // At 4800 Graphene is legitimately smaller: sram_ok fails.
            row("hydra", "gups", 4800, 1000, 5, 0),
            row("graphene", "gups", 4800, 500, 5, 0),
            // No graphene partner: no check emitted.
            row("hydra", "double_sided", 500, 1000, 5, 0),
        ]);
        let checks = outcome.fig5_checks();
        assert_eq!(checks.len(), 2);
        assert!(outcome.fig5_ok_at(500));
        assert!(!outcome.fig5_ok_at(4800));
        assert!(!outcome.fig5_ok_at(1000), "no group at 1000 → not ok");
        let summary = match outcome.jsonl_lines().pop() {
            Some(s) => s,
            None => panic!("summary line missing"),
        };
        assert!(summary.contains("\"fig5\":["), "{summary}");
        assert!(summary.contains("\"fig5_ok\":false"), "{summary}");
    }

    #[test]
    fn paper_sram_axis_reproduces_the_table_1_ordering() {
        let bits = |name: &str, t_rh: u32| match paper_sram_bits(name, t_rh) {
            Ok(b) => b,
            Err(e) => panic!("{name}@{t_rh}: {e}"),
        };
        // Hydra's headline: ~1/6 of Graphene's SRAM at T_RH = 500.
        assert!(bits("hydra", 500) < bits("graphene", 500));
        // Graphene's table grows as the threshold falls; MINT's cursors
        // only shrink (a lower threshold means a shorter sampling interval).
        assert!(bits("graphene", 500) > bits("graphene", 1000));
        assert!(bits("mint", 500) <= bits("mint", 4800));
        assert!(bits("mint", 500) < 1024, "MINT stays under a kilobit");
        assert_eq!(bits("para", 500), 0);
        // Honest TRR is the cautionary tale: orders of magnitude above all.
        assert!(bits("vendor-trr", 500) > 100 * bits("graphene", 500));
        assert!(paper_sram_bits("no-such-tracker", 500).is_err());
    }

    #[test]
    fn a_cell_runs_under_the_oracle_end_to_end() {
        let cell = ArenaCell {
            geometry: MemGeometry::tiny(),
            geometry_name: "tiny".to_string(),
            tracker: "mint".to_string(),
            workload: "single_sided".to_string(),
            t_rh: 500,
            acts: 2_000,
            seed: 42,
        };
        let row = match cell.run(0) {
            Ok(r) => r,
            Err(e) => panic!("cell: {e}"),
        };
        assert_eq!(row.report.demand_acts, 2_000);
        assert!(
            row.report.mitigations > 0,
            "a hammered row must draw samples"
        );
        assert_eq!(row.oracle_violations, 0, "MINT must hold the contract");
        assert!(row.worst_unmitigated < 500);
        assert!(row.sram_bits > 0);
        assert!(row.params.contains("interval"), "{}", row.params);
    }

    #[test]
    fn run_arena_reports_rows_in_grid_order() {
        let grid = ArenaGrid {
            geometry: "tiny".to_string(),
            trackers: vec!["para".to_string(), "mint".to_string()],
            t_rh: vec![500],
            workloads: vec!["single_sided".to_string()],
            acts: 1_500,
            seed: 42,
        };
        let outcome = match run_arena(&grid, BatchConfig::default()) {
            Ok(o) => o,
            Err(e) => panic!("arena: {e}"),
        };
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert_eq!(outcome.rows.len(), 2);
        assert_eq!(outcome.rows[0].tracker, "para");
        assert_eq!(outcome.rows[1].tracker, "mint");
        assert!(outcome.oracle_clean());
        let lines = outcome.jsonl_lines();
        assert_eq!(lines.len(), 4, "meta + 2 cells + summary");
        assert!(lines[0].contains("\"kind\":\"meta\""));
        assert!(lines[3].contains("\"kind\":\"summary\""));
    }
}
