//! Fault-resilience evaluation: drive a fault-injected Hydra under the
//! [`ShadowOracle`] referee and quantify how much protection survives.
//!
//! The unit of work is a [`FaultCaseSpec`]: a fully deterministic
//! description of one run — geometry, threshold, activation budget, stream
//! seed, degradation policy and [`FaultPlan`]. [`run_case`] executes it and
//! returns a [`FaultCaseReport`]; running the same spec twice yields an
//! identical report, which is the foundation of the replay-artifact
//! workflow (specs serialize with [`FaultCaseSpec::to_artifact`] and load
//! back with [`FaultCaseSpec::parse_artifact`]).
//!
//! [`degradation_table`] sweeps fault rates × degradation policies and is
//! what `hydra-audit --faults` prints: fault rate → worst-case excess
//! activations, with vs. without the graceful-degradation layer.

use hydra_core::degrade::{DegradationPolicy, HealthReport};
use hydra_core::HydraConfig;
use hydra_faults::{faulty_hydra, FaultLog, FaultPlan};
use hydra_sim::oracle::{OracleReport, ShadowOracle};
use hydra_types::error::ConfigError;
use hydra_types::{ActivationKind, ActivationTracker, MemGeometry, RowAddr};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Artifact format version header; the first line of every replay file.
pub const ARTIFACT_HEADER: &str = "hydra-replay-v1";

/// One deterministic fault-evaluation run, fully described.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCaseSpec {
    /// Human-readable case label.
    pub label: String,
    /// Geometry name: `tiny`, `isca22` or `ddr5`.
    pub geometry: String,
    /// Row-Hammer threshold the oracle referees against.
    pub t_rh: u32,
    /// Activations to drive.
    pub acts: u64,
    /// Activations per tracking window (a `reset_window` every this many).
    pub window_acts: u64,
    /// Seed of the activation-stream RNG (hot-row selection and noise).
    pub stream_seed: u64,
    /// Degradation policy configured into Hydra.
    pub policy: DegradationPolicy,
    /// The fault plan injected around Hydra.
    pub plan: FaultPlan,
}

impl FaultCaseSpec {
    /// A standard case: hammer-heavy stream over deliberately small
    /// GCT/RCC structures so the in-DRAM RCT path is exercised within a
    /// modest activation budget.
    pub fn new(geometry: &str, t_rh: u32, acts: u64, policy: DegradationPolicy) -> Self {
        FaultCaseSpec {
            label: format!("{geometry}/t_rh{t_rh}"),
            geometry: geometry.to_string(),
            t_rh,
            acts,
            window_acts: (acts / 4).max(1),
            stream_seed: 0xace5,
            policy,
            plan: FaultPlan::none(),
        }
    }

    /// Builds the Hydra configuration for this case: `T_H = T_RH / 2`,
    /// `T_G = 0.8 · T_H`, and *small* structures (64-entry GCT, 32-entry
    /// RCC) so faults on the DRAM path actually matter at bench scale.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for unknown geometries or invalid thresholds.
    pub fn build_config(&self) -> Result<HydraConfig, ConfigError> {
        let geometry = MemGeometry::by_name(&self.geometry)
            .ok_or_else(|| ConfigError::new(format!("unknown geometry {}", self.geometry)))?;
        let t_h = (self.t_rh / 2).max(2);
        let t_g = ((t_h * 4) / 5).max(1);
        HydraConfig::builder(geometry, 0)
            .thresholds(t_h, t_g)
            .gct_entries(64)
            .rcc_entries(32)
            .rcc_ways(4)
            .degradation(self.policy)
            .build()
    }

    /// Serializes to the plain-text replay-artifact format.
    pub fn to_artifact(&self) -> String {
        let mut lines = vec![
            ARTIFACT_HEADER.to_string(),
            format!("label={}", self.label),
            format!("geometry={}", self.geometry),
            format!("t_rh={}", self.t_rh),
            format!("acts={}", self.acts),
            format!("window_acts={}", self.window_acts),
            format!("stream_seed={}", self.stream_seed),
            format!("policy={}", self.policy),
        ];
        lines.extend(self.plan.to_kv_lines());
        lines.join("\n") + "\n"
    }

    /// Parses an artifact produced by [`to_artifact`](Self::to_artifact).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn parse_artifact(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h.trim() == ARTIFACT_HEADER => {}
            other => {
                return Err(format!(
                    "not a replay artifact: expected {ARTIFACT_HEADER:?} header, got {other:?}"
                ))
            }
        }
        let mut spec = FaultCaseSpec::new("tiny", 500, 0, DegradationPolicy::Off);
        let mut saw_acts = false;
        for line in text.lines().skip(1) {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with("fault.") {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("malformed artifact line: {line}"))?;
            let bad = |e: &dyn fmt::Display| format!("bad value for {key}: {e}");
            match key {
                "label" => spec.label = value.to_string(),
                "geometry" => spec.geometry = value.to_string(),
                "t_rh" => spec.t_rh = value.parse().map_err(|e| bad(&e))?,
                "acts" => {
                    spec.acts = value.parse().map_err(|e| bad(&e))?;
                    saw_acts = true;
                }
                "window_acts" => spec.window_acts = value.parse().map_err(|e| bad(&e))?,
                "stream_seed" => spec.stream_seed = value.parse().map_err(|e| bad(&e))?,
                "policy" => {
                    spec.policy = DegradationPolicy::parse(value)
                        .ok_or_else(|| format!("unknown policy {value}"))?;
                }
                other => return Err(format!("unknown artifact key: {other}")),
            }
        }
        if !saw_acts {
            return Err("artifact missing acts= line".to_string());
        }
        spec.plan = FaultPlan::from_kv_lines(text.lines())?;
        Ok(spec)
    }
}

/// The outcome of one fault-evaluation run. Deterministic in the spec.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCaseReport {
    /// The spec's label.
    pub label: String,
    /// The oracle's ground-truth summary.
    pub oracle: OracleReport,
    /// Faults injected at the tracker level.
    pub fault_log: FaultLog,
    /// Bit flips injected on RCT reads.
    pub rct_read_flips: u64,
    /// Bit flips injected on RCT writes.
    pub rct_write_flips: u64,
    /// Hydra's degradation-layer health summary.
    pub health: HealthReport,
}

impl FaultCaseReport {
    /// True iff the oracle recorded no contract violation.
    pub fn is_clean(&self) -> bool {
        self.oracle.violations_total == 0
    }

    /// Worst-case activations *beyond* the last safe count (`T_RH − 1`):
    /// zero for a secure run, positive when disturbance escaped.
    pub fn excess_acts(&self, t_rh: u32) -> u64 {
        self.oracle
            .worst_unmitigated
            .saturating_sub(u64::from(t_rh) - 1)
    }

    /// Total injected faults across all seams.
    pub fn injected_faults(&self) -> u64 {
        self.fault_log.injected() + self.rct_read_flips + self.rct_write_flips
    }
}

/// Executes one fault case: a seeded hammer-heavy activation stream driven
/// through `ShadowOracle(FaultyTracker(Hydra(FaultyRct)))`.
///
/// # Errors
///
/// Returns [`ConfigError`] if the spec's configuration cannot be built.
pub fn run_case(spec: &FaultCaseSpec) -> Result<FaultCaseReport, ConfigError> {
    let config = spec.build_config()?;
    let geometry = config.geometry;
    let tracker = faulty_hydra(config, &spec.plan)?;
    let mut oracle = ShadowOracle::new(tracker, spec.t_rh);

    // Hammer 6 hot rows spread over 3 groups (64-row groups), plus noise
    // across the channel. Deterministic in the stream seed.
    let hot: Vec<RowAddr> = [0u32, 1, 64, 65, 128, 129]
        .iter()
        .map(|&r| RowAddr::new(0, 0, 0, r))
        .collect();
    let banks = geometry.banks_per_rank();
    let rows_per_bank = geometry.rows_per_bank();
    let mut rng = SmallRng::seed_from_u64(spec.stream_seed);
    for i in 0..spec.acts {
        if i > 0 && i % spec.window_acts == 0 {
            oracle.reset_window(i);
        }
        let row = if rng.gen_bool(0.85) {
            hot[rng.gen_range(0..hot.len())]
        } else {
            RowAddr::new(
                0,
                0,
                rng.gen_range(0..u32::from(banks)) as u8,
                rng.gen_range(0..rows_per_bank),
            )
        };
        let _ = oracle.on_activation(row, i, ActivationKind::Demand);
    }

    let report = oracle.report();
    let tracker = oracle.into_inner();
    Ok(FaultCaseReport {
        label: spec.label.clone(),
        oracle: report,
        fault_log: tracker.log(),
        rct_read_flips: tracker.inner().rct().read_flips(),
        rct_write_flips: tracker.inner().rct().write_flips(),
        health: tracker.inner().health(),
    })
}

/// One row of the degradation table.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationRow {
    /// The uniform per-event fault rate injected.
    pub rate: f64,
    /// The degradation policy under test.
    pub policy: DegradationPolicy,
    /// The run's report.
    pub report: FaultCaseReport,
}

/// The fault rates swept by [`degradation_table`]. The top rate is high
/// enough that RCT bit flips land on live counters and the parity layer
/// visibly engages; the zero rate anchors the no-fault baseline.
pub const TABLE_RATES: [f64; 4] = [0.0, 1e-3, 1e-2, 5e-2];

/// Sweeps [`TABLE_RATES`] × {off, reinit, refresh} uniform-fault runs on
/// `geometry` and returns the grid. The zero-rate rows double as a
/// regression check: they must be violation-free or the tracker (not the
/// faults) is broken.
///
/// # Errors
///
/// Returns [`ConfigError`] if a configuration cannot be built.
pub fn degradation_table(
    geometry: &str,
    t_rh: u32,
    acts: u64,
) -> Result<Vec<DegradationRow>, ConfigError> {
    let policies = [
        DegradationPolicy::Off,
        DegradationPolicy::ConservativeReinit,
        DegradationPolicy::ImmediateRefresh,
    ];
    let mut rows = Vec::new();
    for (i, &rate) in TABLE_RATES.iter().enumerate() {
        for policy in policies {
            let mut spec = FaultCaseSpec::new(geometry, t_rh, acts, policy);
            spec.label = format!("{geometry}/rate{rate}/{policy}");
            spec.plan = FaultPlan::uniform(rate, 0xfa_0700 + i as u64);
            rows.push(DegradationRow {
                rate,
                policy,
                report: run_case(&spec)?,
            });
        }
    }
    Ok(rows)
}

/// Renders the table `degradation_table` produced.
pub fn render_table(geometry: &str, t_rh: u32, rows: &[DegradationRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "degradation table — geometry={geometry} t_rh={t_rh}\n"
    ));
    out.push_str(
        "rate       policy    injected  parity_err  recovered  mitigations  \
         worst_unmit  excess  violations\n",
    );
    for row in rows {
        let r = &row.report;
        let recovered = r.health.reinits + r.health.escalated_refreshes;
        out.push_str(&format!(
            "{:<10} {:<9} {:>8}  {:>10}  {:>9}  {:>11}  {:>11}  {:>6}  {:>10}\n",
            format!("{:.0e}", row.rate),
            row.policy.to_string(),
            r.injected_faults(),
            r.health.parity_errors,
            recovered,
            r.oracle.mitigations,
            r.oracle.worst_unmitigated,
            r.excess_acts(t_rh),
            r.oracle.violations_total,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(policy: DegradationPolicy) -> FaultCaseSpec {
        FaultCaseSpec::new("tiny", 64, 20_000, policy)
    }

    #[test]
    fn zero_fault_case_is_clean() {
        let report = run_case(&tiny_spec(DegradationPolicy::Off)).expect("runs");
        assert!(report.is_clean(), "{:?}", report.oracle);
        assert_eq!(report.injected_faults(), 0);
        assert!(report.oracle.mitigations > 0, "the stream must hammer");
        assert_eq!(report.excess_acts(64), 0);
    }

    #[test]
    fn dropped_mitigations_cause_violations() {
        let mut spec = tiny_spec(DegradationPolicy::Off);
        spec.plan = FaultPlan::none().with_seed(1).with_drop_mitigation(1.0);
        let report = run_case(&spec).expect("runs");
        assert!(!report.is_clean(), "dropping all mitigations must violate");
        assert!(report.excess_acts(64) > 0);
        assert!(report.fault_log.dropped_mitigations > 0);
    }

    #[test]
    fn degradation_policy_reduces_rct_flip_damage() {
        // High RCT read-flip rate; compare worst unmitigated count with the
        // policy off vs. conservative re-init. The parity layer must detect
        // corruption and keep the worst case no worse than the unprotected
        // run.
        let mut off = tiny_spec(DegradationPolicy::Off);
        off.plan = FaultPlan::none()
            .with_seed(2)
            .with_rct_read_flip(0.05)
            .with_rct_write_flip(0.05);
        let mut guarded = tiny_spec(DegradationPolicy::ConservativeReinit);
        guarded.plan = off.plan.clone();
        let off_report = run_case(&off).expect("runs");
        let guarded_report = run_case(&guarded).expect("runs");
        assert!(
            guarded_report.health.parity_errors > 0,
            "faults at 5% must trip parity"
        );
        assert!(
            guarded_report.oracle.worst_unmitigated <= off_report.oracle.worst_unmitigated,
            "degradation must not worsen the bound: {} vs {}",
            guarded_report.oracle.worst_unmitigated,
            off_report.oracle.worst_unmitigated
        );
    }

    #[test]
    fn run_case_is_deterministic() {
        let mut spec = tiny_spec(DegradationPolicy::ConservativeReinit);
        spec.plan = FaultPlan::uniform(1e-2, 9);
        let a = run_case(&spec).expect("runs");
        let b = run_case(&spec).expect("runs");
        assert_eq!(a, b);
    }

    #[test]
    fn artifact_round_trips() {
        let mut spec = tiny_spec(DegradationPolicy::ProbabilisticFallback { seed: 5 });
        spec.plan = FaultPlan::uniform(1e-3, 77).with_gct_stuck(3, 0);
        let text = spec.to_artifact();
        let parsed = FaultCaseSpec::parse_artifact(&text).expect("parses");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn artifact_rejects_garbage() {
        assert!(FaultCaseSpec::parse_artifact("not-an-artifact\n").is_err());
        assert!(FaultCaseSpec::parse_artifact("hydra-replay-v1\nbogus\n").is_err());
        assert!(FaultCaseSpec::parse_artifact("hydra-replay-v1\nbogus=1\n").is_err());
        assert!(
            FaultCaseSpec::parse_artifact("hydra-replay-v1\nlabel=x\n").is_err(),
            "missing acts"
        );
    }

    #[test]
    fn small_table_has_clean_zero_rows() {
        let rows = degradation_table("tiny", 64, 6_000).expect("runs");
        assert_eq!(rows.len(), TABLE_RATES.len() * 3);
        for row in rows.iter().filter(|r| r.rate == 0.0) {
            assert!(row.report.is_clean(), "zero-rate row dirty: {row:?}");
        }
        let text = render_table("tiny", 64, &rows);
        assert!(text.contains("degradation table"));
        assert!(text.contains("reinit"));
    }
}
