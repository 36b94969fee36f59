//! Simulation results and statistics helpers.

use crate::controller::ControllerStats;
use hydra_dram::PowerCounters;
use hydra_types::clock::MemCycle;
use std::fmt;

/// Aggregate result of a full-system run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Memory-controller cycles elapsed.
    pub cycles: MemCycle,
    /// CPU cycles elapsed.
    pub cpu_cycles: u64,
    /// Total instructions retired across all cores.
    pub instructions: u64,
    /// Per-channel controller statistics.
    pub controllers: Vec<ControllerStats>,
    /// Per-channel DRAM energy events (every ACT, RD, WR, PRE and REF the
    /// channel issued), for the Sec. 6.8 energy model.
    pub power: Vec<PowerCounters>,
}

impl SimResult {
    /// System IPC: instructions per CPU cycle, summed over cores.
    pub fn ipc(&self) -> f64 {
        if self.cpu_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cpu_cycles as f64
        }
    }

    /// Performance normalized to a baseline run of the same workload
    /// (the y-axis of Figs. 2, 5 and 8: `baseline_cycles / our_cycles`).
    pub fn normalized_to(&self, baseline: &SimResult) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }

    /// Slowdown percentage versus a baseline run
    /// (`(our_cycles / baseline_cycles − 1) × 100`).
    pub fn slowdown_pct(&self, baseline: &SimResult) -> f64 {
        if baseline.cycles == 0 {
            0.0
        } else {
            (self.cycles as f64 / baseline.cycles as f64 - 1.0) * 100.0
        }
    }

    /// Sum of demand activations over all channels.
    pub fn demand_acts(&self) -> u64 {
        self.controllers.iter().map(|c| c.demand_acts).sum()
    }

    /// Sum of mitigation (victim-refresh) activations over all channels.
    pub fn mitigation_acts(&self) -> u64 {
        self.controllers.iter().map(|c| c.mitigation_acts).sum()
    }

    /// Sum of tracker side accesses completed over all channels.
    pub fn side_accesses(&self) -> u64 {
        self.controllers.iter().map(|c| c.side_done).sum()
    }
}

impl fmt::Display for SimResult {
    /// Renders an aligned two-column summary: headline run metrics followed
    /// by the channel-aggregated activation counters.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: [(&str, String); 8] = [
            ("mem cycles", self.cycles.to_string()),
            ("cpu cycles", self.cpu_cycles.to_string()),
            ("instructions", self.instructions.to_string()),
            ("ipc", format!("{:.4}", self.ipc())),
            ("channels", self.controllers.len().to_string()),
            ("demand ACTs", self.demand_acts().to_string()),
            ("mitigation ACTs", self.mitigation_acts().to_string()),
            ("side accesses", self.side_accesses().to_string()),
        ];
        writeln!(f, "{:<24} {:>14}", "metric", "value")?;
        writeln!(f, "{:-<24} {:->14}", "", "")?;
        for (name, value) in rows {
            writeln!(f, "{name:<24} {value:>14}")?;
        }
        Ok(())
    }
}

/// Geometric mean of a slice of positive values — the aggregation the
/// paper's figures use for suite averages.
///
/// Returns 0 for an empty slice.
///
/// # Example
///
/// ```
/// use hydra_sim::geometric_mean;
/// let g = geometric_mean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(cycles: MemCycle, instructions: u64) -> SimResult {
        SimResult {
            cycles,
            cpu_cycles: cycles * 2,
            instructions,
            controllers: vec![],
            power: vec![],
        }
    }

    #[test]
    fn ipc_is_instructions_per_cpu_cycle() {
        let r = result(1000, 4000);
        assert!((r.ipc() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_and_slowdown_agree() {
        let base = result(1000, 4000);
        let slow = result(1250, 4000);
        assert!((slow.normalized_to(&base) - 0.8).abs() < 1e-12);
        assert!((slow.slowdown_pct(&base) - 25.0).abs() < 1e-9);
        assert!((base.slowdown_pct(&base)).abs() < 1e-12);
    }

    #[test]
    fn display_renders_aligned_metric_rows() {
        let r = result(1000, 4000);
        let text = r.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 8);
        assert!(lines[0].starts_with("metric"));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("ipc") && l.contains("2.0000")));
        assert!(lines.iter().any(|l| l.starts_with("demand ACTs")));
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_zero() {
        let _ = geometric_mean(&[0.0, 1.0]);
    }
}
