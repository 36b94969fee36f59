//! The repository benchmark: four seeded workloads that time every layer
//! of the Hydra reproduction from outside, by wrapping the benchmark's own
//! calls into each layer's public functions. See `README.md` in this
//! directory for why each workload exists and how to read the output.

#![forbid(unsafe_code)]

pub mod arena_race;
pub mod daemon_ingest;
pub mod gen;
pub mod harness;
pub mod hydra_replay;
pub mod paper_ipc;
pub mod stats;

use harness::{Ledger, SpanSummary};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["paper_ipc", "hydra_replay", "arena_race", "daemon_ingest"];

/// End-to-end metrics and their units. Every workload reports each one.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("acts_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("mitigations_per_mact", "1/Mact"),
    ("dram_overhead_pct", "%"),
    ("max_unmitigated_frac", "ratio"),
];

/// Per-layer metrics that do not depend on the arena roster.
const LAYER_FIXED: [(&str, &str); 36] = [
    ("workloads.gen_ns_per_act", "ns"),
    ("core.on_activation_ns.benign", "ns"),
    ("core.on_activation_ns.attack", "ns"),
    ("core.on_activation_ns.thrash", "ns"),
    ("core.reset_window_us", "us"),
    ("core.gct_ns", "ns"),
    ("core.rcc_ns", "ns"),
    ("core.rct_ns", "ns"),
    ("core.gct_only_frac", "ratio"),
    ("core.rcc_hit_frac", "ratio"),
    ("core.rct_frac", "ratio"),
    ("core.group_spills_per_kact", "1/kact"),
    ("sim.replay_ns_per_act", "ns"),
    ("sim.oracle_ns_per_act", "ns"),
    ("sim.system_ns_per_cycle.baseline", "ns"),
    ("sim.system_ns_per_cycle.hydra", "ns"),
    ("sim.ipc_slowdown_pct", "%"),
    ("sim.window_resets", "count"),
    ("sim.avg_read_latency_cycles", "cycles"),
    ("sim.mitigation_acts", "count"),
    ("sim.side_acts", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.bus_busy_frac", "ratio"),
    ("engine.parallel_efficiency", "ratio"),
    ("engine.shard_imbalance", "ratio"),
    ("engine.merge_us", "us"),
    ("arena.adapter_ns_per_act", "ns"),
    ("server.apply_batch_us", "us"),
    ("server.wire_us", "us"),
    ("server.busy_retries", "count"),
    ("forensics.share", "ratio"),
    ("forensics.incidents_us", "us"),
    ("harness.op_tail_ms", "ms"),
    ("harness.ops", "count"),
    ("harness.failed_ops_frac", "ratio"),
    ("trace_overhead_pct", "%"),
];

/// Every per-layer metric with its unit: the fixed list plus two metrics
/// per arena tracker. A workload that does not exercise a layer reports 0
/// for that layer's metrics.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for name in hydra_arena::roster_names() {
        out.push((format!("arena.{name}.ns_per_act"), "ns"));
        out.push((format!("arena.{name}.unmitigated_frac"), "ratio"));
    }
    out
}

/// How large a run's inputs are. `Tiny` keeps every code path but shrinks
/// inputs so the benchmark's own tests finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// Test-sized inputs.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Measurement time, in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

impl RunConfig {
    /// The measurement phases: `(traced, seconds)`. A traced run spends
    /// its first half untraced and its second half traced, so the two can
    /// be compared (`trace_overhead_pct`); per-layer numbers come from
    /// the traced half.
    pub fn phases(&self) -> Vec<(bool, f64)> {
        if self.trace {
            vec![(false, self.seconds / 2.0), (true, self.seconds / 2.0)]
        } else {
            vec![(false, self.seconds)]
        }
    }
}

/// Setup repetitions whose median is `setup_s`.
pub const SETUP_REPS: usize = 11;

/// One watchdog cell's operation times and the work they did.
#[derive(Debug, Clone, Default)]
pub struct CellTiming {
    /// Duration of each operation, in seconds.
    pub op_s: Vec<f64>,
    /// Demand activations (acked rows) the operations processed.
    pub acts: u64,
    /// Simulated DRAM cycles the operations advanced.
    pub sim_cycles: u64,
    /// The time the cell's throughput is taken over.
    pub busy_s: f64,
}

impl CellTiming {
    /// A cell whose throughput is taken over the summed operation time:
    /// the rule for CPU-bound operations, where a scheduler stall is a
    /// small part of an operation.
    pub fn summed(op_s: Vec<f64>, acts: u64, sim_cycles: u64) -> Self {
        let busy_s = op_s.iter().sum();
        CellTiming {
            op_s,
            acts,
            sim_cycles,
            busy_s,
        }
    }
}

/// A run's measurements, checks and notes.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    values: BTreeMap<String, f64>,
    /// Operations attempted and failed.
    pub ledger: Ledger,
    /// Context lines printed before the result (reference values, sample
    /// counts, findings).
    pub notes: Vec<String>,
    /// Span summary of the traced run.
    pub spans: Vec<SpanSummary>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Report {
            workload,
            values: BTreeMap::new(),
            ledger: Ledger::default(),
            notes: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Records a metric value.
    ///
    /// # Panics
    ///
    /// Panics on a name in neither catalog: that is a bug in a workload.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalog"
        );
        self.values.insert(name.to_string(), value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Adds a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records `peak_rss_mb` once, after the first cell: later cells reuse
    /// the same inputs, but allocator arenas of their threads make the
    /// peak creep with the number of cells, i.e. with host speed.
    pub fn first_cell_done(&mut self) {
        if self.get("peak_rss_mb").is_none() {
            self.set("peak_rss_mb", harness::peak_rss_mb());
        }
    }

    /// Sets the host-time metrics from the timed cells. Throughputs are
    /// medians over cells of each cell's work over its busy time. The
    /// tail, `harness.op_tail_ms`, is the median over cells of each cell's
    /// tail (see [`stats::tail`]); it is printed on every run but is not
    /// an end-to-end metric, because on a shared host it follows the
    /// scheduler more than the program.
    pub fn set_timing(&mut self, cells: &[CellTiming], op: &str) {
        let per_cell = |f: &dyn Fn(&CellTiming) -> f64| -> f64 {
            stats::median(&cells.iter().map(f).collect::<Vec<_>>())
        };
        self.set("acts_per_s", per_cell(&|c| c.acts as f64 / c.busy_s));
        self.set(
            "sim_cycles_per_s",
            per_cell(&|c| c.sim_cycles as f64 / c.busy_s),
        );
        let all_ms: Vec<f64> = cells
            .iter()
            .flat_map(|c| c.op_s.iter().map(|s| s * 1e3))
            .collect();
        let p50 = stats::median(&all_ms);
        self.set("op_p50_ms", p50);
        let tails: Vec<(f64, u32)> = cells
            .iter()
            .map(|c| stats::tail(&c.op_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()))
            .collect();
        let tail = stats::median(&tails.iter().map(|t| t.0).collect::<Vec<_>>());
        self.set("harness.op_tail_ms", tail);
        let p = tails.first().map_or(100, |t| t.1);
        self.note(format!(
            "ops: {} {op} in {} cells; p50 {p50:.4} ms; tail {tail:.4} ms (median over cells of each cell's {})",
            all_ms.len(),
            cells.len(),
            if p == 100 { "slowest op".to_string() } else { format!("p{p}") }
        ));
    }

    /// Records the Fig. 6 breakdown of Hydra's activations and its group
    /// spill rate.
    pub fn set_path_shares(&mut self, s: &hydra_core::HydraStats) {
        let acts = s.activations.max(1) as f64;
        let gct = s.gct_only as f64 / acts;
        let rcc = s.rcc_hits as f64 / acts;
        let rct = s.rct_accesses as f64 / acts;
        self.set("core.gct_only_frac", gct);
        self.set("core.rcc_hit_frac", rcc);
        self.set("core.rct_frac", rct);
        self.set(
            "core.group_spills_per_kact",
            s.group_spills as f64 / acts * 1e3,
        );
        self.note(format!(
            "GCT-only / RCC-hit / RCT = {:.1} / {:.1} / {:.1} % of {} Hydra activations \
             (paper Fig. 6: 90.7 / 9.0 / 0.3 %)",
            gct * 100.0,
            rcc * 100.0,
            rct * 100.0,
            s.activations
        ));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.ledger.failed == 0
    }

    /// The metrics a run prints: end-to-end ones, or per-layer ones when
    /// traced. A missing end-to-end value is a failure; a per-layer metric
    /// the workload never set is 0 (layer not exercised). Non-finite
    /// values are failures too, printed as 0.
    pub fn finish(&mut self, trace: bool) -> Vec<(String, &'static str, f64)> {
        let ops = self.ledger.attempted;
        let share = stats::failure_share(self.ledger.failed, ops);
        self.set("harness.ops", ops as f64);
        self.set("harness.failed_ops_frac", share);
        let names: Vec<(String, &'static str)> = if trace {
            per_layer_catalog()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut out = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = match self.get(&name) {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    self.ledger
                        .fail(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None if trace => 0.0,
                None => {
                    self.ledger.fail(format!("metric {name} was not measured"));
                    0.0
                }
            };
            out.push((name, unit, value));
        }
        out
    }
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .or_else(|| {
            per_layer_catalog()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run(workload: &str, config: &RunConfig) -> Result<Report, String> {
    let mut report = match workload {
        "paper_ipc" => paper_ipc::run(config),
        "hydra_replay" => hydra_replay::run(config),
        "arena_race" => arena_race::run(config),
        "daemon_ingest" => daemon_ingest::run(config),
        other => {
            return Err(format!(
                "unknown workload '{other}' (one of: {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    report.note(format!(
        "peak RSS after the first cell {:.1} MB, at the end {:.1} MB",
        report.get("peak_rss_mb").unwrap_or(0.0),
        harness::peak_rss_mb()
    ));
    Ok(report)
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(report: &Report, metrics: &[(String, &'static str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.ledger.attempted.max(1),
        report.ledger.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer_catalog().into_iter().map(|(n, _)| n));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric names");
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(per_layer_catalog().len() <= 128);
    }

    #[test]
    fn missing_end_to_end_metric_fails_the_run() {
        let mut r = Report::new("paper_ipc");
        for (name, _) in END_TO_END.iter().skip(1) {
            r.set(name, 1.0);
        }
        let metrics = r.finish(false);
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(!r.correct());
        assert!(r.ledger.failures[0].contains("setup_s"));
    }

    #[test]
    fn result_json_has_the_four_keys() {
        let mut r = Report::new("paper_ipc");
        for (name, _) in END_TO_END {
            r.set(name, 0.5);
        }
        let metrics = r.finish(false);
        let line = result_json(&r, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
