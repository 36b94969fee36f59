//! The experiment core behind both grid front ends: [`crate::sweep`]
//! (`hydra sweep`, Hydra's own design space) and [`crate::leaderboard`]
//! (`hydra sweep --arena`, the cross-tracker race).
//!
//! A front end owns its grid, cell, row, JSON bodies and gate. This module
//! owns what they share, once: geometry, axis and workload validation; the
//! channel-0 activation stream every cell replays, under a refresh window
//! compressed by [`WINDOW_SCALE`]; the batch run and its failure
//! collection; the [`Outcome`] and its JSONL framing; and the Pareto
//! frontier with exact slowdown comparison.
//!
//! Determinism contract: a cell's result depends only on the cell — never
//! on worker count, scheduling, or sibling cells — and rows come back in
//! grid order. `--jobs 4` therefore produces byte-identical output to
//! `--jobs 1` once the one nondeterministic field (`wall_secs`, emitted
//! last on each cell line) is dropped; [`Outcome::deterministic_lines`] is
//! that projection, and CI diffs it across job counts.

use hydra_dram::DramTiming;
use hydra_sim::batch::{BatchConfig, BatchJob, BatchRunner, JobStatus};
use hydra_sim::{ActivationSim, ActivationSimReport};
use hydra_types::addr::RowAddr;
use hydra_types::deadline::Stopwatch;
use hydra_types::error::ConfigError;
use hydra_types::geometry::MemGeometry;
use hydra_types::json::{escape_into, quote};
use hydra_types::tracker::ActivationTracker;
use hydra_workloads::attacks::AttackPattern;
use hydra_workloads::registry;
use hydra_workloads::TraceSource as _;
use std::fmt::{self, Write as _};

/// Refresh-window compression applied to every cell, matching the bench
/// harness: a short run still crosses many tracking windows.
pub(crate) const WINDOW_SCALE: u64 = 1000;

/// A grid front end: the lines that frame its cell rows.
pub trait Experiment: Clone {
    /// The row one cell reduces to.
    type Row: Row;
    /// The `meta` line: the schema tag and the grid's axes.
    fn meta_line(&self) -> String;
    /// The `summary` line: cell counts, Pareto frontier and the gate.
    fn summary_line(outcome: &Outcome<Self>) -> String;
}

/// One cell's result row.
pub trait Row: Clone + fmt::Debug + Send + 'static {
    /// The `cell` line without `wall_secs` and without its closing brace.
    fn json_body(&self) -> String;
    /// Wall-clock seconds for the cell: the one nondeterministic field.
    fn wall_secs(&self) -> f64;
}

/// The result of a whole grid run.
#[derive(Debug, Clone)]
pub struct Outcome<G: Experiment> {
    /// The grid that produced it.
    pub grid: G,
    /// Completed rows, in grid order.
    pub rows: Vec<G::Row>,
    /// Labels and errors of cells that failed terminally.
    pub failures: Vec<String>,
}

impl<G: Experiment> Outcome<G> {
    /// The complete report: a meta line, one line per completed cell (in
    /// grid order, `wall_secs` last), and a summary line.
    pub fn jsonl_lines(&self) -> Vec<String> {
        self.lines(true)
    }

    /// The deterministic projection used by the `--jobs` equivalence gate:
    /// every line of [`jsonl_lines`](Self::jsonl_lines) except that cell
    /// rows drop `wall_secs`.
    pub fn deterministic_lines(&self) -> Vec<String> {
        self.lines(false)
    }

    fn lines(&self, wall_secs: bool) -> Vec<String> {
        let cells = self.rows.iter().map(|row| {
            let mut line = row.json_body();
            if wall_secs {
                let _ = write!(line, ",\"wall_secs\":{:.6}", row.wall_secs());
            }
            line.push('}');
            line
        });
        std::iter::once(self.grid.meta_line())
            .chain(cells)
            .chain(std::iter::once(G::summary_line(self)))
            .collect()
    }

    /// Opens the summary line: schema, kind, and the cell and failure
    /// counts.
    pub(crate) fn summary_start(&self, schema: &str) -> String {
        let mut out = line_start(schema, "summary");
        let _ = write!(
            out,
            ",\"cells\":{},\"failed\":{}",
            self.rows.len() + self.failures.len(),
            self.failures.len(),
        );
        out
    }
}

/// Runs `cells` through the batch harness with the given policy
/// (`batch.jobs` controls parallelism). Rows come back in grid order
/// regardless of completion order; a cell that fails terminally lands in
/// [`Outcome::failures`] instead.
pub(crate) fn run<G, C>(grid: &G, cells: Vec<C>, batch: BatchConfig) -> Outcome<G>
where
    G: Experiment,
    C: BatchJob<Output = G::Row>,
{
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for job in BatchRunner::new(batch).run(cells).jobs {
        match (job.status, job.output) {
            (JobStatus::Succeeded { .. }, Some(row)) => rows.push(row),
            (JobStatus::Failed { last_error, .. }, _) => {
                failures.push(format!("{}: {last_error}", job.label));
            }
            (JobStatus::TimedOut { .. }, _) => {
                failures.push(format!("{}: watchdog timeout", job.label));
            }
            (JobStatus::Succeeded { .. }, None) => {
                failures.push(format!("{}: succeeded without output", job.label));
            }
        }
    }
    Outcome {
        grid: grid.clone(),
        rows,
        failures,
    }
}

/// Resolves a grid's geometry name, then rejects an empty axis (`kind`
/// names the grid in the error).
pub(crate) fn check_grid(
    geometry: &str,
    kind: &str,
    axes: &[(&str, usize)],
) -> Result<MemGeometry, ConfigError> {
    let resolved = MemGeometry::by_name(geometry)
        .ok_or_else(|| ConfigError::new(format!("unknown geometry {geometry}")))?;
    match axes.iter().find(|(_, len)| *len == 0) {
        Some((name, _)) => Err(ConfigError::new(format!("empty {kind} axis {name}"))),
        None => Ok(resolved),
    }
}

/// Rejects a workload name that is neither a registry workload nor a
/// canonical attack pattern.
pub(crate) fn check_workload(workload: &str, geometry: MemGeometry) -> Result<(), ConfigError> {
    if registry::by_name(workload).is_none()
        && AttackPattern::canonical(workload, geometry).is_none()
    {
        return Err(ConfigError::new(format!("unknown workload {workload}")));
    }
    Ok(())
}

/// The DRAM timing every cell replays under: DDR4-3200 with its refresh
/// window compressed by [`WINDOW_SCALE`].
pub(crate) fn timing() -> DramTiming {
    DramTiming::ddr4_3200().with_scaled_window(WINDOW_SCALE)
}

/// The cell's activation stream, pinned to channel 0 (a cell routes its
/// whole stream to one tracker instance, like the bench matrix): a
/// registry workload's trace mapped to rows, or a canonical attack
/// pattern.
fn rows(
    geometry: MemGeometry,
    workload: &str,
    acts: u64,
    seed: u64,
) -> Result<Vec<RowAddr>, String> {
    let on_channel_0 = |mut row: RowAddr| {
        row.channel = 0;
        row
    };
    if let Some(spec) = registry::by_name(workload) {
        let mut trace = spec.build(geometry, 256, seed);
        return Ok((0..acts)
            .map(|_| on_channel_0(geometry.row_of_line(trace.next_op().addr)))
            .collect());
    }
    let pattern = AttackPattern::canonical(workload, geometry)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    let mut rows = pattern.rows(geometry);
    Ok((0..acts).map(|_| on_channel_0(rows.next_row())).collect())
}

/// Replays `acts` activations of `workload` through `tracker` under
/// [`timing`], returning the tracker, the simulator's counters and the
/// replay's wall-clock seconds.
///
/// # Errors
///
/// Returns a description if the workload name resolves to nothing.
pub(crate) fn replay<T: ActivationTracker>(
    tracker: T,
    geometry: MemGeometry,
    workload: &str,
    acts: u64,
    seed: u64,
) -> Result<(T, ActivationSimReport, f64), String> {
    let mut sim = ActivationSim::new(geometry, tracker).with_timing(timing());
    let rows = rows(geometry, workload, acts, seed)?;
    let start = Stopwatch::start();
    let report = sim.run(rows);
    let wall_secs = start.elapsed_nanos() as f64 / 1e9;
    Ok((sim.into_tracker(), report, wall_secs))
}

/// Indices of the rows not dominated on the caller's axes, ascending.
/// `axes` maps a row to its simulator counters (compared by exact
/// slowdown) and its integer axes; every axis is minimized. Row `a`
/// dominates row `b` when it is no worse on every axis and strictly better
/// on at least one.
pub(crate) fn pareto<R, const N: usize>(
    rows: &[R],
    axes: impl Fn(&R) -> (&ActivationSimReport, [u64; N]),
) -> Vec<usize> {
    let dominates = |a: &R, b: &R| {
        let ((a_sim, a_axes), (b_sim, b_axes)) = (axes(a), axes(b));
        let pairs = || a_axes.iter().zip(&b_axes);
        let no_worse = pairs().all(|(x, y)| x <= y) && !a_sim.slower_than(b_sim);
        let better = pairs().any(|(x, y)| x < y) || b_sim.slower_than(a_sim);
        no_worse && better
    };
    (0..rows.len())
        .filter(|&i| !rows.iter().any(|other| dominates(other, &rows[i])))
        .collect()
}

/// Opens a JSONL line: `{"schema":"<schema>","kind":"<kind>"`.
pub(crate) fn line_start(schema: &str, kind: &str) -> String {
    let mut out = String::with_capacity(512);
    let _ = write!(out, "{{\"schema\":\"{schema}\",\"kind\":\"{kind}\"");
    out
}

/// Appends `,"<key>":"<value>"` with the value escaped.
pub(crate) fn push_str_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, ",\"{key}\":\"");
    escape_into(value, out);
    out.push('"');
}

/// Appends `,"<key>":[...]` with one element per item, each written by
/// `write_item`.
pub(crate) fn push_array<T>(
    out: &mut String,
    key: &str,
    items: impl IntoIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T),
) {
    let _ = write!(out, ",\"{key}\":[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_item(out, item);
    }
    out.push(']');
}

/// Appends `,"<key>":["<name>",...]` with every name escaped.
pub(crate) fn push_names(out: &mut String, key: &str, names: &[String]) {
    push_array(out, key, names, |out, name| out.push_str(&quote(name)));
}

/// Appends the simulator's six counters, in report order.
pub(crate) fn push_counters(out: &mut String, report: &ActivationSimReport) {
    let _ = write!(
        out,
        concat!(
            ",\"demand_acts\":{},\"mitigation_acts\":{},\"side_reads\":{},",
            "\"side_writes\":{},\"mitigations\":{},\"window_resets\":{}"
        ),
        report.demand_acts,
        report.mitigation_acts,
        report.side_reads,
        report.side_writes,
        report.mitigations,
        report.window_resets,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pinned_to_channel_0_and_sized_by_acts() {
        let geometry = MemGeometry::tiny_with_channels(2).expect("two channels");
        for workload in ["gups", "double_sided"] {
            let stream = rows(geometry, workload, 500, 42).expect("known workload");
            assert_eq!(stream.len(), 500);
            assert!(stream.iter().all(|r| r.channel == 0), "{workload}");
        }
        assert!(rows(geometry, "no-such-workload", 10, 42).is_err());
    }

    #[test]
    fn json_helpers_escape_and_frame() {
        let mut out = line_start("schema-x", "meta");
        push_str_field(&mut out, "name", "a\"b");
        push_names(&mut out, "list", &["x".to_string(), "y\\".to_string()]);
        push_array(&mut out, "empty", Vec::<u8>::new(), |_, _| {});
        assert_eq!(
            out,
            r#"{"schema":"schema-x","kind":"meta","name":"a\"b","list":["x","y\\"],"empty":[]"#
        );
    }
}
