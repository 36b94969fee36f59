//! Per-window metrics: `HydraStats` deltas and latency percentiles as a
//! time-series.
//!
//! The paper's per-window quantities (mitigations per 64 ms window, the
//! Fig. 6 path breakdown *over time*, spill bursts after each reset) are
//! invisible in cumulative counters. A [`WindowSeries`] snapshots a
//! tracker's cumulative [`HydraStats`] at every window boundary and stores
//! the per-window *delta*; [`run_windowed`] drives an
//! [`ActivationSim`] with the snapshot hook attached.
//!
//! The defining invariant — proven by proptest in
//! `tests/window_metrics.rs` — is that the deltas sum exactly to the final
//! cumulative stats: nothing is dropped at a boundary, nothing counted
//! twice.
//!
//! Export through [`WindowSeries::to_registry`] (then JSONL/CSV via
//! [`MetricsRegistry`]), or the [`WindowSeries::to_jsonl`] /
//! [`WindowSeries::to_csv`] shorthands.

use crate::fastsim::{ActivationSim, ActivationSimReport};
use hydra_core::{Hydra, HydraStats, RctBackend};
use hydra_profiler::{phase, SpanSink};
use hydra_telemetry::LatencyHistogram;
use hydra_telemetry::{EventSink, MetricsRegistry, MetricsRow};
use hydra_types::clock::MemCycle;
use hydra_types::tracker::ActivationTracker;
use hydra_types::RowAddr;

/// A tracker that can report cumulative [`HydraStats`].
///
/// Implemented for [`Hydra`] with any RCT backend and probe; wrappers
/// (sanitizers, fault injectors) can forward to their inner tracker.
pub trait StatsSource {
    /// The cumulative counters so far.
    fn cumulative_stats(&self) -> HydraStats;
}

impl<R: RctBackend, P: EventSink, S: SpanSink> StatsSource for Hydra<R, P, S> {
    fn cumulative_stats(&self) -> HydraStats {
        self.stats()
    }
}

/// Latency percentiles condensed from a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of recorded values.
    pub count: u64,
    /// Mean latency in cycles.
    pub mean: f64,
    /// Median (bucket upper bound, clamped to max).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Exact maximum.
    pub max: u64,
}

impl LatencySummary {
    /// Condenses a histogram into the summary percentiles.
    pub fn from_histogram(h: &LatencyHistogram) -> Self {
        LatencySummary {
            count: h.count(),
            mean: h.mean(),
            p50: h.percentile(0.50),
            p95: h.percentile(0.95),
            p99: h.percentile(0.99),
            max: h.max(),
        }
    }
}

/// One window's worth of activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRecord {
    /// Window index (0-based; the final record may cover a partial window).
    pub window: u64,
    /// Simulated cycle at which the window closed (or the run ended).
    pub end_cycle: MemCycle,
    /// Counter deltas accumulated during this window.
    pub delta: HydraStats,
    /// Optional latency percentiles for this window.
    pub latency: Option<LatencySummary>,
}

/// An append-only series of per-window [`HydraStats`] deltas.
#[derive(Debug, Clone, Default)]
pub struct WindowSeries {
    records: Vec<WindowRecord>,
    last: HydraStats,
}

impl WindowSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the window that just closed: `cumulative` is the tracker's
    /// counters *at the boundary*; the stored delta is everything since the
    /// previous snapshot.
    pub fn snapshot(&mut self, now: MemCycle, cumulative: HydraStats) {
        self.snapshot_inner(now, cumulative, None);
    }

    /// Like [`Self::snapshot`], with latency percentiles for the window.
    pub fn snapshot_with_latency(
        &mut self,
        now: MemCycle,
        cumulative: HydraStats,
        latency: &LatencyHistogram,
    ) {
        self.snapshot_inner(
            now,
            cumulative,
            Some(LatencySummary::from_histogram(latency)),
        );
    }

    /// Closes the series at end of run, recording the tail partial window.
    /// After this, [`Self::total`] equals `cumulative` exactly. A tail with
    /// no activity is skipped (unless the series would otherwise be empty).
    pub fn finish(&mut self, now: MemCycle, cumulative: HydraStats) {
        let tail = cumulative.delta_since(&self.last);
        if tail != HydraStats::default() || self.records.is_empty() {
            self.snapshot_inner(now, cumulative, None);
        }
    }

    fn snapshot_inner(
        &mut self,
        now: MemCycle,
        cumulative: HydraStats,
        latency: Option<LatencySummary>,
    ) {
        let delta = cumulative.delta_since(&self.last);
        self.last = cumulative;
        self.records.push(WindowRecord {
            window: self.records.len() as u64,
            end_cycle: now,
            delta,
            latency,
        });
    }

    /// The recorded windows in order.
    pub fn records(&self) -> &[WindowRecord] {
        &self.records
    }

    /// Number of recorded windows.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The counter-wise sum of all recorded deltas. After
    /// [`Self::finish`], equals the tracker's final cumulative stats.
    pub fn total(&self) -> HydraStats {
        let mut total = HydraStats::default();
        for r in &self.records {
            total.accumulate(&r.delta);
        }
        total
    }

    /// Converts the series into a [`MetricsRegistry`] (one row per window:
    /// `window`, `end_cycle`, every `HydraStats` counter delta, and latency
    /// percentiles when recorded).
    pub fn to_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for r in &self.records {
            let mut row = MetricsRow::new()
                .with("window", r.window)
                .with("end_cycle", r.end_cycle);
            for (name, value) in r.delta.fields() {
                row.push(name, value);
            }
            if let Some(lat) = r.latency {
                row.push("lat_count", lat.count);
                row.push("lat_mean", lat.mean);
                row.push("lat_p50", lat.p50);
                row.push("lat_p95", lat.p95);
                row.push("lat_p99", lat.p99);
                row.push("lat_max", lat.max);
            }
            reg.push(row);
        }
        reg
    }

    /// JSONL export: one JSON object per window.
    pub fn to_jsonl(&self) -> String {
        self.to_registry().to_jsonl()
    }

    /// CSV export with a header row.
    pub fn to_csv(&self) -> String {
        self.to_registry().to_csv()
    }
}

/// Replays `rows` through `sim`, snapshotting `series` at every window
/// boundary and at end of run. Returns the simulator's cumulative report.
///
/// The snapshot fires *inside* the boundary — after the tracker's
/// `reset_window`, before the boundary activation is processed — so each
/// activation lands in the window it belongs to and
/// [`WindowSeries::total`] matches the tracker's cumulative stats exactly.
pub fn run_windowed<T, I>(
    sim: &mut ActivationSim<T>,
    rows: I,
    series: &mut WindowSeries,
) -> ActivationSimReport
where
    T: ActivationTracker + StatsSource,
    I: IntoIterator<Item = RowAddr>,
{
    for row in rows {
        sim.activate_observed(row, |tracker, now| {
            series.snapshot(now, tracker.cumulative_stats());
        });
    }
    series.finish(sim.now(), sim.tracker().cumulative_stats());
    sim.report()
}

/// [`run_windowed`] with driver-side span instrumentation: the whole
/// replay is bracketed in a `sim` span on `spans`, and each window-boundary
/// snapshot in a `window_snapshot` span.
///
/// Hand the *same* profiler (e.g. clones of one
/// `hydra_profiler::TreeProfiler`, which share a span stack) to the tracker
/// and to `spans`: the tracker's `activate`/`window_reset` spans then nest
/// under the driver's `sim` root, giving the `hydra profile` harness one
/// connected call tree per worker.
pub fn run_windowed_profiled<T, I, S>(
    sim: &mut ActivationSim<T>,
    rows: I,
    series: &mut WindowSeries,
    spans: &mut S,
) -> ActivationSimReport
where
    T: ActivationTracker + StatsSource,
    I: IntoIterator<Item = RowAddr>,
    S: SpanSink,
{
    spans.enter(phase::SIM);
    for row in rows {
        sim.activate_observed(row, |tracker, now| {
            spans.enter(phase::WINDOW_SNAPSHOT);
            series.snapshot(now, tracker.cumulative_stats());
            spans.exit(phase::WINDOW_SNAPSHOT);
        });
    }
    spans.enter(phase::WINDOW_SNAPSHOT);
    series.finish(sim.now(), sim.tracker().cumulative_stats());
    spans.exit(phase::WINDOW_SNAPSHOT);
    spans.exit(phase::SIM);
    sim.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::HydraConfig;
    use hydra_dram::DramTiming;
    use hydra_types::MemGeometry;

    fn tiny_hydra() -> Hydra {
        let geom = MemGeometry::tiny();
        let mut b = HydraConfig::builder(geom, 0);
        b.thresholds(16, 12).gct_entries(64).rcc_entries(32);
        Hydra::new(b.build().expect("config")).expect("hydra")
    }

    fn hammer_rows(n: u64) -> impl Iterator<Item = RowAddr> {
        (0..n).map(|i| RowAddr::new(0, 0, 0, (i % 24) as u32))
    }

    #[test]
    fn deltas_sum_to_cumulative_on_a_real_run() {
        let timing = DramTiming::ddr4_3200().with_scaled_window(100_000);
        let mut sim = ActivationSim::new(MemGeometry::tiny(), tiny_hydra()).with_timing(timing);
        let mut series = WindowSeries::new();
        let report = run_windowed(&mut sim, hammer_rows(5_000), &mut series);
        assert!(report.window_resets > 2, "need multiple windows");
        assert_eq!(series.len() as u64, report.window_resets + 1, "tail record");
        assert_eq!(series.total(), sim.tracker().stats());
        // Window-reset deltas: each full window carries exactly one reset.
        for r in &series.records()[..series.len() - 1] {
            assert_eq!(r.delta.window_resets, 1, "window {}", r.window);
        }
    }

    #[test]
    fn empty_run_finishes_with_one_empty_record() {
        let mut sim = ActivationSim::new(MemGeometry::tiny(), tiny_hydra());
        let mut series = WindowSeries::new();
        run_windowed(&mut sim, std::iter::empty(), &mut series);
        assert_eq!(series.len(), 1);
        assert_eq!(series.total(), HydraStats::default());
    }

    #[test]
    fn registry_export_has_one_row_per_window_with_stat_columns() {
        let timing = DramTiming::ddr4_3200().with_scaled_window(100_000);
        let mut sim = ActivationSim::new(MemGeometry::tiny(), tiny_hydra()).with_timing(timing);
        let mut series = WindowSeries::new();
        run_windowed(&mut sim, hammer_rows(3_000), &mut series);
        let reg = series.to_registry();
        assert_eq!(reg.len(), series.len());
        let cols = reg.columns();
        assert_eq!(cols[0], "window");
        assert_eq!(cols[1], "end_cycle");
        for name in HydraStats::FIELD_NAMES {
            assert!(cols.contains(&name), "missing column {name}");
        }
        let jsonl = series.to_jsonl();
        assert_eq!(jsonl.lines().count(), series.len());
        let csv = series.to_csv();
        assert_eq!(csv.lines().count(), series.len() + 1);
    }

    #[test]
    fn profiled_run_matches_unprofiled_and_yields_a_connected_tree() {
        use hydra_profiler::TreeProfiler;
        let timing = DramTiming::ddr4_3200().with_scaled_window(100_000);

        let mut plain = ActivationSim::new(MemGeometry::tiny(), tiny_hydra()).with_timing(timing);
        let mut plain_series = WindowSeries::new();
        let plain_report = run_windowed(&mut plain, hammer_rows(5_000), &mut plain_series);

        let profiler = TreeProfiler::new();
        let geom = MemGeometry::tiny();
        let mut b = HydraConfig::builder(geom, 0);
        b.thresholds(16, 12).gct_entries(64).rcc_entries(32);
        let tracker =
            Hydra::with_spans(b.build().expect("config"), profiler.clone()).expect("hydra");
        let mut profiled = ActivationSim::new(geom, tracker).with_timing(timing);
        let mut series = WindowSeries::new();
        let mut driver = profiler.clone();
        let report =
            run_windowed_profiled(&mut profiled, hammer_rows(5_000), &mut series, &mut driver);

        // Instrumentation changes nothing the simulation can observe.
        assert_eq!(report, plain_report);
        assert_eq!(series.total(), plain_series.total());

        // One connected call tree: the tracker's spans nest under `sim`.
        assert_eq!(profiler.open_depth(), 0);
        assert_eq!(profiler.unbalanced_exits(), 0);
        let tree = profiler.tree();
        let roots: Vec<&str> = tree.roots.keys().map(String::as_str).collect();
        assert_eq!(roots, vec!["sim"]);
        let sim_node = &tree.roots["sim"];
        assert_eq!(sim_node.count, 1);
        assert!(sim_node.children.contains_key("activate"));
        assert!(sim_node.children.contains_key("window_reset"));
        assert!(sim_node.children.contains_key("window_snapshot"));
        // Every activation the sim fed the tracker — demand, victim
        // refresh, and tracker-side metadata row opens — opened exactly one
        // `activate` span.
        assert_eq!(sim_node.children["activate"].count, report.total_ops());
        tree.check_conservation(0.0).expect("conservation");
    }

    #[test]
    fn latency_snapshots_carry_percentiles() {
        let mut series = WindowSeries::new();
        let mut hist = LatencyHistogram::new();
        for v in [10u64, 20, 30, 400] {
            hist.record(v);
        }
        let stats = HydraStats {
            activations: 4,
            gct_only: 4,
            ..Default::default()
        };
        series.snapshot_with_latency(1_000, stats, &hist);
        let rec = &series.records()[0];
        let lat = rec.latency.expect("latency recorded");
        assert_eq!(lat.count, 4);
        assert_eq!(lat.max, 400);
        assert_eq!(lat.p99, 400.0);
        let cols = series.to_registry().columns();
        assert!(cols.contains(&"lat_p99"));
    }
}
