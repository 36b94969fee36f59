//! Per-window metrics: `HydraStats` deltas as a time-series.
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
//! [`WindowSeries::to_jsonl`] exports the series, one JSON object per
//! window.

use crate::fastsim::{ActivationSim, ActivationSimReport};
use hydra_core::{Hydra, HydraStats, RowCountTable};
use hydra_telemetry::EventSink;
use hydra_types::clock::MemCycle;
use hydra_types::tracker::ActivationTracker;
use hydra_types::RowAddr;
use std::fmt::Write as _;

/// A tracker that can report cumulative [`HydraStats`].
///
/// Implemented for [`Hydra`] with any probe; wrappers (sanitizers) can
/// forward to their inner tracker.
pub trait StatsSource {
    /// The cumulative counters so far.
    fn cumulative_stats(&self) -> HydraStats;
}

impl<P: EventSink> StatsSource for Hydra<RowCountTable, P> {
    fn cumulative_stats(&self) -> HydraStats {
        self.stats()
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
        let delta = cumulative.delta_since(&self.last);
        self.last = cumulative;
        self.records.push(WindowRecord {
            window: self.records.len() as u64,
            end_cycle: now,
            delta,
        });
    }

    /// Closes the series at end of run, recording the tail partial window.
    /// After this, [`Self::total`] equals `cumulative` exactly. A tail with
    /// no activity is skipped (unless the series would otherwise be empty).
    pub fn finish(&mut self, now: MemCycle, cumulative: HydraStats) {
        let tail = cumulative.delta_since(&self.last);
        if tail != HydraStats::default() || self.records.is_empty() {
            self.snapshot(now, cumulative);
        }
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

    /// JSONL export: one JSON object per window, `window`, `end_cycle`
    /// and then every [`HydraStats`] counter delta.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let _ = write!(
                out,
                "{{\"window\":{},\"end_cycle\":{}",
                r.window, r.end_cycle
            );
            for (name, value) in r.delta.fields() {
                let _ = write!(out, ",\"{name}\":{value}");
            }
            out.push_str("}\n");
        }
        out
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
    fn jsonl_export_has_one_object_per_window_with_stat_fields() {
        let timing = DramTiming::ddr4_3200().with_scaled_window(100_000);
        let mut sim = ActivationSim::new(MemGeometry::tiny(), tiny_hydra()).with_timing(timing);
        let mut series = WindowSeries::new();
        run_windowed(&mut sim, hammer_rows(3_000), &mut series);
        let jsonl = series.to_jsonl();
        assert_eq!(jsonl.lines().count(), series.len());
        for (line, r) in jsonl.lines().zip(series.records()) {
            let start = format!("{{\"window\":{},\"end_cycle\":{},", r.window, r.end_cycle);
            assert!(line.starts_with(&start), "{line}");
            for name in HydraStats::FIELD_NAMES {
                assert!(
                    line.contains(&format!(",\"{name}\":")),
                    "missing field {name}"
                );
            }
        }
    }
}
