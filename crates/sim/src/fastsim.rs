//! Activation-level simulator: the fast fidelity tier.
//!
//! Replays a raw stream of row activations through a tracker, expanding
//! mitigations (victim refreshes feed back as activations — the Half-Double
//! accounting) and charging side requests, without modeling queues or cycle
//! timing. Time advances `tRC` per activation, which drives window resets.
//!
//! The output is a *bandwidth inflation* factor — total DRAM operations per
//! demand activation — which is the first-order driver of slowdown for
//! memory-bound workloads and matches the full simulator's ordering of
//! designs at a fraction of the cost. Security experiments and parameter
//! sweeps use this tier.

use hydra_dram::DramTiming;
use hydra_types::addr::RowAddr;
use hydra_types::clock::MemCycle;
use hydra_types::geometry::MemGeometry;
use hydra_types::mitigation::BlastRadius;
use hydra_types::tracker::{ActivationKind, ActivationTracker};
use std::collections::VecDeque;

/// Counters produced by an [`ActivationSim`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivationSimReport {
    /// Demand activations replayed.
    pub demand_acts: u64,
    /// Victim-refresh activations performed.
    pub mitigation_acts: u64,
    /// Tracker metadata reads.
    pub side_reads: u64,
    /// Tracker metadata writes.
    pub side_writes: u64,
    /// Mitigation requests issued by the tracker.
    pub mitigations: u64,
    /// Tracking-window resets performed.
    pub window_resets: u64,
}

impl ActivationSimReport {
    /// Total DRAM operations charged.
    pub fn total_ops(&self) -> u64 {
        self.demand_acts + self.mitigation_acts + self.side_reads + self.side_writes
    }

    /// DRAM operations per demand activation (1.0 = no overhead).
    pub fn bandwidth_inflation(&self) -> f64 {
        if self.demand_acts == 0 {
            1.0
        } else {
            self.total_ops() as f64 / self.demand_acts as f64
        }
    }

    /// Simulated slowdown proxy: extra DRAM operations per demand
    /// activation, as a percentage (0.0 for an empty run).
    pub fn slowdown_pct(&self) -> f64 {
        (self.bandwidth_inflation() - 1.0) * 100.0
    }

    /// Exact slowdown comparison: is `self` strictly slower than `other`?
    /// Cross-multiplied integer ratios, so the answer never depends on
    /// floating-point rounding.
    pub fn slower_than(&self, other: &ActivationSimReport) -> bool {
        let ops = |r: &ActivationSimReport| u128::from(r.total_ops());
        let acts = |r: &ActivationSimReport| u128::from(r.demand_acts.max(1));
        ops(self) * acts(other) > ops(other) * acts(self)
    }

    /// Merges another shard's report into `self` (counter-wise sum).
    ///
    /// Commutative and associative, so per-channel shard reports can be
    /// combined in any order — the deterministic-merge property the
    /// `hydra-engine` sharded simulator relies on. Derived quantities
    /// ([`total_ops`](Self::total_ops),
    /// [`bandwidth_inflation`](Self::bandwidth_inflation)) are computed from
    /// the summed counters, never merged themselves.
    pub fn merge(&mut self, other: &ActivationSimReport) {
        self.demand_acts += other.demand_acts;
        self.mitigation_acts += other.mitigation_acts;
        self.side_reads += other.side_reads;
        self.side_writes += other.side_writes;
        self.mitigations += other.mitigations;
        self.window_resets += other.window_resets;
    }
}

/// The activation-level simulator.
///
/// # Example
///
/// ```
/// use hydra_sim::ActivationSim;
/// use hydra_core::Hydra;
/// use hydra_types::{MemGeometry, RowAddr};
///
/// let geom = MemGeometry::tiny();
/// let hydra = Hydra::isca22_default(geom, 0)?;
/// let mut sim = ActivationSim::new(geom, hydra);
/// let row = RowAddr::new(0, 0, 0, 7);
/// let report = sim.run(std::iter::repeat_n(row, 5000));
/// assert!(report.mitigations > 0);
/// # Ok::<(), hydra_types::ConfigError>(())
/// ```
pub struct ActivationSim<T> {
    geometry: MemGeometry,
    tracker: T,
    timing: DramTiming,
    blast: BlastRadius,
    cycles_per_act: MemCycle,
    now: MemCycle,
    next_reset: MemCycle,
    report: ActivationSimReport,
    /// Rows mitigated since the last [`Self::drain_mitigated`] call.
    mitigated_log: Vec<RowAddr>,
}

impl<T: ActivationTracker> ActivationSim<T> {
    /// Creates a simulator with default timing and blast radius 2.
    pub fn new(geometry: MemGeometry, tracker: T) -> Self {
        let timing = DramTiming::ddr4_3200();
        ActivationSim {
            geometry,
            tracker,
            next_reset: timing.refresh_window,
            timing,
            blast: BlastRadius::HALF_DOUBLE_SAFE,
            cycles_per_act: timing.trc,
            now: 0,
            report: ActivationSimReport::default(),
            mitigated_log: Vec::new(),
        }
    }

    /// Overrides the DRAM timing (e.g. a scaled window).
    pub fn with_timing(mut self, timing: DramTiming) -> Self {
        self.next_reset = self.now + timing.refresh_window;
        self.cycles_per_act = timing.trc;
        self.timing = timing;
        self
    }

    /// Overrides the simulated time per demand activation. The default (tRC)
    /// models a single bank hammered flat out; realistic multi-bank
    /// workloads average far fewer activations per cycle, so experiments
    /// calibrating to a target activations-per-window rate set this to
    /// `window / target_acts` (e.g. `fig6_access_breakdown`).
    pub fn with_cycles_per_activation(mut self, cycles: MemCycle) -> Self {
        self.cycles_per_act = cycles.max(1);
        self
    }

    /// Overrides the blast radius.
    pub fn with_blast_radius(mut self, blast: BlastRadius) -> Self {
        self.blast = blast;
        self
    }

    /// The tracker under test.
    pub fn tracker(&self) -> &T {
        &self.tracker
    }

    /// Consumes the simulator, returning the tracker — e.g. to inspect a
    /// sanitizer's violation log after a run.
    pub fn into_tracker(self) -> T {
        self.tracker
    }

    /// The report so far.
    pub fn report(&self) -> ActivationSimReport {
        self.report
    }

    /// Current simulated time.
    pub fn now(&self) -> MemCycle {
        self.now
    }

    /// Drains the log of rows mitigated since the last call. Mitigations can
    /// fire for rows *other* than the one just activated (victim-refresh
    /// feedback can push a neighbouring aggressor over its threshold), so
    /// security audits must reset their oracles from this log, not from the
    /// activated row.
    pub fn drain_mitigated(&mut self) -> Vec<RowAddr> {
        std::mem::take(&mut self.mitigated_log)
    }

    /// Replays a stream of demand activations; returns the cumulative
    /// report.
    pub fn run<I: IntoIterator<Item = RowAddr>>(&mut self, rows: I) -> ActivationSimReport {
        for row in rows {
            self.activate(row);
        }
        self.report
    }

    /// Replays one demand activation, expanding all induced work.
    pub fn activate(&mut self, row: RowAddr) {
        self.activate_observed(row, |_, _| {});
    }

    /// Like [`Self::activate`], but invokes `on_window_reset(&tracker, now)`
    /// immediately after any window reset this activation triggers — i.e.
    /// at the exact window boundary, before the activation itself is
    /// processed. Window-snapshot instrumentation (`crate::metrics`) hangs
    /// off this hook so per-window deltas attribute every activation to the
    /// window it lands in.
    pub fn activate_observed<F>(&mut self, row: RowAddr, mut on_window_reset: F)
    where
        F: FnMut(&T, MemCycle),
    {
        self.now += self.cycles_per_act;
        if self.now >= self.next_reset {
            self.tracker.reset_window(self.now);
            self.report.window_resets += 1;
            self.next_reset += self.timing.refresh_window;
            on_window_reset(&self.tracker, self.now);
        }
        // Work queue: (row, kind). Mitigation victims append more entries.
        let mut work: VecDeque<(RowAddr, ActivationKind)> = VecDeque::new();
        work.push_back((row, ActivationKind::Demand));
        while let Some((r, kind)) = work.pop_front() {
            match kind {
                ActivationKind::Demand => self.report.demand_acts += 1,
                ActivationKind::MitigationRefresh => self.report.mitigation_acts += 1,
                ActivationKind::TrackerSide => {}
            }
            let response = self.tracker.on_activation(r, self.now, kind);
            self.report.mitigations += response.mitigations.len() as u64;
            for m in response.mitigations {
                self.mitigated_log.push(m.aggressor);
                for offset in self.blast.offsets() {
                    if let Some(victim) =
                        m.aggressor.neighbor(offset, self.geometry.rows_per_bank())
                    {
                        work.push_back((victim, ActivationKind::MitigationRefresh));
                    }
                }
            }
            for s in response.side_requests {
                match s.kind {
                    hydra_types::SideRequestKind::Read => self.report.side_reads += 1,
                    hydra_types::SideRequestKind::Write => self.report.side_writes += 1,
                }
                // Metadata accesses open their own DRAM row: report it to
                // the tracker (RIT-ACT sees counter-row activations).
                let side_response =
                    self.tracker
                        .on_activation(s.row, self.now, ActivationKind::TrackerSide);
                self.report.mitigations += side_response.mitigations.len() as u64;
                for m in side_response.mitigations {
                    self.mitigated_log.push(m.aggressor);
                    for offset in self.blast.offsets() {
                        if let Some(victim) =
                            m.aggressor.neighbor(offset, self.geometry.rows_per_bank())
                        {
                            work.push_back((victim, ActivationKind::MitigationRefresh));
                        }
                    }
                }
            }
        }
    }
}

impl<T: ActivationTracker> std::fmt::Debug for ActivationSim<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActivationSim")
            .field("tracker", &self.tracker.name())
            .field("now", &self.now)
            .field("report", &self.report)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_baselines::Ocpr;
    use hydra_core::{Hydra, HydraConfig};
    use hydra_types::tracker::NullTracker;

    fn tiny_hydra() -> Hydra {
        let geom = MemGeometry::tiny();
        let mut b = HydraConfig::builder(geom, 0);
        b.thresholds(16, 12).gct_entries(64).rcc_entries(32);
        Hydra::new(b.build().unwrap()).unwrap()
    }

    #[test]
    fn null_tracker_has_no_overhead() {
        let geom = MemGeometry::tiny();
        let mut sim = ActivationSim::new(geom, NullTracker);
        let report = sim.run((0..1000u32).map(|i| RowAddr::new(0, 0, 0, i % 64)));
        assert_eq!(report.demand_acts, 1000);
        assert_eq!(report.total_ops(), 1000);
        assert!((report.bandwidth_inflation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_comparison_is_exact_where_floats_tie() {
        let report = |demand_acts, side_reads| ActivationSimReport {
            demand_acts,
            side_reads,
            ..ActivationSimReport::default()
        };
        assert_eq!(ActivationSimReport::default().slowdown_pct(), 0.0);
        assert!((report(1000, 250).slowdown_pct() - 25.0).abs() < 1e-12);
        // 1/3 and 1/3 + 1e-17 round to the same f64; the ratios do not.
        let (a, b) = (report(3, 1), report(3 * 10u64.pow(17), 10u64.pow(17) + 1));
        assert_eq!(a.slowdown_pct(), b.slowdown_pct());
        assert!(b.slower_than(&a) && !a.slower_than(&b));
        assert!(!a.slower_than(&a));
    }

    #[test]
    fn hammering_produces_mitigation_overhead() {
        let geom = MemGeometry::tiny();
        let mut sim = ActivationSim::new(geom, tiny_hydra());
        let row = RowAddr::new(0, 0, 0, 100);
        let report = sim.run(std::iter::repeat_n(row, 1600));
        // Every 16 ACTs -> 1 mitigation -> 4 victim refreshes.
        assert!(
            report.mitigations >= 90,
            "mitigations {}",
            report.mitigations
        );
        assert!(report.mitigation_acts >= 4 * 90);
        assert!(report.bandwidth_inflation() > 1.2);
    }

    #[test]
    fn window_resets_follow_scaled_timing() {
        let geom = MemGeometry::tiny();
        let timing = DramTiming::ddr4_3200().with_scaled_window(100_000); // ~1024 cycles
        let mut sim = ActivationSim::new(geom, NullTracker).with_timing(timing);
        let acts = 10 * timing.refresh_window / timing.trc;
        let report = sim.run((0..acts).map(|i| RowAddr::new(0, 0, 0, (i % 100) as u32)));
        assert!(
            (9..=11).contains(&report.window_resets),
            "{}",
            report.window_resets
        );
    }

    #[test]
    fn ocpr_and_hydra_agree_on_mitigation_rate_for_hot_rows() {
        let geom = MemGeometry::tiny();
        let mut hydra_sim = ActivationSim::new(geom, tiny_hydra());
        let mut ocpr_sim = ActivationSim::new(geom, Ocpr::new(geom, 0, 16).unwrap());
        let rows: Vec<RowAddr> = (0..4000u32).map(|_| RowAddr::new(0, 0, 1, 7)).collect();
        let h = hydra_sim.run(rows.clone());
        let o = ocpr_sim.run(rows);
        // For a single sustained-hammer row, Hydra tracks exactly like the
        // oracle after the first window (±group warmup effects).
        let diff = (h.mitigations as f64 - o.mitigations as f64).abs();
        assert!(
            diff / (o.mitigations as f64) < 0.1,
            "hydra {} ocpr {}",
            h.mitigations,
            o.mitigations
        );
    }

    #[test]
    fn drain_mitigated_reports_feedback_mitigations() {
        // Double-sided at distance 2: mitigating one aggressor refreshes the
        // other, so mitigations fire for rows other than the activated one.
        let geom = MemGeometry::tiny();
        let mut sim = ActivationSim::new(geom, tiny_hydra());
        let a = RowAddr::new(0, 0, 0, 100);
        let b = RowAddr::new(0, 0, 0, 102);
        let mut mitigated_rows = std::collections::HashSet::new();
        for i in 0..2000u64 {
            sim.activate(if i.is_multiple_of(2) { a } else { b });
            for m in sim.drain_mitigated() {
                mitigated_rows.insert(m);
            }
        }
        assert!(mitigated_rows.contains(&a));
        assert!(mitigated_rows.contains(&b));
        // The log drains: a second call returns nothing new.
        assert!(sim.drain_mitigated().is_empty());
    }

    #[test]
    fn side_traffic_is_charged() {
        // Hydra-NoRCC: every per-row access is a DRAM read-modify-write.
        let geom = MemGeometry::tiny();
        let mut b = HydraConfig::builder(geom, 0);
        b.thresholds(16, 12)
            .gct_entries(64)
            .rcc_entries(32)
            .without_rcc();
        let hydra = Hydra::new(b.build().unwrap()).unwrap();
        let mut sim = ActivationSim::new(geom, hydra);
        let report = sim.run(std::iter::repeat_n(RowAddr::new(0, 0, 0, 9), 200));
        assert!(report.side_reads > 100);
        assert!(report.side_writes > 100);
        assert!(report.bandwidth_inflation() > 1.5);
    }
}
