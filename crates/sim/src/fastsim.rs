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
use hydra_types::mitigation::{BlastRadius, MitigationRequest};
use hydra_types::tracker::{ActivationKind, ActivationTracker, SideRequestKind};
use std::collections::VecDeque;

/// Rows refreshed on each side of a mitigated aggressor: the paper's
/// Half-Double-safe radius of 2.
const BLAST: BlastRadius = BlastRadius::HALF_DOUBLE_SAFE;

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
    cycles_per_act: MemCycle,
    now: MemCycle,
    next_reset: MemCycle,
    report: ActivationSimReport,
    /// Rows mitigated since the last [`Self::drain_mitigated`] call.
    mitigated_log: Vec<RowAddr>,
    /// Victim refreshes still to replay, FIFO; empty between activations.
    victims: VecDeque<RowAddr>,
}

impl<T: ActivationTracker> ActivationSim<T> {
    /// Creates a simulator with default timing.
    pub fn new(geometry: MemGeometry, tracker: T) -> Self {
        let timing = DramTiming::ddr4_3200();
        ActivationSim {
            geometry,
            tracker,
            next_reset: timing.refresh_window,
            timing,
            cycles_per_act: timing.trc,
            now: 0,
            report: ActivationSimReport::default(),
            mitigated_log: Vec::new(),
            victims: VecDeque::new(),
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
        self.report.demand_acts += 1;
        let mut response = self
            .tracker
            .on_activation(row, self.now, ActivationKind::Demand);
        if response.is_empty() {
            return;
        }
        // Mitigations, then side requests; RIT-ACT sees each metadata ACT at once.
        loop {
            self.queue_victims(response.mitigations);
            for s in response.side_requests {
                match s.kind {
                    SideRequestKind::Read => self.report.side_reads += 1,
                    SideRequestKind::Write => self.report.side_writes += 1,
                }
                let side = self
                    .tracker
                    .on_activation(s.row, self.now, ActivationKind::TrackerSide);
                self.queue_victims(side.mitigations);
            }
            let Some(victim) = self.victims.pop_front() else {
                return;
            };
            self.report.mitigation_acts += 1;
            response =
                self.tracker
                    .on_activation(victim, self.now, ActivationKind::MitigationRefresh);
        }
    }

    /// Logs and counts each mitigation and queues its blast-radius victims.
    fn queue_victims(&mut self, mitigations: Vec<MitigationRequest>) {
        self.report.mitigations += mitigations.len() as u64;
        let rows = self.geometry.rows_per_bank();
        for m in mitigations {
            self.mitigated_log.push(m.aggressor);
            for offset in BLAST.offsets() {
                self.victims.extend(m.aggressor.neighbor(offset, rows));
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
    use hydra_types::tracker::{NullTracker, TrackerResponse};
    use hydra_types::SideRequest;

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
        let mut mitigated_rows = hydra_types::hash::RowSet::default();
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

    /// The replay loop before the queue-free demand path (verbatim, with
    /// `self` as `sim`): a fresh work queue of `(row, kind)` per activation,
    /// each popped entry's response expanded by one of two copies of the
    /// victim loop. Kept as the reference that pins the tracker call order.
    fn reference_activate<T: ActivationTracker>(sim: &mut ActivationSim<T>, row: RowAddr) {
        sim.now += sim.cycles_per_act;
        if sim.now >= sim.next_reset {
            sim.tracker.reset_window(sim.now);
            sim.report.window_resets += 1;
            sim.next_reset += sim.timing.refresh_window;
        }
        // Work queue: (row, kind). Mitigation victims append more entries.
        let mut work: VecDeque<(RowAddr, ActivationKind)> = VecDeque::new();
        work.push_back((row, ActivationKind::Demand));
        while let Some((r, kind)) = work.pop_front() {
            match kind {
                ActivationKind::Demand => sim.report.demand_acts += 1,
                ActivationKind::MitigationRefresh => sim.report.mitigation_acts += 1,
                ActivationKind::TrackerSide => {}
            }
            let response = sim.tracker.on_activation(r, sim.now, kind);
            sim.report.mitigations += response.mitigations.len() as u64;
            for m in response.mitigations {
                sim.mitigated_log.push(m.aggressor);
                for offset in BLAST.offsets() {
                    if let Some(victim) = m.aggressor.neighbor(offset, sim.geometry.rows_per_bank())
                    {
                        work.push_back((victim, ActivationKind::MitigationRefresh));
                    }
                }
            }
            for s in response.side_requests {
                match s.kind {
                    SideRequestKind::Read => sim.report.side_reads += 1,
                    SideRequestKind::Write => sim.report.side_writes += 1,
                }
                // Metadata accesses open their own DRAM row: report it to
                // the tracker (RIT-ACT sees counter-row activations).
                let side_response =
                    sim.tracker
                        .on_activation(s.row, sim.now, ActivationKind::TrackerSide);
                sim.report.mitigations += side_response.mitigations.len() as u64;
                for m in side_response.mitigations {
                    sim.mitigated_log.push(m.aggressor);
                    for offset in BLAST.offsets() {
                        if let Some(victim) =
                            m.aggressor.neighbor(offset, sim.geometry.rows_per_bank())
                        {
                            work.push_back((victim, ActivationKind::MitigationRefresh));
                        }
                    }
                }
            }
        }
    }

    /// Forwards to a tracker and records every `(row, kind)` it is shown.
    struct Recording<T> {
        inner: T,
        calls: Vec<(RowAddr, ActivationKind)>,
    }

    impl<T: ActivationTracker> ActivationTracker for Recording<T> {
        fn on_activation(
            &mut self,
            row: RowAddr,
            now: MemCycle,
            kind: ActivationKind,
        ) -> TrackerResponse {
            self.calls.push((row, kind));
            self.inner.on_activation(row, now, kind)
        }

        fn reset_window(&mut self, now: MemCycle) {
            self.inner.reset_window(now);
        }

        fn name(&self) -> &str {
            self.inner.name()
        }

        fn sram_bytes(&self) -> u64 {
            self.inner.sram_bytes()
        }
    }

    /// Mitigates every `n`th activation and every metadata-row activation,
    /// and reads then writes back a metadata row every `side`th, so victim
    /// refreshes cascade and a response's own victims and its side
    /// requests' victims interleave. The cascade stays finite while
    /// `4 / n + 10 / side < 1`.
    struct EveryNth {
        n: u64,
        side: u64,
        count: u64,
    }

    impl ActivationTracker for EveryNth {
        fn on_activation(
            &mut self,
            row: RowAddr,
            _: MemCycle,
            kind: ActivationKind,
        ) -> TrackerResponse {
            self.count += 1;
            let mut response = TrackerResponse::none();
            if kind == ActivationKind::TrackerSide || self.count.is_multiple_of(self.n) {
                response.mitigations.push(MitigationRequest::new(row));
            }
            if self.count.is_multiple_of(self.side) {
                let meta = |i| RowAddr::new(0, 0, 3, 1000 + i);
                let i = (self.count % 8) as u32;
                response
                    .side_requests
                    .extend([SideRequest::read(meta(i)), SideRequest::write(meta(i + 8))]);
            }
            response
        }

        fn reset_window(&mut self, _: MemCycle) {}

        fn name(&self) -> &str {
            "every-nth"
        }

        fn sram_bytes(&self) -> u64 {
            0
        }
    }

    /// Replays one random tiny-geometry stream across several window resets
    /// through the simulator and through [`reference_activate`], and
    /// requires the same report, the same mitigation log after every
    /// activation and the same tracker call sequence. Returns the report
    /// and the tracker.
    fn replay_matches_reference<T: ActivationTracker>(
        tracker: impl Fn() -> T,
        seed: u64,
    ) -> (ActivationSimReport, T) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let geom = MemGeometry::tiny();
        let timing = DramTiming::ddr4_3200().with_scaled_window(2048);
        let sim = |tracker| {
            let recording = Recording {
                inner: tracker,
                calls: Vec::new(),
            };
            ActivationSim::new(geom, recording).with_timing(timing)
        };
        let (mut fast, mut reference) = (sim(tracker()), sim(tracker()));
        let mut rng = SmallRng::seed_from_u64(seed);
        let acts = 5 * timing.refresh_window / timing.trc;
        for i in 0..acts {
            // Hot rows (several at distance 2, so refreshes feed back) mixed
            // with a scatter wide enough to thrash small caches.
            let row = if rng.gen_bool(0.6) {
                RowAddr::new(
                    0,
                    0,
                    rng.gen_range(0u8..2),
                    100 + 2 * rng.gen_range(0u32..3),
                )
            } else {
                RowAddr::new(0, 0, rng.gen_range(0u8..4), rng.gen_range(0u32..1024))
            };
            fast.activate(row);
            reference_activate(&mut reference, row);
            assert_eq!(
                fast.drain_mitigated(),
                reference.drain_mitigated(),
                "act {i}"
            );
        }
        assert_eq!(fast.report(), reference.report());
        assert_eq!(fast.tracker().calls, reference.tracker().calls);
        assert!(fast.victims.is_empty());
        let report = fast.report();
        assert!(report.window_resets >= 4, "{report:?}");
        (report, fast.into_tracker().inner)
    }

    #[test]
    fn replay_matches_reference_for_hydra() {
        // Four RCC lines thrash under the scatter; T_H = 8 lets RIT-ACT
        // mitigate the RCT rows that side traffic opens.
        let hydra = || {
            let mut b = HydraConfig::builder(MemGeometry::tiny(), 0);
            b.thresholds(8, 6).gct_entries(16).rcc_entries(4);
            Hydra::new(b.build().unwrap()).unwrap()
        };
        for seed in 0..4 {
            let (report, hydra) = replay_matches_reference(hydra, seed);
            assert!(
                report.side_reads > 0 && report.side_writes > 0,
                "{report:?}"
            );
            assert!(hydra.stats().rct_accesses > 0, "{:?}", hydra.stats());
            assert!(hydra.stats().rit_mitigations > 0, "{:?}", hydra.stats());
        }
    }

    #[test]
    fn replay_matches_reference_for_cra() {
        let cra = || {
            hydra_baselines::Cra::new(hydra_baselines::CraConfig {
                geometry: MemGeometry::tiny(),
                channel: 0,
                threshold: 16,
                cache_bytes: 128,
                cache_ways: 2,
            })
            .expect("valid config")
        };
        for seed in 0..4 {
            let (report, _) = replay_matches_reference(cra, seed);
            assert!(
                report.side_reads > 0 && report.mitigations > 0,
                "{report:?}"
            );
        }
    }

    #[test]
    fn replay_matches_reference_for_cascading_mitigations() {
        let every_nth = || EveryNth {
            n: 8,
            side: 23,
            count: 0,
        };
        for seed in 0..4 {
            let (report, _) = replay_matches_reference(every_nth, seed);
            assert!(report.mitigation_acts > report.demand_acts, "{report:?}");
        }
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
