//! The streaming forensics probe: an [`EventSink`] that watches a live
//! tracker (or a replayed trace) and classifies every window online.
//!
//! Memory is bounded regardless of run length: the attribution engine's
//! sketches are fixed-size and cleared per window, the mitigated-row set
//! is capped, and at most [`ForensicsProbe::MAX_WINDOWS`] per-window
//! reports are retained. Windows closed past the cap are not kept and
//! yield no incident; they are counted in the verdict's
//! `overflow_windows`, so the loss is never silent.
//!
//! Reports only append, so a report index is a stable cursor:
//! [`ForensicsProbe::incidents_from`] builds the incidents of the reports
//! from a cursor on, which lets a live consumer publish each incident
//! once instead of rebuilding every retained incident per call.
//!
//! The probe is attach-only: it never perturbs the tracker. The
//! probe-identity proptest in `tests/probe_identity.rs` proves a
//! forensics-probed `Hydra` is bit-identical to a bare one.

use crate::attribution::AttributionEngine;
use crate::classify::{classify, AttackClass, Classification, ClassifierConfig, WindowSignals};
use crate::incident::Incident;
use hydra_telemetry::{EventSink, TelemetryEvent};
use hydra_types::RowAddr;

/// Maximum distinct mitigated rows remembered per window.
const MAX_MITIGATED_ROWS: usize = 64;

/// How many top rows each window report retains.
const TOP_K: usize = 8;

/// One classified window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// The accumulated signal vector.
    pub signals: WindowSignals,
    /// The classifier's label for it.
    pub classification: Classification,
}

/// Whole-run summary across all classified windows.
#[derive(Debug, Clone, PartialEq)]
pub struct RunVerdict {
    /// Windows classified (retained ones; see `overflow_windows`).
    pub windows: usize,
    /// Windows labeled as an attack class.
    pub attack_windows: usize,
    /// Windows below the activity floor.
    pub quiet_windows: usize,
    /// The most severe class seen in any window.
    pub dominant: AttackClass,
    /// Highest confidence among attack-labeled windows (0 when none).
    pub max_confidence: f64,
    /// Windows dropped past the retention cap.
    pub overflow_windows: u64,
}

impl RunVerdict {
    /// True if any window was labeled as an attack.
    pub fn is_attack(&self) -> bool {
        self.attack_windows > 0
    }
}

/// Streaming analyzer over the telemetry event stream.
#[derive(Debug, Clone)]
pub struct ForensicsProbe {
    cfg: ClassifierConfig,
    engine: AttributionEngine,
    cur: WindowSignals,
    mitigated: Vec<RowAddr>,
    saw_events: bool,
    reports: Vec<WindowReport>,
    overflow: u64,
    workload: Option<String>,
}

impl ForensicsProbe {
    /// Retention cap on per-window reports.
    pub const MAX_WINDOWS: usize = 4096;

    /// Creates a probe for a tracker with per-row threshold `t_h`, using
    /// the default classifier thresholds and sketch sizes.
    pub fn new(t_h: u32) -> Self {
        Self::with_config(ClassifierConfig::for_threshold(t_h))
    }

    /// Creates a probe with explicit classifier thresholds.
    pub fn with_config(cfg: ClassifierConfig) -> Self {
        ForensicsProbe {
            cfg,
            engine: AttributionEngine::default(),
            cur: WindowSignals::default(),
            mitigated: Vec::new(),
            saw_events: false,
            reports: Vec::new(),
            overflow: 0,
            workload: None,
        }
    }

    /// Tags the run with a workload name (propagated into incidents).
    pub fn with_workload(mut self, name: &str) -> Self {
        self.workload = Some(name.to_string());
        self
    }

    /// The classifier configuration in use.
    pub fn config(&self) -> &ClassifierConfig {
        &self.cfg
    }

    /// Closes the tail window. Call once after the run (idempotent: a
    /// window with no events produces no report).
    pub fn finish(&mut self) {
        if self.saw_events {
            self.finalize_window();
        }
    }

    /// The retained per-window reports, in order.
    pub fn reports(&self) -> &[WindowReport] {
        &self.reports
    }

    /// Incident records for every retained attack-labeled window.
    pub fn incidents(&self) -> Vec<Incident> {
        self.incidents_from(0).collect()
    }

    /// Incident records for the retained attack-labeled windows whose
    /// report index is `first_report` or later, in order. A caller that
    /// publishes incidents as they finalize keeps `reports().len()` as
    /// its cursor, so each batch builds only the incidents of the
    /// windows it closed. Past the retention cap nothing new is yielded.
    pub fn incidents_from(&self, first_report: usize) -> impl Iterator<Item = Incident> + '_ {
        self.reports
            .get(first_report..)
            .unwrap_or_default()
            .iter()
            .filter(|r| r.classification.class.is_attack())
            .map(|r| Incident::from_window(&r.signals, &r.classification, self.workload.as_deref()))
    }

    /// The whole-run verdict. Call [`Self::finish`] first so the tail
    /// window is included.
    pub fn verdict(&self) -> RunVerdict {
        let mut verdict = RunVerdict {
            windows: self.reports.len(),
            attack_windows: 0,
            quiet_windows: 0,
            dominant: AttackClass::Quiet,
            max_confidence: 0.0,
            overflow_windows: self.overflow,
        };
        for r in &self.reports {
            let class = r.classification.class;
            if class.is_attack() {
                verdict.attack_windows += 1;
                if r.classification.confidence > verdict.max_confidence {
                    verdict.max_confidence = r.classification.confidence;
                }
            }
            if class == AttackClass::Quiet {
                verdict.quiet_windows += 1;
            }
            if class.severity() > verdict.dominant.severity() {
                verdict.dominant = class;
            }
        }
        verdict
    }

    fn touch(&mut self, now: u64) {
        if !self.saw_events {
            self.cur.start_cycle = now;
            self.saw_events = true;
        }
        self.cur.end_cycle = now;
    }

    fn finalize_window(&mut self) {
        self.cur.top = self.engine.top_k(TOP_K);
        self.cur.mitigated = self
            .mitigated
            .iter()
            .map(|&row| (row, self.engine.estimate(row)))
            .collect();
        let classification = classify(&self.cur, &self.cfg);
        let window = self.cur.window;
        let report = WindowReport {
            signals: std::mem::take(&mut self.cur),
            classification,
        };
        if self.reports.len() < Self::MAX_WINDOWS {
            self.reports.push(report);
        } else {
            self.overflow += 1;
        }
        self.engine.clear();
        self.mitigated.clear();
        self.saw_events = false;
        self.cur.window = window + 1;
    }
}

impl EventSink for ForensicsProbe {
    fn emit(&mut self, now: u64, event: TelemetryEvent) {
        match event {
            TelemetryEvent::WindowReset { .. } => {
                // Close the window even if it was empty of interesting
                // events, so window indices stay aligned with the tracker.
                self.touch(now);
                self.finalize_window();
                return;
            }
            TelemetryEvent::GctOnly { .. } => {
                self.cur.activations += 1;
                self.cur.gct_only += 1;
            }
            TelemetryEvent::RctAccess { row, count } => {
                self.cur.activations += 1;
                self.cur.per_row += 1;
                self.cur.max_count = self.cur.max_count.max(count);
                self.engine.observe(row);
            }
            TelemetryEvent::ReservedActivation { .. } => {
                self.cur.activations += 1;
                self.cur.reserved += 1;
            }
            TelemetryEvent::RccMiss { .. } => self.cur.rcc_misses += 1,
            TelemetryEvent::RccEvict { .. } => self.cur.rcc_evictions += 1,
            TelemetryEvent::GroupSpill { .. } => self.cur.spills += 1,
            TelemetryEvent::Mitigation { row } => {
                self.cur.mitigations += 1;
                if self.mitigated.len() < MAX_MITIGATED_ROWS && !self.mitigated.contains(&row) {
                    self.mitigated.push(row);
                }
            }
            TelemetryEvent::RitMitigation { .. } => self.cur.rit_mitigations += 1,
            _ => {}
        }
        self.touch(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(bank: u8, r: u32) -> RowAddr {
        RowAddr::new(0, 0, bank, r)
    }

    /// Hammer one row through the probe's event-level interface: a
    /// GCT-only warmup, then per-row accesses with rising counts and
    /// periodic mitigations — the stream a real single-sided run emits.
    #[test]
    fn single_sided_stream_yields_one_incident() {
        let t_h = 64;
        let mut p = ForensicsProbe::new(t_h).with_workload("unit");
        let hot = row(1, 100);
        let mut count = 0u32;
        for i in 0..2_000u64 {
            count += 1;
            if count >= t_h {
                p.emit(i, TelemetryEvent::RctAccess { row: hot, count });
                p.emit(i, TelemetryEvent::Mitigation { row: hot });
                count = 0;
            } else if count <= 12 {
                p.emit(i, TelemetryEvent::GctOnly { group: 1 });
            } else {
                p.emit(i, TelemetryEvent::RctAccess { row: hot, count });
            }
        }
        p.finish();
        let v = p.verdict();
        assert_eq!(v.windows, 1);
        assert!(v.is_attack());
        assert_eq!(v.dominant, AttackClass::SingleSided);
        let incidents = p.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].aggressors[0].0, hot);
        assert_eq!(incidents[0].workload.as_deref(), Some("unit"));
        assert!(incidents[0].victims.iter().any(|r| r.row == 101));
    }

    #[test]
    fn window_reset_splits_reports_and_clears_sketches() {
        let mut p = ForensicsProbe::new(16);
        for i in 0..200u64 {
            p.emit(i, TelemetryEvent::GctOnly { group: 0 });
        }
        p.emit(200, TelemetryEvent::WindowReset { window: 1 });
        for i in 0..10u64 {
            p.emit(300 + i, TelemetryEvent::GctOnly { group: 0 });
        }
        p.finish();
        assert_eq!(p.reports().len(), 2);
        assert_eq!(p.reports()[0].signals.window, 0);
        assert_eq!(p.reports()[0].signals.activations, 200);
        assert_eq!(p.reports()[1].signals.window, 1);
        assert_eq!(p.reports()[1].signals.activations, 10);
        assert_eq!(p.reports()[1].classification.class, AttackClass::Quiet);
    }

    #[test]
    fn finish_is_idempotent_and_skips_empty_tails() {
        let mut p = ForensicsProbe::new(16);
        p.emit(0, TelemetryEvent::GctOnly { group: 0 });
        p.finish();
        p.finish();
        assert_eq!(p.reports().len(), 1);
        let v = p.verdict();
        assert_eq!(v.windows, 1);
        assert!(!v.is_attack());
    }

    #[test]
    fn retention_cap_stops_incidents_and_counts_overflow() {
        let t_h = 16;
        let windows = ForensicsProbe::MAX_WINDOWS + 100;
        let hot = row(2, 200);
        let mut p = ForensicsProbe::new(t_h).with_workload("cap");
        let mut now = 0u64;
        for w in 0..windows {
            // Every third window is quiet, so report and incident
            // indices diverge; the rest hammer `hot` past T_H.
            let acts = if w % 3 == 2 { 1 } else { 64 };
            for _ in 0..acts {
                now += 1;
                p.emit(
                    now,
                    TelemetryEvent::RctAccess {
                        row: hot,
                        count: t_h,
                    },
                );
            }
            if w % 3 != 2 {
                p.emit(now, TelemetryEvent::Mitigation { row: hot });
            }
            p.emit(
                now,
                TelemetryEvent::WindowReset {
                    window: w as u64 + 1,
                },
            );
        }
        p.finish();

        let all = p.incidents();
        let attack_windows = (0..ForensicsProbe::MAX_WINDOWS)
            .filter(|w| w % 3 != 2)
            .count();
        assert_eq!(p.reports().len(), ForensicsProbe::MAX_WINDOWS);
        assert_eq!(all.len(), attack_windows, "no incident past the cap");
        let v = p.verdict();
        assert_eq!(
            v.overflow_windows,
            (windows - ForensicsProbe::MAX_WINDOWS) as u64
        );
        assert_eq!(v.attack_windows, attack_windows);

        for cursor in [0, 1, 2, 3, 1_000, 4_095, 4_096, 5_000] {
            let skipped = (0..cursor.min(ForensicsProbe::MAX_WINDOWS))
                .filter(|w| w % 3 != 2)
                .count();
            let from: Vec<Incident> = p.incidents_from(cursor).collect();
            assert_eq!(from, all[skipped..], "cursor {cursor}");
        }
    }

    #[test]
    fn benign_stream_raises_no_incidents() {
        let mut p = ForensicsProbe::new(250);
        for i in 0..5_000u64 {
            if i % 10 == 0 {
                p.emit(
                    i,
                    TelemetryEvent::RctAccess {
                        row: row(0, (i % 97) as u32),
                        count: 20,
                    },
                );
            } else {
                p.emit(i, TelemetryEvent::GctOnly { group: i % 32 });
            }
        }
        p.finish();
        assert!(!p.verdict().is_attack());
        assert!(p.incidents().is_empty());
    }
}
