//! Shadow-oracle tracker sanitizer.
//!
//! [`ShadowOracle`] is to Row-Hammer trackers what a thread sanitizer is to
//! concurrent code: it wraps any [`ActivationTracker`], forwards every call
//! unchanged, and independently maintains *ground-truth* per-row activation
//! counts. After each activation it checks the security contract:
//!
//! * **No missed mitigation** — no row may accumulate `T_RH` true
//!   activations across the current and previous tracking window without
//!   the wrapped tracker mitigating it. (Charge is restored by the regular
//!   refresh once per window, so disturbance accumulates across at most two
//!   adjacent windows — the paper's window-split argument, Sec. 4.6.)
//! * **No spurious mitigation** — a mitigated row must actually have been
//!   activated since it was last mitigated; mitigating a never-touched row
//!   indicates the tracker resets the wrong victim.
//!
//! Violations are *recorded*, never panicked on, so property tests can
//! assert on their presence (for deliberately broken trackers like
//! `hydra-analysis`'s `LeakyTracker` or `hydra-arena`'s sabotage fixtures)
//! or absence (for Hydra and the arena contenders) and report all failures
//! at once.
//!
//! The sanitizer lives in `hydra-sim` — the same layer as the activation
//! replayer — so every consumer above it (the `hydra-analysis` referee,
//! which re-exports this module, and the `hydra-arena` leaderboard, which
//! sanitizes every cell) shares one ground truth.
//!
//! # Example
//!
//! ```
//! use hydra_sim::oracle::ShadowOracle;
//! use hydra_types::{ActivationKind, ActivationTracker, NullTracker, RowAddr};
//!
//! // The null tracker never mitigates: the oracle catches it immediately.
//! let mut oracle = ShadowOracle::new(NullTracker, 8);
//! let row = RowAddr::new(0, 0, 0, 1);
//! for t in 0..8 {
//!     oracle.on_activation(row, t, ActivationKind::Demand);
//! }
//! assert_eq!(oracle.report().violations_total, 1);
//! ```

use hydra_types::tracker::NullTracker;
use hydra_types::{ActivationKind, ActivationTracker, MemCycle, RowAddr, TrackerResponse};
use std::collections::HashMap;
use std::fmt;

/// What kind of contract breach the sanitizer observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A row crossed `T_RH` true activations (summed over the current and
    /// previous window) without being mitigated.
    ExcessActivations,
    /// The tracker mitigated a row with zero true activations since its
    /// last mitigation — it is resetting the wrong victim.
    SpuriousMitigation,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::ExcessActivations => f.write_str("excess-activations"),
            ViolationKind::SpuriousMitigation => f.write_str("spurious-mitigation"),
        }
    }
}

/// One recorded contract breach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The breach category.
    pub kind: ViolationKind,
    /// The row involved.
    pub row: RowAddr,
    /// The row's true activation count (current + previous window) when the
    /// breach was detected.
    pub true_count: u64,
    /// Simulation time of the breach.
    pub at: MemCycle,
    /// Index of the activation (1-based over the oracle's lifetime) that
    /// triggered detection.
    pub activation_index: u64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {} (true count {}, cycle {}, activation #{})",
            self.kind, self.row, self.true_count, self.at, self.activation_index
        )
    }
}

/// Summary statistics of one sanitized run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleReport {
    /// Activations observed.
    pub activations: u64,
    /// Distinct rows with nonzero counts at any point.
    pub rows_tracked: u64,
    /// Total violations recorded (all kinds).
    pub violations_total: u64,
    /// Worst true count (current + previous window) ever observed on an
    /// unmitigated row.
    pub worst_unmitigated: u64,
    /// Mitigations forwarded from the wrapped tracker.
    pub mitigations: u64,
    /// Window resets observed.
    pub window_resets: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct RowState {
    /// True activations in the current window since the last mitigation.
    current: u64,
    /// True activations in the previous window since the last mitigation
    /// (frozen at the window boundary).
    prev: u64,
    /// Set when an excess violation was recorded for this accumulation, so
    /// one sustained breach produces one record, not one per activation.
    flagged: bool,
}

impl RowState {
    fn total(&self) -> u64 {
        self.current + self.prev
    }
}

/// Capacity of the detailed violation log; the totals in [`OracleReport`]
/// keep counting past it.
const MAX_RECORDED: usize = 64;

/// A ground-truth sanitizer wrapped around any tracker. See the module docs.
#[derive(Debug, Clone)]
pub struct ShadowOracle<T> {
    inner: T,
    t_rh: u64,
    name: String,
    rows: HashMap<RowAddr, RowState>,
    violations: Vec<Violation>,
    report: OracleReport,
}

impl<T: ActivationTracker> ShadowOracle<T> {
    /// Wraps `inner`, checking against Row-Hammer threshold `t_rh`.
    pub fn new(inner: T, t_rh: u32) -> Self {
        let name = format!("shadow({})", inner.name());
        ShadowOracle {
            inner,
            t_rh: u64::from(t_rh),
            name,
            rows: HashMap::new(),
            violations: Vec::new(),
            report: OracleReport::default(),
        }
    }

    /// The wrapped tracker.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The wrapped tracker, mutably. Counts recorded through direct calls on
    /// the inner tracker bypass the oracle.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwraps, discarding the oracle state.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Violations recorded so far (detail log capped at an internal limit;
    /// [`OracleReport::violations_total`] counts all of them).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Summary of the run so far.
    pub fn report(&self) -> OracleReport {
        let mut r = self.report;
        r.rows_tracked = self.rows.len() as u64;
        r
    }

    /// True iff no violation of any kind was recorded.
    pub fn is_clean(&self) -> bool {
        self.report.violations_total == 0
    }

    fn record(&mut self, kind: ViolationKind, row: RowAddr, true_count: u64, at: MemCycle) {
        self.report.violations_total += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(Violation {
                kind,
                row,
                true_count,
                at,
                activation_index: self.report.activations,
            });
        }
    }

    fn apply_mitigations(&mut self, response: &TrackerResponse, at: MemCycle) {
        for m in &response.mitigations {
            self.report.mitigations += 1;
            let state = self.rows.entry(m.aggressor).or_default();
            if state.total() == 0 {
                let count = state.total();
                self.record(ViolationKind::SpuriousMitigation, m.aggressor, count, at);
            }
            // A mitigation refreshes the row: its accumulated disturbance
            // is gone, in both windows.
            let state = self.rows.entry(m.aggressor).or_default();
            state.current = 0;
            state.prev = 0;
            state.flagged = false;
        }
    }
}

impl<T: ActivationTracker> ActivationTracker for ShadowOracle<T> {
    fn on_activation(
        &mut self,
        row: RowAddr,
        now: MemCycle,
        kind: ActivationKind,
    ) -> TrackerResponse {
        self.report.activations += 1;
        // Every activation disturbs the row's neighbors, whatever caused it
        // — demand, victim refresh (Half-Double), or tracker side traffic.
        self.rows.entry(row).or_default().current += 1;

        let response = self.inner.on_activation(row, now, kind);
        self.apply_mitigations(&response, now);

        if let Some(state) = self.rows.get_mut(&row) {
            let total = state.total();
            self.report.worst_unmitigated = self.report.worst_unmitigated.max(total);
            if total >= self.t_rh && !state.flagged {
                state.flagged = true;
                self.record(ViolationKind::ExcessActivations, row, total, now);
            }
        }
        response
    }

    fn reset_window(&mut self, now: MemCycle) {
        self.report.window_resets += 1;
        // The regular refresh restores charge once per window: disturbance
        // can only straddle two adjacent windows. Shift current → prev and
        // drop the older window's contribution.
        for state in self.rows.values_mut() {
            state.prev = state.current;
            state.current = 0;
            if state.total() < self.t_rh {
                state.flagged = false;
            }
        }
        self.rows.retain(|_, s| s.total() > 0);
        self.inner.reset_window(now);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn sram_bytes(&self) -> u64 {
        self.inner.sram_bytes()
    }

    fn params(&self) -> String {
        self.inner.params()
    }

    fn max_spillover(&self) -> u64 {
        self.inner.max_spillover()
    }
}

impl Default for ShadowOracle<NullTracker> {
    fn default() -> Self {
        ShadowOracle::new(NullTracker, u32::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_types::ActivationKind::Demand;

    /// A tracker that mitigates exactly at its threshold — the oracle must
    /// stay clean on it.
    struct Exact {
        t_h: u32,
        counts: HashMap<RowAddr, u32>,
    }

    impl Exact {
        fn new(t_h: u32) -> Self {
            Exact {
                t_h,
                counts: HashMap::new(),
            }
        }
    }

    impl ActivationTracker for Exact {
        fn on_activation(
            &mut self,
            row: RowAddr,
            _now: MemCycle,
            _kind: ActivationKind,
        ) -> TrackerResponse {
            let c = self.counts.entry(row).or_insert(0);
            *c += 1;
            if *c >= self.t_h {
                *c = 0;
                TrackerResponse::mitigate(row)
            } else {
                TrackerResponse::none()
            }
        }

        fn reset_window(&mut self, _now: MemCycle) {
            self.counts.clear();
        }

        fn name(&self) -> &str {
            "exact"
        }

        fn sram_bytes(&self) -> u64 {
            0
        }
    }

    #[test]
    fn exact_tracker_is_clean_within_windows() {
        let mut o = ShadowOracle::new(Exact::new(4), 8);
        let row = RowAddr::new(0, 0, 0, 3);
        for t in 0..100 {
            o.on_activation(row, t, Demand);
        }
        assert!(o.is_clean(), "{:?}", o.violations());
        assert_eq!(o.report().mitigations, 25);
    }

    #[test]
    fn exact_tracker_survives_window_split() {
        // 3 + 3 ACTs around a reset with T_H = 4, T_RH = 8: 6 < 8 — clean.
        let mut o = ShadowOracle::new(Exact::new(4), 8);
        let row = RowAddr::new(0, 0, 0, 3);
        for t in 0..3 {
            o.on_activation(row, t, Demand);
        }
        o.reset_window(100);
        for t in 0..3 {
            o.on_activation(row, 100 + t, Demand);
        }
        assert!(o.is_clean(), "{:?}", o.violations());
        assert_eq!(o.report().worst_unmitigated, 6);
    }

    #[test]
    fn null_tracker_violates_at_exactly_t_rh() {
        let mut o = ShadowOracle::new(NullTracker, 10);
        let row = RowAddr::new(0, 0, 0, 1);
        for t in 0..9 {
            o.on_activation(row, t, Demand);
        }
        assert!(o.is_clean());
        o.on_activation(row, 9, Demand);
        assert_eq!(o.report().violations_total, 1);
        let v = &o.violations()[0];
        assert_eq!(v.kind, ViolationKind::ExcessActivations);
        assert_eq!(v.true_count, 10);
        // Sustained hammering does not re-record the same breach...
        for t in 10..50 {
            o.on_activation(row, t, Demand);
        }
        assert_eq!(o.report().violations_total, 1);
        // ...but a fresh accumulation after two window resets does.
        o.reset_window(100);
        o.reset_window(200);
        for t in 0..10 {
            o.on_activation(row, 200 + t, Demand);
        }
        assert_eq!(o.report().violations_total, 2);
    }

    #[test]
    fn violation_straddling_windows_is_caught() {
        // T_H too high for T_RH: 7 + 3 = 10 ≥ 10 across one reset.
        let mut o = ShadowOracle::new(Exact::new(8), 10);
        let row = RowAddr::new(0, 0, 0, 1);
        for t in 0..7 {
            o.on_activation(row, t, Demand);
        }
        o.reset_window(50);
        for t in 0..3 {
            o.on_activation(row, 50 + t, Demand);
        }
        assert_eq!(o.report().violations_total, 1);
    }

    #[test]
    fn spurious_mitigation_is_flagged() {
        /// Mitigates a row it never saw activated.
        struct WrongVictim;
        impl ActivationTracker for WrongVictim {
            fn on_activation(
                &mut self,
                row: RowAddr,
                _now: MemCycle,
                _kind: ActivationKind,
            ) -> TrackerResponse {
                let mut wrong = row;
                wrong.row = row.row.wrapping_add(100);
                TrackerResponse::mitigate(wrong)
            }
            fn reset_window(&mut self, _now: MemCycle) {}
            fn name(&self) -> &str {
                "wrong-victim"
            }
            fn sram_bytes(&self) -> u64 {
                0
            }
        }

        let mut o = ShadowOracle::new(WrongVictim, 1000);
        o.on_activation(RowAddr::new(0, 0, 0, 1), 0, Demand);
        assert_eq!(o.report().violations_total, 1);
        assert_eq!(o.violations()[0].kind, ViolationKind::SpuriousMitigation);
    }

    #[test]
    fn detail_log_caps_but_totals_keep_counting() {
        let mut o = ShadowOracle::new(NullTracker, 2);
        for r in 0..200u32 {
            let row = RowAddr::new(0, 0, 0, r);
            o.on_activation(row, 0, Demand);
            o.on_activation(row, 1, Demand);
        }
        assert_eq!(o.report().violations_total, 200);
        assert_eq!(o.violations().len(), MAX_RECORDED);
    }

    #[test]
    fn name_and_sram_delegate() {
        let o = ShadowOracle::new(NullTracker, 100);
        assert_eq!(o.name(), "shadow(none)");
        assert_eq!(o.sram_bytes(), 0);
    }
}
