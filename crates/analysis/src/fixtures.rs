//! Deliberately broken trackers for validating the sanitizer.
//!
//! A sanitizer that never fires is worthless; these fixtures give the test
//! suite known-bad trackers with *predictable* failure modes, so tests can
//! assert the [`hydra_sim::oracle::ShadowOracle`] has no false negatives
//! (it flags these) alongside no false positives (it stays clean on Hydra).

use hydra_types::hash::RowMap;
use hydra_types::{ActivationKind, ActivationTracker, MemCycle, RowAddr, TrackerResponse};

/// How a [`LeakyTracker`] loses activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeakMode {
    /// Rows with odd row indices are never counted (and never mitigated):
    /// hammering any odd row is invisible to the tracker.
    IgnoreOddRows,
    /// Every `n`-th activation (tracker-wide) is silently dropped, so
    /// counts lag truth and mitigations arrive late — eventually later than
    /// `T_RH` allows.
    DropEveryNth(u64),
    /// Counts accurately, but "mitigates" the row *above* the aggressor,
    /// so the real aggressor's count is never reset (and an innocent row is
    /// refreshed instead).
    MitigateWrongRow,
}

/// An intentionally unsound per-row tracker. See [`LeakMode`] for the
/// available defects; everything else mimics an exact one-counter-per-row
/// tracker with threshold `t_h`.
#[derive(Debug, Clone)]
pub struct LeakyTracker {
    t_h: u32,
    mode: LeakMode,
    counts: RowMap<RowAddr, u32>,
    seen: u64,
}

impl LeakyTracker {
    /// Creates a tracker with threshold `t_h` and the given defect.
    pub fn new(t_h: u32, mode: LeakMode) -> Self {
        LeakyTracker {
            t_h,
            mode,
            counts: RowMap::default(),
            seen: 0,
        }
    }

    /// The injected defect.
    pub fn mode(&self) -> LeakMode {
        self.mode
    }
}

impl ActivationTracker for LeakyTracker {
    fn on_activation(
        &mut self,
        row: RowAddr,
        _now: MemCycle,
        _kind: ActivationKind,
    ) -> TrackerResponse {
        self.seen += 1;
        match self.mode {
            LeakMode::IgnoreOddRows if row.row % 2 == 1 => return TrackerResponse::none(),
            LeakMode::DropEveryNth(n) if n > 0 && self.seen.is_multiple_of(n) => {
                return TrackerResponse::none()
            }
            _ => {}
        }
        let c = self.counts.entry(row).or_insert(0);
        *c += 1;
        if *c >= self.t_h {
            *c = 0;
            match self.mode {
                LeakMode::MitigateWrongRow => {
                    let mut wrong = row;
                    wrong.row = wrong.row.wrapping_add(1);
                    TrackerResponse::mitigate(wrong)
                }
                _ => TrackerResponse::mitigate(row),
            }
        } else {
            TrackerResponse::none()
        }
    }

    fn reset_window(&mut self, _now: MemCycle) {
        self.counts.clear();
    }

    fn name(&self) -> &str {
        "leaky"
    }

    fn sram_bytes(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_types::ActivationKind::Demand;

    #[test]
    fn ignores_odd_rows() {
        let mut t = LeakyTracker::new(4, LeakMode::IgnoreOddRows);
        let odd = RowAddr::new(0, 0, 0, 7);
        let even = RowAddr::new(0, 0, 0, 8);
        let mut odd_mitigations = 0;
        let mut even_mitigations = 0;
        for i in 0..100 {
            odd_mitigations += t.on_activation(odd, i, Demand).mitigations.len();
            even_mitigations += t.on_activation(even, i, Demand).mitigations.len();
        }
        assert_eq!(odd_mitigations, 0);
        assert_eq!(even_mitigations, 25);
    }

    #[test]
    fn wrong_row_mode_never_mitigates_the_aggressor() {
        let mut t = LeakyTracker::new(2, LeakMode::MitigateWrongRow);
        let row = RowAddr::new(0, 0, 0, 5);
        for i in 0..10 {
            for m in t.on_activation(row, i, Demand).mitigations {
                assert_ne!(m.aggressor, row);
            }
        }
    }

    #[test]
    fn drop_every_nth_lags_truth() {
        let mut t = LeakyTracker::new(10, LeakMode::DropEveryNth(2));
        let row = RowAddr::new(0, 0, 0, 5);
        let mut first_mitigation = None;
        for i in 1..=40u64 {
            if !t.on_activation(row, i, Demand).mitigations.is_empty() {
                first_mitigation = Some(i);
                break;
            }
        }
        // Half the activations are dropped: threshold 10 needs ~20 ACTs.
        assert_eq!(first_mitigation, Some(19));
    }
}
