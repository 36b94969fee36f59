//! Per-rank auto-refresh scheduling.
//!
//! DDR4 refreshes a rank with one REF command every tREFI (7.8125 µs); 8192
//! commands cover all rows in the 64 ms window. Refreshes are staggered
//! across ranks (each rank gets a different phase offset) exactly as the
//! paper notes: "refresh for DRAM rows occurs in a staggered manner
//! throughout 64 ms" (Sec. 5).

use crate::timing::DramTiming;
use hydra_types::clock::MemCycle;

/// Tracks when the next REF is due for one rank and when the rank becomes
/// usable again after a REF.
///
/// # Example
///
/// ```
/// use hydra_dram::{DramTiming, RefreshState};
/// let t = DramTiming::ddr4_3200();
/// let mut r = RefreshState::new(&t, 0);
/// assert!(!r.is_due(0));
/// assert!(r.is_due(t.trefi));
/// let busy_until = r.begin_refresh(t.trefi, &t);
/// assert_eq!(busy_until, t.trefi + t.trp + t.trfc);
/// ```
#[derive(Debug, Clone)]
pub struct RefreshState {
    next_due: MemCycle,
    busy_until: MemCycle,
    refreshes_issued: u64,
}

impl RefreshState {
    /// Creates refresh state with the first REF due at `trefi + phase`.
    ///
    /// `phase` staggers ranks so they do not refresh simultaneously.
    pub fn new(timing: &DramTiming, phase: MemCycle) -> Self {
        RefreshState {
            next_due: timing.trefi + phase,
            busy_until: 0,
            refreshes_issued: 0,
        }
    }

    /// True if a REF command is due at or before `now`.
    #[inline]
    pub fn is_due(&self, now: MemCycle) -> bool {
        now >= self.next_due
    }

    /// True while the rank is blocked by an in-flight REF.
    #[inline]
    pub fn is_refreshing(&self, now: MemCycle) -> bool {
        now < self.busy_until
    }

    /// Cycle at which the current REF (if any) finishes.
    pub fn busy_until(&self) -> MemCycle {
        self.busy_until
    }

    /// Number of REF commands issued so far.
    pub fn refreshes_issued(&self) -> u64 {
        self.refreshes_issued
    }

    /// Starts a REF at `now`: the rank is blocked for an implicit
    /// precharge-all (tRP) plus tRFC, and the next REF is scheduled one tREFI
    /// after the previous due time (so a late REF does not drift the
    /// schedule).
    ///
    /// Returns the cycle the rank becomes usable again.
    pub fn begin_refresh(&mut self, now: MemCycle, timing: &DramTiming) -> MemCycle {
        self.busy_until = now + timing.trp + timing.trfc;
        self.next_due += timing.trefi;
        // If the controller fell far behind, catch up rather than issuing a
        // burst of back-to-back refreshes (DDR4 allows postponing a bounded
        // number; we model the simple catch-up).
        if self.next_due <= now {
            self.next_due = now + timing.trefi;
        }
        self.refreshes_issued += 1;
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_staggers_first_refresh() {
        let t = DramTiming::ddr4_3200();
        let a = RefreshState::new(&t, 0);
        let b = RefreshState::new(&t, t.trefi / 2);
        assert!(a.is_due(t.trefi));
        assert!(!b.is_due(t.trefi));
        assert!(b.is_due(t.trefi + t.trefi / 2));
    }

    #[test]
    fn schedule_does_not_drift_when_issued_late() {
        let t = DramTiming::ddr4_3200();
        let mut r = RefreshState::new(&t, 0);
        // Issue the first REF 10 cycles late.
        r.begin_refresh(t.trefi + 10, &t);
        // Next REF is still due at 2*tREFI, not 2*tREFI + 10.
        assert!(r.is_due(2 * t.trefi));
    }

    #[test]
    fn far_behind_catches_up_without_burst() {
        let t = DramTiming::ddr4_3200();
        let mut r = RefreshState::new(&t, 0);
        let late = 10 * t.trefi;
        r.begin_refresh(late, &t);
        assert!(!r.is_due(late + 1));
        assert!(r.is_due(late + t.trefi));
    }

    #[test]
    fn refreshing_blocks_until_trp_plus_trfc() {
        let t = DramTiming::ddr4_3200();
        let mut r = RefreshState::new(&t, 0);
        let end = r.begin_refresh(t.trefi, &t);
        assert!(r.is_refreshing(end - 1));
        assert!(!r.is_refreshing(end));
        assert_eq!(r.refreshes_issued(), 1);
    }
}
