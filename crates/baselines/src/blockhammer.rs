//! A BlockHammer-style tracker: D-CBF blacklisting + rate-control
//! mitigation (Yağlıkçı et al., HPCA 2021; the paper's Sec. 7.1 comparison).
//!
//! Wraps [`DualCountingBloomFilter`] in the [`ActivationTracker`] interface
//! so the full-system simulator can run it: when a row's filter estimate
//! crosses the blacklist threshold, the tracker requests mitigation, which
//! only makes sense under [`MitigationPolicy::RateLimit`] — BlockHammer
//! throttles aggressors rather than refreshing victims. Pairing it with
//! victim refresh would be unsound (the filter cannot reset per-row state,
//! so it would re-request mitigation on every subsequent activation — the
//! exact incompatibility Sec. 7.1 describes).
//!
//! [`MitigationPolicy::RateLimit`]: hydra_types::mitigation::MitigationPolicy

use crate::dcbf::DualCountingBloomFilter;
use hydra_types::addr::RowAddr;
use hydra_types::clock::MemCycle;
use hydra_types::error::ConfigError;
use hydra_types::hash::RowSet;
use hydra_types::tracker::{ActivationKind, ActivationTracker, TrackerResponse};

/// BlockHammer-style blacklisting tracker.
///
/// # Example
///
/// ```
/// use hydra_baselines::blockhammer::BlockHammer;
/// use hydra_types::{ActivationKind, ActivationTracker, RowAddr};
/// let mut bh = BlockHammer::for_threshold(64, 100_000)?;
/// let row = RowAddr::new(0, 0, 0, 5);
/// let mut requested = false;
/// for t in 0..64u64 {
///     requested |= !bh.on_activation(row, t, ActivationKind::Demand).is_empty();
/// }
/// assert!(requested, "a hammered row must be blacklisted");
/// # Ok::<(), hydra_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BlockHammer {
    filter: DualCountingBloomFilter,
    /// Rows already reported this epoch (one rate-limit request suffices;
    /// the controller's blacklist persists until the window reset).
    reported: RowSet<RowAddr>,
    counters: usize,
    blacklists: u64,
}

impl BlockHammer {
    /// Creates a tracker with `counters` filter counters per filter and the
    /// given blacklist threshold; epochs are half the given window.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for zero parameters.
    pub fn new(counters: usize, threshold: u32, window: MemCycle) -> Result<Self, ConfigError> {
        Ok(BlockHammer {
            filter: DualCountingBloomFilter::new(counters, threshold, (window / 2).max(1))?,
            reported: RowSet::default(),
            counters,
            blacklists: 0,
        })
    }

    /// Sizes the filter for `t_rh` following the D-CBF sizing of Sec. 2.4
    /// (see `storage::dcbf_bytes_per_rank`): the blacklist threshold is
    /// `t_rh / 2` and the filter gets `36 · ACT_max_window / t_rh` counters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for degenerate thresholds.
    pub fn for_threshold(t_rh: u32, window: MemCycle) -> Result<Self, ConfigError> {
        if t_rh < 4 {
            return Err(ConfigError::new("T_RH must be at least 4"));
        }
        // ACT_max scales with the window (tRC = 72 cycles at our clock).
        let act_max = (window / 72).max(1_000);
        let counters = ((36 * act_max) / u64::from(t_rh)).max(64) as usize;
        BlockHammer::new(counters, t_rh / 2, window)
    }

    /// Rows blacklisted so far.
    pub fn blacklists(&self) -> u64 {
        self.blacklists
    }
}

impl ActivationTracker for BlockHammer {
    fn on_activation(
        &mut self,
        row: RowAddr,
        now: MemCycle,
        _kind: ActivationKind,
    ) -> TrackerResponse {
        self.filter.on_activation(row, now);
        if self.filter.is_blacklisted(row) && self.reported.insert(row) {
            self.blacklists += 1;
            TrackerResponse::mitigate(row)
        } else {
            TrackerResponse::none()
        }
    }

    fn reset_window(&mut self, _now: MemCycle) {
        // Filter epochs roll inside the D-CBF itself; the reported set
        // resets with the controller's blacklist.
        self.reported.clear();
    }

    fn name(&self) -> &str {
        "blockhammer"
    }

    fn sram_bytes(&self) -> u64 {
        // Two filters of 4-bit counters.
        (self.counters as u64 * 2) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bh() -> BlockHammer {
        BlockHammer::new(4096, 16, 1_000_000).unwrap()
    }

    fn act(b: &mut BlockHammer, row: RowAddr, now: MemCycle) -> bool {
        !b.on_activation(row, now, ActivationKind::Demand).is_empty()
    }

    #[test]
    fn blacklists_once_per_epoch() {
        let mut b = bh();
        let row = RowAddr::new(0, 0, 0, 9);
        let mut requests = 0;
        for t in 0..100u64 {
            if act(&mut b, row, t) {
                requests += 1;
            }
        }
        assert_eq!(requests, 1, "one rate-limit request per row per epoch");
        assert_eq!(b.blacklists(), 1);
    }

    #[test]
    fn request_arrives_at_threshold() {
        let mut b = bh();
        let row = RowAddr::new(0, 0, 1, 42);
        let mut at = None;
        for t in 1..=40u64 {
            if act(&mut b, row, t) {
                at = Some(t);
                break;
            }
        }
        assert_eq!(at, Some(16), "blacklisted exactly at the threshold");
    }

    #[test]
    fn window_reset_allows_rereporting() {
        let mut b = bh();
        let row = RowAddr::new(0, 0, 0, 9);
        for t in 0..20u64 {
            act(&mut b, row, t);
        }
        b.reset_window(100);
        // The filter still holds the count, so the next activation
        // re-reports the still-hot row (the controller's blacklist was
        // cleared with the window).
        assert!(act(&mut b, row, 101));
    }

    #[test]
    fn sizing_scales_inversely_with_threshold() {
        let low = BlockHammer::for_threshold(500, 100_000_000).unwrap();
        let high = BlockHammer::for_threshold(32_000, 100_000_000).unwrap();
        assert!(low.sram_bytes() > high.sram_bytes());
    }

    #[test]
    fn cold_rows_are_never_reported() {
        let mut b = bh();
        for r in 0..1000u32 {
            assert!(!act(&mut b, RowAddr::new(0, 0, 0, r), u64::from(r)));
        }
    }
}
