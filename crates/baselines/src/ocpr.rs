//! OCPR: One-Counter-Per-Row — the naive exact tracker (Sec. 2.4).
//!
//! A dedicated SRAM counter for every row. Storage is impractical (Table 1's
//! upper bound: 2–4 MB per rank), but counting is exact, which makes OCPR
//! the ground-truth oracle for every other tracker in this workspace: any
//! secure tracker must mitigate *no later than* OCPR.

use crate::storage::ocpr_bytes_per_rank;
use hydra_types::addr::RowAddr;
use hydra_types::clock::MemCycle;
use hydra_types::counter::{index, SatCounters};
use hydra_types::error::ConfigError;
use hydra_types::geometry::MemGeometry;
use hydra_types::tracker::{ActivationKind, ActivationTracker, TrackerResponse};

/// The exact per-row tracker / test oracle for one channel.
///
/// # Example
///
/// ```
/// use hydra_baselines::Ocpr;
/// use hydra_types::{ActivationKind, ActivationTracker, MemGeometry, RowAddr};
/// let mut ocpr = Ocpr::new(MemGeometry::tiny(), 0, 8)?;
/// let row = RowAddr::new(0, 0, 0, 3);
/// let mut mitigated_at = vec![];
/// for i in 1..=20u32 {
///     if !ocpr.on_activation(row, 0, ActivationKind::Demand).is_empty() {
///         mitigated_at.push(i);
///     }
/// }
/// assert_eq!(mitigated_at, vec![8, 16]);
/// # Ok::<(), hydra_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Ocpr {
    geometry: MemGeometry,
    channel: u8,
    threshold: u32,
    counts: SatCounters<u32>,
    mitigations: u64,
}

impl Ocpr {
    /// Creates an exact tracker mitigating at `threshold` activations.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for `threshold < 2` or a bad channel.
    pub fn new(geometry: MemGeometry, channel: u8, threshold: u32) -> Result<Self, ConfigError> {
        if threshold < 2 {
            return Err(ConfigError::new("threshold must be at least 2"));
        }
        if channel >= geometry.channels() {
            return Err(ConfigError::new("channel out of range"));
        }
        Ok(Ocpr {
            geometry,
            channel,
            threshold,
            counts: SatCounters::new(index(geometry.rows_per_channel())),
            mitigations: 0,
        })
    }

    /// The exact count of a row since the window start or its last
    /// mitigation.
    pub fn count(&self, row: RowAddr) -> u32 {
        self.counts.get(index(self.geometry.channel_row_index(row)))
    }

    /// Mitigations issued.
    pub fn mitigations(&self) -> u64 {
        self.mitigations
    }

    /// The mitigation threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }
}

impl ActivationTracker for Ocpr {
    fn on_activation(
        &mut self,
        row: RowAddr,
        _now: MemCycle,
        _kind: ActivationKind,
    ) -> TrackerResponse {
        debug_assert_eq!(row.channel, self.channel);
        let idx = index(self.geometry.channel_row_index(row));
        self.counts.increment(idx);
        if self.counts.get::<u32>(idx) >= self.threshold {
            self.counts.set(idx, 0);
            self.mitigations += 1;
            TrackerResponse::mitigate(row)
        } else {
            TrackerResponse::none()
        }
    }

    fn reset_window(&mut self, _now: MemCycle) {
        self.counts.reset();
    }

    fn name(&self) -> &str {
        "ocpr"
    }

    fn sram_bytes(&self) -> u64 {
        ocpr_bytes_per_rank(
            self.threshold * 2,
            self.geometry.rows_per_bank() as u64 * u64::from(self.geometry.banks_per_rank()),
        ) * u64::from(self.geometry.ranks_per_channel())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ocpr() -> Ocpr {
        Ocpr::new(MemGeometry::tiny(), 0, 10).unwrap()
    }

    #[test]
    fn exact_counting() {
        let mut o = ocpr();
        let row = RowAddr::new(0, 0, 2, 7);
        for _ in 0..9 {
            assert!(o.on_activation(row, 0, ActivationKind::Demand).is_empty());
        }
        assert_eq!(o.count(row), 9);
        let r = o.on_activation(row, 0, ActivationKind::Demand);
        assert_eq!(r.mitigations.len(), 1);
        assert_eq!(o.count(row), 0);
    }

    #[test]
    fn rows_independent() {
        let mut o = ocpr();
        o.on_activation(RowAddr::new(0, 0, 0, 1), 0, ActivationKind::Demand);
        assert_eq!(o.count(RowAddr::new(0, 0, 0, 2)), 0);
        assert_eq!(o.count(RowAddr::new(0, 0, 1, 1)), 0);
    }

    #[test]
    fn window_reset_zeroes_counts() {
        let mut o = ocpr();
        let row = RowAddr::new(0, 0, 0, 1);
        for _ in 0..5 {
            o.on_activation(row, 0, ActivationKind::Demand);
        }
        o.reset_window(0);
        assert_eq!(o.count(row), 0);
    }

    #[test]
    fn rejects_bad_config() {
        assert!(Ocpr::new(MemGeometry::tiny(), 0, 1).is_err());
        assert!(Ocpr::new(MemGeometry::tiny(), 7, 10).is_err());
    }

    #[test]
    fn counts_cycle_exactly_across_threshold_periods() {
        let mut o = ocpr();
        let row = RowAddr::new(0, 0, 3, 4);
        let mut when = Vec::new();
        for i in 1..=30 {
            if !o
                .on_activation(row, 0, ActivationKind::Demand)
                .mitigations
                .is_empty()
            {
                when.push(i);
            }
        }
        // Saturating arithmetic must keep the per-row cadence exact.
        assert_eq!(when, vec![10, 20, 30]);
        assert_eq!(o.count(row), 0);
    }
}
