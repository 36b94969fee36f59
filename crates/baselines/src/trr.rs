//! A vendor-style Target Row Refresh (TRR) emulation — the in-DRAM
//! mitigation TRRespass defeated (Frigo et al., S&P 2020; paper Sec. 7.4).
//!
//! Real TRR implementations keep a *very small* per-bank table of candidate
//! aggressors (the reverse-engineered designs track 1–16 rows) sampled from
//! the activation stream, and refresh the neighbours of tracked rows during
//! regular refresh operations. Because the table is tiny and its fill policy
//! is simplistic, an attacker can evict the true aggressor with decoy rows —
//! the many-sided TRRespass pattern.
//!
//! This model exists to reproduce that failure mode next to Hydra's
//! guarantee, not to defend any particular vendor design. Fill policy:
//! track the first `capacity` distinct rows seen since the last refresh
//! window; count activations only for tracked rows; mitigate a tracked row
//! when its count reaches the threshold.

use hydra_types::addr::RowAddr;
use hydra_types::clock::MemCycle;
use hydra_types::counter::Sat;
use hydra_types::error::ConfigError;
use hydra_types::geometry::MemGeometry;
use hydra_types::hash::RowMap;
use hydra_types::tracker::{ActivationKind, ActivationTracker, TrackerResponse};

/// A deliberately weak TRR-style sampler (see module docs).
///
/// # Example
///
/// ```
/// use hydra_baselines::trr::VendorTrr;
/// use hydra_types::{ActivationKind, ActivationTracker, MemGeometry, RowAddr};
/// let mut trr = VendorTrr::new(MemGeometry::tiny(), 0, 16, 4)?;
/// let row = RowAddr::new(0, 0, 0, 7);
/// let mut mitigations = 0;
/// for t in 0..64u64 {
///     mitigations += trr.on_activation(row, t, ActivationKind::Demand).mitigations.len();
/// }
/// assert_eq!(mitigations, 4); // tracked row, mitigated every 16 ACTs
/// # Ok::<(), hydra_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct VendorTrr {
    channel: u8,
    banks_per_rank: u8,
    threshold: u32,
    capacity: usize,
    /// Per-bank sampler tables: row → count.
    tables: Vec<RowMap<u32, Sat<u32>>>,
    mitigations: u64,
    escaped_activations: u64,
}

impl VendorTrr {
    /// Creates a TRR sampler with `capacity` tracked rows per bank and the
    /// given mitigation threshold.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for zero capacity/threshold or a bad channel.
    pub fn new(
        geometry: MemGeometry,
        channel: u8,
        threshold: u32,
        capacity: usize,
    ) -> Result<Self, ConfigError> {
        if channel >= geometry.channels() {
            return Err(ConfigError::new("channel out of range"));
        }
        if threshold == 0 || capacity == 0 {
            return Err(ConfigError::new("threshold and capacity must be nonzero"));
        }
        let nbanks =
            usize::from(geometry.ranks_per_channel()) * usize::from(geometry.banks_per_rank());
        Ok(VendorTrr {
            channel,
            banks_per_rank: geometry.banks_per_rank(),
            threshold,
            capacity,
            tables: vec![RowMap::default(); nbanks],
            mitigations: 0,
            escaped_activations: 0,
        })
    }

    /// Activations of rows the sampler was not tracking (the attack surface
    /// TRRespass exploits).
    pub fn escaped_activations(&self) -> u64 {
        self.escaped_activations
    }

    /// Mitigations issued.
    pub fn mitigations(&self) -> u64 {
        self.mitigations
    }
}

impl ActivationTracker for VendorTrr {
    fn on_activation(
        &mut self,
        row: RowAddr,
        _now: MemCycle,
        _kind: ActivationKind,
    ) -> TrackerResponse {
        debug_assert_eq!(row.channel, self.channel);
        let idx = usize::from(row.rank) * usize::from(self.banks_per_rank) + usize::from(row.bank);
        let table = &mut self.tables[idx];
        if let Some(count) = table.get_mut(&row.row) {
            count.increment();
            if count.get::<u32>() >= self.threshold {
                count.set(0);
                self.mitigations += 1;
                return TrackerResponse::mitigate(row);
            }
        } else if table.len() < self.capacity {
            table.insert(row.row, Sat::new(1));
        } else {
            // Table full: this activation is invisible to the sampler.
            self.escaped_activations += 1;
        }
        TrackerResponse::none()
    }

    fn reset_window(&mut self, _now: MemCycle) {
        for t in &mut self.tables {
            t.clear();
        }
    }

    fn name(&self) -> &str {
        "vendor-trr"
    }

    fn sram_bytes(&self) -> u64 {
        // row address (~17 bits) + counter (~9 bits) per entry, per bank.
        (self.tables.len() * self.capacity) as u64 * 4
    }

    fn params(&self) -> String {
        format!("threshold={} capacity={}", self.threshold, self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trr() -> VendorTrr {
        VendorTrr::new(MemGeometry::tiny(), 0, 16, 4).unwrap()
    }

    fn act(t: &mut VendorTrr, row: RowAddr) -> bool {
        !t.on_activation(row, 0, ActivationKind::Demand)
            .mitigations
            .is_empty()
    }

    #[test]
    fn tracked_aggressor_is_mitigated() {
        let mut t = trr();
        let row = RowAddr::new(0, 0, 0, 7);
        let mut mitigations = 0;
        for _ in 0..64 {
            if act(&mut t, row) {
                mitigations += 1;
            }
        }
        assert_eq!(mitigations, 4);
    }

    #[test]
    fn trrespass_many_sided_escapes() {
        // Fill the 4-entry sampler with decoys first, then hammer a fifth
        // row: TRR never sees it.
        let mut t = trr();
        for decoy in 0..4u32 {
            act(&mut t, RowAddr::new(0, 0, 0, 100 + decoy));
        }
        let target = RowAddr::new(0, 0, 0, 7);
        for _ in 0..10_000 {
            assert!(
                !act(&mut t, target),
                "sampler should never catch the target"
            );
        }
        assert_eq!(t.escaped_activations(), 10_000);
        assert_eq!(t.mitigations(), 0);
    }

    #[test]
    fn banks_have_independent_tables() {
        let mut t = trr();
        for decoy in 0..4u32 {
            act(&mut t, RowAddr::new(0, 0, 0, 100 + decoy));
        }
        // Bank 1's table is still empty: its aggressor gets tracked.
        let target = RowAddr::new(0, 0, 1, 7);
        let mut mitigations = 0;
        for _ in 0..16 {
            if act(&mut t, target) {
                mitigations += 1;
            }
        }
        assert_eq!(mitigations, 1);
    }

    #[test]
    fn window_reset_clears_sampler() {
        let mut t = trr();
        for decoy in 0..4u32 {
            act(&mut t, RowAddr::new(0, 0, 0, 100 + decoy));
        }
        t.reset_window(0);
        let target = RowAddr::new(0, 0, 0, 7);
        act(&mut t, target);
        assert_eq!(t.escaped_activations(), 0, "target tracked after reset");
    }

    #[test]
    fn rejects_degenerate_config() {
        assert!(VendorTrr::new(MemGeometry::tiny(), 9, 16, 4).is_err());
        assert!(VendorTrr::new(MemGeometry::tiny(), 0, 0, 4).is_err());
        assert!(VendorTrr::new(MemGeometry::tiny(), 0, 16, 0).is_err());
    }

    #[test]
    fn sampled_counts_cycle_exactly_at_the_threshold() {
        let mut t = trr();
        let row = RowAddr::new(0, 0, 0, 5);
        let mut when = Vec::new();
        for i in 1..=32 {
            if act(&mut t, row) {
                when.push(i);
            }
        }
        assert_eq!(when, vec![16, 32]);
        assert_eq!(t.mitigations(), 2);
    }
}
