//! TWiCE-style pruned counter table (Lee et al., ISCA 2019).
//!
//! TWiCE keeps a tagged table of activation counts and periodically *prunes*
//! entries whose counts are too low to reach the threshold within the
//! remaining refresh window, bounding table occupancy. The pruning interval
//! splits the window into `threshold / prune_ratio` checkpoints; an entry
//! surviving checkpoint `k` must have at least `k * prune_ratio` counts.
//!
//! This functional model exists for the storage comparison (Tables 1 & 5 use
//! the analytic model in [`crate::storage`]) and to demonstrate the paper's
//! point that the entry count needed for a guarantee scales as
//! `ACT_max / T_RH` and explodes at ultra-low thresholds.

use hydra_types::addr::RowAddr;
use hydra_types::clock::MemCycle;
use hydra_types::error::ConfigError;
use hydra_types::hash::RowMap;

/// A TWiCE-style table for one bank (or any address scope the caller picks).
///
/// # Example
///
/// ```
/// use hydra_baselines::TwiceTable;
/// use hydra_types::RowAddr;
/// let mut t = TwiceTable::new(64, 16, 1000, 4)?;
/// let row = RowAddr::new(0, 0, 0, 1);
/// let mut mitigations = 0;
/// for i in 0..64u64 {
///     if t.on_activation(row, i) { mitigations += 1; }
/// }
/// assert_eq!(mitigations, 4); // every 16 activations
/// # Ok::<(), hydra_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TwiceTable {
    entries: RowMap<RowAddr, u32>,
    capacity: usize,
    threshold: u32,
    window: MemCycle,
    checkpoints: u32,
    last_checkpoint: u32,
    overflowed: bool,
    mitigations: u64,
    pruned: u64,
}

impl TwiceTable {
    /// Creates a table with `capacity` entries, mitigating at `threshold`,
    /// over a window of `window` cycles split into `checkpoints` pruning
    /// intervals.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for zero parameters or `checkpoints >=
    /// threshold` (pruning would outpace counting).
    pub fn new(
        capacity: usize,
        threshold: u32,
        window: MemCycle,
        checkpoints: u32,
    ) -> Result<Self, ConfigError> {
        if capacity == 0 || threshold == 0 || window == 0 || checkpoints == 0 {
            return Err(ConfigError::new("all TWiCE parameters must be nonzero"));
        }
        if checkpoints >= threshold {
            return Err(ConfigError::new(
                "checkpoint count must be below the threshold",
            ));
        }
        Ok(TwiceTable {
            entries: RowMap::with_capacity_and_hasher(capacity, Default::default()),
            capacity,
            threshold,
            window,
            checkpoints,
            last_checkpoint: 0,
            overflowed: false,
            mitigations: 0,
            pruned: 0,
        })
    }

    /// Records an activation at `now`; returns `true` if the row must be
    /// mitigated (its count reached the threshold; the count resets).
    pub fn on_activation(&mut self, row: RowAddr, now: MemCycle) -> bool {
        self.prune(now);
        if !self.entries.contains_key(&row) && self.entries.len() >= self.capacity {
            // Table overflow: TWiCE loses the tracking guarantee here — the
            // condition the Hydra paper's Table 1 sizes against.
            self.overflowed = true;
            return false;
        }
        let count = self.entries.entry(row).or_insert(0);
        *count = count.saturating_add(1);
        if *count >= self.threshold {
            *count = 0;
            self.mitigations += 1;
            true
        } else {
            false
        }
    }

    fn prune(&mut self, now: MemCycle) {
        let checkpoint =
            ((now % self.window) * MemCycle::from(self.checkpoints) / self.window) as u32;
        if now % self.window < self.window / MemCycle::from(self.checkpoints).max(1)
            && self.last_checkpoint > checkpoint
        {
            // Window wrapped: clear everything.
            self.entries.clear();
            self.last_checkpoint = 0;
            return;
        }
        if checkpoint > self.last_checkpoint {
            // An entry that could still reach `threshold` must have at least
            // (checkpoint / checkpoints) * threshold counts by now.
            let floor = self.threshold * checkpoint / self.checkpoints;
            let before = self.entries.len();
            self.entries
                .retain(|_, &mut c| c >= floor.saturating_sub(1));
            self.pruned += (before - self.entries.len()) as u64;
            self.last_checkpoint = checkpoint;
        }
    }

    /// True if the table ever overflowed (tracking guarantee lost).
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Entries currently resident.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Entries pruned so far.
    pub fn pruned(&self) -> u64 {
        self.pruned
    }

    /// Mitigations issued.
    pub fn mitigations(&self) -> u64 {
        self.mitigations
    }

    /// Clears the table (window reset).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.last_checkpoint = 0;
        self.overflowed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_row_is_mitigated() {
        let mut t = TwiceTable::new(16, 10, 1_000, 4).unwrap();
        let row = RowAddr::new(0, 0, 0, 1);
        let mut mitigations = 0;
        for i in 0..50u64 {
            if t.on_activation(row, i) {
                mitigations += 1;
            }
        }
        assert_eq!(mitigations, 5);
    }

    #[test]
    fn pruning_drops_cold_entries() {
        let mut t = TwiceTable::new(1024, 100, 1_000, 4).unwrap();
        // 200 cold rows early in the window.
        for r in 0..200u32 {
            t.on_activation(RowAddr::new(0, 0, 0, r), 0);
        }
        assert_eq!(t.occupancy(), 200);
        // Cross a checkpoint: cold entries (count 1 < floor) are pruned.
        t.on_activation(RowAddr::new(0, 0, 0, 1000), 600);
        assert!(t.occupancy() < 200, "occupancy {}", t.occupancy());
        assert!(t.pruned() > 0);
    }

    #[test]
    fn overflow_is_detected() {
        let mut t = TwiceTable::new(4, 100, 1_000_000, 2).unwrap();
        for r in 0..10u32 {
            t.on_activation(RowAddr::new(0, 0, 0, r), 0);
        }
        assert!(t.overflowed());
    }

    #[test]
    fn reset_clears_state() {
        let mut t = TwiceTable::new(4, 100, 1_000, 2).unwrap();
        for r in 0..10u32 {
            t.on_activation(RowAddr::new(0, 0, 0, r), 0);
        }
        t.reset();
        assert!(!t.overflowed());
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(TwiceTable::new(0, 10, 10, 2).is_err());
        assert!(TwiceTable::new(4, 0, 10, 2).is_err());
        assert!(TwiceTable::new(4, 10, 0, 2).is_err());
        assert!(TwiceTable::new(4, 10, 10, 10).is_err());
    }

    #[test]
    fn counts_cycle_exactly_at_the_threshold() {
        let mut t = TwiceTable::new(16, 7, 1_000, 4).unwrap();
        let row = RowAddr::new(0, 0, 0, 2);
        let mut when = Vec::new();
        for i in 0..21u64 {
            if t.on_activation(row, i) {
                when.push(i + 1);
            }
        }
        assert_eq!(when, vec![7, 14, 21]);
    }
}
