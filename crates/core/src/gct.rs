//! Group-Count Table (GCT): the first head of Hydra.
//!
//! An untagged SRAM table of saturating counters, indexed by row-group. Each
//! entry counts activations of *any* row in its group, saturating at `T_G`.
//! An entry equal to `T_G` means "this group has too many activations for
//! aggregate tracking — use the per-row path" (Sec. 4.4).

use hydra_types::counter::SatCounters;

/// Result of incrementing a GCT entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GctOutcome {
    /// The entry is still below `T_G`; aggregate tracking suffices.
    Below,
    /// This increment made the entry reach `T_G`: the caller must spill the
    /// group (initialize all of its RCT entries to `T_G`).
    JustSaturated,
    /// The entry was already at `T_G`; the caller must use per-row tracking.
    Saturated,
}

/// The Group-Count Table.
///
/// # Example
///
/// ```
/// use hydra_core::gct::{GctOutcome, GroupCountTable};
/// let mut gct = GroupCountTable::new(4, 3);
/// assert_eq!(gct.increment(0), GctOutcome::Below);
/// assert_eq!(gct.increment(0), GctOutcome::Below);
/// assert_eq!(gct.increment(0), GctOutcome::JustSaturated);
/// assert_eq!(gct.increment(0), GctOutcome::Saturated);
/// gct.reset();
/// assert_eq!(gct.increment(0), GctOutcome::Below);
/// ```
#[derive(Debug, Clone)]
pub struct GroupCountTable {
    counts: SatCounters<u32>,
    t_g: u32,
}

impl GroupCountTable {
    /// Creates a GCT with `entries` zeroed counters saturating at `t_g`.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0` or `t_g == 0`.
    pub fn new(entries: usize, t_g: u32) -> Self {
        assert!(entries > 0, "GCT needs at least one entry");
        assert!(t_g > 0, "T_G must be nonzero");
        GroupCountTable {
            counts: SatCounters::new(entries),
            t_g,
        }
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.counts.len()
    }

    /// The saturation threshold `T_G`.
    pub fn t_g(&self) -> u32 {
        self.t_g
    }

    /// Current count of a group (for inspection/tests).
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn count(&self, group: usize) -> u32 {
        self.counts.get(group)
    }

    /// True if the group's entry has saturated at `T_G`.
    pub fn is_saturated(&self, group: usize) -> bool {
        self.counts.get::<u32>(group) >= self.t_g
    }

    /// Increments the group's counter (saturating at `T_G`) and reports
    /// which tracking regime applies.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    #[inline]
    pub fn increment(&mut self, group: usize) -> GctOutcome {
        let c: u32 = self.counts.get(group);
        if c >= self.t_g {
            GctOutcome::Saturated
        } else {
            self.counts.increment(group);
            if c + 1 == self.t_g {
                GctOutcome::JustSaturated
            } else {
                GctOutcome::Below
            }
        }
    }

    /// Clears all counters (tracking-window reset, Sec. 4.6).
    pub fn reset(&mut self) {
        self.counts.reset();
    }

    /// Number of groups currently saturated (diagnostics).
    pub fn saturated_groups(&self) -> usize {
        (0..self.counts.len())
            .filter(|&g| self.is_saturated(g))
            .count()
    }

    /// SRAM bits for this table: entries × ceil(log2(T_G + 1)). The paper's
    /// Table 4 counts 8 bits per entry for T_G = 200.
    pub fn sram_bits(&self) -> u64 {
        let bits_per_entry = 32 - (self.t_g).leading_zeros() as u64;
        self.counts.len() as u64 * bits_per_entry.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_saturate_at_tg() {
        let mut gct = GroupCountTable::new(2, 5);
        for _ in 0..4 {
            assert_eq!(gct.increment(1), GctOutcome::Below);
        }
        assert_eq!(gct.increment(1), GctOutcome::JustSaturated);
        for _ in 0..10 {
            assert_eq!(gct.increment(1), GctOutcome::Saturated);
        }
        assert_eq!(gct.count(1), 5);
        assert!(gct.is_saturated(1));
        assert!(!gct.is_saturated(0));
    }

    #[test]
    fn just_saturated_fires_exactly_once() {
        let mut gct = GroupCountTable::new(1, 3);
        let mut fires = 0;
        for _ in 0..100 {
            if gct.increment(0) == GctOutcome::JustSaturated {
                fires += 1;
            }
        }
        assert_eq!(fires, 1);
    }

    #[test]
    fn groups_are_independent() {
        let mut gct = GroupCountTable::new(3, 2);
        gct.increment(0);
        gct.increment(0);
        assert!(gct.is_saturated(0));
        assert_eq!(gct.count(1), 0);
        assert_eq!(gct.count(2), 0);
        assert_eq!(gct.saturated_groups(), 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut gct = GroupCountTable::new(2, 2);
        gct.increment(0);
        gct.increment(0);
        gct.increment(1);
        gct.reset();
        assert_eq!(gct.count(0), 0);
        assert_eq!(gct.count(1), 0);
        assert_eq!(gct.saturated_groups(), 0);
    }

    #[test]
    fn sram_bits_match_table4() {
        // 32K entries at T_G = 200 -> 8 bits each -> 32 KB.
        let gct = GroupCountTable::new(32 * 1024, 200);
        assert_eq!(gct.sram_bits(), 32 * 1024 * 8);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        let _ = GroupCountTable::new(0, 5);
    }

    #[test]
    fn count_pins_at_t_g_instead_of_wrapping() {
        let mut gct = GroupCountTable::new(4, 3);
        assert_eq!(gct.increment(0), GctOutcome::Below);
        assert_eq!(gct.increment(0), GctOutcome::Below);
        assert_eq!(gct.increment(0), GctOutcome::JustSaturated);
        for _ in 0..300 {
            assert_eq!(gct.increment(0), GctOutcome::Saturated);
        }
        // The stored count holds at T_G: it can never climb past the
        // saturation guard and wrap back below it.
        assert_eq!(gct.count(0), 3);
        assert!(gct.is_saturated(0));
    }
}
