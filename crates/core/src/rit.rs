//! RIT-ACT: dedicated SRAM counters protecting the RCT's own DRAM rows.
//!
//! The RCT lives in DRAM, so an adversary could Row-Hammer the counter rows
//! themselves by forcing rapid RCT traffic (Sec. 5.2.2). Hydra therefore
//! keeps one small SRAM counter per reserved row (512 bytes for the
//! baseline), mitigating and resetting when a counter reaches `T_H`, and
//! clearing them all at every tracking-window reset.

use hydra_types::counter::SatCounters;

/// Per-reserved-row activation counters.
///
/// # Example
///
/// ```
/// use hydra_core::rit::RitActTable;
/// let mut rit = RitActTable::new(4, 3);
/// assert!(!rit.on_activation(0));
/// assert!(!rit.on_activation(0));
/// assert!(rit.on_activation(0)); // 3rd activation reaches T_H: mitigate
/// assert!(!rit.on_activation(0)); // counter was reset
/// ```
#[derive(Debug, Clone)]
pub struct RitActTable {
    counts: SatCounters<u32>,
    t_h: u32,
    mitigations: u64,
}

impl RitActTable {
    /// Creates counters for `rows` reserved rows with threshold `t_h`.
    ///
    /// # Panics
    ///
    /// Panics if `t_h == 0`.
    pub fn new(rows: usize, t_h: u32) -> Self {
        assert!(t_h > 0, "T_H must be nonzero");
        RitActTable {
            counts: SatCounters::new(rows),
            t_h,
            mitigations: 0,
        }
    }

    /// Number of protected rows.
    pub fn rows(&self) -> usize {
        self.counts.len()
    }

    /// Mitigations issued for RCT rows so far.
    pub fn mitigations(&self) -> u64 {
        self.mitigations
    }

    /// Records an activation of reserved row `index`. Returns `true` if the
    /// count reached `T_H` — the caller must mitigate the row; the counter
    /// resets.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn on_activation(&mut self, index: usize) -> bool {
        self.counts.increment(index);
        if self.counts.get::<u32>(index) >= self.t_h {
            self.counts.set(index, 0);
            self.mitigations += 1;
            true
        } else {
            false
        }
    }

    /// Current count for a row (diagnostics).
    pub fn count(&self, index: usize) -> u32 {
        self.counts.get(index)
    }

    /// Clears all counters (tracking-window reset).
    pub fn reset(&mut self) {
        self.counts.reset();
    }

    /// SRAM bits: one byte per protected row (Table 4: "RIT-ACT, 8-bit, 512
    /// entries, 0.5 KB").
    pub fn sram_bits(&self) -> u64 {
        self.counts.len() as u64 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mitigates_every_th_activations() {
        let mut rit = RitActTable::new(2, 5);
        let mut mitigations = 0;
        for _ in 0..23 {
            if rit.on_activation(1) {
                mitigations += 1;
            }
        }
        assert_eq!(mitigations, 4); // floor(23 / 5)
        assert_eq!(rit.count(1), 3);
        assert_eq!(rit.mitigations(), 4);
    }

    #[test]
    fn rows_are_independent() {
        let mut rit = RitActTable::new(3, 2);
        rit.on_activation(0);
        assert_eq!(rit.count(0), 1);
        assert_eq!(rit.count(1), 0);
    }

    #[test]
    fn reset_clears_counts() {
        let mut rit = RitActTable::new(1, 10);
        for _ in 0..7 {
            rit.on_activation(0);
        }
        rit.reset();
        assert_eq!(rit.count(0), 0);
    }

    #[test]
    fn baseline_storage_is_half_kb() {
        let rit = RitActTable::new(512, 250);
        assert_eq!(rit.sram_bits(), 512 * 8);
    }

    #[test]
    fn counts_cycle_exactly_through_many_t_h_periods() {
        let mut rit = RitActTable::new(8, 5);
        let mut mitigated = 0u64;
        for _ in 0..17 {
            if rit.on_activation(2) {
                mitigated += 1;
            }
        }
        // 17 activations at T_H = 5: resets at 5, 10 and 15, leaving 2.
        // Saturating arithmetic must not round this cadence off.
        assert_eq!(mitigated, 3);
        assert_eq!(rit.mitigations(), 3);
        assert_eq!(rit.count(2), 2);
    }
}
