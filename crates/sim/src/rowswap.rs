//! Randomized row swap (RRS) — the migration-based mitigation the paper
//! names as future work (Sec. 8; Saileshwar et al., ASPLOS 2022).
//!
//! Instead of refreshing victims, RRS *relocates* the aggressor: an
//! indirection table remaps the aggressor's logical row to a randomly
//! chosen physical row of the same bank (and vice versa), so the physical
//! neighbours an attacker was charging change under its feet. The swap
//! itself costs two full row copies (read + write per row), which the
//! controller charges as side traffic.
//!
//! This module owns the logical→physical indirection and partner selection;
//! the controller consults it on every enqueue and asks it to swap when the
//! tracker fires under [`MitigationPolicy::RowSwap`].
//!
//! [`MitigationPolicy::RowSwap`]: hydra_types::mitigation::MitigationPolicy

use hydra_types::addr::RowAddr;
use hydra_types::geometry::MemGeometry;
use hydra_types::hash::RowMap;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Logical→physical row indirection with randomized swapping.
///
/// # Example
///
/// ```
/// use hydra_sim::rowswap::RowIndirection;
/// use hydra_types::{MemGeometry, RowAddr};
/// let geom = MemGeometry::tiny();
/// let mut ind = RowIndirection::new(geom, 42);
/// let row = RowAddr::new(0, 0, 0, 100);
/// assert_eq!(ind.physical(row), row); // identity until a swap
/// let partner = ind.swap(row);
/// assert_eq!(ind.physical(row), partner);
/// assert_eq!(ind.physical(partner), row);
/// ```
#[derive(Debug, Clone)]
pub struct RowIndirection {
    geometry: MemGeometry,
    map: RowMap<RowAddr, RowAddr>,
    inverse: RowMap<RowAddr, RowAddr>,
    rng: SmallRng,
    swaps: u64,
}

impl RowIndirection {
    /// Creates an identity indirection with a seeded partner RNG.
    pub fn new(geometry: MemGeometry, seed: u64) -> Self {
        RowIndirection {
            geometry,
            map: RowMap::default(),
            inverse: RowMap::default(),
            rng: SmallRng::seed_from_u64(seed),
            swaps: 0,
        }
    }

    /// The physical row currently backing logical `row`.
    #[inline]
    pub fn physical(&self, row: RowAddr) -> RowAddr {
        self.map.get(&row).copied().unwrap_or(row)
    }

    /// The logical row currently mapped onto physical `row` (the inverse of
    /// [`Self::physical`]). The controller uses it to find which logical row
    /// an aggressing *physical* row belongs to.
    #[inline]
    pub fn logical_of(&self, physical: RowAddr) -> RowAddr {
        self.inverse.get(&physical).copied().unwrap_or(physical)
    }

    /// Swaps logical `row` with a uniformly random partner row of the same
    /// bank; returns the aggressor's *new* physical row. Both rows' mappings
    /// update so the indirection stays a bijection.
    pub fn swap(&mut self, row: RowAddr) -> RowAddr {
        let rows_per_bank = self.geometry.rows_per_bank();
        let partner_logical = loop {
            let candidate = RowAddr {
                row: self.rng.gen_range(0..rows_per_bank),
                ..row
            };
            if candidate != row {
                break candidate;
            }
        };
        let phys_a = self.physical(row);
        let phys_b = self.physical(partner_logical);
        self.set_mapping(row, phys_b);
        self.set_mapping(partner_logical, phys_a);
        self.swaps += 1;
        self.physical(row)
    }

    fn set_mapping(&mut self, logical: RowAddr, physical: RowAddr) {
        // Keep the tables minimal: identity entries are dropped.
        if logical == physical {
            self.map.remove(&logical);
            self.inverse.remove(&physical);
        } else {
            self.map.insert(logical, physical);
            self.inverse.insert(physical, logical);
        }
    }

    /// Total swaps performed.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Entries currently remapped (diagnostics; bounds the indirection-table
    /// SRAM a real RRS implementation needs).
    pub fn remapped_rows(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_types::hash::RowSet;

    fn indirection() -> RowIndirection {
        RowIndirection::new(MemGeometry::tiny(), 7)
    }

    #[test]
    fn identity_before_any_swap() {
        let ind = indirection();
        for r in [0u32, 5, 1023] {
            let row = RowAddr::new(0, 0, 2, r);
            assert_eq!(ind.physical(row), row);
        }
        assert_eq!(ind.remapped_rows(), 0);
    }

    #[test]
    fn swap_is_symmetric() {
        let mut ind = indirection();
        let a = RowAddr::new(0, 0, 0, 100);
        let b = ind.swap(a);
        assert_ne!(a, b);
        assert_eq!(ind.physical(a), b);
        assert_eq!(ind.physical(b), a);
        assert_eq!(ind.logical_of(b), a);
        assert_eq!(ind.logical_of(a), b);
        assert_eq!(ind.swaps(), 1);
    }

    #[test]
    fn inverse_follows_chained_swaps() {
        let mut ind = indirection();
        let a = RowAddr::new(0, 0, 0, 10);
        for _ in 0..10 {
            let phys = ind.swap(a);
            assert_eq!(ind.logical_of(phys), a);
            assert_eq!(ind.physical(a), phys);
        }
    }

    #[test]
    fn swap_stays_in_bank() {
        let mut ind = indirection();
        for i in 0..50u32 {
            let row = RowAddr::new(0, 0, 3, i);
            let partner = ind.swap(row);
            assert_eq!(partner.bank_coord(), row.bank_coord());
        }
    }

    #[test]
    fn repeated_swaps_keep_bijection() {
        let mut ind = indirection();
        let rows: Vec<RowAddr> = (0..40u32).map(|r| RowAddr::new(0, 0, 1, r)).collect();
        for (i, &row) in rows.iter().cycle().take(400).enumerate() {
            if i.is_multiple_of(3) {
                ind.swap(row);
            }
        }
        // Bijection over the whole bank: physical images of all logical rows
        // must be distinct.
        let images: RowSet<RowAddr> = (0..1024u32)
            .map(|r| ind.physical(RowAddr::new(0, 0, 1, r)))
            .collect();
        assert_eq!(images.len(), 1024);
    }

    #[test]
    fn swapping_moves_the_aggressor_away_from_victims() {
        // The security point of RRS: after a swap, the aggressor's physical
        // neighbours change.
        let mut ind = indirection();
        let aggressor = RowAddr::new(0, 0, 0, 500);
        let before = ind.physical(aggressor);
        let after = ind.swap(aggressor);
        assert_ne!(before.row.abs_diff(after.row), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = RowIndirection::new(MemGeometry::tiny(), 9);
        let mut b = RowIndirection::new(MemGeometry::tiny(), 9);
        let row = RowAddr::new(0, 0, 0, 1);
        assert_eq!(a.swap(row), b.swap(row));
    }
}
