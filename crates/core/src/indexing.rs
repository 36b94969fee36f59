//! Row-to-group (and row-to-RCT-slot) index mapping.
//!
//! The default **static** mapping assigns 128 *consecutive* rows to each
//! row-group (Sec. 4.4): group = row-index >> 7. Consecutive rows share a
//! group so that a group's 128 one-byte RCT entries sit in two consecutive
//! 64-byte lines, making the group-spill initialization cost exactly two
//! line reads and two line writes.
//!
//! Footnote 4 also describes a **randomized** design: the b-bit row index is
//! passed through a b-bit block cipher and the *permuted* index is used to
//! index both the GCT and the RCT, so groups remain contiguous in the
//! permuted space (spills still touch two lines) while an attacker can no
//! longer choose which rows share a group. The key can be rotated every
//! tracking window. We implement the cipher as a 4-round balanced Feistel
//! network over the row-index bits, which is a bijection for any key.

use hydra_types::error::ConfigError;

/// Maps a channel-local row index to a *slot* index in `[0, rows)`. The
/// group of a row is `slot >> log2(rows_per_group)` and its RCT entry lives
/// at byte offset `slot` of the RCT region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupIndexer {
    /// Identity mapping: consecutive rows form a group.
    Static {
        /// Total rows covered (power of two).
        rows: u64,
    },
    /// Feistel-permuted mapping with a per-window key.
    Randomized {
        /// Total rows covered (power of two).
        rows: u64,
        /// Current cipher key (rotate with
        /// [`GroupIndexer::rotate_key`] each window).
        key: u64,
    },
}

impl GroupIndexer {
    /// Creates the static indexer, validating that `rows` is a power of two
    /// and divisible by `groups`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `rows` is not a power of two or not
    /// divisible by `groups`.
    pub fn static_for(rows: u64, groups: u64) -> Result<Self, ConfigError> {
        Self::validate(rows, groups)?;
        Ok(GroupIndexer::Static { rows })
    }

    /// Creates the randomized indexer with an initial key.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] under the same conditions as
    /// [`Self::static_for`].
    pub fn randomized_for(rows: u64, groups: u64, key: u64) -> Result<Self, ConfigError> {
        Self::validate(rows, groups)?;
        Ok(GroupIndexer::Randomized { rows, key })
    }

    fn validate(rows: u64, groups: u64) -> Result<(), ConfigError> {
        if rows == 0 || !rows.is_power_of_two() {
            return Err(ConfigError::new(format!(
                "row count {rows} must be a nonzero power of two"
            )));
        }
        if groups == 0 || !rows.is_multiple_of(groups) {
            return Err(ConfigError::new(format!(
                "row count {rows} not divisible by group count {groups}"
            )));
        }
        Ok(())
    }

    /// Rows covered by this indexer.
    pub fn rows(&self) -> u64 {
        match *self {
            GroupIndexer::Static { rows } | GroupIndexer::Randomized { rows, .. } => rows,
        }
    }

    /// Maps a row index to its slot. Bijective over `[0, rows)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `row_index >= rows`.
    #[inline]
    pub fn slot_of_row(&self, row_index: u64) -> u64 {
        debug_assert!(row_index < self.rows());
        match *self {
            GroupIndexer::Static { .. } => row_index,
            GroupIndexer::Randomized { rows, key } => feistel(row_index, rows, key),
        }
    }

    /// Replaces the cipher key (no-op for the static indexer). Called at
    /// tracking-window boundaries to re-randomize the row→group mapping.
    pub fn rotate_key(&mut self, new_key: u64) {
        if let GroupIndexer::Randomized { key, .. } = self {
            *key = new_key;
        }
    }
}

/// A 4-round Feistel-style permutation over `log2(domain)` bits.
///
/// `domain` must be a power of two. The index is split into a left half of
/// `bits - bits/2` bits and a right half of `bits/2` bits; each round XORs
/// one half with a keyed mix of the other, alternating direction. Every
/// round is invertible regardless of the (possibly unequal) half widths, so
/// the whole map is a bijection on `[0, domain)` for any key.
fn feistel(value: u64, domain: u64, key: u64) -> u64 {
    let bits = domain.trailing_zeros();
    if bits < 2 {
        // 1-bit (or degenerate) domains: XOR with the key parity still
        // permutes.
        return value ^ (key & (domain - 1));
    }
    let right_bits = bits / 2;
    let left_bits = bits - right_bits;
    let right_mask = (1u64 << right_bits) - 1;
    let left_mask = (1u64 << left_bits) - 1;
    let mut left = (value >> right_bits) & left_mask;
    let mut right = value & right_mask;
    for round in 0..4u32 {
        let round_key = key.rotate_left(round * 17) ^ u64::from(round);
        if round.is_multiple_of(2) {
            left ^= mix(right ^ round_key) & left_mask;
        } else {
            right ^= mix(left ^ round_key) & right_mask;
        }
    }
    (left << right_bits) | right
}

/// SplitMix64-style integer mixer used as the Feistel round function.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_types::hash::RowSet;

    #[test]
    fn static_is_identity() {
        let ix = GroupIndexer::static_for(1024, 8).unwrap();
        for r in [0u64, 1, 511, 1023] {
            assert_eq!(ix.slot_of_row(r), r);
        }
    }

    #[test]
    fn randomized_is_a_bijection() {
        for &rows in &[16u64, 64, 1024, 4096] {
            for key in [0u64, 1, 0xdead_beef, u64::MAX] {
                let ix = GroupIndexer::randomized_for(rows, 4, key).unwrap();
                let seen: RowSet<u64> = (0..rows).map(|r| ix.slot_of_row(r)).collect();
                assert_eq!(seen.len() as u64, rows, "rows={rows} key={key}");
                assert!(seen.iter().all(|&s| s < rows));
            }
        }
    }

    #[test]
    fn randomized_odd_bit_width_is_a_bijection() {
        // 2048 = 2^11 rows: unequal Feistel halves (6 + 5 bits).
        let ix = GroupIndexer::randomized_for(2048, 16, 42).unwrap();
        let seen: RowSet<u64> = (0..2048).map(|r| ix.slot_of_row(r)).collect();
        assert_eq!(seen.len(), 2048);
    }

    #[test]
    fn different_keys_give_different_permutations() {
        let a = GroupIndexer::randomized_for(4096, 32, 1).unwrap();
        let b = GroupIndexer::randomized_for(4096, 32, 2).unwrap();
        let differs = (0..4096u64).any(|r| a.slot_of_row(r) != b.slot_of_row(r));
        assert!(differs);
    }

    #[test]
    fn rotate_key_changes_mapping() {
        let mut ix = GroupIndexer::randomized_for(4096, 32, 1).unwrap();
        let before: Vec<u64> = (0..64).map(|r| ix.slot_of_row(r)).collect();
        ix.rotate_key(999);
        let after: Vec<u64> = (0..64).map(|r| ix.slot_of_row(r)).collect();
        assert_ne!(before, after);
        // Still a bijection after rotation.
        let seen: RowSet<u64> = (0..4096).map(|r| ix.slot_of_row(r)).collect();
        assert_eq!(seen.len(), 4096);
    }

    #[test]
    fn rotate_key_is_noop_for_static() {
        let mut ix = GroupIndexer::static_for(1024, 8).unwrap();
        ix.rotate_key(123);
        assert_eq!(ix.slot_of_row(5), 5);
    }

    #[test]
    fn rejects_bad_domains() {
        assert!(GroupIndexer::static_for(1000, 8).is_err());
        assert!(GroupIndexer::static_for(1024, 3).is_err());
        assert!(GroupIndexer::static_for(0, 1).is_err());
        assert!(GroupIndexer::randomized_for(1000, 8, 0).is_err());
    }

    #[test]
    fn tiny_domain_is_a_bijection() {
        for key in 0..4u64 {
            let ix = GroupIndexer::randomized_for(2, 1, key).unwrap();
            let a = ix.slot_of_row(0);
            let b = ix.slot_of_row(1);
            assert_ne!(a, b);
            assert!(a < 2 && b < 2);
        }
    }
}
