//! A count-min sketch: bounded-memory frequency estimation with one-sided
//! error.
//!
//! This is the shared sketch primitive behind two consumers:
//!
//! * the **forensics attribution engine** (`hydra-forensics`) pairs it with
//!   the [`crate::misra_gries::MisraGries`] summary — Misra-Gries names
//!   *which* rows are heavy (but its counts inflate by up to the spillover),
//!   while the count-min sketch gives an independent per-row frequency
//!   over-estimate; the minimum of the two tightens both (each is an upper
//!   bound on the true count, so their minimum is too);
//! * the **CoMeT tracker** (`hydra-arena`) uses per-bank sketches as its
//!   first counting tier, recounting exactly in a small recent-aggressor
//!   table once an estimate crosses the early-mitigation threshold.
//!
//! Geometry follows the CoMeT-style sizing argument: with width `w` and
//! depth `d`, the estimate error is at most `2·N/w` with probability
//! `1 − 2⁻ᵈ` over `N` observations — the forensics defaults
//! ([`DEFAULT_WIDTH`] × [`DEFAULT_DEPTH`]) keep a full 64 ms window of
//! per-row-path events within a few counts of truth. Width and depth are
//! constructor parameters; nothing in this module pins them.

use hydra_types::counter::{index, SatCounters};

/// Default bucket width used by the forensics attribution engine.
pub const DEFAULT_WIDTH: usize = 1024;

/// Default hash-row depth used by the forensics attribution engine.
pub const DEFAULT_DEPTH: usize = 4;

/// A count-min sketch over `u64` keys.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    counters: SatCounters<u64>,
    total: u64,
}

/// Per-depth seeds decorrelating the hash rows (arbitrary odd constants).
const ROW_SEEDS: [u64; 8] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xd6e8_feb8_6659_fd93,
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5895_58cb_b654_4243,
];

/// SplitMix64 finalizer: a fast, well-mixed hash for integer keys.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl CountMinSketch {
    /// Creates a sketch with `width` buckets per row and `depth` hash rows
    /// (both clamped to at least 1; depth to at most 8).
    pub fn new(width: usize, depth: usize) -> Self {
        let width = width.max(1);
        let depth = depth.clamp(1, ROW_SEEDS.len());
        CountMinSketch {
            width,
            depth,
            counters: SatCounters::new(width * depth),
            total: 0,
        }
    }

    /// Bucket width per hash row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of hash rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total observations recorded since the last [`Self::clear`].
    pub fn total(&self) -> u64 {
        self.total
    }

    fn bucket(&self, row: usize, key: u64) -> usize {
        index(mix(key ^ ROW_SEEDS[row]) % self.width as u64)
    }

    /// Records one occurrence of `key`, returning its new estimate.
    pub fn increment(&mut self, key: u64) -> u64 {
        self.total = self.total.saturating_add(1);
        let mut est = u64::MAX;
        for d in 0..self.depth {
            let idx = d * self.width + self.bucket(d, key);
            self.counters.increment(idx);
            est = est.min(self.counters.get(idx));
        }
        est
    }

    /// The over-approximate count for `key` (minimum over hash rows).
    pub fn estimate(&self, key: u64) -> u64 {
        let mut est = u64::MAX;
        for d in 0..self.depth {
            est = est.min(self.counters.get(d * self.width + self.bucket(d, key)));
        }
        est
    }

    /// Zeroes every counter (window reset).
    pub fn clear(&mut self) {
        self.counters.reset();
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_types::hash::RowMap;

    #[test]
    fn estimates_never_underestimate() {
        let mut cms = CountMinSketch::new(64, 4);
        let mut exact: RowMap<u64, u64> = RowMap::default();
        for i in 0..5_000u64 {
            // Skewed stream: a few hot keys plus a long tail.
            let key = if i % 3 == 0 { i % 5 } else { i % 999 };
            cms.increment(key);
            *exact.entry(key).or_insert(0) += 1;
        }
        for (&key, &count) in &exact {
            assert!(
                cms.estimate(key) >= count,
                "estimate({key}) = {} < true {count}",
                cms.estimate(key)
            );
        }
    }

    #[test]
    fn hot_keys_estimate_close_to_truth() {
        let mut cms = CountMinSketch::new(DEFAULT_WIDTH, DEFAULT_DEPTH);
        for _ in 0..10_000u64 {
            cms.increment(42);
        }
        for i in 0..500u64 {
            cms.increment(1_000 + i);
        }
        let est = cms.estimate(42);
        assert!(est >= 10_000);
        // Error bound 2N/w ≈ 20: the hot key's estimate is near-exact.
        assert!(est <= 10_000 + 40, "estimate too loose: {est}");
    }

    #[test]
    fn unseen_keys_stay_near_zero_on_sparse_streams() {
        let mut cms = CountMinSketch::new(DEFAULT_WIDTH, DEFAULT_DEPTH);
        for i in 0..64u64 {
            cms.increment(i);
        }
        assert!(cms.estimate(999_999) <= 2);
    }

    #[test]
    fn clear_resets_everything() {
        let mut cms = CountMinSketch::new(16, 2);
        cms.increment(7);
        cms.clear();
        assert_eq!(cms.total(), 0);
        assert_eq!(cms.estimate(7), 0);
    }

    #[test]
    fn degenerate_dimensions_are_clamped() {
        let cms = CountMinSketch::new(0, 0);
        assert_eq!(cms.width(), 1);
        assert_eq!(cms.depth(), 1);
        let cms = CountMinSketch::new(4, 100);
        assert_eq!(cms.depth(), ROW_SEEDS.len());
    }

    #[test]
    fn single_key_counts_stay_exact() {
        let mut cms = CountMinSketch::new(64, 4);
        for expected in 1..=300u64 {
            assert_eq!(cms.increment(7), expected);
        }
        assert_eq!(cms.estimate(7), 300);
        assert_eq!(cms.total(), 300);
    }
}
