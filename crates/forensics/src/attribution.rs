//! Aggressor attribution: naming the rows behind the per-row event stream.
//!
//! The tracker's `RctAccess` events carry row addresses for every per-row
//! path activation (RCC hits and RCT reads alike). The
//! [`AttributionEngine`] summarizes that stream in bounded memory with two
//! complementary sketches:
//!
//! - a **Misra-Gries summary** (reused from `hydra-baselines`) names the
//!   candidate heavy rows — it can never miss a true heavy hitter, but its
//!   counts over-approximate by up to the spillover;
//! - a **count-min sketch** gives an independent frequency over-estimate
//!   for *any* row, used to tighten the Misra-Gries counts (the minimum of
//!   two upper bounds is a better upper bound).
//!
//! Row addresses are packed into `u64` keys ([`pack_row`]) so both sketches
//! work over plain integers. The engine is cleared at every window reset,
//! matching the tracker's own per-window counting semantics.

use hydra_baselines::sketch::{CountMinSketch, DEFAULT_DEPTH, DEFAULT_WIDTH};
use hydra_baselines::MisraGries;
use hydra_types::RowAddr;

/// Packs a [`RowAddr`] into a single `u64` sketch key (lossless).
pub fn pack_row(row: RowAddr) -> u64 {
    (u64::from(row.channel) << 48)
        | (u64::from(row.rank) << 40)
        | (u64::from(row.bank) << 32)
        | u64::from(row.row)
}

/// Inverse of [`pack_row`].
#[expect(
    clippy::cast_possible_truncation,
    reason = "each cast keeps exactly the field pack_row shifted into those bits"
)]
pub fn unpack_row(key: u64) -> RowAddr {
    RowAddr {
        channel: (key >> 48) as u8,
        rank: (key >> 40) as u8,
        bank: (key >> 32) as u8,
        row: key as u32,
    }
}

/// Streaming heavy-hitter summary over per-row activation events.
#[derive(Debug, Clone)]
pub struct AttributionEngine {
    mg: MisraGries<u64>,
    cms: CountMinSketch,
    observations: u64,
}

impl Default for AttributionEngine {
    fn default() -> Self {
        Self::new(64, DEFAULT_WIDTH, DEFAULT_DEPTH)
    }
}

impl AttributionEngine {
    /// Creates an engine tracking up to `top_capacity` candidate rows
    /// (clamped to ≥ 1) over a `sketch_width` × `sketch_depth` count-min
    /// sketch.
    pub fn new(top_capacity: usize, sketch_width: usize, sketch_depth: usize) -> Self {
        AttributionEngine {
            mg: MisraGries::new(top_capacity.max(1)),
            cms: CountMinSketch::new(sketch_width, sketch_depth),
            observations: 0,
        }
    }

    /// Records one per-row-path activation of `row`.
    pub fn observe(&mut self, row: RowAddr) {
        let key = pack_row(row);
        self.mg.increment(&key);
        self.cms.increment(key);
        self.observations += 1;
    }

    /// Total observations since the last [`Self::clear`].
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// The tightened over-estimate for `row`'s per-row-path activations:
    /// `min(misra_gries, count_min)`.
    pub fn estimate(&self, row: RowAddr) -> u64 {
        let key = pack_row(row);
        self.mg.estimate(&key).min(self.cms.estimate(key))
    }

    /// The `k` hottest rows with their tightened estimates, sorted by
    /// estimate descending (ties broken by packed address for
    /// determinism).
    pub fn top_k(&self, k: usize) -> Vec<(RowAddr, u64)> {
        let mut rows: Vec<(u64, u64)> = self
            .mg
            .entries()
            .map(|(&key, mg_est)| (key, mg_est.min(self.cms.estimate(key))))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        rows.into_iter()
            .map(|(key, est)| (unpack_row(key), est))
            .collect()
    }

    /// Resets all sketch state (window boundary).
    pub fn clear(&mut self) {
        self.mg.clear();
        self.cms.clear();
        self.observations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrips() {
        for row in [
            RowAddr::new(0, 0, 0, 0),
            RowAddr::new(3, 1, 7, 123_456),
            RowAddr::new(255, 255, 255, u32::MAX),
        ] {
            assert_eq!(unpack_row(pack_row(row)), row);
        }
    }

    #[test]
    fn distinct_rows_pack_to_distinct_keys() {
        // Same row number in different banks must not collide.
        let a = pack_row(RowAddr::new(0, 0, 1, 99));
        let b = pack_row(RowAddr::new(0, 0, 2, 99));
        assert_ne!(a, b);
    }

    #[test]
    fn top_k_names_the_hammered_rows_in_order() {
        let mut engine = AttributionEngine::default();
        let hot = RowAddr::new(0, 0, 1, 100);
        let warm = RowAddr::new(0, 0, 1, 102);
        for i in 0..3_000u32 {
            engine.observe(hot);
            if i % 3 == 0 {
                engine.observe(warm);
            }
            engine.observe(RowAddr::new(0, 0, 0, i % 500)); // background noise
        }
        let top = engine.top_k(2);
        assert_eq!(top[0].0, hot);
        assert_eq!(top[1].0, warm);
        assert!(top[0].1 >= 3_000, "estimate is an upper bound");
        assert!(top[0].1 > top[1].1);
    }

    #[test]
    fn estimate_upper_bounds_true_count() {
        let mut engine = AttributionEngine::new(8, 256, 4);
        let target = RowAddr::new(0, 0, 0, 42);
        for i in 0..1_000u32 {
            engine.observe(RowAddr::new(0, 0, 0, i % 50));
            if i % 10 == 0 {
                engine.observe(target);
            }
        }
        assert!(engine.estimate(target) >= 100);
    }

    #[test]
    fn clear_empties_the_summary() {
        let mut engine = AttributionEngine::default();
        engine.observe(RowAddr::new(0, 0, 0, 1));
        engine.clear();
        assert_eq!(engine.observations(), 0);
        assert!(engine.top_k(4).is_empty());
    }
}
