//! The synthetic trace generator engine.
//!
//! Generates an endless post-LLC memory-access stream with four calibrated
//! marginals (see [`crate::spec::WorkloadSpec`]):
//!
//! * **MPKI** — instruction gaps between accesses are geometric with mean
//!   `1000 / mpki`.
//! * **Footprint** — accesses target `unique_rows / scale` distinct rows,
//!   spread bijectively across the whole address space (banks, channels).
//! * **Hot set** — `act250_rows / scale` rows absorb enough of the access
//!   stream that each exceeds 250 activations per window.
//! * **Row-buffer locality** — each row visit issues a geometric burst of
//!   consecutive-line accesses (mean `burst`), which the memory controller
//!   turns into row hits, controlling the ACT-per-access ratio.

use crate::spec::WorkloadSpec;
use crate::trace::{TraceOp, TraceSource};
use crate::zipf::Zipf;
use hydra_types::addr::RowAddr;
use hydra_types::geometry::MemGeometry;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Odd multiplier (invertible mod 2^k) that spreads footprint indices over
/// the row space so consecutive indices land in different banks/channels.
const SPREAD: u64 = 0x9E37_79B9 | 1;

/// Target activations per hot row per window (comfortably above the 250
/// cutoff Table 3 counts).
const HOT_ACTS_TARGET: f64 = 400.0;

/// A seeded synthetic trace for one workload.
///
/// See the crate-level example. Streams are deterministic per seed.
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    name: String,
    geometry: MemGeometry,
    rng: SmallRng,
    footprint: u64,
    hot_rows: u64,
    p_hot: f64,
    cold: Zipf,
    burst_q: f64,
    gap_q: f64,
    write_frac: f64,
    // In-flight burst state.
    current_row: RowAddr,
    current_col: u32,
    remaining: u32,
}

impl SyntheticTrace {
    /// Builds a generator from a workload spec (used via
    /// [`WorkloadSpec::build`]).
    ///
    /// # Panics
    ///
    /// Panics if `scale == 0`.
    pub fn from_spec(spec: &WorkloadSpec, geometry: MemGeometry, scale: u64, seed: u64) -> Self {
        assert!(scale > 0, "scale must be nonzero");
        let footprint = (spec.unique_rows / scale).max(8).min(geometry.total_rows());
        let hot_rows = if spec.act250_rows == 0 {
            0
        } else {
            (spec.act250_rows / scale).max(1).min(footprint / 2)
        };
        // Share of accesses aimed at the hot set so each hot row clears the
        // 250-ACT bar within a window.
        let total_acts = footprint as f64 * spec.acts_per_row;
        let p_hot = if hot_rows == 0 {
            0.0
        } else {
            (hot_rows as f64 * HOT_ACTS_TARGET / total_acts).clamp(0.01, 0.8)
        };
        let cold_rows = (footprint - hot_rows).max(1);
        let burst_q = 1.0 - 1.0 / spec.burst.max(1.0);
        let gap_mean = (1000.0 / spec.mpki).max(1.0);
        let gap_q = 1.0 - 1.0 / gap_mean;
        SyntheticTrace {
            name: spec.name.to_string(),
            geometry,
            rng: SmallRng::seed_from_u64(seed ^ 0xD6E8_FEB8_6659_FD93),
            footprint,
            hot_rows,
            p_hot,
            cold: Zipf::new(cold_rows as usize, spec.theta),
            burst_q,
            gap_q,
            write_frac: spec.write_frac,
            current_row: RowAddr::default(),
            current_col: 0,
            remaining: 0,
        }
    }

    /// Rows this generator can touch.
    pub fn footprint_rows(&self) -> u64 {
        self.footprint
    }

    /// Hot-set size (rows meant to exceed 250 ACTs per window).
    pub fn hot_rows(&self) -> u64 {
        self.hot_rows
    }

    /// Share of accesses aimed at the hot set.
    pub fn hot_share(&self) -> f64 {
        self.p_hot
    }

    /// Maps a footprint index to its physical row.
    fn row_of_index(&self, index: u64) -> RowAddr {
        let flat = (index.wrapping_mul(SPREAD)) & (self.geometry.total_rows() - 1);
        self.geometry.row_of_flat_index(flat)
    }

    fn sample_geometric(&mut self, q: f64) -> u32 {
        // Geometric with success prob (1-q): P(k) = (1-q) q^(k-1), k >= 1.
        if q <= 0.0 {
            return 1;
        }
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let k = (u.ln() / q.ln()).floor() as u32 + 1;
        k.min(1 << 20)
    }

    fn begin_burst(&mut self) {
        let index = if self.hot_rows > 0 && self.rng.gen_bool(self.p_hot) {
            self.rng.gen_range(0..self.hot_rows)
        } else {
            self.hot_rows + self.cold.sample(&mut self.rng) as u64
        };
        self.current_row = self.row_of_index(index);
        let lines = self.geometry.lines_per_row() as u32;
        self.current_col = self.rng.gen_range(0..lines);
        self.remaining = self.sample_geometric(self.burst_q).min(lines);
    }
}

impl TraceSource for SyntheticTrace {
    fn next_op(&mut self) -> TraceOp {
        if self.remaining == 0 {
            self.begin_burst();
        }
        let lines = self.geometry.lines_per_row() as u32;
        let addr = self
            .geometry
            .line_of_row(self.current_row, self.current_col);
        self.current_col = (self.current_col + 1) % lines;
        self.remaining -= 1;
        let gap = self.sample_geometric(self.gap_q);
        let write_frac = self.write_frac;
        TraceOp {
            gap,
            addr,
            is_write: self.rng.gen_bool(write_frac),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use hydra_types::hash::RowSet;

    fn build(name: &str, seed: u64) -> SyntheticTrace {
        registry::by_name(name)
            .unwrap()
            .build(MemGeometry::isca22_baseline(), 64, seed)
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = build("mcf", 1);
        let mut b = build("mcf", 1);
        let mut c = build("mcf", 2);
        let ops_a: Vec<TraceOp> = (0..100).map(|_| a.next_op()).collect();
        let ops_b: Vec<TraceOp> = (0..100).map(|_| b.next_op()).collect();
        let ops_c: Vec<TraceOp> = (0..100).map(|_| c.next_op()).collect();
        assert_eq!(ops_a, ops_b);
        assert_ne!(ops_a, ops_c);
    }

    #[test]
    fn footprint_is_bounded() {
        let geom = MemGeometry::isca22_baseline();
        let mut t = build("leela", 1); // 720 rows / 64 -> floor 11 rows
        let mut rows = RowSet::default();
        for _ in 0..20_000 {
            rows.insert(geom.row_of_line(t.next_op().addr));
        }
        assert!(rows.len() as u64 <= t.footprint_rows());
        assert!(rows.len() >= 2);
    }

    #[test]
    fn mean_gap_tracks_mpki() {
        let mut t = build("bwaves", 3); // MPKI 39.6 -> mean gap ~25
        let n = 50_000;
        let total: u64 = (0..n).map(|_| u64::from(t.next_op().gap)).sum();
        let mean = total as f64 / n as f64;
        assert!((20.0..32.0).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn hot_rows_absorb_configured_share() {
        let geom = MemGeometry::isca22_baseline();
        let mut t = build("parest", 4);
        assert!(t.hot_rows() > 0);
        // Count accesses landing on the hot set (indices < hot_rows).
        let hot_set: RowSet<RowAddr> = (0..t.hot_rows()).map(|i| t.row_of_index(i)).collect();
        let n = 50_000;
        let hot_hits = (0..n)
            .filter(|_| {
                let op = t.next_op();
                hot_set.contains(&geom.row_of_line(op.addr))
            })
            .count();
        let share = hot_hits as f64 / n as f64;
        let expect = t.hot_share();
        assert!(
            (share - expect).abs() < 0.05,
            "hot share {share} vs configured {expect}"
        );
    }

    #[test]
    fn burst_visits_consecutive_lines_of_one_row() {
        let geom = MemGeometry::isca22_baseline();
        let mut t = build("bwaves", 5); // burst 8
                                        // Collect pairs; many consecutive ops should share a row.
        let mut same_row = 0;
        let mut prev = geom.row_of_line(t.next_op().addr);
        let n = 10_000;
        for _ in 0..n {
            let row = geom.row_of_line(t.next_op().addr);
            if row == prev {
                same_row += 1;
            }
            prev = row;
        }
        // Mean burst 8 -> ~7/8 of transitions stay in-row.
        let frac = same_row as f64 / n as f64;
        assert!(frac > 0.7, "in-row transition fraction {frac}");
    }

    #[test]
    fn gups_has_no_hot_set_and_no_bursts() {
        let geom = MemGeometry::isca22_baseline();
        let mut t = build("gups", 6);
        assert_eq!(t.hot_rows(), 0);
        let mut same_row = 0;
        let mut prev = geom.row_of_line(t.next_op().addr);
        for _ in 0..5_000 {
            let row = geom.row_of_line(t.next_op().addr);
            if row == prev {
                same_row += 1;
            }
            prev = row;
        }
        assert!(same_row < 250, "gups should be burst-free, got {same_row}");
    }

    #[test]
    fn write_fraction_is_respected() {
        let mut t = build("gups", 7); // write_frac 0.5
        let n = 20_000;
        let writes = (0..n).filter(|_| t.next_op().is_write).count();
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "write frac {frac}");
    }

    #[test]
    fn all_registered_workloads_build_and_stream() {
        let geom = MemGeometry::isca22_baseline();
        for spec in &registry::ALL {
            let mut t = spec.build(geom, 64, 42);
            for _ in 0..100 {
                let op = t.next_op();
                assert!(op.addr.index() < geom.total_lines());
            }
            assert_eq!(t.name(), spec.name);
        }
    }
}
