//! Row-Hammer attack-pattern generators (Secs. 2.3, 5.2, 5.3).
//!
//! Each pattern produces both a raw aggressor-row stream (for the
//! activation-level simulator and security tests) and a [`TraceSource`]
//! stream of line accesses (for the full-system simulator). Patterns
//! alternate rows so that consecutive accesses conflict in the row buffer
//! and every access becomes an activation — the attacker's optimal strategy.

use crate::trace::{TraceOp, TraceSource};
use hydra_types::addr::RowAddr;
use hydra_types::geometry::MemGeometry;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A Row-Hammer access pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackPattern {
    /// Hammer one aggressor row (victims at distance 1–2).
    SingleSided {
        /// The aggressor row.
        aggressor: RowAddr,
    },
    /// Alternate the two rows sandwiching a victim (`victim ± 1`).
    DoubleSided {
        /// The row under attack.
        victim: RowAddr,
    },
    /// Cycle through `n` aggressors in one bank (the TRRespass family).
    ManySided {
        /// First aggressor row.
        first: RowAddr,
        /// Number of aggressor rows (spaced 2 apart).
        n: u32,
    },
    /// The Half-Double pattern: hammer distance-2 rows (`victim ± 2`) hard
    /// and distance-1 rows (`victim ± 1`) lightly, so mitigation refreshes
    /// of the near rows batter the victim (Sec. 5.2.1).
    HalfDouble {
        /// The row under attack (distance 2 from the heavy aggressors).
        victim: RowAddr,
        /// Heavy (far) hammer count per light (near) access.
        ratio: u32,
    },
    /// Scatter activations over many rows to thrash a tracker's tables /
    /// GCT / RCC (the memory performance attack of Sec. 5.3).
    Thrash {
        /// Rows cycled through, spread over all banks.
        rows: u32,
        /// RNG seed for the row ordering.
        seed: u64,
    },
}

/// Names of every canonical attack pattern, in presentation order.
///
/// `AttackPattern::canonical(name, geom)` accepts exactly these names;
/// tooling that wants "one of each attack" (the CLI's pattern arguments,
/// the classifier fixture tests) iterates this
/// list instead of hard-coding its own copy.
pub const CANONICAL_NAMES: [&str; 5] = [
    "single_sided",
    "double_sided",
    "many_sided",
    "half_double",
    "thrash",
];

impl AttackPattern {
    /// The canonical instance of the named pattern for `geometry`: a
    /// mid-bank victim (so blast-radius neighbors exist in any geometry),
    /// 16 aggressors for many-sided, ratio 8 for half-double, and a
    /// 100k-row thrash. Returns `None` for unknown names; every name in
    /// [`CANONICAL_NAMES`] succeeds.
    pub fn canonical(name: &str, geometry: MemGeometry) -> Option<AttackPattern> {
        let victim = RowAddr::new(0, 0, 1, geometry.rows_per_bank() / 2);
        Some(match name {
            "single_sided" => AttackPattern::SingleSided { aggressor: victim },
            "double_sided" => AttackPattern::DoubleSided { victim },
            "many_sided" => AttackPattern::ManySided {
                first: victim,
                n: 16,
            },
            "half_double" => AttackPattern::HalfDouble { victim, ratio: 8 },
            "thrash" => AttackPattern::Thrash {
                rows: 100_000,
                seed: 7,
            },
            _ => return None,
        })
    }

    /// A generator of aggressor rows for this pattern.
    pub fn rows(&self, geometry: MemGeometry) -> AttackRows {
        AttackRows {
            pattern: self.clone(),
            geometry,
            step: 0,
            rng: SmallRng::seed_from_u64(match self {
                AttackPattern::Thrash { seed, .. } => *seed,
                _ => 0,
            }),
        }
    }

    /// A [`TraceSource`] over this pattern: each activation becomes one
    /// line read with a tiny instruction gap (attackers do no useful work).
    pub fn trace(&self, geometry: MemGeometry) -> AttackTrace {
        AttackTrace {
            rows: self.rows(geometry),
            geometry,
            col: 0,
            name: self.name().to_string(),
        }
    }

    /// Pattern name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AttackPattern::SingleSided { .. } => "single_sided",
            AttackPattern::DoubleSided { .. } => "double_sided",
            AttackPattern::ManySided { .. } => "many_sided",
            AttackPattern::HalfDouble { .. } => "half_double",
            AttackPattern::Thrash { .. } => "thrash",
        }
    }
}

/// Endless iterator of aggressor rows for an attack pattern.
#[derive(Debug, Clone)]
pub struct AttackRows {
    pattern: AttackPattern,
    geometry: MemGeometry,
    step: u64,
    rng: SmallRng,
}

impl AttackRows {
    /// The next row the attacker activates.
    pub fn next_row(&mut self) -> RowAddr {
        let rows_per_bank = self.geometry.rows_per_bank();
        let step = self.step;
        self.step += 1;
        match &self.pattern {
            AttackPattern::SingleSided { aggressor } => *aggressor,
            AttackPattern::DoubleSided { victim } => {
                let delta = if step.is_multiple_of(2) { -1 } else { 1 };
                victim.neighbor(delta, rows_per_bank).unwrap_or(*victim)
            }
            AttackPattern::ManySided { first, n } => {
                let k = (step % u64::from((*n).max(1))) as u32;
                RowAddr {
                    row: (first.row + 2 * k).min(rows_per_bank - 1),
                    ..*first
                }
            }
            AttackPattern::HalfDouble { victim, ratio } => {
                let ratio = (*ratio).max(1);
                let cycle = u64::from(2 * ratio + 2);
                let phase = step % cycle;
                let delta = if phase < u64::from(ratio) {
                    2 // heavy far-side hammering
                } else if phase < u64::from(2 * ratio) {
                    -2
                } else if phase == u64::from(2 * ratio) {
                    1 // occasional near-side access
                } else {
                    -1
                };
                victim.neighbor(delta, rows_per_bank).unwrap_or(*victim)
            }
            AttackPattern::Thrash { rows, .. } => {
                let row = self.rng.gen_range(0..*rows) % rows_per_bank;
                let bank = self.rng.gen_range(0..self.geometry.banks_per_rank());
                let channel = self.rng.gen_range(0..self.geometry.channels());
                RowAddr::new(channel, 0, bank, row)
            }
        }
    }
}

/// [`TraceSource`] adapter over an attack pattern.
#[derive(Debug, Clone)]
pub struct AttackTrace {
    rows: AttackRows,
    geometry: MemGeometry,
    col: u32,
    name: String,
}

impl TraceSource for AttackTrace {
    fn next_op(&mut self) -> TraceOp {
        let row = self.rows.next_row();
        // Vary the column so lines differ, but every access opens its row
        // fresh (the pattern alternates rows, forcing row-buffer conflicts).
        self.col = (self.col + 1) % self.geometry.lines_per_row() as u32;
        TraceOp::read(1, self.geometry.line_of_row(row, self.col))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_types::hash::RowSet;

    fn geom() -> MemGeometry {
        MemGeometry::tiny()
    }

    #[test]
    fn single_sided_repeats_one_row() {
        let a = RowAddr::new(0, 0, 0, 100);
        let mut rows = AttackPattern::SingleSided { aggressor: a }.rows(geom());
        for _ in 0..10 {
            assert_eq!(rows.next_row(), a);
        }
    }

    #[test]
    fn double_sided_alternates_sandwich() {
        let v = RowAddr::new(0, 0, 0, 100);
        let mut rows = AttackPattern::DoubleSided { victim: v }.rows(geom());
        let seq: Vec<u32> = (0..4).map(|_| rows.next_row().row).collect();
        assert_eq!(seq, vec![99, 101, 99, 101]);
    }

    #[test]
    fn many_sided_cycles_n_aggressors() {
        let first = RowAddr::new(0, 0, 1, 10);
        let mut rows = AttackPattern::ManySided { first, n: 3 }.rows(geom());
        let seq: Vec<u32> = (0..6).map(|_| rows.next_row().row).collect();
        assert_eq!(seq, vec![10, 12, 14, 10, 12, 14]);
    }

    #[test]
    fn half_double_hits_far_rows_heavily() {
        let v = RowAddr::new(0, 0, 0, 100);
        let mut rows = AttackPattern::HalfDouble {
            victim: v,
            ratio: 8,
        }
        .rows(geom());
        let mut far = 0;
        let mut near = 0;
        for _ in 0..1800 {
            let r = rows.next_row().row;
            match r {
                98 | 102 => far += 1,
                99 | 101 => near += 1,
                other => panic!("unexpected row {other}"),
            }
        }
        assert!(far > 6 * near, "far {far} near {near}");
    }

    #[test]
    fn thrash_spreads_over_many_rows_and_banks() {
        let mut rows = AttackPattern::Thrash { rows: 512, seed: 9 }.rows(geom());
        let mut seen_rows = RowSet::default();
        let mut seen_banks = RowSet::default();
        for _ in 0..4000 {
            let r = rows.next_row();
            seen_rows.insert(r);
            seen_banks.insert(r.bank);
        }
        assert!(seen_rows.len() > 300);
        assert_eq!(seen_banks.len(), 4);
    }

    #[test]
    fn trace_adapter_yields_lines_of_the_pattern() {
        let a = RowAddr::new(0, 0, 0, 5);
        let g = geom();
        let mut t = AttackPattern::SingleSided { aggressor: a }.trace(g);
        for _ in 0..20 {
            let op = t.next_op();
            assert_eq!(g.row_of_line(op.addr), a);
            assert!(!op.is_write);
        }
        assert_eq!(t.name(), "single_sided");
    }

    #[test]
    fn canonical_covers_every_name_and_rejects_unknowns() {
        for name in CANONICAL_NAMES {
            let p = AttackPattern::canonical(name, geom()).expect("canonical name");
            assert_eq!(p.name(), name);
        }
        assert_eq!(AttackPattern::canonical("row_press", geom()), None);
    }

    #[test]
    fn patterns_are_deterministic() {
        let p = AttackPattern::Thrash { rows: 64, seed: 5 };
        let mut a = p.rows(geom());
        let mut b = p.rows(geom());
        for _ in 0..50 {
            assert_eq!(a.next_row(), b.next_row());
        }
    }
}
