//! The paper's figure shapes as library verdicts.
//!
//! Each check is a function of a figure's headline numbers that returns a
//! [`Verdict`]: the numbers, the shape they were held against, and whether
//! it held. The thresholds and tolerances live here and nowhere else; the
//! bench targets only print a verdict, and its `Display` is the bench's
//! `Shape check: … OK|MISMATCH` line.

use std::fmt;

/// A figure's shape verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The shape checked, with the numbers it compared.
    pub shape: Shape,
    /// Whether the paper's shape held.
    pub ok: bool,
}

/// Which shape a [`Verdict`] checked, with the numbers it compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Fig. 2: CRA's geomean normalized performance by metadata-cache size.
    Fig2 {
        /// At 64 KB.
        cache_64kb: f64,
        /// At 256 KB.
        cache_256kb: f64,
    },
    /// Fig. 5: geomean normalized performance of the three trackers.
    Fig5 {
        /// CRA with a 64 KB metadata cache.
        cra: f64,
        /// Graphene.
        graphene: f64,
        /// Hydra.
        hydra: f64,
    },
    /// Fig. 6: where Hydra's count updates are satisfied (mean shares).
    Fig6 {
        /// Percent satisfied by the GCT alone.
        gct_only_pct: f64,
        /// Percent that needed an RCT access in DRAM.
        rct_pct: f64,
    },
    /// Fig. 7: overall slowdown (%) at T_RH = 500, 250, 125.
    Fig7 {
        /// One slowdown per threshold, largest threshold first.
        slowdown_pct: [f64; 3],
    },
    /// Fig. 8: geomean normalized performance of the ablations.
    Fig8 {
        /// Hydra without the GCT.
        no_gct: f64,
        /// Hydra without the RCC.
        no_rcc: f64,
        /// Full Hydra.
        hydra: f64,
    },
    /// Fig. 9: overall slowdown (%) at GCT = 16K, 32K, 64K entries.
    Fig9 {
        /// One slowdown per GCT size, smallest first.
        slowdown_pct: [f64; 3],
    },
    /// Fig. 10: overall slowdown (%) at two GCT thresholds.
    Fig10 {
        /// At T_G = 50 % of T_H.
        tg50_pct: f64,
        /// At T_G = 80 % of T_H (the paper's default).
        tg80_pct: f64,
    },
    /// Sec. 6.8: SRAM power of the GCT and RCC together.
    SramPower {
        /// GCT + RCC power in mW.
        total_mw: f64,
    },
    /// Footnote 6: geomean slowdown (%) under each mitigation policy.
    DelayMitigation {
        /// Rate-limiting (delay) mitigation.
        rate_limit_pct: f64,
        /// Victim-refresh mitigation.
        victim_refresh_pct: f64,
    },
    /// Sec. 5.3: the worst bandwidth inflation any attack inflicted.
    AttackInflation {
        /// Worst inflation factor over all attack patterns.
        worst: f64,
    },
}

/// Fig. 2: a larger cache helps CRA, but a slowdown remains at 256 KB.
pub fn fig2(cache_64kb: f64, cache_256kb: f64) -> Verdict {
    Verdict {
        shape: Shape::Fig2 {
            cache_64kb,
            cache_256kb,
        },
        ok: cache_256kb >= cache_64kb && cache_256kb < 0.995,
    }
}

/// Fig. 5: CRA is slowest, and Hydra is at most 0.02 above Graphene.
pub fn fig5(cra: f64, graphene: f64, hydra: f64) -> Verdict {
    Verdict {
        shape: Shape::Fig5 {
            cra,
            graphene,
            hydra,
        },
        ok: cra < hydra && hydra <= graphene + 0.02,
    }
}

/// Fig. 6: the GCT filters at least 60 % of updates and at most 10 % reach
/// the RCT.
pub fn fig6(gct_only_pct: f64, rct_pct: f64) -> Verdict {
    Verdict {
        shape: Shape::Fig6 {
            gct_only_pct,
            rct_pct,
        },
        ok: gct_only_pct >= 60.0 && rct_pct <= 10.0,
    }
}

/// Fig. 7: slowdown grows as T_RH falls, within 0.3 points per step.
pub fn fig7(slowdown_pct: [f64; 3]) -> Verdict {
    let [t500, t250, t125] = slowdown_pct;
    Verdict {
        shape: Shape::Fig7 { slowdown_pct },
        ok: t500 <= t250 + 0.3 && t250 <= t125 + 0.3,
    }
}

/// Fig. 8: dropping the GCT costs most; dropping the RCC costs more than
/// full Hydra, within 0.005.
pub fn fig8(no_gct: f64, no_rcc: f64, hydra: f64) -> Verdict {
    Verdict {
        shape: Shape::Fig8 {
            no_gct,
            no_rcc,
            hydra,
        },
        ok: no_gct < no_rcc && no_rcc <= hydra + 0.005,
    }
}

/// Fig. 9: slowdown does not grow with GCT size, within 0.2 points per
/// step.
pub fn fig9(slowdown_pct: [f64; 3]) -> Verdict {
    let [gct16k, gct32k, gct64k] = slowdown_pct;
    Verdict {
        shape: Shape::Fig9 { slowdown_pct },
        ok: gct16k >= gct32k - 0.2 && gct32k >= gct64k - 0.2,
    }
}

/// Fig. 10: T_G = 50 % is no better than the 80 % default, within 0.2
/// points.
pub fn fig10(tg50_pct: f64, tg80_pct: f64) -> Verdict {
    Verdict {
        shape: Shape::Fig10 { tg50_pct, tg80_pct },
        ok: tg50_pct >= tg80_pct - 0.2,
    }
}

/// Sec. 6.8: the GCT and RCC draw tens of mW, in `[5, 60)`.
pub fn sram_power(total_mw: f64) -> Verdict {
    Verdict {
        shape: Shape::SramPower { total_mw },
        ok: (5.0..60.0).contains(&total_mw),
    }
}

/// Footnote 6: rate limiting slows down more than 1 point beyond victim
/// refresh.
pub fn delay_mitigation(rate_limit_pct: f64, victim_refresh_pct: f64) -> Verdict {
    Verdict {
        shape: Shape::DelayMitigation {
            rate_limit_pct,
            victim_refresh_pct,
        },
        ok: rate_limit_pct > victim_refresh_pct + 1.0,
    }
}

/// Sec. 5.3: no attack inflates bandwidth by 3.5× or more.
pub fn attack_inflation(worst: f64) -> Verdict {
    Verdict {
        shape: Shape::AttackInflation { worst },
        ok: worst < 3.5,
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.shape {
            Shape::Fig2 {
                cache_64kb,
                cache_256kb,
            } => write!(
                f,
                "Shape check: larger cache helps but slowdown remains \
                 ({cache_64kb:.3} -> {cache_256kb:.3})"
            ),
            Shape::Fig5 {
                cra,
                graphene,
                hydra,
            } => write!(
                f,
                "Shape check: CRA ({cra:.3}) < Hydra ({hydra:.3}) <= ~Graphene ({graphene:.3})"
            ),
            Shape::Fig6 {
                gct_only_pct,
                rct_pct,
            } => write!(
                f,
                "Shape check: GCT filters most updates ({gct_only_pct:.1} % >= 60 %), \
                 DRAM accesses rare ({rct_pct:.2} % <= 10 %)"
            ),
            Shape::Fig7 {
                slowdown_pct: [a, b, c],
            } => write!(
                f,
                "Shape check: slowdown grows as T_RH falls ({a:.2}% <= {b:.2}% <= {c:.2}%)"
            ),
            Shape::Fig8 {
                no_gct,
                no_rcc,
                hydra,
            } => write!(
                f,
                "Shape check: NoGCT ({no_gct:.3}) < NoRCC ({no_rcc:.3}) <= Hydra ({hydra:.3})"
            ),
            Shape::Fig9 {
                slowdown_pct: [a, b, c],
            } => write!(
                f,
                "Shape check: slowdown non-increasing with GCT size \
                 ({a:.2}% >= {b:.2}% >= {c:.2}%)"
            ),
            Shape::Fig10 { tg50_pct, tg80_pct } => write!(
                f,
                "Shape check: the 50 % point is the worst overall \
                 ({tg50_pct:.2}% >= {tg80_pct:.2}%)"
            ),
            Shape::SramPower { total_mw } => write!(
                f,
                "Shape check: tens of mW, negligible vs DRAM ({total_mw:.1} mW in [5, 60])"
            ),
            Shape::DelayMitigation {
                rate_limit_pct,
                victim_refresh_pct,
            } => write!(
                f,
                "Shape check: rate-limit slowdown ({rate_limit_pct:.1}%) >> \
                 victim-refresh ({victim_refresh_pct:.1}%)"
            ),
            Shape::AttackInflation { worst } => write!(
                f,
                "Sec. 5.3 bound: worst-case inflation {worst:.2}x \
                 (paper argues ~2x extra activations worst case)"
            ),
        }?;
        f.write_str(if self.ok { ": OK" } else { ": MISMATCH" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts `inside` passes and `outside` fails.
    fn edges(inside: Verdict, outside: Verdict) {
        assert!(inside.ok, "{inside}");
        assert!(!outside.ok, "{outside}");
        assert!(inside.to_string().ends_with(": OK"));
        assert!(outside.to_string().ends_with(": MISMATCH"));
    }

    #[test]
    fn fig2_needs_a_gain_and_a_remaining_slowdown() {
        edges(fig2(0.74, 0.994), fig2(0.74, 0.996));
        edges(fig2(0.74, 0.74), fig2(0.74, 0.739));
    }

    #[test]
    fn fig5_allows_hydra_two_hundredths_above_graphene() {
        edges(fig5(0.75, 0.98, 0.999), fig5(0.75, 0.98, 1.001));
        edges(fig5(0.75, 1.0, 0.751), fig5(0.75, 1.0, 0.75));
    }

    #[test]
    fn fig6_bounds_the_gct_and_rct_shares() {
        edges(fig6(60.0, 10.0), fig6(59.9, 10.0));
        edges(fig6(90.0, 10.0), fig6(90.0, 10.01));
    }

    #[test]
    fn fig7_allows_three_tenths_of_a_point_per_step() {
        edges(fig7([1.29, 1.0, 0.71]), fig7([1.31, 1.0, 2.0]));
        edges(fig7([0.0, 1.29, 1.0]), fig7([0.0, 1.31, 1.0]));
    }

    #[test]
    fn fig8_allows_norcc_half_a_hundredth_above_hydra() {
        edges(fig8(0.8, 0.9, 0.896), fig8(0.8, 0.9, 0.894));
        edges(fig8(0.89, 0.9, 1.0), fig8(0.9, 0.9, 1.0));
    }

    #[test]
    fn fig9_allows_two_tenths_of_a_point_per_step() {
        edges(fig9([0.81, 1.0, 1.19]), fig9([0.79, 1.0, 1.0]));
        edges(fig9([2.0, 1.0, 1.19]), fig9([2.0, 1.0, 1.21]));
    }

    #[test]
    fn fig10_allows_two_tenths_of_a_point() {
        edges(fig10(0.81, 1.0), fig10(0.79, 1.0));
    }

    #[test]
    fn sram_power_is_tens_of_milliwatts() {
        edges(sram_power(5.0), sram_power(4.99));
        edges(sram_power(59.99), sram_power(60.0));
    }

    #[test]
    fn delay_mitigation_needs_a_point_more_slowdown() {
        edges(delay_mitigation(2.01, 1.0), delay_mitigation(1.99, 1.0));
    }

    #[test]
    fn attack_inflation_stays_below_three_and_a_half() {
        edges(attack_inflation(3.49), attack_inflation(3.5));
    }

    #[test]
    fn display_renders_the_bench_lines() {
        assert_eq!(
            fig5(0.786, 1.0, 1.0).to_string(),
            "Shape check: CRA (0.786) < Hydra (1.000) <= ~Graphene (1.000): OK"
        );
        assert_eq!(
            fig7([0.5, 1.25, 4.0]).to_string(),
            "Shape check: slowdown grows as T_RH falls (0.50% <= 1.25% <= 4.00%): OK"
        );
        assert_eq!(
            attack_inflation(1.5).to_string(),
            "Sec. 5.3 bound: worst-case inflation 1.50x \
             (paper argues ~2x extra activations worst case): OK"
        );
    }
}
