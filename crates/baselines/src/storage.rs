//! Analytic per-rank storage models for prior trackers (Tables 1 & 5).
//!
//! Each model computes the SRAM/CAM bytes a scheme needs *per rank* to keep
//! its tracking guarantee at a given Row-Hammer threshold. The constants are
//! calibrated to the papers' own sizing rules and reproduce the Hydra
//! paper's Table 1 within rounding:
//!
//! | scheme   | entries                            | bytes/entry | notes |
//! |----------|------------------------------------|-------------|-------|
//! | Graphene | `ACT_max/(T_RH/2)+1` per bank      | 4           | 17-bit row addr + 9-bit count, CAM, rounded up |
//! | TWiCE    | `ACT_max/(T_RH/4)` per bank        | 13          | 67-bit entry + ~37 % CAM area overhead |
//! | CAT      | `4·ACT_max/T_RH` per bank          | 9           | counter + tree bookkeeping, ~35 % CAM |
//! | D-CBF    | `36·ACT_max_rank/T_RH` counters    | 0.5 (4-bit) | two filters, 3 hashes, low-FP sizing |
//! | OCPR     | one per row                        | `⌈log2 T_RH⌉` bits | the untagged upper bound |
//!
//! Known deviation: the paper lists D-CBF at 53 KB for `T_RH` = 32 K where
//! pure `1/T_RH` scaling gives ~12 KB — BlockHammer's sizing has threshold
//! floors our model omits; at the ultra-low thresholds this paper targets the
//! models agree.

/// `ACT_max` per bank for the paper's DDR4 baseline (Sec. 2.1).
pub const ACT_MAX_PER_BANK: u64 = 1_360_000;

/// Banks per rank for DDR4 (Table 1's headline configuration).
pub const DDR4_BANKS_PER_RANK: u32 = 16;

/// Banks per rank for DDR5 (Table 5 doubles per-bank trackers).
pub const DDR5_BANKS_PER_RANK: u32 = 32;

/// Rows per 16 GB rank with 8 KB rows.
pub const ROWS_PER_16GB_RANK: u64 = 2 * 1024 * 1024;

/// Graphene's per-rank bytes: Misra-Gries CAM of
/// `ACT_max/(T_RH/2) + 1` entries per bank at 4 bytes per entry.
pub fn graphene_bytes_per_rank(t_rh: u32, act_max_per_bank: u64, banks: u32) -> u64 {
    let threshold = u64::from(t_rh / 2).max(1);
    let entries = act_max_per_bank.div_ceil(threshold) + 1;
    entries * u64::from(banks) * 4
}

/// TWiCE's per-rank bytes: `ACT_max/(T_RH/4)` entries per bank at 13 bytes.
pub fn twice_bytes_per_rank(t_rh: u32, act_max_per_bank: u64, banks: u32) -> u64 {
    let threshold = u64::from(t_rh / 4).max(1);
    let entries = act_max_per_bank.div_ceil(threshold);
    entries * u64::from(banks) * 13
}

/// CAT's per-rank bytes: `4·ACT_max/T_RH` counters per bank at 9 bytes.
pub fn cat_bytes_per_rank(t_rh: u32, act_max_per_bank: u64, banks: u32) -> u64 {
    let entries = (4 * act_max_per_bank).div_ceil(u64::from(t_rh).max(1));
    entries * u64::from(banks) * 9
}

/// D-CBF's per-rank bytes: `36·ACT_max_rank/T_RH` 4-bit counters across the
/// two time-shifted filters. Rank-level (not per bank): unchanged for DDR5.
pub fn dcbf_bytes_per_rank(t_rh: u32, act_max_per_bank: u64, banks: u32) -> u64 {
    let act_max_rank = act_max_per_bank * u64::from(banks);
    let counters = (36 * act_max_rank).div_ceil(u64::from(t_rh).max(1));
    counters / 2 // 4 bits each
}

/// OCPR's per-rank bytes: one `⌈log2 T_RH⌉`-bit counter per row.
pub fn ocpr_bytes_per_rank(t_rh: u32, rows_per_rank: u64) -> u64 {
    let bits = u64::from(32 - t_rh.max(2).leading_zeros());
    (rows_per_rank * bits).div_ceil(8)
}

/// CoMeT's count-min-sketch width (counters per hash row, per bank).
pub const COMET_SKETCH_WIDTH: u64 = 512;

/// CoMeT's count-min-sketch depth (hash rows, per bank).
pub const COMET_SKETCH_DEPTH: u64 = 4;

/// CoMeT's recent-aggressor-table entries per bank.
pub const COMET_RAT_ENTRIES: u64 = 128;

/// CoMeT's per-rank bytes (HPCA 2024 configuration, our derivation): per
/// bank, a `512×4` count-min sketch of 16-bit counters plus a 128-entry
/// recent-aggressor table whose CAM entries hold a 17-bit row tag and a
/// `⌈log2 T_H⌉`-bit exact counter (rounded up one byte for the match
/// line). At `T_RH` = 1000 and 16 banks this is
/// `16 × (512·4·2 B + 128·5 B)` = 75,776 B ≈ 74 KB per rank — an order
/// of magnitude under Graphene's 170 KB at the same threshold, which is
/// CoMeT's headline claim.
pub fn comet_bytes_per_rank(t_rh: u32, banks: u32) -> u64 {
    let sketch_bytes = COMET_SKETCH_WIDTH * COMET_SKETCH_DEPTH * 2;
    let counter_bits = u64::from(32 - (t_rh / 2).max(2).leading_zeros());
    let rat_entry_bytes = (17 + counter_bits).div_ceil(8) + 1;
    u64::from(banks) * (sketch_bytes + COMET_RAT_ENTRIES * rat_entry_bytes)
}

/// ABACuS's per-rank bytes (USENIX Security 2024 sizing, our derivation):
/// `ACT_max / (T_RH/2)` shared row-id entries per rank — one entry covers
/// the row index across **all** banks — each holding a 16-bit row id, a
/// `⌈log2 T_H⌉`-bit row activation counter, and a one-bit-per-bank sibling
/// activation vector. At `T_RH` = 1000 and 16 banks: `2720 × 41` bits
/// ≈ 13.6 KB per rank. The all-bank sharing is the whole trick: Graphene
/// pays its table once per bank, ABACuS once per rank.
pub fn abacus_bytes_per_rank(t_rh: u32, act_max_per_bank: u64, banks: u32) -> u64 {
    let t_h = u64::from(t_rh / 2).max(1);
    let entries = act_max_per_bank.div_ceil(t_h);
    let rac_bits = u64::from(32 - (t_rh / 2).max(2).leading_zeros());
    let entry_bits = 16 + rac_bits + u64::from(banks);
    (entries * entry_bits).div_ceil(8)
}

/// MINT's per-rank bytes (MICRO 2024, our derivation): no row state at
/// all — per bank, an interval-position cursor and the sampled slot, each
/// `⌈log2 I⌉` bits for sampling interval `I = (T_RH/2)/16`, plus one
/// shared 256-bit PRNG state. Tens of bytes per rank at every threshold;
/// MINT's storage does not scale with `T_RH` in any meaningful way.
pub fn mint_bytes_per_rank(t_rh: u32, banks: u32) -> u64 {
    let interval = (t_rh / 2 / 16).max(1);
    let slot_bits = u64::from(32 - interval.leading_zeros()).max(1);
    (u64::from(banks) * 2 * slot_bits + 256).div_ceil(8)
}

/// START's per-rank bytes (HPCA 2024, our derivation): counter storage is
/// allocated lazily in cache-line-sized groups of 8 rows, and the
/// *reserved* pool must cover the adversarial bound — an attacker can
/// spread `banks · ACT_max` activations so that one group reaches `T_H`
/// per `T_H` activations, hence `banks · ACT_max / T_H` lines of
/// `8·⌈log2 T_H⌉` counter bits plus a 17-bit group tag. At `T_RH` = 1000
/// and 16 banks: `43,521 × 89` bits ≈ 473 KB — about 5.8 % of an 8 MB
/// LLC, which is the regime the paper reports (worst-case reservation ~9 %,
/// typical use far lower since benign windows allocate few groups).
pub fn start_bytes_per_rank(t_rh: u32, act_max_per_bank: u64, banks: u32) -> u64 {
    let t_h = u64::from(t_rh / 2).max(1);
    let lines = (act_max_per_bank * u64::from(banks)).div_ceil(t_h) + 1;
    let counter_bits = u64::from(32 - (t_rh / 2).max(2).leading_zeros());
    let line_bits = 8 * counter_bits + 17;
    (lines * line_bits).div_ceil(8)
}

/// One row of Table 1 / Table 5: a scheme's storage at a threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Graphene (MICRO 2020).
    Graphene,
    /// TWiCE (ISCA 2019).
    Twice,
    /// CAT (ISCA 2018).
    Cat,
    /// D-CBF / BlockHammer (HPCA 2021).
    Dcbf,
    /// One-Counter-Per-Row upper bound.
    Ocpr,
}

impl Scheme {
    /// All schemes in Table 1 order.
    pub const ALL: [Scheme; 5] = [
        Scheme::Graphene,
        Scheme::Twice,
        Scheme::Cat,
        Scheme::Dcbf,
        Scheme::Ocpr,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Graphene => "Graphene",
            Scheme::Twice => "TWiCE",
            Scheme::Cat => "CAT",
            Scheme::Dcbf => "D-CBF",
            Scheme::Ocpr => "OCPR",
        }
    }

    /// True if the scheme keeps per-bank tables (doubling its storage on
    /// DDR5's 32 banks — the `*` footnote of Table 1).
    pub fn scales_with_banks(self) -> bool {
        matches!(self, Scheme::Graphene | Scheme::Twice | Scheme::Cat)
    }

    /// Per-rank bytes at threshold `t_rh` with `banks` banks per rank.
    pub fn bytes_per_rank(self, t_rh: u32, banks: u32) -> u64 {
        match self {
            Scheme::Graphene => graphene_bytes_per_rank(t_rh, ACT_MAX_PER_BANK, banks),
            Scheme::Twice => twice_bytes_per_rank(t_rh, ACT_MAX_PER_BANK, banks),
            Scheme::Cat => cat_bytes_per_rank(t_rh, ACT_MAX_PER_BANK, banks),
            Scheme::Dcbf => dcbf_bytes_per_rank(t_rh, ACT_MAX_PER_BANK, banks),
            Scheme::Ocpr => ocpr_bytes_per_rank(t_rh, ROWS_PER_16GB_RANK),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;

    fn close(actual: u64, expect: u64, tolerance: f64) -> bool {
        let a = actual as f64;
        let e = expect as f64;
        (a - e).abs() / e <= tolerance
    }

    #[test]
    fn graphene_matches_table1() {
        // Paper: 340 KB at 500, 679 KB at 250, 170 KB at 1000, 5 KB at 32K.
        let g = |t| graphene_bytes_per_rank(t, ACT_MAX_PER_BANK, 16);
        assert!(close(g(500), 340 * KB, 0.05), "{}", g(500));
        assert!(close(g(250), 679 * KB, 0.05), "{}", g(250));
        assert!(close(g(1000), 170 * KB, 0.05), "{}", g(1000));
        assert!(close(g(32_000), 5 * KB, 0.25), "{}", g(32_000));
    }

    #[test]
    fn ocpr_matches_table1() {
        // Paper: 2.3 MB at 500, 2.0 MB at 250, 2.5 MB at 1000, 3.8 MB at 32K.
        let o = |t| ocpr_bytes_per_rank(t, ROWS_PER_16GB_RANK);
        assert!(close(o(500), 9 * MB / 4, 0.05));
        assert!(close(o(250), 2 * MB, 0.05));
        assert!(close(o(1000), 5 * MB / 2, 0.05));
        assert!(close(o(32_000), 15 * MB / 4, 0.05));
    }

    #[test]
    fn twice_matches_table1_shape() {
        // Paper: 2.3 MB at 500, 1.2 MB at 1000, >2 MB at 250, 37 KB at 32K.
        let t = |x| twice_bytes_per_rank(x, ACT_MAX_PER_BANK, 16);
        assert!(close(t(500), 113 * MB / 50, 0.10), "{}", t(500));
        assert!(close(t(1000), 113 * MB / 100, 0.10));
        assert!(t(250) > 2 * MB);
        assert!(close(t(32_000), 36 * KB, 0.15), "{}", t(32_000));
    }

    #[test]
    fn cat_matches_table1_shape() {
        // Paper: 1.5 MB at 500, 784 KB at 1000, >2 MB at 250, 25 KB at 32K.
        let c = |x| cat_bytes_per_rank(x, ACT_MAX_PER_BANK, 16);
        assert!(close(c(500), 3 * MB / 2, 0.10), "{}", c(500));
        assert!(close(c(1000), 784 * KB, 0.05), "{}", c(1000));
        assert!(c(250) > 2 * MB);
        assert!(close(c(32_000), 25 * KB, 0.05), "{}", c(32_000));
    }

    #[test]
    fn dcbf_matches_table1_at_low_thresholds() {
        // Paper: 768 KB at 500, 1.5 MB at 250, 384 KB at 1000.
        let d = |x| dcbf_bytes_per_rank(x, ACT_MAX_PER_BANK, 16);
        assert!(close(d(500), 768 * KB, 0.05), "{}", d(500));
        assert!(close(d(250), 3 * MB / 2, 0.05));
        assert!(close(d(1000), 384 * KB, 0.05));
    }

    #[test]
    fn ddr5_doubles_per_bank_schemes_only() {
        for scheme in Scheme::ALL {
            let ddr4 = scheme.bytes_per_rank(500, DDR4_BANKS_PER_RANK);
            let ddr5 = scheme.bytes_per_rank(500, DDR5_BANKS_PER_RANK);
            if scheme.scales_with_banks() {
                assert!(close(ddr5, ddr4 * 2, 0.01), "{}", scheme.name());
            } else if scheme == Scheme::Dcbf {
                // D-CBF counts rank-level activations: 2× the banks means 2×
                // ACT_max_rank, so its size grows too, but it is not a
                // per-bank table (Table 5 keeps it at 1.5 MB because the
                // filter is shared; our model conservatively scales it).
                assert!(ddr5 >= ddr4);
            } else {
                assert_eq!(ddr5, ddr4, "{}", scheme.name());
            }
        }
    }

    #[test]
    fn comet_matches_its_headline_figure() {
        // Our derivation (see the function docs): 74 KB per rank at
        // T_RH = 1000 — 16 banks × (4 KB sketch + 640 B RAT).
        let c = comet_bytes_per_rank(1000, 16);
        assert_eq!(c, 75_776);
        assert!(close(c, 74 * KB, 0.01), "{c}");
        // The sketch dominates, so the size is nearly threshold-flat.
        assert_eq!(comet_bytes_per_rank(500, 16), c);
        assert!(close(comet_bytes_per_rank(4800, 16), c, 0.05));
    }

    #[test]
    fn abacus_matches_its_headline_figure() {
        // Our derivation: 2720 shared entries × 41 bits ≈ 13.6 KB per rank
        // at T_RH = 1000 — more than 10× below Graphene's 170 KB.
        let a = abacus_bytes_per_rank(1000, ACT_MAX_PER_BANK, 16);
        assert!(close(a, 13_940, 0.01), "{a}");
        assert!(a * 10 < graphene_bytes_per_rank(1000, ACT_MAX_PER_BANK, 16));
        // Halving the threshold roughly doubles the table.
        let half = abacus_bytes_per_rank(500, ACT_MAX_PER_BANK, 16);
        assert!(close(half, 2 * a, 0.05), "{half}");
    }

    #[test]
    fn mint_is_threshold_flat_and_tiny() {
        let m = mint_bytes_per_rank(1000, 16);
        assert!(m < 100, "{m}");
        assert!(mint_bytes_per_rank(500, 16) <= m);
        assert!(mint_bytes_per_rank(4800, 16) < 100);
    }

    #[test]
    fn start_reserves_an_llc_fraction() {
        // Our derivation: 43,521 lines × 89 bits ≈ 473 KB per rank at
        // T_RH = 1000 — between 4 % and 8 % of an 8 MB LLC, the regime the
        // paper reports for its reserved way fraction.
        let s = start_bytes_per_rank(1000, ACT_MAX_PER_BANK, 16);
        assert!(close(s, 484_172, 0.01), "{s}");
        let llc = (8 * MB) as f64;
        let frac = s as f64 / llc;
        assert!((0.04..0.08).contains(&frac), "{frac}");
        // Inverse threshold scaling, like every exact scheme.
        assert!(start_bytes_per_rank(500, ACT_MAX_PER_BANK, 16) > s);
    }

    #[test]
    fn all_schemes_exceed_hydras_budget_at_500() {
        // The paper's motivating claim: every prior scheme blows the ≤64 KB
        // per-rank goal at T_RH = 500.
        for scheme in Scheme::ALL {
            let bytes = scheme.bytes_per_rank(500, DDR4_BANKS_PER_RANK);
            assert!(bytes > 64 * KB, "{} = {bytes}", scheme.name());
        }
    }
}
