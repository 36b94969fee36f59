//! CoMeT: count-min-sketch row tracking with RCT-style exact recounting
//! (Bostancı et al., HPCA 2024; arxiv 2402.18769).
//!
//! CoMeT splits tracking into two tiers per bank:
//!
//! 1. A **count-min sketch** (the shared [`CountMinSketch`] from
//!    `hydra-baselines`) counts every activation. Sketch estimates are
//!    one-sided: they never under-count, so a row whose estimate is below
//!    the early threshold provably has fewer true activations than it.
//! 2. A small **recent-aggressor table (RAT)** recounts exactly. When a
//!    row's sketch estimate crosses the early threshold `T_early`, the row
//!    is promoted into the RAT *seeded with its sketch estimate* — an upper
//!    bound on its true count — and counted exactly from then on. When its
//!    RAT count reaches `T_H`, the row is mitigated and its RAT count reset
//!    to zero (the entry stays resident, so the over-estimating sketch is
//!    never consulted again for it this window).
//!
//! Safety argument (the ShadowOracle contract): every activation of a
//! non-resident row bumps its sketch estimate, and estimate ≥ true count,
//! so by the time a row has `T_early` true activations it is either
//! RAT-resident or the RAT was full — and a full RAT mitigates the
//! incoming row immediately (safe: the row just activated, so a mitigation
//! is never spurious). RAT counts over-approximate true counts (seeded
//! with an over-estimate, incremented exactly), so mitigation fires at or
//! before the `T_H`-th true activation. With `T_H = T_RH / 2` and both
//! tiers cleared at every window reset, the window-split argument bounds
//! unmitigated accumulation by `2·(T_H − 1) < T_RH`.

use hydra_baselines::sketch::CountMinSketch;
use hydra_types::counter::Sat;
use hydra_types::hash::RowMap;
use hydra_types::{
    ActivationKind, ActivationTracker, ConfigError, MemCycle, MemGeometry, RowAddr, TrackerResponse,
};

/// CoMeT configuration. See the module docs for the roles of the fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CometConfig {
    /// Mitigation threshold per window (`T_RH / 2`).
    pub t_h: u32,
    /// Sketch estimate at which a row is promoted into the RAT. Must be
    /// at most `t_h` (the paper uses a small fraction of it).
    pub t_early: u32,
    /// Count-min sketch buckets per hash row, per bank.
    pub width: usize,
    /// Count-min sketch hash rows, per bank.
    pub depth: usize,
    /// Recent-aggressor-table entries per bank.
    pub rat_entries: usize,
}

impl CometConfig {
    /// The paper-flavored sizing for Row-Hammer threshold `t_rh`: promote
    /// at `T_H / 4`, 512×4 sketch counters and a 128-entry RAT per bank.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for `t_rh < 4`.
    pub fn for_threshold(t_rh: u32) -> Result<Self, ConfigError> {
        if t_rh < 4 {
            return Err(ConfigError::new(format!(
                "row-hammer threshold {t_rh} too small for CoMeT (min 4)"
            )));
        }
        let t_h = t_rh / 2;
        Ok(CometConfig {
            t_h,
            t_early: (t_h / 4).max(1),
            width: 512,
            depth: 4,
            rat_entries: 128,
        })
    }
}

/// One bank's two-tier state.
#[derive(Debug, Clone)]
struct BankState {
    sketch: CountMinSketch,
    /// Exact recounting table: row → count upper bound since the last
    /// mitigation (seeded with the sketch estimate at promotion).
    rat: RowMap<u32, Sat<u64>>,
}

/// The CoMeT tracker for one channel. See the module docs.
#[derive(Debug, Clone)]
pub struct Comet {
    config: CometConfig,
    banks_per_rank: u8,
    channel: u8,
    banks: Vec<BankState>,
    /// Mitigations issued because the RAT was full (the safe fallback).
    rat_full_mitigations: u64,
    mitigations: u64,
}

impl Comet {
    /// Creates a CoMeT instance for one channel of `geometry`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for a bad channel or a degenerate config
    /// (`t_early > t_h`, zero-sized tables).
    pub fn new(
        geometry: MemGeometry,
        channel: u8,
        config: CometConfig,
    ) -> Result<Self, ConfigError> {
        if channel >= geometry.channels() {
            return Err(ConfigError::new("channel out of range"));
        }
        if config.t_h == 0 || config.t_early == 0 || config.t_early > config.t_h {
            return Err(ConfigError::new(
                "CoMeT thresholds must satisfy 0 < t_early <= t_h",
            ));
        }
        if config.width == 0 || config.depth == 0 || config.rat_entries == 0 {
            return Err(ConfigError::new("CoMeT tables must be nonzero"));
        }
        let nbanks =
            usize::from(geometry.ranks_per_channel()) * usize::from(geometry.banks_per_rank());
        let banks = (0..nbanks)
            .map(|_| BankState {
                sketch: CountMinSketch::new(config.width, config.depth),
                rat: RowMap::with_capacity_and_hasher(config.rat_entries, Default::default()),
            })
            .collect();
        Ok(Comet {
            config,
            banks_per_rank: geometry.banks_per_rank(),
            channel,
            banks,
            rat_full_mitigations: 0,
            mitigations: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &CometConfig {
        &self.config
    }

    /// Mitigations issued so far.
    pub fn mitigations(&self) -> u64 {
        self.mitigations
    }

    /// Mitigations forced by RAT exhaustion (0 when the RAT is sized to
    /// the workload).
    pub fn rat_full_mitigations(&self) -> u64 {
        self.rat_full_mitigations
    }

    fn bank_index(&self, row: RowAddr) -> usize {
        usize::from(row.rank) * usize::from(self.banks_per_rank) + usize::from(row.bank)
    }

    /// On-chip state in bits: the instance size model behind
    /// [`ActivationTracker::sram_bytes`].
    pub fn sram_bits(&self) -> u64 {
        // Per bank: width × depth sketch counters at 16 bits (saturating at
        // T_H ≤ 2400 for every swept threshold) plus RAT entries holding a
        // row id (~17 bits in the paper's geometry, kept at 17 here) and an
        // exact counter (up to 2^ceil(log2 T_H)); see
        // `hydra_baselines::storage::comet_bytes_per_rank` for the analytic
        // paper-scale model this instance model mirrors.
        let counter_bits = 16u64;
        let sketch_bits = (self.config.width as u64)
            .saturating_mul(self.config.depth as u64)
            .saturating_mul(counter_bits);
        let rat_entry_bits = 17 + u64::from(u32::BITS - self.config.t_h.leading_zeros());
        let rat_bits = (self.config.rat_entries as u64).saturating_mul(rat_entry_bits);
        (self.banks.len() as u64).saturating_mul(sketch_bits.saturating_add(rat_bits))
    }
}

impl ActivationTracker for Comet {
    fn on_activation(
        &mut self,
        row: RowAddr,
        _now: MemCycle,
        _kind: ActivationKind,
    ) -> TrackerResponse {
        debug_assert_eq!(row.channel, self.channel);
        let t_h = u64::from(self.config.t_h);
        let idx = self.bank_index(row);
        let rat_entries = self.config.rat_entries;
        let bank = &mut self.banks[idx];

        if let Some(count) = bank.rat.get_mut(&row.row) {
            // Tier 2: exact recounting.
            count.increment();
            if count.get::<u64>() >= t_h {
                count.set(0);
                self.mitigations += 1;
                return TrackerResponse::mitigate(row);
            }
            return TrackerResponse::none();
        }

        // Tier 1: sketch counting.
        let estimate = bank.sketch.increment(u64::from(row.row));
        if estimate < u64::from(self.config.t_early) {
            return TrackerResponse::none();
        }
        // Promotion. A sketch estimate at/above T_H mitigates right away
        // (the seed would trip the exact tier on its next activation
        // anyway); otherwise the row recounts exactly from its upper bound.
        if bank.rat.len() >= rat_entries {
            // RAT full: mitigate the incoming row now. Never spurious —
            // this very activation touched it.
            self.rat_full_mitigations += 1;
            self.mitigations += 1;
            return TrackerResponse::mitigate(row);
        }
        if estimate >= t_h {
            bank.rat.insert(row.row, Sat::new(0));
            self.mitigations += 1;
            return TrackerResponse::mitigate(row);
        }
        bank.rat.insert(row.row, Sat::new(estimate));
        TrackerResponse::none()
    }

    fn reset_window(&mut self, _now: MemCycle) {
        for bank in &mut self.banks {
            bank.sketch.clear();
            bank.rat.clear();
        }
    }

    fn name(&self) -> &str {
        "comet"
    }

    fn params(&self) -> String {
        format!(
            "t_h={} t_early={} width={} depth={} rat={}",
            self.config.t_h,
            self.config.t_early,
            self.config.width,
            self.config.depth,
            self.config.rat_entries
        )
    }

    fn sram_bytes(&self) -> u64 {
        self.sram_bits().div_ceil(8)
    }

    fn max_spillover(&self) -> u64 {
        // Sketch collision slack: the worst gap between a row's sketch
        // estimate and the sketch's total÷width lower bound is not tracked
        // per row; report the classic 2N/w error bound instead.
        self.banks
            .iter()
            .map(|b| 2 * b.sketch.total() / b.sketch.width() as u64)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_types::ActivationKind::Demand;

    fn comet(t_rh: u32) -> Comet {
        let config = match CometConfig::for_threshold(t_rh) {
            Ok(c) => c,
            Err(e) => panic!("config: {e}"),
        };
        match Comet::new(MemGeometry::tiny(), 0, config) {
            Ok(c) => c,
            Err(e) => panic!("comet: {e}"),
        }
    }

    #[test]
    fn single_aggressor_is_mitigated_at_or_before_t_h() {
        let mut c = comet(64);
        let row = RowAddr::new(0, 0, 0, 7);
        let mut first_mitigation = None;
        for i in 1..=64u64 {
            let d = c.on_activation(row, i, Demand);
            if !d.mitigations.is_empty() && first_mitigation.is_none() {
                first_mitigation = Some(i);
            }
        }
        let at = first_mitigation.expect("aggressor must be mitigated");
        assert!(at <= 32, "mitigated at {at}, after T_H");
        assert!(c.mitigations() >= 1);
    }

    /// The 1-based activations of `row`, out of `n`, that mitigated.
    fn firings(c: &mut Comet, row: RowAddr, n: u64) -> Vec<u64> {
        (1..=n)
            .filter(|&i| !c.on_activation(row, i, Demand).mitigations.is_empty())
            .collect()
    }

    #[test]
    fn promotion_seeds_the_rat_with_the_estimate() {
        let mut c = comet(64); // t_h = 32, t_early = 8
        let row = RowAddr::new(0, 0, 0, 7);
        // A single key has no collisions, so the row is promoted at its 8th
        // activation seeded with the exact count 8 and fires at its 32nd.
        // A zero seed would fire at the 40th.
        assert_eq!(firings(&mut c, row, 63), vec![32]);
    }

    #[test]
    fn rat_full_falls_back_to_immediate_mitigation() {
        let config = CometConfig {
            t_h: 16,
            t_early: 1,
            width: 64,
            depth: 4,
            rat_entries: 2,
        };
        let mut c = match Comet::new(MemGeometry::tiny(), 0, config) {
            Ok(c) => c,
            Err(e) => panic!("comet: {e}"),
        };
        // Three distinct rows, t_early = 1: the third promotion finds the
        // RAT full and must mitigate instead of going untracked.
        for r in 0..2u32 {
            c.on_activation(RowAddr::new(0, 0, 0, r), 0, Demand);
        }
        let d = c.on_activation(RowAddr::new(0, 0, 0, 2), 0, Demand);
        assert_eq!(d.mitigations.len(), 1);
        assert_eq!(c.rat_full_mitigations(), 1);
    }

    #[test]
    fn window_reset_clears_both_tiers() {
        let mut c = comet(64);
        let row = RowAddr::new(0, 0, 0, 7);
        for i in 0..20u64 {
            c.on_activation(row, i, Demand);
        }
        c.reset_window(100);
        // Without the reset the RAT count (20) would fire 12 activations on.
        assert_eq!(
            firings(&mut c, row, 32),
            vec![32],
            "fresh window starts from scratch"
        );
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(CometConfig::for_threshold(2).is_err());
        let mut bad = match CometConfig::for_threshold(64) {
            Ok(c) => c,
            Err(e) => panic!("config: {e}"),
        };
        bad.t_early = bad.t_h + 1;
        assert!(Comet::new(MemGeometry::tiny(), 0, bad).is_err());
        let ok = match CometConfig::for_threshold(64) {
            Ok(c) => c,
            Err(e) => panic!("config: {e}"),
        };
        assert!(Comet::new(MemGeometry::tiny(), 9, ok).is_err());
    }

    #[test]
    fn sram_bits_scale_with_geometry_and_tables() {
        let c = comet(1000);
        // tiny: 1 rank × 4 banks; 512×4 16-bit counters + 128 RAT entries.
        let banks = 4u64;
        let sketch = 512 * 4 * 16;
        let rat = 128 * (17 + 9); // t_h = 500 → 9 counter bits
        assert_eq!(c.sram_bits(), banks * (sketch + rat));
    }
}
