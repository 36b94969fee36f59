//! MINT: a minimalist in-DRAM interval sampler
//! (Qureshi, Qazi & Jaleel, MICRO 2024; arXiv 2407.16038).
//!
//! MINT keeps no per-row counters at all. Each bank divides its
//! activation stream into fixed-length **intervals**; within every
//! interval a seeded generator pre-selects one slot, and the row whose
//! activation lands on that slot is mitigated. An aggressor that performs
//! `k` activations in a window is therefore sampled with probability
//! `1 − (1 − 1/I)^k`; with the paper-flavored interval `I = T_H / 16`, a
//! row that accrues `T_H` activations is missed with probability
//! ≈ `e^−16` ≈ 1.1 × 10⁻⁷ per window. Mitigations are never spurious:
//! only the row of the current activation is ever mitigated.
//!
//! Unlike PARA's per-activation coin flip, the interval structure gives
//! MINT a *fixed* mitigation budget — exactly one neighbor refresh per
//! `I` activations per bank — which is what lets it live inside the DRAM
//! die on a fixed RFM cadence. Its on-chip state is just the slot cursor,
//! the chosen slot, and the RNG: tens of bits per bank, the smallest
//! nonzero SRAM point in the arena.
//!
//! The generator is the workspace's deterministic xoshiro256++
//! [`SmallRng`]: a seed fully determines the run, so leaderboard cells and
//! oracle fixtures are reproducible.

use hydra_types::{
    ActivationKind, ActivationTracker, ConfigError, MemCycle, MemGeometry, RowAddr, TrackerResponse,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// MINT configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MintConfig {
    /// Activations per sampling interval, per bank.
    pub interval: u32,
    /// RNG seed (the run is fully deterministic given it).
    pub seed: u64,
}

impl MintConfig {
    /// Paper-flavored sizing for Row-Hammer threshold `t_rh`: interval
    /// `T_H / 16` (with `T_H = t_rh / 2`), so an aggressor reaching `T_H`
    /// activations in a window escapes sampling with probability ≈ `e^−16`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for `t_rh < 4`.
    pub fn for_threshold(t_rh: u32, seed: u64) -> Result<Self, ConfigError> {
        if t_rh < 4 {
            return Err(ConfigError::new(format!(
                "row-hammer threshold {t_rh} too small for MINT (min 4)"
            )));
        }
        Ok(MintConfig {
            interval: (t_rh / 2 / 16).max(1),
            seed,
        })
    }
}

/// One bank's interval cursor.
#[derive(Debug, Clone, Copy)]
struct BankCursor {
    /// Position within the current interval (`0..interval`).
    pos: u32,
    /// The pre-selected slot to sample this interval.
    target: u32,
}

/// The MINT tracker for one channel. See the module docs.
#[derive(Debug, Clone)]
pub struct Mint {
    config: MintConfig,
    channel: u8,
    banks_per_rank: u8,
    banks: Vec<BankCursor>,
    rng: SmallRng,
    mitigations: u64,
}

impl Mint {
    /// Creates a MINT instance for one channel of `geometry`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for a bad channel or a zero interval.
    pub fn new(
        geometry: MemGeometry,
        channel: u8,
        config: MintConfig,
    ) -> Result<Self, ConfigError> {
        if channel >= geometry.channels() {
            return Err(ConfigError::new("channel out of range"));
        }
        if config.interval == 0 {
            return Err(ConfigError::new("MINT interval must be nonzero"));
        }
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let nbanks =
            usize::from(geometry.ranks_per_channel()) * usize::from(geometry.banks_per_rank());
        let banks = (0..nbanks)
            .map(|_| BankCursor {
                pos: 0,
                target: rng.gen_range(0..config.interval),
            })
            .collect();
        Ok(Mint {
            config,
            channel,
            banks_per_rank: geometry.banks_per_rank(),
            banks,
            rng,
            mitigations: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &MintConfig {
        &self.config
    }

    /// Mitigations issued so far.
    pub fn mitigations(&self) -> u64 {
        self.mitigations
    }

    fn bank_index(&self, row: RowAddr) -> usize {
        usize::from(row.rank) * usize::from(self.banks_per_rank) + usize::from(row.bank)
    }

    /// On-chip state in bits: the instance size model behind
    /// [`ActivationTracker::sram_bytes`].
    pub fn sram_bits(&self) -> u64 {
        // Per bank: the slot cursor and the chosen slot, each
        // ceil(log2 interval) bits, plus one shared 256-bit xoshiro state.
        let slot_bits = u64::from(u32::BITS - self.config.interval.leading_zeros()).max(1);
        (self.banks.len() as u64).saturating_mul(2 * slot_bits) + 256
    }
}

impl ActivationTracker for Mint {
    fn on_activation(
        &mut self,
        row: RowAddr,
        _now: MemCycle,
        _kind: ActivationKind,
    ) -> TrackerResponse {
        debug_assert_eq!(row.channel, self.channel);
        let interval = self.config.interval;
        let idx = self.bank_index(row);
        let sampled = self.banks[idx].pos == self.banks[idx].target;
        self.banks[idx].pos += 1;
        if self.banks[idx].pos >= interval {
            self.banks[idx].pos = 0;
            self.banks[idx].target = self.rng.gen_range(0..interval);
        }
        if sampled {
            self.mitigations += 1;
            TrackerResponse::mitigate(row)
        } else {
            TrackerResponse::none()
        }
    }

    fn reset_window(&mut self, _now: MemCycle) {
        // Restart every bank's interval; the RNG keeps advancing (the seed
        // determines the whole run, not each window).
        let interval = self.config.interval;
        for bank in &mut self.banks {
            bank.pos = 0;
            bank.target = self.rng.gen_range(0..interval);
        }
    }

    fn name(&self) -> &str {
        "mint"
    }

    fn params(&self) -> String {
        format!(
            "interval={} seed={}",
            self.config.interval, self.config.seed
        )
    }

    fn sram_bytes(&self) -> u64 {
        self.sram_bits().div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_types::ActivationKind::Demand;

    fn mint(interval: u32, seed: u64) -> Mint {
        let config = MintConfig { interval, seed };
        match Mint::new(MemGeometry::tiny(), 0, config) {
            Ok(m) => m,
            Err(e) => panic!("mint: {e}"),
        }
    }

    #[test]
    fn samples_exactly_once_per_interval() {
        let mut m = mint(16, 7);
        let row = RowAddr::new(0, 0, 0, 42);
        for interval in 0..50u64 {
            let mut hits = 0;
            for i in 0..16u64 {
                let d = m.on_activation(row, interval * 16 + i, Demand);
                hits += d.mitigations.len();
            }
            assert_eq!(hits, 1, "interval {interval}");
        }
        assert_eq!(m.mitigations(), 50);
    }

    #[test]
    fn only_the_activated_row_is_ever_mitigated() {
        let mut m = mint(8, 3);
        for i in 0..500u64 {
            let row = RowAddr::new(0, 0, (i % 4) as u8, (i % 97) as u32);
            for mitigation in &m.on_activation(row, i, Demand).mitigations {
                assert_eq!(mitigation.aggressor, row);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| -> Vec<u64> {
            let mut m = mint(8, seed);
            let mut hits = Vec::new();
            for i in 0..200u64 {
                let row = RowAddr::new(0, 0, 0, (i % 13) as u32);
                if !m.on_activation(row, i, Demand).mitigations.is_empty() {
                    hits.push(i);
                }
            }
            hits
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn banks_sample_independently() {
        let mut m = mint(4, 11);
        // Drive only bank 2; bank 0's cursor must not advance.
        for i in 0..12u64 {
            m.on_activation(RowAddr::new(0, 0, 2, 5), i, Demand);
        }
        assert_eq!(m.banks[0].pos, 0);
        assert_eq!(m.banks[2].pos, 0); // 12 acts = 3 full intervals
        assert_eq!(m.mitigations(), 3);
    }

    #[test]
    fn for_threshold_follows_the_interval_rule() {
        let c = match MintConfig::for_threshold(1000, 1) {
            Ok(c) => c,
            Err(e) => panic!("config: {e}"),
        };
        assert_eq!(c.interval, 31); // T_H = 500 → 500/16
        let tiny = match MintConfig::for_threshold(4, 1) {
            Ok(c) => c,
            Err(e) => panic!("config: {e}"),
        };
        assert_eq!(tiny.interval, 1); // clamped
        assert!(MintConfig::for_threshold(2, 1).is_err());
    }

    #[test]
    fn sram_is_tens_of_bits_per_bank() {
        let m = mint(31, 1);
        // tiny: 4 banks × 2×5 bits + 256-bit RNG.
        assert_eq!(m.sram_bits(), 4 * 10 + 256);
        assert!(m.sram_bits() < 8 * 100, "MINT must stay under 100 bytes");
    }
}
