//! ABACuS: all-bank activation counters with shared row-id tracking
//! (Olgun et al., USENIX Security 2024; arxiv 2310.09977).
//!
//! ABACuS exploits the observation that workloads (and Row-Hammer attacks)
//! tend to touch the *same row index* across many banks — a consequence of
//! bank-interleaved address mapping. Instead of one counter per (bank, row),
//! it keeps **one shared entry per row id per rank**:
//!
//! * a **Row Activation Counter (RAC)** counting, conceptually, the maximum
//!   per-bank activation count for this row id, and
//! * a **Sibling Activation Vector (SAV)** — a per-bank bitmask recording
//!   which banks have activated the row since the RAC last advanced.
//!
//! On an activation of row `r` in bank `b`: if `b`'s SAV bit is already
//! set, some bank has activated `r` twice since the RAC advanced, so the
//! RAC increments and the SAV collapses to `{b}`; otherwise `b`'s bit is
//! simply set. This maintains the invariant that any bank's true count for
//! row id `r` is at most `RAC + 1` (the `+1` covers the pending SAV bit):
//! each bank contributes at most one activation per RAC step. When
//! `RAC + 1` reaches the mitigation threshold `T_H`, every bank that ever
//! touched the row this window (a second **dirty mask** accumulated across
//! RAC steps) gets a mitigation and the entry retires.
//!
//! Mitigating only dirty banks matters for oracle-cleanliness: mitigating
//! a (bank, row) with zero true activations would be flagged as spurious.
//!
//! The entry table is bounded. A full table mitigates the incoming
//! (bank, row) directly — always safe, never spurious (the row was just
//! activated) — and counts it in [`Abacus::table_full_mitigations`], so a
//! sound provisioning (`entries ≥ 2·ACT_max / T_RH`, mirroring the paper's
//! `N_RH_entries`) shows up as a zero in the leaderboard.

use hydra_types::hash::RowMap;
use hydra_types::{
    ActivationKind, ActivationTracker, ConfigError, MemCycle, MemGeometry, MitigationRequest,
    RowAddr, TrackerResponse,
};

/// ABACuS configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbacusConfig {
    /// Mitigation threshold per window (`T_RH / 2`).
    pub t_h: u32,
    /// Shared row-id entries per rank.
    pub entries_per_rank: usize,
}

impl AbacusConfig {
    /// Sizes ABACuS for Row-Hammer threshold `t_rh` against a worst case of
    /// `act_max_per_bank` activations per bank per window: the number of
    /// row ids that can reach `T_H = t_rh / 2` in *some* bank is at most
    /// `act_max_per_bank / T_H` — but because the RAC advances only on a
    /// sibling repeat, a row interleaved across all banks consumes table
    /// residency while its RAC crawls, so the paper provisions
    /// `2 · act_max / t_rh` entries and we follow (plus one for slack).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `t_rh < 4`.
    pub fn for_threshold(t_rh: u32, act_max_per_bank: u64) -> Result<Self, ConfigError> {
        if t_rh < 4 {
            return Err(ConfigError::new(format!(
                "row-hammer threshold {t_rh} too small for ABACuS (min 4)"
            )));
        }
        let t_h = t_rh / 2;
        let entries = (act_max_per_bank.div_ceil(u64::from(t_h)) + 1) as usize;
        Ok(AbacusConfig {
            t_h,
            entries_per_rank: entries,
        })
    }
}

/// One shared row-id entry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Row activation counter: `rac + 1` upper-bounds every bank's true
    /// count for this row id this window.
    rac: u32,
    /// Sibling activation vector: banks that activated since the last RAC
    /// advance.
    sav: u32,
    /// Banks that activated this row id at least once this window (the
    /// mitigation fan-out set).
    dirty: u32,
}

/// The ABACuS tracker for one channel. See the module docs.
#[derive(Debug, Clone)]
pub struct Abacus {
    config: AbacusConfig,
    channel: u8,
    banks_per_rank: u8,
    /// One shared table per rank: row id → entry.
    ranks: Vec<RowMap<u32, Entry>>,
    mitigations: u64,
    table_full_mitigations: u64,
}

impl Abacus {
    /// Creates an ABACuS instance for one channel of `geometry`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for a bad channel, a zero threshold or table,
    /// or a geometry with more than 32 banks per rank (the SAV is a `u32`
    /// bitmask).
    pub fn new(
        geometry: MemGeometry,
        channel: u8,
        config: AbacusConfig,
    ) -> Result<Self, ConfigError> {
        if channel >= geometry.channels() {
            return Err(ConfigError::new("channel out of range"));
        }
        if config.t_h == 0 || config.entries_per_rank == 0 {
            return Err(ConfigError::new(
                "ABACuS threshold and table must be nonzero",
            ));
        }
        if geometry.banks_per_rank() > 32 {
            return Err(ConfigError::new(
                "ABACuS sibling vector supports at most 32 banks per rank",
            ));
        }
        let ranks = (0..geometry.ranks_per_channel())
            .map(|_| RowMap::with_capacity_and_hasher(config.entries_per_rank, Default::default()))
            .collect();
        Ok(Abacus {
            config,
            channel,
            banks_per_rank: geometry.banks_per_rank(),
            ranks,
            mitigations: 0,
            table_full_mitigations: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &AbacusConfig {
        &self.config
    }

    /// Mitigations issued so far (counting each mitigated (bank, row)).
    pub fn mitigations(&self) -> u64 {
        self.mitigations
    }

    /// Mitigations forced by table exhaustion (0 when provisioned soundly).
    pub fn table_full_mitigations(&self) -> u64 {
        self.table_full_mitigations
    }

    /// On-chip state in bits: the instance size model behind
    /// [`ActivationTracker::sram_bytes`].
    pub fn sram_bits(&self) -> u64 {
        // Per entry: a row id (17 bits at the paper's 128 K rows/bank), a
        // RAC wide enough for T_H, and two bank bitmasks (SAV + dirty). See
        // `hydra_baselines::storage::abacus_bytes_per_rank` for the
        // paper-scale analytic model.
        let rac_bits = u64::from(u32::BITS - self.config.t_h.leading_zeros());
        let masks = 2 * u64::from(self.banks_per_rank);
        let entry_bits = 17 + rac_bits + masks;
        (self.ranks.len() as u64)
            .saturating_mul(self.config.entries_per_rank as u64)
            .saturating_mul(entry_bits)
    }
}

impl ActivationTracker for Abacus {
    fn on_activation(
        &mut self,
        row: RowAddr,
        _now: MemCycle,
        _kind: ActivationKind,
    ) -> TrackerResponse {
        debug_assert_eq!(row.channel, self.channel);
        let t_h = self.config.t_h;
        let entries = self.config.entries_per_rank;
        let table = &mut self.ranks[usize::from(row.rank)];
        let bank_bit = 1u32 << row.bank;

        let entry = match table.get_mut(&row.row) {
            Some(e) => e,
            None => {
                if table.len() >= entries {
                    // Full: mitigate the incoming (bank, row) directly. Safe
                    // — it was just activated — and the activation is then
                    // accounted for (a mitigated row restarts from zero).
                    self.table_full_mitigations += 1;
                    self.mitigations += 1;
                    return TrackerResponse::mitigate(row);
                }
                table.insert(
                    row.row,
                    Entry {
                        rac: 0,
                        sav: 0,
                        dirty: 0,
                    },
                );
                match table.get_mut(&row.row) {
                    Some(e) => e,
                    // Unreachable: the key was just inserted.
                    None => {
                        return TrackerResponse::none();
                    }
                }
            }
        };

        entry.dirty |= bank_bit;
        if entry.sav & bank_bit != 0 {
            // Sibling repeat: the RAC advances and the vector collapses.
            entry.rac += 1;
            entry.sav = bank_bit;
        } else {
            entry.sav |= bank_bit;
        }
        if entry.rac + 1 >= t_h {
            // Some bank may be one activation away from T_H: mitigate every
            // bank that touched this row id this window, then retire the
            // entry so all of them restart from zero.
            let dirty = entry.dirty;
            table.remove(&row.row);
            let mut mitigations = Vec::new();
            for bank in 0..self.banks_per_rank {
                if dirty & (1u32 << bank) != 0 {
                    mitigations.push(MitigationRequest::new(RowAddr::new(
                        row.channel,
                        row.rank,
                        bank,
                        row.row,
                    )));
                }
            }
            self.mitigations += mitigations.len() as u64;
            return TrackerResponse {
                mitigations,
                side_requests: Vec::new(),
            };
        }

        TrackerResponse::none()
    }

    fn reset_window(&mut self, _now: MemCycle) {
        for table in &mut self.ranks {
            table.clear();
        }
    }

    fn name(&self) -> &str {
        "abacus"
    }

    fn params(&self) -> String {
        format!(
            "t_h={} entries_per_rank={}",
            self.config.t_h, self.config.entries_per_rank
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

    fn abacus(t_h: u32, entries: usize) -> Abacus {
        let config = AbacusConfig {
            t_h,
            entries_per_rank: entries,
        };
        match Abacus::new(MemGeometry::tiny(), 0, config) {
            Ok(a) => a,
            Err(e) => panic!("abacus: {e}"),
        }
    }

    #[test]
    fn single_bank_aggressor_mitigated_at_t_h() {
        let mut a = abacus(8, 64);
        let row = RowAddr::new(0, 0, 0, 42);
        let mut when = Vec::new();
        for i in 1..=24u64 {
            if !a.on_activation(row, i, Demand).mitigations.is_empty() {
                when.push(i);
            }
        }
        // Single bank: the SAV bit repeats every activation, so rac+1
        // tracks the true count exactly and fires at every 8th activation.
        assert_eq!(when, vec![8, 16, 24]);
    }

    #[test]
    fn interleaved_siblings_share_one_counter() {
        let mut a = abacus(8, 64);
        // Hammer the same row id in all 4 tiny-geometry banks, round-robin.
        // Each round sets 4 SAV bits then repeats → rac advances once per
        // round; every bank's true count equals rac+... ≤ rac+1 bound.
        let mut mitigated_banks = Vec::new();
        'outer: for round in 0..16u64 {
            for bank in 0..4u8 {
                let d = a.on_activation(RowAddr::new(0, 0, bank, 42), round, Demand);
                if !d.mitigations.is_empty() {
                    mitigated_banks = d.mitigations.iter().map(|m| m.aggressor.bank).collect();
                    break 'outer;
                }
            }
        }
        // All four banks were dirty, so all four get mitigated together.
        assert_eq!(mitigated_banks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn mitigation_fans_out_only_to_dirty_banks() {
        let mut a = abacus(4, 64);
        // Only banks 0 and 2 touch row 7.
        loop {
            a.on_activation(RowAddr::new(0, 0, 2, 7), 0, Demand);
            let d = a.on_activation(RowAddr::new(0, 0, 0, 7), 0, Demand);
            if !d.mitigations.is_empty() {
                let banks: Vec<u8> = d.mitigations.iter().map(|m| m.aggressor.bank).collect();
                assert_eq!(banks, vec![0, 2]);
                return;
            }
        }
    }

    #[test]
    fn full_table_mitigates_the_incoming_row() {
        let mut a = abacus(8, 2);
        a.on_activation(RowAddr::new(0, 0, 0, 1), 0, Demand);
        a.on_activation(RowAddr::new(0, 0, 0, 2), 0, Demand);
        let d = a.on_activation(RowAddr::new(0, 0, 0, 3), 0, Demand);
        assert_eq!(d.mitigations.len(), 1);
        assert_eq!(d.mitigations[0].aggressor.row, 3);
        assert_eq!(a.table_full_mitigations(), 1);
    }

    #[test]
    fn window_reset_clears_tables() {
        let mut a = abacus(8, 64);
        let row = RowAddr::new(0, 0, 0, 42);
        for i in 0..7u64 {
            a.on_activation(row, i, Demand);
        }
        a.reset_window(100);
        for i in 0..7u64 {
            assert!(a.on_activation(row, 100 + i, Demand).mitigations.is_empty());
        }
    }

    #[test]
    fn for_threshold_matches_the_capacity_rule() {
        let c = match AbacusConfig::for_threshold(1000, 1_360_000) {
            Ok(c) => c,
            Err(e) => panic!("config: {e}"),
        };
        assert_eq!(c.t_h, 500);
        assert_eq!(c.entries_per_rank, 2721);
        assert!(AbacusConfig::for_threshold(2, 1000).is_err());
    }

    #[test]
    fn sram_bits_follow_the_entry_layout() {
        let a = abacus(500, 2721);
        // tiny: 1 rank, 4 banks → 17 (rowid) + 9 (rac) + 8 (2×4-bit masks).
        assert_eq!(a.sram_bits(), 2721 * (17 + 9 + 8));
    }
}
