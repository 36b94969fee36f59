//! START: scalable tracking for any Row-Hammer threshold
//! (Saxena & Qureshi, HPCA 2024; arxiv 2308.14889).
//!
//! START's insight is that reserving a dedicated counter per DRAM row is
//! wasteful because a 64 ms window touches only a small slice of the row
//! space: tracking state can be allocated *lazily, at cache-line
//! granularity*, the way START carves counter lines out of a configurable
//! fraction of the LLC. This reproduction models that storage discipline
//! directly:
//!
//! * Rows are partitioned into **groups** of `group_rows` consecutive rows
//!   (one group ≈ one counter cache line). A group's counter storage is
//!   allocated the first time any of its rows activates; an untouched
//!   group costs nothing.
//! * Counters are exact. When a row's count reaches `T_H` it is mitigated
//!   and its counter resets — per-row, not per-group.
//! * The allocation pool is capped at `max_groups` per channel
//!   (the configurable per-`T_RH` knob: lower thresholds need more
//!   concurrently-live groups). When the pool is exhausted, an activation
//!   of an *unallocated* group mitigates the incoming row immediately —
//!   safe, never spurious (the row was just activated) — and is counted in
//!   [`Start::pool_full_mitigations`] so the leaderboard exposes
//!   under-provisioning instead of hiding it.
//! * `reset_window` frees every group, so the reported SRAM high-water
//!   mark ([`Start::peak_groups`]) is a per-window figure — the analogue
//!   of START's observation that its worst measured workload used ~4% of
//!   the LLC while the reserved fraction covers the adversarial bound.
//!
//! Safety: counts are exact and mitigation fires at `T_H = T_RH / 2` with
//! the tables cleared each window, so the usual window-split argument
//! bounds any row's unmitigated activations below `T_RH`; the pool-full
//! fallback mitigates rather than drops, so exhaustion degrades
//! performance, never security.

use hydra_types::{
    ActivationKind, ActivationTracker, ConfigError, MemCycle, MemGeometry, RowAddr, TrackerResponse,
};
use std::collections::HashMap;

/// START configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartConfig {
    /// Mitigation threshold per window (`T_RH / 2`).
    pub t_h: u32,
    /// Rows per lazily-allocated counter group (one counter cache line).
    pub group_rows: u32,
    /// Maximum concurrently-allocated groups per channel (the reserved
    /// storage fraction).
    pub max_groups: usize,
}

impl StartConfig {
    /// Sizes START for Row-Hammer threshold `t_rh` against a worst case of
    /// `act_max_per_bank` activations per bank per window across
    /// `banks` banks: 8 rows per group (a 64 B line of 8-bit-plus counters)
    /// and enough groups that an adversary touching a fresh group every
    /// `T_H` activations can never exhaust the pool —
    /// `banks · act_max / T_H + 1` groups. That adversarial reservation is
    /// the knob the paper turns per threshold: halving `t_rh` doubles it.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for `t_rh < 4`.
    pub fn for_threshold(
        t_rh: u32,
        act_max_per_bank: u64,
        banks: u32,
    ) -> Result<Self, ConfigError> {
        if t_rh < 4 {
            return Err(ConfigError::new(format!(
                "row-hammer threshold {t_rh} too small for START (min 4)"
            )));
        }
        let t_h = t_rh / 2;
        // One fresh group per activation is the true worst case (each
        // activation can touch a new group), but such an attack never
        // accumulates per-row counts; groups only need to survive while a
        // row inside them can still reach T_H. The binding bound is total
        // activations per window divided by 1 (distinct groups), clamped by
        // how many groups the row space even has — we reserve the paper's
        // pragmatic `ACT_total / T_H` plus slack, and keep the pool-full
        // path safe regardless.
        let act_total = act_max_per_bank.saturating_mul(u64::from(banks));
        let max_groups = (act_total.div_ceil(u64::from(t_h)) + 1) as usize;
        Ok(StartConfig {
            t_h,
            group_rows: 8,
            max_groups,
        })
    }
}

/// Key of one counter group: (rank, bank, row / group_rows).
type GroupKey = (u8, u8, u32);

/// The START tracker for one channel. See the module docs.
#[derive(Debug, Clone)]
pub struct Start {
    config: StartConfig,
    channel: u8,
    /// Lazily-allocated counter groups.
    groups: HashMap<GroupKey, Vec<u32>>,
    /// High-water mark of concurrently-allocated groups (any window).
    peak_groups: usize,
    mitigations: u64,
    pool_full_mitigations: u64,
}

impl Start {
    /// Creates a START instance for one channel of `geometry`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for a bad channel or a degenerate config.
    pub fn new(
        geometry: MemGeometry,
        channel: u8,
        config: StartConfig,
    ) -> Result<Self, ConfigError> {
        if channel >= geometry.channels() {
            return Err(ConfigError::new("channel out of range"));
        }
        if config.t_h == 0 || config.group_rows == 0 || config.max_groups == 0 {
            return Err(ConfigError::new(
                "START threshold, group size, and pool must be nonzero",
            ));
        }
        Ok(Start {
            config,
            channel,
            groups: HashMap::new(),
            peak_groups: 0,
            mitigations: 0,
            pool_full_mitigations: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &StartConfig {
        &self.config
    }

    /// Mitigations issued so far.
    pub fn mitigations(&self) -> u64 {
        self.mitigations
    }

    /// Mitigations forced by pool exhaustion (0 when provisioned soundly).
    pub fn pool_full_mitigations(&self) -> u64 {
        self.pool_full_mitigations
    }

    /// High-water mark of concurrently-allocated groups.
    pub fn peak_groups(&self) -> usize {
        self.peak_groups
    }

    /// Groups currently allocated.
    pub fn live_groups(&self) -> usize {
        self.groups.len()
    }

    /// On-chip state in bits: the instance size model behind
    /// [`ActivationTracker::sram_bytes`].
    pub fn sram_bits(&self) -> u64 {
        // The reserved pool, whether or not it is currently allocated:
        // max_groups lines of group_rows counters at ceil(log2 T_H) bits,
        // plus a tag per line (17-bit group id at paper scale). See
        // `hydra_baselines::storage::start_bytes_per_rank` for the
        // paper-scale analytic model.
        let counter_bits = u64::from(u32::BITS - self.config.t_h.leading_zeros());
        let line_bits = u64::from(self.config.group_rows) * counter_bits + 17;
        (self.config.max_groups as u64).saturating_mul(line_bits)
    }
}

impl ActivationTracker for Start {
    fn on_activation(
        &mut self,
        row: RowAddr,
        _now: MemCycle,
        _kind: ActivationKind,
    ) -> TrackerResponse {
        debug_assert_eq!(row.channel, self.channel);
        let t_h = self.config.t_h;
        let group_rows = self.config.group_rows;
        let key: GroupKey = (row.rank, row.bank, row.row / group_rows);
        let slot = (row.row % group_rows) as usize;

        if !self.groups.contains_key(&key) {
            if self.groups.len() >= self.config.max_groups {
                // Pool exhausted: mitigate the incoming row now instead of
                // tracking it. Safe — this very activation touched it.
                self.pool_full_mitigations += 1;
                self.mitigations += 1;
                return TrackerResponse::mitigate(row);
            }
            self.groups.insert(key, vec![0u32; group_rows as usize]);
            self.peak_groups = self.peak_groups.max(self.groups.len());
        }
        let counters = match self.groups.get_mut(&key) {
            Some(c) => c,
            // Unreachable: the group was allocated above.
            None => return TrackerResponse::none(),
        };
        counters[slot] += 1;
        if counters[slot] >= t_h {
            counters[slot] = 0;
            self.mitigations += 1;
            return TrackerResponse::mitigate(row);
        }
        TrackerResponse::none()
    }

    fn reset_window(&mut self, _now: MemCycle) {
        self.groups.clear();
    }

    fn name(&self) -> &str {
        "start"
    }

    fn params(&self) -> String {
        format!(
            "t_h={} group_rows={} max_groups={}",
            self.config.t_h, self.config.group_rows, self.config.max_groups
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

    fn start(t_h: u32, max_groups: usize) -> Start {
        let config = StartConfig {
            t_h,
            group_rows: 8,
            max_groups,
        };
        match Start::new(MemGeometry::tiny(), 0, config) {
            Ok(s) => s,
            Err(e) => panic!("start: {e}"),
        }
    }

    /// The 1-based activations of `row`, out of `n`, that mitigated.
    fn firings(s: &mut Start, row: RowAddr, n: u64) -> Vec<u64> {
        (1..=n)
            .filter(|&i| !s.on_activation(row, i, Demand).mitigations.is_empty())
            .collect()
    }

    #[test]
    fn exact_counting_mitigates_at_every_t_h() {
        let mut s = start(8, 64);
        assert_eq!(
            firings(&mut s, RowAddr::new(0, 0, 0, 42), 24),
            vec![8, 16, 24]
        );
    }

    #[test]
    fn groups_allocate_lazily_and_rows_do_not_alias() {
        let mut s = start(8, 64);
        assert_eq!(s.live_groups(), 0);
        // Rows 0 and 7 share group 0; row 8 opens group 1.
        s.on_activation(RowAddr::new(0, 0, 0, 0), 0, Demand);
        s.on_activation(RowAddr::new(0, 0, 0, 7), 1, Demand);
        assert_eq!(s.live_groups(), 1);
        s.on_activation(RowAddr::new(0, 0, 0, 8), 2, Demand);
        assert_eq!(s.live_groups(), 2);
        // Row 0's count is still 1 (row 7 did not alias it): it reaches
        // T_H = 8 on its 7th further activation.
        assert_eq!(firings(&mut s, RowAddr::new(0, 0, 0, 0), 7), vec![7]);
    }

    #[test]
    fn pool_exhaustion_mitigates_instead_of_dropping() {
        let mut s = start(8, 2);
        s.on_activation(RowAddr::new(0, 0, 0, 0), 0, Demand); // group 0
        s.on_activation(RowAddr::new(0, 0, 0, 8), 1, Demand); // group 1
        let d = s.on_activation(RowAddr::new(0, 0, 0, 16), 2, Demand); // group 2: full
        assert_eq!(d.mitigations.len(), 1);
        assert_eq!(d.mitigations[0].aggressor.row, 16);
        assert_eq!(s.pool_full_mitigations(), 1);
        // Rows in already-allocated groups still count exactly.
        assert_eq!(firings(&mut s, RowAddr::new(0, 0, 0, 0), 7), vec![7]);
    }

    #[test]
    fn window_reset_frees_every_group_but_keeps_the_peak() {
        let mut s = start(8, 64);
        for g in 0..5u32 {
            s.on_activation(RowAddr::new(0, 0, 0, g * 8), 0, Demand);
        }
        assert_eq!(s.live_groups(), 5);
        s.reset_window(1);
        assert_eq!(s.live_groups(), 0);
        assert_eq!(s.peak_groups(), 5);
        // Row 0 had one activation before the reset; it now needs all 8.
        assert_eq!(
            firings(&mut s, RowAddr::new(0, 0, 0, 0), 8),
            vec![8],
            "fresh window recounts from zero"
        );
    }

    #[test]
    fn for_threshold_scales_the_pool_inversely_with_t_rh() {
        let at = |t_rh| match StartConfig::for_threshold(t_rh, 1_360_000, 16) {
            Ok(c) => c.max_groups,
            Err(e) => panic!("config: {e}"),
        };
        assert_eq!(at(1000), 43_521); // 16×1.36M / 500 + 1
        assert!(at(500) > 2 * at(1000) - 4, "halving T_RH ~doubles the pool");
        assert!(StartConfig::for_threshold(2, 1, 1).is_err());
    }

    #[test]
    fn sram_bits_cover_the_reserved_pool() {
        let s = start(500, 100);
        // 100 lines × (8 counters × 9 bits + 17-bit tag).
        assert_eq!(s.sram_bits(), 100 * (8 * 9 + 17));
    }
}
