//! Graphene: per-bank Misra-Gries tracking (MICRO 2020), the paper's
//! state-of-the-art SRAM comparator.
//!
//! Each bank owns a Misra-Gries summary whose estimates upper-bound true
//! activation counts; when a tracked row's estimate reaches the operating
//! threshold, Graphene mitigates it. Because the table is reset every
//! tracking window, Graphene must operate at `T_RH / 2` (footnote 3), and to
//! guarantee capacity the per-bank entry count is `ACT_max / (T_RH / 2)`
//! (≈5441 entries at `T_RH` = 500 — Sec. 4.1).
//!
//! Graphene generates *no* DRAM side traffic: its only performance cost is
//! mitigation refreshes. Its cost is SRAM/CAM area (Tables 1 & 5).

use crate::misra_gries::MisraGries;
use hydra_types::addr::RowAddr;
use hydra_types::clock::MemCycle;
use hydra_types::error::ConfigError;
use hydra_types::geometry::MemGeometry;
use hydra_types::tracker::{ActivationKind, ActivationTracker, TrackerResponse};

/// Configuration for a per-channel Graphene instance.
#[derive(Debug, Clone)]
pub struct GrapheneConfig {
    /// Memory geometry.
    pub geometry: MemGeometry,
    /// Channel covered by this instance.
    pub channel: u8,
    /// Operating threshold (`T_RH / 2` — mitigate when an estimate reaches
    /// this).
    pub threshold: u32,
    /// Misra-Gries entries per bank.
    pub entries_per_bank: usize,
}

impl GrapheneConfig {
    /// Sizes Graphene for a Row-Hammer threshold: operating threshold
    /// `t_rh / 2` and `ceil(act_max / (t_rh / 2)) + 1` entries per bank.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `t_rh < 4` or the channel is out of range.
    pub fn for_threshold(
        geometry: MemGeometry,
        channel: u8,
        t_rh: u32,
        act_max_per_bank: u64,
    ) -> Result<Self, ConfigError> {
        if t_rh < 4 {
            return Err(ConfigError::new("T_RH must be at least 4"));
        }
        if channel >= geometry.channels() {
            return Err(ConfigError::new("channel out of range"));
        }
        let threshold = t_rh / 2;
        let entries = (act_max_per_bank.div_ceil(u64::from(threshold)) + 1) as usize;
        Ok(GrapheneConfig {
            geometry,
            channel,
            threshold,
            entries_per_bank: entries,
        })
    }
}

/// A per-channel Graphene tracker.
///
/// # Example
///
/// ```
/// use hydra_baselines::graphene::{Graphene, GrapheneConfig};
/// use hydra_types::{ActivationKind, ActivationTracker, MemGeometry, RowAddr};
///
/// let geom = MemGeometry::tiny();
/// let config = GrapheneConfig::for_threshold(geom, 0, 32, 1000)?;
/// let mut g = Graphene::new(config);
/// let row = RowAddr::new(0, 0, 0, 7);
/// let mut mitigations = 0;
/// for t in 0..40 {
///     mitigations += g.on_activation(row, t, ActivationKind::Demand).mitigations.len();
/// }
/// assert_eq!(mitigations, 2); // at the 16th and 32nd activations
/// # Ok::<(), hydra_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Graphene {
    config: GrapheneConfig,
    /// One summary per (rank, bank) of the channel.
    tables: Vec<MisraGries<u32>>,
    mitigations: u64,
    activations: u64,
}

impl Graphene {
    /// Creates a Graphene instance.
    pub fn new(config: GrapheneConfig) -> Self {
        let nbanks = usize::from(config.geometry.ranks_per_channel())
            * usize::from(config.geometry.banks_per_rank());
        Graphene {
            tables: (0..nbanks)
                .map(|_| MisraGries::new(config.entries_per_bank))
                .collect(),
            config,
            mitigations: 0,
            activations: 0,
        }
    }

    /// Convenience constructor matching the paper's comparison point
    /// (T_RH = 500, ACT_max from the default DDR4 timing).
    pub fn isca22_default(geometry: MemGeometry, channel: u8) -> Result<Self, ConfigError> {
        // ACT_max ≈ 1.36 M (Sec. 2.1).
        let config = GrapheneConfig::for_threshold(geometry, channel, 500, 1_360_000)?;
        Ok(Graphene::new(config))
    }

    /// The configuration.
    pub fn config(&self) -> &GrapheneConfig {
        &self.config
    }

    /// Mitigations issued so far.
    pub fn mitigations(&self) -> u64 {
        self.mitigations
    }

    /// Activations observed so far.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    fn table_index(&self, row: RowAddr) -> usize {
        usize::from(row.rank) * usize::from(self.config.geometry.banks_per_rank())
            + usize::from(row.bank)
    }
}

impl ActivationTracker for Graphene {
    fn on_activation(
        &mut self,
        row: RowAddr,
        _now: MemCycle,
        _kind: ActivationKind,
    ) -> TrackerResponse {
        debug_assert_eq!(row.channel, self.config.channel);
        self.activations += 1;
        let threshold = u64::from(self.config.threshold);
        let idx = self.table_index(row);
        let table = &mut self.tables[idx];
        let estimate = table.increment(&row.row);
        if estimate >= threshold && table.is_tracked(&row.row) {
            table.reset_item(&row.row);
            self.mitigations += 1;
            TrackerResponse::mitigate(row)
        } else {
            TrackerResponse::none()
        }
    }

    fn reset_window(&mut self, _now: MemCycle) {
        for t in &mut self.tables {
            t.clear();
        }
    }

    fn name(&self) -> &str {
        "graphene"
    }

    fn sram_bytes(&self) -> u64 {
        crate::storage::graphene_bytes_per_rank(
            self.config.threshold * 2,
            1_360_000,
            u32::from(self.config.geometry.banks_per_rank()),
        ) * u64::from(self.config.geometry.ranks_per_channel())
    }

    fn params(&self) -> String {
        format!(
            "threshold={} entries_per_bank={}",
            self.config.threshold, self.config.entries_per_bank
        )
    }

    /// Worst Misra-Gries spillover across the per-bank tables: the maximum
    /// amount by which any summary's estimates over-count the truth. The
    /// arena leaderboard reports this as Graphene's counting slack.
    fn max_spillover(&self) -> u64 {
        self.tables
            .iter()
            .map(MisraGries::spillover)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graphene(threshold: u32, entries: usize) -> Graphene {
        Graphene::new(GrapheneConfig {
            geometry: MemGeometry::tiny(),
            channel: 0,
            threshold,
            entries_per_bank: entries,
        })
    }

    fn act(g: &mut Graphene, row: RowAddr) -> TrackerResponse {
        g.on_activation(row, 0, ActivationKind::Demand)
    }

    #[test]
    fn mitigates_at_threshold() {
        let mut g = graphene(8, 16);
        let row = RowAddr::new(0, 0, 0, 42);
        let mut when = Vec::new();
        for i in 1..=24 {
            if !act(&mut g, row).mitigations.is_empty() {
                when.push(i);
            }
        }
        assert_eq!(when, vec![8, 16, 24]);
    }

    #[test]
    fn banks_are_independent() {
        let mut g = graphene(4, 8);
        for _ in 0..3 {
            act(&mut g, RowAddr::new(0, 0, 0, 1));
            act(&mut g, RowAddr::new(0, 0, 1, 1));
        }
        // Neither bank's row reached 4.
        assert_eq!(g.mitigations(), 0);
        let r = act(&mut g, RowAddr::new(0, 0, 0, 1));
        assert_eq!(r.mitigations.len(), 1);
    }

    #[test]
    fn properly_sized_tracker_catches_thrashing() {
        // entries >= activations/threshold guarantees no aggressor escapes:
        // hammer one row to threshold-1 amid many decoys, then push it over.
        let act_budget = 1000u64;
        let threshold = 50u32;
        let config =
            GrapheneConfig::for_threshold(MemGeometry::tiny(), 0, threshold * 2, act_budget)
                .unwrap();
        let mut g = Graphene::new(config);
        let target = RowAddr::new(0, 0, 0, 7);
        let mut unmitigated = 0u32;
        for i in 0..900u64 {
            // 1 target ACT per 2 decoys — decoys cycle over 300 rows.
            let decoy = RowAddr::new(0, 0, 0, 100 + (i % 300) as u32);
            act(&mut g, decoy);
            if i.is_multiple_of(2) {
                unmitigated += 1;
                let r = act(&mut g, target);
                if !r.mitigations.is_empty() {
                    unmitigated = 0;
                }
                assert!(unmitigated <= threshold, "target escaped at step {i}");
            }
        }
    }

    #[test]
    fn undersized_tracker_degrades_into_spurious_mitigations() {
        // The TRRespass-adjacent observation (Sec. 2.4): with too few
        // entries, thrashing inflates the Misra-Gries spillover, so *every*
        // newly inserted row's estimate starts near the threshold and
        // mitigation accuracy collapses — the tracker stays safe only by
        // mitigating almost everything, which is why Graphene must be
        // provisioned with the full entry count (and why that costs 340 KB
        // per rank at T_RH = 500).
        let run = |entries: usize| -> u64 {
            let mut g = graphene(50, entries);
            let target = RowAddr::new(0, 0, 0, 7);
            for i in 0..300u64 {
                for d in 0..8u32 {
                    act(
                        &mut g,
                        RowAddr::new(0, 0, 0, 1000 + ((i as u32 * 8 + d) % 512)),
                    );
                }
                act(&mut g, target);
            }
            g.mitigations()
        };
        let well_sized = run(4096);
        let undersized = run(4);
        // Well sized: only the target crosses the threshold (300 ACTs / 50).
        assert_eq!(well_sized, 6);
        assert!(
            undersized > 5 * well_sized,
            "undersized={undersized} well_sized={well_sized}"
        );
    }

    #[test]
    fn window_reset_clears_tables() {
        let mut g = graphene(8, 16);
        let row = RowAddr::new(0, 0, 0, 42);
        for _ in 0..7 {
            act(&mut g, row);
        }
        g.reset_window(0);
        for _ in 0..7 {
            let r = act(&mut g, row);
            assert!(r.mitigations.is_empty());
        }
    }

    #[test]
    fn for_threshold_sizes_like_the_paper() {
        // Sec. 4.1: T_RH = 500 and ACT_max = 1.36 M → ~5441 entries per bank.
        let c = GrapheneConfig::for_threshold(MemGeometry::isca22_baseline(), 0, 500, 1_360_000)
            .unwrap();
        assert_eq!(c.threshold, 250);
        assert!(
            (5440..=5442).contains(&c.entries_per_bank),
            "{}",
            c.entries_per_bank
        );
    }

    #[test]
    fn name_is_graphene() {
        let g = graphene(8, 16);
        assert_eq!(g.name(), "graphene");
        assert!(g.sram_bytes() > 0);
    }
}
