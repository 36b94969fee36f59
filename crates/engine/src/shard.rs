//! Sharded multi-channel simulation with a deterministic merge.
//!
//! Hydra's tracker lives per memory controller: the paper's baseline runs
//! one instance per channel and its SRAM structures "are evenly divided
//! across the two channels" (Sec. 6). That makes the channel a natural
//! shard boundary — no tracker state is shared across channels, and the
//! activation simulator advances its clock per *shard-local* activation, so
//! replaying channel `c`'s substream through channel `c`'s instance is the
//! same computation whether the other channels run before, after, or
//! concurrently.
//!
//! [`ShardedSim`] exploits exactly that: one independent `Hydra` per
//! channel, the channels split into contiguous groups (one per
//! [`WorkerPool`](crate::pool::WorkerPool) worker, or one on the calling
//! thread), each group replaying the caller's borrowed stream in a single
//! dispatching pass. Per-shard results merge with order-insensitive
//! reductions: counter sums for [`HydraStats`]/[`ActivationSimReport`] and
//! a *sorted* union for the mitigated-row set. The merged result is
//! therefore bit-identical across worker counts, which
//! `crates/engine/tests/shard_determinism.rs` proves by proptest.

use crate::pool::{CellOutcome, WorkerPool};
use crate::EngineError;
use hydra_core::{Hydra, HydraConfig, HydraStats};
use hydra_dram::DramTiming;
use hydra_sim::{ActivationSim, ActivationSimReport};
use hydra_types::addr::RowAddr;
use hydra_types::geometry::MemGeometry;

/// The outcome of one channel shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardResult {
    /// The channel this shard covered.
    pub channel: u8,
    /// Demand activations routed to this shard.
    pub shard_acts: u64,
    /// The shard tracker's cumulative counters.
    pub stats: HydraStats,
    /// The shard simulator's report.
    pub report: ActivationSimReport,
    /// Rows mitigated in this shard, in mitigation order.
    pub mitigated: Vec<RowAddr>,
}

/// A full multi-channel run after the deterministic merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedRun {
    /// Per-shard results, ordered by channel.
    pub shards: Vec<ShardResult>,
    /// System-wide tracker counters (order-insensitive sum over shards).
    pub stats: HydraStats,
    /// System-wide simulator counters (order-insensitive sum over shards).
    pub report: ActivationSimReport,
    /// Every mitigated row across all shards, sorted (deduplication is the
    /// caller's choice; repeats preserve mitigation multiplicity).
    pub mitigated: Vec<RowAddr>,
}

/// A multi-channel simulation sharded by channel.
#[derive(Debug, Clone)]
pub struct ShardedSim {
    geometry: MemGeometry,
    configs: Vec<HydraConfig>,
    timing: DramTiming,
}

impl ShardedSim {
    /// Builds a sharded simulator from one tracker config per channel.
    /// `configs[c]` must cover channel `c` of `geometry`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the config count does not match the
    /// channel count, a config's channel or geometry disagrees with its
    /// slot, or a config cannot instantiate a tracker.
    pub fn new(geometry: MemGeometry, configs: Vec<HydraConfig>) -> Result<Self, EngineError> {
        if configs.len() != usize::from(geometry.channels()) {
            return Err(EngineError::new(format!(
                "expected one config per channel ({}), got {}",
                geometry.channels(),
                configs.len()
            )));
        }
        for (slot, config) in configs.iter().enumerate() {
            if usize::from(config.channel) != slot {
                return Err(EngineError::new(format!(
                    "config in slot {slot} covers channel {}",
                    config.channel
                )));
            }
            if config.geometry != geometry {
                return Err(EngineError::new(format!(
                    "config for channel {slot} built for a different geometry"
                )));
            }
            // Surface invalid configs at construction, not mid-run on a
            // worker thread.
            Hydra::new(config.clone())
                .map_err(|e| EngineError::new(format!("channel {slot} config rejected: {e}")))?;
        }
        Ok(ShardedSim {
            geometry,
            configs,
            timing: DramTiming::ddr4_3200(),
        })
    }

    /// A sharded simulator using the paper's per-channel default config on
    /// every channel.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the default config does not fit
    /// `geometry`.
    pub fn isca22_default(geometry: MemGeometry) -> Result<Self, EngineError> {
        let configs = (0..geometry.channels())
            .map(|c| {
                HydraConfig::isca22_default(geometry, c)
                    .map_err(|e| EngineError::new(format!("channel {c}: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        ShardedSim::new(geometry, configs)
    }

    /// Overrides the DRAM timing used by every shard (e.g. a scaled window).
    pub fn with_timing(mut self, timing: DramTiming) -> Self {
        self.timing = timing;
        self
    }

    /// The simulated geometry.
    pub fn geometry(&self) -> MemGeometry {
        self.geometry
    }

    /// Splits a system-wide activation stream into one substream per
    /// channel, preserving each channel's arrival order.
    pub fn partition_by_channel(&self, rows: &[RowAddr]) -> Vec<Vec<RowAddr>> {
        partition_by_channel(self.geometry.channels(), rows)
    }

    /// Runs `min(workers, channels)` channel groups on the pool and merges,
    /// bit-identically to [`run_sequential`](Self::run_sequential) whatever
    /// the worker count or completion order.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if any group panics or is skipped; partial
    /// results are discarded (a merged run with a missing channel would
    /// silently under-count).
    pub fn run_parallel(
        &self,
        pool: &WorkerPool,
        rows: &[RowAddr],
    ) -> Result<MergedRun, EngineError> {
        let channels = self.configs.len();
        let groups = pool.workers().min(channels);
        // Ceiling bounds put the larger groups first: 4 channels on 3 split 2/1/1.
        let bound = |g: usize| (g * channels).div_ceil(groups);
        let ranges: Vec<_> = (0..groups).map(|g| bound(g)..bound(g + 1)).collect();
        let outcomes = pool.run_ordered(ranges.clone(), |_, group| self.run_group(group, rows));
        let mut results = Vec::with_capacity(channels);
        for (group, outcome) in ranges.into_iter().zip(outcomes) {
            let failure = match outcome {
                CellOutcome::Done(shards) => {
                    results.extend(shards?);
                    continue;
                }
                CellOutcome::Panicked(msg) => format!("panicked: {msg}"),
                CellOutcome::Skipped => "never ran".to_string(),
            };
            return Err(EngineError::new(format!("channels {group:?} {failure}")));
        }
        Ok(merge_shards(results))
    }

    /// The sequential reference: one pass over the stream on the calling
    /// thread, dispatching every row to its channel's shard, then the same
    /// merge as [`run_parallel`](Self::run_parallel).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if a shard's tracker cannot be built.
    pub fn run_sequential(&self, rows: &[RowAddr]) -> Result<MergedRun, EngineError> {
        Ok(merge_shards(self.run_group(0..self.configs.len(), rows)?))
    }

    /// Replays the `group` channels' shards on fresh trackers in one pass
    /// over `rows`, each row going where [`partition_by_channel`] would put
    /// it. Results come back in channel order.
    fn run_group(
        &self,
        group: std::ops::Range<usize>,
        rows: &[RowAddr],
    ) -> Result<Vec<ShardResult>, EngineError> {
        let channels = self.configs.len();
        let mut sims = Vec::with_capacity(group.len());
        for config in &self.configs[group.clone()] {
            let tracker = Hydra::new(config.clone())
                .map_err(|e| EngineError::new(format!("shard {} failed: {e}", config.channel)))?;
            sims.push(ActivationSim::new(self.geometry, tracker).with_timing(self.timing));
        }
        for row in rows {
            let c = usize::from(row.channel);
            let slot = if c < channels { c } else { c % channels };
            if group.contains(&slot) {
                sims[slot - group.start].activate(*row);
            }
        }
        let mut results = Vec::with_capacity(sims.len());
        for (config, mut sim) in self.configs[group].iter().zip(sims) {
            results.push(ShardResult {
                channel: config.channel,
                shard_acts: sim.report().demand_acts,
                stats: sim.tracker().stats(),
                report: sim.report(),
                mitigated: sim.drain_mitigated(),
            });
        }
        Ok(results)
    }
}

/// Splits `rows` into per-channel substreams, preserving arrival order
/// within each channel. (No run path copies the stream this way.)
pub fn partition_by_channel(channels: u8, rows: &[RowAddr]) -> Vec<Vec<RowAddr>> {
    let mut shards: Vec<Vec<RowAddr>> = (0..channels).map(|_| Vec::new()).collect();
    for row in rows {
        let slot = usize::from(row.channel) % shards.len();
        shards[slot].push(*row);
    }
    shards
}

/// Merges shard results with order-insensitive reductions: shards are
/// reordered by channel, counters are summed (u64 addition is commutative
/// and associative), and the union of mitigated rows is sorted. Feeding the
/// same shard set in any order produces a bit-identical [`MergedRun`].
pub fn merge_shards(mut shards: Vec<ShardResult>) -> MergedRun {
    shards.sort_by_key(|s| s.channel);
    let mut stats = HydraStats::default();
    let mut report = ActivationSimReport::default();
    let mut mitigated = Vec::new();
    for shard in &shards {
        stats.merge(&shard.stats);
        report.merge(&shard.report);
        mitigated.extend_from_slice(&shard.mitigated);
    }
    mitigated.sort_unstable();
    MergedRun {
        shards,
        stats,
        report,
        mitigated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny2() -> MemGeometry {
        match MemGeometry::tiny_with_channels(2) {
            Ok(g) => g,
            Err(e) => panic!("tiny 2-channel geometry: {e}"),
        }
    }

    fn sharded(geometry: MemGeometry) -> ShardedSim {
        let configs = (0..geometry.channels())
            .map(|c| {
                let mut b = HydraConfig::builder(geometry, c);
                b.thresholds(16, 12).gct_entries(64).rcc_entries(32);
                match b.build() {
                    Ok(c) => c,
                    Err(e) => panic!("config: {e}"),
                }
            })
            .collect();
        match ShardedSim::new(geometry, configs) {
            Ok(s) => s,
            Err(e) => panic!("sharded sim: {e}"),
        }
    }

    fn interleaved_hammer(geometry: MemGeometry, acts: u64) -> Vec<RowAddr> {
        (0..acts)
            .map(|i| {
                let channel = (i % u64::from(geometry.channels())) as u8;
                RowAddr::new(channel, 0, (i % 3) as u8, 100 + (i % 2) as u32 * 2)
            })
            .collect()
    }

    #[test]
    fn rejects_wrong_config_count() {
        let geometry = tiny2();
        let config = match HydraConfig::builder(geometry, 0)
            .thresholds(16, 12)
            .gct_entries(64)
            .build()
        {
            Ok(c) => c,
            Err(e) => panic!("config: {e}"),
        };
        assert!(ShardedSim::new(geometry, vec![config]).is_err());
    }

    #[test]
    fn rejects_misplaced_channel_config() {
        let geometry = tiny2();
        let mk = |ch| {
            let mut b = HydraConfig::builder(geometry, ch);
            b.thresholds(16, 12).gct_entries(64);
            b.build()
        };
        let (c0, c1) = match (mk(0), mk(1)) {
            (Ok(a), Ok(b)) => (a, b),
            _ => panic!("configs"),
        };
        assert!(ShardedSim::new(geometry, vec![c1, c0]).is_err());
    }

    #[test]
    fn partition_preserves_per_channel_order() {
        let rows = vec![
            RowAddr::new(1, 0, 0, 5),
            RowAddr::new(0, 0, 0, 1),
            RowAddr::new(1, 0, 0, 6),
            RowAddr::new(0, 0, 0, 2),
        ];
        let shards = partition_by_channel(2, &rows);
        assert_eq!(
            shards[0],
            vec![RowAddr::new(0, 0, 0, 1), RowAddr::new(0, 0, 0, 2)]
        );
        assert_eq!(
            shards[1],
            vec![RowAddr::new(1, 0, 0, 5), RowAddr::new(1, 0, 0, 6)]
        );
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let geometry = tiny2();
        let sim = sharded(geometry);
        let rows = interleaved_hammer(geometry, 6000);
        let pool = WorkerPool::new(4);
        let (par, seq) = match (sim.run_parallel(&pool, &rows), sim.run_sequential(&rows)) {
            (Ok(p), Ok(s)) => (p, s),
            other => panic!("run failed: {other:?}"),
        };
        assert_eq!(par, seq);
        assert!(par.stats.mitigations > 0, "hammer must trigger mitigations");
    }

    #[test]
    fn merge_is_order_insensitive() {
        let geometry = tiny2();
        let sim = sharded(geometry);
        let rows = interleaved_hammer(geometry, 4000);
        let seq = match sim.run_sequential(&rows) {
            Ok(s) => s,
            Err(e) => panic!("sequential run: {e}"),
        };
        let mut reversed = seq.shards.clone();
        reversed.reverse();
        assert_eq!(merge_shards(reversed), seq);
    }

    #[test]
    fn merged_totals_cover_every_shard() {
        let geometry = tiny2();
        let sim = sharded(geometry);
        let rows = interleaved_hammer(geometry, 4000);
        let merged = match sim.run_sequential(&rows) {
            Ok(m) => m,
            Err(e) => panic!("sequential run: {e}"),
        };
        let shard_acts: u64 = merged.shards.iter().map(|s| s.shard_acts).sum();
        assert_eq!(shard_acts, rows.len() as u64);
        let shard_mitigations: u64 = merged.shards.iter().map(|s| s.report.mitigations).sum();
        assert_eq!(merged.report.mitigations, shard_mitigations);
        let mut sorted = merged.mitigated.clone();
        sorted.sort_unstable();
        assert_eq!(merged.mitigated, sorted, "mitigated set is sorted");
    }
}
