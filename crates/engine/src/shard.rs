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
//! [`ShardedSim`] exploits exactly that: it partitions a system-wide
//! activation stream by channel (preserving each channel's arrival order),
//! runs one independent `Hydra` per shard — in parallel on a
//! [`WorkerPool`](crate::pool::WorkerPool) or sequentially as the reference
//! — and merges per-shard results with order-insensitive reductions:
//! counter sums for [`HydraStats`]/[`ActivationSimReport`] and a *sorted*
//! union for the mitigated-row set. The merged result is therefore
//! bit-identical between the parallel and sequential paths, which
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

    /// Runs every shard on the pool and merges. The merge is deterministic:
    /// the result is bit-identical to [`run_sequential`](Self::run_sequential)
    /// on the same stream regardless of worker count or completion order.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if any shard panics or is skipped; partial
    /// results are discarded (a merged run with a missing channel would
    /// silently under-count).
    pub fn run_parallel(
        &self,
        pool: &WorkerPool,
        rows: &[RowAddr],
    ) -> Result<MergedRun, EngineError> {
        let shards = self.partition_by_channel(rows);
        let items: Vec<(HydraConfig, Vec<RowAddr>)> =
            self.configs.iter().cloned().zip(shards).collect();
        let geometry = self.geometry;
        let timing = self.timing;
        let outcomes = pool.run_ordered(items, move |_, (config, sub)| {
            run_shard(geometry, timing, config, &sub)
        });
        let mut results = Vec::with_capacity(outcomes.len());
        for (channel, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                CellOutcome::Done(Ok(result)) => results.push(result),
                CellOutcome::Done(Err(e)) => {
                    return Err(EngineError::new(format!("shard {channel} failed: {e}")));
                }
                CellOutcome::Panicked(msg) => {
                    return Err(EngineError::new(format!("shard {channel} panicked: {msg}")));
                }
                CellOutcome::Skipped => {
                    return Err(EngineError::new(format!("shard {channel} never ran")));
                }
            }
        }
        Ok(merge_shards(results))
    }

    /// The sequential reference: runs each shard one at a time, in channel
    /// order, on the calling thread, then merges identically to
    /// [`run_parallel`](Self::run_parallel).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if a shard's tracker cannot be built.
    pub fn run_sequential(&self, rows: &[RowAddr]) -> Result<MergedRun, EngineError> {
        let shards = self.partition_by_channel(rows);
        let mut results = Vec::with_capacity(shards.len());
        for (config, sub) in self.configs.iter().cloned().zip(shards) {
            let channel = config.channel;
            results.push(
                run_shard(self.geometry, self.timing, config, &sub)
                    .map_err(|e| EngineError::new(format!("shard {channel} failed: {e}")))?,
            );
        }
        Ok(merge_shards(results))
    }
}

/// Splits `rows` into per-channel substreams, preserving arrival order
/// within each channel.
pub fn partition_by_channel(channels: u8, rows: &[RowAddr]) -> Vec<Vec<RowAddr>> {
    let mut shards: Vec<Vec<RowAddr>> = (0..channels).map(|_| Vec::new()).collect();
    for row in rows {
        let slot = usize::from(row.channel) % shards.len();
        shards[slot].push(*row);
    }
    shards
}

/// Replays one channel's substream through a fresh tracker.
fn run_shard(
    geometry: MemGeometry,
    timing: DramTiming,
    config: HydraConfig,
    rows: &[RowAddr],
) -> Result<ShardResult, String> {
    let channel = config.channel;
    let tracker = Hydra::new(config).map_err(|e| e.to_string())?;
    let mut sim = ActivationSim::new(geometry, tracker).with_timing(timing);
    let report = sim.run(rows.iter().copied());
    let mitigated = sim.drain_mitigated();
    Ok(ShardResult {
        channel,
        shard_acts: rows.len() as u64,
        stats: sim.tracker().stats(),
        report,
        mitigated,
    })
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
