//! CRA: Counter-Based Row Activation (Kim et al., IEEE CAL 2014).
//!
//! One dedicated counter per row, stored in a reserved region of DRAM and
//! cached in a *conventional* metadata cache: 64-byte-line granularity, LRU,
//! tagged by line address (Sec. 2.5). This is the paper's DRAM-tracking
//! comparator: near-zero SRAM, but every metadata-cache miss costs a DRAM
//! read (plus a write-back for dirty evictions), which produces the ~25 %
//! slowdown of Fig. 2 / Fig. 5.

use crate::region::CounterRegion;
use hydra_types::addr::RowAddr;
use hydra_types::clock::MemCycle;
use hydra_types::error::ConfigError;
use hydra_types::geometry::MemGeometry;
use hydra_types::mitigation::MitigationRequest;
use hydra_types::tracker::{ActivationKind, ActivationTracker, SideRequest, TrackerResponse};

/// Configuration for a per-channel CRA instance.
#[derive(Debug, Clone)]
pub struct CraConfig {
    /// Memory geometry.
    pub geometry: MemGeometry,
    /// Channel covered.
    pub channel: u8,
    /// Mitigation threshold (`T_RH / 2`, like all reset-windowed trackers).
    pub threshold: u32,
    /// Metadata-cache capacity in bytes (the paper sweeps 64–256 KB total;
    /// this is the per-channel share).
    pub cache_bytes: usize,
    /// Metadata-cache associativity.
    pub cache_ways: usize,
}

impl CraConfig {
    /// The paper's default comparison point: 64 KB of total metadata cache
    /// split across channels, threshold `t_rh / 2`, 8-way.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range channels or degenerate sizes.
    pub fn for_threshold(
        geometry: MemGeometry,
        channel: u8,
        t_rh: u32,
        total_cache_bytes: usize,
    ) -> Result<Self, ConfigError> {
        if t_rh < 4 {
            return Err(ConfigError::new("T_RH must be at least 4"));
        }
        let per_channel = total_cache_bytes / usize::from(geometry.channels());
        if per_channel < 64 {
            return Err(ConfigError::new(
                "metadata cache must hold at least one line",
            ));
        }
        Ok(CraConfig {
            geometry,
            channel,
            threshold: t_rh / 2,
            cache_bytes: per_channel,
            cache_ways: 8,
        })
    }
}

/// A conventional 64-byte-line LRU metadata cache, tagged by line index.
#[derive(Debug, Clone)]
struct MetadataCache {
    /// sets[set] = Vec of (line_index, lru_stamp), most-recent highest stamp.
    sets: Vec<Vec<(u64, u64)>>,
    ways: usize,
    set_mask: u64,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl MetadataCache {
    fn new(lines: usize, ways: usize) -> Self {
        let nsets = (lines / ways).next_power_of_two().max(1);
        MetadataCache {
            sets: vec![Vec::with_capacity(ways); nsets],
            ways,
            set_mask: nsets as u64 - 1,
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Touches `line`; returns `Some(evicted_line)` on a miss that evicted,
    /// `None` on a hit or a miss into a free way. The boolean is `true` for
    /// hits.
    fn access(&mut self, line: u64) -> (bool, Option<u64>) {
        self.stamp += 1;
        let set = &mut self.sets[(line & self.set_mask) as usize];
        if let Some(e) = set.iter_mut().find(|(l, _)| *l == line) {
            e.1 = self.stamp;
            self.hits += 1;
            return (true, None);
        }
        self.misses += 1;
        if set.len() < self.ways {
            set.push((line, self.stamp));
            return (false, None);
        }
        // The set is at capacity here (ways ≥ 1), so a minimum exists; the
        // fallback index keeps this panic-free.
        let lru = set
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, s))| *s)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let evicted = set[lru].0;
        set[lru] = (line, self.stamp);
        (false, Some(evicted))
    }

    fn clear(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }
}

/// A per-channel CRA tracker.
///
/// # Example
///
/// ```
/// use hydra_baselines::cra::{Cra, CraConfig};
/// use hydra_types::{ActivationKind, ActivationTracker, MemGeometry, RowAddr};
///
/// let geom = MemGeometry::tiny();
/// let config = CraConfig::for_threshold(geom, 0, 32, 4096)?;
/// let mut cra = Cra::new(config)?;
/// let resp = cra.on_activation(RowAddr::new(0, 0, 0, 1), 0, ActivationKind::Demand);
/// // First touch misses the metadata cache: one DRAM counter-line read.
/// assert_eq!(resp.side_requests.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cra {
    config: CraConfig,
    region: CounterRegion,
    counts: Vec<u8>,
    cache: MetadataCache,
    mitigations: u64,
    activations: u64,
    side_reads: u64,
    side_writes: u64,
}

impl Cra {
    /// Creates a CRA instance.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the counter region cannot be laid out or
    /// the threshold exceeds the one-byte counters.
    pub fn new(config: CraConfig) -> Result<Self, ConfigError> {
        if config.threshold > 255 || config.threshold < 2 {
            return Err(ConfigError::new(format!(
                "CRA threshold {} must be in [2, 255] (one-byte counters)",
                config.threshold
            )));
        }
        let rows = config.geometry.rows_per_channel();
        let region = CounterRegion::new(config.geometry, config.channel, rows, 1)?;
        let lines = (config.cache_bytes / 64).max(1);
        let ways = config.cache_ways.clamp(1, lines);
        Ok(Cra {
            cache: MetadataCache::new(lines, ways),
            counts: vec![0; rows as usize],
            region,
            config,
            mitigations: 0,
            activations: 0,
            side_reads: 0,
            side_writes: 0,
        })
    }

    /// The DRAM region holding the counter table. Activations *within* this
    /// region are not tracked — CRA predates the counter-row-attack concern;
    /// Hydra's RIT-ACT exists to close exactly this hole.
    pub fn region(&self) -> &CounterRegion {
        &self.region
    }

    /// The configuration.
    pub fn config(&self) -> &CraConfig {
        &self.config
    }

    /// Metadata-cache hits.
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits
    }

    /// Metadata-cache misses.
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses
    }

    /// DRAM counter-line reads issued.
    pub fn side_reads(&self) -> u64 {
        self.side_reads
    }

    /// DRAM counter-line write-backs issued.
    pub fn side_writes(&self) -> u64 {
        self.side_writes
    }

    /// Mitigations issued.
    pub fn mitigations(&self) -> u64 {
        self.mitigations
    }
}

impl ActivationTracker for Cra {
    fn on_activation(
        &mut self,
        row: RowAddr,
        _now: MemCycle,
        _kind: ActivationKind,
    ) -> TrackerResponse {
        debug_assert_eq!(row.channel, self.config.channel);
        self.activations += 1;
        let mut response = TrackerResponse::none();

        // Counter rows themselves are not tracked (CRA predates the
        // counter-row-attack concern; see DESIGN.md).
        if self.region.contains(row) {
            return response;
        }

        let index = self.config.geometry.channel_row_index(row);
        let line = self.region.line_of_entry(index);
        let (hit, evicted) = self.cache.access(line);
        if !hit {
            // Fetch the counter line from DRAM.
            self.side_reads += 1;
            response
                .side_requests
                .push(SideRequest::read(self.region.dram_row_of_entry(index)));
        }
        if let Some(victim_line) = evicted {
            // Metadata lines are written on every counted activation, so
            // evictions are always dirty.
            self.side_writes += 1;
            let victim_entry = victim_line * self.region.entries_per_line();
            response.side_requests.push(SideRequest::write(
                self.region.dram_row_of_entry(victim_entry),
            ));
        }

        let count = &mut self.counts[index as usize];
        *count = count.saturating_add(1);
        if u32::from(*count) >= self.config.threshold {
            *count = 0;
            self.mitigations += 1;
            response.mitigations.push(MitigationRequest::new(row));
        }
        response
    }

    fn reset_window(&mut self, _now: MemCycle) {
        // CRA resets counters each refresh window; the metadata cache is
        // flushed with them (counts drop to zero so nothing needs writing).
        self.counts.fill(0);
        self.cache.clear();
    }

    fn name(&self) -> &str {
        "cra"
    }

    fn sram_bytes(&self) -> u64 {
        self.config.cache_bytes as u64
    }

    fn params(&self) -> String {
        format!(
            "threshold={} cache_bytes={}",
            self.config.threshold, self.config.cache_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cra(cache_bytes: usize) -> Cra {
        Cra::new(CraConfig {
            geometry: MemGeometry::tiny(),
            channel: 0,
            threshold: 16,
            cache_bytes,
            cache_ways: 2,
        })
        .unwrap()
    }

    fn act(c: &mut Cra, row: RowAddr) -> TrackerResponse {
        c.on_activation(row, 0, ActivationKind::Demand)
    }

    #[test]
    fn counts_exactly_and_mitigates_at_threshold() {
        let mut c = cra(4096);
        let row = RowAddr::new(0, 0, 1, 10);
        let mut when = Vec::new();
        for i in 1..=48 {
            if !act(&mut c, row).mitigations.is_empty() {
                when.push(i);
            }
        }
        assert_eq!(when, vec![16, 32, 48]);
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = cra(4096);
        let row = RowAddr::new(0, 0, 0, 1);
        let r1 = act(&mut c, row);
        assert_eq!(r1.side_requests.len(), 1);
        let r2 = act(&mut c, row);
        assert!(r2.side_requests.is_empty());
        assert_eq!(c.cache_hits(), 1);
        assert_eq!(c.cache_misses(), 1);
    }

    #[test]
    fn line_granularity_gives_spatial_locality() {
        // Rows 0..63 share one counter line: one miss then 63 hits.
        let mut c = cra(4096);
        for r in 0..64u32 {
            act(&mut c, RowAddr::new(0, 0, 0, r));
        }
        assert_eq!(c.cache_misses(), 1);
        assert_eq!(c.cache_hits(), 63);
    }

    #[test]
    fn scattered_rows_thrash_the_cache() {
        // 512 B cache = 8 lines; cycle through all 64 counter lines of the
        // tiny geometry (4096 rows / 64 entries-per-line) round-robin: LRU
        // gets no reuse before eviction.
        let mut c = cra(512);
        for _round in 0..4 {
            for line in 0..64u64 {
                let index = line * 64;
                let bank = (index / 1024) as u8;
                let row = (index % 1024) as u32;
                act(&mut c, RowAddr::new(0, 0, bank, row));
            }
        }
        let hit_rate = c.cache_hits() as f64 / (c.cache_hits() + c.cache_misses()) as f64;
        assert!(hit_rate < 0.1, "hit rate {hit_rate} should be thrashed");
        assert!(c.side_writes() > 0, "dirty evictions must write back");
    }

    #[test]
    fn eviction_emits_writeback() {
        // 64-byte cache = 1 line: every new line evicts the previous one.
        let mut c = cra(64);
        act(&mut c, RowAddr::new(0, 0, 0, 0));
        let r = act(&mut c, RowAddr::new(0, 0, 0, 64));
        assert_eq!(r.side_requests.len(), 2); // read new + write old
        assert_eq!(c.side_writes(), 1);
    }

    #[test]
    fn counter_rows_are_ignored() {
        let mut c = cra(4096);
        let counter_row = RowAddr::new(0, 0, 3, 1023);
        let r = act(&mut c, counter_row);
        assert!(r.is_empty());
    }

    #[test]
    fn window_reset_restarts_counting() {
        let mut c = cra(4096);
        let row = RowAddr::new(0, 0, 0, 3);
        for _ in 0..15 {
            act(&mut c, row);
        }
        c.reset_window(0);
        for _ in 0..15 {
            let r = act(&mut c, row);
            assert!(r.mitigations.is_empty());
        }
    }

    #[test]
    fn rejects_bad_threshold() {
        let mut cfg = CraConfig::for_threshold(MemGeometry::tiny(), 0, 1000, 4096).unwrap();
        assert!(Cra::new(cfg.clone()).is_err()); // 500 > 255
        cfg.threshold = 100;
        assert!(Cra::new(cfg).is_ok());
    }

    #[test]
    fn one_byte_counters_reach_the_255_ceiling_exactly() {
        // threshold = 255 is the largest the one-byte counters admit: the
        // count must walk all the way to the ceiling and reset there, twice.
        // Saturation may never freeze it short of the threshold.
        let mut c = Cra::new(CraConfig {
            geometry: MemGeometry::tiny(),
            channel: 0,
            threshold: 255,
            cache_bytes: 4096,
            cache_ways: 2,
        })
        .unwrap();
        let row = RowAddr::new(0, 0, 0, 3);
        let mut when = Vec::new();
        for i in 1..=600 {
            if !act(&mut c, row).mitigations.is_empty() {
                when.push(i);
            }
        }
        assert_eq!(when, vec![255, 510]);
    }
}
