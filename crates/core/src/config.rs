//! Hydra configuration and builder.
//!
//! One [`Hydra`](crate::Hydra) instance tracks the rows of one memory
//! channel ("these structures are evenly divided across the two channels",
//! Sec. 6): its GCT/RCC entry counts are therefore *per-channel* — half the
//! paper's headline totals (32K-entry GCT and 8K-entry RCC across two
//! channels → 16K and 4K per instance).

use crate::indexing::GroupIndexer;
use hydra_types::counter::index;
use hydra_types::error::ConfigError;
use hydra_types::geometry::MemGeometry;

/// Defaults for the paper's T_RH = 500 design point.
pub mod defaults {
    /// Hydra tracking threshold `T_H = T_RH / 2` (Sec. 4.6).
    pub const T_H: u32 = 250;
    /// GCT threshold `T_G` = 80 % of `T_H` (Sec. 6.6).
    pub const T_G: u32 = 200;
    /// Total GCT entries across the system (Sec. 4.4).
    pub const GCT_ENTRIES_TOTAL: usize = 32 * 1024;
    /// Total RCC entries across the system (Sec. 4.4).
    pub const RCC_ENTRIES_TOTAL: usize = 8 * 1024;
    /// RCC associativity (the 13-bit tag in Table 4 implies 16-way-ish
    /// set-associativity for the 21-bit per-channel row index).
    pub const RCC_WAYS: usize = 16;
    /// The highest `T_RH` a one-byte per-row DRAM counter can track
    /// (`T_H = T_RH / 2 ≤ 255`). A tracker asked for a higher threshold
    /// tracks at this one, which mitigates earlier than required.
    pub const MAX_T_RH: u32 = 510;
}

/// Configuration of one per-channel Hydra instance.
///
/// Build with [`HydraConfig::builder`]; invalid combinations are rejected at
/// build time.
#[derive(Debug, Clone)]
pub struct HydraConfig {
    /// Memory geometry (for row-index computation and the RCT's reserved
    /// DRAM region).
    pub geometry: MemGeometry,
    /// The channel this instance covers.
    pub channel: u8,
    /// Mitigation threshold: mitigate when a per-row count reaches `T_H`.
    pub t_h: u32,
    /// GCT saturation threshold (`T_G < T_H`).
    pub t_g: u32,
    /// Number of GCT entries in this instance.
    pub gct_entries: usize,
    /// Number of RCC entries in this instance.
    pub rcc_entries: usize,
    /// RCC associativity.
    pub rcc_ways: usize,
    /// Write evicted RCC counters back to the RCT (on by default). Turning
    /// this off drops the evicted count — an *insecure* design used only as
    /// a witness in security studies: an attacker can reset a victim's count
    /// by forcing evictions, so no per-row bound holds.
    pub rcc_writeback: bool,
    /// Enable the GCT (disable for the Hydra-NoGCT ablation of Fig. 8; every
    /// activation then takes the per-row path).
    pub use_gct: bool,
    /// Enable the RCC (disable for the Hydra-NoRCC ablation of Fig. 8; every
    /// per-row access then performs a DRAM read-modify-write).
    pub use_rcc: bool,
    /// Count mitigation-refresh activations into victim rows' counts
    /// (Half-Double defense, Sec. 5.2.1). On by default.
    pub count_mitigation_acts: bool,
    /// Row-to-group mapping: static (consecutive rows) or randomized via a
    /// per-window block cipher (footnote 4).
    pub indexer: GroupIndexer,
}

impl HydraConfig {
    /// Starts building a config for one channel of `geometry`.
    pub fn builder(geometry: MemGeometry, channel: u8) -> HydraConfigBuilder {
        HydraConfigBuilder::new(geometry, channel)
    }

    /// The paper's default design point for one channel of the 32 GB
    /// baseline: `T_H` = 250, `T_G` = 200, 16K-entry GCT and 4K-entry RCC per
    /// channel (32K / 8K system-wide).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `geometry`/`channel` are inconsistent.
    pub fn isca22_default(geometry: MemGeometry, channel: u8) -> Result<Self, ConfigError> {
        let channels = usize::from(geometry.channels());
        let rows = index(geometry.rows_per_channel());
        HydraConfig::builder(geometry, channel)
            .thresholds(defaults::T_H, defaults::T_G)
            // Clamped for small test geometries; a no-op at the paper scale.
            .gct_entries((defaults::GCT_ENTRIES_TOTAL / channels).min(rows))
            .rcc_entries((defaults::RCC_ENTRIES_TOTAL / channels).min(rows))
            .rcc_ways(defaults::RCC_WAYS)
            .build()
    }

    /// A design point scaled for a lower Row-Hammer threshold, following
    /// Sec. 6.3: `T_H = t_rh / 2`, `T_G = 0.8 · T_H`, and GCT/RCC entry
    /// counts scaled inversely with the threshold (2× at 250, 4× at 125).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for thresholds below 4 or structures that
    /// cannot be scaled to the geometry.
    pub fn for_threshold(
        geometry: MemGeometry,
        channel: u8,
        t_rh: u32,
    ) -> Result<Self, ConfigError> {
        if t_rh < 4 {
            return Err(ConfigError::new(format!(
                "row-hammer threshold {t_rh} too small (min 4)"
            )));
        }
        let channels = usize::from(geometry.channels());
        let rows = index(geometry.rows_per_channel());
        // round(500 / t_rh), at least 1, in integers.
        let scale = ((1000 + u64::from(t_rh)) / (2 * u64::from(t_rh))).max(1);
        let scale_pow2 = index(scale.next_power_of_two());
        let t_h = t_rh / 2;
        let t_g = (t_h * 4) / 5;
        HydraConfig::builder(geometry, channel)
            .thresholds(t_h, t_g.max(1))
            // Clamped for small test geometries; a no-op at the paper scale.
            .gct_entries(((defaults::GCT_ENTRIES_TOTAL / channels) * scale_pow2).min(rows))
            .rcc_entries(((defaults::RCC_ENTRIES_TOTAL / channels) * scale_pow2).min(rows))
            .rcc_ways(defaults::RCC_WAYS)
            .build()
    }

    /// Rows tracked by this instance (the channel's rows).
    pub fn rows_covered(&self) -> u64 {
        self.geometry.rows_per_channel()
    }

    /// Rows per GCT row-group.
    pub fn rows_per_group(&self) -> u64 {
        self.rows_covered() / self.gct_entries as u64
    }
}

/// Builder for [`HydraConfig`]. See [`HydraConfig::builder`].
#[derive(Debug, Clone)]
pub struct HydraConfigBuilder {
    geometry: MemGeometry,
    channel: u8,
    t_h: u32,
    t_g: u32,
    gct_entries: usize,
    rcc_entries: usize,
    rcc_ways: Option<usize>,
    rcc_writeback: bool,
    use_gct: bool,
    use_rcc: bool,
    count_mitigation_acts: bool,
    indexer: Option<GroupIndexer>,
}

impl HydraConfigBuilder {
    fn new(geometry: MemGeometry, channel: u8) -> Self {
        let channels = usize::from(geometry.channels());
        let rows = index(geometry.rows_per_channel());
        HydraConfigBuilder {
            geometry,
            channel,
            t_h: defaults::T_H,
            t_g: defaults::T_G,
            // Clamp defaults for small test geometries: a GCT cannot be
            // larger than the row count it aggregates.
            gct_entries: (defaults::GCT_ENTRIES_TOTAL / channels).min(rows),
            rcc_entries: (defaults::RCC_ENTRIES_TOTAL / channels).min(rows),
            rcc_ways: None,
            rcc_writeback: true,
            use_gct: true,
            use_rcc: true,
            count_mitigation_acts: true,
            indexer: None,
        }
    }

    /// Sets the mitigation threshold `T_H` and GCT threshold `T_G`.
    pub fn thresholds(&mut self, t_h: u32, t_g: u32) -> &mut Self {
        self.t_h = t_h;
        self.t_g = t_g;
        self
    }

    /// Sets the number of GCT entries (must be a power of two dividing the
    /// channel's row count).
    pub fn gct_entries(&mut self, entries: usize) -> &mut Self {
        self.gct_entries = entries;
        self
    }

    /// Sets the number of RCC entries.
    pub fn rcc_entries(&mut self, entries: usize) -> &mut Self {
        self.rcc_entries = entries;
        self
    }

    /// Sets the RCC associativity explicitly. `ways` must be nonzero, no
    /// larger than the entry count, and must divide it evenly; violations
    /// are rejected by [`build`](Self::build). If never called, the
    /// associativity defaults to `min(16, rcc_entries)`.
    pub fn rcc_ways(&mut self, ways: usize) -> &mut Self {
        self.rcc_ways = Some(ways);
        self
    }

    /// Controls whether evicted RCC counters are written back to the RCT
    /// (default: true). Disabling write-back is **insecure** — evicted
    /// counts are silently dropped, so an attacker who forces evictions can
    /// reset a victim row's count arbitrarily often. Exposed only so the
    /// security-analysis tooling can demonstrate the resulting violation.
    pub fn rcc_writeback(&mut self, yes: bool) -> &mut Self {
        self.rcc_writeback = yes;
        self
    }

    /// Disables the GCT (Hydra-NoGCT ablation).
    pub fn without_gct(&mut self) -> &mut Self {
        self.use_gct = false;
        self
    }

    /// Disables the RCC (Hydra-NoRCC ablation).
    pub fn without_rcc(&mut self) -> &mut Self {
        self.use_rcc = false;
        self
    }

    /// Controls whether mitigation-refresh activations are counted into
    /// victim rows (default: true; turning it off reproduces a Half-Double
    /// vulnerable design for the security experiments).
    pub fn count_mitigation_acts(&mut self, yes: bool) -> &mut Self {
        self.count_mitigation_acts = yes;
        self
    }

    /// Uses a specific row-to-group indexer (default: static).
    pub fn indexer(&mut self, indexer: GroupIndexer) -> &mut Self {
        self.indexer = Some(indexer);
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if thresholds are inconsistent (`T_G >= T_H`,
    /// `T_H < 2`, or `T_H > 255` so counts no longer fit the RCT's one-byte
    /// entries), entry counts are not powers of two, the GCT has more entries
    /// than rows or does not divide the row count evenly, or the RCC
    /// geometry is inconsistent (explicit `rcc_ways` of zero, exceeding the
    /// entry count, or not dividing it).
    pub fn build(&self) -> Result<HydraConfig, ConfigError> {
        if self.channel >= self.geometry.channels() {
            return Err(ConfigError::new(format!(
                "channel {} out of range ({} channels)",
                self.channel,
                self.geometry.channels()
            )));
        }
        if self.t_h < 2 {
            return Err(ConfigError::new("T_H must be at least 2"));
        }
        if self.t_h > defaults::MAX_T_RH / 2 {
            return Err(ConfigError::new(format!(
                "T_H = {} does not fit the RCT's one-byte counters (max 255)",
                self.t_h
            )));
        }
        if self.t_g >= self.t_h {
            return Err(ConfigError::new(format!(
                "T_G ({}) must be strictly less than T_H ({})",
                self.t_g, self.t_h
            )));
        }
        if self.t_g == 0 {
            return Err(ConfigError::new("T_G must be nonzero"));
        }
        let rows = self.geometry.rows_per_channel();
        if !self.gct_entries.is_power_of_two() {
            return Err(ConfigError::new(format!(
                "GCT entry count {} must be a power of two",
                self.gct_entries
            )));
        }
        if self.gct_entries as u64 > rows {
            return Err(ConfigError::new(format!(
                "GCT entry count {} exceeds channel rows {rows}",
                self.gct_entries
            )));
        }
        if !rows.is_multiple_of(self.gct_entries as u64) {
            // Unreachable with today's power-of-two geometries, but kept so
            // `rows_per_group` can never silently truncate: rows outside the
            // last full group would escape GCT aggregation entirely.
            return Err(ConfigError::new(format!(
                "GCT entry count {} does not divide channel rows {rows}; \
                 {} rows would be untracked",
                self.gct_entries,
                rows % self.gct_entries as u64
            )));
        }
        if !self.rcc_entries.is_power_of_two() {
            return Err(ConfigError::new(format!(
                "RCC entry count {} must be a power of two",
                self.rcc_entries
            )));
        }
        let ways = match self.rcc_ways {
            // An explicitly requested associativity is validated, never
            // silently adjusted.
            Some(0) => return Err(ConfigError::new("RCC ways must be nonzero")),
            Some(w) if w > self.rcc_entries => {
                return Err(ConfigError::new(format!(
                    "RCC ways {w} exceeds entry count {}",
                    self.rcc_entries
                )));
            }
            Some(w) if !self.rcc_entries.is_multiple_of(w) => {
                return Err(ConfigError::new(format!(
                    "RCC entries {} not divisible by ways {w}",
                    self.rcc_entries
                )));
            }
            Some(w) => w,
            None => defaults::RCC_WAYS.min(self.rcc_entries).max(1),
        };
        let indexer = match &self.indexer {
            Some(i) => i.clone(),
            None => GroupIndexer::static_for(rows, self.gct_entries as u64)?,
        };
        Ok(HydraConfig {
            geometry: self.geometry,
            channel: self.channel,
            t_h: self.t_h,
            t_g: self.t_g,
            gct_entries: self.gct_entries,
            rcc_entries: self.rcc_entries,
            rcc_ways: ways,
            rcc_writeback: self.rcc_writeback,
            use_gct: self.use_gct,
            use_rcc: self.use_rcc,
            count_mitigation_acts: self.count_mitigation_acts,
            indexer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper() {
        let c = HydraConfig::isca22_default(MemGeometry::isca22_baseline(), 0).unwrap();
        assert_eq!(c.t_h, 250);
        assert_eq!(c.t_g, 200);
        assert_eq!(c.gct_entries, 16 * 1024); // per channel
        assert_eq!(c.rcc_entries, 4 * 1024);
        assert_eq!(c.rows_per_group(), 128);
    }

    #[test]
    fn threshold_scaling_doubles_structures() {
        let g = MemGeometry::isca22_baseline();
        let c500 = HydraConfig::for_threshold(g, 0, 500).unwrap();
        let c250 = HydraConfig::for_threshold(g, 0, 250).unwrap();
        let c125 = HydraConfig::for_threshold(g, 0, 125).unwrap();
        assert_eq!(c500.t_h, 250);
        assert_eq!(c250.t_h, 125);
        assert_eq!(c125.t_h, 62);
        assert_eq!(c250.gct_entries, 2 * c500.gct_entries);
        assert_eq!(c125.gct_entries, 4 * c500.gct_entries);
        assert_eq!(c125.rcc_entries, 4 * c500.rcc_entries);
    }

    #[test]
    fn build_rejects_every_documented_invalid_config() {
        type Edit = fn(&mut HydraConfigBuilder) -> &mut HydraConfigBuilder;
        let keep: Edit = |b| b;
        let rows: [(&str, u8, Edit, &str); 11] = [
            ("bad channel", 5, keep, "out of range"),
            ("T_H < 2", 0, |b| b.thresholds(1, 0), "at least 2"),
            ("T_H > 255", 0, |b| b.thresholds(256, 200), "one-byte"),
            ("T_G >= T_H", 0, |b| b.thresholds(100, 100), "strictly less"),
            ("T_G = 0", 0, |b| b.thresholds(10, 0), "T_G must be nonzero"),
            ("GCT not 2^k", 0, |b| b.gct_entries(100), "power of two"),
            ("GCT > rows", 0, |b| b.gct_entries(8192), "exceeds channel"),
            (
                "RCC not 2^k",
                0,
                |b| b.rcc_entries(96),
                "RCC entry count 96",
            ),
            ("ways = 0", 0, |b| b.rcc_ways(0), "ways must be nonzero"),
            (
                "ways > entries",
                0,
                |b| b.rcc_entries(8).rcc_ways(16),
                "exceeds",
            ),
            (
                "ways !| entries",
                0,
                |b| b.rcc_entries(16).rcc_ways(3),
                "divisible",
            ),
        ];
        for (case, channel, edit, message) in rows {
            let mut builder = HydraConfig::builder(MemGeometry::tiny(), channel);
            let err = edit(&mut builder).build().expect_err(case);
            assert!(err.to_string().contains(message), "{case}: {err}");
        }
        // The boundaries themselves are accepted.
        let g = MemGeometry::tiny(); // 4096 rows in channel 0
        assert!(HydraConfig::builder(g, 0)
            .thresholds(255, 200)
            .build()
            .is_ok());
        assert!(HydraConfig::builder(g, 0).gct_entries(4096).build().is_ok());
    }

    #[test]
    fn default_ways_adapt_to_small_rcc() {
        // The *default* associativity (no explicit rcc_ways call) shrinks to
        // fit small caches; explicit requests never do.
        let g = MemGeometry::tiny();
        let c = HydraConfig::builder(g, 0).rcc_entries(8).build().unwrap();
        assert_eq!(c.rcc_ways, 8);
        let c = HydraConfig::builder(g, 0).rcc_entries(64).build().unwrap();
        assert_eq!(c.rcc_ways, defaults::RCC_WAYS);
    }

    #[test]
    fn gct_entries_always_divide_rows() {
        // `rows_per_group` must never truncate: every built config's group
        // size times its entry count covers the channel exactly.
        for g in [
            MemGeometry::tiny(),
            MemGeometry::isca22_baseline(),
            MemGeometry::ddr5_32gb(),
        ] {
            for entries in [1usize, 16, 256, 4096] {
                let c = HydraConfig::builder(g, 0)
                    .gct_entries(entries)
                    .build()
                    .unwrap();
                assert_eq!(c.rows_per_group() * entries as u64, c.rows_covered());
            }
        }
    }

    #[test]
    fn writeback_defaults_on() {
        let g = MemGeometry::tiny();
        let c = HydraConfig::builder(g, 0).build().unwrap();
        assert!(c.rcc_writeback);
        let c = HydraConfig::builder(g, 0)
            .rcc_writeback(false)
            .build()
            .unwrap();
        assert!(!c.rcc_writeback);
    }

    #[test]
    fn ablation_flags() {
        let g = MemGeometry::tiny();
        let c = HydraConfig::builder(g, 0).without_gct().build().unwrap();
        assert!(!c.use_gct && c.use_rcc);
        let c = HydraConfig::builder(g, 0).without_rcc().build().unwrap();
        assert!(c.use_gct && !c.use_rcc);
    }
}
