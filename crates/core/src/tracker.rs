//! The Hydra tracker: GCT → RCC → RCT orchestration (Sec. 4.5).

use crate::config::HydraConfig;
use crate::gct::{GctOutcome, GroupCountTable};
use crate::rcc::RowCountCache;
use crate::rct::RowCountTable;
use crate::rit::RitActTable;
use crate::stats::HydraStats;
use crate::storage::HydraStorage;
use hydra_telemetry::{EventSink, NoopSink, TelemetryEvent};
use hydra_types::addr::RowAddr;
use hydra_types::clock::MemCycle;
use hydra_types::counter::index;
use hydra_types::error::ConfigError;
use hydra_types::mitigation::MitigationRequest;
use hydra_types::tracker::{ActivationKind, ActivationTracker, SideRequest, TrackerResponse};

/// One per-channel Hydra instance.
///
/// Drive it through the [`ActivationTracker`] trait: report every activation
/// of a row in this instance's channel, and call
/// [`reset_window`](ActivationTracker::reset_window) every tracking window
/// (64 ms). See the crate-level docs for the protocol and an example.
///
/// Telemetry is pluggable: the [`EventSink`] type parameter `P` (default:
/// [`NoopSink`]) receives a [`TelemetryEvent`] at every hot-path decision
/// point. With the default sink the instrumentation compiles to nothing —
/// the probe-identity proptest in `tests/probe_identity.rs` proves a probed
/// tracker is bit-identical to a bare one. Attach a real sink with
/// [`Hydra::with_probe`].
///
/// `R` is always [`RowCountTable`]: every impl is written on
/// `Hydra<RowCountTable, P>`. It stays a parameter only so that code
/// spelling the type as `Hydra<RowCountTable, P>` keeps compiling.
#[derive(Debug, Clone)]
pub struct Hydra<R = RowCountTable, P: EventSink = NoopSink> {
    config: HydraConfig,
    gct: GroupCountTable,
    rcc: RowCountCache,
    rct: R,
    rit: RitActTable,
    stats: HydraStats,
    /// First count of the near-miss band `[T_H - max(1, T_H/8), T_H)`.
    band_start: u32,
    /// Highest unmitigated per-row count seen in the current window.
    window_watermark: u32,
    rows_per_group: u64,
    windows: u64,
    probe: P,
}

impl Hydra {
    /// Creates a Hydra instance from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the indexer's domain does not match the
    /// channel's row count.
    pub fn new(config: HydraConfig) -> Result<Self, ConfigError> {
        Hydra::with_probe(config, NoopSink)
    }

    /// Convenience constructor for the paper's default design point.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors (see [`HydraConfig::isca22_default`]).
    pub fn isca22_default(
        geometry: hydra_types::MemGeometry,
        channel: u8,
    ) -> Result<Self, ConfigError> {
        Hydra::new(HydraConfig::isca22_default(geometry, channel)?)
    }
}

impl<P: EventSink> Hydra<RowCountTable, P> {
    /// Creates a Hydra instance with a telemetry probe attached: every
    /// hot-path event is emitted into `probe`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] under the same conditions as [`Hydra::new`].
    pub fn with_probe(config: HydraConfig, probe: P) -> Result<Self, ConfigError> {
        let rows = config.rows_covered();
        if config.indexer.rows() != rows {
            return Err(ConfigError::new(format!(
                "indexer covers {} rows but channel has {rows}",
                config.indexer.rows()
            )));
        }
        let rct = RowCountTable::new(config.geometry, config.channel);
        let rit = RitActTable::new(rct.reserved_row_count() as usize, config.t_h);
        Ok(Hydra {
            gct: GroupCountTable::new(config.gct_entries, config.t_g),
            rcc: RowCountCache::new(config.rcc_entries, config.rcc_ways),
            rct,
            rit,
            stats: HydraStats::default(),
            band_start: config.t_h - (config.t_h / 8).max(1),
            window_watermark: 0,
            rows_per_group: config.rows_per_group(),
            windows: 0,
            probe,
            config,
        })
    }

    /// The attached telemetry probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Mutable access to the telemetry probe (drain a ring buffer, read
    /// counters mid-run).
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Consumes the tracker, returning the probe (collect a trace after a
    /// run).
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &HydraConfig {
        &self.config
    }

    /// Cumulative event counters (drives Fig. 6).
    pub fn stats(&self) -> HydraStats {
        self.stats
    }

    /// The storage model for this instance.
    pub fn storage(&self) -> HydraStorage {
        HydraStorage::for_instance(&self.config)
    }

    /// Direct access to the GCT (diagnostics/tests).
    pub fn gct(&self) -> &GroupCountTable {
        &self.gct
    }

    /// Direct access to the RCC (diagnostics/tests).
    pub fn rcc(&self) -> &RowCountCache {
        &self.rcc
    }

    /// Direct access to the RCT (diagnostics/tests).
    pub fn rct(&self) -> &RowCountTable {
        &self.rct
    }

    /// Direct access to the RIT-ACT table (diagnostics/tests).
    pub fn rit(&self) -> &RitActTable {
        &self.rit
    }

    /// True if `row` belongs to the reserved RCT region of this channel.
    pub fn is_reserved_row(&self, row: RowAddr) -> bool {
        self.rct.is_reserved(row)
    }

    /// The per-row tracking path (Sec. 4.5, cases 2 and 3): consult the RCC,
    /// falling back to the RCT in DRAM. `fresh_count` carries an
    /// already-known count (used at group spill); otherwise the count comes
    /// from the RCC/RCT and is incremented by one.
    fn per_row_path(
        &mut self,
        row: RowAddr,
        now: MemCycle,
        slot: u64,
        fresh_count: Option<u32>,
        response: &mut TrackerResponse,
    ) {
        let t_h = self.config.t_h;

        if self.config.use_rcc && fresh_count.is_none() {
            if let Some(count) = self.rcc.lookup_mut(slot) {
                // Case 2: RCC hit — update in place.
                *count = count.saturating_add(1);
                self.stats.rcc_hits += 1;
                let observed = *count;
                let mitigate = observed >= t_h;
                if mitigate {
                    *count = 0;
                }
                self.probe.emit(now, TelemetryEvent::RccHit { slot });
                self.probe.emit(
                    now,
                    TelemetryEvent::RctAccess {
                        row,
                        count: observed,
                    },
                );
                if mitigate {
                    self.stats.mitigations += 1;
                    response.mitigations.push(MitigationRequest::new(row));
                    self.probe.emit(now, TelemetryEvent::Mitigation { row });
                } else {
                    self.observe_near_miss(observed);
                }
                return;
            }
            self.probe.emit(now, TelemetryEvent::RccMiss { slot });
        }

        // Case 3 (or spill install): the count comes from DRAM.
        let mut count = match fresh_count {
            Some(c) => c,
            None => {
                self.stats.rct_accesses += 1;
                self.stats.side_reads += 1;
                self.probe.emit(now, TelemetryEvent::RctRead { slot });
                response
                    .side_requests
                    .push(SideRequest::read(self.rct.dram_row_of_slot(slot)));
                self.rct.read(slot) + 1
            }
        };
        self.probe
            .emit(now, TelemetryEvent::RctAccess { row, count });
        if count >= t_h {
            count = 0;
            self.stats.mitigations += 1;
            response.mitigations.push(MitigationRequest::new(row));
            self.probe.emit(now, TelemetryEvent::Mitigation { row });
        } else {
            self.observe_near_miss(count);
        }

        if self.config.use_rcc {
            if let Some(evicted) = self.rcc.insert(slot, count) {
                let writeback = self.config.rcc_writeback;
                self.probe.emit(
                    now,
                    TelemetryEvent::RccEvict {
                        slot: evicted.slot,
                        writeback,
                    },
                );
                if writeback {
                    // Valid entries are always dirty: write the victim back.
                    self.rct.write(evicted.slot, evicted.count);
                    self.stats.side_writes += 1;
                    self.probe
                        .emit(now, TelemetryEvent::RctWrite { slot: evicted.slot });
                    response
                        .side_requests
                        .push(SideRequest::write(self.rct.dram_row_of_slot(evicted.slot)));
                }
                // else: insecure ablation — the evicted count is dropped, so
                // the next miss on that row re-reads a stale RCT value.
            }
        } else {
            // No RCC: read-modify-write straight to DRAM.
            self.rct.write(slot, count);
            self.stats.side_writes += 1;
            self.probe.emit(now, TelemetryEvent::RctWrite { slot });
            response
                .side_requests
                .push(SideRequest::write(self.rct.dram_row_of_slot(slot)));
        }
    }

    /// Counts an unmitigated per-row count (always below `T_H`) into
    /// [`HydraStats::near_misses`] if it lies in the near-miss band, and
    /// into [`HydraStats::watermark_advances`] if it raises the window's
    /// highest count.
    fn observe_near_miss(&mut self, count: u32) {
        if count >= self.band_start {
            self.stats.near_misses += 1;
        }
        if count > self.window_watermark {
            self.window_watermark = count;
            self.stats.watermark_advances += 1;
        }
    }

    /// Handles the GCT spill: initialize the group's RCT entries to `T_G`
    /// (two line reads + two line writes for 128-row groups) and install the
    /// triggering row's entry.
    fn spill_group(
        &mut self,
        row: RowAddr,
        now: MemCycle,
        slot: u64,
        response: &mut TrackerResponse,
    ) {
        let t_g = self.config.t_g;
        let group_start = (slot / self.rows_per_group) * self.rows_per_group;
        self.probe.emit(
            now,
            TelemetryEvent::GroupSpill {
                group: slot / self.rows_per_group,
            },
        );
        let touched = self.rct.init_group(group_start, self.rows_per_group, t_g);
        let lines = RowCountTable::lines_per_group(self.rows_per_group);
        self.stats.group_spills += 1;
        self.stats.rct_accesses += 1;
        self.stats.side_reads += lines;
        self.stats.side_writes += lines;
        // The paper reads then rewrites each line holding the group's
        // entries; emit one read + one write per line, spread over the
        // touched DRAM rows.
        for i in 0..index(lines) {
            let target = touched[i.min(touched.len() - 1)];
            response.side_requests.push(SideRequest::read(target));
            response.side_requests.push(SideRequest::write(target));
        }
        // The triggering activation is already included in T_G (the GCT
        // counted it), so install the row at T_G without another increment.
        self.per_row_path(row, now, slot, Some(t_g), response);
    }
}

impl<P: EventSink> ActivationTracker for Hydra<RowCountTable, P> {
    fn on_activation(
        &mut self,
        row: RowAddr,
        now: MemCycle,
        kind: ActivationKind,
    ) -> TrackerResponse {
        debug_assert_eq!(
            row.channel, self.config.channel,
            "activation routed to wrong Hydra instance"
        );
        let mut response = TrackerResponse::none();
        self.stats.activations += 1;

        // Sec. 5.2.2: activations of the rows storing the RCT are tracked by
        // the dedicated SRAM RIT-ACT counters, never by the GCT/RCT path.
        if self.rct.is_reserved(row) {
            self.stats.reserved_activations += 1;
            self.probe
                .emit(now, TelemetryEvent::ReservedActivation { row });
            let idx = self.rct.reserved_index(row);
            if self.rit.on_activation(idx) {
                self.stats.rit_mitigations += 1;
                self.probe.emit(now, TelemetryEvent::RitMitigation { row });
                response.mitigations.push(MitigationRequest::new(row));
            }
            return response;
        }

        // Sec. 5.2.1: victim-refresh activations count toward the victim's
        // own total unless explicitly disabled (vulnerable-variant studies).
        if kind == ActivationKind::MitigationRefresh && !self.config.count_mitigation_acts {
            return response;
        }

        let row_index = self.config.geometry.channel_row_index(row);
        let slot = self.config.indexer.slot_of_row(row_index);
        let group = index(slot / self.rows_per_group);

        if self.config.use_gct {
            let outcome = self.gct.increment(group);
            match outcome {
                GctOutcome::Below => {
                    // Case 1: aggregate tracking suffices (~90.7 % of ACTs).
                    self.stats.gct_only += 1;
                    self.probe.emit(
                        now,
                        TelemetryEvent::GctOnly {
                            group: group as u64,
                        },
                    );
                }
                GctOutcome::JustSaturated => {
                    self.spill_group(row, now, slot, &mut response);
                }
                GctOutcome::Saturated => {
                    self.per_row_path(row, now, slot, None, &mut response);
                }
            }
        } else {
            // Hydra-NoGCT ablation: every activation takes the per-row path.
            self.per_row_path(row, now, slot, None, &mut response);
        }
        response
    }

    fn reset_window(&mut self, now: MemCycle) {
        self.gct.reset();
        self.rcc.reset();
        self.rit.reset();
        self.window_watermark = 0;
        self.windows += 1;
        self.stats.window_resets += 1;
        self.probe.emit(
            now,
            TelemetryEvent::WindowReset {
                window: self.windows,
            },
        );
        // Re-key the randomized indexer each window (footnote 4). The RCT's
        // stale contents are harmless: entries are reinitialized by the next
        // group spill before they are consulted.
        let windows = self.windows;
        self.config
            .indexer
            .rotate_key(windows.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if !self.config.use_gct {
            // Without a GCT there is no spill to overwrite stale counts, so
            // model the window reset on the backing table directly.
            self.rct.reset();
        }
    }

    fn name(&self) -> &str {
        "hydra"
    }

    fn sram_bytes(&self) -> u64 {
        self.storage().total_sram_bytes()
    }

    fn params(&self) -> String {
        let c = &self.config;
        format!(
            "t_h={} t_g={} gct={} rcc={}",
            c.t_h, c.t_g, c.gct_entries, c.rcc_entries
        )
    }

    fn max_spillover(&self) -> u64 {
        // GCT group counts over-attribute per-row activity by design; the
        // number of group spills bounds how often that slack bit.
        self.stats.group_spills
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_types::MemGeometry;

    /// A small Hydra for tests: T_H = 16, T_G = 12, 64 groups of 64 rows,
    /// 32-entry RCC over the tiny geometry (4096 rows/channel).
    fn small() -> Hydra {
        let geom = MemGeometry::tiny();
        let config = HydraConfig::builder(geom, 0)
            .thresholds(16, 12)
            .gct_entries(64)
            .rcc_entries(32)
            .rcc_ways(4)
            .build()
            .unwrap();
        Hydra::new(config).unwrap()
    }

    fn act(h: &mut Hydra, row: RowAddr) -> TrackerResponse {
        h.on_activation(row, 0, ActivationKind::Demand)
    }

    #[test]
    fn below_tg_everything_stays_in_gct() {
        let mut h = small();
        let row = RowAddr::new(0, 0, 0, 5);
        for _ in 0..11 {
            let resp = act(&mut h, row);
            assert!(resp.is_empty());
        }
        let s = h.stats();
        assert_eq!(s.gct_only, 11);
        assert_eq!(s.rct_accesses, 0);
        assert_eq!(s.group_spills, 0);
    }

    #[test]
    fn spill_happens_exactly_at_tg() {
        let mut h = small();
        let row = RowAddr::new(0, 0, 0, 5);
        for _ in 0..11 {
            act(&mut h, row);
        }
        let resp = act(&mut h, row); // 12th activation = T_G
        assert_eq!(h.stats().group_spills, 1);
        // 64-row group × 1 B = 1 line: one read + one write side request.
        assert_eq!(resp.side_requests.len(), 2);
        assert!(resp.mitigations.is_empty());
    }

    #[test]
    fn mitigation_at_exactly_th_for_single_hot_row() {
        let mut h = small();
        let row = RowAddr::new(0, 0, 1, 9);
        let mut mitigated_at = Vec::new();
        for i in 1..=64u32 {
            let resp = act(&mut h, row);
            if !resp.mitigations.is_empty() {
                assert_eq!(resp.mitigations[0].aggressor, row);
                mitigated_at.push(i);
            }
        }
        // Only this row touches its group, so counting is precise: the first
        // mitigation at exactly T_H = 16, then every 16 activations.
        assert_eq!(mitigated_at, vec![16, 32, 48, 64]);
    }

    #[test]
    fn group_interference_can_only_hasten_mitigation() {
        let mut h = small();
        // Rows 0 and 1 share group 0 (64-row groups).
        let a = RowAddr::new(0, 0, 0, 0);
        let b = RowAddr::new(0, 0, 0, 1);
        // Saturate the group with row b only.
        for _ in 0..12 {
            act(&mut h, b);
        }
        // Row a starts fresh but its RCT entry says T_G = 12: it gets
        // mitigated after only T_H − T_G = 4 of its own activations.
        let mut count;
        let mut first_mitigation = None;
        for i in 1..=8 {
            let resp = act(&mut h, a);
            count = i;
            if !resp.mitigations.is_empty() {
                first_mitigation = Some(count);
                break;
            }
        }
        assert_eq!(first_mitigation, Some(4));
    }

    #[test]
    fn rcc_hit_avoids_side_requests() {
        let mut h = small();
        let row = RowAddr::new(0, 0, 0, 5);
        for _ in 0..12 {
            act(&mut h, row);
        }
        // Row is now installed in the RCC: further activations are hits.
        let resp = act(&mut h, row);
        assert!(resp.side_requests.is_empty());
        assert!(h.stats().rcc_hits >= 1);
    }

    #[test]
    fn no_rcc_ablation_does_rmw_per_activation() {
        let geom = MemGeometry::tiny();
        let config = HydraConfig::builder(geom, 0)
            .thresholds(16, 12)
            .gct_entries(64)
            .rcc_entries(32)
            .without_rcc()
            .build()
            .unwrap();
        let mut h = Hydra::new(config).unwrap();
        let row = RowAddr::new(0, 0, 0, 5);
        for _ in 0..12 {
            act(&mut h, row); // fill GCT to T_G (spill included)
        }
        let resp = act(&mut h, row); // 13th: per-row, no RCC
        assert_eq!(resp.side_requests.len(), 2); // read + write-back
    }

    #[test]
    fn no_gct_ablation_goes_straight_to_per_row() {
        let geom = MemGeometry::tiny();
        let config = HydraConfig::builder(geom, 0)
            .thresholds(16, 12)
            .gct_entries(64)
            .rcc_entries(32)
            .without_gct()
            .build()
            .unwrap();
        let mut h = Hydra::new(config).unwrap();
        let row = RowAddr::new(0, 0, 0, 5);
        let resp = act(&mut h, row);
        assert_eq!(h.stats().gct_only, 0);
        assert_eq!(h.stats().rct_accesses, 1);
        assert!(!resp.side_requests.is_empty());
        // Mitigation still arrives at exactly T_H.
        let mut mitigations = 0;
        for _ in 0..15 {
            mitigations += act(&mut h, row).mitigations.len();
        }
        assert_eq!(mitigations, 1);
    }

    #[test]
    fn window_reset_clears_sram_state() {
        let mut h = small();
        let row = RowAddr::new(0, 0, 0, 5);
        for _ in 0..14 {
            act(&mut h, row);
        }
        h.reset_window(0);
        // After reset the GCT is empty again: the next activations are
        // GCT-only until T_G is reached again.
        let before = h.stats().gct_only;
        for _ in 0..11 {
            assert!(act(&mut h, row).is_empty());
        }
        assert_eq!(h.stats().gct_only, before + 11);
        assert_eq!(h.stats().window_resets, 1);
    }

    #[test]
    fn reserved_rows_use_rit() {
        let mut h = small();
        // tiny geometry: the reserved region is the top row of each bank.
        let reserved = RowAddr::new(0, 0, 3, 1023);
        assert!(h.is_reserved_row(reserved));
        let mut mitigations = 0;
        for _ in 0..40 {
            mitigations += act(&mut h, reserved).mitigations.len();
        }
        // T_H = 16: mitigations at 16 and 32.
        assert_eq!(mitigations, 2);
        assert_eq!(h.stats().rit_mitigations, 2);
        // The GCT path was never involved.
        assert_eq!(h.stats().gct_only, 0);
    }

    #[test]
    fn mitigation_refresh_acts_counted_by_default() {
        let mut h = small();
        let row = RowAddr::new(0, 0, 0, 5);
        for _ in 0..12 {
            act(&mut h, row);
        }
        // Feed mitigation-refresh activations: they must keep counting.
        let mut mitigations = 0;
        for _ in 0..8 {
            mitigations += h
                .on_activation(row, 0, ActivationKind::MitigationRefresh)
                .mitigations
                .len();
        }
        assert_eq!(mitigations, 1, "12 + 4 more reaches T_H = 16");
    }

    #[test]
    fn mitigation_refresh_acts_ignored_when_disabled() {
        let geom = MemGeometry::tiny();
        let config = HydraConfig::builder(geom, 0)
            .thresholds(16, 12)
            .gct_entries(64)
            .rcc_entries(32)
            .count_mitigation_acts(false)
            .build()
            .unwrap();
        let mut h = Hydra::new(config).unwrap();
        let row = RowAddr::new(0, 0, 0, 5);
        for _ in 0..100 {
            let resp = h.on_activation(row, 0, ActivationKind::MitigationRefresh);
            assert!(resp.is_empty());
        }
        assert_eq!(h.stats().gct_only, 0);
    }

    #[test]
    fn eviction_writeback_preserves_counts() {
        let geom = MemGeometry::tiny();
        // Direct-mapped 4-entry RCC to force evictions easily.
        let config = HydraConfig::builder(geom, 0)
            .thresholds(16, 12)
            .gct_entries(4) // 1024-row groups
            .rcc_entries(4)
            .rcc_ways(1)
            .build()
            .unwrap();
        let mut h = Hydra::new(config).unwrap();
        let a = RowAddr::new(0, 0, 0, 0);
        for _ in 0..12 {
            act(&mut h, a); // saturate group 0
        }
        // a has count 12 (T_G). Activate 2 more times: 14.
        act(&mut h, a);
        act(&mut h, a);
        // Conflict rows (same RCC set: slots ≡ 0 mod 4) evict a.
        for r in [4u32, 8, 12, 16] {
            act(&mut h, RowAddr::new(0, 0, 0, r));
        }
        // a's count must have been written back; two more ACTs reach 16.
        let r1 = act(&mut h, a);
        let r2 = act(&mut h, a);
        assert_eq!(
            r1.mitigations.len() + r2.mitigations.len(),
            1,
            "count must survive eviction: 14 + 2 = T_H"
        );
    }

    #[test]
    fn randomized_indexing_keeps_spills_cheap() {
        // Footnote 4: with the randomized (Feistel) indexing, the RCT is
        // indexed by the *permuted* row id, so a group's entries remain
        // contiguous in RCT space and a spill still costs few line ops.
        let geom = MemGeometry::tiny();
        let rows = geom.rows_per_channel();
        let mut builder = HydraConfig::builder(geom, 0);
        builder
            .thresholds(16, 12)
            .gct_entries(64)
            .rcc_entries(32)
            .indexer(crate::indexing::GroupIndexer::randomized_for(rows, 64, 0x1234).unwrap());
        let mut h = Hydra::new(builder.build().unwrap()).unwrap();
        let row = RowAddr::new(0, 0, 0, 5);
        let mut spill_side_requests = 0;
        for _ in 0..12 {
            let resp = act(&mut h, row);
            spill_side_requests += resp.side_requests.len();
        }
        assert_eq!(h.stats().group_spills, 1);
        // 64-row group = 1 line: exactly one read + one write at the spill.
        assert_eq!(spill_side_requests, 2);
        // Tracking still mitigates exactly at T_H for an isolated hammer...
        // (the randomized group may contain other rows, but none are active).
        let mut mitigations = 0;
        for _ in 0..4 {
            mitigations += act(&mut h, row).mitigations.len();
        }
        assert_eq!(mitigations, 1);
    }

    #[test]
    fn window_reset_rotates_randomized_key() {
        let geom = MemGeometry::tiny();
        let rows = geom.rows_per_channel();
        let mut builder = HydraConfig::builder(geom, 0);
        builder
            .thresholds(16, 12)
            .gct_entries(64)
            .rcc_entries(32)
            .indexer(crate::indexing::GroupIndexer::randomized_for(rows, 64, 0x1234).unwrap());
        let mut h = Hydra::new(builder.build().unwrap()).unwrap();
        let before = h.config().indexer.slot_of_row(42);
        h.reset_window(0);
        let after = h.config().indexer.slot_of_row(42);
        assert_ne!(
            before, after,
            "per-window re-keying must change the mapping"
        );
    }

    #[test]
    fn activation_buckets_partition_every_real_activation() {
        // The four buckets (GCT-only, RCC-hit, RCT-access, reserved) must
        // partition *all* activations on a real run mixing hot rows, group
        // mates, reserved rows, mitigation refreshes and window resets —
        // unlike the hand-built structs above, this exercises the actual
        // tracking paths including spills and evictions.
        let mut h = small();
        let reserved = RowAddr::new(0, 0, 3, 1023);
        assert!(h.is_reserved_row(reserved));
        for i in 0..5_000u64 {
            let row = if i % 17 == 0 {
                reserved
            } else if i % 3 == 0 {
                // A small hot set that stays resident in the RCC.
                RowAddr::new(0, 0, 0, (i % 8) as u32)
            } else {
                RowAddr::new(0, 0, (i % 4) as u8, ((i * 13) % 400) as u32)
            };
            let kind = if i % 37 == 0 {
                ActivationKind::MitigationRefresh
            } else {
                ActivationKind::Demand
            };
            h.on_activation(row, i, kind);
            if i % 1000 == 999 {
                h.reset_window(i);
            }
        }
        let s = h.stats();
        assert!(s.group_spills > 0 && s.rcc_hits > 0, "run must be mixed");
        assert!(s.reserved_activations > 0);
        assert_eq!(
            s.gct_only + s.rcc_hits + s.rct_accesses + s.reserved_activations,
            s.activations,
            "bucket partition must be exhaustive: {s:?}"
        );
        let fractions = s.gct_only_fraction()
            + s.rcc_hit_fraction()
            + s.rct_access_fraction()
            + s.reserved_fraction();
        assert!((fractions - 1.0).abs() < 1e-12);
    }

    #[test]
    fn near_miss_watermark_tracks_hot_row_headroom() {
        // T_H = 16: the band is the top eighth, [14, 16).
        let mut h = small();
        let row = RowAddr::new(0, 0, 0, 5);
        let counters = |h: &Hydra| (h.stats().near_misses, h.stats().watermark_advances);
        for _ in 0..13 {
            act(&mut h, row);
        }
        // Per-row counts 12 (spill install) and 13 lie below the band;
        // each raised the window watermark.
        assert_eq!(counters(&h), (0, 2));
        // A group mate read back from the RCT at 12 + 1 neither enters the
        // band nor raises the watermark.
        act(&mut h, RowAddr::new(0, 0, 0, 6));
        assert_eq!(counters(&h), (0, 2));
        // Counts 14 and 15 fall in the band: the row stops one act short
        // of a mitigation.
        act(&mut h, row);
        act(&mut h, row);
        assert_eq!(h.stats().mitigations, 0);
        assert_eq!(counters(&h), (2, 4));
        // A mitigation is not a near miss.
        assert_eq!(act(&mut h, row).mitigations.len(), 1);
        assert_eq!(counters(&h), (2, 4));
        // The window reset restarts the watermark from zero: the next
        // spill install (12) advances it again.
        h.reset_window(0);
        for _ in 0..12 {
            act(&mut h, row);
        }
        assert_eq!(counters(&h), (2, 5));
    }

    #[test]
    fn tiny_thresholds_get_a_one_count_band() {
        // T_H = 4: T_H / 8 rounds to zero, so the band is the single count
        // T_H - 1 = 3.
        let geom = MemGeometry::tiny();
        let config = HydraConfig::builder(geom, 0)
            .thresholds(4, 2)
            .gct_entries(64)
            .rcc_entries(32)
            .build()
            .unwrap();
        let mut h = Hydra::new(config).unwrap();
        let row = RowAddr::new(0, 0, 0, 5);
        // Counts 2 (spill install) and 3, then a mitigation at 4.
        for _ in 0..4 {
            act(&mut h, row);
        }
        let s = h.stats();
        assert_eq!(
            (s.mitigations, s.near_misses, s.watermark_advances),
            (1, 1, 2)
        );
        // After the mitigation the row counts 1, 2, 3 again: only 3 is in
        // the band, and none beats the window's watermark of 3.
        for _ in 0..3 {
            act(&mut h, row);
        }
        let s = h.stats();
        assert_eq!(
            (s.mitigations, s.near_misses, s.watermark_advances),
            (1, 2, 2)
        );
    }

    #[test]
    fn name_and_sram_bytes() {
        let h = small();
        assert_eq!(h.name(), "hydra");
        assert!(h.sram_bytes() > 0);
    }

    #[test]
    fn rejects_mismatched_indexer() {
        let geom = MemGeometry::tiny();
        let mut builder = HydraConfig::builder(geom, 0);
        let bad = crate::indexing::GroupIndexer::static_for(2048, 64).unwrap();
        let config = builder.indexer(bad).build();
        // The builder does not cross-check (the indexer is user-provided);
        // Hydra::new must.
        if let Ok(c) = config {
            assert!(Hydra::new(c).is_err());
        }
    }

    #[test]
    fn rcc_hit_counts_climb_one_per_activation() {
        let mut h = small();
        let row = RowAddr::new(0, 0, 0, 7);
        // Saturate the group (T_G = 12), then keep hammering: the later
        // activations count in the RCC in place, and each must add exactly
        // one for the first mitigation to land exactly at T_H = 16.
        let mut first = None;
        for i in 1..=16u32 {
            if !act(&mut h, row).mitigations.is_empty() {
                first.get_or_insert(i);
            }
        }
        assert_eq!(first, Some(16));
        let s = h.stats();
        assert_eq!(s.mitigations, 1);
        assert!(
            s.rcc_hits >= 3,
            "expected RCC-resident counting, got {} hits",
            s.rcc_hits
        );
    }
}
