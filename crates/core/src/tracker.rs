//! The Hydra tracker: GCT → RCC → RCT orchestration (Sec. 4.5).

use crate::config::HydraConfig;
use crate::degrade::{DegradeState, HealthReport, ReadVerdict};
use crate::gct::{GctOutcome, GroupCountTable};
use crate::near_miss::NearMissMonitor;
use crate::rcc::RowCountCache;
use crate::rct::{RctBackend, RowCountTable};
use crate::rit::RitActTable;
use crate::stats::HydraStats;
use crate::storage::HydraStorage;
use hydra_profiler::{phase, NoopProfiler, SpanSink};
use hydra_telemetry::{EventSink, NoopSink, TelemetryEvent};
use hydra_types::addr::RowAddr;
use hydra_types::clock::MemCycle;
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
/// The in-DRAM counter table is pluggable via the [`RctBackend`] type
/// parameter (default: the real [`RowCountTable`]); fault-injection shims
/// wrap the table through [`Hydra::with_rct`] without forking the tracking
/// logic.
///
/// Telemetry is pluggable the same way: the [`EventSink`] type parameter
/// (default: [`NoopSink`]) receives a [`TelemetryEvent`] at every hot-path
/// decision point. With the default sink the instrumentation compiles to
/// nothing — the probe-identity proptest in `tests/probe_identity.rs`
/// proves a probed tracker is bit-identical to a bare one. Attach a real
/// sink with [`Hydra::with_probe`] or [`Hydra::with_rct_and_probe`].
///
/// Profiling is the third zero-cost seam: the [`SpanSink`] type parameter
/// (default: [`NoopProfiler`]) brackets each inner-loop phase
/// (`gct_lookup`, `rcc_probe`, `rcc_fill`, `rct_access`, `spill`,
/// `mitigation`, `window_reset`) in enter/exit span calls. The default
/// sink's empty inline methods compile away — `tests/span_identity.rs`
/// proves a span-instrumented tracker bit-identical to a bare one. Attach
/// a live profiler (e.g. `hydra_profiler::TreeProfiler`) with
/// [`Hydra::with_spans`] or [`Hydra::with_rct_probe_spans`].
#[derive(Debug, Clone)]
pub struct Hydra<R: RctBackend = RowCountTable, P: EventSink = NoopSink, S: SpanSink = NoopProfiler>
{
    config: HydraConfig,
    gct: GroupCountTable,
    rcc: RowCountCache,
    rct: R,
    rit: RitActTable,
    degrade: DegradeState,
    stats: HydraStats,
    near: NearMissMonitor,
    rows_per_group: u64,
    windows: u64,
    probe: P,
    spans: S,
}

impl Hydra {
    /// Creates a Hydra instance from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the indexer's domain does not match the
    /// channel's row count.
    pub fn new(config: HydraConfig) -> Result<Self, ConfigError> {
        let rct = RowCountTable::new(config.geometry, config.channel);
        Hydra::with_rct(config, rct)
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
    /// Creates a Hydra instance over the real RCT with a telemetry probe
    /// attached: every hot-path event is emitted into `probe`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] under the same conditions as [`Hydra::new`].
    pub fn with_probe(config: HydraConfig, probe: P) -> Result<Self, ConfigError> {
        let rct = RowCountTable::new(config.geometry, config.channel);
        Hydra::with_rct_and_probe(config, rct, probe)
    }
}

impl<S: SpanSink> Hydra<RowCountTable, NoopSink, S> {
    /// Creates a Hydra instance over the real RCT with a span profiler
    /// attached: every inner-loop phase is bracketed into `spans`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] under the same conditions as [`Hydra::new`].
    pub fn with_spans(config: HydraConfig, spans: S) -> Result<Self, ConfigError> {
        let rct = RowCountTable::new(config.geometry, config.channel);
        Hydra::with_rct_probe_spans(config, rct, NoopSink, spans)
    }
}

impl<R: RctBackend> Hydra<R> {
    /// Creates a Hydra instance over a caller-provided RCT backend (e.g. a
    /// fault-injecting wrapper around [`RowCountTable`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the indexer's domain or the backend's
    /// entry count does not match the channel's row count.
    pub fn with_rct(config: HydraConfig, rct: R) -> Result<Self, ConfigError> {
        Hydra::with_rct_and_probe(config, rct, NoopSink)
    }
}

impl<R: RctBackend, P: EventSink> Hydra<R, P> {
    /// Creates a Hydra instance over a caller-provided RCT backend *and*
    /// telemetry probe.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the indexer's domain or the backend's
    /// entry count does not match the channel's row count.
    pub fn with_rct_and_probe(config: HydraConfig, rct: R, probe: P) -> Result<Self, ConfigError> {
        Hydra::with_rct_probe_spans(config, rct, probe, NoopProfiler)
    }
}

impl<R: RctBackend, P: EventSink, S: SpanSink> Hydra<R, P, S> {
    /// Creates a Hydra instance over a caller-provided RCT backend,
    /// telemetry probe *and* span profiler — the fully general constructor
    /// behind [`Hydra::new`], [`Hydra::with_rct`], [`Hydra::with_probe`]
    /// and [`Hydra::with_spans`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the indexer's domain or the backend's
    /// entry count does not match the channel's row count.
    pub fn with_rct_probe_spans(
        config: HydraConfig,
        rct: R,
        probe: P,
        spans: S,
    ) -> Result<Self, ConfigError> {
        let rows = config.rows_covered();
        if config.indexer.rows() != rows {
            return Err(ConfigError::new(format!(
                "indexer covers {} rows but channel has {rows}",
                config.indexer.rows()
            )));
        }
        if rct.entry_count() != rows {
            return Err(ConfigError::new(format!(
                "RCT backend covers {} rows but channel has {rows}",
                rct.entry_count()
            )));
        }
        let rit = RitActTable::new(rct.reserved_row_count() as usize, config.t_h);
        let degrade = DegradeState::new(
            config.degradation,
            rct.entry_count(),
            config.gct_entries,
            config.t_g,
            config.t_h,
        );
        Ok(Hydra {
            gct: GroupCountTable::new(config.gct_entries, config.t_g),
            rcc: RowCountCache::new(config.rcc_entries, config.rcc_ways),
            rct,
            rit,
            degrade,
            stats: HydraStats::default(),
            near: NearMissMonitor::new(config.t_h),
            rows_per_group: config.rows_per_group(),
            windows: 0,
            probe,
            spans,
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

    /// The attached span profiler.
    pub fn spans(&self) -> &S {
        &self.spans
    }

    /// Mutable access to the span profiler (export a tree mid-run).
    pub fn spans_mut(&mut self) -> &mut S {
        &mut self.spans
    }

    /// Consumes the tracker, returning the span profiler (collect the call
    /// tree after a run).
    pub fn into_spans(self) -> S {
        self.spans
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &HydraConfig {
        &self.config
    }

    /// Cumulative event counters (drives Fig. 6).
    pub fn stats(&self) -> HydraStats {
        self.stats
    }

    /// The near-miss monitor: watermark and histogram of how close rows
    /// came to `T_H` without mitigating (the counters are mirrored into
    /// [`HydraStats::near_misses`] / [`HydraStats::watermark_advances`]).
    pub fn near_miss(&self) -> &NearMissMonitor {
        &self.near
    }

    /// A point-in-time summary of the degradation layer (parity detections
    /// and recoveries).
    pub fn health(&self) -> HealthReport {
        HealthReport {
            policy: self.degrade.policy(),
            parity_errors: self.stats.parity_errors,
            reinits: self.stats.degraded_reinits,
            escalated_refreshes: self.stats.degraded_refreshes,
            probabilistic_mitigations: self.stats.degraded_probabilistic,
            degraded_groups: self.degrade.degraded_groups(),
            windows: self.windows,
        }
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

    /// Direct access to the RCT backend (diagnostics/tests).
    pub fn rct(&self) -> &R {
        &self.rct
    }

    /// Direct access to the RIT-ACT table (diagnostics/tests).
    pub fn rit(&self) -> &RitActTable {
        &self.rit
    }

    /// Mutable GCT access — a fault-injection seam (stuck-at counters).
    pub fn gct_mut(&mut self) -> &mut GroupCountTable {
        &mut self.gct
    }

    /// Mutable RCC access — a fault-injection seam (fill corruption).
    pub fn rcc_mut(&mut self) -> &mut RowCountCache {
        &mut self.rcc
    }

    /// Mutable RCT-backend access — a fault-injection seam.
    pub fn rct_mut(&mut self) -> &mut R {
        &mut self.rct
    }

    /// True if `row` belongs to the reserved RCT region of this channel.
    pub fn is_reserved_row(&self, row: RowAddr) -> bool {
        self.rct.is_reserved(row)
    }

    /// The per-row tracking path (Sec. 4.5, cases 2 and 3): consult the RCC,
    /// falling back to the RCT in DRAM. `fresh_count` carries an
    /// already-known count (used at group spill); otherwise the count comes
    /// from the RCC/RCT and is incremented by one.
    fn per_row_path<const REC: bool>(
        &mut self,
        row: RowAddr,
        now: MemCycle,
        slot: u64,
        fresh_count: Option<u32>,
        response: &mut TrackerResponse,
    ) {
        let t_h = self.config.t_h;

        if self.config.use_rcc && fresh_count.is_none() {
            if REC {
                self.spans.enter(phase::RCC_PROBE);
            }
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
                if REC {
                    self.spans.exit(phase::RCC_PROBE);
                }
                if mitigate {
                    if REC {
                        self.spans.enter(phase::MITIGATION);
                    }
                    self.stats.mitigations += 1;
                    response.mitigations.push(MitigationRequest::new(row));
                    self.probe.emit(now, TelemetryEvent::Mitigation { row });
                    if REC {
                        self.spans.exit(phase::MITIGATION);
                    }
                } else {
                    self.observe_near_miss(observed);
                }
                return;
            }
            self.probe.emit(now, TelemetryEvent::RccMiss { slot });
            if REC {
                self.spans.exit(phase::RCC_PROBE);
            }
        }

        // Case 3 (or spill install): the count comes from DRAM.
        let mut count = match fresh_count {
            Some(c) => c,
            None => {
                if REC {
                    self.spans.enter(phase::RCT_ACCESS);
                }
                self.stats.rct_accesses += 1;
                self.stats.side_reads += 1;
                self.probe.emit(now, TelemetryEvent::RctRead { slot });
                response
                    .side_requests
                    .push(SideRequest::read(self.rct.dram_row_of_slot(slot)));
                let stored = self.rct.read(slot);
                let group = (slot / self.rows_per_group) as usize;
                let fetched = match self.degrade.verify_read(slot, stored, group) {
                    ReadVerdict::Clean(v) => v + 1,
                    ReadVerdict::Recovered { value, mitigate } => {
                        self.stats.parity_errors += 1;
                        self.probe.emit(now, TelemetryEvent::ParityError { slot });
                        if mitigate {
                            // Escalation: refresh the victim now; tracking
                            // restarts from the substituted value.
                            self.stats.degraded_refreshes += 1;
                            self.stats.mitigations += 1;
                            response.mitigations.push(MitigationRequest::new(row));
                            self.probe
                                .emit(now, TelemetryEvent::DegradedRefresh { slot });
                            self.probe.emit(now, TelemetryEvent::Mitigation { row });
                        } else {
                            self.stats.degraded_reinits += 1;
                            self.probe
                                .emit(now, TelemetryEvent::DegradedReinit { slot });
                        }
                        value + 1
                    }
                };
                if REC {
                    self.spans.exit(phase::RCT_ACCESS);
                }
                fetched
            }
        };
        self.probe
            .emit(now, TelemetryEvent::RctAccess { row, count });
        if count >= t_h {
            count = 0;
            if REC {
                self.spans.enter(phase::MITIGATION);
            }
            self.stats.mitigations += 1;
            response.mitigations.push(MitigationRequest::new(row));
            self.probe.emit(now, TelemetryEvent::Mitigation { row });
            if REC {
                self.spans.exit(phase::MITIGATION);
            }
        } else {
            self.observe_near_miss(count);
        }

        if self.config.use_rcc {
            if REC {
                self.spans.enter(phase::RCC_FILL);
            }
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
                    self.degrade.record_write(evicted.slot, evicted.count);
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
            if REC {
                self.spans.exit(phase::RCC_FILL);
            }
        } else {
            // No RCC: read-modify-write straight to DRAM.
            if REC {
                self.spans.enter(phase::RCT_ACCESS);
            }
            self.rct.write(slot, count);
            self.degrade.record_write(slot, count);
            self.stats.side_writes += 1;
            self.probe.emit(now, TelemetryEvent::RctWrite { slot });
            response
                .side_requests
                .push(SideRequest::write(self.rct.dram_row_of_slot(slot)));
            if REC {
                self.spans.exit(phase::RCT_ACCESS);
            }
        }
    }

    /// Feeds an unmitigated per-row count into the near-miss monitor and
    /// mirrors its outcome into the [`HydraStats`] counters.
    fn observe_near_miss(&mut self, count: u32) {
        let obs = self.near.observe(count);
        if obs.near_miss {
            self.stats.near_misses += 1;
        }
        if obs.advanced {
            self.stats.watermark_advances += 1;
        }
    }

    /// Handles the GCT spill: initialize the group's RCT entries to `T_G`
    /// (two line reads + two line writes for 128-row groups) and install the
    /// triggering row's entry.
    fn spill_group<const REC: bool>(
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
        self.degrade
            .record_group(group_start, self.rows_per_group, t_g);
        let lines = RowCountTable::lines_per_group(self.rows_per_group);
        self.stats.group_spills += 1;
        self.stats.rct_accesses += 1;
        self.stats.side_reads += lines;
        self.stats.side_writes += lines;
        // The paper reads then rewrites each line holding the group's
        // entries; emit one read + one write per line, spread over the
        // touched DRAM rows.
        for i in 0..lines {
            let target = touched[(i as usize).min(touched.len() - 1)];
            response.side_requests.push(SideRequest::read(target));
            response.side_requests.push(SideRequest::write(target));
        }
        // The triggering activation is already included in T_G (the GCT
        // counted it), so install the row at T_G without another increment.
        self.per_row_path::<REC>(row, now, slot, Some(t_g), response);
    }

    /// The body of [`ActivationTracker::on_activation`], factored out so the
    /// `activate` span can bracket it without threading exits through the
    /// early returns. `REC` is the [`SpanSink::unit_tick`] verdict, taken
    /// once per activation. It is a *const* generic: the compiler emits a
    /// completely span-free clone for `REC = false`, so a sampled-out unit
    /// (or a noop-sink tracker) runs code identical to the bare hot path —
    /// no per-phase branches, only the unit tick itself.
    fn activation_inner<const REC: bool>(
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
                if REC {
                    self.spans.enter(phase::MITIGATION);
                }
                self.stats.rit_mitigations += 1;
                self.probe.emit(now, TelemetryEvent::RitMitigation { row });
                response.mitigations.push(MitigationRequest::new(row));
                if REC {
                    self.spans.exit(phase::MITIGATION);
                }
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
        let group = (slot / self.rows_per_group) as usize;

        if self.config.use_gct {
            if REC {
                self.spans.enter(phase::GCT_LOOKUP);
            }
            let outcome = self.gct.increment(group);
            if REC {
                self.spans.exit(phase::GCT_LOOKUP);
            }
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
                    if REC {
                        self.spans.enter(phase::SPILL);
                    }
                    self.spill_group::<REC>(row, now, slot, &mut response);
                    if REC {
                        self.spans.exit(phase::SPILL);
                    }
                }
                GctOutcome::Saturated => {
                    self.per_row_path::<REC>(row, now, slot, None, &mut response);
                }
            }
        } else {
            // Hydra-NoGCT ablation: every activation takes the per-row path.
            self.per_row_path::<REC>(row, now, slot, None, &mut response);
        }

        // Probabilistic-fallback degradation: activations routed to a group
        // with detected (hence possibly undetected) corruption additionally
        // draw a PARA-style mitigation until the window resets.
        if self.degrade.fallback_mitigate(group) {
            if REC {
                self.spans.enter(phase::MITIGATION);
            }
            self.stats.degraded_probabilistic += 1;
            self.probe.emit(
                now,
                TelemetryEvent::DegradedProbabilistic {
                    group: group as u64,
                },
            );
            response.mitigations.push(MitigationRequest::new(row));
            if REC {
                self.spans.exit(phase::MITIGATION);
            }
        }
        response
    }
}

impl<R: RctBackend, P: EventSink, S: SpanSink> ActivationTracker for Hydra<R, P, S> {
    fn on_activation(
        &mut self,
        row: RowAddr,
        now: MemCycle,
        kind: ActivationKind,
    ) -> TrackerResponse {
        // One unit tick per activation: a sampling sink decides here
        // whether this unit is recorded. A suppressed unit branches into
        // the `REC = false` monomorph of `activation_inner` — the same
        // span-free code the bare tracker runs — so sampling costs one
        // rotor tick and one predictable branch. With the noop sink the
        // tick folds to `false` and the recorded arm is dead code.
        if self.spans.unit_tick() {
            self.spans.enter(phase::ACTIVATE);
            let response = self.activation_inner::<true>(row, now, kind);
            self.spans.exit(phase::ACTIVATE);
            response
        } else {
            self.activation_inner::<false>(row, now, kind)
        }
    }

    fn reset_window(&mut self, now: MemCycle) {
        self.spans.enter(phase::WINDOW_RESET);
        self.gct.reset();
        self.rcc.reset();
        self.rit.reset();
        self.near.reset_window();
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
        self.degrade.on_window_reset();
        if !self.config.use_gct {
            // Without a GCT there is no spill to overwrite stale counts, so
            // model the window reset on the backing table directly.
            self.rct.reset();
            self.degrade.reset_parity();
        }
        self.spans.exit(phase::WINDOW_RESET);
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
        // T_H = 16, band = [14, 16). Hammer one row to 15 and stop: the
        // run ends one act short of a mitigation — the definition of a
        // near miss.
        let mut h = small();
        let row = RowAddr::new(0, 0, 0, 5);
        for _ in 0..15 {
            act(&mut h, row);
        }
        let s = h.stats();
        assert_eq!(s.mitigations, 0);
        let m = h.near_miss();
        assert_eq!(m.max_watermark(), 15, "count stopped at T_H - 1");
        assert_eq!(m.window_watermark(), 15);
        // Counts 14 and 15 fall in the band.
        assert_eq!(s.near_misses, 2);
        assert_eq!(m.near_miss_total(), 2);
        assert!(m.headroom() < 0.07);
        // Per-row counts seen: 12 (spill install), 13, 14, 15 — each a
        // fresh watermark.
        assert_eq!(s.watermark_advances, 4);
        // A mitigation is not a near miss: one more act crosses T_H and
        // the histogram stays put.
        let resp = act(&mut h, row);
        assert_eq!(resp.mitigations.len(), 1);
        assert_eq!(h.stats().near_misses, 2);
        assert_eq!(h.near_miss().max_watermark(), 15);
        // Window reset clears the window watermark but keeps the all-time
        // one (and the monotonic counters).
        h.reset_window(0);
        assert_eq!(h.near_miss().window_watermark(), 0);
        assert_eq!(h.near_miss().max_watermark(), 15);
    }

    #[test]
    fn name_and_sram_bytes() {
        let h = small();
        assert_eq!(h.name(), "hydra");
        assert!(h.sram_bytes() > 0);
    }

    fn small_with_policy(policy: crate::degrade::DegradationPolicy) -> Hydra {
        let geom = MemGeometry::tiny();
        let config = HydraConfig::builder(geom, 0)
            .thresholds(16, 12)
            .gct_entries(64)
            .rcc_entries(32)
            .rcc_ways(4)
            .degradation(policy)
            .build()
            .unwrap();
        Hydra::new(config).unwrap()
    }

    #[test]
    fn parity_detects_corruption_and_reinit_restores_tg() {
        use crate::degrade::DegradationPolicy;
        let mut h = small_with_policy(DegradationPolicy::ConservativeReinit);
        let a = RowAddr::new(0, 0, 0, 0);
        let b = RowAddr::new(0, 0, 0, 1);
        // Saturate group 0 via row b: the spill writes T_G = 12 everywhere
        // (parity recorded).
        for _ in 0..12 {
            act(&mut h, b);
        }
        // Corrupt row a's RCT entry behind the parity guard's back:
        // 12 (even parity) -> 2 (odd parity) is detected.
        h.rct_mut().write(0, 2);
        // With the corrupted value an attacker would gain 10 activations of
        // headroom; re-init restores T_G so a mitigates after 4 acts.
        let mut first = None;
        for i in 1..=8 {
            if !act(&mut h, a).mitigations.is_empty() {
                first = Some(i);
                break;
            }
        }
        assert_eq!(first, Some(4));
        let s = h.stats();
        assert_eq!(s.parity_errors, 1);
        assert_eq!(s.degraded_reinits, 1);
        assert!(!h.health().is_healthy());
    }

    #[test]
    fn immediate_refresh_policy_mitigates_on_detection() {
        use crate::degrade::DegradationPolicy;
        let mut h = small_with_policy(DegradationPolicy::ImmediateRefresh);
        let a = RowAddr::new(0, 0, 0, 0);
        let b = RowAddr::new(0, 0, 0, 1);
        for _ in 0..12 {
            act(&mut h, b);
        }
        h.rct_mut().write(0, 2);
        let resp = act(&mut h, a);
        assert_eq!(resp.mitigations.len(), 1, "escalates straight away");
        assert_eq!(h.stats().degraded_refreshes, 1);
    }

    #[test]
    fn active_policy_without_faults_matches_stock_behavior() {
        use crate::degrade::DegradationPolicy;
        let mut stock = small();
        let mut guarded = small_with_policy(DegradationPolicy::ProbabilisticFallback { seed: 3 });
        // A stream mixing spills, RCC hits, evictions and mitigations.
        for i in 0..400u32 {
            let row = RowAddr::new(0, 0, 0, (i * 7) % 40);
            let r1 = stock.on_activation(row, u64::from(i), ActivationKind::Demand);
            let r2 = guarded.on_activation(row, u64::from(i), ActivationKind::Demand);
            assert_eq!(r1, r2, "act {i}");
        }
        assert_eq!(guarded.stats().parity_errors, 0);
        assert!(guarded.health().is_healthy());
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
