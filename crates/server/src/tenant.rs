//! Per-tenant activation pipeline: one tracker + forensics probe per
//! tenant, fed exclusively from that tenant's accepted batches.
//!
//! The pipeline is the unit of crash isolation *and* of determinism.
//! Isolation: each tenant's [`TenantPipeline`] lives on its own shard
//! thread inside the daemon, so a panic takes down exactly one tenant.
//! Determinism: the pipeline's outputs are a pure function of the
//! ordered accepted batches — the daemon's session recorder stores those
//! batches, and replay re-runs this same code to reproduce the outputs
//! byte for byte (`hydra replay-session`).
//!
//! Cost: a batch costs O(its rows + the windows it closes). The pipeline
//! keeps a cursor over the probe's retained reports and renders only the
//! incidents of reports past it, so each incident is built and published
//! once. Past the probe's retention cap no new incident is published;
//! [`TenantSummary::overflow_windows`] counts what was not kept.

use hydra_core::{Hydra, HydraConfig, RowCountTable};
use hydra_dram::DramTiming;
use hydra_forensics::attribution::unpack_row;
use hydra_forensics::ForensicsProbe;
use hydra_sim::ActivationSim;
use hydra_types::MemGeometry;

use crate::frame::RejectReason;

/// Refresh-window scale for service pipelines. At the unscaled 64 ms
/// window a live tenant would never see a window close, so every
/// forensics incident would finalize only at drain — after the incident
/// hub has shut down. Scaling the window down makes windows close every
/// few thousand simulated cycles, so incidents finalize (and publish to
/// subscribers) while the tenant is still streaming. The same scale is
/// applied on record and on replay, so determinism is unaffected.
const WINDOW_SCALE: u64 = 10_000;

/// Result of applying one accepted batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Echo of the batch sequence number.
    pub seq: u64,
    /// Rows applied (valid rows only).
    pub accepted: u32,
    /// Rows skipped because they decode outside the shard's geometry.
    pub invalid: u32,
    /// Forensics incident JSONL lines newly finalized by this batch.
    pub new_incidents: Vec<String>,
}

/// End-of-stream summary for one tenant, rendered canonically so record
/// and replay can be compared byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSummary {
    /// Tenant name.
    pub tenant: String,
    /// Accepted batches.
    pub batches: u64,
    /// Valid rows applied.
    pub rows: u64,
    /// Rows skipped as outside the geometry.
    pub invalid_rows: u64,
    /// All incident JSONL lines, in finalization order.
    pub incidents: Vec<String>,
    /// Windows closed past the probe's retention cap
    /// ([`ForensicsProbe::MAX_WINDOWS`]); their incidents were never
    /// built or published. Reported on the daemon's exit report only:
    /// it is not part of [`canon_text`](Self::canon_text), so a summary
    /// parsed back from a session file carries 0.
    pub overflow_windows: u64,
    /// Canonical summary line (first line of [`canon_text`]).
    ///
    /// [`canon_text`]: TenantSummary::canon_text
    pub summary_line: String,
}

impl TenantSummary {
    /// Canonical multi-line text for this tenant: the summary line
    /// followed by each incident line. Byte-compared between a live
    /// session and its replay.
    pub fn canon_text(&self) -> String {
        let mut out = String::with_capacity(64 + self.incidents.len() * 128);
        out.push_str(&self.summary_line);
        out.push('\n');
        for line in &self.incidents {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// 64-bit FNV-1a digest of [`canon_text`](Self::canon_text); the
    /// compact fingerprint exchanged by the load client.
    pub fn digest(&self) -> u64 {
        fnv1a64(self.canon_text().as_bytes())
    }
}

/// 64-bit FNV-1a — digest for canonical tenant output.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One tenant's tracker, probe and activation replay state.
pub struct TenantPipeline {
    tenant: String,
    geometry: MemGeometry,
    sim: ActivationSim<Hydra<RowCountTable, ForensicsProbe>>,
    last_seq: Option<u64>,
    /// Probe reports whose incidents have been published; the drain
    /// cursor, so a batch renders only the windows it closed.
    reports_seen: usize,
    batches: u64,
    rows: u64,
    invalid_rows: u64,
}

impl TenantPipeline {
    /// Builds a pipeline for `tenant`: a channel-0 Hydra instance sized
    /// by [`HydraConfig::for_threshold`] with a forensics probe tagged
    /// with the tenant name.
    ///
    /// # Errors
    ///
    /// Returns the underlying configuration error text if `t_rh` is
    /// below the tracker's minimum or cannot be scaled to `geometry`.
    pub fn new(tenant: &str, geometry: MemGeometry, t_rh: u32) -> Result<Self, String> {
        let config = HydraConfig::for_threshold(geometry, 0, t_rh).map_err(|e| e.to_string())?;
        let probe = ForensicsProbe::new(config.t_h).with_workload(tenant);
        let tracker = Hydra::with_probe(config, probe).map_err(|e| e.to_string())?;
        let timing = DramTiming::ddr4_3200().with_scaled_window(WINDOW_SCALE);
        Ok(TenantPipeline {
            tenant: tenant.to_string(),
            geometry,
            sim: ActivationSim::new(geometry, tracker).with_timing(timing),
            last_seq: None,
            reports_seen: 0,
            batches: 0,
            rows: 0,
            invalid_rows: 0,
        })
    }

    /// Tenant name.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Highest accepted batch sequence number, if any.
    pub fn last_seq(&self) -> Option<u64> {
        self.last_seq
    }

    /// Applies one batch of packed rows.
    ///
    /// Sequence numbers must be strictly increasing: a stale or
    /// duplicated `seq` (e.g. manufactured by the wire-level duplicate
    /// fault) is rejected with [`RejectReason::BadSequence`] and leaves
    /// the pipeline untouched. Rows that decode outside the shard's
    /// geometry are skipped and accounted, not fatal.
    pub fn apply_batch(&mut self, seq: u64, rows: &[u64]) -> Result<BatchOutcome, RejectReason> {
        if self.last_seq.is_some_and(|last| seq <= last) {
            return Err(RejectReason::BadSequence);
        }
        self.last_seq = Some(seq);
        self.batches += 1;
        let mut accepted: u32 = 0;
        let mut invalid: u32 = 0;
        for &packed in rows {
            let row = unpack_row(packed);
            // The shard hosts a channel-0 tracker; out-of-geometry rows
            // would trip the tracker's channel debug-assert, so they are
            // filtered here (deterministically — replay skips them too).
            let in_geometry = row.channel == 0
                && row.rank < self.geometry.ranks_per_channel()
                && row.bank < self.geometry.banks_per_rank()
                && row.row < self.geometry.rows_per_bank();
            if in_geometry {
                self.sim.activate(row);
                accepted += 1;
            } else {
                invalid += 1;
            }
        }
        self.rows += u64::from(accepted);
        self.invalid_rows += u64::from(invalid);
        Ok(BatchOutcome {
            seq,
            accepted,
            invalid,
            new_incidents: self.drain_new_incidents(),
        })
    }

    fn drain_new_incidents(&mut self) -> Vec<String> {
        let probe = self.sim.tracker().probe();
        let fresh = probe
            .incidents_from(self.reports_seen)
            .map(|inc| inc.to_json())
            .collect();
        self.reports_seen = probe.reports().len();
        fresh
    }

    /// Finalizes the probe and renders the canonical tenant summary.
    ///
    /// Consumes the pipeline: after the daemon drains a tenant there is
    /// nothing left to feed it.
    pub fn finish(self) -> TenantSummary {
        // Finalize the open forensics window, then collect every
        // incident from the start so the summary is self-contained.
        let report = self.sim.report();
        let mut tracker = self.sim.into_tracker();
        tracker.probe_mut().finish();
        let probe = tracker.into_probe();
        let incidents: Vec<String> = probe.incidents_from(0).map(|inc| inc.to_json()).collect();
        let summary_line = format!(
            "tenant={} batches={} rows={} invalid={} acts={} mitigation_acts={} \
             mitigations={} side_reads={} side_writes={} window_resets={} incidents={}",
            self.tenant,
            self.batches,
            self.rows,
            self.invalid_rows,
            report.demand_acts,
            report.mitigation_acts,
            report.mitigations,
            report.side_reads,
            report.side_writes,
            report.window_resets,
            incidents.len(),
        );
        TenantSummary {
            tenant: self.tenant,
            batches: self.batches,
            rows: self.rows,
            invalid_rows: self.invalid_rows,
            incidents,
            overflow_windows: probe.verdict().overflow_windows,
            summary_line,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_forensics::attribution::pack_row;
    use hydra_types::RowAddr;

    fn pipeline() -> TenantPipeline {
        TenantPipeline::new("t0", MemGeometry::tiny(), 64).expect("tiny pipeline")
    }

    fn hammer_rows(n: usize) -> Vec<u64> {
        // Hammer one aggressor row hard enough to cross t_h = 32.
        (0..n)
            .map(|_| pack_row(RowAddr::new(0, 0, 1, 100)))
            .collect()
    }

    #[test]
    fn stale_and_duplicate_sequences_are_rejected() {
        let mut p = pipeline();
        assert!(p.apply_batch(1, &hammer_rows(4)).is_ok());
        assert_eq!(
            p.apply_batch(1, &hammer_rows(4)),
            Err(RejectReason::BadSequence)
        );
        assert_eq!(
            p.apply_batch(0, &hammer_rows(4)),
            Err(RejectReason::BadSequence)
        );
        assert!(p.apply_batch(2, &hammer_rows(4)).is_ok());
        assert_eq!(p.last_seq(), Some(2));
    }

    #[test]
    fn out_of_geometry_rows_are_skipped_not_fatal() {
        let mut p = pipeline();
        let bad_channel = pack_row(RowAddr::new(3, 0, 0, 1));
        let good = pack_row(RowAddr::new(0, 0, 0, 1));
        let outcome = p
            .apply_batch(1, &[bad_channel, good, u64::MAX])
            .expect("batch accepted");
        assert_eq!(outcome.accepted, 1);
        assert_eq!(outcome.invalid, 2);
        let summary = p.finish();
        assert_eq!(summary.rows, 1);
        assert_eq!(summary.invalid_rows, 2);
    }

    #[test]
    fn same_batches_produce_identical_canonical_output() {
        let run = || {
            let mut p = pipeline();
            for seq in 1..=8u64 {
                p.apply_batch(seq, &hammer_rows(64)).expect("accepted");
            }
            p.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a.canon_text(), b.canon_text());
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn streaming_past_the_retention_cap_is_counted_not_silent() {
        let mut p = pipeline();
        let mut seq = 0;
        while p.sim.tracker().probe().reports().len() < ForensicsProbe::MAX_WINDOWS {
            seq += 1;
            p.apply_batch(seq, &hammer_rows(512)).expect("accepted");
        }
        for _ in 0..4 {
            seq += 1;
            let out = p.apply_batch(seq, &hammer_rows(512)).expect("accepted");
            assert!(
                out.new_incidents.is_empty(),
                "nothing publishes past the cap"
            );
        }
        // Every reset closes one probe window; finish closes the tail.
        let windows = p.sim.report().window_resets + 1;
        let summary = p.finish();
        assert_eq!(
            summary.overflow_windows,
            windows - ForensicsProbe::MAX_WINDOWS as u64
        );
        assert!(summary.overflow_windows > 0);
        assert!(!summary.summary_line.contains("overflow"));
    }

    #[test]
    fn hammering_yields_incidents_in_summary() {
        let mut p = pipeline();
        let mut published = Vec::new();
        for seq in 1..=16u64 {
            let out = p.apply_batch(seq, &hammer_rows(256)).expect("accepted");
            published.extend(out.new_incidents);
        }
        let summary = p.finish();
        assert!(
            !summary.incidents.is_empty(),
            "sustained hammering must classify as an attack"
        );
        assert!(
            published.len() <= summary.incidents.len(),
            "incremental publishing never exceeds the final incident set"
        );
        assert_eq!(
            published,
            summary.incidents[..published.len()],
            "each incident is published once, in finalization order"
        );
        assert!(
            summary.incidents.len() - published.len() <= 1,
            "only the tail window closed by finish may be unpublished"
        );
    }
}
