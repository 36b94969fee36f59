//! Static security audit of a [`HydraConfig`].
//!
//! Every check here is *analytical*: it derives a worst-case bound from the
//! configuration alone, assuming an adversary with full knowledge of the
//! design and an arbitrary activation budget. The central quantity is the
//! **worst-case unmitigated activation count** — the most activations any
//! single row can receive without Hydra issuing a mitigation. The
//! configuration is secure against a Row-Hammer threshold `T_RH` iff that
//! bound is strictly below `T_RH`.
//!
//! The bound decomposes along Hydra's structure (Sec. 4.6 of the paper):
//!
//! * **Window split.** Per-row counts reset at tracking-window boundaries,
//!   so an attacker can place `T_H − 1` activations before a reset and
//!   `T_H − 1` after it: `2·(T_H − 1)` total. This is why `T_H = T_RH / 2`.
//! * **GCT initialization.** When a group's GCT entry saturates at `T_G`,
//!   the group's RCT entries are initialized to `T_G`. A row's tracked
//!   count is therefore always ≥ its true count (the whole group
//!   contributed at most `T_G`, so any one row contributed at most `T_G`):
//!   the GCT path *over*-counts, never under-counts — undercount bound 0.
//! * **RCC eviction write-back.** Evicted RCC counters must be written back
//!   to the RCT before the entry is reused. If write-back is disabled, an
//!   eviction silently discards up to `T_H − 1` counted activations, and an
//!   attacker who thrashes the victim's RCC set can repeat the discard
//!   forever: the undercount is *unbounded* and no `T_RH` is safe.
//! * **RCT counter rows.** The RCT lives in DRAM rows that are themselves
//!   hammerable; RIT-ACT must hold one counter per reserved row.
//! * **One-byte headroom.** RCT entries are one byte, so `T_H` and `T_G`
//!   must fit in `0..=255` or counters wrap and undercount.

use hydra_core::HydraConfig;
use hydra_types::json::quote;
use std::fmt;

/// The audit's overall conclusion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecurityVerdict {
    /// Every check passed: no row can reach `T_RH` activations unmitigated.
    Secure {
        /// The derived worst-case unmitigated activation count
        /// (`2·(T_H − 1)` when all structural checks pass).
        worst_case_unmitigated: u64,
    },
    /// At least one check failed.
    Insecure {
        /// Ids of the failed checks.
        failed_checks: Vec<String>,
        /// An attacker-achievable unmitigated activation count witnessing
        /// the violation, when one is finite; `None` means the undercount
        /// is unbounded (e.g. write-back disabled).
        witness_bound: Option<u64>,
    },
}

impl SecurityVerdict {
    /// True for [`SecurityVerdict::Secure`].
    pub fn is_secure(&self) -> bool {
        matches!(self, SecurityVerdict::Secure { .. })
    }
}

/// One analytical check with its derived bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditCheck {
    /// Stable machine-readable identifier (e.g. `window-split-bound`).
    pub id: &'static str,
    /// Whether the configuration satisfies this invariant.
    pub passed: bool,
    /// The bound this check derives, when finite. For passing checks this
    /// is the guaranteed worst case; for failing checks it is the witness
    /// an attacker can achieve (`None` = unbounded).
    pub bound: Option<u64>,
    /// Human-readable derivation.
    pub detail: String,
}

/// The full audit result: configuration summary, per-check results, verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Tracker audited (always `"hydra"` for [`audit_hydra`]).
    pub tracker: String,
    /// The Row-Hammer threshold audited against.
    pub t_rh: u32,
    /// Mitigation threshold of the audited config.
    pub t_h: u32,
    /// GCT saturation threshold of the audited config.
    pub t_g: u32,
    /// Rows covered by the audited per-channel instance.
    pub rows_covered: u64,
    /// Reserved DRAM rows holding the RCT (per channel).
    pub rct_reserved_rows: u64,
    /// Individual check results.
    pub checks: Vec<AuditCheck>,
}

impl AuditReport {
    /// The overall verdict, derived from the checks.
    pub fn verdict(&self) -> SecurityVerdict {
        let failed: Vec<&AuditCheck> = self.checks.iter().filter(|c| !c.passed).collect();
        if failed.is_empty() {
            // All structural undercounts are 0, so the only slack left is
            // the window split; the max over passing bounds is that one.
            let worst = self
                .checks
                .iter()
                .filter_map(|c| c.bound)
                .max()
                .unwrap_or(0);
            SecurityVerdict::Secure {
                worst_case_unmitigated: worst,
            }
        } else {
            // Any unbounded failure dominates every finite witness.
            let witness_bound = if failed.iter().any(|c| c.bound.is_none()) {
                None
            } else {
                failed.iter().filter_map(|c| c.bound).max()
            };
            SecurityVerdict::Insecure {
                failed_checks: failed.iter().map(|c| c.id.to_string()).collect(),
                witness_bound,
            }
        }
    }

    /// True iff every check passed.
    pub fn is_secure(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The derived worst-case unmitigated activation count when secure.
    pub fn worst_case_unmitigated(&self) -> Option<u64> {
        match self.verdict() {
            SecurityVerdict::Secure {
                worst_case_unmitigated,
            } => Some(worst_case_unmitigated),
            SecurityVerdict::Insecure { .. } => None,
        }
    }

    /// Machine-readable JSON rendering (no external dependencies: the
    /// report is flat and all strings are escaped here).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"tracker\":{},", quote(&self.tracker)));
        out.push_str(&format!("\"t_rh\":{},", self.t_rh));
        out.push_str(&format!("\"t_h\":{},", self.t_h));
        out.push_str(&format!("\"t_g\":{},", self.t_g));
        out.push_str(&format!("\"rows_covered\":{},", self.rows_covered));
        out.push_str(&format!(
            "\"rct_reserved_rows\":{},",
            self.rct_reserved_rows
        ));
        match self.verdict() {
            SecurityVerdict::Secure {
                worst_case_unmitigated,
            } => {
                out.push_str("\"verdict\":\"secure\",");
                out.push_str(&format!(
                    "\"worst_case_unmitigated\":{worst_case_unmitigated},"
                ));
            }
            SecurityVerdict::Insecure {
                failed_checks,
                witness_bound,
            } => {
                out.push_str("\"verdict\":\"insecure\",");
                let ids: Vec<String> = failed_checks.iter().map(|f| quote(f)).collect();
                out.push_str(&format!("\"failed_checks\":[{}],", ids.join(",")));
                match witness_bound {
                    Some(b) => out.push_str(&format!("\"witness_bound\":{b},")),
                    None => out.push_str("\"witness_bound\":null,"),
                }
            }
        }
        out.push_str("\"checks\":[");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"passed\":{},\"bound\":{},\"detail\":{}}}",
                quote(c.id),
                c.passed,
                match c.bound {
                    Some(b) => b.to_string(),
                    None => "null".to_string(),
                },
                quote(&c.detail)
            ));
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "security audit: {} vs T_RH = {} (T_H = {}, T_G = {}, {} rows, {} RCT rows)",
            self.tracker, self.t_rh, self.t_h, self.t_g, self.rows_covered, self.rct_reserved_rows
        )?;
        for c in &self.checks {
            let status = if c.passed { "PASS" } else { "FAIL" };
            let bound = match c.bound {
                Some(b) => format!("{b}"),
                None => "unbounded".to_string(),
            };
            writeln!(
                f,
                "  [{status}] {:<24} bound {:>9}  {}",
                c.id, bound, c.detail
            )?;
        }
        match self.verdict() {
            SecurityVerdict::Secure {
                worst_case_unmitigated,
            } => write!(
                f,
                "verdict: SECURE — worst case {worst_case_unmitigated} unmitigated ACTs < T_RH {}",
                self.t_rh
            ),
            SecurityVerdict::Insecure {
                failed_checks,
                witness_bound,
            } => write!(
                f,
                "verdict: INSECURE ({}) — attacker witness: {} unmitigated ACTs",
                failed_checks.join(", "),
                match witness_bound {
                    Some(b) => b.to_string(),
                    None => "unbounded".to_string(),
                }
            ),
        }
    }
}

/// Audits a Hydra configuration against Row-Hammer threshold `t_rh`.
///
/// The checks mirror the paper's security argument (Sec. 4.6, 5.2); see the
/// module docs for the derivations. The audit is purely static — nothing is
/// simulated — so it runs in microseconds for any geometry.
pub fn audit_hydra(config: &HydraConfig, t_rh: u32) -> AuditReport {
    let t_h = u64::from(config.t_h);
    let t_g = u64::from(config.t_g);
    let t_rh64 = u64::from(t_rh);
    let rows = config.rows_covered();
    let row_bytes = config.geometry.row_bytes();
    let reserved_rows = rows.div_ceil(row_bytes);
    let mut checks = Vec::new();

    // 1. Window split: T_H − 1 before a window reset plus T_H − 1 after.
    let split = 2 * t_h.saturating_sub(1);
    checks.push(AuditCheck {
        id: "window-split-bound",
        passed: split < t_rh64,
        bound: Some(split),
        detail: format!(
            "attacker splits (T_H−1)+(T_H−1) = {split} ACTs around a window reset; requires < T_RH = {t_rh64}"
        ),
    });

    // 2. GCT initialization path: spilling installs T_G for every row of the
    // group, but the whole group only contributed T_G activations, so any
    // single row's tracked count is ≥ its true count. Holds whenever the
    // spill fires before the per-row threshold, i.e. T_G < T_H.
    let gct_ok = !config.use_gct || t_g < t_h;
    checks.push(AuditCheck {
        id: "gct-init-undercount",
        passed: gct_ok,
        bound: if gct_ok { Some(0) } else { Some(split.max(t_g + 1)) },
        detail: if config.use_gct {
            format!(
                "group spill initializes RCT entries to T_G = {t_g} ≥ any row's true contribution; tracked ≥ true (undercount 0)"
            )
        } else {
            "GCT disabled: every activation takes the exact per-row path (undercount 0)".to_string()
        },
    });

    // 3. RCC eviction write-back: disabling it lets set-thrashing discard a
    // victim's count arbitrarily often — no finite bound exists.
    let wb_ok = !config.use_rcc || config.rcc_writeback;
    checks.push(AuditCheck {
        id: "rcc-writeback",
        passed: wb_ok,
        bound: if wb_ok { Some(0) } else { None },
        detail: if !config.use_rcc {
            "RCC disabled: counts go straight to the RCT, nothing to evict".to_string()
        } else if config.rcc_writeback {
            format!(
                "evictions write the counter back before reuse ({}-entry, {}-way RCC loses nothing)",
                config.rcc_entries, config.rcc_ways
            )
        } else {
            format!(
                "write-back DISABLED: thrashing one {}-way set discards up to T_H−1 = {} counted ACTs per eviction, repeatable forever",
                config.rcc_ways,
                t_h - 1
            )
        },
    });

    // 4. RIT-ACT coverage: one SRAM counter per reserved RCT row, and the
    // region must fit inside the channel's banks.
    let channel_banks = u64::from(config.geometry.ranks_per_channel())
        * u64::from(config.geometry.banks_per_rank());
    let region_fits =
        reserved_rows.div_ceil(channel_banks) <= u64::from(config.geometry.rows_per_bank());
    checks.push(AuditCheck {
        id: "rit-coverage",
        passed: region_fits,
        bound: if region_fits { Some(0) } else { None },
        detail: format!(
            "{reserved_rows} reserved RCT rows per channel ({} system-wide) each get a RIT-ACT counter mitigating at T_H",
            reserved_rows * u64::from(config.geometry.channels())
        ),
    });

    // 5. One-byte RCT headroom: counters wrap (undercount) past 255.
    let headroom_ok = t_h <= 255 && t_g <= 255;
    checks.push(AuditCheck {
        id: "rct-byte-headroom",
        passed: headroom_ok,
        bound: if headroom_ok { Some(0) } else { None },
        detail: format!(
            "T_H = {t_h} and T_G = {t_g} must fit the RCT's one-byte counters (≤ 255) or counts wrap"
        ),
    });

    // 6. Group coverage: every row must belong to exactly one full group.
    let divides = config.gct_entries as u64 > 0 && rows.is_multiple_of(config.gct_entries as u64);
    checks.push(AuditCheck {
        id: "gct-divisibility",
        passed: divides,
        bound: if divides { Some(0) } else { None },
        detail: format!(
            "{} GCT entries × {} rows/group must cover all {rows} rows exactly",
            config.gct_entries,
            if divides { config.rows_per_group() } else { 0 },
        ),
    });

    // 7. Half-Double feedback: mitigation refreshes are activations of the
    // victim rows and must feed the tracker, or distance-2 damage from the
    // mitigations themselves goes unaccounted (Sec. 5.2.1).
    checks.push(AuditCheck {
        id: "mitigation-feedback",
        passed: config.count_mitigation_acts,
        bound: if config.count_mitigation_acts {
            Some(0)
        } else {
            None
        },
        detail: if config.count_mitigation_acts {
            "victim-refresh activations are counted into victim rows (Half-Double defense)".to_string()
        } else {
            "mitigation refreshes are NOT counted: their disturbance of neighboring rows is invisible to the tracker".to_string()
        },
    });

    AuditReport {
        tracker: "hydra".to_string(),
        t_rh,
        t_h: config.t_h,
        t_g: config.t_g,
        rows_covered: rows,
        rct_reserved_rows: reserved_rows,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_types::MemGeometry;

    fn isca22() -> HydraConfig {
        HydraConfig::isca22_default(MemGeometry::isca22_baseline(), 0)
            .expect("baseline config is valid")
    }

    #[test]
    fn isca22_default_is_secure_at_500() {
        let report = audit_hydra(&isca22(), 500);
        assert!(report.is_secure(), "{report}");
        // T_H = 250 → worst case 2·249 = 498 < 500.
        assert_eq!(report.worst_case_unmitigated(), Some(498));
    }

    #[test]
    fn threshold_above_half_trh_is_insecure_with_witness() {
        // T_H = 250 against T_RH = 400: the window split alone yields 498.
        let report = audit_hydra(&isca22(), 400);
        assert!(!report.is_secure());
        match report.verdict() {
            SecurityVerdict::Insecure {
                failed_checks,
                witness_bound,
            } => {
                assert!(failed_checks.contains(&"window-split-bound".to_string()));
                assert_eq!(witness_bound, Some(498));
            }
            SecurityVerdict::Secure { .. } => panic!("expected insecure"),
        }
    }

    #[test]
    fn disabled_writeback_is_unbounded_insecure() {
        let geom = MemGeometry::isca22_baseline();
        let config = HydraConfig::builder(geom, 0)
            .rcc_writeback(false)
            .build()
            .expect("config builds; the audit judges it");
        let report = audit_hydra(&config, 500);
        match report.verdict() {
            SecurityVerdict::Insecure {
                failed_checks,
                witness_bound,
            } => {
                assert_eq!(failed_checks, vec!["rcc-writeback".to_string()]);
                assert_eq!(witness_bound, None, "undercount must be unbounded");
            }
            SecurityVerdict::Secure { .. } => panic!("expected insecure"),
        }
    }

    #[test]
    fn uncounted_mitigation_acts_fail_the_feedback_check() {
        let geom = MemGeometry::tiny();
        let config = HydraConfig::builder(geom, 0)
            .count_mitigation_acts(false)
            .build()
            .expect("config builds");
        let report = audit_hydra(&config, 500);
        assert!(!report.is_secure());
        assert!(report
            .checks
            .iter()
            .any(|c| c.id == "mitigation-feedback" && !c.passed));
    }

    #[test]
    fn ablations_stay_secure() {
        // Disabling the GCT or the RCC costs performance, not security.
        let geom = MemGeometry::tiny();
        for f in [
            |b: &mut hydra_core::HydraConfigBuilder| {
                b.without_gct();
            },
            |b: &mut hydra_core::HydraConfigBuilder| {
                b.without_rcc();
            },
        ] {
            let mut b = HydraConfig::builder(geom, 0);
            b.thresholds(64, 51);
            f(&mut b);
            let config = b.build().expect("config builds");
            let report = audit_hydra(&config, 128);
            assert!(report.is_secure(), "{report}");
        }
    }

    #[test]
    fn rit_coverage_counts_512_rows_system_wide() {
        let report = audit_hydra(&isca22(), 500);
        // 2 M rows / 8 KB rows = 256 reserved rows per channel (Sec. 5.2.2:
        // 512 across both channels).
        assert_eq!(report.rct_reserved_rows, 256);
        let rit = report
            .checks
            .iter()
            .find(|c| c.id == "rit-coverage")
            .expect("check exists");
        assert!(rit.detail.contains("512 system-wide"), "{}", rit.detail);
    }

    #[test]
    fn json_is_well_formed_and_machine_readable() {
        let report = audit_hydra(&isca22(), 500);
        let json = report.to_json();
        assert!(json.contains("\"verdict\":\"secure\""));
        assert!(json.contains("\"worst_case_unmitigated\":498"));
        // Paranoid structural checks without a JSON parser: balanced braces
        // and brackets, quotes escaped.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );

        let bad = audit_hydra(&isca22(), 400).to_json();
        assert!(bad.contains("\"verdict\":\"insecure\""));
        assert!(bad.contains("\"witness_bound\":498"));
    }
}
