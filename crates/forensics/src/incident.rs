//! Schema-versioned incident records.
//!
//! Every window the classifier labels as an attack becomes one
//! [`Incident`]: who (aggressors with activation estimates), whom
//! (projected victim rows within the blast radius), when (window index and
//! cycle span), what (class + confidence + justification), and how hard
//! (mitigation/spill/activation totals). Incidents serialize as one JSON
//! object per line so downstream tooling can stream them; the `schema`
//! field pins the format.

use crate::classify::{AttackClass, Classification, WindowSignals};
use hydra_types::json::escape_into;
use hydra_types::RowAddr;
use std::fmt::Write as _;

/// Schema identifier stamped into every incident record.
///
/// This is the single definition of the literal; `repo-lint` enforces that
/// no other library source repeats it.
pub const INCIDENT_SCHEMA_VERSION: &str = "hydra-forensics-v1";

/// Blast radius used to project victims from aggressors (rows within ±2,
/// matching the tracker's refresh radius).
pub const VICTIM_RADIUS: u32 = 2;

/// Maximum victims listed per incident (aggressor sets are already bounded
/// by the attribution engine's capacity).
const MAX_VICTIMS: usize = 32;

/// One attack-classified window, ready for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Window index (0-based, event-stream order).
    pub window: u64,
    /// Cycle of the first event in the window.
    pub start_cycle: u64,
    /// Cycle of the last event in the window.
    pub end_cycle: u64,
    /// The attack label.
    pub class: AttackClass,
    /// Classifier confidence in `[0, 1]`.
    pub confidence: f64,
    /// One-line justification from the classifier.
    pub reason: String,
    /// Aggressor rows with their estimated per-row-path activations.
    pub aggressors: Vec<(RowAddr, u64)>,
    /// Projected victim rows (±[`VICTIM_RADIUS`] of each aggressor, same
    /// bank, deduplicated, aggressors excluded).
    pub victims: Vec<RowAddr>,
    /// Mitigations issued in the window.
    pub mitigations: u64,
    /// Group spills in the window.
    pub spills: u64,
    /// Activations observed in the window.
    pub activations: u64,
    /// Workload name from the trace header, when known.
    pub workload: Option<String>,
}

impl Incident {
    /// Builds an incident from a classified window (call only when
    /// `classification.class.is_attack()`).
    pub fn from_window(
        signals: &WindowSignals,
        classification: &Classification,
        workload: Option<&str>,
    ) -> Self {
        Incident {
            window: signals.window,
            start_cycle: signals.start_cycle,
            end_cycle: signals.end_cycle,
            class: classification.class,
            confidence: classification.confidence,
            reason: classification.reason.clone(),
            victims: project_victims(&classification.aggressors),
            aggressors: classification.aggressors.clone(),
            mitigations: signals.mitigations,
            spills: signals.spills,
            activations: signals.activations,
            workload: workload.map(str::to_owned),
        }
    }

    /// Renders the incident as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"schema\":\"{INCIDENT_SCHEMA_VERSION}\",\"window\":{},\"start_cycle\":{},\
             \"end_cycle\":{},\"class\":\"{}\",\"confidence\":{:.3},\"reason\":\"",
            self.window,
            self.start_cycle,
            self.end_cycle,
            self.class.name(),
            self.confidence,
        );
        escape_into(&self.reason, &mut out);
        out.push_str("\",\"aggressors\":[");
        for (i, &(row, acts)) in self.aggressors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"ch\":{},\"rank\":{},\"bank\":{},\"row\":{},\"acts\":{acts}}}",
                row.channel, row.rank, row.bank, row.row
            );
        }
        out.push_str("],\"victims\":[");
        for (i, &row) in self.victims.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"ch\":{},\"rank\":{},\"bank\":{},\"row\":{}}}",
                row.channel, row.rank, row.bank, row.row
            );
        }
        let _ = write!(
            out,
            "],\"mitigations\":{},\"spills\":{},\"activations\":{}",
            self.mitigations, self.spills, self.activations
        );
        if let Some(w) = &self.workload {
            out.push_str(",\"workload\":\"");
            escape_into(w, &mut out);
            out.push('"');
        }
        out.push('}');
        out
    }
}

/// Renders incidents as JSONL (one record per line, trailing newline when
/// non-empty).
pub fn incidents_to_jsonl(incidents: &[Incident]) -> String {
    let mut out = String::with_capacity(incidents.len() * 256);
    for inc in incidents {
        out.push_str(&inc.to_json());
        out.push('\n');
    }
    out
}

/// Rows within ±[`VICTIM_RADIUS`] of any aggressor, same bank, dedup,
/// aggressors themselves excluded, sorted, capped at `MAX_VICTIMS`.
fn project_victims(aggressors: &[(RowAddr, u64)]) -> Vec<RowAddr> {
    let mut victims: Vec<RowAddr> = Vec::new();
    for &(agg, _) in aggressors {
        for offset in 1..=VICTIM_RADIUS {
            for row in [
                agg.row.saturating_sub(offset),
                agg.row.saturating_add(offset),
            ] {
                if row == agg.row {
                    continue;
                }
                let v = RowAddr::new(agg.channel, agg.rank, agg.bank, row);
                if !aggressors.iter().any(|&(a, _)| a == v) && !victims.contains(&v) {
                    victims.push(v);
                }
            }
        }
    }
    victims.sort_by_key(|r| (r.channel, r.rank, r.bank, r.row));
    victims.truncate(MAX_VICTIMS);
    victims
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classified(aggressors: Vec<(RowAddr, u64)>) -> Classification {
        Classification {
            class: AttackClass::DoubleSided,
            confidence: 0.9,
            reason: "two aggressors \"±1\"".to_string(),
            aggressors,
        }
    }

    #[test]
    fn victims_are_the_blast_radius_minus_aggressors() {
        let aggs = vec![
            (RowAddr::new(0, 0, 1, 99), 500),
            (RowAddr::new(0, 0, 1, 101), 490),
        ];
        let victims = project_victims(&aggs);
        // 99 ± {1,2} ∪ 101 ± {1,2} minus the aggressors: 97, 98, 100, 102, 103.
        let rows: Vec<u32> = victims.iter().map(|r| r.row).collect();
        assert_eq!(rows, vec![97, 98, 100, 102, 103]);
    }

    #[test]
    fn victims_do_not_underflow_at_row_zero() {
        let aggs = vec![(RowAddr::new(0, 0, 0, 0), 100)];
        let victims = project_victims(&aggs);
        let rows: Vec<u32> = victims.iter().map(|r| r.row).collect();
        assert_eq!(rows, vec![1, 2], "saturating_sub clamps at zero");
    }

    #[test]
    fn json_record_is_schema_stamped_and_escaped() {
        let sig = WindowSignals {
            window: 3,
            start_cycle: 100,
            end_cycle: 900,
            activations: 5_000,
            mitigations: 7,
            spills: 2,
            ..Default::default()
        };
        let inc = Incident::from_window(
            &sig,
            &classified(vec![(RowAddr::new(0, 0, 1, 99), 500)]),
            Some("große\"probe"),
        );
        let json = inc.to_json();
        assert!(json.starts_with("{\"schema\":\"hydra-forensics-v1\",\"window\":3,"));
        assert!(json.contains("\"class\":\"double_sided\""));
        assert!(json.contains("\\\"\u{b1}1\\\""), "reason quotes escaped");
        assert!(json.contains("\"workload\":\"große\\\"probe\""));
        assert!(json
            .contains("\"aggressors\":[{\"ch\":0,\"rank\":0,\"bank\":1,\"row\":99,\"acts\":500}]"));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn jsonl_emits_one_line_per_incident() {
        let sig = WindowSignals::default();
        let inc = Incident::from_window(&sig, &classified(vec![]), None);
        let out = incidents_to_jsonl(&[inc.clone(), inc]);
        assert_eq!(out.lines().count(), 2);
    }
}
