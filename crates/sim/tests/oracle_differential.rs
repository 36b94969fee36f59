//! Differential test of the shadow oracle: `ShadowOracle` against a plain
//! reference model of its contract, over random row streams, random
//! mitigation responses (spurious ones included) and random window resets.
//!
//! The model is written for clarity, not speed: an ordered map, two
//! lookups per activation (count, then check after the mitigations) and a
//! two-pass window reset. The oracle's single-probe fast path and one-pass
//! reset must agree with it on every report field and on the violation
//! log, entry for entry.

use hydra_sim::{OracleReport, ShadowOracle, Violation, ViolationKind};
use hydra_types::mitigation::MitigationRequest;
use hydra_types::{ActivationKind, ActivationTracker, MemCycle, RowAddr, TrackerResponse};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The oracle keeps this many violations in its detail log.
const DETAIL_LOG: usize = 64;

/// A tracker that answers each activation with whatever mitigations the
/// test scripted for it.
#[derive(Default)]
struct Scripted {
    next: Vec<RowAddr>,
}

impl ActivationTracker for Scripted {
    fn on_activation(&mut self, _: RowAddr, _: MemCycle, _: ActivationKind) -> TrackerResponse {
        TrackerResponse {
            mitigations: self.next.drain(..).map(MitigationRequest::new).collect(),
            side_requests: Vec::new(),
        }
    }

    fn reset_window(&mut self, _: MemCycle) {}

    fn name(&self) -> &str {
        "scripted"
    }

    fn sram_bytes(&self) -> u64 {
        0
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Row {
    current: u64,
    prev: u64,
    flagged: bool,
}

/// The reference model of the oracle's contract.
struct Model {
    t_rh: u64,
    rows: BTreeMap<RowAddr, Row>,
    report: OracleReport,
    log: Vec<Violation>,
}

impl Model {
    fn new(t_rh: u64) -> Self {
        Model {
            t_rh,
            rows: BTreeMap::new(),
            report: OracleReport::default(),
            log: Vec::new(),
        }
    }

    fn record(&mut self, kind: ViolationKind, row: RowAddr, true_count: u64, at: MemCycle) {
        self.report.violations_total += 1;
        if self.log.len() < DETAIL_LOG {
            self.log.push(Violation {
                kind,
                row,
                true_count,
                at,
                activation_index: self.report.activations,
            });
        }
    }

    fn activate(&mut self, row: RowAddr, mitigated: &[RowAddr], now: MemCycle) {
        self.report.activations += 1;
        self.rows.entry(row).or_default().current += 1;
        for &m in mitigated {
            self.report.mitigations += 1;
            let state = self.rows.entry(m).or_default();
            let total = state.current + state.prev;
            *state = Row::default();
            if total == 0 {
                self.record(ViolationKind::SpuriousMitigation, m, 0, now);
            }
        }
        let state = self.rows[&row];
        let total = state.current + state.prev;
        self.report.worst_unmitigated = self.report.worst_unmitigated.max(total);
        if total >= self.t_rh && !state.flagged {
            self.rows.insert(
                row,
                Row {
                    flagged: true,
                    ..state
                },
            );
            self.record(ViolationKind::ExcessActivations, row, total, now);
        }
    }

    fn reset_window(&mut self) {
        self.report.window_resets += 1;
        for state in self.rows.values_mut() {
            state.prev = state.current;
            state.current = 0;
            if state.prev < self.t_rh {
                state.flagged = false;
            }
        }
        self.rows.retain(|_, s| s.prev > 0);
    }

    fn report(&self) -> OracleReport {
        OracleReport {
            rows_tracked: self.rows.len() as u64,
            ..self.report
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Activate a row; the tracker answers by mitigating these rows.
    Act(RowAddr, Vec<RowAddr>),
    ResetWindow,
}

/// Twelve rows over two banks: few enough that rows repeat, cross the
/// threshold and get mitigated while still counting.
fn row() -> impl Strategy<Value = RowAddr> {
    (0u8..2, 0u32..6).prop_map(|(bank, row)| RowAddr::new(0, 0, bank, row))
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Most activations ask for nothing (the oracle's fast path).
        12 => row().prop_map(|r| Op::Act(r, Vec::new())),
        // Mitigate the activated row itself.
        2 => row().prop_map(|r| Op::Act(r, vec![r])),
        // Mitigate other rows, possibly never activated (spurious) or
        // twice in one response.
        2 => (row(), prop::collection::vec(row(), 1..3)).prop_map(|(r, m)| Op::Act(r, m)),
        1 => Just(Op::ResetWindow),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn oracle_matches_the_reference_model(
        t_rh in 1u32..12,
        ops in prop::collection::vec(op(), 1..400),
    ) {
        let mut oracle = ShadowOracle::new(Scripted::default(), t_rh);
        let mut model = Model::new(u64::from(t_rh));
        for (now, op) in (0..).zip(ops) {
            match op {
                Op::Act(row, mitigated) => {
                    oracle.inner_mut().next.clone_from(&mitigated);
                    let response = oracle.on_activation(row, now, ActivationKind::Demand);
                    prop_assert_eq!(response.mitigations.len(), mitigated.len());
                    model.activate(row, &mitigated, now);
                }
                Op::ResetWindow => {
                    oracle.reset_window(now);
                    model.reset_window();
                }
            }
            prop_assert_eq!(oracle.report(), model.report());
        }
        prop_assert_eq!(oracle.violations(), model.log.as_slice());
    }
}
