//! `hydra-forensics`: streaming attack attribution and anomaly detection
//! over the tracker's telemetry stream.
//!
//! The tracker ([`hydra-core`]) answers *"should this activation trigger a
//! mitigation?"*; this crate answers the questions that come next: **who**
//! was hammering (aggressor attribution), **what** the access pattern was
//! (attack classification), **how close** benign-looking traffic came to
//! the threshold (near-miss context), and **what to file** about it
//! (schema-versioned incident records).
//!
//! Everything runs online with bounded memory against the existing
//! [`EventSink`](hydra_telemetry::EventSink) seam:
//!
//! - [`attribution`] — Misra-Gries + count-min heavy-hitter sketches over
//!   the `RctAccess` row stream; names the top-k aggressors with tightened
//!   over-estimates.
//! - [`classify`] — per-window labels: `quiet`, `benign`, `single_sided`,
//!   `double_sided`, `many_sided` (Blacksmith-style), `decoy_heavy`.
//! - [`probe`] — [`ForensicsProbe`], the [`EventSink`](hydra_telemetry::EventSink)
//!   that ties the sketches and classifier together. Attach it with
//!   [`Hydra::with_probe`](https://docs.rs/) (or `TeeSink` next to a
//!   `JsonlSink`); the probe-identity proptest proves attaching it does
//!   not perturb the tracker.
//! - [`incident`] — `hydra-forensics-v1` JSONL incident records.
//! - [`trace`] — offline replay: `hydra forensics FILE` re-runs the
//!   analyzers over a recorded trace and reproduces live classification
//!   exactly.
//! - [`report`] — `hydra-bench-v2` report parsing and regression
//!   comparison for `hydra bench --compare`.
//! - [`json`] — the dependency-free JSON parser the offline paths share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod classify;
pub mod incident;
pub mod json;
pub mod probe;
pub mod report;
pub mod trace;

pub use attribution::AttributionEngine;
pub use classify::{classify, AttackClass, Classification, ClassifierConfig, WindowSignals};
pub use incident::{incidents_to_jsonl, Incident, INCIDENT_SCHEMA_VERSION};
pub use probe::{ForensicsProbe, RunVerdict, WindowReport};
pub use report::{
    compare_reports, parse_bench_report, BenchCellData, BenchComparison, BenchReportData,
    CompareConfig, BENCH_SCHEMA_VERSION_V2, CV_GATE_SIGMAS,
};
pub use trace::{parse_event_line, parse_trace_meta, replay_trace, ReplaySummary, TraceMeta};
