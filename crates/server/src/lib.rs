//! Hydra-as-a-service: a crash-isolated, backpressured multi-tenant
//! activation daemon.
//!
//! The rest of the workspace runs Hydra as a library inside one
//! process. This crate turns it into a long-lived service: tenants
//! stream activation batches over a Unix domain socket, each tenant gets
//! its own tracker + forensics probe on its own shard thread, and
//! `hydra-forensics-v1` incidents fan out to subscriber connections.
//! The design goal is not throughput but *robustness under hostile
//! conditions* — the daemon is built to survive every failure mode the
//! wire-level fault injector ([`hydra_faults::WireInjector`]) and the
//! adversarial load client can produce:
//!
//! * [`frame`] — the `hydra-serve-v1` codec: versioned, checksummed,
//!   length-prefixed frames; a resynchronizing decoder that never
//!   panics and never kills a connection over malformed bytes.
//! * [`tenant`] — the per-tenant pipeline (tracker + probe + activation
//!   replay), the unit of crash isolation and of deterministic replay.
//! * [`daemon`] — the service itself: listener, per-connection threads
//!   with idle watchdogs, per-tenant shard threads supervised by the
//!   engine panic-attribution protocol, a bounded-buffer incident hub,
//!   `Busy` load shedding, and graceful drain.
//! * [`client`] — the protocol client plus [`client::run_load`], the
//!   adversary mix (honest tenants, slow subscriber, frame corruptor,
//!   reconnect storm, shard crasher) that enforces the chaos gate.
//! * [`session`] — deterministic session record/replay: a recorded
//!   session file replays byte-identically via `hydra replay-session`.
//! * [`stats`] — the accounting ledger (every reject, shed, drop and
//!   panic is counted; nothing fails silently) plus the live metrics
//!   plane: wire-path latency histograms and per-tenant counters,
//!   served as `hydra-serve-stats-v1` snapshots and rendered by
//!   `hydra top`.
//!
//! This is the only crate in the workspace allowed to touch Unix-socket
//! I/O and, alongside `hydra-engine` and the batch harness, to spawn
//! threads (clippy's `disallowed-types` and `disallowed-methods`).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod frame;
pub mod session;
pub mod stats;
pub mod tenant;

pub use client::{run_load, tenant_batch, Client, LoadConfig, LoadReport, TenantLoadResult};
pub use daemon::{spawn, CrashReport, DaemonHandle, ServeConfig, ServeReport};
pub use frame::{
    DecodeEvent, Decoder, Frame, RejectReason, MAX_BATCH_ROWS, MAX_PAYLOAD, MAX_TENANT_LEN,
    SERVE_SCHEMA_VERSION,
};
pub use session::{geometry_by_name, replay_check, RecordedBatch, Session};
pub use stats::{
    render_stats_json, HistSummary, MetricsSink, MetricsSnapshot, NoopMetrics, ServeMetrics,
    ServeStats, StatsReading, TenantRow, SERVE_STATS_SCHEMA_VERSION,
};
pub use tenant::{BatchOutcome, TenantPipeline, TenantSummary};
