//! The memory-system simulator (our USIMM substitute).
//!
//! Ties together the DDR4 device model from `hydra-dram`, an
//! [`ActivationTracker`](hydra_types::ActivationTracker) per channel, a
//! FR-FCFS memory controller with read-priority and write-drain scheduling,
//! a shared LLC model, and ROB-occupancy core models, into a full-system
//! simulation ([`system::SystemSim`]) that reports per-core IPC — the metric
//! behind every performance figure in the paper.
//!
//! A lighter [`fastsim::ActivationSim`] replays raw activation streams
//! against a tracker with a bandwidth cost model; the security experiments
//! and quick parameter sweeps use it.
//!
//! The [`metrics`] module turns a run into a per-window time-series of
//! `HydraStats` deltas (with optional latency percentiles) that exports to
//! JSONL/CSV via `hydra-telemetry`.
//!
//! The [`batch`] module wraps either simulator in a resilient batch
//! harness: per-run panic isolation, a wall-clock watchdog, bounded retry
//! with exponential backoff, and replay-artifact emission on terminal
//! failure.
//!
//! The [`oracle`] module is the **shadow-oracle sanitizer**
//! ([`oracle::ShadowOracle`]): a ground-truth referee that wraps any
//! tracker and records a violation whenever a row crosses the Row-Hammer
//! threshold unmitigated or a never-activated row is mitigated. It lives
//! here — at the simulator layer — so both the `hydra-analysis` security
//! referee (which re-exports it) and the `hydra-arena` cross-tracker
//! leaderboard sanitize against the same implementation.
//!
//! # Example
//!
//! ```
//! use hydra_sim::{SystemConfig, SystemSim};
//! use hydra_workloads::registry;
//!
//! let mut config = SystemConfig::tiny_test();
//! config.instructions_per_core = 20_000;
//! let spec = registry::by_name("gups").unwrap();
//! let mut sim = SystemSim::new(config.clone(), |ch| spec.build(config.geometry, 2048, ch as u64));
//! let result = sim.run();
//! assert!(result.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod config;
pub mod controller;
pub mod core;
pub mod fastsim;
pub mod llc;
pub mod metrics;
pub mod oracle;
pub mod rowswap;
pub mod stats;
pub mod system;

pub use batch::{BatchConfig, BatchJob, BatchReport, BatchRunner, JobReport, JobStatus};
pub use cache::CoreCaches;
pub use config::SystemConfig;
pub use controller::{CompletedRead, MemController, RequestKind};
pub use core::CoreModel;
pub use fastsim::{ActivationSim, ActivationSimReport};
pub use llc::SharedLlc;
pub use metrics::{
    run_windowed, run_windowed_profiled, LatencySummary, StatsSource, WindowRecord, WindowSeries,
};
pub use oracle::{OracleReport, ShadowOracle, Violation, ViolationKind};
pub use rowswap::RowIndirection;
pub use stats::{geometric_mean, SimResult};
pub use system::SystemSim;
