//! hydra-engine: the parallel execution subsystem of the Hydra
//! reproduction.
//!
//! Hydra's headline results are *design-space* results: sensitivity sweeps
//! over GCT size, RCC size, `T_G`, and the Row-Hammer threshold (Figures
//! 9–12, Tables 4–6), each point a full (config × workload) simulation.
//! This crate makes simulation parallel without giving up the property
//! every other subsystem leans on — determinism. (The sweep grids
//! themselves run in `hydra-arena`'s experiment core, on the batch
//! harness's workers.)
//!
//! Two layers, bottom up:
//!
//! - [`pool`] — a hand-rolled worker pool (plain `std`, no registry
//!   dependencies): scoped threads over a bounded MPSC queue, results
//!   returned in submission order, panics attributed to the exact item
//!   that raised them. Its wire protocol lives in [`protocol`], shared
//!   with `hydra-analysis`'s exhaustive schedule explorer so the checked
//!   model and the shipped code cannot drift apart.
//! - [`shard`] — the sharded multi-channel simulator: one independent
//!   tracker per memory channel, per-channel substreams replayed
//!   concurrently, merged with order-insensitive reductions so the
//!   parallel run is bit-identical to the sequential reference.
//!
//! Threading discipline: `repo-lint`'s `thread-spawn-layer` rule confines
//! thread spawning to this crate and the batch harness, the same way
//! `catch_unwind` is confined to the harness alone.

#![forbid(unsafe_code)]

use std::fmt;

pub mod pool;
pub mod protocol;
pub mod shard;

pub use pool::{CellOutcome, WorkerPool};
pub use shard::{merge_shards, partition_by_channel, MergedRun, ShardResult, ShardedSim};

/// An engine-level failure: an invalid shard plan or a shard that died
/// mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    message: String,
}

impl EngineError {
    /// Creates an error with the given description.
    pub fn new(message: impl Into<String>) -> Self {
        EngineError {
            message: message.into(),
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for EngineError {}
