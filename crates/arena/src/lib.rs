//! Cross-tracker arena: every Row-Hammer tracker in the workspace behind
//! the one [`hydra_types::ActivationTracker`] contract, raced on a
//! schema-versioned Pareto leaderboard.
//!
//! The Hydra paper (ISCA 2022) argues its hybrid SRAM/DRAM design by
//! comparing against a *generation* of trackers — per-bank frequent-item
//! tables (Graphene), per-row DRAM counters (CRA), probabilistic samplers
//! (PARA), and vendor TRR. Since then the design space has kept moving:
//! CoMeT (HPCA 2024) replaces Hydra's per-row initialization traffic with
//! count-min sketches, ABACuS (USENIX Security 2024) collapses per-bank
//! counters into shared all-bank entries, MINT (MICRO 2024) shows how far
//! pure interval sampling goes inside the DRAM die, and START (HPCA 2024)
//! allocates counter storage lazily at cache-line granularity. This crate
//! puts all of them on one footing. Hydra and the baselines implement
//! [`hydra_types::ActivationTracker`] in their own crates; the four
//! successors implement it here. The simulator
//! ([`hydra_sim::ActivationSim`]) and the sanitizer
//! ([`hydra_sim::oracle::ShadowOracle`]) therefore run every contender
//! unchanged.
//!
//! * [`tracker`] — the [`BoxedTracker`] object type, plus two names kept
//!   for the repository benchmark ([`ArenaAdapter`], [`HydraTracker`]).
//! * [`comet`], [`abacus`], [`mint`], [`start`] — the four successor
//!   trackers as first-class citizens, each with its documented safety
//!   argument.
//! * [`roster`] — named constructors building every contender for a given
//!   (geometry, channel, `T_RH`, seed, window budget).
//! * [`leaderboard`] — the `hydra sweep --arena` engine: every tracker ×
//!   threshold × workload cell runs under the shadow oracle and lands in a
//!   JSONL leaderboard (schema [`leaderboard::ARENA_SCHEMA_VERSION`]) with
//!   a four-axis Pareto frontier (SRAM bits, slowdown, mitigations,
//!   counting spillover) — the cross-tracker generalization of the paper's
//!   Figure 5.
//! * [`sweep`] — the `hydra sweep` engine: Hydra's own design space (GCT,
//!   RCC, `T_G`, `T_RH` × workloads, Figures 9–12) as `hydra-sweep-v1`
//!   JSONL ([`sweep::SWEEP_SCHEMA_VERSION`]) with a Pareto frontier over
//!   (SRAM bytes, slowdown, mitigations) and the GCT-size trend gate.
//!   Both `sweep` and `leaderboard` are thin front ends over one
//!   crate-private experiment core: validation, the channel-0 activation
//!   stream, the parallel batch run, the JSONL framing with its
//!   `--deterministic` projection, and the Pareto function.
//! * [`fixtures`] — sabotage wrappers (dropped mitigations, wrong-row
//!   mitigations, undercounting) that the oracle test matrix must flag,
//!   guarding the guards.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abacus;
pub mod comet;
mod experiment;
pub mod fixtures;
pub mod leaderboard;
pub mod mint;
pub mod roster;
pub mod start;
pub mod sweep;
pub mod tracker;

pub use abacus::{Abacus, AbacusConfig};
pub use comet::{Comet, CometConfig};
pub use leaderboard::{
    paper_sram_bits, run_arena, ArenaGrid, ArenaOutcome, ArenaRow, Fig5Check, ARENA_SCHEMA_VERSION,
};
pub use mint::{Mint, MintConfig};
pub use roster::{build_tracker, hydra_config_for_threshold, roster_names};
pub use start::{Start, StartConfig};
pub use sweep::{
    run_sweep, SweepCell, SweepGrid, SweepOutcome, SweepRow, TrendCheck, SWEEP_SCHEMA_VERSION,
};
pub use tracker::{ArenaAdapter, BoxedTracker, HydraTracker};
