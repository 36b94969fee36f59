//! Differential hot-path profiling: what each structure costs, measured by
//! removing it.
//!
//! The paper's Fig. 8 prices Hydra's structures by ablation — Hydra
//! without the RCC, Hydra without the GCT. This crate prices *host time*
//! the same way. The caller hands [`measure`] a set of named [`Variant`]s,
//! each a closure that replays the same deterministic work with one
//! structure swapped out; [`measure`] times whole replays and reports
//! each variant's nanoseconds per unit of work as [`Quartiles`]. A
//! structure's cost is then a [`Delta`] between two variants' medians.
//!
//! Nothing is instrumented: the hot path carries no clock reads and no
//! span hooks, so the numbers are the cost of the code that ships, and
//! the only seam the measurement needs is the one the design already has
//! (a config flag or a different tracker).
//!
//! # Method
//!
//! One untimed warm-up round runs every variant once, so first-touch page
//! faults and lazy allocations bill no one. Then every timed round runs
//! every variant once, and the variant that goes first rotates from round
//! to round, so no variant systematically owns a warm or a cold cache.
//! Each variant's outcome must equal its warm-up outcome in every round;
//! a replay that is not deterministic cannot be differenced.
//!
//! # Resolution
//!
//! A delta is [`resolved`](Delta::resolved) only when its absolute size
//! exceeds the larger of the two variants' interquartile ranges (the
//! delta's `band`). A smaller difference is reported as below resolution:
//! run-to-run noise could produce it, so it is not evidence of a cost.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

mod differential;

pub use differential::{
    measure, Delta, DiffProfile, Quartiles, Variant, VariantTiming, PROFILE_SCHEMA_VERSION,
};
