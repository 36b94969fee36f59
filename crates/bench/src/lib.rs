//! Experiment harness for the Hydra reproduction.
//!
//! The paper's `SystemSim` figures (Figs. 2, 5, 7–10, Sec. 6.8, footnote 6
//! and the Sec. 8 extension) are one [`plan`], run by the `figures` bench
//! target; the tables and the remaining figures have a bench target each in
//! `benches/`. This library provides what they share: the scaled experiment
//! configuration ([`ExperimentScale`]), tracker factories ([`TrackerKind`]),
//! the figure plan and its deduplicated cell table, the figure tables, and
//! the shape checks ([`verdict`]) that hold each figure against the paper.
//!
//! # Scaling
//!
//! Full-length runs (8 cores × 250 M instructions × 64 ms windows) are not
//! feasible for a test harness, so experiments *compress time* by a factor
//! `S` (default 256, override with `HYDRA_SCALE`): workload footprints and
//! the tracking window shrink by `S`, tracker structures by `S/16` (our
//! scaled memory system runs near DRAM saturation where the paper's
//! testbed-calibrated workloads used only a few percent of the activation
//! budget — the `S/16` divisor restores the paper's ratio of activations
//! per window to tracker capacity), and thresholds (`T_H`, `T_G`) and
//! per-row activation counts stay at paper values. This preserves the
//! ratios that drive the results, so the *shape* of each figure reproduces
//! even though absolute IPCs differ from the authors' testbed.
//! EXPERIMENTS.md records the scale used for every reported number.
//!
//! Hydra does all of its work per tracking window (spills, resets,
//! mitigation at `T_H`), so the instruction budget is derived from `S`
//! rather than set: each core runs three scaled windows at its peak retire
//! rate ([`ExperimentScale::at`]), and no run can end before three windows
//! complete. Every `SystemSim` figure prints the fewest windows any of its
//! runs completed beside its verdict ([`plan::Figure::render`]), and every
//! figure runs the paper's thresholds and structure totals.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod plan;
pub mod report;
pub mod runner;
pub mod sram_power;
pub mod verdict;

pub use report::{fmt_bytes, geomean_slowdown_pct, normalized_table, suite_slowdown_table, Table};
pub use runner::{scaled_hydra, ExperimentScale, TrackerKind, Variant, WorkloadRuns};
pub use sram_power::SramPowerModel;
