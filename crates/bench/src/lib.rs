//! Experiment harness for the Hydra reproduction.
//!
//! One bench target per table/figure of the paper lives in `benches/`; this
//! library provides what they share: the scaled experiment configuration
//! ([`ExperimentScale`]), tracker factories ([`TrackerKind`]), the workload
//! × variant runner ([`run_figure`]), the figure tables, and the shape
//! checks ([`verdict`]) that hold each figure against the paper.
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
//! runs completed ([`windows_line`]) beside its verdict, and every figure
//! runs the paper's thresholds and structure totals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod runner;
pub mod sram_power;
pub mod verdict;

pub use report::{
    fmt_bytes, fmt_kb, geomean_slowdown_pct, normalized_table, suite_slowdown_table, windows_line,
    Table,
};
pub use runner::{
    run_all, run_figure, scaled_hydra, ExperimentScale, TrackerKind, Variant, WorkloadRuns,
};
pub use sram_power::SramPowerModel;
