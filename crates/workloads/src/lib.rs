//! Synthetic workload and attack-pattern generators.
//!
//! The paper evaluates 36 workloads (SPEC2017, PARSEC, GAP, GUPS) traced
//! with pintools. Those traces are proprietary/unavailable, so this crate
//! substitutes *statistical trace generators*, one per named workload,
//! calibrated to the characteristics the paper itself reports in Table 3:
//! LLC misses per kilo-instruction (MPKI), the unique-row footprint, the
//! number of rows receiving 250+ activations per 64 ms window, and the mean
//! activations per touched row. Those four marginals are exactly what drives
//! tracker behaviour (GCT filter rate, RCC pressure, RCT traffic), so
//! matching them preserves the experiments' shape (see DESIGN.md).
//!
//! * [`spec::WorkloadSpec`] + [`registry`] — the 36 named workloads.
//! * [`synth::SyntheticTrace`] — the generator engine (hot-set + Zipf cold
//!   set + row-buffer bursts).
//! * [`attacks`] — Row-Hammer attack patterns: single/double/many-sided,
//!   Half-Double, tracker-thrash (TRRespass-style), and the GCT/RCC
//!   bandwidth attacks of Sec. 5.3.
//! * [`trace::TraceOp`] — the trace event the core model consumes.
//! * [`tracefile`] — record/replay traces as plain-text files.
//!
//! # Example
//!
//! ```
//! use hydra_workloads::{registry, TraceSource};
//! use hydra_types::MemGeometry;
//!
//! let geom = MemGeometry::isca22_baseline();
//! let spec = registry::by_name("gups").expect("gups is registered");
//! let mut trace = spec.build(geom, /* scale */ 64, /* seed */ 1);
//! let op = trace.next_op();
//! assert!(op.gap > 0 || op.gap == 0); // an endless stream of memory ops
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod attacks;
pub mod mix;
pub mod registry;
pub mod spec;
pub mod synth;
pub mod trace;
pub mod tracefile;
pub mod zipf;

pub use attacks::{AttackPattern, AttackTrace, CANONICAL_NAMES};
pub use mix::{MixSlot, MixTrace, WorkloadMix};
pub use spec::{Suite, WorkloadSpec};
pub use synth::SyntheticTrace;
pub use trace::{TraceOp, TraceSource};
pub use tracefile::{TraceFile, TraceWriter};
pub use zipf::Zipf;
