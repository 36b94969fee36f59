//! Deterministic fault injection for the Hydra Row-Hammer tracker.
//!
//! Hydra's per-row counters live in DRAM — the same fault-prone medium it
//! defends — yet the core reproduction (like the paper) assumes every
//! counter transfer and every issued mitigation is perfect. This crate
//! drops that assumption *without forking any core logic*: faults are
//! injected through wrapper types at three well-defined seams.
//!
//! * [`FaultyRct`] implements [`hydra_core::rct::RctBackend`] around the
//!   real [`hydra_core::RowCountTable`], flipping random bits of counter
//!   values on read and write — DRAM data corruption.
//! * [`FaultyTracker`] implements
//!   [`hydra_types::tracker::ActivationTracker`] around any tracker,
//!   dropping or delaying mitigations and postponing window resets —
//!   controller-path and clock faults. Its [`FaultyTracker::hydra`]
//!   constructor additionally injects *structural* SRAM faults (GCT
//!   stuck-at counters, RCC fill corruption) through Hydra's mutable seams.
//! * [`WireInjector`] mangles encoded protocol frames (bit flips,
//!   truncation, duplication, delay) between a client and the service
//!   daemon — transport faults. Frames are opaque bytes here, so this
//!   crate stays below `hydra-server` in the crate DAG.
//! * [`FaultPlan`] is the declarative, seedable description of all of the
//!   above: same plan + same stream ⇒ bit-identical fault sequence, which
//!   is what makes failing runs replayable.
//!
//! Under [`FaultPlan::none`] every wrapper is proven bit-identical to what
//! it wraps (property tests in `tests/zero_fault_identity.rs`), so the
//! fault machinery can stay permanently in the composition path of audits
//! without distorting healthy runs.
//!
//! # Example
//!
//! ```
//! use hydra_faults::{faulty_hydra, FaultPlan};
//! use hydra_core::HydraConfig;
//! use hydra_types::{ActivationKind, ActivationTracker, MemGeometry, RowAddr};
//!
//! let config = HydraConfig::builder(MemGeometry::tiny(), 0)
//!     .thresholds(16, 12)
//!     .gct_entries(64)
//!     .rcc_entries(32)
//!     .build()?;
//! // Drop every second mitigation on average, deterministically.
//! let plan = FaultPlan::none().with_seed(42).with_drop_mitigation(0.5);
//! let mut tracker = faulty_hydra(config, &plan)?;
//! let row = RowAddr::new(0, 0, 0, 7);
//! for t in 0..64 {
//!     let _ = tracker.on_activation(row, t, ActivationKind::Demand);
//! }
//! // 64 acts at T_H = 16 mean 4 threshold crossings; some were dropped.
//! assert!(tracker.log().dropped_mitigations > 0);
//! # Ok::<(), hydra_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod plan;
pub mod rct;
pub mod tracker;
pub mod wire;

pub use plan::FaultPlan;
pub use rct::FaultyRct;
pub use tracker::{FaultLog, FaultyTracker};
pub use wire::{WireDelivery, WireFault, WireFaultLog, WireInjector};

use hydra_core::tracker::Hydra;
use hydra_core::{HydraConfig, RowCountTable};
use hydra_types::error::ConfigError;

/// Builds the fully fault-injectable composition: Hydra over a [`FaultyRct`]
/// backend, wrapped in a [`FaultyTracker`] carrying the plan's
/// response-level and structural faults.
///
/// # Errors
///
/// Propagates [`ConfigError`] from [`Hydra::with_rct`].
pub fn faulty_hydra(
    config: HydraConfig,
    plan: &FaultPlan,
) -> Result<FaultyTracker<Hydra<FaultyRct>>, ConfigError> {
    let rct = FaultyRct::new(RowCountTable::new(config.geometry, config.channel), plan);
    let hydra = Hydra::with_rct(config, rct)?;
    Ok(FaultyTracker::hydra(hydra, plan.clone()))
}
