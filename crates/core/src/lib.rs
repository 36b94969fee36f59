//! Hydra: a hybrid SRAM + DRAM Row-Hammer activation tracker (ISCA 2022).
//!
//! Hydra tracks DRAM row activations with three lines of defense:
//!
//! 1. **GCT** ([`gct::GroupCountTable`]) — an untagged SRAM table of
//!    saturating counters, one per *row-group* (128 rows by default). It
//!    filters the vast majority of activations: as long as a group has seen
//!    fewer than `T_G` activations in the current 64 ms window, nothing else
//!    is touched.
//! 2. **RCC** ([`rcc::RowCountCache`]) — a small set-associative SRAM cache
//!    (SRRIP replacement) of individual per-row counters, consulted once a
//!    group's GCT entry has saturated at `T_G`.
//! 3. **RCT** ([`rct::RowCountTable`]) — the full per-row counter table,
//!    stored in a reserved region of DRAM (1 byte per row). RCC misses fetch
//!    from it; dirty RCC evictions write back to it. When a GCT entry first
//!    reaches `T_G`, the RCT entries of every row in that group are
//!    initialized to `T_G` (two line reads + two line writes).
//!
//! When any per-row count reaches `T_H = T_RH / 2`, Hydra requests a
//! mitigation (victim refresh) and resets the count. A dedicated
//! [`rit::RitActTable`] of SRAM counters protects the DRAM rows that store
//! the RCT itself (Sec. 5.2.2), and mitigation-refresh activations are
//! counted into victim rows (the Half-Double defense, Sec. 5.2.1).
//!
//! # Example
//!
//! ```
//! use hydra_core::{Hydra, HydraConfig};
//! use hydra_types::{ActivationKind, ActivationTracker, MemGeometry, RowAddr};
//!
//! let geom = MemGeometry::tiny();
//! let config = HydraConfig::builder(geom, 0)
//!     .thresholds(16, 12)
//!     .gct_entries(64)
//!     .rcc_entries(32)
//!     .build()?;
//! let mut hydra = Hydra::new(config)?;
//!
//! let row = RowAddr::new(0, 0, 0, 7);
//! let mut mitigations = 0;
//! for t in 0..40 {
//!     let resp = hydra.on_activation(row, t, ActivationKind::Demand);
//!     mitigations += resp.mitigations.len();
//! }
//! // 40 activations with T_H = 16: mitigated at the 16th and 32nd.
//! assert_eq!(mitigations, 2);
//! # Ok::<(), hydra_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
#![deny(clippy::cast_possible_truncation)]
#![warn(missing_docs)]

pub mod config;
pub mod gct;
pub mod indexing;
pub mod rcc;
pub mod rct;
pub mod rit;
pub mod stats;
pub mod storage;
pub mod tracker;

pub use config::{HydraConfig, HydraConfigBuilder};
pub use gct::{GctOutcome, GroupCountTable};
pub use indexing::GroupIndexer;
pub use rcc::{RccEntry, RowCountCache};
pub use rct::RowCountTable;
pub use rit::RitActTable;
pub use stats::HydraStats;
pub use storage::HydraStorage;
pub use tracker::Hydra;
