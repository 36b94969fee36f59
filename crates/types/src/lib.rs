//! Shared vocabulary for the Hydra Row-Hammer-mitigation reproduction.
//!
//! This crate defines the types every other crate in the workspace speaks:
//!
//! * [`geometry::MemGeometry`] — the shape of the memory system (channels,
//!   ranks, banks, rows) and the physical-address ↔ DRAM-address mapping.
//! * [`addr::RowAddr`] / [`addr::LineAddr`] — typed DRAM row and cache-line
//!   addresses.
//! * [`clock`] — cycle bookkeeping and ns ↔ cycle conversion.
//! * [`deadline`] — monotonic wall-clock deadlines and single-fire
//!   watchdogs, shared by the batch harness and the service daemon.
//! * [`tracker::ActivationTracker`] — the interface between a memory
//!   controller and any Row-Hammer activation tracker (Hydra, Graphene, CRA,
//!   PARA, OCPR, …). The controller reports every row activation; the tracker
//!   answers with mitigations to perform and *side requests* (extra DRAM
//!   traffic such as counter-table reads/writes) whose bandwidth cost the
//!   controller must model.
//! * [`mitigation`] — victim-refresh mitigation policy types.
//! * [`counter`] — the saturating counter storage every tracker uses
//!   ([`counter::SatCounters`], [`counter::Sat`]).
//! * [`hash`] — the fixed hasher behind every row-keyed map
//!   ([`hash::RowMap`], [`hash::RowSet`]).
//! * [`json`] — the JSON string escaper every hand-rolled writer shares,
//!   and the parser every reader shares.
//!
//! # Example
//!
//! ```
//! use hydra_types::geometry::MemGeometry;
//!
//! let geom = MemGeometry::isca22_baseline();
//! assert_eq!(geom.total_rows(), 4 * 1024 * 1024); // 32 GB / 8 KB rows
//! let row = geom.row_of_line(hydra_types::addr::LineAddr::new(0));
//! assert_eq!(row.channel, 0);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod addr;
pub mod clock;
pub mod counter;
pub mod deadline;
pub mod error;
pub mod geometry;
pub mod hash;
pub mod json;
pub mod mitigation;
pub mod tracker;

pub use addr::{LineAddr, RowAddr};
pub use clock::{Clock, MemCycle, NANOS_PER_SEC};
pub use deadline::{Deadline, Stopwatch, Watchdog};
pub use error::ConfigError;
pub use geometry::MemGeometry;
pub use mitigation::{BlastRadius, MitigationPolicy, MitigationRequest};
pub use tracker::{
    ActivationKind, ActivationTracker, NullTracker, SideRequest, SideRequestKind, TrackerResponse,
};
