//! Cycle-level DDR4 device model.
//!
//! This crate models the DRAM side of the memory system the paper simulates
//! with USIMM: per-bank state machines with JEDEC timing constraints, rank
//! level constraints (tRRD / tFAW / refresh), a shared per-channel data bus,
//! staggered auto-refresh, and an IDD-based power model.
//!
//! The memory controller (in `hydra-sim`) decides *which* command to issue;
//! this crate answers *whether* a command is legal at a given cycle and what
//! its completion time is, and it keeps the activation / energy books.
//!
//! # Example
//!
//! ```
//! use hydra_dram::{DramChannel, DramTiming};
//! use hydra_types::MemGeometry;
//!
//! let geom = MemGeometry::tiny();
//! let timing = DramTiming::ddr4_3200();
//! let mut ch = DramChannel::new(geom, timing, 0);
//! assert!(ch.can_activate(0, 0, 0));
//! ch.activate(0, 0, 42, 0);
//! assert_eq!(ch.open_row(0, 0), Some(42));
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod bank;
pub mod channel;
pub mod command;
pub mod power;
pub mod refresh;
pub mod timing;

pub use bank::{Bank, BankStats};
pub use channel::{ChannelStats, DramChannel, Rank};
pub use command::DramCommand;
pub use power::{DramEnergyModel, EnergyBreakdown, PowerCounters};
pub use refresh::RefreshState;
pub use timing::DramTiming;
