//! Deterministic wire-level fault injection for the Hydra service daemon.
//!
//! [`WireInjector`] mangles encoded protocol frames (bit flips,
//! truncation, duplication, delay) between a client and the daemon —
//! transport faults. Frames are opaque bytes here, so this crate stays
//! below `hydra-server` in the crate DAG. The same rate, seed and frame
//! sequence give a bit-identical fault sequence.
//!
//! # Example
//!
//! ```
//! use hydra_faults::WireInjector;
//!
//! // Every fault class at rate 1: the frame is flipped, truncated,
//! // duplicated and delayed.
//! let mut injector = WireInjector::new(1.0, 42);
//! let delivery = injector.deliver(&[0xab; 32]);
//! assert_eq!(delivery.frames.len(), 2);
//! assert_eq!(injector.log().total(), 4);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod wire;

pub use wire::{WireDelivery, WireFault, WireFaultLog, WireInjector};
