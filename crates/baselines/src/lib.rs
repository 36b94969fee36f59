//! Baseline Row-Hammer trackers the Hydra paper compares against.
//!
//! * [`graphene::Graphene`] — the state-of-the-art SRAM tracker (Misra-Gries
//!   top-N frequent-row detection, per bank) the paper's Fig. 5 compares to.
//! * [`cra::Cra`] — Counter-Based Row Activation: one counter per row stored
//!   in DRAM with a conventional 64-byte-line metadata cache (Fig. 2, Fig. 5).
//! * [`para::Para`] — the stateless probabilistic mitigation (Sec. 7.3).
//! * [`ocpr::Ocpr`] — One-Counter-Per-Row: the exact SRAM oracle that upper
//!   bounds tracker storage (Table 1) and serves as the ground-truth tracker
//!   in tests.
//! * [`trr::VendorTrr`] — a deliberately weak vendor-TRR sampler, for the
//!   TRRespass narrative (Sec. 7.4).
//! * [`sketch::CountMinSketch`] — the shared count-min sketch primitive
//!   (CoMeT's first counting tier; also re-exported by `hydra-forensics`
//!   for attribution).
//! * [`storage`] — the analytic per-rank storage models behind Tables 1 & 5,
//!   including TWiCE, CAT and D-CBF, which the paper compares only by
//!   storage.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
#![deny(clippy::cast_possible_truncation)]
#![warn(missing_docs)]

pub mod cra;
pub mod graphene;
pub mod misra_gries;
pub mod ocpr;
pub mod para;
pub mod region;
pub mod sketch;
pub mod storage;
pub mod trr;

pub use cra::{Cra, CraConfig};
pub use graphene::{Graphene, GrapheneConfig};
pub use misra_gries::MisraGries;
pub use ocpr::Ocpr;
pub use para::Para;
pub use region::CounterRegion;
pub use sketch::CountMinSketch;
pub use trr::VendorTrr;
