//! Security-invariant analysis for the Hydra reproduction.
//!
//! The functional simulator answers "what does this configuration *do*";
//! this crate answers "what can an adversary *get away with*" — without
//! running a single activation. It has four layers:
//!
//! 1. [`audit`] — a **static config auditor** that derives worst-case
//!    analytical bounds for any [`hydra_core::HydraConfig`]: the per-row
//!    undercount through the GCT-initialization path, the effect of RCC
//!    eviction write-back ordering, RIT-ACT coverage of the DRAM rows that
//!    store the RCT itself, and the headroom of the RCT's one-byte counters.
//!    The result is a machine-readable [`audit::SecurityVerdict`]
//!    (secure, or insecure with a witness bound) plus a human-readable
//!    report. The `hydra-audit` binary exposes it on the command line.
//!
//! 2. **Shadow-oracle sanitizer** checks: [`hydra_sim::oracle::ShadowOracle`]
//!    wraps any [`hydra_types::ActivationTracker`] (think thread-sanitizer,
//!    but for Row-Hammer trackers), maintains ground-truth per-row
//!    activation counts, and records a structured
//!    [`hydra_sim::oracle::Violation`] whenever the wrapped tracker lets a
//!    row cross the Row-Hammer threshold unmitigated or mitigates a row
//!    that was never activated. It lives in the simulator layer so the
//!    `hydra-arena` leaderboard can sanitize every tracker it races; this
//!    crate supplies the leaky [`fixtures`] that prove it has no false
//!    negatives.
//!
//! 3. **Repository policy**, enforced by the compiler: every library crate
//!    root (this one included) forbids `unsafe` and denies the clippy
//!    lints behind the workspace rules (`unwrap`/`expect`, printing, the
//!    `clippy.toml` `disallowed-*` lists); the crate-layering
//!    DAG and the schema/metric literal checks that clippy cannot express
//!    live in this crate's `tests/repo_policy.rs`. The rule → replacement
//!    table is DESIGN.md §13.
//!
//! 4. [`explore`] — an **exhaustive schedule explorer** (a miniature
//!    model checker): a faithful state-machine model of
//!    `hydra_engine::pool`'s worker/submission protocol, DFS-enumerated
//!    over *all* interleavings up to a step bound, asserting exactly-once
//!    result delivery, submission-order re-slotting, panic attribution and
//!    dead-pool liveness — and proving its own teeth by detecting the
//!    cfg-gated protocol mutations `hydra-engine` seeds behind its
//!    `verify-mutations` feature.
//!
//! # Example
//!
//! ```
//! use hydra_analysis::audit::audit_hydra;
//! use hydra_core::HydraConfig;
//! use hydra_types::MemGeometry;
//!
//! let config = HydraConfig::isca22_default(MemGeometry::isca22_baseline(), 0)?;
//! let report = audit_hydra(&config, 500);
//! assert!(report.is_secure());
//! // The paper's bound: at most 2·(T_H − 1) = 498 < 500 unmitigated ACTs.
//! assert_eq!(report.worst_case_unmitigated(), Some(498));
//! # Ok::<(), hydra_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod audit;
pub mod explore;
pub mod fixtures;

pub use audit::{audit_hydra, AuditCheck, AuditReport, SecurityVerdict};
