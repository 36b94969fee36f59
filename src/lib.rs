//! Facade crate for the Hydra reproduction workspace.
//!
//! Re-exports the workspace crates under one roof so examples and integration
//! tests can `use hydra_repro::...`. See the individual crates for details:
//!
//! * [`types`] — shared addressing/geometry/tracker vocabulary
//! * [`analysis`] — static config auditor, shadow-oracle sanitizer, repo lint
//! * [`arena`] — cross-tracker arena: CoMeT/ABACuS/MINT/START, Hydra and
//!   the existing baselines behind the one `ActivationTracker` contract,
//!   raced on a Pareto leaderboard (`hydra sweep --arena`); the same
//!   experiment core runs Hydra's design-space sweeps (`hydra sweep`)
//! * [`core`] — the Hydra hybrid tracker (the paper's contribution)
//! * [`baselines`] — Graphene, CRA, PARA, OCPR, D-CBF, storage models
//! * [`dram`] — DDR4 device timing, refresh and power models
//! * [`engine`] — worker pool, sharded multi-channel simulation
//! * [`faults`] — deterministic fault injection around the tracker
//! * [`forensics`] — attack attribution, window classification, incident reports
//! * [`profiler`] — zero-cost span seam, per-phase call-tree time attribution
//! * [`server`] — Hydra-as-a-service: multi-tenant activation daemon over
//!   Unix sockets, adversarial load client, session record/replay
//! * [`sim`] — memory controller, LLC, core model, system simulator, batch harness
//! * [`telemetry`] — event tracing seam, metric time-series, JSONL/CSV export
//! * [`workloads`] — synthetic workload and attack-pattern generators

#![forbid(unsafe_code)]

pub use hydra_analysis as analysis;
pub use hydra_arena as arena;
pub use hydra_baselines as baselines;
pub use hydra_core as core;
pub use hydra_dram as dram;
pub use hydra_engine as engine;
pub use hydra_faults as faults;
pub use hydra_forensics as forensics;
pub use hydra_profiler as profiler;
pub use hydra_server as server;
pub use hydra_sim as sim;
pub use hydra_telemetry as telemetry;
pub use hydra_types as types;
pub use hydra_workloads as workloads;
