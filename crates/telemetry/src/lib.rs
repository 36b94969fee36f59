//! Telemetry for the Hydra reproduction.
//!
//! The paper's headline results are *rates over time*: Fig. 6's
//! GCT-only / RCC-hit / RCT-access breakdown, mitigations per 64 ms
//! tracking window, and the tail-latency inflation caused by tracker side
//! traffic. Cumulative end-of-run counters cannot show a spill burst, a
//! degradation episode, or the shape of an attack — this crate adds the
//! missing observability layer in three pieces:
//!
//! 1. **Events** ([`TelemetryEvent`], [`EventKind`]) — a closed taxonomy of
//!    tracker and memory-controller happenings: GCT outcomes, RCC
//!    hits/evictions, RCT reads/writes, group spills, mitigations, RIT-ACT
//!    activity, window resets, parity/degradation events, and controller
//!    queue enqueue/issue pairs.
//! 2. **Sinks** ([`EventSink`]) — where events go. The default
//!    [`NoopSink`] compiles to nothing, so instrumented hot paths cost
//!    zero when tracing is off (proven bit-identical by proptest in
//!    `hydra-core`). Real sinks: [`RingBufferSink`] (bounded, with drop
//!    accounting), [`CountingSink`] (per-kind totals), [`JsonlSink`]
//!    (machine-readable event stream).
//! 3. **Metrics** ([`MetricsRegistry`]) — a typed time-series of per-window
//!    rows with JSONL and CSV exporters, fed by `hydra-sim`'s window
//!    snapshotting.
//!
//! Dependency direction: this crate depends only on `hydra-types`, so both
//! `hydra-core` (the tracker) and `hydra-sim` (the controller) can emit
//! into it without cycles.
//!
//! # Example
//!
//! ```
//! use hydra_telemetry::{EventSink, RingBufferSink, TelemetryEvent};
//!
//! let mut sink = RingBufferSink::new(2);
//! sink.emit(10, TelemetryEvent::GctOnly { group: 3 });
//! sink.emit(20, TelemetryEvent::RccHit { slot: 99 });
//! sink.emit(30, TelemetryEvent::Mitigation {
//!     row: hydra_types::RowAddr::new(0, 0, 1, 42),
//! });
//! assert_eq!(sink.len(), 2); // bounded: oldest dropped
//! assert_eq!(sink.dropped(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded;
pub mod event;
pub mod histogram;
pub mod metrics;
pub mod sink;

pub use bounded::BoundedBuf;
pub use event::{CtrlQueue, EventKind, TelemetryEvent};
pub use histogram::LatencyHistogram;
pub use metrics::{MetricValue, MetricsRegistry, MetricsRow};
pub use sink::{
    CountingSink, EventSink, JsonlSink, KindFilterSink, NoopSink, RingBufferSink, TeeSink,
    TimedEvent, TRACE_SCHEMA_VERSION,
};
