//! Telemetry for the Hydra reproduction.
//!
//! The paper's headline results are *rates over time*: Fig. 6's
//! GCT-only / RCC-hit / RCT-access breakdown, mitigations per 64 ms
//! tracking window, and the tail-latency inflation caused by tracker side
//! traffic. Cumulative end-of-run counters cannot show a spill burst or
//! the shape of an attack — this crate adds the missing observability
//! layer in two pieces:
//!
//! 1. **Events** ([`TelemetryEvent`], [`EventKind`]) — a closed taxonomy of
//!    tracker happenings: GCT outcomes, RCC hits/evictions, RCT
//!    reads/writes, group spills, mitigations, RIT-ACT activity, window
//!    resets, and per-row counter accesses.
//! 2. **Sinks** ([`EventSink`]) — where events go. The default
//!    [`NoopSink`] compiles to nothing, so instrumented hot paths cost
//!    zero when tracing is off (proven bit-identical by proptest in
//!    `hydra-core`). Real sinks: [`RingBufferSink`] (bounded, with drop
//!    accounting), [`CountingSink`] (per-kind totals), [`JsonlSink`]
//!    (machine-readable event stream).
//!
//! The per-window time-series lives beside the simulator that snapshots
//! it, as `hydra-sim`'s `WindowSeries`.
//!
//! Dependency direction: this crate depends only on `hydra-types`, so
//! `hydra-core` (the tracker) can emit into it and `hydra-sim` can record
//! its window metrics without cycles.
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
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod bounded;
pub mod event;
pub mod histogram;
pub mod sink;

pub use bounded::BoundedBuf;
pub use event::{EventKind, TelemetryEvent};
pub use histogram::LatencyHistogram;
pub use sink::{
    CountingSink, EventSink, JsonlSink, KindFilterSink, NoopSink, RingBufferSink, TeeSink,
    TimedEvent, TRACE_SCHEMA_VERSION,
};
