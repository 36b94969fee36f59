//! Event sinks: where [`TelemetryEvent`]s go.
//!
//! The [`EventSink`] trait is the zero-cost seam threaded through the
//! tracker's hot paths. The default [`NoopSink`] has an empty
//! inlined `emit`, so an uninstrumented build pays nothing — the compiler
//! eliminates the event construction too (proven semantics-identical by the
//! probe-identity proptest in `hydra-core`).

use crate::bounded::BoundedBuf;
use crate::event::{EventKind, TelemetryEvent};
use std::fmt::Write as _;

/// Schema identifier written in the self-describing header line of
/// `hydra trace` JSONL output (see [`JsonlSink::with_meta`]).
///
/// This is the single definition of the literal; the `repo_policy` test
/// of `hydra-analysis` enforces that no other library source repeats it.
pub const TRACE_SCHEMA_VERSION: &str = "hydra-trace-v1";

/// A destination for telemetry events.
///
/// Implementations must be infallible: telemetry never perturbs the
/// tracked system. Sinks that can fill up (ring buffers, capped JSONL)
/// drop and account rather than error.
pub trait EventSink {
    /// Records `event`, stamped with memory-cycle `now`.
    fn emit(&mut self, now: u64, event: TelemetryEvent);

    /// True if emitted events are actually observed.
    ///
    /// Instrumentation sites may use this to skip *expensive* payload
    /// preparation; ordinary event construction is cheap enough to emit
    /// unconditionally.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// The default sink: drops everything, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl EventSink for NoopSink {
    #[inline(always)]
    fn emit(&mut self, _now: u64, _event: TelemetryEvent) {}

    #[inline(always)]
    fn is_enabled(&self) -> bool {
        false
    }
}

/// A timestamped event as stored by recording sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Memory cycle at emission.
    pub now: u64,
    /// The event.
    pub event: TelemetryEvent,
}

/// A bounded in-memory trace: keeps the most recent `capacity` events and
/// counts what it had to drop.
///
/// Intended for flight-recorder use — attach it for a whole run, then
/// inspect the tail when something interesting happened. The bounding and
/// drop accounting live in [`BoundedBuf`], the same primitive backing the
/// service daemon's per-subscriber queues.
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    buf: BoundedBuf<TimedEvent>,
}

impl RingBufferSink {
    /// Creates a ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            buf: BoundedBuf::new(capacity),
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.buf.iter()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Total events ever emitted into this sink.
    pub fn emitted(&self) -> u64 {
        self.buf.pushed()
    }

    /// Events evicted to make room (drop accounting).
    pub fn dropped(&self) -> u64 {
        self.buf.dropped()
    }

    /// Drains and returns all retained events, oldest first.
    pub fn drain(&mut self) -> Vec<TimedEvent> {
        self.buf.drain()
    }

    /// Renders the retained events as JSONL (one event per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.buf.len() * 48);
        for te in self.buf.iter() {
            te.event.write_json(te.now, &mut out);
            out.push('\n');
        }
        out
    }
}

impl EventSink for RingBufferSink {
    fn emit(&mut self, now: u64, event: TelemetryEvent) {
        self.buf.push(TimedEvent { now, event });
    }
}

/// Counts events per [`EventKind`] without retaining payloads.
///
/// Cheap enough to attach to full-length runs; used by the probe-identity
/// tests to cross-check event counts against [`HydraStats`]-style counters.
///
/// [`HydraStats`]: https://docs.rs/hydra-core
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    counts: [u64; EventKind::COUNT],
    total: u64,
}

impl CountingSink {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events of `kind` seen so far.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total events seen.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `(kind, count)` pairs for kinds seen at least once.
    pub fn nonzero(&self) -> Vec<(EventKind, u64)> {
        EventKind::ALL
            .iter()
            .filter_map(|&k| {
                let c = self.counts[k.index()];
                (c > 0).then_some((k, c))
            })
            .collect()
    }
}

impl EventSink for CountingSink {
    fn emit(&mut self, _now: u64, event: TelemetryEvent) {
        self.counts[event.kind().index()] += 1;
        self.total += 1;
    }
}

/// Accumulates events as JSONL text, with an optional event cap.
///
/// Once `max_events` is reached further events are counted as truncated
/// rather than appended, keeping memory bounded on long runs.
#[derive(Debug, Clone)]
pub struct JsonlSink {
    out: String,
    max_events: Option<u64>,
    written: u64,
    truncated: u64,
}

impl JsonlSink {
    /// Creates an uncapped JSONL sink.
    pub fn new() -> Self {
        JsonlSink {
            out: String::new(),
            max_events: None,
            written: 0,
            truncated: 0,
        }
    }

    /// Creates a sink that stops appending after `max_events` events.
    pub fn with_limit(max_events: u64) -> Self {
        JsonlSink {
            max_events: Some(max_events),
            ..JsonlSink::new()
        }
    }

    /// Prepends a self-describing meta header line:
    /// `{"schema":"hydra-trace-v1","workload":"<name>","t_h":N}`.
    ///
    /// The workload name is JSON-escaped (quotes, backslashes, control
    /// characters; non-ASCII passes through as UTF-8), so arbitrary
    /// workload names — including attacker-chosen ones — cannot corrupt
    /// the stream. The header does not count against the event cap or
    /// [`Self::written`]. Call before any events are emitted.
    pub fn with_meta(mut self, workload: &str, t_h: u32) -> Self {
        let _ = write!(
            self.out,
            "{{\"schema\":\"{TRACE_SCHEMA_VERSION}\",\"workload\":\"",
        );
        hydra_types::json::escape_into(workload, &mut self.out);
        let _ = write!(self.out, "\",\"t_h\":{t_h}}}");
        self.out.push('\n');
        self
    }

    /// The JSONL text accumulated so far (one event per line).
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Consumes the sink, returning the JSONL text.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Events appended to the output.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Events dropped after the cap was reached.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }
}

impl Default for JsonlSink {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSink for JsonlSink {
    fn emit(&mut self, now: u64, event: TelemetryEvent) {
        if let Some(cap) = self.max_events {
            if self.written >= cap {
                self.truncated += 1;
                return;
            }
        }
        event.write_json(now, &mut self.out);
        self.out.push('\n');
        self.written += 1;
    }
}

/// Forwards only events of an allow-listed set of [`EventKind`]s to an
/// inner sink, counting what it filtered out.
///
/// Backs `hydra trace --kinds`: the filter sits *in front of* the
/// recording sink, so caps and drop accounting in the inner sink apply to
/// the filtered stream.
#[derive(Debug, Clone)]
pub struct KindFilterSink<S> {
    inner: S,
    allowed: [bool; EventKind::COUNT],
    filtered: u64,
}

impl<S> KindFilterSink<S> {
    /// Wraps `inner`, forwarding only events whose kind is in `kinds`.
    ///
    /// An empty `kinds` list filters everything.
    pub fn new(inner: S, kinds: &[EventKind]) -> Self {
        let mut allowed = [false; EventKind::COUNT];
        for k in kinds {
            allowed[k.index()] = true;
        }
        KindFilterSink {
            inner,
            allowed,
            filtered: 0,
        }
    }

    /// True if events of `kind` pass through.
    pub fn allows(&self, kind: EventKind) -> bool {
        self.allowed[kind.index()]
    }

    /// Events suppressed by the filter so far.
    pub fn filtered(&self) -> u64 {
        self.filtered
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: EventSink> EventSink for KindFilterSink<S> {
    fn emit(&mut self, now: u64, event: TelemetryEvent) {
        if self.allowed[event.kind().index()] {
            self.inner.emit(now, event);
        } else {
            self.filtered += 1;
        }
    }

    fn is_enabled(&self) -> bool {
        self.inner.is_enabled()
    }
}

/// Duplicates every event into two sinks.
///
/// Lets one run feed a recording sink and a streaming analyzer at the same
/// time — `hydra trace --forensics` tees the JSONL recorder and the
/// forensics probe off a single instrumented tracker.
#[derive(Debug, Clone, Default)]
pub struct TeeSink<A, B> {
    first: A,
    second: B,
}

impl<A, B> TeeSink<A, B> {
    /// Combines two sinks; every event goes to both.
    pub fn new(first: A, second: B) -> Self {
        TeeSink { first, second }
    }

    /// The first sink.
    pub fn first(&self) -> &A {
        &self.first
    }

    /// The second sink.
    pub fn second(&self) -> &B {
        &self.second
    }

    /// Unwraps into the two sinks.
    pub fn into_parts(self) -> (A, B) {
        (self.first, self.second)
    }
}

impl<A: EventSink, B: EventSink> EventSink for TeeSink<A, B> {
    fn emit(&mut self, now: u64, event: TelemetryEvent) {
        self.first.emit(now, event);
        self.second.emit(now, event);
    }

    fn is_enabled(&self) -> bool {
        self.first.is_enabled() || self.second.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(group: u64) -> TelemetryEvent {
        TelemetryEvent::GctOnly { group }
    }

    #[test]
    fn noop_sink_reports_disabled() {
        let mut s = NoopSink;
        s.emit(0, ev(1));
        assert!(!s.is_enabled());
    }

    #[test]
    fn ring_buffer_bounds_and_accounts_drops() {
        let mut s = RingBufferSink::new(3);
        for i in 0..5 {
            s.emit(i, ev(i));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.emitted(), 5);
        assert_eq!(s.dropped(), 2);
        let kept: Vec<u64> = s.events().map(|te| te.now).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest events evicted first");
    }

    #[test]
    fn ring_buffer_zero_capacity_clamps_to_one() {
        let mut s = RingBufferSink::new(0);
        s.emit(0, ev(0));
        s.emit(1, ev(1));
        assert_eq!(s.capacity(), 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.dropped(), 1);
    }

    #[test]
    fn ring_buffer_drain_empties() {
        let mut s = RingBufferSink::new(4);
        s.emit(7, ev(0));
        let drained = s.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].now, 7);
        assert!(s.is_empty());
    }

    #[test]
    fn counting_sink_counts_per_kind() {
        let mut s = CountingSink::new();
        s.emit(0, ev(0));
        s.emit(1, ev(1));
        s.emit(2, TelemetryEvent::WindowReset { window: 1 });
        assert_eq!(s.count(EventKind::GctOnly), 2);
        assert_eq!(s.count(EventKind::WindowReset), 1);
        assert_eq!(s.count(EventKind::Mitigation), 0);
        assert_eq!(s.total(), 3);
        assert_eq!(
            s.nonzero(),
            vec![(EventKind::GctOnly, 2), (EventKind::WindowReset, 1)]
        );
    }

    #[test]
    fn jsonl_sink_caps_and_truncates() {
        let mut s = JsonlSink::with_limit(2);
        for i in 0..4 {
            s.emit(i, ev(i));
        }
        assert_eq!(s.written(), 2);
        assert_eq!(s.truncated(), 2);
        assert_eq!(s.as_str().lines().count(), 2);
        for line in s.as_str().lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    /// Drop accounting at the exact-capacity boundary: filling to capacity
    /// drops nothing; the very next emit drops exactly one; at every point
    /// `emitted == len + dropped`.
    #[test]
    fn ring_buffer_exact_capacity_boundary_accounting() {
        const CAP: usize = 4;
        let mut s = RingBufferSink::new(CAP);
        for i in 0..CAP as u64 {
            s.emit(i, ev(i));
            assert_eq!(s.dropped(), 0, "no drops while filling");
            assert_eq!(s.emitted(), s.len() as u64 + s.dropped());
        }
        assert_eq!(s.len(), CAP, "exactly full");
        s.emit(CAP as u64, ev(99));
        assert_eq!(s.len(), CAP, "stays at capacity");
        assert_eq!(s.dropped(), 1, "one eviction past the boundary");
        assert_eq!(s.emitted(), CAP as u64 + 1);
        for i in 0..100u64 {
            s.emit(100 + i, ev(i));
            assert_eq!(s.emitted(), s.len() as u64 + s.dropped(), "invariant");
        }
        assert_eq!(s.to_jsonl().lines().count(), s.len(), "jsonl matches len");
    }

    #[test]
    fn jsonl_meta_header_escapes_hostile_and_non_ascii_names() {
        let mut s = JsonlSink::new().with_meta("große\"行列\\x\n", 250);
        s.emit(1, ev(0));
        let mut lines = s.as_str().lines();
        let header = lines.next().expect("meta header present");
        assert_eq!(
            header,
            "{\"schema\":\"hydra-trace-v1\",\"workload\":\"große\\\"行列\\\\x\\n\",\"t_h\":250}"
        );
        assert_eq!(lines.count(), 1, "one event after the header");
        assert_eq!(s.written(), 1, "header does not count as an event");
    }

    #[test]
    fn jsonl_meta_header_does_not_consume_the_cap() {
        let mut s = JsonlSink::with_limit(1).with_meta("plain", 16);
        s.emit(0, ev(0));
        s.emit(1, ev(1));
        assert_eq!(s.written(), 1);
        assert_eq!(s.truncated(), 1);
        assert_eq!(s.as_str().lines().count(), 2, "header + one event");
    }

    #[test]
    fn kind_filter_forwards_only_allowed_kinds() {
        let inner = CountingSink::new();
        let mut s = KindFilterSink::new(inner, &[EventKind::WindowReset, EventKind::Mitigation]);
        s.emit(0, ev(0));
        s.emit(1, TelemetryEvent::WindowReset { window: 1 });
        s.emit(2, TelemetryEvent::RccHit { slot: 3 });
        assert!(s.allows(EventKind::WindowReset));
        assert!(!s.allows(EventKind::GctOnly));
        assert_eq!(s.filtered(), 2);
        assert_eq!(s.inner().total(), 1);
        assert_eq!(s.inner().count(EventKind::WindowReset), 1);
    }

    #[test]
    fn kind_filter_with_empty_list_blocks_everything() {
        let mut s = KindFilterSink::new(CountingSink::new(), &[]);
        s.emit(0, ev(0));
        assert_eq!(s.filtered(), 1);
        assert_eq!(s.into_inner().total(), 0);
    }

    #[test]
    fn tee_sink_duplicates_into_both() {
        let mut s = TeeSink::new(CountingSink::new(), RingBufferSink::new(8));
        s.emit(0, ev(0));
        s.emit(1, TelemetryEvent::WindowReset { window: 1 });
        assert_eq!(s.first().total(), 2);
        assert_eq!(s.second().len(), 2);
        let (a, b) = s.into_parts();
        assert_eq!(a.total(), b.emitted());
    }
}
