//! Monotonic deadlines and single-fire watchdogs.
//!
//! Several layers guard long-running work with a wall-clock budget: the
//! batch harness (`hydra_sim::batch`) bounds each job, and the
//! service daemon (`hydra_server`) bounds idle connections. Both used to
//! be easy places to re-derive "has the budget elapsed?" inline, with
//! subtly different boundary semantics. This module is the single shared
//! answer:
//!
//! * [`Deadline`] — an [`Instant`]-anchored budget with saturating
//!   arithmetic. The boundary is **inclusive**: a deadline whose budget
//!   has *exactly* elapsed is expired. Clocks that step backwards (never
//!   the case for `Instant`, but cheap to be robust against) saturate to
//!   "no time elapsed" rather than panicking.
//! * [`Watchdog`] — a latching wrapper: [`Watchdog::poll_at`] returns
//!   `true` exactly once per arming, no matter how often it is polled
//!   after expiry, and [`Watchdog::feed_at`] re-arms it from a new
//!   anchor (the idle-timeout pattern: feed on every byte of progress).
//!
//! Every query has an `_at(now)` variant taking an explicit [`Instant`]
//! so boundary behaviour is testable without sleeping.

#![expect(
    clippy::disallowed_methods,
    reason = "the timing layer: every other library reads the clock through this module"
)]

use std::time::{Duration, Instant};

/// A monotonic wall-clock budget anchored at a start instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    start: Instant,
    timeout: Duration,
}

impl Deadline {
    /// A deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        Deadline::starting_at(Instant::now(), timeout)
    }

    /// A deadline `timeout` after an explicit anchor (testable variant).
    pub fn starting_at(start: Instant, timeout: Duration) -> Self {
        Deadline { start, timeout }
    }

    /// The full budget this deadline was armed with.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// The anchor instant.
    pub fn start(&self) -> Instant {
        self.start
    }

    /// Budget left at `now`, saturating at zero.
    pub fn remaining_at(&self, now: Instant) -> Duration {
        self.timeout
            .saturating_sub(now.saturating_duration_since(self.start))
    }

    /// Budget left now, saturating at zero.
    pub fn remaining(&self) -> Duration {
        self.remaining_at(Instant::now())
    }

    /// True iff the budget has elapsed at `now`. The boundary is
    /// inclusive: elapsed time *equal* to the budget is expired.
    pub fn expired_at(&self, now: Instant) -> bool {
        now.saturating_duration_since(self.start) >= self.timeout
    }

    /// True iff the budget has elapsed now.
    pub fn expired(&self) -> bool {
        self.expired_at(Instant::now())
    }
}

/// A monotonic elapsed-time sampler for latency metrics.
///
/// The service daemon's metrics plane stamps hot-path intervals
/// (batch-ingest→Ack, shard-queue wait, incident publish lag) with this
/// rather than re-deriving `Instant` arithmetic inline: like
/// [`Deadline`], it saturates against clocks that step backwards, and it
/// quantizes to whole microseconds so histograms bucket identically
/// across platforms with different `Instant` resolutions.
///
/// Every query has an `_at(now)` variant taking an explicit [`Instant`]
/// so interval behaviour is testable without sleeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// A stopwatch anchored now.
    pub fn start() -> Self {
        Stopwatch::starting_at(Instant::now())
    }

    /// A stopwatch anchored at an explicit instant (testable variant).
    pub fn starting_at(start: Instant) -> Self {
        Stopwatch { start }
    }

    /// The anchor instant.
    pub fn anchor(&self) -> Instant {
        self.start
    }

    /// Whole microseconds elapsed at `now`, saturating at zero for
    /// backwards steps and at `u64::MAX` for absurd spans.
    pub fn elapsed_micros_at(&self, now: Instant) -> u64 {
        let micros = now.saturating_duration_since(self.start).as_micros();
        micros.min(u64::MAX as u128) as u64
    }

    /// Whole microseconds elapsed now.
    pub fn elapsed_micros(&self) -> u64 {
        self.elapsed_micros_at(Instant::now())
    }

    /// Whole nanoseconds elapsed at `now`, saturating at zero for
    /// backwards steps and at `u64::MAX` for absurd spans (584 years).
    ///
    /// Differential profiling (`hydra_profiler`) needs this resolution:
    /// a short replay divided by its activation count lands in tens of
    /// nanoseconds per activation, which the microsecond quantization of
    /// [`elapsed_micros_at`](Self::elapsed_micros_at) would blur.
    pub fn elapsed_nanos_at(&self, now: Instant) -> u64 {
        let nanos = now.saturating_duration_since(self.start).as_nanos();
        nanos.min(u64::MAX as u128) as u64
    }

    /// Whole nanoseconds elapsed now.
    pub fn elapsed_nanos(&self) -> u64 {
        self.elapsed_nanos_at(Instant::now())
    }
}

/// A latching idle watchdog over a [`Deadline`]: fires exactly once per
/// arming, and re-arms on [`feed`](Watchdog::feed).
#[derive(Debug, Clone, Copy)]
pub struct Watchdog {
    deadline: Deadline,
    fired: bool,
}

impl Watchdog {
    /// A watchdog armed now with the given budget.
    pub fn new(timeout: Duration) -> Self {
        Watchdog::starting_at(Instant::now(), timeout)
    }

    /// A watchdog armed at an explicit anchor (testable variant).
    pub fn starting_at(start: Instant, timeout: Duration) -> Self {
        Watchdog {
            deadline: Deadline::starting_at(start, timeout),
            fired: false,
        }
    }

    /// The underlying deadline of the current arming.
    pub fn deadline(&self) -> Deadline {
        self.deadline
    }

    /// Re-arms the watchdog from `now` (progress was observed).
    pub fn feed_at(&mut self, now: Instant) {
        self.deadline = Deadline::starting_at(now, self.deadline.timeout());
        self.fired = false;
    }

    /// Re-arms the watchdog from the current instant.
    pub fn feed(&mut self) {
        self.feed_at(Instant::now());
    }

    /// True exactly once per arming, the first time it is polled at or
    /// after the (inclusive) boundary. Later polls return `false` until
    /// the watchdog is fed again.
    pub fn poll_at(&mut self, now: Instant) -> bool {
        if self.fired || !self.deadline.expired_at(now) {
            return false;
        }
        self.fired = true;
        true
    }

    /// [`poll_at`](Watchdog::poll_at) against the current instant.
    pub fn poll(&mut self) -> bool {
        self.poll_at(Instant::now())
    }

    /// True iff this arming has already fired.
    pub fn has_fired(&self) -> bool {
        self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_counts_down_and_saturates() {
        let t0 = Instant::now();
        let d = Deadline::starting_at(t0, Duration::from_millis(100));
        assert_eq!(d.remaining_at(t0), Duration::from_millis(100));
        assert_eq!(
            d.remaining_at(t0 + Duration::from_millis(40)),
            Duration::from_millis(60)
        );
        assert_eq!(
            d.remaining_at(t0 + Duration::from_millis(100)),
            Duration::ZERO
        );
        assert_eq!(d.remaining_at(t0 + Duration::from_secs(9)), Duration::ZERO);
    }

    #[test]
    fn boundary_is_inclusive() {
        // Regression: a deadline *exactly* at the boundary is expired —
        // an `elapsed > timeout` comparison would let a poll landing on
        // the precise boundary through and stall the caller for another
        // full tick.
        let t0 = Instant::now();
        let d = Deadline::starting_at(t0, Duration::from_secs(5));
        assert!(!d.expired_at(t0 + Duration::from_millis(4_999)));
        assert!(d.expired_at(t0 + Duration::from_secs(5)));
        assert!(d.expired_at(t0 + Duration::from_secs(6)));
    }

    #[test]
    fn zero_timeout_is_immediately_expired() {
        let t0 = Instant::now();
        let d = Deadline::starting_at(t0, Duration::ZERO);
        assert!(d.expired_at(t0));
        assert_eq!(d.remaining_at(t0), Duration::ZERO);
    }

    #[test]
    fn watchdog_fires_exactly_once_at_the_boundary() {
        // Regression for the satellite fix: polling exactly at the
        // boundary fires once, and only once.
        let t0 = Instant::now();
        let boundary = t0 + Duration::from_secs(5);
        let mut w = Watchdog::starting_at(t0, Duration::from_secs(5));
        assert!(!w.poll_at(t0 + Duration::from_secs(4)));
        assert!(w.poll_at(boundary), "first poll at the boundary fires");
        assert!(!w.poll_at(boundary), "same-instant re-poll is latched");
        assert!(!w.poll_at(boundary + Duration::from_secs(1)));
        assert!(w.has_fired());
    }

    #[test]
    fn feeding_rearms_the_watchdog() {
        let t0 = Instant::now();
        let mut w = Watchdog::starting_at(t0, Duration::from_secs(5));
        assert!(w.poll_at(t0 + Duration::from_secs(5)));
        w.feed_at(t0 + Duration::from_secs(6));
        assert!(!w.has_fired());
        assert!(!w.poll_at(t0 + Duration::from_secs(10)));
        assert!(w.poll_at(t0 + Duration::from_secs(11)), "new boundary");
        assert!(!w.poll_at(t0 + Duration::from_secs(12)), "latched again");
    }

    #[test]
    fn stopwatch_measures_whole_micros_and_saturates_backwards() {
        let t0 = Instant::now();
        let sw = Stopwatch::starting_at(t0 + Duration::from_secs(1));
        // Clock "before" the anchor saturates to zero, never panics.
        assert_eq!(sw.elapsed_micros_at(t0), 0);
        let sw = Stopwatch::starting_at(t0);
        assert_eq!(sw.elapsed_micros_at(t0), 0);
        assert_eq!(sw.elapsed_micros_at(t0 + Duration::from_micros(7)), 7);
        assert_eq!(
            sw.elapsed_micros_at(t0 + Duration::from_micros(1_234_567)),
            1_234_567
        );
        // Sub-microsecond remainders truncate (quantized sampling).
        assert_eq!(sw.elapsed_micros_at(t0 + Duration::from_nanos(2_900)), 2);
    }

    #[test]
    fn stopwatch_nanos_keep_sub_micro_resolution() {
        let t0 = Instant::now();
        let sw = Stopwatch::starting_at(t0 + Duration::from_secs(1));
        // Backwards clock saturates to zero, never panics.
        assert_eq!(sw.elapsed_nanos_at(t0), 0);
        let sw = Stopwatch::starting_at(t0);
        assert_eq!(sw.elapsed_nanos_at(t0), 0);
        // The sub-microsecond remainder the micro query truncates survives.
        assert_eq!(sw.elapsed_nanos_at(t0 + Duration::from_nanos(37)), 37);
        assert_eq!(sw.elapsed_micros_at(t0 + Duration::from_nanos(37)), 0);
        assert_eq!(sw.elapsed_nanos_at(t0 + Duration::from_nanos(2_900)), 2_900);
    }

    #[test]
    fn feeding_before_expiry_postpones_the_boundary() {
        let t0 = Instant::now();
        let mut w = Watchdog::starting_at(t0, Duration::from_secs(5));
        w.feed_at(t0 + Duration::from_secs(3));
        assert!(!w.poll_at(t0 + Duration::from_secs(7)));
        assert!(w.poll_at(t0 + Duration::from_secs(8)));
    }
}
