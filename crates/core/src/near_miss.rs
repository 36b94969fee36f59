//! Near-miss monitoring: how close rows get to `T_H` without mitigating.
//!
//! The paper's security argument bounds the worst case (no row exceeds
//! `T_H` unmitigated), but says nothing about *headroom*: in a benign run,
//! how close did the hottest row come? A deployment tuning `T_RH` down
//! needs exactly this signal — a watermark far below `T_H` means slack, a
//! watermark one short of `T_H` means benign traffic is about to start
//! eating victim refreshes.
//!
//! [`NearMissMonitor`] observes every *unmitigated* per-row count the
//! tracker produces (RCC hits and RCT reads alike) and maintains:
//!
//! - the **watermark** — the maximum count observed in the current window
//!   (reset each window, with the all-time maximum kept separately);
//! - a **near-miss histogram** — [`NEAR_MISS_BUCKETS`] equal-width buckets
//!   over the band `[T_H - max(1, T_H/8), T_H)`, counting observations per
//!   closeness bucket (bucket `NEAR_MISS_BUCKETS - 1` is "one act away");
//! - the two monotonic counters mirrored into
//!   [`HydraStats`](crate::HydraStats): `near_misses` (observations inside
//!   the band) and `watermark_advances` (observations that raised the
//!   window watermark).
//!
//! The monitor is a few words of state updated with two compares on the
//! per-row path only (~9 % of activations in the paper's Fig. 6 mix), so
//! it is always on; the probe-identity proptests prove the tracker's
//! observable behavior is unchanged.

use hydra_types::counter::index;

/// Number of equal-width histogram buckets across the near-miss band.
pub const NEAR_MISS_BUCKETS: usize = 8;

/// What one count observation did to the monitor (consumed by the tracker
/// to bump [`HydraStats`](crate::HydraStats) counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NearMissObservation {
    /// The count fell inside the near-miss band `[band_start, T_H)`.
    pub near_miss: bool,
    /// The count raised the current window's watermark.
    pub advanced: bool,
}

/// Streaming tracker of per-row count headroom below `T_H`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NearMissMonitor {
    t_h: u32,
    band_start: u32,
    window_watermark: u32,
    max_watermark: u32,
    histogram: [u64; NEAR_MISS_BUCKETS],
}

impl NearMissMonitor {
    /// Creates a monitor for per-row threshold `t_h` (clamped to ≥ 1).
    ///
    /// The near-miss band is `[t_h - max(1, t_h / 8), t_h)` — the top
    /// 12.5 % of the counting range, or the single count `t_h - 1` for
    /// tiny thresholds.
    pub fn new(t_h: u32) -> Self {
        let t_h = t_h.max(1);
        let band = (t_h / 8).max(1).min(t_h);
        NearMissMonitor {
            t_h,
            band_start: t_h - band,
            window_watermark: 0,
            max_watermark: 0,
            histogram: [0; NEAR_MISS_BUCKETS],
        }
    }

    /// Records an unmitigated per-row count observation.
    ///
    /// `count` is the row's post-increment counter value; the tracker only
    /// calls this when `count < t_h` (a count at or above `t_h` triggers a
    /// mitigation instead and is not a near *miss*).
    pub fn observe(&mut self, count: u32) -> NearMissObservation {
        let mut obs = NearMissObservation::default();
        if count > self.window_watermark {
            self.window_watermark = count;
            if count > self.max_watermark {
                self.max_watermark = count;
            }
            obs.advanced = true;
        }
        if count >= self.band_start && count < self.t_h {
            let band = self.t_h - self.band_start;
            let offset = count - self.band_start;
            let bucket = index(u64::from(offset) * NEAR_MISS_BUCKETS as u64 / u64::from(band));
            self.histogram[bucket.min(NEAR_MISS_BUCKETS - 1)] += 1;
            obs.near_miss = true;
        }
        obs
    }

    /// Resets the per-window watermark at a window boundary (the all-time
    /// maximum and the histogram persist across windows).
    pub fn reset_window(&mut self) {
        self.window_watermark = 0;
    }

    /// The per-row threshold this monitor watches.
    pub fn t_h(&self) -> u32 {
        self.t_h
    }

    /// First count value inside the near-miss band.
    pub fn band_start(&self) -> u32 {
        self.band_start
    }

    /// Highest unmitigated count observed in the current window.
    pub fn window_watermark(&self) -> u32 {
        self.window_watermark
    }

    /// Highest unmitigated count observed over the whole run.
    pub fn max_watermark(&self) -> u32 {
        self.max_watermark
    }

    /// The cumulative near-miss histogram: bucket `i` counts observations
    /// in the `i`-th eighth of the band, so the last bucket is closest to
    /// `T_H`.
    pub fn histogram(&self) -> &[u64; NEAR_MISS_BUCKETS] {
        &self.histogram
    }

    /// Total observations inside the band (sum of the histogram).
    pub fn near_miss_total(&self) -> u64 {
        self.histogram.iter().sum()
    }

    /// Remaining headroom as a fraction of `t_h`: `1.0` means no row ever
    /// crossed zero counts, `0.0` means some row stopped one act short of
    /// the threshold (uses the all-time watermark).
    pub fn headroom(&self) -> f64 {
        1.0 - self.max_watermark as f64 / self.t_h as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_covers_top_eighth() {
        let m = NearMissMonitor::new(256);
        assert_eq!(m.band_start(), 224);
        assert_eq!(m.t_h(), 256);
    }

    #[test]
    fn tiny_thresholds_get_a_one_count_band() {
        let m = NearMissMonitor::new(2);
        assert_eq!(m.band_start(), 1);
        let m = NearMissMonitor::new(1);
        assert_eq!(m.band_start(), 0);
        // Degenerate zero threshold is clamped rather than underflowing.
        let m = NearMissMonitor::new(0);
        assert_eq!(m.t_h(), 1);
    }

    #[test]
    fn observations_outside_the_band_only_move_the_watermark() {
        let mut m = NearMissMonitor::new(256);
        let obs = m.observe(10);
        assert!(obs.advanced && !obs.near_miss);
        let obs = m.observe(5);
        assert!(!obs.advanced && !obs.near_miss);
        assert_eq!(m.window_watermark(), 10);
        assert_eq!(m.near_miss_total(), 0);
    }

    #[test]
    fn band_observations_fill_the_right_buckets() {
        let mut m = NearMissMonitor::new(256);
        // Band is [224, 256), 8 buckets of width 4.
        let obs = m.observe(224);
        assert!(obs.near_miss);
        assert_eq!(m.histogram()[0], 1);
        m.observe(255);
        assert_eq!(m.histogram()[NEAR_MISS_BUCKETS - 1], 1);
        m.observe(240);
        assert_eq!(m.histogram()[4], 1);
        assert_eq!(m.near_miss_total(), 3);
    }

    #[test]
    fn window_reset_clears_only_the_window_watermark() {
        let mut m = NearMissMonitor::new(100);
        m.observe(95);
        assert_eq!(m.window_watermark(), 95);
        m.reset_window();
        assert_eq!(m.window_watermark(), 0);
        assert_eq!(m.max_watermark(), 95, "all-time watermark persists");
        assert_eq!(m.near_miss_total(), 1, "histogram persists");
        let obs = m.observe(3);
        assert!(obs.advanced, "fresh window watermark re-advances from zero");
        assert_eq!(m.max_watermark(), 95);
    }

    #[test]
    fn headroom_tracks_the_all_time_watermark() {
        let mut m = NearMissMonitor::new(200);
        assert_eq!(m.headroom(), 1.0);
        m.observe(150);
        assert!((m.headroom() - 0.25).abs() < 1e-12);
    }
}
