//! The metric math: medians, the tail-percentile rule, slowdown, parallel
//! efficiency and failure share. Pure functions, unit-tested below.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest percentile a tail is reported at. Higher percentiles of a
/// cell's latencies measure the host's scheduler more than the program:
/// on a shared two-core host, a few percent of thread hand-offs stall for
/// a scheduler slice during busy periods.
pub const TAIL_CAP: u32 = 90;

/// The highest whole percentile, at most [`TAIL_CAP`], that leaves at
/// least ten of `n` samples beyond it under the nearest-rank definition.
/// `None` when `n` is too small for any percentile to qualify
/// (`n <= 10`).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..=TAIL_CAP).rev().find(|&p| {
        let rank = nearest_rank(p, n);
        rank >= 1 && n - rank >= 10
    })
}

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
fn nearest_rank(p: u32, n: usize) -> usize {
    (u64::from(p) * n as u64).div_ceil(100) as usize
}

/// Value at percentile `p` (nearest rank) of `values`.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = nearest_rank(p, v.len()).clamp(1, v.len());
    v[rank - 1]
}

/// A latency tail by the benchmark's rule: the value at
/// [`tail_percentile`], or the maximum when there are too few samples for
/// any percentile to keep ten beyond it. Returns `(value, percentile)`,
/// where the percentile is 100 for the maximum.
pub fn tail(values: &[f64]) -> (f64, u32) {
    match tail_percentile(values.len()) {
        Some(p) => (percentile(values, p), p),
        None => (values.iter().copied().fold(0.0, f64::max), 100),
    }
}

/// Geometric-mean slowdown in percent over `(baseline_cycles,
/// tracked_cycles)` pairs: `(1 − geomean(baseline / tracked)) × 100`.
/// Each program retires the same instructions under both trackers, so
/// `baseline / tracked` is the tracked run's normalized IPC (Fig. 5).
pub fn geomean_slowdown_pct(pairs: &[(u64, u64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = pairs
        .iter()
        .map(|&(base, tracked)| (base as f64 / tracked as f64).ln())
        .sum();
    (1.0 - (log_sum / pairs.len() as f64).exp()) * 100.0
}

/// Parallel efficiency: sequential time over `workers ×` parallel time
/// (1.0 = perfect scaling).
pub fn parallel_efficiency(sequential_s: f64, parallel_s: f64, workers: usize) -> f64 {
    sequential_s / (workers as f64 * parallel_s)
}

/// Failed operations as a share of those attempted.
pub fn failure_share(failed: u64, attempted: u64) -> f64 {
    failed as f64 / attempted.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        // 11 samples: rank 1 (p1..p9) leaves 10 beyond.
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(50), Some(80));
        assert_eq!(tail_percentile(100), Some(90));
        // Capped however many samples there are.
        assert_eq!(tail_percentile(1_000_000), Some(TAIL_CAP));
        for n in 11..3000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - nearest_rank(p, n) >= 10, "n={n} p={p}");
            if p < TAIL_CAP {
                assert!(
                    n - nearest_rank(p + 1, n) < 10,
                    "n={n}: p{} also fits",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn tail_value_uses_the_rule_or_the_maximum() {
        let few = [5.0, 1.0, 3.0];
        assert_eq!(tail(&few), (5.0, 100));
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&many), (90.0, 90));
        let lots: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&lots), (1800.0, 90));
    }

    #[test]
    fn geomean_slowdown_matches_hand_computation() {
        // Normalized IPCs 0.9 and 0.8: geomean sqrt(0.72) = 0.848528.
        let pct = geomean_slowdown_pct(&[(900, 1000), (800, 1000)]);
        assert!((pct - (1.0 - 0.72f64.sqrt()) * 100.0).abs() < 1e-9);
        assert_eq!(geomean_slowdown_pct(&[(1000, 1000)]), 0.0);
        assert!(geomean_slowdown_pct(&[(1000, 1007)]) > 0.0);
        assert_eq!(geomean_slowdown_pct(&[]), 0.0);
    }

    #[test]
    fn parallel_efficiency_and_failure_share() {
        assert_eq!(parallel_efficiency(2.0, 1.0, 2), 1.0);
        assert!((parallel_efficiency(1.56, 1.0, 2) - 0.78).abs() < 1e-12);
        assert_eq!(failure_share(0, 10), 0.0);
        assert_eq!(failure_share(1, 4), 0.25);
        assert_eq!(failure_share(0, 0), 0.0);
    }
}
