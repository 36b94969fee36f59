//! Mitigation policy types.
//!
//! A tracker decides *when* to mitigate (its counter reached the threshold);
//! the memory controller decides *what* the mitigation physically does. The
//! paper uses victim refresh with blast radius 2 (refresh two rows on each
//! side of the aggressor, Sec. 4.7) and argues delay-based rate limiting is
//! unviable at ultra-low thresholds (footnotes 5 and 6); both are
//! implemented so the footnote-6 experiment (`delay_mitigation`) can
//! measure that argument.

use crate::addr::RowAddr;
use std::fmt;

/// How many physically adjacent rows on *each side* of an aggressor are
/// refreshed by a victim-refresh mitigation.
///
/// # Example
///
/// ```
/// use hydra_types::mitigation::BlastRadius;
/// assert_eq!(BlastRadius::HALF_DOUBLE_SAFE.rows_per_side(), 2);
/// assert_eq!(BlastRadius::new(2).total_victims(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlastRadius(u32);

impl BlastRadius {
    /// The paper's default: refresh 2 rows on each side, resilient to
    /// distance-2 (Half-Double) effects.
    pub const HALF_DOUBLE_SAFE: BlastRadius = BlastRadius(2);

    /// Creates a blast radius of `rows_per_side` rows on each side.
    pub const fn new(rows_per_side: u32) -> Self {
        BlastRadius(rows_per_side)
    }

    /// Rows refreshed on each side of the aggressor.
    pub const fn rows_per_side(self) -> u32 {
        self.0
    }

    /// Total victim rows refreshed per mitigation (ignoring bank edges).
    pub const fn total_victims(self) -> u32 {
        self.0 * 2
    }

    /// Iterator over the signed row offsets of all victims:
    /// `-N, …, -1, +1, …, +N`.
    pub fn offsets(self) -> impl Iterator<Item = i64> {
        let n = i64::from(self.0);
        (-n..=n).filter(|&d| d != 0)
    }
}

impl Default for BlastRadius {
    fn default() -> Self {
        BlastRadius::HALF_DOUBLE_SAFE
    }
}

impl fmt::Display for BlastRadius {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "±{}", self.0)
    }
}

/// What the controller does when a tracker requests mitigation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MitigationPolicy {
    /// Refresh the victim rows within the blast radius on each side of the
    /// aggressor. Each victim refresh is itself an activation of the victim
    /// row, and is fed back into the tracker (the Half-Double defense of
    /// Sec. 5.2.1).
    VictimRefresh(BlastRadius),
    /// Rate-limit (delay) further activations of the aggressor row until the
    /// end of the tracking window: the footnote-6 alternative to victim
    /// refresh, which the paper argues is unviable at ultra-low thresholds.
    RateLimit,
    /// Randomized row swap (RRS): migrate the aggressor to a random row of
    /// the same bank, breaking the spatial correlation between aggressor and
    /// victims. The paper names this as future work (Sec. 8, citing
    /// Saileshwar et al., ASPLOS 2022); implemented here as an extension.
    /// The seed makes swap-partner selection reproducible.
    RowSwap {
        /// RNG seed for partner selection.
        seed: u64,
    },
}

impl Default for MitigationPolicy {
    fn default() -> Self {
        MitigationPolicy::VictimRefresh(BlastRadius::HALF_DOUBLE_SAFE)
    }
}

impl fmt::Display for MitigationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MitigationPolicy::VictimRefresh(r) => write!(f, "victim-refresh({r})"),
            MitigationPolicy::RateLimit => write!(f, "rate-limit"),
            MitigationPolicy::RowSwap { .. } => write!(f, "row-swap"),
        }
    }
}

/// A tracker's request that an aggressor row be mitigated *now*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MitigationRequest {
    /// The row whose activation count reached the tracker threshold.
    pub aggressor: RowAddr,
}

impl MitigationRequest {
    /// Creates a mitigation request for the given aggressor row.
    pub const fn new(aggressor: RowAddr) -> Self {
        MitigationRequest { aggressor }
    }
}

impl fmt::Display for MitigationRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mitigate {}", self.aggressor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blast_radius_offsets_exclude_zero() {
        let offs: Vec<i64> = BlastRadius::new(2).offsets().collect();
        assert_eq!(offs, vec![-2, -1, 1, 2]);
    }

    #[test]
    fn blast_radius_one() {
        let offs: Vec<i64> = BlastRadius::new(1).offsets().collect();
        assert_eq!(offs, vec![-1, 1]);
        assert_eq!(BlastRadius::new(1).total_victims(), 2);
    }

    #[test]
    fn default_policy_is_victim_refresh_radius_2() {
        match MitigationPolicy::default() {
            MitigationPolicy::VictimRefresh(r) => assert_eq!(r.rows_per_side(), 2),
            other => panic!("unexpected default {other}"),
        }
    }

    #[test]
    fn displays_are_nonempty() {
        assert!(!BlastRadius::default().to_string().is_empty());
        assert!(!MitigationPolicy::RateLimit.to_string().is_empty());
        assert!(!MitigationRequest::new(RowAddr::default())
            .to_string()
            .is_empty());
    }
}
