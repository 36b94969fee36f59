//! Graceful degradation for the in-DRAM Row-Count Table.
//!
//! Hydra's defining trade-off is that its per-row counters live in DRAM —
//! the same fault-prone medium it defends. The seed reproduction (like the
//! paper, and like every related in-DRAM tracker) assumed counter reads and
//! write-backs are perfect. This module drops that assumption:
//!
//! * every RCT byte the tracker writes is covered by a **per-entry parity
//!   bit** (modeled as stored alongside the counter; one extra bit per row,
//!   +12.5 % RCT capacity, noted in `HydraStorage` docs), and
//! * every RCT read is **verified** against the recorded parity. On a
//!   mismatch the configured [`DegradationPolicy`] decides how the guarantee
//!   degrades: conservatively re-initialize the entry, escalate to an
//!   immediate victim refresh, or fall back to PARA-style probabilistic
//!   mitigation for the whole affected row-group until the window resets.
//!
//! Parity detects any odd number of flipped bits per entry; an even number
//! of flips in one entry escapes (which is why the probabilistic fallback
//! exists: once *any* corruption is observed in a group, the group is
//! treated as untrustworthy for the rest of the window).
//!
//! Detection and recovery are summarized by [`HealthReport`], surfaced via
//! `Hydra::health()` and the new [`crate::stats::HydraStats`] fields.

use hydra_types::counter::index;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// What Hydra does when an RCT read fails its parity check.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum DegradationPolicy {
    /// No detection or recovery: corrupted counts are consumed as-is. This
    /// is the seed behavior and the paper's implicit assumption.
    #[default]
    Off,
    /// Re-initialize the corrupted entry to `T_G` — the same conservative
    /// floor a group spill establishes. Bounded loss: at most
    /// `T_H − T_G` activations of tracking headroom per detected corruption,
    /// instead of up to 128 (a flipped top bit) silently.
    ConservativeReinit,
    /// Escalate: immediately request a victim refresh for the row whose
    /// count was corrupted, and restart its entry from zero. Maximally safe
    /// (the refresh removes any accumulated disturbance) at the cost of
    /// extra mitigation traffic under faults.
    ImmediateRefresh,
    /// Re-initialize like [`Self::ConservativeReinit`], *and* mark the whole
    /// row-group degraded until the next window reset: every further
    /// activation routed to a degraded group is additionally mitigated with
    /// probability `1 / (T_H − T_G)` (PARA-style), covering corruptions that
    /// parity cannot see (even numbers of flipped bits).
    ProbabilisticFallback {
        /// Seed for the fallback's deterministic RNG stream.
        seed: u64,
    },
}

impl fmt::Display for DegradationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationPolicy::Off => f.write_str("off"),
            DegradationPolicy::ConservativeReinit => f.write_str("reinit"),
            DegradationPolicy::ImmediateRefresh => f.write_str("refresh"),
            DegradationPolicy::ProbabilisticFallback { seed } => write!(f, "para:{seed}"),
        }
    }
}

impl DegradationPolicy {
    /// Parses the compact form used by replay artifacts and CLI flags:
    /// `off`, `reinit`, `refresh`, or `para:SEED`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(DegradationPolicy::Off),
            "reinit" => Some(DegradationPolicy::ConservativeReinit),
            "refresh" => Some(DegradationPolicy::ImmediateRefresh),
            other => {
                let seed = other.strip_prefix("para:")?.parse().ok()?;
                Some(DegradationPolicy::ProbabilisticFallback { seed })
            }
        }
    }

    /// True if this policy performs parity tracking at all.
    pub fn is_active(&self) -> bool {
        !matches!(self, DegradationPolicy::Off)
    }
}

/// One parity bit per RCT entry, packed 64 per word.
#[derive(Debug, Clone)]
struct ParityGuard {
    bits: Vec<u64>,
}

impl ParityGuard {
    fn new(entries: u64) -> Self {
        ParityGuard {
            bits: vec![0; index(entries.div_ceil(64))],
        }
    }

    #[inline]
    fn record(&mut self, slot: u64, value: u32) {
        let word = (slot / 64) as usize;
        let bit = slot % 64;
        let parity = u64::from(value.count_ones() & 1);
        self.bits[word] = (self.bits[word] & !(1 << bit)) | (parity << bit);
    }

    #[inline]
    fn matches(&self, slot: u64, value: u32) -> bool {
        let word = (slot / 64) as usize;
        let bit = slot % 64;
        (self.bits[word] >> bit) & 1 == u64::from(value.count_ones() & 1)
    }

    fn clear(&mut self) {
        self.bits.fill(0);
    }
}

/// The verdict of a parity-checked RCT read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadVerdict {
    /// Parity matched; use the stored value.
    Clean(u32),
    /// Corruption detected; use the substituted value. `mitigate` asks the
    /// caller to issue an immediate victim refresh for the row.
    Recovered {
        /// The value to continue tracking with.
        value: u32,
        /// True if the policy escalates to an immediate refresh.
        mitigate: bool,
    },
}

/// Degradation machinery owned by one Hydra instance: the parity guard, the
/// per-group degraded flags, and the fallback RNG.
#[derive(Debug, Clone)]
pub(crate) struct DegradeState {
    policy: DegradationPolicy,
    guard: ParityGuard,
    /// Groups flagged degraded this window (probabilistic fallback only).
    degraded: Vec<u64>,
    degraded_count: usize,
    rng: SmallRng,
    t_g: u32,
    /// Probability (numerator 1, this denominator) of a fallback mitigation
    /// in a degraded group: `T_H − T_G`.
    fallback_denom: u32,
}

impl DegradeState {
    pub(crate) fn new(
        policy: DegradationPolicy,
        entries: u64,
        groups: usize,
        t_g: u32,
        t_h: u32,
    ) -> Self {
        let seed = match policy {
            DegradationPolicy::ProbabilisticFallback { seed } => seed,
            _ => 0,
        };
        let entries = if policy.is_active() { entries } else { 0 };
        DegradeState {
            policy,
            guard: ParityGuard::new(entries),
            degraded: vec![0; groups.div_ceil(64)],
            degraded_count: 0,
            rng: SmallRng::seed_from_u64(seed),
            t_g,
            fallback_denom: (t_h - t_g).max(1),
        }
    }

    pub(crate) fn policy(&self) -> DegradationPolicy {
        self.policy
    }

    /// Groups currently flagged degraded (probabilistic fallback).
    pub(crate) fn degraded_groups(&self) -> usize {
        self.degraded_count
    }

    /// Records the parity of a value Hydra wrote to the RCT.
    #[inline]
    pub(crate) fn record_write(&mut self, slot: u64, value: u32) {
        if self.policy.is_active() {
            self.guard.record(slot, value);
        }
    }

    /// Records the parity of a whole group initialized to `t_g`.
    pub(crate) fn record_group(&mut self, group_start: u64, group_rows: u64, t_g: u32) {
        if self.policy.is_active() {
            for slot in group_start..group_start + group_rows {
                self.guard.record(slot, t_g);
            }
        }
    }

    /// Verifies a value read back from the RCT, applying the policy on a
    /// parity mismatch.
    pub(crate) fn verify_read(&mut self, slot: u64, stored: u32, group: usize) -> ReadVerdict {
        if !self.policy.is_active() || self.guard.matches(slot, stored) {
            return ReadVerdict::Clean(stored);
        }
        match self.policy {
            DegradationPolicy::Off => ReadVerdict::Clean(stored),
            DegradationPolicy::ConservativeReinit => ReadVerdict::Recovered {
                value: self.t_g,
                mitigate: false,
            },
            DegradationPolicy::ImmediateRefresh => ReadVerdict::Recovered {
                value: 0,
                mitigate: true,
            },
            DegradationPolicy::ProbabilisticFallback { .. } => {
                self.mark_degraded(group);
                ReadVerdict::Recovered {
                    value: self.t_g,
                    mitigate: false,
                }
            }
        }
    }

    fn mark_degraded(&mut self, group: usize) {
        let word = group / 64;
        let bit = group % 64;
        if self.degraded[word] >> bit & 1 == 0 {
            self.degraded[word] |= 1 << bit;
            self.degraded_count += 1;
        }
    }

    /// True if an activation in `group` should receive a PARA-style fallback
    /// mitigation (group degraded, and the coin came up).
    #[inline]
    pub(crate) fn fallback_mitigate(&mut self, group: usize) -> bool {
        if self.degraded_count == 0 {
            return false;
        }
        let word = group / 64;
        if self.degraded[word] >> (group % 64) & 1 == 0 {
            return false;
        }
        self.rng.gen_range(0..self.fallback_denom) == 0
    }

    /// Window reset: degraded flags expire with the window (the next group
    /// spill re-establishes trusted entries).
    pub(crate) fn on_window_reset(&mut self) {
        if self.degraded_count > 0 {
            self.degraded.fill(0);
            self.degraded_count = 0;
        }
    }

    /// Mirrors `RowCountTable::reset`: all entries are zero again.
    pub(crate) fn reset_parity(&mut self) {
        self.guard.clear();
    }
}

/// A point-in-time health summary of one Hydra instance's degradation
/// layer, derived from [`crate::stats::HydraStats`] plus the live degraded
/// set. `healthy` means no corruption was ever detected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthReport {
    /// The configured policy.
    pub policy: DegradationPolicy,
    /// RCT reads that failed their parity check.
    pub parity_errors: u64,
    /// Corrupted entries conservatively re-initialized to `T_G`.
    pub reinits: u64,
    /// Corruptions escalated to an immediate victim refresh.
    pub escalated_refreshes: u64,
    /// Extra PARA-style mitigations issued for degraded groups.
    pub probabilistic_mitigations: u64,
    /// Row-groups currently flagged degraded (expires at the window reset).
    pub degraded_groups: usize,
    /// Tracking windows completed.
    pub windows: u64,
}

impl HealthReport {
    /// True iff no corruption was ever detected.
    pub fn is_healthy(&self) -> bool {
        self.parity_errors == 0
    }
}

impl fmt::Display for HealthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "health[policy={} parity_errors={} reinits={} escalations={} \
             fallback_mitigations={} degraded_groups={} windows={} {}]",
            self.policy,
            self.parity_errors,
            self.reinits,
            self.escalated_refreshes,
            self.probabilistic_mitigations,
            self.degraded_groups,
            self.windows,
            if self.is_healthy() {
                "HEALTHY"
            } else {
                "DEGRADED"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_guard_round_trips() {
        let mut g = ParityGuard::new(256);
        for (slot, v) in [(0u64, 0u32), (1, 200), (63, 255), (64, 1), (255, 128)] {
            g.record(slot, v);
            assert!(g.matches(slot, v), "slot {slot} value {v}");
        }
        // Any single-bit flip is detected.
        g.record(7, 0b1010_1010);
        for bit in 0..8 {
            assert!(!g.matches(7, 0b1010_1010 ^ (1 << bit)), "bit {bit}");
        }
        // A double flip escapes (documented parity limitation).
        assert!(g.matches(7, 0b1010_1010 ^ 0b11));
    }

    #[test]
    fn off_policy_never_recovers() {
        let mut d = DegradeState::new(DegradationPolicy::Off, 128, 2, 12, 16);
        d.record_write(5, 9);
        assert_eq!(d.verify_read(5, 8, 0), ReadVerdict::Clean(8));
    }

    #[test]
    fn reinit_policy_substitutes_tg() {
        let mut d = DegradeState::new(DegradationPolicy::ConservativeReinit, 128, 2, 12, 16);
        d.record_write(5, 9);
        assert_eq!(d.verify_read(5, 9, 0), ReadVerdict::Clean(9));
        assert_eq!(
            d.verify_read(5, 8, 0),
            ReadVerdict::Recovered {
                value: 12,
                mitigate: false
            }
        );
    }

    #[test]
    fn refresh_policy_escalates() {
        let mut d = DegradeState::new(DegradationPolicy::ImmediateRefresh, 128, 2, 12, 16);
        d.record_write(5, 9);
        assert_eq!(
            d.verify_read(5, 8, 1),
            ReadVerdict::Recovered {
                value: 0,
                mitigate: true
            }
        );
    }

    #[test]
    fn probabilistic_policy_degrades_group_until_reset() {
        let mut d = DegradeState::new(
            DegradationPolicy::ProbabilisticFallback { seed: 7 },
            128,
            4,
            12,
            16,
        );
        d.record_write(5, 9);
        assert_eq!(d.degraded_groups(), 0);
        let _ = d.verify_read(5, 8, 2);
        assert_eq!(d.degraded_groups(), 1);
        // Only the degraded group can draw fallback mitigations.
        assert!(!d.fallback_mitigate(0));
        let fires = (0..1000).filter(|_| d.fallback_mitigate(2)).count();
        // p = 1/(16-12) = 1/4: expect ~250 in 1000 draws.
        assert!((150..400).contains(&fires), "{fires}");
        d.on_window_reset();
        assert_eq!(d.degraded_groups(), 0);
        assert!(!d.fallback_mitigate(2));
    }

    #[test]
    fn policy_display_parse_round_trip() {
        for p in [
            DegradationPolicy::Off,
            DegradationPolicy::ConservativeReinit,
            DegradationPolicy::ImmediateRefresh,
            DegradationPolicy::ProbabilisticFallback { seed: 42 },
        ] {
            assert_eq!(DegradationPolicy::parse(&p.to_string()), Some(p));
        }
        assert_eq!(DegradationPolicy::parse("bogus"), None);
    }

    #[test]
    fn health_report_display_mentions_state() {
        let h = HealthReport {
            policy: DegradationPolicy::ConservativeReinit,
            parity_errors: 0,
            reinits: 0,
            escalated_refreshes: 0,
            probabilistic_mitigations: 0,
            degraded_groups: 0,
            windows: 3,
        };
        assert!(h.is_healthy());
        assert!(h.to_string().contains("HEALTHY"));
        let sick = HealthReport {
            parity_errors: 2,
            ..h
        };
        assert!(!sick.is_healthy());
        assert!(sick.to_string().contains("DEGRADED"));
    }
}
