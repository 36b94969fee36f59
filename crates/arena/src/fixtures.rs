//! Sabotage fixtures: deliberately broken trackers the oracle test matrix
//! must flag.
//!
//! A security gate that never fires is indistinguishable from a security
//! gate that works. Every arena tracker is required to pass the
//! [`hydra_sim::oracle::ShadowOracle`] with zero violations — so this
//! module supplies the other half of the proof: wrappers that break a
//! sound tracker in each of the ways the oracle is supposed to catch, and
//! a test matrix (`tests/oracle_matrix.rs`) asserting the oracle *does*
//! catch them. The pattern follows the `LeakyTracker` fixture the Hydra
//! oracle suite has always used, generalized over any
//! [`ActivationTracker`].

use hydra_types::{ActivationKind, ActivationTracker, MemCycle, RowAddr, TrackerResponse};

/// The ways [`Sabotage`] can break a tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SabotageMode {
    /// Swallow every `n`-th mitigation the inner tracker requests. The
    /// aggressor keeps hammering past the threshold →
    /// `ViolationKind::ExcessActivations`.
    DropMitigations {
        /// Drop every `n`-th mitigation (1 = drop all).
        every: u64,
    },
    /// Redirect every mitigation to a row the workload never touches →
    /// the victim keeps accumulating (`ExcessActivations`) *and* the
    /// patsy row is refreshed with zero activations
    /// (`SpuriousMitigation`).
    WrongRow {
        /// The row index every mitigation is redirected to.
        patsy: u32,
    },
    /// Report only every `n`-th activation to the inner tracker, as a
    /// controller that under-samples its command bus would. The inner
    /// tracker under-counts by a factor of `n` → `ExcessActivations`.
    Undercount {
        /// Forward one activation in `n` (2 = halve the counts).
        one_in: u64,
    },
}

/// A wrapper that breaks `inner` per a [`SabotageMode`]. See the module
/// docs.
#[derive(Debug, Clone)]
pub struct Sabotage<T> {
    inner: T,
    mode: SabotageMode,
    seen: u64,
    mitigations_seen: u64,
    dropped: u64,
}

impl<T: ActivationTracker> Sabotage<T> {
    /// Wraps `inner`.
    pub fn new(inner: T, mode: SabotageMode) -> Self {
        Sabotage {
            inner,
            mode,
            seen: 0,
            mitigations_seen: 0,
            dropped: 0,
        }
    }

    /// Mitigations or activations this wrapper has swallowed so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<T: ActivationTracker> ActivationTracker for Sabotage<T> {
    fn on_activation(
        &mut self,
        row: RowAddr,
        now: MemCycle,
        kind: ActivationKind,
    ) -> TrackerResponse {
        self.seen += 1;
        match self.mode {
            SabotageMode::DropMitigations { every } => {
                let mut response = self.inner.on_activation(row, now, kind);
                let every = every.max(1);
                let mut kept = Vec::new();
                for m in response.mitigations.drain(..) {
                    self.mitigations_seen += 1;
                    if self.mitigations_seen.is_multiple_of(every) {
                        self.dropped += 1;
                    } else {
                        kept.push(m);
                    }
                }
                response.mitigations = kept;
                response
            }
            SabotageMode::WrongRow { patsy } => {
                let mut response = self.inner.on_activation(row, now, kind);
                for m in &mut response.mitigations {
                    if m.aggressor.row != patsy {
                        self.dropped += 1;
                        m.aggressor.row = patsy;
                    }
                }
                response
            }
            SabotageMode::Undercount { one_in } => {
                if one_in > 1 && !self.seen.is_multiple_of(one_in) {
                    self.dropped += 1;
                    return TrackerResponse::none();
                }
                self.inner.on_activation(row, now, kind)
            }
        }
    }

    fn reset_window(&mut self, now: MemCycle) {
        self.inner.reset_window(now);
    }

    fn name(&self) -> &str {
        "sabotage"
    }

    fn sram_bytes(&self) -> u64 {
        self.inner.sram_bytes()
    }

    fn params(&self) -> String {
        format!("{:?} over {}", self.mode, self.inner.name())
    }

    fn max_spillover(&self) -> u64 {
        self.inner.max_spillover()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::start::{Start, StartConfig};
    use hydra_types::ActivationKind::Demand;
    use hydra_types::MemGeometry;

    fn sound() -> Start {
        let config = StartConfig {
            t_h: 8,
            group_rows: 8,
            max_groups: 64,
        };
        match Start::new(MemGeometry::tiny(), 0, config) {
            Ok(s) => s,
            Err(e) => panic!("start: {e}"),
        }
    }

    #[test]
    fn drop_all_swallows_every_mitigation() {
        let mut s = Sabotage::new(sound(), SabotageMode::DropMitigations { every: 1 });
        let row = RowAddr::new(0, 0, 0, 42);
        let mut mitigations = 0;
        for i in 0..64u64 {
            mitigations += s.on_activation(row, i, Demand).mitigations.len();
        }
        assert_eq!(mitigations, 0);
        assert!(s.dropped() >= 8);
    }

    #[test]
    fn wrong_row_redirects_to_the_patsy() {
        let mut s = Sabotage::new(sound(), SabotageMode::WrongRow { patsy: 999 });
        let row = RowAddr::new(0, 0, 0, 42);
        for i in 0..8u64 {
            let d = s.on_activation(row, i, Demand);
            for m in &d.mitigations {
                assert_eq!(m.aggressor.row, 999);
            }
        }
        assert_eq!(s.dropped(), 1);
    }

    #[test]
    fn undercount_hides_activations_from_the_inner_tracker() {
        let mut s = Sabotage::new(sound(), SabotageMode::Undercount { one_in: 2 });
        let row = RowAddr::new(0, 0, 0, 42);
        let mut mitigations = 0;
        for i in 0..16u64 {
            mitigations += s.on_activation(row, i, Demand).mitigations.len();
        }
        // 16 true activations, 8 forwarded, T_H = 8 → exactly one firing
        // where a sound tracker would have fired twice.
        assert_eq!(mitigations, 1);
        assert_eq!(s.dropped(), 8);
    }

    #[test]
    fn passthrough_metadata_delegates() {
        let s = Sabotage::new(sound(), SabotageMode::Undercount { one_in: 2 });
        assert_eq!(s.name(), "sabotage");
        assert!(s.params().contains("start"));
        assert!(s.sram_bytes() > 0);
    }
}
