//! PARA: Probabilistic Adjacent Row Activation (Kim et al., ISCA 2014).
//!
//! Stateless: every activation triggers a mitigation of the activated row's
//! neighbours with probability `p`. Effective at high thresholds, but `p`
//! must grow as `T_RH` falls, costing performance (Sec. 7.3). We size `p`
//! so the probability that an aggressor performs `T_RH/2` activations with
//! *no* mitigation is below a target failure probability:
//! `(1 − p)^(T_RH/2) ≤ p_fail`.

use hydra_types::addr::RowAddr;
use hydra_types::clock::MemCycle;
use hydra_types::error::ConfigError;
use hydra_types::tracker::{ActivationKind, ActivationTracker, TrackerResponse};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The PARA probabilistic mitigator.
///
/// # Example
///
/// ```
/// use hydra_baselines::Para;
/// use hydra_types::{ActivationKind, ActivationTracker, RowAddr};
/// let mut para = Para::for_threshold(500, 1e-6, 42)?;
/// let mut mitigations = 0;
/// for t in 0..10_000u64 {
///     let resp = para.on_activation(RowAddr::new(0, 0, 0, 1), t, ActivationKind::Demand);
///     mitigations += resp.mitigations.len();
/// }
/// assert!(mitigations > 0);
/// # Ok::<(), hydra_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Para {
    probability: f64,
    /// The failure target `p` was sized for ([`Para::for_threshold`] only).
    p_fail: Option<f64>,
    seed: u64,
    rng: SmallRng,
    mitigations: u64,
    activations: u64,
}

impl Para {
    /// Creates PARA with an explicit per-activation mitigation probability.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] unless `0 < probability <= 1`.
    pub fn new(probability: f64, seed: u64) -> Result<Self, ConfigError> {
        if !(probability > 0.0 && probability <= 1.0) {
            return Err(ConfigError::new(format!(
                "probability must be in (0, 1], got {probability}"
            )));
        }
        Ok(Para {
            probability,
            p_fail: None,
            seed,
            rng: SmallRng::seed_from_u64(seed),
            mitigations: 0,
            activations: 0,
        })
    }

    /// Sizes `p` for a Row-Hammer threshold and failure target:
    /// `p = 1 − p_fail^(2 / t_rh)`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for `t_rh < 2` or a failure probability
    /// outside `(0, 1)`.
    pub fn for_threshold(t_rh: u32, p_fail: f64, seed: u64) -> Result<Self, ConfigError> {
        if t_rh < 2 {
            return Err(ConfigError::new("T_RH must be at least 2"));
        }
        if !(p_fail > 0.0 && p_fail < 1.0) {
            return Err(ConfigError::new("failure probability must be in (0, 1)"));
        }
        let p = 1.0 - p_fail.powf(2.0 / f64::from(t_rh));
        let mut para = Para::new(p.clamp(f64::MIN_POSITIVE, 1.0), seed)?;
        para.p_fail = Some(p_fail);
        Ok(para)
    }

    /// The per-activation mitigation probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Mitigations issued so far.
    pub fn mitigations(&self) -> u64 {
        self.mitigations
    }
}

impl ActivationTracker for Para {
    fn on_activation(
        &mut self,
        row: RowAddr,
        _now: MemCycle,
        _kind: ActivationKind,
    ) -> TrackerResponse {
        self.activations += 1;
        if self.rng.gen_bool(self.probability) {
            self.mitigations += 1;
            TrackerResponse::mitigate(row)
        } else {
            TrackerResponse::none()
        }
    }

    fn reset_window(&mut self, _now: MemCycle) {
        // Stateless: nothing to reset.
    }

    fn name(&self) -> &str {
        "para"
    }

    fn sram_bytes(&self) -> u64 {
        0
    }

    fn params(&self) -> String {
        match self.p_fail {
            Some(p_fail) => format!(
                "p={:.6} p_fail={:e} seed={}",
                self.probability, p_fail, self.seed
            ),
            None => format!("p={:.6} seed={}", self.probability, self.seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_grows_as_threshold_falls() {
        let p_32k = Para::for_threshold(32_000, 1e-9, 0).unwrap().probability();
        let p_500 = Para::for_threshold(500, 1e-9, 0).unwrap().probability();
        assert!(p_500 > p_32k);
        // Sec. 7.3: p < 1 % at T_RH = 32K...
        assert!(p_32k < 0.01, "p at 32K = {p_32k}");
        // ...but substantial at ultra-low thresholds.
        assert!(p_500 > 0.05, "p at 500 = {p_500}");
    }

    #[test]
    fn mitigation_rate_matches_probability() {
        let mut para = Para::new(0.1, 7).unwrap();
        let n = 100_000u64;
        for t in 0..n {
            para.on_activation(RowAddr::new(0, 0, 0, 1), t, ActivationKind::Demand);
        }
        let rate = para.mitigations() as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut para = Para::new(0.5, seed).unwrap();
            (0..64u64)
                .map(|t| {
                    !para
                        .on_activation(RowAddr::new(0, 0, 0, 1), t, ActivationKind::Demand)
                        .is_empty()
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Para::new(0.0, 0).is_err());
        assert!(Para::new(1.5, 0).is_err());
        assert!(Para::for_threshold(1, 0.5, 0).is_err());
        assert!(Para::for_threshold(500, 0.0, 0).is_err());
    }
}
