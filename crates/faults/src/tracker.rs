//! [`FaultyTracker`]: an [`ActivationTracker`] wrapper injecting
//! response-level and structural faults per a [`FaultPlan`].

use crate::plan::FaultPlan;
use hydra_core::rct::RctBackend;
use hydra_core::tracker::Hydra;
use hydra_types::addr::RowAddr;
use hydra_types::clock::MemCycle;
use hydra_types::mitigation::MitigationRequest;
use hydra_types::tracker::{ActivationKind, ActivationTracker, TrackerResponse};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;

/// Domain-separation constant for the tracker-level fault stream.
const TRACKER_STREAM: u64 = 0x5452_4143_4b45_5231; // "TRACKER1"

/// Counters of every fault actually injected (as opposed to the *rates* in
/// the plan). Summed into replay artifacts and the `--faults` report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Mitigations silently dropped.
    pub dropped_mitigations: u64,
    /// Mitigations deferred by `delay_acts` activations.
    pub delayed_mitigations: u64,
    /// Window resets postponed by `reset_jitter_acts` activations.
    pub postponed_resets: u64,
    /// GCT stuck-at assertions applied.
    pub gct_stuck_applied: u64,
    /// RCC ways corrupted on (modeled) fill.
    pub rcc_corruptions: u64,
}

impl FaultLog {
    /// Total injected fault events (stuck-at re-assertions excluded — they
    /// are a standing condition, not discrete events).
    pub fn injected(&self) -> u64 {
        self.dropped_mitigations
            + self.delayed_mitigations
            + self.postponed_resets
            + self.rcc_corruptions
    }
}

/// Structural faults need to reach inside the wrapped tracker (the GCT and
/// RCC are private SRAM structures); this hook is installed only by
/// constructors whose type knows the seams, keeping the generic wrapper
/// oblivious to Hydra.
type StructuralHook<T> = Box<dyn FnMut(&mut T, &mut SmallRng, &FaultPlan, &mut FaultLog) + Send>;

/// Wraps any [`ActivationTracker`] and injects the response-level faults of
/// a [`FaultPlan`]: dropped and delayed mitigations, postponed window
/// resets, and (for Hydra, via [`FaultyTracker::hydra`]) GCT stuck-at and
/// RCC fill-corruption structural faults.
///
/// Injection is deterministic in the plan's seed and the call sequence.
/// Under [`FaultPlan::none`] the wrapper forwards everything verbatim and
/// never draws from its RNG — the zero-fault identity proven by the
/// property tests in `tests/zero_fault_identity.rs`.
///
/// The physical consequences stay truthful: faults corrupt what the
/// *tracker* believes, so a referee (e.g. `ShadowOracle`) wrapping this
/// type from the outside still sees ground-truth activations and the
/// post-fault mitigation stream.
pub struct FaultyTracker<T: ActivationTracker> {
    inner: T,
    plan: FaultPlan,
    rng: SmallRng,
    /// Delayed mitigations: `(due_at_act, request)`, in due order.
    delayed: VecDeque<(u64, MitigationRequest)>,
    /// A postponed window reset: `(due_at_act, reset_timestamp)`.
    pending_reset: Option<(u64, MemCycle)>,
    acts: u64,
    log: FaultLog,
    structural: Option<StructuralHook<T>>,
    name: String,
}

impl<T: ActivationTracker> FaultyTracker<T> {
    /// Wraps `inner` with response-level fault injection only (no
    /// structural faults; `gct_stuck` / `rcc_fill_corrupt` are ignored).
    /// Use [`FaultyTracker::hydra`] for the full plan against Hydra.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        let name = format!("faulty-{}", inner.name());
        FaultyTracker {
            rng: SmallRng::seed_from_u64(plan.seed ^ TRACKER_STREAM),
            inner,
            plan,
            delayed: VecDeque::new(),
            pending_reset: None,
            acts: 0,
            log: FaultLog::default(),
            structural: None,
            name,
        }
    }

    /// The wrapped tracker.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Faults injected so far.
    pub fn log(&self) -> FaultLog {
        self.log
    }

    /// Delayed mitigations not yet released.
    pub fn pending_delayed(&self) -> usize {
        self.delayed.len()
    }

    /// Applies drop/delay faults to the freshly produced mitigations and
    /// releases any matured delayed ones.
    fn filter_mitigations(&mut self, response: &mut TrackerResponse) {
        let drop_p = self.plan.drop_mitigation;
        let delay_p = self.plan.delay_mitigation;
        if (drop_p > 0.0 || delay_p > 0.0) && !response.mitigations.is_empty() {
            let mut kept = Vec::with_capacity(response.mitigations.len());
            for m in response.mitigations.drain(..) {
                if drop_p > 0.0 && self.rng.gen_bool(drop_p) {
                    self.log.dropped_mitigations += 1;
                } else if delay_p > 0.0 && self.rng.gen_bool(delay_p) {
                    self.log.delayed_mitigations += 1;
                    self.delayed
                        .push_back((self.acts + self.plan.delay_acts, m));
                } else {
                    kept.push(m);
                }
            }
            response.mitigations = kept;
        }
        while self
            .delayed
            .front()
            .is_some_and(|&(due, _)| due <= self.acts)
        {
            if let Some((_, m)) = self.delayed.pop_front() {
                response.mitigations.push(m);
            }
        }
    }
}

impl<R: RctBackend> FaultyTracker<Hydra<R>> {
    /// Wraps a Hydra instance with the *full* plan: response-level faults
    /// plus the structural GCT stuck-at and RCC fill-corruption faults,
    /// which need access to Hydra's internal SRAM seams.
    pub fn hydra(inner: Hydra<R>, plan: FaultPlan) -> Self {
        let structural = !plan.gct_stuck.is_empty() || plan.rcc_fill_corrupt > 0.0;
        let mut tracker = FaultyTracker::new(inner, plan);
        if structural {
            tracker.structural = Some(Box::new(
                |h: &mut Hydra<R>, rng: &mut SmallRng, plan: &FaultPlan, log: &mut FaultLog| {
                    for &(group, value) in &plan.gct_stuck {
                        if group < h.gct().entries() {
                            h.gct_mut().force_count(group, value);
                            log.gct_stuck_applied += 1;
                        }
                    }
                    if plan.rcc_fill_corrupt > 0.0 && rng.gen_bool(plan.rcc_fill_corrupt) {
                        let set = rng.gen_range(0..h.rcc().num_sets());
                        let way = rng.gen_range(0..h.rcc().ways());
                        let bit = rng.gen_range(0..8u32);
                        if h.rcc_mut().corrupt_way(set, way, 1 << bit) {
                            log.rcc_corruptions += 1;
                        }
                    }
                },
            ));
        }
        tracker
    }
}

impl<T: ActivationTracker> ActivationTracker for FaultyTracker<T> {
    fn on_activation(
        &mut self,
        row: RowAddr,
        now: MemCycle,
        kind: ActivationKind,
    ) -> TrackerResponse {
        self.acts += 1;
        // A postponed window reset matures on the activation clock.
        if let Some((due, reset_at)) = self.pending_reset {
            if self.acts >= due {
                self.pending_reset = None;
                self.inner.reset_window(reset_at);
            }
        }
        if let Some(hook) = self.structural.as_mut() {
            hook(&mut self.inner, &mut self.rng, &self.plan, &mut self.log);
        }
        let mut response = self.inner.on_activation(row, now, kind);
        self.filter_mitigations(&mut response);
        response
    }

    fn reset_window(&mut self, now: MemCycle) {
        if self.plan.postpone_reset > 0.0 && self.rng.gen_bool(self.plan.postpone_reset) {
            self.log.postponed_resets += 1;
            // A still-pending earlier reset is superseded by this one.
            self.pending_reset = Some((self.acts + self.plan.reset_jitter_acts, now));
        } else {
            self.pending_reset = None;
            self.inner.reset_window(now);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn sram_bytes(&self) -> u64 {
        self.inner.sram_bytes()
    }

    fn params(&self) -> String {
        self.inner.params()
    }

    fn max_spillover(&self) -> u64 {
        self.inner.max_spillover()
    }
}

impl<T: ActivationTracker + fmt::Debug> fmt::Debug for FaultyTracker<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyTracker")
            .field("inner", &self.inner)
            .field("plan", &self.plan)
            .field("acts", &self.acts)
            .field("log", &self.log)
            .field("pending_delayed", &self.delayed.len())
            .field("pending_reset", &self.pending_reset)
            .field("structural", &self.structural.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::HydraConfig;
    use hydra_types::MemGeometry;

    fn small_hydra() -> Hydra {
        let config = HydraConfig::builder(MemGeometry::tiny(), 0)
            .thresholds(16, 12)
            .gct_entries(64)
            .rcc_entries(32)
            .rcc_ways(4)
            .build()
            .expect("valid test config");
        Hydra::new(config).expect("valid test config")
    }

    fn hammer<T: ActivationTracker>(t: &mut T, row: RowAddr, n: u32) -> usize {
        let mut mitigations = 0;
        for i in 0..n {
            mitigations += t
                .on_activation(row, u64::from(i), ActivationKind::Demand)
                .mitigations
                .len();
        }
        mitigations
    }

    #[test]
    fn dropped_mitigations_never_fire() {
        let plan = FaultPlan::none().with_seed(5).with_drop_mitigation(1.0);
        let mut t = FaultyTracker::hydra(small_hydra(), plan);
        let fired = hammer(&mut t, RowAddr::new(0, 0, 0, 3), 64);
        assert_eq!(fired, 0, "every mitigation dropped");
        assert_eq!(t.log().dropped_mitigations, 4, "T_H=16: 4 crossings in 64");
    }

    #[test]
    fn delayed_mitigations_fire_late_but_fire() {
        let plan = FaultPlan::none()
            .with_seed(5)
            .with_delay_mitigation(1.0, 10);
        let mut t = FaultyTracker::hydra(small_hydra(), plan);
        let row = RowAddr::new(0, 0, 0, 3);
        // First crossing at act 16; delayed by 10 -> released at act 26.
        assert_eq!(hammer(&mut t, row, 25), 0);
        assert_eq!(t.pending_delayed(), 1);
        let resp = t.on_activation(row, 25, ActivationKind::Demand);
        assert_eq!(resp.mitigations.len(), 1);
        assert_eq!(t.log().delayed_mitigations, 1);
    }

    #[test]
    fn postponed_reset_defers_state_clearing() {
        let plan = FaultPlan::none().with_seed(5).with_postpone_reset(1.0, 8);
        let mut t = FaultyTracker::hydra(small_hydra(), plan);
        let row = RowAddr::new(0, 0, 0, 3);
        hammer(&mut t, row, 10);
        t.reset_window(100);
        assert_eq!(t.log().postponed_resets, 1);
        // The inner window did not reset yet: 6 more acts reach T_H = 16.
        let fired = hammer(&mut t, row, 6);
        assert_eq!(fired, 1, "stale counts persist past the postponed reset");
        assert_eq!(t.inner().stats().window_resets, 0, "reset still pending");
        // The postponement matures 8 acts after the reset call (act 18).
        hammer(&mut t, row, 2);
        assert_eq!(t.inner().stats().window_resets, 1, "reset applied late");
    }

    #[test]
    fn gct_stuck_at_zero_starves_per_row_tracking() {
        // Group 0 stuck at 0: the GCT never saturates, so rows in group 0
        // are never tracked per-row and never mitigated — the fault the
        // degradation table quantifies.
        let plan = FaultPlan::none().with_seed(5).with_gct_stuck(0, 0);
        let mut t = FaultyTracker::hydra(small_hydra(), plan);
        let fired = hammer(&mut t, RowAddr::new(0, 0, 0, 3), 200);
        assert_eq!(fired, 0);
        assert!(t.log().gct_stuck_applied >= 200);
    }

    #[test]
    fn rcc_corruption_is_logged() {
        let plan = FaultPlan::none().with_seed(5).with_rcc_fill_corrupt(1.0);
        let mut t = FaultyTracker::hydra(small_hydra(), plan);
        // Hammer past T_G so the RCC holds resident (corruptible) entries.
        hammer(&mut t, RowAddr::new(0, 0, 0, 3), 64);
        assert!(t.log().rcc_corruptions > 0);
    }

    #[test]
    fn zero_plan_forwards_verbatim() {
        let mut faulty = FaultyTracker::hydra(small_hydra(), FaultPlan::none());
        let mut stock = small_hydra();
        for i in 0..500u32 {
            let row = RowAddr::new(0, 0, 0, (i * 3) % 50);
            let a = faulty.on_activation(row, u64::from(i), ActivationKind::Demand);
            let b = stock.on_activation(row, u64::from(i), ActivationKind::Demand);
            assert_eq!(a, b, "act {i}");
            if i % 100 == 99 {
                faulty.reset_window(u64::from(i));
                stock.reset_window(u64::from(i));
            }
        }
        assert_eq!(faulty.inner().stats(), stock.stats());
        assert_eq!(faulty.log(), FaultLog::default());
    }

    #[test]
    fn name_and_sram_delegate() {
        let t = FaultyTracker::hydra(small_hydra(), FaultPlan::none());
        assert_eq!(t.name(), "faulty-hydra");
        assert_eq!(t.sram_bytes(), small_hydra().sram_bytes());
        // Debug must not blow up on the non-Debug closure field.
        let _ = format!("{t:?}");
    }
}
