//! The arena's tracker currency.
//!
//! Every contender implements [`hydra_types::ActivationTracker`] directly,
//! the same contract the memory controller, the simulators, and the
//! [`hydra_sim::oracle::ShadowOracle`] sanitizer already drive. The
//! leaderboard's introspection (`params`, `max_spillover`) lives on that
//! trait as defaulted methods, so the arena needs no trait of its own.
//!
//! [`ArenaAdapter`] and [`HydraTracker`] are kept only because the
//! repository benchmark (`perfbench/src/arena_race.rs`) names them; the
//! arena itself uses neither.

use hydra_types::{ActivationKind, ActivationTracker, MemCycle, RowAddr, TrackerResponse};

/// A boxed arena tracker (the roster's common currency). `Send` so a
/// boxed contender can be built on a batch worker.
pub type BoxedTracker = Box<dyn ActivationTracker + Send>;

/// Hydra under the name the repository benchmark imports:
/// `HydraTracker::new(config)` is [`hydra_core::Hydra::new`].
pub type HydraTracker = hydra_core::Hydra;

/// A forwarding newtype over any [`ActivationTracker`], kept for the
/// repository benchmark, which times it against the bare tracker.
#[derive(Debug, Clone)]
pub struct ArenaAdapter<T> {
    inner: T,
}

impl<T: ActivationTracker> ArenaAdapter<T> {
    /// Wraps `inner`.
    pub fn new(inner: T) -> Self {
        ArenaAdapter { inner }
    }
}

impl<T: ActivationTracker> ActivationTracker for ArenaAdapter<T> {
    fn on_activation(
        &mut self,
        row: RowAddr,
        now: MemCycle,
        kind: ActivationKind,
    ) -> TrackerResponse {
        self.inner.on_activation(row, now, kind)
    }

    fn reset_window(&mut self, now: MemCycle) {
        self.inner.reset_window(now);
    }

    fn name(&self) -> &str {
        self.inner.name()
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
