//! The interface between a memory controller and a Row-Hammer tracker.
//!
//! The controller reports every row activation via
//! [`ActivationTracker::on_activation`]. The tracker replies with a
//! [`TrackerResponse`] carrying:
//!
//! * zero or more [`MitigationRequest`]s — rows whose count reached the
//!   tracker threshold and must be mitigated now; and
//! * zero or more [`SideRequest`]s — extra DRAM traffic the tracker itself
//!   generates (e.g. Hydra's RCT fetches and write-backs, CRA's counter-line
//!   reads). The controller turns these into real queue entries so their
//!   bandwidth cost is simulated rather than assumed.
//!
//! The controller also reports the activations *it* causes — victim refreshes
//! from mitigation and the activations of tracker side requests — tagged with
//! the appropriate [`ActivationKind`], so defenses like Half-Double counting
//! (Sec. 5.2.1) and RIT-ACT counter-row protection (Sec. 5.2.2) see them.

use crate::addr::RowAddr;
use crate::clock::MemCycle;
use crate::mitigation::MitigationRequest;
use std::fmt;

/// Why a row was activated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationKind {
    /// A demand access from the workload (read or write).
    Demand,
    /// A victim refresh performed as a Row-Hammer mitigation. The paper counts
    /// these into the victim's own activation count (Half-Double defense).
    MitigationRefresh,
    /// An activation caused by the tracker's own side requests (e.g. a fetch
    /// of an RCT counter line opens the DRAM row that stores the RCT).
    TrackerSide,
}

impl fmt::Display for ActivationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ActivationKind::Demand => "demand",
            ActivationKind::MitigationRefresh => "mitigation-refresh",
            ActivationKind::TrackerSide => "tracker-side",
        };
        f.write_str(s)
    }
}

/// Whether a side request reads or writes DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SideRequestKind {
    /// Fetch a metadata line (e.g. an RCT or CRA counter line).
    Read,
    /// Write back a metadata line (e.g. a dirty RCC eviction).
    Write,
}

/// Extra DRAM traffic generated by a tracker.
///
/// Side requests target metadata stored in a reserved region of DRAM; the
/// tracker identifies the *row* holding the metadata line. The controller
/// schedules them like ordinary requests (off the critical path of the demand
/// access that produced them — Sec. 5.3 notes they cost bandwidth, not
/// latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SideRequest {
    /// The DRAM row that stores the metadata line being accessed.
    pub row: RowAddr,
    /// Read or write.
    pub kind: SideRequestKind,
}

impl SideRequest {
    /// Creates a metadata read targeting `row`.
    pub const fn read(row: RowAddr) -> Self {
        SideRequest {
            row,
            kind: SideRequestKind::Read,
        }
    }

    /// Creates a metadata write targeting `row`.
    pub const fn write(row: RowAddr) -> Self {
        SideRequest {
            row,
            kind: SideRequestKind::Write,
        }
    }
}

/// A tracker's reply to one activation report.
///
/// Both vectors are almost always empty, which costs nothing: an empty `Vec`
/// does not allocate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrackerResponse {
    /// Rows that reached the tracker threshold and must be mitigated.
    pub mitigations: Vec<MitigationRequest>,
    /// Extra DRAM traffic (metadata reads/writes) to schedule.
    pub side_requests: Vec<SideRequest>,
}

impl TrackerResponse {
    /// A response requesting nothing.
    pub fn none() -> Self {
        TrackerResponse::default()
    }

    /// A response requesting a single mitigation and no side traffic.
    pub fn mitigate(aggressor: RowAddr) -> Self {
        TrackerResponse {
            mitigations: vec![MitigationRequest::new(aggressor)],
            side_requests: Vec::new(),
        }
    }

    /// True if the response requests neither mitigation nor side traffic.
    pub fn is_empty(&self) -> bool {
        self.mitigations.is_empty() && self.side_requests.is_empty()
    }

    /// Merges another response into this one (used when one event, such as a
    /// group spill, produces both side traffic and a mitigation).
    pub fn merge(&mut self, other: TrackerResponse) {
        self.mitigations.extend(other.mitigations);
        self.side_requests.extend(other.side_requests);
    }
}

/// A Row-Hammer activation tracker.
///
/// Implemented by Hydra ([`hydra-core`]), Graphene, CRA, PARA, vendor TRR
/// and the OCPR oracle ([`hydra-baselines`]), and the successor trackers
/// the arena races (`hydra-arena`). The memory controller drives it:
///
/// 1. Every row activation (demand, mitigation refresh, or tracker-side) is
///    reported through [`on_activation`](Self::on_activation).
/// 2. Every 64 ms tracking window the controller calls
///    [`reset_window`](Self::reset_window).
///
/// Implementations must be deterministic given the call sequence (PARA takes
/// a seeded RNG at construction), so experiments are reproducible.
///
/// [`params`](Self::params) and [`max_spillover`](Self::max_spillover) are
/// introspection for result rows, with defaults. A wrapper that forwards
/// the required methods must forward these too, or every tracker behind
/// it reports the defaults.
pub trait ActivationTracker {
    /// Reports that `row` was activated at time `now`, and returns the
    /// mitigations and side traffic the tracker requires.
    ///
    /// The controller must report *all* activations, including those caused
    /// by mitigation (`kind == MitigationRefresh`) and by the tracker's own
    /// side requests (`kind == TrackerSide`); the tracker decides how each
    /// kind feeds its counters.
    fn on_activation(
        &mut self,
        row: RowAddr,
        now: MemCycle,
        kind: ActivationKind,
    ) -> TrackerResponse;

    /// Resets per-window state (Hydra: GCT, RCC and RIT-ACT; Graphene: its
    /// tables). Called at every tracking-window boundary (64 ms by default;
    /// Sec. 4.6).
    fn reset_window(&mut self, now: MemCycle);

    /// A short human-readable name ("hydra", "graphene", "cra", …).
    fn name(&self) -> &str;

    /// Total SRAM bytes this tracker's on-chip structures occupy (for the
    /// storage tables). Analytic models may return 0 when not meaningful.
    fn sram_bytes(&self) -> u64;

    /// A human-readable parameter summary (threshold, table sizes, seed, …)
    /// for result rows. Empty when the tracker has nothing to report.
    fn params(&self) -> String {
        String::new()
    }

    /// The worst counting over-estimate the tracker has accrued so far
    /// (Misra-Gries spillover, sketch collision slack, group spills, …).
    /// Exact trackers report 0.
    fn max_spillover(&self) -> u64 {
        0
    }
}

impl<T: ActivationTracker + ?Sized> ActivationTracker for Box<T> {
    fn on_activation(
        &mut self,
        row: RowAddr,
        now: MemCycle,
        kind: ActivationKind,
    ) -> TrackerResponse {
        (**self).on_activation(row, now, kind)
    }

    fn reset_window(&mut self, now: MemCycle) {
        (**self).reset_window(now)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn sram_bytes(&self) -> u64 {
        (**self).sram_bytes()
    }

    fn params(&self) -> String {
        (**self).params()
    }

    fn max_spillover(&self) -> u64 {
        (**self).max_spillover()
    }
}

/// A tracker that never mitigates and generates no traffic — the non-secure
/// baseline the paper normalizes performance against.
///
/// # Example
///
/// ```
/// use hydra_types::tracker::{ActivationTracker, ActivationKind, NullTracker};
/// use hydra_types::addr::RowAddr;
/// let mut t = NullTracker;
/// let resp = t.on_activation(RowAddr::default(), 0, ActivationKind::Demand);
/// assert!(resp.is_empty());
/// assert_eq!(t.sram_bytes(), 0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTracker;

impl ActivationTracker for NullTracker {
    fn on_activation(
        &mut self,
        _row: RowAddr,
        _now: MemCycle,
        _kind: ActivationKind,
    ) -> TrackerResponse {
        TrackerResponse::none()
    }

    fn reset_window(&mut self, _now: MemCycle) {}

    fn name(&self) -> &str {
        "none"
    }

    fn sram_bytes(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_response_is_empty() {
        assert!(TrackerResponse::none().is_empty());
        assert!(TrackerResponse::default().is_empty());
    }

    #[test]
    fn mitigate_response_contains_aggressor() {
        let row = RowAddr::new(0, 0, 1, 7);
        let r = TrackerResponse::mitigate(row);
        assert!(!r.is_empty());
        assert_eq!(r.mitigations[0].aggressor, row);
    }

    #[test]
    fn merge_concatenates() {
        let a_row = RowAddr::new(0, 0, 0, 1);
        let b_row = RowAddr::new(0, 0, 0, 2);
        let mut a = TrackerResponse::mitigate(a_row);
        let mut b = TrackerResponse::mitigate(b_row);
        b.side_requests.push(SideRequest::read(a_row));
        a.merge(b);
        assert_eq!(a.mitigations.len(), 2);
        assert_eq!(a.side_requests.len(), 1);
    }

    #[test]
    fn null_tracker_is_inert() {
        let mut t = NullTracker;
        for i in 0..1000 {
            let r = t.on_activation(
                RowAddr::new(0, 0, 0, i),
                u64::from(i),
                ActivationKind::Demand,
            );
            assert!(r.is_empty());
        }
        t.reset_window(0);
        assert_eq!(t.name(), "none");
    }

    #[test]
    fn trait_is_object_safe() {
        let mut boxed: Box<dyn ActivationTracker> = Box::new(NullTracker);
        let _ = boxed.on_activation(RowAddr::default(), 0, ActivationKind::Demand);
    }

    /// Overrides every defaulted method, so a missed forward shows.
    struct Introspective;

    impl ActivationTracker for Introspective {
        fn on_activation(
            &mut self,
            _row: RowAddr,
            _now: MemCycle,
            _kind: ActivationKind,
        ) -> TrackerResponse {
            TrackerResponse::none()
        }

        fn reset_window(&mut self, _now: MemCycle) {}

        fn name(&self) -> &str {
            "introspective"
        }

        fn sram_bytes(&self) -> u64 {
            3
        }

        fn params(&self) -> String {
            "k=v".to_string()
        }

        fn max_spillover(&self) -> u64 {
            7
        }
    }

    #[test]
    fn defaults_are_empty_and_box_forwards_overrides() {
        assert_eq!(NullTracker.params(), "");
        assert_eq!(NullTracker.max_spillover(), 0);
        let boxed: Box<dyn ActivationTracker> = Box::new(Introspective);
        assert_eq!(boxed.name(), "introspective");
        assert_eq!(boxed.sram_bytes(), 3);
        assert_eq!(boxed.params(), "k=v");
        assert_eq!(boxed.max_spillover(), 7);
    }

    #[test]
    fn side_request_constructors_set_kind() {
        let row = RowAddr::default();
        assert_eq!(SideRequest::read(row).kind, SideRequestKind::Read);
        assert_eq!(SideRequest::write(row).kind, SideRequestKind::Write);
    }
}
