//! The event taxonomy: everything the instrumented hot paths can report.

use hydra_types::RowAddr;
use std::fmt::Write as _;

/// One instrumented happening inside the tracker.
///
/// Events carry the minimal payload needed to reconstruct what happened;
/// the emission timestamp travels separately (see
/// [`EventSink::emit`](crate::EventSink::emit)) so `Copy` event values stay
/// 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryEvent {
    /// An activation fully absorbed by the GCT (entry below `T_G`).
    GctOnly {
        /// Row-group index whose GCT entry was incremented.
        group: u64,
    },
    /// A GCT entry reached `T_G`: the group spilled to the RCT.
    GroupSpill {
        /// Row-group index that saturated.
        group: u64,
    },
    /// Per-row path found the row's count in the RCC.
    RccHit {
        /// RCT slot (permuted row index) that hit.
        slot: u64,
    },
    /// Per-row path missed in the RCC (an RCT read follows).
    RccMiss {
        /// RCT slot that missed.
        slot: u64,
    },
    /// An RCC fill evicted a victim entry.
    RccEvict {
        /// RCT slot of the evicted victim.
        slot: u64,
        /// True if the victim's count was written back to the RCT
        /// (false only in the insecure no-writeback ablation).
        writeback: bool,
    },
    /// A counter was read from the in-DRAM RCT.
    RctRead {
        /// RCT slot read.
        slot: u64,
    },
    /// A counter was written to the in-DRAM RCT.
    RctWrite {
        /// RCT slot written.
        slot: u64,
    },
    /// A mitigation (victim refresh) was issued for an ordinary row.
    Mitigation {
        /// The aggressor row being mitigated.
        row: RowAddr,
    },
    /// RIT-ACT issued a mitigation for a reserved (RCT-storage) row.
    RitMitigation {
        /// The reserved aggressor row.
        row: RowAddr,
    },
    /// An activation landed on a reserved (RCT-storage) row.
    ReservedActivation {
        /// The reserved row activated.
        row: RowAddr,
    },
    /// The tracking window was reset (SRAM cleared, indexer re-keyed).
    WindowReset {
        /// Number of completed windows after this reset (1-based).
        window: u64,
    },
    /// A per-row tracking-path count observation: the row's counter was
    /// consulted and updated (RCC hit, RCT read, or spill install), and its
    /// post-increment value is reported.
    ///
    /// This is the attribution seam: unlike the slot-keyed RCC/RCT events,
    /// it names the *row*, so streaming analyzers (`hydra-forensics`) can
    /// reconstruct per-row activation timelines without reversing the
    /// per-window randomized slot permutation. Exactly one `RctAccess` is
    /// emitted per per-row-path activation
    /// (`rcc_hits + rct_accesses` in `HydraStats` terms).
    RctAccess {
        /// The row whose counter was touched.
        row: RowAddr,
        /// The row's updated activation count, *before* the reset to zero
        /// that a triggered mitigation performs.
        count: u32,
    },
}

/// The kind (discriminant) of a [`TelemetryEvent`], payload stripped.
///
/// Used for per-kind counting and filtering; [`EventKind::ALL`] enumerates
/// every kind in a stable order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// See [`TelemetryEvent::GctOnly`].
    GctOnly,
    /// See [`TelemetryEvent::GroupSpill`].
    GroupSpill,
    /// See [`TelemetryEvent::RccHit`].
    RccHit,
    /// See [`TelemetryEvent::RccMiss`].
    RccMiss,
    /// See [`TelemetryEvent::RccEvict`].
    RccEvict,
    /// See [`TelemetryEvent::RctRead`].
    RctRead,
    /// See [`TelemetryEvent::RctWrite`].
    RctWrite,
    /// See [`TelemetryEvent::Mitigation`].
    Mitigation,
    /// See [`TelemetryEvent::RitMitigation`].
    RitMitigation,
    /// See [`TelemetryEvent::ReservedActivation`].
    ReservedActivation,
    /// See [`TelemetryEvent::WindowReset`].
    WindowReset,
    /// See [`TelemetryEvent::RctAccess`].
    RctAccess,
}

impl EventKind {
    /// Every kind, in declaration order. `ALL[k.index()] == k`.
    pub const ALL: [EventKind; 12] = [
        EventKind::GctOnly,
        EventKind::GroupSpill,
        EventKind::RccHit,
        EventKind::RccMiss,
        EventKind::RccEvict,
        EventKind::RctRead,
        EventKind::RctWrite,
        EventKind::Mitigation,
        EventKind::RitMitigation,
        EventKind::ReservedActivation,
        EventKind::WindowReset,
        EventKind::RctAccess,
    ];

    /// Number of distinct kinds.
    pub const COUNT: usize = Self::ALL.len();

    /// This kind's position in [`EventKind::ALL`]: its declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::GctOnly => "gct_only",
            EventKind::GroupSpill => "group_spill",
            EventKind::RccHit => "rcc_hit",
            EventKind::RccMiss => "rcc_miss",
            EventKind::RccEvict => "rcc_evict",
            EventKind::RctRead => "rct_read",
            EventKind::RctWrite => "rct_write",
            EventKind::Mitigation => "mitigation",
            EventKind::RitMitigation => "rit_mitigation",
            EventKind::ReservedActivation => "reserved_activation",
            EventKind::WindowReset => "window_reset",
            EventKind::RctAccess => "rct_access",
        }
    }

    /// Parses the stable snake_case [`Self::name`] back into a kind.
    ///
    /// Returns `None` for unknown names; used by `hydra trace --kinds` and
    /// trace-file replay.
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

impl TelemetryEvent {
    /// This event's kind (payload stripped).
    pub fn kind(&self) -> EventKind {
        match self {
            TelemetryEvent::GctOnly { .. } => EventKind::GctOnly,
            TelemetryEvent::GroupSpill { .. } => EventKind::GroupSpill,
            TelemetryEvent::RccHit { .. } => EventKind::RccHit,
            TelemetryEvent::RccMiss { .. } => EventKind::RccMiss,
            TelemetryEvent::RccEvict { .. } => EventKind::RccEvict,
            TelemetryEvent::RctRead { .. } => EventKind::RctRead,
            TelemetryEvent::RctWrite { .. } => EventKind::RctWrite,
            TelemetryEvent::Mitigation { .. } => EventKind::Mitigation,
            TelemetryEvent::RitMitigation { .. } => EventKind::RitMitigation,
            TelemetryEvent::ReservedActivation { .. } => EventKind::ReservedActivation,
            TelemetryEvent::WindowReset { .. } => EventKind::WindowReset,
            TelemetryEvent::RctAccess { .. } => EventKind::RctAccess,
        }
    }

    /// Appends this event as one JSON object (no trailing newline) to `out`.
    ///
    /// Schema: `{"t":<cycle>,"ev":"<kind>", ...payload}` with payload keys
    /// per variant (`group`, `slot`, `writeback`, `ch`/`rank`/`bank`/`row`,
    /// `window`, `count`). Hand-rolled: every payload is
    /// numeric or a fixed identifier, so no string escaping is needed.
    pub fn write_json(&self, now: u64, out: &mut String) {
        // Writing to a String cannot fail; `let _ =` keeps this path
        // allocation-only without an unwrap.
        let _ = write!(out, "{{\"t\":{now},\"ev\":\"{}\"", self.kind().name());
        match *self {
            TelemetryEvent::GctOnly { group } | TelemetryEvent::GroupSpill { group } => {
                let _ = write!(out, ",\"group\":{group}");
            }
            TelemetryEvent::RccHit { slot }
            | TelemetryEvent::RccMiss { slot }
            | TelemetryEvent::RctRead { slot }
            | TelemetryEvent::RctWrite { slot } => {
                let _ = write!(out, ",\"slot\":{slot}");
            }
            TelemetryEvent::RccEvict { slot, writeback } => {
                let _ = write!(out, ",\"slot\":{slot},\"writeback\":{writeback}");
            }
            TelemetryEvent::Mitigation { row }
            | TelemetryEvent::RitMitigation { row }
            | TelemetryEvent::ReservedActivation { row } => {
                let _ = write!(
                    out,
                    ",\"ch\":{},\"rank\":{},\"bank\":{},\"row\":{}",
                    row.channel, row.rank, row.bank, row.row
                );
            }
            TelemetryEvent::WindowReset { window } => {
                let _ = write!(out, ",\"window\":{window}");
            }
            TelemetryEvent::RctAccess { row, count } => {
                let _ = write!(
                    out,
                    ",\"ch\":{},\"rank\":{},\"bank\":{},\"row\":{},\"count\":{count}",
                    row.channel, row.rank, row.bank, row.row
                );
            }
        }
        out.push('}');
    }

    /// Renders this event as one JSON line (no trailing newline).
    pub fn to_json(&self, now: u64) -> String {
        let mut s = String::with_capacity(64);
        self.write_json(now, &mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_kind_in_order() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        assert_eq!(EventKind::COUNT, EventKind::ALL.len());
    }

    #[test]
    fn kind_names_are_unique() {
        let mut names: Vec<_> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::COUNT);
    }

    #[test]
    fn json_rendering_per_variant() {
        let ev = TelemetryEvent::GctOnly { group: 7 };
        assert_eq!(ev.to_json(123), r#"{"t":123,"ev":"gct_only","group":7}"#);

        let ev = TelemetryEvent::RccEvict {
            slot: 5,
            writeback: true,
        };
        assert_eq!(
            ev.to_json(0),
            r#"{"t":0,"ev":"rcc_evict","slot":5,"writeback":true}"#
        );

        let ev = TelemetryEvent::Mitigation {
            row: RowAddr::new(1, 0, 3, 99),
        };
        assert_eq!(
            ev.to_json(9),
            r#"{"t":9,"ev":"mitigation","ch":1,"rank":0,"bank":3,"row":99}"#
        );

        let ev = TelemetryEvent::RctAccess {
            row: RowAddr::new(0, 1, 2, 250),
            count: 249,
        };
        assert_eq!(
            ev.to_json(44),
            r#"{"t":44,"ev":"rct_access","ch":0,"rank":1,"bank":2,"row":250,"count":249}"#
        );
    }

    #[test]
    fn from_name_roundtrips_every_kind() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(EventKind::from_name("no_such_event"), None);
    }

    #[test]
    fn kind_roundtrip_matches_variant() {
        let cases = [
            (
                TelemetryEvent::GroupSpill { group: 0 },
                EventKind::GroupSpill,
            ),
            (
                TelemetryEvent::WindowReset { window: 1 },
                EventKind::WindowReset,
            ),
        ];
        for (ev, kind) in cases {
            assert_eq!(ev.kind(), kind);
        }
    }
}
