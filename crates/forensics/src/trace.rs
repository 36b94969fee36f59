//! Trace-file replay: turning a `hydra trace` JSONL file back into the
//! event stream and feeding it through a [`ForensicsProbe`].
//!
//! Replay is exact: the probe classifies a replayed trace identically to a
//! live run, because [`classify`](crate::classify::classify) is a pure
//! function of signals the events fully determine. Lines that are not
//! events (the meta header, blanks) are skipped; malformed lines and
//! unknown event kinds are counted, not fatal, so a truncated trace still
//! yields a verdict for the prefix.

use crate::probe::ForensicsProbe;
use hydra_telemetry::{TelemetryEvent, TRACE_SCHEMA_VERSION};
use hydra_types::json::{parse, JsonValue};
use hydra_types::RowAddr;

/// Metadata recovered from a trace file's optional header line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceMeta {
    /// Workload name recorded by `JsonlSink::with_meta`, if any.
    pub workload: Option<String>,
    /// Tracker per-row threshold recorded in the header, if any.
    pub t_h: Option<u32>,
}

/// Counters from one replay pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Event lines successfully decoded and fed to the probe.
    pub events: u64,
    /// Non-event lines skipped (header, blanks).
    pub skipped: u64,
    /// Lines that failed to parse or named an unknown event kind.
    pub malformed: u64,
}

/// Parses the meta header if `line` is one (schema-stamped object with no
/// `"ev"` key).
pub fn parse_trace_meta(line: &str) -> Option<TraceMeta> {
    let v = parse(line.trim()).ok()?;
    if v.get("schema").and_then(JsonValue::as_str) != Some(TRACE_SCHEMA_VERSION) {
        return None;
    }
    Some(TraceMeta {
        workload: v
            .get("workload")
            .and_then(JsonValue::as_str)
            .map(str::to_owned),
        t_h: v
            .get("t_h")
            .and_then(JsonValue::as_u64)
            .and_then(|n| u32::try_from(n).ok()),
    })
}

/// Decodes one event line into `(cycle, event)`.
///
/// Returns `None` for anything that is not a well-formed event object with
/// a known `"ev"` kind and the payload fields that kind requires.
pub fn parse_event_line(line: &str) -> Option<(u64, TelemetryEvent)> {
    let v = parse(line.trim()).ok()?;
    let now = v.get("t").and_then(JsonValue::as_u64)?;
    let name = v.get("ev").and_then(JsonValue::as_str)?;

    let group = || v.get("group").and_then(JsonValue::as_u64);
    let slot = || v.get("slot").and_then(JsonValue::as_u64);
    let row = || {
        Some(RowAddr {
            channel: u8::try_from(v.get("ch").and_then(JsonValue::as_u64)?).ok()?,
            rank: u8::try_from(v.get("rank").and_then(JsonValue::as_u64)?).ok()?,
            bank: u8::try_from(v.get("bank").and_then(JsonValue::as_u64)?).ok()?,
            row: u32::try_from(v.get("row").and_then(JsonValue::as_u64)?).ok()?,
        })
    };

    let event = match name {
        "gct_only" => TelemetryEvent::GctOnly { group: group()? },
        "group_spill" => TelemetryEvent::GroupSpill { group: group()? },
        "rcc_hit" => TelemetryEvent::RccHit { slot: slot()? },
        "rcc_miss" => TelemetryEvent::RccMiss { slot: slot()? },
        "rcc_evict" => TelemetryEvent::RccEvict {
            slot: slot()?,
            writeback: v.get("writeback").and_then(JsonValue::as_bool)?,
        },
        "rct_read" => TelemetryEvent::RctRead { slot: slot()? },
        "rct_write" => TelemetryEvent::RctWrite { slot: slot()? },
        "mitigation" => TelemetryEvent::Mitigation { row: row()? },
        "rit_mitigation" => TelemetryEvent::RitMitigation { row: row()? },
        "reserved_activation" => TelemetryEvent::ReservedActivation { row: row()? },
        "window_reset" => TelemetryEvent::WindowReset {
            window: v.get("window").and_then(JsonValue::as_u64)?,
        },
        "rct_access" => TelemetryEvent::RctAccess {
            row: row()?,
            count: u32::try_from(v.get("count").and_then(JsonValue::as_u64)?).ok()?,
        },
        _ => return None,
    };
    Some((now, event))
}

/// Replays a whole trace file (text) through `probe`, closing the tail
/// window. The meta header, when present, is applied to the probe's
/// workload tag by the caller (who also needs it to size the probe —
/// see [`parse_trace_meta`]).
pub fn replay_trace(text: &str, probe: &mut ForensicsProbe) -> ReplaySummary {
    use hydra_telemetry::EventSink as _;
    let mut summary = ReplaySummary::default();
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() || parse_trace_meta(trimmed).is_some() {
            summary.skipped += 1;
            continue;
        }
        match parse_event_line(trimmed) {
            Some((now, event)) => {
                probe.emit(now, event);
                summary.events += 1;
            }
            None => summary.malformed += 1,
        }
    }
    probe.finish();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_telemetry::EventKind;

    #[test]
    fn meta_header_roundtrips_from_jsonl_sink() {
        use hydra_telemetry::{EventSink as _, JsonlSink};
        let mut sink = JsonlSink::new().with_meta("große\"trace", 250);
        sink.emit(5, TelemetryEvent::GctOnly { group: 1 });
        let text = sink.into_string();
        let mut lines = text.lines();
        let meta = parse_trace_meta(lines.next().expect("header")).expect("meta parses");
        assert_eq!(meta.workload.as_deref(), Some("große\"trace"));
        assert_eq!(meta.t_h, Some(250));
        // The event line is not a meta header.
        assert_eq!(parse_trace_meta(lines.next().expect("event")), None);
    }

    #[test]
    fn every_event_kind_roundtrips_through_json() {
        let row = RowAddr::new(1, 0, 3, 77);
        let events = [
            TelemetryEvent::GctOnly { group: 9 },
            TelemetryEvent::GroupSpill { group: 2 },
            TelemetryEvent::RccHit { slot: 4 },
            TelemetryEvent::RccMiss { slot: 5 },
            TelemetryEvent::RccEvict {
                slot: 6,
                writeback: true,
            },
            TelemetryEvent::RctRead { slot: 7 },
            TelemetryEvent::RctWrite { slot: 8 },
            TelemetryEvent::Mitigation { row },
            TelemetryEvent::RitMitigation { row },
            TelemetryEvent::ReservedActivation { row },
            TelemetryEvent::WindowReset { window: 3 },
            TelemetryEvent::RctAccess { row, count: 123 },
        ];
        assert_eq!(events.len(), EventKind::COUNT, "update when adding kinds");
        for (i, ev) in events.iter().enumerate() {
            let line = ev.to_json(1000 + i as u64);
            let (now, back) = parse_event_line(&line)
                .unwrap_or_else(|| panic!("kind {:?} failed to parse: {line}", ev.kind()));
            assert_eq!(now, 1000 + i as u64);
            assert_eq!(back, *ev);
        }
    }

    #[test]
    fn replay_matches_live_probe() {
        // Build a synthetic attack stream, serialize it, replay it, and
        // check the replayed probe reaches the identical verdict.
        let t_h = 64u32;
        let hot = RowAddr::new(0, 0, 1, 500);
        let mut live = ForensicsProbe::new(t_h);
        let mut text = String::new();
        let mut count = 0u32;
        {
            use hydra_telemetry::EventSink as _;
            for i in 0..1_500u64 {
                count += 1;
                let ev = if count >= t_h {
                    count = 0;
                    TelemetryEvent::Mitigation { row: hot }
                } else {
                    TelemetryEvent::RctAccess { row: hot, count }
                };
                live.emit(i, ev);
                text.push_str(&ev.to_json(i));
                text.push('\n');
            }
            live.finish();
        }
        let mut replayed = ForensicsProbe::new(t_h);
        let summary = replay_trace(&text, &mut replayed);
        assert_eq!(summary.events, 1_500);
        assert_eq!(summary.malformed, 0);
        assert_eq!(replayed.verdict(), live.verdict());
        assert_eq!(replayed.reports(), live.reports());
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let text = "\n{\"t\":1,\"ev\":\"gct_only\",\"group\":0}\nnot json\n\
                    {\"t\":2,\"ev\":\"mystery_event\"}\n{\"t\":3}\n";
        let mut probe = ForensicsProbe::new(16);
        let summary = replay_trace(text, &mut probe);
        assert_eq!(summary.events, 1);
        assert_eq!(summary.skipped, 1, "blank line");
        assert_eq!(summary.malformed, 3);
    }
}
