//! The `hydra-serve-v1` wire protocol: a versioned, checksummed,
//! length-prefixed frame codec that survives hostile bytes.
//!
//! Every frame is `[magic "HY"] [version] [kind] [payload len, u32 LE]
//! [FNV-1a checksum, u32 LE] [payload]` — a 12-byte header. The
//! checksum covers the version and kind bytes as well as the payload, so
//! a single corrupted bit anywhere semantic (including a kind byte that
//! would otherwise morph one valid frame into another) is detected.
//! The codec's contract, proven by the proptests and fuzz corpus in
//! `tests/frame_codec.rs`:
//!
//! * `decode(encode(f)) == f` for every representable frame;
//! * the [`Decoder`] **never panics** on arbitrary byte soup;
//! * a malformed frame (bad magic, wrong version, unknown kind, oversize
//!   length, checksum mismatch, unparseable payload) is surfaced as a
//!   [`DecodeEvent::Rejected`] with a [`RejectReason`] and the connection
//!   keeps decoding — the decoder resynchronizes on the next magic bytes
//!   instead of dying;
//! * bytes left over at end-of-stream are reported as
//!   [`RejectReason::Truncated`], so a client killed mid-frame is
//!   accounted, not silently swallowed.
//!
//! Payload limits ([`MAX_PAYLOAD`], [`MAX_BATCH_ROWS`],
//! [`MAX_TENANT_LEN`]) bound what one frame can make the daemon buffer:
//! backpressure is enforced per frame before any allocation trusts the
//! attacker-controlled length field.

/// Schema identifier of the serve wire protocol and its recorded session
/// files.
///
/// This is the single definition of the literal; the `repo_policy` test
/// of `hydra-analysis` enforces that no other library source repeats it.
pub const SERVE_SCHEMA_VERSION: &str = "hydra-serve-v1";

/// Frame magic: ASCII `HY`.
pub const WIRE_MAGIC: [u8; 2] = [0x48, 0x59];

/// Wire protocol version byte.
pub const WIRE_VERSION: u8 = 1;

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 12;

/// Largest accepted payload. A length field above this is rejected
/// *before* any buffering, so a hostile header cannot make the daemon
/// allocate gigabytes.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Most packed rows one activation batch may carry.
pub const MAX_BATCH_ROWS: usize = 65_536;

/// Longest accepted tenant name, in bytes.
pub const MAX_TENANT_LEN: usize = 64;

/// Why a byte sequence was rejected by the decoder (or a frame by the
/// daemon's semantic checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// Bytes did not start with the frame magic.
    BadMagic,
    /// Unsupported protocol version.
    BadVersion,
    /// Unknown frame kind.
    BadKind,
    /// Payload length exceeds [`MAX_PAYLOAD`].
    Oversize,
    /// Payload checksum mismatch (corruption in flight).
    BadChecksum,
    /// Payload structure failed to parse.
    BadPayload,
    /// Stream ended mid-frame.
    Truncated,
    /// Batch sequence number was not strictly increasing (duplicate or
    /// replayed frame).
    BadSequence,
    /// Frame kind is valid but not permitted on this connection (e.g.
    /// `Crash` without the daemon's chaos flag).
    NotAllowed,
}

impl RejectReason {
    /// All reasons, in wire-code order.
    pub const ALL: [RejectReason; 9] = [
        RejectReason::BadMagic,
        RejectReason::BadVersion,
        RejectReason::BadKind,
        RejectReason::Oversize,
        RejectReason::BadChecksum,
        RejectReason::BadPayload,
        RejectReason::Truncated,
        RejectReason::BadSequence,
        RejectReason::NotAllowed,
    ];

    /// Stable wire code.
    pub fn code(self) -> u8 {
        match self {
            RejectReason::BadMagic => 0,
            RejectReason::BadVersion => 1,
            RejectReason::BadKind => 2,
            RejectReason::Oversize => 3,
            RejectReason::BadChecksum => 4,
            RejectReason::BadPayload => 5,
            RejectReason::Truncated => 6,
            RejectReason::BadSequence => 7,
            RejectReason::NotAllowed => 8,
        }
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(code: u8) -> Option<Self> {
        RejectReason::ALL.get(usize::from(code)).copied()
    }

    /// Stable kebab-case name (telemetry counter key).
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::BadMagic => "bad-magic",
            RejectReason::BadVersion => "bad-version",
            RejectReason::BadKind => "bad-kind",
            RejectReason::Oversize => "oversize",
            RejectReason::BadChecksum => "bad-checksum",
            RejectReason::BadPayload => "bad-payload",
            RejectReason::Truncated => "truncated",
            RejectReason::BadSequence => "bad-sequence",
            RejectReason::NotAllowed => "not-allowed",
        }
    }
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → daemon: open a tenant ingest stream.
    Hello {
        /// Tenant name (1–[`MAX_TENANT_LEN`] bytes of `[A-Za-z0-9_-]`,
        /// validated by the daemon).
        tenant: String,
    },
    /// Client → daemon: one activation batch of packed rows (see
    /// `hydra_forensics::pack_row`). `seq` must be strictly increasing
    /// per tenant; duplicates are rejected with
    /// [`RejectReason::BadSequence`], which is what makes wire-level
    /// frame duplication harmless.
    Batch {
        /// Per-tenant, strictly increasing batch sequence number.
        seq: u64,
        /// Packed row addresses to activate, in order.
        rows: Vec<u64>,
    },
    /// Client → daemon: this connection wants the incident feed.
    Subscribe,
    /// Daemon → client: batch `seq` was accepted with `accepted` rows.
    Ack {
        /// Echo of the accepted batch's sequence number.
        seq: u64,
        /// Rows actually applied.
        accepted: u32,
    },
    /// Daemon → client: overloaded, retry after the hinted backoff.
    Busy {
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u32,
    },
    /// Daemon → client: the previous bytes/frame were rejected.
    Reject {
        /// Why.
        reason: RejectReason,
    },
    /// Daemon → subscriber: one `hydra-forensics-v1` incident line.
    Incident {
        /// Tenant the incident belongs to.
        tenant: String,
        /// The incident's JSONL line, verbatim.
        line: String,
    },
    /// Client → daemon: deliberately panic this tenant's shard (chaos
    /// testing; honored only when the daemon runs with
    /// `allow_crash_frames`).
    Crash,
    /// Client → daemon: drain and shut down gracefully.
    Drain,
    /// Client → daemon: request a live [`StatsSnapshot`](Frame::StatsSnapshot).
    /// Allowed on any connection; on subscriber connections the reply is
    /// routed through the subscriber queue so it never interleaves with
    /// incident frames or blocks the publisher.
    StatsRequest,
    /// Daemon → client: a point-in-time stats snapshot.
    StatsSnapshot {
        /// The `hydra-serve-stats-v1` JSON payload (see
        /// [`crate::stats::SERVE_STATS_SCHEMA_VERSION`]).
        json: String,
    },
}

impl Frame {
    /// Stable wire kind code.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::Batch { .. } => 2,
            Frame::Subscribe => 3,
            Frame::Ack { .. } => 4,
            Frame::Busy { .. } => 5,
            Frame::Reject { .. } => 6,
            Frame::Incident { .. } => 7,
            Frame::Crash => 8,
            Frame::Drain => 9,
            Frame::StatsRequest => 10,
            Frame::StatsSnapshot { .. } => 11,
        }
    }

    /// Encodes the frame: header + payload.
    ///
    /// Strings longer than their field width and batches above
    /// [`MAX_BATCH_ROWS`] are truncated to the maximum — the encoder
    /// never produces a frame its own decoder would reject for size.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.payload();
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&WIRE_MAGIC);
        out.push(WIRE_VERSION);
        out.push(self.kind());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&frame_checksum(WIRE_VERSION, self.kind(), &payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Frame::Hello { tenant } => {
                put_str16(&mut out, tenant, MAX_TENANT_LEN);
            }
            Frame::Batch { seq, rows } => {
                out.extend_from_slice(&seq.to_le_bytes());
                let n = rows.len().min(MAX_BATCH_ROWS);
                out.extend_from_slice(&(n as u32).to_le_bytes());
                for row in rows.iter().take(n) {
                    out.extend_from_slice(&row.to_le_bytes());
                }
            }
            Frame::Subscribe | Frame::Crash | Frame::Drain | Frame::StatsRequest => {}
            Frame::Ack { seq, accepted } => {
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&accepted.to_le_bytes());
            }
            Frame::Busy { retry_after_ms } => {
                out.extend_from_slice(&retry_after_ms.to_le_bytes());
            }
            Frame::Reject { reason } => {
                out.push(reason.code());
            }
            Frame::Incident { tenant, line } => {
                put_str16(&mut out, tenant, MAX_TENANT_LEN);
                let budget = MAX_PAYLOAD - out.len() - 4;
                put_str32(&mut out, line, budget);
            }
            Frame::StatsSnapshot { json } => {
                put_str32(&mut out, json, MAX_PAYLOAD - 4);
            }
        }
        out
    }

    fn parse(kind: u8, payload: &[u8]) -> Result<Frame, RejectReason> {
        let mut r = Reader::new(payload);
        let frame = match kind {
            1 => Frame::Hello {
                tenant: r.str16(MAX_TENANT_LEN)?,
            },
            2 => {
                let seq = r.u64()?;
                let n = r.u32()? as usize;
                if n > MAX_BATCH_ROWS || n != r.remaining() / 8 {
                    return Err(RejectReason::BadPayload);
                }
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(r.u64()?);
                }
                Frame::Batch { seq, rows }
            }
            3 => Frame::Subscribe,
            4 => Frame::Ack {
                seq: r.u64()?,
                accepted: r.u32()?,
            },
            5 => Frame::Busy {
                retry_after_ms: r.u32()?,
            },
            6 => Frame::Reject {
                reason: RejectReason::from_code(r.u8()?).ok_or(RejectReason::BadPayload)?,
            },
            7 => {
                let tenant = r.str16(MAX_TENANT_LEN)?;
                Frame::Incident {
                    tenant,
                    line: r.str32()?,
                }
            }
            8 => Frame::Crash,
            9 => Frame::Drain,
            10 => Frame::StatsRequest,
            11 => Frame::StatsSnapshot { json: r.str32()? },
            _ => return Err(RejectReason::BadKind),
        };
        r.done()?;
        Ok(frame)
    }
}

/// True iff `kind` is a known frame kind code.
fn known_kind(kind: u8) -> bool {
    (1..=11).contains(&kind)
}

/// What [`Decoder::next_event`] yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeEvent {
    /// A well-formed frame.
    Frame(Frame),
    /// Malformed bytes were skipped; decoding continues after them.
    Rejected {
        /// Why the bytes were rejected.
        reason: RejectReason,
        /// How many bytes were discarded.
        skipped: usize,
    },
}

/// Incremental, resynchronizing frame decoder.
///
/// Feed bytes with [`push`](Decoder::push), drain events with
/// [`next_event`](Decoder::next_event) until it returns `None` (= need more bytes),
/// and call [`finish`](Decoder::finish) at end-of-stream to account any
/// torn tail. Total buffered bytes stay bounded by
/// `HEADER_LEN + MAX_PAYLOAD` plus one read's worth of input: headers
/// claiming more than [`MAX_PAYLOAD`] are rejected without waiting for
/// their payload.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
}

impl Decoder {
    /// A fresh decoder.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Appends raw bytes from the wire.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Decodes the next event, or `None` if more bytes are needed.
    pub fn next_event(&mut self) -> Option<DecodeEvent> {
        if self.buf.is_empty() {
            return None;
        }
        // Resynchronize: if the buffer does not start with the magic,
        // skip to the next candidate magic byte and report the junk run.
        if self.buf[0] != WIRE_MAGIC[0] || (self.buf.len() >= 2 && self.buf[1] != WIRE_MAGIC[1]) {
            let skip = self.buf[1..]
                .iter()
                .position(|&b| b == WIRE_MAGIC[0])
                .map_or(self.buf.len(), |p| p + 1);
            self.buf.drain(..skip);
            return Some(DecodeEvent::Rejected {
                reason: RejectReason::BadMagic,
                skipped: skip,
            });
        }
        if self.buf.len() < HEADER_LEN {
            return None; // plausible header still arriving
        }
        let version = self.buf[2];
        let kind = self.buf[3];
        let len = u32::from_le_bytes([self.buf[4], self.buf[5], self.buf[6], self.buf[7]]) as usize;
        // Header-field rejections skip only the magic: the rest of the
        // header is untrusted, so resync rescans it for a genuine frame.
        if version != WIRE_VERSION {
            return Some(self.reject_resync(RejectReason::BadVersion));
        }
        if !known_kind(kind) {
            return Some(self.reject_resync(RejectReason::BadKind));
        }
        if len > MAX_PAYLOAD {
            return Some(self.reject_resync(RejectReason::Oversize));
        }
        if self.buf.len() < HEADER_LEN + len {
            return None; // payload still arriving
        }
        let checksum = u32::from_le_bytes([self.buf[8], self.buf[9], self.buf[10], self.buf[11]]);
        let payload = &self.buf[HEADER_LEN..HEADER_LEN + len];
        if frame_checksum(version, kind, payload) != checksum {
            let total = HEADER_LEN + len;
            self.buf.drain(..total);
            return Some(DecodeEvent::Rejected {
                reason: RejectReason::BadChecksum,
                skipped: total,
            });
        }
        let parsed = Frame::parse(kind, payload);
        let total = HEADER_LEN + len;
        self.buf.drain(..total);
        match parsed {
            Ok(frame) => Some(DecodeEvent::Frame(frame)),
            Err(reason) => Some(DecodeEvent::Rejected {
                reason,
                skipped: total,
            }),
        }
    }

    /// Ends the stream: any buffered partial frame is reported as
    /// [`RejectReason::Truncated`] and discarded.
    pub fn finish(&mut self) -> Option<DecodeEvent> {
        if self.buf.is_empty() {
            return None;
        }
        let skipped = self.buf.len();
        self.buf.clear();
        Some(DecodeEvent::Rejected {
            reason: RejectReason::Truncated,
            skipped,
        })
    }

    fn reject_resync(&mut self, reason: RejectReason) -> DecodeEvent {
        self.buf.drain(..WIRE_MAGIC.len());
        DecodeEvent::Rejected {
            reason,
            skipped: WIRE_MAGIC.len(),
        }
    }
}

/// 32-bit FNV-1a over `bytes` — cheap, dependency-free checksum core.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    fnv1a32_update(0x811c_9dc5, bytes)
}

fn fnv1a32_update(mut hash: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// The frame checksum: FNV-1a over `[version, kind]` followed by the
/// payload. Covering the header's semantic bytes means a bit flip that
/// rewrites the frame kind cannot silently produce a different valid
/// frame.
pub fn frame_checksum(version: u8, kind: u8, payload: &[u8]) -> u32 {
    fnv1a32_update(fnv1a32(&[version, kind]), payload)
}

fn put_str16(out: &mut Vec<u8>, s: &str, max: usize) {
    let bytes = truncate_utf8(s, max);
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn put_str32(out: &mut Vec<u8>, s: &str, max: usize) {
    let bytes = truncate_utf8(s, max);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// The longest prefix of `s` that fits in `max` bytes, cut on a char
/// boundary so the result stays valid UTF-8 (the decoder re-validates).
fn truncate_utf8(s: &str, max: usize) -> &[u8] {
    let mut end = s.len().min(max);
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    &s.as_bytes()[..end]
}

/// Bounds-checked little-endian payload reader; every read that would
/// run past the end returns `Err(BadPayload)` instead of panicking.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], RejectReason> {
        if self.remaining() < n {
            return Err(RejectReason::BadPayload);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, RejectReason> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, RejectReason> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, RejectReason> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn u16(&mut self) -> Result<u16, RejectReason> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn str16(&mut self, max: usize) -> Result<String, RejectReason> {
        let len = usize::from(self.u16()?);
        if len > max {
            return Err(RejectReason::BadPayload);
        }
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| RejectReason::BadPayload)
    }

    fn str32(&mut self) -> Result<String, RejectReason> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| RejectReason::BadPayload)
    }

    fn done(&self) -> Result<(), RejectReason> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(RejectReason::BadPayload)
        }
    }
}

/// True iff `name` is a valid tenant name: 1–[`MAX_TENANT_LEN`] bytes of
/// ASCII alphanumerics, `-` or `_`. Keeps tenant names safe to embed in
/// session files, socket logs and JSON without escaping.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_TENANT_LEN
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let mut d = Decoder::new();
        d.push(&frame.encode());
        assert_eq!(d.next_event(), Some(DecodeEvent::Frame(frame)));
        assert_eq!(d.next_event(), None);
        assert_eq!(d.finish(), None);
    }

    #[test]
    fn every_kind_round_trips() {
        round_trip(Frame::Hello {
            tenant: "tenant-0".to_string(),
        });
        round_trip(Frame::Batch {
            seq: 7,
            rows: vec![0, u64::MAX, 0x0001_0203_0405_0607],
        });
        round_trip(Frame::Subscribe);
        round_trip(Frame::Ack {
            seq: 9,
            accepted: 512,
        });
        round_trip(Frame::Busy { retry_after_ms: 25 });
        round_trip(Frame::Reject {
            reason: RejectReason::BadChecksum,
        });
        round_trip(Frame::Incident {
            tenant: "t".to_string(),
            line: "{\"x\":1}".to_string(),
        });
        round_trip(Frame::Crash);
        round_trip(Frame::Drain);
        round_trip(Frame::StatsRequest);
        round_trip(Frame::StatsSnapshot {
            json: "{\"schema\":\"x\",\"counters\":{}}".to_string(),
        });
    }

    #[test]
    fn stats_snapshot_payload_is_length_prefixed_utf8() {
        let json = "{\"tenant\":\"行列積\"}".to_string();
        round_trip(Frame::StatsSnapshot { json: json.clone() });
        // A non-UTF-8 payload body must reject, not panic.
        let mut bytes = Frame::StatsSnapshot { json }.encode();
        let last = bytes.len() - 1;
        bytes[last] = 0xff; // snap a multibyte char
        let checksum = frame_checksum(WIRE_VERSION, 11, &bytes[HEADER_LEN..]);
        bytes[8..12].copy_from_slice(&checksum.to_le_bytes());
        let mut d = Decoder::new();
        d.push(&bytes);
        assert!(matches!(
            d.next_event(),
            Some(DecodeEvent::Rejected {
                reason: RejectReason::BadPayload,
                ..
            })
        ));
    }

    #[test]
    fn stats_request_payload_must_be_empty() {
        let mut bytes = Frame::StatsRequest.encode();
        bytes.extend_from_slice(&[0xab]); // trailing garbage byte
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let checksum = frame_checksum(WIRE_VERSION, 10, &[0xab]);
        bytes[8..12].copy_from_slice(&checksum.to_le_bytes());
        let mut d = Decoder::new();
        d.push(&bytes);
        assert!(matches!(
            d.next_event(),
            Some(DecodeEvent::Rejected {
                reason: RejectReason::BadPayload,
                ..
            })
        ));
    }

    #[test]
    fn split_delivery_reassembles() {
        let frame = Frame::Batch {
            seq: 3,
            rows: (0..100).collect(),
        };
        let encoded = frame.encode();
        let mut d = Decoder::new();
        for byte in &encoded {
            assert_eq!(d.next_event(), None, "no event until the frame completes");
            d.push(&[*byte]);
        }
        assert_eq!(d.next_event(), Some(DecodeEvent::Frame(frame)));
    }

    #[test]
    fn corrupt_payload_is_rejected_and_stream_resyncs() {
        let good = Frame::Ack {
            seq: 1,
            accepted: 4,
        };
        let mut corrupted = Frame::Batch {
            seq: 2,
            rows: vec![1, 2, 3],
        }
        .encode();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0x40; // payload bit flip → checksum mismatch
        let mut d = Decoder::new();
        d.push(&corrupted);
        d.push(&good.encode());
        assert!(matches!(
            d.next_event(),
            Some(DecodeEvent::Rejected {
                reason: RejectReason::BadChecksum,
                ..
            })
        ));
        assert_eq!(d.next_event(), Some(DecodeEvent::Frame(good)));
    }

    #[test]
    fn junk_before_frame_is_skipped_with_accounting() {
        let frame = Frame::Subscribe;
        let mut d = Decoder::new();
        d.push(&[0xde, 0xad, 0xbe, 0xef]);
        d.push(&frame.encode());
        let mut skipped = 0;
        loop {
            match d.next_event() {
                Some(DecodeEvent::Rejected {
                    reason: RejectReason::BadMagic,
                    skipped: s,
                }) => skipped += s,
                Some(DecodeEvent::Frame(f)) => {
                    assert_eq!(f, frame);
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(skipped, 4);
    }

    #[test]
    fn oversize_length_is_rejected_without_buffering() {
        let mut bytes = Frame::Subscribe.encode();
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut d = Decoder::new();
        d.push(&bytes);
        assert!(matches!(
            d.next_event(),
            Some(DecodeEvent::Rejected {
                reason: RejectReason::Oversize,
                ..
            })
        ));
    }

    #[test]
    fn wrong_version_and_kind_are_rejected() {
        let mut v = Frame::Subscribe.encode();
        v[2] = 99;
        let mut k = Frame::Subscribe.encode();
        k[3] = 200;
        for (bytes, want) in [(v, RejectReason::BadVersion), (k, RejectReason::BadKind)] {
            let mut d = Decoder::new();
            d.push(&bytes);
            match d.next_event() {
                Some(DecodeEvent::Rejected { reason, .. }) => assert_eq!(reason, want),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn torn_tail_is_truncated_at_finish() {
        let encoded = Frame::Batch {
            seq: 0,
            rows: vec![42],
        }
        .encode();
        let mut d = Decoder::new();
        d.push(&encoded[..encoded.len() - 3]);
        assert_eq!(d.next_event(), None, "incomplete frame: wait for more");
        assert_eq!(
            d.finish(),
            Some(DecodeEvent::Rejected {
                reason: RejectReason::Truncated,
                skipped: encoded.len() - 3,
            })
        );
    }

    #[test]
    fn tenant_name_validation() {
        assert!(valid_tenant_name("tenant-0_A"));
        assert!(!valid_tenant_name(""));
        assert!(!valid_tenant_name("has space"));
        assert!(!valid_tenant_name("newline\n"));
        assert!(!valid_tenant_name(&"x".repeat(MAX_TENANT_LEN + 1)));
    }

    #[test]
    fn reject_reason_codes_round_trip() {
        for reason in RejectReason::ALL {
            assert_eq!(RejectReason::from_code(reason.code()), Some(reason));
        }
        assert_eq!(RejectReason::from_code(99), None);
    }
}
