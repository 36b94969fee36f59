//! Minimal dependency-free JSON: the string escaper every hand-rolled
//! writer shares, and the parser every reader shares.
//!
//! Every JSON writer in the workspace — telemetry traces, forensics
//! incidents, daemon stats, profiler exports, audit and lint reports and
//! the experiment JSONL — emits JSON by hand to stay dependency-free, and
//! all of them escape strings here. Numeric payloads need no escaping, but
//! anything user-influenced — workload names in trace headers, failure
//! messages in experiment reports — must survive quotes, backslashes, and
//! control characters. Non-ASCII text is passed through verbatim as UTF-8
//! (valid JSON), not `\u`-escaped.
//!
//! The readers — trace replay (`hydra forensics FILE`) and the daemon
//! stats scrape (`hydra top`) — parse with [`parse`], a small
//! recursive-descent parser instead of serde. It accepts standard JSON
//! (objects, arrays, strings with escapes, numbers, booleans, null); it
//! does not accept comments or trailing commas. Errors carry a byte offset.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends `s` to `out` with JSON string escaping applied (no surrounding
/// quotes).
///
/// Escapes `"` and `\`, uses the short forms for `\n`/`\r`/`\t`, and
/// `\u00XX` for the remaining C0 control characters. Everything else —
/// including non-ASCII — is emitted as-is.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                // Writing to a String cannot fail.
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Returns `s` with JSON string escaping applied (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(s, &mut out);
    out
}

/// Returns `s` as a complete JSON string literal, quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 4);
    out.push('"');
    escape_into(s, &mut out);
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; integers up to 2⁵³ are exact).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. `BTreeMap` keeps iteration deterministic.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64` (numeric, non-negative, integral).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one complete JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("invalid utf8 in number at byte {start}"))?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| "invalid \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("invalid \\u escape {hex:?}"))?;
                        // Surrogates are rejected rather than paired: the
                        // writers in this workspace never emit them.
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("invalid code point \\u{hex}"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences intact).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("invalid utf8 at byte {pos}", pos = *pos))?;
                let c = rest
                    .chars()
                    .next()
                    .ok_or_else(|| "unterminated string".to_string())?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_ascii_is_untouched() {
        assert_eq!(escape("gups_smoke-1.2"), "gups_smoke-1.2");
    }

    #[test]
    fn quotes_and_backslashes_are_escaped() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(quote(r#"a"b"#), r#""a\"b""#);
    }

    #[test]
    fn control_characters_use_short_or_u_forms() {
        assert_eq!(escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(escape("x\u{1}y\u{1f}z"), "x\\u0001y\\u001fz");
    }

    #[test]
    fn non_ascii_passes_through_as_utf8() {
        // Workload names like "große_matrix" or "行列積" are valid JSON
        // without \u escapes.
        assert_eq!(escape("große_matrix"), "große_matrix");
        assert_eq!(quote("行列積"), "\"行列積\"");
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,-3],"b":{"c":true,"d":null},"e":"x"}"#).expect("valid");
        assert_eq!(
            v.get("a").and_then(|a| a.as_array()).map(<[_]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("b")
                .and_then(|b| b.get("c"))
                .and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(v.get("e").and_then(JsonValue::as_str), Some("x"));
    }

    #[test]
    fn decodes_string_escapes_and_utf8() {
        let v = parse(r#""a\"b\\c\né行""#).expect("valid");
        assert_eq!(v.as_str(), Some("a\"b\\c\né行"));
    }

    #[test]
    fn roundtrips_the_telemetry_escaper() {
        // Whatever the escaper writes, the parser reads back verbatim.
        let hostile = "große\"行列\\x\n\t\u{1}end";
        let quoted = quote(hostile);
        let v = parse(&quoted).expect("escaper output is valid JSON");
        assert_eq!(v.as_str(), Some(hostile));
    }

    #[test]
    fn numbers_parse_as_u64_when_integral() {
        let v = parse("[0, 42, 1e3, 2.5, -1]").expect("valid");
        let items = v.as_array().expect("array");
        assert_eq!(items[1].as_u64(), Some(42));
        assert_eq!(items[2].as_u64(), Some(1000));
        assert_eq!(items[3].as_u64(), None);
        assert_eq!(items[4].as_u64(), None);
        assert_eq!(items[3].as_f64(), Some(2.5));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("").is_err());
    }
}
