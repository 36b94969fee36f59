//! Minimal JSON string escaping shared by every hand-rolled JSON writer.
//!
//! Every JSON writer in the workspace — telemetry traces, forensics
//! incidents, daemon stats, profiler exports, audit and lint reports, the
//! experiment JSONL and the CLI's bench reports — emits JSON by hand to
//! stay dependency-free, and all of them escape strings here. Numeric
//! payloads need no escaping, but anything user-influenced — workload
//! names in trace headers, failure messages in bench reports — must
//! survive quotes, backslashes, and control characters. Non-ASCII text is
//! passed through verbatim as UTF-8 (valid JSON), not `\u`-escaped.

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
}
