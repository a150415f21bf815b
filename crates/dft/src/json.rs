//! A minimal JSON emitter and parser.
//!
//! The workspace carries no external crates, so it cannot use `serde`.  This
//! module provides the small subset it needs: build a [`Json`] tree, render it
//! deterministically (object keys keep insertion order), and parse it back.

// Decode file: malformed input is a typed error, never a panic (see README).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]
#![deny(clippy::disallowed_macros, clippy::cast_possible_truncation)]
#![deny(clippy::cast_sign_loss, clippy::cast_possible_wrap)]

use std::fmt::Write as _;
use std::time::Duration;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also produced for non-finite numbers, which JSON cannot carry).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from key/value pairs (keys keep their order).
    pub fn obj<const N: usize>(entries: [(&str, Json); N]) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// The value of the first `key` entry of an object; `None` when the key
    /// is missing or the value is not an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A duration, rendered as fractional seconds (the universal bench unit).
    pub fn secs(d: Duration) -> Json {
        Json::Num(d.as_secs_f64())
    }

    /// Renders the value as a compact single-line JSON document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders the value as an indented multi-line JSON document (two-space
    /// indent).  Scalars render exactly as in [`render`](Self::render), so a
    /// pretty document parses back to the same value bit-for-bit.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let indent = |out: &mut String, levels: usize| {
            for _ in 0..levels {
                out.push_str("  ");
            }
        };
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(entries) if !entries.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    Json::Str(key.clone()).write(out);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if u32::from(c) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", u32::from(c));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(key.clone()).write(out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        // Fingerprints exceed f64's exact integer range; carry them as hex
        // strings so no precision is lost.
        Json::Str(format!("{v:016x}"))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts.  The parser
/// recurses once per level, so the bound keeps a hostile document from
/// overflowing the thread's stack; no document this workspace reads comes
/// near it.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document (the subset [`Json`] renders: objects, arrays,
/// strings, finite numbers, booleans, `null`), so the trend-tracking tooling
/// can read committed `BENCH_*.json` baselines back without external crates.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, with its
/// byte offset.  Arrays and objects nested more than 128 deep are an error.
pub fn parse(text: &str) -> std::result::Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(&(b' ' | b'\t' | b'\n' | b'\r'))) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> std::result::Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", byte as char, pos))
    }
}

/// Parses the value at `pos`, inside `depth` enclosing arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> std::result::Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth >= MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key at byte {pos} is not a string")),
                };
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                entries.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(entries));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".to_owned()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(out));
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
                            Some(b'u') => {
                                let hex = text_slice(bytes, *pos + 1, *pos + 5)?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| format!("bad codepoint at byte {pos}"))?,
                                );
                                *pos += 4;
                            }
                            _ => return Err(format!("bad escape at byte {pos}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 encoded character.
                        let start = *pos;
                        *pos += 1;
                        while bytes.get(*pos).is_some_and(|&b| b & 0xc0 == 0x80) {
                            *pos += 1;
                        }
                        out.push_str(text_slice(bytes, start, *pos)?);
                    }
                }
            }
        }
        Some(b't') if tail_starts_with(bytes, *pos, b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if tail_starts_with(bytes, *pos, b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if tail_starts_with(bytes, *pos, b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while matches!(
                bytes.get(*pos),
                Some(&(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            ) {
                *pos += 1;
            }
            let token = text_slice(bytes, start, *pos)?;
            token
                .parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("invalid number '{token}' at byte {start}"))
        }
        None => Err("unexpected end of input".to_owned()),
    }
}

fn tail_starts_with(bytes: &[u8], pos: usize, literal: &[u8]) -> bool {
    bytes
        .get(pos..)
        .is_some_and(|tail| tail.starts_with(literal))
}

fn text_slice(bytes: &[u8], start: usize, end: usize) -> std::result::Result<&str, String> {
    bytes
        .get(start..end)
        .and_then(|s| std::str::from_utf8(s).ok())
        .ok_or_else(|| format!("invalid UTF-8 near byte {start}"))
}

#[cfg(test)]
#[expect(
    clippy::disallowed_macros,
    reason = "tests assert; the decode rules bind the non-test code"
)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let doc = Json::obj([
            ("name", "scaling".into()),
            ("ok", true.into()),
            (
                "rows",
                Json::Arr(vec![Json::obj([("width", 2usize.into())])]),
            ),
            ("wall_seconds", Json::secs(Duration::from_millis(1500))),
            ("nan", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"name":"scaling","ok":true,"rows":[{"width":2}],"wall_seconds":1.5,"nan":null}"#
        );
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(
            Json::Str("a\"b\\c\nd\u{1}".to_owned()).render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn fingerprints_render_as_hex_strings() {
        assert_eq!(Json::from(0xdeadbeefu64).render(), r#""00000000deadbeef""#);
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = Json::obj([
            ("name", "scaling".into()),
            ("ok", true.into()),
            ("none", Json::Null),
            ("escaped", Json::Str("a\"b\\c\nd\u{1}é".to_owned())),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([("width", 2usize.into()), ("x", (-1.5e-3f64).into())]),
                    Json::Bool(false),
                ]),
            ),
        ]);
        let parsed = parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
        // A trailing newline (as emit writes) is tolerated.
        assert_eq!(parse(&(doc.render() + "\n")).unwrap(), doc);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
        // 20,000 levels (40 KB) fail fast instead of overflowing the stack.
        assert!(parse(&nested(20_000)).is_err());
    }
}
