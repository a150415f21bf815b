//! A total, panic-free HTTP/1.1 request parser and response writer.
//!
//! This module is a trust boundary: its input is raw bytes off a socket, so
//! it is held to the same bar as the model codec (the decode lints denied
//! below: no panics, no direct indexing, no truncating casts).  Parsing is
//! *incremental*: [`parse_request`] returns `Ok(None)` while the buffer is
//! still incomplete, a typed [`ParseError`] when the bytes can never become
//! a valid request, and the parsed [`Request`] once head and body are fully
//! buffered.  Every dimension is bounded by [`HttpLimits`] before any
//! allocation proportional to attacker input happens.
//!
//! The protocol subset is deliberately small — exactly what a job-submission
//! API needs: `HTTP/1.0` / `HTTP/1.1`, one request per connection
//! (`Connection: close` on every response), `Content-Length` bodies only
//! (`Transfer-Encoding` is rejected with `501`).

// Decode file: malformed input is a typed error, never a panic (see README).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]
#![deny(clippy::disallowed_macros, clippy::cast_possible_truncation)]
#![deny(clippy::cast_sign_loss, clippy::cast_possible_wrap)]

use std::fmt;
use std::time::Duration;

/// Hard bounds on what the server will read from one connection.
#[derive(Debug, Clone)]
pub struct HttpLimits {
    /// Maximum size of the request head (request line + headers + CRLFCRLF).
    pub max_head_bytes: usize,
    /// Maximum `Content-Length` the server accepts.
    pub max_body_bytes: usize,
    /// Socket read/write timeout; a connection idle longer than this is
    /// dropped (counted, never blocking a server thread forever).
    pub read_timeout: Duration,
}

impl Default for HttpLimits {
    fn default() -> HttpLimits {
        HttpLimits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Why a byte buffer can never become a valid request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// No end-of-head within [`HttpLimits::max_head_bytes`].
    HeadTooLarge,
    /// `Content-Length` exceeds [`HttpLimits::max_body_bytes`].
    BodyTooLarge,
    /// Structurally invalid head (bad request line, bad header syntax, …).
    Malformed(&'static str),
    /// A well-formed request line for a protocol this server does not speak.
    UnsupportedVersion,
    /// `Content-Length` is present but not a plain decimal byte count.
    InvalidContentLength,
    /// `Transfer-Encoding` (chunked uploads etc.) is not supported.
    UnsupportedTransferEncoding,
}

impl ParseError {
    /// The HTTP status code the error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::HeadTooLarge => 431,
            ParseError::BodyTooLarge => 413,
            ParseError::Malformed(_) | ParseError::InvalidContentLength => 400,
            ParseError::UnsupportedVersion => 505,
            ParseError::UnsupportedTransferEncoding => 501,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::HeadTooLarge => write!(f, "request head exceeds the size limit"),
            ParseError::BodyTooLarge => write!(f, "request body exceeds the size limit"),
            ParseError::Malformed(why) => write!(f, "malformed request: {why}"),
            ParseError::UnsupportedVersion => write!(f, "only HTTP/1.0 and HTTP/1.1 are spoken"),
            ParseError::InvalidContentLength => write!(f, "invalid Content-Length"),
            ParseError::UnsupportedTransferEncoding => {
                write!(
                    f,
                    "Transfer-Encoding is not supported; send a Content-Length body"
                )
            }
        }
    }
}

/// The parsed request head: everything before the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead {
    /// The request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// The request target (`/status/42`), as sent.
    pub target: String,
    /// Declared body length (0 when no `Content-Length` header is present).
    pub content_length: usize,
    /// Bytes the head occupies in the buffer, terminator included; the body
    /// starts at this offset.
    pub head_len: usize,
}

/// A complete parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method (`GET`, `POST`, …).
    pub method: String,
    /// The request target (`/status/42`).
    pub target: String,
    /// The request body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
}

/// Parses the request head out of a (possibly still growing) buffer.
///
/// Returns `Ok(None)` while the head terminator has not arrived yet and the
/// buffer is still within [`HttpLimits::max_head_bytes`].
///
/// # Errors
///
/// Any [`ParseError`]; see the variants for the conditions.
pub fn parse_head(
    bytes: &[u8],
    limits: &HttpLimits,
) -> std::result::Result<Option<RequestHead>, ParseError> {
    let searched = bytes.len().min(limits.max_head_bytes);
    let window = bytes.get(..searched).unwrap_or(bytes);
    let Some(at) = window.windows(4).position(|w| w == b"\r\n\r\n") else {
        if bytes.len() >= limits.max_head_bytes {
            return Err(ParseError::HeadTooLarge);
        }
        return Ok(None);
    };
    let head_len = at.saturating_add(4);
    let head_bytes = bytes.get(..at).ok_or(ParseError::Malformed("head slice"))?;
    let head = std::str::from_utf8(head_bytes)
        .map_err(|_| ParseError::Malformed("head is not valid UTF-8"))?;

    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or(ParseError::Malformed("empty request head"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .ok_or(ParseError::Malformed("missing method"))?;
    let target = parts
        .next()
        .ok_or(ParseError::Malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or(ParseError::Malformed("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(ParseError::Malformed("request line has extra fields"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::Malformed("method is not an uppercase token"));
    }
    if target.is_empty() || !target.starts_with('/') {
        return Err(ParseError::Malformed("target is not an absolute path"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::UnsupportedVersion);
    }

    let mut content_length: Option<usize> = None;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::Malformed("header line without ':'"))?;
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(ParseError::UnsupportedTransferEncoding);
        }
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: usize = value
                .parse()
                .map_err(|_| ParseError::InvalidContentLength)?;
            // Duplicate Content-Length headers smell like request smuggling;
            // accept them only when they agree.
            if content_length.is_some_and(|seen| seen != parsed) {
                return Err(ParseError::InvalidContentLength);
            }
            content_length = Some(parsed);
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > limits.max_body_bytes {
        return Err(ParseError::BodyTooLarge);
    }

    Ok(Some(RequestHead {
        method: method.to_owned(),
        target: target.to_owned(),
        content_length,
        head_len,
    }))
}

/// Parses a complete request (head + body) out of a buffer.
///
/// Returns `Ok(None)` while more bytes are needed — the server keeps reading
/// and calls again.  This is the function the fuzz campaign drives: for any
/// byte input it must return without panicking, in time proportional to the
/// input length.
///
/// # Errors
///
/// Any [`ParseError`]; see the variants for the conditions.
pub fn parse_request(
    bytes: &[u8],
    limits: &HttpLimits,
) -> std::result::Result<Option<Request>, ParseError> {
    let Some(head) = parse_head(bytes, limits)? else {
        return Ok(None);
    };
    let end = head
        .head_len
        .checked_add(head.content_length)
        .ok_or(ParseError::BodyTooLarge)?;
    let Some(body) = bytes.get(head.head_len..end) else {
        return Ok(None);
    };
    Ok(Some(Request {
        method: head.method,
        target: head.target,
        body: body.to_vec(),
    }))
}

/// The canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Serializes one complete `Connection: close` JSON response.
pub fn response(status: u16, body: &str) -> Vec<u8> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    );
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

#[cfg(test)]
#[expect(
    clippy::disallowed_macros,
    reason = "tests assert; the decode rules bind the non-test code"
)]
mod tests {
    use super::*;

    fn limits() -> HttpLimits {
        HttpLimits::default()
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nhey!";
        let req = parse_request(raw, &limits()).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/submit");
        assert_eq!(req.body, b"hey!");
    }

    #[test]
    fn incomplete_buffers_ask_for_more() {
        let raw = b"POST /submit HTTP/1.1\r\nContent-Length: 10\r\n\r\nhalf";
        assert_eq!(parse_request(raw, &limits()).unwrap(), None);
        assert_eq!(parse_request(b"GET /metr", &limits()).unwrap(), None);
        assert_eq!(parse_request(b"", &limits()).unwrap(), None);
    }

    #[test]
    fn rejects_oversized_heads_and_bodies() {
        let mut tight = limits();
        tight.max_head_bytes = 32;
        let raw = b"GET /a-target-longer-than-the-head-limit HTTP/1.1\r\n\r\n";
        assert_eq!(parse_request(raw, &tight), Err(ParseError::HeadTooLarge));

        let raw = b"POST /submit HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        let mut tiny = limits();
        tiny.max_body_bytes = 16;
        assert_eq!(parse_request(raw, &tiny), Err(ParseError::BodyTooLarge));
    }

    #[test]
    fn rejects_malformed_heads_with_typed_errors() {
        let cases: [(&[u8], ParseError); 7] = [
            (
                b"GET\r\n\r\n",
                ParseError::Malformed("missing request target"),
            ),
            (
                b"get /x HTTP/1.1\r\n\r\n",
                ParseError::Malformed("method is not an uppercase token"),
            ),
            (
                b"GET x HTTP/1.1\r\n\r\n",
                ParseError::Malformed("target is not an absolute path"),
            ),
            (b"GET /x HTTP/2\r\n\r\n", ParseError::UnsupportedVersion),
            (
                b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
                ParseError::Malformed("header line without ':'"),
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
                ParseError::InvalidContentLength,
            ),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                ParseError::UnsupportedTransferEncoding,
            ),
        ];
        for (raw, want) in cases {
            assert_eq!(parse_request(raw, &limits()), Err(want), "{raw:?}");
        }
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\n";
        assert_eq!(
            parse_request(raw, &limits()),
            Err(ParseError::InvalidContentLength)
        );
        // Agreeing duplicates are tolerated.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok";
        assert!(parse_request(raw, &limits()).unwrap().is_some());
    }

    #[test]
    fn responses_carry_length_and_close() {
        let raw = response(200, "{\"ok\":true}");
        let text = String::from_utf8(raw).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn error_statuses_map_to_http_codes() {
        assert_eq!(ParseError::HeadTooLarge.status(), 431);
        assert_eq!(ParseError::BodyTooLarge.status(), 413);
        assert_eq!(ParseError::Malformed("x").status(), 400);
        assert_eq!(ParseError::UnsupportedVersion.status(), 505);
        assert_eq!(ParseError::UnsupportedTransferEncoding.status(), 501);
    }
}
