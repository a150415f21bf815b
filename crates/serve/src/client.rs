//! A minimal blocking HTTP/1.1 client for the `Connection: close` dialect the
//! server speaks.  One request per connection, response read to EOF.
//!
//! This exists for the integration tests, the CI smoke binary and the bench
//! loadgen — it is *not* a general HTTP client (no keep-alive, no chunked
//! bodies, no redirects), exactly mirroring what the server emits.

use dft::json::Json;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One HTTP exchange: connect, send `method path` with `body`, read to EOF.
/// Returns the status code and the parsed JSON body ([`Json::Null`] when the
/// body is empty or not JSON).
///
/// # Errors
///
/// I/O errors from connect/read/write, or a malformed status line.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<(u16, Json)> {
    request_with_timeout(addr, method, path, body, Duration::from_secs(30))
}

/// [`request`] with an explicit per-socket timeout.
///
/// # Errors
///
/// I/O errors from connect/read/write, or a malformed status line.
pub fn request_with_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> io::Result<(u16, Json)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;

    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// Splits a raw response into (status, parsed JSON body).
fn parse_response(raw: &[u8]) -> io::Result<(u16, Json)> {
    let malformed = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let text = std::str::from_utf8(raw).map_err(|_| malformed())?;
    let (head, payload) = text.split_once("\r\n\r\n").ok_or_else(malformed)?;
    let status_line = head.lines().next().ok_or_else(malformed)?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(malformed)?;
    let body = dft::json::parse(payload).unwrap_or(Json::Null);
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_servers_response() {
        let raw = crate::http::response(202, "{\"id\":1}");
        let (status, body) = parse_response(&raw).unwrap();
        assert_eq!(status, 202);
        assert_eq!(body.render(), "{\"id\":1}");

        // A non-JSON body degrades to Null instead of an error.
        let raw = b"HTTP/1.1 204 No Content\r\n\r\n".to_vec();
        let (status, body) = parse_response(&raw).unwrap();
        assert_eq!(status, 204);
        assert!(matches!(body, Json::Null));

        assert!(parse_response(b"garbage").is_err());
    }
}
