//! A deliberately small HTTP/1.1 reader/writer over `std::net`.
//!
//! This is transport plumbing, not a web framework: enough of RFC 9112 to
//! serve JSON/CSV to `curl` and to `perfbench` — request line, a
//! handful of headers (`Content-Length`, `Connection`), bounded bodies,
//! and keep-alive. Anything outside that subset (chunked uploads,
//! multi-line headers, HTTP/2 preludes) is rejected with a structured
//! `400`, never a panic: the peer is untrusted.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on an accepted request body (a SPICE deck measured in
/// kilobytes fits comfortably; anything larger is hostile or a mistake).
/// Exceeding it is answered with `413 Payload Too Large`.
pub const MAX_BODY_BYTES: usize = 1 << 20;
/// Upper bound on the request line + headers combined. Exceeding it is
/// answered with `431 Request Header Fields Too Large`.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on the number of header fields (each tiny header still
/// costs a parse; a flood of them is hostile). Answered with `431`.
pub const MAX_HEADER_COUNT: usize = 100;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string, e.g. `/figures/fig6a`.
    pub path: String,
    /// Raw query string (no leading `?`), empty when absent.
    pub query: String,
    /// Request body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
    /// `true` when the client asked to close the connection.
    pub close: bool,
    /// The `X-Client` header, when sent — the tenant identity used by
    /// the per-client rate limiter (falls back to the peer address).
    pub client: Option<String>,
}

impl Request {
    /// The value of query parameter `key`, if present (`a=1&b=2` form; no
    /// percent-decoding — ids and formats are ASCII identifiers).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before a request line arrived —
    /// the normal end of a keep-alive session, not an error to report.
    Eof,
    /// The bytes on the wire are not an acceptable HTTP/1.1 request.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`] — answered `413`.
    BodyTooLarge(String),
    /// The head exceeds [`MAX_HEAD_BYTES`] or [`MAX_HEADER_COUNT`] —
    /// answered `431`.
    HeadersTooLarge(String),
    /// Transport failure mid-request.
    Io(std::io::Error),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Reads one head line into `line`, counting it against `head_bytes`.
///
/// The read goes through [`Read::take`] capped at the head budget still
/// unspent, so no peer can make a worker buffer more than
/// [`MAX_HEAD_BYTES`] of head, however long its unterminated line. The
/// cap reads from the same buffer: no extra syscall, allocation or copy.
fn read_head_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    head_bytes: &mut usize,
) -> Result<usize, ReadError> {
    let budget = MAX_HEAD_BYTES - *head_bytes;
    let n = reader.by_ref().take(budget as u64).read_line(line)?;
    *head_bytes += n;
    if n == budget && !line.ends_with('\n') {
        return Err(ReadError::HeadersTooLarge(format!(
            "request head exceeds the {MAX_HEAD_BYTES}-byte limit"
        )));
    }
    Ok(n)
}

/// Parses a `Content-Length` value: ASCII digits only (RFC 9112
/// `1*DIGIT`; `usize::from_str` alone would also take a leading `+`),
/// at most [`MAX_BODY_BYTES`].
fn parse_content_length(value: &str) -> Result<usize, ReadError> {
    let bad = || ReadError::Malformed(format!("bad Content-Length `{value}`"));
    if !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad());
    }
    // Digits only, so this fails only on an empty value or an overflow.
    let length: usize = value.parse().map_err(|_| bad())?;
    if length > MAX_BODY_BYTES {
        return Err(ReadError::BodyTooLarge(format!(
            "body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    Ok(length)
}

/// Reads one request from the stream.
///
/// # Errors
///
/// [`ReadError::Eof`] on clean close before a request, otherwise
/// [`ReadError::Malformed`] / [`ReadError::HeadersTooLarge`] /
/// [`ReadError::BodyTooLarge`] / [`ReadError::Io`].
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, ReadError> {
    let mut line = String::new();
    let mut head_bytes = 0usize;
    if read_head_line(reader, &mut line, &mut head_bytes)? == 0 {
        return Err(ReadError::Eof);
    }
    let request_line = line.trim_end().to_owned();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("request line has no target".into()))?;
    // A two-field request line (`GET /path`) is a truncated request,
    // not an HTTP/1.0 one — defaulting the version here once turned
    // cut-off request lines into silently-accepted HTTP/1.0 traffic.
    let version = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("request line has no HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!(
            "unsupported protocol `{version}`"
        )));
    }
    if parts.next().is_some() {
        return Err(ReadError::Malformed(
            "request line has trailing fields after the HTTP version".into(),
        ));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };

    let mut content_length = None;
    let mut close = version == "HTTP/1.0";
    let mut client = None;
    let mut header_count = 0usize;
    loop {
        line.clear();
        if read_head_line(reader, &mut line, &mut head_bytes)? == 0 {
            return Err(ReadError::Malformed("connection closed mid-headers".into()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        header_count += 1;
        if header_count > MAX_HEADER_COUNT {
            return Err(ReadError::HeadersTooLarge(format!(
                "more than {MAX_HEADER_COUNT} header fields"
            )));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(ReadError::Malformed(format!("bad header `{header}`")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let length = parse_content_length(value)?;
            if content_length.is_some_and(|seen| seen != length) {
                return Err(ReadError::Malformed(
                    "conflicting Content-Length values".into(),
                ));
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("x-client") {
            client = Some(value.to_owned());
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(ReadError::Malformed(
                "chunked transfer encoding is not supported".into(),
            ));
        }
    }

    let mut body = vec![0u8; content_length.unwrap_or(0)];
    reader.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        query,
        body,
        close,
        client,
    })
}

/// A response ready to serialise.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Optional `Retry-After` seconds (the `503` backpressure hint).
    pub retry_after: Option<u32>,
}

impl Response {
    /// A `200` with the given type and body.
    pub fn ok(content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status: 200,
            content_type,
            body: body.into(),
            retry_after: None,
        }
    }

    /// A structured JSON error `{"error": ...}` with the given status.
    pub fn error(status: u16, message: &str) -> Self {
        let body = format!(
            "{{\"error\":\"{}\",\"status\":{status}}}\n",
            nvpg_obs::json::escape(message)
        );
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// The `503 Service Unavailable` shed-load response.
    pub fn overloaded(retry_after_s: u32) -> Self {
        let mut r = Response::error(503, "queue full, retry later");
        r.retry_after = Some(retry_after_s);
        r
    }

    /// The `429 Too Many Requests` rate-limit response.
    pub fn rate_limited(retry_after_s: u32) -> Self {
        let mut r = Response::error(429, "rate limit exceeded, slow down");
        r.retry_after = Some(retry_after_s);
        r
    }

    /// Approximate in-memory footprint, used for cache accounting.
    pub fn weight(&self) -> usize {
        self.body.len() + 64
    }
}

/// Reason phrase for the handful of statuses this service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Room for the longest head [`write_response`] emits (status line,
/// three or four header fields and the blank line), so the response
/// buffer is allocated once.
const HEAD_CAPACITY: usize = 256;

/// Serialises `resp` onto the stream with one write. `close` controls
/// the `Connection` header.
///
/// Head and body go out as one buffer. Written separately, the body is a
/// second small segment sent while the head is still unacknowledged, so
/// Nagle's algorithm holds it until the peer's delayed ACK: about 40 ms
/// on every reused keep-alive connection. One write leaves no such
/// segment, which is why the socket needs no `TCP_NODELAY`.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_response(stream: &mut TcpStream, resp: &Response, close: bool) -> std::io::Result<()> {
    let mut wire = Vec::with_capacity(HEAD_CAPACITY + resp.body.len());
    write!(
        wire,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    )?;
    if let Some(secs) = resp.retry_after {
        write!(wire, "Retry-After: {secs}\r\n")?;
    }
    wire.extend_from_slice(if close {
        b"Connection: close\r\n\r\n"
    } else {
        b"Connection: keep-alive\r\n\r\n"
    });
    wire.extend_from_slice(&resp.body);
    stream.write_all(&wire)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Parses `raw` as the server side of one connection. The client
    /// writes from its own thread, so an input larger than the socket
    /// buffers cannot block the test; its write fails once the server
    /// side hangs up early.
    fn round_trip(raw: &[u8]) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let _ = stream.write_all(&raw);
        });
        let (server_side, _) = listener.accept().expect("accept");
        let parsed = read_request(&mut BufReader::new(server_side));
        client.join().expect("client");
        parsed
    }

    #[test]
    fn parses_request_line_query_and_body() {
        let req =
            round_trip(b"POST /bet?format=json HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}")
                .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/bet");
        assert_eq!(req.query_param("format"), Some("json"));
        assert_eq!(req.body, b"{}");
        assert!(!req.close);
        // An identical repeated Content-Length is still one length.
        let req =
            round_trip(b"POST /bet HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}")
                .expect("parse");
        assert_eq!(req.body, b"{}");
    }

    #[test]
    fn rejects_oversized_and_malformed_input() {
        let huge = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 2 << 20);
        assert!(matches!(
            round_trip(huge.as_bytes()),
            Err(ReadError::BodyTooLarge(_))
        ));
        assert!(matches!(
            round_trip(b"GARBAGE\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(round_trip(b""), Err(ReadError::Eof)));
        // A signed length is not `1*DIGIT`.
        assert!(matches!(
            round_trip(b"POST /bet HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}"),
            Err(ReadError::Malformed(_))
        ));
        // Two different lengths leave the body's end ambiguous.
        assert!(matches!(
            round_trip(b"POST /bet HTTP/1.1\r\nContent-Length: 100\r\nContent-Length: 2\r\n\r\n{}"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn parses_the_x_client_header() {
        let req =
            round_trip(b"GET /healthz HTTP/1.1\r\nX-Client: tenant-a\r\n\r\n").expect("parse");
        assert_eq!(req.client.as_deref(), Some("tenant-a"));
        let req = round_trip(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").expect("parse");
        assert_eq!(req.client, None);
    }

    #[test]
    fn rejects_oversized_heads_as_431() {
        // A 64 KiB request line that never ends: the cap stops the read
        // at the head budget instead of buffering the whole line.
        let endless = format!("GET /{}", "a".repeat(64 * 1024));
        assert!(matches!(
            round_trip(endless.as_bytes()),
            Err(ReadError::HeadersTooLarge(_))
        ));
        // One giant header value blows the byte budget.
        let fat = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(
            round_trip(fat.as_bytes()),
            Err(ReadError::HeadersTooLarge(_))
        ));
        // Many tiny headers blow the count budget before the byte budget.
        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADER_COUNT {
            many.push_str(&format!("X-{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert!(matches!(
            round_trip(many.as_bytes()),
            Err(ReadError::HeadersTooLarge(_))
        ));
    }
}
