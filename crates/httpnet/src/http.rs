//! HTTP/1.1 message types and wire codecs.
//!
//! Implements the subset the system needs — GET/POST, headers,
//! Content-Length bodies — with hard caps on line length, header count,
//! and body size so a misbehaving peer cannot exhaust server memory.

use std::cell::Cell;
use std::fmt;
use std::io::{BufRead, Write};

/// Maximum accepted request-line / header-line length in bytes.
pub const MAX_LINE: usize = 8 * 1024;
/// Maximum number of headers per message.
pub const MAX_HEADERS: usize = 100;
/// Maximum accepted body size (16 MiB — the longest real Dissenter comment
/// was >90 kB, so give generous headroom).
pub const MAX_BODY: usize = 16 * 1024 * 1024;

/// Case-insensitive header multimap preserving insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers(Vec<(String, String)>);

impl Headers {
    /// Empty header set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a header.
    pub fn add(&mut self, name: &str, value: &str) {
        self.0.push((name.to_owned(), value.to_owned()));
    }

    /// First value for `name`, case-insensitive.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All `(name, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of headers.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// An HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method (`GET`, `POST`, …).
    pub method: String,
    /// Raw request target (path + optional query string).
    pub target: String,
    /// Headers.
    pub headers: Headers,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// A bodyless GET.
    pub fn get(target: &str) -> Self {
        Self { method: "GET".into(), target: target.into(), headers: Headers::new(), body: Vec::new() }
    }

    /// Path component (before `?`).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or("")
    }

    /// Query-string parameter by key (first match; simple `k=v&k2=v2`
    /// parsing, no percent-decoding beyond `%2F`/`%3A` which the crawler
    /// uses for URL-in-URL parameters).
    pub fn query(&self, key: &str) -> Option<String> {
        let (_, q) = self.target.split_once('?')?;
        for pair in q.split('&') {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            if k == key {
                return Some(percent_decode(v));
            }
        }
        None
    }

    /// Cookie value by name.
    pub fn cookie(&self, name: &str) -> Option<&str> {
        let cookies = self.headers.get("cookie")?;
        for part in cookies.split(';') {
            let part = part.trim();
            let mut it = part.splitn(2, '=');
            if it.next() == Some(name) {
                return it.next();
            }
        }
        None
    }
}

/// Minimal percent-decoding (full reserved set).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            // `get` handles truncated escapes at end-of-input.
            if let Some(hex) = bytes.get(i + 1..i + 3) {
                if let Ok(v) = u8::from_str_radix(std::str::from_utf8(hex).unwrap_or("zz"), 16) {
                    out.push(v);
                    i += 3;
                    continue;
                }
            }
        }
        if bytes[i] == b'+' {
            out.push(b' ');
        } else {
            out.push(bytes[i]);
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encode for safe embedding in a query value.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Response status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status(pub u16);

impl Status {
    /// 200
    pub const OK: Status = Status(200);
    /// 304
    pub const NOT_MODIFIED: Status = Status(304);
    /// 404
    pub const NOT_FOUND: Status = Status(404);
    /// 429
    pub const TOO_MANY: Status = Status(429);
    /// 500
    pub const INTERNAL: Status = Status(500);

    /// Canonical reason phrase.
    pub fn reason(&self) -> &'static str {
        match self.0 {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// 2xx?
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.0)
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Headers (Content-Length is added automatically on write).
    pub headers: Headers,
    /// Body.
    pub body: Vec<u8>,
}

impl Response {
    /// Empty response with a status.
    pub fn status(status: Status) -> Self {
        Self { status, headers: Headers::new(), body: Vec::new() }
    }

    /// 200 with an HTML body.
    pub fn html(body: String) -> Self {
        let mut r = Self::status(Status::OK);
        r.headers.add("Content-Type", "text/html; charset=utf-8");
        r.body = body.into_bytes();
        r
    }

    /// 200 with a JSON body.
    pub fn json(body: String) -> Self {
        let mut r = Self::status(Status::OK);
        r.headers.add("Content-Type", "application/json");
        r.body = body.into_bytes();
        r
    }

    /// 404 with a short body (~150 bytes, like Dissenter's miss pages).
    pub fn not_found() -> Self {
        let mut r = Self::status(Status::NOT_FOUND);
        r.headers.add("Content-Type", "text/html; charset=utf-8");
        r.body = b"<html><head><title>Not Found</title></head><body><h1>404</h1><p>The page you were looking for does not exist.</p></body></html>".to_vec();
        r
    }

    /// `304 Not Modified` carrying the validator headers of the current
    /// representation. RFC 9110 §15.4.5: a 304 has no body; the headers
    /// passed in (ETag, Cache-Control, Content-Type, …) are preserved so
    /// the client can refresh its stored metadata.
    pub fn not_modified(headers: Headers) -> Self {
        let mut r = Self::status(Status::NOT_MODIFIED);
        r.headers = headers;
        r
    }

    /// Convert this response into its `304 Not Modified` form: same
    /// headers (validators preserved), empty body.
    pub fn into_not_modified(mut self) -> Self {
        self.status = Status::NOT_MODIFIED;
        self.body.clear();
        self
    }

    /// The response's strong `ETag`, if any.
    pub fn etag(&self) -> Option<&str> {
        self.headers.get("etag")
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Total serialized size in bytes (status line + headers + body) — the
    /// quantity the §3.1 account-probe inspects.
    pub fn wire_size(&self) -> usize {
        let mut head = Vec::new();
        serialize_response_head(self, &mut head);
        head.len() + self.body.len()
    }

    /// Serialize to a writer (adds Content-Length if absent) as one
    /// `write_all` of the whole message.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        write_once(w, |buf| {
            serialize_response_head(self, buf);
            buf.extend_from_slice(&self.body);
        })
    }
}

/// Errors reading a message from the wire.
#[derive(Debug)]
pub enum WireError {
    /// Underlying IO failure (includes timeouts).
    Io(std::io::Error),
    /// Peer closed before a full message arrived.
    Eof,
    /// Malformed or over-limit message.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::Eof => f.write_str("connection closed"),
            WireError::Malformed(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

fn read_line<R: BufRead>(r: &mut R) -> Result<String, WireError> {
    // Scan the reader's internal buffer for the newline instead of
    // pulling one byte at a time — this is the client's hot path.
    let mut line: Vec<u8> = Vec::new();
    loop {
        let (done, used) = {
            let available = match r.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(e)),
            };
            if available.is_empty() {
                if line.is_empty() {
                    return Err(WireError::Eof);
                }
                return Err(WireError::Malformed("truncated line"));
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    line.extend_from_slice(&available[..i]);
                    (true, i + 1)
                }
                None => {
                    line.extend_from_slice(available);
                    (false, available.len())
                }
            }
        };
        r.consume(used);
        if line.len() > MAX_LINE {
            return Err(WireError::Malformed("line too long"));
        }
        if done {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(String::from_utf8_lossy(&line).into_owned());
        }
    }
}

fn read_headers<R: BufRead>(r: &mut R) -> Result<Headers, WireError> {
    let mut headers = Headers::new();
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(WireError::Malformed("too many headers"));
        }
        let mut it = line.splitn(2, ':');
        let name = it.next().unwrap_or("").trim();
        let value = it.next().ok_or(WireError::Malformed("header missing colon"))?.trim();
        if name.is_empty() {
            return Err(WireError::Malformed("empty header name"));
        }
        headers.add(name, value);
    }
}

/// Strict `Content-Length` extraction (RFC 9112 §6.2-adjacent).
///
/// `usize::from_str` accepts `+10` and surrounding unicode whitespace —
/// lenient parses like that are the classic request-smuggling foothold,
/// because two hops that disagree on the value split the byte stream
/// differently. This helper accepts ASCII digits only, and when the
/// header is repeated, all copies must agree exactly; any other shape is
/// [`WireError::Malformed`].
pub fn content_length(headers: &Headers) -> Result<Option<usize>, WireError> {
    let mut found: Option<usize> = None;
    for (name, value) in headers.iter() {
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(WireError::Malformed("bad content-length"));
        }
        let len: usize =
            value.parse().map_err(|_| WireError::Malformed("bad content-length"))?;
        match found {
            Some(prev) if prev != len => {
                return Err(WireError::Malformed("conflicting content-length"))
            }
            _ => found = Some(len),
        }
    }
    Ok(found)
}

fn read_body<R: BufRead>(r: &mut R, headers: &Headers) -> Result<Vec<u8>, WireError> {
    let len: usize = match content_length(headers)? {
        None => return Ok(Vec::new()),
        Some(len) => len,
    };
    if len > MAX_BODY {
        return Err(WireError::Malformed("body too large"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Malformed("truncated body")
        } else {
            WireError::Io(e)
        }
    })?;
    Ok(body)
}

/// Read one request from a buffered stream.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, WireError> {
    let line = read_line(r)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or(WireError::Malformed("empty request line"))?;
    let target = parts.next().ok_or(WireError::Malformed("missing target"))?;
    let version = parts.next().ok_or(WireError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(WireError::Malformed("unsupported version"));
    }
    let headers = read_headers(r)?;
    let body = read_body(r, &headers)?;
    Ok(Request { method: method.to_owned(), target: target.to_owned(), headers, body })
}

/// Read one response from a buffered stream.
pub fn read_response<R: BufRead>(r: &mut R) -> Result<Response, WireError> {
    let line = read_line(r)?;
    let mut parts = line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(WireError::Malformed("unsupported version"));
    }
    let code: u16 = parts
        .next()
        .ok_or(WireError::Malformed("missing status"))?
        .parse()
        .map_err(|_| WireError::Malformed("bad status code"))?;
    let headers = read_headers(r)?;
    let body = read_body(r, &headers)?;
    Ok(Response { status: Status(code), headers, body })
}

/// Serialize a request — request line, headers (adding `Content-Length`
/// when there is a body and none was set), blank line, body — into `buf`.
pub fn serialize_request(req: &Request, buf: &mut Vec<u8>) {
    buf.extend_from_slice(req.method.as_bytes());
    buf.push(b' ');
    buf.extend_from_slice(req.target.as_bytes());
    buf.extend_from_slice(b" HTTP/1.1\r\n");
    serialize_headers(&req.headers, (!req.body.is_empty()).then_some(req.body.len()), buf);
    buf.extend_from_slice(&req.body);
}

/// Serialize a request to a writer as one `write_all` of the whole
/// message (see [`serialize_request`]).
pub fn write_request<W: Write>(req: &Request, w: &mut W) -> std::io::Result<()> {
    write_once(w, |buf| serialize_request(req, buf))
}

/// Serialize pipelined requests back to back and send them with one
/// `write_all`.
pub fn write_requests<W: Write>(reqs: &[Request], w: &mut W) -> std::io::Result<()> {
    write_once(w, |buf| reqs.iter().for_each(|req| serialize_request(req, buf)))
}

/// Serialize a response's status line and headers (adding
/// `Content-Length` if absent) into `buf`, leaving the body out — the
/// server sends `[head, body]` as one vectored write instead of copying
/// the body into a contiguous buffer.
pub fn serialize_response_head(resp: &Response, buf: &mut Vec<u8>) {
    // Writing into a Vec cannot fail.
    let _ = write!(buf, "HTTP/1.1 {}\r\n", resp.status);
    serialize_headers(&resp.headers, Some(resp.body.len()), buf);
}

/// Header lines plus the blank line that ends the head. `body_len`, when
/// given, is sent as `Content-Length` unless a header already sets it.
fn serialize_headers(headers: &Headers, body_len: Option<usize>, buf: &mut Vec<u8>) {
    let mut has_len = false;
    for (n, v) in headers.iter() {
        has_len |= n.eq_ignore_ascii_case("content-length");
        buf.extend_from_slice(n.as_bytes());
        buf.extend_from_slice(b": ");
        buf.extend_from_slice(v.as_bytes());
        buf.extend_from_slice(b"\r\n");
    }
    if let (false, Some(len)) = (has_len, body_len) {
        let _ = write!(buf, "Content-Length: {len}\r\n");
    }
    buf.extend_from_slice(b"\r\n");
}

/// Largest serialization buffer kept for the next message on a thread.
const WIRE_BUF_RETAIN: usize = 64 * 1024;

thread_local! {
    /// Per-thread serialization buffer reused by [`write_once`].
    static WIRE_BUF: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Serialize a whole message with `fill`, then hand it to `w` in one
/// `write_all`. Formatting straight into an unbuffered socket would turn
/// every fragment into its own `write(2)` — and, under `TCP_NODELAY`,
/// its own segment that wakes the peer for a partial parse.
fn write_once<W: Write>(w: &mut W, fill: impl FnOnce(&mut Vec<u8>)) -> std::io::Result<()> {
    WIRE_BUF.with(|cell| {
        let mut buf = cell.take();
        buf.clear();
        fill(&mut buf);
        let result = w.write_all(&buf);
        if buf.capacity() <= WIRE_BUF_RETAIN {
            cell.set(buf);
        }
        result
    })
}

/// Incremental request parse straight off a connection's read buffer.
///
/// Returns `Ok(Some((request, consumed)))` when `buf` starts with one
/// complete request (`consumed` bytes of it), `Ok(None)` when more bytes
/// are needed, and `Err` when the prefix can never become a valid
/// request (over-limit or malformed). No intermediate line buffers: the
/// head is parsed in place and only the owned `Request` fields allocate.
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, WireError> {
    // --- request line ---
    let Some((line, mut pos)) = next_line(buf, 0)? else { return Ok(None) };
    let line = std::str::from_utf8(line).map_err(|_| WireError::Malformed("bad request line"))?;
    let mut parts = line.split_whitespace();
    let method = parts.next().filter(|m| !m.is_empty());
    let method = method.ok_or(WireError::Malformed("empty request line"))?;
    let target = parts.next().ok_or(WireError::Malformed("missing target"))?;
    let version = parts.next().ok_or(WireError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(WireError::Malformed("unsupported version"));
    }

    // --- headers ---
    let mut headers = Headers::new();
    loop {
        let Some((line, next)) = next_line(buf, pos)? else { return Ok(None) };
        pos = next;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(WireError::Malformed("too many headers"));
        }
        let line = String::from_utf8_lossy(line);
        let mut it = line.splitn(2, ':');
        let name = it.next().unwrap_or("").trim();
        let value = it.next().ok_or(WireError::Malformed("header missing colon"))?.trim();
        if name.is_empty() {
            return Err(WireError::Malformed("empty header name"));
        }
        headers.add(name, value);
    }

    // --- body ---
    let len = content_length(&headers)?.unwrap_or(0);
    if len > MAX_BODY {
        return Err(WireError::Malformed("body too large"));
    }
    if buf.len() < pos + len {
        return Ok(None);
    }
    let body = buf[pos..pos + len].to_vec();
    Ok(Some((
        Request { method: method.to_owned(), target: target.to_owned(), headers, body },
        pos + len,
    )))
}

/// Find the next `\n`-terminated line starting at `start`: returns the
/// line contents (trailing `\r` stripped) and the offset just past the
/// newline, or `None` when the line is still incomplete.
fn next_line(buf: &[u8], start: usize) -> Result<Option<(&[u8], usize)>, WireError> {
    let rest = &buf[start.min(buf.len())..];
    match rest.iter().position(|&b| b == b'\n') {
        Some(i) => {
            if i > MAX_LINE {
                return Err(WireError::Malformed("line too long"));
            }
            let mut line = &rest[..i];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            Ok(Some((line, start + i + 1)))
        }
        None => {
            if rest.len() > MAX_LINE {
                return Err(WireError::Malformed("line too long"));
            }
            Ok(None)
        }
    }
}

/// Format a strong entity-tag from a 64-bit content hash (`"<16 hex>"`,
/// quotes included — the wire form).
pub fn format_etag(hash: u64) -> String {
    format!("\"{hash:016x}\"")
}

/// Does an `If-None-Match` header value match `etag` (the current
/// representation's strong entity-tag, wire form with quotes)?
///
/// Implements RFC 9110 §13.1.2: `*` matches any current representation;
/// otherwise the field is a comma-separated list of entity-tags compared
/// with the *weak* comparison (a `W/` prefix on either side is ignored —
/// If-None-Match is defined to use weak comparison).
pub fn if_none_match(header: &str, etag: &str) -> bool {
    let header = header.trim();
    if header == "*" {
        return true;
    }
    let strip = |t: &str| t.trim().trim_start_matches("W/").to_owned();
    let target = strip(etag);
    header.split(',').any(|candidate| strip(candidate) == target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn round_trip_request(req: &Request) -> Request {
        let mut buf = Vec::new();
        write_request(req, &mut buf).unwrap();
        read_request(&mut BufReader::new(&buf[..])).unwrap()
    }

    #[test]
    fn request_round_trip() {
        let mut req = Request::get("/user/a?x=1&y=2");
        req.headers.add("Host", "dissenter.test");
        req.headers.add("Cookie", "session=abc; nsfw=1");
        let got = round_trip_request(&req);
        assert_eq!(got.method, "GET");
        assert_eq!(got.path(), "/user/a");
        assert_eq!(got.query("x").as_deref(), Some("1"));
        assert_eq!(got.query("z"), None);
        assert_eq!(got.cookie("session"), Some("abc"));
        assert_eq!(got.cookie("nsfw"), Some("1"));
        assert_eq!(got.cookie("missing"), None);
    }

    #[test]
    fn request_with_body_round_trip() {
        let mut req = Request::get("/submit");
        req.method = "POST".into();
        req.body = b"url=https%3A%2F%2Fexample.com".to_vec();
        let got = round_trip_request(&req);
        assert_eq!(got.body, req.body);
    }

    #[test]
    fn response_round_trip_and_wire_size() {
        let mut resp = Response::json("{\"ok\":true}".into());
        resp.headers.add("X-RateLimit-Remaining", "59");
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), resp.wire_size());
        let got = read_response(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(got.status, Status::OK);
        assert_eq!(got.headers.get("x-ratelimit-remaining"), Some("59"));
        assert_eq!(got.text(), "{\"ok\":true}");
    }

    #[test]
    fn not_found_is_tiny() {
        // §3.1: non-existent user pages are ~150 bytes vs ≥10 kB real ones.
        let sz = Response::not_found().wire_size();
        assert!(sz < 300, "{sz}");
    }

    #[test]
    fn malformed_requests_rejected() {
        for bad in [
            "GARBAGE\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / HTTP/2.0\r\n\r\n",
            "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
        ] {
            let r = read_request(&mut BufReader::new(bad.as_bytes()));
            assert!(r.is_err(), "{bad:?}");
        }
    }

    #[test]
    fn eof_before_any_bytes_is_eof_variant() {
        let e = read_request(&mut BufReader::new(&b""[..])).unwrap_err();
        assert!(matches!(e, WireError::Eof));
    }

    #[test]
    fn oversized_body_rejected() {
        let msg = format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        let r = read_request(&mut BufReader::new(msg.as_bytes()));
        assert!(matches!(r, Err(WireError::Malformed(_))));
    }

    #[test]
    fn truncated_body_detected() {
        let msg = "GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        let r = read_request(&mut BufReader::new(msg.as_bytes()));
        assert!(matches!(r, Err(WireError::Malformed("truncated body"))));
    }

    #[test]
    fn percent_codec_round_trip() {
        let s = "https://example.com/path?a=1&b=two words";
        assert_eq!(percent_decode(&percent_encode(s)), s);
    }

    #[test]
    fn headers_case_insensitive() {
        let mut h = Headers::new();
        h.add("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
    }

    #[test]
    fn if_none_match_semantics() {
        let etag = format_etag(0xdead_beef_cafe_f00d);
        assert_eq!(etag, "\"deadbeefcafef00d\"");
        assert!(if_none_match(&etag, &etag));
        assert!(if_none_match("*", &etag));
        assert!(if_none_match(&format!("\"0000\", {etag}"), &etag), "comma list");
        assert!(if_none_match(&format!("W/{etag}"), &etag), "weak comparison");
        assert!(!if_none_match("\"0123\"", &etag));
        assert!(!if_none_match("", &etag));
    }

    #[test]
    fn not_modified_has_no_body_and_preserves_headers() {
        let mut full = Response::html("<html>big page</html>".into());
        full.headers.add("ETag", "\"abc\"");
        full.headers.add("Cache-Control", "private, max-age=0, must-revalidate");
        let nm = full.clone().into_not_modified();
        assert_eq!(nm.status, Status::NOT_MODIFIED);
        assert!(nm.body.is_empty());
        assert_eq!(nm.etag(), Some("\"abc\""));
        assert_eq!(nm.headers.get("cache-control"), full.headers.get("cache-control"));
        // And it survives the wire.
        let mut buf = Vec::new();
        nm.write_to(&mut buf).unwrap();
        let got = read_response(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(got.status, Status::NOT_MODIFIED);
        assert!(got.body.is_empty());
        assert_eq!(got.etag(), Some("\"abc\""));
    }

    #[test]
    fn content_length_rejects_smuggling_shapes() {
        // `usize::parse` happily accepts a leading `+`; the wire must not.
        for bad in ["+10", "-1", "1 0", "0x10", "10.", "", " 10", "1e3"] {
            let mut h = Headers::new();
            h.add("Content-Length", bad);
            assert!(
                matches!(content_length(&h), Err(WireError::Malformed(_))),
                "{bad:?} must be rejected"
            );
        }
        let msg = "POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc";
        let r = read_request(&mut BufReader::new(msg.as_bytes()));
        assert!(matches!(r, Err(WireError::Malformed("bad content-length"))), "{r:?}");
    }

    #[test]
    fn duplicate_content_length_must_agree() {
        // Disagreeing duplicates are the request-smuggling classic: two
        // hops each believe a different body boundary.
        let msg = "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 10\r\n\r\nabc";
        let r = read_request(&mut BufReader::new(msg.as_bytes()));
        assert!(matches!(r, Err(WireError::Malformed("conflicting content-length"))), "{r:?}");
        // Agreeing duplicates are redundant but harmless.
        let msg = "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc";
        let req = read_request(&mut BufReader::new(msg.as_bytes())).unwrap();
        assert_eq!(req.body, b"abc");
    }

    #[test]
    fn parse_request_incremental_completion() {
        let msg = b"POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        // Every proper prefix is Partial; the full message parses.
        for cut in 0..msg.len() {
            match parse_request(&msg[..cut]) {
                Ok(None) => {}
                other => panic!("prefix of {cut} bytes must be partial, got {other:?}"),
            }
        }
        let (req, consumed) = parse_request(msg).unwrap().expect("complete");
        assert_eq!(consumed, msg.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/submit");
        assert_eq!(req.headers.get("host"), Some("x"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn parse_request_pipelined_pair() {
        let msg = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (first, used) = parse_request(msg).unwrap().expect("first");
        assert_eq!(first.target, "/a");
        let (second, used2) = parse_request(&msg[used..]).unwrap().expect("second");
        assert_eq!(second.target, "/b");
        assert_eq!(used + used2, msg.len());
    }

    #[test]
    fn parse_request_enforces_caps_and_shape() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 10));
        assert!(matches!(
            parse_request(long.as_bytes()),
            Err(WireError::Malformed("line too long"))
        ));
        // An over-long line is rejected even before its newline arrives.
        let unterminated = "G".repeat(MAX_LINE + 10);
        assert!(matches!(
            parse_request(unterminated.as_bytes()),
            Err(WireError::Malformed("line too long"))
        ));
        assert!(parse_request(b"GET / HTTP/2.0\r\n\r\n").is_err());
        assert!(parse_request(b"GET / HTTP/1.1\r\nNoColon\r\n\r\n").is_err());
        let huge = format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(
            parse_request(huge.as_bytes()),
            Err(WireError::Malformed("body too large"))
        ));
    }

    #[test]
    fn serialize_response_head_matches_write_to() {
        let mut resp = Response::html("<p>hello</p>".into());
        resp.headers.add("ETag", "\"aa\"");
        let mut head = Vec::new();
        serialize_response_head(&resp, &mut head);
        let mut full = Vec::new();
        resp.write_to(&mut full).unwrap();
        let mut reassembled = head.clone();
        reassembled.extend_from_slice(&resp.body);
        assert_eq!(reassembled, full, "head + body must equal the streamed form");
    }

    /// A `Write` that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(b);
            Ok(b.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn sent_request(req: &Request) -> CountingWriter {
        let mut w = CountingWriter::default();
        write_request(req, &mut w).unwrap();
        let mut buf = Vec::new();
        serialize_request(req, &mut buf);
        assert_eq!(w.bytes, buf, "write_request sends exactly serialize_request's bytes");
        w
    }

    #[test]
    fn conditional_get_is_one_write_with_pinned_bytes() {
        let mut req = Request::get("/c/abc?page=2");
        req.headers.add("Host", "sim.local");
        req.headers.add("Cookie", "session=tok; nsfw=1");
        req.headers.add("If-None-Match", "\"00ff\"");
        let w = sent_request(&req);
        assert_eq!(w.writes, 1);
        assert_eq!(
            w.bytes,
            b"GET /c/abc?page=2 HTTP/1.1\r\nHost: sim.local\r\nCookie: session=tok; nsfw=1\r\n\
              If-None-Match: \"00ff\"\r\n\r\n"
        );
    }

    #[test]
    fn request_body_gets_content_length_in_one_write() {
        let mut req = Request::get("/submit");
        req.method = "POST".into();
        req.headers.add("Host", "sim.local");
        req.body = b"url=a%2Fb".to_vec();
        let w = sent_request(&req);
        assert_eq!(w.writes, 1);
        assert_eq!(
            w.bytes,
            b"POST /submit HTTP/1.1\r\nHost: sim.local\r\nContent-Length: 9\r\n\r\nurl=a%2Fb"
        );
    }

    #[test]
    fn response_keeps_caller_content_length_in_one_write() {
        let mut resp = Response::status(Status::OK);
        resp.headers.add("Content-Type", "text/plain");
        resp.headers.add("Content-Length", "5");
        resp.body = b"hello".to_vec();
        let mut w = CountingWriter::default();
        resp.write_to(&mut w).unwrap();
        assert_eq!(w.writes, 1);
        let expected: &[u8] =
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(w.bytes, expected);
        assert_eq!(resp.wire_size(), expected.len());
    }

    #[test]
    fn status_properties() {
        assert!(Status::OK.is_success());
        assert!(!Status::NOT_FOUND.is_success());
        assert_eq!(Status(429).reason(), "Too Many Requests");
        assert_eq!(Status(999).reason(), "Unknown");
    }
}

#[cfg(test)]
mod limit_tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn header_count_cap_enforced() {
        let mut msg = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            msg.push_str(&format!("X-H{i}: v\r\n"));
        }
        msg.push_str("\r\n");
        let r = read_request(&mut BufReader::new(msg.as_bytes()));
        assert!(matches!(r, Err(WireError::Malformed("too many headers"))));
    }

    #[test]
    fn line_length_cap_enforced() {
        let msg = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 10));
        let r = read_request(&mut BufReader::new(msg.as_bytes()));
        assert!(matches!(r, Err(WireError::Malformed("line too long"))));
    }

    #[test]
    fn percent_decode_truncated_escape_passthrough() {
        assert_eq!(percent_decode("%"), "%");
        assert_eq!(percent_decode("%2"), "%2");
        assert_eq!(percent_decode("a%zzb"), "a%zzb");
        assert_eq!(percent_decode("%41"), "A");
        assert_eq!(percent_decode("x+y"), "x y");
    }

    #[test]
    fn query_without_value_and_empty_value() {
        let req = Request::get("/p?flag&k=&x=1");
        assert_eq!(req.query("flag").as_deref(), Some(""));
        assert_eq!(req.query("k").as_deref(), Some(""));
        assert_eq!(req.query("x").as_deref(), Some("1"));
    }
}

/// Wire round trips over pipelined streams: messages serialized back to
/// back read back one at a time, each parse consuming exactly its own
/// bytes.
#[cfg(test)]
mod pipeline_props {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    /// A crawl GET (with a session cookie when `cookie` is non-empty), or
    /// a POST when `body` is non-empty.
    fn request((path, cookie, body): (String, String, Vec<u8>)) -> Request {
        let mut req = Request::get(&format!("/{path}"));
        req.headers.add("Host", "sim.local");
        if !cookie.is_empty() {
            req.headers.add("Cookie", &format!("session={cookie}"));
        }
        if !body.is_empty() {
            req.method = "POST".to_owned();
            req.body = body;
        }
        req
    }

    /// A page, an empty-body `304`, or a `404` whose caller set its own
    /// `Content-Length`.
    fn response((kind, body): (u8, Vec<u8>)) -> Response {
        match kind % 3 {
            0 => Response::html(String::from_utf8_lossy(&body).into_owned()),
            1 => {
                let mut h = Headers::new();
                h.add("ETag", &format_etag(body.len() as u64));
                Response::not_modified(h)
            }
            _ => {
                let mut r = Response::status(Status::NOT_FOUND);
                r.headers.add("Content-Length", &body.len().to_string());
                r.body = body;
                r
            }
        }
    }

    /// `headers` as the peer parses them: the sender adds
    /// `Content-Length` when `body_len` is given and the caller set none.
    fn on_the_wire(headers: &Headers, body_len: Option<usize>) -> Headers {
        let mut want = headers.clone();
        if let (None, Some(len)) = (headers.get("content-length"), body_len) {
            want.add("Content-Length", &len.to_string());
        }
        want
    }

    proptest! {
        #[test]
        fn pipelined_requests_parse_back_one_at_a_time(
            specs in prop::collection::vec(
                ("[a-z0-9/._-]{0,24}", "[a-z0-9]{0,12}", prop::collection::vec(any::<u8>(), 0..48)),
                1..9,
            )
        ) {
            let reqs: Vec<Request> = specs.into_iter().map(request).collect();
            let mut wire = Vec::new();
            let mut ends = Vec::new();
            for req in &reqs {
                serialize_request(req, &mut wire);
                ends.push(wire.len());
            }
            let mut batch = Vec::new();
            write_requests(&reqs, &mut batch).unwrap();
            prop_assert_eq!(&batch, &wire);
            let mut pos = 0;
            for (req, end) in reqs.iter().zip(ends) {
                let (got, consumed) = parse_request(&wire[pos..]).unwrap().expect("complete");
                prop_assert_eq!(pos + consumed, end);
                prop_assert_eq!(&got.method, &req.method);
                prop_assert_eq!(&got.target, &req.target);
                let body_len = (!req.body.is_empty()).then_some(req.body.len());
                prop_assert_eq!(got.headers, on_the_wire(&req.headers, body_len));
                prop_assert_eq!(&got.body, &req.body);
                pos = end;
            }
            prop_assert!(parse_request(&wire[pos..]).unwrap().is_none());
        }

        #[test]
        fn pipelined_responses_read_back_in_order(
            specs in prop::collection::vec(
                (any::<u8>(), prop::collection::vec(any::<u8>(), 0..64)),
                1..9,
            )
        ) {
            let resps: Vec<Response> = specs.into_iter().map(response).collect();
            let mut wire = Vec::new();
            for resp in &resps {
                serialize_response_head(resp, &mut wire);
                wire.extend_from_slice(&resp.body);
            }
            let mut reader = BufReader::new(&wire[..]);
            for resp in &resps {
                let got = read_response(&mut reader).unwrap();
                prop_assert_eq!(got.status, resp.status);
                prop_assert_eq!(got.headers, on_the_wire(&resp.headers, Some(resp.body.len())));
                prop_assert_eq!(&got.body, &resp.body);
            }
            prop_assert!(matches!(read_response(&mut reader), Err(WireError::Eof)));
        }
    }
}
