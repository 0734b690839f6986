//! A minimal-but-correct HTTP/1.1 codec on top of `std::io`.
//!
//! Supports exactly what the serving layer needs: request-line and
//! header parsing with hard size limits, `Content-Length` bodies,
//! keep-alive negotiation, and response serialization with a correct
//! `Content-Length` on every reply. Anything outside that subset
//! (chunked transfer encoding, continuation lines, HTTP/2 upgrades)
//! is rejected as `400 Bad Request` rather than mis-parsed.

use std::io::{self, BufRead, Read, Write};

/// Longest accepted request line or header line, in bytes.
pub const MAX_LINE_BYTES: u64 = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 100;
/// Largest accepted request body, in bytes.
pub const MAX_BODY_BYTES: u64 = 1024 * 1024;

/// Why reading a request failed.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes on the wire are not a well-formed HTTP/1.x request
    /// (or exceed a size limit). The peer should get a 400.
    BadRequest(String),
    /// The socket timed out mid-request (idle keep-alive connections
    /// end here); the connection is silently closed.
    Timeout,
    /// Any other transport error; the connection is closed.
    Io(io::Error),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
            _ => HttpError::Io(e),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::Timeout => write!(f, "timed out"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

/// A parsed HTTP/1.x request.
#[derive(Debug)]
pub struct Request {
    /// The request method, e.g. `GET`.
    pub method: String,
    /// The raw request target (path plus optional query string).
    pub target: String,
    /// `HTTP/1.0` or `HTTP/1.1`.
    pub version: String,
    /// Header `(name, value)` pairs; names are lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Decode `%XX` percent-escapes. `plus_is_space` additionally maps
/// `+` to a space (the form-urlencoded convention used in query
/// strings, but **not** in paths). A `%` not followed by two hex
/// digits is an error — routers answer it with a 400 rather than
/// passing the mangled text to a handler.
pub fn percent_decode(s: &str, plus_is_space: bool) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok());
                let Some(b) = hex else {
                    return Err(format!("malformed percent-escape in {s:?}"));
                };
                out.push(b);
                i += 3;
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("percent-escapes in {s:?} are not valid UTF-8"))
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The request path with any query string stripped (still
    /// percent-encoded; see [`Request::decoded_path`]).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or("")
    }

    /// The raw query string (the part after the first `?`), if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// The percent-decoded request path. `Err` means the target holds
    /// a malformed escape — answer with a 400.
    pub fn decoded_path(&self) -> Result<String, String> {
        percent_decode(self.path(), false)
    }

    /// The query string parsed as `key=value` pairs in order, both
    /// sides percent-decoded (`+` means space). A key without `=`
    /// gets an empty value. `Err` on malformed escapes.
    pub fn query_params(&self) -> Result<Vec<(String, String)>, String> {
        let Some(q) = self.query() else {
            return Ok(Vec::new());
        };
        let mut params = Vec::new();
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            params.push((percent_decode(k, true)?, percent_decode(v, true)?));
        }
        Ok(params)
    }

    /// Whether the connection should stay open after the response:
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`;
    /// HTTP/1.0 defaults to close unless `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        let conn = self
            .header("connection")
            .map(|v| v.to_ascii_lowercase())
            .unwrap_or_default();
        if self.version == "HTTP/1.0" {
            conn.contains("keep-alive")
        } else {
            !conn.contains("close")
        }
    }
}

/// Read one `\n`-terminated line with a length cap, returning it
/// without the trailing `\r\n`/`\n`. `Ok(None)` is clean EOF before
/// any byte of the line.
fn read_line_limited<R: BufRead>(r: &mut R) -> Result<Option<String>, HttpError> {
    let mut raw = Vec::new();
    let n = r.take(MAX_LINE_BYTES).read_until(b'\n', &mut raw)?;
    if n == 0 {
        return Ok(None);
    }
    if raw.last() != Some(&b'\n') {
        return Err(HttpError::BadRequest(format!(
            "line exceeds {MAX_LINE_BYTES} bytes or truncated"
        )));
    }
    raw.pop();
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw)
        .map(Some)
        .map_err(|_| HttpError::BadRequest("request line or header is not valid UTF-8".into()))
}

/// Read one request off the connection. `Ok(None)` means the peer
/// closed cleanly at a request boundary (the normal end of a
/// keep-alive conversation).
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Option<Request>, HttpError> {
    let Some(start) = read_line_limited(r)? else {
        return Ok(None);
    };
    let mut parts = start.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => {
            (m.to_string(), t.to_string(), v.to_string())
        }
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {start:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!(
            "unsupported version {version:?}"
        )));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line_limited(r)?
            .ok_or_else(|| HttpError::BadRequest("EOF inside header block".into()))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::BadRequest(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut req = Request {
        method,
        target,
        version,
        headers,
        body: Vec::new(),
    };
    if req.header("transfer-encoding").is_some() {
        return Err(HttpError::BadRequest(
            "transfer-encoding is not supported".into(),
        ));
    }
    if let Some(cl) = req.header("content-length") {
        let len: u64 = cl
            .parse()
            .map_err(|_| HttpError::BadRequest(format!("bad content-length {cl:?}")))?;
        if len > MAX_BODY_BYTES {
            return Err(HttpError::BadRequest(format!(
                "body of {len} bytes exceeds {MAX_BODY_BYTES}"
            )));
        }
        let mut body = vec![0u8; len as usize];
        r.read_exact(&mut body).map_err(HttpError::from)?;
        req.body = body;
    }
    Ok(Some(req))
}

/// An HTTP response ready for serialization.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra headers, e.g. `Retry-After`.
    pub extra_headers: Vec<(&'static str, String)>,
    /// The response body.
    pub body: Vec<u8>,
    /// Prefer `Transfer-Encoding: chunked` framing (streamed bodies
    /// such as `/query`). The server honours this only for HTTP/1.1
    /// peers; HTTP/1.0 clients get the same bytes with a
    /// `Content-Length` instead (see [`Response::write_chunked_to`]).
    pub chunked: bool,
}

/// The canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

impl Response {
    /// A 200 with the given content type and body.
    pub fn ok(content_type: &'static str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            content_type,
            extra_headers: Vec::new(),
            body: body.into(),
            chunked: false,
        }
    }

    /// An error response with a one-line plain-text body.
    pub fn error(status: u16, detail: &str) -> Response {
        Response {
            status,
            content_type: "text/plain",
            extra_headers: Vec::new(),
            body: format!("{status} {}: {detail}\n", reason(status)).into_bytes(),
            chunked: false,
        }
    }

    /// Attach an extra header.
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.extra_headers.push((name, value));
        self
    }

    /// Mark the body for chunked framing when the peer speaks HTTP/1.1.
    pub fn with_chunked(mut self) -> Response {
        self.chunked = true;
        self
    }

    /// Serialize onto the wire. `keep_alive` controls the
    /// `Connection` header the peer sees.
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        // One write for head + body: two segments would trip the
        // Nagle / delayed-ACK interaction and cost ~40 ms per
        // response on loopback.
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&self.body);
        w.write_all(&wire)?;
        w.flush()
    }

    /// Serialize with `Transfer-Encoding: chunked` framing: the body
    /// goes out in [`CHUNK_BYTES`]-sized chunks, then the `0` chunk
    /// and the terminating blank line. Only valid for HTTP/1.1 peers —
    /// the caller (the server loop) falls back to [`Response::write_to`]
    /// for HTTP/1.0, which cannot parse chunked framing.
    pub fn write_chunked_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        // Frame into one buffer and write once, for the same
        // Nagle-avoidance reason as `write_to`.
        let mut wire = head.into_bytes();
        for chunk in self.body.chunks(CHUNK_BYTES) {
            wire.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
            wire.extend_from_slice(chunk);
            wire.extend_from_slice(b"\r\n");
        }
        wire.extend_from_slice(b"0\r\n\r\n");
        w.write_all(&wire)?;
        w.flush()
    }
}

/// Chunk payload size for [`Response::write_chunked_to`].
pub const CHUNK_BYTES: usize = 16 * 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_simple_get() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn query_string_is_stripped_from_path() {
        let req = parse(b"GET /metrics?x=1 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path(), "/metrics");
        assert_eq!(req.target, "/metrics?x=1");
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.wants_keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.wants_keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn content_length_body_is_read() {
        let req = parse(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn eof_at_boundary_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for raw in [
            &b"NOT A VALID REQUEST\r\n\r\n"[..],
            b"GET /\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"GET no-leading-slash HTTP/1.1\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::BadRequest(_))),
                "{:?} should be rejected",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn oversized_lines_and_bodies_are_rejected() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9000));
        assert!(matches!(
            parse(long.as_bytes()),
            Err(HttpError::BadRequest(_))
        ));
        let big = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            2 * 1024 * 1024
        );
        assert!(matches!(
            parse(big.as_bytes()),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn path_and_query_split_with_percent_decoding() {
        let req = parse(
            b"GET /query?filter=prefix%3D10.0.0.0%2F8+origin%3D64500&format=jsonl HTTP/1.1\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.path(), "/query");
        assert_eq!(req.decoded_path().unwrap(), "/query");
        assert_eq!(
            req.query(),
            Some("filter=prefix%3D10.0.0.0%2F8+origin%3D64500&format=jsonl")
        );
        let params = req.query_params().unwrap();
        assert_eq!(
            params,
            vec![
                (
                    "filter".to_string(),
                    "prefix=10.0.0.0/8 origin=64500".to_string()
                ),
                ("format".to_string(), "jsonl".to_string()),
            ]
        );

        // Escapes in the path decode too, but `+` stays literal there.
        let req = parse(b"GET /rdap/ip/10%2E0%2E1%2E7 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.decoded_path().unwrap(), "/rdap/ip/10.0.1.7");
        let req = parse(b"GET /a+b HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.decoded_path().unwrap(), "/a+b");

        // No query string: empty params, not an error.
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.query(), None);
        assert!(req.query_params().unwrap().is_empty());

        // Value-less keys and empty pairs.
        let req = parse(b"GET /q?lossy&&x=1 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(
            req.query_params().unwrap(),
            vec![
                ("lossy".to_string(), String::new()),
                ("x".to_string(), "1".to_string())
            ]
        );
    }

    #[test]
    fn malformed_percent_escapes_are_errors() {
        for target in ["/a%2", "/a%zz", "/q?x=%", "/q?x=%fg", "/q?%2=v"] {
            let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
            let req = parse(raw.as_bytes()).unwrap().unwrap();
            let bad = req.decoded_path().is_err() || req.query_params().is_err();
            assert!(bad, "{target} should fail to decode");
        }
        // Escapes that decode to invalid UTF-8 are rejected, not mangled.
        let req = parse(b"GET /a%ff%fe HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(req.decoded_path().is_err());
    }

    #[test]
    fn chunked_response_frames_body_and_http10_fallback_keeps_content_length() {
        let body = "x".repeat(CHUNK_BYTES + 5);
        let resp = Response::ok("text/csv", body.clone()).with_chunked();
        assert!(resp.chunked);

        let mut buf = Vec::new();
        resp.write_chunked_to(&mut buf, true).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
        assert!(!text.contains("Content-Length"), "{text}");
        // Two chunks: CHUNK_BYTES then 5 bytes, then the last-chunk marker.
        assert!(text.contains(&format!("{CHUNK_BYTES:x}\r\n")));
        assert!(text.contains("\r\n5\r\nxxxxx\r\n0\r\n\r\n"), "{text}");

        // The HTTP/1.0 downgrade path: same body, classic framing.
        let mut buf = Vec::new();
        resp.write_to(&mut buf, false).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains(&format!("Content-Length: {}\r\n", body.len())));
        assert!(!text.contains("Transfer-Encoding"));
        assert!(text.ends_with(&body));
    }

    #[test]
    fn response_serializes_with_content_length() {
        let mut buf = Vec::new();
        Response::ok("text/plain", "ok\n")
            .write_to(&mut buf, true)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));

        let mut buf = Vec::new();
        Response::error(429, "slow down")
            .with_header("Retry-After", "2".into())
            .write_to(&mut buf, false)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }
}
