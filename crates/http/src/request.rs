//! HTTP request parsing.

use std::fmt;
use std::io::BufRead;
use std::time::Instant;

/// Maximum accepted header block, in bytes.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Maximum accepted body, in bytes.
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Supported request methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET
    Get,
    /// POST
    Post,
    /// PUT
    Put,
    /// DELETE
    Delete,
}

impl Method {
    fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "PUT" => Some(Method::Put),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        })
    }
}

/// Request-parsing failures, each mapping to an HTTP status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line / headers → 400.
    BadRequest(String),
    /// Unknown method → 501.
    UnsupportedMethod(String),
    /// Headers or body exceeded the size limits → 413.
    TooLarge,
    /// A socket read/write deadline expired → 408.
    Timeout,
    /// Underlying socket error.
    Io(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::UnsupportedMethod(m) => write!(f, "unsupported method: {m}"),
            HttpError::TooLarge => write!(f, "request too large"),
            HttpError::Timeout => write!(f, "request timed out"),
            HttpError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Classifies a socket error: expired `SO_RCVTIMEO`/`SO_SNDTIMEO`
/// deadlines surface as `WouldBlock`/`TimedOut` and map to 408.
fn io_error(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e.to_string()),
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Decoded path, without the query string.
    pub path: String,
    /// Query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
    /// Minor HTTP version: 1 for HTTP/1.1, 0 for HTTP/1.0.
    pub minor_version: u8,
    /// Absolute deadline for answering this request, when the server
    /// enforces a per-request budget. Handlers may pass the remaining
    /// time down into their own deadline-aware calls.
    pub deadline: Option<Instant>,
}

impl Request {
    /// First query parameter named `key`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Header value (name matched case-insensitively at parse time).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses the body as JSON.
    pub fn json_body(&self) -> Result<minaret_json::Value, HttpError> {
        let text = std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::BadRequest("body is not UTF-8".into()))?;
        minaret_json::parse(text).map_err(|e| HttpError::BadRequest(e.to_string()))
    }

    /// Whether the client asked for (or its HTTP version implies) closing
    /// the connection after this response.
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            // HTTP/1.0 defaults to close, HTTP/1.1 to keep-alive.
            _ => self.minor_version == 0,
        }
    }

    /// Reads and parses one request from a buffered reader. Returns
    /// `Ok(None)` when the peer closed cleanly before sending anything
    /// (the normal end of a keep-alive connection).
    pub fn read_from_buffered<R: BufRead>(reader: &mut R) -> Result<Option<Request>, HttpError> {
        let mut header_bytes = 0usize;
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(io_error)?;
        if n == 0 {
            return Ok(None);
        }
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(HttpError::TooLarge);
        }
        let (method, path, query, minor_version) = parse_request_line(line.trim_end())?;

        let mut headers = Vec::new();
        loop {
            let mut hl = String::new();
            let n = reader.read_line(&mut hl).map_err(io_error)?;
            if n == 0 {
                return Err(HttpError::Io("unexpected EOF in headers".into()));
            }
            header_bytes += hl.len();
            if header_bytes > MAX_HEADER_BYTES {
                return Err(HttpError::TooLarge);
            }
            let trimmed = hl.trim_end();
            if trimmed.is_empty() {
                break;
            }
            headers.push(parse_header_line(trimmed)?);
        }

        let content_length = body_length(&headers)?;
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).map_err(io_error)?;
        Ok(Some(Request {
            method,
            path,
            query,
            headers,
            body,
            minor_version,
            deadline: None,
        }))
    }

    /// Incrementally parses one request from the front of `buf` without
    /// consuming input. This is the reactor's resumable entry point:
    ///
    /// - `Ok(Some((request, consumed)))` — a complete request occupied
    ///   `buf[..consumed]`; the caller drains those bytes and may call
    ///   again on the remainder (pipelining).
    /// - `Ok(None)` — `buf` holds a prefix of a request; call again once
    ///   more bytes arrive. An empty buffer is simply `Ok(None)`; the
    ///   caller decides what EOF means for a partial buffer.
    /// - `Err(_)` — the prefix can never become a valid request (or
    ///   exceeds the size limits); more input cannot fix it.
    ///
    /// Parse results are identical to [`Request::read_from_buffered`] on
    /// the same bytes (property-tested in `tests/http_parser_proptest`).
    pub fn parse(buf: &[u8]) -> Result<Option<(Request, usize)>, HttpError> {
        let mut pos = 0usize;
        let mut header_bytes = 0usize;
        let Some(request_line) = next_line(buf, &mut pos, &mut header_bytes)? else {
            return Ok(None);
        };
        let (method, path, query, minor_version) = parse_request_line(request_line)?;

        let mut headers = Vec::new();
        loop {
            let Some(line) = next_line(buf, &mut pos, &mut header_bytes)? else {
                return Ok(None);
            };
            if line.is_empty() {
                break;
            }
            headers.push(parse_header_line(line)?);
        }

        let content_length = body_length(&headers)?;
        if buf.len() - pos < content_length {
            return Ok(None);
        }
        let body = buf[pos..pos + content_length].to_vec();
        Ok(Some((
            Request {
                method,
                path,
                query,
                headers,
                body,
                minor_version,
                deadline: None,
            },
            pos + content_length,
        )))
    }
}

/// Accumulates raw socket bytes and yields complete pipelined requests.
///
/// This is the receive half of the reactor's per-connection state
/// machine: bytes go in whenever the socket is readable (in whatever
/// fragments the peer and the kernel produce), and
/// [`next_request`](RequestBuffer::next_request) pops one request at a
/// time off the front, resuming cleanly across arbitrarily split input.
#[derive(Debug, Default)]
pub struct RequestBuffer {
    buf: Vec<u8>,
}

impl RequestBuffer {
    /// An empty buffer.
    pub fn new() -> RequestBuffer {
        RequestBuffer::default()
    }

    /// Appends bytes read from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a parsed request.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no unconsumed bytes are buffered — at this point a peer
    /// EOF is a clean end of connection rather than a truncated request.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Parses and consumes the next complete request, if one is fully
    /// buffered. `Ok(None)` means "need more bytes"; errors are
    /// permanent for the connection (see [`Request::parse`]).
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        match Request::parse(&self.buf)? {
            Some((request, consumed)) => {
                self.buf.drain(..consumed);
                Ok(Some(request))
            }
            None => Ok(None),
        }
    }
}

/// Pulls the next `\n`-terminated line out of `buf` starting at `pos`,
/// mirroring `read_line` + `trim_end` semantics: the terminator may be
/// bare `\n` or `\r\n`, trailing whitespace is trimmed, and the raw line
/// length (terminator included) counts against [`MAX_HEADER_BYTES`].
/// Returns `Ok(None)` when no complete line is buffered yet — unless the
/// unterminated remainder already exceeds the header cap, which no
/// future bytes can fix.
fn next_line<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    header_bytes: &mut usize,
) -> Result<Option<&'a str>, HttpError> {
    let rest = &buf[*pos..];
    let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
        if *header_bytes + rest.len() > MAX_HEADER_BYTES {
            return Err(HttpError::TooLarge);
        }
        return Ok(None);
    };
    let line = &rest[..=nl];
    let text = std::str::from_utf8(line)
        .map_err(|_| HttpError::Io("stream did not contain valid UTF-8".into()))?;
    *header_bytes += line.len();
    if *header_bytes > MAX_HEADER_BYTES {
        return Err(HttpError::TooLarge);
    }
    *pos += line.len();
    Ok(Some(text.trim_end()))
}

/// Parsed request line: method, path, query pairs, HTTP minor version.
type RequestLine = (Method, String, Vec<(String, String)>, u8);

/// Parses `METHOD TARGET HTTP/1.x` (already line-trimmed).
fn parse_request_line(request_line: &str) -> Result<RequestLine, HttpError> {
    let mut parts = request_line.split(' ');
    let method_str = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing HTTP version".into()))?;
    if parts.next().is_some() {
        return Err(HttpError::BadRequest(
            "trailing data after HTTP version".into(),
        ));
    }
    let minor_version = version
        .strip_prefix("HTTP/1.")
        .and_then(|m| m.parse::<u8>().ok())
        .ok_or_else(|| HttpError::BadRequest(format!("unsupported version {version:?}")))?;
    let method = Method::parse(method_str)
        .ok_or_else(|| HttpError::UnsupportedMethod(method_str.to_string()))?;
    let (path, query) = split_target(target)?;
    Ok((method, path, query, minor_version))
}

/// Parses one `Name: value` header line (already line-trimmed).
fn parse_header_line(trimmed: &str) -> Result<(String, String), HttpError> {
    let (name, value) = trimmed
        .split_once(':')
        .ok_or_else(|| HttpError::BadRequest(format!("malformed header {trimmed:?}")))?;
    Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
}

/// Resolves `Content-Length` from parsed headers: absent means 0,
/// non-numeric or duplicate is a `400`, over the cap is a `413`.
fn body_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    let mut lengths = headers.iter().filter(|(k, _)| k == "content-length");
    let content_length = lengths
        .next()
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::BadRequest("invalid content-length".into()))
        })
        .transpose()?
        .unwrap_or(0);
    if lengths.next().is_some() {
        return Err(HttpError::BadRequest("duplicate content-length".into()));
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    Ok(content_length)
}

fn split_target(target: &str) -> Result<(String, Vec<(String, String)>), HttpError> {
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path)?;
    let mut query = Vec::new();
    if let Some(q) = raw_query {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.push((percent_decode(k)?, percent_decode(v)?));
        }
    }
    Ok((path, query))
}

/// Percent-decoding, with `+` treated as space in the query convention.
pub fn percent_decode(s: &str) -> Result<String, HttpError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = s
                    .get(i + 1..i + 3)
                    .ok_or_else(|| HttpError::BadRequest("truncated percent escape".into()))?;
                let byte = u8::from_str_radix(hex, 16)
                    .map_err(|_| HttpError::BadRequest("invalid percent escape".into()))?;
                out.push(byte);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| HttpError::BadRequest("non-UTF-8 after decoding".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        let mut cursor = Cursor::new(raw.to_vec());
        Request::read_from_buffered(&mut cursor)
    }

    #[test]
    fn split_target_parses_path_and_query() {
        let (path, query) = split_target("/a/b?x=1&y=hello+world&flag").unwrap();
        assert_eq!(path, "/a/b");
        assert_eq!(
            query,
            vec![
                ("x".into(), "1".into()),
                ("y".into(), "hello world".into()),
                ("flag".into(), "".into())
            ]
        );
    }

    #[test]
    fn percent_decoding_works() {
        assert_eq!(percent_decode("%2Fa%20b").unwrap(), "/a b");
        assert_eq!(percent_decode("caf%C3%A9").unwrap(), "café");
        assert!(percent_decode("%zz").is_err());
        assert!(percent_decode("%2").is_err());
        assert!(percent_decode("%ff").is_err()); // invalid UTF-8 alone
    }

    #[test]
    fn method_parsing() {
        assert_eq!(Method::parse("GET"), Some(Method::Get));
        assert_eq!(Method::parse("POST"), Some(Method::Post));
        assert_eq!(Method::parse("PATCH"), None);
        assert_eq!(Method::Get.to_string(), "GET");
    }

    #[test]
    fn request_accessors() {
        let r = Request {
            method: Method::Get,
            path: "/x".into(),
            query: vec![("a".into(), "1".into()), ("a".into(), "2".into())],
            headers: vec![("content-type".into(), "application/json".into())],
            body: b"{\"k\": 3}".to_vec(),
            minor_version: 1,
            deadline: None,
        };
        assert_eq!(r.query_param("a"), Some("1"));
        assert_eq!(r.query_param("b"), None);
        assert_eq!(r.header("Content-Type"), Some("application/json"));
        let v = r.json_body().unwrap();
        assert_eq!(v.get("k").and_then(minaret_json::Value::as_u64), Some(3));
    }

    #[test]
    fn invalid_json_body_is_bad_request() {
        let r = Request {
            method: Method::Post,
            path: "/".into(),
            query: vec![],
            headers: vec![],
            body: b"{nope".to_vec(),
            minor_version: 1,
            deadline: None,
        };
        assert!(matches!(r.json_body(), Err(HttpError::BadRequest(_))));
        let r2 = Request {
            body: vec![0xff, 0xfe],
            ..r
        };
        assert!(matches!(r2.json_body(), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn buffered_parse_reads_sequential_requests() {
        let raw =
            b"GET /a HTTP/1.1\r\nHost: x\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let mut cursor = Cursor::new(raw.to_vec());
        let first = Request::read_from_buffered(&mut cursor).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        assert_eq!(first.minor_version, 1);
        let second = Request::read_from_buffered(&mut cursor).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(second.body, b"hi");
        assert!(Request::read_from_buffered(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn clean_eof_before_request_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nhi!";
        assert!(matches!(parse(raw), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn trailing_garbage_after_version_is_rejected() {
        let raw = b"GET /x HTTP/1.1 extra\r\n\r\n";
        assert!(matches!(parse(raw), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn http10_defaults_to_close() {
        let raw = b"GET /x HTTP/1.0\r\n\r\n";
        let r = parse(raw).unwrap().unwrap();
        assert_eq!(r.minor_version, 0);
        assert!(r.wants_close());

        let raw = b"GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        assert!(!parse(raw).unwrap().unwrap().wants_close());

        let raw = b"GET /x HTTP/1.1\r\n\r\n";
        assert!(!parse(raw).unwrap().unwrap().wants_close());

        let raw = b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(parse(raw).unwrap().unwrap().wants_close());
    }

    #[test]
    fn truncated_headers_are_io_errors() {
        let raw = b"GET /x HTTP/1.1\r\nHost: x\r\n";
        assert!(matches!(parse(raw), Err(HttpError::Io(_))));
    }

    #[test]
    fn truncated_body_is_io_error() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(matches!(parse(raw), Err(HttpError::Io(_))));
    }

    #[test]
    fn incremental_parse_is_none_until_complete_then_matches_buffered() {
        let raw = b"POST /b?k=v HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        for cut in 0..raw.len() {
            assert!(
                Request::parse(&raw[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        let (req, consumed) = Request::parse(raw).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        let whole = parse(raw).unwrap().unwrap();
        assert_eq!(req.method, whole.method);
        assert_eq!(req.path, whole.path);
        assert_eq!(req.query, whole.query);
        assert_eq!(req.headers, whole.headers);
        assert_eq!(req.body, whole.body);
        assert_eq!(req.minor_version, whole.minor_version);
    }

    #[test]
    fn incremental_parse_reports_consumed_for_pipelined_requests() {
        let first = b"GET /a HTTP/1.1\r\n\r\n";
        let second = b"POST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let mut raw = first.to_vec();
        raw.extend_from_slice(second);
        let (r1, c1) = Request::parse(&raw).unwrap().unwrap();
        assert_eq!(r1.path, "/a");
        assert_eq!(c1, first.len());
        let (r2, c2) = Request::parse(&raw[c1..]).unwrap().unwrap();
        assert_eq!(r2.path, "/b");
        assert_eq!(r2.body, b"hi");
        assert_eq!(c1 + c2, raw.len());
    }

    #[test]
    fn incremental_parse_accepts_bare_lf_line_endings() {
        let raw = b"GET /a HTTP/1.1\nHost: x\n\n";
        let (req, consumed) = Request::parse(raw).unwrap().unwrap();
        assert_eq!(req.path, "/a");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn incremental_parse_rejects_errors_without_more_input() {
        assert!(matches!(
            Request::parse(b"GET /x HTTP/1.1 extra\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            Request::parse(b"PATCH /x HTTP/1.1\r\n"),
            Err(HttpError::UnsupportedMethod(_))
        ));
        assert!(matches!(
            Request::parse(b"POST /x HTTP/1.1\r\nContent-Length: 2097152\r\n\r\n"),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn incremental_parse_caps_unterminated_header_floods() {
        // An attacker streaming an endless header line must be rejected
        // once the buffered prefix can no longer fit the header cap.
        let flood = vec![b'a'; MAX_HEADER_BYTES + 1];
        assert!(matches!(Request::parse(&flood), Err(HttpError::TooLarge)));
        // Just under the cap is still (indefinitely) incomplete.
        assert!(Request::parse(&flood[..MAX_HEADER_BYTES])
            .unwrap()
            .is_none());
    }

    #[test]
    fn incremental_parse_of_empty_buffer_is_incomplete() {
        assert!(Request::parse(b"").unwrap().is_none());
    }
}
