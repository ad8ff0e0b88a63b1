//! Minimal HTTP/1.1 framing over blocking streams.
//!
//! Deliberately tiny: exactly what the staleness query surface needs and
//! nothing more. Requests are parsed from a `BufRead` (request line,
//! headers, optional `Content-Length` body); responses always carry
//! `Content-Length` and `Connection: close` — one request per
//! connection, so a slow keep-alive client can never pin a pool worker.
//! Path segments and query values are percent-decoded so page titles
//! with spaces round-trip (`/v1/stale/FC%20Example`).

use std::io::{self, BufRead, Write};

/// Largest accepted request body; larger posts are rejected with 413.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest accepted request line / header line.
const MAX_LINE_BYTES: usize = 16 * 1024;

/// A parsed request: method, percent-decoded path segments, query
/// parameters, and raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET` or `POST` (anything else is rejected upstream).
    pub method: String,
    /// The raw path portion of the request target (undecoded, no query).
    pub raw_path: String,
    /// Percent-decoded path split at `/` (no empty leading segment).
    pub segments: Vec<String>,
    /// Percent-decoded `key=value` query parameters, in order.
    pub query: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of query parameter `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed. Every variant maps to a 4xx
/// response — parse trouble is the client's fault, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The connection closed or timed out mid-request.
    ConnectionClosed,
    /// Malformed request line or header.
    Malformed(String),
    /// Body longer than [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
    /// Method other than GET/POST.
    MethodNotAllowed(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::ConnectionClosed => write!(f, "connection closed mid-request"),
            ParseError::Malformed(why) => write!(f, "malformed request: {why}"),
            ParseError::BodyTooLarge(n) => {
                write!(f, "request body of {n} bytes exceeds {MAX_BODY_BYTES}")
            }
            ParseError::MethodNotAllowed(m) => write!(f, "method {m} not allowed"),
        }
    }
}

/// Read one line terminated by `\n`, stripping the trailing `\r\n`/`\n`.
fn read_line(reader: &mut impl BufRead) -> Result<String, ParseError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Err(ParseError::ConnectionClosed);
                }
                break;
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE_BYTES {
                    return Err(ParseError::Malformed("header line too long".into()));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(ParseError::ConnectionClosed),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| ParseError::Malformed("non-UTF-8 header".into()))
}

/// Percent-decode a path or query component. Invalid escapes are kept
/// literally (a stale-data service should answer, not nitpick); `+` is
/// decoded to space in query values per form encoding.
pub fn percent_decode(text: &str, plus_as_space: bool) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                // A valid escape is exactly two hex digits. Checking both
                // bytes explicitly matters: `from_str_radix` accepts a
                // leading sign, which would decode `%+f` as 0x0F.
                let hex = bytes
                    .get(i + 1..i + 3)
                    .filter(|h| h.iter().all(u8::is_ascii_hexdigit));
                match hex.and_then(|h| u8::from_str_radix(&String::from_utf8_lossy(h), 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parse one request from `reader`.
pub fn parse_request(reader: &mut impl BufRead) -> Result<Request, ParseError> {
    let request_line = read_line(reader)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("request line has no target".into()))?
        .to_string();
    if !matches!(method.as_str(), "GET" | "POST") {
        return Err(ParseError::MethodNotAllowed(method));
    }

    let mut content_length = 0usize;
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed(format!(
                "header without colon: {line:?}"
            )));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse::<usize>()
                .map_err(|_| ParseError::Malformed("bad Content-Length".into()))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::BodyTooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader
            .read_exact(&mut body)
            .map_err(|_| ParseError::ConnectionClosed)?;
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    let segments = raw_path
        .split('/')
        .filter(|s| !s.is_empty())
        .map(|s| percent_decode(s, false))
        .collect();
    let query = raw_query
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k, true), percent_decode(v, true)),
            None => (percent_decode(pair, true), String::new()),
        })
        .collect();
    Ok(Request {
        method,
        raw_path,
        segments,
        query,
        body,
    })
}

/// A response ready to serialize: status, extra headers, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the always-present Content-* / Connection.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` value.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
            content_type: "application/json",
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// A JSON error envelope `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            format!("{{\"error\": {}}}\n", wikistale_obs::json::escape(message)),
        )
    }

    /// The shed response: 503 with a `Retry-After` hint.
    pub fn shed() -> Response {
        let mut resp = Response::error(503, "server overloaded, retry shortly");
        resp.headers.push(("Retry-After".into(), "1".into()));
        resp
    }

    /// Add a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serialize onto `writer`. The header set is deterministic (no Date
    /// header) so identical queries produce byte-identical responses —
    /// the serving leg of the differential contract depends on it.
    pub fn write_to(&self, writer: &mut impl Write) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len(),
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        writer.write_all(head.as_bytes())?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Map a parse failure to the response the client should see; `None`
/// when the connection died and nothing can be written back.
pub fn parse_error_response(e: &ParseError) -> Option<Response> {
    match e {
        ParseError::ConnectionClosed => None,
        ParseError::Malformed(why) => Some(Response::error(400, why)),
        ParseError::BodyTooLarge(_) => Some(Response::error(413, &e.to_string())),
        ParseError::MethodNotAllowed(_) => Some(Response::error(405, &e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        parse_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_get_with_query_and_escapes() {
        let req =
            parse(b"GET /v1/stale/FC%20Example?at=2019-06-01&window=7 HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.segments, ["v1", "stale", "FC Example"]);
        assert_eq!(req.query_param("at"), Some("2019-06-01"));
        assert_eq!(req.query_param("window"), Some("7"));
        assert_eq!(req.query_param("missing"), None);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let req = parse(b"POST /v1/score HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn rejects_bad_requests_precisely() {
        assert!(matches!(
            parse(b"DELETE /x HTTP/1.1\r\n\r\n"),
            Err(ParseError::MethodNotAllowed(_))
        ));
        assert!(matches!(parse(b""), Err(ParseError::ConnectionClosed)));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        let huge = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(huge.as_bytes()),
            Err(ParseError::BodyTooLarge(_))
        ));
        // Truncated body: content-length promises more than the stream has.
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nab"),
            Err(ParseError::ConnectionClosed)
        ));
    }

    #[test]
    fn percent_decoding_round_trips() {
        assert_eq!(percent_decode("FC%20Example", false), "FC Example");
        assert_eq!(percent_decode("a+b", true), "a b");
        assert_eq!(percent_decode("a+b", false), "a+b");
        assert_eq!(percent_decode("100%", false), "100%");
        assert_eq!(percent_decode("%zz", false), "%zz");
        assert_eq!(percent_decode("%C3%A9", false), "é");
    }

    #[test]
    fn percent_decoding_rejects_signed_escapes() {
        // `u8::from_str_radix` accepts a leading sign, so `%+f` used to
        // decode as 0x0F and `%-1`-style escapes as the wrong byte; a
        // valid escape is exactly two hex digits, anything else stays
        // literal.
        assert_eq!(percent_decode("%+f", false), "%+f");
        assert_eq!(percent_decode("%+f", true), "% f"); // + still form-decodes
        assert_eq!(percent_decode("%-1", false), "%-1");
        assert_eq!(percent_decode("%2", false), "%2"); // truncated escape
        assert_eq!(percent_decode("%%41", false), "%A"); // literal %, then %41
    }

    #[test]
    fn responses_serialize_deterministically() {
        let resp = Response::json(200, "{}").with_header("X-Fingerprint", "abc");
        let mut a = Vec::new();
        let mut b = Vec::new();
        resp.write_to(&mut a).unwrap();
        resp.write_to(&mut b).unwrap();
        assert_eq!(a, b);
        let text = String::from_utf8(a).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("X-Fingerprint: abc\r\n"));
        assert!(!text.contains("Date:"), "Date header breaks determinism");
    }

    #[test]
    fn shed_response_carries_retry_after() {
        let resp = Response::shed();
        assert_eq!(resp.status, 503);
        assert!(resp
            .headers
            .iter()
            .any(|(k, v)| k == "Retry-After" && v == "1"));
    }

    #[test]
    fn parse_error_responses_map_to_4xx() {
        assert!(parse_error_response(&ParseError::ConnectionClosed).is_none());
        assert_eq!(
            parse_error_response(&ParseError::Malformed("x".into())).map(|r| r.status),
            Some(400)
        );
        assert_eq!(
            parse_error_response(&ParseError::MethodNotAllowed("PUT".into())).map(|r| r.status),
            Some(405)
        );
        assert_eq!(
            parse_error_response(&ParseError::BodyTooLarge(9)).map(|r| r.status),
            Some(413)
        );
    }

    /// Encode → decode must round-trip any title, including multi-byte
    /// UTF-8 and the reserved characters `%`, `+`, and `/`. The encoder
    /// escapes everything but unreserved bytes, so both decode modes
    /// (plus-as-space on and off) must recover the original.
    #[test]
    fn prop_percent_encode_decode_round_trips_titles() {
        use proptest::prelude::*;

        const POOL: &[char] = &[
            'a',
            'Z',
            '0',
            '9',
            '%',
            '+',
            '/',
            ' ',
            '-',
            '_',
            '.',
            '~',
            '&',
            '=',
            '?',
            '#',
            '\u{e9}',
            '\u{df}',
            '\u{441}',
            '\u{65e5}',
            '\u{672c}',
            '\u{1f600}',
        ];
        let title = proptest::collection::vec(0usize..POOL.len(), 0..24)
            .prop_map(|ix| ix.into_iter().map(|i| POOL[i]).collect::<String>());
        for case in 0..256 {
            let mut rng = TestRng::for_case("percent_round_trip", case);
            let t = title.generate(&mut rng);
            let encoded = crate::testutil::encode_segment(&t);
            assert_eq!(percent_decode(&encoded, false), t, "path mode: {t:?}");
            assert_eq!(percent_decode(&encoded, true), t, "query mode: {t:?}");
        }
    }
}
