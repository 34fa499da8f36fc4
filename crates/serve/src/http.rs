//! Minimal HTTP/1.1 framing over `std::net` — just the slice the JSON
//! API needs: request-line + headers + `Content-Length` bodies in, and
//! `Connection: close` responses out. No keep-alive, no chunked
//! encoding, no TLS; every connection carries exactly one exchange.

use std::io::{BufRead, BufReader, Read, Write};

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// One parsed request.
#[derive(Clone, Debug, Default)]
pub struct Request {
    /// Upper-case method token (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the target, percent-encoded as received.
    pub path: String,
    /// Query component (after `?`), without the `?`; empty if absent.
    pub query: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (UTF-8 enforced by the parameter layer when used).
    pub body: Vec<u8>,
}

impl Request {
    /// First header of this lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or an empty string if invalid/absent.
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// Why a request could not be read. Each maps to one status code.
#[derive(Debug)]
pub enum ReadError {
    /// Socket-level failure or timeout.
    Io(std::io::Error),
    /// Malformed framing → `400`.
    BadRequest(&'static str),
    /// Head or body over the fixed limits → `413`.
    TooLarge(&'static str),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Reads one request from `stream`. Returns `Ok(None)` when the peer
/// closed without sending anything (e.g. the shutdown waker or a port
/// probe) — not an error, just nothing to answer.
///
/// At most `MAX_HEAD_BYTES + 1` bytes are read before an over-long head
/// is rejected, and never more than the head plus the declared body.
pub fn read_request<R: Read>(stream: R) -> Result<Option<Request>, ReadError> {
    // The head budget bounds what the buffered reader may pull, so a
    // line with no newline cannot grow past it.
    let mut reader = BufReader::new(stream.take(MAX_HEAD_BYTES as u64 + 1));
    let mut line = Vec::new();
    let mut head_bytes = 0usize;

    let Some(request_line) = read_head_line(&mut reader, &mut line, &mut head_bytes)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_owned(), t.to_owned(), v),
        _ => return Err(ReadError::BadRequest("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::BadRequest("unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    loop {
        let Some(header) = read_head_line(&mut reader, &mut line, &mut head_bytes)? else {
            return Err(ReadError::BadRequest("connection closed mid-headers"));
        };
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(ReadError::BadRequest("malformed header"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| ReadError::BadRequest("malformed Content-Length"))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge("request body over limit"));
    }
    // Part of the body may already sit in the buffer; read the rest.
    let unread = content_length.saturating_sub(reader.buffer().len());
    reader.get_mut().set_limit(unread as u64);
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target, String::new()),
    };
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

/// Reads one head line into `buf` and returns it without its line
/// ending, or `None` at end of stream. A head over `MAX_HEAD_BYTES` is
/// `TooLarge`, a line that is not UTF-8 a `BadRequest`.
fn read_head_line<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
    head_bytes: &mut usize,
) -> Result<Option<&'b str>, ReadError> {
    buf.clear();
    let n = reader.read_until(b'\n', buf)?;
    *head_bytes += n;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(ReadError::TooLarge("request head over limit"));
    }
    if n == 0 {
        return Ok(None);
    }
    match std::str::from_utf8(buf) {
        Ok(line) => Ok(Some(line.trim_end())),
        Err(_) => Err(ReadError::BadRequest("request head is not UTF-8")),
    }
}

/// One response, always `Connection: close`.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the standard set.
    pub headers: Vec<(&'static str, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        let mut body = body.into();
        if !body.ends_with('\n') {
            body.push('\n');
        }
        Response {
            status,
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A JSON error envelope: `{"error": "…"}`.
    pub fn error(status: u16, message: &str) -> Self {
        let mut obj = scap_obs::json::Obj::new();
        obj.str("error", message);
        Response::json(status, obj.finish())
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// Serializes the response onto `w`.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            status_text(self.status),
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    /// Parses `bytes`, returning the outcome and how many bytes were read.
    fn parse(bytes: &[u8]) -> (Result<Option<Request>, ReadError>, u64) {
        let mut source = Cursor::new(bytes);
        let outcome = read_request(&mut source);
        (outcome, source.position())
    }

    #[test]
    fn parses_a_request_with_a_body() {
        let bytes = b"POST /v1/profile?seed=3 HTTP/1.1\r\nContent-Length: 11\r\n\r\nscale=0.004";
        let (outcome, read) = parse(bytes);
        let req = outcome.unwrap().unwrap();
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/v1/profile")
        );
        assert_eq!(req.query, "seed=3");
        assert_eq!(req.header("content-length"), Some("11"));
        assert_eq!(req.body_str(), "scale=0.004");
        assert_eq!(read, bytes.len() as u64);
        assert!(matches!(parse(b"").0, Ok(None)));
    }

    #[test]
    fn a_head_that_is_not_utf8_is_a_bad_request() {
        let (outcome, _) = parse(b"GET /\xff HTTP/1.1\r\n\r\n");
        assert!(
            matches!(outcome, Err(ReadError::BadRequest(_))),
            "{outcome:?}"
        );
        let (outcome, _) = parse(b"GET / HTTP/1.1\r\nx-name: \xfe\r\n\r\n");
        assert!(
            matches!(outcome, Err(ReadError::BadRequest(_))),
            "{outcome:?}"
        );
    }

    #[test]
    fn an_endless_header_line_stops_at_the_head_budget() {
        let mut bytes = b"GET / HTTP/1.1\r\nx-long: ".to_vec();
        bytes.resize(1 << 20, b'a');
        let (outcome, read) = parse(&bytes);
        assert!(
            matches!(outcome, Err(ReadError::TooLarge(_))),
            "{outcome:?}"
        );
        assert!(read <= MAX_HEAD_BYTES as u64 + 1, "read {read} bytes");
    }

    /// Byte soup with HTTP's structural characters over-represented,
    /// after one of a few plausible prefixes.
    fn soup(prefix: usize, len: usize, seed: u64) -> Vec<u8> {
        const PREFIXES: [&[u8]; 4] = [
            b"",
            b"GET / HTTP/1.1\r\n",
            b"POST /v1/profile HTTP/1.1\r\ncontent-length: ",
            b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n",
        ];
        const ALPHABET: &[u8] = b"\r\n: /?=GETPOST HTTP/1.1 content-length 0123456789\xff\x00";
        let mut bytes = PREFIXES[prefix].to_vec();
        let mut state = seed | 1;
        for _ in 0..len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let byte = if state.is_multiple_of(4) {
                (state >> 32) as u8
            } else {
                ALPHABET[(state >> 32) as usize % ALPHABET.len()]
            };
            bytes.push(byte);
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes never panic the reader, and it never reads
        /// past the head and body limits.
        #[test]
        fn arbitrary_bytes_never_panic(
            prefix in 0usize..4,
            len in 0usize..300,
            seed in any::<u64>(),
        ) {
            let (_, read) = parse(&soup(prefix, len, seed));
            prop_assert!(read <= (MAX_HEAD_BYTES + 1 + MAX_BODY_BYTES) as u64);
        }
    }

    #[test]
    fn response_serializes_with_framing_headers() {
        let mut buf = Vec::new();
        Response::json(200, "{}")
            .with_header("retry-after", "1")
            .write_to(&mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 3\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}\n"));
    }

    #[test]
    fn error_bodies_are_json_envelopes() {
        let r = Response::error(503, "queue full");
        assert_eq!(r.status, 503);
        assert_eq!(
            String::from_utf8(r.body).unwrap(),
            "{\"error\":\"queue full\"}\n"
        );
    }

    #[test]
    fn status_text_covers_emitted_codes() {
        for code in [200, 400, 404, 405, 413, 500, 502, 503, 504] {
            assert_ne!(status_text(code), "Unknown");
        }
    }
}
