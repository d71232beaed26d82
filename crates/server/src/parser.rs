//! The incremental HTTP/1.1 request parser: the reactor feeds it
//! whatever bytes the socket had, and it yields complete requests as
//! they materialize — no thread ever blocks waiting for a slow client's
//! next byte.
//!
//! The grammar and limits are exactly those of the old blocking reader
//! (`read_request`): request line + headers capped at
//! `MAX_HEADER_BYTES`, bodies at `MAX_BODY_BYTES`, uppercased
//! method, HTTP/1.0 defaulting to close, the `Connection` header
//! overriding, query parameters kept verbatim, non-UTF-8 header lines
//! skipped. The property tests in `tests/parser_props.rs` pin the key
//! invariant: feeding a byte stream in arbitrary splits yields the same
//! request sequence as feeding it whole, and arbitrary garbage can
//! never panic — only produce requests, an error, or a wait for more
//! bytes.

use crate::http::{Request, MAX_BODY_BYTES, MAX_HEADER_BYTES};

/// Why the parser gave up on the connection (terminal — the caller
/// answers with the matching error response, if anything, and closes).
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The bytes on the wire are not a parseable request, or the header
    /// block overran `MAX_HEADER_BYTES`.
    Malformed,
    /// The declared body exceeds `MAX_BODY_BYTES`.
    BodyTooLarge,
}

/// An accumulating request parser (one per connection). Feed bytes with
/// [`RequestParser::feed`], then drain complete requests with
/// [`RequestParser::try_next`] until it returns `Ok(None)` (needs more
/// bytes) or an error (close the connection).
#[derive(Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by parsed requests. Compacted
    /// away once large, so a long-lived connection doesn't accrete its
    /// whole request history.
    pos: usize,
}

impl RequestParser {
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Append bytes read from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Unparsed bytes currently buffered (a partially received request,
    /// or pipelined followers).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the buffer holds the start of a request that hasn't
    /// completed yet — distinguishes "idle between requests" from "mid
    /// request" for the idle-timeout policy.
    pub fn mid_request(&self) -> bool {
        self.buffered() > 0
    }

    /// Parse the next complete request out of the buffer, if one is
    /// fully received. `Ok(None)` means the bytes so far are a valid
    /// prefix — feed more when the socket has them.
    pub fn try_next(&mut self) -> Result<Option<Request>, ParseError> {
        let data = &self.buf[self.pos..];
        if data.is_empty() {
            return Ok(None);
        }

        // Locate the end of the header block: the first empty line
        // after the request line. Lines end in '\n'; a trailing '\r' is
        // stripped. The request line + headers are budgeted — if no
        // terminator shows up within MAX_HEADER_BYTES, the client is
        // streaming an endless header and the connection is torn down
        // before the buffer grows past the budget.
        let mut line_start = 0usize;
        let mut header_end = None;
        let mut request_line_end = None;
        while let Some(nl) = find_byte(&data[line_start..], b'\n') {
            let line_end = line_start + nl; // index of '\n'
            if line_end + 1 > MAX_HEADER_BYTES {
                return Err(ParseError::Malformed);
            }
            let line = strip_cr(&data[line_start..line_end]);
            if request_line_end.is_none() {
                request_line_end = Some(line_start + nl);
            } else if line.is_empty() {
                header_end = Some(line_end + 1);
                break;
            }
            line_start = line_end + 1;
        }
        let Some(header_end) = header_end else {
            // No terminator yet: a valid prefix only while under budget.
            if data.len() > MAX_HEADER_BYTES {
                return Err(ParseError::Malformed);
            }
            return Ok(None);
        };

        // Request line.
        let request_line_end = request_line_end.expect("header block implies a first line");
        let request_line = std::str::from_utf8(strip_cr(&data[..request_line_end]))
            .map_err(|_| ParseError::Malformed)?;
        let mut parts = request_line.split_whitespace();
        let method = parts.next().ok_or(ParseError::Malformed)?.to_uppercase();
        let target = parts.next().ok_or(ParseError::Malformed)?;
        let version = parts.next().unwrap_or("HTTP/1.1");
        let mut keep_alive = version != "HTTP/1.0";

        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        // Values are kept verbatim: '+'-for-space decoding only applies
        // to text fields and would corrupt numeric values ("1e+21" →
        // "1e 21"), so the search decoder (`ApiRequest::from_query`)
        // decodes its own `q`.
        let params: Vec<(String, String)> = query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let path = path.to_string();

        // Header lines.
        let mut content_length = 0usize;
        let mut accept = None;
        let mut authorization = None;
        let mut cursor = request_line_end + 1;
        while cursor < header_end {
            let nl = find_byte(&data[cursor..], b'\n').expect("header block is newline-complete");
            let line = strip_cr(&data[cursor..cursor + nl]);
            cursor += nl + 1;
            if line.is_empty() {
                break;
            }
            // Non-UTF-8 header lines are skipped, not fatal — only the
            // headers below matter and all are ASCII.
            let Some((name, value)) = std::str::from_utf8(line)
                .ok()
                .and_then(|line| line.split_once(':'))
            else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| ParseError::Malformed)?;
            } else if name.eq_ignore_ascii_case("connection") {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            } else if name.eq_ignore_ascii_case("accept") {
                accept = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("authorization") {
                authorization = Some(value.to_string());
            }
        }

        // Body.
        if content_length > MAX_BODY_BYTES {
            return Err(ParseError::BodyTooLarge);
        }
        if data.len() < header_end + content_length {
            return Ok(None); // body still in flight
        }
        let body = if content_length > 0 {
            String::from_utf8(data[header_end..header_end + content_length].to_vec())
                .map_err(|_| ParseError::Malformed)?
        } else {
            String::new()
        };

        self.pos += header_end + content_length;
        // Compact once the parsed prefix dominates, so pipelined
        // long-lived connections stay O(one request) in memory.
        if self.pos > 8 * 1024 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }

        Ok(Some(Request {
            method,
            path,
            keep_alive,
            accept,
            authorization,
            body,
            params,
        }))
    }
}

fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    haystack.iter().position(|&b| b == needle)
}

fn strip_cr(line: &[u8]) -> &[u8] {
    match line {
        [head @ .., b'\r'] => head,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(input: &[u8]) -> (Vec<Request>, Option<ParseError>) {
        let mut parser = RequestParser::new();
        parser.feed(input);
        let mut requests = Vec::new();
        loop {
            match parser.try_next() {
                Ok(Some(r)) => requests.push(r),
                Ok(None) => return (requests, None),
                Err(e) => return (requests, Some(e)),
            }
        }
    }

    #[test]
    fn simple_get_parses() {
        let (reqs, err) = parse_all(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(err, None);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, "GET");
        assert_eq!(reqs[0].path, "/v1/healthz");
        assert!(reqs[0].keep_alive);
        assert!(reqs[0].body.is_empty());
    }

    #[test]
    fn byte_at_a_time_yields_the_same_request() {
        let input = b"POST /v1/edge?dataset=acm HTTP/1.1\r\nContent-Length: 4\r\nAuthorization: Bearer k\r\n\r\nbody";
        let mut parser = RequestParser::new();
        for &b in input.iter() {
            parser.feed(&[b]);
        }
        let request = parser.try_next().unwrap().expect("complete");
        assert_eq!(request.method, "POST");
        assert_eq!(request.param("dataset"), Some("acm"));
        assert_eq!(request.authorization.as_deref(), Some("Bearer k"));
        assert_eq!(request.body, "body");
        assert_eq!(parser.try_next().unwrap(), None);
        assert!(!parser.mid_request());
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let (reqs, err) = parse_all(
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\nGET /c HTTP/1.1\r\n\r\n",
        );
        assert_eq!(err, None);
        let paths: Vec<&str> = reqs.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["/a", "/b", "/c"]);
        assert!(reqs[0].keep_alive && !reqs[1].keep_alive && reqs[2].keep_alive);
    }

    #[test]
    fn http_10_defaults_to_close_and_header_overrides() {
        let (reqs, _) =
            parse_all(b"GET /x HTTP/1.0\r\n\r\nGET /y HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(!reqs[0].keep_alive);
        assert!(reqs[1].keep_alive);
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let (reqs, err) = parse_all(b"GET /lf HTTP/1.1\nHost: x\n\n");
        assert_eq!(err, None);
        assert_eq!(reqs[0].path, "/lf");
    }

    #[test]
    fn garbage_is_malformed_not_a_panic() {
        let (reqs, err) = parse_all(b"\r\n\r\n");
        assert!(reqs.is_empty());
        assert_eq!(err, Some(ParseError::Malformed));
        let (_, err) = parse_all(b"%%% ???\r\n\r\n");
        assert_eq!(err, None, "two tokens parse as method+target");
        let (_, err) = parse_all(b"onlyonetoken\r\n\r\n");
        assert_eq!(err, Some(ParseError::Malformed));
    }

    #[test]
    fn unterminated_headers_hit_the_budget() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.1\r\nX-Flood: ");
        // An endless header line: the parser must give up at the budget,
        // never buffer past it.
        let chunk = [b'a'; 4096];
        let mut result = Ok(None);
        for _ in 0..(MAX_HEADER_BYTES / chunk.len() + 2) {
            parser.feed(&chunk);
            result = parser.try_next();
            if result.is_err() {
                break;
            }
        }
        assert_eq!(result, Err(ParseError::Malformed));
        assert!(parser.buffered() <= MAX_HEADER_BYTES + chunk.len());
    }

    #[test]
    fn oversized_body_is_rejected_by_declaration() {
        let request = format!(
            "POST /v1/edge HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let (_, err) = parse_all(request.as_bytes());
        assert_eq!(err, Some(ParseError::BodyTooLarge));
    }

    #[test]
    fn unparseable_content_length_is_malformed() {
        let (_, err) = parse_all(b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
        assert_eq!(err, Some(ParseError::Malformed));
    }

    #[test]
    fn partial_body_waits_for_more_bytes() {
        let mut parser = RequestParser::new();
        parser.feed(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n12345");
        assert_eq!(parser.try_next().unwrap(), None);
        assert!(parser.mid_request());
        parser.feed(b"67890");
        assert_eq!(parser.try_next().unwrap().unwrap().body, "1234567890");
    }
}
