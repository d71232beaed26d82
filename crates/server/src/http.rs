//! Minimal HTTP/1.1 plumbing (std::net only): the request/response
//! types and the wire encoders.
//!
//! Parsing is incremental and lives in [`crate::parser`] — the reactor
//! feeds socket bytes into a per-connection
//! [`RequestParser`](crate::parser::RequestParser) and dispatches each
//! complete [`Request`] to the worker pool. This module owns the other
//! direction: encoding a [`Response`] (or a chunked-stream fragment)
//! into the bytes a connection's outbox carries back to the reactor.
//! Nothing here touches a socket; encoders return `Vec<u8>` so the
//! reactor can write them whenever the socket is actually writable.
//!
//! Connections are **persistent**: pipelined requests queue in the
//! parser buffer and are answered in order. This matters because a
//! cache-hit window query costs microseconds server-side — per-request
//! TCP setup used to dominate it.

use gvdb_core::GraphJson;
use std::sync::Arc;

/// Largest accepted request body (mutations are single edges; anything
/// bigger is a client bug or abuse).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest accepted request line + header block. Without this cap a
/// client streaming an endless header line would grow a connection's
/// parser buffer without bound.
pub const MAX_HEADER_BYTES: usize = 64 << 10;

/// A parsed request: method, path, decoded query parameters, body.
/// (`PartialEq` backs the parser property tests: split feeding must
/// yield requests identical to whole-buffer feeding.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// HTTP method (`GET`, `POST`, …), uppercase.
    pub method: String,
    /// URL path (no query string).
    pub path: String,
    /// Whether the client allows the connection to be reused after this
    /// request (HTTP/1.1 default yes, HTTP/1.0 default no, `Connection`
    /// header decides).
    pub keep_alive: bool,
    /// The `Accept` header, verbatim (streamed endpoints fall back to the
    /// buffered envelope when a legacy client demands
    /// `application/json`).
    pub accept: Option<String>,
    /// The `Authorization` header, verbatim (the mutation gate checks it
    /// against the configured API key).
    pub authorization: Option<String>,
    /// Request body (empty for body-less requests).
    pub body: String,
    pub(crate) params: Vec<(String, String)>,
}

impl Request {
    /// First value of query parameter `key`.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `key` parsed as `T` (None when absent or malformed).
    pub fn parse<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.param(key).and_then(|v| v.parse().ok())
    }
}

/// Response body: built for this request, or a typed **envelope** around
/// the cached window payload shared by `Arc` — head and tail are built
/// per request, the graph text is written straight from the cache entry
/// with no copy.
pub enum Body {
    /// A string built for this response.
    Owned(String),
    /// `head` + the shared payload text + `tail` (the `/v1/window`
    /// envelope).
    Enveloped {
        /// Everything before the graph payload.
        head: String,
        /// The shared payload.
        graph: Arc<GraphJson>,
        /// Everything after the graph payload.
        tail: String,
    },
}

impl Body {
    /// Total body length in bytes (the `Content-Length` value).
    pub fn len(&self) -> usize {
        match self {
            Body::Owned(s) => s.len(),
            Body::Enveloped { head, graph, tail } => head.len() + graph.text.len() + tail.len(),
        }
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The body as one string (copies enveloped bodies; intended for
    /// tests and error paths, not the hot write path).
    pub fn text(&self) -> std::borrow::Cow<'_, str> {
        match self {
            Body::Owned(s) => s.as_str().into(),
            Body::Enveloped { head, graph, tail } => format!("{head}{}{tail}", graph.text).into(),
        }
    }
}

impl From<String> for Body {
    fn from(s: String) -> Self {
        Body::Owned(s)
    }
}

impl From<&str> for Body {
    fn from(s: &str) -> Self {
        Body::Owned(s.to_string())
    }
}

/// A response ready to be encoded: status line, extra headers
/// (`X-Gvdb-*` telemetry), body.
pub struct Response {
    /// HTTP status line tail, e.g. `200 OK`.
    pub status: &'static str,
    /// Extra header lines, each `\r\n`-terminated.
    pub extra_headers: String,
    /// The body.
    pub body: Body,
}

impl Response {
    /// A 200 response with no extra headers.
    pub fn ok(body: impl Into<Body>) -> Self {
        Response {
            status: "200 OK",
            extra_headers: String::new(),
            body: body.into(),
        }
    }

    /// A plain error response carrying `{"error": "…"}` (the reactor's
    /// own `400`/`413`/`503` answers, sent before any request is routed).
    pub fn error(status: &'static str, message: &str) -> Self {
        let mut body = String::from("{\"error\":\"");
        gvdb_core::json::escape_into(message, &mut body);
        body.push_str("\"}");
        Response {
            status,
            extra_headers: String::new(),
            body: body.into(),
        }
    }

    /// Whether this response may leave the connection open (success —
    /// errors always close, simplifying client-side failure handling).
    pub fn is_success(&self) -> bool {
        self.status.starts_with("200")
    }
}

/// Encode `response` as the bytes to put on the wire. `keep_alive`
/// decides the `Connection` header. One allocation for head + body, so
/// a buffered response is exactly one outbox push (and the outbox
/// accepts any single push into an empty queue, whatever its size).
pub fn encode_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let head = format!(
        "HTTP/1.1 {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}Connection: {}\r\n\r\n",
        response.status,
        response.body.len(),
        response.extra_headers,
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut out = Vec::with_capacity(head.len() + response.body.len());
    out.extend_from_slice(head.as_bytes());
    match &response.body {
        Body::Owned(s) => out.extend_from_slice(s.as_bytes()),
        Body::Enveloped { head, graph, tail } => {
            out.extend_from_slice(head.as_bytes());
            out.extend_from_slice(graph.text.as_bytes());
            out.extend_from_slice(tail.as_bytes());
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Chunked transfer-encoding (the streamed frame path)
// ---------------------------------------------------------------------------

/// The `Content-Type` of a streamed frame response: each HTTP chunk is
/// one `\n`-terminated `gvdb_api::ApiFrame` JSON document, so the body as
/// a whole reads as NDJSON.
pub const STREAM_CONTENT_TYPE: &str = "application/x-ndjson";

/// The response head of a streamed result: `200 OK` with
/// `Transfer-Encoding: chunked` (no `Content-Length` — the stream's size
/// is unknown when the first frame leaves). The per-response stats that
/// buffered responses carry in `X-Gvdb-*` headers travel in the Trailer
/// frame instead.
pub fn chunked_head(keep_alive: bool) -> &'static [u8] {
    if keep_alive {
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n"
    } else {
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    }
}

/// Encode one HTTP chunk (`<hex size>\r\n<data>\r\n`) around the text
/// `write` appends: size prefix, payload and terminator in one buffer, so
/// one frame is one outbox push (and, with `TCP_NODELAY`, usually one
/// packet train). The text is written once, straight into that buffer:
/// room for the widest size line is left in front of it, and the line is
/// put right before the text once its length is known. The chunk is the
/// returned buffer from the returned offset on.
pub fn encode_chunk(write: impl FnOnce(&mut String)) -> (Vec<u8>, usize) {
    // Hex digits of the largest size, then CRLF.
    const ROOM: usize = 2 * std::mem::size_of::<usize>() + 2;
    let mut text = " ".repeat(ROOM);
    write(&mut text);
    let line = format!("{:x}\r\n", text.len() - ROOM);
    text.push_str("\r\n");
    let mut buf = text.into_bytes();
    let start = ROOM - line.len();
    buf[start..ROOM].copy_from_slice(line.as_bytes());
    (buf, start)
}

/// The terminator of a chunked response (`0\r\n\r\n`). Until this is on
/// the wire the client's decoder keeps waiting, so every streamed
/// response — including one that ends in an `Error` frame — must finish
/// with it.
pub const CHUNKED_END: &[u8] = b"0\r\n\r\n";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_variants_expose_text_and_length() {
        assert_eq!(Body::from("x".to_string()).text(), "x");
        let json = Arc::new(gvdb_core::build_graph_json(&[]));
        let enveloped = Body::Enveloped {
            head: "{\"graph\":".into(),
            graph: json.clone(),
            tail: "}".into(),
        };
        assert_eq!(enveloped.text(), format!("{{\"graph\":{}}}", json.text));
        assert_eq!(enveloped.len(), enveloped.text().len());
    }

    #[test]
    fn error_response_escapes_message() {
        let r = Response::error("400 Bad Request", "quote \" here");
        assert!(r.body.text().contains("quote \\\" here"));
        assert!(!r.is_success());
    }

    #[test]
    fn encoded_response_carries_length_and_connection() {
        let bytes = encode_response(&Response::ok("{\"ok\":true}"), true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn chunk_encoding_is_hex_prefixed() {
        let chunk = |text: &str| {
            let (buf, start) = encode_chunk(|out| out.push_str(text));
            buf[start..].to_vec()
        };
        assert_eq!(chunk("abc"), b"3\r\nabc\r\n");
        assert_eq!(chunk(""), b"0\r\n\r\n");
        for len in [15, 16, 255, 4096, 70_000] {
            let text = "x".repeat(len);
            assert_eq!(chunk(&text), format!("{len:x}\r\n{text}\r\n").as_bytes());
        }
        assert!(std::str::from_utf8(chunked_head(true))
            .unwrap()
            .contains(STREAM_CONTENT_TYPE));
        assert_eq!(CHUNKED_END, b"0\r\n\r\n");
    }
}
