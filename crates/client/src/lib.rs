//! # gvdb-client
//!
//! The typed blocking client for the graphvizdb `v1` API — what
//! downstream analytics use instead of hand-writing HTTP.
//!
//! * [`GvdbClient`] — one typed method per [`gvdb_api::ApiRequest`]
//!   variant (discovery, windows, search, focus, **mutations**, sessions,
//!   flush, stats), plus the raw RPC form ([`GvdbClient::rpc`]). Buffered
//!   calls ride `POST /v1` with the serialized request.
//! * **Keep-alive connection reuse** — connections live in a per-host
//!   [`ConnectionPool`]; a successful response returns its connection to
//!   the pool, so a request sequence costs one TCP handshake. A pooled
//!   connection the server idled out is retried once on a fresh one.
//! * **Streamed results** — [`GvdbClient::stream`] (and its typed
//!   wrappers [`GvdbClient::window_stream`], [`GvdbClient::search_stream`],
//!   [`GvdbClient::aggregate_stream`]) consumes the chunked frame protocol:
//!   [`WindowStream`] is an iterator of decoded [`RowBatch`]es that
//!   exposes the [`FrameHeader`] up-front (time-to-first-frame is
//!   independent of window size) and the [`TrailerFrame`] — with the
//!   end-of-stream epoch a racing edit bumps — once exhausted.
//!
//! ```no_run
//! use gvdb_client::{GvdbClient, WindowParams};
//! use gvdb_api::RectDto;
//!
//! let client = GvdbClient::new("127.0.0.1:7878");
//! let mut stream = client.window_stream(&WindowParams {
//!     window: RectDto { min_x: 0.0, min_y: 0.0, max_x: 2000.0, max_y: 2000.0 },
//!     ..Default::default()
//! }).unwrap();
//! println!("epoch {} source {:?}", stream.header.epoch, stream.header.source);
//! while let Some(batch) = stream.next_batch().unwrap() {
//!     // paint the batch while the rest is still in flight
//! }
//! println!("end epoch {}", stream.trailer().unwrap().epoch);
//! ```

use gvdb_api::{
    AggOp, AggregateDto, ApiError, ApiFrame, ApiRequest, ApiResponse, DatasetInfo, EdgeDto,
    FrameHeader, LayerInfo, Predicate, ProgressFrame, RectDto, RowBatch, SearchHitDto, StatsDto,
    TrailerFrame, WindowMeta,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the client waits for a connect, a request write, or a
/// response read before giving up on the attempt.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Everything that can go wrong on a client call.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, write).
    Io(std::io::Error),
    /// The server answered with a typed protocol error.
    Api(ApiError),
    /// The bytes on the wire were not the protocol (bad status line,
    /// missing framing, unexpected response kind).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Api(e) => write!(f, "api: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ApiError> for ClientError {
    fn from(e: ApiError) -> Self {
        ClientError::Api(e)
    }
}

/// Result alias for client calls.
pub type Result<T> = std::result::Result<T, ClientError>;

/// Parsed response headers, in arrival order.
type Headers = Vec<(String, String)>;

/// Idle keep-alive connections, keyed by host address. Shared between a
/// [`GvdbClient`] and the streams it spawns, so a fully-drained stream
/// hands its connection back for the next call.
#[derive(Debug, Default)]
pub struct ConnectionPool {
    idle: Mutex<HashMap<String, Vec<TcpStream>>>,
}

impl ConnectionPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A connection to `addr`: a pooled idle one if available (the
    /// returned flag is `true`), else a fresh connect.
    fn checkout(&self, addr: &str) -> Result<(TcpStream, bool)> {
        if let Some(stream) = self
            .idle
            .lock()
            .get_mut(addr)
            .and_then(|streams| streams.pop())
        {
            return Ok((stream, true));
        }
        Ok((connect(addr)?, false))
    }

    /// Return a healthy keep-alive connection for reuse.
    fn checkin(&self, addr: &str, stream: TcpStream) {
        self.idle
            .lock()
            .entry(addr.to_string())
            .or_default()
            .push(stream);
    }

    /// Idle connections currently pooled for `addr`.
    pub fn idle_count(&self, addr: &str) -> usize {
        self.idle.lock().get(addr).map_or(0, Vec::len)
    }
}

fn connect(addr: &str) -> Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    // One write per request on a reused connection; Nagle + delayed ACK
    // would otherwise add ~40 ms per response.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// Parameters of a window query (buffered or streamed).
#[derive(Debug, Clone)]
pub struct WindowParams {
    /// Target dataset (`None` = the server's only dataset).
    pub dataset: Option<String>,
    /// Layer to query (`None` = 0, or the session's current layer).
    pub layer: Option<usize>,
    /// The viewport.
    pub window: RectDto,
    /// Session to anchor delta pans on.
    pub session: Option<u64>,
    /// Advertise the compact frame encoding (`encoding=packed`) on
    /// streamed queries. On by default: [`WindowStream`] decodes packed
    /// frames transparently back into plain [`RowBatch::Graph`] batches
    /// whose fragments are **byte-identical** to what an unpacked stream
    /// carries, so consumers never observe the difference — only the
    /// wire gets smaller ([`WindowStream::rows_wire_bytes`] measures
    /// it). Set `false` to force plain frames (e.g. to compare, or when
    /// fronting a proxy that inspects frames).
    pub packed: bool,
    /// Attribute predicate pushed into the window fetch (`None` = every
    /// row in the window). Streamed queries carry it as the `filter=`
    /// query parameter (canonical predicate JSON), so predicates whose
    /// label text needs URL-reserved characters or spaces must go
    /// through the buffered call, which rides `POST /v1`.
    pub predicate: Option<Predicate>,
    /// Restrict the window to rows whose id falls in this inclusive
    /// range (`rid_lo`/`rid_hi` on the wire). The routed-query
    /// primitive: a [`ClusterClient`] fans one window out as one
    /// disjoint rid slice per shard and concatenates the answers.
    /// Combines with neither `session` nor `predicate`.
    pub rid_range: Option<(u64, u64)>,
}

impl Default for WindowParams {
    fn default() -> Self {
        WindowParams {
            dataset: None,
            layer: None,
            window: RectDto {
                min_x: 0.0,
                min_y: 0.0,
                max_x: 1000.0,
                max_y: 1000.0,
            },
            session: None,
            packed: true,
            predicate: None,
            rid_range: None,
        }
    }
}

impl WindowParams {
    fn request(&self) -> ApiRequest {
        ApiRequest::Window {
            dataset: self.dataset.clone(),
            layer: self.layer,
            window: self.window,
            session: self.session,
            packed: self.packed,
            predicate: self.predicate.clone(),
            rid_range: self.rid_range,
        }
    }
}

/// Parameters of a window aggregation (buffered or streamed).
#[derive(Debug, Clone)]
pub struct AggregateParams {
    /// Target dataset (`None` = the server's only dataset).
    pub dataset: Option<String>,
    /// Layer to aggregate (`None` = 0).
    pub layer: Option<usize>,
    /// The window aggregated over.
    pub window: RectDto,
    /// Attribute predicate applied before aggregation.
    pub predicate: Option<Predicate>,
    /// The aggregation computed.
    pub agg: AggOp,
}

impl Default for AggregateParams {
    fn default() -> Self {
        AggregateParams {
            dataset: None,
            layer: None,
            window: RectDto::default(),
            predicate: None,
            agg: AggOp::Count,
        }
    }
}

impl AggregateParams {
    fn request(&self) -> ApiRequest {
        ApiRequest::Aggregate {
            dataset: self.dataset.clone(),
            layer: self.layer,
            window: self.window,
            predicate: self.predicate.clone(),
            agg: self.agg.clone(),
        }
    }
}

/// The result of a mutation: the layer's **new** epoch (and the inserted
/// row's id), so the caller can observe its own write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mutation {
    /// The mutated dataset.
    pub dataset: String,
    /// The mutated layer.
    pub layer: usize,
    /// The layer's epoch after the mutation.
    pub epoch: u64,
    /// The inserted row's id (insertions only).
    pub rid: Option<u64>,
}

/// The typed blocking client (see module docs).
#[derive(Debug)]
pub struct GvdbClient {
    addr: String,
    api_key: Option<String>,
    pool: Arc<ConnectionPool>,
}

impl GvdbClient {
    /// A client for the server at `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> Self {
        GvdbClient {
            addr: addr.into(),
            api_key: None,
            pool: Arc::new(ConnectionPool::new()),
        }
    }

    /// Attach the API key sent as `Authorization: Bearer <key>` on every
    /// request (the server only checks it on mutations and flush).
    pub fn with_api_key(mut self, key: impl Into<String>) -> Self {
        self.api_key = Some(key.into());
        self
    }

    /// The connection pool (shared with streams spawned by this client).
    pub fn pool(&self) -> &Arc<ConnectionPool> {
        &self.pool
    }

    // -- typed methods, one per ApiRequest variant --------------------------

    /// List the server's datasets.
    pub fn datasets(&self) -> Result<Vec<DatasetInfo>> {
        match self.rpc(&ApiRequest::ListDatasets)? {
            ApiResponse::Datasets { datasets } => Ok(datasets),
            other => Err(unexpected("datasets", &other)),
        }
    }

    /// List a dataset's layers.
    pub fn layers(&self, dataset: Option<&str>) -> Result<(String, Vec<LayerInfo>)> {
        let request = ApiRequest::ListLayers {
            dataset: dataset.map(String::from),
        };
        match self.rpc(&request)? {
            ApiResponse::Layers { dataset, layers } => Ok((dataset, layers)),
            other => Err(unexpected("layers", &other)),
        }
    }

    /// A **buffered** window query: the full graph payload in one
    /// response. Prefer [`GvdbClient::window_stream`] for large windows.
    pub fn window(&self, params: &WindowParams) -> Result<(WindowMeta, String)> {
        match self.rpc(&params.request())? {
            ApiResponse::Window { meta, graph } => Ok((meta, graph)),
            other => Err(unexpected("window", &other)),
        }
    }

    /// A **buffered** keyword search.
    pub fn search(
        &self,
        dataset: Option<&str>,
        layer: usize,
        query: &str,
    ) -> Result<Vec<SearchHitDto>> {
        self.search_filtered(dataset, layer, query, None)
    }

    /// A **buffered** keyword search with an attribute predicate applied
    /// per hit (edge-label predicates are a server-side `bad_request`).
    pub fn search_filtered(
        &self,
        dataset: Option<&str>,
        layer: usize,
        query: &str,
        predicate: Option<Predicate>,
    ) -> Result<Vec<SearchHitDto>> {
        let request = ApiRequest::Search {
            dataset: dataset.map(String::from),
            layer,
            query: query.to_string(),
            predicate,
        };
        match self.rpc(&request)? {
            ApiResponse::Hits { hits } => Ok(hits),
            other => Err(unexpected("hits", &other)),
        }
    }

    /// A **buffered** window aggregation: the summary plus the edit
    /// epoch it is consistent with.
    pub fn aggregate(&self, params: &AggregateParams) -> Result<(u64, AggregateDto)> {
        match self.rpc(&params.request())? {
            ApiResponse::Aggregate { epoch, result, .. } => Ok((epoch, result)),
            other => Err(unexpected("aggregate", &other)),
        }
    }

    /// A **streamed** window aggregation: `Header · Progress · Summary ·
    /// Trailer` over chunked transfer-encoding. Drain the stream (there
    /// are no row batches), then read [`WindowStream::summary`] and the
    /// trailer — whose epoch is newer than the header's iff an edit
    /// raced the aggregation.
    pub fn aggregate_stream(&self, params: &AggregateParams) -> Result<WindowStream> {
        self.stream(&params.request())
    }

    /// Focus on a node: its neighbourhood payload and row count.
    pub fn focus(&self, dataset: Option<&str>, layer: usize, node: u64) -> Result<(u64, String)> {
        let request = ApiRequest::Focus {
            dataset: dataset.map(String::from),
            layer,
            node,
        };
        match self.rpc(&request)? {
            ApiResponse::Focus { rows, graph } => Ok((rows, graph)),
            other => Err(unexpected("focus", &other)),
        }
    }

    /// Mutation: insert an edge.
    pub fn insert_edge(
        &self,
        dataset: Option<&str>,
        layer: usize,
        edge: EdgeDto,
    ) -> Result<Mutation> {
        let request = ApiRequest::InsertEdge {
            dataset: dataset.map(String::from),
            layer,
            edge,
        };
        self.mutated(&request)
    }

    /// Mutation: delete an edge by row id.
    pub fn delete_edge(&self, dataset: Option<&str>, layer: usize, rid: u64) -> Result<Mutation> {
        let request = ApiRequest::DeleteEdge {
            dataset: dataset.map(String::from),
            layer,
            rid,
        };
        self.mutated(&request)
    }

    fn mutated(&self, request: &ApiRequest) -> Result<Mutation> {
        match self.rpc(request)? {
            ApiResponse::Mutated {
                dataset,
                layer,
                epoch,
                rid,
            } => Ok(Mutation {
                dataset,
                layer,
                epoch,
                rid,
            }),
            other => Err(unexpected("mutated", &other)),
        }
    }

    /// Register a session for delta-pan anchoring.
    pub fn session_new(&self, dataset: Option<&str>, window: Option<RectDto>) -> Result<u64> {
        let request = ApiRequest::SessionNew {
            dataset: dataset.map(String::from),
            window,
        };
        match self.rpc(&request)? {
            ApiResponse::Session { id } => Ok(id),
            other => Err(unexpected("session", &other)),
        }
    }

    /// Release a session.
    pub fn session_close(&self, dataset: Option<&str>, session: u64) -> Result<()> {
        let request = ApiRequest::SessionClose {
            dataset: dataset.map(String::from),
            session,
        };
        match self.rpc(&request)? {
            ApiResponse::Closed => Ok(()),
            other => Err(unexpected("closed", &other)),
        }
    }

    /// Durability hook: checkpoint the dataset to disk. Returns the
    /// flushed dataset's name and the number of pages written back.
    pub fn flush(&self, dataset: Option<&str>) -> Result<(String, u64)> {
        let request = ApiRequest::Flush {
            dataset: dataset.map(String::from),
        };
        match self.rpc(&request)? {
            ApiResponse::Flushed { dataset, pages } => Ok((dataset, pages)),
            other => Err(unexpected("flushed", &other)),
        }
    }

    /// Full serving statistics.
    pub fn stats(&self) -> Result<StatsDto> {
        match self.rpc(&ApiRequest::Stats)? {
            ApiResponse::Stats(stats) => Ok(stats),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Liveness probe.
    pub fn healthz(&self) -> Result<bool> {
        let (status, _, body) = self.exchange("GET", "/v1/healthz", "", true)?;
        Ok(status == 200 && body.contains("true"))
    }

    /// The RPC form: execute any serialized [`ApiRequest`] over
    /// `POST /v1` and return the typed response. Typed errors come back
    /// as [`ClientError::Api`].
    pub fn rpc(&self, request: &ApiRequest) -> Result<ApiResponse> {
        let body = request.to_json();
        let (_, _, response_body) = self.exchange("POST", "/v1", &body, true)?;
        match ApiResponse::from_json(&response_body) {
            Ok(ApiResponse::Error(e)) => Err(ClientError::Api(e)),
            Ok(response) => Ok(response),
            Err(e) => Err(ClientError::Protocol(format!(
                "unparseable response: {e} — body: {}",
                excerpt(&response_body)
            ))),
        }
    }

    /// A raw buffered `GET` of `path` (absolute, query string included),
    /// returning `(status, body)`. The escape hatch for endpoints with
    /// no typed wrapper — the replication plane (`/v1/repl/*`,
    /// `/v1/shardmap`) reaches its peers through this, sharing the
    /// client's pool, timeouts and keep-alive handling.
    pub fn get_text(&self, path: &str) -> Result<(u16, String)> {
        let (status, _, body) = self.exchange("GET", path, "", true)?;
        Ok((status, body))
    }

    /// A raw buffered `POST` of `body` to `path`, returning
    /// `(status, body)`. See [`GvdbClient::get_text`].
    pub fn post_text(&self, path: &str, body: &str) -> Result<(u16, String)> {
        let (status, _, response) = self.exchange("POST", path, body, true)?;
        Ok((status, response))
    }

    // -- streamed results ---------------------------------------------------

    /// A **streamed** request (`window`, `search` or `aggregate`): the
    /// frame protocol over chunked transfer-encoding, requested as
    /// `GET /v1/<op>?<`[`ApiRequest::to_query`]`>`. The returned
    /// [`WindowStream`] has already read the [`FrameHeader`], so the
    /// first row batch is one iteration away. A request the query string
    /// cannot carry (URL metacharacters in a text field, any other op) is
    /// a [`ClientError::Protocol`] before anything is sent — use the
    /// buffered call, which rides `POST /v1`, for those.
    pub fn stream(&self, request: &ApiRequest) -> Result<WindowStream> {
        let query = request
            .to_query()
            .map_err(|e| ClientError::Protocol(e.message))?;
        let path = format!("/v1/{}?{query}", request.op());
        let started = Instant::now();
        let (mut reader, status, headers) = self.send(&path, "GET", "", false)?;
        if status != 200 {
            // Errors before the first frame are plain buffered responses.
            let body = read_buffered_body(&mut reader, &headers)?;
            return Err(match ApiResponse::from_json(&body) {
                Ok(ApiResponse::Error(e)) => ClientError::Api(e),
                _ => ClientError::Protocol(format!("status {status}: {}", excerpt(&body))),
            });
        }
        if !header(&headers, "transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
        {
            return Err(ClientError::Protocol(
                "streamed endpoint did not answer with chunked transfer-encoding".into(),
            ));
        }
        let keep_alive = header(&headers, "connection").is_some_and(|v| v.contains("keep-alive"));
        let mut frames = FrameReader {
            reader,
            finished: false,
            broken: false,
            last_frame_bytes: 0,
        };
        let header = match frames.next_frame()? {
            Some(ApiFrame::Header(h)) => h,
            Some(other) => {
                return Err(ClientError::Protocol(format!(
                    "stream began with a '{}' frame instead of the header",
                    other.kind()
                )))
            }
            None => return Err(ClientError::Protocol("empty stream".into())),
        };
        Ok(WindowStream {
            frames,
            header,
            progress: None,
            summary: None,
            trailer: None,
            pool: Arc::clone(&self.pool),
            addr: self.addr.clone(),
            keep_alive,
            started,
            header_ms: started.elapsed().as_secs_f64() * 1e3,
            first_rows_ms: None,
            rows_wire_bytes: 0,
        })
    }

    /// A **streamed** window query (see [`GvdbClient::stream`]).
    pub fn window_stream(&self, params: &WindowParams) -> Result<WindowStream> {
        self.stream(&params.request())
    }

    /// A **streamed** keyword search (see [`GvdbClient::stream`]; spaces
    /// in `query` travel as `+`).
    pub fn search_stream(
        &self,
        dataset: Option<&str>,
        layer: usize,
        query: &str,
    ) -> Result<WindowStream> {
        self.search_stream_filtered(dataset, layer, query, None)
    }

    /// [`GvdbClient::search_stream`] with an attribute predicate (the
    /// `filter=` query parameter).
    pub fn search_stream_filtered(
        &self,
        dataset: Option<&str>,
        layer: usize,
        query: &str,
        predicate: Option<&Predicate>,
    ) -> Result<WindowStream> {
        self.stream(&ApiRequest::Search {
            dataset: dataset.map(String::from),
            layer,
            query: query.to_string(),
            predicate: predicate.cloned(),
        })
    }

    // -- HTTP plumbing ------------------------------------------------------

    /// Send one request and return `(reader, status, headers)` with the
    /// body unread. A pooled connection the server already closed (EOF /
    /// reset before any response byte) is retried on a fresh connect;
    /// any other failure — a timeout in particular — surfaces to the
    /// caller, because the server may have already executed the request
    /// and a blind resend would apply a mutation twice.
    fn send(
        &self,
        path: &str,
        method: &str,
        body: &str,
        buffered: bool,
    ) -> Result<(BufReader<TcpStream>, u16, Headers)> {
        loop {
            let (stream, pooled) = self.pool.checkout(&self.addr)?;
            let auth = match &self.api_key {
                Some(key) => format!("Authorization: Bearer {key}\r\n"),
                None => String::new(),
            };
            // Buffered exchanges pin the JSON envelope; streams negotiate
            // frames via their explicit `stream=1` flag.
            let accept = if buffered {
                "Accept: application/json\r\n"
            } else {
                ""
            };
            let request = format!(
                "{method} {path} HTTP/1.1\r\nHost: {}\r\n{accept}{auth}Content-Length: {}\r\n\r\n{body}",
                self.addr,
                body.len()
            );
            let mut writer = stream.try_clone()?;
            let mut reader = BufReader::new(stream);
            let outcome = writer
                .write_all(request.as_bytes())
                .map_err(ClientError::Io)
                .and_then(|()| read_status_and_headers(&mut reader));
            match outcome {
                Ok((status, headers)) => return Ok((reader, status, headers)),
                Err(e) => {
                    if pooled && is_stale_connection(&e) {
                        // The server idled this connection out between
                        // calls; safe to retry on a fresh connect.
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// One full buffered exchange. Successful keep-alive responses hand
    /// their connection back to the pool.
    fn exchange(
        &self,
        method: &str,
        path: &str,
        body: &str,
        buffered: bool,
    ) -> Result<(u16, Headers, String)> {
        let (mut reader, status, headers) = self.send(path, method, body, buffered)?;
        let response_body = read_buffered_body(&mut reader, &headers)?;
        if status == 200 && header(&headers, "connection").is_some_and(|v| v.contains("keep-alive"))
        {
            self.pool.checkin(&self.addr, reader.into_inner());
        }
        Ok((status, headers, response_body))
    }
}

/// Whether a send failure means the pooled connection was dead on
/// arrival (closed by the server between calls) — the only case a
/// resend cannot double-execute the request. Timeouts and mid-response
/// errors are NOT retried: the server may already have acted.
fn is_stale_connection(e: &ClientError) -> bool {
    match e {
        ClientError::Io(io) => matches!(
            io.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::WriteZero
        ),
        _ => false,
    }
}

fn unexpected(wanted: &str, got: &ApiResponse) -> ClientError {
    ClientError::Protocol(format!(
        "expected a '{wanted}' response, got '{}'",
        got.kind()
    ))
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn read_status_and_headers(reader: &mut BufReader<TcpStream>) -> Result<(u16, Headers)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        )));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ClientError::Protocol(format!("bad status line: {}", line.trim())))?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol(
                "connection closed mid-headers".into(),
            ));
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
    }
    Ok((status, headers))
}

/// Read a `Content-Length` body (buffered responses and pre-stream
/// errors).
fn read_buffered_body(
    reader: &mut BufReader<TcpStream>,
    headers: &[(String, String)],
) -> Result<String> {
    let length: usize = header(headers, "content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ClientError::Protocol("response without content-length".into()))?;
    let mut buf = vec![0u8; length];
    reader.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| ClientError::Protocol("non-UTF-8 body".into()))
}

/// Low-level chunked-frame reader: one HTTP chunk = one `ApiFrame`.
struct FrameReader {
    reader: BufReader<TcpStream>,
    finished: bool,
    broken: bool,
    /// Encoded bytes of the most recently read frame (the chunk payload,
    /// before JSON decode) — what [`WindowStream::rows_wire_bytes`]
    /// accumulates.
    last_frame_bytes: u64,
}

impl FrameReader {
    /// The next frame, or `None` once the terminating chunk arrived.
    fn next_frame(&mut self) -> Result<Option<ApiFrame>> {
        if self.finished {
            return Ok(None);
        }
        match self.read_chunk() {
            Ok(None) => {
                self.finished = true;
                Ok(None)
            }
            Ok(Some(payload)) => {
                self.last_frame_bytes = payload.len() as u64;
                let text = std::str::from_utf8(&payload)
                    .map_err(|_| ClientError::Protocol("non-UTF-8 frame".into()))?;
                let frame = ApiFrame::from_json(text.trim_end()).map_err(|e| {
                    ClientError::Protocol(format!("bad frame: {e} — chunk: {}", excerpt(text)))
                })?;
                Ok(Some(frame))
            }
            Err(e) => {
                self.broken = true;
                Err(e)
            }
        }
    }

    fn read_chunk(&mut self) -> Result<Option<Vec<u8>>> {
        let mut size_line = String::new();
        if self.reader.read_line(&mut size_line)? == 0 {
            return Err(ClientError::Protocol(
                "connection closed mid-stream (no terminating chunk)".into(),
            ));
        }
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| ClientError::Protocol(format!("bad chunk size: {size_line:?}")))?;
        if size == 0 {
            // Consume the final CRLF after the zero chunk.
            let mut crlf = String::new();
            self.reader.read_line(&mut crlf)?;
            return Ok(None);
        }
        let mut payload = vec![0u8; size];
        self.reader.read_exact(&mut payload)?;
        let mut crlf = [0u8; 2];
        self.reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(ClientError::Protocol(format!(
                "chunk of {size} bytes not followed by CRLF (got {crlf:02x?}): stream out of sync"
            )));
        }
        Ok(Some(payload))
    }
}

/// Bytes of a malformed body or frame quoted in an error message.
const EXCERPT_BYTES: usize = 200;

/// `text` cut to at most [`EXCERPT_BYTES`] on a char boundary, marked
/// when cut — a bad frame can be many KB, and the error only needs its
/// start.
fn excerpt(text: &str) -> std::borrow::Cow<'_, str> {
    if text.len() <= EXCERPT_BYTES {
        return text.into();
    }
    let mut end = EXCERPT_BYTES;
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}… ({} bytes)", &text[..end], text.len()).into()
}

/// A streamed result: iterator of decoded [`RowBatch`]es (used for both
/// window and search streams). The [`FrameHeader`] is available
/// immediately; [`WindowStream::trailer`] after the last batch. Dropping
/// a half-read stream drops its connection (the server notices on its
/// next write and frees the worker); a fully-drained keep-alive stream
/// returns the connection to the client's pool.
pub struct WindowStream {
    frames: FrameReader,
    /// The stream's opening frame — dataset, layer, epoch, source.
    pub header: FrameHeader,
    progress: Option<ProgressFrame>,
    summary: Option<AggregateDto>,
    trailer: Option<TrailerFrame>,
    pool: Arc<ConnectionPool>,
    addr: String,
    keep_alive: bool,
    /// When the request was written — the zero point of every timing
    /// this stream reports.
    started: Instant,
    header_ms: f64,
    first_rows_ms: Option<f64>,
    rows_wire_bytes: u64,
}

/// One decoded row batch plus when it landed: `recv_ms` is measured from
/// the moment the streamed request was sent to the moment this batch
/// finished decoding, so consumers (the bench harness in particular) read
/// per-batch latency off the stream instead of re-deriving it from
/// wall-clock deltas around `next_batch` calls.
pub struct RecvBatch {
    /// The decoded batch.
    pub batch: RowBatch,
    /// Milliseconds from request send to this batch decoded.
    pub recv_ms: f64,
}

impl WindowStream {
    /// The next row batch, `Ok(None)` once the stream is exhausted.
    /// Progress frames are absorbed (visible via
    /// [`WindowStream::progress`]); a terminal `Error` frame surfaces as
    /// [`ClientError::Api`].
    pub fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        Ok(self.next_batch_timed()?.map(|r| r.batch))
    }

    /// [`WindowStream::next_batch`] with the batch's arrival time
    /// attached (see [`RecvBatch`]).
    pub fn next_batch_timed(&mut self) -> Result<Option<RecvBatch>> {
        // Packed frames decode here, transparently: the reconstructed
        // Graph fragment is byte-identical to what an unpacked stream
        // would have carried, so consumers (and `reassemble_graph`)
        // never see the wire encoding.
        Ok(self.next_batch_inner()?.map(|r| RecvBatch {
            batch: r.batch.into_plain(),
            recv_ms: r.recv_ms,
        }))
    }

    /// The next row batch **as it crossed the wire**: packed frames stay
    /// [`RowBatch::Packed`] instead of decoding to Graph fragments. The
    /// fan-out router consumes shard streams through this so it can
    /// re-apply its *global* node dedup before re-emitting — a node
    /// first seen on an earlier shard must not be re-introduced by a
    /// later one.
    pub fn next_batch_raw(&mut self) -> Result<Option<RowBatch>> {
        Ok(self.next_batch_inner()?.map(|r| r.batch))
    }

    fn next_batch_inner(&mut self) -> Result<Option<RecvBatch>> {
        loop {
            match self.frames.next_frame()? {
                Some(ApiFrame::Rows(batch)) => {
                    let recv_ms = self.started.elapsed().as_secs_f64() * 1e3;
                    if self.first_rows_ms.is_none() {
                        self.first_rows_ms = Some(recv_ms);
                    }
                    self.rows_wire_bytes += self.frames.last_frame_bytes;
                    return Ok(Some(RecvBatch { batch, recv_ms }));
                }
                Some(ApiFrame::Progress(p)) => self.progress = Some(p),
                Some(ApiFrame::Summary(s)) => self.summary = Some(s),
                Some(ApiFrame::Trailer(t)) => self.trailer = Some(t),
                Some(ApiFrame::Header(h)) => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected second header (op '{}')",
                        h.op
                    )))
                }
                Some(ApiFrame::Error(e)) => return Err(ClientError::Api(e)),
                None => {
                    // Fully drained: hand the connection back for reuse.
                    if self.keep_alive && self.trailer.is_some() && !self.frames.broken {
                        if let Ok(stream) = self.frames.reader.get_ref().try_clone() {
                            self.pool.checkin(&self.addr, stream);
                            self.keep_alive = false; // only once
                        }
                    }
                    return Ok(None);
                }
            }
        }
    }

    /// Drain the remaining batches, returning them all.
    pub fn collect_batches(&mut self) -> Result<Vec<RowBatch>> {
        let mut batches = Vec::new();
        while let Some(batch) = self.next_batch()? {
            batches.push(batch);
        }
        Ok(batches)
    }

    /// The latest progress frame seen.
    pub fn progress(&self) -> Option<&ProgressFrame> {
        self.progress.as_ref()
    }

    /// The aggregation summary, once an `aggregate` stream has been
    /// drained (`None` on window/search streams).
    pub fn summary(&self) -> Option<&AggregateDto> {
        self.summary.as_ref()
    }

    /// Milliseconds from request send to the [`FrameHeader`] decoded —
    /// the stream's time-to-first-frame.
    pub fn header_ms(&self) -> f64 {
        self.header_ms
    }

    /// Milliseconds from request send to the first `Rows` batch decoded
    /// (time-to-first-rows); `None` until a batch has been read.
    pub fn first_rows_ms(&self) -> Option<f64> {
        self.first_rows_ms
    }

    /// Milliseconds elapsed since the request was sent.
    pub fn elapsed_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// Encoded bytes of every `Rows` frame consumed so far — the actual
    /// row payload that crossed the wire (envelope included, packed
    /// frames counted at their compact size). The bench harness compares
    /// this against the buffered payload to measure the negotiated
    /// encoding's effect.
    pub fn rows_wire_bytes(&self) -> u64 {
        self.rows_wire_bytes
    }

    /// The trailer, once the stream is exhausted. Its `epoch` is the
    /// layer's epoch **at stream end** — newer than
    /// [`WindowStream::header`]'s iff an edit raced the stream.
    pub fn trailer(&self) -> Option<&TrailerFrame> {
        self.trailer.as_ref()
    }
}

impl Iterator for WindowStream {
    type Item = Result<RowBatch>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_batch().transpose()
    }
}

// ---------------------------------------------------------------------------
// Cluster fan-out
// ---------------------------------------------------------------------------

/// A client over a **sharded cluster**: one [`GvdbClient`] per shard,
/// each owning a disjoint ascending rid range, fanning every window out
/// as per-shard rid slices and merging the answers back into one
/// result. The server-side router (`gvdb serve --router`) is built on
/// the same merge; this type is the client-side variant for consumers
/// that want to skip the extra hop.
///
/// The merge contract (why plain concatenation is correct):
///
/// * shard ranges are disjoint, ascending, and cover `[0, u64::MAX]`
///   ([`gvdb_api::repl::ShardMapDto::is_complete`]);
/// * every shard emits its window rows ascending by rid, so visiting
///   shards in range order yields the **global** ascending rid order —
///   exactly the row order of an unsharded node;
/// * nodes are deduplicated *globally*, first occurrence wins, which
///   reproduces the canonical payload's node emission order.
///
/// The reassembled graph is therefore byte-identical to the same query
/// answered by one unsharded node.
pub struct ClusterClient {
    shards: Vec<(u64, u64, GvdbClient)>,
}

impl ClusterClient {
    /// A cluster client over an explicit shard map (ranges inclusive).
    /// Fails if the ranges are not disjoint-ascending-complete.
    pub fn new(shards: Vec<(u64, u64, String)>) -> Result<Self> {
        let map = gvdb_api::repl::ShardMapDto {
            shards: shards
                .iter()
                .map(|(lo, hi, addr)| gvdb_api::repl::ShardDto {
                    addr: addr.clone(),
                    rid_lo: *lo,
                    rid_hi: *hi,
                })
                .collect(),
        };
        if !map.is_complete() {
            return Err(ClientError::Protocol(
                "shard map is not disjoint-ascending-complete".into(),
            ));
        }
        Ok(ClusterClient {
            shards: shards
                .into_iter()
                .map(|(lo, hi, addr)| (lo, hi, GvdbClient::new(addr)))
                .collect(),
        })
    }

    /// Bootstrap from a node that serves `/v1/shardmap` (a router).
    pub fn from_router(addr: &str) -> Result<Self> {
        let (status, body) = GvdbClient::new(addr).get_text("/v1/shardmap")?;
        if status != 200 {
            return Err(ClientError::Protocol(format!(
                "GET /v1/shardmap answered {status}: {body}"
            )));
        }
        let map = gvdb_api::repl::ShardMapDto::from_json(&body)
            .map_err(|e| ClientError::Protocol(format!("shard map malformed: {e}")))?;
        Self::new(
            map.shards
                .into_iter()
                .map(|s| (s.rid_lo, s.rid_hi, s.addr))
                .collect(),
        )
    }

    /// The shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Fan `params` out to every shard as rid-sliced **packed** streams
    /// and return the merged stream. `params.session`, `.predicate` and
    /// `.rid_range` must be unset (the slices are ours to assign).
    pub fn window_merged(&self, params: &WindowParams) -> Result<MergedWindowStream> {
        if params.session.is_some() || params.predicate.is_some() || params.rid_range.is_some() {
            return Err(ClientError::Protocol(
                "window_merged owns session/predicate/rid_range".into(),
            ));
        }
        // Open every stream before reading any: the shards compute
        // their slices concurrently while we drain in rid order.
        let mut streams = Vec::with_capacity(self.shards.len());
        for (lo, hi, client) in &self.shards {
            let mut p = params.clone();
            p.packed = true; // dedup needs structured rows
            p.rid_range = Some((*lo, *hi));
            streams.push(client.window_stream(&p)?);
        }
        let header = FrameHeader {
            // The weakest (oldest) shard epoch: the staleness bound of
            // the merged answer as a whole.
            epoch: streams.iter().map(|s| s.header.epoch).min().unwrap_or(0),
            ..streams
                .first()
                .map(|s| s.header.clone())
                .unwrap_or(FrameHeader {
                    op: "window".into(),
                    dataset: String::new(),
                    layer: 0,
                    epoch: 0,
                    source: None,
                    session: None,
                })
        };
        Ok(MergedWindowStream {
            streams,
            current: 0,
            seen: std::collections::HashSet::new(),
            header,
            trailer: None,
            rows: 0,
            rows_fetched: 0,
        })
    }

    /// Convenience: run the merged stream to completion and reassemble
    /// one whole graph payload (`{"nodes":[…],"edges":[…]}`) — the
    /// byte-identity surface the cluster tests assert on.
    pub fn window_graph(
        &self,
        params: &WindowParams,
    ) -> Result<(FrameHeader, String, TrailerFrame)> {
        let mut merged = self.window_merged(params)?;
        let header = merged.header().clone();
        let mut fragments = Vec::new();
        while let Some(batch) = merged.next_plain()? {
            if let RowBatch::Graph { graph, .. } = batch {
                fragments.push(graph);
            }
        }
        let trailer = merged
            .trailer()
            .cloned()
            .ok_or_else(|| ClientError::Protocol("merged stream ended without trailer".into()))?;
        let graph = gvdb_api::reassemble_graph(fragments.iter().map(String::as_str))
            .map_err(ClientError::Api)?;
        Ok((header, graph, trailer))
    }
}

/// The merged view of per-shard rid-sliced window streams (see
/// [`ClusterClient::window_merged`]): batches surface in global rid
/// order with nodes deduplicated across the whole cluster.
pub struct MergedWindowStream {
    streams: Vec<WindowStream>,
    current: usize,
    seen: std::collections::HashSet<u64>,
    header: FrameHeader,
    trailer: Option<TrailerFrame>,
    rows: u64,
    rows_fetched: u64,
}

impl MergedWindowStream {
    /// The merged header: first shard's identity, weakest shard epoch.
    pub fn header(&self) -> &FrameHeader {
        &self.header
    }

    /// The next packed batch, nodes already deduplicated globally.
    /// `Ok(None)` once every shard is drained — after which
    /// [`MergedWindowStream::trailer`] reports the merged totals.
    pub fn next_packed(&mut self) -> Result<Option<gvdb_api::PackedRows>> {
        while self.current < self.streams.len() {
            let stream = &mut self.streams[self.current];
            match stream.next_batch_raw()? {
                Some(RowBatch::Packed { mut rows, .. }) => {
                    rows.nodes.retain(|n| self.seen.insert(n.id));
                    return Ok(Some(rows));
                }
                Some(RowBatch::Graph { .. }) => {
                    // We negotiated packed; a plain frame means the
                    // shard fell back (payload divergence) and global
                    // dedup is impossible.
                    return Err(ClientError::Protocol(
                        "shard answered with plain frames; cannot merge".into(),
                    ));
                }
                Some(RowBatch::Hits { .. }) => {
                    return Err(ClientError::Protocol(
                        "shard answered a window with search hits".into(),
                    ));
                }
                None => {
                    if let Some(t) = self.streams[self.current].trailer() {
                        self.rows += t.rows;
                        self.rows_fetched += t.rows_fetched;
                        let epoch = t.epoch;
                        let merged = self.trailer.get_or_insert(TrailerFrame {
                            epoch,
                            source: t.source,
                            rows: 0,
                            rows_reused: 0,
                            rows_fetched: 0,
                            frames: 0,
                        });
                        merged.epoch = merged.epoch.min(epoch);
                    }
                    self.current += 1;
                }
            }
        }
        if let Some(t) = self.trailer.as_mut() {
            t.rows = self.rows;
            t.rows_fetched = self.rows_fetched;
        }
        Ok(None)
    }

    /// [`MergedWindowStream::next_packed`] decoded to a plain
    /// [`RowBatch::Graph`] fragment — byte-identical to the fragment an
    /// unsharded stream would emit for the same rows.
    pub fn next_plain(&mut self) -> Result<Option<RowBatch>> {
        Ok(self.next_packed()?.map(|rows| {
            RowBatch::Packed {
                rows,
                reused: false,
            }
            .into_plain()
        }))
    }

    /// The merged trailer — weakest shard epoch, summed row counts —
    /// once every shard is drained.
    pub fn trailer(&self) -> Option<&TrailerFrame> {
        self.trailer.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excerpts_are_capped_on_a_char_boundary() {
        assert_eq!(excerpt("short"), "short");
        let exact = "x".repeat(EXCERPT_BYTES);
        assert_eq!(excerpt(&exact), exact);
        // A 4-byte emoji straddles the cap: the cut backs off to its start.
        let long = format!("{}😀{}", "a".repeat(EXCERPT_BYTES - 2), "b".repeat(10_000));
        let cut = excerpt(&long);
        let kept = "a".repeat(EXCERPT_BYTES - 2);
        assert_eq!(cut, format!("{kept}… ({} bytes)", long.len()));
    }
}
