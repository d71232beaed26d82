//! # gvdb-api
//!
//! The **versioned wire protocol** of the platform: every operation a
//! client can ask of a graphvizdb server — dataset discovery, window
//! queries (cold and session-anchored), keyword search, focus,
//! **mutations**, session lifecycle, statistics — expressed as typed
//! request/response DTOs with typed error codes, instead of the ad-hoc
//! query-string dialect each caller used to re-implement.
//!
//! * [`ApiRequest`] / [`ApiResponse`] — the `v1` protocol, one variant per
//!   operation. Both serialize to/from JSON ([`ApiRequest::to_json`],
//!   [`ApiRequest::from_json`], …); the encoding is hand-rolled over
//!   [`Json`] because the build environment vendors serde as a no-op
//!   marker crate (the derives below keep the DTOs serde-annotated for
//!   environments with the real serde). The streamable requests also
//!   have a `GET` query-string form ([`ApiRequest::to_query`],
//!   [`ApiRequest::from_query`]).
//! * [`ApiError`] — a typed error (`kind` + `message`) replacing stringly
//!   HTTP errors; [`ErrorKind::http_status`] maps each kind onto a status
//!   line.
//! * [`ApiFrame`] (the [`frame`] module) — the **streamed** result form:
//!   window and search results as a `Header · Rows* · Trailer` frame
//!   sequence, so transfer overlaps client-side rendering and
//!   time-to-first-frame is independent of result size.
//! * This crate is a **leaf**: no storage, no query engine, nothing but
//!   the protocol. `gvdb-core` implements the protocol behind the
//!   `GraphService` trait; `gvdb-server` speaks it over HTTP under
//!   `/v1/*`; the CLI and examples consume the same types.
//!
//! The graph payload itself (the `{"nodes":[…],"edges":[…]}` body built by
//! `gvdb-core::json`) rides inside [`ApiResponse::Window`] /
//! [`ApiResponse::Focus`] as a **raw JSON string**: the server splices the
//! cached `Arc`-shared payload into the envelope verbatim, so the typed
//! protocol costs no payload copy on the hot path.

pub mod frame;
pub mod json;
pub mod pack;
pub mod predicate;
mod query;
pub mod repl;

pub use frame::{
    reassemble_graph, rows_envelope_bytes, ApiFrame, FrameHeader, RowBatch, TrailerFrame,
    DEFAULT_CHUNK_ROWS,
};
pub use json::{escape_into, Json};
pub use pack::{ImageWriter, PackedEdge, PackedImage, PackedNode, PackedRows};
pub use predicate::{AggOp, AggregateDto, Field, HistogramDto, Predicate};

use serde::{Deserialize, Serialize};

/// The protocol version every endpoint in this crate describes.
pub const API_VERSION: &str = "v1";

/// Result alias for protocol operations.
pub type ApiResult<T> = Result<T, ApiError>;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed error classes of the protocol. Each maps onto one HTTP status
/// ([`ErrorKind::http_status`]) but is meaningful without HTTP — embedded
/// callers match on the kind instead of parsing message strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The request is malformed (missing/invalid parameters or body).
    BadRequest,
    /// The addressed dataset, layer, session, node or row does not exist.
    NotFound,
    /// The operation conflicts with existing state (e.g. duplicate
    /// dataset name).
    Conflict,
    /// The request body exceeds the configured limit.
    TooLarge,
    /// The request needs credentials it did not present (missing or
    /// wrong `Authorization` bearer token).
    Unauthorized,
    /// The credentials are fine but the operation is not allowed (e.g.
    /// a mutation on a read-only dataset).
    Forbidden,
    /// The server is shedding load (full connection queue).
    Unavailable,
    /// An internal error (storage failure, corruption).
    Internal,
}

impl ErrorKind {
    /// The wire tag of this kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::NotFound => "not_found",
            ErrorKind::Conflict => "conflict",
            ErrorKind::TooLarge => "too_large",
            ErrorKind::Unauthorized => "unauthorized",
            ErrorKind::Forbidden => "forbidden",
            ErrorKind::Unavailable => "unavailable",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parse a wire tag.
    pub fn parse(tag: &str) -> Option<ErrorKind> {
        Some(match tag {
            "bad_request" => ErrorKind::BadRequest,
            "not_found" => ErrorKind::NotFound,
            "conflict" => ErrorKind::Conflict,
            "too_large" => ErrorKind::TooLarge,
            "unauthorized" => ErrorKind::Unauthorized,
            "forbidden" => ErrorKind::Forbidden,
            "unavailable" => ErrorKind::Unavailable,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }

    /// The HTTP status line this kind maps onto.
    pub fn http_status(&self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "400 Bad Request",
            ErrorKind::NotFound => "404 Not Found",
            ErrorKind::Conflict => "409 Conflict",
            ErrorKind::TooLarge => "413 Payload Too Large",
            ErrorKind::Unauthorized => "401 Unauthorized",
            ErrorKind::Forbidden => "403 Forbidden",
            ErrorKind::Unavailable => "503 Service Unavailable",
            ErrorKind::Internal => "500 Internal Server Error",
        }
    }
}

/// A typed protocol error: a machine-readable [`ErrorKind`] plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApiError {
    /// The error class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// An error of `kind` with `message`.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ApiError {
            kind,
            message: message.into(),
        }
    }

    /// A [`ErrorKind::BadRequest`] error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::BadRequest, message)
    }

    /// A [`ErrorKind::NotFound`] error.
    pub fn not_found(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::NotFound, message)
    }

    /// A [`ErrorKind::Conflict`] error.
    pub fn conflict(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Conflict, message)
    }

    /// An [`ErrorKind::Unauthorized`] error.
    pub fn unauthorized(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Unauthorized, message)
    }

    /// An [`ErrorKind::Forbidden`] error.
    pub fn forbidden(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Forbidden, message)
    }

    /// An [`ErrorKind::Internal`] error.
    pub fn internal(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Internal, message)
    }

    fn to_value(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::Str(self.kind.as_str().into())),
            ("message".into(), Json::Str(self.message.clone())),
        ])
    }

    fn from_value(v: &Json) -> ApiResult<ApiError> {
        let kind = ErrorKind::parse(need_str(v, "kind")?)
            .ok_or_else(|| ApiError::bad_request("unknown error kind"))?;
        Ok(ApiError {
            kind,
            message: need_str(v, "message")?.to_string(),
        })
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for ApiError {}

// ---------------------------------------------------------------------------
// Shared DTO fragments
// ---------------------------------------------------------------------------

/// A viewport rectangle in plane coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RectDto {
    /// Left edge.
    pub min_x: f64,
    /// Bottom edge.
    pub min_y: f64,
    /// Right edge.
    pub max_x: f64,
    /// Top edge.
    pub max_y: f64,
}

impl RectDto {
    /// Whether the rectangle is ordered (`min <= max` on both axes).
    pub fn is_ordered(&self) -> bool {
        self.min_x <= self.max_x && self.min_y <= self.max_y
    }

    fn to_value(self) -> Json {
        Json::Obj(vec![
            ("min_x".into(), Json::Float(self.min_x)),
            ("min_y".into(), Json::Float(self.min_y)),
            ("max_x".into(), Json::Float(self.max_x)),
            ("max_y".into(), Json::Float(self.max_y)),
        ])
    }

    /// Parse from a JSON object `{"min_x":…,"min_y":…,"max_x":…,"max_y":…}`.
    pub fn from_value(v: &Json) -> ApiResult<RectDto> {
        Ok(RectDto {
            min_x: need_f64(v, "min_x")?,
            min_y: need_f64(v, "min_y")?,
            max_x: need_f64(v, "max_x")?,
            max_y: need_f64(v, "max_y")?,
        })
    }
}

/// One edge (plus its endpoints) as drawn or deleted by a client — the
/// mutation payload of [`ApiRequest::InsertEdge`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeDto {
    /// First endpoint's node id.
    pub node1_id: u64,
    /// First endpoint's label.
    pub node1_label: String,
    /// Second endpoint's node id.
    pub node2_id: u64,
    /// Second endpoint's label.
    pub node2_label: String,
    /// Edge label.
    pub edge_label: String,
    /// First endpoint's plane position (x).
    pub x1: f64,
    /// First endpoint's plane position (y).
    pub y1: f64,
    /// Second endpoint's plane position (x).
    pub x2: f64,
    /// Second endpoint's plane position (y).
    pub y2: f64,
    /// Whether the edge is directed.
    pub directed: bool,
}

impl EdgeDto {
    fn to_value(&self) -> Json {
        Json::Obj(vec![
            ("node1_id".into(), Json::uint(self.node1_id)),
            ("node1_label".into(), Json::Str(self.node1_label.clone())),
            ("node2_id".into(), Json::uint(self.node2_id)),
            ("node2_label".into(), Json::Str(self.node2_label.clone())),
            ("edge_label".into(), Json::Str(self.edge_label.clone())),
            ("x1".into(), Json::Float(self.x1)),
            ("y1".into(), Json::Float(self.y1)),
            ("x2".into(), Json::Float(self.x2)),
            ("y2".into(), Json::Float(self.y2)),
            ("directed".into(), Json::Bool(self.directed)),
        ])
    }

    /// Parse from the JSON object this type serializes to (the `edge`
    /// member of an `insert_edge` request).
    pub fn from_value(v: &Json) -> ApiResult<EdgeDto> {
        Ok(EdgeDto {
            node1_id: need_u64(v, "node1_id")?,
            node1_label: need_str(v, "node1_label")?.to_string(),
            node2_id: need_u64(v, "node2_id")?,
            node2_label: need_str(v, "node2_label")?.to_string(),
            edge_label: need_str(v, "edge_label")?.to_string(),
            x1: need_f64(v, "x1")?,
            y1: need_f64(v, "y1")?,
            x2: need_f64(v, "x2")?,
            y2: need_f64(v, "y2")?,
            directed: v.get("directed").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

/// How a window response was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Source {
    /// Full R-tree descent + heap fetch.
    Cold,
    /// Served whole from the window cache.
    Hit,
    /// Assembled incrementally from an overlapping cached window.
    Delta,
}

impl Source {
    /// The wire tag (also the `X-Gvdb-Source` header value).
    pub fn as_str(&self) -> &'static str {
        match self {
            Source::Cold => "cold",
            Source::Hit => "hit",
            Source::Delta => "delta",
        }
    }

    /// Parse a wire tag.
    pub fn parse(tag: &str) -> Option<Source> {
        Some(match tag {
            "cold" => Source::Cold,
            "hit" => Source::Hit,
            "delta" => Source::Delta,
            _ => return None,
        })
    }
}

/// Everything about a window response except the graph payload itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowMeta {
    /// The dataset that answered.
    pub dataset: String,
    /// The layer queried.
    pub layer: usize,
    /// The edit epoch the payload is consistent with.
    pub epoch: u64,
    /// How the response was produced.
    pub source: Source,
    /// Rows reused from the cache (whole result on a hit).
    pub rows_reused: usize,
    /// Rows fetched from the heap.
    pub rows_fetched: usize,
    /// The session that anchored the query, if any.
    pub session: Option<u64>,
}

impl WindowMeta {
    /// The meta object alone as JSON — what a server splices into the
    /// `/v1/window` envelope ahead of the shared graph payload.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    fn to_value(&self) -> Json {
        let mut members = vec![
            ("dataset".into(), Json::Str(self.dataset.clone())),
            ("layer".into(), Json::uint(self.layer as u64)),
            ("epoch".into(), Json::uint(self.epoch)),
            ("source".into(), Json::Str(self.source.as_str().into())),
            ("rows_reused".into(), Json::uint(self.rows_reused as u64)),
            ("rows_fetched".into(), Json::uint(self.rows_fetched as u64)),
        ];
        if let Some(sid) = self.session {
            members.push(("session".into(), Json::uint(sid)));
        }
        Json::Obj(members)
    }

    fn from_value(v: &Json) -> ApiResult<WindowMeta> {
        Ok(WindowMeta {
            dataset: need_str(v, "dataset")?.to_string(),
            layer: need_usize(v, "layer")?,
            epoch: need_u64(v, "epoch")?,
            source: Source::parse(need_str(v, "source")?)
                .ok_or_else(|| ApiError::bad_request("unknown window source"))?,
            rows_reused: need_usize(v, "rows_reused")?,
            rows_fetched: need_usize(v, "rows_fetched")?,
            session: v.get("session").and_then(Json::as_u64),
        })
    }
}

/// One dataset in the workspace, as listed by [`ApiRequest::ListDatasets`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetInfo {
    /// The dataset's name (the `dataset=` selector value).
    pub name: String,
    /// Number of abstraction layers.
    pub layers: usize,
}

/// One abstraction layer, as listed by [`ApiRequest::ListLayers`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerInfo {
    /// Layer index (0 = most detailed).
    pub index: usize,
    /// Row count.
    pub rows: u64,
    /// Current edit epoch.
    pub epoch: u64,
    /// Highest `RowId` present (as `RowId::to_u64`; 0 for an empty
    /// layer). A router splits `[0, rid_max]` into per-shard rid ranges —
    /// bulk-loaded layers fill heap pages densely in Morton order, so a
    /// uniform split of rid space is balanced and spatially coherent.
    pub rid_max: u64,
}

/// One keyword-search hit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchHitDto {
    /// Node id within the searched layer.
    pub node: u64,
    /// Node label.
    pub label: String,
    /// Plane position (x).
    pub x: f64,
    /// Plane position (y).
    pub y: f64,
}

// ---------------------------------------------------------------------------
// Statistics DTOs
// ---------------------------------------------------------------------------

/// Window-cache counters of one dataset.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CacheStatsDto {
    /// Exact-window hits.
    pub hits: u64,
    /// Delta-path partial hits.
    pub partial_hits: u64,
    /// Lookups that fell through to the database.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: u64,
    /// Approximate bytes held.
    pub bytes: u64,
    /// Per-shard `(entries, bytes)` occupancy.
    pub shards: Vec<(u64, u64)>,
}

/// Buffer-pool counters of one dataset.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PoolStatsDto {
    /// Page pins served from a resident frame.
    pub hits: u64,
    /// Page pins that went to disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Logical bytes resident: what the resident pages' contents would
    /// occupy uncompressed. With compressed pages this exceeds
    /// `physical_bytes`; the ratio is the pool's effective compression.
    pub logical_bytes: u64,
    /// Physical bytes resident (`frames × page size`).
    pub physical_bytes: u64,
    /// Per-shard `(hits, misses, evictions, logical_bytes,
    /// physical_bytes)`.
    pub shards: Vec<(u64, u64, u64, u64, u64)>,
}

/// Session-registry counters of one dataset.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SessionStatsDto {
    /// Sessions currently live.
    pub live: u64,
    /// Sessions ever created.
    pub created: u64,
    /// Sessions evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Sessions reclaimed by the idle-TTL sweep.
    pub expired: u64,
}

/// Access-path statistics of one abstraction layer — the cardinality
/// inputs the attribute-query chooser reads.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LayerStatsDto {
    /// Layer index (0 = most detailed).
    pub index: u64,
    /// Row (edge) count — the scan-path cardinality.
    pub rows: u64,
    /// Nodes with a degree/rank sidecar entry (0 = no sidecar, so
    /// degree/rank predicates fall back to the scan path).
    pub sidecar_nodes: u64,
}

/// Attribute-query chooser decision counters of one dataset.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ChooserStatsDto {
    /// Filtered queries answered via index-probe-then-Rect-intersect.
    pub index: u64,
    /// Filtered queries answered via R-tree-then-residual-filter.
    pub scan: u64,
}

/// Full serving statistics of one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// The dataset's name.
    pub name: String,
    /// Per-layer edit epochs.
    pub epochs: Vec<u64>,
    /// Window-cache counters.
    pub cache: CacheStatsDto,
    /// Buffer-pool counters.
    pub pool: PoolStatsDto,
    /// Session-registry counters.
    pub sessions: SessionStatsDto,
    /// Per-layer cardinality / index statistics.
    pub layers: Vec<LayerStatsDto>,
    /// Attribute-query chooser decisions.
    pub chooser: ChooserStatsDto,
}

/// The `/v1/stats` payload: server-level counters plus one
/// [`DatasetStats`] per dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsDto {
    /// Requests served (all endpoints, all connections).
    pub served: u64,
    /// Connections shed with 503 because the queue was full.
    pub rejected: u64,
    /// Worker threads.
    pub workers: u64,
    /// Connection-queue depth.
    pub backlog: u64,
    /// Worker threads currently executing a request (the soak tests
    /// assert this returns to 0 — a non-zero value at rest means a
    /// leaked worker).
    pub active_workers: u64,
    /// Connections currently registered with the reactor (idle
    /// keep-alive connections included — each costs a registered fd,
    /// not a thread).
    pub open_connections: u64,
    /// CPU cores the server saw at startup — read alongside the
    /// per-shard arrays: pool and cache stripe counts default to
    /// `min(16, max(2, 2 × cpus))`.
    pub cpus: u64,
    /// The shards-vs-cores sizing policy in force, as a human-readable
    /// note (e.g. `"min(16, max(2, 2*cpus))"`).
    pub shards_policy: String,
    /// Replication gauges — `None` on a plain single-node server (the
    /// wire member is absent, so pre-replication clients are
    /// unaffected).
    pub replication: Option<repl::ReplStatsDto>,
    /// Per-dataset statistics.
    pub datasets: Vec<DatasetStats>,
}

impl DatasetStats {
    fn to_value(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            (
                "epochs".into(),
                Json::Arr(self.epochs.iter().map(|&e| Json::uint(e)).collect()),
            ),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("hits".into(), Json::uint(self.cache.hits)),
                    ("partial_hits".into(), Json::uint(self.cache.partial_hits)),
                    ("misses".into(), Json::uint(self.cache.misses)),
                    ("entries".into(), Json::uint(self.cache.entries)),
                    ("bytes".into(), Json::uint(self.cache.bytes)),
                    (
                        "shards".into(),
                        Json::Arr(
                            self.cache
                                .shards
                                .iter()
                                .map(|&(entries, bytes)| {
                                    Json::Obj(vec![
                                        ("entries".into(), Json::uint(entries)),
                                        ("bytes".into(), Json::uint(bytes)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "pool".into(),
                Json::Obj(vec![
                    ("hits".into(), Json::uint(self.pool.hits)),
                    ("misses".into(), Json::uint(self.pool.misses)),
                    ("evictions".into(), Json::uint(self.pool.evictions)),
                    ("logical_bytes".into(), Json::uint(self.pool.logical_bytes)),
                    (
                        "physical_bytes".into(),
                        Json::uint(self.pool.physical_bytes),
                    ),
                    (
                        "shards".into(),
                        Json::Arr(
                            self.pool
                                .shards
                                .iter()
                                .map(|&(hits, misses, evictions, logical, physical)| {
                                    Json::Obj(vec![
                                        ("hits".into(), Json::uint(hits)),
                                        ("misses".into(), Json::uint(misses)),
                                        ("evictions".into(), Json::uint(evictions)),
                                        ("logical_bytes".into(), Json::uint(logical)),
                                        ("physical_bytes".into(), Json::uint(physical)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "sessions".into(),
                Json::Obj(vec![
                    ("live".into(), Json::uint(self.sessions.live)),
                    ("created".into(), Json::uint(self.sessions.created)),
                    ("evictions".into(), Json::uint(self.sessions.evictions)),
                    ("expired".into(), Json::uint(self.sessions.expired)),
                ]),
            ),
            (
                "layers".into(),
                Json::Arr(
                    self.layers
                        .iter()
                        .map(|l| {
                            Json::Obj(vec![
                                ("index".into(), Json::uint(l.index)),
                                ("rows".into(), Json::uint(l.rows)),
                                ("sidecar_nodes".into(), Json::uint(l.sidecar_nodes)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "chooser".into(),
                Json::Obj(vec![
                    ("index".into(), Json::uint(self.chooser.index)),
                    ("scan".into(), Json::uint(self.chooser.scan)),
                ]),
            ),
        ])
    }

    fn from_value(v: &Json) -> ApiResult<DatasetStats> {
        let cache = need(v, "cache")?;
        let pool = need(v, "pool")?;
        let sessions = need(v, "sessions")?;
        Ok(DatasetStats {
            name: need_str(v, "name")?.to_string(),
            epochs: need(v, "epochs")?
                .as_arr()
                .ok_or_else(|| ApiError::bad_request("epochs must be an array"))?
                .iter()
                .map(|e| e.as_u64().ok_or_else(|| ApiError::bad_request("bad epoch")))
                .collect::<ApiResult<_>>()?,
            cache: CacheStatsDto {
                hits: need_u64(cache, "hits")?,
                partial_hits: need_u64(cache, "partial_hits")?,
                misses: need_u64(cache, "misses")?,
                entries: need_u64(cache, "entries")?,
                bytes: need_u64(cache, "bytes")?,
                shards: need(cache, "shards")?
                    .as_arr()
                    .ok_or_else(|| ApiError::bad_request("cache shards must be an array"))?
                    .iter()
                    .map(|s| Ok((need_u64(s, "entries")?, need_u64(s, "bytes")?)))
                    .collect::<ApiResult<_>>()?,
            },
            pool: PoolStatsDto {
                hits: need_u64(pool, "hits")?,
                misses: need_u64(pool, "misses")?,
                evictions: need_u64(pool, "evictions")?,
                // Lenient: absent on payloads from pre-compression
                // servers.
                logical_bytes: pool
                    .get("logical_bytes")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                physical_bytes: pool
                    .get("physical_bytes")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                shards: need(pool, "shards")?
                    .as_arr()
                    .ok_or_else(|| ApiError::bad_request("pool shards must be an array"))?
                    .iter()
                    .map(|s| {
                        Ok((
                            need_u64(s, "hits")?,
                            need_u64(s, "misses")?,
                            need_u64(s, "evictions")?,
                            s.get("logical_bytes").and_then(Json::as_u64).unwrap_or(0),
                            s.get("physical_bytes").and_then(Json::as_u64).unwrap_or(0),
                        ))
                    })
                    .collect::<ApiResult<_>>()?,
            },
            sessions: SessionStatsDto {
                live: need_u64(sessions, "live")?,
                created: need_u64(sessions, "created")?,
                evictions: need_u64(sessions, "evictions")?,
                expired: need_u64(sessions, "expired")?,
            },
            // Lenient: absent on payloads from pre-attribute-query
            // servers.
            layers: match v.get("layers").and_then(Json::as_arr) {
                Some(layers) => layers
                    .iter()
                    .map(|l| {
                        Ok(LayerStatsDto {
                            index: need_u64(l, "index")?,
                            rows: need_u64(l, "rows")?,
                            sidecar_nodes: l
                                .get("sidecar_nodes")
                                .and_then(Json::as_u64)
                                .unwrap_or(0),
                        })
                    })
                    .collect::<ApiResult<_>>()?,
                None => Vec::new(),
            },
            chooser: match v.get("chooser") {
                Some(c) => ChooserStatsDto {
                    index: c.get("index").and_then(Json::as_u64).unwrap_or(0),
                    scan: c.get("scan").and_then(Json::as_u64).unwrap_or(0),
                },
                None => ChooserStatsDto::default(),
            },
        })
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One operation of the `v1` protocol. Every server endpoint, CLI
/// subcommand and embedded caller constructs one of these and hands it to
/// a `GraphService` (in `gvdb-core`).
///
/// `dataset: None` addresses the service's only dataset; on a
/// multi-dataset workspace with several, it is a
/// [`ErrorKind::BadRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ApiRequest {
    /// List the datasets the service holds.
    ListDatasets,
    /// List a dataset's abstraction layers.
    ListLayers {
        /// Target dataset.
        dataset: Option<String>,
    },
    /// A window query: cold, or anchored/delta when `session` is given
    /// (the registry anchors the client's previous viewport, so an
    /// overlapping follow-up rides the incremental path).
    Window {
        /// Target dataset.
        dataset: Option<String>,
        /// Layer to query; defaults to 0, or to the session's current
        /// layer when a session is given.
        layer: Option<usize>,
        /// The viewport.
        window: RectDto,
        /// Session to anchor on.
        session: Option<u64>,
        /// Whether the client accepts the compact `Rows` frame encoding
        /// (`"packed"` frames, see [`pack`]). Negotiated per request:
        /// `false` (the default, and the wire form's absent member)
        /// keeps every frame plain JSON, so old clients never see bytes
        /// they can't parse. Only streamed responses honor it; the
        /// buffered envelope is always plain.
        packed: bool,
        /// Attribute filter pushed down into the heap fetch; absent
        /// keeps the unfiltered wire form byte-stable.
        predicate: Option<Predicate>,
        /// Restrict the answer to rows whose `RowId` falls in this
        /// inclusive range (wire members `rid_lo`/`rid_hi`, both absent
        /// by default so the unsharded wire form is unchanged). The
        /// fan-out/merge router gives each shard a disjoint slice of rid
        /// space; concatenating the slices in range order reproduces the
        /// single-node row stream exactly, because windows always emit
        /// rows in ascending `RowId` order. Range-restricted requests
        /// bypass the window cache and sessions — they are an internal
        /// fan-out primitive, not an interactive path.
        rid_range: Option<(u64, u64)>,
    },
    /// Keyword search over node labels.
    Search {
        /// Target dataset.
        dataset: Option<String>,
        /// Layer to search.
        layer: usize,
        /// The keyword(s).
        query: String,
        /// Attribute filter applied to the hits (node attributes only —
        /// edge-label predicates are a [`ErrorKind::BadRequest`]).
        predicate: Option<Predicate>,
    },
    /// Focus on a node: the node and its direct neighbours.
    Focus {
        /// Target dataset.
        dataset: Option<String>,
        /// Layer to read.
        layer: usize,
        /// The node id.
        node: u64,
    },
    /// Mutation: insert an edge. The response carries the layer's new
    /// epoch, so the client can observe its own write.
    InsertEdge {
        /// Target dataset.
        dataset: Option<String>,
        /// Layer to mutate.
        layer: usize,
        /// The edge to insert.
        edge: EdgeDto,
    },
    /// Mutation: delete an edge by row id.
    DeleteEdge {
        /// Target dataset.
        dataset: Option<String>,
        /// Layer to mutate.
        layer: usize,
        /// The row id (as returned by [`ApiResponse::Mutated`]).
        rid: u64,
    },
    /// Register a session for delta-pan anchoring.
    SessionNew {
        /// Target dataset.
        dataset: Option<String>,
        /// Initial viewport (defaults server-side).
        window: Option<RectDto>,
    },
    /// Release a session explicitly.
    SessionClose {
        /// Target dataset.
        dataset: Option<String>,
        /// The session to close.
        session: u64,
    },
    /// Durability hook: sync the dataset's buffer pool and pager to disk
    /// (the explicit half of the mutation durability contract — edits
    /// update the live database immediately but are persisted on flush).
    Flush {
        /// Target dataset.
        dataset: Option<String>,
    },
    /// Window aggregation: reduce the filtered window to a summary
    /// ([`AggOp`]) instead of a payload. Streamable — the streamed form
    /// is `Header · Summary · Trailer`, the trailer
    /// re-sampling the epoch like every other stream.
    Aggregate {
        /// Target dataset.
        dataset: Option<String>,
        /// Layer to aggregate; defaults to 0.
        layer: Option<usize>,
        /// The viewport.
        window: RectDto,
        /// Attribute filter; absent aggregates the whole window.
        predicate: Option<Predicate>,
        /// The reduction to compute.
        agg: AggOp,
    },
    /// Full serving statistics.
    Stats,
}

impl ApiRequest {
    /// The dataset selector of this request, if the variant carries one.
    pub fn dataset(&self) -> Option<&str> {
        match self {
            ApiRequest::ListDatasets | ApiRequest::Stats => None,
            ApiRequest::ListLayers { dataset }
            | ApiRequest::Window { dataset, .. }
            | ApiRequest::Search { dataset, .. }
            | ApiRequest::Focus { dataset, .. }
            | ApiRequest::InsertEdge { dataset, .. }
            | ApiRequest::DeleteEdge { dataset, .. }
            | ApiRequest::SessionNew { dataset, .. }
            | ApiRequest::SessionClose { dataset, .. }
            | ApiRequest::Aggregate { dataset, .. }
            | ApiRequest::Flush { dataset } => dataset.as_deref(),
        }
    }

    /// Whether this request mutates graph data (what an API-key gate or a
    /// read-only dataset must reject). [`ApiRequest::Flush`] is *not* a
    /// mutation: it persists already-applied edits without changing any
    /// row.
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            ApiRequest::InsertEdge { .. } | ApiRequest::DeleteEdge { .. }
        )
    }

    /// The wire tag of this operation.
    pub fn op(&self) -> &'static str {
        match self {
            ApiRequest::ListDatasets => "list_datasets",
            ApiRequest::ListLayers { .. } => "list_layers",
            ApiRequest::Window { .. } => "window",
            ApiRequest::Search { .. } => "search",
            ApiRequest::Focus { .. } => "focus",
            ApiRequest::InsertEdge { .. } => "insert_edge",
            ApiRequest::DeleteEdge { .. } => "delete_edge",
            ApiRequest::SessionNew { .. } => "session_new",
            ApiRequest::SessionClose { .. } => "session_close",
            ApiRequest::Flush { .. } => "flush",
            ApiRequest::Aggregate { .. } => "aggregate",
            ApiRequest::Stats => "stats",
        }
    }

    /// Serialize to the wire form `{"op":…, …}`.
    pub fn to_json(&self) -> String {
        let mut members: Vec<(String, Json)> = vec![("op".into(), Json::Str(self.op().into()))];
        let dataset_member = |dataset: &Option<String>, members: &mut Vec<(String, Json)>| {
            if let Some(d) = dataset {
                members.push(("dataset".into(), Json::Str(d.clone())));
            }
        };
        match self {
            ApiRequest::ListDatasets | ApiRequest::Stats => {}
            ApiRequest::ListLayers { dataset } | ApiRequest::Flush { dataset } => {
                dataset_member(dataset, &mut members)
            }
            ApiRequest::Window {
                dataset,
                layer,
                window,
                session,
                packed,
                predicate,
                rid_range,
            } => {
                dataset_member(dataset, &mut members);
                if let Some(layer) = layer {
                    members.push(("layer".into(), Json::uint(*layer as u64)));
                }
                members.push(("window".into(), window.to_value()));
                if let Some(sid) = session {
                    members.push(("session".into(), Json::uint(*sid)));
                }
                if *packed {
                    members.push(("encoding".into(), Json::Str("packed".into())));
                }
                if let Some(p) = predicate {
                    members.push(("filter".into(), p.to_value()));
                }
                if let Some((lo, hi)) = rid_range {
                    members.push(("rid_lo".into(), Json::uint(*lo)));
                    members.push(("rid_hi".into(), Json::uint(*hi)));
                }
            }
            ApiRequest::Search {
                dataset,
                layer,
                query,
                predicate,
            } => {
                dataset_member(dataset, &mut members);
                members.push(("layer".into(), Json::uint(*layer as u64)));
                members.push(("q".into(), Json::Str(query.clone())));
                if let Some(p) = predicate {
                    members.push(("filter".into(), p.to_value()));
                }
            }
            ApiRequest::Focus {
                dataset,
                layer,
                node,
            } => {
                dataset_member(dataset, &mut members);
                members.push(("layer".into(), Json::uint(*layer as u64)));
                members.push(("node".into(), Json::uint(*node)));
            }
            ApiRequest::InsertEdge {
                dataset,
                layer,
                edge,
            } => {
                dataset_member(dataset, &mut members);
                members.push(("layer".into(), Json::uint(*layer as u64)));
                members.push(("edge".into(), edge.to_value()));
            }
            ApiRequest::DeleteEdge {
                dataset,
                layer,
                rid,
            } => {
                dataset_member(dataset, &mut members);
                members.push(("layer".into(), Json::uint(*layer as u64)));
                members.push(("rid".into(), Json::uint(*rid)));
            }
            ApiRequest::SessionNew { dataset, window } => {
                dataset_member(dataset, &mut members);
                if let Some(w) = window {
                    members.push(("window".into(), w.to_value()));
                }
            }
            ApiRequest::SessionClose { dataset, session } => {
                dataset_member(dataset, &mut members);
                members.push(("session".into(), Json::uint(*session)));
            }
            ApiRequest::Aggregate {
                dataset,
                layer,
                window,
                predicate,
                agg,
            } => {
                dataset_member(dataset, &mut members);
                if let Some(layer) = layer {
                    members.push(("layer".into(), Json::uint(*layer as u64)));
                }
                members.push(("window".into(), window.to_value()));
                if let Some(p) = predicate {
                    members.push(("filter".into(), p.to_value()));
                }
                members.push(("agg".into(), agg.to_value()));
            }
        }
        Json::Obj(members).to_string()
    }

    /// Parse the wire form produced by [`ApiRequest::to_json`].
    pub fn from_json(text: &str) -> ApiResult<ApiRequest> {
        let v = Json::parse(text)
            .map_err(|e| ApiError::bad_request(format!("malformed request body: {e}")))?;
        let op = need_str(&v, "op")?;
        let dataset = v.get("dataset").and_then(Json::as_str).map(String::from);
        Ok(match op {
            "list_datasets" => ApiRequest::ListDatasets,
            "stats" => ApiRequest::Stats,
            "list_layers" => ApiRequest::ListLayers { dataset },
            "flush" => ApiRequest::Flush { dataset },
            "window" => ApiRequest::Window {
                dataset,
                layer: v.get("layer").and_then(Json::as_usize),
                window: RectDto::from_value(need(&v, "window")?)?,
                session: v.get("session").and_then(Json::as_u64),
                packed: v.get("encoding").and_then(Json::as_str) == Some("packed"),
                predicate: parse_filter(&v)?,
                rid_range: rid_range(
                    v.get("rid_lo").and_then(Json::as_u64),
                    v.get("rid_hi").and_then(Json::as_u64),
                ),
            },
            "search" => ApiRequest::Search {
                dataset,
                layer: need_usize(&v, "layer")?,
                query: need_str(&v, "q")?.to_string(),
                predicate: parse_filter(&v)?,
            },
            "focus" => ApiRequest::Focus {
                dataset,
                layer: need_usize(&v, "layer")?,
                node: need_u64(&v, "node")?,
            },
            "insert_edge" => ApiRequest::InsertEdge {
                dataset,
                layer: need_usize(&v, "layer")?,
                edge: EdgeDto::from_value(need(&v, "edge")?)?,
            },
            "delete_edge" => ApiRequest::DeleteEdge {
                dataset,
                layer: need_usize(&v, "layer")?,
                rid: need_u64(&v, "rid")?,
            },
            "session_new" => ApiRequest::SessionNew {
                dataset,
                window: match v.get("window") {
                    Some(w) => Some(RectDto::from_value(w)?),
                    None => None,
                },
            },
            "session_close" => ApiRequest::SessionClose {
                dataset,
                session: need_u64(&v, "session")?,
            },
            "aggregate" => ApiRequest::Aggregate {
                dataset,
                layer: v.get("layer").and_then(Json::as_usize),
                window: RectDto::from_value(need(&v, "window")?)?,
                predicate: parse_filter(&v)?,
                agg: AggOp::from_value(need(&v, "agg")?)?,
            },
            other => {
                return Err(ApiError::bad_request(format!("unknown op '{other}'")));
            }
        })
    }
}

/// The optional `filter` member of window/search/aggregate requests.
fn parse_filter(v: &Json) -> ApiResult<Option<Predicate>> {
    match v.get("filter") {
        Some(f) => Ok(Some(Predicate::from_value(f)?)),
        None => Ok(None),
    }
}

/// The optional `rid_lo`/`rid_hi` bounds of window requests. Lenient:
/// either bound alone implies the other end of rid space.
fn rid_range(lo: Option<u64>, hi: Option<u64>) -> Option<(u64, u64)> {
    (lo.is_some() || hi.is_some()).then(|| (lo.unwrap_or(0), hi.unwrap_or(u64::MAX)))
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The result of one [`ApiRequest`], tagged by `kind` on the wire.
///
/// The graph payload in [`ApiResponse::Window`] / [`ApiResponse::Focus`]
/// is a **raw JSON string** (`{"nodes":[…],"edges":[…]}`); the serializer
/// splices it into the envelope verbatim, and the parser validates it and
/// hands it through byte for byte, so round-trips are exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ApiResponse {
    /// Answer to [`ApiRequest::ListDatasets`].
    Datasets {
        /// One entry per dataset, name-sorted.
        datasets: Vec<DatasetInfo>,
    },
    /// Answer to [`ApiRequest::ListLayers`].
    Layers {
        /// The resolved dataset.
        dataset: String,
        /// One entry per layer, ascending.
        layers: Vec<LayerInfo>,
    },
    /// Answer to [`ApiRequest::Window`].
    Window {
        /// Response metadata (source, epoch, row counts, session).
        meta: WindowMeta,
        /// The graph payload as raw JSON.
        graph: String,
    },
    /// Answer to [`ApiRequest::Search`].
    Hits {
        /// The matching nodes.
        hits: Vec<SearchHitDto>,
    },
    /// Answer to [`ApiRequest::Focus`].
    Focus {
        /// Number of incident rows in the payload.
        rows: u64,
        /// The neighbourhood graph payload as raw JSON.
        graph: String,
    },
    /// Answer to a mutation; carries the layer's **new epoch** so the
    /// client can observe its own write in subsequent window responses.
    Mutated {
        /// The mutated dataset.
        dataset: String,
        /// The mutated layer.
        layer: usize,
        /// The layer's epoch after the mutation.
        epoch: u64,
        /// The inserted row's id (insertions only).
        rid: Option<u64>,
    },
    /// Answer to [`ApiRequest::SessionNew`].
    Session {
        /// The new session's id.
        id: u64,
    },
    /// Answer to [`ApiRequest::SessionClose`].
    Closed,
    /// Answer to [`ApiRequest::Flush`]: the dataset's dirty state was
    /// checkpointed and fsynced to disk.
    Flushed {
        /// The flushed dataset.
        dataset: String,
        /// Dirty pages written back by the flush.
        pages: u64,
    },
    /// Answer to [`ApiRequest::Aggregate`].
    Aggregate {
        /// The dataset that answered.
        dataset: String,
        /// The layer aggregated.
        layer: usize,
        /// The edit epoch the summary is consistent with.
        epoch: u64,
        /// The computed summary.
        result: AggregateDto,
    },
    /// Answer to [`ApiRequest::Stats`].
    Stats(StatsDto),
    /// Any operation's failure.
    Error(ApiError),
}

impl ApiResponse {
    /// The wire tag of this response.
    pub fn kind(&self) -> &'static str {
        match self {
            ApiResponse::Datasets { .. } => "datasets",
            ApiResponse::Layers { .. } => "layers",
            ApiResponse::Window { .. } => "window",
            ApiResponse::Hits { .. } => "hits",
            ApiResponse::Focus { .. } => "focus",
            ApiResponse::Mutated { .. } => "mutated",
            ApiResponse::Session { .. } => "session",
            ApiResponse::Closed => "closed",
            ApiResponse::Flushed { .. } => "flushed",
            ApiResponse::Aggregate { .. } => "aggregate",
            ApiResponse::Stats(_) => "stats",
            ApiResponse::Error(_) => "error",
        }
    }

    /// Serialize to the wire form `{"kind":…, …}`.
    pub fn to_json(&self) -> String {
        match self {
            // The graph payload is spliced in verbatim — it is already
            // JSON, and copying it through a value tree would defeat the
            // zero-copy envelope the server relies on.
            ApiResponse::Window { meta, graph } => {
                let mut out = String::with_capacity(graph.len() + 256);
                out.push_str("{\"kind\":\"window\",\"window\":");
                meta.to_value().write(&mut out);
                out.push_str(",\"graph\":");
                out.push_str(graph);
                out.push('}');
                out
            }
            ApiResponse::Focus { rows, graph } => {
                let mut out = String::with_capacity(graph.len() + 64);
                out.push_str(&format!("{{\"kind\":\"focus\",\"rows\":{rows},\"graph\":"));
                out.push_str(graph);
                out.push('}');
                out
            }
            other => other.to_value().to_string(),
        }
    }

    fn to_value(&self) -> Json {
        let mut members: Vec<(String, Json)> = vec![("kind".into(), Json::Str(self.kind().into()))];
        match self {
            ApiResponse::Datasets { datasets } => {
                members.push((
                    "datasets".into(),
                    Json::Arr(
                        datasets
                            .iter()
                            .map(|d| {
                                Json::Obj(vec![
                                    ("name".into(), Json::Str(d.name.clone())),
                                    ("layers".into(), Json::uint(d.layers as u64)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            ApiResponse::Layers { dataset, layers } => {
                members.push(("dataset".into(), Json::Str(dataset.clone())));
                members.push((
                    "layers".into(),
                    Json::Arr(
                        layers
                            .iter()
                            .map(|l| {
                                Json::Obj(vec![
                                    ("index".into(), Json::uint(l.index as u64)),
                                    ("rows".into(), Json::uint(l.rows)),
                                    ("epoch".into(), Json::uint(l.epoch)),
                                    ("rid_max".into(), Json::uint(l.rid_max)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            ApiResponse::Window { .. } | ApiResponse::Focus { .. } => {
                unreachable!("payload-carrying variants serialize in to_json")
            }
            ApiResponse::Hits { hits } => {
                members.push((
                    "hits".into(),
                    Json::Arr(
                        hits.iter()
                            .map(|h| {
                                Json::Obj(vec![
                                    ("node".into(), Json::uint(h.node)),
                                    ("label".into(), Json::Str(h.label.clone())),
                                    ("x".into(), Json::Float(h.x)),
                                    ("y".into(), Json::Float(h.y)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            ApiResponse::Mutated {
                dataset,
                layer,
                epoch,
                rid,
            } => {
                members.push(("dataset".into(), Json::Str(dataset.clone())));
                members.push(("layer".into(), Json::uint(*layer as u64)));
                members.push(("epoch".into(), Json::uint(*epoch)));
                if let Some(rid) = rid {
                    members.push(("rid".into(), Json::uint(*rid)));
                }
            }
            ApiResponse::Session { id } => {
                members.push(("session".into(), Json::uint(*id)));
            }
            ApiResponse::Closed => {
                members.push(("closed".into(), Json::Bool(true)));
            }
            ApiResponse::Flushed { dataset, pages } => {
                members.push(("dataset".into(), Json::Str(dataset.clone())));
                members.push(("pages".into(), Json::uint(*pages)));
            }
            ApiResponse::Aggregate {
                dataset,
                layer,
                epoch,
                result,
            } => {
                members.push(("dataset".into(), Json::Str(dataset.clone())));
                members.push(("layer".into(), Json::uint(*layer as u64)));
                members.push(("epoch".into(), Json::uint(*epoch)));
                members.push(("result".into(), result.to_value()));
            }
            ApiResponse::Stats(stats) => {
                members.push(("served".into(), Json::uint(stats.served)));
                members.push(("rejected".into(), Json::uint(stats.rejected)));
                members.push(("workers".into(), Json::uint(stats.workers)));
                members.push(("backlog".into(), Json::uint(stats.backlog)));
                members.push(("active_workers".into(), Json::uint(stats.active_workers)));
                members.push((
                    "open_connections".into(),
                    Json::uint(stats.open_connections),
                ));
                members.push(("cpus".into(), Json::uint(stats.cpus)));
                members.push((
                    "shards_policy".into(),
                    Json::Str(stats.shards_policy.clone()),
                ));
                if let Some(r) = &stats.replication {
                    members.push(("replication".into(), r.to_value()));
                }
                members.push((
                    "datasets".into(),
                    Json::Arr(stats.datasets.iter().map(DatasetStats::to_value).collect()),
                ));
            }
            ApiResponse::Error(e) => {
                members.push(("error".into(), e.to_value()));
            }
        }
        Json::Obj(members)
    }

    /// Parse the wire form produced by [`ApiResponse::to_json`]. The graph
    /// payload of `window` / `focus` responses is validated JSON, handed
    /// through byte for byte without building a tree for it (see
    /// [`Json::parse_keeping`]).
    pub fn from_json(text: &str) -> ApiResult<ApiResponse> {
        let (v, graph) = Json::parse_keeping(text, &["graph"])
            .map_err(|e| ApiError::bad_request(format!("malformed response: {e}")))?;
        let graph = graph.map(|(_, slice)| slice);
        let kind = need_str(&v, "kind")?;
        Ok(match kind {
            "datasets" => ApiResponse::Datasets {
                datasets: need(&v, "datasets")?
                    .as_arr()
                    .ok_or_else(|| ApiError::bad_request("datasets must be an array"))?
                    .iter()
                    .map(|d| {
                        Ok(DatasetInfo {
                            name: need_str(d, "name")?.to_string(),
                            layers: need_usize(d, "layers")?,
                        })
                    })
                    .collect::<ApiResult<_>>()?,
            },
            "layers" => ApiResponse::Layers {
                dataset: need_str(&v, "dataset")?.to_string(),
                layers: need(&v, "layers")?
                    .as_arr()
                    .ok_or_else(|| ApiError::bad_request("layers must be an array"))?
                    .iter()
                    .map(|l| {
                        Ok(LayerInfo {
                            index: need_usize(l, "index")?,
                            rows: need_u64(l, "rows")?,
                            epoch: need_u64(l, "epoch")?,
                            // Lenient: absent on pre-sharding servers.
                            rid_max: l.get("rid_max").and_then(Json::as_u64).unwrap_or(0),
                        })
                    })
                    .collect::<ApiResult<_>>()?,
            },
            "window" => ApiResponse::Window {
                meta: WindowMeta::from_value(need(&v, "window")?)?,
                graph: need_raw(graph, "graph")?.to_string(),
            },
            "hits" => ApiResponse::Hits {
                hits: need(&v, "hits")?
                    .as_arr()
                    .ok_or_else(|| ApiError::bad_request("hits must be an array"))?
                    .iter()
                    .map(|h| {
                        Ok(SearchHitDto {
                            node: need_u64(h, "node")?,
                            label: need_str(h, "label")?.to_string(),
                            x: need_f64(h, "x")?,
                            y: need_f64(h, "y")?,
                        })
                    })
                    .collect::<ApiResult<_>>()?,
            },
            "focus" => ApiResponse::Focus {
                rows: need_u64(&v, "rows")?,
                graph: need_raw(graph, "graph")?.to_string(),
            },
            "mutated" => ApiResponse::Mutated {
                dataset: need_str(&v, "dataset")?.to_string(),
                layer: need_usize(&v, "layer")?,
                epoch: need_u64(&v, "epoch")?,
                rid: v.get("rid").and_then(Json::as_u64),
            },
            "session" => ApiResponse::Session {
                id: need_u64(&v, "session")?,
            },
            "closed" => ApiResponse::Closed,
            "flushed" => ApiResponse::Flushed {
                dataset: need_str(&v, "dataset")?.to_string(),
                pages: need_u64(&v, "pages")?,
            },
            "aggregate" => ApiResponse::Aggregate {
                dataset: need_str(&v, "dataset")?.to_string(),
                layer: need_usize(&v, "layer")?,
                epoch: need_u64(&v, "epoch")?,
                result: AggregateDto::from_value(need(&v, "result")?)?,
            },
            "stats" => ApiResponse::Stats(StatsDto {
                served: need_u64(&v, "served")?,
                rejected: need_u64(&v, "rejected")?,
                workers: need_u64(&v, "workers")?,
                backlog: need_u64(&v, "backlog")?,
                // Lenient: absent in payloads from pre-reactor servers.
                active_workers: v.get("active_workers").and_then(Json::as_u64).unwrap_or(0),
                open_connections: v
                    .get("open_connections")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                cpus: v.get("cpus").and_then(Json::as_u64).unwrap_or(0),
                shards_policy: v
                    .get("shards_policy")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                replication: v.get("replication").map(repl::ReplStatsDto::from_value),
                datasets: need(&v, "datasets")?
                    .as_arr()
                    .ok_or_else(|| ApiError::bad_request("datasets must be an array"))?
                    .iter()
                    .map(DatasetStats::from_value)
                    .collect::<ApiResult<_>>()?,
            }),
            "error" => ApiResponse::Error(ApiError::from_value(need(&v, "error")?)?),
            other => {
                return Err(ApiError::bad_request(format!(
                    "unknown response kind '{other}'"
                )));
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Field-extraction helpers
// ---------------------------------------------------------------------------

pub(crate) fn need<'a>(v: &'a Json, key: &str) -> ApiResult<&'a Json> {
    v.get(key)
        .ok_or_else(|| ApiError::bad_request(format!("missing field '{key}'")))
}

/// A member [`Json::parse_keeping`] validated in place, as its raw text.
pub(crate) fn need_raw<'a>(raw: Option<&'a str>, key: &str) -> ApiResult<&'a str> {
    raw.ok_or_else(|| ApiError::bad_request(format!("missing field '{key}'")))
}

pub(crate) fn need_str<'a>(v: &'a Json, key: &str) -> ApiResult<&'a str> {
    need(v, key)?
        .as_str()
        .ok_or_else(|| ApiError::bad_request(format!("field '{key}' must be a string")))
}

pub(crate) fn need_u64(v: &Json, key: &str) -> ApiResult<u64> {
    need(v, key)?
        .as_u64()
        .ok_or_else(|| ApiError::bad_request(format!("field '{key}' must be an unsigned integer")))
}

pub(crate) fn need_usize(v: &Json, key: &str) -> ApiResult<usize> {
    need(v, key)?
        .as_usize()
        .ok_or_else(|| ApiError::bad_request(format!("field '{key}' must be an unsigned integer")))
}

pub(crate) fn need_f64(v: &Json, key: &str) -> ApiResult<f64> {
    need(v, key)?
        .as_f64()
        .ok_or_else(|| ApiError::bad_request(format!("field '{key}' must be a number")))
}
