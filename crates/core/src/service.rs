//! The typed service layer: every consumer — HTTP routes, CLI
//! subcommands, examples, benches — reaches the engine through one
//! entry point, [`GraphService::call`], instead of poking
//! [`QueryManager`] methods directly.
//!
//! ```text
//!                 ApiRequest (gvdb-api, versioned wire DTOs)
//!                      │
//!              GraphService::call
//!               ┌──────┴────────┐
//!        QueryManager      SharedWorkspace
//!        (one dataset,     (name → Arc<QueryManager>,
//!         "default")        per-dataset sessions/epochs)
//!               └──────┬────────┘
//!                  ApiOutcome ── into_response() ──► ApiResponse
//! ```
//!
//! [`ApiOutcome`] is the *server-side* result: it still holds the
//! `Arc`-shared rows and payload of a [`WindowResponse`], so the HTTP
//! layer can splice the cached payload into its envelope without a copy.
//! [`ApiOutcome::into_response`] flattens it into the pure wire DTO for
//! callers that want the serialized form (the RPC endpoint, the CLI).
//!
//! Both implementations answer session operations from their own
//! [`SessionRegistry`](crate::registry::SessionRegistry) — the
//! single-dataset service through the manager's
//! registry, the workspace through each dataset's — so mutation and
//! session state never leak across datasets.

use crate::filter::FilterMode;
use crate::json::{build_graph_json, GraphFrame};
use crate::query::{QueryManager, SearchHit, StreamPlan, WindowResponse, WindowSpec};
use crate::registry::SessionId;
use crate::workspace::SharedWorkspace;
use gvdb_api::{
    AggregateDto, ApiError, ApiFrame, ApiRequest, ApiResponse, ApiResult, ChooserStatsDto,
    DatasetInfo, DatasetStats, EdgeDto, FrameHeader, LayerInfo, LayerStatsDto, Predicate, RectDto,
    RowBatch, SearchHitDto, SessionStatsDto, Source, StatsDto, TrailerFrame, WindowMeta,
};
use gvdb_spatial::Rect;
use gvdb_storage::{EdgeGeometry, EdgeRow, RowId, StorageError};

/// The dataset name a bare [`QueryManager`] serves under (what the
/// single-database `gvdb serve <db>` form binds).
pub const DEFAULT_DATASET: &str = "default";

/// A window query's server-side result: the raw [`WindowResponse`] (with
/// its `Arc`-shared rows/payload) plus the service-level addressing that
/// produced it.
#[derive(Debug)]
pub struct WindowOutcome {
    /// The dataset that answered.
    pub dataset: String,
    /// The layer queried (after session-default resolution).
    pub layer: usize,
    /// The engine response; `response.json` is shared with the cache.
    pub response: WindowResponse,
    /// The session that anchored the query, if any.
    pub session: Option<SessionId>,
}

impl WindowOutcome {
    /// How the response was produced, as the wire enum.
    pub fn source(&self) -> Source {
        source_of(&self.response)
    }

    /// The response metadata as the wire DTO.
    pub fn meta(&self) -> WindowMeta {
        WindowMeta {
            dataset: self.dataset.clone(),
            layer: self.layer,
            epoch: self.response.epoch,
            source: self.source(),
            rows_reused: self.response.rows_reused,
            rows_fetched: self.response.rows_fetched,
            session: self.session,
        }
    }
}

/// The typed result of one [`GraphService::call`] — the server-side twin
/// of [`ApiResponse`], still holding `Arc`-shared payloads.
#[derive(Debug)]
pub enum ApiOutcome {
    /// Answer to [`ApiRequest::ListDatasets`].
    Datasets(Vec<DatasetInfo>),
    /// Answer to [`ApiRequest::ListLayers`].
    Layers {
        /// The resolved dataset.
        dataset: String,
        /// One entry per layer.
        layers: Vec<LayerInfo>,
    },
    /// Answer to [`ApiRequest::Window`].
    Window(WindowOutcome),
    /// Answer to [`ApiRequest::Search`].
    Hits {
        /// The dataset that answered.
        dataset: String,
        /// The layer searched.
        layer: usize,
        /// The layer's edit epoch at search time.
        epoch: u64,
        /// The matching nodes.
        hits: Vec<SearchHit>,
    },
    /// Answer to [`ApiRequest::Focus`].
    Focus {
        /// The dataset that answered.
        dataset: String,
        /// The layer read.
        layer: usize,
        /// The layer's edit epoch at read time.
        epoch: u64,
        /// The neighbourhood payload.
        json: crate::json::GraphJson,
        /// Incident row count.
        rows: usize,
    },
    /// Answer to a mutation: the layer's new epoch (and the inserted
    /// row's id).
    Mutated {
        /// The mutated dataset.
        dataset: String,
        /// The mutated layer.
        layer: usize,
        /// The layer's epoch after the edit.
        epoch: u64,
        /// The inserted row id (insertions only).
        rid: Option<u64>,
    },
    /// Answer to [`ApiRequest::SessionNew`].
    Session {
        /// The new session's id.
        id: SessionId,
    },
    /// Answer to [`ApiRequest::SessionClose`].
    Closed,
    /// Answer to [`ApiRequest::Flush`]: the dataset was checkpointed to
    /// disk.
    Flushed {
        /// The flushed dataset.
        dataset: String,
        /// Dirty pages written back.
        pages: u64,
    },
    /// Answer to [`ApiRequest::Stats`] (per-dataset; the serving layer
    /// adds its own counters on top).
    Stats(Vec<DatasetStats>),
    /// Answer to [`ApiRequest::Aggregate`]: one reduced summary of the
    /// (optionally filtered) window.
    Aggregate {
        /// The dataset that answered.
        dataset: String,
        /// The layer aggregated.
        layer: usize,
        /// The layer's edit epoch the rows were read at.
        epoch: u64,
        /// The aggregation result.
        result: AggregateDto,
    },
    /// A response produced outside the engine — a replication endpoint's
    /// answer or a router's forwarded reply — already in wire form.
    Raw(ApiResponse),
}

impl ApiOutcome {
    /// Flatten into the pure wire DTO. Graph payloads are copied into the
    /// response string here — the HTTP window path avoids this method and
    /// splices the shared payload directly.
    pub fn into_response(self) -> ApiResponse {
        match self {
            ApiOutcome::Datasets(datasets) => ApiResponse::Datasets { datasets },
            ApiOutcome::Layers { dataset, layers } => ApiResponse::Layers { dataset, layers },
            ApiOutcome::Window(outcome) => {
                let meta = outcome.meta();
                ApiResponse::Window {
                    meta,
                    graph: outcome.response.json.text.clone(),
                }
            }
            ApiOutcome::Hits { hits, .. } => ApiResponse::Hits {
                hits: hits.iter().map(hit_dto).collect(),
            },
            ApiOutcome::Focus { json, rows, .. } => ApiResponse::Focus {
                rows: rows as u64,
                graph: json.text,
            },
            ApiOutcome::Mutated {
                dataset,
                layer,
                epoch,
                rid,
            } => ApiResponse::Mutated {
                dataset,
                layer,
                epoch,
                rid,
            },
            ApiOutcome::Session { id } => ApiResponse::Session { id },
            ApiOutcome::Closed => ApiResponse::Closed,
            ApiOutcome::Flushed { dataset, pages } => ApiResponse::Flushed { dataset, pages },
            ApiOutcome::Aggregate {
                dataset,
                layer,
                epoch,
                result,
            } => ApiResponse::Aggregate {
                dataset,
                layer,
                epoch,
                result,
            },
            ApiOutcome::Stats(datasets) => ApiResponse::Stats(StatsDto {
                served: 0,
                rejected: 0,
                workers: 0,
                backlog: 0,
                active_workers: 0,
                open_connections: 0,
                cpus: 0,
                shards_policy: String::new(),
                datasets,
                replication: None,
            }),
            ApiOutcome::Raw(response) => response,
        }
    }
}

/// Receives the frames of one streamed result, in order (see
/// [`GraphService::call_streamed`]). The HTTP layer implements this over
/// chunked transfer-encoding; [`FrameBuffer`] collects in memory for
/// tests and embedded consumers.
pub trait FrameSink {
    /// Deliver one frame. An `Err` aborts the stream — the canonical
    /// cause is a disconnected client — and implementations of
    /// [`GraphService::call_streamed`] propagate it immediately instead
    /// of producing further frames.
    fn emit(&mut self, frame: &ApiFrame) -> ApiResult<()>;
}

/// A [`FrameSink`] that collects every frame in memory.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    /// The frames emitted so far, in order.
    pub frames: Vec<ApiFrame>,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FrameSink for FrameBuffer {
    fn emit(&mut self, frame: &ApiFrame) -> ApiResult<()> {
        self.frames.push(frame.clone());
        Ok(())
    }
}

/// The typed service every consumer programs against: one method per
/// protocol ([`GraphService::call`]), implemented by [`QueryManager`]
/// (single dataset, named [`DEFAULT_DATASET`]) and [`SharedWorkspace`]
/// (multi-dataset).
pub trait GraphService: Send + Sync {
    /// Execute one typed request.
    fn call(&self, request: &ApiRequest) -> ApiResult<ApiOutcome>;

    /// The dataset names this service can resolve.
    fn dataset_names(&self) -> Vec<String>;

    /// Execute one **streamable** request (`window`, `search`,
    /// `aggregate`, `focus`), delivering the result as a typed frame
    /// sequence (`Header · Rows* · Trailer`, see `gvdb_api::frame`)
    /// instead of one buffered response.
    ///
    /// The engine-backed implementations ([`QueryManager`],
    /// [`SharedWorkspace`]) stream incrementally: row batches go out as
    /// the engine produces them, delta pans emit reused rows before
    /// arrivals, and the trailer re-samples the layer epoch so a racing
    /// edit is visible to the client.
    ///
    /// Errors before the first frame surface as `Err` (the caller still
    /// owns its transport and can send a plain error response); once the
    /// header is out, sink failures propagate as `Err` and the caller
    /// must abandon the transport. Non-streamable operations are a
    /// [`gvdb_api::ErrorKind::BadRequest`], rejected before they run.
    fn call_streamed(&self, request: &ApiRequest, sink: &mut dyn FrameSink) -> ApiResult<()>;
}

impl GraphService for QueryManager {
    fn call(&self, request: &ApiRequest) -> ApiResult<ApiOutcome> {
        match request {
            ApiRequest::ListDatasets => Ok(ApiOutcome::Datasets(vec![DatasetInfo {
                name: DEFAULT_DATASET.into(),
                layers: self.layer_count(),
            }])),
            ApiRequest::Stats => Ok(ApiOutcome::Stats(vec![dataset_stats(
                DEFAULT_DATASET,
                self,
            )])),
            other => {
                self.check_default_dataset(other)?;
                call_dataset(DEFAULT_DATASET, self, other)
            }
        }
    }

    fn dataset_names(&self) -> Vec<String> {
        vec![DEFAULT_DATASET.into()]
    }

    fn call_streamed(&self, request: &ApiRequest, sink: &mut dyn FrameSink) -> ApiResult<()> {
        self.check_default_dataset(request)?;
        stream_dataset(DEFAULT_DATASET, self, request, sink)
    }
}

impl QueryManager {
    /// Reject dataset selectors other than [`DEFAULT_DATASET`] (the only
    /// name a bare manager serves under).
    fn check_default_dataset(&self, request: &ApiRequest) -> ApiResult<()> {
        if let Some(name) = request.dataset() {
            if name != DEFAULT_DATASET {
                return Err(ApiError::not_found(format!(
                    "dataset '{name}' not found (available: {DEFAULT_DATASET})"
                )));
            }
        }
        Ok(())
    }
}

impl GraphService for SharedWorkspace {
    fn call(&self, request: &ApiRequest) -> ApiResult<ApiOutcome> {
        match request {
            ApiRequest::ListDatasets => Ok(ApiOutcome::Datasets(
                self.entries()
                    .into_iter()
                    .map(|(name, qm)| DatasetInfo {
                        name,
                        layers: qm.layer_count(),
                    })
                    .collect(),
            )),
            ApiRequest::Stats => Ok(ApiOutcome::Stats(
                self.entries()
                    .into_iter()
                    .map(|(name, qm)| dataset_stats(&name, &qm))
                    .collect(),
            )),
            other => {
                let (name, qm) = self.resolve(other.dataset())?;
                call_dataset(&name, &qm, other)
            }
        }
    }

    fn dataset_names(&self) -> Vec<String> {
        self.names()
    }

    fn call_streamed(&self, request: &ApiRequest, sink: &mut dyn FrameSink) -> ApiResult<()> {
        let (name, qm) = self.resolve(request.dataset())?;
        stream_dataset(&name, &qm, request, sink)
    }
}

/// Execute a dataset-addressed request against one resolved manager. The
/// shared core of both [`GraphService`] implementations.
fn call_dataset(name: &str, qm: &QueryManager, request: &ApiRequest) -> ApiResult<ApiOutcome> {
    match request {
        ApiRequest::ListDatasets | ApiRequest::Stats => {
            unreachable!("service-level requests are handled by the impls")
        }
        ApiRequest::ListLayers { .. } => Ok(ApiOutcome::Layers {
            dataset: name.to_string(),
            layers: layer_infos(qm),
        }),
        ApiRequest::Window { .. } => {
            let (target, plan) = plan_window(qm, request)?;
            Ok(ApiOutcome::Window(WindowOutcome {
                dataset: name.to_string(),
                layer: target.layer,
                response: plan.drain().map_err(storage_error)?,
                session: target.session,
            }))
        }
        ApiRequest::Search {
            layer,
            query,
            predicate,
            ..
        } => Ok(ApiOutcome::Hits {
            dataset: name.to_string(),
            layer: *layer,
            epoch: qm.layer_epoch(*layer),
            hits: search_op(qm, *layer, query, predicate.as_ref())?,
        }),
        ApiRequest::Aggregate {
            layer,
            window,
            predicate,
            agg,
            ..
        } => {
            let layer = layer.unwrap_or(0);
            let (result, epoch) = qm
                .aggregate_window(
                    layer,
                    &to_rect(window)?,
                    predicate.as_ref(),
                    agg,
                    FilterMode::Auto,
                )
                .map_err(storage_error)?;
            Ok(ApiOutcome::Aggregate {
                dataset: name.to_string(),
                layer,
                epoch,
                result,
            })
        }
        ApiRequest::Focus { layer, node, .. } => {
            let rows = qm.focus_on_node(*layer, *node).map_err(storage_error)?;
            Ok(ApiOutcome::Focus {
                dataset: name.to_string(),
                layer: *layer,
                epoch: qm.layer_epoch(*layer),
                json: build_graph_json(&rows),
                rows: rows.len(),
            })
        }
        ApiRequest::Flush { .. } => Ok(ApiOutcome::Flushed {
            dataset: name.to_string(),
            pages: qm.flush().map_err(storage_error)? as u64,
        }),
        ApiRequest::InsertEdge { layer, edge, .. } => {
            let rid = qm
                .insert_row(*layer, &edge_row(edge)?)
                .map_err(storage_error)?;
            Ok(ApiOutcome::Mutated {
                dataset: name.to_string(),
                layer: *layer,
                epoch: qm.layer_epoch(*layer),
                rid: Some(rid.to_u64()),
            })
        }
        ApiRequest::DeleteEdge { layer, rid, .. } => {
            qm.delete_row(*layer, RowId::from_u64(*rid))
                .map_err(storage_error)?;
            Ok(ApiOutcome::Mutated {
                dataset: name.to_string(),
                layer: *layer,
                epoch: qm.layer_epoch(*layer),
                rid: None,
            })
        }
        ApiRequest::SessionNew { window, .. } => {
            let window = match window {
                Some(w) => to_rect(w)?,
                None => Rect::new(0.0, 0.0, 1000.0, 1000.0),
            };
            Ok(ApiOutcome::Session {
                id: qm.sessions().create(window),
            })
        }
        ApiRequest::SessionClose { session, .. } => {
            if qm.sessions().remove(*session) {
                Ok(ApiOutcome::Closed)
            } else {
                Err(unknown_session(*session))
            }
        }
    }
}

/// Where a planned window's answer is addressed: the resolved layer and
/// the session that anchored it.
struct WindowTarget {
    layer: usize,
    session: Option<SessionId>,
}

/// Resolve a `Window` request to its target and plan — the one front end
/// of the buffered path ([`call_dataset`] drains the plan) and the
/// streamed one ([`stream_dataset`] emits it). A session request holds
/// the per-session lock only to navigate (layer, window, anchor): one
/// client's requests are ordered, different clients run concurrently,
/// and a slow reader never pins its session. The exception is a session
/// with display filters and no request predicate, whose bespoke payload
/// [`crate::Session::view`] builds under the lock and returns built.
fn plan_window<'q>(
    qm: &'q QueryManager,
    request: &ApiRequest,
) -> ApiResult<(WindowTarget, StreamPlan<'q>)> {
    let ApiRequest::Window {
        layer,
        window,
        session,
        predicate,
        rid_range,
        ..
    } = request
    else {
        unreachable!("plan_window resolves window requests only")
    };
    let mut spec = WindowSpec::new(layer.unwrap_or(0), to_rect(window)?);
    spec.predicate = predicate.as_ref();
    spec.rid_range = *rid_range;
    if rid_range.is_some() {
        check_range_combines(*session, spec.predicate)?;
    }
    let mut target = WindowTarget {
        layer: spec.layer,
        session: *session,
    };
    if let Some(sid) = *session {
        let handle = qm.sessions().get(sid).ok_or_else(|| unknown_session(sid))?;
        let mut session = handle.lock();
        // A request that omits `layer` stays on the session's current
        // layer (keeping its delta anchor) instead of snapping to 0.
        spec.layer = layer.unwrap_or_else(|| session.layer());
        target.layer = spec.layer;
        session.set_layer(qm, spec.layer).map_err(storage_error)?;
        session.navigate(spec.rect);
        if spec.predicate.is_none() && session.has_filters() {
            let response = session.view(qm).map_err(storage_error)?;
            return Ok((target, StreamPlan::Built(response)));
        }
        // A request predicate bypasses the display filters (the request
        // states its own filter) but still anchors on the last window.
        spec.anchor = session.anchor();
    }
    let plan = qm.window_plan(&spec).map_err(storage_error)?;
    Ok((target, plan))
}

/// A rid-range restriction composes with neither sessions (delta
/// anchors assume whole-window results) nor predicates (the router owns
/// no filter state) — shards answer plain range-restricted windows and
/// the router does the rest. Reject the combinations loudly instead of
/// silently dropping a clause.
fn check_range_combines(
    session: Option<SessionId>,
    predicate: Option<&Predicate>,
) -> ApiResult<()> {
    if session.is_some() {
        return Err(ApiError::bad_request(
            "rid_lo/rid_hi do not combine with a session",
        ));
    }
    if predicate.is_some() {
        return Err(ApiError::bad_request(
            "rid_lo/rid_hi do not combine with a predicate",
        ));
    }
    Ok(())
}

/// The search operation with predicate validation: edge-label operators
/// have no meaning against a node hit and are rejected, everything else
/// filters the hit list per node.
fn search_op(
    qm: &QueryManager,
    layer: usize,
    query: &str,
    predicate: Option<&Predicate>,
) -> ApiResult<Vec<SearchHit>> {
    if let Some(p) = predicate {
        if p.references_edge_labels() {
            return Err(ApiError::bad_request(
                "edge_label predicates do not apply to node search",
            ));
        }
    }
    qm.keyword_search_filtered(layer, query, predicate)
        .map_err(storage_error)
}

// ---------------------------------------------------------------------------
// The streaming result path
// ---------------------------------------------------------------------------

/// A [`SearchHit`] as the wire DTO.
fn hit_dto(h: &SearchHit) -> SearchHitDto {
    SearchHitDto {
        node: h.node_id,
        label: h.label.to_string(),
        x: h.position.x,
        y: h.position.y,
    }
}

/// The incremental streaming path of one resolved dataset. A window is
/// planned and emitted chunk by chunk ([`emit_window`]); a search,
/// aggregate or focus is computed first — so its errors surface before
/// any frame — and its outcome emitted ([`emit_outcome`]). Every other op
/// is rejected before it runs.
fn stream_dataset(
    name: &str,
    qm: &QueryManager,
    request: &ApiRequest,
    sink: &mut dyn FrameSink,
) -> ApiResult<()> {
    match request {
        ApiRequest::Window { packed, .. } => {
            let (target, plan) = plan_window(qm, request)?;
            emit_window(name, qm, target, plan, *packed, sink)
        }
        ApiRequest::Search { .. } | ApiRequest::Aggregate { .. } | ApiRequest::Focus { .. } => {
            emit_outcome(qm, call_dataset(name, qm, request)?, sink)
        }
        other => Err(ApiError::bad_request(format!(
            "op '{}' is not streamable; use the buffered call",
            other.op()
        ))),
    }
}

/// Stream a computed search, aggregate or focus outcome: hits in
/// [`crate::ClientModel::chunk_rows`]-sized `Rows` frames, an aggregate
/// as one `Summary`, a focus neighbourhood as one `Graph` frame. The
/// header carries the row count; the trailer re-samples the layer epoch:
/// newer than the header's iff an edit raced the request.
fn emit_outcome(qm: &QueryManager, outcome: ApiOutcome, sink: &mut dyn FrameSink) -> ApiResult<()> {
    let header = |op: &str, dataset: String, layer: usize, epoch: u64, rows_total: u64| {
        ApiFrame::Header(FrameHeader {
            op: op.into(),
            dataset,
            layer,
            epoch,
            source: None,
            session: None,
            rows_total,
        })
    };
    let (layer, rows, frames) = match outcome {
        ApiOutcome::Hits {
            dataset,
            layer,
            epoch,
            hits,
        } => {
            let rows = hits.len() as u64;
            sink.emit(&header("search", dataset, layer, epoch, rows))?;
            let mut frames = 0;
            for batch in hits.chunks(qm.client_model().chunk_rows.max(1)) {
                let hits = batch.iter().map(hit_dto).collect();
                sink.emit(&ApiFrame::Rows(RowBatch::Hits { hits }))?;
                frames += 1;
            }
            (layer, rows, frames)
        }
        ApiOutcome::Aggregate {
            dataset,
            layer,
            epoch,
            result,
        } => {
            let rows = result.rows;
            sink.emit(&header("aggregate", dataset, layer, epoch, rows))?;
            sink.emit(&ApiFrame::Summary(result))?;
            (layer, rows, 1)
        }
        ApiOutcome::Focus {
            dataset,
            layer,
            epoch,
            json,
            rows,
        } => {
            sink.emit(&header("focus", dataset, layer, epoch, rows as u64))?;
            if rows > 0 {
                sink.emit(&ApiFrame::Rows(RowBatch::Graph {
                    graph: json.text,
                    nodes: json.node_count as u64,
                    edges: json.edge_count as u64,
                    reused: false,
                }))?;
            }
            (layer, rows as u64, u64::from(rows > 0))
        }
        _ => unreachable!("only search, aggregate and focus outcomes are emitted"),
    };
    sink.emit(&ApiFrame::Trailer(TrailerFrame {
        epoch: qm.layer_epoch(layer),
        source: None,
        rows,
        rows_reused: 0,
        rows_fetched: rows,
        frames,
    }))
}

/// Stream one planned window. A [`StreamPlan::Built`] payload (exact hit,
/// delta splice or filtered view) is **sliced**: every `Rows` frame is a
/// contiguous span-index run of the payload (two `memcpy`s — see
/// [`GraphJson::frame_slices`](crate::GraphJson::frame_slices)), in
/// payload order; on a delta response each frame's `reused` flag reports
/// whether its edge range is pure kept region (no arrival in it), so a
/// panning client repaints kept frames without waiting. A
/// [`StreamPlan::Cold`] plan runs the **incremental cold path**: each
/// chunk is heap-fetched under a short re-validated read guard and its
/// frame is handed to the sink before the next chunk's pages pin. With
/// `packed`, every frame of either path — spliced delta windows included
/// — goes out as the packed image of the same node and edge runs.
/// Either way no frame is re-serialized and no lock is held across
/// `sink.emit`; the trailer **re-samples the layer epoch**, so an edit
/// racing the emission shows as a trailer epoch newer than the header's.
fn emit_window(
    name: &str,
    qm: &QueryManager,
    target: WindowTarget,
    mut plan: StreamPlan<'_>,
    packed: bool,
    sink: &mut dyn FrameSink,
) -> ApiResult<()> {
    let chunk = qm.client_model().chunk_rows.max(1);
    // A cold window's total is its candidate count: the row count of an
    // unfiltered window, an upper bound under a predicate.
    let (epoch, source, rows_total) = match &mut plan {
        StreamPlan::Built(response) => (response.epoch, source_of(response), response.rows.len()),
        StreamPlan::Cold(cold) => {
            cold.unpin();
            (cold.epoch(), Source::Cold, cold.candidate_rows())
        }
    };
    sink.emit(&ApiFrame::Header(FrameHeader {
        op: "window".into(),
        dataset: name.to_string(),
        layer: target.layer,
        epoch,
        source: Some(source),
        session: target.session,
        rows_total: rows_total as u64,
    }))?;
    let mut frames = 0;
    let mut send = |frame: GraphFrame, reused: bool| {
        frames += 1;
        sink.emit(&ApiFrame::Rows(frame.into_batch(reused)))
    };
    let (rows, rows_reused, rows_fetched) = match plan {
        StreamPlan::Built(resp) => {
            // Ascending arrival ids against ascending frame ranges: one
            // monotone pointer classifies every frame.
            let mut ai = 0usize;
            for frame in resp.json.frame_slices(&resp.rows, chunk, packed) {
                let (start, end) = frame.edge_range;
                let reused = if resp.cache_hit {
                    true
                } else if resp.delta {
                    let lo = resp.rows[start].0;
                    let hi = resp.rows[end - 1].0;
                    while ai < resp.arrival_rids.len() && resp.arrival_rids[ai] < lo {
                        ai += 1;
                    }
                    !(ai < resp.arrival_rids.len() && resp.arrival_rids[ai] <= hi)
                } else {
                    false
                };
                send(frame, reused)?;
            }
            (resp.rows.len(), resp.rows_reused, resp.rows_fetched)
        }
        StreamPlan::Cold(mut cold) => {
            while let Some(frame) = cold.next_chunk(chunk, packed).map_err(storage_error)? {
                send(frame, false)?;
            }
            let summary = cold.finish();
            (summary.rows, 0, summary.rows_fetched)
        }
    };
    sink.emit(&ApiFrame::Trailer(TrailerFrame {
        epoch: qm.layer_epoch(target.layer),
        source: Some(source),
        rows: rows as u64,
        rows_reused: rows_reused as u64,
        rows_fetched: rows_fetched as u64,
        frames,
    }))
}

/// How a window response was produced, as the wire enum.
fn source_of(response: &WindowResponse) -> Source {
    if response.cache_hit {
        Source::Hit
    } else if response.delta {
        Source::Delta
    } else {
        Source::Cold
    }
}

/// Per-layer inventory of one manager. `rid_max` is computed under the
/// same read guard as the row count (a whole-plane R-tree descent), so a
/// shard-map builder sees a consistent inventory.
fn layer_infos(qm: &QueryManager) -> Vec<LayerInfo> {
    let db = qm.db();
    let everything = Rect::new(f64::MIN, f64::MIN, f64::MAX, f64::MAX);
    (0..db.layer_count())
        .map(|i| LayerInfo {
            index: i,
            rows: db.layer(i).map(|l| l.row_count()).unwrap_or(0),
            epoch: qm.layer_epoch(i),
            rid_max: db
                .layer(i)
                .and_then(|l| l.window_rids(db.pool(), &everything).ok())
                .and_then(|rids| rids.iter().map(|r| r.to_u64()).max())
                .unwrap_or(0),
        })
        .collect()
}

/// Full serving statistics of one dataset, as the wire DTO.
pub fn dataset_stats(name: &str, qm: &QueryManager) -> DatasetStats {
    let cache = qm.cache_stats();
    let pool = qm.pool_stats();
    let sessions = qm.sessions().stats();
    DatasetStats {
        name: name.to_string(),
        epochs: (0..qm.layer_count()).map(|l| qm.layer_epoch(l)).collect(),
        cache: gvdb_api::CacheStatsDto {
            hits: cache.hits,
            partial_hits: cache.partial_hits,
            misses: cache.misses,
            entries: cache.entries as u64,
            bytes: cache.bytes as u64,
            shards: qm
                .cache_shard_stats()
                .iter()
                .map(|s| (s.entries as u64, s.bytes as u64))
                .collect(),
        },
        pool: gvdb_api::PoolStatsDto {
            hits: pool.hits,
            misses: pool.misses,
            evictions: pool.evictions,
            logical_bytes: pool.logical_bytes,
            physical_bytes: pool.physical_bytes,
            shards: qm
                .pool_shard_stats()
                .iter()
                .map(|s| {
                    (
                        s.hits,
                        s.misses,
                        s.evictions,
                        s.logical_bytes,
                        s.physical_bytes,
                    )
                })
                .collect(),
        },
        sessions: SessionStatsDto {
            live: sessions.live as u64,
            created: sessions.created,
            evictions: sessions.evictions,
            expired: sessions.expired,
        },
        layers: {
            let db = qm.db();
            (0..db.layer_count())
                .map(|i| LayerStatsDto {
                    index: i as u64,
                    rows: db.layer(i).map(|l| l.row_count()).unwrap_or(0),
                    sidecar_nodes: db
                        .layer(i)
                        .and_then(|l| l.sidecar())
                        .map(|s| s.len() as u64)
                        .unwrap_or(0),
                })
                .collect()
        },
        chooser: {
            let (index, scan) = qm.chooser_counts();
            ChooserStatsDto { index, scan }
        },
    }
}

/// Map a storage failure onto the typed protocol error.
pub fn storage_error(e: StorageError) -> ApiError {
    match e {
        StorageError::LayerNotFound(_) | StorageError::RowNotFound => {
            ApiError::not_found(e.to_string())
        }
        StorageError::LayerExists(_) => ApiError::conflict(e.to_string()),
        StorageError::InvalidRow(_) => ApiError::bad_request(e.to_string()),
        StorageError::RecordTooLarge(_) => {
            ApiError::new(gvdb_api::ErrorKind::TooLarge, e.to_string())
        }
        other => ApiError::internal(other.to_string()),
    }
}

/// The mutation DTO as an engine row. Endpoints must be finite: an
/// infinite or NaN coordinate would be stored and served on every window
/// over the row, so it is a [`gvdb_api::ErrorKind::BadRequest`] before
/// any write.
pub fn edge_row(edge: &EdgeDto) -> ApiResult<EdgeRow> {
    if ![edge.x1, edge.y1, edge.x2, edge.y2]
        .iter()
        .all(|c| c.is_finite())
    {
        return Err(ApiError::bad_request(
            "edge endpoints x1, y1, x2, y2 must be finite numbers",
        ));
    }
    Ok(EdgeRow {
        node1_id: edge.node1_id,
        node1_label: edge.node1_label.as_str().into(),
        geometry: EdgeGeometry {
            x1: edge.x1,
            y1: edge.y1,
            x2: edge.x2,
            y2: edge.y2,
            directed: edge.directed,
        },
        edge_label: edge.edge_label.as_str().into(),
        node2_id: edge.node2_id,
        node2_label: edge.node2_label.as_str().into(),
    })
}

/// A viewport DTO as an ordered [`Rect`]; inverted rectangles are a
/// [`gvdb_api::ErrorKind::BadRequest`] for every consumer at once.
pub fn to_rect(w: &RectDto) -> ApiResult<Rect> {
    if !w.is_ordered() {
        return Err(ApiError::bad_request(
            "window must satisfy min_x <= max_x and min_y <= max_y",
        ));
    }
    Ok(Rect::new(w.min_x, w.min_y, w.max_x, w.max_y))
}

fn unknown_session(sid: SessionId) -> ApiError {
    ApiError::not_found(format!("unknown session {sid}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{preprocess, PreprocessConfig};
    use gvdb_api::ErrorKind;
    use gvdb_graph::generators::{patent_like, wikidata_like, CitationConfig, RdfConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gvdb-svc-{name}-{}", std::process::id()));
        p
    }

    fn manager(name: &str) -> (QueryManager, std::path::PathBuf) {
        let g = wikidata_like(RdfConfig {
            entities: 250,
            ..Default::default()
        });
        let path = tmp(name);
        let (db, _) = preprocess(
            &g,
            &path,
            &PreprocessConfig {
                k: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        (QueryManager::new(db), path)
    }

    fn window_req(session: Option<u64>) -> ApiRequest {
        ApiRequest::Window {
            predicate: None,
            dataset: None,
            layer: Some(0),
            window: RectDto {
                min_x: 0.0,
                min_y: 0.0,
                max_x: 2000.0,
                max_y: 2000.0,
            },
            session,
            packed: false,
            rid_range: None,
        }
    }

    #[test]
    fn query_manager_serves_the_default_dataset() {
        let (qm, path) = manager("single");
        let ApiOutcome::Datasets(datasets) = qm.call(&ApiRequest::ListDatasets).unwrap() else {
            panic!("wrong outcome")
        };
        assert_eq!(datasets.len(), 1);
        assert_eq!(datasets[0].name, DEFAULT_DATASET);
        assert_eq!(datasets[0].layers, qm.layer_count());

        // Addressing it as "default" works; any other name is NotFound.
        assert!(qm
            .call(&ApiRequest::ListLayers {
                dataset: Some("default".into())
            })
            .is_ok());
        let err = qm
            .call(&ApiRequest::ListLayers {
                dataset: Some("acm".into()),
            })
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::NotFound);
        assert!(err.message.contains("default"), "{}", err.message);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn window_flow_through_the_trait() {
        let (qm, path) = manager("winflow");
        let svc: &dyn GraphService = &qm;
        let ApiOutcome::Window(first) = svc.call(&window_req(None)).unwrap() else {
            panic!("wrong outcome")
        };
        assert_eq!(first.source(), Source::Cold);
        assert!(!first.response.rows.is_empty());
        // Same window again: exact cache hit through the same entry point.
        let ApiOutcome::Window(second) = svc.call(&window_req(None)).unwrap() else {
            panic!("wrong outcome")
        };
        assert_eq!(second.source(), Source::Hit);
        assert_eq!(second.response.rows, first.response.rows);

        // The wire DTO carries the meta and the payload.
        let resp = ApiOutcome::Window(second).into_response();
        let ApiResponse::Window { meta, graph } = &resp else {
            panic!("wrong response")
        };
        assert_eq!(meta.source, Source::Hit);
        assert_eq!(graph, &first.response.json.text);

        // Rid-range slices of the same window (the router's fan-out
        // primitive): buffered == reassembled streamed == the cold window
        // restricted to [lo, hi], adjacent ranges concatenate to the whole
        // window, and the cache neither serves nor stores a slice.
        let range_req = |lo: u64, hi: u64| {
            let mut req = window_req(None);
            if let ApiRequest::Window { rid_range, .. } = &mut req {
                *rid_range = Some((lo, hi));
            }
            req
        };
        let whole = &first.response.rows;
        let mid = whole[whole.len() / 2].0.to_u64();
        let cache_before = qm.cache_stats();
        let mut concatenated = Vec::new();
        for (lo, hi) in [(0, mid), (mid + 1, u64::MAX)] {
            let expected: Vec<(RowId, EdgeRow)> = whole
                .iter()
                .filter(|(rid, _)| (lo..=hi).contains(&rid.to_u64()))
                .cloned()
                .collect();
            assert!(!expected.is_empty());
            let ApiOutcome::Window(buffered) = svc.call(&range_req(lo, hi)).unwrap() else {
                panic!("wrong outcome")
            };
            assert_eq!(buffered.source(), Source::Cold);
            assert_eq!(*buffered.response.rows, expected);
            assert_eq!(
                buffered.response.json.text,
                build_graph_json(&expected).text
            );
            let mut sink = crate::FrameBuffer::new();
            svc.call_streamed(&range_req(lo, hi), &mut sink).unwrap();
            let (fragments, _) = decode_rows_frames(&sink);
            let streamed =
                gvdb_api::reassemble_graph(fragments.iter().map(String::as_str)).unwrap();
            assert_eq!(streamed, buffered.response.json.text);
            concatenated.extend(expected);
        }
        assert_eq!(&concatenated, &**whole);
        let cache_after = qm.cache_stats();
        assert_eq!(cache_after.hits, cache_before.hits);
        assert_eq!(cache_after.entries, cache_before.entries);
        // The whole window's entry survives the slices untouched.
        let ApiOutcome::Window(again) = svc.call(&window_req(None)).unwrap() else {
            panic!("wrong outcome")
        };
        assert_eq!(again.source(), Source::Hit);
        assert_eq!(again.response.rows, first.response.rows);

        // A rid range combines with neither a session nor a predicate.
        let mut with_session = range_req(0, mid);
        let mut with_predicate = range_req(0, mid);
        if let ApiRequest::Window { session, .. } = &mut with_session {
            *session = Some(1);
        }
        if let ApiRequest::Window { predicate, .. } = &mut with_predicate {
            *predicate = Some(Predicate::NodeLabelEq("Q1".into()));
        }
        for req in [with_session, with_predicate] {
            assert_eq!(svc.call(&req).unwrap_err().kind, ErrorKind::BadRequest);
            let mut sink = crate::FrameBuffer::new();
            let err = svc.call_streamed(&req, &mut sink).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest);
            assert!(sink.frames.is_empty(), "rejected before the header");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn session_anchored_pans_ride_delta() {
        let (qm, path) = manager("svcsession");
        let svc: &dyn GraphService = &qm;
        let ApiOutcome::Session { id } = svc
            .call(&ApiRequest::SessionNew {
                dataset: None,
                window: None,
            })
            .unwrap()
        else {
            panic!("wrong outcome")
        };
        let ApiOutcome::Window(first) = svc.call(&window_req(Some(id))).unwrap() else {
            panic!("wrong outcome")
        };
        assert_eq!(first.source(), Source::Cold);
        // 85%-overlap pan: must be incremental.
        let pan = ApiRequest::Window {
            predicate: None,
            dataset: None,
            layer: None,
            window: RectDto {
                min_x: 300.0,
                min_y: 0.0,
                max_x: 2300.0,
                max_y: 2000.0,
            },
            session: Some(id),
            packed: false,
            rid_range: None,
        };
        let ApiOutcome::Window(second) = svc.call(&pan).unwrap() else {
            panic!("wrong outcome")
        };
        assert_eq!(second.source(), Source::Delta);
        assert!(second.response.rows_reused > 0);

        // Close, then the id stops resolving.
        assert!(matches!(
            svc.call(&ApiRequest::SessionClose {
                dataset: None,
                session: id
            }),
            Ok(ApiOutcome::Closed)
        ));
        let err = svc.call(&window_req(Some(id))).unwrap_err();
        assert_eq!(err.kind, ErrorKind::NotFound);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mutations_carry_the_new_epoch() {
        let (qm, path) = manager("svcmut");
        let edge = EdgeDto {
            node1_id: 990_001,
            node1_label: "svc A".into(),
            node2_id: 990_002,
            node2_label: "svc B".into(),
            edge_label: "svc-edit".into(),
            x1: 5.0,
            y1: 5.0,
            x2: 25.0,
            y2: 25.0,
            directed: false,
        };
        let ApiOutcome::Mutated {
            epoch, rid, layer, ..
        } = qm
            .call(&ApiRequest::InsertEdge {
                dataset: None,
                layer: 0,
                edge,
            })
            .unwrap()
        else {
            panic!("wrong outcome")
        };
        assert_eq!(layer, 0);
        assert_eq!(epoch, 1, "insert bumps the layer epoch");
        let rid = rid.expect("insert returns the row id");

        // The write is observable through the same service.
        let ApiOutcome::Window(view) = qm.call(&window_req(None)).unwrap() else {
            panic!("wrong outcome")
        };
        assert_eq!(view.response.epoch, 1);
        assert!(view
            .response
            .rows
            .iter()
            .any(|(_, r)| &*r.edge_label == "svc-edit"));

        // Delete through the protocol, epoch bumps again.
        let ApiOutcome::Mutated {
            epoch, rid: none, ..
        } = qm
            .call(&ApiRequest::DeleteEdge {
                dataset: None,
                layer: 0,
                rid,
            })
            .unwrap()
        else {
            panic!("wrong outcome")
        };
        assert_eq!(epoch, 2);
        assert!(none.is_none());

        // Deleting a missing row is NotFound, not a panic.
        let err = qm
            .call(&ApiRequest::DeleteEdge {
                dataset: None,
                layer: 0,
                rid,
            })
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::NotFound);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_edge_is_bad_request_and_writes_nothing() {
        let (qm, path) = manager("svcnonfinite");
        let rows = || qm.db().layer(0).unwrap().row_count();
        let before = rows();
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            for field in 0..4 {
                let mut xy = [1.0, 2.0, 3.0, 4.0];
                xy[field] = bad;
                let err = qm
                    .call(&ApiRequest::InsertEdge {
                        dataset: None,
                        layer: 0,
                        edge: EdgeDto {
                            node1_id: 999_998,
                            node1_label: "a".into(),
                            node2_id: 999_999,
                            node2_label: "b".into(),
                            edge_label: "bad".into(),
                            x1: xy[0],
                            y1: xy[1],
                            x2: xy[2],
                            y2: xy[3],
                            directed: false,
                        },
                    })
                    .unwrap_err();
                assert_eq!(err.kind, ErrorKind::BadRequest, "{bad} in field {field}");
            }
        }
        assert_eq!(rows(), before, "no row written");
        assert_eq!(qm.layer_epoch(0), 0, "epoch unchanged");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_window_is_bad_request() {
        let (qm, path) = manager("svcbadrect");
        let err = qm
            .call(&ApiRequest::Window {
                predicate: None,
                dataset: None,
                layer: Some(0),
                window: RectDto {
                    min_x: 5.0,
                    min_y: 0.0,
                    max_x: 1.0,
                    max_y: 1.0,
                },
                session: None,
                packed: false,
                rid_range: None,
            })
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        // A missing layer is NotFound.
        let err = qm
            .call(&ApiRequest::Search {
                predicate: None,
                dataset: None,
                layer: 99,
                query: "x".into(),
            })
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::NotFound);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_window_chunks_rows_and_reports_in_the_trailer() {
        let (qm, path) = manager("stream-chunks");
        let chunk = qm.client_model().chunk_rows;
        let everything = ApiRequest::Window {
            predicate: None,
            dataset: None,
            layer: Some(0),
            window: RectDto {
                min_x: -1e9,
                min_y: -1e9,
                max_x: 1e9,
                max_y: 1e9,
            },
            session: None,
            packed: false,
            rid_range: None,
        };
        let mut sink = crate::FrameBuffer::new();
        qm.call_streamed(&everything, &mut sink).unwrap();

        let gvdb_api::ApiFrame::Header(header) = &sink.frames[0] else {
            panic!("first frame is the header")
        };
        assert_eq!(header.op, "window");
        assert_eq!(header.dataset, DEFAULT_DATASET);
        assert_eq!(header.source, Some(Source::Cold));
        let gvdb_api::ApiFrame::Trailer(trailer) = sink.frames.last().unwrap() else {
            panic!("last frame is the trailer")
        };
        let mut rows = 0u64;
        let mut batches = 0u64;
        for frame in &sink.frames {
            if let gvdb_api::ApiFrame::Rows(batch) = frame {
                assert!(batch.len() <= chunk, "batches respect chunk_rows");
                rows += batch.len() as u64;
                batches += 1;
            }
        }
        assert_eq!(trailer.rows, rows);
        assert_eq!(trailer.frames, batches);
        assert!(rows > 0);
        // The streamed rows equal the buffered response's.
        let ApiOutcome::Window(buffered) = qm.call(&everything).unwrap() else {
            panic!("wrong outcome")
        };
        assert_eq!(buffered.response.rows.len() as u64, rows);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn window_smaller_than_one_chunk_streams_a_single_frame() {
        // A chunk wider than the whole plane: the stream degenerates to
        // Header, one Rows frame carrying everything, Trailer.
        let g = wikidata_like(RdfConfig {
            entities: 250,
            ..Default::default()
        });
        let path = tmp("stream-tiny");
        let (db, _) = preprocess(
            &g,
            &path,
            &PreprocessConfig {
                k: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        let model = crate::ClientModel {
            chunk_rows: 1_000_000,
            ..Default::default()
        };
        let qm = QueryManager::with_client(db, model);
        let mut sink = crate::FrameBuffer::new();
        qm.call_streamed(&window_req(None), &mut sink).unwrap();
        assert_eq!(sink.frames.len(), 3, "header + one rows frame + trailer");
        assert!(matches!(sink.frames[0], gvdb_api::ApiFrame::Header(_)));
        let gvdb_api::ApiFrame::Rows(batch) = &sink.frames[1] else {
            panic!("middle frame carries the rows")
        };
        let gvdb_api::ApiFrame::Trailer(trailer) = &sink.frames[2] else {
            panic!("last frame is the trailer")
        };
        assert_eq!(trailer.frames, 1);
        assert_eq!(trailer.rows, batch.len() as u64);
        assert!(trailer.rows > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_delta_pan_reassembles_to_the_buffered_payload() {
        // A small chunk so the pan's delta spans several frames: with the
        // default 128 the whole result fits in one frame and the per-frame
        // `reused` tagging has nothing to distinguish.
        let g = wikidata_like(RdfConfig {
            entities: 250,
            ..Default::default()
        });
        let path = tmp("stream-delta");
        let (db, _) = preprocess(
            &g,
            &path,
            &PreprocessConfig {
                k: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        let model = crate::ClientModel {
            chunk_rows: 8,
            ..Default::default()
        };
        let qm = QueryManager::with_client(db, model);
        // Anchor on the left 60% of the data extent, then pan right so the
        // window keeps most of the anchor but picks up a fresh strip —
        // guaranteeing the delta path sees both reused rows and arrivals
        // regardless of how the layout spread this particular graph.
        let everything = qm
            .window_query(0, &Rect::new(-1e9, -1e9, 1e9, 1e9))
            .unwrap();
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        for (_, row) in everything.rows.iter() {
            min_x = min_x.min(row.geometry.x1).min(row.geometry.x2);
            max_x = max_x.max(row.geometry.x1).max(row.geometry.x2);
        }
        let w = max_x - min_x;
        // Drop the whole-plane probe from the cache (an edit invalidates
        // the layer) so the pan deltas against the anchor below, not the
        // probe.
        let dummy = everything.rows[0].1.clone();
        let rid = qm.insert_row(0, &dummy).unwrap();
        qm.delete_row(0, rid).unwrap();
        let rect = |lo: f64, hi: f64| RectDto {
            min_x: min_x + lo * w,
            min_y: -1e9,
            max_x: min_x + hi * w,
            max_y: 1e9,
        };
        qm.call(&ApiRequest::Window {
            predicate: None,
            dataset: None,
            layer: Some(0),
            window: rect(0.0, 0.6),
            session: None,
            packed: false,
            rid_range: None,
        })
        .unwrap(); // anchor the cache
        let pan = ApiRequest::Window {
            predicate: None,
            dataset: None,
            layer: Some(0),
            window: rect(0.15, 0.75),
            session: None,
            packed: false,
            rid_range: None,
        };
        let mut sink = crate::FrameBuffer::new();
        qm.call_streamed(&pan, &mut sink).unwrap();
        let gvdb_api::ApiFrame::Header(header) = &sink.frames[0] else {
            panic!("first frame is the header")
        };
        assert_eq!(header.source, Some(Source::Delta));
        let mut flags = Vec::new();
        let mut fragments = Vec::new();
        for frame in &sink.frames {
            if let gvdb_api::ApiFrame::Rows(gvdb_api::RowBatch::Graph { reused, graph, .. }) = frame
            {
                flags.push(*reused);
                fragments.push(graph.as_str());
            }
        }
        // A delta pan carries both kinds of frame: pure-reuse frames from
        // the kept region and at least one frame holding arrival rows.
        assert!(flags.contains(&true), "a delta pan reuses rows: {flags:?}");
        assert!(
            flags.contains(&false),
            "a delta pan fetches rows: {flags:?}"
        );
        // Frames are verbatim slices of the spliced payload: gluing the
        // fragments back together reproduces the buffered envelope
        // byte-for-byte (the repeated query below is an exact cache hit on
        // the payload the stream just sliced).
        let reassembled = gvdb_api::reassemble_graph(fragments).unwrap();
        let ApiOutcome::Window(buffered) = qm.call(&pan).unwrap() else {
            panic!("wrong outcome")
        };
        assert!(buffered.response.cache_hit);
        assert_eq!(reassembled, buffered.response.json.text);
        std::fs::remove_file(&path).ok();
    }

    /// Decode every Rows frame in `sink` to a plain graph fragment,
    /// counting how many arrived packed on the way.
    fn decode_rows_frames(sink: &crate::FrameBuffer) -> (Vec<String>, usize) {
        let mut fragments = Vec::new();
        let mut packed_frames = 0usize;
        for frame in &sink.frames {
            let gvdb_api::ApiFrame::Rows(batch) = frame else {
                continue;
            };
            if matches!(batch, gvdb_api::RowBatch::Packed { .. }) {
                packed_frames += 1;
            }
            let gvdb_api::RowBatch::Graph { graph, .. } = batch.clone().into_plain() else {
                panic!("rows frames decode to graph batches")
            };
            fragments.push(graph);
        }
        (fragments, packed_frames)
    }

    #[test]
    fn packed_cold_and_hit_streams_decode_byte_identical_to_buffered() {
        let g = wikidata_like(RdfConfig {
            entities: 250,
            ..Default::default()
        });
        let path = tmp("stream-packed");
        let (db, _) = preprocess(
            &g,
            &path,
            &PreprocessConfig {
                k: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        // A small chunk so the whole-plane stream spans many frames.
        let model = crate::ClientModel {
            chunk_rows: 8,
            ..Default::default()
        };
        let qm = QueryManager::with_client(db, model);
        let packed_req = ApiRequest::Window {
            predicate: None,
            dataset: None,
            layer: Some(0),
            window: RectDto {
                min_x: -1e9,
                min_y: -1e9,
                max_x: 1e9,
                max_y: 1e9,
            },
            session: None,
            packed: true,
            rid_range: None,
        };

        // Cold path: the stream packs every frame straight from the rows.
        let mut sink = crate::FrameBuffer::new();
        qm.call_streamed(&packed_req, &mut sink).unwrap();
        let gvdb_api::ApiFrame::Header(header) = &sink.frames[0] else {
            panic!("first frame is the header")
        };
        assert_eq!(header.source, Some(Source::Cold));
        let (fragments, packed_frames) = decode_rows_frames(&sink);
        assert!(packed_frames > 1, "cold stream negotiated packed frames");
        assert_eq!(packed_frames, fragments.len(), "every cold frame packs");
        let reassembled = gvdb_api::reassemble_graph(fragments.iter().map(String::as_str)).unwrap();

        // The buffered envelope for the identical window is an exact
        // cache hit on the payload the stream just built — the decoded
        // fragments must reproduce it byte for byte.
        let plain_req = ApiRequest::Window {
            predicate: None,
            dataset: None,
            layer: Some(0),
            window: RectDto {
                min_x: -1e9,
                min_y: -1e9,
                max_x: 1e9,
                max_y: 1e9,
            },
            session: None,
            packed: false,
            rid_range: None,
        };
        let ApiOutcome::Window(buffered) = qm.call(&plain_req).unwrap() else {
            panic!("wrong outcome")
        };
        assert!(buffered.response.cache_hit);
        assert_eq!(reassembled, buffered.response.json.text);

        // Hit path: the cached payload streams packed too, and decodes
        // to the same bytes.
        let mut sink = crate::FrameBuffer::new();
        qm.call_streamed(&packed_req, &mut sink).unwrap();
        let gvdb_api::ApiFrame::Header(header) = &sink.frames[0] else {
            panic!("first frame is the header")
        };
        assert_eq!(header.source, Some(Source::Hit));
        let (fragments, packed_frames) = decode_rows_frames(&sink);
        assert!(packed_frames > 1, "hit stream negotiated packed frames");
        let reassembled = gvdb_api::reassemble_graph(fragments.iter().map(String::as_str)).unwrap();
        assert_eq!(reassembled, buffered.response.json.text);
        std::fs::remove_file(&path).ok();
    }

    /// Random pans over one dataset: whatever mix of cold, exact-hit and
    /// spliced-delta payloads each window lands on, every frame of a
    /// packed stream is packed and the stream decodes to the exact bytes
    /// of the buffered envelope.
    #[test]
    fn packed_streams_stay_byte_identical_across_random_pans() {
        let g = wikidata_like(RdfConfig {
            entities: 200,
            ..Default::default()
        });
        let path = tmp("stream-packed-prop");
        let (db, _) = preprocess(
            &g,
            &path,
            &PreprocessConfig {
                k: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        let model = crate::ClientModel {
            chunk_rows: 16,
            ..Default::default()
        };
        let qm = QueryManager::with_client(db, model);
        let extent = qm
            .window_query(0, &Rect::new(-1e9, -1e9, 1e9, 1e9))
            .unwrap();
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for (_, row) in extent.rows.iter() {
            min_x = min_x.min(row.geometry.x1).min(row.geometry.x2);
            max_x = max_x.max(row.geometry.x1).max(row.geometry.x2);
            min_y = min_y.min(row.geometry.y1).min(row.geometry.y2);
            max_y = max_y.max(row.geometry.y1).max(row.geometry.y2);
        }
        let (w, h) = (max_x - min_x, max_y - min_y);

        let mut sources = Vec::new();
        for case in 0..24u32 {
            let mut rng = proptest::TestRng::for_case("packed_pans", case);
            let (fx, fy) = (rng.unit_f64() * 0.7, rng.unit_f64() * 0.7);
            let (fw, fh) = (0.2 + rng.unit_f64() * 0.4, 0.2 + rng.unit_f64() * 0.4);
            let window = RectDto {
                min_x: min_x + fx * w,
                min_y: min_y + fy * h,
                max_x: min_x + (fx + fw) * w,
                max_y: min_y + (fy + fh) * h,
            };
            let packed_req = ApiRequest::Window {
                predicate: None,
                dataset: None,
                layer: Some(0),
                window,
                session: None,
                packed: true,
                rid_range: None,
            };
            let mut sink = crate::FrameBuffer::new();
            qm.call_streamed(&packed_req, &mut sink).unwrap();
            let gvdb_api::ApiFrame::Header(header) = &sink.frames[0] else {
                panic!("first frame is the header")
            };
            sources.push(header.source);
            let (fragments, packed_frames) = decode_rows_frames(&sink);
            assert_eq!(
                packed_frames,
                fragments.len(),
                "window {window:?} ({:?}): every frame packs",
                header.source
            );
            let reassembled =
                gvdb_api::reassemble_graph(fragments.iter().map(String::as_str)).unwrap();
            let plain_req = ApiRequest::Window {
                predicate: None,
                dataset: None,
                layer: Some(0),
                window,
                session: None,
                packed: false,
                rid_range: None,
            };
            let ApiOutcome::Window(buffered) = qm.call(&plain_req).unwrap() else {
                panic!("wrong outcome")
            };
            assert!(buffered.response.cache_hit, "stream primed the cache");
            assert_eq!(
                reassembled, buffered.response.json.text,
                "window {window:?} diverged"
            );
        }
        assert!(
            sources.contains(&Some(Source::Delta)),
            "some pan spliced a delta window: {sources:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_streamable_ops_fall_back_or_reject() {
        let (qm, path) = manager("stream-misc");
        // Focus streams as one graph frame between header and trailer.
        let hits = qm.keyword_search(0, "Q1").unwrap();
        let mut sink = crate::FrameBuffer::new();
        qm.call_streamed(
            &ApiRequest::Focus {
                dataset: None,
                layer: 0,
                node: hits[0].node_id,
            },
            &mut sink,
        )
        .unwrap();
        assert!(
            matches!(sink.frames.first(), Some(gvdb_api::ApiFrame::Header(h)) if h.op == "focus")
        );
        assert!(matches!(
            sink.frames.last(),
            Some(gvdb_api::ApiFrame::Trailer(_))
        ));

        // Stats has no row stream: a typed BadRequest, no frames emitted.
        let mut sink = crate::FrameBuffer::new();
        let err = qm.call_streamed(&ApiRequest::Stats, &mut sink).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(sink.frames.is_empty());

        // Errors surface before any frame for streamable ops too.
        let mut sink = crate::FrameBuffer::new();
        let err = qm
            .call_streamed(
                &ApiRequest::Search {
                    predicate: None,
                    dataset: None,
                    layer: 99,
                    query: "x".into(),
                },
                &mut sink,
            )
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::NotFound);
        assert!(sink.frames.is_empty());

        // A mutation is rejected before it runs, by both engine-backed
        // services: no frame, no row deleted, no epoch bump.
        let qm = std::sync::Arc::new(qm);
        let ws = SharedWorkspace::new();
        ws.add_manager("only", std::sync::Arc::clone(&qm)).unwrap();
        let ApiOutcome::Window(view) = qm.call(&window_req(None)).unwrap() else {
            panic!("wrong outcome")
        };
        let delete = ApiRequest::DeleteEdge {
            dataset: None,
            layer: 0,
            rid: view
                .response
                .rows
                .first()
                .expect("window has rows")
                .0
                .to_u64(),
        };
        let state = || (qm.db().layer(0).unwrap().row_count(), qm.layer_epoch(0));
        let before = state();
        for svc in [&*qm as &dyn GraphService, &ws] {
            let mut sink = crate::FrameBuffer::new();
            let err = svc.call_streamed(&delete, &mut sink).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest);
            assert!(sink.frames.is_empty());
            assert_eq!(state(), before, "the rejected mutation ran");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shared_workspace_keeps_datasets_isolated() {
        let rdf_path = tmp("ws-rdf");
        let cite_path = tmp("ws-cite");
        let cfg = PreprocessConfig {
            k: Some(2),
            ..Default::default()
        };
        let (rdf_db, _) = preprocess(
            &wikidata_like(RdfConfig {
                entities: 200,
                ..Default::default()
            }),
            &rdf_path,
            &cfg,
        )
        .unwrap();
        let (cite_db, _) = preprocess(
            &patent_like(CitationConfig {
                nodes: 300,
                ..Default::default()
            }),
            &cite_path,
            &cfg,
        )
        .unwrap();

        let ws = SharedWorkspace::new();
        ws.add("dblp", rdf_db).unwrap();
        ws.add("patents", cite_db).unwrap();
        let svc: &dyn GraphService = &ws;

        let ApiOutcome::Datasets(datasets) = svc.call(&ApiRequest::ListDatasets).unwrap() else {
            panic!("wrong outcome")
        };
        assert_eq!(
            datasets.iter().map(|d| d.name.as_str()).collect::<Vec<_>>(),
            vec!["dblp", "patents"]
        );

        // With several datasets, an unaddressed request is BadRequest.
        let err = svc.call(&window_req(None)).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(err.message.contains("dblp"), "{}", err.message);

        // Warm both caches, then mutate only patents.
        let win = |dataset: &str| ApiRequest::Window {
            predicate: None,
            dataset: Some(dataset.into()),
            layer: Some(0),
            window: RectDto {
                min_x: -1e9,
                min_y: -1e9,
                max_x: 1e9,
                max_y: 1e9,
            },
            session: None,
            packed: false,
            rid_range: None,
        };
        svc.call(&win("dblp")).unwrap();
        svc.call(&win("patents")).unwrap();
        let ApiOutcome::Mutated { epoch, .. } = svc
            .call(&ApiRequest::InsertEdge {
                dataset: Some("patents".into()),
                layer: 0,
                edge: EdgeDto {
                    node1_id: 991_001,
                    node1_label: "iso A".into(),
                    node2_id: 991_002,
                    node2_label: "iso B".into(),
                    edge_label: "isolated-edit".into(),
                    x1: 0.0,
                    y1: 0.0,
                    x2: 1.0,
                    y2: 1.0,
                    directed: false,
                },
            })
            .unwrap()
        else {
            panic!("wrong outcome")
        };
        assert_eq!(epoch, 1);

        // The mutated dataset re-queries cold at the new epoch; the other
        // dataset's cached window and epochs are untouched.
        let ApiOutcome::Window(pat) = svc.call(&win("patents")).unwrap() else {
            panic!("wrong outcome")
        };
        assert_eq!(pat.response.epoch, 1);
        assert_ne!(pat.source(), Source::Hit);
        let ApiOutcome::Window(rdf) = svc.call(&win("dblp")).unwrap() else {
            panic!("wrong outcome")
        };
        assert_eq!(rdf.response.epoch, 0, "other dataset's epochs untouched");
        assert_eq!(rdf.source(), Source::Hit, "other dataset's cache survives");

        // Per-dataset stats expose the divergence.
        let ApiOutcome::Stats(stats) = svc.call(&ApiRequest::Stats).unwrap() else {
            panic!("wrong outcome")
        };
        let by_name = |n: &str| stats.iter().find(|d| d.name == n).unwrap();
        assert_eq!(by_name("patents").epochs[0], 1);
        assert_eq!(by_name("dblp").epochs[0], 0);

        std::fs::remove_file(&rdf_path).ok();
        std::fs::remove_file(&cite_path).ok();
    }

    // -- the attribute query engine ------------------------------------------

    use crate::filter::{CompiledFilter, FilterMode};
    use gvdb_api::{AggOp, Field, Predicate};

    fn case_predicate(case: u32) -> Predicate {
        match case % 4 {
            0 => Predicate::Range {
                field: Field::Degree,
                min: Some(2.0),
                max: None,
            },
            1 => Predicate::NodeLabelPrefix("Q1".into()),
            2 => Predicate::Or(vec![
                Predicate::NodeLabelEq("Q5".into()),
                Predicate::Range {
                    field: Field::Rank,
                    min: Some(0.005),
                    max: None,
                },
            ]),
            _ => Predicate::And(vec![
                Predicate::NodeLabelPrefix("Q".into()),
                Predicate::Range {
                    field: Field::X,
                    min: None,
                    max: Some(1200.0),
                },
            ]),
        }
    }

    fn sorted_rids(resp: &WindowResponse) -> Vec<gvdb_storage::RowId> {
        let mut rids: Vec<gvdb_storage::RowId> = resp.rows.iter().map(|(rid, _)| *rid).collect();
        rids.sort_unstable();
        rids
    }

    /// The satellite invariant: a filtered window equals "fetch the
    /// window cold, then filter", row for row, whatever path serves it —
    /// cold (chooser), exact cache hit, delta splice, or the streamed
    /// twin of each.
    #[test]
    fn filtered_windows_match_fetch_then_filter_across_paths() {
        let (qm, path) = manager("filter-prop");
        let compiled = |pred: &Predicate| {
            let db = qm.db();
            let sidecar = db.layer(0).unwrap().sidecar().cloned();
            CompiledFilter::new(pred.clone(), sidecar)
        };

        // Cold streamed filtered path first, while the cache is empty:
        // byte-identical to the buffered filtered payload, and it must
        // NOT seed the cache (the entry would be missing rows).
        let cold_pred = case_predicate(0);
        let window = RectDto {
            min_x: 0.0,
            min_y: 0.0,
            max_x: 2000.0,
            max_y: 2000.0,
        };
        let filtered_req = |packed: bool| ApiRequest::Window {
            predicate: Some(cold_pred.clone()),
            dataset: None,
            layer: Some(0),
            window,
            session: None,
            packed,
            rid_range: None,
        };
        let mut sink = crate::FrameBuffer::new();
        qm.call_streamed(&filtered_req(true), &mut sink).unwrap();
        let (fragments, _) = decode_rows_frames(&sink);
        let reassembled = gvdb_api::reassemble_graph(fragments.iter().map(String::as_str)).unwrap();
        let ApiOutcome::Window(buffered) = qm.call(&filtered_req(false)).unwrap() else {
            panic!("wrong outcome")
        };
        assert!(
            !buffered.response.cache_hit,
            "a filtered stream must not seed the cache"
        );
        assert_eq!(
            reassembled, buffered.response.json.text,
            "filtered streams keep byte-identity with the buffered envelope"
        );

        // Random windows × operator mix, across every serving path.
        let extent = qm
            .window_query(0, &Rect::new(-1e9, -1e9, 1e9, 1e9))
            .unwrap();
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for (_, row) in extent.rows.iter() {
            min_x = min_x.min(row.geometry.x1).min(row.geometry.x2);
            max_x = max_x.max(row.geometry.x1).max(row.geometry.x2);
            min_y = min_y.min(row.geometry.y1).min(row.geometry.y2);
            max_y = max_y.max(row.geometry.y1).max(row.geometry.y2);
        }
        let (w, h) = (max_x - min_x, max_y - min_y);
        let mut saw_delta = false;
        let mut saw_nonempty = false;
        for case in 0..16u32 {
            let mut rng = proptest::TestRng::for_case("filtered_windows", case);
            let pred = case_predicate(case);
            let filter = compiled(&pred);
            let (fx, fy) = (rng.unit_f64() * 0.5, rng.unit_f64() * 0.5);
            let (fw, fh) = (0.3 + rng.unit_f64() * 0.4, 0.3 + rng.unit_f64() * 0.4);
            let rect = Rect::new(
                min_x + fx * w,
                min_y + fy * h,
                min_x + (fx + fw) * w,
                min_y + (fy + fh) * h,
            );

            // Cold (or overlap-delta) filtered vs fetch-then-filter.
            let filtered = qm
                .window_query_filtered(0, &rect, None, &pred, FilterMode::Auto)
                .unwrap();
            let unfiltered = qm.window_query(0, &rect).unwrap();
            let mut expected: Vec<gvdb_storage::RowId> = unfiltered
                .rows
                .iter()
                .filter(|(_, row)| filter.matches_row(row))
                .map(|(rid, _)| *rid)
                .collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(sorted_rids(&filtered), expected, "cold path, case {case}");
            saw_nonempty |= !expected.is_empty();

            // Exact-hit filtered (the unfiltered query above cached the
            // window).
            let hit = qm
                .window_query_filtered(0, &rect, None, &pred, FilterMode::Auto)
                .unwrap();
            assert!(hit.cache_hit, "case {case} should hit the cache now");
            assert_eq!(sorted_rids(&hit), expected, "hit path, case {case}");

            // Anchored pan: filtered delta vs fetch-then-filter.
            let pan = Rect::new(
                rect.min_x + 0.1 * (rect.max_x - rect.min_x),
                rect.min_y,
                rect.max_x + 0.1 * (rect.max_x - rect.min_x),
                rect.max_y,
            );
            let delta = qm
                .window_query_filtered(0, &pan, Some(&rect), &pred, FilterMode::Auto)
                .unwrap();
            saw_delta |= delta.delta;
            let pan_unfiltered = qm.window_query(0, &pan).unwrap();
            let mut pan_expected: Vec<gvdb_storage::RowId> = pan_unfiltered
                .rows
                .iter()
                .filter(|(_, row)| filter.matches_row(row))
                .map(|(rid, _)| *rid)
                .collect();
            pan_expected.sort_unstable();
            pan_expected.dedup();
            assert_eq!(sorted_rids(&delta), pan_expected, "delta path, case {case}");

            // Streamed filtered (Built plan now) stays byte-identical to
            // its buffered twin.
            let dto = RectDto {
                min_x: pan.min_x,
                min_y: pan.min_y,
                max_x: pan.max_x,
                max_y: pan.max_y,
            };
            let req = |packed: bool| ApiRequest::Window {
                predicate: Some(pred.clone()),
                dataset: None,
                layer: Some(0),
                window: dto,
                session: None,
                packed,
                rid_range: None,
            };
            let mut sink = crate::FrameBuffer::new();
            qm.call_streamed(&req(true), &mut sink).unwrap();
            let (fragments, _) = decode_rows_frames(&sink);
            let reassembled =
                gvdb_api::reassemble_graph(fragments.iter().map(String::as_str)).unwrap();
            let ApiOutcome::Window(buffered) = qm.call(&req(false)).unwrap() else {
                panic!("wrong outcome")
            };
            assert_eq!(
                reassembled, buffered.response.json.text,
                "stream, case {case}"
            );
        }
        assert!(saw_delta, "at least one pan should ride the delta path");
        assert!(saw_nonempty, "the predicates should match something");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn aggregates_reduce_the_filtered_window() {
        let (qm, path) = manager("agg");
        let plane = Rect::new(-1e9, -1e9, 1e9, 1e9);
        let pred = Predicate::Range {
            field: Field::Degree,
            min: Some(2.0),
            max: None,
        };

        let filtered = qm
            .window_query_filtered(0, &plane, None, &pred, FilterMode::Auto)
            .unwrap();
        let (count, _) = qm
            .aggregate_window(0, &plane, Some(&pred), &AggOp::Count, FilterMode::Auto)
            .unwrap();
        assert_eq!(count.rows, filtered.rows.len() as u64);
        let mut node_ids: Vec<u64> = filtered
            .rows
            .iter()
            .flat_map(|(_, r)| [r.node1_id, r.node2_id])
            .collect();
        node_ids.sort_unstable();
        node_ids.dedup();
        assert_eq!(count.nodes, node_ids.len() as u64);
        assert!(count.value.is_none() && count.histogram.is_none());

        // min/max reduce over distinct nodes.
        let (min_x, _) = qm
            .aggregate_window(
                0,
                &plane,
                Some(&pred),
                &AggOp::Min(Field::X),
                FilterMode::Auto,
            )
            .unwrap();
        let expected_min = filtered
            .rows
            .iter()
            .flat_map(|(_, r)| [r.geometry.x1, r.geometry.x2])
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min_x.value, Some(expected_min));

        // An unfiltered aggregate counts the whole window.
        let whole = qm.window_query(0, &plane).unwrap();
        let (all, _) = qm
            .aggregate_window(0, &plane, None, &AggOp::Count, FilterMode::Auto)
            .unwrap();
        assert_eq!(all.rows, whole.rows.len() as u64);

        // Histogram mass equals the distinct node count.
        let (hist, _) = qm
            .aggregate_window(
                0,
                &plane,
                None,
                &AggOp::Histogram {
                    field: Field::Degree,
                    buckets: 8,
                },
                FilterMode::Auto,
            )
            .unwrap();
        let h = hist.histogram.expect("non-empty window yields a histogram");
        assert_eq!(h.counts.len(), 8);
        assert_eq!(h.counts.iter().sum::<u64>(), hist.nodes);
        assert!(h.lo <= h.hi);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn aggregate_streams_one_summary() {
        let (qm, path) = manager("agg-stream");
        let req = ApiRequest::Aggregate {
            dataset: None,
            layer: Some(0),
            window: RectDto {
                min_x: 0.0,
                min_y: 0.0,
                max_x: 2000.0,
                max_y: 2000.0,
            },
            predicate: Some(Predicate::NodeLabelPrefix("Q".into())),
            agg: AggOp::Count,
        };
        // Buffered and streamed answers agree.
        let ApiOutcome::Aggregate { result, epoch, .. } = qm.call(&req).unwrap() else {
            panic!("wrong outcome")
        };
        let mut sink = crate::FrameBuffer::new();
        qm.call_streamed(&req, &mut sink).unwrap();
        let kinds: Vec<&str> = sink.frames.iter().map(|f| f.kind()).collect();
        assert_eq!(kinds, ["header", "summary", "trailer"]);
        let Some(gvdb_api::ApiFrame::Header(h)) = sink.frames.first() else {
            panic!("no header")
        };
        assert_eq!(h.op, "aggregate");
        assert_eq!(h.epoch, epoch);
        assert_eq!(h.rows_total, result.rows);
        let Some(gvdb_api::ApiFrame::Summary(s)) = sink.frames.get(1) else {
            panic!("no summary")
        };
        assert_eq!(s, &result);
        let Some(gvdb_api::ApiFrame::Trailer(t)) = sink.frames.last() else {
            panic!("no trailer")
        };
        assert_eq!(t.rows, result.rows);
        assert_eq!(t.epoch, epoch, "no racing edit: trailer epoch unchanged");
        assert_eq!(t.frames, 1);

        // Errors (bad layer) surface before any frame.
        let mut sink = crate::FrameBuffer::new();
        let err = qm
            .call_streamed(
                &ApiRequest::Aggregate {
                    dataset: None,
                    layer: Some(99),
                    window: RectDto {
                        min_x: 0.0,
                        min_y: 0.0,
                        max_x: 1.0,
                        max_y: 1.0,
                    },
                    predicate: None,
                    agg: AggOp::Count,
                },
                &mut sink,
            )
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::NotFound);
        assert!(sink.frames.is_empty());
        std::fs::remove_file(&path).ok();
    }

    /// Check one stream against the frame grammar — `Header · Rows* ·
    /// Trailer`, or `Header · Summary · Trailer` for an aggregate — and
    /// return its header, its trailer, the summed [`RowBatch::len`] of
    /// its `Rows` frames and their count.
    fn grammar_checked(frames: &[ApiFrame]) -> (FrameHeader, TrailerFrame, u64, u64) {
        let kinds: Vec<&str> = frames.iter().map(ApiFrame::kind).collect();
        let (Some(ApiFrame::Header(header)), Some(ApiFrame::Trailer(trailer))) =
            (frames.first(), frames.last())
        else {
            panic!("a stream opens with its header and closes with its trailer: {kinds:?}")
        };
        let body = &kinds[1..kinds.len() - 1];
        assert!(
            body.iter().all(|k| *k == "rows") || body == ["summary"],
            "frame kinds out of grammar: {kinds:?}"
        );
        let (mut rows, mut batches) = (0, 0);
        for frame in frames {
            if let ApiFrame::Rows(batch) = frame {
                rows += batch.len() as u64;
                batches += 1;
            }
        }
        (header.clone(), trailer.clone(), rows, batches)
    }

    /// Every streamed op follows the frame grammar, and its header's row
    /// total is the trailer's row count (an upper bound for a filtered
    /// cold window): multi-frame cold, hit and delta windows, plain and
    /// packed, a filtered cold window, a search, an aggregate and a
    /// focus.
    #[test]
    fn every_stream_follows_the_frame_grammar() {
        let g = wikidata_like(RdfConfig {
            entities: 250,
            ..Default::default()
        });
        let path = tmp("grammar");
        let (db, _) = preprocess(
            &g,
            &path,
            &PreprocessConfig {
                k: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        let model = crate::ClientModel {
            chunk_rows: 8,
            ..Default::default()
        };
        let qm = QueryManager::with_client(db, model);
        let stream = |request: &ApiRequest| {
            let mut sink = crate::FrameBuffer::new();
            qm.call_streamed(request, &mut sink).unwrap();
            grammar_checked(&sink.frames)
        };
        let window =
            |window: RectDto, packed: bool, predicate: Option<Predicate>| ApiRequest::Window {
                predicate,
                dataset: None,
                layer: Some(0),
                window,
                session: None,
                packed,
                rid_range: None,
            };
        let everything = qm
            .window_query(0, &Rect::new(-1e9, -1e9, 1e9, 1e9))
            .unwrap();
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        for (_, row) in everything.rows.iter() {
            min_x = min_x.min(row.geometry.x1).min(row.geometry.x2);
            max_x = max_x.max(row.geometry.x1).max(row.geometry.x2);
        }
        let strip = |lo: f64, hi: f64| RectDto {
            min_x: min_x + lo * (max_x - min_x),
            min_y: -1e9,
            max_x: min_x + hi * (max_x - min_x),
            max_y: 1e9,
        };
        // An edit bumps the layer epoch, so no cached window survives it.
        let dummy = everything.rows[0].1.clone();
        let drop_cache = || {
            let rid = qm.insert_row(0, &dummy).unwrap();
            qm.delete_row(0, rid).unwrap();
        };

        for packed in [false, true] {
            drop_cache();
            for source in [Source::Cold, Source::Hit] {
                let (header, trailer, rows, frames) =
                    stream(&window(strip(0.0, 1.0), packed, None));
                assert_eq!(header.source, Some(source));
                assert!(frames > 1, "{source:?} packed={packed}: {frames} frames");
                assert_eq!(
                    header.rows_total, trailer.rows,
                    "{source:?} packed={packed}"
                );
                assert_eq!(rows, trailer.rows, "{source:?} packed={packed}");
            }
            drop_cache();
            qm.call(&window(strip(0.0, 0.6), false, None)).unwrap(); // the delta anchor
            let (header, trailer, rows, frames) = stream(&window(strip(0.15, 0.75), packed, None));
            assert_eq!(header.source, Some(Source::Delta));
            assert!(frames > 1, "delta packed={packed}: {frames} frames");
            assert_eq!(header.rows_total, trailer.rows, "delta packed={packed}");
            assert_eq!(rows, trailer.rows, "delta packed={packed}");
        }

        drop_cache();
        let degree = Predicate::Range {
            field: Field::Degree,
            min: Some(2.0),
            max: None,
        };
        let (header, trailer, rows, frames) = stream(&window(strip(0.0, 1.0), false, Some(degree)));
        assert_eq!(header.source, Some(Source::Cold));
        assert!(frames > 1, "filtered cold: {frames} frames");
        assert!(
            header.rows_total >= trailer.rows,
            "candidates bound the rows"
        );
        assert_eq!(rows, trailer.rows);

        let search = ApiRequest::Search {
            predicate: None,
            dataset: None,
            layer: 0,
            query: "Q".into(),
        };
        let (header, trailer, rows, frames) = stream(&search);
        assert!(frames > 1, "search: {frames} frames");
        assert_eq!(header.rows_total, trailer.rows);
        assert_eq!(rows, trailer.rows);

        let aggregate = ApiRequest::Aggregate {
            dataset: None,
            layer: Some(0),
            window: strip(0.0, 1.0),
            predicate: None,
            agg: AggOp::Count,
        };
        let (header, trailer, _, frames) = stream(&aggregate);
        assert_eq!(frames, 0, "an aggregate streams its summary, not rows");
        assert_eq!(header.rows_total, trailer.rows);
        assert!(trailer.rows > 0);

        let hits = qm.keyword_search(0, "Q1").unwrap();
        let focus = ApiRequest::Focus {
            dataset: None,
            layer: 0,
            node: hits[0].node_id,
        };
        let (header, trailer, rows, _) = stream(&focus);
        assert_eq!(header.rows_total, trailer.rows);
        assert_eq!(rows, trailer.rows);
        assert!(trailer.rows > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn search_applies_node_predicates_and_rejects_edge_ones() {
        let (qm, path) = manager("search-filter");
        let all = qm.keyword_search(0, "Q1").unwrap();
        assert!(!all.is_empty());
        let half = Predicate::Range {
            field: Field::X,
            min: None,
            max: Some(1000.0),
        };
        let filtered = qm.keyword_search_filtered(0, "Q1", Some(&half)).unwrap();
        let expected: Vec<u64> = all
            .iter()
            .filter(|hit| hit.position.x <= 1000.0)
            .map(|hit| hit.node_id)
            .collect();
        assert_eq!(
            filtered.iter().map(|h| h.node_id).collect::<Vec<_>>(),
            expected
        );

        let err = qm
            .call(&ApiRequest::Search {
                predicate: Some(Predicate::EdgeLabelEq("wdt:P31".into())),
                dataset: None,
                layer: 0,
                query: "Q1".into(),
            })
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_expose_layer_cardinality_and_chooser_decisions() {
        let (qm, path) = manager("filter-stats");
        // A selective label probe should take the index path; an x-range
        // has no access path and scans.
        let selective = Predicate::NodeLabelEq("Q123".into());
        let scan_only = Predicate::Range {
            field: Field::X,
            min: Some(0.0),
            max: None,
        };
        let plane = Rect::new(-1e9, -1e9, 1e9, 1e9);
        let auto = qm
            .window_query_filtered(0, &plane, None, &selective, FilterMode::Auto)
            .unwrap();
        let (index_n, scan_n) = qm.chooser_counts();
        assert_eq!(
            (index_n, scan_n),
            (1, 0),
            "a selective label predicate probes the index"
        );
        // Forced scan over a distinct (still uncached) window returns the
        // same surviving rows.
        let wide = Rect::new(-2e9, -2e9, 2e9, 2e9);
        let scanned = qm
            .window_query_filtered(0, &wide, None, &selective, FilterMode::ForceScan)
            .unwrap();
        assert_eq!(sorted_rids(&auto), sorted_rids(&scanned));
        let _ = qm
            .window_query_filtered(0, &plane, None, &scan_only, FilterMode::Auto)
            .unwrap();
        let (index_n, scan_n) = qm.chooser_counts();
        assert_eq!(index_n, 1);
        assert_eq!(scan_n, 2, "forced + unindexable scans both counted");

        let ApiOutcome::Stats(stats) = qm.call(&ApiRequest::Stats).unwrap() else {
            panic!("wrong outcome")
        };
        let ds = &stats[0];
        assert_eq!(ds.layers.len(), qm.layer_count());
        for (i, layer) in ds.layers.iter().enumerate() {
            assert_eq!(layer.index, i as u64);
            assert!(layer.rows > 0, "layer {i} has rows");
            assert!(
                layer.sidecar_nodes > 0,
                "layer {i} carries a degree/rank sidecar"
            );
        }
        assert_eq!(ds.chooser.index, 1);
        assert_eq!(ds.chooser.scan, 2);
        std::fs::remove_file(&path).ok();
    }
}
