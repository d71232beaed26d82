//! The fan-out/merge router: a [`GraphService`] whose backing store is
//! a set of replica shards reached over HTTP.
//!
//! Every shard is a **full replica** (followers of the same leader);
//! the shard map assigns each one a disjoint slice of rid space. The
//! router answers a plain window query by fanning it out as per-shard
//! rid slices and concatenating the ascending-rid answers — the merge
//! contract is documented on [`gvdb_client::ClusterClient`]. Everything
//! that does not decompose is forwarded whole to one replica:
//! session-affine requests pin to shard 0 (sessions are server-side
//! state), stateless requests round-robin with failover. Mutations and
//! flushes are refused — writes go to the leader, which replicates
//! them.

use crate::peer_error;
use gvdb_api::repl::{ReplRole, ReplStatsDto, ReplStatusDto, ShardMapDto};
use gvdb_api::{ApiError, ApiFrame, ApiRequest, ApiResponse, ApiResult, RowBatch, TrailerFrame};
use gvdb_client::{excerpt, ClientError, ClusterClient, GvdbClient, WindowParams, WindowStream};
use gvdb_core::{ApiOutcome, FrameSink, GraphService, ReplProvider};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A [`GraphService`] that owns no data: it routes requests to the
/// replica shards of a cluster and merges fanned-out window streams.
/// Plug it into `gvdb_server::Server` where a `QueryManager` would go
/// (`gvdb serve --router --shard … --shard …`).
pub struct RouterService {
    addrs: Vec<String>,
    clients: Vec<GvdbClient>,
    cluster: ClusterClient,
    map_json: String,
    datasets: Vec<String>,
    rr: AtomicUsize,
}

impl RouterService {
    /// Probe the shards, derive the shard map (uniform rid-range split
    /// over the probed rid ceiling), and build the router. At least one
    /// shard must be reachable.
    pub fn connect(addrs: Vec<String>) -> ApiResult<Self> {
        if addrs.is_empty() {
            return Err(ApiError::bad_request("a router needs at least one --shard"));
        }
        let clients: Vec<GvdbClient> = addrs.iter().cloned().map(GvdbClient::new).collect();
        // Shards are full replicas: the first reachable one answers for
        // the cluster's rid ceiling and dataset names.
        let mut probed = None;
        for client in &clients {
            if let Ok((_, layers)) = client.layers(None) {
                let rid_max = layers.iter().map(|l| l.rid_max).max().unwrap_or(0);
                let datasets = client
                    .datasets()
                    .map(|ds| ds.into_iter().map(|d| d.name).collect())
                    .unwrap_or_else(|_| vec!["default".to_string()]);
                probed = Some((rid_max, datasets));
                break;
            }
        }
        let Some((rid_max, datasets)) = probed else {
            return Err(ApiError::internal(format!(
                "no shard reachable (tried {})",
                addrs.join(", ")
            )));
        };
        let map = ShardMapDto::split(rid_max, &addrs);
        let map_json = map.to_json();
        let cluster = ClusterClient::new(
            map.shards
                .iter()
                .map(|s| (s.rid_lo, s.rid_hi, s.addr.clone()))
                .collect(),
        )
        .map_err(peer_error)?;
        Ok(Self {
            addrs,
            clients,
            cluster,
            map_json,
            datasets,
            rr: AtomicUsize::new(0),
        })
    }

    /// The shard map this router serves at `/v1/shardmap`.
    pub fn shard_map_json(&self) -> &str {
        &self.map_json
    }

    /// Forward a buffered request to shard `idx`. A typed error from
    /// the shard is **not** a transport failure — it is the answer.
    fn forward_to(&self, idx: usize, request: &ApiRequest) -> Result<ApiResponse, ClientError> {
        self.clients[idx].rpc(request)
    }

    /// Forward a stateless buffered request round-robin, failing over
    /// past unreachable shards (every shard holds the full dataset, so
    /// any of them can answer).
    fn forward_any(&self, request: &ApiRequest) -> ApiResult<ApiResponse> {
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        let n = self.clients.len();
        let mut last_io = None;
        for k in 0..n {
            match self.forward_to((start + k) % n, request) {
                Ok(resp) => return Ok(resp),
                Err(ClientError::Api(e)) => return Err(e),
                Err(e) => last_io = Some(e),
            }
        }
        Err(ApiError::internal(format!(
            "no shard reachable (tried {}): {}",
            self.addrs.join(", "),
            last_io.map(|e| e.to_string()).unwrap_or_default()
        )))
    }

    /// Forward to shard 0 — the designated home of server-side session
    /// state. Sessions are created, anchored, and closed on one shard so
    /// their ids resolve consistently across requests.
    fn forward_session(&self, request: &ApiRequest) -> ApiResult<ApiResponse> {
        self.forward_to(0, request).map_err(peer_error)
    }

    /// Relay a shard's frame stream as this response's frames, verbatim
    /// — packed rows stay packed (the shard already negotiated the
    /// encoding from the forwarded query string), the trailer is the
    /// shard's trailer.
    fn relay(&self, mut stream: WindowStream, sink: &mut dyn FrameSink) -> ApiResult<()> {
        sink.emit(&ApiFrame::Header(stream.header.clone()))?;
        loop {
            match stream.next_batch_raw() {
                Ok(Some(batch)) => sink.emit(&ApiFrame::Rows(batch))?,
                Ok(None) => break,
                Err(e) => return Err(peer_error(e)),
            }
        }
        if let Some(summary) = stream.summary() {
            sink.emit(&ApiFrame::Summary(summary.clone()))?;
        }
        let trailer = stream
            .trailer()
            .cloned()
            .ok_or_else(|| ApiError::internal("shard stream ended without a trailer"))?;
        sink.emit(&ApiFrame::Trailer(trailer))
    }

    /// The fanned-out window path: per-shard rid slices, merged by
    /// concatenation with global node dedup (see
    /// [`gvdb_client::ClusterClient`] for why this reproduces the
    /// single-node stream byte-for-byte).
    fn stream_fanout(
        &self,
        params: &WindowParams,
        packed: bool,
        sink: &mut dyn FrameSink,
    ) -> ApiResult<()> {
        let mut merged = self.cluster.window_merged(params).map_err(peer_error)?;
        sink.emit(&ApiFrame::Header(merged.header().clone()))?;
        let mut frames = 0u64;
        loop {
            let batch = if packed {
                match merged.next_packed().map_err(peer_error)? {
                    Some(rows) => RowBatch::Packed {
                        image: rows.to_image(),
                        reused: false,
                    },
                    None => break,
                }
            } else {
                match merged.next_plain().map_err(peer_error)? {
                    Some(batch) => batch,
                    None => break,
                }
            };
            frames += 1;
            sink.emit(&ApiFrame::Rows(batch))?;
        }
        let mut trailer: TrailerFrame = merged
            .trailer()
            .cloned()
            .ok_or_else(|| ApiError::internal("merged stream ended without a trailer"))?;
        trailer.frames = frames;
        sink.emit(&ApiFrame::Trailer(trailer))
    }
}

impl GraphService for RouterService {
    fn call(&self, request: &ApiRequest) -> ApiResult<ApiOutcome> {
        if request.is_mutation() || matches!(request, ApiRequest::Flush { .. }) {
            return Err(ApiError::forbidden(
                "this node is a router over read replicas; apply writes on the leader",
            ));
        }
        match request {
            // The router's own serving counters wrap the per-dataset
            // stats of whichever shard answers.
            ApiRequest::Stats => match self.forward_any(request)? {
                ApiResponse::Stats(dto) => Ok(ApiOutcome::Stats(dto.datasets)),
                other => Err(unexpected(request, &other)),
            },
            ApiRequest::SessionNew { .. }
            | ApiRequest::SessionClose { .. }
            | ApiRequest::Window {
                session: Some(_), ..
            } => Ok(ApiOutcome::Raw(self.forward_session(request)?)),
            _ => Ok(ApiOutcome::Raw(self.forward_any(request)?)),
        }
    }

    fn dataset_names(&self) -> Vec<String> {
        self.datasets.clone()
    }

    fn call_streamed(&self, request: &ApiRequest, sink: &mut dyn FrameSink) -> ApiResult<()> {
        let idx = match request {
            ApiRequest::Window {
                dataset,
                layer,
                window,
                session: None,
                packed,
                predicate: None,
                rid_range: None,
            } => {
                // The decomposable case: fan out rid slices and merge.
                // `window_merged` negotiates packed frames with the
                // shards either way; `packed` only decides what this
                // response re-emits.
                let params = WindowParams {
                    dataset: dataset.clone(),
                    layer: *layer,
                    window: *window,
                    ..WindowParams::default()
                };
                return self.stream_fanout(&params, *packed, sink);
            }
            // Everything else rides one replica whole: sessions pin to
            // their home shard, predicates, explicit rid slices, searches
            // and aggregates are answered fine by any full replica.
            ApiRequest::Window {
                session: Some(_), ..
            } => 0,
            ApiRequest::Window { .. }
            | ApiRequest::Search { .. }
            | ApiRequest::Aggregate { .. } => {
                self.rr.fetch_add(1, Ordering::Relaxed) % self.clients.len()
            }
            other => {
                return Err(ApiError::bad_request(format!(
                    "operation '{}' is not streamable",
                    other.op()
                )))
            }
        };
        let stream = self.clients[idx].stream(request).map_err(peer_error)?;
        self.relay(stream, sink)
    }
}

/// A shard answered a forwarded request with the wrong response shape —
/// a protocol violation, not a user error.
fn unexpected(request: &ApiRequest, response: &ApiResponse) -> ApiError {
    ApiError::internal(format!(
        "shard answered '{}' with an unexpected response shape: {}",
        request.op(),
        excerpt(&response.to_json())
    ))
}

/// The router's [`ReplProvider`]: serves the shard map at
/// `/v1/shardmap` and reports the `router` role in `/v1/stats`; it has
/// no replication position of its own (it holds no data).
pub struct RouterRepl {
    map_json: String,
}

impl RouterRepl {
    pub fn new(router: &RouterService) -> Self {
        Self {
            map_json: router.shard_map_json().to_string(),
        }
    }
}

impl ReplProvider for RouterRepl {
    fn status_json(&self) -> ApiResult<String> {
        Ok(ReplStatusDto {
            role: ReplRole::Router,
            seq: 0,
            epochs: Vec::new(),
            archives: Vec::new(),
        }
        .to_json())
    }

    fn checkpoint_json(&self, _seq: u64) -> ApiResult<String> {
        Err(ApiError::not_found(
            "a router holds no data; fetch checkpoints from the leader",
        ))
    }

    fn snapshot_json(&self) -> ApiResult<String> {
        Err(ApiError::not_found(
            "a router holds no data; fetch snapshots from the leader",
        ))
    }

    fn shard_map_json(&self) -> ApiResult<String> {
        Ok(self.map_json.clone())
    }

    fn stats(&self) -> ReplStatsDto {
        ReplStatsDto {
            role: ReplRole::Router,
            last_applied_seq: 0,
            lag: Vec::new(),
            applied: 0,
            resyncs: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvdb_api::SearchHitDto;

    #[test]
    fn unexpected_response_excerpt_cuts_on_a_char_boundary() {
        let request = ApiRequest::Stats;
        let mut straddled = false;
        // Some padding puts a 4-byte char across byte 120 of the JSON.
        for pad in 0..4 {
            let response = ApiResponse::Hits {
                hits: vec![SearchHitDto {
                    node: 1,
                    label: format!("{}{}", "a".repeat(pad), "😀".repeat(80)),
                    x: 0.0,
                    y: 0.0,
                }],
            };
            let json = response.to_json();
            straddled |= !json.is_char_boundary(120);
            let err = unexpected(&request, &response);
            assert_eq!(err.kind, gvdb_api::ErrorKind::Internal);
            assert!(err.message.contains("😀"), "{}", err.message);
            assert!(err.message.len() < json.len(), "long bodies are cut");
        }
        assert!(straddled, "no padding straddled byte 120");
    }
}
