//! # gvdb-server
//!
//! The serving layer of the platform: a multi-threaded HTTP server over
//! any [`GraphService`] — a single shared
//! [`QueryManager`](gvdb_core::QueryManager) or a multi-dataset
//! [`SharedWorkspace`](gvdb_core::SharedWorkspace) — speaking the
//! versioned `v1` protocol defined in `gvdb-api`.
//!
//! Architecture:
//!
//! * **Event-driven connection core** — ONE reactor thread (epoll on
//!   Linux, `poll(2)` elsewhere; see `reactor.rs`) owns every socket:
//!   it accepts, parses incrementally, and writes responses from
//!   per-connection bounded outboxes. Idle keep-alive connections cost
//!   a registered fd, not a thread — [`ServerConfig::max_connections`]
//!   of them can sit open against a 4-thread pool.
//! * **Bounded worker pool, decoupled** — complete requests are handed
//!   to [`ServerConfig::workers`] worker threads over a bounded queue.
//!   When the queue is full the reactor answers `503` immediately
//!   instead of letting latency grow without bound (and counts the
//!   rejection in `/v1/stats`). Workers never touch sockets: they push
//!   encoded bytes into the connection's bounded [`gvdb_core::Outbox`]
//!   ([`ServerConfig::outbox_bytes`]). A slower-than-the-worker client
//!   is ridden out by waiting for drain progress; a stalled one gets
//!   its stream aborted and the connection closed, so no client holds
//!   a worker past the producer's patience window.
//! * **Typed service underneath** — every route parses into a
//!   `gvdb_api::ApiRequest` and executes through [`GraphService::call`]:
//!   the HTTP layer owns no query, session or mutation logic of its own,
//!   so CLI subcommands, examples and embedded callers behave identically
//!   to remote clients.
//! * **HTTP/1.1 keep-alive** — connections are persistent: a worker
//!   answers request after request on one socket (pipelined requests
//!   drain in order from the connection's buffer), closing only on
//!   client request, error, idle timeout, or shutdown. This removes the
//!   per-request TCP setup that used to dominate the µs-scale cache-hit
//!   path.
//! * **Per-dataset isolation** — sessions, epochs and caches live in each
//!   dataset's own `QueryManager`; a mutation to one dataset can never
//!   invalidate another's windows (integration-tested in `tests/v1.rs`).
//! * **Streamed results** — `/v1/window`, `/v1/search` and
//!   `/v1/aggregate` answer with HTTP/1.1 chunked transfer-encoding by
//!   default: one typed `gvdb_api::ApiFrame` per chunk (`Header · Rows* ·
//!   Trailer`), so the client paints row batches while later batches are
//!   still in flight and time-to-first-frame is independent of window
//!   size. Their query strings are `gvdb_api`'s codec
//!   (`ApiRequest::from_query`), the one the client writes. `stream=0`
//!   (or `Accept: application/json`) keeps the buffered envelope; the
//!   `X-Gvdb-*` stats of the buffered form travel in the Trailer frame,
//!   whose epoch is re-sampled at stream end so a racing edit is visible.
//!   `gvdb-client` is the typed consumer.
//! * **Write gate** — with [`ServerConfig::api_key`] set, mutations and
//!   `/v1/flush` require `Authorization: Bearer <key>` (typed `401`
//!   otherwise); datasets in [`ServerConfig::read_only`] reject mutations
//!   with a typed `403` regardless of credentials.
//! * **Graceful shutdown** — [`Server::shutdown`] wakes the reactor,
//!   which closes every registered connection promptly (no request
//!   boundary to wait for — sub-second even with hundreds of idle
//!   connections open), lets workers finish their current request, and
//!   joins every thread.
//!
//! ## `v1` endpoints (JSON; errors are typed `{"kind":"error","error":{…}}`)
//!
//! | Route | Method | Maps to |
//! |---|---|---|
//! | `/v1/datasets` | GET | `ListDatasets` |
//! | `/v1/layers?dataset=` | GET | `ListLayers` |
//! | `/v1/window?dataset=&layer=&minx=&miny=&maxx=&maxy=[&session=][&stream=0][&encoding=packed]` | GET | `Window` (cold / hit / anchored delta; **streamed** unless `stream=0`; `encoding=packed` negotiates the compact `Rows` encoding: each `Rows` frame is one binary chunk, a tag byte and the raw image, under `Content-Type: application/x-gvdb-frames` — see `gvdb_api::frame` and `gvdb_api::pack`) |
//! | `/v1/search?dataset=&layer=&q=[&stream=0]` | GET | `Search` (**streamed** unless `stream=0`) |
//! | `/v1/aggregate?dataset=&layer=&minx=&miny=&maxx=&maxy=&agg=[&field=][&buckets=][&stream=0]` | GET | `Aggregate` (**streamed** unless `stream=0`) |
//! | `/v1/focus?dataset=&layer=&node=` | GET | `Focus` |
//! | `/v1/edge` | POST | `InsertEdge` (body: `{"dataset":…,"layer":…,"edge":{…}}` or a bare edge object) |
//! | `/v1/edge/delete` | POST | `DeleteEdge` (body: `{"rid":…}`) |
//! | `/v1/session/new[?dataset=&minx=…]` | GET/POST | `SessionNew` |
//! | `/v1/session/close?session=` | GET/POST | `SessionClose` |
//! | `/v1/flush?dataset=` | POST | `Flush` (checkpoint + fsync; reports pages written) |
//! | `/v1/stats` | GET | `Stats` |
//! | `/v1` | POST | any serialized `ApiRequest` (the RPC form, always buffered) |
//! | `/v1/healthz` | GET | liveness probe |
//!
//! Mutation responses carry the mutated layer's **new epoch**, so a
//! client can tell when subsequent window responses include its write.
//! Paths outside `/v1` get the typed `404`.

mod http;
pub mod parser;
mod reactor;
pub mod sys;

pub use http::{Body, Request, Response, PACKED_STREAM_CONTENT_TYPE, STREAM_CONTENT_TYPE};
// The session registry moved into gvdb-core (each QueryManager owns one);
// re-exported here for compatibility with pre-v1 embedders.
pub use gvdb_core::registry::{SessionHandle, SessionId, SessionRegistry};

use gvdb_api::{
    ApiError, ApiFrame, ApiRequest, ApiResponse, DatasetStats, EdgeDto, Json, RectDto, StatsDto,
};
use gvdb_core::{ApiOutcome, FrameSink, GraphService, WindowOutcome};
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;

use reactor::{ConnHandle, Job, Reactor, ReactorShared};

/// Server sizing and policy knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads draining the request queue (min 1).
    pub workers: usize,
    /// Request-queue depth; requests beyond it get `503` (min 1).
    pub backlog: usize,
    /// When set, mutations (`/v1/edge*`) and `/v1/flush` require
    /// `Authorization: Bearer <api_key>`; anything else is a typed `401`.
    /// Reads stay open.
    pub api_key: Option<String>,
    /// Datasets that reject mutations outright (typed `403`), regardless
    /// of credentials. `/v1/flush` stays allowed — it persists state
    /// without changing a row.
    pub read_only: Vec<String>,
    /// Connections the reactor will keep registered at once; accepts
    /// beyond it get an immediate `503` (min 1). Idle keep-alive
    /// connections cost a registered fd each, not a thread, so this can
    /// comfortably exceed `workers` by orders of magnitude.
    pub max_connections: usize,
    /// Byte budget of each connection's response outbox (min 1). A
    /// client that lets more than this accumulate unread has its stream
    /// aborted and its connection dropped — backpressure never reaches
    /// the worker pool. (A single response larger than the budget is
    /// fine: the budget gates *pending* bytes, and a buffered response
    /// is one push into an empty outbox.)
    pub outbox_bytes: usize,
    /// This node's replication personality, when it has one. Installs
    /// the `/v1/repl/*` and `/v1/shardmap` endpoints and the
    /// `replication` gauges in `/v1/stats`; `None` (the default)
    /// serves exactly the pre-replication surface. The server stays
    /// ignorant of roles — `gvdb-replication` implements the trait and
    /// the binary wires it in.
    pub repl: Option<Arc<dyn gvdb_core::ReplProvider>>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("addr", &self.addr)
            .field("workers", &self.workers)
            .field("backlog", &self.backlog)
            .field("api_key", &self.api_key.as_ref().map(|_| "<set>"))
            .field("read_only", &self.read_only)
            .field("max_connections", &self.max_connections)
            .field("outbox_bytes", &self.outbox_bytes)
            .field("repl", &self.repl.as_ref().map(|p| p.stats().role))
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            backlog: 64,
            api_key: None,
            read_only: Vec::new(),
            max_connections: 4096,
            outbox_bytes: 1 << 20,
            repl: None,
        }
    }
}

/// Shared serving state handed to the reactor and every worker.
struct AppState {
    service: Arc<dyn GraphService>,
    served: AtomicU64,
    rejected: AtomicU64,
    /// Workers currently executing a request (`/v1/stats`
    /// `active_workers`; the soak tests assert it returns to 0).
    active: AtomicU64,
    /// Connections currently registered with the reactor (`/v1/stats`
    /// `open_connections`).
    connections: AtomicU64,
    workers: usize,
    backlog: usize,
    api_key: Option<String>,
    read_only: Vec<String>,
    repl: Option<Arc<dyn gvdb_core::ReplProvider>>,
    shutdown: Arc<AtomicBool>,
}

/// A running HTTP server (see module docs). Dropping it shuts it down
/// gracefully; call [`Server::shutdown`] to do so explicitly, or
/// [`Server::wait`] to block until another thread shuts it down.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    state: Arc<AppState>,
    shared: Arc<ReactorShared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Server {
    /// Bind and start serving `service` with `config`. Returns as soon as
    /// the listener is live; requests are handled on the worker pool.
    ///
    /// Any [`GraphService`] works: an `Arc<QueryManager>` serves its one
    /// database as dataset `default`, an `Arc<SharedWorkspace>` serves
    /// every registered dataset behind the `dataset=` selector.
    pub fn start(service: Arc<dyn GraphService>, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let backlog = config.backlog.max(1);
        let shutdown = Arc::new(AtomicBool::new(false));
        let state = Arc::new(AppState {
            service,
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            active: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            workers,
            backlog,
            api_key: config.api_key.clone(),
            read_only: config.read_only.clone(),
            repl: config.repl.clone(),
            shutdown: Arc::clone(&shutdown),
        });

        let (jobs_tx, jobs_rx) = std::sync::mpsc::sync_channel::<Job>(backlog);
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&jobs_rx);
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&rx, &state))
            })
            .collect();

        // The reactor owns `jobs_tx`: when it exits, the channel
        // disconnects and the workers drain and stop.
        let (reactor, shared) = Reactor::new(
            listener,
            jobs_tx,
            Arc::clone(&state),
            config.max_connections,
            config.outbox_bytes,
        )?;
        let reactor = std::thread::Builder::new()
            .name("gvdb-reactor".into())
            .spawn(move || reactor.run())?;

        Ok(Server {
            addr,
            shutdown,
            reactor: Some(reactor),
            workers: worker_handles,
            state,
            shared,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of live sessions, summed across every dataset's registry.
    pub fn session_count(&self) -> usize {
        match self.state.service.call(&ApiRequest::Stats) {
            Ok(ApiOutcome::Stats(datasets)) => {
                datasets.iter().map(|d| d.sessions.live as usize).sum()
            }
            _ => 0,
        }
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.state.served.load(Ordering::Relaxed)
    }

    /// Stop the reactor (closing every connection), drain dispatched
    /// requests, join every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// A cloneable handle that can trigger shutdown from another thread
    /// (or a signal handler) while the owning thread sits in
    /// [`Server::wait`].
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shutdown: Arc::clone(&self.shutdown),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Block until the server shuts down — via a [`ShutdownHandle`] from
    /// another thread, or the process being killed. Used by `gvdb serve`
    /// to park the main thread while the pool serves.
    pub fn wait(mut self) {
        if let Some(reactor) = self.reactor.take() {
            reactor.join().ok();
        }
        for w in self.workers.drain(..) {
            w.join().ok();
        }
    }

    fn stop_and_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The waker pipe interrupts the poll, so the reactor observes
        // the flag immediately — no connect-nudge, no poll tick to wait
        // out.
        self.shared.wake();
        if let Some(reactor) = self.reactor.take() {
            reactor.join().ok();
        }
        for w in self.workers.drain(..) {
            w.join().ok();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.reactor.is_some() {
            self.stop_and_join();
        }
    }
}

/// Triggers a [`Server`]'s shutdown from anywhere (see
/// [`Server::shutdown_handle`]). Cloneable; firing it is idempotent.
#[derive(Clone)]
pub struct ShutdownHandle {
    shutdown: Arc<AtomicBool>,
    shared: Arc<ReactorShared>,
}

impl ShutdownHandle {
    /// Stop the server: the woken reactor closes every registered
    /// connection and exits, the workers drain the dispatched requests
    /// and stop, and any thread blocked in [`Server::wait`] returns
    /// once they have joined.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake();
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, state: &AppState) {
    loop {
        // Hold the receiver lock only for the dequeue, not the
        // request's execution.
        let job = rx.lock().recv();
        match job {
            Ok(job) => {
                state.active.fetch_add(1, Ordering::SeqCst);
                execute_job(job, state);
                state.active.fetch_sub(1, Ordering::SeqCst);
            }
            Err(_) => break, // channel disconnected: shutting down
        }
    }
}

/// Execute one dispatched request and push the encoded response into
/// the connection's outbox. The worker never touches the socket, never
/// blocks on the client, and is freed the moment the last byte is
/// *queued* — draining is the reactor's job.
fn execute_job(job: Job, state: &AppState) {
    let Job {
        conn,
        request,
        allow_keep_alive,
    } = job;
    // Whether this connection may stay open after the response,
    // assuming the response itself succeeds. A streamed response must
    // commit to the Connection header before the result exists, which
    // is why errors after the first frame close the connection instead.
    let reusable = request.keep_alive && allow_keep_alive && !state.shutdown.load(Ordering::SeqCst);
    let response = match v1_request(&request, state) {
        Ok(api_request) if wants_stream(&request, &api_request) => {
            state.served.fetch_add(1, Ordering::Relaxed);
            serve_streamed(&api_request, state, &conn, reusable);
            return;
        }
        Ok(api_request) => match state.service.call(&api_request) {
            Ok(outcome) => v1_response(outcome, state),
            Err(e) => v1_error(e),
        },
        Err(response) => response,
    };
    let keep_alive = reusable && response.is_success();
    state.served.fetch_add(1, Ordering::Relaxed);
    // One response, one push: an empty outbox accepts it whatever its
    // size, and a failed push means the connection is already gone.
    let _ = conn.push(&http::encode_response(&response, keep_alive));
    conn.finish(keep_alive);
}

// ---------------------------------------------------------------------------
// The streamed result path
// ---------------------------------------------------------------------------

/// Stream negotiation. Only a `GET` for a `window`, `search` or
/// `aggregate` can stream: `/v1/focus` and the `POST /v1` RPC form are
/// always buffered. Then an explicit `stream=` flag wins (any common
/// falsey spelling opts out, anything else opts in); with no flag, a
/// client that demands `application/json` (and nothing broader) gets the
/// buffered envelope, everyone else streams.
fn wants_stream(request: &Request, api_request: &ApiRequest) -> bool {
    let streamable = matches!(
        api_request,
        ApiRequest::Window { .. } | ApiRequest::Search { .. } | ApiRequest::Aggregate { .. }
    );
    if request.method != "GET" || !streamable {
        return false;
    }
    match request.param("stream") {
        Some("0") | Some("false") | Some("no") | Some("off") => return false,
        Some(_) => return true,
        None => {}
    }
    match &request.accept {
        Some(a) => !(a.contains("application/json") && !a.contains("ndjson") && !a.contains("*/*")),
        None => true,
    }
}

/// A [`FrameSink`] queueing each frame as one HTTP chunk into the
/// connection's bounded outbox. The response head (status +
/// `Transfer-Encoding: chunked`) is queued lazily with the first frame,
/// so a request that fails up-front can still get a proper HTTP error
/// status.
struct OutboxSink<'a> {
    conn: &'a ConnHandle,
    keep_alive: bool,
    /// The request negotiated `encoding=packed`: its rows chunks are
    /// binary, and the head says so.
    packed: bool,
    started: bool,
    push_failed: bool,
}

impl OutboxSink<'_> {
    fn push_frame(&mut self, frame: &ApiFrame) -> Result<(), gvdb_core::PushError> {
        if !self.started {
            self.conn
                .push_patient(&http::chunked_head(self.keep_alive, self.packed))?;
            self.started = true;
        }
        let (chunk, start) = http::encode_chunk(|out| frame.write_chunk(out));
        self.conn.push_patient(&chunk[start..])
    }
}

impl FrameSink for OutboxSink<'_> {
    fn emit(&mut self, frame: &ApiFrame) -> gvdb_api::ApiResult<()> {
        if self.push_frame(frame).is_err() {
            // The connection is gone, or its reader stalled past the
            // producer's patience (see ConnHandle::push_patient): abort
            // the stream so the worker is freed. The reactor drains
            // whatever is queued, then closes the connection.
            self.push_failed = true;
            return Err(ApiError::internal("client disconnected mid-stream"));
        }
        Ok(())
    }
}

/// Serve one streamable request: frames go into the connection's outbox
/// as HTTP chunks; the reactor drains them as the socket allows. Every
/// outcome ends with [`ConnHandle::finish`], which tells the reactor
/// how the response concluded once the outbox drains.
fn serve_streamed(api_request: &ApiRequest, state: &AppState, conn: &ConnHandle, keep_alive: bool) {
    let packed = api_request.is_packed();
    let mut sink = OutboxSink {
        conn,
        keep_alive,
        packed,
        started: false,
        push_failed: false,
    };
    match state.service.call_streamed(api_request, &mut sink) {
        Ok(()) => {
            // A conforming service emits Header…Trailer frames before
            // succeeding, but a degenerate frameless success must still
            // produce a well-formed response: queue the chunked head
            // before the terminator rather than emit a bare `0\r\n\r\n`.
            let complete = (sink.started
                || conn
                    .push_patient(&http::chunked_head(keep_alive, packed))
                    .is_ok())
                && conn.push_patient(http::CHUNKED_END).is_ok();
            conn.finish(complete && keep_alive);
        }
        Err(e) => {
            if sink.push_failed {
                // The connection is doomed (closed, or its reader
                // stalled out the stream): drain what's queued, then
                // close.
                conn.finish(false);
            } else if sink.started {
                // The chunked head is queued — the HTTP status is
                // spent. Report the failure in-band as a terminal Error
                // frame, close the chunk stream properly, then drop the
                // connection.
                let _ = sink.push_frame(&ApiFrame::Error(e));
                let _ = conn.push(http::CHUNKED_END);
                conn.finish(false);
            } else {
                // Nothing was queued yet: a plain buffered error
                // response (errors close).
                let _ = conn.push(&http::encode_response(&v1_error(e), false));
                conn.finish(false);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// The typed request an HTTP request asks for — parsed once, gated by
/// [`authorize`] — or the response that answers it outright: the
/// liveness probe, the replication surface, or a typed `4xx`. Paths
/// outside `/v1` get the typed `404`.
fn v1_request(request: &Request, state: &AppState) -> Result<ApiRequest, Response> {
    let Some(rest) = request.path.strip_prefix("/v1") else {
        return Err(v1_error(ApiError::not_found(format!(
            "no endpoint {} {} (the API lives under /v1)",
            request.method, request.path
        ))));
    };
    if let Some(response) = route_repl(rest, request, state) {
        return Err(response);
    }
    let dataset = request.param("dataset").map(str::to_string);
    let api_request = match (request.method.as_str(), rest) {
        ("GET", "/healthz") => return Err(Response::ok("{\"ok\":true}")),
        // The RPC form: the body is a full serialized ApiRequest.
        ("POST", "" | "/") => ApiRequest::from_json(&request.body).map_err(v1_error)?,
        ("GET", "/window" | "/search" | "/aggregate") => {
            ApiRequest::from_query(rest, &request.params).map_err(v1_error)?
        }
        ("GET", "/datasets") => ApiRequest::ListDatasets,
        ("GET", "/layers") => ApiRequest::ListLayers { dataset },
        ("GET", "/focus") => match request.parse("node") {
            Some(node) => ApiRequest::Focus {
                dataset,
                layer: request.parse("layer").unwrap_or(0),
                node,
            },
            None => return Err(v1_error(ApiError::bad_request("need node"))),
        },
        ("GET" | "POST", "/session/new") => ApiRequest::SessionNew {
            dataset,
            window: RectDto::from_query(&request.params),
        },
        ("GET" | "POST", "/session/close") => match request.parse("session") {
            Some(session) => ApiRequest::SessionClose { dataset, session },
            None => return Err(v1_error(ApiError::bad_request("need session"))),
        },
        ("GET", "/stats") => ApiRequest::Stats,
        ("POST", "/edge") => edge_body_request(request, dataset, false).map_err(v1_error)?,
        ("POST", "/edge/delete") => edge_body_request(request, dataset, true).map_err(v1_error)?,
        ("POST", "/flush") => ApiRequest::Flush { dataset },
        _ => {
            return Err(v1_error(ApiError::not_found(format!(
                "no v1 endpoint {} {}",
                request.method, request.path
            ))))
        }
    };
    authorize(&api_request, request, state).map_err(v1_error)?;
    Ok(api_request)
}

/// The replication surface: `/v1/repl/*` and `/v1/shardmap`, delegated
/// verbatim to the installed [`gvdb_core::ReplProvider`]. `None` means
/// "not a replication path — keep routing"; a replication path on a
/// node without a provider falls through to the ordinary v1 *not
/// found*, indistinguishable from a pre-replication build. Every
/// replication endpoint is a `GET`: followers pull, so no request can
/// rewrite a node's database through this surface.
fn route_repl(rest: &str, request: &Request, state: &AppState) -> Option<Response> {
    if rest != "/shardmap" && !rest.starts_with("/repl/") {
        return None;
    }
    let provider = state.repl.as_ref()?;
    let result = match (request.method.as_str(), rest) {
        ("GET", "/repl/status") => provider.status_json(),
        ("GET", "/repl/checkpoint") => match request.parse("seq") {
            Some(seq) => provider.checkpoint_json(seq),
            None => Err(ApiError::bad_request("need seq")),
        },
        ("GET", "/repl/snapshot") => provider.snapshot_json(),
        ("GET", "/shardmap") => provider.shard_map_json(),
        _ => return None,
    };
    Some(match result {
        Ok(json) => Response::ok(json),
        Err(e) => v1_error(e),
    })
}

/// The write gate: mutations (and `/v1/flush`) must present the
/// configured API key, and mutations additionally bounce off read-only
/// datasets. Reads are never gated. Covers every ingress — the dedicated
/// `/v1/edge*` routes and mutations smuggled through the RPC form alike —
/// because it runs on the parsed [`ApiRequest`], not the URL.
fn authorize(
    api_request: &ApiRequest,
    request: &Request,
    state: &AppState,
) -> Result<(), ApiError> {
    let is_mutation = api_request.is_mutation();
    let needs_key = is_mutation || matches!(api_request, ApiRequest::Flush { .. });
    if !needs_key {
        return Ok(());
    }
    check_key(request, state)?;
    if is_mutation && !state.read_only.is_empty() {
        // Resolve which dataset the mutation addresses: the explicit
        // selector, or the service's only dataset. (An ambiguous
        // unaddressed mutation fails dataset resolution later anyway.)
        let name = match api_request.dataset() {
            Some(n) => Some(n.to_string()),
            None => {
                let names = state.service.dataset_names();
                (names.len() == 1).then(|| names.into_iter().next().expect("len checked"))
            }
        };
        if let Some(name) = name {
            if state.read_only.iter().any(|d| d == &name) {
                return Err(ApiError::forbidden(format!(
                    "dataset '{name}' is read-only"
                )));
            }
        }
    }
    Ok(())
}

/// With an API key configured, `request` must present it as
/// `Authorization: Bearer <key>`, or it gets the typed `401`.
fn check_key(request: &Request, state: &AppState) -> Result<(), ApiError> {
    let Some(key) = &state.api_key else {
        return Ok(());
    };
    let expected = format!("Bearer {key}");
    let presented = request.authorization.as_deref().unwrap_or("");
    if constant_time_eq(presented.as_bytes(), expected.as_bytes()) {
        Ok(())
    } else {
        Err(ApiError::unauthorized(
            "this operation requires 'Authorization: Bearer <api-key>'",
        ))
    }
}

/// Credential comparison that doesn't leak how long a correct prefix
/// the caller guessed: the XOR fold touches every byte pair regardless
/// of where the first mismatch sits. (Length mismatch returns early —
/// the header's length is observable from the request anyway.)
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

/// Parse a mutation body. Insertions accept `{"dataset":…,"layer":…,
/// "edge":{…}}` or a bare edge object; deletions `{"rid":…}` (+ optional
/// dataset/layer). Query parameters fill whatever the body omits.
fn edge_body_request(
    request: &Request,
    dataset: Option<String>,
    delete: bool,
) -> Result<ApiRequest, ApiError> {
    let v = Json::parse(&request.body)
        .map_err(|e| ApiError::bad_request(format!("malformed mutation body: {e}")))?;
    let dataset = v
        .get("dataset")
        .and_then(Json::as_str)
        .map(String::from)
        .or(dataset);
    let layer = v
        .get("layer")
        .and_then(Json::as_usize)
        .or_else(|| request.parse("layer"))
        .unwrap_or(0);
    if delete {
        let rid = v
            .get("rid")
            .and_then(Json::as_u64)
            .or_else(|| request.parse("rid"))
            .ok_or_else(|| ApiError::bad_request("need rid"))?;
        Ok(ApiRequest::DeleteEdge {
            dataset,
            layer,
            rid,
        })
    } else {
        let edge = EdgeDto::from_value(v.get("edge").unwrap_or(&v))?;
        Ok(ApiRequest::InsertEdge {
            dataset,
            layer,
            edge,
        })
    }
}

/// The per-response `X-Gvdb-*` telemetry headers of a window outcome.
fn window_headers(outcome: &WindowOutcome) -> String {
    let mut headers = format!(
        "X-Gvdb-Source: {}\r\nX-Gvdb-Rows-Reused: {}\r\nX-Gvdb-Rows-Fetched: {}\r\nX-Gvdb-Epoch: {}\r\n",
        outcome.source().as_str(),
        outcome.response.rows_reused,
        outcome.response.rows_fetched,
        outcome.response.epoch
    );
    if let Some(sid) = outcome.session {
        headers.push_str(&format!("X-Gvdb-Session: {sid}\r\n"));
    }
    headers
}

/// Format a v1 success. Window outcomes become the typed envelope with
/// the `Arc`-shared payload spliced in (no copy); stats gain the serving
/// counters only the HTTP layer knows.
fn v1_response(outcome: ApiOutcome, state: &AppState) -> Response {
    match outcome {
        ApiOutcome::Window(outcome) => {
            let head = format!(
                "{{\"kind\":\"window\",\"window\":{},\"graph\":",
                outcome.meta().to_json()
            );
            Response {
                status: "200 OK",
                extra_headers: window_headers(&outcome),
                body: Body::Enveloped {
                    head,
                    graph: outcome.response.json,
                    tail: "}".into(),
                },
            }
        }
        ApiOutcome::Stats(datasets) => {
            Response::ok(ApiResponse::Stats(server_stats(state, datasets)).to_json())
        }
        other => Response::ok(other.into_response().to_json()),
    }
}

/// Format a v1 failure: the typed error body under the kind's status.
fn v1_error(e: ApiError) -> Response {
    Response {
        status: e.kind.http_status(),
        extra_headers: String::new(),
        body: ApiResponse::Error(e).to_json().into(),
    }
}

/// Per-dataset stats wrapped with the serving counters.
fn server_stats(state: &AppState, datasets: Vec<DatasetStats>) -> StatsDto {
    StatsDto {
        served: state.served.load(Ordering::Relaxed),
        rejected: state.rejected.load(Ordering::Relaxed),
        workers: state.workers as u64,
        backlog: state.backlog as u64,
        // Both gauges exclude the request reporting them (the worker
        // building this response, the connection carrying it): an idle
        // server reports zeros, so "quiescent" is directly observable.
        active_workers: state.active.load(Ordering::SeqCst).saturating_sub(1),
        open_connections: state.connections.load(Ordering::SeqCst).saturating_sub(1),
        cpus: std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1),
        shards_policy: "min(16, max(2, 2*cpus))".into(),
        datasets,
        replication: state.repl.as_ref().map(|p| p.stats()),
    }
}
