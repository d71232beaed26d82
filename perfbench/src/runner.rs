//! One benchmark run: set up, draw the inputs from the seed, drive the
//! workload over the `/v1` wire, check the answers, compute the metrics.

use crate::deploy::{deploy, Dataset, Deployment, SetupTimes, POOL_PAGES, WORKERS};
use crate::openloop::{run_closed_loop, run_open_loop, Timing};
use crate::probe::{Handles, Samples};
use crate::stats::{median, quantile, ratio, Metric, Rng};
use crate::trace::{
    attach_service_spans, search_key, self_time_ns, window_key, write_spans, Span, Tracer,
};
use crate::workload::{
    cold_jumps, hot_viewports, navigate_walks, op_mix, search_terms, LabelIndex, Op, Term,
    WindowReq, Workload, HOT_VIEWPORTS,
};
use gvdb_api::{reassemble_graph, EdgeDto, Predicate, RectDto, RowBatch};
use gvdb_client::{GvdbClient, WindowParams};
use gvdb_core::{build_graph_json, CacheStats, QueryManager};
use gvdb_spatial::Rect;
use gvdb_storage::{GraphDb, PoolStats};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Client threads, each with its own keep-alive connection.
pub const CLIENTS: usize = 2;
/// The `cold_jump` open-loop rate, requests per second: about half the
/// capacity of 2 saturating connections on a 2-vCPU host (≈115/s).
pub const JUMP_RATE: f64 = 56.0;
/// How far behind its schedule the `cold_jump` generator may fall before
/// it drops the requests still due (each counts as failed).
pub const JUMP_GRACE: Duration = Duration::from_secs(2);
/// One window in this many is checked against the cold reference.
pub const CHECK_EVERY: usize = 8;
/// At most this many reference checks per client and phase.
pub const CHECK_CAP: usize = 64;
/// In the traced phase, one request in this many is probed below the
/// service (the query layer is probed on every request of the
/// cache-driven workloads, whose cache state it must follow).
pub const PROBE_EVERY: usize = 4;
/// Regime: `navigate` runs on the delta path, so at least this share of
/// its window-cache lookups are partial hits.
pub const NAVIGATE_MIN_PARTIAL: f64 = 0.7;
/// Regime: `cold_jump` repeats no window, so at most this share of its
/// lookups are exact hits.
pub const COLD_JUMP_MAX_HIT: f64 = 0.05;
/// Regime: `cold_jump` overflows the buffer pool (hit ratio at most this).
pub const COLD_JUMP_MAX_POOL_HIT: f64 = 0.5;
/// Regime: `search_edit`'s hot viewports fit the buffer pool (hit ratio
/// at least this).
pub const SEARCH_EDIT_MIN_POOL_HIT: f64 = 0.6;

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "window_p50_ms",
    "window_p99_ms",
    "ttfr_p50_ms",
    "throughput_rps",
    "rss_mib",
    "wire_bytes_per_row",
];

/// The per-layer metrics of the traced run, in `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 37] = [
    "setup.generate_s",
    "setup.partition_s",
    "setup.layout_s",
    "setup.organize_s",
    "setup.abstraction_s",
    "setup.indexing_s",
    "setup.open_s",
    "server.overhead_ms_p50",
    "server.sheds",
    "service.call_ms_p50",
    "query.window_ms_p50",
    "query.db_ms_p50",
    "query.json_ms_p50",
    "query.cache_ms_p50",
    "cache.hit_ratio",
    "cache.partial_ratio",
    "cache.reuse_frac",
    "filter.index_frac",
    "storage.rtree_ms_p50",
    "storage.candidates_per_row",
    "storage.fetch_ms_p50",
    "pool.hit_ratio",
    "pool.misses_per_req",
    "pool.compression_ratio",
    "storage.file_bytes_per_row",
    "json.build_ms_p50",
    "json.bytes_per_row",
    "pack.encode_ms_p50",
    "pack.ratio",
    "client.decode_ms_p50",
    "search.trie_ms_p50",
    "search.hits_per_query",
    "edit.insert_ms_p50",
    "edit.delete_ms_p50",
    "loadgen.late_ms_p99",
    "trace.overhead_frac",
    "trace.selfsum_frac",
];

/// On `cold_jump`, the self times of a traced request's spans (client,
/// service, decode) must add up to the request's duration within this
/// share: more means spans overlap, less that a stage went unrecorded.
pub const SELFSUM_TOLERANCE: f64 = 0.05;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What a run reports.
pub struct Outcome {
    /// No output mismatched, the workload stayed in its regime, and a
    /// traced run's spans added up.
    pub correct: bool,
    /// Operations attempted in the measured phase(s).
    pub attempted: u64,
    /// Errors plus correctness mismatches.
    pub failed: u64,
    /// The metrics of the final line: end-to-end, or per-layer when
    /// traced.
    pub metrics: Vec<Metric>,
    /// Human-readable lines (every metric the workload defines, notes).
    pub report: Vec<String>,
    /// The run record: seed, host, sizes.
    pub record: String,
}

/// The dataset each workload runs on.
pub fn dataset(w: Workload) -> Dataset {
    match w {
        Workload::Navigate | Workload::ColdJump => Dataset::Patent(12_000),
        Workload::SearchEdit => Dataset::Wikidata(20_000),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Window,
    Zoom,
    Filtered,
    Search,
    Focus,
    Insert,
    Delete,
}

impl Kind {
    fn is_window(self) -> bool {
        matches!(self, Kind::Window | Kind::Zoom | Kind::Filtered)
    }
}

/// One completed operation.
#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: Kind,
    ms: f64,
    ttfr_ms: f64,
    rows: u64,
    wire: u64,
    reused: u64,
    fetched: u64,
}

/// A streamed window's digest, to compare with the cold reference
/// after the clock stops.
struct Check {
    layer: usize,
    rect: Rect,
    epoch: u64,
    digest: (u64, u64, usize),
}

fn hash_of(value: impl Hash) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Digest of a window payload `{"nodes":[…],"edges":[…]}`: the edge
/// objects byte for byte and in order, the node objects byte for byte as
/// a multiset. A delta-path payload emits the same node objects as a
/// cold build of the same window, but in another order.
fn digest(text: &str) -> (u64, u64, usize) {
    let (mut nodes, mut edges) = (0u64, std::collections::hash_map::DefaultHasher::new());
    let (mut depth, mut array, mut start) = (0, 0, 0);
    let (mut in_string, mut escaped) = (false, false);
    for (i, b) in text.bytes().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'[' => array += 1,
            b'{' => {
                depth += 1;
                start = i;
            }
            b'}' => {
                if depth == 2 && array == 1 {
                    nodes = nodes.wrapping_add(hash_of(&text[start..=i]));
                } else if depth == 2 {
                    text[start..=i].hash(&mut edges);
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    (nodes, edges.finish(), text.len())
}

/// What the clients saw in one phase.
#[derive(Default)]
struct ClientOut {
    samples: Vec<Sample>,
    checks: Vec<Check>,
    checked: u64,
    unverified: u64,
    errors: u64,
    mismatches: u64,
    probes: Samples,
    messages: Vec<String>,
}

impl ClientOut {
    fn note(&mut self, msg: String) {
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }

    fn error(&mut self, msg: String) {
        self.errors += 1;
        self.note(format!("error: {msg}"));
    }

    fn mismatch(&mut self, msg: String) {
        self.mismatches += 1;
        self.note(format!("mismatch: {msg}"));
    }

    fn merge(&mut self, o: ClientOut) {
        self.samples.extend(o.samples);
        self.checks.extend(o.checks);
        self.checked += o.checked;
        self.unverified += o.unverified;
        self.errors += o.errors;
        self.mismatches += o.mismatches;
        self.probes.merge(o.probes);
        for m in o.messages {
            self.note(m);
        }
    }
}

/// A pending read-your-write expectation on a hot viewport: the edge
/// `rid` from `source` to `target` is (or, once deleted, is not) in
/// every read at `epoch` or later. The endpoints matter: another client
/// may reuse a deleted row id for its own edge.
#[derive(Debug, Clone, Copy)]
struct Expect {
    rid: u64,
    source: u64,
    target: u64,
    epoch: u64,
    present: bool,
}

impl Expect {
    /// Whether the payload `graph` holds the edge.
    fn found_in(&self, graph: &str) -> bool {
        graph.contains(&format!(
            "{{\"id\":{},\"source\":{},\"target\":{},",
            self.rid, self.source, self.target
        ))
    }
}

/// One client thread's connection and position in its inputs.
struct Client {
    id: usize,
    api: GvdbClient,
    cursor: usize,
    session: Option<u64>,
    prev: Option<WindowReq>,
    /// The pending insert: hot viewport and edge.
    pending: Option<(usize, Expect)>,
    expect: [Option<Expect>; HOT_VIEWPORTS],
    last_hits: Vec<u64>,
    out: ClientOut,
}

/// The run's inputs, drawn from the seed before the clock starts.
#[derive(Default)]
struct Inputs {
    walks: Vec<Vec<WindowReq>>,
    jumps: Vec<WindowReq>,
    hot: Vec<Vec<Rect>>,
    hot_nodes: Vec<Vec<Vec<u64>>>,
    ops: Vec<Vec<Op>>,
    terms: Vec<Term>,
    filter: Option<Predicate>,
}

fn inside(rect: &Rect, (x, y): (f64, f64)) -> bool {
    let (mx, my) = (rect.width() * 0.05, rect.height() * 0.05);
    x > rect.min_x + mx && x < rect.max_x - mx && y > rect.min_y + my && y < rect.max_y - my
}

impl Inputs {
    fn new(
        w: Workload,
        dep: &Deployment,
        cold: &QueryManager,
        seed: u64,
        seconds: f64,
    ) -> Result<Inputs, String> {
        let mut rng = Rng::new(seed);
        let mut inputs = Inputs::default();
        match w {
            Workload::Navigate => {
                inputs.walks = navigate_walks(&dep.bounds, dep.layers, CLIENTS, 10_000, &mut rng);
            }
            Workload::ColdJump => {
                let count = (JUMP_RATE * seconds * 1.2) as usize + 16;
                inputs.jumps = cold_jumps(&dep.bounds, dep.layers, count, &mut rng);
            }
            Workload::SearchEdit => {
                let labels: Vec<&str> = dep.labels.iter().map(String::as_str).collect();
                let index = LabelIndex::new(labels.iter().copied());
                inputs.terms = search_terms(&labels, &index, 64, &mut rng);
                if inputs.terms.is_empty() {
                    return Err("no search terms could be drawn from the labels".into());
                }
                let nodes_in = |r: &Rect| -> Vec<u64> {
                    (0..dep.positions.len())
                        .filter(|&i| inside(r, dep.positions[i]))
                        .map(|i| i as u64)
                        .collect()
                };
                // Hot viewports of typical size: in each cell, the draw
                // whose row count is closest to the median of the
                // dataset's viewports (a fixed sample, not the seed's), so
                // the hot set's cost barely depends on the seed.
                let rows = |r: &Rect| {
                    cold.window_query(0, r)
                        .map_or(0.0, |resp| resp.rows.len() as f64)
                };
                let sizes: Vec<f64> = hot_viewports(&dep.bounds, 256, &mut Rng::new(0), |_| 0.0)
                    .iter()
                    .map(rows)
                    .collect();
                let typical = median(&sizes);
                let hot = hot_viewports(&dep.bounds, CLIENTS * HOT_VIEWPORTS, &mut rng, |r| {
                    if nodes_in(r).len() >= 2 {
                        (rows(r) - typical).abs()
                    } else {
                        f64::INFINITY
                    }
                });
                if hot.len() < CLIENTS * HOT_VIEWPORTS {
                    return Err("too few viewports hold two nodes".into());
                }
                // One label prefix matching 0.5% to 3% of the nodes.
                let prefixes: Vec<String> = inputs
                    .terms
                    .iter()
                    .map(|t| t.text.chars().take(3).collect::<String>())
                    .filter(|p: &String| p.len() == 3 && p.chars().all(char::is_alphanumeric))
                    .filter(|p| {
                        let share = ratio(
                            labels.iter().filter(|l| l.starts_with(p.as_str())).count() as f64,
                            labels.len() as f64,
                        );
                        (0.005..=0.03).contains(&share)
                    })
                    .collect();
                let prefix = prefixes
                    .first()
                    .ok_or("no label prefix of the wanted selectivity")?;
                inputs.filter = Some(Predicate::NodeLabelPrefix(prefix.clone()));
                for rects in hot.chunks(HOT_VIEWPORTS) {
                    let rects = rects.to_vec();
                    let nodes = rects.iter().map(nodes_in).collect();
                    inputs.hot.push(rects);
                    inputs.hot_nodes.push(nodes);
                    inputs
                        .ops
                        .push(op_mix(50_000, inputs.terms.len(), &mut rng));
                }
            }
        }
        Ok(inputs)
    }
}

/// What the workload steps share.
struct Ctx<'a> {
    dep: &'a Deployment,
    inputs: &'a Inputs,
    /// Set in the traced phase only.
    tracer: Option<&'a Tracer>,
    probes: Option<Handles<'a>>,
}

fn dto(r: &Rect) -> RectDto {
    RectDto {
        min_x: r.min_x,
        min_y: r.min_y,
        max_x: r.max_x,
        max_y: r.max_y,
    }
}

fn ms_since(origin: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(origin).as_secs_f64() * 1e3
}

/// A drained window stream.
struct Read {
    req: u64,
    epoch: u64,
    trailer_epoch: u64,
    sample: Sample,
    graph: Option<String>,
}

/// Stream one window and drain it, decoding every batch as
/// `WindowStream::next_batch` does. Times run from `origin` (the send
/// in a closed loop, the due time in an open loop); the first-rows
/// stamp is taken where `next_batch_timed` takes it, before decode.
/// With `keep` the fragments are reassembled into the payload.
fn read_window(
    api: &GvdbClient,
    params: &WindowParams,
    kind: Kind,
    origin: Instant,
    keep: bool,
    tracer: Option<&Tracer>,
) -> Result<Read, String> {
    let req = tracer.map_or(0, Tracer::next_id);
    let sent = Instant::now();
    let mut stream = api.window_stream(params).map_err(|e| e.to_string())?;
    let mut first = None;
    let mut rows = 0u64;
    let mut fragments = Vec::new();
    while let Some(batch) = stream.next_batch_raw().map_err(|e| e.to_string())? {
        first.get_or_insert_with(Instant::now);
        rows += batch.len() as u64;
        let plain = match tracer {
            Some(t) => {
                let start = Instant::now();
                let plain = batch.into_plain();
                t.record(t.next_id(), req, "client.decode", 0, start, Instant::now());
                plain
            }
            None => batch.into_plain(),
        };
        if let (true, RowBatch::Graph { graph, .. }) = (keep, plain) {
            fragments.push(graph);
        }
    }
    let done = Instant::now();
    let trailer = stream
        .trailer()
        .ok_or("window stream ended without a trailer")?;
    if let Some(t) = tracer {
        let key = window_key(params.layer.unwrap_or(0), &params.window);
        t.record(req, 0, "client.window", key, sent, done);
    }
    let graph = if keep {
        Some(reassemble_graph(fragments.iter().map(String::as_str)).map_err(|e| e.to_string())?)
    } else {
        None
    };
    Ok(Read {
        req,
        epoch: stream.header.epoch,
        trailer_epoch: trailer.epoch,
        sample: Sample {
            kind,
            ms: ms_since(origin, done),
            ttfr_ms: ms_since(origin, first.unwrap_or(done)),
            rows,
            wire: stream.rows_wire_bytes(),
            reused: trailer.rows_reused,
            fetched: trailer.rows_fetched,
        },
        graph,
    })
}

/// Record a read window, keep its digest for the reference check, and
/// probe the layers below when tracing.
fn window_done(
    c: &mut Client,
    ctx: &Ctx,
    step: &WindowReq,
    read: Read,
    anchor: Option<Rect>,
    probe_query: bool,
) {
    c.out.samples.push(read.sample);
    if let Some(g) = &read.graph {
        c.out.checks.push(Check {
            layer: step.layer,
            rect: step.rect,
            epoch: read.epoch,
            digest: digest(g),
        });
    }
    probe_window(
        c,
        ctx,
        step.layer,
        &step.rect,
        anchor,
        None,
        read.req,
        probe_query,
    );
}

/// In the traced phase, probe the layers under window request `req`:
/// the query layer when `query` is set, the storage layer one request in
/// [`PROBE_EVERY`].
#[allow(clippy::too_many_arguments)]
fn probe_window(
    c: &mut Client,
    ctx: &Ctx,
    layer: usize,
    rect: &Rect,
    anchor: Option<Rect>,
    predicate: Option<&Predicate>,
    req: u64,
    query: bool,
) {
    let Some(h) = &ctx.probes else { return };
    let out = &mut c.out.probes;
    let mut result = Ok(());
    if query {
        result = h.probe_query(layer, rect, anchor.as_ref(), predicate, req, out);
    }
    if c.cursor.is_multiple_of(PROBE_EVERY) {
        result = result.and_then(|()| h.probe_storage(layer, rect, req, out));
    }
    if let Err(e) = result {
        c.out.error(e);
    }
}

fn wants_check(c: &Client) -> bool {
    c.cursor.is_multiple_of(CHECK_EVERY)
        && c.out.checks.len() + (c.out.checked as usize) < CHECK_CAP
}

/// One `navigate` step: the next pan (or zoom) of the user's session.
fn navigate_step(c: &mut Client, ctx: &Ctx) {
    let walk = &ctx.inputs.walks[c.id];
    let step = walk[c.cursor % walk.len()];
    c.cursor += 1;
    let params = WindowParams {
        layer: Some(step.layer),
        window: dto(&step.rect),
        session: c.session,
        ..Default::default()
    };
    let kind = if step.zoom { Kind::Zoom } else { Kind::Window };
    let keep = wants_check(c);
    match read_window(&c.api, &params, kind, Instant::now(), keep, ctx.tracer) {
        Ok(read) => {
            let anchor = c.prev.filter(|p| p.layer == step.layer).map(|p| p.rect);
            window_done(c, ctx, &step, read, anchor, true);
        }
        Err(e) => c.out.error(e),
    }
    c.prev = Some(step);
}

/// One `cold_jump` request, due at `due`.
fn jump_step(c: &mut Client, ctx: &Ctx, i: usize, due: Instant) {
    let step = ctx.inputs.jumps[i % ctx.inputs.jumps.len()];
    c.cursor = i;
    let params = WindowParams {
        layer: Some(step.layer),
        window: dto(&step.rect),
        ..Default::default()
    };
    let keep = wants_check(c);
    match read_window(&c.api, &params, Kind::Window, due, keep, ctx.tracer) {
        Ok(read) => window_done(
            c,
            ctx,
            &step,
            read,
            None,
            c.cursor.is_multiple_of(PROBE_EVERY),
        ),
        Err(e) => c.out.error(e),
    }
}

/// A `search_edit` window on hot viewport `v`, optionally filtered.
/// Checks a pending read-your-write expectation, and one unfiltered
/// read in [`CHECK_EVERY`] against a cache-bypassing read of the
/// served manager at the same epoch.
fn hot_window(c: &mut Client, ctx: &Ctx, v: usize, filtered: bool) {
    let rect = ctx.inputs.hot[c.id][v];
    let predicate = if filtered {
        ctx.inputs.filter.clone()
    } else {
        None
    };
    let expect = if filtered { None } else { c.expect[v].take() };
    let check = !filtered && wants_check(c);
    let params = WindowParams {
        layer: Some(0),
        window: dto(&rect),
        predicate: predicate.clone(),
        ..Default::default()
    };
    let kind = if filtered {
        Kind::Filtered
    } else {
        Kind::Window
    };
    let read = match read_window(
        &c.api,
        &params,
        kind,
        Instant::now(),
        expect.is_some() || check,
        ctx.tracer,
    ) {
        Ok(read) => read,
        Err(e) => {
            c.expect[v] = expect;
            return c.out.error(e);
        }
    };
    c.out.samples.push(read.sample);
    let graph = read.graph.as_deref().unwrap_or("");
    // A stream an edit raced (trailer epoch past the header's) may end
    // early by contract: it proves nothing, the expectation waits.
    let consistent = read.trailer_epoch == read.epoch;
    if let (Some(e), false) = (expect, consistent) {
        c.expect[v] = Some(e);
        c.out.unverified += 1;
    } else if let Some(e) = expect {
        let present = e.found_in(graph);
        if read.epoch < e.epoch || present != e.present {
            c.out.mismatch(format!(
                "read-your-write on viewport {v}: rid {} present={present} (want {}) at epoch {} (edit epoch {})",
                e.rid, e.present, read.epoch, e.epoch
            ));
        }
    }
    if check {
        match ctx.dep.qm.window_rows_range(0, &rect, 0, u64::MAX) {
            Ok((epoch, rows)) if consistent && epoch == read.epoch => {
                c.out.checked += 1;
                if digest(&build_graph_json(&rows).text) != digest(graph) {
                    c.out.mismatch(format!(
                        "window {v} differs from the cold read at epoch {epoch}"
                    ));
                }
            }
            Ok(_) => c.out.unverified += 1,
            Err(e) => c.out.error(format!("reference read: {e}")),
        }
    }
    probe_window(c, ctx, 0, &rect, None, predicate.as_ref(), read.req, true);
}

fn search(c: &mut Client, ctx: &Ctx, t: usize) {
    let term = &ctx.inputs.terms[t];
    let req = ctx.tracer.map_or(0, Tracer::next_id);
    let sent = Instant::now();
    let result = c
        .api
        .search_stream(None, 0, &term.text)
        .and_then(|mut stream| {
            let mut hits = Vec::new();
            while let Some(batch) = stream.next_batch()? {
                if let RowBatch::Hits { hits: h } = batch {
                    hits.extend(h.into_iter().map(|h| h.node));
                }
            }
            Ok(hits)
        });
    let done = Instant::now();
    let mut hits = match result {
        Ok(hits) => hits,
        Err(e) => return c.out.error(format!("search '{}': {e}", term.text)),
    };
    if let Some(tr) = ctx.tracer {
        tr.record(req, 0, "client.search", search_key(&term.text), sent, done);
    }
    c.out.samples.push(Sample {
        kind: Kind::Search,
        ms: ms_since(sent, done),
        ttfr_ms: 0.0,
        rows: hits.len() as u64,
        wire: 0,
        reused: 0,
        fetched: 0,
    });
    hits.sort_unstable();
    if hits != term.expect {
        c.out.mismatch(format!(
            "search '{}' returned {} hits, the label set has {}",
            term.text,
            hits.len(),
            term.expect.len()
        ));
    }
    if let Some(h) = &ctx.probes {
        if let Err(e) = h.probe_search(&term.text, req, &mut c.out.probes) {
            c.out.error(e);
        }
    }
    c.last_hits = hits;
}

fn simple(c: &mut Client, kind: Kind, sent: Instant, rows: u64) {
    c.out.samples.push(Sample {
        kind,
        ms: ms_since(sent, Instant::now()),
        ttfr_ms: 0.0,
        rows,
        wire: 0,
        reused: 0,
        fetched: 0,
    });
}

fn focus(c: &mut Client, ctx: &Ctx) {
    let node = match c.last_hits.len() {
        0 => ctx.inputs.hot_nodes[c.id][0][0],
        n => c.last_hits[c.cursor % n],
    };
    let sent = Instant::now();
    match c.api.focus(None, 0, node) {
        Ok((0, _)) => c
            .out
            .mismatch(format!("focus on node {node} returned no rows")),
        Ok((rows, _)) => simple(c, Kind::Focus, sent, rows),
        Err(e) => c.out.error(format!("focus {node}: {e}")),
    }
}

/// After an edit, drop the probe handle's cached windows as the server
/// drops its own. The handle only reads the file (a second writer would
/// corrupt it), so it never sees the edited row itself.
fn invalidate_probe(ctx: &Ctx) {
    if let Some(h) = &ctx.probes {
        h.query.edit_db(|_| ());
    }
}

/// Delete the client's pending insert, or insert an edge between two
/// nodes inside hot viewport `v`.
fn edit(c: &mut Client, ctx: &Ctx, v: usize) {
    let sent = Instant::now();
    if let Some((pv, edge)) = c.pending.take() {
        match c.api.delete_edge(None, 0, edge.rid) {
            Ok(m) => {
                simple(c, Kind::Delete, sent, 1);
                invalidate_probe(ctx);
                c.expect[pv] = Some(Expect {
                    epoch: m.epoch,
                    present: false,
                    ..edge
                });
            }
            Err(e) => c.out.error(format!("delete {}: {e}", edge.rid)),
        }
        return;
    }
    let nodes = &ctx.inputs.hot_nodes[c.id][v];
    // Two distinct nodes of the viewport (it holds at least two).
    let n = nodes.len();
    let i = c.cursor % n;
    let j = (i + 1 + (c.cursor / n) % (n - 1)) % n;
    let (a, b) = (nodes[i] as usize, nodes[j] as usize);
    let (p, q) = (ctx.dep.positions[a], ctx.dep.positions[b]);
    let edge = EdgeDto {
        node1_id: a as u64,
        node1_label: ctx.dep.labels[a].clone(),
        node2_id: b as u64,
        node2_label: ctx.dep.labels[b].clone(),
        edge_label: "perfbench:edit".into(),
        x1: p.0,
        y1: p.1,
        x2: q.0,
        y2: q.1,
        directed: true,
    };
    match c.api.insert_edge(None, 0, edge) {
        Ok(m) => match m.rid {
            Some(rid) => {
                simple(c, Kind::Insert, sent, 1);
                invalidate_probe(ctx);
                let edge = Expect {
                    rid,
                    source: a as u64,
                    target: b as u64,
                    epoch: m.epoch,
                    present: true,
                };
                c.pending = Some((v, edge));
                c.expect[v] = Some(edge);
            }
            None => c.out.mismatch("insert returned no row id".into()),
        },
        Err(e) => c.out.error(format!("insert: {e}")),
    }
}

fn search_edit_step(c: &mut Client, ctx: &Ctx) {
    let ops = &ctx.inputs.ops[c.id];
    let op = ops[c.cursor % ops.len()];
    c.cursor += 1;
    match op {
        Op::Window(v) => hot_window(c, ctx, v, false),
        Op::Filtered(v) => hot_window(c, ctx, v, true),
        Op::Search(t) => search(c, ctx, t),
        Op::Focus => focus(c, ctx),
        Op::Edit(v) => edit(c, ctx, v),
    }
}

/// Server-side counters at one instant.
struct Counters {
    cache: CacheStats,
    pool: PoolStats,
    chooser: (u64, u64),
    rejected: u64,
}

fn counters(dep: &Deployment) -> Result<Counters, String> {
    let rejected = GvdbClient::new(dep.addr())
        .stats()
        .map_err(|e| format!("stats: {e}"))?
        .rejected;
    Ok(Counters {
        cache: dep.qm.cache_stats(),
        pool: dep.qm.pool_stats(),
        chooser: dep.qm.chooser_counts(),
        rejected,
    })
}

/// One measured phase.
struct Phase {
    secs: f64,
    out: ClientOut,
    timings: Vec<Timing>,
    before: Counters,
    after: Counters,
    rss_mib: f64,
}

impl Phase {
    fn windows(&self) -> impl Iterator<Item = &Sample> {
        self.out.samples.iter().filter(|s| s.kind.is_window())
    }

    fn window_ms(&self, q: f64) -> f64 {
        quantile(&self.windows().map(|s| s.ms).collect::<Vec<_>>(), q)
    }

    fn kind_ms(&self, kinds: &[Kind], q: f64) -> f64 {
        let xs: Vec<f64> = self
            .out
            .samples
            .iter()
            .filter(|s| kinds.contains(&s.kind))
            .map(|s| s.ms)
            .collect();
        quantile(&xs, q)
    }

    fn pool(&self) -> PoolStats {
        self.after.pool.since(&self.before.pool)
    }

    /// Exact and partial window-cache hits as shares of all lookups.
    fn cache_shares(&self) -> (f64, f64) {
        let (a, b) = (&self.after.cache, &self.before.cache);
        let lookups = ((a.hits + a.misses) - (b.hits + b.misses)) as f64;
        (
            ratio((a.hits - b.hits) as f64, lookups),
            ratio((a.partial_hits - b.partial_hits) as f64, lookups),
        )
    }

    fn attempted(&self) -> u64 {
        self.out.samples.len() as u64 + self.out.errors
    }
}

/// Reset the kernel's peak-RSS mark for this process.
fn reset_peak_rss() {
    // Best effort: without it the peak covers set-up too.
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_phase(w: Workload, ctx: &Ctx, clients: &mut [Client], secs: f64) -> Result<Phase, String> {
    let before = counters(ctx.dep)?;
    reset_peak_rss();
    let duration = Duration::from_secs_f64(secs);
    let start = Instant::now();
    let mut timings = Vec::new();
    match w {
        Workload::Navigate => run_closed_loop(clients, duration, |c| navigate_step(c, ctx)),
        Workload::SearchEdit => run_closed_loop(clients, duration, |c| search_edit_step(c, ctx)),
        Workload::ColdJump => {
            let dropped;
            (timings, dropped) =
                run_open_loop(JUMP_RATE, clients, duration, JUMP_GRACE, |c, i, due| {
                    jump_step(c, ctx, i, due)
                });
            if dropped > 0 {
                clients[0].out.errors += dropped as u64;
                clients[0].out.note(format!(
                    "error: {dropped} requests dropped, the generator fell {JUMP_GRACE:?} behind"
                ));
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let rss_mib = peak_rss_mib();
    let after = counters(ctx.dep)?;
    let mut out = ClientOut::default();
    for c in clients.iter_mut() {
        out.merge(std::mem::take(&mut c.out));
    }
    Ok(Phase {
        secs,
        out,
        timings,
        before,
        after,
        rss_mib,
    })
}

/// Compare the kept window digests with the cold reference manager on
/// the same (unedited) file.
fn verify_checks(phase: &mut Phase, cold: &QueryManager) {
    for check in std::mem::take(&mut phase.out.checks) {
        phase.out.checked += 1;
        match cold.window_query(check.layer, &check.rect) {
            Ok(resp) if resp.epoch != check.epoch => phase.out.mismatch(format!(
                "window epoch {} differs from the reference's {}",
                check.epoch, resp.epoch
            )),
            Ok(resp) if digest(&resp.json.text) != check.digest => phase.out.mismatch(format!(
                "layer {} window {:?} differs from the cold reference",
                check.layer, check.rect
            )),
            Ok(_) => {}
            Err(e) => phase.out.error(format!("reference window: {e}")),
        }
    }
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn end_to_end(phase: &Phase, setups: &[SetupTimes]) -> Vec<Metric> {
    let (rows, wire) = phase
        .windows()
        .fold((0u64, 0u64), |(r, b), s| (r + s.rows, b + s.wire));
    let ttfr: Vec<f64> = phase.windows().map(|s| s.ttfr_ms).collect();
    vec![
        metric(
            "setup_s",
            "s",
            median(&setups.iter().map(|t| t.total).collect::<Vec<_>>()),
        ),
        metric("window_p50_ms", "ms", phase.window_ms(0.5)),
        metric("window_p99_ms", "ms", phase.window_ms(0.99)),
        metric("ttfr_p50_ms", "ms", median(&ttfr)),
        metric(
            "throughput_rps",
            "1/s",
            phase.out.samples.len() as f64 / phase.secs,
        ),
        metric("rss_mib", "MiB", phase.rss_mib),
        metric("wire_bytes_per_row", "B", ratio(wire as f64, rows as f64)),
    ]
}

/// Per-layer metrics of the traced phase `b`; `a` is the untraced phase
/// run just before it on the same deployment.
fn per_layer(
    a: &Phase,
    b: &Phase,
    setups: &[SetupTimes],
    spans: &[Span],
    file_bytes_per_row: f64,
) -> Vec<Metric> {
    let setup = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let p = &b.out.probes;
    let p50 = |name: &str| median(p.get(name));
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.parent != 0 && !s.name.starts_with("probe."))
    {
        children.entry(s.parent).or_default().push(s);
    }
    let named = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    };
    let service: Vec<&Span> = spans
        .iter()
        .filter(|s| (s.name == "service.window" || s.name == "service.search") && s.parent != 0)
        .collect();
    let overhead: Vec<f64> = service
        .iter()
        .map(|s| by_id[&s.parent].ms() - s.ms())
        .collect();
    let service_window: Vec<f64> = service
        .iter()
        .filter(|s| s.name == "service.window")
        .map(|s| s.ms())
        .collect();
    let mut selfsum = Vec::new();
    let mut decode = Vec::new();
    for root in spans.iter().filter(|s| s.name == "client.window") {
        let kids = children.get(&root.id).map_or(&[][..], Vec::as_slice);
        let total: u64 =
            self_time_ns(root, kids) + kids.iter().map(|k| k.end - k.start).sum::<u64>();
        selfsum.push(ratio(total as f64, (root.end - root.start) as f64));
        decode.push(
            kids.iter()
                .filter(|k| k.name == "client.decode")
                .map(|k| k.ms())
                .sum(),
        );
    }
    let (cache_hit, cache_partial) = b.cache_shares();
    let (reused, fetched) = b
        .windows()
        .fold((0u64, 0u64), |(r, f), s| (r + s.reused, f + s.fetched));
    let index = b.after.chooser.0 - b.before.chooser.0;
    let scan = b.after.chooser.1 - b.before.chooser.1;
    let pool = b.pool();
    let window_count = b.windows().count() as f64;
    let late: Vec<f64> = b.timings.iter().map(Timing::late_ms).collect();
    vec![
        metric("setup.generate_s", "s", setup(|t| t.generate)),
        metric("setup.partition_s", "s", setup(|t| t.partition)),
        metric("setup.layout_s", "s", setup(|t| t.layout)),
        metric("setup.organize_s", "s", setup(|t| t.organize)),
        metric("setup.abstraction_s", "s", setup(|t| t.abstraction)),
        metric("setup.indexing_s", "s", setup(|t| t.indexing)),
        metric("setup.open_s", "s", setup(|t| t.open)),
        metric("server.overhead_ms_p50", "ms", median(&overhead)),
        metric(
            "server.sheds",
            "count",
            (b.after.rejected - b.before.rejected) as f64,
        ),
        metric("service.call_ms_p50", "ms", median(&service_window)),
        metric("query.window_ms_p50", "ms", p50("query.window_ms")),
        metric("query.db_ms_p50", "ms", p50("query.db_ms")),
        metric("query.json_ms_p50", "ms", p50("query.json_ms")),
        metric("query.cache_ms_p50", "ms", p50("query.cache_ms")),
        metric("cache.hit_ratio", "ratio", cache_hit),
        metric("cache.partial_ratio", "ratio", cache_partial),
        metric(
            "cache.reuse_frac",
            "ratio",
            ratio(reused as f64, (reused + fetched) as f64),
        ),
        metric(
            "filter.index_frac",
            "ratio",
            ratio(index as f64, (index + scan) as f64),
        ),
        metric("storage.rtree_ms_p50", "ms", p50("storage.rtree_ms")),
        metric(
            "storage.candidates_per_row",
            "ratio",
            ratio(p.sum("storage.candidates"), p.sum("storage.rows")),
        ),
        metric("storage.fetch_ms_p50", "ms", p50("storage.fetch_ms")),
        metric("pool.hit_ratio", "ratio", pool.hit_rate()),
        metric(
            "pool.misses_per_req",
            "count",
            ratio(pool.misses as f64, window_count),
        ),
        metric(
            "pool.compression_ratio",
            "ratio",
            b.after.pool.compression_ratio(),
        ),
        metric("storage.file_bytes_per_row", "B", file_bytes_per_row),
        metric("json.build_ms_p50", "ms", p50("json.build_ms")),
        metric(
            "json.bytes_per_row",
            "B",
            ratio(p.sum("json.bytes"), p.sum("storage.rows")),
        ),
        metric("pack.encode_ms_p50", "ms", p50("pack.encode_ms")),
        metric(
            "pack.ratio",
            "ratio",
            ratio(p.sum("json.bytes"), p.sum("pack.bytes")),
        ),
        metric("client.decode_ms_p50", "ms", median(&decode)),
        metric("search.trie_ms_p50", "ms", p50("search.trie_ms")),
        metric(
            "search.hits_per_query",
            "count",
            ratio(p.sum("search.hits"), p.get("search.hits").len() as f64),
        ),
        metric("edit.insert_ms_p50", "ms", median(&named("edit.insert"))),
        metric("edit.delete_ms_p50", "ms", median(&named("edit.delete"))),
        metric("loadgen.late_ms_p99", "ms", quantile(&late, 0.99)),
        metric(
            "trace.overhead_frac",
            "ratio",
            ratio(b.window_ms(0.5), a.window_ms(0.5)) - 1.0,
        ),
        metric("trace.selfsum_frac", "ratio", median(&selfsum)),
    ]
}

/// The directory runs write into, inside the benchmark's own folder.
pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work")
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Run `opts` end to end.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let dir = work_dir().join(format!("{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = run_in(opts, &dir);
    std::fs::remove_dir_all(&dir).ok();
    result
}

fn run_in(opts: &Options, dir: &std::path::Path) -> Result<Outcome, String> {
    let w = opts.workload;
    let data = dataset(w);
    let tracer = opts.trace.then(|| Arc::new(Tracer::default()));
    let path = dir.join("bench.db");

    let mut setups = Vec::with_capacity(SETUPS);
    let mut deployment: Option<Deployment> = None;
    for _ in 0..SETUPS {
        if let Some(d) = deployment.take() {
            d.shutdown();
        }
        let d = deploy(data, &path, tracer.clone())?;
        setups.push(d.times);
        deployment = Some(d);
    }
    let dep = deployment.expect("at least one set-up ran");

    // The benchmark's own handles read a copy of the served file: edits
    // write pages back into the served file, and a second handle on it
    // would read a torn mix of old and new pages.
    let copy = dir.join("handles.db");
    std::fs::copy(&dep.path, &copy).map_err(|e| format!("copy the database: {e}"))?;
    let open = || GraphDb::open_with_cache(&copy, POOL_PAGES).map_err(|e| format!("open: {e}"));
    let query_handle = QueryManager::new(open()?);
    let cold = QueryManager::with_cache_config(open()?, gvdb_bench::uncached_cache_config());
    let inputs = Inputs::new(w, &dep, &cold, opts.seed, opts.seconds)?;
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|id| Client {
            id,
            api: GvdbClient::new(dep.addr()),
            cursor: 0,
            session: None,
            prev: None,
            pending: None,
            expect: [None; HOT_VIEWPORTS],
            last_hits: Vec::new(),
            out: ClientOut::default(),
        })
        .collect();
    if w == Workload::Navigate {
        for c in &mut clients {
            let first = inputs.walks[c.id][0].rect;
            c.session = Some(
                c.api
                    .session_new(None, Some(dto(&first)))
                    .map_err(|e| format!("session: {e}"))?,
            );
        }
    }

    let untraced = Ctx {
        dep: &dep,
        inputs: &inputs,
        tracer: None,
        probes: None,
    };
    let (mut main, traced) = match &tracer {
        None => (run_phase(w, &untraced, &mut clients, opts.seconds)?, None),
        Some(t) => {
            let a = run_phase(w, &untraced, &mut clients, opts.seconds / 2.0)?;
            let ctx = Ctx {
                tracer: Some(t),
                probes: Some(Handles {
                    query: &query_handle,
                    cold: &cold,
                    tracer: t,
                }),
                ..untraced
            };
            t.set_enabled(true);
            let b = run_phase(w, &ctx, &mut clients, opts.seconds / 2.0);
            t.set_enabled(false);
            (a, Some(b?))
        }
    };
    let mut phases: Vec<&mut Phase> = vec![&mut main];
    let mut traced = traced;
    if let Some(b) = traced.as_mut() {
        phases.push(b);
    }
    if w != Workload::SearchEdit {
        for phase in phases {
            verify_checks(phase, &cold);
        }
    }

    let pool_hit = main.pool().hit_rate();
    let (hit, partial) = main.cache_shares();
    let regime_ok = match w {
        Workload::Navigate => partial >= NAVIGATE_MIN_PARTIAL,
        Workload::ColdJump => hit <= COLD_JUMP_MAX_HIT && pool_hit <= COLD_JUMP_MAX_POOL_HIT,
        Workload::SearchEdit => pool_hit >= SEARCH_EDIT_MIN_POOL_HIT,
    };
    let all = [Some(&main), traced.as_ref()];
    let attempted: u64 = all.iter().flatten().map(|p| p.attempted()).sum();
    let errors: u64 = all.iter().flatten().map(|p| p.out.errors).sum();
    let mismatches: u64 = all.iter().flatten().map(|p| p.out.mismatches).sum();
    let checked: u64 = all.iter().flatten().map(|p| p.out.checked).sum();
    let unverified: u64 = all.iter().flatten().map(|p| p.out.unverified).sum();

    let mut report = Vec::new();
    for m in end_to_end(&main, &setups) {
        report.push(format!("{:<28} {:>12.4} {}", m.name, m.value, m.unit));
    }
    let extra = [
        ("zoom_p50_ms", main.kind_ms(&[Kind::Zoom], 0.5)),
        ("search_p50_ms", main.kind_ms(&[Kind::Search], 0.5)),
        ("search_p99_ms", main.kind_ms(&[Kind::Search], 0.99)),
        (
            "edit_p50_ms",
            main.kind_ms(&[Kind::Insert, Kind::Delete], 0.5),
        ),
        ("focus_p50_ms", main.kind_ms(&[Kind::Focus], 0.5)),
    ];
    for (name, v) in extra {
        report.push(format!("{name:<28} {v:>12.4} ms"));
    }
    report.push(format!(
        "{:<28} {:>12.6} ({} failed of {} attempted; {} errors, {} mismatches)",
        "failed_frac",
        ratio((errors + mismatches) as f64, attempted as f64),
        errors + mismatches,
        attempted,
        errors,
        mismatches
    ));
    report.push(format!(
        "checks: {checked} windows compared with the cold reference, {unverified} skipped (raced by an edit)"
    ));
    report.push(format!(
        "window samples: {} (p99 needs 1000); pool hit ratio {pool_hit:.4}, cache hit {hit:.4}, partial {partial:.4} ({})",
        main.windows().count(),
        if regime_ok { "in regime" } else { "OUT OF REGIME" }
    ));
    if w == Workload::ColdJump {
        let late: Vec<f64> = main.timings.iter().map(Timing::late_ms).collect();
        report.push(format!(
            "open loop at {JUMP_RATE}/s: generator late by {:.3} ms at p99",
            quantile(&late, 0.99)
        ));
    }
    for p in all.iter().flatten() {
        report.extend(p.out.messages.iter().cloned());
    }

    let mut trace_ok = true;
    let metrics = match (&tracer, &traced) {
        (Some(t), Some(b)) => {
            let mut spans = t.take();
            let unmatched = attach_service_spans(&mut spans);
            report.push(format!(
                "trace: {} spans, {unmatched} service spans without a client root",
                spans.len()
            ));
            let file = work_dir().join(format!("spans-{}.jsonl", w.name()));
            write_spans(&file, &spans).map_err(|e| format!("write {}: {e}", file.display()))?;
            report.push(format!("trace: spans written to {}", file.display()));
            let m = per_layer(
                &main,
                b,
                &setups,
                &spans,
                ratio(dep.file_bytes() as f64, dep.rows() as f64),
            );
            for x in &m {
                report.push(format!("{:<28} {:>12.4} {}", x.name, x.value, x.unit));
            }
            let selfsum = m
                .iter()
                .find(|x| x.name == "trace.selfsum_frac")
                .map_or(0.0, |x| x.value);
            if w == Workload::ColdJump && (selfsum - 1.0).abs() > SELFSUM_TOLERANCE {
                trace_ok = false;
                report.push(format!(
                    "trace: self times add up to {selfsum:.3} of the request time, outside 1 ± {SELFSUM_TOLERANCE}"
                ));
            }
            m
        }
        _ => end_to_end(&main, &setups),
    };

    let (nodes, edges) = dep.layer_sizes.first().copied().unwrap_or((0, 0));
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cpus\": {}, \"commit\": \"{}\", \"loop\": \"{}\", \"rate_rps\": {}, \"client_threads\": {CLIENTS}, \"server_workers\": {WORKERS}, \"dataset\": \"{}\", \"layers\": {}, \"layer0_nodes\": {nodes}, \"layer0_edges\": {edges}, \"db_file_bytes\": {}, \"pool_bytes\": {}}}",
        w.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        commit(),
        if w == Workload::ColdJump { "open" } else { "closed" },
        if w == Workload::ColdJump { JUMP_RATE } else { 0.0 },
        data.describe(),
        dep.layers,
        dep.file_bytes(),
        POOL_PAGES * gvdb_storage::page::PAGE_SIZE,
    );
    dep.shutdown();
    Ok(Outcome {
        correct: mismatches == 0 && regime_ok && trace_ok,
        attempted: attempted.max(1),
        failed: errors + mismatches,
        metrics,
        report,
        record,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_phase() -> Phase {
        let counters = || Counters {
            cache: CacheStats::default(),
            pool: PoolStats::default(),
            chooser: (0, 0),
            rejected: 0,
        };
        Phase {
            secs: 1.0,
            out: ClientOut::default(),
            timings: Vec::new(),
            before: counters(),
            after: counters(),
            rss_mib: 0.0,
        }
    }

    #[test]
    fn metric_lists_match_what_runs_report() {
        let (a, b) = (empty_phase(), empty_phase());
        let setups = [SetupTimes::default()];
        let names: Vec<&str> = end_to_end(&a, &setups).iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END);
        let names: Vec<&str> = per_layer(&a, &b, &setups, &[], 0.0)
            .iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names, PER_LAYER);
    }

    #[test]
    fn digest_orders_edges_but_not_nodes() {
        let a = r#"{"nodes":[{"id":1,"label":"a{"},{"id":2,"label":"b"}],"edges":[{"id":7,"source":1,"target":2},{"id":8,"source":2,"target":1}]}"#;
        let nodes_swapped = r#"{"nodes":[{"id":2,"label":"b"},{"id":1,"label":"a{"}],"edges":[{"id":7,"source":1,"target":2},{"id":8,"source":2,"target":1}]}"#;
        let edges_swapped = r#"{"nodes":[{"id":1,"label":"a{"},{"id":2,"label":"b"}],"edges":[{"id":8,"source":2,"target":1},{"id":7,"source":1,"target":2}]}"#;
        let label_changed = r#"{"nodes":[{"id":1,"label":"a}"},{"id":2,"label":"b"}],"edges":[{"id":7,"source":1,"target":2},{"id":8,"source":2,"target":1}]}"#;
        assert_eq!(digest(a), digest(nodes_swapped));
        assert_ne!(digest(a), digest(edges_swapped));
        assert_ne!(digest(a), digest(label_changed));
    }
}
