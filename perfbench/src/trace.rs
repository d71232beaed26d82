//! The traced mode's instrument: spans the benchmark records around its
//! own calls into each layer, kept in memory and written out at exit.
//!
//! A span has a name, start, end, parent and request id. The client
//! records one root span per request and its decode spans; the service
//! wrapper records the in-process `GraphService` call of the same
//! request, which [`attach_service_spans`] links to its root by request
//! key and time containment (the two run on different threads).

use gvdb_api::{ApiRequest, RectDto};
use gvdb_core::{ApiOutcome, FrameSink, GraphService, QueryManager};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The causing span's id, 0 for a root.
    pub parent: u64,
    /// The request id shared by every span of one request (the root's
    /// id; 0 until a service span is attached).
    pub req: u64,
    /// Layer boundary, e.g. `client.window` or `service.window`.
    pub name: &'static str,
    /// Request key used to pair client and service spans.
    pub key: u64,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end.saturating_sub(self.start)) as f64 / 1e6
    }
}

/// Span store shared by every thread of a run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            enabled: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Start or stop recording.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// A fresh span id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Record span `id`, named `name`, over `[start, end]`.
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        key: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            req: if parent == 0 { id } else { parent },
            name,
            key,
            start: self.ns(start),
            end: self.ns(end),
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Every span recorded so far, leaving the store empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("a thread panicked while recording a span"),
        )
    }
}

fn hash_of(value: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Pairing key of a window request.
pub fn window_key(layer: usize, w: &RectDto) -> u64 {
    hash_of((
        layer,
        w.min_x.to_bits(),
        w.min_y.to_bits(),
        w.max_x.to_bits(),
        w.max_y.to_bits(),
    ))
}

/// Pairing key of a search request.
pub fn search_key(query: &str) -> u64 {
    hash_of(("search", query))
}

/// The service span name and pairing key of `request`.
fn service_span(request: &ApiRequest) -> (&'static str, u64) {
    match request {
        ApiRequest::Window { layer, window, .. } => {
            ("service.window", window_key(layer.unwrap_or(0), window))
        }
        ApiRequest::Search { query, .. } => ("service.search", search_key(query)),
        ApiRequest::InsertEdge { .. } => ("edit.insert", 0),
        ApiRequest::DeleteEdge { .. } => ("edit.delete", 0),
        _ => ("service.call", 0),
    }
}

/// A [`GraphService`] that times each call into the wrapped manager.
/// For an edit the call is `QueryManager::insert_row` or `delete_row`
/// plus an epoch read, so its span is the edit's storage time.
pub struct TracedService {
    /// The manager serving the requests.
    pub inner: Arc<QueryManager>,
    /// Where spans go.
    pub tracer: Arc<Tracer>,
}

impl TracedService {
    fn timed<R>(&self, request: &ApiRequest, f: impl FnOnce() -> R) -> R {
        if !self.tracer.enabled() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let (name, key) = service_span(request);
        let id = self.tracer.next_id();
        self.tracer.record(id, 0, name, key, start, Instant::now());
        out
    }
}

impl GraphService for TracedService {
    fn call(&self, request: &ApiRequest) -> gvdb_api::ApiResult<ApiOutcome> {
        self.timed(request, || self.inner.call(request))
    }

    fn dataset_names(&self) -> Vec<String> {
        self.inner.dataset_names()
    }

    fn call_streamed(
        &self,
        request: &ApiRequest,
        sink: &mut dyn FrameSink,
    ) -> gvdb_api::ApiResult<()> {
        self.timed(request, || self.inner.call_streamed(request, sink))
    }
}

/// Link each unparented `service.window` / `service.search` span to the
/// client root span with the same key whose interval contains it
/// (`client.window` / `client.search`). Returns how many service spans
/// found no root.
pub fn attach_service_spans(spans: &mut [Span]) -> usize {
    let roots: Vec<(u64, &'static str, u64, u64, u64)> = spans
        .iter()
        .filter(|s| s.name == "client.window" || s.name == "client.search")
        .map(|s| (s.id, s.name, s.key, s.start, s.end))
        .collect();
    let mut taken = std::collections::HashSet::new();
    let mut unmatched = 0;
    for s in spans.iter_mut() {
        let want = match s.name {
            "service.window" => "client.window",
            "service.search" => "client.search",
            _ => continue,
        };
        let root = roots.iter().find(|r| {
            r.1 == want && r.2 == s.key && r.3 <= s.start && s.end <= r.4 && !taken.contains(&r.0)
        });
        match root {
            Some(r) => {
                taken.insert(r.0);
                s.parent = r.0;
                s.req = r.0;
            }
            None => unmatched += 1,
        }
    }
    unmatched
}

/// Self time of `span`: its duration minus the part of its interval
/// that `children` cover (overlapping children are counted once).
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (span.end - span.start).saturating_sub(covered)
}

/// Write `spans` as JSON lines to `path`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, key: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent: 0,
            req: id,
            name,
            key,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(1, "client.window", 0, 0, 100);
        let a = span(2, "service.window", 0, 10, 60);
        let b = span(3, "client.decode", 0, 50, 70);
        let c = span(4, "client.decode", 0, 90, 120);
        assert_eq!(self_time_ns(&root, &[&a, &b, &c]), 100 - 60 - 10);
        assert_eq!(self_time_ns(&root, &[]), 100);
    }

    #[test]
    fn service_spans_pair_by_key_and_containment() {
        let mut spans = vec![
            span(1, "client.window", 7, 0, 100),
            span(2, "client.window", 7, 200, 300),
            span(3, "service.window", 7, 210, 290),
            span(4, "service.window", 7, 10, 90),
            span(5, "service.window", 8, 20, 30),
        ];
        assert_eq!(attach_service_spans(&mut spans), 1);
        assert_eq!((spans[2].parent, spans[2].req), (2, 2));
        assert_eq!(spans[3].parent, 1);
        assert_eq!(spans[4].parent, 0);
    }
}
