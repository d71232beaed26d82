//! Building the JSON objects sent to the client — the "Build JSON Objects"
//! stage measured in Fig. 3.
//!
//! Hand-rolled writer (no serde): this stage's cost is itself part of the
//! reproduced experiment, so it must do the real work — string escaping,
//! node deduplication across rows, number formatting — the way the Java
//! prototype's JSON layer does.
//!
//! Alongside the serialized text, every [`GraphJson`] carries a **span
//! index**: the byte range of each node and edge object inside `text`,
//! keyed by its id. The index is what makes the delta-pan path's
//! [`GraphJson::splice`] a pure splice — surviving fragments are
//! `memcpy`d by range, with no re-escaping, no number re-formatting, and
//! no scanning of the payload.

use gvdb_api::pack::FastHash;
use gvdb_api::{ImageWriter, PackedImage, RowBatch};
use gvdb_storage::{EdgeRow, RowId};
use std::collections::{HashMap, HashSet};

/// The emitted payload skeleton: `{"nodes":[…],"edges":[…]}`.
const NODES_PREFIX: &str = "{\"nodes\":[";
const EDGES_SEP: &str = "],\"edges\":[";
const SUFFIX: &str = "]}";

/// Byte range of one serialized object (a node or an edge) in
/// [`GraphJson::text`], keyed by the object's id (node id / packed row
/// id). Offsets are `u32`: a payload is bounded far below 4 GiB by the
/// window-cache byte budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) id: u64,
    pub(crate) start: u32,
    pub(crate) end: u32,
}

impl Span {
    fn slice<'a>(&self, text: &'a str) -> &'a str {
        &text[self.start as usize..self.end as usize]
    }
}

/// The JSON payload for one window query response.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphJson {
    /// Serialized JSON text.
    pub text: String,
    /// Distinct nodes in the payload.
    pub node_count: usize,
    /// Edges in the payload.
    pub edge_count: usize,
    /// Span of each node object in `text`, in emission order.
    pub(crate) node_spans: Vec<Span>,
    /// Span of each edge object in `text`, ascending by edge (row) id —
    /// every query path emits rows in ascending [`RowId`] order, which is
    /// what lets [`GraphJson::splice`] two-way merge without sorting.
    pub(crate) edge_spans: Vec<Span>,
}

/// Single-pass payload writer: prefix, node objects, separator, edge
/// objects, suffix, all into one buffer, recording spans as it goes. The
/// splice paths feed it contiguous *runs* of surviving fragments (one
/// `memcpy` per run, span offsets adjusted arithmetically), so a delta
/// update never re-serializes or re-scans surviving objects.
struct PayloadBuilder {
    text: String,
    node_spans: Vec<Span>,
    edge_spans: Vec<Span>,
    /// Whether the currently open array already has an element.
    has_element: bool,
    in_edges: bool,
}

impl PayloadBuilder {
    fn with_capacity(bytes: usize) -> Self {
        let mut text = String::with_capacity(bytes + 32);
        text.push_str(NODES_PREFIX);
        PayloadBuilder {
            text,
            node_spans: Vec::new(),
            edge_spans: Vec::new(),
            has_element: false,
            in_edges: false,
        }
    }

    fn sep(&mut self) {
        if self.has_element {
            self.text.push(',');
        }
        self.has_element = true;
    }

    /// Close the node array and open the edge array.
    fn begin_edges(&mut self) {
        debug_assert!(!self.in_edges);
        self.text.push_str(EDGES_SEP);
        self.has_element = false;
        self.in_edges = true;
    }

    fn spans_mut(&mut self) -> &mut Vec<Span> {
        if self.in_edges {
            &mut self.edge_spans
        } else {
            &mut self.node_spans
        }
    }

    /// Append one already-serialized object fragment.
    fn push_fragment(&mut self, id: u64, fragment: &str) {
        self.sep();
        let start = self.text.len() as u32;
        self.text.push_str(fragment);
        let end = self.text.len() as u32;
        self.spans_mut().push(Span { id, start, end });
    }

    /// Append a contiguous run of fragments from `src` in one `memcpy` —
    /// `spans` must be consecutive spans of `src` (each separated from
    /// the next by exactly the one comma the run copy carries along).
    fn push_run(&mut self, src: &str, spans: &[Span]) {
        let (Some(first), Some(last)) = (spans.first(), spans.last()) else {
            return;
        };
        debug_assert!(spans.windows(2).all(|w| w[0].end + 1 == w[1].start,));
        self.sep();
        let shift = self.text.len() as i64 - first.start as i64;
        self.text
            .push_str(&src[first.start as usize..last.end as usize]);
        let out = if self.in_edges {
            &mut self.edge_spans
        } else {
            &mut self.node_spans
        };
        out.extend(spans.iter().map(|s| Span {
            id: s.id,
            start: (s.start as i64 + shift) as u32,
            end: (s.end as i64 + shift) as u32,
        }));
    }

    fn finish(mut self) -> GraphJson {
        debug_assert!(self.in_edges);
        self.text.push_str(SUFFIX);
        GraphJson {
            text: self.text,
            node_count: self.node_spans.len(),
            edge_count: self.edge_spans.len(),
            node_spans: self.node_spans,
            edge_spans: self.edge_spans,
        }
    }
}

/// One streamed frame cut out of a payload: the node objects of a
/// contiguous run of node spans and the edge objects of a contiguous run
/// of edge spans. Concatenating the node bodies (and the edge bodies) of
/// every frame of a stream, in order, reassembles the buffered payload
/// byte-for-byte — for a packed frame, after the client decodes it.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphFrame {
    /// The frame's content on the wire.
    pub body: FrameBody,
    /// Node objects in the fragment.
    pub nodes: usize,
    /// Edge objects in the fragment.
    pub edges: usize,
    /// Half-open range of payload edge indexes this frame covers —
    /// aligned with the row slice the payload was built from, so callers
    /// can attribute frames back to rows (e.g. the reused flag).
    pub edge_range: (usize, usize),
}

/// A [`GraphFrame`]'s content in one of the two `Rows` encodings.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameBody {
    /// The self-contained `{"nodes":[…],"edges":[…]}` fragment, its two
    /// bodies copied out of the payload text.
    Text(String),
    /// The same nodes and edges as a packed image (see
    /// [`gvdb_api::pack`]), decoding to exactly the [`FrameBody::Text`]
    /// fragment.
    Packed(PackedImage),
}

impl GraphFrame {
    /// The fragment text of a [`FrameBody::Text`] frame.
    pub fn text(&self) -> Option<&str> {
        match &self.body {
            FrameBody::Text(graph) => Some(graph),
            FrameBody::Packed(_) => None,
        }
    }

    /// The `Rows` batch that carries this frame.
    pub fn into_batch(self, reused: bool) -> RowBatch {
        match self.body {
            FrameBody::Text(graph) => RowBatch::Graph {
                graph,
                nodes: self.nodes as u64,
                edges: self.edges as u64,
                reused,
            },
            FrameBody::Packed(image) => RowBatch::Packed { image, reused },
        }
    }
}

/// The text of one frame: a node-span run and an edge-span run of
/// payload text, wrapped in the payload skeleton.
fn frame_text(nodes: (&[Span], &str), edges: (&[Span], &str)) -> String {
    fn run<'t>((spans, text): (&[Span], &'t str)) -> &'t str {
        match (spans.first(), spans.last()) {
            (Some(first), Some(last)) => &text[first.start as usize..last.end as usize],
            _ => "",
        }
    }
    let (node_run, edge_run) = (run(nodes), run(edges));
    let mut graph = String::with_capacity(
        NODES_PREFIX.len() + node_run.len() + EDGES_SEP.len() + edge_run.len() + SUFFIX.len(),
    );
    graph.push_str(NODES_PREFIX);
    graph.push_str(node_run);
    graph.push_str(EDGES_SEP);
    graph.push_str(edge_run);
    graph.push_str(SUFFIX);
    graph
}

/// Pack one frame straight from the rows its payload was built from:
/// each node `(id, i)` takes its label and position from `rows[i]`, a
/// row that references it, and each row of `edges` is one edge. Every
/// row naming a node carries the same label and canonical position
/// (the insert path rejects a row that would not), so the image decodes
/// to the node objects the payload text holds.
fn pack_frame(
    rows: &[(RowId, EdgeRow)],
    nodes: impl Iterator<Item = (u64, usize)>,
    edges: &[(RowId, EdgeRow)],
) -> PackedImage {
    let mut w = ImageWriter::with_capacity(nodes.size_hint().0, edges.len());
    for (id, i) in nodes {
        let (_, row) = rows
            .get(i)
            .expect("every payload node is referenced by one of its rows");
        let g = &row.geometry;
        if row.node1_id == id {
            w.node(id, &row.node1_label, g.x1.to_bits(), g.y1.to_bits());
        } else {
            debug_assert_eq!(row.node2_id, id, "node's row does not reference it");
            w.node(id, &row.node2_label, g.x2.to_bits(), g.y2.to_bits());
        }
    }
    for (rid, row) in edges {
        w.edge(
            rid.to_u64(),
            row.node1_id,
            row.node2_id,
            &row.edge_label,
            row.geometry.directed,
        );
    }
    w.finish()
}

/// Iterator slicing a built payload into streamed frames — see
/// [`GraphJson::frame_slices`].
pub struct FrameSlices<'a> {
    json: &'a GraphJson,
    rows: &'a [(RowId, EdgeRow)],
    /// Per node span (payload order): the index of the first edge that
    /// references the node.
    first_ref: Vec<usize>,
    chunk: usize,
    packed: bool,
    n: usize,
    e: usize,
}

impl Iterator for FrameSlices<'_> {
    type Item = GraphFrame;

    fn next(&mut self) -> Option<GraphFrame> {
        let (nodes, edges) = (&self.json.node_spans, &self.json.edge_spans);
        if self.e >= edges.len() {
            return None;
        }
        let e_end = (self.e + self.chunk).min(edges.len());
        // A frame carries the node spans first referenced by its edges.
        // The final frame sweeps up every remaining node, so spliced
        // payloads (whose node order is not first-seen order) still
        // deliver all nodes even when `first_ref` is non-monotonic.
        let mut n_end = self.n;
        if e_end == edges.len() {
            n_end = nodes.len();
        } else {
            while n_end < nodes.len() && self.first_ref[n_end] < e_end {
                n_end += 1;
            }
        }
        let body = if self.packed {
            let node_rows = (self.n..n_end).map(|k| (nodes[k].id, self.first_ref[k]));
            FrameBody::Packed(pack_frame(self.rows, node_rows, &self.rows[self.e..e_end]))
        } else {
            FrameBody::Text(frame_text(
                (&nodes[self.n..n_end], &self.json.text),
                (&edges[self.e..e_end], &self.json.text),
            ))
        };
        let frame = GraphFrame {
            body,
            nodes: n_end - self.n,
            edges: e_end - self.e,
            edge_range: (self.e, e_end),
        };
        self.n = n_end;
        self.e = e_end;
        Some(frame)
    }
}

impl GraphJson {
    /// Payload size in bytes (what travels over the wire).
    pub fn byte_len(&self) -> usize {
        self.text.len()
    }

    /// Slice this payload into streamed frames of at most `chunk` edges
    /// each, **without re-serializing anything**: every plain frame body
    /// is two contiguous `memcpy`s out of `text` (one node run, one edge
    /// run) wrapped in the payload skeleton. `rows` must be the row slice
    /// the payload was built from (one row per edge span, same order) —
    /// it supplies the edge→node endpoints the span index doesn't
    /// record, so each frame can carry the nodes its edges introduce.
    /// For cold-built payloads every edge's endpoints are delivered in
    /// its own or an earlier frame; spliced payloads keep byte-identical
    /// reassembly but may deliver some arrival nodes in a later frame
    /// (clients merge by id, so this only defers paint of those nodes).
    ///
    /// With `packed`, every frame — cold-built, cached or spliced — is
    /// packed instead: the same node-span run, each node's fields read
    /// off the first row that references it, and the same edges.
    ///
    /// An empty payload yields no frames.
    pub fn frame_slices<'a>(
        &'a self,
        rows: &'a [(RowId, EdgeRow)],
        chunk: usize,
        packed: bool,
    ) -> FrameSlices<'a> {
        debug_assert_eq!(rows.len(), self.edge_spans.len());
        let mut span_of =
            HashMap::with_capacity_and_hasher(self.node_spans.len(), FastHash::default());
        for (k, s) in self.node_spans.iter().enumerate() {
            span_of.insert(s.id, k);
        }
        let mut first_ref = vec![usize::MAX; self.node_spans.len()];
        let mut unseen = first_ref.len();
        for (i, (_, row)) in rows.iter().enumerate() {
            if unseen == 0 {
                break;
            }
            for id in [row.node1_id, row.node2_id] {
                if let Some(&k) = span_of.get(&id) {
                    if first_ref[k] == usize::MAX {
                        first_ref[k] = i;
                        unseen -= 1;
                    }
                }
            }
        }
        debug_assert_eq!(unseen, 0, "a payload node no row references");
        FrameSlices {
            json: self,
            rows,
            first_ref,
            chunk: chunk.max(1),
            packed,
            n: 0,
            e: 0,
        }
    }

    /// Approximate heap footprint: the text plus the span index (what the
    /// window cache charges against its byte budget).
    pub fn approx_heap_bytes(&self) -> usize {
        self.text.len()
            + (self.node_spans.len() + self.edge_spans.len()) * std::mem::size_of::<Span>()
    }

    /// The incremental payload update the delta query path runs once per
    /// pan: a copy of this payload with the edges in `drop_edges` (packed
    /// row ids) and the nodes in `drop_nodes` (node ids) removed, and the
    /// fragments of `add` spliced in — every edge of `add`, and the nodes
    /// of `add` whose ids are in `new_nodes`. One pass, one output
    /// allocation: every surviving fragment's bytes move exactly once,
    /// copied verbatim by indexed range, with no label re-escaping,
    /// number re-formatting, hashing or payload scanning.
    ///
    /// Surviving nodes keep their original order and the new ones append
    /// after them. Edge fragments of both payloads two-way merge in
    /// ascending edge (row) id — both span indexes already are ascending
    /// — so the result lists edges exactly as a cold build over the
    /// merged row set would.
    ///
    /// All four id lists must be sorted ascending; `add`'s edge ids must
    /// be disjoint from the retained ones (the delta path guarantees
    /// both — they come off sorted row ids and the node-reference
    /// update).
    ///
    /// # Panics
    /// Debug builds assert the id lists are sorted.
    pub fn splice(
        &self,
        drop_edges: &[u64],
        drop_nodes: &[u64],
        add: &GraphJson,
        new_nodes: &[u64],
    ) -> GraphJson {
        debug_assert!(drop_edges.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(drop_nodes.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(new_nodes.windows(2).all(|w| w[0] <= w[1]));
        let mut b = PayloadBuilder::with_capacity(self.text.len() + add.text.len());

        // Nodes: copy maximal runs between dropped fragments, then append
        // the genuinely new nodes of `add`.
        let mut run = 0usize;
        for (i, span) in self.node_spans.iter().enumerate() {
            if drop_nodes.binary_search(&span.id).is_ok() {
                b.push_run(&self.text, &self.node_spans[run..i]);
                run = i + 1;
            }
        }
        b.push_run(&self.text, &self.node_spans[run..]);
        for span in &add.node_spans {
            if new_nodes.binary_search(&span.id).is_ok() {
                b.push_fragment(span.id, span.slice(&add.text));
            }
        }

        // Edges: all id sequences ascending — walk self's spans once,
        // splitting runs at drops and splicing arrivals in id position.
        b.begin_edges();
        let mut drop = drop_edges.iter().peekable();
        let mut arrive = add.edge_spans.iter().peekable();
        let mut run = 0usize;
        for (i, span) in self.edge_spans.iter().enumerate() {
            while let Some(a) = arrive.next_if(|a| a.id < span.id) {
                b.push_run(&self.text, &self.edge_spans[run..i]);
                run = i;
                b.push_fragment(a.id, a.slice(&add.text));
            }
            while drop.next_if(|d| **d < span.id).is_some() {}
            if drop.peek() == Some(&&span.id) {
                b.push_run(&self.text, &self.edge_spans[run..i]);
                run = i + 1;
            }
        }
        b.push_run(&self.text, &self.edge_spans[run..]);
        for a in arrive {
            b.push_fragment(a.id, a.slice(&add.text));
        }
        b.finish()
    }
}

/// Write one node object (`{"id","label","x","y"}`) into `buf` — the
/// canonical writer lives in `gvdb_api::pack`, shared with the packed
/// frame decoder so a client-side decode reprints byte-identically.
fn write_node(buf: &mut String, id: u64, label: &str, x: f64, y: f64) {
    gvdb_api::pack::write_node_json(buf, id, label, x, y);
}

/// Write one edge object (`{"id","source","target","label","directed"}`)
/// into `buf` — canonical writer shared via `gvdb_api::pack`.
fn write_edge(buf: &mut String, rid64: u64, row: &EdgeRow) {
    gvdb_api::pack::write_edge_json(
        buf,
        rid64,
        row.node1_id,
        row.node2_id,
        &row.edge_label,
        row.geometry.directed,
    );
}

/// Incremental payload writer for the streamed cold path: rows arrive
/// chunk-at-a-time ([`GraphJsonBuilder::push_rows`]), each chunk's newly
/// written bytes can be handed out immediately as a self-contained
/// streamed frame ([`GraphJsonBuilder::take_frame`] — two `memcpy`s, no
/// re-serialization, or a packed image of the nodes the builder's own
/// deduplication chose), and [`GraphJsonBuilder::finish`] assembles the
/// exact payload a one-shot [`build_graph_json`] over the same rows
/// would produce. One serialization pass thus feeds the streamed
/// frames, the window-cache entry, and the buffered envelope alike.
///
/// Nodes and edges write into separate buffers (the payload lists all
/// nodes before all edges, but streamed chunks interleave them), glued
/// together by `finish`. The node buffer opens with the payload prefix,
/// so node span offsets are final payload offsets from the start; edge
/// span offsets are buffer-relative until `finish` shifts them.
pub struct GraphJsonBuilder {
    nodes: String,
    edges: String,
    node_spans: Vec<Span>,
    edge_spans: Vec<Span>,
    seen: HashSet<u64, FastHash>,
    /// Per node span: the index of the row that introduced the node.
    node_rows: Vec<usize>,
    /// Span-index watermarks of the previous [`GraphJsonBuilder::take_frame`].
    node_mark: usize,
    edge_mark: usize,
}

impl GraphJsonBuilder {
    /// An empty builder sized for `bytes` of eventual payload.
    pub fn with_capacity(bytes: usize) -> Self {
        let mut nodes = String::with_capacity(bytes / 2 + 32);
        nodes.push_str(NODES_PREFIX);
        GraphJsonBuilder {
            nodes,
            edges: String::with_capacity(bytes / 2 + 32),
            node_spans: Vec::new(),
            edge_spans: Vec::new(),
            seen: HashSet::default(),
            node_rows: Vec::new(),
            node_mark: 0,
            edge_mark: 0,
        }
    }

    /// Serialize one chunk of rows: nodes deduplicated against every row
    /// pushed so far (first occurrence wins, like the one-shot build),
    /// row ids become edge ids. Chunks must arrive in ascending
    /// [`RowId`] order across calls — the span-index contract.
    pub fn push_rows(&mut self, rows: &[(RowId, EdgeRow)]) {
        for (rid, row) in rows {
            for (id, label, x, y) in [
                (
                    row.node1_id,
                    &row.node1_label,
                    row.geometry.x1,
                    row.geometry.y1,
                ),
                (
                    row.node2_id,
                    &row.node2_label,
                    row.geometry.x2,
                    row.geometry.y2,
                ),
            ] {
                if self.seen.insert(id) {
                    if !self.node_spans.is_empty() {
                        self.nodes.push(',');
                    }
                    let start = self.nodes.len() as u32;
                    write_node(&mut self.nodes, id, label, x, y);
                    let end = self.nodes.len() as u32;
                    self.node_spans.push(Span { id, start, end });
                    self.node_rows.push(self.edge_spans.len());
                }
            }
            let rid64 = rid.to_u64();
            if !self.edge_spans.is_empty() {
                self.edges.push(',');
            }
            let start = self.edges.len() as u32;
            write_edge(&mut self.edges, rid64, row);
            let end = self.edges.len() as u32;
            self.edge_spans.push(Span {
                id: rid64,
                start,
                end,
            });
        }
    }

    /// Slice everything pushed since the previous `take_frame` into one
    /// streamed frame (contiguous node run + contiguous edge run out of
    /// the two buffers) and advance the watermarks. `None` when nothing
    /// new was pushed. Concatenating every taken frame's node and edge
    /// bodies reassembles [`GraphJsonBuilder::finish`]'s payload
    /// byte-for-byte.
    ///
    /// `packed` — every row pushed so far, in push order — asks for the
    /// frame as a packed image instead, each node read off the row that
    /// introduced it.
    pub fn take_frame(&mut self, packed: Option<&[(RowId, EdgeRow)]>) -> Option<GraphFrame> {
        let (n, e) = (self.node_spans.len(), self.edge_spans.len());
        if n == self.node_mark && e == self.edge_mark {
            return None;
        }
        let (nodes, edges) = (self.node_mark..n, self.edge_mark..e);
        let body = match packed {
            Some(rows) => {
                debug_assert_eq!(rows.len(), e, "packing needs every pushed row");
                let node_rows = nodes
                    .clone()
                    .map(|k| (self.node_spans[k].id, self.node_rows[k]));
                FrameBody::Packed(pack_frame(rows, node_rows, &rows[edges]))
            }
            None => FrameBody::Text(frame_text(
                (&self.node_spans[nodes], &self.nodes),
                (&self.edge_spans[edges], &self.edges),
            )),
        };
        let frame = GraphFrame {
            body,
            nodes: n - self.node_mark,
            edges: e - self.edge_mark,
            edge_range: (self.edge_mark, e),
        };
        self.node_mark = n;
        self.edge_mark = e;
        Some(frame)
    }

    /// Rows pushed so far.
    pub fn rows(&self) -> usize {
        self.edge_spans.len()
    }

    /// Glue the two buffers into the final payload. Byte-identical to
    /// [`build_graph_json`] over the concatenation of every pushed chunk.
    pub fn finish(mut self) -> GraphJson {
        let shift = (self.nodes.len() + EDGES_SEP.len()) as u32;
        let mut text = self.nodes;
        text.reserve(self.edges.len() + EDGES_SEP.len() + SUFFIX.len());
        text.push_str(EDGES_SEP);
        text.push_str(&self.edges);
        text.push_str(SUFFIX);
        for s in &mut self.edge_spans {
            s.start += shift;
            s.end += shift;
        }
        GraphJson {
            text,
            node_count: self.node_spans.len(),
            edge_count: self.edge_spans.len(),
            node_spans: self.node_spans,
            edge_spans: self.edge_spans,
        }
    }
}

/// Serialize window-query rows into the client payload:
/// `{"nodes":[{"id","label","x","y"}...],"edges":[{"id","source","target","label","directed"}...]}`.
///
/// Nodes are deduplicated across rows (a node appears in one row per
/// incident edge). Row ids become edge ids so the client can address edges
/// in edit operations. The span index is recorded while writing, at no
/// extra scan. One-shot wrapper over [`GraphJsonBuilder`] — the streamed
/// cold path uses the builder directly, one chunk per frame.
pub fn build_graph_json(rows: &[(RowId, EdgeRow)]) -> GraphJson {
    let mut b = GraphJsonBuilder::with_capacity(rows.len() * 96);
    b.push_rows(rows);
    b.finish()
}

/// JSON string escaping per RFC 8259 (delegates to the shared
/// `gvdb_api` implementation; kept as a `pub` re-entry point for
/// embedders that imported it from here).
pub fn escape_into(s: &str, out: &mut String) {
    gvdb_api::escape_into(s, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvdb_storage::{EdgeGeometry, PageId};

    /// Independent string-aware fragment scanner, used only to
    /// cross-check the span index against what the text actually
    /// contains (the scanner is the slow-but-obvious implementation the
    /// spans replaced).
    mod scan {
        #[derive(Default)]
        struct StrScan {
            in_string: bool,
            escaped: bool,
        }

        impl StrScan {
            fn step(&mut self, b: u8) {
                if self.in_string {
                    if self.escaped {
                        self.escaped = false;
                    } else if b == b'\\' {
                        self.escaped = true;
                    } else if b == b'"' {
                        self.in_string = false;
                    }
                } else if b == b'"' {
                    self.in_string = true;
                }
            }
        }

        /// Split a payload into its node and edge array bodies.
        pub fn split_arrays(text: &str) -> (&str, &str) {
            let body = &text[super::NODES_PREFIX.len()..];
            let mut s = StrScan::default();
            let bytes = body.as_bytes();
            for i in 0..bytes.len() {
                if !s.in_string && bytes[i..].starts_with(super::EDGES_SEP.as_bytes()) {
                    let rest = &body[i + super::EDGES_SEP.len()..];
                    return (&body[..i], rest.strip_suffix(super::SUFFIX).unwrap_or(rest));
                }
                s.step(bytes[i]);
            }
            unreachable!("payload without an edges array");
        }

        /// Top-level `{…}` object slices of an array body.
        pub fn objects(body: &str) -> Vec<&str> {
            let bytes = body.as_bytes();
            let mut out = Vec::new();
            let mut pos = 0;
            while pos < bytes.len() {
                while pos < bytes.len() && bytes[pos] != b'{' {
                    pos += 1;
                }
                if pos >= bytes.len() {
                    break;
                }
                let start = pos;
                let mut depth = 0usize;
                let mut s = StrScan::default();
                while pos < bytes.len() {
                    let b = bytes[pos];
                    if !s.in_string {
                        if b == b'{' {
                            depth += 1;
                        } else if b == b'}' {
                            depth -= 1;
                            if depth == 0 {
                                pos += 1;
                                out.push(&body[start..pos]);
                                break;
                            }
                        }
                    }
                    s.step(b);
                    pos += 1;
                }
            }
            out
        }
    }

    fn row(n1: u64, n2: u64, label: &str) -> (RowId, EdgeRow) {
        (
            RowId {
                page: PageId(1),
                slot: n1 as u16,
            },
            EdgeRow {
                node1_id: n1,
                node1_label: format!("node{n1}").into(),
                geometry: EdgeGeometry {
                    x1: n1 as f64,
                    y1: 0.0,
                    x2: n2 as f64,
                    y2: 1.0,
                    directed: true,
                },
                edge_label: label.into(),
                node2_id: n2,
                node2_label: format!("node{n2}").into(),
            },
        )
    }

    /// Like `row` but with node `n` always at `(n, n)`, the way real
    /// layouts position a node identically in every incident row.
    fn crow(n1: u64, n2: u64, label: &str) -> (RowId, EdgeRow) {
        let (rid, mut r) = row(n1, n2, label);
        r.geometry.y1 = n1 as f64;
        r.geometry.y2 = n2 as f64;
        (rid, r)
    }

    /// Packed frames carry exactly their text twins: same ranges, and
    /// each image decodes to the twin's fragment byte for byte.
    fn assert_packed_twins(text: &[GraphFrame], packed: &[GraphFrame]) {
        assert_eq!(text.len(), packed.len());
        for (t, p) in text.iter().zip(packed) {
            let FrameBody::Packed(image) = &p.body else {
                panic!("frame {:?} is not packed", p.edge_range);
            };
            assert_eq!(
                (p.nodes, p.edges, p.edge_range),
                (t.nodes, t.edges, t.edge_range)
            );
            assert_eq!(Some(image.to_graph_fragment().as_str()), t.text());
        }
    }

    /// Every span must slice exactly the object the scanner sees.
    fn check_spans(json: &GraphJson) {
        let (nodes, edges) = scan::split_arrays(&json.text);
        let node_objs = scan::objects(nodes);
        let edge_objs = scan::objects(edges);
        assert_eq!(node_objs.len(), json.node_spans.len());
        assert_eq!(edge_objs.len(), json.edge_spans.len());
        assert_eq!(json.node_count, json.node_spans.len());
        assert_eq!(json.edge_count, json.edge_spans.len());
        for (span, obj) in json.node_spans.iter().zip(&node_objs) {
            assert_eq!(span.slice(&json.text), *obj);
        }
        for (span, obj) in json.edge_spans.iter().zip(&edge_objs) {
            assert_eq!(span.slice(&json.text), *obj);
        }
    }

    #[test]
    fn nodes_deduplicated_across_rows() {
        let rows = vec![row(1, 2, "a"), row(2, 3, "b")];
        let json = build_graph_json(&rows);
        assert_eq!(json.node_count, 3);
        assert_eq!(json.edge_count, 2);
        assert_eq!(json.text.matches("\"label\":\"node2\"").count(), 1);
        check_spans(&json);
    }

    #[test]
    fn escaping_special_characters() {
        let rows = vec![row(1, 2, "quote\" backslash\\ newline\n")];
        let json = build_graph_json(&rows);
        assert!(json.text.contains("quote\\\" backslash\\\\ newline\\n"));
        check_spans(&json);
    }

    #[test]
    fn escape_control_chars() {
        let mut out = String::new();
        escape_into("\u{0001}", &mut out);
        assert_eq!(out, "\\u0001");
    }

    #[test]
    fn empty_result_is_valid_json_skeleton() {
        let json = build_graph_json(&[]);
        assert_eq!(json.text, "{\"nodes\":[],\"edges\":[]}");
        assert_eq!(json.node_count, 0);
        check_spans(&json);
    }

    #[test]
    fn directed_flag_serialized() {
        let json = build_graph_json(&[row(5, 6, "x")]);
        assert!(json.text.contains("\"directed\":true"));
        assert!(json.text.contains("\"source\":5"));
    }

    #[test]
    fn byte_len_matches_text() {
        let json = build_graph_json(&[row(1, 2, "ü")]);
        assert_eq!(json.byte_len(), json.text.len());
        assert!(json.approx_heap_bytes() > json.byte_len());
    }

    #[test]
    fn retain_drops_edges_and_orphaned_nodes() {
        let rows = vec![crow(1, 2, "a"), crow(2, 3, "b"), crow(3, 4, "c")];
        let json = build_graph_json(&rows);
        // Drop the outer edges: nodes 2 and 3 survive, 1 and 4 drop.
        let mut drop_edges: Vec<u64> = [rows[0].0.to_u64(), rows[2].0.to_u64()].into();
        drop_edges.sort_unstable();
        let kept = json.splice(&drop_edges, &[1, 4], &build_graph_json(&[]), &[]);
        assert_eq!((kept.node_count, kept.edge_count), (2, 1));
        let direct = build_graph_json(&rows[1..2]);
        assert_eq!(kept.text, direct.text, "splice must equal a cold build");
        check_spans(&kept);
    }

    #[test]
    fn retain_nothing_dropped_is_identity() {
        let rows = vec![row(1, 2, "x"), row(2, 3, "y")];
        let json = build_graph_json(&rows);
        let none = build_graph_json(&[]);
        let kept = json.splice(&[], &[], &none, &[]);
        assert_eq!(kept.text, json.text);
        check_spans(&kept);
        let mut all_edges: Vec<u64> = rows.iter().map(|(rid, _)| rid.to_u64()).collect();
        all_edges.sort_unstable();
        let empty = json.splice(&all_edges, &[1, 2, 3], &none, &[]);
        assert_eq!(empty.text, "{\"nodes\":[],\"edges\":[]}");
        check_spans(&empty);
    }

    #[test]
    fn merge_dedups_nodes_and_sorts_edges_by_id() {
        // Rows 1-2 and 2-3 share node 2; edge ids interleave (slots 1, 3
        // vs 2) so the merge must produce ascending edge ids. Every node
        // of `b` is already in `a`, so none is new.
        let a = build_graph_json(&[row(1, 2, "a"), row(3, 4, "c")]);
        let b = build_graph_json(&[row(2, 3, "b")]);
        let merged = a.splice(&[], &[], &b, &[]);
        assert_eq!(merged.edge_count, 3);
        assert_eq!(merged.node_count, 4, "node 2/3 deduplicated");
        check_spans(&merged);
        // Edge fragments appear in ascending id order, like a cold build.
        let ids: Vec<u64> = merged.edge_spans.iter().map(|s| s.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = build_graph_json(&[row(1, 2, "a")]);
        let empty = build_graph_json(&[]);
        assert_eq!(a.splice(&[], &[], &empty, &[]).text, a.text);
        assert_eq!(empty.splice(&[], &[], &a, &[1, 2]).text, a.text);
        check_spans(&a.splice(&[], &[], &empty, &[]));
    }

    #[test]
    fn frame_slices_cover_a_cold_payload_exactly() {
        // Chunk = 2 over 6 edges: every fragment boundary lands exactly
        // on a span-run boundary (between consecutive edge spans).
        let rows: Vec<_> = (0..6).map(|i| crow(i, i + 1, "e")).collect();
        let json = build_graph_json(&rows);
        let frames: Vec<_> = json.frame_slices(&rows, 2, false).collect();
        assert_eq!(frames.len(), 3);
        assert!(frames.iter().all(|f| f.edges == 2));
        assert_eq!(
            frames.iter().map(|f| f.nodes).sum::<usize>(),
            json.node_count
        );
        let glued = gvdb_api::reassemble_graph(frames.iter().map(|f| f.text().unwrap())).unwrap();
        assert_eq!(glued, json.text);
    }

    #[test]
    fn frame_boundary_on_a_splice_glue_point() {
        // Drop the two middle edges of six: the retained payload glues
        // two runs of two edges each. Chunk = 2 puts the fragment
        // boundary exactly on the glue point — the slicer must not care.
        let rows: Vec<_> = (0..6).map(|i| crow(i, i + 1, "e")).collect();
        let json = build_graph_json(&rows);
        let mut drop_edges = vec![rows[2].0.to_u64(), rows[3].0.to_u64()];
        drop_edges.sort_unstable();
        let kept = json.splice(&drop_edges, &[3], &build_graph_json(&[]), &[]);
        let kept_rows = vec![
            rows[0].clone(),
            rows[1].clone(),
            rows[4].clone(),
            rows[5].clone(),
        ];
        // A splice that removes interior runs equals a cold build over
        // the surviving rows, so the slices match that build too.
        assert_eq!(kept.text, build_graph_json(&kept_rows).text);
        let frames: Vec<_> = kept.frame_slices(&kept_rows, 2, false).collect();
        assert_eq!(frames.len(), 2);
        let glued = gvdb_api::reassemble_graph(frames.iter().map(|f| f.text().unwrap())).unwrap();
        assert_eq!(glued, kept.text);
    }

    #[test]
    fn single_frame_when_chunk_exceeds_rows() {
        let rows = vec![row(1, 2, "a"), row(2, 3, "b")];
        let json = build_graph_json(&rows);
        let frames: Vec<_> = json.frame_slices(&rows, 100, false).collect();
        assert_eq!(frames.len(), 1);
        // One frame of everything is the payload itself, byte-for-byte.
        assert_eq!(frames[0].text(), Some(json.text.as_str()));
        assert_eq!(frames[0].nodes, json.node_count);
        assert_eq!(frames[0].edges, json.edge_count);
        // An empty payload yields no frames at all.
        assert!(build_graph_json(&[])
            .frame_slices(&[], 4, false)
            .next()
            .is_none());
    }

    #[test]
    fn incremental_builder_equals_the_one_shot_build() {
        let rows: Vec<_> = (0..10)
            .map(|i| {
                let (mut rid, r) = row(i % 4 + 1, (i * 3) % 7 + 1, "x");
                rid.slot = i as u16;
                (rid, r)
            })
            .collect();
        let mut b = GraphJsonBuilder::with_capacity(64);
        assert!(b.take_frame(None).is_none(), "nothing pushed yet");
        let mut frames = Vec::new();
        for chunk in rows.chunks(3) {
            b.push_rows(chunk);
            frames.push(b.take_frame(None).expect("non-empty chunk"));
            assert!(b.take_frame(None).is_none(), "watermarks advanced");
        }
        assert_eq!(b.rows(), rows.len());
        let json = b.finish();
        assert_eq!(json.text, build_graph_json(&rows).text);
        check_spans(&json);
        let glued = gvdb_api::reassemble_graph(frames.iter().map(|f| f.text().unwrap())).unwrap();
        assert_eq!(glued, json.text);
    }

    #[test]
    fn splice_survives_hostile_labels() {
        // Labels full of braces, quotes, backslashes and commas must not
        // corrupt the splice — including one embedding the `],"edges":[`
        // separator itself.
        let rows = vec![
            row(1, 2, "{\"}],\"edges\":[weird\\"),
            row(2, 3, "}}{{,,\"\\\""),
        ];
        let json = build_graph_json(&rows);
        check_spans(&json);
        let empty = build_graph_json(&[]);
        assert_eq!(json.splice(&[], &[], &empty, &[]).text, json.text);
        let merged =
            build_graph_json(&rows[..1]).splice(&[], &[], &build_graph_json(&rows[1..]), &[3]);
        assert_eq!(merged.text, json.text);
        check_spans(&merged);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Rows with ascending, distinct row ids; labels range over JSON
        /// metacharacters so escaping is exercised. A node has one
        /// position wherever it appears, as in a stored layer.
        fn arb_rows() -> impl Strategy<Value = Vec<(RowId, EdgeRow)>> {
            prop::collection::vec((0u64..40, 0u64..40, "[a-z\"\\\\{},:\\[\\]]{0,8}"), 1..60)
                .prop_map(|specs| {
                    specs
                        .into_iter()
                        .enumerate()
                        .map(|(i, (a, b, label))| {
                            let (mut rid, r) = crow(a, b, &label);
                            rid.slot = i as u16;
                            (rid, r)
                        })
                        .collect()
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The tentpole invariant: slicing a built payload into
            /// frames and gluing the fragments back together is the
            /// identity — and cold-built payloads deliver every edge's
            /// endpoints no later than the edge itself.
            #[test]
            fn frames_reassemble_byte_for_byte(
                rows in arb_rows(),
                chunk in 1usize..70,
            ) {
                let json = build_graph_json(&rows);
                let frames: Vec<_> = json.frame_slices(&rows, chunk, false).collect();
                let packed: Vec<_> = json.frame_slices(&rows, chunk, true).collect();
                assert_packed_twins(&frames, &packed);
                prop_assert_eq!(
                    frames.iter().map(|f| f.nodes).sum::<usize>(),
                    json.node_count
                );
                prop_assert_eq!(
                    frames.iter().map(|f| f.edges).sum::<usize>(),
                    json.edge_count
                );
                let glued = gvdb_api::reassemble_graph(
                    frames.iter().map(|f| f.text().unwrap()),
                )
                .unwrap();
                prop_assert_eq!(glued, json.text.clone());
                // Prefix closure: nodes arrive with (or before) their edges.
                let mut delivered = HashSet::new();
                let mut n = 0;
                for f in &frames {
                    for span in &json.node_spans[n..n + f.nodes] {
                        delivered.insert(span.id);
                    }
                    n += f.nodes;
                    for (_, r) in &rows[f.edge_range.0..f.edge_range.1] {
                        prop_assert!(delivered.contains(&r.node1_id));
                        prop_assert!(delivered.contains(&r.node2_id));
                    }
                }
            }

            /// The incremental (chunk-at-a-time) builder produces the
            /// same bytes as the one-shot build, and its taken frames
            /// reassemble to that payload.
            #[test]
            fn incremental_builder_is_byte_identical(
                rows in arb_rows(),
                cut in 1usize..20,
            ) {
                let mut b = GraphJsonBuilder::with_capacity(rows.len() * 96);
                let mut p = GraphJsonBuilder::with_capacity(rows.len() * 96);
                let (mut frames, mut packed) = (Vec::new(), Vec::new());
                for (k, chunk) in rows.chunks(cut).enumerate() {
                    b.push_rows(chunk);
                    p.push_rows(chunk);
                    if let Some(f) = b.take_frame(None) {
                        frames.push(f);
                    }
                    let pushed = &rows[..(rows.len()).min((k + 1) * cut)];
                    packed.extend(p.take_frame(Some(pushed)));
                }
                prop_assert!(b.take_frame(None).is_none());
                assert_packed_twins(&frames, &packed);
                let json = b.finish();
                prop_assert_eq!(&json.text, &build_graph_json(&rows).text);
                check_spans(&json);
                let glued = gvdb_api::reassemble_graph(
                    frames.iter().map(|f| f.text().unwrap()),
                )
                .unwrap();
                prop_assert_eq!(glued, json.text.clone());
            }

            /// Spliced (delta) payloads slice byte-identically too, even
            /// though node order is no longer first-seen order.
            #[test]
            fn spliced_payloads_slice_byte_for_byte(
                rows in arb_rows(),
                mask in prop::collection::vec(any::<bool>(), 60..61),
                chunk in 1usize..70,
            ) {
                let json = build_graph_json(&rows);
                let dropped = |i: usize| mask[i % mask.len()];
                let drop_edges: Vec<u64> = rows
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| dropped(*i))
                    .map(|(_, (rid, _))| rid.to_u64())
                    .collect();
                let kept_rows: Vec<_> = rows
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !dropped(*i))
                    .map(|(_, r)| r.clone())
                    .collect();
                let kept_ids: HashSet<u64> = kept_rows
                    .iter()
                    .flat_map(|(_, r)| [r.node1_id, r.node2_id])
                    .collect();
                let mut drop_nodes: Vec<u64> = json
                    .node_spans
                    .iter()
                    .map(|s| s.id)
                    .filter(|id| !kept_ids.contains(id))
                    .collect();
                drop_nodes.sort_unstable();
                let kept = json.splice(&drop_edges, &drop_nodes, &build_graph_json(&[]), &[]);
                let frames: Vec<_> = kept.frame_slices(&kept_rows, chunk, false).collect();
                let glued = gvdb_api::reassemble_graph(
                    frames.iter().map(|f| f.text().unwrap()),
                )
                .unwrap();
                prop_assert_eq!(glued, kept.text.clone());
                let packed: Vec<_> = kept.frame_slices(&kept_rows, chunk, true).collect();
                assert_packed_twins(&frames, &packed);
            }

            /// A delta-shaped splice — departures out of an anchor,
            /// arrivals spliced in — packs every frame in the splice's
            /// node order, each decoding to its text twin.
            #[test]
            fn delta_splices_pack_like_their_text(
                rows in arb_rows(),
                mask in prop::collection::vec(any::<bool>(), 60..61),
                split in 0usize..60,
                chunk in 1usize..70,
            ) {
                let split = split.min(rows.len());
                let (anchor_rows, arrivals) = rows.split_at(split);
                let anchor = build_graph_json(anchor_rows);
                let departed = |i: usize| mask[i % mask.len()];
                let drop_edges: Vec<u64> = anchor_rows
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| departed(*i))
                    .map(|(_, (rid, _))| rid.to_u64())
                    .collect();
                // Arrival row ids all follow the anchor's: the merged
                // rows are the kept anchor rows, then the arrivals.
                let merged: Vec<_> = anchor_rows
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !departed(*i))
                    .map(|(_, r)| r.clone())
                    .chain(arrivals.iter().cloned())
                    .collect();
                let ids = |rows: &[(RowId, EdgeRow)]| -> HashSet<u64> {
                    rows.iter().flat_map(|(_, r)| [r.node1_id, r.node2_id]).collect()
                };
                let (old_ids, new_ids) = (ids(anchor_rows), ids(&merged));
                let mut drop_nodes: Vec<u64> = old_ids.difference(&new_ids).copied().collect();
                let mut new_nodes: Vec<u64> = new_ids.difference(&old_ids).copied().collect();
                drop_nodes.sort_unstable();
                new_nodes.sort_unstable();
                let spliced = anchor.splice(
                    &drop_edges,
                    &drop_nodes,
                    &build_graph_json(arrivals),
                    &new_nodes,
                );
                let frames: Vec<_> = spliced.frame_slices(&merged, chunk, false).collect();
                let glued = gvdb_api::reassemble_graph(
                    frames.iter().map(|f| f.text().unwrap()),
                )
                .unwrap();
                prop_assert_eq!(glued, spliced.text.clone());
                let packed: Vec<_> = spliced.frame_slices(&merged, chunk, true).collect();
                assert_packed_twins(&frames, &packed);
            }
        }
    }
}
