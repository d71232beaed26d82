//! The **streamed frame layer** of the `v1` protocol.
//!
//! A buffered `ApiResponse` makes the client wait for the whole result
//! body before it can paint anything; the paper's interactive pipeline
//! instead streams each window's sub-graph in small pieces so transfer
//! overlaps client-side rendering (its Fig. 3 "Communication + Rendering"
//! series). [`ApiFrame`] is that pipeline as a wire type: a streamed
//! result is a **frame sequence**
//!
//! ```text
//! Header · Rows* · Trailer       (window, search, focus)
//! Header · Summary · Trailer     (aggregate)
//! Header · … · Error             (terminal failure)
//! ```
//!
//! * [`ApiFrame::Header`] — what is being answered (op, dataset, layer,
//!   the epoch the rows are consistent with, the window source) and the
//!   row total the stream will carry. Sent before any row is fetched
//!   into the response, so time-to-first-frame is independent of window
//!   size; a client shows progress as the sum of [`RowBatch::len`] over
//!   [`FrameHeader::rows_total`].
//! * [`ApiFrame::Rows`] — one batch of results: a self-contained graph
//!   fragment (`{"nodes":[…],"edges":[…]}`, nodes deduplicated across the
//!   stream — clients merge by id) or a batch of search hits. Graph
//!   frames are **disjoint contiguous slices of the buffered payload**:
//!   concatenating every frame's node bodies (and edge bodies) in order
//!   reassembles the buffered envelope's graph byte-for-byte — see
//!   [`reassemble_graph`]. On delta pans, each frame's `reused` flag says
//!   whether its rows are pure kept region, so the client can repaint
//!   those immediately.
//! * [`ApiFrame::Summary`] — the result of a streamed aggregation.
//! * [`ApiFrame::Trailer`] — the stats the buffered envelope carries in
//!   `X-Gvdb-*` headers (source, reused/fetched counts) plus the layer
//!   epoch **observed at stream end**: if an edit raced the stream, the
//!   trailer epoch is newer than the header epoch and the client knows
//!   its view is already stale.
//! * [`ApiFrame::Error`] — a typed failure after the stream started (a
//!   failure before the first frame stays a plain HTTP error response).
//!
//! ## Chunk payloads
//!
//! Each frame travels as one HTTP chunk. A chunk payload is either a
//! JSON frame or a binary packed `Rows` frame, told apart by its first
//! byte:
//!
//! ```text
//! payload     := json-frame | packed-rows
//! json-frame  := '{' … '}' '\n'   Header, Rows, Summary, Trailer, Error
//! packed-rows := tag image        Rows of a stream that asked for packed
//! tag         := 0x01             reused:false
//!              | 0x02             reused:true
//! ```
//!
//! The image is the raw [`PackedImage`] bytes, which carry the frame's
//! node and edge counts themselves; a tag is never `{`. A plain stream
//! is therefore NDJSON from end to end, and only a stream that asked for
//! the packed encoding ever carries a binary chunk.
//! [`ApiFrame::write_chunk`] writes a payload and
//! [`ApiFrame::from_chunk`] reads one.
//!
//! Like the rest of this crate the JSON codec is hand-rolled canonical
//! JSON over [`Json`]; every frame round-trips byte-exactly (graph
//! fragments are spliced verbatim on write, and on read validated and
//! handed through byte for byte).

use crate::json::Json;
use crate::pack::{push_u64, PackedImage};
use crate::predicate::AggregateDto;
use crate::{
    need, need_raw, need_str, need_u64, need_usize, ApiError, ApiResult, SearchHitDto, Source,
};
use serde::{Deserialize, Serialize};

/// Default rows per [`ApiFrame::Rows`] batch.
///
/// Sized from the `ClientModel` calibration the Fig. 3 harness uses: the
/// simulated browser pipeline streams 16 KiB chunks, and a serialized
/// edge row (edge object + its share of node objects) measures ~128
/// bytes, so a batch of 128 rows fills one calibrated chunk.
pub const DEFAULT_CHUNK_ROWS: usize = 128;

/// First byte of a binary packed `Rows` chunk whose batch was not all
/// reused (see the module docs).
pub const TAG_PACKED: u8 = 0x01;

/// First byte of a binary packed `Rows` chunk whose every row was
/// reused from the cache / delta anchor.
pub const TAG_PACKED_REUSED: u8 = 0x02;

/// The opening frame of a streamed result (see module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameHeader {
    /// The operation being answered (`window`, `search`, `focus`).
    pub op: String,
    /// The dataset that is answering.
    pub dataset: String,
    /// The layer queried.
    pub layer: usize,
    /// The edit epoch the streamed rows are consistent with.
    pub epoch: u64,
    /// How the result is being produced (window operations only).
    pub source: Option<Source>,
    /// The session that anchored the query, if any.
    pub session: Option<u64>,
    /// Rows the stream will carry: exact, except for a filtered cold
    /// window, where it is the candidate count (an upper bound).
    pub rows_total: u64,
}

/// One batch of streamed results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RowBatch {
    /// A self-contained graph fragment: nodes deduplicated across the
    /// stream, clients merge batches by object id. The fragments of one
    /// stream are disjoint contiguous slices of the buffered payload;
    /// [`reassemble_graph`] glues them back byte-for-byte.
    Graph {
        /// The fragment as raw JSON (`{"nodes":[…],"edges":[…]}`),
        /// spliced verbatim into the frame.
        graph: String,
        /// Node objects in the fragment.
        nodes: u64,
        /// Edge objects in the fragment.
        edges: u64,
        /// Whether every row in the batch was reused from the cache /
        /// delta anchor (false as soon as one row was heap-fetched for
        /// this response).
        reused: bool,
    },
    /// A graph fragment in the negotiated compact encoding (see
    /// [`crate::pack`]): the same nodes and edges a [`RowBatch::Graph`]
    /// frame would carry, as a delta/dictionary-coded binary image.
    /// Emitted only when the client asked for it
    /// (`ApiRequest::Window { packed: true }`), as a binary chunk (see
    /// the module docs); decode with
    /// [`RowBatch::into_plain`] to get the exact plain fragment back.
    Packed {
        /// The batch content as a validated binary image.
        image: PackedImage,
        /// Same meaning as [`RowBatch::Graph::reused`].
        reused: bool,
    },
    /// A batch of keyword-search hits.
    Hits {
        /// The hits in this batch.
        hits: Vec<SearchHitDto>,
    },
}

impl RowBatch {
    /// Rows in the batch (edges of a graph fragment, hits of a search
    /// batch).
    pub fn len(&self) -> usize {
        match self {
            RowBatch::Graph { edges, .. } => *edges as usize,
            RowBatch::Packed { image, .. } => image.edges(),
            RowBatch::Hits { hits } => hits.len(),
        }
    }

    /// Whether the batch carries no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode a [`RowBatch::Packed`] batch into the equivalent
    /// [`RowBatch::Graph`] batch (the fragment is byte-identical to what
    /// the server would have sent unpacked). Plain batches pass through
    /// unchanged, so a consumer can normalize a mixed stream.
    pub fn into_plain(self) -> RowBatch {
        match self {
            RowBatch::Packed { image, reused } => RowBatch::Graph {
                nodes: image.nodes() as u64,
                edges: image.edges() as u64,
                graph: image.to_graph_fragment(),
                reused,
            },
            other => other,
        }
    }
}

/// The closing frame: the per-response stats the buffered envelope
/// reports in `X-Gvdb-*` headers, plus the end-of-stream epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrailerFrame {
    /// The layer's edit epoch **observed when the trailer was built** —
    /// newer than the header epoch exactly when an edit raced the
    /// stream.
    pub epoch: u64,
    /// How the result was produced (window operations only).
    pub source: Option<Source>,
    /// Total rows streamed.
    pub rows: u64,
    /// Rows reused from the cache / delta anchor.
    pub rows_reused: u64,
    /// Rows fetched from the heap.
    pub rows_fetched: u64,
    /// Number of [`ApiFrame::Rows`] frames emitted.
    pub frames: u64,
}

/// One frame of a streamed `v1` result (see module docs for the
/// sequence grammar).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ApiFrame {
    /// Stream opening: what is being answered.
    Header(FrameHeader),
    /// One batch of rows.
    Rows(RowBatch),
    /// The aggregation summary of a streamed `aggregate` result — one
    /// per stream, between the header and the trailer.
    Summary(AggregateDto),
    /// Stream closing: response stats + end-of-stream epoch.
    Trailer(TrailerFrame),
    /// Terminal mid-stream failure.
    Error(ApiError),
}

impl ApiFrame {
    /// The wire tag of this frame.
    pub fn kind(&self) -> &'static str {
        match self {
            ApiFrame::Header(_) => "header",
            ApiFrame::Rows(_) => "rows",
            ApiFrame::Summary(_) => "summary",
            ApiFrame::Trailer(_) => "trailer",
            ApiFrame::Error(_) => "error",
        }
    }

    /// Append this frame's chunk payload to `out` (see the module docs):
    /// the JSON text and a `\n` for every frame except packed rows, which
    /// are their tag byte followed by the image bytes, copied once.
    pub fn write_chunk(&self, out: &mut Vec<u8>) {
        match self {
            ApiFrame::Rows(RowBatch::Packed { image, reused }) => {
                out.reserve(1 + image.as_bytes().len());
                out.push(if *reused {
                    TAG_PACKED_REUSED
                } else {
                    TAG_PACKED
                });
                out.extend_from_slice(image.as_bytes());
            }
            json => {
                json.write_json(out);
                out.push(b'\n');
            }
        }
    }

    /// Read one chunk payload written by [`ApiFrame::write_chunk`]: a
    /// first byte of `{` is a JSON frame ([`ApiFrame::from_json`]), a
    /// packed tag is a binary `Rows` frame whose image is validated by
    /// [`PackedImage::from_bytes`]. Anything else — an empty payload, an
    /// unknown tag, a corrupt image — is a `BadRequest`.
    pub fn from_chunk(payload: &[u8]) -> ApiResult<ApiFrame> {
        match payload.first() {
            Some(b'{') => {
                let text = std::str::from_utf8(payload)
                    .map_err(|_| ApiError::bad_request("malformed frame: not UTF-8"))?;
                ApiFrame::from_json(text.trim_end())
            }
            Some(&tag @ (TAG_PACKED | TAG_PACKED_REUSED)) => {
                let image = PackedImage::from_bytes(payload[1..].to_vec())
                    .map_err(ApiError::bad_request)?;
                Ok(ApiFrame::Rows(RowBatch::Packed {
                    image,
                    reused: tag == TAG_PACKED_REUSED,
                }))
            }
            Some(tag) => Err(ApiError::bad_request(format!(
                "unknown frame tag 0x{tag:02x}"
            ))),
            None => Err(ApiError::bad_request("empty frame")),
        }
    }

    /// The JSON text of a frame that travels as JSON: every frame but
    /// packed rows.
    ///
    /// # Panics
    ///
    /// On a [`RowBatch::Packed`] frame, which has no JSON form; write it
    /// with [`ApiFrame::write_chunk`].
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        self.write_json(&mut out);
        String::from_utf8(out).expect("frames are written as UTF-8")
    }

    /// Append the JSON text to `out`. Graph fragments are spliced in
    /// verbatim (they are already JSON), mirroring the zero-copy envelope
    /// of [`crate::ApiResponse::to_json`].
    fn write_json(&self, out: &mut Vec<u8>) {
        match self {
            ApiFrame::Rows(RowBatch::Graph {
                graph,
                nodes,
                edges,
                reused,
            }) => {
                out.reserve(graph.len() + 64);
                out.extend_from_slice(b"{\"frame\":\"rows\",\"nodes\":");
                push_u64(out, *nodes);
                out.extend_from_slice(b",\"edges\":");
                push_u64(out, *edges);
                out.extend_from_slice(if *reused {
                    b",\"reused\":true,\"graph\":"
                } else {
                    b",\"reused\":false,\"graph\":"
                });
                out.extend_from_slice(graph.as_bytes());
                out.push(b'}');
            }
            ApiFrame::Rows(RowBatch::Packed { .. }) => {
                panic!("a packed rows frame travels as a binary chunk, not JSON")
            }
            other => out.extend_from_slice(other.to_value().to_string().as_bytes()),
        }
    }

    fn to_value(&self) -> Json {
        let mut members: Vec<(String, Json)> =
            vec![("frame".into(), Json::Str(self.kind().into()))];
        match self {
            ApiFrame::Header(h) => {
                members.push(("op".into(), Json::Str(h.op.clone())));
                members.push(("dataset".into(), Json::Str(h.dataset.clone())));
                members.push(("layer".into(), Json::uint(h.layer as u64)));
                members.push(("epoch".into(), Json::uint(h.epoch)));
                if let Some(source) = h.source {
                    members.push(("source".into(), Json::Str(source.as_str().into())));
                }
                if let Some(session) = h.session {
                    members.push(("session".into(), Json::uint(session)));
                }
                members.push(("rows_total".into(), Json::uint(h.rows_total)));
            }
            ApiFrame::Rows(RowBatch::Graph { .. }) | ApiFrame::Rows(RowBatch::Packed { .. }) => {
                unreachable!("graph batches serialize in write_json, packed ones as binary")
            }
            ApiFrame::Rows(RowBatch::Hits { hits }) => {
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
            ApiFrame::Summary(s) => {
                members.push(("result".into(), s.to_value()));
            }
            ApiFrame::Trailer(t) => {
                members.push(("epoch".into(), Json::uint(t.epoch)));
                if let Some(source) = t.source {
                    members.push(("source".into(), Json::Str(source.as_str().into())));
                }
                members.push(("rows".into(), Json::uint(t.rows)));
                members.push(("rows_reused".into(), Json::uint(t.rows_reused)));
                members.push(("rows_fetched".into(), Json::uint(t.rows_fetched)));
                members.push(("frames".into(), Json::uint(t.frames)));
            }
            ApiFrame::Error(e) => {
                members.push((
                    "error".into(),
                    Json::Obj(vec![
                        ("kind".into(), Json::Str(e.kind.as_str().into())),
                        ("message".into(), Json::Str(e.message.clone())),
                    ]),
                ));
            }
        }
        Json::Obj(members)
    }

    /// Parse the JSON text produced by [`ApiFrame::to_json`]. A graph
    /// fragment is validated as JSON in place and handed through byte
    /// for byte — no tree is built for it — so round-trips are exact
    /// (see [`Json::parse_keeping`]).
    pub fn from_json(text: &str) -> ApiResult<ApiFrame> {
        let (v, graph) = Json::parse_keeping(text, "graph")
            .map_err(|e| ApiError::bad_request(format!("malformed frame: {e}")))?;
        let kind = need_str(&v, "frame")?;
        Ok(match kind {
            "header" => ApiFrame::Header(FrameHeader {
                op: need_str(&v, "op")?.to_string(),
                dataset: need_str(&v, "dataset")?.to_string(),
                layer: need_usize(&v, "layer")?,
                epoch: need_u64(&v, "epoch")?,
                source: match v.get("source").and_then(Json::as_str) {
                    Some(tag) => Some(
                        Source::parse(tag)
                            .ok_or_else(|| ApiError::bad_request("unknown frame source"))?,
                    ),
                    None => None,
                },
                session: v.get("session").and_then(Json::as_u64),
                rows_total: need_u64(&v, "rows_total")?,
            }),
            "rows" => {
                if let Some(hits) = v.get("hits") {
                    ApiFrame::Rows(RowBatch::Hits {
                        hits: hits
                            .as_arr()
                            .ok_or_else(|| ApiError::bad_request("hits must be an array"))?
                            .iter()
                            .map(|h| {
                                Ok(SearchHitDto {
                                    node: need_u64(h, "node")?,
                                    label: need_str(h, "label")?.to_string(),
                                    x: crate::need_f64(h, "x")?,
                                    y: crate::need_f64(h, "y")?,
                                })
                            })
                            .collect::<ApiResult<_>>()?,
                    })
                } else {
                    ApiFrame::Rows(RowBatch::Graph {
                        graph: need_raw(graph, "graph")?.to_string(),
                        nodes: need_u64(&v, "nodes")?,
                        edges: need_u64(&v, "edges")?,
                        reused: v.get("reused").and_then(Json::as_bool).unwrap_or(false),
                    })
                }
            }
            "summary" => ApiFrame::Summary(AggregateDto::from_value(need(&v, "result")?)?),
            "trailer" => ApiFrame::Trailer(TrailerFrame {
                epoch: need_u64(&v, "epoch")?,
                source: match v.get("source").and_then(Json::as_str) {
                    Some(tag) => Some(
                        Source::parse(tag)
                            .ok_or_else(|| ApiError::bad_request("unknown frame source"))?,
                    ),
                    None => None,
                },
                rows: need_u64(&v, "rows")?,
                rows_reused: need_u64(&v, "rows_reused")?,
                rows_fetched: need_u64(&v, "rows_fetched")?,
                frames: need_u64(&v, "frames")?,
            }),
            "error" => {
                let e = need(&v, "error")?;
                let kind = crate::ErrorKind::parse(need_str(e, "kind")?)
                    .ok_or_else(|| ApiError::bad_request("unknown error kind"))?;
                ApiFrame::Error(ApiError::new(kind, need_str(e, "message")?))
            }
            other => {
                return Err(ApiError::bad_request(format!("unknown frame '{other}'")));
            }
        })
    }
}

/// Split one graph fragment (`{"nodes":[…],"edges":[…]}`) into its node
/// and edge array bodies. String-aware: a label may legally embed the
/// `],"edges":[` separator, so the scan tracks JSON string state instead
/// of pattern-matching blindly.
fn split_graph_fragment(fragment: &str) -> Option<(&str, &str)> {
    const PREFIX: &str = "{\"nodes\":[";
    const SEP: &str = "],\"edges\":[";
    const SUFFIX: &str = "]}";
    let body = fragment.strip_prefix(PREFIX)?;
    let bytes = body.as_bytes();
    let (mut in_string, mut escaped) = (false, false);
    for i in 0..bytes.len() {
        if !in_string && bytes[i..].starts_with(SEP.as_bytes()) {
            let edges = body[i + SEP.len()..].strip_suffix(SUFFIX)?;
            return Some((&body[..i], edges));
        }
        let b = bytes[i];
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
        } else if b == b'"' {
            in_string = true;
        }
    }
    None
}

/// Reassemble the buffered graph payload from the streamed fragments of
/// one window, in emission order. Streamed v2 frames are disjoint
/// contiguous slices of the buffered payload, so the result is
/// **byte-identical** to the buffered envelope's `graph` member — the
/// property the streaming tests pin down. Returns a typed error on a
/// fragment that is not of the `{"nodes":[…],"edges":[…]}` shape.
pub fn reassemble_graph<'a, I>(fragments: I) -> ApiResult<String>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut nodes = String::new();
    let mut edges = String::new();
    for fragment in fragments {
        let (n, e) = split_graph_fragment(fragment)
            .ok_or_else(|| ApiError::bad_request("malformed graph fragment"))?;
        for (body, out) in [(n, &mut nodes), (e, &mut edges)] {
            if body.is_empty() {
                continue;
            }
            if !out.is_empty() {
                out.push(',');
            }
            out.push_str(body);
        }
    }
    Ok(format!("{{\"nodes\":[{nodes}],\"edges\":[{edges}]}}"))
}

/// Encoded bytes a graph [`ApiFrame::Rows`] envelope adds around its
/// payload (the `{"frame":"rows",…,"graph":…}` wrapper) — what the Fig. 3
/// cost model charges per streamed chunk on top of the payload itself.
/// Measured from the real encoder once per process (the cost model calls
/// this on every window response, including µs-scale cache hits).
pub fn rows_envelope_bytes() -> usize {
    static BYTES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *BYTES.get_or_init(|| {
        let placeholder = "{}";
        ApiFrame::Rows(RowBatch::Graph {
            graph: placeholder.into(),
            nodes: 0,
            edges: 0,
            reused: false,
        })
        .to_json()
        .len()
            - placeholder.len()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frame's chunk payload.
    fn chunk(frame: &ApiFrame) -> Vec<u8> {
        let mut out = Vec::new();
        frame.write_chunk(&mut out);
        out
    }

    fn roundtrip(frame: &ApiFrame) {
        let wire = chunk(frame);
        let back = ApiFrame::from_chunk(&wire).expect("parse frame");
        assert_eq!(&back, frame, "wire: {}", String::from_utf8_lossy(&wire));
        // Canonical: a second trip is byte-stable.
        assert_eq!(chunk(&back), wire);
        match frame {
            // A packed rows frame is its tag and the raw image.
            ApiFrame::Rows(RowBatch::Packed { image, reused }) => {
                let tag = if *reused {
                    TAG_PACKED_REUSED
                } else {
                    TAG_PACKED
                };
                assert_eq!(wire[0], tag);
                assert_eq!(&wire[1..], image.as_bytes());
            }
            // Every other frame is its JSON text and a newline.
            json => {
                assert_eq!(wire, format!("{}\n", json.to_json()).into_bytes());
                assert_eq!(&ApiFrame::from_json(&json.to_json()).unwrap(), json);
            }
        }
    }

    fn sample_image() -> PackedImage {
        crate::pack::PackedRows {
            nodes: vec![crate::pack::PackedNode {
                id: 3,
                label: "n\"3".into(),
                xbits: 1.25f64.to_bits(),
                ybits: 2.5f64.to_bits(),
            }],
            edges: vec![crate::pack::PackedEdge {
                rid: 17,
                source: 3,
                target: 3,
                label: "loop".into(),
                directed: true,
            }],
        }
        .to_image()
    }

    #[test]
    fn every_frame_kind_round_trips() {
        roundtrip(&ApiFrame::Header(FrameHeader {
            op: "window".into(),
            dataset: "dblp".into(),
            layer: 2,
            epoch: 7,
            source: Some(Source::Delta),
            session: Some(41),
            rows_total: 1024,
        }));
        roundtrip(&ApiFrame::Header(FrameHeader {
            op: "search".into(),
            dataset: "default".into(),
            layer: 0,
            epoch: 0,
            source: None,
            session: None,
            rows_total: 0,
        }));
        roundtrip(&ApiFrame::Rows(RowBatch::Graph {
            graph: "{\"nodes\":[{\"id\":1}],\"edges\":[]}".into(),
            nodes: 1,
            edges: 0,
            reused: true,
        }));
        for reused in [false, true] {
            roundtrip(&ApiFrame::Rows(RowBatch::Packed {
                image: sample_image(),
                reused,
            }));
        }
        roundtrip(&ApiFrame::Rows(RowBatch::Hits {
            hits: vec![SearchHitDto {
                node: u64::MAX,
                label: "a \"quoted\" hit".into(),
                x: 1.5,
                y: -2.0,
            }],
        }));
        roundtrip(&ApiFrame::Summary(AggregateDto {
            agg: crate::AggOp::Histogram {
                field: crate::Field::Degree,
                buckets: 4,
            },
            rows: 40,
            nodes: 17,
            value: None,
            histogram: Some(crate::HistogramDto {
                lo: 1.0,
                hi: 9.5,
                counts: vec![10, 0, 4, 3],
            }),
        }));
        roundtrip(&ApiFrame::Summary(AggregateDto {
            agg: crate::AggOp::Count,
            rows: 0,
            nodes: 0,
            value: None,
            histogram: None,
        }));
        roundtrip(&ApiFrame::Trailer(TrailerFrame {
            epoch: 8,
            source: Some(Source::Cold),
            rows: 1024,
            rows_reused: 900,
            rows_fetched: 124,
            frames: 8,
        }));
        roundtrip(&ApiFrame::Error(ApiError::internal("disk on fire")));
    }

    /// A packed chunk whose image holds several nodes and edges, so that
    /// mutated copies often still decode.
    fn sample_packed_chunk() -> Vec<u8> {
        let mut w = crate::pack::ImageWriter::new();
        let labels = ["alpha", "alphabet", "é😀", ""];
        for i in 0..6u64 {
            let (x, y) = (i as f64 * 1.5, -(i as f64) / 4.0);
            w.node(10 + i, labels[i as usize % 4], x.to_bits(), y.to_bits());
        }
        for i in 0..8u64 {
            w.edge(
                i << 16,
                10 + i % 6,
                10 + (i * 5) % 6,
                labels[i as usize % 3],
                i % 2 == 0,
            );
        }
        chunk(&ApiFrame::Rows(RowBatch::Packed {
            image: w.finish(),
            reused: false,
        }))
    }

    fn bad_request(payload: &[u8]) -> String {
        let err = ApiFrame::from_chunk(payload).unwrap_err();
        assert_eq!(err.kind, crate::ErrorKind::BadRequest, "{}", err.message);
        err.message
    }

    #[test]
    fn a_truncated_image_is_a_typed_error() {
        let wire = sample_packed_chunk();
        assert!(ApiFrame::from_chunk(&wire).is_ok());
        for end in 1..wire.len() {
            bad_request(&wire[..end]);
        }
    }

    #[test]
    fn an_unknown_tag_is_a_typed_error() {
        let wire = sample_packed_chunk();
        for tag in 0..=u8::MAX {
            if [b'{', TAG_PACKED, TAG_PACKED_REUSED].contains(&tag) {
                continue;
            }
            let mut payload = wire.clone();
            payload[0] = tag;
            let message = bad_request(&payload);
            assert!(message.contains("unknown frame tag"), "{message}");
        }
        // A JSON frame must open with `{`: leading whitespace is no tag.
        bad_request(b" {\"frame\":\"trailer\"}");
    }

    #[test]
    fn a_corrupt_image_is_a_typed_error() {
        let wire = sample_packed_chunk();
        // A trailing byte after the last edge.
        let mut long = wire.clone();
        long.push(0);
        assert!(bad_request(&long).contains("trailing bytes"));
        // A node count far past what the image holds.
        let mut counts = wire.clone();
        counts[1] = 0x7F;
        bad_request(&counts);
        // Not UTF-8 in a JSON frame.
        bad_request(b"{\"frame\":\"\xff\"}");
    }

    #[test]
    fn an_empty_payload_is_a_typed_error() {
        assert!(bad_request(b"").contains("empty frame"));
        // A tag with no image after it.
        bad_request(&[TAG_PACKED]);
        bad_request(&[TAG_PACKED_REUSED]);
    }

    #[test]
    fn json_rows_frames_no_longer_carry_a_packed_member() {
        let text = "{\"frame\":\"rows\",\"nodes\":0,\"edges\":0,\"packed\":\"AAAA\"}";
        assert_eq!(bad_request(text.as_bytes()), "missing field 'graph'");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Any bytes after a packed tag decode to an image whose owned
        /// rows re-encode to the same rows and print the same fragment,
        /// or are a typed error; never a panic.
        #[test]
        fn any_bytes_after_a_tag_decode_or_fail_cleanly(
            reused in proptest::prelude::any::<bool>(),
            random in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
            edits in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), proptest::prelude::any::<u8>()),
                0..4,
            ),
            cut in proptest::prelude::any::<usize>(),
            mutate in proptest::prelude::any::<bool>(),
        ) {
            // Either random bytes, or a valid image with a few bytes
            // replaced and possibly cut short.
            let image = if mutate {
                let mut bytes = sample_packed_chunk()[1..].to_vec();
                let len = bytes.len();
                for (at, byte) in edits {
                    bytes[at % len] = byte;
                }
                if cut.is_multiple_of(4) {
                    bytes.truncate(cut % len);
                }
                bytes
            } else {
                random
            };
            let mut payload = vec![if reused { TAG_PACKED_REUSED } else { TAG_PACKED }];
            payload.extend_from_slice(&image);
            match ApiFrame::from_chunk(&payload) {
                Ok(ApiFrame::Rows(RowBatch::Packed { image: got, reused: r })) => {
                    proptest::prop_assert_eq!(r, reused);
                    proptest::prop_assert_eq!(got.as_bytes(), &image[..]);
                    let rows = got.to_rows();
                    proptest::prop_assert_eq!(
                        (rows.nodes.len(), rows.edges.len()),
                        (got.nodes(), got.edges())
                    );
                    proptest::prop_assert_eq!(&rows.to_image().to_rows(), &rows);
                    proptest::prop_assert_eq!(rows.to_graph_fragment(), got.to_graph_fragment());
                }
                Ok(other) => panic!("a tagged chunk decoded to {other:?}"),
                Err(e) => proptest::prop_assert_eq!(e.kind, crate::ErrorKind::BadRequest),
            }
        }
    }

    #[test]
    fn graph_payload_is_spliced_verbatim() {
        let graph = "{\"nodes\":[],\"edges\":[]}";
        let frame = ApiFrame::Rows(RowBatch::Graph {
            graph: graph.into(),
            nodes: 0,
            edges: 0,
            reused: false,
        });
        let wire = frame.to_json();
        assert!(wire.ends_with(&format!(",\"graph\":{graph}}}")), "{wire}");
    }

    #[test]
    fn unknown_frames_and_sources_are_typed_errors() {
        let err = ApiFrame::from_json("{\"frame\":\"warble\"}").unwrap_err();
        assert_eq!(err.kind, crate::ErrorKind::BadRequest);
        // `progress` is no frame kind, and no shim accepts it.
        let err = ApiFrame::from_json("{\"frame\":\"progress\",\"rows_sent\":1,\"rows_total\":2}")
            .unwrap_err();
        assert_eq!(err.kind, crate::ErrorKind::BadRequest);
        assert!(err.message.contains("unknown frame"), "{}", err.message);
        let err = ApiFrame::from_json(
            "{\"frame\":\"header\",\"op\":\"window\",\"dataset\":\"d\",\"layer\":0,\"epoch\":0,\"source\":\"tepid\",\"rows_total\":0}",
        )
        .unwrap_err();
        assert_eq!(err.kind, crate::ErrorKind::BadRequest);
        assert!(err.message.contains("source"), "{}", err.message);
        // The row total is required.
        let err = ApiFrame::from_json(
            "{\"frame\":\"header\",\"op\":\"window\",\"dataset\":\"d\",\"layer\":0,\"epoch\":0}",
        )
        .unwrap_err();
        assert_eq!(err.kind, crate::ErrorKind::BadRequest);
    }

    #[test]
    fn reassembly_glues_fragments_back_together() {
        let full =
            "{\"nodes\":[{\"id\":1},{\"id\":2},{\"id\":3}],\"edges\":[{\"id\":9},{\"id\":10}]}";
        let frames = [
            "{\"nodes\":[{\"id\":1},{\"id\":2}],\"edges\":[{\"id\":9}]}",
            "{\"nodes\":[{\"id\":3}],\"edges\":[{\"id\":10}]}",
        ];
        assert_eq!(reassemble_graph(frames).unwrap(), full);
        // Frames with an empty side contribute nothing but stay legal.
        let sparse = [
            "{\"nodes\":[{\"id\":1},{\"id\":2},{\"id\":3}],\"edges\":[{\"id\":9}]}",
            "{\"nodes\":[],\"edges\":[{\"id\":10}]}",
        ];
        assert_eq!(reassemble_graph(sparse).unwrap(), full);
        assert_eq!(reassemble_graph([]).unwrap(), "{\"nodes\":[],\"edges\":[]}");
        // A label embedding the separator must not fool the splitter.
        let hostile =
            "{\"nodes\":[{\"id\":1,\"label\":\"],\\\"edges\\\":[\"}],\"edges\":[{\"id\":7}]}";
        assert_eq!(reassemble_graph([hostile]).unwrap(), hostile);
        assert!(reassemble_graph(["{\"rows\":[]}"]).is_err());
    }

    #[test]
    fn envelope_overhead_is_small_and_stable() {
        let overhead = rows_envelope_bytes();
        assert!(overhead > 0 && overhead < 128, "overhead {overhead}");
    }

    #[test]
    fn batch_len_counts_rows() {
        assert_eq!(
            RowBatch::Graph {
                graph: "{}".into(),
                nodes: 3,
                edges: 9,
                reused: false
            }
            .len(),
            9
        );
        assert!(RowBatch::Hits { hits: vec![] }.is_empty());
    }
}
