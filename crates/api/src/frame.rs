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
//! Like the rest of this crate the codec is hand-rolled canonical JSON
//! over [`Json`]; every frame round-trips byte-exactly (graph fragments
//! are spliced verbatim on write, and on read validated and handed
//! through byte for byte).

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
    /// (`ApiRequest::Window { packed: true }`); decode with
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

    /// Serialize to the wire form `{"frame":…, …}`; see
    /// [`ApiFrame::write_json`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Append the wire form to `out`. Graph fragments are spliced in
    /// verbatim (they are already JSON), mirroring the zero-copy envelope
    /// of [`crate::ApiResponse::to_json`]; a packed image is
    /// base64-encoded straight into the frame text.
    pub fn write_json(&self, out: &mut String) {
        let rows_head = |out: &mut String, nodes: u64, edges: u64, reused: bool| {
            out.push_str("{\"frame\":\"rows\",\"nodes\":");
            push_u64(out, nodes);
            out.push_str(",\"edges\":");
            push_u64(out, edges);
            out.push_str(if reused {
                ",\"reused\":true"
            } else {
                ",\"reused\":false"
            });
        };
        match self {
            ApiFrame::Rows(RowBatch::Graph {
                graph,
                nodes,
                edges,
                reused,
            }) => {
                out.reserve(graph.len() + 64);
                rows_head(out, *nodes, *edges, *reused);
                out.push_str(",\"graph\":");
                out.push_str(graph);
                out.push('}');
            }
            ApiFrame::Rows(RowBatch::Packed { image, reused }) => {
                out.reserve(image.as_bytes().len().div_ceil(3) * 4 + 80);
                rows_head(out, image.nodes() as u64, image.edges() as u64, *reused);
                out.push_str(",\"packed\":\"");
                image.push_b64(out); // base64: no JSON escaping needed
                out.push_str("\"}");
            }
            other => out.push_str(&other.to_value().to_string()),
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
                unreachable!("graph and packed batches serialize in write_json")
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

    /// Parse the wire form produced by [`ApiFrame::to_json`]. A graph
    /// fragment is validated as JSON in place and handed through byte
    /// for byte — no tree is built for it — so round-trips are exact
    /// (see [`Json::parse_keeping`]). A packed image is read the same
    /// way, as a slice of `text`, base64-decoded and validated; its
    /// string must be plain base64, without JSON escapes.
    pub fn from_json(text: &str) -> ApiResult<ApiFrame> {
        let (v, kept) = Json::parse_keeping(text, &["graph", "packed"])
            .map_err(|e| ApiError::bad_request(format!("malformed frame: {e}")))?;
        let (graph, packed) = match kept {
            Some((0, graph)) => (Some(graph), None),
            Some((_, packed)) => (None, Some(packed)),
            None => (None, None),
        };
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
                } else if let Some(packed) = packed {
                    let text = packed
                        .strip_prefix('"')
                        .and_then(|s| s.strip_suffix('"'))
                        .ok_or_else(|| ApiError::bad_request("packed must be a string"))?;
                    let image = PackedImage::from_b64(text).map_err(ApiError::bad_request)?;
                    let (nodes, edges) = (need_u64(&v, "nodes")?, need_u64(&v, "edges")?);
                    if nodes != image.nodes() as u64 || edges != image.edges() as u64 {
                        return Err(ApiError::bad_request(
                            "packed frame counts disagree with its image",
                        ));
                    }
                    ApiFrame::Rows(RowBatch::Packed {
                        image,
                        reused: v.get("reused").and_then(Json::as_bool).unwrap_or(false),
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

    fn roundtrip(frame: &ApiFrame) {
        let wire = frame.to_json();
        let back = ApiFrame::from_json(&wire).expect("parse frame");
        assert_eq!(&back, frame, "wire: {wire}");
        // Canonical: a second trip is byte-stable.
        assert_eq!(back.to_json(), wire);
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
        roundtrip(&ApiFrame::Rows(RowBatch::Packed {
            image: crate::pack::PackedRows {
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
            .to_image(),
            reused: false,
        }));
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
