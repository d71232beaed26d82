//! The in-place graph decoder: a plain rows frame (and a buffered
//! `window` / `focus` envelope) hands its `graph` member through as a
//! validated slice of the input. These properties pin it to the
//! reference decoder — parse the whole document into a [`Json`] tree and
//! print `graph` back out — on acceptance and on output.

use gvdb_api::pack::{write_edge_json, write_node_json, EDGES_SEP, NODES_PREFIX, SUFFIX};
use gvdb_api::{ApiFrame, ApiResponse, Json, RowBatch, Source, WindowMeta};
use proptest::prelude::*;

/// Characters that stress string handling: JSON metacharacters, escapes,
/// control bytes, multi-byte UTF-8 and an astral-plane emoji.
const LABEL_CHARS: [char; 16] = [
    'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '中', '😀', ']',
];

fn arb_label() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(LABEL_CHARS.to_vec()), 0..10)
        .prop_map(|chars| chars.into_iter().collect())
}

/// Coordinates of every shape the canonical writer meets: integral,
/// negative, sub-grid (rounds to ±0), and arbitrary.
fn arb_coord() -> impl Strategy<Value = f64> {
    (0u8..5, -100_000i64..100_000, -1.0e6f64..1.0e6).prop_map(|(shape, i, f)| match shape {
        0 => i as f64,
        1 => -(i.abs() as f64) / 100.0,
        2 => (i % 5) as f64 / 1000.0,
        3 => i as f64 / 8.0,
        _ => f,
    })
}

type NodeSpec = (u64, String, f64, f64);
type EdgeSpec = (u64, u64, u64, String, bool);

/// One canonical graph fragment, written by the server's writers.
fn fragment(nodes: &[NodeSpec], edges: &[EdgeSpec]) -> String {
    let mut out = String::from(NODES_PREFIX);
    for (i, (id, label, x, y)) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_node_json(&mut out, *id, label, *x, *y);
    }
    out.push_str(EDGES_SEP);
    for (i, (rid, source, target, label, directed)) in edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_edge_json(&mut out, *rid, *source, *target, label, *directed);
    }
    out.push_str(SUFFIX);
    out
}

fn arb_fragment() -> impl Strategy<Value = (String, u64, u64)> {
    (
        prop::collection::vec((any::<u64>(), arb_label(), arb_coord(), arb_coord()), 0..8),
        prop::collection::vec(
            (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                arb_label(),
                any::<bool>(),
            ),
            0..8,
        ),
    )
        .prop_map(|(nodes, edges)| {
            (
                fragment(&nodes, &edges),
                nodes.len() as u64,
                edges.len() as u64,
            )
        })
}

fn rows_frame(graph: &str, nodes: u64, edges: u64) -> String {
    ApiFrame::Rows(RowBatch::Graph {
        graph: graph.into(),
        nodes,
        edges,
        reused: true,
    })
    .to_json()
}

/// A realistic rows frame: hostile labels, negative and integral
/// coordinates, the top half of the id space.
fn sample_frame() -> (String, std::ops::Range<usize>) {
    let graph = fragment(
        &[
            (1, "a \"quoted\" \\ label\n".into(), 12.5, -3.0),
            (u64::MAX - 1, "é😀\u{1}],\"edges\":[".into(), 0.0, 1e5),
            (7, String::new(), -0.25, 99.99),
        ],
        &[
            (65_536, 1, u64::MAX - 1, "cites".into(), true),
            (65_537, 7, 1, "\t\"/".into(), false),
        ],
    );
    let frame = rows_frame(&graph, 3, 2);
    let start = frame.find(&graph).unwrap();
    (frame, start..start + graph.len())
}

/// `(kind, position, char)`: replace, insert, delete or truncate at
/// `position` (mod the current length).
type Mutation = (u8, u64, char);

const MUTATION_CHARS: [char; 20] = [
    '"', '\\', '{', '}', '[', ']', ',', ':', '0', '9', '.', 'e', '-', '+', 'u', ' ', '\u{1}', 'é',
    '😀', 'n',
];

fn arb_mutations() -> impl Strategy<Value = Vec<Mutation>> {
    prop::collection::vec(
        (
            0u8..4,
            any::<u64>(),
            prop::sample::select(MUTATION_CHARS.to_vec()),
        ),
        1..4,
    )
}

fn mutate(text: &str, mutations: &[Mutation]) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for &(kind, position, c) in mutations {
        let len = chars.len();
        match kind {
            0 if len > 0 => chars[position as usize % len] = c,
            1 => chars.insert(position as usize % (len + 1), c),
            2 if len > 0 => {
                chars.remove(position as usize % len);
            }
            _ => chars.truncate(position as usize % (len + 1)),
        }
    }
    chars.into_iter().collect()
}

/// What the reference decoder makes of `text`: the new decoder applied
/// to the canonical reprint of the whole document, whose `graph` member
/// is exactly the member's canonical reprint.
fn reference_decode(text: &str) -> Option<Result<ApiFrame, gvdb_api::ApiError>> {
    Json::parse(text)
        .ok()
        .map(|tree| ApiFrame::from_json(&tree.to_string()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Mutated and truncated frames: the in-place decoder fails exactly
    /// when the whole-document parse fails (or, for valid JSON, exactly
    /// when the reference decoder fails), and otherwise returns what the
    /// reference returns, up to the canonical form of the graph bytes.
    #[test]
    fn mutated_frames_decode_like_the_reference(mutations in arb_mutations()) {
        let (frame, _) = sample_frame();
        let text = mutate(&frame, &mutations);
        let parsed = Json::parse(&text);
        prop_assert_eq!(
            Json::parse_keeping(&text, "graph").is_ok(),
            parsed.is_ok(),
            "{:?}",
            text
        );
        let decoded = ApiFrame::from_json(&text);
        match (reference_decode(&text), decoded) {
            (None, decoded) => prop_assert!(decoded.is_err(), "accepted {:?}", text),
            (Some(Err(want)), got) => prop_assert_eq!(got.unwrap_err(), want, "{:?}", text),
            (Some(Ok(want)), got) => {
                let got = got.unwrap_or_else(|e| panic!("{text:?}: {e}"));
                match (got, want) {
                    (
                        ApiFrame::Rows(RowBatch::Graph { graph, nodes, edges, reused }),
                        ApiFrame::Rows(RowBatch::Graph { graph: g, nodes: n, edges: e, reused: r }),
                    ) => {
                        prop_assert_eq!((nodes, edges, reused), (n, e, r));
                        prop_assert_eq!(Json::parse(&graph).unwrap().to_string(), g);
                    }
                    (got, want) => prop_assert_eq!(got, want),
                }
            }
        }
    }

    /// One mutation inside the graph member: the frame's other members
    /// are intact, so decoding fails exactly when `Json::parse` does.
    #[test]
    fn graph_member_damage_fails_exactly_when_parse_fails(
        position in any::<u64>(),
        kind in 0u8..3,
        c in prop::sample::select(MUTATION_CHARS.to_vec()),
    ) {
        let (frame, graph) = sample_frame();
        let (head, body, tail) = (&frame[..graph.start], &frame[graph.clone()], &frame[graph.end..]);
        let body = mutate(body, &[(kind, position, c)]);
        let text = format!("{head}{body}{tail}");
        prop_assert_eq!(
            ApiFrame::from_json(&text).is_err(),
            Json::parse(&text).is_err(),
            "{:?}",
            text
        );
    }

    /// Canonical fragments come back byte for byte, and those bytes are
    /// what the reference decoder printed: the writers are a fixed point
    /// of parse-and-reprint.
    #[test]
    fn canonical_fragments_are_handed_through(fragment in arb_fragment()) {
        let (graph, nodes, edges) = fragment;
        prop_assert_eq!(&Json::parse(&graph).unwrap().to_string(), &graph);
        let frame = rows_frame(&graph, nodes, edges);
        match ApiFrame::from_json(&frame).unwrap() {
            ApiFrame::Rows(RowBatch::Graph { graph: got, .. }) => prop_assert_eq!(&got, &graph),
            other => panic!("decoded {other:?}"),
        }
        let window = ApiResponse::Window {
            meta: WindowMeta {
                dataset: "default".into(),
                layer: 0,
                epoch: 3,
                source: Source::Delta,
                rows_reused: edges as usize,
                rows_fetched: 0,
                session: Some(9),
            },
            graph: graph.clone(),
        };
        prop_assert_eq!(ApiResponse::from_json(&window.to_json()).unwrap(), window);
        let focus = ApiResponse::Focus { rows: edges, graph };
        prop_assert_eq!(ApiResponse::from_json(&focus.to_json()).unwrap(), focus);
    }
}

#[test]
fn every_truncation_of_a_frame_is_rejected() {
    let (frame, _) = sample_frame();
    for (end, _) in frame.char_indices() {
        let text = &frame[..end];
        assert!(Json::parse(text).is_err(), "{text:?}");
        assert!(ApiFrame::from_json(text).is_err(), "accepted {text:?}");
    }
    assert!(ApiFrame::from_json(&frame).is_ok());
}

#[test]
fn a_missing_graph_member_is_a_typed_error() {
    let err = ApiFrame::from_json("{\"frame\":\"rows\",\"nodes\":0,\"edges\":0}").unwrap_err();
    assert_eq!(err.message, "missing field 'graph'");
    let err = ApiResponse::from_json("{\"kind\":\"focus\",\"rows\":0}").unwrap_err();
    assert_eq!(err.message, "missing field 'graph'");
}
