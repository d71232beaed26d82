//! Client-side decode of a rows frame: `ApiFrame::from_json`, which
//! validates the `graph` member in place and hands it through, against
//! the reference decode that parses the whole frame into a `Json` tree
//! and prints `graph` back out; and the packed twin of each frame,
//! decoded to the same plain fragment (`from_json` + `into_plain`).
//!
//! Frames are written by the server's canonical writers at two sizes:
//! ≈9 KB (one default-sized streamed batch) and ≈150 KB (a large
//! buffered-style fragment). The label of each case carries the byte
//! length of its plain frame, so MB/s = bytes / median time, and a
//! packed case's MB/s compares directly with the plain case over the
//! same rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gvdb_api::pack::{write_edge_json, write_node_json, EDGES_SEP, NODES_PREFIX, SUFFIX};
use gvdb_api::{ApiFrame, ImageWriter, Json, RowBatch};
use std::hint::black_box;

/// The rows of one frame: `edges` edges over half as many nodes,
/// patent-like labels and two-decimal coordinates.
struct Rows {
    nodes: Vec<(u64, String, f64, f64)>,
    edges: Vec<(u64, u64, u64)>,
}

fn rows(edges: u64) -> Rows {
    let nodes = edges / 2;
    Rows {
        nodes: (0..nodes)
            .map(|i| {
                let id = 100_000 + i * 7;
                let x = (i * 7919 % 20_000) as f64 / 3.0;
                let y = -((i * 104_729 % 20_000) as f64) / 7.0;
                (id, format!("patent {id}"), x, y)
            })
            .collect(),
        edges: (0..edges)
            .map(|i| {
                let (source, target) = (100_000 + (i % nodes) * 7, 100_000 + (i * 3 % nodes) * 7);
                ((i << 16) | 3, source, target)
            })
            .collect(),
    }
}

/// The rows as a plain rows frame.
fn plain_frame(rows: &Rows) -> String {
    let mut graph = String::from(NODES_PREFIX);
    for (i, (id, label, x, y)) in rows.nodes.iter().enumerate() {
        if i > 0 {
            graph.push(',');
        }
        write_node_json(&mut graph, *id, label, *x, *y);
    }
    graph.push_str(EDGES_SEP);
    for (i, &(rid, source, target)) in rows.edges.iter().enumerate() {
        if i > 0 {
            graph.push(',');
        }
        write_edge_json(&mut graph, rid, source, target, "cites", true);
    }
    graph.push_str(SUFFIX);
    ApiFrame::Rows(RowBatch::Graph {
        graph,
        nodes: rows.nodes.len() as u64,
        edges: rows.edges.len() as u64,
        reused: false,
    })
    .to_json()
}

/// The same rows as a packed rows frame.
fn packed_frame(rows: &Rows) -> String {
    let mut w = ImageWriter::new();
    for (id, label, x, y) in &rows.nodes {
        w.node(*id, label, x.to_bits(), y.to_bits());
    }
    for &(rid, source, target) in &rows.edges {
        w.edge(rid, source, target, "cites", true);
    }
    ApiFrame::Rows(RowBatch::Packed {
        image: w.finish(),
        reused: false,
    })
    .to_json()
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_decode");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for edges in [80u64, 1_350] {
        let rows = rows(edges);
        let frame = plain_frame(&rows);
        let packed = packed_frame(&rows);
        let plain = match ApiFrame::from_json(&packed).unwrap() {
            ApiFrame::Rows(batch) => batch.into_plain(),
            other => panic!("decoded {other:?}"),
        };
        assert_eq!(
            ApiFrame::Rows(plain).to_json(),
            frame,
            "packed twin diverged"
        );
        let size = format!("{}B", frame.len());
        group.bench_with_input(BenchmarkId::new("from_json", &size), &frame, |b, text| {
            b.iter(|| ApiFrame::from_json(black_box(text)).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("parse_and_reprint", &size),
            &frame,
            |b, text| {
                b.iter(|| {
                    let tree = Json::parse(black_box(text)).unwrap();
                    tree.get("graph").unwrap().to_string()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("packed_into_plain", &size),
            &packed,
            |b, text| {
                b.iter(|| match ApiFrame::from_json(black_box(text)).unwrap() {
                    ApiFrame::Rows(batch) => batch.into_plain(),
                    other => panic!("decoded {other:?}"),
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_decode);
criterion_main!(benches);
