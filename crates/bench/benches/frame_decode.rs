//! Client-side decode of a plain rows frame: `ApiFrame::from_json`, which
//! validates the `graph` member in place and hands it through, against
//! the reference decode that parses the whole frame into a `Json` tree
//! and prints `graph` back out.
//!
//! Frames are written by the server's canonical writers at two sizes:
//! ≈9 KB (one default-sized streamed batch) and ≈150 KB (a large
//! buffered-style fragment). The label of each case carries the frame's
//! byte length, so MB/s = bytes / median time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gvdb_api::pack::{write_edge_json, write_node_json, EDGES_SEP, NODES_PREFIX, SUFFIX};
use gvdb_api::{ApiFrame, Json, RowBatch};
use std::hint::black_box;

/// A rows frame with `edges` edge objects and half as many node objects,
/// patent-like labels and two-decimal coordinates.
fn rows_frame(edges: u64) -> String {
    let nodes = edges / 2;
    let mut graph = String::from(NODES_PREFIX);
    for i in 0..nodes {
        if i > 0 {
            graph.push(',');
        }
        let id = 100_000 + i * 7;
        let x = (i * 7919 % 20_000) as f64 / 3.0;
        let y = -((i * 104_729 % 20_000) as f64) / 7.0;
        write_node_json(&mut graph, id, &format!("patent {id}"), x, y);
    }
    graph.push_str(EDGES_SEP);
    for i in 0..edges {
        if i > 0 {
            graph.push(',');
        }
        let (source, target) = (100_000 + (i % nodes) * 7, 100_000 + (i * 3 % nodes) * 7);
        write_edge_json(&mut graph, (i << 16) | 3, source, target, "cites", true);
    }
    graph.push_str(SUFFIX);
    ApiFrame::Rows(RowBatch::Graph {
        graph,
        nodes,
        edges,
        reused: false,
    })
    .to_json()
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_decode");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for edges in [80u64, 1_350] {
        let frame = rows_frame(edges);
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
    }
    group.finish();
}

criterion_group!(benches, bench_decode);
criterion_main!(benches);
