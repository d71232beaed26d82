//! RDF graph browsing: N-Triples ingestion, literal filtering, multi-level
//! exploration with PageRank abstraction, and the birdview panel.
//!
//! Mirrors the paper's Wikidata/DBpedia scenario: load RDF triples, hide
//! literal leaves, explore "important" entities at higher layers
//! ("by selecting either PageRank or HITS as the abstraction criterion ...
//! users will be able to view different layers of the graph that contain
//! only the 'important' nodes").
//!
//! ```text
//! cargo run --release --example rdf_browser
//! ```

use graphvizdb::abstraction::{AbstractionMethod, HierarchyConfig, RankingCriterion};
use graphvizdb::core::Birdview;
use graphvizdb::graph::io::{read_ntriples, write_ntriples};
use graphvizdb::prelude::*;

fn main() {
    // Synthesize an RDF dataset and round-trip it through N-Triples to
    // demonstrate the ingestion path a real deployment would use.
    let synthetic = wikidata_like(RdfConfig {
        entities: 1_500,
        ..Default::default()
    });
    let mut nt = Vec::new();
    write_ntriples(&synthetic, &mut nt).expect("serialize n-triples");
    let graph = read_ntriples(nt.as_slice()).expect("parse n-triples");
    println!(
        "loaded RDF graph: {} nodes, {} edges ({} KiB of N-Triples)",
        graph.node_count(),
        graph.edge_count(),
        nt.len() / 1024
    );

    // PageRank-filtered abstraction layers, as in the demo's Layer Panel.
    let mut path = std::env::temp_dir();
    path.push(format!("gvdb-rdf-{}.db", std::process::id()));
    let cfg = PreprocessConfig {
        hierarchy: HierarchyConfig {
            levels: 3,
            method: AbstractionMethod::Filter {
                criterion: RankingCriterion::PageRank,
                fraction: 0.25,
            },
        },
        ..Default::default()
    };
    let (db, report) = preprocess(&graph, &path, &cfg).expect("preprocess");
    println!("layers: {:?}", report.layer_sizes);

    // Birdview of layer 0: the whole plane at a glance.
    let positions = &report.hierarchy.layers[0].positions;
    let bv = Birdview::from_positions(positions, 60, 20);
    println!("\nbirdview (layer 0):\n{}", bv.to_ascii());

    let qm = QueryManager::new(db);

    // Browse with literals hidden (the paper's canonical filter example).
    let bounds = bv.bounds();
    let mut session = Session::new(Rect::new(
        bounds.min_x,
        bounds.min_y,
        bounds.min_x + 2000.0,
        bounds.min_y + 2000.0,
    ));
    let raw = session.view(&qm).expect("view").rows.len();
    session
        .filters_mut()
        .hidden_node_substrings
        .push("\"".into());
    let filtered = session.view(&qm).expect("filtered").rows.len();
    println!("window rows: {raw} with literals, {filtered} without");

    // Climb the PageRank hierarchy over the full plane: each layer keeps
    // only the more important quarter of entities.
    let everything = Rect::new(-1e12, -1e12, 1e12, 1e12);
    for layer in 0..qm.layer_count() {
        let resp = qm.window_query(layer, &everything).expect("layer query");
        println!(
            "layer {layer}: {} nodes / {} edges on the whole plane",
            resp.json.node_count, resp.json.edge_count
        );
    }

    // Zoom-correlated vertical navigation: zoom out, go a layer up.
    session.zoom_by(0.5);
    session.layer_up(&qm).expect("layer up");
    let v = session.view(&qm).expect("abstract view");
    println!(
        "\nzoomed out onto layer {}: {} nodes in the enlarged window",
        session.layer(),
        v.json.node_count
    );

    gvdb_storage::wal::remove_database(&path).ok();
}
