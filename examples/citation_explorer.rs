//! Citation-network exploration: the paper's Patent scenario.
//!
//! Demonstrates "Focus on node" pathway navigation and the Filter panel:
//! hide irrelevant edge types and follow citation chains, like the paper's
//! ACM-dataset walkthrough ("a user interested in exploring the citations
//! between articles will be able to filter out irrelevant edges").
//!
//! ```text
//! cargo run --release --example citation_explorer
//! ```

use graphvizdb::core::stats::{format_stats, hierarchy_stats};
use graphvizdb::prelude::*;

fn main() {
    let graph = patent_like(CitationConfig {
        nodes: 5_000,
        ..Default::default()
    });
    let metrics = GraphMetrics::compute(&graph);
    println!(
        "patent-like graph: {} nodes, {} edges, avg degree {:.2}",
        metrics.nodes, metrics.edges, metrics.avg_degree
    );

    let mut path = std::env::temp_dir();
    path.push(format!("gvdb-citation-{}.db", std::process::id()));
    let cfg = PreprocessConfig {
        layout: LayoutChoice::Hierarchical, // layered suits citation DAGs
        ..Default::default()
    };
    let (db, report) = preprocess(&graph, &path, &cfg).expect("preprocess");

    // Statistics panel.
    println!("\nper-layer statistics:");
    print!("{}", format_stats(&hierarchy_stats(&report.hierarchy)));

    let qm = QueryManager::new(db);

    // Find a well-cited patent via keyword search.
    let hits = qm.keyword_search(0, "US3000100").expect("search");
    let hit = hits.first().expect("patent exists");
    println!(
        "\nfocusing on {} at ({:.0}, {:.0})",
        hit.label, hit.position.x, hit.position.y
    );

    // "Focus on node": the patent and everything it cites / is cited by.
    let neighborhood = qm.focus_on_node(0, hit.node_id).expect("focus");
    println!("direct citation neighborhood: {} edges", neighborhood.len());
    for (_, row) in neighborhood.iter().take(5) {
        println!(
            "  {} --{}--> {}",
            row.node1_label, row.edge_label, row.node2_label
        );
    }

    // Follow a citation path: hop from patent to patent, two steps.
    let mut current = hit.node_id;
    print!("\ncitation path: {}", hit.label);
    for _ in 0..2 {
        let rows = qm.focus_on_node(0, current).expect("hop");
        // Follow an outgoing citation (node1 = source = newer patent).
        let next = rows
            .iter()
            .find(|(_, r)| r.node1_id == current && r.node2_id != current);
        match next {
            Some((_, r)) => {
                print!(" -> {}", r.node2_label);
                current = r.node2_id;
            }
            None => break,
        }
    }
    println!();

    // Filter panel: hide "cites" edges entirely -> viewport empties.
    let mut session = Session::new(Rect::centered(hit.position, 2000.0, 2000.0));
    let before = session.view(&qm).expect("view").rows.len();
    session
        .filters_mut()
        .hidden_edge_labels
        .insert("cites".into());
    let after = session.view(&qm).expect("filtered view").rows.len();
    println!("\nfilter 'cites': {before} rows -> {after} rows in window");
    assert!(after <= before);

    gvdb_storage::wal::remove_database(&path).ok();
}
