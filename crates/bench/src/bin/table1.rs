//! Reproduce **Table I**: time for each preprocessing step, per dataset.
//!
//! ```text
//! cargo run --release -p gvdb-bench --bin table1
//! GVDB_SCALE=500 cargo run --release -p gvdb-bench --bin table1   # bigger
//! ```
//!
//! The paper reports minutes on an 8 GB VM at full dataset size; the
//! harness scales the datasets down (default 1000×) and reports seconds.
//! The shape to check, per the paper's §III discussion:
//! * Step 5 (indexing) costs about the same per edge at every scale (CI
//!   compares `GVDB_SCALE=4000` with the default). At the default scale
//!   it is the largest step on Patent, and on Wikidata about as costly
//!   as Step 2 (layout);
//! * Step 1 (partitioning) costs more *per edge* for Patent than for
//!   Wikidata because of the higher average node degree.

use gvdb_bench::{prepare, scale_from_env, Dataset};

fn main() {
    let scale = scale_from_env();
    println!("graphVizdb Table I reproduction (scale 1/{scale} of the paper's datasets)\n");
    println!(
        "{:<10} {:>9} {:>9} | {:>8} {:>8} {:>8} {:>8} {:>8} | {:>8}",
        "Dataset",
        "#Edges",
        "#Nodes",
        "Step1(s)",
        "Step2(s)",
        "Step3(s)",
        "Step4(s)",
        "Step5(s)",
        "Total(s)"
    );

    let mut per_edge: Vec<(&str, f64, f64, f64)> = Vec::new();
    for ds in [Dataset::Wikidata, Dataset::Patent] {
        let graph = ds.generate(scale);
        let (_db, report, _bounds, path) = prepare(&graph, &format!("table1-{}", ds.name()));
        let t = &report.times;
        println!(
            "{:<10} {:>9} {:>9} | {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} | {:>8.2}",
            ds.name(),
            graph.edge_count(),
            graph.node_count(),
            t.partitioning.as_secs_f64(),
            t.layout.as_secs_f64(),
            t.organize.as_secs_f64(),
            t.abstraction.as_secs_f64(),
            t.indexing.as_secs_f64(),
            t.total().as_secs_f64(),
        );
        let edges = graph.edge_count() as f64;
        per_edge.push((
            ds.name(),
            t.partitioning.as_secs_f64() / edges * 1e6,
            t.indexing.as_secs_f64() / edges * 1e6,
            t.indexing.as_secs_f64() / t.total().as_secs_f64(),
        ));
        std::fs::remove_file(&path).ok();
    }

    println!("\nshape checks (paper §III):");
    for (name, part_us, idx_us, idx_frac) in &per_edge {
        println!(
            "  {name}: partitioning {part_us:.2} µs/edge; indexing {idx_us:.2} µs/edge = {:.0}% of total",
            idx_frac * 100.0
        );
    }
    if let [(_, wiki_ppe, _, _), (_, patent_ppe, _, _)] = per_edge.as_slice() {
        println!(
            "  partitioning cost per edge, Patent/Wikidata: {:.2}x (paper: Patent costs more per edge)",
            patent_ppe / wiki_ppe
        );
    }
}
