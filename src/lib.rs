//! # graphvizdb
//!
//! A scalable platform for **interactive visualization of very large
//! graphs** — a complete Rust implementation of *"graphVizdb: A Scalable
//! Platform for Interactive Large Graph Visualization"* (Bikakis et al.,
//! ICDE 2016).
//!
//! The idea: lay the whole graph out on a Euclidean plane **once, offline**
//! (partition → per-partition layout → greedy global arrangement), build
//! abstraction layers, and index everything in a disk-backed store with an
//! R-tree over edge geometries. Online, every user interaction — panning,
//! zooming, switching abstraction levels, keyword search — becomes a cheap
//! **spatial window query**, so exploration latency is independent of total
//! graph size and the working set never has to fit in memory.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`graph`] | graph substrate: CSR graphs, generators, IO |
//! | [`partition`] | multilevel k-way partitioner (Metis substitute) |
//! | [`layout`] | layout algorithms (Graphviz substitute) |
//! | [`spatial`] | geometry: rectangles, segments, exact window test |
//! | [`storage`] | paged storage engine: heap files, B+-trees, tries, packed R-tree (MySQL substitute) |
//! | [`abstraction`] | degree/PageRank/HITS filtering + cluster summarization |
//! | [`core`] | preprocessing pipeline, query manager, sessions, client model |
//! | [`api`] | the versioned `v1` wire protocol: typed DTOs + streamed frames |
//! | [`server`] | HTTP serving layer: worker pool, session registry, stats |
//! | [`client`] | typed blocking client: connection pool, buffered calls, frame streams |
//!
//! ## Quickstart
//!
//! ```
//! use graphvizdb::prelude::*;
//!
//! // 1. Get a graph (here: a synthetic citation network).
//! let graph = patent_like(CitationConfig { nodes: 500, ..Default::default() });
//!
//! // 2. Preprocess: partition, lay out, organize, abstract, index.
//! let mut path = std::env::temp_dir();
//! path.push(format!("gvdb-quick-{}.db", std::process::id()));
//! let (db, report) = preprocess(&graph, &path, &PreprocessConfig::default()).unwrap();
//! println!("preprocessing took {:?}", report.times.total());
//!
//! // 3. Explore: every interaction is a window query.
//! let qm = QueryManager::new(db);
//! let mut session = Session::new(Rect::new(0.0, 0.0, 1000.0, 1000.0));
//! let view = session.view(&qm).unwrap();
//! println!("{} nodes, {} edges in view", view.json.node_count, view.json.edge_count);
//! # graphvizdb::storage::wal::remove_database(&path).ok();
//! ```

pub use gvdb_abstract as abstraction;
pub use gvdb_api as api;
pub use gvdb_client as client;
pub use gvdb_core as core;
pub use gvdb_graph as graph;
pub use gvdb_layout as layout;
pub use gvdb_partition as partition;
pub use gvdb_replication as replication;
pub use gvdb_server as server;
pub use gvdb_spatial as spatial;
pub use gvdb_storage as storage;

/// One-stop imports for applications.
pub mod prelude {
    pub use gvdb_abstract::{
        build_hierarchy, AbstractionMethod, HierarchyConfig, RankingCriterion,
    };
    pub use gvdb_client::{GvdbClient, WindowParams, WindowStream};
    pub use gvdb_core::{
        preprocess, Birdview, ClientModel, LayoutChoice, PreprocessConfig, QueryManager, SearchHit,
        Session,
    };
    pub use gvdb_graph::generators::{
        barabasi_albert, erdos_renyi, grid_graph, patent_like, planted_partition, rmat,
        wikidata_like, CitationConfig, RdfConfig, RmatConfig,
    };
    pub use gvdb_graph::{Graph, GraphBuilder, GraphMetrics, NodeId};
    pub use gvdb_layout::{ForceDirected, LayoutAlgorithm};
    pub use gvdb_partition::{partition, PartitionConfig};
    pub use gvdb_server::{Server, ServerConfig};
    pub use gvdb_spatial::{Point, Rect};
    pub use gvdb_storage::{EdgeGeometry, EdgeRow, GraphDb};
}
