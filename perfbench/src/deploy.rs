//! Set-up: generate the dataset, run the five preprocessing steps, open
//! the database with a small buffer pool and start the server, ending
//! when the first request has been answered.

use crate::trace::{TracedService, Tracer};
use gvdb_api::RectDto;
use gvdb_client::{GvdbClient, WindowParams};
use gvdb_core::{preprocess, GraphService, OrganizerConfig, PreprocessConfig, QueryManager};
use gvdb_graph::generators::{patent_like, wikidata_like, CitationConfig, RdfConfig};
use gvdb_graph::Graph;
use gvdb_server::{Server, ServerConfig};
use gvdb_spatial::Rect;
use gvdb_storage::GraphDb;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Buffer-pool pages the server's database is opened with (2 MiB).
pub const POOL_PAGES: usize = 256;
/// Server worker threads.
pub const WORKERS: usize = 2;

/// The dataset a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// `patent_like` with this many nodes (≈4.34 citations each).
    Patent(usize),
    /// `wikidata_like` with this many entities (≈2 nodes and ≈2.07
    /// edges per entity).
    Wikidata(usize),
}

impl Dataset {
    /// Generate the graph. The generator seed is fixed: the dataset is
    /// part of the deployment, the run's seed drives the requests.
    pub fn generate(self) -> Graph {
        match self {
            Dataset::Patent(nodes) => patent_like(CitationConfig {
                nodes,
                avg_citations: 4.34,
                ..Default::default()
            }),
            Dataset::Wikidata(entities) => wikidata_like(RdfConfig {
                entities,
                literals_per_entity: 1.0,
                statements_per_entity: 1.07,
                seed: 42,
            }),
        }
    }

    /// Short name for the run record.
    pub fn describe(self) -> String {
        match self {
            Dataset::Patent(n) => format!("patent_like nodes={n}"),
            Dataset::Wikidata(n) => format!("wikidata_like entities={n}"),
        }
    }
}

/// Wall-clock seconds of each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Graph generation.
    pub generate: f64,
    /// Step 1, partitioning.
    pub partition: f64,
    /// Step 2, per-partition layout.
    pub layout: f64,
    /// Step 3, organizing partitions on the plane.
    pub organize: f64,
    /// Step 4, abstraction layers.
    pub abstraction: f64,
    /// Step 5, storage and indexing.
    pub indexing: f64,
    /// Open the database, start the server, answer the first request.
    pub open: f64,
    /// Everything, from generation to the first answer.
    pub total: f64,
}

/// A running deployment.
pub struct Deployment {
    /// The manager behind the server (shared with the benchmark, which
    /// reads its counters).
    pub qm: Arc<QueryManager>,
    /// The server.
    pub server: Server,
    /// The database file.
    pub path: PathBuf,
    /// Bounds of the layer-0 layout.
    pub bounds: Rect,
    /// Layers stored.
    pub layers: usize,
    /// Layer-0 node labels, by node id.
    pub labels: Vec<String>,
    /// Layer-0 node positions, by node id.
    pub positions: Vec<(f64, f64)>,
    /// `(nodes, edges)` per layer.
    pub layer_sizes: Vec<(usize, usize)>,
    /// Stage timings.
    pub times: SetupTimes,
}

impl Deployment {
    /// The server's address.
    pub fn addr(&self) -> String {
        self.server.addr().to_string()
    }

    /// Size of the database file in bytes.
    pub fn file_bytes(&self) -> u64 {
        std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0)
    }

    /// Stored rows over every layer.
    pub fn rows(&self) -> u64 {
        let db = self.qm.db();
        (0..db.layer_count())
            .filter_map(|l| db.layer(l))
            .map(|t| t.row_count())
            .sum()
    }

    /// Stop the server.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// The preprocessing configuration of the evaluation harness
/// (`gvdb_bench::prepare`): ~32 partitions and a Fig. 3 object density.
fn config(graph: &Graph) -> PreprocessConfig {
    let total_objects = (graph.node_count() + graph.edge_count()) as f64;
    let budget = (graph.node_count() / 32).max(256);
    let k = gvdb_partition::suggest_k(graph.node_count(), budget);
    let plane_side = (total_objects / gvdb_bench::FIG3_DENSITY).sqrt();
    let tile = plane_side / (k as f64).sqrt().ceil();
    PreprocessConfig {
        partition_node_budget: budget,
        organizer: OrganizerConfig { tile, padding: 0.1 },
        ..Default::default()
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Set up `dataset` at `path` and serve it; with a tracer the server
/// runs behind a [`TracedService`].
pub fn deploy(
    dataset: Dataset,
    path: &Path,
    tracer: Option<Arc<Tracer>>,
) -> Result<Deployment, String> {
    let start = Instant::now();
    let graph = dataset.generate();
    let generate = secs(start);

    let (db, report) =
        preprocess(&graph, path, &config(&graph)).map_err(|e| format!("preprocess: {e}"))?;
    drop(db);
    drop(graph);
    let t = &report.times;
    let (partition, layout, organize, abstraction, indexing) = (
        t.partitioning.as_secs_f64(),
        t.layout.as_secs_f64(),
        t.organize.as_secs_f64(),
        t.abstraction.as_secs_f64(),
        t.indexing.as_secs_f64(),
    );
    let bounds = gvdb_bench::plane_bounds(&report);
    let layer0 = report
        .hierarchy
        .layers
        .into_iter()
        .next()
        .ok_or("preprocess produced no layers")?;
    let labels = layer0
        .graph
        .node_ids()
        .map(|v| layer0.graph.node_label(v).to_string())
        .collect();

    let open_start = Instant::now();
    let db = GraphDb::open_with_cache(path, POOL_PAGES).map_err(|e| format!("open: {e}"))?;
    let layers = db.layer_count();
    let qm = Arc::new(QueryManager::new(db));
    let service: Arc<dyn GraphService> = match tracer {
        Some(tracer) => Arc::new(TracedService {
            inner: Arc::clone(&qm),
            tracer,
        }),
        None => Arc::clone(&qm) as Arc<dyn GraphService>,
    };
    let server = Server::start(
        service,
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let client = GvdbClient::new(server.addr().to_string());
    let c = bounds.center();
    let half = bounds.width().min(bounds.height()) * 0.025;
    let mut stream = client
        .window_stream(&WindowParams {
            layer: Some(0),
            window: RectDto {
                min_x: c.x - half,
                min_y: c.y - half,
                max_x: c.x + half,
                max_y: c.y + half,
            },
            ..Default::default()
        })
        .map_err(|e| format!("first request: {e}"))?;
    while stream
        .next_batch_raw()
        .map_err(|e| format!("first request: {e}"))?
        .is_some()
    {}
    let open = secs(open_start);
    let total = secs(start);

    Ok(Deployment {
        qm,
        server,
        path: path.to_path_buf(),
        bounds,
        layers,
        labels,
        positions: layer0.positions,
        layer_sizes: report.layer_sizes,
        times: SetupTimes {
            generate,
            partition,
            layout,
            organize,
            abstraction,
            indexing,
            open,
            total,
        },
    })
}
