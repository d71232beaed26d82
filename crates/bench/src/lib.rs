//! Shared harness utilities for reproducing the graphVizdb evaluation
//! (Table I and Fig. 3) plus the ablation studies.
//!
//! The paper evaluates on Wikidata (151 M edges / 146 M nodes) and the
//! SNAP patent citation graph (16.5 M edges / 3.8 M nodes) on an 8 GB
//! cloud VM, with preprocessing taking hours. The harness scales both
//! datasets down by a configurable factor (default 1000×) while preserving
//! the two properties the evaluation exercises: the edge/node ratio of
//! each dataset and the ~10:1 size ratio *between* the datasets.
//!
//! Window sizes follow the paper (200² … 3000² pixels). To make object
//! counts per window comparable to Fig. 3 (hundreds of elements, not tens
//! of thousands), the organizer's tile size is derived from a target
//! object density per pixel² calibrated from the paper's own numbers
//! (~400 objects in a 3000² window). Layouts cluster objects within tiles,
//! so the effective constant (1.2 · 10⁻⁵ objects/px²) is tuned so the
//! *measured* per-window counts land in the paper's range.

use gvdb_core::{preprocess, OrganizerConfig, PreprocessConfig, PreprocessReport};
use gvdb_graph::generators::{patent_like, wikidata_like, CitationConfig, RdfConfig};
use gvdb_graph::Graph;
use gvdb_spatial::Rect;
use gvdb_storage::GraphDb;
use rand::prelude::*;
use std::path::PathBuf;

/// Object density (nodes+edges per px²) calibrated from Fig. 3.
pub const FIG3_DENSITY: f64 = 1.2e-5;

/// The two evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Wikidata-like RDF graph (|E| ≈ |V|, hubby, literal leaves).
    Wikidata,
    /// Patent-citation-like DAG (avg degree ≈ 4.34).
    Patent,
}

impl Dataset {
    /// Human-readable name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Wikidata => "Wikidata",
            Dataset::Patent => "Patent",
        }
    }

    /// Generate the dataset at `1/scale` of the paper's size.
    /// `scale = 1000` (default) gives ~151 k / ~16.5 k edges.
    pub fn generate(&self, scale: u64) -> Graph {
        match self {
            Dataset::Wikidata => {
                // Paper: 146 M nodes. nodes = 2 * entities (one literal per
                // entity on average); edges/nodes = 1.034 needs
                // lit + stmt = 2.07 per entity.
                let entities = (73_000_000 / scale.max(1)) as usize;
                wikidata_like(RdfConfig {
                    entities: entities.max(500),
                    literals_per_entity: 1.0,
                    statements_per_entity: 1.07,
                    seed: 42,
                })
            }
            Dataset::Patent => {
                let nodes = (3_800_000 / scale.max(1)) as usize;
                patent_like(CitationConfig {
                    nodes: nodes.max(500),
                    avg_citations: 4.34,
                    ..Default::default()
                })
            }
        }
    }
}

/// Temp path for a bench database.
pub fn bench_db_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gvdb-bench-{tag}-{}.db", std::process::id()));
    p
}

/// Preprocess `graph` with Fig. 3-calibrated tiling; returns the database,
/// the report and the plane bounds.
pub fn prepare(graph: &Graph, tag: &str) -> (GraphDb, PreprocessReport, Rect, PathBuf) {
    let path = bench_db_path(tag);
    let total_objects = (graph.node_count() + graph.edge_count()) as f64;
    // k proportional to graph size (paper §II-A): scale the per-partition
    // budget with the dataset so scaled-down runs still exercise Steps 1-3
    // with a realistic number of partitions (~32).
    let budget = (graph.node_count() / 32).max(256);
    let k = gvdb_partition::suggest_k(graph.node_count(), budget);
    let plane_side = (total_objects / FIG3_DENSITY).sqrt();
    let grid = (k as f64).sqrt().ceil();
    let tile = plane_side / grid;
    let cfg = PreprocessConfig {
        partition_node_budget: budget,
        organizer: OrganizerConfig { tile, padding: 0.1 },
        ..Default::default()
    };
    let (db, report) = preprocess(graph, &path, &cfg).expect("preprocessing failed");
    let bounds = plane_bounds(&report);
    (db, report, bounds, path)
}

/// Bounding box of the layer-0 layout.
pub fn plane_bounds(report: &PreprocessReport) -> Rect {
    let pos = &report.hierarchy.layers[0].positions;
    if pos.is_empty() {
        return Rect::new(0.0, 0.0, 1.0, 1.0);
    }
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for &(x, y) in pos {
        min_x = min_x.min(x);
        min_y = min_y.min(y);
        max_x = max_x.max(x);
        max_y = max_y.max(y);
    }
    Rect::new(min_x, min_y, max_x, max_y)
}

/// `count` random square windows of side `size` inside `bounds`
/// (deterministic given `seed`).
pub fn random_windows(bounds: &Rect, size: f64, count: usize, seed: u64) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let max_x = (bounds.max_x - size).max(bounds.min_x);
            let max_y = (bounds.max_y - size).max(bounds.min_y);
            let x = bounds.min_x + rng.random::<f64>() * (max_x - bounds.min_x).max(0.0);
            let y = bounds.min_y + rng.random::<f64>() * (max_y - bounds.min_y).max(0.0);
            Rect::new(x, y, x + size, y + size)
        })
        .collect()
}

/// A deterministic interactive pan trajectory: `steps` square windows of
/// side `side`, consecutive windows overlapping by the fraction `overlap`
/// of their area along one axis, walking boustrophedon (right across the
/// plane, down one step, back left, …) so the whole run stays inside
/// `bounds`. This is the workload of the `window_pan` bench and of
/// perfbench's `navigate` pan episodes: every step is the paper's §II-B
/// pan interaction at a controlled overlap ratio.
pub fn pan_trajectory(bounds: &Rect, side: f64, overlap: f64, steps: usize) -> Vec<Rect> {
    let step = (side * (1.0 - overlap)).max(1e-9);
    let max_x = (bounds.max_x - side).max(bounds.min_x);
    let max_y = (bounds.max_y - side).max(bounds.min_y);
    let mut x = bounds.min_x;
    let mut y = bounds.min_y;
    let mut dir = 1.0f64;
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        out.push(Rect::new(x, y, x + side, y + side));
        let nx = x + dir * step;
        if nx < bounds.min_x || nx > max_x {
            // Bounce: move down one step and reverse horizontal direction.
            dir = -dir;
            y = if y + step > max_y {
                bounds.min_y
            } else {
                y + step
            };
        } else {
            x = nx;
        }
    }
    out
}

/// Scale factor from the environment (`GVDB_SCALE`, default 1000; the
/// paper's size is `GVDB_SCALE=1`).
pub fn scale_from_env() -> u64 {
    std::env::var("GVDB_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000)
}
/// Thread counts swept by the `concurrent_reads` criterion bench.
pub const CONCURRENCY_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Distinct windows each reader thread cycles through in that bench.
pub const CONCURRENCY_WINDOWS_PER_THREAD: usize = 8;

/// Window side for the concurrent-read bench: small enough that
/// every thread's entries fit the window cache, so the cached variant
/// really measures the hit path.
pub fn concurrency_window_side(bounds: &Rect) -> f64 {
    (bounds.width().min(bounds.height()) * 0.08).max(1.0)
}

/// Reader thread `t`'s `i`-th window for the concurrent-read bench:
/// deterministic, disjoint from other threads' sets, inside `bounds`.
pub fn concurrency_window(bounds: &Rect, side: f64, t: usize, i: usize) -> Rect {
    let fx = ((t * 131 + i * 29) % 97) as f64 / 97.0;
    let fy = ((t * 53 + i * 71) % 89) as f64 / 89.0;
    let x = bounds.min_x + fx * (bounds.width() - side).max(0.0);
    let y = bounds.min_y + fy * (bounds.height() - side).max(0.0);
    Rect::new(x, y, x + side, y + side)
}

/// The true-cold-baseline cache configuration shared by every bench
/// that measures the uncached path: one single-shard entry (each
/// insert evicts the previous window) and the delta path disabled, so
/// every query re-runs the full R-tree descent + heap fetch.
pub fn uncached_cache_config() -> gvdb_core::CacheConfig {
    gvdb_core::CacheConfig {
        capacity: 1,
        shards: 1,
        min_delta_overlap: 2.0,
        ..gvdb_core::CacheConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_preserve_paper_ratios() {
        let wiki = Dataset::Wikidata.generate(2000);
        let ratio = wiki.edge_count() as f64 / wiki.node_count() as f64;
        assert!((0.85..1.25).contains(&ratio), "wiki ratio {ratio}");

        let patent = Dataset::Patent.generate(2000);
        let avg = patent.edge_count() as f64 / patent.node_count() as f64;
        assert!((3.8..4.8).contains(&avg), "patent avg out-degree {avg}");
    }

    #[test]
    fn windows_stay_in_bounds() {
        let b = Rect::new(0.0, 0.0, 10_000.0, 10_000.0);
        for w in random_windows(&b, 500.0, 50, 1) {
            assert!(w.min_x >= 0.0 && w.max_x <= 10_000.0 + 500.0);
            assert!((w.width() - 500.0).abs() < 1e-9);
        }
    }

    #[test]
    fn pan_trajectory_respects_overlap_and_bounds() {
        let b = Rect::new(0.0, 0.0, 10_000.0, 10_000.0);
        let side = 1000.0;
        let windows = pan_trajectory(&b, side, 0.8, 50);
        assert_eq!(windows.len(), 50);
        for w in &windows {
            assert!((w.width() - side).abs() < 1e-9);
            assert!(w.min_x >= b.min_x - 1e-9 && w.max_x <= b.max_x + 1e-9);
        }
        // Consecutive windows overlap by ~the requested fraction (bounce
        // steps shift on the other axis but keep the same overlap area).
        for p in windows.windows(2) {
            let frac = p[0].intersection_area(&p[1]) / p[1].area();
            assert!((0.79..1.0).contains(&frac), "overlap {frac}");
        }
    }

    #[test]
    fn prepare_produces_fig3_like_density() {
        let g = Dataset::Patent.generate(20_000); // tiny for test speed
        let (db, _report, bounds, path) = prepare(&g, "density-test");
        let area = bounds.width() * bounds.height();
        let density = (g.node_count() + g.edge_count()) as f64 / area;
        // Within a factor of a few of the target (padding, tile rounding).
        assert!(
            density < FIG3_DENSITY * 5.0 && density > FIG3_DENSITY / 20.0,
            "density {density}"
        );
        drop(db);
        gvdb_storage::wal::remove_database(&path).ok();
    }
}
