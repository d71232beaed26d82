//! The offline preprocessing pipeline (Fig. 1): partition → layout →
//! organize → abstract → store & index, with per-step wall-clock timing —
//! the instrumentation behind Table I.
//!
//! ## Parallelism
//!
//! The pipeline's two embarrassingly parallel stages fan out across
//! `std::thread::scope` workers, controlled by
//! [`PreprocessConfig::parallelism`] (`0` = one worker per CPU, `1` =
//! fully sequential):
//!
//! * **Step 2** — partitions are laid out independently by construction
//!   (crossing edges are ignored), so subgraph induction + layout run
//!   per-partition through [`gvdb_layout::parallel_map`];
//! * **Step 5** — each abstraction layer's storage rows are built
//!   concurrently; the rows are then written and indexed layer by layer
//!   (the database itself is single-writer).
//!
//! Both stages collect results **by index**, so a parallel run produces a
//! byte-identical database to a sequential run on the same input — the
//! platform's reproducibility guarantee does not depend on thread count.
//! [`PreprocessReport::threads`] records how many workers each stage used
//! so speedups are measurable (see `stats::format_preprocess_report`).

use crate::organizer::{organize_partitions, OrganizerConfig};
use gvdb_abstract::{build_hierarchy, degree_centrality, pagerank, Hierarchy, HierarchyConfig};
use gvdb_graph::Graph;
use gvdb_layout::{
    parallel_map, planned_workers, Circular, ForceDirected, GridLayout, Hierarchical, Layout,
    LayoutAlgorithm, Star,
};
use gvdb_partition::{partition, suggest_k, PartitionConfig};
use gvdb_storage::{EdgeGeometry, EdgeRow, GraphDb, RankSidecar, Result};
use std::path::Path;
use std::time::{Duration, Instant};

/// Which layout algorithm Step 2 applies to each partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutChoice {
    /// Fruchterman–Reingold force-directed (default).
    ForceDirected,
    /// Circular.
    Circular,
    /// Star.
    Star,
    /// Grid.
    Grid,
    /// Hierarchical (layered).
    Hierarchical,
}

impl LayoutChoice {
    fn algorithm(&self) -> Box<dyn LayoutAlgorithm + Send + Sync> {
        match self {
            LayoutChoice::ForceDirected => Box::new(ForceDirected::default()),
            LayoutChoice::Circular => Box::new(Circular::default()),
            LayoutChoice::Star => Box::new(Star::default()),
            LayoutChoice::Grid => Box::new(GridLayout::default()),
            LayoutChoice::Hierarchical => Box::new(Hierarchical::default()),
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PreprocessConfig {
    /// Partition count; `None` derives k from `partition_node_budget` the
    /// way the paper prescribes (proportional to size over memory).
    pub k: Option<u32>,
    /// Nodes one partition may hold when `k` is `None`.
    pub partition_node_budget: usize,
    /// Layout algorithm for Step 2.
    pub layout: LayoutChoice,
    /// Organizer tiling for Step 3.
    pub organizer: OrganizerConfig,
    /// Abstraction stack for Step 4.
    pub hierarchy: HierarchyConfig,
    /// Buffer-pool capacity (pages) for Step 5's database.
    pub cache_pages: usize,
    /// Emit a degenerate self-row for isolated nodes so they remain
    /// visible and searchable (the bare triple scheme would drop them).
    pub index_isolated_nodes: bool,
    /// Partitioner seed.
    pub seed: u64,
    /// Worker threads for the parallel stages (per-partition layout, Step
    /// 2, and per-layer row building, Step 5). `0` uses one worker per
    /// available CPU; `1` runs fully sequentially. The database produced
    /// is byte-identical regardless of this setting.
    pub parallelism: usize,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            k: None,
            partition_node_budget: 4_096,
            layout: LayoutChoice::ForceDirected,
            organizer: OrganizerConfig::default(),
            hierarchy: HierarchyConfig::default(),
            cache_pages: 4_096,
            index_isolated_nodes: true,
            seed: 42,
            parallelism: 0,
        }
    }
}

/// Wall-clock of each preprocessing step (Table I columns).
#[derive(Debug, Clone, Default)]
pub struct StepTimes {
    /// Step 1: k-way partitioning.
    pub partitioning: Duration,
    /// Step 2: per-partition layout.
    pub layout: Duration,
    /// Step 3: partition organizing.
    pub organize: Duration,
    /// Step 4: abstraction layers.
    pub abstraction: Duration,
    /// Step 5: storage & indexing (all layers).
    pub indexing: Duration,
}

impl StepTimes {
    /// Total across steps.
    pub fn total(&self) -> Duration {
        self.partitioning + self.layout + self.organize + self.abstraction + self.indexing
    }
}

/// Worker-thread counts actually used by the parallel stages, for
/// measuring speedup against a `parallelism: 1` run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageThreads {
    /// Workers used for Step 2 (per-partition layout).
    pub layout: usize,
    /// Workers used for Step 5's row building (per abstraction layer).
    pub row_building: usize,
}

/// Everything the pipeline produced.
#[derive(Debug)]
pub struct PreprocessReport {
    /// Per-step timings.
    pub times: StepTimes,
    /// Worker threads used per parallel stage.
    pub threads: StageThreads,
    /// Partition count used.
    pub k: u32,
    /// Crossing edges after Step 1.
    pub edge_cut: usize,
    /// `(nodes, edges)` per layer, layer 0 first.
    pub layer_sizes: Vec<(usize, usize)>,
    /// The in-memory hierarchy (kept for stats/birdview; the database holds
    /// the persistent form).
    pub hierarchy: Hierarchy,
}

/// Run the full pipeline on `graph`, producing a database at `db_path`.
pub fn preprocess(
    graph: &Graph,
    db_path: &Path,
    cfg: &PreprocessConfig,
) -> Result<(GraphDb, PreprocessReport)> {
    // Step 1: k-way partitioning.
    let t = Instant::now();
    let k = cfg
        .k
        .unwrap_or_else(|| suggest_k(graph.node_count(), cfg.partition_node_budget));
    let mut pcfg = PartitionConfig::with_k(k);
    pcfg.seed = cfg.seed;
    let parts = partition(graph, &pcfg);
    let step1 = t.elapsed();
    let edge_cut = parts.edge_cut(graph);

    // Step 2: layout each partition independently, ignoring crossing
    // edges. The subproblems are independent by construction, so they fan
    // out across worker threads; results come back in partition order, so
    // the outcome matches a sequential run exactly. Subgraph induction
    // happens inside each worker, so at most one induced subgraph per
    // worker is alive at a time — partitions exist precisely to bound
    // this memory, at any thread count.
    let t = Instant::now();
    let algo = cfg.layout.algorithm();
    let layout_threads = planned_workers(cfg.parallelism, parts.parts().len());
    let part_layouts: Vec<Layout> =
        parallel_map(parts.parts().as_slice(), cfg.parallelism, |nodes| {
            let (sub, _) = graph.induced_subgraph(nodes);
            algo.layout(&sub)
        });
    let step2 = t.elapsed();

    // Step 3: organize partitions on the global plane.
    let t = Instant::now();
    let organized = organize_partitions(graph, &parts, &part_layouts, &cfg.organizer);
    let step3 = t.elapsed();

    // Step 4: abstraction layers with inherited layouts.
    let t = Instant::now();
    let positions: Vec<(f64, f64)> = organized
        .layout
        .positions()
        .iter()
        .map(|p| (p.x, p.y))
        .collect();
    let hierarchy = build_hierarchy(graph, &positions, &cfg.hierarchy);
    let step4 = t.elapsed();

    // Step 5: store & index every layer. Row building (geometry + label
    // materialization) is independent per layer and fans out across
    // workers; the write+index pass stays sequential in layer order — the
    // storage engine is single-writer — which keeps the database file
    // byte-identical to a sequential run. The sequential path streams
    // (one layer's rows alive at a time); the parallel path materializes
    // all layers' rows to overlap their construction.
    let t = Instant::now();
    let row_threads = planned_workers(cfg.parallelism, hierarchy.layers.len());
    let mut db = GraphDb::create_with_cache(db_path, cfg.cache_pages)?;
    let mut layer_sizes = Vec::with_capacity(hierarchy.layers.len());
    if row_threads <= 1 {
        for (i, layer) in hierarchy.layers.iter().enumerate() {
            let rows = layer_rows(&layer.graph, &layer.positions, cfg.index_isolated_nodes);
            let sidecar = layer_sidecar(&layer.graph);
            db.create_layer(format!("layer{i}"), rows)?;
            db.layer_mut(i)
                .expect("layer just created")
                .set_sidecar(sidecar);
            layer_sizes.push((layer.graph.node_count(), layer.graph.edge_count()));
        }
    } else {
        let per_layer = parallel_map(&hierarchy.layers, cfg.parallelism, |layer| {
            (
                layer_rows(&layer.graph, &layer.positions, cfg.index_isolated_nodes),
                layer_sidecar(&layer.graph),
            )
        });
        for (i, (layer, (rows, sidecar))) in hierarchy.layers.iter().zip(per_layer).enumerate() {
            db.create_layer(format!("layer{i}"), rows)?;
            db.layer_mut(i)
                .expect("layer just created")
                .set_sidecar(sidecar);
            layer_sizes.push((layer.graph.node_count(), layer.graph.edge_count()));
        }
    }
    db.flush()?;
    let step5 = t.elapsed();

    Ok((
        db,
        PreprocessReport {
            times: StepTimes {
                partitioning: step1,
                layout: step2,
                organize: step3,
                abstraction: step4,
                indexing: step5,
            },
            threads: StageThreads {
                layout: layout_threads,
                row_building: row_threads,
            },
            k,
            edge_cut,
            layer_sizes,
            hierarchy,
        },
    ))
}

/// Build one layer's degree/rank sidecar: degree centrality plus PageRank
/// (0.85 damping, 30 iterations) for every node, keyed by the same node id
/// the storage rows carry. Both centrality passes are deterministic, so
/// the sidecar — and with it the database file — stays byte-identical
/// across thread counts.
pub fn layer_sidecar(graph: &Graph) -> RankSidecar {
    let degrees = degree_centrality(graph);
    let ranks = pagerank(graph, 0.85, 30);
    RankSidecar::new(
        graph
            .node_ids()
            .map(|v| (v.0 as u64, degrees[v.index()], ranks[v.index()]))
            .collect(),
    )
}

/// Convert a laid-out graph into storage rows (one per edge, plus optional
/// degenerate rows for isolated nodes).
pub fn layer_rows(graph: &Graph, positions: &[(f64, f64)], index_isolated: bool) -> Vec<EdgeRow> {
    let directed = graph.is_directed();
    let mut rows: Vec<EdgeRow> = graph
        .edges()
        .iter()
        .map(|e| {
            let (x1, y1) = positions[e.source.index()];
            let (x2, y2) = positions[e.target.index()];
            EdgeRow {
                node1_id: e.source.0 as u64,
                node1_label: graph.node_label(e.source).into(),
                geometry: EdgeGeometry {
                    x1,
                    y1,
                    x2,
                    y2,
                    directed,
                },
                edge_label: e.label.as_str().into(),
                node2_id: e.target.0 as u64,
                node2_label: graph.node_label(e.target).into(),
            }
        })
        .collect();
    if index_isolated {
        for v in graph.node_ids() {
            if graph.degree(v) == 0 {
                let (x, y) = positions[v.index()];
                rows.push(EdgeRow {
                    node1_id: v.0 as u64,
                    node1_label: graph.node_label(v).into(),
                    geometry: EdgeGeometry {
                        x1: x,
                        y1: y,
                        x2: x,
                        y2: y,
                        directed: false,
                    },
                    edge_label: "".into(),
                    node2_id: v.0 as u64,
                    node2_label: graph.node_label(v).into(),
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvdb_graph::generators::planted_partition;
    use gvdb_graph::GraphBuilder;
    use gvdb_spatial::Rect;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gvdb-prep-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn end_to_end_pipeline() {
        let g = planted_partition(4, 50, 6.0, 0.5, 1);
        let path = tmp("e2e");
        let cfg = PreprocessConfig {
            k: Some(4),
            ..Default::default()
        };
        let (db, report) = preprocess(&g, &path, &cfg).unwrap();
        assert_eq!(report.k, 4);
        assert_eq!(report.layer_sizes[0].0, 200);
        assert!(report.layer_sizes.len() >= 2, "hierarchy built");
        assert!(report.layer_sizes.windows(2).all(|w| w[1].0 < w[0].0));
        // The database serves window queries over the full plane.
        let layer0 = db.layer(0).unwrap();
        let all = layer0
            .window(db.pool(), &Rect::new(-1e9, -1e9, 1e9, 1e9))
            .unwrap();
        assert_eq!(all.len() as u64, layer0.row_count());
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn auto_k_follows_budget() {
        let g = planted_partition(4, 50, 4.0, 0.5, 2);
        let path = tmp("autok");
        let cfg = PreprocessConfig {
            k: None,
            partition_node_budget: 50,
            ..Default::default()
        };
        let (_db, report) = preprocess(&g, &path, &cfg).unwrap();
        assert_eq!(report.k, 4); // 200 nodes / 50
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn isolated_nodes_indexed_when_enabled() {
        let mut b = GraphBuilder::new_undirected();
        let a = b.add_node("connected-a");
        let c = b.add_node("connected-b");
        b.add_edge(a, c, "e");
        b.add_node("lonely island");
        let g = b.build();
        let path = tmp("isolated");
        let cfg = PreprocessConfig {
            k: Some(1),
            ..Default::default()
        };
        let (db, _) = preprocess(&g, &path, &cfg).unwrap();
        let hits = db.layer(0).unwrap().search_nodes("lonely");
        assert_eq!(hits.len(), 1);
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn step_times_are_nonzero_and_total_adds_up() {
        let g = planted_partition(2, 40, 5.0, 0.5, 3);
        let path = tmp("times");
        let (_db, report) = preprocess(&g, &path, &PreprocessConfig::default()).unwrap();
        let t = &report.times;
        assert_eq!(
            t.total(),
            t.partitioning + t.layout + t.organize + t.abstraction + t.indexing
        );
        assert!(t.indexing > Duration::ZERO);
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn parallel_run_is_byte_identical_to_sequential() {
        let g = planted_partition(6, 40, 6.0, 0.5, 9);
        let path_seq = tmp("det-seq");
        let path_par = tmp("det-par");
        let base = PreprocessConfig {
            k: Some(6),
            ..Default::default()
        };
        let cfg_seq = PreprocessConfig {
            parallelism: 1,
            ..base.clone()
        };
        let cfg_par = PreprocessConfig {
            parallelism: 4,
            ..base
        };
        let (db_seq, rep_seq) = preprocess(&g, &path_seq, &cfg_seq).unwrap();
        let (db_par, rep_par) = preprocess(&g, &path_par, &cfg_par).unwrap();
        assert_eq!(rep_seq.threads.layout, 1);
        assert!(rep_par.threads.layout > 1, "parallel run must fan out");
        assert_eq!(rep_seq.layer_sizes, rep_par.layer_sizes);
        drop(db_seq);
        drop(db_par);
        let bytes_seq = std::fs::read(&path_seq).unwrap();
        let bytes_par = std::fs::read(&path_par).unwrap();
        assert_eq!(
            bytes_seq, bytes_par,
            "database layout must not depend on thread count"
        );
        gvdb_storage::wal::remove_database(&path_seq).ok();
        gvdb_storage::wal::remove_database(&path_par).ok();
    }

    #[test]
    fn report_records_thread_counts() {
        let g = planted_partition(4, 30, 5.0, 0.5, 11);
        let path = tmp("threads");
        let cfg = PreprocessConfig {
            k: Some(4),
            parallelism: 2,
            ..Default::default()
        };
        let (_db, report) = preprocess(&g, &path, &cfg).unwrap();
        assert_eq!(report.threads.layout, 2);
        assert!(report.threads.row_building >= 1);
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn layer_rows_isolated_toggle() {
        let mut b = GraphBuilder::new_undirected();
        b.add_node("solo");
        let g = b.build();
        let rows = layer_rows(&g, &[(1.0, 2.0)], true);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].node1_id, rows[0].node2_id);
        assert!(layer_rows(&g, &[(1.0, 2.0)], false).is_empty());
    }
}
