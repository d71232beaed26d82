//! Direct calls into the layers a request crosses below the service,
//! made by the traced run on the benchmark's own handles with the same
//! request's inputs, and the samples they yield.

use crate::trace::Tracer;
use gvdb_api::pack::{PackedEdge, PackedNode, PackedRows};
use gvdb_api::{Predicate, DEFAULT_CHUNK_ROWS};
use gvdb_core::{build_graph_json, FilterMode, QueryManager};
use gvdb_spatial::Rect;
use gvdb_storage::{EdgeRow, RowId};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Named samples (per-layer times, sizes and counts).
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Add one sample of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Append every sample of `other`.
    pub fn merge(&mut self, other: Samples) {
        for (name, values) in other.0 {
            self.0.entry(name).or_default().extend(values);
        }
    }

    /// The samples of `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Sum of the samples of `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Split `rows` into streamed frames the way the server's packed
/// encoder does: [`DEFAULT_CHUNK_ROWS`] rows a frame, each node sent
/// with the first frame that references it.
pub fn pack_frames(rows: &[(RowId, EdgeRow)]) -> Vec<PackedRows> {
    let mut seen = HashSet::new();
    rows.chunks(DEFAULT_CHUNK_ROWS)
        .map(|chunk| {
            let mut out = PackedRows::default();
            for (rid, row) in chunk {
                let g = &row.geometry;
                for (id, label, x, y) in [
                    (row.node1_id, &row.node1_label, g.x1, g.y1),
                    (row.node2_id, &row.node2_label, g.x2, g.y2),
                ] {
                    if seen.insert(id) {
                        out.nodes.push(PackedNode {
                            id,
                            label: label.to_string(),
                            xbits: x.to_bits(),
                            ybits: y.to_bits(),
                        });
                    }
                }
                out.edges.push(PackedEdge {
                    rid: rid.to_u64(),
                    source: row.node1_id,
                    target: row.node2_id,
                    label: row.edge_label.to_string(),
                    directed: g.directed,
                });
            }
            out
        })
        .collect()
}

/// The benchmark's own handles on the served file, and the tracer the
/// probes record into.
pub struct Handles<'a> {
    /// A manager with the default window cache, for the query layer's
    /// Fig. 3 split (`db_ms`, `build_json_ms`, `cache_ms`).
    pub query: &'a QueryManager,
    /// A manager that caches nothing (`gvdb_bench::uncached_cache_config`):
    /// the correctness reference, and the handle the storage layer is
    /// called through.
    pub cold: &'a QueryManager,
    /// Where probe spans go.
    pub tracer: &'a Tracer,
}

impl Handles<'_> {
    fn span(&self, req: u64, name: &'static str, start: Instant) {
        self.tracer
            .record(self.tracer.next_id(), req, name, 0, start, Instant::now());
    }

    /// Probe the query layer for one window request: `QueryManager`
    /// with the request's delta anchor or predicate.
    pub fn probe_query(
        &self,
        layer: usize,
        rect: &Rect,
        anchor: Option<&Rect>,
        predicate: Option<&Predicate>,
        req: u64,
        out: &mut Samples,
    ) -> Result<(), String> {
        let t = Instant::now();
        let resp = match predicate {
            Some(p) => self
                .query
                .window_query_filtered(layer, rect, anchor, p, FilterMode::Auto),
            None => self.query.window_query_anchored(layer, rect, anchor),
        }
        .map_err(|e| format!("probe window: {e}"))?;
        out.push("query.window_ms", ms(t));
        self.span(req, "probe.query.window", t);
        out.push("query.db_ms", resp.db_ms);
        out.push("query.json_ms", resp.build_json_ms);
        out.push("query.cache_ms", resp.cache_ms);
        Ok(())
    }

    /// Probe the layers under a cold window: the R-tree and the heap
    /// fetch (`LayerTable::window_candidates_multi`,
    /// `LayerTable::fetch_many`), exact refinement, `build_graph_json`
    /// and `PackedRows::encode`.
    pub fn probe_storage(
        &self,
        layer: usize,
        rect: &Rect,
        req: u64,
        out: &mut Samples,
    ) -> Result<(), String> {
        let db = self.cold.db();
        let table = db.layer(layer).ok_or("probe: no such layer")?;
        let t = Instant::now();
        let candidates = table
            .window_candidates_multi(db.pool(), std::slice::from_ref(rect))
            .map_err(|e| format!("probe rtree: {e}"))?;
        out.push("storage.rtree_ms", ms(t));
        self.span(req, "probe.storage.rtree", t);
        let rids: Vec<RowId> = candidates.iter().map(|(_, rid)| *rid).collect();
        let t = Instant::now();
        let mut rows = table
            .fetch_many(db.pool(), &rids)
            .map_err(|e| format!("probe fetch: {e}"))?;
        out.push("storage.fetch_ms", ms(t));
        self.span(req, "probe.storage.fetch", t);
        drop(db);
        rows.retain(|(_, row)| row.geometry.segment().intersects_rect(rect));
        if rows.is_empty() {
            return Ok(());
        }
        out.push("storage.candidates", candidates.len() as f64);
        out.push("storage.rows", rows.len() as f64);

        let t = Instant::now();
        let json = build_graph_json(&rows);
        out.push("json.build_ms", ms(t));
        self.span(req, "probe.json.build", t);
        out.push("json.bytes", json.text.len() as f64);

        let frames = pack_frames(&rows);
        let t = Instant::now();
        let packed: usize = frames.iter().map(|f| f.encode().len()).sum();
        out.push("pack.encode_ms", ms(t));
        self.span(req, "probe.pack.encode", t);
        out.push("pack.bytes", packed as f64);
        Ok(())
    }

    /// Probe `QueryManager::keyword_search` for one search request.
    pub fn probe_search(&self, term: &str, req: u64, out: &mut Samples) -> Result<(), String> {
        let t = Instant::now();
        let hits = self
            .query
            .keyword_search(0, term)
            .map_err(|e| format!("probe search: {e}"))?;
        out.push("search.trie_ms", ms(t));
        self.span(req, "probe.search", t);
        out.push("search.hits", hits.len() as f64);
        Ok(())
    }
}
