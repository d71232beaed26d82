//! Layer tables: the paper's "single relational table per abstraction
//! layer" (Fig. 2) with all four index kinds attached.
//!
//! | Column        | Index          |
//! |---------------|----------------|
//! | Node1 ID      | B+-tree        |
//! | Node1 Label   | full-text trie |
//! | Edge Geometry | R-tree         |
//! | Edge Label    | full-text trie |
//! | Node2 ID      | B+-tree        |
//! | Node2 Label   | full-text trie |
//!
//! Rows live in a heap file; every index stores packed [`RowId`]s (the
//! node-label trie stores node ids, since keyword search returns nodes).

use crate::btree::BTree;
use crate::buffer::BufferPool;
use crate::error::Result;
use crate::heap::{HeapFile, RowId};
use crate::page::PageId;
use crate::record::EdgeRow;
use crate::spatial_index::{Hit, PackedRoot, PagedRTree};
use crate::trie::{blob, FullTextTrie};
use gvdb_spatial::{Point, Rect, Segment};
use std::collections::{BTreeSet, HashSet};

/// Persistent metadata of one layer table (what the catalog stores).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerMeta {
    /// Layer name (e.g. `layer0`).
    pub name: String,
    /// First heap page.
    pub heap_first: u64,
    /// Root of the B+-tree on Node1 ID.
    pub bt_node1: u64,
    /// Root of the B+-tree on Node2 ID.
    pub bt_node2: u64,
    /// Head page of the serialized node-label trie.
    pub node_trie: u64,
    /// Head page of the serialized edge-label trie.
    pub edge_trie: u64,
    /// Packed R-tree root (0 = empty).
    pub rtree_root: u64,
    /// Packed R-tree entry count.
    pub rtree_len: u64,
    /// Live row count.
    pub rows: u64,
    /// Head page of the degree/rank sidecar blob (0 = no sidecar; v1
    /// catalogs decode as 0).
    pub sidecar: u64,
}

/// One abstraction layer's table + indexes.
#[derive(Debug)]
pub struct LayerTable {
    name: String,
    heap: HeapFile,
    by_node1: BTree,
    by_node2: BTree,
    node_trie: FullTextTrie,
    edge_trie: FullTextTrie,
    rtree: PagedRTree,
    rows: u64,
    /// Saved trie blob heads (freed and rewritten on save).
    node_trie_head: Option<PageId>,
    edge_trie_head: Option<PageId>,
    tries_dirty: bool,
    /// Degree/rank attribute sidecar (preprocess-time snapshot).
    sidecar: Option<crate::sidecar::RankSidecar>,
    sidecar_head: Option<PageId>,
    sidecar_dirty: bool,
}

impl LayerTable {
    /// Bulk-build a layer from rows — preprocessing Step 5 for one layer.
    /// Indexes are constructed after the heap load: B+-trees from sorted
    /// runs, the R-tree by STR packing, and the tries in ascending id
    /// order so every posting insert is an append: the node-label trie
    /// once per distinct node (not once per incident edge), the
    /// edge-label trie by row id.
    ///
    /// Rows are written to the heap in **Morton order** of their geometry
    /// centers, so spatially close edges share heap pages. A window query
    /// then touches O(window area) heap pages instead of O(row count)
    /// scattered ones, and the thin strips of a delta pan touch
    /// proportionally few — this is what makes the batched page-sorted
    /// fetch ([`LayerTable::fetch_many`]) effective.
    pub fn bulk_build(
        pool: &BufferPool,
        name: impl Into<String>,
        rows: impl IntoIterator<Item = EdgeRow>,
    ) -> Result<Self> {
        let mut rows: Vec<EdgeRow> = rows.into_iter().collect();
        if !rows.is_empty() {
            let bounds = rows
                .iter()
                .map(|r| r.geometry.bbox())
                .reduce(|a, b| a.union(&b))
                .expect("non-empty");
            // Stable sort: rows at the same Morton cell keep their input
            // order, so builds are deterministic.
            rows.sort_by_key(|r| {
                gvdb_spatial::morton::morton_of_point(&r.geometry.bbox().center(), &bounds)
            });
        }
        let mut heap = HeapFile::create(pool)?;
        let mut by_node1 = BTree::create(pool)?;
        let mut by_node2 = BTree::create(pool)?;
        let mut node_trie = FullTextTrie::new();
        let mut edge_trie = FullTextTrie::new();
        let mut geoms: Vec<(Segment, u64)> = Vec::new();
        let mut n1: Vec<(u64, u64)> = Vec::new();
        let mut n2: Vec<(u64, u64)> = Vec::new();
        // Batched load writes compressed pages (see `HeapFile::insert_batch`):
        // Morton order puts spatially close rows on the same page, which is
        // exactly the locality the per-page dictionaries exploit.
        let encoded: Vec<Vec<u8>> = rows.iter().map(|r| r.encode()).collect();
        let rids = heap.insert_batch(pool, &encoded)?;
        let count = rows.len() as u64;
        let mut node_labels: BTreeSet<(u64, &str)> = BTreeSet::new();
        // `insert_batch` hands out rids ascending.
        for (row, rid) in rows.iter().zip(&rids) {
            let rid = rid.to_u64();
            n1.push((row.node1_id, rid));
            n2.push((row.node2_id, rid));
            node_labels.insert((row.node1_id, &row.node1_label));
            node_labels.insert((row.node2_id, &row.node2_label));
            edge_trie.insert(&row.edge_label, rid);
            geoms.push((row.geometry.segment(), rid));
        }
        for (id, label) in node_labels {
            node_trie.insert(label, id);
        }
        // Sorted insertion keeps B+-tree construction append-mostly.
        n1.sort_unstable();
        n2.sort_unstable();
        for (k, v) in n1 {
            by_node1.insert(pool, k, v)?;
        }
        for (k, v) in n2 {
            by_node2.insert(pool, k, v)?;
        }
        let rtree = PagedRTree::build(pool, geoms)?;
        Ok(LayerTable {
            name: name.into(),
            heap,
            by_node1,
            by_node2,
            node_trie,
            edge_trie,
            rtree,
            rows: count,
            node_trie_head: None,
            edge_trie_head: None,
            tries_dirty: true,
            sidecar: None,
            sidecar_head: None,
            sidecar_dirty: false,
        })
    }

    /// Reopen a layer from its catalog metadata.
    pub fn open(pool: &BufferPool, meta: &LayerMeta) -> Result<Self> {
        let (sidecar, sidecar_head) = if meta.sidecar != 0 {
            let head = PageId(meta.sidecar);
            (
                Some(crate::sidecar::RankSidecar::load(pool, head)?),
                Some(head),
            )
        } else {
            (None, None)
        };
        Ok(LayerTable {
            name: meta.name.clone(),
            heap: HeapFile::open(pool, PageId(meta.heap_first))?,
            by_node1: BTree::open(PageId(meta.bt_node1)),
            by_node2: BTree::open(PageId(meta.bt_node2)),
            node_trie: FullTextTrie::load(pool, PageId(meta.node_trie))?,
            edge_trie: FullTextTrie::load(pool, PageId(meta.edge_trie))?,
            rtree: PagedRTree::open(PackedRoot {
                root: meta.rtree_root,
                len: meta.rtree_len,
            }),
            rows: meta.rows,
            node_trie_head: Some(PageId(meta.node_trie)),
            edge_trie_head: Some(PageId(meta.edge_trie)),
            tries_dirty: false,
            sidecar,
            sidecar_head,
            sidecar_dirty: false,
        })
    }

    /// Install the preprocess-time degree/rank sidecar (persisted on the
    /// next [`LayerTable::save`]).
    pub fn set_sidecar(&mut self, sidecar: crate::sidecar::RankSidecar) {
        self.sidecar = Some(sidecar);
        self.sidecar_dirty = true;
    }

    /// The degree/rank sidecar, when the layer was preprocessed with one.
    pub fn sidecar(&self) -> Option<&crate::sidecar::RankSidecar> {
        self.sidecar.as_ref()
    }

    /// Layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Live row count.
    pub fn row_count(&self) -> u64 {
        self.rows
    }

    /// Fetch and decode one row.
    pub fn get(&self, pool: &BufferPool, rid: RowId) -> Result<EdgeRow> {
        EdgeRow::decode(&self.heap.get(pool, rid)?)
    }

    /// Batched fetch: decode the rows for `rids` with one buffer-pool pin
    /// per distinct heap page (see [`HeapFile::get_many`]). Returns rows
    /// in ascending [`RowId`] order — the canonical row order of every
    /// window-query path, so a delta-assembled result can be compared
    /// row-for-row against a cold one.
    pub fn fetch_many(&self, pool: &BufferPool, rids: &[RowId]) -> Result<Vec<(RowId, EdgeRow)>> {
        let records = self.heap.get_many(pool, rids)?;
        let mut out = Vec::with_capacity(records.len());
        for (rid, bytes) in records {
            out.push((rid, EdgeRow::decode(&bytes)?));
        }
        Ok(out)
    }

    /// Every live row, in heap order, with no index involved: the naive
    /// full scan the R-tree is repacked from on [`LayerTable::save`].
    pub fn scan(&self, pool: &BufferPool) -> Result<Vec<(RowId, EdgeRow)>> {
        self.heap
            .scan(pool)?
            .into_iter()
            .map(|(rid, bytes)| Ok((rid, EdgeRow::decode(&bytes)?)))
            .collect()
    }

    /// R-tree hits for `windows`, all exact. Hits from bounding-box leaves
    /// (files written before leaves stored endpoints) are refined here
    /// against their heap rows; a current file never takes that branch.
    fn window_hits(&self, pool: &BufferPool, windows: &[Rect]) -> Result<Vec<Hit>> {
        let mut hits = self.rtree.windows(pool, windows)?;
        if hits.iter().all(|h| h.exact) {
            return Ok(hits);
        }
        let inexact: Vec<RowId> = hits
            .iter()
            .filter(|h| !h.exact)
            .map(|h| RowId::from_u64(h.row))
            .collect();
        let crossing: HashSet<u64> = self
            .fetch_many(pool, &inexact)?
            .into_iter()
            .filter(|(_, row)| {
                let seg = row.geometry.segment();
                windows.iter().any(|w| seg.intersects_rect(w))
            })
            .map(|(rid, _)| rid.to_u64())
            .collect();
        hits.retain(|h| h.exact || crossing.contains(&h.row));
        Ok(hits)
    }

    /// The R-tree step alone: ids of the rows whose edge geometry
    /// intersects `window` — exactly, since the leaves store endpoints and
    /// run the segment test — with no heap access (but for the leaves of
    /// older files, see `window_hits`). Ascending by [`RowId`].
    pub fn window_rids(&self, pool: &BufferPool, window: &Rect) -> Result<Vec<RowId>> {
        Ok(self
            .window_hits(pool, std::slice::from_ref(window))?
            .into_iter()
            .map(|h| RowId::from_u64(h.row))
            .collect())
    }

    /// [`LayerTable::window_rids`] over several windows in a single
    /// R-tree descent (each tree page pinned at most once — see
    /// `PagedRTree::windows`): the rows whose edge intersects **any**
    /// window, each with its edge's bounding box so the caller can
    /// classify rows against sub-regions without touching the heap.
    /// Deduplicated and sorted ascending by [`RowId`] ([`RowId::to_u64`]
    /// order is preserved by the index sort). This is how the delta path
    /// resolves all pan strips at once.
    pub fn window_candidates_multi(
        &self,
        pool: &BufferPool,
        windows: &[Rect],
    ) -> Result<Vec<(Rect, RowId)>> {
        Ok(self
            .window_hits(pool, windows)?
            .into_iter()
            .map(|h| (h.bbox, RowId::from_u64(h.row)))
            .collect())
    }

    /// **The** online operation: all rows whose edge geometry intersects
    /// `window`. The R-tree yields exactly those row ids, then one batched
    /// page-sorted heap fetch ([`LayerTable::fetch_many`]) decodes them.
    /// Rows come back in ascending [`RowId`] order.
    pub fn window(&self, pool: &BufferPool, window: &Rect) -> Result<Vec<(RowId, EdgeRow)>> {
        let rows = self.fetch_many(pool, &self.window_rids(pool, window)?)?;
        debug_assert!(rows
            .iter()
            .all(|(_, row)| row.geometry.segment().intersects_rect(window)));
        Ok(rows)
    }

    /// Row ids incident to a node (as node1 or node2), deduplicated.
    pub fn rows_of_node(&self, pool: &BufferPool, node_id: u64) -> Result<Vec<RowId>> {
        let mut rids = self.by_node1.get(pool, node_id)?;
        rids.extend(self.by_node2.get(pool, node_id)?);
        rids.sort_unstable();
        rids.dedup();
        Ok(rids.into_iter().map(RowId::from_u64).collect())
    }

    /// Position of a node on the plane (from any incident row), with its
    /// label — powers keyword-result focusing and "Focus on node".
    pub fn node_position(
        &self,
        pool: &BufferPool,
        node_id: u64,
    ) -> Result<Option<(Point, crate::record::Label)>> {
        let rids = self.rows_of_node(pool, node_id)?;
        for rid in rids {
            let row = self.get(pool, rid)?;
            if row.node1_id == node_id {
                return Ok(Some((
                    Point::new(row.geometry.x1, row.geometry.y1),
                    row.node1_label,
                )));
            }
            if row.node2_id == node_id {
                return Ok(Some((
                    Point::new(row.geometry.x2, row.geometry.y2),
                    row.node2_label,
                )));
            }
        }
        Ok(None)
    }

    /// Keyword search over node labels: node ids whose label contains
    /// `keyword` (paper §II-B, Keyword-based Exploration).
    pub fn search_nodes(&self, keyword: &str) -> Vec<u64> {
        self.node_trie.search(keyword)
    }

    /// Keyword search over edge labels: row ids (for the Filter panel).
    pub fn search_edges(&self, keyword: &str) -> Vec<RowId> {
        self.edge_trie
            .search(keyword)
            .into_iter()
            .map(RowId::from_u64)
            .collect()
    }

    /// Edit path: insert a new row (paper's Edit panel, "store in the
    /// database the graph modifications made through the canvas").
    pub fn insert_row(&mut self, pool: &BufferPool, row: &EdgeRow) -> Result<RowId> {
        let rid = self.heap.insert(pool, &row.encode())?;
        let rid64 = rid.to_u64();
        self.by_node1.insert(pool, row.node1_id, rid64)?;
        self.by_node2.insert(pool, row.node2_id, rid64)?;
        self.node_trie.insert(&row.node1_label, row.node1_id);
        self.node_trie.insert(&row.node2_label, row.node2_id);
        self.edge_trie.insert(&row.edge_label, rid64);
        self.rtree.insert(row.geometry.segment(), rid64);
        self.rows += 1;
        self.tries_dirty = true;
        Ok(rid)
    }

    /// Edit path: delete a row. Node-label postings are kept (the nodes may
    /// appear in other rows); geometry and the rid's edge-label postings
    /// are removed, the latter found through the row's own label so only
    /// that label's suffix paths are walked.
    pub fn delete_row(&mut self, pool: &BufferPool, rid: RowId) -> Result<()> {
        let row = self.get(pool, rid)?;
        self.heap.delete(pool, rid)?;
        let rid64 = rid.to_u64();
        self.by_node1.remove(pool, row.node1_id, rid64)?;
        self.by_node2.remove(pool, row.node2_id, rid64)?;
        self.edge_trie.remove(&row.edge_label, rid64);
        self.rtree.remove(rid64);
        self.rows -= 1;
        self.tries_dirty = true;
        Ok(())
    }

    /// Persist in-memory index state; returns fresh catalog metadata.
    ///
    /// * Tries are rewritten when dirty (old blobs freed).
    /// * A dirty R-tree (edits since the last pack) is repacked from the
    ///   live heap.
    pub fn save(&mut self, pool: &BufferPool) -> Result<LayerMeta> {
        if self.rtree.is_dirty() {
            self.rtree.free_packed(pool)?;
            let geoms = self
                .scan(pool)?
                .into_iter()
                .map(|(rid, row)| (row.geometry.segment(), rid.to_u64()))
                .collect();
            self.rtree = PagedRTree::build(pool, geoms)?;
        }
        if self.tries_dirty || self.node_trie_head.is_none() {
            if let Some(head) = self.node_trie_head.take() {
                blob::free(pool, head)?;
            }
            if let Some(head) = self.edge_trie_head.take() {
                blob::free(pool, head)?;
            }
            self.node_trie_head = Some(self.node_trie.save(pool)?);
            self.edge_trie_head = Some(self.edge_trie.save(pool)?);
            self.tries_dirty = false;
        }
        if self.sidecar_dirty {
            if let Some(head) = self.sidecar_head.take() {
                blob::free(pool, head)?;
            }
            if let Some(sidecar) = &self.sidecar {
                self.sidecar_head = Some(sidecar.save(pool)?);
            }
            self.sidecar_dirty = false;
        }
        let packed = self.rtree.packed_root();
        Ok(LayerMeta {
            name: self.name.clone(),
            heap_first: self.heap.first_page().0,
            bt_node1: self.by_node1.root_page().0,
            bt_node2: self.by_node2.root_page().0,
            node_trie: self.node_trie_head.expect("saved above").0,
            edge_trie: self.edge_trie_head.expect("saved above").0,
            rtree_root: packed.root,
            rtree_len: packed.len,
            rows: self.rows,
            sidecar: self.sidecar_head.map_or(0, |h| h.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;
    use crate::record::EdgeGeometry;

    fn pool(name: &str) -> (BufferPool, std::path::PathBuf) {
        let mut p = std::env::temp_dir();
        p.push(format!("gvdb-table-{name}-{}", std::process::id()));
        (BufferPool::new(Pager::create(&p).unwrap(), 256), p)
    }

    fn row(n1: u64, n2: u64, x1: f64, y1: f64, x2: f64, y2: f64) -> EdgeRow {
        EdgeRow {
            node1_id: n1,
            node1_label: format!("node {n1}").into(),
            geometry: EdgeGeometry {
                x1,
                y1,
                x2,
                y2,
                directed: true,
            },
            edge_label: "cites".into(),
            node2_id: n2,
            node2_label: format!("node {n2}").into(),
        }
    }

    /// A 10x10 grid of nodes, edges between horizontal neighbors.
    fn grid_rows() -> Vec<EdgeRow> {
        let mut rows = Vec::new();
        for r in 0..10u64 {
            for c in 0..9u64 {
                let n1 = r * 10 + c;
                let n2 = n1 + 1;
                rows.push(row(
                    n1,
                    n2,
                    c as f64 * 10.0,
                    r as f64 * 10.0,
                    (c + 1) as f64 * 10.0,
                    r as f64 * 10.0,
                ));
            }
        }
        rows
    }

    #[test]
    fn window_query_returns_local_edges() {
        let (pool, path) = pool("window");
        let t = LayerTable::bulk_build(&pool, "layer0", grid_rows()).unwrap();
        // Window around the top-left 2x2 corner.
        let hits = t.window(&pool, &Rect::new(-1.0, -1.0, 15.0, 15.0)).unwrap();
        // Horizontal edges with any overlap: rows y=0 and y=10, segments
        // x:[0,10] and x:[10,20] both intersect; that's 2 per row -> 4.
        assert_eq!(hits.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn index_rejects_bbox_only_matches() {
        let (pool, path) = pool("exact");
        // Anti-diagonal edge whose bbox covers the window corner but whose
        // segment misses it, next to one that crosses the window.
        let rows = vec![
            row(0, 1, 0.0, 20.0, 20.0, 0.0),
            row(2, 3, -5.0, 2.0, 5.0, 2.0),
        ];
        let t = LayerTable::bulk_build(&pool, "layer0", rows).unwrap();
        let w = Rect::new(0.0, 0.0, 4.0, 4.0);
        let rids = t.window_rids(&pool, &w).unwrap();
        assert_eq!(rids.len(), 1, "no heap row fetched for a box-only match");
        assert_eq!(t.get(&pool, rids[0]).unwrap().node1_id, 2);
        let multi = t.window_candidates_multi(&pool, &[w]).unwrap();
        assert_eq!(multi, vec![(Rect::new(-5.0, 2.0, 5.0, 2.0), rids[0])]);
        assert_eq!(t.window(&pool, &w).unwrap().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bounding_box_leaves_are_refined_against_the_heap() {
        let (pool, path) = pool("legacy");
        let rows = vec![
            row(0, 1, 0.0, 20.0, 20.0, 0.0),
            row(2, 3, -5.0, 2.0, 5.0, 2.0),
        ];
        let t = LayerTable::bulk_build(&pool, "layer0", rows).unwrap();
        // Rewrite the single leaf the way older files stored it: tag 3,
        // bounding-box channels.
        let mut leaf = crate::compress::RtreeLeafBuilder::new();
        for (rid, row) in t.scan(&pool).unwrap() {
            let b = row.geometry.bbox();
            assert!(leaf.push([b.min_x, b.min_y, b.max_x, b.max_y], rid.to_u64()));
        }
        let mut image = leaf.seal();
        image.put_u16(0, crate::compress::TAG_LEAF_COMPRESSED);
        let root = PageId(t.rtree.packed_root().root);
        pool.with_page_mut(root, |p| p.put_slice(0, image.bytes()))
            .unwrap();
        // The anti-diagonal edge's box covers the window; its segment
        // does not, and the heap row says so.
        let w = Rect::new(0.0, 0.0, 4.0, 4.0);
        let rids = t.window_rids(&pool, &w).unwrap();
        assert_eq!(rids.len(), 1);
        assert_eq!(t.get(&pool, rids[0]).unwrap().node1_id, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fetch_many_agrees_with_window() {
        let (pool, path) = pool("fetchmany");
        let t = LayerTable::bulk_build(&pool, "layer0", grid_rows()).unwrap();
        let w = Rect::new(-1.0, -1.0, 45.0, 45.0);
        let rows = t.window(&pool, &w).unwrap();
        assert!(rows.windows(2).all(|p| p[0].0 < p[1].0), "RowId order");
        let rids: Vec<RowId> = rows.iter().map(|(rid, _)| *rid).collect();
        let refetched = t.fetch_many(&pool, &rids).unwrap();
        assert_eq!(rows, refetched);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn node_lookup_and_position() {
        let (pool, path) = pool("node");
        let t = LayerTable::bulk_build(&pool, "layer0", grid_rows()).unwrap();
        // Node 55 (row 5, col 5): incident to left and right edges.
        let rids = t.rows_of_node(&pool, 55).unwrap();
        assert_eq!(rids.len(), 2);
        let (pos, label) = t.node_position(&pool, 55).unwrap().unwrap();
        assert_eq!((pos.x, pos.y), (50.0, 50.0));
        assert_eq!(&*label, "node 55");
        assert!(t.node_position(&pool, 9999).unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn keyword_search_finds_nodes_and_edges() {
        let (pool, path) = pool("search");
        let t = LayerTable::bulk_build(&pool, "layer0", grid_rows()).unwrap();
        let hits = t.search_nodes("node 55");
        assert!(hits.contains(&55));
        assert_eq!(t.search_edges("cites").len(), 90);
        assert!(t.search_edges("nonexistent").is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edit_insert_then_window_sees_it() {
        let (pool, path) = pool("edit");
        let mut t = LayerTable::bulk_build(&pool, "layer0", grid_rows()).unwrap();
        let new_row = row(500, 501, 1000.0, 1000.0, 1010.0, 1000.0);
        t.insert_row(&pool, &new_row).unwrap();
        let hits = t
            .window(&pool, &Rect::new(990.0, 990.0, 1020.0, 1010.0))
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1.node1_id, 500);
        assert_eq!(t.row_count(), 91);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edit_delete_removes_everywhere() {
        let (pool, path) = pool("delete");
        let mut t = LayerTable::bulk_build(&pool, "layer0", grid_rows()).unwrap();
        let rids = t.rows_of_node(&pool, 0).unwrap();
        assert_eq!(rids.len(), 1);
        t.delete_row(&pool, rids[0]).unwrap();
        assert!(t.rows_of_node(&pool, 0).unwrap().is_empty());
        let hits = t.window(&pool, &Rect::new(-1.0, -1.0, 5.0, 5.0)).unwrap();
        assert!(hits.is_empty());
        assert_eq!(t.row_count(), 89);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_and_reopen_roundtrip() {
        let mut path = std::env::temp_dir();
        path.push(format!("gvdb-table-persist-{}", std::process::id()));
        let meta;
        {
            let pool = BufferPool::new(Pager::create(&path).unwrap(), 256);
            let mut t = LayerTable::bulk_build(&pool, "layer0", grid_rows()).unwrap();
            // Mutate so save() has to repack.
            t.insert_row(&pool, &row(777, 778, 500.0, 500.0, 510.0, 500.0))
                .unwrap();
            meta = t.save(&pool).unwrap();
            pool.flush().unwrap();
        }
        {
            let pool = BufferPool::new(Pager::open(&path).unwrap(), 256);
            let t = LayerTable::open(&pool, &meta).unwrap();
            assert_eq!(t.row_count(), 91);
            assert!(t.search_nodes("node 777").contains(&777));
            let hits = t
                .window(&pool, &Rect::new(495.0, 495.0, 515.0, 505.0))
                .unwrap();
            assert_eq!(hits.len(), 1);
            // Grid data intact too.
            assert_eq!(t.rows_of_node(&pool, 55).unwrap().len(), 2);
        }
        std::fs::remove_file(&path).ok();
    }
}
