//! Property-based tests for the storage engine: B+-tree vs BTreeMap model,
//! catalog codec, layer-table windows vs an exact heap scan, the R-tree's
//! edit overlay vs a live model.

use gvdb_spatial::{Point, Rect, Segment};
use gvdb_storage::btree::BTree;
use gvdb_storage::spatial_index::PagedRTree;
use gvdb_storage::table::LayerMeta;
use gvdb_storage::{BufferPool, EdgeGeometry, EdgeRow, LayerTable, Pager, RowId};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn temp_pool(tag: u64, cache: usize) -> (BufferPool, std::path::PathBuf) {
    let mut p = std::env::temp_dir();
    p.push(format!("gvdb-prop-store-{}-{tag}", std::process::id()));
    (BufferPool::new(Pager::create(&p).unwrap(), cache), p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// B+-tree behaves exactly like a BTreeMap<(key, value)> model under
    /// random interleaved inserts and removes, with a tiny buffer pool to
    /// force eviction traffic.
    #[test]
    fn btree_matches_model(
        ops in prop::collection::vec((0u64..500, 0u64..10_000, prop::bool::ANY), 1..800),
        probes in prop::collection::vec(0u64..500, 1..20),
        seed in 0u64..1_000_000,
    ) {
        let (pool, path) = temp_pool(seed, 8);
        let mut tree = BTree::create(&pool).unwrap();
        let mut model: BTreeMap<(u64, u64), ()> = BTreeMap::new();
        for &(k, v, insert) in &ops {
            if insert || model.is_empty() {
                // The tree stores duplicates; the model is a set. Keep them
                // aligned by skipping exact-duplicate inserts.
                if model.contains_key(&(k, v)) {
                    continue;
                }
                tree.insert(&pool, k, v).unwrap();
                model.insert((k, v), ());
            } else {
                let existing = *model.keys().next().unwrap();
                prop_assert!(tree.remove(&pool, existing.0, existing.1).unwrap());
                model.remove(&existing);
            }
        }
        for &k in &probes {
            let got = tree.get(&pool, k).unwrap();
            let want: Vec<u64> = model
                .keys()
                .filter(|(key, _)| *key == k)
                .map(|(_, v)| *v)
                .collect();
            prop_assert_eq!(got, want, "key {}", k);
        }
        prop_assert_eq!(tree.len(&pool).unwrap(), model.len());
        std::fs::remove_file(&path).ok();
    }

    /// Range scans return exactly the model's range, in order.
    #[test]
    fn btree_range_matches_model(
        keys in prop::collection::vec(0u64..1000, 1..500),
        lo in 0u64..1000,
        span in 0u64..200,
        seed in 0u64..1_000_000,
    ) {
        let (pool, path) = temp_pool(seed.wrapping_add(1), 16);
        let mut tree = BTree::create(&pool).unwrap();
        let mut model: Vec<(u64, u64)> = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            tree.insert(&pool, k, i as u64).unwrap();
            model.push((k, i as u64));
        }
        model.sort_unstable();
        let hi = lo.saturating_add(span);
        let mut got = Vec::new();
        tree.range(&pool, lo, hi, |k, v| got.push((k, v))).unwrap();
        let want: Vec<(u64, u64)> = model
            .iter()
            .copied()
            .filter(|(k, _)| *k >= lo && *k <= hi)
            .collect();
        prop_assert_eq!(got, want);
        std::fs::remove_file(&path).ok();
    }

    /// Catalog encode/decode roundtrips arbitrary layer metadata.
    #[test]
    fn catalog_roundtrip(
        layers in prop::collection::vec(
            ("[a-z0-9]{1,24}", any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            0..12
        )
    ) {
        use gvdb_storage::catalog::Catalog;
        let catalog = Catalog {
            checkpoint_seq: 0,
            layers: layers
                .into_iter()
                .map(|(name, a, b, c, d)| LayerMeta {
                    name,
                    heap_first: a,
                    bt_node1: b,
                    bt_node2: c,
                    node_trie: d,
                    edge_trie: a ^ b,
                    rtree_root: b ^ c,
                    rtree_len: c ^ d,
                    rows: a.wrapping_add(d),
                    sidecar: b.wrapping_add(c),
                })
                .collect(),
        };
        let decoded = Catalog::decode(&catalog.encode()).unwrap();
        prop_assert_eq!(decoded, catalog);
    }

    /// The exactness oracle: the index answers every window with exactly
    /// the rows a naive heap scan finds by the segment test — across
    /// anti-diagonal, axis-parallel and zero-length edges, windows that
    /// only touch an endpoint or share a side with an edge, overlay
    /// inserts and tombstoned rows, before and after `save()` repacks
    /// the tree. (The query layer's own references share this index, so
    /// only a scan can catch an index error.)
    #[test]
    fn paged_rtree_with_edits_matches_model(
        base in prop::collection::vec(arb_edge(), 1..150),
        inserts in prop::collection::vec(arb_edge(), 0..20),
        delete_every in 2usize..10,
        probes in prop::collection::vec(arb_probe(), 1..8),
        seed in 0u64..1_000_000,
    ) {
        let (pool, path) = temp_pool(seed.wrapping_add(2), 16);
        let rows: Vec<EdgeRow> = base.iter().enumerate().map(|(i, e)| edge_row(i as u64, e)).collect();
        let mut table = LayerTable::bulk_build(&pool, "layer0", rows.clone()).unwrap();
        let windows: Vec<Rect> = probes.iter().map(|p| p.window(&rows)).collect();
        check_exact(&table, &pool, &windows);

        // Tombstone every n-th packed row, then add overlay rows.
        let live = table.scan(&pool).unwrap();
        for (rid, _) in live.iter().step_by(delete_every) {
            table.delete_row(&pool, *rid).unwrap();
        }
        for (j, e) in inserts.iter().enumerate() {
            table.insert_row(&pool, &edge_row(10_000 + j as u64, e)).unwrap();
        }
        check_exact(&table, &pool, &windows);

        // Repack: the rebuilt leaves give the same answers.
        table.save(&pool).unwrap();
        check_exact(&table, &pool, &windows);
        std::fs::remove_file(&path).ok();
    }

    /// The edit overlay against a live model. A packed tree, then
    /// interleaved inserts of new rows, deletes of overlay rows and
    /// deletes of packed rows; after every step `windows()` returns
    /// exactly the model rows whose box and segment cross some window,
    /// ascending and unique. Freeing the pages and packing the model again
    /// answers the same, with nothing left dirty.
    #[test]
    fn paged_rtree_overlay_edits_match_model(
        base in prop::collection::vec(arb_edge(), 0..120),
        ops in prop::collection::vec((0u8..3, arb_edge(), any::<usize>()), 1..40),
        windows in prop::collection::vec(arb_window(), 1..9),
        seed in 0u64..1_000_000,
    ) {
        let (pool, path) = temp_pool(seed.wrapping_add(3), 16);
        // (row id, segment, packed?)
        let mut model: Vec<(u64, Segment, bool)> = base
            .iter()
            .enumerate()
            .map(|(i, e)| (i as u64, segment(e), true))
            .collect();
        let packed = model.iter().map(|&(row, seg, _)| (seg, row)).collect();
        let mut tree = PagedRTree::build(&pool, packed).unwrap();
        check_tree(&tree, &pool, &model, &windows);
        let mut next_row = model.len() as u64;
        for (kind, e, pick) in &ops {
            let victims: Vec<usize> = (0..model.len())
                .filter(|&i| model[i].2 == (*kind == 2))
                .collect();
            if *kind == 0 || victims.is_empty() {
                tree.insert(segment(e), next_row);
                model.push((next_row, segment(e), false));
                next_row += 1;
            } else {
                let (row, _, _) = model.swap_remove(victims[pick % victims.len()]);
                tree.remove(row);
            }
            check_tree(&tree, &pool, &model, &windows);
        }

        tree.free_packed(&pool).unwrap();
        let live = model.iter().map(|&(row, seg, _)| (seg, row)).collect();
        let tree = PagedRTree::build(&pool, live).unwrap();
        prop_assert!(!tree.is_dirty());
        check_tree(&tree, &pool, &model, &windows);
        std::fs::remove_file(&path).ok();
    }
}

fn segment(e: &[f64; 4]) -> Segment {
    Segment::new(Point::new(e[0], e[1]), Point::new(e[2], e[3]))
}

/// A window over the `arb_edge` plane, from a point to a wide band.
fn arb_window() -> impl Strategy<Value = Rect> {
    (
        -20.0f64..620.0,
        -20.0f64..620.0,
        0.0f64..200.0,
        0.0f64..200.0,
    )
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

/// `PagedRTree::windows` equals a naive scan of the live model.
fn check_tree(
    tree: &PagedRTree,
    pool: &BufferPool,
    model: &[(u64, Segment, bool)],
    windows: &[Rect],
) {
    let mut want: Vec<(u64, Rect)> = model
        .iter()
        .filter(|(_, seg, _)| {
            windows
                .iter()
                .any(|w| seg.bbox().intersects(w) && seg.intersects_rect(w))
        })
        .map(|&(row, seg, _)| (row, seg.bbox()))
        .collect();
    want.sort_unstable_by_key(|&(row, _)| row);
    let hits = tree.windows(pool, windows).unwrap();
    prop_assert!(hits.iter().all(|h| h.exact));
    let got: Vec<(u64, Rect)> = hits.iter().map(|h| (h.row, h.bbox)).collect();
    prop_assert_eq!(got, want, "windows {:?}", windows);
}

/// An edge `(x1, y1, x2, y2)` of one of five shapes: diagonal,
/// anti-diagonal (endpoint order inverts the box corners), horizontal,
/// vertical, zero-length; either endpoint order.
fn arb_edge() -> impl Strategy<Value = [f64; 4]> {
    (
        0.0f64..500.0,
        0.0f64..500.0,
        0.0f64..120.0,
        0.0f64..120.0,
        0u8..5,
        prop::bool::ANY,
    )
        .prop_map(|(x, y, dx, dy, shape, flip)| {
            let [x1, y1, x2, y2] = match shape {
                0 => [x, y, x + dx, y + dy],
                1 => [x, y + dy, x + dx, y],
                2 => [x, y, x + dx, y],
                3 => [x, y, x, y + dy],
                _ => [x, y, x, y],
            };
            if flip {
                [x2, y2, x1, y1]
            } else {
                [x1, y1, x2, y2]
            }
        })
}

fn edge_row(id: u64, e: &[f64; 4]) -> EdgeRow {
    EdgeRow {
        node1_id: 2 * id,
        node1_label: format!("n{}", 2 * id).into(),
        geometry: EdgeGeometry {
            x1: e[0],
            y1: e[1],
            x2: e[2],
            y2: e[3],
            directed: id.is_multiple_of(2),
        },
        edge_label: "e".into(),
        node2_id: 2 * id + 1,
        node2_label: format!("n{}", 2 * id + 1).into(),
    }
}

/// A window to probe: free-standing, or placed against one base edge so
/// it only touches an endpoint (at a window corner) or shares a side
/// with the edge's bounding box.
#[derive(Debug, Clone)]
struct Probe {
    kind: u8,
    edge: usize,
    x: f64,
    y: f64,
    w: f64,
    h: f64,
}

fn arb_probe() -> impl Strategy<Value = Probe> {
    (
        0u8..5,
        any::<usize>(),
        0.0f64..500.0,
        0.0f64..500.0,
        0.0f64..150.0,
        0.0f64..150.0,
    )
        .prop_map(|(kind, edge, x, y, w, h)| Probe {
            kind,
            edge,
            x,
            y,
            w,
            h,
        })
}

impl Probe {
    fn window(&self, rows: &[EdgeRow]) -> Rect {
        let g = &rows[self.edge % rows.len()].geometry;
        let b = g.bbox();
        let (w, h) = (self.w, self.h);
        match self.kind {
            // Min corner on the first endpoint.
            1 => Rect::new(g.x1, g.y1, g.x1 + w, g.y1 + h),
            // Max corner on the second endpoint.
            2 => Rect::new(g.x2 - w, g.y2 - h, g.x2, g.y2),
            // Right side on the box's left side.
            3 => Rect::new(b.min_x - w, self.y, b.min_x, self.y + h),
            // Bottom side on the box's top side.
            4 => Rect::new(self.x, b.max_y, self.x + w, b.max_y + h),
            _ => Rect::new(self.x, self.y, self.x + w, self.y + h),
        }
    }
}

/// `window_rids`, `window_candidates_multi` and `window` agree with a
/// heap scan filtered by the exact segment test.
fn check_exact(table: &LayerTable, pool: &BufferPool, windows: &[Rect]) {
    let all = table.scan(pool).unwrap();
    let crossing = |w: &Rect| -> Vec<(RowId, EdgeRow)> {
        let mut rows: Vec<(RowId, EdgeRow)> = all
            .iter()
            .filter(|(_, row)| row.geometry.segment().intersects_rect(w))
            .cloned()
            .collect();
        rows.sort_by_key(|(rid, _)| *rid);
        rows
    };
    let mut union: Vec<(Rect, RowId)> = Vec::new();
    for w in windows {
        let want = crossing(w);
        let rids: Vec<RowId> = want.iter().map(|(rid, _)| *rid).collect();
        prop_assert_eq!(
            table.window_rids(pool, w).unwrap(),
            rids,
            "window_rids {:?}",
            w
        );
        prop_assert_eq!(
            table.window(pool, w).unwrap(),
            want.clone(),
            "window {:?}",
            w
        );
        union.extend(want.iter().map(|(rid, row)| (row.geometry.bbox(), *rid)));
    }
    union.sort_by_key(|(_, rid)| *rid);
    union.dedup_by_key(|(_, rid)| *rid);
    prop_assert_eq!(table.window_candidates_multi(pool, windows).unwrap(), union);
}
