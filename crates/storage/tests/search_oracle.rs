//! Keyword search on a layer table agrees with a naive label scan in every
//! state the label tries can be in: freshly bulk-built, reopened from disk,
//! after edits, and loaded from blobs whose posting lists are unsorted and
//! hold duplicates (the layout of files written before postings were kept
//! sorted).

use gvdb_storage::table::LayerMeta;
use gvdb_storage::trie::blob;
use gvdb_storage::{BufferPool, EdgeGeometry, EdgeRow, LayerTable, PageId, Pager, RowId};
use std::path::PathBuf;

const KEYWORDS: &[&str] = &[
    "cites",
    "CITES",
    "ite",
    "s",
    "prior",
    "art",
    "prior art",
    "cites art",
    "hub",
    "ub 3",
    "paper",
    "aper 1",
    "7",
    "12",
    "fresh",
    "zzz",
    "hub zzz",
];

fn words(text: &str) -> Vec<String> {
    text.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

/// Every keyword word is a substring of some word of `label`.
fn naive_match(label: &str, keyword: &str) -> bool {
    let label_words = words(label);
    let kw_words = words(keyword);
    !kw_words.is_empty()
        && kw_words
            .iter()
            .all(|k| label_words.iter().any(|w| w.contains(k.as_str())))
}

/// What the tables should hold: the live rows by rid, plus every node
/// label ever indexed (deleting a row keeps its node-label postings).
struct Model {
    live: Vec<(RowId, EdgeRow)>,
    nodes: Vec<(u64, String)>,
}

impl Model {
    /// The model of a freshly built table: its full scan.
    fn of(t: &LayerTable, pool: &BufferPool) -> Self {
        let mut model = Model {
            live: Vec::new(),
            nodes: Vec::new(),
        };
        for (rid, row) in t.scan(pool).unwrap() {
            model.add_nodes(&row);
            model.live.push((rid, row));
        }
        model
    }

    fn add_nodes(&mut self, row: &EdgeRow) {
        self.nodes.push((row.node1_id, row.node1_label.to_string()));
        self.nodes.push((row.node2_id, row.node2_label.to_string()));
    }

    fn check(&self, t: &LayerTable, state: &str) {
        for &kw in KEYWORDS {
            let mut nodes: Vec<u64> = self
                .nodes
                .iter()
                .filter(|(_, label)| naive_match(label, kw))
                .map(|(id, _)| *id)
                .collect();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(t.search_nodes(kw), nodes, "{state}: nodes for {kw:?}");
            let mut edges: Vec<RowId> = self
                .live
                .iter()
                .filter(|(_, row)| naive_match(&row.edge_label, kw))
                .map(|(rid, _)| *rid)
                .collect();
            edges.sort_unstable();
            assert_eq!(t.search_edges(kw), edges, "{state}: edges for {kw:?}");
        }
    }
}

fn row(n1: u64, n2: u64, i: u64, edge_label: &str) -> EdgeRow {
    let label = |n: u64| {
        if n < 8 {
            format!("Hub {n}")
        } else {
            format!("paper {n}")
        }
    };
    let (x, y) = ((i % 17) as f64 * 10.0, (i / 17) as f64 * 10.0);
    EdgeRow {
        node1_id: n1,
        node1_label: label(n1).into(),
        geometry: EdgeGeometry {
            x1: x,
            y1: y,
            x2: x + 5.0,
            y2: y + 3.0,
            directed: true,
        },
        edge_label: edge_label.into(),
        node2_id: n2,
        node2_label: label(n2).into(),
    }
}

/// 300 rows: every paper cites one of 8 hubs, so each hub label arrives
/// once per incident edge (~40 times); all rows share the edge label
/// `cites`, every fifth one extends it.
fn rows() -> Vec<EdgeRow> {
    (0..300u64)
        .map(|i| {
            let label = if i % 5 == 0 {
                "cites prior-art"
            } else {
                "cites"
            };
            row(8 + i / 2, i % 8, i, label)
        })
        .collect()
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gvdb-search-oracle-{name}-{}", std::process::id()));
    p
}

/// Rewrite a trie blob with every posting list reversed and its largest
/// id repeated: unsorted, with duplicates.
fn scramble_trie_blob(pool: &BufferPool, head: u64) -> u64 {
    let bytes = blob::read(pool, PageId(head)).unwrap();
    let mut out = Vec::with_capacity(bytes.len());
    let mut pos = 0usize;
    let mut take = |n: usize| {
        pos += n;
        &bytes[pos - n..pos]
    };
    let node_count = u64::from_le_bytes(take(8).try_into().unwrap());
    out.extend_from_slice(&node_count.to_le_bytes());
    for _ in 0..node_count {
        let id_count = u32::from_le_bytes(take(4).try_into().unwrap()) as usize;
        let mut ids: Vec<u64> = (0..id_count)
            .map(|_| u64::from_le_bytes(take(8).try_into().unwrap()))
            .collect();
        ids.reverse();
        if let Some(&first) = ids.first() {
            ids.push(first);
        }
        out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        for id in ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        let child_bytes = take(4);
        out.extend_from_slice(child_bytes);
        let child_count = u32::from_le_bytes(child_bytes.try_into().unwrap()) as usize;
        out.extend_from_slice(take(child_count * 5));
    }
    assert_eq!(pos, bytes.len(), "whole blob rewritten");
    blob::write(pool, &out).unwrap().0
}

#[test]
fn keyword_search_matches_a_naive_scan_in_every_state() {
    let path = temp_path("states");
    let mut model;
    let meta: LayerMeta;
    {
        let pool = BufferPool::new(Pager::create(&path).unwrap(), 256);
        let mut t = LayerTable::bulk_build(&pool, "layer0", rows()).unwrap();
        model = Model::of(&t, &pool);
        model.check(&t, "bulk-built");
        meta = t.save(&pool).unwrap();
        pool.flush().unwrap();
    }
    {
        let pool = BufferPool::new(Pager::open(&path).unwrap(), 256);
        let mut t = LayerTable::open(&pool, &meta).unwrap();
        model.check(&t, "reopened");

        // Edits: new rows on a hub and on fresh nodes (one with an edge
        // label of its own), then deletes that take out a `prior-art`
        // row, a plain `cites` row and one of the new rows.
        for (i, (n1, n2, label)) in [
            (1000, 3, "cites"),
            (1001, 1002, "fresh link"),
            (1003, 0, "cites prior-art"),
        ]
        .into_iter()
        .enumerate()
        {
            let new = row(n1, n2, 400 + i as u64, label);
            let rid = t.insert_row(&pool, &new).unwrap();
            model.add_nodes(&new);
            model.live.push((rid, new));
        }
        let first_with = |label: &str| {
            model
                .live
                .iter()
                .position(|(_, r)| &*r.edge_label == label)
                .unwrap()
        };
        let mut doomed = vec![
            first_with("cites prior-art"),
            first_with("cites"),
            first_with("fresh link"),
        ];
        doomed.sort_unstable_by(|a, b| b.cmp(a));
        for i in doomed {
            let (rid, _) = model.live.remove(i);
            t.delete_row(&pool, rid).unwrap();
        }
        model.check(&t, "edited");
        let meta = t.save(&pool).unwrap();
        pool.flush().unwrap();
        model.check(&LayerTable::open(&pool, &meta).unwrap(), "edited, reopened");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn unsorted_duplicate_postings_load_and_stay_editable() {
    let path = temp_path("legacy");
    let pool = BufferPool::new(Pager::create(&path).unwrap(), 256);
    let mut built = LayerTable::bulk_build(&pool, "layer0", rows()).unwrap();
    let mut model = Model::of(&built, &pool);
    let meta = built.save(&pool).unwrap();
    let legacy = LayerMeta {
        node_trie: scramble_trie_blob(&pool, meta.node_trie),
        edge_trie: scramble_trie_blob(&pool, meta.edge_trie),
        ..meta
    };
    let mut t = LayerTable::open(&pool, &legacy).unwrap();
    model.check(&t, "legacy postings");

    // A delete relies on sorted postings to find its rid.
    let (rid, _) = model.live.remove(0);
    t.delete_row(&pool, rid).unwrap();
    let (rid, _) = model.live.pop().unwrap();
    t.delete_row(&pool, rid).unwrap();
    model.check(&t, "legacy postings, edited");
    std::fs::remove_file(&path).ok();
}
