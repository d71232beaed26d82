//! Cross-crate property-based tests (proptest): randomized inputs checking
//! the invariants each subsystem promises the others.

use graphvizdb::core::build_graph_json;
use graphvizdb::prelude::*;
use graphvizdb::storage::heap::RowId;
use graphvizdb::storage::{PageId, PAGE_SIZE};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Partitioning always covers every node with a valid part and keeps
    /// balance within tolerance for connected-ish graphs.
    #[test]
    fn partition_cover_and_range(nodes in 2usize..200, edges in 1usize..400, k in 1u32..8) {
        let g = erdos_renyi(nodes, edges, 42);
        let p = partition(&g, &PartitionConfig::with_k(k));
        prop_assert_eq!(p.assignment().len(), nodes);
        prop_assert!(p.assignment().iter().all(|&x| x < k));
        // Edge cut is bounded by edge count.
        prop_assert!(p.edge_cut(&g) <= g.edge_count());
    }

    /// EdgeRow codec roundtrips for arbitrary labels and coordinates.
    #[test]
    fn edge_row_roundtrip(
        n1 in any::<u64>(),
        n2 in any::<u64>(),
        l1 in "\\PC{0,40}",
        l2 in "\\PC{0,40}",
        le in "\\PC{0,40}",
        x1 in -1e9f64..1e9,
        y1 in -1e9f64..1e9,
        x2 in -1e9f64..1e9,
        y2 in -1e9f64..1e9,
        directed in prop::bool::ANY,
    ) {
        let row = EdgeRow {
            node1_id: n1,
            node1_label: l1.into(),
            geometry: EdgeGeometry { x1, y1, x2, y2, directed },
            edge_label: le.into(),
            node2_id: n2,
            node2_label: l2.into(),
        };
        let decoded = EdgeRow::decode(&row.encode()).unwrap();
        prop_assert_eq!(decoded, row);
    }

    /// JSON building always emits parseable-ish structure: balanced braces
    /// and correct counts, for arbitrary label content.
    #[test]
    fn json_structure_sound(labels in prop::collection::vec("\\PC{0,20}", 1..20)) {
        let rows: Vec<(RowId, EdgeRow)> = labels
            .iter()
            .enumerate()
            .map(|(i, l)| {
                (
                    RowId { page: PageId(1), slot: i as u16 },
                    EdgeRow {
                        node1_id: i as u64,
                        node1_label: l.as_str().into(),
                        geometry: EdgeGeometry {
                            x1: 0.0, y1: 0.0, x2: 1.0, y2: 1.0, directed: false,
                        },
                        edge_label: l.as_str().into(),
                        node2_id: (i + 1) as u64,
                        node2_label: l.as_str().into(),
                    },
                )
            })
            .collect();
        let json = build_graph_json(&rows);
        prop_assert_eq!(json.edge_count, rows.len());
        // No raw control characters leak through.
        prop_assert!(!json.text.chars().any(|c| (c as u32) < 0x20));
        // Structural soundness: track string state (respecting escapes);
        // braces/brackets must balance outside strings and the document
        // must end outside a string.
        let mut in_string = false;
        let mut escaped = false;
        let mut depth: i64 = 0;
        for c in json.text.chars() {
            if in_string {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_string = false;
                }
            } else {
                match c {
                    '"' => in_string = true,
                    '{' | '[' => depth += 1,
                    '}' | ']' => depth -= 1,
                    _ => {}
                }
                prop_assert!(depth >= 0, "negative nesting");
            }
        }
        prop_assert!(!in_string, "unterminated string");
        prop_assert_eq!(depth, 0, "unbalanced braces");
    }

    /// Heap file roundtrip under random record sizes.
    #[test]
    fn heap_roundtrip(sizes in prop::collection::vec(1usize..PAGE_SIZE / 4, 1..40)) {
        use graphvizdb::storage::buffer::BufferPool;
        use graphvizdb::storage::heap::HeapFile;
        use graphvizdb::storage::Pager;
        let mut path = std::env::temp_dir();
        path.push(format!(
            "gvdb-prop-heap-{}-{}",
            std::process::id(),
            sizes.len() * 1000 + sizes[0]
        ));
        let pool = BufferPool::new(Pager::create(&path).unwrap(), 16);
        let mut heap = HeapFile::create(&pool).unwrap();
        let mut rids = Vec::new();
        for (i, &len) in sizes.iter().enumerate() {
            let record = vec![(i % 251) as u8; len];
            rids.push((heap.insert(&pool, &record).unwrap(), record));
        }
        for (rid, record) in &rids {
            prop_assert_eq!(&heap.get(&pool, *rid).unwrap(), record);
        }
        prop_assert_eq!(heap.scan(&pool).unwrap().len(), rids.len());
        gvdb_storage::wal::remove_database(&path).ok();
    }

    /// Trie search agrees with a linear substring scan (word-level).
    #[test]
    fn trie_matches_linear_scan(
        labels in prop::collection::vec("[a-c]{1,8}", 1..30),
        keyword in "[a-c]{1,4}",
    ) {
        use graphvizdb::storage::trie::FullTextTrie;
        let mut trie = FullTextTrie::new();
        for (i, l) in labels.iter().enumerate() {
            trie.insert(l, i as u64);
        }
        let got = trie.search(&keyword);
        let expected: Vec<u64> = labels
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains(keyword.as_str()))
            .map(|(i, _)| i as u64)
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// Organizer invariant: partitions never overlap on the plane.
    #[test]
    fn organizer_no_overlap(communities in 2usize..6, size in 5usize..20) {
        use graphvizdb::core::{organize_partitions, OrganizerConfig};
        use graphvizdb::layout::{Layout, LayoutAlgorithm};
        let g = planted_partition(communities, size, 4.0, 0.5, 9);
        let parts = partition(&g, &PartitionConfig::with_k(communities as u32));
        let layouts: Vec<Layout> = parts
            .parts()
            .iter()
            .map(|nodes| {
                let (sub, _) = g.induced_subgraph(nodes);
                ForceDirected { iterations: 5, ..Default::default() }.layout(&sub)
            })
            .collect();
        let org = organize_partitions(&g, &parts, &layouts, &OrganizerConfig::default());
        let mut slots = org.slots.clone();
        slots.sort_unstable();
        let before = slots.len();
        slots.dedup();
        prop_assert_eq!(before, slots.len(), "two partitions share a slot");
    }

    /// The incremental viewport engine is invisible to results: across a
    /// randomized pan/zoom sequence, every delta-assembled
    /// `WindowResponse` is row-for-row identical to a cold query of the
    /// same window straight off the table, and its payload counts match a
    /// cold build.
    #[test]
    fn delta_pan_equals_cold_query(
        start_x in 0.0f64..3000.0,
        start_y in 0.0f64..3000.0,
        side in 500.0f64..2500.0,
        moves in prop::collection::vec(
            (-0.4f64..0.4, -0.4f64..0.4, prop::bool::ANY),
            1..12
        ),
    ) {
        let (qm, _) = &*PAN_DB;
        let mut session = Session::new(Rect::new(
            start_x,
            start_y,
            start_x + side,
            start_y + side,
        ));
        for &(dx, dy, zoom_too) in &moves {
            session.pan(dx * side, dy * side);
            if zoom_too {
                // Mild zooms keep the overlap in delta range.
                session.zoom_by(if dx > 0.0 { 1.1 } else { 0.9 });
            }
            let resp = session.view(qm).unwrap();
            let db = qm.db();
            let cold = db
                .layer(session.layer())
                .unwrap()
                .window(db.pool(), &session.window())
                .unwrap();
            drop(db);
            prop_assert_eq!(
                &*resp.rows, &cold,
                "delta result diverged from cold (window {:?})",
                session.window()
            );
            let cold_json = build_graph_json(&cold);
            prop_assert_eq!(resp.json.edge_count, cold_json.edge_count);
            prop_assert_eq!(resp.json.node_count, cold_json.node_count);
            prop_assert_eq!(resp.json.byte_len(), cold_json.byte_len());
        }
    }
}

/// One shared database for the pan-equivalence property: built once, the
/// window cache accumulates entries across cases so delta queries anchor
/// on a rich mix of earlier windows.
static PAN_DB: std::sync::LazyLock<(QueryManager, std::path::PathBuf)> =
    std::sync::LazyLock::new(|| {
        let g = planted_partition(4, 60, 6.0, 0.5, 7);
        let mut path = std::env::temp_dir();
        path.push(format!("gvdb-prop-pan-{}.db", std::process::id()));
        let (db, _) = graphvizdb::core::preprocess(
            &g,
            &path,
            &graphvizdb::core::PreprocessConfig {
                k: Some(4),
                ..Default::default()
            },
        )
        .expect("preprocess");
        // A static is never dropped, so remove the files now: on Unix the
        // open descriptors keep the database readable. Elsewhere the open
        // file cannot be removed and stays behind.
        gvdb_storage::wal::remove_database(&path).ok();
        (QueryManager::new(db), path)
    });
