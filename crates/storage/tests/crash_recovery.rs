//! Crash-recovery tests: a flush interrupted at any point must leave the
//! database in either the previous or the new checkpoint state.

use gvdb_storage::record::{EdgeGeometry, EdgeRow};
use gvdb_storage::wal;
use gvdb_storage::GraphDb;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gvdb-crash-{name}-{}", std::process::id()));
    p
}

fn row(i: u64) -> EdgeRow {
    EdgeRow {
        node1_id: i,
        node1_label: format!("node {i}").into(),
        geometry: EdgeGeometry {
            x1: i as f64,
            y1: 0.0,
            x2: i as f64 + 1.0,
            y2: 1.0,
            directed: false,
        },
        edge_label: "e".into(),
        node2_id: i + 1,
        node2_label: format!("node {}", i + 1).into(),
    }
}

/// Simulate "crash after WAL commit, before apply": write the checkpoint
/// WAL but restore the database file to its pre-flush bytes. Recovery must
/// replay the WAL and surface the new state.
#[test]
fn committed_wal_is_replayed_on_open() {
    let path = tmp("replay");
    // Checkpoint 1: 50 rows.
    {
        let mut db = GraphDb::create(&path).unwrap();
        db.create_layer("layer0", (0..50).map(row)).unwrap();
        db.flush().unwrap();
    }
    let before = std::fs::read(&path).unwrap();

    // Checkpoint 2: add a row, flush — but then "crash before apply":
    // restore the old file bytes and recreate the WAL.
    {
        let mut db = GraphDb::open(&path).unwrap();
        db.insert_row(0, &row(1000)).unwrap();
        // Stage the checkpoint manually so we hold its contents.
        db.flush().unwrap();
    }
    let after = std::fs::read(&path).unwrap();
    assert_ne!(before, after, "flush changed the file");

    // Build the crash state: file rolled back, committed WAL present.
    // Reconstruct the WAL from the after-image (pages that differ).
    {
        use gvdb_storage::{Page, PageId, PAGE_SIZE};
        let mut pages = Vec::new();
        let mut header = Page::zeroed();
        header.bytes_mut().copy_from_slice(&after[..PAGE_SIZE]);
        for pid in 1..(after.len() / PAGE_SIZE) {
            let range = pid * PAGE_SIZE..(pid + 1) * PAGE_SIZE;
            let after_page = &after[range.clone()];
            let before_page = before.get(range.clone());
            if before_page != Some(after_page) {
                let mut p = Page::zeroed();
                p.bytes_mut().copy_from_slice(after_page);
                pages.push((PageId(pid as u64), p));
            }
        }
        std::fs::write(&path, &before).unwrap(); // roll the file back
        wal::write_checkpoint_seq(&path, 0, &[], &header, &pages).unwrap();
    }

    // Open: recovery must replay the checkpoint.
    let db = GraphDb::open(&path).unwrap();
    assert_eq!(db.layer(0).unwrap().row_count(), 51);
    assert!(db
        .layer(0)
        .unwrap()
        .search_nodes("node 1000")
        .contains(&1000));
    assert!(!wal::wal_path(&path).exists(), "WAL removed after recovery");
    wal::remove_database(&path).ok();
}

/// Simulate "crash during WAL write": a torn WAL must be discarded and the
/// previous checkpoint state served.
#[test]
fn torn_wal_is_ignored_and_old_state_served() {
    let path = tmp("torn");
    {
        let mut db = GraphDb::create(&path).unwrap();
        db.create_layer("layer0", (0..20).map(row)).unwrap();
        db.flush().unwrap();
    }
    // Fabricate a torn WAL (garbage, no commit record).
    std::fs::write(wal::wal_path(&path), b"gvWL garbage torn write").unwrap();

    let db = GraphDb::open(&path).unwrap();
    assert_eq!(db.layer(0).unwrap().row_count(), 20);
    assert!(!wal::wal_path(&path).exists(), "torn WAL cleaned up");
    wal::remove_database(&path).ok();
}

/// Flush twice with edits between: each checkpoint supersedes the last and
/// no WAL is left behind on the happy path.
#[test]
fn successive_checkpoints_leave_no_wal() {
    let path = tmp("successive");
    let mut db = GraphDb::create(&path).unwrap();
    db.create_layer("layer0", (0..10).map(row)).unwrap();
    db.flush().unwrap();
    assert!(!wal::wal_path(&path).exists());
    db.insert_row(0, &row(500)).unwrap();
    db.flush().unwrap();
    assert!(!wal::wal_path(&path).exists());
    drop(db);
    let db = GraphDb::open(&path).unwrap();
    assert_eq!(db.layer(0).unwrap().row_count(), 11);
    wal::remove_database(&path).ok();
}

/// Follower killed mid-apply: a shipped checkpoint whose local WAL write
/// was torn (the "crash while receiving/applying a replicated checkpoint"
/// case) must be discarded on reopen, leaving the previous complete
/// checkpoint served — never a half-applied one.
#[test]
fn follower_killed_mid_apply_recovers_to_complete_checkpoint() {
    let leader = tmp("ship-leader");
    let follower = tmp("ship-follower");

    // Leader: checkpoint 1 (the follower's last complete state) and
    // checkpoint 2 (the in-flight shipment).
    {
        let mut db = GraphDb::create(&leader).unwrap();
        db.create_layer("layer0", (0..30).map(row)).unwrap();
        db.flush().unwrap();
    }
    std::fs::copy(&leader, &follower).unwrap();
    {
        let mut db = GraphDb::open(&leader).unwrap();
        db.insert_row(0, &row(2000)).unwrap();
        db.flush_with_meta(b"epochs:v1").unwrap();
    }
    let shipped = wal::read_archive_bytes(&leader, 2)
        .unwrap()
        .expect("leader archived checkpoint 2");
    assert_eq!(wal::decode_checkpoint(&shipped).unwrap().seq, 2);

    // Crash mid-apply: only a prefix of the shipped image reached the
    // follower's disk before the kill.
    wal::write_shipped(&follower, &shipped[..shipped.len() / 2]).unwrap();
    {
        let db = GraphDb::open(&follower).unwrap();
        assert_eq!(db.layer(0).unwrap().row_count(), 30, "old state served");
        assert_eq!(db.checkpoint_seq(), 1);
        assert!(!wal::wal_path(&follower).exists(), "torn shipment dropped");
    }

    // Retry with the complete image: the normal crash-recovery path
    // replays it and the follower lands exactly on checkpoint 2.
    wal::write_shipped(&follower, &shipped).unwrap();
    {
        let db = GraphDb::open(&follower).unwrap();
        assert_eq!(db.layer(0).unwrap().row_count(), 31);
        assert_eq!(db.checkpoint_seq(), 2);
        assert!(db
            .layer(0)
            .unwrap()
            .search_nodes("node 2000")
            .contains(&2000));
    }

    for p in [&leader, &follower] {
        wal::remove_database(p).ok();
    }
}

/// Create over an existing database with a stale WAL must not replay it.
#[test]
fn create_clears_stale_wal() {
    let path = tmp("stale");
    {
        let mut db = GraphDb::create(&path).unwrap();
        db.create_layer("layer0", (0..5).map(row)).unwrap();
        db.flush().unwrap();
    }
    std::fs::write(wal::wal_path(&path), b"stale").unwrap();
    let db = GraphDb::create(&path).unwrap();
    assert_eq!(db.layer_count(), 0);
    assert!(!wal::wal_path(&path).exists());
    wal::remove_database(&path).ok();
}
