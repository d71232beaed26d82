//! The database facade: one file, one buffer pool, many layer tables.

use crate::buffer::BufferPool;
use crate::catalog::Catalog;
use crate::error::{Result, StorageError};
use crate::pager::Pager;
use crate::record::EdgeRow;
use crate::table::LayerTable;
use crate::wal;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Default buffer-pool capacity in pages (8 MiB). The paper's evaluation
/// gives MySQL a 6 GB cache on an 8 GB VM; scale with your machine via
/// [`GraphDb::create_with_cache`].
pub const DEFAULT_CACHE_PAGES: usize = 1024;

/// How many archived checkpoint WALs [`GraphDb::flush`] keeps on disk for
/// followers to fetch. Older archives are deleted; a follower further
/// behind than the oldest survivor must full-resync.
pub const WAL_KEEP_ARCHIVES: usize = 8;

/// A graphvizdb storage database: layer tables in a single paged file.
#[derive(Debug)]
pub struct GraphDb {
    pool: BufferPool,
    layers: Vec<LayerTable>,
    path: PathBuf,
    /// Sequence number of the last committed checkpoint (see
    /// [`Catalog::checkpoint_seq`]); the next flush writes `seq + 1`.
    checkpoint_seq: u64,
}

impl GraphDb {
    /// Create a new database file (truncates any existing file, including
    /// any stale WAL).
    pub fn create(path: &Path) -> Result<Self> {
        Self::create_with_cache(path, DEFAULT_CACHE_PAGES)
    }

    /// Create with an explicit buffer-pool size in pages.
    pub fn create_with_cache(path: &Path, cache_pages: usize) -> Result<Self> {
        wal::remove(path)?;
        let pool = BufferPool::new(Pager::create(path)?, cache_pages);
        Ok(GraphDb {
            pool,
            layers: Vec::new(),
            path: path.to_path_buf(),
            checkpoint_seq: 0,
        })
    }

    /// Open an existing database, replaying a committed WAL checkpoint if
    /// a crash interrupted the previous flush.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_with_cache(path, DEFAULT_CACHE_PAGES)
    }

    /// Open with an explicit buffer-pool size in pages.
    pub fn open_with_cache(path: &Path, cache_pages: usize) -> Result<Self> {
        Self::recover(path)?;
        let pool = BufferPool::new(Pager::open(path)?, cache_pages);
        let catalog = Catalog::decode(&pool.header_user_bytes())?;
        let mut layers = Vec::with_capacity(catalog.layers.len());
        for meta in &catalog.layers {
            layers.push(LayerTable::open(&pool, meta)?);
        }
        Ok(GraphDb {
            pool,
            layers,
            path: path.to_path_buf(),
            checkpoint_seq: catalog.checkpoint_seq,
        })
    }

    /// Apply a committed WAL checkpoint to the database file (crash
    /// recovery). Torn WALs are discarded by `wal::read_checkpoint`.
    fn recover(path: &Path) -> Result<()> {
        let Some(cp) = wal::read_checkpoint(path)? else {
            return Ok(());
        };
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(cp.header.bytes())?;
        for (pid, page) in &cp.pages {
            file.seek(SeekFrom::Start(pid.offset()))?;
            file.write_all(page.bytes())?;
        }
        file.sync_all()?;
        drop(file);
        if cp.seq > 0 {
            // Keep replayed v2 checkpoints as replication history (the
            // follower apply path recovers shipped WALs), same as flush.
            wal::archive(path, cp.seq)?;
            wal::retain_archives(path, WAL_KEEP_ARCHIVES)?;
            Ok(())
        } else {
            wal::remove(path)
        }
    }

    /// The shared buffer pool (layer-table methods take it explicitly).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Path of the backing database file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Sequence number of the last committed checkpoint (0 = never
    /// flushed). Replication uses this as the shipping position.
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// Number of layers (abstraction levels).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Layer by index (0 = the full graph, higher = more abstract).
    pub fn layer(&self, idx: usize) -> Option<&LayerTable> {
        self.layers.get(idx)
    }

    /// Mutable layer by index (edit operations).
    pub fn layer_mut(&mut self, idx: usize) -> Option<&mut LayerTable> {
        self.layers.get_mut(idx)
    }

    /// Layer by name.
    pub fn layer_by_name(&self, name: &str) -> Option<&LayerTable> {
        self.layers.iter().find(|l| l.name() == name)
    }

    /// Bulk-build and register a new layer.
    pub fn create_layer(
        &mut self,
        name: impl Into<String>,
        rows: impl IntoIterator<Item = EdgeRow>,
    ) -> Result<usize> {
        let name = name.into();
        if self.layers.iter().any(|l| l.name() == name) {
            return Err(StorageError::LayerExists(name));
        }
        let table = LayerTable::bulk_build(&self.pool, name, rows)?;
        self.layers.push(table);
        Ok(self.layers.len() - 1)
    }

    /// Edit path: insert a row into layer `idx`. Splits the pool/layer
    /// borrow so callers don't have to.
    pub fn insert_row(&mut self, idx: usize, row: &EdgeRow) -> Result<crate::heap::RowId> {
        let pool = &self.pool;
        let layer = self
            .layers
            .get_mut(idx)
            .ok_or_else(|| StorageError::LayerNotFound(format!("index {idx}")))?;
        layer.insert_row(pool, row)
    }

    /// Edit path: delete a row from layer `idx`.
    pub fn delete_row(&mut self, idx: usize, rid: crate::heap::RowId) -> Result<()> {
        let pool = &self.pool;
        let layer = self
            .layers
            .get_mut(idx)
            .ok_or_else(|| StorageError::LayerNotFound(format!("index {idx}")))?;
        layer.delete_row(pool, rid)
    }

    /// Persist every layer's indexes, the catalog, and all dirty pages —
    /// atomically, via a WAL checkpoint: the dirty page set and header are
    /// journaled and fsynced before the database file is touched, so a
    /// crash at any point leaves either the previous or the new checkpoint.
    /// Returns the number of dirty pages written back.
    pub fn flush(&mut self) -> Result<usize> {
        self.flush_with_meta(&[])
    }

    /// [`GraphDb::flush`] carrying an opaque metadata blob in the
    /// checkpoint (the core layer records flush-time per-layer epochs so a
    /// shipped checkpoint doubles as a replication position). Each flush
    /// advances the checkpoint sequence number, archives the applied WAL
    /// as `<db>.wal.<seq>` for followers to fetch, and prunes archives
    /// beyond [`WAL_KEEP_ARCHIVES`].
    pub fn flush_with_meta(&mut self, meta: &[u8]) -> Result<usize> {
        let seq = self.checkpoint_seq + 1;
        let mut catalog = Catalog {
            checkpoint_seq: seq,
            layers: Vec::with_capacity(self.layers.len()),
        };
        for layer in &mut self.layers {
            catalog.layers.push(layer.save(&self.pool)?);
        }
        self.pool.set_header_user_bytes(&catalog.encode());
        let (header, pages) = self.pool.checkpoint_images();
        wal::write_checkpoint_seq(&self.path, seq, meta, &header, &pages)?;
        let flushed = self.pool.flush()?;
        // The checkpoint is applied; keep it as replication history
        // instead of deleting it. The active WAL is gone either way.
        wal::archive(&self.path, seq)?;
        wal::retain_archives(&self.path, WAL_KEEP_ARCHIVES)?;
        self.checkpoint_seq = seq;
        Ok(flushed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EdgeGeometry;
    use gvdb_spatial::Rect;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gvdb-db-{name}-{}", std::process::id()));
        p
    }

    fn rows(n: u64, offset: f64) -> Vec<EdgeRow> {
        (0..n)
            .map(|i| EdgeRow {
                node1_id: i,
                node1_label: format!("entity {i}").into(),
                geometry: EdgeGeometry {
                    x1: offset + i as f64,
                    y1: offset,
                    x2: offset + i as f64 + 1.0,
                    y2: offset + 1.0,
                    directed: false,
                },
                edge_label: "related".into(),
                node2_id: i + 1,
                node2_label: format!("entity {}", i + 1).into(),
            })
            .collect()
    }

    #[test]
    fn multi_layer_create_flush_reopen() {
        let path = tmp("multilayer");
        {
            let mut db = GraphDb::create(&path).unwrap();
            db.create_layer("layer0", rows(500, 0.0)).unwrap();
            db.create_layer("layer1", rows(100, 0.0)).unwrap();
            db.create_layer("layer2", rows(20, 0.0)).unwrap();
            db.flush().unwrap();
        }
        {
            let db = GraphDb::open(&path).unwrap();
            assert_eq!(db.layer_count(), 3);
            assert_eq!(db.layer(0).unwrap().row_count(), 500);
            assert_eq!(db.layer_by_name("layer2").unwrap().row_count(), 20);
            // Windows per layer return layer-local data.
            let w = Rect::new(0.0, 0.0, 10.0, 2.0);
            let l0 = db.layer(0).unwrap().window(db.pool(), &w).unwrap();
            let l2 = db.layer(2).unwrap().window(db.pool(), &w).unwrap();
            assert!(l0.len() >= l2.len());
            assert!(!l2.is_empty());
        }
        wal::remove_database(&path).ok();
    }

    #[test]
    fn duplicate_layer_name_rejected() {
        let path = tmp("dup");
        let mut db = GraphDb::create(&path).unwrap();
        db.create_layer("layer0", rows(5, 0.0)).unwrap();
        assert!(matches!(
            db.create_layer("layer0", rows(5, 0.0)),
            Err(StorageError::LayerExists(_))
        ));
        wal::remove_database(&path).ok();
    }

    #[test]
    fn edits_survive_flush_cycles() {
        let path = tmp("editcycle");
        {
            let mut db = GraphDb::create(&path).unwrap();
            db.create_layer("layer0", rows(50, 0.0)).unwrap();
            db.flush().unwrap();
        }
        {
            let mut db = GraphDb::open(&path).unwrap();
            assert_eq!(db.layer(0).unwrap().row_count(), 50);
            let new_row = rows(1, 10_000.0).pop().unwrap();
            db.insert_row(0, &new_row).unwrap();
            db.flush().unwrap();
        }
        {
            let db = GraphDb::open(&path).unwrap();
            assert_eq!(db.layer(0).unwrap().row_count(), 51);
        }
        wal::remove_database(&path).ok();
    }

    #[test]
    fn flush_advances_seq_and_archives_checkpoints() {
        let path = tmp("seq");
        {
            let mut db = GraphDb::create(&path).unwrap();
            db.create_layer("layer0", rows(10, 0.0)).unwrap();
            assert_eq!(db.checkpoint_seq(), 0);
            db.flush().unwrap();
            assert_eq!(db.checkpoint_seq(), 1);
            db.flush().unwrap();
            assert_eq!(db.checkpoint_seq(), 2);
        }
        {
            // The seq is durable (catalog v3) and the applied WALs are
            // archived for followers.
            let db = GraphDb::open(&path).unwrap();
            assert_eq!(db.checkpoint_seq(), 2);
            assert_eq!(wal::list_archives(&path).unwrap(), vec![1, 2]);
        }
        wal::remove_database(&path).ok();
    }

    #[test]
    fn empty_database_flush_reopen() {
        let path = tmp("empty");
        {
            let mut db = GraphDb::create(&path).unwrap();
            db.flush().unwrap();
        }
        let db = GraphDb::open(&path).unwrap();
        assert_eq!(db.layer_count(), 0);
        wal::remove_database(&path).ok();
    }
}
