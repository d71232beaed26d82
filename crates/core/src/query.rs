//! The Query Manager: translates client operations into index lookups and
//! measures each stage the way Fig. 3 reports them.
//!
//! * **DB Query Execution** — R-tree window lookup + heap fetch.
//! * **Build JSON Objects** — serializing the sub-graph for the client.
//! * **Communication + Rendering** — the simulated client pipeline.
//!
//! A sharded LRU [`crate::cache::WindowCache`] fronts
//! [`QueryManager::window_query`] at two levels:
//!
//! * an **exact hit** — the same `(layer, window)` again — is served
//!   whole from memory ([`WindowResponse::cache_hit`]);
//! * a **partial hit** — a pan/zoom window overlapping a cached one —
//!   runs the *delta path* ([`WindowResponse::delta`]): the R-tree is
//!   descended only over the up-to-four strips of window not covered by
//!   the cached anchor ([`gvdb_spatial::Rect::difference`]), departed
//!   rows are dropped from the cached result, arriving rows are fetched
//!   with one buffer-pool pin per heap page
//!   (`gvdb_storage::LayerTable::fetch_many`), and the payload is spliced
//!   incrementally ([`GraphJson::splice`]) instead of rebuilt.
//!   [`WindowResponse::rows_reused`] / [`WindowResponse::rows_fetched`]
//!   report the split.
//!
//! ## Shared edits and epochs
//!
//! The manager is **shared for writes too**: edits go through the
//! layer-aware [`QueryManager::insert_row`] / [`QueryManager::delete_row`]
//! (both `&self`), which take the internal [`RwLock`]'s write guard,
//! mutate the database, bump the layer's monotonically increasing **edit
//! epoch** and invalidate that layer's cached windows. Readers take the
//! read guard — so N window queries run concurrently with each other and
//! are serialized only against an in-flight edit. Every response records
//! the epoch it is consistent with ([`WindowResponse::epoch`]), and every
//! cache entry records the epoch its rows were read at; a lookup only
//! serves an entry whose epoch matches the layer's current one, so a
//! racing edit can never be masked by a stale cached or delta-merged
//! window. Raw access through [`QueryManager::db_mut`] (exclusive `&mut`)
//! or [`QueryManager::edit_db`] (shared, write-locked) cannot know the
//! target layer and therefore bumps every epoch and clears the whole
//! cache.

use crate::cache::{CacheConfig, CacheShardStats, CacheStats, CachedWindow, WindowCache};
use crate::client::{ClientCost, ClientModel};
use crate::filter::{aggregate_rows, choose_access, AccessPath, CompiledFilter, FilterMode};
use crate::json::{build_graph_json, GraphJson, GraphJsonBuilder};
use crate::registry::SessionRegistry;
use gvdb_api::{AggOp, AggregateDto, Predicate};
use gvdb_spatial::{Point, Rect};
use gvdb_storage::{EdgeRow, GraphDb, LayerTable, PoolStats, Result, RowId, StorageError};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The read guard handed out by [`QueryManager::db`]. Holding it keeps
/// edits out; drop it promptly.
pub type DbReadGuard<'a> = parking_lot::RwLockReadGuard<'a, GraphDb>;

/// Minimum fraction of a requested window that a cached window must cover
/// for the delta path to engage. Below this the strips are so large that
/// a cold query is as cheap, and the overlap bookkeeping pure overhead;
/// typical interactive pans overlap 80–95%.
pub const MIN_DELTA_OVERLAP: f64 = 0.35;

/// One measured window query, stage by stage.
///
/// `rows` and `json` are `Arc`s shared with the window cache: a cache hit
/// costs two reference-count bumps, not a payload copy. Mutating
/// consumers (session filters) use `Arc::make_mut` for copy-on-write.
#[derive(Debug)]
pub struct WindowResponse {
    /// The rows in the window.
    pub rows: Arc<Vec<(RowId, EdgeRow)>>,
    /// The client payload.
    pub json: Arc<GraphJson>,
    /// DB query execution time (ms). Zero on a cache hit.
    pub db_ms: f64,
    /// JSON building time (ms). Zero on a cache hit.
    pub build_json_ms: f64,
    /// Cache lookup time (ms); on a hit this replaces `db_ms` +
    /// `build_json_ms` as the server-side cost.
    pub cache_ms: f64,
    /// The edit epoch of the queried layer this response is consistent
    /// with: the rows reflect exactly the edits applied before the epoch
    /// reached this value, and none after (see
    /// [`QueryManager::layer_epoch`]).
    pub epoch: u64,
    /// Whether this response was served whole from the window cache.
    pub cache_hit: bool,
    /// Whether this response was assembled by the delta path: an
    /// overlapping cached window supplied the kept region and only the
    /// delta strips touched the index and heap.
    pub delta: bool,
    /// Rows taken from the overlapping cached window (or the whole
    /// result on an exact cache hit). Zero on a cold query.
    pub rows_reused: usize,
    /// Rows fetched from the heap for this response. The R-tree returns
    /// only rows whose edge crosses the window, so every fetched row is a
    /// true one: on a cold query this is the row count (before any
    /// predicate), and on the delta path it counts the true arrivals.
    pub rows_fetched: usize,
    /// On the delta path, the [`RowId`]s of the rows that actually
    /// *arrived* (fetched from the heap and kept), ascending. Empty for
    /// cold queries and cache hits. The streaming path uses this to tag
    /// each sliced frame's `reused` flag: a frame whose edge-id range
    /// contains no arrival is pure kept region and can repaint without
    /// waiting for the strips.
    pub arrival_rids: Vec<RowId>,
    /// Simulated communication + rendering cost.
    pub client: ClientCost,
}

impl WindowResponse {
    /// Total response time (ms): the Fig. 3 "Total Time" series.
    pub fn total_ms(&self) -> f64 {
        self.db_ms + self.build_json_ms + self.cache_ms + self.client.comm_render_ms
    }

    /// Server-side time only (ms): everything except the simulated
    /// client. This is the quantity the window cache shrinks.
    pub fn server_ms(&self) -> f64 {
        self.db_ms + self.build_json_ms + self.cache_ms
    }
}

/// A keyword-search hit: node id, label and plane position.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Node id within the queried layer.
    pub node_id: u64,
    /// Node label.
    pub label: gvdb_storage::Label,
    /// Position on the plane (used to focus the window).
    pub position: Point,
}

/// One window request as the planner sees it: the layer and rectangle,
/// the delta anchor, an optional pushdown predicate (with the chooser
/// mode) and an optional rid-range restriction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowSpec<'p> {
    pub layer: usize,
    pub rect: Rect,
    /// The session's previous window, preferred as the delta base.
    pub anchor: Option<Rect>,
    pub predicate: Option<&'p Predicate>,
    pub mode: FilterMode,
    /// Only rows whose [`RowId`] falls in `lo..=hi` (the router's
    /// fan-out primitive). Bypasses the cache in both directions.
    pub rid_range: Option<(u64, u64)>,
}

impl WindowSpec<'_> {
    /// A plain window: no anchor, predicate or rid range.
    pub fn new(layer: usize, rect: Rect) -> Self {
        WindowSpec {
            layer,
            rect,
            anchor: None,
            predicate: None,
            mode: FilterMode::Auto,
            rid_range: None,
        }
    }
}

/// How a window query will be produced — what the planner hands back.
/// Streaming emits it ([`StreamPlan::Built`] sliced by span index,
/// [`StreamPlan::Cold`] chunk by chunk); a buffered query drains it.
pub enum StreamPlan<'a> {
    /// The payload already exists (exact cache hit, or a delta splice
    /// that just ran): slice the frames out of it by span index.
    Built(WindowResponse),
    /// Cold window: nothing is built yet. Drive
    /// [`ColdWindowStream::next_chunk`] to fetch + serialize
    /// chunk-at-a-time, then [`ColdWindowStream::finish`]. Boxed: the
    /// stream state (chunk cursor + compiled filter) dwarfs the `Built`
    /// variant, and the cold path is about to do I/O anyway.
    Cold(Box<ColdWindowStream<'a>>),
}

impl StreamPlan<'_> {
    /// The buffered response: `Built` as-is; `Cold` fetched in one batch,
    /// built once and cached, all under the read guard it was planned
    /// under, so the response is exact at its epoch.
    pub(crate) fn drain(self) -> Result<WindowResponse> {
        match self {
            StreamPlan::Built(response) => Ok(response),
            StreamPlan::Cold(cold) => cold.drain(),
        }
    }
}

/// A cold window query, planned and ready to fetch.
///
/// The planner ran the candidate selection (R-tree descent, chooser or
/// rid range) and snapshotted the layer epoch under the database read
/// guard, which the stream still holds. A buffered query drains it under
/// that guard. A stream releases it before its first frame; each
/// [`ColdWindowStream::next_chunk`] call then re-acquires the guard just
/// long enough to **validate the epoch** and batch-fetch one chunk of
/// candidates (page-sorted pinning via `LayerTable::fetch_many`), and
/// serializes the chunk *after dropping the guard* — so the caller emits
/// every frame with no lock held and a slow client never blocks a writer.
///
/// A racing edit flips the stream to lame-duck mode rather than
/// aborting: remaining chunks still stream (an insert never moves
/// existing rows), the result is **not** cached, and the caller's
/// trailer re-samples the epoch so the client sees
/// `trailer.epoch > header.epoch` — the existing staleness contract. If
/// a fetch fails *after* the epoch moved (e.g. a candidate row was
/// deleted), the stream ends early by the same contract instead of
/// erroring.
pub struct ColdWindowStream<'a> {
    qm: &'a QueryManager,
    /// The read guard the plan was made under, until released.
    pin: Option<DbReadGuard<'a>>,
    layer: usize,
    window: Rect,
    epoch: u64,
    candidates: Vec<RowId>,
    /// Whether the candidates came from the R-tree, whose leaves already
    /// ran the exact segment test. Secondary-index candidates
    /// ([`AccessPath::Index`]) are not spatial: for them the window test
    /// is part of the residual filter.
    exact: bool,
    pos: usize,
    builder: GraphJsonBuilder,
    rows: Vec<(RowId, EdgeRow)>,
    epoch_valid: bool,
    /// Pushdown predicate: applied while chunks are kept or dropped, so
    /// filtered-out rows never reach the serializer.
    filter: Option<CompiledFilter>,
    /// Whether the result may seed the window cache: only whole,
    /// unfiltered windows may. Filtered and rid-range results must never
    /// masquerade as the whole answer.
    cacheable: bool,
    /// Candidate selection time (ms), part of a drained response's `db_ms`.
    plan_ms: f64,
    /// Cache probe time (ms) spent before the window was found cold.
    cache_ms: f64,
}

/// What a fully drained [`ColdWindowStream`] streamed, for the trailer.
pub struct ColdStreamSummary {
    /// Rows streamed (candidates that survived the predicate, or the
    /// window test for index-path candidates).
    pub rows: usize,
    /// Candidates fetched from the heap (the cold `rows_fetched` stat).
    pub rows_fetched: usize,
}

impl<'a> ColdWindowStream<'a> {
    /// The epoch snapshotted at plan time — what the stream header
    /// advertises.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Candidate rows the stream will fetch. R-tree candidates are exact,
    /// so for an unfiltered window this is the number of rows the stream
    /// will emit; a predicate can only shrink it. The stream header
    /// carries this as its row total.
    pub fn candidate_rows(&self) -> usize {
        self.candidates.len()
    }

    /// Every row emitted so far, in emission order. A frame returned by
    /// [`ColdWindowStream::next_chunk`] covers `edge_range` indexes of
    /// this slice.
    pub fn rows_so_far(&self) -> &[(RowId, EdgeRow)] {
        &self.rows
    }

    /// Release the planning read guard. A stream calls this before its
    /// first frame, so no lock is held while a frame is emitted.
    pub(crate) fn unpin(&mut self) {
        self.pin = None;
    }

    /// Whether a fetched row belongs in the result: the window test (for
    /// index-path candidates) and the predicate.
    fn keeps(&self, row: &EdgeRow) -> bool {
        in_window(row, &self.window, self.exact)
            && self.filter.as_ref().is_none_or(|f| f.matches_row(row))
    }

    /// Fetch and serialize the next non-empty chunk: at most
    /// `chunk_rows` candidates are heap-fetched under the read guard,
    /// filtered, and appended to the incremental payload; the returned
    /// frame slices exactly the appended rows. The first frame takes a
    /// quarter chunk, so the first rows leave after a short fetch.
    /// `None` once every candidate has been consumed. Chunks whose
    /// candidates all fail the filter are skipped, so a returned frame
    /// always carries at least one edge. With `packed` the frame is the
    /// packed image of the same rows.
    pub fn next_chunk(
        &mut self,
        chunk_rows: usize,
        packed: bool,
    ) -> Result<Option<crate::json::GraphFrame>> {
        // Re-acquiring below while still pinned could deadlock behind a
        // queued writer.
        self.unpin();
        while self.pos < self.candidates.len() {
            let chunk = if self.rows.is_empty() {
                chunk_rows / 4
            } else {
                chunk_rows
            }
            .max(1);
            let end = (self.pos + chunk).min(self.candidates.len());
            let slice = &self.candidates[self.pos..end];
            let db = self.qm.db.read();
            if self.qm.layer_epoch(self.layer) != self.epoch {
                self.epoch_valid = false;
            }
            let table = db
                .layer(self.layer)
                .ok_or_else(|| StorageError::LayerNotFound(format!("index {}", self.layer)))?;
            let fetched = match table.fetch_many(db.pool(), slice) {
                Ok(rows) => rows,
                Err(_) if !self.epoch_valid => {
                    // The edit that moved the epoch invalidated these
                    // candidates; end the stream, the trailer epoch
                    // tells the client to re-query.
                    self.pos = self.candidates.len();
                    return Ok(None);
                }
                Err(e) => return Err(e),
            };
            drop(db);
            self.pos = end;
            let mut kept: Vec<(RowId, EdgeRow)> = fetched
                .into_iter()
                .filter(|(_, row)| self.keeps(row))
                .collect();
            if kept.is_empty() {
                continue;
            }
            self.builder.push_rows(&kept);
            self.rows.append(&mut kept);
            let frame = self
                .builder
                .take_frame(packed.then_some(self.rows.as_slice()));
            return Ok(Some(frame.expect("non-empty chunk")));
        }
        Ok(None)
    }

    /// Finalize the stream: assemble the full payload from the chunks
    /// already serialized (no second pass) and — when no edit raced the
    /// stream — seed the window cache exactly like a buffered cold query,
    /// so the *next* request for this window is a hit or a delta base.
    /// Returns the trailer counts.
    pub fn finish(self) -> ColdStreamSummary {
        let summary = ColdStreamSummary {
            rows: self.rows.len(),
            rows_fetched: self.candidates.len(),
        };
        if self.cacheable && self.epoch_valid {
            let json = Arc::new(self.builder.finish());
            self.qm.seed_cache(
                self.layer,
                &self.window,
                self.epoch,
                Arc::new(self.rows),
                json,
            );
        }
        summary
    }

    /// Fetch every candidate in one batch under the planning guard and
    /// keep the rows [`ColdWindowStream::keeps`]. Returns the guard too,
    /// so the caller can finish its work under it.
    fn fetch_pinned(&mut self) -> Result<(DbReadGuard<'a>, Vec<(RowId, EdgeRow)>)> {
        let db = self
            .pin
            .take()
            .expect("a cold plan is drained under its planning guard");
        let table = db
            .layer(self.layer)
            .ok_or_else(|| StorageError::LayerNotFound(format!("index {}", self.layer)))?;
        let mut rows = table.fetch_many(db.pool(), &self.candidates)?;
        rows.retain(|(_, row)| self.keeps(row));
        Ok((db, rows))
    }

    /// The buffered form of the cold path: one batched fetch, one payload
    /// build, and the same cache seeding as
    /// [`ColdWindowStream::finish`], all under the planning guard.
    fn drain(mut self) -> Result<WindowResponse> {
        let t = Instant::now();
        let (_db, rows) = self.fetch_pinned()?;
        let rows = Arc::new(rows);
        let db_ms = self.plan_ms + t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        self.builder.push_rows(&rows);
        let json = Arc::new(self.builder.finish());
        let build_json_ms = t.elapsed().as_secs_f64() * 1e3;
        if self.cacheable {
            self.qm.seed_cache(
                self.layer,
                &self.window,
                self.epoch,
                rows.clone(),
                json.clone(),
            );
        }
        let client = self.qm.client.deliver(&json);
        Ok(WindowResponse {
            rows,
            json,
            db_ms,
            build_json_ms,
            cache_ms: self.cache_ms,
            epoch: self.epoch,
            cache_hit: false,
            delta: false,
            rows_reused: 0,
            rows_fetched: self.candidates.len(),
            arrival_rids: Vec::new(),
            client,
        })
    }
}

/// The server-side query engine over a preprocessed database.
///
/// Shared by reference between any number of reader threads *and*
/// writers: reads take the internal lock's read guard, edits its write
/// guard (see the module docs for the epoch protocol).
#[derive(Debug)]
pub struct QueryManager {
    db: RwLock<GraphDb>,
    /// Per-layer edit epochs. Grown on demand; guarded by its own tiny
    /// lock, always acquired *after* `db` (readers: `db.read()` then
    /// `epochs.read()`; writers: `db.write()` then `epochs.write()`), so
    /// the pair can never deadlock.
    epochs: RwLock<Vec<u64>>,
    client: ClientModel,
    cache: WindowCache,
    /// Registered client sessions (delta-pan anchoring over stateless
    /// protocols). Owned per manager, so a multi-dataset workspace gets
    /// per-dataset session registries for free.
    sessions: SessionRegistry,
    /// Access-path chooser decisions: cold filtered windows served
    /// through a secondary index…
    chooser_index: AtomicU64,
    /// …and through scan-and-filter (`/v1/stats` reports the split).
    chooser_scan: AtomicU64,
    /// Per-layer epochs sampled inside the last flush (under the `db`
    /// write lock, so exactly consistent with the checkpoint written).
    /// These ride in the checkpoint's metadata blob and are what a
    /// leader advertises as the replication position of that
    /// checkpoint. Empty until the first flush of this process.
    last_flush_epochs: RwLock<Vec<u64>>,
}

impl QueryManager {
    /// Wrap a database with the default client model and cache.
    pub fn new(db: GraphDb) -> Self {
        Self::build(db, ClientModel::default(), WindowCache::default())
    }

    /// Wrap with an explicit client model.
    pub fn with_client(db: GraphDb, client: ClientModel) -> Self {
        Self::build(db, client, WindowCache::default())
    }

    /// Wrap with an explicit window-cache configuration. A zero-capacity
    /// configuration is clamped to one entry; to measure the uncached
    /// path, query distinct windows instead.
    pub fn with_cache_config(db: GraphDb, config: CacheConfig) -> Self {
        Self::build(db, ClientModel::default(), WindowCache::new(config))
    }

    fn build(db: GraphDb, client: ClientModel, cache: WindowCache) -> Self {
        let epochs = vec![0u64; db.layer_count()];
        QueryManager {
            db: RwLock::new(db),
            epochs: RwLock::new(epochs),
            client,
            cache,
            sessions: SessionRegistry::new(),
            chooser_index: AtomicU64::new(0),
            chooser_scan: AtomicU64::new(0),
            last_flush_epochs: RwLock::new(Vec::new()),
        }
    }

    /// This manager's session registry (see [`SessionRegistry`]): clients
    /// that want anchored delta pans register here and tag their window
    /// requests with the returned id.
    pub fn sessions(&self) -> &SessionRegistry {
        &self.sessions
    }

    /// Shared read access to the underlying database. The guard blocks
    /// writers while held — take it once per batch of lookups and drop
    /// it, rather than calling `db()` repeatedly in one expression.
    pub fn db(&self) -> DbReadGuard<'_> {
        self.db.read()
    }

    /// Exclusive mutable database access (requires `&mut self`, so no
    /// reader can exist concurrently). Invalidates the **whole** window
    /// cache and bumps **every** layer's epoch — raw access cannot know
    /// which layer will be mutated. Edits that know their layer should go
    /// through [`QueryManager::insert_row`] / [`QueryManager::delete_row`],
    /// which are `&self` and invalidate only that layer.
    pub fn db_mut(&mut self) -> &mut GraphDb {
        self.cache.invalidate_all();
        let db = self.db.get_mut();
        Self::bump_all_epochs(&self.epochs, db.layer_count());
        db
    }

    /// Bump every layer's epoch (growing the table to `layer_count`):
    /// the raw-access invalidation step shared by [`QueryManager::db_mut`]
    /// and [`QueryManager::edit_db`]. Called with exclusive database
    /// access (the `&mut` borrow or the write guard).
    fn bump_all_epochs(epochs: &RwLock<Vec<u64>>, layer_count: usize) {
        let mut epochs = epochs.write();
        let len = epochs.len().max(layer_count);
        epochs.resize(len, 0);
        for e in epochs.iter_mut() {
            *e += 1;
        }
    }

    /// Shared-reference equivalent of [`QueryManager::db_mut`]: run `f`
    /// under the write lock (readers drained and blocked for the
    /// duration), then bump every epoch and clear the cache. Prefer the
    /// layer-scoped edit methods when the mutated layer is known.
    pub fn edit_db<R>(&self, f: impl FnOnce(&mut GraphDb) -> R) -> R {
        let mut db = self.db.write();
        let out = f(&mut db);
        Self::bump_all_epochs(&self.epochs, db.layer_count());
        self.cache.invalidate_all();
        out
    }

    /// Edit path: insert a row into `layer`, invalidating only that
    /// layer's cached windows and bumping only its epoch. Cached windows
    /// of other layers stay warm — each layer is an independent table, so
    /// they can never serve stale rows for this edit. Concurrent readers
    /// are blocked only for the duration of the row insert itself.
    ///
    /// A node is one object wherever rows name it: a row whose endpoint
    /// reuses a stored node id with another label, or at another
    /// position in its canonical wire form, is
    /// [`StorageError::InvalidRow`] and nothing is written. Delta
    /// splices keep a node's first fragment and packed frames read a
    /// node off any row naming it, so both rely on this.
    pub fn insert_row(&self, layer: usize, row: &EdgeRow) -> Result<RowId> {
        let mut db = self.db.write();
        check_node_identity(&db, layer, row)?;
        let rid = db.insert_row(layer, row)?;
        self.bump_epoch(layer);
        self.cache.invalidate_layer(layer);
        Ok(rid)
    }

    /// Edit path: delete a row from `layer`, invalidating only that
    /// layer's cached windows (see [`QueryManager::insert_row`]).
    pub fn delete_row(&self, layer: usize, rid: RowId) -> Result<()> {
        let mut db = self.db.write();
        db.delete_row(layer, rid)?;
        self.bump_epoch(layer);
        self.cache.invalidate_layer(layer);
        Ok(())
    }

    /// The current edit epoch of `layer`: incremented once per completed
    /// edit on that layer (never-edited layers are at 0). A
    /// [`WindowResponse`] whose [`WindowResponse::epoch`] equals this
    /// value is consistent with the layer's latest state.
    pub fn layer_epoch(&self, layer: usize) -> u64 {
        self.epochs.read().get(layer).copied().unwrap_or(0)
    }

    /// Increment `layer`'s epoch (called with the `db` write guard held).
    fn bump_epoch(&self, layer: usize) {
        let mut epochs = self.epochs.write();
        if layer >= epochs.len() {
            epochs.resize(layer + 1, 0);
        }
        epochs[layer] += 1;
    }

    /// Durability hook: checkpoint and fsync the database to disk (the
    /// `/v1/flush` operation), returning the number of dirty pages
    /// written back. Takes the write lock for the duration — readers
    /// drain first and queue behind — but bumps **no** epoch and clears
    /// **no** cache: a flush persists already-applied edits without
    /// changing any visible row, so every cached window stays exact.
    ///
    /// The per-layer epochs are sampled under the same write lock and
    /// written into the checkpoint's metadata blob, so the checkpoint
    /// carries its exact replication position: a follower that applies
    /// it sets its epochs to these values and its answers become
    /// bounded-staleness — every row consistent with exactly
    /// `1..=epoch` of the leader's edits per layer.
    pub fn flush(&self) -> Result<usize> {
        let mut db = self.db.write();
        let mut epochs = self.epochs.read().clone();
        if epochs.len() < db.layer_count() {
            epochs.resize(db.layer_count(), 0);
        }
        let flushed = db.flush_with_meta(&encode_epoch_meta(&epochs))?;
        *self.last_flush_epochs.write() = epochs;
        Ok(flushed)
    }

    /// Consistent full-database snapshot for replication resync:
    /// checkpoint and read back the database file under **one** hold of
    /// the write lock, so the returned bytes are exactly the committed
    /// state of the returned `(seq, epochs)` — concurrent edits (whose
    /// evicted dirty pages would otherwise tear a plain file read) are
    /// fenced out for the duration. Returns `(seq, epochs, bytes)`.
    pub fn snapshot_bytes(&self) -> Result<(u64, Vec<u64>, Vec<u8>)> {
        let mut db = self.db.write();
        let mut epochs = self.epochs.read().clone();
        if epochs.len() < db.layer_count() {
            epochs.resize(db.layer_count(), 0);
        }
        db.flush_with_meta(&encode_epoch_meta(&epochs))?;
        *self.last_flush_epochs.write() = epochs.clone();
        let bytes = std::fs::read(db.path())?;
        Ok((db.checkpoint_seq(), epochs, bytes))
    }

    /// Sequence number of the last committed checkpoint (the leader's
    /// shipping position; 0 = never flushed).
    pub fn checkpoint_seq(&self) -> u64 {
        self.db.read().checkpoint_seq()
    }

    /// Path of the backing database file (what the replication layer
    /// reads checkpoint archives and snapshots from).
    pub fn db_path(&self) -> std::path::PathBuf {
        self.db.read().path().to_path_buf()
    }

    /// The per-layer epochs recorded by the last [`QueryManager::flush`]
    /// of this process (empty before the first). These — not the live
    /// epochs — are the replication position of the durable state.
    pub fn last_flush_epochs(&self) -> Vec<u64> {
        self.last_flush_epochs.read().clone()
    }

    /// Overwrite every layer's epoch with `values` and drop the whole
    /// window cache. The follower apply path: shipped checkpoints carry
    /// the leader's flush-time epochs, and a replica *sets* (never
    /// bumps) its epochs so they are positions in the leader's edit
    /// history — the trailer-epoch contract then reports exactly how
    /// stale a replica's answer is.
    pub fn set_epochs(&self, values: &[u64]) {
        {
            let mut epochs = self.epochs.write();
            epochs.clear();
            epochs.extend_from_slice(values);
        }
        self.cache.invalidate_all();
    }

    /// Apply a shipped checkpoint image atomically: CRC-verify and
    /// decode it, write it as the local **active WAL**, and reopen the
    /// database in place — the ordinary crash-recovery path replays the
    /// committed checkpoint, and a crash anywhere in between leaves a
    /// torn WAL that the next open discards (the previous complete
    /// checkpoint keeps being served). On success the layer epochs are
    /// set to the leader's flush-time values from the checkpoint
    /// metadata and the window cache is dropped. Returns the applied
    /// checkpoint seq.
    pub fn apply_checkpoint(&self, bytes: &[u8]) -> Result<u64> {
        let cp = gvdb_storage::wal::decode_checkpoint(bytes)
            .ok_or_else(|| StorageError::Corrupt("shipped checkpoint torn or corrupt".into()))?;
        let epochs = decode_epoch_meta(&cp.meta);
        let mut db = self.db.write();
        let path = db.path().to_path_buf();
        let cache_pages = db.pool().capacity();
        gvdb_storage::wal::write_shipped(&path, bytes)?;
        *db = GraphDb::open_with_cache(&path, cache_pages)?;
        let seq = db.checkpoint_seq();
        {
            // Lock order db-then-epochs, same as every writer.
            let mut e = self.epochs.write();
            e.clear();
            e.extend_from_slice(&epochs);
            let want = e.len().max(db.layer_count());
            e.resize(want, 0);
        }
        self.cache.invalidate_all();
        drop(db);
        Ok(seq)
    }

    /// Full resync: replace the backing database file with a shipped
    /// snapshot and reopen, setting the epochs to the leader's
    /// flush-time values. The write lock fences out every reader for
    /// the duration. Returns the snapshot's checkpoint seq.
    pub fn replace_db_file(&self, bytes: &[u8], epochs: &[u64]) -> Result<u64> {
        let mut db = self.db.write();
        let path = db.path().to_path_buf();
        let cache_pages = db.pool().capacity();
        std::fs::write(&path, bytes)?;
        gvdb_storage::wal::remove(&path)?;
        *db = GraphDb::open_with_cache(&path, cache_pages)?;
        let seq = db.checkpoint_seq();
        {
            let mut e = self.epochs.write();
            e.clear();
            e.extend_from_slice(epochs);
            let want = e.len().max(db.layer_count());
            e.resize(want, 0);
        }
        self.cache.invalidate_all();
        drop(db);
        Ok(seq)
    }

    /// Window-cache hit/miss/occupancy counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Per-shard window-cache occupancy (see
    /// [`WindowCache::shard_stats`]).
    pub fn cache_shard_stats(&self) -> Vec<CacheShardStats> {
        self.cache.shard_stats()
    }

    /// Buffer-pool counters (page pins served from memory vs disk) —
    /// difference two snapshots around a query to see what it cost in
    /// page accesses.
    pub fn pool_stats(&self) -> PoolStats {
        self.db.read().pool().stats().snapshot()
    }

    /// Per-shard buffer-pool counters (index = pool shard); sums to
    /// [`QueryManager::pool_stats`].
    pub fn pool_shard_stats(&self) -> Vec<PoolStats> {
        self.db.read().pool().shard_stats()
    }

    /// The client cost model responses are priced with.
    pub fn client_model(&self) -> &ClientModel {
        &self.client
    }

    /// Number of abstraction layers.
    pub fn layer_count(&self) -> usize {
        self.db.read().layer_count()
    }

    /// Every layer's current edit epoch (length = layer count; layers
    /// never edited report 0). On a replica these are the applied
    /// replication position — see [`QueryManager::set_epochs`].
    pub fn epochs(&self) -> Vec<u64> {
        let count = self.db.read().layer_count();
        let epochs = self.epochs.read();
        (0..count.max(epochs.len()))
            .map(|i| epochs.get(i).copied().unwrap_or(0))
            .collect()
    }

    /// Interactive navigation: evaluate a window query on `layer` and
    /// measure every stage. Repeated queries for the same `(layer,
    /// window)` are served whole from the sharded LRU cache; windows
    /// overlapping a cached one by at least [`MIN_DELTA_OVERLAP`] run the
    /// delta path (see [`QueryManager::window_query_anchored`]).
    pub fn window_query(&self, layer: usize, window: &Rect) -> Result<WindowResponse> {
        self.window_query_anchored(layer, window, None)
    }

    /// [`QueryManager::window_query`] with an explicit delta anchor: a
    /// session that just panned or zoomed passes its *previous* window,
    /// and if that exact window is still cached with enough overlap it is
    /// used as the delta base without scanning the cache for overlap
    /// candidates. Without an anchor (or when the anchor is gone or
    /// barely overlaps) the cache is scanned for the best overlapping
    /// entry instead, so anonymous repeat traffic gets the same benefit.
    pub fn window_query_anchored(
        &self,
        layer: usize,
        window: &Rect,
        anchor: Option<&Rect>,
    ) -> Result<WindowResponse> {
        self.window_plan(&WindowSpec {
            anchor: anchor.copied(),
            ..WindowSpec::new(layer, *window)
        })?
        .drain()
    }

    /// [`QueryManager::window_query_anchored`] with a pushdown
    /// predicate. The cache stays **unfiltered**: an exact hit or a
    /// delta splice produces the unfiltered window first (sharing or
    /// seeding cache entries exactly like the plain path), then the
    /// predicate drops rows before the payload is built; a cold window
    /// goes through the access-path chooser ([`crate::filter`]) and is
    /// not cached at all. The response's `rows`/`json` hold only the
    /// surviving rows.
    pub fn window_query_filtered(
        &self,
        layer: usize,
        window: &Rect,
        anchor: Option<&Rect>,
        pred: &Predicate,
        mode: FilterMode,
    ) -> Result<WindowResponse> {
        self.window_plan(&WindowSpec {
            anchor: anchor.copied(),
            predicate: Some(pred),
            mode,
            ..WindowSpec::new(layer, *window)
        })?
        .drain()
    }

    /// Buffered rid-range window: the rows of `window` whose [`RowId`]
    /// falls in `lo..=hi`, ascending by rid, with the epoch they were
    /// read at. The cold path's candidates and batched fetch, with no
    /// payload built; bypasses the cache in both directions.
    pub fn window_rows_range(
        &self,
        layer: usize,
        window: &Rect,
        lo: u64,
        hi: u64,
    ) -> Result<(u64, Vec<(RowId, EdgeRow)>)> {
        let spec = WindowSpec {
            rid_range: Some((lo, hi)),
            ..WindowSpec::new(layer, *window)
        };
        match self.window_plan(&spec)? {
            StreamPlan::Cold(mut cold) => Ok((cold.epoch, cold.fetch_pinned()?.1)),
            StreamPlan::Built(_) => unreachable!("rid-range windows bypass the cache"),
        }
    }

    /// The window planner behind every window entry point, buffered or
    /// streamed. Under one read guard it resolves the layer, samples the
    /// epoch and probes the cache:
    ///
    /// * an exact hit, or a delta splice off the anchor or the best
    ///   overlapping entry, comes back [`StreamPlan::Built`] — filtered
    ///   on top when the spec has a predicate, since the cache holds
    ///   unfiltered windows only;
    /// * otherwise the window is cold: candidates come from the R-tree,
    ///   or from the access-path chooser under a predicate, restricted to
    ///   the rid range if there is one, and the plan is a
    ///   [`ColdWindowStream`] still holding the read guard.
    ///
    /// Rid-range windows skip the cache probe: a slice must never be
    /// served or stored as the whole window. Candidates are ascending,
    /// so the chunked fetch visits pages in order, and the streams of
    /// adjacent rid ranges concatenate to the unrestricted stream.
    pub(crate) fn window_plan(&self, spec: &WindowSpec<'_>) -> Result<StreamPlan<'_>> {
        let (layer, window) = (spec.layer, &spec.rect);
        let db = self.db.read();
        // Resolve the layer before consulting the cache so an invalid
        // layer is an error, not a counted miss.
        let table = db
            .layer(layer)
            .ok_or_else(|| StorageError::LayerNotFound(format!("index {layer}")))?;
        let epoch = self.layer_epoch(layer);
        let filter = spec
            .predicate
            .map(|p| CompiledFilter::new(p.clone(), table.sidecar().cloned()));

        let t = Instant::now();
        if spec.rid_range.is_none() {
            let built = if let Some(CachedWindow { rows, json, .. }) =
                self.cache.get(layer, window, epoch)
            {
                // Arc handles shared with the cache entry: no payload copy.
                let cache_ms = t.elapsed().as_secs_f64() * 1e3;
                let rows_reused = rows.len();
                let client = self.client.deliver(&json);
                Some(WindowResponse {
                    rows,
                    json,
                    db_ms: 0.0,
                    build_json_ms: 0.0,
                    cache_ms,
                    epoch,
                    cache_hit: true,
                    delta: false,
                    rows_reused,
                    rows_fetched: 0,
                    arrival_rids: Vec::new(),
                    client,
                })
            } else {
                // Partial hit: prefer the caller's anchor if it is still
                // cached and covers enough of the new window; otherwise
                // scan for the best overlapping entry. Both probes are
                // epoch-checked, so an anchor from before an edit can
                // never seed the delta path.
                let base = self
                    .anchored_base(layer, window, epoch, spec.anchor.as_ref())
                    .or_else(|| {
                        self.cache.best_overlap(
                            layer,
                            window,
                            epoch,
                            self.cache.min_delta_overlap(),
                        )
                    });
                let cache_ms = t.elapsed().as_secs_f64() * 1e3;
                match base {
                    Some((old_rect, old)) => Some(self.delta_window_query(
                        &db, table, layer, epoch, window, &old_rect, &old, cache_ms,
                    )?),
                    None => None,
                }
            };
            if let Some(response) = built {
                return Ok(StreamPlan::Built(match &filter {
                    Some(f) => self.filter_built(f, response),
                    None => response,
                }));
            }
        }
        let cache_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let (mut candidates, exact) = match &filter {
            Some(f) => self.filtered_candidates(&db, table, window, f, spec.mode)?,
            None => (table.window_rids(db.pool(), window)?, true),
        };
        if let Some((lo, hi)) = spec.rid_range {
            candidates.retain(|rid| (lo..=hi).contains(&rid.to_u64()));
        }
        let plan_ms = t.elapsed().as_secs_f64() * 1e3;
        let builder = GraphJsonBuilder::with_capacity(candidates.len() * 96);
        Ok(StreamPlan::Cold(Box::new(ColdWindowStream {
            qm: self,
            pin: Some(db),
            layer,
            window: *window,
            epoch,
            candidates,
            exact,
            pos: 0,
            builder,
            rows: Vec::new(),
            epoch_valid: true,
            cacheable: filter.is_none() && spec.rid_range.is_none(),
            filter,
            plan_ms,
            cache_ms,
        })))
    }

    /// Insert a cold window's result into the cache. The entry shares the
    /// response's Arcs, so inserting copies nothing. The rid column and
    /// node-reference index seed future delta queries anchored on this
    /// window — skipped when the delta path is disabled
    /// ([`CacheConfig::min_delta_overlap`] above 1.0, the benchmark
    /// baseline), so the baseline pays no incremental-engine bookkeeping.
    fn seed_cache(
        &self,
        layer: usize,
        window: &Rect,
        epoch: u64,
        rows: Arc<Vec<(RowId, EdgeRow)>>,
        json: Arc<GraphJson>,
    ) {
        let (rids, node_refs) = if self.cache.min_delta_overlap() <= 1.0 {
            (
                rows.iter().map(|(rid, _)| *rid).collect(),
                CachedWindow::count_node_refs(&rows),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        self.cache.insert(
            layer,
            window,
            epoch,
            CachedWindow {
                node_refs: Arc::new(node_refs),
                rids: Arc::new(rids),
                rows,
                json,
            },
        );
    }

    /// Window aggregation: reduce the (optionally filtered) window to
    /// one [`AggregateDto`]. Serves rows from an exact unfiltered cache
    /// hit when one exists, otherwise runs the cold path (with the
    /// chooser when a predicate is present); nothing is cached. Returns
    /// the layer epoch the rows were read at.
    pub fn aggregate_window(
        &self,
        layer: usize,
        window: &Rect,
        pred: Option<&Predicate>,
        agg: &AggOp,
        mode: FilterMode,
    ) -> Result<(AggregateDto, u64)> {
        let db = self.db.read();
        let table = db
            .layer(layer)
            .ok_or_else(|| StorageError::LayerNotFound(format!("index {layer}")))?;
        let epoch = self.layer_epoch(layer);
        let sidecar = table.sidecar().cloned().unwrap_or_default();
        let filter = pred.map(|p| CompiledFilter::new(p.clone(), Some(sidecar.clone())));

        let (mut rows, exact) = match self.cache.get(layer, window, epoch) {
            Some(CachedWindow { rows, .. }) => (rows.to_vec(), true),
            None => {
                let (candidates, exact) = match &filter {
                    Some(f) => self.filtered_candidates(&db, table, window, f, mode)?,
                    None => (table.window_rids(db.pool(), window)?, true),
                };
                (table.fetch_many(db.pool(), &candidates)?, exact)
            }
        };
        rows.retain(|(_, row)| {
            in_window(row, window, exact) && filter.as_ref().is_none_or(|f| f.matches_row(row))
        });
        Ok((aggregate_rows(&rows, &sidecar, agg), epoch))
    }

    /// Cold filtered candidates: run the chooser, count its decision,
    /// and return an ascending deduplicated rid list with whether it is
    /// exact for `window` — true for the R-tree descent, false for an
    /// index probe, whose rows still need the window test.
    fn filtered_candidates(
        &self,
        db: &GraphDb,
        table: &LayerTable,
        window: &Rect,
        filter: &CompiledFilter,
        mode: FilterMode,
    ) -> Result<(Vec<RowId>, bool)> {
        match choose_access(table, db.pool(), filter, mode)? {
            AccessPath::Index(rids) => {
                self.chooser_index.fetch_add(1, Ordering::Relaxed);
                Ok((rids, false))
            }
            AccessPath::Scan => {
                self.chooser_scan.fetch_add(1, Ordering::Relaxed);
                Ok((table.window_rids(db.pool(), window)?, true))
            }
        }
    }

    /// Filter an already-built (cached or delta-spliced) response and
    /// rebuild the payload over the survivors.
    /// Only the delta arrivals that survive the filter tag the result.
    fn filter_built(&self, filter: &CompiledFilter, built: WindowResponse) -> WindowResponse {
        let t = Instant::now();
        let kept: Vec<(RowId, EdgeRow)> = built
            .rows
            .iter()
            .filter(|(_, row)| filter.matches_row(row))
            .cloned()
            .collect();
        // Spliced row sets are not rid-sorted, so membership goes
        // through a sorted copy of the surviving rids.
        let mut kept_rids: Vec<RowId> = kept.iter().map(|(rid, _)| *rid).collect();
        kept_rids.sort_unstable();
        let arrival_rids: Vec<RowId> = built
            .arrival_rids
            .iter()
            .copied()
            .filter(|r| kept_rids.binary_search(r).is_ok())
            .collect();
        let rows_reused = kept.len() - arrival_rids.len();
        let kept = Arc::new(kept);
        let db_ms = built.db_ms + t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let json = Arc::new(build_graph_json(&kept));
        let build_json_ms = built.build_json_ms + t.elapsed().as_secs_f64() * 1e3;
        let client = self.client.deliver(&json);
        WindowResponse {
            rows: kept,
            json,
            db_ms,
            build_json_ms,
            rows_reused,
            arrival_rids,
            client,
            ..built
        }
    }

    /// Chooser decision counters since startup: `(index-path, scan-path)`
    /// cold filtered windows.
    pub fn chooser_counts(&self) -> (u64, u64) {
        (
            self.chooser_index.load(Ordering::Relaxed),
            self.chooser_scan.load(Ordering::Relaxed),
        )
    }

    /// The caller-supplied anchor as a delta base, if its entry survives
    /// in the cache at the current `epoch` and covers at least
    /// [`MIN_DELTA_OVERLAP`] of `window`.
    fn anchored_base(
        &self,
        layer: usize,
        window: &Rect,
        epoch: u64,
        anchor: Option<&Rect>,
    ) -> Option<(Rect, CachedWindow)> {
        let a = anchor?;
        let area = window.area();
        if area <= 0.0 || a.intersection_area(window) / area < self.cache.min_delta_overlap() {
            return None;
        }
        let value = self.cache.peek(layer, a, epoch)?;
        self.cache.count_partial_hit();
        Some((*a, value))
    }

    /// The delta path: assemble `window`'s result from an overlapping
    /// cached window instead of re-running the full query. Every
    /// *per-row* expensive step (index descent, heap fetch, row decode,
    /// serialization, hashing) runs only over the rows that changed; the
    /// surviving majority is moved by clone-of-`Arc` and `memcpy`.
    ///
    /// 1. **Departures** — a cached row can only leave if its segment
    ///    touches the departed region, so the R-tree is descended over
    ///    the `old \ new` strips ([`Rect::difference`]) and only those
    ///    cached rows are re-tested against the new window. Everything
    ///    else is kept *without being looked at*.
    /// 2. **Arrivals** — a row intersecting the new window but absent
    ///    from the cached result must cross a `new \ old` strip. The
    ///    R-tree's hits are exact, so every ring row not already cached
    ///    (by binary search) is a true arrival: they are heap-fetched in
    ///    one batched page-sorted pass (`LayerTable::fetch_many`) with no
    ///    further test.
    /// 3. **Merge** — cached-minus-departed and fetched rows two-way
    ///    merge in ascending [`RowId`] order (all inputs already are),
    ///    making the result row-for-row identical to a cold query.
    /// 4. **Splice** — the cached window's node-reference index is
    ///    updated by the departure/arrival counts, yielding the orphaned
    ///    nodes directly; one [`GraphJson::splice`] then drops the
    ///    departed edges and orphaned nodes and splices in the fetched
    ///    rows' edges and genuinely new nodes, all by indexed `memcpy`.
    #[allow(clippy::too_many_arguments)]
    fn delta_window_query(
        &self,
        db: &GraphDb,
        table: &LayerTable,
        layer: usize,
        epoch: u64,
        window: &Rect,
        old_rect: &Rect,
        old: &CachedWindow,
        cache_ms: f64,
    ) -> Result<WindowResponse> {
        let pool = db.pool();
        let t = Instant::now();

        // One R-tree descent over the whole change ring: the `old \ new`
        // strips (where cached rows can depart) together with the
        // `new \ old` strips (where rows can arrive). Tree pages shared
        // by several strips are pinned and scanned once.
        let arrival_strips = window.difference(old_rect);
        let mut ring = old_rect.difference(window);
        ring.extend_from_slice(&arrival_strips);
        let candidates = table.window_candidates_multi(pool, &ring)?;

        // Classify every ring row in one pass against the cached rid
        // column (both ascending):
        //
        // * **cached** → departure test: the row leaves iff its segment
        //   no longer intersects the new window (bbox miss short-cuts the
        //   test). Cached rows outside the ring are kept *without being
        //   looked at*.
        // * **not cached** → arrival. Its edge crosses a ring strip; it
        //   cannot cross a departed strip (it would be cached), so it
        //   crosses an arrival strip and lies in the new window.
        let mut departed: Vec<usize> = Vec::new();
        let mut arrival_rids: Vec<RowId> = Vec::new();
        let mut oi = 0usize;
        for (bbox, rid) in &candidates {
            while oi < old.rids.len() && old.rids[oi] < *rid {
                oi += 1;
            }
            if oi < old.rids.len() && old.rids[oi] == *rid {
                if !bbox.intersects(window)
                    || !old.rows[oi].1.geometry.segment().intersects_rect(window)
                {
                    departed.push(oi);
                }
            } else {
                arrival_rids.push(*rid);
            }
        }
        // Arrivals: one batched page-sorted fetch.
        let rows_fetched = arrival_rids.len();
        let fetched = table.fetch_many(pool, &arrival_rids)?;
        debug_assert_in_window(&fetched, window);

        // Nothing departed and nothing arrived: the result is
        // row-for-row the anchor's. Share its Arcs outright — a tiny pan
        // or a re-centering costs no row or payload work at all.
        if departed.is_empty() && fetched.is_empty() {
            let db_ms = t.elapsed().as_secs_f64() * 1e3;
            self.cache.insert(layer, window, epoch, old.clone());
            let rows_reused = old.rows.len();
            let client = self.client.deliver(&old.json);
            return Ok(WindowResponse {
                rows: old.rows.clone(),
                json: old.json.clone(),
                db_ms,
                build_json_ms: 0.0,
                cache_ms,
                epoch,
                cache_hit: false,
                delta: true,
                rows_reused,
                rows_fetched,
                arrival_rids: Vec::new(),
                client,
            });
        }

        // 3. Merge rows: copy the cached rows skipping departures,
        //    splicing arrivals in RowId position (all ascending). Kept
        //    rows are cloned in maximal runs between events, so the
        //    common case is chunked slice clones rather than per-row
        //    branching.
        let capacity = old.rows.len() - departed.len() + fetched.len();
        let mut rows: Vec<(RowId, EdgeRow)> = Vec::with_capacity(capacity);
        let mut gone = departed.iter().peekable();
        let mut arriving = fetched.iter().peekable();
        let mut run = 0usize;
        let flush = |upto: usize, rows: &mut Vec<(RowId, EdgeRow)>, run: &mut usize| {
            rows.extend_from_slice(&old.rows[*run..upto]);
            *run = upto;
        };
        // Monotonic cursor for arrival insert positions: arrivals come in
        // ascending RowId order, so the scan never backtracks and the
        // whole merge stays O(rows) even with many departures.
        let mut aj = 0usize;
        loop {
            let next_gone = gone.peek().map(|&&i| i);
            // Find where the next arrival slots into the kept sequence.
            let next_arrival_pos = arriving.peek().map(|(frid, _)| {
                aj = aj.max(run);
                while aj < old.rows.len() && old.rows[aj].0 < *frid {
                    aj += 1;
                }
                aj
            });
            match (next_gone, next_arrival_pos) {
                (Some(g), Some(a)) if g < a => {
                    flush(g, &mut rows, &mut run);
                    run = g + 1;
                    gone.next();
                }
                (_, Some(a)) => {
                    flush(a, &mut rows, &mut run);
                    rows.push(arriving.next().expect("peeked").clone());
                }
                (Some(g), None) => {
                    flush(g, &mut rows, &mut run);
                    run = g + 1;
                    gone.next();
                }
                (None, None) => {
                    flush(old.rows.len(), &mut rows, &mut run);
                    break;
                }
            }
        }
        let rids: Vec<RowId> = rows.iter().map(|(rid, _)| *rid).collect();
        let rows_reused = rows.len() - fetched.len();
        let rows = Arc::new(rows);
        let db_ms = t.elapsed().as_secs_f64() * 1e3;

        // 4. Splice JSON. The node-reference update surfaces orphaned
        //    nodes in O(changed rows); the drop lists come out ascending
        //    because `departed` and the index are.
        let t = Instant::now();
        let mut ref_changes: Vec<(u64, i64)> =
            Vec::with_capacity(2 * (fetched.len() + departed.len()));
        for (_, row) in &fetched {
            ref_changes.push((row.node1_id, 1));
            ref_changes.push((row.node2_id, 1));
        }
        for &i in &departed {
            let row = &old.rows[i].1;
            ref_changes.push((row.node1_id, -1));
            ref_changes.push((row.node2_id, -1));
        }
        ref_changes.sort_unstable();
        let (node_refs, dropped_nodes, added_nodes) =
            apply_ref_changes(&old.node_refs, &ref_changes);
        let drop_edges: Vec<u64> = departed.iter().map(|&i| old.rows[i].0.to_u64()).collect();

        let add = build_graph_json(&fetched);
        let json = Arc::new(
            old.json
                .splice(&drop_edges, &dropped_nodes, &add, &added_nodes),
        );
        let build_json_ms = t.elapsed().as_secs_f64() * 1e3;

        self.cache.insert(
            layer,
            window,
            epoch,
            CachedWindow {
                rows: rows.clone(),
                rids: Arc::new(rids),
                json: json.clone(),
                node_refs: Arc::new(node_refs),
            },
        );

        let client = self.client.deliver(&json);
        Ok(WindowResponse {
            rows,
            json,
            db_ms,
            build_json_ms,
            cache_ms,
            epoch,
            cache_hit: false,
            delta: true,
            rows_reused,
            rows_fetched,
            arrival_rids,
            client,
        })
    }

    /// Keyword search over node labels of `layer` (trie lookup), with
    /// positions resolved for focusing.
    pub fn keyword_search(&self, layer: usize, keyword: &str) -> Result<Vec<SearchHit>> {
        self.keyword_search_filtered(layer, keyword, None)
    }

    /// [`QueryManager::keyword_search`] with an optional node-level
    /// predicate: hits are dropped unless the node satisfies it
    /// (coordinates from the node's position, degree/rank from the
    /// sidecar). Edge-label operators never match in node context —
    /// callers reject those predicates up front.
    pub fn keyword_search_filtered(
        &self,
        layer: usize,
        keyword: &str,
        pred: Option<&Predicate>,
    ) -> Result<Vec<SearchHit>> {
        let db = self.db.read();
        let table = db
            .layer(layer)
            .ok_or_else(|| StorageError::LayerNotFound(format!("index {layer}")))?;
        let filter = pred.map(|p| CompiledFilter::new(p.clone(), table.sidecar().cloned()));
        let mut hits = Vec::new();
        for node_id in table.search_nodes(keyword) {
            if let Some((position, label)) = table.node_position(db.pool(), node_id)? {
                if filter
                    .as_ref()
                    .is_none_or(|f| f.matches_node(node_id, &label, position.x, position.y))
                {
                    hits.push(SearchHit {
                        node_id,
                        label,
                        position,
                    });
                }
            }
        }
        Ok(hits)
    }

    /// The focus window for a search hit: a rectangle of the client's
    /// window size centered on the node (paper §II-B).
    pub fn focus_window(&self, hit: &SearchHit, width: f64, height: f64) -> Rect {
        Rect::centered(hit.position, width, height)
    }

    /// "Focus on node" mode: the node's row set (the node and its direct
    /// neighbours), bypassing the spatial index.
    pub fn focus_on_node(&self, layer: usize, node_id: u64) -> Result<Vec<(RowId, EdgeRow)>> {
        let db = self.db.read();
        let table = db
            .layer(layer)
            .ok_or_else(|| StorageError::LayerNotFound(format!("index {layer}")))?;
        let rids = table.rows_of_node(db.pool(), node_id)?;
        let mut rows = Vec::with_capacity(rids.len());
        for rid in rids {
            rows.push((rid, table.get(db.pool(), rid)?));
        }
        Ok(rows)
    }
}

/// Whether a fetched row lies in `window`. Rows the R-tree returned
/// (`exact`) do by construction — its leaves run the segment test — so
/// only secondary-index candidates pay for the test here.
fn in_window(row: &EdgeRow, window: &Rect, exact: bool) -> bool {
    let crosses = || row.geometry.segment().intersects_rect(window);
    debug_assert!(!exact || crosses(), "R-tree hit outside its window");
    exact || crosses()
}

/// Reject a row whose endpoints disagree with each other or with the
/// stored rows about a node's label or canonical position (see
/// [`QueryManager::insert_row`]).
fn check_node_identity(db: &GraphDb, layer: usize, row: &EdgeRow) -> Result<()> {
    let table = db
        .layer(layer)
        .ok_or_else(|| StorageError::LayerNotFound(format!("index {layer}")))?;
    let wire = |v: f64| {
        let mut text = String::new();
        gvdb_api::pack::push_f64_json(&mut text, v);
        text
    };
    let g = &row.geometry;
    let ends = [
        (row.node1_id, &row.node1_label, g.x1, g.y1),
        (row.node2_id, &row.node2_label, g.x2, g.y2),
    ];
    let same = |label: &str, x: f64, y: f64, other: (&str, f64, f64)| {
        label == other.0 && wire(x) == wire(other.1) && wire(y) == wire(other.2)
    };
    let [(id1, label1, x1, y1), (id2, label2, x2, y2)] = ends;
    if id1 == id2 && !same(label1, x1, y1, (label2, x2, y2)) {
        return Err(StorageError::InvalidRow(format!(
            "the two endpoints of node {id1} differ in label or position"
        )));
    }
    for (id, label, x, y) in ends {
        if let Some((at, stored)) = table.node_position(db.pool(), id)? {
            if !same(label, x, y, (&stored, at.x, at.y)) {
                return Err(StorageError::InvalidRow(format!(
                    "node {id} is stored as {stored:?} at ({}, {}); a row may not \
                     give it another label or position",
                    wire(at.x),
                    wire(at.y)
                )));
            }
        }
    }
    Ok(())
}

/// Debug builds check what the R-tree guarantees: every row it returned
/// for `window` has an edge crossing it.
fn debug_assert_in_window(rows: &[(RowId, EdgeRow)], window: &Rect) {
    debug_assert!(
        rows.iter()
            .all(|(_, row)| row.geometry.segment().intersects_rect(window)),
        "R-tree hit outside its window"
    );
}

/// Apply sorted `(node id, ±1)` reference changes to a sorted
/// node-reference index (see [`CachedWindow::node_refs`]). Returns the
/// updated index, the node ids whose count reached zero (the nodes a pan
/// orphaned — what the splice drops) and the ids that appeared (what
/// [`GraphJson::splice`] splices in). All outputs are ascending.
/// O(index + changes), no hashing.
#[allow(clippy::type_complexity)]
fn apply_ref_changes(
    old: &[(u64, u32)],
    changes: &[(u64, i64)],
) -> (Vec<(u64, u32)>, Vec<u64>, Vec<u64>) {
    let mut out = Vec::with_capacity(old.len() + changes.len());
    let mut dropped = Vec::new();
    let mut added = Vec::new();
    let (mut oi, mut ci) = (0usize, 0usize);
    while oi < old.len() || ci < changes.len() {
        let oid = old.get(oi).map(|o| o.0);
        let cid = changes.get(ci).map(|c| c.0);
        match (oid, cid) {
            (Some(a), Some(b)) if a < b => {
                out.push(old[oi]);
                oi += 1;
            }
            (Some(a), Some(b)) if a == b => {
                let mut delta = 0i64;
                while ci < changes.len() && changes[ci].0 == b {
                    delta += changes[ci].1;
                    ci += 1;
                }
                let count = old[oi].1 as i64 + delta;
                oi += 1;
                if count > 0 {
                    out.push((a, count as u32));
                } else {
                    debug_assert_eq!(count, 0, "reference count went negative");
                    dropped.push(a);
                }
            }
            (_, Some(b)) => {
                // Absent from the old index: must be net-new arrivals.
                let mut delta = 0i64;
                while ci < changes.len() && changes[ci].0 == b {
                    delta += changes[ci].1;
                    ci += 1;
                }
                debug_assert!(delta >= 0, "negative change for unindexed node");
                if delta > 0 {
                    out.push((b, delta as u32));
                    added.push(b);
                }
            }
            (Some(_), None) => {
                out.push(old[oi]);
                oi += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    (out, dropped, added)
}

/// Encode per-layer edit epochs into checkpoint metadata: a `u32` layer
/// count followed by one little-endian `u64` per layer. The storage layer
/// treats this as opaque bytes; only the core encodes and decodes it, so
/// epochs ride inside shipped checkpoints without the WAL format knowing
/// what a layer is.
pub fn encode_epoch_meta(epochs: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + epochs.len() * 8);
    out.extend_from_slice(&(epochs.len() as u32).to_le_bytes());
    for e in epochs {
        out.extend_from_slice(&e.to_le_bytes());
    }
    out
}

/// Decode checkpoint metadata written by [`encode_epoch_meta`]. Lenient:
/// anything short, truncated, or from a pre-replication checkpoint (empty
/// meta) decodes to an empty vector, which callers treat as "all zero".
pub fn decode_epoch_meta(bytes: &[u8]) -> Vec<u64> {
    if bytes.len() < 4 {
        return Vec::new();
    }
    let count = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    if bytes.len() < 4 + count * 8 {
        return Vec::new();
    }
    (0..count)
        .map(|i| {
            let at = 4 + i * 8;
            u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{preprocess, PreprocessConfig};
    use gvdb_graph::generators::planted_partition;

    fn manager(name: &str) -> (QueryManager, std::path::PathBuf) {
        let g = planted_partition(4, 50, 6.0, 0.5, 1);
        let mut path = std::env::temp_dir();
        path.push(format!("gvdb-qm-{name}-{}", std::process::id()));
        let (db, _) = preprocess(
            &g,
            &path,
            &PreprocessConfig {
                k: Some(4),
                ..Default::default()
            },
        )
        .unwrap();
        (QueryManager::new(db), path)
    }

    #[test]
    fn window_query_measures_all_stages() {
        let (qm, path) = manager("stages");
        let resp = qm
            .window_query(0, &Rect::new(0.0, 0.0, 1500.0, 1500.0))
            .unwrap();
        assert!(!resp.rows.is_empty());
        assert!(resp.db_ms >= 0.0);
        assert!(resp.build_json_ms >= 0.0);
        assert!(resp.client.comm_render_ms > 0.0);
        assert!(resp.total_ms() >= resp.client.comm_render_ms);
        assert_eq!(resp.json.edge_count, resp.rows.len());
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn repeated_window_is_a_cache_hit() {
        let (qm, path) = manager("cachehit");
        let w = Rect::new(0.0, 0.0, 2000.0, 2000.0);
        let first = qm.window_query(0, &w).unwrap();
        assert!(!first.cache_hit);
        let second = qm.window_query(0, &w).unwrap();
        assert!(second.cache_hit, "identical (layer, window) must hit");
        assert_eq!(second.rows, first.rows);
        assert_eq!(second.json, first.json);
        assert_eq!(second.db_ms, 0.0);
        assert!(
            second.server_ms() <= first.server_ms(),
            "hit ({:.4} ms) must not cost more than the miss ({:.4} ms)",
            second.server_ms(),
            first.server_ms()
        );
        let stats = qm.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn nearby_windows_are_distinct_entries() {
        let (qm, path) = manager("cachedistinct");
        let a = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let b = Rect::new(10.0, 0.0, 1010.0, 1000.0);
        let ra = qm.window_query(0, &a).unwrap();
        let rb = qm.window_query(0, &b).unwrap();
        assert!(!ra.cache_hit && !rb.cache_hit);
        // Both repeats hit, each with its own rows.
        assert!(qm.window_query(0, &a).unwrap().cache_hit);
        assert!(qm.window_query(0, &b).unwrap().cache_hit);
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn db_mut_invalidates_the_cache() {
        let (mut qm, path) = manager("cacheinval");
        let w = Rect::new(0.0, 0.0, 1500.0, 1500.0);
        let before = qm.window_query(0, &w).unwrap();
        assert!(qm.window_query(0, &w).unwrap().cache_hit);

        // Insert a row inside the window through the edit path.
        let row = gvdb_storage::EdgeRow {
            node1_id: 777_001,
            node1_label: "edit-a".into(),
            geometry: gvdb_storage::EdgeGeometry {
                x1: 10.0,
                y1: 10.0,
                x2: 20.0,
                y2: 20.0,
                directed: false,
            },
            edge_label: "edited".into(),
            node2_id: 777_002,
            node2_label: "edit-b".into(),
        };
        qm.db_mut().insert_row(0, &row).unwrap();

        let after = qm.window_query(0, &w).unwrap();
        assert!(!after.cache_hit, "edits must invalidate cached windows");
        assert_eq!(after.rows.len(), before.rows.len() + 1);
        assert!(after.rows.iter().any(|(_, r)| &*r.edge_label == "edited"));
        gvdb_storage::wal::remove_database(&path).ok();
    }

    /// Ground truth for a window, straight off the table (no cache).
    fn cold_rows(qm: &QueryManager, layer: usize, w: &Rect) -> Vec<(RowId, EdgeRow)> {
        let db = qm.db();
        db.layer(layer).unwrap().window(db.pool(), w).unwrap()
    }

    #[test]
    fn pan_runs_delta_path_and_matches_cold() {
        let (qm, path) = manager("deltapan");
        let w1 = Rect::new(0.0, 0.0, 2000.0, 2000.0);
        let first = qm.window_query(0, &w1).unwrap();
        assert!(!first.delta && !first.cache_hit);
        assert!(first.rows_fetched > 0 && first.rows_reused == 0);

        // 80%-overlap pan to the right.
        let w2 = Rect::new(400.0, 0.0, 2400.0, 2000.0);
        let resp = qm.window_query(0, &w2).unwrap();
        assert!(resp.delta, "overlapping pan must take the delta path");
        assert!(!resp.cache_hit);
        assert!(
            resp.rows_fetched < first.rows_fetched,
            "delta fetched {} rows, cold fetched {}",
            resp.rows_fetched,
            first.rows_fetched
        );
        assert!(resp.rows_reused > 0);
        assert_eq!(*resp.rows, cold_rows(&qm, 0, &w2), "row-for-row identical");
        assert_eq!(resp.json.edge_count, resp.rows.len());
        assert_eq!(qm.cache_stats().partial_hits, 1);
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn zoom_out_delta_covers_the_ring() {
        let (qm, path) = manager("deltazoom");
        let inner = Rect::new(500.0, 500.0, 2000.0, 2000.0);
        qm.window_query(0, &inner).unwrap();
        // Zoom out around the same center: old window covers 56% of new.
        let outer = Rect::new(250.0, 250.0, 2250.0, 2250.0);
        let resp = qm.window_query(0, &outer).unwrap();
        assert!(resp.delta);
        assert_eq!(*resp.rows, cold_rows(&qm, 0, &outer));
        // Zoom back in: pure subset, nothing to fetch.
        let resp = qm.window_query(0, &inner).unwrap();
        assert!(resp.cache_hit, "inner window still cached exactly");
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn shrink_window_delta_fetches_nothing() {
        let (qm, path) = manager("deltashrink");
        let big = Rect::new(0.0, 0.0, 2500.0, 2500.0);
        qm.window_query(0, &big).unwrap();
        // A zoom-in strictly inside the cached window: all rows kept or
        // dropped, no strips at all.
        let small = Rect::new(300.0, 300.0, 2200.0, 2200.0);
        let resp = qm.window_query(0, &small).unwrap();
        assert!(resp.delta);
        assert_eq!(resp.rows_fetched, 0, "subset pan needs no heap access");
        assert_eq!(*resp.rows, cold_rows(&qm, 0, &small));
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn index_path_candidates_still_get_the_window_test() {
        let (qm, path) = manager("indexpath");
        let window = Rect::new(0.0, 0.0, 1500.0, 1500.0);
        let inside = cold_rows(&qm, 0, &window);
        let plane = cold_rows(&qm, 0, &Rect::new(-1e9, -1e9, 1e9, 1e9));
        let outside = plane
            .iter()
            .find(|(rid, _)| !inside.iter().any(|(r, _)| r == rid))
            .expect("a row outside the window");
        // Both labels are trie-indexable, so the index candidates hold a
        // row the window excludes.
        let pred = Predicate::Or(vec![
            Predicate::NodeLabelEq(inside[0].1.node1_label.to_string()),
            Predicate::NodeLabelEq(outside.1.node1_label.to_string()),
        ]);
        let filter = CompiledFilter::new(pred.clone(), None);
        let expected: Vec<(RowId, EdgeRow)> = inside
            .iter()
            .filter(|(_, row)| filter.matches_row(row))
            .cloned()
            .collect();
        assert!(!expected.is_empty());

        let resp = qm
            .window_query_filtered(0, &window, None, &pred, FilterMode::ForceIndex)
            .unwrap();
        assert_eq!(qm.chooser_counts(), (1, 0), "the chooser took the index");
        assert_eq!(*resp.rows, expected);

        let spec = WindowSpec {
            predicate: Some(&pred),
            mode: FilterMode::ForceIndex,
            ..WindowSpec::new(0, window)
        };
        let StreamPlan::Cold(mut cold) = qm.window_plan(&spec).unwrap() else {
            panic!("nothing cached: the plan is cold")
        };
        while cold.next_chunk(4, false).unwrap().is_some() {}
        assert_eq!(cold.rows_so_far(), expected.as_slice());

        let (agg, _) = qm
            .aggregate_window(
                0,
                &window,
                Some(&pred),
                &AggOp::Count,
                FilterMode::ForceIndex,
            )
            .unwrap();
        assert_eq!(agg.rows, expected.len() as u64);
        gvdb_storage::wal::remove_database(&path).ok();
    }

    /// The node objects of a payload, in id order.
    fn node_objects(json: &GraphJson) -> Vec<&str> {
        let mut spans = json.node_spans.clone();
        spans.sort_unstable_by_key(|s| s.id);
        spans
            .iter()
            .map(|s| &json.text[s.start as usize..s.end as usize])
            .collect()
    }

    /// A node is one object across rows. An insert reusing the node of a
    /// row that a pan drops, with another label or position, would leave
    /// the delta payload holding the node's old fragment while a cold
    /// read prints the new row's (3 of these 20 strip rows did, before
    /// such inserts were refused); it is refused and writes nothing, and
    /// the pan's delta agrees with the cold read node for node.
    #[test]
    fn inserts_keep_one_label_and_position_per_node() {
        let (qm, path) = manager("nodeident");
        let (w1, w2) = (
            Rect::new(0.0, 0.0, 2000.0, 2000.0),
            Rect::new(400.0, 0.0, 2400.0, 2000.0),
        );
        let strips: Vec<EdgeRow> = cold_rows(&qm, 0, &w1)
            .into_iter()
            .map(|(_, r)| r)
            .filter(|r| !r.geometry.segment().intersects_rect(&w2))
            .take(20)
            .collect();
        assert!(!strips.is_empty(), "rows only in the dropped strip");
        let probe_of = |node: u64, label: &str, x: f64, y: f64| EdgeRow {
            node1_id: node,
            node1_label: label.into(),
            geometry: gvdb_storage::EdgeGeometry {
                x1: x,
                y1: y,
                x2: 1000.0,
                y2: 1000.0,
                directed: false,
            },
            edge_label: "probe".into(),
            node2_id: 9_000_001,
            node2_label: "probe-far".into(),
        };
        let rows = || qm.db().layer(0).unwrap().row_count();
        let before = rows();
        for strip in &strips {
            let (node, label) = (strip.node1_id, &strip.node1_label);
            let (x, y) = (strip.geometry.x1, strip.geometry.y1);
            let probe = |label: &str, x: f64, y: f64| probe_of(node, label, x, y);
            let mut self_loop = probe(label, x, y);
            self_loop.node2_id = node;
            for bad in [
                probe("moved", 1000.0, 1000.0),
                probe(label, 1000.0, 1000.0),
                probe("moved", x, y),
                probe(label, x + 0.01, y),
                self_loop,
            ] {
                let err = qm.insert_row(0, &bad).unwrap_err();
                assert!(matches!(err, StorageError::InvalidRow(_)), "{err}");
            }
        }
        assert_eq!(rows(), before, "nothing written");
        assert_eq!(qm.layer_epoch(0), 0, "epoch unchanged");

        // Restating a node is fine, down to coordinate bits below the
        // canonical two decimals.
        let strip = &strips[0];
        let next_up = |v: f64| f64::from_bits(v.to_bits() + 1);
        let (x, y) = (next_up(strip.geometry.x1), strip.geometry.y1);
        qm.insert_row(0, &probe_of(strip.node1_id, &strip.node1_label, x, y))
            .unwrap();
        qm.window_query(0, &w1).unwrap();
        let delta = qm.window_query_anchored(0, &w2, Some(&w1)).unwrap();
        assert!(delta.delta);
        let cold = build_graph_json(&cold_rows(&qm, 0, &w2));
        assert_eq!(node_objects(&delta.json), node_objects(&cold));
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn disjoint_window_stays_cold() {
        let (qm, path) = manager("deltacold");
        qm.window_query(0, &Rect::new(0.0, 0.0, 1000.0, 1000.0))
            .unwrap();
        let far = Rect::new(5000.0, 5000.0, 6000.0, 6000.0);
        let resp = qm.window_query(0, &far).unwrap();
        assert!(!resp.delta && !resp.cache_hit);
        assert_eq!(qm.cache_stats().partial_hits, 0);
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn anchored_query_prefers_the_anchor() {
        let (qm, path) = manager("anchored");
        let w1 = Rect::new(0.0, 0.0, 1800.0, 1800.0);
        qm.window_query(0, &w1).unwrap();
        let w2 = Rect::new(300.0, 200.0, 2100.0, 2000.0);
        let resp = qm.window_query_anchored(0, &w2, Some(&w1)).unwrap();
        assert!(resp.delta);
        assert_eq!(*resp.rows, cold_rows(&qm, 0, &w2));
        assert_eq!(qm.cache_stats().partial_hits, 1);
        // An anchor that was never cached falls back gracefully.
        let w3 = Rect::new(350.0, 250.0, 2150.0, 2050.0);
        let ghost = Rect::new(9e6, 9e6, 9.1e6, 9.1e6);
        let resp = qm.window_query_anchored(0, &w3, Some(&ghost)).unwrap();
        assert_eq!(*resp.rows, cold_rows(&qm, 0, &w3));
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn layer_scoped_edit_invalidates_only_that_layer() {
        let (qm, path) = manager("layerinval");
        let w = Rect::new(0.0, 0.0, 1500.0, 1500.0);
        let l0_before = qm.window_query(0, &w).unwrap();
        qm.window_query(1, &w).unwrap();

        let row = gvdb_storage::EdgeRow {
            node1_id: 888_001,
            node1_label: "scoped-a".into(),
            geometry: gvdb_storage::EdgeGeometry {
                x1: 100.0,
                y1: 100.0,
                x2: 200.0,
                y2: 200.0,
                directed: false,
            },
            edge_label: "scoped-edit".into(),
            node2_id: 888_002,
            node2_label: "scoped-b".into(),
        };
        let rid = qm.insert_row(0, &row).unwrap();

        // The edit is never masked on the edited layer...
        let l0_after = qm.window_query(0, &w).unwrap();
        assert!(!l0_after.cache_hit, "layer-0 windows must be invalidated");
        assert_eq!(l0_after.rows.len(), l0_before.rows.len() + 1);
        assert!(l0_after
            .rows
            .iter()
            .any(|(_, r)| &*r.edge_label == "scoped-edit"));
        // ...while the other layer's cached window survives untouched.
        assert!(
            qm.window_query(1, &w).unwrap().cache_hit,
            "cross-layer entries must survive a scoped edit"
        );

        // Scoped delete behaves the same way.
        qm.delete_row(0, rid).unwrap();
        let l0_deleted = qm.window_query(0, &w).unwrap();
        assert!(!l0_deleted.cache_hit);
        assert_eq!(l0_deleted.rows.len(), l0_before.rows.len());
        assert!(qm.window_query(1, &w).unwrap().cache_hit);
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn delta_after_scoped_edit_sees_the_edit() {
        // A delta query anchored on a pre-edit window must never happen:
        // the edit drops every cached window of the layer, so the next
        // query is cold and correct.
        let (qm, path) = manager("deltaedit");
        let w1 = Rect::new(0.0, 0.0, 2000.0, 2000.0);
        qm.window_query(0, &w1).unwrap();
        let row = gvdb_storage::EdgeRow {
            node1_id: 777_101,
            node1_label: "post-edit".into(),
            geometry: gvdb_storage::EdgeGeometry {
                x1: 2100.0,
                y1: 1000.0,
                x2: 2200.0,
                y2: 1000.0,
                directed: false,
            },
            edge_label: "fresh".into(),
            node2_id: 777_102,
            node2_label: "post-edit-b".into(),
        };
        qm.insert_row(0, &row).unwrap();
        // Pan toward the inserted row; w2 overlaps w1 by 80%.
        let w2 = Rect::new(400.0, 0.0, 2400.0, 2000.0);
        let resp = qm.window_query(0, &w2).unwrap();
        assert!(!resp.delta, "no stale anchor may survive the edit");
        assert!(resp.rows.iter().any(|(_, r)| &*r.edge_label == "fresh"));
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn epochs_advance_per_layer_and_tag_responses() {
        let (qm, path) = manager("epochs");
        let w = Rect::new(0.0, 0.0, 1500.0, 1500.0);
        assert_eq!(qm.layer_epoch(0), 0);
        let r0 = qm.window_query(0, &w).unwrap();
        assert_eq!(r0.epoch, 0, "pre-edit responses are at epoch 0");

        let row = gvdb_storage::EdgeRow {
            node1_id: 555_001,
            node1_label: "epoch-a".into(),
            geometry: gvdb_storage::EdgeGeometry {
                x1: 5.0,
                y1: 5.0,
                x2: 15.0,
                y2: 15.0,
                directed: false,
            },
            edge_label: "epoch-edit".into(),
            node2_id: 555_002,
            node2_label: "epoch-b".into(),
        };
        let rid = qm.insert_row(0, &row).unwrap();
        assert_eq!(qm.layer_epoch(0), 1, "insert bumps the edited layer");
        assert_eq!(qm.layer_epoch(1), 0, "other layers are untouched");

        let r1 = qm.window_query(0, &w).unwrap();
        assert_eq!(r1.epoch, 1, "post-edit responses carry the new epoch");
        assert!(!r1.cache_hit);
        assert_eq!(r1.rows.len(), r0.rows.len() + 1);

        qm.delete_row(0, rid).unwrap();
        assert_eq!(qm.layer_epoch(0), 2, "delete bumps too");
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn edit_db_bumps_every_layer() {
        let (qm, path) = manager("editdb");
        let w = Rect::new(0.0, 0.0, 1500.0, 1500.0);
        qm.window_query(0, &w).unwrap();
        qm.window_query(1, &w).unwrap();
        let flushed = qm.edit_db(|db| db.flush());
        flushed.unwrap();
        assert_eq!(qm.layer_epoch(0), 1);
        assert_eq!(qm.layer_epoch(1), 1);
        // Whole cache invalidated: both layers re-query cold.
        assert!(!qm.window_query(0, &w).unwrap().cache_hit);
        assert!(!qm.window_query(1, &w).unwrap().cache_hit);
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn missing_layer_is_an_error() {
        let (qm, path) = manager("missing");
        assert!(matches!(
            qm.window_query(99, &Rect::new(0.0, 0.0, 1.0, 1.0)),
            Err(StorageError::LayerNotFound(_))
        ));
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn keyword_search_focuses_on_hit() {
        let (qm, path) = manager("search");
        // planted_partition labels are c{community}-n{index}
        let hits = qm.keyword_search(0, "c2 n7").unwrap();
        assert!(!hits.is_empty());
        let w = qm.focus_window(&hits[0], 800.0, 600.0);
        assert!((w.width() - 800.0).abs() < 1e-9);
        // The focused window must contain the hit node's edges.
        let resp = qm.window_query(0, &w).unwrap();
        assert!(resp
            .rows
            .iter()
            .any(|(_, r)| r.node1_id == hits[0].node_id || r.node2_id == hits[0].node_id));
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn focus_on_node_returns_neighborhood() {
        let (qm, path) = manager("focus");
        let hits = qm.keyword_search(0, "c0 n0").unwrap();
        let rows = qm.focus_on_node(0, hits[0].node_id).unwrap();
        assert!(!rows.is_empty());
        for (_, r) in &rows {
            assert!(r.node1_id == hits[0].node_id || r.node2_id == hits[0].node_id);
        }
        gvdb_storage::wal::remove_database(&path).ok();
    }

    #[test]
    fn higher_layers_return_fewer_objects() {
        let (qm, path) = manager("layers");
        let everything = Rect::new(-1e9, -1e9, 1e9, 1e9);
        let l0 = qm.window_query(0, &everything).unwrap();
        let top = qm.window_query(qm.layer_count() - 1, &everything).unwrap();
        assert!(top.rows.len() < l0.rows.len());
        gvdb_storage::wal::remove_database(&path).ok();
    }
}
