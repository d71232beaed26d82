//! A sharded LRU cache for window-query results — the online hot path's
//! answer to the paper's multi-user serving claim.
//!
//! Exploration traffic is heavily repetitive: every pan re-enters
//! overlapping windows, popular regions are visited by many users, and a
//! browser "back" replays an identical `(layer, window)` pair. The
//! [`WindowCache`] sits in front of `QueryManager::window_query` and
//! serves repeats without touching the R-tree, heap file, or JSON
//! builder.
//!
//! Design:
//!
//! * **Key** — `(layer, exact window bits)`. Coordinates are `f64`s,
//!   which do not hash, so the key holds their bit patterns: a lookup
//!   hits only the bit-identical window, and two distinct windows, however
//!   close, are cached and served separately.
//! * **Sharding** — the key hash picks one of [`CacheConfig::shards`]
//!   independently locked shards, so concurrent sessions rarely contend
//!   on the same mutex (the query path itself is `&self` and fully
//!   concurrent, like the buffer pool underneath).
//! * **LRU** — each shard evicts its least-recently-used entry when it
//!   exceeds `capacity / shards` entries.
//! * **Partial hits** — a window that misses the exact-match map is
//!   matched against *overlapping* cached windows on the same layer
//!   ([`WindowCache::best_overlap`]); the query manager's delta path then
//!   reuses the overlap and queries only the difference strips. Entries
//!   carry the row set, its rid key column, the payload with its span
//!   index, and a node-reference count index ([`CachedWindow`]) so the
//!   delta is assembled without re-deduplicating or re-serializing
//!   surviving data.
//! * **Invalidation** — layer-aware edits (`QueryManager::insert_row` /
//!   `delete_row`) drop only the edited layer's entries
//!   ([`WindowCache::invalidate_layer`]); raw `QueryManager::db_mut`
//!   access clears everything. Either way a stale row can never be
//!   served after an edit.
//! * **Epoch validation** — every entry records the *edit epoch* of its
//!   layer at the time its rows were read (see
//!   `QueryManager::layer_epoch`). Lookups pass the current epoch and an
//!   entry whose epoch differs is treated as a miss and pruned, so even
//!   an entry inserted by a query that raced an edit (computed before the
//!   edit, inserted after the invalidation swept the shard) can never be
//!   served: its recorded epoch is behind the layer's.
//!
//! Hits, partial hits and misses are counted globally
//! ([`WindowCache::stats`]) and surfaced per-response through
//! `WindowResponse::cache_hit` / `WindowResponse::delta`; per-shard
//! occupancy is reported by [`WindowCache::shard_stats`].

use crate::json::GraphJson;
use gvdb_storage::{EdgeRow, RowId};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gvdb_spatial::Rect;

/// Cache sizing parameters.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum cached window results across all shards.
    pub capacity: usize,
    /// Approximate memory budget (bytes) across all shards. Entry sizes
    /// are estimated from row labels and JSON text; entries are evicted
    /// (LRU first) to stay under budget, and a single result bigger than
    /// one shard's budget is simply not cached — a handful of whole-plane
    /// queries cannot pin the dataset in RAM many times over.
    pub max_bytes: usize,
    /// Number of independently locked shards.
    pub shards: usize,
    /// Minimum fraction of a requested window an overlapping cached
    /// window must cover before the delta path engages (default
    /// [`crate::query::MIN_DELTA_OVERLAP`]). Set above `1.0` to disable
    /// partial hits entirely — benchmarks use this to measure the cold
    /// path against the same traffic.
    pub min_delta_overlap: f64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 512,
            max_bytes: 64 << 20, // 64 MiB
            // Same shards-vs-cores policy as the buffer pool, so the two
            // stripe counts always move together.
            shards: gvdb_storage::default_shards(),
            min_delta_overlap: crate::query::MIN_DELTA_OVERLAP,
        }
    }
}

/// Hit/miss/occupancy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served whole from the cache (exact window match).
    pub hits: u64,
    /// Lookups that fell through to the database.
    pub misses: u64,
    /// The subset of `misses` that found an *overlapping* cached window
    /// ([`WindowCache::best_overlap`]) and were answered by the delta
    /// path — only the non-overlapping strips touched the database.
    pub partial_hits: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Approximate bytes held by cached entries.
    pub bytes: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-shard occupancy snapshot (see [`WindowCache::shard_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheShardStats {
    /// Entries currently cached in this shard.
    pub entries: usize,
    /// Approximate bytes held by this shard's entries.
    pub bytes: usize,
}

/// A cached window-query result: the DB rows and the client payload built
/// from them. The fields are `Arc`s shared with the
/// [`crate::query::WindowResponse`]s built from this entry, so cloning a
/// `CachedWindow` — which is all a hit does — is two reference-count
/// bumps, no row or JSON copying (sessions that filter use copy-on-write
/// via `Arc::make_mut`).
#[derive(Debug, Clone)]
pub struct CachedWindow {
    /// The rows in the window, ascending by [`RowId`] — the canonical
    /// order of every query path, which lets the delta path binary-search
    /// and two-way merge instead of hashing.
    pub rows: Arc<Vec<(RowId, EdgeRow)>>,
    /// The key column of `rows` (same order): membership tests in the
    /// delta path walk this compact array sequentially instead of
    /// striding through the 100-byte row structs.
    pub rids: Arc<Vec<RowId>>,
    /// The serialized client payload.
    pub json: Arc<GraphJson>,
    /// Sorted `(node id, incident row count)` pairs over `rows`. The
    /// delta path updates this incrementally and reads orphaned nodes
    /// (count reaching zero) straight off the update, instead of
    /// re-deduplicating every node in the window.
    pub node_refs: Arc<Vec<(u64, u32)>>,
}

impl CachedWindow {
    /// Estimated heap footprint: struct sizes plus the variable-length
    /// parts (labels, JSON text, span and node indexes). Good to within a
    /// small constant factor, which is all a budget needs.
    pub fn approx_bytes(&self) -> usize {
        let row_fixed = std::mem::size_of::<(RowId, EdgeRow)>();
        let labels: usize = self
            .rows
            .iter()
            .map(|(_, r)| r.node1_label.len() + r.node2_label.len() + r.edge_label.len())
            .sum();
        self.rows.len() * row_fixed
            + labels
            + self.json.approx_heap_bytes()
            + self.rids.len() * std::mem::size_of::<RowId>()
            + self.node_refs.len() * std::mem::size_of::<(u64, u32)>()
    }

    /// Build the node-reference index for `rows`: each distinct node id
    /// with the number of rows touching it, sorted by id. The cold query
    /// path computes this once per window; delta queries then maintain it
    /// incrementally.
    pub fn count_node_refs(rows: &[(RowId, EdgeRow)]) -> Vec<(u64, u32)> {
        let mut ids: Vec<u64> = Vec::with_capacity(rows.len() * 2);
        for (_, r) in rows {
            ids.push(r.node1_id);
            ids.push(r.node2_id);
        }
        ids.sort_unstable();
        let mut out: Vec<(u64, u32)> = Vec::new();
        for id in ids {
            match out.last_mut() {
                Some((last, c)) if *last == id => *c += 1,
                _ => out.push((id, 1)),
            }
        }
        out
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    layer: usize,
    bits: [u64; 4],
}

#[derive(Debug)]
struct Entry {
    /// The exact window this entry answers, intersected with incoming
    /// windows by the overlap scan of the delta path.
    rect: Rect,
    /// The layer's edit epoch when this entry's rows were read. An entry
    /// is only served while its layer is still at this epoch.
    epoch: u64,
    /// Last-touched tick (shard-local LRU clock).
    tick: u64,
    /// Cached [`CachedWindow::approx_bytes`] (stable for an entry's life).
    bytes: usize,
    value: CachedWindow,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    clock: u64,
    bytes: usize,
}

impl Shard {
    fn remove_lru(&mut self) -> bool {
        let Some(lru) = self.map.iter().min_by_key(|(_, e)| e.tick).map(|(k, _)| *k) else {
            return false;
        };
        if let Some(e) = self.map.remove(&lru) {
            self.bytes -= e.bytes;
        }
        true
    }
}

/// The sharded LRU cache over window-query results.
#[derive(Debug)]
pub struct WindowCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    per_shard_bytes: usize,
    min_delta_overlap: f64,
    hits: AtomicU64,
    misses: AtomicU64,
    partial_hits: AtomicU64,
}

impl WindowCache {
    /// Build a cache from `config` (shards and capacity are clamped to at
    /// least 1).
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        let capacity = config.capacity.max(1);
        WindowCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(shards),
            per_shard_bytes: config.max_bytes.max(1).div_ceil(shards),
            min_delta_overlap: config.min_delta_overlap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            partial_hits: AtomicU64::new(0),
        }
    }

    fn key(layer: usize, window: &Rect) -> CacheKey {
        CacheKey {
            layer,
            bits: [
                window.min_x.to_bits(),
                window.min_y.to_bits(),
                window.max_x.to_bits(),
                window.max_y.to_bits(),
            ],
        }
    }

    fn shard_for(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// Look up `(layer, window)` at the layer's current edit `epoch`;
    /// counts a hit or miss. An entry recorded at a different epoch is a
    /// miss (and is pruned — its rows predate an edit).
    pub fn get(&self, layer: usize, window: &Rect, epoch: u64) -> Option<CachedWindow> {
        match self.peek(layer, window, epoch) {
            Some(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Exact lookup without touching the hit/miss counters (the delta
    /// path probes its anchor window this way before deciding how to
    /// account the query). Refreshes the entry's LRU position. Entries
    /// whose recorded epoch differs from `epoch` are pruned, never
    /// returned.
    pub fn peek(&self, layer: usize, window: &Rect, epoch: u64) -> Option<CachedWindow> {
        let key = Self::key(layer, window);
        let mut shard = self
            .shard_for(&key)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        shard.clock += 1;
        let tick = shard.clock;
        let entry = shard.map.get_mut(&key)?;
        if entry.epoch != epoch {
            if let Some(stale) = shard.map.remove(&key) {
                shard.bytes -= stale.bytes;
            }
            return None;
        }
        entry.tick = tick;
        Some(entry.value.clone())
    }

    /// Best *overlapping* cached window on `layer`: the entry whose
    /// window covers the largest fraction of `window`, if that fraction
    /// is at least `min_fraction`. Returns the cached window's rectangle
    /// (the delta anchor) together with its rows and payload.
    ///
    /// This is the partial-hit lookup of the incremental viewport path: a
    /// pan that misses the exact-match map almost always overlaps the
    /// previous viewport's entry, and reusing it turns a full R-tree +
    /// heap query into a query over up to four thin strips. The scan
    /// walks every shard (entries are hashed by exact rect, so
    /// overlap can't be looked up directly), which at the cache's few
    /// hundred entries is nanoseconds next to a window query. Counts a
    /// partial hit and refreshes the chosen entry's LRU position; the
    /// exact-match miss is still counted by the [`WindowCache::get`] that
    /// preceded this call.
    pub fn best_overlap(
        &self,
        layer: usize,
        window: &Rect,
        epoch: u64,
        min_fraction: f64,
    ) -> Option<(Rect, CachedWindow)> {
        let area = window.area();
        if area <= 0.0 {
            return None;
        }
        let mut best: Option<(f64, usize, CacheKey, Rect, CachedWindow)> = None;
        for (idx, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            for (key, entry) in shard.map.iter() {
                if key.layer != layer || entry.epoch != epoch {
                    continue;
                }
                let covered = entry.rect.intersection_area(window) / area;
                if covered >= min_fraction && best.as_ref().is_none_or(|(f, ..)| covered > *f) {
                    best = Some((covered, idx, *key, entry.rect, entry.value.clone()));
                }
            }
        }
        let (_, idx, key, rect, value) = best?;
        // Refresh the chosen entry's LRU position (it may have been
        // evicted between the scan and this relock; that's fine).
        let mut shard = self.shards[idx].lock().unwrap_or_else(|e| e.into_inner());
        shard.clock += 1;
        let tick = shard.clock;
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.tick = tick;
        }
        drop(shard);
        self.partial_hits.fetch_add(1, Ordering::Relaxed);
        Some((rect, value))
    }

    /// Insert a result for `(layer, window)` computed at the layer's edit
    /// `epoch`, evicting least-recently-used entries while the shard is
    /// over its entry or byte budget. A result that alone exceeds the
    /// shard's byte budget is not cached at all — caching it would evict
    /// everything else for one query that will rarely repeat.
    pub fn insert(&self, layer: usize, window: &Rect, epoch: u64, value: CachedWindow) {
        let bytes = value.approx_bytes();
        if bytes > self.per_shard_bytes {
            return;
        }
        let key = Self::key(layer, window);
        let mut shard = self
            .shard_for(&key)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        shard.clock += 1;
        let tick = shard.clock;
        if let Some(old) = shard.map.remove(&key) {
            shard.bytes -= old.bytes;
        }
        while (shard.map.len() >= self.per_shard_capacity
            || shard.bytes + bytes > self.per_shard_bytes)
            && shard.remove_lru()
        {}
        shard.bytes += bytes;
        shard.map.insert(
            key,
            Entry {
                rect: *window,
                epoch,
                tick,
                bytes,
                value,
            },
        );
    }

    /// The configured minimum covered fraction for the delta path
    /// ([`CacheConfig::min_delta_overlap`]).
    pub fn min_delta_overlap(&self) -> f64 {
        self.min_delta_overlap
    }

    /// Count a partial hit that was resolved outside
    /// [`WindowCache::best_overlap`] (the anchored fast path peeks its
    /// entry directly but is still a partial hit for accounting).
    pub(crate) fn count_partial_hit(&self) {
        self.partial_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop every entry (after a mutation whose target layer is unknown,
    /// e.g. raw [`crate::QueryManager::db_mut`] access).
    pub fn invalidate_all(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            shard.map.clear();
            shard.bytes = 0;
        }
    }

    /// Drop only the entries of one layer (after an edit through the
    /// layer-aware edit path). Windows cached for *other* layers stay
    /// valid — each layer is an independent table, so an edit on layer
    /// `i` can never be masked by a cached window of layer `j ≠ i`.
    pub fn invalidate_layer(&self, layer: usize) {
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            let mut freed = 0usize;
            shard.map.retain(|key, entry| {
                if key.layer == layer {
                    freed += entry.bytes;
                    false
                } else {
                    true
                }
            });
            shard.bytes -= freed;
        }
    }

    /// Per-shard occupancy (index = shard). Sums to the `entries`/`bytes`
    /// of [`WindowCache::stats`]; the spread shows whether window traffic
    /// is striping evenly across shard locks.
    pub fn shard_stats(&self) -> Vec<CacheShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock().unwrap_or_else(|e| e.into_inner());
                CacheShardStats {
                    entries: s.map.len(),
                    bytes: s.bytes,
                }
            })
            .collect()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            partial_hits: self.partial_hits.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
                .sum(),
            bytes: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).bytes)
                .sum(),
        }
    }
}

impl Default for WindowCache {
    fn default() -> Self {
        WindowCache::new(CacheConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvdb_storage::{EdgeGeometry, PageId};

    fn cached(rows: usize) -> CachedWindow {
        let rows = (0..rows)
            .map(|i| {
                (
                    RowId {
                        page: PageId(1),
                        slot: i as u16,
                    },
                    EdgeRow {
                        node1_id: i as u64,
                        node1_label: format!("n{i}").into(),
                        geometry: EdgeGeometry {
                            x1: 0.0,
                            y1: 0.0,
                            x2: 1.0,
                            y2: 1.0,
                            directed: false,
                        },
                        edge_label: "".into(),
                        node2_id: i as u64 + 1,
                        node2_label: format!("n{}", i + 1).into(),
                    },
                )
            })
            .collect::<Vec<_>>();
        let json = crate::json::build_graph_json(&rows);
        let node_refs = CachedWindow::count_node_refs(&rows);
        let rids = rows.iter().map(|(rid, _)| *rid).collect();
        CachedWindow {
            rows: Arc::new(rows),
            rids: Arc::new(rids),
            json: Arc::new(json),
            node_refs: Arc::new(node_refs),
        }
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = WindowCache::default();
        let w = Rect::new(0.0, 0.0, 100.0, 100.0);
        assert!(cache.get(0, &w, 0).is_none());
        cache.insert(0, &w, 0, cached(3));
        let hit = cache.get(0, &w, 0).expect("hit");
        assert_eq!(hit.rows.len(), 3);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn layer_is_part_of_the_key() {
        let cache = WindowCache::default();
        let w = Rect::new(0.0, 0.0, 10.0, 10.0);
        cache.insert(0, &w, 0, cached(1));
        assert!(cache.get(1, &w, 0).is_none());
        assert!(cache.get(0, &w, 0).is_some());
    }

    #[test]
    fn nearby_windows_are_cached_separately() {
        // Two windows 0.1 apart are distinct keys: both stay cached and
        // each serves its own rows.
        let cache = WindowCache::default();
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(0.1, 0.1, 10.1, 10.1);
        cache.insert(0, &a, 0, cached(5));
        cache.insert(0, &b, 0, cached(7));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.get(0, &a, 0).expect("a cached").rows.len(), 5);
        assert_eq!(cache.get(0, &b, 0).expect("b cached").rows.len(), 7);
    }

    #[test]
    fn eviction_at_capacity_is_lru() {
        let cache = WindowCache::new(CacheConfig {
            capacity: 4,
            shards: 1,
            ..CacheConfig::default()
        });
        let w = |i: usize| Rect::new(i as f64, 0.0, i as f64 + 1.0, 1.0);
        for i in 0..4 {
            cache.insert(0, &w(i), 0, cached(i + 1));
        }
        // Touch 0 so 1 becomes the LRU, then overflow.
        assert!(cache.get(0, &w(0), 0).is_some());
        cache.insert(0, &w(4), 0, cached(5));
        assert_eq!(cache.stats().entries, 4);
        assert!(cache.get(0, &w(1), 0).is_none(), "LRU entry evicted");
        assert!(cache.get(0, &w(0), 0).is_some(), "recently used survives");
        assert!(cache.get(0, &w(4), 0).is_some(), "new entry present");
    }

    #[test]
    fn best_overlap_finds_the_biggest_cover() {
        let cache = WindowCache::default();
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(5.0, 0.0, 15.0, 10.0);
        cache.insert(0, &a, 0, cached(3));
        cache.insert(0, &b, 0, cached(4));
        // A window mostly inside `b`.
        let w = Rect::new(6.0, 0.0, 14.0, 10.0);
        let (anchor, value) = cache.best_overlap(0, &w, 0, 0.5).expect("partial hit");
        assert_eq!(anchor, b);
        assert_eq!(value.rows.len(), 4);
        assert_eq!(cache.stats().partial_hits, 1);
        // Wrong layer: nothing.
        assert!(cache.best_overlap(1, &w, 0, 0.5).is_none());
        // Fraction threshold respected.
        let far = Rect::new(100.0, 100.0, 110.0, 110.0);
        assert!(cache.best_overlap(0, &far, 0, 0.1).is_none());
    }

    #[test]
    fn peek_does_not_count() {
        let cache = WindowCache::default();
        let w = Rect::new(0.0, 0.0, 5.0, 5.0);
        assert!(cache.peek(0, &w, 0).is_none());
        cache.insert(0, &w, 0, cached(2));
        assert!(cache.peek(0, &w, 0).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    #[test]
    fn invalidate_layer_spares_other_layers() {
        let cache = WindowCache::default();
        for layer in 0..3 {
            for i in 0..8 {
                cache.insert(
                    layer,
                    &Rect::new(i as f64, 0.0, i as f64 + 1.0, 1.0),
                    0,
                    cached(2),
                );
            }
        }
        let before = cache.stats();
        assert_eq!(before.entries, 24);
        cache.invalidate_layer(1);
        let after = cache.stats();
        assert_eq!(after.entries, 16, "only layer 1's entries dropped");
        assert!(after.bytes < before.bytes);
        assert!(cache.get(1, &Rect::new(0.0, 0.0, 1.0, 1.0), 0).is_none());
        assert!(cache.get(0, &Rect::new(0.0, 0.0, 1.0, 1.0), 0).is_some());
        assert!(cache.get(2, &Rect::new(0.0, 0.0, 1.0, 1.0), 0).is_some());
    }

    #[test]
    fn invalidate_all_clears_every_shard() {
        let cache = WindowCache::default();
        for i in 0..32 {
            cache.insert(
                0,
                &Rect::new(i as f64, 0.0, i as f64 + 1.0, 1.0),
                0,
                cached(1),
            );
        }
        assert!(cache.stats().entries > 0);
        cache.invalidate_all();
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.get(0, &Rect::new(0.0, 0.0, 1.0, 1.0), 0).is_none());
    }

    #[test]
    fn byte_budget_evicts_and_refuses_oversized() {
        let one_entry_bytes = cached(10).approx_bytes();
        let cache = WindowCache::new(CacheConfig {
            capacity: 1_000,
            max_bytes: one_entry_bytes * 3, // one shard, fits ~3 entries
            shards: 1,
            ..CacheConfig::default()
        });
        let w = |i: usize| Rect::new(i as f64, 0.0, i as f64 + 1.0, 1.0);
        for i in 0..6 {
            cache.insert(0, &w(i), 0, cached(10));
        }
        let stats = cache.stats();
        assert!(
            stats.entries <= 3,
            "byte budget must bound entries, got {}",
            stats.entries
        );
        assert!(stats.bytes <= one_entry_bytes * 3);
        // An entry alone bigger than the whole budget is refused outright.
        cache.invalidate_all();
        cache.insert(0, &w(0), 0, cached(1_000));
        assert_eq!(cache.stats().entries, 0, "oversized result not cached");
        // ...but normal entries still cache afterwards.
        cache.insert(0, &w(1), 0, cached(10));
        assert!(cache.get(0, &w(1), 0).is_some());
    }

    #[test]
    fn invalidate_resets_byte_accounting() {
        let cache = WindowCache::default();
        cache.insert(0, &Rect::new(0.0, 0.0, 1.0, 1.0), 0, cached(20));
        assert!(cache.stats().bytes > 0);
        cache.invalidate_all();
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn whole_plane_windows_do_not_overflow() {
        let cache = WindowCache::default();
        let w = Rect::new(-1e12, -1e12, 1e12, 1e12);
        cache.insert(3, &w, 0, cached(2));
        assert!(cache.get(3, &w, 0).is_some());
    }

    #[test]
    fn concurrent_hammering_is_consistent() {
        let cache = Arc::new(WindowCache::default());
        let w = Rect::new(0.0, 0.0, 50.0, 50.0);
        cache.insert(0, &w, 0, cached(7));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    let w = Rect::new(0.0, 0.0, 50.0, 50.0);
                    for _ in 0..500 {
                        let hit = cache.get(0, &w, 0).expect("entry stays");
                        assert_eq!(hit.rows.len(), 7);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.stats().hits, 8 * 500);
    }

    #[test]
    fn stale_epoch_entry_is_a_miss_and_pruned() {
        let cache = WindowCache::default();
        let w = Rect::new(0.0, 0.0, 100.0, 100.0);
        cache.insert(0, &w, 3, cached(4));
        assert!(cache.get(0, &w, 3).is_some(), "matching epoch serves");
        // An edit bumped the layer to epoch 4: the entry must never be
        // served again, and the probe prunes it.
        assert!(cache.get(0, &w, 4).is_none(), "stale epoch rejected");
        assert_eq!(cache.stats().entries, 0, "stale entry pruned");
        // Same for the overlap scan of the delta path.
        cache.insert(0, &w, 3, cached(4));
        let probe = Rect::new(10.0, 0.0, 110.0, 100.0);
        assert!(cache.best_overlap(0, &probe, 3, 0.5).is_some());
        assert!(
            cache.best_overlap(0, &probe, 4, 0.5).is_none(),
            "delta anchors must be epoch-checked too"
        );
    }

    #[test]
    fn shard_stats_sum_to_totals() {
        let cache = WindowCache::default();
        for i in 0..24 {
            cache.insert(
                0,
                &Rect::new(i as f64, 0.0, i as f64 + 1.0, 1.0),
                0,
                cached(2),
            );
        }
        let total = cache.stats();
        let shards = cache.shard_stats();
        assert_eq!(
            shards.iter().map(|s| s.entries).sum::<usize>(),
            total.entries
        );
        assert_eq!(shards.iter().map(|s| s.bytes).sum::<usize>(), total.bytes);
        assert!(
            shards.iter().filter(|s| s.entries > 0).count() > 1,
            "entries must stripe across shards"
        );
    }
}
