//! The disk-resident R-tree over edge geometries — the index every window
//! query descends (paper §II-B: "The query is evaluated with a lookup in
//! the R-tree of Fig. 2").
//!
//! Layers are write-once after preprocessing, so the tree is **packed**:
//! built bottom-up with the same Sort-Tile-Recursive order as
//! `gvdb-spatial`, stored one node per page, and queried through the
//! buffer pool — only the pages a window actually touches are read, which
//! is what gives the platform its "extremely low memory requirements".
//!
//! Canvas edits (the paper's Edit panel) go to a small in-memory overlay:
//! a flat list of the segments inserted since the last pack, scanned in
//! the same pass as the packed leaves, plus a tombstone set of deleted
//! row ids. The table layer repacks the tree from the heap on flush.
//!
//! Keys are **grid pieces**: `build` cuts each edge where it crosses the
//! lines of a [`CLIP_GRID`]² grid over the layer's extent, and each piece
//! is one leaf entry whose box (padded so the pieces cover the edge) sets
//! the leaf's MBR. A long edge then widens only the leaves near each of
//! its pieces, and a small window descends to few leaves. Every entry
//! still holds the **whole** edge's endpoints and its row id, so a window
//! that meets several pieces of one edge finds it once per piece, and the
//! sort and dedup in [`PagedRTree::windows`] keep one hit.
//!
//! Leaves store each edge's **endpoints**, not its bounding box, so the
//! leaf scan runs the exact [`Segment::intersects_rect`] test and a
//! window returns only rows whose edge really crosses it: the heap is
//! never asked for a long edge whose box merely overlaps the window.
//! Internal nodes keep (normalized) MBRs.
//!
//! Freshly built leaves use the compressed endpoint format (tag 4, see
//! [`crate::compress`]): channels XOR-delta'd against the previous entry,
//! row ids zigzag-delta'd — STR order makes neighbours similar, so a
//! compressed leaf packs well past the plain fanout. Leaves are only ever
//! scanned whole, so the sequential encoding costs nothing on reads.
//!
//! Internal pages, and the leaves of files written before leaves stored
//! endpoints, use the plain layout (tag 1 = leaf, 2 = internal; 40-byte
//! entries → fanout 204):
//! ```text
//! [tag u16][count u16][ rect: 4 x f64 | payload u64 ] x count
//! ```
//! Leaf payloads are packed row ids; internal payloads are child page ids.
//! Bounding-box leaves (tags 1 and 3) stay readable; their hits come back
//! with [`Hit::exact`] unset, for the caller to refine against the row.

use crate::buffer::BufferPool;
use crate::compress::{self, RtreeLeafBuilder};
use crate::error::{Result, StorageError};
use crate::page::{PageId, PAGE_SIZE};
use gvdb_spatial::{Point, Rect, Segment};
use std::collections::HashSet;

const TAG_LEAF: u16 = 1;
const TAG_INTERNAL: u16 = 2;
const HEADER: usize = 4;
const ENTRY: usize = 40;
/// Entries per page.
pub const FANOUT: usize = (PAGE_SIZE - HEADER) / ENTRY;

/// A packed on-disk R-tree plus its edit overlay.
#[derive(Debug)]
pub struct PagedRTree {
    root: Option<PageId>,
    len: u64,
    /// Segments inserted since the last pack, one per live row id.
    overlay: Vec<(u64, Segment)>,
    /// Row ids deleted since the last pack (tombstones).
    tombstones: HashSet<u64>,
}

/// Persistent identity of a packed tree (stored in the catalog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedRoot {
    /// Root page, 0 when the tree is empty.
    pub root: u64,
    /// Rows in the packed tree: grid pieces are not counted, so this
    /// stays the row count however many leaf entries the clipping made.
    pub len: u64,
}

/// One entry a window query returned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Bounding box of the entry's whole edge (not of a grid piece).
    pub bbox: Rect,
    /// Packed row id.
    pub row: u64,
    /// Whether the edge itself crosses a window. Unset only for entries
    /// of bounding-box leaves (tags 1 and 3, from older files), whose box
    /// merely overlaps one.
    pub exact: bool,
}

impl PagedRTree {
    /// Build a packed tree from `(segment, row)` entries, writing pages
    /// into `pool`. Each segment is first cut at the lines of a
    /// [`CLIP_GRID`]² grid over the entries' extent; the pieces are put in
    /// STR order by the centers of their keys and
    /// every piece becomes one leaf entry carrying the whole segment.
    pub fn build(pool: &BufferPool, entries: Vec<(Segment, u64)>) -> Result<Self> {
        let len = entries.len() as u64;
        if entries.is_empty() {
            return Ok(PagedRTree {
                root: None,
                len: 0,
                overlay: Vec::new(),
                tombstones: HashSet::new(),
            });
        }
        // STR: sort by center x, slice, sort slices by center y, chunk.
        // Ties go by row id, then piece order, so the pages come out the
        // same whatever order the entries arrive in.
        let mut pieces = clip_to_grid(&entries);
        let str_order = |center: fn(&Rect) -> f64| {
            let entries = &entries;
            move |a: &Piece, b: &Piece| {
                center(&a.key)
                    .total_cmp(&center(&b.key))
                    .then(
                        entries[a.entry as usize]
                            .1
                            .cmp(&entries[b.entry as usize].1),
                    )
                    .then(a.part.cmp(&b.part))
            }
        };
        let n = pieces.len();
        let pages = n.div_ceil(FANOUT);
        let slices = (pages as f64).sqrt().ceil() as usize;
        pieces.sort_unstable_by(str_order(|r| r.min_x + r.max_x));
        let mut level: Vec<(Rect, u64)> = Vec::with_capacity(pages);
        for slice in pieces.chunks_mut(n.div_ceil(slices)) {
            slice.sort_unstable_by(str_order(|r| r.min_y + r.max_y));
            // Pack the y-sorted run into compressed leaves: push until the
            // builder refuses (page full), then seal and start the next
            // leaf. Leaves are variable-fanout — locality decides how many
            // entries fit, typically well past the plain FANOUT.
            let mut builder = RtreeLeafBuilder::new();
            let mut mbr: Option<Rect> = None;
            for piece in slice.iter() {
                let (seg, payload) = entries[piece.entry as usize];
                let channels = [seg.a.x, seg.a.y, seg.b.x, seg.b.y];
                if builder.push(channels, payload) {
                    mbr = Some(mbr.map_or(piece.key, |m| m.union(&piece.key)));
                    continue;
                }
                let pid = Self::write_compressed_leaf(pool, &builder)?;
                level.push((mbr.take().expect("sealed leaf has entries"), pid.0));
                builder = RtreeLeafBuilder::new();
                let pushed = builder.push(channels, payload);
                debug_assert!(pushed, "entry must fit an empty leaf");
                mbr = Some(piece.key);
            }
            if !builder.is_empty() {
                let pid = Self::write_compressed_leaf(pool, &builder)?;
                level.push((mbr.take().expect("sealed leaf has entries"), pid.0));
            }
        }
        // Pack upper levels until a single root remains.
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(FANOUT));
            let mut rest = level;
            while !rest.is_empty() {
                let take = FANOUT.min(rest.len());
                let chunk: Vec<(Rect, u64)> = rest.drain(..take).collect();
                let (pid, mbr) = Self::write_node(pool, TAG_INTERNAL, &chunk)?;
                next.push((mbr, pid.0));
            }
            level = next;
        }
        Ok(PagedRTree {
            root: Some(PageId(level[0].1)),
            len,
            overlay: Vec::new(),
            tombstones: HashSet::new(),
        })
    }

    /// Reattach to a packed tree persisted in the catalog.
    pub fn open(packed: PackedRoot) -> Self {
        PagedRTree {
            root: if packed.root == 0 {
                None
            } else {
                Some(PageId(packed.root))
            },
            len: packed.len,
            overlay: Vec::new(),
            tombstones: HashSet::new(),
        }
    }

    /// Persistent identity for the catalog.
    pub fn packed_root(&self) -> PackedRoot {
        PackedRoot {
            root: self.root.map(|p| p.0).unwrap_or(0),
            len: self.len,
        }
    }

    /// Entries in the packed portion (overlay counted separately).
    pub fn packed_len(&self) -> u64 {
        self.len
    }

    /// Whether edits exist that are not reflected in the packed pages.
    pub fn is_dirty(&self) -> bool {
        !self.overlay.is_empty() || !self.tombstones.is_empty()
    }

    /// Insert the segment of a new row (goes to the overlay).
    pub fn insert(&mut self, seg: Segment, row: u64) {
        self.overlay.push((row, seg));
    }

    /// Delete a row's segment. Rows inserted since the last pack leave the
    /// overlay (live row ids are unique, so the id finds the entry); rows
    /// in the packed pages get a tombstone.
    pub fn remove(&mut self, row: u64) {
        if let Some(i) = self.overlay.iter().position(|(r, _)| *r == row) {
            self.overlay.swap_remove(i);
        } else {
            self.tombstones.insert(row);
        }
    }

    /// Every entry whose edge crosses `window`, overlay merged and
    /// tombstones filtered, ascending by row id.
    pub fn window(&self, pool: &BufferPool, window: &Rect) -> Result<Vec<Hit>> {
        self.windows(pool, std::slice::from_ref(window))
    }

    /// Every entry whose edge crosses **any** of `windows`, in one
    /// descent: an internal node is entered once if its MBR touches any
    /// window, so the strip queries of a delta pan (the whole change ring
    /// of up to eight strips) share the upper tree levels and pin each
    /// page at most once, instead of one full descent per strip. Entries
    /// matching several windows are emitted once, sorted ascending by
    /// row id.
    pub fn windows(&self, pool: &BufferPool, windows: &[Rect]) -> Result<Vec<Hit>> {
        let mut out = Vec::new();
        if windows.is_empty() {
            return Ok(out);
        }
        let touches = |r: &Rect| windows.iter().any(|w| r.intersects(w));
        let crosses = |seg: &Segment, bbox: &Rect| {
            windows
                .iter()
                .any(|w| bbox.intersects(w) && seg.intersects_rect(w))
        };
        let live = |row: &u64| !self.tombstones.contains(row);
        if let Some(root) = self.root {
            let mut stack = vec![root];
            while let Some(pid) = stack.pop() {
                pool.with_page(pid, |p| match p.get_u16(0) {
                    compress::TAG_LEAF_SEGMENTS => {
                        compress::scan_rtree_leaf(p, |x1, y1, x2, y2, row| {
                            let seg = Segment::new(Point::new(x1, y1), Point::new(x2, y2));
                            let bbox = seg.bbox();
                            if crosses(&seg, &bbox) && live(&row) {
                                out.push(Hit {
                                    bbox,
                                    row,
                                    exact: true,
                                });
                            }
                        })
                    }
                    compress::TAG_LEAF_COMPRESSED => {
                        compress::scan_rtree_leaf(p, |min_x, min_y, max_x, max_y, row| {
                            let bbox = Rect::new(min_x, min_y, max_x, max_y);
                            if touches(&bbox) && live(&row) {
                                out.push(Hit {
                                    bbox,
                                    row,
                                    exact: false,
                                });
                            }
                        })
                    }
                    tag @ (TAG_LEAF | TAG_INTERNAL) => {
                        let count = p.get_u16(2) as usize;
                        for i in 0..count {
                            let base = HEADER + i * ENTRY;
                            let bbox = Rect::new(
                                p.get_f64(base),
                                p.get_f64(base + 8),
                                p.get_f64(base + 16),
                                p.get_f64(base + 24),
                            );
                            if !touches(&bbox) {
                                continue;
                            }
                            let payload = p.get_u64(base + 32);
                            if tag == TAG_INTERNAL {
                                stack.push(PageId(payload));
                            } else if live(&payload) {
                                out.push(Hit {
                                    bbox,
                                    row: payload,
                                    exact: false,
                                });
                            }
                        }
                        Ok(())
                    }
                    tag => Err(StorageError::Corrupt(format!("bad rtree page tag {tag}"))),
                })??;
            }
        }
        for &(row, seg) in &self.overlay {
            let bbox = seg.bbox();
            if crosses(&seg, &bbox) {
                out.push(Hit {
                    bbox,
                    row,
                    exact: true,
                });
            }
        }
        out.sort_unstable_by_key(|h| h.row);
        out.dedup_by_key(|h| h.row);
        Ok(out)
    }

    /// Free all packed pages (before a rebuild). Overlay/tombstones remain.
    pub fn free_packed(&mut self, pool: &BufferPool) -> Result<()> {
        if let Some(root) = self.root.take() {
            let mut stack = vec![root];
            while let Some(pid) = stack.pop() {
                let children = pool.with_page(pid, |p| {
                    let tag = p.get_u16(0);
                    let count = p.get_u16(2) as usize;
                    let mut children = Vec::new();
                    if tag == TAG_INTERNAL {
                        for i in 0..count {
                            children.push(PageId(p.get_u64(HEADER + i * ENTRY + 32)));
                        }
                    }
                    children
                })?;
                pool.free(pid)?;
                stack.extend(children);
            }
        }
        self.len = 0;
        Ok(())
    }

    fn write_compressed_leaf(pool: &BufferPool, builder: &RtreeLeafBuilder) -> Result<PageId> {
        debug_assert!(!builder.is_empty());
        let image = builder.seal();
        let pid = pool.allocate()?;
        pool.with_page_mut(pid, |p| p.put_slice(0, image.bytes()))?;
        Ok(pid)
    }

    fn write_node(pool: &BufferPool, tag: u16, entries: &[(Rect, u64)]) -> Result<(PageId, Rect)> {
        debug_assert!(!entries.is_empty() && entries.len() <= FANOUT);
        let pid = pool.allocate()?;
        let mut mbr = entries[0].0;
        pool.with_page_mut(pid, |p| {
            p.put_u16(0, tag);
            p.put_u16(2, entries.len() as u16);
            for (i, (rect, payload)) in entries.iter().enumerate() {
                let base = HEADER + i * ENTRY;
                p.put_f64(base, rect.min_x);
                p.put_f64(base + 8, rect.min_y);
                p.put_f64(base + 16, rect.max_x);
                p.put_f64(base + 24, rect.max_y);
                p.put_u64(base + 32, *payload);
                mbr = mbr.union(rect);
            }
        })?;
        Ok((pid, mbr))
    }
}

/// Cells per side of the grid [`PagedRTree::build`] clips segments to.
/// A long edge's box overlaps most leaves of an STR tree; cut at the grid
/// lines, each piece's box stays within one cell, so a small window only
/// descends to the leaves near it. Finer grids save little more on the
/// benchmark layers (8 reads 39 leaves per small window against 44 at 4)
/// for 1.65× the index entries.
pub const CLIP_GRID: usize = 4;

/// Pad on a piece's key, relative to its segment's largest coordinate —
/// orders of magnitude above the rounding in a computed cut point, so the
/// keys of consecutive pieces always overlap and cover the whole segment.
const PIECE_PAD: f64 = 1e-12;

/// One grid piece of an entry's segment: the leaf entry written for it.
struct Piece {
    /// The piece's box, padded and clamped to the whole segment's box:
    /// the key for STR order and for the leaf's MBR.
    key: Rect,
    /// Index into the `build` entries.
    entry: u32,
    /// Position of the piece along its segment, from endpoint `a`.
    part: u32,
}

/// Cut every segment where it crosses the lines of a [`CLIP_GRID`]²
/// grid over the union of the entries' boxes. A segment that stays in
/// one cell is one piece keyed by its own box.
fn clip_to_grid(entries: &[(Segment, u64)]) -> Vec<Piece> {
    let extent = entries
        .iter()
        .map(|(seg, _)| seg.bbox())
        .reduce(|a, b| a.union(&b))
        .expect("clip_to_grid takes at least one entry");
    let cell_w = (extent.max_x - extent.min_x) / CLIP_GRID as f64;
    let cell_h = (extent.max_y - extent.min_y) / CLIP_GRID as f64;
    let mut pieces = Vec::with_capacity(entries.len() * 2);
    let mut cuts: Vec<f64> = Vec::new();
    for (entry, (seg, _)) in entries.iter().enumerate() {
        let (a, b) = (seg.a, seg.b);
        cuts.clear();
        grid_crossings(&mut cuts, a.x, b.x, extent.min_x, cell_w);
        grid_crossings(&mut cuts, a.y, b.y, extent.min_y, cell_h);
        cuts.sort_unstable_by(f64::total_cmp);
        cuts.dedup();
        let bbox = seg.bbox();
        let pad = PIECE_PAD * a.x.abs().max(a.y.abs()).max(b.x.abs()).max(b.y.abs());
        let clamp = |v: f64, lo: f64, hi: f64| v.max(lo).min(hi);
        let mut from = a;
        for part in 0..=cuts.len() {
            let to = cuts.get(part).map_or(b, |&t| {
                Point::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
            });
            let r = Rect::from_points(from, to);
            let key = Rect::new(
                clamp(r.min_x - pad, bbox.min_x, bbox.max_x),
                clamp(r.min_y - pad, bbox.min_y, bbox.max_y),
                clamp(r.max_x + pad, bbox.min_x, bbox.max_x),
                clamp(r.max_y + pad, bbox.min_y, bbox.max_y),
            );
            pieces.push(Piece {
                key,
                entry: entry as u32,
                part: part as u32,
            });
            from = to;
        }
    }
    pieces
}

/// Push the parameters `t` in (0, 1) at which `a + t·(b − a)` crosses a
/// grid line `origin + k·cell` on one axis. The loop runs over the integer
/// range of cells the span touches (at most `CLIP_GRID − 1` lines), so a
/// zero or non-finite cell, or coordinates far from the origin, cut
/// nothing rather than step forever.
fn grid_crossings(cuts: &mut Vec<f64>, a: f64, b: f64, origin: f64, cell: f64) {
    if a == b || !(cell.is_finite() && cell > 0.0) {
        return;
    }
    let last = (CLIP_GRID - 1) as f64;
    // `as` saturates and maps NaN to 0, so the cast cannot go wrong.
    let cell_of = |v: f64| ((v - origin) / cell).floor().clamp(0.0, last) as usize;
    for k in cell_of(a.min(b)) + 1..=cell_of(a.max(b)) {
        let t = (origin + k as f64 * cell - a) / (b - a);
        if t > 0.0 && t < 1.0 {
            cuts.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::PoolStats;
    use crate::pager::Pager;
    use rand::prelude::*;

    fn pool(name: &str) -> (BufferPool, std::path::PathBuf) {
        let mut p = std::env::temp_dir();
        p.push(format!("gvdb-prtree-{name}-{}", std::process::id()));
        (BufferPool::new(Pager::create(&p).unwrap(), 64), p)
    }

    fn seg(x1: f64, y1: f64, x2: f64, y2: f64) -> Segment {
        Segment::new(Point::new(x1, y1), Point::new(x2, y2))
    }

    /// Edges of every orientation, some long: diagonal, anti-diagonal
    /// (endpoint order that inverts the box corners), axis-parallel and
    /// zero-length.
    fn random_entries(n: usize, seed: u64) -> Vec<(Segment, u64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x = rng.random::<f64>() * 1000.0;
                let y = rng.random::<f64>() * 1000.0;
                let len = if i % 7 == 0 { 200.0 } else { 8.0 };
                let dx = (rng.random::<f64>() - 0.5) * len;
                let dy = (rng.random::<f64>() - 0.5) * len;
                let s = match i % 5 {
                    0 => seg(x, y, x + dx, y),
                    1 => seg(x, y, x, y + dy),
                    2 => seg(x, y, x, y),
                    _ => seg(x, y, x + dx, y + dy),
                };
                (s, i as u64)
            })
            .collect()
    }

    fn rows(hits: &[Hit]) -> Vec<u64> {
        hits.iter().map(|h| h.row).collect()
    }

    #[test]
    fn window_matches_exact_linear_scan() {
        let (pool, path) = pool("scan");
        let entries = random_entries(10_000, 1);
        let tree = PagedRTree::build(&pool, entries.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut bbox_only = 0;
        for _ in 0..20 {
            let x = rng.random::<f64>() * 900.0;
            let y = rng.random::<f64>() * 900.0;
            let w = Rect::new(x, y, x + 80.0, y + 80.0);
            let mut expect: Vec<u64> = entries
                .iter()
                .filter(|(s, _)| s.intersects_rect(&w))
                .map(|(_, v)| *v)
                .collect();
            expect.sort_unstable();
            bbox_only += entries
                .iter()
                .filter(|(s, _)| s.bbox().intersects(&w) && !s.intersects_rect(&w))
                .count();
            let hits = tree.window(&pool, &w).unwrap();
            assert!(hits.iter().all(|h| h.exact));
            assert_eq!(rows(&hits), expect, "ascending, exact");
        }
        assert!(bbox_only > 0, "the data must hold box-only matches");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn leaf_test_rejects_a_box_only_match() {
        let (pool, path) = pool("antidiag");
        // Anti-diagonal edge: its box covers the window corner, the
        // segment misses it. Endpoints go in row order, not box order.
        let tree = PagedRTree::build(&pool, vec![(seg(0.0, 20.0, 20.0, 0.0), 1)]).unwrap();
        assert!(tree
            .window(&pool, &Rect::new(0.0, 0.0, 4.0, 4.0))
            .unwrap()
            .is_empty());
        let hits = tree
            .window(&pool, &Rect::new(8.0, 8.0, 12.0, 12.0))
            .unwrap();
        assert_eq!(rows(&hits), vec![1]);
        assert_eq!(hits[0].bbox, Rect::new(0.0, 0.0, 20.0, 20.0));
        // Touching an endpoint counts (closed bounds).
        assert_eq!(
            tree.window(&pool, &Rect::new(20.0, -5.0, 25.0, 0.0))
                .unwrap()
                .len(),
            1
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn windows_is_the_deduplicated_union() {
        let (pool, path) = pool("multi");
        let entries = random_entries(5_000, 9);
        let tree = PagedRTree::build(&pool, entries).unwrap();
        let ws = [
            Rect::new(100.0, 100.0, 300.0, 140.0),
            Rect::new(250.0, 120.0, 280.0, 600.0),
            Rect::new(900.0, 900.0, 950.0, 950.0),
        ];
        let mut union: Vec<u64> = ws
            .iter()
            .flat_map(|w| rows(&tree.window(&pool, w).unwrap()))
            .collect();
        union.sort_unstable();
        union.dedup();
        assert_eq!(rows(&tree.windows(&pool, &ws).unwrap()), union);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persists_via_packed_root() {
        let mut path = std::env::temp_dir();
        path.push(format!("gvdb-prtree-persist-{}", std::process::id()));
        let packed;
        {
            let pool = BufferPool::new(Pager::create(&path).unwrap(), 64);
            let tree = PagedRTree::build(&pool, random_entries(5_000, 3)).unwrap();
            packed = tree.packed_root();
            pool.flush().unwrap();
        }
        {
            let pool = BufferPool::new(Pager::open(&path).unwrap(), 64);
            let tree = PagedRTree::open(packed);
            let hits = tree
                .window(&pool, &Rect::new(-200.0, -200.0, 1200.0, 1200.0))
                .unwrap();
            assert_eq!(hits.len(), 5_000);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overlay_insert_and_tombstones() {
        let (pool, path) = pool("overlay");
        let entries = random_entries(100, 4);
        let mut tree = PagedRTree::build(&pool, entries.clone()).unwrap();
        assert!(!tree.is_dirty());
        // Insert a fresh anti-diagonal edge far away.
        tree.insert(seg(5000.0, 5010.0, 5010.0, 5000.0), 999);
        // Delete a packed row.
        tree.remove(0);
        assert!(tree.is_dirty());
        let everything = Rect::new(-500.0, -500.0, 10_000.0, 10_000.0);
        let hits = tree.window(&pool, &everything).unwrap();
        assert_eq!(hits.len(), 100); // 100 - 1 deleted + 1 inserted
        assert!(hits.iter().any(|h| h.row == 999));
        assert!(!hits.iter().any(|h| h.row == 0));
        // The overlay runs the exact test too.
        let corner = Rect::new(5000.0, 5000.0, 5002.0, 5002.0);
        assert!(tree.window(&pool, &corner).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overlay_remove_of_overlay_insert_cancels() {
        let (pool, path) = pool("cancel");
        let mut tree = PagedRTree::build(&pool, Vec::new()).unwrap();
        let s = seg(2.0, 1.0, 1.0, 2.0);
        tree.insert(s, 7);
        tree.remove(7);
        assert!(tree.tombstones.is_empty(), "no tombstone for overlay rows");
        let hits = tree
            .window(&pool, &Rect::new(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        assert!(hits.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bounding_box_leaves_stay_readable_and_inexact() {
        let (pool, path) = pool("legacy");
        // A leaf written before leaves stored endpoints: tag 3, box
        // channels. Its hits are box matches, flagged for refinement.
        let mut b = RtreeLeafBuilder::new();
        assert!(b.push([0.0, 0.0, 20.0, 20.0], 1));
        assert!(b.push([50.0, 50.0, 60.0, 55.0], 2));
        let mut image = b.seal();
        image.put_u16(0, compress::TAG_LEAF_COMPRESSED);
        let pid = pool.allocate().unwrap();
        pool.with_page_mut(pid, |p| p.put_slice(0, image.bytes()))
            .unwrap();
        let tree = PagedRTree::open(PackedRoot {
            root: pid.0,
            len: 2,
        });
        let hits = tree.window(&pool, &Rect::new(0.0, 0.0, 4.0, 4.0)).unwrap();
        assert_eq!(rows(&hits), vec![1]);
        assert!(!hits[0].exact);
        assert_eq!(hits[0].bbox, Rect::new(0.0, 0.0, 20.0, 20.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn free_packed_releases_pages() {
        let (pool, path) = pool("free");
        let before = pool.page_count();
        let mut tree = PagedRTree::build(&pool, random_entries(2_000, 5)).unwrap();
        let after_build = pool.page_count();
        assert!(after_build > before);
        tree.free_packed(&pool).unwrap();
        // Rebuild reuses freed pages rather than growing the file.
        let rebuilt = PagedRTree::build(&pool, random_entries(2_000, 6)).unwrap();
        assert!(
            pool.page_count() <= after_build + 1,
            "file grew after rebuild"
        );
        assert_eq!(rebuilt.packed_len(), 2_000);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compressed_leaves_pack_past_plain_fanout() {
        let (pool, path) = pool("dense");
        let before = pool.page_count();
        let n = 10_000usize;
        let tree = PagedRTree::build(&pool, random_entries(n, 8)).unwrap();
        let pages_used = (pool.page_count() - before) as usize;
        // Plain leaves alone would need ceil(n / FANOUT) pages; compressed
        // leaves must beat that even with the internal level included.
        assert!(
            pages_used < n.div_ceil(FANOUT),
            "compressed build used {pages_used} pages, plain leaves need {}",
            n.div_ceil(FANOUT)
        );
        // And the data is still all there.
        let hits = tree
            .window(&pool, &Rect::new(-200.0, -200.0, 1200.0, 1200.0))
            .unwrap();
        assert_eq!(hits.len(), n);
        std::fs::remove_file(&path).ok();
    }

    /// Rows whose edge crosses `w`, by a linear scan of `entries`.
    fn scan(entries: &[(Segment, u64)], w: &Rect) -> Vec<u64> {
        let mut rows: Vec<u64> = entries
            .iter()
            .filter(|(s, _)| s.bbox().intersects(w) && s.intersects_rect(w))
            .map(|(_, row)| *row)
            .collect();
        rows.sort_unstable();
        rows
    }

    /// Edges over a 1000² plane (grid lines every 250) that stress the
    /// clipping: corner-to-corner diagonals through every grid corner,
    /// edges lying along grid lines, edges crossing many cells,
    /// axis-parallel and zero-length edges, all moved by `offset`.
    fn grid_stress_entries(offset: f64) -> Vec<(Segment, u64)> {
        let o = offset;
        let mut segs = vec![
            seg(o, o, o + 1000.0, o + 1000.0),
            seg(o, o + 1000.0, o + 1000.0, o),
            seg(o + 500.0, o + 500.0, o + 500.0, o + 500.0),
        ];
        for k in 0..=4 {
            let line = o + 250.0 * k as f64;
            segs.push(seg(line, o + 30.0, line, o + 970.0));
            segs.push(seg(o + 970.0, line, o + 30.0, line));
            segs.push(seg(line, line, line, line));
        }
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..600 {
            let p = |rng: &mut StdRng| o + rng.random::<f64>() * 1000.0;
            let (x, y, u, v) = (p(&mut rng), p(&mut rng), p(&mut rng), p(&mut rng));
            segs.push(match i % 4 {
                0 => seg(x, y, u, v),
                1 => seg(x, y, u, y),
                2 => seg(x, y, x, v),
                _ => seg(x, y, x + 3.0, y - 2.0),
            });
        }
        segs.into_iter().zip(0..).collect()
    }

    /// Windows that touch a stress edge only where `build` cut it: a
    /// corner on the point where the edge crosses a grid line, the window
    /// lying to either side of it.
    fn cut_point_windows(entries: &[(Segment, u64)], offset: f64) -> Vec<Rect> {
        let mut out = Vec::new();
        for (s, _) in entries.iter().take(40) {
            for k in 1..4 {
                let line = offset + 250.0 * k as f64;
                if (s.a.x - line) * (s.b.x - line) >= 0.0 {
                    continue;
                }
                let t = (line - s.a.x) / (s.b.x - s.a.x);
                let y = s.a.y + t * (s.b.y - s.a.y);
                out.push(Rect::new(line, y, line + 20.0, y + 20.0));
                out.push(Rect::new(line - 20.0, y - 20.0, line, y));
                out.push(Rect::new(line, y - 20.0, line + 20.0, y));
                out.push(Rect::new(line - 20.0, y, line, y + 20.0));
            }
        }
        out
    }

    #[test]
    fn clipped_edges_match_linear_scan() {
        for offset in [0.0, -3.5e6, 1e12] {
            let (pool, path) = pool("clip");
            let entries = grid_stress_entries(offset);
            let tree = PagedRTree::build(&pool, entries.clone()).unwrap();
            assert_eq!(tree.packed_len(), entries.len() as u64, "rows, not pieces");
            let mut windows = cut_point_windows(&entries, offset);
            assert!(windows.len() > 20, "the diagonals cross grid lines");
            let mut rng = StdRng::seed_from_u64(12);
            for _ in 0..60 {
                let x = offset + rng.random::<f64>() * 1000.0;
                let y = offset + rng.random::<f64>() * 1000.0;
                let side = rng.random::<f64>() * 120.0;
                windows.push(Rect::new(x, y, x + side, y + side));
            }
            for line in [250.0, 500.0, 750.0] {
                let l = offset + line;
                windows.push(Rect::new(l, l, l, l));
                windows.push(Rect::new(l - 1.0, offset, l, offset + 1000.0));
            }
            for w in &windows {
                let hits = tree.window(&pool, w).unwrap();
                assert_eq!(
                    rows(&hits),
                    scan(&entries, w),
                    "offset {offset} window {w:?}"
                );
                for h in &hits {
                    let (s, _) = entries[h.row as usize];
                    assert_eq!(h.bbox, s.bbox(), "hits carry the whole edge's box");
                }
            }
            let everything =
                Rect::new(offset - 1.0, offset - 1.0, offset + 1001.0, offset + 1001.0);
            assert_eq!(
                tree.window(&pool, &everything).unwrap().len(),
                entries.len()
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn single_point_extent_builds_and_answers() {
        let (pool, path) = pool("point");
        let entries: Vec<(Segment, u64)> =
            (0..500).map(|i| (seg(7.0, -3.0, 7.0, -3.0), i)).collect();
        let tree = PagedRTree::build(&pool, entries).unwrap();
        let hits = tree
            .window(&pool, &Rect::new(7.0, -3.0, 7.0, -3.0))
            .unwrap();
        assert_eq!(rows(&hits), (0..500).collect::<Vec<u64>>());
        assert!(tree
            .window(&pool, &Rect::new(7.5, -3.0, 8.0, 0.0))
            .unwrap()
            .is_empty());
        std::fs::remove_file(&path).ok();
    }

    /// Pages a small window pins on a layer of long edges, read as the
    /// change in pool hits plus misses. Before edges were clipped, every
    /// leaf whose box a long edge stretched over the window was read:
    /// 13.8 pages per window on this layer, against 9.6 with clipping.
    #[test]
    fn small_window_pins_only_nearby_pages() {
        let (pool, path) = pool("pins");
        let mut rng = StdRng::seed_from_u64(13);
        let entries: Vec<(Segment, u64)> = (0..20_000u64)
            .map(|i| {
                let x = rng.random::<f64>() * 1000.0;
                let y = rng.random::<f64>() * 1000.0;
                let u = (x + (rng.random::<f64>() - 0.5) * 600.0).clamp(0.0, 1000.0);
                let v = (y + (rng.random::<f64>() - 0.5) * 600.0).clamp(0.0, 1000.0);
                (seg(x, y, u, v), i)
            })
            .collect();
        let tree = PagedRTree::build(&pool, entries.clone()).unwrap();
        let pins = |s: PoolStats| s.hits + s.misses;
        let windows = 50;
        let mut pinned = 0;
        for _ in 0..windows {
            let x = rng.random::<f64>() * 950.0;
            let y = rng.random::<f64>() * 950.0;
            let w = Rect::new(x, y, x + 50.0, y + 50.0);
            let before = pins(pool.stats().snapshot());
            let hits = tree.window(&pool, &w).unwrap();
            pinned += pins(pool.stats().snapshot()) - before;
            assert_eq!(rows(&hits), scan(&entries, &w));
        }
        let per_window = pinned as f64 / windows as f64;
        assert!(
            per_window < 12.0,
            "a 5% window pinned {per_window:.1} pages"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_tree() {
        let (pool, path) = pool("empty");
        let tree = PagedRTree::build(&pool, Vec::new()).unwrap();
        assert_eq!(tree.packed_root().root, 0);
        assert!(tree
            .window(&pool, &Rect::new(0.0, 0.0, 1.0, 1.0))
            .unwrap()
            .is_empty());
        std::fs::remove_file(&path).ok();
    }
}
