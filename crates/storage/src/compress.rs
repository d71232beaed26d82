//! Compressed page codecs: delta/dictionary-encoded heap pages and
//! delta-encoded static R-tree leaves.
//!
//! Bulk-built data is Morton-ordered and write-once, which makes it very
//! compressible: consecutive rows share labels (dictionary), endpoints
//! (per-page node table) and nearby coordinates (XOR-vs-base with
//! significant-byte truncation). Edit-path inserts keep writing plain
//! slotted pages — a compressed page is sealed at build time and never
//! grows.
//!
//! # Compressed heap page layout
//!
//! ```text
//! 0..8    next        u64   page chain pointer (same slot as plain pages)
//! 8..10   slot_count  u16   | 0x8000 (plain pages never exceed 2047 slots)
//! 10..12  magic       u16   = 0xC0DE (plain pages keep free_end <= 8192 here)
//! 12..16  logical_len u32   plain-equivalent bytes (header + slots + records)
//! 16..20  labels_off/labels_cnt u16 x2
//! 20..24  nodes_off/nodes_cnt   u16 x2
//! 24..40  x_base/y_base         f64 bits of the first node entry
//! 40..    slot dir: [cell_off u16] per slot (0xFFFF = dead), then cells
//! ...     label dict: [entry_off u16] x cnt, then front-coded entries
//! ...     node dict:  [entry_off u16] x cnt, then entries
//! ```
//!
//! A cell is `varint((node1_idx << 2) | raw << 1 | directed)` followed by
//! `varint(node2_idx), varint(edge_label_idx)` — or, for records that are
//! not canonical [`EdgeRow`](crate::record::EdgeRow) encodings, by
//! `varint(len)` and the verbatim bytes (`raw` set). Node entries are
//! `(varint id, varint label_idx, nibble-header, x/y XOR-vs-base bytes)`;
//! label entries are front-coded against entry 0. Every structure is
//! reachable through an offset table, so a single slot decodes without
//! touching the rest of the page.
//!
//! # Compressed R-tree leaf layout
//!
//! ```text
//! 0..2   tag   u16 = 4      2..4   count u16
//! 4..6   magic u16 = 0xC0DE 6..8   reserved
//! 8..40  channel bases: x1/y1/x2/y2 bits of the first entry
//! 40..   entries: nibble headers + XOR-vs-previous bytes per channel,
//!        then zigzag-varint payload delta vs the previous entry
//! ```
//!
//! The four channels are the edge's endpoints in row order
//! ([`TAG_LEAF_SEGMENTS`]), so the leaf scan runs the exact segment test
//! itself. Leaves written before that ([`TAG_LEAF_COMPRESSED`], tag 3)
//! use the same codec with bounding-box channels
//! (min_x/min_y/max_x/max_y) and stay readable.
//!
//! Leaves are only ever scanned whole (`PagedRTree::window`), so entries
//! chain off the previous one with no offset table; a packed leaf holds
//! however many entries fit instead of a fixed fanout.

use crate::error::{Result, StorageError};
use crate::page::{Page, PAGE_SIZE};
use std::collections::HashMap;

/// Bit in the heap slot-count word marking a compressed page.
pub const FLAG_COMPRESSED: u16 = 0x8000;
/// Discriminator confirming the compressed interpretation of a page.
pub const MAGIC: u16 = 0xC0DE;
/// Page tag of a compressed R-tree leaf whose channels are bounding boxes
/// (plain leaves are 1, internals 2). Read-only: no longer written.
pub const TAG_LEAF_COMPRESSED: u16 = 3;
/// Page tag of a compressed R-tree leaf whose channels are the edge's
/// endpoints `(x1, y1, x2, y2)` — what [`RtreeLeafBuilder`] writes.
pub const TAG_LEAF_SEGMENTS: u16 = 4;
/// Slot-directory tombstone for a deleted record in a compressed page.
pub const DEAD_SLOT: u16 = 0xFFFF;
/// Offset of the compressed heap slot directory (one u16 per slot).
pub const SLOT_DIR: usize = 40;

const OFF_LOGICAL: usize = 12;
const OFF_LABELS: usize = 16;
const OFF_NODES: usize = 20;
const OFF_X_BASE: usize = 24;
const OFF_Y_BASE: usize = 32;

/// Plain heap-page header + per-slot directory cost (see `heap.rs`) —
/// what the same rows would cost uncompressed, for logical-size tracking.
const PLAIN_HEAP_HEADER: usize = 12;
const PLAIN_HEAP_SLOT: usize = 4;
/// Plain R-tree node header and entry size (see `spatial_index.rs`).
const PLAIN_RT_HEADER: usize = 4;
const PLAIN_RT_ENTRY: usize = 40;
/// Upper bound on entries in one compressed leaf (min ~3 bytes each).
const MAX_LEAF_ENTRIES: usize = PAGE_SIZE / 3;

// ---------------------------------------------------------------------------
// varint / significant-byte primitives
// ---------------------------------------------------------------------------

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

pub(crate) fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
}

pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Number of low-order bytes needed to represent `v` (0 for 0).
fn sig_bytes(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).div_ceil(8)
}

fn put_low_bytes(out: &mut Vec<u8>, v: u64, n: usize) {
    out.extend_from_slice(&v.to_le_bytes()[..n]);
}

/// Bounds-checked reader over a page (or any byte slice).
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8], pos: usize) -> Self {
        Reader { bytes, pos }
    }

    fn corrupt(&self, what: &str) -> StorageError {
        StorageError::Corrupt(format!("compressed page: {what} at byte {}", self.pos))
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(self.corrupt("truncated"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.corrupt("truncated varint"))?;
            self.pos += 1;
            if shift >= 64 {
                return Err(self.corrupt("varint overflow"));
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    pub(crate) fn low_bytes(&mut self, n: usize) -> Result<u64> {
        if n > 8 {
            return Err(self.corrupt("bad significant-byte count"));
        }
        // One 8-byte load masked to `n` bytes, rather than a copy of
        // variable length, while 8 bytes remain in the page.
        if let Some(word) = self.bytes.get(self.pos..self.pos + 8) {
            self.pos += n;
            let mask = u64::MAX.checked_shr(64 - 8 * n as u32).unwrap_or(0);
            return Ok(u64::from_le_bytes(word.try_into().expect("8 bytes")) & mask);
        }
        let s = self.take(n)?;
        let mut b = [0u8; 8];
        b[..n].copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }
}

// ---------------------------------------------------------------------------
// EdgeRow byte-level parse (no allocation, exact-length)
// ---------------------------------------------------------------------------

/// A borrowed view of one canonically-encoded row. `None` from
/// [`parse_row`] means the bytes are not a canonical encoding and must be
/// stored as a raw cell.
struct ParsedRow<'a> {
    node1_id: u64,
    label1: &'a [u8],
    x1: u64,
    y1: u64,
    x2: u64,
    y2: u64,
    directed: u8,
    edge_label: &'a [u8],
    node2_id: u64,
    label2: &'a [u8],
}

fn parse_row(bytes: &[u8]) -> Option<ParsedRow<'_>> {
    let mut pos = 0usize;
    let u16at = |p: &mut usize| -> Option<usize> {
        let v = u16::from_le_bytes(bytes.get(*p..*p + 2)?.try_into().ok()?) as usize;
        *p += 2;
        Some(v)
    };
    let node1_id = u64::from_le_bytes(bytes.get(pos..pos + 8)?.try_into().ok()?);
    pos += 8;
    let l1 = u16at(&mut pos)?;
    let label1 = bytes.get(pos..pos + l1)?;
    pos += l1;
    let f64bits = |p: &mut usize| -> Option<u64> {
        let v = u64::from_le_bytes(bytes.get(*p..*p + 8)?.try_into().ok()?);
        *p += 8;
        Some(v)
    };
    let x1 = f64bits(&mut pos)?;
    let y1 = f64bits(&mut pos)?;
    let x2 = f64bits(&mut pos)?;
    let y2 = f64bits(&mut pos)?;
    let directed = *bytes.get(pos)?;
    pos += 1;
    if directed > 1 {
        return None; // non-canonical flag byte: keep verbatim
    }
    let le = u16at(&mut pos)?;
    let edge_label = bytes.get(pos..pos + le)?;
    pos += le;
    let node2_id = u64::from_le_bytes(bytes.get(pos..pos + 8)?.try_into().ok()?);
    pos += 8;
    let l2 = u16at(&mut pos)?;
    let label2 = bytes.get(pos..pos + l2)?;
    pos += l2;
    if pos != bytes.len() {
        return None; // trailing bytes: keep verbatim
    }
    Some(ParsedRow {
        node1_id,
        label1,
        x1,
        y1,
        x2,
        y2,
        directed,
        edge_label,
        node2_id,
        label2,
    })
}

// ---------------------------------------------------------------------------
// Compressed heap page: builder
// ---------------------------------------------------------------------------

/// Accumulates records into one compressed heap page image.
///
/// `push` returns `false` when the record does not fit; the caller seals
/// the page and starts a fresh builder (or falls back to a plain page if
/// the builder is empty).
#[derive(Debug, Default)]
pub struct HeapPageBuilder {
    labels: Vec<Vec<u8>>,
    label_map: HashMap<Vec<u8>, u32>,
    label_entry_bytes: usize,
    nodes: Vec<(u64, u32, u64, u64)>,
    node_map: HashMap<(u64, u32, u64, u64), u32>,
    node_entry_bytes: usize,
    cells: Vec<u8>,
    cell_offs: Vec<u32>, // relative to the cells region
    x_base: u64,
    y_base: u64,
    plain_bytes: usize,
}

impl HeapPageBuilder {
    /// Fresh empty builder.
    pub fn new() -> Self {
        Self {
            plain_bytes: PLAIN_HEAP_HEADER,
            ..Self::default()
        }
    }

    /// True before the first successful [`HeapPageBuilder::push`].
    pub fn is_empty(&self) -> bool {
        self.cell_offs.is_empty()
    }

    /// Number of records accepted so far (= slot count of the sealed page).
    pub fn slot_count(&self) -> u16 {
        self.cell_offs.len() as u16
    }

    fn size(&self, extra: usize) -> usize {
        SLOT_DIR
            + 2 * self.cell_offs.len()
            + self.cells.len()
            + 2 * self.labels.len()
            + self.label_entry_bytes
            + 2 * self.nodes.len()
            + self.node_entry_bytes
            + extra
    }

    /// Encoded size of the label-dict entry at index `idx` given `base`
    /// (entry 0's full text). Entry 0 always stores prefix 0 + full bytes.
    fn label_entry_len(idx: usize, base: &[u8], label: &[u8]) -> usize {
        let prefix = if idx == 0 {
            0
        } else {
            common_prefix(base, label)
        };
        let suffix = label.len() - prefix;
        varint_len(prefix as u64) + varint_len(suffix as u64) + suffix
    }

    /// Try to add `record`; `false` = page full (state unchanged).
    pub fn push(&mut self, record: &[u8]) -> bool {
        if self.cell_offs.len() + 1 >= FLAG_COMPRESSED as usize {
            return false;
        }
        let Some(row) = parse_row(record) else {
            return self.push_raw(record);
        };
        // Stage new dictionary entries without mutating, so a refusal
        // leaves the builder untouched.
        let mut staged_labels: Vec<&[u8]> = Vec::new();
        let l1 = stage_label(
            &self.label_map,
            self.labels.len(),
            &mut staged_labels,
            row.label1,
        );
        let le = stage_label(
            &self.label_map,
            self.labels.len(),
            &mut staged_labels,
            row.edge_label,
        );
        let l2 = stage_label(
            &self.label_map,
            self.labels.len(),
            &mut staged_labels,
            row.label2,
        );

        let (x_base, y_base) = if self.nodes.is_empty() {
            (row.x1, row.y1)
        } else {
            (self.x_base, self.y_base)
        };
        let mut staged_nodes: Vec<(u64, u32, u64, u64)> = Vec::new();
        let n1 = stage_node(
            &self.node_map,
            self.nodes.len(),
            &mut staged_nodes,
            (row.node1_id, l1, row.x1, row.y1),
        );
        let n2 = stage_node(
            &self.node_map,
            self.nodes.len(),
            &mut staged_nodes,
            (row.node2_id, l2, row.x2, row.y2),
        );

        let base: &[u8] = self
            .labels
            .first()
            .map(|l| &l[..])
            .or_else(|| staged_labels.first().copied())
            .unwrap_or(b"");
        let staged_label_bytes: usize = staged_labels
            .iter()
            .enumerate()
            .map(|(k, l)| 2 + Self::label_entry_len(self.labels.len() + k, base, l))
            .sum();
        let staged_node_bytes: usize = staged_nodes
            .iter()
            .map(|&(id, lidx, x, y)| {
                2 + varint_len(id)
                    + varint_len(lidx as u64)
                    + 1
                    + sig_bytes(x ^ x_base)
                    + sig_bytes(y ^ y_base)
            })
            .sum();
        let cell_len = varint_len((n1 as u64) << 2 | row.directed as u64)
            + varint_len(n2 as u64)
            + varint_len(le as u64);

        if self.size(2 + cell_len + staged_label_bytes + staged_node_bytes) > PAGE_SIZE {
            return false;
        }

        // Commit.
        for label in staged_labels {
            let idx = self.labels.len();
            let base = self.labels.first().map_or(label, |l| &l[..]);
            self.label_entry_bytes += Self::label_entry_len(idx, base, label);
            self.label_map.insert(label.to_vec(), idx as u32);
            self.labels.push(label.to_vec());
        }
        if self.nodes.is_empty() && !staged_nodes.is_empty() {
            self.x_base = x_base;
            self.y_base = y_base;
        }
        for key in staged_nodes {
            let (id, lidx, x, y) = key;
            self.node_entry_bytes += varint_len(id)
                + varint_len(lidx as u64)
                + 1
                + sig_bytes(x ^ self.x_base)
                + sig_bytes(y ^ self.y_base);
            self.node_map.insert(key, self.nodes.len() as u32);
            self.nodes.push(key);
        }
        self.cell_offs.push(self.cells.len() as u32);
        put_varint(&mut self.cells, (n1 as u64) << 2 | row.directed as u64);
        put_varint(&mut self.cells, n2 as u64);
        put_varint(&mut self.cells, le as u64);
        self.plain_bytes += PLAIN_HEAP_SLOT + record.len();
        true
    }

    fn push_raw(&mut self, record: &[u8]) -> bool {
        let cell_len = 1 + varint_len(record.len() as u64) + record.len();
        if self.size(2 + cell_len) > PAGE_SIZE {
            return false;
        }
        self.cell_offs.push(self.cells.len() as u32);
        self.cells.push(0b10); // raw flag, node1_idx 0, undirected
        put_varint(&mut self.cells, record.len() as u64);
        self.cells.extend_from_slice(record);
        self.plain_bytes += PLAIN_HEAP_SLOT + record.len();
        true
    }

    /// Produce the page image (chain pointer zero; the caller links it).
    pub fn seal(&self) -> Page {
        let slots = self.cell_offs.len();
        let mut p = Page::zeroed();
        p.put_u64(0, 0);
        p.put_u16(8, slots as u16 | FLAG_COMPRESSED);
        p.put_u16(10, MAGIC);
        p.put_u32(OFF_LOGICAL, self.plain_bytes as u32);
        p.put_u64(OFF_X_BASE, self.x_base);
        p.put_u64(OFF_Y_BASE, self.y_base);
        let cells_start = SLOT_DIR + 2 * slots;
        for (i, off) in self.cell_offs.iter().enumerate() {
            p.put_u16(SLOT_DIR + 2 * i, (cells_start + *off as usize) as u16);
        }
        p.put_slice(cells_start, &self.cells);
        // Label dictionary.
        let labels_off = cells_start + self.cells.len();
        p.put_u16(OFF_LABELS, labels_off as u16);
        p.put_u16(OFF_LABELS + 2, self.labels.len() as u16);
        let mut pos = labels_off + 2 * self.labels.len();
        let base = self.labels.first().cloned().unwrap_or_default();
        let mut buf = Vec::new();
        for (i, label) in self.labels.iter().enumerate() {
            p.put_u16(labels_off + 2 * i, pos as u16);
            buf.clear();
            let prefix = if i == 0 {
                0
            } else {
                common_prefix(&base, label)
            };
            put_varint(&mut buf, prefix as u64);
            put_varint(&mut buf, (label.len() - prefix) as u64);
            buf.extend_from_slice(&label[prefix..]);
            p.put_slice(pos, &buf);
            pos += buf.len();
        }
        // Node dictionary.
        let nodes_off = pos;
        p.put_u16(OFF_NODES, nodes_off as u16);
        p.put_u16(OFF_NODES + 2, self.nodes.len() as u16);
        pos = nodes_off + 2 * self.nodes.len();
        for (i, &(id, lidx, x, y)) in self.nodes.iter().enumerate() {
            p.put_u16(nodes_off + 2 * i, pos as u16);
            buf.clear();
            put_varint(&mut buf, id);
            put_varint(&mut buf, lidx as u64);
            let (xv, yv) = (x ^ self.x_base, y ^ self.y_base);
            let (nx, ny) = (sig_bytes(xv), sig_bytes(yv));
            buf.push((nx << 4 | ny) as u8);
            put_low_bytes(&mut buf, xv, nx);
            put_low_bytes(&mut buf, yv, ny);
            p.put_slice(pos, &buf);
            pos += buf.len();
        }
        debug_assert!(pos <= PAGE_SIZE);
        p
    }
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Dictionary staging: resolve `label` to its (existing or future) index,
/// recording genuinely new labels in `staged`.
fn stage_label<'r>(
    existing: &HashMap<Vec<u8>, u32>,
    existing_len: usize,
    staged: &mut Vec<&'r [u8]>,
    label: &'r [u8],
) -> u32 {
    if let Some(&i) = existing.get(label) {
        return i;
    }
    if let Some(p) = staged.iter().position(|s| *s == label) {
        return (existing_len + p) as u32;
    }
    staged.push(label);
    (existing_len + staged.len() - 1) as u32
}

fn stage_node(
    existing: &HashMap<(u64, u32, u64, u64), u32>,
    existing_len: usize,
    staged: &mut Vec<(u64, u32, u64, u64)>,
    key: (u64, u32, u64, u64),
) -> u32 {
    if let Some(&i) = existing.get(&key) {
        return i;
    }
    if let Some(p) = staged.iter().position(|s| *s == key) {
        return (existing_len + p) as u32;
    }
    staged.push(key);
    (existing_len + staged.len() - 1) as u32
}

// ---------------------------------------------------------------------------
// Compressed heap page: reader
// ---------------------------------------------------------------------------

/// Is this heap page compressed? (Branch point for every heap read path.)
#[inline]
pub fn is_compressed_heap(slot_count_word: u16) -> bool {
    slot_count_word & FLAG_COMPRESSED != 0
}

/// Random-access view over one compressed heap page.
pub struct HeapPageView<'a> {
    page: &'a Page,
    slots: u16,
    labels_off: usize,
    labels_cnt: usize,
    nodes_off: usize,
    nodes_cnt: usize,
    x_base: u64,
    y_base: u64,
}

impl<'a> HeapPageView<'a> {
    /// Interpret `page` as a compressed heap page.
    pub fn parse(page: &'a Page) -> Result<Self> {
        let word = page.get_u16(8);
        if !is_compressed_heap(word) || page.get_u16(10) != MAGIC {
            return Err(StorageError::Corrupt(
                "not a compressed heap page".to_string(),
            ));
        }
        Ok(HeapPageView {
            page,
            slots: word & !FLAG_COMPRESSED,
            labels_off: page.get_u16(OFF_LABELS) as usize,
            labels_cnt: page.get_u16(OFF_LABELS + 2) as usize,
            nodes_off: page.get_u16(OFF_NODES) as usize,
            nodes_cnt: page.get_u16(OFF_NODES + 2) as usize,
            x_base: page.get_u64(OFF_X_BASE),
            y_base: page.get_u64(OFF_Y_BASE),
        })
    }

    /// Live + dead slot count.
    pub fn slot_count(&self) -> u16 {
        self.slots
    }

    /// Plain-equivalent byte size of this page's content.
    pub fn logical_len(&self) -> usize {
        self.page.get_u32(OFF_LOGICAL) as usize
    }

    /// Append label `idx`'s bytes (base prefix + suffix) to `out`,
    /// returning the label length.
    fn label_into(&self, idx: usize, out: &mut Vec<u8>) -> Result<usize> {
        if idx >= self.labels_cnt {
            return Err(StorageError::Corrupt(format!(
                "label idx {idx} out of range"
            )));
        }
        let entry = |i: usize| -> Result<(usize, &'a [u8])> {
            let off = self.page.get_u16(self.labels_off + 2 * i) as usize;
            let mut r = Reader::new(self.page.bytes(), off);
            let prefix = r.varint()? as usize;
            let suffix = r.varint()? as usize;
            Ok((prefix, r.take(suffix)?))
        };
        let (prefix, suffix) = entry(idx)?;
        let start = out.len();
        if prefix > 0 {
            let (bp, bs) = entry(0)?;
            if bp != 0 || prefix > bs.len() {
                return Err(StorageError::Corrupt("bad label front-coding".to_string()));
            }
            out.extend_from_slice(&bs[..prefix]);
        }
        out.extend_from_slice(suffix);
        Ok(out.len() - start)
    }

    fn node(&self, idx: usize) -> Result<(u64, usize, u64, u64)> {
        if idx >= self.nodes_cnt {
            return Err(StorageError::Corrupt(format!(
                "node idx {idx} out of range"
            )));
        }
        let off = self.page.get_u16(self.nodes_off + 2 * idx) as usize;
        let mut r = Reader::new(self.page.bytes(), off);
        let id = r.varint()?;
        let lidx = r.varint()? as usize;
        let hdr = r.take(1)?[0] as usize;
        let x = self.x_base ^ r.low_bytes(hdr >> 4)?;
        let y = self.y_base ^ r.low_bytes(hdr & 0xF)?;
        Ok((id, lidx, x, y))
    }

    /// Decode slot `slot` back to its exact plain record bytes.
    /// `Ok(None)` = dead slot; out-of-range slots are the caller's check.
    pub fn record(&self, slot: u16) -> Result<Option<Vec<u8>>> {
        let off = self.page.get_u16(SLOT_DIR + 2 * slot as usize);
        if off == DEAD_SLOT {
            return Ok(None);
        }
        let mut r = Reader::new(self.page.bytes(), off as usize);
        let v0 = r.varint()?;
        if v0 & 0b10 != 0 {
            let len = r.varint()? as usize;
            return Ok(Some(r.take(len)?.to_vec()));
        }
        let directed = (v0 & 1) as u8;
        let (id1, l1, x1, y1) = self.node((v0 >> 2) as usize)?;
        let (id2, l2, x2, y2) = self.node(r.varint()? as usize)?;
        let le = r.varint()? as usize;
        let mut out = Vec::with_capacity(96);
        out.extend_from_slice(&id1.to_le_bytes());
        self.put_label(l1, &mut out)?;
        out.extend_from_slice(&x1.to_le_bytes());
        out.extend_from_slice(&y1.to_le_bytes());
        out.extend_from_slice(&x2.to_le_bytes());
        out.extend_from_slice(&y2.to_le_bytes());
        out.push(directed);
        self.put_label(le, &mut out)?;
        out.extend_from_slice(&id2.to_le_bytes());
        self.put_label(l2, &mut out)?;
        Ok(Some(out))
    }

    fn put_label(&self, idx: usize, out: &mut Vec<u8>) -> Result<()> {
        let len_pos = out.len();
        out.extend_from_slice(&[0, 0]);
        let len = self.label_into(idx, out)?;
        out[len_pos..len_pos + 2].copy_from_slice(&(len as u16).to_le_bytes());
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Compressed R-tree leaf
// ---------------------------------------------------------------------------

/// Packs STR-ordered `(endpoints, payload)` entries into one compressed
/// leaf ([`TAG_LEAF_SEGMENTS`]).
#[derive(Debug)]
pub struct RtreeLeafBuilder {
    entries: Vec<u8>,
    count: usize,
    bases: [u64; 4],
    prev: [u64; 4],
    prev_payload: i64,
}

impl Default for RtreeLeafBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl RtreeLeafBuilder {
    /// Fresh empty builder.
    pub fn new() -> Self {
        RtreeLeafBuilder {
            entries: Vec::with_capacity(PAGE_SIZE),
            count: 0,
            bases: [0; 4],
            prev: [0; 4],
            prev_payload: 0,
        }
    }

    /// True before the first successful push.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Entries accepted so far.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Try to add an entry; `false` = leaf full (state unchanged).
    pub fn push(&mut self, channels: [f64; 4], payload: u64) -> bool {
        if self.count >= MAX_LEAF_ENTRIES {
            return false;
        }
        let bits = channels.map(f64::to_bits);
        // The first entry deltas against itself (the stored bases), so its
        // channel XORs are all zero by construction.
        let prev = if self.count == 0 { bits } else { self.prev };
        let mut buf = Vec::with_capacity(40);
        let xs = [
            bits[0] ^ prev[0],
            bits[1] ^ prev[1],
            bits[2] ^ prev[2],
            bits[3] ^ prev[3],
        ];
        let ns = xs.map(sig_bytes);
        buf.push((ns[0] << 4 | ns[1]) as u8);
        buf.push((ns[2] << 4 | ns[3]) as u8);
        for i in 0..4 {
            put_low_bytes(&mut buf, xs[i], ns[i]);
        }
        put_varint(
            &mut buf,
            zigzag((payload as i64).wrapping_sub(self.prev_payload)),
        );
        if 40 + self.entries.len() + buf.len() > PAGE_SIZE {
            return false;
        }
        if self.count == 0 {
            self.bases = bits;
        }
        self.entries.extend_from_slice(&buf);
        self.prev = bits;
        self.prev_payload = payload as i64;
        self.count += 1;
        true
    }

    /// Produce the leaf page image.
    pub fn seal(&self) -> Page {
        let mut p = Page::zeroed();
        p.put_u16(0, TAG_LEAF_SEGMENTS);
        p.put_u16(2, self.count as u16);
        p.put_u16(4, MAGIC);
        for (i, b) in self.bases.iter().enumerate() {
            p.put_u64(8 + 8 * i, *b);
        }
        p.put_slice(40, &self.entries);
        p
    }
}

/// Whether `page` is a compressed R-tree leaf of either tag.
fn is_compressed_leaf(page: &Page) -> bool {
    matches!(page.get_u16(0), TAG_LEAF_COMPRESSED | TAG_LEAF_SEGMENTS) && page.get_u16(4) == MAGIC
}

/// Sequentially decode a compressed leaf, calling `f(c0, c1, c2, c3,
/// payload)` per entry: the endpoints `(x1, y1, x2, y2)` on a
/// [`TAG_LEAF_SEGMENTS`] leaf, `(min_x, min_y, max_x, max_y)` on a
/// [`TAG_LEAF_COMPRESSED`] one.
pub fn scan_rtree_leaf(page: &Page, mut f: impl FnMut(f64, f64, f64, f64, u64)) -> Result<()> {
    if !is_compressed_leaf(page) {
        return Err(StorageError::Corrupt(
            "not a compressed rtree leaf".to_string(),
        ));
    }
    let count = page.get_u16(2) as usize;
    let mut prev = [0u64; 4];
    for (i, slot) in (8..40).step_by(8).enumerate() {
        prev[i] = page.get_u64(slot);
    }
    let mut prev_payload = 0i64;
    let mut r = Reader::new(page.bytes(), 40);
    for _ in 0..count {
        let h = r.take(2)?;
        let ns = [
            (h[0] >> 4) as usize,
            (h[0] & 0xF) as usize,
            (h[1] >> 4) as usize,
            (h[1] & 0xF) as usize,
        ];
        let mut cur = [0u64; 4];
        for c in 0..4 {
            cur[c] = prev[c] ^ r.low_bytes(ns[c])?;
        }
        let payload = prev_payload.wrapping_add(unzigzag(r.varint()?));
        f(
            f64::from_bits(cur[0]),
            f64::from_bits(cur[1]),
            f64::from_bits(cur[2]),
            f64::from_bits(cur[3]),
            payload as u64,
        );
        prev = cur;
        prev_payload = payload;
    }
    Ok(())
}

/// Entry count of a compressed leaf page.
pub fn rtree_leaf_count(page: &Page) -> usize {
    page.get_u16(2) as usize
}

// ---------------------------------------------------------------------------
// logical-size probe (buffer-pool accounting)
// ---------------------------------------------------------------------------

/// Plain-equivalent byte size of a page: what the same content would
/// occupy uncompressed. Plain pages answer [`PAGE_SIZE`]; the probe never
/// fails — at worst a non-compressed page that happens to look compressed
/// skews a statistic, never a read path.
pub fn logical_page_bytes(page: &Page) -> usize {
    let word = page.get_u16(8);
    if is_compressed_heap(word) && page.get_u16(10) == MAGIC {
        let logical = page.get_u32(OFF_LOGICAL) as usize;
        if logical > 0 && logical < 64 * PAGE_SIZE {
            return logical;
        }
    }
    if is_compressed_leaf(page) {
        let count = page.get_u16(2) as usize;
        if count <= MAX_LEAF_ENTRIES {
            return PLAIN_RT_HEADER + count * PLAIN_RT_ENTRY;
        }
    }
    PAGE_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EdgeGeometry, EdgeRow};
    use proptest::prelude::*;

    fn row(n1: u64, l1: &str, coords: [f64; 4], el: &str, n2: u64, l2: &str) -> EdgeRow {
        EdgeRow {
            node1_id: n1,
            node1_label: l1.into(),
            geometry: EdgeGeometry {
                x1: coords[0],
                y1: coords[1],
                x2: coords[2],
                y2: coords[3],
                directed: n1.is_multiple_of(2),
            },
            edge_label: el.into(),
            node2_id: n2,
            node2_label: l2.into(),
        }
    }

    fn build_page(records: &[Vec<u8>]) -> (Page, usize) {
        let mut b = HeapPageBuilder::new();
        let mut accepted = 0;
        for r in records {
            if !b.push(r) {
                break;
            }
            accepted += 1;
        }
        (b.seal(), accepted)
    }

    #[test]
    fn heap_page_roundtrips_exact_bytes() {
        let records: Vec<Vec<u8>> = (0..200)
            .map(|i| {
                row(
                    i,
                    &format!("patent US{:07}", 3_000_000 + i),
                    [i as f64 * 1.13, -(i as f64), i as f64 + 0.5, 2.0],
                    "cites",
                    i + 1,
                    &format!("patent US{:07}", 3_000_001 + i),
                )
                .encode()
            })
            .collect();
        let (page, accepted) = build_page(&records);
        assert!(accepted > 0);
        let view = HeapPageView::parse(&page).unwrap();
        assert_eq!(view.slot_count() as usize, accepted);
        for (i, rec) in records[..accepted].iter().enumerate() {
            assert_eq!(view.record(i as u16).unwrap().unwrap(), *rec, "slot {i}");
        }
    }

    #[test]
    fn heap_page_beats_two_to_one_on_citation_shape() {
        // The bench dataset shape: repeated ~16-char node labels sharing a
        // long common prefix, one edge label, clustered coordinates.
        let records: Vec<Vec<u8>> = (0..500)
            .map(|i| {
                let a = i % 40;
                let b = (i * 7 + 1) % 40;
                row(
                    a,
                    &format!("patent US{:07}", 3_000_000 + a),
                    [
                        1000.0 + a as f64 * 1.31,
                        2000.0 + a as f64 * 0.77,
                        1000.0 + b as f64 * 1.31,
                        2000.0 + b as f64 * 0.77,
                    ],
                    "cites",
                    b,
                    &format!("patent US{:07}", 3_000_000 + b),
                )
                .encode()
            })
            .collect();
        let (page, accepted) = build_page(&records);
        let view = HeapPageView::parse(&page).unwrap();
        let logical = view.logical_len();
        assert!(
            logical >= 2 * PAGE_SIZE,
            "compressed page should hold >=2x a plain page's rows: logical {logical} accepted {accepted}"
        );
    }

    #[test]
    fn raw_cells_roundtrip_non_canonical_bytes() {
        let records: Vec<Vec<u8>> = vec![
            b"not an edge row".to_vec(),
            vec![],
            vec![0xFF; 300],
            row(1, "a", [0.0; 4], "e", 2, "b").encode(),
        ];
        let (page, accepted) = build_page(&records);
        assert_eq!(accepted, 4);
        let view = HeapPageView::parse(&page).unwrap();
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(view.record(i as u16).unwrap().unwrap(), *rec);
        }
    }

    #[test]
    fn dead_slot_reads_none() {
        let records = vec![row(1, "a", [1.0; 4], "e", 2, "b").encode()];
        let (mut page, _) = build_page(&records);
        page.put_u16(SLOT_DIR, DEAD_SLOT);
        let view = HeapPageView::parse(&page).unwrap();
        assert!(view.record(0).unwrap().is_none());
    }

    #[test]
    fn logical_probe_classifies_pages() {
        let records = vec![row(1, "a", [1.0; 4], "e", 2, "b").encode()];
        let (page, _) = build_page(&records);
        assert_eq!(
            logical_page_bytes(&page),
            PLAIN_HEAP_HEADER + PLAIN_HEAP_SLOT + records[0].len()
        );
        assert_eq!(logical_page_bytes(&Page::zeroed()), PAGE_SIZE);

        let mut leaf = RtreeLeafBuilder::new();
        assert!(leaf.push([1.0, 2.0, 3.0, 4.0], 99));
        assert!(leaf.push([1.5, 2.5, 3.5, 4.5], 120));
        let leaf_page = leaf.seal();
        assert_eq!(
            logical_page_bytes(&leaf_page),
            PLAIN_RT_HEADER + 2 * PLAIN_RT_ENTRY
        );
    }

    #[test]
    fn rtree_leaf_roundtrips_and_packs_beyond_plain_fanout() {
        let entries: Vec<([f64; 4], u64)> = (0..400u64)
            .map(|i| {
                let x = 100.0 + i as f64 * 0.37;
                let y = 50.0 + (i % 17) as f64 * 1.21;
                ([x, y, x + 0.9, y + 0.4], (i << 16) | (i % 7))
            })
            .collect();
        let mut b = RtreeLeafBuilder::new();
        let mut accepted = 0;
        for (ch, p) in &entries {
            if !b.push(*ch, *p) {
                break;
            }
            accepted += 1;
        }
        // Plain fanout is 204 entries/page; compression must beat it.
        assert!(accepted > 204, "compressed leaf only fit {accepted}");
        let page = b.seal();
        assert_eq!(rtree_leaf_count(&page), accepted);
        let mut got = Vec::new();
        scan_rtree_leaf(&page, |a, bb, c, d, p| got.push(([a, bb, c, d], p))).unwrap();
        assert_eq!(got, entries[..accepted]);
    }

    #[test]
    fn varint_zigzag_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v));
            let mut r = Reader::new(&buf, 0);
            assert_eq!(r.varint().unwrap(), v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    fn arb_label() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            proptest::sample::select(vec![
                "p",
                "a",
                "t",
                "é",
                "🌍",
                "…",
                "\u{0}",
                "\"",
                "\\",
                "patent US30",
            ]),
            0..6,
        )
        .prop_map(|parts| parts.concat())
    }

    fn arb_coord() -> impl Strategy<Value = f64> {
        (any::<u64>(), 0u8..4).prop_map(|(bits, kind)| match kind {
            0 => f64::from_bits(bits), // arbitrary incl. NaN/denormal
            1 => -(bits as f64 / 1e6), // negative
            2 => f64::from_bits(bits % 4503599627370496), // denormal range
            _ => (bits % 100000) as f64 * 0.01, // plausible layout coords
        })
    }

    fn arb_row() -> impl Strategy<Value = EdgeRow> {
        (
            (any::<u64>(), arb_label(), arb_label(), arb_label()),
            (arb_coord(), arb_coord(), arb_coord(), arb_coord()),
            (any::<u64>(), proptest::bool::ANY),
        )
            .prop_map(
                |((n1, l1, el, l2), (x1, y1, x2, y2), (n2, directed))| EdgeRow {
                    node1_id: n1,
                    node1_label: l1.into(),
                    geometry: EdgeGeometry {
                        x1,
                        y1,
                        x2,
                        y2,
                        directed,
                    },
                    edge_label: el.into(),
                    node2_id: n2,
                    node2_label: l2.into(),
                },
            )
    }

    proptest! {
        #[test]
        fn compressed_heap_page_roundtrips_arbitrary_rows(
            rows in proptest::collection::vec(arb_row(), 1..80)
        ) {
            let records: Vec<Vec<u8>> = rows.iter().map(EdgeRow::encode).collect();
            let (page, accepted) = build_page(&records);
            prop_assert!(accepted > 0);
            let view = HeapPageView::parse(&page).unwrap();
            for (i, rec) in records[..accepted].iter().enumerate() {
                prop_assert_eq!(view.record(i as u16).unwrap().unwrap(), rec.clone());
            }
        }

        #[test]
        fn compressed_rtree_leaf_roundtrips_arbitrary_entries(
            entries in proptest::collection::vec(
                ((arb_coord(), arb_coord(), arb_coord(), arb_coord()), any::<u64>()),
                1..120
            )
        ) {
            let mut b = RtreeLeafBuilder::new();
            let mut accepted = 0;
            for ((a, c, d, e), p) in &entries {
                if !b.push([*a, *c, *d, *e], *p) { break; }
                accepted += 1;
            }
            prop_assert!(accepted > 0);
            let page = b.seal();
            let mut got = Vec::new();
            scan_rtree_leaf(&page, |a, c, d, e, p| {
                got.push(((a.to_bits(), c.to_bits(), d.to_bits(), e.to_bits()), p));
            }).unwrap();
            let want: Vec<_> = entries[..accepted].iter().map(|((a, c, d, e), p)| {
                ((a.to_bits(), c.to_bits(), d.to_bits(), e.to_bits()), *p)
            }).collect();
            prop_assert_eq!(got, want);
        }
    }
}
