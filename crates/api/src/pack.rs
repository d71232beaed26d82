//! Compact `Rows` frame encoding — the wire-side half of the platform's
//! compression story (the storage half lives in `gvdb-storage::compress`).
//!
//! A packed frame carries the same information as one `Graph` row frame
//! — the nodes first seen in this frame plus the frame's edges — but as
//! a delta/dictionary-coded binary image instead of spliced JSON text:
//!
//! * **Shared label dictionary** — node and edge labels in first-use
//!   order, front-coded against the previous entry (shared byte prefix
//!   length + suffix), referenced by index everywhere else.
//! * **Nodes** — zigzag-varint id delta vs the previous node, label
//!   index, and the two coordinates as raw `f64` bits XORed against the
//!   previous node's bits (a nibble header says how many significant
//!   low-order bytes follow per channel). Coordinates travel as *exact
//!   bits*, never re-parsed text, so the client reprints them with the
//!   same canonical writer the server uses and the output is
//!   byte-identical.
//! * **Edges** — zigzag-varint deltas for row id / source / target
//!   (each vs the previous edge), and `label_idx·2 + directed` packed
//!   in one varint.
//!
//! The server writes an image with [`ImageWriter`], which borrows every
//! label from the caller's rows — any frame can be packed this way, in
//! whatever node order the frame's plain twin lists its nodes, spliced
//! delta windows included. The image travels raw, as one binary HTTP
//! chunk behind a one-byte tag (see `frame.rs`), with no JSON envelope
//! and no base64. The client validates it into a [`PackedImage`] and
//! [`PackedImage::to_graph_fragment`] writes the exact
//! `{"nodes":[…],"edges":[…]}` fragment the plain `Graph` frame would
//! have carried straight from the image, using the canonical node and
//! edge writers defined here — `gvdb-core::json`
//! delegates to the same functions, which is what makes "decode on the
//! client, reassemble, compare byte-for-byte" a meaningful invariant
//! instead of a hope. [`PackedRows`] is the owned form of the same
//! content, for consumers that edit a batch (the cluster merge) or
//! build one by hand.

use crate::json::escape_into;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// One node as the packed frame carries it: exact `f64` coordinate bits,
/// not formatted text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedNode {
    /// Node id.
    pub id: u64,
    /// Node label (exact).
    pub label: String,
    /// `x.to_bits()` of the node position.
    pub xbits: u64,
    /// `y.to_bits()` of the node position.
    pub ybits: u64,
}

/// One edge as the packed frame carries it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedEdge {
    /// Row id.
    pub rid: u64,
    /// Source node id.
    pub source: u64,
    /// Target node id.
    pub target: u64,
    /// Edge label (exact).
    pub label: String,
    /// Whether the edge is directed.
    pub directed: bool,
}

/// One row frame in packed form: the nodes this frame introduces (in
/// emission order) plus its edges (in row-id arrival order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedRows {
    /// Nodes first referenced by this frame, in emission order.
    pub nodes: Vec<PackedNode>,
    /// This frame's edges.
    pub edges: Vec<PackedEdge>,
}

// ---------------------------------------------------------------------------
// Canonical JSON writers (shared with gvdb-core::json)
// ---------------------------------------------------------------------------

/// The opening of a graph payload / fragment.
pub const NODES_PREFIX: &str = "{\"nodes\":[";
/// The separator between the node and edge arrays.
pub const EDGES_SEP: &str = "],\"edges\":[";
/// The closing of a graph payload / fragment.
pub const SUFFIX: &str = "]}";

/// Two-digit decimal pairs `00`..`99`, for integer printing.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Where the canonical writers put their bytes: a `String` for the
/// server's payload buffers, a `Vec<u8>` for the client's fragment
/// decoder, which validates its whole output once at the end instead of
/// once per printed piece.
trait Sink {
    /// Append text.
    fn put(&mut self, s: &str);
    /// Append what `piece` holds.
    fn put_piece(&mut self, piece: &Piece);
}

impl Sink for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }

    fn put_piece(&mut self, piece: &Piece) {
        let bytes = &piece.buf[..piece.len];
        self.push_str(std::str::from_utf8(bytes).expect("ASCII by construction"));
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }

    fn put_piece(&mut self, piece: &Piece) {
        // Copying the whole fixed-size buffer compiles to a few vector
        // moves, where copying `len` bytes would call `memcpy`.
        let end = self.len() + piece.len;
        self.extend_from_slice(&piece.buf);
        self.truncate(end);
    }
}

/// The numeric run of one object — an edge's `{"id":…,"source":…,
/// "target":…,"label":"`, a node's head, or its two coordinates —
/// assembled on the stack so it reaches the sink in one append. Every
/// run fits: three 20-digit ids with their keys take 100 bytes, two
/// fast-path coordinates (at most 17 bytes each) with theirs 46.
struct Piece {
    buf: [u8; 128],
    len: usize,
}

impl Piece {
    fn new() -> Self {
        Piece {
            buf: [0; 128],
            len: 0,
        }
    }

    fn lit(&mut self, s: &str) {
        self.buf[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
        self.len += s.len();
    }

    /// The decimal digits of `v`.
    fn u64(&mut self, mut v: u64) {
        let end = self.len + v.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut i = end;
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            i -= 2;
            self.buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if v >= 10 {
            let pair = v as usize * 2;
            self.buf[i - 2..i].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            self.buf[i - 1] = b'0' + v as u8;
        }
        self.len = end;
    }

    /// A coordinate whose [`hundredths`] are `n`: sign, whole part, then
    /// `.d`, `.dd` or the integral `.0` marker.
    fn coord(&mut self, negative: bool, n: u64) {
        if negative {
            self.lit("-");
        }
        self.u64(n / 100);
        let cents = (n % 100) as usize;
        self.buf[self.len] = b'.';
        if cents.is_multiple_of(10) {
            self.buf[self.len + 1] = b'0' + (cents / 10) as u8;
            self.len += 2;
        } else {
            self.buf[self.len + 1..self.len + 3]
                .copy_from_slice(&DIGIT_PAIRS[cents * 2..cents * 2 + 2]);
            self.len += 3;
        }
    }
}

fn put_u64(out: &mut impl Sink, v: u64) {
    let mut s = Piece::new();
    s.u64(v);
    out.put_piece(&s);
}

/// Append the decimal form of `v` (the bytes of `v.to_string()`)
/// without allocating.
pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    put_u64(out, v);
}

/// `|v|` rounded to whole hundredths exactly as `format!("{v:.2}")`
/// rounds it — on the exact binary value, ties to even — or `None` when
/// `v` is not finite or the result reaches 10¹⁵ (more significant digits
/// than every `f64` keeps apart, where the fast form is not proven).
fn hundredths(v: f64) -> Option<u64> {
    const LIMIT: u128 = 1_000_000_000_000_000;
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7FF) as i32;
    let frac = bits & ((1 << 52) - 1);
    if exp == 0x7FF {
        return None;
    }
    // |v| = mant · 2^e exactly, mant < 2^53.
    let (mant, e) = if exp == 0 {
        (frac, -1074)
    } else {
        (frac | 1 << 52, exp - 1075)
    };
    let scaled = u128::from(mant) * 100; // < 2^60
    let n = if e >= 0 {
        if e > 60 {
            return None;
        }
        scaled << e
    } else if e < -61 {
        // Below half a hundredth: scaled < 2^60 < 2^(k-1).
        0
    } else {
        let k = (-e) as u32;
        let (q, rem, half) = (scaled >> k, scaled & ((1 << k) - 1), 1u128 << (k - 1));
        if rem > half || (rem == half && q & 1 == 1) {
            q + 1
        } else {
            q
        }
    };
    (n < LIMIT).then_some(n as u64)
}

/// The defining form of the canonical coordinate, for the values
/// [`hundredths`] leaves to it.
#[cold]
fn put_coord_by_definition(out: &mut impl Sink, v: f64) {
    let short = format!("{v:.2}");
    let rounded: f64 = short.parse().unwrap_or(v);
    let mut text = String::new();
    crate::json::write_f64(rounded, &mut text);
    out.put(&text);
}

fn put_coord(out: &mut impl Sink, v: f64) {
    let Some(n) = hundredths(v) else {
        return put_coord_by_definition(out, v);
    };
    let mut s = Piece::new();
    s.coord(v.is_sign_negative(), n);
    out.put_piece(&s);
}

/// The canonical coordinate form: rounded to two decimals (pixel
/// coordinates don't need full precision), then printed with the same
/// float grammar the JSON layer uses — trailing zeros dropped, a `.0`
/// marker kept on integral values. That grammar is a **fixed point** of
/// a parse-and-reprint cycle, so the exact same bytes appear on every
/// path: the server's canonical payload, a plain frame that crossed the
/// wire (its graph member is validated and handed through byte for
/// byte), and a packed frame decoded from raw coordinate bits on the
/// client.
///
/// The form is defined as `format!("{v:.2}")`, parsed back and printed
/// shortest; this printer computes its digits directly. Below 10¹³ a
/// hundredths count has at most 15 significant digits, so the shortest
/// form of the parsed value is exactly those digits (every decimal of
/// ≤ 15 significant digits survives an `f64` round trip) and no
/// formatting machinery is needed. Larger or non-finite values take the
/// defining path.
pub fn push_f64_json(out: &mut String, v: f64) {
    put_coord(out, v);
}

/// A node object up to its label: `{"id":…,"label":"`.
fn node_head(buf: &mut impl Sink, id: u64) {
    let mut s = Piece::new();
    s.lit("{\"id\":");
    s.u64(id);
    s.lit(",\"label\":\"");
    buf.put_piece(&s);
}

/// A node object after its label: `","x":…,"y":…}`.
fn node_tail(buf: &mut impl Sink, x: f64, y: f64) {
    let (Some(nx), Some(ny)) = (hundredths(x), hundredths(y)) else {
        buf.put("\",\"x\":");
        put_coord(buf, x);
        buf.put(",\"y\":");
        put_coord(buf, y);
        return buf.put("}");
    };
    let mut s = Piece::new();
    s.lit("\",\"x\":");
    s.coord(x.is_sign_negative(), nx);
    s.lit(",\"y\":");
    s.coord(y.is_sign_negative(), ny);
    s.lit("}");
    buf.put_piece(&s);
}

/// An edge object up to its label.
fn edge_head(buf: &mut impl Sink, rid: u64, source: u64, target: u64) {
    let mut s = Piece::new();
    s.lit("{\"id\":");
    s.u64(rid);
    s.lit(",\"source\":");
    s.u64(source);
    s.lit(",\"target\":");
    s.u64(target);
    s.lit(",\"label\":\"");
    buf.put_piece(&s);
}

/// An edge object after its label.
fn edge_tail(buf: &mut impl Sink, directed: bool) {
    buf.put(if directed {
        "\",\"directed\":true}"
    } else {
        "\",\"directed\":false}"
    });
}

/// Write one canonical node object (`{"id","label","x","y"}`).
pub fn write_node_json(buf: &mut String, id: u64, label: &str, x: f64, y: f64) {
    node_head(buf, id);
    escape_into(label, buf);
    node_tail(buf, x, y);
}

/// Write one canonical edge object
/// (`{"id","source","target","label","directed"}`).
pub fn write_edge_json(
    buf: &mut String,
    rid: u64,
    source: u64,
    target: u64,
    label: &str,
    directed: bool,
) {
    edge_head(buf, rid, source, target);
    escape_into(label, buf);
    edge_tail(buf, directed);
}

impl PackedRows {
    /// Reconstruct the exact `{"nodes":[…],"edges":[…]}` fragment the
    /// equivalent plain `Graph` frame carries.
    pub fn to_graph_fragment(&self) -> String {
        let mut out = String::with_capacity(self.nodes.len() * 64 + self.edges.len() * 96 + 32);
        out.push_str(NODES_PREFIX);
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_node_json(
                &mut out,
                n.id,
                &n.label,
                f64::from_bits(n.xbits),
                f64::from_bits(n.ybits),
            );
        }
        out.push_str(EDGES_SEP);
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_edge_json(&mut out, e.rid, e.source, e.target, &e.label, e.directed);
        }
        out.push_str(SUFFIX);
        out
    }

    /// Encode to the binary image (see module docs for the layout).
    pub fn encode(&self) -> Vec<u8> {
        self.to_image().into_bytes()
    }

    /// The binary image as a [`PackedImage`].
    pub fn to_image(&self) -> PackedImage {
        let mut w = ImageWriter::new();
        for n in &self.nodes {
            w.node(n.id, &n.label, n.xbits, n.ybits);
        }
        for e in &self.edges {
            w.edge(e.rid, e.source, e.target, &e.label, e.directed);
        }
        w.finish()
    }

    /// Decode a binary image produced by [`PackedRows::encode`]. Fails
    /// loudly (never panics) on truncated or malformed input.
    pub fn decode(bytes: &[u8]) -> Result<PackedRows, String> {
        let mut owned = Owned::default();
        walk(bytes, &mut owned)?;
        Ok(owned.rows)
    }
}

// ---------------------------------------------------------------------------
// The image: borrowed writer, validated holder, direct fragment decode
// ---------------------------------------------------------------------------

/// Keyed hashing for the small per-request tables on the frame path —
/// a packed frame's label dictionary, a payload's node-id lookup: one
/// multiply per eight key bytes, its high half folded into the low bits
/// a table indexes by, over a random per-table key. SipHash costs most
/// of an intern or lookup there; the key keeps crafted keys from piling
/// into one bucket.
#[derive(Clone)]
pub struct FastHash(u64);

impl Default for FastHash {
    fn default() -> Self {
        FastHash(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for FastHash {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher(self.0)
    }
}

/// The hasher [`FastHash`] builds.
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.write_u64(u64::from(byte));
    }

    fn write_u64(&mut self, word: u64) {
        let h = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Writes one binary image from borrowed node and edge fields: every
/// node first, then every edge, each in frame order. The label
/// dictionary interns `&str`s into the caller's rows, and node and edge
/// records are written as they arrive, so no label is copied into a
/// `String` of its own. The bytes are exactly what
/// [`PackedRows::encode`] produces for the same content.
#[derive(Default)]
pub struct ImageWriter<'a> {
    index: HashMap<&'a str, u64, FastHash>,
    dict: Vec<&'a str>,
    /// The last label interned and its index: runs of one label (an
    /// edge type) skip the hash.
    last: Option<(&'a str, u64)>,
    body: Vec<u8>,
    nodes: usize,
    edges: usize,
    /// The previous node's `(id, xbits, ybits)`, then the previous
    /// edge's `(rid, source, target)`.
    prev: [u64; 3],
}

impl<'a> ImageWriter<'a> {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer sized for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        ImageWriter {
            index: HashMap::with_capacity_and_hasher(nodes + 4, Default::default()),
            body: Vec::with_capacity(nodes * 12 + edges * 8),
            ..Self::default()
        }
    }

    fn intern(&mut self, label: &'a str) -> u64 {
        if let Some((last, idx)) = self.last {
            if last == label {
                return idx;
            }
        }
        let next = self.dict.len() as u64;
        let idx = *self.index.entry(label).or_insert(next);
        if idx == next {
            self.dict.push(label);
        }
        self.last = Some((label, idx));
        idx
    }

    /// Append one node. Nodes must all come before the first edge.
    pub fn node(&mut self, id: u64, label: &'a str, xbits: u64, ybits: u64) {
        debug_assert_eq!(self.edges, 0, "nodes precede edges in an image");
        let label_idx = self.intern(label);
        let [prev_id, prev_x, prev_y] = self.prev;
        put_zigzag(&mut self.body, id.wrapping_sub(prev_id) as i64);
        put_varint(&mut self.body, label_idx);
        let (dx, dy) = (xbits ^ prev_x, ybits ^ prev_y);
        let (nx, ny) = (sig_bytes(dx), sig_bytes(dy));
        self.body.push(((ny as u8) << 4) | nx as u8);
        self.body.extend_from_slice(&dx.to_le_bytes()[..nx]);
        self.body.extend_from_slice(&dy.to_le_bytes()[..ny]);
        self.prev = [id, xbits, ybits];
        self.nodes += 1;
    }

    /// Append one edge.
    pub fn edge(&mut self, rid: u64, source: u64, target: u64, label: &'a str, directed: bool) {
        if self.edges == 0 {
            self.prev = [0; 3];
        }
        let label_idx = self.intern(label);
        let [prev_rid, prev_src, prev_dst] = self.prev;
        put_zigzag(&mut self.body, rid.wrapping_sub(prev_rid) as i64);
        put_zigzag(&mut self.body, source.wrapping_sub(prev_src) as i64);
        put_zigzag(&mut self.body, target.wrapping_sub(prev_dst) as i64);
        put_varint(&mut self.body, (label_idx << 1) | u64::from(directed));
        self.prev = [rid, source, target];
        self.edges += 1;
    }

    /// The finished image: counts, front-coded dictionary, then the
    /// node and edge records.
    pub fn finish(self) -> PackedImage {
        let dict_bytes: usize = self.dict.iter().map(|d| d.len() + 2).sum();
        let mut out = Vec::with_capacity(self.body.len() + dict_bytes + 30);
        put_varint(&mut out, self.nodes as u64);
        put_varint(&mut out, self.edges as u64);
        put_varint(&mut out, self.dict.len() as u64);
        let mut prev: &[u8] = b"";
        for entry in &self.dict {
            let bytes = entry.as_bytes();
            let shared = prev.iter().zip(bytes).take_while(|(a, b)| a == b).count();
            put_varint(&mut out, shared as u64);
            put_varint(&mut out, (bytes.len() - shared) as u64);
            out.extend_from_slice(&bytes[shared..]);
            prev = bytes;
        }
        out.extend_from_slice(&self.body);
        PackedImage {
            bytes: out,
            nodes: self.nodes,
            edges: self.edges,
        }
    }
}

/// A well-formed binary image: written by an [`ImageWriter`], or checked
/// by [`PackedImage::from_bytes`]. Holding one means the fragment it
/// decodes to can be written without failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedImage {
    bytes: Vec<u8>,
    nodes: usize,
    edges: usize,
}

impl PackedImage {
    /// Validate an image received from elsewhere. Fails loudly (never
    /// panics) on truncated or malformed input — exactly the inputs
    /// [`PackedRows::decode`] rejects.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<PackedImage, String> {
        let (nodes, edges) = walk(&bytes, &mut ())?;
        Ok(PackedImage {
            bytes,
            nodes,
            edges,
        })
    }

    /// Node records in the image.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Edge records in the image.
    pub fn edges(&self) -> usize {
        self.edges
    }

    /// The image bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The image bytes, owned.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// The owned form of the same content.
    pub fn to_rows(&self) -> PackedRows {
        PackedRows::decode(&self.bytes).expect("a PackedImage is well-formed")
    }

    /// Write the exact `{"nodes":[…],"edges":[…]}` fragment the
    /// equivalent plain `Graph` frame carries, straight from the image:
    /// each dictionary entry is escaped once into one shared buffer and
    /// copied from there wherever it is used, so no label becomes a
    /// `String` of its own. Equal to
    /// `PackedRows::decode(bytes)?.to_graph_fragment()`.
    pub fn to_graph_fragment(&self) -> String {
        let mut fragment = Fragment {
            // Objects print to about 50 B plus their label (which the
            // image holds at most once): reserve enough not to regrow.
            out: Vec::with_capacity(self.nodes * 64 + self.edges * 80 + self.bytes.len()),
            labels: String::new(),
            ends: Vec::new(),
            first: true,
        };
        fragment.out.put(NODES_PREFIX);
        walk(&self.bytes, &mut fragment).expect("a PackedImage is well-formed");
        fragment.out.put(SUFFIX);
        String::from_utf8(fragment.out).expect("labels are UTF-8, the rest ASCII")
    }
}

/// What [`walk`] hands each decoded record to. Labels arrive as
/// dictionary indexes, already range-checked; the dictionary itself
/// arrives first, one entry at a time, in index order.
trait Visit {
    fn entry(&mut self, _label: &str) {}
    fn node(&mut self, _id: u64, _label: usize, _xbits: u64, _ybits: u64) {}
    /// Called once, after the last node and before the first edge.
    fn begin_edges(&mut self) {}
    fn edge(&mut self, _rid: u64, _source: u64, _target: u64, _label: usize, _directed: bool) {}
}

/// Validation only.
impl Visit for () {}

/// Builds the owned [`PackedRows`].
#[derive(Default)]
struct Owned {
    dict: Vec<String>,
    rows: PackedRows,
}

impl Visit for Owned {
    fn entry(&mut self, label: &str) {
        self.dict.push(label.to_string());
    }

    fn node(&mut self, id: u64, label: usize, xbits: u64, ybits: u64) {
        self.rows.nodes.push(PackedNode {
            id,
            label: self.dict[label].clone(),
            xbits,
            ybits,
        });
    }

    fn edge(&mut self, rid: u64, source: u64, target: u64, label: usize, directed: bool) {
        self.rows.edges.push(PackedEdge {
            rid,
            source,
            target,
            label: self.dict[label].clone(),
            directed,
        });
    }
}

/// Writes the plain fragment. `labels` holds every dictionary entry,
/// escaped, back to back; entry `i` ends at `ends[i]`.
struct Fragment {
    out: Vec<u8>,
    labels: String,
    ends: Vec<usize>,
    /// No element written yet in the open array.
    first: bool,
}

/// Entry `idx` of an escaped dictionary (see [`Fragment`]).
fn entry_of<'s>(labels: &'s str, ends: &[usize], idx: usize) -> &'s str {
    let start = if idx == 0 { 0 } else { ends[idx - 1] };
    &labels[start..ends[idx]]
}

impl Fragment {
    fn sep(&mut self) {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
    }
}

impl Visit for Fragment {
    fn entry(&mut self, label: &str) {
        escape_into(label, &mut self.labels);
        self.ends.push(self.labels.len());
    }

    fn node(&mut self, id: u64, label: usize, xbits: u64, ybits: u64) {
        self.sep();
        node_head(&mut self.out, id);
        self.out.put(entry_of(&self.labels, &self.ends, label));
        node_tail(&mut self.out, f64::from_bits(xbits), f64::from_bits(ybits));
    }

    fn begin_edges(&mut self) {
        self.out.put(EDGES_SEP);
        self.first = true;
    }

    fn edge(&mut self, rid: u64, source: u64, target: u64, label: usize, directed: bool) {
        self.sep();
        edge_head(&mut self.out, rid, source, target);
        self.out.put(entry_of(&self.labels, &self.ends, label));
        edge_tail(&mut self.out, directed);
    }
}

/// Decode one image, handing every record to `v`; returns the node and
/// edge counts. Fails loudly (never panics) on truncated or malformed
/// input, before `v` sees a record with a bad label index.
fn walk(bytes: &[u8], v: &mut impl Visit) -> Result<(usize, usize), String> {
    let mut cur = Cursor { bytes, pos: 0 };
    let node_count = cur.varint()? as usize;
    let edge_count = cur.varint()? as usize;
    let dict_len = cur.varint()? as usize;
    // A frame never carries more entries than bytes; reject early so
    // a hostile length can't trigger a huge allocation (checked: the
    // sum itself must not overflow on hostile near-u64::MAX counts).
    let total = node_count
        .checked_add(edge_count)
        .and_then(|t| t.checked_add(dict_len));
    match total {
        Some(t) if t <= bytes.len().saturating_add(3) => {}
        _ => return Err("packed frame: counts exceed image size".into()),
    }
    // Front-coded entries are rebuilt in one reused buffer; each whole
    // entry must be UTF-8 (a shared prefix may end mid-character).
    let mut entry: Vec<u8> = Vec::new();
    for _ in 0..dict_len {
        let shared = cur.varint()? as usize;
        let suffix_len = cur.varint()? as usize;
        if shared > entry.len() {
            return Err("packed frame: dict prefix longer than previous entry".into());
        }
        let suffix = cur.take(suffix_len)?;
        entry.truncate(shared);
        entry.extend_from_slice(suffix);
        let text = std::str::from_utf8(&entry)
            .map_err(|_| "packed frame: dict entry is not UTF-8".to_string())?;
        v.entry(text);
    }
    let label = |idx: u64| -> Result<usize, String> {
        if idx < dict_len as u64 {
            Ok(idx as usize)
        } else {
            Err(format!("packed frame: label index {idx} out of range"))
        }
    };

    let (mut prev_id, mut prev_x, mut prev_y) = (0u64, 0u64, 0u64);
    for _ in 0..node_count {
        let id = prev_id.wrapping_add(cur.zigzag()? as u64);
        let label_idx = label(cur.varint()?)?;
        let header = cur.take(1)?[0];
        let (nx, ny) = ((header & 0x0F) as usize, (header >> 4) as usize);
        if nx > 8 || ny > 8 {
            return Err("packed frame: coordinate byte count out of range".into());
        }
        let xbits = prev_x ^ read_le(cur.take(nx)?);
        let ybits = prev_y ^ read_le(cur.take(ny)?);
        prev_id = id;
        prev_x = xbits;
        prev_y = ybits;
        v.node(id, label_idx, xbits, ybits);
    }

    v.begin_edges();
    let (mut prev_rid, mut prev_src, mut prev_dst) = (0u64, 0u64, 0u64);
    for _ in 0..edge_count {
        let rid = prev_rid.wrapping_add(cur.zigzag()? as u64);
        let source = prev_src.wrapping_add(cur.zigzag()? as u64);
        let target = prev_dst.wrapping_add(cur.zigzag()? as u64);
        let tag = cur.varint()?;
        let label_idx = label(tag >> 1)?;
        prev_rid = rid;
        prev_src = source;
        prev_dst = target;
        v.edge(rid, source, target, label_idx, tag & 1 == 1);
    }
    if cur.pos != bytes.len() {
        return Err("packed frame: trailing bytes after the last edge".into());
    }
    Ok((node_count, edge_count))
}

// ---------------------------------------------------------------------------
// Varint / zigzag primitives
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Significant low-order bytes of `v` (0 for 0, up to 8).
fn sig_bytes(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).div_ceil(8)
}

/// Little-endian read of up to 8 bytes.
fn read_le(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        // Overflow-safe: `pos + n` would wrap on a hostile length field.
        if n > self.bytes.len() - self.pos {
            return Err("packed frame: truncated image".into());
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// One LEB128 varint of at most ten bytes (bits past the 64th are
    /// dropped, as the writer never sets them).
    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for (i, &byte) in self.bytes[self.pos..].iter().take(10).enumerate() {
            v |= u64::from(byte & 0x7F) << (7 * i);
            if byte & 0x80 == 0 {
                self.pos += i + 1;
                return Ok(v);
            }
        }
        Err("packed frame: truncated or overlong varint".into())
    }

    fn zigzag(&mut self) -> Result<i64, String> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }
}

// ---------------------------------------------------------------------------
// Base64 (standard alphabet, '=' padding) — the build vendors no codec
// crate, and the replication DTOs carry page images as JSON strings.
// ---------------------------------------------------------------------------

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte outside the alphabet in [`B64_VALUE`].
const NOT_B64: u8 = 0xFF;

/// The 6-bit value of each alphabet byte, [`NOT_B64`] elsewhere.
const B64_VALUE: [u8; 256] = {
    let mut table = [NOT_B64; 256];
    let mut i = 0;
    while i < 64 {
        table[B64[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Standard base64 with padding. Whole 3-byte groups are encoded a
/// block at a time into a stack buffer, then copied in with one
/// (ASCII-checked) `push_str`.
pub fn b64_encode(bytes: &[u8]) -> String {
    const BLOCK: usize = 192; // input bytes per block: 64 groups
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    let mut buf = [0u8; BLOCK / 3 * 4];
    let whole = bytes.len() / 3 * 3;
    for block in bytes[..whole].chunks(BLOCK) {
        let mut n = 0;
        for group in block.chunks_exact(3) {
            let triple = u32::from(group[0]) << 16 | u32::from(group[1]) << 8 | u32::from(group[2]);
            buf[n] = B64[(triple >> 18) as usize & 0x3F];
            buf[n + 1] = B64[(triple >> 12) as usize & 0x3F];
            buf[n + 2] = B64[(triple >> 6) as usize & 0x3F];
            buf[n + 3] = B64[triple as usize & 0x3F];
            n += 4;
        }
        out.push_str(std::str::from_utf8(&buf[..n]).expect("base64 is ASCII"));
    }
    let rest = &bytes[whole..];
    if !rest.is_empty() {
        let b1 = rest.get(1).copied().unwrap_or(0);
        let triple = u32::from(rest[0]) << 16 | u32::from(b1) << 8;
        out.push(B64[(triple >> 18) as usize & 0x3F] as char);
        out.push(B64[(triple >> 12) as usize & 0x3F] as char);
        out.push(if rest.len() > 1 {
            B64[(triple >> 6) as usize & 0x3F] as char
        } else {
            '='
        });
        out.push('=');
    }
    out
}

/// Inverse of [`b64_encode`]; rejects non-alphabet bytes and bad shapes.
pub fn b64_decode(text: &str) -> Result<Vec<u8>, String> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err("base64: length not a multiple of 4".into());
    }
    let quads = bytes.len() / 4;
    let mut out = vec![0u8; quads * 3];
    let mut len = 0;
    for (i, quad) in bytes.chunks_exact(4).enumerate() {
        let v = [0, 1, 2, 3].map(|k| B64_VALUE[usize::from(quad[k])]);
        // Alphabet values are below 64; any NOT_B64 sets the top bits.
        if (v[0] | v[1] | v[2] | v[3]) < 64 {
            let triple = u32::from(v[0]) << 18
                | u32::from(v[1]) << 12
                | u32::from(v[2]) << 6
                | u32::from(v[3]);
            out[len..len + 3].copy_from_slice(&triple.to_be_bytes()[1..]);
            len += 3;
            continue;
        }
        // Padding (or an invalid byte): only the last quad may end in
        // one or two '='.
        let pad = quad.iter().rev().take_while(|&&b| b == b'=').count();
        if pad > 2 || (pad > 0 && i + 1 != quads) {
            return Err("base64: misplaced padding".into());
        }
        let mut triple = 0u32;
        for (&b, &x) in quad.iter().zip(&v).take(4 - pad) {
            if x == NOT_B64 {
                return Err(format!("base64: invalid byte 0x{b:02x}"));
            }
            triple = (triple << 6) | u32::from(x);
        }
        triple <<= 6 * pad as u32;
        out[len..len + 3 - pad].copy_from_slice(&triple.to_be_bytes()[1..4 - pad]);
        len += 3 - pad;
    }
    out.truncate(len);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PackedRows {
        PackedRows {
            nodes: vec![
                PackedNode {
                    id: 7,
                    label: "patent US0000007".into(),
                    xbits: 102.25f64.to_bits(),
                    ybits: 18.5f64.to_bits(),
                },
                PackedNode {
                    id: 9,
                    label: "patent US0000009".into(),
                    xbits: 103.75f64.to_bits(),
                    ybits: 18.5f64.to_bits(),
                },
            ],
            edges: vec![
                PackedEdge {
                    rid: 40,
                    source: 7,
                    target: 9,
                    label: "cites".into(),
                    directed: true,
                },
                PackedEdge {
                    rid: 41,
                    source: 9,
                    target: 7,
                    label: "cites".into(),
                    directed: false,
                },
            ],
        }
    }

    /// The coordinate writer as first defined: print to two decimals,
    /// parse, print the parsed value shortest.
    fn reference_f64(v: f64) -> String {
        let short = format!("{v:.2}");
        let rounded: f64 = short.parse().unwrap_or(v);
        let mut out = String::new();
        crate::json::write_f64(rounded, &mut out);
        out
    }

    /// The image encoder as first written (owned rows, SipHash
    /// dictionary, every label interned before any record is written).
    fn reference_encode(rows: &PackedRows) -> Vec<u8> {
        let mut index = std::collections::HashMap::new();
        let mut dict: Vec<&str> = Vec::new();
        let labels = rows.nodes.iter().map(|n| n.label.as_str());
        let labels = labels.chain(rows.edges.iter().map(|e| e.label.as_str()));
        let idx: Vec<u64> = labels
            .map(|label| {
                *index.entry(label).or_insert_with(|| {
                    dict.push(label);
                    dict.len() as u64 - 1
                })
            })
            .collect();
        let (node_idx, edge_idx) = idx.split_at(rows.nodes.len());
        let mut out = Vec::new();
        put_varint(&mut out, rows.nodes.len() as u64);
        put_varint(&mut out, rows.edges.len() as u64);
        put_varint(&mut out, dict.len() as u64);
        let mut prev: &[u8] = b"";
        for entry in &dict {
            let bytes = entry.as_bytes();
            let shared = prev.iter().zip(bytes).take_while(|(a, b)| a == b).count();
            put_varint(&mut out, shared as u64);
            put_varint(&mut out, (bytes.len() - shared) as u64);
            out.extend_from_slice(&bytes[shared..]);
            prev = bytes;
        }
        let (mut pid, mut px, mut py) = (0u64, 0u64, 0u64);
        for (n, &l) in rows.nodes.iter().zip(node_idx) {
            put_zigzag(&mut out, n.id.wrapping_sub(pid) as i64);
            put_varint(&mut out, l);
            let (dx, dy) = (n.xbits ^ px, n.ybits ^ py);
            let (nx, ny) = (sig_bytes(dx), sig_bytes(dy));
            out.push(((ny as u8) << 4) | nx as u8);
            out.extend_from_slice(&dx.to_le_bytes()[..nx]);
            out.extend_from_slice(&dy.to_le_bytes()[..ny]);
            (pid, px, py) = (n.id, n.xbits, n.ybits);
        }
        let (mut pr, mut ps, mut pt) = (0u64, 0u64, 0u64);
        for (e, &l) in rows.edges.iter().zip(edge_idx) {
            put_zigzag(&mut out, e.rid.wrapping_sub(pr) as i64);
            put_zigzag(&mut out, e.source.wrapping_sub(ps) as i64);
            put_zigzag(&mut out, e.target.wrapping_sub(pt) as i64);
            put_varint(&mut out, (l << 1) | u64::from(e.directed));
            (pr, ps, pt) = (e.rid, e.source, e.target);
        }
        out
    }

    /// The escaper as first written: one `char` at a time.
    fn reference_escape(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        let rows = sample();
        let image = rows.encode();
        assert_eq!(image, reference_encode(&rows));
        assert_eq!(PackedRows::decode(&image).unwrap(), rows);
        // Front-coded labels + deltas: well under the plain JSON size.
        assert!(image.len() < rows.to_graph_fragment().len() / 2);
    }

    #[test]
    fn b64_roundtrip_is_lossless() {
        let rows = sample();
        let bytes = b64_decode(&b64_encode(&rows.encode())).unwrap();
        let image = PackedImage::from_bytes(bytes).unwrap();
        assert_eq!((image.nodes(), image.edges()), (2, 2));
        assert_eq!(image.to_rows(), rows);
    }

    #[test]
    fn fragment_matches_canonical_shape() {
        let rows = PackedRows {
            nodes: vec![PackedNode {
                id: 1,
                label: "a\"b".into(),
                xbits: 1.0f64.to_bits(),
                ybits: (-2.345f64).to_bits(),
            }],
            edges: vec![PackedEdge {
                rid: 5,
                source: 1,
                target: 1,
                label: "loop".into(),
                directed: false,
            }],
        };
        let expected = "{\"nodes\":[{\"id\":1,\"label\":\"a\\\"b\",\"x\":1.0,\"y\":-2.35}],\
             \"edges\":[{\"id\":5,\"source\":1,\"target\":1,\"label\":\"loop\",\"directed\":false}]}";
        assert_eq!(rows.to_graph_fragment(), expected);
        assert_eq!(rows.to_image().to_graph_fragment(), expected);
    }

    /// The canonical coordinate text must survive a parse-and-reprint
    /// cycle unchanged — that is what lets plain frames cross the JSON
    /// wire layer byte-intact and packed frames decode to the same bytes.
    #[test]
    fn coordinate_form_is_a_fixed_point_of_wire_reparse() {
        for v in [
            0.0, -0.0, 1.0, -1100.0, 123.456, -1051.94, -0.004, 1.005, 0.5, 1e15, -3.10,
        ] {
            let mut canonical = String::new();
            push_f64_json(&mut canonical, v);
            assert_eq!(canonical, reference_f64(v), "{v} left the defining form");
            let reparsed: f64 = canonical.parse().unwrap();
            let mut reprinted = String::new();
            crate::json::write_f64(reparsed, &mut reprinted);
            assert_eq!(canonical, reprinted, "{v} broke the fixed point");
        }
    }

    #[test]
    fn coordinate_printer_matches_the_defining_form_at_the_edges() {
        let mut cases = vec![
            0.125,
            0.375,
            -0.625,
            0.875,
            2.5e-3,
            0.005,
            -0.005,
            0.015,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE / 4.0,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            9_999_999_999_999.99,
            9_999_999_999_999.995,
            10_000_000_000_000.0,
            12_345_678_901_234.5,
            2f64.powi(60),
            2f64.powi(61) + 2048.0,
            2f64.powi(53) - 1.0,
        ];
        for k in -2_000i64..2_000 {
            cases.push(k as f64 / 100.0);
            cases.push(k as f64 / 1000.0);
            cases.push((k as f64 + 0.5) / 100.0);
        }
        for v in cases {
            let mut fast = String::new();
            push_f64_json(&mut fast, v);
            assert_eq!(
                fast,
                reference_f64(v),
                "coordinate {v:?} ({:#x})",
                v.to_bits()
            );
        }
    }

    #[test]
    fn integer_printer_matches_to_string() {
        let mut cases = vec![0, 1, 9, 10, 99, 100, 101, 999, 1000, u64::MAX, u64::MAX - 1];
        for p in 0..20 {
            let t = 10u64.pow(p);
            cases.extend([t - 1, t, t + 1]);
        }
        for v in cases {
            let mut out = Vec::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string().into_bytes());
        }
    }

    #[test]
    fn empty_batch_roundtrips() {
        let rows = PackedRows::default();
        assert_eq!(PackedRows::decode(&rows.encode()).unwrap(), rows);
        assert_eq!(rows.to_graph_fragment(), "{\"nodes\":[],\"edges\":[]}");
        assert_eq!(
            rows.to_image().to_graph_fragment(),
            "{\"nodes\":[],\"edges\":[]}"
        );
    }

    #[test]
    fn hostile_bytes_fail_loudly() {
        let mut huge = Vec::new();
        put_varint(&mut huge, u64::MAX / 2);
        huge.extend_from_slice(&[0, 0]);
        // trailing garbage is an error, not silently ignored
        let mut trailing = sample().encode();
        trailing.push(0);
        let hostile: [&[u8]; 4] = [
            &[0xFF],    // truncated varint
            &[2, 0, 0], // nodes promised, absent
            &huge,      // counts that would allocate far past the image
            &trailing,
        ];
        for bytes in hostile {
            assert!(PackedRows::decode(bytes).is_err(), "{bytes:?}");
            assert!(
                PackedImage::from_bytes(bytes.to_vec()).is_err(),
                "{bytes:?}"
            );
        }
        assert!(b64_decode("####").is_err());
        assert!(b64_decode("Ab=c").is_err());
        assert!(b64_decode("A===").is_err());
        assert!(b64_decode("AA==AAAA").is_err());
    }

    #[test]
    fn base64_matches_known_vectors() {
        assert_eq!(b64_encode(b""), "");
        assert_eq!(b64_encode(b"f"), "Zg==");
        assert_eq!(b64_encode(b"fo"), "Zm8=");
        assert_eq!(b64_encode(b"foo"), "Zm9v");
        assert_eq!(b64_encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(b64_decode("Zm9vYmE=").unwrap(), b"fooba");
        assert_eq!(b64_decode("Zg==").unwrap(), b"f");
        // Blocks: encoding spans several stack-buffer blocks.
        let long: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        assert_eq!(b64_decode(&b64_encode(&long)).unwrap(), long);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        // Labels exercise escaping (quotes, backslashes, braces, control
        // bytes) and non-ASCII (multi-byte UTF-8 front-coding boundaries).
        // (`{` would end the class for the vendored pattern parser.)
        const LABEL: &str = "[a-c\"\\\\}\u{1}\n\tλé☃]{0,10}";

        fn arb_rows() -> impl Strategy<Value = PackedRows> {
            (
                prop::collection::vec((any::<u64>(), LABEL, any::<u64>(), any::<u64>()), 0..20),
                prop::collection::vec(
                    (
                        any::<u64>(),
                        any::<u64>(),
                        any::<u64>(),
                        LABEL,
                        any::<bool>(),
                    ),
                    0..30,
                ),
            )
                .prop_map(|(nodes, edges)| PackedRows {
                    nodes: nodes
                        .into_iter()
                        .map(|(id, label, xbits, ybits)| PackedNode {
                            id,
                            label,
                            xbits,
                            ybits,
                        })
                        .collect(),
                    edges: edges
                        .into_iter()
                        .map(|(rid, source, target, label, directed)| PackedEdge {
                            rid,
                            source,
                            target,
                            label,
                            directed,
                        })
                        .collect(),
                })
        }

        /// Every shape of coordinate the printer meets.
        fn arb_coord() -> impl Strategy<Value = f64> {
            (
                0u8..8,
                any::<u64>(),
                -10_000_000i64..10_000_000,
                -1.0e16f64..1.0e16,
            )
                .prop_map(|(shape, bits, k, f)| match shape {
                    0 => f64::from_bits(bits),
                    1 => k as f64 / 100.0,
                    2 => k as f64 / 1000.0,
                    // Exact half-hundredth ties: odd eighths.
                    3 => (2 * k + 1) as f64 / 8.0,
                    4 => (k as f64 + 0.5) / 100.0,
                    5 => f,
                    6 => 0.0,
                    _ => -0.0,
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            // Arbitrary ids (gaps, regressions), arbitrary coordinate
            // bits (NaN, infinities, denormals — everything a f64 can
            // hold travels losslessly), hostile labels.
            #[test]
            fn roundtrip_is_byte_identical(rows in arb_rows()) {
                let image = rows.encode();
                let back = PackedRows::decode(&image).unwrap();
                prop_assert_eq!(&back, &rows);
                prop_assert_eq!(back.to_graph_fragment(), rows.to_graph_fragment());
                prop_assert_eq!(PackedImage::from_bytes(image).unwrap().to_rows(), rows);
            }

            /// The borrowed writer emits the original encoder's bytes.
            #[test]
            fn image_writer_matches_the_reference_encoder(rows in arb_rows()) {
                prop_assert_eq!(rows.to_image().into_bytes(), reference_encode(&rows));
            }

            /// Direct image → fragment equals decode-then-print.
            #[test]
            fn direct_fragment_matches_decode_then_print(rows in arb_rows()) {
                let bytes = rows.encode();
                let image = PackedImage::from_bytes(bytes.clone()).unwrap();
                prop_assert_eq!(
                    image.to_graph_fragment(),
                    PackedRows::decode(&bytes).unwrap().to_graph_fragment()
                );
            }

            /// No proper prefix of an image is an image.
            #[test]
            fn every_truncation_fails(rows in arb_rows()) {
                let bytes = rows.encode();
                for cut in 0..bytes.len() {
                    prop_assert!(PackedRows::decode(&bytes[..cut]).is_err());
                    prop_assert!(PackedImage::from_bytes(bytes[..cut].to_vec()).is_err());
                }
            }

            /// Arbitrary bytes fail validation or make an image that
            /// writes its fragment: never a panic.
            #[test]
            fn arbitrary_bytes_validate_or_fail(bytes in prop::collection::vec(any::<u8>(), 0..40)) {
                if let Ok(image) = PackedImage::from_bytes(bytes) {
                    prop_assert!(image.to_graph_fragment().starts_with(NODES_PREFIX));
                }
            }

            #[test]
            fn coordinate_printer_matches_the_defining_form(v in arb_coord()) {
                let mut fast = String::new();
                push_f64_json(&mut fast, v);
                prop_assert_eq!(fast, reference_f64(v));
            }

            #[test]
            fn integer_printer_matches_to_string(v in any::<u64>()) {
                let mut out = Vec::new();
                push_u64(&mut out, v);
                prop_assert_eq!(out, v.to_string().into_bytes());
            }

            #[test]
            fn escaper_matches_the_reference(s in "[a-z\"\\\\\u{0}-\u{1f}\u{7f}λ☃😀]{0,24}") {
                let mut out = String::new();
                escape_into(&s, &mut out);
                prop_assert_eq!(out, reference_escape(&s));
            }

            #[test]
            fn base64_roundtrips(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
                let text = b64_encode(&bytes);
                prop_assert_eq!(text.len(), bytes.len().div_ceil(3) * 4);
                prop_assert_eq!(b64_decode(&text).unwrap(), bytes);
            }
        }
    }
}
