//! Compact `Rows` frame encoding — the wire-side half of the platform's
//! compression story (the storage half lives in `gvdb-storage::compress`).
//!
//! A [`PackedRows`] batch carries the same information as one `Graph`
//! row frame — the nodes first seen in this frame plus the frame's
//! edges — but as a delta/dictionary-coded binary image instead of
//! spliced JSON text:
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
//! The binary image rides inside the JSON frame as a base64 string
//! (`"packed":"…"`, see `frame.rs`); [`PackedRows::to_graph_fragment`]
//! reconstructs the exact `{"nodes":[…],"edges":[…]}` fragment the
//! plain `Graph` frame would have carried, using the canonical node and
//! edge writers defined here — `gvdb-core::json` delegates to the same
//! functions, which is what makes "decode on the client, reassemble,
//! compare byte-for-byte" a meaningful invariant instead of a hope.

use crate::json::escape_into;

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

/// The canonical coordinate form: rounded to two decimals (pixel
/// coordinates don't need full precision), then printed with the same
/// float grammar the JSON layer uses — trailing zeros dropped, a `.0`
/// marker kept on integral values. That grammar is a **fixed point** of
/// a parse-and-reprint cycle, so the exact same bytes appear on every
/// path: the server's canonical payload, a plain frame that crossed the
/// wire (its graph member is validated and handed through byte for
/// byte), and a packed frame decoded from raw coordinate bits on the
/// client.
pub fn push_f64_json(out: &mut String, v: f64) {
    let short = format!("{v:.2}");
    let rounded: f64 = short.parse().unwrap_or(v);
    crate::json::write_f64(rounded, out);
}

/// Write one canonical node object (`{"id","label","x","y"}`).
pub fn write_node_json(buf: &mut String, id: u64, label: &str, x: f64, y: f64) {
    buf.push_str("{\"id\":");
    buf.push_str(&id.to_string());
    buf.push_str(",\"label\":\"");
    escape_into(label, buf);
    buf.push_str("\",\"x\":");
    push_f64_json(buf, x);
    buf.push_str(",\"y\":");
    push_f64_json(buf, y);
    buf.push('}');
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
    buf.push_str("{\"id\":");
    buf.push_str(&rid.to_string());
    buf.push_str(",\"source\":");
    buf.push_str(&source.to_string());
    buf.push_str(",\"target\":");
    buf.push_str(&target.to_string());
    buf.push_str(",\"label\":\"");
    escape_into(label, buf);
    buf.push_str("\",\"directed\":");
    buf.push_str(if directed { "true" } else { "false" });
    buf.push('}');
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
        fn intern<'a>(
            index: &mut std::collections::HashMap<&'a str, u64>,
            dict: &mut Vec<&'a str>,
            label: &'a str,
        ) -> u64 {
            *index.entry(label).or_insert_with(|| {
                dict.push(label);
                dict.len() as u64 - 1
            })
        }
        let mut index = std::collections::HashMap::new();
        let mut dict: Vec<&str> = Vec::new();
        // First-use order across nodes then edges — the decoder rebuilds
        // indices implicitly, so order is part of the format.
        let node_label_idx: Vec<u64> = self
            .nodes
            .iter()
            .map(|n| intern(&mut index, &mut dict, &n.label))
            .collect();
        let edge_label_idx: Vec<u64> = self
            .edges
            .iter()
            .map(|e| intern(&mut index, &mut dict, &e.label))
            .collect();

        let mut out = Vec::with_capacity(self.nodes.len() * 8 + self.edges.len() * 6 + 64);
        put_varint(&mut out, self.nodes.len() as u64);
        put_varint(&mut out, self.edges.len() as u64);
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

        let (mut prev_id, mut prev_x, mut prev_y) = (0u64, 0u64, 0u64);
        for (n, &label_idx) in self.nodes.iter().zip(&node_label_idx) {
            put_zigzag(&mut out, n.id.wrapping_sub(prev_id) as i64);
            put_varint(&mut out, label_idx);
            let dx = n.xbits ^ prev_x;
            let dy = n.ybits ^ prev_y;
            let (nx, ny) = (sig_bytes(dx), sig_bytes(dy));
            out.push(((ny as u8) << 4) | nx as u8);
            out.extend_from_slice(&dx.to_le_bytes()[..nx]);
            out.extend_from_slice(&dy.to_le_bytes()[..ny]);
            prev_id = n.id;
            prev_x = n.xbits;
            prev_y = n.ybits;
        }

        let (mut prev_rid, mut prev_src, mut prev_dst) = (0u64, 0u64, 0u64);
        for (e, &label_idx) in self.edges.iter().zip(&edge_label_idx) {
            put_zigzag(&mut out, e.rid.wrapping_sub(prev_rid) as i64);
            put_zigzag(&mut out, e.source.wrapping_sub(prev_src) as i64);
            put_zigzag(&mut out, e.target.wrapping_sub(prev_dst) as i64);
            put_varint(&mut out, (label_idx << 1) | u64::from(e.directed));
            prev_rid = e.rid;
            prev_src = e.source;
            prev_dst = e.target;
        }
        out
    }

    /// Decode a binary image produced by [`PackedRows::encode`]. Fails
    /// loudly (never panics) on truncated or malformed input.
    pub fn decode(bytes: &[u8]) -> Result<PackedRows, String> {
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
        let mut dict: Vec<String> = Vec::with_capacity(dict_len);
        let mut prev: Vec<u8> = Vec::new();
        for _ in 0..dict_len {
            let shared = cur.varint()? as usize;
            let suffix_len = cur.varint()? as usize;
            if shared > prev.len() {
                return Err("packed frame: dict prefix longer than previous entry".into());
            }
            let suffix = cur.take(suffix_len)?;
            let mut entry = Vec::with_capacity(shared + suffix_len);
            entry.extend_from_slice(&prev[..shared]);
            entry.extend_from_slice(suffix);
            let text = String::from_utf8(entry.clone())
                .map_err(|_| "packed frame: dict entry is not UTF-8".to_string())?;
            prev = entry;
            dict.push(text);
        }
        let label = |idx: u64| -> Result<String, String> {
            dict.get(idx as usize)
                .cloned()
                .ok_or_else(|| format!("packed frame: label index {idx} out of range"))
        };

        let mut nodes = Vec::with_capacity(node_count);
        let (mut prev_id, mut prev_x, mut prev_y) = (0u64, 0u64, 0u64);
        for _ in 0..node_count {
            let id = prev_id.wrapping_add(cur.zigzag()? as u64);
            let label = label(cur.varint()?)?;
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
            nodes.push(PackedNode {
                id,
                label,
                xbits,
                ybits,
            });
        }

        let mut edges = Vec::with_capacity(edge_count);
        let (mut prev_rid, mut prev_src, mut prev_dst) = (0u64, 0u64, 0u64);
        for _ in 0..edge_count {
            let rid = prev_rid.wrapping_add(cur.zigzag()? as u64);
            let source = prev_src.wrapping_add(cur.zigzag()? as u64);
            let target = prev_dst.wrapping_add(cur.zigzag()? as u64);
            let tag = cur.varint()?;
            let label = label(tag >> 1)?;
            prev_rid = rid;
            prev_src = source;
            prev_dst = target;
            edges.push(PackedEdge {
                rid,
                source,
                target,
                label,
                directed: tag & 1 == 1,
            });
        }
        if cur.pos != bytes.len() {
            return Err("packed frame: trailing bytes after the last edge".into());
        }
        Ok(PackedRows { nodes, edges })
    }

    /// Encode to the base64 text that rides in the JSON frame.
    pub fn encode_b64(&self) -> String {
        b64_encode(&self.encode())
    }

    /// Decode the base64 text of a JSON frame.
    pub fn decode_b64(text: &str) -> Result<PackedRows, String> {
        PackedRows::decode(&b64_decode(text)?)
    }
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

    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.take(1)?[0];
            if shift >= 64 {
                return Err("packed frame: varint overflows u64".into());
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn zigzag(&mut self) -> Result<i64, String> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }
}

// ---------------------------------------------------------------------------
// Base64 (standard alphabet, '=' padding) — the build vendors no codec
// crate, and the JSON layer needs the image as a clean string.
// ---------------------------------------------------------------------------

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 with padding.
pub fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(B64[(triple >> 18) as usize & 0x3F] as char);
        out.push(B64[(triple >> 12) as usize & 0x3F] as char);
        out.push(if chunk.len() > 1 {
            B64[(triple >> 6) as usize & 0x3F] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64[triple as usize & 0x3F] as char
        } else {
            '='
        });
    }
    out
}

/// Inverse of [`b64_encode`]; rejects non-alphabet bytes and bad shapes.
pub fn b64_decode(text: &str) -> Result<Vec<u8>, String> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err("base64: length not a multiple of 4".into());
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    let value = |b: u8| -> Result<u32, String> {
        match b {
            b'A'..=b'Z' => Ok(u32::from(b - b'A')),
            b'a'..=b'z' => Ok(u32::from(b - b'a') + 26),
            b'0'..=b'9' => Ok(u32::from(b - b'0') + 52),
            b'+' => Ok(62),
            b'/' => Ok(63),
            _ => Err(format!("base64: invalid byte 0x{b:02x}")),
        }
    };
    for (i, quad) in bytes.chunks(4).enumerate() {
        let last = (i + 1) * 4 == bytes.len();
        let pad = quad.iter().rev().take_while(|&&b| b == b'=').count();
        if pad > 2 || (pad > 0 && !last) {
            return Err("base64: misplaced padding".into());
        }
        let mut triple = 0u32;
        for &b in &quad[..4 - pad] {
            triple = (triple << 6) | value(b)?;
        }
        triple <<= 6 * pad as u32;
        out.push((triple >> 16) as u8);
        if pad < 2 {
            out.push((triple >> 8) as u8);
        }
        if pad < 1 {
            out.push(triple as u8);
        }
    }
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

    #[test]
    fn binary_roundtrip_is_lossless() {
        let rows = sample();
        let image = rows.encode();
        assert_eq!(PackedRows::decode(&image).unwrap(), rows);
        // Front-coded labels + deltas: well under the plain JSON size.
        assert!(image.len() < rows.to_graph_fragment().len() / 2);
    }

    #[test]
    fn b64_roundtrip_is_lossless() {
        let rows = sample();
        assert_eq!(PackedRows::decode_b64(&rows.encode_b64()).unwrap(), rows);
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
        assert_eq!(
            rows.to_graph_fragment(),
            "{\"nodes\":[{\"id\":1,\"label\":\"a\\\"b\",\"x\":1.0,\"y\":-2.35}],\
             \"edges\":[{\"id\":5,\"source\":1,\"target\":1,\"label\":\"loop\",\"directed\":false}]}"
        );
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
            let reparsed: f64 = canonical.parse().unwrap();
            let mut reprinted = String::new();
            crate::json::write_f64(reparsed, &mut reprinted);
            assert_eq!(canonical, reprinted, "{v} broke the fixed point");
        }
    }

    #[test]
    fn empty_batch_roundtrips() {
        let rows = PackedRows::default();
        assert_eq!(PackedRows::decode(&rows.encode()).unwrap(), rows);
        assert_eq!(rows.to_graph_fragment(), "{\"nodes\":[],\"edges\":[]}");
    }

    #[test]
    fn hostile_bytes_fail_loudly() {
        assert!(PackedRows::decode(&[0xFF]).is_err()); // truncated varint
        assert!(PackedRows::decode(&[2, 0, 0]).is_err()); // nodes promised, absent
                                                          // counts that would allocate far past the image are rejected
        let mut huge = Vec::new();
        put_varint(&mut huge, u64::MAX / 2);
        huge.extend_from_slice(&[0, 0]);
        assert!(PackedRows::decode(&huge).is_err());
        // trailing garbage is an error, not silently ignored
        let mut image = sample().encode();
        image.push(0);
        assert!(PackedRows::decode(&image).is_err());
        assert!(b64_decode("####").is_err());
        assert!(b64_decode("Ab=c").is_err());
    }

    #[test]
    fn base64_matches_known_vectors() {
        assert_eq!(b64_encode(b""), "");
        assert_eq!(b64_encode(b"f"), "Zg==");
        assert_eq!(b64_encode(b"fo"), "Zm8=");
        assert_eq!(b64_encode(b"foo"), "Zm9v");
        assert_eq!(b64_encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(b64_decode("Zm9vYmE=").unwrap(), b"fooba");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        // Labels exercise escaping (quotes, backslashes, braces) and
        // non-ASCII (multi-byte UTF-8 front-coding boundaries).
        const LABEL: &str = "[a-c\"\\\\{}λé☃]{0,10}";

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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // Arbitrary ids (gaps, regressions), arbitrary coordinate
            // bits (NaN, infinities, denormals — everything a f64 can
            // hold travels losslessly), hostile labels.
            #[test]
            fn roundtrip_is_byte_identical(rows in arb_rows()) {
                let image = rows.encode();
                let back = PackedRows::decode(&image).unwrap();
                prop_assert_eq!(&back, &rows);
                prop_assert_eq!(back.to_graph_fragment(), rows.to_graph_fragment());
                let b64 = rows.encode_b64();
                prop_assert_eq!(PackedRows::decode_b64(&b64).unwrap(), rows);
            }
        }
    }
}
