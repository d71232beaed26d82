//! The simulated browser client: communication + rendering cost model.
//!
//! The paper's Fig. 3 reports "Communication + Rendering" as one series
//! because the server streams the window's sub-graph to the client in
//! small pieces, interleaving transfer with mxGraph DOM rendering. Since
//! the streamed frame protocol (`gvdb_api::ApiFrame`) made that pipeline
//! real, this model prices exactly what the wire carries: a `Header`
//! frame, one `Rows` frame per [`ClientModel::chunk_rows`] rows (each
//! paying the measured frame-envelope overhead,
//! [`gvdb_api::rows_envelope_bytes`]), and a `Trailer` frame — no
//! separately-maintained chunking math.
//!
//! Calibration: at the paper's measured
//! ~2.5 s total for ~350 elements, per-element rendering must be in the
//! 5–8 ms range with transfer contributing a small linear term — DOM
//! object creation dominates, which matches mxGraph experience. Defaults
//! below use 6 ms/node, 5 ms/edge, 100 Mbit/s, 10 ms RTT, and the frame
//! layer's default batch size ([`gvdb_api::DEFAULT_CHUNK_ROWS`]).
//!
//! The model is deterministic; it *computes* times instead of sleeping, so
//! the Fig. 3 harness can sweep thousands of windows in seconds.

use crate::json::GraphJson;

/// Client/network cost model.
#[derive(Debug, Clone, Copy)]
pub struct ClientModel {
    /// One-way latency per request (ms).
    pub rtt_ms: f64,
    /// Transfer rate (bytes per ms). 100 Mbit/s ≈ 12_500 bytes/ms.
    pub bytes_per_ms: f64,
    /// Rows per streamed `Rows` frame — the batch size the engine's
    /// window and search streams use
    /// ([`GraphService::call_streamed`](crate::GraphService::call_streamed)).
    pub chunk_rows: usize,
    /// Per-chunk processing overhead on the client (ms).
    pub per_chunk_ms: f64,
    /// DOM-object creation cost per node (ms).
    pub per_node_ms: f64,
    /// DOM-object creation cost per edge (ms).
    pub per_edge_ms: f64,
}

impl Default for ClientModel {
    fn default() -> Self {
        ClientModel {
            rtt_ms: 10.0,
            bytes_per_ms: 12_500.0,
            chunk_rows: gvdb_api::DEFAULT_CHUNK_ROWS,
            per_chunk_ms: 0.5,
            per_node_ms: 6.0,
            per_edge_ms: 5.0,
        }
    }
}

/// Simulated cost of delivering and rendering one window result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientCost {
    /// Communication + rendering in ms (reported combined, as in Fig. 3).
    pub comm_render_ms: f64,
    /// Number of streamed `Rows` frames.
    pub chunks: usize,
}

impl ClientModel {
    /// Number of `Rows` frames a payload of `rows` rows streams as (at
    /// least one — an empty window still sends its frame sequence).
    pub fn chunks_for(&self, rows: usize) -> usize {
        rows.div_ceil(self.chunk_rows.max(1)).max(1)
    }

    /// Cost of shipping `json` to the browser as a frame stream and
    /// rendering it.
    pub fn deliver(&self, json: &GraphJson) -> ClientCost {
        let chunks = self.chunks_for(json.edge_count);
        // On the wire: the payload plus each Rows frame's envelope, with
        // the Header and Trailer frames bracketing the stream priced at
        // the same (measured) envelope size.
        let bytes = json.byte_len() + (chunks + 2) * gvdb_api::rows_envelope_bytes();
        let transfer =
            self.rtt_ms + bytes as f64 / self.bytes_per_ms + chunks as f64 * self.per_chunk_ms;
        let render =
            json.node_count as f64 * self.per_node_ms + json.edge_count as f64 * self.per_edge_ms;
        ClientCost {
            comm_render_ms: transfer + render,
            chunks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(nodes: usize, edges: usize, bytes: usize) -> GraphJson {
        GraphJson {
            text: "x".repeat(bytes),
            node_count: nodes,
            edge_count: edges,
            node_spans: Vec::new(),
            edge_spans: Vec::new(),
            canonical: false,
        }
    }

    #[test]
    fn cost_scales_linearly_with_objects() {
        let m = ClientModel::default();
        let small = m.deliver(&json(10, 10, 2_000));
        let large = m.deliver(&json(100, 100, 20_000));
        // 10x objects: rendering term dominates, near-10x ratio.
        let ratio = large.comm_render_ms / small.comm_render_ms;
        assert!((5.0..15.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rendering_dominates_at_paper_scale() {
        // ~350 elements like the paper's 3000^2 Wikidata windows.
        let m = ClientModel::default();
        let cost = m.deliver(&json(200, 150, 60_000));
        let render_only = 200.0 * m.per_node_ms + 150.0 * m.per_edge_ms;
        assert!(cost.comm_render_ms > render_only);
        assert!(
            render_only / cost.comm_render_ms > 0.9,
            "transfer should be a small fraction"
        );
        // Paper magnitude check: around 2-3 seconds.
        assert!((1_000.0..4_000.0).contains(&cost.comm_render_ms));
    }

    #[test]
    fn chunk_count_follows_row_count() {
        let m = ClientModel::default();
        // Chunking is row-driven: one frame per chunk_rows edges.
        assert_eq!(m.deliver(&json(5, 0, 400)).chunks, 1);
        assert_eq!(m.deliver(&json(10, m.chunk_rows, 50_000)).chunks, 1);
        assert_eq!(m.deliver(&json(10, m.chunk_rows + 1, 50_000)).chunks, 2);
        assert_eq!(m.chunks_for(m.chunk_rows * 3), 3);
    }

    #[test]
    fn frame_envelopes_are_charged_on_the_wire() {
        // Same payload bytes, more rows => more frames => more wire bytes
        // and per-chunk overhead, so delivery costs (slightly) more even
        // with rendering held constant.
        let m = ClientModel {
            per_node_ms: 0.0,
            per_edge_ms: 0.0,
            ..Default::default()
        };
        let few_frames = m.deliver(&json(0, m.chunk_rows, 100_000));
        let many_frames = m.deliver(&json(0, m.chunk_rows * 8, 100_000));
        assert!(many_frames.chunks > few_frames.chunks);
        assert!(many_frames.comm_render_ms > few_frames.comm_render_ms);
    }

    #[test]
    fn empty_payload_costs_one_rtt() {
        let m = ClientModel::default();
        let cost = m.deliver(&json(0, 0, 2));
        assert!(cost.comm_render_ms >= m.rtt_ms);
        assert!(cost.comm_render_ms < m.rtt_ms + 2.0);
    }
}
