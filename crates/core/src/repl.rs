//! The replication seam between the serving layer and the scale-out
//! subsystem.
//!
//! The HTTP server exposes the replication endpoints (`/v1/repl/*`,
//! `/v1/shardmap`) but knows nothing about shipping, following, or
//! routing — it delegates every such request to a [`ReplProvider`]
//! installed at startup. The `gvdb-replication` crate implements the
//! trait for each role (leader, follower, router); a server started
//! without one answers the endpoints with *not found*, exactly like a
//! pre-replication build.
//!
//! Keeping the trait here — and the implementations out of the server's
//! dependency graph — preserves the layering: `server → core` only,
//! `replication → {storage, core, api, client}`, and the binary wires
//! the two together.

use gvdb_api::repl::ReplStatsDto;
use gvdb_api::ApiResult;

/// One node's replication personality, as seen by the HTTP server.
///
/// Every method answers with the **canonical JSON text** of the wire
/// DTO (see `gvdb_api::repl`) — the server writes it through verbatim,
/// so byte-level response stability is owned by one serializer, not
/// two. Methods a role does not serve return their default error:
/// e.g. a follower serves no snapshots and only a router has a shard
/// map.
///
/// Every method is a read. Replication is pull-only: a follower fetches
/// checkpoints from its leader's provider, and nothing is ever written
/// to a node through this trait.
pub trait ReplProvider: Send + Sync {
    /// `GET /v1/repl/status` — role, applied checkpoint seq, per-layer
    /// epochs, and the archived checkpoint seqs available for catch-up
    /// (`gvdb_api::repl::ReplStatusDto`).
    fn status_json(&self) -> ApiResult<String>;

    /// `GET /v1/repl/checkpoint?seq=N` — the archived checkpoint image
    /// `N` as a `gvdb_api::repl::CheckpointDto` (CRC-stamped, base64).
    /// Leaders, and followers for the archives they applied; *not
    /// found* when `N` is not retained (a follower that needs it must
    /// resync via [`ReplProvider::snapshot_json`]).
    fn checkpoint_json(&self, seq: u64) -> ApiResult<String>;

    /// `GET /v1/repl/snapshot` — a full database snapshot
    /// (`gvdb_api::repl::SnapshotDto`) for a follower whose position is
    /// older than the oldest retained checkpoint. Leaders only.
    fn snapshot_json(&self) -> ApiResult<String>;

    /// `GET /v1/shardmap` — the shard map this node routes by
    /// (`gvdb_api::repl::ShardMapDto`). Routers only.
    fn shard_map_json(&self) -> ApiResult<String>;

    /// The gauges surfaced under `replication` in `/v1/stats`.
    fn stats(&self) -> ReplStatsDto;
}
