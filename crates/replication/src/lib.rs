//! # gvdb-replication
//!
//! The scale-out plane: WAL-shipped read replicas and rid-range-sharded
//! query fan-out, built entirely out of machinery the single-node
//! engine already has.
//!
//! ## Replication = shipping the checkpoint WAL
//!
//! A flush writes a checkpoint WAL — page images with per-page CRCs, a
//! commit record, a monotonic sequence number, and the flush-time
//! per-layer epochs as metadata — then archives it
//! (`<db>.wal.<seq>`, keep-last-N). That artifact *is* the replication
//! log:
//!
//! * the **leader** ([`LeaderRepl`]) serves its position at
//!   `GET /v1/repl/status` and archived checkpoints at
//!   `GET /v1/repl/checkpoint?seq=N`; it never contacts a follower;
//! * a **follower** ([`FollowerRepl`]) pulls: every poll interval
//!   (`gvdb serve --follow … --poll-ms N`) it fetches the leader's status
//!   and every checkpoint past its own seq, so replica lag is bounded by
//!   the poll interval. It writes each pulled image as its local
//!   *active* WAL and reopens — the ordinary crash-recovery path
//!   applies it atomically, and a kill mid-apply leaves a torn WAL the
//!   next open discards, so a follower always serves a complete
//!   checkpoint;
//! * applying a checkpoint **sets** the follower's per-layer epochs to
//!   the leader's flush-time values, so epochs double as replication
//!   positions and every response's trailer epoch reports exactly how
//!   stale the answer is;
//! * a follower whose position fell behind the leader's retained
//!   archives detects the gap from `GET /v1/repl/status` and performs a
//!   full-snapshot resync (`GET /v1/repl/snapshot`).
//!
//! ## Sharding = rid ranges over full replicas
//!
//! Rows are bulk-loaded in Morton order, so a contiguous rid range is a
//! spatially coherent tile of the plane. [`RouterService`] splits rid
//! space over its replicas ([`gvdb_api::repl::ShardMapDto::split`]),
//! fans a window query out as disjoint rid slices, and merges the
//! per-shard streams by concatenation — each shard answers in ascending
//! rid order, the slices are ascending and disjoint, so the merged
//! stream is the global rid order of an unsharded node, byte-identical
//! after reassembly. Requests that don't decompose (search, aggregate,
//! sessions, buffered calls) are forwarded whole to one replica, since
//! every shard holds the full dataset.
//!
//! The crate plugs into the HTTP server through
//! [`gvdb_core::ReplProvider`]; the server itself never depends on this
//! crate.

mod follower;
mod leader;
mod router;

pub use follower::{FollowerHandle, FollowerRepl};
pub use leader::LeaderRepl;
pub use router::{RouterRepl, RouterService};

use gvdb_api::{ApiError, ApiResult};
use gvdb_client::ClientError;

/// A peer's transport failure as a typed API error: a typed error from
/// the peer passes through, anything else (connect refused, timeout,
/// bad framing) surfaces as `Internal` — the peer, not this request,
/// is broken.
pub(crate) fn peer_error(e: ClientError) -> ApiError {
    match e {
        ClientError::Api(e) => e,
        other => ApiError::internal(format!("replication peer: {other}")),
    }
}

/// Map a storage failure into the typed API error space.
pub(crate) fn storage_error(e: gvdb_storage::StorageError) -> ApiError {
    ApiError::internal(format!("storage: {e}"))
}

/// A `(status, body)` pair from a raw peer call as a typed result.
pub(crate) fn expect_200(status: u16, body: String, what: &str) -> ApiResult<String> {
    if status == 200 {
        Ok(body)
    } else {
        Err(ApiError::internal(format!(
            "{what} answered {status}: {body}"
        )))
    }
}
