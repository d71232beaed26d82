//! Leader side of WAL shipping: serve the replication position,
//! archived checkpoints and snapshots for followers to pull. The leader
//! never contacts a follower; each follower's poll loop
//! ([`crate::FollowerRepl`]) is the only transport.

use crate::storage_error;
use gvdb_api::repl::{CheckpointDto, ReplRole, ReplStatsDto, ReplStatusDto, SnapshotDto};
use gvdb_api::{ApiError, ApiResult};
use gvdb_core::{QueryManager, ReplProvider};
use gvdb_storage::wal;
use std::sync::Arc;

/// The leader's [`ReplProvider`]: serves its replication position
/// (`/v1/repl/status`), retained checkpoint archives
/// (`/v1/repl/checkpoint?seq=N`), and consistent full snapshots
/// (`/v1/repl/snapshot`) over the regular HTTP surface.
pub struct LeaderRepl {
    qm: Arc<QueryManager>,
}

impl LeaderRepl {
    pub fn new(qm: Arc<QueryManager>) -> Arc<Self> {
        Arc::new(Self { qm })
    }
}

impl ReplProvider for LeaderRepl {
    fn status_json(&self) -> ApiResult<String> {
        let archives = wal::list_archives(&self.qm.db_path()).map_err(storage_error)?;
        let dto = ReplStatusDto {
            role: ReplRole::Leader,
            seq: self.qm.checkpoint_seq(),
            epochs: self.qm.last_flush_epochs(),
            archives,
        };
        Ok(dto.to_json())
    }

    fn checkpoint_json(&self, seq: u64) -> ApiResult<String> {
        match wal::read_archive_bytes(&self.qm.db_path(), seq).map_err(storage_error)? {
            Some(bytes) => Ok(CheckpointDto::encode(seq, &bytes).to_json()),
            None => Err(ApiError::not_found(format!(
                "checkpoint {seq} is not retained (fell out of the keep-last-N archive window); \
                 resync from /v1/repl/snapshot"
            ))),
        }
    }

    fn snapshot_json(&self) -> ApiResult<String> {
        let (seq, epochs, bytes) = self.qm.snapshot_bytes().map_err(storage_error)?;
        Ok(SnapshotDto::encode(seq, epochs, &bytes).to_json())
    }

    fn shard_map_json(&self) -> ApiResult<String> {
        Err(ApiError::not_found(
            "no shard map on a single node; ask a router (gvdb serve --router)",
        ))
    }

    fn stats(&self) -> ReplStatsDto {
        ReplStatsDto {
            role: ReplRole::Leader,
            last_applied_seq: self.qm.checkpoint_seq(),
            lag: Vec::new(),
            applied: 0,
            resyncs: 0,
        }
    }
}
