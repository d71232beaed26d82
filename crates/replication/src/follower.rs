//! Follower side of WAL shipping: poll the leader, pull and apply every
//! checkpoint past the local seq, and snapshot-resync when the local
//! position has fallen out of the leader's archive retention. Pulling
//! is the only transport, so replica lag is bounded by the poll
//! interval.

use crate::{peer_error, storage_error};
use gvdb_api::repl::{CheckpointDto, ReplRole, ReplStatsDto, ReplStatusDto, SnapshotDto};
use gvdb_api::{ApiError, ApiResult};
use gvdb_client::GvdbClient;
use gvdb_core::{QueryManager, ReplProvider};
use gvdb_storage::wal;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The follower's [`ReplProvider`]: applies checkpoints it pulls from
/// the leader ([`FollowerRepl::sync_once`]) and serves its own position
/// and local archives, so followers can be chained (a follower can feed
/// another follower's pull loop).
pub struct FollowerRepl {
    qm: Arc<QueryManager>,
    leader: GvdbClient,
    /// Checkpoints applied (a snapshot resync counts as one).
    applied: AtomicU64,
    /// Newest checkpoint seq applied locally.
    last_applied_seq: AtomicU64,
    /// Full-snapshot resyncs performed.
    resyncs: AtomicU64,
    /// Serialises every apply — the pull thread's, those of direct
    /// [`FollowerRepl::sync_once`] / [`FollowerRepl::apply_bytes`]
    /// callers, and the snapshot replace — so the seq guard in
    /// [`FollowerRepl::apply_bytes`] reads a position no other apply
    /// can move under it.
    apply_lock: Mutex<()>,
    /// Leader's flush-time epochs from the last status poll; the
    /// per-layer lag gauge compares these against local epochs.
    leader_epochs: Mutex<Vec<u64>>,
}

impl FollowerRepl {
    pub fn new(qm: Arc<QueryManager>, leader_addr: impl Into<String>) -> Arc<Self> {
        Arc::new(Self {
            qm,
            leader: GvdbClient::new(leader_addr),
            applied: AtomicU64::new(0),
            last_applied_seq: AtomicU64::new(0),
            resyncs: AtomicU64::new(0),
            apply_lock: Mutex::new(()),
            leader_epochs: Mutex::new(Vec::new()),
        })
    }

    /// Start the background pull loop: every `interval`, fetch the
    /// leader's status and catch up (incremental checkpoints when the
    /// retention window allows, full snapshot resync otherwise).
    pub fn start(self: &Arc<Self>, interval: Duration) -> FollowerHandle {
        let repl = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("gvdb-follower".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    // Errors are transient (leader down, mid-retention
                    // race): the next tick retries from a fresh status.
                    let _ = repl.sync_once();
                    let mut slept = Duration::ZERO;
                    while slept < interval && !stop2.load(Ordering::Relaxed) {
                        let step = Duration::from_millis(25).min(interval - slept);
                        std::thread::sleep(step);
                        slept += step;
                    }
                }
            })
            .expect("spawn follower thread");
        FollowerHandle {
            stop,
            thread: Some(thread),
        }
    }

    /// One catch-up pass against the leader; returns the local
    /// checkpoint seq afterwards. Incremental when the leader still
    /// retains `local_seq + 1`; otherwise the gap is unbridgeable and
    /// the follower replaces its database file with a full snapshot.
    pub fn sync_once(&self) -> ApiResult<u64> {
        let (status, body) = self
            .leader
            .get_text("/v1/repl/status")
            .map_err(peer_error)?;
        let body = crate::expect_200(status, body, "leader status")?;
        let leader = ReplStatusDto::from_json(&body)?;
        *self.leader_epochs.lock() = leader.epochs.clone();
        let local = self.qm.checkpoint_seq();
        if leader.seq <= local {
            return Ok(local);
        }
        let bridgeable = leader
            .archives
            .first()
            .is_some_and(|&oldest| oldest <= local + 1);
        if bridgeable {
            for seq in local + 1..=leader.seq {
                let (status, body) = self
                    .leader
                    .get_text(&format!("/v1/repl/checkpoint?seq={seq}"))
                    .map_err(peer_error)?;
                if status != 200 {
                    // Fell out of retention while we walked; the next
                    // tick's status will route us to a snapshot.
                    break;
                }
                let bytes = CheckpointDto::from_json(&body)?.decode()?;
                self.apply_bytes(&bytes)?;
            }
        } else {
            let (status, body) = self
                .leader
                .get_text("/v1/repl/snapshot")
                .map_err(peer_error)?;
            let body = crate::expect_200(status, body, "leader snapshot")?;
            let snap = SnapshotDto::from_json(&body)?;
            let bytes = snap.decode()?;
            let _guard = self.apply_lock.lock();
            let seq = self
                .qm
                .replace_db_file(&bytes, &snap.epochs)
                .map_err(storage_error)?;
            self.resyncs.fetch_add(1, Ordering::Relaxed);
            self.applied.fetch_add(1, Ordering::Relaxed);
            self.last_applied_seq.store(seq, Ordering::Relaxed);
        }
        Ok(self.qm.checkpoint_seq())
    }

    /// Apply one checkpoint image pulled from a peer; returns the new
    /// local seq. The seq guard checks the peer's input: only exactly
    /// `local_seq + 1` applies; anything older is a typed `Conflict` (a
    /// replay) and so is anything newer (a gap the pull must fill
    /// first).
    pub fn apply_bytes(&self, bytes: &[u8]) -> ApiResult<u64> {
        let _guard = self.apply_lock.lock();
        let cp = wal::decode_checkpoint(bytes)
            .ok_or_else(|| ApiError::bad_request("shipped checkpoint torn or corrupt"))?;
        let expect = self.qm.checkpoint_seq() + 1;
        if cp.seq != expect {
            return Err(ApiError::conflict(format!(
                "checkpoint out of order: got seq {}, this follower expects {expect}",
                cp.seq
            )));
        }
        let seq = self.qm.apply_checkpoint(bytes).map_err(storage_error)?;
        self.applied.fetch_add(1, Ordering::Relaxed);
        self.last_applied_seq.store(seq, Ordering::Relaxed);
        Ok(seq)
    }

    fn local_status(&self) -> ApiResult<ReplStatusDto> {
        let archives = wal::list_archives(&self.qm.db_path()).map_err(storage_error)?;
        Ok(ReplStatusDto {
            role: ReplRole::Follower,
            seq: self.qm.checkpoint_seq(),
            // Live epochs, not flush-time: a follower's epochs are SET
            // by apply, so the live values are its applied position.
            epochs: self.qm.epochs(),
            archives,
        })
    }
}

impl ReplProvider for FollowerRepl {
    fn status_json(&self) -> ApiResult<String> {
        Ok(self.local_status()?.to_json())
    }

    /// Followers keep the archives they applied, so a chained follower
    /// can pull from this one instead of the leader.
    fn checkpoint_json(&self, seq: u64) -> ApiResult<String> {
        match wal::read_archive_bytes(&self.qm.db_path(), seq).map_err(storage_error)? {
            Some(bytes) => Ok(CheckpointDto::encode(seq, &bytes).to_json()),
            None => Err(ApiError::not_found(format!(
                "checkpoint {seq} is not retained on this follower"
            ))),
        }
    }

    fn snapshot_json(&self) -> ApiResult<String> {
        Err(ApiError::bad_request(
            "followers do not serve snapshots; resync from the leader",
        ))
    }

    fn shard_map_json(&self) -> ApiResult<String> {
        Err(ApiError::not_found(
            "no shard map on a single node; ask a router (gvdb serve --router)",
        ))
    }

    fn stats(&self) -> ReplStatsDto {
        let leader = self.leader_epochs.lock().clone();
        let lag = leader
            .iter()
            .enumerate()
            .map(|(layer, &l)| l.saturating_sub(self.qm.layer_epoch(layer)))
            .collect();
        ReplStatsDto {
            role: ReplRole::Follower,
            last_applied_seq: self.last_applied_seq.load(Ordering::Relaxed),
            lag,
            applied: self.applied.load(Ordering::Relaxed),
            resyncs: self.resyncs.load(Ordering::Relaxed),
        }
    }
}

/// Join handle for the follower's pull loop; dropping it (or calling
/// [`FollowerHandle::stop`]) stops the thread.
pub struct FollowerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl FollowerHandle {
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for FollowerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}
