//! Replication & sharding wire types: checkpoint shipping
//! (`/v1/repl/*`), the shard map (`/v1/shardmap`), and the replication
//! gauges nested in `/v1/stats`.
//!
//! The unit of replication is the **checkpoint WAL image** exactly as the
//! storage layer writes it (`gvdb-storage::wal::encode_checkpoint`): page
//! images with per-page CRCs, a commit record, a monotonic sequence
//! number, and an opaque metadata blob carrying the leader's flush-time
//! per-layer epochs. [`CheckpointDto`] wraps those bytes in base64 with a
//! whole-image CRC so a shipped checkpoint is verified before it touches a
//! follower's disk; the follower then writes it as its local active WAL
//! and reopens — the ordinary crash-recovery path applies it atomically,
//! and a kill mid-apply leaves a torn WAL that recovery discards.

use crate::pack::{b64_decode, b64_encode};
use crate::{need_str, need_u64, ApiError, ApiResult, Json};
use serde::{Deserialize, Serialize};

/// What a serving process is, replication-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplRole {
    /// Accepts writes; serves checkpoints for followers to pull.
    Leader,
    /// Pulls and applies the leader's checkpoints, serves reads.
    Follower,
    /// Holds no data; fans reads out over a shard map.
    Router,
}

impl ReplRole {
    /// Wire name of the role.
    pub fn as_str(&self) -> &'static str {
        match self {
            ReplRole::Leader => "leader",
            ReplRole::Follower => "follower",
            ReplRole::Router => "router",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<ReplRole> {
        match s {
            "leader" => Some(ReplRole::Leader),
            "follower" => Some(ReplRole::Follower),
            "router" => Some(ReplRole::Router),
            _ => None,
        }
    }
}

/// Replication gauges, nested as the `replication` member of the
/// `/v1/stats` payload when the server runs in a replication role.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplStatsDto {
    /// This process's role.
    pub role: ReplRole,
    /// Follower: newest checkpoint seq applied locally. Leader: its own
    /// committed checkpoint seq. Router: 0.
    pub last_applied_seq: u64,
    /// Per-layer replication lag (leader epoch − local epoch), empty when
    /// unknown (e.g. the follower has not yet seen a leader status).
    pub lag: Vec<u64>,
    /// Checkpoints applied (follower) — each apply bumps the dataset's
    /// epochs to the leader's flush-time values.
    pub applied: u64,
    /// Full-snapshot resyncs performed (follower detected a gap older
    /// than the leader's retained archives).
    pub resyncs: u64,
}

impl ReplStatsDto {
    /// Serialize to a JSON value (the `replication` stats member).
    pub fn to_value(&self) -> Json {
        Json::Obj(vec![
            ("role".into(), Json::Str(self.role.as_str().into())),
            ("last_applied_seq".into(), Json::uint(self.last_applied_seq)),
            (
                "lag".into(),
                Json::Arr(self.lag.iter().map(|&l| Json::uint(l)).collect()),
            ),
            ("applied".into(), Json::uint(self.applied)),
            ("resyncs".into(), Json::uint(self.resyncs)),
        ])
    }

    /// Parse leniently — unknown roles and missing members degrade to
    /// defaults, so stats from newer servers still parse.
    pub fn from_value(v: &Json) -> ReplStatsDto {
        let get = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
        ReplStatsDto {
            role: v
                .get("role")
                .and_then(Json::as_str)
                .and_then(ReplRole::parse)
                .unwrap_or(ReplRole::Leader),
            last_applied_seq: get("last_applied_seq"),
            lag: v
                .get("lag")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_u64).collect())
                .unwrap_or_default(),
            applied: get("applied"),
            resyncs: get("resyncs"),
        }
    }
}

/// A shipped checkpoint: the raw WAL image (page images + CRCs + commit
/// record, see the module doc) in base64, guarded by a whole-image CRC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointDto {
    /// The checkpoint's sequence number (redundant with the image's own
    /// header — cross-checked on decode).
    pub seq: u64,
    /// CRC-32 of the raw image bytes.
    pub crc: u32,
    /// The raw WAL image, base64.
    pub bytes_b64: String,
}

impl CheckpointDto {
    /// Wrap raw checkpoint-WAL bytes for shipping.
    pub fn encode(seq: u64, bytes: &[u8]) -> CheckpointDto {
        CheckpointDto {
            seq,
            crc: crc32(bytes),
            bytes_b64: b64_encode(bytes),
        }
    }

    /// Unwrap and CRC-verify the raw image bytes.
    pub fn decode(&self) -> ApiResult<Vec<u8>> {
        let bytes = b64_decode(&self.bytes_b64)
            .map_err(|e| ApiError::bad_request(format!("checkpoint payload base64: {e}")))?;
        if crc32(&bytes) != self.crc {
            return Err(ApiError::bad_request("checkpoint payload CRC mismatch"));
        }
        Ok(bytes)
    }

    /// Serialize to the `/v1/repl/checkpoint` body.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("seq".into(), Json::uint(self.seq)),
            ("crc".into(), Json::uint(self.crc as u64)),
            ("bytes".into(), Json::Str(self.bytes_b64.clone())),
        ])
        .to_string()
    }

    /// Parse the wire form.
    pub fn from_json(text: &str) -> ApiResult<CheckpointDto> {
        let v = Json::parse(text)
            .map_err(|e| ApiError::bad_request(format!("malformed checkpoint: {e}")))?;
        Ok(CheckpointDto {
            seq: need_u64(&v, "seq")?,
            crc: need_u64(&v, "crc")? as u32,
            bytes_b64: need_str(&v, "bytes")?.to_string(),
        })
    }
}

/// A full-database snapshot for follower resync: the entire database file
/// (its header page carries the catalog and checkpoint seq) plus the
/// flush-time per-layer epochs, taken under the leader's read lock so the
/// bytes and epochs are mutually consistent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotDto {
    /// Checkpoint seq the snapshot represents.
    pub seq: u64,
    /// Leader per-layer epochs at that checkpoint.
    pub epochs: Vec<u64>,
    /// CRC-32 of the raw file bytes.
    pub crc: u32,
    /// The database file, base64.
    pub bytes_b64: String,
}

impl SnapshotDto {
    /// Wrap raw database-file bytes for shipping.
    pub fn encode(seq: u64, epochs: Vec<u64>, bytes: &[u8]) -> SnapshotDto {
        SnapshotDto {
            seq,
            epochs,
            crc: crc32(bytes),
            bytes_b64: b64_encode(bytes),
        }
    }

    /// Unwrap and CRC-verify the raw file bytes.
    pub fn decode(&self) -> ApiResult<Vec<u8>> {
        let bytes = b64_decode(&self.bytes_b64)
            .map_err(|e| ApiError::bad_request(format!("snapshot payload base64: {e}")))?;
        if crc32(&bytes) != self.crc {
            return Err(ApiError::bad_request("snapshot payload CRC mismatch"));
        }
        Ok(bytes)
    }

    /// Serialize to the `/v1/repl/snapshot` body.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("seq".into(), Json::uint(self.seq)),
            (
                "epochs".into(),
                Json::Arr(self.epochs.iter().map(|&e| Json::uint(e)).collect()),
            ),
            ("crc".into(), Json::uint(self.crc as u64)),
            ("bytes".into(), Json::Str(self.bytes_b64.clone())),
        ])
        .to_string()
    }

    /// Parse the wire form.
    pub fn from_json(text: &str) -> ApiResult<SnapshotDto> {
        let v = Json::parse(text)
            .map_err(|e| ApiError::bad_request(format!("malformed snapshot: {e}")))?;
        Ok(SnapshotDto {
            seq: need_u64(&v, "seq")?,
            epochs: parse_epochs(&v),
            crc: need_u64(&v, "crc")? as u32,
            bytes_b64: need_str(&v, "bytes")?.to_string(),
        })
    }
}

/// Answer to `GET /v1/repl/status`: where the leader is, what it still
/// has archived, and its flush-time epochs — everything a follower needs
/// to decide between incremental catch-up and a full resync.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplStatusDto {
    /// The responding process's role.
    pub role: ReplRole,
    /// Its committed checkpoint seq.
    pub seq: u64,
    /// Its per-layer epochs at that checkpoint.
    pub epochs: Vec<u64>,
    /// Checkpoint seqs still archived (ascending). A follower at seq `s`
    /// catches up incrementally iff `s + 1 >= archives.first()`.
    pub archives: Vec<u64>,
}

impl ReplStatusDto {
    /// Serialize to the `/v1/repl/status` body.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("role".into(), Json::Str(self.role.as_str().into())),
            ("seq".into(), Json::uint(self.seq)),
            (
                "epochs".into(),
                Json::Arr(self.epochs.iter().map(|&e| Json::uint(e)).collect()),
            ),
            (
                "archives".into(),
                Json::Arr(self.archives.iter().map(|&s| Json::uint(s)).collect()),
            ),
        ])
        .to_string()
    }

    /// Parse the wire form.
    pub fn from_json(text: &str) -> ApiResult<ReplStatusDto> {
        let v = Json::parse(text)
            .map_err(|e| ApiError::bad_request(format!("malformed repl status: {e}")))?;
        Ok(ReplStatusDto {
            role: ReplRole::parse(need_str(&v, "role")?)
                .ok_or_else(|| ApiError::bad_request("unknown repl role"))?,
            seq: need_u64(&v, "seq")?,
            epochs: parse_epochs(&v),
            archives: v
                .get("archives")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_u64).collect())
                .unwrap_or_default(),
        })
    }
}

/// One shard of a sharded dataset: a replica address owning an inclusive
/// slice of rid space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardDto {
    /// Host:port of the replica serving this slice.
    pub addr: String,
    /// First owned rid (inclusive).
    pub rid_lo: u64,
    /// Last owned rid (inclusive).
    pub rid_hi: u64,
}

/// The shard map served at `/v1/shardmap`: disjoint, ascending rid ranges
/// covering all of `[0, u64::MAX]`, one replica address per range. Rows
/// are bulk-loaded in Morton order into densely filled heap pages, so a
/// contiguous rid range is both row-balanced and spatially coherent — the
/// plane tiling of the `partition` crate, expressed in rid space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardMapDto {
    /// The shards, ascending by `rid_lo`.
    pub shards: Vec<ShardDto>,
}

impl ShardMapDto {
    /// Split rid space uniformly over `addrs`, using `rid_max` (the
    /// highest rid of the widest layer, from [`crate::LayerInfo`]) to
    /// place the cut points; the last shard absorbs everything above
    /// `rid_max`. With one address the map is a single full-range shard.
    pub fn split(rid_max: u64, addrs: &[String]) -> ShardMapDto {
        let n = addrs.len().max(1) as u64;
        let step = (rid_max / n).max(1);
        let mut shards = Vec::with_capacity(addrs.len());
        let mut lo = 0u64;
        for (i, addr) in addrs.iter().enumerate() {
            let hi = if i as u64 == n - 1 {
                u64::MAX
            } else {
                lo + step - 1
            };
            shards.push(ShardDto {
                addr: addr.clone(),
                rid_lo: lo,
                rid_hi: hi,
            });
            lo = hi.saturating_add(1);
        }
        ShardMapDto { shards }
    }

    /// The shard owning `rid`, if the map covers it.
    pub fn owner(&self, rid: u64) -> Option<&ShardDto> {
        self.shards
            .iter()
            .find(|s| s.rid_lo <= rid && rid <= s.rid_hi)
    }

    /// Whether the ranges are disjoint, ascending, and cover all of
    /// `[0, u64::MAX]` — the invariant the router's concatenation merge
    /// relies on.
    pub fn is_complete(&self) -> bool {
        if self.shards.is_empty() || self.shards[0].rid_lo != 0 {
            return false;
        }
        let mut expect = 0u64;
        for (i, s) in self.shards.iter().enumerate() {
            if s.rid_lo != expect || s.rid_hi < s.rid_lo {
                return false;
            }
            if i == self.shards.len() - 1 {
                return s.rid_hi == u64::MAX;
            }
            match s.rid_hi.checked_add(1) {
                Some(next) => expect = next,
                None => return false,
            }
        }
        true
    }

    /// Serialize to the `/v1/shardmap` body.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![(
            "shards".into(),
            Json::Arr(
                self.shards
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("addr".into(), Json::Str(s.addr.clone())),
                            ("rid_lo".into(), Json::uint(s.rid_lo)),
                            ("rid_hi".into(), Json::uint(s.rid_hi)),
                        ])
                    })
                    .collect(),
            ),
        )])
        .to_string()
    }

    /// Parse the wire form.
    pub fn from_json(text: &str) -> ApiResult<ShardMapDto> {
        let v = Json::parse(text)
            .map_err(|e| ApiError::bad_request(format!("malformed shard map: {e}")))?;
        let shards = v
            .get("shards")
            .and_then(Json::as_arr)
            .ok_or_else(|| ApiError::bad_request("shard map must carry a shards array"))?
            .iter()
            .map(|s| {
                Ok(ShardDto {
                    addr: need_str(s, "addr")?.to_string(),
                    rid_lo: need_u64(s, "rid_lo")?,
                    rid_hi: need_u64(s, "rid_hi")?,
                })
            })
            .collect::<ApiResult<_>>()?;
        Ok(ShardMapDto { shards })
    }
}

fn parse_epochs(v: &Json) -> Vec<u64> {
    v.get("epochs")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_u64).collect())
        .unwrap_or_default()
}

/// CRC-32 (IEEE 802.3) — same polynomial as the storage WAL, duplicated
/// here because this crate is a leaf and must not depend on storage.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_roundtrips_and_verifies() {
        let bytes = b"fake wal image bytes".to_vec();
        let dto = CheckpointDto::encode(7, &bytes);
        let parsed = CheckpointDto::from_json(&dto.to_json()).unwrap();
        assert_eq!(parsed, dto);
        assert_eq!(parsed.decode().unwrap(), bytes);

        let mut bad = parsed.clone();
        bad.crc ^= 1;
        assert!(bad.decode().is_err());
        let mut bad = parsed;
        bad.bytes_b64 = "@@@not-base64@@@".into();
        assert!(bad.decode().is_err());
    }

    #[test]
    fn snapshot_roundtrips() {
        let dto = SnapshotDto::encode(3, vec![5, 2], b"database file");
        let parsed = SnapshotDto::from_json(&dto.to_json()).unwrap();
        assert_eq!(parsed, dto);
        assert_eq!(parsed.decode().unwrap(), b"database file");
        assert_eq!(parsed.epochs, vec![5, 2]);
    }

    #[test]
    fn status_roundtrips() {
        let dto = ReplStatusDto {
            role: ReplRole::Leader,
            seq: 9,
            epochs: vec![1, 2, 3],
            archives: vec![7, 8, 9],
        };
        assert_eq!(ReplStatusDto::from_json(&dto.to_json()).unwrap(), dto);
    }

    #[test]
    fn stats_roundtrip_is_lenient() {
        let dto = ReplStatsDto {
            role: ReplRole::Follower,
            last_applied_seq: 4,
            lag: vec![1, 0],
            applied: 4,
            resyncs: 1,
        };
        let v = dto.to_value();
        assert_eq!(ReplStatsDto::from_value(&v), dto);
        // Members may be absent entirely.
        let empty = ReplStatsDto::from_value(&Json::Obj(vec![]));
        assert_eq!(empty.role, ReplRole::Leader);
        assert_eq!(empty.applied, 0);
        assert!(empty.lag.is_empty());
    }

    #[test]
    fn shard_map_split_covers_rid_space() {
        let addrs: Vec<String> = (0..3).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect();
        let map = ShardMapDto::split(29_999, &addrs);
        assert_eq!(map.shards.len(), 3);
        assert!(map.is_complete());
        assert_eq!(map.shards[0].rid_lo, 0);
        assert_eq!(map.shards[0].rid_hi, 9_998);
        assert_eq!(map.shards[2].rid_hi, u64::MAX);
        assert_eq!(map.owner(0).unwrap().addr, addrs[0]);
        assert_eq!(map.owner(15_000).unwrap().addr, addrs[1]);
        assert_eq!(map.owner(u64::MAX).unwrap().addr, addrs[2]);
        assert_eq!(ShardMapDto::from_json(&map.to_json()).unwrap(), map);
    }

    #[test]
    fn shard_map_completeness_rejects_gaps() {
        let mut map = ShardMapDto::split(100, &["a".into(), "b".into()]);
        assert!(map.is_complete());
        map.shards[1].rid_lo += 1;
        assert!(!map.is_complete());
        assert!(!ShardMapDto { shards: vec![] }.is_complete());
        // Single-shard map covers everything.
        assert!(ShardMapDto::split(0, &["a".into()]).is_complete());
    }

    #[test]
    fn crc_matches_storage_polynomial() {
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
    }
}
