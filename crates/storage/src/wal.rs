//! Checkpoint write-ahead log: atomic `flush()`.
//!
//! graphVizdb's write pattern is bulk-build-then-read-mostly, with
//! occasional Edit-panel changes persisted by an explicit flush. The unit
//! of durability is therefore the **checkpoint**: the set of dirty pages
//! plus the header/catalog written by one [`crate::GraphDb::flush`]. This
//! module makes that set atomic:
//!
//! 1. dirty pages + header are appended to `<db>.wal` with per-page CRCs
//!    and a trailing commit record, then fsynced;
//! 2. the pages are applied to the database file and fsynced;
//! 3. the WAL is removed.
//!
//! On open, a WAL with a valid commit record is replayed (crash during
//! step 2); a torn WAL is discarded (crash during step 1 — the database
//! file was never touched by that checkpoint).
//!
//! Scope and honesty: the buffer pool uses a *steal* policy (evictions may
//! write pages between checkpoints), so a crash between flushes can leave
//! pages newer than the last durable catalog. The catalog itself only ever
//! points at checkpointed state, and preprocessing — where ~all writes
//! happen — ends in exactly one flush, so the practically relevant crash
//! windows (mid-flush) are covered. Full ARIES-style undo is out of scope.
//!
//! The v2 format additionally carries a monotonic **checkpoint sequence
//! number** and an opaque metadata blob (flush-time per-layer epochs,
//! encoded by the core layer), which makes each checkpoint a
//! self-describing replication unit: instead of deleting the applied WAL,
//! [`archive`] renames it to `<db>.wal.<seq>` so followers can fetch recent
//! checkpoints by sequence number, and [`retain_archives`] keeps only the
//! newest N — a follower older than the oldest survivor sees a gap and
//! requests a full resync rather than applying out of order.

use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, PAGE_SIZE};
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const WAL_MAGIC: u32 = 0x6776_574C; // "gvWL" (v1: no seq, no meta)
const WAL_MAGIC_V2: u32 = 0x6776_574D; // "gvWM" (v2: seq + opaque meta)
const COMMIT_MAGIC: u32 = 0x636F_6D74; // "comt"

/// CRC-32 (IEEE 802.3, bitwise implementation — cold path, clarity wins).
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

/// WAL file path for a database path.
pub fn wal_path(db_path: &Path) -> PathBuf {
    let mut p = db_path.as_os_str().to_owned();
    p.push(".wal");
    PathBuf::from(p)
}

/// A decoded, committed checkpoint.
#[derive(Debug)]
pub struct Checkpoint {
    /// Monotonic checkpoint sequence number (0 for v1 WALs, which predate
    /// replication and carry no position).
    pub seq: u64,
    /// Opaque caller metadata (the core layer records flush-time per-layer
    /// epochs here; storage ships the bytes without interpreting them).
    pub meta: Vec<u8>,
    /// The header page image (page 0).
    pub header: Page,
    /// Dirty page images.
    pub pages: Vec<(PageId, Page)>,
}

/// Serialize a v2 checkpoint to bytes (the exact on-disk WAL image, and the
/// unit shipped to replicas). Layout:
/// `magic u32 | seq u64 | meta_len u64 | meta | meta_crc u32 | count u64 |
/// header page + crc | (pid u64 + page + crc)* | commit_magic u32 | count u64`.
pub fn encode_checkpoint(
    seq: u64,
    meta: &[u8],
    header: &Page,
    pages: &[(PageId, Page)],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(40 + meta.len() + (pages.len() + 1) * (PAGE_SIZE + 16));
    buf.extend_from_slice(&WAL_MAGIC_V2.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(meta.len() as u64).to_le_bytes());
    buf.extend_from_slice(meta);
    buf.extend_from_slice(&crc32(meta).to_le_bytes());
    buf.extend_from_slice(&(pages.len() as u64).to_le_bytes());
    buf.extend_from_slice(header.bytes());
    buf.extend_from_slice(&crc32(header.bytes()).to_le_bytes());
    for (pid, page) in pages {
        buf.extend_from_slice(&pid.0.to_le_bytes());
        buf.extend_from_slice(page.bytes());
        buf.extend_from_slice(&crc32(page.bytes()).to_le_bytes());
    }
    buf.extend_from_slice(&COMMIT_MAGIC.to_le_bytes());
    buf.extend_from_slice(&(pages.len() as u64).to_le_bytes());
    buf
}

/// Decode checkpoint bytes (either WAL version). `None` means torn or
/// corrupt — the checkpoint never committed. Public so replication can
/// CRC-verify a shipped image before writing it locally.
pub fn decode_checkpoint(bytes: &[u8]) -> Option<Checkpoint> {
    decode(bytes)
}

/// Write a committed checkpoint WAL (fsynced) carrying a sequence number
/// and opaque metadata (see [`encode_checkpoint`] for the layout).
pub fn write_checkpoint_seq(
    db_path: &Path,
    seq: u64,
    meta: &[u8],
    header: &Page,
    pages: &[(PageId, Page)],
) -> Result<()> {
    write_raw(
        &wal_path(db_path),
        &encode_checkpoint(seq, meta, header, pages),
    )
}

/// Write pre-encoded checkpoint bytes as the active WAL (fsynced). The
/// follower apply path: a CRC-verified shipped image lands here verbatim,
/// then a reopen replays it through the same crash-recovery path a local
/// flush would use.
pub fn write_shipped(db_path: &Path, bytes: &[u8]) -> Result<()> {
    write_raw(&wal_path(db_path), bytes)
}

fn write_raw(path: &Path, buf: &[u8]) -> Result<()> {
    let mut f = File::create(path)?;
    f.write_all(buf)?;
    f.sync_all()?;
    Ok(())
}

/// Read a WAL if present. Returns `Ok(None)` when there is no WAL or the
/// WAL is torn/corrupt (in which case it is removed — the checkpoint never
/// committed, the database file is untouched by it).
pub fn read_checkpoint(db_path: &Path) -> Result<Option<Checkpoint>> {
    let path = wal_path(db_path);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    match decode(&bytes) {
        Some(cp) => Ok(Some(cp)),
        None => {
            // Torn write: discard.
            std::fs::remove_file(&path)?;
            Ok(None)
        }
    }
}

/// Remove the WAL after a successful apply.
pub fn remove(db_path: &Path) -> Result<()> {
    match std::fs::remove_file(wal_path(db_path)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(StorageError::Io(e)),
    }
}

/// Archive file path for checkpoint `seq`: `<db>.wal.<seq>`.
pub fn archive_path(db_path: &Path, seq: u64) -> PathBuf {
    let mut p = db_path.as_os_str().to_owned();
    p.push(format!(".wal.{seq}"));
    PathBuf::from(p)
}

/// Archive the active WAL as `<db>.wal.<seq>` instead of deleting it, so
/// followers can fetch recent checkpoints by sequence number. The active
/// WAL stops existing either way — recovery semantics are unchanged.
pub fn archive(db_path: &Path, seq: u64) -> Result<()> {
    match std::fs::rename(wal_path(db_path), archive_path(db_path, seq)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(StorageError::Io(e)),
    }
}

/// Sequence numbers of archived checkpoints, ascending.
pub fn list_archives(db_path: &Path) -> Result<Vec<u64>> {
    let wal = wal_path(db_path);
    let (Some(dir), Some(name)) = (wal.parent(), wal.file_name()) else {
        return Ok(Vec::new());
    };
    let prefix = format!("{}.", name.to_string_lossy());
    let mut seqs = Vec::new();
    let entries = match std::fs::read_dir(if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    }) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let fname = entry.file_name();
        if let Some(suffix) = fname.to_string_lossy().strip_prefix(&prefix) {
            if let Ok(seq) = suffix.parse::<u64>() {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

/// Read an archived checkpoint's raw bytes by sequence number. `Ok(None)`
/// when that archive does not exist. Unlike [`read_checkpoint`] this never
/// deletes anything: archives are the replication history, and a corrupt
/// one simply fails to decode on the consumer side.
pub fn read_archive_bytes(db_path: &Path, seq: u64) -> Result<Option<Vec<u8>>> {
    match std::fs::read(archive_path(db_path, seq)) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Keep only the newest `keep` archived checkpoints, deleting the rest.
/// Returns the sequence numbers removed. Followers further behind than the
/// oldest survivor detect the gap and request a full resync.
pub fn retain_archives(db_path: &Path, keep: usize) -> Result<Vec<u64>> {
    let seqs = list_archives(db_path)?;
    let cut = seqs.len().saturating_sub(keep);
    let removed = seqs[..cut].to_vec();
    for &seq in &removed {
        match std::fs::remove_file(archive_path(db_path, seq)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(StorageError::Io(e)),
        }
    }
    Ok(removed)
}

/// Remove a database file, its active WAL and every `<db>.wal.<seq>`
/// archive; files that do not exist are skipped. This is how a caller
/// throws a database away: removing only the `.db` leaves the archives
/// that each flush writes next to it.
pub fn remove_database(db_path: &Path) -> Result<()> {
    let archives = list_archives(db_path)?.into_iter();
    let files = archives.map(|seq| archive_path(db_path, seq));
    for path in files.chain([wal_path(db_path), db_path.to_path_buf()]) {
        match std::fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(StorageError::Io(e)),
        }
    }
    Ok(())
}

fn decode(bytes: &[u8]) -> Option<Checkpoint> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
        if *pos + n > bytes.len() {
            return None;
        }
        let s = &bytes[*pos..*pos + n];
        *pos += n;
        Some(s)
    };
    let magic = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
    let (seq, meta) = match magic {
        WAL_MAGIC => (0u64, Vec::new()),
        WAL_MAGIC_V2 => {
            let seq = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
            let meta_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?) as usize;
            // An absurd length means a torn/corrupt length word; bail
            // before trying to slice it.
            if meta_len > bytes.len() {
                return None;
            }
            let meta = take(&mut pos, meta_len)?.to_vec();
            let meta_crc = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
            if crc32(&meta) != meta_crc {
                return None;
            }
            (seq, meta)
        }
        _ => return None,
    };
    let count = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?) as usize;
    let mut header = Page::zeroed();
    let header_bytes = take(&mut pos, PAGE_SIZE)?;
    let header_crc = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
    if crc32(header_bytes) != header_crc {
        return None;
    }
    header.bytes_mut().copy_from_slice(header_bytes);
    // No CRC covers `count`: a corrupt word must not size the allocation.
    if count > (bytes.len() - pos) / (8 + PAGE_SIZE + 4) {
        return None;
    }
    let mut pages = Vec::with_capacity(count);
    for _ in 0..count {
        let pid = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
        let page_bytes = take(&mut pos, PAGE_SIZE)?;
        let crc = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
        if crc32(page_bytes) != crc {
            return None;
        }
        let mut page = Page::zeroed();
        page.bytes_mut().copy_from_slice(page_bytes);
        pages.push((PageId(pid), page));
    }
    if u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) != COMMIT_MAGIC {
        return None;
    }
    if u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?) as usize != count {
        return None;
    }
    Some(Checkpoint {
        seq,
        meta,
        header,
        pages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gvdb-wal-{name}-{}", std::process::id()));
        p
    }

    fn page_with(v: u64) -> Page {
        let mut p = Page::zeroed();
        p.put_u64(0, v);
        p
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: "123456789" -> 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_checkpoint() {
        let db = tmp("roundtrip");
        let pages = vec![(PageId(3), page_with(33)), (PageId(7), page_with(77))];
        write_checkpoint_seq(&db, 0, &[], &page_with(1), &pages).unwrap();
        let cp = read_checkpoint(&db).unwrap().expect("committed");
        assert_eq!(cp.header.get_u64(0), 1);
        assert_eq!(cp.pages.len(), 2);
        assert_eq!(cp.pages[1].0, PageId(7));
        assert_eq!(cp.pages[1].1.get_u64(0), 77);
        remove(&db).unwrap();
        assert!(read_checkpoint(&db).unwrap().is_none());
    }

    #[test]
    fn torn_wal_is_discarded() {
        let db = tmp("torn");
        let pages = vec![(PageId(3), page_with(33))];
        write_checkpoint_seq(&db, 0, &[], &page_with(1), &pages).unwrap();
        // Truncate the commit record off.
        let wal = wal_path(&db);
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 6]).unwrap();
        assert!(read_checkpoint(&db).unwrap().is_none());
        assert!(!wal.exists(), "torn WAL should be removed");
    }

    #[test]
    fn corrupt_page_crc_is_discarded() {
        let db = tmp("crc");
        write_checkpoint_seq(&db, 0, &[], &page_with(1), &[(PageId(2), page_with(5))]).unwrap();
        let wal = wal_path(&db);
        let mut bytes = std::fs::read(&wal).unwrap();
        // Flip a byte inside the page body.
        let idx = 4 + 8 + PAGE_SIZE + 4 + 8 + 100;
        bytes[idx] ^= 0xFF;
        std::fs::write(&wal, &bytes).unwrap();
        assert!(read_checkpoint(&db).unwrap().is_none());
    }

    #[test]
    fn missing_wal_is_none() {
        let db = tmp("missing");
        assert!(read_checkpoint(&db).unwrap().is_none());
        remove(&db).unwrap(); // idempotent
    }

    #[test]
    fn empty_checkpoint_commits() {
        let db = tmp("empty");
        write_checkpoint_seq(&db, 0, &[], &page_with(9), &[]).unwrap();
        let cp = read_checkpoint(&db).unwrap().expect("committed");
        assert!(cp.pages.is_empty());
        assert_eq!(cp.header.get_u64(0), 9);
        remove(&db).unwrap();
    }

    #[test]
    fn v2_roundtrips_seq_and_meta() {
        let db = tmp("v2");
        let pages = vec![(PageId(3), page_with(33))];
        write_checkpoint_seq(&db, 42, b"epochs", &page_with(1), &pages).unwrap();
        let cp = read_checkpoint(&db).unwrap().expect("committed");
        assert_eq!(cp.seq, 42);
        assert_eq!(cp.meta, b"epochs");
        assert_eq!(cp.pages.len(), 1);
        remove(&db).unwrap();
    }

    #[test]
    fn v1_wal_decodes_with_zero_seq() {
        // A pre-replication WAL image: old magic, no seq/meta fields.
        let header = page_with(7);
        let mut buf = Vec::new();
        buf.extend_from_slice(&WAL_MAGIC.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(header.bytes());
        buf.extend_from_slice(&crc32(header.bytes()).to_le_bytes());
        buf.extend_from_slice(&COMMIT_MAGIC.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let cp = decode_checkpoint(&buf).expect("v1 decodes");
        assert_eq!(cp.seq, 0);
        assert!(cp.meta.is_empty());
        assert_eq!(cp.header.get_u64(0), 7);
    }

    #[test]
    fn corrupt_meta_crc_is_discarded() {
        let bytes = encode_checkpoint(5, b"metadata", &page_with(1), &[]);
        let mut torn = bytes.clone();
        // Flip a byte inside the meta blob (magic 4 + seq 8 + len 8 = 20).
        torn[21] ^= 0xFF;
        assert!(decode_checkpoint(&bytes).is_some());
        assert!(decode_checkpoint(&torn).is_none());
    }

    #[test]
    fn corrupt_page_count_is_rejected_before_allocating() {
        let mut bytes = encode_checkpoint(5, b"m", &page_with(1), &[]);
        // The count word follows magic 4 + seq 8 + len 8 + meta 1 + crc 4.
        bytes[25..33].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(decode_checkpoint(&bytes).is_none());
    }

    #[test]
    fn shipped_bytes_apply_as_active_wal() {
        let db = tmp("shipped");
        let bytes = encode_checkpoint(9, b"m", &page_with(4), &[(PageId(2), page_with(8))]);
        write_shipped(&db, &bytes).unwrap();
        let cp = read_checkpoint(&db).unwrap().expect("committed");
        assert_eq!(cp.seq, 9);
        assert_eq!(cp.pages[0].1.get_u64(0), 8);
        remove(&db).unwrap();
    }

    #[test]
    fn archives_list_read_and_retain() {
        let db = tmp("archive");
        for seq in 1..=5u64 {
            write_checkpoint_seq(&db, seq, &[], &page_with(seq), &[]).unwrap();
            archive(&db, seq).unwrap();
        }
        assert!(!wal_path(&db).exists(), "archive consumes the active WAL");
        assert_eq!(list_archives(&db).unwrap(), vec![1, 2, 3, 4, 5]);
        let bytes = read_archive_bytes(&db, 3).unwrap().expect("archived");
        assert_eq!(decode_checkpoint(&bytes).unwrap().seq, 3);
        assert!(read_archive_bytes(&db, 99).unwrap().is_none());

        let removed = retain_archives(&db, 2).unwrap();
        assert_eq!(removed, vec![1, 2, 3]);
        assert_eq!(list_archives(&db).unwrap(), vec![4, 5]);
        // Idempotent when under budget.
        assert!(retain_archives(&db, 2).unwrap().is_empty());
        for seq in [4, 5] {
            std::fs::remove_file(archive_path(&db, seq)).unwrap();
        }
    }

    #[test]
    fn remove_database_takes_wal_and_archives() {
        let db = tmp("remove-db");
        std::fs::write(&db, b"db").unwrap();
        for seq in 1..=3u64 {
            write_checkpoint_seq(&db, seq, &[], &page_with(seq), &[]).unwrap();
            archive(&db, seq).unwrap();
        }
        write_checkpoint_seq(&db, 4, &[], &page_with(4), &[]).unwrap();
        remove_database(&db).unwrap();
        assert!(!db.exists() && !wal_path(&db).exists());
        assert!(list_archives(&db).unwrap().is_empty());
        // Nothing left to remove is not an error.
        remove_database(&db).unwrap();
    }

    #[test]
    fn archive_of_missing_wal_is_noop() {
        let db = tmp("archive-missing");
        archive(&db, 1).unwrap();
        assert!(list_archives(&db).unwrap().is_empty());
    }
}
