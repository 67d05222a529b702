//! The write-ahead log: length-prefixed, per-record checksummed frames
//! in an append-only segment file.
//!
//! ## On-disk format
//!
//! A segment starts with the 8-byte magic `IDMWAL01`, followed by zero
//! or more frames:
//!
//! ```text
//! [len: u32 LE] [checksum: u64 LE] [payload: len bytes]
//! ```
//!
//! `checksum` is FNV-1a-64 over the payload, and the payload is an
//! encoded [`ChangeRecord`]. Each frame is written with a *single*
//! `write_all` call so a crash tears at most one frame; recovery scans
//! frames in order and stops at the first that is short, oversized,
//! checksum-mismatched, or undecodable — the torn tail is discarded and
//! everything before it is replayed (the classic torn-write discipline).

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::durability::codec::fnv1a64;
use crate::durability::record::ChangeRecord;
use crate::fault::{FaultAction, FaultPoint};

/// Magic bytes opening every WAL segment.
pub const WAL_MAGIC: &[u8; 8] = b"IDMWAL01";

/// Sanity cap on a single record: frames claiming more are treated as
/// corruption, not as a 4 GiB allocation request.
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// Number of power-of-two buckets in the group-size histogram: bucket
/// `i` counts groups of `2^i ..= 2^(i+1)-1` records (the last bucket is
/// open-ended).
pub const GROUP_HISTOGRAM_BUCKETS: usize = 12;

/// When appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Hand frames to the OS page cache and move on. Survives `kill -9`
    /// of the *process* (the kernel still owns the bytes); a power cut
    /// may lose the unsynced tail. The default.
    #[default]
    WriteBack,
    /// `fdatasync` after every frame. Survives power loss; much slower.
    Fsync,
}

struct WalInner {
    file: Option<File>,
    path: PathBuf,
}

/// Write-path telemetry of one [`WalWriter`]: how many record frames it
/// wrote, how many `fsync`/`fdatasync` calls it issued for them, and how
/// the frames were grouped. The bulk-ingest bench derives its
/// "fsyncs saved" figure from `frames - syncs` under
/// [`SyncPolicy::Fsync`], where the record-at-a-time discipline would
/// have issued one sync per frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Record frames written (equals appended records).
    pub frames: u64,
    /// `sync_data`/`sync_all` calls issued by this writer.
    pub syncs: u64,
    /// Write groups committed (an [`WalWriter::append`] is a group of
    /// one; an [`WalWriter::append_batch`] is one group of many).
    pub groups: u64,
    /// Largest group committed so far, in records.
    pub largest_group: u64,
    /// Power-of-two histogram of group sizes (bucket `i` counts groups
    /// of `2^i ..` records; the last bucket is open-ended).
    pub histogram: [u64; GROUP_HISTOGRAM_BUCKETS],
    /// The writer's sync policy.
    pub sync_policy: SyncPolicy,
}

impl WalStats {
    /// Syncs a one-fsync-per-record discipline would have issued but
    /// this writer did not, thanks to grouping and deferred syncs.
    /// Zero under [`SyncPolicy::WriteBack`], where no per-record sync
    /// would have happened anyway.
    pub fn syncs_saved(&self) -> u64 {
        match self.sync_policy {
            SyncPolicy::Fsync => self.frames.saturating_sub(self.syncs),
            SyncPolicy::WriteBack => 0,
        }
    }
}

fn histogram_bucket(group: u64) -> usize {
    (63 - group.max(1).leading_zeros() as usize).min(GROUP_HISTOGRAM_BUCKETS - 1)
}

/// The append half of the WAL, shared by every store mutator.
///
/// Errors are *sticky*: once an append fails the writer is dead and all
/// further appends fail too, because a WAL with a hole in it can no
/// longer promise prefix consistency. The owner must checkpoint into a
/// fresh segment (or reopen the dataspace) to resume.
pub struct WalWriter {
    inner: Mutex<WalInner>,
    /// Log sequence number: total records ever appended to this
    /// dataspace (snapshot base + appended here).
    lsn: AtomicU64,
    sync: SyncPolicy,
    dead: AtomicBool,
    error: Mutex<Option<String>>,
    /// Crash/torn-write injection point (`source = "durability"`,
    /// `op = "wal-append"`), inert until a plan is installed.
    fault: FaultPoint,
    /// Telemetry counters (see [`WalStats`]). `largest_group` and the
    /// histogram are updated under the inner lock; the plain counters
    /// are relaxed atomics read by reporting code only.
    frames: AtomicU64,
    syncs: AtomicU64,
    groups: AtomicU64,
    largest_group: AtomicU64,
    histogram: [AtomicU64; GROUP_HISTOGRAM_BUCKETS],
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("path", &self.inner.lock().path)
            .field("lsn", &self.lsn())
            .field("sync", &self.sync)
            .field("dead", &self.dead.load(Ordering::Relaxed))
            .finish()
    }
}

impl WalWriter {
    /// Creates a fresh segment at `path` (truncating any existing file),
    /// writes and syncs the magic, and counts from `base_lsn`.
    pub fn create(path: &Path, base_lsn: u64, sync: SyncPolicy) -> io::Result<WalWriter> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync_all()?;
        Ok(WalWriter::from_parts(file, path, base_lsn, sync))
    }

    /// Reopens an existing, already-validated segment for appending.
    /// `valid_len` is where [`read_segment`] stopped; anything after it
    /// is a torn tail and is truncated away before appending resumes.
    pub fn open_append(
        path: &Path,
        valid_len: u64,
        base_lsn: u64,
        sync: SyncPolicy,
    ) -> io::Result<WalWriter> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.sync_all()?;
        let writer = WalWriter::from_parts(file, path, base_lsn, sync);
        // Position at the end; File::set_len does not move the cursor.
        {
            let mut inner = writer.inner.lock();
            if let Some(f) = inner.file.as_mut() {
                use std::io::Seek;
                f.seek(io::SeekFrom::End(0))?;
            }
        }
        Ok(writer)
    }

    fn from_parts(file: File, path: &Path, base_lsn: u64, sync: SyncPolicy) -> WalWriter {
        WalWriter {
            inner: Mutex::new(WalInner {
                file: Some(file),
                path: path.to_path_buf(),
            }),
            lsn: AtomicU64::new(base_lsn),
            sync,
            dead: AtomicBool::new(false),
            error: Mutex::new(None),
            fault: FaultPoint::new(),
            frames: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            groups: AtomicU64::new(0),
            largest_group: AtomicU64::new(0),
            histogram: Default::default(),
        }
    }

    fn encode_frame(buf: &mut Vec<u8>, record: &ChangeRecord) {
        let payload = record.encode();
        buf.reserve(12 + payload.len());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
    }

    /// Appends one record. Callers hold their shard's write lock, so
    /// per-vid record order in the log matches commit order; the inner
    /// mutex serializes frames across shards.
    pub fn append(&self, record: &ChangeRecord) -> io::Result<()> {
        let mut frames = Vec::new();
        WalWriter::encode_frame(&mut frames, record);
        self.write_frames(&frames, 1, None)
    }

    /// Appends a batch of records as one buffered write and (under
    /// [`SyncPolicy::Fsync`]) one covering `sync_data` — the group-commit
    /// write path. A crash tears the concatenated buffer at most once,
    /// so recovery still sees an exact frame prefix.
    pub fn append_batch(&self, records: &[ChangeRecord]) -> io::Result<()> {
        if records.is_empty() {
            return self.ensure_healthy();
        }
        let mut frames = Vec::new();
        for record in records {
            WalWriter::encode_frame(&mut frames, record);
        }
        self.write_frames(&frames, records.len() as u64, None)
    }

    /// [`WalWriter::append_batch`] without the covering sync — for bulk
    /// windows whose sync is deferred to [`WalWriter::sync_now`].
    pub fn append_batch_unsynced(&self, records: &[ChangeRecord]) -> io::Result<()> {
        if records.is_empty() {
            return self.ensure_healthy();
        }
        let mut frames = Vec::new();
        for record in records {
            WalWriter::encode_frame(&mut frames, record);
        }
        self.write_frames(&frames, records.len() as u64, Some(false))
    }

    /// Appends one record without syncing regardless of policy — the
    /// bulk-ingest path defers the covering sync to [`WalWriter::sync_now`]
    /// (every N records and at scope end). Under
    /// [`SyncPolicy::WriteBack`] this is identical to `append`.
    pub fn append_unsynced(&self, record: &ChangeRecord) -> io::Result<()> {
        let mut frames = Vec::new();
        WalWriter::encode_frame(&mut frames, record);
        self.write_frames(&frames, 1, Some(false))
    }

    /// Writes `count` already-encoded frames in one `write_all`.
    /// `sync_override` forces syncing on/off; `None` follows the policy.
    fn write_frames(
        &self,
        frames: &[u8],
        count: u64,
        sync_override: Option<bool>,
    ) -> io::Result<()> {
        let mut inner = self.inner.lock();
        if self.dead.load(Ordering::Acquire) {
            return Err(self.dead_error());
        }

        match self.fault.check("durability", "wal-append") {
            Ok(FaultAction::Proceed) => {}
            Ok(FaultAction::Truncate(keep)) => {
                // Torn write: part of the buffer reaches the disk, then
                // the process "dies" — persist the prefix faithfully so
                // recovery sees exactly what a real tear would leave.
                // For a batch the tear can land inside any frame of the
                // group, which is what the group-commit crash matrix
                // exercises.
                let keep = keep.min(frames.len());
                let result = match inner.file.as_mut() {
                    Some(file) => file
                        .write_all(&frames[..keep])
                        .and_then(|()| file.sync_data()),
                    None => Err(io::Error::other("wal file closed")),
                };
                self.kill("torn write injected");
                return result.and_then(|()| Err(self.dead_error()));
            }
            Err(e) => {
                self.kill(&format!("crash injected: {e}"));
                return Err(self.dead_error());
            }
        }

        let do_sync = sync_override.unwrap_or(matches!(self.sync, SyncPolicy::Fsync));
        let result = match inner.file.as_mut() {
            Some(file) => {
                file.write_all(frames).and_then(
                    |()| {
                        if do_sync {
                            file.sync_data()
                        } else {
                            Ok(())
                        }
                    },
                )
            }
            None => Err(io::Error::other("wal file closed")),
        };
        match result {
            Ok(()) => {
                self.lsn.fetch_add(count, Ordering::Release);
                self.frames.fetch_add(count, Ordering::Relaxed);
                self.groups.fetch_add(1, Ordering::Relaxed);
                self.largest_group.fetch_max(count, Ordering::Relaxed);
                self.histogram[histogram_bucket(count)].fetch_add(1, Ordering::Relaxed);
                if do_sync {
                    self.syncs.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            }
            Err(e) => {
                self.kill(&e.to_string());
                Err(e)
            }
        }
    }

    /// Issues a `sync_data` on the current segment, making every frame
    /// written so far durable (the covering sync of a deferred-sync
    /// window).
    pub fn sync_now(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        if self.dead.load(Ordering::Acquire) {
            return Err(self.dead_error());
        }
        match inner.file.as_mut() {
            Some(file) => match file.sync_data() {
                Ok(()) => {
                    self.syncs.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }
                Err(e) => {
                    self.kill(&e.to_string());
                    Err(e)
                }
            },
            None => Ok(()),
        }
    }

    /// A snapshot of the write-path telemetry counters.
    pub fn stats(&self) -> WalStats {
        let mut histogram = [0u64; GROUP_HISTOGRAM_BUCKETS];
        for (bucket, counter) in histogram.iter_mut().zip(&self.histogram) {
            *bucket = counter.load(Ordering::Relaxed);
        }
        WalStats {
            frames: self.frames.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            groups: self.groups.load(Ordering::Relaxed),
            largest_group: self.largest_group.load(Ordering::Relaxed),
            histogram,
            sync_policy: self.sync,
        }
    }

    /// The writer's sync policy.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync
    }

    /// Syncs and closes the current segment, then starts a fresh one at
    /// `new_path` — the checkpoint rotation. The LSN continues counting.
    pub fn rotate(&self, new_path: &Path) -> io::Result<()> {
        let mut inner = self.inner.lock();
        if self.dead.load(Ordering::Acquire) {
            return Err(self.dead_error());
        }
        if let Some(file) = inner.file.as_mut() {
            file.sync_all()?;
            self.syncs.fetch_add(1, Ordering::Relaxed);
        }
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(new_path)?;
        if let Err(e) = file
            .write_all(WAL_MAGIC)
            .and_then(|()| file.sync_all())
            .and_then(|()| super::artifact::sync_parent_dir(new_path))
        {
            // A segment whose directory entry may not survive a crash
            // must not accept appends.
            self.kill(&e.to_string());
            return Err(e);
        }
        inner.file = Some(file);
        inner.path = new_path.to_path_buf();
        Ok(())
    }

    /// The current log sequence number.
    pub fn lsn(&self) -> u64 {
        self.lsn.load(Ordering::Acquire)
    }

    /// Errors if the writer has died (a previous append failed).
    pub fn ensure_healthy(&self) -> io::Result<()> {
        if self.dead.load(Ordering::Acquire) {
            Err(self.dead_error())
        } else {
            Ok(())
        }
    }

    /// The error that killed the writer, if any.
    pub fn last_error(&self) -> Option<String> {
        self.error.lock().clone()
    }

    /// Flushes the OS buffers of the current segment.
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        match inner.file.as_mut() {
            Some(file) => {
                file.sync_all()?;
                self.syncs.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// The crash/torn-write injection point of this writer.
    pub fn fault_point(&self) -> &FaultPoint {
        &self.fault
    }

    fn kill(&self, reason: &str) {
        *self.error.lock() = Some(reason.to_owned());
        self.dead.store(true, Ordering::Release);
    }

    fn dead_error(&self) -> io::Error {
        let detail = self
            .error
            .lock()
            .clone()
            .unwrap_or_else(|| "unknown".to_owned());
        io::Error::other(format!("wal writer is dead: {detail}"))
    }
}

/// One scanned WAL segment: the valid record prefix plus where (and how)
/// validity ended.
#[derive(Debug)]
pub struct WalSegment {
    /// The decoded records of the valid prefix, in append order.
    pub records: Vec<ChangeRecord>,
    /// Byte offset after each valid record (the truncation points of
    /// the crash matrix); `boundaries[0]` would be the offset after
    /// record 0. The magic header ends at offset 8.
    pub boundaries: Vec<u64>,
    /// Length of the valid prefix — magic plus whole frames.
    pub valid_len: u64,
    /// Actual file length; `file_len > valid_len` means a torn tail.
    pub file_len: u64,
}

impl WalSegment {
    /// Bytes of torn tail after the last valid frame.
    pub fn torn_bytes(&self) -> u64 {
        self.file_len - self.valid_len
    }
}

/// Scans a segment leniently: decodes frames until the first torn or
/// corrupt one, which ends the valid prefix (no error — that is the
/// expected crash shape). A missing or torn *magic* makes the whole
/// segment invalid (`valid_len` covers nothing; all bytes are torn).
pub fn read_segment(path: &Path) -> io::Result<WalSegment> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let file_len = bytes.len() as u64;

    if bytes.len() < 8 || &bytes[..8] != WAL_MAGIC {
        return Ok(WalSegment {
            records: Vec::new(),
            boundaries: Vec::new(),
            valid_len: 0,
            file_len,
        });
    }

    let mut records = Vec::new();
    let mut boundaries = Vec::new();
    let mut pos = 8usize;
    // A short header ends the scan: torn tail.
    while let Some(header) = bytes.get(pos..pos + 12) {
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        if len > MAX_RECORD_LEN {
            break; // insane length → corrupt frame
        }
        let expect = u64::from_le_bytes([
            header[4], header[5], header[6], header[7], header[8], header[9], header[10],
            header[11],
        ]);
        let start = pos + 12;
        let Some(payload) = bytes.get(start..start + len as usize) else {
            break; // short payload → torn tail
        };
        if fnv1a64(payload) != expect {
            break; // bit rot or interleaved tear
        }
        let Ok(record) = ChangeRecord::decode(payload) else {
            break; // checksum ok but undecodable — treat as corrupt
        };
        records.push(record);
        pos = start + len as usize;
        boundaries.push(pos as u64);
    }

    Ok(WalSegment {
        records,
        boundaries,
        valid_len: pos as u64,
        file_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("idm-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.idmlog")
    }

    fn records(n: u64) -> Vec<ChangeRecord> {
        (0..n)
            .map(|i| ChangeRecord::SetName {
                vid: i,
                name: Some(format!("view-{i}")),
            })
            .collect()
    }

    #[test]
    fn append_and_read_back() {
        let path = tmp("roundtrip");
        let wal = WalWriter::create(&path, 0, SyncPolicy::WriteBack).unwrap();
        for r in records(5) {
            wal.append(&r).unwrap();
        }
        assert_eq!(wal.lsn(), 5);
        wal.sync().unwrap();

        let segment = read_segment(&path).unwrap();
        assert_eq!(segment.records, records(5));
        assert_eq!(segment.boundaries.len(), 5);
        assert_eq!(segment.valid_len, segment.file_len);
        assert_eq!(segment.torn_bytes(), 0);
    }

    #[test]
    fn truncation_at_any_offset_yields_a_prefix() {
        let path = tmp("truncate");
        let wal = WalWriter::create(&path, 0, SyncPolicy::WriteBack).unwrap();
        for r in records(4) {
            wal.append(&r).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();

        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let segment = read_segment(&path).unwrap();
            // The recovered records are always a prefix of the log.
            assert_eq!(
                segment.records[..],
                records(4)[..segment.records.len()],
                "cut at {cut}"
            );
            // Cutting exactly at a boundary keeps everything before it.
            if let Some(idx) = segment.boundaries.iter().position(|&b| b == cut as u64) {
                assert_eq!(segment.records.len(), idx + 1);
                assert_eq!(segment.torn_bytes(), 0);
            }
        }
    }

    #[test]
    fn corrupt_byte_ends_the_prefix_there() {
        let path = tmp("corrupt");
        let wal = WalWriter::create(&path, 0, SyncPolicy::WriteBack).unwrap();
        for r in records(3) {
            wal.append(&r).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();

        // Flip one payload byte of the middle record.
        let boundary_0 = read_segment(&path).unwrap().boundaries[0] as usize;
        let mut bent = full.clone();
        bent[boundary_0 + 13] ^= 0xFF;
        std::fs::write(&path, &bent).unwrap();
        let segment = read_segment(&path).unwrap();
        assert_eq!(segment.records, records(1));
        assert!(segment.torn_bytes() > 0);
    }

    #[test]
    fn missing_magic_invalidates_segment() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTMAGIC").unwrap();
        let segment = read_segment(&path).unwrap();
        assert_eq!(segment.valid_len, 0);
        assert!(segment.records.is_empty());
    }

    #[test]
    fn dead_writer_stays_dead() {
        let path = tmp("dead");
        let wal = WalWriter::create(&path, 0, SyncPolicy::WriteBack).unwrap();
        wal.kill("test");
        assert!(wal.append(&records(1)[0]).is_err());
        assert!(wal.ensure_healthy().is_err());
        assert_eq!(wal.last_error().as_deref(), Some("test"));
    }

    #[test]
    fn open_append_truncates_torn_tail_and_continues() {
        let path = tmp("reopen");
        let wal = WalWriter::create(&path, 0, SyncPolicy::WriteBack).unwrap();
        for r in records(3) {
            wal.append(&r).unwrap();
        }
        drop(wal);
        // Tear the tail by hand.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();

        let segment = read_segment(&path).unwrap();
        assert_eq!(segment.records.len(), 2);
        let wal = WalWriter::open_append(
            &path,
            segment.valid_len,
            segment.records.len() as u64,
            SyncPolicy::WriteBack,
        )
        .unwrap();
        wal.append(&ChangeRecord::Remove { vid: 9 }).unwrap();
        assert_eq!(wal.lsn(), 3);
        drop(wal);

        let segment = read_segment(&path).unwrap();
        assert_eq!(segment.records.len(), 3);
        assert_eq!(segment.records[2], ChangeRecord::Remove { vid: 9 });
        assert_eq!(segment.torn_bytes(), 0);
    }

    #[test]
    fn rotation_moves_appends_to_the_new_segment() {
        let dir = tmp("rotate");
        let dir = dir.parent().unwrap();
        let first = dir.join("wal-1.idmlog");
        let second = dir.join("wal-2.idmlog");
        let wal = WalWriter::create(&first, 0, SyncPolicy::WriteBack).unwrap();
        wal.append(&ChangeRecord::Remove { vid: 1 }).unwrap();
        wal.rotate(&second).unwrap();
        wal.append(&ChangeRecord::Remove { vid: 2 }).unwrap();
        assert_eq!(wal.lsn(), 2);
        drop(wal);

        assert_eq!(read_segment(&first).unwrap().records.len(), 1);
        let segment = read_segment(&second).unwrap();
        assert_eq!(segment.records, vec![ChangeRecord::Remove { vid: 2 }]);
    }
}
