//! The write-ahead log: length-prefixed, per-record checksummed frames
//! in an append-only segment file, written through one append path.
//!
//! ## On-disk format
//!
//! A segment starts with the 8-byte magic `IDMWAL02`, followed by zero
//! or more frames:
//!
//! ```text
//! [len: u32 LE] [checksum: u64 LE] [payload: len bytes]
//! ```
//!
//! `checksum` is FNV-1a-64 over the payload, and the payload is an
//! encoded [`ChangeRecord`]. One frame walker reads this layout, and
//! both readers of a segment go through it: recovery
//! ([`read_segment`]) stops at the first frame that is short, oversized,
//! checksum-mismatched, or undecodable — the torn tail is discarded and
//! everything before it is replayed (the classic torn-write discipline)
//! — and the online scrub (`scan_segment`) calls a sealed segment
//! clean exactly when recovery would replay all of its bytes.
//!
//! ## Write path
//!
//! [`WalWriter::append`] is the only way in: it encodes N ≥ 1 frames,
//! writes them with one `write_all` (one *write group*, so a crash
//! tears the group at most once and recovery still sees an exact frame
//! prefix), and under [`SyncPolicy::Fsync`] issues one covering
//! `sync_data` before it returns. A [`BulkWalScope`] defers that sync
//! for the appends of the thread that opened it — to every 128 records
//! and to [`BulkWalScope::finish`] — and for no other thread's.

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, ThreadId};

use parking_lot::Mutex;

use crate::durability::codec::fnv1a64;
use crate::durability::record::ChangeRecord;
use crate::durability::scrub::{Meter, Scan};
use crate::fault::{FaultAction, FaultPoint};

/// Magic bytes opening every WAL segment.
pub const WAL_MAGIC: &[u8; 8] = b"IDMWAL02";

/// Sanity cap on a single record: frames claiming more are treated as
/// corruption, not as a 4 GiB allocation request.
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// Records a bulk window writes between its interior covering syncs.
const BULK_SYNC_EVERY: u64 = 128;

/// When appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Hand frames to the OS page cache and move on. Survives `kill -9`
    /// of the *process* (the kernel still owns the bytes); a power cut
    /// may lose the unsynced tail. The default.
    #[default]
    WriteBack,
    /// `fdatasync` before every append returns (a bulk window defers
    /// its own thread's syncs to [`BulkWalScope::finish`]). Survives
    /// power loss; much slower.
    Fsync,
}

struct WalInner {
    file: File,
    path: PathBuf,
    /// One entry per open [`BulkWalScope`]: the thread whose appends it
    /// defers, and the records that thread has written inside it.
    windows: Vec<(ThreadId, u64)>,
}

impl WalInner {
    /// Whether a group of `count` records appended by the calling
    /// thread needs its covering sync now (under [`SyncPolicy::Fsync`]):
    /// always outside a window of that thread, and inside one only when
    /// the window's record count crosses a [`BULK_SYNC_EVERY`] boundary.
    fn sync_due(&mut self, count: u64) -> bool {
        if self.windows.is_empty() {
            return true;
        }
        let me = thread::current().id();
        match self.windows.iter_mut().find(|(owner, _)| *owner == me) {
            Some((_, written)) => {
                let before = *written;
                *written += count;
                *written / BULK_SYNC_EVERY > before / BULK_SYNC_EVERY
            }
            None => true,
        }
    }
}

/// Write-path telemetry of one [`WalWriter`]: how many record frames it
/// wrote, in how many write groups, and how many `fsync`/`fdatasync`
/// calls it issued for them. The bulk-ingest bench derives its
/// "fsyncs saved" figure from `frames - syncs` under
/// [`SyncPolicy::Fsync`], where the record-at-a-time discipline would
/// have issued one sync per frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Record frames written (equals appended records).
    pub frames: u64,
    /// `sync_data` calls issued by this writer.
    pub syncs: u64,
    /// Write groups committed: one per [`WalWriter::append`].
    pub groups: u64,
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
    /// Telemetry counters (see [`WalStats`]): relaxed atomics read by
    /// reporting code only.
    frames: AtomicU64,
    syncs: AtomicU64,
    groups: AtomicU64,
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
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.sync_all()?;
        // Position at the end; File::set_len does not move the cursor.
        io::Seek::seek(&mut file, io::SeekFrom::End(0))?;
        Ok(WalWriter::from_parts(file, path, base_lsn, sync))
    }

    fn from_parts(file: File, path: &Path, base_lsn: u64, sync: SyncPolicy) -> WalWriter {
        WalWriter {
            inner: Mutex::new(WalInner {
                file,
                path: path.to_path_buf(),
                windows: Vec::new(),
            }),
            lsn: AtomicU64::new(base_lsn),
            sync,
            dead: AtomicBool::new(false),
            error: Mutex::new(None),
            fault: FaultPoint::new(),
            frames: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            groups: AtomicU64::new(0),
        }
    }

    fn encode_frame(buf: &mut Vec<u8>, record: &ChangeRecord) {
        let payload = record.encode();
        buf.reserve(12 + payload.len());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
    }

    /// Appends `records` as one write group: one `write_all` of their
    /// frames and, under [`SyncPolicy::Fsync`], one covering `sync_data`
    /// before returning — unless the calling thread has a
    /// [`BulkWalScope`] open, which defers the sync. Single-record
    /// callers pass [`std::slice::from_ref`]. Store mutators call this
    /// under the store's write lock, so record order in the log is
    /// commit order.
    pub fn append(&self, records: &[ChangeRecord]) -> io::Result<()> {
        if records.is_empty() {
            return self.ensure_healthy();
        }
        let mut frames = Vec::new();
        for record in records {
            WalWriter::encode_frame(&mut frames, record);
        }
        let count = records.len() as u64;

        let mut inner = self.inner.lock();
        self.ensure_healthy()?;
        match self.fault.check("durability", "wal-append") {
            Ok(FaultAction::Proceed) => {}
            Ok(FaultAction::Truncate(keep)) => {
                // Torn write: part of the buffer reaches the disk, then
                // the process "dies" — persist the prefix faithfully so
                // recovery sees exactly what a real tear would leave.
                // For a group of many frames the tear can land inside
                // any of them, which is what the crash matrix exercises.
                let keep = keep.min(frames.len());
                let file = &mut inner.file;
                let result = file
                    .write_all(&frames[..keep])
                    .and_then(|()| file.sync_data());
                self.kill("torn write injected");
                return result.and_then(|()| Err(self.dead_error()));
            }
            Err(e) => {
                self.kill(&format!("crash injected: {e}"));
                return Err(self.dead_error());
            }
        }

        if let Err(e) = inner.file.write_all(&frames) {
            self.kill(&e.to_string());
            return Err(e);
        }
        if matches!(self.sync, SyncPolicy::Fsync) && inner.sync_due(count) {
            self.sync_now(&mut inner)?;
        }
        self.lsn.fetch_add(count, Ordering::Release);
        self.frames.fetch_add(count, Ordering::Relaxed);
        self.groups.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The covering sync: one `sync_data` on the current segment, making
    /// every frame written so far durable. A failure kills the writer.
    fn sync_now(&self, inner: &mut WalInner) -> io::Result<()> {
        self.ensure_healthy()?;
        match inner.file.sync_data() {
            Ok(()) => {
                self.syncs.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.kill(&e.to_string());
                Err(e)
            }
        }
    }

    /// Opens a bulk window for the calling thread: its appends are
    /// written immediately (WAL-before-memory ordering holds) but their
    /// covering sync is deferred to every 128 records and to
    /// [`BulkWalScope::finish`]. Appends from other threads keep
    /// their own covering sync. Callers must not treat a record of the
    /// window as acknowledged until `finish` returns `Ok`.
    pub fn begin_bulk(self: &Arc<Self>) -> BulkWalScope {
        let owner = thread::current().id();
        self.inner.lock().windows.push((owner, 0));
        BulkWalScope {
            wal: Arc::clone(self),
            owner,
            finished: false,
        }
    }

    /// Closes one of `owner`'s windows and issues the covering sync under
    /// [`SyncPolicy::Fsync`].
    fn end_bulk(&self, owner: ThreadId) -> io::Result<()> {
        let mut inner = self.inner.lock();
        if let Some(pos) = inner.windows.iter().position(|(o, _)| *o == owner) {
            inner.windows.swap_remove(pos);
        }
        match self.sync {
            SyncPolicy::Fsync => self.sync_now(&mut inner),
            SyncPolicy::WriteBack => Ok(()),
        }
    }

    /// A snapshot of the write-path telemetry counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            frames: self.frames.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            groups: self.groups.load(Ordering::Relaxed),
            sync_policy: self.sync,
        }
    }

    /// The writer's sync policy.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync
    }

    /// Seals the current segment with a covering sync, then starts a
    /// fresh one at `new_path` — the checkpoint rotation. The LSN
    /// continues counting.
    pub fn rotate(&self, new_path: &Path) -> io::Result<()> {
        let mut inner = self.inner.lock();
        self.sync_now(&mut inner)?;
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
        inner.file = file;
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

/// RAII guard for a bulk window (see [`WalWriter::begin_bulk`]). Call
/// [`BulkWalScope::finish`] to issue the final covering sync and learn
/// whether every record in the window is durable; dropping without
/// `finish` still closes the window and attempts the sync best-effort,
/// but the result is lost.
pub struct BulkWalScope {
    wal: Arc<WalWriter>,
    owner: ThreadId,
    finished: bool,
}

impl BulkWalScope {
    /// Closes the window: issues the covering sync (under
    /// [`SyncPolicy::Fsync`]) and returns its result. Only after an `Ok`
    /// here may the caller acknowledge the window's records.
    pub fn finish(mut self) -> io::Result<()> {
        self.finished = true;
        self.wal.end_bulk(self.owner)
    }
}

impl Drop for BulkWalScope {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.wal.end_bulk(self.owner);
        }
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

    /// Whether recovery replays every byte of the segment: the magic is
    /// there and nothing follows the last whole frame. An empty file is
    /// not whole — a segment is created with its magic, so a sealed one
    /// without it has lost whatever it held.
    pub fn is_whole(&self) -> bool {
        self.valid_len >= WAL_MAGIC.len() as u64 && self.valid_len == self.file_len
    }
}

/// One step of the frame walker ([`next_frame`]).
enum Frame {
    /// The segment magic, bytes `0..8`.
    Magic,
    /// A whole frame whose checksum verifies and whose payload decodes;
    /// the next frame starts at the given offset.
    Record(ChangeRecord, u64),
    /// The segment ends exactly at a frame boundary.
    End,
    /// The segment ends inside the magic or a frame.
    Torn,
    /// Damage: wrong magic, oversized length, checksum mismatch, or a
    /// payload that does not decode.
    Corrupt(String),
}

/// The frame walker: reads what starts at `pos` from `reader`
/// (positioned there) in a segment `limit` bytes long, reusing `payload`
/// as scratch. Recovery and the scrub both walk segments through here.
fn next_frame(
    reader: &mut impl Read,
    pos: u64,
    limit: u64,
    payload: &mut Vec<u8>,
) -> io::Result<Frame> {
    if pos == 0 {
        if limit < WAL_MAGIC.len() as u64 {
            return Ok(Frame::Torn);
        }
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        return Ok(if &magic == WAL_MAGIC {
            Frame::Magic
        } else {
            Frame::Corrupt("bad magic".into())
        });
    }
    if pos == limit {
        return Ok(Frame::End);
    }
    if limit.saturating_sub(pos) < 12 {
        return Ok(Frame::Torn);
    }
    let mut header = [0u8; 12];
    reader.read_exact(&mut header)?;
    let [l0, l1, l2, l3, checksum @ ..] = header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_RECORD_LEN {
        return Ok(Frame::Corrupt(format!("frame at {pos} claims {len} bytes")));
    }
    let end = pos + 12 + u64::from(len);
    if end > limit {
        return Ok(Frame::Torn);
    }
    payload.resize(len as usize, 0);
    reader.read_exact(payload)?;
    if fnv1a64(payload) != u64::from_le_bytes(checksum) {
        return Ok(Frame::Corrupt(format!("frame checksum mismatch at {pos}")));
    }
    Ok(match ChangeRecord::decode(payload) {
        Ok(record) => Frame::Record(record, end),
        Err(_) => Frame::Corrupt(format!("undecodable frame at {pos}")),
    })
}

/// Scans a segment leniently: decodes frames until the first torn or
/// corrupt one, which ends the valid prefix (no error — that is the
/// expected crash shape). A missing or torn *magic* makes the whole
/// segment invalid (`valid_len` covers nothing; all bytes are torn).
pub fn read_segment(path: &Path) -> io::Result<WalSegment> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::with_capacity(1 << 16, file);
    let mut segment = WalSegment {
        records: Vec::new(),
        boundaries: Vec::new(),
        valid_len: 0,
        file_len,
    };
    let mut payload = Vec::new();
    loop {
        match next_frame(&mut reader, segment.valid_len, file_len, &mut payload)? {
            Frame::Magic => segment.valid_len = WAL_MAGIC.len() as u64,
            Frame::Record(record, end) => {
                segment.records.push(record);
                segment.boundaries.push(end);
                segment.valid_len = end;
            }
            Frame::End | Frame::Torn | Frame::Corrupt(_) => return Ok(segment),
        }
    }
}

/// Scrubs the segment at `path` from `offset` (a frame boundary; 0 to
/// start) through the walker recovery replays with. The length is
/// captured once, at open. A frame cut off by it is damage in a sealed
/// segment and an in-flight append in the `live` one; a complete frame
/// inside it is final and must verify either way. Frames are read whole,
/// and the scan pauses between them once the meter runs out.
pub(crate) fn scan_segment(
    path: &Path,
    live: bool,
    offset: u64,
    meter: &mut Meter,
) -> io::Result<Scan> {
    let mut file = File::open(path)?;
    let limit = file.metadata()?.len();
    file.seek(SeekFrom::Start(offset))?;
    let mut pos = offset;
    let mut payload = Vec::new();
    loop {
        if pos < limit && meter.exhausted() {
            return Ok(Scan::Paused {
                offset: pos,
                hash: 0,
            });
        }
        let end = match next_frame(&mut file, pos, limit, &mut payload)? {
            Frame::Magic => WAL_MAGIC.len() as u64,
            Frame::Record(_, end) => end,
            Frame::End => return Ok(Scan::Clean),
            Frame::Torn if live => return Ok(Scan::Clean),
            Frame::Torn => return Ok(Scan::Damaged(format!("torn at byte {pos}"))),
            Frame::Corrupt(detail) => return Ok(Scan::Damaged(detail)),
        };
        meter.charge(end - pos);
        pos = end;
    }
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
            wal.append(&[r]).unwrap();
        }
        assert_eq!(wal.lsn(), 5);

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
            wal.append(&[r]).unwrap();
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
        wal.append(&records(3)).unwrap();
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

    /// The `IDMWAL02` bytes of a two-record segment are pinned: a change
    /// here is a format change, and existing dataspace directories stop
    /// opening.
    #[test]
    fn format_is_pinned() {
        use crate::durability::codec::fnv1a64;
        use crate::durability::record::{SerialContent, SerialGroup, SerialView};
        let path = tmp("pinned");
        let wal = WalWriter::create(&path, 0, SyncPolicy::WriteBack).unwrap();
        let view = SerialView {
            name: Some("a.txt".into()),
            tuple: None,
            content: SerialContent::Inline(bytes::Bytes::from_static(b"hello")),
            group: SerialGroup::Empty,
            class: Some("file".into()),
            owner: Some(3),
        };
        wal.append(&[ChangeRecord::Insert { vid: 5, view }])
            .unwrap();
        wal.append(&[ChangeRecord::Remove { vid: 3 }]).unwrap();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], b"IDMWAL02");
        assert_eq!(bytes.len(), 59);
        assert_eq!(fnv1a64(&bytes), 0xbdf1_5f88_6f98_1aaf);
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
        let err = wal.append(&records(1)).unwrap_err();
        assert!(err.to_string().ends_with("dead: test"), "{err}");
        assert!(wal.ensure_healthy().is_err());
    }

    #[test]
    fn open_append_truncates_torn_tail_and_continues() {
        let path = tmp("reopen");
        let wal = WalWriter::create(&path, 0, SyncPolicy::WriteBack).unwrap();
        for r in records(3) {
            wal.append(&[r]).unwrap();
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
        wal.append(&[ChangeRecord::Remove { vid: 9 }]).unwrap();
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
        wal.append(&[ChangeRecord::Remove { vid: 1 }]).unwrap();
        wal.rotate(&second).unwrap();
        assert_eq!(wal.stats().syncs, 1, "rotation seals with a covering sync");
        wal.append(&[ChangeRecord::Remove { vid: 2 }]).unwrap();
        assert_eq!(wal.lsn(), 2);
        drop(wal);

        assert_eq!(read_segment(&first).unwrap().records.len(), 1);
        let segment = read_segment(&second).unwrap();
        assert_eq!(segment.records, vec![ChangeRecord::Remove { vid: 2 }]);
    }

    #[test]
    fn every_group_gets_one_covering_sync_under_fsync() {
        let path = tmp("fsync");
        let wal = WalWriter::create(&path, 0, SyncPolicy::Fsync).unwrap();
        for r in records(10) {
            wal.append(&[r]).unwrap();
        }
        wal.append(&records(6)).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.frames, 16);
        assert_eq!(stats.groups, 11);
        assert_eq!(stats.syncs, 11);
        assert_eq!(stats.syncs_saved(), 5);
        assert_eq!(read_segment(&path).unwrap().records.len(), 16);
    }

    #[test]
    fn write_back_appends_never_sync() {
        let path = tmp("writeback");
        let wal = Arc::new(WalWriter::create(&path, 0, SyncPolicy::WriteBack).unwrap());
        for r in records(5) {
            wal.append(&[r]).unwrap();
        }
        wal.begin_bulk().finish().unwrap();
        let stats = wal.stats();
        assert_eq!(stats.frames, 5);
        assert_eq!(stats.syncs, 0);
        assert_eq!(stats.syncs_saved(), 0);
    }

    #[test]
    fn bulk_scope_defers_syncs_to_batch_boundaries() {
        let path = tmp("bulk");
        let wal = Arc::new(WalWriter::create(&path, 0, SyncPolicy::Fsync).unwrap());
        let scope = wal.begin_bulk();
        for r in records(300) {
            wal.append(&[r]).unwrap();
        }
        scope.finish().unwrap();
        let stats = wal.stats();
        assert_eq!(stats.frames, 300);
        // 2 interior syncs (at 128 and 256) + 1 covering sync at finish.
        assert_eq!(stats.syncs, 3);
        assert_eq!(read_segment(&path).unwrap().records.len(), 300);

        // Closed windows defer nothing.
        wal.append(&records(1)).unwrap();
        assert_eq!(wal.stats().syncs, 4);
    }

    #[test]
    fn each_thread_defers_only_inside_its_own_window() {
        let path = tmp("threads");
        let wal = Arc::new(WalWriter::create(&path, 0, SyncPolicy::Fsync).unwrap());
        let scope = wal.begin_bulk();
        wal.append(&records(1)).unwrap();
        assert_eq!(wal.stats().syncs, 0, "the opener's append is deferred");
        std::thread::scope(|s| {
            s.spawn(|| wal.append(&records(1)).unwrap());
        });
        assert_eq!(wal.stats().syncs, 1, "another thread's append is synced");
        std::thread::scope(|s| {
            s.spawn(|| {
                let theirs = wal.begin_bulk();
                wal.append(&records(1)).unwrap();
                assert_eq!(wal.stats().syncs, 1, "its own window defers it");
                theirs.finish().unwrap();
            });
        });
        assert_eq!(wal.stats().syncs, 2);
        wal.append(&records(1)).unwrap();
        assert_eq!(wal.stats().syncs, 2, "the first window is still open");
        scope.finish().unwrap();
        assert_eq!(wal.stats().syncs, 3);
    }
}
