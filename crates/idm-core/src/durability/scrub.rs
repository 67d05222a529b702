//! Online integrity scrub: budgeted, resumable checksum verification of
//! durable artifacts, and the quarantine path for damaged ones.
//!
//! A dataspace that lives for years *will* see bit rot. Recovery-time
//! validation ([`super::DurabilityManager::open`]) only helps after a
//! restart; the scrubber finds damage while the system is up, so it can
//! be repaired from live state instead of discovered after a crash.
//!
//! Design, mirroring the cooperative checkpoints of the query budget
//! (`idm-query::budget`):
//!
//! - Work is metered in **slices** ([`ScrubBudget::slice_bytes`] read at
//!   a time) against an optional per-round byte budget. A round that
//!   exhausts its budget saves a [cursor](Scrubber) — artifact path,
//!   byte offset, running hash — and the next round resumes exactly
//!   there, so foreground work is never stalled by a large artifact.
//! - Verification is **streaming**: trailing-checksum artifacts
//!   (snapshots, `IDMIDX02` index bundles) hash every byte up to the
//!   trailer and compare; WAL segments are walked frame by frame with
//!   each frame's own checksum. A single flipped bit anywhere in any
//!   artifact class changes a covered checksum, so it is always
//!   detected.
//! - Damage is never destroyed: [`quarantine`] renames the artifact to
//!   `*.quarantine` (keeping forensic evidence) and the caller
//!   re-establishes a clean chain with a proactive checkpoint.
//!
//! The live WAL segment is scrubbed too: its length is captured first
//! and only frames *fully contained* in that prefix are checked —
//! appends are sequential, so a complete frame inside the captured
//! prefix is final and must verify; an in-flight tail is left alone.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use super::artifact::sync_parent_dir;
use super::codec::{fnv1a64_update, FNV_OFFSET};
use super::snapshot::SNAP_MAGIC;
use super::wal::{MAX_RECORD_LEN, WAL_MAGIC};

// ---------------------------------------------------------------------------
// Budget
// ---------------------------------------------------------------------------

/// How much a scrub round may read, and in what increments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubBudget {
    /// Bytes read per slice before the budget is consulted again.
    pub slice_bytes: usize,
    /// Total bytes one round may verify; `None` scrubs everything in a
    /// single round. A round may overshoot by at most one WAL frame
    /// (frames are only left mid-way for trailing-checksum artifacts).
    pub max_bytes_per_round: Option<u64>,
}

impl Default for ScrubBudget {
    fn default() -> Self {
        ScrubBudget {
            slice_bytes: 256 * 1024,
            max_bytes_per_round: None,
        }
    }
}

impl ScrubBudget {
    /// A budget that verifies at most `max_bytes` per round.
    pub fn bounded(max_bytes: u64) -> Self {
        ScrubBudget {
            max_bytes_per_round: Some(max_bytes),
            ..ScrubBudget::default()
        }
    }
}

/// Per-round byte meter (the scrub analogue of `BudgetTracker`).
struct Meter {
    max: Option<u64>,
    bytes: u64,
    slices: u64,
}

impl Meter {
    fn new(budget: &ScrubBudget) -> Meter {
        Meter {
            max: budget.max_bytes_per_round,
            bytes: 0,
            slices: 0,
        }
    }

    fn charge(&mut self, bytes: u64) {
        self.bytes += bytes;
        self.slices += 1;
    }

    fn exhausted(&self) -> bool {
        self.max.is_some_and(|m| self.bytes >= m)
    }
}

// ---------------------------------------------------------------------------
// Artifacts and verdicts
// ---------------------------------------------------------------------------

/// One durable artifact the scrubber knows how to verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Artifact {
    /// A checkpoint snapshot (`IDMSNAP1` + payload + trailing FNV).
    Snapshot(PathBuf),
    /// A WAL segment no writer appends to: any torn or corrupt frame,
    /// including a torn tail, is damage.
    SealedWal(PathBuf),
    /// The WAL segment currently appended to: only frames fully inside
    /// the length captured at scan start are checked; an in-flight tail
    /// is not damage.
    LiveWal(PathBuf),
    /// Any other magic-prefixed, trailing-FNV artifact (index bundles).
    TrailingChecksum {
        /// Artifact path.
        path: PathBuf,
        /// Expected 8-byte magic.
        magic: [u8; 8],
    },
}

impl Artifact {
    /// The artifact's path.
    pub fn path(&self) -> &Path {
        match self {
            Artifact::Snapshot(p) | Artifact::SealedWal(p) | Artifact::LiveWal(p) => p,
            Artifact::TrailingChecksum { path, .. } => path,
        }
    }

    /// The artifact class, for reports.
    pub fn kind(&self) -> ArtifactKind {
        match self {
            Artifact::Snapshot(_) => ArtifactKind::Snapshot,
            Artifact::SealedWal(_) | Artifact::LiveWal(_) => ArtifactKind::WalSegment,
            Artifact::TrailingChecksum { .. } => ArtifactKind::Index,
        }
    }
}

/// Artifact class, for findings and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Checkpoint snapshot.
    Snapshot,
    /// WAL segment.
    WalSegment,
    /// Index bundle (or other trailing-checksum artifact).
    Index,
}

impl std::fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactKind::Snapshot => write!(f, "snapshot"),
            ArtifactKind::WalSegment => write!(f, "wal"),
            ArtifactKind::Index => write!(f, "index"),
        }
    }
}

/// One-shot verification outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every covered byte verified.
    Clean,
    /// The artifact is damaged; the string says how.
    Damaged(String),
}

/// Internal outcome of one budgeted scan of one artifact.
enum Scan {
    Clean,
    Damaged(String),
    /// Budget ran out; resume at `offset` with running `hash`.
    Paused {
        offset: u64,
        hash: u64,
    },
}

// ---------------------------------------------------------------------------
// Streaming verifiers
// ---------------------------------------------------------------------------

/// Verifies a `magic + payload + trailing fnv1a64 (LE)` artifact in
/// budgeted slices. `offset`/`hash` resume a previous pause (both zero
/// to start; `hash` of 0 means "fresh" and is replaced by the FNV
/// offset basis).
fn scan_trailing(
    path: &Path,
    magic: &[u8; 8],
    start_offset: u64,
    start_hash: u64,
    slice: usize,
    meter: &mut Meter,
) -> io::Result<Scan> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    if len < 16 {
        return Ok(Scan::Damaged(format!("truncated: {len} byte(s)")));
    }
    let hashed_end = len - 8;
    let mut offset = start_offset.min(hashed_end);
    let mut hash = if offset == 0 { FNV_OFFSET } else { start_hash };
    if offset > 0 {
        file.seek(SeekFrom::Start(offset))?;
    }
    let mut buf = vec![0u8; slice.max(16)];
    let mut first = offset == 0;
    while offset < hashed_end {
        let want =
            usize::try_from((hashed_end - offset).min(buf.len() as u64)).unwrap_or(buf.len());
        let chunk = &mut buf[..want];
        file.read_exact(chunk)?;
        if first {
            if chunk.len() >= 8 && &chunk[..8] != magic {
                return Ok(Scan::Damaged("bad magic".into()));
            }
            first = false;
        }
        hash = fnv1a64_update(hash, chunk);
        offset += chunk.len() as u64;
        meter.charge(chunk.len() as u64);
        if meter.exhausted() && offset < hashed_end {
            return Ok(Scan::Paused { offset, hash });
        }
    }
    let mut trailer = [0u8; 8];
    file.seek(SeekFrom::Start(hashed_end))?;
    file.read_exact(&mut trailer)?;
    meter.charge(8);
    if u64::from_le_bytes(trailer) != hash {
        return Ok(Scan::Damaged("checksum mismatch".into()));
    }
    Ok(Scan::Clean)
}

/// Walks WAL frames (`[len u32][fnv u64][payload]` after the 8-byte
/// magic) verifying each frame checksum. For the live segment only the
/// prefix captured at open is checked and an incomplete tail is not
/// damage; for sealed segments any torn byte is.
fn scan_wal(
    path: &Path,
    sealed: bool,
    start_offset: u64,
    slice: usize,
    meter: &mut Meter,
) -> io::Result<Scan> {
    let mut file = File::open(path)?;
    let limit = file.metadata()?.len();
    if limit < 8 {
        return if sealed {
            Ok(Scan::Damaged(format!("truncated magic: {limit} byte(s)")))
        } else {
            // A live segment this short is still being created.
            Ok(Scan::Clean)
        };
    }
    let mut offset = start_offset;
    if offset == 0 {
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)?;
        meter.charge(8);
        if &magic != WAL_MAGIC {
            return Ok(Scan::Damaged("bad magic".into()));
        }
        offset = 8;
    } else {
        file.seek(SeekFrom::Start(offset))?;
    }
    let mut buf = vec![0u8; slice.max(64)];
    loop {
        if offset == limit {
            return Ok(Scan::Clean);
        }
        if offset + 12 > limit {
            return if sealed {
                Ok(Scan::Damaged(format!("torn frame header at {offset}")))
            } else {
                Ok(Scan::Clean)
            };
        }
        let mut header = [0u8; 12];
        file.read_exact(&mut header)?;
        meter.charge(12);
        let payload_len = u64::from(u32::from_le_bytes([
            header[0], header[1], header[2], header[3],
        ]));
        let expect = u64::from_le_bytes([
            header[4], header[5], header[6], header[7], header[8], header[9], header[10],
            header[11],
        ]);
        if payload_len > u64::from(MAX_RECORD_LEN) {
            return Ok(Scan::Damaged(format!(
                "frame at {offset} claims {payload_len} bytes"
            )));
        }
        let end = offset + 12 + payload_len;
        if end > limit {
            return if sealed {
                Ok(Scan::Damaged(format!("torn frame payload at {offset}")))
            } else {
                Ok(Scan::Clean)
            };
        }
        let mut hash = FNV_OFFSET;
        let mut remaining = payload_len;
        while remaining > 0 {
            let want = usize::try_from(remaining.min(buf.len() as u64)).unwrap_or(buf.len());
            let chunk = &mut buf[..want];
            file.read_exact(chunk)?;
            hash = fnv1a64_update(hash, chunk);
            remaining -= chunk.len() as u64;
            meter.charge(chunk.len() as u64);
        }
        if hash != expect {
            return Ok(Scan::Damaged(format!(
                "frame checksum mismatch at {offset}"
            )));
        }
        offset = end;
        // Pause only at frame boundaries: the cursor then needs no
        // partial-frame hash state. A round overshoots by at most one
        // frame.
        if meter.exhausted() && offset < limit {
            return Ok(Scan::Paused { offset, hash: 0 });
        }
    }
}

fn scan_artifact(
    artifact: &Artifact,
    start_offset: u64,
    start_hash: u64,
    slice: usize,
    meter: &mut Meter,
) -> io::Result<Scan> {
    match artifact {
        Artifact::Snapshot(path) => {
            scan_trailing(path, SNAP_MAGIC, start_offset, start_hash, slice, meter)
        }
        Artifact::TrailingChecksum { path, magic } => {
            scan_trailing(path, magic, start_offset, start_hash, slice, meter)
        }
        Artifact::SealedWal(path) => scan_wal(path, true, start_offset, slice, meter),
        Artifact::LiveWal(path) => scan_wal(path, false, start_offset, slice, meter),
    }
}

/// Fully verifies one artifact, unbudgeted. Used by checkpoint pruning
/// (decide delete vs quarantine) and by tests.
pub fn verify_artifact(artifact: &Artifact) -> io::Result<Verdict> {
    let mut meter = Meter::new(&ScrubBudget::default());
    match scan_artifact(
        artifact,
        0,
        0,
        ScrubBudget::default().slice_bytes,
        &mut meter,
    )? {
        Scan::Clean => Ok(Verdict::Clean),
        Scan::Damaged(detail) => Ok(Verdict::Damaged(detail)),
        Scan::Paused { .. } => unreachable!("unbudgeted scan cannot pause"),
    }
}

// ---------------------------------------------------------------------------
// Quarantine
// ---------------------------------------------------------------------------

/// Renames a damaged artifact to `<name>.quarantine` (suffixing `.2`,
/// `.3`, … if that name is taken). The bytes are never deleted: the
/// quarantined file no longer matches the `snap-*/wal-*` patterns, so
/// recovery, pruning and scrubbing all ignore it, but forensic evidence
/// of what was damaged survives on disk.
pub fn quarantine(path: &Path) -> io::Result<PathBuf> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unnamed artifact"))?
        .to_owned();
    let parent = path.parent().unwrap_or_else(|| Path::new("."));
    let mut target = parent.join(format!("{name}.quarantine"));
    let mut n = 1u32;
    while target.exists() {
        n += 1;
        target = parent.join(format!("{name}.quarantine.{n}"));
    }
    std::fs::rename(path, &target)?;
    let _ = sync_parent_dir(&target);
    Ok(target)
}

// ---------------------------------------------------------------------------
// Scrubber
// ---------------------------------------------------------------------------

/// One damaged artifact found by a round.
#[derive(Debug, Clone)]
pub struct ScrubFinding {
    /// Path of the damaged artifact (pre-quarantine).
    pub path: PathBuf,
    /// Artifact class.
    pub kind: ArtifactKind,
    /// What failed to verify.
    pub detail: String,
}

/// What one [`Scrubber::round`] did.
#[derive(Debug, Clone, Default)]
pub struct RoundOutcome {
    /// Artifacts fully verified this round.
    pub artifacts_checked: usize,
    /// Bytes read and verified this round.
    pub bytes_verified: u64,
    /// Cooperative slices taken.
    pub slices: u64,
    /// Damaged artifacts (not yet quarantined — the caller decides).
    pub damaged: Vec<ScrubFinding>,
    /// The byte budget ran out before the artifact list was covered;
    /// the next round resumes from the saved cursor.
    pub exhausted: bool,
}

/// Lifetime totals across every round of one [`Scrubber`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubTotals {
    /// Rounds run.
    pub rounds: u64,
    /// Bytes verified across all rounds.
    pub bytes_verified: u64,
    /// Cooperative slices across all rounds.
    pub slices: u64,
    /// Artifacts fully verified across all rounds.
    pub artifacts_checked: u64,
    /// Damaged artifacts found across all rounds.
    pub findings: u64,
}

/// Resume point between budgeted rounds.
#[derive(Debug, Clone)]
struct Cursor {
    path: PathBuf,
    /// Artifact length when the cursor was taken; a changed length
    /// (artifact rewritten) restarts it from zero.
    len: u64,
    offset: u64,
    hash: u64,
}

/// The budgeted, resumable scrub driver. Owns the cursor that carries
/// progress across rounds; pass the same `Scrubber` to every round.
#[derive(Debug)]
pub struct Scrubber {
    budget: ScrubBudget,
    cursor: Option<Cursor>,
    totals: ScrubTotals,
}

impl Scrubber {
    /// A scrubber with the given per-round budget.
    pub fn new(budget: ScrubBudget) -> Scrubber {
        Scrubber {
            budget,
            cursor: None,
            totals: ScrubTotals::default(),
        }
    }

    /// Lifetime totals.
    pub fn totals(&self) -> ScrubTotals {
        self.totals
    }

    /// The configured budget.
    pub fn budget(&self) -> ScrubBudget {
        self.budget
    }

    /// Drops the resume cursor (after the artifact set changed, e.g. a
    /// repair checkpoint rewrote the chain).
    pub fn reset_cursor(&mut self) {
        self.cursor = None;
    }

    /// Runs one budgeted round over `artifacts`, resuming from the
    /// saved cursor. Artifacts are visited in list order starting at
    /// the cursor's artifact, wrapping around, so repeated rounds cover
    /// the whole set even when each round's budget is small.
    pub fn round(&mut self, artifacts: &[Artifact]) -> io::Result<RoundOutcome> {
        let mut outcome = RoundOutcome::default();
        self.totals.rounds += 1;
        if artifacts.is_empty() {
            return Ok(outcome);
        }
        let mut meter = Meter::new(&self.budget);
        let start = self
            .cursor
            .as_ref()
            .and_then(|c| artifacts.iter().position(|a| a.path() == c.path))
            .unwrap_or(0);
        let mut resume = self.cursor.take();
        for step in 0..artifacts.len() {
            let artifact = &artifacts[(start + step) % artifacts.len()];
            let (mut offset, mut hash) = (0u64, 0u64);
            if let Some(cursor) = resume.take() {
                if cursor.path == artifact.path() {
                    let len = std::fs::metadata(artifact.path()).map(|m| m.len());
                    if len.is_ok_and(|l| l == cursor.len || !artifact_is_immutable(artifact)) {
                        offset = cursor.offset;
                        hash = cursor.hash;
                    }
                }
            }
            match scan_artifact(artifact, offset, hash, self.budget.slice_bytes, &mut meter) {
                Ok(Scan::Clean) => outcome.artifacts_checked += 1,
                Ok(Scan::Damaged(detail)) => {
                    outcome.artifacts_checked += 1;
                    outcome.damaged.push(ScrubFinding {
                        path: artifact.path().to_path_buf(),
                        kind: artifact.kind(),
                        detail,
                    });
                }
                Ok(Scan::Paused { offset, hash }) => {
                    let len = std::fs::metadata(artifact.path())
                        .map(|m| m.len())
                        .unwrap_or(0);
                    self.cursor = Some(Cursor {
                        path: artifact.path().to_path_buf(),
                        len,
                        offset,
                        hash,
                    });
                    outcome.exhausted = true;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    // Raced with pruning/quarantine; nothing to verify.
                }
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    // The artifact shrank under us (rewrite race): treat
                    // as unverifiable this round, retry next round.
                }
                Err(e) => return Err(e),
            }
            if meter.exhausted() && step + 1 < artifacts.len() {
                // Budget gone between artifacts: remember where to pick
                // up (start of the next artifact).
                let next = &artifacts[(start + step + 1) % artifacts.len()];
                self.cursor = Some(Cursor {
                    path: next.path().to_path_buf(),
                    len: 0,
                    offset: 0,
                    hash: 0,
                });
                outcome.exhausted = true;
                break;
            }
        }
        outcome.bytes_verified = meter.bytes;
        outcome.slices = meter.slices;
        self.totals.bytes_verified += meter.bytes;
        self.totals.slices += meter.slices;
        self.totals.artifacts_checked += outcome.artifacts_checked as u64;
        self.totals.findings += outcome.damaged.len() as u64;
        Ok(outcome)
    }
}

/// Whether a changed file length invalidates a resume cursor. The live
/// WAL legitimately grows; everything else is written atomically and a
/// length change means the artifact was replaced.
fn artifact_is_immutable(artifact: &Artifact) -> bool {
    !matches!(artifact, Artifact::LiveWal(_))
}

#[cfg(test)]
mod tests {
    use super::super::codec;
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("idm-scrub-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_trailing(path: &Path, magic: &[u8; 8], payload: &[u8]) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(magic);
        bytes.extend_from_slice(payload);
        let sum = codec::fnv1a64(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
    }

    fn write_wal(path: &Path, payloads: &[&[u8]]) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(WAL_MAGIC);
        for p in payloads {
            bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&codec::fnv1a64(p).to_le_bytes());
            bytes.extend_from_slice(p);
        }
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn clean_trailing_artifact_verifies() {
        let dir = tmp("trailclean");
        let path = dir.join("snap-1.idmsnap");
        write_trailing(&path, SNAP_MAGIC, &vec![7u8; 4096]);
        let verdict = verify_artifact(&Artifact::Snapshot(path)).unwrap();
        assert_eq!(verdict, Verdict::Clean);
    }

    #[test]
    fn every_single_byte_flip_is_detected_in_a_snapshot() {
        let dir = tmp("snapflip");
        let path = dir.join("snap-1.idmsnap");
        write_trailing(&path, SNAP_MAGIC, b"some snapshot payload bytes");
        let good = std::fs::read(&path).unwrap();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            let verdict = verify_artifact(&Artifact::Snapshot(path.clone())).unwrap();
            assert!(
                matches!(verdict, Verdict::Damaged(_)),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected_in_a_sealed_wal() {
        let dir = tmp("walflip");
        let path = dir.join("wal-1.idmlog");
        write_wal(&path, &[b"first record", b"second record payload"]);
        let good = std::fs::read(&path).unwrap();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x80;
            std::fs::write(&path, &bad).unwrap();
            let verdict = verify_artifact(&Artifact::SealedWal(path.clone())).unwrap();
            assert!(
                matches!(verdict, Verdict::Damaged(_)),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn live_wal_tolerates_inflight_tail_but_not_interior_damage() {
        let dir = tmp("livewal");
        let path = dir.join("wal-1.idmlog");
        write_wal(&path, &[b"complete frame"]);
        // Append half a frame: header promising more bytes than exist.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(b"partial");
        std::fs::write(&path, &bytes).unwrap();
        let live = verify_artifact(&Artifact::LiveWal(path.clone())).unwrap();
        assert_eq!(live, Verdict::Clean, "in-flight tail is not damage");
        let sealed = verify_artifact(&Artifact::SealedWal(path.clone())).unwrap();
        assert!(matches!(sealed, Verdict::Damaged(_)), "sealed tear is");

        // But a flip inside the complete frame is damage even live.
        bytes[12] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let live = verify_artifact(&Artifact::LiveWal(path)).unwrap();
        assert!(matches!(live, Verdict::Damaged(_)));
    }

    #[test]
    fn budgeted_rounds_resume_and_cover_the_whole_artifact() {
        let dir = tmp("resume");
        let path = dir.join("snap-1.idmsnap");
        write_trailing(&path, SNAP_MAGIC, &vec![42u8; 64 * 1024]);
        let mut scrubber = Scrubber::new(ScrubBudget {
            slice_bytes: 4 * 1024,
            max_bytes_per_round: Some(8 * 1024),
        });
        let artifacts = vec![Artifact::Snapshot(path)];
        let mut rounds = 0;
        loop {
            let outcome = scrubber.round(&artifacts).unwrap();
            rounds += 1;
            assert!(outcome.damaged.is_empty());
            if !outcome.exhausted && outcome.artifacts_checked == 1 {
                break;
            }
            assert!(rounds < 100, "never converged");
        }
        assert!(rounds > 2, "budget forced multiple rounds, got {rounds}");
        assert_eq!(scrubber.totals().artifacts_checked, 1);
        assert!(scrubber.totals().bytes_verified >= 64 * 1024);
    }

    #[test]
    fn budgeted_rounds_still_detect_damage_past_the_first_slice() {
        let dir = tmp("resumedmg");
        let path = dir.join("snap-1.idmsnap");
        write_trailing(&path, SNAP_MAGIC, &vec![42u8; 64 * 1024]);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 20; // deep in the payload, near the trailer
        bytes[at] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let mut scrubber = Scrubber::new(ScrubBudget {
            slice_bytes: 4 * 1024,
            max_bytes_per_round: Some(8 * 1024),
        });
        let artifacts = vec![Artifact::Snapshot(path)];
        for _ in 0..100 {
            let outcome = scrubber.round(&artifacts).unwrap();
            if !outcome.damaged.is_empty() {
                return;
            }
        }
        panic!("damage never found");
    }

    #[test]
    fn quarantine_renames_and_never_clobbers() {
        let dir = tmp("quarantine");
        let path = dir.join("snap-3.idmsnap");
        std::fs::write(&path, b"damaged").unwrap();
        let q1 = quarantine(&path).unwrap();
        assert_eq!(q1, dir.join("snap-3.idmsnap.quarantine"));
        assert!(!path.exists());
        assert!(q1.exists());

        std::fs::write(&path, b"damaged again").unwrap();
        let q2 = quarantine(&path).unwrap();
        assert_eq!(q2, dir.join("snap-3.idmsnap.quarantine.2"));
        assert_eq!(std::fs::read(&q1).unwrap(), b"damaged");
        assert_eq!(std::fs::read(&q2).unwrap(), b"damaged again");
    }

    #[test]
    fn round_skips_vanished_artifacts() {
        let dir = tmp("vanish");
        let mut scrubber = Scrubber::new(ScrubBudget::default());
        let outcome = scrubber
            .round(&[Artifact::Snapshot(dir.join("snap-9.idmsnap"))])
            .unwrap();
        assert_eq!(outcome.artifacts_checked, 0);
        assert!(outcome.damaged.is_empty());
    }
}
