//! Online integrity scrub: one budgeted, resumable round over a list of
//! durable artifacts, and the quarantine path for damaged ones.
//!
//! A dataspace that lives for years *will* see bit rot. Recovery-time
//! validation ([`super::DurabilityManager::open`]) only helps after a
//! restart; the scrubber finds damage while the system is up, so it can
//! be repaired from live state instead of discovered after a crash.
//!
//! Each artifact is checked by the module that owns its format:
//!
//! - WAL segments by [`super::wal`]'s frame walker, the one recovery
//!   replays through, so a sealed segment is clean exactly when recovery
//!   would replay all of its bytes. The live segment's length is
//!   captured when its scan starts; a frame cut off by it is an
//!   in-flight append, not damage.
//! - Snapshots and index bundles by [`super::artifact`]'s streaming
//!   check of the sealed layout, which shares its magic, length and
//!   trailer checks with the loader.
//!
//! This module keeps only the round: a byte meter against the optional
//! per-round budget, the [cursor](Scrubber) that carries a paused scan
//! (artifact, offset, running hash) into the next round, and
//! [`quarantine`]. A sealed-artifact read never takes more than the
//! budget has left and a WAL frame is read whole, so a round reads at
//! most its budget plus one WAL frame — unless it must confirm damage
//! found by a resumed scan (see [`Scrubber::round`]). Damage is never
//! destroyed: [`quarantine`] renames the artifact to `*.quarantine` and
//! the caller re-establishes a clean chain with a proactive checkpoint.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use super::artifact::{self, sync_parent_dir};
use super::{snapshot, wal, CheckpointStats};

// ---------------------------------------------------------------------------
// Meter
// ---------------------------------------------------------------------------

/// The byte meter of one round (the scrub analogue of `BudgetTracker`).
pub(crate) struct Meter {
    max: Option<u64>,
    bytes: u64,
}

impl Meter {
    fn new(max: Option<u64>) -> Meter {
        Meter { max, bytes: 0 }
    }

    /// Bytes the round may still read (`u64::MAX` when unbudgeted).
    pub(crate) fn allowance(&self) -> u64 {
        self.max
            .map_or(u64::MAX, |max| max.saturating_sub(self.bytes))
    }

    pub(crate) fn exhausted(&self) -> bool {
        self.allowance() == 0
    }

    pub(crate) fn charge(&mut self, bytes: u64) {
        self.bytes += bytes;
    }
}

/// Outcome of one budgeted scan of one artifact.
pub(crate) enum Scan {
    Clean,
    Damaged(String),
    /// The meter ran out; resume at `offset` with the running `hash`
    /// (unused by WAL segments, which pause between frames).
    Paused {
        offset: u64,
        hash: u64,
    },
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
    /// An index bundle: a sealed artifact whose magic the index crate
    /// owns.
    Index {
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
            Artifact::Index { path, .. } => path,
        }
    }

    /// The artifact class, for reports.
    pub fn kind(&self) -> ArtifactKind {
        match self {
            Artifact::Snapshot(_) => ArtifactKind::Snapshot,
            Artifact::SealedWal(_) | Artifact::LiveWal(_) => ArtifactKind::WalSegment,
            Artifact::Index { .. } => ArtifactKind::Index,
        }
    }

    /// Scans from `offset` with the running `hash` (both 0 to start),
    /// through the reader of the artifact's own format.
    fn scan(&self, offset: u64, hash: u64, meter: &mut Meter) -> io::Result<Scan> {
        match self {
            Artifact::Snapshot(path) => snapshot::scan(path, offset, hash, meter),
            Artifact::Index { path, magic } => {
                artifact::scan_sealed(path, magic, offset, hash, meter)
            }
            Artifact::SealedWal(path) => wal::scan_segment(path, false, offset, meter),
            Artifact::LiveWal(path) => wal::scan_segment(path, true, offset, meter),
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
    /// Index bundle.
    Index,
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
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

/// Fully verifies one artifact, unbudgeted. Used by checkpoint pruning
/// (decide delete vs quarantine) and by tests.
pub fn verify_artifact(artifact: &Artifact) -> io::Result<Verdict> {
    match artifact.scan(0, 0, &mut Meter::new(None))? {
        Scan::Clean => Ok(Verdict::Clean),
        Scan::Damaged(detail) => Ok(Verdict::Damaged(detail)),
        Scan::Paused { .. } => unreachable!("an unbudgeted scan never pauses"),
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

/// What one scrub round verified, found and repaired.
/// [`Scrubber::round`] fills in the first four fields;
/// [`DurabilityManager::scrub_round`](super::DurabilityManager::scrub_round)
/// the repair.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Artifacts fully verified this round.
    pub artifacts_checked: usize,
    /// Bytes read and checksummed this round.
    pub bytes_verified: u64,
    /// Damage found (paths are pre-quarantine names).
    pub findings: Vec<ScrubFinding>,
    /// The byte budget ran out before covering every artifact; the next
    /// round resumes from the scrubber's cursor.
    pub exhausted: bool,
    /// Where each damaged artifact was moved.
    pub quarantined: Vec<PathBuf>,
    /// The proactive repair checkpoint, when damage was found.
    pub repaired: Option<CheckpointStats>,
}

impl fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scrubbed {} artifact(s), {} byte(s)",
            self.artifacts_checked, self.bytes_verified
        )?;
        if !self.findings.is_empty() {
            write!(f, "; {} damaged", self.findings.len())?;
        }
        if !self.quarantined.is_empty() {
            write!(f, ", {} quarantined", self.quarantined.len())?;
        }
        if let Some(stats) = &self.repaired {
            write!(f, ", repaired via checkpoint {}", stats.seq)?;
        }
        if self.exhausted {
            write!(f, " (budget exhausted, resuming next round)")?;
        }
        Ok(())
    }
}

/// Resume point between budgeted rounds.
#[derive(Debug, Clone)]
struct Cursor {
    path: PathBuf,
    /// Artifact length when the cursor was taken.
    len: u64,
    offset: u64,
    hash: u64,
}

impl Cursor {
    /// Whether a scan of `artifact` may continue from this cursor: same
    /// path, and — except for the live WAL, which legitimately grows —
    /// the same length. Everything else is written atomically, so a
    /// changed length means the artifact was replaced.
    fn resumes(&self, artifact: &Artifact) -> bool {
        self.path == artifact.path()
            && (matches!(artifact, Artifact::LiveWal(_))
                || std::fs::metadata(&self.path).is_ok_and(|m| m.len() == self.len))
    }
}

/// The budgeted, resumable scrub driver. Owns the cursor that carries
/// progress across rounds; pass the same `Scrubber` to every round.
#[derive(Debug)]
pub struct Scrubber {
    max_bytes_per_round: Option<u64>,
    cursor: Option<Cursor>,
}

impl Scrubber {
    /// A scrubber that reads at most `max_bytes_per_round` per round
    /// (plus one WAL frame); `None` verifies everything in one round.
    pub fn new(max_bytes_per_round: Option<u64>) -> Scrubber {
        Scrubber {
            max_bytes_per_round,
            cursor: None,
        }
    }

    /// Drops the resume cursor (after the artifact set changed, e.g. a
    /// repair checkpoint rewrote the chain).
    pub fn reset_cursor(&mut self) {
        self.cursor = None;
    }

    /// Runs one budgeted round over `artifacts`, resuming from the
    /// saved cursor. Artifacts are visited in list order starting at
    /// the cursor's artifact, wrapping around, so repeated rounds cover
    /// the whole set even when each round's budget is small. Damage is
    /// reported, not yet quarantined — the caller decides.
    ///
    /// A running hash carried across rounds is stale if the artifact was
    /// rewritten under the same name and length in between, as
    /// `indexes.idm` is by two checkpoints with one record between them.
    /// So damage found by a resumed scan counts only once a re-check of
    /// the whole artifact from offset 0 confirms it.
    pub fn round(&mut self, artifacts: &[Artifact]) -> io::Result<ScrubReport> {
        let mut report = ScrubReport::default();
        let mut meter = Meter::new(self.max_bytes_per_round);
        let cursor = self.cursor.take();
        let start = cursor
            .as_ref()
            .and_then(|c| artifacts.iter().position(|a| a.path() == c.path))
            .unwrap_or(0);
        for step in 0..artifacts.len() {
            let artifact = &artifacts[(start + step) % artifacts.len()];
            if meter.exhausted() {
                // Budget gone between artifacts: the next round starts
                // with this one.
                self.cursor = Some(Cursor {
                    path: artifact.path().to_path_buf(),
                    len: 0,
                    offset: 0,
                    hash: 0,
                });
                report.exhausted = true;
                break;
            }
            let (offset, hash) = match &cursor {
                Some(c) if step == 0 && c.resumes(artifact) => (c.offset, c.hash),
                _ => (0, 0),
            };
            let mut scan = artifact.scan(offset, hash, &mut meter);
            if offset > 0 && matches!(scan, Ok(Scan::Damaged(_))) {
                // Resumed: confirm from offset 0 (see above).
                let mut whole = Meter::new(None);
                scan = artifact.scan(0, 0, &mut whole);
                meter.charge(whole.bytes);
            }
            match scan {
                Ok(Scan::Clean) => report.artifacts_checked += 1,
                Ok(Scan::Damaged(detail)) => {
                    report.artifacts_checked += 1;
                    report.findings.push(ScrubFinding {
                        path: artifact.path().to_path_buf(),
                        kind: artifact.kind(),
                        detail,
                    });
                }
                Ok(Scan::Paused { offset, hash }) => {
                    let len = std::fs::metadata(artifact.path()).map_or(0, |m| m.len());
                    self.cursor = Some(Cursor {
                        path: artifact.path().to_path_buf(),
                        len,
                        offset,
                        hash,
                    });
                    report.exhausted = true;
                    break;
                }
                // Raced with pruning or quarantine (vanished), or a
                // rewrite shrank it under the read: retry next round.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::NotFound | io::ErrorKind::UnexpectedEof
                    ) => {}
                Err(e) => return Err(e),
            }
        }
        report.bytes_verified = meter.bytes;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;

    use super::super::codec;
    use super::super::record::ChangeRecord;
    use super::super::snapshot::SnapshotData;
    use super::super::wal::{read_segment, SyncPolicy, WalWriter};
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("idm-scrub-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A sealed index-bundle stand-in: the index crate's magic over an
    /// arbitrary payload.
    fn write_index(path: &Path, payload: &[u8]) -> Artifact {
        let mut enc = codec::Encoder::new();
        enc.put_raw(b"IDMIDX02");
        enc.put_raw(payload);
        std::fs::write(path, artifact::seal(enc)).unwrap();
        Artifact::Index {
            path: path.to_path_buf(),
            magic: *b"IDMIDX02",
        }
    }

    fn write_snapshot(path: &Path) -> Artifact {
        let data = SnapshotData {
            base_lsn: 3,
            next_vid: 2,
            classes: Vec::new(),
            views: Vec::new(),
            lineage: vec![(1, 0, "some derivation".into())],
        };
        snapshot::write(path, &data).unwrap();
        Artifact::Snapshot(path.to_path_buf())
    }

    fn write_wal(path: &Path, records: &[ChangeRecord]) {
        let wal = WalWriter::create(path, 0, SyncPolicy::WriteBack).unwrap();
        wal.append(records).unwrap();
    }

    /// One WAL frame around an arbitrary payload.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&codec::fnv1a64(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    fn set_name(vid: u64, name: &str) -> ChangeRecord {
        ChangeRecord::SetName {
            vid,
            name: Some(name.to_owned()),
        }
    }

    #[test]
    fn clean_trailing_artifact_verifies() {
        let dir = tmp("trailclean");
        let snapshot = write_snapshot(&dir.join("snap-1.idmsnap"));
        assert_eq!(verify_artifact(&snapshot).unwrap(), Verdict::Clean);
        let index = write_index(&dir.join("indexes.idm"), &[7u8; 4096]);
        assert_eq!(verify_artifact(&index).unwrap(), Verdict::Clean);
    }

    #[test]
    fn every_single_byte_flip_is_detected_in_a_snapshot() {
        let dir = tmp("snapflip");
        let snapshot = write_snapshot(&dir.join("snap-1.idmsnap"));
        let index = write_index(&dir.join("indexes.idm"), b"some index payload bytes");
        for artifact in [snapshot, index] {
            let path = artifact.path();
            let good = std::fs::read(path).unwrap();
            for i in 0..good.len() {
                let mut bad = good.clone();
                bad[i] ^= 0x01;
                std::fs::write(path, &bad).unwrap();
                let verdict = verify_artifact(&artifact).unwrap();
                assert!(
                    matches!(verdict, Verdict::Damaged(_)),
                    "{}: flip at byte {i} went undetected",
                    artifact.kind()
                );
            }
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected_in_a_sealed_wal() {
        let dir = tmp("walflip");
        let path = dir.join("wal-1.idmlog");
        write_wal(
            &path,
            &[
                set_name(1, "first record"),
                set_name(2, "second record payload"),
            ],
        );
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

    /// A frame whose checksum verifies but whose payload does not decode
    /// ends recovery's replay, so the scrub must call it damage too.
    #[test]
    fn checksum_valid_but_undecodable_frame_is_damage() {
        let dir = tmp("undecodable");
        let path = dir.join("wal-1.idmlog");
        let remove = ChangeRecord::Remove { vid: 7 };
        write_wal(&path, std::slice::from_ref(&remove));
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(&frame(&[0xff; 13])).unwrap();
        file.write_all(&frame(&remove.encode())).unwrap();
        drop(file);

        let segment = read_segment(&path).unwrap();
        assert_eq!(segment.records.len(), 1);
        assert_eq!((segment.valid_len, segment.file_len), (22, 61));
        let verdict = verify_artifact(&Artifact::SealedWal(path.clone())).unwrap();
        assert!(matches!(verdict, Verdict::Damaged(_)), "{verdict:?}");
        let verdict = verify_artifact(&Artifact::LiveWal(path)).unwrap();
        assert!(matches!(verdict, Verdict::Damaged(_)), "{verdict:?}");
    }

    #[test]
    fn live_wal_tolerates_inflight_tail_but_not_interior_damage() {
        let dir = tmp("livewal");
        let path = dir.join("wal-1.idmlog");
        write_wal(&path, &[set_name(1, "complete frame")]);
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
        let artifacts = vec![write_index(&dir.join("indexes.idm"), &[42u8; 64 * 1024])];
        let mut scrubber = Scrubber::new(Some(8 * 1024));
        let (mut rounds, mut checked, mut bytes) = (0, 0, 0);
        loop {
            let report = scrubber.round(&artifacts).unwrap();
            rounds += 1;
            checked += report.artifacts_checked;
            bytes += report.bytes_verified;
            assert!(report.findings.is_empty());
            assert!(
                report.bytes_verified <= 8 * 1024,
                "sealed reads fit the budget"
            );
            if !report.exhausted && report.artifacts_checked == 1 {
                break;
            }
            assert!(rounds < 100, "never converged");
        }
        assert!(rounds > 2, "budget forced multiple rounds, got {rounds}");
        assert_eq!(checked, 1);
        assert!(bytes >= 64 * 1024);
    }

    #[test]
    fn budgeted_rounds_still_detect_damage_past_the_first_slice() {
        let dir = tmp("resumedmg");
        let path = dir.join("indexes.idm");
        let artifacts = vec![write_index(&path, &[42u8; 64 * 1024])];
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 20; // deep in the payload, near the trailer
        bytes[at] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let mut scrubber = Scrubber::new(Some(8 * 1024));
        for _ in 0..100 {
            let report = scrubber.round(&artifacts).unwrap();
            if !report.findings.is_empty() {
                return;
            }
        }
        panic!("damage never found");
    }

    /// A resumed running hash that predates a same-length rewrite would
    /// mismatch the new trailer; the re-check from offset 0 keeps that
    /// from counting as damage.
    #[test]
    fn a_same_length_rewrite_between_rounds_is_not_damage() {
        let dir = tmp("rewrite");
        let path = dir.join("indexes.idm");
        let artifacts = vec![write_index(&path, &[1u8; 16 * 1024])];
        let mut scrubber = Scrubber::new(Some(4 * 1024));
        assert!(scrubber.round(&artifacts).unwrap().exhausted);
        write_index(&path, &[2u8; 16 * 1024]);
        loop {
            let report = scrubber.round(&artifacts).unwrap();
            assert!(report.findings.is_empty(), "{report}");
            if !report.exhausted {
                break;
            }
        }
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
        let mut scrubber = Scrubber::new(None);
        let report = scrubber
            .round(&[Artifact::Snapshot(dir.join("snap-9.idmsnap"))])
            .unwrap();
        assert_eq!(report.artifacts_checked, 0);
        assert!(report.findings.is_empty());
    }
}
