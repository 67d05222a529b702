//! Crash-safe dataspace durability: write-ahead logging, checkpoint
//! snapshots and verified recovery (ARIES-style log-then-checkpoint,
//! redo-only).
//!
//! A durable dataspace directory contains:
//!
//! - `snap-<N>.idmsnap` — checkpoint snapshots ([`snapshot`]), each the
//!   full store image as of one log sequence number;
//! - `wal-<N>.idmlog` — WAL segments ([`wal`]); segment `N` holds every
//!   change committed after snapshot `N` was begun.
//!
//! The protocol, end to end:
//!
//! 1. **Attach** ([`DurabilityManager::attach`]): under one store
//!    freeze, write `snap-1` and arm logging into a fresh `wal-1` — no
//!    mutation can slip between the image and the log.
//! 2. **Log**: every `ViewStore` mutator appends its logical
//!    [`record::ChangeRecord`]s under the store's write lock, through the
//!    one append path of [`wal::WalWriter`] (one write group, one
//!    covering sync under [`SyncPolicy::Fsync`]; a [`BulkWalScope`]
//!    defers its own thread's syncs to the window's end).
//! 3. **Checkpoint** ([`DurabilityManager::checkpoint`]): freeze just
//!    long enough to export the store and rotate the WAL into a new
//!    segment, then stream the snapshot from the export outside the
//!    freeze, view by view ([`artifact::write_sealed`]: temp file +
//!    fsync + atomic rename; the snapshot is never held whole in
//!    memory) and prune segments no recovery will need.
//! 4. **Recover** ([`DurabilityManager::open`]): load the newest *valid*
//!    snapshot (corrupt ones are skipped and counted), replay every WAL
//!    segment at or after it, truncate at the first torn or corrupt
//!    record, and report what happened in a [`RecoveryReport`] —
//!    including the vids the replayed records name, which is what any
//!    derived state saved since the snapshot is behind by.
//!
//! What survives a `kill -9`: every extensional component of every
//! committed mutation, class bindings, version counters, every view's
//! owner, and the vid allocator. Intensional
//! (lazy) components that were not forced *when their view was logged*
//! replay as empty — their providers are process-local closures; forced
//! *groups* are made durable at force time via
//! [`record::ChangeRecord::GroupForced`], lazy content forced later
//! becomes durable only with the next snapshot.
//!
//! A directory written in an earlier format (`IDMSNAP1` snapshots,
//! `IDMWAL01` segments, which carry no owners) is refused by
//! [`DurabilityManager::open`] before anything in it is touched.

pub mod artifact;
pub mod codec;
pub mod record;
pub mod scrub;
pub mod snapshot;
pub mod wal;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::class::ClassRegistry;
use crate::fault::FaultPoint;
use crate::store::{Vid, ViewStore};

use record::{group_data, ChangeRecord};
use snapshot::SnapshotData;
use wal::{read_segment, WalWriter};

pub use scrub::{quarantine, Artifact, ArtifactKind, ScrubFinding, ScrubReport, Scrubber, Verdict};
pub use wal::{BulkWalScope, SyncPolicy, WalStats};

/// How a dataspace directory is attached or opened: the sync discipline
/// of its WAL, and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// When appends are made durable ([`SyncPolicy`]).
    pub sync: SyncPolicy,
}

impl DurabilityOptions {
    /// The options for a given sync policy.
    pub fn new(sync: SyncPolicy) -> Self {
        DurabilityOptions { sync }
    }
}

/// What recovery found and did, returned by [`DurabilityManager::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot recovery started from, if any.
    pub snapshot_seq: Option<u64>,
    /// Snapshot files that existed but failed validation and were
    /// skipped in favor of an older one.
    pub snapshots_skipped: usize,
    /// WAL segments replayed (including empty ones).
    pub wal_segments: usize,
    /// Change records replayed from the WAL tail.
    pub records_replayed: u64,
    /// Records that decoded but failed to apply (counted, not fatal).
    pub replay_errors: u64,
    /// Bytes of torn/corrupt WAL tail discarded (including orphaned
    /// segments after a mid-chain tear).
    pub bytes_truncated: u64,
    /// The log sequence number after recovery.
    pub lsn: u64,
    /// Group edges pointing at missing views (allowed by the model;
    /// reported for diagnostics).
    pub dangling_group_edges: usize,
    /// Live views after recovery.
    pub views: usize,
    /// The distinct vids named by the replayed records, ascending —
    /// including records that failed to apply. Derived state built at
    /// the snapshot's base LSN (`lsn - records_replayed`) or later is
    /// behind the recovered store in exactly these views.
    pub touched_vids: Vec<u64>,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.snapshot_seq {
            Some(seq) => write!(f, "recovered from snapshot {seq}")?,
            None => write!(f, "recovered without a snapshot")?,
        }
        if self.snapshots_skipped > 0 {
            write!(
                f,
                " ({} corrupt snapshot(s) skipped)",
                self.snapshots_skipped
            )?;
        }
        write!(
            f,
            ", replayed {} record(s) from {} wal segment(s)",
            self.records_replayed, self.wal_segments
        )?;
        if self.replay_errors > 0 {
            write!(f, " ({} failed to apply)", self.replay_errors)?;
        }
        if self.bytes_truncated > 0 {
            write!(f, ", truncated {} torn byte(s)", self.bytes_truncated)?;
        }
        write!(
            f,
            "; {} view(s) live at lsn {}, {} dangling group edge(s)",
            self.views, self.lsn, self.dangling_group_edges
        )
    }
}

/// What one checkpoint wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Sequence number of the snapshot written.
    pub seq: u64,
    /// Views captured in the snapshot.
    pub views: usize,
    /// Snapshot size in bytes.
    pub bytes: u64,
    /// The log sequence number the snapshot is consistent as of. Doubles
    /// as the index epoch for the `IDMIDX02` handshake.
    pub lsn: u64,
}

/// Owns the durable state of one dataspace directory: the current WAL
/// writer and the snapshot/segment sequence numbers.
#[derive(Debug)]
pub struct DurabilityManager {
    dir: PathBuf,
    /// Sequence of the newest snapshot on disk.
    seq: u64,
    /// Sequence of the segment the WAL currently appends to. Tracked
    /// separately from `seq`: if a snapshot write fails after a
    /// successful rotation, the next checkpoint must rotate *forward*,
    /// never reuse (and truncate) a live segment name.
    wal_seq: u64,
    wal: Arc<WalWriter>,
    /// Fault point consulted between WAL rotation and snapshot write
    /// during [`DurabilityManager::checkpoint`] (the double-fault crash
    /// matrix injects here).
    checkpoint_fault: FaultPoint,
}

fn snap_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq}.idmsnap"))
}

fn wal_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq}.idmlog"))
}

/// Magics of the formats this build no longer reads. Recovery would
/// take such a snapshot for a corrupt one and such a segment for a
/// torn one, and start the log afresh over it.
const RETIRED_MAGICS: [&[u8; 8]; 2] = [b"IDMSNAP1", b"IDMWAL01"];

/// Errors if `path` opens with a [retired](RETIRED_MAGICS) magic. A
/// file too short to hold a magic is left to recovery (a torn one).
fn refuse_retired(path: &Path) -> io::Result<()> {
    let mut magic = [0u8; 8];
    match io::Read::read_exact(&mut std::fs::File::open(path)?, &mut magic) {
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
        read => read?,
    }
    if !RETIRED_MAGICS.contains(&&magic) {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{} is in the retired {} format; this build reads {} and {}",
            path.display(),
            String::from_utf8_lossy(&magic),
            String::from_utf8_lossy(snapshot::SNAP_MAGIC),
            String::from_utf8_lossy(wal::WAL_MAGIC),
        ),
    ))
}

/// Scans a dataspace directory for `snap-N.idmsnap` / `wal-N.idmlog`
/// files, returning `(snapshot seqs, wal seqs)` ascending.
fn scan_dir(dir: &Path) -> io::Result<(Vec<u64>, Vec<u64>)> {
    let mut snaps = Vec::new();
    let mut wals = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("snap-")
            .and_then(|r| r.strip_suffix(".idmsnap"))
            .and_then(|r| r.parse::<u64>().ok())
        {
            snaps.push(seq);
        } else if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|r| r.strip_suffix(".idmlog"))
            .and_then(|r| r.parse::<u64>().ok())
        {
            wals.push(seq);
        }
    }
    snaps.sort_unstable();
    wals.sort_unstable();
    Ok((snaps, wals))
}

/// Applies one replayed change record through the store's ordinary
/// mutators (the WAL is not armed during replay, so nothing re-logs).
fn apply_record(store: &ViewStore, record: ChangeRecord) -> crate::error::Result<()> {
    let classes = Arc::clone(store.classes());
    match record {
        ChangeRecord::Insert { vid, view } => {
            let rec = view.into_record(&classes)?;
            store.restore_insert(Vid::from_raw(vid), rec, 0)
        }
        ChangeRecord::Remove { vid } => store.remove(Vid::from_raw(vid)).map(|_| ()),
        ChangeRecord::SetName { vid, name } => store.set_name(Vid::from_raw(vid), name),
        ChangeRecord::SetTuple { vid, tuple } => store.set_tuple(Vid::from_raw(vid), tuple),
        ChangeRecord::SetContent { vid, content } => {
            store.set_content(Vid::from_raw(vid), content.into_content())
        }
        ChangeRecord::SetGroup { vid, group } => {
            store.set_group(Vid::from_raw(vid), group.into_group()?)
        }
        ChangeRecord::SetClass { vid, class } => store.set_class(
            Vid::from_raw(vid),
            class.map(|name| classes.lookup_or_register(&name)),
        ),
        ChangeRecord::AddGroupMember {
            vid,
            member,
            ordered,
        } => store.add_group_member(Vid::from_raw(vid), Vid::from_raw(member), ordered),
        ChangeRecord::GroupForced { vid, set, seq } => {
            store.apply_group_forced(Vid::from_raw(vid), group_data(set, seq)?)
        }
    }
}

impl DurabilityManager {
    /// Makes a live in-memory store durable in `dir` (which must not
    /// already hold a dataspace): under one store freeze, writes the
    /// initial snapshot `snap-1` *and* arms logging into a fresh
    /// `wal-1` — so there is no window in which a mutation could land in
    /// neither the image nor the log.
    pub fn attach(
        dir: &Path,
        store: &Arc<ViewStore>,
        sync: SyncPolicy,
    ) -> io::Result<(DurabilityManager, CheckpointStats)> {
        std::fs::create_dir_all(dir)?;
        let (snaps, wals) = scan_dir(dir)?;
        if !snaps.is_empty() || !wals.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "{} already holds a dataspace; open it instead",
                    dir.display()
                ),
            ));
        }

        let (export, frozen) = store.frozen_export(|export| -> io::Result<(Arc<WalWriter>, u64)> {
            let bytes = snapshot::write(&snap_path(dir, 1), 0, export, store.classes())?;
            let wal = Arc::new(WalWriter::create(&wal_path(dir, 1), 0, sync)?);
            store.set_wal(Arc::clone(&wal));
            Ok((wal, bytes))
        });
        let (wal, bytes) = match frozen {
            Ok(parts) => parts,
            Err(e) => {
                store.clear_wal();
                return Err(e);
            }
        };

        let stats = CheckpointStats {
            seq: 1,
            views: export.views.len(),
            bytes,
            lsn: 0,
        };
        Ok((
            DurabilityManager {
                dir: dir.to_path_buf(),
                seq: 1,
                wal_seq: 1,
                wal,
                checkpoint_fault: FaultPoint::new(),
            },
            stats,
        ))
    }

    /// Opens (recovers) a durable dataspace: newest valid snapshot, WAL
    /// tail replay, torn-tail truncation. Returns the recovered store,
    /// the manager now appending to the live segment, and the recovery
    /// report. A directory holding a file in a retired format is refused
    /// with [`io::ErrorKind::InvalidData`] and left as it was.
    pub fn open(
        dir: &Path,
        sync: SyncPolicy,
    ) -> io::Result<(Arc<ViewStore>, DurabilityManager, RecoveryReport)> {
        let (snaps, wals) = scan_dir(dir)?;
        if snaps.is_empty() && wals.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "{} holds no dataspace (no snapshots, no wal)",
                    dir.display()
                ),
            ));
        }
        for &seq in &snaps {
            refuse_retired(&snap_path(dir, seq))?;
        }
        for &seq in &wals {
            refuse_retired(&wal_path(dir, seq))?;
        }

        // Newest valid snapshot wins; corrupt ones are skipped, counted
        // and quarantined (renamed, never deleted) so the evidence
        // survives for forensics.
        let mut snapshots_skipped = 0usize;
        let mut found: Option<(u64, SnapshotData)> = None;
        for &seq in snaps.iter().rev() {
            match snapshot::read(&snap_path(dir, seq)) {
                Ok(data) => {
                    found = Some((seq, data));
                    break;
                }
                Err(_) => {
                    snapshots_skipped += 1;
                    let _ = scrub::quarantine(&snap_path(dir, seq));
                }
            }
        }

        let (base_seq, registry, base_lsn, views, next_vid) = match found {
            Some((seq, data)) => {
                let registry = ClassRegistry::from_defs(data.classes)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                (
                    Some(seq),
                    registry,
                    data.base_lsn,
                    data.views,
                    data.next_vid,
                )
            }
            None => (None, ClassRegistry::with_builtins(), 0, Vec::new(), 0),
        };

        let store = Arc::new(ViewStore::with_registry(Arc::new(registry)));
        for (vid, version, view) in views {
            let record = view
                .into_record(store.classes())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            store
                .restore_insert(Vid::from_raw(vid), record, version)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        }
        store.force_next_vid(next_vid);

        // Replay segments at or after the snapshot, in contiguous
        // ascending order. A torn segment ends the chain there; later
        // (orphaned) segments can hold no replayable history and are
        // deleted, their bytes counted as truncated.
        let first_seq = base_seq.unwrap_or_else(|| wals.first().copied().unwrap_or(1));
        let chain: BTreeMap<u64, PathBuf> = wals
            .iter()
            .filter(|&&s| s >= first_seq)
            .map(|&s| (s, wal_path(dir, s)))
            .collect();

        let mut report = RecoveryReport {
            snapshot_seq: base_seq,
            snapshots_skipped,
            wal_segments: 0,
            records_replayed: 0,
            replay_errors: 0,
            bytes_truncated: 0,
            lsn: base_lsn,
            dangling_group_edges: 0,
            views: 0,
            touched_vids: Vec::new(),
        };

        let mut touched = BTreeSet::new();
        let mut live: Option<(u64, u64)> = None; // (seq, valid_len)
        let mut expected = first_seq;
        let mut broken = false;
        for (&seq, path) in &chain {
            if broken || seq != expected {
                // Orphaned segment after a tear or a gap: no record in it
                // can be contiguous with recovered history. Quarantined,
                // not deleted — the bytes still count as truncated but
                // stay on disk for forensics.
                let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                report.bytes_truncated += len;
                let _ = scrub::quarantine(path);
                continue;
            }
            expected += 1;
            let segment = read_segment(path)?;
            report.wal_segments += 1;
            report.bytes_truncated += segment.torn_bytes();
            // A torn segment, or one without its magic, ends the chain.
            broken = !segment.is_whole();
            live = Some((seq, segment.valid_len));
            for record in segment.records {
                report.records_replayed += 1;
                touched.insert(record.vid());
                if apply_record(&store, record).is_err() {
                    report.replay_errors += 1;
                }
            }
        }
        report.lsn = base_lsn + report.records_replayed;
        report.touched_vids = touched.into_iter().collect();

        // Reopen the live segment for appending (truncating its torn
        // tail), or start a fresh one if none survived.
        let (wal_seq, wal) = match live {
            Some((seq, valid_len)) if valid_len >= 8 => {
                let writer =
                    WalWriter::open_append(&wal_path(dir, seq), valid_len, report.lsn, sync)?;
                (seq, writer)
            }
            Some((seq, _)) => {
                // Magic itself was torn — the segment held nothing.
                (
                    seq,
                    WalWriter::create(&wal_path(dir, seq), report.lsn, sync)?,
                )
            }
            None => {
                let seq = first_seq;
                (
                    seq,
                    WalWriter::create(&wal_path(dir, seq), report.lsn, sync)?,
                )
            }
        };
        let wal = Arc::new(wal);
        store.set_wal(Arc::clone(&wal));

        let invariants = store.verify_invariants();
        report.dangling_group_edges = invariants.dangling_edges;
        report.views = invariants.views;

        Ok((
            store,
            DurabilityManager {
                dir: dir.to_path_buf(),
                seq: base_seq.unwrap_or(0),
                wal_seq,
                wal,
                checkpoint_fault: FaultPoint::new(),
            },
            report,
        ))
    }

    /// Writes a checkpoint: freeze the store just long enough to export
    /// it and rotate the WAL, stream the snapshot from the export
    /// outside the freeze (temp + fsync + atomic rename), then prune
    /// history no recovery will need (everything older than the previous
    /// snapshot stays until the *next* checkpoint, so one corrupt
    /// snapshot never strands recovery).
    pub fn checkpoint(&mut self, store: &Arc<ViewStore>) -> io::Result<CheckpointStats> {
        self.wal.ensure_healthy()?;
        let new_seq = self.wal_seq + 1;
        let (export, rotated) = store.frozen_export(|_| -> io::Result<u64> {
            let lsn = self.wal.lsn();
            self.wal.rotate(&wal_path(&self.dir, new_seq))?;
            Ok(lsn)
        });
        let lsn = rotated?;
        self.wal_seq = new_seq;

        // Double-fault injection site: the WAL has rotated but the
        // snapshot is not yet on disk. A crash here must still recover
        // an exact mutation prefix (previous snapshot + full chain).
        self.checkpoint_fault
            .check("durability", "checkpoint-snapshot")
            .map_err(|e| io::Error::other(e.to_string()))?;

        let path = snap_path(&self.dir, new_seq);
        let bytes = snapshot::write(&path, lsn, &export, store.classes())?;
        let previous = self.seq;
        self.seq = new_seq;

        // Retention rule: keep the new and the previous snapshot (and
        // their WAL segments); everything older is superseded. A
        // superseded artifact that still verifies is deleted; one that
        // is damaged is quarantined instead, so the evidence of *what*
        // rotted survives even though recovery no longer needs it.
        let (snaps, wals) = scan_dir(&self.dir)?;
        for seq in snaps.into_iter().filter(|&s| s < previous) {
            let path = snap_path(&self.dir, seq);
            match scrub::verify_artifact(&Artifact::Snapshot(path.clone())) {
                Ok(Verdict::Clean) => {
                    let _ = std::fs::remove_file(&path);
                }
                Ok(Verdict::Damaged(_)) => {
                    let _ = scrub::quarantine(&path);
                }
                Err(_) => {}
            }
        }
        for seq in wals.into_iter().filter(|&s| s < previous) {
            let path = wal_path(&self.dir, seq);
            match scrub::verify_artifact(&Artifact::SealedWal(path.clone())) {
                Ok(Verdict::Clean) => {
                    let _ = std::fs::remove_file(&path);
                }
                Ok(Verdict::Damaged(_)) => {
                    let _ = scrub::quarantine(&path);
                }
                Err(_) => {}
            }
        }

        Ok(CheckpointStats {
            seq: new_seq,
            views: export.views.len(),
            bytes,
            lsn,
        })
    }

    /// This dataspace's snapshots and WAL segments, in scrub order:
    /// snapshots, then segments oldest first, the live one last.
    pub fn artifacts(&self) -> io::Result<Vec<Artifact>> {
        let (snaps, wals) = scan_dir(&self.dir)?;
        let snaps = snaps
            .into_iter()
            .map(|seq| Artifact::Snapshot(snap_path(&self.dir, seq)));
        let wals = wals.into_iter().map(|seq| {
            let path = wal_path(&self.dir, seq);
            if seq == self.wal_seq {
                Artifact::LiveWal(path)
            } else {
                Artifact::SealedWal(path)
            }
        });
        Ok(snaps.chain(wals).collect())
    }

    /// Runs one budgeted scrub round over `artifacts` — this manager's
    /// own ([`DurabilityManager::artifacts`]) plus any derived artifact
    /// the caller keeps beside them, such as the index file — then
    /// **self-heals** on damage:
    ///
    /// 1. every damaged artifact except the live WAL segment is
    ///    [quarantined](scrub::quarantine) immediately;
    /// 2. a proactive [checkpoint](DurabilityManager::checkpoint)
    ///    rotates the WAL and writes a fresh snapshot from the
    ///    in-memory store, re-establishing a clean recovery chain that
    ///    does not involve any damaged file (a caller that listed a
    ///    derived artifact rewrites it from live state, stamped with
    ///    the checkpoint's LSN);
    /// 3. a damaged live segment — now sealed by the rotation — is
    ///    quarantined last, so the writer is never left appending to a
    ///    name outside the chain while the chain still needs it.
    ///
    /// Keep-last-two retention makes step 1 always safe: even if the
    /// *newest* snapshot is quarantined and the repair checkpoint then
    /// fails, the previous snapshot plus the intact WAL chain still
    /// recovers everything.
    pub fn scrub_round(
        &mut self,
        store: &Arc<ViewStore>,
        scrubber: &mut Scrubber,
        artifacts: &[Artifact],
    ) -> io::Result<ScrubReport> {
        let mut report = scrubber.round(artifacts)?;
        if report.findings.is_empty() {
            return Ok(report);
        }
        let live = wal_path(&self.dir, self.wal_seq);
        let (live_damage, rest): (Vec<_>, Vec<_>) =
            report.findings.iter().partition(|f| f.path == live);
        for finding in rest {
            report.quarantined.push(scrub::quarantine(&finding.path)?);
        }
        let stats = self.checkpoint(store)?;
        for finding in live_damage {
            report.quarantined.push(scrub::quarantine(&finding.path)?);
        }
        report.repaired = Some(stats);
        scrubber.reset_cursor();
        Ok(report)
    }

    /// The dataspace directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current log sequence number.
    pub fn lsn(&self) -> u64 {
        self.wal.lsn()
    }

    /// The WAL writer every store mutation appends through (fault
    /// injection and health checks).
    pub fn wal(&self) -> &Arc<WalWriter> {
        &self.wal
    }

    /// Write-path telemetry for the current WAL writer (frames, groups,
    /// syncs). Counters reset when the dataspace is opened, not when a
    /// checkpoint rotates the segment.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// The sequence number of the newest snapshot.
    pub fn snapshot_seq(&self) -> u64 {
        self.seq
    }

    /// The sync policy the WAL was opened with.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.wal.sync_policy()
    }

    /// The fault point consulted mid-checkpoint, between WAL rotation
    /// and snapshot write (crash-matrix tests inject here).
    pub fn checkpoint_fault_point(&self) -> &FaultPoint {
        &self.checkpoint_fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::Content;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("idm-dur-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn attach_checkpoint_open_roundtrip() {
        let dir = tmp("roundtrip");
        let store = Arc::new(ViewStore::new());
        let a = store.build("a.txt").text("alpha").insert();

        let (mut mgr, stats) =
            DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
        assert_eq!(stats.seq, 1);
        assert_eq!(stats.views, 1);
        assert_eq!(stats.lsn, 0);

        // Post-attach mutations are logged.
        let b = store.build("b.txt").text("beta").insert();
        store.set_name(a, Some("a2.txt".into())).unwrap();
        assert_eq!(mgr.lsn(), 2);

        let stats = mgr.checkpoint(&store).unwrap();
        assert_eq!(stats.seq, 2);
        assert_eq!(stats.views, 2);
        assert_eq!(stats.lsn, 2);
        drop(store);
        drop(mgr);

        let (store2, mgr2, report) = DurabilityManager::open(&dir, SyncPolicy::WriteBack).unwrap();
        assert_eq!(report.snapshot_seq, Some(2));
        assert_eq!(report.records_replayed, 0, "checkpoint folded the log");
        assert!(report.touched_vids.is_empty());
        assert_eq!(report.views, 2);
        assert_eq!(report.lsn, 2);
        assert_eq!(store2.name(a).unwrap().as_deref(), Some("a2.txt"));
        assert_eq!(store2.name(b).unwrap().as_deref(), Some("b.txt"));
        assert_eq!(store2.version(a).unwrap(), 1);
        assert_eq!(mgr2.lsn(), 2);
    }

    #[test]
    fn wal_tail_replays_without_checkpoint() {
        let dir = tmp("tail");
        let store = Arc::new(ViewStore::new());
        let (_mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();

        let v = store.build("doc").insert();
        store.set_content(v, Content::text("hello")).unwrap();
        store.set_name(v, Some("doc2".into())).unwrap();
        drop(store);

        let (store2, _, report) = DurabilityManager::open(&dir, SyncPolicy::WriteBack).unwrap();
        assert_eq!(report.records_replayed, 3);
        assert_eq!(report.replay_errors, 0);
        assert_eq!(report.touched_vids, vec![v.as_u64()], "named once");
        assert_eq!(store2.name(v).unwrap().as_deref(), Some("doc2"));
        assert_eq!(
            store2.content(v).unwrap().bytes().unwrap().as_ref(),
            b"hello"
        );
        assert_eq!(store2.version(v).unwrap(), 2);
    }

    #[test]
    fn attach_rejects_populated_directory() {
        let dir = tmp("populated");
        let store = Arc::new(ViewStore::new());
        DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
        let store2 = Arc::new(ViewStore::new());
        let err = DurabilityManager::attach(&dir, &store2, SyncPolicy::WriteBack).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert!(!store2.wal_armed());
    }

    #[test]
    fn open_empty_directory_errors() {
        let dir = tmp("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let err = DurabilityManager::open(&dir, SyncPolicy::WriteBack).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_previous() {
        let dir = tmp("fallback");
        let store = Arc::new(ViewStore::new());
        let (mut mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
        store.build("one").insert();
        mgr.checkpoint(&store).unwrap();
        store.build("two").insert();
        mgr.checkpoint(&store).unwrap();
        drop(store);
        drop(mgr);

        // Corrupt the newest snapshot (seq 3).
        let newest = snap_path(&dir, 3);
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();

        let (store2, _, report) = DurabilityManager::open(&dir, SyncPolicy::WriteBack).unwrap();
        assert_eq!(report.snapshots_skipped, 1);
        assert_eq!(report.snapshot_seq, Some(2));
        // Snapshot 2 plus wal-2's replay ("two" insert) and wal-3 (empty).
        assert_eq!(report.records_replayed, 1);
        assert_eq!(store2.len(), 2);
    }

    #[test]
    fn checkpoint_prunes_old_history_but_keeps_previous() {
        let dir = tmp("prune");
        let store = Arc::new(ViewStore::new());
        let (mut mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
        for i in 0..4 {
            store.build(format!("v{i}")).insert();
            mgr.checkpoint(&store).unwrap();
        }
        let (snaps, wals) = scan_dir(&dir).unwrap();
        assert_eq!(snaps, vec![4, 5], "current + previous snapshots kept");
        assert_eq!(wals, vec![4, 5]);
    }

    fn flip_byte(path: &Path, from_end: usize) {
        let mut bytes = std::fs::read(path).unwrap();
        let at = bytes.len() - from_end;
        bytes[at] ^= 0x40;
        std::fs::write(path, &bytes).unwrap();
    }

    fn names_of(store: &ViewStore) -> Vec<String> {
        let mut names: Vec<String> = store
            .vids()
            .into_iter()
            .filter_map(|v| store.name(v).ok().flatten())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn clean_scrub_round_finds_nothing_and_repairs_nothing() {
        let dir = tmp("scrubclean");
        let store = Arc::new(ViewStore::new());
        let (mut mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
        store.build("a").insert();
        mgr.checkpoint(&store).unwrap();
        store.build("b").insert();

        let mut scrubber = Scrubber::new(None);
        let report = mgr
            .scrub_round(&store, &mut scrubber, &mgr.artifacts().unwrap())
            .unwrap();
        assert!(report.findings.is_empty(), "{report}");
        assert!(report.quarantined.is_empty());
        assert!(report.repaired.is_none());
        assert!(report.artifacts_checked >= 3, "{report}");
        assert!(report.bytes_verified > 0);
        assert!(!report.exhausted);
    }

    /// The corruption-repair matrix: a single byte flip in each artifact
    /// class is detected online, quarantined, repaired without restart,
    /// and the next open recovers the full state.
    #[test]
    fn scrub_round_heals_a_flipped_snapshot_byte() {
        let dir = tmp("scrubsnap");
        let store = Arc::new(ViewStore::new());
        let (mut mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
        store.build("a").insert();
        mgr.checkpoint(&store).unwrap();
        store.build("b").insert();
        flip_byte(&snap_path(&dir, 2), 20);

        let mut scrubber = Scrubber::new(None);
        let report = mgr
            .scrub_round(&store, &mut scrubber, &mgr.artifacts().unwrap())
            .unwrap();
        assert_eq!(report.findings.len(), 1, "{report}");
        assert_eq!(report.findings[0].kind, ArtifactKind::Snapshot);
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0]
            .to_string_lossy()
            .ends_with("snap-2.idmsnap.quarantine"));
        assert!(report.repaired.is_some());
        drop(store);
        drop(mgr);

        let (store2, _, recovery) = DurabilityManager::open(&dir, SyncPolicy::WriteBack).unwrap();
        assert_eq!(recovery.snapshots_skipped, 0, "repair left a clean chain");
        assert_eq!(names_of(&store2), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn scrub_round_heals_a_flipped_sealed_wal_byte() {
        let dir = tmp("scrubwal");
        let store = Arc::new(ViewStore::new());
        let (mut mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
        store.build("a").insert();
        mgr.checkpoint(&store).unwrap(); // seals wal-1
        store.build("b").insert();
        flip_byte(&wal_path(&dir, 1), 5);

        let mut scrubber = Scrubber::new(None);
        let report = mgr
            .scrub_round(&store, &mut scrubber, &mgr.artifacts().unwrap())
            .unwrap();
        assert_eq!(report.findings.len(), 1, "{report}");
        assert_eq!(report.findings[0].kind, ArtifactKind::WalSegment);
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.repaired.is_some());
        drop(store);
        drop(mgr);

        let (store2, _, _) = DurabilityManager::open(&dir, SyncPolicy::WriteBack).unwrap();
        assert_eq!(names_of(&store2), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn scrub_round_heals_a_flipped_live_wal_byte() {
        let dir = tmp("scrublive");
        let store = Arc::new(ViewStore::new());
        let (mut mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
        store.build("a").insert();
        store.build("b").insert();
        // Damage a committed frame in the segment being appended to.
        flip_byte(&wal_path(&dir, 1), 10);

        let mut scrubber = Scrubber::new(None);
        let report = mgr
            .scrub_round(&store, &mut scrubber, &mgr.artifacts().unwrap())
            .unwrap();
        assert_eq!(report.findings.len(), 1, "{report}");
        assert!(report.repaired.is_some());
        // The damaged segment was quarantined only after the repair
        // checkpoint rotated the writer off it.
        assert!(report.quarantined[0]
            .to_string_lossy()
            .contains("wal-1.idmlog.quarantine"));

        // The store keeps working: post-repair appends land in the new
        // segment and survive.
        store.build("c").insert();
        drop(store);
        drop(mgr);
        let (store2, _, recovery) = DurabilityManager::open(&dir, SyncPolicy::WriteBack).unwrap();
        assert_eq!(recovery.snapshots_skipped, 0);
        assert_eq!(
            names_of(&store2),
            vec!["a".to_string(), "b".to_string(), "c".to_string()]
        );
    }

    #[test]
    fn pruning_quarantines_damaged_superseded_artifacts() {
        let dir = tmp("prunequarantine");
        let store = Arc::new(ViewStore::new());
        let (mut mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
        store.build("v0").insert();
        mgr.checkpoint(&store).unwrap(); // snap-2
        store.build("v1").insert();
        // Damage snap-1 while it is still retained (previous = 1 set it
        // out of pruning range so far).
        flip_byte(&snap_path(&dir, 1), 12);
        mgr.checkpoint(&store).unwrap(); // snap-3: prunes < 2
        let (snaps, _) = scan_dir(&dir).unwrap();
        assert_eq!(snaps, vec![2, 3]);
        assert!(
            dir.join("snap-1.idmsnap.quarantine").exists(),
            "damaged superseded snapshot kept as evidence"
        );
        assert!(!snap_path(&dir, 1).exists());
    }

    #[test]
    fn recovery_quarantines_corrupt_snapshots_and_orphan_segments() {
        let dir = tmp("recoveryquarantine");
        let store = Arc::new(ViewStore::new());
        let (mut mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
        store.build("one").insert();
        mgr.checkpoint(&store).unwrap();
        store.build("two").insert();
        mgr.checkpoint(&store).unwrap();
        drop(store);
        drop(mgr);

        // Corrupt the newest snapshot and tear wal-2 so wal-3 orphans.
        flip_byte(&snap_path(&dir, 3), 10);
        let wal2 = wal_path(&dir, 2);
        let bytes = std::fs::read(&wal2).unwrap();
        std::fs::write(&wal2, &bytes[..bytes.len() - 3]).unwrap();

        let (_, _, report) = DurabilityManager::open(&dir, SyncPolicy::WriteBack).unwrap();
        assert_eq!(report.snapshots_skipped, 1);
        assert!(report.bytes_truncated > 0);
        assert!(dir.join("snap-3.idmsnap.quarantine").exists());
        assert!(
            dir.join("wal-3.idmlog.quarantine").exists(),
            "orphaned segment quarantined, not deleted"
        );
    }

    #[test]
    fn recovery_truncates_torn_tail_and_resumes_appending() {
        let dir = tmp("resume");
        let store = Arc::new(ViewStore::new());
        DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
        store.build("a").insert();
        store.build("b").insert();
        drop(store);

        // Tear the tail of wal-1 mid-record.
        let path = wal_path(&dir, 1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let (store2, mut mgr, report) =
            DurabilityManager::open(&dir, SyncPolicy::WriteBack).unwrap();
        assert_eq!(report.records_replayed, 1, "torn insert discarded");
        assert!(report.bytes_truncated > 0);
        assert_eq!(store2.len(), 1);

        // The store keeps working and the next recovery sees new writes.
        store2.build("c").insert();
        mgr.checkpoint(&store2).unwrap();
        drop(store2);
        let (store3, _, report) = DurabilityManager::open(&dir, SyncPolicy::WriteBack).unwrap();
        assert_eq!(report.records_replayed, 0);
        assert_eq!(store3.len(), 2);
    }
}
