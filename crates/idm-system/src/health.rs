//! System health: periodic integrity scrub + index audit rounds.
//!
//! The [`HealthMonitor`] orchestrates self-healing the way
//! [`crate::SynchronizationManager`] orchestrates sync: the caller (a
//! shell command, a background thread, the chaos driver) invokes
//! [`HealthMonitor::round`] periodically, and each round
//!
//! 1. runs one scrub round ([`Pdsms::scrub_round`]) over every durable
//!    artifact — snapshots, WAL segments and the index file
//!    `indexes.idm` — reading at most 8 MiB (plus one WAL frame) and
//!    resuming where the previous round stopped; damage is quarantined
//!    and repaired by a proactive checkpoint, after which the index file
//!    is rewritten from the live bundle;
//! 2. cross-checks a sample of 64 views' index postings against the
//!    store ([`mod@idm_index::audit`]), a full audit every 8th round,
//!    and rebuilds any drifted view through the segment path.
//!
//! Everything is budgeted and incremental, so a health round is safe to
//! interleave with foreground queries; the monitor accumulates
//! [`HealthStats`] across rounds for the `\health` shell command.

use std::time::Instant;

use idm_core::durability::{Artifact, DurabilityManager, ScrubReport, Scrubber};
use idm_core::prelude::*;
use idm_index::{AuditMemo, AuditReport, AuditScope};

use crate::{durability_err, Pdsms, INDEX_FILE};

/// Bytes one health round's scrub may read (plus one WAL frame).
const SCRUB_BYTES_PER_ROUND: u64 = 8 * 1024 * 1024;
/// Views cross-checked by a sampled audit.
const AUDIT_SAMPLE: usize = 64;
/// Every this many rounds, the audit is a full one (with stale-entry
/// detection) instead of a sampled one.
const FULL_AUDIT_EVERY: u64 = 8;

/// One health round's findings and repairs.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// 1-based round number.
    pub round: u64,
    /// Durable-artifact scrub outcome (empty for in-memory systems).
    pub scrub: ScrubReport,
    /// Index postings audit outcome.
    pub audit: AuditReport,
    /// Views rebuilt from the store after audit mismatches.
    pub index_repaired: usize,
    /// Scrub throughput this round: bytes verified over the scrub
    /// call's own wall time.
    pub bytes_per_sec: f64,
}

impl HealthReport {
    /// Whether this round found any damage at all.
    pub fn healthy(&self) -> bool {
        self.scrub.findings.is_empty() && self.audit.is_clean()
    }
}

impl std::fmt::Display for HealthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "round {}: {}; audit checked {} view(s) ({} skipped unchanged)",
            self.round, self.scrub, self.audit.views_checked, self.audit.skipped_unchanged
        )?;
        if !self.audit.mismatches.is_empty() || !self.audit.stale_entries.is_empty() {
            write!(
                f,
                "; {} drifted + {} stale index entr(ies), {} repaired",
                self.audit.mismatches.len(),
                self.audit.stale_entries.len(),
                self.index_repaired
            )?;
        }
        write!(f, "; {:.1} MB/s scrub", self.bytes_per_sec / 1e6)
    }
}

/// Cumulative totals across every round of one monitor.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HealthStats {
    /// Health rounds run.
    pub rounds: u64,
    /// Bytes checksum-verified by the scrub.
    pub bytes_verified: u64,
    /// Damaged durable artifacts found.
    pub findings: u64,
    /// Artifacts quarantined.
    pub quarantined: u64,
    /// Proactive repair checkpoints triggered.
    pub repair_checkpoints: u64,
    /// Views cross-checked by audits.
    pub views_audited: u64,
    /// Drifted or stale index entries found.
    pub index_mismatches: u64,
    /// Views rebuilt by audit repair.
    pub index_repaired: u64,
}

/// Periodic scrub/audit orchestrator for one [`Pdsms`].
pub struct HealthMonitor {
    scrubber: Scrubber,
    memo: AuditMemo,
    stats: HealthStats,
}

impl Default for HealthMonitor {
    fn default() -> Self {
        HealthMonitor::new()
    }
}

impl HealthMonitor {
    /// A monitor with a fresh scrub cursor and audit memo.
    pub fn new() -> Self {
        HealthMonitor {
            scrubber: Scrubber::new(Some(SCRUB_BYTES_PER_ROUND)),
            memo: AuditMemo::new(),
            stats: HealthStats::default(),
        }
    }

    /// Cumulative totals.
    pub fn stats(&self) -> HealthStats {
        self.stats
    }

    /// Runs one health round against `system` (see module docs).
    pub fn round(&mut self, system: &Pdsms) -> Result<HealthReport> {
        let round = self.stats.rounds + 1;

        let started = Instant::now();
        let scrub = if system.is_durable() {
            system.scrub_round(&mut self.scrubber)?
        } else {
            ScrubReport::default()
        };
        let scrub_secs = started.elapsed().as_secs_f64().max(1e-9);

        let scope = if round.is_multiple_of(FULL_AUDIT_EVERY) {
            AuditScope::Full
        } else {
            AuditScope::Sampled {
                sample: AUDIT_SAMPLE,
                seed: round,
            }
        };
        let audit = system.audit_indexes(scope, Some(&mut self.memo))?;
        let index_repaired = if audit.is_clean() {
            0
        } else {
            system.repair_indexes(&audit)?
        };

        self.stats.rounds = round;
        self.stats.bytes_verified += scrub.bytes_verified;
        self.stats.findings += scrub.findings.len() as u64;
        self.stats.quarantined += scrub.quarantined.len() as u64;
        if scrub.repaired.is_some() {
            self.stats.repair_checkpoints += 1;
        }
        self.stats.views_audited += audit.views_checked as u64;
        self.stats.index_mismatches += (audit.mismatches.len() + audit.stale_entries.len()) as u64;
        self.stats.index_repaired += index_repaired as u64;

        Ok(HealthReport {
            round,
            bytes_per_sec: scrub.bytes_verified as f64 / scrub_secs,
            scrub,
            audit,
            index_repaired,
        })
    }
}

impl Pdsms {
    /// Every durable artifact of this dataspace — snapshots, WAL
    /// segments (the live one last), then the index file — in the order
    /// a scrub round visits them. Empty for in-memory systems.
    pub fn artifacts(&self) -> Result<Vec<Artifact>> {
        match &self.durability {
            Some(manager) => artifacts_of(&manager.lock()),
            None => Ok(Vec::new()),
        }
    }

    /// Runs one scrub round over [`Pdsms::artifacts`], quarantining and
    /// repairing damage (see
    /// [`DurabilityManager::scrub_round`]). After a repair checkpoint
    /// the index file is rewritten from the live bundle, stamped with
    /// the checkpoint's LSN — which also repairs a damaged index file.
    /// Errors when the system is not durable.
    pub fn scrub_round(&self, scrubber: &mut Scrubber) -> Result<ScrubReport> {
        let manager = self.durability.as_ref().ok_or_else(|| IdmError::Parse {
            detail: "dataspace is not durable (use make_durable or open)".into(),
        })?;
        let (report, dir) = {
            let mut guard = manager.lock();
            let artifacts = artifacts_of(&guard)?;
            let report = guard
                .scrub_round(&self.store, scrubber, &artifacts)
                .map_err(durability_err)?;
            (report, guard.dir().to_path_buf())
        };
        if let Some(stats) = &report.repaired {
            idm_index::persist::save_with_epoch(&self.indexes, &dir.join(INDEX_FILE), stats.lsn)
                .map_err(durability_err)?;
        }
        Ok(report)
    }

    /// Cross-checks index postings against the live store (see
    /// [`mod@idm_index::audit`]).
    pub fn audit_indexes(
        &self,
        scope: AuditScope,
        memo: Option<&mut AuditMemo>,
    ) -> Result<AuditReport> {
        idm_index::audit(&self.indexes, &self.store, scope, memo)
    }

    /// Rebuilds every view an audit found drifted and removes stale
    /// catalog entries; returns the number of views repaired.
    pub fn repair_indexes(&self, report: &AuditReport) -> Result<usize> {
        idm_index::repair(&self.indexes, &self.store, report)
    }
}

/// The one list of a durable dataspace's artifacts: the manager's
/// snapshots and WAL segments, then the index file beside them.
fn artifacts_of(manager: &DurabilityManager) -> Result<Vec<Artifact>> {
    let mut artifacts = manager.artifacts().map_err(durability_err)?;
    artifacts.push(idm_index::persist::artifact_at(
        &manager.dir().join(INDEX_FILE),
    ));
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};

    use idm_core::durability::wal::read_segment;
    use idm_core::durability::ArtifactKind;

    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("idm-health-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_system(dir: &Path) -> Pdsms {
        let mut system = Pdsms::new();
        for i in 0..5 {
            system
                .store()
                .build(format!("doc{i}.txt"))
                .text(format!("health check document {i}"))
                .insert();
        }
        let vids = system.store().vids();
        for vid in vids {
            system
                .indexes()
                .index_view(system.store(), vid, "dataspace")
                .unwrap();
        }
        system.make_durable(dir).unwrap();
        system.checkpoint().unwrap();
        system
    }

    fn len(artifact: &Artifact) -> u64 {
        std::fs::metadata(artifact.path()).unwrap().len()
    }

    fn quarantined_files(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_string_lossy().contains("quarantine")
            })
            .count()
    }

    #[test]
    fn healthy_system_reports_healthy_rounds() {
        let dir = tmp("clean");
        let system = durable_system(&dir);
        let mut monitor = HealthMonitor::new();
        let report = monitor.round(&system).unwrap();
        assert!(report.healthy(), "{report}");
        assert!(report.scrub.bytes_verified > 0);
        assert_eq!(
            report.scrub.artifacts_checked,
            system.artifacts().unwrap().len(),
            "one round covers snapshots, WAL and the index file"
        );
        assert_eq!(monitor.stats().rounds, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_index_artifact_is_quarantined_and_rewritten() {
        let dir = tmp("indexflip");
        let system = durable_system(&dir);
        let path = dir.join(INDEX_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let mut monitor = HealthMonitor::new();
        let report = monitor.round(&system).unwrap();
        assert!(!report.healthy());
        assert_eq!(report.scrub.findings.len(), 1, "{report}");
        assert_eq!(report.scrub.findings[0].kind, ArtifactKind::Index);
        assert_eq!(
            report.scrub.quarantined,
            vec![dir.join("indexes.idm.quarantine")]
        );
        assert!(dir.join("indexes.idm.quarantine").exists());
        // The rewritten artifact loads, stamped with the repair's LSN.
        let repaired = report.scrub.repaired.expect("repair checkpoint");
        let (_, epoch) = idm_index::persist::load_with_epoch(&path).unwrap();
        assert_eq!(epoch, repaired.lsn);
        let next = monitor.round(&system).unwrap();
        assert!(next.healthy(), "{next}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `indexes.idm` is rewritten under the same name by every
    /// checkpoint, at the same length when only the epoch moved. A
    /// round that paused inside it must not resume the old file's
    /// running hash into a false finding.
    #[test]
    fn a_checkpoint_under_a_paused_index_scan_is_not_damage() {
        let dir = tmp("indexrewrite");
        let system = durable_system(&dir);
        let artifacts = system.artifacts().unwrap();
        let (index, rest) = artifacts.split_last().unwrap();
        assert_eq!(index.kind(), ArtifactKind::Index);
        let before: u64 = rest.iter().map(len).sum();
        let index_len = len(index);
        let mut scrubber = Scrubber::new(Some(before + index_len / 2));
        let first = system.scrub_round(&mut scrubber).unwrap();
        assert!(first.exhausted && first.findings.is_empty(), "{first}");
        assert_eq!(
            first.bytes_verified,
            before + index_len / 2,
            "paused mid-index"
        );

        // One unindexed record moves the epoch and nothing else.
        system.store().build("unindexed.txt").insert();
        system.checkpoint().unwrap();
        assert_eq!(len(index), index_len, "same length, different bytes");

        for _ in 0..3 {
            let report = system.scrub_round(&mut scrubber).unwrap();
            assert!(report.findings.is_empty(), "{report}");
            assert!(report.quarantined.is_empty(), "{report}");
        }
        assert_eq!(quarantined_files(&dir), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The budget is countable: a round under budget B reads at most B
    /// bytes plus one WAL frame, and repeated rounds read every byte of
    /// every artifact — snapshots, sealed and live WAL, the index file.
    #[test]
    fn budgeted_rounds_read_at_most_the_budget_plus_one_frame() {
        let dir = tmp("budget");
        let system = durable_system(&dir);
        let add = |from: usize| {
            for i in from..from + 20 {
                system
                    .store()
                    .build(format!("tail{i}.txt"))
                    .text(format!("a record in the write-ahead log, number {i}"))
                    .insert();
            }
        };
        add(0);
        system.checkpoint().unwrap();
        add(20);

        let artifacts = system.artifacts().unwrap();
        for kind in ["Snapshot", "SealedWal", "LiveWal", "Index"] {
            let present = artifacts.iter().any(|a| format!("{a:?}").starts_with(kind));
            assert!(present, "no {kind} artifact in {artifacts:?}");
        }
        let mut max_frame = 0;
        for artifact in &artifacts {
            if let Artifact::SealedWal(path) | Artifact::LiveWal(path) = artifact {
                let segment = read_segment(path).unwrap();
                let mut prev = 8;
                for &end in &segment.boundaries {
                    max_frame = max_frame.max(end - prev);
                    prev = end;
                }
            }
        }
        let total: u64 = artifacts.iter().map(len).sum();

        for budget in [100u64, 1000, 4096] {
            let mut scrubber = Scrubber::new(Some(budget));
            let (mut checked, mut bytes, mut rounds) = (0, 0, 0);
            while checked < artifacts.len() {
                let report = system.scrub_round(&mut scrubber).unwrap();
                assert!(report.findings.is_empty(), "{report}");
                assert!(
                    report.bytes_verified <= budget + max_frame,
                    "budget {budget}: a round read {} bytes",
                    report.bytes_verified
                );
                checked += report.artifacts_checked;
                bytes += report.bytes_verified;
                rounds += 1;
            }
            assert!(rounds > 1, "budget {budget} forced several rounds");
            assert!(
                (total..=total + budget + max_frame).contains(&bytes),
                "budget {budget}: {bytes} bytes read for {total} on disk"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drifted_postings_are_audited_and_repaired() {
        let dir = tmp("audit");
        let system = durable_system(&dir);
        let vid = system.store().vids()[0];
        system.indexes().content.remove(vid);

        // Up to and including the first full audit.
        let mut monitor = HealthMonitor::new();
        let (mut mismatches, mut repaired) = (0, 0);
        for _ in 0..FULL_AUDIT_EVERY {
            let report = monitor.round(&system).unwrap();
            mismatches += report.audit.mismatches.len();
            repaired += report.index_repaired;
        }
        assert_eq!(mismatches, 1);
        assert_eq!(repaired, 1);
        let next = monitor.round(&system).unwrap();
        assert!(next.healthy(), "{next}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_memory_systems_health_check_without_durability() {
        let system = Pdsms::new();
        let vid = system.store().build("x").text("y").insert();
        system
            .indexes()
            .index_view(system.store(), vid, "dataspace")
            .unwrap();
        let mut monitor = HealthMonitor::new();
        let report = monitor.round(&system).unwrap();
        assert!(report.healthy(), "{report:?}");
        assert!(system.artifacts().unwrap().is_empty());
        assert_eq!(report.scrub.artifacts_checked, 0);
    }
}
