//! System health: periodic integrity scrub + index audit rounds.
//!
//! The [`HealthMonitor`] orchestrates self-healing the way
//! [`crate::SynchronizationManager`] orchestrates sync: the caller (a
//! shell command, a background thread, the chaos driver) invokes
//! [`HealthMonitor::round`] periodically, and each round
//!
//! 1. runs one budgeted **scrub** over the durable artifacts (snapshot
//!    chain + WAL segments) via
//!    [`DurabilityManager::scrub_round`](idm_core::durability::DurabilityManager::scrub_round)
//!    — damage is quarantined and repaired by a proactive checkpoint;
//! 2. verifies the **index artifact** (`indexes.idm`) checksum; a
//!    damaged file is quarantined and rewritten from the live bundle;
//! 3. cross-checks a **sample of index postings** against the store
//!    ([`mod@idm_index::audit`]), escalating to a full audit every
//!    [`HealthConfig::full_audit_every`] rounds, and rebuilds any
//!    drifted view through the segment path.
//!
//! Everything is budgeted and incremental, so a health round is safe to
//! interleave with foreground queries; the monitor accumulates
//! [`HealthStats`] across rounds for the `\health` shell command.

use std::path::PathBuf;
use std::time::Instant;

use idm_core::durability::scrub::verify_artifact;
use idm_core::durability::{ScrubBudget, ScrubReport, Scrubber, Verdict};
use idm_core::prelude::*;
use idm_index::{AuditMemo, AuditReport, AuditScope};

use crate::{durability_err, Pdsms, INDEX_FILE};

/// Tuning for the health monitor.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Per-round scrub budget over the durable artifacts.
    pub scrub_budget: ScrubBudget,
    /// Views cross-checked per sampled audit round.
    pub audit_sample: usize,
    /// Every Nth round runs a full audit (with stale-entry detection)
    /// instead of a sampled one; 0 disables full audits.
    pub full_audit_every: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            // Bounded by default: steady-state rounds cost at most 8 MiB
            // of reads, resuming across rounds via the scrub cursor.
            scrub_budget: ScrubBudget::bounded(8 * 1024 * 1024),
            audit_sample: 64,
            full_audit_every: 8,
        }
    }
}

/// What happened to the on-disk index artifact this round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexArtifactOutcome {
    /// Checksum verified; `bytes` were covered.
    Clean {
        /// Size of the verified artifact.
        bytes: u64,
    },
    /// Damaged: quarantined at the given path and rewritten from the
    /// live bundle.
    Repaired {
        /// Where the damaged artifact was moved.
        quarantined: PathBuf,
    },
    /// No index artifact on disk (never checkpointed); nothing to do.
    Missing,
}

/// One health round's findings and repairs.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// 1-based round number.
    pub round: u64,
    /// Durable-artifact scrub outcome (empty for in-memory systems).
    pub scrub: ScrubReport,
    /// Index artifact verification (None for in-memory systems).
    pub index_artifact: Option<IndexArtifactOutcome>,
    /// Index postings audit outcome.
    pub audit: AuditReport,
    /// Views rebuilt from the store after audit mismatches.
    pub index_repaired: usize,
    /// Scrub throughput this round (bytes verified / wall time).
    pub bytes_per_sec: f64,
}

impl HealthReport {
    /// Whether this round found any damage at all.
    pub fn healthy(&self) -> bool {
        self.scrub.findings.is_empty()
            && !matches!(
                self.index_artifact,
                Some(IndexArtifactOutcome::Repaired { .. })
            )
            && self.audit.is_clean()
    }
}

impl std::fmt::Display for HealthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "round {}: {}; audit checked {} view(s) ({} skipped unchanged)",
            self.round, self.scrub, self.audit.views_checked, self.audit.skipped_unchanged
        )?;
        match &self.index_artifact {
            Some(IndexArtifactOutcome::Clean { bytes }) => {
                write!(f, "; index artifact clean ({bytes} bytes)")?
            }
            Some(IndexArtifactOutcome::Repaired { quarantined }) => write!(
                f,
                "; index artifact DAMAGED -> quarantined at {} and rewritten",
                quarantined.display()
            )?,
            Some(IndexArtifactOutcome::Missing) => write!(f, "; no index artifact")?,
            None => {}
        }
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
    /// Bytes checksum-verified (scrub + index artifact).
    pub bytes_verified: u64,
    /// Damaged durable artifacts found.
    pub findings: u64,
    /// Artifacts quarantined (scrub + index artifact).
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
    config: HealthConfig,
    scrubber: Scrubber,
    memo: AuditMemo,
    stats: HealthStats,
}

impl HealthMonitor {
    /// A monitor with the given tuning.
    pub fn new(config: HealthConfig) -> Self {
        HealthMonitor {
            scrubber: Scrubber::new(config.scrub_budget),
            memo: AuditMemo::new(),
            stats: HealthStats::default(),
            config,
        }
    }

    /// Cumulative totals.
    pub fn stats(&self) -> HealthStats {
        self.stats
    }

    /// Runs one health round against `system` (see module docs).
    pub fn round(&mut self, system: &Pdsms) -> Result<HealthReport> {
        let started = Instant::now();
        let round = self.stats.rounds + 1;

        let scrub = if system.is_durable() {
            system.scrub_round(&mut self.scrubber)?
        } else {
            ScrubReport::default()
        };
        let index_artifact = system.scrub_index_artifact()?;

        let scope = if self.config.full_audit_every > 0
            && round.is_multiple_of(self.config.full_audit_every)
        {
            AuditScope::Full
        } else {
            AuditScope::Sampled {
                sample: self.config.audit_sample,
                seed: round,
            }
        };
        let audit = system.audit_indexes(scope, Some(&mut self.memo))?;
        let index_repaired = if audit.is_clean() {
            0
        } else {
            system.repair_indexes(&audit)?
        };

        let index_bytes = match &index_artifact {
            Some(IndexArtifactOutcome::Clean { bytes }) => *bytes,
            _ => 0,
        };
        let bytes = scrub.bytes_verified + index_bytes;
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);

        self.stats.rounds = round;
        self.stats.bytes_verified += bytes;
        self.stats.findings += scrub.findings.len() as u64;
        self.stats.quarantined += scrub.quarantined.len() as u64;
        if matches!(index_artifact, Some(IndexArtifactOutcome::Repaired { .. })) {
            self.stats.quarantined += 1;
        }
        if scrub.repaired.is_some() {
            self.stats.repair_checkpoints += 1;
        }
        self.stats.views_audited += audit.views_checked as u64;
        self.stats.index_mismatches += (audit.mismatches.len() + audit.stale_entries.len()) as u64;
        self.stats.index_repaired += index_repaired as u64;

        Ok(HealthReport {
            round,
            scrub,
            index_artifact,
            audit,
            index_repaired,
            bytes_per_sec: bytes as f64 / elapsed,
        })
    }
}

impl Pdsms {
    /// Runs one budgeted scrub round over this dataspace's durable
    /// artifacts, quarantining and repairing damage (see
    /// [`idm_core::durability::DurabilityManager::scrub_round`]). After
    /// a repair checkpoint the index artifact is re-stamped with the new
    /// epoch, keeping the recovery handshake exact. Errors when the
    /// system is not durable.
    pub fn scrub_round(&self, scrubber: &mut Scrubber) -> Result<ScrubReport> {
        let manager = self.durability.as_ref().ok_or_else(|| IdmError::Parse {
            detail: "dataspace is not durable (use make_durable or open)".into(),
        })?;
        let (report, dir) = {
            let mut guard = manager.lock();
            let report = guard
                .scrub_round(&self.store, &self.lineage, scrubber)
                .map_err(durability_err)?;
            (report, guard.dir().to_path_buf())
        };
        if let Some(stats) = &report.repaired {
            idm_index::persist::save_with_epoch(&self.indexes, &dir.join(INDEX_FILE), stats.lsn)
                .map_err(durability_err)?;
        }
        Ok(report)
    }

    /// Verifies the on-disk index artifact's checksum; a damaged file
    /// is quarantined and rewritten from the live bundle, stamped with
    /// the current log sequence number. Returns `None` for in-memory
    /// systems.
    pub fn scrub_index_artifact(&self) -> Result<Option<IndexArtifactOutcome>> {
        let Some(manager) = self.durability.as_ref() else {
            return Ok(None);
        };
        let (dir, lsn) = {
            let guard = manager.lock();
            (guard.dir().to_path_buf(), guard.lsn())
        };
        let path = dir.join(INDEX_FILE);
        match verify_artifact(&idm_index::persist::artifact_at(&path)) {
            Ok(Verdict::Clean) => {
                let bytes = std::fs::metadata(&path).map_err(durability_err)?.len();
                Ok(Some(IndexArtifactOutcome::Clean { bytes }))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Ok(Some(IndexArtifactOutcome::Missing))
            }
            Ok(Verdict::Damaged(_)) | Err(_) => {
                let quarantined =
                    idm_core::durability::quarantine(&path).map_err(durability_err)?;
                idm_index::persist::save_with_epoch(&self.indexes, &path, lsn)
                    .map_err(durability_err)?;
                Ok(Some(IndexArtifactOutcome::Repaired { quarantined }))
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("idm-health-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_system(dir: &std::path::Path) -> Pdsms {
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

    #[test]
    fn healthy_system_reports_healthy_rounds() {
        let dir = tmp("clean");
        let system = durable_system(&dir);
        let mut monitor = HealthMonitor::new(HealthConfig::default());
        let report = monitor.round(&system).unwrap();
        assert!(report.healthy(), "{report}");
        assert!(report.scrub.bytes_verified > 0);
        assert!(matches!(
            report.index_artifact,
            Some(IndexArtifactOutcome::Clean { .. })
        ));
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

        let mut monitor = HealthMonitor::new(HealthConfig::default());
        let report = monitor.round(&system).unwrap();
        assert!(!report.healthy());
        assert!(matches!(
            report.index_artifact,
            Some(IndexArtifactOutcome::Repaired { .. })
        ));
        assert!(dir.join("indexes.idm.quarantine").exists());
        // The rewritten artifact loads.
        assert!(idm_index::persist::load_with_epoch(&path).is_ok());
        let next = monitor.round(&system).unwrap();
        assert!(next.healthy(), "{next}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drifted_postings_are_audited_and_repaired() {
        let dir = tmp("audit");
        let system = durable_system(&dir);
        let vid = system.store().vids()[0];
        system.indexes().content.remove(vid);

        let mut monitor = HealthMonitor::new(HealthConfig {
            full_audit_every: 1, // force full audits in this test
            ..HealthConfig::default()
        });
        let report = monitor.round(&system).unwrap();
        assert_eq!(report.audit.mismatches.len(), 1, "{report}");
        assert_eq!(report.index_repaired, 1);
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
        let mut monitor = HealthMonitor::new(HealthConfig::default());
        let report = monitor.round(&system).unwrap();
        assert!(report.healthy(), "{report:?}");
        assert_eq!(report.index_artifact, None);
        assert_eq!(report.scrub.artifacts_checked, 0);
    }
}
