//! Differential check of the two readers of a WAL segment: recovery
//! (`read_segment`) and the online scrub walk segments through one frame
//! walker, so a sealed segment must be clean to the scrub exactly when
//! recovery replays every byte of it — under any single-byte flip or
//! truncation, and whether the scrub reads it in one round or in many
//! small budgeted ones.

use std::path::{Path, PathBuf};

use idm_core::durability::record::ChangeRecord;
use idm_core::durability::scrub::verify_artifact;
use idm_core::durability::wal::{read_segment, WalWriter};
use idm_core::durability::{Artifact, Scrubber, SyncPolicy, Verdict};
use proptest::prelude::*;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("idm-scrub-diff-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A sealed segment of `n` encoded records of varied sizes, appended in
/// groups of up to three.
fn write_segment(path: &Path, seed: u64, n: usize) {
    let wal = WalWriter::create(path, 0, SyncPolicy::WriteBack).unwrap();
    let records: Vec<ChangeRecord> = (0..n as u64)
        .map(|i| match (seed + i) % 3 {
            0 => ChangeRecord::Remove { vid: seed ^ i },
            1 => ChangeRecord::SetName { vid: i, name: None },
            _ => ChangeRecord::SetName {
                vid: i,
                name: Some("x".repeat(((seed + i * 7) % 40) as usize)),
            },
        })
        .collect();
    for group in records.chunks(1 + (seed % 3) as usize) {
        wal.append(group).unwrap();
    }
}

/// Every finding of budgeted rounds run until one covers the segment.
fn budgeted_findings(artifact: &Artifact, budget: u64) -> usize {
    let mut scrubber = Scrubber::new(Some(budget));
    let mut findings = 0;
    for _ in 0..10_000 {
        let report = scrubber.round(std::slice::from_ref(artifact)).unwrap();
        findings += report.findings.len();
        if !report.exhausted {
            return findings;
        }
    }
    panic!("budget {budget} never covered the segment");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn scrub_calls_a_sealed_segment_clean_iff_recovery_replays_all_of_it(
        seed in 0u64..1_000_000,
        n in 0usize..12,
        truncate in any::<bool>(),
        at in 0usize..100_000,
        mask in 1u8..=255,
        budget in 1u64..64,
    ) {
        let dir = tmp(&format!("{seed}-{n}-{at}"));
        let path = dir.join("wal-1.idmlog");
        write_segment(&path, seed, n);
        let mut bytes = std::fs::read(&path).unwrap();
        if truncate {
            bytes.truncate(at % bytes.len());
        } else {
            let pos = at % bytes.len();
            bytes[pos] ^= mask;
        }
        std::fs::write(&path, &bytes).unwrap();

        let recovery_replays_all = read_segment(&path).unwrap().is_whole();
        let artifact = Artifact::SealedWal(path);
        let verdict = verify_artifact(&artifact).unwrap();
        prop_assert_eq!(
            verdict == Verdict::Clean,
            recovery_replays_all,
            "seed {} n {} truncate {} at {}: {:?}", seed, n, truncate, at, verdict
        );
        prop_assert_eq!(budgeted_findings(&artifact, budget) == 0, recovery_replays_all);
        std::fs::remove_dir_all(&dir).ok();
    }
}
