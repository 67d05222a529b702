//! End-to-end ingest: `index_all` on one thread and `index_all_bulk`
//! on several must produce the same dataspace — including after a crash
//! and recovery — and both must batch their WAL fsyncs.

use std::path::PathBuf;
use std::sync::Arc;

use idm_core::durability::{DurabilityOptions, SyncPolicy};
use idm_core::prelude::*;
use idm_system::{BulkIngestOptions, FsPlugin, Pdsms, QueryRequest};
use idm_vfs::{NodeId, VirtualFs};

fn t() -> Timestamp {
    Timestamp::from_ymd(2005, 6, 1).unwrap()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("idm-bulk-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A filesystem wide enough that batching actually matters: `files`
/// text files spread over a few directories, some with structure.
fn wide_fs(files: usize) -> Arc<VirtualFs> {
    let fs = Arc::new(VirtualFs::new(t()));
    for i in 0..files {
        let dir = fs.mkdir_p(&format!("/corpus/d{}", i % 7), t()).unwrap();
        let body = if i % 11 == 0 {
            format!("\\section{{Part {i}}}\nbulk ingest corpus entry {i}")
        } else {
            format!("bulk ingest corpus entry number {i} with shared words")
        };
        fs.create_file(dir, &format!("f{i}.txt"), body, t())
            .unwrap();
    }
    fs
}

const QUERIES: &[&str] = &[
    r#""bulk ingest corpus""#,
    r#"//corpus//*["shared words"]"#,
    r#"//d3//*"#,
];

fn query_rows(system: &Pdsms) -> Vec<Vec<u64>> {
    QUERIES
        .iter()
        .map(|iql| {
            let mut rows: Vec<u64> = system
                .run(&QueryRequest::new(*iql))
                .unwrap()
                .result
                .rows
                .views()
                .iter()
                .map(|v| v.as_u64())
                .collect();
            rows.sort_unstable();
            rows
        })
        .collect()
}

fn durable_system(dir: &PathBuf, fs: Arc<VirtualFs>) -> Pdsms {
    let mut system = Pdsms::new();
    system.register_source(Arc::new(FsPlugin::new(fs, NodeId::ROOT)));
    system
        .make_durable_with(dir, DurabilityOptions::new(SyncPolicy::Fsync))
        .unwrap();
    system
}

#[test]
fn bulk_ingest_saves_fsyncs_ten_fold_and_recovers_identically() {
    let seq_dir = tmp("seq");
    let bulk_dir = tmp("bulk");
    let files = 150;

    // One thread: the same bulk WAL window, so syncs are deferred to
    // batch boundaries here too.
    let seq = durable_system(&seq_dir, wide_fs(files));
    let before = seq.store().wal_telemetry().unwrap();
    seq.index_all().unwrap();
    let after = seq.store().wal_telemetry().unwrap();
    let (records, fsyncs) = (after.frames - before.frames, after.syncs - before.syncs);
    assert!(records > files as u64, "every view was logged");
    assert!(
        fsyncs * 10 <= records,
        "index_all must save >=10x fsyncs: {fsyncs} syncs for {records} records"
    );
    let seq_rows = query_rows(&seq);
    drop(seq); // abrupt death: recovery must replay the WAL tail

    // Several threads: syncs deferred to batch boundaries inside the window.
    let bulk = durable_system(&bulk_dir, wide_fs(files));
    let report = bulk.index_all_bulk(&BulkIngestOptions::default()).unwrap();
    let t = &report.throughput;
    assert!(t.wal_records > files as u64, "every view was logged");
    assert!(t.fsyncs > 0, "covering syncs were issued");
    assert!(
        t.fsyncs * 10 <= t.wal_records,
        "index_all_bulk must save >=10x fsyncs: {} syncs for {} records",
        t.fsyncs,
        t.wal_records
    );
    assert!(t.fsyncs_saved >= t.wal_records - t.fsyncs - 1);
    assert!(t.wal_batches <= t.wal_records);
    assert_eq!(query_rows(&bulk), seq_rows, "same dataspace before crash");
    drop(bulk);

    // Both recover to the same state (bulk records were all
    // acknowledged by the window's covering syncs, so none may
    // vanish). Lazy file content unforced at insert time recovers as
    // empty on both paths — the documented WAL-tail gap — so the two
    // recoveries are compared to each other, not to the live baseline.
    let (seq_re, seq_report) = Pdsms::open(&seq_dir).unwrap();
    let (bulk_re, bulk_report) = Pdsms::open(&bulk_dir).unwrap();
    assert_eq!(
        seq_report.recovery.records_replayed, bulk_report.recovery.records_replayed,
        "same WAL tail length"
    );
    assert_eq!(query_rows(&seq_re), query_rows(&bulk_re));
    // Name indexes carry no lazy state: the structural query still
    // answers exactly as before the crash.
    assert_eq!(query_rows(&bulk_re)[2], seq_rows[2]);

    // Identical logical store state, vid for vid.
    let mut seq_vids = seq_re.store().vids();
    let mut bulk_vids = bulk_re.store().vids();
    seq_vids.sort();
    bulk_vids.sort();
    assert_eq!(seq_vids, bulk_vids);
    for &vid in &seq_vids {
        assert_eq!(
            seq_re.store().name(vid).unwrap(),
            bulk_re.store().name(vid).unwrap()
        );
    }

    std::fs::remove_dir_all(&seq_dir).ok();
    std::fs::remove_dir_all(&bulk_dir).ok();
}

#[test]
fn bulk_ingest_without_durability_still_reports_throughput() {
    let mut system = Pdsms::new();
    system.register_source(Arc::new(FsPlugin::new(wide_fs(20), NodeId::ROOT)));
    let report = system
        .index_all_bulk(&BulkIngestOptions::default())
        .unwrap();
    assert_eq!(report.throughput.views, report.total_views());
    assert!(report.throughput.views > 20);
    assert_eq!(report.throughput.wal_records, 0, "not durable: no WAL");
}
