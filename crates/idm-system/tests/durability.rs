//! End-to-end durability: a PDSMS made durable on disk survives an
//! abrupt process death (simulated by dropping the system without any
//! shutdown path) and answers queries identically after recovery,
//! including the index epoch handshake.

use std::path::PathBuf;
use std::sync::Arc;

use idm_core::prelude::*;
use idm_email::message::{Attachment, EmailMessage};
use idm_email::ImapServer;
use idm_system::{FsPlugin, ImapPlugin, IndexFate, Pdsms, QueryRequest, SynchronizationManager};
use idm_vfs::{NodeId, VirtualFs};

fn t() -> Timestamp {
    Timestamp::from_ymd(2005, 6, 1).unwrap()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("idm-sysdur-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small two-source dataspace (files + email) exercising converters,
/// classes and cross-source queries.
fn populated_system() -> Pdsms {
    let fs = Arc::new(VirtualFs::new(t()));
    let pim = fs.mkdir_p("/Projects/PIM", t()).unwrap();
    fs.create_file(
        pim,
        "vldb2006.tex",
        "\\section{Introduction}\nDataspaces by Mike Franklin.\n\\section{Related Work}\nOther systems.",
        t(),
    )
    .unwrap();
    let docs = fs.mkdir_p("/docs", t()).unwrap();
    fs.create_file(docs, "notes.txt", "database tuning notes", t())
        .unwrap();

    let server = Arc::new(ImapServer::in_process());
    server
        .append(
            server.inbox(),
            &EmailMessage {
                subject: "figures".into(),
                from: "a@b".into(),
                to: "c@d".into(),
                date: t(),
                body: "see attachment about database tuning".into(),
                attachments: vec![Attachment {
                    filename: "more.tex".into(),
                    content: "\\section{Evaluation}\nIndexing Time per source".into(),
                }],
            },
        )
        .unwrap();

    let mut system = Pdsms::new();
    system.register_source(Arc::new(FsPlugin::new(fs, NodeId::ROOT)));
    system.register_source(Arc::new(ImapPlugin::new(server)));
    system.index_all().unwrap();
    system
}

const QUERIES: &[&str] = &[
    r#"//PIM//Introduction[class="latex_section" and "Mike Franklin"]"#,
    r#""database tuning""#,
    r#"//docs//*["database"]"#,
    r#"//Introduction[class="latex_section"]"#,
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

#[test]
fn checkpoint_kill_reopen_replays_nothing_and_queries_identically() {
    let dir = tmp("checkpointed");
    let mut system = populated_system();
    let baseline = query_rows(&system);

    system.make_durable(&dir).unwrap();
    let stats = system.checkpoint().unwrap();
    assert!(stats.views > 0);
    drop(system); // kill -9: no shutdown hook runs

    let (reopened, report) = Pdsms::open(&dir).unwrap();
    assert_eq!(report.recovery.records_replayed, 0, "{report}");
    assert_eq!(report.index, IndexFate::Loaded, "epoch matched: no reindex");
    assert_eq!(query_rows(&reopened), baseline);
    assert!(reopened.is_durable());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn post_checkpoint_mutations_replay_from_the_wal() {
    let dir = tmp("waltail");
    let mut system = populated_system();
    system.make_durable(&dir).unwrap();

    // Mutations after the attach snapshot live only in the WAL.
    let extra = system
        .store()
        .build("extra.txt")
        .text("post snapshot database tuning entry")
        .insert();
    system
        .store()
        .set_name(extra, Some("renamed.txt".into()))
        .unwrap();
    drop(system);

    let (reopened, report) = Pdsms::open(&dir).unwrap();
    assert_eq!(report.recovery.records_replayed, 2, "{report}");
    // The index was stamped at attach time (epoch 0) and the store
    // replayed 2 records past it, both naming one view: the file is
    // loaded and that view re-indexed into it.
    assert_eq!(report.index, IndexFate::CaughtUp, "{report}");
    assert_eq!(report.reindexed, 1);
    assert_eq!(
        reopened.store().name(extra).unwrap().as_deref(),
        Some("renamed.txt")
    );
    // The caught-up index covers the replayed view.
    let rows = reopened
        .run(&QueryRequest::new(r#""post snapshot""#))
        .unwrap()
        .result
        .rows;
    assert_eq!(rows.views(), &[extra]);
    std::fs::remove_dir_all(&dir).ok();
}

/// What the live index answered is what a tail replay brings back: a
/// file created or rewritten through the synchronization manager after
/// the last checkpoint is logged with the content it was indexed with.
#[test]
fn files_synced_after_the_checkpoint_keep_their_content_across_a_kill() {
    let dir = tmp("synctail");
    let fs = Arc::new(VirtualFs::new(t()));
    let papers = fs.mkdir_p("/papers", t()).unwrap();
    let a = fs
        .create_file(papers, "a.tex", "\\section{One}\nalpha bravo", t())
        .unwrap();
    fs.create_file(papers, "c.tex", "\\section{Two}\nbravo omega", t())
        .unwrap();

    let mut system = Pdsms::new();
    let plugin = Arc::new(FsPlugin::new(Arc::clone(&fs), NodeId::ROOT));
    system.register_source(Arc::clone(&plugin) as _);
    system.index_all().unwrap();
    system.make_durable(&dir).unwrap();

    let sync = SynchronizationManager::attach(
        Arc::clone(&plugin),
        Arc::clone(system.store()),
        Arc::clone(system.indexes()),
    )
    .unwrap();
    let b = fs
        .create_file(papers, "b.tex", "\\section{Three}\nbravo omega", t())
        .unwrap();
    fs.write_file(a, "\\section{One}\nbravo omega", t().plus_days(1))
        .unwrap();
    let round = sync.sync_round().unwrap();
    assert_eq!((round.created > 0, round.modified), (true, 1), "{round:?}");

    let count = |system: &Pdsms, word: &str| {
        system
            .run(&QueryRequest::new(format!("\"{word}\"")))
            .unwrap()
            .result
            .rows
            .len()
    };
    let words = ["bravo", "omega", "alpha"];
    let before = words.map(|w| count(&system, w));
    // Every file (and what the LaTeX converter derived from it) says
    // "bravo" and "omega" now; nothing says "alpha" any more.
    assert!(
        before[0] >= 3 && before[0] == before[1] && before[2] == 0,
        "{before:?}"
    );
    let files = [a, b].map(|node| plugin.view_of(node).unwrap());
    drop(sync);
    drop(system);

    let (reopened, report) = Pdsms::open(&dir).unwrap();
    assert_eq!(report.index, IndexFate::CaughtUp, "{report}");
    assert_eq!(words.map(|w| count(&reopened, w)), before);
    for vid in files {
        let content = reopened.store().content(vid).unwrap();
        assert!(!content.is_empty(), "view {vid:?} recovered without a body");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_index_epoch_rebuild_matches_fresh_ingest_queries() {
    let dir = tmp("staleepoch");
    let mut system = populated_system();
    let baseline = query_rows(&system);
    system.make_durable(&dir).unwrap();
    system.checkpoint().unwrap();
    drop(system);

    // Re-stamp the (valid) index file with a wrong epoch.
    let index_path = dir.join("indexes.idm");
    let (bundle, epoch) = idm_index::persist::load_with_epoch(&index_path).unwrap();
    idm_index::persist::save_with_epoch(&bundle, &index_path, epoch + 17).unwrap();

    let (reopened, report) = Pdsms::open(&dir).unwrap();
    assert_eq!(report.index, IndexFate::RebuiltStaleEpoch, "{report}");
    assert_eq!(query_rows(&reopened), baseline, "rebuild == fresh ingest");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_index_file_rebuilds_and_queries_identically() {
    let dir = tmp("corruptindex");
    let mut system = populated_system();
    let baseline = query_rows(&system);
    system.make_durable(&dir).unwrap();
    system.checkpoint().unwrap();
    drop(system);

    let index_path = dir.join("indexes.idm");
    let mut bytes = std::fs::read(&index_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x55;
    std::fs::write(&index_path, &bytes).unwrap();

    let (reopened, report) = Pdsms::open(&dir).unwrap();
    assert_eq!(report.index, IndexFate::RebuiltUnreadable, "{report}");
    assert_eq!(query_rows(&reopened), baseline);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_index_file_rebuilds_from_the_recovered_store() {
    let dir = tmp("noindex");
    let mut system = populated_system();
    let baseline = query_rows(&system);
    system.make_durable(&dir).unwrap();
    system.checkpoint().unwrap();
    drop(system);

    std::fs::remove_file(dir.join("indexes.idm")).unwrap();

    let (reopened, report) = Pdsms::open(&dir).unwrap();
    assert_eq!(report.index, IndexFate::RebuiltMissing, "{report}");
    assert_eq!(query_rows(&reopened), baseline);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_wal_tail_recovers_a_consistent_prefix_end_to_end() {
    let dir = tmp("tornsys");
    let mut system = populated_system();
    system.make_durable(&dir).unwrap();
    for i in 0..10 {
        system
            .store()
            .build(format!("wal-{i}.txt"))
            .text(format!("tail entry {i}"))
            .insert();
    }
    drop(system);

    // Tear the last record in half.
    let wal_path = dir.join("wal-1.idmlog");
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 7]).unwrap();

    let (reopened, report) = Pdsms::open(&dir).unwrap();
    assert_eq!(report.recovery.records_replayed, 9, "{report}");
    assert!(report.recovery.bytes_truncated > 0);
    let invariants = reopened.store().verify_invariants();
    assert!(invariants.is_ok(), "{invariants:?}");
    // 9 of the 10 tail entries survived; the torn one is gone entirely.
    let rows = reopened
        .run(&QueryRequest::new(r#""tail entry""#))
        .unwrap()
        .result
        .rows;
    assert_eq!(rows.len(), 9);
    std::fs::remove_dir_all(&dir).ok();
}

/// A derived view's lineage is its owner, the base view whose
/// conversion minted it — a file, or the message of an attachment. It
/// survives a checkpoint and a reopen.
#[test]
fn lineage_survives_checkpoints() {
    let dir = tmp("lineage");
    let mut system = populated_system();
    let owners = |system: &Pdsms| -> Vec<(Vid, Option<Vid>)> {
        let store = system.store();
        store
            .vids()
            .into_iter()
            .map(|vid| (vid, store.owner(vid).unwrap()))
            .collect()
    };
    let before = owners(&system);
    let bases: Vec<Vid> = before
        .iter()
        .filter_map(|&(vid, owner)| owner.is_none().then_some(vid))
        .collect();
    let owned: Vec<Vec<Vid>> = bases.iter().map(|&b| system.store().owned(b)).collect();
    // The .tex file owns its sections; the message owns its attachment
    // and the attachment's sections.
    let file = system.indexes().name.exact("vldb2006.tex")[0];
    let message = system.indexes().name.exact("figures")[0];
    let attachment = system.indexes().name.exact("more.tex")[0];
    assert!(system.store().owned(file).len() >= 3);
    assert_eq!(system.store().owner(attachment).unwrap(), Some(message));
    assert!(system.store().owned(message).len() >= 3);
    system.make_durable(&dir).unwrap();
    system.checkpoint().unwrap();
    drop(system);

    let (reopened, _) = Pdsms::open(&dir).unwrap();
    assert_eq!(owners(&reopened), before);
    let reopened_owned: Vec<Vec<Vid>> = bases.iter().map(|&b| reopened.store().owned(b)).collect();
    assert_eq!(reopened_owned, owned);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_refuses_an_empty_directory_and_make_durable_refuses_a_full_one() {
    let dir = tmp("guards");
    std::fs::create_dir_all(&dir).unwrap();
    assert!(Pdsms::open(&dir).is_err());

    let mut system = Pdsms::new();
    system.store().build("x").insert();
    system.make_durable(&dir).unwrap();
    let mut other = Pdsms::new();
    assert!(
        other.make_durable(&dir).is_err(),
        "directory already in use"
    );
    assert!(system.make_durable(&dir).is_err(), "already durable");
    std::fs::remove_dir_all(&dir).ok();
}
