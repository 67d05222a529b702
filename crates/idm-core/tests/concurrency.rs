//! Concurrency tests: the view store is shared across every component
//! of a PDSMS (query processor, sync manager, push operators), so its
//! guarantees under parallel access matter.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use idm_core::durability::record::view_bytes;
use idm_core::durability::wal::read_segment;
use idm_core::durability::{DurabilityManager, SyncPolicy};
use idm_core::prelude::*;

#[test]
fn parallel_inserts_are_all_visible() {
    let store = Arc::new(ViewStore::new());
    let threads = 8;
    let per_thread = 200;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let mut vids = Vec::with_capacity(per_thread);
                for i in 0..per_thread {
                    vids.push(store.build(format!("t{t}-v{i}")).text("body").insert());
                }
                vids
            })
        })
        .collect();
    let mut all: Vec<Vid> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("no panics"))
        .collect();
    assert_eq!(store.len(), threads * per_thread);
    assert_eq!(store.len(), store.vids().len());
    // Every thread got distinct vids.
    all.sort();
    all.dedup();
    assert_eq!(all.len(), threads * per_thread);
    // And all are resolvable.
    for vid in all {
        assert!(store.contains(vid));
        assert!(store.name(vid).unwrap().is_some());
    }
}

#[test]
fn readers_run_during_writes() {
    let store = Arc::new(ViewStore::new());
    let root = store.build("root").insert();

    let writer = {
        let store = Arc::clone(&store);
        thread::spawn(move || {
            for i in 0..500 {
                let child = store.build(format!("c{i}")).insert();
                store.add_group_member(root, child, false).unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let mut max_seen = 0;
                for _ in 0..500 {
                    let members = store.group(root).unwrap().finite_members();
                    // Group snapshots are consistent prefixes: size only
                    // ever grows.
                    assert!(members.len() >= max_seen);
                    max_seen = members.len();
                    for member in members {
                        // Every member visible in a snapshot resolves.
                        assert!(store.name(member).is_ok());
                    }
                }
                max_seen
            })
        })
        .collect();
    writer.join().expect("writer ok");
    for reader in readers {
        reader.join().expect("reader ok");
    }
    assert_eq!(store.group(root).unwrap().finite_members().len(), 500);
}

#[test]
fn lazy_group_forced_from_many_threads_computes_once() {
    let store = Arc::new(ViewStore::new());
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let provider = Arc::new(|store: &ViewStore, _owner: Vid| {
        CALLS.fetch_add(1, Ordering::SeqCst);
        // Simulate a slow conversion.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let child = store.build("expensive child").insert();
        Ok(GroupData::of_set(vec![child]))
    });
    let lazy = store.build("lazy").group(Group::lazy(provider)).insert();

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let store = Arc::clone(&store);
            thread::spawn(move || store.group(lazy).unwrap().finite_members())
        })
        .collect();
    let results: Vec<Vec<Vid>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(CALLS.load(Ordering::SeqCst), 1, "computed exactly once");
    assert!(results.windows(2).all(|w| w[0] == w[1]), "same members");
    assert_eq!(store.len(), 2, "one child only");
}

/// Stress the store: ≥8 threads concurrently growing overlapping
/// subtrees (`add_group_member` = the `add_child` path) while as many
/// readers walk the same subtrees through `group()`. The test asserts the
/// whole thing terminates (no deadlock between the store lock and lazy
/// forcing) and that final child counts are exactly what the writers
/// produced.
#[test]
fn multi_writer_multi_reader_stress_over_overlapping_subtrees() {
    use std::sync::atomic::AtomicBool;

    let store = Arc::new(ViewStore::new());
    // Three roots; each writer appends to ALL of them so every pair of
    // writers contends on every root.
    let roots: Vec<Vid> = (0..3)
        .map(|i| store.build(format!("root{i}")).insert())
        .collect();
    let writers = 8;
    let readers = 8;
    let per_root = 50;
    let done = Arc::new(AtomicBool::new(false));

    let writer_handles: Vec<_> = (0..writers)
        .map(|t| {
            let store = Arc::clone(&store);
            let roots = roots.clone();
            thread::spawn(move || {
                for i in 0..per_root {
                    for (r, &root) in roots.iter().enumerate() {
                        let child = store.build(format!("w{t}-r{r}-c{i}")).text("leaf").insert();
                        store.add_group_member(root, child, true).unwrap();
                    }
                }
            })
        })
        .collect();

    let reader_handles: Vec<_> = (0..readers)
        .map(|_| {
            let store = Arc::clone(&store);
            let roots = roots.clone();
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut last = vec![0usize; roots.len()];
                while !done.load(Ordering::Relaxed) {
                    for (r, &root) in roots.iter().enumerate() {
                        let members = store.group(root).unwrap().finite_members();
                        assert!(
                            members.len() >= last[r],
                            "snapshot sizes are monotone per root"
                        );
                        last[r] = members.len();
                        for member in members {
                            assert!(store.name(member).unwrap().is_some());
                        }
                    }
                }
            })
        })
        .collect();

    for w in writer_handles {
        w.join().expect("writer finished without deadlock");
    }
    done.store(true, Ordering::Relaxed);
    for r in reader_handles {
        r.join().expect("reader finished without deadlock");
    }

    for &root in &roots {
        assert_eq!(
            store.group(root).unwrap().finite_members().len(),
            writers * per_root,
            "every concurrently-added child is present"
        );
    }
    assert_eq!(store.len(), roots.len() + writers * per_root * roots.len());
    assert_eq!(store.len(), store.vids().len());
}

/// `len()` is a counter moved under the store lock, not a scan: after
/// writers that insert, batch-insert and remove at once it still equals
/// the occupied slots.
#[test]
fn concurrent_inserts_batches_and_removes_keep_len_exact() {
    let store = Arc::new(ViewStore::new());
    let writers: Vec<_> = (0..6)
        .map(|t| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let mut kept = 0;
                for i in 0..100 {
                    let single = store.build(format!("w{t}-{i}")).insert();
                    let batch = (0..5)
                        .map(|k| store.build(format!("w{t}-{i}.{k}")).into_record())
                        .collect();
                    let batch = store.insert_batch(batch);
                    store.remove(single).unwrap();
                    store.remove(batch[i % batch.len()]).unwrap();
                    assert!(store.remove(single).is_err(), "a second remove fails");
                    kept += batch.len() - 1;
                }
                kept
            })
        })
        .collect();
    let kept: usize = writers
        .into_iter()
        .map(|w| w.join().expect("writer ok"))
        .sum();
    assert_eq!(store.len(), kept);
    assert_eq!(store.len(), store.vids().len());
    let report = store.verify_invariants();
    assert!(report.is_ok(), "{:?}", report.violations);
}

#[test]
fn change_events_reach_every_subscriber_exactly_once() {
    let store = Arc::new(ViewStore::new());
    let receivers: Vec<_> = (0..4).map(|_| store.subscribe_records()).collect();

    let writers: Vec<_> = (0..4)
        .map(|t| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                for i in 0..100 {
                    store.build(format!("w{t}-{i}")).insert();
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().unwrap();
    }
    for rx in receivers {
        let records: Vec<ChangeRecord> = rx.try_iter().collect();
        assert_eq!(records.len(), 400, "each subscriber sees every record");
        assert!(records
            .iter()
            .all(|r| matches!(r, ChangeRecord::Insert { .. })));
    }
}

/// The change feed is the log: while four writers rename one view of a
/// durable store, the records the feed delivers equal the live WAL
/// segment's tail, record for record — each record is sent under the
/// write lock that appends it.
#[test]
fn the_change_feed_is_the_wal_in_log_order() {
    const WRITERS: usize = 4;
    const RENAMES: usize = 2_000;
    let dir = std::env::temp_dir().join(format!("idm-concurrency-{}-feed", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ViewStore::new());
    let vid = store.build("renamed").insert();
    let (mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
    let feed = store.subscribe_records();

    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                for i in 0..RENAMES {
                    store.set_name(vid, Some(format!("w{t}-{i}"))).unwrap();
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().expect("writer ok");
    }

    let fed: Vec<ChangeRecord> = feed.try_iter().collect();
    assert_eq!(fed.len(), WRITERS * RENAMES);
    let logged = read_segment(&dir.join("wal-1.idmlog")).unwrap().records;
    assert!(logged.len() >= fed.len());
    let tail = &logged[logged.len() - fed.len()..];
    let differing = fed.iter().zip(tail).filter(|(a, b)| a != b).count();
    assert_eq!(
        differing, 0,
        "feed and WAL order differ at {differing} position(s)"
    );
    drop(mgr);
    std::fs::remove_dir_all(&dir).ok();
}

/// Writers rename views while `attach` freezes the store, writes the
/// initial snapshot and arms the WAL. A mutator decides whether to log
/// under the write lock, so each rename lands in the snapshot or in the
/// log, and a reopen equals the live store, versions included.
#[test]
fn renames_beside_attach_land_in_the_snapshot_or_the_log() {
    const WRITERS: usize = 3;
    let dir = std::env::temp_dir().join(format!("idm-concurrency-{}-attach", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ViewStore::new());
    let vids: Vec<Vid> = (0..WRITERS)
        .map(|t| store.build(format!("w{t}")).insert())
        .collect();
    let start = Arc::new(Barrier::new(WRITERS + 1));
    let attached = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = vids
        .iter()
        .map(|&vid| {
            let store = Arc::clone(&store);
            let start = Arc::clone(&start);
            let attached = Arc::clone(&attached);
            thread::spawn(move || {
                start.wait();
                // Rename until 1 000 renames after `attach` returned.
                let (mut i, mut after) = (0, 0);
                while after < 1_000 {
                    if attached.load(Ordering::Acquire) {
                        after += 1;
                    }
                    store.set_name(vid, Some(format!("{vid}-{i}"))).unwrap();
                    i += 1;
                }
            })
        })
        .collect();
    start.wait();
    let (mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
    attached.store(true, Ordering::Release);
    for writer in writers {
        writer.join().expect("writer ok");
    }
    drop(mgr);

    let (reopened, _, _) = DurabilityManager::open(&dir, SyncPolicy::WriteBack).unwrap();
    let image = |s: &ViewStore| {
        let (export, ()) = s.frozen_export(|_| ());
        export
            .views
            .iter()
            .map(|(vid, version, record)| (*vid, *version, view_bytes(*vid, record, s.classes())))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        image(&reopened),
        image(&store),
        "a reopen equals the live store"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `insert_batch` commits atomically with respect to snapshots: while
/// four writers insert named batches into a durable store, every
/// `frozen_export` is vid-sorted without duplicates and holds each batch
/// whole or not at all, checkpoints interleave with the writers, and a
/// reopen after the writers join equals the live store.
#[test]
fn exports_and_checkpoints_beside_batch_writers_see_whole_batches() {
    const WRITERS: usize = 4;
    const BATCHES: usize = 60;
    const BATCH: usize = 7;
    let dir = std::env::temp_dir().join(format!("idm-concurrency-{}-batches", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ViewStore::new());
    let (mut mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();

    let finished = Arc::new(AtomicUsize::new(0));
    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let store = Arc::clone(&store);
            let finished = Arc::clone(&finished);
            thread::spawn(move || {
                for b in 0..BATCHES {
                    let batch = (0..BATCH)
                        .map(|k| store.build(format!("w{t}-b{b}-{k}")).into_record())
                        .collect();
                    store.insert_batch(batch);
                }
                finished.fetch_add(1, Ordering::Release);
            })
        })
        .collect();

    let mut exports = 0;
    loop {
        let writers_done = finished.load(Ordering::Acquire) == WRITERS;
        let (export, ()) = store.frozen_export(|_| ());
        assert!(
            export.views.windows(2).all(|w| w[0].0 < w[1].0),
            "export is vid-sorted without duplicates"
        );
        let mut per_batch: HashMap<String, usize> = HashMap::new();
        for (_, _, record) in &export.views {
            let name = record.name.as_deref().expect("every view is named");
            let batch = name.rsplit_once('-').expect("w<t>-b<b>-<k>").0;
            *per_batch.entry(batch.to_owned()).or_default() += 1;
        }
        for (batch, seen) in per_batch {
            assert_eq!(seen, BATCH, "batch {batch} is whole or absent");
        }
        exports += 1;
        if exports % 8 == 0 {
            mgr.checkpoint(&store).unwrap();
        }
        if writers_done {
            break;
        }
    }
    for w in writers {
        w.join().expect("writer ok");
    }
    mgr.checkpoint(&store).unwrap();
    // One more batch after the last checkpoint, so the reopen replays a
    // WAL tail on top of the snapshot.
    store.insert_batch(vec![store.build("tail").into_record()]);
    drop(mgr);

    let (reopened, _, _) = DurabilityManager::open(&dir, SyncPolicy::WriteBack).unwrap();
    let image = |s: &ViewStore| {
        let (export, ()) = s.frozen_export(|_| ());
        let views: Vec<_> = export
            .views
            .iter()
            .map(|(vid, version, record)| (*vid, *version, view_bytes(*vid, record, s.classes())))
            .collect();
        (export.next_vid, views)
    };
    let live = image(&store);
    assert_eq!(live.1.len(), WRITERS * BATCHES * BATCH + 1);
    assert_eq!(image(&reopened), live, "a reopen equals the live store");
    std::fs::remove_dir_all(&dir).ok();
}

/// A lazy group's first force beside `DurabilityManager::attach`: the
/// provider signals, then pauses until `attach` has frozen the store,
/// written its initial snapshot and returned, and only then inserts a
/// child, which needs the store's write lock. `attach` must not wait on
/// the running provider (it records the group as unforced), and a
/// reopen sees the group's members, which the WAL carries with the
/// child's insert.
#[test]
fn a_lazy_force_beside_attach_does_not_deadlock() {
    use std::sync::mpsc;
    use std::sync::Mutex;
    use std::time::Duration;

    const PATIENCE: Duration = Duration::from_secs(10);
    let dir = std::env::temp_dir().join(format!(
        "idm-concurrency-{}-force-attach",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ViewStore::new());
    let (started_tx, started_rx) = mpsc::channel();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let resume_rx = Mutex::new(resume_rx);
    let provider = Arc::new(move |store: &ViewStore, _owner: Vid| {
        started_tx.send(()).expect("the test waits for the start");
        // Whether or not `attach` came back, go on: the test has failed
        // by then, and the insert shows what the provider would do.
        let _ = resume_rx.lock().unwrap().recv_timeout(PATIENCE);
        let child = store.build("forced child").insert();
        Ok(GroupData::of_set(vec![child]))
    });
    let lazy = store.build("lazy").group(Group::lazy(provider)).insert();

    let (forced_tx, forced_rx) = mpsc::channel();
    let forcer = {
        let store = Arc::clone(&store);
        thread::spawn(move || {
            let members = store.group(lazy).unwrap().finite_members();
            forced_tx.send(()).unwrap();
            members
        })
    };
    started_rx
        .recv_timeout(PATIENCE)
        .expect("the provider runs");
    let (attached_tx, attached_rx) = mpsc::channel();
    let attacher = {
        let store = Arc::clone(&store);
        let dir = dir.clone();
        thread::spawn(move || {
            let attached = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack);
            attached_tx.send(()).unwrap();
            attached.expect("attach").0
        })
    };
    attached_rx
        .recv_timeout(PATIENCE)
        .expect("attach finishes while the provider runs");
    resume_tx.send(()).unwrap();
    forced_rx
        .recv_timeout(PATIENCE)
        .expect("the force finishes");
    let members = forcer.join().expect("force ok");
    drop(attacher.join().expect("attach ok"));

    let (reopened, _, _) = DurabilityManager::open(&dir, SyncPolicy::WriteBack).unwrap();
    assert_eq!(members.len(), 1);
    assert_eq!(reopened.group(lazy).unwrap().finite_members(), members);
    assert_eq!(
        reopened.name(members[0]).unwrap().as_deref(),
        Some("forced child")
    );
    std::fs::remove_dir_all(&dir).ok();
}
