//! Path steps read the group replica under one read guard per step.
//! Queries running beside a writer that re-indexes and removes
//! group edges must neither hang — a re-entrant read queued behind a
//! waiting writer would — nor leave anything behind once it stops.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::Duration;

use idm_core::prelude::*;
use idm_index::IndexBundle;
use idm_query::{QueryProcessor, ResultRows};

/// Folders under `wide`.
const FOLDERS: usize = 300;
/// Writer rounds; each re-indexes `wide` and one other group three times.
const WRITES: usize = 200;
/// The first three walk forward from a context smaller than their
/// candidates; the last walks backward from 300 candidates towards a
/// context of every view.
const QUERIES: [&str; 4] = ["//wide//*", "//d*//*", "//wide//deep*", "//*//deep*"];

/// `wide` holds folders `d<i>`, each holding `leaf<i>.txt` and a folder
/// `s<i>` that holds `deep<i>.txt`. Returns the store and every group,
/// `wide`'s first.
fn dataspace() -> (Arc<ViewStore>, Vec<(Vid, Vec<Vid>)>) {
    let store = Arc::new(ViewStore::new());
    let mut groups = Vec::new();
    let folders: Vec<Vid> = (0..FOLDERS)
        .map(|i| {
            let deep = store.build(format!("deep{i}.txt")).text("deep").insert();
            let sub = store.build(format!("s{i}")).children(vec![deep]).insert();
            let leaf = store.build(format!("leaf{i}.txt")).text("leaf").insert();
            let members = vec![leaf, sub];
            let folder = store
                .build(format!("d{i}"))
                .children(members.clone())
                .insert();
            groups.push((sub, vec![deep]));
            groups.push((folder, members));
            folder
        })
        .collect();
    let wide = store.build("wide").children(folders.clone()).insert();
    groups.insert(0, (wide, folders));
    (store, groups)
}

fn indexed(store: &ViewStore) -> Arc<IndexBundle> {
    let indexes = Arc::new(IndexBundle::new());
    for vid in store.vids() {
        indexes.index_view(store, vid, "filesystem").unwrap();
    }
    indexes
}

/// Two processors over one store and bundle, each with caches of its own.
fn processors(store: &Arc<ViewStore>, indexes: &Arc<IndexBundle>) -> Vec<QueryProcessor> {
    (0..2)
        .map(|_| QueryProcessor::new(Arc::clone(store), Arc::clone(indexes)))
        .collect()
}

/// Every processor's rows for every query, in a fixed order.
fn answers(processors: &[QueryProcessor]) -> Vec<ResultRows> {
    processors
        .iter()
        .flat_map(|p| QUERIES.iter().map(|q| p.execute(q).unwrap().rows))
        .collect()
}

#[test]
fn walks_beside_a_replica_writer_finish_and_leave_nothing_behind() {
    let (store, groups) = dataspace();
    let indexes = indexed(&store);
    let live = processors(&store, &indexes);
    let before = answers(&live);

    let (done, finished) = mpsc::channel();
    let writer_indexes = Arc::clone(&indexes);
    thread::spawn(move || {
        let stop = AtomicBool::new(false);
        let started = Barrier::new(2);
        let after = thread::scope(|scope| {
            let reader = scope.spawn(|| {
                started.wait();
                while !stop.load(Ordering::Acquire) {
                    answers(&live);
                }
                answers(&live)
            });
            started.wait();
            let group = &writer_indexes.group;
            for k in 0..WRITES {
                for (parent, members) in [&groups[0], &groups[1 + k % (groups.len() - 1)]] {
                    group.remove(*parent);
                    thread::yield_now();
                    group.index(*parent, &members[..members.len() / 2]);
                    thread::yield_now();
                    group.index(*parent, members);
                }
            }
            stop.store(true, Ordering::Release);
            reader.join().unwrap()
        });
        done.send(after).unwrap();
    });
    let after = finished
        .recv_timeout(Duration::from_secs(120))
        .expect("queries beside the replica writer hung or panicked");

    // The writer restored every group: the long-lived processors answer
    // as before it ran, and as fresh processors over a rebuilt bundle do.
    assert_eq!(after, before);
    let fresh = answers(&processors(&store, &indexed(&store)));
    assert_eq!(after, fresh);
    let rows = |i: usize| after[i].len();
    assert_eq!(
        (rows(0), rows(1), rows(2), rows(3)),
        (4 * FOLDERS, 3 * FOLDERS, FOLDERS, FOLDERS)
    );
}
