//! Deterministic crash-recovery matrix for the durability layer.
//!
//! A seeded workload of 200+ mutations runs against a durable store;
//! the resulting WAL is then truncated at **every** record boundary and
//! at pseudo-random mid-record offsets, and each truncation is
//! recovered and compared — byte-for-byte via the serialized view
//! records — against a reference store that applied exactly the
//! surviving mutation prefix. Recovery must be prefix-consistent:
//! never a torn mutation, never a duplicate vid, never `S ∩ Q ≠ ∅`.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use idm_core::durability::record::view_bytes;
use idm_core::durability::wal::read_segment;
use idm_core::durability::{DurabilityManager, SyncPolicy};
use idm_core::prelude::*;

// ---- deterministic PRNG ---------------------------------------------------

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---- seeded workload ------------------------------------------------------

/// One mutation, pre-validated so that applying it to a store holding
/// the preceding prefix always succeeds (and therefore logs exactly one
/// WAL record).
#[derive(Debug, Clone)]
enum Op {
    Insert {
        name: String,
        text: Option<String>,
        size: Option<i64>,
        children: Vec<u64>,
        class: Option<&'static str>,
    },
    SetName(u64, Option<String>),
    SetTuple(u64, Option<i64>),
    SetContent(u64, String),
    SetGroup(u64, Vec<u64>, Vec<u64>),
    SetClass(u64, Option<&'static str>),
    AddMember(u64, u64, bool),
    Remove(u64),
}

/// Generates `n` ops from `seed`, tracking a lightweight model (live
/// vids and per-vid group membership) so every op is valid against any
/// store that applied all preceding ops.
fn workload(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = SplitMix(seed);
    let mut ops = Vec::with_capacity(n);
    let mut live: Vec<u64> = Vec::new();
    // Parallel to `live`: members of each view's set and seq.
    let mut groups: Vec<(u64, HashSet<u64>, HashSet<u64>)> = Vec::new();
    let mut next_vid = 0u64;
    let classes = [None, Some("file"), Some("folder"), Some("emailmessage")];

    for i in 0..n {
        let kind = if live.len() < 3 { 0 } else { rng.below(10) };
        let pick = |rng: &mut SplitMix, live: &[u64]| live[rng.below(live.len() as u64) as usize];
        match kind {
            0..=2 => {
                // Insert, sometimes with children drawn from live views.
                let mut children = Vec::new();
                if !live.is_empty() && rng.below(2) == 0 {
                    let count = 1 + rng.below(3.min(live.len() as u64));
                    for _ in 0..count {
                        children.push(pick(&mut rng, &live));
                    }
                    children.sort_unstable();
                    children.dedup();
                }
                ops.push(Op::Insert {
                    name: format!("view-{i}.txt"),
                    text: (rng.below(3) != 0).then(|| format!("contents of op {i}: dataspace")),
                    size: (rng.below(2) == 0).then(|| rng.below(100_000) as i64),
                    children: children.clone(),
                    class: classes[rng.below(4) as usize],
                });
                live.push(next_vid);
                groups.push((next_vid, children.into_iter().collect(), HashSet::new()));
                next_vid += 1;
            }
            3 => {
                let vid = pick(&mut rng, &live);
                let name = (rng.below(4) != 0).then(|| format!("renamed-{i}"));
                ops.push(Op::SetName(vid, name));
            }
            4 => {
                let vid = pick(&mut rng, &live);
                ops.push(Op::SetTuple(vid, (rng.below(3) != 0).then_some(i as i64)));
            }
            5 => {
                let vid = pick(&mut rng, &live);
                ops.push(Op::SetContent(vid, format!("rewritten at op {i}")));
            }
            6 => {
                let vid = pick(&mut rng, &live);
                let mut set = Vec::new();
                let mut seq = Vec::new();
                for _ in 0..rng.below(4) {
                    set.push(pick(&mut rng, &live));
                }
                set.sort_unstable();
                set.dedup();
                for _ in 0..rng.below(3) {
                    let m = pick(&mut rng, &live);
                    if !set.contains(&m) {
                        seq.push(m);
                    }
                }
                let entry = groups.iter_mut().find(|(v, _, _)| *v == vid).unwrap();
                entry.1 = set.iter().copied().collect();
                entry.2 = seq.iter().copied().collect();
                ops.push(Op::SetGroup(vid, set, seq));
            }
            7 => {
                let vid = pick(&mut rng, &live);
                ops.push(Op::SetClass(vid, classes[rng.below(4) as usize]));
            }
            8 => {
                let vid = pick(&mut rng, &live);
                let member = pick(&mut rng, &live);
                let ordered = rng.below(2) == 0;
                let entry = groups.iter().find(|(v, _, _)| *v == vid).unwrap();
                // Keep S ∩ Q = ∅: skip members already on the other side.
                if (ordered && entry.1.contains(&member)) || (!ordered && entry.2.contains(&member))
                {
                    ops.push(Op::SetName(vid, Some(format!("fallback-{i}"))));
                } else {
                    let entry = groups.iter_mut().find(|(v, _, _)| *v == vid).unwrap();
                    if ordered {
                        entry.2.insert(member);
                    } else {
                        entry.1.insert(member);
                    }
                    ops.push(Op::AddMember(vid, member, ordered));
                }
            }
            _ => {
                let idx = rng.below(live.len() as u64) as usize;
                let vid = live.swap_remove(idx);
                groups.retain(|(v, _, _)| *v != vid);
                ops.push(Op::Remove(vid));
            }
        }
    }
    ops
}

fn apply(store: &ViewStore, op: &Op) {
    match op {
        Op::Insert {
            name,
            text,
            size,
            children,
            class,
        } => {
            let mut builder = store.build(name.clone());
            if let Some(text) = text {
                builder = builder.text(text.clone());
            }
            if let Some(size) = size {
                builder = builder.tuple(TupleComponent::of(vec![("size", Value::Integer(*size))]));
            }
            if !children.is_empty() {
                builder = builder.children(children.iter().map(|&v| Vid::from_raw(v)).collect());
            }
            if let Some(class) = class {
                builder = builder.class_named(class);
            }
            builder.insert();
        }
        Op::SetName(vid, name) => store.set_name(Vid::from_raw(*vid), name.clone()).unwrap(),
        Op::SetTuple(vid, value) => store
            .set_tuple(
                Vid::from_raw(*vid),
                value.map(|v| TupleComponent::of(vec![("size", Value::Integer(v))])),
            )
            .unwrap(),
        Op::SetContent(vid, text) => store
            .set_content(Vid::from_raw(*vid), Content::text(text.clone()))
            .unwrap(),
        Op::SetGroup(vid, set, seq) => store
            .set_group(
                Vid::from_raw(*vid),
                Group::finite(
                    set.iter().map(|&v| Vid::from_raw(v)).collect(),
                    seq.iter().map(|&v| Vid::from_raw(v)).collect(),
                )
                .unwrap(),
            )
            .unwrap(),
        Op::SetClass(vid, class) => store
            .set_class(
                Vid::from_raw(*vid),
                class.and_then(|name| store.classes().lookup(name)),
            )
            .unwrap(),
        Op::AddMember(vid, member, ordered) => store
            .add_group_member(Vid::from_raw(*vid), Vid::from_raw(*member), *ordered)
            .unwrap(),
        Op::Remove(vid) => {
            store.remove(Vid::from_raw(*vid)).unwrap();
        }
    }
}

/// A reference store holding exactly the first `k` ops, never durable.
fn reference(ops: &[Op], k: usize) -> ViewStore {
    let store = ViewStore::new();
    for op in &ops[..k] {
        apply(&store, op);
    }
    store
}

/// Asserts `recovered` is byte-identical to `expected`: same live vids,
/// same serialized view records, same version counters — and that the
/// recovered store satisfies the model invariants.
fn assert_same_state(recovered: &ViewStore, expected: &ViewStore, context: &str) {
    let got = recovered.vids();
    let want = expected.vids();
    assert_eq!(got, want, "{context}: live vid sets differ");
    let dup: HashSet<Vid> = got.iter().copied().collect();
    assert_eq!(dup.len(), got.len(), "{context}: duplicate vids");
    // Snapshot load and replay fill slots through `restore_insert` and
    // `remove`; the counter must have followed both.
    assert_eq!(recovered.len(), got.len(), "{context}: len() != live vids");
    for vid in want {
        let got_bytes = view_bytes(vid, &recovered.record(vid).unwrap(), recovered.classes());
        let want_bytes = view_bytes(vid, &expected.record(vid).unwrap(), expected.classes());
        assert_eq!(got_bytes, want_bytes, "{context}: {vid} differs");
        assert_eq!(
            recovered.version(vid).unwrap(),
            expected.version(vid).unwrap(),
            "{context}: {vid} version differs"
        );
    }
    let report = recovered.verify_invariants();
    assert!(report.is_ok(), "{context}: invariants violated: {report:?}");
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("idm-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the workload against a fresh durable dataspace, returning the
/// dataspace dir (snap-1 + wal-1, never checkpointed so every op is one
/// WAL record).
fn run_durable(dir: &Path, ops: &[Op]) {
    let store = Arc::new(ViewStore::new());
    let (_mgr, _) = DurabilityManager::attach(dir, &store, SyncPolicy::WriteBack).expect("attach");
    for op in ops {
        apply(&store, op);
    }
}

/// Clones `snap-1` and a truncated `wal-1` into a fresh directory.
fn truncated_copy(src: &Path, name: &str, wal_bytes: &[u8]) -> PathBuf {
    let dst = tmp(name);
    std::fs::create_dir_all(&dst).unwrap();
    std::fs::copy(src.join("snap-1.idmsnap"), dst.join("snap-1.idmsnap")).unwrap();
    std::fs::write(dst.join("wal-1.idmlog"), wal_bytes).unwrap();
    dst
}

const SEED: u64 = 0x0001_DA7A_5EED;
const OPS: usize = 220;

#[test]
fn truncation_at_every_record_boundary_recovers_the_exact_prefix() {
    let ops = workload(SEED, OPS);
    let dir = tmp("boundaries");
    run_durable(&dir, &ops);

    let wal = std::fs::read(dir.join("wal-1.idmlog")).unwrap();
    let segment = read_segment(&dir.join("wal-1.idmlog")).unwrap();
    assert_eq!(segment.records.len(), OPS, "every op logged one record");
    assert_eq!(segment.torn_bytes(), 0);

    // Boundary k = state after the first k mutations; boundary 0 is the
    // bare magic (no records).
    let mut boundaries = vec![8u64];
    boundaries.extend(&segment.boundaries);
    for (k, &offset) in boundaries.iter().enumerate() {
        let case = truncated_copy(&dir, &format!("b{k}"), &wal[..offset as usize]);
        let (recovered, _, report) =
            DurabilityManager::open(&case, SyncPolicy::WriteBack).expect("recovery");
        assert_eq!(report.records_replayed, k as u64, "boundary {k}");
        assert_eq!(report.bytes_truncated, 0, "boundary {k}: clean cut");
        assert_same_state(&recovered, &reference(&ops, k), &format!("boundary {k}"));
        std::fs::remove_dir_all(&case).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_mid_record_recovers_the_longest_valid_prefix() {
    let ops = workload(SEED, OPS);
    let dir = tmp("midrecord");
    run_durable(&dir, &ops);

    let wal = std::fs::read(dir.join("wal-1.idmlog")).unwrap();
    let segment = read_segment(&dir.join("wal-1.idmlog")).unwrap();
    let mut boundaries = vec![8u64];
    boundaries.extend(&segment.boundaries);

    let mut rng = SplitMix(SEED ^ 0xFEED);
    for trial in 0..48 {
        // A cut strictly inside some record's frame.
        let cut = 8 + rng.below(wal.len() as u64 - 8);
        let prefix = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        if boundaries[prefix] == cut {
            continue; // exact boundary, covered by the other test
        }
        let case = truncated_copy(&dir, &format!("m{trial}"), &wal[..cut as usize]);
        let (recovered, _, report) =
            DurabilityManager::open(&case, SyncPolicy::WriteBack).expect("recovery");
        assert_eq!(
            report.records_replayed, prefix as u64,
            "cut at {cut}: longest valid prefix"
        );
        assert!(report.bytes_truncated > 0, "cut at {cut} left a torn tail");
        assert_same_state(&recovered, &reference(&ops, prefix), &format!("cut {cut}"));
        std::fs::remove_dir_all(&case).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_byte_corruption_recovers_the_records_before_it() {
    let ops = workload(SEED, OPS);
    let dir = tmp("corrupt");
    run_durable(&dir, &ops);

    let wal = std::fs::read(dir.join("wal-1.idmlog")).unwrap();
    let segment = read_segment(&dir.join("wal-1.idmlog")).unwrap();
    let mut boundaries = vec![8u64];
    boundaries.extend(&segment.boundaries);

    let mut rng = SplitMix(SEED ^ 0xC0FFEE);
    for trial in 0..32 {
        let pos = 8 + rng.below(wal.len() as u64 - 8);
        let flip = 1 + (rng.below(255) as u8);
        let mut corrupt = wal.clone();
        corrupt[pos as usize] ^= flip;
        // The record whose frame contains `pos` must die; everything
        // before it must survive. (A corrupt length field may also eat
        // the tail, but never resurrect a torn record.)
        let intact = boundaries.iter().filter(|&&b| b <= pos).count() - 1;
        let case = truncated_copy(&dir, &format!("c{trial}"), &corrupt);
        let (recovered, _, report) =
            DurabilityManager::open(&case, SyncPolicy::WriteBack).expect("recovery");
        assert!(
            report.records_replayed <= OPS as u64,
            "flip at {pos}: impossible record count"
        );
        assert_eq!(
            report.records_replayed, intact as u64,
            "flip at {pos}: prefix before the corrupt frame"
        );
        assert_same_state(&recovered, &reference(&ops, intact), &format!("flip {pos}"));
        std::fs::remove_dir_all(&case).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_then_reopen_replays_zero_records() {
    let ops = workload(SEED, OPS);
    let dir = tmp("checkpointed");
    let store = Arc::new(ViewStore::new());
    let (mut mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
    for op in &ops {
        apply(&store, op);
    }
    let stats = mgr.checkpoint(&store).unwrap();
    assert_eq!(stats.lsn, OPS as u64);
    drop(store);
    drop(mgr);

    let (recovered, _, report) =
        DurabilityManager::open(&dir, SyncPolicy::WriteBack).expect("recovery");
    assert_eq!(report.records_replayed, 0, "checkpoint folded the log");
    assert_eq!(report.snapshot_seq, Some(2));
    assert_same_state(&recovered, &reference(&ops, OPS), "checkpointed");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every view's owner, and each of some base views' owned views.
type Ownership = (Vec<(Vid, Option<Vid>)>, Vec<Vec<Vid>>);

/// The [`Ownership`] of `bases` as `store` sees it.
fn ownership(store: &ViewStore, bases: &[Vid]) -> Ownership {
    let owners = store
        .vids()
        .into_iter()
        .map(|vid| (vid, store.owner(vid).unwrap()))
        .collect();
    (
        owners,
        bases.iter().map(|&base| store.owned(base)).collect(),
    )
}

#[test]
fn owners_survive_the_snapshot_and_the_wal_tail() {
    let dir = tmp("owners");
    let store = Arc::new(ViewStore::new());
    // In the initial snapshot.
    let tex = store.build("a.tex").text("\\section{A}").insert();
    let section = store.build("A").owner(Some(tex)).insert();
    let xml = store.build("b.xml").text("<b/>").insert();
    let (_mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
    // In the WAL tail only: owned views inserted, one owned view and
    // one base view removed.
    let doc = store.build("doc").owner(Some(xml)).insert();
    store.build("b").owner(Some(xml)).insert();
    store.build("B").owner(Some(tex)).insert();
    store.remove(section).unwrap();
    let gone = store.build("gone.txt").insert();
    store.remove(gone).unwrap();
    let bases = [tex, xml, doc, gone];
    let before = ownership(&store, &bases);
    assert_eq!(before.1[1].len(), 2);
    drop(store); // the crash: nothing checkpointed since the attach

    let (recovered, mut mgr, report) =
        DurabilityManager::open(&dir, SyncPolicy::WriteBack).unwrap();
    assert_eq!(report.records_replayed, 6);
    assert_eq!(ownership(&recovered, &bases), before, "WAL-tail replay");
    assert!(recovered.verify_invariants().is_ok());

    mgr.checkpoint(&recovered).unwrap();
    drop((recovered, mgr));
    let (reopened, _, report) = DurabilityManager::open(&dir, SyncPolicy::WriteBack).unwrap();
    assert_eq!(report.records_replayed, 0);
    assert_eq!(ownership(&reopened, &bases), before, "snapshot");
    assert!(reopened.verify_invariants().is_ok());
}

#[test]
fn mutations_after_recovery_survive_the_next_crash() {
    // Recover from a torn log, keep mutating, crash again, recover: the
    // second recovery must see both the original prefix and the new ops.
    let ops = workload(SEED, 80);
    let dir = tmp("relog");
    run_durable(&dir, &ops);
    let wal = std::fs::read(dir.join("wal-1.idmlog")).unwrap();
    std::fs::write(dir.join("wal-1.idmlog"), &wal[..wal.len() - 5]).unwrap();

    let (recovered, _, report) =
        DurabilityManager::open(&dir, SyncPolicy::WriteBack).expect("first recovery");
    let prefix = report.records_replayed as usize;
    assert_eq!(prefix, 79, "one torn record discarded");
    let extra = Vid::from_raw(
        recovered
            .build("post-crash")
            .text("still here")
            .insert()
            .as_u64(),
    );
    drop(recovered);

    let (again, _, report) =
        DurabilityManager::open(&dir, SyncPolicy::WriteBack).expect("second recovery");
    assert_eq!(report.records_replayed, 80);
    let expected = reference(&ops, prefix);
    let v = expected.build("post-crash").text("still here").insert();
    assert_eq!(v, extra, "vid allocation is deterministic across recovery");
    assert_same_state(&again, &expected, "after re-logging");
    std::fs::remove_dir_all(&dir).ok();
}

// ---- write groups, bulk windows & concurrent writers ----------------------

#[test]
fn bulk_window_log_is_byte_identical_and_saves_fsyncs() {
    let ops = workload(SEED, OPS);
    let plain_dir = tmp("gc-plain");
    let bulk_dir = tmp("gc-bulk");

    // Record-at-a-time under Fsync: one sync per append.
    let store = Arc::new(ViewStore::new());
    let (mgr, _) = DurabilityManager::attach(&plain_dir, &store, SyncPolicy::Fsync).unwrap();
    for op in &ops {
        apply(&store, op);
    }
    let plain = mgr.wal_stats();
    drop(store);
    drop(mgr);

    // The same appends inside a bulk WAL window: syncs deferred to
    // batch boundaries plus one covering sync at the end.
    let store = Arc::new(ViewStore::new());
    let (mgr, _) = DurabilityManager::attach(&bulk_dir, &store, SyncPolicy::Fsync).unwrap();
    let scope = store.wal_bulk_scope().expect("wal armed");
    for op in &ops {
        apply(&store, op);
    }
    scope.finish().expect("covering sync");
    let bulk = mgr.wal_stats();
    drop(store);
    drop(mgr);

    assert_eq!(plain.frames, OPS as u64);
    assert_eq!(bulk.frames, OPS as u64);
    assert!(
        plain.syncs >= plain.frames,
        "record-at-a-time issues one fsync per record ({} < {})",
        plain.syncs,
        plain.frames
    );
    assert!(
        bulk.syncs * 10 <= bulk.frames,
        "the bulk window must save >=10x fsyncs: {} syncs for {} frames",
        bulk.syncs,
        bulk.frames
    );
    assert!(bulk.syncs_saved() > 0);

    // Grouping changes when data reaches disk, never what is written:
    // the two logs are byte-identical.
    let a = std::fs::read(plain_dir.join("wal-1.idmlog")).unwrap();
    let b = std::fs::read(bulk_dir.join("wal-1.idmlog")).unwrap();
    assert_eq!(a, b, "bulk window altered the log bytes");

    // Both recover to the full workload state, byte for byte.
    let (ra, _, _) = DurabilityManager::open(&plain_dir, SyncPolicy::WriteBack).unwrap();
    let (rb, _, _) = DurabilityManager::open(&bulk_dir, SyncPolicy::WriteBack).unwrap();
    assert_same_state(&ra, &reference(&ops, OPS), "plain recovery");
    assert_same_state(&rb, &reference(&ops, OPS), "bulk recovery");
    std::fs::remove_dir_all(&plain_dir).ok();
    std::fs::remove_dir_all(&bulk_dir).ok();
}

#[test]
fn truncation_inside_coalesced_batches_recovers_the_exact_prefix() {
    // Inserts applied through `insert_batch` in chunks: every WAL
    // write is one coalesced multi-frame group. Killing at each frame
    // boundary — including every boundary *inside* a group — must
    // recover the exact insert prefix: frames, not groups, are the
    // recovery unit.
    const N: usize = 96;
    const CHUNK: usize = 16;
    let dir = tmp("gc-batches");
    let store = Arc::new(ViewStore::new());
    let (mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::Fsync).unwrap();
    let texts: Vec<(String, String)> = (0..N)
        .map(|i| (format!("batched-{i}.txt"), format!("bulk insert {i}")))
        .collect();
    for chunk in texts.chunks(CHUNK) {
        let records = chunk
            .iter()
            .map(|(name, text)| store.build(name.clone()).text(text.clone()).into_record())
            .collect();
        store.insert_batch(records);
    }
    let stats = mgr.wal_stats();
    assert_eq!(stats.frames, N as u64);
    assert_eq!(
        stats.groups,
        (N / CHUNK) as u64,
        "one write group per chunk"
    );
    assert_eq!(stats.syncs, stats.groups, "one covering fsync per group");
    drop(store);
    drop(mgr);

    let wal = std::fs::read(dir.join("wal-1.idmlog")).unwrap();
    let segment = read_segment(&dir.join("wal-1.idmlog")).unwrap();
    assert_eq!(segment.records.len(), N);
    let mut boundaries = vec![8u64];
    boundaries.extend(&segment.boundaries);

    // `insert_batch` promises the store image of one-at-a-time inserts,
    // so the reference applies the same prefix sequentially.
    let expected = |k: usize| {
        let s = ViewStore::new();
        for (name, text) in &texts[..k] {
            s.build(name.clone()).text(text.clone()).insert();
        }
        s
    };
    for (k, &offset) in boundaries.iter().enumerate() {
        let case = truncated_copy(&dir, &format!("gb{k}"), &wal[..offset as usize]);
        let (recovered, _, report) =
            DurabilityManager::open(&case, SyncPolicy::WriteBack).expect("recovery");
        assert_eq!(report.records_replayed, k as u64, "boundary {k}");
        assert_same_state(
            &recovered,
            &expected(k),
            &format!("batch-interior boundary {k}"),
        );
        std::fs::remove_dir_all(&case).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bulk_window_does_not_defer_another_threads_fsync() {
    // A bulk window defers the syncs of the thread that opened it only:
    // under Fsync, an insert from any other thread is durable when it
    // returns, window or no window.
    let dir = tmp("gc-other-thread");
    let store = Arc::new(ViewStore::new());
    let (_mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::Fsync).unwrap();
    let scope = store.wal_bulk_scope().expect("wal armed");
    let before = store.wal_telemetry().unwrap();
    std::thread::scope(|s| {
        s.spawn(|| {
            store
                .build("elsewhere.txt")
                .text("not in the window")
                .insert()
        });
    });
    let after = store.wal_telemetry().unwrap();
    assert_eq!(after.frames - before.frames, 1);
    assert_eq!(
        after.syncs - before.syncs,
        1,
        "the other thread's append returned before it was durable"
    );
    scope.finish().expect("covering sync");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_durable_writers_log_every_record_and_recover_the_same_store() {
    // Eight threads insert, rename and remove their own views on one
    // durable store under Fsync: every append is its own write group
    // with its own covering sync, the log decodes whole, and recovery
    // rebuilds the in-memory store exactly.
    const THREADS: usize = 8;
    const VIEWS: usize = 12;
    let dir = tmp("concurrent-writers");
    let store = Arc::new(ViewStore::new());
    let (mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::Fsync).unwrap();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let store = &store;
            s.spawn(move || {
                for i in 0..VIEWS {
                    let vid = store
                        .build(format!("t{t}-v{i}.txt"))
                        .text(format!("written by thread {t}"))
                        .insert();
                    store
                        .set_name(vid, Some(format!("t{t}-v{i}-renamed.txt")))
                        .unwrap();
                    if i % 3 == 0 {
                        store.remove(vid).unwrap();
                    }
                }
            });
        }
    });
    let removed = (0..VIEWS).filter(|i| i % 3 == 0).count();
    let records = (THREADS * (2 * VIEWS + removed)) as u64;
    let stats = mgr.wal_stats();
    assert_eq!(stats.frames, records);
    assert_eq!(stats.groups, records);
    assert_eq!(stats.syncs, records, "one covering fsync per append");

    let segment = read_segment(&dir.join("wal-1.idmlog")).unwrap();
    assert_eq!(segment.records.len() as u64, records);
    assert_eq!(segment.torn_bytes(), 0, "the log decodes whole");

    let (recovered, _, report) =
        DurabilityManager::open(&dir, SyncPolicy::WriteBack).expect("recovery");
    assert_eq!(report.records_replayed, records);
    assert_eq!(report.replay_errors, 0);
    assert_eq!(recovered.len(), THREADS * (VIEWS - removed));
    assert_same_state(&recovered, &store, "concurrent durable writers");
    std::fs::remove_dir_all(&dir).ok();
}

// ---- arbitrary damage is always a clean prefix ----------------------------

/// A position-independent fingerprint of a store's full extensional
/// state (serialized views + versions), for prefix-membership checks.
fn state_fingerprint(store: &ViewStore) -> u64 {
    let mut bytes = Vec::new();
    for vid in store.vids() {
        bytes.extend_from_slice(&vid.as_u64().to_le_bytes());
        bytes.extend_from_slice(&store.version(vid).unwrap().to_le_bytes());
        bytes.extend_from_slice(&view_bytes(
            vid,
            &store.record(vid).unwrap(),
            store.classes(),
        ));
    }
    idm_core::durability::codec::fnv1a64(&bytes)
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(40))]

    /// Any combination of truncation and byte flips applied to the WAL
    /// recovers — without panicking — to a state that is byte-identical
    /// to SOME prefix of the original mutation sequence: damage can
    /// shorten history, never invent or reorder it.
    #[test]
    fn arbitrary_wal_damage_recovers_some_exact_prefix(
        seed in 0u64..1_000_000,
        n_ops in 5usize..40,
        cut in 0usize..10_000,
        flip_pos in 0usize..10_000,
        flip in 0u8..=255,
    ) {
        let ops = workload(seed, n_ops);
        let dir = tmp(&format!("prop-{seed}-{n_ops}-{cut}-{flip_pos}-{flip}"));
        run_durable(&dir, &ops);

        // Fingerprint every prefix state once.
        let prefixes: Vec<u64> = (0..=n_ops)
            .map(|k| state_fingerprint(&reference(&ops, k)))
            .collect();

        let mut wal = std::fs::read(dir.join("wal-1.idmlog")).unwrap();
        wal.truncate(8.max(cut % (wal.len() + 1)));
        if !wal.is_empty() && flip != 0 {
            let pos = flip_pos % wal.len();
            wal[pos] ^= flip;
        }
        std::fs::write(dir.join("wal-1.idmlog"), &wal).unwrap();

        let (recovered, _, report) =
            DurabilityManager::open(&dir, SyncPolicy::WriteBack).expect("damaged WAL must recover");
        prop_assert!(recovered.verify_invariants().is_ok());
        let got = state_fingerprint(&recovered);
        let k = report.records_replayed as usize;
        prop_assert!(k <= n_ops, "replayed more records than were written");
        prop_assert_eq!(
            got, prefixes[k],
            "recovered state is not the claimed {}-record prefix", k
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

use proptest::{prop_assert, prop_assert_eq};

// ---- fault-injected crashes ----------------------------------------------

mod injected {
    use super::*;
    use idm_core::fault::FaultPlan;

    #[test]
    fn crash_at_append_loses_only_the_unlogged_suffix() {
        let ops = workload(SEED, 120);
        for crash_at in [1u64, 7, 60, 119] {
            let dir = tmp(&format!("crashat{crash_at}"));
            let store = Arc::new(ViewStore::new());
            let (mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
            mgr.wal()
                .fault_point()
                .install(FaultPlan::crash_at(crash_at));
            for op in &ops {
                apply(&store, op); // appends die silently after the crash point
            }
            assert!(mgr.wal().ensure_healthy().is_err(), "sticky death surfaces");
            drop(store);
            drop(mgr);

            let logged = (crash_at - 1) as usize;
            let (recovered, _, report) =
                DurabilityManager::open(&dir, SyncPolicy::WriteBack).expect("recovery");
            assert_eq!(report.records_replayed, logged as u64);
            assert_same_state(
                &recovered,
                &reference(&ops, logged),
                &format!("crash at append {crash_at}"),
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn torn_write_at_append_truncates_to_the_previous_record() {
        let ops = workload(SEED, 100);
        for (torn_at, keep) in [(5u64, 3usize), (50, 11), (99, 1)] {
            let dir = tmp(&format!("torn{torn_at}"));
            let store = Arc::new(ViewStore::new());
            let (mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
            mgr.wal()
                .fault_point()
                .install(FaultPlan::torn_write(torn_at, keep));
            for op in &ops {
                apply(&store, op);
            }
            drop(store);
            drop(mgr);

            let logged = (torn_at - 1) as usize;
            let (recovered, _, report) =
                DurabilityManager::open(&dir, SyncPolicy::WriteBack).expect("recovery");
            assert_eq!(report.records_replayed, logged as u64);
            assert!(report.bytes_truncated > 0, "the torn half-record is cut");
            assert_same_state(
                &recovered,
                &reference(&ops, logged),
                &format!("torn write at {torn_at}"),
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn torn_coalesced_batch_keeps_every_acknowledged_record() {
        // Six 16-record `insert_batch` groups under Fsync; write number
        // 3 (the third group's single coalesced buffer) tears down to
        // `keep` bytes, then the writer dies. Batches 1–2 were
        // acknowledged by their covering fsyncs, so recovery must keep
        // all 32 of their records, plus only *complete* frames of the
        // torn group — an exact prefix, never a torn record.
        const N: usize = 96;
        const CHUNK: usize = 16;
        let texts: Vec<(String, String)> = (0..N)
            .map(|i| (format!("batched-{i}.txt"), format!("bulk insert {i}")))
            .collect();
        let expected = |k: usize| {
            let s = ViewStore::new();
            for (name, text) in &texts[..k] {
                s.build(name.clone()).text(text.clone()).insert();
            }
            s
        };
        for keep in [0usize, 1, 9, 120, 700] {
            let dir = tmp(&format!("gctorn{keep}"));
            let store = Arc::new(ViewStore::new());
            let (mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::Fsync).unwrap();
            mgr.wal()
                .fault_point()
                .install(FaultPlan::torn_write(3, keep));
            for chunk in texts.chunks(CHUNK) {
                let records = chunk
                    .iter()
                    .map(|(name, text)| store.build(name.clone()).text(text.clone()).into_record())
                    .collect();
                store.insert_batch(records);
            }
            assert!(mgr.wal().ensure_healthy().is_err(), "sticky death surfaces");
            drop(store);
            drop(mgr);

            let (recovered, _, report) =
                DurabilityManager::open(&dir, SyncPolicy::WriteBack).expect("recovery");
            let prefix = report.records_replayed as usize;
            assert!(
                (2 * CHUNK..3 * CHUNK).contains(&prefix),
                "keep {keep}: expected the two acked groups plus part of the third, got {prefix}"
            );
            assert_same_state(
                &recovered,
                &expected(prefix),
                &format!("torn group, keep {keep}"),
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn checkpoint_refuses_a_dead_wal() {
        let dir = tmp("deadwal");
        let store = Arc::new(ViewStore::new());
        let (mut mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
        mgr.wal().fault_point().install(FaultPlan::crash_at(1));
        store.build("lost").insert();
        assert!(
            mgr.checkpoint(&store).is_err(),
            "a checkpoint over a dead WAL would silently bless lost writes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---- double faults --------------------------------------------------------
//
// A crash is allowed to strike while the system is *already* healing:
// during the recovery replay of a previous crash, or during the
// proactive checkpoint a scrub repair triggers. Both must still land on
// an exact mutation prefix.

/// Recovery's only persistent side effects are tail truncation and
/// artifact quarantine, so a crash *during* replay leaves a dataspace
/// that a second recovery must read to the identical prefix — recovery
/// is idempotent.
#[test]
fn crash_during_recovery_replay_recovers_the_same_prefix_on_reboot() {
    let ops = workload(SEED, 160);
    let dir = tmp("double-recovery");
    run_durable(&dir, &ops);

    // Damage the log so the first recovery has real healing to do.
    let wal_file = dir.join("wal-1.idmlog");
    let mut wal = std::fs::read(&wal_file).unwrap();
    let cut = wal.len() * 2 / 3;
    wal[cut] ^= 0x40;
    std::fs::write(&wal_file, &wal).unwrap();

    let (first, _, report) =
        DurabilityManager::open(&dir, SyncPolicy::WriteBack).expect("first recovery");
    let prefix = report.records_replayed as usize;
    assert!(prefix < 160, "the flip must cost at least the tail");
    assert_same_state(&first, &reference(&ops, prefix), "first recovery");
    drop(first); // crash again: replay finished, nothing new was written

    let (second, _, again) =
        DurabilityManager::open(&dir, SyncPolicy::WriteBack).expect("second recovery");
    assert_eq!(again.records_replayed as usize, prefix, "prefix is stable");
    assert_same_state(&second, &reference(&ops, prefix), "second recovery");
    std::fs::remove_dir_all(&dir).ok();
}

mod double_fault {
    use super::*;
    use idm_core::durability::Scrubber;
    use idm_core::fault::FaultPlan;

    /// Byte-flip the newest snapshot, then kill the scrub-triggered
    /// repair checkpoint between WAL rotation and the snapshot write —
    /// and crash. The damaged snapshot is already quarantined, the old
    /// snapshot plus the complete (rotated) WAL chain survive, so
    /// recovery lands on every mutation. A second crash-and-reopen on
    /// the result must agree.
    #[test]
    fn crash_during_scrub_repair_checkpoint_loses_no_mutation() {
        let ops = workload(SEED, 160);
        let dir = tmp("scrub-ckpt-crash");
        let store = Arc::new(ViewStore::new());
        let (mut mgr, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();
        for op in &ops[..120] {
            apply(&store, op);
        }
        mgr.checkpoint(&store).expect("healthy checkpoint");
        for op in &ops[120..] {
            apply(&store, op);
        }

        // Flip one byte of the newest snapshot (seq 2, written above).
        let snap = dir.join("snap-2.idmsnap");
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&snap, &bytes).unwrap();

        mgr.checkpoint_fault_point().install(FaultPlan::fail_n(1));
        let mut scrubber = Scrubber::new(None);
        let err = mgr.scrub_round(&store, &mut scrubber, &mgr.artifacts().unwrap());
        assert!(err.is_err(), "the repair checkpoint must die mid-flight");
        assert!(
            !snap.exists(),
            "the damaged snapshot was quarantined before the checkpoint"
        );
        drop(store);
        drop(mgr); // crash: no shutdown path runs

        let (recovered, _, report) =
            DurabilityManager::open(&dir, SyncPolicy::WriteBack).expect("recovery");
        assert_eq!(report.records_replayed, 160, "{report}");
        assert_same_state(
            &recovered,
            &reference(&ops, 160),
            "crash during scrub repair checkpoint",
        );
        drop(recovered);

        // Double fault: crash again immediately after that recovery.
        let (again, _, second) =
            DurabilityManager::open(&dir, SyncPolicy::WriteBack).expect("second recovery");
        assert_eq!(second.records_replayed, 160, "{second}");
        assert_same_state(&again, &reference(&ops, 160), "second crash after repair");
        std::fs::remove_dir_all(&dir).ok();
    }
}
