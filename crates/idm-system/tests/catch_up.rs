//! Reopen catch-up: `Pdsms::open` loads an index file stamped inside the
//! replayed window and re-indexes only the views the replayed records
//! name. Checked from outside: the fate, byte-equality with a bundle
//! rebuilt from the recovered store, a clean full audit, and every
//! planted query answering as it did before the kill.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use idm_core::durability::record::{ChangeRecord, SerialGroup};
use idm_core::durability::{DurabilityManager, SyncPolicy};
use idm_core::prelude::*;
use idm_index::{audit, persist, AuditScope, IndexBundle};
use idm_system::{IndexFate, OpenReport, Pdsms, QueryRequest};

const WORDS: [&str; 6] = ["alpha", "bravo", "charlie", "delta", "echo", "omega"];
/// `note` is registered before the dataspace becomes durable, `memo`
/// only by a `SetClass` inside a tail.
const CLASSES: [&str; 4] = ["file", "folder", "note", "memo"];

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("idm-catchup-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 16) as usize
    }

    fn text(&mut self) -> String {
        let words: Vec<&str> = (0..2 + self.next() % 4)
            .map(|_| WORDS[self.next() % WORDS.len()])
            .collect();
        words.join(" ")
    }
}

fn size_tuple(size: usize) -> TupleComponent {
    TupleComponent::of(vec![("size", Value::Integer(size as i64))])
}

/// A system under a scripted workload. Every store mutation is followed
/// by the index maintenance a sync round would do, so the live answers
/// are right before the kill.
struct Scripted {
    system: Pdsms,
    live: Vec<Vid>,
    rng: Rng,
    names: usize,
}

/// The mutation kinds of [`Scripted::apply`].
const KINDS: usize = 10;

impl Scripted {
    /// `views` views indexed under alternating source labels, in memory.
    fn new(seed: u64, views: usize) -> Scripted {
        let mut scripted = Scripted {
            system: Pdsms::new(),
            live: Vec::new(),
            rng: Rng(seed),
            names: 0,
        };
        scripted.store().classes().lookup_or_register("note");
        for i in 0..views {
            scripted.insert(if i % 2 == 0 { "left" } else { "right" });
        }
        scripted
    }

    fn store(&self) -> &Arc<ViewStore> {
        self.system.store()
    }

    fn pick(&mut self) -> Vid {
        self.live[self.rng.next() % self.live.len()]
    }

    fn fresh_name(&mut self) -> String {
        self.names += 1;
        format!("n{}", self.names)
    }

    fn insert(&mut self, source: &str) -> Vid {
        let name = self.fresh_name();
        let text = self.rng.text();
        let size = self.rng.next() % 10;
        let class = CLASSES[self.rng.next() % 3];
        let vid = self
            .store()
            .build(name)
            .text(text)
            .tuple(size_tuple(size))
            .class_named(class)
            .insert();
        self.system
            .indexes()
            .index_view(self.store(), vid, source)
            .unwrap();
        self.live.push(vid);
        vid
    }

    /// Re-registers a view after a component change, keeping its label.
    fn reindex(&self, vid: Vid) {
        let indexes = self.system.indexes();
        let source = indexes
            .catalog
            .entry(vid)
            .map_or_else(|| "dataspace".to_owned(), |e| e.source);
        indexes.remove_view(vid);
        indexes.index_view(self.store(), vid, &source).unwrap();
    }

    fn remove(&mut self, vid: Vid) {
        self.system.indexes().remove_view(vid);
        self.store().remove(vid).unwrap();
        self.live.retain(|v| *v != vid);
    }

    fn apply(&mut self, kind: usize) {
        // Views born in the tail carry the label a recovery gives them:
        // the WAL does not log source labels.
        match kind {
            0 => drop(self.insert("dataspace")),
            1 => {
                let (vid, name) = (self.pick(), self.fresh_name());
                self.store().set_name(vid, Some(name)).unwrap();
                self.reindex(vid);
            }
            2 => {
                let (vid, size) = (self.pick(), self.rng.next() % 10);
                let tuple = (size > 0).then(|| size_tuple(size));
                self.store().set_tuple(vid, tuple).unwrap();
                self.reindex(vid);
            }
            3 => {
                let (vid, text) = (self.pick(), self.rng.text());
                self.store().set_content(vid, Content::text(text)).unwrap();
                self.reindex(vid);
            }
            4 => {
                let (vid, a, b) = (self.pick(), self.pick(), self.pick());
                let members = if a == b { vec![a] } else { vec![a, b] };
                self.store().set_group(vid, Group::of_set(members)).unwrap();
                self.reindex(vid);
            }
            5 => {
                let vid = self.pick();
                let class = CLASSES[self.rng.next() % CLASSES.len()];
                let class = self.store().classes().lookup_or_register(class);
                self.store().set_class(vid, Some(class)).unwrap();
                self.reindex(vid);
            }
            6 => {
                let (vid, member, ordered) =
                    (self.pick(), self.pick(), self.rng.next().is_multiple_of(2));
                // Refused when the member already sits in the other half.
                if self.store().add_group_member(vid, member, ordered).is_ok() {
                    self.reindex(vid);
                }
            }
            7 => {
                if self.live.len() > 4 {
                    let vid = self.pick();
                    self.remove(vid);
                }
            }
            8 => {
                // Created and removed inside the tail.
                let vid = self.insert("dataspace");
                self.remove(vid);
            }
            _ => {
                // A lazy group, forced: the children and the
                // `GroupForced` record are logged at force time.
                let provider = Arc::new(|store: &ViewStore, _owner: Vid| {
                    Ok(GroupData::of_set(vec![store
                        .build("late")
                        .text("late echo")
                        .insert()]))
                });
                let name = self.fresh_name();
                let vid = self
                    .store()
                    .build(name)
                    .group(Group::lazy(provider))
                    .insert();
                self.live.push(vid);
                for child in self.store().group(vid).unwrap().finite_members() {
                    self.system
                        .indexes()
                        .index_view(self.store(), child, "dataspace")
                        .unwrap();
                    self.live.push(child);
                }
                self.system
                    .indexes()
                    .index_view(self.store(), vid, "dataspace")
                    .unwrap();
            }
        }
    }
}

/// The planted queries: every keyword, every class, tuple ranges, names.
fn answers(system: &Pdsms) -> Vec<Vec<u64>> {
    let mut queries: Vec<String> = WORDS.iter().map(|w| format!("\"{w}\"")).collect();
    queries.extend(CLASSES.iter().map(|c| format!("//*[class=\"{c}\"]")));
    queries.extend(
        [
            "[size > 4]",
            "[size < 3]",
            "//late",
            "//n1*",
            "\"late echo\"",
        ]
        .map(String::from),
    );
    queries
        .iter()
        .map(|iql| {
            let rows = system
                .run(&QueryRequest::new(iql.as_str()))
                .unwrap()
                .result
                .rows;
            let mut vids: Vec<u64> = rows.views().iter().map(|v| v.as_u64()).collect();
            vids.sort_unstable();
            vids
        })
        .collect()
}

fn bundle_bytes(bundle: &IndexBundle) -> Vec<u8> {
    persist::to_bytes_with_epoch(bundle, 0)
}

/// The reopened bundle serializes like one rebuilt from the recovered
/// store under the same source labels, and audits clean.
fn assert_equals_a_rebuild(reopened: &Pdsms, context: &str) {
    let store = reopened.store();
    let rebuilt = IndexBundle::new();
    for vid in store.vids() {
        let source = reopened
            .indexes()
            .catalog
            .entry(vid)
            .unwrap_or_else(|| panic!("{context}: live view {vid:?} not catalogued"))
            .source;
        rebuilt.index_view(store, vid, &source).unwrap();
    }
    assert!(
        bundle_bytes(reopened.indexes()) == bundle_bytes(&rebuilt),
        "{context}: reopened bundle differs from a rebuild"
    );
    let report = audit(reopened.indexes(), store, AuditScope::Full, None).unwrap();
    assert!(report.is_clean(), "{context}: {report:?}");
}

fn reopen(dir: &Path) -> (Pdsms, OpenReport) {
    Pdsms::open(dir).unwrap()
}

/// (a) Mutation scripts × checkpoint position × an index file re-stamped
/// mid-tail × kill.
#[test]
fn scripted_tails_catch_up_to_what_a_rebuild_gives() {
    const OPS: usize = 36;
    let mut caught_up = 0;
    for seed in 0..6u64 {
        // `None`: only the attach snapshot. `Some(OPS)`: a clean reopen.
        for checkpoint_at in [None, Some(9), Some(24), Some(OPS)] {
            for stamp_at in [None, Some(30)] {
                let context =
                    format!("seed {seed} checkpoint {checkpoint_at:?} stamp {stamp_at:?}");
                let dir = tmp(&format!("matrix-{seed}"));
                let mut scripted = Scripted::new(seed, 12);
                scripted.system.make_durable(&dir).unwrap();
                // Every kind at least once, then whatever the seed says.
                let mut script: Vec<usize> = (0..OPS).map(|i| i % KINDS).collect();
                for i in (1..OPS).rev() {
                    script.swap(i, scripted.rng.next() % (i + 1));
                }
                for (step, kind) in script.into_iter().enumerate() {
                    if checkpoint_at == Some(step) {
                        scripted.system.checkpoint().unwrap();
                    }
                    if stamp_at == Some(step) {
                        // The index file rewritten mid-tail, stamped with
                        // the LSN of the moment: every record logged
                        // since the attach, which starts at LSN 0.
                        let lsn = scripted.store().wal_telemetry().unwrap().frames;
                        let path = dir.join("indexes.idm");
                        persist::save_with_epoch(scripted.system.indexes(), &path, lsn).unwrap();
                    }
                    scripted.apply(kind);
                }
                if checkpoint_at == Some(OPS) {
                    scripted.system.checkpoint().unwrap();
                }
                let before = answers(&scripted.system);
                let live_bytes = bundle_bytes(scripted.system.indexes());
                let views = scripted.store().len();
                drop(scripted); // kill -9: no shutdown hook runs

                let (reopened, report) = reopen(&dir);
                let expected = if checkpoint_at == Some(OPS) {
                    IndexFate::Loaded
                } else {
                    caught_up += 1;
                    IndexFate::CaughtUp
                };
                assert_eq!(report.index, expected, "{context}: {report}");
                assert_eq!(report.recovery.replay_errors, 0, "{context}");
                assert_eq!(reopened.store().len(), views, "{context}");
                assert_equals_a_rebuild(&reopened, &context);
                assert_eq!(answers(&reopened), before, "{context}");
                assert!(
                    bundle_bytes(reopened.indexes()) == live_bytes,
                    "{context}: what was indexed is not what was recovered"
                );
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
    assert_eq!(caught_up, 6 * 3 * 2);
}

/// (b) An index file stamped ahead of a log that is then cut back must
/// not outlive the open that notices: once the new history has grown
/// past its epoch it would pass for a file to catch up from, and serve
/// changes that never happened.
#[test]
fn an_index_file_from_a_discarded_future_does_not_survive_the_open() {
    let dir = tmp("future");
    let mut scripted = Scripted::new(41, 12);
    scripted.system.make_durable(&dir).unwrap();
    let wal = dir.join("wal-1.idmlog");
    for _ in 0..6 {
        scripted.apply(3);
    }
    let kept_len = std::fs::metadata(&wal).unwrap().len();
    let kept_answers = answers(&scripted.system);

    // k = 4 records that will be cut off again: renames of old views.
    let doomed: Vec<Vid> = scripted.live[..4].to_vec();
    for &vid in &doomed {
        scripted
            .store()
            .set_name(vid, Some("phantom".into()))
            .unwrap();
        scripted.reindex(vid);
    }
    assert_eq!(scripted.system.indexes().name.exact("phantom").len(), 4);
    // Stamp the index file at LSN n = 10, as a health round can.
    persist::save_with_epoch(scripted.system.indexes(), &dir.join("indexes.idm"), 10).unwrap();
    drop(scripted);
    let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(kept_len).unwrap();
    drop(file);

    let (reopened, report) = reopen(&dir);
    assert_eq!(report.recovery.lsn, 6, "{report}");
    assert_eq!(report.index, IndexFate::RebuiltStaleEpoch, "{report}");
    assert_eq!(answers(&reopened), kept_answers);
    assert!(reopened.indexes().name.exact("phantom").is_empty());

    // k + 5 different records: other views, past the discarded epoch.
    let others: Vec<Vid> = reopened
        .store()
        .vids()
        .into_iter()
        .filter(|v| !doomed.contains(v))
        .collect();
    for (i, &vid) in others.iter().cycle().take(9).enumerate() {
        let text = format!("{} omega", WORDS[i % WORDS.len()]);
        reopened
            .store()
            .set_content(vid, Content::text(text))
            .unwrap();
        reopened.indexes().remove_view(vid);
        reopened
            .indexes()
            .index_view(reopened.store(), vid, "left")
            .unwrap();
    }
    let before = answers(&reopened);
    drop(reopened);

    let (again, report) = reopen(&dir);
    assert_eq!(report.recovery.lsn, 15, "{report}");
    assert_eq!(report.index, IndexFate::CaughtUp, "{report}");
    assert!(
        again.indexes().name.exact("phantom").is_empty(),
        "renames that recovery discarded are being served"
    );
    assert_eq!(answers(&again), before);
    assert_equals_a_rebuild(&again, "after the discarded future");
    std::fs::remove_dir_all(&dir).ok();
}

/// (c) A file older than the snapshot recovery starts from (a crash
/// between the snapshot rename and the index save of a checkpoint) is
/// not caught up from.
#[test]
fn an_index_file_older_than_the_snapshot_is_rebuilt() {
    let dir = tmp("oldfile");
    let mut scripted = Scripted::new(43, 12);
    scripted.system.make_durable(&dir).unwrap();
    for kind in [0, 1, 3, 7] {
        scripted.apply(kind);
    }
    let old_file = std::fs::read(dir.join("indexes.idm")).unwrap();
    scripted.system.checkpoint().unwrap();
    for kind in [3, 0, 2] {
        scripted.apply(kind);
    }
    let before = answers(&scripted.system);
    drop(scripted);
    std::fs::write(dir.join("indexes.idm"), old_file).unwrap();

    let (reopened, report) = reopen(&dir);
    assert!(report.recovery.records_replayed > 0, "{report}");
    assert_eq!(report.index, IndexFate::RebuiltStaleEpoch, "{report}");
    assert_eq!(report.reindexed, reopened.store().len());
    assert_eq!(answers(&reopened), before);
    assert_equals_a_rebuild(&reopened, "file older than the snapshot");
    std::fs::remove_dir_all(&dir).ok();
}

/// (c) A record that fails to apply is counted, and still contributes
/// its vid: the view it names is re-indexed from whatever the store
/// holds, a vid nobody knows is skipped.
#[test]
fn a_tail_with_replay_errors_still_catches_up() {
    let dir = tmp("replayerrors");
    let mut scripted = Scripted::new(47, 12);
    scripted.system.make_durable(&dir).unwrap();
    for kind in [3, 1, 0] {
        scripted.apply(kind);
    }
    let victim = scripted.live[0];
    let before = answers(&scripted.system);
    drop(scripted);

    // Two records no store would accept, appended behind its back.
    let (_store, _lineage, manager, recovery) =
        DurabilityManager::open(&dir, SyncPolicy::WriteBack).unwrap();
    assert_eq!(recovery.replay_errors, 0);
    let overlapping = SerialGroup::Finite {
        set: vec![1],
        seq: vec![1],
    };
    manager
        .wal()
        .append(&[ChangeRecord::SetGroup {
            vid: victim.as_u64(),
            group: overlapping,
        }])
        .unwrap();
    manager
        .wal()
        .append(&[ChangeRecord::SetName {
            vid: 9_999_999,
            name: Some("nobody".into()),
        }])
        .unwrap();
    drop((_store, _lineage, manager));

    let (reopened, report) = reopen(&dir);
    assert_eq!(report.recovery.replay_errors, 2, "{report}");
    assert!(report.recovery.touched_vids.contains(&victim.as_u64()));
    assert!(report.recovery.touched_vids.contains(&9_999_999));
    assert_eq!(report.index, IndexFate::CaughtUp, "{report}");
    assert_eq!(answers(&reopened), before);
    assert_equals_a_rebuild(&reopened, "tail with replay errors");
    std::fs::remove_dir_all(&dir).ok();
}

/// (d) A wide tail — a tenth of the dataspace rewritten — is caught up,
/// not rebuilt; the two open times are reported, not gated.
#[test]
fn a_wide_tail_is_caught_up_and_equals_a_rebuild() {
    const VIEWS: usize = 20_000;
    let dir = tmp("wide");
    let mut scripted = Scripted::new(53, VIEWS);
    scripted.system.make_durable(&dir).unwrap();
    for i in 0..VIEWS / 10 {
        let vid = scripted.live[i * 10];
        let text = scripted.rng.text();
        scripted
            .store()
            .set_content(vid, Content::text(text))
            .unwrap();
        scripted.reindex(vid);
    }
    let before = answers(&scripted.system);
    drop(scripted);

    let started = Instant::now();
    let (reopened, report) = reopen(&dir);
    let caught_up_in = started.elapsed();
    assert_eq!(report.index, IndexFate::CaughtUp, "{report}");
    assert_eq!(report.reindexed, VIEWS / 10);
    assert_eq!(answers(&reopened), before);
    assert_equals_a_rebuild(&reopened, "wide tail");
    drop(reopened);

    std::fs::remove_file(dir.join("indexes.idm")).unwrap();
    let started = Instant::now();
    let (rebuilt, report) = reopen(&dir);
    let rebuilt_in = started.elapsed();
    assert_eq!(report.index, IndexFate::RebuiltMissing, "{report}");
    assert_eq!(answers(&rebuilt), before);
    eprintln!(
        "wide tail, {VIEWS} views, {} rewritten: open {caught_up_in:?} caught up, \
         {rebuilt_in:?} rebuilt without an index file",
        VIEWS / 10
    );
    std::fs::remove_dir_all(&dir).ok();
}
