//! The Synchronization Manager against an oracle: a dataspace kept
//! current by sync rounds must equal a fresh ingest of the same sources.
//!
//! Each seed generates the synthetic dataspace at sf 0.02, ingests it,
//! then applies random filesystem changes — file writes (some with the
//! same bytes), creates, removals, new folders, folder links to an
//! ancestor (cycles) and to a folder outside their own ancestry (which a
//! later folder removal can take from under them), and the removal of
//! `/Projects/PIM`, whose `All Projects` link points back at `/Projects`
//! — with sync rounds at random points. The synced dataspace must then
//! hold exactly the views a fresh ingest of the changed sources builds
//! (compared by a vid-free dump), answer Q1–Q8 alike, hold as many group
//! edges to missing views (none), and pass a full index audit.

use std::collections::HashMap;
use std::sync::Arc;

use idm_bench::TABLE4_QUERIES;
use idm_core::durability::codec::fnv1a64;
use idm_core::prelude::*;
use idm_dataset::{generate, DatasetConfig, GeneratedDataset};
use idm_system::{AuditScope, FsPlugin, ImapPlugin, Pdsms, SynchronizationManager};
use idm_vfs::{NodeId, NodeKind, VirtualFs};

const SCALE: f64 = 0.02;
const SEEDS: u64 = 6;
const CHANGES: usize = 24;

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick(&mut self, from: &[NodeId]) -> NodeId {
        from[self.below(from.len())]
    }
}

/// A fresh ingest of the dataset's filesystem and mail server.
fn ingest(dataset: &GeneratedDataset) -> (Pdsms, Arc<FsPlugin>) {
    let fs = Arc::new(FsPlugin::new(Arc::clone(&dataset.fs), NodeId::ROOT));
    let mut system = Pdsms::new();
    system.register_source(Arc::clone(&fs) as Arc<dyn idm_system::DataSourcePlugin>);
    system.register_source(Arc::new(ImapPlugin::new(Arc::clone(&dataset.imap))));
    system.index_all().unwrap();
    (system, fs)
}

/// One view without its vid: class, name, tuple, content hash and the
/// catalog's source label.
fn signature(system: &Pdsms, vid: Vid) -> String {
    let store = system.store();
    let content = store.content(vid).unwrap();
    let hash = if content.is_finite() {
        fnv1a64(&content.bytes().unwrap())
    } else {
        0
    };
    format!(
        "{:?} {:?} {:?} {hash:016x} {:?}",
        store.class_name(vid).unwrap(),
        store.name(vid).unwrap(),
        store.tuple(vid).unwrap(),
        system
            .indexes()
            .catalog
            .entry(vid)
            .map(|entry| entry.source),
    )
}

/// Every view as its signature and its group's shape — the set `S` as
/// the sorted signatures of its live members, the sequence `Q` in order
/// — sorted. No vid appears and no edge is followed twice, so cycles
/// are harmless; members that are gone are skipped, as every traversal
/// skips them.
fn dump(system: &Pdsms) -> Vec<String> {
    let store = system.store();
    let signatures: HashMap<Vid, String> = store
        .vids()
        .into_iter()
        .map(|vid| (vid, signature(system, vid)))
        .collect();
    let members = |vids: &[Vid]| -> Vec<&str> {
        vids.iter()
            .filter_map(|member| signatures.get(member).map(String::as_str))
            .collect()
    };
    let mut views: Vec<String> = signatures
        .iter()
        .map(|(&vid, signature)| {
            let group = store.group(vid).unwrap();
            let (mut set, seq) = match group.finite() {
                Ok(data) => (members(data.set()), members(data.seq())),
                Err(_) => (Vec::new(), Vec::new()),
            };
            set.sort_unstable();
            format!("{signature} S{set:?} Q{seq:?}")
        })
        .collect();
    views.sort_unstable();
    views
}

fn query_counts(system: &Pdsms) -> Vec<usize> {
    let processor = system.query_processor();
    TABLE4_QUERIES
        .iter()
        .map(|(_, iql)| processor.execute(iql).unwrap().rows.len())
        .collect()
}

/// Runs sync rounds until one applies every pending event: an event for
/// a node that is gone again ends a round with an error and is dropped.
fn drain(sync: &SynchronizationManager) {
    for _ in 0..=CHANGES {
        if sync.sync_round().is_ok() {
            return;
        }
    }
    panic!("sync rounds keep failing");
}

/// The synced dataspace equals a fresh ingest of the same sources.
fn assert_matches_fresh_ingest(synced: &Pdsms, dataset: &GeneratedDataset, context: &str) {
    let (fresh, _) = ingest(dataset);
    assert_eq!(
        synced.store().len(),
        fresh.store().len(),
        "{context}: views"
    );
    let (got, want) = (dump(synced), dump(&fresh));
    if let Some(at) = got.iter().zip(&want).position(|(g, w)| g != w) {
        panic!(
            "{context}: dumps differ at {at}:\n  synced {}\n  fresh  {}",
            got[at], want[at]
        );
    }
    assert_eq!(got.len(), want.len(), "{context}: dump lengths");
    assert_eq!(
        query_counts(synced),
        query_counts(&fresh),
        "{context}: Q1-Q8"
    );
    let audit = synced.audit_indexes(AuditScope::Full, None).unwrap();
    assert!(audit.is_clean(), "{context}: {audit:?}");
    let invariants = synced.store().verify_invariants();
    assert!(invariants.is_ok(), "{context}");
    assert_eq!(
        invariants.dangling_edges,
        fresh.store().verify_invariants().dangling_edges,
        "{context}: group edges to missing views"
    );
}

/// Live nodes of `kind`, in walk order (the root is a folder).
fn nodes(fs: &VirtualFs, kind: NodeKind) -> Vec<NodeId> {
    fs.walk(NodeId::ROOT)
        .unwrap()
        .into_iter()
        .map(|(node, _)| node)
        .filter(|&node| fs.kind(node).unwrap() == kind)
        .collect()
}

/// Applies change `step` to the filesystem; returns what it did.
fn change(fs: &VirtualFs, rng: &mut SplitMix, step: usize, at: Timestamp) -> String {
    let files = nodes(fs, NodeKind::File);
    let folders = nodes(fs, NodeKind::Folder);
    match rng.below(8) {
        0 => {
            let file = rng.pick(&files);
            let path = fs.path_of(file).unwrap();
            fs.remove(file).unwrap();
            format!("remove {path}")
        }
        1 => {
            let dir = rng.pick(&folders);
            let (name, text) = match step % 3 {
                0 => (
                    format!("oracle{step}.tex"),
                    format!("\\section{{Oracle {step}}}\ndatabase tuning notes"),
                ),
                1 => (
                    format!("oracle{step}.xml"),
                    format!("<notes><n id=\"{step}\">database systems</n></notes>"),
                ),
                _ => (
                    format!("oracle{step}.txt"),
                    "plain database text".to_owned(),
                ),
            };
            fs.create_file(dir, &name, text, at).unwrap();
            format!("create {}/{name}", fs.path_of(dir).unwrap())
        }
        2 => {
            let file = rng.pick(&files);
            let bytes = fs.read_file(file).unwrap();
            fs.write_file(file, bytes, at).unwrap();
            format!("rewrite {} with the same bytes", fs.path_of(file).unwrap())
        }
        3 => {
            let file = rng.pick(&files);
            let mut bytes = fs.read_file(file).unwrap().to_vec();
            bytes.extend_from_slice(b" documents");
            fs.write_file(file, bytes, at).unwrap();
            format!("append to {}", fs.path_of(file).unwrap())
        }
        4 => {
            // A link to an ancestor of its own folder: a cycle.
            let dir = rng.pick(&folders);
            let path = fs.path_of(dir).unwrap();
            let depth = path.matches('/').count();
            let up = rng.below(depth);
            let ancestor_path: String = path.split('/').take(up + 1).collect::<Vec<_>>().join("/");
            let ancestor = if ancestor_path.is_empty() {
                NodeId::ROOT
            } else {
                fs.resolve(&ancestor_path).unwrap()
            };
            let name = format!("up{step}");
            fs.create_link(dir, &name, ancestor, at).unwrap();
            format!("link {path}/{name} -> {ancestor_path}/")
        }
        5 => {
            let dir = rng.pick(&folders);
            fs.mkdir(dir, &format!("dir{step}"), at).unwrap();
            format!("mkdir {}/dir{step}", fs.path_of(dir).unwrap())
        }
        6 => {
            // A link to a folder that is not its own folder's ancestor,
            // so removing the target can leave the link behind.
            let target = rng.pick(&folders[1..]);
            let target_path = fs.path_of(target).unwrap();
            let under = format!("{target_path}/");
            let dirs: Vec<NodeId> = folders
                .iter()
                .copied()
                .filter(|&dir| {
                    let path = fs.path_of(dir).unwrap();
                    path != target_path && !path.starts_with(&under)
                })
                .collect();
            let dir = rng.pick(&dirs);
            let name = format!("across{step}");
            fs.create_link(dir, &name, target, at).unwrap();
            format!("link {}/{name} -> {target_path}", fs.path_of(dir).unwrap())
        }
        _ => {
            let dir = rng.pick(&folders[1..]);
            let path = fs.path_of(dir).unwrap();
            fs.remove(dir).unwrap();
            format!("remove folder {path}")
        }
    }
}

#[test]
fn synced_dataspaces_equal_a_fresh_ingest() {
    for seed in 1..=SEEDS {
        let dataset = generate(DatasetConfig {
            scale: SCALE,
            seed,
            ..DatasetConfig::default()
        });
        let (synced, plugin) = ingest(&dataset);
        let sync = SynchronizationManager::attach(
            plugin,
            Arc::clone(synced.store()),
            Arc::clone(synced.indexes()),
        )
        .unwrap();
        let mut rng = SplitMix(seed);
        let pim_at = rng.below(CHANGES);
        let mut log = Vec::new();
        let at = Timestamp::from_ymd(2006, 9, 12).unwrap();
        for step in 0..CHANGES {
            if step == pim_at {
                if let Ok(pim) = dataset.fs.resolve("/Projects/PIM") {
                    dataset.fs.remove(pim).unwrap();
                    log.push("remove /Projects/PIM".to_owned());
                }
            }
            log.push(change(
                &dataset.fs,
                &mut rng,
                step,
                at.plus_days(step as i64),
            ));
            if rng.below(3) == 0 {
                let _ = sync.sync_round();
            }
        }
        drain(&sync);
        assert_matches_fresh_ingest(&synced, &dataset, &format!("seed {seed}: {log:#?}"));
    }
}

/// The Figure 1 cycle: `/Projects/PIM/All Projects` links back to
/// `/Projects`, so everything under `/Projects` is reachable from PIM —
/// and none of it may go with PIM.
#[test]
fn removing_projects_pim_removes_only_what_is_under_it() {
    let dataset = generate(DatasetConfig {
        scale: SCALE,
        ..DatasetConfig::default()
    });
    let (synced, plugin) = ingest(&dataset);
    let sync = SynchronizationManager::attach(
        plugin,
        Arc::clone(synced.store()),
        Arc::clone(synced.indexes()),
    )
    .unwrap();
    let before = synced.store().len();
    dataset
        .fs
        .remove(dataset.fs.resolve("/Projects/PIM").unwrap())
        .unwrap();
    let report = sync.sync_round().unwrap();
    assert_eq!(report.removed, before - synced.store().len());
    assert_matches_fresh_ingest(&synced, &dataset, "remove /Projects/PIM");
}
