//! The Synchronization Manager (Section 5.2, part 4).
//!
//! Observes registered data sources for updates. Where the source
//! supports notification events (our [`VirtualFs`] does, standing in
//! for the paper's Mac OS X file events), the manager subscribes and
//! applies updates immediately at the next sync round; for updates done
//! bypassing the RVM layer it also supports a full polling pass that
//! diffs the source against the catalog.
//!
//! What a change takes with it is decided by ownership, not
//! reachability: a base view (a file, folder, link or message) goes with
//! exactly the views it owns ([`ViewStore::owned`]) — what its
//! conversion minted, and for a message its attachments and theirs. A
//! group edge is never followed, so removing `/Projects/PIM` leaves
//! `/Projects`, which its `All Projects` link points back at, and every
//! view under it alone. Every reference to a base view goes with it: the
//! folder, mailbox or folder link that held it loses the edge.
//!
//! Every handler brings views in through `admit` (convert, then index
//! what the catalog lacks, as the ingest does) and takes base views out
//! through `retire`.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use crossbeam::channel::Receiver;
use idm_core::prelude::*;
use idm_index::IndexBundle;
use idm_vfs::{FsEvent, NodeId, NodeKind, VirtualFs};
use parking_lot::Mutex;

use crate::converter::convert_all;
use crate::rvm::with_owned;
use crate::source::{DataSourcePlugin, FsPlugin, ImapPlugin};

/// What one sync round did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Views created (base + derived).
    pub created: usize,
    /// Base views re-indexed after modification.
    pub modified: usize,
    /// Views removed (base + derived).
    pub removed: usize,
}

/// Path → base view. Paths are ordered, so the paths under one are a
/// range.
#[derive(Default)]
struct BaseViews {
    by_path: BTreeMap<String, Vid>,
}

impl BaseViews {
    /// Forgets `path` and the paths under it (sub-paths disappear with
    /// their parent), which run from `"{path}/"` to the first path not
    /// starting with it; returns their views, `path`'s own first, or
    /// nothing if `path` is unknown.
    fn remove_tree(&mut self, path: &str) -> Vec<Vid> {
        let Some(vid) = self.by_path.remove(path) else {
            return Vec::new();
        };
        let prefix = format!("{path}/");
        let under: Vec<String> = self
            .by_path
            .range::<str, _>((Bound::Included(prefix.as_str()), Bound::Unbounded))
            .take_while(|(sub, _)| sub.starts_with(&prefix))
            .map(|(sub, _)| sub.clone())
            .collect();
        let mut gone = vec![vid];
        gone.extend(under.iter().filter_map(|sub| self.by_path.remove(sub)));
        gone
    }
}

/// One sync round over a source's notifications: the event a previous
/// round failed on first, then whatever is pending. A handler error ends
/// the round; the events behind it keep their order for the next one.
/// The failed event itself is parked in `retry` only if the source said
/// the fault passes (a transient or timed-out substrate call). Any other
/// error is final for that event — typically a `Created` / `Modified` /
/// `Delivered` whose file or message was removed again before this round,
/// which the source answers with a plain provider error — so the event
/// is dropped and the `Removed` / `Deleted` behind it cleans up. `retry`
/// is held throughout: rounds of one source run one at a time.
fn apply_in_order<E>(
    retry: &Mutex<Option<E>>,
    events: &Receiver<E>,
    mut apply: impl FnMut(&E) -> Result<()>,
) -> Result<()> {
    use SubstrateFaultKind::{Timeout, Transient};
    let mut retry = retry.lock();
    while let Some(event) = retry.take().or_else(|| events.try_recv().ok()) {
        if let Err(err) = apply(&event) {
            if matches!(err.substrate_kind(), Some(Transient | Timeout)) {
                *retry = Some(event);
            }
            return Err(err);
        }
    }
    Ok(())
}

/// Brings `bases` in as an ingest does: converts them, then indexes
/// whatever of them and the views they own the catalog lacks, in one
/// [`IndexBundle::index_views`] call; returns those views, vid-sorted.
fn admit(
    store: &ViewStore,
    indexes: &IndexBundle,
    bases: &[Vid],
    source: &str,
) -> Result<Vec<Vid>> {
    convert_all(store, bases)?;
    let mut missing = with_owned(store, bases);
    missing.retain(|&view| !indexes.catalog.contains(view));
    indexes.index_views(store, &missing, source)?;
    Ok(missing)
}

/// Takes `bases` and every view they own out of the dataspace, and
/// every reference to them with them: each group that holds one and is
/// not itself retiring (an in-edge of the group replica) loses it,
/// writing only the groups that change. Then the owned views (newest
/// first) and `bases` leave the indexes in one
/// [`IndexBundle::remove_views`] call, and the store. Returns them.
fn retire(store: &ViewStore, indexes: &IndexBundle, bases: &[Vid]) -> Result<Vec<Vid>> {
    let mut retiring = bases.to_vec();
    retiring.sort_unstable();
    let mut detach: BTreeMap<Vid, Vec<Vid>> = BTreeMap::new();
    for &base in bases {
        for parent in indexes.group.parents(base) {
            if retiring.binary_search(&parent).is_err() {
                detach.entry(parent).or_default().push(base);
            }
        }
    }
    for (parent, leaving) in detach {
        if !store.contains(parent) {
            continue;
        }
        let members = store.group(parent)?.finite_members();
        let kept: Vec<Vid> = members
            .iter()
            .copied()
            .filter(|member| !leaving.contains(member))
            .collect();
        if kept.len() < members.len() {
            store.set_group(parent, Group::of_set(kept.clone()))?;
            indexes.group.index(parent, &kept);
        }
    }
    let mut gone: Vec<Vid> = bases
        .iter()
        .flat_map(|&base| store.owned(base).into_iter().rev())
        .collect();
    gone.extend(bases);
    indexes.remove_views(&gone);
    for &view in &gone {
        if store.contains(view) {
            store.remove(view)?;
        }
    }
    Ok(gone)
}

/// A synchronization manager for one filesystem source.
pub struct SynchronizationManager {
    store: Arc<ViewStore>,
    indexes: Arc<IndexBundle>,
    fs: Arc<VirtualFs>,
    plugin: Arc<FsPlugin>,
    events: Receiver<FsEvent>,
    /// The event whose handler hit a passing source fault, for the next
    /// round to apply first (see `apply_in_order`).
    retry: Mutex<Option<FsEvent>>,
    /// Maintained across events (needed because a removal notification
    /// arrives after the node is gone).
    paths: Mutex<BaseViews>,
}

impl SynchronizationManager {
    /// Attaches to a filesystem plugin **after** its initial ingestion,
    /// seeding the path map from the plugin's node mapping.
    pub fn attach(
        plugin: Arc<FsPlugin>,
        store: Arc<ViewStore>,
        indexes: Arc<IndexBundle>,
    ) -> Result<Self> {
        let fs = Arc::clone(plugin.fs());
        let events = fs.subscribe();
        let mut paths = BaseViews::default();
        for (node, _depth) in fs.walk(NodeId::ROOT)? {
            if let Some(vid) = plugin.view_of(node) {
                paths.by_path.insert(fs.path_of(node)?, vid);
            }
        }
        Ok(SynchronizationManager {
            store,
            indexes,
            fs,
            plugin,
            events,
            retry: Mutex::new(None),
            paths: Mutex::new(paths),
        })
    }

    /// Processes all pending notifications; returns what changed. An
    /// event whose handler fails ends the round and the events behind it
    /// keep their order; if the failure was a transient source fault the
    /// next round applies that event first, otherwise (its file is gone
    /// again, say) it is dropped.
    pub fn sync_round(&self) -> Result<SyncReport> {
        let mut report = SyncReport::default();
        apply_in_order(&self.retry, &self.events, |event| match event {
            FsEvent::Created(path) => self.on_created(path).map(|n| report.created += n),
            FsEvent::Modified(path) => self.on_modified(path).map(|n| report.modified += n),
            FsEvent::Removed(path) => self.on_removed(path).map(|n| report.removed += n),
        })?;
        Ok(report)
    }

    /// Full polling pass: finds filesystem nodes that bypassed
    /// notifications (e.g. created before attachment) and ingests them.
    pub fn poll_filesystem(&self) -> Result<SyncReport> {
        let mut report = SyncReport::default();
        for (node, _depth) in self.fs.walk(NodeId::ROOT)? {
            let path = self.fs.path_of(node)?;
            if !self.paths.lock().by_path.contains_key(&path) {
                report.created += self.create_node(node, &path)?;
            }
        }
        Ok(report)
    }

    fn parent_view(&self, path: &str) -> Option<Vid> {
        let dir = match path.rsplit_once('/') {
            Some(("", _)) => "/".to_owned(),
            Some((dir, _)) => dir.to_owned(),
            None => return None,
        };
        self.paths.lock().by_path.get(&dir).copied()
    }

    fn on_created(&self, path: &str) -> Result<usize> {
        if self.paths.lock().by_path.contains_key(path) {
            return Ok(0);
        }
        // The node itself: `resolve` would take a new link to its target.
        let (dir, name) = path.rsplit_once('/').unwrap_or(("", path));
        let node = self
            .fs
            .child_named(self.fs.resolve(dir)?, name)?
            .ok_or_else(|| IdmError::provider(format!("sync: '{path}' is gone")))?;
        self.create_node(node, path)
    }

    fn create_node(&self, node: NodeId, path: &str) -> Result<usize> {
        let name = self.fs.name(node)?;
        let meta = self.fs.metadata(node)?;
        let kind = self.fs.kind(node)?;

        let vid = match kind {
            // Read now: conversion and indexing force the content in
            // this same call, and only what the view is logged with
            // survives a WAL-tail replay.
            NodeKind::File => self
                .store
                .build(name)
                .tuple(meta.to_tuple())
                .content(Content::inline(self.fs.read_file(node)?))
                .class_named("file")
                .insert(),
            NodeKind::Folder => self
                .store
                .build(name)
                .tuple(meta.to_tuple())
                .class_named("folder")
                .insert(),
            NodeKind::FolderLink => {
                let target_vid = self
                    .fs
                    .link_target(node)?
                    .and_then(|t| self.plugin.view_of(t));
                let mut builder = self
                    .store
                    .build(name)
                    .tuple(meta.to_tuple())
                    .class_named("folderlink");
                if let Some(target) = target_vid {
                    builder = builder.children(vec![target]);
                }
                builder.insert()
            }
        };

        // Wire into the parent folder's group.
        if let Some(parent) = self.parent_view(path) {
            self.store.add_group_member(parent, vid, false)?;
            self.indexes
                .group
                .index(parent, &self.store.group(parent)?.finite_members());
        }
        self.paths.lock().by_path.insert(path.to_owned(), vid);
        self.plugin.record_mapping(node, vid);

        // Convert + index the new view and what it owns.
        Ok(admit(&self.store, &self.indexes, &[vid], self.plugin.name())?.len())
    }

    fn on_modified(&self, path: &str) -> Result<usize> {
        let Some(vid) = self.paths.lock().by_path.get(path).copied() else {
            return Ok(0);
        };
        // Everything the source has to say, before anything is changed;
        // the content is read now for the same reason as in `create_node`.
        let node = self.fs.resolve(path)?;
        let meta = self.fs.metadata(node)?;
        let content = match self.fs.kind(node)? {
            NodeKind::File => Some(Content::inline(self.fs.read_file(node)?)),
            _ => None,
        };

        // Drop the stale derived views, newest first.
        let mut stale = self.store.owned(vid);
        for &view in stale.iter().rev() {
            self.store.remove(view)?;
        }
        stale.push(vid);

        self.store.set_tuple(vid, Some(meta.to_tuple()))?;
        if let Some(content) = content {
            self.store.set_content(vid, content)?;
        }
        self.store.set_group(vid, Group::Empty)?;
        if let Some(class) = self.store.classes().lookup("file") {
            self.store.set_class(vid, Some(class))?;
        }

        // Reconvert and reindex.
        self.indexes.remove_views(&stale);
        admit(&self.store, &self.indexes, &[vid], self.plugin.name())?;
        Ok(1)
    }

    /// Removes the base view of `path`, those of the paths under it, and
    /// the views each of them owns.
    fn on_removed(&self, path: &str) -> Result<usize> {
        let bases = self.paths.lock().remove_tree(path);
        Ok(retire(&self.store, &self.indexes, &bases)?.len())
    }
}

/// A synchronization manager for one IMAP source: subscribes to the
/// server's delivery/deletion notifications and keeps the mailbox
/// views, converted attachment subgraphs and indexes current.
pub struct ImapSynchronizationManager {
    store: Arc<ViewStore>,
    indexes: Arc<IndexBundle>,
    plugin: Arc<ImapPlugin>,
    events: Receiver<idm_email::imap::MailEvent>,
    /// As [`SynchronizationManager`]'s: the event to apply first.
    retry: Mutex<Option<idm_email::imap::MailEvent>>,
}

impl ImapSynchronizationManager {
    /// Attaches to an IMAP plugin **after** its initial ingestion.
    pub fn attach(
        plugin: Arc<ImapPlugin>,
        store: Arc<ViewStore>,
        indexes: Arc<IndexBundle>,
    ) -> Self {
        let events = plugin.server().subscribe();
        ImapSynchronizationManager {
            store,
            indexes,
            plugin,
            events,
            retry: Mutex::new(None),
        }
    }

    /// Processes all pending mail notifications; an event that failed on
    /// a transient fault is kept and retried first, any other failed one
    /// dropped, as in [`SynchronizationManager::sync_round`].
    pub fn sync_round(&self) -> Result<SyncReport> {
        use idm_email::imap::MailEvent;
        let mut report = SyncReport::default();
        apply_in_order(&self.retry, &self.events, |event| match event {
            MailEvent::Delivered(mailbox, uid) => self
                .on_delivered(*mailbox, *uid)
                .map(|n| report.created += n),
            MailEvent::Deleted(_mailbox, uid) => self.on_deleted(*uid).map(|n| report.removed += n),
        })?;
        Ok(report)
    }

    fn on_delivered(&self, mailbox: idm_email::MailboxId, uid: idm_email::Uid) -> Result<usize> {
        if self.plugin.message_view(uid).is_some() {
            return Ok(0); // already known (e.g. ingested)
        }
        let message = self.plugin.server().fetch(uid)?;
        let vid = idm_email::convert::message_to_views(&self.store, &message)?;
        self.plugin.record_message(uid, vid);

        // Wire into the mailbox folder view, if the folder is known.
        if let Some(folder) = self.plugin.folder_view(mailbox) {
            self.store.add_group_member(folder, vid, false)?;
            self.indexes
                .group
                .index(folder, &self.store.group(folder)?.finite_members());
        }

        // The message and its attachments, converted as an ingest does.
        let bases = with_owned(&self.store, &[vid]);
        Ok(admit(&self.store, &self.indexes, &bases, self.plugin.name())?.len())
    }

    /// Removes the message, and what it owns: its attachments and their
    /// converted views.
    fn on_deleted(&self, uid: idm_email::Uid) -> Result<usize> {
        let Some(vid) = self.plugin.forget_message(uid) else {
            return Ok(0);
        };
        Ok(retire(&self.store, &self.indexes, &[vid])?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rvm::ResourceViewManager;
    use idm_query::QueryProcessor;

    fn t() -> Timestamp {
        Timestamp::from_ymd(2005, 6, 1).unwrap()
    }

    struct World {
        fs: Arc<VirtualFs>,
        store: Arc<ViewStore>,
        indexes: Arc<IndexBundle>,
        sync: SynchronizationManager,
    }

    fn world() -> World {
        let fs = Arc::new(VirtualFs::new(t()));
        let dir = fs.mkdir_p("/papers", t()).unwrap();
        fs.create_file(dir, "a.tex", "\\section{Alpha}\nalpha text", t())
            .unwrap();

        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        let rvm = ResourceViewManager::new(Arc::clone(&store), Arc::clone(&indexes));
        let plugin = Arc::new(FsPlugin::new(Arc::clone(&fs), NodeId::ROOT));
        rvm.register_source(Arc::clone(&plugin) as Arc<dyn crate::source::DataSourcePlugin>);
        rvm.ingest_all().unwrap();

        let sync = SynchronizationManager::attach(plugin, Arc::clone(&store), Arc::clone(&indexes))
            .unwrap();
        World {
            fs,
            store,
            indexes,
            sync,
        }
    }

    /// A fresh ingest of one source into a new store.
    fn ingest(
        plugin: Arc<dyn crate::source::DataSourcePlugin>,
    ) -> (Arc<ViewStore>, Arc<IndexBundle>) {
        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        let rvm = ResourceViewManager::new(Arc::clone(&store), Arc::clone(&indexes));
        rvm.register_source(plugin);
        rvm.ingest_all().unwrap();
        (store, indexes)
    }

    #[test]
    fn remove_tree_forgets_exactly_the_paths_under_it() {
        let mut paths = BaseViews::default();
        for (i, path) in ["/a", "/a/b", "/a/b/c", "/a/b2", "/a/bc", "/a/b/c/d"]
            .into_iter()
            .enumerate()
        {
            paths
                .by_path
                .insert(path.to_owned(), Vid::from_raw(i as u64));
        }
        let vids = |raw: &[u64]| -> Vec<Vid> { raw.iter().map(|&r| Vid::from_raw(r)).collect() };
        assert_eq!(paths.remove_tree("/a/b"), vids(&[1, 2, 5]));
        let left: Vec<&str> = paths.by_path.keys().map(String::as_str).collect();
        assert_eq!(left, ["/a", "/a/b2", "/a/bc"]);
        assert_eq!(paths.remove_tree("/a/b"), vids(&[]));
        assert_eq!(paths.remove_tree("/a/bc"), vids(&[4]));
        assert_eq!(paths.remove_tree("/a"), vids(&[0, 3]));
        assert!(paths.by_path.is_empty());
    }

    fn query(w: &World, iql: &str) -> usize {
        QueryProcessor::new(Arc::clone(&w.store), Arc::clone(&w.indexes))
            .execute(iql)
            .unwrap()
            .rows
            .len()
    }

    #[test]
    fn new_file_becomes_queryable_after_sync() {
        let w = world();
        assert_eq!(query(&w, r#""bravo""#), 0);
        let dir = w.fs.resolve("/papers").unwrap();
        w.fs.create_file(dir, "b.tex", "\\section{Bravo}\nbravo text", t())
            .unwrap();
        let report = w.sync.sync_round().unwrap();
        assert!(report.created >= 3, "file + derived views: {report:?}");
        // The raw file bytes, the section's region content and the text
        // view all contain the word.
        assert_eq!(query(&w, r#""bravo""#), 3, "file + section + text");
        assert_eq!(query(&w, r#"//papers//Bravo[class="latex_section"]"#), 1);
    }

    #[test]
    fn modified_file_reindexes_and_drops_stale_views() {
        let w = world();
        assert_eq!(query(&w, r#"//papers//Alpha"#), 1);
        let file = w.fs.resolve("/papers/a.tex").unwrap();
        w.fs.write_file(file, "\\section{Omega}\nomega text", t().plus_days(1))
            .unwrap();
        let report = w.sync.sync_round().unwrap();
        assert_eq!(report.modified, 1);
        assert_eq!(query(&w, r#"//papers//Alpha"#), 0, "stale section gone");
        assert_eq!(query(&w, r#"//papers//Omega"#), 1);
        assert_eq!(query(&w, r#""alpha""#), 0);
    }

    #[test]
    fn removed_file_disappears_everywhere() {
        let w = world();
        let file = w.fs.resolve("/papers/a.tex").unwrap();
        w.fs.remove(file).unwrap();
        let report = w.sync.sync_round().unwrap();
        assert!(report.removed >= 2, "{report:?}");
        assert_eq!(query(&w, r#"//papers//Alpha"#), 0);
        assert_eq!(query(&w, r#"//a.tex"#), 0);
        // The folder's group no longer references it.
        let papers = w.indexes.name.exact("papers")[0];
        assert!(w.indexes.group.children(papers).is_empty());
    }

    #[test]
    fn polling_catches_bypassed_updates() {
        let w = world();
        // Simulate a change that raced past the subscription by draining
        // events without processing.
        let dir = w.fs.resolve("/papers").unwrap();
        w.fs.create_file(dir, "quiet.tex", "\\section{Quiet}\nquiet text", t())
            .unwrap();
        while w.sync.events.try_recv().is_ok() {}
        assert_eq!(query(&w, r#""quiet""#), 0);

        let report = w.sync.poll_filesystem().unwrap();
        assert!(report.created >= 1);
        assert_eq!(query(&w, r#"//papers//Quiet"#), 1);
    }

    #[test]
    fn imap_sync_delivers_and_deletes() {
        use crate::source::{DataSourcePlugin, ImapPlugin};
        use idm_email::message::{Attachment, EmailMessage};
        use idm_email::ImapServer;

        let server = Arc::new(ImapServer::in_process());
        let olap = server.create_mailbox(server.inbox(), "OLAP").unwrap();
        server
            .append(
                olap,
                &EmailMessage {
                    subject: "seed".into(),
                    date: t(),
                    ..EmailMessage::default()
                },
            )
            .unwrap();

        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        let rvm = ResourceViewManager::new(Arc::clone(&store), Arc::clone(&indexes));
        let plugin = Arc::new(ImapPlugin::new(Arc::clone(&server)));
        rvm.register_source(Arc::clone(&plugin) as Arc<dyn DataSourcePlugin>);
        rvm.ingest_all().unwrap();

        let sync = ImapSynchronizationManager::attach(
            Arc::clone(&plugin),
            Arc::clone(&store),
            Arc::clone(&indexes),
        );
        let q = |iql: &str| {
            QueryProcessor::new(Arc::clone(&store), Arc::clone(&indexes))
                .execute(iql)
                .unwrap()
                .rows
                .len()
        };

        // A new message with a structured attachment arrives.
        let uid = server
            .append(
                olap,
                &EmailMessage {
                    subject: "fresh figures".into(),
                    date: t(),
                    body: "see the attached evaluation".into(),
                    attachments: vec![Attachment {
                        filename: "eval.tex".into(),
                        content:
                            "\\begin{figure}\\caption{Indexing Time v2}\\label{f}\\end{figure}"
                                .into(),
                    }],
                    ..EmailMessage::default()
                },
            )
            .unwrap();
        let report = sync.sync_round().unwrap();
        assert!(report.created >= 3, "{report:?}");
        assert_eq!(q(r#"//OLAP//*[class="figure" and "Indexing Time"]"#), 1);
        assert_eq!(q(r#"//fresh*"#), 1);

        // Deleting it removes everything again.
        server.delete(olap, uid).unwrap();
        let report = sync.sync_round().unwrap();
        assert!(report.removed >= 2, "{report:?}");
        assert_eq!(q(r#"//OLAP//*[class="figure" and "Indexing Time"]"#), 0);
        assert_eq!(q(r#"//fresh*"#), 0);
        // The folder group no longer references the dead view.
        let folder = plugin.folder_view(olap).unwrap();
        assert_eq!(store.group(folder).unwrap().finite_members().len(), 1);
    }

    /// A delivered message owns its attachments and their converted
    /// views, and nothing else; deleting it takes exactly those with it.
    #[test]
    fn imap_delete_removes_exactly_what_the_message_owns() {
        use crate::source::{DataSourcePlugin, ImapPlugin};
        use idm_core::durability::record::view_bytes;
        use idm_email::message::{Attachment, EmailMessage};
        use idm_email::ImapServer;

        let server = Arc::new(ImapServer::in_process());
        let olap = server.create_mailbox(server.inbox(), "OLAP").unwrap();
        server.append(olap, &fresh_message()).unwrap();
        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        let rvm = ResourceViewManager::new(Arc::clone(&store), Arc::clone(&indexes));
        let plugin = Arc::new(ImapPlugin::new(Arc::clone(&server)));
        rvm.register_source(Arc::clone(&plugin) as Arc<dyn DataSourcePlugin>);
        rvm.ingest_all().unwrap();
        let sync = ImapSynchronizationManager::attach(
            Arc::clone(&plugin),
            Arc::clone(&store),
            Arc::clone(&indexes),
        );
        // Every view with its serialized record, and the catalog.
        let state = || {
            let views: Vec<(Vid, Vec<u8>)> = store
                .vids()
                .into_iter()
                .map(|vid| {
                    (
                        vid,
                        view_bytes(vid, &store.record(vid).unwrap(), store.classes()),
                    )
                })
                .collect();
            (views, indexes.catalog.export_rows())
        };
        let before = state();

        let attachment = |filename: &str, content: &str| Attachment {
            filename: filename.into(),
            content: content.to_owned().into(),
        };
        let uid = server
            .append(
                olap,
                &EmailMessage {
                    subject: "eval".into(),
                    date: t(),
                    attachments: vec![
                        attachment("eval.tex", "\\section{Results}\nIndexing Time"),
                        attachment("eval.xml", "<runs><run>42</run></runs>"),
                    ],
                    ..EmailMessage::default()
                },
            )
            .unwrap();
        sync.sync_round().unwrap();
        let message = plugin.message_view(uid).unwrap();
        let attachments = store.group(message).unwrap().finite_members();
        assert_eq!(attachments.len(), 2);
        for &a in &attachments {
            assert!(store.owned(a).is_empty(), "an attachment owns nothing");
            assert!(
                store.group(a).unwrap().finite_members().len() == 1,
                "converted"
            );
        }
        // What the delivery minted besides the message, and nothing else.
        let mut minted: Vec<Vid> = store
            .vids()
            .into_iter()
            .filter(|&v| v != message && before.0.iter().all(|(old, _)| *old != v))
            .collect();
        minted.sort_unstable();
        let mut owned = store.owned(message);
        owned.sort_unstable();
        assert_eq!(owned, minted);
        assert!(owned.len() > attachments.len() + 4, "{owned:?}");

        server.delete(olap, uid).unwrap();
        let report = sync.sync_round().unwrap();
        assert_eq!(report.removed, owned.len() + 1);
        assert!(store.owned(message).is_empty());
        assert_eq!(state(), before);
    }

    #[test]
    fn a_new_folder_link_is_a_link_view_not_a_copy_of_its_target() {
        let w = world();
        let papers = w.fs.resolve("/papers").unwrap();
        w.fs.create_link(papers, "up", NodeId::ROOT, t()).unwrap();
        let report = w.sync.sync_round().unwrap();
        assert_eq!(report.created, 1);
        let link = w.indexes.name.exact("up")[0];
        assert_eq!(
            w.store.class_name(link).unwrap().as_deref(),
            Some("folderlink")
        );
        let root = w.sync.paths.lock().by_path["/"];
        assert_eq!(w.store.group(link).unwrap().finite_members(), vec![root]);
        // The cycle /papers/up → / → /papers is walked, never copied.
        assert_eq!(query(&w, r#"//papers//Alpha"#), 1);
    }

    #[test]
    fn imap_delete_rewrites_only_the_folder_that_held_the_message() {
        use crate::source::{DataSourcePlugin, ImapPlugin};
        use idm_email::message::EmailMessage;
        use idm_email::ImapServer;

        let server = Arc::new(ImapServer::in_process());
        let mail = |subject: &str| EmailMessage {
            subject: subject.into(),
            body: subject.into(),
            date: t(),
            ..EmailMessage::default()
        };
        let olap = server.create_mailbox(server.inbox(), "OLAP").unwrap();
        let oltp = server.create_mailbox(server.inbox(), "OLTP").unwrap();
        server.append(olap, &mail("cube rollup")).unwrap();
        server.append(oltp, &mail("lock escalation")).unwrap();
        let doomed = server.append(oltp, &mail("deadlock postmortem")).unwrap();

        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        let rvm = ResourceViewManager::new(Arc::clone(&store), Arc::clone(&indexes));
        let plugin = Arc::new(ImapPlugin::new(Arc::clone(&server)));
        rvm.register_source(Arc::clone(&plugin) as Arc<dyn DataSourcePlugin>);
        rvm.ingest_all().unwrap();
        let sync = ImapSynchronizationManager::attach(
            Arc::clone(&plugin),
            Arc::clone(&store),
            Arc::clone(&indexes),
        );
        let q = |iql: &str| {
            QueryProcessor::new(Arc::clone(&store), Arc::clone(&indexes))
                .execute(iql)
                .unwrap()
                .rows
                .len()
        };
        assert_eq!(q(r#""postmortem""#), 1);

        let (first, second) = (
            plugin.folder_view(olap).unwrap(),
            plugin.folder_view(oltp).unwrap(),
        );
        let doomed_view = plugin.message_view(doomed).unwrap();
        let first_version = store.version(first).unwrap();
        let mut expected = store.group(second).unwrap().finite_members();
        expected.retain(|m| *m != doomed_view);

        server.delete(oltp, doomed).unwrap();
        let report = sync.sync_round().unwrap();
        assert!(report.removed >= 1, "{report:?}");
        assert_eq!(store.version(first).unwrap(), first_version);
        assert_eq!(store.group(second).unwrap().finite_members(), expected);
        assert_eq!(indexes.group.children(second), expected);
        assert_eq!(q(r#""postmortem""#), 0);
    }

    #[test]
    fn imap_sync_ignores_already_ingested_messages() {
        use crate::source::{DataSourcePlugin, ImapPlugin};
        use idm_email::message::EmailMessage;
        use idm_email::ImapServer;

        let server = Arc::new(ImapServer::in_process());
        // Subscribe BEFORE ingest so the seed delivery is also queued.
        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        let plugin = Arc::new(ImapPlugin::new(Arc::clone(&server)));
        let sync = ImapSynchronizationManager::attach(
            Arc::clone(&plugin),
            Arc::clone(&store),
            Arc::clone(&indexes),
        );
        server
            .append(
                server.inbox(),
                &EmailMessage {
                    subject: "seed".into(),
                    date: t(),
                    ..EmailMessage::default()
                },
            )
            .unwrap();
        let rvm = ResourceViewManager::new(Arc::clone(&store), Arc::clone(&indexes));
        rvm.register_source(Arc::clone(&plugin) as Arc<dyn DataSourcePlugin>);
        rvm.ingest_all().unwrap();

        // The queued delivery event refers to an already-mapped message.
        let report = sync.sync_round().unwrap();
        assert_eq!(report.created, 0, "no duplicates: {report:?}");
    }

    #[test]
    fn duplicate_create_events_are_idempotent() {
        let w = world();
        let dir = w.fs.resolve("/papers").unwrap();
        w.fs.create_file(dir, "c.txt", "plain", t()).unwrap();
        w.sync.sync_round().unwrap();
        let count_before = w.indexes.catalog.len();
        // A second poll finds nothing new.
        let report = w.sync.poll_filesystem().unwrap();
        assert_eq!(report.created, 0);
        assert_eq!(w.indexes.catalog.len(), count_before);
    }

    /// Rewrites `a.tex` so that "omega" replaces "alpha".
    fn rewrite_a(w: &World) {
        let file = w.fs.resolve("/papers/a.tex").unwrap();
        w.fs.write_file(file, "\\section{Omega}\nomega text", t().plus_days(1))
            .unwrap();
    }

    #[test]
    fn a_failed_modify_event_is_retried_by_the_next_round() {
        use idm_core::fault::FaultPlan;
        let w = world();
        rewrite_a(&w);
        w.fs.install_faults(FaultPlan::fail_n(1));
        let err = w.sync.sync_round().unwrap_err();
        assert!(matches!(err, IdmError::Substrate { .. }), "{err}");
        assert_eq!(query(&w, r#""alpha""#), 3, "nothing was half-applied");

        w.fs.clear_faults();
        let report = w.sync.sync_round().unwrap();
        assert_eq!(report.modified, 1, "the event was kept: {report:?}");
        assert_eq!(query(&w, r#""omega""#), 3);
        assert_eq!(query(&w, r#""alpha""#), 0);
        assert_eq!(w.sync.sync_round().unwrap(), SyncReport::default());
    }

    #[test]
    fn a_failed_create_event_is_retried_in_order() {
        use idm_core::fault::FaultPlan;
        let w = world();
        let dir = w.fs.resolve("/papers").unwrap();
        w.fs.create_file(dir, "b.tex", "\\section{Bravo}\nbravo text", t())
            .unwrap();
        // Behind the event that will fail: a change to another file.
        rewrite_a(&w);
        w.fs.install_faults(FaultPlan::fail_n(1));
        assert!(w.sync.sync_round().is_err());
        assert_eq!(query(&w, r#""bravo""#), 0);
        assert_eq!(query(&w, r#""omega""#), 0, "later events wait their turn");

        w.fs.clear_faults();
        let report = w.sync.sync_round().unwrap();
        assert!(report.created >= 3, "{report:?}");
        assert_eq!(report.modified, 1);
        assert_eq!(query(&w, r#""bravo""#), 3);
        assert_eq!(query(&w, r#""omega""#), 3);
    }

    /// An empty, ingested IMAP source with its sync manager attached,
    /// and a counter of the views named `fresh*`.
    fn mail_world() -> (
        Arc<idm_email::ImapServer>,
        ImapSynchronizationManager,
        impl Fn() -> usize,
    ) {
        use crate::source::{DataSourcePlugin, ImapPlugin};
        let server = Arc::new(idm_email::ImapServer::in_process());
        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        let rvm = ResourceViewManager::new(Arc::clone(&store), Arc::clone(&indexes));
        let plugin = Arc::new(ImapPlugin::new(Arc::clone(&server)));
        rvm.register_source(Arc::clone(&plugin) as Arc<dyn DataSourcePlugin>);
        rvm.ingest_all().unwrap();
        let sync =
            ImapSynchronizationManager::attach(plugin, Arc::clone(&store), Arc::clone(&indexes));
        let fresh = move || {
            QueryProcessor::new(Arc::clone(&store), Arc::clone(&indexes))
                .execute(r#"//fresh*"#)
                .unwrap()
                .rows
                .len()
        };
        (server, sync, fresh)
    }

    fn fresh_message() -> idm_email::message::EmailMessage {
        idm_email::message::EmailMessage {
            subject: "fresh figures".into(),
            date: t(),
            ..Default::default()
        }
    }

    #[test]
    fn a_failed_delivery_is_retried_by_the_next_round() {
        use idm_core::fault::FaultPlan;
        let (server, sync, fresh) = mail_world();
        server.append(server.inbox(), &fresh_message()).unwrap();
        server.install_faults(FaultPlan::fail_n(1));
        assert!(sync.sync_round().is_err());
        assert_eq!(fresh(), 0);

        server.clear_faults();
        let report = sync.sync_round().unwrap();
        assert!(report.created >= 1, "the delivery was kept: {report:?}");
        assert_eq!(fresh(), 1);
    }

    /// An event that can never succeed — its file or message was removed
    /// again before the round — must not be parked: it would fail every
    /// later round and hold back everything behind it.
    #[test]
    fn an_event_for_a_file_that_is_gone_again_does_not_block_the_source() {
        let w = world();
        let dir = w.fs.resolve("/papers").unwrap();
        // An editor's temp file: created and removed between two rounds.
        let tmp = w.fs.create_file(dir, "tmp.tex", "scratch", t()).unwrap();
        w.fs.remove(tmp).unwrap();
        rewrite_a(&w);
        let err = w.sync.sync_round().unwrap_err();
        assert!(matches!(err, IdmError::Provider { .. }), "{err}");
        let report = w.sync.sync_round().unwrap();
        assert_eq!((report.created, report.modified), (0, 1), "{report:?}");
        assert_eq!(query(&w, r#""omega""#), 3);
        assert_eq!(query(&w, r#"//tmp.tex"#), 0);
        assert_eq!(w.sync.sync_round().unwrap(), SyncReport::default());
    }

    #[test]
    fn a_write_to_a_file_that_is_then_removed_does_not_block_the_source() {
        let w = world();
        rewrite_a(&w);
        let file = w.fs.resolve("/papers/a.tex").unwrap();
        w.fs.remove(file).unwrap();
        assert!(w.sync.sync_round().is_err(), "the Modified event fails");
        let report = w.sync.sync_round().unwrap();
        assert!(report.removed >= 2, "the Removed event applied: {report:?}");
        assert_eq!(query(&w, r#"//a.tex"#), 0);
        assert_eq!(query(&w, r#""alpha""#), 0);
        assert_eq!(w.sync.sync_round().unwrap(), SyncReport::default());
    }

    #[test]
    fn a_delivery_that_is_deleted_again_does_not_block_the_source() {
        let (server, sync, fresh) = mail_world();
        let uid = server.append(server.inbox(), &fresh_message()).unwrap();
        server.delete(server.inbox(), uid).unwrap();
        server.append(server.inbox(), &fresh_message()).unwrap();
        assert!(sync.sync_round().is_err(), "the first delivery is gone");
        let report = sync.sync_round().unwrap();
        assert!(report.created >= 1, "the second one applied: {report:?}");
        assert_eq!(fresh(), 1);
        assert_eq!(sync.sync_round().unwrap(), SyncReport::default());
    }

    /// Removing a folder takes every reference to it too: a link
    /// elsewhere that pointed at it is left with an empty group, as a
    /// fresh ingest builds it.
    #[test]
    fn a_link_that_outlives_its_target_loses_it() {
        let w = world();
        let other = w.fs.mkdir_p("/other", t()).unwrap();
        let papers = w.fs.resolve("/papers").unwrap();
        w.fs.create_link(other, "to-papers", papers, t()).unwrap();
        w.sync.sync_round().unwrap();
        let link = w.indexes.name.exact("to-papers")[0];
        assert_eq!(w.indexes.group.children(link).len(), 1);

        w.fs.remove(papers).unwrap();
        let report = w.sync.sync_round().unwrap();
        assert!(report.removed >= 3, "{report:?}");
        assert!(w.store.group(link).unwrap().finite_members().is_empty());
        assert!(w.indexes.group.children(link).is_empty());
        let (fresh, _) = ingest(Arc::new(FsPlugin::new(Arc::clone(&w.fs), NodeId::ROOT)));
        assert_eq!(
            w.store.verify_invariants().dangling_edges,
            fresh.verify_invariants().dangling_edges
        );
        assert_eq!(w.store.len(), fresh.len());
    }

    /// A delivered message is converted as an ingest converts it: the
    /// message itself (its subject names a LaTeX file) and each
    /// attachment.
    #[test]
    fn a_delivery_converts_like_an_ingest() {
        use crate::source::ImapPlugin;
        use idm_email::message::{Attachment, EmailMessage};

        let (server, sync, _fresh) = mail_world();
        server
            .append(
                server.inbox(),
                &EmailMessage {
                    subject: "notes.tex".into(),
                    date: t(),
                    body: "\\section{Notes}\nindexing time".into(),
                    attachments: vec![Attachment {
                        filename: "eval.xml".into(),
                        content: "<runs><run>42</run></runs>".into(),
                    }],
                    ..EmailMessage::default()
                },
            )
            .unwrap();
        sync.sync_round().unwrap();
        let (fresh, fresh_indexes) = ingest(Arc::new(ImapPlugin::new(server)));

        let views = |store: &ViewStore| {
            let mut views: Vec<_> = store
                .vids()
                .into_iter()
                .map(|vid| (store.class_name(vid).unwrap(), store.name(vid).unwrap()))
                .collect();
            views.sort_unstable();
            views
        };
        assert_eq!(sync.store.len(), fresh.len());
        assert_eq!(sync.indexes.catalog.len(), fresh_indexes.catalog.len());
        assert_eq!(views(&sync.store), views(&fresh));
    }
}
