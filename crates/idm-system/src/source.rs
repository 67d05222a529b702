//! The Data Source Proxy: plugins that represent each subsystem as an
//! initial iDM graph (Section 5.2, part 1). The paper's prototype
//! shipped plugins for file systems, IMAP email servers and RSS feeds —
//! exactly the three provided here.

use std::sync::Arc;
use std::time::Duration;

use idm_core::prelude::*;
use idm_email::convert::{MailboxMapping, MailboxReader, MailboxStats};
use idm_email::{ImapServer, MailboxId, Uid};
use idm_streams::sources::RssStreamSource;
use idm_vfs::convert::{materialize, FsMapping};
use idm_vfs::{NodeId, VirtualFs};
use idm_xml::rss::FeedServer;
use parking_lot::Mutex;

/// The result of representing a data source as an initial iDM graph.
#[derive(Debug, Clone, Default)]
pub struct Ingestion {
    /// All views created for *base items* (files, folders, emails,
    /// attachments, stream heads) — Table 2's "Base Items" column. Every
    /// view the plugin minted is listed here: the ingest indexes these
    /// and the views each one owns ([`ViewStore::owned`]), which is how
    /// it reaches the views a converter derives, and follows no group
    /// edge.
    pub base_views: Vec<Vid>,
    /// For a source read on a thread of its own: that thread's time on
    /// the source. Figure 5's source access counts it in place of
    /// `read_wait`.
    pub read_busy: Duration,
    /// The time `ingest` waited for that thread.
    pub read_wait: Duration,
}

/// A data source plugin.
pub trait DataSourcePlugin: Send + Sync {
    /// The source name used in catalog rows and reports
    /// (`"filesystem"`, `"imap"`, `"rss"`).
    fn name(&self) -> &str;

    /// Builds the initial iDM graph for this source's current state and
    /// lists every view it minted in [`Ingestion::base_views`]; a view it
    /// leaves out, and owned by none of them, is never indexed. A view
    /// derived from one of them is reached through
    /// [`ViewStore::owned`], so it need not be listed. A failed ingest
    /// leaves no view of its own in the store.
    fn ingest(&self, store: &ViewStore) -> Result<Ingestion>;

    /// Starts reading the source on a thread of its own, so that its I/O
    /// overlaps the ingest of other sources; the next
    /// [`ingest`](Self::ingest) converts what it read. Dropping the
    /// handle stops and joins that thread if no ingest took it. The
    /// default reads nothing ahead.
    fn read_ahead(&self) -> Option<ReadAhead> {
        None
    }
}

/// A source read started ahead of its ingest
/// ([`DataSourcePlugin::read_ahead`]). Dropping it stops the reading
/// and waits for it, whether an ingest used it or not.
#[must_use = "dropping a ReadAhead stops the reading"]
pub struct ReadAhead(Option<Box<dyn FnOnce() + Send>>);

impl ReadAhead {
    /// A handle that runs `stop` when dropped.
    pub fn new(stop: impl FnOnce() + Send + 'static) -> Self {
        ReadAhead(Some(Box::new(stop)))
    }
}

impl Drop for ReadAhead {
    fn drop(&mut self) {
        if let Some(stop) = self.0.take() {
            stop();
        }
    }
}

/// Filesystem plugin over a [`VirtualFs`].
pub struct FsPlugin {
    fs: Arc<VirtualFs>,
    root: NodeId,
    /// Node→view mapping of the latest ingestion, used by the
    /// synchronization manager to resolve change notifications.
    mapping: Mutex<Option<FsMapping>>,
}

impl FsPlugin {
    /// A plugin for the subtree rooted at `root`.
    pub fn new(fs: Arc<VirtualFs>, root: NodeId) -> Self {
        FsPlugin {
            fs,
            root,
            mapping: Mutex::new(None),
        }
    }

    /// The backing filesystem.
    pub fn fs(&self) -> &Arc<VirtualFs> {
        &self.fs
    }

    /// The view of a filesystem node, from the latest ingestion.
    pub fn view_of(&self, node: NodeId) -> Option<Vid> {
        self.mapping.lock().as_ref().and_then(|m| m.view_of(node))
    }

    /// Records a mapping added after ingestion (sync manager use).
    pub fn record_mapping(&self, node: NodeId, vid: Vid) {
        if let Some(mapping) = self.mapping.lock().as_mut() {
            mapping.by_node.insert(node, vid);
        }
    }
}

impl DataSourcePlugin for FsPlugin {
    fn name(&self) -> &str {
        "filesystem"
    }

    fn ingest(&self, store: &ViewStore) -> Result<Ingestion> {
        let mapping = materialize(&self.fs, store, self.root)?;
        // Vid order, so conversion mints derived vids the same way on
        // every run.
        let mut base_views: Vec<Vid> = mapping.by_node.values().copied().collect();
        base_views.sort_unstable();
        *self.mapping.lock() = Some(mapping);
        Ok(Ingestion {
            base_views,
            ..Ingestion::default()
        })
    }
}

/// IMAP plugin over a simulated [`ImapServer`].
pub struct ImapPlugin {
    server: Arc<ImapServer>,
    mapping: Mutex<MailboxMapping>,
    /// The reader [`DataSourcePlugin::read_ahead`] started, until an
    /// ingest takes it or its handle drops it.
    ahead: Arc<Mutex<Option<MailboxReader>>>,
}

impl ImapPlugin {
    /// A plugin ingesting the whole mailbox tree (Option 1: the state).
    pub fn new(server: Arc<ImapServer>) -> Self {
        ImapPlugin {
            server,
            mapping: Mutex::new(MailboxMapping::default()),
            ahead: Arc::new(Mutex::new(None)),
        }
    }

    /// The backing server.
    pub fn server(&self) -> &Arc<ImapServer> {
        &self.server
    }

    /// Folder/message/attachment counts of the latest ingestion.
    pub fn last_stats(&self) -> MailboxStats {
        self.mapping.lock().stats
    }

    /// The mailfolder view of a mailbox, from the latest ingestion.
    pub fn folder_view(&self, mailbox: MailboxId) -> Option<Vid> {
        self.mapping.lock().folders.get(&mailbox).copied()
    }

    /// The emailmessage view of a message uid.
    pub fn message_view(&self, uid: Uid) -> Option<Vid> {
        self.mapping.lock().messages.get(&uid).copied()
    }

    /// Records a message view created after ingestion (sync manager).
    pub fn record_message(&self, uid: Uid, vid: Vid) {
        self.mapping.lock().messages.insert(uid, vid);
    }

    /// Forgets a message after deletion (sync manager).
    pub fn forget_message(&self, uid: Uid) -> Option<Vid> {
        self.mapping.lock().messages.remove(&uid)
    }

    fn reader(&self) -> Result<MailboxReader> {
        MailboxReader::start(Arc::clone(&self.server), self.server.inbox())
    }
}

impl DataSourcePlugin for ImapPlugin {
    fn name(&self) -> &str {
        "imap"
    }

    /// Converts the mailbox tree that [`read_ahead`](Self::read_ahead)
    /// started reading, or starts a reader of its own (a first ingest
    /// without read-ahead, or a retry).
    fn ingest(&self, store: &ViewStore) -> Result<Ingestion> {
        let ahead = self.ahead.lock().take();
        let reader = match ahead {
            Some(reader) => reader,
            None => self.reader()?,
        };
        let mapping = reader.materialize(store)?;
        let ingestion = Ingestion {
            base_views: mapping.views.clone(),
            read_busy: mapping.stats.reading,
            read_wait: mapping.stats.waiting,
        };
        *self.mapping.lock() = mapping;
        Ok(ingestion)
    }

    fn read_ahead(&self) -> Option<ReadAhead> {
        let reader = self.reader().ok()?;
        // A reader no ingest took is dropped (joined) outside the lock.
        let unused = self.ahead.lock().replace(reader);
        drop(unused);
        let ahead = Arc::clone(&self.ahead);
        Some(ReadAhead::new(move || {
            let unused = ahead.lock().take();
            drop(unused);
        }))
    }
}

/// RSS plugin: registers one `rssatom` stream view per feed URL.
pub struct RssPlugin {
    server: Arc<FeedServer>,
    urls: Vec<String>,
}

impl RssPlugin {
    /// A plugin over the given feed URLs.
    pub fn new(server: Arc<FeedServer>, urls: Vec<String>) -> Self {
        RssPlugin { server, urls }
    }
}

impl DataSourcePlugin for RssPlugin {
    fn name(&self) -> &str {
        "rss"
    }

    fn ingest(&self, store: &ViewStore) -> Result<Ingestion> {
        let mut base_views = Vec::with_capacity(self.urls.len());
        for url in &self.urls {
            let source = RssStreamSource::new(Arc::clone(&self.server), url.clone());
            base_views.push(source.into_stream_view(store)?);
        }
        Ok(Ingestion {
            base_views,
            ..Ingestion::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Timestamp {
        Timestamp::from_ymd(2005, 6, 1).unwrap()
    }

    #[test]
    fn fs_plugin_ingests_and_maps() {
        let fs = Arc::new(VirtualFs::new(t()));
        let dir = fs.mkdir_p("/docs", t()).unwrap();
        let file = fs.create_file(dir, "a.txt", "hello", t()).unwrap();

        let store = ViewStore::new();
        let plugin = FsPlugin::new(Arc::clone(&fs), NodeId::ROOT);
        let ingestion = plugin.ingest(&store).unwrap();
        assert_eq!(ingestion.base_views.len(), 3); // root, docs, a.txt
        assert!(plugin.view_of(file).is_some());
        assert_eq!(plugin.name(), "filesystem");
    }

    #[test]
    fn imap_plugin_counts_base_views() {
        use idm_email::message::EmailMessage;
        let server = Arc::new(ImapServer::in_process());
        server
            .append(
                server.inbox(),
                &EmailMessage {
                    subject: "s".into(),
                    date: t(),
                    ..EmailMessage::default()
                },
            )
            .unwrap();
        let store = ViewStore::new();
        let plugin = ImapPlugin::new(server);
        let ingestion = plugin.ingest(&store).unwrap();
        assert_eq!(ingestion.base_views.len(), 2); // INBOX + message
        assert_eq!(plugin.last_stats().messages, 1);
    }

    /// The IMAP base views are exactly the vids its ingest added to the
    /// store, in vid order, also when another source ingested first.
    #[test]
    fn imap_base_views_are_the_views_its_ingest_added() {
        use idm_email::message::{Attachment, EmailMessage};
        let fs = Arc::new(VirtualFs::new(t()));
        let dir = fs.mkdir_p("/docs", t()).unwrap();
        fs.create_file(dir, "a.txt", "hello", t()).unwrap();
        let server = Arc::new(ImapServer::in_process());
        let projects = server.create_mailbox(server.inbox(), "Projects").unwrap();
        for i in 0..70 {
            let mailbox = if i % 3 == 0 { projects } else { server.inbox() };
            let attachments = (i % 5 == 0)
                .then(|| Attachment {
                    filename: format!("a{i}.txt"),
                    content: b"attached".to_vec().into(),
                })
                .into_iter()
                .collect();
            let message = EmailMessage {
                subject: format!("s{i}"),
                date: t(),
                attachments,
                ..EmailMessage::default()
            };
            server.append(mailbox, &message).unwrap();
        }

        let store = ViewStore::new();
        FsPlugin::new(fs, NodeId::ROOT).ingest(&store).unwrap();
        let before: std::collections::HashSet<Vid> = store.vids().into_iter().collect();
        let ingestion = ImapPlugin::new(server).ingest(&store).unwrap();
        let added: Vec<Vid> = store
            .vids()
            .into_iter()
            .filter(|v| !before.contains(v))
            .collect();
        assert_eq!(ingestion.base_views, added);
        assert_eq!(added.len(), 2 + 70 + 14);
    }

    #[test]
    fn rss_plugin_creates_stream_views() {
        let server = Arc::new(FeedServer::new());
        server.publish("u1", idm_xml::rss::Feed::new("one"));
        server.publish("u2", idm_xml::rss::Feed::new("two"));
        let store = ViewStore::new();
        let plugin = RssPlugin::new(server, vec!["u1".into(), "u2".into()]);
        let ingestion = plugin.ingest(&store).unwrap();
        assert_eq!(ingestion.base_views.len(), 2);
        for view in ingestion.base_views {
            assert!(store.conforms_to(view, "rssatom").unwrap());
        }
    }
}
