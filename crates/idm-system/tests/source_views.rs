//! The views an ingest indexes for a source: the base views its plugin
//! lists and every view each of them owns. Pinned, for every plugin,
//! against the per-base-view walk (`graph::descendants` from each base
//! view): on a filesystem whose folder links form a cycle and share a
//! target, on a mailbox whose messages carry LaTeX and XML attachments,
//! and on RSS feeds.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use idm_core::graph::descendants;
use idm_core::prelude::*;
use idm_email::message::{Attachment, EmailMessage};
use idm_email::ImapServer;
use idm_system::{
    BulkIngestOptions, DataSourcePlugin, FsPlugin, ImapPlugin, Ingestion, Pdsms, ReadAhead,
    RssPlugin,
};
use idm_vfs::{NodeId, VirtualFs};
use idm_xml::rss::{Feed, FeedItem, FeedServer};

fn t() -> Timestamp {
    Timestamp::from_ymd(2005, 6, 1).unwrap()
}

/// `/papers` holds a `.tex` and an `.xml` file and a subfolder whose
/// link points back at `/papers`; `/links` holds two links to that
/// subfolder.
fn linked_fs() -> Arc<VirtualFs> {
    let fs = Arc::new(VirtualFs::new(t()));
    let papers = fs.mkdir_p("/papers", t()).unwrap();
    fs.create_file(
        papers,
        "vision.tex",
        "\\section{A Vision}\ndataspace text\n\\subsection{Outlook}\nmore text",
        t(),
    )
    .unwrap();
    fs.create_file(papers, "data.xml", "<r><e>payload</e><e>more</e></r>", t())
        .unwrap();
    let sub = fs.mkdir_p("/papers/sub", t()).unwrap();
    fs.create_file(sub, "notes.tex", "\\section{Notes}\nsome notes", t())
        .unwrap();
    fs.create_file(sub, "tree.xml", "<a><b/><c>x</c></a>", t())
        .unwrap();
    fs.create_link(sub, "back", papers, t()).unwrap();
    let links = fs.mkdir_p("/links", t()).unwrap();
    fs.create_link(links, "one", sub, t()).unwrap();
    fs.create_link(links, "two", sub, t()).unwrap();
    fs.create_file_at("/misc/readme.txt", "plain words", t())
        .unwrap();
    fs
}

/// An inbox and a subfolder; two of every three messages carry a `.tex`
/// and an `.xml` attachment, the third a plain one.
fn mail() -> Arc<ImapServer> {
    let server = Arc::new(ImapServer::in_process());
    let projects = server.create_mailbox(server.inbox(), "Projects").unwrap();
    for i in 0..6 {
        let mailbox = if i % 3 == 0 { projects } else { server.inbox() };
        let attachments = match i % 3 {
            0 | 1 => vec![
                Attachment {
                    filename: format!("paper{i}.tex"),
                    content: format!("\\section{{Draft {i}}}\nattached text")
                        .into_bytes()
                        .into(),
                },
                Attachment {
                    filename: format!("data{i}.xml"),
                    content: format!("<r><e>{i}</e><e>x</e></r>").into_bytes().into(),
                },
            ],
            _ => vec![Attachment {
                filename: format!("note{i}.txt"),
                content: b"attached words".to_vec().into(),
            }],
        };
        let message = EmailMessage {
            subject: format!("message {i}"),
            date: t(),
            attachments,
            ..EmailMessage::default()
        };
        server.append(mailbox, &message).unwrap();
    }
    server
}

fn feeds() -> (Arc<FeedServer>, Vec<String>) {
    let server = Arc::new(FeedServer::new());
    let urls: Vec<String> = (0..2)
        .map(|i| format!("http://feeds.example.org/feed{i}"))
        .collect();
    for url in &urls {
        let mut feed = Feed::new(url.clone());
        for k in 0..3 {
            feed.items.push(FeedItem {
                title: format!("item {k}"),
                author: "a".into(),
                published: t(),
                body: "database news".into(),
            });
        }
        server.publish(url, feed);
    }
    (server, urls)
}

/// A plugin that remembers the base views its inner plugin listed.
struct Recording<P> {
    inner: P,
    base_views: Mutex<Vec<Vid>>,
}

impl<P: DataSourcePlugin> Recording<P> {
    fn new(inner: P) -> Arc<Self> {
        Arc::new(Recording {
            inner,
            base_views: Mutex::new(Vec::new()),
        })
    }

    fn base_views(&self) -> BTreeSet<Vid> {
        self.base_views.lock().unwrap().iter().copied().collect()
    }
}

impl<P: DataSourcePlugin> DataSourcePlugin for Recording<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn ingest(&self, store: &ViewStore) -> Result<Ingestion> {
        let ingestion = self.inner.ingest(store)?;
        *self.base_views.lock().unwrap() = ingestion.base_views.clone();
        Ok(ingestion)
    }

    fn read_ahead(&self) -> Option<ReadAhead> {
        self.inner.read_ahead()
    }
}

#[test]
fn ingest_indexes_exactly_the_views_the_per_base_view_walk_reaches() {
    let fs = linked_fs();
    let fs_plugin = Recording::new(FsPlugin::new(Arc::clone(&fs), NodeId::ROOT));
    let imap = Recording::new(ImapPlugin::new(mail()));
    let (feed_server, urls) = feeds();
    let rss = Recording::new(RssPlugin::new(feed_server, urls));
    let mut system = Pdsms::new();
    system.register_source(Arc::clone(&fs_plugin) as Arc<_>);
    system.register_source(Arc::clone(&imap) as Arc<_>);
    system.register_source(Arc::clone(&rss) as Arc<_>);
    let report = system
        .index_all_bulk(&BulkIngestOptions::default())
        .unwrap();
    let store = system.store();
    let catalog = &system.indexes().catalog;

    let sources = [fs_plugin.base_views(), imap.base_views(), rss.base_views()];
    let mut every = BTreeSet::new();
    for (base, stats) in sources.iter().zip(&report.stats) {
        let source = stats.source.as_str();
        assert_eq!(base.len(), stats.base_views, "{source}");

        // What the ingest indexed under this source's label.
        let got: BTreeSet<Vid> = catalog
            .vids()
            .into_iter()
            .filter(|&vid| catalog.entry(vid).unwrap().source == source)
            .collect();
        // The walk: every base view, and the descendants of each.
        let mut walked = base.clone();
        for &root in base {
            walked.extend(descendants(store, root, usize::MAX).unwrap());
        }
        // Ownership: every base view, and the views each one owns.
        let mut owned = base.clone();
        for &root in base {
            owned.extend(store.owned(root));
        }
        assert_eq!(got, walked, "{source}: catalog against the walk");
        assert_eq!(got, owned, "{source}: catalog against ownership");
        assert_eq!(got.len(), stats.total_views(), "{source}");
        every.extend(got);
    }
    let store_vids: BTreeSet<Vid> = store.vids().into_iter().collect();
    assert_eq!(every, store_vids, "every view the ingest minted is indexed");

    // Derived views hang under the file they were converted from.
    let fs_stats = &report.stats[0];
    let nodes = fs.walk(NodeId::ROOT).unwrap();
    let fs_view = |node| fs_plugin.inner.view_of(node).unwrap();
    let base: BTreeSet<Vid> = nodes.iter().map(|&(node, _)| fs_view(node)).collect();
    assert_eq!(base, fs_plugin.base_views());
    let derived_under = |suffix: &str| -> usize {
        nodes
            .iter()
            .filter(|&&(node, _)| fs.name(node).unwrap().ends_with(suffix))
            .map(|&(node, _)| descendants(store, fs_view(node), usize::MAX).unwrap().len())
            .sum()
    };
    assert!(fs_stats.derived_latex > 0 && fs_stats.derived_xml > 0);
    assert_eq!(fs_stats.derived_latex, derived_under(".tex"));
    assert_eq!(fs_stats.derived_xml, derived_under(".xml"));

    // Attachments are converted too, and owned by their message.
    let imap_stats = &report.stats[1];
    assert!(imap_stats.derived_latex > 0 && imap_stats.derived_xml > 0);
    assert_eq!(
        report.stats[2].derived_views(),
        0,
        "a feed has no finite members"
    );
}
