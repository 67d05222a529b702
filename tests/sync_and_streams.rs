//! Integration tests for the live half of the system: synchronization
//! rounds after source changes, stream windows over IMAP, RSS polling,
//! and lineage (view ownership) across the stack.

use std::sync::Arc;

use imemex::core::prelude::*;
use imemex::email::message::EmailMessage;
use imemex::email::ImapServer;
use imemex::streams::{PushEngine, StreamWindow};
use imemex::system::{FsPlugin, Pdsms, QueryRequest, SynchronizationManager};
use imemex::vfs::{NodeId, VirtualFs};

fn t() -> Timestamp {
    Timestamp::from_ymd(2006, 9, 12).unwrap()
}

#[test]
fn filesystem_changes_flow_to_queries() {
    let fs = Arc::new(VirtualFs::new(t()));
    let dir = fs.mkdir_p("/work", t()).unwrap();
    fs.create_file(dir, "old.tex", "\\section{Old}\nstale words", t())
        .unwrap();

    let mut system = Pdsms::new();
    let plugin = Arc::new(FsPlugin::new(Arc::clone(&fs), NodeId::ROOT));
    system.register_source(Arc::clone(&plugin) as _);
    system.index_all().unwrap();

    let sync = SynchronizationManager::attach(
        plugin,
        Arc::clone(system.store()),
        Arc::clone(system.indexes()),
    )
    .unwrap();

    // Create, modify and remove files; sync after each step.
    fs.create_file(dir, "new.tex", "\\section{Fresh}\nnew findings", t())
        .unwrap();
    sync.sync_round().unwrap();
    assert_eq!(
        system
            .run(&QueryRequest::new(r#"//work//Fresh"#))
            .unwrap()
            .result
            .rows
            .len(),
        1
    );

    let old = fs.resolve("/work/old.tex").unwrap();
    fs.write_file(old, "\\section{Renewed}\nfresh again", t().plus_days(1))
        .unwrap();
    sync.sync_round().unwrap();
    assert_eq!(
        system
            .run(&QueryRequest::new(r#"//work//Old"#))
            .unwrap()
            .result
            .rows
            .len(),
        0
    );
    assert_eq!(
        system
            .run(&QueryRequest::new(r#"//work//Renewed"#))
            .unwrap()
            .result
            .rows
            .len(),
        1
    );

    fs.remove(old).unwrap();
    sync.sync_round().unwrap();
    assert_eq!(
        system
            .run(&QueryRequest::new(r#"//work//Renewed"#))
            .unwrap()
            .result
            .rows
            .len(),
        0
    );
    assert_eq!(
        system
            .run(&QueryRequest::new(r#"//old.tex"#))
            .unwrap()
            .result
            .rows
            .len(),
        0
    );
}

#[test]
fn imap_stream_with_window_and_push_filter() {
    let store = Arc::new(ViewStore::new());
    let imap = Arc::new(ImapServer::in_process());
    for i in 0..10 {
        imap.append(
            imap.inbox(),
            &EmailMessage {
                subject: format!("m{i}"),
                from: "a@b".into(),
                to: "c@d".into(),
                date: t(),
                body: if i % 3 == 0 {
                    "urgent deadline".into()
                } else {
                    "routine".into()
                },
                attachments: vec![],
            },
        )
        .unwrap();
    }

    let engine = PushEngine::attach(Arc::clone(&store));
    let filter = Arc::new(imemex::streams::engine::KeywordFilter::new("deadline"));
    engine.register(Arc::clone(&filter) as _);

    let source =
        imemex::email::convert::InboxStreamSource::new(Arc::clone(&imap), imap.inbox(), false);
    let window = StreamWindow::new(4);
    let pulled = window.pull_available(&store, &source).unwrap();
    engine.pump();

    assert_eq!(pulled, 10);
    assert_eq!(window.len(), 4, "window keeps the last four");
    assert_eq!(filter.matches().len(), 4, "messages 0,3,6,9 matched");
}

#[test]
fn rss_source_polls_feed_changes_through_the_system() {
    use imemex::system::RssPlugin;
    use imemex::xml::rss::{Feed, FeedItem, FeedServer};

    let feeds = Arc::new(FeedServer::new());
    feeds.publish("u", Feed::new("u"));
    let mut system = Pdsms::new();
    system.register_source(Arc::new(RssPlugin::new(
        Arc::clone(&feeds),
        vec!["u".into()],
    )));
    system.index_all().unwrap();

    let stream_vid = system.indexes().catalog.by_source("rss")[0];
    let store = system.store();
    let GroupSnapshot::Infinite(source) = store.group(stream_vid).unwrap() else {
        panic!("rss streams are infinite")
    };
    assert!(source.try_next(store).unwrap().is_none(), "feed empty");

    feeds.append_item(
        "u",
        FeedItem {
            title: "post".into(),
            author: "a".into(),
            published: t(),
            body: "body".into(),
        },
    );
    let doc = source.try_next(store).unwrap().expect("item delivered");
    assert!(store.conforms_to(doc, "xmldoc").unwrap());
}

/// Lineage is recorded as ownership: every view a conversion mints
/// names the base view it came from, whatever the source (a file, a
/// message) and the format (LaTeX, XML) — and a converted attachment's
/// views name the message, not the attachment.
#[test]
fn lineage_spans_sources_and_formats() {
    use imemex::email::message::Attachment;
    use imemex::system::convert_all;

    let store = ViewStore::new();
    let tex = store
        .build("report.tex")
        .text("\\section{S}\nbody")
        .insert();
    let xml = store.build("data.xml").text("<r><e>x</e></r>").insert();
    let message = imemex::email::convert::message_to_views(
        &store,
        &EmailMessage {
            subject: "figures".into(),
            date: t(),
            attachments: vec![Attachment {
                filename: "more.xml".into(),
                content: "<r><e>y</e></r>".into(),
            }],
            ..EmailMessage::default()
        },
    )
    .unwrap();
    let attachment = store.group(message).unwrap().finite_members()[0];
    convert_all(&store, &[tex, xml, attachment]).unwrap();

    for base in [tex, xml, message] {
        assert_eq!(store.owner(base).unwrap(), None);
        let owned = store.owned(base);
        assert!(owned.len() >= 3, "{base} owns {owned:?}");
        for view in owned {
            assert_eq!(store.owner(view).unwrap(), Some(base));
        }
    }
    assert!(store.owned(message).contains(&attachment));
    assert!(store.owned(attachment).is_empty());
    assert!(store.verify_invariants().is_ok());
}
