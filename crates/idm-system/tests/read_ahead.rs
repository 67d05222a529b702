//! The IMAP source is read on one reader thread while the sources
//! registered before it ingest: what an ingest builds through it, when
//! the reader stops, how its faults surface, and what a failed attempt
//! leaves in the store.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use idm_core::class::builtin::names;
use idm_core::fault::{CircuitBreaker, FaultPlan, RetryPolicy, SourceGuard};
use idm_core::prelude::*;
use idm_email::convert::{message_to_views, readers_alive};
use idm_email::message::{Attachment, EmailMessage};
use idm_email::{ImapServer, MailboxId};
use idm_system::{DataSourcePlugin, FsPlugin, ImapPlugin, Ingestion, Pdsms, RssPlugin};
use idm_vfs::{DiskLatency, NodeId, VirtualFs};
use idm_xml::rss::{Feed, FeedItem, FeedServer};

/// Replies the reader may queue ahead of the conversion (its private
/// bound in `idm_email::convert`).
const READ_AHEAD: u64 = 12;

/// Messages per FETCH command of a mailbox snapshot.
const WINDOW: usize = 64;

/// Every test here counts reader threads, so they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn t() -> Timestamp {
    Timestamp::from_ymd(2005, 6, 1).unwrap()
}

fn message(i: usize) -> EmailMessage {
    let attachments = match i % 11 {
        3 => vec![Attachment {
            filename: format!("part{i}.tex"),
            content: format!("\\section{{Results {i}}}\nIndexing Time\n\\subsection{{More}}\ntext")
                .into_bytes()
                .into(),
        }],
        7 => vec![Attachment {
            filename: format!("report{i}.xml"),
            content: format!("<report><title>r{i}</title><row>database</row></report>")
                .into_bytes()
                .into(),
        }],
        _ => Vec::new(),
    };
    EmailMessage {
        subject: format!("message {i}"),
        from: "jens.dittrich@inf.ethz.ch".into(),
        to: "marcos@inf.ethz.ch".into(),
        date: t(),
        body: format!("body {i} {}", "database tuning ".repeat(i % 13)),
        attachments,
    }
}

/// The generator's mailbox tree (INBOX holding Projects, Lectures and
/// Admin; Projects holding OLAP and PIM) with `n` messages dealt over
/// its six mailboxes.
fn mail_tree(n: usize) -> Arc<ImapServer> {
    let server = Arc::new(ImapServer::in_process());
    let inbox = server.inbox();
    let mut mailboxes = vec![inbox];
    for name in ["Projects", "Lectures", "Admin"] {
        mailboxes.push(server.create_mailbox(inbox, name).unwrap());
    }
    for name in ["OLAP", "PIM"] {
        mailboxes.push(server.create_mailbox(mailboxes[1], name).unwrap());
    }
    for i in 0..n {
        server
            .append(mailboxes[i % mailboxes.len()], &message(i))
            .unwrap();
    }
    server
}

/// A filesystem of `folders` folders, each with a LaTeX, an XML and a
/// plain file.
fn papers(folders: usize) -> Arc<VirtualFs> {
    let fs = Arc::new(VirtualFs::new(t()));
    for f in 0..folders {
        let dir = fs.mkdir_p(&format!("/papers/p{f}"), t()).unwrap();
        fs.create_file(
            dir,
            &format!("vision{f}.tex"),
            format!("\\section{{A Vision {f}}}\ndataspace text\n\\subsection{{Outlook}}\nmore"),
            t(),
        )
        .unwrap();
        fs.create_file(dir, "data.xml", "<r><e>payload</e><e>more</e></r>", t())
            .unwrap();
        fs.create_file(dir, "notes.txt", "plain words", t())
            .unwrap();
    }
    fs
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

/// The IMAP source as one `fetch` per message converted with
/// `message_to_views`, no reader thread: the reference for what the
/// read-ahead ingest must build.
struct PerUidImap(Arc<ImapServer>);

impl PerUidImap {
    fn folder(&self, store: &ViewStore, mailbox: MailboxId) -> Result<Vid> {
        let server = &self.0;
        let name = server.mailbox_name(mailbox)?;
        let mut children = Vec::new();
        for (sub, _) in server.list_mailboxes(mailbox)? {
            children.push(self.folder(store, sub)?);
        }
        for uid in server.list_messages(mailbox)? {
            children.push(message_to_views(store, &server.fetch(uid)?)?);
        }
        let mut builder = store.build(name).class_named(names::MAILFOLDER);
        if !children.is_empty() {
            builder = builder.children(children);
        }
        Ok(builder.insert())
    }
}

impl DataSourcePlugin for PerUidImap {
    fn name(&self) -> &str {
        "imap"
    }

    fn ingest(&self, store: &ViewStore) -> Result<Ingestion> {
        let first = store.next_vid();
        self.folder(store, self.0.inbox())?;
        Ok(Ingestion {
            base_views: (first..store.next_vid()).map(Vid::from_raw).collect(),
            ..Ingestion::default()
        })
    }
}

/// A system over the filesystem, `imap` and two feeds, in that order.
fn system(fs: Arc<VirtualFs>, imap: Arc<dyn DataSourcePlugin>) -> Pdsms {
    let (feeds, urls) = feeds();
    let mut system = Pdsms::new();
    system.register_source(Arc::new(FsPlugin::new(fs, NodeId::ROOT)));
    system.register_source(imap);
    system.register_source(Arc::new(RssPlugin::new(feeds, urls)));
    system
}

/// (a) Email shaped like the generator's at sf 0.05 (its six-mailbox
/// tree, 317 messages, LaTeX and XML attachments) behind a filesystem
/// and before two feeds: every view has the vid, name, class, tuple,
/// content bytes and group members the per-uid reference gives it.
#[test]
fn read_ahead_ingest_builds_the_per_uid_views_vid_for_vid() {
    let _serial = serial();
    let read_ahead = system(papers(8), Arc::new(ImapPlugin::new(mail_tree(317))));
    let reference = system(papers(8), Arc::new(PerUidImap(mail_tree(317))));
    let stats = read_ahead.index_all().unwrap();
    assert_eq!(readers_alive(), 0, "a reader outlived index_all");
    let reference_stats = reference.index_all().unwrap();

    let counts = |stats: &[idm_system::SourceIngestStats]| {
        stats
            .iter()
            .map(|s| {
                (
                    s.source.clone(),
                    s.base_views,
                    s.derived_xml,
                    s.derived_latex,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(counts(&stats), counts(&reference_stats));
    let email = &stats[1];
    assert_eq!(email.base_views, 6 + 317 + 58);
    assert!(email.derived_xml > 0 && email.derived_latex > 0);

    let (store, expected) = (read_ahead.store(), reference.store());
    assert_eq!(store.vids(), expected.vids());
    assert_eq!(store.next_vid(), expected.next_vid());
    for vid in expected.vids() {
        assert_eq!(store.name(vid).unwrap(), expected.name(vid).unwrap());
        assert_eq!(
            store.class_name(vid).unwrap(),
            expected.class_name(vid).unwrap()
        );
        assert_eq!(store.tuple(vid).unwrap(), expected.tuple(vid).unwrap());
        assert_eq!(
            store.content(vid).unwrap().bytes().unwrap(),
            expected.content(vid).unwrap().bytes().unwrap(),
            "{vid}"
        );
        assert_eq!(
            store.group(vid).unwrap().finite_members(),
            expected.group(vid).unwrap().finite_members(),
            "{vid}"
        );
    }
}

/// (b) A filesystem that fails after 30 ms of slow listing makes
/// `index_all` fail before the IMAP source is converted. By then the
/// reader has read at most its queue ahead, and once the call returns it
/// makes no further server call.
#[test]
fn a_failed_ingest_stops_the_reader_within_its_bound() {
    let _serial = serial();
    // 40 windows of INBOX messages: far more than the reader may queue.
    let server = Arc::new(ImapServer::in_process());
    for i in 0..40 * WINDOW {
        server.append(server.inbox(), &message(i)).unwrap();
    }
    let injector = server.install_faults(FaultPlan::latency(Duration::ZERO));
    // Walk, three 10 ms lists, then the fourth list crashes.
    let fs = papers(5);
    fs.set_latency(DiskLatency {
        per_op: Duration::from_millis(10),
        per_byte: Duration::ZERO,
        sleep: true,
    });
    fs.install_faults(FaultPlan::crash_at(5));
    let system = system(fs, Arc::new(ImapPlugin::new(Arc::clone(&server))));

    let err = system.index_all().unwrap_err();
    assert!(
        matches!(&err, IdmError::Substrate { source, .. } if source == "filesystem"),
        "{err}"
    );
    assert_eq!(readers_alive(), 0, "a reader outlived index_all");
    let calls = injector.calls();
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(injector.calls(), calls, "the reader went on reading");
    // Two LISTs, then at most 12 FETCHes: the queue holds the mailbox's
    // reply and 11 windows, and the reader blocks sending the 12th.
    assert!(calls <= 2 + READ_AHEAD, "{calls} calls for 0 converted");
    assert!(system.store().is_empty(), "{} views", system.store().len());
}

/// A system over one IMAP server whose INBOX holds `inbox` messages
/// and whose one sub-mailbox holds `sub`, none with an attachment,
/// after an ingest under `plan`.
fn imap_under(inbox: usize, sub: usize, plan: FaultPlan) -> (Pdsms, Result<usize>) {
    let server = Arc::new(ImapServer::in_process());
    let lists = server.create_mailbox(server.inbox(), "Lists").unwrap();
    for i in 0..inbox + sub {
        let mut message = message(i);
        message.attachments.clear();
        let mailbox = if i < inbox { server.inbox() } else { lists };
        server.append(mailbox, &message).unwrap();
    }
    server.install_faults(plan);
    let mut system = Pdsms::new();
    system.register_source(Arc::new(ImapPlugin::new(server)));
    let base_views = system.index_all().map(|stats| stats[0].base_views);
    (system, base_views)
}

/// (c) A fault on the reader's server calls surfaces as the IMAP
/// source's error or as a retry, as it does without a reader thread.
/// With 130 INBOX messages and an empty sub-mailbox, an attempt's
/// server calls are the two mailbox LISTs (1, 2), the empty message
/// LIST (3), INBOX's message LIST (4) and its three FETCH windows (5–7).
#[test]
fn reader_faults_surface_as_the_source_error_or_a_retry() {
    let _serial = serial();
    // The first LIST fails once: one retry, then the whole tree.
    let (system, result) = imap_under(130, 0, FaultPlan::fail_n(1));
    assert_eq!(result.unwrap(), 132);
    assert_eq!(system.store().len(), 132);
    assert_eq!(system.fault_stats().snapshot().retries, 1);

    // The second INBOX window fails for good: no retry, and nothing is
    // left.
    let (system, result) = imap_under(130, 0, FaultPlan::crash_at(6));
    let err = result.unwrap_err();
    assert!(
        matches!(&err, IdmError::Substrate { source, .. } if source == "imap"),
        "{err}"
    );
    assert_eq!(system.fault_stats().snapshot().retries, 0);
    assert!(system.store().is_empty());

    // Every attempt's first INBOX window fails: three retries, then the
    // error.
    let (system, result) = imap_under(130, 0, FaultPlan::fail_every(5));
    assert!(result.is_err());
    assert_eq!(system.fault_stats().snapshot().retries, 3);
    assert!(system.store().is_empty());
    assert_eq!(readers_alive(), 0, "a reader outlived index_all");
}

/// A source whose breaker is open is not read ahead: its ingest fails
/// fast, and the server sees no call.
#[test]
fn an_open_breaker_reads_nothing_ahead() {
    let _serial = serial();
    let server = Arc::new(ImapServer::in_process());
    server.append(server.inbox(), &message(0)).unwrap();
    let injector = server.install_faults(FaultPlan::crash_at(1));
    let mut system = Pdsms::new();
    system.register_source(Arc::new(ImapPlugin::new(server)));
    // No cool-down ends within the test.
    let stats = Arc::clone(system.fault_stats());
    let breaker = CircuitBreaker::new(5, Duration::from_secs(3600));
    let guard = SourceGuard::new("imap", RetryPolicy::none(), breaker, stats);
    system.rvm().set_source_guard("imap", guard);
    // Five failed ingests, one server call each, trip the breaker.
    for _ in 0..5 {
        assert!(system.index_all().is_err());
    }
    assert_eq!(system.fault_stats().snapshot().breaker_trips, 1);
    assert_eq!(injector.calls(), 5);
    assert!(system.index_all().is_err());
    assert_eq!(injector.calls(), 5, "an open breaker's source was read");
}

/// A retried IMAP ingest leaves exactly the views of its successful
/// attempt, and a failed one leaves none: 2 mailboxes and 200 messages
/// under a 15 % fault rate, retried (transient faults) and not
/// (permanent ones).
#[test]
fn failed_attempts_leave_no_views() {
    let _serial = serial();
    let (mut succeeded, mut failed, mut retries) = (0, 0, 0);
    for seed in [5, 7, 9, 11, 12] {
        let transient = FaultPlan::fail_rate(0.15, seed);
        for plan in [transient.clone(), transient.permanent()] {
            let (system, result) = imap_under(150, 50, plan);
            retries += system.fault_stats().snapshot().retries;
            match result {
                Ok(base_views) => {
                    assert_eq!(base_views, 202, "seed {seed}");
                    assert_eq!(system.store().len(), 202, "seed {seed}");
                    succeeded += 1;
                }
                Err(_) => {
                    assert!(system.store().is_empty(), "seed {seed}");
                    failed += 1;
                }
            }
        }
    }
    // Attempts failed, and both outcomes occur.
    assert!(retries > 0 && succeeded > 0 && failed > 0);
}

/// A filesystem ingest whose pass-2 listing fails after the views were
/// inserted removes them again.
#[test]
fn a_failed_filesystem_ingest_leaves_no_views() {
    let _serial = serial();
    let fs = papers(3);
    // Call 1 is the walk, call 2 the first folder listing.
    fs.install_faults(FaultPlan::crash_at(2));
    let mut system = Pdsms::new();
    system.register_source(Arc::new(FsPlugin::new(fs, NodeId::ROOT)));
    assert!(system.index_all().is_err());
    assert!(system.store().is_empty(), "{} views", system.store().len());
}
