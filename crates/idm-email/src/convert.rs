//! Email2iDM: instantiating email in the resource view graph.
//!
//! - A mailbox becomes a `mailfolder` view whose set `S` holds its
//!   sub-mailboxes and messages.
//! - A message becomes an `emailmessage` view: `η` = subject, `τ` =
//!   (from, to, date, size), `χ` = the body text, `γ` = attachments.
//! - An attachment becomes an `attachment` (a `file` specialization)
//!   view whose tuple mimics `W_FS` so attachments answer the same
//!   queries as filesystem files — the Example 2 ("files versus email
//!   attachments") requirement. Content converters (XML/LaTeX) can then
//!   enrich attachments exactly like files, which Q8 relies on.
//!
//! Section 4.4.1's two INBOX models are both provided:
//! [`materialize_mailbox`] snapshots the **state** (Option 1), and
//! [`InboxStreamSource`] is the infinite message **stream** (Option 2) —
//! delivered messages are consumed and cannot be pulled twice.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use idm_core::class::builtin::names;
use idm_core::prelude::*;
use parking_lot::Mutex;

use crate::imap::{ImapServer, MailboxId, Uid};
use crate::message::EmailMessage;

/// Instantiates one message (and its attachments) as resource views.
pub fn message_to_views(store: &ViewStore, message: &EmailMessage) -> Result<Vid> {
    mint_message(store, message.clone(), &mut Vec::new())
}

/// [`message_to_views`] of an owned message, whose strings become the
/// views' components; appends every vid it mints (the message, then its
/// attachments) to `minted`. The message owns its attachments, so it is
/// minted first and given its group once they exist.
fn mint_message(store: &ViewStore, message: EmailMessage, minted: &mut Vec<Vid>) -> Result<Vid> {
    let attachment_class = store.classes().require(names::ATTACHMENT)?;
    let size = message.content_size();
    let tuple = TupleComponent::of(vec![
        ("from", Value::Text(message.from)),
        ("to", Value::Text(message.to)),
        ("date", Value::Date(message.date)),
        ("size", Value::Integer(size as i64)),
    ]);
    let vid = store
        .build(message.subject)
        .tuple(tuple)
        .content(Content::text(message.body))
        .class_named(names::EMAILMESSAGE)
        .insert();
    minted.push(vid);
    if message.attachments.is_empty() {
        return Ok(vid);
    }
    let first = minted.len();
    for attachment in message.attachments {
        let tuple = TupleComponent::of(vec![
            ("size", Value::Integer(attachment.content.len() as i64)),
            ("creation time", Value::Date(message.date)),
            ("last modified time", Value::Date(message.date)),
        ]);
        minted.push(
            store
                .build(attachment.filename)
                .tuple(tuple)
                .content(Content::inline(attachment.content))
                .class(attachment_class)
                .owner(Some(vid))
                .insert(),
        );
    }
    store.set_group(vid, Group::of_set(minted[first..].to_vec()))?;
    Ok(vid)
}

/// Statistics of a mailbox materialization.
#[derive(Debug, Clone, Copy, Default)]
pub struct MailboxStats {
    /// Mailbox folder views created.
    pub folders: usize,
    /// Message views created.
    pub messages: usize,
    /// Attachment views created.
    pub attachments: usize,
    /// The reader thread's time in server calls (the Figure 5 source
    /// access of this mailbox tree).
    pub reading: Duration,
    /// The materializing thread's time waiting for the reader.
    pub waiting: Duration,
}

/// The node mapping produced by a mailbox materialization: what the
/// email synchronization manager needs to resolve server notifications
/// back to resource views.
#[derive(Debug)]
pub struct MailboxMapping {
    /// The root mailbox view.
    pub root: Vid,
    /// Mailbox → mailfolder view.
    pub folders: std::collections::HashMap<MailboxId, Vid>,
    /// Message uid → emailmessage view.
    pub messages: std::collections::HashMap<Uid, Vid>,
    /// Every view the materialization minted (folders, messages,
    /// attachments), in mint order.
    pub views: Vec<Vid>,
    /// Counters.
    pub stats: MailboxStats,
}

impl Default for MailboxMapping {
    fn default() -> Self {
        MailboxMapping {
            root: Vid::from_raw(u64::MAX),
            folders: Default::default(),
            messages: Default::default(),
            views: Vec::new(),
            stats: MailboxStats::default(),
        }
    }
}

/// Messages per FETCH command of a mailbox snapshot. A window bounds
/// what ingest holds at once to that many fetched messages.
const FETCH_WINDOW: usize = 64;

/// Replies a [`MailboxReader`] may queue ahead of its materialization.
/// At the generator's ≈ 1.8 KB a message a window is ≈ 115 KB of wire,
/// so the queue holds about 1 MiB; the generator's whole tree at sf
/// 0.04 (6 mailboxes of one window each) is 12 replies.
const READ_AHEAD: usize = 12;

/// What a [`MailboxReader`] sends, in the order it reads the server.
enum Reply {
    /// A mailbox whose sub-mailboxes were all sent before it (their
    /// folders are the last `subs` built); its messages follow as one
    /// [`Reply::Window`] per `FETCH_WINDOW` uids.
    Mailbox {
        id: MailboxId,
        name: String,
        subs: usize,
        uids: Vec<Uid>,
    },
    /// The messages of the next window, in uid-list order.
    Window(Vec<EmailMessage>),
}

/// The reader thread: makes a snapshot's server calls in depth-first
/// order and sends every result, stopping after the first error or
/// once the materializer is gone.
struct Reader<'a> {
    server: &'a ImapServer,
    replies: SyncSender<Result<Reply>>,
    /// Time spent in server calls.
    busy: Duration,
}

impl Reader<'_> {
    /// One timed server call; an error is sent and stops the reading.
    fn call<T>(&mut self, call: impl FnOnce(&ImapServer) -> Result<T>) -> Option<T> {
        let start = Instant::now();
        let result = call(self.server);
        self.busy += start.elapsed();
        match result {
            Ok(value) => Some(value),
            Err(err) => {
                let _ = self.replies.send(Err(err));
                None
            }
        }
    }

    fn send(&self, reply: Reply) -> Option<()> {
        self.replies.send(Ok(reply)).ok()
    }

    fn read(&mut self, mailbox: MailboxId) -> Option<()> {
        let name = self.call(|server| server.mailbox_name(mailbox))?;
        let subs = self.call(|server| server.list_mailboxes(mailbox))?;
        for &(sub, _) in &subs {
            self.read(sub)?;
        }
        let uids = self.call(|server| server.list_messages(mailbox))?;
        self.send(Reply::Mailbox {
            id: mailbox,
            name,
            subs: subs.len(),
            uids: uids.clone(),
        })?;
        for window in uids.chunks(FETCH_WINDOW) {
            let messages = self.call(|server| server.fetch_many(window))?;
            self.send(Reply::Window(messages))?;
        }
        Some(())
    }
}

/// [`MailboxReader`] threads whose work has not ended.
static READERS: AtomicUsize = AtomicUsize::new(0);

/// The number of [`MailboxReader`] threads whose work has not ended.
/// Each reader's closure owns a guard that counts it down as the
/// closure ends, so once a reader is joined it is no longer counted.
pub fn readers_alive() -> usize {
    READERS.load(Ordering::SeqCst)
}

/// One count in [`READERS`], for as long as it lives.
struct Alive;

impl Alive {
    fn count() -> Alive {
        READERS.fetch_add(1, Ordering::SeqCst);
        Alive
    }
}

impl Drop for Alive {
    fn drop(&mut self) {
        READERS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A mailbox tree read on a thread of its own, ahead of its
/// materialization: the server calls of a snapshot, in the snapshot's
/// order, with at most a fixed number of replies (about 1 MiB of
/// wire) queued for the thread that converts them. Dropping the
/// reader, materialized or not, stops the thread at its next send and
/// joins it.
pub struct MailboxReader {
    replies: Option<Receiver<Result<Reply>>>,
    thread: Option<JoinHandle<Duration>>,
}

impl MailboxReader {
    /// Starts reading the tree under `mailbox`.
    pub fn start(server: Arc<ImapServer>, mailbox: MailboxId) -> Result<MailboxReader> {
        let (sender, replies) = sync_channel(READ_AHEAD);
        let alive = Alive::count();
        let thread = std::thread::Builder::new()
            .name("imap-reader".to_owned())
            .spawn(move || {
                let _alive = alive;
                let mut reader = Reader {
                    server: &server,
                    replies: sender,
                    busy: Duration::ZERO,
                };
                reader.read(mailbox);
                reader.busy
            })
            .map_err(|err| IdmError::provider(format!("imap: cannot start a reader: {err}")))?;
        Ok(MailboxReader {
            replies: Some(replies),
            thread: Some(thread),
        })
    }

    /// Mints the tree's views from what the reader reads, in the order
    /// it reads them, then stops and joins the reader. A failed
    /// materialization removes every view it minted before it returns
    /// the error.
    pub fn materialize(mut self, store: &ViewStore) -> Result<MailboxMapping> {
        let mut mapping = MailboxMapping::default();
        let built = match &self.replies {
            Some(replies) => build(replies, store, &mut mapping),
            None => Err(stopped_early()),
        };
        match self
            .stop()
            .and_then(|reading| built.map(|root| (root, reading)))
        {
            Ok((root, reading)) => {
                mapping.root = root;
                mapping.stats.reading = reading;
                Ok(mapping)
            }
            Err(err) => {
                for &vid in &mapping.views {
                    store.remove(vid).ok();
                }
                Err(err)
            }
        }
    }

    /// Drops the receiver, so the reader's next send fails and it
    /// stops, and joins it; returns its time in server calls.
    fn stop(&mut self) -> Result<Duration> {
        self.replies = None;
        match self.thread.take() {
            Some(thread) => thread
                .join()
                .map_err(|_| IdmError::provider("imap: the reader thread panicked")),
            None => Ok(Duration::ZERO),
        }
    }
}

impl Drop for MailboxReader {
    fn drop(&mut self) {
        // Dropping must not panic: `materialize` is where a reader's
        // panic is reported.
        let _ = self.stop();
    }
}

fn stopped_early() -> IdmError {
    IdmError::provider("imap: the reader stopped before the mailbox tree was read")
}

/// Mints the views of the replies: each message in uid order, and a
/// mailbox's folder after its sub-mailboxes' folders and its messages,
/// exactly as a depth-first walk would. Returns the root folder; adds
/// the time spent waiting for a reply to `mapping.stats.waiting`.
fn build(
    replies: &Receiver<Result<Reply>>,
    store: &ViewStore,
    mapping: &mut MailboxMapping,
) -> Result<Vid> {
    let next = |waiting: &mut Duration| -> Result<Option<Reply>> {
        let start = Instant::now();
        let reply = replies.recv();
        *waiting += start.elapsed();
        reply.ok().transpose()
    };
    // Folders built and not yet claimed by their parent.
    let mut folders: Vec<Vid> = Vec::new();
    while let Some(reply) = next(&mut mapping.stats.waiting)? {
        let Reply::Mailbox {
            id,
            name,
            subs,
            uids,
        } = reply
        else {
            return Err(stopped_early());
        };
        let first_sub = folders.len().checked_sub(subs).ok_or_else(stopped_early)?;
        let mut children = folders.split_off(first_sub);
        for window in uids.chunks(FETCH_WINDOW) {
            let Some(Reply::Window(messages)) = next(&mut mapping.stats.waiting)? else {
                return Err(stopped_early());
            };
            for (&uid, message) in window.iter().zip(messages) {
                mapping.stats.messages += 1;
                mapping.stats.attachments += message.attachments.len();
                let vid = mint_message(store, message, &mut mapping.views)?;
                mapping.messages.insert(uid, vid);
                children.push(vid);
            }
        }
        mapping.stats.folders += 1;
        let mut builder = store.build(name).class_named(names::MAILFOLDER);
        if !children.is_empty() {
            builder = builder.children(children);
        }
        let vid = builder.insert();
        mapping.views.push(vid);
        mapping.folders.insert(id, vid);
        folders.push(vid);
    }
    match folders[..] {
        [root] => Ok(root),
        _ => Err(stopped_early()),
    }
}

/// Option 1 — **model the state**: snapshots a mailbox subtree into
/// finite `mailfolder`/`emailmessage` views. The state may be retrieved
/// multiple times; nothing is removed from the server. A
/// [`MailboxReader`] thread fetches each mailbox's messages as message
/// sets of up to 64, one round trip per set, while the calling thread
/// converts them in uid order; a failed snapshot leaves no view.
pub fn materialize_mailbox(
    server: &Arc<ImapServer>,
    store: &ViewStore,
    mailbox: MailboxId,
) -> Result<(Vid, MailboxStats)> {
    let mapping = materialize_mailbox_mapped(server, store, mailbox)?;
    Ok((mapping.root, mapping.stats))
}

/// [`materialize_mailbox`] variant returning the full node mapping.
pub fn materialize_mailbox_mapped(
    server: &Arc<ImapServer>,
    store: &ViewStore,
    mailbox: MailboxId,
) -> Result<MailboxMapping> {
    MailboxReader::start(Arc::clone(server), mailbox)?.materialize(store)
}

/// Option 2 — **model the stream**: an infinite group sequence of the
/// messages routed to the account. Pulling an element fetches the next
/// unseen message, converts it into views and (matching the paper's
/// "messages delivered by the stream cannot be retrieved a second time")
/// deletes it from the server window.
pub struct InboxStreamSource {
    server: Arc<ImapServer>,
    mailbox: MailboxId,
    /// Uids already delivered to the stream (guards against re-delivery
    /// if deletion is disabled).
    delivered: Mutex<Vec<Uid>>,
    /// Whether pulled messages are removed from the server (the paper's
    /// single-point-of-access mode).
    consume: bool,
}

impl InboxStreamSource {
    /// Creates a stream source over `mailbox`.
    pub fn new(server: Arc<ImapServer>, mailbox: MailboxId, consume: bool) -> Self {
        InboxStreamSource {
            server,
            mailbox,
            delivered: Mutex::new(Vec::new()),
            consume,
        }
    }

    /// Builds the `datstream`-classed view carrying this infinite group.
    pub fn into_stream_view(self, store: &ViewStore) -> Result<Vid> {
        let class = store.classes().require(names::DATSTREAM)?;
        Ok(store
            .build("INBOX message stream")
            .group(Group::infinite(Arc::new(self)))
            .class(class)
            .insert())
    }
}

impl ViewSequenceSource for InboxStreamSource {
    fn try_next(&self, store: &ViewStore) -> Result<Option<Vid>> {
        let mut delivered = self.delivered.lock();
        let next = self
            .server
            .list_messages(self.mailbox)?
            .into_iter()
            .find(|uid| !delivered.contains(uid));
        let Some(uid) = next else {
            return Ok(None);
        };
        let message = self.server.fetch(uid)?;
        delivered.push(uid);
        if self.consume {
            self.server.delete(self.mailbox, uid)?;
        }
        Ok(Some(message_to_views(store, &message)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Attachment;
    use bytes::Bytes;
    use idm_core::graph;

    fn msg(subject: &str, attachments: Vec<Attachment>) -> EmailMessage {
        EmailMessage {
            subject: subject.into(),
            from: "jens.dittrich@inf.ethz.ch".into(),
            to: "marcos@inf.ethz.ch".into(),
            date: Timestamp::from_ymd(2005, 9, 22).unwrap(),
            body: format!("body of {subject}"),
            attachments,
        }
    }

    fn tex_attachment(name: &str) -> Attachment {
        Attachment {
            filename: name.into(),
            content: Bytes::from_static(b"\\section{Results}\nIndexing Time"),
        }
    }

    #[test]
    fn message_views_carry_all_components() {
        let store = ViewStore::new();
        let vid = message_to_views(
            &store,
            &msg("OLAP figures", vec![tex_attachment("olap.tex")]),
        )
        .unwrap();
        assert_eq!(store.name(vid).unwrap().as_deref(), Some("OLAP figures"));
        assert!(store.conforms_to(vid, names::EMAILMESSAGE).unwrap());
        let tuple = store.tuple(vid).unwrap().unwrap();
        assert_eq!(
            tuple.get("from"),
            Some(&Value::Text("jens.dittrich@inf.ethz.ch".into()))
        );
        assert!(tuple.get("size").unwrap().as_integer().unwrap() > 0);
        assert!(store
            .content(vid)
            .unwrap()
            .text_lossy()
            .unwrap()
            .contains("body of OLAP figures"));

        let attachments = store.group(vid).unwrap().finite_members();
        assert_eq!(attachments.len(), 1);
        let att = attachments[0];
        assert!(store.conforms_to(att, names::ATTACHMENT).unwrap());
        assert!(
            store.conforms_to(att, names::FILE).unwrap(),
            "attachments behave like files (Example 2)"
        );
        assert_eq!(store.name(att).unwrap().as_deref(), Some("olap.tex"));
    }

    #[test]
    fn option_1_state_snapshot() {
        let server = Arc::new(ImapServer::in_process());
        let projects = server.create_mailbox(server.inbox(), "Projects").unwrap();
        server
            .append(server.inbox(), &msg("hello", vec![]))
            .unwrap();
        server
            .append(projects, &msg("OLAP", vec![tex_attachment("olap.tex")]))
            .unwrap();

        let store = ViewStore::new();
        let (root, stats) = materialize_mailbox(&server, &store, server.inbox()).unwrap();
        assert_eq!(stats.folders, 2);
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.attachments, 1);
        assert!(store.conforms_to(root, names::MAILFOLDER).unwrap());

        // The attachment is reachable from the INBOX view (boundary gone).
        let all = graph::descendants(&store, root, usize::MAX).unwrap();
        assert!(all
            .iter()
            .any(|v| store.name(*v).unwrap().as_deref() == Some("olap.tex")));

        // State retrieval is repeatable: the server still has everything.
        assert_eq!(server.message_count(), 2);
        let (_, stats2) = materialize_mailbox(&server, &store, server.inbox()).unwrap();
        assert_eq!(stats2.messages, 2);
    }

    #[test]
    fn option_2_stream_consumes_messages() {
        let server = Arc::new(ImapServer::in_process());
        server.append(server.inbox(), &msg("m1", vec![])).unwrap();
        server.append(server.inbox(), &msg("m2", vec![])).unwrap();

        let store = ViewStore::new();
        let stream = InboxStreamSource::new(Arc::clone(&server), server.inbox(), true)
            .into_stream_view(&store)
            .unwrap();
        let snapshot = store.group(stream).unwrap();
        assert!(snapshot.is_infinite());
        let GroupSnapshot::Infinite(source) = snapshot else {
            panic!()
        };

        let v1 = source.try_next(&store).unwrap().unwrap();
        assert_eq!(store.name(v1).unwrap().as_deref(), Some("m1"));
        assert_eq!(server.message_count(), 1, "m1 consumed from server");

        let v2 = source.try_next(&store).unwrap().unwrap();
        assert_eq!(store.name(v2).unwrap().as_deref(), Some("m2"));
        assert_eq!(server.message_count(), 0);

        // Stream is dry but not ended; a new delivery resumes it.
        assert_eq!(source.try_next(&store).unwrap(), None);
        server.append(server.inbox(), &msg("m3", vec![])).unwrap();
        let v3 = source.try_next(&store).unwrap().unwrap();
        assert_eq!(store.name(v3).unwrap().as_deref(), Some("m3"));
    }

    #[test]
    fn non_consuming_stream_leaves_server_intact() {
        let server = Arc::new(ImapServer::in_process());
        server.append(server.inbox(), &msg("m1", vec![])).unwrap();
        let store = ViewStore::new();
        let source = InboxStreamSource::new(Arc::clone(&server), server.inbox(), false);
        assert!(source.try_next(&store).unwrap().is_some());
        assert_eq!(server.message_count(), 1);
        // But it is not delivered twice.
        assert!(source.try_next(&store).unwrap().is_none());
    }
}
