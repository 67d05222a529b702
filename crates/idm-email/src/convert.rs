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

use std::sync::Arc;

use idm_core::class::builtin::names;
use idm_core::prelude::*;
use parking_lot::Mutex;

use crate::imap::{ImapServer, MailboxId, Uid};
use crate::message::EmailMessage;

/// Instantiates one message (and its attachments) as resource views.
pub fn message_to_views(store: &ViewStore, message: &EmailMessage) -> Result<Vid> {
    mint_message(store, message, &mut Vec::new())
}

/// [`message_to_views`], appending every vid it mints (attachments,
/// then the message) to `minted`.
fn mint_message(store: &ViewStore, message: &EmailMessage, minted: &mut Vec<Vid>) -> Result<Vid> {
    let attachment_class = store.classes().require(names::ATTACHMENT)?;
    let first = minted.len();
    for attachment in &message.attachments {
        let tuple = TupleComponent::of(vec![
            ("size", Value::Integer(attachment.content.len() as i64)),
            ("creation time", Value::Date(message.date)),
            ("last modified time", Value::Date(message.date)),
        ]);
        minted.push(
            store
                .build(attachment.filename.clone())
                .tuple(tuple)
                .content(Content::inline(attachment.content.clone()))
                .class(attachment_class)
                .insert(),
        );
    }
    let tuple = TupleComponent::of(vec![
        ("from", Value::Text(message.from.clone())),
        ("to", Value::Text(message.to.clone())),
        ("date", Value::Date(message.date)),
        ("size", Value::Integer(message.content_size() as i64)),
    ]);
    let mut builder = store
        .build(message.subject.clone())
        .tuple(tuple)
        .content(Content::text(message.body.clone()))
        .class_named(names::EMAILMESSAGE);
    if minted.len() > first {
        builder = builder.children(minted[first..].to_vec());
    }
    let vid = builder.insert();
    minted.push(vid);
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

/// Option 1 — **model the state**: snapshots a mailbox subtree into
/// finite `mailfolder`/`emailmessage` views. The state may be retrieved
/// multiple times; nothing is removed from the server. Each mailbox's
/// messages are fetched as message sets of up to 64, one round trip per
/// set, and converted in uid order.
pub fn materialize_mailbox(
    server: &ImapServer,
    store: &ViewStore,
    mailbox: MailboxId,
) -> Result<(Vid, MailboxStats)> {
    let mapping = materialize_mailbox_mapped(server, store, mailbox)?;
    Ok((mapping.root, mapping.stats))
}

/// [`materialize_mailbox`] variant returning the full node mapping.
pub fn materialize_mailbox_mapped(
    server: &ImapServer,
    store: &ViewStore,
    mailbox: MailboxId,
) -> Result<MailboxMapping> {
    let mut mapping = MailboxMapping::default();
    let root = materialize_rec(server, store, mailbox, &mut mapping)?;
    mapping.root = root;
    Ok(mapping)
}

fn materialize_rec(
    server: &ImapServer,
    store: &ViewStore,
    mailbox: MailboxId,
    mapping: &mut MailboxMapping,
) -> Result<Vid> {
    let name = server.mailbox_name(mailbox)?;
    let mut children = Vec::new();
    for (sub, _name) in server.list_mailboxes(mailbox)? {
        children.push(materialize_rec(server, store, sub, mapping)?);
    }
    for window in server.list_messages(mailbox)?.chunks(FETCH_WINDOW) {
        for (&uid, message) in window.iter().zip(server.fetch_many(window)?) {
            let vid = mint_message(store, &message, &mut mapping.views)?;
            mapping.stats.messages += 1;
            mapping.stats.attachments += message.attachments.len();
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
    mapping.folders.insert(mailbox, vid);
    Ok(vid)
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
        let server = ImapServer::in_process();
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
