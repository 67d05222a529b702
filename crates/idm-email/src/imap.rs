//! A simulated IMAP server with a latency model.
//!
//! The paper's email source lives on a *remote* server: Figure 5 shows
//! email indexing time dominated by data source access (network round
//! trips + transfer), unlike the local filesystem. The latency model
//! reproduces that cost structure deterministically: every operation
//! pays a fixed per-round-trip cost plus a per-byte transfer cost. A
//! message set is one FETCH command ([`ImapServer::fetch_many`]), so it
//! pays one round trip plus the transfer of all its messages.
//! `LatencyModel::none()` turns the simulation off for unit tests.

use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use idm_core::prelude::*;
use parking_lot::{Mutex, RwLock};

use crate::message::EmailMessage;

/// Identifier of a mailbox on one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MailboxId(u32);

impl MailboxId {
    /// Raw accessor.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for MailboxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mbox{}", self.0)
    }
}

/// Message unique id (per server, monotonically increasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Uid(pub u64);

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uid{}", self.0)
    }
}

/// The deterministic latency model for remote operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Cost per round trip (LIST, FETCH, APPEND, …).
    pub per_op: Duration,
    /// Transfer cost per byte fetched.
    pub per_byte: Duration,
}

impl LatencyModel {
    /// No simulated latency (unit tests).
    pub fn none() -> Self {
        LatencyModel {
            per_op: Duration::ZERO,
            per_byte: Duration::ZERO,
        }
    }

    /// A scaled-down "2005 IMAP over DSL" model: the ratio between
    /// round-trip and transfer cost mirrors the setting in which the
    /// paper's email indexing was dominated by data source access.
    pub fn remote_2005(scale: f64) -> Self {
        LatencyModel {
            per_op: Duration::from_nanos((400_000.0 * scale) as u64),
            per_byte: Duration::from_nanos((120.0 * scale).max(0.0) as u64),
        }
    }

    fn charge(&self, bytes: usize) -> Duration {
        self.per_op + self.per_byte * (bytes as u32)
    }
}

/// Events emitted when the mail store changes (new message, deletion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MailEvent {
    /// A message arrived in a mailbox.
    Delivered(MailboxId, Uid),
    /// A message was deleted from a mailbox.
    Deleted(MailboxId, Uid),
}

struct Mailbox {
    name: String,
    children: Vec<MailboxId>,
    /// Message uids in arrival order (the INBOX "window" of Section 4.4.1).
    messages: Vec<Uid>,
}

struct ServerInner {
    mailboxes: Vec<Mailbox>,
    /// Message wire bytes by uid.
    store: HashMap<Uid, String>,
    next_uid: u64,
}

/// Busy-waits short costs (thread::sleep granularity would distort
/// sub-millisecond simulated latencies), sleeps long ones.
fn wait_for(cost: std::time::Duration) {
    if cost >= std::time::Duration::from_millis(5) {
        std::thread::sleep(cost);
    } else {
        let start = std::time::Instant::now();
        while start.elapsed() < cost {
            std::hint::spin_loop();
        }
    }
}

/// The simulated IMAP server.
pub struct ImapServer {
    inner: RwLock<ServerInner>,
    latency: LatencyModel,
    /// Accumulated simulated latency, for benchmarks that want to report
    /// simulated time rather than sleeping (`charge_only` mode).
    simulated: Mutex<Duration>,
    sleep: bool,
    subscribers: Mutex<Vec<Sender<MailEvent>>>,
    faults: FaultPoint,
}

impl ImapServer {
    /// A server with the given latency model. `sleep` chooses whether
    /// latency is really slept (realistic end-to-end timing) or only
    /// accounted (fast tests that still want the bookkeeping).
    pub fn new(latency: LatencyModel, sleep: bool) -> Self {
        ImapServer {
            inner: RwLock::new(ServerInner {
                mailboxes: vec![Mailbox {
                    name: "INBOX".to_owned(),
                    children: Vec::new(),
                    messages: Vec::new(),
                }],
                store: HashMap::new(),
                next_uid: 1,
            }),
            latency,
            simulated: Mutex::new(Duration::ZERO),
            sleep,
            subscribers: Mutex::new(Vec::new()),
            faults: FaultPoint::new(),
        }
    }

    /// Installs a fault plan on this server's protocol round trips;
    /// returns the injector for call/fault counting.
    pub fn install_faults(&self, plan: FaultPlan) -> std::sync::Arc<FaultInjector> {
        self.faults.install(plan)
    }

    /// Removes any installed fault plan (the link heals).
    pub fn clear_faults(&self) {
        self.faults.clear()
    }

    fn fault_check(&self, op: &str) -> Result<FaultAction> {
        self.faults.check("imap", op)
    }

    /// A latency-free server for tests.
    pub fn in_process() -> Self {
        ImapServer::new(LatencyModel::none(), false)
    }

    /// The root mailbox (`INBOX`).
    pub fn inbox(&self) -> MailboxId {
        MailboxId(0)
    }

    fn pay(&self, bytes: usize) {
        let cost = self.latency.charge(bytes);
        if cost.is_zero() {
            return;
        }
        *self.simulated.lock() += cost;
        if self.sleep {
            wait_for(cost);
        }
    }

    /// Total simulated latency accumulated so far.
    pub fn simulated_latency(&self) -> Duration {
        *self.simulated.lock()
    }

    /// Resets the simulated latency counter.
    pub fn reset_simulated_latency(&self) {
        *self.simulated.lock() = Duration::ZERO;
    }

    /// Subscribes to delivery/deletion notifications. (Real 2005 IMAP
    /// lacked useful push — the paper's Option 2 bypasses the state
    /// window — so this models the notification service the paper's
    /// Synchronization Manager would subscribe to where available.)
    pub fn subscribe(&self) -> Receiver<MailEvent> {
        let (tx, rx) = unbounded();
        self.subscribers.lock().push(tx);
        rx
    }

    fn emit(&self, event: MailEvent) {
        let mut subs = self.subscribers.lock();
        subs.retain(|tx| tx.send(event).is_ok());
    }

    /// Creates a sub-mailbox.
    pub fn create_mailbox(&self, parent: MailboxId, name: &str) -> Result<MailboxId> {
        self.pay(0);
        let mut inner = self.inner.write();
        if inner.mailboxes.get(parent.0 as usize).is_none() {
            return Err(IdmError::provider(format!("imap: no mailbox {parent}")));
        }
        let id = MailboxId(inner.mailboxes.len() as u32);
        inner.mailboxes.push(Mailbox {
            name: name.to_owned(),
            children: Vec::new(),
            messages: Vec::new(),
        });
        inner.mailboxes[parent.0 as usize].children.push(id);
        Ok(id)
    }

    /// Lists sub-mailboxes of `parent` as `(id, name)` pairs.
    pub fn list_mailboxes(&self, parent: MailboxId) -> Result<Vec<(MailboxId, String)>> {
        self.fault_check("list_mailboxes")?;
        self.pay(0);
        let inner = self.inner.read();
        let mailbox = inner
            .mailboxes
            .get(parent.0 as usize)
            .ok_or_else(|| IdmError::provider(format!("imap: no mailbox {parent}")))?;
        Ok(mailbox
            .children
            .iter()
            .map(|c| (*c, inner.mailboxes[c.0 as usize].name.clone()))
            .collect())
    }

    /// A mailbox's name.
    pub fn mailbox_name(&self, id: MailboxId) -> Result<String> {
        let inner = self.inner.read();
        inner
            .mailboxes
            .get(id.0 as usize)
            .map(|m| m.name.clone())
            .ok_or_else(|| IdmError::provider(format!("imap: no mailbox {id}")))
    }

    /// Delivers a message into a mailbox; returns its uid.
    pub fn append(&self, mailbox: MailboxId, message: &EmailMessage) -> Result<Uid> {
        self.fault_check("append")?;
        let wire = message.to_wire();
        self.pay(wire.len());
        let uid = {
            let mut inner = self.inner.write();
            if inner.mailboxes.get(mailbox.0 as usize).is_none() {
                return Err(IdmError::provider(format!("imap: no mailbox {mailbox}")));
            }
            let uid = Uid(inner.next_uid);
            inner.next_uid += 1;
            inner.store.insert(uid, wire);
            inner.mailboxes[mailbox.0 as usize].messages.push(uid);
            uid
        };
        self.emit(MailEvent::Delivered(mailbox, uid));
        Ok(uid)
    }

    /// Lists message uids in a mailbox (one LIST round trip).
    pub fn list_messages(&self, mailbox: MailboxId) -> Result<Vec<Uid>> {
        self.fault_check("list_messages")?;
        self.pay(0);
        let inner = self.inner.read();
        inner
            .mailboxes
            .get(mailbox.0 as usize)
            .map(|m| m.messages.clone())
            .ok_or_else(|| IdmError::provider(format!("imap: no mailbox {mailbox}")))
    }

    /// Fetches a message: a one-element [`fetch_many`](Self::fetch_many).
    pub fn fetch(&self, uid: Uid) -> Result<EmailMessage> {
        self.fetch_many(std::slice::from_ref(&uid))?
            .pop()
            .ok_or_else(|| IdmError::provider(format!("imap: no message {uid}")))
    }

    /// Fetches a message set in one FETCH round trip (RFC 3501
    /// `UID FETCH <set>`): one fault check and one charge of `per_op`
    /// plus the transfer of every message's wire bytes. The messages
    /// come back in `uids` order; an empty set sends no command.
    ///
    /// A torn read (`Truncate(keep)`) cuts the set's concatenated wire
    /// at `keep`. Messages before the cut parse whole, and the one the
    /// cut lands in parses from its prefix, as a torn single fetch does;
    /// a cut at or past the end of the set's last message keeps it
    /// whole. If a requested message lies wholly past the cut, the call
    /// fails with a transient error: a set never comes back short.
    pub fn fetch_many(&self, uids: &[Uid]) -> Result<Vec<EmailMessage>> {
        if uids.is_empty() {
            return Ok(Vec::new());
        }
        let action = self.fault_check("fetch")?;
        // Parsed from the stored wire under the read lock, so a FETCH
        // copies no wire; the latency is paid after.
        let (fetched, bytes) =
            {
                let inner = self.inner.read();
                let mut wires =
                    uids.iter()
                        .map(|uid| {
                            inner.store.get(uid).map(String::as_str).ok_or_else(|| {
                                IdmError::provider(format!("imap: no message {uid}"))
                            })
                        })
                        .collect::<Result<Vec<&str>>>()?;
                // Torn read: the FETCH transfer was cut short mid-wire.
                if let FaultAction::Truncate(keep) = action {
                    // The cut lands in the first message that ends past
                    // `keep`, or in the last one.
                    let (mut torn, mut start) = (0, 0);
                    while torn + 1 < wires.len() && start + wires[torn].len() <= keep {
                        start += wires[torn].len();
                        torn += 1;
                    }
                    let wire = wires[torn];
                    let keep = wire
                        .char_indices()
                        .map(|(i, _)| i)
                        .chain([wire.len()])
                        .take_while(|i| *i <= keep - start)
                        .last()
                        .unwrap_or(0);
                    wires[torn] = &wire[..keep];
                    wires.truncate(torn + 1);
                }
                let bytes: usize = wires.iter().map(|wire| wire.len()).sum();
                let fetched = if wires.len() < uids.len() {
                    Err(IdmError::transient(
                        "imap",
                        format!(
                            "FETCH of {} messages cut short after {}",
                            uids.len(),
                            wires.len()
                        ),
                    ))
                } else {
                    wires.into_iter().map(EmailMessage::from_wire).collect()
                };
                (fetched, bytes)
            };
        self.pay(bytes);
        fetched
    }

    /// Fetches only a message's wire size (header-level round trip).
    pub fn fetch_size(&self, uid: Uid) -> Result<usize> {
        self.fault_check("fetch_size")?;
        self.pay(0);
        let inner = self.inner.read();
        inner
            .store
            .get(&uid)
            .map(String::len)
            .ok_or_else(|| IdmError::provider(format!("imap: no message {uid}")))
    }

    /// Deletes a message from a mailbox.
    pub fn delete(&self, mailbox: MailboxId, uid: Uid) -> Result<()> {
        self.fault_check("delete")?;
        self.pay(0);
        {
            let mut inner = self.inner.write();
            let mbox = inner
                .mailboxes
                .get_mut(mailbox.0 as usize)
                .ok_or_else(|| IdmError::provider(format!("imap: no mailbox {mailbox}")))?;
            let before = mbox.messages.len();
            mbox.messages.retain(|u| *u != uid);
            if mbox.messages.len() == before {
                return Err(IdmError::provider(format!("imap: {uid} not in {mailbox}")));
            }
            inner.store.remove(&uid);
        }
        self.emit(MailEvent::Deleted(mailbox, uid));
        Ok(())
    }

    /// Total number of stored messages across all mailboxes.
    pub fn message_count(&self) -> usize {
        self.inner.read().store.len()
    }

    /// Sum of wire sizes of all stored messages, in bytes.
    pub fn total_wire_bytes(&self) -> usize {
        self.inner.read().store.values().map(String::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idm_core::value::Timestamp;

    fn msg(subject: &str) -> EmailMessage {
        EmailMessage {
            subject: subject.into(),
            from: "a@b".into(),
            to: "c@d".into(),
            date: Timestamp::from_ymd(2005, 6, 1).unwrap(),
            body: "body".into(),
            attachments: vec![],
        }
    }

    #[test]
    fn mailbox_tree_and_messages() {
        let server = ImapServer::in_process();
        let projects = server.create_mailbox(server.inbox(), "Projects").unwrap();
        let olap = server.create_mailbox(projects, "OLAP").unwrap();
        assert_eq!(
            server.list_mailboxes(server.inbox()).unwrap(),
            vec![(projects, "Projects".to_owned())]
        );

        let uid = server.append(olap, &msg("figures")).unwrap();
        assert_eq!(server.list_messages(olap).unwrap(), vec![uid]);
        let fetched = server.fetch(uid).unwrap();
        assert_eq!(fetched.subject, "figures");
        assert_eq!(server.message_count(), 1);
    }

    #[test]
    fn delete_removes_and_notifies() {
        let server = ImapServer::in_process();
        let rx = server.subscribe();
        let uid = server.append(server.inbox(), &msg("x")).unwrap();
        server.delete(server.inbox(), uid).unwrap();
        assert!(server.fetch(uid).is_err());
        assert!(server.delete(server.inbox(), uid).is_err());
        let events: Vec<MailEvent> = rx.try_iter().collect();
        assert_eq!(
            events,
            vec![
                MailEvent::Delivered(MailboxId(0), uid),
                MailEvent::Deleted(MailboxId(0), uid)
            ]
        );
    }

    #[test]
    fn latency_is_accounted() {
        let server = ImapServer::new(
            LatencyModel {
                per_op: Duration::from_micros(100),
                per_byte: Duration::from_nanos(10),
            },
            false, // account only, don't sleep
        );
        let uid = server.append(server.inbox(), &msg("x")).unwrap();
        let after_append = server.simulated_latency();
        assert!(after_append >= Duration::from_micros(100));
        server.fetch(uid).unwrap();
        assert!(server.simulated_latency() > after_append);
        server.reset_simulated_latency();
        assert_eq!(server.simulated_latency(), Duration::ZERO);
    }

    #[test]
    fn uids_are_unique_across_mailboxes() {
        let server = ImapServer::in_process();
        let a = server.create_mailbox(server.inbox(), "a").unwrap();
        let u1 = server.append(server.inbox(), &msg("1")).unwrap();
        let u2 = server.append(a, &msg("2")).unwrap();
        assert_ne!(u1, u2);
    }

    #[test]
    fn unknown_ids_error() {
        let server = ImapServer::in_process();
        assert!(server.list_messages(MailboxId(9)).is_err());
        assert!(server.fetch(Uid(42)).is_err());
        assert!(server.create_mailbox(MailboxId(9), "x").is_err());
    }
}
