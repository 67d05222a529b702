//! Message-set FETCH: what a snapshot of a mailbox tree pays, what it
//! builds, and how a set fails.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use idm_core::class::builtin::names;
use idm_core::fault::FaultPlan;
use idm_core::prelude::*;
use idm_email::convert::{materialize_mailbox, materialize_mailbox_mapped, message_to_views};
use idm_email::{Attachment, EmailMessage, ImapServer, LatencyModel, MailboxId, Uid};

/// Messages per FETCH command of a mailbox snapshot (the window the
/// ingest uses).
const WINDOW: usize = 64;

fn message(i: usize) -> EmailMessage {
    let attachments = if i % 7 == 3 {
        vec![Attachment {
            filename: format!("part{i}.tex"),
            content: Bytes::from(format!("\\section{{Results {i}}}\nIndexing Time")),
        }]
    } else {
        Vec::new()
    };
    EmailMessage {
        subject: format!("message {i}"),
        from: "jens.dittrich@inf.ethz.ch".into(),
        to: "marcos@inf.ethz.ch".into(),
        date: Timestamp::from_ymd(2005, 9, 22).unwrap(),
        body: format!("body {i} {}", "database ".repeat(i % 13)),
        attachments,
    }
}

/// INBOX with `inbox` messages, and under it `Projects` (64 messages,
/// holding the empty `Archive`) and `Lists` (one message).
fn populate(server: &ImapServer, inbox: usize) -> Vec<(MailboxId, usize)> {
    let projects = server.create_mailbox(server.inbox(), "Projects").unwrap();
    let archive = server.create_mailbox(projects, "Archive").unwrap();
    let lists = server.create_mailbox(server.inbox(), "Lists").unwrap();
    let boxes = vec![
        (server.inbox(), inbox),
        (projects, WINDOW),
        (archive, 0),
        (lists, 1),
    ];
    let mut i = 0;
    for &(mailbox, n) in &boxes {
        for _ in 0..n {
            server.append(mailbox, &message(i)).unwrap();
            i += 1;
        }
    }
    boxes
}

fn account_only(per_op: Duration, per_byte: Duration) -> Arc<ImapServer> {
    Arc::new(ImapServer::new(LatencyModel { per_op, per_byte }, false))
}

#[test]
fn a_snapshot_pays_one_round_trip_per_message_set() {
    let server = account_only(Duration::from_millis(1), Duration::ZERO);
    let boxes = populate(&server, 2 * WINDOW + 2);
    server.reset_simulated_latency();
    materialize_mailbox(&server, &ViewStore::new(), server.inbox()).unwrap();
    // Each mailbox costs one LIST of its sub-mailboxes and one of its
    // messages; each started window of messages one FETCH.
    let lists = 2 * boxes.len() as u64;
    let fetches: u64 = boxes.iter().map(|&(_, n)| n.div_ceil(WINDOW) as u64).sum();
    assert_eq!(fetches, 3 + 1 + 1);
    assert_eq!(
        server.simulated_latency(),
        Duration::from_millis(lists + fetches)
    );
}

#[test]
fn a_snapshot_still_pays_for_every_byte() {
    let server = account_only(Duration::ZERO, Duration::from_nanos(1));
    populate(&server, 2 * WINDOW + 2);
    server.reset_simulated_latency();
    materialize_mailbox(&server, &ViewStore::new(), server.inbox()).unwrap();
    assert_eq!(
        server.simulated_latency(),
        Duration::from_nanos(server.total_wire_bytes() as u64)
    );
}

/// The snapshot as one `fetch` per message would build it.
fn materialize_per_uid(server: &ImapServer, store: &ViewStore, mailbox: MailboxId) -> Vid {
    let mut children = Vec::new();
    for (sub, _) in server.list_mailboxes(mailbox).unwrap() {
        children.push(materialize_per_uid(server, store, sub));
    }
    for uid in server.list_messages(mailbox).unwrap() {
        let message = server.fetch(uid).unwrap();
        children.push(message_to_views(store, &message).unwrap());
    }
    let mut builder = store
        .build(server.mailbox_name(mailbox).unwrap())
        .class_named(names::MAILFOLDER);
    if !children.is_empty() {
        builder = builder.children(children);
    }
    builder.insert()
}

#[test]
fn windowed_snapshot_builds_the_per_message_views_vid_for_vid() {
    // 150 INBOX messages: two full windows and a partial one.
    let server = Arc::new(ImapServer::in_process());
    populate(&server, 150);
    let windowed = ViewStore::new();
    let mapping = materialize_mailbox_mapped(&server, &windowed, server.inbox()).unwrap();
    let reference = ViewStore::new();
    let root = materialize_per_uid(&server, &reference, server.inbox());

    assert_eq!(mapping.root, root);
    assert_eq!(windowed.next_vid(), reference.next_vid());
    assert_eq!(mapping.stats.messages, 150 + WINDOW + 1);
    assert!(mapping.stats.attachments > 0);
    assert_eq!(
        mapping.views,
        windowed.vids(),
        "every minted vid, in mint order"
    );
    for vid in reference.vids() {
        assert_eq!(windowed.name(vid).unwrap(), reference.name(vid).unwrap());
        assert_eq!(
            windowed.class_name(vid).unwrap(),
            reference.class_name(vid).unwrap()
        );
        assert_eq!(windowed.tuple(vid).unwrap(), reference.tuple(vid).unwrap());
        assert_eq!(
            windowed.content(vid).unwrap().bytes().unwrap(),
            reference.content(vid).unwrap().bytes().unwrap(),
            "{vid}"
        );
        assert_eq!(
            windowed.group(vid).unwrap().finite_members(),
            reference.group(vid).unwrap().finite_members(),
            "{vid}"
        );
    }
}

#[test]
fn a_faulted_multi_window_snapshot_fails_cleanly() {
    for plan in [
        FaultPlan::fail_n(1),
        FaultPlan::fail_every(1),
        FaultPlan::torn_read(100),
    ] {
        let server = Arc::new(ImapServer::in_process());
        populate(&server, 2 * WINDOW + 2);
        server.install_faults(plan.clone());
        let store = ViewStore::new();
        let result = materialize_mailbox(&server, &store, server.inbox());
        assert!(result.is_err(), "{plan:?} gave a snapshot");
        assert!(store.is_empty(), "{plan:?} left {} views", store.len());
    }
}

fn server_with(n: usize) -> (ImapServer, Vec<Uid>, Vec<String>) {
    let server = ImapServer::in_process();
    let messages: Vec<EmailMessage> = (0..n).map(message).collect();
    let uids = messages
        .iter()
        .map(|m| server.append(server.inbox(), m).unwrap())
        .collect();
    (
        server,
        uids,
        messages.iter().map(EmailMessage::to_wire).collect(),
    )
}

#[test]
fn a_set_fetches_each_message_once_in_order() {
    let (server, uids, wires) = server_with(5);
    let set: Vec<Uid> = uids.iter().rev().copied().collect();
    let fetched = server.fetch_many(&set).unwrap();
    assert_eq!(fetched.len(), 5);
    for (message, wire) in fetched.iter().zip(wires.iter().rev()) {
        assert_eq!(message, &EmailMessage::from_wire(wire).unwrap());
    }
    assert!(server.fetch_many(&[]).unwrap().is_empty());
    assert!(server.fetch_many(&[uids[0], Uid(999)]).is_err());
}

#[test]
fn a_torn_one_element_set_is_a_torn_fetch() {
    let (server, uids, wires) = server_with(1);
    // The cut lands in the body.
    let keep = wires[0].len() - 3;
    server.install_faults(FaultPlan::torn_read(keep));
    let torn = EmailMessage::from_wire(&wires[0][..keep]).unwrap();
    assert_ne!(torn, EmailMessage::from_wire(&wires[0]).unwrap());
    assert_eq!(server.fetch(uids[0]).unwrap(), torn);
    assert_eq!(server.fetch_many(&uids).unwrap(), vec![torn]);
}

#[test]
fn a_torn_set_parses_up_to_the_cut_or_fails() {
    let (server, uids, wires) = server_with(3);
    let whole: Vec<EmailMessage> = wires
        .iter()
        .map(|w| EmailMessage::from_wire(w).unwrap())
        .collect();

    // The cut lands in the last message's body: the first two parse
    // whole, the last from its prefix.
    let keep = wires[2].len() - 3;
    let before_last = wires[0].len() + wires[1].len();
    server.install_faults(FaultPlan::torn_read(before_last + keep));
    let fetched = server.fetch_many(&uids).unwrap();
    assert_eq!(fetched[..2], whole[..2]);
    assert_eq!(
        fetched[2],
        EmailMessage::from_wire(&wires[2][..keep]).unwrap()
    );
    assert_ne!(fetched[2], whole[2]);

    // The cut lands in the second message: the third never arrived.
    for keep in [0, 60, wires[0].len(), wires[0].len() + 60] {
        server.install_faults(FaultPlan::torn_read(keep));
        let err = server.fetch_many(&uids).unwrap_err();
        assert!(
            matches!(
                err,
                IdmError::Substrate {
                    kind: SubstrateFaultKind::Transient,
                    ..
                }
            ),
            "keep {keep}: {err}"
        );
    }
}

#[test]
fn a_torn_read_that_keeps_everything_changes_nothing() {
    let (server, uids, wires) = server_with(3);
    let whole: Vec<EmailMessage> = wires
        .iter()
        .map(|w| EmailMessage::from_wire(w).unwrap())
        .collect();
    let total: usize = wires.iter().map(String::len).sum();
    for keep in [total, total + 1, 1_000_000] {
        server.install_faults(FaultPlan::torn_read(keep));
        assert_eq!(server.fetch_many(&uids).unwrap(), whole, "keep {keep}");
        assert_eq!(server.fetch(uids[2]).unwrap(), whole[2], "keep {keep}");
    }
    // A cut exactly at the end of a lone message keeps it whole too.
    server.install_faults(FaultPlan::torn_read(wires[0].len()));
    assert_eq!(server.fetch(uids[0]).unwrap(), whole[0]);
}
