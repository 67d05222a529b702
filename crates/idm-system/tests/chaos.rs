//! Chaos tests: seeded, deterministic fault injection against the full
//! system — retries, circuit breakers and queries under substrate
//! failure.

use std::sync::Arc;
use std::time::Duration;

use idm_core::prelude::*;
use idm_email::message::{Attachment, EmailMessage};
use idm_email::ImapServer;
use idm_query::ResultRows;
use idm_system::{FsPlugin, ImapPlugin, Pdsms, QueryRequest};
use idm_vfs::{NodeId, VirtualFs};

fn t() -> Timestamp {
    Timestamp::from_ymd(2006, 9, 12).unwrap()
}

fn mail(subject: &str) -> EmailMessage {
    EmailMessage {
        subject: subject.into(),
        from: "chaos@test".into(),
        to: "user@test".into(),
        date: t(),
        body: format!("body of {subject}"),
        attachments: Vec::new(),
    }
}

/// A guarded lazy-content force against a filesystem that is down
/// hard trips the breaker, and the breaker recovers through its
/// half-open probe once the substrate heals.
#[test]
fn tripped_breaker_recovers_after_cooldown() {
    let fs = Arc::new(VirtualFs::new(t()));
    let dir = fs.mkdir_p("/notes", t()).unwrap();
    let node = fs.create_file(dir, "a.txt", "good", t()).unwrap();

    let store = ViewStore::new();
    let fs2 = Arc::clone(&fs);
    let vid = store
        .build("a.txt")
        .content(Content::lazy(Arc::new(move || fs2.read_file(node))))
        .insert();
    fs.install_faults(FaultPlan::fail_every(1).permanent());

    // The guarded substrate access trips the breaker (threshold 1, zero
    // cooldown so the next admit is immediately the half-open probe).
    let stats = Arc::new(FaultStats::new());
    let guard = SourceGuard::new(
        "filesystem",
        RetryPolicy::none(),
        CircuitBreaker::new(1, Duration::ZERO),
        Arc::clone(&stats),
    );
    let err = guard.call(|| store.content(vid)?.bytes()).unwrap_err();
    assert!(!err.is_retryable(), "permanent faults are not retried");
    assert_eq!(guard.breaker().state(), BreakerState::Open);
    assert_eq!(guard.breaker().trips(), 1);

    // Substrate heals; the half-open probe closes the breaker and fresh
    // reads flow again.
    fs.clear_faults();
    let bytes = guard.call(|| store.content(vid)?.bytes()).unwrap();
    assert_eq!(bytes.as_ref(), b"good");
    assert_eq!(guard.breaker().state(), BreakerState::Closed);
}

/// `FaultPlan::fail_n(2)` makes the first two calls fail; a guarded
/// call succeeds on the third attempt with exactly two retries counted.
#[test]
fn fail_n_two_succeeds_on_third_attempt_with_two_retries() {
    let fs = Arc::new(VirtualFs::new(t()));
    let dir = fs.mkdir_p("/d", t()).unwrap();
    let node = fs.create_file(dir, "f.txt", "payload", t()).unwrap();
    let injector = fs.install_faults(FaultPlan::fail_n(2));

    let stats = Arc::new(FaultStats::new());
    let guard = SourceGuard::new(
        "filesystem",
        RetryPolicy::immediate(3),
        CircuitBreaker::new(10, Duration::from_millis(100)),
        Arc::clone(&stats),
    );
    let bytes = guard.call(|| fs.read_file(node)).unwrap();

    assert_eq!(bytes.as_ref(), b"payload");
    assert_eq!(injector.calls(), 3, "two failures + the success");
    assert_eq!(injector.injected(), 2);
    assert_eq!(stats.snapshot().retries, 2, "exactly two retries counted");
    assert_eq!(guard.breaker().state(), BreakerState::Closed);
}

/// Torn reads truncate at a char boundary and surface as parse-level
/// failures, not panics.
#[test]
fn torn_reads_fail_cleanly_not_catastrophically() {
    let fs = Arc::new(VirtualFs::new(t()));
    let dir = fs.mkdir_p("/d", t()).unwrap();
    let node = fs.create_file(dir, "f.txt", "0123456789", t()).unwrap();
    fs.install_faults(FaultPlan::torn_read(4));

    let bytes = fs.read_file(node).unwrap();
    assert_eq!(bytes.as_ref(), b"0123", "read truncated, not errored");
    fs.clear_faults();
    assert_eq!(fs.read_file(node).unwrap().as_ref(), b"0123456789");
}

/// Seeded fail-rate plans are deterministic: the same seed injects the
/// same faults on the same calls, run after run.
#[test]
fn seeded_fail_rate_is_deterministic() {
    let outcomes = |seed: u64| -> Vec<bool> {
        let fs = Arc::new(VirtualFs::new(t()));
        let dir = fs.mkdir_p("/d", t()).unwrap();
        let node = fs.create_file(dir, "f.txt", "x", t()).unwrap();
        fs.install_faults(FaultPlan::fail_rate(0.5, seed));
        (0..32).map(|_| fs.read_file(node).is_ok()).collect()
    };
    assert_eq!(outcomes(7), outcomes(7), "same seed, same fault schedule");
    assert_ne!(outcomes(7), outcomes(8), "different seed, different one");
}

/// Queries read only the index replicas, so a dataspace whose every
/// source is down still answers: keyword, path and join queries return
/// exactly the rows they returned while the sources were up, whichever
/// way their path steps walk.
#[test]
fn queries_answer_from_the_replicas_with_every_source_down() {
    let fs = Arc::new(VirtualFs::new(t()));
    let papers = fs.mkdir_p("/papers/vldb", t()).unwrap();
    fs.create_file(
        papers,
        "vision.tex",
        "\\section{A Dataspace Vision} dataspace systems by Franklin",
        t(),
    )
    .unwrap();
    fs.create_file(papers, "notes.txt", "meeting notes on dataspaces", t())
        .unwrap();
    let server = Arc::new(ImapServer::in_process());
    let draft = EmailMessage {
        attachments: vec![Attachment {
            filename: "vision.tex".into(),
            content: "\\section{Attached} a dataspace draft".into(),
        }],
        ..mail("paper draft")
    };
    server.append(server.inbox(), &draft).unwrap();

    let mut system = Pdsms::new();
    system.register_source(Arc::new(FsPlugin::new(Arc::clone(&fs), NodeId::ROOT)));
    system.register_source(Arc::new(ImapPlugin::new(Arc::clone(&server))));
    system.index_all().unwrap();

    // `//*//*.tex` walks backward, since its context is every view.
    let queries = [
        r#""dataspace""#,
        "//papers//*.tex",
        "//*//*.tex",
        r#"join( //*[class="emailmessage"]//*.tex as A, //papers//*.tex as B, A.name = B.name )"#,
    ];
    let answers = |system: &Pdsms| -> Vec<ResultRows> {
        queries
            .iter()
            .map(|iql| {
                let response = system
                    .run(&QueryRequest::new(*iql))
                    .unwrap_or_else(|e| panic!("{iql}: {e}"));
                response.result.rows
            })
            .collect()
    };
    let healthy = answers(&system);
    assert!(healthy.iter().all(|rows| !rows.is_empty()), "{healthy:?}");

    fs.install_faults(FaultPlan::fail_every(1).permanent());
    server.install_faults(FaultPlan::fail_every(1).permanent());
    assert_eq!(answers(&system), healthy);
}
