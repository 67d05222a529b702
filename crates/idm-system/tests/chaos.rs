//! Chaos tests: seeded, deterministic fault injection against the full
//! system — sync rounds, circuit breakers and queries under substrate
//! failure.

use std::sync::Arc;
use std::time::Duration;

use idm_core::prelude::*;
use idm_email::message::{Attachment, EmailMessage};
use idm_email::ImapServer;
use idm_query::ResultRows;
use idm_system::sync::SyncReport;
use idm_system::QueryRequest;
use idm_system::{
    FsPlugin, ImapPlugin, ImapSynchronizationManager, Pdsms, SyncCoordinator, SyncDriver,
    SynchronizationManager,
};
use idm_vfs::{NodeId, VirtualFs};
use idm_xml::rss::FeedServer;

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

/// A minimal RSS sync driver: one poll of the feed URL per round. Real
/// deployments would diff items; for chaos purposes the substrate call
/// is what matters.
struct RssPollDriver {
    server: Arc<FeedServer>,
    url: String,
}

impl SyncDriver for RssPollDriver {
    fn source_name(&self) -> &str {
        "rss"
    }

    fn drive_round(&self) -> Result<SyncReport> {
        self.server.fetch(&self.url)?;
        Ok(SyncReport::default())
    }
}

/// ISSUE test (c).1: a sync round over an IMAP server that fails every
/// 3rd substrate call completes without quarantining the source — the
/// retry policy absorbs the transient faults.
#[test]
fn sync_round_survives_imap_failing_every_third_call() {
    let server = Arc::new(ImapServer::in_process());
    let plugin = Arc::new(ImapPlugin::new(Arc::clone(&server)));
    let mut system = Pdsms::new();
    system.register_source(plugin.clone());
    system.index_all().unwrap();

    let manager = Arc::new(ImapSynchronizationManager::attach(
        plugin,
        Arc::clone(system.store()),
        Arc::clone(system.indexes()),
    ));

    // Deliver mail while the server is healthy, then make it flaky.
    let inbox = server.inbox();
    for i in 0..4 {
        server.append(inbox, &mail(&format!("m{i}"))).unwrap();
    }
    server.install_faults(FaultPlan::fail_every(3));

    let mut coordinator = SyncCoordinator::new();
    coordinator.attach(manager);
    let report = coordinator.sync_round();

    assert!(
        report.quarantined.is_empty(),
        "transient every-3rd-call faults are retried away: {report:?}"
    );
    assert!(
        report.retries >= 1,
        "at least one retry happened: {report:?}"
    );
    assert!(report.created >= 1, "messages still synced: {report:?}");
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

/// ISSUE test (c).3: `FaultPlan::fail_n(2)` makes the first two calls
/// fail; a guarded call succeeds on the third attempt with exactly two
/// retries counted.
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

/// ISSUE acceptance chaos test: three attached sources, one failing
/// persistently. The round completes, the two healthy sources sync, the
/// failing one is quarantined in the report, and nothing panics.
#[test]
fn persistent_failure_quarantines_one_source_while_others_sync() {
    // Source 1: a healthy filesystem.
    let fs = Arc::new(VirtualFs::new(t()));
    fs.mkdir_p("/docs", t()).unwrap();
    let fs_plugin = Arc::new(FsPlugin::new(Arc::clone(&fs), NodeId::ROOT));

    // Source 2: an IMAP server about to fail persistently.
    let server = Arc::new(ImapServer::in_process());
    let imap_plugin = Arc::new(ImapPlugin::new(Arc::clone(&server)));

    let mut system = Pdsms::new();
    system.register_source(fs_plugin.clone());
    system.register_source(imap_plugin.clone());
    system.index_all().unwrap();

    let fs_sync = Arc::new(
        SynchronizationManager::attach(
            fs_plugin,
            Arc::clone(system.store()),
            Arc::clone(system.indexes()),
        )
        .unwrap(),
    );
    let imap_sync = Arc::new(ImapSynchronizationManager::attach(
        imap_plugin,
        Arc::clone(system.store()),
        Arc::clone(system.indexes()),
    ));

    // Source 3: a healthy RSS feed.
    let feeds = Arc::new(FeedServer::new());
    feeds.publish("http://example.org/feed", idm_xml::rss::Feed::new("news"));
    let rss_sync = Arc::new(RssPollDriver {
        server: Arc::clone(&feeds),
        url: "http://example.org/feed".into(),
    });

    let mut coordinator = SyncCoordinator::new();
    let stats = Arc::clone(coordinator.fault_stats());
    coordinator.attach(fs_sync);
    // A tight guard keeps the failing source's round fast: one retry,
    // breaker trips after two consecutive failures.
    coordinator.attach_guarded(
        imap_sync,
        SourceGuard::new(
            "imap",
            RetryPolicy::immediate(1),
            CircuitBreaker::new(2, Duration::ZERO),
            stats,
        ),
    );
    coordinator.attach(rss_sync);
    assert_eq!(
        coordinator.source_names(),
        vec!["filesystem", "imap", "rss"]
    );

    // Pending work on every source, then the mail server goes down hard.
    let dir = fs.resolve("/docs").unwrap();
    fs.create_file(dir, "new.txt", "fresh file", t()).unwrap();
    server.append(server.inbox(), &mail("doomed")).unwrap();
    server.install_faults(FaultPlan::fail_every(1).permanent());

    let report = coordinator.sync_round();
    assert_eq!(report.quarantined, vec!["imap".to_owned()]);
    assert!(report.created >= 1, "filesystem still synced: {report:?}");
    assert_eq!(
        report.retries, 0,
        "permanent faults are classified as non-retryable"
    );

    // The healthy sources' data is queryable; the dataspace degraded,
    // it did not fail.
    let hits = system
        .run(&QueryRequest::new(r#""fresh file""#))
        .unwrap()
        .result;
    assert_eq!(hits.rows.len(), 1);

    // The mail server heals; the next rounds recover the source (the
    // zero-cooldown breaker probes immediately).
    server.clear_faults();
    server.append(server.inbox(), &mail("recovered")).unwrap();
    let report = coordinator.sync_round();
    assert!(
        report.quarantined.is_empty(),
        "source recovered: {report:?}"
    );
    assert!(report.created >= 1, "new mail synced after recovery");
    assert_eq!(
        coordinator.guard_of("imap").unwrap().breaker().state(),
        BreakerState::Closed
    );
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
