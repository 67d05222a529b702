//! Chaos tests: seeded, deterministic fault injection against the full
//! system — sync rounds, circuit breakers and stale reads under
//! substrate failure.

use std::sync::Arc;
use std::time::Duration;

use idm_core::prelude::*;
use idm_email::message::EmailMessage;
use idm_email::ImapServer;
use idm_query::ExpansionCache;
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

/// ISSUE test (c).2: a tripped breaker leaves the query layer serving
/// last-known-good cache entries (marked stale), and the breaker
/// recovers through its half-open probe once the substrate heals.
#[test]
fn tripped_breaker_serves_stale_and_recovers_after_cooldown() {
    let fs = Arc::new(VirtualFs::new(t()));
    let dir = fs.mkdir_p("/notes", t()).unwrap();
    let node = fs.create_file(dir, "a.txt", "good", t()).unwrap();

    let store = ViewStore::new();
    let fs2 = Arc::clone(&fs);
    let vid = store
        .build("a.txt")
        .content(Content::lazy(Arc::new(move || fs2.read_file(node))))
        .insert();

    // Prime the cache with the healthy value.
    let cache = ExpansionCache::new(16);
    let (bytes, stale) = cache.content_with_fallback(&store, vid).unwrap();
    assert_eq!(bytes.as_ref(), b"good");
    assert!(!stale);

    // The substrate reports a change (new provider, bumped version), so
    // the memoized bytes are discarded and the next read re-hits the
    // filesystem — which is now down, hard.
    let fs3 = Arc::clone(&fs);
    store
        .set_content(vid, Content::lazy(Arc::new(move || fs3.read_file(node))))
        .unwrap();
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

    // Query layer degrades gracefully: last-known-good, marked stale.
    let (bytes, stale) = cache.content_with_fallback(&store, vid).unwrap();
    assert_eq!(bytes.as_ref(), b"good");
    assert!(stale, "served from the stale cache entry");
    assert_eq!(cache.counters().stale_served, 1);

    // Substrate heals; the half-open probe closes the breaker and fresh
    // reads flow again.
    fs.clear_faults();
    let bytes = guard.call(|| store.content(vid)?.bytes()).unwrap();
    assert_eq!(bytes.as_ref(), b"good");
    assert_eq!(guard.breaker().state(), BreakerState::Closed);
    let (_, stale) = cache.content_with_fallback(&store, vid).unwrap();
    assert!(!stale, "fresh value re-cached after recovery");
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

/// Resource-governance chaos: injected substrate latency makes the lazy
/// group force slow, and a 10ms wall-clock deadline fires *during* the
/// expansion — the query unwinds with a structured error within one
/// slow force, not after walking the whole graph. Afterwards, with the
/// substrate failing hard, the stale-cache path still serves the
/// last-known-good expansion (`stale_served` increments) and the store
/// itself is untouched by any of it.
#[test]
fn deadline_fires_during_slow_lazy_expansion_then_stale_cache_serves() {
    use idm_index::IndexBundle;
    use idm_query::{ExecOptions, QueryBudget, QueryProcessor};

    let fs = Arc::new(VirtualFs::new(t()));
    let dir = fs.mkdir_p("/slow", t()).unwrap();
    let marker = fs.create_file(dir, "marker", "x", t()).unwrap();

    let store = Arc::new(ViewStore::new());
    let indexes = Arc::new(IndexBundle::new());
    let leaves: Vec<Vid> = (0..3)
        .map(|i| store.build(format!("leaf{i}")).insert())
        .collect();
    // The root's group component is lazy; every force goes through the
    // (faultable) substrate.
    let make_provider = |fs: Arc<VirtualFs>, members: Vec<Vid>| {
        Arc::new(move |_: &ViewStore, _owner: Vid| {
            fs.read_file(marker)?;
            Ok(GroupData::of_seq(members.clone()))
        })
    };
    let root = store
        .build("root")
        .group(Group::lazy(make_provider(Arc::clone(&fs), leaves.clone())))
        .insert();
    for vid in store.vids() {
        indexes.index_view(&store, vid, "chaos").unwrap();
    }

    let mut processor =
        QueryProcessor::new(Arc::clone(&store), Arc::clone(&indexes)).with_options(ExecOptions {
            live_expansion: true,
            ..ExecOptions::default()
        });

    // Healthy baseline primes the expansion cache.
    let baseline = processor.execute("//root//leaf1").unwrap();
    assert_eq!(baseline.rows.len(), 1);
    let vids_before = store.vids().len();

    // The substrate turns slow and the replica is invalidated, so the
    // next query must re-force through the 50ms-per-call filesystem.
    fs.install_faults(FaultPlan::latency(Duration::from_millis(50)));
    store
        .set_group(
            root,
            Group::lazy(make_provider(Arc::clone(&fs), leaves.clone())),
        )
        .unwrap();

    processor.set_budget(QueryBudget::with_deadline(Duration::from_millis(10)));
    let started = std::time::Instant::now();
    let err = processor.execute("//root//leaf1").unwrap_err();
    assert_eq!(err.budget_kind(), Some(BudgetKind::WallClock));
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "deadline aborted within one slow force, not after the whole walk"
    );

    // The substrate goes down hard and the expansion is invalidated
    // again: forcing now fails, and the cache degrades to the
    // last-known-good members instead of erroring the query.
    fs.clear_faults();
    fs.install_faults(FaultPlan::fail_every(1).permanent());
    store
        .set_group(
            root,
            Group::lazy(make_provider(Arc::clone(&fs), leaves.clone())),
        )
        .unwrap();
    processor.set_budget(QueryBudget::none());
    let degraded = processor.execute("//root//leaf1").unwrap();
    assert_eq!(degraded.rows, baseline.rows, "stale members, same rows");
    assert!(processor.expansion_cache().counters().stale_served >= 1);

    // The read path never wrote: nothing appeared in or vanished from
    // the store, and every structural invariant still holds.
    fs.clear_faults();
    assert_eq!(store.vids().len(), vids_before);
    let report = store.verify_invariants();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}
