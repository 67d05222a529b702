//! End-to-end resource-governance tests through the `Pdsms` facade:
//! deadline queries fail fast and leave the system pristine, partial
//! mode degrades instead of erroring, and the admission gate sheds at
//! 4x oversubscription without hangs or panics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use idm_core::prelude::*;
use idm_query::QueryBudget;
use idm_system::{GovernorConfig, Pdsms, QueryRequest};

/// A dataspace big enough that queries do real work: `n` documents with
/// names, sizes and content words, chained into a group hierarchy.
fn populated_system(n: usize) -> Pdsms {
    let system = Pdsms::new();
    let store = Arc::clone(system.store());
    let indexes = Arc::clone(system.indexes());
    let vids: Vec<Vid> = (0..n)
        .map(|i| {
            store
                .build(format!("doc{i}"))
                .tuple(TupleComponent::of(vec![("size", Value::Integer(i as i64))]))
                .text(if i % 2 == 0 { "alpha" } else { "beta" })
                .insert()
        })
        .collect();
    // A chain of groups so `//` steps have depth to walk.
    for pair in vids.windows(2) {
        store.add_group_member(pair[0], pair[1], false).unwrap();
    }
    for vid in store.vids() {
        indexes.index_view(&store, vid, "governance").unwrap();
    }
    system
}

/// Acceptance: a deadline query aborts with a structured error within
/// 50ms, every lock is released on the way out,
/// and the same processor then run unbudgeted produces exactly what a
/// fresh processor produces.
#[test]
fn expired_deadline_aborts_within_50ms_and_leaves_no_residue() {
    let system = populated_system(200);
    let query = r#"//doc0//*"#;
    let fresh = system.run(&QueryRequest::new(query)).unwrap().result;
    assert!(!fresh.rows.is_empty());

    let mut processor = system.query_processor();
    // An already-expired deadline trips the very first checkpoint:
    // the elapsed time below is pure cancellation latency.
    processor.set_budget(QueryBudget::with_deadline(Duration::ZERO));
    let started = Instant::now();
    let err = processor.execute(query).unwrap_err();
    assert_eq!(err.budget_kind(), Some(BudgetKind::WallClock));
    assert!(
        started.elapsed() < Duration::from_millis(50),
        "cancel latency {:?}",
        started.elapsed()
    );

    // Locks released, caches consistent: the same processor serves
    // the unbudgeted query byte-identically to a fresh one.
    processor.set_budget(QueryBudget::none());
    let rerun = processor.execute(query).unwrap();
    assert_eq!(rerun.rows, fresh.rows);
    assert!(!rerun.stats.partial);

    let report = system.store().verify_invariants();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

/// Partial mode through the facade: a row-capped query returns a sound
/// subset with `partial` set instead of an error, and the consumption
/// counters report what was spent.
#[test]
fn partial_budget_through_facade_degrades_instead_of_erroring() {
    let system = populated_system(64);
    let full = system.run(&QueryRequest::new(r#""alpha""#)).unwrap().result;

    let budget = QueryBudget {
        max_rows: Some(4),
        ..QueryBudget::default()
    }
    .degrade_to_partial();
    let partial = system
        .run(&QueryRequest::new(r#""alpha""#).budget(budget))
        .unwrap()
        .result;

    assert!(partial.stats.partial);
    assert_eq!(partial.stats.exhausted, Some(BudgetKind::Rows));
    assert!(partial.stats.consumed.rows > 0);
    assert!(partial.rows.len() <= full.rows.len());
    for vid in partial.rows.views() {
        assert!(full.rows.views().contains(&vid), "subset rows only");
    }
}

/// Acceptance: 4x oversubscription against a saturated gate sheds every
/// query with a structured error — queue-full rejections and queue-wait
/// expiries counted separately — and nothing hangs or panics.
#[test]
fn governor_sheds_at_4x_concurrency_without_hangs() {
    let mut system = populated_system(32);
    system.enable_governor(GovernorConfig {
        max_concurrent: 2,
        max_queued: 2,
        queue_deadline: Duration::from_millis(20),
    });

    // Saturate both slots for the duration of the burst, so all eight
    // arrivals either queue (and expire) or are shed outright.
    let gate = system.governor().unwrap();
    let slot_a = gate.admit(None).unwrap();
    let slot_b = gate.admit(None).unwrap();

    let results: Vec<Result<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let system = &system;
                scope.spawn(move || {
                    system.run(&QueryRequest::new(r#""alpha""#).budget(QueryBudget::none()))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for result in &results {
        let err = result.as_ref().expect_err("gate saturated: all rejected");
        assert!(matches!(
            err.budget_kind(),
            Some(BudgetKind::Concurrency) | Some(BudgetKind::QueueWait)
        ));
    }
    let snap = system.governor_stats().unwrap();
    assert_eq!(snap.shed + snap.deadline_exceeded, 8);
    assert_eq!(snap.admitted, 2, "only the held slots were admitted");
    assert_eq!(snap.queued, 0, "no waiter left behind");

    // Releasing the slots restores service.
    drop(slot_a);
    drop(slot_b);
    let ok = system
        .run(&QueryRequest::new(r#""alpha""#).budget(QueryBudget::none()))
        .unwrap()
        .result;
    assert!(!ok.rows.is_empty());
    let snap = system.governor_stats().unwrap();
    assert_eq!(snap.admitted, 3);
    assert_eq!(snap.running, 0);
}

/// The two rejection modes are distinguishable end to end: a full queue
/// sheds (`Concurrency`), a slow queue expires the waiter (`QueueWait`),
/// and the counters never mix.
#[test]
fn shed_and_queue_expiry_are_distinct_through_the_facade() {
    // Queue capacity zero: rejection is immediate and counted as shed.
    let mut system = populated_system(8);
    system.enable_governor(GovernorConfig {
        max_concurrent: 1,
        max_queued: 0,
        queue_deadline: Duration::from_millis(50),
    });
    let permit = system.governor().unwrap().admit(None).unwrap();
    let err = system
        .run(&QueryRequest::new(r#""alpha""#).budget(QueryBudget::none()))
        .unwrap_err();
    assert_eq!(err.budget_kind(), Some(BudgetKind::Concurrency));
    let snap = system.governor_stats().unwrap();
    assert_eq!((snap.shed, snap.deadline_exceeded), (1, 0));
    drop(permit);

    // Queue available but slow: the waiter expires and is counted as
    // deadline_exceeded, not shed. The query's own 10ms deadline caps
    // the wait below the configured 5s queue deadline.
    let mut system = populated_system(8);
    system.enable_governor(GovernorConfig {
        max_concurrent: 1,
        max_queued: 4,
        queue_deadline: Duration::from_secs(5),
    });
    let permit = system.governor().unwrap().admit(None).unwrap();
    let started = Instant::now();
    let err = system
        .run(
            &QueryRequest::new(r#""alpha""#)
                .budget(QueryBudget::with_deadline(Duration::from_millis(10))),
        )
        .unwrap_err();
    assert_eq!(err.budget_kind(), Some(BudgetKind::QueueWait));
    assert!(started.elapsed() < Duration::from_secs(1));
    let snap = system.governor_stats().unwrap();
    assert_eq!((snap.shed, snap.deadline_exceeded), (0, 1));
    drop(permit);
}
