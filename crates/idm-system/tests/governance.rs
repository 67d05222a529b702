//! End-to-end resource-governance tests through the `Pdsms` facade:
//! deadline queries fail fast and leave the system pristine, and partial
//! mode degrades instead of erroring.

use std::sync::Arc;
use std::time::{Duration, Instant};

use idm_core::prelude::*;
use idm_query::QueryBudget;
use idm_system::{Pdsms, QueryRequest};

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
