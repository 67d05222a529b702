//! Cancellation is prompt, counted rather than timed: for every Table 4
//! query, a budget tripped at a sample of its checkpoints unwinds as
//! `ResourceExhausted` in strict mode, and in partial mode the work
//! charged after the trip stays within one operator batch — at most
//! [`CHECKPOINTS_AFTER_TRIP`] checkpoints beyond the entry checkpoint of
//! each plan node still to visit, and at most one item's nodes.

use idm_bench::{build, BuildOptions, Workbench, TABLE4_QUERIES};
use idm_core::error::BudgetKind;
use idm_query::QueryBudget;

/// Checkpoints a partial run may pass after its budget tripped, beyond
/// the entry checkpoint of each plan node still to visit: those of the
/// operator loops still running when it tripped.
const CHECKPOINTS_AFTER_TRIP: u64 = 3;

fn bench_options() -> BuildOptions {
    BuildOptions {
        scale: 0.02,
        latency: false,
        with_rss: false,
    }
}

/// The most nodes one item of an operator batch charges at once: the
/// largest child or parent list of the group replica.
fn largest_batch_item(bench: &Workbench) -> u64 {
    let indexes = bench.system.indexes();
    let group = indexes.group.read();
    indexes
        .catalog
        .vids()
        .into_iter()
        .map(|vid| group.children(vid).len().max(group.parents(vid).len()))
        .max()
        .unwrap_or(0)
        .max(1) as u64
}

#[test]
fn a_tripped_budget_stops_within_one_batch_per_worker() {
    let bench = build(bench_options());
    let batch = largest_batch_item(&bench);
    let run = |budget: QueryBudget, iql: &str| {
        let mut processor = bench.processor();
        processor.set_budget(budget);
        processor.execute(iql)
    };
    for (qname, iql) in TABLE4_QUERIES {
        let plan = bench.processor().plan_iql(iql).unwrap();
        let plan_nodes = plan.operator_counts().total() as u64;
        let probe = run(QueryBudget::probe(), iql).unwrap().stats.consumed;
        assert!(probe.checkpoints > 0, "{qname}");
        let step = (probe.checkpoints / 24).max(1);
        for k in (1..=probe.checkpoints).step_by(step as usize) {
            let cancel = QueryBudget {
                cancel_after_checks: Some(k),
                ..QueryBudget::default()
            };
            let err = run(cancel, iql).unwrap_err();
            assert_eq!(
                err.budget_kind(),
                Some(BudgetKind::Cancelled),
                "{qname} at check {k}"
            );
            let partial = run(cancel.degrade_to_partial(), iql).unwrap().stats;
            assert!(partial.partial, "{qname} at check {k}");
            let after = partial.consumed.checkpoints - k;
            assert!(
                after <= plan_nodes + CHECKPOINTS_AFTER_TRIP,
                "{qname} at check {k}: {after} checkpoints after the trip"
            );
        }

        if probe.nodes == 0 {
            continue;
        }
        let step = (probe.nodes / 24).max(1);
        for limit in (0..probe.nodes).step_by(step as usize) {
            let nodes = QueryBudget {
                max_nodes: Some(limit),
                ..QueryBudget::default()
            };
            let err = run(nodes, iql).unwrap_err();
            assert_eq!(err.budget_kind(), Some(BudgetKind::Nodes), "{qname}");
            let partial = run(nodes.degrade_to_partial(), iql).unwrap().stats;
            assert!(partial.partial, "{qname} at {limit} nodes");
            assert!(
                partial.consumed.nodes <= limit + batch,
                "{qname} at {limit} nodes: charged {} (one batch item is at most {batch})",
                partial.consumed.nodes
            );
        }
    }
}
