//! Determinism over the Table 4 workload: planning the same query over
//! the same catalog statistics yields the same plan, and executing it
//! again — on the same processor or on a fresh one — yields the same
//! whole `QueryResult`: rows, row order and every `ExecStats` field,
//! unbudgeted and under a probe budget (run this under `--release`
//! too).

use idm_bench::{build, BuildOptions, TABLE4_QUERIES};
use idm_query::QueryBudget;

fn bench_options() -> BuildOptions {
    BuildOptions {
        scale: std::env::var("IDM_BENCH_SF")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.05),
        latency: false,
        with_rss: false,
    }
}

/// Planner determinism: the same query over the same catalog statistics
/// must produce a byte-identical plan — same render, same fingerprint —
/// on repeated plans and across independently constructed processors.
/// The result cache keys on the fingerprint, so any instability here
/// would silently turn cache hits into misses (or worse, collisions
/// into wrong answers).
#[test]
fn planning_is_deterministic_for_fixed_catalog_stats() {
    let bench = build(bench_options());
    let first = bench.processor();
    let second = bench.processor();
    for (qname, iql) in TABLE4_QUERIES {
        let a = first.plan_iql(iql).expect(qname);
        let b = first.plan_iql(iql).expect(qname);
        let c = second.plan_iql(iql).expect(qname);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "{qname}: fingerprint unstable across repeated plans"
        );
        assert_eq!(
            a.fingerprint(),
            c.fingerprint(),
            "{qname}: fingerprint differs between processors over the same stats"
        );
        assert_eq!(
            a.render(),
            c.render(),
            "{qname}: rendered plan differs between processors"
        );
        assert_eq!(
            a.render_with_estimates(),
            c.render_with_estimates(),
            "{qname}: estimates differ between processors over the same stats"
        );
    }
}

/// Execution determinism: two runs on one processor and one run each on
/// two fresh processors return equal `QueryResult`s, with every counter
/// of `ExecStats` — the budget's consumption included under a probe.
#[test]
fn reruns_are_bitwise_stable() {
    let bench = build(bench_options());
    for budget in [QueryBudget::none(), QueryBudget::probe()] {
        let processor = || {
            let mut processor = bench.processor();
            processor.set_budget(budget);
            processor
        };
        let (p, q, r) = (processor(), processor(), processor());
        for (qname, iql) in TABLE4_QUERIES {
            let first = p.execute(iql).expect(qname);
            assert_eq!(
                p.execute(iql).expect(qname),
                first,
                "{qname}: rerun differs"
            );
            assert_eq!(
                q.execute(iql).expect(qname),
                first,
                "{qname}: a fresh processor differs"
            );
            assert_eq!(
                r.execute(iql).expect(qname),
                first,
                "{qname}: a second fresh processor differs"
            );
            assert_eq!(
                first.stats.consumed.checkpoints > 0,
                budget.is_limited(),
                "{qname}: the probe counts checkpoints, no budget counts none"
            );
        }
    }
}
