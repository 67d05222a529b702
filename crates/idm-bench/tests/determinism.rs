//! Parallel-execution determinism: `parallelism = 1` and `parallelism = N`
//! must return identical, identically-ordered rows for the whole seed query
//! suite, across every expansion strategy, on repeated runs (run this under
//! `--release` too; the executor's chunking is deterministic by design).

use idm_bench::{build, BuildOptions, TABLE4_QUERIES};
use idm_query::{ExecOptions, ExpansionStrategy, QueryResult};

fn bench_options() -> BuildOptions {
    BuildOptions {
        scale: std::env::var("IDM_BENCH_SF")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.05),
        imap_latency_scale: 0.0,
        fs_latency_scale: 0.0,
        imap_sleep: false,
        with_rss: false,
    }
}

#[test]
fn parallel_execution_matches_sequential_rows_exactly() {
    let bench = build(bench_options());
    let strategies = [
        ExpansionStrategy::Forward,
        ExpansionStrategy::Backward,
        ExpansionStrategy::Bidirectional,
    ];
    // Several iterations: interleavings differ between runs, results must
    // not.
    for round in 0..3 {
        for strategy in strategies {
            let baseline: Vec<QueryResult> = {
                let processor = bench.processor(strategy);
                TABLE4_QUERIES
                    .iter()
                    .map(|(_, iql)| processor.execute(iql).expect("sequential run"))
                    .collect()
            };
            for parallelism in [2usize, 4, 8] {
                let processor = bench.processor(strategy).with_options(ExecOptions {
                    expansion: strategy,
                    parallelism,
                    ..ExecOptions::default()
                });
                for ((qname, iql), expect) in TABLE4_QUERIES.iter().zip(&baseline) {
                    let got = processor.execute(iql).expect("parallel run");
                    assert_eq!(
                        got.rows, expect.rows,
                        "{qname} rows differ (round {round}, {strategy:?}, \
                         parallelism {parallelism})"
                    );
                    // Candidate counts are interleaving-independent; only
                    // `nodes_expanded` may legally differ (chunk-local
                    // reverse-reachability caches).
                    assert_eq!(
                        got.stats.candidates_examined, expect.stats.candidates_examined,
                        "{qname} candidate counts differ (parallelism {parallelism})"
                    );
                }
            }
        }
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
    let first = bench.processor(ExpansionStrategy::Forward);
    let second = bench.processor(ExpansionStrategy::Forward);
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

/// Different expansion strategies are different plans: the strategy is
/// part of the recorded plan, so path queries must fingerprint apart
/// (the result cache must never serve a Forward result to a Backward
/// processor).
#[test]
fn fingerprints_separate_expansion_strategies() {
    let bench = build(bench_options());
    let forward = bench.processor(ExpansionStrategy::Forward);
    let backward = bench.processor(ExpansionStrategy::Backward);
    // Q4 is a path query, so its plan contains Relate nodes.
    let (_, q4) = TABLE4_QUERIES[3];
    let f = forward.plan_iql(q4).expect("forward plan");
    let b = backward.plan_iql(q4).expect("backward plan");
    assert_ne!(
        f.fingerprint(),
        b.fingerprint(),
        "strategy must be part of the plan identity"
    );
    // Q1 has no Relate nodes; the strategy is irrelevant and the plans
    // coincide — maximizing cache sharing where it is safe.
    let (_, q1) = TABLE4_QUERIES[0];
    assert_eq!(
        forward.plan_iql(q1).expect("q1").fingerprint(),
        backward.plan_iql(q1).expect("q1").fingerprint(),
        "strategy-independent plans should share a fingerprint"
    );
}

#[test]
fn parallelism_one_is_the_default_and_bitwise_stable() {
    let bench = build(bench_options());
    let p1 = bench.processor(ExpansionStrategy::Forward);
    assert_eq!(p1.options().parallelism, 1, "sequential by default");
    for (qname, iql) in TABLE4_QUERIES {
        let a = p1.execute(iql).expect("run a");
        let b = p1.execute(iql).expect("run b");
        assert_eq!(a.rows, b.rows, "{qname} not stable across runs");
        assert_eq!(
            a.stats.nodes_expanded, b.stats.nodes_expanded,
            "{qname} sequential stats not stable"
        );
    }
}
