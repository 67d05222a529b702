//! Parallel-execution determinism: `parallelism = 1` and `parallelism = N`
//! must return identical, identically-ordered rows for the whole seed query
//! suite on repeated runs (run this under
//! `--release` too; the executor's chunking is deterministic by design).

use idm_bench::{build, BuildOptions, TABLE4_QUERIES};
use idm_query::{ExecOptions, QueryResult};

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
    // Several iterations: interleavings differ between runs, results must
    // not. Q5 and Q8's email side walk backward, the other steps forward.
    for round in 0..3 {
        let baseline: Vec<QueryResult> = {
            let processor = bench.processor();
            TABLE4_QUERIES
                .iter()
                .map(|(_, iql)| processor.execute(iql).expect("sequential run"))
                .collect()
        };
        for parallelism in [2usize, 4, 8] {
            let processor = bench.processor().with_options(ExecOptions {
                parallelism,
                ..ExecOptions::default()
            });
            for ((qname, iql), expect) in TABLE4_QUERIES.iter().zip(&baseline) {
                let got = processor.execute(iql).expect("parallel run");
                assert_eq!(
                    got.rows, expect.rows,
                    "{qname} rows differ (round {round}, parallelism {parallelism})"
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

#[test]
fn parallelism_one_is_the_default_and_bitwise_stable() {
    let bench = build(bench_options());
    let p1 = bench.processor();
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
