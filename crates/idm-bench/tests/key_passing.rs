//! Sideways key passing over the Table 4 workload: Q8 hashes
//! `//papers//*.tex` and feeds its names to the email side as exact
//! name probes, with the rows of the plan that runs both sides on their
//! own; Q7's probe side has no name leaf, so its plan is untouched.

use idm_bench::{build, BuildOptions, TABLE4_QUERIES};
use idm_query::parse;

fn bench_options() -> BuildOptions {
    BuildOptions {
        scale: 0.02,
        latency: false,
        with_rss: false,
    }
}

#[test]
fn q8_probes_the_email_side_with_the_names_of_b() {
    let bench = build(bench_options());
    let (_, q8) = TABLE4_QUERIES[7];
    let query = parse(q8).unwrap();
    let processor = bench.processor();
    let explain = processor.explain(q8).unwrap();
    assert!(
        explain.starts_with("HashJoin on A.name = B.name, build=right, keys from B\n"),
        "{explain}"
    );
    assert!(
        explain.contains(
            "  Relate indirectly-related (//)\n\
             \x20   IndexAccess Catalog class 'emailmessage' (+ specializations)\n\
             \x20   IndexAccess NameIndex exact per join key matching '*.tex'\n"
        ),
        "{explain}"
    );
    assert!(
        explain.contains("IndexAccess NameIndex wildcard '*.tex'"),
        "B keeps its glob: {explain}"
    );

    let plain = processor.plan_without_key_passing(&query).unwrap();
    let want = processor.execute_plan(&plain).unwrap();
    let got = processor.execute(q8).unwrap();
    assert!(!want.rows.is_empty());
    assert_eq!(got.rows, want.rows);
    // The email side's leaf yields the files named by B only, not every
    // `.tex` view. Either plan may walk that step backward, so the edges
    // scanned are not compared.
    assert!(
        got.stats.candidates_examined < want.stats.candidates_examined,
        "{} vs {}",
        got.stats.candidates_examined,
        want.stats.candidates_examined
    );
}

#[test]
fn q7_plans_as_without_key_passing() {
    let bench = build(bench_options());
    let (_, q7) = TABLE4_QUERIES[6];
    let query = parse(q7).unwrap();
    let processor = bench.processor();
    assert_eq!(
        processor.plan(&query).unwrap(),
        processor.plan_without_key_passing(&query).unwrap(),
    );
    assert_eq!(
        processor.explain(q7).unwrap(),
        "HashJoin on A.name = B.tuple.label, build=left\n\
         \x20 Relate indirectly-related (//)\n\
         \x20   IndexAccess NameIndex exact 'VLDB2006'\n\
         \x20   IndexAccess Catalog class 'texref' (+ specializations)\n\
         \x20 Relate indirectly-related (//)\n\
         \x20   Relate indirectly-related (//)\n\
         \x20     IndexAccess NameIndex exact 'VLDB2006'\n\
         \x20     IndexAccess Catalog class 'environment' (+ specializations)\n\
         \x20   IndexAccess NameIndex wildcard 'figure*'\n"
    );
}
