//! Plan/exec agreement over the paper's Q1–Q8 workload: the operators
//! named in the rendered plan ARE the operators the executor counts in
//! `ExecStats::ops` — EXPLAIN cannot drift from execution because both
//! walk the same plan object.

use idm_bench::{build, BuildOptions, TABLE4_QUERIES};
use idm_query::{BuildSide, OperatorCounts, Plan, PlanOp};

fn bench_options() -> BuildOptions {
    BuildOptions {
        scale: 0.02,
        latency: false,
        with_rss: false,
    }
}

/// Counts the operator keywords in a rendered plan. Every render line
/// starts with exactly one operator name, so text counts must equal the
/// structural [`Plan::operator_counts`].
fn counts_from_text(rendered: &str) -> OperatorCounts {
    let mut counts = OperatorCounts::default();
    for line in rendered.lines() {
        let line = line.trim_start();
        if line.starts_with("IndexAccess ") {
            counts.index_accesses += 1;
        } else if line.starts_with("Scan ") {
            counts.scans += 1;
        } else if line.starts_with("Intersect ") {
            counts.intersects += 1;
        } else if line.starts_with("Union ") {
            counts.unions += 1;
        } else if line.starts_with("Complement ") {
            counts.complements += 1;
        } else if line.starts_with("Relate ") {
            counts.relates += 1;
        } else if line.starts_with("HashJoin ") {
            counts.hash_joins += 1;
        } else {
            panic!("unrecognized plan line: {line:?}");
        }
    }
    counts
}

#[test]
fn q1_to_q8_plans_agree_with_execution() {
    let bench = build(bench_options());
    let processor = bench.processor();

    for (qname, iql) in TABLE4_QUERIES {
        let plan = processor.plan_iql(iql).expect(qname);
        let planned = plan.operator_counts();
        assert_eq!(
            counts_from_text(&plan.render()),
            planned,
            "{qname}: rendered operators differ from the plan tree"
        );

        let executed = processor.execute(iql).expect(qname).stats.ops;
        assert_eq!(
            executed, planned,
            "{qname}: executed operators differ from the plan"
        );
    }
}

/// Snapshot of the operator shapes EXPLAIN must name for the workload —
/// the index accesses, expansions and joins of Table 4, as rendered
/// from the executable plan.
#[test]
fn q1_to_q8_explain_snapshots() {
    let bench = build(bench_options());
    let processor = bench.processor();
    let explain = |iql: &str| processor.explain(iql).expect("plan renders");

    let expectations: [(&str, &[&str]); 8] = [
        ("Q1", &[r#"IndexAccess ContentIndex phrase "database""#]),
        (
            "Q2",
            &[r#"IndexAccess ContentIndex phrase "database tuning""#],
        ),
        (
            "Q3",
            &[
                "Intersect (2 inputs, smallest-estimate first)",
                "IndexAccess TupleIndex size",
                "IndexAccess TupleIndex lastmodified",
            ],
        ),
        (
            "Q4",
            &[
                "Relate indirectly-related (//)",
                "Relate directly-related (/)",
                "IndexAccess NameIndex exact 'papers'",
                "IndexAccess NameIndex wildcard '*Vision'",
                r#"IndexAccess ContentIndex phrase "Franklin""#,
            ],
        ),
        (
            "Q5",
            &[
                "IndexAccess NameIndex wildcard 'VLDB200?'",
                "IndexAccess NameIndex wildcard '?onclusion*'",
                r#"IndexAccess ContentIndex phrase "systems""#,
            ],
        ),
        (
            "Q6",
            &[
                "Union (2 inputs, dedup)",
                "IndexAccess NameIndex exact 'VLDB2005'",
                "IndexAccess NameIndex exact 'VLDB2006'",
            ],
        ),
        (
            "Q7",
            &[
                "HashJoin on A.name = B.tuple.label",
                "IndexAccess Catalog class 'texref' (+ specializations)",
                "IndexAccess Catalog class 'environment' (+ specializations)",
                "IndexAccess NameIndex wildcard 'figure*'",
            ],
        ),
        (
            "Q8",
            &[
                "HashJoin on A.name = B.name",
                "IndexAccess Catalog class 'emailmessage' (+ specializations)",
                "IndexAccess NameIndex wildcard '*.tex'",
            ],
        ),
    ];

    for ((qname, iql), (ename, fragments)) in TABLE4_QUERIES.iter().zip(expectations) {
        assert_eq!(*qname, ename);
        let rendered = explain(iql);
        for fragment in fragments {
            assert!(
                rendered.contains(fragment),
                "{qname}: expected {fragment:?} in plan:\n{rendered}"
            );
        }
    }
}

/// The cost-driven rewrites are visible in the plan: intersections are
/// ordered by ascending estimate, and hash joins build on the side the
/// estimator says is smaller.
#[test]
fn rewrites_follow_cost_estimates() {
    let bench = build(bench_options());
    let processor = bench.processor();

    fn walk(node: &idm_query::PlanNode, seen: &mut usize) {
        match &node.op {
            PlanOp::Intersect(inputs) => {
                assert!(
                    inputs.windows(2).all(|w| w[0].est.rows <= w[1].est.rows),
                    "intersection inputs not estimate-ordered: {:?}",
                    inputs.iter().map(|n| n.est.rows).collect::<Vec<_>>()
                );
                *seen += 1;
                for input in inputs {
                    walk(input, seen);
                }
            }
            PlanOp::HashJoin {
                left, right, build, ..
            } => {
                let expected = if left.est.rows <= right.est.rows {
                    BuildSide::Left
                } else {
                    BuildSide::Right
                };
                assert_eq!(
                    *build, expected,
                    "build side contradicts estimates ({} vs {})",
                    left.est.rows, right.est.rows
                );
                *seen += 1;
                walk(left, seen);
                walk(right, seen);
            }
            PlanOp::UnionOp(inputs) => {
                for input in inputs {
                    walk(input, seen);
                }
            }
            PlanOp::Complement(inner) => walk(inner, seen),
            PlanOp::Relate {
                context,
                candidates,
                ..
            } => {
                walk(context, seen);
                walk(candidates, seen);
            }
            PlanOp::IndexAccess(_) | PlanOp::Scan => {}
        }
    }

    let mut cost_decisions = 0usize;
    for (qname, iql) in TABLE4_QUERIES {
        let plan: Plan = processor.plan_iql(iql).expect(qname);
        walk(&plan.root, &mut cost_decisions);
    }
    assert!(
        cost_decisions >= 3,
        "workload exercised too few cost decisions ({cost_decisions})"
    );
}

/// The Table 4 plans with their estimates, and their fingerprints,
/// byte for byte at sf 0.02: a change to how the front end lexes,
/// parses, estimates or canonicalizes must not move a decision, an
/// estimate or a result-cache key. `estimate_iql` is each plan's root
/// estimate.
#[test]
fn q1_to_q8_estimates_and_fingerprints_are_pinned() {
    let bench = build(bench_options());
    let processor = bench.processor();
    let pinned: [(&str, u64); 8] = [
        (
            r#"IndexAccess ContentIndex phrase "database"  (est. 18 rows, exact)
"#,
            0xb763f604846090c0,
        ),
        (
            r#"IndexAccess ContentIndex phrase "database tuning"  (est. 0 rows)
"#,
            0x76a00fb9d93008a9,
        ),
        (
            r#"Intersect (2 inputs, smallest-estimate first)  (est. 94 rows)
  IndexAccess TupleIndex lastmodified Lt Value(Date(Timestamp(1118534400)))  (est. 94 rows)
  IndexAccess TupleIndex size Gt Value(Integer(420000))  (est. 136 rows)
"#,
            0x61c41eddc16ec055,
        ),
        (
            r#"Relate directly-related (/)  (est. 1 rows)
  Relate indirectly-related (//)  (est. 1 rows)
    IndexAccess NameIndex exact 'papers'  (est. 1 rows, exact)
    IndexAccess NameIndex wildcard '*Vision'  (est. 105 rows)
  IndexAccess ContentIndex phrase "Franklin"  (est. 6 rows, exact)
"#,
            0x8e92a2f31f746a7a,
        ),
        (
            r#"Relate directly-related (/)  (est. 1 rows)
  Relate indirectly-related (//)  (est. 3 rows)
    IndexAccess NameIndex wildcard 'VLDB200?'  (est. 105 rows)
    IndexAccess NameIndex wildcard '?onclusion*'  (est. 105 rows)
  IndexAccess ContentIndex phrase "systems"  (est. 3 rows, exact)
"#,
            0x60f2d3946a870c62,
        ),
        (
            r#"Union (2 inputs, dedup)  (est. 2 rows)
  Relate indirectly-related (//)  (est. 1 rows)
    IndexAccess NameIndex exact 'VLDB2005'  (est. 1 rows, exact)
    IndexAccess ContentIndex phrase "documents"  (est. 3 rows, exact)
  Relate indirectly-related (//)  (est. 1 rows)
    IndexAccess NameIndex exact 'VLDB2006'  (est. 1 rows, exact)
    IndexAccess ContentIndex phrase "documents"  (est. 3 rows, exact)
"#,
            0xb663c319d4b52c1b,
        ),
        (
            r#"HashJoin on A.name = B.tuple.label, build=left (est. 1 vs 1)
  Relate indirectly-related (//)  (est. 1 rows)
    IndexAccess NameIndex exact 'VLDB2006'  (est. 1 rows, exact)
    IndexAccess Catalog class 'texref' (+ specializations)  (est. 2 rows, exact)
  Relate indirectly-related (//)  (est. 1 rows)
    Relate indirectly-related (//)  (est. 1 rows)
      IndexAccess NameIndex exact 'VLDB2006'  (est. 1 rows, exact)
      IndexAccess Catalog class 'environment' (+ specializations)  (est. 2 rows, exact)
    IndexAccess NameIndex wildcard 'figure*'  (est. 105 rows)
"#,
            0x5589cba4b88f378a,
        ),
        (
            r#"HashJoin on A.name = B.name, build=right (est. 3 vs 1), keys from B
  Relate indirectly-related (//)  (est. 3 rows)
    IndexAccess Catalog class 'emailmessage' (+ specializations)  (est. 127 rows, exact)
    IndexAccess NameIndex exact per join key matching '*.tex'  (est. 105 rows)
  Relate indirectly-related (//)  (est. 1 rows)
    IndexAccess NameIndex exact 'papers'  (est. 1 rows, exact)
    IndexAccess NameIndex wildcard '*.tex'  (est. 105 rows)
"#,
            0x0fc23cb9102f9bd2,
        ),
    ];
    for ((qname, iql), (text, fingerprint)) in TABLE4_QUERIES.iter().zip(pinned) {
        let plan = processor.plan_iql(iql).expect(qname);
        assert_eq!(plan.render_with_estimates(), text, "{qname}");
        assert_eq!(plan.fingerprint(), fingerprint, "{qname}");
        let unpassed = processor
            .plan_without_key_passing(&idm_query::parse(iql).expect(qname))
            .expect(qname);
        assert_eq!(
            processor.estimate_iql(iql).expect(qname),
            unpassed.root.est,
            "{qname}: estimate_iql is the plan's root estimate"
        );
    }
}
