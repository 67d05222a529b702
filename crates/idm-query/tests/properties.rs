//! Property-based tests: the iQL pipeline is total, predicates obey
//! boolean algebra over the catalog, and path steps keep exactly the
//! views `idm_core::graph` relates on random graphs, in every state the
//! group replica's labels can be in and after every kind of change.

use std::collections::HashSet;
use std::sync::Arc;

use idm_core::prelude::*;
use idm_index::IndexBundle;
use idm_query::{parse, AccessKind, ExecOptions, PlanOp, QueryBudget, QueryProcessor, ResultRows};
use proptest::prelude::*;

proptest! {
    /// Lexer + parser never panic on arbitrary input.
    #[test]
    fn parser_never_panics(input in ".{0,200}") {
        let _ = parse(&input);
    }

    /// Everything the parser accepts, the executor evaluates without
    /// panicking (against an empty dataspace).
    #[test]
    fn executor_total_on_parsed_queries(input in "[a-zA-Z0-9/\\[\\]\"*?<>=. ]{0,80}") {
        if parse(&input).is_ok() {
            let store = Arc::new(ViewStore::new());
            let indexes = Arc::new(IndexBundle::new());
            let processor = QueryProcessor::new(store, indexes);
            let _ = processor.execute(&input);
        }
    }
}

/// A random small dataspace: named views with content words, sizes and
/// random group edges.
#[derive(Debug, Clone)]
struct SpaceSpec {
    views: Vec<(String, String, i64)>, // (name, content word, size)
    edges: Vec<(usize, usize)>,
}

fn arb_space() -> impl Strategy<Value = SpaceSpec> {
    (
        proptest::collection::vec(("[ab]{1,4}", "[cd]{1,3}", 0i64..100), 1..12),
        proptest::collection::vec((0usize..12, 0usize..12), 0..25),
    )
        .prop_map(|(views, edges)| SpaceSpec { views, edges })
}

fn build_space(spec: &SpaceSpec) -> (Arc<ViewStore>, Arc<IndexBundle>) {
    let store = Arc::new(ViewStore::new());
    let indexes = Arc::new(IndexBundle::new());
    let vids: Vec<Vid> = spec
        .views
        .iter()
        .map(|(name, word, size)| {
            store
                .build(name.clone())
                .tuple(TupleComponent::of(vec![("size", Value::Integer(*size))]))
                .text(word.clone())
                .insert()
        })
        .collect();
    let mut adjacency: std::collections::HashMap<Vid, Vec<Vid>> = Default::default();
    for (a, b) in &spec.edges {
        let (a, b) = (a % vids.len(), b % vids.len());
        adjacency.entry(vids[a]).or_default().push(vids[b]);
    }
    for (parent, children) in adjacency {
        store.set_group(parent, Group::of_set(children)).unwrap();
    }
    for vid in store.vids() {
        indexes.index_view(&store, vid, "test").unwrap();
    }
    (store, indexes)
}

/// The views named `target` that `idm_core::graph` relates to a view
/// named `context` along `axis` (`"//"` or `"/"`), vid-sorted. `*`
/// names every view.
fn graph_rows(store: &ViewStore, context: &str, axis: &str, target: &str) -> Vec<Vid> {
    let named =
        |vid: Vid, name: &str| name == "*" || store.name(vid).unwrap().as_deref() == Some(name);
    let mut related: HashSet<Vid> = HashSet::new();
    for source in store.vids().into_iter().filter(|&vid| named(vid, context)) {
        related.extend(if axis == "//" {
            idm_core::graph::descendants(store, source, usize::MAX).unwrap()
        } else {
            idm_core::graph::directly_related(store, source).unwrap()
        });
    }
    let mut rows: Vec<Vid> = store
        .vids()
        .into_iter()
        .filter(|&vid| named(vid, target) && related.contains(&vid))
        .collect();
    rows.sort();
    rows
}

/// The path queries every replica state must answer as
/// [`graph_rows`] does, as `(context, axis, target)`.
fn path_shapes<'a>(ctx: &'a str, target: &'a str) -> [(&'a str, &'static str, &'a str); 4] {
    [
        (ctx, "//", target),
        (ctx, "/", target),
        (ctx, "//", "*"),
        ("*", "//", target),
    ]
}

proptest! {
    /// De Morgan over the catalog: NOT (a OR b) == (NOT a) AND (NOT b).
    #[test]
    fn de_morgan(space in arb_space(), w1 in "[cd]{1,3}", w2 in "[cd]{1,3}") {
        let (store, indexes) = build_space(&space);
        let processor = QueryProcessor::new(store, indexes);
        let lhs = processor
            .execute(&format!(r#"[not ("{w1}" or "{w2}")]"#))
            .unwrap()
            .rows;
        let rhs = processor
            .execute(&format!(r#"[not "{w1}" and not "{w2}"]"#))
            .unwrap()
            .rows;
        prop_assert_eq!(lhs, rhs);
    }

    /// AND is commutative; OR is idempotent.
    #[test]
    fn boolean_algebra(space in arb_space(), w1 in "[cd]{1,3}", w2 in "[cd]{1,3}") {
        let (store, indexes) = build_space(&space);
        let processor = QueryProcessor::new(store, indexes);
        let ab = processor.execute(&format!(r#"["{w1}" and "{w2}"]"#)).unwrap().rows;
        let ba = processor.execute(&format!(r#"["{w2}" and "{w1}"]"#)).unwrap().rows;
        prop_assert_eq!(ab, ba);
        let a = processor.execute(&format!(r#""{w1}""#)).unwrap().rows;
        let aa = processor.execute(&format!(r#"["{w1}" or "{w1}"]"#)).unwrap().rows;
        prop_assert_eq!(a, aa);
    }

    /// Every `//` and `/` step keeps exactly the views `idm_core::graph`
    /// relates to some context view, first with
    /// every view in the replica's overlay (as indexing leaves a small
    /// space) and then labeled. The `//*…` shapes put a context of every
    /// view above the candidates.
    #[test]
    fn descendant_step_semantics(space in arb_space(), ctx in "[ab]{1,4}", target in "[ab]{1,4}") {
        let (store, indexes) = build_space(&space);
        for labeled in [false, true] {
            if labeled {
                indexes.group.relabel();
            }
            for (c, t) in [(ctx.as_str(), target.as_str()), (ctx.as_str(), "*"), ("*", target.as_str())] {
                for axis in ["//", "/"] {
                    let query = format!("//{c}{axis}{t}");
                    let want = graph_rows(&store, c, axis, t);
                    let processor = QueryProcessor::new(Arc::clone(&store), Arc::clone(&indexes));
                    let got = processor.execute(&query).unwrap().rows.into_views();
                    prop_assert_eq!(&got, &want, "{}, labeled {}", query, labeled);
                }
            }
        }
    }

    /// Both kernels of a `//` step keep the rows `idm_core::graph` keeps
    /// on random graphs, in each state of the replica. With every view
    /// in the overlay the step may take either kernel; labeled, the
    /// candidates of a small space are usually fewer than the positions
    /// and are tested; padded with more isolated views named `target`
    /// than the space holds, the candidates outnumber the positions and
    /// the step enumerates the ranges. Isolated views relate to nothing
    /// and join no overlay, so every state must answer as the bare
    /// graph.
    #[test]
    fn strategies_agree_on_random_graphs(space in arb_space(),
                                         ctx in "[ab]{1,4}", target in "[ab]{1,4}") {
        let (store, indexes) = build_space(&space);
        let overlay = QueryProcessor::new(Arc::clone(&store), indexes);
        let labeled = |padding: usize| {
            let (store, indexes) = build_space(&space);
            for _ in 0..padding {
                let vid = store.build(target.as_str()).insert();
                indexes.index_view(&store, vid, "test").unwrap();
            }
            indexes.group.relabel();
            QueryProcessor::new(store, indexes)
        };
        let states = [("overlay", overlay), ("labeled", labeled(0)), ("padded", labeled(space.views.len() + 1))];
        for (c, axis, t) in path_shapes(&ctx, &target) {
            let query = format!("//{c}{axis}{t}");
            let want = graph_rows(&store, c, axis, t);
            for (state, processor) in &states {
                let got = processor.execute(&query).unwrap().rows.into_views();
                prop_assert_eq!(&got, &want, "{} on {}", state, query);
            }
        }
    }

    /// Cancellation soundness (the resource-governance satellite): for a
    /// mixed Q1–Q8-shaped workload over random dataspaces, cancel at
    /// EVERY cooperative checkpoint (enumerated with a probe budget) and
    /// assert:
    ///
    /// - strict mode surfaces `ResourceExhausted` (never a panic, never
    ///   a hang — parking_lot locks cannot poison);
    /// - partial mode returns a sound SUBSET of the true rows with the
    ///   plan/exec operator-count invariant intact;
    /// - the store's invariants still hold afterwards; and
    /// - an unbudgeted rerun on the SAME processor is identical to a
    ///   fresh unbudgeted baseline (no state corruption from the abort).
    #[test]
    fn cancellation_at_every_checkpoint_is_sound(space in arb_space(),
                                                 ctx in "[ab]{1,4}", target in "[ab]{1,4}") {
        let (store, indexes) = build_space(&space);
        let queries = [
            r#""c""#.to_string(),
            r#"["c" and "d"]"#.to_string(),
            "[size > 50]".to_string(),
            format!("//{ctx}//{target}"),
            format!("//{ctx}/*"),
            format!(r#"union( "{target}", //{ctx}//* )"#),
            r#"[not "c"]"#.to_string(),
            format!("join( //{ctx}//* as A, //{target}//* as B, A.name = B.name )"),
        ];
        let with_budget = |budget: QueryBudget| {
            QueryProcessor::new(Arc::clone(&store), Arc::clone(&indexes)).with_options(
                ExecOptions { budget, ..ExecOptions::default() },
            )
        };
        for iql in &queries {
            let baseline = with_budget(QueryBudget::none()).execute(iql).unwrap();
            let plan = with_budget(QueryBudget::none()).plan_iql(iql).unwrap();
            // A probe budget (enabled tracker, limits never trip)
            // must not change the rows.
            let probed = with_budget(QueryBudget::probe()).execute(iql).unwrap();
            prop_assert_eq!(&probed.rows, &baseline.rows, "probe changed rows of {}", iql);
            let total = probed.stats.consumed.checkpoints;
            // Exhaustive for small checkpoint counts, sampled past 48
            // to bound runtime.
            let step = (total / 48).max(1);
            let mut k = 1;
            while k <= total {
                let strict = with_budget(QueryBudget {
                    cancel_after_checks: Some(k),
                    ..QueryBudget::default()
                });
                let err = strict.execute(iql).unwrap_err();
                prop_assert_eq!(
                    err.budget_kind(),
                    Some(idm_core::error::BudgetKind::Cancelled),
                    "strict cancel at {} of {}", k, iql
                );
                // The aborted processor is not poisoned: lifting the
                // budget on the SAME processor reproduces baseline.
                let mut strict = strict;
                strict.set_budget(QueryBudget::none());
                let rerun = strict.execute(iql).unwrap();
                prop_assert_eq!(&rerun.rows, &baseline.rows, "rerun after abort at {}", k);

                let partial = with_budget(QueryBudget {
                    cancel_after_checks: Some(k),
                    partial: true,
                    ..QueryBudget::default()
                });
                let r = partial.execute(iql).unwrap();
                prop_assert!(r.stats.partial, "partial flag at {} of {}", k, iql);
                prop_assert_eq!(
                    r.stats.ops, plan.operator_counts(),
                    "ops invariant under truncation at {} of {}", k, iql
                );
                match (&r.rows, &baseline.rows) {
                    (ResultRows::Views(sub), ResultRows::Views(full)) => {
                        for vid in sub {
                            prop_assert!(full.contains(vid), "superset row at {}", k);
                        }
                    }
                    (ResultRows::Pairs(sub), ResultRows::Pairs(full)) => {
                        for pair in sub {
                            prop_assert!(full.contains(pair), "superset pair at {}", k);
                        }
                    }
                    _ => prop_assert!(false, "row shape changed under truncation"),
                }
                k += step;
            }
        }
        // The read path never mutated the store.
        let report = store.verify_invariants();
        prop_assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    /// Union over subqueries equals the set union of their results.
    #[test]
    fn union_semantics(space in arb_space(), w1 in "[cd]{1,3}", w2 in "[cd]{1,3}") {
        let (store, indexes) = build_space(&space);
        let processor = QueryProcessor::new(store, indexes);
        let union = processor
            .execute(&format!(r#"union( "{w1}", "{w2}" )"#))
            .unwrap()
            .rows
            .views();
        let mut manual: Vec<Vid> = processor
            .execute(&format!(r#""{w1}""#))
            .unwrap()
            .rows
            .views();
        manual.extend(processor.execute(&format!(r#""{w2}""#)).unwrap().rows.views());
        manual.sort();
        manual.dedup();
        prop_assert_eq!(union, manual);
    }
}

/// One change of a mutation script, written to the store and to the
/// indexes the way the sync managers write it. Indices pick among the
/// live views, modulo their number.
#[derive(Debug, Clone)]
enum Mutation {
    /// A new view `name` holding a new leaf `leaf`, attached under a view.
    Attach {
        under: usize,
        name: String,
        leaf: String,
    },
    /// A view gains an existing view as one more member: a side edge,
    /// a repeated member, a self-loop or a cycle.
    Link { from: usize, to: usize },
    /// A view leaves the store and the indexes; edges into it dangle.
    Remove { at: usize },
    /// A view leaves every group that holds it and joins another's.
    Move { at: usize, under: usize },
    /// A view's unchanged members are indexed again.
    Reindex { at: usize },
    /// A folder of [`FLOOD`] new views attached under a view: more than
    /// the overlay holds before the replica relabels.
    Flood { under: usize },
}

/// Views a [`Mutation::Flood`] attaches besides its folder.
const FLOOD: usize = 1_024;

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        3 => (0usize..64, "[ab]{1,4}", "[ab]{1,4}")
            .prop_map(|(under, name, leaf)| Mutation::Attach { under, name, leaf }),
        3 => (0usize..64, 0usize..64).prop_map(|(from, to)| Mutation::Link { from, to }),
        2 => (0usize..64).prop_map(|at| Mutation::Remove { at }),
        3 => (0usize..64, 0usize..64).prop_map(|(at, under)| Mutation::Move { at, under }),
        2 => (0usize..64).prop_map(|at| Mutation::Reindex { at }),
        1 => (0usize..64).prop_map(|under| Mutation::Flood { under }),
    ]
}

/// Indexes `parent`'s members as the store holds them.
fn index_group(store: &ViewStore, indexes: &IndexBundle, parent: Vid) {
    let members = store.group(parent).unwrap().finite_members();
    indexes.group.index(parent, &members);
}

/// Inserts and indexes a view named `name` holding `members`.
fn insert_view(store: &ViewStore, indexes: &IndexBundle, name: &str, members: Vec<Vid>) -> Vid {
    let vid = store.build(name).text("c").children(members).insert();
    indexes.index_view(store, vid, "test").unwrap();
    vid
}

fn apply(store: &ViewStore, indexes: &IndexBundle, mutation: &Mutation) {
    if store.is_empty() {
        insert_view(store, indexes, "a", Vec::new());
    }
    let live = store.vids();
    let pick = |i: usize| live[i % live.len()];
    let attach = |under: usize, root: Vid| {
        let under = pick(under);
        store.add_group_member(under, root, false).unwrap();
        index_group(store, indexes, under);
    };
    match mutation {
        Mutation::Attach { under, name, leaf } => {
            let leaf = insert_view(store, indexes, leaf, Vec::new());
            attach(*under, insert_view(store, indexes, name, vec![leaf]));
        }
        Mutation::Link { from, to } => attach(*from, pick(*to)),
        Mutation::Remove { at } => {
            let vid = pick(*at);
            indexes.remove_view(vid);
            store.remove(vid).unwrap();
        }
        Mutation::Move { at, under } => {
            let vid = pick(*at);
            for parent in live.iter().copied() {
                let members = store.group(parent).unwrap().finite_members();
                if members.contains(&vid) {
                    let kept = members.into_iter().filter(|&m| m != vid).collect();
                    store.set_group(parent, Group::of_set(kept)).unwrap();
                    index_group(store, indexes, parent);
                }
            }
            attach(*under, vid);
        }
        Mutation::Reindex { at } => index_group(store, indexes, pick(*at)),
        Mutation::Flood { under } => {
            let leaves = (0..FLOOD)
                .map(|_| insert_view(store, indexes, "z", Vec::new()))
                .collect();
            attach(*under, insert_view(store, indexes, "z", leaves));
        }
    }
}

proptest! {
    /// Path steps keep answering as `idm_core::graph` while the store
    /// changes under labels computed once: after each step of a random
    /// script, every path shape matches the graph. Moves and detaches must take the moved subtree out of the
    /// intervals that no longer hold it; a flood crosses the overlay
    /// limit, so the replica relabels inside one `index` call.
    #[test]
    fn relate_matches_the_store_under_mutation(space in arb_space(),
                                               script in proptest::collection::vec(arb_mutation(), 1..=12),
                                               ctx in "[ab]{1,4}", target in "[ab]{1,4}") {
        let (store, indexes) = build_space(&space);
        indexes.group.relabel();
        let processor = QueryProcessor::new(Arc::clone(&store), Arc::clone(&indexes));
        for (step, mutation) in script.iter().enumerate() {
            apply(&store, &indexes, mutation);
            for (c, axis, t) in path_shapes(&ctx, &target) {
                let query = format!("//{c}{axis}{t}");
                let want = graph_rows(&store, c, axis, t);
                let got = processor.execute(&query).unwrap().rows.into_views();
                prop_assert_eq!(&got, &want, "{} after step {} ({:?})", query, step, mutation);
            }
        }
    }
}

/// The names both sides of a join draw from: names repeated across
/// the dataspace, globs' matches and misses, and the empty name (which
/// is no join key).
const NAME_POOL: [&str; 5] = ["", "a.tex", "b.tex", "ab", "b"];

/// A random view graph for the sideways key-passing rewrite.
#[derive(Debug, Clone)]
struct JoinSpace {
    /// (name, tuple attribute `x`, is a folder), names from [`NAME_POOL`].
    views: Vec<(usize, usize, bool)>,
    /// Group edges between views (cycles allowed).
    edges: Vec<(usize, usize)>,
    /// Folder links: a `folderlink` view in the first view's group whose
    /// own group holds the second view.
    links: Vec<(usize, usize)>,
}

fn arb_join_space() -> impl Strategy<Value = JoinSpace> {
    (
        proptest::collection::vec((0usize..5, 0usize..5, any::<bool>()), 1..14),
        proptest::collection::vec((0usize..14, 0usize..14), 0..25),
        proptest::collection::vec((0usize..14, 0usize..14), 0..4),
    )
        .prop_map(|(views, edges, links)| JoinSpace {
            views,
            edges,
            links,
        })
}

fn build_join_space(spec: &JoinSpace) -> (Arc<ViewStore>, Arc<IndexBundle>) {
    let store = Arc::new(ViewStore::new());
    let indexes = Arc::new(IndexBundle::new());
    let vids: Vec<Vid> = spec
        .views
        .iter()
        .map(|&(name, x, folder)| {
            store
                .build(NAME_POOL[name])
                .tuple(TupleComponent::of(vec![(
                    "x",
                    Value::Text(NAME_POOL[x].to_owned()),
                )]))
                .class_named(if folder { "folder" } else { "file" })
                .insert()
        })
        .collect();
    let at = |i: usize| vids[i % vids.len()];
    let mut groups: std::collections::BTreeMap<Vid, Vec<Vid>> = Default::default();
    for &(a, b) in &spec.edges {
        groups.entry(at(a)).or_default().push(at(b));
    }
    for &(parent, target) in &spec.links {
        let link = store
            .build("link")
            .class_named("folderlink")
            .children(vec![at(target)])
            .insert();
        groups.entry(at(parent)).or_default().push(link);
    }
    for (parent, children) in groups {
        store.set_group(parent, Group::of_set(children)).unwrap();
    }
    for vid in store.vids() {
        indexes.index_view(&store, vid, "test").unwrap();
    }
    (store, indexes)
}

/// Join inputs: `{n}` is a name, `{g}` a last-step pattern. All but the
/// last have a name leaf in their last step.
const JOIN_SIDES: [&str; 6] = [
    "//{g}",
    "//{n}//{g}",
    "//{n}/{g}",
    r#"//*[class="folder"]//{g}"#,
    r#"//{n}//{g}[class="file"]"#,
    "//{n}//*",
];
const STEP_NAMES: [&str; 5] = ["a.tex", "b.tex", "ab", "b", "link"];
const STEP_GLOBS: [&str; 6] = ["*.tex", "a*", "*b", "b", "?b", "*"];
const JOIN_CONDITIONS: [&str; 4] = [
    "A.name = B.name",
    "A.name = B.tuple.x",
    "A.tuple.x = B.name",
    "B.name = A.name",
];
/// Whether A's and B's key in each condition is the tuple attribute `x`
/// (else the name).
const JOIN_KEYS_ARE_X: [(bool, bool); 4] =
    [(false, false), (false, true), (true, false), (false, false)];

/// A join's pairs by nested loop over the rows of its two sides: what
/// any build table must produce. An empty key pairs with nothing.
fn nested_loop_join(
    processor: &QueryProcessor,
    store: &ViewStore,
    indexes: &IndexBundle,
    (a_iql, b_iql): (&str, &str),
    (a_is_x, b_is_x): (bool, bool),
) -> Vec<(Vid, Vid)> {
    let key = |vid: Vid, is_x: bool| -> Option<String> {
        let key = if is_x {
            indexes.tuple.value_of(vid, "x").map(|v| v.to_string())
        } else {
            store.name(vid).unwrap()
        };
        key.filter(|key| !key.is_empty())
    };
    let a_rows = processor.execute(a_iql).unwrap().rows.into_views();
    let b_rows = processor.execute(b_iql).unwrap().rows.into_views();
    let mut pairs = Vec::new();
    for &a in &a_rows {
        for &b in &b_rows {
            if let (Some(ka), Some(kb)) = (key(a, a_is_x), key(b, b_is_x)) {
                if ka == kb {
                    pairs.push((a, b));
                }
            }
        }
    }
    pairs.sort();
    pairs
}

fn join_side(shape: usize, name: usize, glob: usize) -> String {
    JOIN_SIDES[shape]
        .replace("{n}", STEP_NAMES[name])
        .replace("{g}", STEP_GLOBS[glob])
}

/// Whether any leaf of the plan reads a join's keys sideways.
fn passes_keys(node: &idm_query::PlanNode) -> bool {
    match &node.op {
        PlanOp::IndexAccess(access) => matches!(access, AccessKind::NameByKeys(_)),
        PlanOp::Intersect(inputs) | PlanOp::UnionOp(inputs) => inputs.iter().any(passes_keys),
        PlanOp::Complement(input) => passes_keys(input),
        PlanOp::Relate {
            context,
            candidates,
            ..
        } => passes_keys(context) || passes_keys(candidates),
        PlanOp::HashJoin { left, right, .. } => passes_keys(left) || passes_keys(right),
        PlanOp::Scan => false,
    }
}

proptest! {
    /// Sideways key passing never changes a join's rows: the planned
    /// query equals the same plan without the rewrite pass, and both the
    /// nested loop over the two sides' rows, and under a partial budget
    /// tripped at any checkpoint its rows stay a subset.
    #[test]
    fn key_passing_keeps_the_rows_of_the_plan_without_it(
        space in arb_join_space(),
        left in (0usize..6, 0usize..5, 0usize..6),
        right in (0usize..6, 0usize..5, 0usize..6),
        condition in 0usize..4,
    ) {
        let (store, indexes) = build_join_space(&space);
        let (a_iql, b_iql) = (join_side(left.0, left.1, left.2), join_side(right.0, right.1, right.2));
        let iql = format!("join( {a_iql} as A, {b_iql} as B, {} )", JOIN_CONDITIONS[condition]);
        let query = parse(&iql).unwrap();
        let processor = QueryProcessor::new(Arc::clone(&store), Arc::clone(&indexes));
        let nested = nested_loop_join(
            &processor,
            &store,
            &indexes,
            (&a_iql, &b_iql),
            JOIN_KEYS_ARE_X[condition],
        );
        let rewritten = processor.plan(&query).unwrap();
        let plain = processor.plan_without_key_passing(&query).unwrap();
        prop_assert!(!passes_keys(&plain.root), "{}", iql);
        let want = processor.execute_plan(&plain).unwrap().rows;
        prop_assert_eq!(&want, &ResultRows::Pairs(nested), "{}", iql);
        let got = processor.execute_plan(&rewritten).unwrap();
        prop_assert_eq!(&got.rows, &want, "{}:\n{}", iql, rewritten.render());
        prop_assert_eq!(got.stats.ops, rewritten.operator_counts());

        let ResultRows::Pairs(want) = want else {
            panic!("a join yields pairs");
        };
        let total = processor
            .execute_plan_with(&rewritten, QueryBudget::probe())
            .unwrap()
            .stats
            .consumed
            .checkpoints;
        let step = (total / 16).max(1);
        for k in (1..=total).step_by(step as usize) {
            let budget = QueryBudget {
                cancel_after_checks: Some(k),
                partial: true,
                ..QueryBudget::default()
            };
            let partial = processor.execute_plan_with(&rewritten, budget).unwrap();
            let ResultRows::Pairs(pairs) = &partial.rows else {
                panic!("a join yields pairs");
            };
            for pair in pairs {
                prop_assert!(want.contains(pair), "{} tripped at {}: {:?}", iql, k, pair);
            }
        }
    }
}

// ---- The lexer against the seed's, and the one estimator ---------------

/// The seed's lexer, char-based and allocating, kept as the oracle of
/// the borrowing one. Its variants carry owned text, so the two token
/// streams compare as their `Debug` text.
mod seed {
    use idm_core::prelude::{IdmError, Result, Timestamp};

    // The fields are read through `Debug` only.
    #[allow(dead_code)]
    #[derive(Debug)]
    pub enum Token {
        DoubleSlash,
        Slash,
        LBracket,
        RBracket,
        LParen,
        RParen,
        Comma,
        Eq,
        Ne,
        Lt,
        Le,
        Gt,
        Ge,
        Phrase(String),
        Date(Timestamp),
        Word(String),
    }

    pub fn lex(input: &str) -> Result<Vec<Token>> {
        let mut tokens = Vec::new();
        let chars: Vec<char> = input.chars().collect();
        let mut i = 0usize;

        fn is_word_char(c: char) -> bool {
            c.is_alphanumeric() || matches!(c, '_' | '*' | '?' | '.' | ':' | '-' | '\'')
        }

        while i < chars.len() {
            let c = chars[i];
            match c {
                c if c.is_whitespace() => i += 1,
                '/' => {
                    if chars.get(i + 1) == Some(&'/') {
                        tokens.push(Token::DoubleSlash);
                        i += 2;
                    } else {
                        tokens.push(Token::Slash);
                        i += 1;
                    }
                }
                '[' => {
                    tokens.push(Token::LBracket);
                    i += 1;
                }
                ']' => {
                    tokens.push(Token::RBracket);
                    i += 1;
                }
                '(' => {
                    tokens.push(Token::LParen);
                    i += 1;
                }
                ')' => {
                    tokens.push(Token::RParen);
                    i += 1;
                }
                ',' => {
                    tokens.push(Token::Comma);
                    i += 1;
                }
                '=' => {
                    tokens.push(Token::Eq);
                    i += 1;
                }
                '!' => {
                    if chars.get(i + 1) == Some(&'=') {
                        tokens.push(Token::Ne);
                        i += 2;
                    } else {
                        return Err(IdmError::Parse {
                            detail: "iql: lone '!' (did you mean '!=' or 'not'?)".into(),
                        });
                    }
                }
                '<' => {
                    if chars.get(i + 1) == Some(&'=') {
                        tokens.push(Token::Le);
                        i += 2;
                    } else {
                        tokens.push(Token::Lt);
                        i += 1;
                    }
                }
                '>' => {
                    if chars.get(i + 1) == Some(&'=') {
                        tokens.push(Token::Ge);
                        i += 2;
                    } else {
                        tokens.push(Token::Gt);
                        i += 1;
                    }
                }
                '"' => {
                    let start = i + 1;
                    let mut j = start;
                    while j < chars.len() && chars[j] != '"' {
                        j += 1;
                    }
                    if j == chars.len() {
                        return Err(IdmError::Parse {
                            detail: "iql: unterminated string".into(),
                        });
                    }
                    tokens.push(Token::Phrase(chars[start..j].iter().collect()));
                    i = j + 1;
                }
                '@' => {
                    let start = i + 1;
                    let mut j = start;
                    while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '.') {
                        j += 1;
                    }
                    let text: String = chars[start..j].iter().collect();
                    tokens.push(Token::Date(Timestamp::parse_dmy(&text)?));
                    i = j;
                }
                c if is_word_char(c) => {
                    let start = i;
                    let mut j = i;
                    while j < chars.len() && is_word_char(chars[j]) {
                        j += 1;
                    }
                    tokens.push(Token::Word(chars[start..j].iter().collect()));
                    i = j;
                }
                other => {
                    return Err(IdmError::Parse {
                        detail: format!("iql: unexpected character '{other}'"),
                    })
                }
            }
        }
        Ok(tokens)
    }
}

/// What the lexers make of a text: the tokens' `Debug` text, or the
/// error message.
fn lexed<T: std::fmt::Debug>(tokens: Result<Vec<T>>) -> String {
    match tokens {
        Ok(tokens) => format!("{tokens:?}"),
        Err(e) => format!("error: {e}"),
    }
}

/// Pieces of iQL text and of what is not: non-ASCII letters and
/// digits, Unicode whitespace (U+00A0, U+3000, U+0085, a vertical tab),
/// a char whose lowercase is not alphanumeric, quotes, dates good and
/// bad, `!`, and every operator.
const LEX_PIECES: [&str; 44] = [
    "a",
    "Z",
    "9",
    "size",
    "union",
    " ",
    "\t",
    "\n",
    "\u{b}",
    "\u{85}",
    "\u{a0}",
    "\u{3000}",
    "ß",
    "é",
    "漢",
    "٣",
    "İ",
    "😀",
    "\"",
    "\"dat abase\"",
    "@",
    "@12.06.2005",
    "@1.2",
    "@99.99.9999",
    "!",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    "=",
    "/",
    "//",
    "[",
    "]",
    "(",
    ")",
    ",",
    "*",
    "?",
    ".:-'_",
    "#",
    "%",
    "+",
];

proptest! {
    /// The borrowing lexer gives the seed's token stream, or fails with
    /// the seed's message, on any text.
    #[test]
    fn lexer_agrees_with_the_seed(
        picks in proptest::collection::vec(0usize..LEX_PIECES.len(), 0..30),
        raw in ".{0,60}",
    ) {
        let text: String = picks.iter().map(|&i| LEX_PIECES[i]).collect();
        for input in [text.as_str(), raw.as_str()] {
            prop_assert_eq!(
                lexed(idm_query::lexer::lex(input)),
                lexed(seed::lex(input)),
                "{:?}", input
            );
        }
    }
}

/// A random query over [`arb_space`]'s names, words and sizes, drawn
/// from `tape`: paths of up to three steps with predicates, filters
/// with nested `and` / `or` / `not`, unions and joins.
fn tape_query(tape: &mut impl Iterator<Item = usize>, depth: usize) -> String {
    fn pred(tape: &mut impl Iterator<Item = usize>, depth: usize) -> String {
        let mut pick = |n| tape.next().unwrap_or(0) % n;
        match pick(if depth > 2 { 3 } else { 6 }) {
            0 => ["\"c\"", "\"dd\"", "\"cd\"", "\"c d\""][pick(4)].to_owned(),
            1 => ["class=\"file\"", "class=\"folder\"", "class=\"nope\""][pick(3)].to_owned(),
            2 => format!("size {} {}", ["=", "!=", "<", ">="][pick(4)], pick(100)),
            3 => format!("({} and {})", pred(tape, depth + 1), pred(tape, depth + 1)),
            4 => format!("({} or {})", pred(tape, depth + 1), pred(tape, depth + 1)),
            _ => format!("not {}", pred(tape, depth + 1)),
        }
    }
    fn path(tape: &mut impl Iterator<Item = usize>) -> String {
        let mut out = String::new();
        for _ in 0..=tape.next().unwrap_or(0) % 3 {
            let (axis, name, with_pred) = {
                let mut pick = |n| tape.next().unwrap_or(0) % n;
                (
                    ["//", "/"][pick(2)],
                    ["a", "ab", "*", "b*", "?"][pick(5)],
                    pick(3) == 0,
                )
            };
            out.push_str(axis);
            out.push_str(name);
            if with_pred {
                out.push_str(&format!("[{}]", pred(tape, 0)));
            }
        }
        out
    }
    match tape.next().unwrap_or(0) % if depth > 0 { 2 } else { 4 } {
        0 => path(tape),
        1 => format!("[{}]", pred(tape, 0)),
        2 => format!(
            "union({}, {})",
            tape_query(tape, depth + 1),
            tape_query(tape, depth + 1)
        ),
        _ => format!(
            "join({} as A, {} as B, A.name = B.name)",
            path(tape),
            path(tape)
        ),
    }
}

/// Checks that every `Intersect`, `UnionOp` and `Complement` node is
/// estimated from its children by the estimator's rule.
fn check_estimates(node: &idm_query::PlanNode, universe: usize) {
    fn child_rows(inputs: &[idm_query::PlanNode]) -> impl Iterator<Item = usize> + '_ {
        inputs.iter().map(|n| n.est.rows)
    }
    match &node.op {
        PlanOp::Intersect(inputs) => {
            assert_eq!(node.est.rows, child_rows(inputs).min().unwrap_or(0));
            inputs.iter().for_each(|n| check_estimates(n, universe));
        }
        PlanOp::UnionOp(inputs) => {
            assert_eq!(
                node.est.rows,
                child_rows(inputs).sum::<usize>().min(universe)
            );
            inputs.iter().for_each(|n| check_estimates(n, universe));
        }
        PlanOp::Complement(inner) => {
            assert_eq!(node.est.rows, universe.saturating_sub(inner.est.rows));
            check_estimates(inner, universe);
        }
        PlanOp::Relate {
            context,
            candidates,
            ..
        } => {
            check_estimates(context, universe);
            check_estimates(candidates, universe);
        }
        PlanOp::HashJoin { left, right, .. } => {
            assert_eq!(node.est.rows, left.est.rows.min(right.est.rows));
            check_estimates(left, universe);
            check_estimates(right, universe);
        }
        PlanOp::IndexAccess(_) | PlanOp::Scan => {}
    }
}

proptest! {
    /// `estimate_iql` is the root estimate of the plan without key
    /// passing, and each inner node's estimate is its rule applied to
    /// its children's, on random queries over random dataspaces.
    #[test]
    fn estimate_iql_is_the_plans_root_estimate(
        space in arb_space(),
        tapes in proptest::collection::vec(proptest::collection::vec(0usize..1000, 40), 8),
    ) {
        let (store, indexes) = build_space(&space);
        let universe = indexes.catalog.len();
        let processor = QueryProcessor::new(store, indexes);
        for tape in tapes {
            let iql = tape_query(&mut tape.into_iter(), 0);
            let plan = processor
                .plan_without_key_passing(&parse(&iql).unwrap())
                .unwrap();
            prop_assert_eq!(processor.estimate_iql(&iql).unwrap(), plan.root.est, "{}", iql);
            check_estimates(&plan.root, universe);
        }
    }
}
