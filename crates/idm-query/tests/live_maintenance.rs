//! Seeded property test for incremental view maintenance: interleave
//! random store mutations with delta maintenance of standing queries
//! spanning every maintainable plan shape (index leaves, intersection,
//! union, complement, relate expansion, hash join) and assert after
//! EVERY mutation that the maintained rows are
//! byte-identical to a fresh recompute of the same plan — both when a
//! standing result is maintained directly and when it is read through
//! the processor's standing-result table (`.cached()` runs and
//! subscribed handles). The generator RNG is deterministic (seeded from
//! the test name), so failures reproduce exactly.

use std::collections::BTreeSet;
use std::sync::Arc;

use idm_core::prelude::*;
use idm_index::IndexBundle;
use idm_query::{
    LiveQuery, MaintainedPlan, QueryBudget, QueryProcessor, QueryRequest, ResultDelta, ResultRows,
};
use proptest::prelude::*;

/// A random dataspace plus a script of mutations to replay against it.
#[derive(Debug, Clone)]
struct Script {
    views: Vec<(String, String, i64)>, // (name, content word, size)
    edges: Vec<(usize, usize)>,
    mutations: Vec<Mutation>,
}

#[derive(Debug, Clone)]
struct Mutation {
    kind: usize,
    target: usize,
    other: usize,
    name: String,
    word: String,
    size: i64,
}

fn arb_script() -> impl Strategy<Value = Script> {
    (
        proptest::collection::vec(("[ab]{1,3}", "[cd]{1,2}", 0i64..100), 2..8),
        proptest::collection::vec((0usize..8, 0usize..8), 0..10),
        proptest::collection::vec(
            (
                0usize..6,
                0usize..16,
                0usize..16,
                "[ab]{1,3}",
                "[cd]{1,2}",
                0i64..100,
            ),
            1..12,
        ),
    )
        .prop_map(|(views, edges, muts)| Script {
            views,
            edges,
            mutations: muts
                .into_iter()
                .map(|(kind, target, other, name, word, size)| Mutation {
                    kind,
                    target,
                    other,
                    name,
                    word,
                    size,
                })
                .collect(),
        })
}

struct Space {
    store: Arc<ViewStore>,
    indexes: Arc<IndexBundle>,
    /// Vids still alive, in insertion order (mutation targets index it).
    alive: Vec<Vid>,
}

fn build_space(script: &Script) -> Space {
    let store = Arc::new(ViewStore::new());
    let indexes = Arc::new(IndexBundle::new());
    let alive: Vec<Vid> = script
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
    for (a, b) in &script.edges {
        let (a, b) = (a % alive.len(), b % alive.len());
        // Self-loops and duplicate edges are rejected by the store;
        // that rejection is part of the surface under test.
        let _ = store.add_group_member(alive[a], alive[b], false);
    }
    for vid in store.vids() {
        indexes.index_view(&store, vid, "test").unwrap();
    }
    Space {
        store,
        indexes,
        alive,
    }
}

impl Space {
    /// Applies one mutation, keeping the indexes current the way the
    /// synchronization manager does (reindex every touched view).
    fn apply(&mut self, m: &Mutation) {
        if self.alive.is_empty() {
            return;
        }
        let target = self.alive[m.target % self.alive.len()];
        match m.kind {
            // Insert a fresh view (optionally wired under `other`).
            0 => {
                let vid = self
                    .store
                    .build(m.name.clone())
                    .tuple(TupleComponent::of(vec![("size", Value::Integer(m.size))]))
                    .text(m.word.clone())
                    .insert();
                let parent = self.alive[m.other % self.alive.len()];
                if self.store.add_group_member(parent, vid, false).is_ok() {
                    self.reindex(parent);
                }
                self.reindex(vid);
                self.alive.push(vid);
            }
            // Content change.
            1 => {
                self.store
                    .set_content(target, Content::text(m.word.clone()))
                    .unwrap();
                self.reindex(target);
            }
            // Rename.
            2 => {
                self.store.set_name(target, Some(m.name.clone())).unwrap();
                self.reindex(target);
            }
            // Tuple change.
            3 => {
                self.store
                    .set_tuple(
                        target,
                        Some(TupleComponent::of(vec![("size", Value::Integer(m.size))])),
                    )
                    .unwrap();
                self.reindex(target);
            }
            // New group edge (cycle/duplicate rejections are fine).
            4 => {
                let member = self.alive[m.other % self.alive.len()];
                if self.store.add_group_member(target, member, false).is_ok() {
                    self.reindex(target);
                }
            }
            // Removal: detach from every group first, then drop the
            // view from store and indexes.
            _ => {
                if self.alive.len() <= 1 {
                    return;
                }
                for parent in self.alive.clone() {
                    if parent == target {
                        continue;
                    }
                    let Ok(group) = self.store.group(parent) else {
                        continue;
                    };
                    if group.is_infinite() {
                        continue;
                    }
                    let members = group.finite_members();
                    if members.contains(&target) {
                        let kept: Vec<Vid> = members.into_iter().filter(|v| *v != target).collect();
                        self.store.set_group(parent, Group::of_set(kept)).unwrap();
                        self.reindex(parent);
                    }
                }
                self.indexes.remove_view(target);
                self.store.remove(target).unwrap();
                self.alive.retain(|v| *v != target);
            }
        }
    }

    fn reindex(&self, vid: Vid) {
        self.indexes.index_view(&self.store, vid, "test").unwrap();
    }
}

/// Standing queries covering every node shape the maintainer handles.
fn standing_queries(ctx: &str, target: &str) -> Vec<String> {
    vec![
        r#""c""#.to_string(),
        r#"["c" and "d"]"#.to_string(),
        r#"[not "c"]"#.to_string(),
        "[size > 50]".to_string(),
        format!("//{ctx}//{target}"),
        format!("//{ctx}/*"),
        format!(r#"union( "{target}", //{ctx}//* )"#),
        format!("join( //{ctx}//* as A, //{target}//* as B, A.name = B.name )"),
    ]
}

/// `rows` moved by `delta`, sorted like an execution's rows.
fn apply_delta(rows: ResultRows, delta: &ResultDelta) -> ResultRows {
    fn moved<T: Ord + Copy>(rows: Vec<T>, added: &[T], removed: &[T]) -> Vec<T> {
        let mut set: BTreeSet<T> = rows.into_iter().collect();
        for row in removed {
            set.remove(row);
        }
        set.extend(added);
        set.into_iter().collect()
    }
    match (rows, &delta.added, &delta.removed) {
        (ResultRows::Views(rows), ResultRows::Views(added), ResultRows::Views(removed)) => {
            ResultRows::Views(moved(rows, added, removed))
        }
        (ResultRows::Pairs(rows), ResultRows::Pairs(added), ResultRows::Pairs(removed)) => {
            ResultRows::Pairs(moved(rows, added, removed))
        }
        (rows, ..) => panic!("a delta of another shape than {rows:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole equivalence: maintained == recomputed after every
    /// mutation of a random script, for every standing query shape.
    #[test]
    fn maintained_results_equal_recompute_after_every_mutation(
        script in arb_script(), ctx in "[ab]{1,3}", target in "[ab]{1,3}"
    ) {
        let mut space = build_space(&script);
        let processor =
            QueryProcessor::new(Arc::clone(&space.store), Arc::clone(&space.indexes));

        let mut standings: Vec<MaintainedPlan> = standing_queries(&ctx, &target)
            .iter()
            .map(|iql| {
                let plan = processor.plan_iql(iql).unwrap();
                let (_, standing) = processor
                    .execute_standing(&plan, QueryBudget::none())
                    .unwrap();
                standing.expect("unbudgeted execution seeds standing state")
            })
            .collect();

        let rx = space.store.subscribe_records();
        for mutation in &script.mutations {
            space.apply(mutation);
            let records: Vec<ChangeRecord> = rx.try_iter().collect();
            for standing in &mut standings {
                let before = standing.rows();
                let delta = processor.maintain(standing, &records).unwrap();
                let fresh = processor.execute_plan(standing.plan()).unwrap();
                prop_assert_eq!(
                    standing.rows(),
                    fresh.rows,
                    "maintained != recomputed for '{}' after {:?}",
                    standing.plan().render(),
                    mutation
                );
                prop_assert_eq!(
                    delta.total,
                    standing.rows().len(),
                    "delta total out of sync"
                );
                if delta.is_empty() {
                    prop_assert_eq!(before, standing.rows(), "empty delta changed the rows");
                }
            }
        }

        // The read/maintain path never corrupted the store.
        let report = space.store.verify_invariants();
        prop_assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    /// The same equivalence through the standing-result table: after
    /// every mutation, a `.cached()` run of each query and the rows its
    /// subscribed handle accumulated over `pump()` equal a fresh
    /// execution. Even steps pump before the lookups (the pump refreshes
    /// each shared entry, the lookup is a free hit); odd steps after (the
    /// lookup refreshes it, and the handle still hears of the change).
    #[test]
    fn cached_and_subscribed_results_equal_recompute_after_every_mutation(
        script in arb_script(), ctx in "[ab]{1,3}", target in "[ab]{1,3}"
    ) {
        let mut space = build_space(&script);
        let processor =
            QueryProcessor::new(Arc::clone(&space.store), Arc::clone(&space.indexes));

        let mut handles: Vec<(String, LiveQuery, ResultRows)> =
            standing_queries(&ctx, &target)
                .into_iter()
                .map(|iql| {
                    let live = processor.subscribe(&QueryRequest::new(&iql)).unwrap();
                    let rows = live.initial().rows.clone();
                    (iql, live, rows)
                })
                .collect();
        for (step, mutation) in script.mutations.iter().enumerate() {
            space.apply(mutation);
            let pump_first = step % 2 == 0;
            if pump_first {
                processor.pump();
            }
            let mut fresh = Vec::new();
            for (iql, ..) in &handles {
                let cached = processor.run(&QueryRequest::new(iql.as_str()).cached()).unwrap();
                let rows = processor.run(&QueryRequest::new(iql.as_str())).unwrap().result.rows;
                prop_assert_eq!(
                    &cached.result.rows,
                    &rows,
                    "cached != fresh for '{}' after {:?}",
                    iql,
                    mutation
                );
                fresh.push(rows);
            }
            if !pump_first {
                processor.pump();
            }
            for ((iql, live, rows), fresh) in handles.iter_mut().zip(&fresh) {
                *rows = live.poll().iter().fold(rows.clone(), apply_delta);
                prop_assert_eq!(
                    &*rows,
                    fresh,
                    "subscribed != fresh for '{}' after {:?}",
                    iql,
                    mutation
                );
            }
        }
        prop_assert_eq!(processor.result_cache().counters().invalidations, 0);
    }

    /// Replaying a batch the standing result already absorbed is a
    /// no-op (state-based maintenance is convergent), and a partial
    /// execution never seeds standing state — under random scripts, not
    /// just the unit fixtures.
    #[test]
    fn replay_is_idempotent_and_partial_never_seeds(
        script in arb_script(), ctx in "[ab]{1,3}", target in "[ab]{1,3}"
    ) {
        let mut space = build_space(&script);
        let processor = QueryProcessor::new(
            Arc::clone(&space.store),
            Arc::clone(&space.indexes),
        );

        let iql = format!(r#"union( "{target}", //{ctx}//* )"#);
        let plan = processor.plan_iql(&iql).unwrap();
        let (_, standing) = processor.execute_standing(&plan, QueryBudget::none()).unwrap();
        let mut standing = standing.expect("seeds");

        let rx = space.store.subscribe_records();
        for mutation in &script.mutations {
            space.apply(mutation);
        }
        let records: Vec<ChangeRecord> = rx.try_iter().collect();
        processor.maintain(&mut standing, &records).unwrap();
        let after_first = standing.rows();
        let replay = processor.maintain(&mut standing, &records).unwrap();
        prop_assert!(replay.is_empty(), "replay produced a delta");
        prop_assert_eq!(after_first, standing.rows());

        // A budget that cancels immediately yields partial state, which
        // must never become a standing result.
        let budget = QueryBudget {
            cancel_after_checks: Some(1),
            partial: true,
            ..QueryBudget::default()
        };
        let (result, seeded) = processor.execute_standing(&plan, budget).unwrap();
        if result.stats.partial {
            prop_assert!(seeded.is_none(), "partial execution seeded standing state");
        }
    }
}
