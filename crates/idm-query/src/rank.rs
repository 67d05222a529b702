//! Ranking of query results (Section 5.1: "as ongoing work, we are
//! extending iQL to support search over all resource view components
//! and ranking of query results" — this module implements that
//! extension).
//!
//! Scoring is TF–IDF over the content index, with component-aware
//! bonuses: phrase hits in the **name** component weigh more than hits
//! in content (a document *called* "database tuning" is a better answer
//! to that query than one merely mentioning it), and class-predicate
//! matches contribute a fixed structural bonus. The scheme is
//! deliberately simple — the paper promises ranking, not BM25 — but the
//! interface ([`RankedResult`]) is what a PDSMS UI would paginate.

use std::collections::HashMap;

use idm_core::prelude::*;
use idm_index::tokenizer::terms;

use crate::exec::{QueryProcessor, ResultRows};
use crate::plan::{AccessKind, Plan, PlanNode, PlanOp};

/// One scored result row.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedResult {
    /// The view (the left view for join rows).
    pub vid: Vid,
    /// The relevance score (higher is better; 0 for purely structural
    /// matches).
    pub score: f64,
}

/// Weights of the scoring model.
#[derive(Debug, Clone, Copy)]
pub struct RankWeights {
    /// Multiplier for TF–IDF content hits.
    pub content: f64,
    /// Bonus per query term appearing in the name component.
    pub name: f64,
    /// Bonus when the query constrained the class and the view matched.
    pub class: f64,
}

impl Default for RankWeights {
    fn default() -> Self {
        RankWeights {
            content: 1.0,
            name: 2.5,
            class: 0.5,
        }
    }
}

/// Collects every content-phrase and catalog-class access mentioned in
/// a plan (these are the ranking signals). Walking the plan rather than
/// the AST means ranking sees exactly the accesses that ran.
fn collect_signals(node: &PlanNode, phrases: &mut Vec<String>, classes: &mut usize) {
    match &node.op {
        PlanOp::IndexAccess(AccessKind::Content(p)) => phrases.push(p.clone()),
        PlanOp::IndexAccess(AccessKind::Catalog(_)) => *classes += 1,
        PlanOp::IndexAccess(_) | PlanOp::Scan => {}
        PlanOp::Intersect(inputs) | PlanOp::UnionOp(inputs) => {
            for input in inputs {
                collect_signals(input, phrases, classes);
            }
        }
        PlanOp::Complement(inner) => collect_signals(inner, phrases, classes),
        PlanOp::Relate {
            context,
            candidates,
            ..
        } => {
            collect_signals(context, phrases, classes);
            collect_signals(candidates, phrases, classes);
        }
        PlanOp::HashJoin { left, right, .. } => {
            collect_signals(left, phrases, classes);
            collect_signals(right, phrases, classes);
        }
    }
}

impl QueryProcessor {
    /// Executes a query and ranks its rows by relevance to the query's
    /// phrase and class signals, most relevant first. Ties (including
    /// all-structural queries with no phrases) preserve vid order, so
    /// ranking is deterministic.
    pub fn execute_ranked(&self, iql: &str) -> Result<Vec<RankedResult>> {
        self.execute_ranked_with(iql, RankWeights::default())
    }

    /// [`QueryProcessor::execute_ranked`] with explicit weights.
    pub fn execute_ranked_with(
        &self,
        iql: &str,
        weights: RankWeights,
    ) -> Result<Vec<RankedResult>> {
        let plan = self.plan_iql(iql)?;
        let result = self.execute_plan(&plan)?;
        Ok(self.rank_rows(&plan, &result.rows, weights))
    }

    /// Scores already-computed result rows against the phrase and class
    /// signals of the plan that produced them, most relevant first.
    /// Splitting scoring from execution lets [`crate::QueryRequest`]
    /// rank the rows of a single execution (or a cache hit) instead of
    /// running the plan a second time.
    pub fn rank_rows(
        &self,
        plan: &Plan,
        rows: &ResultRows,
        weights: RankWeights,
    ) -> Vec<RankedResult> {
        let mut phrases = Vec::new();
        let mut class_constraints = 0usize;
        collect_signals(&plan.root, &mut phrases, &mut class_constraints);
        let query_terms: Vec<String> = phrases.iter().flat_map(|p| terms(p)).collect();

        let rows = match rows {
            ResultRows::Views(v) => v.clone(),
            ResultRows::Pairs(p) => p.iter().map(|(a, _)| *a).collect(),
        };
        let total_docs = self.index_bundle().content.document_count().max(1) as f64;

        // IDF per distinct query term.
        let mut idf: HashMap<&str, f64> = HashMap::new();
        for term in &query_terms {
            idf.entry(term.as_str()).or_insert_with(|| {
                let df = self.index_bundle().content.document_frequency(term);
                ((1.0 + total_docs) / (1.0 + df as f64)).ln() + 1.0
            });
        }

        let content = &self.index_bundle().content;
        let mut ranked: Vec<RankedResult> = rows
            .into_iter()
            .map(|vid| {
                let mut score = 0.0;
                // Content TF-IDF.
                for term in &query_terms {
                    let tf = content.normalized_frequency(vid, term) as f64;
                    if tf > 0.0 {
                        score += weights.content * (1.0 + tf.ln()) * idf[term.as_str()];
                    }
                }
                // Name-component hits ("search over all resource view
                // components"). With no query term no name is read.
                let name_terms = (!query_terms.is_empty())
                    .then(|| self.view_store().with_name(vid, |name| name.map(terms)));
                if let Some(Ok(Some(name_terms))) = name_terms {
                    for term in &query_terms {
                        if name_terms.contains(term) {
                            score += weights.name * idf[term.as_str()];
                        }
                    }
                }
                if class_constraints > 0 {
                    score += weights.class;
                }
                RankedResult { vid, score }
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.vid.cmp(&b.vid))
        });
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idm_index::IndexBundle;
    use std::sync::Arc;

    fn space() -> QueryProcessor {
        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        // Three documents with increasing relevance to "database tuning".
        let mentions = store
            .build("notes.txt")
            .text("some notes that mention database tuning once")
            .insert();
        let heavy = store
            .build("guide.txt")
            .text("database tuning database tuning database tuning all day")
            .insert();
        let named = store
            .build("database tuning")
            .text("short body with database tuning")
            .insert();
        let unrelated = store.build("recipe.txt").text("tomato soup").insert();
        for vid in store.vids() {
            indexes.index_view(&store, vid, "test").unwrap();
        }
        let _ = (mentions, heavy, named, unrelated);
        QueryProcessor::new(store, indexes)
    }

    #[test]
    fn name_hits_outrank_heavy_content() {
        let p = space();
        let ranked = p.execute_ranked(r#""database tuning""#).unwrap();
        assert_eq!(ranked.len(), 3, "three views contain the phrase");
        let names: Vec<String> = ranked
            .iter()
            .map(|r| p.view_store().name(r.vid).unwrap().unwrap())
            .collect();
        assert_eq!(names[0], "database tuning", "name match first");
        assert_eq!(names[1], "guide.txt", "then the TF-heavy doc");
        assert_eq!(names[2], "notes.txt");
        assert!(ranked[0].score > ranked[1].score);
        assert!(ranked[1].score > ranked[2].score);
    }

    #[test]
    fn scores_are_deterministic_and_ordered() {
        let p = space();
        let a = p.execute_ranked(r#""database""#).unwrap();
        let b = p.execute_ranked(r#""database""#).unwrap();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn structural_queries_rank_vacuously() {
        let p = space();
        let ranked = p.execute_ranked("//notes.txt").unwrap();
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].score, 0.0, "no phrase signals, no score");
    }

    #[test]
    fn weights_change_the_order() {
        let p = space();
        // With the name bonus off, the TF-heavy document wins.
        let ranked = p
            .execute_ranked_with(
                r#""database tuning""#,
                RankWeights {
                    content: 1.0,
                    name: 0.0,
                    class: 0.0,
                },
            )
            .unwrap();
        let top = p.view_store().name(ranked[0].vid).unwrap().unwrap();
        assert_eq!(top, "guide.txt");
    }

    #[test]
    fn query_terms_are_normalized_once() {
        let p = space();
        let plan = |iql: &str| p.plan_iql(iql).unwrap();
        let rows = p.execute(r#""database tuning""#).unwrap().rows;
        let weights = RankWeights::default();
        let lower = p.rank_rows(&plan(r#""database tuning""#), &rows, weights);
        let mixed = p.rank_rows(&plan(r#""Database TUNING""#), &rows, weights);
        assert_eq!(mixed, lower);
        assert!(lower.iter().all(|r| r.score > 0.0));
    }

    #[test]
    fn rare_terms_weigh_more() {
        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        // "common" is everywhere; "rare" in one place.
        for i in 0..10 {
            store
                .build(format!("d{i}"))
                .text("common words here")
                .insert();
        }
        let rare = store.build("special").text("common and rare").insert();
        for vid in store.vids() {
            indexes.index_view(&store, vid, "test").unwrap();
        }
        let p = QueryProcessor::new(store, indexes);
        let ranked = p.execute_ranked(r#"["common" or "rare"]"#).unwrap();
        assert_eq!(ranked[0].vid, rare, "the rare-term doc ranks first");
    }
}
