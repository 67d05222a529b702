//! Cost-based optimization groundwork (Section 5.1: "cost based
//! optimization will be explored as another avenue of future work";
//! Section 8 repeats it).
//!
//! The estimator derives cardinalities from index **statistics alone**
//! — dictionary document frequencies, catalog class counts, column
//! sizes — without materializing any result, which is what lets a
//! planner order work before doing it. [`QueryProcessor::estimate`]
//! exposes the estimator; [`explain_with_estimates`] renders an
//! annotated plan. The executor's conjunct ordering and join build-side
//! choice validate against these estimates in the tests below.

use idm_core::prelude::*;

use crate::ast::{Axis, Pred, Query};
use crate::exec::{resolve_attr, QueryProcessor};
use crate::parser::parse;

/// A cardinality estimate (an upper bound except where noted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Estimate {
    /// Estimated number of matching views.
    pub rows: usize,
    /// Whether the estimate is exact (computed from a precise statistic,
    /// e.g. an exact-name posting length) or heuristic.
    pub exact: bool,
}

impl Estimate {
    /// An exact estimate (computed from a precise statistic).
    pub fn exact(rows: usize) -> Self {
        Estimate { rows, exact: true }
    }

    /// A heuristic estimate.
    pub fn guess(rows: usize) -> Self {
        Estimate { rows, exact: false }
    }
}

impl QueryProcessor {
    /// Total number of catalogued views (the estimator's universe).
    pub(crate) fn universe(&self) -> usize {
        self.index_bundle().catalog.len()
    }

    /// Estimates the cardinality of a predicate from index statistics.
    pub fn estimate_pred(&self, pred: &Pred) -> Estimate {
        match pred {
            Pred::Phrase(phrase) => {
                // Phrase selectivity is bounded by the rarest term's
                // document frequency.
                let terms = idm_index::tokenizer::terms(phrase);
                let rarest = terms
                    .iter()
                    .map(|t| self.index_bundle().content.document_frequency(t))
                    .min()
                    .unwrap_or(0);
                Estimate {
                    rows: rarest,
                    exact: terms.len() == 1,
                }
            }
            Pred::Class(class_name) => {
                let registry = self.view_store().classes();
                let Some(target) = registry.lookup(class_name) else {
                    return Estimate::exact(0);
                };
                let rows = registry
                    .subclasses(target)
                    .into_iter()
                    .map(|c| self.index_bundle().catalog.class_count(&registry.name(c)))
                    .sum();
                Estimate::exact(rows)
            }
            Pred::Cmp { attr, op, .. } => {
                // Column size bounds the result; equality assumes a
                // uniform 10% hit rate, ranges 33%.
                let column = self
                    .index_bundle()
                    .tuple
                    .attribute_count(&resolve_attr(attr));
                let rows = match op {
                    idm_index::tuple::CompareOp::Eq => column / 10,
                    idm_index::tuple::CompareOp::Ne => column,
                    _ => column / 3,
                };
                Estimate::guess(rows.max(usize::from(column > 0)))
            }
            Pred::And(members) => {
                // Upper bound: the most selective conjunct.
                let rows = members
                    .iter()
                    .map(|m| self.estimate_pred(m).rows)
                    .min()
                    .unwrap_or(0);
                Estimate::guess(rows)
            }
            Pred::Or(members) => {
                let rows: usize = members.iter().map(|m| self.estimate_pred(m).rows).sum();
                Estimate::guess(rows.min(self.universe()))
            }
            Pred::Not(inner) => {
                let inner_rows = self.estimate_pred(inner).rows;
                Estimate::guess(self.universe().saturating_sub(inner_rows))
            }
        }
    }

    /// Estimates a name-pattern posting list from name-index statistics.
    pub(crate) fn estimate_name(&self, pattern: &idm_index::name::NamePattern) -> Estimate {
        if pattern.matches_all() {
            Estimate::guess(self.universe())
        } else if pattern.is_exact() {
            Estimate::exact(self.index_bundle().name.exact_count(pattern.as_str()))
        } else {
            // Wildcards: assume they hit 5% of the (name, vid) entries.
            Estimate::guess((self.index_bundle().name.entry_count() / 20).max(1))
        }
    }

    /// Estimates a path step that keeps the `candidates` related to some
    /// view of `context` along `axis`. A view reaches the group
    /// replica's average fan-out (edges per view) directly and its
    /// square indirectly (two levels), so the context covers that share
    /// of the universe, and the step keeps the same share of its
    /// candidates: a step under one folder keeps a sliver of a common
    /// glob's matches, a step under thousands of messages far more.
    pub(crate) fn estimate_relate(
        &self,
        axis: Axis,
        context: Estimate,
        candidates: Estimate,
    ) -> Estimate {
        let universe = self.universe().max(1) as f64;
        let fan_out = self.index_bundle().group.edge_count() as f64 / universe;
        let reach = match axis {
            Axis::Child => fan_out,
            Axis::Descendant => fan_out * fan_out,
        };
        let covered = (context.rows as f64 * reach / universe).min(1.0);
        Estimate::guess(((candidates.rows as f64 * covered) as usize).max(1))
    }

    /// Estimates one path step's candidate set (name × predicate).
    fn estimate_step(&self, step: &crate::ast::Step) -> Estimate {
        let by_name = self.estimate_name(&step.name);
        match &step.pred {
            Some(pred) => {
                let by_pred = self.estimate_pred(pred);
                Estimate::guess(by_name.rows.min(by_pred.rows))
            }
            None => by_name,
        }
    }

    /// Estimates a whole query's result cardinality.
    pub fn estimate(&self, query: &Query) -> Estimate {
        match query {
            Query::Filter(pred) => self.estimate_pred(pred),
            Query::Path(path) => {
                // Each step after the first relates its candidates to
                // the steps before it.
                let mut steps = path.steps.iter();
                let Some(first) = steps.next() else {
                    return Estimate::exact(0);
                };
                steps.fold(self.estimate_step(first), |context, step| {
                    self.estimate_relate(step.axis, context, self.estimate_step(step))
                })
            }
            Query::Union(members) => {
                let rows: usize = members.iter().map(|m| self.estimate(m).rows).sum();
                Estimate::guess(rows.min(self.universe()))
            }
            Query::Join(join) => {
                let left = self.estimate(&join.left).rows;
                let right = self.estimate(&join.right).rows;
                // Keyed equi-join: bounded by the smaller input when the
                // key is near-unique (names usually are).
                Estimate::guess(left.min(right))
            }
        }
    }

    /// Parses a query and estimates it.
    pub fn estimate_iql(&self, iql: &str) -> Result<Estimate> {
        Ok(self.estimate(&parse(iql)?))
    }
}

/// Renders the plan annotated with cardinality estimates — the
/// "EXPLAIN (with estimates)" a cost-based optimizer starts from. The
/// estimates were attached to the plan nodes when the planner made its
/// decisions; this renders the same tree the executor runs, it does not
/// re-walk the AST.
pub fn explain_with_estimates(processor: &QueryProcessor, iql: &str) -> Result<String> {
    Ok(processor.plan_iql(iql)?.render_with_estimates())
}

#[cfg(test)]
mod tests {
    use super::*;
    use idm_index::IndexBundle;
    use std::sync::Arc;

    fn space() -> QueryProcessor {
        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        for i in 0..50 {
            store
                .build(format!("doc{i}.txt"))
                .tuple(TupleComponent::of(vec![("size", Value::Integer(i))]))
                .text(if i < 5 {
                    "rare needle here".to_owned()
                } else {
                    "common haystack words".to_owned()
                })
                .class_named("file")
                .insert();
        }
        store.build("PIM").class_named("folder").insert();
        for vid in store.vids() {
            indexes.index_view(&store, vid, "test").unwrap();
        }
        QueryProcessor::new(store, indexes)
    }

    #[test]
    fn phrase_estimates_match_document_frequency() {
        let p = space();
        let est = p.estimate_iql(r#""needle""#).unwrap();
        assert_eq!(est.rows, 5);
        assert!(est.exact);
        let est = p.estimate_iql(r#""haystack""#).unwrap();
        assert_eq!(est.rows, 45);
        // Multi-term phrases are bounded by the rarest term.
        let est = p.estimate_iql(r#""rare needle""#).unwrap();
        assert_eq!(est.rows, 5);
        assert!(!est.exact, "phrase adjacency may reduce it further");
    }

    #[test]
    fn class_and_name_estimates_are_exact() {
        let p = space();
        let est = p.estimate_iql(r#"[class="folder"]"#).unwrap();
        assert!(est.exact);
        // folderlink specializes folder; only PIM is registered here.
        assert_eq!(est.rows, 1);
        let est = p.estimate_iql("//PIM").unwrap();
        assert_eq!(est, Estimate::exact(1));
    }

    #[test]
    fn estimates_upper_bound_reality_for_index_backed_predicates() {
        let p = space();
        for iql in [
            r#""needle""#,
            r#"["needle" and "haystack"]"#,
            r#"[class="file"]"#,
            r#"union("needle", "haystack")"#,
            "//PIM",
        ] {
            let est = p.estimate_iql(iql).unwrap();
            let actual = p.execute(iql).unwrap().rows.len();
            assert!(
                est.rows >= actual,
                "estimate {} < actual {actual} for {iql}",
                est.rows
            );
        }
    }

    #[test]
    fn and_estimate_takes_most_selective_conjunct() {
        let p = space();
        let est = p.estimate_iql(r#"["haystack" and "needle"]"#).unwrap();
        assert_eq!(est.rows, 5, "bounded by the rare side");
    }

    #[test]
    fn annotated_explain_shows_estimates_and_build_side() {
        let p = space();
        let plan = explain_with_estimates(
            &p,
            r#"join( "needle" as A, "haystack" as B, A.name = B.name )"#,
        )
        .unwrap();
        assert!(plan.contains("HashJoin"), "{plan}");
        assert!(plan.contains("build=left (est. 5 vs 45)"), "{plan}");
    }

    #[test]
    fn not_estimate_complements_universe() {
        let p = space();
        let est = p.estimate_iql(r#"[not "needle"]"#).unwrap();
        assert_eq!(est.rows, p.index_bundle().catalog.len() - 5);
    }
}
