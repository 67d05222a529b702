//! Cost-based optimization groundwork (Section 5.1: "cost based
//! optimization will be explored as another avenue of future work";
//! Section 8 repeats it).
//!
//! The estimator derives cardinalities from index **statistics alone**
//! — dictionary document frequencies, catalog class counts, column
//! sizes — without materializing any result, which is what lets a
//! planner order work before doing it. Each plan node is estimated
//! once, as the planner builds it: a leaf from its index's statistics,
//! an inner node from its children's estimates. The universe and the
//! group fan-out are read once per plan.
//! [`QueryProcessor::estimate_iql`] returns a plan's root estimate;
//! [`explain_with_estimates`] renders the annotated plan. The
//! executor's conjunct ordering and join build-side choice validate
//! against these estimates in the tests below.

use idm_core::prelude::*;
use idm_index::name::NamePattern;
use idm_index::tuple::CompareOp;

use crate::ast::Axis;
use crate::exec::{resolve_attr, QueryProcessor};
use crate::plan::{PlanNode, Planner};

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

    /// An intersection or equi-join: bounded by its smallest input (0
    /// for none).
    pub(crate) fn smallest<'n>(inputs: impl IntoIterator<Item = &'n PlanNode>) -> Self {
        Estimate::guess(inputs.into_iter().map(|n| n.est.rows).min().unwrap_or(0))
    }
}

impl<'p> Planner<'p> {
    /// A planner over `processor`'s statistics: reads the universe
    /// (catalogued views) and the group replica's fan-out (edges per
    /// view) once.
    pub(crate) fn new(processor: &'p QueryProcessor) -> Self {
        let indexes = processor.index_bundle();
        let universe = indexes.catalog.len();
        let fan_out = indexes.group.edge_count() as f64 / universe.max(1) as f64;
        Planner {
            processor,
            universe,
            fan_out,
        }
    }

    /// The whole catalog, exactly.
    pub(crate) fn estimate_all(&self) -> Estimate {
        Estimate::exact(self.universe)
    }

    /// A phrase is bounded by its rarest term's document frequency,
    /// exactly so for a single term.
    pub(crate) fn estimate_phrase(&self, phrase: &str) -> Estimate {
        let (terms, rarest) = self
            .processor
            .index_bundle()
            .content
            .phrase_statistics(phrase);
        Estimate {
            rows: rarest,
            exact: terms == 1,
        }
    }

    /// A class and its specializations: their catalog counts, exactly.
    pub(crate) fn estimate_class(&self, class: &str) -> Estimate {
        let catalog = &self.processor.index_bundle().catalog;
        let registry = self.processor.view_store().classes();
        Estimate::exact(
            registry
                .with_conforming_names(class, |names| catalog.classes_count(names))
                .unwrap_or(0),
        )
    }

    /// The column size bounds a comparison; equality assumes a uniform
    /// 10% hit rate, ranges 33%.
    pub(crate) fn estimate_cmp(&self, attr: &str, op: CompareOp) -> Estimate {
        let column = self
            .processor
            .index_bundle()
            .tuple
            .attribute_count(&resolve_attr(attr));
        let rows = match op {
            CompareOp::Eq => column / 10,
            CompareOp::Ne => column,
            _ => column / 3,
        };
        Estimate::guess(rows.max(usize::from(column > 0)))
    }

    /// A name-pattern posting list, from name-index statistics. A bare
    /// `*` step plans no name leaf, so the pattern is selective.
    pub(crate) fn estimate_name(&self, pattern: &NamePattern) -> Estimate {
        let names = &self.processor.index_bundle().name;
        if pattern.is_exact() {
            Estimate::exact(names.exact_count(pattern.as_str()))
        } else {
            // Wildcards: assume they hit 5% of the (name, vid) entries.
            Estimate::guess((names.entry_count() / 20).max(1))
        }
    }

    /// A union or disjunction: its inputs' sum, capped at the universe.
    pub(crate) fn estimate_sum(&self, inputs: &[PlanNode]) -> Estimate {
        let rows: usize = inputs.iter().map(|n| n.est.rows).sum();
        Estimate::guess(rows.min(self.universe))
    }

    /// A complement: the universe less the excluded input.
    pub(crate) fn estimate_complement(&self, excluded: Estimate) -> Estimate {
        Estimate::guess(self.universe.saturating_sub(excluded.rows))
    }

    /// A path step that keeps the `candidates` related to some view of
    /// `context` along `axis`. A view reaches the group replica's
    /// average fan-out (edges per view) directly and its square
    /// indirectly (two levels), so the context covers that share of the
    /// universe, and the step keeps the same share of its candidates: a
    /// step under one folder keeps a sliver of a common glob's matches,
    /// a step under thousands of messages far more.
    pub(crate) fn estimate_relate(
        &self,
        axis: Axis,
        context: Estimate,
        candidates: Estimate,
    ) -> Estimate {
        let universe = self.universe.max(1) as f64;
        let reach = match axis {
            Axis::Child => self.fan_out,
            Axis::Descendant => self.fan_out * self.fan_out,
        };
        let covered = (context.rows as f64 * reach / universe).min(1.0);
        Estimate::guess(((candidates.rows as f64 * covered) as usize).max(1))
    }
}

impl QueryProcessor {
    /// Parses and plans a query and returns the root estimate of the
    /// plan (before sideways key passing, which changes no estimate).
    pub fn estimate_iql(&self, iql: &str) -> Result<Estimate> {
        Ok(self
            .plan_without_key_passing(&crate::parser::parse(iql)?)?
            .root
            .est)
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
