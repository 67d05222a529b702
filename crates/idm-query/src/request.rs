//! The unified query entry point: [`QueryRequest`] → [`QueryResponse`].
//!
//! A query execution combines four orthogonal switches — budget,
//! explain, ranking, result caching. [`QueryRequest`] is one builder
//! carrying all of them, and [`QueryProcessor::run`] plans **once** and
//! feeds every requested view of the execution from that single plan
//! object. `Pdsms::run` in `idm-system` takes the same request.
//!
//! ```
//! # use idm_core::prelude::*;
//! # use idm_index::IndexBundle;
//! # use idm_query::{QueryProcessor, QueryRequest};
//! # use std::sync::Arc;
//! # let store = Arc::new(ViewStore::new());
//! # let indexes = Arc::new(IndexBundle::new());
//! # let vid = store.build("a.txt").text("database notes").insert();
//! # indexes.index_view(&store, vid, "fs").unwrap();
//! # let processor = QueryProcessor::new(store, indexes);
//! let response = processor
//!     .run(&QueryRequest::new(r#""database""#).explain().ranked())
//!     .unwrap();
//! assert_eq!(response.result.rows.len(), 1);
//! assert!(response.explain.unwrap().contains("ContentIndex"));
//! assert_eq!(response.ranked.unwrap().len(), 1);
//! ```

use idm_core::prelude::*;

use crate::budget::QueryBudget;
use crate::exec::{ExecStats, QueryProcessor, QueryResult};
use crate::rank::{RankWeights, RankedResult};

/// A declarative description of one query execution: the iQL text plus
/// the orthogonal switches.
///
/// Build with [`QueryRequest::new`] and chain the switches; every
/// combination is valid (e.g. `.cached().ranked().explain()` ranks the
/// rows a cache hit returned and still renders the plan).
#[derive(Debug, Clone)]
pub struct QueryRequest {
    iql: String,
    budget: Option<QueryBudget>,
    explain: bool,
    ranked: Option<RankWeights>,
    cached: bool,
    subscribe: bool,
}

impl QueryRequest {
    /// A request for `iql` with every switch off: plan and execute,
    /// inheriting the processor's configured budget.
    pub fn new(iql: impl Into<String>) -> Self {
        QueryRequest {
            iql: iql.into(),
            budget: None,
            explain: false,
            ranked: None,
            cached: false,
            subscribe: false,
        }
    }

    /// Bounds the execution by `budget` (deadline, memory/row/node
    /// caps, partial-result opt-in), overriding the processor default.
    pub fn budget(mut self, budget: QueryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Also renders the executed plan into [`QueryResponse::explain`].
    /// The render and the execution share one plan object — they
    /// cannot diverge.
    pub fn explain(mut self) -> Self {
        self.explain = true;
        self
    }

    /// Also ranks the result rows by relevance (TF–IDF with
    /// component-aware bonuses) into [`QueryResponse::ranked`].
    pub fn ranked(mut self) -> Self {
        self.ranked = Some(RankWeights::default());
        self
    }

    /// Routes through the whole-result cache: a fingerprint hit serves
    /// the standing rows, brought up to date first; a miss executes and
    /// seeds a standing result (never from a partial execution).
    pub fn cached(mut self) -> Self {
        self.cached = true;
        self
    }

    /// Marks the request as meant for a standing subscription. The
    /// flag is inert: nothing reads it. A request becomes a live query
    /// by being passed to [`QueryProcessor::subscribe`] (or
    /// `Pdsms::subscribe`), marked or not, and [`QueryProcessor::run`]
    /// ignores it. Kept because the end-to-end benchmark calls it.
    pub fn subscribe(mut self) -> Self {
        self.subscribe = true;
        self
    }

    /// The iQL text.
    pub fn iql(&self) -> &str {
        &self.iql
    }

    /// The explicit budget, if one was set.
    pub fn requested_budget(&self) -> Option<QueryBudget> {
        self.budget
    }

    /// Whether a plan render was requested.
    pub fn wants_explain(&self) -> bool {
        self.explain
    }

    /// The ranking weights, if ranking was requested.
    pub fn wants_ranked(&self) -> Option<RankWeights> {
        self.ranked
    }

    /// Whether the cached path was requested.
    pub fn wants_cached(&self) -> bool {
        self.cached
    }

    /// Whether [`QueryRequest::subscribe`] was called (no caller).
    pub fn wants_subscribe(&self) -> bool {
        self.subscribe
    }
}

/// Everything one [`QueryProcessor::run`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The rows and execution statistics.
    pub result: QueryResult,
    /// The rendered plan, when [`QueryRequest::explain`] was set.
    pub explain: Option<String>,
    /// Scored rows (most relevant first), when [`QueryRequest::ranked`]
    /// was set.
    pub ranked: Option<Vec<RankedResult>>,
    /// A copy of `result.stats`, hoisted for callers that only read
    /// counters.
    pub stats: ExecStats,
}

impl QueryProcessor {
    /// Plans `request.iql()` once and serves every requested view of
    /// the execution from that single plan: rows (plain or through the
    /// result cache), the rendered plan, and ranked rows — without
    /// re-parsing, re-planning or re-executing for any of them.
    pub fn run(&self, request: &QueryRequest) -> Result<QueryResponse> {
        let plan = self.plan_iql(request.iql())?;
        let budget = request.requested_budget().unwrap_or(self.options().budget);
        let result = if request.wants_cached() {
            self.run_cached(&plan, budget)?
        } else {
            self.execute_plan_with(&plan, budget)?
        };
        let ranked = request
            .wants_ranked()
            .map(|weights| self.rank_rows(&plan, &result.rows, weights));
        let explain = request.wants_explain().then(|| plan.render());
        let stats = result.stats;
        Ok(QueryResponse {
            result,
            explain,
            ranked,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idm_index::IndexBundle;
    use std::sync::Arc;

    fn processor() -> QueryProcessor {
        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        let a = store.build("a.txt").text("database tuning notes").insert();
        let b = store.build("b.txt").text("database lectures").insert();
        store.build("notes").children(vec![a, b]).insert();
        for vid in store.vids() {
            indexes.index_view(&store, vid, "fs").unwrap();
        }
        QueryProcessor::new(store, indexes)
    }

    #[test]
    fn plain_request_matches_execute() {
        let p = processor();
        let response = p.run(&QueryRequest::new(r#""database""#)).unwrap();
        let direct = p.execute(r#""database""#).unwrap();
        assert_eq!(response.result, direct);
        assert_eq!(response.stats, response.result.stats, "stats are hoisted");
        assert!(response.explain.is_none());
        assert!(response.ranked.is_none());
    }

    #[test]
    fn switches_compose_on_one_plan() {
        let p = processor();
        let response = p
            .run(&QueryRequest::new(r#""database""#).explain().ranked())
            .unwrap();
        assert_eq!(response.result.rows.len(), 2);
        let explain = response.explain.expect("plan rendered");
        assert_eq!(explain, p.explain(r#""database""#).unwrap());
        let ranked = response.ranked.expect("rows ranked");
        assert_eq!(ranked.len(), 2);
        assert!(ranked[0].score >= ranked[1].score);
        // Same scores as the dedicated ranked path.
        assert_eq!(ranked, p.execute_ranked(r#""database""#).unwrap());
    }

    #[test]
    fn budget_switch_overrides_processor_default() {
        let budget = QueryBudget {
            cancel_after_checks: Some(1),
            partial: true,
            ..QueryBudget::default()
        };
        let p = processor();
        let response = p
            .run(&QueryRequest::new(r#""database""#).budget(budget))
            .unwrap();
        assert!(response.stats.partial, "tiny budget trips");
        // The processor's own default budget is untouched.
        assert!(
            !p.run(&QueryRequest::new(r#""database""#))
                .unwrap()
                .stats
                .partial
        );
    }

    #[test]
    fn cached_switch_routes_through_result_cache() {
        let p = processor();
        let request = QueryRequest::new(r#""database""#).cached();
        let first = p.run(&request).unwrap();
        assert_eq!(first.stats.result_cache_hits, 0);
        let second = p.run(&request).unwrap();
        assert_eq!(second.stats.result_cache_hits, 1);
        assert_eq!(second.result.rows, first.result.rows);
    }

    #[test]
    fn subscribe_flag_is_carried_not_executed() {
        let request = QueryRequest::new("//notes").subscribe();
        assert!(request.wants_subscribe());
        let p = processor();
        // run() treats it as a plain execution.
        assert_eq!(p.run(&request).unwrap().result.rows.len(), 1);
    }
}
