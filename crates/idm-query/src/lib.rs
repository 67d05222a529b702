//! # idm-query — iQL, the iMeMex Query Language (Section 5.1)
//!
//! iQL is an end-user language extending IR keyword search with path
//! expressions and attribute predicates over the resource view graph.
//! The evaluation queries of Table 4 all run through this crate:
//!
//! ```text
//! Q1  "database"
//! Q2  "database tuning"
//! Q3  [size > 420000 and lastmodified < @12.06.2005]
//! Q4  //papers//*Vision/*["Franklin"]
//! Q5  //VLDB200?//?onclusion*/*["systems"]
//! Q6  union( //VLDB2005//*["documents"], //VLDB2006//*["documents"])
//! Q7  join( //VLDB2006//*[class="texref"] as A,
//!           //VLDB2006//*[class="environment"]//figure* as B,
//!           A.name=B.tuple.label)
//! Q8  join ( //*[class = "emailmessage"]//*.tex as A,
//!            //papers//*.tex as B, A.name = B.name )
//! ```
//!
//! Pipeline: [`lexer`] → [`parser`] → AST → [`plan`] (a typed logical
//! operator tree, rewritten under [`cost`] estimates) →
//! [`exec::QueryProcessor`] walking that same plan against the
//! [`idm_index::IndexBundle`]. `EXPLAIN`
//! ([`exec::QueryProcessor::explain`]) renders the identical plan
//! object the executor runs, and [`plan::Plan::fingerprint`] keys the
//! whole-result cache. A path step walks no group edges: a `//` step is
//! a range test over the group replica's DFS labels (each candidate
//! tested against the context's intervals, or the reached positions
//! enumerated against the candidates, whichever is less work), and a
//! `/` step tests each candidate's parents.

#![warn(missing_docs)]
#![warn(clippy::format_push_string)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod ast;
pub mod budget;
pub mod cache;
pub mod cost;
pub mod delta;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod rank;
pub mod request;
pub mod update;

pub use ast::Query;
pub use budget::{BudgetConsumption, BudgetTracker, QueryBudget, Tick};
pub use cache::{
    LiveQuery, LiveStats, ResultCache, ResultCacheCounters, MAX_CONSECUTIVE_MAINTENANCE_FAILURES,
};
pub use cost::{explain_with_estimates, Estimate};
pub use delta::{DeltaStats, MaintainedPlan, ResultDelta};
pub use exec::{ExecOptions, ExecStats, QueryProcessor, QueryResult, ResultRows};
pub use parser::parse;
pub use plan::{AccessKind, BuildSide, OperatorCounts, Plan, PlanNode, PlanOp};
pub use rank::{RankWeights, RankedResult};
pub use request::{QueryRequest, QueryResponse};
pub use update::{parse_update, UpdateAction, UpdateOutcome, UpdateStatement};
