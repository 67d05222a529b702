//! The abstract syntax of iQL (Section 5.1).
//!
//! iQL extends IR keyword search with path expressions and attribute
//! predicates (in the spirit of NEXI / a simplified XPath 2.0):
//!
//! - `"database tuning"` — phrase query over content components,
//! - `"Donald" and "Knuth"` — boolean keyword combinations,
//! - `[size > 42000 and lastmodified < yesterday()]` — tuple predicates,
//! - `//PIM//Introduction[class="latex_section" and "Mike Franklin"]` —
//!   path steps over the resource view graph (`//` = indirectly
//!   related, `/` = directly related) with `*`/`?` name wildcards,
//! - `union(q1, q2, …)` and
//!   `join(q1 as A, q2 as B, A.name = B.tuple.label)`.

use std::fmt;

use idm_core::prelude::{Timestamp, Value};
use idm_index::name::NamePattern;
use idm_index::tuple::CompareOp;

/// A complete iQL query.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// A path expression over the resource view graph.
    Path(PathExpr),
    /// A dataspace-wide predicate (bare `[…]`, bare phrases, booleans).
    Filter(Pred),
    /// Set union of subquery results.
    Union(Vec<Query>),
    /// Value join between two subqueries.
    Join(Box<JoinExpr>),
}

/// A join: `join(q1 as A, q2 as B, A.f = B.g)`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinExpr {
    /// Left input.
    pub left: Query,
    /// Left binding name (e.g. `A`).
    pub left_binding: String,
    /// Right input.
    pub right: Query,
    /// Right binding name (e.g. `B`).
    pub right_binding: String,
    /// The equality condition.
    pub condition: JoinCondition,
}

/// `A.name = B.tuple.label`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinCondition {
    /// Left field reference.
    pub left: FieldRef,
    /// Right field reference.
    pub right: FieldRef,
}

/// A reference to a component field of a bound query's rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldRef {
    /// Which binding (`A`, `B`, …).
    pub binding: String,
    /// Which field.
    pub field: Field,
}

/// The addressable fields of a resource view in join conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Field {
    /// The name component `η`.
    Name,
    /// An attribute of the tuple component: `tuple.<attr>`.
    TupleAttr(String),
    /// The resource view class name.
    Class,
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Name => f.write_str("name"),
            Field::Class => f.write_str("class"),
            Field::TupleAttr(attr) => write!(f, "tuple.{attr}"),
        }
    }
}

/// A path expression: a sequence of steps.
#[derive(Debug, Clone, PartialEq)]
pub struct PathExpr {
    /// The steps, leftmost first.
    pub steps: Vec<Step>,
}

/// The axis of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `//`: indirectly related (any-length chain of group edges).
    Descendant,
    /// `/`: directly related (one group edge).
    Child,
}

/// One path step: axis, name pattern and optional predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// How this step relates to the previous one.
    pub axis: Axis,
    /// The name pattern (`*` when the step has no name constraint).
    pub name: NamePattern,
    /// The bracketed predicate, if any.
    pub pred: Option<Pred>,
}

/// A predicate over one resource view.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// Conjunction.
    And(Vec<Pred>),
    /// Disjunction.
    Or(Vec<Pred>),
    /// Negation.
    Not(Box<Pred>),
    /// The content component contains this phrase.
    Phrase(String),
    /// The view conforms to (a specialization of) this class.
    Class(String),
    /// Comparison of a tuple attribute against a literal.
    Cmp {
        /// Attribute name as written (aliases resolved at execution).
        attr: String,
        /// Comparison operator.
        op: CompareOp,
        /// Right-hand literal.
        value: Literal,
    },
}

/// A literal in a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// A concrete value.
    Value(Value),
    /// A date function evaluated against the execution context's clock:
    /// `yesterday()`, `today()`, `now()`.
    DateFn(DateFn),
}

/// The built-in date functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DateFn {
    /// Midnight of the previous day.
    Yesterday,
    /// Midnight of the current day.
    Today,
    /// The current instant.
    Now,
}

impl DateFn {
    /// Evaluates the function against `now`.
    pub fn eval(self, now: Timestamp) -> Timestamp {
        let (y, m, d) = now.to_ymd();
        let midnight = Timestamp::from_ymd(y, m, d).expect("valid civil date from timestamp");
        match self {
            DateFn::Now => now,
            DateFn::Today => midnight,
            DateFn::Yesterday => midnight.plus_days(-1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_fns_anchor_to_midnight() {
        let now = Timestamp::from_ymd_hms(2005, 6, 12, 15, 30, 0).unwrap();
        assert_eq!(DateFn::Now.eval(now), now);
        assert_eq!(
            DateFn::Today.eval(now),
            Timestamp::from_ymd(2005, 6, 12).unwrap()
        );
        assert_eq!(
            DateFn::Yesterday.eval(now),
            Timestamp::from_ymd(2005, 6, 11).unwrap()
        );
    }

    #[test]
    fn yesterday_crosses_month_boundary() {
        let now = Timestamp::from_ymd_hms(2005, 3, 1, 0, 0, 1).unwrap();
        assert_eq!(
            DateFn::Yesterday.eval(now),
            Timestamp::from_ymd(2005, 2, 28).unwrap()
        );
    }
}
