//! The iQL plan IR: one typed operator tree shared by the optimizer,
//! the executor and `EXPLAIN`.
//!
//! The paper's query processor is rule-based (Section 5.1; cost-based
//! optimization is named as future work). Earlier revisions of this
//! crate applied those rules twice — once inline in the executor and
//! once as prose in `EXPLAIN` — which let the two drift. This module
//! replaces both with a single pipeline:
//!
//! ```text
//! AST ──plan()──▶ logical plan (PlanNode tree, cost-annotated)
//!                 │  rewrites driven by `cost.rs` estimates:
//!                 │   · conjuncts intersect smallest-estimate first
//!                 │   · hash joins build on the smaller-estimate side
//!                 │   · the build side's join keys feed the probe
//!                 │     side's last name leaf (sideways key passing)
//!                 │   · index access vs. full catalog scan per step
//!                 ▼
//!          physical execution (exec.rs walks the same tree)
//!          EXPLAIN            (render() prints the same tree)
//! ```
//!
//! [`Plan::fingerprint`] hashes the normalized structure (operators,
//! accesses, decisions — not the volatile estimates) into a stable key
//! used by the [`crate::cache::ResultCache`] and by the
//! planner-determinism guard in `idm-bench`.

use std::fmt::{self, Write};

use idm_core::durability::codec::fnv1a64;
use idm_core::prelude::{IdmError, Result};
use idm_index::name::NamePattern;
use idm_index::tuple::CompareOp;

use crate::ast::*;
use crate::cost::Estimate;
use crate::exec::QueryProcessor;
use crate::parser::parse;

/// Which index a leaf access reads, with its argument.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessKind {
    /// Name index lookup (exact or wildcard pattern).
    Name(NamePattern),
    /// Content (full-text) index phrase lookup.
    Content(String),
    /// Tuple index comparison against a literal.
    Tuple {
        /// Attribute name as written (aliases resolved at execution).
        attr: String,
        /// Comparison operator.
        op: CompareOp,
        /// Right-hand literal (date functions evaluated at execution).
        value: Literal,
    },
    /// Catalog lookup of a class and its specializations.
    Catalog(String),
    /// Name index probed once per join key of the enclosing hash join's
    /// build side, for the keys the pattern matches: a probe side's
    /// last-step `Name` leaf after sideways key passing.
    NameByKeys(NamePattern),
}

/// Which join input the key table is built on (a plan-time decision
/// driven by cardinality estimates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildSide {
    /// Build on the left input, probe with the right.
    Left,
    /// Build on the right input, probe with the left.
    Right,
}

/// A logical/physical plan operator. The executor walks this tree; the
/// renderer prints it; there is no second interpretation.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Leaf: read one posting list from an index.
    IndexAccess(AccessKind),
    /// Leaf: enumerate the whole catalog (no usable index).
    Scan,
    /// Intersect the inputs, in plan order (smallest estimate first).
    Intersect(Vec<PlanNode>),
    /// Union the inputs and deduplicate.
    UnionOp(Vec<PlanNode>),
    /// Complement of the input against the catalog.
    Complement(Box<PlanNode>),
    /// Keep the candidates related to some context view along `axis`:
    /// for `//`, a range test of the candidates against the context's
    /// DFS intervals in the group replica; for `/`, a test of each
    /// candidate's parents.
    Relate {
        /// Produces the context views (the previous path steps).
        context: Box<PlanNode>,
        /// Produces the candidate views of this step.
        candidates: Box<PlanNode>,
        /// `/` (direct) or `//` (indirect) relatedness.
        axis: Axis,
    },
    /// Equi-join of two inputs on component fields: a key table built
    /// on one side, probed by the other.
    HashJoin {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
        /// Left binding name (for rendering).
        left_binding: String,
        /// Right binding name (for rendering).
        right_binding: String,
        /// Key field of the left input.
        left_field: Field,
        /// Key field of the right input.
        right_field: Field,
        /// Which side the key table is built on (cost-chosen). The
        /// build side runs first; its keys feed any
        /// [`AccessKind::NameByKeys`] leaf of the probe side.
        build: BuildSide,
    },
}

impl PlanOp {
    /// Short operator name — the `phase` a budget checkpoint reports in
    /// [`idm_core::error::IdmError::ResourceExhausted`], so exhaustion
    /// errors say which operator the query was in when it tripped.
    pub fn label(&self) -> &'static str {
        match self {
            PlanOp::IndexAccess(_) => "index-access",
            PlanOp::Scan => "scan",
            PlanOp::Intersect(_) => "intersect",
            PlanOp::UnionOp(_) => "union",
            PlanOp::Complement(_) => "complement",
            PlanOp::Relate { .. } => "relate",
            PlanOp::HashJoin { .. } => "hash-join",
        }
    }
}

/// One plan node: an operator plus its cardinality estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// The operator.
    pub op: PlanOp,
    /// Estimated output cardinality (from `cost.rs`, at plan time).
    pub est: Estimate,
}

/// A complete, executable query plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The root operator.
    pub root: PlanNode,
}

/// Per-operator counts — of nodes in a plan, or of operators actually
/// executed (folded into [`crate::exec::ExecStats::ops`]). The
/// plan/exec agreement suite asserts the two are equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorCounts {
    /// Index posting-list reads.
    pub index_accesses: usize,
    /// Full catalog scans.
    pub scans: usize,
    /// Intersections.
    pub intersects: usize,
    /// Unions.
    pub unions: usize,
    /// Complements against the catalog.
    pub complements: usize,
    /// Path-step relate (expansion) operators.
    pub relates: usize,
    /// Hash joins.
    pub hash_joins: usize,
}

impl OperatorCounts {
    /// Total operators.
    pub fn total(&self) -> usize {
        self.index_accesses
            + self.scans
            + self.intersects
            + self.unions
            + self.complements
            + self.relates
            + self.hash_joins
    }
}

impl Plan {
    /// Counts the operators in the plan tree.
    pub fn operator_counts(&self) -> OperatorCounts {
        let mut counts = OperatorCounts::default();
        count_ops(&self.root, &mut counts);
        counts
    }

    /// Renders the plan as indented text (the `EXPLAIN` output). This
    /// prints the *same* tree the executor walks.
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_node(&self.root, 0, false, &mut out).expect("a String takes every write");
        out
    }

    /// [`Plan::render`] with per-node cardinality estimates — the
    /// "EXPLAIN (with estimates)" a cost-based optimizer starts from.
    pub fn render_with_estimates(&self) -> String {
        let mut out = String::new();
        render_node(&self.root, 0, true, &mut out).expect("a String takes every write");
        out
    }

    /// A stable 64-bit fingerprint of the normalized plan structure
    /// (operators, accesses and rewrite decisions; estimates excluded).
    /// Same query + same catalog statistics ⇒ identical fingerprint,
    /// which is what lets result caches key on it. FNV-1a is
    /// deterministic across runs, processes and platforms (unlike the
    /// std hasher, whose keys are unspecified).
    pub fn fingerprint(&self) -> u64 {
        let mut canonical = String::with_capacity(256);
        canonicalize(&self.root, &mut canonical).expect("a String takes every write");
        fnv1a64(canonical.as_bytes())
    }
}

fn count_ops(node: &PlanNode, counts: &mut OperatorCounts) {
    match &node.op {
        PlanOp::IndexAccess(_) => counts.index_accesses += 1,
        PlanOp::Scan => counts.scans += 1,
        PlanOp::Intersect(inputs) => {
            counts.intersects += 1;
            for input in inputs {
                count_ops(input, counts);
            }
        }
        PlanOp::UnionOp(inputs) => {
            counts.unions += 1;
            for input in inputs {
                count_ops(input, counts);
            }
        }
        PlanOp::Complement(exclude) => {
            counts.complements += 1;
            count_ops(exclude, counts);
        }
        PlanOp::Relate {
            context,
            candidates,
            ..
        } => {
            counts.relates += 1;
            count_ops(context, counts);
            count_ops(candidates, counts);
        }
        PlanOp::HashJoin { left, right, .. } => {
            counts.hash_joins += 1;
            count_ops(left, counts);
            count_ops(right, counts);
        }
    }
}

/// Writes the node's canonical form into `out`, formatting no part of
/// it into a buffer of its own. Writing into a `String` cannot fail.
fn canonicalize(node: &PlanNode, out: &mut String) -> fmt::Result {
    match &node.op {
        PlanOp::IndexAccess(access) => match access {
            AccessKind::Name(pattern) => {
                out.push_str("ia:name:");
                out.push_str(pattern.as_str());
            }
            AccessKind::Content(phrase) => {
                out.push_str("ia:content:");
                out.push_str(phrase);
            }
            AccessKind::Tuple { attr, op, value } => {
                write!(out, "ia:tuple:{attr}:{op:?}:{value:?}")?
            }
            AccessKind::Catalog(class) => {
                out.push_str("ia:catalog:");
                out.push_str(class);
            }
            AccessKind::NameByKeys(pattern) => {
                out.push_str("ia:name-by-keys:");
                out.push_str(pattern.as_str());
            }
        },
        PlanOp::Scan => out.push_str("scan"),
        PlanOp::Intersect(inputs) | PlanOp::UnionOp(inputs) => {
            out.push_str(if matches!(node.op, PlanOp::Intersect(_)) {
                "and("
            } else {
                "or("
            });
            for input in inputs {
                canonicalize(input, out)?;
                out.push(',');
            }
            out.push(')');
        }
        PlanOp::Complement(exclude) => {
            out.push_str("not(");
            canonicalize(exclude, out)?;
            out.push(')');
        }
        PlanOp::Relate {
            context,
            candidates,
            axis,
        } => {
            write!(out, "rel:{axis:?}(")?;
            canonicalize(context, out)?;
            out.push(',');
            canonicalize(candidates, out)?;
            out.push(')');
        }
        PlanOp::HashJoin {
            left,
            right,
            left_field,
            right_field,
            build,
            ..
        } => {
            write!(out, "join:{left_field}:{right_field}:{build:?}(")?;
            canonicalize(left, out)?;
            out.push(',');
            canonicalize(right, out)?;
            out.push(')');
        }
    }
    out.push(';');
    Ok(())
}

fn render_node(node: &PlanNode, depth: usize, estimates: bool, out: &mut String) -> fmt::Result {
    for _ in 0..depth {
        out.push_str("  ");
    }
    match &node.op {
        PlanOp::IndexAccess(access) => match access {
            AccessKind::Name(pattern) if pattern.is_exact() => {
                write!(out, "IndexAccess NameIndex exact '{}'", pattern.as_str())?
            }
            AccessKind::Name(pattern) => {
                write!(out, "IndexAccess NameIndex wildcard '{}'", pattern.as_str())?
            }
            AccessKind::Content(phrase) => {
                write!(out, "IndexAccess ContentIndex phrase \"{phrase}\"")?
            }
            AccessKind::Tuple { attr, op, value } => {
                write!(out, "IndexAccess TupleIndex {attr} {op:?} {value:?}")?
            }
            AccessKind::Catalog(class) => write!(
                out,
                "IndexAccess Catalog class '{class}' (+ specializations)"
            )?,
            AccessKind::NameByKeys(pattern) => write!(
                out,
                "IndexAccess NameIndex exact per join key matching '{}'",
                pattern.as_str()
            )?,
        },
        PlanOp::Scan => out.push_str("Scan (full catalog)"),
        PlanOp::Intersect(inputs) => write!(
            out,
            "Intersect ({} inputs, smallest-estimate first)",
            inputs.len()
        )?,
        PlanOp::UnionOp(inputs) => write!(out, "Union ({} inputs, dedup)", inputs.len())?,
        PlanOp::Complement(_) => out.push_str("Complement (against catalog)"),
        PlanOp::Relate { axis, .. } => out.push_str(match axis {
            Axis::Descendant => "Relate indirectly-related (//)",
            Axis::Child => "Relate directly-related (/)",
        }),
        PlanOp::HashJoin {
            left,
            right,
            left_binding,
            right_binding,
            left_field,
            right_field,
            build,
        } => {
            let (build_text, build_binding, probe) = match build {
                BuildSide::Left => ("left", left_binding, right),
                BuildSide::Right => ("right", right_binding, left),
            };
            write!(
                out,
                "HashJoin on {left_binding}.{left_field} = {right_binding}.{right_field}, build={build_text}"
            )?;
            if estimates {
                write!(out, " (est. {} vs {})", left.est.rows, right.est.rows)?;
            }
            if reads_join_keys(probe) {
                write!(out, ", keys from {build_binding}")?;
            }
        }
    }
    // A join prints its inputs' estimates instead of its own.
    if estimates && !matches!(node.op, PlanOp::HashJoin { .. }) {
        let exact = if node.est.exact { ", exact" } else { "" };
        write!(out, "  (est. {} rows{exact})", node.est.rows)?;
    }
    out.push('\n');
    match &node.op {
        PlanOp::IndexAccess(_) | PlanOp::Scan => {}
        PlanOp::Intersect(inputs) | PlanOp::UnionOp(inputs) => {
            for input in inputs {
                render_node(input, depth + 1, estimates, out)?;
            }
        }
        PlanOp::Complement(exclude) => render_node(exclude, depth + 1, estimates, out)?,
        PlanOp::Relate {
            context: first,
            candidates: second,
            ..
        }
        | PlanOp::HashJoin {
            left: first,
            right: second,
            ..
        } => {
            render_node(first, depth + 1, estimates, out)?;
            render_node(second, depth + 1, estimates, out)?;
        }
    }
    Ok(())
}

// ---- the planner -----------------------------------------------------

/// Builds one plan. Each node is estimated once, from its index's
/// statistics or its children's estimates (`cost.rs`); the statistics
/// every estimate shares are read when planning starts.
pub(crate) struct Planner<'p> {
    pub(crate) processor: &'p QueryProcessor,
    /// Catalogued views: the estimator's universe.
    pub(crate) universe: usize,
    /// The group replica's edges per view.
    pub(crate) fan_out: f64,
}

impl QueryProcessor {
    /// Parses an iQL query and plans it under the current options.
    pub fn plan_iql(&self, iql: &str) -> Result<Plan> {
        self.plan(&parse(iql)?)
    }

    /// Plans a parsed query: builds the cost-annotated operator tree
    /// and applies the rule-based rewrites (smallest-estimate-first
    /// intersections, cost-chosen join build sides, index-vs-scan), then
    /// passes each join's keys sideways: a probe side keyed by `name`
    /// reads its last step's names from the build side's keys
    /// ([`AccessKind::NameByKeys`]).
    pub fn plan(&self, query: &Query) -> Result<Plan> {
        let mut plan = self.plan_without_key_passing(query)?;
        pass_keys_sideways(&mut plan.root);
        Ok(plan)
    }

    /// [`QueryProcessor::plan`] without the sideways key-passing pass:
    /// every join input is evaluated on its own, as the paper's
    /// processor does. The rows equal the full plan's, which makes it
    /// the oracle of the rewrite's tests.
    pub fn plan_without_key_passing(&self, query: &Query) -> Result<Plan> {
        Ok(Plan {
            root: Planner::new(self).plan_query(query)?,
        })
    }

    /// Renders the execution plan of an iQL query — the same plan
    /// object [`QueryProcessor::execute`] runs.
    pub fn explain(&self, iql: &str) -> Result<String> {
        Ok(self.plan_iql(iql)?.render())
    }
}

impl Planner<'_> {
    fn plan_query(&self, query: &Query) -> Result<PlanNode> {
        match query {
            Query::Filter(pred) => Ok(self.plan_pred(pred)),
            Query::Path(path) => Ok(self.plan_path(path)),
            Query::Union(members) => {
                let inputs: Vec<PlanNode> = members
                    .iter()
                    .map(|m| self.plan_query(m))
                    .collect::<Result<_>>()?;
                Ok(PlanNode {
                    est: self.estimate_sum(&inputs),
                    op: PlanOp::UnionOp(inputs),
                })
            }
            Query::Join(join) => self.plan_join(join),
        }
    }

    fn plan_pred(&self, pred: &Pred) -> PlanNode {
        let leaf = |est, access| PlanNode {
            op: PlanOp::IndexAccess(access),
            est,
        };
        match pred {
            Pred::Phrase(phrase) => leaf(
                self.estimate_phrase(phrase),
                AccessKind::Content(phrase.clone()),
            ),
            Pred::Class(class) => leaf(
                self.estimate_class(class),
                AccessKind::Catalog(class.clone()),
            ),
            Pred::Cmp { attr, op, value } => leaf(
                self.estimate_cmp(attr, *op),
                AccessKind::Tuple {
                    attr: attr.clone(),
                    op: *op,
                    value: value.clone(),
                },
            ),
            Pred::And(members) => {
                let inputs: Vec<PlanNode> = members.iter().map(|m| self.plan_pred(m)).collect();
                PlanNode {
                    est: Estimate::smallest(&inputs),
                    op: PlanOp::Intersect(order_smallest_first(inputs)),
                }
            }
            Pred::Or(members) => {
                let inputs: Vec<PlanNode> = members.iter().map(|m| self.plan_pred(m)).collect();
                PlanNode {
                    est: self.estimate_sum(&inputs),
                    op: PlanOp::UnionOp(inputs),
                }
            }
            Pred::Not(inner) => {
                let excluded = self.plan_pred(inner);
                PlanNode {
                    est: self.estimate_complement(excluded.est),
                    op: PlanOp::Complement(Box::new(excluded)),
                }
            }
        }
    }

    /// Plans one path step's candidate set: index accesses intersected
    /// where available, an explicit full scan where not.
    fn plan_step_candidates(&self, step: &Step) -> PlanNode {
        let by_name = (!step.name.matches_all()).then(|| PlanNode {
            est: self.estimate_name(&step.name),
            op: PlanOp::IndexAccess(AccessKind::Name(step.name.clone())),
        });
        let by_pred = step.pred.as_ref().map(|pred| self.plan_pred(pred));
        match (by_name, by_pred) {
            (Some(a), Some(b)) => PlanNode {
                est: Estimate::smallest([&a, &b]),
                op: PlanOp::Intersect(order_smallest_first(vec![a, b])),
            },
            (Some(a), None) => a,
            (None, Some(b)) => b,
            // Index-vs-scan as an explicit plan decision: nothing to
            // look up, so enumerate the catalog.
            (None, None) => PlanNode {
                op: PlanOp::Scan,
                est: self.estimate_all(),
            },
        }
    }

    fn plan_path(&self, path: &PathExpr) -> PlanNode {
        let mut node: Option<PlanNode> = None;
        for step in &path.steps {
            let candidates = self.plan_step_candidates(step);
            node = Some(match node {
                // The first step has no ancestry constraint.
                None => candidates,
                Some(context) => PlanNode {
                    est: self.estimate_relate(step.axis, context.est, candidates.est),
                    op: PlanOp::Relate {
                        context: Box::new(context),
                        candidates: Box::new(candidates),
                        axis: step.axis,
                    },
                },
            });
        }
        node.unwrap_or(PlanNode {
            op: PlanOp::Scan,
            est: self.estimate_all(),
        })
    }

    fn plan_join(&self, join: &JoinExpr) -> Result<PlanNode> {
        if join.left_binding == join.right_binding {
            return Err(IdmError::Parse {
                detail: format!(
                    "iql: duplicate join binding '{}' — inputs need distinct names",
                    join.left_binding
                ),
            });
        }
        // The condition must reference each binding exactly once; a
        // condition like `A.name = A.name` is ambiguous (which rows of
        // B would it constrain?) and is rejected here.
        for field_ref in [&join.condition.left, &join.condition.right] {
            if field_ref.binding != join.left_binding && field_ref.binding != join.right_binding {
                return Err(IdmError::Parse {
                    detail: format!(
                        "iql: unknown join binding '{}' (have '{}' and '{}')",
                        field_ref.binding, join.left_binding, join.right_binding
                    ),
                });
            }
        }
        if join.condition.left.binding == join.condition.right.binding {
            return Err(IdmError::Parse {
                detail: format!(
                    "iql: ambiguous join condition — both sides reference binding '{}'; \
                     the condition must mention '{}' and '{}' once each",
                    join.condition.left.binding, join.left_binding, join.right_binding
                ),
            });
        }
        let left = self.plan_query(&join.left)?;
        let right = self.plan_query(&join.right)?;

        // Orient the condition fields to their sides.
        let (left_field, right_field) = if join.condition.left.binding == join.left_binding {
            (
                join.condition.left.field.clone(),
                join.condition.right.field.clone(),
            )
        } else {
            (
                join.condition.right.field.clone(),
                join.condition.left.field.clone(),
            )
        };

        // Cost-driven build side: hash the smaller estimated input.
        let build = if left.est.rows <= right.est.rows {
            BuildSide::Left
        } else {
            BuildSide::Right
        };
        let est = Estimate::smallest([&left, &right]);
        Ok(PlanNode {
            op: PlanOp::HashJoin {
                left: Box::new(left),
                right: Box::new(right),
                left_binding: join.left_binding.clone(),
                right_binding: join.right_binding.clone(),
                left_field,
                right_field,
                build,
            },
            est,
        })
    }
}

/// The sideways key-passing rewrite, applied to every hash join whose
/// probe side is keyed by `name`: the build side runs first,
/// and its distinct keys replace the `Name` leaf of the probe side's
/// last path step, which becomes one exact name-index probe per key the
/// leaf's pattern matches ([`AccessKind::NameByKeys`]). That step's
/// candidates are then bounded by the key count, so its `Relate`
/// usually walks backward from them.
///
/// The rows do not change. The probe side's rows are a subset of its
/// last step's candidates, and a candidate whose name is no build key
/// pairs with nothing in the hash join anyway; a truncated build side
/// passes a subset of the keys, which keeps a subset of the pairs.
fn pass_keys_sideways(node: &mut PlanNode) {
    // Joins nest only as join inputs (a union of joins does not run).
    let PlanOp::HashJoin {
        left,
        right,
        left_field,
        right_field,
        build,
        ..
    } = &mut node.op
    else {
        return;
    };
    pass_keys_sideways(left);
    pass_keys_sideways(right);
    let (probe, probe_field) = match build {
        BuildSide::Left => (right, right_field),
        BuildSide::Right => (left, left_field),
    };
    if *probe_field == Field::Name {
        feed_last_name_leaf(probe);
    }
}

/// Whether a join's probe side reads the join's keys: whether it holds
/// an [`AccessKind::NameByKeys`] leaf outside any join nested in it
/// (a nested join feeds its own probe side).
fn reads_join_keys(node: &PlanNode) -> bool {
    match &node.op {
        PlanOp::IndexAccess(access) => matches!(access, AccessKind::NameByKeys(_)),
        PlanOp::Intersect(inputs) | PlanOp::UnionOp(inputs) => inputs.iter().any(reads_join_keys),
        PlanOp::Complement(input) => reads_join_keys(input),
        PlanOp::Relate {
            context,
            candidates,
            ..
        } => reads_join_keys(context) || reads_join_keys(candidates),
        PlanOp::Scan | PlanOp::HashJoin { .. } => false,
    }
}

/// Turns the `Name` leaf of a path plan's last step into a
/// [`AccessKind::NameByKeys`] leaf. Nothing changes when the last step
/// has no name leaf — a bare `*` step, or no path at all.
fn feed_last_name_leaf(path: &mut PlanNode) {
    let step = match &mut path.op {
        PlanOp::Relate { candidates, .. } => &mut **candidates,
        _ => path,
    };
    // A step's candidates are its name leaf, or the name leaf and the
    // step's predicate intersected.
    let leaf = match &mut step.op {
        PlanOp::Intersect(inputs) => inputs
            .iter_mut()
            .find(|input| matches!(input.op, PlanOp::IndexAccess(AccessKind::Name(_)))),
        _ => Some(step),
    };
    let Some(leaf) = leaf else {
        return;
    };
    let PlanOp::IndexAccess(AccessKind::Name(pattern)) = &leaf.op else {
        return;
    };
    leaf.op = PlanOp::IndexAccess(AccessKind::NameByKeys(pattern.clone()));
}

/// Rewrite rule: order intersection inputs by ascending estimate.
/// Ties keep the written order (stable), so plans are deterministic.
fn order_smallest_first(mut inputs: Vec<PlanNode>) -> Vec<PlanNode> {
    inputs.sort_by_key(|n| n.est.rows);
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use idm_core::prelude::*;
    use idm_index::IndexBundle;
    use std::sync::Arc;

    fn space() -> QueryProcessor {
        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        for i in 0..40 {
            store
                .build(if i == 0 {
                    "VLDB2006".to_owned()
                } else {
                    format!("figure{i}")
                })
                .tuple(TupleComponent::of(vec![
                    ("size", Value::Integer(i)),
                    ("label", Value::Text(format!("fig:{i}"))),
                ]))
                .text(if i < 4 {
                    "rare texref needle".to_owned()
                } else {
                    "common haystack words".to_owned()
                })
                .class_named("file")
                .insert();
        }
        for vid in store.vids() {
            indexes.index_view(&store, vid, "test").unwrap();
        }
        QueryProcessor::new(store, indexes)
    }

    #[test]
    fn explains_q7_shape() {
        let p = space();
        let plan = p
            .explain(
                r#"join( //VLDB2006//*[class="texref"] as A,
                         //VLDB2006//*[class="environment"]//figure* as B,
                         A.name=B.tuple.label)"#,
            )
            .unwrap();
        assert!(
            plan.contains("HashJoin on A.name = B.tuple.label"),
            "{plan}"
        );
        assert!(plan.contains("NameIndex exact 'VLDB2006'"), "{plan}");
        assert!(plan.contains("NameIndex wildcard 'figure*'"), "{plan}");
        assert!(plan.contains("Catalog class 'texref'"), "{plan}");
        assert!(plan.contains("Relate indirectly-related (//)"), "{plan}");
        assert!(plan.contains("build="), "{plan}");
    }

    #[test]
    fn explains_filters_and_unions() {
        let p = space();
        let plan = p
            .explain(r#"union( //A//*["x" and size > 3], "y" )"#)
            .unwrap();
        assert!(plan.contains("Union (2 inputs"), "{plan}");
        assert!(plan.contains("ContentIndex phrase \"x\""), "{plan}");
        assert!(plan.contains("TupleIndex size"), "{plan}");
    }

    #[test]
    fn explain_propagates_parse_errors() {
        let p = space();
        assert!(p.explain("[size >").is_err());
        assert!(p.explain("").is_err());
    }

    #[test]
    fn intersections_order_smallest_estimate_first() {
        let p = space();
        // "haystack" (36 docs) written before "needle" (4 docs): the
        // rewrite must flip them.
        let plan = p.plan_iql(r#"["haystack" and "needle"]"#).unwrap();
        let PlanOp::Intersect(inputs) = &plan.root.op else {
            panic!("expected an intersection, got {:?}", plan.root.op);
        };
        assert!(
            inputs.windows(2).all(|w| w[0].est.rows <= w[1].est.rows),
            "inputs not estimate-ordered: {inputs:?}"
        );
        assert_eq!(
            inputs[0].op,
            PlanOp::IndexAccess(AccessKind::Content("needle".into()))
        );
    }

    #[test]
    fn join_build_side_follows_estimates() {
        let p = space();
        let plan = p
            .plan_iql(r#"join( "haystack" as A, "needle" as B, A.name = B.name )"#)
            .unwrap();
        let PlanOp::HashJoin {
            left, right, build, ..
        } = &plan.root.op
        else {
            panic!()
        };
        assert!(left.est.rows > right.est.rows);
        assert_eq!(*build, BuildSide::Right, "hash the rare side");
    }

    #[test]
    fn bare_wildcard_step_is_an_explicit_scan() {
        let p = space();
        let plan = p.plan_iql("//*").unwrap();
        assert_eq!(plan.root.op, PlanOp::Scan);
        assert_eq!(plan.root.est.rows, 40);
    }

    #[test]
    fn fingerprints_are_stable_and_structural() {
        let p = space();
        let a = p.plan_iql(r#"["needle" and "haystack"]"#).unwrap();
        let b = p.plan_iql(r#"["needle" and "haystack"]"#).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same query, same key");
        let c = p.plan_iql(r#"["needle" and "words"]"#).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint(), "different query");
        // The fingerprint reflects decisions, not estimate numbers:
        // rendering differs only in estimates, fingerprints agree.
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn operator_counts_cover_every_node() {
        let p = space();
        let plan = p
            .plan_iql(r#"union( //VLDB2006//*[class="file" and "needle"], [not "needle"] )"#)
            .unwrap();
        let counts = plan.operator_counts();
        assert_eq!(counts.unions, 1);
        assert_eq!(counts.relates, 1);
        assert_eq!(counts.complements, 1);
        assert!(counts.index_accesses >= 3, "{counts:?}");
        assert_eq!(counts.total(), {
            let c = counts;
            c.index_accesses
                + c.scans
                + c.intersects
                + c.unions
                + c.complements
                + c.relates
                + c.hash_joins
        });
    }

    #[test]
    fn ambiguous_join_conditions_are_rejected_at_plan_time() {
        let p = space();
        // Both sides reference the same binding.
        let err = p
            .plan_iql(r#"join( //a as A, //b as B, A.name = A.name )"#)
            .unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
        // Unknown binding.
        let err = p
            .plan_iql(r#"join( //a as A, //b as B, C.name = B.name )"#)
            .unwrap_err();
        assert!(err.to_string().contains("binding"), "{err}");
        // Duplicate binding names.
        let err = p
            .plan_iql(r#"join( //a as A, //b as A, A.name = A.name )"#)
            .unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        // Swapped-order conditions stay legal.
        assert!(p
            .plan_iql(r#"join( //a as A, //b as B, B.name = A.name )"#)
            .is_ok());
    }
}
