//! iQL physical execution: a walker over the plan IR of [`crate::plan`]
//! plus the interval test behind a path step.
//!
//! The paper's processor "fetches the data via index accesses, \[then\]
//! obtains indirectly related resource views by **forward expansion**"
//! (Section 7.2), and names that expansion as the cost of its slow
//! queries. No step here expands. The group replica labels a spanning
//! forest of the view graph with DFS intervals and sets the few other
//! edges aside ([`idm_index::group`]); a `//` step is a range test over
//! those labels, and a `/` step reads each candidate's in-edges. Both
//! are tested against [`idm_core::graph`], a BFS over the store.
//!
//! A path step reads the replica under one [`idm_index::GroupRead`] guard,
//! following the read discipline of [`idm_index::group`].
//!
//! The executor holds **no query-shape logic of its own**: every rule
//! decision (which index to read, intersection order, join build side)
//! was made by the planner and is recorded in the [`PlanNode`] tree this
//! module walks. `EXPLAIN` renders the identical tree, so the plan you
//! read is the plan that ran — per-operator counts in
//! [`ExecStats::ops`] make that checkable.

use std::fmt::Write as _;
use std::sync::Arc;

use crossbeam::channel::{unbounded, Sender};
use idm_core::prelude::*;
use idm_index::{IndexBundle, Reach, VidSet};

use crate::ast::*;
use crate::budget::{BudgetConsumption, BudgetTracker, QueryBudget, Tick};
use crate::cache::{LiveQuery, ResultCache};
use crate::delta::ResultDelta;
use crate::parser::parse;
use crate::plan::{AccessKind, BuildSide, OperatorCounts, Plan, PlanNode, PlanOp};
use crate::request::QueryRequest;

/// Capacity of the per-processor standing-result table (plain entries;
/// those with listeners are held beside it).
pub(crate) const RESULT_CACHE_CAPACITY: usize = 256;

/// A join's build side: each build row with its key, the keys written
/// end to end in one buffer and the rows sorted by key. Its distinct
/// keys are what a sideways-keyed probe side reads. A table of one
/// string and one vid list per key frees that many small blocks at the
/// end of every join, and glibc merges them in whichever query next
/// asks for a large block; two buffers free two.
#[derive(Default)]
struct JoinTable {
    text: String,
    /// `(start, end)` of the row's key in `text`, and the row.
    rows: Vec<(usize, usize, Vid)>,
}

impl JoinTable {
    fn key(&self, &(start, end, _): &(usize, usize, Vid)) -> &str {
        &self.text[start..end]
    }

    /// Sorts the rows by key; rows with one key keep their order.
    fn sort(&mut self) {
        let mut rows = std::mem::take(&mut self.rows);
        rows.sort_by(|a, b| self.key(a).cmp(self.key(b)));
        self.rows = rows;
    }

    /// The build rows carrying `key`, in build order.
    fn rows_of(&self, key: &str) -> impl Iterator<Item = Vid> + '_ {
        let start = self.rows.partition_point(|row| self.key(row) < key);
        let len = self.rows[start..].partition_point(|row| self.key(row) == key);
        self.rows[start..start + len].iter().map(|&(_, _, vid)| vid)
    }

    /// Each distinct key once.
    fn keys(&self) -> impl Iterator<Item = &str> + '_ {
        self.rows
            .chunk_by(|a, b| self.key(a) == self.key(b))
            .map(|run| self.key(&run[0]))
    }
}

/// Execution options.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// The clock used by `yesterday()`/`today()`/`now()`.
    pub now: Timestamp,
    /// Ignored: every query runs on the thread that calls the executor.
    /// The field is kept so code that reads it still compiles; it will
    /// be removed.
    pub parallelism: usize,
    /// Resource limits for each query this processor runs (deadline,
    /// memory/row/node caps, partial-result opt-in). The default is
    /// unlimited, which keeps the governed hot path bit-identical to
    /// ungoverned execution.
    pub budget: QueryBudget,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            // A fixed default clock keeps tests and benchmarks
            // deterministic; systems pass the wall clock.
            now: Timestamp::from_ymd(2006, 9, 12).expect("valid date"),
            parallelism: 1,
            budget: QueryBudget::none(),
        }
    }
}

/// Execution statistics (the paper discusses Q8's intermediate-result
/// blow-up; these counters expose it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Positions a `//` step enumerated in its reached ranges (overlay
    /// views included) plus overlay edges walked: the parent-column steps
    /// taken to decide a view the labels do not cover yet. Candidates
    /// tested against the ranges are charged to the budget but not
    /// counted here. This is not the paper's forward-expansion count.
    pub nodes_expanded: usize,
    /// Rows output by the index accesses, scans, intersections, unions
    /// and complements, summed over those operators (a row two of them
    /// output counts twice). Path steps and joins add nothing.
    pub candidates_examined: usize,
    /// Physical operators executed, by kind. Always equal to the plan's
    /// [`Plan::operator_counts`] — the plan/exec agreement invariant.
    pub ops: OperatorCounts,
    /// Whole results served from the [`ResultCache`] (only for
    /// [`QueryRequest::cached`](crate::request::QueryRequest::cached)
    /// requests).
    pub result_cache_hits: u64,
    /// Whether a partial-mode budget tripped and truncated this result
    /// to a sound subset of the true rows. Always `false` on unbudgeted
    /// and strict-mode successes; partial results are never admitted to
    /// the [`ResultCache`].
    pub partial: bool,
    /// The limit that tripped first, when `partial` (or, for a probe
    /// budget, never — probes only count).
    pub exhausted: Option<idm_core::error::BudgetKind>,
    /// Per-budget consumption counters (rows/nodes/bytes/checkpoints).
    /// All zero for unbudgeted queries — the disabled tracker counts
    /// nothing, keeping unbudgeted `ExecStats` bit-identical across
    /// reruns.
    pub consumed: BudgetConsumption,
}

/// Result rows: plain views, or pairs for joins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResultRows {
    /// Views.
    Views(Vec<Vid>),
    /// `(left, right)` pairs from a join.
    Pairs(Vec<(Vid, Vid)>),
}

impl ResultRows {
    /// Number of result rows.
    pub fn len(&self) -> usize {
        match self {
            ResultRows::Views(v) => v.len(),
            ResultRows::Pairs(p) => p.len(),
        }
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The views of a plain result (left-hand views for pairs).
    pub fn views(&self) -> Vec<Vid> {
        match self {
            ResultRows::Views(v) => v.clone(),
            ResultRows::Pairs(p) => p.iter().map(|(a, _)| *a).collect(),
        }
    }

    /// [`ResultRows::views`] of an owned result, without copying a
    /// plain one.
    pub fn into_views(self) -> Vec<Vid> {
        match self {
            ResultRows::Views(v) => v,
            ResultRows::Pairs(p) => p.into_iter().map(|(a, _)| a).collect(),
        }
    }
}

/// A complete query result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// The rows.
    pub rows: ResultRows,
    /// Execution statistics.
    pub stats: ExecStats,
}

/// Maps iQL attribute spellings to the `W_FS` attribute names
/// (`lastmodified` in Q3 refers to the `last modified time` attribute).
pub fn resolve_attr(attr: &str) -> String {
    let key: String = attr
        .chars()
        .filter(|c| c.is_alphanumeric())
        .flat_map(char::to_lowercase)
        .collect();
    match key.as_str() {
        "lastmodified" | "lastmodifiedtime" | "modified" => "last modified time".to_owned(),
        "created" | "creationtime" | "creation" => "creation time".to_owned(),
        _ => attr.to_owned(),
    }
}

/// Pushes `item` onto a result buffer that grows one element at a time.
/// A full buffer moves to a fresh block of twice the size; it is not
/// `realloc`ed. glibc grows a block inside the malloc arena the block
/// came from, and its per-thread cache hands the query thread small
/// blocks the *ingest workers'* arena once made. After a large teardown
/// elsewhere in the process that arena's free lists take milliseconds
/// to walk, once per query for as long as the same block keeps coming
/// back. A fresh block is never grown, so it never enters that arena's
/// allocator.
fn push<T>(out: &mut Vec<T>, item: T) {
    if out.len() == out.capacity() {
        let mut grown = Vec::with_capacity((2 * out.capacity()).max(1));
        grown.append(out);
        *out = grown;
    }
    out.push(item);
}

/// The iQL query processor.
pub struct QueryProcessor {
    store: Arc<ViewStore>,
    indexes: Arc<IndexBundle>,
    options: ExecOptions,
    /// Whole-result cache keyed by plan fingerprint (opt-in via
    /// [`QueryRequest::cached`](crate::request::QueryRequest::cached)).
    results: ResultCache,
}

impl QueryProcessor {
    /// A processor over a store and its index bundle.
    pub fn new(store: Arc<ViewStore>, indexes: Arc<IndexBundle>) -> Self {
        let results = ResultCache::new(&store, RESULT_CACHE_CAPACITY);
        QueryProcessor {
            store,
            indexes,
            options: ExecOptions::default(),
            results,
        }
    }

    /// Replaces the execution options.
    pub fn with_options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// The current options.
    pub fn options(&self) -> ExecOptions {
        self.options
    }

    /// Sets the resource budget applied to every subsequent query.
    pub fn set_budget(&mut self, budget: QueryBudget) {
        self.options.budget = budget;
    }

    /// The view store this processor reads from.
    pub fn view_store(&self) -> &Arc<ViewStore> {
        &self.store
    }

    /// The index bundle this processor runs against.
    pub fn index_bundle(&self) -> &Arc<IndexBundle> {
        &self.indexes
    }

    /// Parses, plans and executes an iQL query string.
    pub fn execute(&self, iql: &str) -> Result<QueryResult> {
        let query = parse(iql)?;
        self.execute_ast(&query)
    }

    /// Plans and executes a parsed query.
    pub fn execute_ast(&self, query: &Query) -> Result<QueryResult> {
        let plan = self.plan(query)?;
        self.execute_plan(&plan)
    }

    /// Executes a plan — the same object [`Plan::render`] prints —
    /// under the processor's configured budget. This is the only
    /// evaluation path: `execute`/`execute_ast` are parse/plan
    /// front-ends to it, and a standing result is brought up to date by
    /// running it again ([`QueryProcessor::maintain`]).
    pub fn execute_plan(&self, plan: &Plan) -> Result<QueryResult> {
        self.execute_plan_with(plan, self.options.budget)
    }

    /// [`QueryProcessor::execute_plan`] under an explicit budget (a
    /// request's own, or a standing result's re-execution).
    pub fn execute_plan_with(&self, plan: &Plan, budget: QueryBudget) -> Result<QueryResult> {
        let tracker = BudgetTracker::start(budget);
        let mut stats = ExecStats::default();
        let rows = self.eval_node(&plan.root, &mut stats, &tracker, None)?;
        stats.partial = tracker.tripped();
        stats.exhausted = tracker.exhaustion();
        stats.consumed = tracker.consumption();
        Ok(QueryResult { rows, stats })
    }

    /// The cached execution path over an already-built plan
    /// ([`QueryRequest::cached`](crate::request::QueryRequest::cached)):
    /// consults the standing-result table first, keyed by the plan's
    /// normalized fingerprint. A hit returns the standing rows (stats
    /// show `result_cache_hits = 1` and no operator work); a miss
    /// executes the plan and seeds a standing result. Store changes do
    /// not clear the cache: an entry read after the store's change
    /// count moved re-executes its plan first ([`crate::delta`]), so a
    /// hit touches no index only while the store has not changed since
    /// the entry's rows were produced.
    pub(crate) fn run_cached(&self, plan: &Plan, budget: QueryBudget) -> Result<QueryResult> {
        self.run_standing(plan, budget, None)
    }

    /// Answers `plan` from its standing result — looked up, or executed
    /// under `budget` and seeded — attaching `listener` to that entry.
    /// A partial result is returned as it is and leaves nothing standing.
    fn run_standing(
        &self,
        plan: &Plan,
        budget: QueryBudget,
        listener: Option<&Sender<ResultDelta>>,
    ) -> Result<QueryResult> {
        let fingerprint = plan.fingerprint();
        if let Some(rows) = self.results.lookup(self, fingerprint, listener) {
            let stats = ExecStats {
                result_cache_hits: 1,
                ..ExecStats::default()
            };
            return Ok(QueryResult { rows, stats });
        }
        // Read the change count *before* executing: a change committed
        // mid-execution leaves the admitted entry stale, and its next
        // read executes once more.
        let applied = self.store.change_count();
        let (result, standing) = self.execute_standing(plan, budget)?;
        // No standing state — a truncated (partial-budget) run, whose
        // subset of the true rows must never be served as complete —
        // leaves nothing to admit.
        if let Some(state) = standing {
            self.results.admit(fingerprint, state, applied, listener);
        }
        Ok(result)
    }

    /// Registers `request` as a standing query: its plan's entry in the
    /// standing-result table — shared with `.cached()` requests and with
    /// every other subscription that plans identically — gains a
    /// listener, and the entry's rows are the handle's initial result.
    /// Seeding runs under the request's own budget or none (never the
    /// processor default); a request whose budget truncates the
    /// execution is rejected, since a partial result never seeds a
    /// standing one. [`QueryProcessor::pump`] feeds the handle.
    pub fn subscribe(&self, request: &QueryRequest) -> Result<LiveQuery> {
        let plan = self.plan_iql(request.iql())?;
        let budget = request.requested_budget().unwrap_or(QueryBudget::none());
        let (tx, deltas) = unbounded();
        let initial = self.run_standing(&plan, budget, Some(&tx))?;
        if initial.stats.partial {
            return Err(IdmError::Provider {
                detail:
                    "subscribe: budget-truncated (partial) execution cannot seed a standing result"
                        .into(),
                source: Some("live".into()),
                vid: None,
            });
        }
        Ok(LiveQuery { initial, deltas })
    }

    /// Drives every live query: re-executes each subscribed standing
    /// result the store changed under since it was last read and pushes
    /// the non-empty deltas to its handles, one coalesced batch per
    /// call. Returns how many store changes committed since the previous
    /// pump (0 = nothing new). Refreshes always run unbudgeted.
    pub fn pump(&self) -> usize {
        self.results.pump(self)
    }

    /// The standing-result table (counters for benchmarks and tests).
    pub fn result_cache(&self) -> &ResultCache {
        &self.results
    }

    // ---- the plan walker ---------------------------------------------

    /// Evaluates one plan node. Every node executes exactly once (no
    /// operator short-circuits), so the per-kind counters in
    /// `stats.ops` always equal [`Plan::operator_counts`] — including
    /// under a partial-mode budget, where nodes past the truncation
    /// point are still visited but do O(1) work and return sound
    /// subsets (empty leaves; combinations of subsets).
    ///
    /// Cooperative cancellation: every node entry is a checkpoint. In
    /// strict mode a tripped budget unwinds from here as
    /// [`IdmError::ResourceExhausted`]; no store lock outlives the
    /// unwind (store reads release the lock on return).
    ///
    /// `keys` is the enclosing hash join's build table when this node is
    /// (part of) its probe side; only an [`AccessKind::NameByKeys`] leaf
    /// reads it.
    fn eval_node(
        &self,
        node: &PlanNode,
        stats: &mut ExecStats,
        tracker: &BudgetTracker,
        keys: Option<&JoinTable>,
    ) -> Result<ResultRows> {
        tracker.checkpoint(node.op.label())?;
        Ok(match &node.op {
            PlanOp::IndexAccess(access) => {
                stats.ops.index_accesses += 1;
                if tracker.tripped() {
                    return Ok(ResultRows::Views(Vec::new()));
                }
                let vids = self.eval_access(access, keys);
                stats.candidates_examined += vids.len();
                tracker.charge_rows(vids.len(), "index-access")?;
                ResultRows::Views(vids)
            }
            PlanOp::Scan => {
                stats.ops.scans += 1;
                if tracker.tripped() {
                    return Ok(ResultRows::Views(Vec::new()));
                }
                let vids = self.all_vids();
                stats.candidates_examined += vids.len();
                tracker.charge_rows(vids.len(), "scan")?;
                ResultRows::Views(vids)
            }
            PlanOp::Intersect(inputs) => {
                stats.ops.intersects += 1;
                // Inputs arrive in the planner's order (smallest
                // estimate first); intersect left to right. Every
                // operator's output is sorted, so later inputs are
                // probed by binary search and the running intersection
                // stays sorted regardless of the chosen order. All
                // inputs are always evaluated (ops invariant); under
                // truncation each input yields a subset, and an
                // intersection of subsets is a subset of the true
                // intersection.
                let mut iter = inputs.iter();
                let mut acc = match iter.next() {
                    Some(first) => self.eval_node(first, stats, tracker, keys)?.into_views(),
                    None => Vec::new(),
                };
                for input in iter {
                    let sorted = self.eval_node(input, stats, tracker, keys)?.into_views();
                    acc.retain(|v| sorted.binary_search(v).is_ok());
                }
                stats.candidates_examined += acc.len();
                tracker.charge_rows(acc.len(), "intersect")?;
                ResultRows::Views(acc)
            }
            PlanOp::UnionOp(inputs) => {
                stats.ops.unions += 1;
                let mut acc: Vec<Vid> = Vec::new();
                for input in inputs {
                    match self.eval_node(input, stats, tracker, keys)? {
                        ResultRows::Views(v) => acc.extend(v),
                        ResultRows::Pairs(_) => {
                            return Err(IdmError::Parse {
                                detail: "iql: union over join results is unsupported".into(),
                            })
                        }
                    }
                }
                acc.sort();
                acc.dedup();
                stats.candidates_examined += acc.len();
                tracker.charge_rows(acc.len(), "union")?;
                ResultRows::Views(acc)
            }
            PlanOp::Complement(exclude) => {
                stats.ops.complements += 1;
                let exclude: VidSet = self
                    .eval_node(exclude, stats, tracker, keys)?
                    .into_views()
                    .into_iter()
                    .collect();
                // The one inverting operator: complementing a truncated
                // (subset) input would yield a *superset* of the true
                // result, so once the budget has tripped this returns
                // empty — the only sound subset it can still produce.
                if tracker.tripped() {
                    return Ok(ResultRows::Views(Vec::new()));
                }
                // Full scan over the catalog, in vid order.
                let mut vids = self.all_vids();
                vids.retain(|v| !exclude.contains(v));
                stats.candidates_examined += vids.len();
                tracker.charge_rows(vids.len(), "complement")?;
                ResultRows::Views(vids)
            }
            PlanOp::Relate {
                context,
                candidates,
                axis,
            } => {
                stats.ops.relates += 1;
                let ctx = self.eval_node(context, stats, tracker, None)?.into_views();
                let cand = self
                    .eval_node(candidates, stats, tracker, keys)?
                    .into_views();
                ResultRows::Views(self.relate(&ctx, cand, *axis, stats, tracker)?)
            }
            PlanOp::HashJoin {
                left,
                right,
                left_field,
                right_field,
                build,
                ..
            } => {
                stats.ops.hash_joins += 1;
                let (build_node, probe_node) = match build {
                    BuildSide::Left => (left, right),
                    BuildSide::Right => (right, left),
                };
                let build_rows = self
                    .eval_node(build_node, stats, tracker, None)?
                    .into_views();
                self.hash_join(
                    &build_rows,
                    |table| {
                        Ok(self
                            .eval_node(probe_node, stats, tracker, Some(table))?
                            .into_views())
                    },
                    left_field,
                    right_field,
                    *build,
                    tracker,
                )?
            }
        })
    }

    /// One index posting-list read — the plan's leaf accesses. Every
    /// index returns its vids sorted. `keys` are the join keys fed to
    /// the leaf sideways.
    fn eval_access(&self, access: &AccessKind, keys: Option<&JoinTable>) -> Vec<Vid> {
        match access {
            AccessKind::Name(pattern) => self.indexes.name.matching(pattern),
            // One exact probe per key the pattern matches. Matching the
            // keys costs no more than hashing them did in the build.
            AccessKind::NameByKeys(pattern) => self.indexes.name.exact_any(
                keys.into_iter()
                    .flat_map(JoinTable::keys)
                    .filter(|key| pattern.matches(key)),
            ),
            AccessKind::Content(phrase) => self.indexes.content.phrase_query(phrase),
            AccessKind::Catalog(class_name) => self.class_members(class_name),
            AccessKind::Tuple { attr, op, value } => {
                let constant = self.literal_value(value);
                self.indexes
                    .tuple
                    .compare(&resolve_attr(attr), *op, &constant)
            }
        }
    }

    fn all_vids(&self) -> Vec<Vid> {
        self.indexes.catalog.vids()
    }

    fn literal_value(&self, literal: &Literal) -> Value {
        match literal {
            Literal::Value(value) => value.clone(),
            Literal::DateFn(f) => Value::Date(f.eval(self.options.now)),
        }
    }

    /// All catalog members of the class or any of its specializations.
    fn class_members(&self, class_name: &str) -> Vec<Vid> {
        let catalog = &self.indexes.catalog;
        self.store
            .classes()
            .with_conforming_names(class_name, |names| catalog.by_classes(names))
            .unwrap_or_default()
    }

    // ---- paths --------------------------------------------------------

    /// Filters `candidates` down to those related to some context view
    /// along `axis`, under one read guard of the group replica. A `/`
    /// step reads each candidate's in-edges. A `//` step closes the
    /// context's intervals over the side edges
    /// ([`idm_index::GroupRead::reach`]) and then does the smaller of two
    /// exactly known amounts of work: test each candidate against the
    /// ranges, or enumerate the reached positions and probe the sorted
    /// candidates. Truncation soundness: a step that stops early keeps a
    /// subset of its true rows.
    fn relate(
        &self,
        context: &[Vid],
        candidates: Vec<Vid>,
        axis: Axis,
        stats: &mut ExecStats,
        tracker: &BudgetTracker,
    ) -> Result<Vec<Vid>> {
        if context.is_empty() || candidates.is_empty() || tracker.tripped() {
            // Empty is always a sound subset; a tripped partial budget
            // lands here from later plan nodes at O(1) cost.
            return Ok(Vec::new());
        }
        debug_assert!(
            context.is_sorted() && candidates.is_sorted(),
            "operator output is sorted"
        );
        let group = self.indexes.group.read();
        if axis == Axis::Child {
            let kept = self.keep(&candidates, tracker, |v, _| group.has_parent_in(v, context))?;
            return Ok(kept.0);
        }
        let reach = group.reach(context);
        stats.nodes_expanded += reach.walked();
        tracker.charge_nodes(reach.walked(), "relate")?;
        if candidates.len() <= reach.size() {
            self.test_each(&candidates, &reach, stats, tracker)
        } else {
            self.enumerate(&candidates, &reach, stats, tracker)
        }
    }

    /// A `//` step by testing each candidate against the reached ranges.
    fn test_each(
        &self,
        candidates: &[Vid],
        reach: &Reach<'_>,
        stats: &mut ExecStats,
        tracker: &BudgetTracker,
    ) -> Result<Vec<Vid>> {
        let (kept, walked) =
            self.keep(candidates, tracker, |v, walked| reach.contains(v, walked))?;
        stats.nodes_expanded += walked;
        Ok(kept)
    }

    /// A `//` step by enumerating the reached positions, probing the
    /// sorted candidates with each, then deciding the overlay's views:
    /// one checkpoint per loop, one node per position or overlay view,
    /// plus one per overlay edge walked.
    fn enumerate(
        &self,
        candidates: &[Vid],
        reach: &Reach<'_>,
        stats: &mut ExecStats,
        tracker: &BudgetTracker,
    ) -> Result<Vec<Vid>> {
        let (mut hits, mut positions) = (Vec::new(), 0);
        let ranges = reach.ranges();
        if !ranges.is_empty() && tracker.checkpoint("relate")? == Tick::Continue {
            'ranges: for &range in ranges {
                for view in reach.positions(range) {
                    positions += 1;
                    if let Some(at) = view.and_then(|v| candidates.binary_search(&v).ok()) {
                        push(&mut hits, at);
                    }
                    if tracker.charge_nodes(1, "relate")? == Tick::Truncate {
                        break 'ranges;
                    }
                }
            }
        }
        stats.nodes_expanded += positions;
        if reach.overlay().next().is_some() && tracker.checkpoint("relate")? == Tick::Continue {
            let (mut examined, mut walked) = (0, 0);
            for view in reach.overlay() {
                examined += 1;
                let before = walked;
                if let Ok(at) = candidates.binary_search(&view) {
                    if reach.contains(view, &mut walked) {
                        push(&mut hits, at);
                    }
                }
                if tracker.charge_nodes(1 + walked - before, "relate")? == Tick::Truncate {
                    break;
                }
            }
            stats.nodes_expanded += examined + walked;
        }
        hits.sort_unstable();
        Ok(hits.into_iter().map(|at| candidates[at]).collect())
    }

    /// The candidates `related` accepts: one checkpoint for the loop, one
    /// node per candidate plus one per overlay edge `related` walks.
    /// Returns them with the edges walked.
    fn keep(
        &self,
        candidates: &[Vid],
        tracker: &BudgetTracker,
        related: impl Fn(Vid, &mut usize) -> bool,
    ) -> Result<(Vec<Vid>, usize)> {
        let mut kept: Vec<Vid> = Vec::with_capacity(candidates.len());
        let mut walked = 0;
        if tracker.checkpoint("relate")? == Tick::Continue {
            for &v in candidates {
                let before = walked;
                if related(v, &mut walked) {
                    kept.push(v);
                }
                if tracker.charge_nodes(1 + walked - before, "relate")? == Tick::Truncate {
                    break;
                }
            }
        }
        Ok((kept, walked))
    }

    // ---- joins ---------------------------------------------------------

    /// Appends the join key of `vid` to `out`: its name, class name or
    /// tuple value as text. False when it has none. An empty string is no
    /// key, whichever path read it — the name index and the catalog hold
    /// no empty name either.
    fn push_field_key(&self, vid: Vid, field: &Field, out: &mut String) -> bool {
        let start = out.len();
        match field {
            // Borrow-based store reads: cloning a full catalog entry per
            // probe made the join build/probe loops allocation-bound. The
            // catalog remains the fallback so restored indexes answer
            // joins even when the view store is empty (restart path).
            Field::Name => {
                let in_store = self.store.with_name(vid, |n| n.map(|n| out.push_str(n)));
                if !matches!(in_store, Ok(Some(()))) {
                    let catalog = &self.indexes.catalog;
                    catalog.with_name(vid, |name| out.push_str(name.unwrap_or_default()));
                }
            }
            Field::Class => match self.store.class_name(vid) {
                Ok(Some(class)) => out.push_str(&class),
                _ => {
                    let catalog = &self.indexes.catalog;
                    catalog.with_class(vid, |class| out.push_str(class.unwrap_or_default()));
                }
            },
            Field::TupleAttr(attr) => {
                if let Some(value) = self.indexes.tuple.value_of(vid, &resolve_attr(attr)) {
                    let _ = write!(out, "{value}");
                }
            }
        }
        out.len() > start
    }

    /// Hash equi-join. The build side was chosen by the planner from
    /// cardinality estimates and is recorded in the plan node — binding
    /// validation happened at plan time too. The build side's rows are
    /// hashed first; `probe_side` then yields the probe side's rows and
    /// may read the table's keys (sideways key passing).
    fn hash_join(
        &self,
        build_rows: &[Vid],
        probe_side: impl FnOnce(&JoinTable) -> Result<Vec<Vid>>,
        left_field: &Field,
        right_field: &Field,
        build: BuildSide,
        tracker: &BudgetTracker,
    ) -> Result<ResultRows> {
        let (build_field, probe_field, build_is_left) = match build {
            BuildSide::Left => (left_field, right_field, true),
            BuildSide::Right => (right_field, left_field, false),
        };

        // Table build: each build row is keyed in input order and the
        // table sorted stably, so per-key row order is the input order.
        // A build truncated mid-way keys a subset of rows; probing it
        // yields a subset of the true pairs. Once tripped there is no
        // point paying for the build.
        let mut table = JoinTable::default();
        if !tracker.tripped() {
            table.rows = Vec::with_capacity(build_rows.len());
            for &vid in build_rows {
                if tracker.checkpoint("join-build")? == Tick::Truncate {
                    break;
                }
                tracker.charge_nodes(1, "join-build")?;
                let start = table.text.len();
                if self.push_field_key(vid, build_field, &mut table.text) {
                    table.rows.push((start, table.text.len(), vid));
                }
            }
            table.sort();
        }
        let probe_rows = probe_side(&table)?;
        if tracker.tripped() {
            // Joining truncated inputs would be sound (subset × subset),
            // but once tripped there is no point paying for the probe.
            return Ok(ResultRows::Pairs(Vec::new()));
        }
        let mut pairs = Vec::new();
        let mut key = String::new();
        for vid in probe_rows {
            if tracker.checkpoint("join-probe")? == Tick::Truncate {
                break;
            }
            key.clear();
            if !self.push_field_key(vid, probe_field, &mut key) {
                continue;
            }
            let before = pairs.len();
            for m in table.rows_of(&key) {
                pairs.push(if build_is_left { (m, vid) } else { (vid, m) });
            }
            if pairs.len() > before {
                tracker.charge_rows(pairs.len() - before, "join-probe")?;
            }
        }
        pairs.sort();
        pairs.dedup();
        Ok(ResultRows::Pairs(pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idm_core::class::builtin::names;

    /// A small dataspace shaped like the paper's examples.
    fn dataspace() -> (Arc<ViewStore>, Arc<IndexBundle>) {
        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());

        let fs_tuple = |size: i64, day: u32| {
            TupleComponent::of(vec![
                ("size", Value::Integer(size)),
                (
                    "creation time",
                    Value::Date(Timestamp::from_ymd(2005, 1, 1).unwrap()),
                ),
                (
                    "last modified time",
                    Value::Date(Timestamp::from_ymd(2005, 6, day).unwrap()),
                ),
            ])
        };

        // /papers/vision.tex → section "A Dataspace Vision" → text.
        let vision_text = store
            .build_unnamed()
            .text("a grand vision by Mike Franklin")
            .class_named(names::TEXT)
            .insert();
        let vision_section = store
            .build("A Dataspace Vision")
            .sequence(vec![vision_text])
            .class_named(names::LATEX_SECTION)
            .insert();
        let conclusion_text = store
            .build_unnamed()
            .text("future systems will unify dataspaces")
            .class_named(names::TEXT)
            .insert();
        let conclusions = store
            .build("Conclusions")
            .sequence(vec![conclusion_text])
            .class_named(names::LATEX_SECTION)
            .insert();
        let vision_tex = store
            .build("vision.tex")
            .tuple(fs_tuple(500_000, 1))
            .text("\\section{A Dataspace Vision}")
            .children(vec![vision_section, conclusions])
            .class_named(names::FILE)
            .insert();
        let papers = store
            .build("papers")
            .tuple(fs_tuple(4096, 20))
            .children(vec![vision_tex])
            .class_named(names::FOLDER)
            .insert();

        // An email with a .tex attachment named vision.tex (for Q8-style
        // joins across subsystems).
        let attachment = store
            .build("vision.tex")
            .tuple(fs_tuple(1000, 2))
            .text("\\section{Attached}")
            .class_named(names::ATTACHMENT)
            .insert();
        let email = store
            .build("paper draft")
            .tuple(TupleComponent::of(vec![
                ("from", Value::Text("jens@ethz".into())),
                ("size", Value::Integer(2000)),
            ]))
            .text("please review the attached database tuning draft")
            .children(vec![attachment])
            .class_named(names::EMAILMESSAGE)
            .insert();

        for vid in store.vids() {
            let source = if vid == email || vid == attachment {
                "imap"
            } else {
                "filesystem"
            };
            indexes.index_view(&store, vid, source).unwrap();
        }
        let _ = papers;
        (store, indexes)
    }

    fn processor() -> QueryProcessor {
        let (store, indexes) = dataspace();
        QueryProcessor::new(store, indexes)
    }

    #[test]
    fn phrase_query() {
        let p = processor();
        let r = p.execute(r#""Mike Franklin""#).unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn boolean_keywords() {
        let p = processor();
        let r = p.execute(r#""database" and "tuning""#).unwrap();
        assert_eq!(r.rows.len(), 1);
        let r = p.execute(r#""database" and "nonexistent""#).unwrap();
        assert!(r.rows.is_empty());
        let r = p.execute(r#""database" or "dataspaces""#).unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn attribute_predicate_with_alias() {
        let p = processor();
        let r = p
            .execute("[size > 420000 and lastmodified < @12.06.2005]")
            .unwrap();
        assert_eq!(r.rows.len(), 1, "only vision.tex is big and old");
    }

    #[test]
    fn date_function_against_context_clock() {
        let p = processor();
        // options.now defaults to 2006-09-12; everything was modified
        // before yesterday().
        let r = p.execute("[lastmodified < yesterday()]").unwrap();
        assert!(r.rows.len() >= 3);
    }

    #[test]
    fn path_with_class_and_phrase() {
        let p = processor();
        let r = p.execute(r#"//papers//*[class="latex_section"]"#).unwrap();
        assert_eq!(r.rows.len(), 2, "both sections under /papers");

        let r = p
            .execute(r#"//papers//*Vision[class="latex_section"]"#)
            .unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn child_step_restricts_to_direct_relation() {
        let p = processor();
        // text node is a direct child of the Vision section.
        let r = p.execute(r#"//papers//*Vision/*["Franklin"]"#).unwrap();
        assert_eq!(r.rows.len(), 1);
        // But not a direct child of papers.
        let r = p.execute(r#"//papers/*["Franklin"]"#).unwrap();
        assert!(r.rows.is_empty());
    }

    /// How a test evaluates every path step of a plan: by one of the two
    /// `//` kernels (a `/` step has one), or by [`idm_core::graph`], the
    /// BFS over the store that never reads the replica.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Step {
        TestEach,
        Enumerate,
        Graph,
    }

    const STEPS: [Step; 3] = [Step::TestEach, Step::Enumerate, Step::Graph];

    /// The candidates some context view relates to along `axis`,
    /// according to [`idm_core::graph`].
    fn graph_step(
        p: &QueryProcessor,
        context: &[Vid],
        candidates: Vec<Vid>,
        axis: Axis,
    ) -> Vec<Vid> {
        let mut related = VidSet::default();
        for &c in context {
            related.extend(match axis {
                Axis::Child => idm_core::graph::directly_related(&p.store, c).unwrap(),
                Axis::Descendant => idm_core::graph::descendants(&p.store, c, usize::MAX).unwrap(),
            });
        }
        candidates
            .into_iter()
            .filter(|v| related.contains(v))
            .collect()
    }

    /// Runs a path query with every step evaluated by `step`, whatever
    /// the sizes of its sides.
    fn run_steps(p: &QueryProcessor, iql: &str, step: Step) -> (Vec<Vid>, ExecStats) {
        fn eval(
            p: &QueryProcessor,
            node: &PlanNode,
            step: Step,
            stats: &mut ExecStats,
        ) -> Vec<Vid> {
            let tracker = BudgetTracker::start(QueryBudget::none());
            let PlanOp::Relate {
                context,
                candidates,
                axis,
            } = &node.op
            else {
                return p
                    .eval_node(node, stats, &tracker, None)
                    .unwrap()
                    .into_views();
            };
            stats.ops.relates += 1;
            let ctx = eval(p, context, step, stats);
            let cand = eval(p, candidates, step, stats);
            if ctx.is_empty() || cand.is_empty() {
                return Vec::new();
            }
            let group = p.indexes.group.read();
            let reach = group.reach(&ctx);
            let kernel = match (step, axis) {
                (Step::Graph, _) => return graph_step(p, &ctx, cand, *axis),
                (_, Axis::Child) => return p.relate(&ctx, cand, *axis, stats, &tracker).unwrap(),
                (Step::TestEach, _) => QueryProcessor::test_each,
                (Step::Enumerate, _) => QueryProcessor::enumerate,
            };
            stats.nodes_expanded += reach.walked();
            kernel(p, &cand, &reach, stats, &tracker).unwrap()
        }
        let plan = p.plan_iql(iql).unwrap();
        let mut stats = ExecStats::default();
        let rows = eval(p, &plan.root, step, &mut stats);
        assert_eq!(stats.ops, plan.operator_counts(), "{iql}");
        (rows, stats)
    }

    #[test]
    fn all_strategies_agree() {
        // (query, rows). The `*.tex` and "Franklin" steps have a
        // candidate that is related to some view, just not to the
        // context: the attachment under the email, the text under the
        // section.
        let queries = [
            (r#"//papers//*[class="latex_section"]"#, 2),
            (r#"//papers//*Vision/*["Franklin"]"#, 1),
            (r#"//papers//?onclusion*"#, 1),
            (r#"//papers//*["systems"]"#, 1),
            (r#"//papers//*.tex"#, 1),
            (r#"//papers/*.tex"#, 1),
            (r#"//papers/*["Franklin"]"#, 0),
            (r#"//*//*["systems"]"#, 1),
            (r#"//*/*Vision"#, 1),
        ];
        // Every view in the overlay, then every view labeled.
        let p = processor();
        for labeled in [false, true] {
            if labeled {
                p.indexes.group.relabel();
            }
            for (q, want) in queries {
                let rows = p.execute(q).unwrap().rows.into_views();
                assert_eq!(rows.len(), want, "{q}");
                for step in STEPS {
                    assert_eq!(
                        run_steps(&p, q, step).0,
                        rows,
                        "{step:?} on {q}, labeled {labeled}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_step_walks_forward_unless_its_context_is_larger() {
        // A `//` step walks forward from its context, enumerating the
        // positions the context reaches, unless those outnumber its
        // candidates; then it tests each candidate against the ranges.
        // `a` holds three views, one of them `b`.
        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        let b = store.build("b").insert();
        let x = store.build("x").insert();
        let y = store.build("y").insert();
        store.build("a").children(vec![x, y, b]).insert();
        for vid in store.vids() {
            indexes.index_view(&store, vid, "test").unwrap();
        }
        indexes.group.relabel();
        let p = QueryProcessor::new(Arc::clone(&store), Arc::clone(&indexes));
        // One candidate, three positions: the candidate is tested.
        let tested = p.execute("//a//b").unwrap();
        assert_eq!(tested.rows.views(), vec![b]);
        assert_eq!(tested.stats.nodes_expanded, 0);
        // Three more `b`s outside the graph outnumber the positions.
        for _ in 0..3 {
            let vid = store.build("b").insert();
            indexes.index_view(&store, vid, "test").unwrap();
        }
        let walked = p.execute("//a//b").unwrap();
        assert_eq!(walked.rows.views(), vec![b]);
        assert_eq!(walked.stats.nodes_expanded, 3);
        assert_eq!(run_steps(&p, "//a//b", Step::Graph).0, vec![b]);
    }

    #[test]
    fn union_dedups() {
        let p = processor();
        let r = p
            .execute(r#"union( //papers//*["systems"], //papers//?onclusion* )"#)
            .unwrap();
        // The conclusion text matches "systems"; Conclusions matches the
        // name pattern; they are different views.
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn join_across_subsystems_like_q8() {
        let p = processor();
        let r = p
            .execute(
                r#"join ( //*[class = "emailmessage"]//*.tex as A, //papers//*.tex as B, A.name = B.name )"#,
            )
            .unwrap();
        let ResultRows::Pairs(pairs) = &r.rows else {
            panic!()
        };
        assert_eq!(pairs.len(), 1, "attachment vision.tex = file vision.tex");
        let (a, b) = pairs[0];
        assert_ne!(a, b);
        assert_eq!(p.store.name(a).unwrap(), p.store.name(b).unwrap());
    }

    #[test]
    fn an_empty_name_is_no_join_key() {
        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        for word in ["alpha", "beta"] {
            for _ in 0..2 {
                store.build("").text(word).insert();
            }
        }
        for vid in store.vids() {
            indexes.index_view(&store, vid, "test").unwrap();
        }
        let iql = r#"join( "alpha" as A, "beta" as B, A.name = B.name )"#;
        // Through the store, and through the catalog alone (restored
        // indexes over an empty store).
        for store in [store, Arc::new(ViewStore::new())] {
            let p = QueryProcessor::new(store, Arc::clone(&indexes));
            assert_eq!(p.execute(r#""alpha""#).unwrap().rows.len(), 2);
            let r = p.execute(iql).unwrap();
            assert!(r.rows.is_empty(), "{:?}", r.rows);
        }
    }

    /// A join keyed on class reads the store's class names, and the
    /// catalog's when the store lacks the view: over indexes restored
    /// into an empty store it answers as over the live store.
    #[test]
    fn a_class_join_over_restored_indexes_answers_as_over_the_store() {
        let (store, indexes) = dataspace();
        let bytes = idm_index::persist::to_bytes_with_epoch(&indexes, 0);
        let (restored, _) = idm_index::persist::from_bytes_with_epoch(&bytes).unwrap();
        let iql = r#"join( //papers//* as A, //*.tex as B, A.class = B.class )"#;
        let live = QueryProcessor::new(store, indexes).execute(iql).unwrap();
        let ResultRows::Pairs(pairs) = &live.rows else {
            panic!("a join returns pairs")
        };
        assert_eq!(pairs.len(), 1, "vision.tex is the one file under papers");
        let empty = Arc::new(ViewStore::new());
        let from_catalog = QueryProcessor::new(empty, Arc::new(restored)).execute(iql);
        assert_eq!(from_catalog.unwrap().rows, live.rows);
    }

    #[test]
    fn join_rejects_unknown_binding() {
        let p = processor();
        let err = p
            .execute(r#"join( //a as A, //b as B, C.name = B.name )"#)
            .unwrap_err();
        assert!(err.to_string().contains("binding"), "{err}");
    }

    #[test]
    fn join_rejects_ambiguous_condition_referencing_one_binding_twice() {
        // Regression: the old validator's first clause was redundant and
        // `A.name = A.name` slipped through as a cross product of A with
        // every right row sharing a name. It is now a plan-time error.
        let p = processor();
        let err = p
            .execute(
                r#"join( //papers//*.tex as A, //*[class="emailmessage"] as B, A.name = A.name )"#,
            )
            .unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
        let err = p
            .execute(r#"join( //a as A, //b as B, B.name = B.name )"#)
            .unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
    }

    #[test]
    fn executed_operators_match_the_plan() {
        let p = processor();
        for iql in [
            r#""Mike Franklin""#,
            r#"//papers//*Vision/*["Franklin"]"#,
            r#"union( //papers//*["systems"], //papers//?onclusion* )"#,
            r#"[class="file" and not class="file"]"#,
            r#"join ( //*[class = "emailmessage"]//*.tex as A, //papers//*.tex as B, A.name = B.name )"#,
        ] {
            let plan = p.plan_iql(iql).unwrap();
            let result = p.execute(iql).unwrap();
            assert_eq!(
                result.stats.ops,
                plan.operator_counts(),
                "plan/exec operator divergence on {iql}"
            );
        }
    }

    #[test]
    fn cached_execution_replays_rows_without_index_work() {
        let p = processor();
        let cached = |iql: &str| {
            p.run(&crate::request::QueryRequest::new(iql).cached())
                .unwrap()
                .result
        };
        let iql = r#"//papers//*[class="latex_section"]"#;
        let first = cached(iql);
        assert_eq!(first.stats.result_cache_hits, 0);
        assert!(first.stats.ops.total() > 0);
        let second = cached(iql);
        assert_eq!(second.rows, first.rows);
        assert_eq!(second.stats.result_cache_hits, 1);
        assert_eq!(second.stats.ops.total(), 0, "no operators ran");
        // Whitespace differences plan identically → same fingerprint.
        let respaced = cached(r#"//papers//*[ class = "latex_section" ]"#);
        assert_eq!(respaced.stats.result_cache_hits, 1);
        // A store change no longer clears the entry: the pending change
        // record is applied to the standing result on lookup, and the
        // third run still hits (with unchanged rows — the new view does
        // not match the query).
        p.store.build("new view").insert();
        let third = cached(iql);
        assert_eq!(third.stats.result_cache_hits, 1);
        assert_eq!(third.rows, first.rows);
        assert!(p.result_cache().counters().maintained >= 1);
    }

    #[test]
    fn not_complements_catalog() {
        let p = processor();
        let all = p.execute(r#"[not class="no-such-class"]"#).unwrap();
        assert_eq!(all.rows.len(), p.indexes.catalog.len());
        let none = p.execute(r#"[class="file" and not class="file"]"#).unwrap();
        assert!(none.rows.is_empty());
    }

    #[test]
    fn class_predicate_includes_subclasses() {
        let p = processor();
        // `attachment` specializes `file`: class="file" finds both the
        // filesystem file and the attachment.
        let r = p.execute(r#"[class="file"]"#).unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn stats_reflect_expansion_work() {
        let p = processor();
        let r = p.execute(r#"//papers//*"#).unwrap();
        assert!(r.stats.nodes_expanded > 0);
        assert!(r.stats.candidates_examined > 0);
    }

    /// A wide tree: `wide` holds 1 200 folders `d<i>`, each holding one
    /// `leaf<i>.txt`.
    fn wide_dataspace() -> (Arc<ViewStore>, Arc<IndexBundle>) {
        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        let folders: Vec<Vid> = (0..1_200)
            .map(|i| {
                let leaf = store.build(format!("leaf{i}.txt")).text("wide").insert();
                store.build(format!("d{i}")).children(vec![leaf]).insert()
            })
            .collect();
        store.build("wide").children(folders).insert();
        for vid in store.vids() {
            indexes.index_view(&store, vid, "filesystem").unwrap();
        }
        (store, indexes)
    }

    #[test]
    fn every_step_agrees_on_a_wide_dataspace() {
        let (store, indexes) = wide_dataspace();
        let p = QueryProcessor::new(Arc::clone(&store), Arc::clone(&indexes));
        // Two child steps with 1 200 candidates (one of them under a
        // context of every view) and a descendant step whose context
        // reaches 2 400 positions, each first as indexing left the
        // replica and then relabeled.
        for labeled in [false, true] {
            if labeled {
                indexes.group.relabel();
            }
            for iql in ["//d*/leaf*", "//wide//leaf*", "//*/leaf*"] {
                let rows = p.execute(iql).unwrap().rows.into_views();
                assert_eq!(rows.len(), 1_200, "{iql}");
                for step in STEPS {
                    assert_eq!(
                        run_steps(&p, iql, step).0,
                        rows,
                        "{iql}: {step:?}, labeled {labeled}"
                    );
                }
            }
            let enumerated = run_steps(&p, "//wide//leaf*", Step::Enumerate).1;
            assert!(enumerated.nodes_expanded >= 2_400, "every position");
        }
        // A join whose build side is 1 200 wide.
        let iql = "join( //wide/d* as A, //wide//leaf* as B, A.name = B.name )";
        let joined = p.execute(iql).unwrap();
        assert!(joined.rows.is_empty());
        assert!(
            joined.stats.candidates_examined >= 1_200,
            "{iql}: a wide build side"
        );
    }

    #[test]
    fn push_keeps_order_and_grows_geometrically() {
        let mut out: Vec<u32> = Vec::new();
        let mut moves = 0;
        for i in 0..400u32 {
            let before = out.capacity();
            push(&mut out, i);
            moves += usize::from(out.capacity() != before);
        }
        assert_eq!(out, (0..400).collect::<Vec<_>>());
        assert_eq!(moves, 10, "capacities 1, 2, 4, …, 512");
    }

    // ---- resource governance -----------------------------------------

    fn budgeted(budget: QueryBudget) -> QueryProcessor {
        let mut p = processor();
        p.set_budget(budget);
        p
    }

    #[test]
    fn unbudgeted_stats_carry_no_consumption() {
        let p = processor();
        let r = p.execute(r#"//papers//*"#).unwrap();
        assert!(!r.stats.partial);
        assert_eq!(r.stats.exhausted, None);
        assert_eq!(
            r.stats.consumed,
            crate::budget::BudgetConsumption::default()
        );
    }

    #[test]
    fn strict_budget_returns_resource_exhausted() {
        let p = budgeted(QueryBudget {
            max_nodes: Some(1),
            ..QueryBudget::default()
        });
        let err = p.execute(r#"//papers//*"#).unwrap_err();
        assert_eq!(err.budget_kind(), Some(idm_core::error::BudgetKind::Nodes));
        assert!(!err.is_retryable());
        // The processor stays usable: lifting the budget reruns fine.
        let mut p = p;
        p.set_budget(QueryBudget::none());
        assert!(p.execute(r#"//papers//*"#).is_ok());
    }

    #[test]
    fn partial_budget_returns_sound_subset_and_keeps_ops_invariant() {
        let iql = r#"//papers//*[class="latex_section"]"#;
        let full = processor().execute(iql).unwrap().rows.views();
        let plan = processor().plan_iql(iql).unwrap();
        // Probe once to learn the checkpoint count, then truncate at
        // every possible checkpoint.
        let probe = budgeted(QueryBudget::probe());
        let total = probe.execute(iql).unwrap().stats.consumed.checkpoints;
        assert!(total > 0);
        for k in 1..=total {
            let p = budgeted(QueryBudget {
                cancel_after_checks: Some(k),
                partial: true,
                ..QueryBudget::default()
            });
            let r = p.execute(iql).unwrap();
            assert!(r.stats.partial, "k={k} tripped");
            assert_eq!(
                r.stats.exhausted,
                Some(idm_core::error::BudgetKind::Cancelled)
            );
            assert_eq!(
                r.stats.ops,
                plan.operator_counts(),
                "ops invariant holds under truncation at k={k}"
            );
            for vid in r.rows.views() {
                assert!(full.contains(&vid), "k={k}: {vid:?} not in true result");
            }
        }
    }

    #[test]
    fn partial_budget_complement_stays_sound() {
        // Complement inverts its input: a truncated complement must
        // return empty, never a superset. Truncate at every checkpoint
        // and require the result to be a subset of the true rows.
        let iql = r#"[class="file" and not class="file"]"#;
        let probe = budgeted(QueryBudget::probe());
        let total = probe.execute(iql).unwrap().stats.consumed.checkpoints;
        for k in 1..=total {
            let p = budgeted(QueryBudget {
                cancel_after_checks: Some(k),
                partial: true,
                ..QueryBudget::default()
            });
            let r = p.execute(iql).unwrap();
            // The true result is empty, so ANY returned row would be a
            // superset violation.
            assert!(r.rows.is_empty(), "k={k} leaked complement rows");
        }
    }

    #[test]
    fn partial_join_rows_are_a_subset() {
        let iql = r#"join ( //*[class = "emailmessage"]//*.tex as A, //papers//*.tex as B, A.name = B.name )"#;
        let full = processor().execute(iql).unwrap();
        let ResultRows::Pairs(full_pairs) = &full.rows else {
            panic!()
        };
        let probe = budgeted(QueryBudget::probe());
        let total = probe.execute(iql).unwrap().stats.consumed.checkpoints;
        for k in 1..=total {
            let p = budgeted(QueryBudget {
                cancel_after_checks: Some(k),
                partial: true,
                ..QueryBudget::default()
            });
            let r = p.execute(iql).unwrap();
            let ResultRows::Pairs(pairs) = &r.rows else {
                panic!()
            };
            for pair in pairs {
                assert!(full_pairs.contains(pair), "k={k}");
            }
        }
    }

    #[test]
    fn result_cache_never_admits_partial_results() {
        // Regression (satellite): a truncated result cached as complete
        // would be replayed until the next invalidating change event.
        let iql = r#"//papers//*[class="latex_section"]"#;
        let p = processor();
        let cached = |budget: QueryBudget| {
            p.run(
                &crate::request::QueryRequest::new(iql)
                    .cached()
                    .budget(budget),
            )
            .unwrap()
            .result
        };
        let truncated = cached(QueryBudget {
            cancel_after_checks: Some(2),
            partial: true,
            ..QueryBudget::default()
        });
        assert!(truncated.stats.partial);
        // Lift the budget: the rerun must MISS the result cache and
        // recompute the full rows, not replay the truncated subset.
        let full = cached(QueryBudget::none());
        assert_eq!(full.stats.result_cache_hits, 0, "partial result was cached");
        assert_eq!(full.rows.len(), 2);
        // The full result IS admitted: third run hits.
        let replay = cached(QueryBudget::none());
        assert_eq!(replay.stats.result_cache_hits, 1);
        assert_eq!(replay.rows, full.rows);
    }

    #[test]
    fn deadline_budget_aborts_promptly() {
        use std::time::{Duration, Instant};
        let mut p = budgeted(QueryBudget::with_deadline(Duration::ZERO));
        let started = Instant::now();
        let err = p.execute(r#"//papers//*"#).unwrap_err();
        assert_eq!(
            err.budget_kind(),
            Some(idm_core::error::BudgetKind::WallClock)
        );
        assert!(started.elapsed() < Duration::from_millis(50));
        // Store locks were released on unwind: queries still run.
        p.set_budget(QueryBudget::none());
        assert!(p.execute(r#"//papers//*"#).is_ok());
    }
}
