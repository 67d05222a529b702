//! Incremental maintenance of standing query results (the paper's
//! `refresh_result` pub/sub, Section 4.3.1, industrialized).
//!
//! A [`MaintainedPlan`] pairs a [`Plan`] with the rows every node of
//! that plan produced, and [`QueryProcessor::maintain`] applies a batch
//! of logical [`ChangeRecord`]s — the same nine tags the WAL encodes —
//! to bring those rows up to date without re-running the query:
//!
//! - **Leaves** (index access, scan) re-read their posting list *only
//!   when the batch could have touched that index* (a `SetContent`
//!   record leaves name/tuple/catalog leaves untouched). A re-read is
//!   an in-memory index probe — the cheap part of execution.
//! - **Intersect / union** re-test membership for exactly the vids
//!   their children's deltas named, against the children's maintained
//!   (sorted) rows.
//! - **Complement** rescans the catalog when its input changed or the
//!   catalog membership did (insert/remove); otherwise it is untouched.
//! - **Relate** keeps its rows verbatim while the group topology and
//!   its context are unchanged, re-testing only *added* candidates and
//!   dropping removed ones; any structural record (group edges) or a
//!   context delta triggers the bounded re-expansion fallback: the one
//!   relate node recomputes from its maintained children, never the
//!   whole plan. Both paths are counted in [`DeltaStats`].
//! - **Hash joins** (root only, the planner's only join position)
//!   maintain the build-side multimap and both sides' key maps,
//!   re-deriving keys for exactly the vids whose key fields changed.
//!
//! Maintenance is **state-based**: a node's new rows are derived from
//! the *current* index state and the children's maintained rows — the
//! records are the invalidation signal, not the arithmetic. That makes
//! delta application convergent (applying a batch twice is a no-op) and
//! guarantees the core invariant the equivalence suite checks:
//! **maintained rows == a fresh recompute**, at any parallelism,
//! because both read the same indexes. Whenever a node cannot maintain
//! soundly the whole plan falls back to a counted full recompute —
//! never a guess.

use std::collections::{HashMap, HashSet};

use idm_core::prelude::*;

use crate::ast::Field;
use crate::budget::{BudgetTracker, QueryBudget};
use crate::exec::{ExecStats, QueryProcessor, QueryResult, ResultRows};
use crate::plan::{AccessKind, BuildSide, Plan, PlanNode, PlanOp};

/// Counters for one standing result's maintenance history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Change batches applied.
    pub batches: u64,
    /// Change records consumed across all batches.
    pub records: u64,
    /// Leaf (index-access / scan) posting-list re-reads.
    pub leaf_reevals: u64,
    /// Complement rescans against the catalog.
    pub complement_rescans: u64,
    /// Relate nodes maintained incrementally (kept rows carried over,
    /// only added candidates re-tested).
    pub relate_incremental: u64,
    /// Relate nodes that fell back to bounded re-expansion because the
    /// batch touched group topology or the node's context changed.
    pub relate_fallbacks: u64,
    /// Hash-join maintenance passes via the build-side multimap.
    pub join_maintained: u64,
    /// Whole-plan recomputes (a node could not maintain soundly).
    pub full_recomputes: u64,
}

/// The net change one maintenance pass produced on a standing result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultDelta {
    /// Rows that entered the result.
    pub added: ResultRows,
    /// Rows that left the result.
    pub removed: ResultRows,
    /// Total rows in the maintained result after this pass.
    pub total: usize,
}

impl ResultDelta {
    /// Whether this pass changed nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    fn unchanged_views(total: usize) -> Self {
        ResultDelta {
            added: ResultRows::Views(Vec::new()),
            removed: ResultRows::Views(Vec::new()),
            total,
        }
    }
}

/// Per-view-node delta: sorted vid lists entering/leaving the node.
#[derive(Debug, Clone, Default)]
struct ViewDelta {
    added: Vec<Vid>,
    removed: Vec<Vid>,
}

impl ViewDelta {
    fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// What a batch of change records could have touched, classified once
/// per batch. Flags are conservative: a set flag means "this index may
/// have changed", never the reverse.
#[derive(Debug, Default)]
struct Batch {
    /// Group topology may have changed (insert/remove/group records):
    /// relate nodes must re-expand.
    structural: bool,
    /// Catalog membership changed (insert/remove): scans and
    /// complements must re-derive.
    catalog: bool,
    /// The name index may have changed.
    name: bool,
    /// The content index may have changed.
    content: bool,
    /// The tuple index may have changed.
    tuple: bool,
    /// Class/catalog class postings may have changed.
    class: bool,
    /// Vids whose join-key fields (name/class/tuple attrs) may have
    /// changed — the only vids whose keys a join re-derives.
    key_dirty: HashSet<Vid>,
}

impl Batch {
    fn classify(records: &[ChangeRecord]) -> Self {
        let mut batch = Batch::default();
        for record in records {
            match record {
                ChangeRecord::Insert { vid, .. } | ChangeRecord::Remove { vid } => {
                    batch.structural = true;
                    batch.catalog = true;
                    batch.name = true;
                    batch.content = true;
                    batch.tuple = true;
                    batch.class = true;
                    batch.key_dirty.insert(Vid::from_raw(*vid));
                }
                ChangeRecord::SetName { vid, .. } => {
                    batch.name = true;
                    batch.key_dirty.insert(Vid::from_raw(*vid));
                }
                ChangeRecord::SetTuple { vid, .. } => {
                    batch.tuple = true;
                    batch.key_dirty.insert(Vid::from_raw(*vid));
                }
                ChangeRecord::SetContent { .. } => batch.content = true,
                ChangeRecord::SetClass { vid, .. } => {
                    batch.class = true;
                    batch.key_dirty.insert(Vid::from_raw(*vid));
                }
                ChangeRecord::SetGroup { .. }
                | ChangeRecord::AddGroupMember { .. }
                | ChangeRecord::GroupForced { .. } => batch.structural = true,
            }
        }
        batch
    }
}

/// Build-side multimap plus both sides' key maps for a root hash join.
#[derive(Debug, Clone, Default)]
struct JoinState {
    /// Join key → build-side rows with that key, vid-sorted.
    table: HashMap<String, Vec<Vid>>,
    /// Key per build-side row (reverse of `table`).
    build_keys: HashMap<Vid, String>,
    /// Key per probe-side row.
    probe_keys: HashMap<Vid, String>,
}

/// One maintained plan node: its current (sorted) view rows plus its
/// maintained inputs, mirroring the plan tree shape.
#[derive(Debug, Clone)]
struct MaintainedNode {
    rows: Vec<Vid>,
    children: Vec<MaintainedNode>,
}

/// The maintained state of a plan's root.
#[derive(Debug, Clone)]
enum MaintainedRoot {
    /// A view-producing plan: the root node's maintained subtree.
    Views(MaintainedNode),
    /// A root hash join: both maintained inputs, the join state, and
    /// the current pair rows.
    Join {
        left: MaintainedNode,
        right: MaintainedNode,
        state: Box<JoinState>,
        pairs: Vec<(Vid, Vid)>,
    },
}

/// A standing query: a plan plus the per-node rows it last produced,
/// kept current by [`QueryProcessor::maintain`].
#[derive(Debug, Clone)]
pub struct MaintainedPlan {
    plan: Plan,
    root: MaintainedRoot,
    stats: DeltaStats,
}

impl MaintainedPlan {
    /// The plan this standing result maintains.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The plan's normalized fingerprint (the cache key).
    pub fn fingerprint(&self) -> u64 {
        self.plan.fingerprint()
    }

    /// The current maintained rows — always equal to what a fresh
    /// execution of [`MaintainedPlan::plan`] would return.
    pub fn rows(&self) -> ResultRows {
        match &self.root {
            MaintainedRoot::Views(node) => ResultRows::Views(node.rows.clone()),
            MaintainedRoot::Join { pairs, .. } => ResultRows::Pairs(pairs.clone()),
        }
    }

    /// Number of rows in the maintained result.
    pub fn len(&self) -> usize {
        match &self.root {
            MaintainedRoot::Views(node) => node.rows.len(),
            MaintainedRoot::Join { pairs, .. } => pairs.len(),
        }
    }

    /// Whether the maintained result is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maintenance counters accumulated over this result's lifetime.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Swaps in `fresh` — a newly seeded state of the same plan — keeping
    /// the maintenance history, and returns what changed between the
    /// two row sets.
    pub(crate) fn replace_with(&mut self, mut fresh: MaintainedPlan) -> ResultDelta {
        fresh.stats = self.stats;
        let old = std::mem::replace(self, fresh);
        let (added, removed) = match (&old.root, &self.root) {
            (MaintainedRoot::Views(o), MaintainedRoot::Views(n)) => {
                let (a, r) = diff_sorted(&o.rows, &n.rows);
                (ResultRows::Views(a), ResultRows::Views(r))
            }
            (MaintainedRoot::Join { pairs: o, .. }, MaintainedRoot::Join { pairs: n, .. }) => {
                let (a, r) = diff_sorted(o, n);
                (ResultRows::Pairs(a), ResultRows::Pairs(r))
            }
            // Shape flip cannot happen (the plan is unchanged); report
            // a full replacement if it somehow does.
            _ => (self.rows(), old.rows()),
        };
        ResultDelta {
            added,
            removed,
            total: self.len(),
        }
    }
}

// ---- sorted-vec set algebra ------------------------------------------

/// `(added, removed)` between two sorted, deduplicated slices.
fn diff_sorted<T: Ord + Copy>(old: &[T], new: &[T]) -> (Vec<T>, Vec<T>) {
    let (mut added, mut removed) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Less => {
                removed.push(old[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(new[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    removed.extend_from_slice(&old[i..]);
    added.extend_from_slice(&new[j..]);
    (added, removed)
}

/// Sorted merge of two sorted, deduplicated slices.
fn sorted_union(a: &[Vid], b: &[Vid]) -> Vec<Vid> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// `base` minus `remove`, both sorted and deduplicated.
fn sorted_minus(base: &[Vid], remove: &[Vid]) -> Vec<Vid> {
    if remove.is_empty() {
        return base.to_vec();
    }
    base.iter()
        .copied()
        .filter(|v| remove.binary_search(v).is_err())
        .collect()
}

pub(crate) fn contains(sorted: &[Vid], v: Vid) -> bool {
    sorted.binary_search(&v).is_ok()
}

/// Inserts `vid` into the multimap bucket for `key`, keeping the bucket
/// vid-sorted and duplicate-free.
fn multimap_insert(table: &mut HashMap<String, Vec<Vid>>, key: String, vid: Vid) {
    let bucket = table.entry(key).or_default();
    if let Err(pos) = bucket.binary_search(&vid) {
        bucket.insert(pos, vid);
    }
}

fn multimap_remove(table: &mut HashMap<String, Vec<Vid>>, key: &str, vid: Vid) {
    if let Some(bucket) = table.get_mut(key) {
        if let Ok(pos) = bucket.binary_search(&vid) {
            bucket.remove(pos);
        }
        if bucket.is_empty() {
            table.remove(key);
        }
    }
}

impl QueryProcessor {
    /// Builds standing state from the per-node rows a capturing
    /// execution produced (post-order, children before parents).
    /// Returns `None` for plan shapes the delta engine cannot maintain
    /// (a hash join below the root — which the planner never emits).
    fn seed_maintained(&self, plan: &Plan, captured: Vec<ResultRows>) -> Option<MaintainedPlan> {
        let mut pos = 0usize;
        let root = match &plan.root.op {
            PlanOp::HashJoin {
                left,
                right,
                left_field,
                right_field,
                build,
                ..
            } => {
                let left_node = build_node(left, &captured, &mut pos)?;
                let right_node = build_node(right, &captured, &mut pos)?;
                let pairs = match captured.get(pos)? {
                    ResultRows::Pairs(p) => p.clone(),
                    ResultRows::Views(_) => return None,
                };
                pos += 1;
                let state = self.seed_join(
                    &left_node.rows,
                    &right_node.rows,
                    left_field,
                    right_field,
                    *build,
                );
                MaintainedRoot::Join {
                    left: left_node,
                    right: right_node,
                    state: Box::new(state),
                    pairs,
                }
            }
            _ => MaintainedRoot::Views(build_node(&plan.root, &captured, &mut pos)?),
        };
        (pos == captured.len()).then(|| MaintainedPlan {
            plan: plan.clone(),
            root,
            stats: DeltaStats::default(),
        })
    }

    fn seed_join(
        &self,
        left_rows: &[Vid],
        right_rows: &[Vid],
        left_field: &Field,
        right_field: &Field,
        build: BuildSide,
    ) -> JoinState {
        let (build_rows, probe_rows, build_field, probe_field) = match build {
            BuildSide::Left => (left_rows, right_rows, left_field, right_field),
            BuildSide::Right => (right_rows, left_rows, right_field, left_field),
        };
        let mut state = JoinState::default();
        for &vid in build_rows {
            if let Some(key) = self.field_key(vid, build_field) {
                multimap_insert(&mut state.table, key.clone(), vid);
                state.build_keys.insert(vid, key);
            }
        }
        for &vid in probe_rows {
            if let Some(key) = self.field_key(vid, probe_field) {
                state.probe_keys.insert(vid, key);
            }
        }
        state
    }

    /// Applies a batch of change records to a standing result, returning
    /// the net row delta. The maintained rows afterwards are identical
    /// to a fresh execution of the plan against the current store and
    /// indexes; when a node cannot maintain soundly the whole plan is
    /// recomputed (counted in [`DeltaStats::full_recomputes`]).
    pub fn maintain(
        &self,
        standing: &mut MaintainedPlan,
        records: &[ChangeRecord],
    ) -> Result<ResultDelta> {
        if records.is_empty() {
            return Ok(match &standing.root {
                MaintainedRoot::Views(node) => ResultDelta::unchanged_views(node.rows.len()),
                MaintainedRoot::Join { pairs, .. } => ResultDelta {
                    added: ResultRows::Pairs(Vec::new()),
                    removed: ResultRows::Pairs(Vec::new()),
                    total: pairs.len(),
                },
            });
        }
        standing.stats.batches += 1;
        standing.stats.records += records.len() as u64;
        let batch = Batch::classify(records);
        // Maintenance itself is never budgeted: it runs on behalf of a
        // cache hit or a subscription pump, not a governed query.
        let tracker = BudgetTracker::start(QueryBudget::none());
        let mut scratch = ExecStats::default();

        // Inner scope: borrow the standing state's pieces disjointly;
        // `None` out of it means some node could not maintain and the
        // whole plan recomputes below.
        let maintained: Option<ResultDelta> = {
            let MaintainedPlan { plan, root, stats } = &mut *standing;
            match (&plan.root.op, root) {
                (
                    PlanOp::HashJoin {
                        left,
                        right,
                        left_field,
                        right_field,
                        build,
                        ..
                    },
                    MaintainedRoot::Join {
                        left: left_node,
                        right: right_node,
                        state,
                        pairs,
                    },
                ) => {
                    let ld = self.maintain_view_node(
                        left,
                        left_node,
                        &batch,
                        stats,
                        &mut scratch,
                        &tracker,
                    )?;
                    let rd = self.maintain_view_node(
                        right,
                        right_node,
                        &batch,
                        stats,
                        &mut scratch,
                        &tracker,
                    )?;
                    match (ld, rd) {
                        (Some(ld), Some(rd)) => Some(self.maintain_join(
                            *build,
                            left_field,
                            right_field,
                            &left_node.rows,
                            &right_node.rows,
                            &ld,
                            &rd,
                            &batch,
                            state,
                            pairs,
                            stats,
                        )),
                        _ => None,
                    }
                }
                (_, MaintainedRoot::Views(node)) => self
                    .maintain_view_node(&plan.root, node, &batch, stats, &mut scratch, &tracker)?
                    .map(|delta| ResultDelta {
                        total: node.rows.len(),
                        added: ResultRows::Views(delta.added),
                        removed: ResultRows::Views(delta.removed),
                    }),
                _ => None,
            }
        };
        match maintained {
            Some(delta) => Ok(delta),
            None => self.recompute_all(standing),
        }
    }

    /// Maintains a root hash join's multimap and key maps from its
    /// inputs' deltas, regenerating the pair rows by probing the
    /// multimap — no store or index reads beyond re-keying the vids the
    /// batch marked dirty.
    #[allow(clippy::too_many_arguments)]
    fn maintain_join(
        &self,
        build: BuildSide,
        left_field: &Field,
        right_field: &Field,
        left_rows: &[Vid],
        right_rows: &[Vid],
        ld: &ViewDelta,
        rd: &ViewDelta,
        batch: &Batch,
        state: &mut JoinState,
        pairs: &mut Vec<(Vid, Vid)>,
        stats: &mut DeltaStats,
    ) -> ResultDelta {
        let build_is_left = build == BuildSide::Left;
        let (build_rows, probe_rows, bd, pd, build_field, probe_field) = if build_is_left {
            (left_rows, right_rows, ld, rd, left_field, right_field)
        } else {
            (right_rows, left_rows, rd, ld, right_field, left_field)
        };
        // Build side: drop removed rows, key added rows, re-key the
        // surviving rows the batch marked dirty.
        for v in &bd.removed {
            if let Some(key) = state.build_keys.remove(v) {
                multimap_remove(&mut state.table, &key, *v);
            }
        }
        for &v in &bd.added {
            if let Some(key) = self.field_key(v, build_field) {
                multimap_insert(&mut state.table, key.clone(), v);
                state.build_keys.insert(v, key);
            }
        }
        for &v in &batch.key_dirty {
            if !contains(build_rows, v) {
                continue;
            }
            let fresh = self.field_key(v, build_field);
            if state.build_keys.get(&v) == fresh.as_ref() {
                continue;
            }
            if let Some(old) = state.build_keys.remove(&v) {
                multimap_remove(&mut state.table, &old, v);
            }
            if let Some(key) = fresh {
                multimap_insert(&mut state.table, key.clone(), v);
                state.build_keys.insert(v, key);
            }
        }
        // Probe side: same bookkeeping, keys only.
        for v in &pd.removed {
            state.probe_keys.remove(v);
        }
        let rekey: Vec<Vid> = pd
            .added
            .iter()
            .copied()
            .chain(
                batch
                    .key_dirty
                    .iter()
                    .copied()
                    .filter(|v| contains(probe_rows, *v)),
            )
            .collect();
        for v in rekey {
            match self.field_key(v, probe_field) {
                Some(key) => {
                    state.probe_keys.insert(v, key);
                }
                None => {
                    state.probe_keys.remove(&v);
                }
            }
        }
        // Regenerate pairs by probing the maintained multimap; sort +
        // dedup matches the executor's output exactly.
        let mut new_pairs = Vec::new();
        for &v in probe_rows {
            if let Some(key) = state.probe_keys.get(&v) {
                if let Some(matches) = state.table.get(key) {
                    for &m in matches {
                        new_pairs.push(if build_is_left { (m, v) } else { (v, m) });
                    }
                }
            }
        }
        new_pairs.sort_unstable();
        new_pairs.dedup();
        stats.join_maintained += 1;
        let (added, removed) = diff_sorted(pairs, &new_pairs);
        *pairs = new_pairs;
        ResultDelta {
            total: pairs.len(),
            added: ResultRows::Pairs(added),
            removed: ResultRows::Pairs(removed),
        }
    }

    /// Resynchronizes a standing result that may have drifted (e.g.
    /// after a failed maintenance pass): a counted full recompute that
    /// re-executes the plan, re-seeds the maintained state and returns
    /// the delta between the old rows and the fresh ones. After a
    /// successful resync the standing rows are identical to a fresh
    /// execution regardless of what state maintenance left behind.
    pub fn resync(&self, standing: &mut MaintainedPlan) -> Result<ResultDelta> {
        self.recompute_all(standing)
    }

    /// The counted whole-plan fallback: re-execute (unbudgeted) and
    /// re-seed, diffing old rows against new.
    fn recompute_all(&self, standing: &mut MaintainedPlan) -> Result<ResultDelta> {
        let (_, fresh) = self.execute_standing(&standing.plan, QueryBudget::none())?;
        let Some(fresh) = fresh else {
            return Err(IdmError::Provider {
                detail: "delta: plan shape is not maintainable".into(),
                source: None,
                vid: None,
            });
        };
        let delta = standing.replace_with(fresh);
        standing.stats.full_recomputes += 1;
        Ok(delta)
    }

    /// Maintains one view-producing node (and its subtree). Returns
    /// `None` when the subtree cannot be maintained (nested join) — the
    /// caller escalates to a full recompute.
    fn maintain_view_node(
        &self,
        node: &PlanNode,
        state: &mut MaintainedNode,
        batch: &Batch,
        dstats: &mut DeltaStats,
        scratch: &mut ExecStats,
        tracker: &BudgetTracker,
    ) -> Result<Option<ViewDelta>> {
        let new_rows: Vec<Vid> = match &node.op {
            PlanOp::IndexAccess(access) => {
                let dirty = match access {
                    AccessKind::Name(_) => batch.name,
                    AccessKind::Content(_) => batch.content,
                    AccessKind::Tuple { .. } => batch.tuple,
                    AccessKind::Catalog(_) => batch.class,
                };
                if !dirty {
                    return Ok(Some(ViewDelta::default()));
                }
                dstats.leaf_reevals += 1;
                self.eval_access(access)
            }
            PlanOp::Scan => {
                if !batch.catalog {
                    return Ok(Some(ViewDelta::default()));
                }
                dstats.leaf_reevals += 1;
                self.all_vids()
            }
            PlanOp::Intersect(inputs) => {
                let Some(dirty) =
                    self.maintain_children(inputs, state, batch, dstats, scratch, tracker)?
                else {
                    return Ok(None);
                };
                if dirty.is_empty() {
                    return Ok(Some(ViewDelta::default()));
                }
                // Membership re-test for exactly the touched vids: a vid
                // is in the intersection iff it is in every child.
                let mut add = Vec::new();
                let mut del = Vec::new();
                for &v in &dirty {
                    let now = !state.children.is_empty()
                        && state.children.iter().all(|c| contains(&c.rows, v));
                    let was = contains(&state.rows, v);
                    match (was, now) {
                        (false, true) => add.push(v),
                        (true, false) => del.push(v),
                        _ => {}
                    }
                }
                sorted_union(&sorted_minus(&state.rows, &del), &add)
            }
            PlanOp::UnionOp(inputs) => {
                let Some(dirty) =
                    self.maintain_children(inputs, state, batch, dstats, scratch, tracker)?
                else {
                    return Ok(None);
                };
                if dirty.is_empty() {
                    return Ok(Some(ViewDelta::default()));
                }
                let mut add = Vec::new();
                let mut del = Vec::new();
                for &v in &dirty {
                    let now = state.children.iter().any(|c| contains(&c.rows, v));
                    let was = contains(&state.rows, v);
                    match (was, now) {
                        (false, true) => add.push(v),
                        (true, false) => del.push(v),
                        _ => {}
                    }
                }
                sorted_union(&sorted_minus(&state.rows, &del), &add)
            }
            PlanOp::Complement(exclude) => {
                let Some(delta) = self.maintain_view_node(
                    exclude,
                    &mut state.children[0],
                    batch,
                    dstats,
                    scratch,
                    tracker,
                )?
                else {
                    return Ok(None);
                };
                if delta.is_empty() && !batch.catalog {
                    return Ok(Some(ViewDelta::default()));
                }
                dstats.complement_rescans += 1;
                let excluded = &state.children[0].rows;
                self.all_vids()
                    .into_iter()
                    .filter(|v| !contains(excluded, *v))
                    .collect()
            }
            PlanOp::Relate {
                context,
                candidates,
                axis,
                strategy,
            } => {
                let (ctx_nodes, cand_nodes) = state.children.split_at_mut(1);
                let Some(ctx_delta) = self.maintain_view_node(
                    context,
                    &mut ctx_nodes[0],
                    batch,
                    dstats,
                    scratch,
                    tracker,
                )?
                else {
                    return Ok(None);
                };
                let Some(cand_delta) = self.maintain_view_node(
                    candidates,
                    &mut cand_nodes[0],
                    batch,
                    dstats,
                    scratch,
                    tracker,
                )?
                else {
                    return Ok(None);
                };
                let ctx_rows = &state.children[0].rows;
                if batch.structural || !ctx_delta.is_empty() || self.options().live_expansion {
                    // Bounded re-expansion: recompute this one node from
                    // its maintained children (live expansion can force
                    // lazy groups mid-walk, so it always re-expands).
                    dstats.relate_fallbacks += 1;
                    self.relate(
                        ctx_rows,
                        state.children[1].rows.clone(),
                        *axis,
                        *strategy,
                        scratch,
                        tracker,
                    )?
                } else {
                    // Reachability is untouched: kept rows stay kept,
                    // removed candidates leave, and only the *added*
                    // candidates need a (small-frontier) re-test.
                    dstats.relate_incremental += 1;
                    let mut rows = sorted_minus(&state.rows, &cand_delta.removed);
                    if !cand_delta.added.is_empty() {
                        let kept = self.relate(
                            ctx_rows,
                            cand_delta.added.clone(),
                            *axis,
                            *strategy,
                            scratch,
                            tracker,
                        )?;
                        rows = sorted_union(&rows, &kept);
                    }
                    rows
                }
            }
            // The planner only places joins at the root; a nested join
            // has no maintained pair state — escalate.
            PlanOp::HashJoin { .. } => return Ok(None),
        };
        let (added, removed) = diff_sorted(&state.rows, &new_rows);
        state.rows = new_rows;
        Ok(Some(ViewDelta { added, removed }))
    }

    /// Maintains every child of an n-ary node; returns the sorted,
    /// deduplicated union of all child deltas (the membership re-test
    /// set), or `None` if any child subtree cannot maintain.
    fn maintain_children(
        &self,
        inputs: &[PlanNode],
        state: &mut MaintainedNode,
        batch: &Batch,
        dstats: &mut DeltaStats,
        scratch: &mut ExecStats,
        tracker: &BudgetTracker,
    ) -> Result<Option<Vec<Vid>>> {
        let mut dirty: Vec<Vid> = Vec::new();
        for (input, child) in inputs.iter().zip(state.children.iter_mut()) {
            let Some(delta) =
                self.maintain_view_node(input, child, batch, dstats, scratch, tracker)?
            else {
                return Ok(None);
            };
            dirty.extend(delta.added);
            dirty.extend(delta.removed);
        }
        dirty.sort_unstable();
        dirty.dedup();
        Ok(Some(dirty))
    }

    /// Executes `plan` under `budget` and seeds a standing result from
    /// the run — the one place a capturing execution becomes standing
    /// state, for subscriptions, the result cache and resyncs alike. A
    /// partial (budget-truncated) execution returns `(result, None)`: a
    /// subset must never become a standing result. So does a plan shape
    /// the delta engine cannot maintain.
    pub fn execute_standing(
        &self,
        plan: &Plan,
        budget: QueryBudget,
    ) -> Result<(QueryResult, Option<MaintainedPlan>)> {
        let mut captured = Vec::new();
        let result = self.execute_capturing(plan, budget, Some(&mut captured))?;
        let standing = if result.stats.partial {
            None
        } else {
            self.seed_maintained(plan, captured)
        };
        Ok((result, standing))
    }
}

/// Rebuilds one maintained view node from a post-order capture.
fn build_node(node: &PlanNode, captured: &[ResultRows], pos: &mut usize) -> Option<MaintainedNode> {
    let mut children = Vec::new();
    match &node.op {
        PlanOp::IndexAccess(_) | PlanOp::Scan => {}
        PlanOp::Intersect(inputs) | PlanOp::UnionOp(inputs) => {
            for input in inputs {
                children.push(build_node(input, captured, pos)?);
            }
        }
        PlanOp::Complement(inner) => children.push(build_node(inner, captured, pos)?),
        PlanOp::Relate {
            context,
            candidates,
            ..
        } => {
            children.push(build_node(context, captured, pos)?);
            children.push(build_node(candidates, captured, pos)?);
        }
        PlanOp::HashJoin { .. } => return None,
    }
    let rows = match captured.get(*pos)? {
        ResultRows::Views(v) => v.clone(),
        ResultRows::Pairs(_) => return None,
    };
    *pos += 1;
    Some(MaintainedNode { rows, children })
}

#[cfg(test)]
mod tests {
    use super::*;
    use idm_index::IndexBundle;
    use std::sync::Arc;

    struct Fixture {
        store: Arc<ViewStore>,
        indexes: Arc<IndexBundle>,
        p: QueryProcessor,
        notes: Vid,
        papers: Vid,
    }

    /// A store + indexes + processor over a small tree:
    /// `papers/{draft.tex, notes.txt}` with phrases.
    fn fixture() -> Fixture {
        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        let draft = store
            .build("draft.tex")
            .text("a dataspace vision draft")
            .insert();
        let notes = store.build("notes.txt").text("meeting notes").insert();
        let papers = store.build("papers").children(vec![draft, notes]).insert();
        for vid in store.vids() {
            indexes.index_view(&store, vid, "filesystem").unwrap();
        }
        let p = QueryProcessor::new(Arc::clone(&store), Arc::clone(&indexes));
        Fixture {
            store,
            indexes,
            p,
            notes,
            papers,
        }
    }

    fn stand(p: &QueryProcessor, iql: &str) -> MaintainedPlan {
        let plan = p.plan_iql(iql).unwrap();
        let (_, standing) = p.execute_standing(&plan, QueryBudget::none()).unwrap();
        standing.expect("full execution seeds")
    }

    fn assert_equivalent(p: &QueryProcessor, standing: &MaintainedPlan) {
        let fresh = p.execute_plan(standing.plan()).unwrap();
        assert_eq!(standing.rows(), fresh.rows, "maintained != recomputed");
    }

    #[test]
    fn leaf_delta_tracks_index_changes() {
        let f = fixture();
        let mut standing = stand(&f.p, r#""dataspace""#);
        assert_eq!(standing.rows().len(), 1);

        let rx = f.store.subscribe_records();
        let vid = f
            .store
            .build("new.tex")
            .text("another dataspace paper")
            .insert();
        f.indexes.index_view(&f.store, vid, "filesystem").unwrap();
        let records: Vec<ChangeRecord> = rx.try_iter().collect();
        assert!(!records.is_empty());

        let delta = f.p.maintain(&mut standing, &records).unwrap();
        assert_eq!(delta.added, ResultRows::Views(vec![vid]));
        assert!(delta.removed.is_empty());
        assert_equivalent(&f.p, &standing);
        assert!(standing.stats().leaf_reevals >= 1);
    }

    #[test]
    fn relate_maintains_incrementally_without_structural_changes() {
        let f = fixture();
        let mut standing = stand(&f.p, r#"//papers//*["dataspace"]"#);
        assert_eq!(standing.rows().len(), 1);

        let rx = f.store.subscribe_records();
        // A content change on an existing child flips it into the
        // result without touching group topology.
        f.store
            .set_content(f.notes, Content::text("dataspace meeting notes"))
            .unwrap();
        f.indexes
            .index_view(&f.store, f.notes, "filesystem")
            .unwrap();
        let records: Vec<ChangeRecord> = rx.try_iter().collect();

        let delta = f.p.maintain(&mut standing, &records).unwrap();
        assert_eq!(delta.added, ResultRows::Views(vec![f.notes]));
        assert_equivalent(&f.p, &standing);
        assert!(standing.stats().relate_incremental >= 1);
        assert_eq!(standing.stats().relate_fallbacks, 0);
    }

    #[test]
    fn structural_changes_use_bounded_reexpansion() {
        let f = fixture();
        let mut standing = stand(&f.p, r#"//papers//*["dataspace"]"#);

        let rx = f.store.subscribe_records();
        let extra = f
            .store
            .build("extra.tex")
            .text("dataspace appendix")
            .insert();
        f.store.add_group_member(f.papers, extra, false).unwrap();
        f.indexes.index_view(&f.store, extra, "filesystem").unwrap();
        f.indexes
            .index_view(&f.store, f.papers, "filesystem")
            .unwrap();
        let records: Vec<ChangeRecord> = rx.try_iter().collect();

        let delta = f.p.maintain(&mut standing, &records).unwrap();
        assert!(delta.added.views().contains(&extra));
        assert_equivalent(&f.p, &standing);
        assert!(standing.stats().relate_fallbacks >= 1);
    }

    #[test]
    fn maintenance_is_convergent_under_replay() {
        let f = fixture();
        let mut standing = stand(&f.p, r#""dataspace""#);
        let rx = f.store.subscribe_records();
        let vid = f.store.build("re.tex").text("dataspace again").insert();
        f.indexes.index_view(&f.store, vid, "filesystem").unwrap();
        let records: Vec<ChangeRecord> = rx.try_iter().collect();

        let first = f.p.maintain(&mut standing, &records).unwrap();
        assert!(!first.is_empty());
        // Replaying the same batch is a no-op: state, not ops.
        let second = f.p.maintain(&mut standing, &records).unwrap();
        assert!(second.is_empty());
        assert_equivalent(&f.p, &standing);
    }

    #[test]
    fn join_maintains_via_build_side_multimap() {
        let f = fixture();
        // Give the email subsystem a same-named attachment.
        let attach = f.store.build("draft.tex").text("attached copy").insert();
        let mail = f.store.build("mail").children(vec![attach]).insert();
        for vid in [attach, mail] {
            f.indexes.index_view(&f.store, vid, "imap").unwrap();
        }
        let iql = r#"join( //papers/* as A, //mail/* as B, A.name = B.name )"#;
        let mut standing = stand(&f.p, iql);
        assert_eq!(standing.rows().len(), 1);

        let rx = f.store.subscribe_records();
        // Renaming notes.txt to match the attachment adds a pair.
        f.store.set_name(f.notes, Some("draft.tex".into())).unwrap();
        f.indexes
            .index_view(&f.store, f.notes, "filesystem")
            .unwrap();
        let records: Vec<ChangeRecord> = rx.try_iter().collect();

        let delta = f.p.maintain(&mut standing, &records).unwrap();
        assert_eq!(delta.added.len(), 1);
        assert_equivalent(&f.p, &standing);
        assert!(standing.stats().join_maintained >= 1);
        assert_eq!(standing.stats().full_recomputes, 0);
    }

    #[test]
    fn partial_execution_never_seeds_standing_state() {
        let f = fixture();
        let p = &f.p;
        let plan = p.plan_iql(r#"//papers//*["dataspace"]"#).unwrap();
        let budget = QueryBudget {
            cancel_after_checks: Some(2),
            partial: true,
            ..QueryBudget::default()
        };
        let (result, standing) = p.execute_standing(&plan, budget).unwrap();
        assert!(result.stats.partial);
        assert!(standing.is_none(), "partial result seeded standing state");
    }
}
