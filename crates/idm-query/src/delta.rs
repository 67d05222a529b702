//! Standing query results kept current (the paper's `refresh_result`
//! pub/sub, Section 4.3.1, industrialized).
//!
//! A [`MaintainedPlan`] is a [`Plan`] and the rows it last produced.
//! `QueryProcessor::refresh` brings the rows up to date after some
//! number of store changes (the caller counts them with
//! [`ViewStore::change_count`]): none leaves the rows as they are; any
//! other number **re-executes** the plan, unbudgeted, with the ordinary
//! plan walker and diffs the old and new sorted rows
//! ([`DeltaStats::full_recomputes`]). The changes say only *that*
//! something changed, never what to do.
//!
//! There is one implementation of every operator — the executor's — so
//! **standing rows == a fresh execution** holds by construction, and
//! refreshing twice is a no-op: the second pass re-reads the same
//! indexes.
//!
//! **What this gives up.** A change that cannot reach the plan's answer
//! (an iQL `update` of an attribute or content the plan does not read)
//! still costs one execution of the plan. Every sync event inserts and
//! removes derived views, so nothing in the repository has that traffic.

use idm_core::prelude::*;

use crate::budget::QueryBudget;
use crate::exec::{QueryProcessor, QueryResult, ResultRows};
use crate::plan::Plan;

/// Counters for one standing result's maintenance history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Refreshes over at least one store change.
    pub batches: u64,
    /// Store changes those refreshes covered.
    pub records: u64,
    /// Always 0. Kept because the frozen benchmark reads it
    /// (`query.delta.fallback_ratio`); goes when a benchmark change
    /// renames that metric.
    pub relate_fallbacks: u64,
    /// Passes that executed the plan: every batch, and every resync.
    pub full_recomputes: u64,
}

/// The net change one maintenance pass produced on a standing result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultDelta {
    /// Rows that entered the result.
    pub added: ResultRows,
    /// Rows that left the result.
    pub removed: ResultRows,
    /// Total rows in the standing result after this pass.
    pub total: usize,
}

impl ResultDelta {
    /// Whether this pass changed nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// The empty delta over `rows`.
    fn unchanged(rows: &ResultRows) -> Self {
        let none = || match rows {
            ResultRows::Views(_) => ResultRows::Views(Vec::new()),
            ResultRows::Pairs(_) => ResultRows::Pairs(Vec::new()),
        };
        ResultDelta {
            added: none(),
            removed: none(),
            total: rows.len(),
        }
    }
}

/// A standing query: a plan and the rows it last produced, kept current
/// by [`QueryProcessor::maintain`].
#[derive(Debug, Clone)]
pub struct MaintainedPlan {
    plan: Plan,
    rows: ResultRows,
    stats: DeltaStats,
}

impl MaintainedPlan {
    /// The plan this standing result answers.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The plan's normalized fingerprint (the cache key).
    pub fn fingerprint(&self) -> u64 {
        self.plan.fingerprint()
    }

    /// The current rows — after every pass equal to what a fresh
    /// execution of [`MaintainedPlan::plan`] would return.
    pub fn rows(&self) -> ResultRows {
        self.rows.clone()
    }

    /// Number of rows in the standing result.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the standing result is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maintenance counters accumulated over this result's lifetime.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Swaps in the rows of `fresh` — a newly seeded state of the same
    /// plan — keeping the maintenance history, and returns what changed
    /// between the two row sets.
    pub(crate) fn replace_with(&mut self, fresh: MaintainedPlan) -> ResultDelta {
        self.swap_rows(fresh.rows)
    }

    fn swap_rows(&mut self, new: ResultRows) -> ResultDelta {
        let old = std::mem::replace(&mut self.rows, new);
        let (added, removed) = match (&old, &self.rows) {
            (ResultRows::Views(o), ResultRows::Views(n)) => {
                let (a, r) = diff_sorted(o, n);
                (ResultRows::Views(a), ResultRows::Views(r))
            }
            (ResultRows::Pairs(o), ResultRows::Pairs(n)) => {
                let (a, r) = diff_sorted(o, n);
                (ResultRows::Pairs(a), ResultRows::Pairs(r))
            }
            // Shape flip cannot happen (the plan is unchanged); report
            // a full replacement if it somehow does.
            _ => (self.rows.clone(), old),
        };
        ResultDelta {
            added,
            removed,
            total: self.rows.len(),
        }
    }
}

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

impl QueryProcessor {
    /// Brings a standing result up to date after `changes` store changes,
    /// returning the net row delta: none is the empty delta, any other
    /// number re-executes the plan. Either way the standing rows
    /// afterwards are identical to a fresh execution of the plan against
    /// the current store and indexes.
    pub(crate) fn refresh(
        &self,
        standing: &mut MaintainedPlan,
        changes: u64,
    ) -> Result<ResultDelta> {
        if changes == 0 {
            return Ok(ResultDelta::unchanged(&standing.rows));
        }
        standing.stats.batches += 1;
        standing.stats.records += changes;
        self.resync(standing)
    }

    /// Brings a standing result up to date after the store changes
    /// `records` carry: the refresh the standing-result table runs,
    /// for a caller that holds the records rather than a count.
    pub fn maintain(
        &self,
        standing: &mut MaintainedPlan,
        records: &[ChangeRecord],
    ) -> Result<ResultDelta> {
        self.refresh(standing, records.len() as u64)
    }

    /// Re-executes the plan of a standing result and returns the delta
    /// between the old rows and the fresh ones — what a refresh does
    /// after a change, and how a result whose refresh failed is made
    /// current again. Never budgeted: it runs on behalf of a cache hit
    /// or a subscription pump, not a governed query. On an error the
    /// standing rows are left as they were.
    pub fn resync(&self, standing: &mut MaintainedPlan) -> Result<ResultDelta> {
        let fresh = self.execute_plan_with(&standing.plan, QueryBudget::none())?;
        standing.stats.full_recomputes += 1;
        Ok(standing.swap_rows(fresh.rows))
    }

    /// Executes `plan` under `budget` and seeds a standing result from
    /// the run — the one place an execution becomes standing state, for
    /// subscriptions and the result cache alike. A partial
    /// (budget-truncated) execution returns `(result, None)`: a subset
    /// must never become a standing result.
    pub fn execute_standing(
        &self,
        plan: &Plan,
        budget: QueryBudget,
    ) -> Result<(QueryResult, Option<MaintainedPlan>)> {
        let result = self.execute_plan_with(plan, budget)?;
        let standing = (!result.stats.partial).then(|| MaintainedPlan {
            plan: plan.clone(),
            rows: result.rows.clone(),
            stats: DeltaStats::default(),
        });
        Ok((result, standing))
    }
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

    /// The records `mutate` emits, with `touched` re-indexed the way
    /// the synchronization manager would.
    fn batch_of(f: &Fixture, touched: Vid, mutate: impl FnOnce(&ViewStore)) -> Vec<ChangeRecord> {
        let rx = f.store.subscribe_records();
        mutate(&f.store);
        f.indexes
            .index_view(&f.store, touched, "filesystem")
            .unwrap();
        let records: Vec<ChangeRecord> = rx.try_iter().collect();
        assert!(!records.is_empty());
        records
    }

    /// A content-only batch: `notes.txt` gets new text, nothing else.
    fn content_only_batch(f: &Fixture) -> Vec<ChangeRecord> {
        let records = batch_of(f, f.notes, |store| {
            let text = Content::text("dataspace meeting notes");
            store.set_content(f.notes, text).unwrap();
        });
        assert!(records
            .iter()
            .all(|r| matches!(r, ChangeRecord::SetContent { .. })));
        records
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
        assert!(standing.stats().full_recomputes >= 1);
    }

    #[test]
    fn content_change_under_a_path_reexecutes_the_plan() {
        let f = fixture();
        let mut standing = stand(&f.p, r#"//papers//*["dataspace"]"#);
        assert_eq!(standing.rows().len(), 1);

        // A content change on an existing child flips it into the
        // result without touching group topology.
        let records = content_only_batch(&f);
        let delta = f.p.maintain(&mut standing, &records).unwrap();
        assert_eq!(delta.added, ResultRows::Views(vec![f.notes]));
        assert_equivalent(&f.p, &standing);
        assert_eq!(standing.stats().full_recomputes, 1);
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
        assert!(standing.stats().full_recomputes >= 1);
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
    fn no_change_executes_nothing() {
        let f = fixture();
        let mut standing = stand(&f.p, r#""dataspace""#);
        let delta = f.p.refresh(&mut standing, 0).unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.total, 1);
        assert_eq!(standing.stats(), DeltaStats::default());
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
        assert!(standing.stats().full_recomputes >= 1);
    }

    #[test]
    fn a_batch_outside_the_read_set_executes_nothing() {
        let f = fixture();
        let size = TupleComponent::of(vec![("size", Value::Integer(80))]);
        f.store.set_tuple(f.notes, Some(size)).unwrap();
        f.indexes
            .index_view(&f.store, f.notes, "filesystem")
            .unwrap();
        // A tuple-only plan and a name-only path plan: neither reads
        // the content index, and both re-execute once all the same.
        let mut standings = [stand(&f.p, "[size > 50]"), stand(&f.p, "//papers//notes*")];
        let records = content_only_batch(&f);
        for standing in &mut standings {
            let before = standing.rows();
            assert_eq!(before, ResultRows::Views(vec![f.notes]));
            let delta = f.p.maintain(standing, &records).unwrap();
            assert!(delta.is_empty());
            assert_eq!(delta.total, 1);
            assert_eq!(standing.rows(), before);
            assert_equivalent(&f.p, standing);
            let stats = standing.stats();
            assert_eq!((stats.batches, stats.full_recomputes), (1, 1));
        }
    }

    #[test]
    fn a_rename_reaches_a_join_whose_inputs_read_no_name_index() {
        let f = fixture();
        let attach = f.store.build("draft.tex").text("attached copy").insert();
        f.indexes.index_view(&f.store, attach, "imap").unwrap();
        let iql = r#"join( "dataspace" as A, "attached" as B, A.name = B.name )"#;
        let mut standing = stand(&f.p, iql);
        assert_eq!(standing.rows().len(), 1);

        let records = batch_of(&f, attach, |store| {
            store.set_name(attach, Some("other.tex".into())).unwrap();
        });
        assert!(records
            .iter()
            .all(|r| matches!(r, ChangeRecord::SetName { .. })));

        let delta = f.p.maintain(&mut standing, &records).unwrap();
        assert_eq!(delta.removed.len(), 1);
        assert_eq!(delta.total, 0);
        assert_equivalent(&f.p, &standing);
    }

    #[test]
    fn a_class_change_reaches_a_class_plan() {
        let f = fixture();
        let mut standing = stand(&f.p, r#"[class="file"]"#);
        assert!(standing.is_empty());

        let file = f.store.classes().require("file").unwrap();
        let records = batch_of(&f, f.notes, |store| {
            store.set_class(f.notes, Some(file)).unwrap();
        });
        assert!(records
            .iter()
            .all(|r| matches!(r, ChangeRecord::SetClass { .. })));

        let delta = f.p.maintain(&mut standing, &records).unwrap();
        assert_eq!(delta.added, ResultRows::Views(vec![f.notes]));
        assert_equivalent(&f.p, &standing);
    }

    #[test]
    fn a_new_group_edge_reaches_a_descendant_step() {
        let f = fixture();
        let extra = f.store.build("extra.tex").text("appendix").insert();
        f.indexes.index_view(&f.store, extra, "filesystem").unwrap();
        let mut standing = stand(&f.p, "//papers//*");
        assert_eq!(standing.rows().len(), 2);

        let records = batch_of(&f, f.papers, |store| {
            store.add_group_member(f.papers, extra, false).unwrap();
        });
        assert!(records
            .iter()
            .all(|r| matches!(r, ChangeRecord::AddGroupMember { .. })));

        let delta = f.p.maintain(&mut standing, &records).unwrap();
        assert_eq!(delta.added, ResultRows::Views(vec![extra]));
        assert_equivalent(&f.p, &standing);
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
