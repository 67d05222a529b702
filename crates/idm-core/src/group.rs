//! The group component `γ = (S, Q)` of a resource view (Def. 1).
//!
//! `S` is a (possibly empty) *set* of resource views — used when the
//! relative order of connections does not matter (e.g. folder children) —
//! and `Q` is a (possibly empty) *ordered sequence* — used when it does
//! (e.g. XML element children). Both may be finite or infinite, and the
//! invariant `S ∩ Q = ∅` (Def. 1 (ii)) is enforced at construction.
//!
//! Group components are the edges of the resource view graph: they may
//! express trees, DAGs and cyclic graphs alike (Section 2.3).

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use crate::content::ForceOnce;
use crate::error::{IdmError, Result};
use crate::store::{Vid, ViewStore};

/// Materialized, finite group data: the set `S` and sequence `Q`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupData {
    set: Vec<Vid>,
    seq: Vec<Vid>,
}

impl GroupData {
    /// Builds group data, enforcing `S ∩ Q = ∅` and deduplicating `S`
    /// (it is a set). `Q` may contain repeats: a sequence may legitimately
    /// reference the same view twice.
    pub fn new(set: Vec<Vid>, seq: Vec<Vid>) -> Result<Self> {
        let mut seen = HashSet::with_capacity(set.len());
        let mut dedup_set = Vec::with_capacity(set.len());
        for vid in set {
            if seen.insert(vid) {
                dedup_set.push(vid);
            }
        }
        if seq.iter().any(|vid| seen.contains(vid)) {
            // The owner Vid is unknown at this level; the store re-wraps
            // the error with it where available.
            return Err(IdmError::GroupOverlap(Vid::INVALID));
        }
        Ok(GroupData {
            set: dedup_set,
            seq,
        })
    }

    /// Group data with only unordered members.
    pub fn of_set(set: Vec<Vid>) -> Self {
        // A lone set cannot overlap with an empty sequence.
        GroupData::new(set, Vec::new()).expect("set-only group cannot overlap")
    }

    /// Group data with only ordered members.
    pub fn of_seq(seq: Vec<Vid>) -> Self {
        GroupData {
            set: Vec::new(),
            seq,
        }
    }

    /// The unordered members `S`.
    pub fn set(&self) -> &[Vid] {
        &self.set
    }

    /// The ordered members `Q`.
    pub fn seq(&self) -> &[Vid] {
        &self.seq
    }

    /// All directly related views: `S ∪ Q`, set first.
    pub fn members(&self) -> impl Iterator<Item = Vid> + '_ {
        self.set.iter().chain(self.seq.iter()).copied()
    }

    /// Total number of member references.
    pub fn len(&self) -> usize {
        self.set.len() + self.seq.len()
    }

    /// Whether both `S` and `Q` are empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty() && self.seq.is_empty()
    }
}

/// Computes a finite group component on demand (intensional group).
///
/// The provider receives the store so it can *create* the child views it
/// returns — this is how e.g. the contents of a LaTeX file are transformed
/// into an iDM subgraph only when `getGroupComponent()` is first called on
/// the file's view (Section 4.1).
///
/// Providers must not force the group component of `owner` itself
/// (directly or indirectly); doing so would deadlock the per-group latch.
pub trait GroupProvider: Send + Sync {
    /// Produces the group members, inserting child views as needed.
    fn compute(&self, store: &ViewStore, owner: Vid) -> Result<GroupData>;
}

impl<F> GroupProvider for F
where
    F: Fn(&ViewStore, Vid) -> Result<GroupData> + Send + Sync,
{
    fn compute(&self, store: &ViewStore, owner: Vid) -> Result<GroupData> {
        self(store, owner)
    }
}

/// A source of an infinite sequence `Q = ⟨V_1, …⟩_{n→∞}` of resource views
/// (data streams, INBOX message streams, …; Sections 3.4 and 4.4).
pub trait ViewSequenceSource: Send + Sync {
    /// Delivers the next view of the sequence if one is available *now*.
    ///
    /// `Ok(None)` means "no element available yet", not end-of-sequence:
    /// the sequence is infinite. Sources typically mint new views in the
    /// store as data arrives. Elements are consumed: like the paper's
    /// Option 2 email stream, a delivered element cannot be pulled again.
    fn try_next(&self, store: &ViewStore) -> Result<Option<Vid>>;
}

/// Lazily computed group with caching (force-once semantics).
pub struct LazyGroup {
    provider: Arc<dyn GroupProvider>,
    cell: ForceOnce<Arc<GroupData>>,
}

impl LazyGroup {
    /// Wraps a provider.
    pub fn new(provider: Arc<dyn GroupProvider>) -> Self {
        LazyGroup {
            provider,
            cell: ForceOnce::new(),
        }
    }

    /// Computes (or returns the cached) group data.
    pub fn force(&self, store: &ViewStore, owner: Vid) -> Result<Arc<GroupData>> {
        self.cell
            .force(|| {
                let data = self.provider.compute(store, owner).map_err(|e| match e {
                    IdmError::GroupOverlap(_) => IdmError::GroupOverlap(owner),
                    other => other,
                })?;
                Ok(Arc::new(data))
            })
            .cloned()
    }

    /// Whether the group has been materialized yet.
    pub fn is_materialized(&self) -> bool {
        self.cell.get().is_some()
    }

    /// The cached group data, if already materialized — never forces,
    /// and never waits for a force in progress, whose provider may be
    /// inserting children. Durability snapshots use this to persist
    /// what exists without triggering intensional work.
    pub fn peek(&self) -> Option<Arc<GroupData>> {
        self.cell.get().cloned()
    }
}

/// The group component handle stored on a view record.
#[derive(Clone, Default)]
pub enum Group {
    /// The empty group `(∅, ⟨⟩)`.
    #[default]
    Empty,
    /// Extensional, finite group data.
    Materialized(Arc<GroupData>),
    /// Intensional group, computed (then cached) on first access.
    Lazy(Arc<LazyGroup>),
    /// Infinite ordered sequence delivered by a source.
    InfiniteSeq(Arc<dyn ViewSequenceSource>),
}

impl Group {
    /// Finite extensional group from set and sequence members.
    pub fn finite(set: Vec<Vid>, seq: Vec<Vid>) -> Result<Self> {
        let data = GroupData::new(set, seq)?;
        Ok(if data.is_empty() {
            Group::Empty
        } else {
            Group::Materialized(Arc::new(data))
        })
    }

    /// Finite extensional group with unordered members only.
    pub fn of_set(set: Vec<Vid>) -> Self {
        let data = GroupData::of_set(set);
        if data.is_empty() {
            Group::Empty
        } else {
            Group::Materialized(Arc::new(data))
        }
    }

    /// Finite extensional group with ordered members only.
    pub fn of_seq(seq: Vec<Vid>) -> Self {
        let data = GroupData::of_seq(seq);
        if data.is_empty() {
            Group::Empty
        } else {
            Group::Materialized(Arc::new(data))
        }
    }

    /// Intensional group computed on demand.
    pub fn lazy(provider: Arc<dyn GroupProvider>) -> Self {
        Group::Lazy(Arc::new(LazyGroup::new(provider)))
    }

    /// Infinite sequence group.
    pub fn infinite(source: Arc<dyn ViewSequenceSource>) -> Self {
        Group::InfiniteSeq(source)
    }

    /// Whether the group is statically empty.
    ///
    /// Lazy groups report non-empty without forcing; infinite groups are
    /// never empty.
    pub fn is_empty(&self) -> bool {
        matches!(self, Group::Empty)
    }

    /// Whether the group is finite.
    pub fn is_finite(&self) -> bool {
        !matches!(self, Group::InfiniteSeq(_))
    }

    /// Whether accessing the members requires computation.
    pub fn is_intensional(&self) -> bool {
        matches!(self, Group::Lazy(_))
    }
}

impl fmt::Debug for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Group::Empty => f.write_str("Group::Empty"),
            Group::Materialized(d) => {
                write!(
                    f,
                    "Group::Materialized(|S|={}, |Q|={})",
                    d.set.len(),
                    d.seq.len()
                )
            }
            Group::Lazy(l) => write!(f, "Group::Lazy(materialized: {})", l.is_materialized()),
            Group::InfiniteSeq(_) => f.write_str("Group::InfiniteSeq"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_data_enforces_disjointness() {
        let a = Vid::from_raw(1);
        let b = Vid::from_raw(2);
        assert!(GroupData::new(vec![a], vec![b]).is_ok());
        assert!(GroupData::new(vec![a, b], vec![b]).is_err());
    }

    #[test]
    fn group_data_dedups_set_keeps_seq_repeats() {
        let a = Vid::from_raw(1);
        let b = Vid::from_raw(2);
        let d = GroupData::new(vec![a, a, b], vec![]).unwrap();
        assert_eq!(d.set(), &[a, b]);
        let d = GroupData::new(vec![], vec![a, a]).unwrap();
        assert_eq!(d.seq(), &[a, a]);
    }

    #[test]
    fn empty_groups_collapse() {
        assert!(Group::of_set(vec![]).is_empty());
        assert!(Group::of_seq(vec![]).is_empty());
        assert!(Group::finite(vec![], vec![]).unwrap().is_empty());
        assert!(!Group::of_set(vec![Vid::from_raw(7)]).is_empty());
    }

    #[test]
    fn members_iterates_set_then_seq() {
        let (a, b, c) = (Vid::from_raw(1), Vid::from_raw(2), Vid::from_raw(3));
        let d = GroupData::new(vec![a], vec![b, c]).unwrap();
        assert_eq!(d.members().collect::<Vec<_>>(), vec![a, b, c]);
        assert_eq!(d.len(), 3);
    }
}
