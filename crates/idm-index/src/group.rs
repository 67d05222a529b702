//! The Group Replica: forward and reverse adjacency over group
//! components (Section 5.2).
//!
//! "One strategy could be to replicate the group components of all
//! resource views retrieved from remote data sources. As a consequence
//! queries referring to the group component can be executed exploiting
//! the replicas only" — this is that replica. The query processor's
//! forward and backward walks run entirely on this structure.
//!
//! A walk reads it through [`GroupReplica::read`]: one [`GroupRead`]
//! guard lends each adjacency list as a slice, so a node costs one
//! lookup and no allocation. The read discipline:
//!
//! - a guard lives for one chunk of one walk, never across chunks,
//!   levels or queries, so a writer ([`GroupReplica::index`] from ingest
//!   or sync) waits at most one chunk's walk;
//! - nothing called while a guard is held takes the replica's lock
//!   again: the lock is std's `RwLock`, whose re-entrant read deadlocks
//!   once a writer queues between the two reads;
//! - budget checkpoints stay per node inside the walk, so a deadline
//!   still ends it promptly.

use std::collections::VecDeque;

use idm_core::prelude::Vid;
use parking_lot::{RwLock, RwLockReadGuard};

use crate::{VidMap, VidSet};

#[derive(Default)]
struct Inner {
    forward: VidMap<Vec<Vid>>,
    reverse: VidMap<Vec<Vid>>,
    edges: usize,
}

/// A read guard over the replica that lends adjacency lists
/// ([`GroupReplica::read`]). Hold one for one chunk of one walk and take
/// no other replica lock while it lives (see the module doc).
pub struct GroupRead<'a> {
    inner: RwLockReadGuard<'a, Inner>,
}

impl GroupRead<'_> {
    /// The directly related views of `vid` (out-edges).
    pub fn children(&self, vid: Vid) -> &[Vid] {
        self.inner.forward.get(&vid).map_or(&[], Vec::as_slice)
    }

    /// The views `vid` is directly related *from* (in-edges).
    pub fn parents(&self, vid: Vid) -> &[Vid] {
        self.inner.reverse.get(&vid).map_or(&[], Vec::as_slice)
    }
}

/// The group component replica.
#[derive(Default)]
pub struct GroupReplica {
    inner: RwLock<Inner>,
}

impl GroupReplica {
    /// An empty replica.
    pub fn new() -> Self {
        GroupReplica::default()
    }

    /// Replicates a view's group members (replaces previous edges of
    /// that view).
    pub fn index(&self, parent: Vid, members: &[Vid]) {
        let mut inner = self.inner.write();
        if let Some(old) = inner.forward.remove(&parent) {
            inner.edges -= old.len();
            for child in old {
                if let Some(parents) = inner.reverse.get_mut(&child) {
                    parents.retain(|p| *p != parent);
                    if parents.is_empty() {
                        inner.reverse.remove(&child);
                    }
                }
            }
        }
        if !members.is_empty() {
            inner.edges += members.len();
            inner.forward.insert(parent, members.to_vec());
            for child in members {
                inner.reverse.entry(*child).or_default().push(parent);
            }
        }
    }

    /// Removes a view entirely (as parent; in-edges pointing at it are
    /// kept — the dataspace tolerates dangling references).
    pub fn remove(&self, vid: Vid) {
        self.index(vid, &[]);
    }

    /// A read guard that lends adjacency lists without copying them.
    pub fn read(&self) -> GroupRead<'_> {
        GroupRead {
            inner: self.inner.read(),
        }
    }

    /// The directly related views of `vid` (out-edges), owned.
    pub fn children(&self, vid: Vid) -> Vec<Vid> {
        self.read().children(vid).to_vec()
    }

    /// The views `vid` is directly related *from* (in-edges), owned.
    pub fn parents(&self, vid: Vid) -> Vec<Vid> {
        self.read().parents(vid).to_vec()
    }

    /// All views indirectly related to `root` (forward BFS, cycle-safe).
    pub fn descendants(&self, root: Vid) -> Vec<Vid> {
        self.bfs(root, true)
    }

    /// All views from which `leaf` is indirectly reachable
    /// (reverse BFS, cycle-safe).
    pub fn ancestors(&self, leaf: Vid) -> Vec<Vid> {
        self.bfs(leaf, false)
    }

    fn bfs(&self, start: Vid, forward: bool) -> Vec<Vid> {
        let group = self.read();
        let mut visited = VidSet::default();
        let mut queue: VecDeque<Vid> = [start].into();
        let mut out = Vec::new();
        let mut seen_start = false;
        while let Some(vid) = queue.pop_front() {
            let next_nodes = if forward {
                group.children(vid)
            } else {
                group.parents(vid)
            };
            for &next in next_nodes {
                if next == start {
                    // Start reachable from itself via a cycle: report once
                    // (matching idm_core::graph::descendants semantics).
                    if !seen_start {
                        seen_start = true;
                        out.push(start);
                    }
                    continue;
                }
                if visited.insert(next) {
                    out.push(next);
                    queue.push_back(next);
                }
            }
        }
        out
    }

    /// Whether `target` is indirectly related to `source`
    /// (`source →* target`), checked forward with early exit.
    pub fn reaches(&self, source: Vid, target: Vid) -> bool {
        let group = self.read();
        let mut visited = VidSet::default();
        let mut queue: VecDeque<Vid> = [source].into();
        while let Some(vid) = queue.pop_front() {
            for &next in group.children(vid) {
                if next == target {
                    return true;
                }
                if visited.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        false
    }

    /// Exports the forward adjacency for persistence (the reverse side
    /// is derived on import).
    pub fn export_edges(&self) -> Vec<(u64, Vec<u64>)> {
        let inner = self.inner.read();
        let mut out: Vec<(u64, Vec<u64>)> = inner
            .forward
            .iter()
            .map(|(parent, children)| {
                (
                    parent.as_u64(),
                    children.iter().map(|c| c.as_u64()).collect(),
                )
            })
            .collect();
        out.sort_by_key(|(p, _)| *p);
        out
    }

    /// Rebuilds the replica (both directions) from exported edges.
    pub fn import_edges(&self, edges: Vec<(u64, Vec<u64>)>) {
        {
            let mut inner = self.inner.write();
            *inner = Inner::default();
        }
        for (parent, children) in edges {
            let children: Vec<Vid> = children.into_iter().map(Vid::from_raw).collect();
            self.index(Vid::from_raw(parent), &children);
        }
    }

    /// Number of replicated edges.
    pub fn edge_count(&self) -> usize {
        self.inner.read().edges
    }

    /// Serialized replica size in bytes: per view a varint header plus
    /// delta-varint member lists (both directions).
    pub fn footprint_bytes(&self) -> usize {
        fn varint(v: u64) -> usize {
            (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
        }
        fn side(map: &VidMap<Vec<Vid>>) -> usize {
            map.iter()
                .map(|(vid, members)| {
                    let mut bytes = varint(vid.as_u64()) + varint(members.len() as u64);
                    let mut prev = 0u64;
                    let mut sorted: Vec<u64> = members.iter().map(|m| m.as_u64()).collect();
                    sorted.sort_unstable();
                    for m in sorted {
                        bytes += varint(m.wrapping_sub(prev));
                        prev = m;
                    }
                    bytes
                })
                .sum()
        }
        let inner = self.inner.read();
        side(&inner.forward) + side(&inner.reverse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(i: u64) -> Vid {
        Vid::from_raw(i)
    }

    fn diamond() -> GroupReplica {
        // 1 → {2, 3}, 2 → 4, 3 → 4
        let replica = GroupReplica::new();
        replica.index(vid(1), &[vid(2), vid(3)]);
        replica.index(vid(2), &[vid(4)]);
        replica.index(vid(3), &[vid(4)]);
        replica
    }

    #[test]
    fn forward_and_reverse_edges() {
        let replica = diamond();
        assert_eq!(replica.children(vid(1)), vec![vid(2), vid(3)]);
        assert_eq!(replica.parents(vid(4)), vec![vid(2), vid(3)]);
        assert!(replica.children(vid(4)).is_empty());
        assert!(replica.parents(vid(1)).is_empty());
        assert_eq!(replica.edge_count(), 4);
    }

    #[test]
    fn descendants_and_ancestors() {
        let replica = diamond();
        let mut d = replica.descendants(vid(1));
        d.sort();
        assert_eq!(d, vec![vid(2), vid(3), vid(4)]);
        let mut a = replica.ancestors(vid(4));
        a.sort();
        assert_eq!(a, vec![vid(1), vid(2), vid(3)]);
    }

    #[test]
    fn reaches_with_cycles() {
        let replica = GroupReplica::new();
        replica.index(vid(1), &[vid(2)]);
        replica.index(vid(2), &[vid(3)]);
        replica.index(vid(3), &[vid(1)]); // cycle
        assert!(replica.reaches(vid(1), vid(3)));
        assert!(replica.reaches(vid(3), vid(2)));
        assert!(!replica.reaches(vid(1), vid(99)));
        // Self-reachability through the cycle.
        assert!(replica.reaches(vid(1), vid(1)));
        assert_eq!(replica.descendants(vid(1)).len(), 3);
    }

    #[test]
    fn reindex_replaces_edges() {
        let replica = diamond();
        replica.index(vid(1), &[vid(4)]);
        assert_eq!(replica.children(vid(1)), vec![vid(4)]);
        assert!(!replica.parents(vid(2)).contains(&vid(1)));
        assert!(replica.parents(vid(4)).contains(&vid(1)));
        assert_eq!(replica.edge_count(), 3);
    }

    #[test]
    fn detached_children_leave_nothing_behind() {
        let churned = GroupReplica::new();
        churned.index(vid(1), &[vid(2)]);
        for child in 100..200 {
            churned.index(vid(child + 1000), &[vid(child)]);
            churned.index(vid(1), &[vid(2), vid(child)]);
            churned.index(vid(1), &[vid(2)]);
            churned.remove(vid(child + 1000));
        }
        let copy = GroupReplica::new();
        copy.import_edges(churned.export_edges());
        assert_eq!(churned.footprint_bytes(), copy.footprint_bytes());
        assert_eq!(churned.edge_count(), 1);
        for child in 100..200 {
            assert_eq!(churned.parents(vid(child)), copy.parents(vid(child)));
        }
        assert_eq!(churned.parents(vid(2)), vec![vid(1)]);
    }

    #[test]
    fn remove_clears_out_edges_only() {
        let replica = diamond();
        replica.remove(vid(2));
        assert!(replica.children(vid(2)).is_empty());
        // In-edge 1 → 2 survives (dangling tolerated).
        assert!(replica.children(vid(1)).contains(&vid(2)));
        assert_eq!(replica.parents(vid(4)), vec![vid(3)]);
    }
}
