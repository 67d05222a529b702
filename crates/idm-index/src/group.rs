//! The Group Replica: group components as DFS intervals over a spanning
//! forest (Section 5.2).
//!
//! "One strategy could be to replicate the group components of all
//! resource views retrieved from remote data sources. As a consequence
//! queries referring to the group component can be executed exploiting
//! the replicas only" — this is that replica. It keeps each view's
//! member list (the forward edges) and answers reachability from labels:
//!
//! - a **spanning forest** of the edges, held as a parent column indexed
//!   by vid (the store hands vids out from one counter; a vid the
//!   columns may not reach, such as one read from a damaged file, is
//!   never labeled);
//! - a DFS label `(pre, post)` per view of that forest, in the same
//!   column, where `post` is the last pre-order number of the view's
//!   subtree, plus the view at each pre-order position. `a` is a tree
//!   ancestor of `b` iff `pre(a) < pre(b) ≤ post(a)` — the pre/post plane
//!   of the XPath Accelerator (Grust, SIGMOD 2002);
//! - the **side edges**, every edge the forest does not hold (second
//!   parents, links, cycles, self-loops, repeated members), sorted by
//!   target. They are few: 7–24 at the paper's scales;
//! - the **overlay**: views attached or moved since the labels were
//!   computed. They carry a parent but no label, and a query decides one
//!   by walking its parent column up to the first labeled ancestor. A
//!   labeled root that gains a parent (a *graft*, as a bottom-up ingest
//!   makes) keeps its labels and the new edge is a side edge.
//!
//! [`GroupRead::reach`] turns a context into the closed ranges it
//! reaches: the strict-descendant interval of each labeled context view,
//! merged, then closed over the side edges in a fixpoint of at most `k`
//! rounds for `k` side edges. A view therefore relates to itself only
//! through a cycle, as [`idm_core::graph::is_indirectly_related`] says.
//!
//! Labels are computed by [`GroupReplica::relabel`]: at load
//! ([`GroupReplica::import_edges`]), after a bulk ingest, and inside the
//! [`GroupReplica::index`] call that pushes the overlay and the grafts
//! past `max(1 024, labeled / 16)`. They are not persisted. A change
//! touches only the edges that differ and keeps the labels of everything
//! it does not detach: a labeled subtree whose tree edge goes (a move or
//! a removal) loses its labels and joins the overlay, so no interval
//! ever claims a view that left it.
//!
//! A query reads the replica through [`GroupReplica::read`]. The read
//! discipline:
//!
//! - a guard lives for one path step, never across steps or queries, so
//!   a writer ([`GroupReplica::index`] from ingest or sync) waits at most
//!   one step;
//! - nothing called while a guard is held takes the replica's lock
//!   again: the lock is std's `RwLock`, whose re-entrant read deadlocks
//!   once a writer queues between the two reads;
//! - budget checkpoints stay inside the step, once per chunk of it, so a
//!   deadline still ends it promptly.

use idm_core::prelude::Vid;
use parking_lot::{RwLock, RwLockReadGuard};

use crate::{dense_index, VidMap, VidSet};

/// No parent, no label, no position.
const NONE: u32 = u32::MAX;

/// One view's place in the spanning forest.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The tree parent's vid, or [`NONE`].
    parent: u32,
    /// DFS pre-order number, or [`NONE`] while the view is unlabeled.
    pre: u32,
    /// The last pre-order number in the view's subtree (with `pre`).
    post: u32,
}

const EMPTY: Slot = Slot {
    parent: NONE,
    pre: NONE,
    post: NONE,
};

/// The column index of `vid` in columns of `len` slots over a graph of
/// `count` views and edges, when the columns may reach it
/// ([`dense_index`], below [`NONE`]). A vid they may not is never
/// labeled, and every edge it ends is a side edge.
fn column(vid: Vid, len: usize, count: usize) -> Option<usize> {
    dense_index(vid, len, count).filter(|&index| index < NONE as usize)
}

/// The slot index of `vid` if its column reaches it.
fn slot_index(vid: Vid, slots: &[Slot]) -> Option<usize> {
    usize::try_from(vid.as_u64())
        .ok()
        .filter(|&index| index < slots.len())
}

fn vid(raw: u32) -> Vid {
    Vid::from_raw(u64::from(raw))
}

#[derive(Default)]
struct Inner {
    /// Each view's members, in group order, repeats included.
    forward: VidMap<Vec<Vid>>,
    edges: usize,
    /// Parent and label per vid.
    slots: Vec<Slot>,
    /// The vid at each pre-order position. A position whose view has
    /// since lost its label is a hole.
    order: Vec<u32>,
    /// Edges outside the forest, as `(target, source)`, sorted.
    side: Vec<(Vid, Vid)>,
    /// Unlabeled views that end an edge.
    overlay: VidSet,
    /// Views holding a label.
    labeled: usize,
    /// Labeled roots given a parent since the last relabel.
    grafts: usize,
}

impl Inner {
    fn slot(&self, vid: Vid) -> Slot {
        slot_index(vid, &self.slots).map_or(EMPTY, |i| self.slots[i])
    }

    /// [`column`] for this graph.
    fn column(&self, vid: Vid) -> Option<usize> {
        column(vid, self.slots.len(), self.forward.len() + self.edges)
    }

    /// Whether the columns may reach `vid`; if so they do from now on.
    fn fit(&mut self, vid: Vid) -> bool {
        let index = self.column(vid);
        if let Some(index) = index {
            grow(&mut self.slots, index);
        }
        index.is_some()
    }

    /// The sources of the side edges into `vid`.
    fn side_sources(&self, vid: Vid) -> impl Iterator<Item = Vid> + '_ {
        let start = self.side.partition_point(|&(target, _)| target < vid);
        self.side[start..]
            .iter()
            .take_while(move |&&(target, _)| target == vid)
            .map(|&(_, source)| source)
    }

    /// Whether `vid` ends any edge.
    fn in_graph(&self, vid: Vid) -> bool {
        self.slot(vid).parent != NONE
            || self.forward.contains_key(&vid)
            || self.side_sources(vid).next().is_some()
    }

    /// Puts an unlabeled `vid` in the overlay while it ends an edge and
    /// takes it out once it ends none.
    fn track(&mut self, vid: Vid) {
        if self.slot(vid).pre != NONE {
            return;
        }
        if self.in_graph(vid) {
            self.overlay.insert(vid);
        } else {
            self.overlay.remove(&vid);
        }
    }

    /// Whether the unlabeled `root` is `x` or a tree ancestor of it.
    fn above(&self, root: Vid, x: Vid) -> bool {
        let mut cur = x;
        loop {
            if cur == root {
                return true;
            }
            let slot = self.slot(cur);
            // Above a labeled view every view is labeled.
            if slot.pre != NONE || slot.parent == NONE {
                return false;
            }
            cur = vid(slot.parent);
        }
    }

    /// Takes the labels of `root`'s subtree: every labeled view in its
    /// interval is in its subtree and joins the overlay.
    fn unlabel_subtree(&mut self, root: Vid) {
        let slot = self.slot(root);
        if slot.pre == NONE {
            return;
        }
        for pos in slot.pre..=slot.post {
            let member = self.order[pos as usize];
            let entry = &mut self.slots[member as usize];
            if entry.pre == pos {
                entry.pre = NONE;
                self.labeled -= 1;
                self.track(vid(member));
            }
        }
    }

    /// Adds one edge: a tree edge when `child` is an unlabeled root
    /// outside `parent`'s ancestry, a side edge otherwise. A labeled root
    /// that gains a parent keeps its labels behind a side edge (a graft)
    /// until the next relabel folds it into the forest.
    fn add_edge(&mut self, parent: Vid, child: Vid) {
        let slot = self.slot(child);
        // Both ends get their slots, so a relabel reaches them too.
        let fits = self.fit(parent) & self.fit(child);
        match slot_index(child, &self.slots) {
            Some(index)
                if fits
                    && slot.parent == NONE
                    && slot.pre == NONE
                    && !self.above(child, parent) =>
            {
                self.slots[index].parent = parent.as_u64() as u32;
            }
            _ => {
                self.grafts += usize::from(slot.parent == NONE && slot.pre != NONE);
                let at = self.side.partition_point(|&edge| edge < (child, parent));
                self.side.insert(at, (child, parent));
            }
        }
    }

    fn remove_edge(&mut self, parent: Vid, child: Vid) {
        if let Ok(at) = self.side.binary_search(&(child, parent)) {
            self.side.remove(at);
            return;
        }
        // Not a side edge, so the tree edge: detach the subtree.
        debug_assert_eq!(self.slot(child).parent, parent.as_u64() as u32);
        self.unlabel_subtree(child);
        if let Some(index) = slot_index(child, &self.slots) {
            self.slots[index].parent = NONE;
        }
    }

    /// Replaces `parent`'s members, touching only the edges that change.
    fn set_members(&mut self, parent: Vid, members: &[Vid]) {
        let old = self.forward.remove(&parent).unwrap_or_default();
        if old.as_slice() != members {
            let (mut gone, mut new) = (old.clone(), members.to_vec());
            gone.sort_unstable();
            new.sort_unstable();
            let (gone, new) = multiset_difference(&gone, &new);
            for &child in &gone {
                self.remove_edge(parent, child);
            }
            for &child in &new {
                self.add_edge(parent, child);
            }
            self.edges = self.edges + members.len() - old.len();
            if !members.is_empty() {
                self.forward.insert(parent, members.to_vec());
            }
            for &child in gone.iter().chain(&new) {
                self.track(child);
            }
        } else if !old.is_empty() {
            self.forward.insert(parent, old);
        }
        self.track(parent);
    }

    /// Labels every view: a DFS from each view without in-edges, in vid
    /// order, then from each view left unvisited (those only cycles or
    /// views outside the columns reach). Members are followed in group
    /// order; an edge to a view already visited is a side edge. The
    /// result depends on the edges alone, never on the order they
    /// arrived in. The columns keep their length and admit a vid as
    /// [`Inner::add_edge`] does.
    fn relabel(&mut self) {
        let Inner {
            forward,
            edges,
            slots,
            order,
            side,
            overlay,
            labeled,
            grafts,
            ..
        } = self;
        *grafts = 0;
        let len = slots.len();
        slots.clear();
        slots.resize(len, EMPTY);
        order.clear();
        side.clear();
        overlay.clear();
        // While unlabeled, `post` marks a view with an in-edge.
        const HAS_IN_EDGE: u32 = 0;
        // Each view's members by vid, so the DFS hashes nothing. The
        // bound is fixed before the columns grow, so the labels do not
        // depend on the order `forward` is walked in.
        let count = forward.len() + *edges;
        let column = |vid| column(vid, len, count);
        let mut lists: Vec<&[Vid]> = Vec::new();
        for (&parent, members) in forward.iter() {
            match column(parent) {
                Some(index) => {
                    grow(slots, index);
                    if index >= lists.len() {
                        lists.resize(index + 1, &[]);
                    }
                    lists[index] = members;
                }
                // No DFS starts here: its members are side edges, and
                // the in-edge mark below has the second pass label them.
                None => {
                    side.extend(members.iter().map(|&child| (child, parent)));
                    overlay.insert(parent);
                }
            }
            for &child in members {
                match column(child) {
                    Some(index) => grow(slots, index).post = HAS_IN_EDGE,
                    None => {
                        overlay.insert(child);
                    }
                }
            }
        }
        lists.resize(slots.len(), &[]);
        let mut stack = Vec::new();
        for root in 0..slots.len() {
            if slots[root].post == NONE && !lists[root].is_empty() {
                dfs(root as u32, &lists, slots, order, side, &mut stack);
            }
        }
        for root in 0..slots.len() {
            if slots[root].pre == NONE && slots[root].post == HAS_IN_EDGE {
                dfs(root as u32, &lists, slots, order, side, &mut stack);
            }
        }
        side.sort_unstable();
        *labeled = order.len();
    }

    /// Whether the overlay (and the grafts beside it) has outgrown the
    /// labels: more than `max(1 024, labeled / 16)` views.
    fn needs_relabel(&self) -> bool {
        self.overlay.len() + self.grafts > (self.labeled / 16).max(1024)
    }
}

/// The slot at `index`, growing the column to reach it.
fn grow(slots: &mut Vec<Slot>, index: usize) -> &mut Slot {
    if index >= slots.len() {
        slots.resize(index + 1, EMPTY);
    }
    &mut slots[index]
}

/// Labels the unvisited views `root` reaches by tree edges in DFS
/// pre-order; every edge to a view already visited is a side edge.
fn dfs<'f>(
    root: u32,
    lists: &[&'f [Vid]],
    slots: &mut [Slot],
    order: &mut Vec<u32>,
    side: &mut Vec<(Vid, Vid)>,
    stack: &mut Vec<(u32, &'f [Vid])>,
) {
    slots[root as usize].pre = order.len() as u32;
    order.push(root);
    stack.push((root, lists[root as usize]));
    while let Some((parent, rest)) = stack.last_mut() {
        let parent = *parent;
        let Some((&child, tail)) = rest.split_first() else {
            slots[parent as usize].post = order.len() as u32 - 1;
            stack.pop();
            continue;
        };
        *rest = tail;
        // Every child that fits the columns has its slot.
        match slot_index(child, slots) {
            Some(index) if slots[index].pre == NONE => {
                slots[index] = Slot {
                    parent,
                    pre: order.len() as u32,
                    post: NONE,
                };
                order.push(index as u32);
                stack.push((index as u32, lists[index]));
            }
            _ => side.push((child, vid(parent))),
        }
    }
}

/// `a − b` and `b − a` of two sorted multisets.
fn multiset_difference(a: &[Vid], b: &[Vid]) -> (Vec<Vid>, Vec<Vid>) {
    let (mut only_a, mut only_b) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                only_a.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                only_b.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    only_a.extend_from_slice(&a[i..]);
    only_b.extend_from_slice(&b[j..]);
    (only_a, only_b)
}

/// A read guard over the replica ([`GroupReplica::read`]). Hold one for
/// one path step and take no other replica lock while it lives (see the
/// module doc).
pub struct GroupRead<'a> {
    inner: RwLockReadGuard<'a, Inner>,
}

impl GroupRead<'_> {
    /// The directly related views of `vid` (out-edges), in group order.
    pub fn children(&self, vid: Vid) -> &[Vid] {
        self.inner.forward.get(&vid).map_or(&[], Vec::as_slice)
    }

    /// The views `vid` is directly related *from* (one per in-edge): the
    /// tree parent first, then the side edges' sources in vid order.
    pub fn parents(&self, vid: Vid) -> Vec<Vid> {
        self.in_edges(vid).collect()
    }

    /// Whether an in-edge of `vid` comes from the sorted `context`.
    pub fn has_parent_in(&self, vid: Vid, context: &[Vid]) -> bool {
        self.in_edges(vid)
            .any(|parent| context.binary_search(&parent).is_ok())
    }

    fn in_edges(&self, vid: Vid) -> impl Iterator<Item = Vid> + '_ {
        let parent = self.inner.slot(vid).parent;
        (parent != NONE)
            .then(|| self::vid(parent))
            .into_iter()
            .chain(self.inner.side_sources(vid))
    }

    /// What `context` (sorted) reaches over one or more edges, closed
    /// over the side edges.
    pub fn reach<'g>(&'g self, context: &'g [Vid]) -> Reach<'g> {
        debug_assert!(context.is_sorted(), "the context is sorted");
        let inner = &*self.inner;
        let mut reach = Reach {
            inner,
            context,
            ranges: Vec::with_capacity(context.len()),
            targets: Vec::new(),
            walked: 0,
        };
        for &view in context {
            let slot = inner.slot(view);
            if slot.pre != NONE && slot.post > slot.pre {
                reach.ranges.push((slot.pre + 1, slot.post));
            }
        }
        reach.ranges.sort_unstable();
        reach.ranges.dedup_by(|next, kept| {
            let overlaps = next.0 <= kept.1.saturating_add(1);
            if overlaps {
                kept.1 = kept.1.max(next.1);
            }
            overlaps
        });
        // Each round fires at least one more side edge, or ends.
        let mut fired = vec![false; inner.side.len()];
        loop {
            let mut grew = false;
            for (i, &(target, source)) in inner.side.iter().enumerate() {
                if fired[i] {
                    continue;
                }
                let mut walked = 0;
                let from =
                    context.binary_search(&source).is_ok() || reach.contains(source, &mut walked);
                reach.walked += walked;
                if from {
                    fired[i] = true;
                    grew = true;
                    reach.add(target);
                }
            }
            if !grew {
                return reach;
            }
        }
    }
}

/// The closed set of views a context reaches ([`GroupRead::reach`]):
/// merged pre-order ranges for the labeled ones, and for the overlay the
/// context and the unlabeled side-edge targets a parent walk may meet.
pub struct Reach<'g> {
    inner: &'g Inner,
    context: &'g [Vid],
    /// Disjoint closed pre-order ranges, sorted.
    ranges: Vec<(u32, u32)>,
    /// Unlabeled views reached through a side edge, sorted.
    targets: Vec<Vid>,
    walked: usize,
}

impl Reach<'_> {
    /// Adds `target` and its subtree.
    fn add(&mut self, target: Vid) {
        let slot = self.inner.slot(target);
        if slot.pre == NONE {
            if let Err(at) = self.targets.binary_search(&target) {
                self.targets.insert(at, target);
            }
            return;
        }
        let (mut lo, mut hi) = (slot.pre, slot.post);
        let start = self
            .ranges
            .partition_point(|&(_, end)| end.saturating_add(1) < lo);
        let mut end = start;
        while end < self.ranges.len() && self.ranges[end].0 <= hi.saturating_add(1) {
            lo = lo.min(self.ranges[end].0);
            hi = hi.max(self.ranges[end].1);
            end += 1;
        }
        self.ranges.splice(start..end, [(lo, hi)]);
    }

    fn covers(&self, pre: u32) -> bool {
        let at = self.ranges.partition_point(|&(lo, _)| lo <= pre);
        at > 0 && self.ranges[at - 1].1 >= pre
    }

    /// Whether `vid` is reached. An unlabeled view walks its parent
    /// column up to the first labeled ancestor, adding one to `walked`
    /// per edge.
    pub fn contains(&self, vid: Vid, walked: &mut usize) -> bool {
        let slot = self.inner.slot(vid);
        if slot.pre != NONE {
            return self.covers(slot.pre);
        }
        if self.targets.binary_search(&vid).is_ok() {
            return true;
        }
        let mut parent = slot.parent;
        while parent != NONE {
            *walked += 1;
            let above = self::vid(parent);
            if self.context.binary_search(&above).is_ok() {
                return true;
            }
            let slot = self.inner.slot(above);
            if slot.pre != NONE {
                return self.covers(slot.pre);
            }
            if self.targets.binary_search(&above).is_ok() {
                return true;
            }
            parent = slot.parent;
        }
        false
    }

    /// The reached pre-order ranges, disjoint and sorted.
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }

    /// The labeled views at the positions of `range`, one item per
    /// position (`None` for a hole left by a view that lost its label).
    pub fn positions(&self, (lo, hi): (u32, u32)) -> impl Iterator<Item = Option<Vid>> + '_ {
        self.inner.order[lo as usize..=hi as usize]
            .iter()
            .enumerate()
            .map(move |(offset, &raw)| {
                (self.inner.slots[raw as usize].pre == lo + offset as u32).then(|| vid(raw))
            })
    }

    /// The unlabeled views, each to be decided by [`Reach::contains`].
    pub fn overlay(&self) -> impl Iterator<Item = Vid> + '_ {
        self.inner.overlay.iter().copied()
    }

    /// Positions plus overlay views: what enumerating the reached views
    /// visits, exactly.
    pub fn size(&self) -> usize {
        let positions: usize = self
            .ranges
            .iter()
            .map(|&(lo, hi)| (hi - lo) as usize + 1)
            .sum();
        positions + self.inner.overlay.len()
    }

    /// Overlay edges walked while closing the ranges over side edges.
    pub fn walked(&self) -> usize {
        self.walked
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
    /// that view). Relabels everything when the change pushes the
    /// overlay past `max(1 024, labeled / 16)` views.
    pub fn index(&self, parent: Vid, members: &[Vid]) {
        let mut inner = self.inner.write();
        inner.set_members(parent, members);
        if inner.needs_relabel() {
            inner.relabel();
        }
    }

    /// Removes a view entirely (as parent; in-edges pointing at it are
    /// kept — the dataspace tolerates dangling references).
    pub fn remove(&self, vid: Vid) {
        self.index(vid, &[]);
    }

    /// Labels every view now and empties the overlay.
    pub fn relabel(&self) {
        self.inner.write().relabel();
    }

    /// Lets the columns reach every vid below `next`, the store's next
    /// vid. A view that waited outside them (a loaded file's vid behind
    /// a gap) stays in the overlay until the next relabel labels it; one
    /// runs now if the overlay is past its limit.
    pub fn reserve_vids(&self, next: u64) {
        let mut inner = self.inner.write();
        let len = usize::try_from(next).map_or(NONE as usize, |len| len.min(NONE as usize));
        if len > inner.slots.len() {
            inner.slots.resize(len, EMPTY);
            if inner.needs_relabel() {
                inner.relabel();
            }
        }
    }

    /// A read guard that lends member lists and computes reach.
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
        self.read().parents(vid)
    }

    /// All views indirectly related to `root`, each once: the labeled
    /// ones in pre-order, then the overlay's. `root` is among them only
    /// when it lies on a cycle (matching `idm_core::graph::descendants`).
    pub fn descendants(&self, root: Vid) -> Vec<Vid> {
        let group = self.read();
        let context = [root];
        let reach = group.reach(&context);
        let mut out: Vec<Vid> = Vec::new();
        for &range in reach.ranges() {
            out.extend(reach.positions(range).flatten());
        }
        out.extend(reach.overlay().filter(|&view| reach.contains(view, &mut 0)));
        out
    }

    /// All views from which `leaf` is indirectly reachable: a walk up
    /// the parent column and the side edges.
    pub fn ancestors(&self, leaf: Vid) -> Vec<Vid> {
        let group = self.read();
        let mut seen = VidSet::default();
        let mut out = Vec::new();
        let mut next = 0;
        let mut at = leaf;
        loop {
            for parent in group.parents(at) {
                if seen.insert(parent) {
                    out.push(parent);
                }
            }
            let Some(&up) = out.get(next) else {
                return out;
            };
            next += 1;
            at = up;
        }
    }

    /// Whether `target` is indirectly related to `source`
    /// (`source →* target`).
    pub fn reaches(&self, source: Vid, target: Vid) -> bool {
        let group = self.read();
        let context = [source];
        group.reach(&context).contains(target, &mut 0)
    }

    /// Exports the forward adjacency for persistence (the forest, labels
    /// and side edges are derived on import).
    pub fn export_edges(&self) -> Vec<(u64, Vec<u64>)> {
        self.with_edges(|_, edges| {
            edges
                .map(|(parent, children)| (parent, children.iter().map(|c| c.as_u64()).collect()))
                .collect()
        })
    }

    /// Calls `f` with the parent count and every parent with its
    /// members, parent-ascending, under the read lock: what
    /// [`persist`](crate::persist) encodes. Only the parents are
    /// copied, to sort them.
    pub(crate) fn with_edges<R>(
        &self,
        f: impl FnOnce(usize, &mut dyn Iterator<Item = (u64, &[Vid])>) -> R,
    ) -> R {
        let inner = self.inner.read();
        let mut parents: Vec<Vid> = inner.forward.keys().copied().collect();
        parents.sort_unstable();
        let mut edges = parents
            .iter()
            .map(|parent| (parent.as_u64(), inner.forward[parent].as_slice()));
        f(parents.len(), &mut edges)
    }

    /// Rebuilds the replica from exported edges and labels it.
    pub fn import_edges(&self, edges: Vec<(u64, Vec<u64>)>) {
        let mut inner = self.inner.write();
        *inner = Inner::default();
        for (parent, children) in edges {
            if !children.is_empty() {
                inner.edges += children.len();
                let children = children.into_iter().map(Vid::from_raw).collect();
                inner.forward.insert(Vid::from_raw(parent), children);
            }
        }
        inner.relabel();
    }

    /// Number of replicated edges.
    pub fn edge_count(&self) -> usize {
        self.inner.read().edges
    }

    /// Serialized replica size in bytes: per view a varint header plus
    /// delta-varint member lists, in both directions (the paper's
    /// replica is an adjacency list each way).
    pub fn footprint_bytes(&self) -> usize {
        fn varint(v: u64) -> usize {
            (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
        }
        /// `(view, neighbour)` pairs sorted by view, then neighbour.
        fn side(pairs: &[(u64, u64)]) -> usize {
            pairs
                .chunk_by(|a, b| a.0 == b.0)
                .map(|run| {
                    let mut bytes = varint(run[0].0) + varint(run.len() as u64);
                    let mut prev = 0u64;
                    for &(_, m) in run {
                        bytes += varint(m.wrapping_sub(prev));
                        prev = m;
                    }
                    bytes
                })
                .sum()
        }
        let inner = self.inner.read();
        let mut out_edges: Vec<(u64, u64)> = Vec::with_capacity(inner.edges);
        for (parent, members) in &inner.forward {
            out_edges.extend(members.iter().map(|m| (parent.as_u64(), m.as_u64())));
        }
        let mut in_edges: Vec<(u64, u64)> = out_edges.iter().map(|&(p, c)| (c, p)).collect();
        out_edges.sort_unstable();
        in_edges.sort_unstable();
        side(&out_edges) + side(&in_edges)
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

    /// Views attached or moved since the last relabel.
    fn overlay_len(replica: &GroupReplica) -> usize {
        replica.inner.read().overlay.len()
    }

    fn sorted(mut vids: Vec<Vid>) -> Vec<Vid> {
        vids.sort();
        vids
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
        for labeled in [false, true] {
            if labeled {
                replica.relabel();
                assert_eq!(overlay_len(&replica), 0);
            }
            let d = sorted(replica.descendants(vid(1)));
            assert_eq!(d, vec![vid(2), vid(3), vid(4)]);
            let a = sorted(replica.ancestors(vid(4)));
            assert_eq!(a, vec![vid(1), vid(2), vid(3)]);
        }
    }

    #[test]
    fn reaches_with_cycles() {
        let replica = GroupReplica::new();
        replica.index(vid(1), &[vid(2)]);
        replica.index(vid(2), &[vid(3)]);
        replica.index(vid(3), &[vid(1)]); // cycle
        for _ in 0..2 {
            assert!(replica.reaches(vid(1), vid(3)));
            assert!(replica.reaches(vid(3), vid(2)));
            assert!(!replica.reaches(vid(1), vid(99)));
            // Self-reachability through the cycle.
            assert!(replica.reaches(vid(1), vid(1)));
            assert_eq!(replica.descendants(vid(1)).len(), 3);
            replica.relabel();
        }
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
        // Views that end no edge leave the overlay.
        assert_eq!(overlay_len(&churned), 2);
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

    #[test]
    fn a_moved_subtree_leaves_its_old_interval() {
        // 1 → 2 → 3 and 4, labeled; then 3 moves under 4.
        let replica = GroupReplica::new();
        replica.index(vid(2), &[vid(3)]);
        replica.index(vid(1), &[vid(2)]);
        replica.index(vid(4), &[vid(5)]);
        replica.relabel();
        replica.index(vid(2), &[]);
        replica.index(vid(4), &[vid(5), vid(3)]);
        assert_eq!(sorted(replica.descendants(vid(1))), vec![vid(2)]);
        assert_eq!(sorted(replica.descendants(vid(4))), vec![vid(3), vid(5)]);
        assert!(replica.reaches(vid(4), vid(3)));
        assert!(!replica.reaches(vid(1), vid(3)));
        assert_eq!(overlay_len(&replica), 1, "only the moved view");
    }

    #[test]
    fn a_labeled_root_keeps_its_labels_under_a_new_parent() {
        let replica = GroupReplica::new();
        replica.index(vid(2), &[vid(3)]);
        replica.relabel();
        replica.index(vid(1), &[vid(2)]);
        assert_eq!(overlay_len(&replica), 1, "only the new parent");
        assert_eq!(sorted(replica.descendants(vid(1))), vec![vid(2), vid(3)]);
        assert_eq!(replica.ancestors(vid(3)), vec![vid(2), vid(1)]);
        replica.index(vid(1), &[]);
        assert!(!replica.reaches(vid(1), vid(3)));
        assert_eq!(replica.descendants(vid(2)), vec![vid(3)]);
    }

    #[test]
    fn the_overlay_relabels_past_its_limit() {
        let replica = GroupReplica::new();
        for child in 1..=1023 {
            replica.index(vid(0), &(1..=child).map(vid).collect::<Vec<_>>());
        }
        assert_eq!(overlay_len(&replica), 1024);
        replica.index(vid(2000), &[vid(0)]);
        assert_eq!(overlay_len(&replica), 0, "the call past the limit relabels");
        assert_eq!(replica.descendants(vid(2000)).len(), 1024);
        // Re-indexing unchanged members keeps every label.
        replica.index(vid(0), &replica.children(vid(0)));
        assert_eq!(overlay_len(&replica), 0);
    }

    /// Far more vids handed out than live: a relabel labels every view,
    /// and a load that leaves the newest outside the columns labels them
    /// at the first relabel after it is told the store's next vid.
    #[test]
    fn churned_vids_are_labeled() {
        const LIVE: u64 = 10;
        const NEXT: u64 = 3 << 16;
        let replica = GroupReplica::new();
        for last in 1..NEXT {
            let members: Vec<Vid> = (last.saturating_sub(LIVE - 1).max(1)..=last)
                .map(vid)
                .collect();
            replica.index(vid(0), &members);
        }
        let live: Vec<Vid> = (NEXT - LIVE..NEXT).map(vid).collect();
        replica.relabel();
        assert_eq!(overlay_len(&replica), 0);
        assert_eq!(replica.inner.read().labeled, LIVE as usize + 1);
        assert_eq!(replica.descendants(vid(0)), live);

        let loaded = GroupReplica::new();
        loaded.import_edges(replica.export_edges());
        loaded.relabel();
        assert_eq!(overlay_len(&loaded), LIVE as usize);
        loaded.reserve_vids(NEXT);
        loaded.relabel();
        assert_eq!(overlay_len(&loaded), 0);
        assert_eq!(loaded.descendants(vid(0)), live);
        assert_eq!(loaded.parents(vid(NEXT - 1)), vec![vid(0)]);
    }

    /// A view outside the columns is never labeled, but every member of
    /// it is reached, and enumerated, like any other.
    #[test]
    fn members_of_a_view_outside_the_columns_are_reached() {
        let far = 1u64 << 40;
        let replica = GroupReplica::new();
        replica.import_edges(vec![(1, vec![2]), (far, vec![3, 1, far + 1])]);
        for _ in 0..2 {
            let want = vec![vid(1), vid(2), vid(3), vid(far + 1)];
            assert_eq!(sorted(replica.descendants(vid(far))), want);
            assert_eq!(replica.parents(vid(3)), vec![vid(far)]);
            assert!(replica.reaches(vid(far), vid(far + 1)));
            assert!(!replica.reaches(vid(3), vid(1)));
            replica.index(vid(4), &[vid(3)]);
            replica.index(vid(4), &[]);
        }
    }

    #[test]
    fn repeated_members_and_self_loops_are_side_edges() {
        let replica = GroupReplica::new();
        replica.index(vid(1), &[vid(2), vid(2), vid(1)]);
        for _ in 0..2 {
            assert_eq!(replica.parents(vid(2)), vec![vid(1), vid(1)]);
            assert_eq!(sorted(replica.descendants(vid(1))), vec![vid(1), vid(2)]);
            assert!(!replica.reaches(vid(2), vid(1)));
            replica.relabel();
        }
        replica.index(vid(1), &[vid(2)]);
        assert_eq!(replica.parents(vid(2)), vec![vid(1)]);
        assert_eq!(replica.descendants(vid(1)), vec![vid(2)]);
    }
}
