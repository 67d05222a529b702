//! The resource view store: the physical home of a resource view graph.
//!
//! Views are identified by [`Vid`]s; group components reference other views
//! by `Vid`, which lets the store represent arbitrary directed graphs —
//! trees, DAGs and cyclic graphs (`Projects → PIM → All Projects →
//! Projects` in Figure 1) — without reference-counting cycles.
//!
//! The store realizes the paper's lazy-computation contract (Section 4.1):
//! every component getter may trigger on-demand computation, and a view's
//! record hides *how, when and where* its components are produced. The
//! store also publishes every committed change record, so push-based
//! stream operators (Section 4.4.2) can subscribe to component updates.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use crate::class::{ClassId, ClassRegistry};
use crate::content::Content;
use crate::durability::record::{ChangeRecord, SerialContent, SerialGroup, SerialView};
use crate::durability::wal::{BulkWalScope, WalStats, WalWriter};
use crate::error::{IdmError, Result};
use crate::group::{Group, GroupData, LazyGroup, ViewSequenceSource};
use crate::value::TupleComponent;

/// Identifier of a resource view within one [`ViewStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Vid(u64);

impl Vid {
    /// Sentinel used internally where no view is applicable.
    pub(crate) const INVALID: Vid = Vid(u64::MAX);

    /// Constructs a Vid from a raw index (tests and serialization only).
    pub fn from_raw(raw: u64) -> Self {
        Vid(raw)
    }

    /// The raw index.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Vid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The four components of one resource view `V = (η, τ, χ, γ)` plus its
/// optional resource view class and, for a derived view, its owner.
#[derive(Debug, Clone)]
pub struct ViewRecord {
    /// The name component `η` (`None` = empty).
    pub name: Option<String>,
    /// The tuple component `τ` (`None` = empty).
    pub tuple: Option<TupleComponent>,
    /// The content component `χ`.
    pub content: Content,
    /// The group component `γ`.
    pub group: Group,
    /// The resource view class this view claims, if any.
    pub class: Option<ClassId>,
    /// See [`ViewRecord::owner`]; `Vid::INVALID` for a base view, so
    /// the column costs one word per view.
    pub(crate) owner: Vid,
}

impl ViewRecord {
    /// The base view this view was derived from — the file whose
    /// conversion minted it, or the message an attachment came with
    /// (which also owns what the attachment converts to) — or `None`
    /// for a base view. Ownership is inclusion, not reachability: a
    /// group edge may point anywhere, but a view has at most one owner,
    /// and an owner is a base view.
    pub fn owner(&self) -> Option<Vid> {
        (self.owner != Vid::INVALID).then_some(self.owner)
    }
}

impl Default for ViewRecord {
    fn default() -> Self {
        ViewRecord {
            name: None,
            tuple: None,
            content: Content::default(),
            group: Group::default(),
            class: None,
            owner: Vid::INVALID,
        }
    }
}

/// Snapshot of a group component as seen by a reader.
#[derive(Clone)]
pub enum GroupSnapshot {
    /// A finite group (possibly empty), fully materialized.
    Finite(Arc<GroupData>),
    /// An infinite sequence; pull elements via the source.
    Infinite(Arc<dyn ViewSequenceSource>),
}

impl GroupSnapshot {
    /// The finite members, or an error for infinite groups.
    pub fn finite(&self) -> Result<&GroupData> {
        match self {
            GroupSnapshot::Finite(data) => Ok(data),
            GroupSnapshot::Infinite(_) => Err(IdmError::InfiniteComponent {
                detail: "group component is an infinite sequence".into(),
            }),
        }
    }

    /// The finite members as a vector; empty for infinite groups.
    /// Use when traversals should simply skip stream tails.
    pub fn finite_members(&self) -> Vec<Vid> {
        match self {
            GroupSnapshot::Finite(data) => data.members().collect(),
            GroupSnapshot::Infinite(_) => Vec::new(),
        }
    }

    /// Whether the group is infinite.
    pub fn is_infinite(&self) -> bool {
        matches!(self, GroupSnapshot::Infinite(_))
    }
}

static EMPTY_GROUP: LazyLock<Arc<GroupData>> = LazyLock::new(|| Arc::new(GroupData::default()));

/// One stored record plus its mutation version. The version starts at 0 on
/// insert and increments on every in-place mutation, letting caches validate
/// entries keyed by `(Vid, version)` without holding store locks.
struct Slot {
    record: ViewRecord,
    version: u64,
}

/// The resource view store.
///
/// One lock guards one slot column: the view with id `v` lives at slot
/// `v`. Ids are handed out by a single atomic counter, so `Vid` order is
/// insertion order and slot order.
pub struct ViewStore {
    slots: RwLock<Vec<Option<Slot>>>,
    next_vid: AtomicU64,
    classes: Arc<ClassRegistry>,
    /// Subscribers to the change feed ([`ViewStore::subscribe_records`]);
    /// the flag keeps the fan-out free for stores nobody watches.
    record_subscribers: Mutex<Vec<Sender<ChangeRecord>>>,
    record_fanout: AtomicBool,
    /// Committed mutations since construction ([`ViewStore::change_count`]).
    changes: AtomicU64,
    /// Occupied slots ([`ViewStore::len`]). Moved under the write lock
    /// that fills or empties the slot; a count that publishes no other
    /// data, so `Relaxed` throughout.
    live: AtomicUsize,
    /// The attached write-ahead log, if this store is durable.
    /// [`ViewStore::commit`] appends under the store's write lock, so
    /// WAL order is commit order.
    wal: RwLock<Option<Arc<WalWriter>>>,
    /// Owner → the live views it owns, in mint order
    /// ([`ViewStore::owned`]). Changed only under the `slots` write
    /// lock, so it always agrees with the owner column.
    owned: Mutex<HashMap<Vid, Vec<Vid>>>,
}

impl ViewStore {
    /// A store with the built-in class registry (Table 1 classes).
    pub fn new() -> Self {
        ViewStore::with_registry(Arc::new(ClassRegistry::with_builtins()))
    }

    /// A store with a caller-provided class registry.
    pub fn with_registry(classes: Arc<ClassRegistry>) -> Self {
        ViewStore {
            slots: RwLock::new(Vec::new()),
            next_vid: AtomicU64::new(0),
            classes,
            record_subscribers: Mutex::new(Vec::new()),
            record_fanout: AtomicBool::new(false),
            changes: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            wal: RwLock::new(None),
            owned: Mutex::new(HashMap::new()),
        }
    }

    /// Attaches a WAL writer: every mutation from now on is logged.
    pub(crate) fn set_wal(&self, wal: Arc<WalWriter>) {
        *self.wal.write() = Some(wal);
    }

    /// Detaches the WAL writer (e.g. after a failed attach).
    pub(crate) fn clear_wal(&self) {
        *self.wal.write() = None;
    }

    /// Whether mutations are currently being logged.
    pub fn wal_armed(&self) -> bool {
        self.wal.read().is_some()
    }

    /// The one commit point of every mutation. The caller holds the
    /// `slots` write lock and has applied the change; `records` are its
    /// change records (a mutator builds them only when
    /// [`ViewStore::records_wanted`] says so) and `counted` the
    /// mutations they commit. Under that lock it appends `records` to
    /// the attached WAL as one write group (one buffered write, one
    /// covering sync), bumps [`ViewStore::change_count`] and sends each
    /// record to the change feed, so the feed's order is the log's.
    ///
    /// Append errors are not surfaced here — the writer goes
    /// sticky-dead and the next checkpoint (or explicit health check)
    /// reports the failure; the in-memory mutation has already
    /// committed either way.
    fn commit(&self, records: &[ChangeRecord], counted: u64) {
        if let Some(wal) = self.wal.read().as_ref() {
            let _ = wal.append(records);
        }
        self.changes.fetch_add(counted, Ordering::Release);
        if !self.record_fanout.load(Ordering::Acquire) {
            return;
        }
        let mut subs = self.record_subscribers.lock();
        for record in records {
            subs.retain(|tx| tx.send(record.clone()).is_ok());
        }
        if subs.is_empty() {
            // Every receiver is gone; stop building records on the next
            // mutation (a later subscribe_records re-arms the flag).
            self.record_fanout.store(false, Ordering::Release);
        }
    }

    /// Whether a mutation must build its [`ChangeRecord`]: a WAL is
    /// armed or the change feed has a subscriber. Mutators ask under
    /// the `slots` write lock, so a WAL armed by a freeze
    /// ([`ViewStore::frozen_export`]) logs every change the frozen
    /// image lacks.
    fn records_wanted(&self) -> bool {
        self.wal_armed() || self.record_fanout.load(Ordering::Acquire)
    }

    /// Opens a bulk-ingest WAL window for the calling thread: while the
    /// returned scope is alive, that thread's appends defer their
    /// covering sync to batch boundaries and to [`BulkWalScope::finish`]
    /// (other threads' appends stay synced). Returns `None` when the
    /// store is not durable (nothing to defer).
    pub fn wal_bulk_scope(&self) -> Option<BulkWalScope> {
        self.wal.read().as_ref().map(|wal| wal.begin_bulk())
    }

    /// Write-path telemetry of the attached WAL (frames, groups, syncs);
    /// `None` when the store is not durable.
    pub fn wal_telemetry(&self) -> Option<WalStats> {
        self.wal.read().as_ref().map(|wal| wal.stats())
    }

    /// The class registry.
    pub fn classes(&self) -> &Arc<ClassRegistry> {
        &self.classes
    }

    /// Number of live views: one counter read, no lock. Exact
    /// whenever no writer is mid-commit; [`ViewStore::verify_invariants`]
    /// checks it against the slots.
    pub fn len(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Whether the store holds no views.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All live view ids, in insertion order.
    pub fn vids(&self) -> Vec<Vid> {
        self.slots
            .read()
            .iter()
            .enumerate()
            .filter(|(_, entry)| entry.is_some())
            .map(|(v, _)| Vid(v as u64))
            .collect()
    }

    /// Whether a view exists.
    pub fn contains(&self, vid: Vid) -> bool {
        self.slots
            .read()
            .get(vid.0 as usize)
            .is_some_and(Option::is_some)
    }

    /// Inserts a view record, returning its new id.
    pub fn insert(&self, record: ViewRecord) -> Vid {
        let vid = Vid(self.next_vid.fetch_add(1, Ordering::Relaxed));
        let mut slots = self.slots.write();
        let rec = self.records_wanted().then(|| ChangeRecord::Insert {
            vid: vid.0,
            view: SerialView::of(&record, &self.classes),
        });
        self.fill(&mut slots, vid, Slot { record, version: 0 });
        self.commit(rec.as_slice(), 1);
        vid
    }

    /// Inserts a batch of view records under one write-lock acquisition
    /// and one WAL write group for the whole batch. Vids are handed out
    /// contiguously by the same monotone counter as [`ViewStore::insert`],
    /// so numeric order is still insertion order and a bulk load produces
    /// the same store image as the equivalent sequence of single inserts.
    /// The batch commits atomically with respect to snapshots
    /// ([`ViewStore::frozen_export`] reads under the same lock).
    pub fn insert_batch(&self, records: Vec<ViewRecord>) -> Vec<Vid> {
        if records.is_empty() {
            return Vec::new();
        }
        let n = records.len() as u64;
        let base = self.next_vid.fetch_add(n, Ordering::Relaxed);
        let vids: Vec<Vid> = (base..base + n).map(Vid).collect();
        let mut slots = self.slots.write();
        let wanted = self.records_wanted();
        let mut recs = Vec::with_capacity(if wanted { records.len() } else { 0 });
        for (vid, record) in vids.iter().zip(records) {
            if wanted {
                recs.push(ChangeRecord::Insert {
                    vid: vid.0,
                    view: SerialView::of(&record, &self.classes),
                });
            }
            self.fill(&mut slots, *vid, Slot { record, version: 0 });
        }
        self.commit(&recs, n);
        vids
    }

    /// Re-inserts a view at an explicit id during recovery: no commit
    /// (nothing logged, counted or published), version restored as
    /// given. The vid allocator is advanced past `vid` so future inserts
    /// never collide.
    pub(crate) fn restore_insert(&self, vid: Vid, record: ViewRecord, version: u64) -> Result<()> {
        self.next_vid.fetch_max(vid.0 + 1, Ordering::Relaxed);
        let mut slots = self.slots.write();
        if slots.get(vid.0 as usize).is_some_and(Option::is_some) {
            return Err(IdmError::Parse {
                detail: format!("duplicate {vid} during recovery"),
            });
        }
        self.fill(&mut slots, vid, Slot { record, version });
        Ok(())
    }

    /// Puts `slot` at `vid`'s position, growing the column as needed,
    /// and counts it live and under its owner. The caller holds the
    /// `slots` write lock.
    fn fill(&self, slots: &mut Vec<Option<Slot>>, vid: Vid, slot: Slot) {
        if let Some(owner) = slot.record.owner() {
            self.owned.lock().entry(owner).or_default().push(vid);
        }
        let at = vid.0 as usize;
        if slots.len() <= at {
            slots.resize_with(at + 1, || None);
        }
        slots[at] = Some(slot);
        self.live.fetch_add(1, Ordering::Relaxed);
    }

    /// The vid the next insert gets: one past every vid handed out so
    /// far.
    pub fn next_vid(&self) -> u64 {
        self.next_vid.load(Ordering::Relaxed)
    }

    /// Advances the vid allocator to at least `next` (recovery: a
    /// snapshot's allocator may sit past the highest live vid when views
    /// were removed — their ids must never be reused).
    pub(crate) fn force_next_vid(&self, next: u64) {
        self.next_vid.fetch_max(next, Ordering::Relaxed);
    }

    /// Recovery application of a [`ChangeRecord::GroupForced`] record:
    /// upgrades the stored group handle to the materialized members
    /// without a version bump (forcing is a read, not a mutation).
    pub(crate) fn apply_group_forced(&self, vid: Vid, data: GroupData) -> Result<()> {
        let mut slots = self.slots.write();
        let slot = occupied(&mut slots, vid)?;
        slot.record.group = Group::Materialized(Arc::new(data));
        Ok(())
    }

    /// Starts a builder for ergonomic view construction.
    pub fn build(&self, name: impl Into<String>) -> ViewBuilder<'_> {
        ViewBuilder::named(self, name)
    }

    /// Starts a builder for a view with an empty name component.
    pub fn build_unnamed(&self) -> ViewBuilder<'_> {
        ViewBuilder::unnamed(self)
    }

    /// Removes a view. Dangling references from other groups are allowed
    /// by the model (a dataspace is never globally consistent); traversals
    /// skip missing members.
    pub fn remove(&self, vid: Vid) -> Result<ViewRecord> {
        let mut slots = self.slots.write();
        let record = slots
            .get_mut(vid.0 as usize)
            .and_then(Option::take)
            .ok_or(IdmError::UnknownVid(vid))?
            .record;
        self.live.fetch_sub(1, Ordering::Relaxed);
        if let Some(owner) = record.owner() {
            let mut owned = self.owned.lock();
            if let Some(views) = owned.get_mut(&owner) {
                // Owned views are usually removed newest first.
                if let Some(at) = views.iter().rposition(|&v| v == vid) {
                    views.remove(at);
                }
                if views.is_empty() {
                    owned.remove(&owner);
                }
            }
        }
        self.commit(&[ChangeRecord::Remove { vid: vid.0 }], 1);
        Ok(record)
    }

    fn with_slot<T>(&self, vid: Vid, f: impl FnOnce(&Slot) -> T) -> Result<T> {
        let slots = self.slots.read();
        slots
            .get(vid.0 as usize)
            .and_then(Option::as_ref)
            .map(f)
            .ok_or(IdmError::UnknownVid(vid))
    }

    fn with_record<T>(&self, vid: Vid, f: impl FnOnce(&ViewRecord) -> T) -> Result<T> {
        self.with_slot(vid, |s| f(&s.record))
    }

    /// The view's mutation version: 0 at insert, incremented by every
    /// in-place mutation. Caches key entries by `(Vid, version)` and treat
    /// a version change as invalidation.
    pub fn version(&self, vid: Vid) -> Result<u64> {
        self.with_slot(vid, |s| s.version)
    }

    /// Borrow-based access to the name `η` without cloning the `String`.
    pub fn with_name<T>(&self, vid: Vid, f: impl FnOnce(Option<&str>) -> T) -> Result<T> {
        self.with_record(vid, |r| f(r.name.as_deref()))
    }

    /// Borrow-based access to the tuple `τ` without cloning attributes.
    pub fn with_tuple<T>(
        &self,
        vid: Vid,
        f: impl FnOnce(Option<&TupleComponent>) -> T,
    ) -> Result<T> {
        self.with_record(vid, |r| f(r.tuple.as_ref()))
    }

    /// `getNameComponent()`: the name `η`, `None` if empty.
    pub fn name(&self, vid: Vid) -> Result<Option<String>> {
        self.with_record(vid, |r| r.name.clone())
    }

    /// `getTupleComponent()`: the tuple `τ`, `None` if empty.
    pub fn tuple(&self, vid: Vid) -> Result<Option<TupleComponent>> {
        self.with_record(vid, |r| r.tuple.clone())
    }

    /// `getContentComponent()`: a handle to the content `χ`.
    ///
    /// The handle is cheap to clone; materialization (for intensional
    /// content) happens when the caller reads bytes from it.
    pub fn content(&self, vid: Vid) -> Result<Content> {
        self.with_record(vid, |r| r.content.clone())
    }

    /// `getGroupComponent()`: the group `γ`, forcing intensional groups.
    ///
    /// This is the call that turns e.g. the contents of a LaTeX file into
    /// an iDM subgraph on first access (Section 4.1). The provider runs
    /// *outside* the store lock so that it can insert child views.
    pub fn group(&self, vid: Vid) -> Result<GroupSnapshot> {
        let handle = self.with_record(vid, |r| r.group.clone())?;
        match handle {
            Group::Empty => Ok(GroupSnapshot::Finite(Arc::clone(&EMPTY_GROUP))),
            Group::Materialized(data) => Ok(GroupSnapshot::Finite(data)),
            Group::Lazy(lazy) => {
                // Attribute force failures to the view being expanded so a
                // failed lazy force is traceable in logs and reports.
                let data = lazy.force(self, vid).map_err(|e| e.with_vid(vid))?;
                self.promote_forced_group(vid, &lazy, &data);
                Ok(GroupSnapshot::Finite(data))
            }
            Group::InfiniteSeq(source) => Ok(GroupSnapshot::Infinite(source)),
        }
    }

    /// The raw group handle without forcing (introspection, indexing).
    pub fn group_handle(&self, vid: Vid) -> Result<Group> {
        self.with_record(vid, |r| r.group.clone())
    }

    /// The base view that owns this one ([`ViewRecord::owner`]).
    pub fn owner(&self, vid: Vid) -> Result<Option<Vid>> {
        self.with_record(vid, ViewRecord::owner)
    }

    /// The live views `base` owns, in mint order: every view a
    /// converter derived from it, directly or through a view it owns.
    /// One lookup, O(owned) — never a walk of the graph, which a folder
    /// link or a `\ref` would take across to views `base` does not own.
    pub fn owned(&self, base: Vid) -> Vec<Vid> {
        self.owned.lock().get(&base).cloned().unwrap_or_default()
    }

    /// The class the view claims, if any.
    pub fn class(&self, vid: Vid) -> Result<Option<ClassId>> {
        self.with_record(vid, |r| r.class)
    }

    /// The name of the view's class, if any.
    pub fn class_name(&self, vid: Vid) -> Result<Option<String>> {
        Ok(self.class(vid)?.map(|c| self.classes.name(c)))
    }

    /// Whether the view conforms to (a specialization of) the named class.
    pub fn conforms_to(&self, vid: Vid, class_name: &str) -> Result<bool> {
        let Some(target) = self.classes.lookup(class_name) else {
            return Ok(false);
        };
        Ok(self
            .class(vid)?
            .is_some_and(|c| self.classes.is_subclass(c, target)))
    }

    /// A full snapshot of the record (components cloned as handles).
    pub fn record(&self, vid: Vid) -> Result<ViewRecord> {
        self.with_record(vid, Clone::clone)
    }

    /// Applies `f` to the view's record, bumps its version and commits
    /// the record `log` reads off the changed view.
    fn mutate(
        &self,
        vid: Vid,
        f: impl FnOnce(&mut ViewRecord),
        log: impl FnOnce(u64, &ViewRecord) -> ChangeRecord,
    ) -> Result<()> {
        let mut slots = self.slots.write();
        let slot = occupied(&mut slots, vid)?;
        f(&mut slot.record);
        slot.version += 1;
        let rec = self.records_wanted().then(|| log(vid.0, &slot.record));
        self.commit(rec.as_slice(), 1);
        Ok(())
    }

    /// Replaces the name component.
    pub fn set_name(&self, vid: Vid, name: Option<String>) -> Result<()> {
        self.mutate(
            vid,
            |r| r.name = name,
            |vid, r| ChangeRecord::SetName {
                vid,
                name: r.name.clone(),
            },
        )
    }

    /// Replaces the tuple component.
    pub fn set_tuple(&self, vid: Vid, tuple: Option<TupleComponent>) -> Result<()> {
        self.mutate(
            vid,
            |r| r.tuple = tuple,
            |vid, r| ChangeRecord::SetTuple {
                vid,
                tuple: r.tuple.clone(),
            },
        )
    }

    /// Replaces the content component.
    pub fn set_content(&self, vid: Vid, content: Content) -> Result<()> {
        self.mutate(
            vid,
            |r| r.content = content,
            |vid, r| ChangeRecord::SetContent {
                vid,
                content: SerialContent::of(&r.content),
            },
        )
    }

    /// Replaces the group component.
    pub fn set_group(&self, vid: Vid, group: Group) -> Result<()> {
        self.mutate(
            vid,
            |r| r.group = group,
            |vid, r| ChangeRecord::SetGroup {
                vid,
                group: SerialGroup::of(&r.group),
            },
        )
    }

    /// Replaces the class.
    pub fn set_class(&self, vid: Vid, class: Option<ClassId>) -> Result<()> {
        self.mutate(
            vid,
            |r| r.class = class,
            |vid, r| ChangeRecord::SetClass {
                vid,
                class: r.class.map(|c| self.classes.name(c)),
            },
        )
    }

    /// Adds a member to a finite group component in place (used e.g. when
    /// an ActiveXML service result is inserted next to its service call).
    ///
    /// `ordered` selects the sequence `Q` (true) or the set `S` (false).
    /// Lazy groups are forced first; infinite groups reject the operation.
    ///
    /// The update is atomic under concurrency: the new group is computed
    /// outside the store lock (so lazy forcing can insert child views)
    /// and committed only if the view's version is still the one the
    /// snapshot was taken at, retrying otherwise. Concurrent adders to the
    /// same parent therefore never lose each other's members.
    pub fn add_group_member(&self, vid: Vid, member: Vid, ordered: bool) -> Result<()> {
        loop {
            let version = self.version(vid)?;
            let snapshot = self.group(vid)?;
            let data = snapshot.finite()?;
            let mut set: Vec<Vid> = data.set().to_vec();
            let mut seq: Vec<Vid> = data.seq().to_vec();
            if ordered {
                seq.push(member);
            } else {
                set.push(member);
            }
            let new_data = GroupData::new(set, seq).map_err(|_| IdmError::GroupOverlap(vid))?;
            let mut slots = self.slots.write();
            let slot = occupied(&mut slots, vid)?;
            if slot.version == version {
                slot.record.group = Group::Materialized(Arc::new(new_data));
                slot.version += 1;
                let rec = ChangeRecord::AddGroupMember {
                    vid: vid.0,
                    member: member.0,
                    ordered,
                };
                self.commit(&[rec], 1);
                return Ok(());
            }
        }
    }

    /// Subscribes to the change feed (the push-based protocol, Section
    /// 4.4.2): every [`ChangeRecord`] committed after this call, the
    /// same records the WAL persists, in the same order — each is sent
    /// under the write lock that logs it. Records are not built at all
    /// while nobody is subscribed and no WAL is armed.
    pub fn subscribe_records(&self) -> Receiver<ChangeRecord> {
        let (tx, rx) = unbounded();
        self.record_subscribers.lock().push(tx);
        self.record_fanout.store(true, Ordering::Release);
        rx
    }

    /// How many mutations have committed since construction: every
    /// insert (one per view of a batch), remove, component change and
    /// group-member add. The store's commit bumps it with a `Release`
    /// after the change is applied and this load is an `Acquire`, so a
    /// reader that reads the count before reading the store sees every
    /// change it counts.
    pub fn change_count(&self) -> u64 {
        self.changes.load(Ordering::Acquire)
    }

    /// When a lazy group is first forced on a durable store, upgrade the
    /// stored handle to the materialized members and log the edge set.
    /// Without this a crash would lose child edges created by a
    /// converter force (the lazy cache dies with the process). No
    /// version bump and no change count (it commits with `counted = 0`):
    /// forcing is a read, the group *value* is unchanged.
    fn promote_forced_group(&self, vid: Vid, lazy: &Arc<LazyGroup>, data: &Arc<GroupData>) {
        if !self.records_wanted() {
            return;
        }
        let mut slots = self.slots.write();
        let Ok(slot) = occupied(&mut slots, vid) else {
            return;
        };
        // Only promote the handle we actually forced — a concurrent
        // set_group may have replaced it, and that mutation (already
        // logged) wins.
        if matches!(&slot.record.group, Group::Lazy(current) if Arc::ptr_eq(current, lazy)) {
            slot.record.group = Group::Materialized(Arc::clone(data));
            let rec = ChangeRecord::GroupForced {
                vid: vid.0,
                set: data.set().iter().map(|v| v.0).collect(),
                seq: data.seq().iter().map(|v| v.0).collect(),
            };
            self.commit(&[rec], 0);
        }
    }

    /// Runs `f` with the store read-locked — a frozen, globally
    /// consistent image of the store — and returns the exported state
    /// alongside `f`'s result. Checkpoints use the closure to rotate the
    /// WAL (and on first attach, to write the initial snapshot and arm
    /// logging) at an exact record boundary: no mutation can commit
    /// between the export and whatever `f` does.
    pub fn frozen_export<R>(&self, f: impl FnOnce(&StoreExport) -> R) -> (StoreExport, R) {
        let slots = self.slots.read();
        let views = slots
            .iter()
            .enumerate()
            .filter_map(|(v, entry)| {
                let slot = entry.as_ref()?;
                Some((Vid(v as u64), slot.version, slot.record.clone()))
            })
            .collect();
        let export = StoreExport {
            next_vid: self.next_vid.load(Ordering::Relaxed),
            views,
        };
        let result = f(&export);
        drop(slots);
        (export, result)
    }

    /// Checks the structural invariants of the store and reports on
    /// them. Violations (hard failures): [`ViewStore::len`] differing
    /// from the occupied slots, a group whose `S` contains duplicates or
    /// whose `S ∩ Q ≠ ∅`, an owner that is not live or is owned itself,
    /// and an owner lookup ([`ViewStore::owned`]) that disagrees with
    /// the owner column. Warnings (allowed by the model, Section 4.2 —
    /// a dataspace is never globally consistent): group edges pointing
    /// at missing views, which traversals skip. Only already-materialized
    /// groups are inspected; verification never forces intensional work.
    pub fn verify_invariants(&self) -> InvariantReport {
        let mut report = InvariantReport {
            views: 0,
            violations: Vec::new(),
            dangling_edges: 0,
        };
        {
            // Read-locked: no slot can fill or empty, so the counter and
            // the scan see the same store.
            let slots = self.slots.read();
            let occupied = slots.iter().filter(|n| n.is_some()).count();
            let counted = self.len();
            if counted != occupied {
                report.violations.push(format!(
                    "len() reads {counted} but {occupied} slot(s) are occupied"
                ));
            }
            let column = slots
                .iter()
                .flatten()
                .filter(|slot| slot.record.owner().is_some())
                .count();
            let lookup: usize = self.owned.lock().values().map(Vec::len).sum();
            if column != lookup {
                report.violations.push(format!(
                    "{column} view(s) have an owner but the owner lookup lists {lookup}"
                ));
            }
        }
        let vids = self.vids();
        let live: HashSet<Vid> = vids.iter().copied().collect();
        report.views = vids.len();
        for vid in vids {
            let Ok((group, owner)) =
                self.with_slot(vid, |s| (s.record.group.clone(), s.record.owner()))
            else {
                continue; // removed between vids() and here
            };
            if let Some(owner) = owner {
                match self.owner(owner) {
                    Err(_) => report
                        .violations
                        .push(format!("{vid}: owner {owner} is not live")),
                    Ok(Some(above)) => report
                        .violations
                        .push(format!("{vid}: owner {owner} is owned by {above}")),
                    Ok(None) => {}
                }
            }
            let data = match &group {
                Group::Materialized(data) => Some(Arc::clone(data)),
                Group::Lazy(lazy) => lazy.peek(),
                Group::Empty | Group::InfiniteSeq(_) => None,
            };
            let Some(data) = data else { continue };
            let set: HashSet<Vid> = data.set().iter().copied().collect();
            if set.len() != data.set().len() {
                report
                    .violations
                    .push(format!("{vid}: duplicate members in set S"));
            }
            for member in data.seq() {
                if set.contains(member) {
                    report
                        .violations
                        .push(format!("{vid}: member {member} in both S and Q"));
                    break;
                }
            }
            report.dangling_edges += data.members().filter(|m| !live.contains(m)).count();
        }
        report
    }
}

/// The live slot at `vid`, or [`IdmError::UnknownVid`].
fn occupied(slots: &mut [Option<Slot>], vid: Vid) -> Result<&mut Slot> {
    slots
        .get_mut(vid.0 as usize)
        .and_then(Option::as_mut)
        .ok_or(IdmError::UnknownVid(vid))
}

/// A frozen, consistent image of the store, as captured by
/// [`ViewStore::frozen_export`].
#[derive(Debug)]
pub struct StoreExport {
    /// The vid allocator position at freeze time.
    pub next_vid: u64,
    /// Every live view as `(vid, version, record)`, vid-ascending.
    pub views: Vec<(Vid, u64, ViewRecord)>,
}

/// The result of [`ViewStore::verify_invariants`].
#[derive(Debug, Clone)]
pub struct InvariantReport {
    /// Number of live views inspected.
    pub views: usize,
    /// Hard invariant violations (`S ∩ Q ≠ ∅`, duplicates in `S`, a
    /// dead or owned owner).
    pub violations: Vec<String>,
    /// Group edges pointing at missing views — allowed by the model
    /// (traversals skip them), reported for diagnostics.
    pub dangling_edges: usize,
}

impl InvariantReport {
    /// Whether no hard violation was found.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl Default for ViewStore {
    fn default() -> Self {
        ViewStore::new()
    }
}

impl fmt::Debug for ViewStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ViewStore")
            .field("views", &self.len())
            .finish()
    }
}

/// Fluent builder for inserting views.
pub struct ViewBuilder<'a> {
    store: &'a ViewStore,
    record: ViewRecord,
}

impl<'a> ViewBuilder<'a> {
    fn named(store: &'a ViewStore, name: impl Into<String>) -> Self {
        ViewBuilder {
            store,
            record: ViewRecord {
                name: Some(name.into()),
                ..ViewRecord::default()
            },
        }
    }

    fn unnamed(store: &'a ViewStore) -> Self {
        ViewBuilder {
            store,
            record: ViewRecord::default(),
        }
    }

    /// Sets the tuple component.
    pub fn tuple(mut self, tuple: TupleComponent) -> Self {
        self.record.tuple = Some(tuple);
        self
    }

    /// Sets the content component.
    pub fn content(mut self, content: Content) -> Self {
        self.record.content = content;
        self
    }

    /// Sets finite textual content.
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.record.content = Content::text(text);
        self
    }

    /// Sets the group component.
    pub fn group(mut self, group: Group) -> Self {
        self.record.group = group;
        self
    }

    /// Sets unordered group members.
    pub fn children(mut self, set: Vec<Vid>) -> Self {
        self.record.group = Group::of_set(set);
        self
    }

    /// Sets ordered group members.
    pub fn sequence(mut self, seq: Vec<Vid>) -> Self {
        self.record.group = Group::of_seq(seq);
        self
    }

    /// Sets the class by id.
    pub fn class(mut self, class: ClassId) -> Self {
        self.record.class = Some(class);
        self
    }

    /// Sets the owner ([`ViewRecord::owner`]); converters call it with
    /// the base view they convert for.
    pub fn owner(mut self, owner: Option<Vid>) -> Self {
        self.record.owner = owner.unwrap_or(Vid::INVALID);
        self
    }

    /// Sets the class by name, erroring on unknown classes at insert time.
    pub fn class_named(mut self, name: &str) -> Self {
        self.record.class = self.store.classes().lookup(name);
        debug_assert!(
            self.record.class.is_some(),
            "unknown resource view class '{name}'"
        );
        self
    }

    /// Inserts the view, returning its id.
    pub fn insert(self) -> Vid {
        self.store.insert(self.record)
    }

    /// Returns the built record without inserting it — for collecting a
    /// batch to hand to [`ViewStore::insert_batch`].
    pub fn into_record(self) -> ViewRecord {
        self.record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::builtin::names;
    use crate::value::{Timestamp, Value};

    fn fs_tuple(size: i64) -> TupleComponent {
        TupleComponent::of(vec![
            ("size", Value::Integer(size)),
            ("creation time", Value::Date(Timestamp(0))),
            ("last modified time", Value::Date(Timestamp(100))),
        ])
    }

    #[test]
    fn insert_and_read_components() {
        let store = ViewStore::new();
        let vid = store
            .build("PIM")
            .tuple(fs_tuple(4096))
            .class_named(names::FOLDER)
            .insert();
        assert_eq!(store.name(vid).unwrap().as_deref(), Some("PIM"));
        assert_eq!(
            store.tuple(vid).unwrap().unwrap().get("size"),
            Some(&Value::Integer(4096))
        );
        assert!(store.content(vid).unwrap().is_empty());
        assert!(store.group(vid).unwrap().finite().unwrap().is_empty());
        assert_eq!(
            store.class_name(vid).unwrap().as_deref(),
            Some(names::FOLDER)
        );
    }

    #[test]
    fn cyclic_graph_from_figure_1() {
        // Projects → PIM → All Projects → Projects forms a cycle.
        let store = ViewStore::new();
        let projects = store.build("Projects").insert();
        let all_projects = store
            .build("All Projects")
            .children(vec![projects])
            .insert();
        let pim = store.build("PIM").children(vec![all_projects]).insert();
        store.set_group(projects, Group::of_set(vec![pim])).unwrap();

        // Walk the cycle: Projects → PIM → All Projects → Projects.
        let g = store.group(projects).unwrap().finite_members();
        assert_eq!(g, vec![pim]);
        let g = store.group(pim).unwrap().finite_members();
        assert_eq!(g, vec![all_projects]);
        let g = store.group(all_projects).unwrap().finite_members();
        assert_eq!(g, vec![projects]);
    }

    #[test]
    fn lazy_group_forces_once_and_creates_children() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let store = ViewStore::new();
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let provider = Arc::new(|store: &ViewStore, _owner: Vid| {
            CALLS.fetch_add(1, Ordering::SeqCst);
            let child = store.build("Introduction").text("lazy section").insert();
            Ok(GroupData::of_seq(vec![child]))
        });
        let file = store
            .build("vldb2006.tex")
            .group(Group::lazy(provider))
            .insert();
        assert_eq!(store.len(), 1, "child not created before first access");

        let members = store.group(file).unwrap().finite_members();
        assert_eq!(members.len(), 1);
        assert_eq!(store.len(), 2);
        assert_eq!(
            store.name(members[0]).unwrap().as_deref(),
            Some("Introduction")
        );

        let again = store.group(file).unwrap().finite_members();
        assert_eq!(again, members);
        assert_eq!(CALLS.load(Ordering::SeqCst), 1, "provider ran once");
        assert_eq!(store.len(), 2, "no duplicate children");
    }

    #[test]
    fn remove_leaves_dangling_references_skippable() {
        let store = ViewStore::new();
        let child = store.build("doc").insert();
        let parent = store.build("folder").children(vec![child]).insert();
        store.remove(child).unwrap();
        assert!(!store.contains(child));
        let members = store.group(parent).unwrap().finite_members();
        assert_eq!(members, vec![child], "reference remains");
        assert!(store.name(child).is_err(), "resolution fails gracefully");
    }

    #[test]
    fn record_subscribers_see_logical_changes_in_commit_order() {
        let store = ViewStore::new();
        // Mutations before subscription build no records at all.
        let early = store.build("before").insert();
        let rx = store.subscribe_records();
        let vid = store.build("doc").text("body").insert();
        store.set_name(vid, Some("renamed".into())).unwrap();
        store.add_group_member(vid, early, false).unwrap();
        store.remove(early).unwrap();
        let records: Vec<ChangeRecord> = rx.try_iter().collect();
        assert_eq!(records.len(), 4);
        assert!(
            matches!(&records[0], ChangeRecord::Insert { vid: v, .. } if *v == vid.as_u64()),
            "{records:?}"
        );
        assert!(
            matches!(&records[1], ChangeRecord::SetName { vid: v, name: Some(n) }
                if *v == vid.as_u64() && n == "renamed")
        );
        assert!(
            matches!(&records[2], ChangeRecord::AddGroupMember { vid: v, member, ordered: false }
                if *v == vid.as_u64() && *member == early.as_u64())
        );
        assert!(matches!(&records[3], ChangeRecord::Remove { vid: v } if *v == early.as_u64()));

        // Dropping the receiver turns fan-out back off.
        drop(rx);
        store.set_content(vid, Content::text("again")).unwrap();
        assert!(!store.records_wanted());
    }

    #[test]
    fn the_change_count_moves_once_per_committed_mutation() {
        let store = ViewStore::new();
        let a = store.build("a").insert();
        let batch = vec![
            store.build("b").into_record(),
            store.build("c").into_record(),
        ];
        let b = store.insert_batch(batch)[0];
        store.set_content(a, Content::text("body")).unwrap();
        store.add_group_member(a, b, false).unwrap();
        store.remove(b).unwrap();
        assert_eq!(store.change_count(), 6);
        // A rejected mutation commits nothing.
        assert!(store.set_name(b, None).is_err());
        assert_eq!(store.change_count(), 6);
    }

    #[test]
    fn batch_inserts_fan_out_one_record_per_view() {
        let store = ViewStore::new();
        let rx = store.subscribe_records();
        let records = vec![
            store.build("a").into_record(),
            store.build("b").into_record(),
            store.build("c").into_record(),
        ];
        let vids = store.insert_batch(records);
        let seen: Vec<u64> = rx
            .try_iter()
            .map(|r| match r {
                ChangeRecord::Insert { vid, .. } => vid,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(seen, vids.iter().map(|v| v.as_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn add_group_member_preserves_disjointness() {
        let store = ViewStore::new();
        let a = store.build("a").insert();
        let parent = store.build("p").children(vec![a]).insert();
        // Adding `a` again to the sequence would violate S ∩ Q = ∅.
        assert!(store.add_group_member(parent, a, true).is_err());
        // Adding to the set dedups silently (it is a set).
        store.add_group_member(parent, a, false).unwrap();
        assert_eq!(store.group(parent).unwrap().finite_members(), vec![a]);
    }

    #[test]
    fn conforms_to_walks_hierarchy() {
        let store = ViewStore::new();
        let vid = store
            .build("feed.xml")
            .tuple(fs_tuple(10))
            .class_named(names::XMLFILE)
            .insert();
        assert!(store.conforms_to(vid, names::XMLFILE).unwrap());
        assert!(store.conforms_to(vid, names::FILE).unwrap());
        assert!(!store.conforms_to(vid, names::FOLDER).unwrap());
        assert!(!store.conforms_to(vid, "not-a-class").unwrap());
    }

    #[test]
    fn mutations_on_removed_views_error() {
        let store = ViewStore::new();
        let vid = store.build("x").insert();
        store.remove(vid).unwrap();
        assert!(store.set_name(vid, Some("y".into())).is_err());
        assert!(store.set_content(vid, Content::text("z")).is_err());
        assert!(store.set_group(vid, Group::Empty).is_err());
        assert!(store.set_class(vid, None).is_err());
        assert!(store.add_group_member(vid, vid, false).is_err());
    }

    #[test]
    fn add_group_member_to_infinite_group_rejected() {
        struct Never;
        impl crate::group::ViewSequenceSource for Never {
            fn try_next(&self, _s: &ViewStore) -> crate::error::Result<Option<Vid>> {
                Ok(None)
            }
        }
        let store = ViewStore::new();
        let stream = store
            .build_unnamed()
            .group(Group::infinite(Arc::new(Never)))
            .insert();
        let member = store.build("m").insert();
        assert!(matches!(
            store.add_group_member(stream, member, true),
            Err(IdmError::InfiniteComponent { .. })
        ));
    }

    #[test]
    fn group_snapshot_infinite_reports_itself() {
        struct Never;
        impl crate::group::ViewSequenceSource for Never {
            fn try_next(&self, _s: &ViewStore) -> crate::error::Result<Option<Vid>> {
                Ok(None)
            }
        }
        let store = ViewStore::new();
        let stream = store
            .build_unnamed()
            .group(Group::infinite(Arc::new(Never)))
            .insert();
        let snapshot = store.group(stream).unwrap();
        assert!(snapshot.is_infinite());
        assert!(snapshot.finite().is_err());
        assert!(snapshot.finite_members().is_empty());
    }

    #[test]
    fn builder_unnamed_and_class_by_id() {
        let store = ViewStore::new();
        let class = store.classes().lookup(names::FILE).unwrap();
        let vid = store
            .build_unnamed()
            .tuple(fs_tuple(1))
            .text("x")
            .class(class)
            .insert();
        assert!(store.name(vid).unwrap().is_none());
        assert_eq!(store.class(vid).unwrap(), Some(class));
    }

    #[test]
    fn vids_are_insertion_order() {
        let store = ViewStore::new();
        let mut inserted = Vec::new();
        for i in 0..100 {
            inserted.push(store.build(format!("v{i}")).insert());
        }
        assert_eq!(store.vids(), inserted, "vids() is insertion order");
        assert_eq!(store.len(), 100);
        // Removal leaves order of the remainder intact.
        store.remove(inserted[3]).unwrap();
        store.remove(inserted[97]).unwrap();
        let mut expect = inserted.clone();
        expect.retain(|v| *v != inserted[3] && *v != inserted[97]);
        assert_eq!(store.vids(), expect);
    }

    #[test]
    fn versions_track_mutations() {
        let store = ViewStore::new();
        let vid = store.build("x").insert();
        assert_eq!(store.version(vid).unwrap(), 0);
        store.set_name(vid, Some("y".into())).unwrap();
        assert_eq!(store.version(vid).unwrap(), 1);
        store.set_content(vid, Content::text("z")).unwrap();
        assert_eq!(store.version(vid).unwrap(), 2);
        let member = store.build("m").insert();
        store.add_group_member(vid, member, false).unwrap();
        assert_eq!(store.version(vid).unwrap(), 3);
        // Reads do not bump the version.
        let _ = store.group(vid).unwrap();
        assert_eq!(store.version(vid).unwrap(), 3);
    }

    #[test]
    fn borrow_accessors_match_cloning_accessors() {
        let store = ViewStore::new();
        let vid = store.build("doc").tuple(fs_tuple(7)).insert();
        assert_eq!(
            store.with_name(vid, |n| n.map(str::to_owned)).unwrap(),
            store.name(vid).unwrap()
        );
        let size = store
            .with_tuple(vid, |t| t.and_then(|t| t.get("size").cloned()))
            .unwrap();
        assert_eq!(size, Some(Value::Integer(7)));
        assert!(store.with_name(Vid::from_raw(999), |_| ()).is_err());
    }

    #[test]
    fn owned_follows_inserts_and_removes() {
        let store = ViewStore::new();
        let file = store.build("a.tex").insert();
        let link = store.build("link").children(vec![file]).insert();
        let doc = store.build("doc").owner(Some(file)).insert();
        let batch = store.insert_batch(vec![
            store.build("s1").owner(Some(file)).into_record(),
            store.build("s2").owner(Some(file)).into_record(),
        ]);
        assert_eq!(store.owned(file), vec![doc, batch[0], batch[1]]);
        assert_eq!(store.owner(doc).unwrap(), Some(file));
        assert_eq!(store.owner(file).unwrap(), None);
        // Reaching a view is not owning it.
        assert!(store.owned(link).is_empty());

        store.remove(batch[0]).unwrap();
        assert_eq!(store.owned(file), vec![doc, batch[1]]);
        store.remove(batch[1]).unwrap();
        store.remove(doc).unwrap();
        assert!(store.owned(file).is_empty());
        assert!(store.verify_invariants().is_ok());
    }

    #[test]
    fn invariants_report_a_dead_or_an_owned_owner() {
        let store = ViewStore::new();
        let file = store.build("a.tex").insert();
        let doc = store.build("doc").owner(Some(file)).insert();
        assert!(store.verify_invariants().is_ok());

        let nested = store.build("nested").owner(Some(doc)).insert();
        let report = store.verify_invariants();
        assert_eq!(
            report.violations,
            vec![format!("{nested}: owner {doc} is owned by {file}")]
        );

        store.remove(nested).unwrap();
        store.remove(file).unwrap();
        let report = store.verify_invariants();
        assert_eq!(
            report.violations,
            vec![format!("{doc}: owner {file} is not live")]
        );
    }

    #[test]
    fn unknown_vid_errors() {
        let store = ViewStore::new();
        let ghost = Vid::from_raw(999);
        assert!(matches!(store.name(ghost), Err(IdmError::UnknownVid(_))));
        assert!(store.remove(ghost).is_err());
    }
}
