//! Bounded memoization of forced lazy components (Section 4.1) and of
//! whole query results.
//!
//! Forcing an intensional component — a [`idm_core::group::GroupProvider`]
//! turning a LaTeX file into a subgraph, a
//! [`idm_core::content::ContentProvider`] fetching remote bytes — is the
//! dominant cost of the paper's Figure 6 workload. The store's lazy cells
//! already compute each provider at most once, but every access still pays
//! a shard lock plus handle clones, and a mutated view must recompute.
//!
//! [`ExpansionCache`] sits between the query executor and the store: a
//! bounded LRU keyed by `(Vid, component)` whose entries carry the store's
//! per-view mutation version. An entry is valid only while the view's
//! version is unchanged, and every lookup reads that version first — which
//! is also what fails for a removed view — so the cache subscribes to
//! nothing; a dead view's entry ages out by capacity. Hit/miss/eviction
//! counters are atomics so parallel query workers can share one cache, and
//! are surfaced per query through [`crate::exec::ExecStats`].
//!
//! [`ResultCache`] keeps delta-maintained standing results by plan
//! fingerprint and is this crate's one reader of the store's record feed.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::Receiver;
use idm_core::prelude::*;
use idm_core::store::GroupSnapshot;
use parking_lot::Mutex;

/// The recency bookkeeping both caches share. Capacity, counters and
/// locking are the owner's.
struct Lru<K, V> {
    entries: HashMap<K, (u64, V)>,
    /// LRU order: tick → key. Ticks are unique, so the first entry is the
    /// least recently used.
    order: BTreeMap<u64, K>,
    next_tick: u64,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    fn new() -> Self {
        Lru {
            entries: HashMap::new(),
            order: BTreeMap::new(),
            next_tick: 0,
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// The value under `key`, recency untouched.
    fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|(_, value)| value)
    }

    fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.values().map(|(_, value)| value)
    }

    /// The value under `key`, marked most recently used.
    fn touch(&mut self, key: &K) -> Option<&mut V> {
        let (tick, value) = self.entries.get_mut(key)?;
        self.order.remove(tick);
        *tick = self.next_tick;
        self.order.insert(*tick, *key);
        self.next_tick += 1;
        Some(value)
    }

    /// Stores `value` as most recently used; returns what it replaced.
    fn insert(&mut self, key: K, value: V) -> Option<V> {
        let tick = self.next_tick;
        self.next_tick += 1;
        self.order.insert(tick, key);
        let (old_tick, old) = self.entries.insert(key, (tick, value))?;
        self.order.remove(&old_tick);
        Some(old)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        let (tick, value) = self.entries.remove(key)?;
        self.order.remove(&tick);
        Some(value)
    }

    /// Drops the least recently used entry.
    fn pop_lru(&mut self) -> Option<V> {
        let (_, key) = self.order.pop_first()?;
        self.entries.remove(&key).map(|(_, value)| value)
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }
}

/// Which component of a view an entry memoizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Component {
    Group,
    Content,
}

/// A memoized forced component.
#[derive(Clone)]
enum CachedValue {
    /// Forced group members (cheap `Arc` clone on hit).
    Group(Arc<GroupData>),
    /// Forced content bytes (cheap slice clone on hit).
    Content(Bytes),
}

struct Entry {
    version: u64,
    value: CachedValue,
}

/// Live counter totals for an [`ExpansionCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to force the component.
    pub misses: u64,
    /// Entries dropped for capacity, or replaced after their view
    /// mutated.
    pub evictions: u64,
    /// Degraded reads answered from a stale last-known-good entry after
    /// a force failed.
    pub stale_served: u64,
}

/// Bounded LRU over forced lazy-component results, validated against the
/// view's slot version on every lookup.
pub struct ExpansionCache {
    inner: Mutex<Lru<(Vid, Component), Entry>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    stale_served: AtomicU64,
}

impl ExpansionCache {
    /// A cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        ExpansionCache {
            inner: Mutex::new(Lru::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stale_served: AtomicU64::new(0),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter totals since construction.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            stale_served: self.stale_served.load(Ordering::Relaxed),
        }
    }

    /// The forced group members of `vid`, memoized.
    ///
    /// On a miss this calls [`ViewStore::group`], which runs any
    /// [`idm_core::group::GroupProvider`] outside the store locks exactly
    /// as a direct access would — lazy semantics are unchanged, only
    /// repeat forcing is elided. Infinite groups are not cached.
    pub fn group(&self, store: &ViewStore, vid: Vid) -> Result<GroupSnapshot> {
        let version = store.version(vid)?;
        if let Some(CachedValue::Group(data)) = self.lookup(vid, Component::Group, version) {
            return Ok(GroupSnapshot::Finite(data));
        }
        let snapshot = store.group(vid)?;
        if let GroupSnapshot::Finite(data) = &snapshot {
            self.store_entry(
                vid,
                Component::Group,
                version,
                CachedValue::Group(Arc::clone(data)),
            );
        }
        Ok(snapshot)
    }

    /// The materialized content bytes of `vid`, memoized.
    ///
    /// On a miss this forces intensional content via
    /// [`idm_core::content::ContentProvider::compute`]; infinite content
    /// propagates the store's error and is never cached.
    pub fn content(&self, store: &ViewStore, vid: Vid) -> Result<Bytes> {
        let version = store.version(vid)?;
        if let Some(CachedValue::Content(bytes)) = self.lookup(vid, Component::Content, version) {
            return Ok(bytes);
        }
        let bytes = store.content(vid)?.bytes()?;
        self.store_entry(
            vid,
            Component::Content,
            version,
            CachedValue::Content(bytes.clone()),
        );
        Ok(bytes)
    }

    /// [`ExpansionCache::group`], degrading gracefully: when the force
    /// fails with a [degradable] error (substrate down, breaker open) and
    /// a last-known-good entry exists — even one from before the view's
    /// last mutation — that entry is served instead. Returns the snapshot
    /// and whether it is stale.
    ///
    /// [degradable]: IdmError::is_degradable
    pub fn group_with_fallback(
        &self,
        store: &ViewStore,
        vid: Vid,
    ) -> Result<(GroupSnapshot, bool)> {
        match self.group(store, vid) {
            Ok(snapshot) => Ok((snapshot, false)),
            Err(err) if err.is_degradable() => match self.lookup_stale(vid, Component::Group) {
                Some(CachedValue::Group(data)) => {
                    self.stale_served.fetch_add(1, Ordering::Relaxed);
                    Ok((GroupSnapshot::Finite(data), true))
                }
                _ => Err(err),
            },
            Err(err) => Err(err),
        }
    }

    /// [`ExpansionCache::content`] with the same graceful degradation as
    /// [`ExpansionCache::group_with_fallback`].
    pub fn content_with_fallback(&self, store: &ViewStore, vid: Vid) -> Result<(Bytes, bool)> {
        match self.content(store, vid) {
            Ok(bytes) => Ok((bytes, false)),
            Err(err) if err.is_degradable() => match self.lookup_stale(vid, Component::Content) {
                Some(CachedValue::Content(bytes)) => {
                    self.stale_served.fetch_add(1, Ordering::Relaxed);
                    Ok((bytes, true))
                }
                _ => Err(err),
            },
            Err(err) => Err(err),
        }
    }

    fn lookup(&self, vid: Vid, component: Component, version: u64) -> Option<CachedValue> {
        let key = (vid, component);
        let mut inner = self.inner.lock();
        // A version mismatch means the view mutated since the entry was
        // made. The entry is retained as last-known-good for degraded
        // reads; a successful recompute replaces it (and counts the
        // eviction) in `store_entry`.
        let current = inner.get(&key).is_some_and(|e| e.version == version);
        let value = if current {
            inner.touch(&key).map(|e| e.value.clone())
        } else {
            None
        };
        drop(inner);
        let counter = if value.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// A last-known-good value for `key`, regardless of version. Only
    /// consulted after a recompute failed with a degradable error.
    fn lookup_stale(&self, vid: Vid, component: Component) -> Option<CachedValue> {
        let inner = self.inner.lock();
        inner.get(&(vid, component)).map(|e| e.value.clone())
    }

    fn store_entry(&self, vid: Vid, component: Component, version: u64, value: CachedValue) {
        let mut inner = self.inner.lock();
        if let Some(old) = inner.insert((vid, component), Entry { version, value }) {
            if old.version != version {
                // The retained-stale entry from a mutated view is now
                // superseded; this is where its eviction is accounted.
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        while inner.len() > self.capacity && inner.pop_lru().is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for ExpansionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpansionCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("counters", &self.counters())
            .finish()
    }
}

// ---- whole-result caching over plan fingerprints ---------------------

/// Live counter totals for a [`ResultCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to execute the plan.
    pub misses: u64,
    /// Entries dropped for capacity.
    pub evictions: u64,
    /// Entries dropped because they could not be brought up to date
    /// (maintenance error, record-log overflow, or a stale admission).
    pub invalidations: u64,
    /// Maintenance passes that applied pending change records to an
    /// entry on lookup (the maintain-on-change hit path).
    pub maintained: u64,
}

/// Pending change records held beyond this many force a full clear: the
/// store churned so much since the last cached lookup that replaying
/// the backlog would cost more than re-executing.
const MAX_PENDING_RECORDS: usize = 8192;

struct ResultEntry {
    /// Absolute record-log offset this entry's state is current through.
    applied: u64,
    state: crate::delta::MaintainedPlan,
}

struct ResultCacheInner {
    /// Standing results by plan fingerprint.
    entries: Lru<u64, ResultEntry>,
    /// Lazily-opened store record subscription: arming change-record
    /// fan-out costs every mutation a record clone, so it waits until
    /// the cached path is actually used.
    records: Option<Receiver<ChangeRecord>>,
    /// Shared log of drained records; `log_base` is the absolute offset
    /// of `log[0]`. Entries apply the suffix past their own `applied`
    /// offset on lookup, and the prefix below every entry's offset (and
    /// every outstanding execution mark) is trimmed.
    log: VecDeque<ChangeRecord>,
    log_base: u64,
    /// Offsets of in-flight executions (taken before executing, consumed
    /// by `admit`/`release`) — they pin the log so records committed
    /// mid-execution are still replayable onto the admitted entry.
    marks: Vec<u64>,
}

impl ResultCacheInner {
    fn log_end(&self) -> u64 {
        self.log_base + self.log.len() as u64
    }
}

/// Bounded LRU over **delta-maintained standing results**, keyed by the
/// normalized plan fingerprint ([`crate::plan::Plan::fingerprint`]).
///
/// Keying on the plan rather than the query string means two spellings
/// that plan identically (whitespace, conjunct order the optimizer
/// normalizes away) share one entry, and a strategy change — which
/// produces a different plan — correctly misses.
///
/// Where the first iteration of this cache cleared wholesale on any
/// store change, entries now carry a [`crate::delta::MaintainedPlan`]:
/// pending logical [`ChangeRecord`]s from the store are kept in a
/// shared log, and a lookup first applies the suffix the entry has not
/// seen ([`crate::exec::QueryProcessor::maintain`]) before serving the
/// rows. Application is version-gated by per-entry log offsets, and
/// convergent — replaying records an execution already observed is a
/// no-op — which is what makes the mark/admit protocol below safe
/// without blocking writers.
///
/// **Only complete results belong here.** A budget-truncated
/// (`stats.partial`) result is a sound *subset* of the true rows;
/// admitting one would serve (and maintain!) it as the complete answer
/// forever. `run_cached` admits only what
/// [`crate::exec::QueryProcessor::execute_standing`] seeded, and that
/// checks `partial` first.
pub struct ResultCache {
    inner: Mutex<ResultCacheInner>,
    capacity: usize,
    store: Arc<ViewStore>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    maintained: AtomicU64,
}

impl ResultCache {
    /// A cache over `store` holding at most `capacity` results.
    pub fn new(store: &Arc<ViewStore>, capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(ResultCacheInner {
                entries: Lru::new(),
                records: None,
                log: VecDeque::new(),
                log_base: 0,
                marks: Vec::new(),
            }),
            capacity: capacity.max(1),
            store: Arc::clone(store),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            maintained: AtomicU64::new(0),
        }
    }

    /// Current number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter totals since construction.
    pub fn counters(&self) -> ResultCacheCounters {
        ResultCacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            maintained: self.maintained.load(Ordering::Relaxed),
        }
    }

    /// Pulls pending store records into the shared log (subscribing on
    /// first use); on pathological backlog, clears every entry instead
    /// of replaying it.
    fn drain_records(&self, inner: &mut ResultCacheInner) {
        let rx = inner
            .records
            .get_or_insert_with(|| self.store.subscribe_records());
        inner.log.extend(rx.try_iter());
        if inner.log.len() > MAX_PENDING_RECORDS {
            let dropped = inner.entries.len() as u64;
            inner.entries.clear();
            self.invalidations.fetch_add(dropped, Ordering::Relaxed);
            self.trim(inner);
        }
    }

    /// Drops the log prefix every entry (and every outstanding mark)
    /// has already applied.
    fn trim(&self, inner: &mut ResultCacheInner) {
        let floor = inner
            .entries
            .values()
            .map(|e| e.applied)
            .chain(inner.marks.iter().copied())
            .min();
        match floor {
            None => {
                inner.log_base = inner.log_end();
                inner.log.clear();
            }
            Some(floor) => {
                while inner.log_base < floor {
                    inner.log.pop_front();
                    inner.log_base += 1;
                }
            }
        }
    }

    /// The maintained rows for a plan fingerprint. Applies any pending
    /// change records to the entry first; a maintenance failure evicts
    /// the entry and reports a miss.
    pub(crate) fn lookup(
        &self,
        processor: &crate::exec::QueryProcessor,
        fingerprint: u64,
    ) -> Option<crate::exec::ResultRows> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        self.drain_records(inner);
        let end = inner.log_end();
        let Some(entry) = inner.entries.touch(&fingerprint) else {
            drop(guard);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let behind = entry.applied < end;
        if behind {
            let from = (entry.applied - inner.log_base) as usize;
            let pending: Vec<ChangeRecord> = inner.log.iter().skip(from).cloned().collect();
            match processor.maintain(&mut entry.state, &pending) {
                Ok(_) => {
                    entry.applied = end;
                    self.maintained.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    inner.entries.remove(&fingerprint);
                    self.trim(inner);
                    drop(guard);
                    self.invalidations.fetch_add(1, Ordering::Relaxed);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        }
        let rows = entry.state.rows();
        if behind {
            self.trim(inner);
        }
        drop(guard);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(rows)
    }

    /// Registers an in-flight execution: returns the current record-log
    /// offset and pins the log at it until `admit` or `release`.
    pub(crate) fn mark(&self) -> u64 {
        let mut inner = self.inner.lock();
        self.drain_records(&mut inner);
        let mark = inner.log_end();
        inner.marks.push(mark);
        mark
    }

    /// Abandons an execution mark (error, partial result, or
    /// unmaintainable plan shape).
    pub(crate) fn release(&self, mark: u64) {
        let mut inner = self.inner.lock();
        if let Some(pos) = inner.marks.iter().position(|&m| m == mark) {
            inner.marks.swap_remove(pos);
        }
        self.trim(&mut inner);
    }

    /// Admits a freshly-seeded standing result whose execution began at
    /// `mark`. Records logged since the mark are applied on the entry's
    /// next lookup; if the log was force-cleared past the mark, the
    /// entry cannot be caught up and is dropped instead.
    pub(crate) fn admit(&self, fingerprint: u64, state: crate::delta::MaintainedPlan, mark: u64) {
        let mut inner = self.inner.lock();
        if let Some(pos) = inner.marks.iter().position(|&m| m == mark) {
            inner.marks.swap_remove(pos);
        }
        if mark < inner.log_base {
            self.trim(&mut inner);
            drop(inner);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let entry = ResultEntry {
            applied: mark,
            state,
        };
        inner.entries.insert(fingerprint, entry);
        while inner.entries.len() > self.capacity && inner.entries.pop_lru().is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.trim(&mut inner);
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("counters", &self.counters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn counting_lazy_store() -> (Arc<ViewStore>, Vid, Arc<AtomicUsize>) {
        let store = Arc::new(ViewStore::new());
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = Arc::clone(&calls);
        let provider = Arc::new(move |store: &ViewStore, _owner: Vid| {
            calls2.fetch_add(1, Ordering::SeqCst);
            Ok(GroupData::of_seq(vec![store.build("child").insert()]))
        });
        let vid = store.build("doc").group(Group::lazy(provider)).insert();
        (store, vid, calls)
    }

    #[test]
    fn group_hits_after_first_force() {
        let (store, vid, calls) = counting_lazy_store();
        let cache = ExpansionCache::new(16);
        let first = cache.group(&store, vid).unwrap().finite_members();
        let second = cache.group(&store, vid).unwrap().finite_members();
        assert_eq!(first, second);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn mutation_invalidates_by_version() {
        let store = Arc::new(ViewStore::new());
        let a = store.build("a").insert();
        let parent = store.build("p").children(vec![a]).insert();
        let cache = ExpansionCache::new(16);
        assert_eq!(
            cache.group(&store, parent).unwrap().finite_members(),
            vec![a]
        );
        let b = store.build("b").insert();
        store.add_group_member(parent, b, false).unwrap();
        // The version check alone must notice.
        let members = cache.group(&store, parent).unwrap().finite_members();
        assert_eq!(members.len(), 2);
        assert!(cache.counters().evictions >= 1);
    }

    #[test]
    fn changed_views_are_hidden_but_retained_as_last_known_good() {
        let store = Arc::new(ViewStore::new());
        let vid = store.build("x").text("old").insert();
        let cache = ExpansionCache::new(16);
        assert_eq!(&cache.content(&store, vid).unwrap()[..], b"old");
        store.set_content(vid, Content::text("new")).unwrap();
        // Mutated entries are retained (as degraded-read fallback) but
        // never served fresh: the version check forces a recompute.
        assert_eq!(cache.len(), 1);
        assert_eq!(&cache.content(&store, vid).unwrap()[..], b"new");
        assert!(cache.counters().evictions >= 1, "replacement accounted");
    }

    #[test]
    fn removed_views_error_and_their_entries_age_out() {
        let store = Arc::new(ViewStore::new());
        let vid = store.build("x").text("bytes").insert();
        let cache = ExpansionCache::new(2);
        cache.content(&store, vid).unwrap();
        store.remove(vid).unwrap();
        // No subscription tells the cache; the version read does. The
        // error is not degradable, so not even the fallback path serves
        // the dead view's bytes.
        assert!(cache.content(&store, vid).is_err());
        assert!(cache.content_with_fallback(&store, vid).is_err());
        assert_eq!(cache.counters().stale_served, 0);
        assert_eq!(cache.counters().hits, 0);
        // The unreachable entry is ordinary LRU ballast: two newer
        // entries push it out.
        assert_eq!(cache.len(), 1);
        let others: Vec<Vid> = ["y", "z"]
            .iter()
            .map(|name| store.build(*name).text("other").insert())
            .collect();
        for &other in &others {
            cache.content(&store, other).unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.counters().evictions, 1);
        for &other in &others {
            cache.content(&store, other).unwrap();
        }
        assert_eq!(cache.counters().hits, 2, "the live entries survived");
    }

    #[test]
    fn fallback_serves_stale_value_when_force_fails() {
        let store = Arc::new(ViewStore::new());
        let vid = store.build("msg").text("good").insert();
        let cache = ExpansionCache::new(16);

        let (bytes, stale) = cache.content_with_fallback(&store, vid).unwrap();
        assert_eq!((&bytes[..], stale), (&b"good"[..], false));

        // The view mutates (bumping its version) to content whose force
        // now fails: the last-known-good entry is served, flagged stale.
        let failing = Arc::new(|| Err(IdmError::transient("imap", "connection reset")));
        store.set_content(vid, Content::lazy(failing)).unwrap();
        let (bytes, stale) = cache.content_with_fallback(&store, vid).unwrap();
        assert_eq!((&bytes[..], stale), (&b"good"[..], true));
        assert_eq!(cache.counters().stale_served, 1);

        // A non-degradable error is never papered over.
        assert!(cache
            .content_with_fallback(&store, Vid::from_raw(999))
            .is_err());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let store = Arc::new(ViewStore::new());
        let vids: Vec<Vid> = (0..4)
            .map(|i| store.build(format!("v{i}")).insert())
            .collect();
        let cache = ExpansionCache::new(2);
        cache.group(&store, vids[0]).unwrap();
        cache.group(&store, vids[1]).unwrap();
        cache.group(&store, vids[0]).unwrap(); // touch 0: now 1 is LRU
        cache.group(&store, vids[2]).unwrap(); // evicts 1
        assert_eq!(cache.len(), 2);
        let before = cache.counters().hits;
        cache.group(&store, vids[0]).unwrap();
        assert_eq!(cache.counters().hits, before + 1, "0 survived");
        cache.group(&store, vids[1]).unwrap();
        assert_eq!(cache.counters().hits, before + 1, "1 was evicted");
    }

    #[test]
    fn content_memoizes_lazy_bytes() {
        let store = Arc::new(ViewStore::new());
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let provider = Arc::new(|| {
            CALLS.fetch_add(1, Ordering::SeqCst);
            Ok(Bytes::from_static(b"computed"))
        });
        let vid = store
            .build_unnamed()
            .content(Content::lazy(provider))
            .insert();
        let cache = ExpansionCache::new(4);
        assert_eq!(&cache.content(&store, vid).unwrap()[..], b"computed");
        assert_eq!(&cache.content(&store, vid).unwrap()[..], b"computed");
        assert_eq!(CALLS.load(Ordering::SeqCst), 1);
        assert_eq!(cache.counters().hits, 1);
    }

    #[test]
    fn unknown_vid_is_an_error_not_a_cache_entry() {
        let store = Arc::new(ViewStore::new());
        let cache = ExpansionCache::new(4);
        assert!(cache.group(&store, Vid::from_raw(99)).is_err());
        assert!(cache.is_empty());
    }

    /// An indexed store + processor for result-cache tests.
    fn query_fixture() -> (
        Arc<ViewStore>,
        Arc<idm_index::IndexBundle>,
        crate::exec::QueryProcessor,
    ) {
        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(idm_index::IndexBundle::new());
        let draft = store.build("draft.tex").text("a dataspace vision").insert();
        let notes = store.build("notes.txt").text("meeting notes").insert();
        store.build("papers").children(vec![draft, notes]).insert();
        for vid in store.vids() {
            indexes.index_view(&store, vid, "filesystem").unwrap();
        }
        let p = crate::exec::QueryProcessor::new(Arc::clone(&store), Arc::clone(&indexes));
        (store, indexes, p)
    }

    #[test]
    fn result_cache_round_trips_by_fingerprint() {
        use crate::budget::QueryBudget;
        let (_store, _indexes, p) = query_fixture();
        let plan = p.plan_iql(r#""dataspace""#).unwrap();
        let first = p.run_cached(&plan, QueryBudget::none()).unwrap();
        assert_eq!(first.stats.result_cache_hits, 0);
        let second = p.run_cached(&plan, QueryBudget::none()).unwrap();
        assert_eq!(second.stats.result_cache_hits, 1);
        assert_eq!(second.rows, first.rows);
        let other = p.plan_iql(r#""meeting""#).unwrap();
        let miss = p.run_cached(&other, QueryBudget::none()).unwrap();
        assert_eq!(
            miss.stats.result_cache_hits, 0,
            "different plan, different key"
        );
        let c = p.result_cache().counters();
        assert!(c.hits >= 1 && c.misses >= 2);
    }

    #[test]
    fn result_cache_maintains_entries_through_store_changes() {
        use crate::budget::QueryBudget;
        let (store, indexes, p) = query_fixture();
        let plan = p.plan_iql(r#""dataspace""#).unwrap();
        let first = p.run_cached(&plan, QueryBudget::none()).unwrap();
        assert_eq!(first.rows.len(), 1);
        // A store change no longer clears the entry: the pending change
        // records are applied to the standing result on the next lookup.
        let vid = store.build("more.tex").text("dataspace redux").insert();
        indexes.index_view(&store, vid, "filesystem").unwrap();
        let second = p.run_cached(&plan, QueryBudget::none()).unwrap();
        assert_eq!(
            second.stats.result_cache_hits, 1,
            "maintained in place, not recomputed"
        );
        assert!(second.rows.views().contains(&vid));
        assert_eq!(second.rows, p.execute_plan(&plan).unwrap().rows);
        let c = p.result_cache().counters();
        assert!(c.maintained >= 1);
        assert_eq!(c.invalidations, 0);
    }

    #[test]
    fn result_cache_evicts_lru() {
        use crate::budget::QueryBudget;
        use crate::plan::Plan;
        let (store, _indexes, p) = query_fixture();
        let cache = ResultCache::new(&store, 2);
        let plans: Vec<Plan> = [r#""dataspace""#, r#""meeting""#, r#""notes""#]
            .iter()
            .map(|q| p.plan_iql(q).unwrap())
            .collect();
        let seed = |plan: &Plan| {
            let mark = cache.mark();
            let (_, standing) = p.execute_standing(plan, QueryBudget::none()).unwrap();
            cache.admit(plan.fingerprint(), standing.unwrap(), mark);
        };
        seed(&plans[0]);
        seed(&plans[1]);
        // Touch 0: now 1 is LRU.
        assert!(cache.lookup(&p, plans[0].fingerprint()).is_some());
        seed(&plans[2]);
        assert_eq!(cache.len(), 2);
        assert!(
            cache.lookup(&p, plans[1].fingerprint()).is_none(),
            "1 was evicted"
        );
        assert!(cache.lookup(&p, plans[0].fingerprint()).is_some());
        assert_eq!(cache.counters().evictions, 1);
    }
}
