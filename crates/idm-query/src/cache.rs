//! The one table of standing results ([`ResultCache`]), keyed by plan
//! fingerprint — a `.cached()` answer and a live subscription
//! ([`LiveQuery`]) are the same entry — and kept current by
//! re-execution ([`crate::delta`]) whenever the store's change count
//! has moved since an entry's rows were produced.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};
use idm_core::prelude::*;
use parking_lot::Mutex;

use crate::delta::{MaintainedPlan, ResultDelta};
use crate::exec::{QueryProcessor, QueryResult, ResultRows};

/// The recency bookkeeping of the standing-result table. Capacity,
/// counters and locking are the owner's.
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

    fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(key, (_, value))| (key, value))
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

    /// Stores `value` as most recently used, replacing any value under
    /// `key`.
    fn insert(&mut self, key: K, value: V) {
        let tick = self.next_tick;
        self.next_tick += 1;
        self.order.insert(tick, key);
        if let Some((old_tick, _)) = self.entries.insert(key, (tick, value)) {
            self.order.remove(&old_tick);
        }
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        let (tick, value) = self.entries.remove(key)?;
        self.order.remove(&tick);
        Some(value)
    }

    /// Drops the least recently used entry that is `evictable`.
    fn pop_lru(&mut self, evictable: impl Fn(&V) -> bool) -> Option<V> {
        let (&tick, &key) = self
            .order
            .iter()
            .find(|(_, key)| self.entries.get(key).is_some_and(|(_, v)| evictable(v)))?;
        self.order.remove(&tick);
        self.entries.remove(&key).map(|(_, value)| value)
    }
}

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
    /// (a failed refresh of a plain entry, or of one whose listeners
    /// were dropped).
    pub invalidations: u64,
    /// Refreshes that re-executed an entry's plan after the store
    /// changed — on a lookup, or (for an entry with listeners) on a pump.
    pub maintained: u64,
}

/// Counter totals for a processor's live queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Currently attached [`LiveQuery`] handles.
    pub active: u64,
    /// Non-empty delta batches pushed, counted once per handle.
    pub deltas_pushed: u64,
    /// Store changes that refreshes of standing results with listeners
    /// caught up on: changes × *distinct plans* subscribed to, however
    /// many handles share each.
    pub records_applied: u64,
    /// Refreshes that failed (each triggers a resync attempt).
    pub maintain_failures: u64,
    /// Standing results made current by a re-execution after a failed
    /// refresh.
    pub resyncs: u64,
    /// Handles pruned (receiver dropped, or the standing result failed
    /// [`MAX_CONSECUTIVE_MAINTENANCE_FAILURES`] resyncs in a row).
    pub dropped: u64,
}

/// How many *consecutive* failed resyncs a standing result with
/// listeners survives before they are dropped. A transient substrate
/// fault costs a counted resync, not the subscription; only persistent
/// failure ends it.
pub const MAX_CONSECUTIVE_MAINTENANCE_FAILURES: u32 = 3;

/// A standing query handle: the rows at subscription time plus the
/// stream of changes since. Dropping it unsubscribes (the handle is
/// pruned on the next non-empty push).
pub struct LiveQuery {
    pub(crate) initial: QueryResult,
    pub(crate) deltas: Receiver<ResultDelta>,
}

impl std::fmt::Debug for LiveQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveQuery")
            .field("initial_rows", &self.initial.rows.len())
            .finish_non_exhaustive()
    }
}

impl LiveQuery {
    /// The full result at subscription time.
    pub fn initial(&self) -> &QueryResult {
        &self.initial
    }

    /// Drains every delta pushed since the last poll (empty when
    /// nothing relevant changed).
    pub fn poll(&self) -> Vec<ResultDelta> {
        self.deltas.try_iter().collect()
    }
}

struct ResultEntry {
    /// The store's change count read before the execution that produced
    /// the rows; `None` once only a resync can make them current (a
    /// refresh failed).
    applied: Option<u64>,
    state: MaintainedPlan,
    /// The live-query handles this result feeds; empty for a plain
    /// cache entry.
    listeners: Vec<Sender<ResultDelta>>,
    /// Failed resyncs since the last successful pass.
    consecutive_failures: u32,
}

impl ResultEntry {
    /// Sends a non-empty `delta` to every listener, pruning the handles
    /// whose receiver is gone.
    fn push(&mut self, delta: &ResultDelta, live: &mut LiveStats) {
        if delta.is_empty() {
            return;
        }
        let before = self.listeners.len();
        live.deltas_pushed += before as u64;
        self.listeners.retain(|tx| tx.send(delta.clone()).is_ok());
        live.dropped += (before - self.listeners.len()) as u64;
    }
}

struct ResultCacheInner {
    /// Standing results by plan fingerprint.
    entries: Lru<u64, ResultEntry>,
    /// The store's change count at the previous pump.
    pumped: u64,
    counters: ResultCacheCounters,
    /// Everything [`LiveStats`] reports except `active`.
    live: LiveStats,
    /// Deterministic failure injection for tests and the chaos
    /// simulator: each pending count fails one refresh (or resync)
    /// call of an entry with listeners.
    inject_maintain_failures: u64,
    inject_resync_failures: u64,
}

fn take_one(counter: &mut u64) -> bool {
    let armed = *counter > 0;
    *counter -= u64::from(armed);
    armed
}

fn injected_error(op: &str) -> IdmError {
    IdmError::Provider {
        detail: format!("injected {op} failure"),
        source: Some("live".into()),
        vid: None,
    }
}

/// The one table of **standing results, re-executed when the store
/// changed**, keyed by the normalized plan fingerprint
/// ([`crate::plan::Plan::fingerprint`]): a `.cached()` answer and a
/// live subscription are the same entry, the second merely has
/// listeners.
///
/// Keying on the plan rather than the query string means two spellings
/// that plan identically (whitespace, conjunct order the optimizer
/// normalizes away) share one entry.
///
/// Each entry is stamped with the store's
/// [`change_count`](ViewStore::change_count) read *before* the execution
/// that produced its rows. Whoever reads an entry — a cached lookup, or
/// [`crate::exec::QueryProcessor::pump`] for entries with listeners —
/// first takes it through one private `advance` step: read the count;
/// if it has not moved the rows are current, otherwise refresh the
/// entry (`QueryProcessor::refresh`: one execution of the plan), stamp
/// it with the count read before that execution, and send the non-empty
/// delta to its listeners. A subscriber so never
/// misses a change a lookup applied first, and a cached query of a
/// subscribed plan is a free hit. A change committed while an entry's
/// plan executes leaves the stamp behind the count, so the next read
/// executes once more: a stale stamp costs an execution, never a
/// wrong row.
///
/// What listeners change:
/// - **Failure.** A plain entry that fails to refresh is evicted and
///   the lookup reports a miss. An entry with listeners is resynced
///   instead ([`crate::exec::QueryProcessor::resync`], counted); while a
///   resync keeps failing the entry serves nobody and every later
///   advance goes straight to another resync, and after
///   [`MAX_CONSECUTIVE_MAINTENANCE_FAILURES`] of them the listeners are
///   dropped and the entry evicted.
/// - **Pruning.** A handle whose receiver is gone is noticed on the next
///   non-empty push; when the last one leaves, the entry is an ordinary
///   cache entry again.
/// - **Capacity** counts plain entries only: an entry with listeners is
///   never evicted for room and does not push plain entries out.
///
/// **Locking.** The table has one mutex and `advance` runs under it —
/// an unbudgeted execution of the plan whenever the store changed — and
/// `pump` advances every entry with listeners in one critical section.
/// While that lasts, every other `.cached()` lookup, admission,
/// subscription and `live_stats` call on this processor waits.
///
/// **Only complete results belong here.** A budget-truncated
/// (`stats.partial`) result is a sound *subset* of the true rows;
/// admitting one would serve (and refresh!) it as the complete answer
/// forever. Only what
/// [`crate::exec::QueryProcessor::execute_standing`] seeded is admitted,
/// and that checks `partial` first.
pub struct ResultCache {
    inner: Mutex<ResultCacheInner>,
    capacity: usize,
    store: Arc<ViewStore>,
}

impl ResultCache {
    /// A cache over `store` holding at most `capacity` plain results.
    pub fn new(store: &Arc<ViewStore>, capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(ResultCacheInner {
                entries: Lru::new(),
                pumped: store.change_count(),
                counters: ResultCacheCounters::default(),
                live: LiveStats::default(),
                inject_maintain_failures: 0,
                inject_resync_failures: 0,
            }),
            capacity: capacity.max(1),
            store: Arc::clone(store),
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
        self.inner.lock().counters
    }

    /// Live-query counter totals since construction.
    pub fn live_stats(&self) -> LiveStats {
        let inner = self.inner.lock();
        let active = inner
            .entries
            .values()
            .map(|e| e.listeners.len())
            .sum::<usize>();
        LiveStats {
            active: active as u64,
            ..inner.live
        }
    }

    /// Arms deterministic maintenance-failure injection: the next
    /// `maintain` refreshes and `resync` resyncs of entries with
    /// listeners each error. Tests and the chaos simulator use this to
    /// exercise the resync-then-drop path without a real substrate
    /// fault.
    pub fn inject_live_failures(&self, maintain: u64, resync: u64) {
        let mut inner = self.inner.lock();
        inner.inject_maintain_failures += maintain;
        inner.inject_resync_failures += resync;
    }

    /// Brings the entry under `fingerprint` up to the store's change
    /// count and sends the resulting delta to its listeners — the one
    /// step every reader of a standing result goes through, and the only
    /// place the table calls `refresh` or `resync`. Returns whether the
    /// entry exists and its rows are now current; one that could not be
    /// brought up to date is evicted, or (with listeners, below the
    /// failure limit) kept for the next attempt.
    fn advance(
        &self,
        processor: &QueryProcessor,
        inner: &mut ResultCacheInner,
        fingerprint: u64,
    ) -> bool {
        let now = self.store.change_count();
        let Some(entry) = inner.entries.touch(&fingerprint) else {
            return false;
        };
        if entry.applied == Some(now) {
            return true;
        }
        let watched = !entry.listeners.is_empty();
        // The stamp is void until a pass succeeds.
        let refreshed = entry.applied.take().map(|applied| {
            let changes = now - applied;
            if watched {
                inner.live.records_applied += changes;
            }
            if watched && take_one(&mut inner.inject_maintain_failures) {
                Err(injected_error("maintain"))
            } else {
                processor.refresh(&mut entry.state, changes)
            }
        });
        let delta = match refreshed {
            Some(Ok(delta)) => {
                inner.counters.maintained += 1;
                Some(delta)
            }
            // The rows can no longer be trusted as-is. Someone is
            // listening, so resynchronize them with a counted
            // re-execution rather than cutting the feed.
            failed if watched => {
                inner.live.maintain_failures += u64::from(failed.is_some());
                let resynced = if take_one(&mut inner.inject_resync_failures) {
                    Err(injected_error("resync"))
                } else {
                    processor.resync(&mut entry.state)
                };
                inner.live.resyncs += u64::from(resynced.is_ok());
                resynced.ok()
            }
            _ => None,
        };
        let Some(delta) = delta else {
            // A plain entry is simply dropped. Listeners are kept for a
            // few more attempts — the fault may be transient — and
            // dropped once failure is persistent: stale rows must not
            // keep masquerading as live.
            entry.consecutive_failures += 1;
            if !watched || entry.consecutive_failures >= MAX_CONSECUTIVE_MAINTENANCE_FAILURES {
                inner.live.dropped += entry.listeners.len() as u64;
                inner.entries.remove(&fingerprint);
                inner.counters.invalidations += 1;
            }
            return false;
        };
        entry.applied = Some(now);
        entry.consecutive_failures = 0;
        entry.push(&delta, &mut inner.live);
        true
    }

    /// The standing rows for a plan fingerprint, brought up to date
    /// first; `listener`, when given, is attached to the entry in the
    /// same step, so the rows returned are exactly what its deltas
    /// build on. `None` (a miss) when there is no entry or it could not
    /// be made current.
    pub(crate) fn lookup(
        &self,
        processor: &QueryProcessor,
        fingerprint: u64,
        listener: Option<&Sender<ResultDelta>>,
    ) -> Option<ResultRows> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let rows = if self.advance(processor, inner, fingerprint) {
            inner.entries.touch(&fingerprint).map(|entry| {
                entry.listeners.extend(listener.cloned());
                entry.state.rows()
            })
        } else {
            None
        };
        match rows {
            Some(_) => inner.counters.hits += 1,
            None => inner.counters.misses += 1,
        }
        rows
    }

    /// Brings every entry that has listeners up to the store's change
    /// count (the push side of a subscription). Returns how many store
    /// changes committed since the previous pump, whether or not
    /// anything is subscribed.
    pub(crate) fn pump(&self, processor: &QueryProcessor) -> usize {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let now = self.store.change_count();
        let mut watched: Vec<u64> = inner
            .entries
            .iter()
            .filter(|(_, entry)| !entry.listeners.is_empty())
            .map(|(fingerprint, _)| *fingerprint)
            .collect();
        // Hash order differs between runs; injected failures must not.
        watched.sort_unstable();
        for fingerprint in watched {
            self.advance(processor, inner, fingerprint);
        }
        let fresh = now - inner.pumped;
        inner.pumped = now;
        fresh as usize
    }

    /// Admits a freshly-seeded standing result, stamped with `applied` —
    /// the store's change count read before the execution that seeded
    /// it — and attaches `listener` when given. An entry that already
    /// has listeners (a racing admission, or one whose resyncs are
    /// failing) takes over the fresh state and tells them what changed,
    /// so no handle falls out of step.
    pub(crate) fn admit(
        &self,
        fingerprint: u64,
        state: MaintainedPlan,
        applied: u64,
        listener: Option<&Sender<ResultDelta>>,
    ) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        match inner.entries.touch(&fingerprint) {
            Some(entry) if !entry.listeners.is_empty() => {
                let delta = entry.state.replace_with(state);
                entry.applied = Some(applied);
                entry.consecutive_failures = 0;
                entry.push(&delta, &mut inner.live);
                entry.listeners.extend(listener.cloned());
            }
            _ => {
                let entry = ResultEntry {
                    applied: Some(applied),
                    state,
                    listeners: listener.cloned().into_iter().collect(),
                    consecutive_failures: 0,
                };
                inner.entries.insert(fingerprint, entry);
                let plain = |e: &ResultEntry| e.listeners.is_empty();
                let held = inner.entries.values().filter(|e| plain(e)).count();
                for _ in self.capacity..held {
                    inner.entries.pop_lru(plain);
                    inner.counters.evictions += 1;
                }
            }
        }
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("counters", &self.counters())
            .field("live", &self.live_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An indexed store + processor for result-cache tests.
    fn query_fixture() -> (Arc<ViewStore>, Arc<idm_index::IndexBundle>, QueryProcessor) {
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
        // A store change does not clear the entry: the next lookup sees
        // the change count moved and re-executes the plan in place.
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
            let applied = store.change_count();
            let (_, standing) = p.execute_standing(plan, QueryBudget::none()).unwrap();
            cache.admit(plan.fingerprint(), standing.unwrap(), applied, None);
        };
        seed(&plans[0]);
        seed(&plans[1]);
        // Touch 0: now 1 is LRU.
        assert!(cache.lookup(&p, plans[0].fingerprint(), None).is_some());
        seed(&plans[2]);
        assert_eq!(cache.len(), 2);
        assert!(
            cache.lookup(&p, plans[1].fingerprint(), None).is_none(),
            "1 was evicted"
        );
        assert!(cache.lookup(&p, plans[0].fingerprint(), None).is_some());
        assert_eq!(cache.counters().evictions, 1);
    }

    use crate::request::QueryRequest;

    /// A handle's rows: what it started with, moved by every delta.
    fn accumulated(live: &LiveQuery) -> ResultRows {
        let mut rows: std::collections::BTreeSet<Vid> =
            live.initial().rows.views().into_iter().collect();
        for delta in live.poll() {
            for vid in delta.removed.views() {
                rows.remove(&vid);
            }
            rows.extend(delta.added.views());
        }
        ResultRows::Views(rows.into_iter().collect())
    }

    #[test]
    fn pump_reports_the_store_changes_since_the_previous_pump() {
        let (store, indexes, p) = query_fixture();
        let insert = |text: &str| {
            let vid = store.build("more.tex").text(text).insert();
            indexes.index_view(&store, vid, "filesystem").unwrap();
            vid
        };
        assert_eq!(p.pump(), 0, "the fixture predates the processor");
        insert("dataspace redux");
        assert_eq!(p.pump(), 1, "nothing is subscribed");
        assert_eq!(p.pump(), 0);

        let live = p.subscribe(&QueryRequest::new(r#""dataspace""#)).unwrap();
        let vid = insert("unrelated");
        store
            .set_content(vid, Content::text("dataspace at last"))
            .unwrap();
        indexes.index_view(&store, vid, "filesystem").unwrap();
        assert_eq!(p.pump(), 2);
        assert_eq!(p.result_cache().live_stats().records_applied, 2);
        assert_eq!(accumulated(&live).len(), 3);
    }

    #[test]
    fn capacity_never_evicts_an_entry_with_listeners() {
        use crate::exec::RESULT_CACHE_CAPACITY;
        let (store, indexes, p) = query_fixture();
        let watched = QueryRequest::new(r#""dataspace""#);
        let live = p.subscribe(&watched).unwrap();
        let flood = |prefix: &str| {
            for i in 0..RESULT_CACHE_CAPACITY + 8 {
                p.run(&QueryRequest::new(format!("\"{prefix}{i}\"")).cached())
                    .unwrap();
            }
        };
        flood("a");
        // Held beside the capacity, not inside it.
        assert_eq!(p.result_cache().len(), RESULT_CACHE_CAPACITY + 1);
        assert_eq!(p.result_cache().counters().evictions, 8);
        let hit = p.run(&watched.clone().cached()).unwrap();
        assert_eq!(
            hit.stats.result_cache_hits, 1,
            "the subscribed entry survived"
        );

        // Once the last handle is gone and a push found that out, the
        // entry is ordinary LRU ballast.
        drop(live);
        let vid = store.build("more.tex").text("dataspace redux").insert();
        indexes.index_view(&store, vid, "filesystem").unwrap();
        p.pump();
        assert_eq!(p.result_cache().live_stats().active, 0);
        assert_eq!(p.result_cache().live_stats().dropped, 1);
        flood("b");
        assert_eq!(p.result_cache().len(), RESULT_CACHE_CAPACITY);
        let miss = p.run(&watched.cached()).unwrap();
        assert_eq!(miss.stats.result_cache_hits, 0, "evicted like any other");
    }

    /// However many changes piled up, a stale entry costs one
    /// execution when it is next read: nothing is cleared, nothing
    /// resyncs.
    #[test]
    fn a_long_backlog_costs_each_entry_one_execution() {
        let (store, indexes, p) = query_fixture();
        let watched = QueryRequest::new(r#""dataspace""#);
        let live = p.subscribe(&watched).unwrap();
        let plain = QueryRequest::new(r#""meeting""#).cached();
        p.run(&plain).unwrap();

        let vid = store.build("more.tex").text("nothing yet").insert();
        for i in 0..=8192 {
            store
                .set_content(vid, Content::text(format!("draft {i}")))
                .unwrap();
        }
        store
            .set_content(vid, Content::text("dataspace redux"))
            .unwrap();
        indexes.index_view(&store, vid, "filesystem").unwrap();
        assert_eq!(p.pump(), 8195);

        let stats = p.result_cache().live_stats();
        assert_eq!((stats.resyncs, stats.active, stats.dropped), (0, 1, 0));
        assert_eq!(stats.records_applied, 8195);
        let counters = p.result_cache().counters();
        assert_eq!((counters.invalidations, counters.maintained), (0, 1));
        let hit = p.run(&plain).unwrap();
        assert_eq!(hit.stats.result_cache_hits, 1, "the plain entry survived");
        assert_eq!(p.result_cache().counters().maintained, 2);
        let fresh = p.run(&watched).unwrap().result.rows;
        assert!(fresh.views().contains(&vid));
        assert_eq!(accumulated(&live), fresh);
    }

    /// A plain entry nobody reads while the store churns costs nothing
    /// until it is read, and nothing to a regularly pumped feed.
    #[test]
    fn a_stale_cache_entry_does_not_force_a_current_feed_to_resync() {
        let (store, indexes, p) = query_fixture();
        let watched = QueryRequest::new(r#""dataspace""#);
        let live = p.subscribe(&watched).unwrap();
        let plain = QueryRequest::new(r#""meeting""#).cached();
        p.run(&plain).unwrap();

        let vid = store.build("more.tex").text("nothing yet").insert();
        let chunk = 8192 / 4 + 1;
        for round in 0..4 {
            for i in 0..chunk {
                store
                    .set_content(vid, Content::text(format!("draft {round}.{i}")))
                    .unwrap();
            }
            assert!(p.pump() >= chunk);
        }
        store
            .set_content(vid, Content::text("dataspace redux"))
            .unwrap();
        indexes.index_view(&store, vid, "filesystem").unwrap();
        assert!(p.pump() >= 1);

        assert_eq!(p.result_cache().counters().invalidations, 0);
        let stats = p.result_cache().live_stats();
        assert_eq!((stats.resyncs, stats.maintain_failures), (0, 0));
        assert!(stats.records_applied > 8192);
        let fresh = p.run(&watched).unwrap().result.rows;
        assert!(fresh.views().contains(&vid));
        assert_eq!(accumulated(&live), fresh);
        let hit = p.run(&plain).unwrap();
        assert_eq!(hit.stats.result_cache_hits, 1, "the plain entry survived");
    }
}
