//! Live queries: standing subscriptions over the dataspace.
//!
//! A subscription is a [`QueryRequest`] whose result *stays* answered:
//! [`Pdsms::subscribe`] executes it once, seeds a delta-maintained
//! standing result ([`idm_query::MaintainedPlan`]), and hands back a
//! [`LiveQuery`] — the initial rows plus a channel of
//! [`ResultDelta`] batches. From then on, the [`SubscriptionRegistry`]
//! reads every store mutation's logical [`ChangeRecord`]s straight off
//! the store's record feed ([`ViewStore::subscribe_records`] — the only
//! such subscription in this crate) and maintains each standing result
//! incrementally on the system's one query processor (falling back to
//! bounded re-expansion or full recompute only where a node cannot be
//! maintained soundly), pushing the non-empty deltas to subscribers.
//!
//! Delivery is pull-paced: pending records are applied when
//! [`Pdsms::pump_subscriptions`] runs — which the ingest paths
//! (`index_all*`) do automatically, and which sync-round drivers (RSS
//! polls, IMAP rounds, filesystem notification sweeps) call after each
//! round — so a sync round's worth of changes arrives as one coalesced
//! delta batch per subscription.
//!
//! The PR 7 partiality gate extends here: a budget-truncated execution
//! is a *subset* of the true rows and never seeds a subscription
//! (subscribing with an exhausted budget is an error, not a silently
//! wrong feed), and maintenance always runs unbudgeted, so a standing
//! result is never updated from partial state.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::channel::{unbounded, Receiver, Sender};
use idm_core::prelude::*;
use idm_query::{
    MaintainedPlan, QueryBudget, QueryProcessor, QueryRequest, QueryResult, ResultDelta,
};
use parking_lot::Mutex;

use crate::Pdsms;

/// A standing query handle: the rows at subscription time plus the
/// stream of changes since. Dropping it unsubscribes (the registry
/// prunes the subscription on its next push).
pub struct LiveQuery {
    id: u64,
    initial: QueryResult,
    deltas: Receiver<ResultDelta>,
}

impl std::fmt::Debug for LiveQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveQuery")
            .field("id", &self.id)
            .field("initial_rows", &self.initial.rows.len())
            .finish_non_exhaustive()
    }
}

impl LiveQuery {
    /// The subscription id (unique within the system).
    pub fn id(&self) -> u64 {
        self.id
    }

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

struct Subscription {
    standing: MaintainedPlan,
    tx: Sender<ResultDelta>,
    /// Maintenance failures since the last successful pass; reset by
    /// any success (including a successful resync).
    consecutive_failures: u32,
}

/// How many *consecutive* failed maintenance passes (each including its
/// resync attempt) a subscription survives before it is dropped. A
/// transient substrate fault costs a counted resync, not the
/// subscription; only persistent failure ends it.
pub const MAX_CONSECUTIVE_MAINTENANCE_FAILURES: u32 = 3;

/// Counter totals for a system's live queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Currently registered subscriptions.
    pub active: u64,
    /// Non-empty delta batches pushed to subscribers.
    pub deltas_pushed: u64,
    /// Change records applied across all subscriptions.
    pub records_applied: u64,
    /// Maintenance passes that failed (each triggers a resync attempt).
    pub maintain_failures: u64,
    /// Standing results rebuilt by a counted full recompute after a
    /// failed maintenance pass.
    pub resyncs: u64,
    /// Subscriptions pruned (handle dropped, or maintenance failed
    /// [`MAX_CONSECUTIVE_MAINTENANCE_FAILURES`] times in a row).
    pub dropped: u64,
}

/// Maintains every standing query against the store's change records:
/// it holds the record feed, and each [`Pdsms::pump_subscriptions`]
/// applies whatever is pending, as one batch, to every subscription.
/// The processor is the caller's (the system's one), never its own.
pub struct SubscriptionRegistry {
    records: Receiver<ChangeRecord>,
    subs: Mutex<Vec<Subscription>>,
    next_id: AtomicU64,
    deltas_pushed: AtomicU64,
    records_applied: AtomicU64,
    maintain_failures: AtomicU64,
    resyncs: AtomicU64,
    dropped: AtomicU64,
    /// Deterministic failure injection for tests and the chaos
    /// simulator: each pending count fails one maintenance (or resync)
    /// call.
    inject_maintain_failures: AtomicU64,
    inject_resync_failures: AtomicU64,
}

fn take_one(counter: &AtomicU64) -> bool {
    counter
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
        .is_ok()
}

fn injected_error(op: &str) -> IdmError {
    IdmError::Provider {
        detail: format!("injected {op} failure"),
        source: Some("live".into()),
        vid: None,
    }
}

impl SubscriptionRegistry {
    /// Subscribes to `store`'s record feed; only records committed
    /// from here on flow.
    fn attach(store: &ViewStore) -> Self {
        SubscriptionRegistry {
            records: store.subscribe_records(),
            subs: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            deltas_pushed: AtomicU64::new(0),
            records_applied: AtomicU64::new(0),
            maintain_failures: AtomicU64::new(0),
            resyncs: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            inject_maintain_failures: AtomicU64::new(0),
            inject_resync_failures: AtomicU64::new(0),
        }
    }

    fn subscribe(&self, processor: &QueryProcessor, request: &QueryRequest) -> Result<LiveQuery> {
        let plan = processor.plan_iql(request.iql())?;
        let budget = request.requested_budget().unwrap_or(QueryBudget::none());
        let (result, standing) = processor.execute_standing(&plan, budget)?;
        let Some(standing) = standing else {
            // Either the budget truncated the execution (a partial
            // result must never seed a standing one) or the plan shape
            // cannot be maintained soundly.
            return Err(IdmError::Provider {
                detail: if result.stats.partial {
                    "subscribe: budget-truncated (partial) execution cannot seed a standing result"
                        .into()
                } else {
                    "subscribe: plan shape is not maintainable".into()
                },
                source: Some("live".into()),
                vid: None,
            });
        };
        let (tx, rx) = unbounded();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.subs.lock().push(Subscription {
            standing,
            tx,
            consecutive_failures: 0,
        });
        Ok(LiveQuery {
            id,
            initial: result,
            deltas: rx,
        })
    }

    /// Drains the record feed and applies what was pending, as one
    /// coalesced batch, to every subscription; returns how many records
    /// that was (0 = nothing pending, nothing touched).
    fn pump(&self, processor: &QueryProcessor) -> usize {
        let records: Vec<ChangeRecord> = self.records.try_iter().collect();
        if records.is_empty() {
            return 0;
        }
        let mut subs = self.subs.lock();
        self.records_applied
            .fetch_add((records.len() * subs.len()) as u64, Ordering::Relaxed);
        subs.retain_mut(|sub| {
            // After a failed pass the standing rows are suspect:
            // incremental maintenance would build on bad state, so go
            // straight to a resync until one succeeds.
            let maintained = if sub.consecutive_failures > 0 {
                None
            } else {
                Some(if take_one(&self.inject_maintain_failures) {
                    Err(injected_error("maintain"))
                } else {
                    processor.maintain(&mut sub.standing, &records)
                })
            };

            let delta = match maintained {
                Some(Ok(delta)) => {
                    sub.consecutive_failures = 0;
                    delta
                }
                failed => {
                    // Maintenance failed (e.g. a full recompute hit a
                    // substrate fault): the standing rows can no longer
                    // be trusted as-is, so resynchronize them with a
                    // counted full recompute instead of dropping the
                    // subscription outright.
                    if failed.is_some() {
                        self.maintain_failures.fetch_add(1, Ordering::Relaxed);
                    }
                    let resynced = if take_one(&self.inject_resync_failures) {
                        Err(injected_error("resync"))
                    } else {
                        processor.resync(&mut sub.standing)
                    };

                    match resynced {
                        Ok(delta) => {
                            sub.consecutive_failures = 0;
                            self.resyncs.fetch_add(1, Ordering::Relaxed);
                            delta
                        }
                        Err(_) => {
                            // Even the full recompute failed. Keep the
                            // subscription for a few more rounds — the
                            // fault may be transient — but drop it once
                            // failure is persistent: stale rows must
                            // not keep masquerading as live.
                            sub.consecutive_failures += 1;
                            if sub.consecutive_failures >= MAX_CONSECUTIVE_MAINTENANCE_FAILURES {
                                self.dropped.fetch_add(1, Ordering::Relaxed);
                                return false;
                            }
                            return true;
                        }
                    }
                }
            };
            // An empty delta keeps the subscription as-is; a dropped
            // handle is noticed (and pruned) on its next non-empty push.
            if delta.is_empty() {
                return true;
            }
            self.deltas_pushed.fetch_add(1, Ordering::Relaxed);
            if sub.tx.send(delta).is_ok() {
                true
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        });
        records.len()
    }

    fn stats(&self) -> LiveStats {
        LiveStats {
            active: self.subs.lock().len() as u64,
            deltas_pushed: self.deltas_pushed.load(Ordering::Relaxed),
            records_applied: self.records_applied.load(Ordering::Relaxed),
            maintain_failures: self.maintain_failures.load(Ordering::Relaxed),
            resyncs: self.resyncs.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Arms deterministic maintenance-failure injection: the next
    /// `maintain` failing-calls and `resync` failing-calls each error.
    /// Tests and the chaos simulator use this to exercise the
    /// resync-then-drop path without a real substrate fault.
    pub fn inject_failures(&self, maintain: u64, resync: u64) {
        self.inject_maintain_failures
            .fetch_add(maintain, Ordering::Relaxed);
        self.inject_resync_failures
            .fetch_add(resync, Ordering::Relaxed);
    }
}

impl Pdsms {
    fn registry(&self) -> &SubscriptionRegistry {
        self.live
            .get_or_init(|| SubscriptionRegistry::attach(&self.store))
    }

    /// Registers `request` as a standing query: executes it once (under
    /// the admission gate, when enabled) and returns a [`LiveQuery`]
    /// whose delta channel is fed by [`Pdsms::pump_subscriptions`].
    ///
    /// A request whose budget truncates the execution is rejected — a
    /// partial result never seeds a standing one.
    pub fn subscribe(&self, request: &QueryRequest) -> Result<LiveQuery> {
        let registry = self.registry();
        let _permit = self.admit(request)?;
        // Deliver anything pending first, so existing subscriptions are
        // current and the new standing result seeds against a drained
        // record log. (Records racing past this point are re-applied on
        // the next pump; delta maintenance is convergent, so replaying
        // a change the seeding execution already saw is harmless.)
        registry.pump(&self.processor);
        registry.subscribe(&self.processor, request)
    }

    /// Drives every live query: drains pending change records and
    /// applies them to each standing result, pushing non-empty deltas
    /// to subscribers. Returns the number of records dispatched. The
    /// ingest paths call this automatically; sync-round drivers should
    /// call it after each round.
    pub fn pump_subscriptions(&self) -> usize {
        self.live
            .get()
            .map_or(0, |registry| registry.pump(&self.processor))
    }

    /// Counter totals for this system's live queries.
    pub fn live_stats(&self) -> LiveStats {
        self.live
            .get()
            .map(SubscriptionRegistry::stats)
            .unwrap_or_default()
    }

    /// Arms deterministic live-maintenance failure injection (see
    /// [`SubscriptionRegistry::inject_failures`]).
    pub fn inject_live_failures(&self, maintain: u64, resync: u64) {
        self.registry().inject_failures(maintain, resync);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FsPlugin;
    use idm_vfs::{NodeId, VirtualFs};
    use std::sync::Arc;

    fn t() -> Timestamp {
        Timestamp::from_ymd(2006, 8, 1).unwrap()
    }

    fn system_with_file(
        name: &str,
        body: &str,
    ) -> (Arc<VirtualFs>, Pdsms, crate::SynchronizationManager) {
        let fs = Arc::new(VirtualFs::new(t()));
        let dir = fs.mkdir_p("/docs", t()).unwrap();
        fs.create_file(dir, name, body.to_owned(), t()).unwrap();
        let mut system = Pdsms::new();
        let plugin = Arc::new(FsPlugin::new(Arc::clone(&fs), NodeId::ROOT));
        system.register_source(Arc::clone(&plugin) as Arc<dyn crate::source::DataSourcePlugin>);
        system.index_all().unwrap();
        let sync = crate::SynchronizationManager::attach(
            plugin,
            Arc::clone(system.store()),
            Arc::clone(system.indexes()),
        )
        .unwrap();
        (fs, system, sync)
    }

    #[test]
    fn sync_rounds_drive_subscriptions() {
        let (fs, system, sync) = system_with_file("a.txt", "database tuning");
        let live = system
            .subscribe(&QueryRequest::new(r#""database""#).subscribe())
            .unwrap();
        assert_eq!(live.initial().rows.len(), 1);
        assert!(live.poll().is_empty(), "nothing changed yet");

        // A new matching file arrives; the sync round ingests it, the
        // pump delivers its records to the standing query.
        let dir = fs.resolve("/docs").unwrap();
        fs.create_file(dir, "b.txt", "more database notes", t())
            .unwrap();
        sync.sync_round().unwrap();
        assert!(system.pump_subscriptions() >= 1, "the round's records");
        assert_eq!(system.pump_subscriptions(), 0, "nothing left pending");

        let deltas = live.poll();
        assert_eq!(deltas.len(), 1, "one coalesced batch per round");
        assert_eq!(deltas[0].added.len(), 1);
        assert!(deltas[0].removed.is_empty());
        // The maintained rows equal a fresh query.
        let fresh = system.run(&QueryRequest::new(r#""database""#)).unwrap();
        assert_eq!(deltas[0].total, fresh.result.rows.len());
        assert!(system.live_stats().deltas_pushed >= 1);
    }

    #[test]
    fn cached_requests_hit_and_are_maintained_through_the_facade() {
        // `Pdsms::run` answers on the system's long-lived processor, so
        // its result cache outlives the call (a per-call processor took
        // the cache with it: zero hits, ever).
        let (fs, system, sync) = system_with_file("a.txt", "database tuning");
        let request = QueryRequest::new(r#""database""#).cached();
        assert_eq!(system.run(&request).unwrap().stats.result_cache_hits, 0);
        assert_eq!(system.run(&request).unwrap().stats.result_cache_hits, 1);

        let dir = fs.resolve("/docs").unwrap();
        fs.create_file(dir, "b.txt", "more database notes", t())
            .unwrap();
        sync.sync_round().unwrap();
        let third = system.run(&request).unwrap();
        assert_eq!(third.stats.result_cache_hits, 1, "maintained, not re-run");
        let fresh = system.run(&QueryRequest::new(r#""database""#)).unwrap();
        assert_eq!(third.result.rows, fresh.result.rows);
        assert_eq!(third.result.rows.len(), 2);
        assert!(system.processor().result_cache().counters().maintained >= 1);
    }

    #[test]
    fn subscriptions_follow_the_systems_current_strategy() {
        // The registry has no processor of its own: a strategy set after
        // the first subscription applies to the next one, exactly as it
        // does to `run`. Three files under /docs, one matching: a forward
        // walk scans three edges, a backward walk one.
        let (fs, mut system, sync) = system_with_file("a.txt", "database tuning");
        let dir = fs.resolve("/docs").unwrap();
        for name in ["b.txt", "c.txt"] {
            fs.create_file(dir, name, "tomato soup recipe", t())
                .unwrap();
        }
        sync.sync_round().unwrap();
        let _first = system
            .subscribe(&QueryRequest::new(r#""database""#))
            .unwrap();

        let request = QueryRequest::new(r#"//docs//*["database"]"#);
        let forward = system.run(&request).unwrap().result;
        system.set_expansion(idm_query::ExpansionStrategy::Backward);
        let live = system.subscribe(&request).unwrap();
        let backward = system.run(&request).unwrap().result;
        assert_eq!(live.initial().rows, backward.rows);
        assert_eq!(live.initial().stats, backward.stats);
        assert_ne!(
            backward.stats.nodes_expanded, forward.stats.nodes_expanded,
            "the two walks are told apart by this fixture"
        );
    }

    #[test]
    fn removals_flow_through_as_removed_rows() {
        let (fs, system, sync) = system_with_file("a.txt", "database tuning");
        let live = system
            .subscribe(&QueryRequest::new(r#""database""#))
            .unwrap();
        assert_eq!(live.initial().rows.len(), 1);

        fs.remove(fs.resolve("/docs/a.txt").unwrap()).unwrap();
        sync.sync_round().unwrap();
        system.pump_subscriptions();

        let deltas = live.poll();
        assert_eq!(deltas.len(), 1);
        assert!(deltas[0].added.is_empty());
        assert_eq!(deltas[0].removed.len(), 1);
        assert_eq!(deltas[0].total, 0);
    }

    #[test]
    fn irrelevant_changes_push_nothing() {
        let (fs, system, sync) = system_with_file("a.txt", "database tuning");
        let live = system
            .subscribe(&QueryRequest::new(r#""database""#))
            .unwrap();
        let dir = fs.resolve("/docs").unwrap();
        fs.create_file(dir, "c.txt", "tomato soup recipe", t())
            .unwrap();
        sync.sync_round().unwrap();
        system.pump_subscriptions();
        assert!(live.poll().is_empty(), "unrelated change, no delta");
    }

    #[test]
    fn partial_execution_never_seeds_a_subscription() {
        let (_fs, system, _sync) = system_with_file("a.txt", "database tuning");
        let budget = QueryBudget {
            cancel_after_checks: Some(1),
            partial: true,
            ..QueryBudget::default()
        };
        let err = system
            .subscribe(&QueryRequest::new(r#""database""#).budget(budget))
            .unwrap_err();
        assert!(err.to_string().contains("partial"), "{err}");
        assert_eq!(system.live_stats().active, 0);
    }

    #[test]
    fn failed_maintenance_resyncs_instead_of_dropping() {
        let (fs, system, sync) = system_with_file("a.txt", "database tuning");
        let live = system
            .subscribe(&QueryRequest::new(r#""database""#))
            .unwrap();
        assert_eq!(system.live_stats().active, 1);

        // The next maintenance pass fails; the resync succeeds and the
        // subscription survives with correct rows.
        system.inject_live_failures(1, 0);
        let dir = fs.resolve("/docs").unwrap();
        fs.create_file(dir, "b.txt", "database extras", t())
            .unwrap();
        sync.sync_round().unwrap();
        system.pump_subscriptions();

        let stats = system.live_stats();
        assert_eq!(stats.active, 1, "subscription survived the failure");
        assert_eq!(stats.maintain_failures, 1);
        assert_eq!(stats.resyncs, 1);
        assert_eq!(stats.dropped, 0);
        // The resync delta carries the new row; totals match a fresh run.
        let deltas = live.poll();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].added.len(), 1);
        let fresh = system.run(&QueryRequest::new(r#""database""#)).unwrap();
        assert_eq!(deltas[0].total, fresh.result.rows.len());

        // And the subscription keeps maintaining normally afterwards.
        fs.create_file(dir, "c.txt", "database more", t()).unwrap();
        sync.sync_round().unwrap();
        system.pump_subscriptions();
        assert_eq!(live.poll().len(), 1);
        assert_eq!(system.live_stats().active, 1);
    }

    #[test]
    fn persistent_failure_drops_only_after_the_limit() {
        let (fs, system, sync) = system_with_file("a.txt", "database tuning");
        let live = system
            .subscribe(&QueryRequest::new(r#""database""#))
            .unwrap();

        // Fail maintenance once and every resync attempt: pass 1 is
        // maintain-fail + resync-fail, passes 2..N go straight to the
        // (failing) resync. Only after MAX consecutive failures is the
        // subscription dropped.
        let max = u64::from(MAX_CONSECUTIVE_MAINTENANCE_FAILURES);
        system.inject_live_failures(1, max);
        let dir = fs.resolve("/docs").unwrap();
        for round in 0..MAX_CONSECUTIVE_MAINTENANCE_FAILURES {
            assert_eq!(
                system.live_stats().active,
                1,
                "still alive before round {round}"
            );
            let name = format!("f{round}.txt");
            fs.create_file(dir, &name, "database row", t()).unwrap();
            sync.sync_round().unwrap();
            system.pump_subscriptions();
        }
        let stats = system.live_stats();
        assert_eq!(stats.active, 0, "dropped after {max} consecutive failures");
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.maintain_failures, 1, "only the first pass maintained");
        assert_eq!(stats.resyncs, 0);
        drop(live);
    }

    #[test]
    fn dropped_handles_are_pruned() {
        let (fs, system, sync) = system_with_file("a.txt", "database tuning");
        let live = system
            .subscribe(&QueryRequest::new(r#""database""#))
            .unwrap();
        assert_eq!(system.live_stats().active, 1);
        drop(live);
        let dir = fs.resolve("/docs").unwrap();
        fs.create_file(dir, "d.txt", "database again", t()).unwrap();
        sync.sync_round().unwrap();
        system.pump_subscriptions();
        assert_eq!(system.live_stats().active, 0);
        assert!(system.live_stats().dropped >= 1);
    }
}
