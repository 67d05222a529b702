//! Live queries: standing subscriptions over the dataspace.
//!
//! A subscription is a [`QueryRequest`] whose result *stays* answered,
//! and it is not a second store of results: [`Pdsms::subscribe`]
//! attaches a listener to the request's entry in the system processor's
//! one table of standing results
//! ([`idm_query::ResultCache`] — the entry a `.cached()` request of the
//! same plan reads and every subscription that plans identically
//! shares), seeding it first if nobody has. How an entry is kept
//! current, what a failed refresh costs and when a handle is pruned are
//! that table's rules, documented there.
//! [`LiveStats::records_applied`] counts store changes × *distinct
//! subscribed plans*, however many handles share each, and
//! [`idm_query::ResultCacheCounters::maintained`] also counts refreshes
//! a pump drove.
//!
//! Delivery is pull-paced: a subscription hears of the store's changes
//! when [`Pdsms::pump_subscriptions`] runs — which the ingest paths
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

use idm_core::prelude::*;
use idm_query::QueryRequest;
pub use idm_query::{LiveQuery, LiveStats, MAX_CONSECUTIVE_MAINTENANCE_FAILURES};

use crate::Pdsms;

impl Pdsms {
    /// Registers `request` as a standing query and returns a
    /// [`LiveQuery`] whose delta channel is fed by
    /// [`Pdsms::pump_subscriptions`].
    ///
    /// A request whose budget truncates the execution is rejected — a
    /// partial result never seeds a standing one.
    pub fn subscribe(&self, request: &QueryRequest) -> Result<LiveQuery> {
        // Deliver anything pending first, so existing subscriptions are
        // current before the new handle's rows are taken.
        self.processor.pump();
        self.processor.subscribe(request)
    }

    /// Drives every live query: re-executes each subscribed standing
    /// result the store changed under and pushes the non-empty deltas
    /// to its handles. Returns the number of store changes since the
    /// previous pump. The ingest paths call this automatically;
    /// sync-round drivers should call it after each round.
    pub fn pump_subscriptions(&self) -> usize {
        self.processor.pump()
    }

    /// Counter totals for this system's live queries.
    pub fn live_stats(&self) -> LiveStats {
        self.processor.result_cache().live_stats()
    }

    /// Arms deterministic live-maintenance failure injection (see
    /// [`idm_query::ResultCache::inject_live_failures`]).
    pub fn inject_live_failures(&self, maintain: u64, resync: u64) {
        self.processor
            .result_cache()
            .inject_live_failures(maintain, resync);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FsPlugin;
    use idm_query::{QueryBudget, ResultDelta};
    use idm_vfs::{NodeId, VirtualFs};
    use std::collections::HashMap;
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

    /// A handle's rows: what it started with, moved by every delta.
    fn accumulate(
        rows: &mut std::collections::BTreeSet<Vid>,
        live: &LiveQuery,
    ) -> Vec<ResultDelta> {
        let deltas = live.poll();
        for delta in &deltas {
            for vid in delta.removed.views() {
                rows.remove(&vid);
            }
            rows.extend(delta.added.views());
        }
        deltas
    }

    fn fresh_rows(system: &Pdsms, iql: &str) -> std::collections::BTreeSet<Vid> {
        let fresh = system.run(&QueryRequest::new(iql)).unwrap();
        fresh.result.rows.views().into_iter().collect()
    }

    #[test]
    fn handles_of_one_plan_share_one_maintenance_pass() {
        let (fs, system, sync) = system_with_file("a.txt", "database tuning");
        let texts = [
            r#""database""#,
            r#""notes""#,
            r#"//docs/*"#,
            r#"//docs//*["database"]"#,
        ];
        let mut handles: Vec<_> = (0..32)
            .map(|i| {
                let iql = texts[i % texts.len()];
                let live = system.subscribe(&QueryRequest::new(iql)).unwrap();
                let rows = live.initial().rows.views().into_iter().collect();
                (iql, live, rows)
            })
            .collect();
        assert_eq!(system.live_stats().active, 32);
        assert_eq!(system.processor().result_cache().len(), texts.len());

        let before = system.live_stats();
        let dir = fs.resolve("/docs").unwrap();
        fs.create_file(dir, "b.txt", "more database notes", t())
            .unwrap();
        sync.sync_round().unwrap();
        let records = system.pump_subscriptions() as u64;
        assert!(records >= 1);

        // One pass per distinct plan, one batch per handle.
        let after = system.live_stats();
        assert_eq!(
            after.records_applied - before.records_applied,
            records * texts.len() as u64
        );
        assert_eq!(after.deltas_pushed - before.deltas_pushed, 32);
        let mut by_plan: HashMap<&str, ResultDelta> = HashMap::new();
        for (iql, live, rows) in &mut handles {
            let deltas = accumulate(rows, live);
            assert_eq!(deltas.len(), 1, "{iql}");
            let first = by_plan.entry(iql).or_insert_with(|| deltas[0].clone());
            assert_eq!(*first, deltas[0], "handles of {iql} see the same delta");
            assert_eq!(*rows, fresh_rows(&system, iql), "{iql}");
        }
    }

    #[test]
    fn identical_plans_share_an_entry() {
        let (_fs, system, _sync) = system_with_file("a.txt", "database tuning");
        let path = r#"//docs//*["database"]"#;
        let _a = system.subscribe(&QueryRequest::new(path)).unwrap();
        let _b = system
            .subscribe(&QueryRequest::new(r#"  //docs//*[ "database" ]  "#))
            .unwrap();
        assert_eq!(system.live_stats().active, 2);
        assert_eq!(system.processor().result_cache().len(), 1);
    }

    #[test]
    fn a_lookup_and_a_pump_deliver_each_change_exactly_once() {
        let (fs, system, sync) = system_with_file("a.txt", "database tuning");
        let iql = r#""database""#;
        let cached = QueryRequest::new(iql).cached();

        // Cached, then subscribed: the subscription is a hit on the
        // entry the cached request seeded.
        assert_eq!(system.run(&cached).unwrap().stats.result_cache_hits, 0);
        let live = system.subscribe(&QueryRequest::new(iql)).unwrap();
        assert_eq!(live.initial().stats.result_cache_hits, 1);
        assert_eq!(system.processor().result_cache().len(), 1);
        let mut rows = live.initial().rows.views().into_iter().collect();

        // The change is applied by a *lookup*, not a pump; the listener
        // still hears of it, once.
        let dir = fs.resolve("/docs").unwrap();
        fs.create_file(dir, "b.txt", "more database notes", t())
            .unwrap();
        sync.sync_round().unwrap();
        let hit = system.run(&cached).unwrap();
        assert_eq!(hit.stats.result_cache_hits, 1);
        assert_eq!(hit.result.rows.len(), 2);
        assert_eq!(accumulate(&mut rows, &live).len(), 1);
        assert_eq!(rows, fresh_rows(&system, iql));

        // The pump reports the round's changes but has nothing to add.
        assert!(system.pump_subscriptions() >= 1);
        assert!(live.poll().is_empty(), "nothing is pushed twice");
        assert_eq!(system.live_stats().deltas_pushed, 1);

        // Subscribed, then cached: the cached request is a free hit.
        let other = r#""tuning""#;
        let _live = system.subscribe(&QueryRequest::new(other)).unwrap();
        let hit = system.run(&QueryRequest::new(other).cached()).unwrap();
        assert_eq!(hit.stats.result_cache_hits, 1);
        assert_eq!(system.processor().result_cache().len(), 2);
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
        // pump delivers the change to the standing query.
        let dir = fs.resolve("/docs").unwrap();
        fs.create_file(dir, "b.txt", "more database notes", t())
            .unwrap();
        sync.sync_round().unwrap();
        assert!(system.pump_subscriptions() >= 1, "the round's changes");
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
    fn an_attribute_update_reaches_every_handle_of_a_path_query_once() {
        // One attribute change: no insert, remove or group edit.
        let (_fs, system, _sync) = system_with_file("a.txt", "database tuning");
        let iql = "//docs//*[size > 1000000]";
        let handles: Vec<LiveQuery> = (0..3)
            .map(|_| system.subscribe(&QueryRequest::new(iql)).unwrap())
            .collect();
        assert!(handles.iter().all(|live| live.initial().rows.is_empty()));

        let outcome = system
            .processor()
            .execute_update("update //a.txt set size = 5000000")
            .unwrap();
        assert_eq!(outcome.applied, 1);
        assert!(system.pump_subscriptions() >= 1);
        for live in &handles {
            let mut rows = Default::default();
            assert_eq!(accumulate(&mut rows, live).len(), 1);
            assert_eq!(rows, fresh_rows(&system, iql));
            assert_eq!(rows.len(), 1);
        }

        let pushed = system.live_stats().deltas_pushed;
        assert_eq!(system.pump_subscriptions(), 0);
        assert_eq!(system.live_stats().deltas_pushed, pushed);
        assert!(handles.iter().all(|live| live.poll().is_empty()));
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
