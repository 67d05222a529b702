//! # idm-system — the iMeMex Personal Dataspace Management System
//!
//! The architecture of Figure 4, Section 5: a logical **Resource View
//! Layer** abstracting over the underlying subsystems, composed of the
//! iQL Query Processor (in `idm-query`) and the **Resource View
//! Manager** built here from four parts:
//!
//! 1. **Data Source Proxy** ([`source`]) — plugins representing each
//!    subsystem (filesystem, IMAP email server, RSS feeds) as an
//!    initial iDM graph,
//! 2. **Content2iDM Converters** ([`converter`]) — enrich that graph by
//!    converting content components (XML, LaTeX) into resource view
//!    subgraphs,
//! 3. **Replica&Indexes Module** (`idm-index`) — driven by the RVM
//!    ([`rvm`]) with the Figure 5 phase accounting (catalog insert /
//!    component indexing / data source access),
//! 4. **Synchronization Manager** ([`sync`]) — observes data sources
//!    (notifications where available, polling otherwise) and keeps
//!    catalog, replicas and indexes current.
//!
//! [`Pdsms`] is the user-facing facade tying everything together. A
//! durable dataspace pairs the store's snapshot + WAL with a persisted
//! index bundle stamped with the LSN it was built at; [`Pdsms::open`]
//! recovers the store and then loads the bundle, re-indexing only the
//! views the replayed WAL tail names ([`IndexFate::CaughtUp`]) — the
//! Replica&Indexes module is derived state a start-up must not rebuild.

#![warn(missing_docs)]
// Substrate-facing code must degrade, not panic; tests unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod converter;
pub mod federation;
pub mod govern;
pub mod health;
pub mod live;
pub mod rvm;
pub mod sim;
pub mod source;
pub mod sync;

pub use converter::{Content2IdmConverter, ConverterRegistry};
pub use federation::{FederatedResult, FederatedRow, Federation};
pub use govern::{AdmissionGate, AdmissionPermit, AdmissionSnapshot, GovernorConfig};
pub use health::{HealthMonitor, HealthReport, HealthStats};
pub use idm_query::{QueryRequest, QueryResponse};
pub use live::{LiveQuery, LiveStats};
pub use rvm::{
    BulkIngestOptions, IngestReport, IngestThroughput, ResourceViewManager, SourceIngestStats,
};
pub use sim::{run_sim, SimConfig, SimCounters, SimOutcome};
pub use source::{DataSourcePlugin, FsPlugin, ImapPlugin, Ingestion, RssPlugin};
pub use sync::{ImapSynchronizationManager, SyncCoordinator, SyncDriver, SynchronizationManager};

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;

use idm_core::lineage::LineageGraph;
use idm_core::prelude::*;
use idm_index::IndexBundle;
use idm_query::{ExpansionStrategy, QueryProcessor};
use parking_lot::Mutex;

/// File name of the persisted index bundle inside a dataspace directory.
const INDEX_FILE: &str = "indexes.idm";

/// How [`Pdsms::open`] obtained its index bundle. With `L` the
/// recovered log sequence number and `B = L − records_replayed` the
/// base LSN of the snapshot recovery started from, a readable file
/// stamped with epoch `E` is `Loaded` when `E == L`, `CaughtUp` when
/// `B ≤ E < L`, and not to be trusted otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexFate {
    /// The stored bundle's epoch matched the recovered store — loaded
    /// as-is, no reindexing.
    Loaded,
    /// The stored bundle's epoch lay inside the replayed window, so it
    /// was behind the store in exactly the views the replayed records
    /// name: loaded, and those views re-indexed from the recovered store
    /// ([`IndexBundle::reindex_views`], the body audit repair uses).
    CaughtUp,
    /// A bundle existed but its epoch lay outside the replayed window —
    /// older than the snapshot recovery started from, or newer than the
    /// recovered log (it indexes records recovery discarded; the rebuilt
    /// bundle is saved over it so no later open can catch up from it) —
    /// rebuilt from the recovered views.
    RebuiltStaleEpoch,
    /// A bundle file existed but could not be read (corrupt, torn, or
    /// not an `IDMIDX02` file) — rebuilt.
    RebuiltUnreadable,
    /// No bundle file was present — rebuilt.
    RebuiltMissing,
}

/// Everything [`Pdsms::open`] did: store recovery plus the index
/// epoch handshake.
#[derive(Debug, Clone)]
pub struct OpenReport {
    /// What store recovery found and replayed.
    pub recovery: idm_core::durability::RecoveryReport,
    /// How the index bundle was obtained.
    pub index: IndexFate,
    /// Views indexed from the recovered store during the open: none when
    /// `Loaded`, the live ones among
    /// [`touched_vids`](idm_core::durability::RecoveryReport::touched_vids)
    /// when `CaughtUp`, every view when rebuilt.
    pub reindexed: usize,
}

impl fmt::Display for OpenReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}; indexes ", self.recovery)?;
        match self.index {
            IndexFate::Loaded => write!(f, "loaded (epoch matched)"),
            IndexFate::CaughtUp => write!(
                f,
                "caught up: {} view(s) re-indexed from {} replayed record(s)",
                self.reindexed, self.recovery.records_replayed
            ),
            IndexFate::RebuiltStaleEpoch => write!(f, "rebuilt (stale epoch)"),
            IndexFate::RebuiltUnreadable => write!(f, "rebuilt (file unreadable)"),
            IndexFate::RebuiltMissing => write!(f, "rebuilt (no index file)"),
        }
    }
}

fn durability_err(e: io::Error) -> IdmError {
    IdmError::Substrate {
        source: "durability".into(),
        kind: SubstrateFaultKind::Permanent,
        attempt: 1,
        detail: e.to_string(),
    }
}

/// The iMeMex Personal Dataspace Management System facade.
///
/// Owns one resource view store, its index bundle, the resource view
/// manager and the dataspace's one query processor (Figure 4).
pub struct Pdsms {
    store: Arc<ViewStore>,
    indexes: Arc<IndexBundle>,
    lineage: Arc<LineageGraph>,
    rvm: ResourceViewManager,
    durability: Option<Mutex<idm_core::durability::DurabilityManager>>,
    /// The one processor every query path of this system borrows; its
    /// expansion strategy is the system's, its caches live as long.
    processor: QueryProcessor,
    /// Admission control over the query path, when enabled: max
    /// concurrent queries plus a bounded, deadline-shedding wait queue.
    governor: Option<govern::AdmissionGate>,
}

impl Pdsms {
    /// A fresh, empty dataspace system with the default converter set
    /// (XML and LaTeX).
    pub fn new() -> Self {
        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        Pdsms::assemble(store, indexes, Arc::new(LineageGraph::new()), None)
    }

    fn assemble(
        store: Arc<ViewStore>,
        indexes: Arc<IndexBundle>,
        lineage: Arc<LineageGraph>,
        durability: Option<idm_core::durability::DurabilityManager>,
    ) -> Self {
        let rvm = ResourceViewManager::new(Arc::clone(&store), Arc::clone(&indexes));
        let processor = QueryProcessor::new(Arc::clone(&store), Arc::clone(&indexes));
        Pdsms {
            store,
            indexes,
            lineage,
            rvm,
            durability: durability.map(Mutex::new),
            processor,
            governor: None,
        }
    }

    /// Opens (recovers) a durable dataspace from `dir`: newest valid
    /// snapshot, WAL tail replay, torn-tail truncation, then the index
    /// epoch handshake ([`IndexFate`]) — the stored bundle is loaded when
    /// its epoch is the recovered store state or lies inside the replayed
    /// window, in which case the views the replayed records name are
    /// re-indexed into it; it is rebuilt otherwise. The cost is
    /// O(snapshot + tail), not O(dataspace × indexing).
    pub fn open(dir: impl AsRef<Path>) -> Result<(Pdsms, OpenReport)> {
        Pdsms::open_with(
            dir,
            idm_core::durability::DurabilityOptions::new(
                idm_core::durability::SyncPolicy::WriteBack,
            ),
        )
    }

    /// [`Pdsms::open`] with explicit durability options (the WAL's sync
    /// policy).
    pub fn open_with(
        dir: impl AsRef<Path>,
        options: idm_core::durability::DurabilityOptions,
    ) -> Result<(Pdsms, OpenReport)> {
        let dir = dir.as_ref();
        let (store, lineage, manager, recovery) =
            idm_core::durability::DurabilityManager::open(dir, options.sync)
                .map_err(durability_err)?;

        let index_path = dir.join(INDEX_FILE);
        let base_lsn = recovery.lsn - recovery.records_replayed;
        // A rebuild indexes every view; the two loading arms say less.
        let mut reindexed = store.len();
        let (indexes, fate) = match idm_index::persist::load_with_epoch(&index_path) {
            Ok((bundle, epoch)) if epoch == recovery.lsn => {
                reindexed = 0;
                (bundle, IndexFate::Loaded)
            }
            Ok((bundle, epoch)) if (base_lsn..recovery.lsn).contains(&epoch) => {
                // The file is behind the store in the views the replayed
                // records name, and in no others.
                let touched: Vec<Vid> = recovery
                    .touched_vids
                    .iter()
                    .map(|&vid| Vid::from_raw(vid))
                    .collect();
                reindexed = bundle.reindex_views(&store, &touched)?;
                (bundle, IndexFate::CaughtUp)
            }
            Ok((stale, epoch)) => {
                let bundle = Pdsms::rebuild_indexes(&store, Some(&stale))?;
                if epoch > recovery.lsn {
                    // The file indexes records recovery has just thrown
                    // away. Left in place it would pass for catch-up-able
                    // once the new history grows past its epoch, so the
                    // rebuilt bundle replaces it now.
                    idm_index::persist::save_with_epoch(&bundle, &index_path, recovery.lsn)
                        .map_err(durability_err)?;
                }
                (bundle, IndexFate::RebuiltStaleEpoch)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => (
                Pdsms::rebuild_indexes(&store, None)?,
                IndexFate::RebuiltMissing,
            ),
            Err(_) => (
                Pdsms::rebuild_indexes(&store, None)?,
                IndexFate::RebuiltUnreadable,
            ),
        };

        let system = Pdsms::assemble(store, Arc::new(indexes), lineage, Some(manager));
        Ok((
            system,
            OpenReport {
                recovery,
                index: fate,
                reindexed,
            },
        ))
    }

    /// Rebuilds an index bundle from the live views of a recovered
    /// store, one [`IndexBundle::index_views`] call per data source
    /// label. A stale bundle, when available, supplies the per-view
    /// labels; everything else defaults to `"dataspace"`.
    fn rebuild_indexes(store: &Arc<ViewStore>, stale: Option<&IndexBundle>) -> Result<IndexBundle> {
        let sources: HashMap<u64, String> = stale
            .map(|bundle| {
                bundle
                    .catalog
                    .export_rows()
                    .into_iter()
                    .map(|row| (row.vid, row.source))
                    .collect()
            })
            .unwrap_or_default();
        let mut by_source: BTreeMap<&str, Vec<Vid>> = BTreeMap::new();
        for vid in store.vids() {
            let source = sources
                .get(&vid.as_u64())
                .map_or("dataspace", String::as_str);
            by_source.entry(source).or_default().push(vid);
        }
        let bundle = IndexBundle::new();
        for (source, vids) in by_source {
            bundle.index_views(store, &vids, source, idm_index::SEGMENT_VIEWS, 1)?;
        }
        Ok(bundle)
    }

    /// Makes this (so far in-memory) dataspace durable in `dir`: writes
    /// the initial snapshot, arms write-ahead logging, and persists the
    /// index bundle stamped with the current epoch.
    pub fn make_durable(
        &mut self,
        dir: impl AsRef<Path>,
    ) -> Result<idm_core::durability::CheckpointStats> {
        self.make_durable_with(
            dir,
            idm_core::durability::DurabilityOptions::new(
                idm_core::durability::SyncPolicy::WriteBack,
            ),
        )
    }

    /// [`Pdsms::make_durable`] with explicit durability options (the
    /// WAL's sync policy).
    pub fn make_durable_with(
        &mut self,
        dir: impl AsRef<Path>,
        options: idm_core::durability::DurabilityOptions,
    ) -> Result<idm_core::durability::CheckpointStats> {
        if self.durability.is_some() {
            return Err(IdmError::Parse {
                detail: "dataspace is already durable".into(),
            });
        }
        let dir = dir.as_ref();
        let (manager, stats) = idm_core::durability::DurabilityManager::attach(
            dir,
            &self.store,
            &self.lineage,
            options.sync,
        )
        .map_err(durability_err)?;
        idm_index::persist::save_with_epoch(&self.indexes, &dir.join(INDEX_FILE), stats.lsn)
            .map_err(durability_err)?;
        self.durability = Some(Mutex::new(manager));
        Ok(stats)
    }

    /// Writes a checkpoint snapshot and persists the index bundle
    /// stamped with the checkpoint's log sequence number, so the next
    /// [`Pdsms::open`] loads both without replay or reindexing.
    pub fn checkpoint(&self) -> Result<idm_core::durability::CheckpointStats> {
        let manager = self.durability.as_ref().ok_or_else(|| IdmError::Parse {
            detail: "dataspace is not durable (use make_durable or open)".into(),
        })?;
        let stats = manager
            .lock()
            .checkpoint(&self.store, &self.lineage)
            .map_err(durability_err)?;
        idm_index::persist::save_with_epoch(
            &self.indexes,
            &self.dataspace_dir_of(manager).join(INDEX_FILE),
            stats.lsn,
        )
        .map_err(durability_err)?;
        Ok(stats)
    }

    fn dataspace_dir_of(
        &self,
        manager: &Mutex<idm_core::durability::DurabilityManager>,
    ) -> std::path::PathBuf {
        manager.lock().dir().to_path_buf()
    }

    /// Whether this dataspace is backed by a durable directory.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The dataspace directory, when durable.
    pub fn dataspace_dir(&self) -> Option<std::path::PathBuf> {
        self.durability
            .as_ref()
            .map(|m| m.lock().dir().to_path_buf())
    }

    /// The lineage graph (durable as of the last checkpoint).
    pub fn lineage(&self) -> &Arc<LineageGraph> {
        &self.lineage
    }

    /// Sets the expansion strategy used by this system's queries (and
    /// rendered in its plans).
    pub fn set_expansion(&mut self, strategy: ExpansionStrategy) {
        // Plans record the strategy, so the processor's caches need no
        // flush: a different strategy yields a different fingerprint.
        self.processor.set_expansion(strategy);
    }

    /// The configured expansion strategy.
    pub fn expansion(&self) -> ExpansionStrategy {
        self.processor.options().expansion
    }

    /// The resource view store.
    pub fn store(&self) -> &Arc<ViewStore> {
        &self.store
    }

    /// The index bundle.
    pub fn indexes(&self) -> &Arc<IndexBundle> {
        &self.indexes
    }

    /// The resource view manager.
    pub fn rvm(&self) -> &ResourceViewManager {
        &self.rvm
    }

    /// Mutable access to the resource view manager (plugin registration).
    pub fn rvm_mut(&mut self) -> &mut ResourceViewManager {
        &mut self.rvm
    }

    /// Registers a data source plugin.
    pub fn register_source(&mut self, plugin: Arc<dyn DataSourcePlugin>) {
        self.rvm.register_source(plugin);
    }

    /// Ingests and indexes every registered data source on the calling
    /// thread — [`Pdsms::index_all_bulk`] with parallelism 1 — and
    /// returns the per-source statistics (the Figure 5 / Table 2
    /// numbers). Live queries are pumped afterwards, so the ingested
    /// changes reach every subscription as one delta batch.
    pub fn index_all(&self) -> Result<Vec<SourceIngestStats>> {
        let stats = self.rvm.ingest_all()?;
        self.pump_subscriptions();
        Ok(stats)
    }

    /// Ingests and indexes every registered data source: batched store
    /// application, grouped WAL syncs, and index segments built in waves
    /// of `options.parallelism` threads. Returns the full report
    /// including [`IngestThroughput`] counters.
    pub fn index_all_bulk(&self, options: &BulkIngestOptions) -> Result<IngestReport> {
        let report = self.rvm.ingest_all_bulk(options)?;
        self.pump_subscriptions();
        Ok(report)
    }

    /// The fault counters shared by every source guard of this system
    /// (retries, breaker trips, fast failures).
    pub fn fault_stats(&self) -> &Arc<idm_core::fault::FaultStats> {
        self.rvm.fault_stats()
    }

    /// The system's own query processor — the one [`Pdsms::run`],
    /// [`Pdsms::explain`], [`Pdsms::subscribe`] and federation peers use,
    /// with caches that stay warm across calls. Calling it bypasses the
    /// admission gate.
    pub fn processor(&self) -> &QueryProcessor {
        &self.processor
    }

    /// An *additional*, owned processor for a caller that wants options
    /// of its own (parallelism, budget): the system's strategy, but
    /// caches of its own, which die with it.
    pub fn query_processor(&self) -> QueryProcessor {
        let mut processor = QueryProcessor::new(Arc::clone(&self.store), Arc::clone(&self.indexes));
        processor.set_expansion(self.expansion());
        processor
    }

    /// Enables admission control: at most `config.max_concurrent`
    /// queries run at once, at most `config.max_queued` wait, and
    /// waiters are shed at the queue deadline. Applies to
    /// [`Pdsms::run`].
    pub fn enable_governor(&mut self, config: govern::GovernorConfig) {
        self.governor = Some(govern::AdmissionGate::new(config));
    }

    /// The admission gate, when enabled.
    pub fn governor(&self) -> Option<&govern::AdmissionGate> {
        self.governor.as_ref()
    }

    /// Admission counters, when the governor is enabled (`shed` vs
    /// `deadline_exceeded` distinguish queue-full rejection from
    /// expiring while queued).
    pub fn governor_stats(&self) -> Option<govern::AdmissionSnapshot> {
        self.governor.as_ref().map(govern::AdmissionGate::snapshot)
    }

    /// Waits for an admission slot, when the governor is enabled; the
    /// request's wall-clock deadline (if any) also caps the wait.
    /// Dropping the permit on any return path (including
    /// budget-exhaustion errors) frees the slot and wakes one waiter.
    fn admit(&self, request: &QueryRequest) -> Result<Option<govern::AdmissionPermit<'_>>> {
        let deadline = request.requested_budget().and_then(|b| b.deadline);
        self.governor
            .as_ref()
            .map(|gate| gate.admit(deadline))
            .transpose()
    }

    /// Executes a [`QueryRequest`] on the system's processor (so a
    /// repeated [`QueryRequest::cached`] request hits) and through the
    /// admission gate, when enabled. This is the single query entry point.
    pub fn run(&self, request: &QueryRequest) -> Result<QueryResponse> {
        let _permit = self.admit(request)?;
        self.processor.run(request)
    }

    /// Renders the execution plan of a query — under the system's
    /// configured expansion strategy, so EXPLAIN always matches what
    /// [`Pdsms::run`] would run.
    pub fn explain(&self, iql: &str) -> Result<String> {
        self.processor.explain(iql)
    }
}

impl Default for Pdsms {
    fn default() -> Self {
        Pdsms::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idm_email::message::{Attachment, EmailMessage};
    use idm_email::ImapServer;
    use idm_vfs::{NodeId, VirtualFs};

    fn t() -> Timestamp {
        Timestamp::from_ymd(2005, 6, 1).unwrap()
    }

    /// End-to-end: Example 1 from the paper — a query bridging the
    /// inside-outside file boundary.
    #[test]
    fn example_1_inside_outside_files() {
        let fs = Arc::new(VirtualFs::new(t()));
        let pim = fs.mkdir_p("/Projects/PIM", t()).unwrap();
        fs.create_file(
            pim,
            "vldb2006.tex",
            "\\documentclass{vldb}\n\\section{Introduction}\nDataspaces by Mike Franklin.\n\\section{Related Work}\nOther systems.",
            t(),
        )
        .unwrap();
        let olap = fs.mkdir_p("/Projects/OLAP", t()).unwrap();
        fs.create_file(
            olap,
            "olap.tex",
            "\\section{Introduction}\nNo Franklin here.",
            t(),
        )
        .unwrap();

        let mut system = Pdsms::new();
        system.register_source(Arc::new(FsPlugin::new(Arc::clone(&fs), NodeId::ROOT)));
        let stats = system.index_all().unwrap();
        assert_eq!(stats.len(), 1);
        assert!(stats[0].derived_latex > 0, "LaTeX converter ran");

        // Query 1: LaTeX Introduction sections in project PIM containing
        // 'Mike Franklin'.
        let result = system
            .run(&QueryRequest::new(
                r#"//PIM//Introduction[class="latex_section" and "Mike Franklin"]"#,
            ))
            .unwrap()
            .result;
        assert_eq!(result.rows.len(), 1);

        // Without the PIM constraint both Introductions match the name.
        let result = system
            .run(&QueryRequest::new(
                r#"//Introduction[class="latex_section"]"#,
            ))
            .unwrap()
            .result;
        assert_eq!(result.rows.len(), 2);
    }

    /// End-to-end: Example 2 — files versus email attachments.
    #[test]
    fn example_2_files_vs_attachments() {
        let fs = Arc::new(VirtualFs::new(t()));
        let olap_dir = fs.mkdir_p("/Projects/OLAP", t()).unwrap();
        fs.create_file(
            olap_dir,
            "eval.tex",
            "\\section{Evaluation}\n\\begin{figure}\\caption{Indexing Time per source}\\label{fig:a}\\end{figure}",
            t(),
        )
        .unwrap();

        let server = Arc::new(ImapServer::in_process());
        let olap_mbox = server.create_mailbox(server.inbox(), "OLAP").unwrap();
        server
            .append(
                olap_mbox,
                &EmailMessage {
                    subject: "figures".into(),
                    from: "a@b".into(),
                    to: "c@d".into(),
                    date: t(),
                    body: "see attachment".into(),
                    attachments: vec![Attachment {
                        filename: "more.tex".into(),
                        content: "\\begin{figure}\\caption{Indexing Time again}\\label{fig:b}\\end{figure}".into(),
                    }],
                },
            )
            .unwrap();

        let mut system = Pdsms::new();
        system.register_source(Arc::new(FsPlugin::new(Arc::clone(&fs), NodeId::ROOT)));
        system.register_source(Arc::new(ImapPlugin::new(Arc::clone(&server))));
        system.index_all().unwrap();

        // Query 2: documents pertaining to project OLAP with a figure
        // whose label (caption) contains 'Indexing Time' — matches one
        // figure on disk AND one inside an email attachment.
        let result = system
            .run(&QueryRequest::new(
                r#"//OLAP//*[class="figure" and "Indexing Time"]"#,
            ))
            .unwrap()
            .result;
        assert_eq!(result.rows.len(), 2, "boundary between subsystems gone");
    }

    #[test]
    fn explain_renders_plans() {
        let system = Pdsms::new();
        let plan = system
            .explain(r#"//PIM//Introduction["Mike Franklin"]"#)
            .unwrap();
        assert!(plan.contains("Forward expansion"));
    }

    #[test]
    fn explain_uses_the_configured_strategy() {
        // Regression: explain used to hardcode forward expansion, so a
        // backward-configured system rendered plans it would never run.
        let mut system = Pdsms::new();
        system.set_expansion(idm_query::ExpansionStrategy::Backward);
        let plan = system
            .explain(r#"//PIM//Introduction["Mike Franklin"]"#)
            .unwrap();
        assert!(plan.contains("Backward expansion"), "{plan}");
        assert!(!plan.contains("Forward expansion"), "{plan}");
    }

    #[test]
    fn cached_requests_pass_the_admission_gate_on_miss_and_hit() {
        // The shell's route: `.cached()` through `run`, not around it.
        let mut system = Pdsms::new();
        system.enable_governor(GovernorConfig::default());
        let request = QueryRequest::new(r#""anything""#).cached();
        system.run(&request).unwrap();
        assert_eq!(system.governor_stats().unwrap().admitted, 1);
        // A result-cache hit is still a query: admitted and completed.
        system.run(&request).unwrap();
        let gate = system.governor_stats().unwrap();
        assert_eq!((gate.admitted, gate.completed, gate.running), (2, 2, 0));
    }

    #[test]
    fn query_explained_runs_the_rendered_plan() {
        let fs = Arc::new(VirtualFs::new(t()));
        let dir = fs.mkdir_p("/docs", t()).unwrap();
        fs.create_file(dir, "a.txt", "some database notes", t())
            .unwrap();
        let mut system = Pdsms::new();
        system.register_source(Arc::new(FsPlugin::new(fs, NodeId::ROOT)));
        system.index_all().unwrap();
        let iql = r#"//docs//*["database"]"#;
        let response = system.run(&QueryRequest::new(iql).explain()).unwrap();
        let (result, plan) = (response.result, response.explain.unwrap());
        assert_eq!(result.rows.len(), 1);
        assert_eq!(plan, system.explain(iql).unwrap(), "one renderer");
        // The rendered operators are the executed operators.
        assert!(plan.contains("Relate"), "{plan}");
        assert_eq!(result.stats.ops.relates, 1);
        assert_eq!(result.stats.ops.index_accesses, 2);
        assert_eq!(
            plan.matches("IndexAccess").count(),
            result.stats.ops.index_accesses
        );
    }
}
