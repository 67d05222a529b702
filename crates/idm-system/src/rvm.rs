//! The Resource View Manager: drives ingestion through the Figure 5
//! pipeline — data source access, content conversion, catalog insert,
//! component indexing — timing each phase separately so the paper's
//! indexing-time breakdown can be regenerated.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use idm_core::fault::{BreakerState, FaultStats, SourceGuard};
use idm_core::prelude::*;
use idm_index::IndexBundle;
use parking_lot::Mutex;

use crate::converter::convert_all;
use crate::source::{DataSourcePlugin, ReadAhead};

/// Per-source ingestion statistics: the raw material for Table 2
/// (view counts), Table 3 (net input size) and Figure 5 (phase times).
#[derive(Debug, Clone, Default)]
pub struct SourceIngestStats {
    /// Data source name.
    pub source: String,
    /// Views for base items (files&folders; emails, mail folders and
    /// attachments; stream heads).
    pub base_views: usize,
    /// Views derived from XML content.
    pub derived_xml: usize,
    /// Views derived from LaTeX content.
    pub derived_latex: usize,
    /// Bytes of text handed to the content index (Table 3's net input
    /// data size).
    pub net_input_bytes: u64,
    /// Total bytes of finite content encountered (indexable or not).
    pub total_content_bytes: u64,
    /// Figure 5 phase: time obtaining data from the source (ingestion
    /// plus forcing content components from the source). For a source
    /// read ahead, the reader thread's time on the source stands in for
    /// the ingest's wait for it, so the phases of two sources may
    /// overlap in wall time.
    pub data_source_access: Duration,
    /// Content2iDM conversion time (reported inside "component
    /// indexing" when reproducing Figure 5's three-way split).
    pub conversion: Duration,
    /// Figure 5 phase: registering all views in the catalog, measured
    /// as the merge of the built index segments into the bundle.
    pub catalog_insert: Duration,
    /// Figure 5 phase: preparing the components for the index
    /// structures, measured as the build of the index segments.
    pub component_indexing: Duration,
}

impl SourceIngestStats {
    /// Total views (base + derived).
    pub fn total_views(&self) -> usize {
        self.base_views + self.derived_xml + self.derived_latex
    }

    /// Total derived views.
    pub fn derived_views(&self) -> usize {
        self.derived_xml + self.derived_latex
    }

    /// Total indexing time across all phases.
    pub fn total_time(&self) -> Duration {
        self.data_source_access + self.conversion + self.catalog_insert + self.component_indexing
    }
}

/// Options of [`crate::Pdsms::index_all_bulk`]. Nothing here changes an
/// ingest: it runs on the calling thread and cuts its index segments at
/// [`idm_index::SEGMENT_VIEWS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BulkIngestOptions {
    /// Ignored. Kept so that callers which set it by name still build.
    pub parallelism: usize,
}

/// Write-path throughput of one whole ingest run (all sources).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestThroughput {
    /// Total views ingested (base + derived, all sources).
    pub views: usize,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// WAL records appended during the run (0 when not durable).
    pub wal_records: u64,
    /// WAL write groups issued (each one buffered `write_all`).
    pub wal_batches: u64,
    /// `sync_data`/`sync_all` calls issued by the WAL writer.
    pub fsyncs: u64,
    /// Fsyncs avoided versus one-fsync-per-record (under
    /// `SyncPolicy::Fsync`; 0 under write-back).
    pub fsyncs_saved: u64,
    /// Index segments built and merged.
    pub segments: usize,
}

impl IngestThroughput {
    /// Ingested views per second.
    pub fn views_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.views as f64 / secs
        } else {
            0.0
        }
    }
}

/// The outcome of a multi-source ingestion: per-source stats and the
/// run's write-path throughput.
#[derive(Debug, Default)]
pub struct IngestReport {
    /// Stats of every ingested source, in registration order.
    pub stats: Vec<SourceIngestStats>,
    /// Run-wide write-path throughput (records/sec, fsync counts).
    pub throughput: IngestThroughput,
}

impl IngestReport {
    /// Total views across all sources.
    pub fn total_views(&self) -> usize {
        self.stats.iter().map(SourceIngestStats::total_views).sum()
    }
}

/// The Resource View Manager (Figure 4).
pub struct ResourceViewManager {
    store: Arc<ViewStore>,
    indexes: Arc<IndexBundle>,
    plugins: Mutex<Vec<Arc<dyn DataSourcePlugin>>>,
    /// Shared fault counters across every source guard of this system.
    fault_stats: Arc<FaultStats>,
    /// Per-source retry/breaker guards, created on demand.
    guards: Mutex<HashMap<String, Arc<SourceGuard>>>,
}

impl ResourceViewManager {
    /// An RVM with no sources registered.
    pub fn new(store: Arc<ViewStore>, indexes: Arc<IndexBundle>) -> Self {
        ResourceViewManager {
            store,
            indexes,
            plugins: Mutex::new(Vec::new()),
            fault_stats: Arc::new(FaultStats::new()),
            guards: Mutex::new(HashMap::new()),
        }
    }

    /// The shared fault counters of this system's source guards.
    pub fn fault_stats(&self) -> &Arc<FaultStats> {
        &self.fault_stats
    }

    /// The retry/breaker guard for `source`, created with defaults on
    /// first use. One guard (and thus one breaker) per source name.
    pub fn guard_for(&self, source: &str) -> Arc<SourceGuard> {
        Arc::clone(
            self.guards
                .lock()
                .entry(source.to_owned())
                .or_insert_with(|| {
                    Arc::new(SourceGuard::with_defaults(
                        source,
                        Arc::clone(&self.fault_stats),
                    ))
                }),
        )
    }

    /// Replaces the guard for `source` (custom retry policy / breaker).
    pub fn set_source_guard(&self, source: &str, guard: SourceGuard) {
        self.guards
            .lock()
            .insert(source.to_owned(), Arc::new(guard));
    }

    /// The breaker state of every instantiated source guard, sorted by
    /// source name — the shell's `\stats` overload panel.
    pub fn guard_states(&self) -> Vec<(String, idm_core::fault::BreakerState)> {
        let mut out: Vec<(String, idm_core::fault::BreakerState)> = self
            .guards
            .lock()
            .iter()
            .map(|(name, guard)| (name.clone(), guard.breaker().state()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The store.
    pub fn store(&self) -> &Arc<ViewStore> {
        &self.store
    }

    /// The index bundle.
    pub fn indexes(&self) -> &Arc<IndexBundle> {
        &self.indexes
    }

    /// Registers a data source plugin.
    pub fn register_source(&self, plugin: Arc<dyn DataSourcePlugin>) {
        self.plugins.lock().push(plugin);
    }

    /// The registered plugins.
    pub fn sources(&self) -> Vec<Arc<dyn DataSourcePlugin>> {
        self.plugins.lock().clone()
    }

    /// Ingests and indexes every registered source in registration
    /// order on the calling thread: the filesystem's views inserted as
    /// one batch, WAL syncs deferred to batch boundaries (records
    /// acknowledged only after the window's final covering sync), and
    /// index segments built and merged one at a time. Fails fast on the
    /// first failing source, after closing the WAL window.
    ///
    /// Every source that can [read ahead](DataSourcePlugin::read_ahead)
    /// (IMAP: one reader thread, at most about 1 MiB of wire queued)
    /// starts reading at the beginning, unless its breaker is open, so
    /// its I/O overlaps the ingest of the sources before it. Conversion
    /// and vid minting stay on the calling thread, in registration
    /// order. The handles drop on every return: no reader outlives the
    /// call, and nothing read ahead is kept for a later ingest.
    pub fn ingest_all(&self) -> Result<IngestReport> {
        let start = Instant::now();
        let wal_before = self.store.wal_telemetry();
        let sources = self.sources();
        let _read_ahead: Vec<ReadAhead> = sources
            .iter()
            .filter(|plugin| self.guard_for(plugin.name()).breaker().state() != BreakerState::Open)
            .filter_map(|plugin| plugin.read_ahead())
            .collect();
        // WAL syncs are deferred to batch boundaries for the whole
        // multi-source window; the scope's final covering sync is what
        // acknowledges the run's records.
        let scope = self.store.wal_bulk_scope();

        let mut report = IngestReport::default();
        let mut segments = 0usize;
        let ingested = sources.iter().try_for_each(|plugin| {
            let stats = self.ingest_source(plugin, &mut segments)?;
            report.stats.push(stats);
            Ok(())
        });
        // Label the group replica once more, so no view this ingest
        // attached is left to its overlay.
        self.indexes.group.relabel();

        // Close the window before sampling telemetry so the final
        // covering sync is counted — and surfaced: a failed sync means
        // the window's records were never acknowledged.
        let finished = scope.map_or(Ok(()), |scope| {
            scope.finish().map_err(crate::durability_err)
        });
        ingested.and(finished)?;

        report.throughput = IngestThroughput {
            views: report.total_views(),
            elapsed: start.elapsed(),
            segments,
            ..IngestThroughput::default()
        };
        if let (Some(before), Some(after)) = (wal_before, self.store.wal_telemetry()) {
            report.throughput.wal_records = after.frames - before.frames;
            report.throughput.wal_batches = after.groups - before.groups;
            report.throughput.fsyncs = after.syncs - before.syncs;
            report.throughput.fsyncs_saved =
                after.syncs_saved().saturating_sub(before.syncs_saved());
        }
        Ok(report)
    }

    /// Ingests and indexes one source through the four Figure 5 phases;
    /// adds the index segments it built to `segments`.
    fn ingest_source(
        &self,
        plugin: &Arc<dyn DataSourcePlugin>,
        segments: &mut usize,
    ) -> Result<SourceIngestStats> {
        let mut stats = SourceIngestStats {
            source: plugin.name().to_owned(),
            ..SourceIngestStats::default()
        };

        // Phase 1 — data source access: represent the source as an
        // initial iDM graph and pull every content component's bytes
        // from the source (later phases hit the cache). The guard
        // retries transient substrate failures and trips the source's
        // breaker when they persist.
        let guard = self.guard_for(plugin.name());
        let access_start = Instant::now();
        let ingestion = guard.call(|| plugin.ingest(&self.store))?;
        stats.base_views = ingestion.base_views.len();
        for &vid in &ingestion.base_views {
            let content = guard.call(|| self.store.content(vid))?;
            if content.is_finite() && !content.is_empty() {
                let bytes = content.bytes()?;
                stats.total_content_bytes += bytes.len() as u64;
            }
        }
        stats.data_source_access =
            access_start.elapsed().saturating_sub(ingestion.read_wait) + ingestion.read_busy;

        // Phase 2 — Content2iDM conversion: enrich with the structural
        // subgraphs of XML and LaTeX content (Section 5.2, part 2).
        let conversion_start = Instant::now();
        let conversion = convert_all(&self.store, &ingestion.base_views)?;
        stats.derived_xml = conversion.derived_xml;
        stats.derived_latex = conversion.derived_latex;
        stats.conversion = conversion_start.elapsed();

        // Phases 3 and 4 — component indexing (segment build) and
        // catalog insert (segment merge) of the source's full view set:
        // its base views and the views they own.
        let views = with_owned(&self.store, &ingestion.base_views);
        let run = self
            .indexes
            .index_views(&self.store, &views, plugin.name())?;
        stats.net_input_bytes = run.net_input_bytes;
        stats.component_indexing = run.build;
        stats.catalog_insert = run.merge;
        *segments += run.segments;
        Ok(stats)
    }
}

/// `base_views` and every view each of them owns
/// ([`ViewStore::owned`]), sorted and deduplicated: the views a base
/// view brings with it. Ownership, not reachability — a folder link or
/// a `\ref` points across to views this set does not take.
pub(crate) fn with_owned(store: &ViewStore, base_views: &[Vid]) -> Vec<Vid> {
    let mut views = base_views.to_vec();
    for &base in base_views {
        views.extend(store.owned(base));
    }
    views.sort_unstable();
    views.dedup();
    views
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FsPlugin;
    use idm_vfs::{NodeId, VirtualFs};

    fn t() -> Timestamp {
        Timestamp::from_ymd(2005, 6, 1).unwrap()
    }

    fn rvm_with_fs() -> (ResourceViewManager, Arc<VirtualFs>) {
        let fs = Arc::new(VirtualFs::new(t()));
        let dir = fs.mkdir_p("/papers", t()).unwrap();
        fs.create_file(
            dir,
            "vision.tex",
            "\\section{A Vision}\ndataspace abstraction text",
            t(),
        )
        .unwrap();
        fs.create_file(dir, "data.xml", "<r><e>payload</e></r>", t())
            .unwrap();
        fs.create_file(dir, "photo.jpg", vec![0u8, 1, 2, 0, 0], t())
            .unwrap();

        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        let rvm = ResourceViewManager::new(store, indexes);
        rvm.register_source(Arc::new(FsPlugin::new(Arc::clone(&fs), NodeId::ROOT)));
        (rvm, fs)
    }

    #[test]
    fn phased_ingestion_counts_and_sizes() {
        let (rvm, fs) = rvm_with_fs();
        let stats = rvm.ingest_all().unwrap().stats;
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        assert_eq!(s.source, "filesystem");
        assert_eq!(s.base_views, fs.node_count());
        assert!(s.derived_latex > 0, "LaTeX derived views");
        assert!(s.derived_xml > 0, "XML derived views");
        // The jpg is counted in total bytes but not net input.
        assert!(s.total_content_bytes > s.net_input_bytes || s.net_input_bytes > 0);

        // Everything (base + derived) is in the catalog.
        assert_eq!(rvm.indexes().catalog.len(), s.total_views());
    }

    #[test]
    fn derived_views_are_queryable_after_ingest() {
        let (rvm, _fs) = rvm_with_fs();
        rvm.ingest_all().unwrap();
        let processor =
            idm_query::QueryProcessor::new(Arc::clone(rvm.store()), Arc::clone(rvm.indexes()));
        let result = processor
            .execute(r#"//papers//*[class="latex_section"]"#)
            .unwrap();
        assert_eq!(result.rows.len(), 1);
        let result = processor.execute(r#""payload""#).unwrap();
        // The raw file bytes and the derived xmltext view both match.
        assert_eq!(result.rows.len(), 2, "XML text content indexed");
    }

    /// An ingest indexes every view it added to the store, into the
    /// bundle that indexing them one at a time builds, and two ingests
    /// of one source leave the same store image.
    #[test]
    fn bulk_ingest_matches_sequential() {
        use idm_core::durability::record::SerialView;
        use idm_index::SEGMENT_VIEWS;

        /// What the next checkpoint would write of the store.
        type Image = (u64, Vec<(Vid, u64, SerialView)>);
        fn image(store: &ViewStore) -> Image {
            let (export, ()) = store.frozen_export(|_| ());
            let views = export
                .views
                .iter()
                .map(|(vid, version, record)| {
                    (*vid, *version, SerialView::of(record, store.classes()))
                })
                .collect();
            (export.next_vid, views)
        }

        let (bulk, _fs) = rvm_with_fs();
        let report = bulk.ingest_all().unwrap();
        assert_eq!(report.stats.len(), 1);
        let s = &report.stats[0];
        assert_eq!(
            report.throughput.segments,
            s.total_views().div_ceil(SEGMENT_VIEWS)
        );

        let sequential = IndexBundle::new();
        for vid in bulk.store().vids() {
            sequential
                .index_view(bulk.store(), vid, "filesystem")
                .unwrap();
        }
        assert_eq!(sequential.catalog.len(), s.total_views());
        assert!(
            idm_index::persist::to_bytes_with_epoch(&sequential, 0)
                == idm_index::persist::to_bytes_with_epoch(bulk.indexes(), 0),
            "persisted index bytes differ"
        );

        let (again, _fs) = rvm_with_fs();
        let again_stats = again.ingest_all().unwrap().stats;
        let counts = |s: &SourceIngestStats| {
            let views = (s.base_views, s.derived_xml, s.derived_latex);
            (views, s.net_input_bytes)
        };
        assert_eq!(counts(&again_stats[0]), counts(s));
        assert_eq!(image(again.store()), image(bulk.store()));
    }

    #[test]
    fn bulk_ingest_populates_throughput() {
        let (rvm, _fs) = rvm_with_fs();
        let report = rvm.ingest_all().unwrap();
        let t = &report.throughput;
        assert_eq!(t.views, report.total_views());
        assert!(t.views > 0);
        assert_eq!(t.segments, t.views.div_ceil(idm_index::SEGMENT_VIEWS));
        assert!(t.views_per_sec() > 0.0);
        // Not durable: no WAL attached, so write-path counters are zero.
        assert_eq!(t.wal_records, 0);
        assert_eq!(t.fsyncs, 0);
    }
}
