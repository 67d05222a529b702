//! The Resource View Manager: drives ingestion through the Figure 5
//! pipeline — data source access, content conversion, catalog insert,
//! component indexing — timing each phase separately so the paper's
//! indexing-time breakdown can be regenerated.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use idm_core::fault::{FaultStats, SourceGuard};
use idm_core::prelude::*;
use idm_index::{ContentIndexing, IndexBundle, IndexSegment};
use parking_lot::Mutex;

use crate::converter::ConverterRegistry;
use crate::source::DataSourcePlugin;

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
    /// plus forcing content components from the source).
    pub data_source_access: Duration,
    /// Content2iDM conversion time (reported inside "component
    /// indexing" when reproducing Figure 5's three-way split).
    pub conversion: Duration,
    /// Figure 5 phase: registering all views in the catalog.
    pub catalog_insert: Duration,
    /// Figure 5 phase: inserting components into the index structures.
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

/// Tuning knobs for the bulk ingest pipeline
/// ([`ResourceViewManager::ingest_all_bulk`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkIngestOptions {
    /// Worker threads building index segments in parallel. `1` keeps
    /// the run fully deterministic (same chunk order as sequential).
    pub parallelism: usize,
    /// Views per index segment (one segment = one unit of parallel
    /// build work, merged in chunk order).
    pub segment_size: usize,
}

impl Default for BulkIngestOptions {
    fn default() -> Self {
        BulkIngestOptions {
            parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            segment_size: 512,
        }
    }
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
    /// Index segments built by the bulk pipeline (0 sequentially).
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

/// The outcome of a resilient multi-source ingestion: per-source stats
/// for the sources that succeeded, and the errors of those that did not.
#[derive(Debug, Default)]
pub struct IngestReport {
    /// Stats of successfully ingested sources, in registration order.
    pub stats: Vec<SourceIngestStats>,
    /// `(source name, error)` for every source whose ingestion failed
    /// after retries — quarantined rather than failing the dataspace.
    pub failed: Vec<(String, IdmError)>,
    /// Run-wide write-path throughput (records/sec, fsync counts).
    pub throughput: IngestThroughput,
}

impl IngestReport {
    /// Total views across all successful sources.
    pub fn total_views(&self) -> usize {
        self.stats.iter().map(SourceIngestStats::total_views).sum()
    }
}

/// The Resource View Manager (Figure 4).
pub struct ResourceViewManager {
    store: Arc<ViewStore>,
    indexes: Arc<IndexBundle>,
    converters: ConverterRegistry,
    plugins: Mutex<Vec<Arc<dyn DataSourcePlugin>>>,
    /// Shared fault counters across every source guard of this system.
    fault_stats: Arc<FaultStats>,
    /// Per-source retry/breaker guards, created on demand.
    guards: Mutex<HashMap<String, Arc<SourceGuard>>>,
}

impl ResourceViewManager {
    /// An RVM with the default converter registry (XML + LaTeX).
    pub fn new(store: Arc<ViewStore>, indexes: Arc<IndexBundle>) -> Self {
        ResourceViewManager {
            store,
            indexes,
            converters: ConverterRegistry::with_defaults(),
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

    /// Replaces the converter registry.
    pub fn set_converters(&mut self, converters: ConverterRegistry) {
        self.converters = converters;
    }

    /// The converter registry.
    pub fn converters(&self) -> &ConverterRegistry {
        &self.converters
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
    /// order; returns per-source statistics. Fails fast on the first
    /// failing source; [`ResourceViewManager::ingest_all_resilient`]
    /// quarantines failures instead.
    pub fn ingest_all(&self) -> Result<Vec<SourceIngestStats>> {
        self.ingest_each(None, false).map(|report| report.stats)
    }

    /// Ingests every registered source, quarantining sources that fail
    /// after retries instead of aborting: one unreachable substrate
    /// degrades one source, not the whole dataspace.
    pub fn ingest_all_resilient(&self) -> IngestReport {
        // Without a bulk WAL window the only error paths are per-source
        // and quarantined, so the result is always `Ok`.
        self.ingest_each(None, true).unwrap_or_default()
    }

    /// Ingests every registered source through the bulk pipeline: store
    /// application batched per source, WAL syncs deferred to batch
    /// boundaries (records acknowledged only after the window's final
    /// covering sync), and index segments built in parallel and merged
    /// in chunk order. Fails fast like [`ResourceViewManager::ingest_all`].
    pub fn ingest_all_bulk(&self, options: &BulkIngestOptions) -> Result<IngestReport> {
        self.ingest_each(Some(options), false)
    }

    /// The one per-plugin ingest loop behind every `ingest_all*`
    /// front end: sequential or bulk, fail-fast or quarantining.
    fn ingest_each(
        &self,
        bulk: Option<&BulkIngestOptions>,
        resilient: bool,
    ) -> Result<IngestReport> {
        let start = Instant::now();
        let wal_before = self.store.wal_telemetry();
        // Bulk runs defer WAL syncs to batch boundaries for the whole
        // multi-source window; the scope's final covering sync is what
        // acknowledges the run's records.
        let scope = if bulk.is_some() {
            self.store.wal_bulk_scope()
        } else {
            None
        };

        let mut report = IngestReport::default();
        let mut segments = 0usize;
        let mut fatal: Option<IdmError> = None;
        for plugin in self.sources() {
            let attempt = match bulk {
                Some(options) => self.ingest_source_bulk(&plugin, options, &mut segments),
                None => self.ingest_source(&plugin),
            };
            match attempt {
                Ok(stats) => report.stats.push(stats),
                Err(err) if resilient => report.failed.push((plugin.name().to_owned(), err)),
                Err(err) => {
                    fatal = Some(err);
                    break;
                }
            }
        }

        // Close the bulk window before sampling telemetry so the final
        // covering sync is counted — and surfaced: a failed sync means
        // the window's records were never acknowledged.
        if let Some(scope) = scope {
            if let Err(e) = scope.finish() {
                fatal.get_or_insert_with(|| crate::durability_err(e));
            }
        }
        if let Some(err) = fatal {
            return Err(err);
        }

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

    /// Ingests and indexes one source through the phased pipeline.
    pub fn ingest_source(&self, plugin: &Arc<dyn DataSourcePlugin>) -> Result<SourceIngestStats> {
        let mut stats = SourceIngestStats {
            source: plugin.name().to_owned(),
            ..SourceIngestStats::default()
        };
        let views = self.acquire_and_convert(plugin, false, &mut stats)?;

        // Phase 3 — component indexing (name/tuple/content/group).
        let mut outcomes = Vec::with_capacity(views.len());
        let indexing_start = Instant::now();
        for &vid in &views {
            let outcome = self.indexes.index_components(&self.store, vid)?;
            if let ContentIndexing::Indexed { bytes } = outcome {
                stats.net_input_bytes += bytes as u64;
            }
            outcomes.push(outcome);
        }
        stats.component_indexing = indexing_start.elapsed();

        // Phase 4 — catalog insert.
        let catalog_start = Instant::now();
        for (&vid, &outcome) in views.iter().zip(&outcomes) {
            self.indexes
                .register_in_catalog(&self.store, vid, plugin.name(), outcome)?;
        }
        stats.catalog_insert = catalog_start.elapsed();

        Ok(stats)
    }

    /// [`ResourceViewManager::ingest_source`] through the bulk pipeline:
    /// batched store application (phase 1) and deferred indexing —
    /// per-chunk [`IndexSegment`]s built on scoped worker threads, then
    /// merged into the live bundle in chunk order so insert order (and
    /// thus every structure) matches the sequential path exactly.
    fn ingest_source_bulk(
        &self,
        plugin: &Arc<dyn DataSourcePlugin>,
        options: &BulkIngestOptions,
        segments: &mut usize,
    ) -> Result<SourceIngestStats> {
        let mut stats = SourceIngestStats {
            source: plugin.name().to_owned(),
            ..SourceIngestStats::default()
        };
        let views = self.acquire_and_convert(plugin, true, &mut stats)?;

        // Phase 3 — segment build: chunks partition the vid-sorted view
        // list contiguously; workers claim chunks by index, so with
        // parallelism 1 the build order equals the merge order.
        let chunks: Vec<&[Vid]> = views.chunks(options.segment_size.max(1)).collect();
        let indexing_start = Instant::now();
        let workers = options.parallelism.max(1).min(chunks.len().max(1));
        let next = AtomicUsize::new(0);
        let built: Mutex<Vec<(usize, Result<IndexSegment>)>> =
            Mutex::new(Vec::with_capacity(chunks.len()));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(chunk) = chunks.get(i) else { break };
                    let segment = IndexSegment::build(&self.store, chunk, plugin.name());
                    built.lock().push((i, segment));
                });
            }
        });
        let mut built = built.into_inner();
        built.sort_by_key(|(i, _)| *i);
        stats.component_indexing = indexing_start.elapsed();

        // Phase 4 — merge (the bulk counterpart of catalog insert plus
        // index insertion, timed as one phase).
        let merge_start = Instant::now();
        for (_, segment) in built {
            let segment = segment?;
            stats.net_input_bytes += segment.net_input_bytes();
            *segments += 1;
            self.indexes.merge_segment(segment);
        }
        stats.catalog_insert = merge_start.elapsed();

        Ok(stats)
    }

    /// Phases 1–2 of the Figure 5 pipeline (data source access and
    /// Content2iDM conversion), shared by the sequential and bulk
    /// paths; returns the source's full vid-sorted view set.
    fn acquire_and_convert(
        &self,
        plugin: &Arc<dyn DataSourcePlugin>,
        bulk: bool,
        stats: &mut SourceIngestStats,
    ) -> Result<Vec<Vid>> {
        // Phase 1 — data source access: represent the source as an
        // initial iDM graph and pull every content component's bytes
        // from the source (later phases hit the cache). The guard
        // retries transient substrate failures and trips the source's
        // breaker when they persist.
        let guard = self.guard_for(plugin.name());
        let access_start = Instant::now();
        let ingestion = guard.call(|| {
            if bulk {
                plugin.ingest_bulk(&self.store)
            } else {
                plugin.ingest(&self.store)
            }
        })?;
        stats.base_views = ingestion.base_views.len();
        for &vid in &ingestion.base_views {
            let content = guard.call(|| self.store.content(vid))?;
            if content.is_finite() && !content.is_empty() {
                let bytes = content.bytes()?;
                stats.total_content_bytes += bytes.len() as u64;
            }
        }
        stats.data_source_access = access_start.elapsed();

        // Phase 2 — Content2iDM conversion: enrich with the structural
        // subgraphs of XML and LaTeX content (Section 5.2, part 2).
        let conversion_start = Instant::now();
        let conversion = self
            .converters
            .convert_all(&self.store, &ingestion.base_views)?;
        stats.derived_xml = conversion.derived_xml;
        stats.derived_latex = conversion.derived_latex;
        stats.conversion = conversion_start.elapsed();

        // Collect the full view set of this source: base + derived.
        let mut views = ingestion.base_views.clone();
        {
            let base: std::collections::HashSet<Vid> =
                ingestion.base_views.iter().copied().collect();
            for &root in &ingestion.base_views {
                // Derived views hang under their base view's group.
                for vid in idm_core::graph::descendants(&self.store, root, usize::MAX)? {
                    if !base.contains(&vid) {
                        views.push(vid);
                    }
                }
            }
            views.sort();
            views.dedup();
        }
        Ok(views)
    }
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
        let stats = rvm.ingest_all().unwrap();
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

    #[test]
    fn bulk_ingest_matches_sequential() {
        let (seq, _fs) = rvm_with_fs();
        let (bulk, _fs2) = rvm_with_fs();
        let seq_stats = seq.ingest_all().unwrap();
        let report = bulk
            .ingest_all_bulk(&BulkIngestOptions {
                parallelism: 2,
                segment_size: 2,
            })
            .unwrap();

        assert_eq!(report.stats.len(), 1);
        let (s, b) = (&seq_stats[0], &report.stats[0]);
        assert_eq!(b.base_views, s.base_views);
        assert_eq!(b.derived_xml, s.derived_xml);
        assert_eq!(b.derived_latex, s.derived_latex);
        assert_eq!(b.net_input_bytes, s.net_input_bytes);

        // Segment merge yields the exact index state of the
        // record-at-a-time path.
        assert_eq!(bulk.indexes().catalog.len(), seq.indexes().catalog.len());
        assert_eq!(
            bulk.indexes().content.document_count(),
            seq.indexes().content.document_count()
        );
        assert_eq!(
            bulk.indexes().content.token_count(),
            seq.indexes().content.token_count()
        );
        assert_eq!(
            bulk.indexes().name.exact("vision.tex"),
            seq.indexes().name.exact("vision.tex")
        );
        // Derived-view vids depend on conversion order (a hash-map
        // walk), so compare phrase hits by name, not by raw vid.
        let hit_names = |rvm: &ResourceViewManager| -> Vec<Option<String>> {
            let mut names: Vec<Option<String>> = rvm
                .indexes()
                .content
                .phrase_query("dataspace abstraction")
                .into_iter()
                .map(|vid| rvm.store().name(vid).unwrap())
                .collect();
            names.sort();
            names
        };
        assert_eq!(hit_names(&bulk), hit_names(&seq));
        assert_eq!(
            bulk.indexes().sizes().total(),
            seq.indexes().sizes().total()
        );
    }

    #[test]
    fn bulk_ingest_populates_throughput() {
        let (rvm, _fs) = rvm_with_fs();
        let report = rvm
            .ingest_all_bulk(&BulkIngestOptions {
                parallelism: 1,
                segment_size: 3,
            })
            .unwrap();
        let t = &report.throughput;
        assert_eq!(t.views, report.total_views());
        assert!(t.views > 0);
        assert!(t.segments >= 2, "chunking produced {} segments", t.segments);
        assert!(t.views_per_sec() > 0.0);
        // Not durable: no WAL attached, so write-path counters are zero.
        assert_eq!(t.wal_records, 0);
        assert_eq!(t.fsyncs, 0);
    }
}
