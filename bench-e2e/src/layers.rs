//! Per-layer probes of the traced run: each times calls into one
//! layer's public functions, on the workload's own dataset, outside the
//! lifecycle so that its counts stay exact.

use std::path::Path;
use std::time::{Duration, Instant};

use idm_core::durability::DurabilityOptions;
use idm_core::prelude::{ChangeRecord, Content, SyncPolicy, Value, ViewStore};
use idm_index::name::NamePattern;
use idm_index::segment::IndexSegment;
use idm_index::tuple::CompareOp;
use idm_index::IndexBundle;
use idm_query::{MaintainedPlan, QueryBudget};
use idm_system::SourceIngestStats;
use idm_vfs::{NodeId, NodeKind};

use crate::report::{Metric, Samples};
use crate::scenario::{
    assemble, default_ingest_parallelism, ingest, Checker, Dataspace, SyncLoop, SyncSamples,
    INGEST_PARALLELISM,
};
use crate::trace::Tracer;
use crate::workloads::{IngestMode, Workload, STANDING};

/// Views per index segment in the build/merge probe (the bulk
/// pipeline's default).
const SEGMENT_VIEWS: usize = 512;
/// Repetitions of each index probe; the median is reported.
const PROBE_REPS: usize = 200;
/// Views inserted by the store probe and views reindexed by the
/// incremental-index probe.
const STORE_INSERTS: usize = 10_000;
const REINDEXED_VIEWS: usize = 50;
/// Sync iterations of the delta probe (whole file life cycles).
const DELTA_PROBE_ITERS: usize = 40;

/// A probe fails with a product error or an I/O error.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Bulk-ingests the workload's dataset (source latency off) on
/// `parallelism` threads into a dataspace made durable under `policy` in
/// `dir`, or kept in memory.
fn timed_bulk_ingest(
    w: &Workload,
    seed: u64,
    durable: Option<(&Path, SyncPolicy)>,
    parallelism: usize,
    tracer: &mut Tracer,
) -> Result<(Dataspace, Vec<SourceIngestStats>, f64)> {
    let mut space = assemble(w, seed, false);
    if let Some((dir, policy)) = durable {
        let _ = std::fs::remove_dir_all(dir);
        space
            .system
            .make_durable_with(dir, DurabilityOptions::new(policy))?;
    }
    let (stats, elapsed) = tracer.timed("probe.ingest", |_| {
        ingest(&space.system, IngestMode::Bulk, parallelism)
    });
    Ok((space, stats?, secs(elapsed)))
}

/// What the WAL costs an ingest of the same input: `core.wal.overhead_s`
/// = Fsync − in-memory, `core.wal.fsync_s` = Fsync − `WriteBack`; and
/// what the default worker threads buy: `system.ingest.parallel_speedup`
/// = in-memory time on one thread ÷ on `default_ingest_parallelism()`.
/// Returns the in-memory dataspace for the other probes.
pub fn ingest_cost(
    w: &Workload,
    seed: u64,
    data_dir: &Path,
    tracer: &mut Tracer,
    metrics: &mut Vec<Metric>,
) -> Result<(Dataspace, Vec<SourceIngestStats>)> {
    let dir = data_dir.join(format!("{}-walcost", w.name));
    let mut durable_s = |policy| -> Result<f64> {
        let durable = Some((dir.as_path(), policy));
        let (space, _, elapsed) = timed_bulk_ingest(w, seed, durable, INGEST_PARALLELISM, tracer)?;
        drop(space);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(elapsed)
    };
    let writeback_s = durable_s(SyncPolicy::WriteBack)?;
    let fsync_s = durable_s(SyncPolicy::Fsync)?;
    let threads = default_ingest_parallelism();
    let (parallel, _, parallel_s) = timed_bulk_ingest(w, seed, None, threads, tracer)?;
    drop(parallel);
    let (space, stats, memory_s) = timed_bulk_ingest(w, seed, None, INGEST_PARALLELISM, tracer)?;
    metrics.push(Metric::new(
        "core.wal.overhead_s",
        fsync_s - memory_s,
        "s",
        1,
    ));
    metrics.push(Metric::new(
        "core.wal.fsync_s",
        fsync_s - writeback_s,
        "s",
        1,
    ));
    metrics.push(Metric::new(
        "system.ingest.parallel_speedup",
        memory_s / parallel_s,
        "ratio",
        threads,
    ));
    Ok((space, stats))
}

/// Index build, persistence, size and lookup probes over an ingested
/// in-memory dataspace.
pub fn index_probes(
    space: &Dataspace,
    net_input_bytes: u64,
    data_dir: &Path,
    tracer: &mut Tracer,
    metrics: &mut Vec<Metric>,
) -> Result<()> {
    let store = space.system.store();
    let indexes = space.system.indexes();

    // Segment build + merge of the whole store into a fresh bundle.
    let fresh = IndexBundle::new();
    let (mut build, mut merge) = (Duration::ZERO, Duration::ZERO);
    let vids = store.vids();
    for chunk in vids.chunks(SEGMENT_VIEWS) {
        let (segment, d) = tracer.timed("probe.index.segment_build", |_| {
            IndexSegment::build(store, chunk, "probe")
        });
        build += d;
        let segment = segment?;
        merge += tracer
            .timed("probe.index.segment_merge", |_| {
                fresh.merge_segment(segment)
            })
            .1;
    }
    let chunks = vids.len().div_ceil(SEGMENT_VIEWS);
    metrics.push(Metric::new(
        "index.segment_build_s",
        secs(build),
        "s",
        chunks,
    ));
    metrics.push(Metric::new(
        "index.segment_merge_s",
        secs(merge),
        "s",
        chunks,
    ));
    drop(fresh);

    // Persist: save and load the bundle.
    let path = data_dir.join("probe-indexes.idm");
    let (saved, d_save) = tracer.timed("probe.index.persist_save", |_| {
        idm_index::persist::save_with_epoch(indexes, &path, 1)
    });
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let (loaded, d_load) = tracer.timed("probe.index.persist_load", |_| {
        idm_index::persist::load_with_epoch(&path)
    });
    let _ = std::fs::remove_file(&path);
    saved?;
    drop(loaded?);
    metrics.push(Metric::new("index.persist.save_s", secs(d_save), "s", 1));
    metrics.push(Metric::new("index.persist.load_s", secs(d_load), "s", 1));
    metrics.push(Metric::new("index.persist.bytes", bytes as f64, "bytes", 1));
    metrics.push(Metric::new(
        "index.bytes_per_input_byte",
        indexes.sizes().total() as f64 / net_input_bytes as f64,
        "ratio",
        1,
    ));

    // Lookups with the constants of Q1–Q8.
    let wildcard = NamePattern::new("*.tex");
    let papers = indexes.name.exact("papers").first().copied();
    let mut probe = |name: &str, f: &dyn Fn() -> usize| {
        let mut samples = Samples::default();
        for _ in 0..PROBE_REPS {
            let start = Instant::now();
            std::hint::black_box(f());
            samples.push_us(start.elapsed());
        }
        metrics.push(Metric::new(name, samples.median(), "us", PROBE_REPS));
    };
    probe("index.content.term_us", &|| {
        indexes.content.term_query("database").len()
    });
    probe("index.content.phrase_us", &|| {
        indexes.content.phrase_query("database tuning").len()
    });
    probe("index.tuple.range_us", &|| {
        indexes
            .tuple
            .compare("size", CompareOp::Gt, &Value::Integer(420_000))
            .len()
    });
    probe("index.name.wildcard_us", &|| {
        indexes.name.matching(&wildcard).len()
    });
    probe("index.group.descendants_us", &|| {
        papers.map_or(0, |p| indexes.group.descendants(p).len())
    });
    probe("index.catalog.by_class_us", &|| {
        indexes.catalog.by_class("emailmessage").len()
    });

    // Incremental: reindex one modified view.
    let mut reindex = Samples::default();
    for vid in indexes
        .name
        .matching(&NamePattern::new("note*.txt"))
        .into_iter()
        .take(REINDEXED_VIEWS)
    {
        store.set_content(vid, Content::text("a modified note on database tuning"))?;
        let (outcome, d) = tracer.timed("probe.index.reindex_view", |_| {
            indexes.remove_view(vid);
            indexes.index_view(store, vid, "filesystem")
        });
        outcome?;
        reindex.push_us(d);
    }
    metrics.push(Metric::new(
        "index.reindex_view_us",
        reindex.median(),
        "us",
        reindex.len(),
    ));
    Ok(())
}

/// `insert()` of extensional views into a non-durable store.
pub fn store_probe(tracer: &mut Tracer, metrics: &mut Vec<Metric>) {
    let store = ViewStore::new();
    let ((), d) = tracer.timed("probe.core.store_insert", |_| {
        for i in 0..STORE_INSERTS {
            store
                .build(format!("view-{i}.txt"))
                .text(format!("resource view number {i}"))
                .insert();
        }
    });
    metrics.push(Metric::new(
        "core.store.insert_us",
        secs(d) * 1e6 / STORE_INSERTS as f64,
        "us",
        STORE_INSERTS,
    ));
}

/// Parser and converter throughput over the dataset's own XML and
/// LaTeX documents.
pub fn converter_probes(
    space: &Dataspace,
    tracer: &mut Tracer,
    metrics: &mut Vec<Metric>,
) -> Result<()> {
    let fs = &space.dataset.fs;
    let (mut xml, mut latex) = (Vec::new(), Vec::new());
    for (node, _depth) in fs.walk(NodeId::ROOT)? {
        if fs.kind(node)? != NodeKind::File {
            continue;
        }
        let name = fs.name(node)?;
        let docs = if name.ends_with(".xml") {
            &mut xml
        } else if name.ends_with(".tex") {
            &mut latex
        } else {
            continue;
        };
        if let Ok(text) = String::from_utf8(fs.read_file(node)?.to_vec()) {
            docs.push(text);
        }
    }

    let mb = |docs: &[String]| docs.iter().map(String::len).sum::<usize>() as f64 / 1e6;
    let ((), d) = tracer.timed("probe.xml.parse", |_| {
        for doc in &xml {
            std::hint::black_box(idm_xml::parse(doc).is_ok());
        }
    });
    metrics.push(Metric::new(
        "xml.parse_mb_per_s",
        mb(&xml) / secs(d),
        "MB/s",
        xml.len(),
    ));
    let (views, d) = tracer.timed("probe.xml.convert", |_| {
        let store = ViewStore::new();
        xml.iter()
            .filter_map(|doc| idm_xml::convert::text_to_views(&store, doc).ok())
            .map(|(_, derived)| derived)
            .sum::<usize>()
    });
    metrics.push(Metric::new(
        "xml.convert_views_per_s",
        views as f64 / secs(d),
        "1/s",
        xml.len(),
    ));

    let ((), d) = tracer.timed("probe.latex.parse", |_| {
        for doc in &latex {
            std::hint::black_box(idm_latex::parse_latex(doc).is_ok());
        }
    });
    metrics.push(Metric::new(
        "latex.parse_mb_per_s",
        mb(&latex) / secs(d),
        "MB/s",
        latex.len(),
    ));
    let (views, d) = tracer.timed("probe.latex.convert", |_| {
        let store = ViewStore::new();
        latex
            .iter()
            .filter_map(|doc| idm_latex::convert::text_to_views(&store, doc).ok())
            .map(|mapping| mapping.derived)
            .sum::<usize>()
    });
    metrics.push(Metric::new(
        "latex.convert_views_per_s",
        views as f64 / secs(d),
        "1/s",
        latex.len(),
    ));
    Ok(())
}

/// Delta maintenance against re-execution: the benchmark holds one
/// standing plan per shape, feeds it the change records of a few more
/// sync iterations, and times `maintain` beside `execute_plan` of the
/// same plan. Runs on the lifecycle's live dataspace, after its counts
/// are taken.
pub fn delta_probe(live: &mut SyncLoop<'_>, tracer: &mut Tracer, metrics: &mut Vec<Metric>) {
    let mut standings: Vec<MaintainedPlan> = Vec::new();
    for iql in STANDING {
        let processor = live.processor();
        let seeded = processor
            .plan_iql(iql)
            .and_then(|plan| processor.execute_standing(&plan, QueryBudget::none()));
        if let Ok((_, Some(standing))) = seeded {
            standings.push(standing);
        }
    }
    let records_rx = live.store().subscribe_records();
    let (mut maintain, mut recompute) = (Samples::default(), Samples::default());
    let mut quiet = Tracer::new(false);
    let mut unchecked = Checker::default();
    for _ in 0..DELTA_PROBE_ITERS {
        live.run(1, &mut quiet, &mut unchecked, &mut SyncSamples::default());
        let records: Vec<ChangeRecord> = records_rx.try_iter().collect();
        for standing in &mut standings {
            let (_, d) = tracer.timed("probe.query.delta_maintain", |_| {
                live.processor().maintain(standing, &records).is_ok()
            });
            maintain.push_us(d);
            let (_, d) = tracer.timed("probe.query.delta_recompute", |_| {
                live.processor().execute_plan(standing.plan()).is_ok()
            });
            recompute.push_us(d);
        }
    }
    let (mut fallbacks, mut batches) = (0u64, 0u64);
    for standing in &standings {
        let stats = standing.stats();
        fallbacks += stats.relate_fallbacks + stats.full_recomputes;
        batches += stats.batches;
    }
    metrics.push(Metric::new(
        "query.delta.maintain_us",
        maintain.median(),
        "us",
        maintain.len(),
    ));
    metrics.push(Metric::new(
        "query.delta.recompute_us",
        recompute.median(),
        "us",
        recompute.len(),
    ));
    metrics.push(Metric::new(
        "query.delta.fallback_ratio",
        fallbacks as f64 / batches.max(1) as f64,
        "ratio",
        batches as usize,
    ));
}
