//! The dataspace lifecycle, measured from outside: generate → ingest →
//! Q1–Q8 cycles → sync loop beside live queries → persist → drop →
//! reopen, with the outputs checked at each step. The untraced run takes
//! a small side dataspace through all of it each round and runs the two
//! middle phases on its main dataspace; the traced run takes the main
//! scale through all of it.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use idm_core::durability::{DurabilityOptions, WalStats};
use idm_core::prelude::{CheckpointStats, SyncPolicy, Timestamp, Vid};
use idm_dataset::{generate, DatasetConfig, GeneratedDataset};
use idm_email::LatencyModel;
use idm_query::{ExecStats, QueryProcessor, QueryRequest, ResultCacheCounters};
use idm_system::{
    BulkIngestOptions, DataSourcePlugin, FsPlugin, ImapPlugin, IndexFate, LiveQuery, LiveStats,
    OpenReport, Pdsms, RssPlugin, SourceIngestStats, SynchronizationManager,
};
use idm_vfs::{DiskLatency, NodeId};

use crate::report::{dir_bytes, host_cores, Samples};
use crate::trace::Tracer;
use crate::workloads::{
    IngestMode, Workload, CACHED_POOL, QUERIES, QUERY_CLASSES, REOPENS_PER_REP, STANDING,
    SUBSCRIPTIONS,
};

/// Worker threads of the lifecycle's bulk ingest. One: the host's two
/// virtual CPUs are at times two hardware threads of one core and at
/// times two cores, so a two-thread ingest ran at either 47k or 64k
/// views/s for minutes on end (a spread of 35 % over ten runs), while
/// single-threaded work held steady. The traced pass reports what the
/// threads the product would use by default buy
/// (`system.ingest.parallel_speedup`).
pub const INGEST_PARALLELISM: usize = 1;

/// `BulkIngestOptions::default()`'s thread count, capped at 4.
pub fn default_ingest_parallelism() -> usize {
    host_cores().min(4)
}

/// Counts checked operations and remembers the first few mismatches.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checker {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }
}

/// A generated dataset with its sources registered on a fresh system.
pub struct Dataspace {
    pub dataset: GeneratedDataset,
    pub system: Pdsms,
    pub fs_plugin: Arc<FsPlugin>,
}

/// Generates the workload's dataset from `seed` and registers the
/// filesystem, IMAP and RSS sources, without ingesting.
pub fn assemble(w: &Workload, seed: u64, source_latency: bool) -> Dataspace {
    let dataset = generate(DatasetConfig {
        scale: w.scale,
        seed,
        imap_latency: if source_latency {
            LatencyModel::remote_2005(1.0)
        } else {
            LatencyModel::none()
        },
        imap_sleep: source_latency,
        ..DatasetConfig::default()
    });
    if source_latency {
        dataset.fs.set_latency(DiskLatency::ide_2005(0.25));
    }
    let mut system = Pdsms::new();
    let fs_plugin = Arc::new(FsPlugin::new(Arc::clone(&dataset.fs), NodeId::ROOT));
    system.register_source(Arc::clone(&fs_plugin) as Arc<dyn DataSourcePlugin>);
    system.register_source(Arc::new(ImapPlugin::new(Arc::clone(&dataset.imap))));
    system.register_source(Arc::new(RssPlugin::new(
        Arc::clone(&dataset.feeds),
        dataset.feed_urls.clone(),
    )));
    Dataspace {
        dataset,
        system,
        fs_plugin,
    }
}

/// Ingests every source through the workload's mode, a bulk ingest on
/// `parallelism` worker threads.
pub fn ingest(
    system: &Pdsms,
    mode: IngestMode,
    parallelism: usize,
) -> idm_core::prelude::Result<Vec<SourceIngestStats>> {
    match mode {
        IngestMode::Sequential => system.index_all(),
        IngestMode::Bulk => system
            .index_all_bulk(&BulkIngestOptions {
                parallelism,
                ..BulkIngestOptions::default()
            })
            .map(|report| report.stats),
    }
}

/// The sync policy of a pass. The traced pass logs under `Fsync`, so
/// its counts and spans show the real write barriers. The untraced pass
/// uses `WriteBack` (the product's default): the sandbox disk's fsync
/// latency swings several-fold for minutes at a time, which put every
/// fsync-bound end-to-end metric beyond any bound the contract allows.
pub fn sync_policy(traced: bool) -> SyncPolicy {
    if traced {
        SyncPolicy::Fsync
    } else {
        SyncPolicy::WriteBack
    }
}

pub fn expected_counts(dataset: &GeneratedDataset) -> [usize; 8] {
    let e = dataset.expected;
    [e.q1, e.q2, e.q3, e.q4, e.q5, e.q6, e.q7, e.q8]
}

/// WAL activity between two telemetry snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalDelta {
    pub records: u64,
    pub groups: u64,
    pub fsyncs: u64,
}

impl WalDelta {
    fn between(before: Option<WalStats>, after: Option<WalStats>) -> WalDelta {
        match (before, after) {
            (Some(b), Some(a)) => WalDelta {
                records: a.frames - b.frames,
                groups: a.groups - b.groups,
                fsyncs: a.syncs - b.syncs,
            },
            _ => WalDelta::default(),
        }
    }
}

/// Timings of the Q1–Q8 cycles of one phase.
#[derive(Debug, Default)]
pub struct QuerySamples {
    /// Per query, µs per execution.
    pub per_query_us: [Samples; 8],
    /// Per query class (see [`QUERY_CLASSES`]), µs per cycle.
    pub class_us: [Samples; 4],
    /// Seconds per whole cycle.
    pub cycle_s: Samples,
    /// Traced phases only: µs of `parse`, `plan` and `execute_plan`.
    pub parse_us: [Samples; 8],
    pub plan_us: [Samples; 8],
    pub exec_us: [Samples; 8],
    /// `ExecStats` and row count of each query's last execution.
    pub stats: [ExecStats; 8],
    pub rows: [usize; 8],
}

impl QuerySamples {
    pub fn queries_per_s(&self) -> f64 {
        8.0 * self.cycle_s.len() as f64 / self.cycle_s.sum()
    }
}

/// Runs `cycles` cycles of Q1–Q8 in order on `processor`, checking every
/// result count against `expected`. Untraced, a query is one
/// `processor.run(&QueryRequest::new(iql))`; traced, it is split into
/// `parse` / `plan` / `execute_plan` so each gets a span.
pub fn query_phase(
    processor: &QueryProcessor,
    expected: &[usize; 8],
    cycles: usize,
    tracer: &mut Tracer,
    checker: &mut Checker,
    out: &mut QuerySamples,
) {
    for _ in 0..cycles {
        let mut per_query = [Duration::ZERO; 8];
        for (q, iql) in QUERIES.iter().enumerate() {
            let (result, elapsed) = if tracer.enabled() {
                tracer.timed("op.query", |t| {
                    let (ast, d_parse) = t.timed("query.parse", |_| idm_query::parse(iql));
                    let ast = ast?;
                    let (plan, d_plan) = t.timed("query.plan", |_| processor.plan(&ast));
                    let plan = plan?;
                    let (result, d_exec) = t.timed("query.exec", |_| processor.execute_plan(&plan));
                    out.parse_us[q].push_us(d_parse);
                    out.plan_us[q].push_us(d_plan);
                    out.exec_us[q].push_us(d_exec);
                    result
                })
            } else {
                tracer.timed("op.query", |_| {
                    processor.run(&QueryRequest::new(*iql)).map(|r| r.result)
                })
            };
            per_query[q] = elapsed;
            out.per_query_us[q].push_us(elapsed);
            match result {
                Ok(result) => {
                    let rows = result.rows.len();
                    checker.check(rows == expected[q], || {
                        format!("Q{}: {} rows, expected {}", q + 1, rows, expected[q])
                    });
                    out.stats[q] = result.stats;
                    out.rows[q] = rows;
                }
                Err(e) => checker.check(false, || format!("Q{} failed: {e}", q + 1)),
            }
        }
        for (class, (_, members)) in QUERY_CLASSES.iter().enumerate() {
            let total: Duration = members.iter().map(|&q| per_query[q]).sum();
            out.class_us[class].push_us(total);
        }
        out.cycle_s
            .push(per_query.iter().sum::<Duration>().as_secs_f64());
    }
}

/// Runs Q1–Q8 once, unmeasured, returning the row counts (`usize::MAX`
/// for a failed query, which no expectation equals).
fn query_counts(processor: &QueryProcessor) -> [usize; 8] {
    let mut counts = [usize::MAX; 8];
    for (q, iql) in QUERIES.iter().enumerate() {
        if let Ok(response) = processor.run(&QueryRequest::new(*iql)) {
            counts[q] = response.result.rows.len();
        }
    }
    counts
}

/// Timings of the sync loop of one phase, µs per iteration.
#[derive(Debug, Default)]
pub struct SyncSamples {
    /// Substrate change + `sync_round()`.
    pub apply_us: Samples,
    /// `pump_subscriptions()` + polling every subscription.
    pub delta_us: Samples,
    /// The `.cached()` query.
    pub cached_us: Samples,
    /// The parts, for the per-layer metrics.
    pub mutate_us: Samples,
    pub round_us: Samples,
    pub pump_us: Samples,
    pub poll_us: Samples,
    /// Change records the pumps dispatched.
    pub records_dispatched: u64,
}

impl SyncSamples {
    /// Median seconds of one whole iteration's timed parts.
    fn iteration_median_s(&self) -> f64 {
        (self.apply_us.median() + self.delta_us.median() + self.cached_us.median()) / 1e6
    }
}

/// SplitMix64: the change script's generator, seeded from `--seed`.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn word(&mut self) -> String {
        let len = 3 + self.next() % 8;
        (0..len)
            .map(|_| (b'a' + (self.next() % 26) as u8) as char)
            .collect()
    }

    fn paragraph(&mut self, words: usize) -> String {
        (0..words)
            .map(|_| self.word())
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// The `.tex` body written at one step of a file's life. Step 0 and 1
/// plant words the standing queries match, step 2 takes them away, so
/// every shape of delta (rows entering, staying, leaving) occurs.
fn live_tex(rng: &mut SplitMix64, file: usize, step: usize) -> String {
    let planted = match step {
        0 => "A quote by Mike Franklin on database systems.",
        1 => "Notes on database tuning for shared documents.",
        _ => "Nothing the standing queries look for.",
    };
    format!(
        "\\documentclass{{article}}\n\\title{{Live note {file}}}\n\\begin{{document}}\n\
         \\section{{Introduction}}\n{planted} {}\n\n\\section{{Details}}\n{}\n\\end{{document}}\n",
        rng.paragraph(40),
        rng.paragraph(60)
    )
}

/// One standing subscription and the rows it should now hold: the
/// initial rows with every polled delta applied.
struct LiveSub {
    iql: &'static str,
    live: LiveQuery,
    rows: BTreeSet<Vid>,
}

/// Everything the sync loop drives, alive from the end of ingest to the
/// drop.
pub struct SyncLoop<'a> {
    space: &'a Dataspace,
    sync: SynchronizationManager,
    /// Long-lived, so its result cache is maintained across changes.
    processor: QueryProcessor,
    subs: Vec<LiveSub>,
    papers: NodeId,
    rng: SplitMix64,
    /// Seeded order in which the cached pool is cycled through.
    pool_order: [usize; CACHED_POOL.len()],
    /// Iterations done so far; selects the file, the step of its life
    /// and the cached query.
    iteration: usize,
    at: Timestamp,
}

impl<'a> SyncLoop<'a> {
    /// Attaches the synchronization manager and registers the standing
    /// subscriptions.
    pub fn start(space: &'a Dataspace, seed: u64) -> idm_core::prelude::Result<SyncLoop<'a>> {
        let system = &space.system;
        let sync = SynchronizationManager::attach(
            Arc::clone(&space.fs_plugin),
            Arc::clone(system.store()),
            Arc::clone(system.indexes()),
        )?;
        let mut subs = Vec::with_capacity(SUBSCRIPTIONS);
        for i in 0..SUBSCRIPTIONS {
            let iql = STANDING[i % STANDING.len()];
            let live = system.subscribe(&QueryRequest::new(iql).subscribe())?;
            let rows = live.initial().rows.views().into_iter().collect();
            subs.push(LiveSub { iql, live, rows });
        }
        let mut rng = SplitMix64(seed ^ 0x5EED_C0DE);
        let mut pool_order: [usize; CACHED_POOL.len()] = std::array::from_fn(|i| i);
        for i in (1..pool_order.len()).rev() {
            pool_order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        Ok(SyncLoop {
            space,
            sync,
            processor: system.query_processor(),
            subs,
            papers: space.dataset.fs.resolve("/papers")?,
            rng,
            pool_order,
            iteration: 0,
            at: Timestamp::from_ymd(2006, 9, 12).expect("valid date"),
        })
    }

    /// Runs `iters` iterations: one file change → `sync_round()` →
    /// pump and poll every subscription → one `.cached()` query.
    pub fn run(
        &mut self,
        iters: usize,
        tracer: &mut Tracer,
        checker: &mut Checker,
        out: &mut SyncSamples,
    ) {
        let fs = &self.space.dataset.fs;
        for _ in 0..iters {
            let (file, step) = (self.iteration / 4, self.iteration % 4);
            let name = format!("live-{file:05}.tex");
            let body = (step < 3).then(|| live_tex(&mut self.rng, file, step));
            let iql = CACHED_POOL[self.pool_order[self.iteration % CACHED_POOL.len()]];
            self.iteration += 1;

            let mut deltas = Vec::new();
            let (cached, _) = tracer.timed("op.sync_change", |t| {
                let (changed, d_mutate) = t.timed("vfs.mutate", |_| match (step, body) {
                    (0, Some(body)) => fs.create_file(self.papers, &name, body, self.at).map(drop),
                    (3, _) => fs
                        .child_named(self.papers, &name)
                        .and_then(|node| fs.remove(node.expect("file of this cycle exists"))),
                    (_, body) => fs.child_named(self.papers, &name).and_then(|node| {
                        fs.write_file(
                            node.expect("file of this cycle exists"),
                            body.unwrap_or_default(),
                            self.at,
                        )
                    }),
                });
                let (round, d_round) = t.timed("system.sync_round", |_| self.sync.sync_round());
                let applied = match (changed, round) {
                    (Ok(()), Ok(report)) => match step {
                        0 => report.created >= 1,
                        3 => report.removed >= 1,
                        _ => report.modified >= 1,
                    },
                    _ => false,
                };
                checker.check(applied, || {
                    format!("sync iteration on {name} step {step} not applied")
                });

                let (dispatched, d_pump) = t.timed("system.live.pump", |_| {
                    self.space.system.pump_subscriptions()
                });
                let ((), d_poll) = t.timed("system.live.poll", |_| {
                    for (i, sub) in self.subs.iter().enumerate() {
                        deltas.extend(sub.live.poll().into_iter().map(|d| (i, d)));
                    }
                });
                let (cached, d_cached) = t.timed("query.cached", |_| {
                    self.processor.run(&QueryRequest::new(iql).cached())
                });

                out.mutate_us.push_us(d_mutate);
                out.round_us.push_us(d_round);
                out.apply_us.push_us(d_mutate + d_round);
                out.pump_us.push_us(d_pump);
                out.poll_us.push_us(d_poll);
                out.delta_us.push_us(d_pump + d_poll);
                out.cached_us.push_us(d_cached);
                out.records_dispatched += dispatched as u64;
                cached
            });

            // Unmeasured: every eighth cached answer is compared with an
            // uncached execution, and the polled deltas are applied.
            match cached {
                Ok(cached) if self.iteration.is_multiple_of(8) => {
                    let fresh = self.processor.run(&QueryRequest::new(iql));
                    checker.check(
                        fresh.is_ok_and(|f| f.result.rows == cached.result.rows),
                        || format!("cached answer of {iql} differs from a fresh execution"),
                    );
                }
                Ok(_) => checker.check(true, String::new),
                Err(e) => checker.check(false, || format!("cached {iql} failed: {e}")),
            }
            for (i, delta) in deltas {
                let rows = &mut self.subs[i].rows;
                for vid in delta.removed.views() {
                    rows.remove(&vid);
                }
                rows.extend(delta.added.views());
            }
        }
    }

    /// Checks that each subscription's accumulated rows equal a fresh
    /// execution of its query.
    pub fn verify_subscriptions(&self, checker: &mut Checker) {
        for sub in &self.subs {
            let fresh: Option<BTreeSet<Vid>> = self
                .processor
                .run(&QueryRequest::new(sub.iql))
                .ok()
                .map(|r| r.result.rows.views().into_iter().collect());
            checker.check(fresh.as_ref() == Some(&sub.rows), || {
                format!(
                    "subscription {} holds {} rows, a fresh execution {:?}",
                    sub.iql,
                    sub.rows.len(),
                    fresh.map(|f| f.len())
                )
            });
        }
    }

    pub fn cache_counters(&self) -> ResultCacheCounters {
        self.processor.result_cache().counters()
    }

    pub fn processor(&self) -> &QueryProcessor {
        &self.processor
    }

    pub fn store(&self) -> &Arc<idm_core::prelude::ViewStore> {
        self.space.system.store()
    }
}

/// Phase sizes of one repetition. `warm_*` run unmeasured first;
/// `base_*` are the untraced phases a traced repetition runs beside the
/// traced ones.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub warm_cycles: usize,
    pub base_cycles: usize,
    pub cycles: usize,
    pub warm_sync: usize,
    pub base_sync: usize,
    pub sync_iters: usize,
}

/// What one repetition measured and observed: the timings behind the
/// end-to-end metrics, and the public stats structs its calls returned.
#[derive(Debug, Default)]
pub struct Rep {
    pub views: usize,
    pub net_input_bytes: u64,
    pub ingest_s: f64,
    pub source_stats: Vec<SourceIngestStats>,
    pub ingest_wal: WalDelta,
    pub ingest_wal_bytes: u64,
    pub checkpoint_s: f64,
    /// Seconds of each reopen of this repetition.
    pub reopen_s: Samples,
    pub checkpoint: Option<CheckpointStats>,
    /// The measured phases (traced when the repetition is).
    pub queries: QuerySamples,
    pub sync: SyncSamples,
    /// Untraced phases a traced repetition runs first, as the baseline
    /// of the overhead ratio; empty otherwise.
    pub base_queries: QuerySamples,
    pub base_sync: SyncSamples,
    /// Activity over the measured sync iterations.
    pub sync_wal: WalDelta,
    pub live: LiveStats,
    pub cache: ResultCacheCounters,
    pub disk_bytes: u64,
    pub open: Option<OpenReport>,
    /// Traced only: `DurabilityManager::open` alone on the same directory.
    pub store_open_s: f64,
}

impl Rep {
    pub fn ingest_views_per_s(&self) -> f64 {
        self.views as f64 / self.ingest_s
    }

    pub fn disk_bytes_per_input_byte(&self) -> f64 {
        self.disk_bytes as f64 / self.net_input_bytes as f64
    }

    pub fn rebuilt_on_reopen(&self) -> bool {
        self.open
            .as_ref()
            .is_some_and(|o| o.index != IndexFate::Loaded)
    }

    /// Traced ÷ untraced median time of one Q1–Q8 cycle plus one sync
    /// iteration.
    pub fn trace_overhead_ratio(&self) -> f64 {
        (self.queries.cycle_s.median() + self.sync.iteration_median_s())
            / (self.base_queries.cycle_s.median() + self.base_sync.iteration_median_s())
    }
}

fn live_delta(before: LiveStats, after: LiveStats) -> LiveStats {
    LiveStats {
        active: after.active,
        deltas_pushed: after.deltas_pushed - before.deltas_pushed,
        records_applied: after.records_applied - before.records_applied,
        maintain_failures: after.maintain_failures - before.maintain_failures,
        resyncs: after.resyncs - before.resyncs,
        dropped: after.dropped - before.dropped,
    }
}

fn cache_delta(before: ResultCacheCounters, after: ResultCacheCounters) -> ResultCacheCounters {
    ResultCacheCounters {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        invalidations: after.invalidations - before.invalidations,
        maintained: after.maintained - before.maintained,
    }
}

/// A directory emptied when taken and removed when dropped, so a failed
/// repetition leaves nothing behind either.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn fresh(dir: &Path) -> ScratchDir {
        let _ = std::fs::remove_dir_all(dir);
        ScratchDir(dir.to_path_buf())
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Persists the dataspace — `checkpoint()`, or `make_durable_with`
/// while it still lives in memory — and returns the checkpoint with the
/// WAL telemetry right after it.
fn persist(
    space: &mut Dataspace,
    dir: &Path,
    tracer: &mut Tracer,
    rep: &mut Rep,
) -> idm_core::prelude::Result<(CheckpointStats, Option<WalStats>)> {
    let options = DurabilityOptions::new(sync_policy(tracer.enabled()));
    let (stats, d) = tracer.timed("op.checkpoint", |_| {
        if space.system.is_durable() {
            space.system.checkpoint()
        } else {
            space.system.make_durable_with(dir, options)
        }
    });
    rep.checkpoint_s = d.as_secs_f64();
    let stats = stats?;
    rep.checkpoint = Some(stats);
    Ok((stats, space.system.store().wal_telemetry()))
}

/// A dataspace as a workload builds it.
pub struct Built {
    pub space: Dataspace,
    /// The checkpoint taken right after ingest, where the workload takes
    /// one there, with the WAL telemetry right after it.
    persisted: Option<(CheckpointStats, Option<WalStats>)>,
}

/// Builds the workload's dataspace in `dir`: generate → register the
/// sources → (make durable) → ingest → (checkpoint). The ingest's
/// timing and stats go to `rep`.
pub fn build(
    w: &Workload,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
    checker: &mut Checker,
    rep: &mut Rep,
) -> idm_core::prelude::Result<Built> {
    let mut space = assemble(w, seed, w.source_latency);
    if w.durable_from_start {
        let options = DurabilityOptions::new(sync_policy(tracer.enabled()));
        space.system.make_durable_with(dir, options)?;
    }

    let wal_before = space.system.store().wal_telemetry();
    let (stats, d_ingest) = tracer.timed("op.ingest", |_| {
        ingest(&space.system, w.ingest, INGEST_PARALLELISM)
    });
    rep.source_stats = stats?;
    rep.ingest_s = d_ingest.as_secs_f64();
    rep.ingest_wal = WalDelta::between(wal_before, space.system.store().wal_telemetry());
    rep.ingest_wal_bytes = dir_bytes(dir, ".idmlog");
    rep.views = rep
        .source_stats
        .iter()
        .map(SourceIngestStats::total_views)
        .sum();
    rep.net_input_bytes = rep.source_stats.iter().map(|s| s.net_input_bytes).sum();
    checker.check(
        rep.views > 0 && rep.views == space.system.store().len(),
        || {
            format!(
                "ingest reported {} views, the store holds {}",
                rep.views,
                space.system.store().len()
            )
        },
    );

    let mut persisted = None;
    if w.checkpoint_after_ingest {
        persisted = Some(persist(&mut space, dir, tracer, rep)?);
    }
    Ok(Built { space, persisted })
}

/// Runs one repetition of the lifecycle in a fresh directory `dir`.
/// `before_drop` sees the live dataspace and its sync loop after the
/// measured phases (the traced run hangs its delta probe there).
pub fn lifecycle(
    w: &Workload,
    seed: u64,
    dir: &Path,
    sizes: Sizes,
    tracer: &mut Tracer,
    checker: &mut Checker,
    before_drop: &mut dyn FnMut(&mut SyncLoop<'_>, &mut Tracer),
) -> idm_core::prelude::Result<Rep> {
    let mut rep = Rep::default();
    let scratch = ScratchDir::fresh(dir);
    let dir = scratch.path();
    let mut untraced = Tracer::new(false);

    // ---- set-up and ingest ----
    let Built {
        mut space,
        persisted,
    } = build(w, seed, dir, tracer, checker, &mut rep)?;
    let expected = expected_counts(&space.dataset);

    // ---- Q1–Q8 cycles on one long-lived processor ----
    let processor = space.system.query_processor();
    query_phase(
        &processor,
        &expected,
        sizes.warm_cycles,
        &mut untraced,
        checker,
        &mut QuerySamples::default(),
    );
    if tracer.enabled() {
        query_phase(
            &processor,
            &expected,
            sizes.base_cycles,
            &mut untraced,
            checker,
            &mut rep.base_queries,
        );
    }
    query_phase(
        &processor,
        &expected,
        sizes.cycles,
        tracer,
        checker,
        &mut rep.queries,
    );
    drop(processor);

    // ---- sync loop beside live queries ----
    let mut live = SyncLoop::start(&space, seed)?;
    live.run(
        sizes.warm_sync,
        &mut untraced,
        checker,
        &mut SyncSamples::default(),
    );
    if tracer.enabled() {
        live.run(sizes.base_sync, &mut untraced, checker, &mut rep.base_sync);
    }
    let wal_before = space.system.store().wal_telemetry();
    let live_before = space.system.live_stats();
    let cache_before = live.cache_counters();
    live.run(sizes.sync_iters, tracer, checker, &mut rep.sync);
    rep.sync_wal = WalDelta::between(wal_before, space.system.store().wal_telemetry());
    rep.live = live_delta(live_before, space.system.live_stats());
    rep.cache = cache_delta(cache_before, live.cache_counters());
    live.verify_subscriptions(checker);
    before_drop(&mut live, tracer);

    // ---- persist (unless already checkpointed), note the state, drop ----
    let pre_counts = query_counts(live.processor());
    drop(live);
    let (checkpoint, wal_at_checkpoint) = match persisted {
        Some(after_ingest) => after_ingest,
        None => persist(&mut space, dir, tracer, &mut rep)?,
    };
    let tail = WalDelta::between(wal_at_checkpoint, space.system.store().wal_telemetry());
    let pre_lsn = checkpoint.lsn + tail.records;
    let pre_views = space.system.store().len();
    drop(space);
    rep.disk_bytes = dir_bytes(dir, "");

    // ---- reopen, to a correct Q1 answer ----
    // Nothing is checkpointed between the reopens, so each recovers the
    // same snapshot and replays the same WAL tail.
    for attempt in 0..REOPENS_PER_REP {
        let ((opened, q1), d_reopen) = tracer.timed("op.reopen", |t| {
            let (opened, _) = t.timed("system.open", |_| Pdsms::open(dir));
            let q1 = opened.as_ref().ok().map(|(system, _)| {
                let run = |_: &mut Tracer| {
                    system
                        .run(&QueryRequest::new(QUERIES[0]))
                        .map(|r| r.result.rows.len())
                };
                t.timed("query.verify", run).0
            });
            (opened, q1)
        });
        rep.reopen_s.push(d_reopen.as_secs_f64());
        let (system, report) = opened?;
        checker.check(matches!(q1, Some(Ok(n)) if n == pre_counts[0]), || {
            format!("Q1 after reopen: {q1:?}, before the drop {}", pre_counts[0])
        });
        checker.check(system.store().len() == pre_views, || {
            format!(
                "{} views after reopen, {pre_views} before the drop",
                system.store().len()
            )
        });
        checker.check(report.recovery.lsn == pre_lsn, || {
            format!(
                "recovered LSN {}, {pre_lsn} before the drop",
                report.recovery.lsn
            )
        });
        if attempt > 0 {
            continue;
        }
        let post_counts = query_counts(&system.query_processor());
        for q in 1..8 {
            checker.check(post_counts[q] == pre_counts[q], || {
                format!(
                    "Q{} after reopen: {} rows, before the drop {}",
                    q + 1,
                    post_counts[q],
                    pre_counts[q]
                )
            });
        }
        rep.open = Some(report);
    }

    // Traced only: store recovery alone (snapshot load + WAL replay,
    // no index handshake), over the same directory. Nothing was
    // checkpointed since the reopen, so it replays the same tail.
    if tracer.enabled() {
        let (recovered, d) = tracer.timed("probe.core.recovery", |_| {
            idm_core::prelude::DurabilityManager::open(dir, SyncPolicy::WriteBack)
        });
        checker.check(recovered.is_ok(), || {
            "store-only recovery failed".to_owned()
        });
        rep.store_open_s = d.as_secs_f64();
    }
    Ok(rep)
}
