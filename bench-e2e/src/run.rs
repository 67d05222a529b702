//! One workload run: the untraced set-ups and rounds behind the
//! end-to-end metrics, or the traced pass behind the per-layer ones.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::layers;
use crate::report::{
    filesystem_of, git_commit, host_cores, peak_rss_mb, Env, Metric, Report, Samples,
};
use crate::scenario::{
    build, expected_counts, lifecycle, query_phase, sync_policy, Checker, QuerySamples, Rep,
    ScratchDir, Sizes, SyncLoop, SyncSamples, INGEST_PARALLELISM,
};
use crate::trace::Tracer;
use crate::workloads::{
    Workload, END_TO_END, MIN_ROUNDS, QUERY_BATCH, QUERY_CLASSES, SETUPS, SYNC_WINDOW,
    TRACE_BASE_CYCLES, TRACE_BASE_SYNC, TRACE_CYCLES, TRACE_SYNC, WARM_CYCLES, WARM_SYNC,
};
use idm_core::prelude::SyncPolicy;
use idm_query::QueryProcessor;
use idm_system::SourceIngestStats;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    /// Seeds the dataset generator and the change/query script.
    pub seed: u64,
    /// Length of the untraced run, set-ups included (each set-up's rounds
    /// never fewer than [`MIN_ROUNDS`]).
    pub seconds: f64,
    /// Durable dataspaces and the span file live in fresh
    /// sub-directories of this one.
    pub data_dir: PathBuf,
}

impl RunConfig {
    pub fn env(&self, traced: bool) -> Env {
        Env {
            host_cores: host_cores(),
            commit: git_commit(),
            scale: self.workload.scale,
            seed: self.seed,
            sync_policy: match sync_policy(traced) {
                SyncPolicy::Fsync => "Fsync",
                SyncPolicy::WriteBack => "WriteBack",
            },
            data_dir: self.data_dir.display().to_string(),
            data_dir_fs: filesystem_of(&self.data_dir),
            ingest_parallelism: INGEST_PARALLELISM,
            query_parallelism: idm_query::ExecOptions::default().parallelism,
        }
    }

    fn rep_dir(&self, tag: &str) -> PathBuf {
        self.data_dir.join(format!(
            "{}-{}-{tag}",
            self.workload.name,
            std::process::id()
        ))
    }
}

/// What the set-ups and rounds of an untraced run sampled.
#[derive(Debug, Default)]
struct Measured {
    /// Seconds of each set-up of the main dataspace.
    setup_s: Samples,
    /// `VmHWM` after the first set-up and its round.
    peak_rss_mb: f64,
    /// One sample per side repetition (two for `reopen_s`).
    ingest_views_per_s: Samples,
    reopen_s: Samples,
    disk_bytes_per_input_byte: Samples,
    /// One sample per query batch: its rate, and the median over its
    /// cycles of each query class's time.
    query_per_s: Samples,
    class_us: [Samples; 4],
    /// One sample per sync window: the mean per iteration.
    apply_us: Samples,
    delta_us: Samples,
    cached_us: Samples,
}

/// The main dataspace of a run after set-up: queries go to `processor`,
/// changes through `live`.
struct Main<'a> {
    expected: [usize; 8],
    processor: QueryProcessor,
    live: SyncLoop<'a>,
}

/// One round: a side repetition (ingest → persist → drop → reopen of a
/// small dataspace), then a query batch and a sync window on the main
/// dataspace. Rounds interleave the three so that every metric is
/// sampled over the whole run, whichever spells of it the host is calm.
fn round(cfg: &RunConfig, main: &mut Main<'_>, checker: &mut Checker, m: &mut Measured) {
    let mut quiet = Tracer::new(false);
    let side = Workload {
        scale: cfg.workload.side_scale,
        ..cfg.workload
    };
    // One query cycle and one sync window: what the reopen is checked
    // against, and the WAL tail it replays.
    let sizes = Sizes {
        warm_cycles: 0,
        base_cycles: 0,
        cycles: 1,
        warm_sync: 0,
        base_sync: 0,
        sync_iters: SYNC_WINDOW,
    };
    let dir = cfg.rep_dir("side");
    match lifecycle(
        &side,
        cfg.seed,
        &dir,
        sizes,
        &mut quiet,
        checker,
        &mut |_, _| (),
    ) {
        Ok(rep) => {
            m.ingest_views_per_s.push(rep.ingest_views_per_s());
            m.reopen_s.extend(&rep.reopen_s);
            m.disk_bytes_per_input_byte
                .push(rep.disk_bytes_per_input_byte());
        }
        Err(e) => checker.check(false, || format!("side repetition failed: {e}")),
    }

    let mut batch = QuerySamples::default();
    query_phase(
        &main.processor,
        &main.expected,
        QUERY_BATCH,
        &mut quiet,
        checker,
        &mut batch,
    );
    m.query_per_s.push(batch.queries_per_s());
    for (samples, class) in m.class_us.iter_mut().zip(&batch.class_us) {
        samples.push(class.median());
    }

    let mut window = SyncSamples::default();
    main.live.run(SYNC_WINDOW, &mut quiet, checker, &mut window);
    m.apply_us.push(window.apply_us.mean());
    m.delta_us.push(window.delta_us.mean());
    m.cached_us.push(window.cached_us.mean());
}

/// Sets the main dataspace up in `dir` — build, then the unmeasured
/// warm-up cycles and sync iterations — records the set-up's time, and
/// runs rounds on it while `more_rounds` says so.
fn setup_and_rounds(
    cfg: &RunConfig,
    dir: &Path,
    checker: &mut Checker,
    m: &mut Measured,
    more_rounds: &mut dyn FnMut(&mut Measured) -> bool,
) -> idm_core::prelude::Result<()> {
    let mut quiet = Tracer::new(false);
    let setting_up = Instant::now();
    let built = build(
        &cfg.workload,
        cfg.seed,
        dir,
        &mut quiet,
        checker,
        &mut Rep::default(),
    )?;
    let expected = expected_counts(&built.space.dataset);
    let processor = built.space.system.query_processor();
    query_phase(
        &processor,
        &expected,
        WARM_CYCLES,
        &mut quiet,
        checker,
        &mut QuerySamples::default(),
    );
    let mut live = SyncLoop::start(&built.space, cfg.seed)?;
    live.run(WARM_SYNC, &mut quiet, checker, &mut SyncSamples::default());
    m.setup_s.push(setting_up.elapsed().as_secs_f64());

    let mut main = Main {
        expected,
        processor,
        live,
    };
    while more_rounds(m) {
        round(cfg, &mut main, checker, m);
    }
    main.live.verify_subscriptions(checker);
    Ok(())
}

/// The untraced run: [`SETUPS`] times, set the main dataspace up and
/// run rounds on it for an equal share of `--seconds`; the end-to-end
/// metrics over all of them. Each set-up generates its datasets from
/// its own seed, derived from `--seed`, so a run's values do not hang
/// on the layout of one dataset.
///
/// A timing's value is its **second-fastest** sample (a rate's its
/// second-highest). The host shares its cores: for seconds to minutes at
/// a time the same work takes 1.3–1.4 times as long, so a median says
/// how much of a run fell into such spells, not what the program costs.
/// Work the program does cannot make a sample faster than the program
/// is, so the fast end of many short samples spread over the whole run
/// is the steady value; the very fastest is passed over because it can
/// be a mis-timed one (one side ingest in some 30 000 samples read 2.3
/// times faster than any other).
pub fn run_untraced(cfg: &RunConfig) -> Report {
    let started = Instant::now();
    let mut checker = Checker::default();
    let mut m = Measured::default();
    let scratch = ScratchDir::fresh(&cfg.rep_dir("main"));
    for setup in 0..SETUPS {
        let cfg = &RunConfig {
            seed: cfg
                .seed
                .wrapping_mul(SETUPS as u64)
                .wrapping_add(setup as u64),
            ..cfg.clone()
        };
        let _ = std::fs::remove_dir_all(scratch.path());
        let share_ends = cfg.seconds * (setup + 1) as f64 / SETUPS as f64;
        let mut rounds = 0;
        let mut longest = 0.0f64;
        let mut round_started = Instant::now();
        // Rounds until the next one would pass this set-up's share of
        // the run, and never fewer than `MIN_ROUNDS`. Peak memory is
        // read after the first round of all.
        let mut more_rounds = |m: &mut Measured| {
            if rounds > 0 {
                longest = longest.max(round_started.elapsed().as_secs_f64());
            }
            if setup == 0 && rounds == 1 {
                m.peak_rss_mb = peak_rss_mb();
            }
            rounds += 1;
            round_started = Instant::now();
            rounds <= MIN_ROUNDS || started.elapsed().as_secs_f64() + longest <= share_ends
        };
        let outcome = setup_and_rounds(cfg, scratch.path(), &mut checker, &mut m, &mut more_rounds);
        checker.check(outcome.is_ok(), || {
            format!("set-up {setup} failed: {outcome:?}")
        });
    }

    // How far the host's slow spells reached: every sample set's extremes
    // beside its median.
    println!(
        "{:<28} {:>8} {:>16} {:>16} {:>16}",
        "samples of", "count", "min", "median", "max"
    );
    for (name, samples) in [
        ("setup_s", &m.setup_s),
        ("ingest_views_per_s", &m.ingest_views_per_s),
        ("reopen_s", &m.reopen_s),
        ("query_per_s", &m.query_per_s),
        (QUERY_CLASSES[0].0, &m.class_us[0]),
        (QUERY_CLASSES[1].0, &m.class_us[1]),
        (QUERY_CLASSES[2].0, &m.class_us[2]),
        (QUERY_CLASSES[3].0, &m.class_us[3]),
        ("sync_apply_p50_us", &m.apply_us),
        ("live_delta_p50_us", &m.delta_us),
        ("cached_query_p50_us", &m.cached_us),
    ] {
        println!(
            "{name:<28} {:>8} {:>16.6} {:>16.6} {:>16.6}",
            samples.len(),
            samples.min(),
            samples.median(),
            samples.max()
        );
    }

    let fastest = |samples: &Samples| (samples.second_min(), samples.len());
    let highest = |samples: &Samples| (samples.second_max(), samples.len());
    let metrics = END_TO_END
        .iter()
        .map(|spec| {
            let (value, samples) = match spec.name {
                "setup_s" => fastest(&m.setup_s),
                "peak_rss_mb" => (m.peak_rss_mb, 1),
                "ingest_views_per_s" => highest(&m.ingest_views_per_s),
                "reopen_s" => fastest(&m.reopen_s),
                "disk_bytes_per_input_byte" => (
                    m.disk_bytes_per_input_byte.median(),
                    m.disk_bytes_per_input_byte.len(),
                ),
                "query_per_s" => highest(&m.query_per_s),
                "sync_apply_p50_us" => fastest(&m.apply_us),
                "live_delta_p50_us" => fastest(&m.delta_us),
                "cached_query_p50_us" => fastest(&m.cached_us),
                class => {
                    let index = QUERY_CLASSES
                        .iter()
                        .position(|(name, _)| *name == class)
                        .unwrap_or_else(|| panic!("end-to-end metric {class} is not measured"));
                    fastest(&m.class_us[index])
                }
            };
            Metric::new(spec.name, value, spec.unit, samples)
        })
        .collect();

    Report {
        workload: cfg.workload.name,
        metrics,
        attempted: checker.attempted,
        failed: checker.failed,
        notes: checker.notes,
    }
}

/// Counts that must repeat exactly for a fixed seed. Byte sizes are not
/// among them: the WAL and the snapshot were seen to wander by a few
/// bytes between identical passes, so they are reported as measured.
fn exact_counts(rep: &Rep) -> Vec<(String, u64)> {
    let mut counts = vec![
        ("core.wal.records".to_owned(), rep.ingest_wal.records),
        ("core.wal.groups".to_owned(), rep.ingest_wal.groups),
        ("core.wal.fsyncs".to_owned(), rep.ingest_wal.fsyncs),
        (
            "core.wal.sync_loop_records".to_owned(),
            rep.sync_wal.records,
        ),
        ("core.wal.sync_loop_fsyncs".to_owned(), rep.sync_wal.fsyncs),
        (
            "streams.records_dispatched".to_owned(),
            rep.sync.records_dispatched,
        ),
        (
            "system.live.deltas_pushed".to_owned(),
            rep.live.deltas_pushed,
        ),
        (
            "system.live.records_applied".to_owned(),
            rep.live.records_applied,
        ),
        ("system.live.resyncs".to_owned(), rep.live.resyncs),
        ("query.result_cache.hits".to_owned(), rep.cache.hits),
        ("query.result_cache.misses".to_owned(), rep.cache.misses),
        (
            "query.result_cache.maintained".to_owned(),
            rep.cache.maintained,
        ),
        (
            "query.result_cache.invalidations".to_owned(),
            rep.cache.invalidations,
        ),
    ];
    if let Some(open) = &rep.open {
        counts.push((
            "core.recovery.records_replayed".to_owned(),
            open.recovery.records_replayed,
        ));
        counts.push((
            "core.recovery.wal_segments".to_owned(),
            open.recovery.wal_segments as u64,
        ));
    }
    for q in 0..8 {
        let stats = &rep.queries.stats[q];
        counts.push((
            format!("query.q{}.nodes_expanded", q + 1),
            stats.nodes_expanded as u64,
        ));
        counts.push((
            format!("query.q{}.candidates_examined", q + 1),
            stats.candidates_examined as u64,
        ));
    }
    counts
}

/// The per-layer metrics one traced repetition yields by itself (the
/// probes add theirs).
fn layer_metrics(rep: &Rep) -> Vec<Metric> {
    let source = |name: &str| rep.source_stats.iter().find(|s| s.source == name);
    let access_s = |name: &str| source(name).map_or(0.0, |s| s.data_source_access.as_secs_f64());
    let sum_s = |f: &dyn Fn(&SourceIngestStats) -> Duration| {
        rep.source_stats
            .iter()
            .map(|s| f(s).as_secs_f64())
            .sum::<f64>()
    };
    let iters = rep.sync.apply_us.len().max(1) as f64;
    let snapshot_bytes = rep.checkpoint.map_or(0, |c| c.bytes) as f64;
    let recovery = rep.open.as_ref().map(|o| &o.recovery);
    let lookups = (rep.cache.hits + rep.cache.misses).max(1) as f64;

    // One value each: counts and one-shot timings, by layer.
    let single: [(&str, f64, &'static str); 31] = [
        // idm-vfs / idm-email
        ("vfs.access_s", access_s("filesystem"), "s"),
        ("email.access_s", access_s("imap"), "s"),
        // idm-xml / idm-latex
        ("convert.conversion_s", sum_s(&|s| s.conversion), "s"),
        // idm-core
        ("core.wal.records", rep.ingest_wal.records as f64, "count"),
        ("core.wal.groups", rep.ingest_wal.groups as f64, "count"),
        ("core.wal.fsyncs", rep.ingest_wal.fsyncs as f64, "count"),
        ("core.wal.bytes", rep.ingest_wal_bytes as f64, "bytes"),
        (
            "core.wal.fsyncs_per_1k_views",
            rep.ingest_wal.fsyncs as f64 * 1e3 / rep.views.max(1) as f64,
            "count",
        ),
        (
            "core.wal.records_per_change",
            rep.sync_wal.records as f64 / iters,
            "count",
        ),
        (
            "core.wal.fsyncs_per_change",
            rep.sync_wal.fsyncs as f64 / iters,
            "count",
        ),
        ("core.checkpoint.snapshot_bytes", snapshot_bytes, "bytes"),
        (
            "core.checkpoint.mb_per_s",
            snapshot_bytes / 1e6 / rep.checkpoint_s,
            "MB/s",
        ),
        (
            "core.recovery.records_replayed",
            recovery.map_or(0, |r| r.records_replayed) as f64,
            "count",
        ),
        (
            "core.recovery.wal_segments",
            recovery.map_or(0, |r| r.wal_segments) as f64,
            "count",
        ),
        ("core.recovery.store_s", rep.store_open_s, "s"),
        // idm-index
        (
            "index.component_indexing_s",
            sum_s(&|s| s.component_indexing),
            "s",
        ),
        ("index.catalog_insert_s", sum_s(&|s| s.catalog_insert), "s"),
        (
            "index.rebuilt_on_reopen",
            f64::from(u8::from(rep.rebuilt_on_reopen())),
            "count",
        ),
        // idm-query
        (
            "query.result_cache.hit_ratio",
            rep.cache.hits as f64 / lookups,
            "ratio",
        ),
        (
            "query.result_cache.maintained",
            rep.cache.maintained as f64,
            "count",
        ),
        (
            "query.result_cache.invalidations",
            rep.cache.invalidations as f64,
            "count",
        ),
        // idm-streams / idm-system
        (
            "system.sync.records_per_change",
            rep.sync.records_dispatched as f64 / iters,
            "count",
        ),
        (
            "streams.records_dispatched",
            rep.sync.records_dispatched as f64,
            "count",
        ),
        (
            "system.live.deltas_pushed",
            rep.live.deltas_pushed as f64,
            "count",
        ),
        (
            "system.live.records_applied",
            rep.live.records_applied as f64,
            "count",
        ),
        ("system.live.resyncs", rep.live.resyncs as f64, "count"),
        (
            "system.ingest.total_s.filesystem",
            total_s(source("filesystem")),
            "s",
        ),
        ("system.ingest.total_s.imap", total_s(source("imap")), "s"),
        ("system.ingest.total_s.rss", total_s(source("rss")), "s"),
        ("system.checkpoint_s", rep.checkpoint_s, "s"),
        ("trace.overhead_ratio", rep.trace_overhead_ratio(), "ratio"),
    ];
    let mut m: Vec<Metric> = single
        .into_iter()
        .map(|(name, value, unit)| Metric::new(name, value, unit, 1))
        .collect();

    // Medians over the traced sync iterations and query executions.
    let median_us =
        |name: String, samples: &Samples| Metric::new(name, samples.median(), "us", samples.len());
    m.push(median_us("vfs.mutate_us".into(), &rep.sync.mutate_us));
    m.push(median_us("system.sync.round_us".into(), &rep.sync.round_us));
    m.push(median_us("system.live.pump_us".into(), &rep.sync.pump_us));
    m.push(median_us("system.live.poll_us".into(), &rep.sync.poll_us));
    let slowest_p95_us = rep
        .base_queries
        .per_query_us
        .iter()
        .map(|s| s.percentile(0.95))
        .fold(f64::NAN, f64::max);
    m.push(Metric::new(
        "query.slowest_p95_ms",
        slowest_p95_us / 1e3,
        "ms",
        rep.base_queries.per_query_us[0].len(),
    ));
    for q in 0..8 {
        let n = q + 1;
        let (traced, untraced) = (&rep.queries, &rep.base_queries.per_query_us[q]);
        m.push(median_us(
            format!("query.q{n}.parse_us"),
            &traced.parse_us[q],
        ));
        m.push(median_us(format!("query.q{n}.plan_us"), &traced.plan_us[q]));
        m.push(median_us(format!("query.q{n}.exec_us"), &traced.exec_us[q]));
        m.push(median_us(format!("query.q{n}.p50_us"), untraced));
        m.push(Metric::new(
            format!("query.q{n}.p95_us"),
            untraced.percentile(0.95),
            "us",
            untraced.len(),
        ));
        m.push(Metric::new(
            format!("query.q{n}.nodes_expanded"),
            traced.stats[q].nodes_expanded as f64,
            "count",
            1,
        ));
        m.push(Metric::new(
            format!("query.q{n}.candidates_per_row"),
            traced.stats[q].candidates_examined as f64 / traced.rows[q].max(1) as f64,
            "ratio",
            1,
        ));
    }
    m
}

fn total_s(stats: Option<&SourceIngestStats>) -> f64 {
    stats.map_or(0.0, |s| s.total_time().as_secs_f64())
}

/// The traced run: two passes of one traced repetition (their exact
/// counts must agree), then the per-layer probes. Spans of the first
/// pass and the probes go to `<data-dir>/trace-<workload>.jsonl`.
pub fn run_traced(cfg: &RunConfig) -> Report {
    let w = &cfg.workload;
    let sizes = Sizes {
        warm_cycles: WARM_CYCLES,
        base_cycles: TRACE_BASE_CYCLES,
        cycles: TRACE_CYCLES,
        warm_sync: WARM_SYNC,
        base_sync: TRACE_BASE_SYNC,
        sync_iters: TRACE_SYNC,
    };
    let mut checker = Checker::default();
    let mut probe_metrics: Vec<Metric> = Vec::new();
    let mut passes: Vec<(Rep, Tracer)> = Vec::new();
    for pass in 0..2 {
        let mut tracer = Tracer::new(true);
        // Both passes run the delta probe, so the WAL tail the reopen
        // replays is the same; only the first pass's timings are kept.
        let mut delta_metrics = Vec::new();
        let dir = cfg.rep_dir(&format!("trace{pass}"));
        let outcome = lifecycle(
            w,
            cfg.seed,
            &dir,
            sizes,
            &mut tracer,
            &mut checker,
            &mut |live, tracer| layers::delta_probe(live, tracer, &mut delta_metrics),
        );
        match outcome {
            Ok(rep) => passes.push((rep, tracer)),
            Err(e) => checker.check(false, || format!("traced pass {pass} failed: {e}")),
        }
        if pass == 0 {
            probe_metrics = delta_metrics;
        }
    }

    if let [(first, _), (second, _)] = passes.as_slice() {
        for ((name, a), (_, b)) in exact_counts(first).into_iter().zip(exact_counts(second)) {
            checker.check(a == b, || {
                format!(
                    "count {name} differs between two passes of seed {}: {a} vs {b}",
                    cfg.seed
                )
            });
        }
    }

    let mut metrics = Vec::new();
    if let Some((rep, mut tracer)) = passes.into_iter().next() {
        metrics = layer_metrics(&rep);
        let probes =
            layers::ingest_cost(w, cfg.seed, &cfg.data_dir, &mut tracer, &mut probe_metrics)
                .and_then(|(space, stats)| {
                    let net_input: u64 = stats.iter().map(|s| s.net_input_bytes).sum();
                    layers::index_probes(
                        &space,
                        net_input,
                        &cfg.data_dir,
                        &mut tracer,
                        &mut probe_metrics,
                    )?;
                    layers::converter_probes(&space, &mut tracer, &mut probe_metrics)
                });
        checker.check(probes.is_ok(), || {
            format!("layer probes failed: {probes:?}")
        });
        layers::store_probe(&mut tracer, &mut probe_metrics);
        metrics.append(&mut probe_metrics);

        let gap = tracer.attribution_gap();
        checker.check(gap <= 0.10, || {
            format!("self times miss their root span by {:.1} %", gap * 100.0)
        });
        let path = cfg.data_dir.join(format!("trace-{}.jsonl", w.name));
        let written = tracer.write_jsonl(&path);
        checker.check(written.is_ok(), || {
            format!("writing {}: {written:?}", path.display())
        });
        println!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        println!("{:<32} {:>10} {:>14}", "span", "count", "self time s");
        for (name, (count, self_ns)) in tracer.self_time_by_name() {
            println!("{name:<32} {count:>10} {:>14.6}", self_ns as f64 / 1e9);
        }
    }
    metrics.sort_by(|a, b| a.name.cmp(&b.name));

    Report {
        workload: w.name,
        metrics,
        attempted: checker.attempted,
        failed: checker.failed,
        notes: checker.notes,
    }
}
