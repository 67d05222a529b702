//! # idm-bench — the evaluation harness (Section 7)
//!
//! Shared machinery for regenerating the paper's evaluation over the
//! synthetic personal dataspace. [`Paper::measure`] builds one
//! dataspace and takes every number of Tables 2–4, Figures 5–6 and our
//! baseline from it; the `paper` bin prints that value and
//! `tests/paper.rs` asserts the paper's shape claims on it.
//!
//! | Target | Binary |
//! |---|---|
//! | Tables 2–4, Figures 5–6, baseline | `paper` |
//! | Budget overshoot, scrub interference, chaos (ours) | `overload`, `scrub`, `chaos` |
//!
//! Run the evaluation as
//! `cargo run --release -p idm-bench --bin paper -- --sf 1.0`.
//! Ingest throughput, WAL, index, converter and per-query latencies are
//! measured by the end-to-end benchmark in `bench-e2e/` (see
//! `BENCHMARK.json`), not here.

#![warn(missing_docs)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use idm_core::prelude::Vid;
use idm_dataset::generator::DatasetCounts;
use idm_dataset::{generate, DatasetConfig, GeneratedDataset};
use idm_email::LatencyModel;
use idm_query::QueryProcessor;
use idm_system::{FsPlugin, ImapPlugin, Pdsms, RssPlugin, SourceIngestStats};
use idm_vfs::NodeId;

/// The Table 4 queries, verbatim from the paper.
pub const TABLE4_QUERIES: [(&str, &str); 8] = [
    ("Q1", r#""database""#),
    ("Q2", r#""database tuning""#),
    ("Q3", r#"[size > 420000 and lastmodified < @12.06.2005]"#),
    ("Q4", r#"//papers//*Vision/*["Franklin"]"#),
    ("Q5", r#"//VLDB200?//?onclusion*/*["systems"]"#),
    (
        "Q6",
        r#"union( //VLDB2005//*["documents"], //VLDB2006//*["documents"])"#,
    ),
    (
        "Q7",
        r#"join( //VLDB2006//*[class="texref"] as A, //VLDB2006//*[class="environment"]//figure* as B, A.name=B.tuple.label)"#,
    ),
    (
        "Q8",
        r#"join ( //*[class="emailmessage"]//*.tex as A, //papers//*.tex as B, A.name = B.name )"#,
    ),
];

/// Table 3's index structures, in the order of [`Paper::index_bytes`].
pub const INDEXES: [&str; 5] = ["Name", "Tuple", "Content", "Group", "RV Catalog"];

/// Result counts the paper reports for Q1–Q8 (Table 4).
pub const PAPER_RESULT_COUNTS: [usize; 8] = [941, 39, 88, 2, 2, 31, 21, 16];

/// The baseline's information needs: the paper's Examples 1 and 2 and
/// Q4, each as the phrase a keyword tool is given and as iQL.
pub const BASELINE_NEEDS: [(&str, &str, &str); 3] = [
    (
        "Example 1: PIM Introduction sections mentioning Mike Franklin",
        "Mike Franklin",
        r#"//PIM//Introduction[class="latex_section" and "Mike Franklin"]"#,
    ),
    (
        "Example 2-style: OLAP figures captioned 'Indexing Time'",
        "Indexing Time",
        r#"//OLAP//*[class="figure" and "Indexing Time"]"#,
    ),
    (
        "Q4: Vision sections under /papers that cite Franklin",
        "Franklin",
        r#"//papers//*Vision/*["Franklin"]"#,
    ),
];

/// A fully built dataspace system ready for measurements.
pub struct Workbench {
    /// The generated dataset (sources + ground truth).
    pub dataset: GeneratedDataset,
    /// The PDSMS over it.
    pub system: Pdsms,
    /// Per-source ingestion statistics.
    pub stats: Vec<SourceIngestStats>,
    /// Wall time of the ingest (all sources).
    pub ingest_wall: Duration,
}

/// Workbench build options.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Dataset scale factor (1.0 ≈ paper size).
    pub scale: f64,
    /// Whether source access pays the 2005 latency models: the IMAP
    /// network model at scale 1.0 (slept, so ingest times are end to
    /// end) and the IDE-disk model at scale 0.25.
    pub latency: bool,
    /// Whether to register the RSS source as well.
    pub with_rss: bool,
}

/// Builds a workbench: generate the dataset, register the sources,
/// ingest and index everything.
pub fn build(options: BuildOptions) -> Workbench {
    let config = DatasetConfig {
        scale: options.scale,
        imap_latency: if options.latency {
            LatencyModel::remote_2005(1.0)
        } else {
            LatencyModel::none()
        },
        imap_sleep: options.latency,
        ..DatasetConfig::default()
    };
    let dataset = generate(config);
    if options.latency {
        dataset.fs.set_latency(idm_vfs::DiskLatency::ide_2005(0.25));
    }

    let mut system = Pdsms::new();
    system.register_source(Arc::new(FsPlugin::new(
        Arc::clone(&dataset.fs),
        NodeId::ROOT,
    )));
    system.register_source(Arc::new(ImapPlugin::new(Arc::clone(&dataset.imap))));
    if options.with_rss {
        system.register_source(Arc::new(RssPlugin::new(
            Arc::clone(&dataset.feeds),
            dataset.feed_urls.clone(),
        )));
    }
    let started = Instant::now();
    let stats = system.index_all().expect("ingestion succeeds");
    let ingest_wall = started.elapsed();
    Workbench {
        dataset,
        system,
        stats,
        ingest_wall,
    }
}

impl Workbench {
    /// A query processor of its own over the workbench's dataspace.
    pub fn processor(&self) -> QueryProcessor {
        self.system.query_processor()
    }

    /// Executes one of the Table 4 queries (0-based index), returning
    /// the result count.
    pub fn run_query(&self, index: usize) -> usize {
        let (_name, iql) = TABLE4_QUERIES[index];
        self.processor()
            .execute(iql)
            .unwrap_or_else(|e| panic!("query {index} failed: {e}"))
            .rows
            .len()
    }

    /// Simulated latency both sources have charged so far.
    fn source_latency(&self) -> Duration {
        self.dataset.imap.simulated_latency() + self.dataset.fs.simulated_latency()
    }
}

/// One Table 4 query, measured (Table 4 and Figure 6).
#[derive(Debug, Clone)]
pub struct QueryRow {
    /// `Q1` … `Q8`.
    pub name: &'static str,
    /// The iQL text.
    pub iql: &'static str,
    /// Rows the query returned.
    pub rows: usize,
    /// Rows the generator planted for it.
    pub planted: usize,
    /// `ExecStats::nodes_expanded` (not the paper's forward-expansion
    /// count, see EXPERIMENTS.md).
    pub nodes_expanded: usize,
    /// `ExecStats::candidates_examined`.
    pub candidates: usize,
    /// Warm-cache mean response time.
    pub time: Duration,
}

/// One baseline information need, answered three ways.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// The need, as printed.
    pub label: &'static str,
    /// grep-style: base items (files, emails, attachments) whose bytes
    /// contain the phrase.
    pub grep: usize,
    /// desktop search: every indexed view containing the phrase.
    pub desktop: Vec<Vid>,
    /// iDM + iQL: the structural answer.
    pub iql: Vec<Vid>,
}

/// Every number of the paper's evaluation, taken from one dataspace.
#[derive(Debug, Clone)]
pub struct Paper {
    /// Dataset scale factor (1.0 ≈ paper size).
    pub scale: f64,
    /// Cores of the measuring host.
    pub cores: usize,
    /// Per-source ingest statistics (Table 2, Table 3's net input,
    /// Figure 5).
    pub sources: Vec<SourceIngestStats>,
    /// Wall time of the ingest: less than the sum of the sources'
    /// phases, because the IMAP source is read while the filesystem
    /// ingests.
    pub ingest_wall: Duration,
    /// The generator's composition (Table 2).
    pub composition: DatasetCounts,
    /// Serialized bytes of each of [`INDEXES`] (Table 3).
    pub index_bytes: [usize; 5],
    /// Simulated IMAP latency charged by the ingest (Figure 5).
    pub imap_latency: Duration,
    /// Q1–Q8 (Table 4 and Figure 6).
    pub queries: Vec<QueryRow>,
    /// The baseline comparison.
    pub baseline: Vec<BaselineRow>,
    /// Simulated source latency charged while the queries and the
    /// baseline ran: zero unless a query reads a source.
    pub query_source_latency: Duration,
}

impl Paper {
    /// Builds the dataspace once at `scale`, with the 2005 latency
    /// models on so that Figure 5 times real source access, and takes
    /// every table and figure from it.
    pub fn measure(scale: f64) -> Paper {
        let bench = build(BuildOptions {
            scale,
            latency: true,
            with_rss: false,
        });
        let imap_latency = bench.dataset.imap.simulated_latency();
        let before_queries = bench.source_latency();
        let e = bench.dataset.expected;
        let planted = [e.q1, e.q2, e.q3, e.q4, e.q5, e.q6, e.q7, e.q8];
        let processor = bench.processor();
        let queries = TABLE4_QUERIES
            .iter()
            .zip(planted)
            .map(|(&(name, iql), planted)| {
                let result = processor.execute(iql).expect("query runs");
                QueryRow {
                    name,
                    iql,
                    rows: result.rows.len(),
                    planted,
                    nodes_expanded: result.stats.nodes_expanded,
                    candidates: result.stats.candidates_examined,
                    time: warm_time(&processor, iql, 9),
                }
            })
            .collect();
        let baseline = baseline(&bench, &processor);
        Paper {
            scale,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            composition: bench.dataset.counts,
            index_bytes: {
                let s = bench.system.indexes().sizes();
                [s.name, s.tuple, s.content, s.group, s.catalog]
            },
            imap_latency,
            query_source_latency: bench.source_latency() - before_queries,
            sources: bench.stats,
            ingest_wall: bench.ingest_wall,
            queries,
            baseline,
        }
    }
}

/// Warm-cache timing of a query: two warm-up runs, then the mean of
/// `runs` (the paper reports warm-cache averages).
fn warm_time(processor: &QueryProcessor, iql: &str, runs: u32) -> Duration {
    for _ in 0..2 {
        processor.execute(iql).expect("warmup run");
    }
    let start = Instant::now();
    for _ in 0..runs {
        processor.execute(iql).expect("timed run");
    }
    start.elapsed() / runs
}

/// The Section 1 motivation, quantified: results a user must examine
/// for each of [`BASELINE_NEEDS`].
fn baseline(bench: &Workbench, processor: &QueryProcessor) -> Vec<BaselineRow> {
    let store = bench.system.store();
    let is_base_item = |vid: Vid| {
        store.class_name(vid).ok().flatten().is_some_and(|c| {
            matches!(
                c.as_str(),
                "file" | "xmlfile" | "latexfile" | "attachment" | "emailmessage"
            )
        })
    };
    BASELINE_NEEDS
        .iter()
        .map(|&(label, keyword, iql)| {
            let desktop = bench.system.indexes().content.phrase_query(keyword);
            BaselineRow {
                label,
                grep: desktop.iter().filter(|&&v| is_base_item(v)).count(),
                iql: processor.execute(iql).expect("iql runs").rows.views(),
                desktop,
            }
        })
        .collect()
}

/// The `p`-quantile (`0.0..=1.0`) of ascending-sorted samples, by
/// nearest rank; zero for no samples.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Formats a byte count as MB with one decimal.
pub fn mb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// How the `paper` bin is called.
pub const PAPER_USAGE: &str = "usage: paper [--sf <positive number>]   (default --sf 0.05)";

/// The scale factor from the `paper` bin's arguments (without the
/// program name): none gives 0.05, `--sf <x>` gives `x` if it is a
/// positive number. Anything else is an error naming what was wrong.
pub fn paper_scale(args: &[String]) -> Result<f64, String> {
    match args {
        [] => Ok(0.05),
        [flag, value] if flag == "--sf" => positive_sf(value),
        _ => Err(format!("unexpected arguments {args:?}")),
    }
}

/// The scale factor and repetition count of the `overload` and `scrub`
/// bins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinArgs {
    /// `--sf`: the dataset scale factor.
    pub sf: f64,
    /// `--reps`: how many measured repetitions.
    pub reps: usize,
}

/// Parses a bin's arguments (without the program name) as strictly as
/// [`paper_scale`]: `--sf <x>` with `x` a positive number and
/// `--reps <n>` with `n` a positive integer, each at most once, in
/// either order; what is not given keeps its default. Anything else is
/// an error naming what was wrong.
pub fn bin_args(args: &[String], defaults: BinArgs) -> Result<BinArgs, String> {
    let (mut sf, mut reps) = (None, None);
    for pair in args.chunks(2) {
        match pair {
            [flag, value] if flag == "--sf" && sf.is_none() => sf = Some(positive_sf(value)?),
            [flag, value] if flag == "--reps" && reps.is_none() => {
                reps = match value.parse::<usize>() {
                    Ok(n) if n > 0 => Some(n),
                    _ => return Err(format!("--reps takes a positive integer, not '{value}'")),
                }
            }
            _ => return Err(format!("unexpected arguments {args:?}")),
        }
    }
    Ok(BinArgs {
        sf: sf.unwrap_or(defaults.sf),
        reps: reps.unwrap_or(defaults.reps),
    })
}

fn positive_sf(value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(sf) if sf.is_finite() && sf > 0.0 => Ok(sf),
        _ => Err(format!("--sf takes a positive number, not '{value}'")),
    }
}
